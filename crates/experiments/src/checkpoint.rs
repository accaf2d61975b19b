//! On-disk warm-up checkpoint store.
//!
//! A checkpoint is the serialised architectural state at the end of the
//! warm-up phase — trace-generator position, trained branch predictor,
//! L1 contents, and the full lower-level organization — sealed with the
//! [`simbase::snapshot`] envelope (magic, version, checksum) and keyed by
//! [`crate::runner::warmup_digest`]. Because the key covers exactly the
//! inputs that shape warm-up architectural state (and nothing
//! timing-only), configurations that differ only in latency knobs share
//! one checkpoint, and the measured phase restored from a checkpoint is
//! bit-identical to one that warmed up in-process (DESIGN.md §11).
//!
//! The store is single-flight per process: concurrent sweep workers
//! wanting the same checkpoint block on one loader or builder and share
//! its payload. The store itself holds a served payload only weakly, so
//! a payload lives exactly as long as some run holds it; once the last
//! one drops it, a later request re-reads the file (still a hit). On disk,
//! each checkpoint is one `<digest>.simchk` file written via
//! temp-file-and-rename, so a crashed or concurrent writer can never
//! publish a torn file; unreadable or stale-version files are rebuilt,
//! never trusted.

use simbase::digest::Digest;
use simbase::snapshot;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// Version tag of the checkpoint payload layout. Bump whenever any
/// `save_state` encoding or the payload ordering changes; old files then
/// fail [`snapshot::open`] and are transparently rebuilt.
pub const CHECKPOINT_VERSION: u32 = 2;

/// File extension of sealed checkpoints.
pub const CHECKPOINT_EXT: &str = "simchk";

/// The in-process state of one checkpoint digest.
enum Flight {
    /// A thread is loading or building the payload; requesters wait.
    Running,
    /// The payload last served, alive only while some run holds it.
    Served(Weak<Vec<u8>>),
}

/// A directory of sealed warm-up checkpoints with single-flight loading
/// in front of it.
pub struct CheckpointStore {
    dir: PathBuf,
    flights: Mutex<HashMap<u128, Flight>>,
    landed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    budget: Option<u64>,
    pruned: AtomicU64,
    pins: Mutex<HashMap<u128, usize>>,
}

/// Holds a checkpoint file pinned against [`CheckpointStore::prune_to_budget`]
/// for as long as the guard lives. [`CheckpointStore::get_or_build`] pins
/// internally for its own duration; long-running consumers (an interval
/// chain re-reading its seed blob, a differential harness comparing
/// files on disk) pin explicitly.
pub struct PinGuard<'a> {
    store: &'a CheckpointStore,
    key: u128,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let mut pins = self.store.pins.lock().expect("pin table poisoned");
        if let Some(n) = pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            flights: Mutex::new(HashMap::new()),
            landed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: None,
            pruned: AtomicU64::new(0),
            pins: Mutex::new(HashMap::new()),
        })
    }

    /// Sets a byte budget for the on-disk store (the `--simchk-prune` /
    /// `SIMCHK_MAX` knob). After every fresh build the store evicts
    /// least-recently-used `.simchk` files until the directory fits the
    /// budget, never touching files a live [`PinGuard`] holds. A payload
    /// pruned from disk and requested again in the same process, once no
    /// run still holds it, is rebuilt: one more miss. `None` (the
    /// default) never prunes.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pins `digest`'s checkpoint file against pruning for the guard's
    /// lifetime. Pinning is advisory bookkeeping in this process — it
    /// does not create the file or keep other processes from touching it.
    pub fn pin(&self, digest: Digest) -> PinGuard<'_> {
        *self
            .pins
            .lock()
            .expect("pin table poisoned")
            .entry(digest.raw())
            .or_insert(0) += 1;
        PinGuard {
            store: self,
            key: digest.raw(),
        }
    }

    fn path_of(&self, digest: Digest) -> PathBuf {
        self.dir.join(format!("{}.{}", digest.hex(), CHECKPOINT_EXT))
    }

    /// Returns the checkpoint payload for `digest`, running `build` only
    /// if no valid checkpoint exists in memory or on disk. A payload
    /// another run still holds is shared; otherwise the file is read and
    /// its envelope stripped in place. A freshly built payload is sealed
    /// straight into a temp file and published to disk. Publishing is
    /// best-effort: a write failure does not fail the run and leaves no
    /// temp file behind, but once every holder drops that payload a
    /// later request builds it again. The returned flag is `true` on a
    /// hit.
    pub fn get_or_build(
        &self,
        digest: Digest,
        build: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        let _pin = self.pin(digest);
        let key = digest.raw();
        let mut flights = self.flights();
        loop {
            match flights.get(&key) {
                Some(Flight::Running) => {
                    flights = self.landed.wait(flights).unwrap_or_else(PoisonError::into_inner);
                }
                Some(Flight::Served(held)) => match held.upgrade() {
                    Some(payload) => {
                        drop(flights);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (payload, true);
                    }
                    None => break,
                },
                None => break,
            }
        }
        flights.insert(key, Flight::Running);
        drop(flights);

        // Lands the flight however this thread leaves: served on success,
        // cleared (so a waiter retries) if loading or building panics.
        struct Landing<'a> {
            store: &'a CheckpointStore,
            key: u128,
            served: Option<Weak<Vec<u8>>>,
        }
        impl Drop for Landing<'_> {
            fn drop(&mut self) {
                let mut flights = self.store.flights();
                match self.served.take() {
                    Some(held) => flights.insert(self.key, Flight::Served(held)),
                    None => flights.remove(&self.key),
                };
                self.store.landed.notify_all();
            }
        }
        let mut landing = Landing {
            store: self,
            key,
            served: None,
        };
        let (payload, built) = match self.load(digest) {
            Some(payload) => (payload, false),
            None => (self.build_and_publish(digest, build), true),
        };
        let payload = Arc::new(payload);
        landing.served = Some(Arc::downgrade(&payload));
        drop(landing);
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // A fresh publish is the only event that grows the directory,
            // so it is the only prune trigger needed to hold the budget.
            self.prune_to_budget();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (payload, !built)
    }

    /// Locks the flight table. Every update to it is one insert or
    /// remove, so the table stays valid even if a thread panicked while
    /// holding the lock; recovering the guard keeps one failed run from
    /// wedging the rest, and keeps the landing's `Drop` from panicking.
    fn flights(&self) -> MutexGuard<'_, HashMap<u128, Flight>> {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The payload of `digest`'s file, if it exists and opens as a valid
    /// seal of this payload version.
    fn load(&self, digest: Digest) -> Option<Vec<u8>> {
        let path = self.path_of(digest);
        let payload = snapshot::open_owned(std::fs::read(&path).ok()?, CHECKPOINT_VERSION).ok()?;
        // Refresh the file's recency so the LRU pruner ranks live
        // checkpoints above abandoned ones (best-effort; a read-only
        // directory just loses recency).
        if let Ok(f) = std::fs::File::options().append(true).open(&path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
        Some(payload)
    }

    /// Runs `build` and publishes its payload as `digest`'s file.
    fn build_and_publish(&self, digest: Digest, build: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        let payload = build();
        // The temp name must be unique per writer: the in-process
        // store single-flights builders, but two *stores* over the
        // same directory (two `repro` processes, a sweep racing a CI
        // job) can build the same digest concurrently, and a shared
        // `<digest>.tmp` would let their writes interleave into one
        // file — publishing a torn checkpoint through the rename.
        // With a pid- and sequence-qualified temp name each writer
        // seals its own file and the last atomic rename wins; both
        // payloads are identical by construction (the digest covers
        // every input that shapes them).
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            digest.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let published = std::fs::File::create(&tmp)
            .and_then(|mut f| snapshot::seal_into(&mut f, CHECKPOINT_VERSION, &payload))
            .and_then(|()| std::fs::rename(&tmp, self.path_of(digest)));
        if published.is_err() {
            // `prune_to_budget` counts only `.simchk` files, so a
            // leaked temp file would never be reclaimed.
            let _ = std::fs::remove_file(&tmp);
        }
        payload
    }

    /// Evicts least-recently-used `.simchk` files until the directory
    /// fits the configured budget, skipping files currently pinned (by a
    /// live [`PinGuard`] or an in-flight [`CheckpointStore::get_or_build`]).
    /// Returns the bytes removed; a no-op without a budget. Eviction
    /// order is mtime then file name, so concurrent pruners converge on
    /// the same survivors.
    pub fn prune_to_budget(&self) -> u64 {
        let Some(budget) = self.budget else { return 0 };
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return 0 };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_none_or(|x| x != CHECKPOINT_EXT) {
                    return None;
                }
                let meta = e.metadata().ok()?;
                Some((meta.modified().ok()?, path, meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= budget {
            return 0;
        }
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let pinned: Vec<u128> = {
            let pins = self.pins.lock().expect("pin table poisoned");
            pins.keys().copied().collect()
        };
        let is_pinned = |path: &Path| {
            path.file_stem()
                .and_then(|s| s.to_str())
                .and_then(|hex| u128::from_str_radix(hex, 16).ok())
                .is_some_and(|raw| pinned.contains(&raw))
        };
        let mut freed = 0;
        for (_, path, len) in files {
            if total <= budget {
                break;
            }
            if is_pinned(&path) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                freed += len;
                self.pruned.fetch_add(1, Ordering::Relaxed);
            }
        }
        freed
    }

    /// Requests served without building (from memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to run warm-up and build the checkpoint.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Checkpoint files evicted by [`CheckpointStore::prune_to_budget`].
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::digest::Hasher128;

    fn digest(tag: u64) -> Digest {
        let mut h = Hasher128::new();
        h.write_str("checkpoint-test");
        h.write_u64(tag);
        h.digest()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simchk-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn builds_once_then_hits_in_process_and_on_disk() {
        let dir = temp_dir("hits");
        let store = CheckpointStore::open(&dir).expect("open");
        let (a, hit_a) = store.get_or_build(digest(1), || vec![1, 2, 3]);
        assert!(!hit_a, "first request must build");
        let (b, hit_b) = store.get_or_build(digest(1), || panic!("must not rebuild"));
        assert!(hit_b);
        assert_eq!(*a, *b);
        assert_eq!((store.hits(), store.misses()), (1, 1));

        // A second store over the same directory hits from disk.
        let warm = CheckpointStore::open(&dir).expect("reopen");
        let (c, hit_c) = warm.get_or_build(digest(1), || panic!("must load from disk"));
        assert!(hit_c);
        assert_eq!(*c, vec![1, 2, 3]);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_stale_files_are_rebuilt() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir).expect("open");
        let path = store.path_of(digest(2));
        std::fs::write(&path, b"not a checkpoint").expect("plant corruption");
        let (blob, hit) = store.get_or_build(digest(2), || vec![9; 64]);
        assert!(!hit, "corrupt file must not count as a hit");
        assert_eq!(*blob, vec![9; 64]);

        // The rebuilt file on disk is now valid.
        let sealed = std::fs::read(&path).expect("rewritten");
        let payload = snapshot::open(&sealed, CHECKPOINT_VERSION).expect("valid seal");
        assert_eq!(payload, &[9; 64][..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_stores_racing_the_same_digest_publish_a_valid_checkpoint() {
        // Models two `repro`/CI processes sharing one checkpoint
        // directory: each process has its own store (so the in-process
        // single-flight does NOT serialize them) and both build the same
        // digest at the same moment. The on-disk protocol must hold:
        // whatever file ends up published has to open as a valid sealed
        // checkpoint with the full payload — a shared temp-file name
        // would let the two writers interleave and publish a torn file.
        let dir = temp_dir("race");
        let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        for round in 0..8u64 {
            let d = digest(100 + round);
            let a = CheckpointStore::open(&dir).expect("open a");
            let b = CheckpointStore::open(&dir).expect("open b");
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for store in [&a, &b] {
                    s.spawn(|| {
                        barrier.wait();
                        let (blob, _) = store.get_or_build(d, || payload.clone());
                        assert_eq!(*blob, payload, "round {round}: payload mismatch");
                    });
                }
            });
            // The published file must be a complete, untorn seal.
            let sealed = std::fs::read(a.path_of(d)).expect("checkpoint published");
            let opened = snapshot::open(&sealed, CHECKPOINT_VERSION)
                .expect("racing writers published a torn checkpoint");
            assert_eq!(opened, &payload[..], "round {round}");
            // No stray temp files left behind by the losing writer...
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .expect("readdir")
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
                .collect();
            // (...the loser's rename also succeeds — it just replaces the
            // winner's identical file — so no .tmp may survive.)
            assert!(leftovers.is_empty(), "round {round}: leftover temp files {leftovers:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed publish still serves the payload and counts one miss,
    /// and leaves no temp file behind: a directory squatting on the
    /// checkpoint's path makes the rename fail.
    #[test]
    fn failed_publish_leaves_no_temp_file() {
        let dir = temp_dir("publish-fails");
        let store = CheckpointStore::open(&dir).expect("open");
        std::fs::create_dir(store.path_of(digest(40))).expect("squat on the path");
        let (blob, hit) = store.get_or_build(digest(40), || vec![5; 64]);
        assert!(!hit);
        assert_eq!(*blob, vec![5; 64], "the payload is still served");
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let temps: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(temps.is_empty(), "leaked temp files {temps:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Backdates a checkpoint file so LRU order is deterministic without
    /// sleeping across mtime granularity.
    fn set_age(store: &CheckpointStore, d: Digest, seconds_ago: u64) {
        let f = std::fs::File::options()
            .append(true)
            .open(store.path_of(d))
            .expect("checkpoint file exists");
        let t = std::time::SystemTime::now() - std::time::Duration::from_secs(seconds_ago);
        f.set_modified(t).expect("set mtime");
    }

    #[test]
    fn pruning_evicts_lru_files_beyond_the_budget() {
        let dir = temp_dir("prune");
        // Each sealed file is 64 bytes payload + the 36-byte envelope.
        let plain = CheckpointStore::open(&dir).expect("open");
        for tag in 0..3u64 {
            plain.get_or_build(digest(10 + tag), || vec![tag as u8; 64]);
            set_age(&plain, digest(10 + tag), 300 - tag * 100);
        }
        // An unbudgeted store never prunes.
        assert_eq!(plain.prune_to_budget(), 0);

        // 300 bytes over a 250-byte budget: exactly the oldest file goes.
        let store = CheckpointStore::open(&dir).expect("reopen").with_budget(Some(250));
        let freed = store.prune_to_budget();
        assert_eq!(freed, 100, "one file frees exactly its sealed size");
        assert_eq!(store.pruned(), 1);
        let exists = |tag: u64| store.path_of(digest(10 + tag)).exists();
        assert!(!exists(0), "oldest file must be evicted first");
        assert!(exists(1) && exists(2), "files within budget must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_never_evicts_a_pinned_checkpoint() {
        let dir = temp_dir("prune-pin");
        let store = CheckpointStore::open(&dir).expect("open").with_budget(Some(220));
        let held = digest(20);
        store.get_or_build(held, || vec![1; 64]);
        set_age(&store, held, 1_000); // oldest: first in LRU eviction order
        let guard = store.pin(held);

        // Publishing two more files (300 bytes total) forces pruning on
        // each publish; the pinned LRU file must be skipped every time.
        store.get_or_build(digest(21), || vec![2; 64]);
        store.get_or_build(digest(22), || vec![3; 64]);
        store.prune_to_budget();
        assert!(
            store.path_of(held).exists(),
            "a pinned (in-flight) checkpoint must never be pruned"
        );
        assert!(store.pruned() > 0, "unpinned files were eligible");

        // Once the run lets go, the file is ordinary LRU prey again: the
        // next publish that busts the budget evicts it.
        drop(guard);
        set_age(&store, held, 1_000);
        store.get_or_build(digest(23), || vec![4; 64]);
        assert!(!store.path_of(held).exists(), "unpinned LRU file must go");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_refresh_recency() {
        let dir = temp_dir("prune-touch");
        let a = CheckpointStore::open(&dir).expect("open");
        a.get_or_build(digest(30), || vec![7; 64]);
        set_age(&a, digest(30), 5_000);
        let before = std::fs::metadata(a.path_of(digest(30))).unwrap().modified().unwrap();
        // A fresh store's disk hit must touch the file forward.
        let b = CheckpointStore::open(&dir).expect("reopen");
        b.get_or_build(digest(30), || panic!("must hit from disk"));
        let after = std::fs::metadata(b.path_of(digest(30))).unwrap().modified().unwrap();
        assert!(after > before, "hit must refresh mtime for LRU ranking");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store holds a served payload only weakly: once its holders
    /// drop it nothing keeps it resident, and the next request re-reads
    /// the file and counts as a hit.
    #[test]
    fn served_payloads_are_freed_with_their_last_holder() {
        let dir = temp_dir("resident");
        let store = CheckpointStore::open(&dir).expect("open");
        let (built, _) = store.get_or_build(digest(50), || vec![6; 64]);
        let held = Arc::downgrade(&built);
        drop(built);
        assert!(held.upgrade().is_none(), "the store kept a built payload alive");

        let (loaded, hit) = store.get_or_build(digest(50), || panic!("must re-read the file"));
        assert!(hit);
        assert_eq!(*loaded, vec![6; 64]);
        // While a run holds the payload, requests share it.
        let (shared, hit) = store.get_or_build(digest(50), || panic!("must share"));
        assert!(hit && Arc::ptr_eq(&loaded, &shared));
        let held = Arc::downgrade(&loaded);
        drop((loaded, shared));
        assert!(held.upgrade().is_none(), "the store kept a loaded payload alive");
        assert_eq!((store.hits(), store.misses()), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let dir = temp_dir("single-flight");
        let store = CheckpointStore::open(&dir).expect("open");
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    let (payload, _) = store.get_or_build(digest(60), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        vec![8; 64]
                    });
                    assert_eq!(*payload, vec![8; 64]);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight violated");
        assert_eq!((store.hits(), store.misses()), (3, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload pruned from disk and requested again once nothing holds
    /// it is rebuilt: one more miss.
    #[test]
    fn a_pruned_payload_is_rebuilt() {
        let dir = temp_dir("prune-rebuild");
        let store = CheckpointStore::open(&dir).expect("open").with_budget(Some(150));
        store.get_or_build(digest(70), || vec![1; 64]);
        set_age(&store, digest(70), 1_000);
        store.get_or_build(digest(71), || vec![2; 64]);
        assert!(!store.path_of(digest(70)).exists(), "the older file is pruned");
        let (payload, hit) = store.get_or_build(digest(70), || vec![1; 64]);
        assert!(!hit, "a pruned, unheld payload must be rebuilt");
        assert_eq!(*payload, vec![1; 64]);
        assert_eq!((store.hits(), store.misses()), (0, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_digests_do_not_alias() {
        let dir = temp_dir("alias");
        let store = CheckpointStore::open(&dir).expect("open");
        let (a, _) = store.get_or_build(digest(3), || vec![3]);
        let (b, _) = store.get_or_build(digest(4), || vec![4]);
        assert_ne!(*a, *b);
        assert_eq!(store.misses(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
