//! On-disk checkpoint store: warm-up checkpoints, and finished runs.
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
//! Checkpoints stream between a system and its file: a restore decodes
//! straight from the file through one [`snapshot::CHUNK`]-byte buffer, and
//! a build encodes straight into a temp file, so the store never holds a
//! payload whole in memory. A stream that fails — a bad header, a cut
//! file, a checksum mismatch found at the end, trailing bytes — leaves its
//! target half-written, so the target is reset and the checkpoint rebuilt,
//! never trusted.
//!
//! The store is single-flight per process for builders
//! ([`simsched::Flights`]): concurrent sweep workers missing the same
//! checkpoint wait for one builder, then stream the file it published. On
//! disk, each checkpoint is one `<digest>.simchk` file written via
//! temp-file-and-rename, so a crashed or concurrent writer can never
//! publish a torn file.
//!
//! The same store, opened with [`CheckpointStore::open_results`], holds
//! finished runs: each [`Finished`] result encodes its integer counters
//! under [`RESULTS_VERSION`], keyed by its run digest. A sweep over such a
//! store loads a run whose file is whole and simulates (and republishes)
//! one whose file is missing or damaged.

use simbase::digest::Digest;
use simbase::snapshot::{self, Decoder, Encoder, SnapshotError};
use simsched::Flights;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag of the checkpoint payload layout. Bump whenever any
/// `save_state` encoding or the payload ordering changes; old files then
/// fail to open and are transparently rebuilt.
pub const CHECKPOINT_VERSION: u32 = 2;

/// File extension of sealed checkpoints.
pub const CHECKPOINT_EXT: &str = "simchk";

/// State the store streams into and out of a checkpoint file.
pub(crate) trait Checkpointed {
    /// Encodes the architectural state as the checkpoint payload.
    fn save(&self, e: &mut Encoder<'_>);

    /// Decodes a [`Checkpointed::save`] payload over the current state.
    /// After an error the state is half-written and must not be used.
    ///
    /// # Errors
    ///
    /// The first decode error.
    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError>;
}

/// Version tag of the finished-run payloads a results store holds
/// ([`CheckpointStore::open_results`]). Bump whenever a [`Finished`]
/// encoding changes; old files then fail to open and their runs are
/// simulated again.
pub const RESULTS_VERSION: u32 = 1;

/// A finished run a results store persists under its run digest.
pub(crate) trait Finished: Sized {
    /// Encodes the run.
    fn save(&self, e: &mut Encoder<'_>);

    /// Decodes a [`Finished::save`] payload.
    ///
    /// # Errors
    ///
    /// The first decode error, or a value the run cannot hold.
    fn load(d: &mut Decoder<'_>) -> Result<Self, SnapshotError>;
}

/// A finished run as a results store streams it: `None` until a file is
/// decoded into it or the run is simulated.
impl<T: Finished> Checkpointed for Option<T> {
    fn save(&self, e: &mut Encoder<'_>) {
        self.as_ref().expect("a finished run").save(e);
    }

    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        *self = Some(T::load(d)?);
        Ok(())
    }
}

/// An application name from a results payload, resolved in the roster.
pub(crate) fn load_app(d: &mut Decoder<'_>) -> Result<&'static str, SnapshotError> {
    let name = d.u8_slice()?;
    std::str::from_utf8(&name)
        .ok()
        .and_then(workloads::profiles::by_name)
        .map(|p| p.name)
        .ok_or(SnapshotError::Malformed("application not in the roster"))
}

/// Why [`CheckpointStore::restore`] served nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unserved {
    /// No usable file: it is missing, or its header or size is wrong. The
    /// target was not touched.
    Absent,
    /// The stream failed part-way, so the target is half-written.
    Damaged,
}

/// A directory of sealed checkpoints with single-flight building in front
/// of it.
pub struct CheckpointStore {
    dir: PathBuf,
    version: u32,
    building: Flights<u128>,
    hits: AtomicU64,
    misses: AtomicU64,
    budget: Option<u64>,
    pruned: AtomicU64,
    pins: Arc<Mutex<HashMap<u128, usize>>>,
}

/// Holds a checkpoint file pinned against [`CheckpointStore::prune_to_budget`]
/// for as long as the guard lives. Every stream from or to a file pins it
/// for its own duration; long-running consumers (the interval jobs of a
/// sampled run, seeded from their snapshots' files, and a sweep's shared
/// snapshot chains until every member has taken its seeds) pin
/// explicitly. A guard shares the store's pin table rather than borrowing
/// the store, so it can be kept beside the store it pins.
pub struct PinGuard {
    pins: Arc<Mutex<HashMap<u128, usize>>>,
    key: u128,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut pins = self.pins.lock().expect("pin table poisoned");
        if let Some(n) = pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

/// A raw payload as [`CheckpointStore::get_or_build`] serves it.
struct Payload(Vec<u8>);

impl Checkpointed for Payload {
    fn save(&self, e: &mut Encoder<'_>) {
        e.put_bytes(&self.0);
    }

    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        self.0.resize(d.remaining(), 0);
        d.bytes_into(&mut self.0)
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_versioned(dir, CHECKPOINT_VERSION)
    }

    /// Opens (creating if needed) a store of sealed finished runs, keyed
    /// by run digest under [`RESULTS_VERSION`]. It is kept apart from the
    /// warm-up store, which only restores state into runs that are still
    /// simulated.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open_results(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_versioned(dir, RESULTS_VERSION)
    }

    fn open_versioned(dir: impl AsRef<Path>, version: u32) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            version,
            building: Flights::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: None,
            pruned: AtomicU64::new(0),
            pins: Arc::default(),
        })
    }

    /// Sets a byte budget for the on-disk store (the `--simchk-prune` /
    /// `SIMCHK_MAX` knob). After every fresh build the store evicts
    /// least-recently-used `.simchk` files until the directory fits the
    /// budget, never touching files a live [`PinGuard`] holds. A
    /// checkpoint pruned from disk and requested again is rebuilt: one
    /// more miss. `None` (the default) never prunes.
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
    pub fn pin(&self, digest: Digest) -> PinGuard {
        *self.pins.lock().expect("pin table poisoned").entry(digest.raw()).or_insert(0) += 1;
        PinGuard {
            pins: Arc::clone(&self.pins),
            key: digest.raw(),
        }
    }

    /// Whether a file for `digest` is in the store. A file there may
    /// still fail to open, so this is a hint: [`CheckpointStore::restore`]
    /// decides.
    pub(crate) fn holds(&self, digest: Digest) -> bool {
        self.path_of(digest).exists()
    }

    fn path_of(&self, digest: Digest) -> PathBuf {
        self.dir.join(format!("{}.{}", digest.hex(), CHECKPOINT_EXT))
    }

    /// Streams `digest`'s checkpoint into `sys`, running `build` only if
    /// no valid file exists. Returns `true` on a hit.
    ///
    /// Every requester streams from the file; only a miss takes the
    /// digest's single flight, so concurrent requesters wait for one
    /// builder and then stream the file it published. A file that fails
    /// part-way through its stream leaves `sys` half-written: `reset`
    /// returns it to a state `build` can start from, and the checkpoint is
    /// rebuilt. The builder encodes `sys` straight into a temp file and
    /// publishes it. Publishing is best-effort: a write failure does not
    /// fail the run and leaves no temp file behind, and the next request
    /// builds again.
    pub(crate) fn restore_or_build<S: Checkpointed>(
        &self,
        digest: Digest,
        sys: &mut S,
        reset: impl Fn(&mut S),
        build: impl FnOnce(&mut S),
    ) -> bool {
        let _pin = self.pin(digest);
        let served = |sys: &mut S| match self.restore(digest, sys) {
            Ok(()) => true,
            Err(Unserved::Damaged) => {
                reset(sys);
                false
            }
            Err(Unserved::Absent) => false,
        };
        let flight = loop {
            if served(sys) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            if let Some(flight) = self.building.take(&digest.raw()) {
                // A builder may have landed between the read and the flight.
                if served(sys) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                break flight;
            }
        };
        build(sys);
        self.publish(digest, |e| sys.save(e));
        drop(flight);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A fresh publish is the only event that grows the directory, so
        // it is the only prune trigger needed to hold the budget.
        self.prune_to_budget();
        false
    }

    /// Returns the checkpoint payload for `digest`, running `build` only
    /// if no valid checkpoint file exists, and whether it was a hit. This
    /// is the streaming restore-or-build path with the payload's raw bytes
    /// as the state. The store keeps nothing: every hit reads its own copy
    /// of the file.
    pub fn get_or_build(
        &self,
        digest: Digest,
        build: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        let mut payload = Payload(Vec::new());
        let hit = self.restore_or_build(digest, &mut payload, |_| {}, |p| p.0 = build());
        (Arc::new(payload.0), hit)
    }

    /// Streams `digest`'s file into `sys` and checks its envelope, pinning
    /// the file while it reads; counts neither a hit nor a miss. A file
    /// whose size disagrees with its header is refused before anything is
    /// decoded.
    pub(crate) fn restore<S: Checkpointed>(
        &self,
        digest: Digest,
        sys: &mut S,
    ) -> Result<(), Unserved> {
        let _pin = self.pin(digest);
        let path = self.path_of(digest);
        let mut file = std::fs::File::open(&path).map_err(|_| Unserved::Absent)?;
        let size = file.metadata().map_err(|_| Unserved::Absent)?.len();
        let mut d = Decoder::stream(&mut file, self.version).map_err(|_| Unserved::Absent)?;
        if (d.remaining() + snapshot::OVERHEAD) as u64 != size {
            return Err(Unserved::Absent);
        }
        sys.restore(&mut d).and_then(|()| d.finish()).map_err(|_| Unserved::Damaged)?;
        // Refresh the file's recency so the LRU pruner ranks live
        // checkpoints above abandoned ones (best-effort; a read-only
        // directory just loses recency).
        if let Ok(f) = std::fs::File::options().append(true).open(&path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
        Ok(())
    }

    /// Seals the payload `save` encodes straight into a temp file and
    /// renames it into place as `digest`'s file.
    fn publish(&self, digest: Digest, save: impl Fn(&mut Encoder<'_>)) {
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
            .and_then(|mut f| snapshot::seal_streamed(&mut f, self.version, save))
            .and_then(|()| std::fs::rename(&tmp, self.path_of(digest)));
        if published.is_err() {
            // `prune_to_budget` counts only `.simchk` files, so a
            // leaked temp file would never be reclaimed.
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Evicts least-recently-used `.simchk` files until the directory
    /// fits the configured budget, skipping files currently pinned (by a
    /// live [`PinGuard`], which every stream from or to a file holds).
    /// Returns the bytes removed; a no-op without a budget. Eviction
    /// order is mtime then file name, so concurrent pruners converge on
    /// the same survivors.
    pub fn prune_to_budget(&self) -> u64 {
        let Some(budget) = self.budget else { return 0 };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
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

    /// Requests served by streaming a valid file, without building.
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

    /// A hit holds no payload: the store keeps nothing once a request
    /// returns, so every hit reads its own copy of the file.
    #[test]
    fn hits_hold_no_payload() {
        let dir = temp_dir("resident");
        let store = CheckpointStore::open(&dir).expect("open");
        let (built, _) = store.get_or_build(digest(50), || vec![6; 64]);
        let held = Arc::downgrade(&built);
        drop(built);
        assert!(held.upgrade().is_none(), "the store kept a built payload alive");

        let (a, hit_a) = store.get_or_build(digest(50), || panic!("must read the file"));
        let (b, hit_b) = store.get_or_build(digest(50), || panic!("must read the file"));
        assert!(hit_a && hit_b);
        assert_eq!((&*a, Arc::strong_count(&a)), (&vec![6; 64], 1));
        assert!(!Arc::ptr_eq(&a, &b), "two hits shared one payload");
        assert_eq!((store.hits(), store.misses()), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Words that count how often a failed stream reset them.
    #[derive(Default)]
    struct Words {
        v: Vec<u64>,
        resets: usize,
    }

    impl Checkpointed for Words {
        fn save(&self, e: &mut Encoder<'_>) {
            e.put_u64_slice(&self.v);
        }

        fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            self.v = d.u64_slice()?;
            Ok(())
        }
    }

    /// A file damaged past its header streams part-way, so the target is
    /// reset before the rebuild; a file whose size disagrees with its
    /// header is refused before the target is touched. Either way the
    /// checkpoint is rebuilt and republished whole.
    #[test]
    fn damaged_files_are_rebuilt_and_reset_a_half_written_target() {
        let dir = temp_dir("damaged");
        let store = CheckpointStore::open(&dir).expect("open");
        let words = |n: u64| (0..n).collect::<Vec<_>>();
        let reset = |w: &mut Words| {
            w.v.clear();
            w.resets += 1;
        };
        let path = store.path_of(digest(80));
        let sealed = snapshot::seal(CHECKPOINT_VERSION, &{
            let mut e = Encoder::new();
            e.put_u64_slice(&words(100));
            e.into_bytes()
        });
        let mut flipped = sealed.clone();
        flipped[100] ^= 1;
        let cut = &sealed[..sealed.len() - 1];
        // The requester reads the file once before taking the build flight
        // and once after, so a damaged file resets the target twice.
        for (damage, bytes, resets) in [("flipped", &flipped[..], 2), ("cut", cut, 0)] {
            std::fs::write(&path, bytes).expect("plant the damage");
            let mut w = Words::default();
            let hit = store.restore_or_build(digest(80), &mut w, reset, |w| w.v = words(100));
            assert!(!hit, "{damage}: a damaged file must miss");
            assert_eq!((w.v.clone(), w.resets), (words(100), resets), "{damage}");
            assert_eq!(std::fs::read(&path).expect("republished"), sealed, "{damage}");
        }
        let mut w = Words::default();
        assert!(store.restore_or_build(digest(80), &mut w, reset, |_| panic!("must hit")));
        assert_eq!((w.v, w.resets), (words(100), 0));
        assert_eq!((store.hits(), store.misses()), (1, 2));
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
