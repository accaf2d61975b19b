//! Concurrent memoizing run store with single-flight semantics.
//!
//! A [`RunStore`] maps a key (in practice a configuration digest) to the
//! result of an expensive computation. The contract:
//!
//! - each key is computed **exactly once**, no matter how many threads
//!   request it concurrently;
//! - a requester that loses the race **blocks** until the winner's
//!   computation finishes, then shares the winner's `Arc` — it never
//!   re-runs the job (single-flight);
//! - if the computing thread panics, the in-flight marker is removed and
//!   one blocked waiter retries the computation, so a panic cannot
//!   deadlock the store.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

enum Entry<V> {
    /// A thread is computing this key; waiters sleep on the condvar.
    Running,
    /// The finished value, shared by all requesters.
    Done(Arc<V>),
}

/// A concurrent, memoizing, single-flight map.
pub struct RunStore<K, V> {
    inner: Mutex<HashMap<K, Entry<V>>>,
    wakeup: Condvar,
}

impl<K: Eq + Hash + Clone, V> RunStore<K, V> {
    /// An empty store.
    pub fn new() -> Self {
        RunStore {
            inner: Mutex::new(HashMap::new()),
            wakeup: Condvar::new(),
        }
    }

    /// Returns the cached value for `key`, or computes it with `f`.
    ///
    /// Exactly one invocation of `f` runs per key across all threads;
    /// concurrent requesters block until it completes.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> Arc<V> {
        let mut map = self.inner.lock().expect("run store poisoned");
        loop {
            match map.get(&key) {
                Some(Entry::Done(v)) => return Arc::clone(v),
                Some(Entry::Running) => {
                    map = self.wakeup.wait(map).expect("run store poisoned");
                }
                None => break,
            }
        }
        map.insert(key.clone(), Entry::Running);
        drop(map);

        // If `f` panics, clear the Running marker so a waiter can retry
        // instead of sleeping forever.
        struct Unflight<'a, K: Eq + Hash, V> {
            store: &'a RunStore<K, V>,
            key: Option<K>,
        }
        impl<K: Eq + Hash, V> Drop for Unflight<'_, K, V> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    self.store.inner.lock().expect("run store poisoned").remove(&key);
                    self.store.wakeup.notify_all();
                }
            }
        }
        let mut guard = Unflight { store: self, key: Some(key) };

        let value = Arc::new(f());

        let key = guard.key.take().expect("guard disarmed early");
        std::mem::forget(guard);
        self.inner
            .lock()
            .expect("run store poisoned")
            .insert(key, Entry::Done(Arc::clone(&value)));
        self.wakeup.notify_all();
        value
    }

    /// Returns the cached value for `key` without computing anything.
    /// Does not wait on in-flight computations.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        match self.inner.lock().expect("run store poisoned").get(key) {
            Some(Entry::Done(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Inserts an externally produced value (e.g. one loaded from an
    /// artifact manifest). Returns the shared handle. An existing
    /// completed entry is left untouched.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let mut map = self.inner.lock().expect("run store poisoned");
        if let Some(Entry::Done(v)) = map.get(&key) {
            return Arc::clone(v);
        }
        let v = Arc::new(value);
        map.insert(key, Entry::Done(Arc::clone(&v)));
        self.wakeup.notify_all();
        v
    }

    /// Number of completed entries.
    pub fn completed(&self) -> usize {
        self.inner
            .lock()
            .expect("run store poisoned")
            .values()
            .filter(|e| matches!(e, Entry::Done(_)))
            .count()
    }
}

impl<K: Eq + Hash + Clone, V> Default for RunStore<K, V> {
    fn default() -> Self {
        RunStore::new()
    }
}

impl<K, V> std::fmt::Debug for RunStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "RunStore({n} entries)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn memoizes() {
        let store: RunStore<&str, u64> = RunStore::new();
        assert_eq!(*store.get_or_compute("a", || 1), 1);
        assert_eq!(*store.get_or_compute("a", || panic!("must be cached")), 1);
        assert_eq!(store.completed(), 1);
        assert_eq!(store.get(&"a").as_deref(), Some(&1));
        assert_eq!(store.get(&"b"), None);
    }

    #[test]
    fn concurrent_requests_compute_once() {
        let store: RunStore<u32, u64> = RunStore::new();
        let calls = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let v = store.get_or_compute(42, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        4242
                    });
                    assert_eq!(*v, 4242);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "single-flight violated");
        assert_eq!(store.completed(), 1);
    }

    #[test]
    fn insert_preloads_and_wins_ties() {
        let store: RunStore<u32, u64> = RunStore::new();
        store.insert(1, 10);
        assert_eq!(*store.get_or_compute(1, || panic!("preloaded")), 10);
        // Insert after completion keeps the original.
        let kept = store.insert(1, 99);
        assert_eq!(*kept, 10);
    }

    #[test]
    fn panic_in_computation_releases_the_key() {
        let store: RunStore<u32, u64> = RunStore::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_compute(5, || panic!("first attempt dies"));
        }));
        assert!(r.is_err());
        // The key must be retryable, not wedged as Running.
        assert_eq!(*store.get_or_compute(5, || 55), 55);
    }
}
