//! Single-flight computation: the one primitive behind both run stores.
//!
//! [`Flights`] is a set of keys in flight. [`Flights::take`] hands the
//! first requester of a key its [`Flight`]; every later requester blocks
//! until that flight lands (its guard drops) and is then told to look
//! again. Landing on drop covers a finished computation, a failed one
//! and a panic alike, so a panicking computation can never wedge the
//! key: the next requester takes the flight and retries.
//!
//! A [`RunStore`] maps a key (in practice a configuration digest) to the
//! result of an expensive computation, built on [`Flights`]:
//!
//! - each key is computed **exactly once**, no matter how many threads
//!   request it concurrently;
//! - a requester that loses the race **blocks** until the winner's
//!   computation finishes, then shares the winner's `Arc` — it never
//!   re-runs the job;
//! - if the computing thread panics, one blocked waiter retries the
//!   computation.
//!
//! `experiments::CheckpointStore` builds its on-disk checkpoints under
//! the same [`Flights`], with the file standing in for the map.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a thread panicked while holding it.
/// Every update under these locks is one insert or remove, so the data
/// stays valid, and recovering keeps one failed run from wedging the rest
/// (and a [`Flight`]'s `Drop` from panicking).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The keys being computed, with a condvar their waiters sleep on.
pub struct Flights<K> {
    running: Mutex<HashSet<K>>,
    landed: Condvar,
}

/// The single flight of one key; dropping it lands the flight and wakes
/// every requester waiting on it.
pub struct Flight<'a, K: Eq + Hash> {
    flights: &'a Flights<K>,
    key: K,
}

impl<K: Eq + Hash> Drop for Flight<'_, K> {
    fn drop(&mut self) {
        lock(&self.flights.running).remove(&self.key);
        self.flights.landed.notify_all();
    }
}

impl<K: Eq + Hash + Clone> Flights<K> {
    /// No key in flight.
    pub fn new() -> Self {
        Flights {
            running: Mutex::new(HashSet::new()),
            landed: Condvar::new(),
        }
    }

    /// Takes `key`'s flight, or, if another thread holds it, waits for
    /// that flight to land and returns `None`: the caller then looks for
    /// the landed result and, if there is none, asks again.
    pub fn take(&self, key: &K) -> Option<Flight<'_, K>> {
        let mut running = lock(&self.running);
        if running.insert(key.clone()) {
            return Some(Flight {
                flights: self,
                key: key.clone(),
            });
        }
        while running.contains(key) {
            running = self.landed.wait(running).unwrap_or_else(PoisonError::into_inner);
        }
        None
    }
}

impl<K: Eq + Hash + Clone> Default for Flights<K> {
    fn default() -> Self {
        Flights::new()
    }
}

/// A concurrent, memoizing, single-flight map.
pub struct RunStore<K, V> {
    done: Mutex<HashMap<K, Arc<V>>>,
    flights: Flights<K>,
}

impl<K: Eq + Hash + Clone, V> RunStore<K, V> {
    /// An empty store.
    pub fn new() -> Self {
        RunStore {
            done: Mutex::new(HashMap::new()),
            flights: Flights::new(),
        }
    }

    /// Returns the cached value for `key`, or computes it with `f`.
    ///
    /// Exactly one invocation of `f` runs per key across all threads;
    /// concurrent requesters block until it completes.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> Arc<V> {
        let flight = loop {
            if let Some(v) = self.get(&key) {
                return v;
            }
            if let Some(flight) = self.flights.take(&key) {
                // A computation may have landed between the look and the take.
                if let Some(v) = self.get(&key) {
                    return v;
                }
                break flight;
            }
        };
        let value = Arc::new(f());
        lock(&self.done).insert(key, Arc::clone(&value));
        drop(flight);
        value
    }

    /// Returns the cached value for `key` without computing anything.
    /// Does not wait on in-flight computations.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        lock(&self.done).get(key).map(Arc::clone)
    }

    /// Forgets the completed value for `key`, if any. Requesters already
    /// holding its `Arc` keep it; a later request computes it again.
    pub fn remove(&self, key: &K) {
        lock(&self.done).remove(key);
    }

    /// Number of completed entries.
    pub fn completed(&self) -> usize {
        lock(&self.done).len()
    }
}

impl<K: Eq + Hash + Clone, V> Default for RunStore<K, V> {
    fn default() -> Self {
        RunStore::new()
    }
}

impl<K, V> std::fmt::Debug for RunStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.done.lock().map(|m| m.len()).unwrap_or(0);
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
    fn removed_keys_compute_again() {
        let store: RunStore<&str, u64> = RunStore::new();
        let held = store.get_or_compute("a", || 1);
        store.remove(&"a");
        assert_eq!((store.completed(), *held), (0, 1), "a holder keeps its value");
        assert_eq!(*store.get_or_compute("a", || 2), 2);
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
    fn panic_in_computation_releases_the_key() {
        let store: RunStore<u32, u64> = RunStore::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_compute(5, || panic!("first attempt dies"));
        }));
        assert!(r.is_err());
        // The key must be retryable, not wedged in flight.
        assert_eq!(*store.get_or_compute(5, || 55), 55);
    }
}
