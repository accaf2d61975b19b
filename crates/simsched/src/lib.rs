//! Deterministic parallel execution subsystem for simulation jobs.
//!
//! `experiments::Sweep` used to run every (application, configuration)
//! pair strictly serially and keep results only in an in-process map.
//! This crate supplies the machinery a production-scale sweep needs,
//! with zero external dependencies (the workspace's hermetic policy):
//!
//! - [`pool`] — a scoped `std::thread` worker pool that executes a batch
//!   of jobs on N threads and returns results **in job order**, so output
//!   is bit-identical regardless of thread count or completion order. A
//!   batch submitted from inside a job runs inline on that job's thread.
//! - [`store`] — single-flight computation ([`store::Flights`]) and the
//!   concurrent, memoizing run store built on it: every key is computed
//!   exactly once even when many threads request it concurrently; later
//!   requesters block on the first computation instead of duplicating it.
//!   `experiments::CheckpointStore` builds its files under the same
//!   primitive, and persists finished runs as well as warm-up state.
//! - [`progress`] — structured scheduler events (queued / started /
//!   finished, with per-job wall time and outcome) for the `repro`
//!   binary's live progress display.
//!
//! The crate is generic: it knows nothing about caches or `AppRun`s.
//! `crates/experiments` supplies the job closures.
//!
//! # Examples
//!
//! ```
//! use simsched::pool::run_jobs;
//! use simsched::store::RunStore;
//!
//! // Deterministic ordering: results land at their job's index.
//! let squares = run_jobs(4, (0..8).map(|i| move || i * i).collect());
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Single-flight memoization: one computation per key.
//! let store: RunStore<u32, u64> = RunStore::new();
//! let a = store.get_or_compute(7, || 49);
//! let b = store.get_or_compute(7, || unreachable!("cached"));
//! assert_eq!(*a, *b);
//! assert_eq!(store.completed(), 1);
//! ```

pub mod pool;
pub mod progress;
pub mod store;

pub use pool::run_jobs;
pub use progress::{Event, EventKind, Observer, Outcome};
pub use store::{Flights, RunStore};
