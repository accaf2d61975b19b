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
//! - [`store`] — a concurrent, memoizing, **single-flight** run store:
//!   every key is computed exactly once even when many threads request it
//!   concurrently; later requesters block on the first computation
//!   instead of duplicating it.
//! - [`json`] — re-export of [`simbase::json`], the minimal JSON value
//!   model, writer, and parser (integers are preserved as `u64`/`i64`,
//!   so IEEE-754 bit patterns round-trip exactly) used by the artifact
//!   layer and by `simtel`'s exporters.
//! - [`artifact`] — a JSON-lines run manifest keyed by configuration
//!   digest ([`simbase::digest`]): completed runs are appended as they
//!   finish, and a later sweep over the same directory **resumes** by
//!   loading digest-matching records instead of re-simulating.
//! - [`progress`] — structured scheduler events (queued / started /
//!   finished, with per-job wall time and outcome) for the `repro`
//!   binary's live progress display.
//!
//! The crate is generic: it knows nothing about caches or `AppRun`s.
//! `crates/experiments` supplies the job closures and the JSON codec for
//! its result type.
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

pub mod artifact;
pub mod pool;
pub mod progress;
pub mod store;

pub use simbase::json;

pub use artifact::ArtifactStore;
pub use pool::run_jobs;
pub use progress::{Event, EventKind, Observer, Outcome};
pub use store::RunStore;
