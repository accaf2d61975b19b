//! # nurapid-suite
//!
//! A full reproduction of **"Distance Associativity for High-Performance
//! Energy-Efficient Non-Uniform Cache Architectures"** (Chishti, Powell,
//! and Vijaykumar, MICRO 2003) as a Rust workspace.
//!
//! This facade crate re-exports every workspace member so examples and
//! downstream users can depend on one crate:
//!
//! * [`nurapid`] — the paper's contribution: the distance-associative
//!   cache with decoupled tag/data placement;
//! * [`nuca`] — the D-NUCA baseline it is evaluated against;
//! * [`memsys`], [`cpu`] — the memory-system and out-of-order-core
//!   substrates;
//! * [`cachemodel`], [`floorplan`] — the Cacti-like latency/energy model
//!   and the L-shaped physical layout;
//! * [`workloads`] — synthetic SPEC2K-like trace generators;
//! * [`energy`] — Wattch-like full-system energy accounting;
//! * [`experiments`] — the harness that regenerates every table and
//!   figure of the paper's evaluation;
//! * [`simsched`] — the deterministic parallel scheduler the harness
//!   runs on (worker pool, single-flight memoizing run store, progress
//!   events).
//!
//! # Quickstart
//!
//! ```
//! use nurapid_suite::nurapid::{NuRapidCache, NuRapidConfig};
//! use nurapid_suite::memsys::lower::LowerCache;
//! use nurapid_suite::simbase::{AccessKind, BlockAddr, Cycle};
//!
//! let mut cache = NuRapidCache::new(NuRapidConfig::micro2003(4));
//! let miss = cache.access(BlockAddr::from_index(1), AccessKind::Read, Cycle::ZERO);
//! assert!(!miss.hit);
//! let hit = cache.access(BlockAddr::from_index(1), AccessKind::Read, Cycle::new(1_000));
//! assert!(hit.hit); // 14 cycles: the fastest 2-MB d-group
//! ```
//!
//! See `examples/` for runnable scenarios and `repro` (in the `bench`
//! crate) for the full evaluation.

pub use cachemodel;
pub use cpu;
pub use energy;
pub use experiments;
pub use floorplan;
pub use memsys;
pub use nuca;
pub use nurapid;
pub use simbase;
pub use simsched;
pub use workloads;
