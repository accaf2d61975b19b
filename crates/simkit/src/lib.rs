//! In-tree test kit for the NuRAPID workspace.
//!
//! The tier-1 gate (`cargo build --release && cargo test -q`) must pass in
//! an environment with **no network access and an empty registry cache**.
//! This crate supplies, with zero external dependencies, the
//! property-testing machinery the workspace previously pulled from
//! crates.io:
//!
//! * [`prop`] — a property-based testing engine: composable generators,
//!   configurable case counts, greedy shrinking, seed replay through the
//!   `SIMKIT_SEED` environment variable, and a file-based regression
//!   corpus that also ingests legacy `proptest-regressions` files;
//! * [`corpus`] — parsing and persistence for the regression corpus.
//!
//! Randomness comes from [`simbase::rng::SimRng`] — the same pinned
//! xoshiro256++ stream the simulators use — so a printed case seed is
//! sufficient to replay any failure bit-exactly on any machine.
//!
//! # Replaying a failure
//!
//! When a property fails, the harness shrinks the case and prints:
//!
//! ```text
//! [simkit] property 'port_reservations_are_disjoint' FAILED (case 17, seed 0x1b2a...)
//! [simkit]   shrunk value: [(178, 8), (4282, 1), (161, 18)]
//! [simkit]   replay: SIMKIT_SEED=0x1b2a... cargo test port_reservations_are_disjoint
//! ```
//!
//! Setting `SIMKIT_SEED` reruns exactly that case (and nothing else);
//! `SIMKIT_CASES` overrides the number of random cases for every property.

pub mod corpus;
pub mod prop;

pub use prop::{checker, Gen, PropError};
pub use simbase::rng::SimRng;
