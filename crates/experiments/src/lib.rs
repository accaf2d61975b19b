//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 5).
//!
//! Each experiment in [`exps`] assembles the full simulated system — the
//! [`workloads`] trace generators, the [`cpu`] out-of-order core, the
//! [`memsys`] L1s, and one lower-level cache organization
//! ([`memsys::hierarchy::BaseHierarchy`], [`nurapid::NuRapidCache`],
//! [`nurapid::coupled::CoupledCache`], or [`nuca::DnucaCache`]) — runs the
//! paper's 15-application roster through it, and prints the same rows or
//! series the paper reports:
//!
//! | experiment | paper artifact |
//! |---|---|
//! | [`exps::table2`] | Table 2 — per-operation cache energies |
//! | [`exps::table3`] | Table 3 — base IPC and L2 accesses / 1 K instructions |
//! | [`exps::table4`] | Table 4 — per-MB latencies of every organization |
//! | [`exps::fig4`] | Fig. 4 — set-associative vs distance-associative placement |
//! | [`exps::fig5`] | Fig. 5 — demotion-only / next-fastest / fastest distributions |
//! | [`exps::fig6`] | Fig. 6 — performance of the distance-replacement policies |
//! | [`exps::sec531`] | §5.3.1 — random vs true-LRU distance replacement |
//! | [`exps::fig7`] | Fig. 7 — d-group access distribution for 2/4/8 d-groups |
//! | [`exps::fig8`] | Fig. 8 — performance of 2/4/8-d-group NuRAPIDs |
//! | [`exps::fig9`] | Fig. 9 — performance vs D-NUCA (ss-performance) |
//! | [`exps::fig10`] | Fig. 10 (reconstructed) — L2 dynamic energy vs D-NUCA (ss-energy) |
//! | [`exps::fig11`] | Fig. 11 (reconstructed) — processor energy-delay |
//!
//! Runs are scaled down from the paper's 5 B-instruction simulations (see
//! DESIGN.md §3); [`runner::Scale`] picks the instruction budget.

pub mod checkpoint;
pub mod cmp;
pub mod engine;
pub mod exps;
pub mod frontend;
pub mod report;
pub mod repro;
pub mod runner;
pub mod sampling;

pub use self::cmp::{cmp_run_digest, cmp_warmup_digest, CmpRun};
pub use checkpoint::CheckpointStore;
pub use memsys::dramcache::L4Config;
pub use runner::{run_digest, warmup_digest, AppRun, L2Kind, RunOptions, Scale, WarmupMode};
pub use sampling::{run_app_sampled, SampleSpec, SampledRun, Summary};
