//! Out-of-order processor timing model (paper Table 1).
//!
//! A trace-driven reimplementation of the SimpleScalar-style core the paper
//! simulates: 8-wide issue, a 64-entry RUU (register update unit — the
//! combined ROB/scheduler), a 32-entry LSQ, a 2-level hybrid branch
//! predictor with 8 K entries and a 9-cycle misprediction penalty, over the
//! L1s and lower-level cache provided by [`memsys`].
//!
//! The model is dependency-driven rather than cycle-by-cycle: each
//! micro-op's issue time is the maximum of its fetch time, its source
//! operands' ready times, and structural constraints (RUU/LSQ occupancy,
//! fetch and commit bandwidth). This reproduces the quantities the paper's
//! results depend on — IPC sensitivity to L2 latency, memory-level
//! parallelism across the instruction window, and misprediction drain —
//! at a small fraction of the cost of a full pipeline simulation.
//!
//! # Examples
//!
//! ```
//! use cpu::{uop::{MicroOp, OpClass}, OooCore, CoreParams};
//! use memsys::hierarchy::BaseHierarchy;
//! use memsys::l1::CoreMemSystem;
//! use simbase::Addr;
//!
//! let mem = CoreMemSystem::micro2003(BaseHierarchy::micro2003());
//! let mut core = OooCore::new(CoreParams::micro2003(), mem);
//! // A tight loop of independent ALU ops (32-B code footprint).
//! for i in 0..10_000u64 {
//!     core.execute(MicroOp::alu(Addr::new((i % 8) * 4)));
//! }
//! let r = core.finish();
//! assert_eq!(r.instructions, 10_000);
//! assert!(r.ipc() > 4.0); // independent ALU ops run wide
//! ```

pub mod branch;
pub mod core;
pub mod naive;
pub mod uop;

pub use crate::core::{CoreParams, CoreResult, OooCore};
