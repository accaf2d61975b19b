//! Synthetic SPEC2K-like workloads (the paper's Table 3 roster).
//!
//! The paper simulates 15 SPEC2K applications with `ref` inputs on
//! SimpleScalar, fast-forwarding 5 billion instructions and running 5
//! billion. Neither SPEC2K binaries nor an Alpha functional simulator are
//! available here, so this crate substitutes **parameterized synthetic
//! trace generators**: each benchmark is described by a
//! [`profiles::BenchProfile`] capturing the statistics the paper's results
//! actually depend on — instruction mix, L2 accesses per kilo-instruction,
//! hot-working-set size relative to the d-group sizes, streaming traffic,
//! pointer-chasing dependence, and branch predictability — and
//! [`generator::TraceGenerator`] turns a profile into a deterministic
//! micro-op stream for the [`cpu`] core model. See DESIGN.md §3 for why
//! this substitution preserves the paper's conclusions.
//!
//! # Examples
//!
//! ```
//! use workloads::{profiles, generator::TraceGenerator};
//! use cpu::uop::TraceSource;
//!
//! let applu = profiles::by_name("applu").expect("in the roster");
//! let mut gen = TraceGenerator::new(applu, 42);
//! let op = gen.next_op();
//! assert!(op.pc.raw() > 0);
//! ```

pub mod generator;
pub mod multi;
pub mod profiles;

pub use generator::TraceGenerator;
pub use multi::CoreStream;
pub use profiles::{BenchProfile, LoadClass, ROSTER};
