//! Memory-system substrate for the NuRAPID reproduction.
//!
//! This crate provides everything below the processor core that is *not*
//! the paper's contribution: generic set-associative cache structures with
//! true-LRU replacement ([`packed_lru`]), [`mshr`]s for miss-level
//! parallelism, a [`memory`] model matching Table 1 (130 cycles + 4 cycles
//! per 8 bytes), the [`l1`] instruction and data caches, and the
//! conventional L2/L3 [`hierarchy`] the paper uses as its base case.
//!
//! The seam between the core-side memory system and the lower-level cache
//! under study is the [`lower::LowerCache`] trait: the base hierarchy, the
//! NuRAPID cache, and the D-NUCA cache all implement it, so the same CPU
//! and L1 models drive every configuration in the evaluation.
//!
//! # Examples
//!
//! ```
//! use memsys::hierarchy::BaseHierarchy;
//! use memsys::lower::LowerCache;
//! use simbase::{AccessKind, BlockAddr, Cycle};
//!
//! let mut base = BaseHierarchy::micro2003();
//! let out = base.access(BlockAddr::from_index(42), AccessKind::Read, Cycle::ZERO);
//! assert!(!out.hit); // cold miss goes to memory
//! ```

pub mod bankq;
pub mod chash;
pub mod dramcache;
pub mod hierarchy;
pub mod l1;
pub mod lower;
pub mod memory;
pub mod mshr;
pub mod naive;
pub mod org;
pub mod packed_lru;
pub mod setassoc;
