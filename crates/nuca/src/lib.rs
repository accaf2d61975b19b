//! D-NUCA: the dynamic non-uniform cache architecture baseline.
//!
//! A reimplementation of the best-performing D-NUCA design of Kim, Burger,
//! and Keckler (ASPLOS 2002) exactly as the NuRAPID paper configures it
//! for comparison (Section 4):
//!
//! * 8 MB, 16-way, divided into **128 × 64-KB banks** with 8 bank
//!   positions ("d-groups") per bank set — two ways of every set per bank;
//! * **coupled tag and data placement**: each bank has its own tag array;
//!   a block's position in the tag array is its position in the data
//!   array;
//! * **bubble (generational) promotion**: a hit swaps the block with one
//!   in the adjacent faster bank; misses place the new block in the
//!   *slowest* bank and evict the block in the slowest way of the set;
//! * a **smart-search array** caching the 7 least-significant tag bits of
//!   every block ([`smart_search`]), used by both of the paper's search
//!   policies: *ss-performance* (multicast all banks, early-miss
//!   detection) and *ss-energy* (probe only partial-tag-matching banks,
//!   nearest first);
//! * **multibanked with an infinite-bandwidth switched network**: swaps
//!   and accesses proceed concurrently; only per-bank contention is
//!   modeled, exactly the advantage the paper grants D-NUCA.
//!
//! # Examples
//!
//! ```
//! use nuca::{DnucaCache, DnucaConfig, SearchPolicy};
//! use memsys::lower::LowerCache;
//! use simbase::{AccessKind, BlockAddr, Cycle};
//!
//! let mut cache = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsPerformance));
//! let miss = cache.access(BlockAddr::from_index(3), AccessKind::Read, Cycle::ZERO);
//! assert!(!miss.hit);
//! // The refill lands in the slowest bank position: the re-access hits
//! // but pays the far-bank latency.
//! let hit = cache.access(BlockAddr::from_index(3), AccessKind::Read, Cycle::new(10_000));
//! assert!(hit.hit);
//! ```

// One cache implements every D-NUCA organization: the uniform way layout
// under the three search policies (ss-performance, ss-energy and the
// way-memoization policy [`SearchPolicy::WayMemo`]), and compressed NUCA
// ([`DnucaCache::compressed`]), the layout that packs compressible
// blocks into half-frame ways at the fastest position.
pub mod cache;
pub mod compress;
pub mod energy;
pub mod naive;
pub mod smart_search;
pub mod stats;

pub use cache::{CnucaConfig, DnucaCache, DnucaConfig, SearchPolicy};
pub use compress::CompressModel;
pub use stats::DnucaStats;
