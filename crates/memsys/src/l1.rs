//! L1 instruction and data caches plus the MSHR front end.
//!
//! Table 1: both L1s are 64-KB 2-way with 32-B blocks and a 3-cycle
//! pipelined hit; the data cache has 8 MSHRs. L1 misses are converted to
//! the lower cache's 128-B block framing. The real CPU demand on the
//! lower-level cache is filtered through these structures, which is the
//! paper's argument (problem 4) that lower-level bandwidth demand is low.

use crate::lower::LowerCache;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::setassoc::SetAssocCache;
use simbase::stats::Counter;
use simbase::{AccessKind, Addr, BlockAddr, BlockGeometry, Capacity, Cycle};
use simtel::TelemetrySink;

/// L1 configuration.
#[derive(Debug, Clone, Copy)]
pub struct L1Params {
    /// Capacity (64 KB in the paper).
    pub capacity: Capacity,
    /// Associativity (2 in the paper).
    pub assoc: u32,
    /// Block size in bytes (32 in the paper).
    pub block_bytes: u64,
    /// Hit latency in cycles (3 in the paper).
    pub hit_latency: u64,
    /// Number of MSHRs (8 for the data cache).
    pub mshrs: usize,
}

impl L1Params {
    /// The paper's L1 configuration (Table 1).
    pub fn micro2003() -> Self {
        L1Params {
            capacity: Capacity::from_kib(64),
            assoc: 2,
            block_bytes: 32,
            hit_latency: 3,
            mshrs: 8,
        }
    }
}

/// Outcome of a data access through the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOutcome {
    /// When the load value is available (or the store is complete in L1).
    pub complete_at: Cycle,
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
}

/// The core-side memory system: L1 I/D caches and MSHRs in front of a
/// pluggable lower-level cache.
///
/// # Examples
///
/// ```
/// use memsys::hierarchy::BaseHierarchy;
/// use memsys::l1::CoreMemSystem;
/// use simbase::{AccessKind, Addr, Cycle};
///
/// let mut mem = CoreMemSystem::micro2003(BaseHierarchy::micro2003());
/// mem.data_access(Addr::new(0x1000), AccessKind::Read, Cycle::ZERO);
/// // Same 32-B line: a 3-cycle L1 hit.
/// let out = mem.data_access(Addr::new(0x1008), AccessKind::Read, Cycle::new(100));
/// assert!(out.l1_hit);
/// assert_eq!(out.complete_at, Cycle::new(103));
/// ```
#[derive(Debug)]
pub struct CoreMemSystem<L> {
    icache: SetAssocCache,
    dcache: SetAssocCache,
    dmshr: MshrFile,
    lower: L,
    l1_geom: BlockGeometry,
    lower_geom: BlockGeometry,
    hit_latency: u64,
    i_accesses: Counter,
    i_hits: Counter,
    d_accesses: Counter,
    d_hits: Counter,
    d_writebacks: Counter,
    sink: TelemetrySink,
}

impl<L: LowerCache> CoreMemSystem<L> {
    /// Builds the core memory system with the paper's L1 parameters over
    /// `lower`.
    pub fn micro2003(lower: L) -> Self {
        Self::new(L1Params::micro2003(), lower)
    }

    /// Builds the core memory system with explicit L1 parameters.
    pub fn new(params: L1Params, lower: L) -> Self {
        let lower_block = lower.block_bytes();
        assert!(
            lower_block >= params.block_bytes,
            "lower-level blocks must be at least L1-sized"
        );
        CoreMemSystem {
            icache: SetAssocCache::new(params.capacity, params.block_bytes, params.assoc),
            dcache: SetAssocCache::new(params.capacity, params.block_bytes, params.assoc),
            dmshr: MshrFile::new(params.mshrs),
            lower,
            l1_geom: BlockGeometry::new(params.block_bytes),
            lower_geom: BlockGeometry::new(lower_block),
            hit_latency: params.hit_latency,
            i_accesses: Counter::new(),
            i_hits: Counter::new(),
            d_accesses: Counter::new(),
            d_hits: Counter::new(),
            d_writebacks: Counter::new(),
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink: MSHR structural stalls are recorded as
    /// cycle-stamped spans plus a stall-cycle histogram.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Converts an L1 (32-B) block to the lower cache's (128-B) framing.
    fn to_lower_block(&self, l1_block: BlockAddr) -> BlockAddr {
        let addr = self.l1_geom.base_of(l1_block);
        self.lower_geom.block_of(addr)
    }

    /// Instruction fetch of the block containing `pc`; returns when the
    /// fetch completes.
    pub fn fetch(&mut self, pc: Addr, now: Cycle) -> Cycle {
        self.i_accesses.inc();
        let block = self.l1_geom.block_of(pc);
        if self.icache.access(block, AccessKind::Read).is_hit() {
            self.i_hits.inc();
            return now + self.hit_latency;
        }
        let out =
            self.lower
                .access(self.to_lower_block(block), AccessKind::Read, now + self.hit_latency);
        // Instruction lines are never dirty; evictions are silent.
        let _ = self.icache.fill(block, false);
        out.complete_at
    }

    /// Data access (load or store) to `addr`; returns the completion time
    /// and whether the L1 hit.
    pub fn data_access(&mut self, addr: Addr, kind: AccessKind, now: Cycle) -> DataOutcome {
        self.d_accesses.inc();
        let block = self.l1_geom.block_of(addr);
        if self.dcache.access(block, kind).is_hit() {
            self.d_hits.inc();
            return DataOutcome {
                complete_at: now + self.hit_latency,
                l1_hit: true,
            };
        }
        // L1 miss: go through the MSHRs. The MSHR file shapes only *when*
        // the miss issues and completes; merged misses are still presented
        // to the lower level and refill the L1 below, so cache contents
        // stay a pure function of the access sequence (the warm-up
        // fast-forward relies on exactly this).
        let mut issue_at = now + self.hit_latency;
        let mut merged_fill = None;
        loop {
            match self.dmshr.on_miss(block, issue_at) {
                MshrOutcome::Allocated => break,
                MshrOutcome::Merged(fill_at) => {
                    merged_fill = Some(fill_at);
                    break;
                }
                MshrOutcome::Full(retry_at) => {
                    // Structural stall: wait for the earliest entry.
                    if self.sink.enabled() {
                        let stall = (retry_at + 1).saturating_since(issue_at);
                        self.sink.count("memsys.mshr_stalls", 1);
                        self.sink.observe("memsys.mshr_stall_cycles", stall);
                        self.sink.span("memsys", "mshr_stall", issue_at.raw(), stall);
                    }
                    issue_at = retry_at + 1;
                }
            }
        }
        let out = self.lower.access(self.to_lower_block(block), kind, issue_at);
        if merged_fill.is_none() {
            self.dmshr.set_fill_time(block, out.complete_at);
        }
        // Fill the L1 (write-allocate); spill any dirty victim.
        if let Some(ev) = self.dcache.fill(block, kind.is_write()) {
            if ev.dirty {
                self.d_writebacks.inc();
                let _ = self.lower.access(
                    self.to_lower_block(ev.block),
                    AccessKind::Write,
                    out.complete_at,
                );
            }
        }
        DataOutcome {
            // A merged miss completes when the earlier miss's fill arrives.
            complete_at: merged_fill.map_or(out.complete_at, |f| f.max(issue_at)),
            l1_hit: false,
        }
    }

    /// Warm-up instruction fetch: the architectural effects of
    /// [`CoreMemSystem::fetch`] — icache recency, lower-level access, fill
    /// — without timing, counters, or telemetry.
    pub fn warm_fetch(&mut self, pc: Addr) {
        let block = self.l1_geom.block_of(pc);
        if self.icache.access(block, AccessKind::Read).is_hit() {
            return;
        }
        self.lower.warm_access(self.to_lower_block(block), AccessKind::Read);
        let _ = self.icache.fill(block, false);
    }

    /// Warm-up data access: the architectural effects of
    /// [`CoreMemSystem::data_access`] without the MSHR timing machinery
    /// (merged and stalled misses are presented to the lower level by the
    /// timed path too, so skipping the MSHRs preserves the lower-level
    /// access sequence exactly).
    pub fn warm_data_access(&mut self, addr: Addr, kind: AccessKind) {
        let block = self.l1_geom.block_of(addr);
        if self.dcache.access(block, kind).is_hit() {
            return;
        }
        self.lower.warm_access(self.to_lower_block(block), kind);
        if let Some(ev) = self.dcache.fill(block, kind.is_write()) {
            if ev.dirty {
                self.lower.warm_access(self.to_lower_block(ev.block), AccessKind::Write);
            }
        }
    }

    /// Drops every L1 data-cache line covered by one lower-level block —
    /// the invalidation-lite sharing model: when another core writes a
    /// shared block, this core's private copies vanish without a
    /// writeback (their dirt, if any, is considered absorbed by the
    /// writer's lower-level update). The I-cache is untouched: code is
    /// read-only in the trace model. Returns how many lines were dropped.
    pub fn invalidate_lower_block(&mut self, lower_block: BlockAddr) -> u32 {
        let base = self.lower_geom.base_of(lower_block);
        let lines = self.lower_geom.block_bytes() / self.l1_geom.block_bytes();
        let mut dropped = 0;
        for i in 0..lines {
            let line = self.l1_geom.block_of(base.offset(i * self.l1_geom.block_bytes()));
            if self.dcache.invalidate(line).is_some() {
                dropped += 1;
            }
        }
        dropped
    }

    /// Warm-up drain barrier: forgets in-flight timing state (outstanding
    /// MSHR entries) so the measured phase starts from a quiesced machine
    /// whose behavior is fully determined by architectural state. The
    /// lower level drains its own timing state separately.
    pub fn drain_timing(&mut self) {
        self.dmshr.clear();
    }

    /// Copies `other`'s L1 architectural state (both directories): what
    /// [`CoreMemSystem::load_l1_state`] restores from `other`'s
    /// [`CoreMemSystem::save_l1_state`] bytes. The lower level is untouched.
    pub fn copy_l1_state_from<M>(&mut self, other: &CoreMemSystem<M>) {
        self.icache.clone_from(&other.icache);
        self.dcache.clone_from(&other.dcache);
    }

    /// Serializes the L1 architectural state (both directories). The lower
    /// level serializes itself separately.
    pub fn save_l1_state(&self, e: &mut simbase::snapshot::Encoder) {
        self.icache.save_state(e);
        self.dcache.save_state(e);
    }

    /// Restores state written by [`CoreMemSystem::save_l1_state`].
    pub fn load_l1_state(
        &mut self,
        d: &mut simbase::snapshot::Decoder<'_>,
    ) -> Result<(), simbase::snapshot::SnapshotError> {
        self.icache.load_state(d)?;
        self.dcache.load_state(d)
    }

    /// The lower-level cache under study.
    pub fn lower(&self) -> &L {
        &self.lower
    }

    /// Mutable access to the lower-level cache.
    pub fn lower_mut(&mut self) -> &mut L {
        &mut self.lower
    }

    /// Consumes the system, returning the lower-level cache.
    pub fn into_lower(self) -> L {
        self.lower
    }

    /// Swaps the lower-level cache for `lower`, keeping the L1s, MSHRs and
    /// counters; returns the system over `lower` and the old cache.
    pub fn replace_lower<M>(self, lower: M) -> (CoreMemSystem<M>, L) {
        let mem = CoreMemSystem {
            icache: self.icache,
            dcache: self.dcache,
            dmshr: self.dmshr,
            lower,
            l1_geom: self.l1_geom,
            lower_geom: self.lower_geom,
            hit_latency: self.hit_latency,
            i_accesses: self.i_accesses,
            i_hits: self.i_hits,
            d_accesses: self.d_accesses,
            d_hits: self.d_hits,
            d_writebacks: self.d_writebacks,
            sink: self.sink,
        };
        (mem, self.lower)
    }

    /// Instruction-fetch accesses.
    pub fn i_accesses(&self) -> u64 {
        self.i_accesses.get()
    }

    /// Instruction-fetch L1 hits.
    pub fn i_hits(&self) -> u64 {
        self.i_hits.get()
    }

    /// Data accesses.
    pub fn d_accesses(&self) -> u64 {
        self.d_accesses.get()
    }

    /// Data L1 hits.
    pub fn d_hits(&self) -> u64 {
        self.d_hits.get()
    }

    /// Dirty L1 lines written back to the lower cache.
    pub fn d_writebacks(&self) -> u64 {
        self.d_writebacks.get()
    }

    /// Combined L1 accesses (for energy accounting).
    pub fn l1_accesses(&self) -> u64 {
        self.i_accesses.get() + self.d_accesses.get()
    }

    /// Zeroes the L1 counters (contents and MSHR state are kept). Used
    /// after warm-up.
    pub fn reset_stats(&mut self) {
        self.i_accesses = Counter::new();
        self.i_hits = Counter::new();
        self.d_accesses = Counter::new();
        self.d_hits = Counter::new();
        self.d_writebacks = Counter::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::LowerOutcome;

    /// Lower level with fixed latency that records presented accesses.
    #[derive(Debug)]
    struct Probe {
        latency: u64,
        log: Vec<(BlockAddr, AccessKind)>,
    }

    impl Probe {
        fn new(latency: u64) -> Self {
            Probe {
                latency,
                log: Vec::new(),
            }
        }
    }

    impl LowerCache for Probe {
        fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
            self.log.push((block, kind));
            LowerOutcome {
                complete_at: now + self.latency,
                hit: true,
            }
        }
        fn accesses(&self) -> u64 {
            self.log.len() as u64
        }
        fn misses(&self) -> u64 {
            0
        }
        fn block_bytes(&self) -> u64 {
            128
        }
    }

    fn sys() -> CoreMemSystem<Probe> {
        CoreMemSystem::micro2003(Probe::new(14))
    }

    #[test]
    fn l1_hit_is_three_cycles() {
        let mut s = sys();
        s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::ZERO);
        let out = s.data_access(Addr::new(0x104), AccessKind::Read, Cycle::new(10));
        assert!(out.l1_hit, "same 32-B block must hit");
        assert_eq!(out.complete_at, Cycle::new(13));
        assert_eq!(s.d_hits(), 1);
    }

    #[test]
    fn l1_miss_latency_includes_l1_lookup_plus_lower() {
        let mut s = sys();
        let out = s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::ZERO);
        assert!(!out.l1_hit);
        assert_eq!(out.complete_at, Cycle::new(3 + 14));
    }

    #[test]
    fn lower_sees_128b_blocks() {
        let mut s = sys();
        s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::ZERO);
        // 0x100 >> 7 == 2.
        assert_eq!(s.lower().log[0].0, BlockAddr::from_index(2));
    }

    #[test]
    fn adjacent_l1_blocks_in_same_lower_block_are_separate_misses() {
        let mut s = sys();
        s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::ZERO);
        s.data_access(Addr::new(0x120), AccessKind::Read, Cycle::new(100));
        assert_eq!(s.lower().accesses(), 2, "32-B framing, no spatial merge");
    }

    #[test]
    fn back_to_back_same_block_second_hits_l1() {
        let mut s = sys();
        // Fills are architecturally instantaneous, so an immediate re-access
        // of the same L1 block is an L1 hit, not a merge.
        s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::ZERO);
        let out = s.data_access(Addr::new(0x100), AccessKind::Read, Cycle::new(1));
        assert!(out.l1_hit);
        assert_eq!(s.lower().accesses(), 1);
        assert!(out.complete_at.raw() <= 17);
    }

    #[test]
    fn merged_miss_is_architecturally_a_miss_but_keeps_merged_timing() {
        let mut s = sys();
        // A misses at t=0 (MSHR entry fills at t=17); B and C then evict A
        // from its 2-way set while that entry is still in flight.
        let stride = 1024 * 32;
        s.data_access(Addr::new(0x40), AccessKind::Read, Cycle::ZERO);
        s.data_access(Addr::new(0x40 + stride), AccessKind::Read, Cycle::new(1));
        s.data_access(Addr::new(0x40 + 2 * stride), AccessKind::Read, Cycle::new(2));
        // A again before t=17: merges into the outstanding entry for timing,
        // but is still presented to the lower level and refills the L1.
        let out = s.data_access(Addr::new(0x40), AccessKind::Read, Cycle::new(3));
        assert!(!out.l1_hit);
        assert_eq!(out.complete_at, Cycle::new(17), "completes at the merged fill time");
        assert_eq!(s.lower().accesses(), 4, "merged miss still reaches the lower level");
        let out = s.data_access(Addr::new(0x40), AccessKind::Read, Cycle::new(30));
        assert!(out.l1_hit, "the merged miss must have refilled the line");
    }

    #[test]
    fn warm_paths_build_identical_architectural_state() {
        // Drive one system through the timed path and a twin through the
        // warm path; contents, recency, and dirt must match exactly.
        let mut timed = sys();
        let mut warm = sys();
        let stride = 1024 * 32;
        let seq: &[(u64, AccessKind)] = &[
            (0x40, AccessKind::Write),
            (0x40 + stride, AccessKind::Read),
            (0x40 + 2 * stride, AccessKind::Read), // evicts dirty 0x40
            (0x40, AccessKind::Read),              // merged miss + refill
            (0x1000, AccessKind::Write),
            (0x1008, AccessKind::Read),
        ];
        for (i, &(a, k)) in seq.iter().enumerate() {
            timed.data_access(Addr::new(a), k, Cycle::new(i as u64));
            warm.warm_data_access(Addr::new(a), k);
            timed.fetch(Addr::new(0x2000 + a), Cycle::new(i as u64));
            warm.warm_fetch(Addr::new(0x2000 + a));
        }
        assert_eq!(
            timed.lower().log,
            warm.lower().log,
            "lower level must see the same access sequence"
        );
        // Replaying the sequence cold on both: identical hit patterns.
        for &(a, k) in seq {
            let t = timed.data_access(Addr::new(a), k, Cycle::new(1000));
            let w = warm.data_access(Addr::new(a), k, Cycle::new(1000));
            assert_eq!(t.l1_hit, w.l1_hit, "addr {a:#x}");
        }
    }

    #[test]
    fn l1_state_roundtrips_through_snapshot() {
        use simbase::snapshot::{Decoder, Encoder};
        let mut s = sys();
        let stride = 1024 * 32;
        for (i, a) in [0x40u64, 0x40 + stride, 0x80, 0x2000].into_iter().enumerate() {
            s.data_access(Addr::new(a), AccessKind::Write, Cycle::new(i as u64 * 10));
            s.fetch(Addr::new(a), Cycle::new(i as u64 * 10));
        }
        let mut e = Encoder::new();
        s.save_l1_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = sys();
        let mut d = Decoder::new(&bytes);
        fresh.load_l1_state(&mut d).unwrap();
        d.finish().unwrap();
        for a in [0x40u64, 0x40 + stride, 0x80, 0x2000] {
            assert!(
                fresh.data_access(Addr::new(a), AccessKind::Read, Cycle::ZERO).l1_hit,
                "addr {a:#x} must be resident after restore"
            );
            fresh.fetch(Addr::new(a), Cycle::ZERO);
        }
        assert_eq!(fresh.i_hits(), 4, "icache contents restored");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut s = sys();
        // 64KB 2-way 32B: 1024 sets. Write a block, then evict it with two
        // conflicting fills.
        let stride = 1024 * 32;
        s.data_access(Addr::new(0x40), AccessKind::Write, Cycle::ZERO);
        s.data_access(Addr::new(0x40 + stride), AccessKind::Read, Cycle::new(100));
        s.data_access(Addr::new(0x40 + 2 * stride), AccessKind::Read, Cycle::new(200));
        assert_eq!(s.d_writebacks(), 1);
        assert!(
            s.lower().log.iter().any(|&(_, k)| k.is_write()),
            "writeback must reach the lower cache as a write"
        );
    }

    #[test]
    fn invalidate_lower_block_drops_covered_dcache_lines_only() {
        let mut s = sys();
        // Four 32-B lines inside the 128-B lower block at 0x100..0x180,
        // one line outside it, and the I-cache line for the same range.
        for a in [0x100u64, 0x120, 0x140, 0x160, 0x200] {
            s.data_access(Addr::new(a), AccessKind::Write, Cycle::ZERO);
        }
        s.fetch(Addr::new(0x100), Cycle::ZERO);
        let lower = BlockGeometry::new(128).block_of(Addr::new(0x100));
        assert_eq!(s.invalidate_lower_block(lower), 4);
        // Idempotent: nothing left to drop.
        assert_eq!(s.invalidate_lower_block(lower), 0);
        for a in [0x100u64, 0x120, 0x140, 0x160] {
            assert!(
                !s.data_access(Addr::new(a), AccessKind::Read, Cycle::ZERO).l1_hit,
                "line {a:#x} must be gone"
            );
        }
        assert!(
            s.data_access(Addr::new(0x200), AccessKind::Read, Cycle::ZERO).l1_hit,
            "uncovered line survives"
        );
        s.fetch(Addr::new(0x104), Cycle::ZERO);
        assert_eq!(s.i_hits(), 1, "icache is untouched by data invalidation");
    }

    #[test]
    fn fetch_hits_after_first_fill() {
        let mut s = sys();
        let t1 = s.fetch(Addr::new(0x2000), Cycle::ZERO);
        assert_eq!(t1, Cycle::new(17));
        let t2 = s.fetch(Addr::new(0x2004), Cycle::new(20));
        assert_eq!(t2, Cycle::new(23), "same line: 3-cycle hit");
        assert_eq!(s.i_hits(), 1);
        assert_eq!(s.i_accesses(), 2);
    }

    #[test]
    fn icache_and_dcache_are_independent() {
        let mut s = sys();
        s.fetch(Addr::new(0x3000), Cycle::ZERO);
        let out = s.data_access(Addr::new(0x3000), AccessKind::Read, Cycle::new(50));
        assert!(!out.l1_hit, "I-fill must not warm the D-cache");
    }

    #[test]
    fn l1_accesses_sums_both_sides() {
        let mut s = sys();
        s.fetch(Addr::new(0), Cycle::ZERO);
        s.data_access(Addr::new(0), AccessKind::Read, Cycle::ZERO);
        assert_eq!(s.l1_accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "at least L1-sized")]
    fn lower_blocks_must_cover_l1_blocks() {
        #[derive(Debug)]
        struct Tiny;
        impl LowerCache for Tiny {
            fn access(&mut self, _b: BlockAddr, _k: AccessKind, now: Cycle) -> LowerOutcome {
                LowerOutcome {
                    complete_at: now,
                    hit: true,
                }
            }
            fn accesses(&self) -> u64 {
                0
            }
            fn misses(&self) -> u64 {
                0
            }
            fn block_bytes(&self) -> u64 {
                16
            }
        }
        let _ = CoreMemSystem::new(L1Params::micro2003(), Tiny);
    }
}
