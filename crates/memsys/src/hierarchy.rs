//! The conventional multi-level base case: 1-MB L2 + 8-MB L3.
//!
//! Section 4: "Our base configuration has a 1-MB, 8-way L2 cache with
//! 11-cycle latency, and an 8-MB, 8-way L3 cache, with 43-cycle latency.
//! Both have 128-B blocks." This is the same configuration the NUCA work used when
//! comparing NUCA against a multi-level hierarchy.

use crate::lower::{LowerCache, LowerOutcome};
use crate::memory::MainMemory;
use crate::org::{OrgReport, Organization};
use crate::setassoc::SetAssocCache;
use simbase::stats::Counter;
use simbase::EnergyNj;
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simtel::TelemetrySink;

/// Parameters of one conventional cache level.
#[derive(Debug, Clone, Copy)]
pub struct LevelParams {
    /// Capacity of the level.
    pub capacity: Capacity,
    /// Associativity.
    pub assoc: u32,
    /// Hit latency in cycles.
    pub latency: u64,
}

/// The conventional L2/L3 hierarchy plus main memory.
///
/// # Examples
///
/// ```
/// use memsys::hierarchy::BaseHierarchy;
/// use memsys::lower::LowerCache;
/// use simbase::{AccessKind, BlockAddr, Cycle};
///
/// let mut h = BaseHierarchy::micro2003();
/// h.access(BlockAddr::from_index(1), AccessKind::Read, Cycle::ZERO);
/// // The refill now hits the 1-MB L2 at its 11-cycle latency.
/// let hit = h.access(BlockAddr::from_index(1), AccessKind::Read, Cycle::new(500));
/// assert!(hit.hit);
/// assert_eq!(hit.complete_at, Cycle::new(511));
/// ```
#[derive(Debug, Clone)]
pub struct BaseHierarchy {
    l2: SetAssocCache,
    l3: SetAssocCache,
    l2_latency: u64,
    l3_latency: u64,
    block_bytes: u64,
    memory: MainMemory,
    l2_accesses: Counter,
    l2_hits: Counter,
    l3_accesses: Counter,
    l3_hits: Counter,
    writebacks: Counter,
    sink: TelemetrySink,
    snap_every: u64,
    next_snap: u64,
    l2_access_nj: f64,
    l3_access_nj: f64,
}

impl BaseHierarchy {
    /// The paper's base configuration (Table 1 / Section 4).
    pub fn micro2003() -> Self {
        Self::new(
            LevelParams {
                capacity: Capacity::from_mib(1),
                assoc: 8,
                latency: 11,
            },
            LevelParams {
                capacity: Capacity::from_mib(8),
                assoc: 8,
                latency: 43,
            },
            128,
        )
    }

    /// Builds a hierarchy with explicit level parameters.
    pub fn new(l2: LevelParams, l3: LevelParams, block_bytes: u64) -> Self {
        BaseHierarchy {
            l2: SetAssocCache::new(l2.capacity, block_bytes, l2.assoc),
            l3: SetAssocCache::new(l3.capacity, block_bytes, l3.assoc),
            l2_latency: l2.latency,
            l3_latency: l3.latency,
            block_bytes,
            memory: MainMemory::micro2003(),
            l2_accesses: Counter::new(),
            l2_hits: Counter::new(),
            l3_accesses: Counter::new(),
            l3_hits: Counter::new(),
            writebacks: Counter::new(),
            sink: TelemetrySink::disabled(),
            snap_every: 0,
            next_snap: u64::MAX,
            l2_access_nj: 0.0,
            l3_access_nj: 0.0,
        }
    }

    /// Injects the per-access energies of the two levels (in nJ), priced
    /// by the caller's array models. This crate sits below the technology
    /// models, so the hierarchy cannot derive these itself; until they
    /// are set, [`Organization::report`] prices L2 energy as zero.
    pub fn set_level_energies(&mut self, l2_nj: f64, l3_nj: f64) {
        self.l2_access_nj = l2_nj;
        self.l3_access_nj = l3_nj;
    }

    /// Attaches a telemetry sink, forwarded to the memory channel. When
    /// `snap_every` is non-zero, a periodic snapshot of the L2 hit rate
    /// is emitted every `snap_every` cycles as a counter track.
    pub fn set_telemetry(&mut self, sink: TelemetrySink, snap_every: u64) {
        self.memory.set_telemetry(sink.clone());
        self.next_snap = if sink.enabled() && snap_every > 0 {
            snap_every
        } else {
            u64::MAX
        };
        self.snap_every = snap_every;
        self.sink = sink;
    }

    /// Emits the periodic L2 hit-rate snapshot once `now` passes the
    /// next snapshot boundary.
    fn maybe_snapshot(&mut self, now: Cycle) {
        if now.raw() < self.next_snap {
            return;
        }
        let hit_milli = 1000 * self.l2_hits.get() / self.l2_accesses.get().max(1);
        self.sink.counter_track("snap", "l2_hit_milli", now.raw(), hit_milli);
        self.sink.gauge(
            "l2.hit_frac",
            now.raw(),
            self.l2_hits.get() as f64 / self.l2_accesses.get().max(1) as f64,
        );
        while self.next_snap <= now.raw() {
            self.next_snap += self.snap_every;
        }
    }

    /// L2 accesses observed (the denominator of Table 3's APKI).
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses.get()
    }

    /// L2 hits.
    pub fn l2_hits(&self) -> u64 {
        self.l2_hits.get()
    }

    /// L3 accesses (L2 misses plus L2 writebacks).
    pub fn l3_accesses(&self) -> u64 {
        self.l3_accesses.get()
    }

    /// L3 hits.
    pub fn l3_hits(&self) -> u64 {
        self.l3_hits.get()
    }

    /// Dirty-block writebacks between levels (L2→L3 and L3→memory).
    pub fn writebacks(&self) -> u64 {
        self.writebacks.get()
    }

    /// Accesses that went off chip.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    /// Zeroes the level counters (cache contents are kept). Used after
    /// warm-up, matching the paper's fast-forward methodology. The
    /// off-chip access counter is reset by replacing the memory model's
    /// counters via [`MainMemory::reset_counters`].
    pub fn reset_stats(&mut self) {
        self.l2_accesses = Counter::new();
        self.l2_hits = Counter::new();
        self.l3_accesses = Counter::new();
        self.l3_hits = Counter::new();
        self.writebacks = Counter::new();
        self.memory.reset_counters();
    }

    /// Fills every L2 and L3 frame with placeholder blocks (steady-state
    /// occupancy, the stand-in for the paper's 5 B-instruction
    /// fast-forward). Placeholders use a reserved address range and are
    /// natural LRU victims.
    pub fn prefill(&mut self) {
        let base = u64::MAX / 256;
        let l2_blocks = self.l2.sets() as u64 * self.l2.assoc() as u64;
        let l3_blocks = self.l3.sets() as u64 * self.l3.assoc() as u64;
        for i in 0..l3_blocks {
            let b = BlockAddr::from_index(base + i);
            let ev = self.l3.fill(b, false);
            assert!(ev.is_none(), "prefill must not evict");
            if i < l2_blocks {
                let ev = self.l2.fill(b, false);
                assert!(ev.is_none(), "prefill must not evict");
            }
        }
    }

    /// Warm-up drain barrier: forgets memory-channel occupancy. The L2/L3
    /// directories hold no in-flight timing state of their own.
    pub fn drain_timing(&mut self) {
        self.memory.drain_timing();
    }

    /// Serializes the architectural state of both levels. Counters, the
    /// memory channel, and telemetry are timing state and excluded.
    pub fn save_state(&self, e: &mut simbase::snapshot::Encoder) {
        self.l2.save_state(e);
        self.l3.save_state(e);
        self.memory.save_l4_state(e);
    }

    /// Restores state written by [`BaseHierarchy::save_state`] into a
    /// hierarchy of identical geometry.
    pub fn load_state(
        &mut self,
        d: &mut simbase::snapshot::Decoder<'_>,
    ) -> Result<(), simbase::snapshot::SnapshotError> {
        self.l2.load_state(d)?;
        self.l3.load_state(d)?;
        self.memory.load_l4_state(d)
    }

    /// Warm-up variant of [`BaseHierarchy::fill_l3`]: the dirty-victim
    /// writeback is pure timing on the channel, but with an L4 attached
    /// it changes L4 resident state, so it takes the warm twin.
    fn warm_fill_l3(&mut self, block: BlockAddr, dirty: bool) {
        if let Some(ev) = self.l3.fill(block, dirty) {
            if ev.dirty {
                self.memory.warm_writeback(ev.block);
            }
        }
    }

    /// Warm-up variant of [`BaseHierarchy::fill_l2`]: same victim handling,
    /// no counters or memory timing.
    fn warm_fill_l2(&mut self, block: BlockAddr, dirty: bool) {
        if let Some(ev) = self.l2.fill(block, dirty) {
            if ev.dirty && !self.l3.access(ev.block, AccessKind::Write).is_hit() {
                self.warm_fill_l3(ev.block, true);
            }
        }
    }

    /// Fills `block` into the L3, writing back a dirty victim to memory.
    fn fill_l3(&mut self, block: BlockAddr, dirty: bool, now: Cycle) {
        if let Some(ev) = self.l3.fill(block, dirty) {
            if ev.dirty {
                self.writebacks.inc();
                let _ = self.memory.writeback_block(ev.block, self.block_bytes, now);
            }
        }
    }

    /// Fills `block` into the L2, spilling a dirty victim into the L3.
    fn fill_l2(&mut self, block: BlockAddr, dirty: bool, now: Cycle) {
        if let Some(ev) = self.l2.fill(block, dirty) {
            if ev.dirty {
                self.writebacks.inc();
                // Victim writeback: update in place on L3 hit, else
                // allocate in L3 (exclusive-ish victim handling).
                self.l3_accesses.inc();
                if !self.l3.access(ev.block, AccessKind::Write).is_hit() {
                    self.fill_l3(ev.block, true, now);
                } else {
                    self.l3_hits.inc();
                }
            }
        }
    }
}

impl LowerCache for BaseHierarchy {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.l2_accesses.inc();
        self.maybe_snapshot(now);
        if self.l2.access(block, kind).is_hit() {
            self.l2_hits.inc();
            return LowerOutcome {
                complete_at: now + self.l2_latency,
                hit: true,
            };
        }
        // L2 miss: probe the L3 after the L2 lookup.
        let after_l2 = now + self.l2_latency;
        self.l3_accesses.inc();
        if self.l3.access(block, AccessKind::Read).is_hit() {
            self.l3_hits.inc();
            self.fill_l2(block, kind.is_write(), after_l2);
            return LowerOutcome {
                complete_at: now + self.l3_latency,
                hit: true,
            };
        }
        // Off-chip. L3 lookup time is part of the 43-cycle L3 latency; the
        // memory access starts after the on-chip lookups.
        let after_l3 = now + self.l3_latency;
        let done = self.memory.fill_block(block, self.block_bytes, after_l3);
        self.fill_l3(block, false, done);
        self.fill_l2(block, kind.is_write(), done);
        LowerOutcome {
            complete_at: done,
            hit: false,
        }
    }

    fn accesses(&self) -> u64 {
        self.l2_accesses.get()
    }

    fn misses(&self) -> u64 {
        self.memory.accesses()
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        // Mirrors the timed path's architectural transitions exactly —
        // same lookup order, same fill and victim handling — with the
        // latency math, counters, and memory channel elided.
        if self.l2.access(block, kind).is_hit() {
            return;
        }
        if self.l3.access(block, AccessKind::Read).is_hit() {
            self.warm_fill_l2(block, kind.is_write());
            return;
        }
        self.memory.warm_fill(block);
        self.warm_fill_l3(block, false);
        self.warm_fill_l2(block, kind.is_write());
    }
}

impl Organization for BaseHierarchy {
    fn prefill(&mut self) {
        BaseHierarchy::prefill(self);
    }

    fn reset_stats(&mut self) {
        BaseHierarchy::reset_stats(self);
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, snap_every: u64) {
        BaseHierarchy::set_telemetry(self, sink.clone(), snap_every);
    }

    fn drain_timing(&mut self) {
        BaseHierarchy::drain_timing(self);
    }

    fn save_state(&self, e: &mut simbase::snapshot::Encoder) {
        BaseHierarchy::save_state(self, e);
    }

    fn load_state(
        &mut self,
        d: &mut simbase::snapshot::Decoder<'_>,
    ) -> Result<(), simbase::snapshot::SnapshotError> {
        BaseHierarchy::load_state(self, d)
    }

    fn main_memory(&self) -> Option<&crate::memory::MainMemory> {
        Some(&self.memory)
    }

    fn main_memory_mut(&mut self) -> Option<&mut crate::memory::MainMemory> {
        Some(&mut self.memory)
    }

    fn report(&self) -> OrgReport {
        OrgReport {
            l2_accesses: self.l2_accesses(),
            l2_misses: self.l2_accesses() - self.l2_hits(),
            group_hits: Vec::new(),
            dgroup_accesses: 0,
            swaps: 0,
            memory_accesses: self.memory_accesses(),
            l2_energy: EnergyNj::new(self.l2_access_nj) * self.l2_accesses()
                + EnergyNj::new(self.l3_access_nj) * self.l3_accesses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = BaseHierarchy::micro2003();
        let out = h.access(blk(1), AccessKind::Read, Cycle::ZERO);
        assert!(!out.hit);
        // 43 (L3 path) + 194 (memory) cycles.
        assert_eq!(out.complete_at, Cycle::new(43 + 194));
        assert_eq!(h.memory_accesses(), 1);
    }

    #[test]
    fn second_access_hits_l2_at_11_cycles() {
        let mut h = BaseHierarchy::micro2003();
        h.access(blk(1), AccessKind::Read, Cycle::ZERO);
        let out = h.access(blk(1), AccessKind::Read, Cycle::new(1000));
        assert!(out.hit);
        assert_eq!(out.complete_at, Cycle::new(1011));
        assert_eq!(h.l2_hits(), 1);
    }

    #[test]
    fn l2_victim_hits_in_l3_at_43_cycles() {
        let mut h = BaseHierarchy::micro2003();
        // 1-MB 8-way L2 with 128-B blocks: 1024 sets. Fill 9 conflicting
        // blocks to push the first one out of L2 (it stays in L3).
        let sets = 1024u64;
        for i in 0..9 {
            h.access(blk(1 + i * sets), AccessKind::Read, Cycle::new(i * 10_000));
        }
        let out = h.access(blk(1), AccessKind::Read, Cycle::new(1_000_000));
        assert!(out.hit, "evicted L2 block must still hit in the 8-MB L3");
        assert_eq!(out.complete_at, Cycle::new(1_000_043));
    }

    #[test]
    fn writes_cause_writebacks_on_eviction() {
        let mut h = BaseHierarchy::micro2003();
        let sets = 1024u64;
        h.access(blk(1), AccessKind::Write, Cycle::ZERO);
        for i in 1..9 {
            h.access(blk(1 + i * sets), AccessKind::Read, Cycle::new(i * 10_000));
        }
        assert!(h.writebacks() >= 1, "dirty victim must write back to L3");
    }

    #[test]
    fn counters_are_consistent() {
        let mut h = BaseHierarchy::micro2003();
        for i in 0..100 {
            h.access(blk(i % 10), AccessKind::Read, Cycle::new(i * 500));
        }
        assert_eq!(h.accesses(), 100);
        assert_eq!(h.l2_hits() + h.l3_accesses() - h.writebacks(), 100);
        assert_eq!(h.misses(), 10, "10 distinct blocks, each one cold miss");
        assert!(h.miss_ratio() > 0.0 && h.miss_ratio() < 1.0);
    }

    #[test]
    fn block_bytes_is_128() {
        assert_eq!(BaseHierarchy::micro2003().block_bytes(), 128);
    }

    #[test]
    fn warm_access_matches_timed_architectural_state() {
        let mut timed = BaseHierarchy::micro2003();
        let mut warm = BaseHierarchy::micro2003();
        // A mix of conflict evictions, dirty writebacks, and L3 re-hits.
        let sets = 1024u64;
        let mut addrs = Vec::new();
        for i in 0..12u64 {
            addrs.push((
                1 + i * sets,
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            ));
        }
        addrs.push((1, AccessKind::Read)); // back to the (evicted) first block
        for (i, &(b, k)) in addrs.iter().enumerate() {
            timed.access(blk(b), k, Cycle::new(i as u64 * 7));
            warm.warm_access(blk(b), k);
        }
        // Equal state ⇒ identical hit pattern on a cold replay.
        for &(b, k) in &addrs {
            let t = timed.access(blk(b), k, Cycle::new(100_000));
            let w = warm.access(blk(b), k, Cycle::new(100_000));
            assert_eq!(t.hit, w.hit, "block {b}");
        }
    }

    #[test]
    fn state_roundtrips_through_snapshot() {
        use simbase::snapshot::{Decoder, Encoder};
        let mut h = BaseHierarchy::micro2003();
        let sets = 1024u64;
        for i in 0..10u64 {
            h.access(blk(1 + i * sets), AccessKind::Write, Cycle::new(i * 100));
        }
        let mut e = Encoder::new();
        h.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = BaseHierarchy::micro2003();
        let mut d = Decoder::new(&bytes);
        fresh.load_state(&mut d).unwrap();
        d.finish().unwrap();
        // Every warmed block must now be an on-chip hit in the twin.
        for i in 0..10u64 {
            let out = fresh.access(blk(1 + i * sets), AccessKind::Read, Cycle::new(1_000_000));
            assert!(out.hit, "block {} must hit after restore", 1 + i * sets);
        }
    }
}
