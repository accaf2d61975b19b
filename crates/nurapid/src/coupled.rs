//! The set-associative-placement ablation (paper Figure 4).
//!
//! Section 5.2.1 compares decoupled distance-associative placement against
//! a non-uniform cache whose data placement is *coupled* to tag placement:
//! each way of a set maps to a fixed d-group (an 8-way cache over 4
//! d-groups has exactly 2 ways of every set in each d-group). To isolate
//! the placement effect, this cache uses the same initial-placement
//! (fastest first), demotion, and next-fastest promotion machinery as
//! NuRAPID — but every movement is confined to the blocks of one set, as
//! in D-NUCA's bubble replacement with fastest-first initial placement.

use crate::port::PortSchedule;
use crate::stats::NuRapidStats;
use cachemodel::catalog::{NuRapidGeometry, BLOCK_BYTES};
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::memory::MainMemory;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simtel::TelemetrySink;

#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockAddr,
    dirty: bool,
    valid: bool,
    /// Recency stamp for set-wide LRU data replacement.
    last_use: u64,
}

const EMPTY: Slot = Slot {
    block: BlockAddr::from_index(u64::MAX),
    dirty: false,
    valid: false,
    last_use: 0,
};

/// A non-uniform cache with set-associative (coupled) placement.
///
/// Slot `s` of every set lives in d-group `s / (assoc / n_dgroups)`;
/// moving a block between d-groups means moving it between slots of its
/// own set.
#[derive(Debug)]
pub struct CoupledCache {
    slots: Vec<Slot>, // sets * assoc
    sets: usize,
    assoc: u32,
    ways_per_group: u32,
    geo: NuRapidGeometry,
    memory: MainMemory,
    stats: NuRapidStats,
    port: PortSchedule,
    use_clock: u64,
    sink: TelemetrySink,
}

impl CoupledCache {
    /// Builds the Figure 4 comparison cache: same geometry as the
    /// corresponding NuRAPID (8 MB, 8-way, `n_dgroups` d-groups at the
    /// paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if `n_dgroups` does not divide the associativity.
    pub fn micro2003(n_dgroups: usize) -> Self {
        Self::new(Capacity::from_mib(8), 8, n_dgroups)
    }

    /// Builds a coupled-placement cache with explicit parameters.
    pub fn new(capacity: Capacity, assoc: u32, n_dgroups: usize) -> Self {
        assert!(
            n_dgroups > 0 && (assoc as usize).is_multiple_of(n_dgroups),
            "{n_dgroups} d-groups must divide {assoc} ways"
        );
        let geo =
            NuRapidGeometry::new(cachemodel::Tech::micro2003_70nm(), capacity, assoc, n_dgroups);
        let blocks = capacity.bytes() / BLOCK_BYTES;
        let sets = (blocks / assoc as u64) as usize;
        CoupledCache {
            slots: vec![EMPTY; sets * assoc as usize],
            sets,
            assoc,
            ways_per_group: assoc / n_dgroups as u32,
            geo,
            memory: MainMemory::micro2003(),
            stats: NuRapidStats::new(n_dgroups),
            port: PortSchedule::new(),
            use_clock: 0,
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink, forwarded to the memory channel.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.memory.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// Accumulated statistics (same shape as NuRAPID's for Figure 4).
    pub fn stats(&self) -> &NuRapidStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents are kept); see
    /// [`crate::cache::NuRapidCache::reset_stats`]. The memory model's
    /// counters — including an attached L4's — reset with them.
    pub fn reset_stats(&mut self) {
        let n = self.stats.n_dgroups();
        self.stats = NuRapidStats::new(n);
        self.memory.reset_counters();
    }

    /// The physical geometry.
    pub fn geometry(&self) -> &NuRapidGeometry {
        &self.geo
    }

    /// Fills every slot with placeholder blocks (steady-state occupancy);
    /// see [`crate::cache::NuRapidCache::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty.
    pub fn prefill(&mut self) {
        let sets = self.sets as u64;
        // Reserved region, rounded to a multiple of the set count so each
        // placeholder lands in its intended set.
        let base = (u64::MAX / 256) / sets * sets;
        for set in 0..self.sets {
            for w in 0..self.assoc {
                let block = BlockAddr::from_index(base + set as u64 + w as u64 * sets);
                let slot = self.slot_mut(set, w);
                assert!(!slot.valid, "prefill on a non-empty cache");
                *slot = Slot {
                    block,
                    dirty: false,
                    valid: true,
                    last_use: 0,
                };
            }
        }
    }

    /// d-group of slot index `s` within a set.
    fn group_of_slot(&self, s: u32) -> usize {
        (s / self.ways_per_group) as usize
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets as u64) as usize
    }

    fn slot(&self, set: usize, s: u32) -> &Slot {
        &self.slots[set * self.assoc as usize + s as usize]
    }

    fn slot_mut(&mut self, set: usize, s: u32) -> &mut Slot {
        &mut self.slots[set * self.assoc as usize + s as usize]
    }

    /// LRU-valid slot among the slots of `group` in `set`, if any valid.
    fn group_lru_slot(&self, set: usize, group: usize) -> Option<u32> {
        let lo = group as u32 * self.ways_per_group;
        (lo..lo + self.ways_per_group)
            .filter(|&s| self.slot(set, s).valid)
            .min_by_key(|&s| self.slot(set, s).last_use)
    }

    /// Free slot in `group` of `set`, if any.
    fn group_free_slot(&self, set: usize, group: usize) -> Option<u32> {
        let lo = group as u32 * self.ways_per_group;
        (lo..lo + self.ways_per_group).find(|&s| !self.slot(set, s).valid)
    }

    /// Swap/move accounting between two groups.
    fn count_move(&mut self, from: usize, to: usize) -> u64 {
        self.stats.group_reads.record(from);
        self.stats.group_writes.record(to);
        self.stats.tag_writes.inc();
        2 * self.geo.array_occupancy_cycles()
    }

    /// Places the contents of slot-held block `incoming` into `group`,
    /// demoting group by group within the set until a free slot absorbs
    /// the chain. Returns (slot chosen for incoming, swap cycles).
    fn place_in_group(&mut self, set: usize, group: usize, incoming: Slot) -> u64 {
        let mut carry = incoming;
        let mut g = group;
        let mut cycles = 0;
        loop {
            assert!(g < self.stats.n_dgroups(), "demotion ran off the set");
            if let Some(s) = self.group_free_slot(set, g) {
                *self.slot_mut(set, s) = carry;
                self.stats.group_writes.record(g);
                cycles += self.geo.array_occupancy_cycles();
                return cycles;
            }
            let victim_slot = self.group_lru_slot(set, g).expect("full group has valid slots");
            let victim = *self.slot(set, victim_slot);
            *self.slot_mut(set, victim_slot) = carry;
            cycles += self.count_move(g, g); // read victim + write carry in g
            carry = victim;
            self.stats.demotions.inc();
            g += 1;
        }
    }

    /// Next-fastest promotion, confined to this set: swap the block in
    /// slot `s` (group `g > 0`) with the LRU block of the adjacent faster
    /// group. Returns the swap occupancy in cycles.
    fn promote_within_set(&mut self, set: usize, s: u32, g: usize) -> u64 {
        let here = *self.slot(set, s);
        let target = g - 1;
        let mut swap_cycles = 0;
        if let Some(free) = self.group_free_slot(set, target) {
            *self.slot_mut(set, free) = here;
            *self.slot_mut(set, s) = EMPTY;
            swap_cycles += self.count_move(g, target);
        } else {
            let victim_slot = self.group_lru_slot(set, target).expect("full group");
            let victim = *self.slot(set, victim_slot);
            *self.slot_mut(set, victim_slot) = here;
            *self.slot_mut(set, s) = victim;
            swap_cycles += self.count_move(g, target);
            swap_cycles += self.count_move(target, g);
            self.stats.demotions.inc();
        }
        self.stats.promotions.inc();
        swap_cycles
    }

    /// Evicts the set-wide LRU block when no slot of `set` is free,
    /// returning the victim so the caller can decide about write-back.
    fn evict_set_lru(&mut self, set: usize) -> Option<Slot> {
        let any_free = (0..self.assoc).any(|s| !self.slot(set, s).valid);
        if any_free {
            return None;
        }
        let victim_slot = (0..self.assoc)
            .min_by_key(|&s| self.slot(set, s).last_use)
            .expect("non-empty set");
        let v = *self.slot(set, victim_slot);
        *self.slot_mut(set, victim_slot) = EMPTY;
        Some(v)
    }

    /// Warm-up access: applies every architectural effect of
    /// [`Self::access_block`] (recency, dirtying, promotion swaps,
    /// eviction, placement with demotions) while skipping port
    /// scheduling, memory timing, and latency math.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        self.use_clock += 1;
        let set = self.set_of(block);
        let hit_slot =
            (0..self.assoc).find(|&s| self.slot(set, s).valid && self.slot(set, s).block == block);
        if let Some(s) = hit_slot {
            let clock = self.use_clock;
            {
                let sl = self.slot_mut(set, s);
                sl.last_use = clock;
                if kind.is_write() {
                    sl.dirty = true;
                }
            }
            let g = self.group_of_slot(s);
            if g > 0 {
                let _ = self.promote_within_set(set, s, g);
            }
            return;
        }
        self.memory.warm_fill(block);
        if let Some(v) = self.evict_set_lru(set) {
            if v.dirty {
                self.memory.warm_writeback(v.block);
            }
        }
        let incoming = Slot {
            block,
            dirty: kind.is_write(),
            valid: true,
            last_use: self.use_clock,
        };
        let _ = self.place_in_group(set, 0, incoming);
    }

    /// Clears all timing residue (port schedule, memory channel) without
    /// touching cache contents; the drain barrier at the stats boundary.
    pub fn drain_timing(&mut self) {
        self.port = PortSchedule::new();
        self.memory.drain_timing();
    }

    /// Serialises the architectural state (slots and the recency clock).
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(self.use_clock);
        e.put_len(self.slots.len());
        for s in &self.slots {
            e.put_u64(s.block.index());
            e.put_u8(s.valid as u8 | (s.dirty as u8) << 1);
            e.put_u64(s.last_use);
        }
        self.memory.save_l4_state(e);
    }

    /// Restores state written by [`Self::save_state`] into a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on a geometry mismatch or a
    /// truncated payload.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        self.use_clock = d.u64()?;
        if d.len()? != self.slots.len() {
            return Err(SnapshotError::Malformed("coupled slot count mismatch"));
        }
        for s in self.slots.iter_mut() {
            s.block = BlockAddr::from_index(d.u64()?);
            let packed = d.u8()?;
            s.valid = packed & 1 != 0;
            s.dirty = packed & 2 != 0;
            s.last_use = d.u64()?;
        }
        self.memory.load_l4_state(d)
    }

    /// Demand access; same contract as NuRAPID's.
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        self.stats.tag_probes.inc();
        self.sink.count("coupled.tag_probes", 1);
        let set = self.set_of(block);

        // Probe all ways.
        let hit_slot =
            (0..self.assoc).find(|&s| self.slot(set, s).valid && self.slot(set, s).block == block);

        if let Some(s) = hit_slot {
            let g = self.group_of_slot(s);
            self.stats.group_hits.record(g);
            self.stats.group_reads.record(g);
            let clock = self.use_clock;
            {
                let sl = self.slot_mut(set, s);
                sl.last_use = clock;
                if kind.is_write() {
                    sl.dirty = true;
                }
            }
            let latency = self.geo.dgroup_latency_cycles(g);
            let mut swap_cycles = 0;
            if g > 0 {
                swap_cycles = self.promote_within_set(set, s, g);
            }
            let start = self.port.reserve(now, self.geo.array_occupancy_cycles() + swap_cycles);
            return LowerOutcome {
                complete_at: start + latency,
                hit: true,
            };
        }

        // Miss.
        self.stats.misses.inc();
        self.stats.memory_reads.inc();
        let probe_start = self.port.reserve(now, self.geo.tag_latency_cycles());
        let mem_start = probe_start + self.geo.tag_latency_cycles();
        let mem_done = self.memory.fill_block(block, BLOCK_BYTES, mem_start);

        // Data replacement: evict the set-wide LRU block (conventional),
        // freeing its slot.
        if let Some(v) = self.evict_set_lru(set) {
            if v.dirty {
                self.stats.writebacks.inc();
                let _ = self.memory.writeback_block(v.block, BLOCK_BYTES, mem_done);
            }
        }
        // Initial placement in the fastest group, demoting within the set.
        let incoming = Slot {
            block,
            dirty: kind.is_write(),
            valid: true,
            last_use: self.use_clock,
        };
        let fill_cycles = self.place_in_group(set, 0, incoming);
        if fill_cycles > 0 {
            let _ = self.port.reserve(mem_done, fill_cycles);
        }
        LowerOutcome {
            complete_at: mem_done,
            hit: false,
        }
    }
}

impl LowerCache for CoupledCache {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.access_block(block, kind, now)
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        self.warm_access_block(block, kind);
    }

    fn accesses(&self) -> u64 {
        self.stats.accesses.get()
    }

    fn misses(&self) -> u64 {
        self.stats.misses.get()
    }

    fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }
}

impl memsys::org::Organization for CoupledCache {
    fn prefill(&mut self) {
        CoupledCache::prefill(self);
    }

    fn reset_stats(&mut self) {
        CoupledCache::reset_stats(self);
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, _snap_every: u64) {
        CoupledCache::set_telemetry(self, sink.clone());
    }

    fn drain_timing(&mut self) {
        CoupledCache::drain_timing(self);
    }

    fn save_state(&self, e: &mut Encoder) {
        CoupledCache::save_state(self, e);
    }

    fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        CoupledCache::load_state(self, d)
    }

    fn main_memory(&self) -> Option<&memsys::memory::MainMemory> {
        Some(&self.memory)
    }

    fn main_memory_mut(&mut self) -> Option<&mut memsys::memory::MainMemory> {
        Some(&mut self.memory)
    }

    fn report(&self) -> memsys::org::OrgReport {
        let s = self.stats();
        memsys::org::OrgReport {
            l2_accesses: s.accesses.get(),
            l2_misses: s.misses.get(),
            group_hits: (0..s.n_dgroups()).map(|g| s.group_hits.count(g)).collect(),
            dgroup_accesses: s.total_dgroup_accesses(),
            swaps: s.total_moves(),
            memory_accesses: s.memory_reads.get() + s.writebacks.get(),
            l2_energy: crate::energy::dynamic_energy(s, self.geometry()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{NuRapidCache, NuRapidConfig};

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn small() -> CoupledCache {
        CoupledCache::new(Capacity::from_mib(1), 8, 4)
    }

    #[test]
    fn hot_set_cannot_fit_all_ways_in_fastest_group() {
        // The core limitation the paper identifies: with 8 ways over 4
        // d-groups, only 2 ways of a set can be fast. Touch 8 blocks of
        // one set, then re-touch: at most 2 hit in d-group 0.
        let mut c = small();
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        for w in 0..8u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 100;
        }
        for w in 0..8u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            assert!(out.hit);
            t = out.complete_at + 100;
        }
        let g0 = c.stats().group_hits.count(0);
        assert!(g0 <= 2, "coupled placement allowed {g0} fast hits");
        assert_eq!(c.stats().group_hits.total(), 8);
    }

    #[test]
    fn decoupled_placement_beats_coupled_on_hot_sets() {
        // Figure 4's claim, in miniature.
        let mut coupled = small();
        let mut cfg = NuRapidConfig::micro2003(4);
        cfg.capacity = Capacity::from_mib(1);
        let mut decoupled = NuRapidCache::new(cfg);

        let sets = coupled.sets as u64;
        let mut t = Cycle::ZERO;
        for rep in 0..4u64 {
            for w in 0..8u64 {
                let b = blk(1 + w * sets);
                let o1 = coupled.access_block(b, AccessKind::Read, t);
                let o2 = decoupled.access_block(b, AccessKind::Read, t);
                t = o1.complete_at.max(o2.complete_at) + 100;
                let _ = rep;
            }
        }
        let frac_coupled = coupled.stats().group_access_frac(0);
        let frac_decoupled = decoupled.stats().group_access_frac(0);
        assert!(
            frac_decoupled > frac_coupled,
            "decoupled {frac_decoupled} must beat coupled {frac_coupled}"
        );
    }

    #[test]
    fn miss_rates_match_nurapid() {
        // Both caches use 8-way tags with LRU data replacement, so their
        // miss streams must be identical.
        let mut coupled = small();
        let mut cfg = NuRapidConfig::micro2003(4);
        cfg.capacity = Capacity::from_mib(1);
        let mut decoupled = NuRapidCache::new(cfg);
        let mut t = Cycle::ZERO;
        for i in 0..30_000u64 {
            let b = blk((i * 37) % 16_384);
            let o1 = coupled.access_block(b, AccessKind::Read, t);
            let o2 = decoupled.access_block(b, AccessKind::Read, t);
            assert_eq!(o1.hit, o2.hit, "access {i} diverged");
            t = o1.complete_at.max(o2.complete_at) + 10;
        }
        assert_eq!(coupled.stats().misses.get(), decoupled.stats().misses.get());
    }

    #[test]
    fn cold_miss_then_fast_hit() {
        let mut c = small();
        let out = c.access_block(blk(5), AccessKind::Read, Cycle::ZERO);
        assert!(!out.hit);
        let hit = c.access_block(blk(5), AccessKind::Read, Cycle::new(2_000));
        assert!(hit.hit);
        assert_eq!(hit.complete_at - Cycle::new(2_000), c.geometry().dgroup_latency_cycles(0));
    }

    #[test]
    fn promotion_happens_within_the_set() {
        let mut c = small();
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        // Fill group 0 of set 1 (2 ways), then one more: a block demotes
        // to group 1.
        for w in 0..3u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 100;
        }
        assert!(c.stats().demotions.get() >= 1);
        // A hit on the demoted block promotes it back.
        let demoted = blk(1); // first block placed, demoted by the chain
        let before = c.stats().promotions.get();
        let out = c.access_block(demoted, AccessKind::Read, t);
        assert!(out.hit);
        assert!(c.stats().promotions.get() > before);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut c = small();
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        c.access_block(blk(1), AccessKind::Write, t);
        t = Cycle::new(50_000);
        for w in 1..9u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 100;
        }
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn groups_must_divide_ways() {
        let _ = CoupledCache::new(Capacity::from_mib(1), 8, 3);
    }

    fn slots_of(c: &CoupledCache) -> Vec<(u64, bool, bool, u64)> {
        c.slots
            .iter()
            .map(|s| (s.block.index(), s.valid, s.dirty, s.last_use))
            .collect()
    }

    #[test]
    fn warm_access_matches_timed_architectural_state() {
        let mut timed = small();
        let mut warm = small();
        let sets = timed.sets as u64;
        let mut t = Cycle::ZERO;
        for i in 0..30_000u64 {
            // Mix of strided misses, hot-set reuse, and writes.
            let b = match i % 5 {
                0 => blk((i * 37) % 16_384),
                1 => blk(1 + (i % 8) * sets),
                _ => blk((i * 13) % 4_096),
            };
            let kind = if i % 7 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = timed.access_block(b, kind, t);
            warm.warm_access_block(b, kind);
            t = out.complete_at + (i % 50);
        }
        assert_eq!(slots_of(&timed), slots_of(&warm));
        // Replay: both must serve the same hit stream from here.
        warm.drain_timing();
        let mut t = Cycle::ZERO;
        for i in 0..5_000u64 {
            let b = blk((i * 29) % 8_192);
            let o1 = timed.access_block(b, AccessKind::Read, t);
            let o2 = warm.access_block(b, AccessKind::Read, t);
            assert_eq!(o1.hit, o2.hit, "replay access {i} diverged");
            t = o1.complete_at + 10;
        }
    }

    #[test]
    fn state_roundtrips_through_snapshot() {
        let mut c = small();
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        for i in 0..20_000u64 {
            let b = blk((i * 37 + i % 3) % 12_288);
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = c.access_block(b, kind, t);
            t = out.complete_at + 5;
        }
        let mut e = simbase::snapshot::Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut restored = small();
        let mut d = simbase::snapshot::Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        d.finish().expect("no trailing bytes");
        assert_eq!(slots_of(&c), slots_of(&restored));
        assert_eq!(c.use_clock, restored.use_clock);

        // Twin replay from the restored state.
        c.drain_timing();
        let mut t = Cycle::ZERO;
        for i in 0..10_000u64 {
            let b = blk(1 + (i * 53) % 9_000 + (i % 4) * sets);
            let o1 = c.access_block(b, AccessKind::Read, t);
            let o2 = restored.access_block(b, AccessKind::Read, t);
            assert_eq!(o1.hit, o2.hit, "replay access {i} diverged");
            t = o1.complete_at + 10;
        }
    }

    #[test]
    fn load_rejects_wrong_geometry() {
        let c = small();
        let mut e = simbase::snapshot::Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut smaller = CoupledCache::new(Capacity::from_mib(2), 8, 4);
        let mut d = simbase::snapshot::Decoder::new(&bytes);
        assert!(smaller.load_state(&mut d).is_err());
        // Same slot layout restores cleanly even across d-group splits.
        let mut other = CoupledCache::new(Capacity::from_mib(1), 8, 2);
        let mut d = simbase::snapshot::Decoder::new(&bytes);
        other.load_state(&mut d).expect("same slot layout");
    }
}
