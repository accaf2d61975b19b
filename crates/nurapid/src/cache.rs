//! The assembled NuRAPID cache: tag array + d-groups + policies + the
//! one-ported, non-banked timing model.

use crate::dgroup::{DGroupArray, MAX_SETS};
use crate::policy::{DistanceVictimPolicy, PromotionPolicy};
use crate::port::PortSchedule;
use crate::stats::NuRapidStats;
use crate::tag::{FramePtr, TagArray, TagLookup, TagRef, MAX_FRAMES, MAX_GROUPS};
use cachemodel::catalog::{NuRapidGeometry, BLOCK_BYTES};
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::memory::MainMemory;
use simbase::digest::Tag;
use simbase::rng::SimRng;
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simtel::TelemetrySink;

/// Static d-group labels so telemetry spans can carry a `&'static str`
/// name without per-event allocation (the paper evaluates up to 8).
const DGROUP_SPAN: [&str; 8] = [
    "dgroup0", "dgroup1", "dgroup2", "dgroup3", "dgroup4", "dgroup5", "dgroup6", "dgroup7",
];
/// Counter-track labels for the periodic per-d-group hit-fraction snapshot.
const DGROUP_SNAP: [&str; 8] = [
    "dgroup0_hit_milli",
    "dgroup1_hit_milli",
    "dgroup2_hit_milli",
    "dgroup3_hit_milli",
    "dgroup4_hit_milli",
    "dgroup5_hit_milli",
    "dgroup6_hit_milli",
    "dgroup7_hit_milli",
];

/// Configuration of a NuRAPID cache.
#[derive(Debug, Clone)]
pub struct NuRapidConfig {
    /// Total capacity (8 MB in the evaluation).
    pub capacity: Capacity,
    /// Tag-array associativity (8 in the evaluation).
    pub assoc: u32,
    /// Number of d-groups (2, 4, or 8 in the evaluation).
    pub n_dgroups: usize,
    /// Promotion policy (Section 2.4.1).
    pub promotion: PromotionPolicy,
    /// Distance-replacement victim policy (Section 2.4.2).
    pub distance_victim: DistanceVictimPolicy,
    /// RNG seed for random distance replacement.
    pub seed: u64,
    /// Figure 6's "ideal" configuration: every hit costs the fastest
    /// d-group's latency and swaps are free. Placement still operates so
    /// miss behavior is unchanged.
    pub ideal: bool,
    /// Section 2.4.3 pointer restriction: limit each block to this many
    /// candidate frames per d-group (`None` = fully flexible). Shrinks the
    /// forward/reverse pointers (see [`crate::pointers`]) at some cost in
    /// placement freedom.
    pub frames_per_region: Option<u32>,
}

impl NuRapidConfig {
    /// The paper's evaluated configuration: 8 MB, 8-way, with `n_dgroups`
    /// d-groups, next-fastest promotion and random distance replacement.
    pub fn micro2003(n_dgroups: usize) -> Self {
        NuRapidConfig {
            capacity: Capacity::from_mib(8),
            assoc: 8,
            n_dgroups,
            promotion: PromotionPolicy::NextFastest,
            distance_victim: DistanceVictimPolicy::Random,
            seed: 0x6e75_7261,
            ideal: false,
            frames_per_region: None,
        }
    }

    /// Same configuration with a different promotion policy.
    #[must_use]
    pub fn with_promotion(mut self, p: PromotionPolicy) -> Self {
        self.promotion = p;
        self
    }

    /// Same configuration with a different distance-victim policy.
    #[must_use]
    pub fn with_distance_victim(mut self, p: DistanceVictimPolicy) -> Self {
        self.distance_victim = p;
        self
    }

    /// Same configuration in Figure 6's ideal mode.
    #[must_use]
    pub fn with_ideal(mut self) -> Self {
        self.ideal = true;
        self
    }

    /// Same configuration with the Section 2.4.3 pointer restriction:
    /// each block may occupy only `frames` candidate frames per d-group.
    #[must_use]
    pub fn with_frames_per_region(mut self, frames: u32) -> Self {
        self.frames_per_region = Some(frames);
        self
    }
}

simbase::knobs!(NuRapidConfig {
    capacity: Tag::Arch,
    assoc: Tag::Arch,
    n_dgroups: Tag::Arch,
    promotion: Tag::Arch,
    distance_victim: Tag::Arch,
    seed: Tag::Arch,
    ideal: Tag::Timing("it changes only hit latency and swap cost, never placement"),
    frames_per_region: Tag::Arch,
});

/// The NuRAPID cache (one-ported, non-banked).
#[derive(Debug)]
pub struct NuRapidCache {
    config: NuRapidConfig,
    geo: NuRapidGeometry,
    tags: TagArray,
    dgroups: Vec<DGroupArray>,
    memory: MainMemory,
    stats: NuRapidStats,
    /// The single port: one array operation at a time; outstanding swaps
    /// must complete before a new access is initiated (Section 2.3).
    port: PortSchedule,
    /// Placement regions per d-group (1 = fully flexible).
    n_regions: usize,
    /// `n_regions - 1` when the region count is a power of two (it is in
    /// every paper configuration), so [`Self::region_of`] is a mask.
    region_mask: Option<u64>,
    sink: TelemetrySink,
    snap_every: u64,
    next_snap: u64,
}

impl NuRapidCache {
    /// Builds a NuRAPID cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// d-groups/associativity/block size), or if a pointer could not name
    /// it: more than 64 d-groups, more than 2^24 frames per d-group, or
    /// 2^24 or more sets.
    pub fn new(config: NuRapidConfig) -> Self {
        let geo = NuRapidGeometry::micro2003(config.capacity, config.n_dgroups);
        let blocks = config.capacity.bytes() / BLOCK_BYTES;
        let sets = (blocks / config.assoc as u64) as usize;
        let frames = geo.frames_per_dgroup();
        assert!(config.n_dgroups <= MAX_GROUPS, "at most {MAX_GROUPS} d-groups");
        assert!(frames <= MAX_FRAMES, "at most {MAX_FRAMES} frames per d-group");
        assert!(sets < MAX_SETS, "fewer than {MAX_SETS} sets");
        let n_regions = match config.frames_per_region {
            None => 1,
            Some(fpr) => {
                assert!(
                    fpr > 0 && frames.is_multiple_of(fpr as usize),
                    "{fpr} frames per region must evenly divide {frames} frames"
                );
                frames / fpr as usize
            }
        };
        let mut rng = SimRng::seeded(config.seed);
        let dgroups = (0..config.n_dgroups)
            .map(|g| {
                DGroupArray::with_regions(
                    frames,
                    n_regions,
                    config.distance_victim,
                    rng.fork(g as u64),
                )
            })
            .collect();
        NuRapidCache {
            tags: TagArray::new(sets, config.assoc),
            dgroups,
            memory: MainMemory::micro2003(),
            stats: NuRapidStats::new(config.n_dgroups),
            geo,
            config,
            port: PortSchedule::new(),
            n_regions,
            region_mask: n_regions.is_power_of_two().then(|| n_regions as u64 - 1),
            sink: TelemetrySink::disabled(),
            snap_every: 0,
            next_snap: u64::MAX,
        }
    }

    /// Attaches a telemetry sink, forwarded to the memory channel. When
    /// `snap_every` is non-zero, periodic per-d-group hit-fraction
    /// snapshots are emitted every `snap_every` cycles as counter tracks.
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

    /// Emits the periodic per-d-group hit-fraction snapshot once `now`
    /// passes the next snapshot boundary.
    fn maybe_snapshot(&mut self, now: Cycle) {
        if now.raw() < self.next_snap {
            return;
        }
        let total = self.stats.accesses.get().max(1);
        for g in 0..self.config.n_dgroups.min(DGROUP_SNAP.len()) {
            let milli = 1000 * self.stats.group_hits.count(g) / total;
            self.sink.counter_track("snap", DGROUP_SNAP[g], now.raw(), milli);
            self.sink.gauge(DGROUP_SNAP[g], now.raw(), self.stats.group_access_frac(g));
        }
        while self.next_snap <= now.raw() {
            self.next_snap += self.snap_every;
        }
    }

    /// The placement region of `block` (0 when unrestricted).
    #[inline]
    fn region_of(&self, block: BlockAddr) -> usize {
        match self.region_mask {
            Some(m) => (block.index() & m) as usize,
            None => (block.index() % self.n_regions as u64) as usize,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &NuRapidConfig {
        &self.config
    }

    /// The physical geometry (latencies and energies per d-group).
    pub fn geometry(&self) -> &NuRapidGeometry {
        &self.geo
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NuRapidStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents and timing state are kept).
    /// Used after warm-up so measurements reflect steady state, matching
    /// the paper's fast-forward-then-measure methodology. The memory
    /// model's counters — including an attached L4's — reset with them,
    /// so a timed warm-up leaves nothing behind the barrier.
    pub fn reset_stats(&mut self) {
        self.stats = NuRapidStats::new(self.config.n_dgroups);
        self.memory.reset_counters();
    }

    /// Off-chip accesses (misses + writebacks) for energy accounting.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    /// Fills every frame and tag entry with placeholder blocks, emulating
    /// the steady-state occupancy the paper reaches by fast-forwarding 5
    /// billion instructions: from the first real access on, placement must
    /// displace something. Placeholder blocks use a reserved address range
    /// and are natural LRU victims. No statistics or timing are charged.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty.
    pub fn prefill(&mut self) {
        assert_eq!(self.tags.occupancy(), 0, "prefill on a non-empty cache");
        let sets = self.tags.sets() as u64;
        let blocks = sets * self.config.assoc as u64;
        // Reserved placeholder region far above any workload address.
        let base = u64::MAX / 256;
        for i in 0..blocks {
            let block = BlockAddr::from_index(base + i);
            // Stride the d-group choice by the region count so every
            // (d-group, region) pair receives exactly its share of
            // placeholders.
            let g = ((i / self.n_regions as u64) % self.config.n_dgroups as u64) as usize;
            let region = self.region_of(block);
            let frame = self.dgroups[g]
                .take_free(region)
                .expect("empty cache has frames in every region");
            let (at, ev) = self.tags.allocate(
                block,
                FramePtr {
                    group: g as u8,
                    frame,
                },
                false,
            );
            assert!(ev.is_none(), "prefill must not evict");
            self.dgroups[g].install(frame, at);
        }
    }

    /// Places the block owned by `owner` into d-group `target`, demoting
    /// existing blocks d-group by d-group until a free frame absorbs the
    /// chain (paper Section 2.2). Returns the swap cycles spent on the
    /// port.
    ///
    /// The caller must have already detached `owner`'s data from any frame
    /// (its read, if one was physically needed, is the caller's to count).
    fn place_with_demotions(&mut self, owner: TagRef, target: usize, region: usize) -> u64 {
        let mut carry = owner;
        let mut g = target;
        let mut cycles = 0;
        let mut chain_len = 0u64;
        loop {
            assert!(g < self.dgroups.len(), "demotion chain ran off the end");
            // Either a free frame absorbs the carried block, or this
            // group's victim is displaced one group down. Under the
            // pointer restriction everything stays within the block's
            // region: victims in region-r frames are themselves region-r
            // blocks, so the chain is closed.
            let (frame, displaced) = match self.dgroups[g].take_free(region) {
                Some(f) => (f, None),
                None => {
                    let v = self.dgroups[g].choose_victim(region);
                    let victim_owner = self.dgroups[g].remove(v);
                    // Reading the victim out of this group.
                    self.stats.group_reads.record(g);
                    cycles += self.geo.array_occupancy_cycles();
                    (v, Some(victim_owner))
                }
            };
            self.dgroups[g].install(frame, carry);
            self.tags.set_ptr(
                carry,
                FramePtr {
                    group: g as u8,
                    frame,
                },
            );
            // Writing the carried block into this group (plus the
            // forward-pointer rewrite).
            self.stats.group_writes.record(g);
            self.stats.tag_writes.inc();
            cycles += self.geo.array_occupancy_cycles();
            match displaced {
                None => {
                    if self.sink.enabled() {
                        self.sink.observe("nurapid.demotion_chain_len", chain_len);
                    }
                    return cycles;
                }
                Some(victim_owner) => {
                    carry = victim_owner;
                    self.stats.demotions.inc();
                    chain_len += 1;
                    g += 1;
                }
            }
        }
    }

    /// Handles promotion after a hit in d-group `g` at frame `frame`.
    /// Returns the swap cycles spent on the port.
    fn promote(&mut self, at: TagRef, g: usize, frame: u32, region: usize) -> u64 {
        let target = match (self.config.promotion, g) {
            (PromotionPolicy::DemotionOnly, _) | (_, 0) => return 0,
            (PromotionPolicy::NextFastest, _) => g - 1,
            (PromotionPolicy::Fastest, _) => 0,
        };
        // Detach the hit block; its frame becomes the hole the demotion
        // chain can terminate in.
        let owner = self.dgroups[g].release(frame);
        debug_assert_eq!(owner, at, "reverse pointer must match the tag hit");
        self.stats.promotions.inc();
        self.sink.count("nurapid.promotions", 1);
        self.place_with_demotions(owner, target, region)
    }

    /// Demand access used by tests and the experiment harness; identical
    /// to the [`LowerCache`] implementation.
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.stats.accesses.inc();
        self.stats.tag_probes.inc();
        self.sink.count("nurapid.tag_probes", 1);
        self.maybe_snapshot(now);

        match self.tags.access(block, kind) {
            TagLookup::Hit { at, ptr } => {
                let g = ptr.group as usize;
                self.stats.group_hits.record(g);
                self.stats.group_reads.record(g);
                self.dgroups[g].touch(ptr.frame);
                let latency = if self.config.ideal {
                    self.geo.dgroup_latency_cycles(0)
                } else {
                    self.geo.dgroup_latency_cycles(g)
                };
                let swap_cycles = self.promote(at, g, ptr.frame, self.region_of(block));
                // One port: the hit occupies the arrays for the array-busy
                // portion of its latency (the tag array and wires are
                // pipelined) plus any promotion swap it triggered.
                let occupancy = if self.config.ideal {
                    self.geo.array_occupancy_cycles()
                } else {
                    self.geo.array_occupancy_cycles() + swap_cycles
                };
                let start = self.port.reserve(now, occupancy);
                if self.sink.enabled() {
                    self.sink.span(
                        "nurapid",
                        DGROUP_SPAN[g.min(DGROUP_SPAN.len() - 1)],
                        start.raw(),
                        latency,
                    );
                    if swap_cycles > 0 {
                        self.sink.span("nurapid", "promotion_swap", start.raw(), swap_cycles);
                    }
                }
                LowerOutcome {
                    complete_at: start + latency,
                    hit: true,
                }
            }
            TagLookup::Miss => {
                self.stats.misses.inc();
                self.stats.memory_reads.inc();
                // The miss holds the port for the tag probe, releases it
                // while memory works, then holds it again for the fill
                // and its demotion chain.
                let probe_start = self.port.reserve(now, self.geo.tag_latency_cycles());
                let mem_start = probe_start + self.geo.tag_latency_cycles();
                let mem_done = self.memory.fill_block(block, BLOCK_BYTES, mem_start);

                // Data replacement: allocate the tag entry, evicting the
                // set's LRU block if needed (Figure 2, steps 1-2).
                let (at, evicted) = self.tags.allocate(
                    block,
                    FramePtr { group: 0, frame: 0 }, // provisional
                    kind.is_write(),
                );
                if let Some(ev) = evicted {
                    self.dgroups[ev.freed.group as usize].release(ev.freed.frame);
                    if ev.dirty {
                        self.stats.writebacks.inc();
                        let _ = self.memory.writeback_block(ev.block, BLOCK_BYTES, mem_done);
                    }
                }
                // Distance placement: the new block goes to the fastest
                // d-group, demoting as necessary (Figure 2, steps 3-4).
                let fill_cycles = self.place_with_demotions(at, 0, self.region_of(block));
                if fill_cycles > 0 {
                    self.sink.span("nurapid", "demotion_chain", mem_done.raw(), fill_cycles);
                    if !self.config.ideal {
                        let _ = self.port.reserve(mem_done, fill_cycles);
                    }
                }
                LowerOutcome {
                    complete_at: mem_done,
                    hit: false,
                }
            }
        }
    }

    /// Warm-up access: the architectural transitions of
    /// [`NuRapidCache::access_block`] — tag recency and dirty bits, data
    /// and distance replacement, demotion chains, promotions — with the
    /// port, memory channel, latency math, and telemetry elided. It
    /// reuses the same promotion/placement routines as the timed path, so
    /// victim selection draws the RNG stream identically.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        match self.tags.access(block, kind) {
            TagLookup::Hit { at, ptr } => {
                let g = ptr.group as usize;
                self.dgroups[g].touch(ptr.frame);
                let _ = self.promote(at, g, ptr.frame, self.region_of(block));
            }
            TagLookup::Miss => {
                self.memory.warm_fill(block);
                let (at, evicted) = self.tags.allocate(
                    block,
                    FramePtr { group: 0, frame: 0 }, // provisional
                    kind.is_write(),
                );
                if let Some(ev) = evicted {
                    self.dgroups[ev.freed.group as usize].release(ev.freed.frame);
                    if ev.dirty {
                        self.memory.warm_writeback(ev.block);
                    }
                }
                let _ = self.place_with_demotions(at, 0, self.region_of(block));
            }
        }
    }

    /// Warm-up drain barrier: forgets port reservations and memory-channel
    /// occupancy. Neither holds architectural state.
    pub fn drain_timing(&mut self) {
        self.port = PortSchedule::new();
        self.memory.drain_timing();
    }

    /// Serializes the architectural state: the tag array and every
    /// d-group (contents, free lists, recency, RNG streams).
    pub fn save_state(&self, e: &mut simbase::snapshot::Encoder) {
        self.tags.save_state(e);
        e.put_len(self.dgroups.len());
        for g in &self.dgroups {
            g.save_state(e);
        }
        self.memory.save_l4_state(e);
    }

    /// Restores state written by [`NuRapidCache::save_state`] into a cache
    /// of identical configuration.
    pub fn load_state(
        &mut self,
        d: &mut simbase::snapshot::Decoder<'_>,
    ) -> Result<(), simbase::snapshot::SnapshotError> {
        self.tags.load_state(d)?;
        if d.len()? != self.dgroups.len() {
            return Err(simbase::snapshot::SnapshotError::Malformed("d-group count mismatch"));
        }
        for g in self.dgroups.iter_mut() {
            g.load_state(d)?;
        }
        self.memory.load_l4_state(d)
    }

    /// Verifies the tag/data bijection: every valid tag entry's forward
    /// pointer names an occupied frame whose reverse pointer names that
    /// entry, and occupied frame count equals valid tag count. Used by the
    /// test suite; O(capacity).
    pub fn check_invariants(&self) {
        let mut occupied = 0usize;
        for (gi, g) in self.dgroups.iter().enumerate() {
            for f in 0..g.n_frames() as u32 {
                if let Some(owner) = g.owner(f) {
                    occupied += 1;
                    let ptr = self.tags.ptr_of(owner);
                    assert_eq!(
                        (ptr.group as usize, ptr.frame),
                        (gi, f),
                        "frame ({gi},{f}) reverse pointer disagrees with forward pointer"
                    );
                    if self.n_regions > 1 {
                        let block = self.tags.block_at(owner).expect("valid entry");
                        assert_eq!(
                            self.region_of(block),
                            g.region_of_frame(f),
                            "restricted block {block} placed outside its region"
                        );
                    }
                }
            }
        }
        assert_eq!(occupied, self.tags.occupancy(), "occupied frames must equal valid tag entries");
    }
}

impl LowerCache for NuRapidCache {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.access_block(block, kind, now)
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

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        self.warm_access_block(block, kind);
    }
}

impl memsys::org::Organization for NuRapidCache {
    fn prefill(&mut self) {
        NuRapidCache::prefill(self);
    }

    fn reset_stats(&mut self) {
        NuRapidCache::reset_stats(self);
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, snap_every: u64) {
        NuRapidCache::set_telemetry(self, sink.clone(), snap_every);
    }

    fn drain_timing(&mut self) {
        NuRapidCache::drain_timing(self);
    }

    fn save_state(&self, e: &mut simbase::snapshot::Encoder) {
        NuRapidCache::save_state(self, e);
    }

    fn load_state(
        &mut self,
        d: &mut simbase::snapshot::Decoder<'_>,
    ) -> Result<(), simbase::snapshot::SnapshotError> {
        NuRapidCache::load_state(self, d)
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

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn small_cache(n_dgroups: usize) -> NuRapidCache {
        // 1-MB, 4-way NuRAPID for fast tests: 2048 sets, 8192 frames.
        let mut c = NuRapidConfig::micro2003(n_dgroups);
        c.capacity = Capacity::from_mib(1); // floorplan minimum granularity
        c.assoc = 4;
        NuRapidCache::new(c)
    }

    #[test]
    fn cold_miss_fills_fastest_dgroup() {
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        let out = c.access_block(blk(1), AccessKind::Read, Cycle::ZERO);
        assert!(!out.hit);
        // Access well after the fill's port work has drained.
        let hit = c.access_block(blk(1), AccessKind::Read, Cycle::new(1_000));
        assert!(hit.hit);
        // Table 4: fastest d-group of the 4-d-group NuRAPID is 14 cycles.
        assert_eq!(hit.complete_at, Cycle::new(1_014));
        assert_eq!(c.stats().group_hits.count(0), 1);
        c.check_invariants();
    }

    #[test]
    fn miss_latency_includes_tag_probe_and_memory() {
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        let out = c.access_block(blk(1), AccessKind::Read, Cycle::ZERO);
        // 8-cycle tag + 194-cycle memory block fill.
        assert_eq!(out.complete_at, Cycle::new(8 + 194));
    }

    #[test]
    fn all_ways_of_a_hot_set_fit_in_the_fastest_dgroup() {
        // The paper's key flexibility claim (Section 2.1): unlike D-NUCA,
        // every way of a hot set can live in d-group 0.
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        let sets = c.tags.sets() as u64;
        let mut t = Cycle::ZERO;
        for w in 0..8u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 1000;
        }
        // Re-access all 8: every one hits in d-group 0.
        for w in 0..8u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            assert!(out.hit);
            t = out.complete_at + 1000;
        }
        assert_eq!(c.stats().group_hits.count(0), 8);
        assert_eq!(c.stats().group_hits.total(), 8);
        c.check_invariants();
    }

    #[test]
    fn distance_replacement_never_evicts() {
        // Fill d-group 0 beyond capacity: blocks demote but stay cached.
        let mut c = small_cache(4);
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        // Touch more distinct blocks than d-group 0 holds (but fewer than
        // the whole cache); each set has 4 ways and 2048 sets so no data
        // replacement occurs.
        let n = frames + frames / 2;
        for i in 0..n {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            assert!(!out.hit, "first touch of {i} must miss");
            t = out.complete_at + 10;
        }
        assert_eq!(c.stats().misses.get(), n);
        // Every block is still resident: second pass has zero misses.
        for i in 0..n {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            assert!(out.hit, "block {i} must still be cached");
            t = out.complete_at + 10;
        }
        assert_eq!(c.stats().misses.get(), n);
        assert!(c.stats().demotions.get() > 0, "demotions must have occurred");
        c.check_invariants();
    }

    #[test]
    fn miss_rate_is_policy_independent() {
        // Section 5.2.2: "miss rates for NuRAPID remain the same for the
        // three policies because distance replacement does not cause
        // evictions."
        let mut misses = Vec::new();
        for promo in [
            PromotionPolicy::DemotionOnly,
            PromotionPolicy::NextFastest,
            PromotionPolicy::Fastest,
        ] {
            let mut c = small_cache(4);
            c.config.promotion = promo;
            let mut t = Cycle::ZERO;
            // A reuse pattern with conflict and capacity pressure: 16 K
            // distinct blocks in an 8 K-block cache.
            for i in 0..32_768u64 {
                let b = (i * 37) % 16_384;
                let out = c.access_block(blk(b), AccessKind::Read, t);
                t = out.complete_at + 5;
            }
            misses.push(c.stats().misses.get());
            c.check_invariants();
        }
        assert_eq!(misses[0], misses[1]);
        assert_eq!(misses[1], misses[2]);
    }

    #[test]
    fn next_fastest_promotes_one_group_per_hit() {
        let mut c = small_cache(2);
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        // Fill group 0 completely, then one more: block 0 demotes to
        // group 1 (random victim could be any block; so instead check via
        // stats).
        for i in 0..=frames {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        assert_eq!(c.stats().demotions.get(), 1);
        // Find the demoted block by scanning for a group-1 hit.
        let mut promoted = None;
        for i in 0..=frames {
            let before = c.stats().group_hits.count(1);
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
            assert!(out.hit);
            if c.stats().group_hits.count(1) > before {
                promoted = Some(i);
                break;
            }
        }
        let promoted = promoted.expect("one block must be in group 1");
        assert_eq!(c.stats().promotions.get(), 1, "hit in group 1 promotes");
        // The promoted block now hits in group 0.
        let before0 = c.stats().group_hits.count(0);
        let out = c.access_block(blk(promoted), AccessKind::Read, t);
        assert!(out.hit);
        assert_eq!(c.stats().group_hits.count(0), before0 + 1);
        c.check_invariants();
    }

    #[test]
    fn demotion_only_blocks_stay_stuck() {
        let mut c = small_cache(2);
        c.config.promotion = PromotionPolicy::DemotionOnly;
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        for i in 0..=frames {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        // Re-access everything twice: the demoted block keeps hitting in
        // group 1 and never comes back.
        for _ in 0..2 {
            for i in 0..=frames {
                let out = c.access_block(blk(i), AccessKind::Read, t);
                assert!(out.hit);
                t = out.complete_at + 10;
            }
        }
        assert_eq!(c.stats().promotions.get(), 0);
        assert_eq!(c.stats().group_hits.count(1), 2);
        c.check_invariants();
    }

    #[test]
    fn fastest_policy_promotes_straight_to_group_zero() {
        let mut c = small_cache(4);
        c.config.promotion = PromotionPolicy::Fastest;
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        // Push blocks into groups 0..2.
        for i in 0..(2 * frames + 1) {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        c.check_invariants();
        // Find a block hitting in group 2 and verify it next hits group 0.
        for i in 0..(2 * frames + 1) {
            let before = c.stats().group_hits.count(2);
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
            assert!(out.hit);
            if c.stats().group_hits.count(2) > before {
                let b0 = c.stats().group_hits.count(0);
                let out = c.access_block(blk(i), AccessKind::Read, t);
                assert!(out.hit);
                assert_eq!(c.stats().group_hits.count(0), b0 + 1);
                c.check_invariants();
                return;
            }
        }
        panic!("no block found in group 2");
    }

    #[test]
    fn data_replacement_evicts_and_frees_frame() {
        let mut c = small_cache(4);
        let sets = c.tags.sets() as u64;
        let mut t = Cycle::ZERO;
        // Over-fill one set (4-way): the 5th block evicts the LRU.
        for w in 0..5u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        assert_eq!(c.tags.occupancy(), 4);
        // The first block is gone.
        let out = c.access_block(blk(1), AccessKind::Read, t);
        assert!(!out.hit);
        c.check_invariants();
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small_cache(4);
        let sets = c.tags.sets() as u64;
        let mut t = Cycle::ZERO;
        c.access_block(blk(1), AccessKind::Write, t);
        t = Cycle::new(10_000);
        for w in 1..5u64 {
            let out = c.access_block(blk(1 + w * sets), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn port_serializes_swaps_before_next_access() {
        let mut c = small_cache(2);
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        for i in 0..frames {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 1;
        }
        // This miss triggers a demotion; the next access (back-to-back)
        // must start after the swap completes.
        let miss = c.access_block(blk(frames), AccessKind::Read, t);
        let hit = c.access_block(blk(frames), AccessKind::Read, miss.complete_at);
        let spacing = hit.complete_at - miss.complete_at;
        let pure_hit = c.geo.dgroup_latency_cycles(0);
        assert!(
            spacing > pure_hit,
            "swap must delay the next access: spacing {spacing} vs hit {pure_hit}"
        );
    }

    #[test]
    fn ideal_mode_hits_at_fastest_latency_everywhere() {
        let mut c = small_cache(4);
        c.config.ideal = true;
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        for i in 0..(frames * 2) {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        // Every hit, wherever the block lives, costs group-0 latency.
        let lat0 = c.geo.dgroup_latency_cycles(0);
        for i in 0..(frames * 2) {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            assert!(out.hit);
            assert_eq!(out.complete_at - t, lat0);
            t = out.complete_at + 10;
        }
    }

    #[test]
    fn lru_distance_victim_prefers_cold_blocks() {
        let mut cfg = NuRapidConfig::micro2003(2);
        cfg.capacity = Capacity::from_mib(1);
        cfg.assoc = 4;
        cfg.distance_victim = DistanceVictimPolicy::Lru;
        cfg.promotion = PromotionPolicy::DemotionOnly;
        let mut c = NuRapidCache::new(cfg);
        let frames = c.geo.frames_per_dgroup() as u64;
        let mut t = Cycle::ZERO;
        // Fill group 0; keep touching block 0 so it is MRU.
        for i in 0..frames {
            let out = c.access_block(blk(i), AccessKind::Read, t);
            t = out.complete_at + 10;
            let out = c.access_block(blk(0), AccessKind::Read, t);
            t = out.complete_at + 10;
        }
        // Overflow: the LRU victim demotes; block 0 must stay in group 0.
        let out = c.access_block(blk(frames), AccessKind::Read, t);
        t = out.complete_at + 10;
        let b0 = c.stats().group_hits.count(0);
        let out = c.access_block(blk(0), AccessKind::Read, t);
        assert!(out.hit);
        assert_eq!(c.stats().group_hits.count(0), b0 + 1);
        c.check_invariants();
    }

    #[test]
    fn restricted_cache_respects_regions_under_load() {
        let mut cfg = NuRapidConfig::micro2003(4).with_frames_per_region(256);
        cfg.capacity = Capacity::from_mib(1);
        cfg.assoc = 4;
        let mut c = NuRapidCache::new(cfg);
        c.prefill();
        c.check_invariants();
        let mut t = Cycle::ZERO;
        for i in 0..20_000u64 {
            let out = c.access_block(blk((i * 37) % 6_000), AccessKind::Read, t);
            t = out.complete_at + 5;
        }
        c.check_invariants();
        assert!(c.stats().accesses.get() == 20_000);
    }

    #[test]
    fn restriction_does_not_change_miss_rate() {
        // The tag array is untouched by the restriction, so misses are
        // identical; only the d-group hit distribution may shift.
        let run = |fpr: Option<u32>| {
            let mut cfg = NuRapidConfig::micro2003(4);
            cfg.capacity = Capacity::from_mib(1);
            cfg.assoc = 4;
            cfg.frames_per_region = fpr;
            let mut c = NuRapidCache::new(cfg);
            c.prefill();
            let mut t = Cycle::ZERO;
            for i in 0..30_000u64 {
                let out = c.access_block(blk((i * 13) % 12_000), AccessKind::Read, t);
                t = out.complete_at + 5;
            }
            c.stats().misses.get()
        };
        assert_eq!(run(None), run(Some(128)));
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn restriction_must_divide_dgroup() {
        let mut cfg = NuRapidConfig::micro2003(4).with_frames_per_region(3_000);
        cfg.capacity = Capacity::from_mib(1);
        cfg.assoc = 4;
        let _ = NuRapidCache::new(cfg);
    }

    #[test]
    fn warm_access_matches_timed_architectural_state() {
        // Same access sequence through the timed and warm paths: the
        // resulting architectural state must be identical, including the
        // RNG stream position behind random distance replacement.
        for policy in [
            DistanceVictimPolicy::Random,
            DistanceVictimPolicy::Lru,
            DistanceVictimPolicy::ClockApprox,
        ] {
            let mk = || {
                let mut c = small_cache(4);
                c.config.distance_victim = policy;
                let mut c = NuRapidCache::new(c.config.clone());
                c.prefill();
                c
            };
            let mut timed = mk();
            let mut warm = mk();
            let mut t = Cycle::ZERO;
            let sets = timed.tags.sets() as u64;
            for i in 0..30_000u64 {
                let b = blk((i * 37) % 12_000 + (i % 7) * sets);
                let k = if i % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = timed.access_block(b, k, t);
                t = out.complete_at + 3;
                warm.warm_access_block(b, k);
            }
            warm.check_invariants();
            timed.check_invariants();
            // Replay a probe sequence on both: identical hit groups prove
            // identical placement, and identical victims prove the RNG
            // streams stayed in lockstep.
            warm.reset_stats();
            timed.reset_stats();
            let mut t2 = Cycle::ZERO;
            for i in 0..5_000u64 {
                let b = blk((i * 13) % 14_000);
                let a = timed.access_block(b, AccessKind::Read, t2);
                t2 = a.complete_at + 3;
                warm.warm_access_block(b, AccessKind::Read);
                assert_eq!(
                    timed.tags.probe(b).map(|(_, p)| p),
                    warm.tags.probe(b).map(|(_, p)| p),
                    "{policy:?}: block {b} placement diverged at step {i}"
                );
            }
        }
    }

    #[test]
    fn state_roundtrips_through_snapshot() {
        use simbase::snapshot::{Decoder, Encoder};
        let mut c = small_cache(4);
        c.prefill();
        let mut t = Cycle::ZERO;
        for i in 0..20_000u64 {
            let out = c.access_block(blk((i * 37) % 9_000), AccessKind::Read, t);
            t = out.complete_at + 5;
        }
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = small_cache(4);
        let mut d = Decoder::new(&bytes);
        fresh.load_state(&mut d).unwrap();
        d.finish().unwrap();
        fresh.check_invariants();
        // The twin must now behave identically: same hits, same placements,
        // same victim draws.
        let mut t2 = Cycle::new(1_000_000);
        for i in 0..10_000u64 {
            let b = blk((i * 13) % 11_000);
            let orig = c.access_block(b, AccessKind::Read, t2);
            let twin = fresh.access_block(b, AccessKind::Read, t2);
            assert_eq!(orig.hit, twin.hit, "block {b} at step {i}");
            t2 = orig.complete_at + 5;
        }
        fresh.check_invariants();
    }

    #[test]
    fn lower_cache_interface_reports_counts() {
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        let _ = LowerCache::access(&mut c, blk(1), AccessKind::Read, Cycle::ZERO);
        let _ = LowerCache::access(&mut c, blk(1), AccessKind::Read, Cycle::new(1000));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.block_bytes(), 128);
        assert_eq!(c.miss_ratio(), 0.5);
    }
}
