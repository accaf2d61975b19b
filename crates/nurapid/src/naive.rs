//! The naive reference oracle: the original, obviously-correct NuRAPID
//! implementation kept verbatim for differential testing.
//!
//! The hot-path modules ([`crate::tag`], [`crate::dgroup`],
//! [`crate::port`], [`crate::cache`]) were rewritten around flat arenas
//! and packed metadata for throughput. This module preserves the simple
//! structures they replaced — array-of-structs tag entries, `Vec`-shuffle
//! LRU order, `Option<TagRef>` frames, a `VecDeque` port schedule — wired
//! into the same orchestration logic. The differential property suite
//! drives both implementations with identical access streams and requires
//! identical outcomes and bit-identical statistics.
//!
//! Do not optimize this code: its value is being trivially auditable
//! against the paper, not fast.

use crate::cache::NuRapidConfig;
use crate::policy::{DistanceVictimPolicy, PromotionPolicy};
use crate::stats::NuRapidStats;
use crate::tag::{FramePtr, TagEviction, TagLookup, TagRef};
use cachemodel::catalog::{NuRapidGeometry, BLOCK_BYTES};
use memsys::lower::LowerOutcome;
use memsys::memory::MainMemory;
use simbase::rng::SimRng;
use simbase::{AccessKind, BlockAddr, Cycle};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Tag array: array-of-structs entries, per-set LRU as a shuffled Vec.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    block: BlockAddr,
    ptr: FramePtr,
    dirty: bool,
    valid: bool,
}

/// The original centralized tag array.
#[derive(Debug, Clone)]
pub struct NaiveTagArray {
    entries: Vec<TagEntry>, // sets * assoc
    lru: Vec<Vec<u8>>,      // per-set MRU..LRU order
    sets: usize,
    assoc: u32,
}

impl NaiveTagArray {
    /// Creates a tag array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `assoc` is 0 or > 255.
    pub fn new(sets: usize, assoc: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0 && assoc <= 255, "associativity out of range");
        NaiveTagArray {
            entries: vec![
                TagEntry {
                    block: BlockAddr::from_index(u64::MAX),
                    ptr: FramePtr { group: 0, frame: 0 },
                    dirty: false,
                    valid: false,
                };
                sets * assoc as usize
            ],
            lru: (0..sets).map(|_| (0..assoc as u8).collect()).collect(),
            sets,
            assoc,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Set index of `block`.
    pub fn set_of(&self, block: BlockAddr) -> u32 {
        (block.index() % self.sets as u64) as u32
    }

    fn idx(&self, r: TagRef) -> usize {
        r.set as usize * self.assoc as usize + r.way as usize
    }

    /// Probes the tag array for `block`; on a hit updates per-set LRU and,
    /// for writes, the dirty bit.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> TagLookup {
        let set = self.set_of(block);
        for way in 0..self.assoc as u8 {
            let r = TagRef { set, way };
            let i = self.idx(r);
            if self.entries[i].valid && self.entries[i].block == block {
                if kind.is_write() {
                    self.entries[i].dirty = true;
                }
                self.touch(r);
                return TagLookup::Hit {
                    at: r,
                    ptr: self.entries[i].ptr,
                };
            }
        }
        TagLookup::Miss
    }

    /// Pure probe without state updates.
    pub fn probe(&self, block: BlockAddr) -> Option<(TagRef, FramePtr)> {
        let set = self.set_of(block);
        for way in 0..self.assoc as u8 {
            let r = TagRef { set, way };
            let i = self.idx(r);
            if self.entries[i].valid && self.entries[i].block == block {
                return Some((r, self.entries[i].ptr));
            }
        }
        None
    }

    fn touch(&mut self, r: TagRef) {
        let order = &mut self.lru[r.set as usize];
        let pos = order.iter().position(|&w| w == r.way).expect("way in order list");
        let w = order.remove(pos);
        order.insert(0, w);
    }

    /// Allocates a tag entry for `block`, evicting the set's LRU block if
    /// the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present.
    pub fn allocate(
        &mut self,
        block: BlockAddr,
        ptr: FramePtr,
        dirty: bool,
    ) -> (TagRef, Option<TagEviction>) {
        assert!(self.probe(block).is_none(), "allocate of already-present block {block}");
        let set = self.set_of(block);
        // Prefer an invalid way.
        let mut target = None;
        for way in 0..self.assoc as u8 {
            let r = TagRef { set, way };
            if !self.entries[self.idx(r)].valid {
                target = Some(r);
                break;
            }
        }
        let (r, evicted) = match target {
            Some(r) => (r, None),
            None => {
                let way = *self.lru[set as usize].last().expect("non-empty order");
                let r = TagRef { set, way };
                let old = self.entries[self.idx(r)];
                (
                    r,
                    Some(TagEviction {
                        block: old.block,
                        dirty: old.dirty,
                        freed: old.ptr,
                    }),
                )
            }
        };
        let i = self.idx(r);
        self.entries[i] = TagEntry {
            block,
            ptr,
            dirty,
            valid: true,
        };
        self.touch(r);
        (r, evicted)
    }

    /// Rewrites the forward pointer of the entry at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` names an invalid entry.
    pub fn set_ptr(&mut self, r: TagRef, ptr: FramePtr) {
        let i = self.idx(r);
        assert!(self.entries[i].valid, "set_ptr on invalid entry");
        self.entries[i].ptr = ptr;
    }

    /// The forward pointer of the entry at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` names an invalid entry.
    pub fn ptr_of(&self, r: TagRef) -> FramePtr {
        let e = &self.entries[self.idx(r)];
        assert!(e.valid, "ptr_of on invalid entry");
        e.ptr
    }

    /// The block held by the entry at `r`, if valid.
    pub fn block_at(&self, r: TagRef) -> Option<BlockAddr> {
        let e = &self.entries[self.idx(r)];
        e.valid.then_some(e.block)
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

// ---------------------------------------------------------------------------
// D-group arrays: Option<TagRef> frames, unconditional recency upkeep.
// ---------------------------------------------------------------------------

const NIL: u32 = u32::MAX;

/// Intrusive LRU list over local frame indices of one region.
#[derive(Debug, Clone)]
struct FrameLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    linked: Vec<bool>,
}

impl FrameLru {
    fn new(n: usize) -> Self {
        FrameLru {
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: NIL,
            tail: NIL,
            linked: vec![false; n],
        }
    }

    fn push_mru(&mut self, f: u32) {
        debug_assert!(!self.linked[f as usize], "frame {f} already linked");
        self.prev[f as usize] = NIL;
        self.next[f as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = f;
        }
        self.head = f;
        if self.tail == NIL {
            self.tail = f;
        }
        self.linked[f as usize] = true;
    }

    fn unlink(&mut self, f: u32) {
        debug_assert!(self.linked[f as usize], "frame {f} not linked");
        let (p, n) = (self.prev[f as usize], self.next[f as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.linked[f as usize] = false;
    }

    fn touch(&mut self, f: u32) {
        self.unlink(f);
        self.push_mru(f);
    }

    fn lru(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }
}

/// Per-region free list and recency state.
#[derive(Debug, Clone)]
struct Region {
    /// Free *local* frame indices.
    free: Vec<u32>,
    lru: FrameLru,
    /// CLOCK reference bits and sweep hand (approximate LRU).
    referenced: Vec<bool>,
    hand: u32,
}

/// The original d-group data array: reverse pointers as `Option<TagRef>`,
/// recency state maintained for every policy, `div`/`mod` index math.
#[derive(Debug, Clone)]
pub struct NaiveDGroupArray {
    /// Reverse pointer per frame; `None` = free.
    frames: Vec<Option<TagRef>>,
    regions: Vec<Region>,
    /// Frames per region (`n_frames` when unrestricted).
    frames_per_region: u32,
    policy: DistanceVictimPolicy,
    rng: SimRng,
}

impl NaiveDGroupArray {
    /// Creates a fully flexible d-group of `n_frames` empty frames.
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` is zero.
    pub fn new(n_frames: usize, policy: DistanceVictimPolicy, rng: SimRng) -> Self {
        Self::with_regions(n_frames, 1, policy, rng)
    }

    /// Creates a d-group partitioned into `n_regions` equal placement
    /// regions.
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` is zero or `n_regions` does not evenly divide
    /// it.
    pub fn with_regions(
        n_frames: usize,
        n_regions: usize,
        policy: DistanceVictimPolicy,
        rng: SimRng,
    ) -> Self {
        assert!(n_frames > 0, "d-group needs at least one frame");
        assert!(
            n_regions > 0 && n_frames.is_multiple_of(n_regions),
            "{n_regions} regions must evenly divide {n_frames} frames"
        );
        let fpr = n_frames / n_regions;
        let regions = (0..n_regions)
            .map(|_| Region {
                free: (0..fpr as u32).rev().collect(),
                lru: FrameLru::new(fpr),
                referenced: vec![false; fpr],
                hand: 0,
            })
            .collect();
        NaiveDGroupArray {
            frames: vec![None; n_frames],
            regions,
            frames_per_region: fpr as u32,
            policy,
            rng,
        }
    }

    /// Total frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// The region a frame belongs to.
    pub fn region_of_frame(&self, frame: u32) -> usize {
        (frame / self.frames_per_region) as usize
    }

    fn global(&self, region: usize, local: u32) -> u32 {
        region as u32 * self.frames_per_region + local
    }

    fn local(&self, frame: u32) -> u32 {
        frame % self.frames_per_region
    }

    /// Occupied frames.
    pub fn occupied(&self) -> usize {
        self.frames.len() - self.regions.iter().map(|r| r.free.len()).sum::<usize>()
    }

    /// True if every frame of `region` is occupied.
    pub fn is_full(&self, region: usize) -> bool {
        self.regions[region].free.is_empty()
    }

    /// Takes a free frame in `region` if one exists.
    pub fn take_free(&mut self, region: usize) -> Option<u32> {
        let local = self.regions[region].free.pop()?;
        Some(self.global(region, local))
    }

    /// Installs a block's data in `frame` with reverse pointer `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is occupied.
    pub fn install(&mut self, frame: u32, owner: TagRef) {
        let slot = &mut self.frames[frame as usize];
        assert!(slot.is_none(), "install into occupied frame {frame}");
        *slot = Some(owner);
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        self.regions[r].lru.push_mru(l);
    }

    /// Removes the block in `frame`, returning its reverse pointer.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn remove(&mut self, frame: u32) -> TagRef {
        let owner = self.frames[frame as usize].take().expect("remove from free frame");
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        self.regions[r].lru.unlink(l);
        owner
    }

    /// Removes the block in `frame` and returns the frame to its region's
    /// free list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn release(&mut self, frame: u32) -> TagRef {
        let owner = self.remove(frame);
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        self.regions[r].free.push(l);
        owner
    }

    /// Records a hit on `frame` for recency tracking.
    pub fn touch(&mut self, frame: u32) {
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        match self.policy {
            DistanceVictimPolicy::Lru => self.regions[r].lru.touch(l),
            DistanceVictimPolicy::ClockApprox => {
                self.regions[r].referenced[l as usize] = true;
            }
            DistanceVictimPolicy::Random => {}
        }
    }

    /// Reverse pointer of `frame`, if occupied.
    pub fn owner(&self, frame: u32) -> Option<TagRef> {
        self.frames[frame as usize]
    }

    /// Updates the reverse pointer of an occupied `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn set_owner(&mut self, frame: u32, owner: TagRef) {
        let slot = &mut self.frames[frame as usize];
        assert!(slot.is_some(), "set_owner on free frame {frame}");
        *slot = Some(owner);
    }

    /// Chooses a distance-replacement victim frame within `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region has free frames.
    pub fn choose_victim(&mut self, region: usize) -> u32 {
        assert!(
            self.is_full(region),
            "choose_victim with {} free frames in region {region}",
            self.regions[region].free.len()
        );
        let local = match self.policy {
            DistanceVictimPolicy::Random => self.rng.below(self.frames_per_region as u64) as u32,
            DistanceVictimPolicy::Lru => self.regions[region].lru.lru().expect("non-empty region"),
            DistanceVictimPolicy::ClockApprox => {
                let fpr = self.frames_per_region;
                let reg = &mut self.regions[region];
                loop {
                    let l = reg.hand;
                    reg.hand = (reg.hand + 1) % fpr;
                    if reg.referenced[l as usize] {
                        reg.referenced[l as usize] = false;
                    } else {
                        break l;
                    }
                }
            }
        };
        self.global(region, local)
    }
}

// ---------------------------------------------------------------------------
// Port schedule: VecDeque with front-pruning and a full linear scan.
// ---------------------------------------------------------------------------

/// The original single-port schedule.
#[derive(Debug, Clone, Default)]
pub struct NaivePortSchedule {
    /// Sorted, disjoint `[start, end)` reservations.
    busy: VecDeque<(Cycle, Cycle)>,
}

impl NaivePortSchedule {
    /// Creates an idle port.
    pub fn new() -> Self {
        NaivePortSchedule::default()
    }

    /// Reserves `dur` port cycles at the earliest time ≥ `at` that does
    /// not overlap an existing reservation. Returns the start time.
    pub fn reserve(&mut self, at: Cycle, dur: u64) -> Cycle {
        const LAG: u64 = 4096;
        while let Some(&(_, end)) = self.busy.front() {
            if end.raw() + LAG <= at.raw() {
                self.busy.pop_front();
            } else {
                break;
            }
        }
        let mut start = at;
        let mut insert_at = 0usize;
        for (i, &(s, e)) in self.busy.iter().enumerate() {
            if start.raw() + dur <= s.raw() {
                break; // fits in the gap before interval i
            }
            if start < e {
                start = e; // pushed past this interval
            }
            insert_at = i + 1;
        }
        self.busy.insert(insert_at, (start, start + dur));
        start
    }

    /// Earliest time ≥ `at` the port is free (without reserving).
    pub fn next_free(&self, at: Cycle) -> Cycle {
        let mut t = at;
        for &(s, e) in &self.busy {
            if t < s {
                break;
            }
            if t < e {
                t = e;
            }
        }
        t
    }

    /// Number of live reservations.
    pub fn reservations(&self) -> usize {
        self.busy.len()
    }
}

// ---------------------------------------------------------------------------
// The assembled reference cache.
// ---------------------------------------------------------------------------

/// The original NuRAPID cache wired from the naive components, with the
/// same orchestration logic as [`crate::NuRapidCache`] (telemetry elided —
/// it never feeds back into behavior).
#[derive(Debug)]
pub struct NaiveNuRapidCache {
    config: NuRapidConfig,
    geo: NuRapidGeometry,
    tags: NaiveTagArray,
    dgroups: Vec<NaiveDGroupArray>,
    memory: MainMemory,
    stats: NuRapidStats,
    port: NaivePortSchedule,
    n_regions: usize,
}

impl NaiveNuRapidCache {
    /// Builds the reference cache from `config` (same seeding and RNG fork
    /// structure as the production cache).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn new(config: NuRapidConfig) -> Self {
        let geo = NuRapidGeometry::micro2003(config.capacity, config.n_dgroups);
        let blocks = config.capacity.bytes() / BLOCK_BYTES;
        let sets = (blocks / config.assoc as u64) as usize;
        let frames = geo.frames_per_dgroup();
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
                NaiveDGroupArray::with_regions(
                    frames,
                    n_regions,
                    config.distance_victim,
                    rng.fork(g as u64),
                )
            })
            .collect();
        NaiveNuRapidCache {
            tags: NaiveTagArray::new(sets, config.assoc),
            dgroups,
            memory: MainMemory::micro2003(),
            stats: NuRapidStats::new(config.n_dgroups),
            geo,
            config,
            port: NaivePortSchedule::new(),
            n_regions,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NuRapidStats {
        &self.stats
    }

    /// Off-chip accesses (misses + writebacks).
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    fn region_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.n_regions as u64) as usize
    }

    /// Fills every frame and tag entry with placeholder blocks, mirroring
    /// [`crate::NuRapidCache::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty.
    pub fn prefill(&mut self) {
        assert_eq!(self.tags.occupancy(), 0, "prefill on a non-empty cache");
        let sets = self.tags.sets() as u64;
        let blocks = sets * self.config.assoc as u64;
        let base = u64::MAX / 256;
        for i in 0..blocks {
            let block = BlockAddr::from_index(base + i);
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

    fn place_with_demotions(&mut self, owner: TagRef, target: usize, region: usize) -> u64 {
        let mut carry = owner;
        let mut g = target;
        let mut cycles = 0;
        loop {
            assert!(g < self.dgroups.len(), "demotion chain ran off the end");
            let (frame, displaced) = match self.dgroups[g].take_free(region) {
                Some(f) => (f, None),
                None => {
                    let v = self.dgroups[g].choose_victim(region);
                    let victim_owner = self.dgroups[g].remove(v);
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
            self.stats.group_writes.record(g);
            self.stats.tag_writes.inc();
            cycles += self.geo.array_occupancy_cycles();
            match displaced {
                None => return cycles,
                Some(victim_owner) => {
                    carry = victim_owner;
                    self.stats.demotions.inc();
                    g += 1;
                }
            }
        }
    }

    fn promote(&mut self, at: TagRef, g: usize, frame: u32, region: usize) -> u64 {
        let target = match (self.config.promotion, g) {
            (PromotionPolicy::DemotionOnly, _) | (_, 0) => return 0,
            (PromotionPolicy::NextFastest, _) => g - 1,
            (PromotionPolicy::Fastest, _) => 0,
        };
        let owner = self.dgroups[g].release(frame);
        debug_assert_eq!(owner, at, "reverse pointer must match the tag hit");
        self.stats.promotions.inc();
        self.place_with_demotions(owner, target, region)
    }

    /// Demand access, mirroring [`crate::NuRapidCache::access_block`].
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.stats.accesses.inc();
        self.stats.tag_probes.inc();

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
                let occupancy = if self.config.ideal {
                    self.geo.array_occupancy_cycles()
                } else {
                    self.geo.array_occupancy_cycles() + swap_cycles
                };
                let start = self.port.reserve(now, occupancy);
                LowerOutcome {
                    complete_at: start + latency,
                    hit: true,
                }
            }
            TagLookup::Miss => {
                self.stats.misses.inc();
                self.stats.memory_reads.inc();
                let probe_start = self.port.reserve(now, self.geo.tag_latency_cycles());
                let mem_start = probe_start + self.geo.tag_latency_cycles();
                let mem_done = self.memory.access(BLOCK_BYTES, mem_start);
                let (at, evicted) = self.tags.allocate(
                    block,
                    FramePtr { group: 0, frame: 0 }, // provisional
                    kind.is_write(),
                );
                if let Some(ev) = evicted {
                    self.dgroups[ev.freed.group as usize].release(ev.freed.frame);
                    if ev.dirty {
                        self.stats.writebacks.inc();
                        let _ = self.memory.access(BLOCK_BYTES, mem_done);
                    }
                }
                let fill_cycles = self.place_with_demotions(at, 0, self.region_of(block));
                if fill_cycles > 0 && !self.config.ideal {
                    let _ = self.port.reserve(mem_done, fill_cycles);
                }
                LowerOutcome {
                    complete_at: mem_done,
                    hit: false,
                }
            }
        }
    }
}
