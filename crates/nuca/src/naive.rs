//! The naive reference oracle: the original, obviously-correct D-NUCA
//! implementation kept verbatim for differential testing.
//!
//! [`crate::cache`] and [`crate::smart_search`] were rewritten around
//! struct-of-arrays slots, a precomputed set → bank table, and bitmask
//! candidate lookups. This module preserves the structures they replaced —
//! array-of-structs slots, allocated candidate lists, `min_by_key` LRU
//! scans — with identical orchestration. The differential property suite
//! drives both with the same access streams and requires identical
//! outcomes and bit-identical statistics.
//!
//! Do not optimize this code: its value is being trivially auditable
//! against the paper, not fast.

use crate::cache::{CnucaConfig, DnucaConfig, SearchPolicy};
use crate::compress::CompressModel;
use crate::smart_search::PARTIAL_TAG_BITS;
use crate::stats::DnucaStats;
use cachemodel::catalog::{self, DnucaGeometry, BLOCK_BYTES};
use memsys::lower::LowerOutcome;
use memsys::memory::MainMemory;
use simbase::{AccessKind, BlockAddr, Cycle};

/// The original smart-search array: separate tag and valid vectors,
/// candidate lists allocated per lookup.
#[derive(Debug, Clone)]
pub struct NaiveSmartSearchArray {
    tags: Vec<u8>, // sets * ways
    valid: Vec<bool>,
    sets: usize,
    ways: u32,
    set_bits: u32,
}

impl NaiveSmartSearchArray {
    /// Creates an array for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        NaiveSmartSearchArray {
            tags: vec![0; sets * ways as usize],
            valid: vec![false; sets * ways as usize],
            sets,
            ways,
            set_bits: sets.trailing_zeros(),
        }
    }

    /// The partial tag of `block`.
    pub fn partial_tag(&self, block: BlockAddr) -> u8 {
        ((block.index() >> self.set_bits) & ((1 << PARTIAL_TAG_BITS) - 1)) as u8
    }

    /// Set index of `block`.
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets as u64) as usize
    }

    fn idx(&self, set: usize, way: u32) -> usize {
        set * self.ways as usize + way as usize
    }

    /// Looks up `block`: returns the ways whose partial tags match.
    pub fn lookup(&self, block: BlockAddr) -> Vec<u32> {
        let set = self.set_of(block);
        let pt = self.partial_tag(block);
        (0..self.ways)
            .filter(|&w| {
                let i = self.idx(set, w);
                self.valid[i] && self.tags[i] == pt
            })
            .collect()
    }

    /// Records `block` as resident in `way` of its set.
    pub fn insert(&mut self, block: BlockAddr, way: u32) {
        let set = self.set_of(block);
        let pt = self.partial_tag(block);
        let i = self.idx(set, way);
        self.tags[i] = pt;
        self.valid[i] = true;
    }

    /// Invalidates `way` of `block`'s set.
    pub fn invalidate(&mut self, block: BlockAddr, way: u32) {
        let set = self.set_of(block);
        let i = self.idx(set, way);
        self.valid[i] = false;
    }

    /// Swaps the recorded contents of two ways of `block`'s set.
    pub fn swap(&mut self, block: BlockAddr, way_a: u32, way_b: u32) {
        let set = self.set_of(block);
        let (a, b) = (self.idx(set, way_a), self.idx(set, way_b));
        self.tags.swap(a, b);
        self.valid.swap(a, b);
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockAddr,
    dirty: bool,
    valid: bool,
    last_use: u64,
}

const EMPTY: Slot = Slot {
    block: BlockAddr::from_index(u64::MAX),
    dirty: false,
    valid: false,
    last_use: 0,
};

/// Cycles a bank is occupied by a full (tag + data) access.
const BANK_OCCUPANCY: u64 = 3;
/// Cycles a bank is occupied by a tag-only search.
const SEARCH_OCCUPANCY: u64 = 2;

/// The original D-NUCA cache (array-of-structs slots, per-access
/// candidate-list allocation), orchestrated identically to
/// [`crate::DnucaCache`].
#[derive(Debug)]
pub struct NaiveDnucaCache {
    config: DnucaConfig,
    geo: DnucaGeometry,
    /// `sets × assoc` slots; way `w` of a set lives at bank position
    /// `w / ways_per_position`.
    slots: Vec<Slot>,
    sets: usize,
    ways_per_position: u32,
    ss: NaiveSmartSearchArray,
    /// Way of the last hit per set, `None` where no hit has happened yet
    /// (the reference twin of the flat `MEMO_NONE`-sentinel vector).
    memo: Vec<Option<u32>>,
    /// Per-bank busy-until times.
    bank_busy: Vec<Cycle>,
    memory: MainMemory,
    stats: DnucaStats,
    use_clock: u64,
}

impl NaiveDnucaCache {
    /// Builds the reference cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn new(config: DnucaConfig) -> Self {
        assert!(
            (config.assoc as usize).is_multiple_of(config.n_positions),
            "positions must divide associativity"
        );
        let geo = DnucaGeometry::new(
            cachemodel::Tech::micro2003_70nm(),
            config.capacity,
            config.n_banks,
            config.n_positions,
        );
        let blocks = config.capacity.bytes() / BLOCK_BYTES;
        let sets = (blocks / config.assoc as u64) as usize;
        NaiveDnucaCache {
            slots: vec![EMPTY; sets * config.assoc as usize],
            sets,
            ways_per_position: config.assoc / config.n_positions as u32,
            ss: NaiveSmartSearchArray::new(sets, config.assoc),
            memo: vec![None; sets],
            bank_busy: vec![Cycle::ZERO; config.n_banks],
            memory: MainMemory::micro2003(),
            stats: DnucaStats::new(config.n_positions, config.n_banks),
            geo,
            config,
            use_clock: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DnucaStats {
        &self.stats
    }

    /// Off-chip accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    /// Fills every slot (and the smart-search array) with placeholder
    /// blocks, mirroring [`crate::DnucaCache::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty.
    pub fn prefill(&mut self) {
        let sets = self.sets as u64;
        let base = (u64::MAX / 256) / sets * sets;
        for set in 0..self.sets {
            for w in 0..self.config.assoc {
                let block = BlockAddr::from_index(base + set as u64 + w as u64 * sets);
                {
                    let slot = self.slot_mut(set, w);
                    assert!(!slot.valid, "prefill on a non-empty cache");
                    *slot = Slot {
                        block,
                        dirty: false,
                        valid: true,
                        last_use: 0,
                    };
                }
                self.ss.insert(block, w);
            }
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets as u64) as usize
    }

    fn bank_of(&self, set: usize, w: u32) -> usize {
        let bank_set = set % self.geo.n_bank_sets();
        let position = (w / self.ways_per_position) as usize;
        self.geo.bank_index(bank_set, position)
    }

    fn position_of_way(&self, w: u32) -> usize {
        (w / self.ways_per_position) as usize
    }

    fn slot(&self, set: usize, w: u32) -> &Slot {
        &self.slots[set * self.config.assoc as usize + w as usize]
    }

    fn slot_mut(&mut self, set: usize, w: u32) -> &mut Slot {
        &mut self.slots[set * self.config.assoc as usize + w as usize]
    }

    fn bank_access(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + BANK_OCCUPANCY;
        self.stats.bank_accesses[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    fn bank_search(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + SEARCH_OCCUPANCY;
        self.stats.bank_searches[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    fn swap_banks(&mut self, bank_a: usize, bank_b: usize, t: Cycle) {
        for bank in [bank_a, bank_b] {
            let start = t.max(self.bank_busy[bank]);
            self.bank_busy[bank] = start + 2 * BANK_OCCUPANCY;
            self.stats.bank_accesses[bank] += 2; // read + write
        }
        self.stats.swaps.inc();
    }

    fn find(&self, set: usize, block: BlockAddr) -> Option<u32> {
        (0..self.config.assoc).find(|&w| {
            let s = self.slot(set, w);
            s.valid && s.block == block
        })
    }

    fn lru_way_at_position(&self, set: usize, p: usize) -> u32 {
        let lo = p as u32 * self.ways_per_position;
        (lo..lo + self.ways_per_position)
            .min_by_key(|&w| {
                let s = self.slot(set, w);
                (s.valid, s.last_use) // invalid slots sort first
            })
            .expect("position has ways")
    }

    fn bubble_promote(&mut self, set: usize, w: u32, t: Cycle) -> u32 {
        let p = self.position_of_way(w);
        if p == 0 {
            return w;
        }
        let other = self.lru_way_at_position(set, p - 1);
        let (a, b) = (
            set * self.config.assoc as usize + w as usize,
            set * self.config.assoc as usize + other as usize,
        );
        self.slots.swap(a, b);
        let moved = self.slot(set, other).block;
        self.ss.swap(moved, w, other);
        let bank_w = self.bank_of(set, w);
        let bank_o = self.bank_of(set, other);
        self.swap_banks(bank_w, bank_o, t);
        other
    }

    fn handle_miss(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        detect_at: Cycle,
    ) -> LowerOutcome {
        self.stats.misses.inc();
        self.stats.memory_reads.inc();
        let mem_done = self.memory.access(BLOCK_BYTES, detect_at);
        let set = self.set_of(block);
        let slowest = self.config.n_positions - 1;
        let victim_way = self.lru_way_at_position(set, slowest);
        let victim = *self.slot(set, victim_way);
        if victim.valid {
            self.ss.invalidate(victim.block, victim_way);
            if victim.dirty {
                self.stats.writebacks.inc();
                let _ = self.memory.access(BLOCK_BYTES, mem_done);
            }
        }
        if self.memo[set] == Some(victim_way) {
            self.memo[set] = None;
        }
        let clock = self.use_clock;
        *self.slot_mut(set, victim_way) = Slot {
            block,
            dirty: kind.is_write(),
            valid: true,
            last_use: clock,
        };
        self.ss.insert(block, victim_way);
        // The fill is a full access to the slowest bank.
        let bank = self.bank_of(set, victim_way);
        let _ = self.bank_access(bank, mem_done);
        LowerOutcome {
            complete_at: mem_done,
            hit: false,
        }
    }

    /// Demand access, mirroring [`crate::DnucaCache::access_block`].
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        let set = self.set_of(block);
        let ss_done = now + catalog::smart_search_latency_cycles();
        let candidates = self.ss.lookup(block);
        let hit_way = self.find(set, block);

        match self.config.policy {
            SearchPolicy::SsPerformance => {
                self.stats.ss_accesses.inc();
                // Multicast: every bank position of this set is searched.
                let bank_set_banks: Vec<usize> = (0..self.config.n_positions)
                    .map(|p| self.geo.bank_index(set % self.geo.n_bank_sets(), p))
                    .collect();
                let mut slowest_search = now;
                for (p, &bank) in bank_set_banks.iter().enumerate() {
                    if hit_way.map(|w| self.position_of_way(w)) == Some(p) {
                        continue; // the hit bank does a full access below
                    }
                    let done = self.bank_search(bank, now);
                    slowest_search = slowest_search.max(done);
                }
                match hit_way {
                    Some(w) => {
                        let p = self.position_of_way(w);
                        self.stats.position_hits.record(p);
                        let clock = self.use_clock;
                        {
                            let s = self.slot_mut(set, w);
                            s.last_use = clock;
                            if kind.is_write() {
                                s.dirty = true;
                            }
                        }
                        let bank = self.bank_of(set, w);
                        let done = self.bank_access(bank, now);
                        let fw = self.bubble_promote(set, w, done);
                        self.memo[set] = Some(fw);
                        LowerOutcome {
                            complete_at: done,
                            hit: true,
                        }
                    }
                    None => {
                        let detect_at = if candidates.is_empty() {
                            self.stats.early_misses.inc();
                            ss_done
                        } else {
                            self.stats.false_hits.add(candidates.len() as u64);
                            slowest_search
                        };
                        self.handle_miss(block, kind, detect_at)
                    }
                }
            }
            SearchPolicy::SsEnergy => {
                self.stats.ss_accesses.inc();
                // Probe only candidate positions, nearest first, serially.
                let mut positions: Vec<usize> =
                    candidates.iter().map(|&w| self.position_of_way(w)).collect();
                positions.sort_unstable();
                positions.dedup();
                let mut t = ss_done;
                for p in positions {
                    let bank = self.geo.bank_index(set % self.geo.n_bank_sets(), p);
                    match hit_way {
                        Some(w) if self.position_of_way(w) == p => {
                            self.stats.position_hits.record(p);
                            let clock = self.use_clock;
                            {
                                let s = self.slot_mut(set, w);
                                s.last_use = clock;
                                if kind.is_write() {
                                    s.dirty = true;
                                }
                            }
                            let done = self.bank_access(bank, t);
                            let fw = self.bubble_promote(set, w, done);
                            self.memo[set] = Some(fw);
                            return LowerOutcome {
                                complete_at: done,
                                hit: true,
                            };
                        }
                        _ => {
                            // False hit: the partial tag matched but the
                            // block is not here.
                            self.stats.false_hits.inc();
                            t = self.bank_search(bank, t);
                        }
                    }
                }
                if candidates.is_empty() {
                    self.stats.early_misses.inc();
                }
                self.handle_miss(block, kind, t)
            }
            SearchPolicy::WayMemo => {
                self.stats.memo_lookups.inc();
                let mut t = now + catalog::way_memo_latency_cycles();
                let memo_position = self.memo[set].map(|w| self.position_of_way(w));
                if let Some(mp) = memo_position {
                    // Probe the memoized position with one full access.
                    let bank = self.geo.bank_index(set % self.geo.n_bank_sets(), mp);
                    match hit_way {
                        Some(w) if self.position_of_way(w) == mp => {
                            self.stats.memo_hits.inc();
                            self.stats.position_hits.record(mp);
                            let clock = self.use_clock;
                            {
                                let s = self.slot_mut(set, w);
                                s.last_use = clock;
                                if kind.is_write() {
                                    s.dirty = true;
                                }
                            }
                            let done = self.bank_access(bank, t);
                            let fw = self.bubble_promote(set, w, done);
                            self.memo[set] = Some(fw);
                            return LowerOutcome {
                                complete_at: done,
                                hit: true,
                            };
                        }
                        _ => {
                            // Memo miss: the speculative access was wasted.
                            t = self.bank_access(bank, t);
                        }
                    }
                }
                // Fall back to the serial candidate search (as ss-energy),
                // skipping the position the memo probe already ruled out;
                // the ss array was read in parallel with the memo probe.
                self.stats.ss_accesses.inc();
                let mut positions: Vec<usize> =
                    candidates.iter().map(|&w| self.position_of_way(w)).collect();
                positions.sort_unstable();
                positions.dedup();
                t = t.max(ss_done);
                for p in positions {
                    if memo_position == Some(p) {
                        continue;
                    }
                    let bank = self.geo.bank_index(set % self.geo.n_bank_sets(), p);
                    match hit_way {
                        Some(w) if self.position_of_way(w) == p => {
                            self.stats.position_hits.record(p);
                            let clock = self.use_clock;
                            {
                                let s = self.slot_mut(set, w);
                                s.last_use = clock;
                                if kind.is_write() {
                                    s.dirty = true;
                                }
                            }
                            let done = self.bank_access(bank, t);
                            let fw = self.bubble_promote(set, w, done);
                            self.memo[set] = Some(fw);
                            return LowerOutcome {
                                complete_at: done,
                                hit: true,
                            };
                        }
                        _ => {
                            self.stats.false_hits.inc();
                            t = self.bank_search(bank, t);
                        }
                    }
                }
                if candidates.is_empty() {
                    self.stats.early_misses.inc();
                }
                self.handle_miss(block, kind, t)
            }
        }
    }
}

/// The reference compressed-NUCA cache: array-of-structs slots and
/// per-access candidate lists, orchestrated identically to
/// [`crate::DnucaCache::compressed`]. Do not optimize.
#[derive(Debug)]
pub struct NaiveCnucaCache {
    config: CnucaConfig,
    geo: DnucaGeometry,
    model: CompressModel,
    /// `sets × ways` slots; the first `2·wpp` ways of a set are the
    /// half-frame compressed ways of position 0.
    slots: Vec<Slot>,
    sets: usize,
    ways_per_position: u32,
    n_ways: u32,
    ss: NaiveSmartSearchArray,
    bank_busy: Vec<Cycle>,
    memory: MainMemory,
    stats: DnucaStats,
    use_clock: u64,
}

impl NaiveCnucaCache {
    /// Builds the reference cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn new(config: CnucaConfig) -> Self {
        assert!(
            (config.assoc as usize).is_multiple_of(config.n_positions),
            "positions must divide associativity"
        );
        let geo = DnucaGeometry::new(
            cachemodel::Tech::micro2003_70nm(),
            config.capacity,
            config.n_banks,
            config.n_positions,
        );
        let blocks = config.capacity.bytes() / BLOCK_BYTES;
        let sets = (blocks / config.assoc as u64) as usize;
        let wpp = config.assoc / config.n_positions as u32;
        let n_ways = 2 * wpp + (config.n_positions as u32 - 1) * wpp;
        NaiveCnucaCache {
            slots: vec![EMPTY; sets * n_ways as usize],
            sets,
            ways_per_position: wpp,
            n_ways,
            ss: NaiveSmartSearchArray::new(sets, n_ways),
            bank_busy: vec![Cycle::ZERO; config.n_banks],
            memory: MainMemory::micro2003(),
            stats: DnucaStats::new(config.n_positions, config.n_banks),
            model: CompressModel::new(config.comp_seed),
            geo,
            config,
            use_clock: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DnucaStats {
        &self.stats
    }

    /// Off-chip accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    fn fast_ways(&self) -> u32 {
        2 * self.ways_per_position
    }

    /// Fills every slot with placeholder blocks, mirroring
    /// [`crate::DnucaCache::prefill`] in the compressed layout.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty.
    pub fn prefill(&mut self) {
        let sets = self.sets as u64;
        let base = (u64::MAX / 256) / sets * sets;
        for set in 0..self.sets {
            let mut k = 0u64;
            for w in 0..self.n_ways {
                let block = loop {
                    let b = BlockAddr::from_index(base + set as u64 + k * sets);
                    k += 1;
                    if w >= self.fast_ways() || self.model.is_compressible(b) {
                        break b;
                    }
                };
                {
                    let slot = self.slot_mut(set, w);
                    assert!(!slot.valid, "prefill on a non-empty cache");
                    *slot = Slot {
                        block,
                        dirty: false,
                        valid: true,
                        last_use: 0,
                    };
                }
                self.ss.insert(block, w);
            }
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets as u64) as usize
    }

    fn position_of_way(&self, w: u32) -> usize {
        if w < self.fast_ways() {
            0
        } else {
            1 + ((w - self.fast_ways()) / self.ways_per_position) as usize
        }
    }

    fn ways_at_position(&self, p: usize) -> (u32, u32) {
        if p == 0 {
            (0, self.fast_ways())
        } else {
            (
                self.fast_ways() + (p as u32 - 1) * self.ways_per_position,
                self.ways_per_position,
            )
        }
    }

    fn bank_of(&self, set: usize, w: u32) -> usize {
        let bank_set = set % self.geo.n_bank_sets();
        self.geo.bank_index(bank_set, self.position_of_way(w))
    }

    fn slot(&self, set: usize, w: u32) -> &Slot {
        &self.slots[set * self.n_ways as usize + w as usize]
    }

    fn slot_mut(&mut self, set: usize, w: u32) -> &mut Slot {
        &mut self.slots[set * self.n_ways as usize + w as usize]
    }

    fn bank_access(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + BANK_OCCUPANCY;
        self.stats.bank_accesses[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    fn bank_search(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + SEARCH_OCCUPANCY;
        self.stats.bank_searches[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    fn swap_banks(&mut self, bank_a: usize, bank_b: usize, t: Cycle) {
        for bank in [bank_a, bank_b] {
            let start = t.max(self.bank_busy[bank]);
            self.bank_busy[bank] = start + 2 * BANK_OCCUPANCY;
            self.stats.bank_accesses[bank] += 2; // read + write
        }
        self.stats.swaps.inc();
    }

    fn find(&self, set: usize, block: BlockAddr) -> Option<u32> {
        (0..self.n_ways).find(|&w| {
            let s = self.slot(set, w);
            s.valid && s.block == block
        })
    }

    fn lru_way_at_position(&self, set: usize, p: usize) -> u32 {
        let (lo, n) = self.ways_at_position(p);
        (lo..lo + n)
            .min_by_key(|&w| {
                let s = self.slot(set, w);
                (s.valid, s.last_use)
            })
            .expect("position has ways")
    }

    /// Architectural half of a promotion: distance-associative jump into
    /// position 0 for compressible blocks, a single bubble hop (floored
    /// at position 1) for incompressible ones; returns the partner way
    /// when a swap happened.
    fn bubble_swap_slots(&mut self, set: usize, w: u32) -> Option<u32> {
        let p = self.position_of_way(w);
        if p == 0 {
            return None;
        }
        let target = if self.model.is_compressible(self.slot(set, w).block) {
            0
        } else if p == 1 {
            return None;
        } else {
            p - 1
        };
        let other = self.lru_way_at_position(set, target);
        let (a, b) = (
            set * self.n_ways as usize + w as usize,
            set * self.n_ways as usize + other as usize,
        );
        self.slots.swap(a, b);
        let moved = self.slot(set, other).block;
        self.ss.swap(moved, w, other);
        Some(other)
    }

    /// Bubble promotion with bank timing; counts refused position-0 hops.
    fn bubble_promote(&mut self, set: usize, w: u32, t: Cycle) {
        match self.bubble_swap_slots(set, w) {
            Some(other) => {
                let bank_w = self.bank_of(set, w);
                let bank_o = self.bank_of(set, other);
                self.swap_banks(bank_w, bank_o, t);
            }
            None => {
                if self.position_of_way(w) == 1 {
                    self.stats.promotion_refusals.inc();
                }
            }
        }
    }

    fn handle_miss(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        detect_at: Cycle,
    ) -> LowerOutcome {
        self.stats.misses.inc();
        self.stats.memory_reads.inc();
        let mem_done = self.memory.access(BLOCK_BYTES, detect_at);
        let set = self.set_of(block);
        let slowest = self.config.n_positions - 1;
        let victim_way = self.lru_way_at_position(set, slowest);
        let victim = *self.slot(set, victim_way);
        if victim.valid {
            self.ss.invalidate(victim.block, victim_way);
            if victim.dirty {
                self.stats.writebacks.inc();
                let _ = self.memory.access(BLOCK_BYTES, mem_done);
            }
        }
        let clock = self.use_clock;
        *self.slot_mut(set, victim_way) = Slot {
            block,
            dirty: kind.is_write(),
            valid: true,
            last_use: clock,
        };
        self.ss.insert(block, victim_way);
        let bank = self.bank_of(set, victim_way);
        let _ = self.bank_access(bank, mem_done);
        LowerOutcome {
            complete_at: mem_done,
            hit: false,
        }
    }

    /// Warm-up access, mirroring
    /// [`crate::DnucaCache::warm_access_block`] in the compressed layout:
    /// every architectural effect of a demand access, no timing or stats.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        self.use_clock += 1;
        let set = self.set_of(block);
        match self.find(set, block) {
            Some(w) => {
                let clock = self.use_clock;
                {
                    let s = self.slot_mut(set, w);
                    s.last_use = clock;
                    if kind.is_write() {
                        s.dirty = true;
                    }
                }
                let _ = self.bubble_swap_slots(set, w);
            }
            None => {
                let slowest = self.config.n_positions - 1;
                let victim_way = self.lru_way_at_position(set, slowest);
                let victim = *self.slot(set, victim_way);
                if victim.valid {
                    self.ss.invalidate(victim.block, victim_way);
                }
                let clock = self.use_clock;
                *self.slot_mut(set, victim_way) = Slot {
                    block,
                    dirty: kind.is_write(),
                    valid: true,
                    last_use: clock,
                };
                self.ss.insert(block, victim_way);
            }
        }
    }

    /// Demand access, mirroring
    /// [`crate::DnucaCache::access_block`] in the compressed layout.
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        self.stats.ss_accesses.inc();
        let set = self.set_of(block);
        let ss_done = now + catalog::smart_search_latency_cycles();
        let candidates = self.ss.lookup(block);
        let hit_way = self.find(set, block);

        // Multicast: every bank position of this set is searched.
        let bank_set_banks: Vec<usize> = (0..self.config.n_positions)
            .map(|p| self.geo.bank_index(set % self.geo.n_bank_sets(), p))
            .collect();
        let mut slowest_search = now;
        for (p, &bank) in bank_set_banks.iter().enumerate() {
            if hit_way.map(|w| self.position_of_way(w)) == Some(p) {
                continue; // the hit bank does a full access below
            }
            let done = self.bank_search(bank, now);
            slowest_search = slowest_search.max(done);
        }
        match hit_way {
            Some(w) => {
                let p = self.position_of_way(w);
                self.stats.position_hits.record(p);
                let clock = self.use_clock;
                {
                    let s = self.slot_mut(set, w);
                    s.last_use = clock;
                    if kind.is_write() {
                        s.dirty = true;
                    }
                }
                let bank = self.bank_of(set, w);
                let mut done = self.bank_access(bank, now);
                if p == 0 {
                    self.stats.decompressions.inc();
                    done += self.config.decomp_cycles;
                }
                self.bubble_promote(set, w, done);
                LowerOutcome {
                    complete_at: done,
                    hit: true,
                }
            }
            None => {
                let detect_at = if candidates.is_empty() {
                    self.stats.early_misses.inc();
                    ss_done
                } else {
                    self.stats.false_hits.add(candidates.len() as u64);
                    slowest_search
                };
                self.handle_miss(block, kind, detect_at)
            }
        }
    }
}
