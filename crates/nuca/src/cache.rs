//! The assembled D-NUCA cache: banked tag/data, bubble promotion, and the
//! ss-performance / ss-energy / way-memo search policies — plus compressed
//! NUCA, which is the same bank array with a different way layout.
//!
//! Slot metadata is kept struct-of-arrays (block indices, valid/dirty
//! flags, and recency clocks in separate flat vectors) so the per-access
//! way scans touch densely packed words, and the set → bank mapping is a
//! precomputed table. The access path performs no heap allocation:
//! smart-search candidates travel as a way bitmask and the multicast /
//! serial-probe loops walk positions directly.
//!
//! # Way layouts
//!
//! A set's logical ways are numbered nearest position first. The
//! **uniform** layout ([`DnucaCache::new`]) gives every bank position
//! `wpp = assoc / n_positions` full-frame ways. The **compressed** layout
//! ([`DnucaCache::compressed`], after the compressed-NUCA line of work
//! surveyed in arXiv 2201.00774) splits position 0's frames into `2·wpp`
//! half-frame ways that only blocks the [`CompressModel`] classifies as
//! compressible may occupy. Every hit there pays a fixed decompression
//! latency. Promotion is **distance-associative** for compressible blocks
//! — one hit swaps the block straight into the LRU compressed way of
//! position 0, however far out it sits — and a bubble hop with a
//! position-1 floor for incompressible ones. Compressed NUCA searches by
//! multicast (the ss-performance policy) and keeps no way-memo table;
//! misses install raw into the slowest position under both layouts.

use crate::compress::CompressModel;
use crate::smart_search::SmartSearchArray;
use crate::stats::DnucaStats;
use cachemodel::catalog::{self, DnucaGeometry, BLOCK_BYTES};
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::memory::MainMemory;
use simbase::digest::{KnobVisitor, Knobs, Tag, Variants};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simtel::TelemetrySink;

/// Which of the paper's two separately-optimal D-NUCA policies to run
/// (Section 5.4: ss-performance for the performance comparison, ss-energy
/// for the energy comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchPolicy {
    /// Multicast-search every bank position in parallel; use the
    /// smart-search array only to initiate misses early.
    SsPerformance,
    /// Probe the smart-search array first and access only the banks with
    /// partial-tag matches, nearest first.
    SsEnergy,
    /// Way memoization (after arXiv 0710.4703): remember the way of the
    /// last hit in each set and probe its bank directly, skipping the
    /// smart-search array entirely on a memo hit; fall back to the
    /// serial ss-energy search when the memo misses.
    WayMemo,
}

impl Variants for SearchPolicy {
    const ALL: &'static [Self] = &[Self::SsPerformance, Self::SsEnergy, Self::WayMemo];
}

/// D-NUCA's one knob (the geometry is fixed at [`DnucaConfig::micro2003`]).
impl Knobs for SearchPolicy {
    fn visit_knobs(&mut self, v: &mut KnobVisitor<'_>) {
        let why = "all policies take the same transitions and keep the same memo table";
        v(Tag::Timing(why), self);
    }
}

/// D-NUCA configuration.
#[derive(Debug, Clone, Copy)]
pub struct DnucaConfig {
    /// Total capacity (8 MB in the evaluation).
    pub capacity: Capacity,
    /// Total associativity (16 in the evaluation).
    pub assoc: u32,
    /// Number of banks (128 in the evaluation).
    pub n_banks: usize,
    /// Bank positions per bank set (8 in the evaluation).
    pub n_positions: usize,
    /// Search policy.
    pub policy: SearchPolicy,
}

impl DnucaConfig {
    /// The paper's optimal D-NUCA: 8 MB, 16-way, 128 × 64-KB banks, 8
    /// positions per bank set.
    pub fn micro2003(policy: SearchPolicy) -> Self {
        DnucaConfig {
            capacity: Capacity::from_mib(8),
            assoc: 16,
            n_banks: 128,
            n_positions: 8,
            policy,
        }
    }
}

/// Compressed-NUCA configuration ([`DnucaCache::compressed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnucaConfig {
    /// Raw (uncompressed) capacity — 8 MB in the evaluation.
    pub capacity: Capacity,
    /// Raw associativity (full-frame ways per set; position 0 doubles its
    /// share into half-frame compressed ways).
    pub assoc: u32,
    /// Number of banks.
    pub n_banks: usize,
    /// Bank positions per bank set.
    pub n_positions: usize,
    /// Seed of the address-seeded compressibility model: it decides which
    /// blocks may occupy the fast compressed ways.
    pub comp_seed: u64,
    /// Decompression latency a compressed-way hit pays, in cycles.
    pub decomp_cycles: u64,
}

impl CnucaConfig {
    /// The evaluation configuration: D-NUCA's 8 MB / 16-way / 128-bank /
    /// 8-position geometry with the catalog's decompressor latency.
    pub fn micro2003() -> Self {
        CnucaConfig {
            capacity: Capacity::from_mib(8),
            assoc: 16,
            n_banks: 128,
            n_positions: 8,
            comp_seed: 0xC0DEC,
            decomp_cycles: catalog::decompressor_latency_cycles(),
        }
    }
}

simbase::knobs!(CnucaConfig {
    capacity: Tag::Arch,
    assoc: Tag::Arch,
    n_banks: Tag::Arch,
    n_positions: Tag::Arch,
    comp_seed: Tag::Arch,
    decomp_cycles: Tag::Timing("it only delays hit completion, never a transition"),
});

/// Slot flag: the way holds a block.
const VALID: u8 = 1 << 0;
/// Slot flag: the block has been written since it was filled.
const DIRTY: u8 = 1 << 1;

/// Cycles a bank is occupied by a full (tag + data) access.
const BANK_OCCUPANCY: u64 = 3;
/// Cycles a bank is occupied by a tag-only search.
const SEARCH_OCCUPANCY: u64 = 2;
/// Way-memo entry for a set with no remembered hit.
const MEMO_NONE: u32 = u32::MAX;

/// The compressed layout's position-0 model: which blocks fit a
/// half-frame way, and what a hit there costs.
#[derive(Debug, Clone, Copy)]
struct Compression {
    model: CompressModel,
    decomp_cycles: u64,
}

/// Telemetry names of one layout.
#[derive(Debug)]
struct TelNames {
    track: &'static str,
    swaps: &'static str,
    probes: &'static str,
}

const DNUCA_NAMES: TelNames = TelNames {
    track: "dnuca",
    swaps: "dnuca.bubble_swaps",
    probes: "dnuca.ss_probes",
};

const CNUCA_NAMES: TelNames = TelNames {
    track: "cnuca",
    swaps: "cnuca.bubble_swaps",
    probes: "cnuca.ss_probes",
};

/// The D-NUCA cache, in the uniform or the compressed way layout.
///
/// # Examples
///
/// ```
/// use nuca::{CnucaConfig, DnucaCache, DnucaConfig, SearchPolicy};
/// use simbase::{AccessKind, BlockAddr, Cycle};
///
/// let mut cache = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsEnergy));
/// // A cold miss is detected early by the smart-search array (no
/// // partial-tag match anywhere) and fills the slowest bank position.
/// let miss = cache.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
/// assert!(!miss.hit);
/// assert_eq!(cache.stats().early_misses.get(), 1);
///
/// let mut cnuca = DnucaCache::compressed(CnucaConfig::micro2003());
/// let miss = cnuca.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
/// assert!(!miss.hit);
/// let hit = cnuca.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::new(10_000));
/// assert!(hit.hit);
/// ```
#[derive(Debug)]
pub struct DnucaCache {
    config: DnucaConfig,
    geo: DnucaGeometry,
    /// `sets × n_ways` block indices; way `w` of a set lives at bank
    /// position [`Self::position_of_way`]. `u64::MAX` in empty slots.
    blocks: Vec<u64>,
    /// `sets × n_ways` VALID/DIRTY flags.
    flags: Vec<u8>,
    /// `sets × n_ways` recency clocks (larger = more recently used).
    last_use: Vec<u64>,
    sets: usize,
    set_mask: u64,
    /// Full-frame ways per bank position.
    ways_per_position: u32,
    /// `log2(ways_per_position)` when it is a power of two.
    wpp_shift: Option<u32>,
    /// Ways at position 0: `ways_per_position` in the uniform layout,
    /// twice that (half-frame ways) in the compressed one.
    fast_ways: u32,
    /// Logical ways per set: `fast_ways + (n_positions − 1)·wpp`.
    n_ways: u32,
    /// The compressed layout's model; `None` in the uniform layout.
    compression: Option<Compression>,
    /// Bank index by `bank_set * n_positions + position`.
    bank_lut: Vec<u32>,
    /// `n_bank_sets - 1` when the bank-set count is a power of two.
    bank_set_mask: Option<usize>,
    ss: SmartSearchArray,
    /// Per-set way of the last hit ([`MEMO_NONE`] when unknown). Part of
    /// the uniform layout's architectural state and maintained
    /// identically under every search policy (so all policies share
    /// warm-up checkpoints); only [`SearchPolicy::WayMemo`] consults it.
    /// The compressed layout keeps no memo table.
    memo: Option<Vec<u32>>,
    /// Per-bank busy-until times (bank contention; the network itself has
    /// infinite bandwidth per Section 4).
    bank_busy: Vec<Cycle>,
    memory: MainMemory,
    stats: DnucaStats,
    use_clock: u64,
    sink: TelemetrySink,
    names: &'static TelNames,
}

impl DnucaCache {
    /// Builds a D-NUCA cache from `config`, in the uniform way layout.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn new(config: DnucaConfig) -> Self {
        DnucaCache::with_layout(config, None)
    }

    /// Builds a compressed-NUCA cache from `config`: D-NUCA's bank array
    /// with `2·wpp` half-frame compressed ways at position 0, searched by
    /// multicast.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn compressed(config: CnucaConfig) -> Self {
        let banks = DnucaConfig {
            capacity: config.capacity,
            assoc: config.assoc,
            n_banks: config.n_banks,
            n_positions: config.n_positions,
            policy: SearchPolicy::SsPerformance,
        };
        let compression = Compression {
            model: CompressModel::new(config.comp_seed),
            decomp_cycles: config.decomp_cycles,
        };
        DnucaCache::with_layout(banks, Some(compression))
    }

    fn with_layout(config: DnucaConfig, compression: Option<Compression>) -> Self {
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
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n_bank_sets = geo.n_bank_sets();
        let mut bank_lut = Vec::with_capacity(n_bank_sets * config.n_positions);
        for bs in 0..n_bank_sets {
            for p in 0..config.n_positions {
                bank_lut.push(geo.bank_index(bs, p) as u32);
            }
        }
        let ways_per_position = config.assoc / config.n_positions as u32;
        let fast_ways = match compression {
            None => ways_per_position,
            Some(_) => 2 * ways_per_position,
        };
        let n_ways = fast_ways + (config.n_positions as u32 - 1) * ways_per_position;
        let n_slots = sets * n_ways as usize;
        DnucaCache {
            blocks: vec![u64::MAX; n_slots],
            flags: vec![0; n_slots],
            last_use: vec![0; n_slots],
            sets,
            set_mask: sets as u64 - 1,
            ways_per_position,
            wpp_shift: ways_per_position
                .is_power_of_two()
                .then(|| ways_per_position.trailing_zeros()),
            fast_ways,
            n_ways,
            bank_lut,
            bank_set_mask: n_bank_sets.is_power_of_two().then(|| n_bank_sets - 1),
            ss: SmartSearchArray::new(sets, n_ways),
            memo: compression.is_none().then(|| vec![MEMO_NONE; sets]),
            bank_busy: vec![Cycle::ZERO; config.n_banks],
            memory: MainMemory::micro2003(),
            stats: DnucaStats::new(config.n_positions, config.n_banks),
            names: match compression {
                None => &DNUCA_NAMES,
                Some(_) => &CNUCA_NAMES,
            },
            compression,
            geo,
            config,
            use_clock: 0,
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink, forwarded to the memory channel. Bubble
    /// swaps and smart-search probes are counted (under `dnuca.*`, or
    /// `cnuca.*` in the compressed layout); swap occupancy is emitted as
    /// a cycle-stamped span.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.memory.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DnucaStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents and bank states are kept).
    /// Used after warm-up, matching the paper's fast-forward methodology.
    /// The memory model's counters — including an attached L4's — reset
    /// with them, so a timed warm-up leaves nothing behind the barrier.
    pub fn reset_stats(&mut self) {
        self.stats = DnucaStats::new(self.config.n_positions, self.config.n_banks);
        self.memory.reset_counters();
    }

    /// The physical geometry.
    pub fn geometry(&self) -> &DnucaGeometry {
        &self.geo
    }

    /// Off-chip accesses (for energy accounting).
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    /// True if `block` may occupy a position-0 way: every block in the
    /// uniform layout, compressible ones in the compressed layout.
    #[inline]
    fn fits_fast_way(&self, block: BlockAddr) -> bool {
        self.compression.is_none_or(|c| c.model.is_compressible(block))
    }

    /// Fills every slot (and the smart-search array) with placeholder
    /// blocks, emulating the steady-state occupancy the paper reaches by
    /// fast-forwarding 5 billion instructions. Placeholders use a reserved
    /// address range and zero recency, so they are natural victims. The
    /// scan runs forward per set, so in the compressed layout position 0
    /// receives compressible placeholders.
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
                    if w >= self.fast_ways || self.fits_fast_way(b) {
                        break b;
                    }
                };
                let i = self.slot_idx(set, w);
                assert!(self.flags[i] & VALID == 0, "prefill on a non-empty cache");
                self.blocks[i] = block.index();
                self.flags[i] = VALID;
                self.last_use[i] = 0;
                self.ss.insert(block, w);
            }
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }

    #[inline]
    fn slot_idx(&self, set: usize, w: u32) -> usize {
        set * self.n_ways as usize + w as usize
    }

    #[inline]
    fn bank_set_of(&self, set: usize) -> usize {
        match self.bank_set_mask {
            Some(m) => set & m,
            None => set % self.geo.n_bank_sets(),
        }
    }

    /// The bank at position `p` of `set`'s bank set.
    #[inline]
    fn bank_at(&self, set: usize, p: usize) -> usize {
        self.bank_lut[self.bank_set_of(set) * self.config.n_positions + p] as usize
    }

    /// The bank holding way `w` of `set`.
    #[inline]
    fn bank_of(&self, set: usize, w: u32) -> usize {
        self.bank_at(set, self.position_of_way(w))
    }

    /// Bank position of logical way `w`. Position 0's extra compressed
    /// ways shift the full-frame ways up by `fast_ways − wpp`, which is
    /// zero in the uniform layout (`w / wpp`).
    #[inline]
    fn position_of_way(&self, w: u32) -> usize {
        let w = w.saturating_sub(self.fast_ways - self.ways_per_position);
        match self.wpp_shift {
            Some(s) => (w >> s) as usize,
            None => (w / self.ways_per_position) as usize,
        }
    }

    /// The ways at position `p` as `(first, count)`.
    #[inline]
    fn ways_at_position(&self, p: usize) -> (u32, u32) {
        if p == 0 {
            (0, self.fast_ways)
        } else {
            let extra = self.fast_ways - self.ways_per_position;
            (p as u32 * self.ways_per_position + extra, self.ways_per_position)
        }
    }

    /// True if way `w` of `set` holds a block (for tests).
    #[cfg(test)]
    fn valid_at(&self, set: usize, w: u32) -> bool {
        self.flags[self.slot_idx(set, w)] & VALID != 0
    }

    /// A full bank access starting no earlier than `t`: waits for the bank,
    /// occupies it, and returns the completion time.
    #[inline]
    fn bank_access(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + BANK_OCCUPANCY;
        self.stats.bank_accesses[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    /// A tag-only search of a bank (multicast leg or false-hit probe).
    #[inline]
    fn bank_search(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + SEARCH_OCCUPANCY;
        self.stats.bank_searches[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    /// Occupies two banks for a bubble swap (the network has infinite
    /// bandwidth, so the swap does not delay this access; the banks are
    /// simply busy for a read + write each).
    fn swap_banks(&mut self, bank_a: usize, bank_b: usize, t: Cycle) {
        for bank in [bank_a, bank_b] {
            let start = t.max(self.bank_busy[bank]);
            self.bank_busy[bank] = start + 2 * BANK_OCCUPANCY;
            self.stats.bank_accesses[bank] += 2; // read + write
        }
        self.stats.swaps.inc();
        if self.sink.enabled() {
            self.sink.count(self.names.swaps, 1);
            self.sink.span(self.names.track, "bubble_swap", t.raw(), 2 * BANK_OCCUPANCY);
        }
    }

    /// Way holding `block` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, block: BlockAddr) -> Option<u32> {
        let base = set * self.n_ways as usize;
        let target = block.index();
        for w in 0..self.n_ways {
            let i = base + w as usize;
            if self.flags[i] & VALID != 0 && self.blocks[i] == target {
                return Some(w);
            }
        }
        None
    }

    /// LRU way within the position `p` of `set` (the first way with the
    /// smallest `(valid, last_use)` key, so invalid slots win first —
    /// identical to a `min_by_key` over the position's ways).
    fn lru_way_at_position(&self, set: usize, p: usize) -> u32 {
        let (lo, n) = self.ways_at_position(p);
        let mut best = lo;
        let mut best_key = self.recency_key(set, lo);
        for w in lo + 1..lo + n {
            let key = self.recency_key(set, w);
            if key < best_key {
                best = w;
                best_key = key;
            }
        }
        best
    }

    #[inline]
    fn recency_key(&self, set: usize, w: u32) -> (bool, u64) {
        let i = self.slot_idx(set, w);
        (self.flags[i] & VALID != 0, self.last_use[i])
    }

    /// Architectural half of a promotion: swaps the slot metadata and the
    /// ss entry of way `w` with the LRU way of the target position, and
    /// returns the partner way — `None` when nothing moves. The target is
    /// the adjacent faster position (Section 2.2's "bubble
    /// replacement"), except in the compressed layout: a compressible
    /// block jumps straight to position 0, and an incompressible one at
    /// position 1 is refused the hop into the compressed ways.
    fn bubble_swap_slots(&mut self, set: usize, w: u32) -> Option<u32> {
        let p = self.position_of_way(w);
        if p == 0 {
            return None;
        }
        let target = match self.compression {
            Some(c) if c.model.is_compressible(self.block_at(set, w)) => 0,
            Some(_) if p == 1 => return None,
            _ => p - 1,
        };
        let other = self.lru_way_at_position(set, target);
        let (a, b) = (self.slot_idx(set, w), self.slot_idx(set, other));
        self.blocks.swap(a, b);
        self.flags.swap(a, b);
        self.last_use.swap(a, b);
        let moved = BlockAddr::from_index(self.blocks[b]);
        self.ss.swap(moved, w, other);
        Some(other)
    }

    /// The block in way `w` of `set` (`u64::MAX`'s address when empty).
    fn block_at(&self, set: usize, w: u32) -> BlockAddr {
        BlockAddr::from_index(self.blocks[self.slot_idx(set, w)])
    }

    /// Promotion with bank timing: the swap occupies both banks. Returns
    /// the way the promoted block ends up in (for the way memo); a block
    /// refused the hop from position 1 is counted.
    fn bubble_promote(&mut self, set: usize, w: u32, t: Cycle) -> u32 {
        match self.bubble_swap_slots(set, w) {
            Some(other) => {
                let bank_w = self.bank_of(set, w);
                let bank_o = self.bank_of(set, other);
                self.swap_banks(bank_w, bank_o, t);
                other
            }
            None => {
                // Only the compressed layout stops a promotion short of
                // position 0.
                if self.position_of_way(w) == 1 {
                    self.stats.promotion_refusals.inc();
                }
                w
            }
        }
    }

    /// Remembers `w` as the way of the last hit in `set`.
    #[inline]
    fn memoize(&mut self, set: usize, w: u32) {
        if let Some(memo) = &mut self.memo {
            memo[set] = w;
        }
    }

    /// Architectural half of a miss: evict the slowest-way victim (keeping
    /// the ss array in sync) and install `block` there, raw in either
    /// layout. Returns the dirty victim block, if any — write-back and
    /// bank/memory timing are the timed caller's business.
    fn install_on_miss(&mut self, block: BlockAddr, kind: AccessKind) -> (u32, Option<BlockAddr>) {
        let set = self.set_of(block);
        let slowest = self.config.n_positions - 1;
        let victim_way = self.lru_way_at_position(set, slowest);
        let vi = self.slot_idx(set, victim_way);
        let mut victim_dirty = None;
        if self.flags[vi] & VALID != 0 {
            let victim_block = BlockAddr::from_index(self.blocks[vi]);
            self.ss.invalidate(victim_block, victim_way);
            if self.flags[vi] & DIRTY != 0 {
                victim_dirty = Some(victim_block);
            }
        }
        self.blocks[vi] = block.index();
        self.flags[vi] = VALID | if kind.is_write() { DIRTY } else { 0 };
        self.last_use[vi] = self.use_clock;
        self.ss.insert(block, victim_way);
        // Eviction invalidates a memo entry pointing at the victim way;
        // the fill itself is not a hit and is not memoized.
        if let Some(memo) = &mut self.memo {
            if memo[set] == victim_way {
                memo[set] = MEMO_NONE;
            }
        }
        (victim_way, victim_dirty)
    }

    /// Handles a miss: fetch from memory and place in the slowest bank,
    /// evicting the block in the slowest way if necessary.
    fn handle_miss(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        detect_at: Cycle,
    ) -> LowerOutcome {
        self.stats.misses.inc();
        self.stats.memory_reads.inc();
        let mem_done = self.memory.fill_block(block, BLOCK_BYTES, detect_at);
        let set = self.set_of(block);
        let (victim_way, victim_dirty) = self.install_on_miss(block, kind);
        if let Some(victim) = victim_dirty {
            self.stats.writebacks.inc();
            let _ = self.memory.writeback_block(victim, BLOCK_BYTES, mem_done);
        }
        // The fill is a full access to the slowest bank.
        let bank = self.bank_of(set, victim_way);
        let _ = self.bank_access(bank, mem_done);
        LowerOutcome {
            complete_at: mem_done,
            hit: false,
        }
    }

    /// Marks way `w` of `set` touched by this access (recency + dirtying).
    #[inline]
    fn touch_hit(&mut self, set: usize, w: u32, kind: AccessKind) {
        let i = self.slot_idx(set, w);
        self.last_use[i] = self.use_clock;
        if kind.is_write() {
            self.flags[i] |= DIRTY;
        }
    }

    /// A demand hit on way `w` at position `p` of `set`, its bank access
    /// starting no earlier than `t`: records the position, touches the
    /// way, accesses its bank, decompresses a compressed position-0
    /// block, promotes, and memoizes the way the block ends up in.
    #[inline]
    fn serve_hit(
        &mut self,
        set: usize,
        w: u32,
        p: usize,
        kind: AccessKind,
        t: Cycle,
    ) -> LowerOutcome {
        self.stats.position_hits.record(p);
        self.touch_hit(set, w, kind);
        let bank = self.bank_at(set, p);
        let mut done = self.bank_access(bank, t);
        if let (0, Some(c)) = (p, self.compression) {
            // Position-0 residents are stored compressed; the hit pays
            // the decompressor before data is usable.
            self.stats.decompressions.inc();
            done += c.decomp_cycles;
        }
        let fw = self.bubble_promote(set, w, done);
        self.memoize(set, fw);
        LowerOutcome {
            complete_at: done,
            hit: true,
        }
    }

    /// Warm-up access: applies every architectural effect of
    /// [`Self::access_block`] (recency, dirtying, promotions, slowest-way
    /// eviction, ss-array and memo maintenance) while skipping bank
    /// contention, memory timing, and statistics. The effects are
    /// identical under every search policy — search order only changes
    /// *when* banks are probed, never what the probe finds.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        self.use_clock += 1;
        let set = self.set_of(block);
        match self.find(set, block) {
            Some(w) => {
                self.touch_hit(set, w, kind);
                let other = self.bubble_swap_slots(set, w);
                self.memoize(set, other.unwrap_or(w));
            }
            None => {
                self.memory.warm_fill(block);
                let (_, victim_dirty) = self.install_on_miss(block, kind);
                if let Some(victim) = victim_dirty {
                    self.memory.warm_writeback(victim);
                }
            }
        }
    }

    /// Clears all timing residue (bank busy-until times, memory channel)
    /// without touching cache contents; the drain barrier at the stats
    /// boundary.
    pub fn drain_timing(&mut self) {
        self.bank_busy.fill(Cycle::ZERO);
        self.memory.drain_timing();
    }

    /// Serialises the architectural state: slot metadata, the ss array,
    /// the recency clock, and the uniform layout's memo table. The
    /// compressibility model is pure (its seed lives in the config), so
    /// the compressed layout stores nothing more.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(self.use_clock);
        e.put_u64_slice(&self.blocks);
        e.put_u8_slice(&self.flags);
        e.put_u64_slice(&self.last_use);
        self.ss.save_state(e);
        if let Some(memo) = &self.memo {
            e.put_u32_slice(memo);
        }
        self.memory.save_l4_state(e);
    }

    /// Restores state written by [`Self::save_state`] into a cache of the
    /// same geometry and layout.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on a geometry mismatch or a
    /// truncated payload.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        self.use_clock = d.u64()?;
        d.u64_slice_into(&mut self.blocks)?;
        d.u8_slice_into(&mut self.flags)?;
        d.u64_slice_into(&mut self.last_use)?;
        self.ss.load_state(d)?;
        if let Some(memo) = &mut self.memo {
            d.u32_slice_into(memo)?;
        }
        self.memory.load_l4_state(d)
    }

    /// Demand access with the configured search policy (the compressed
    /// layout always searches by multicast).
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        let set = self.set_of(block);
        let ss_done = now + catalog::smart_search_latency_cycles();
        let candidates = self.ss.lookup_mask(block);
        // The resident way and its position, if the access hits.
        let hit = self.find(set, block).map(|w| (w, self.position_of_way(w)));

        match self.config.policy {
            SearchPolicy::SsPerformance => {
                self.stats.ss_accesses.inc();
                self.sink.count(self.names.probes, 1);
                // Multicast: every bank position of this set is searched.
                let mut slowest_search = now;
                for p in 0..self.config.n_positions {
                    if matches!(hit, Some((_, hp)) if hp == p) {
                        continue; // the hit bank does a full access below
                    }
                    let done = self.bank_search(self.bank_at(set, p), now);
                    slowest_search = slowest_search.max(done);
                }
                match hit {
                    Some((w, p)) => self.serve_hit(set, w, p, kind, now),
                    None => {
                        // Early miss if the ss array had no candidates;
                        // otherwise the (false) candidates must be ruled
                        // out by the multicast search.
                        let detect_at = if candidates == 0 {
                            self.stats.early_misses.inc();
                            ss_done
                        } else {
                            self.stats.false_hits.add(candidates.count_ones() as u64);
                            slowest_search
                        };
                        self.handle_miss(block, kind, detect_at)
                    }
                }
            }
            SearchPolicy::SsEnergy => {
                self.stats.ss_accesses.inc();
                self.sink.count(self.names.probes, 1);
                // Probe only candidate positions, nearest first, serially.
                self.serial_search(block, kind, candidates, hit, None, ss_done)
            }
            SearchPolicy::WayMemo => {
                self.stats.memo_lookups.inc();
                let mut t = now + catalog::way_memo_latency_cycles();
                let memoized = self.memo.as_ref().map_or(MEMO_NONE, |memo| memo[set]);
                let memo_position = (memoized != MEMO_NONE).then(|| self.position_of_way(memoized));
                if let Some(mp) = memo_position {
                    // Probe the memoized position directly with one full
                    // (tag + data) bank access. On a memo hit the
                    // smart-search array is never consulted — that is the
                    // whole energy win of way memoization.
                    if let Some((w, hp)) = hit {
                        if hp == mp {
                            self.stats.memo_hits.inc();
                            return self.serve_hit(set, w, mp, kind, t);
                        }
                    }
                    // Memo miss: the speculative full access was wasted
                    // energy and time; fall back to the smart search.
                    t = self.bank_access(self.bank_at(set, mp), t);
                }
                // Serial nearest-first candidate search (as ss-energy),
                // skipping the position the memo probe already ruled out.
                // The ss array was read in parallel with the memo probe.
                self.stats.ss_accesses.inc();
                self.sink.count(self.names.probes, 1);
                self.serial_search(block, kind, candidates, hit, memo_position, t.max(ss_done))
            }
        }
    }

    /// The serial nearest-first search of ss-energy and of the way memo's
    /// fallback, starting at `t`: tag-searches each position holding a
    /// partial-tag candidate (except `skip`) until the `hit` position,
    /// whose hit it serves, or past the last candidate, the miss.
    fn serial_search(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        candidates: u64,
        hit: Option<(u32, usize)>,
        skip: Option<usize>,
        mut t: Cycle,
    ) -> LowerOutcome {
        let set = self.set_of(block);
        let mut position_mask = 0u64;
        let mut m = candidates;
        while m != 0 {
            position_mask |= 1 << self.position_of_way(m.trailing_zeros());
            m &= m - 1;
        }
        for p in 0..self.config.n_positions {
            if position_mask >> p & 1 == 0 || skip == Some(p) {
                continue;
            }
            if let Some((w, hp)) = hit {
                if hp == p {
                    return self.serve_hit(set, w, p, kind, t);
                }
            }
            // False hit: the partial tag matched but the block is not
            // here.
            self.stats.false_hits.inc();
            t = self.bank_search(self.bank_at(set, p), t);
        }
        if candidates == 0 {
            self.stats.early_misses.inc();
        }
        self.handle_miss(block, kind, t)
    }
}

impl LowerCache for DnucaCache {
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

impl memsys::org::Organization for DnucaCache {
    fn prefill(&mut self) {
        DnucaCache::prefill(self);
    }

    fn reset_stats(&mut self) {
        DnucaCache::reset_stats(self);
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, _snap_every: u64) {
        DnucaCache::set_telemetry(self, sink.clone());
    }

    fn drain_timing(&mut self) {
        DnucaCache::drain_timing(self);
    }

    fn save_state(&self, e: &mut Encoder) {
        DnucaCache::save_state(self, e);
    }

    fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        DnucaCache::load_state(self, d)
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
            group_hits: (0..self.geometry().n_bank_positions())
                .map(|p| s.position_hits.count(p))
                .collect(),
            dgroup_accesses: s.total_bank_accesses(),
            swaps: s.swaps.get(),
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

    fn cache(policy: SearchPolicy) -> DnucaCache {
        DnucaCache::new(DnucaConfig::micro2003(policy))
    }

    fn compressed() -> DnucaCache {
        DnucaCache::compressed(CnucaConfig::micro2003())
    }

    /// First block index ≥ `from` whose compressibility matches `want`.
    fn block_with(c: &DnucaCache, from: u64, want: bool) -> BlockAddr {
        (from..from + 10_000)
            .map(BlockAddr::from_index)
            .find(|&b| c.fits_fast_way(b) == want)
            .expect("the model produces both classes")
    }

    fn hammer(c: &mut DnucaCache, b: BlockAddr, n: u32) {
        let mut t = Cycle::ZERO;
        for _ in 0..n {
            c.access_block(b, AccessKind::Read, t);
            t += 10_000;
        }
    }

    #[test]
    fn new_blocks_land_in_the_slowest_position() {
        let mut c = cache(SearchPolicy::SsPerformance);
        c.access_block(blk(1), AccessKind::Read, Cycle::ZERO);
        let hit = c.access_block(blk(1), AccessKind::Read, Cycle::new(10_000));
        assert!(hit.hit);
        assert_eq!(c.stats().position_hits.count(7), 1, "first re-touch is slow");
    }

    #[test]
    fn repeated_hits_bubble_toward_the_fastest_position() {
        let mut c = cache(SearchPolicy::SsPerformance);
        let mut t = Cycle::ZERO;
        c.access_block(blk(1), AccessKind::Read, t);
        // 8 positions: 7 promotions bring the block to position 0.
        for _ in 0..7 {
            t += 10_000;
            let out = c.access_block(blk(1), AccessKind::Read, t);
            assert!(out.hit);
        }
        t += 10_000;
        let out = c.access_block(blk(1), AccessKind::Read, t);
        assert!(out.hit);
        assert_eq!(c.stats().position_hits.count(0), 1);
        assert_eq!(c.stats().swaps.get(), 7);
    }

    #[test]
    fn fast_hits_are_faster_than_slow_hits() {
        let mut c = cache(SearchPolicy::SsPerformance);
        let mut t = Cycle::ZERO;
        c.access_block(blk(1), AccessKind::Read, t);
        t += 10_000;
        let slow = c.access_block(blk(1), AccessKind::Read, t);
        let slow_lat = slow.complete_at - t;
        for _ in 0..7 {
            t += 10_000;
            c.access_block(blk(1), AccessKind::Read, t);
        }
        t += 10_000;
        let fast = c.access_block(blk(1), AccessKind::Read, t);
        let fast_lat = fast.complete_at - t;
        assert!(fast_lat < slow_lat / 2, "position 0 ({fast_lat}) vs position 7 ({slow_lat})");
    }

    #[test]
    fn hot_set_cannot_hold_more_than_two_fast_ways() {
        // The coupling problem NuRAPID fixes: only ways_per_position (2)
        // blocks of a set can be at position 0.
        let mut c = cache(SearchPolicy::SsPerformance);
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        // Heavily reuse 8 blocks of one set so they all bubble up.
        for _ in 0..20 {
            for b in 0..8u64 {
                let out = c.access_block(blk(1 + b * sets), AccessKind::Read, t);
                t = out.complete_at + 100;
            }
        }
        // Count blocks now resident at position 0 of that set.
        let set = c.set_of(blk(1));
        let fast = (0..2u32).filter(|&w| c.valid_at(set, w)).count();
        assert!(fast <= 2);
        // And the hits must be spread over positions, not all fast.
        let f0 = c.stats().position_access_frac(0);
        assert!(f0 < 0.5, "only {f0} of accesses can be fast in a hot set");
    }

    #[test]
    fn early_miss_detection_with_ss_array() {
        let mut c = cache(SearchPolicy::SsPerformance);
        let out = c.access_block(blk(42), AccessKind::Read, Cycle::ZERO);
        assert!(!out.hit);
        assert_eq!(c.stats().early_misses.get(), 1);
        // Miss initiated at ss latency (2) + memory (194).
        assert_eq!(out.complete_at, Cycle::new(2 + 194));
    }

    #[test]
    fn ss_energy_touches_fewer_banks_than_ss_performance() {
        let run = |policy| {
            let mut c = cache(policy);
            let mut t = Cycle::ZERO;
            for i in 0..2000u64 {
                let out = c.access_block(blk(i % 200), AccessKind::Read, t);
                t = out.complete_at + 50;
            }
            c.stats().total_bank_accesses()
        };
        let perf = run(SearchPolicy::SsPerformance);
        let energy = run(SearchPolicy::SsEnergy);
        assert!(
            energy * 2 < perf,
            "ss-energy {energy} must use far fewer bank accesses than ss-performance {perf}"
        );
    }

    #[test]
    fn miss_rates_are_policy_independent() {
        let run = |policy| {
            let mut c = cache(policy);
            let mut t = Cycle::ZERO;
            for i in 0..20_000u64 {
                let out = c.access_block(blk((i * 37) % 70_000), AccessKind::Read, t);
                t = out.complete_at + 10;
            }
            c.stats().misses.get()
        };
        assert_eq!(run(SearchPolicy::SsPerformance), run(SearchPolicy::SsEnergy));
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut c = cache(SearchPolicy::SsPerformance);
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        // Write a block; it sits at the slowest position. 16 more fills to
        // the same set cycle through both slowest ways and evict it.
        c.access_block(blk(1), AccessKind::Write, t);
        for i in 1..17u64 {
            t += 10_000;
            c.access_block(blk(1 + i * sets), AccessKind::Read, t);
        }
        assert!(c.stats().writebacks.get() >= 1);
    }

    #[test]
    fn eviction_takes_the_slowest_way_not_the_set_lru() {
        // Paper Section 2.2: "D-NUCA evicts the block in the slowest way
        // of the set. The evicted block may not be the set's LRU block."
        let mut c = cache(SearchPolicy::SsPerformance);
        let sets = c.sets as u64;
        let mut t = Cycle::ZERO;
        // Block A bubbles up to position 6 via hits; block B sits at 7.
        c.access_block(blk(1), AccessKind::Read, t);
        t += 10_000;
        c.access_block(blk(1), AccessKind::Read, t); // A at position 6 now
        t += 10_000;
        c.access_block(blk(1 + sets), AccessKind::Read, t); // B at 7 (way LRU order)
                                                            // B was touched *after* A, so A is the set LRU; but the next two
                                                            // misses must evict from position 7 (B's position), not A.
        t += 10_000;
        c.access_block(blk(1 + 2 * sets), AccessKind::Read, t);
        t += 10_000;
        c.access_block(blk(1 + 3 * sets), AccessKind::Read, t);
        t += 10_000;
        // A must still be resident.
        let out = c.access_block(blk(1), AccessKind::Read, t);
        assert!(out.hit, "promoted block must survive slowest-way eviction");
    }

    #[test]
    fn bank_contention_delays_back_to_back_accesses() {
        let mut c = cache(SearchPolicy::SsPerformance);
        // Two cold misses to the same bank set at the same instant: the
        // multicast searches contend on the banks.
        let sets = c.sets as u64;
        c.access_block(blk(1), AccessKind::Read, Cycle::ZERO);
        c.access_block(blk(1 + sets), AccessKind::Read, Cycle::ZERO);
        // Warm hits, same position/bank, issued simultaneously.
        let t = Cycle::new(50_000);
        let a = c.access_block(blk(1), AccessKind::Read, t);
        let b = c.access_block(blk(1 + sets), AccessKind::Read, t);
        assert!(b.complete_at > a.complete_at, "second access must queue");
    }

    #[test]
    fn lower_cache_interface() {
        let mut c = cache(SearchPolicy::SsEnergy);
        let _ = LowerCache::access(&mut c, blk(9), AccessKind::Read, Cycle::ZERO);
        assert_eq!(c.accesses(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.block_bytes(), 128);
    }

    fn assert_same_arch_state(a: &DnucaCache, b: &DnucaCache) {
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.flags, b.flags);
        assert_eq!(a.last_use, b.last_use);
        assert_eq!(a.memo, b.memo);
        assert_eq!(a.use_clock, b.use_clock);
        for i in 0..2_000u64 {
            let probe = blk(i * 97);
            assert_eq!(
                a.ss.lookup_mask(probe),
                b.ss.lookup_mask(probe),
                "ss arrays diverged at probe {i}"
            );
        }
    }

    #[test]
    fn warm_access_matches_timed_architectural_state() {
        for layout in ["ss-performance", "ss-energy", "way-memo", "compressed"] {
            let build = || match layout {
                "ss-performance" => cache(SearchPolicy::SsPerformance),
                "ss-energy" => cache(SearchPolicy::SsEnergy),
                "way-memo" => cache(SearchPolicy::WayMemo),
                _ => compressed(),
            };
            let mut timed = build();
            let mut warm = build();
            let sets = timed.sets as u64;
            let mut t = Cycle::ZERO;
            for i in 0..30_000u64 {
                // Strided misses, hot-set reuse (drives bubble swaps), and
                // writes (drives dirty evictions).
                let b = match i % 5 {
                    0 => blk((i * 37) % 70_000),
                    1 => blk(1 + (i % 16) * sets),
                    _ => blk((i * 13) % 9_000),
                };
                let kind = if i % 7 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = timed.access_block(b, kind, t);
                warm.warm_access_block(b, kind);
                t = out.complete_at + (i % 40);
            }
            assert_same_arch_state(&timed, &warm);
            // Replay: both must serve the same hit stream from here.
            warm.drain_timing();
            let mut t = Cycle::ZERO;
            for i in 0..5_000u64 {
                let b = blk((i * 29) % 40_000);
                let o1 = timed.access_block(b, AccessKind::Read, t);
                let o2 = warm.access_block(b, AccessKind::Read, t);
                assert_eq!(o1.hit, o2.hit, "replay access {i} diverged ({layout})");
                t = o1.complete_at + 10;
            }
        }
    }

    #[test]
    fn state_roundtrips_through_snapshot() {
        let mut c = cache(SearchPolicy::SsPerformance);
        let mut t = Cycle::ZERO;
        for i in 0..20_000u64 {
            let b = blk((i * 37 + i % 3) % 60_000);
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = c.access_block(b, kind, t);
            t = out.complete_at + 5;
        }
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();

        // Restores into either policy: the snapshot is timing-free.
        let mut restored = cache(SearchPolicy::SsEnergy);
        let mut d = Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        d.finish().expect("no trailing bytes");
        assert_same_arch_state(&c, &restored);

        c.drain_timing();
        let mut t = Cycle::ZERO;
        for i in 0..10_000u64 {
            let b = blk((i * 53) % 50_000);
            let o1 = c.access_block(b, AccessKind::Read, t);
            let o2 = restored.access_block(b, AccessKind::Read, t);
            assert_eq!(o1.hit, o2.hit, "replay access {i} diverged");
            t = o1.complete_at + 10;
        }
    }

    #[test]
    fn load_rejects_geometry_mismatch() {
        let c = cache(SearchPolicy::SsPerformance);
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut wrong = DnucaCache::new(DnucaConfig {
            capacity: Capacity::from_mib(4),
            ..DnucaConfig::micro2003(SearchPolicy::SsPerformance)
        });
        let mut d = Decoder::new(&bytes);
        assert!(wrong.load_state(&mut d).is_err());

        let small = DnucaCache::compressed(CnucaConfig {
            capacity: Capacity::from_mib(1),
            assoc: 16,
            n_banks: 16,
            n_positions: 8,
            comp_seed: 1,
            decomp_cycles: 2,
        });
        let mut e = Encoder::new();
        small.save_state(&mut e);
        let bytes = e.into_bytes();
        assert!(compressed().load_state(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn eighteen_logical_ways_in_the_compressed_layout() {
        let c = compressed();
        assert_eq!(c.n_ways, 18);
        assert_eq!(c.position_of_way(0), 0);
        assert_eq!(c.position_of_way(3), 0);
        assert_eq!(c.position_of_way(4), 1);
        assert_eq!(c.position_of_way(17), 7);
        assert_eq!(c.ways_at_position(0), (0, 4));
        assert_eq!(c.ways_at_position(1), (4, 2));
        assert_eq!(c.ways_at_position(7), (16, 2));
        let u = cache(SearchPolicy::SsPerformance);
        assert_eq!(u.n_ways, 16);
        assert_eq!((u.position_of_way(1), u.position_of_way(2)), (0, 1));
        assert_eq!(u.ways_at_position(7), (14, 2));
    }

    #[test]
    fn compressible_blocks_jump_straight_to_position_zero() {
        let mut c = compressed();
        let b = block_with(&c, 0, true);
        // Fill at the slowest position, then one distance-associative
        // promotion: the second access hits at position 7, every later
        // one at position 0.
        hammer(&mut c, b, 4);
        assert_eq!(c.stats().position_hits.count(7), 1);
        assert_eq!(c.stats().position_hits.count(0), 2);
        assert_eq!(c.stats().decompressions.get(), 2);
        assert_eq!(c.stats().promotion_refusals.get(), 0);
    }

    #[test]
    fn incompressible_blocks_are_refused_at_position_one() {
        let mut c = compressed();
        let b = block_with(&c, 0, false);
        hammer(&mut c, b, 12);
        assert_eq!(c.stats().position_hits.count(0), 0, "raw block in p0");
        assert!(c.stats().position_hits.count(1) >= 1, "never reached p1");
        assert!(c.stats().promotion_refusals.get() >= 1);
        assert_eq!(c.stats().decompressions.get(), 0);
    }

    #[test]
    fn compressed_hits_pay_the_decompressor() {
        let mut c = compressed();
        let b = block_with(&c, 0, true);
        hammer(&mut c, b, 9); // resident at position 0 by now
        let before = c.stats().decompressions.get();
        let out = c.access_block(b, AccessKind::Read, Cycle::new(1_000_000));
        assert!(out.hit);
        assert_eq!(c.stats().decompressions.get(), before + 1);
        let fast_bank = c.bank_of(c.set_of(b), 0);
        let expected = Cycle::new(1_000_000)
            + c.geometry().bank_latency_cycles(fast_bank)
            + CnucaConfig::micro2003().decomp_cycles;
        assert_eq!(out.complete_at, expected);
    }

    #[test]
    fn compressed_snapshot_round_trip_is_exact() {
        let mut c = compressed();
        c.prefill();
        let mut t = Cycle::ZERO;
        for i in 0..5_000u64 {
            c.access_block(blk((i * 31) % 4000), AccessKind::Read, t);
            t += 100;
        }
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = compressed();
        let mut d = Decoder::new(&bytes);
        restored.load_state(&mut d).expect("round trip");
        d.finish().expect("no memo table in the compressed payload");
        restored.drain_timing();
        c.drain_timing();
        // Continue both identically: outcomes must match exactly.
        for i in 0..2_000u64 {
            let b = blk((i * 17) % 4000);
            let a = c.access_block(b, AccessKind::Read, t);
            let r = restored.access_block(b, AccessKind::Read, t);
            assert_eq!(a, r, "diverged at access {i}");
            t += 100;
        }
    }

    #[test]
    fn prefill_puts_compressible_placeholders_in_fast_ways() {
        let mut c = compressed();
        c.prefill();
        for set in [0usize, 1, 777, 4095] {
            for w in 0..c.fast_ways {
                assert!(c.fits_fast_way(c.block_at(set, w)), "raw placeholder in p0");
            }
        }
    }
}
