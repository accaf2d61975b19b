//! Compressed NUCA: a D-NUCA variant that packs compressed blocks into
//! the fastest bank position (after the compressed-NUCA line of work
//! surveyed in arXiv 2201.00774).
//!
//! The geometry is the paper's D-NUCA — 8 MB, 128 banks, 8 bank positions
//! per bank set, two full-frame ways per position — except position 0,
//! whose two frames are split into **four half-frame compressed ways**.
//! Only blocks the [`crate::compress::CompressModel`] classifies as
//! compressible (≤ 64 B of a 128-B frame) may be promoted into them, and
//! every hit there pays a fixed decompression latency. The effect the
//! organization is after: more distinct blocks resident in the fastest
//! d-group than the uncompressed baseline can hold, at a small
//! decompression tax — so its position-0 residency should beat D-NUCA's
//! on the same trace.
//!
//! Search is multicast (as D-NUCA's ss-performance policy): the
//! smart-search array initiates misses early while every position of the
//! set is probed in parallel. Promotion is **distance-associative** for
//! compressible blocks — one hit swaps the block straight into the LRU
//! compressed way of position 0, however far out it sits — and bubble
//! promotion with a position-1 floor for incompressible blocks; misses
//! install raw into the slowest position, exactly as D-NUCA.
//!
//! The hot path keeps the flat-arena idioms of [`crate::cache`]:
//! struct-of-arrays slot metadata, a precomputed set → bank table, and
//! bitmask smart-search candidates — no heap allocation per access.

use crate::compress::CompressModel;
use crate::smart_search::SmartSearchArray;
use crate::stats::CnucaStats;
use cachemodel::catalog::{self, DnucaGeometry, BLOCK_BYTES};
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::memory::MainMemory;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simtel::TelemetrySink;

/// Compressed-NUCA configuration.
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
    /// Seed of the address-seeded compressibility model. Architectural:
    /// it decides which blocks may occupy the fast compressed ways.
    pub comp_seed: u64,
    /// Decompression latency a compressed-way hit pays, in cycles.
    /// Timing-only: it never changes an architectural transition.
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

/// Slot flag: the way holds a block.
const VALID: u8 = 1 << 0;
/// Slot flag: the block has been written since it was filled.
const DIRTY: u8 = 1 << 1;
/// Cycles a bank is occupied by a full (tag + data) access.
const BANK_OCCUPANCY: u64 = 3;
/// Cycles a bank is occupied by a tag-only search.
const SEARCH_OCCUPANCY: u64 = 2;

/// The compressed-NUCA cache.
///
/// # Examples
///
/// ```
/// use nuca::compressed::{CnucaConfig, CompressedNucaCache};
/// use simbase::{AccessKind, BlockAddr, Cycle};
///
/// let mut cache = CompressedNucaCache::new(CnucaConfig::micro2003());
/// let miss = cache.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
/// assert!(!miss.hit);
/// let hit = cache.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::new(10_000));
/// assert!(hit.hit);
/// ```
#[derive(Debug)]
pub struct CompressedNucaCache {
    config: CnucaConfig,
    geo: DnucaGeometry,
    model: CompressModel,
    /// `sets × ways()` block indices (`u64::MAX` in empty slots). Ways
    /// `0..2·wpp` are the half-frame compressed ways of position 0; way
    /// `2·wpp + k` is full-frame way `k` of positions 1….
    blocks: Vec<u64>,
    /// `sets × ways()` VALID/DIRTY flags.
    flags: Vec<u8>,
    /// `sets × ways()` recency clocks.
    last_use: Vec<u64>,
    sets: usize,
    set_mask: u64,
    /// Full-frame ways per position (position 0 holds twice as many
    /// half-frame ways).
    ways_per_position: u32,
    /// Total logical ways per set: `2·wpp + (n_positions − 1)·wpp`.
    n_ways: u32,
    /// Bank index by `bank_set * n_positions + position`.
    bank_lut: Vec<u32>,
    bank_set_mask: Option<usize>,
    ss: SmartSearchArray,
    /// Per-bank busy-until times.
    bank_busy: Vec<Cycle>,
    memory: MainMemory,
    stats: CnucaStats,
    use_clock: u64,
    sink: TelemetrySink,
}

impl CompressedNucaCache {
    /// Builds a compressed-NUCA cache from `config`.
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
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n_bank_sets = geo.n_bank_sets();
        let mut bank_lut = Vec::with_capacity(n_bank_sets * config.n_positions);
        for bs in 0..n_bank_sets {
            for p in 0..config.n_positions {
                bank_lut.push(geo.bank_index(bs, p) as u32);
            }
        }
        let wpp = config.assoc / config.n_positions as u32;
        let n_ways = 2 * wpp + (config.n_positions as u32 - 1) * wpp;
        assert!(n_ways <= 64, "smart-search masks are 64-bit");
        let n_slots = sets * n_ways as usize;
        CompressedNucaCache {
            blocks: vec![u64::MAX; n_slots],
            flags: vec![0; n_slots],
            last_use: vec![0; n_slots],
            sets,
            set_mask: sets as u64 - 1,
            ways_per_position: wpp,
            n_ways,
            bank_lut,
            bank_set_mask: n_bank_sets.is_power_of_two().then(|| n_bank_sets - 1),
            ss: SmartSearchArray::new(sets, n_ways),
            bank_busy: vec![Cycle::ZERO; config.n_banks],
            memory: MainMemory::micro2003(),
            stats: CnucaStats::new(config.n_positions, config.n_banks),
            model: CompressModel::new(config.comp_seed),
            geo,
            config,
            use_clock: 0,
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink, forwarded to the memory channel.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.memory.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CnucaStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents and bank states are kept).
    /// The memory model's counters — including an attached L4's — reset
    /// with them, so a timed warm-up leaves nothing behind the barrier.
    pub fn reset_stats(&mut self) {
        self.stats = CnucaStats::new(self.config.n_positions, self.config.n_banks);
        self.memory.reset_counters();
    }

    /// The physical geometry.
    pub fn geometry(&self) -> &DnucaGeometry {
        &self.geo
    }

    /// The compressibility model.
    pub fn model(&self) -> &CompressModel {
        &self.model
    }

    /// Logical ways per set (compressed half-frame ways included).
    pub fn ways(&self) -> u32 {
        self.n_ways
    }

    /// Off-chip accesses (for energy accounting).
    pub fn memory_accesses(&self) -> u64 {
        self.memory.accesses()
    }

    /// Number of half-frame compressed ways per set (the position-0 ways).
    #[inline]
    fn fast_ways(&self) -> u32 {
        2 * self.ways_per_position
    }

    /// Fills every slot (and the smart-search array) with placeholder
    /// blocks from the reserved range, scanning forward per set so the
    /// compressed position-0 ways receive compressible placeholders.
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

    /// Bank position of logical way `w`: the first `2·wpp` ways are the
    /// compressed position 0, the rest map `wpp` per position.
    #[inline]
    fn position_of_way(&self, w: u32) -> usize {
        if w < self.fast_ways() {
            0
        } else {
            1 + ((w - self.fast_ways()) / self.ways_per_position) as usize
        }
    }

    /// The ways of `set` at position `p` as `(first, count)`.
    #[inline]
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

    /// The bank holding way `w` of `set`.
    #[inline]
    fn bank_of(&self, set: usize, w: u32) -> usize {
        let bank_set = self.bank_set_of(set);
        let position = self.position_of_way(w);
        self.bank_lut[bank_set * self.config.n_positions + position] as usize
    }

    /// A full bank access starting no earlier than `t`.
    #[inline]
    fn bank_access(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + BANK_OCCUPANCY;
        self.stats.bank_accesses[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    /// A tag-only search of a bank.
    #[inline]
    fn bank_search(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.bank_busy[bank]);
        self.bank_busy[bank] = start + SEARCH_OCCUPANCY;
        self.stats.bank_searches[bank] += 1;
        start + self.geo.bank_latency_cycles(bank)
    }

    /// Occupies two banks for a bubble swap.
    fn swap_banks(&mut self, bank_a: usize, bank_b: usize, t: Cycle) {
        for bank in [bank_a, bank_b] {
            let start = t.max(self.bank_busy[bank]);
            self.bank_busy[bank] = start + 2 * BANK_OCCUPANCY;
            self.stats.bank_accesses[bank] += 2; // read + write
        }
        self.stats.swaps.inc();
        if self.sink.enabled() {
            self.sink.count("cnuca.bubble_swaps", 1);
            self.sink.span("cnuca", "bubble_swap", t.raw(), 2 * BANK_OCCUPANCY);
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

    /// LRU way within position `p` of `set` (invalid slots win first).
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

    /// Architectural half of a promotion. Compressible blocks promote
    /// **distance-associatively**: a hit anywhere swaps the block
    /// straight into the LRU compressed way of position 0 (placement is
    /// decoupled from the tag position, as in NuRAPID). Incompressible
    /// blocks bubble one hop toward position 1 and are refused the final
    /// hop into the compressed ways. Returns the partner way when a swap
    /// happened.
    fn bubble_swap_slots(&mut self, set: usize, w: u32) -> Option<u32> {
        let p = self.position_of_way(w);
        if p == 0 {
            return None;
        }
        let block = BlockAddr::from_index(self.blocks[self.slot_idx(set, w)]);
        let target = if self.model.is_compressible(block) {
            0
        } else if p == 1 {
            return None;
        } else {
            p - 1
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

    /// Promotion with bank timing; counts refused position-0 hops.
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

    /// Architectural half of a miss: evict the slowest-position LRU way
    /// and install `block` there (raw — compression only buys fast-way
    /// residency, never extra slow-way capacity).
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
        (victim_way, victim_dirty)
    }

    /// Handles a miss: fetch from memory and fill the slowest position.
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
        let bank = self.bank_of(set, victim_way);
        let _ = self.bank_access(bank, mem_done);
        LowerOutcome {
            complete_at: mem_done,
            hit: false,
        }
    }

    /// Marks way `w` of `set` touched by this access.
    #[inline]
    fn touch_hit(&mut self, set: usize, w: u32, kind: AccessKind) {
        let i = self.slot_idx(set, w);
        self.last_use[i] = self.use_clock;
        if kind.is_write() {
            self.flags[i] |= DIRTY;
        }
    }

    /// Warm-up access: every architectural effect of
    /// [`Self::access_block`] without bank contention, memory timing, or
    /// statistics.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        self.use_clock += 1;
        let set = self.set_of(block);
        match self.find(set, block) {
            Some(w) => {
                self.touch_hit(set, w, kind);
                let _ = self.bubble_swap_slots(set, w);
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

    /// Clears all timing residue without touching cache contents.
    pub fn drain_timing(&mut self) {
        self.bank_busy.fill(Cycle::ZERO);
        self.memory.drain_timing();
    }

    /// Serialises the architectural state. The compressibility model is
    /// pure (seed lives in the config), so only slots, the ss array, and
    /// the recency clock are stored.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(self.use_clock);
        e.put_u64_slice(&self.blocks);
        e.put_u8_slice(&self.flags);
        e.put_u64_slice(&self.last_use);
        self.ss.save_state(e);
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
        let blocks = d.u64_slice()?;
        let flags = d.u8_slice()?;
        let last_use = d.u64_slice()?;
        if blocks.len() != self.blocks.len()
            || flags.len() != self.flags.len()
            || last_use.len() != self.last_use.len()
        {
            return Err(SnapshotError::Malformed("cnuca slot count mismatch"));
        }
        self.blocks = blocks;
        self.flags = flags;
        self.last_use = last_use;
        self.ss.load_state(d)?;
        self.memory.load_l4_state(d)
    }

    /// Demand access: multicast search (as D-NUCA ss-performance), with
    /// decompression latency charged on compressed-way hits.
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        self.stats.ss_accesses.inc();
        self.sink.count("cnuca.ss_probes", 1);
        let set = self.set_of(block);
        let ss_done = now + catalog::smart_search_latency_cycles();
        let candidates = self.ss.lookup_mask(block);
        let hit_way = self.find(set, block);

        // Multicast: every bank position of this set is searched.
        let bank_set = self.bank_set_of(set);
        let hit_position = hit_way.map(|w| self.position_of_way(w));
        let mut slowest_search = now;
        for p in 0..self.config.n_positions {
            if hit_position == Some(p) {
                continue; // the hit bank does a full access below
            }
            let bank = self.bank_lut[bank_set * self.config.n_positions + p] as usize;
            let done = self.bank_search(bank, now);
            slowest_search = slowest_search.max(done);
        }
        match hit_way {
            Some(w) => {
                let p = self.position_of_way(w);
                self.stats.position_hits.record(p);
                self.touch_hit(set, w, kind);
                let bank = self.bank_of(set, w);
                let mut done = self.bank_access(bank, now);
                if p == 0 {
                    // Position-0 residents are stored compressed; the hit
                    // pays the decompressor before data is usable.
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
}

impl LowerCache for CompressedNucaCache {
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

impl memsys::org::Organization for CompressedNucaCache {
    fn prefill(&mut self) {
        CompressedNucaCache::prefill(self);
    }

    fn reset_stats(&mut self) {
        CompressedNucaCache::reset_stats(self);
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, _snap_every: u64) {
        CompressedNucaCache::set_telemetry(self, sink.clone());
    }

    fn drain_timing(&mut self) {
        CompressedNucaCache::drain_timing(self);
    }

    fn save_state(&self, e: &mut Encoder) {
        CompressedNucaCache::save_state(self, e);
    }

    fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        CompressedNucaCache::load_state(self, d)
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
            l2_energy: crate::energy::cnuca_dynamic_energy(s, self.geometry()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn cache() -> CompressedNucaCache {
        CompressedNucaCache::new(CnucaConfig::micro2003())
    }

    /// First block index ≥ `from` whose compressibility matches `want`.
    fn block_with(c: &CompressedNucaCache, from: u64, want: bool) -> BlockAddr {
        (from..from + 10_000)
            .map(BlockAddr::from_index)
            .find(|&b| c.model().is_compressible(b) == want)
            .expect("the model produces both classes")
    }

    fn hammer(c: &mut CompressedNucaCache, b: BlockAddr, n: u32) {
        let mut t = Cycle::ZERO;
        for _ in 0..n {
            c.access_block(b, AccessKind::Read, t);
            t += 10_000;
        }
    }

    #[test]
    fn eighteen_logical_ways_in_the_evaluation_config() {
        let c = cache();
        assert_eq!(c.ways(), 18);
        assert_eq!(c.position_of_way(0), 0);
        assert_eq!(c.position_of_way(3), 0);
        assert_eq!(c.position_of_way(4), 1);
        assert_eq!(c.position_of_way(17), 7);
    }

    #[test]
    fn compressible_blocks_jump_straight_to_position_zero() {
        let mut c = cache();
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
        let mut c = cache();
        let b = block_with(&c, 0, false);
        hammer(&mut c, b, 12);
        assert_eq!(c.stats().position_hits.count(0), 0, "raw block in p0");
        assert!(c.stats().position_hits.count(1) >= 1, "never reached p1");
        assert!(c.stats().promotion_refusals.get() >= 1);
        assert_eq!(c.stats().decompressions.get(), 0);
    }

    #[test]
    fn compressed_hits_pay_the_decompressor() {
        let mut c = cache();
        let b = block_with(&c, 0, true);
        hammer(&mut c, b, 9); // resident at position 0 by now
        let before = c.stats().decompressions.get();
        let out = c.access_block(b, AccessKind::Read, Cycle::new(1_000_000));
        assert!(out.hit);
        assert_eq!(c.stats().decompressions.get(), before + 1);
        let fast_bank = c.bank_of(c.set_of(b), 0);
        let expected = Cycle::new(1_000_000)
            + c.geometry().bank_latency_cycles(fast_bank)
            + c.config.decomp_cycles;
        assert_eq!(out.complete_at, expected);
    }

    #[test]
    fn warm_path_matches_timed_path_architecturally() {
        let kinds = [AccessKind::Read, AccessKind::Write];
        let mut timed = cache();
        let mut warm = cache();
        let mut t = Cycle::ZERO;
        for i in 0..40_000u64 {
            let b = blk((i * 97) % 9000);
            let k = kinds[(i % 3 == 0) as usize];
            timed.access_block(b, k, t);
            t += 50;
            warm.warm_access_block(b, k);
        }
        assert_eq!(timed.blocks, warm.blocks);
        assert_eq!(timed.flags, warm.flags);
        assert_eq!(timed.last_use, warm.last_use);
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut c = cache();
        c.prefill();
        let mut t = Cycle::ZERO;
        for i in 0..5_000u64 {
            c.access_block(blk((i * 31) % 4000), AccessKind::Read, t);
            t += 100;
        }
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = cache();
        restored
            .load_state(&mut Decoder::new(&bytes))
            .expect("round trip");
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
        let mut c = cache();
        c.prefill();
        for set in [0usize, 1, 777, 4095] {
            for w in 0..c.fast_ways() {
                let b = BlockAddr::from_index(c.blocks[c.slot_idx(set, w)]);
                assert!(c.model().is_compressible(b), "raw placeholder in p0");
            }
        }
    }

    #[test]
    fn load_state_rejects_wrong_geometry() {
        let small = CompressedNucaCache::new(CnucaConfig {
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
        let mut big = cache();
        assert!(big.load_state(&mut Decoder::new(&bytes)).is_err());
    }
}
