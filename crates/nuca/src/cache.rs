//! The assembled D-NUCA cache: banked tag/data, bubble promotion, and the
//! ss-performance / ss-energy search policies.
//!
//! Slot metadata is kept struct-of-arrays (block indices, valid/dirty
//! flags, and recency clocks in separate flat vectors) so the per-access
//! way scans touch densely packed words, and the set → bank mapping is a
//! precomputed table. The access path performs no heap allocation:
//! smart-search candidates travel as a way bitmask and the multicast /
//! serial-probe loops walk positions directly.

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
        let why = "all policies take the same transitions; a restore rebuilds the memo table";
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

/// The D-NUCA cache.
///
/// # Examples
///
/// ```
/// use nuca::{DnucaCache, DnucaConfig, SearchPolicy};
/// use simbase::{AccessKind, BlockAddr, Cycle};
///
/// let mut cache = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsEnergy));
/// // A cold miss is detected early by the smart-search array (no
/// // partial-tag match anywhere) and fills the slowest bank position.
/// let miss = cache.access_block(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
/// assert!(!miss.hit);
/// assert_eq!(cache.stats().early_misses.get(), 1);
/// ```
#[derive(Debug)]
pub struct DnucaCache {
    config: DnucaConfig,
    geo: DnucaGeometry,
    /// `sets × assoc` block indices; way `w` of a set lives at bank
    /// position `w / ways_per_position`. `u64::MAX` in empty slots.
    blocks: Vec<u64>,
    /// `sets × assoc` VALID/DIRTY flags.
    flags: Vec<u8>,
    /// `sets × assoc` recency clocks (larger = more recently used).
    last_use: Vec<u64>,
    sets: usize,
    set_mask: u64,
    ways_per_position: u32,
    /// `log2(ways_per_position)` when it is a power of two.
    wpp_shift: Option<u32>,
    /// Bank index by `bank_set * n_positions + position`.
    bank_lut: Vec<u32>,
    /// `n_bank_sets - 1` when the bank-set count is a power of two.
    bank_set_mask: Option<usize>,
    ss: SmartSearchArray,
    /// Per-set way of the last hit ([`MEMO_NONE`] when unknown). Part of
    /// the architectural state and maintained identically under every
    /// search policy (so all policies share warm-up checkpoints); only
    /// [`SearchPolicy::WayMemo`] consults it.
    memo: Vec<u32>,
    /// Per-bank busy-until times (bank contention; the network itself has
    /// infinite bandwidth per Section 4).
    bank_busy: Vec<Cycle>,
    memory: MainMemory,
    stats: DnucaStats,
    use_clock: u64,
    sink: TelemetrySink,
}

impl DnucaCache {
    /// Builds a D-NUCA cache from `config`.
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
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n_bank_sets = geo.n_bank_sets();
        let mut bank_lut = Vec::with_capacity(n_bank_sets * config.n_positions);
        for bs in 0..n_bank_sets {
            for p in 0..config.n_positions {
                bank_lut.push(geo.bank_index(bs, p) as u32);
            }
        }
        let ways_per_position = config.assoc / config.n_positions as u32;
        let n_slots = sets * config.assoc as usize;
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
            bank_lut,
            bank_set_mask: n_bank_sets.is_power_of_two().then(|| n_bank_sets - 1),
            ss: SmartSearchArray::new(sets, config.assoc),
            memo: vec![MEMO_NONE; sets],
            bank_busy: vec![Cycle::ZERO; config.n_banks],
            memory: MainMemory::micro2003(),
            stats: DnucaStats::new(config.n_positions, config.n_banks),
            geo,
            config,
            use_clock: 0,
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink, forwarded to the memory channel. Bubble
    /// swaps and smart-search probes are counted; swap occupancy is
    /// emitted as a cycle-stamped span.
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

    /// Fills every slot (and the smart-search array) with placeholder
    /// blocks, emulating the steady-state occupancy the paper reaches by
    /// fast-forwarding 5 billion instructions. Placeholders use a reserved
    /// address range and zero recency, so they are natural victims.
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
        set * self.config.assoc as usize + w as usize
    }

    #[inline]
    fn bank_set_of(&self, set: usize) -> usize {
        match self.bank_set_mask {
            Some(m) => set & m,
            None => set % self.geo.n_bank_sets(),
        }
    }

    /// The bank holding way `w` of `set`.
    #[inline]
    fn bank_of(&self, set: usize, w: u32) -> usize {
        let bank_set = self.bank_set_of(set);
        let position = self.position_of_way(w);
        self.bank_lut[bank_set * self.config.n_positions + position] as usize
    }

    #[inline]
    fn position_of_way(&self, w: u32) -> usize {
        match self.wpp_shift {
            Some(s) => (w >> s) as usize,
            None => (w / self.ways_per_position) as usize,
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
            self.sink.count("dnuca.bubble_swaps", 1);
            self.sink.span("dnuca", "bubble_swap", t.raw(), 2 * BANK_OCCUPANCY);
        }
    }

    /// Way holding `block` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, block: BlockAddr) -> Option<u32> {
        let base = set * self.config.assoc as usize;
        let target = block.index();
        for w in 0..self.config.assoc {
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
        let lo = p as u32 * self.ways_per_position;
        let mut best = lo;
        let mut best_key = self.recency_key(set, lo);
        for w in lo + 1..lo + self.ways_per_position {
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

    /// Architectural half of a bubble promotion: swaps the slot metadata
    /// and the ss entry of way `w` with the LRU way of the adjacent
    /// faster position. Returns the partner way, or `None` at position 0.
    fn bubble_swap_slots(&mut self, set: usize, w: u32) -> Option<u32> {
        let p = self.position_of_way(w);
        if p == 0 {
            return None;
        }
        let other = self.lru_way_at_position(set, p - 1);
        let (a, b) = (self.slot_idx(set, w), self.slot_idx(set, other));
        self.blocks.swap(a, b);
        self.flags.swap(a, b);
        self.last_use.swap(a, b);
        let moved = BlockAddr::from_index(self.blocks[b]);
        self.ss.swap(moved, w, other);
        Some(other)
    }

    /// Bubble promotion: swap the block at way `w` with the LRU way of the
    /// adjacent faster position (Section 2.2's "bubble replacement").
    /// Returns the way the promoted block ends up in (for the way memo).
    fn bubble_promote(&mut self, set: usize, w: u32, t: Cycle) -> u32 {
        match self.bubble_swap_slots(set, w) {
            Some(other) => {
                let bank_w = self.bank_of(set, w);
                let bank_o = self.bank_of(set, other);
                self.swap_banks(bank_w, bank_o, t);
                other
            }
            None => w,
        }
    }

    /// Architectural half of a miss: evict the slowest-way victim (keeping
    /// the ss array in sync) and install `block` there. Returns the dirty
    /// victim block, if any — write-back and bank/memory timing are the
    /// timed caller's business.
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
        if self.memo[set] == victim_way {
            self.memo[set] = MEMO_NONE;
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

    /// Warm-up access: applies every architectural effect of
    /// [`Self::access_block`] (recency, dirtying, bubble swaps, slowest-way
    /// eviction, ss-array maintenance) while skipping bank contention,
    /// memory timing, and statistics. The effects are identical under both
    /// search policies — search order only changes *when* banks are
    /// probed, never what the probe finds.
    pub fn warm_access_block(&mut self, block: BlockAddr, kind: AccessKind) {
        self.use_clock += 1;
        let set = self.set_of(block);
        match self.find(set, block) {
            Some(w) => {
                self.touch_hit(set, w, kind);
                let other = self.bubble_swap_slots(set, w);
                self.memo[set] = other.unwrap_or(w);
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
    /// and the recency clock.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(self.use_clock);
        e.put_u64_slice(&self.blocks);
        e.put_u8_slice(&self.flags);
        e.put_u64_slice(&self.last_use);
        self.ss.save_state(e);
        e.put_u32_slice(&self.memo);
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
        d.u64_slice_into(&mut self.blocks)?;
        d.u8_slice_into(&mut self.flags)?;
        d.u64_slice_into(&mut self.last_use)?;
        self.ss.load_state(d)?;
        d.u32_slice_into(&mut self.memo)?;
        self.memory.load_l4_state(d)
    }

    /// Demand access with the configured search policy.
    pub fn access_block(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.use_clock += 1;
        self.stats.accesses.inc();
        let set = self.set_of(block);
        let ss_done = now + catalog::smart_search_latency_cycles();
        let candidates = self.ss.lookup_mask(block);
        let hit_way = self.find(set, block);

        match self.config.policy {
            SearchPolicy::SsPerformance => {
                self.stats.ss_accesses.inc();
                self.sink.count("dnuca.ss_probes", 1);
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
                        let done = self.bank_access(bank, now);
                        let fw = self.bubble_promote(set, w, done);
                        self.memo[set] = fw;
                        LowerOutcome {
                            complete_at: done,
                            hit: true,
                        }
                    }
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
                self.sink.count("dnuca.ss_probes", 1);
                // Probe only candidate positions, nearest first, serially.
                let mut position_mask = 0u64;
                let mut m = candidates;
                while m != 0 {
                    position_mask |= 1 << self.position_of_way(m.trailing_zeros());
                    m &= m - 1;
                }
                let bank_set = self.bank_set_of(set);
                let hit_position = hit_way.map(|w| self.position_of_way(w));
                let mut t = ss_done;
                for p in 0..self.config.n_positions {
                    if position_mask >> p & 1 == 0 {
                        continue;
                    }
                    if hit_position == Some(p) {
                        let w = hit_way.expect("hit_position implies hit_way");
                        self.stats.position_hits.record(p);
                        self.touch_hit(set, w, kind);
                        let bank = self.bank_lut[bank_set * self.config.n_positions + p] as usize;
                        let done = self.bank_access(bank, t);
                        let fw = self.bubble_promote(set, w, done);
                        self.memo[set] = fw;
                        return LowerOutcome {
                            complete_at: done,
                            hit: true,
                        };
                    }
                    // False hit: the partial tag matched but the block is
                    // not here.
                    self.stats.false_hits.inc();
                    let bank = self.bank_lut[bank_set * self.config.n_positions + p] as usize;
                    t = self.bank_search(bank, t);
                }
                if candidates == 0 {
                    self.stats.early_misses.inc();
                }
                self.handle_miss(block, kind, t)
            }
            SearchPolicy::WayMemo => {
                let bank_set = self.bank_set_of(set);
                let hit_position = hit_way.map(|w| self.position_of_way(w));
                self.stats.memo_lookups.inc();
                let mut t = now + catalog::way_memo_latency_cycles();
                let memoized = self.memo[set];
                let memo_position = if memoized == MEMO_NONE {
                    None
                } else {
                    Some(self.position_of_way(memoized))
                };
                if let Some(mp) = memo_position {
                    // Probe the memoized position directly with one full
                    // (tag + data) bank access. On a memo hit the
                    // smart-search array is never consulted — that is the
                    // whole energy win of way memoization.
                    if hit_position == Some(mp) {
                        let w = hit_way.expect("hit_position implies hit_way");
                        self.stats.memo_hits.inc();
                        self.stats.position_hits.record(mp);
                        self.touch_hit(set, w, kind);
                        let bank =
                            self.bank_lut[bank_set * self.config.n_positions + mp] as usize;
                        let done = self.bank_access(bank, t);
                        let fw = self.bubble_promote(set, w, done);
                        self.memo[set] = fw;
                        return LowerOutcome {
                            complete_at: done,
                            hit: true,
                        };
                    }
                    // Memo miss: the speculative full access was wasted
                    // energy and time; fall back to the smart search.
                    let bank = self.bank_lut[bank_set * self.config.n_positions + mp] as usize;
                    t = self.bank_access(bank, t);
                }
                // Serial nearest-first candidate search (as ss-energy),
                // skipping the position the memo probe already ruled out.
                // The ss array was read in parallel with the memo probe.
                self.stats.ss_accesses.inc();
                self.sink.count("dnuca.ss_probes", 1);
                let mut position_mask = 0u64;
                let mut m = candidates;
                while m != 0 {
                    position_mask |= 1 << self.position_of_way(m.trailing_zeros());
                    m &= m - 1;
                }
                t = t.max(ss_done);
                for p in 0..self.config.n_positions {
                    if position_mask >> p & 1 == 0 || memo_position == Some(p) {
                        continue;
                    }
                    if hit_position == Some(p) {
                        let w = hit_way.expect("hit_position implies hit_way");
                        self.stats.position_hits.record(p);
                        self.touch_hit(set, w, kind);
                        let bank =
                            self.bank_lut[bank_set * self.config.n_positions + p] as usize;
                        let done = self.bank_access(bank, t);
                        let fw = self.bubble_promote(set, w, done);
                        self.memo[set] = fw;
                        return LowerOutcome {
                            complete_at: done,
                            hit: true,
                        };
                    }
                    self.stats.false_hits.inc();
                    let bank = self.bank_lut[bank_set * self.config.n_positions + p] as usize;
                    t = self.bank_search(bank, t);
                }
                if candidates == 0 {
                    self.stats.early_misses.inc();
                }
                self.handle_miss(block, kind, t)
            }
        }
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
        assert!(
            fast_lat < slow_lat / 2,
            "position 0 ({fast_lat}) vs position 7 ({slow_lat})"
        );
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
        for policy in [SearchPolicy::SsPerformance, SearchPolicy::SsEnergy] {
            let mut timed = cache(policy);
            let mut warm = cache(policy);
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
                assert_eq!(o1.hit, o2.hit, "replay access {i} diverged ({policy:?})");
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
    }
}
