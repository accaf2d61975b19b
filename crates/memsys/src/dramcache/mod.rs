//! The L4 DRAM-cache tier: tags-in-DRAM with an SRAM tag cache, resizable
//! via a consistent-hashing bank map (DESIGN.md §15).
//!
//! Sits between every lower-level [`Organization`](crate::org::Organization)
//! and main memory, attached through
//! [`MainMemory::attach_l4`](crate::memory::MainMemory::attach_l4). Block
//! fills and dirty writebacks consult the L4 before the DRAM channel:
//!
//! 1. **Bank map** — [`chash::BankMap`](crate::chash::BankMap) names the
//!    one bank that may hold the block; a resize moves only the minimal
//!    key fraction, so live grow/shrink needs no flush.
//! 2. **Tag resolution** — tags live in DRAM rows (TDRAM, arXiv
//!    2404.14617). A small SRAM tag cache of recently probed sets answers
//!    residency in `tag_sram_latency` cycles; a tag-cache miss pays the
//!    DRAM tag-probe round trip and a beat of tag bandwidth.
//! 3. **Data** — an L4 hit bursts the block over the (fast) L4 channel;
//!    a miss fetches from DRAM cut-through and installs, writing back a
//!    dirty victim behind the fill.
//!
//! State split: the resident-tag directory, dirty bits, per-set LRU, and
//! the bank map are **architectural** — the warm-up path takes identical
//! transitions and the whole set enters warm-up checkpoints. The tag
//! cache and both channels' occupancy are **timing-only** — drained at
//! the warm-up barrier and cleared by a resize, never serialized.
//!
//! Resize protocol: growing adds fresh banks; blocks whose map entry
//! moved leave orphan copies behind that age out via normal LRU
//! replacement. Shrinking retires the youngest banks: their dirty blocks
//! are written back through the DRAM channel at resize time (the
//! bandwidth transient the `dram` experiment measures) and their clean
//! blocks simply miss on next access — the resident set drains lazily
//! through tag-probe misses, never an eager migration.
//!
//! The straight-line reference twin lives in [`naive`]; the differential
//! suite in `tests/differential.rs` pins the two bit-for-bit.

pub mod naive;

use crate::chash::BankMap;
use crate::memory::MainMemory;
use crate::packed_lru::LruTable;
use simbase::digest::Tag;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{BlockAddr, Cycle};
use simtel::{l4names, TelemetrySink};

/// Sentinel for an empty tag frame (never a real block index).
const INVALID: u64 = u64::MAX;

/// Section framing of the L4 slice inside a warm-up checkpoint, so an
/// L4-enabled blob can never silently decode into an L4-disabled run.
const L4_SNAPSHOT_MAGIC: u64 = 0x4c34_4452_414d_2431; // "L4DRAM$1"

/// Version of the L4 snapshot section layout.
pub const L4_SNAPSHOT_VERSION: u32 = 1;

/// Configuration of the L4 tier (its knobs are declared below the impl).
#[derive(Debug, Clone, PartialEq)]
pub struct L4Config {
    /// Initial number of DRAM-cache banks.
    pub n_banks: u32,
    /// Block frames per bank (`sets * assoc`).
    pub bank_blocks: u64,
    /// Associativity of each bank's sets.
    pub assoc: u32,
    /// Virtual nodes per bank on the consistent-hash ring.
    pub vnodes_per_bank: u32,
    /// Seed of the bank map's hash.
    pub hash_seed: u64,
    /// Block size in bytes (matches the organizations' 128-B blocks).
    pub block_bytes: u64,
    /// Latency of a residency answer from the SRAM tag cache.
    pub tag_sram_latency: u64,
    /// Latency of a tags-in-DRAM probe on a tag-cache miss.
    pub tag_probe_latency: u64,
    /// Base latency of an L4 data access.
    pub base_latency: u64,
    /// L4 channel burst rate (cycles per 8 bytes).
    pub cycles_per_8b: u64,
    /// Direct-mapped SRAM tag-cache entries (power of two).
    pub tag_cache_entries: u32,
    /// Measured-phase resize schedule: `(op index, target banks)`,
    /// ascending by op index.
    pub resizes: Vec<(u64, u32)>,
}

impl L4Config {
    /// The default tier: 8 banks x 32768 blocks x 128 B = 32 MB, 8-way,
    /// roughly half the paper-era DRAM round trip on a hit (TDRAM-style
    /// in-package channel), no resize schedule. The capacity is 4x the
    /// 8-MB L2 it backs on purpose: a DRAM cache no bigger than the
    /// SRAM tier above it holds the same working set and never hits —
    /// at 32 MB it retains the hot blocks the streaming region evicts
    /// from the L2, and a shrink to half the banks drops below a SPEC-
    /// sized stream footprint, which is what makes resize transients
    /// visible at all.
    pub fn tdram() -> Self {
        L4Config {
            n_banks: 8,
            bank_blocks: 32768,
            assoc: 8,
            vnodes_per_bank: 32,
            hash_seed: 0x7d2a_4d16_0200_0722,
            block_bytes: 128,
            tag_sram_latency: 4,
            tag_probe_latency: 36,
            base_latency: 60,
            cycles_per_8b: 2,
            tag_cache_entries: 1024,
            resizes: Vec::new(),
        }
    }

    /// Attaches a measured-phase resize schedule.
    pub fn with_resizes(mut self, resizes: Vec<(u64, u32)>) -> Self {
        self.resizes = resizes;
        self
    }

    /// Sets the frames (`sets * assoc`) per bank.
    fn sets_per_bank(&self) -> usize {
        (self.bank_blocks / self.assoc as u64) as usize
    }
}

const LATENCY: Tag = Tag::Timing("a latency never changes which blocks are resident");

simbase::knobs!(L4Config {
    n_banks: Tag::Arch,
    bank_blocks: Tag::Arch,
    assoc: Tag::Arch,
    vnodes_per_bank: Tag::Arch,
    hash_seed: Tag::Arch,
    block_bytes: Tag::Arch,
    tag_sram_latency: LATENCY,
    tag_probe_latency: LATENCY,
    base_latency: LATENCY,
    cycles_per_8b: LATENCY,
    tag_cache_entries: Tag::Timing("the tag cache never enters a snapshot"),
    resizes: Tag::Timing("resizes apply only after the warm-up barrier"),
});

/// Event counters of the L4 tier, split so [`energy`] can price fill,
/// writeback, and tag traffic separately (Banshee-style bandwidth
/// accounting, arXiv 1704.02677). All zeroed at the warm-up barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L4Stats {
    /// Block requests (fills + writebacks) reaching the tier.
    pub accesses: u64,
    /// Requests resident in their bank.
    pub hits: u64,
    /// Requests not resident.
    pub misses: u64,
    /// Blocks installed from DRAM on a fill miss.
    pub fills: u64,
    /// Blocks write-allocated by a writeback miss (no DRAM fetch: the
    /// incoming block is whole).
    pub dirty_fills: u64,
    /// Dirty L4 victims written back to DRAM.
    pub writebacks: u64,
    /// Tags-in-DRAM probes (tag-cache misses).
    pub tag_probes: u64,
    /// Residency answered by the SRAM tag cache.
    pub tag_cache_hits: u64,
    /// Dirty blocks flushed to DRAM when their bank retired.
    pub resize_writebacks: u64,
    /// Resize events applied.
    pub resizes: u64,
}

impl L4Stats {
    /// Full blocks crossing the DRAM channel: fill fetches, victim
    /// writebacks, and retirement flushes.
    pub fn dram_blocks(&self) -> u64 {
        self.fills + self.writebacks + self.resize_writebacks
    }

    /// Field-wise `self - earlier`: the events of a window given
    /// cumulative counters sampled at its two ends.
    pub fn minus(&self, earlier: &L4Stats) -> L4Stats {
        self.zip(earlier, |a, b| a - b)
    }

    /// Field-wise `self + other`: the events of two disjoint windows.
    pub fn plus(&self, other: &L4Stats) -> L4Stats {
        self.zip(other, |a, b| a + b)
    }

    /// Encodes every counter, in declaration order.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64_slice(&[
            self.accesses,
            self.hits,
            self.misses,
            self.fills,
            self.dirty_fills,
            self.writebacks,
            self.tag_probes,
            self.tag_cache_hits,
            self.resize_writebacks,
            self.resizes,
        ]);
    }

    /// Decodes an [`L4Stats::save_state`] encoding.
    ///
    /// # Errors
    ///
    /// The first decode error.
    pub fn load_state(d: &mut Decoder) -> Result<L4Stats, SnapshotError> {
        let mut w = [0; 10];
        d.u64_slice_into(&mut w)?;
        let [accesses, hits, misses, fills, dirty_fills, writebacks, tag_probes, tag_cache_hits, resize_writebacks, resizes] =
            w;
        Ok(L4Stats {
            accesses,
            hits,
            misses,
            fills,
            dirty_fills,
            writebacks,
            tag_probes,
            tag_cache_hits,
            resize_writebacks,
            resizes,
        })
    }

    /// Applies `f` field by field.
    fn zip(&self, o: &L4Stats, f: impl Fn(u64, u64) -> u64) -> L4Stats {
        L4Stats {
            accesses: f(self.accesses, o.accesses),
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            fills: f(self.fills, o.fills),
            dirty_fills: f(self.dirty_fills, o.dirty_fills),
            writebacks: f(self.writebacks, o.writebacks),
            tag_probes: f(self.tag_probes, o.tag_probes),
            tag_cache_hits: f(self.tag_cache_hits, o.tag_cache_hits),
            resize_writebacks: f(self.resize_writebacks, o.resize_writebacks),
            resizes: f(self.resizes, o.resizes),
        }
    }
}

/// One bank's resident-tag directory: flat tags, a dirty bitmap, and the
/// packed per-set LRU shared with the on-chip directories.
#[derive(Debug, Clone)]
struct BankDir {
    /// Block index per frame (`set * assoc + way`); [`INVALID`] = empty.
    tags: Vec<u64>,
    /// One dirty bit per frame.
    dirty: Vec<u64>,
    lru: LruTable,
}

impl BankDir {
    fn new(sets: usize, assoc: u32) -> Self {
        let frames = sets * assoc as usize;
        BankDir {
            tags: vec![INVALID; frames],
            dirty: vec![0u64; frames.div_ceil(64)],
            lru: LruTable::new(sets, assoc),
        }
    }

    #[inline]
    fn is_dirty(&self, frame: usize) -> bool {
        self.dirty[frame / 64] >> (frame % 64) & 1 == 1
    }

    #[inline]
    fn set_dirty(&mut self, frame: usize, dirty: bool) {
        let bit = 1u64 << (frame % 64);
        if dirty {
            self.dirty[frame / 64] |= bit;
        } else {
            self.dirty[frame / 64] &= !bit;
        }
    }
}

/// The timing-only SRAM tag cache: direct-mapped over `(bank, set)`
/// keys. A hit means the set's DRAM tags are mirrored on chip, so
/// residency resolves without the tag-probe round trip.
#[derive(Debug, Clone)]
struct TagCache {
    entries: Vec<u64>,
    mask: u64,
}

impl TagCache {
    fn new(n: u32) -> Self {
        assert!(n.is_power_of_two(), "tag cache entries must be a power of two");
        TagCache {
            entries: vec![INVALID; n as usize],
            mask: n as u64 - 1,
        }
    }

    /// True on a hit; a miss installs the key (the DRAM probe the miss
    /// triggers refreshes the mirrored set).
    #[inline]
    fn probe_and_fill(&mut self, bank: u32, set: usize) -> bool {
        let key = ((bank as u64) << 32) | set as u64;
        let idx = (crate::chash::mix64(key) & self.mask) as usize;
        if self.entries[idx] == key {
            true
        } else {
            self.entries[idx] = key;
            false
        }
    }

    fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = INVALID);
    }
}

/// The L4 DRAM cache. Constructed from an [`L4Config`] and attached to a
/// [`MainMemory`]; all timed entry points take the backing DRAM channel
/// explicitly so the two tiers share one deterministic clock domain.
#[derive(Debug, Clone)]
pub struct L4DramCache {
    cfg: L4Config,
    sets_per_bank: usize,
    map: BankMap,
    /// Directories indexed by bank id; `None` = retired or never built.
    /// Invariant: `banks.len() == map.id_bound()` and `banks[id]` is
    /// `Some` iff `id` is live in the map.
    banks: Vec<Option<BankDir>>,
    tag_cache: TagCache,
    /// L4 channel occupancy (timing-only).
    free_at: Cycle,
    stats: L4Stats,
    sink: TelemetrySink,
}

impl L4DramCache {
    /// Builds the tier with every configured bank empty.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero banks/assoc, `bank_blocks`
    /// not a multiple of `assoc`, non-power-of-two tag cache).
    pub fn new(cfg: L4Config) -> Self {
        assert!(cfg.n_banks > 0 && cfg.assoc > 0, "degenerate L4 geometry");
        assert_eq!(cfg.bank_blocks % cfg.assoc as u64, 0, "bank_blocks must divide by assoc");
        let sets = cfg.sets_per_bank();
        let map = BankMap::new(cfg.n_banks, cfg.vnodes_per_bank, cfg.hash_seed);
        let banks = (0..cfg.n_banks).map(|_| Some(BankDir::new(sets, cfg.assoc))).collect();
        let tag_cache = TagCache::new(cfg.tag_cache_entries);
        L4DramCache {
            sets_per_bank: sets,
            map,
            banks,
            tag_cache,
            free_at: Cycle::ZERO,
            stats: L4Stats::default(),
            sink: TelemetrySink::disabled(),
            cfg,
        }
    }

    /// The configuration this tier was built with.
    pub fn config(&self) -> &L4Config {
        &self.cfg
    }

    /// Event counters since the last [`L4DramCache::reset_stats`].
    pub fn stats(&self) -> L4Stats {
        self.stats
    }

    /// Live bank count.
    pub fn n_banks(&self) -> u32 {
        self.map.n_banks()
    }

    /// Attaches a telemetry sink (resize events and per-access counts).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Zeroes the event counters (resident state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = L4Stats::default();
    }

    /// Warm-up drain barrier: forgets channel occupancy and the SRAM tag
    /// cache — both timing-only, so architectural state cannot change.
    pub fn drain_timing(&mut self) {
        self.free_at = Cycle::ZERO;
        self.tag_cache.clear();
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key % self.sets_per_bank as u64) as usize
    }

    /// Resolves residency knowledge for `(bank, set)`: SRAM tag-cache
    /// hit, or a tags-in-DRAM probe (one 8-byte beat of L4 bandwidth).
    fn resolve_tags(&mut self, bank: u32, set: usize, now: Cycle) -> Cycle {
        if self.tag_cache.probe_and_fill(bank, set) {
            self.stats.tag_cache_hits += 1;
            now + self.cfg.tag_sram_latency
        } else {
            self.stats.tag_probes += 1;
            let start = now.max(self.free_at);
            self.free_at = start + self.cfg.cycles_per_8b;
            start + self.cfg.tag_probe_latency
        }
    }

    /// The resident way of `key` in `(bank, set)`, if any.
    fn probe_way(&self, bank: u32, set: usize, key: u64) -> Option<u32> {
        let dir = self.banks[bank as usize].as_ref().expect("live bank");
        let assoc = self.cfg.assoc as usize;
        let base = set * assoc;
        (0..assoc).find(|&w| dir.tags[base + w] == key).map(|w| w as u32)
    }

    /// A data burst on the L4 channel starting no earlier than `at`.
    fn data_burst(&mut self, at: Cycle, bytes: u64) -> Cycle {
        let start = at.max(self.free_at);
        let burst = self.cfg.cycles_per_8b * bytes.div_ceil(8);
        self.free_at = start + burst;
        start + self.cfg.base_latency + burst
    }

    /// Installs `key` over the set's LRU victim, writing a dirty victim
    /// back to DRAM behind the incoming data. Returns when the install
    /// write completes on the L4 channel.
    fn install(
        &mut self,
        bank: u32,
        set: usize,
        key: u64,
        dirty: bool,
        at: Cycle,
        bytes: u64,
        dram: &mut MainMemory,
    ) -> Cycle {
        let assoc = self.cfg.assoc;
        let dir = self.banks[bank as usize].as_mut().expect("live bank");
        let way = dir.lru.victim(set);
        let frame = set * assoc as usize + way as usize;
        let victim_dirty = dir.tags[frame] != INVALID && dir.is_dirty(frame);
        dir.tags[frame] = key;
        dir.set_dirty(frame, dirty);
        dir.lru.touch(set, way);
        if victim_dirty {
            self.stats.writebacks += 1;
            let _ = dram.channel_transfer(bytes, at);
        }
        let start = at.max(self.free_at);
        let burst = self.cfg.cycles_per_8b * bytes.div_ceil(8);
        self.free_at = start + burst;
        start + self.cfg.base_latency + burst
    }

    /// A block fill requested by the organization's miss path. Returns
    /// when the data reaches the requester (cut-through on an L4 miss:
    /// the install write completes behind the returned cycle).
    pub fn fill(
        &mut self,
        block: BlockAddr,
        bytes: u64,
        now: Cycle,
        dram: &mut MainMemory,
    ) -> Cycle {
        self.stats.accesses += 1;
        let key = block.index();
        let bank = self.map.lookup(key);
        let set = self.set_of(key);
        let tag_done = self.resolve_tags(bank, set, now);
        let done = if let Some(way) = self.probe_way(bank, set, key) {
            self.stats.hits += 1;
            let dir = self.banks[bank as usize].as_mut().expect("live bank");
            dir.lru.touch(set, way);
            self.data_burst(tag_done, bytes)
        } else {
            self.stats.misses += 1;
            let arrival = dram.channel_transfer(bytes, tag_done);
            let _ = self.install(bank, set, key, false, arrival, bytes, dram);
            self.stats.fills += 1;
            arrival
        };
        if self.sink.enabled() {
            self.sink.count(l4names::ACCESSES, 1);
        }
        done
    }

    /// A dirty-block writeback from the organization. Write-allocates on
    /// a miss (the incoming block is whole, so no DRAM fetch). Returns
    /// when the write retires on the L4 channel.
    pub fn writeback(
        &mut self,
        block: BlockAddr,
        bytes: u64,
        now: Cycle,
        dram: &mut MainMemory,
    ) -> Cycle {
        self.stats.accesses += 1;
        let key = block.index();
        let bank = self.map.lookup(key);
        let set = self.set_of(key);
        let tag_done = self.resolve_tags(bank, set, now);
        let done = if let Some(way) = self.probe_way(bank, set, key) {
            self.stats.hits += 1;
            let assoc = self.cfg.assoc as usize;
            let dir = self.banks[bank as usize].as_mut().expect("live bank");
            dir.set_dirty(set * assoc + way as usize, true);
            dir.lru.touch(set, way);
            self.data_burst(tag_done, bytes)
        } else {
            self.stats.misses += 1;
            self.stats.dirty_fills += 1;
            self.install(bank, set, key, true, tag_done, bytes, dram)
        };
        if self.sink.enabled() {
            self.sink.count(l4names::ACCESSES, 1);
        }
        done
    }

    /// Warm-up twin of [`L4DramCache::fill`]: identical architectural
    /// transitions (residency, dirty bits, LRU), no timing, counters, or
    /// tag-cache traffic.
    pub fn warm_fill(&mut self, block: BlockAddr) {
        let key = block.index();
        let bank = self.map.lookup(key);
        let set = self.set_of(key);
        match self.probe_way(bank, set, key) {
            Some(way) => {
                let dir = self.banks[bank as usize].as_mut().expect("live bank");
                dir.lru.touch(set, way);
            }
            None => self.warm_install(bank, set, key, false),
        }
    }

    /// Warm-up twin of [`L4DramCache::writeback`].
    pub fn warm_writeback(&mut self, block: BlockAddr) {
        let key = block.index();
        let bank = self.map.lookup(key);
        let set = self.set_of(key);
        match self.probe_way(bank, set, key) {
            Some(way) => {
                let assoc = self.cfg.assoc as usize;
                let dir = self.banks[bank as usize].as_mut().expect("live bank");
                dir.set_dirty(set * assoc + way as usize, true);
                dir.lru.touch(set, way);
            }
            None => self.warm_install(bank, set, key, true),
        }
    }

    /// Architectural slice of [`L4DramCache::install`]: same victim, same
    /// replacement; the dirty victim's writeback is bandwidth only.
    fn warm_install(&mut self, bank: u32, set: usize, key: u64, dirty: bool) {
        let assoc = self.cfg.assoc;
        let dir = self.banks[bank as usize].as_mut().expect("live bank");
        let way = dir.lru.victim(set);
        let frame = set * assoc as usize + way as usize;
        dir.tags[frame] = key;
        dir.set_dirty(frame, dirty);
        dir.lru.touch(set, way);
    }

    /// Applies a live resize to `target` banks (measured phase only).
    /// Retiring banks flush their dirty blocks through the DRAM channel
    /// back-to-back — the bandwidth transient — and free their storage;
    /// new banks start empty. The SRAM tag cache is cleared (bank
    /// ownership changed under it). Returns when the last flush block
    /// retires (`now` if nothing flushed).
    pub fn resize(&mut self, target: u32, now: Cycle, dram: &mut MainMemory) -> Cycle {
        self.stats.resizes += 1;
        let delta = self.map.resize(target);
        let mut done = now;
        let mut flushed = 0u64;
        for &id in &delta.retired {
            let dir = self.banks[id as usize].take().expect("retired bank was live");
            for frame in 0..dir.tags.len() {
                if dir.tags[frame] != INVALID && dir.is_dirty(frame) {
                    flushed += 1;
                    done = dram.channel_transfer(self.cfg.block_bytes, now);
                }
            }
        }
        self.stats.resize_writebacks += flushed;
        for &id in &delta.added {
            if self.banks.len() <= id as usize {
                self.banks.resize_with(id as usize + 1, || None);
            }
            self.banks[id as usize] = Some(BankDir::new(self.sets_per_bank, self.cfg.assoc));
        }
        self.tag_cache.clear();
        if self.sink.enabled() {
            self.sink.count(l4names::RESIZES, 1);
            self.sink.count(l4names::RESIZE_WRITEBACKS, flushed);
            self.sink.counter_track("l4", "n_banks", now.raw(), target as u64);
        }
        done
    }

    /// Whether `block` is resident (in the bank the map names today).
    pub fn resident(&self, block: BlockAddr) -> bool {
        let key = block.index();
        let bank = self.map.lookup(key);
        self.probe_way(bank, self.set_of(key), key).is_some()
    }

    /// Whether `block` is resident and dirty.
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        let key = block.index();
        let bank = self.map.lookup(key);
        let set = self.set_of(key);
        match self.probe_way(bank, set, key) {
            Some(way) => {
                let dir = self.banks[bank as usize].as_ref().expect("live bank");
                dir.is_dirty(set * self.cfg.assoc as usize + way as usize)
            }
            None => false,
        }
    }

    /// Serializes the architectural state as a framed section: magic,
    /// layout version, bank map, then each bank slot's directory.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(L4_SNAPSHOT_MAGIC);
        e.put_u32(L4_SNAPSHOT_VERSION);
        self.map.save_state(e);
        e.put_len(self.banks.len());
        for slot in &self.banks {
            match slot {
                None => e.put_u8(0),
                Some(dir) => {
                    e.put_u8(1);
                    e.put_u64_slice(&dir.tags);
                    e.put_u64_slice(&dir.dirty);
                    dir.lru.save_state(e);
                }
            }
        }
    }

    /// Restores state written by [`L4DramCache::save_state`] into a tier
    /// of identical geometry.
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        if d.u64()? != L4_SNAPSHOT_MAGIC {
            return Err(SnapshotError::Malformed("not an L4 snapshot section"));
        }
        if d.u32()? != L4_SNAPSHOT_VERSION {
            return Err(SnapshotError::Malformed("L4 snapshot version skew"));
        }
        self.map.load_state(d)?;
        let slots = d.len()?;
        if slots != self.map.id_bound() as usize {
            return Err(SnapshotError::Malformed("L4 bank slot count mismatch"));
        }
        // Retired banks go first, so their directories are freed before
        // any new one is built; live banks decode into the directories
        // they already own.
        let map = &self.map;
        let live = |id: usize| map.bank_ids().binary_search(&(id as u32)).is_ok();
        self.banks.resize_with(slots, || None);
        for (id, slot) in self.banks.iter_mut().enumerate() {
            if !live(id) {
                *slot = None;
            }
        }
        let (sets, assoc) = (self.sets_per_bank, self.cfg.assoc);
        for (id, slot) in self.banks.iter_mut().enumerate() {
            match (d.u8()?, live(id)) {
                (0, false) => {}
                (1, true) => {
                    let dir = slot.get_or_insert_with(|| BankDir::new(sets, assoc));
                    d.u64_slice_into(&mut dir.tags)?;
                    d.u64_slice_into(&mut dir.dirty)?;
                    dir.lru.load_state(d)?;
                }
                _ => return Err(SnapshotError::Malformed("L4 bank liveness disagrees with map")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn small() -> L4Config {
        L4Config {
            n_banks: 4,
            bank_blocks: 64,
            assoc: 4,
            vnodes_per_bank: 16,
            tag_cache_entries: 64,
            ..L4Config::tdram()
        }
    }

    fn tier() -> (L4DramCache, MainMemory) {
        (L4DramCache::new(small()), MainMemory::micro2003())
    }

    #[test]
    fn cold_fill_misses_then_hits_faster_than_dram() {
        let (mut l4, mut dram) = tier();
        let miss = l4.fill(blk(7), 128, Cycle::ZERO, &mut dram);
        // Tag probe (36) then the 194-cycle DRAM fetch.
        assert_eq!(miss, Cycle::new(36 + 194));
        let hit = l4.fill(blk(7), 128, Cycle::new(10_000), &mut dram);
        // Tag probe again (different arrival cleared nothing, but the
        // direct-mapped entry holds this set): SRAM answer + L4 burst.
        assert_eq!(hit, Cycle::new(10_000 + 4 + 60 + 32));
        assert_eq!(l4.stats().hits, 1);
        assert_eq!(l4.stats().misses, 1);
        assert_eq!(l4.stats().tag_cache_hits, 1);
        assert_eq!(l4.stats().tag_probes, 1);
    }

    #[test]
    fn writeback_write_allocates_and_dirties() {
        let (mut l4, mut dram) = tier();
        l4.writeback(blk(9), 128, Cycle::ZERO, &mut dram);
        assert!(l4.resident(blk(9)));
        assert!(l4.is_dirty(blk(9)));
        assert_eq!(l4.stats().dirty_fills, 1);
        assert_eq!(l4.stats().fills, 0, "write-allocate fetches nothing");
    }

    #[test]
    fn dirty_victim_writes_back_to_dram() {
        let (mut l4, mut dram) = tier();
        // 4 banks x 16 sets: find 5 blocks sharing one (bank, set).
        let mut colliders = Vec::new();
        let (b0, s0) = {
            let key = 0u64;
            (l4.map.lookup(key), l4.set_of(key))
        };
        let mut k = 0u64;
        while colliders.len() < 5 {
            if l4.map.lookup(k) == b0 && l4.set_of(k) == s0 {
                colliders.push(k);
            }
            k += 1;
        }
        let mut t = Cycle::ZERO;
        for &c in &colliders {
            t = l4.writeback(blk(c), 128, t, &mut dram) + 1;
        }
        assert_eq!(l4.stats().writebacks, 1, "5th dirty install evicts a dirty victim");
        assert!(!l4.resident(blk(colliders[0])), "LRU victim left");
    }

    #[test]
    fn warm_and_timed_paths_build_identical_state() {
        let (mut timed, mut dram) = tier();
        let mut warm = L4DramCache::new(small());
        let ops: Vec<(u64, bool)> = (0..600).map(|i| (i * 37 % 512, i % 3 == 0)).collect();
        let mut t = Cycle::ZERO;
        for &(b, wb) in &ops {
            if wb {
                t = timed.writeback(blk(b), 128, t, &mut dram) + 1;
                warm.warm_writeback(blk(b));
            } else {
                t = timed.fill(blk(b), 128, t, &mut dram) + 1;
                warm.warm_fill(blk(b));
            }
        }
        for id in 0..4usize {
            let (a, b) = (timed.banks[id].as_ref().unwrap(), warm.banks[id].as_ref().unwrap());
            assert_eq!(a.tags, b.tags, "bank {id} tags diverged");
            assert_eq!(a.dirty, b.dirty, "bank {id} dirty bits diverged");
        }
    }

    #[test]
    fn shrink_flushes_dirty_blocks_and_grow_starts_empty() {
        let (mut l4, mut dram) = tier();
        let mut t = Cycle::ZERO;
        for b in 0..256u64 {
            t = l4.writeback(blk(b), 128, t, &mut dram) + 1;
        }
        let resident_before: u64 = (0..256).filter(|&b| l4.resident(blk(b))).count() as u64;
        let busy_before = dram.busy_cycles();
        let done = l4.resize(2, Cycle::new(1_000_000), &mut dram);
        assert!(l4.stats().resize_writebacks > 0, "retired banks held dirty blocks");
        assert!(done > Cycle::new(1_000_000), "flush occupies the DRAM channel");
        assert!(dram.busy_cycles() > busy_before);
        assert_eq!(l4.n_banks(), 2);
        let resident_after: u64 = (0..256).filter(|&b| l4.resident(blk(b))).count() as u64;
        assert!(resident_after < resident_before, "retired banks' blocks miss now");

        let flushed = l4.stats().resize_writebacks;
        l4.resize(6, Cycle::new(2_000_000), &mut dram);
        assert_eq!(l4.stats().resize_writebacks, flushed, "grow flushes nothing");
        assert_eq!(l4.n_banks(), 6);
        assert_eq!(l4.map.bank_ids(), &[0, 1, 4, 5, 6, 7]);
    }

    #[test]
    fn state_roundtrips_through_snapshot_across_a_resize() {
        let (mut l4, mut dram) = tier();
        let mut t = Cycle::ZERO;
        for b in 0..200u64 {
            t = l4.fill(blk(b * 3), 128, t, &mut dram) + 1;
        }
        l4.resize(2, t, &mut dram);
        l4.resize(5, t, &mut dram);
        for b in 0..50u64 {
            t = l4.writeback(blk(b * 7), 128, t, &mut dram) + 1;
        }
        let mut e = Encoder::new();
        l4.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = L4DramCache::new(small());
        let mut d = Decoder::new(&bytes);
        fresh.load_state(&mut d).unwrap();
        d.finish().unwrap();
        for b in 0..600u64 {
            assert_eq!(fresh.resident(blk(b)), l4.resident(blk(b)), "block {b}");
            assert_eq!(fresh.is_dirty(blk(b)), l4.is_dirty(blk(b)), "block {b} dirty");
        }
        assert_eq!(fresh.n_banks(), 5);
    }

    #[test]
    fn snapshot_rejects_version_skew_and_wrong_magic() {
        let (l4, _) = tier();
        let mut e = Encoder::new();
        l4.save_state(&mut e);
        let mut bytes = e.into_bytes();
        // Version field sits right after the 8-byte magic.
        bytes[8] ^= 1;
        let mut fresh = L4DramCache::new(small());
        let mut d = Decoder::new(&bytes);
        assert_eq!(
            fresh.load_state(&mut d),
            Err(SnapshotError::Malformed("L4 snapshot version skew"))
        );
        let mut bytes2 = {
            let mut e = Encoder::new();
            l4.save_state(&mut e);
            e.into_bytes()
        };
        bytes2[0] ^= 0xff;
        let mut d = Decoder::new(&bytes2);
        assert_eq!(
            fresh.load_state(&mut d),
            Err(SnapshotError::Malformed("not an L4 snapshot section"))
        );
    }

    #[test]
    fn drain_clears_timing_but_not_contents() {
        let (mut l4, mut dram) = tier();
        l4.fill(blk(1), 128, Cycle::ZERO, &mut dram);
        let probes = l4.stats().tag_probes;
        l4.drain_timing();
        assert!(l4.resident(blk(1)));
        assert_eq!(l4.free_at, Cycle::ZERO);
        // The tag cache was cleared: the next access probes DRAM again.
        l4.fill(blk(1), 128, Cycle::new(500), &mut dram);
        assert_eq!(l4.stats().tag_probes, probes + 1);
    }
}
