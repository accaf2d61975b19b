//! Straight-line reference twin of the L4 DRAM cache.
//!
//! Same specification as [`L4DramCache`](super::L4DramCache), written
//! with the most obvious data structures available: an unsorted virtual
//! node list scanned linearly per lookup, per-set way vectors with an
//! explicit MRU→LRU order list, and a tag cache of `Option` slots. No
//! sorted ring, no flat tag arena, no packed LRU words, no dirty
//! bitmaps. The differential suite (`tests/differential.rs`) drives this
//! twin and the fast tier through identical access sequences — including
//! sequences straddling live resizes — and requires bit-identical
//! completion cycles, statistics, and resident/dirty state.
//!
//! The hash functions ([`mix64`](crate::chash::mix64) and the key/vnode
//! mixing) are shared with the fast path on purpose: they are the
//! *specification* of block placement, not an optimization over it.

use crate::chash::mix64;
use crate::memory::MainMemory;
use simbase::{BlockAddr, Cycle};

use super::{L4Config, L4Stats};

/// One way of a naive set: `(block index, dirty)`.
type NaiveWay = Option<(u64, bool)>;

/// One set: the ways plus an explicit recency order (MRU first).
#[derive(Debug, Clone)]
struct NaiveSet {
    ways: Vec<NaiveWay>,
    /// Way indices MRU→LRU; starts `0, 1, .., assoc-1` like `LruTable`.
    order: Vec<u8>,
}

impl NaiveSet {
    fn new(assoc: u32) -> Self {
        NaiveSet {
            ways: vec![None; assoc as usize],
            order: (0..assoc as u8).collect(),
        }
    }

    fn touch(&mut self, way: usize) {
        let pos = self.order.iter().position(|&w| w as usize == way).expect("way in order");
        let w = self.order.remove(pos);
        self.order.insert(0, w);
    }

    fn victim(&self) -> usize {
        *self.order.last().expect("non-empty set") as usize
    }
}

/// One naive bank: a vector of sets.
#[derive(Debug, Clone)]
struct NaiveBank {
    sets: Vec<NaiveSet>,
}

/// The reference L4: same config, stats, and timing contract as the
/// fast [`L4DramCache`](super::L4DramCache).
#[derive(Debug, Clone)]
pub struct NaiveL4 {
    cfg: L4Config,
    sets_per_bank: usize,
    /// Unsorted `(position, bank)` virtual nodes of the live banks.
    vnodes: Vec<(u64, u32)>,
    /// Live bank ids in insertion order (ascending by construction).
    live: Vec<u32>,
    /// Next bank id to allocate (monotonic, never reused).
    next_bank: u32,
    /// Bank storage indexed by id; retired slots are `None`.
    banks: Vec<Option<NaiveBank>>,
    /// Direct-mapped tag-cache slots holding `(bank, set)` keys.
    tag_cache: Vec<Option<u64>>,
    free_at: Cycle,
    stats: L4Stats,
}

impl NaiveL4 {
    /// Builds the reference tier with every configured bank empty.
    pub fn new(cfg: L4Config) -> Self {
        let sets = (cfg.bank_blocks / cfg.assoc as u64) as usize;
        let live: Vec<u32> = (0..cfg.n_banks).collect();
        let mut naive = NaiveL4 {
            sets_per_bank: sets,
            vnodes: Vec::new(),
            live: live.clone(),
            next_bank: cfg.n_banks,
            banks: live
                .iter()
                .map(|_| {
                    Some(NaiveBank {
                        sets: (0..sets).map(|_| NaiveSet::new(cfg.assoc)).collect(),
                    })
                })
                .collect(),
            tag_cache: vec![None; cfg.tag_cache_entries as usize],
            free_at: Cycle::ZERO,
            stats: L4Stats::default(),
            cfg,
        };
        naive.rebuild_vnodes();
        naive
    }

    fn rebuild_vnodes(&mut self) {
        self.vnodes.clear();
        for &bank in &self.live {
            for replica in 0..self.cfg.vnodes_per_bank {
                let pos = mix64(self.cfg.hash_seed ^ mix64(((bank as u64) << 32) | replica as u64));
                self.vnodes.push((pos, bank));
            }
        }
    }

    /// The owning bank of `key`: the smallest `(position, bank)` virtual
    /// node at or clockwise of the key's hash, wrapping to the global
    /// minimum — a linear scan over the unsorted node list.
    fn lookup(&self, key: u64) -> u32 {
        let h = mix64(key ^ self.cfg.hash_seed.rotate_left(17));
        let successor = self.vnodes.iter().filter(|&&(pos, _)| pos >= h).min();
        match successor {
            Some(&(_, bank)) => bank,
            None => self.vnodes.iter().min().expect("non-empty ring").1,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets_per_bank as u64) as usize
    }

    /// Event counters since the last [`NaiveL4::reset_stats`].
    pub fn stats(&self) -> L4Stats {
        self.stats
    }

    /// Zeroes the event counters.
    pub fn reset_stats(&mut self) {
        self.stats = L4Stats::default();
    }

    /// Drains timing-only state (channel occupancy, tag cache).
    pub fn drain_timing(&mut self) {
        self.free_at = Cycle::ZERO;
        self.tag_cache.iter_mut().for_each(|e| *e = None);
    }

    /// Live bank count.
    pub fn n_banks(&self) -> u32 {
        self.live.len() as u32
    }

    fn resolve_tags(&mut self, bank: u32, set: usize, now: Cycle) -> Cycle {
        let key = ((bank as u64) << 32) | set as u64;
        let idx = (mix64(key) & (self.tag_cache.len() as u64 - 1)) as usize;
        if self.tag_cache[idx] == Some(key) {
            self.stats.tag_cache_hits += 1;
            now + self.cfg.tag_sram_latency
        } else {
            self.tag_cache[idx] = Some(key);
            self.stats.tag_probes += 1;
            let start = now.max(self.free_at);
            self.free_at = start + self.cfg.cycles_per_8b;
            start + self.cfg.tag_probe_latency
        }
    }

    fn probe(&self, bank: u32, set: usize, key: u64) -> Option<usize> {
        let sets = &self.banks[bank as usize].as_ref().expect("live bank").sets;
        sets[set].ways.iter().position(|w| matches!(w, Some((k, _)) if *k == key))
    }

    fn data_burst(&mut self, at: Cycle, bytes: u64) -> Cycle {
        let start = at.max(self.free_at);
        let burst = self.cfg.cycles_per_8b * bytes.div_ceil(8);
        self.free_at = start + burst;
        start + self.cfg.base_latency + burst
    }

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
        let s = &mut self.banks[bank as usize].as_mut().expect("live bank").sets[set];
        let way = s.victim();
        let victim_dirty = matches!(s.ways[way], Some((_, true)));
        s.ways[way] = Some((key, dirty));
        s.touch(way);
        if victim_dirty {
            self.stats.writebacks += 1;
            let _ = dram.channel_transfer(bytes, at);
        }
        let start = at.max(self.free_at);
        let burst = self.cfg.cycles_per_8b * bytes.div_ceil(8);
        self.free_at = start + burst;
        start + self.cfg.base_latency + burst
    }

    /// Reference twin of [`L4DramCache::fill`](super::L4DramCache::fill).
    pub fn fill(
        &mut self,
        block: BlockAddr,
        bytes: u64,
        now: Cycle,
        dram: &mut MainMemory,
    ) -> Cycle {
        self.stats.accesses += 1;
        let key = block.index();
        let bank = self.lookup(key);
        let set = self.set_of(key);
        let tag_done = self.resolve_tags(bank, set, now);
        match self.probe(bank, set, key) {
            Some(way) => {
                self.stats.hits += 1;
                self.banks[bank as usize].as_mut().expect("live bank").sets[set].touch(way);
                self.data_burst(tag_done, bytes)
            }
            None => {
                self.stats.misses += 1;
                let arrival = dram.channel_transfer(bytes, tag_done);
                let _ = self.install(bank, set, key, false, arrival, bytes, dram);
                self.stats.fills += 1;
                arrival
            }
        }
    }

    /// Reference twin of
    /// [`L4DramCache::writeback`](super::L4DramCache::writeback).
    pub fn writeback(
        &mut self,
        block: BlockAddr,
        bytes: u64,
        now: Cycle,
        dram: &mut MainMemory,
    ) -> Cycle {
        self.stats.accesses += 1;
        let key = block.index();
        let bank = self.lookup(key);
        let set = self.set_of(key);
        let tag_done = self.resolve_tags(bank, set, now);
        match self.probe(bank, set, key) {
            Some(way) => {
                self.stats.hits += 1;
                let s = &mut self.banks[bank as usize].as_mut().expect("live bank").sets[set];
                s.ways[way] = Some((key, true));
                s.touch(way);
                self.data_burst(tag_done, bytes)
            }
            None => {
                self.stats.misses += 1;
                self.stats.dirty_fills += 1;
                self.install(bank, set, key, true, tag_done, bytes, dram)
            }
        }
    }

    /// Reference twin of
    /// [`L4DramCache::warm_fill`](super::L4DramCache::warm_fill).
    pub fn warm_fill(&mut self, block: BlockAddr) {
        self.warm(block, false);
    }

    /// Reference twin of
    /// [`L4DramCache::warm_writeback`](super::L4DramCache::warm_writeback).
    pub fn warm_writeback(&mut self, block: BlockAddr) {
        self.warm(block, true);
    }

    fn warm(&mut self, block: BlockAddr, dirty: bool) {
        let key = block.index();
        let bank = self.lookup(key);
        let set = self.set_of(key);
        match self.probe(bank, set, key) {
            Some(way) => {
                let s = &mut self.banks[bank as usize].as_mut().expect("live bank").sets[set];
                if dirty {
                    s.ways[way] = Some((key, true));
                }
                s.touch(way);
            }
            None => {
                let s = &mut self.banks[bank as usize].as_mut().expect("live bank").sets[set];
                let way = s.victim();
                s.ways[way] = Some((key, dirty));
                s.touch(way);
            }
        }
    }

    /// Reference twin of
    /// [`L4DramCache::resize`](super::L4DramCache::resize): LIFO bank
    /// retirement with an eager dirty flush, fresh monotonic ids on
    /// growth, tag cache cleared.
    pub fn resize(&mut self, target: u32, now: Cycle, dram: &mut MainMemory) -> Cycle {
        assert!(target > 0, "cannot shrink the L4 to zero banks");
        self.stats.resizes += 1;
        let mut done = now;
        while (self.live.len() as u32) > target {
            let id = self.live.pop().expect("non-empty");
            let bank = self.banks[id as usize].take().expect("retired bank was live");
            for set in &bank.sets {
                for way in &set.ways {
                    if matches!(way, Some((_, true))) {
                        self.stats.resize_writebacks += 1;
                        done = dram.channel_transfer(self.cfg.block_bytes, now);
                    }
                }
            }
        }
        while (self.live.len() as u32) < target {
            let id = self.next_bank;
            self.next_bank += 1;
            self.live.push(id);
            if self.banks.len() <= id as usize {
                self.banks.resize_with(id as usize + 1, || None);
            }
            self.banks[id as usize] = Some(NaiveBank {
                sets: (0..self.sets_per_bank).map(|_| NaiveSet::new(self.cfg.assoc)).collect(),
            });
        }
        self.rebuild_vnodes();
        self.tag_cache.iter_mut().for_each(|e| *e = None);
        done
    }

    /// Whether `block` is resident in the bank the map names today.
    pub fn resident(&self, block: BlockAddr) -> bool {
        let key = block.index();
        self.probe(self.lookup(key), self.set_of(key), key).is_some()
    }

    /// Whether `block` is resident and dirty.
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        let key = block.index();
        let (bank, set) = (self.lookup(key), self.set_of(key));
        match self.probe(bank, set, key) {
            Some(way) => matches!(
                self.banks[bank as usize].as_ref().expect("live bank").sets[set].ways[way],
                Some((_, true))
            ),
            None => false,
        }
    }
}
