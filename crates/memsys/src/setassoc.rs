//! A generic set-associative cache tag store.
//!
//! Used directly for the L1s and the conventional L2/L3, and as the
//! centralized tag array of NuRAPID (which extends each entry with a
//! forward pointer) and the per-bank tag arrays of D-NUCA.

use crate::packed_lru::LruTable;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Capacity};

/// Location of a block within the cache: `(set, way)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayRef {
    /// Set index.
    pub set: usize,
    /// Way within the set.
    pub way: u32,
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block is present at this location.
    Hit(WayRef),
    /// The block is absent.
    Miss,
}

impl Lookup {
    /// True for [`Lookup::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit(_))
    }
}

/// A block displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced block.
    pub block: BlockAddr,
    /// Whether the displaced block was dirty (needs writeback).
    pub dirty: bool,
    /// Where the displaced block lived.
    pub from: WayRef,
}

/// Per-line status bits, packed into one byte in the [`SetAssocCache`]
/// flags arena.
const VALID: u8 = 1 << 0;
const DIRTY: u8 = 1 << 1;

/// A set-associative cache directory with writeback dirty tracking.
///
/// This structure tracks *presence* (tags), not data contents or timing;
/// timing is layered on by the owning cache model.
///
/// Layout (DESIGN.md §9): struct-of-arrays — one flat `Vec<u64>` of block
/// indices and one flat `Vec<u8>` of valid/dirty flags, both row-major by
/// set — so a set probe is a short contiguous scan of `assoc` u64s, and
/// set selection is a single mask (set counts are asserted power-of-two).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    blocks: Vec<u64>, // sets * assoc block indices, row-major by set
    flags: Vec<u8>,   // parallel VALID | DIRTY bits
    lru: LruTable,
    sets: usize,
    assoc: u32,
    set_mask: u64, // sets - 1
}

impl SetAssocCache {
    /// Builds a cache directory of `capacity` with `block_bytes` blocks and
    /// `assoc` ways, evicting the least-recently-used way of a full set
    /// (the paper's data replacement, Section 2.4.2).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// a power-of-two number of sets).
    pub fn new(capacity: Capacity, block_bytes: u64, assoc: u32) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        let blocks = capacity.bytes() / block_bytes;
        assert!(blocks.is_multiple_of(assoc as u64), "capacity must divide into whole sets");
        let sets = (blocks / assoc as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        SetAssocCache {
            blocks: vec![u64::MAX; sets * assoc as usize],
            flags: vec![0; sets * assoc as usize],
            lru: LruTable::new(sets, assoc),
            sets,
            assoc,
            set_mask: sets as u64 - 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Set index for `block`.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }

    #[inline]
    fn slot(&self, r: WayRef) -> usize {
        r.set * self.assoc as usize + r.way as usize
    }

    /// Looks up `block` without changing any state (a pure probe).
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Lookup {
        let set = self.set_of(block);
        let base = set * self.assoc as usize;
        let idx = block.index();
        for way in 0..self.assoc {
            let i = base + way as usize;
            if self.flags[i] & VALID != 0 && self.blocks[i] == idx {
                return Lookup::Hit(WayRef { set, way });
            }
        }
        Lookup::Miss
    }

    /// Looks up `block`; on a hit, updates recency and (for writes) the
    /// dirty bit.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> Lookup {
        match self.probe(block) {
            Lookup::Hit(r) => {
                self.lru.touch(r.set, r.way);
                if kind.is_write() {
                    let i = self.slot(r);
                    self.flags[i] |= DIRTY;
                }
                Lookup::Hit(r)
            }
            Lookup::Miss => Lookup::Miss,
        }
    }

    /// Fills `block` into its set, evicting a victim if the set is full.
    /// The filled block becomes MRU; `dirty` seeds its dirty bit
    /// (write-allocate stores fill dirty).
    ///
    /// Returns the eviction, if any. Filling a block that is already
    /// present is a logic error and panics.
    pub fn fill(&mut self, block: BlockAddr, dirty: bool) -> Option<Eviction> {
        // The caller owns the probe-then-fill protocol; re-probing here is
        // redundant work on the hot path, so it is a debug-only guard.
        debug_assert!(!self.probe(block).is_hit(), "fill of already-present block {block}");
        let set = self.set_of(block);
        let base = set * self.assoc as usize;
        // Prefer an invalid way (first in way order, matching the scan the
        // AoS implementation performed).
        let mut target = None;
        for way in 0..self.assoc {
            if self.flags[base + way as usize] & VALID == 0 {
                target = Some(way);
                break;
            }
        }
        let (way, evicted) = match target {
            Some(way) => (way, None),
            None => {
                let way = self.lru.victim(set);
                let i = base + way as usize;
                (
                    way,
                    Some(Eviction {
                        block: BlockAddr::from_index(self.blocks[i]),
                        dirty: self.flags[i] & DIRTY != 0,
                        from: WayRef { set, way },
                    }),
                )
            }
        };
        let i = base + way as usize;
        self.blocks[i] = block.index();
        self.flags[i] = VALID | if dirty { DIRTY } else { 0 };
        self.lru.touch(set, way);
        evicted
    }

    /// Invalidates `block` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        match self.probe(block) {
            Lookup::Hit(r) => {
                let i = self.slot(r);
                let dirty = self.flags[i] & DIRTY != 0;
                self.blocks[i] = u64::MAX;
                self.flags[i] = 0;
                Some(dirty)
            }
            Lookup::Miss => None,
        }
    }

    /// Serializes the full directory state: tags, valid/dirty flags, and
    /// replacement state.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64_slice(&self.blocks);
        e.put_u8_slice(&self.flags);
        self.lru.save_state(e);
    }

    /// Restores state written by [`SetAssocCache::save_state`] into a cache
    /// of identical geometry.
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        d.u64_slice_into(&mut self.blocks)?;
        d.u8_slice_into(&mut self.flags)?;
        self.lru.load_state(d)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// The block resident at `r`, if any.
    pub fn block_at(&self, r: WayRef) -> Option<BlockAddr> {
        let i = self.slot(r);
        (self.flags[i] & VALID != 0).then(|| BlockAddr::from_index(self.blocks[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap_kib: u64, assoc: u32) -> SetAssocCache {
        SetAssocCache::new(Capacity::from_kib(cap_kib), 64, assoc)
    }

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn geometry() {
        let c = cache(64, 2); // 64KB / 64B / 2-way = 512 sets
        assert_eq!(c.sets(), 512);
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.set_of(blk(513)), 1);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache(64, 2);
        assert_eq!(c.access(blk(7), AccessKind::Read), Lookup::Miss);
        assert_eq!(c.fill(blk(7), false), None);
        assert!(c.access(blk(7), AccessKind::Read).is_hit());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn conflicting_fills_evict_lru() {
        let mut c = cache(64, 2);
        let s = c.sets() as u64;
        // Three blocks in the same set of a 2-way cache.
        c.fill(blk(0), false);
        c.fill(blk(s), false);
        c.access(blk(0), AccessKind::Read); // 0 becomes MRU; LRU is s
        let ev = c.fill(blk(2 * s), false).expect("must evict");
        assert_eq!(ev.block, blk(s));
        assert!(!ev.dirty);
        assert!(c.probe(blk(0)).is_hit());
        assert!(!c.probe(blk(s)).is_hit());
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = cache(64, 2);
        let s = c.sets() as u64;
        c.fill(blk(0), false);
        c.access(blk(0), AccessKind::Write);
        c.fill(blk(s), false);
        c.access(blk(s), AccessKind::Read); // 0 is LRU now
        let ev = c.fill(blk(2 * s), false).expect("evicts block 0");
        assert_eq!(ev.block, blk(0));
        assert!(ev.dirty, "written block must evict dirty");
    }

    #[test]
    fn fill_dirty_seeds_dirty_bit() {
        let mut c = cache(64, 2);
        c.fill(blk(0), true);
        assert_eq!(c.invalidate(blk(0)), Some(true));
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = cache(64, 2);
        c.fill(blk(1), false);
        c.fill(blk(1), false);
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = cache(64, 2);
        c.fill(blk(3), true);
        assert_eq!(c.invalidate(blk(3)), Some(true));
        assert_eq!(c.invalidate(blk(3)), None);
        assert!(!c.probe(blk(3)).is_hit());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn probe_does_not_disturb_recency() {
        let mut c = cache(64, 2);
        let s = c.sets() as u64;
        c.fill(blk(0), false);
        c.fill(blk(s), false); // LRU = 0
        let _ = c.probe(blk(0)); // pure probe: 0 stays LRU
        let ev = c.fill(blk(2 * s), false).unwrap();
        assert_eq!(ev.block, blk(0));
    }

    #[test]
    fn block_at_reports_contents() {
        let mut c = cache(64, 2);
        c.fill(blk(9), false);
        let r = match c.probe(blk(9)) {
            Lookup::Hit(r) => r,
            Lookup::Miss => panic!("expected hit"),
        };
        assert_eq!(c.block_at(r), Some(blk(9)));
        assert_eq!(
            c.block_at(WayRef {
                set: r.set,
                way: 1 - r.way
            }),
            None
        );
    }

    #[test]
    fn fills_prefer_invalid_ways() {
        let mut c = cache(64, 4);
        let s = c.sets() as u64;
        for i in 0..4 {
            assert_eq!(c.fill(blk(i * s), false), None, "way {i} should be free");
        }
        assert!(c.fill(blk(4 * s), false).is_some());
    }

    #[test]
    fn state_roundtrip_preserves_contents_dirt_and_recency() {
        let mut c = cache(64, 2);
        let s = c.sets() as u64;
        c.fill(blk(0), false);
        c.fill(blk(s), true);
        c.access(blk(0), AccessKind::Write); // 0 dirty + MRU; s is LRU
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = cache(64, 2);
        let mut d = Decoder::new(&bytes);
        fresh.load_state(&mut d).unwrap();
        d.finish().unwrap();
        assert!(fresh.probe(blk(0)).is_hit());
        assert!(fresh.probe(blk(s)).is_hit());
        let ev = fresh.fill(blk(2 * s), false).expect("full set evicts");
        assert_eq!(ev.block, blk(s), "restored recency must pick the same victim");
        assert!(ev.dirty, "restored dirty bit");
        assert_eq!(fresh.invalidate(blk(0)), Some(true));
    }

    #[test]
    fn load_rejects_mismatched_geometry() {
        let c = cache(64, 2);
        let mut e = Encoder::new();
        c.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut other = cache(64, 4);
        let mut d = Decoder::new(&bytes);
        assert!(other.load_state(&mut d).is_err());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = SetAssocCache::new(Capacity::from_bytes(3 * 64 * 2), 64, 2);
    }
}
