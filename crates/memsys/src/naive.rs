//! Naive reference implementations: the pre-flat-arena cache structures,
//! kept verbatim as differential-testing oracles (DESIGN.md §9).
//!
//! The optimized [`crate::setassoc::SetAssocCache`] and
//! [`crate::packed_lru::LruTable`] must be *observably identical* to these
//! — same hit/miss results, same victims, same evictions, same dirty bits
//! — for every access stream. `tests/differential.rs` at the workspace
//! root enforces that with randomized simkit properties; these types are
//! `pub` (not `#[cfg(test)]`) solely so those integration tests can see
//! them. Nothing on the simulation hot path uses this module.
//!
//! Do not "improve" this code: its value is that it is the obviously
//! correct array-of-structs / `Vec` implementation the optimized forms are
//! measured against.

use crate::setassoc::{Eviction, Lookup, WayRef};
use simbase::{AccessKind, BlockAddr, Capacity};

/// Naive per-set LRU recency order: `order[set]` lists ways MRU→LRU in a
/// `Vec<u8>`, updated by remove + insert. The oracle for
/// [`crate::packed_lru::LruTable`].
#[derive(Debug, Clone)]
pub struct NaiveLru {
    order: Vec<Vec<u8>>,
}

impl NaiveLru {
    /// Every set starts in way order `0, 1, .., assoc-1` (way 0 MRU).
    pub fn new(sets: usize, assoc: u32) -> Self {
        assert!((1..=255).contains(&assoc), "associativity out of range");
        NaiveLru {
            order: (0..sets).map(|_| (0..assoc as u8).collect()).collect(),
        }
    }

    /// Moves `way` to MRU.
    pub fn touch(&mut self, set: usize, way: u32) {
        let o = &mut self.order[set];
        let pos = o.iter().position(|&w| w as u32 == way).expect("way must exist in LRU order");
        let w = o.remove(pos);
        o.insert(0, w);
    }

    /// The LRU way (eviction victim).
    pub fn victim(&self, set: usize) -> u32 {
        *self.order[set].last().expect("non-empty set") as u32
    }

    /// Recency position of `way` (0 = MRU).
    pub fn position_of(&self, set: usize, way: u32) -> usize {
        self.order[set].iter().position(|&w| w as u32 == way).expect("way must exist")
    }

    /// The way at recency position `pos` (0 = MRU).
    pub fn way_at(&self, set: usize, pos: usize) -> u32 {
        self.order[set][pos] as u32
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
}

const INVALID: Line = Line {
    block: BlockAddr::from_index(u64::MAX),
    valid: false,
    dirty: false,
};

/// The pre-rewrite array-of-structs set-associative directory, preserved
/// as the oracle for [`crate::setassoc::SetAssocCache`]. Same public
/// protocol: probe / access / fill / invalidate with identical victim
/// choices and eviction reports.
#[derive(Debug, Clone)]
pub struct NaiveSetAssocCache {
    lines: Vec<Line>, // sets * assoc, row-major by set
    lru: NaiveLru,
    sets: usize,
    assoc: u32,
}

impl NaiveSetAssocCache {
    /// Mirrors `SetAssocCache::new`, including all geometry panics.
    pub fn new(capacity: Capacity, block_bytes: u64, assoc: u32) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        let blocks = capacity.bytes() / block_bytes;
        assert!(blocks.is_multiple_of(assoc as u64), "capacity must divide into whole sets");
        let sets = (blocks / assoc as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        NaiveSetAssocCache {
            lines: vec![INVALID; sets * assoc as usize],
            lru: NaiveLru::new(sets, assoc),
            sets,
            assoc,
        }
    }

    /// Set index for `block` (explicit modulo, as before the rewrite).
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets as u64) as usize
    }

    fn line(&self, r: WayRef) -> &Line {
        &self.lines[r.set * self.assoc as usize + r.way as usize]
    }

    fn line_mut(&mut self, r: WayRef) -> &mut Line {
        &mut self.lines[r.set * self.assoc as usize + r.way as usize]
    }

    /// Pure lookup.
    pub fn probe(&self, block: BlockAddr) -> Lookup {
        let set = self.set_of(block);
        for way in 0..self.assoc {
            let l = self.line(WayRef { set, way });
            if l.valid && l.block == block {
                return Lookup::Hit(WayRef { set, way });
            }
        }
        Lookup::Miss
    }

    /// Lookup with recency/dirty update on hit.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> Lookup {
        match self.probe(block) {
            Lookup::Hit(r) => {
                self.lru.touch(r.set, r.way);
                if kind.is_write() {
                    self.line_mut(r).dirty = true;
                }
                Lookup::Hit(r)
            }
            Lookup::Miss => Lookup::Miss,
        }
    }

    /// Fill with first-invalid-way preference, then the LRU victim.
    pub fn fill(&mut self, block: BlockAddr, dirty: bool) -> Option<Eviction> {
        assert!(!self.probe(block).is_hit(), "fill of already-present block {block}");
        let set = self.set_of(block);
        let mut target = None;
        for way in 0..self.assoc {
            if !self.line(WayRef { set, way }).valid {
                target = Some(WayRef { set, way });
                break;
            }
        }
        let (r, evicted) = match target {
            Some(r) => (r, None),
            None => {
                let way = self.lru.victim(set);
                let r = WayRef { set, way };
                let old = *self.line(r);
                (
                    r,
                    Some(Eviction {
                        block: old.block,
                        dirty: old.dirty,
                        from: r,
                    }),
                )
            }
        };
        *self.line_mut(r) = Line {
            block,
            valid: true,
            dirty,
        };
        self.lru.touch(r.set, r.way);
        evicted
    }

    /// Invalidates `block` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        match self.probe(block) {
            Lookup::Hit(r) => {
                let dirty = self.line(r).dirty;
                *self.line_mut(r) = INVALID;
                Some(dirty)
            }
            Lookup::Miss => None,
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// The block resident at `r`, if any.
    pub fn block_at(&self, r: WayRef) -> Option<BlockAddr> {
        let l = self.line(r);
        l.valid.then_some(l.block)
    }
}
