//! The centralized set-associative tag array with forward pointers.
//!
//! A tag match works exactly as in a conventional set-associative cache
//! with sequential tag-data access, but a successful match additionally
//! returns the entry's **forward pointer** — the (d-group, frame) where the
//! block's data lives (paper Figure 1). Data replacement (eviction) is
//! per-set true LRU (Section 2.4.2).

use memsys::packed_lru::LruTable;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr};

/// A forward pointer: where a block's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FramePtr {
    /// d-group index (0 = fastest).
    pub group: u8,
    /// Frame index within the d-group.
    pub frame: u32,
}

/// A reverse pointer: which tag entry owns a frame (paper Figure 1's
/// "set i way j" annotation on each data frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagRef {
    /// Set index in the tag array.
    pub set: u32,
    /// Way within the set.
    pub way: u8,
}

/// Result of a tag probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagLookup {
    /// Block present: its location in the tag array and its forward pointer.
    Hit { at: TagRef, ptr: FramePtr },
    /// Block absent.
    Miss,
}

/// The eviction produced by making room for a new tag entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagEviction {
    /// The evicted block.
    pub block: BlockAddr,
    /// Whether it was dirty (needs writeback to memory).
    pub dirty: bool,
    /// The frame its data occupied, which becomes free.
    pub freed: FramePtr,
}

/// Per-entry status and forward pointer packed into one `u32` in the
/// [`TagArray`] metadata arena: bit 31 = valid, bit 30 = dirty, bits
/// 24..30 = d-group, bits 0..24 = frame index.
const META_VALID: u32 = 1 << 31;
const META_DIRTY: u32 = 1 << 30;
const META_GROUP_SHIFT: u32 = 24;
const META_FRAME_MASK: u32 = (1 << META_GROUP_SHIFT) - 1;

/// D-groups a forward pointer can name.
pub(crate) const MAX_GROUPS: usize = 1 << (30 - META_GROUP_SHIFT);
/// Frames per d-group a forward pointer can name.
pub(crate) const MAX_FRAMES: usize = 1 << META_GROUP_SHIFT;

/// The checkpoint word for the same entry keeps the flags 32 bits
/// higher (bit 63 = valid, bit 62 = dirty), the d-group in bits 48..56
/// and the frame index in bits 0..32.
const META_FLAGS: u32 = META_VALID | META_DIRTY;
const WORD_FLAGS_SHIFT: u32 = 32;
const WORD_GROUP_SHIFT: u32 = 48;

#[inline(always)]
fn pack_ptr(ptr: FramePtr) -> u32 {
    debug_assert!((ptr.group as usize) < MAX_GROUPS && (ptr.frame as usize) < MAX_FRAMES);
    ((ptr.group as u32) << META_GROUP_SHIFT) | ptr.frame
}

#[inline(always)]
fn unpack_ptr(meta: u32) -> FramePtr {
    FramePtr {
        group: ((meta >> META_GROUP_SHIFT) as usize & (MAX_GROUPS - 1)) as u8,
        frame: meta & META_FRAME_MASK,
    }
}

/// Widens a metadata entry to its checkpoint word.
#[inline(always)]
fn widen_meta(meta: u32) -> u64 {
    ((meta & META_FLAGS) as u64) << WORD_FLAGS_SHIFT
        | ((meta >> META_GROUP_SHIFT) as u64 & (MAX_GROUPS as u64 - 1)) << WORD_GROUP_SHIFT
        | (meta & META_FRAME_MASK) as u64
}

/// Narrows a checkpoint word to its metadata entry, dropping any bit the
/// entry has no room for; [`TagArray::load_state`] refuses a word that
/// loses one.
#[inline(always)]
fn narrow_meta(word: u64) -> u32 {
    (word >> WORD_FLAGS_SHIFT) as u32 & META_FLAGS
        | ((word >> WORD_GROUP_SHIFT) as u32 & (MAX_GROUPS as u32 - 1)) << META_GROUP_SHIFT
        | word as u32 & META_FRAME_MASK
}

/// The centralized tag array.
///
/// Layout (DESIGN.md §10): struct-of-arrays — a flat `Vec<u64>` of block
/// indices scanned on probes, a parallel `Vec<u32>` packing
/// valid/dirty/forward-pointer per entry, and a nibble-packed
/// [`LruTable`] for per-set data-replacement recency. Set selection is a
/// mask (set counts are asserted power-of-two).
#[derive(Debug, Clone)]
pub struct TagArray {
    blocks: Vec<u64>, // sets * assoc block indices, row-major by set
    meta: Vec<u32>,   // parallel packed valid/dirty/FramePtr
    lru: LruTable,
    sets: usize,
    assoc: u32,
    set_mask: u64,
}

impl TagArray {
    /// Creates a tag array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `assoc` is 0 or > 255.
    pub fn new(sets: usize, assoc: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0 && assoc <= 255, "associativity out of range");
        TagArray {
            blocks: vec![u64::MAX; sets * assoc as usize],
            meta: vec![0; sets * assoc as usize],
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

    /// Set index of `block`.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> u32 {
        (block.index() & self.set_mask) as u32
    }

    #[inline(always)]
    fn idx(&self, r: TagRef) -> usize {
        r.set as usize * self.assoc as usize + r.way as usize
    }

    /// Probes the tag array for `block`; on a hit updates per-set LRU and,
    /// for writes, the dirty bit.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> TagLookup {
        let set = self.set_of(block);
        let base = set as usize * self.assoc as usize;
        let target = block.index();
        for way in 0..self.assoc as u8 {
            let i = base + way as usize;
            if self.blocks[i] == target && self.meta[i] & META_VALID != 0 {
                if kind.is_write() {
                    self.meta[i] |= META_DIRTY;
                }
                self.lru.touch(set as usize, way as u32);
                return TagLookup::Hit {
                    at: TagRef { set, way },
                    ptr: unpack_ptr(self.meta[i]),
                };
            }
        }
        TagLookup::Miss
    }

    /// Pure probe without state updates.
    pub fn probe(&self, block: BlockAddr) -> Option<(TagRef, FramePtr)> {
        let set = self.set_of(block);
        let base = set as usize * self.assoc as usize;
        let target = block.index();
        for way in 0..self.assoc as u8 {
            let i = base + way as usize;
            if self.blocks[i] == target && self.meta[i] & META_VALID != 0 {
                return Some((TagRef { set, way }, unpack_ptr(self.meta[i])));
            }
        }
        None
    }

    /// Allocates a tag entry for `block`, evicting the set's LRU block if
    /// the set is full (conventional data replacement, Section 2.2 step 2).
    ///
    /// The new entry's forward pointer is `ptr` (where the caller will
    /// place the data); `dirty` seeds its dirty bit. Returns the location
    /// of the new entry and any eviction.
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
        // The miss path probes before allocating, so re-probing here is
        // redundant hot-path work; keep it as a debug-only guard.
        debug_assert!(self.probe(block).is_none(), "allocate of already-present block {block}");
        let set = self.set_of(block);
        let base = set as usize * self.assoc as usize;
        // Prefer an invalid way (first in way order).
        let mut target = None;
        for way in 0..self.assoc as u8 {
            if self.meta[base + way as usize] & META_VALID == 0 {
                target = Some(way);
                break;
            }
        }
        let (way, evicted) = match target {
            Some(way) => (way, None),
            None => {
                let way = self.lru.victim(set as usize) as u8;
                let old = self.meta[base + way as usize];
                (
                    way,
                    Some(TagEviction {
                        block: BlockAddr::from_index(self.blocks[base + way as usize]),
                        dirty: old & META_DIRTY != 0,
                        freed: unpack_ptr(old),
                    }),
                )
            }
        };
        let i = base + way as usize;
        self.blocks[i] = block.index();
        self.meta[i] = META_VALID | if dirty { META_DIRTY } else { 0 } | pack_ptr(ptr);
        self.lru.touch(set as usize, way as u32);
        (TagRef { set, way }, evicted)
    }

    /// Rewrites the forward pointer of the entry at `r` (a demotion or
    /// promotion moved its data; paper Figure 2 step 3).
    ///
    /// # Panics
    ///
    /// Panics if `r` names an invalid entry.
    #[inline]
    pub fn set_ptr(&mut self, r: TagRef, ptr: FramePtr) {
        let i = self.idx(r);
        assert!(self.meta[i] & META_VALID != 0, "set_ptr on invalid entry");
        self.meta[i] = (self.meta[i] & (META_VALID | META_DIRTY)) | pack_ptr(ptr);
    }

    /// The forward pointer of the entry at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` names an invalid entry.
    #[inline]
    pub fn ptr_of(&self, r: TagRef) -> FramePtr {
        let m = self.meta[self.idx(r)];
        assert!(m & META_VALID != 0, "ptr_of on invalid entry");
        unpack_ptr(m)
    }

    /// The block held by the entry at `r`, if valid.
    pub fn block_at(&self, r: TagRef) -> Option<BlockAddr> {
        let i = self.idx(r);
        (self.meta[i] & META_VALID != 0).then(|| BlockAddr::from_index(self.blocks[i]))
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }

    /// Serializes tags, packed metadata (valid/dirty/forward pointers,
    /// each widened to its `u64` checkpoint word), and per-set recency.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64_slice(&self.blocks);
        e.put_widened_u64_slice(&self.meta, widen_meta);
        self.lru.save_state(e);
    }

    /// Restores state written by [`TagArray::save_state`] into an array of
    /// identical geometry. A metadata word with stray bits, a d-group
    /// of 64 or more, or a frame of 2^24 or more is
    /// [`SnapshotError::Malformed`].
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        d.u64_slice_into(&mut self.blocks)?;
        d.narrowed_u64_slice_into(&mut self.meta, narrow_meta, widen_meta)?;
        self.lru.load_state(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn fp(group: u8, frame: u32) -> FramePtr {
        FramePtr { group, frame }
    }

    #[test]
    fn allocate_then_hit_returns_forward_pointer() {
        let mut t = TagArray::new(16, 4);
        let (r, ev) = t.allocate(blk(5), fp(0, 99), false);
        assert!(ev.is_none());
        match t.access(blk(5), AccessKind::Read) {
            TagLookup::Hit { at, ptr } => {
                assert_eq!(at, r);
                assert_eq!(ptr, fp(0, 99));
            }
            TagLookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut t = TagArray::new(4, 2);
        // Blocks 0, 4, 8 share set 0 in a 4-set array.
        t.allocate(blk(0), fp(0, 0), false);
        t.allocate(blk(4), fp(0, 1), false);
        t.access(blk(0), AccessKind::Read); // 4 becomes LRU
        let (_, ev) = t.allocate(blk(8), fp(0, 2), false);
        let ev = ev.expect("set full");
        assert_eq!(ev.block, blk(4));
        assert_eq!(ev.freed, fp(0, 1), "eviction frees the victim's frame");
        assert!(!ev.dirty);
    }

    #[test]
    fn write_dirties_and_eviction_reports_it() {
        let mut t = TagArray::new(4, 1);
        t.allocate(blk(0), fp(1, 7), false);
        t.access(blk(0), AccessKind::Write);
        let (_, ev) = t.allocate(blk(4), fp(0, 0), false);
        assert!(ev.expect("1-way set").dirty);
    }

    #[test]
    fn allocate_dirty_seeds_dirty_bit() {
        let mut t = TagArray::new(4, 1);
        t.allocate(blk(0), fp(0, 0), true);
        let (_, ev) = t.allocate(blk(4), fp(0, 1), false);
        assert!(ev.expect("evicts").dirty);
    }

    #[test]
    fn set_ptr_redirects_data_location() {
        let mut t = TagArray::new(4, 2);
        let (r, _) = t.allocate(blk(3), fp(0, 10), false);
        t.set_ptr(r, fp(2, 55));
        assert_eq!(t.ptr_of(r), fp(2, 55));
        match t.access(blk(3), AccessKind::Read) {
            TagLookup::Hit { ptr, .. } => assert_eq!(ptr, fp(2, 55)),
            TagLookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn probe_is_pure() {
        let mut t = TagArray::new(4, 2);
        t.allocate(blk(0), fp(0, 0), false);
        t.allocate(blk(4), fp(0, 1), false);
        // probe must not promote block 0 to MRU.
        assert!(t.probe(blk(0)).is_some());
        let (_, ev) = t.allocate(blk(8), fp(0, 2), false);
        assert_eq!(ev.expect("full set").block, blk(0));
    }

    #[test]
    fn block_at_and_occupancy() {
        let mut t = TagArray::new(4, 2);
        assert_eq!(t.occupancy(), 0);
        let (r, _) = t.allocate(blk(9), fp(0, 1), false);
        assert_eq!(t.block_at(r), Some(blk(9)));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(
            t.block_at(TagRef {
                set: r.set,
                way: 1 - r.way
            }),
            None
        );
    }

    // The already-present guard in `allocate` is a `debug_assert!`: in a
    // release build it would re-probe a set the miss path has just probed,
    // so the guard and this test exist in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already-present")]
    fn double_allocate_panics() {
        let mut t = TagArray::new(4, 2);
        t.allocate(blk(1), fp(0, 0), false);
        t.allocate(blk(1), fp(0, 1), false);
    }

    #[test]
    #[should_panic(expected = "invalid entry")]
    fn set_ptr_on_invalid_panics() {
        let mut t = TagArray::new(4, 2);
        t.set_ptr(TagRef { set: 0, way: 0 }, fp(0, 0));
    }

    /// A 4-set, 2-way array's payload with `word` as its first entry's
    /// metadata word: the block slice, then the metadata slice.
    fn payload_with_meta(word: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        TagArray::new(4, 2).save_state(&mut e);
        let mut bytes = e.into_bytes();
        let at = 8 + 8 * 8 + 8;
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        bytes
    }

    /// The metadata is saved as the wide `u64` words — bit 63 valid, bit
    /// 62 dirty, bits 48..56 d-group, low 32 bits frame — and every word
    /// a `u32` entry can hold loads back and re-saves to the same bytes.
    #[test]
    fn metadata_saves_as_wide_words_and_round_trips() {
        let mut t = TagArray::new(4, 2);
        t.allocate(blk(0), fp(63, MAX_FRAMES as u32 - 1), true);
        t.allocate(blk(1), fp(5, 77), false);
        let mut e = Encoder::new();
        t.save_state(&mut e);
        let bytes = e.into_bytes();
        let meta = |i: usize| {
            let at = 8 + 8 * 8 + 8 + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        };
        assert_eq!(meta(0), 1 << 63 | 1 << 62 | 63 << 48 | (MAX_FRAMES as u64 - 1));
        assert_eq!(meta(2), 1 << 63 | 5 << 48 | 77);
        assert_eq!(meta(1), 0);

        let mut back = TagArray::new(4, 2);
        let mut d = Decoder::new(&bytes);
        back.load_state(&mut d).unwrap();
        d.finish().unwrap();
        let mut again = Encoder::new();
        back.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(back.probe(blk(0)).map(|(_, p)| p), Some(fp(63, MAX_FRAMES as u32 - 1)));

        // An invalid entry's word round-trips whatever pointer it holds.
        let bytes = payload_with_meta(1 << 62 | 9 << 48 | 12);
        let mut d = Decoder::new(&bytes);
        back.load_state(&mut d).unwrap();
        let mut again = Encoder::new();
        back.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// A metadata word with a bit outside its fields, a d-group of 64 or
    /// more, or a frame of 2^24 or more is malformed.
    #[test]
    fn metadata_words_the_entry_cannot_hold_are_malformed() {
        for word in [
            1 << 63 | 1 << 61,
            1 << 32,
            1 << 47,
            1 << 56,
            1 << 63 | 64 << 48,
            255 << 48,
            1 << 63 | 1 << 24,
            0xFFFF_FFFF,
        ] {
            let bytes = payload_with_meta(word);
            let got = TagArray::new(4, 2).load_state(&mut Decoder::new(&bytes));
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{word:#x}: {got:?}");
        }
    }

    #[test]
    fn set_mapping_wraps() {
        let t = TagArray::new(8, 2);
        assert_eq!(t.set_of(blk(3)), 3);
        assert_eq!(t.set_of(blk(11)), 3);
    }
}
