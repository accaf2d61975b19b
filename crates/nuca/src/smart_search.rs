//! The smart-search (ss) array: partial tags cached near the core.
//!
//! D-NUCA's ss policies keep the 7 *least-significant* tag bits of every
//! block in a small array by the processor (Section 4: "We use the least
//! significant tag bits to decrease the probability of false hits").
//! A lookup compares the requested block's partial tag against all ways of
//! its set: matching positions are candidates (possibly false hits); no
//! match anywhere guarantees a miss, which lets ss-performance start the
//! memory access early.

use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::BlockAddr;

/// Number of partial-tag bits cached per block (paper Section 4).
pub const PARTIAL_TAG_BITS: u32 = 7;

/// Entry bit marking the way occupied; the low 7 bits hold the partial
/// tag, so one byte encodes the whole entry and a single compare against
/// `VALID | tag` decides a match.
const VALID: u8 = 0x80;

/// The smart-search array for one cache: `sets × ways` 7-bit partial tags.
///
/// Entries are packed one byte per way (valid bit + tag), and lookups
/// return a way bitmask rather than an allocated list — the hot path runs
/// one probe per access and must not touch the allocator.
#[derive(Debug, Clone)]
pub struct SmartSearchArray {
    /// `sets * ways` packed entries: `VALID | partial_tag`, or 0 if empty.
    entries: Vec<u8>,
    ways: u32,
    set_mask: u64,
    set_bits: u32,
}

impl SmartSearchArray {
    /// Creates an array for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero or exceeds
    /// 64 (lookups report candidates as a `u64` way mask).
    pub fn new(sets: usize, ways: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        assert!(ways <= 64, "way mask is 64 bits");
        SmartSearchArray {
            entries: vec![0; sets * ways as usize],
            ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
        }
    }

    /// The partial tag of `block`: its least-significant tag bits (the
    /// bits just above the set index).
    pub fn partial_tag(&self, block: BlockAddr) -> u8 {
        ((block.index() >> self.set_bits) & ((1 << PARTIAL_TAG_BITS) - 1)) as u8
    }

    /// Set index of `block`.
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }

    #[inline]
    fn idx(&self, set: usize, way: u32) -> usize {
        set * self.ways as usize + way as usize
    }

    /// Looks up `block`: returns a bitmask of the ways whose partial tags
    /// match (candidate locations; a superset of the true location). Bit
    /// `w` set means way `w` is a candidate.
    #[inline]
    pub fn lookup_mask(&self, block: BlockAddr) -> u64 {
        let probe = VALID | self.partial_tag(block);
        let base = self.set_of(block) * self.ways as usize;
        let mut mask = 0u64;
        for w in 0..self.ways as usize {
            mask |= ((self.entries[base + w] == probe) as u64) << w;
        }
        mask
    }

    /// Looks up `block` as an ascending list of candidate ways (the
    /// list-building convenience over [`Self::lookup_mask`]).
    pub fn lookup(&self, block: BlockAddr) -> Vec<u32> {
        let mut mask = self.lookup_mask(block);
        let mut ways = Vec::with_capacity(mask.count_ones() as usize);
        while mask != 0 {
            ways.push(mask.trailing_zeros());
            mask &= mask - 1;
        }
        ways
    }

    /// Records `block` as resident in `way` of its set.
    #[inline]
    pub fn insert(&mut self, block: BlockAddr, way: u32) {
        let entry = VALID | self.partial_tag(block);
        let i = self.idx(self.set_of(block), way);
        self.entries[i] = entry;
    }

    /// Invalidates `way` of `block`'s set.
    #[inline]
    pub fn invalidate(&mut self, block: BlockAddr, way: u32) {
        let i = self.idx(self.set_of(block), way);
        self.entries[i] = 0;
    }

    /// Swaps the recorded contents of two ways of `block`'s set (mirrors a
    /// bubble swap in the banks).
    #[inline]
    pub fn swap(&mut self, block: BlockAddr, way_a: u32, way_b: u32) {
        let set = self.set_of(block);
        let (a, b) = (self.idx(set, way_a), self.idx(set, way_b));
        self.entries.swap(a, b);
    }

    /// Total storage in bits (the paper's 7 bits per block).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * PARTIAL_TAG_BITS as u64
    }

    /// Serialises the packed partial-tag entries.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u8_slice(&self.entries);
    }

    /// Restores entries written by [`Self::save_state`] into an array of
    /// the same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if the entry count differs.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        d.u8_slice_into(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn resident_block_is_always_a_candidate() {
        let mut s = SmartSearchArray::new(16, 4);
        s.insert(blk(0x123), 2);
        assert!(s.lookup(blk(0x123)).contains(&2));
    }

    #[test]
    fn empty_array_reports_no_candidates() {
        let s = SmartSearchArray::new(16, 4);
        assert!(s.lookup(blk(99)).is_empty());
        assert_eq!(s.lookup_mask(blk(99)), 0);
    }

    #[test]
    fn false_hits_happen_when_partial_tags_collide() {
        let mut s = SmartSearchArray::new(16, 4);
        // Two blocks in the same set whose tags agree in the low 7 bits:
        // tag differs only above bit 7.
        let a = blk(5); // set 5, tag 0
        let b = blk(5 + 16 * (1 << PARTIAL_TAG_BITS) as u64); // same set, same partial tag
        assert_eq!(s.partial_tag(a), s.partial_tag(b));
        s.insert(a, 0);
        // Looking up b finds way 0 as a (false) candidate.
        assert_eq!(s.lookup(b), vec![0]);
        assert_eq!(s.lookup_mask(b), 1);
    }

    #[test]
    fn different_partial_tags_do_not_collide() {
        let mut s = SmartSearchArray::new(16, 4);
        let a = blk(5);
        let c = blk(5 + 16); // same set, partial tag 1
        assert_ne!(s.partial_tag(a), s.partial_tag(c));
        s.insert(a, 0);
        assert!(s.lookup(c).is_empty());
    }

    #[test]
    fn invalidate_removes_candidate() {
        let mut s = SmartSearchArray::new(16, 4);
        s.insert(blk(7), 1);
        s.invalidate(blk(7), 1);
        assert!(s.lookup(blk(7)).is_empty());
    }

    #[test]
    fn swap_mirrors_bank_movement() {
        let mut s = SmartSearchArray::new(16, 4);
        s.insert(blk(3), 3);
        s.swap(blk(3), 3, 0);
        assert_eq!(s.lookup(blk(3)), vec![0]);
    }

    #[test]
    fn mask_and_list_views_agree() {
        let mut s = SmartSearchArray::new(16, 8);
        for w in [1u32, 4, 6] {
            s.insert(blk(9), w);
        }
        let mask = s.lookup_mask(blk(9));
        assert_eq!(mask, (1 << 1) | (1 << 4) | (1 << 6));
        assert_eq!(s.lookup(blk(9)), vec![1, 4, 6]);
    }

    #[test]
    fn storage_matches_seven_bits_per_block() {
        // The paper's 8-MB/128-B/16-way cache: 4096 sets x 16 ways x 7 bits
        // = 56 KB of partial tags.
        let s = SmartSearchArray::new(4096, 16);
        assert_eq!(s.storage_bits(), 4096 * 16 * 7);
        assert_eq!(s.storage_bits() / 8 / 1024, 56);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = SmartSearchArray::new(10, 4);
    }

    #[test]
    fn state_roundtrips_and_rejects_geometry_mismatch() {
        let mut s = SmartSearchArray::new(16, 4);
        for w in 0..4u32 {
            s.insert(blk(3 + w as u64 * 16), w);
        }
        let mut e = Encoder::new();
        s.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut restored = SmartSearchArray::new(16, 4);
        let mut d = Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        d.finish().expect("no trailing bytes");
        assert_eq!(s.lookup_mask(blk(3)), restored.lookup_mask(blk(3)));
        assert_eq!(restored.entries, s.entries);

        let mut wrong = SmartSearchArray::new(32, 4);
        let mut d = Decoder::new(&bytes);
        assert!(wrong.load_state(&mut d).is_err());
    }
}
