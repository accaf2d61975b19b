//! Packed per-set LRU recency state (DESIGN.md §9).
//!
//! For associativities up to 16 the full MRU→LRU order of a set fits in a
//! single `u64`: nibble `i` (counting from the least-significant end) holds
//! the way id at recency position `i`, so nibble 0 is the MRU way and
//! nibble `assoc-1` is the LRU victim. A touch is a constant number of
//! shift/mask operations — no loops, no branches on the position — and a
//! victim read is a single shift. Wider sets fall back to the simple
//! `Vec<u8>` order the packed form replaces; the differential suite in
//! `tests/differential.rs` pins the two representations to each other.
//!
//! Encoding invariant: each word is a permutation of `0..assoc` (one nibble
//! per way), which is what makes the SWAR search in [`nibble_pos`] exact —
//! the searched way always occurs, and the classic
//! `(x - 0x1111..) & !x & 0x8888..` zero-nibble detector only produces
//! false positives *above* the first genuine match, never below it, so
//! `trailing_zeros` lands on the true position.

use simbase::snapshot::{Decoder, Encoder, SnapshotError};

/// Seed word: nibble `i` = way `i`, i.e. ways in MRU→LRU order
/// `0, 1, .., 15`. Masked down to `assoc` nibbles at init, this is exactly
/// the `[0, 1, .., assoc-1]` starting order of the naive `Vec` form.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;
/// One per nibble; multiplied by a way id to broadcast it across the word.
const LANES: u64 = 0x1111_1111_1111_1111;
/// High bit of each nibble, for the SWAR zero-nibble detector.
const HIGHS: u64 = 0x8888_8888_8888_8888;

/// Recency position of `way` inside a packed order word.
///
/// `word` must be a permutation of `0..assoc` nibbles containing `way`;
/// the caller (this module) guarantees it.
#[inline(always)]
fn nibble_pos(word: u64, way: u32) -> u32 {
    let x = word ^ LANES.wrapping_mul(way as u64);
    let zeros = x.wrapping_sub(LANES) & !x & HIGHS;
    zeros.trailing_zeros() >> 2
}

/// Move the nibble at position `p` to position 0, shifting positions
/// `0..p` up by one nibble. Shift amounts are kept ≤ 60 by splitting the
/// `4 * (p + 1)` shift in two, so `p == 15` stays well-defined.
#[inline(always)]
fn touch_word(word: u64, p: u32, way: u32) -> u64 {
    let above = (((word >> (4 * p)) >> 4) << (4 * p)) << 4;
    let below = word & ((1u64 << (4 * p)) - 1);
    above | (below << 4) | way as u64
}

#[derive(Debug, Clone)]
enum Repr {
    /// One order word per set; valid for `assoc <= 16`.
    Packed { words: Vec<u64> },
    /// MRU→LRU way list per set, for wider associativities.
    Wide { order: Vec<Vec<u8>> },
}

/// Per-set true-LRU order for a whole cache, packed when it fits.
#[derive(Debug, Clone)]
pub struct LruTable {
    repr: Repr,
    assoc: u32,
}

impl LruTable {
    /// Builds the table with every set in way order `0, 1, .., assoc-1`
    /// (way 0 MRU, way `assoc-1` LRU), matching the naive `Vec` layout.
    ///
    /// # Panics
    /// Panics if `assoc` is 0 or exceeds 255.
    pub fn new(sets: usize, assoc: u32) -> Self {
        assert!((1..=255).contains(&assoc), "associativity must be in 1..=255, got {assoc}");
        let repr = if assoc <= 16 {
            let mask = if assoc == 16 {
                u64::MAX
            } else {
                (1u64 << (4 * assoc)) - 1
            };
            Repr::Packed {
                words: vec![IDENTITY & mask; sets],
            }
        } else {
            Repr::Wide {
                order: vec![(0..assoc as u8).collect(); sets],
            }
        };
        Self { repr, assoc }
    }

    /// Number of ways tracked per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Marks `way` most-recently used in `set`.
    #[inline]
    pub fn touch(&mut self, set: usize, way: u32) {
        debug_assert!(way < self.assoc, "way {way} out of range");
        match &mut self.repr {
            Repr::Packed { words } => {
                let w = words[set];
                words[set] = touch_word(w, nibble_pos(w, way), way);
            }
            Repr::Wide { order } => {
                let o = &mut order[set];
                let pos =
                    o.iter().position(|&w| w as u32 == way).expect("way must exist in LRU order");
                let w = o.remove(pos);
                o.insert(0, w);
            }
        }
    }

    /// The least-recently-used way of `set` (the eviction victim).
    #[inline]
    pub fn victim(&self, set: usize) -> u32 {
        match &self.repr {
            Repr::Packed { words } => ((words[set] >> (4 * (self.assoc - 1))) & 0xF) as u32,
            Repr::Wide { order } => *order[set].last().expect("non-empty set") as u32,
        }
    }

    /// Recency position of `way` in `set`: 0 = MRU, `assoc-1` = LRU.
    #[inline]
    pub fn position_of(&self, set: usize, way: u32) -> usize {
        debug_assert!(way < self.assoc, "way {way} out of range");
        match &self.repr {
            Repr::Packed { words } => nibble_pos(words[set], way) as usize,
            Repr::Wide { order } => order[set]
                .iter()
                .position(|&w| w as u32 == way)
                .expect("way must exist in LRU order"),
        }
    }

    /// Serializes the recency state. The representation tag guards against
    /// loading a packed snapshot into a wide table (or vice versa), which
    /// can only happen if the geometries differ.
    pub fn save_state(&self, e: &mut Encoder) {
        match &self.repr {
            Repr::Packed { words } => {
                e.put_u8(0);
                e.put_u64_slice(words);
            }
            Repr::Wide { order } => {
                e.put_u8(1);
                e.put_len(order.len());
                for o in order {
                    e.put_u8_slice(o);
                }
            }
        }
    }

    /// Restores state written by [`LruTable::save_state`] into a table of
    /// identical geometry. Value-level integrity (each word a permutation)
    /// is guaranteed by the container checksum, not re-validated here.
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        match (&mut self.repr, d.u8()?) {
            (Repr::Packed { words }, 0) => d.u64_slice_into(words),
            (Repr::Wide { order }, 1) => {
                if d.len()? != order.len() {
                    return Err(SnapshotError::Malformed("LRU set count mismatch"));
                }
                order.iter_mut().try_for_each(|o| d.u8_slice_into(o))
            }
            _ => Err(SnapshotError::Malformed("LRU representation mismatch")),
        }
    }

    /// The way at recency position `pos` in `set` (0 = MRU). Test/debug
    /// helper; the hot path never needs an arbitrary position read.
    pub fn way_at(&self, set: usize, pos: usize) -> u32 {
        assert!(pos < self.assoc as usize, "position {pos} out of range");
        match &self.repr {
            Repr::Packed { words } => ((words[set] >> (4 * pos)) & 0xF) as u32,
            Repr::Wide { order } => order[set][pos] as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_of(t: &LruTable, set: usize) -> Vec<u32> {
        (0..t.assoc() as usize).map(|p| t.way_at(set, p)).collect()
    }

    #[test]
    fn initial_order_is_way_ascending() {
        let t = LruTable::new(2, 4);
        assert_eq!(order_of(&t, 0), vec![0, 1, 2, 3]);
        assert_eq!(t.victim(1), 3);
    }

    #[test]
    fn touch_moves_to_mru_and_preserves_permutation() {
        let mut t = LruTable::new(1, 4);
        t.touch(0, 2);
        assert_eq!(order_of(&t, 0), vec![2, 0, 1, 3]);
        t.touch(0, 3);
        assert_eq!(order_of(&t, 0), vec![3, 2, 0, 1]);
        t.touch(0, 3);
        assert_eq!(order_of(&t, 0), vec![3, 2, 0, 1]);
        assert_eq!(t.victim(0), 1);
        assert_eq!(t.position_of(0, 3), 0);
        assert_eq!(t.position_of(0, 1), 3);
    }

    #[test]
    fn full_width_16_ways_round_trip() {
        let mut t = LruTable::new(1, 16);
        assert_eq!(t.victim(0), 15);
        t.touch(0, 15);
        assert_eq!(t.victim(0), 14);
        assert_eq!(t.position_of(0, 15), 0);
        t.touch(0, 0);
        assert_eq!(order_of(&t, 0)[..3], [0, 15, 1]);
    }

    #[test]
    fn wide_fallback_matches_packed_semantics() {
        let mut t = LruTable::new(1, 20);
        t.touch(0, 17);
        assert_eq!(t.way_at(0, 0), 17);
        assert_eq!(t.victim(0), 19);
        assert_eq!(t.position_of(0, 17), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut t = LruTable::new(2, 8);
        t.touch(0, 5);
        assert_eq!(t.way_at(0, 0), 5);
        assert_eq!(t.way_at(1, 0), 0);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_panics() {
        let _ = LruTable::new(1, 0);
    }

    #[test]
    fn state_roundtrips_both_representations() {
        for assoc in [4u32, 20] {
            let mut t = LruTable::new(3, assoc);
            t.touch(0, 2);
            t.touch(1, 3);
            t.touch(2, 1);
            let mut e = Encoder::new();
            t.save_state(&mut e);
            let bytes = e.into_bytes();
            let mut fresh = LruTable::new(3, assoc);
            let mut d = Decoder::new(&bytes);
            fresh.load_state(&mut d).unwrap();
            d.finish().unwrap();
            for set in 0..3 {
                assert_eq!(order_of(&fresh, set), order_of(&t, set), "assoc {assoc} set {set}");
            }
        }
    }

    #[test]
    fn load_rejects_geometry_mismatch() {
        let t = LruTable::new(2, 4);
        let mut e = Encoder::new();
        t.save_state(&mut e);
        let bytes = e.into_bytes();
        // Wrong set count.
        let mut d = Decoder::new(&bytes);
        assert!(LruTable::new(4, 4).load_state(&mut d).is_err());
        // Wrong representation (wide vs packed).
        let mut d = Decoder::new(&bytes);
        assert!(LruTable::new(2, 20).load_state(&mut d).is_err());
    }
}
