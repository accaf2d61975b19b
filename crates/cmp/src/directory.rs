//! The sharer directory: an exact map from lower-level block index to
//! its sharer bitmask, packed one `u64` word per tracked block.
//!
//! Each slot holds `block << 8 | mask`. A stored mask is never 0, so the
//! word 0 marks an empty slot and a tracked block costs 8 bytes at
//! most 7/8 load. Slots are a power of two; a block's home slot is the
//! top bits of a multiplicative (Fibonacci) hash, and collisions probe
//! linearly. Blocks are never removed (a write narrows a mask to the
//! writer, it never empties it), so there are no tombstones.

/// Low bits of a word holding the sharer mask.
const MASK_BITS: u32 = 8;

/// The first block index a packed word cannot hold.
pub(crate) const BLOCK_LIMIT: u64 = 1 << (64 - MASK_BITS);

/// The Fibonacci hash multiplier: 2^64 divided by the golden ratio, odd.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots of the smallest table; an empty directory allocates none.
const MIN_SLOTS: usize = 16;

/// Sharer masks keyed by block index (see the module docs).
pub(crate) struct Directory {
    /// Power-of-two slot array, or empty before the first block.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: turns a hash into a slot index.
    shift: u32,
}

impl Directory {
    /// An empty directory; it allocates on the first block.
    pub(crate) const fn new() -> Self {
        Directory {
            slots: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Tracked blocks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Words `slots` slots hold before the table doubles: 7/8 load.
    fn capacity(slots: usize) -> usize {
        slots - slots / 8
    }

    /// The fewest slots that hold `n` words.
    fn slots_for(n: usize) -> usize {
        let mut slots = MIN_SLOTS;
        while Self::capacity(slots) < n {
            slots *= 2;
        }
        slots
    }

    /// The slot holding `block`, or the empty slot where it belongs.
    /// The table must have slots.
    fn slot(&self, block: u64) -> usize {
        let last = self.slots.len() - 1;
        let mut i = (block.wrapping_mul(GOLDEN) >> self.shift) as usize;
        loop {
            let word = self.slots[i];
            if word == 0 || word >> MASK_BITS == block {
                return i;
            }
            i = (i + 1) & last;
        }
    }

    /// Replaces the table with `slots` empty slots, freeing the old one
    /// first, and returns the old table.
    fn reallocate(&mut self, slots: usize) -> Vec<u64> {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![0; slots];
        self.shift = 64 - slots.trailing_zeros();
        old
    }

    /// Doubles the table, rehashing every word into the new one.
    fn grow(&mut self) {
        let old = self.reallocate((2 * self.slots.len()).max(MIN_SLOTS));
        for word in old.into_iter().filter(|&w| w != 0) {
            let i = self.slot(word >> MASK_BITS);
            self.slots[i] = word;
        }
    }

    /// Sets `block`'s mask to `f(old)` and returns `old`, which is 0 for
    /// a block not yet tracked.
    ///
    /// # Panics
    ///
    /// Panics if `block` is [`BLOCK_LIMIT`] or more. `f` must not return 0.
    pub(crate) fn update(&mut self, block: u64, f: impl FnOnce(u8) -> u8) -> u8 {
        assert!(block < BLOCK_LIMIT, "block {block:#x} does not fit a sharer word");
        if self.slots.is_empty() {
            self.grow();
        }
        let mut i = self.slot(block);
        let old = self.slots[i] as u8;
        if old == 0 {
            if self.len == Self::capacity(self.slots.len()) {
                self.grow();
                i = self.slot(block);
            }
            self.len += 1;
        }
        let mask = f(old);
        debug_assert_ne!(mask, 0, "a tracked block has a sharer");
        self.slots[i] = block << MASK_BITS | u64::from(mask);
        old
    }

    /// Empties the directory and sizes it for `n` blocks: the table is
    /// reused in place when it already holds `n`, and otherwise
    /// allocated once at its final size.
    pub(crate) fn clear_for(&mut self, n: usize) {
        self.len = 0;
        if n > 0 && Self::capacity(self.slots.len()) < n {
            self.reallocate(Self::slots_for(n));
        } else {
            self.slots.fill(0);
        }
    }

    /// Calls `f(block, mask)` for every tracked block in block order.
    /// A word sorts by its block, the high bits, so sorting the live
    /// words sorts the blocks.
    pub(crate) fn for_each_sorted(&self, mut f: impl FnMut(u64, u8)) {
        let mut words: Vec<u64> = self.slots.iter().copied().filter(|&w| w != 0).collect();
        words.sort_unstable();
        for word in words {
            f(word >> MASK_BITS, word as u8);
        }
    }

    /// `block`'s mask, 0 when it is not tracked.
    #[cfg(test)]
    fn get(&self, block: u64) -> u8 {
        if self.slots.is_empty() {
            0
        } else {
            self.slots[self.slot(block)] as u8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{checker, range_u64, range_u8, vec_of};
    use std::collections::BTreeMap;

    /// The dump [`Directory::for_each_sorted`] produces.
    fn dump(d: &Directory) -> Vec<(u64, u8)> {
        let mut out = Vec::new();
        d.for_each_sorted(|b, m| out.push((b, m)));
        out
    }

    /// Applies one `note_sharing`-style access to both maps and checks
    /// they return the same old mask.
    fn note(
        d: &mut Directory,
        reference: &mut BTreeMap<u64, u8>,
        block: u64,
        core: u8,
        write: bool,
    ) {
        let bit = 1u8 << core;
        let update = |m: u8| if write { bit } else { m | bit };
        let want = reference.get(&block).copied().unwrap_or(0);
        reference.insert(block, update(want));
        assert_eq!(d.update(block, update), want, "block {block:#x}: old mask");
    }

    /// Random access sequences with occasional clears and restores
    /// against a `BTreeMap` reference: every block maps to the same mask
    /// and the sorted dump is identical. Blocks come from a narrow hot
    /// range, a wide sparse one, and the top of the packable range, so
    /// hits, misses, long probe runs and several doublings all occur.
    #[test]
    fn directory_matches_a_btreemap() {
        // (op, block, core, write): op 0 clears and re-sizes for the
        // block draw modulo 4096, op 1 restores the reference's dump
        // into a cleared directory as `load_state` does, else an access.
        let op = (range_u8(0, 255), range_u64(0, 1 << 20), range_u8(0, 8), range_u8(0, 2));
        checker("directory_matches_a_btreemap")
            .cases(96)
            .check(&vec_of(op, 1, 3000), |ops| {
                let mut d = Directory::new();
                let mut reference = BTreeMap::new();
                for &(op, raw, core, write) in ops {
                    let block = match raw % 3 {
                        0 => raw % 512,
                        1 => raw << 20,
                        _ => BLOCK_LIMIT - 1 - raw,
                    };
                    match op {
                        0 => {
                            d.clear_for((raw % 4096) as usize);
                            reference.clear();
                        }
                        1 => {
                            d.clear_for(reference.len());
                            let slots = d.slots.len();
                            for (&b, &m) in &reference {
                                assert_eq!(d.update(b, |_| m), 0, "a cleared directory is empty");
                            }
                            assert_eq!(d.slots.len(), slots, "sized once for the stored count");
                        }
                        _ => note(&mut d, &mut reference, block, core, write == 1),
                    }
                    assert_eq!(d.len(), reference.len());
                }
                for (&b, &m) in &reference {
                    assert_eq!(d.get(b), m, "block {b:#x}");
                }
                assert_eq!(dump(&d), reference.into_iter().collect::<Vec<_>>());
            });
    }

    #[test]
    fn the_table_doubles_at_seven_eighths_load() {
        let mut d = Directory::new();
        assert_eq!(d.slots.capacity(), 0, "an empty directory allocates nothing");
        for b in 0..14 {
            d.update(b, |_| 1);
        }
        assert_eq!(d.slots.len(), 16);
        d.update(3, |m| m | 2);
        assert_eq!(d.slots.len(), 16, "updating a tracked block never grows");
        d.update(14, |_| 1);
        assert_eq!(d.slots.len(), 32);
        assert_eq!(d.len(), 15);
        for b in 0..15 {
            assert_eq!(d.get(b), if b == 3 { 3 } else { 1 });
        }
    }

    #[test]
    fn sizing_for_a_count_allocates_only_when_the_table_is_short() {
        let mut d = Directory::new();
        d.clear_for(0);
        assert_eq!(d.slots.capacity(), 0);
        d.clear_for(100);
        assert_eq!(d.slots.len(), 128, "112 words fit 128 slots");
        d.clear_for(112);
        assert_eq!(d.slots.len(), 128);
        d.clear_for(113);
        assert_eq!(d.slots.len(), 256);
        d.clear_for(5);
        assert_eq!(d.slots.len(), 256, "a larger table is reused in place");
        assert_eq!(d.len(), 0);
        assert_eq!(dump(&d), []);
    }

    #[test]
    #[should_panic(expected = "does not fit a sharer word")]
    fn a_block_past_the_packable_range_panics() {
        Directory::new().update(BLOCK_LIMIT, |_| 1);
    }
}
