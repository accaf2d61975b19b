//! Consistent-hashing bank map for the resizable L4 DRAM cache.
//!
//! The L4 tier (DESIGN.md §15) spreads blocks over a set of DRAM banks
//! that can grow and shrink mid-run. A modulo map would move nearly every
//! block on a resize; this map hashes each bank into `vnodes_per_bank`
//! positions on a 64-bit ring (virtual nodes, after the hardware
//! consistent-hashing scheme of Chang et al., arXiv 1602.00722) and sends
//! a block to the first virtual node clockwise from its own hash. Adding
//! `k` banks to `n` then moves only the keys landing on the new banks'
//! virtual nodes (expected fraction `k / (n + k)`); removing `k` banks
//! moves only the keys those banks owned (expected fraction `k / n`).
//! Every other key keeps its owner bit-for-bit — the property suite in
//! `tests/chash_props.rs` pins both the bound and the stability.
//!
//! Bank ids are allocated monotonically and never reused, so a bank that
//! was retired and a bank added later can never be confused in snapshots
//! or telemetry. Lookup is allocation-free (one binary search); resizes
//! rebuild the ring and may allocate, which is fine — only the settled
//! steady state must be allocation-free (`tests/no_alloc.rs`).

use simbase::snapshot::{Decoder, Encoder, SnapshotError};

/// SplitMix64 finalizer: the avalanche mix behind every ring position
/// and key hash. Stable forever — ring layout is architectural state.
#[inline(always)]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Banks entering and leaving the map in one [`BankMap::resize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeDelta {
    /// Bank ids added (fresh, never-used ids), ascending.
    pub added: Vec<u32>,
    /// Bank ids retired (the most recently added live banks), ascending.
    pub retired: Vec<u32>,
}

/// The consistent-hashing map from block addresses to live bank ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankMap {
    seed: u64,
    vnodes_per_bank: u32,
    /// Next bank id to allocate; ids are monotonic and never reused.
    next_bank: u32,
    /// Live bank ids, ascending.
    banks: Vec<u32>,
    /// `(position, bank)` sorted ascending — the ring.
    ring: Vec<(u64, u32)>,
}

impl BankMap {
    /// Builds a map over banks `0..n_banks`.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks` or `vnodes_per_bank` is zero.
    pub fn new(n_banks: u32, vnodes_per_bank: u32, seed: u64) -> Self {
        assert!(n_banks > 0, "a bank map needs at least one bank");
        assert!(vnodes_per_bank > 0, "virtual node count must be positive");
        let mut map = BankMap {
            seed,
            vnodes_per_bank,
            next_bank: n_banks,
            banks: (0..n_banks).collect(),
            ring: Vec::new(),
        };
        map.rebuild_ring();
        map
    }

    /// Position of one virtual node on the ring.
    fn vnode_pos(&self, bank: u32, replica: u32) -> u64 {
        mix64(self.seed ^ mix64(((bank as u64) << 32) | replica as u64))
    }

    /// Rebuilds the sorted ring from the live bank set. The ring is a
    /// pure function of `(seed, vnodes_per_bank, banks)`, so rebuilding
    /// from scratch and incremental insertion agree exactly.
    fn rebuild_ring(&mut self) {
        self.ring.clear();
        self.ring.reserve(self.banks.len() * self.vnodes_per_bank as usize);
        for &bank in &self.banks {
            for replica in 0..self.vnodes_per_bank {
                self.ring.push((self.vnode_pos(bank, replica), bank));
            }
        }
        self.ring.sort_unstable();
    }

    /// Hash of one block key on the ring. Resizes never change it, which
    /// is what makes unmoved-key lookups stable across a resize.
    #[inline]
    pub fn key_hash(&self, block: u64) -> u64 {
        mix64(block ^ self.seed.rotate_left(17))
    }

    /// The live bank owning `block`: the first virtual node clockwise
    /// from the block's hash. Allocation-free.
    #[inline]
    pub fn lookup(&self, block: u64) -> u32 {
        let h = self.key_hash(block);
        let i = self.ring.partition_point(|&(pos, _)| pos < h);
        if i == self.ring.len() {
            self.ring[0].1
        } else {
            self.ring[i].1
        }
    }

    /// Number of live banks.
    pub fn n_banks(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Live bank ids, ascending.
    pub fn bank_ids(&self) -> &[u32] {
        &self.banks
    }

    /// One past the highest bank id ever allocated (for sizing per-bank
    /// tables indexed by id).
    pub fn id_bound(&self) -> u32 {
        self.next_bank
    }

    /// Grows or shrinks the live bank set to `target` banks. Growth adds
    /// fresh ids; shrinking retires the most recently added banks first
    /// (LIFO), so the surviving set is a prefix of history and resizes
    /// compose deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn resize(&mut self, target: u32) -> ResizeDelta {
        assert!(target > 0, "cannot shrink the L4 to zero banks");
        let n = self.banks.len() as u32;
        let mut delta = ResizeDelta {
            added: Vec::new(),
            retired: Vec::new(),
        };
        if target > n {
            for _ in n..target {
                delta.added.push(self.next_bank);
                self.banks.push(self.next_bank);
                self.next_bank += 1;
            }
        } else if target < n {
            delta.retired = self.banks.split_off(target as usize);
        }
        if delta.added.is_empty() && delta.retired.is_empty() {
            return delta;
        }
        self.rebuild_ring();
        delta
    }

    /// Serializes the architectural map state. The ring is derived and
    /// rebuilt on load; geometry (`seed`, `vnodes_per_bank`) is written
    /// so a snapshot can never silently cross configurations.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64(self.seed);
        e.put_u32(self.vnodes_per_bank);
        e.put_u32(self.next_bank);
        e.put_u32_slice(&self.banks);
    }

    /// Restores state written by [`BankMap::save_state`] into a map of
    /// identical geometry.
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        if d.u64()? != self.seed {
            return Err(SnapshotError::Malformed("bank-map seed mismatch"));
        }
        if d.u32()? != self.vnodes_per_bank {
            return Err(SnapshotError::Malformed("bank-map vnode-count mismatch"));
        }
        self.next_bank = d.u32()?;
        d.u32_vec_into(&mut self.banks, self.next_bank as usize)?;
        if self.banks.is_empty() || self.banks.iter().any(|&b| b >= self.next_bank) {
            return Err(SnapshotError::Malformed("bank-map id set inconsistent"));
        }
        self.rebuild_ring();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x1602_0072_2;

    fn moved_fraction(before: &BankMap, after: &BankMap, keys: u64) -> f64 {
        let moved = (0..keys).filter(|&k| before.lookup(k) != after.lookup(k)).count();
        moved as f64 / keys as f64
    }

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let map = BankMap::new(8, 32, SEED);
        for k in 0..10_000u64 {
            let b = map.lookup(k);
            assert!(map.bank_ids().contains(&b), "bank {b} not live");
            assert_eq!(b, map.lookup(k));
        }
    }

    #[test]
    fn every_bank_owns_some_keys() {
        let map = BankMap::new(8, 32, SEED);
        let mut owned = vec![0u64; 8];
        for k in 0..100_000u64 {
            owned[map.lookup(k) as usize] += 1;
        }
        for (b, &n) in owned.iter().enumerate() {
            assert!(n > 0, "bank {b} owns no keys");
        }
    }

    #[test]
    fn grow_moves_roughly_the_minimal_fraction() {
        let before = BankMap::new(8, 64, SEED);
        let mut after = before.clone();
        let delta = after.resize(12);
        assert_eq!(delta.added, vec![8, 9, 10, 11]);
        assert!(delta.retired.is_empty());
        let f = moved_fraction(&before, &after, 100_000);
        // Expected 4/12 = 0.333; virtual-node variance stays well inside 1.6x.
        assert!(f > 0.0 && f < 0.334 * 1.6, "grow moved fraction {f}");
        // Moved keys must land exactly on the new banks.
        for k in 0..100_000u64 {
            if before.lookup(k) != after.lookup(k) {
                assert!(after.lookup(k) >= 8, "key {k} moved to an old bank");
            }
        }
    }

    #[test]
    fn shrink_moves_only_keys_of_retired_banks() {
        let before = BankMap::new(8, 64, SEED);
        let mut after = before.clone();
        let delta = after.resize(6);
        assert_eq!(delta.retired, vec![6, 7]);
        for k in 0..100_000u64 {
            if before.lookup(k) != after.lookup(k) {
                assert!(before.lookup(k) >= 6, "stable key {k} moved");
            } else {
                assert!(before.lookup(k) < 6, "retired bank still owns key {k}");
            }
        }
    }

    #[test]
    fn shrink_then_grow_allocates_fresh_ids() {
        let mut map = BankMap::new(4, 16, SEED);
        let d1 = map.resize(2);
        assert_eq!(d1.retired, vec![2, 3]);
        let d2 = map.resize(4);
        assert_eq!(d2.added, vec![4, 5], "retired ids must never be reused");
        assert_eq!(map.bank_ids(), &[0, 1, 4, 5]);
        assert_eq!(map.id_bound(), 6);
    }

    #[test]
    fn noop_resize_changes_nothing() {
        let mut map = BankMap::new(4, 16, SEED);
        let before = map.clone();
        let d = map.resize(4);
        assert!(d.added.is_empty() && d.retired.is_empty());
        assert_eq!(map, before);
    }

    #[test]
    fn state_roundtrips_through_snapshot() {
        let mut map = BankMap::new(8, 32, SEED);
        map.resize(3);
        map.resize(10);
        let mut e = Encoder::new();
        map.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut fresh = BankMap::new(8, 32, SEED);
        let mut d = Decoder::new(&bytes);
        fresh.load_state(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(fresh, map);
        for k in 0..10_000u64 {
            assert_eq!(fresh.lookup(k), map.lookup(k));
        }
    }

    #[test]
    fn load_rejects_wrong_geometry() {
        let map = BankMap::new(4, 16, SEED);
        let mut e = Encoder::new();
        map.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(BankMap::new(4, 16, SEED ^ 1).load_state(&mut d).is_err());
        let mut d = Decoder::new(&bytes);
        assert!(BankMap::new(4, 32, SEED).load_state(&mut d).is_err());
    }

    #[test]
    #[should_panic(expected = "zero banks")]
    fn resize_to_zero_panics() {
        BankMap::new(2, 4, SEED).resize(0);
    }
}
