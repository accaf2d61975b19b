//! Deterministic per-block compressibility model for the compressed NUCA
//! layout ([`crate::DnucaCache::compressed`]).
//!
//! Real compressed caches (after Dgien et al., and the BDI / FPC line of
//! work surveyed in arXiv 2201.00774) compress a block's *contents*; this
//! simulator carries no data values, so compressibility is modeled as a
//! pure function of the block address: the address (mixed with a model
//! seed) seeds a [`SimRng`] whose single draw selects a BDI-style size
//! class. The model is therefore
//!
//! * **deterministic and idempotent** — the same address always compresses
//!   to the same size, across reconstruction and snapshot restore, so
//!   warm-up checkpoints stay valid;
//! * **trace-stable** — a block's class never changes mid-run, mirroring
//!   the observation that compressibility is a property of the data a
//!   block holds, which the address stream proxies here;
//! * **tunable** — the seed is an architectural knob (it changes which
//!   blocks fit the fast compressed ways), so it participates in the
//!   warm-up digest.
//!
//! The class distribution follows the BDI evaluation's rough shape: about
//! 60% of blocks compress to half a frame or better (classes 16/32/64 B
//! of a 128-B block), the rest are stored uncompressed.

use cachemodel::catalog::BLOCK_BYTES;
use simbase::rng::SimRng;
use simbase::BlockAddr;

/// BDI-style size classes a 128-byte block can compress into, in bytes.
/// `BLOCK_BYTES` means "incompressible, stored raw".
pub const SIZE_CLASSES: [u64; 4] = [16, 32, 64, BLOCK_BYTES];

/// The address-seeded compressibility model. Stateless: every query is a
/// pure function of `(seed, address)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressModel {
    seed: u64,
}

impl CompressModel {
    /// Creates a model with the given seed.
    pub fn new(seed: u64) -> Self {
        CompressModel { seed }
    }

    /// The model seed (an architectural knob — see the module docs).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The compressed size of `block` in bytes, one of [`SIZE_CLASSES`].
    ///
    /// Class probabilities: 15% → 16 B, 20% → 32 B, 25% → 64 B,
    /// 40% → 128 B (incompressible).
    pub fn compressed_bytes(&self, block: BlockAddr) -> u64 {
        // One seeded draw per query; SimRng::seeded runs splitmix64 over
        // the mixed address, so nearby addresses land in unrelated classes.
        let mut rng = SimRng::seeded(self.seed ^ block.index().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match rng.below(100) {
            0..=14 => 16,
            15..=34 => 32,
            35..=59 => 64,
            _ => BLOCK_BYTES,
        }
    }

    /// True if `block` fits a half-frame compressed way (≤ 64 B).
    pub fn is_compressible(&self, block: BlockAddr) -> bool {
        self.compressed_bytes(block) * 2 <= BLOCK_BYTES
    }

    /// Cycles of decompression latency a hit on `block` pays when it is
    /// stored compressed: `decomp_cycles` for any compressed class, zero
    /// for a raw block.
    pub fn decompress_cycles(&self, block: BlockAddr, decomp_cycles: u64) -> u64 {
        if self.compressed_bytes(block) < BLOCK_BYTES {
            decomp_cycles
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_always_a_known_class() {
        let m = CompressModel::new(0xC0DEC);
        for i in 0..10_000u64 {
            let s = m.compressed_bytes(BlockAddr::from_index(i * 37));
            assert!(SIZE_CLASSES.contains(&s), "unknown class {s}");
        }
    }

    #[test]
    fn queries_are_idempotent_per_address() {
        let m = CompressModel::new(7);
        for i in 0..2_000u64 {
            let b = BlockAddr::from_index(i);
            assert_eq!(m.compressed_bytes(b), m.compressed_bytes(b));
            assert_eq!(m.is_compressible(b), m.is_compressible(b));
        }
    }

    #[test]
    fn about_sixty_percent_compress_to_half() {
        let m = CompressModel::new(0xC0DEC);
        let n = 100_000u64;
        let hits = (0..n).filter(|&i| m.is_compressible(BlockAddr::from_index(i))).count() as f64;
        let frac = hits / n as f64;
        assert!((0.55..0.65).contains(&frac), "compressible frac {frac}");
    }

    #[test]
    fn decompress_latency_is_zero_iff_raw() {
        let m = CompressModel::new(3);
        for i in 0..2_000u64 {
            let b = BlockAddr::from_index(i);
            let c = m.decompress_cycles(b, 2);
            if m.compressed_bytes(b) == BLOCK_BYTES {
                assert_eq!(c, 0);
            } else {
                assert_eq!(c, 2);
            }
        }
    }

    #[test]
    fn seed_changes_the_classification() {
        let a = CompressModel::new(1);
        let b = CompressModel::new(2);
        let differing = (0..1_000u64)
            .filter(|&i| {
                a.compressed_bytes(BlockAddr::from_index(i))
                    != b.compressed_bytes(BlockAddr::from_index(i))
            })
            .count();
        assert!(differing > 100, "seeds must reshuffle classes ({differing})");
    }
}
