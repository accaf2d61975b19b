//! SRAM array access-time and energy formulas.
//!
//! Access time of a monolithic (tagless) data array grows superlinearly
//! with capacity — decoder depth, wordline/bitline length, and internal
//! routing all grow — which is why the paper's larger d-groups are slower
//! than NUCA's 64-KB banks even before global wires are counted. Dynamic
//! energy per access is dominated by the fixed cost of reading one 128-B
//! block (senseamps + output drivers) plus a slowly growing decode/select
//! term.

use crate::tech::Tech;
use simbase::Capacity;

/// Reference capacity for the scaling formulas (1 MiB).
const REF_BYTES: f64 = 1024.0 * 1024.0;

/// Internal access time (ps) of a tagless data array of the given capacity:
/// decoder + wordline/bitline + senseamp + internal routing, excluding the
/// global wires to reach the array.
///
/// Calibrated so that, combined with the floorplan route distances, the
/// fastest d-group of the paper's 8/4/2-d-group NuRAPIDs costs 12/14/19
/// cycles (Table 4).
pub fn data_access_ps(capacity: Capacity) -> f64 {
    let x = capacity.bytes() as f64 / REF_BYTES;
    562.0 + 128.0 * x.powf(1.524)
}

/// Dynamic energy (nJ) of one block access to a tagless data array of the
/// given capacity: a fixed block-readout term plus a slowly growing
/// decode/select term.
pub fn data_access_nj(capacity: Capacity) -> f64 {
    let x = capacity.bytes() as f64 / (64.0 * 1024.0);
    0.08 + 0.017 * x.max(1.0).log2()
}

/// Model of a set-associative tag array probed before the data array
/// (sequential tag-data access, paper Section 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagArray {
    entries: u64,
    entry_bits: u32,
    assoc: u32,
}

impl TagArray {
    /// A tag array covering `cache_capacity` of `block_bytes` blocks with
    /// `assoc` ways and `entry_bits`-bit entries (tag + state + any
    /// pointers).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity is not a multiple of
    /// the block size.
    pub fn new(cache_capacity: Capacity, block_bytes: u64, assoc: u32, entry_bits: u32) -> Self {
        assert!(block_bytes > 0 && assoc > 0 && entry_bits > 0, "zero parameter");
        assert!(
            cache_capacity.bytes().is_multiple_of(block_bytes),
            "capacity must be a multiple of the block size"
        );
        TagArray {
            entries: cache_capacity.bytes() / block_bytes,
            entry_bits,
            assoc,
        }
    }

    /// Number of tag entries (one per cache block).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total tag storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.entries * self.entry_bits as u64).div_ceil(8)
    }

    /// Probe latency in ps: decode the set, read all ways, compare.
    ///
    /// Calibrated so the paper's 8-MB, 8-way tag array (64 K entries) costs
    /// 8 cycles at 5 GHz (Table 4's note that NuRAPID latencies "include 8
    /// cycles for the 8-way tag latency").
    pub fn probe_ps(&self) -> f64 {
        let sets = (self.entries / self.assoc as u64).max(1) as f64;
        // decode ~ log2(sets); compare ~ log2(assoc); array access grows
        // with the square root of the storage footprint.
        330.0
            + 65.0 * sets.log2()
            + 120.0 * (self.assoc as f64).log2().max(1.0) / 3.0
            + 6.0 * (self.storage_bytes() as f64 / 1024.0).sqrt()
    }

    /// Probe latency in whole cycles.
    pub fn probe_cycles(&self, tech: &Tech) -> u64 {
        tech.ps_to_cycles(self.probe_ps())
    }

    /// Dynamic energy (nJ) of one probe: reads one set row (`assoc` entries)
    /// and drives the comparators.
    pub fn probe_nj(&self) -> f64 {
        let row_bits = (self.assoc * self.entry_bits) as f64;
        0.02 + 0.00004 * row_bits + 0.004 * (self.storage_bytes() as f64 / (64.0 * 1024.0)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_access_time_grows_superlinearly() {
        let t1 = data_access_ps(Capacity::from_mib(1));
        let t2 = data_access_ps(Capacity::from_mib(2));
        let t4 = data_access_ps(Capacity::from_mib(4));
        assert!(t2 - t1 < t4 - t2, "growth must accelerate: {t1} {t2} {t4}");
        // Calibration anchors (see Table 4 derivation).
        assert!((t1 - 690.0).abs() < 5.0, "t(1MB)={t1}");
        assert!((t2 - 930.0).abs() < 10.0, "t(2MB)={t2}");
        assert!((t4 - 1620.0).abs() < 15.0, "t(4MB)={t4}");
    }

    #[test]
    fn small_bank_is_fast() {
        let t = data_access_ps(Capacity::from_kib(64));
        assert!(t < 600.0, "64KB bank at {t} ps");
    }

    #[test]
    fn data_energy_is_mostly_fixed() {
        let e64k = data_access_nj(Capacity::from_kib(64));
        let e2m = data_access_nj(Capacity::from_mib(2));
        assert!(e2m > e64k);
        assert!(e2m < 2.5 * e64k, "energy must grow slowly: {e64k} vs {e2m}");
    }

    #[test]
    fn paper_tag_array_is_8_cycles() {
        // 8 MB, 128-B blocks, 8-way; 51-bit tag entries plus a 16-bit
        // forward pointer (Section 2.4.3).
        let tag = TagArray::new(Capacity::from_mib(8), 128, 8, 51 + 16);
        assert_eq!(tag.probe_cycles(&Tech::micro2003_70nm()), 8);
        assert_eq!(tag.entries(), 65536);
    }

    #[test]
    fn tag_storage_size_matches_section_243() {
        // Section 2.4.3: 16-bit pointers for an 8-MB/128-B cache amount to
        // 128 KB of forward pointers (64 K entries x 16 bits).
        let tag = TagArray::new(Capacity::from_mib(8), 128, 8, 16);
        assert_eq!(tag.storage_bytes(), 128 * 1024);
    }

    #[test]
    fn small_bank_tag_is_faster_and_cheaper() {
        let big = TagArray::new(Capacity::from_mib(8), 128, 8, 67);
        let small = TagArray::new(Capacity::from_kib(64), 128, 16, 51);
        assert!(small.probe_ps() < big.probe_ps());
        assert!(small.probe_nj() < big.probe_nj());
    }

    #[test]
    fn tag_probe_energy_below_data_access() {
        // Section 1: "the entire tag array is smaller than even one data
        // way" — probing tags must cost less than a data-array access.
        let tag = TagArray::new(Capacity::from_mib(8), 128, 8, 67);
        assert!(tag.probe_nj() < data_access_nj(Capacity::from_mib(1)));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn tag_rejects_misaligned_capacity() {
        let _ = TagArray::new(Capacity::from_bytes(100), 128, 8, 51);
    }

    #[test]
    #[should_panic(expected = "zero parameter")]
    fn tag_rejects_zero_assoc() {
        let _ = TagArray::new(Capacity::from_mib(1), 128, 0, 51);
    }
}
