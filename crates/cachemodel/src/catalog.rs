//! Derived per-organization latencies and energies: the numbers Table 2 and
//! Table 4 report and the simulators consume.

use crate::sram::{self, TagArray};
use crate::tech::Tech;
use floorplan::banks::BankPlan;
use floorplan::dgroups::DGroupPlan;
use floorplan::LShapeFloorplan;
use simbase::{Capacity, EnergyNj};

/// Block size used in every organization the paper evaluates (128 B).
pub const BLOCK_BYTES: u64 = 128;

/// Tag entry width for NuRAPID: 51-bit tag/state plus a 16-bit forward
/// pointer (Section 2.4.3's fully flexible pointer for an 8-MB/128-B cache).
pub const NURAPID_TAG_ENTRY_BITS: u32 = 51 + 16;

/// The complete physical description of a NuRAPID cache: tag array latency
/// and energy plus per-d-group latency and energy.
#[derive(Debug, Clone)]
pub struct NuRapidGeometry {
    capacity: Capacity,
    assoc: u32,
    tag: TagArray,
    plan: DGroupPlan,
    /// Total (tag + data + route) latency per d-group, in cycles.
    dgroup_latency: Vec<u64>,
    /// Data-array + route energy per d-group access, in nJ.
    dgroup_energy: Vec<EnergyNj>,
    /// Cached tag-array probe latency, in cycles.
    tag_latency: u64,
    /// Cached data-array occupancy per operation, in cycles.
    array_occupancy: u64,
}

impl NuRapidGeometry {
    /// Builds the paper's NuRAPID: `capacity` (8 MB in the evaluation),
    /// 8-way tags, 128-B blocks, `n_dgroups` equal d-groups on the
    /// L-shaped floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `n_dgroups` does not evenly divide the floorplan.
    pub fn micro2003(capacity: Capacity, n_dgroups: usize) -> Self {
        Self::new(Tech::micro2003_70nm(), capacity, 8, n_dgroups)
    }

    /// Builds a NuRAPID geometry with explicit technology and associativity.
    pub fn new(tech: Tech, capacity: Capacity, assoc: u32, n_dgroups: usize) -> Self {
        Self::new_on(tech, &LShapeFloorplan::micro2003(capacity), assoc, n_dgroups)
    }

    /// Builds a NuRAPID geometry over an explicit floorplan (e.g.
    /// [`LShapeFloorplan::rectangular`]).
    pub fn new_on(tech: Tech, fp: &LShapeFloorplan, assoc: u32, n_dgroups: usize) -> Self {
        let capacity = fp.capacity();
        let plan = DGroupPlan::partition(fp, n_dgroups);
        let tag = TagArray::new(capacity, BLOCK_BYTES, assoc, NURAPID_TAG_ENTRY_BITS);
        let tag_ps = tag.probe_ps();
        let data_ps = sram::data_access_ps(plan.dgroup_capacity());
        let data_nj = sram::data_access_nj(plan.dgroup_capacity());
        let mut dgroup_latency = Vec::with_capacity(n_dgroups);
        let mut dgroup_energy = Vec::with_capacity(n_dgroups);
        for g in 0..n_dgroups {
            let mm = plan.route_mm(g);
            dgroup_latency.push(tech.ps_to_cycles(tag_ps + data_ps + tech.route_ps(mm)));
            dgroup_energy.push(EnergyNj::new(data_nj + tech.route_nj(mm)));
        }
        let tag_latency = tag.probe_cycles(&tech);
        let array_occupancy = (tech.ps_to_cycles(data_ps) / 2).max(2);
        NuRapidGeometry {
            capacity,
            assoc,
            tag,
            plan,
            dgroup_latency,
            dgroup_energy,
            tag_latency,
            array_occupancy,
        }
    }

    /// Total cache capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Tag-array associativity (data placement is fully distance
    /// associative and has no per-set restriction).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of d-groups.
    pub fn n_dgroups(&self) -> usize {
        self.dgroup_latency.len()
    }

    /// Capacity of each d-group.
    pub fn dgroup_capacity(&self) -> Capacity {
        self.plan.dgroup_capacity()
    }

    /// Block frames per d-group.
    pub fn frames_per_dgroup(&self) -> usize {
        (self.plan.dgroup_capacity().bytes() / BLOCK_BYTES) as usize
    }

    /// Probe latency of the centralized tag array, in cycles.
    pub fn tag_latency_cycles(&self) -> u64 {
        self.tag_latency
    }

    /// Energy of one tag-array probe.
    pub fn tag_energy(&self) -> EnergyNj {
        EnergyNj::new(self.tag.probe_nj())
    }

    /// End-to-end hit latency to d-group `g`: sequential tag access plus
    /// data-array access plus round-trip wires.
    pub fn dgroup_latency_cycles(&self, g: usize) -> u64 {
        self.dgroup_latency[g]
    }

    /// Data-side latency to d-group `g` (excluding the tag probe), used
    /// when a swap touches the data arrays without re-probing the tags.
    pub fn dgroup_data_latency_cycles(&self, g: usize) -> u64 {
        self.dgroup_latency[g] - self.tag_latency_cycles()
    }

    /// Energy of one data access (read or write) to d-group `g`, including
    /// routing but excluding the tag probe.
    pub fn dgroup_access_energy(&self, g: usize) -> EnergyNj {
        self.dgroup_energy[g]
    }

    /// Cycles the data arrays are *occupied* per operation. The d-group is
    /// built from many subarrays (Section 3.3) and accesses are pipelined
    /// across them, so back-to-back operations can overlap everything but
    /// the subarray cycle itself: occupancy is half the internal access
    /// time, floor two cycles. This is what one operation holds the single
    /// port for.
    pub fn array_occupancy_cycles(&self) -> u64 {
        self.array_occupancy
    }

    /// Latency (cycles) of the d-group holding the `mb`-th megabyte
    /// (0-based, nearest-first) — the presentation used by Table 4.
    pub fn latency_of_mb(&self, mb: usize) -> u64 {
        let mb_per_group = self.dgroup_capacity().mib() as usize;
        self.dgroup_latency_cycles(mb / mb_per_group)
    }

    /// The floorplan partition underlying this geometry.
    pub fn plan(&self) -> &DGroupPlan {
        &self.plan
    }
}

/// The physical description of the best-performing D-NUCA: 16-way, 128 ×
/// 64-KB banks, 8 bank positions ("d-groups") per bank set, parallel
/// tag-data access within each bank, switched network between banks.
#[derive(Debug, Clone)]
pub struct DnucaGeometry {
    capacity: Capacity,
    /// Per-bank total access latency (bank + network), nearest-first.
    bank_latency: Vec<u64>,
    /// Per-bank access energy (tag + data + network), nearest-first.
    bank_energy: Vec<EnergyNj>,
    /// Per-bank switched-network hop count, nearest-first.
    bank_hops: Vec<u64>,
    n_bank_positions: usize,
}

impl DnucaGeometry {
    /// Fixed bank access latency in cycles (parallel tag+data of a 64-KB
    /// bank) plus the core's network interface.
    const BANK_BASE_CYCLES: u64 = 5;

    /// Builds the paper's D-NUCA configuration over `capacity` (8 MB in the
    /// evaluation): 128 banks of 64 KB, 8 bank positions per set.
    pub fn micro2003(capacity: Capacity) -> Self {
        Self::new(Tech::micro2003_70nm(), capacity, 128, 8)
    }

    /// The paper's D-NUCA on the "more aggressive, rectangular floorplan"
    /// Section 5.1 says the original NUCA work assumes — bank latencies
    /// come out lower than on the L-shape.
    pub fn micro2003_rectangular(capacity: Capacity) -> Self {
        Self::new_on(Tech::micro2003_70nm(), &LShapeFloorplan::rectangular(capacity), 128, 8)
    }

    /// Builds a D-NUCA geometry with explicit parameters on the L-shaped
    /// floorplan.
    ///
    /// # Panics
    ///
    /// Panics if the bank count does not evenly divide the floorplan or
    /// `n_bank_positions` does not divide `n_banks`.
    pub fn new(tech: Tech, capacity: Capacity, n_banks: usize, n_bank_positions: usize) -> Self {
        Self::new_on(tech, &LShapeFloorplan::micro2003(capacity), n_banks, n_bank_positions)
    }

    /// Builds a D-NUCA geometry over an explicit floorplan.
    ///
    /// # Panics
    ///
    /// Panics if the bank count does not evenly divide the floorplan or
    /// `n_bank_positions` does not divide `n_banks`.
    pub fn new_on(
        tech: Tech,
        fp: &LShapeFloorplan,
        n_banks: usize,
        n_bank_positions: usize,
    ) -> Self {
        assert!(
            n_bank_positions > 0 && n_banks.is_multiple_of(n_bank_positions),
            "{n_bank_positions} bank positions must divide {n_banks} banks"
        );
        let capacity = fp.capacity();
        let plan = BankPlan::partition(fp, n_banks);
        let bank_cap = plan.bank_capacity();
        let data_nj = sram::data_access_nj(bank_cap);
        // Each bank has its own small tag array (16 ways of a few sets).
        let bank_tag = TagArray::new(bank_cap, BLOCK_BYTES, 16, 51);
        let mut bank_latency = Vec::with_capacity(n_banks);
        let mut bank_energy = Vec::with_capacity(n_banks);
        let mut bank_hops = Vec::with_capacity(n_banks);
        for b in 0..n_banks {
            let hops = plan.hops(b) as u64;
            bank_latency.push(Self::BANK_BASE_CYCLES + tech.nuca_hop_cycles * hops);
            // 0.08 nJ switch-interface cost even for the closest bank.
            bank_energy.push(EnergyNj::new(
                bank_tag.probe_nj() + data_nj + 0.08 + tech.nuca_hop_nj * hops as f64,
            ));
            bank_hops.push(hops);
        }
        DnucaGeometry {
            capacity,
            bank_latency,
            bank_energy,
            bank_hops,
            n_bank_positions,
        }
    }

    /// Total cache capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.bank_latency.len()
    }

    /// Bank positions per bank set (d-groups per set in the paper's terms).
    pub fn n_bank_positions(&self) -> usize {
        self.n_bank_positions
    }

    /// Number of bank sets (independent columns of banks).
    pub fn n_bank_sets(&self) -> usize {
        self.n_banks() / self.n_bank_positions
    }

    /// Access latency of bank `b` (nearest-first), in cycles.
    pub fn bank_latency_cycles(&self, b: usize) -> u64 {
        self.bank_latency[b]
    }

    /// Access energy of bank `b` (tag + data + network).
    pub fn bank_access_energy(&self, b: usize) -> EnergyNj {
        self.bank_energy[b]
    }

    /// Energy of a *search* of bank `b` that does not return data: the
    /// bank's tag probe plus routing the address over the network. This is
    /// what the non-matching banks of a multicast tag search cost.
    pub fn bank_search_energy(&self, b: usize) -> EnergyNj {
        EnergyNj::new(0.04 + 0.08 * self.bank_hops[b] as f64)
    }

    /// Index of the bank at `position` within bank set `set`
    /// (position 0 = closest). Bank sets interleave across the
    /// nearest-first bank order so every set gets one bank per distance
    /// band.
    pub fn bank_index(&self, set: usize, position: usize) -> usize {
        assert!(set < self.n_bank_sets() && position < self.n_bank_positions);
        position * self.n_bank_sets() + set
    }

    /// `(min, mean, max)` latency over the banks holding the `mb`-th
    /// megabyte (0-based, nearest-first) — Table 4's fourth column.
    pub fn latency_of_mb(&self, mb: usize) -> (u64, f64, u64) {
        let banks_per_mb = self.n_banks() / self.capacity.mib() as usize;
        let s = mb * banks_per_mb;
        let e = s + banks_per_mb;
        let slice = &self.bank_latency[s..e];
        let min = *slice.iter().min().expect("non-empty");
        let max = *slice.iter().max().expect("non-empty");
        let mean = slice.iter().sum::<u64>() as f64 / slice.len() as f64;
        (min, mean, max)
    }
}

/// Energy of one smart-search array access (Table 2: 7-bit partial tags for
/// all 16 ways, 0.19 nJ).
pub fn smart_search_energy() -> EnergyNj {
    EnergyNj::new(0.19)
}

/// Latency of a smart-search array probe in cycles. The array is small
/// (7 bits per block) and sits next to the core, so it resolves in a
/// couple of cycles — fast enough for ss-performance to initiate misses
/// "before accesses to the d-group tag arrays return" (Section 5.4).
pub fn smart_search_latency_cycles() -> u64 {
    2
}

/// Energy of one way-memo table lookup or update. The table holds one
/// way index (5 bits at 18 ways) per set — an order of magnitude narrower
/// than the smart-search array's 7 bits × 16 ways, priced accordingly.
pub fn way_memo_energy() -> EnergyNj {
    EnergyNj::new(0.02)
}

/// Latency of a way-memo table lookup in cycles: a single narrow RAM read
/// next to the controller, resolving faster than the smart-search array.
pub fn way_memo_latency_cycles() -> u64 {
    1
}

/// Energy of decompressing one compressed block on a hit. A BDI/FPC-style
/// decompressor is a few stages of narrow adders and shifters — far
/// cheaper than a bank data access, but not free.
pub fn decompressor_energy() -> EnergyNj {
    EnergyNj::new(0.05)
}

/// Pipeline latency of the block decompressor in cycles (BDI-class
/// designs decompress in 1-2 cycles; FPC in up to 5).
pub fn decompressor_latency_cycles() -> u64 {
    2
}

/// Energy of one L1 access using both ports of the low-latency 64-KB 2-way
/// L1 (Table 2: 0.57 nJ); a single-ported access costs half.
pub fn l1_two_port_energy() -> EnergyNj {
    EnergyNj::new(0.57)
}

/// Energy of one main-memory (off-chip) block transfer. Not part of
/// Table 2; used by the full-system energy accounting with a conventional
/// DRAM-access estimate.
pub fn memory_access_energy() -> EnergyNj {
    EnergyNj::new(30.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(n: usize) -> NuRapidGeometry {
        NuRapidGeometry::micro2003(Capacity::from_mib(8), n)
    }

    // ---- Table 4 anchors -------------------------------------------------

    #[test]
    fn table4_fastest_dgroup_latencies() {
        // Paper Table 4, first row: 19 / 14 / 12 cycles for the fastest MB
        // of the 2/4/8-d-group NuRAPIDs.
        assert_eq!(geo(2).dgroup_latency_cycles(0), 19);
        assert_eq!(geo(4).dgroup_latency_cycles(0), 14);
        assert_eq!(geo(8).dgroup_latency_cycles(0), 12);
    }

    #[test]
    fn table4_tag_latency_is_8_cycles() {
        for n in [2, 4, 8] {
            assert_eq!(geo(n).tag_latency_cycles(), 8);
        }
    }

    #[test]
    fn table4_slowest_mb_grows_with_dgroup_count() {
        // Paper Section 5.1: "as the number of d-groups increases, the
        // latency of the slowest megabyte increases even as the latency of
        // faster megabytes decreases."
        let slow2 = geo(2).latency_of_mb(7);
        let slow4 = geo(4).latency_of_mb(7);
        let slow8 = geo(8).latency_of_mb(7);
        assert!(slow2 < slow4 && slow4 < slow8, "{slow2} {slow4} {slow8}");
        let fast2 = geo(2).latency_of_mb(0);
        let fast4 = geo(4).latency_of_mb(0);
        let fast8 = geo(8).latency_of_mb(0);
        assert!(fast2 > fast4 && fast4 > fast8);
    }

    #[test]
    fn latencies_monotone_across_dgroups() {
        for n in [2, 4, 8] {
            let g = geo(n);
            for i in 1..n {
                assert!(g.dgroup_latency_cycles(i) > g.dgroup_latency_cycles(i - 1));
            }
        }
    }

    #[test]
    fn latency_of_mb_maps_megabytes_to_groups() {
        let g = geo(4);
        assert_eq!(g.latency_of_mb(0), g.latency_of_mb(1));
        assert_eq!(g.latency_of_mb(2), g.dgroup_latency_cycles(1));
    }

    #[test]
    fn dnuca_mb_averages_track_table4() {
        // Paper Table 4 column 4 averages: 7, 11, 14, 17, 20, 23, 26, 29
        // cycles for MB 1..8. Allow +-2 cycles of model slack.
        let d = DnucaGeometry::micro2003(Capacity::from_mib(8));
        let paper = [7.0, 11.0, 14.0, 17.0, 20.0, 23.0, 26.0, 29.0];
        for (mb, &want) in paper.iter().enumerate() {
            let (_, mean, _) = d.latency_of_mb(mb);
            assert!((mean - want).abs() <= 2.0, "MB{}: model {mean:.1} vs paper {want}", mb + 1);
        }
    }

    #[test]
    fn rectangular_floorplan_lowers_dnuca_latencies() {
        // Section 5.1: D-NUCA's published latencies partly come from a
        // more aggressive rectangular floorplan.
        let ell = DnucaGeometry::micro2003(Capacity::from_mib(8));
        let rect = DnucaGeometry::micro2003_rectangular(Capacity::from_mib(8));
        let mean = |d: &DnucaGeometry| (0..8).map(|mb| d.latency_of_mb(mb).1).sum::<f64>() / 8.0;
        assert!(mean(&rect) < mean(&ell), "rect {} vs L {}", mean(&rect), mean(&ell));
        // The fastest banks are at least as fast.
        assert!(rect.bank_latency_cycles(0) <= ell.bank_latency_cycles(0));
    }

    #[test]
    fn nurapid_geometry_on_explicit_floorplan() {
        use floorplan::LShapeFloorplan;
        let fp = LShapeFloorplan::rectangular(Capacity::from_mib(8));
        let g = NuRapidGeometry::new_on(Tech::micro2003_70nm(), &fp, 8, 4);
        let ell = NuRapidGeometry::micro2003(Capacity::from_mib(8), 4);
        assert!(g.dgroup_latency_cycles(3) <= ell.dgroup_latency_cycles(3));
    }

    #[test]
    fn dnuca_fastest_banks_beat_nurapid_fastest_dgroup() {
        // Section 5.1: D-NUCA's small close banks are faster than
        // NuRAPID's large d-groups (parallel tag-data, small banks).
        let d = DnucaGeometry::micro2003(Capacity::from_mib(8));
        assert!(d.bank_latency_cycles(0) < geo(8).dgroup_latency_cycles(0));
    }

    // ---- Table 2 anchors -------------------------------------------------

    #[test]
    fn table2_energies_match_paper_within_tolerance() {
        // Paper Table 2 (nJ): tag+access of closest/farthest of 4x2MB:
        // 0.42 / 3.3; closest/farthest of 8x1MB: 0.40 / 4.6.
        let cases = [
            (4usize, 0usize, 0.42),
            (4, 3, 3.3),
            (8, 0, 0.40),
            (8, 7, 4.6),
        ];
        for (n, g, want) in cases {
            let ge = geo(n);
            let got = (ge.tag_energy() + ge.dgroup_access_energy(g)).nj();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.30, "{n} d-groups, group {g}: model {got:.2} nJ vs paper {want} nJ");
        }
    }

    #[test]
    fn table2_closest_nuca_bank() {
        // Paper Table 2: closest 64-KB NUCA d-group, 0.18 nJ.
        let d = DnucaGeometry::micro2003(Capacity::from_mib(8));
        let got = d.bank_access_energy(0).nj();
        assert!((got - 0.18).abs() / 0.18 < 0.25, "closest bank {got:.3} nJ");
    }

    #[test]
    fn table2_fixed_rows() {
        assert!((smart_search_energy().nj() - 0.19).abs() < 1e-9);
        assert!((l1_two_port_energy().nj() - 0.57).abs() < 1e-9);
        assert!(memory_access_energy().nj() > l1_two_port_energy().nj());
    }

    #[test]
    fn sequential_tag_data_beats_sequential_way_search_energy() {
        // Section 1's argument: if data is in the second way, sequential
        // way search touches 2 tag ways + 2 data ways; sequential tag-data
        // touches the whole tag array once + 1 data way. With our numbers
        // the tag probe must cost less than one extra d-group access.
        let g = geo(4);
        assert!(g.tag_energy().nj() < g.dgroup_access_energy(0).nj());
    }

    // ---- Structure -------------------------------------------------------

    #[test]
    fn frames_per_dgroup() {
        assert_eq!(geo(4).frames_per_dgroup(), 2 * 1024 * 1024 / 128);
        assert_eq!(geo(4).dgroup_capacity(), Capacity::from_mib(2));
        assert_eq!(geo(8).n_dgroups(), 8);
        assert_eq!(geo(8).assoc(), 8);
    }

    #[test]
    fn dgroup_data_latency_excludes_tag() {
        let g = geo(4);
        for i in 0..4 {
            assert_eq!(
                g.dgroup_data_latency_cycles(i) + g.tag_latency_cycles(),
                g.dgroup_latency_cycles(i)
            );
        }
    }

    #[test]
    fn dnuca_bank_set_indexing() {
        let d = DnucaGeometry::micro2003(Capacity::from_mib(8));
        assert_eq!(d.n_banks(), 128);
        assert_eq!(d.n_bank_positions(), 8);
        assert_eq!(d.n_bank_sets(), 16);
        // Position 0 of every bank set is one of the 16 closest banks.
        for set in 0..16 {
            assert!(d.bank_index(set, 0) < 16);
        }
        // Every bank is addressed exactly once.
        let mut seen = [false; 128];
        for set in 0..16 {
            for pos in 0..8 {
                let b = d.bank_index(set, pos);
                assert!(!seen[b]);
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dnuca_positions_get_monotonically_slower() {
        let d = DnucaGeometry::micro2003(Capacity::from_mib(8));
        for set in 0..d.n_bank_sets() {
            for pos in 1..d.n_bank_positions() {
                let near = d.bank_latency_cycles(d.bank_index(set, pos - 1));
                let far = d.bank_latency_cycles(d.bank_index(set, pos));
                assert!(far >= near, "set {set} pos {pos}");
            }
        }
    }
}
