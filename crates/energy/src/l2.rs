//! The conventional hierarchy's L2/L3 energy: event counts × per-access
//! energies from the same array models as Table 2. NuRAPID and D-NUCA
//! price themselves (`nurapid::energy`, `nuca::energy`) for
//! [`memsys::org::Organization::report`].

use cachemodel::sram::{self, TagArray};
use memsys::hierarchy::BaseHierarchy;
use simbase::{Capacity, EnergyNj};

/// Per-access energies of the conventional hierarchy's levels, derived
/// from the same array models (sequential tag-data access in both).
#[derive(Debug, Clone, Copy)]
pub struct BaseLevelEnergies {
    /// One L2 (1-MB, 8-way) access.
    pub l2_nj: f64,
    /// One L3 (8-MB, 8-way) access.
    pub l3_nj: f64,
}

impl BaseLevelEnergies {
    /// The paper's base configuration. The monolithic uniform L3 must
    /// drive worst-case-length wires on every access (that is what makes
    /// NUCA attractive), modeled as the mean subarray route with a
    /// conventional H-tree detour.
    pub fn micro2003() -> Self {
        let tech = cachemodel::Tech::micro2003_70nm();
        let l2_tag = TagArray::new(Capacity::from_mib(1), 128, 8, 51);
        let l3_tag = TagArray::new(Capacity::from_mib(8), 128, 8, 51);
        // Mean route across the whole 8-MB floorplan with H-tree detour.
        let fp = floorplan_mean_route_mm();
        BaseLevelEnergies {
            l2_nj: l2_tag.probe_nj()
                + sram::data_access_nj(Capacity::from_mib(1))
                + tech.route_nj(0.8),
            l3_nj: l3_tag.probe_nj()
                + sram::data_access_nj(Capacity::from_mib(8))
                + tech.route_nj(fp * 1.3),
        }
    }
}

fn floorplan_mean_route_mm() -> f64 {
    let fp = floorplan::LShapeFloorplan::micro2003(Capacity::from_mib(8));
    fp.grid().mean_route_mm(0, fp.n_subarrays())
}

/// Dynamic energy of the conventional L2/L3 hierarchy over a run.
pub fn base_energy(h: &BaseHierarchy) -> EnergyNj {
    let e = BaseLevelEnergies::micro2003();
    EnergyNj::new(e.l2_nj) * h.l2_accesses() + EnergyNj::new(e.l3_nj) * h.l3_accesses()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::lower::LowerCache;
    use nuca::{DnucaCache, DnucaConfig, SearchPolicy};
    use nurapid::{NuRapidCache, NuRapidConfig};
    use simbase::{AccessKind, BlockAddr, Cycle};

    fn drive<C: LowerCache>(c: &mut C, n: u64) {
        let mut t = Cycle::ZERO;
        for i in 0..n {
            let out = c.access(BlockAddr::from_index((i * 13) % 4000), AccessKind::Read, t);
            t = out.complete_at + 20;
        }
    }

    #[test]
    fn nurapid_energy_accumulates_with_traffic() {
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        drive(&mut c, 100);
        let e100 = nurapid::energy::dynamic_energy(c.stats(), c.geometry());
        drive(&mut c, 900);
        let e1000 = nurapid::energy::dynamic_energy(c.stats(), c.geometry());
        assert!(e100.nj() > 0.0);
        assert!(e1000.nj() > e100.nj() * 5.0);
    }

    #[test]
    fn ss_performance_costs_more_than_ss_energy() {
        // The reason the paper runs D-NUCA's two policies separately:
        // multicast search burns energy on every bank.
        let run = |policy| {
            let mut c = DnucaCache::new(DnucaConfig::micro2003(policy));
            drive(&mut c, 2000);
            nuca::energy::dynamic_energy(c.stats(), c.geometry()).nj() / 2000.0
        };
        let perf = run(SearchPolicy::SsPerformance);
        let energy = run(SearchPolicy::SsEnergy);
        assert!(perf > 1.5 * energy, "ss-performance {perf} nJ/access vs ss-energy {energy}");
    }

    #[test]
    fn nurapid_beats_dnuca_ss_energy_per_access() {
        // The headline: NuRAPID's sequential tag-data access + few swaps
        // must land well below even ss-energy D-NUCA.
        let mut nr = NuRapidCache::new(NuRapidConfig::micro2003(4));
        drive(&mut nr, 3000);
        let nr_e = nurapid::energy::dynamic_energy(nr.stats(), nr.geometry()).nj() / 3000.0;
        let mut dn = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsEnergy));
        drive(&mut dn, 3000);
        let dn_e = nuca::energy::dynamic_energy(dn.stats(), dn.geometry()).nj() / 3000.0;
        assert!(nr_e < dn_e, "NuRAPID {nr_e} nJ/access must beat D-NUCA ss-energy {dn_e}");
    }

    #[test]
    fn base_levels_are_ordered() {
        let e = BaseLevelEnergies::micro2003();
        assert!(e.l2_nj > 0.0);
        assert!(e.l3_nj > 2.0 * e.l2_nj, "uniform 8-MB L3 must cost much more");
    }

    #[test]
    fn base_energy_counts_both_levels() {
        let mut h = BaseHierarchy::micro2003();
        drive(&mut h, 500);
        let e = base_energy(&h);
        assert!(e.nj() > 0.0);
        // At least one L3 access happened (cold misses), so energy must
        // exceed pure-L2 pricing.
        let just_l2 = EnergyNj::new(BaseLevelEnergies::micro2003().l2_nj) * h.l2_accesses();
        assert!(e.nj() > just_l2.nj());
    }
}
