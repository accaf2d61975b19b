//! Dynamic-energy pricing of the D-NUCA cache: event counts × the
//! per-operation energies of [`cachemodel::catalog`] (Table 2).
//!
//! Lives here (rather than in the `energy` crate) so the cache can price
//! itself for [`memsys::org::Organization::report`].

use crate::stats::DnucaStats;
use cachemodel::catalog::{self, DnucaGeometry};
use simbase::EnergyNj;

/// Dynamic energy of a D-NUCA cache over a run: smart-search probes, full
/// bank accesses (demand, fills, swaps) and tag-only searches, each at
/// the bank's network-distance-dependent cost, plus way-memo lookups for
/// the memoized search policy and one decompressor activation per
/// compressed-way hit. Each of the last two terms is an exact zero
/// wherever its counter is (the two smart-search policies, the uniform
/// layout), so it leaves the sum's bits unchanged.
pub fn dynamic_energy(stats: &DnucaStats, geo: &DnucaGeometry) -> EnergyNj {
    let mut e = catalog::smart_search_energy() * stats.ss_accesses.get();
    for b in 0..geo.n_banks() {
        e += geo.bank_access_energy(b) * stats.bank_accesses[b];
        e += geo.bank_search_energy(b) * stats.bank_searches[b];
    }
    e += catalog::way_memo_energy() * stats.memo_lookups.get();
    e += catalog::decompressor_energy() * stats.decompressions.get();
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DnucaCache, DnucaConfig, SearchPolicy};
    use memsys::lower::LowerCache;
    use simbase::{AccessKind, BlockAddr, Cycle};

    #[test]
    fn multicast_costs_more_than_serial_search() {
        let run = |policy| {
            let mut c = DnucaCache::new(DnucaConfig::micro2003(policy));
            let mut t = Cycle::ZERO;
            for i in 0..2000u64 {
                let out = c.access(BlockAddr::from_index((i * 13) % 4000), AccessKind::Read, t);
                t = out.complete_at + 20;
            }
            dynamic_energy(c.stats(), c.geometry()).nj() / 2000.0
        };
        let perf = run(SearchPolicy::SsPerformance);
        let energy = run(SearchPolicy::SsEnergy);
        assert!(perf > energy, "multicast {perf} nJ/access vs serial {energy}");
    }
}
