//! Energy trade-off: sequential tag-data access with few swaps vs
//! D-NUCA's searches and bubble swaps (the paper's 77%-lower-L2-energy
//! headline, on one workload).
//!
//! ```text
//! cargo run --release --example energy_tradeoff
//! ```

use nurapid_suite::cpu::uop::TraceSource;
use nurapid_suite::cpu::{CoreParams, OooCore};
use nurapid_suite::energy::l2;
use nurapid_suite::memsys::hierarchy::BaseHierarchy;
use nurapid_suite::memsys::l1::CoreMemSystem;
use nurapid_suite::nuca::{self, DnucaCache, DnucaConfig, SearchPolicy};
use nurapid_suite::nurapid::{self, NuRapidCache, NuRapidConfig};
use nurapid_suite::workloads::{profiles, TraceGenerator};

const INSTRUCTIONS: u64 = 400_000;

fn main() {
    let app = profiles::by_name("equake").expect("in roster");
    println!("workload: {} ({} instructions)\n", app.name, INSTRUCTIONS);
    println!(
        "{:<24} {:>14} {:>14} {:>12}",
        "organization", "L2 nJ/1K inst", "L2 accesses", "data-array ops"
    );

    // NuRAPID.
    {
        let mut cache = NuRapidCache::new(NuRapidConfig::micro2003(4));
        cache.prefill();
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(cache));
        let mut gen = TraceGenerator::new(app, 9);
        for _ in 0..INSTRUCTIONS {
            let op = gen.next_op();
            core.execute(op);
        }
        let c = core.mem().lower();
        let e = nurapid::energy::dynamic_energy(c.stats(), c.geometry());
        println!(
            "{:<24} {:>14.2} {:>14} {:>12}",
            "NuRAPID (4 d-groups)",
            e.nj() * 1000.0 / INSTRUCTIONS as f64,
            c.stats().accesses,
            c.stats().total_dgroup_accesses()
        );
    }

    // D-NUCA, both search policies.
    for (label, policy) in [
        ("D-NUCA ss-performance", SearchPolicy::SsPerformance),
        ("D-NUCA ss-energy", SearchPolicy::SsEnergy),
    ] {
        let mut cache = DnucaCache::new(DnucaConfig::micro2003(policy));
        cache.prefill();
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(cache));
        let mut gen = TraceGenerator::new(app, 9);
        for _ in 0..INSTRUCTIONS {
            let op = gen.next_op();
            core.execute(op);
        }
        let c = core.mem().lower();
        let e = nuca::energy::dynamic_energy(c.stats(), c.geometry());
        println!(
            "{:<24} {:>14.2} {:>14} {:>12}",
            label,
            e.nj() * 1000.0 / INSTRUCTIONS as f64,
            c.stats().accesses,
            c.stats().total_bank_accesses()
        );
    }

    // Conventional hierarchy.
    {
        let mut cache = BaseHierarchy::micro2003();
        cache.prefill();
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(cache));
        let mut gen = TraceGenerator::new(app, 9);
        for _ in 0..INSTRUCTIONS {
            let op = gen.next_op();
            core.execute(op);
        }
        let h = core.mem().lower();
        let e = l2::base_energy(h);
        println!(
            "{:<24} {:>14.2} {:>14} {:>12}",
            "base L2/L3",
            e.nj() * 1000.0 / INSTRUCTIONS as f64,
            h.l2_accesses(),
            "-"
        );
    }

    println!(
        "\nD-NUCA's multicast searches touch every bank position on every\n\
         access (ss-performance) or pay the smart-search array plus false\n\
         hits (ss-energy); NuRAPID probes one centralized tag array and one\n\
         d-group, and swaps far less (paper Sections 1 and 5.4)."
    );
}
