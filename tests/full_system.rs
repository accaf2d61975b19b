//! Cross-crate integration: full-system runs through every lower-level
//! cache organization.

use experiments::exps::{kind_of, Sweep};
use experiments::runner::{run_app, L2Kind};
use experiments::Scale;
use nuca::SearchPolicy;
use nurapid::NuRapidConfig;
use workloads::profiles::{by_name, ROSTER};

fn tiny() -> Scale {
    Scale {
        warmup: 40_000,
        measure: 60_000,
    }
}

#[test]
fn every_organization_runs_every_roster_class() {
    // One high-load and one low-load app through all four organizations.
    for app in [by_name("equake").unwrap(), by_name("lucas").unwrap()] {
        for kind in [
            L2Kind::Base,
            L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            L2Kind::Coupled(4),
            L2Kind::Dnuca(SearchPolicy::SsEnergy),
        ] {
            let r = run_app(app, &kind, tiny());
            assert_eq!(r.counters.core.instructions, 60_000, "{}", app.name);
            assert!(r.ipc() > 0.05 && r.ipc() < 8.0, "{} ipc {}", app.name, r.ipc());
            assert!(r.counters.org.l2_accesses > 0, "{} must reach the L2", app.name);
            assert!(r.energy().total().nj() > 0.0);
        }
    }
}

#[test]
fn group_fractions_partition_accesses_in_all_nuca_organizations() {
    let app = by_name("mgrid").unwrap();
    for key in ["nf2", "nf4", "nf8", "sa4", "dn-perf", "dn-energy"] {
        let r = run_app(app, &kind_of(key), tiny());
        let total: f64 = r.group_fracs().iter().sum::<f64>() + r.miss_frac();
        assert!((total - 1.0).abs() < 1e-9, "{key}: fractions sum to {total}");
    }
}

#[test]
fn nurapid_miss_count_is_promotion_policy_invariant() {
    // Section 2.2: distance replacement never evicts, so the end-to-end
    // miss count is identical across promotion policies.
    let app = by_name("twolf").unwrap();
    let m: Vec<u64> = ["dm4", "nf4", "fs4", "id4"]
        .iter()
        .map(|k| run_app(app, &kind_of(k), tiny()).counters.org.l2_misses)
        .collect();
    assert!(m.windows(2).all(|w| w[0] == w[1]), "misses {m:?}");
}

#[test]
fn nurapid_miss_count_is_distance_victim_invariant() {
    let app = by_name("vpr").unwrap();
    let random = run_app(app, &kind_of("nf4"), tiny()).counters.org.l2_misses;
    let lru = run_app(app, &kind_of("lru-nf"), tiny()).counters.org.l2_misses;
    assert_eq!(random, lru);
}

#[test]
fn dnuca_miss_count_is_search_policy_invariant() {
    let app = by_name("parser").unwrap();
    let perf = run_app(app, &kind_of("dn-perf"), tiny()).counters.org.l2_misses;
    let energy = run_app(app, &kind_of("dn-energy"), tiny()).counters.org.l2_misses;
    assert_eq!(perf, energy);
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let app = by_name("applu").unwrap();
    let a = run_app(app, &kind_of("nf4"), tiny());
    let b = run_app(app, &kind_of("nf4"), tiny());
    let (a, b) = (&a.counters, &b.counters);
    assert_eq!(a.core.cycles, b.core.cycles);
    assert_eq!(a.org.l2_accesses, b.org.l2_accesses);
    assert_eq!(a.org.swaps, b.org.swaps);
    assert!((a.org.l2_energy.nj() - b.org.l2_energy.nj()).abs() < 1e-9);
}

/// Same seed, same config ⇒ **bit-identical** stats structs, not just the
/// same headline numbers: every counter, every d-group access histogram
/// bucket, every energy tally field. This is what makes a printed
/// `SimRng` seed a complete description of an experiment.
#[test]
fn same_seed_runs_produce_bit_identical_stats() {
    // Full-system: the entire AppRun (core result, hit/miss counts,
    // d-group fractions, energy tallies) compares equal field-for-field,
    // including exact f64 energy values.
    let app = by_name("equake").unwrap();
    for key in ["nf4", "dn-energy", "base"] {
        let a = run_app(app, &kind_of(key), tiny());
        let b = run_app(app, &kind_of(key), tiny());
        assert_eq!(a, b, "{key}: same-seed runs diverged");
    }

    // Cache-level: drive the raw simulators with identically seeded
    // generators and compare the whole stats structs (hits, misses,
    // histograms, swap and traffic counters).
    use cpu::uop::TraceSource;
    use simbase::Cycle;
    use workloads::TraceGenerator;
    let drive_blocks = |seed: u64| {
        let mut gen = TraceGenerator::new(by_name("art").unwrap(), seed);
        (0..30_000)
            .filter_map(|_| {
                let op = gen.next_op();
                op.mem_addr.map(|a| (a, op.access_kind()))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        drive_blocks(11),
        drive_blocks(11),
        "trace generation is the root of run determinism"
    );

    let geom = simbase::BlockGeometry::new(128);
    let run_nurapid_stats = || {
        let mut cache = nurapid::NuRapidCache::new(NuRapidConfig::micro2003(4));
        let mut t = Cycle::ZERO;
        for (addr, kind) in drive_blocks(7) {
            let out = cache.access_block(geom.block_of(addr), kind, t);
            t = out.complete_at + 1;
        }
        cache.stats().clone()
    };
    assert_eq!(run_nurapid_stats(), run_nurapid_stats());

    let run_dnuca_stats = || {
        let mut cache = nuca::DnucaCache::new(nuca::DnucaConfig::micro2003(SearchPolicy::SsEnergy));
        let mut t = Cycle::ZERO;
        for (addr, kind) in drive_blocks(7) {
            let out = cache.access_block(geom.block_of(addr), kind, t);
            t = out.complete_at + 1;
        }
        cache.stats().clone()
    };
    assert_eq!(run_dnuca_stats(), run_dnuca_stats());
}

#[test]
fn high_load_apps_exceed_low_load_apps_in_apki() {
    let sweep = Sweep::with_apps(
        tiny(),
        vec![
            by_name("applu").unwrap(),
            by_name("swim").unwrap(),
            by_name("lucas").unwrap(),
            by_name("wupwise").unwrap(),
        ],
    );
    let apki = |s: &Sweep, n: &str| s.run(by_name(n).unwrap(), "base").apki();
    let high = apki(&sweep, "applu").min(apki(&sweep, "swim"));
    let low = apki(&sweep, "lucas").max(apki(&sweep, "wupwise"));
    assert!(high > 2.0 * low, "high-load {high} must dwarf low-load {low}");
}

#[test]
fn roster_is_complete_and_runnable() {
    // Smoke-test every application at a very small scale on the base
    // hierarchy.
    let s = Scale {
        warmup: 10_000,
        measure: 15_000,
    };
    for app in ROSTER {
        let r = run_app(app, &L2Kind::Base, s);
        assert!(r.ipc() > 0.0, "{}", app.name);
    }
}

#[test]
fn swaps_flow_in_nuca_organizations_but_not_base() {
    let app = by_name("art").unwrap();
    let nr = run_app(app, &kind_of("nf4"), tiny());
    assert!(nr.counters.org.swaps > 0, "NuRAPID must promote/demote under pressure");
    let dn = run_app(app, &kind_of("dn-perf"), tiny());
    assert!(dn.counters.org.swaps > 0, "D-NUCA must bubble");
    let base = run_app(app, &kind_of("base"), tiny());
    assert_eq!(base.counters.org.swaps, 0);
    assert_eq!(base.counters.org.dgroup_accesses, 0);
}
