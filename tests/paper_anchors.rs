//! The paper's headline claims, verified end-to-end at a reduced scale.
//!
//! These tests assert *directions and orderings* (who wins, where the
//! crossovers fall), which are stable at small scale; EXPERIMENTS.md
//! records the full-scale magnitudes against the paper's numbers.

use experiments::exps::{self, Sweep};
use experiments::Scale;
use workloads::profiles::by_name;

fn sweep() -> Sweep {
    // Three apps spanning the behavior space: a mid-size FP app, the
    // large-working-set app, and a low-load app.
    Sweep::with_apps(
        Scale {
            warmup: 60_000,
            measure: 90_000,
        },
        vec![
            by_name("equake").unwrap(),
            by_name("art").unwrap(),
            by_name("wupwise").unwrap(),
        ],
    )
}

#[test]
fn table2_and_table4_reproduce_paper_anchor_cells() {
    let t2 = exps::table2();
    // Paper Table 2: 0.42 / 3.3 / 0.40 / 4.6 nJ for the NuRAPID rows.
    for (i, want) in [(0, 0.42), (1, 3.3), (2, 0.40), (3, 4.6)] {
        let got = t2.rows[i].1;
        assert!((got - want).abs() / want < 0.30, "Table 2 row {i}: {got:.2} vs paper {want}");
    }
    let t4 = exps::table4();
    // Paper Table 4: fastest MB at 19 / 14 / 12 cycles; D-NUCA averages
    // ramp from ~7 to ~29.
    assert_eq!((t4.rows[0].0, t4.rows[0].1, t4.rows[0].2), (19, 14, 12));
    assert!(t4.rows[0].3 .1 < 9.0);
    assert!(t4.rows[7].3 .1 > 25.0);
}

#[test]
fn figure4_distance_associative_placement_wins() {
    let mut s = sweep();
    let f = exps::fig4(&mut s);
    // Paper: 74% (set-assoc) vs 86% (distance-assoc) first-group hits,
    // and far fewer accesses to the slowest two d-groups.
    assert!(f.avg_first_group(1) > f.avg_first_group(0) + 0.05);
    assert!(f.avg_last_two_groups(1) < f.avg_last_two_groups(0));
    // Both placements share the tag organization: identical misses.
    assert!((f.avg_miss(0) - f.avg_miss(1)).abs() < 1e-9);
}

#[test]
fn figure5_promotion_policies_order_correctly() {
    let mut s = sweep();
    let f = exps::fig5(&mut s);
    // Paper: 50% / 84% / 86% first-group accesses.
    let dm = f.avg_first_group(0);
    let nf = f.avg_first_group(1);
    let fs = f.avg_first_group(2);
    assert!(nf > dm + 0.05, "next-fastest {nf} vs demotion-only {dm}");
    assert!(fs >= nf - 0.02, "fastest {fs} vs next-fastest {nf}");
}

#[test]
fn figure6_ideal_bounds_the_policies() {
    let mut s = sweep();
    let f = exps::fig6(&mut s);
    let (dm, nf, _fs, ideal) = (f.overall(0), f.overall(1), f.overall(2), f.overall(3));
    assert!(ideal >= nf - 1e-9, "ideal {ideal} vs nf {nf}");
    assert!(nf >= dm - 0.01, "nf {nf} vs dm {dm}");
    assert!(ideal > 1.0, "ideal must beat the base hierarchy");
}

#[test]
fn figure7_dgroup_capacity_crossover() {
    let mut s = sweep();
    let f = exps::fig7(&mut s);
    let (g2, g4, g8) = (f.avg_first_group(0), f.avg_first_group(1), f.avg_first_group(2));
    // Paper: 90% / 85% / 77%, with a bigger drop from 4 to 8 d-groups
    // than from 2 to 4 (working sets fit 2-MB but not 1-MB d-groups).
    assert!(g2 > g4 && g4 > g8, "{g2} {g4} {g8}");
    assert!(g4 - g8 > g2 - g4, "drop 4->8 must exceed 2->4");
}

#[test]
fn figure8_four_dgroups_beat_two() {
    let mut s = sweep();
    let f = exps::fig8(&mut s);
    // Paper: +0.5% / +5.9% / +6.1% — the 2-d-group configuration's bigger
    // fast group does not pay for its longer latency.
    assert!(f.overall(1) > f.overall(0), "4 d-groups must beat 2");
}

#[test]
fn section_532_eight_dgroups_swap_about_twice_as_much() {
    // Paper §5.3.2: "the 8-d-group NuRAPID ... incurs 2.2 times more
    // swaps due to promotion compared to the 4-d-group NuRAPID."
    let s = sweep();
    let apps = s.apps().to_vec();
    let (mut s4, mut s8) = (0u64, 0u64);
    for p in apps {
        s4 += s.run(p, "nf4").counters.org.swaps;
        s8 += s.run(p, "nf8").counters.org.swaps;
    }
    let ratio = s8 as f64 / s4 as f64;
    assert!((1.4..=3.5).contains(&ratio), "8-d-group swap ratio {ratio} vs paper's 2.2x");
}

#[test]
fn figure9_nurapid_outperforms_dnuca() {
    let mut s = sweep();
    let f = exps::fig9(&mut s);
    let dnuca = f.overall(0);
    let nr4 = f.overall(1);
    assert!(nr4 > dnuca + 0.01, "NuRAPID {nr4} must beat D-NUCA {dnuca}");
}

#[test]
fn figure10_energy_headline() {
    let mut s = sweep();
    let f = exps::fig10(&mut s);
    // Paper: 77% lower L2 energy and 61% fewer d-group accesses than
    // D-NUCA. Directional bounds at small scale:
    assert!(
        f.energy_reduction_vs_dnuca() > 0.25,
        "energy reduction {}",
        f.energy_reduction_vs_dnuca()
    );
    assert!(
        f.access_reduction_vs_dnuca() > 0.2,
        "access reduction {}",
        f.access_reduction_vs_dnuca()
    );
}

/// The abstract's two headline numbers, tolerance-banded at a scale large
/// enough for the magnitudes (not just the directions) to converge:
/// "decreases L2 dynamic energy 77% while decreasing d-group accesses 61%"
/// relative to D-NUCA. At `Scale::quick()` the reproduction lands within a
/// few points of both (measured 77.6% / 64.5%); the bands leave room for
/// workload-calibration drift without letting the claims regress.
#[test]
fn abstract_headline_claims_within_tolerance_bands() {
    let mut s = Sweep::with_apps(
        Scale::quick(),
        vec![
            by_name("equake").unwrap(),
            by_name("art").unwrap(),
            by_name("wupwise").unwrap(),
        ],
    );
    let f = exps::fig10(&mut s);
    let energy = f.energy_reduction_vs_dnuca();
    let accesses = f.access_reduction_vs_dnuca();
    assert!(
        (energy - 0.77).abs() <= 0.10,
        "L2 dynamic-energy reduction {energy:.3} outside 0.77 ± 0.10 (paper: 77%)"
    );
    assert!(
        (accesses - 0.61).abs() <= 0.12,
        "d-group access reduction {accesses:.3} outside 0.61 ± 0.12 (paper: 61%)"
    );
}

#[test]
fn figure11_energy_delay_headline() {
    let mut s = sweep();
    let f = exps::fig11(&mut s);
    // Paper: ~7% lower energy-delay than both comparison points.
    assert!(f.nurapid_mean() < 1.0, "EDP {}", f.nurapid_mean());
    assert!(f.nurapid_mean() < f.dnuca_mean());
}

#[test]
fn section531_promotion_compensates_for_random_replacement() {
    let mut s = sweep();
    let l = exps::sec531(&mut s);
    let (_, dm_rand, dm_clock, dm_lru) = l.rows[0];
    let (_, nf_rand, _nf_clock, nf_lru) = l.rows[1];
    // The approximate-LRU middle ground lands between random and true LRU
    // under demotion-only (within noise at this scale).
    assert!(dm_clock > dm_rand - 0.03, "clock {dm_clock} vs random {dm_rand}");
    // Paper: demotion-only 54% (random) vs 64% (LRU); next-fastest 84%
    // (random) vs 87% (LRU) — i.e. the random/LRU gap shrinks sharply
    // under next-fastest.
    assert!(dm_lru > dm_rand, "LRU must beat random under demotion-only");
    let dm_gap = dm_lru - dm_rand;
    let nf_gap = (nf_lru - nf_rand).abs();
    assert!(nf_gap < dm_gap, "promotion must shrink the gap: dm {dm_gap} nf {nf_gap}");
    // Paper: next-fastest with random replacement (84%) beats
    // demotion-only even with perfect LRU (64%). At this reduced scale we
    // assert the weaker ordering against demotion-only with random.
    assert!(nf_rand > dm_rand, "next-fastest+random beats demotion-only+random");
}
