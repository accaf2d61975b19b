//! Property tests for the telemetry registry, on the in-tree `simkit`
//! engine: histogram quantile estimates stay within one bucket of the
//! exact order statistic, and shard merge is associative and commutative
//! (merge order never changes the report).

use simkit::prop::{checker, range_u64, vec_of};
use simtel::hist::{bucket_of, LogHist};
use simtel::MetricSet;

/// Exact quantile of `samples` at `q`: the order statistic of rank
/// `ceil(q · n)` — the same rank definition [`LogHist::quantile`] uses.
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantile_estimates_stay_within_one_bucket_of_exact() {
    checker("hist_quantile_within_one_bucket").cases(128).check(
        &vec_of(range_u64(0, 1 << 34), 1, 300),
        |samples| {
            let mut h = LogHist::new();
            for &s in samples {
                h.record(s);
            }
            for q in [0.0, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
                let est = h.quantile(q);
                let exact = exact_quantile(samples, q);
                let (be, bx) = (bucket_of(est), bucket_of(exact));
                assert!(
                    be.abs_diff(bx) <= 1,
                    "q={q}: estimate {est} (bucket {be}) vs exact {exact} (bucket {bx})"
                );
                assert!(est <= h.max(), "estimate must not exceed the observed max");
            }
        },
    );
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let gen = (
        vec_of(range_u64(0, u64::MAX / 2), 0, 100),
        vec_of(range_u64(0, u64::MAX / 2), 0, 100),
        vec_of(range_u64(0, u64::MAX / 2), 0, 100),
    );
    checker("hist_merge_assoc_comm").cases(128).check(&gen, |(xs, ys, zs)| {
        let h = |samples: &Vec<u64>| {
            let mut h = LogHist::new();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let (a, b, c) = (h(xs), h(ys), h(zs));

        // Commutative: a ∪ b == b ∪ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    });
}

/// Builds a shard from generated (metric index, value) operations,
/// exercising all three metric kinds under colliding names.
fn shard(ops: &[(u64, u64)]) -> MetricSet {
    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
    let mut m = MetricSet::new();
    for &(sel, v) in ops {
        let name = NAMES[(sel % 3) as usize];
        match sel % 5 {
            0 | 1 => m.count(name, v),
            2 => m.gauge(name, v, (v % 1000) as f64 / 7.0),
            _ => m.observe(name, v),
        }
    }
    m
}

#[test]
fn shard_merge_is_associative_and_commutative() {
    let ops = || vec_of((range_u64(0, u64::MAX), range_u64(0, u64::MAX)), 0, 60);
    checker("shard_merge_assoc_comm")
        .cases(128)
        .check(&(ops(), ops(), ops()), |(xs, ys, zs)| {
            let (a, b, c) = (shard(xs), shard(ys), shard(zs));

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "merge must be associative");
        });
}

#[test]
fn merged_shard_equals_single_shard_over_the_union() {
    let ops = || vec_of((range_u64(0, u64::MAX), range_u64(0, u64::MAX)), 0, 60);
    checker("shard_merge_equals_union")
        .cases(128)
        .check(&(ops(), ops()), |(xs, ys)| {
            let mut merged = shard(xs);
            merged.merge(&shard(ys));
            // Counters and histograms are order-insensitive sums, so the
            // merged shard must equal one shard fed the concatenation.
            let mut both = xs.clone();
            both.extend_from_slice(ys);
            let union = shard(&both);
            assert_eq!(merged.counters, union.counters);
            assert_eq!(merged.hists, union.hists);
        });
}
