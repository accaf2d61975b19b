//! Order statistics the benchmark reports and gates on.
//!
//! Quantiles follow Python's `statistics.quantiles` with its default
//! `"exclusive"` method, so the spreads printed here match the ones that
//! module computes from the same samples.

/// The `n - 1` cut points dividing `xs` into `n` equal-probability groups,
/// exactly as `statistics.quantiles(xs, n=n)` computes them.
///
/// # Panics
///
/// Panics on an empty sample or `n < 1`.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    assert!(!xs.is_empty(), "quantiles need at least one sample");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return vec![data[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // Negative when the clamp raised j: the cut extrapolates below
            // the second sample, as Python's does.
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// The median (the mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// First and third quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let q = quantiles(xs, 4);
    (q[0], q[2])
}

/// Interquartile range as a share of the median — the run-to-run spread
/// every end-to-end bound is compared against (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Candidate tail percentiles in per-mille, highest first.
const TAILS_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten of `n` samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS_PERMILLE
        .iter()
        .find(|&&p| n as u64 * u64::from(1000 - p) / 1000 >= 10)
        .map(|&p| f64::from(p) / 10.0)
}

/// The `p`-th percentile (0 < p < 100, in tenths of a percent precision)
/// by the same exclusive method as [`quantiles`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let permille = (p * 10.0).round() as usize;
    assert!((1..1000).contains(&permille), "percentile {p} out of range");
    quantiles(xs, 1000)[permille - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // Reference values from `statistics.quantiles(xs, n=4)`.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let q = quantiles(&xs, 4);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        let q = quantiles(&[3.0, 1.0, 2.0], 4);
        assert!(close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0), "{q:?}");
        let q = quantiles(&[1.0, 2.0], 4);
        assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "{q:?}");
        assert_eq!(quantiles(&[7.0], 4), vec![7.0; 3]);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_and_spread_agree() {
        let xs = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0];
        let (q1, q3) = quartiles(&xs);
        // statistics.quantiles(xs, n=4) -> [9.775, 10.0, 10.225]
        assert!(close(q1, 9.775) && close(q3, 10.225), "{q1} {q3}");
        assert!(close(spread(&xs), (q3 - q1) / 10.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(240), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule's promise: at least ten samples lie above the cut.
        for n in [20usize, 57, 200, 282, 1234, 20_000] {
            let p = tail_percentile(n).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&xs, p);
            let beyond = xs.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn percentile_interpolates_like_python() {
        // statistics.quantiles(range(1, 101), n=100)[94] == 95.95
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&xs, 95.0), 95.95));
        assert!(close(percentile(&xs, 50.0), 50.5));
    }
}
