//! Lightweight statistics: counters, distributions, and rate helpers.
//!
//! Every simulator crate reports through these types so the experiment
//! harness can print uniform tables (fractions of accesses per d-group,
//! miss rates, IPC, energy breakdowns).

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    ///
    /// Saturates at `u64::MAX`: a runaway multi-billion-event run must
    /// degrade to a pinned counter, not panic in debug builds.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increments by `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `denom` (0.0 if `denom` is zero).
    pub fn frac_of(self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 / denom as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A bucketed distribution over a small fixed set of categories
/// (e.g. accesses per d-group).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketDist {
    buckets: Vec<u64>,
}

impl BucketDist {
    /// Creates a distribution with `n` buckets, all zero.
    pub fn new(n: usize) -> Self {
        BucketDist {
            buckets: vec![0; n],
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Records one event in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn record(&mut self, i: usize) {
        self.buckets[i] += 1;
    }

    /// Raw count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total events across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of events in bucket `i` (0.0 if the distribution is empty).
    pub fn frac(&self, i: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.buckets[i] as f64 / t as f64
        }
    }
}

/// Geometric mean over positive samples, the conventional aggregate for
/// relative-performance figures like the paper's Figures 6, 8, and 9.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeoMean {
    n: u64,
    log_sum: f64,
}

impl GeoMean {
    /// Creates an empty geometric mean.
    pub fn new() -> Self {
        GeoMean { n: 0, log_sum: 0.0 }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive.
    pub fn add(&mut self, x: f64) {
        assert!(x > 0.0, "geometric mean requires positive samples, got {x}");
        self.n += 1;
        self.log_sum += x.ln();
    }

    /// The geometric mean (1.0 when empty).
    pub fn get(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            (self.log_sum / self.n as f64).exp()
        }
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `86.2%`.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basic() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.frac_of(10), 0.5);
        assert_eq!(c.frac_of(0), 0.0);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "inc past MAX must pin, not wrap");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "add past MAX must pin, not wrap");
    }

    #[test]
    fn bucket_dist_records_and_fracs() {
        let mut d = BucketDist::new(4);
        for _ in 0..3 {
            d.record(0);
        }
        d.record(2);
        assert_eq!(d.total(), 4);
        assert_eq!(d.count(0), 3);
        assert_eq!(d.frac(0), 0.75);
        assert_eq!(d.frac(1), 0.0);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn bucket_dist_empty_fracs_are_zero() {
        let d = BucketDist::new(2);
        assert_eq!(d.frac(0), 0.0);
        assert_eq!(d.frac(1), 0.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let mut g = GeoMean::new();
        g.add(2.0);
        g.add(8.0);
        assert!((g.get() - 4.0).abs() < 1e-12);
        assert_eq!(GeoMean::new().get(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        GeoMean::new().add(0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.862), "86.2%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
