//! The metrics registry: named counters, gauges, and histograms held in
//! a per-worker shard ([`MetricSet`]) with a deterministic merge.
//!
//! Merge semantics are chosen so that `merge` is **associative and
//! commutative** for every metric kind (property-tested), which makes
//! parallel sweeps aggregate bit-identically regardless of worker
//! scheduling:
//!
//! - counters: saturating sum;
//! - gauges: max by `(stamp, value-bits)` — the cycle-stamped "latest
//!   wins" rule, with the bit pattern as a total-order tie-break;
//! - histograms: bucket-wise sum ([`LogHist::merge`]).

use crate::hist::LogHist;
use std::collections::BTreeMap;

/// A cycle-stamped gauge: the value observed at the largest stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Simulation cycle at which the value was observed.
    pub stamp: u64,
    /// The observed value.
    pub value: f64,
}

impl Gauge {
    /// Keeps the observation with the larger `(stamp, value-bits)` key.
    /// Using the IEEE-754 bit pattern as the tie-break gives a total
    /// order on `f64` (NaN included), so the merge is deterministic.
    pub fn merge(&mut self, other: Gauge) {
        if (other.stamp, other.value.to_bits()) > (self.stamp, self.value.to_bits()) {
            *self = other;
        }
    }
}

/// One shard of the metrics registry. Each simulated run records into
/// its own `MetricSet` (single-threaded, no contention); shards are
/// merged deterministically at export time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    /// Saturating event counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Cycle-stamped gauges, sorted by name.
    pub gauges: BTreeMap<String, Gauge>,
    /// Log-scaled sample histograms, sorted by name.
    pub hists: BTreeMap<String, LogHist>,
}

impl MetricSet {
    /// An empty shard.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `n` to the named counter (saturating).
    pub fn count(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(n);
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Records a gauge observation at simulation cycle `stamp`.
    pub fn gauge(&mut self, name: &str, stamp: u64, value: f64) {
        let g = Gauge { stamp, value };
        if let Some(cur) = self.gauges.get_mut(name) {
            cur.merge(g);
        } else {
            self.gauges.insert(name.to_string(), g);
        }
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &str, sample: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(sample);
        } else {
            let mut h = LogHist::new();
            h.record(sample);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Merges another shard into this one (associative, commutative).
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, &n) in &other.counters {
            self.count(name, n);
        }
        for (name, &g) in &other.gauges {
            if let Some(cur) = self.gauges.get_mut(name) {
                cur.merge(g);
            } else {
                self.gauges.insert(name.clone(), g);
            }
        }
        for (name, h) in &other.hists {
            if let Some(cur) = self.hists.get_mut(name) {
                cur.merge(h);
            } else {
                self.hists.insert(name.clone(), h.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut m = MetricSet::new();
        m.count("a", 2);
        m.count("a", 3);
        m.count("b", u64::MAX);
        m.count("b", 1);
        assert_eq!(m.counters["a"], 5);
        assert_eq!(m.counters["b"], u64::MAX);
    }

    #[test]
    fn gauge_keeps_latest_stamp() {
        let mut m = MetricSet::new();
        m.gauge("ipc", 100, 1.5);
        m.gauge("ipc", 50, 9.0); // earlier stamp loses
        assert_eq!(
            m.gauges["ipc"],
            Gauge {
                stamp: 100,
                value: 1.5
            }
        );
        m.gauge("ipc", 200, 1.1);
        assert_eq!(m.gauges["ipc"].value, 1.1);
        // Equal stamps break ties on the value bit pattern, both ways.
        m.gauge("ipc", 200, 1.4);
        assert_eq!(m.gauges["ipc"].value, 1.4);
        m.gauge("ipc", 200, 1.2);
        assert_eq!(m.gauges["ipc"].value, 1.4);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_and_overlapping_names() {
        let mut a = MetricSet::new();
        a.count("x", 1);
        a.gauge("g", 10, 0.5);
        a.observe("h", 100);
        let mut b = MetricSet::new();
        b.count("x", 2);
        b.count("y", 7);
        b.gauge("g", 20, 0.25);
        b.observe("h", 3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["x"], 3);
        assert_eq!(ab.gauges["g"].stamp, 20);
        assert_eq!(ab.hists["h"].count(), 2);
    }

    #[test]
    fn empty_detection() {
        let mut m = MetricSet::new();
        assert!(m.is_empty());
        m.observe("h", 0);
        assert!(!m.is_empty());
    }
}
