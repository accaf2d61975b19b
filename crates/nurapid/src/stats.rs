//! Event counters and access distributions for NuRAPID.
//!
//! These feed the paper's figures directly: the per-d-group access
//! distribution (Figures 4, 5, 7), swap counts (Section 5.3.2's 2.2×
//! swap comparison), and the event counts the energy model prices
//! (tag probes, d-group reads/writes, memory traffic).

use simbase::stats::{BucketDist, Counter};

/// Statistics of one NuRAPID cache instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NuRapidStats {
    /// Demand accesses per d-group (hits only).
    pub group_hits: BucketDist,
    /// Demand accesses that missed the cache.
    pub misses: Counter,
    /// Total demand accesses.
    pub accesses: Counter,
    /// Tag-array probes (one per demand access).
    pub tag_probes: Counter,
    /// Tag-array pointer rewrites (one per block movement).
    pub tag_writes: Counter,
    /// Data-array reads per d-group (demand + swap traffic).
    pub group_reads: BucketDist,
    /// Data-array writes per d-group (fills + swap traffic).
    pub group_writes: BucketDist,
    /// Blocks promoted toward faster d-groups.
    pub promotions: Counter,
    /// Blocks demoted toward slower d-groups.
    pub demotions: Counter,
    /// Off-chip reads (misses).
    pub memory_reads: Counter,
    /// Off-chip writes (dirty evictions).
    pub writebacks: Counter,
}

impl NuRapidStats {
    /// Creates zeroed statistics for `n_dgroups` d-groups.
    pub fn new(n_dgroups: usize) -> Self {
        NuRapidStats {
            group_hits: BucketDist::new(n_dgroups),
            misses: Counter::new(),
            accesses: Counter::new(),
            tag_probes: Counter::new(),
            tag_writes: Counter::new(),
            group_reads: BucketDist::new(n_dgroups),
            group_writes: BucketDist::new(n_dgroups),
            promotions: Counter::new(),
            demotions: Counter::new(),
            memory_reads: Counter::new(),
            writebacks: Counter::new(),
        }
    }

    /// Number of d-groups.
    pub fn n_dgroups(&self) -> usize {
        self.group_hits.len()
    }

    /// Fraction of all demand accesses that hit in d-group `g`
    /// (the stacked bars of Figures 4, 5, and 7).
    pub fn group_access_frac(&self, g: usize) -> f64 {
        self.group_hits.count(g) as f64 / self.accesses.get().max(1) as f64
    }

    /// Fraction of demand accesses that missed.
    pub fn miss_frac(&self) -> f64 {
        self.misses.frac_of(self.accesses.get())
    }

    /// Total d-group (data-array) accesses: demand reads plus all swap
    /// reads and writes — the quantity the paper reports NuRAPID reduces
    /// by 61% relative to D-NUCA.
    pub fn total_dgroup_accesses(&self) -> u64 {
        self.group_reads.total() + self.group_writes.total()
    }

    /// Total swaps (each promotion or demotion moves one block).
    pub fn total_moves(&self) -> u64 {
        self.promotions.get() + self.demotions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_with_misses() {
        let mut s = NuRapidStats::new(4);
        for _ in 0..80 {
            s.accesses.inc();
            s.group_hits.record(0);
        }
        for _ in 0..15 {
            s.accesses.inc();
            s.group_hits.record(2);
        }
        for _ in 0..5 {
            s.accesses.inc();
            s.misses.inc();
        }
        let total: f64 = (0..4).map(|g| s.group_access_frac(g)).sum::<f64>() + s.miss_frac();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(s.group_access_frac(0), 0.80);
        assert_eq!(s.miss_frac(), 0.05);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = NuRapidStats::new(2);
        assert_eq!(s.group_access_frac(0), 0.0);
        assert_eq!(s.miss_frac(), 0.0);
        assert_eq!(s.total_dgroup_accesses(), 0);
        assert_eq!(s.total_moves(), 0);
        assert_eq!(s.n_dgroups(), 2);
    }

    #[test]
    fn dgroup_accesses_count_reads_and_writes() {
        let mut s = NuRapidStats::new(2);
        s.group_reads.record(0);
        s.group_reads.record(1);
        s.group_writes.record(1);
        assert_eq!(s.total_dgroup_accesses(), 3);
    }
}
