//! Event counters for D-NUCA and its compressed layout: per-position hit
//! distribution, bank and smart-search traffic, swap, way-memo and
//! decompression counts.

use simbase::stats::{BucketDist, Counter};

/// Statistics of one D-NUCA cache instance, in either way layout. The
/// way-memo counters stay zero in the compressed layout, and the
/// decompression and refusal counters in the uniform one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnucaStats {
    /// Demand hits per bank position (0 = closest).
    pub position_hits: BucketDist,
    /// Demand misses.
    pub misses: Counter,
    /// Total demand accesses.
    pub accesses: Counter,
    /// Full bank accesses (tag + data: demand hits, fills, swap traffic),
    /// indexed by bank.
    pub bank_accesses: Vec<u64>,
    /// Tag-only bank searches (multicast probes that did not return data),
    /// indexed by bank.
    pub bank_searches: Vec<u64>,
    /// Smart-search array probes.
    pub ss_accesses: Counter,
    /// False hits: banks probed because of a partial-tag match that turned
    /// out not to hold the block.
    pub false_hits: Counter,
    /// Bubble swaps performed (each touches two banks).
    pub swaps: Counter,
    /// Misses detected early by the smart-search array (no partial match).
    pub early_misses: Counter,
    /// Off-chip reads.
    pub memory_reads: Counter,
    /// Off-chip writes (dirty evictions).
    pub writebacks: Counter,
    /// Way-memo table lookups (zero under the two smart-search policies).
    pub memo_lookups: Counter,
    /// Way-memo lookups whose remembered position held the block — these
    /// accesses skip the smart-search probe entirely.
    pub memo_hits: Counter,
    /// Hits served from a compressed position-0 way — each pays one
    /// decompression.
    pub decompressions: Counter,
    /// Promotions into position 0 refused because the block does not
    /// compress to a half frame.
    pub promotion_refusals: Counter,
}

impl DnucaStats {
    /// Creates zeroed statistics for `n_positions` bank positions over
    /// `n_banks` banks.
    pub fn new(n_positions: usize, n_banks: usize) -> Self {
        DnucaStats {
            position_hits: BucketDist::new(n_positions),
            misses: Counter::new(),
            accesses: Counter::new(),
            bank_accesses: vec![0; n_banks],
            bank_searches: vec![0; n_banks],
            ss_accesses: Counter::new(),
            false_hits: Counter::new(),
            swaps: Counter::new(),
            early_misses: Counter::new(),
            memory_reads: Counter::new(),
            writebacks: Counter::new(),
            memo_lookups: Counter::new(),
            memo_hits: Counter::new(),
            decompressions: Counter::new(),
            promotion_refusals: Counter::new(),
        }
    }

    /// Fraction of demand accesses that hit at bank position `p`.
    pub fn position_access_frac(&self, p: usize) -> f64 {
        self.position_hits.count(p) as f64 / self.accesses.get().max(1) as f64
    }

    /// Fraction of demand accesses that missed.
    pub fn miss_frac(&self) -> f64 {
        self.misses.frac_of(self.accesses.get())
    }

    /// Total d-group (bank) accesses — full accesses plus tag searches —
    /// the quantity NuRAPID reduces by 61% (paper Section 1).
    pub fn total_bank_accesses(&self) -> u64 {
        self.bank_accesses.iter().sum::<u64>() + self.bank_searches.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_partition_accesses() {
        let mut s = DnucaStats::new(8, 128);
        for _ in 0..70 {
            s.accesses.inc();
            s.position_hits.record(0);
        }
        for _ in 0..20 {
            s.accesses.inc();
            s.position_hits.record(7);
        }
        for _ in 0..10 {
            s.accesses.inc();
            s.misses.inc();
        }
        let sum: f64 = (0..8).map(|p| s.position_access_frac(p)).sum::<f64>() + s.miss_frac();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bank_accesses_sum_full_and_searches() {
        let mut s = DnucaStats::new(8, 128);
        s.bank_accesses[3] += 2;
        s.bank_searches[100] += 5;
        assert_eq!(s.total_bank_accesses(), 7);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DnucaStats::new(8, 128);
        assert_eq!(s.miss_frac(), 0.0);
        assert_eq!(s.position_access_frac(0), 0.0);
    }
}
