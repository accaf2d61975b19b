//! Placement and replacement policy knobs (paper Sections 2.4.1–2.4.2).

use simbase::digest::Variants;
use std::fmt;

/// What happens to a block that hits in a d-group other than the fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromotionPolicy {
    /// Blocks are only ever demoted; a block that lands in a slow d-group
    /// stays there until evicted (the strawman of Section 2.4.1).
    DemotionOnly,
    /// On a hit to d-group *g > 0*, promote the block to d-group *g − 1*,
    /// demoting that group's distance-replacement victim into the freed
    /// frame. The paper's best policy.
    #[default]
    NextFastest,
    /// On a hit to d-group *g > 0*, promote the block all the way to
    /// d-group 0, rippling demotions down to fill the freed frame.
    Fastest,
}

impl fmt::Display for PromotionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PromotionPolicy::DemotionOnly => "demotion-only",
            PromotionPolicy::NextFastest => "next-fastest",
            PromotionPolicy::Fastest => "fastest",
        })
    }
}

/// How the victim frame is chosen within a d-group for distance
/// replacement (Section 2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceVictimPolicy {
    /// Uniform random over the d-group's frames. O(1) hardware; promotion
    /// policies compensate for accidental demotion of hot blocks.
    #[default]
    Random,
    /// True LRU over the d-group's frames (thousands of blocks — the paper
    /// argues this is implementable only approximately; modeled exactly
    /// here as the upper bound).
    Lru,
    /// Approximate LRU (Section 2.4.2's middle ground): a CLOCK /
    /// second-chance sweep with one reference bit per frame — O(1)
    /// amortized and only one bit of state, but spares recently-touched
    /// frames like LRU.
    ClockApprox,
}

impl Variants for PromotionPolicy {
    const ALL: &'static [Self] = &[Self::DemotionOnly, Self::NextFastest, Self::Fastest];
}

impl Variants for DistanceVictimPolicy {
    const ALL: &'static [Self] = &[Self::Random, Self::Lru, Self::ClockApprox];
}

impl fmt::Display for DistanceVictimPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DistanceVictimPolicy::Random => "random",
            DistanceVictimPolicy::Lru => "true-LRU",
            DistanceVictimPolicy::ClockApprox => "approx-LRU (clock)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_choices() {
        // Section 5.3.1: "all NuRAPID results use random distance
        // replacement and next-fastest promotion policy."
        assert_eq!(PromotionPolicy::default(), PromotionPolicy::NextFastest);
        assert_eq!(DistanceVictimPolicy::default(), DistanceVictimPolicy::Random);
    }

    #[test]
    fn display_names() {
        assert_eq!(PromotionPolicy::DemotionOnly.to_string(), "demotion-only");
        assert_eq!(PromotionPolicy::NextFastest.to_string(), "next-fastest");
        assert_eq!(PromotionPolicy::Fastest.to_string(), "fastest");
        assert_eq!(DistanceVictimPolicy::Random.to_string(), "random");
        assert_eq!(DistanceVictimPolicy::Lru.to_string(), "true-LRU");
        assert_eq!(DistanceVictimPolicy::ClockApprox.to_string(), "approx-LRU (clock)");
    }
}
