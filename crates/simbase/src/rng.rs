//! Deterministic random number generation for reproducible simulations.
//!
//! Every stochastic component in the workspace (workload generators, random
//! distance replacement, branch outcome draws) takes a [`SimRng`] so that
//! experiment results are bit-reproducible given a seed.
//!
//! The generator is an in-tree **xoshiro256++** (Blackman & Vigna) seeded
//! through **splitmix64**, so the workspace carries no external RNG
//! dependency and the stream is pinned forever by the golden-value tests
//! below: any refactor that changes a single draw fails loudly instead of
//! silently invalidating every recorded experiment.

/// splitmix64 step: advances `state` and returns the next output.
///
/// Used to expand a 64-bit seed into the 256-bit xoshiro state (the
/// construction recommended by the xoshiro authors: never seed a generator
/// with correlated words).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, seedable RNG used throughout the simulators.
///
/// Implements xoshiro256++ directly so the concrete stream is owned by this
/// workspace and cannot drift with a dependency upgrade.
///
/// # Examples
///
/// ```
/// use simbase::rng::SimRng;
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// A probability compiled to the integer cut a Bernoulli draw compares
/// against: `p` hits when `bits53() < ceil(p · 2^53)`.
///
/// This takes the same branch as the float test `unit() < p` on every
/// draw. `unit()` is `u · 2^-53` for the 53-bit integer `u`, and both
/// `u` and `p · 2^53` are exact in an `f64` (scaling by a power of two
/// loses nothing), so `u · 2^-53 < p` holds exactly when `u < p · 2^53`,
/// that is when `u < ceil(p · 2^53)`. `p` is clamped to `[0, 1]` first,
/// which leaves the float test's outcome unchanged; `NaN`, which the
/// float test never beats, saturates to the cut 0.
///
/// # Examples
///
/// ```
/// use simbase::rng::{Odds, SimRng};
/// let (mut a, mut b) = (SimRng::seeded(3), SimRng::seeded(3));
/// let odds = Odds::new(0.3);
/// for _ in 0..100 {
///     assert_eq!(a.hit(odds), b.unit() < 0.3);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Odds(u64);

impl Odds {
    /// Compiles `p` (clamped to `[0, 1]`; `NaN` never hits).
    pub fn new(p: f64) -> Self {
        // `as` saturates, and maps `NaN` to 0.
        Odds((p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Whether a 53-bit draw ([`SimRng::bits53`]) falls under the cut:
    /// several cuts can test one draw.
    #[inline]
    pub fn admits(self, bits: u64) -> bool {
        bits < self.0
    }
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The raw 256-bit generator state, for checkpointing. Reading the
    /// state does not advance the stream.
    pub const fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`SimRng::state`] snapshot. The
    /// restored generator continues the original stream exactly where the
    /// snapshot was taken.
    pub const fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Derives an independent child RNG, labeled by `stream`.
    ///
    /// Useful for giving each benchmark or cache component its own stream so
    /// adding draws in one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seeded(base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform draw in `[0, bound)`, unbiased (Lemire's widening-multiply
    /// rejection method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            // Threshold = 2^64 mod bound; redrawing below it removes bias.
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw in `[0, bound)` as `usize`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// The high 53 bits of one raw draw: the integer [`SimRng::unit`]
    /// scales into `[0, 1)`.
    #[inline]
    pub fn bits53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform draw in `[0.0, 1.0)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        self.bits53() as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`; `NaN`
    /// never hits). Same draw and same outcome as `unit() < p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.hit(Odds::new(p))
    }

    /// Bernoulli draw against a precomputed [`Odds`]: one raw draw and
    /// one integer compare.
    #[inline]
    pub fn hit(&mut self, odds: Odds) -> bool {
        odds.admits(self.bits53())
    }

    /// Raw 64-bit draw: one xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Geometric-ish draw: number of failures before a success with
    /// probability `p`, capped at `cap`.
    pub fn geometric(&mut self, p: f64, cap: u64) -> u64 {
        self.geometric_odds(Odds::new(p.clamp(1e-9, 1.0)), cap)
    }

    /// [`SimRng::geometric`] against a precomputed success [`Odds`].
    #[inline]
    pub fn geometric_odds(&mut self, odds: Odds, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap && !self.hit(odds) {
            n += 1;
        }
        n
    }

    /// Draws an index from a cumulative weight table.
    ///
    /// `cdf` must be non-decreasing and end at a positive total; the draw is
    /// uniform over `[0, total)`.
    ///
    /// # Panics
    ///
    /// Panics if `cdf` is empty or its last element is not positive.
    pub fn from_cdf(&mut self, cdf: &[f64]) -> usize {
        let total = *cdf.last().expect("cdf must be non-empty");
        assert!(total > 0.0, "cdf total must be positive");
        let x = self.unit() * total;
        match cdf.binary_search_by(|v| v.partial_cmp(&x).expect("cdf values must be comparable")) {
            Ok(i) => (i + 1).min(cdf.len() - 1),
            Err(i) => i.min(cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the exact output stream of `SimRng::seeded(42)`. If this test
    /// fails, every recorded experiment result in the repo is invalidated —
    /// do not update the constants without bumping the experiment records.
    #[test]
    fn golden_first_16_draws_seed_42() {
        // Independently checkable: xoshiro256++ over the splitmix64(42)
        // expansion. Generated once by this implementation and frozen.
        let mut r = SimRng::seeded(42);
        let got: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        let want = golden_stream(42, 16);
        assert_eq!(got, want, "seed-42 stream drifted");
    }

    /// Reference re-derivation of the stream from first principles, kept
    /// separate from the production code path so a bug in `next_u64` cannot
    /// hide in its own golden values.
    fn golden_stream(seed: u64, n: usize) -> Vec<u64> {
        let mut sm = seed;
        let mut step = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut s = [step(), step(), step(), step()];
        (0..n)
            .map(|_| {
                let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
                let t = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= t;
                s[3] = s[3].rotate_left(45);
                out
            })
            .collect()
    }

    /// Hard-frozen first four draws for two seeds, as literal constants,
    /// so even a simultaneous bug in implementation and reference cannot
    /// slip through a refactor unnoticed.
    #[test]
    fn golden_literals_are_frozen() {
        let mut r0 = SimRng::seeded(0);
        assert_eq!(
            [r0.next_u64(), r0.next_u64(), r0.next_u64(), r0.next_u64()],
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
            ]
        );
        let mut r1 = SimRng::seeded(1);
        assert_eq!(
            [r1.next_u64(), r1.next_u64(), r1.next_u64(), r1.next_u64()],
            [
                0xcfc5d07f6f03c29b,
                0xbf424132963fe08d,
                0x19a37d5757aaf520,
                0xbf08119f05cd56d6,
            ]
        );
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = SimRng::seeded(42);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_read_does_not_advance() {
        let mut a = SimRng::seeded(7);
        let s1 = a.state();
        let s2 = a.state();
        assert_eq!(s1, s2);
        let mut b = SimRng::from_state(s1);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seeded_is_deterministic() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = SimRng::seeded(1);
        let mut root2 = SimRng::seeded(1);
        let mut c1 = root1.fork(9);
        let mut c2 = root2.fork(9);
        assert_eq!(c1.next_u64(), c2.next_u64());
        // A different stream label diverges.
        let mut root3 = SimRng::seeded(1);
        let mut c3 = root3.fork(10);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_streams_do_not_correlate() {
        // Children forked under different labels share no draws with each
        // other or the parent over a long window.
        let mut root = SimRng::seeded(77);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let draws_a: std::collections::BTreeSet<u64> = (0..512).map(|_| a.next_u64()).collect();
        let overlap = (0..512).filter(|_| draws_a.contains(&b.next_u64())).count();
        assert_eq!(overlap, 0, "fork streams collided");
        let parent_hits = (0..512).filter(|_| draws_a.contains(&root.next_u64())).count();
        assert_eq!(parent_hits, 0, "fork correlated with parent");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seeded(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::seeded(23);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((8_000..12_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        SimRng::seeded(0).below(0);
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = SimRng::seeded(29);
        for _ in 0..10_000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x), "unit draw {x} out of range");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range p values are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    /// The integer cut takes the float test's branch on every draw, at
    /// the edges (0, 1, out of range, `NaN`), at probabilities that sit
    /// exactly on a 53-bit grid point or one ulp beside it, and at
    /// arbitrary ones.
    #[test]
    fn odds_match_the_float_test_on_every_draw() {
        let grid = |k: u64| k as f64 / (1u64 << 53) as f64;
        let mut ps = vec![0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY];
        ps.extend([0.15, 0.45, 0.5, 0.65, 0.88]);
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) + 1, (1 << 53) - 1] {
            let p = grid(k);
            ps.extend([p, p.next_up(), p.next_down()]);
        }
        let mut pick = SimRng::seeded(31);
        ps.extend((0..64).map(|_| pick.unit()));
        for p in ps {
            let odds = Odds::new(p);
            let mut a = SimRng::seeded(37);
            let mut b = SimRng::seeded(37);
            for _ in 0..2_000 {
                assert_eq!(a.hit(odds), b.unit() < p, "p = {p:e}");
            }
            // The cut itself is the first 53-bit value that misses, and
            // the one below it (when there is one) the last that hits.
            let q = p.clamp(0.0, 1.0);
            let cut = grid(odds.0).partial_cmp(&q);
            assert_ne!(cut, Some(std::cmp::Ordering::Less), "p = {p:e}");
            if odds.0 > 0 {
                assert!(grid(odds.0 - 1) < q, "p = {p:e}");
            }
        }
    }

    #[test]
    fn chance_frequency_roughly_matches_p() {
        let mut r = SimRng::seeded(11);
        let hits = (0..20_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn geometric_capped() {
        let mut r = SimRng::seeded(13);
        for _ in 0..100 {
            assert!(r.geometric(0.01, 5) <= 5);
        }
        // With p=1 the draw is always 0.
        assert_eq!(r.geometric(1.0, 100), 0);
    }

    #[test]
    fn from_cdf_distributes_by_weight() {
        let mut r = SimRng::seeded(17);
        let cdf = [0.1, 0.1, 1.0]; // weights 0.1, 0.0, 0.9
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.from_cdf(&cdf)] += 1;
        }
        assert!(counts[1] == 0, "zero-weight bucket must never be drawn");
        assert!(counts[2] > counts[0] * 5);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn index_covers_all_buckets() {
        let mut r = SimRng::seeded(19);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.index(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
