//! Property-based testing: generators, runner, and greedy shrinking.
//!
//! The engine is deliberately small. A [`Gen`] produces random values and
//! proposes smaller candidates for shrinking; [`Checker`] drives a fixed
//! number of seeded cases through a property closure, catches panics, and
//! on failure shrinks greedily before reporting a replayable seed.
//!
//! Determinism: the base seed for a property is derived from its name, so
//! the same workspace revision always runs the same cases — hermetic CI
//! with no hidden entropy. `SIMKIT_SEED=0x...` replays one specific case;
//! `SIMKIT_CASES=n` changes the case count globally.

use crate::corpus;
use simbase::rng::SimRng;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A generator of random test values with optional shrinking.
pub trait Gen {
    /// The value type produced.
    type Value: Clone + std::fmt::Debug;

    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes strictly "smaller" candidate values derived from `v`.
    ///
    /// The runner tries candidates in order and greedily recurses into the
    /// first one that still fails the property; returning an empty vector
    /// disables shrinking for this generator.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Uniform `u64` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

/// Uniform draw in `[lo, hi)`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn range_u64(lo: u64, hi: u64) -> U64Range {
    assert!(lo < hi, "empty range {lo}..{hi}");
    U64Range { lo, hi }
}

impl Gen for U64Range {
    type Value = u64;

    fn generate(&self, rng: &mut SimRng) -> u64 {
        self.lo + rng.below(self.hi - self.lo)
    }

    fn shrink(&self, v: &u64) -> Vec<u64> {
        let v = *v;
        if v == self.lo {
            return Vec::new();
        }
        // A halving ladder from `lo` toward `v`: lo, v - d/2, v - d/4, ...,
        // v - 1. Greedy descent over this list converges to the smallest
        // failing value in O(log d) rounds (binary search on the failure
        // boundary) instead of stepping linearly.
        let mut out = vec![self.lo];
        let mut delta = (v - self.lo) / 2;
        while delta > 0 {
            let cand = v - delta;
            if cand != self.lo {
                out.push(cand);
            }
            delta /= 2;
        }
        out.dedup();
        out
    }
}

/// Uniform `u32` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct U32Range(U64Range);

/// Uniform `u32` draw in `[lo, hi)`.
pub fn range_u32(lo: u32, hi: u32) -> U32Range {
    U32Range(range_u64(lo as u64, hi as u64))
}

impl Gen for U32Range {
    type Value = u32;

    fn generate(&self, rng: &mut SimRng) -> u32 {
        self.0.generate(rng) as u32
    }

    fn shrink(&self, v: &u32) -> Vec<u32> {
        self.0.shrink(&(*v as u64)).into_iter().map(|x| x as u32).collect()
    }
}

/// Uniform `u8` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct U8Range(U64Range);

/// Uniform `u8` draw in `[lo, hi)`.
pub fn range_u8(lo: u8, hi: u8) -> U8Range {
    U8Range(range_u64(lo as u64, hi as u64))
}

impl Gen for U8Range {
    type Value = u8;

    fn generate(&self, rng: &mut SimRng) -> u8 {
        self.0.generate(rng) as u8
    }

    fn shrink(&self, v: &u8) -> Vec<u8> {
        self.0.shrink(&(*v as u64)).into_iter().map(|x| x as u8).collect()
    }
}

/// Any `u8` (full range); shrinks toward zero.
pub fn any_u8() -> U8Range {
    U8Range(U64Range { lo: 0, hi: 256 })
}

/// Any `u64` (full range); shrinks toward zero.
#[derive(Debug, Clone, Copy)]
pub struct AnyU64;

/// Full-range `u64` draw.
pub fn any_u64() -> AnyU64 {
    AnyU64
}

impl Gen for AnyU64 {
    type Value = u64;

    fn generate(&self, rng: &mut SimRng) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, v: &u64) -> Vec<u64> {
        if *v == 0 {
            return Vec::new();
        }
        U64Range {
            lo: 0,
            hi: u64::MAX,
        }
        .shrink(v)
    }
}

/// Uniform `bool`; `true` shrinks to `false`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

/// Uniform `bool` draw.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Gen for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut SimRng) -> bool {
        rng.below(2) == 1
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform choice from a fixed list; shrinks toward earlier entries.
#[derive(Debug, Clone)]
pub struct Select<T> {
    choices: Vec<T>,
}

/// Uniform choice from `choices`.
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn select<T: Clone + std::fmt::Debug + PartialEq>(choices: Vec<T>) -> Select<T> {
    assert!(!choices.is_empty(), "select requires at least one choice");
    Select { choices }
}

impl<T: Clone + std::fmt::Debug + PartialEq> Gen for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        self.choices[rng.index(self.choices.len())].clone()
    }

    fn shrink(&self, v: &T) -> Vec<T> {
        // Earlier list positions are considered simpler.
        match self.choices.iter().position(|c| c == v) {
            Some(0) | None => Vec::new(),
            Some(i) => vec![self.choices[0].clone(), self.choices[i - 1].clone()],
        }
    }
}

/// Vector of values from an element generator, with a length range.
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Vector generator: length uniform in `[min_len, max_len)`, elements from
/// `elem`. Shrinks by dropping chunks, dropping single elements, and
/// shrinking individual elements.
///
/// # Panics
///
/// Panics if the length range is empty.
pub fn vec_of<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecGen<G> {
    assert!(min_len < max_len, "empty length range {min_len}..{max_len}");
    VecGen {
        elem,
        min_len,
        max_len,
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let len = self.min_len + rng.index(self.max_len - self.min_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = v.len();
        // Halve: drop the back half, then the front half.
        if n / 2 >= self.min_len && n > self.min_len {
            out.push(v[..n / 2].to_vec());
            out.push(v[n - n / 2..].to_vec());
        }
        // Drop single elements (bounded to keep the candidate list small).
        if n > self.min_len {
            for i in 0..n.min(16) {
                let mut c = v.clone();
                c.remove(i);
                out.push(c);
            }
        }
        // Shrink individual elements in place (positions bounded, but each
        // element's full candidate ladder kept — truncating it would stall
        // greedy descent just short of the failure boundary).
        for i in 0..n.min(8) {
            for cand in self.elem.shrink(&v[i]) {
                let mut c = v.clone();
                c[i] = cand;
                out.push(c);
            }
        }
        out
    }
}

macro_rules! tuple_gen {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut c = v.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(A: 0, B: 1);
tuple_gen!(A: 0, B: 1, C: 2);
tuple_gen!(A: 0, B: 1, C: 2, D: 3);
tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// A property failure, carrying the seed needed to replay it.
#[derive(Debug)]
pub struct PropError {
    /// Property name.
    pub name: String,
    /// Case seed that reproduces the failure.
    pub seed: u64,
    /// Panic message from the property body.
    pub message: String,
    /// Debug rendering of the (shrunk) failing value.
    pub value: String,
}

impl std::fmt::Display for PropError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "property '{}' failed (seed {:#x}): {}\n  failing value: {}\n  replay: SIMKIT_SEED={:#x} cargo test {}",
            self.name, self.seed, self.message, self.value, self.seed, self.name
        )
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

/// Installs (once) a panic hook that stays silent while the runner probes
/// candidate cases, so shrinking does not spray hundreds of backtraces.
fn init_quiet_hook() {
    HOOK_INIT.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                default(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` with panics captured (and silenced) rather than printed.
fn probe<V, F: Fn(&V)>(f: &F, v: &V) -> Result<(), String> {
    init_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| f(v)));
    QUIET_PANICS.with(|q| q.set(false));
    r.map_err(panic_message)
}

/// FNV-1a over the property name: the deterministic base seed.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builder for running one property.
pub struct Checker {
    name: String,
    cases: u32,
    max_shrink_steps: u32,
    corpus_paths: Vec<std::path::PathBuf>,
}

/// Starts a property check named `name` (conventionally the test function
/// name, so the printed replay command targets the right test).
pub fn checker(name: &str) -> Checker {
    Checker {
        name: name.to_string(),
        cases: default_cases(),
        max_shrink_steps: 400,
        corpus_paths: Vec::new(),
    }
}

fn default_cases() -> u32 {
    std::env::var("SIMKIT_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

impl Checker {
    /// Sets the number of random cases (default 64, or `SIMKIT_CASES`).
    #[must_use]
    pub fn cases(mut self, n: u32) -> Self {
        // An explicit SIMKIT_CASES wins over per-property counts so one
        // environment variable can dial the whole suite up or down.
        if std::env::var("SIMKIT_CASES").is_err() {
            self.cases = n;
        }
        self
    }

    /// Adds a regression-corpus file whose seeds replay before any random
    /// cases. Both the simkit native format and legacy
    /// `proptest-regressions` files are understood; missing files are
    /// silently skipped (a fresh checkout has no corpus yet).
    #[must_use]
    pub fn corpus(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.corpus_paths.push(path.into());
        self
    }

    /// Runs the property: corpus seeds first, then `cases` random cases.
    ///
    /// # Panics
    ///
    /// Panics with a replayable report if any case fails (after shrinking).
    pub fn check<G: Gen>(self, gen: &G, prop: impl Fn(&G::Value)) {
        if let Err(e) = self.try_check(gen, &prop) {
            // Re-panic with the full replay report as the test failure.
            panic!("[simkit] {e}");
        }
    }

    /// Like [`Checker::check`] but returns the failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first (shrunk) failing case.
    pub fn try_check<G: Gen>(&self, gen: &G, prop: &impl Fn(&G::Value)) -> Result<(), PropError> {
        // Replay mode: SIMKIT_SEED runs exactly one case.
        if let Some(seed) = env_seed() {
            return self.run_case(gen, prop, seed, true);
        }
        // Corpus seeds first: known-bad cases from previous runs.
        for path in &self.corpus_paths {
            for seed in corpus::seeds_for(path, &self.name) {
                self.run_case(gen, prop, seed, false)?;
            }
        }
        // Then the deterministic random sweep.
        let base = name_seed(&self.name);
        for i in 0..self.cases {
            let seed = SimRng::seeded(base.wrapping_add(u64::from(i))).next_u64();
            self.run_case(gen, prop, seed, false)?;
        }
        Ok(())
    }

    fn run_case<G: Gen>(
        &self,
        gen: &G,
        prop: &impl Fn(&G::Value),
        seed: u64,
        replay: bool,
    ) -> Result<(), PropError> {
        let mut rng = SimRng::seeded(seed);
        let value = gen.generate(&mut rng);
        let Err(first_msg) = probe(prop, &value) else {
            return Ok(());
        };
        let (value, message) = if replay {
            (value, first_msg)
        } else {
            self.shrunk(gen, prop, value, first_msg)
        };
        let err = PropError {
            name: self.name.clone(),
            seed,
            message,
            value: format!("{value:?}"),
        };
        // Persist the failing seed so future runs replay it before
        // generating novel cases (mirrors proptest's regression files).
        if let Some(path) = self.corpus_paths.first() {
            corpus::record_failure(path, &self.name, seed, &err.value);
        }
        Err(err)
    }

    /// Greedy shrink: repeatedly move to the first candidate that still
    /// fails, until no candidate fails or the step budget runs out.
    fn shrunk<G: Gen>(
        &self,
        gen: &G,
        prop: &impl Fn(&G::Value),
        mut value: G::Value,
        mut message: String,
    ) -> (G::Value, String) {
        let mut steps = 0;
        'outer: while steps < self.max_shrink_steps {
            for cand in gen.shrink(&value) {
                steps += 1;
                if let Err(msg) = probe(prop, &cand) {
                    value = cand;
                    message = msg;
                    continue 'outer;
                }
                if steps >= self.max_shrink_steps {
                    break;
                }
            }
            break;
        }
        (value, message)
    }
}

fn env_seed() -> Option<u64> {
    let raw = std::env::var("SIMKIT_SEED").ok()?;
    let raw = raw.trim();
    let parsed = raw
        .strip_prefix("0x")
        .map_or_else(|| raw.parse().ok(), |h| u64::from_str_radix(h, 16).ok());
    assert!(parsed.is_some(), "SIMKIT_SEED={raw:?} is not a u64");
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        checker("passing_property_passes").cases(50).check(
            &vec_of(range_u64(0, 100), 0, 20),
            |v| {
                assert!(v.iter().all(|&x| x < 100));
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_minimal_counterexample() {
        // Property: no element is >= 50. Minimal counterexample under our
        // shrinkers is a single-element vector [50].
        let err = checker("failing_property_shrinks")
            .cases(200)
            .try_check(&vec_of(range_u64(0, 100), 0, 20), &|v: &Vec<u64>| {
                assert!(v.iter().all(|&x| x < 50), "element too big");
            })
            .expect_err("property must fail");
        assert_eq!(err.value, "[50]", "greedy shrink should reach [50]");
        assert!(err.message.contains("element too big"));
    }

    #[test]
    fn tuple_generation_respects_ranges() {
        checker("tuple_generation_respects_ranges").cases(100).check(
            &(range_u64(5, 10), range_u32(0, 3), any_bool()),
            |&(a, b, _)| {
                assert!((5..10).contains(&a));
                assert!(b < 3);
            },
        );
    }

    #[test]
    fn select_draws_only_from_choices() {
        checker("select_draws_only_from_choices").cases(60).check(
            &select(vec![2usize, 4, 8]),
            |&n| {
                assert!([2, 4, 8].contains(&n));
            },
        );
    }

    #[test]
    fn same_name_generates_identical_cases() {
        // Hermetic determinism: the case stream depends only on the name.
        let log1 = std::cell::RefCell::new(Vec::new());
        checker("stream_determinism").cases(10).check(&range_u64(0, 1000), |&v| {
            log1.borrow_mut().push(v);
        });
        let log2 = std::cell::RefCell::new(Vec::new());
        checker("stream_determinism").cases(10).check(&range_u64(0, 1000), |&v| {
            log2.borrow_mut().push(v);
        });
        assert_eq!(log1.into_inner(), log2.into_inner());
    }

    #[test]
    fn shrink_candidates_stay_in_range() {
        let g = range_u64(10, 100);
        for v in [11u64, 50, 99] {
            for c in g.shrink(&v) {
                assert!((10..100).contains(&c), "candidate {c} escaped range");
                assert!(c < v, "candidate {c} not smaller than {v}");
            }
        }
        assert!(g.shrink(&10).is_empty());
    }

    #[test]
    fn vec_shrink_never_goes_below_min_len() {
        let g = vec_of(range_u64(0, 10), 2, 6);
        let mut rng = SimRng::seeded(1);
        for _ in 0..50 {
            let v = g.generate(&mut rng);
            for c in g.shrink(&v) {
                assert!(c.len() >= 2, "shrunk below min_len: {c:?}");
            }
        }
    }
}
