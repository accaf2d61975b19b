//! SMARTS-style sampled simulation + interval-parallel execution
//! (DESIGN.md §16, ROADMAP item 1).
//!
//! Two composable mechanisms turn a billion-instruction run from
//! wall-clock-prohibitive into minutes:
//!
//! 1. **Periodic sampling** ([`SampleSpec`]): the measured phase is cut
//!    into equal periods; each period is fast-forwarded functionally
//!    (every architectural effect applied, no timing, no energy, no
//!    telemetry — the same machinery as warm-up) except for a short
//!    detailed window at its head. The window's first `warmup` ops
//!    refill the out-of-order pipeline and are discarded; the next
//!    `measure` ops are observed as one [`WindowObs`]: the engine's
//!    exact [`Counters`] delta (DESIGN.md §11), integer d-group hits
//!    included. The estimated [`AppRun`] is the trace-ordered sum of the
//!    deltas, priced once by [`Counters::price`]. Ratio metrics
//!    (IPC, miss rate, energy per kilo-instruction) estimated from the
//!    windows converge on the full run's values, with the spread
//!    reported as a 95% confidence interval by the [`Estimator`].
//!
//! 2. **Interval execution**: the window list is split into K
//!    contiguous intervals. Interval k starts from the architectural
//!    state at its first window's trace offset — produced by one
//!    sequential functional prefix pass (interval k's snapshot continues
//!    from where interval k−1's left off) and keyed by
//!    [`interval_digest`] in the [`crate::CheckpointStore`], so a warm store
//!    skips the prefix entirely. With a store each interval streams its
//!    snapshot from the store's file, so no snapshot is held in memory;
//!    without one the prefix pass holds them for the run. The detailed
//!    intervals then run as independent jobs on [`simsched::pool`],
//!    whose results come back in job order for any thread count;
//!    stitching is therefore plain concatenation in trace order, and the
//!    merged result is bit-identical across 1/2/8 threads and cold/warm
//!    stores. The pool
//!    has one level of parallelism: a sampled run that is itself a pool
//!    job (every run a [`crate::exps::Sweep`] prefetches) executes its
//!    intervals in order on the worker that owns it, so a sweep of `T`
//!    workers holds at most `T` interval systems at once. Only a caller
//!    outside any pool spreads one run's intervals over threads.
//!
//! Interval 0's snapshot *is* the ordinary warm-up checkpoint (same
//! digest, same payload layout), so sampled and unsampled runs share it.
//! Every interval is seeded, drained, and stepped by the same
//! [`crate::engine::Phase`] as a full-detail run.
//!
//! Both warm-up modes were proven architecturally bit-identical by the
//! PR-5 differentials, which is what licenses the functional prefix: the
//! state seeding interval k is exactly the state a fully-functional run
//! of the prefix would produce, independent of how many windows preceded
//! it. The estimator trades that for timing fidelity inside the windows
//! only — the documented, quantified sampling error (`--exp sampling`).

use crate::engine::{self, Counters, Phase, Seed};
use crate::runner::{warmup_digest, AppRun, L2Kind, RunOptions, Scale};
use simbase::digest::{Digest, Hasher128, Tag};
use simsched::pool;
use simtel::Telemetry;
use std::time::Instant;
use workloads::BenchProfile;

/// The sampling regime: every `period` measured instructions, one
/// detailed window of `warmup` discarded ops (out-of-order pipeline
/// refill) followed by `measure` observed ops; the rest of the period is
/// functional fast-forward. `warmup + measure <= period` always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Instructions per sampling period.
    pub period: u64,
    /// Detailed-but-discarded ops at each window's head.
    pub warmup: u64,
    /// Observed ops per window.
    pub measure: u64,
}

impl SampleSpec {
    /// The default regime for a scale (the `--sample` flag): 20 windows
    /// across the measured phase with a 1/20 detailed fraction — ≥20×
    /// fewer detailed (timed) instructions than a full run at every
    /// scale, and far more at [`Scale::huge`], where the per-window
    /// detail is capped.
    pub fn for_scale(scale: Scale) -> SampleSpec {
        let period = (scale.measure / 20).max(1_000);
        SampleSpec {
            period,
            warmup: (period / 100).clamp(20, 2_000),
            measure: (period / 25).clamp(100, 10_000),
        }
    }

    /// Number of whole sampling windows in the measured phase (≥ 1).
    pub fn windows(&self, scale: Scale) -> u64 {
        (scale.measure / self.period).max(1)
    }

    /// Detailed (timed) instructions per window, discarded + observed.
    pub fn detailed_per_window(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// A snapshot at a given trace offset is the same whatever regime later
/// times the windows. Interval snapshots are keyed by the warm-up digest
/// plus that offset, never by a spec, so this tag only sets which digest
/// bytes hold the regime: the sampled run digests do, no warm-up digest.
const REGIME: Tag = Tag::Timing("the regime times windows after the barrier");

simbase::knobs!(SampleSpec {
    period: REGIME,
    warmup: REGIME,
    measure: REGIME,
});

/// Streaming mean / sample-variance accumulator (Welford), reporting a
/// 95% confidence interval for the mean — no external stats deps. Window
/// observations are fed strictly in trace order, so the result is
/// bit-identical for any execution interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Estimator {
    /// A fresh, empty estimator.
    pub fn new() -> Self {
        Estimator::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Observations so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 below two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Half-width of the 95% confidence interval for the mean:
    /// `1.96 · sqrt(s² / n)` (normal approximation — the windows are
    /// many and near-independent by construction).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * (self.variance() / self.n as f64).sqrt()
        }
    }

    /// The `(n, mean, ci95)` summary.
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            ci95: self.ci95(),
        }
    }
}

/// A mean ± 95%-CI summary of one sampled metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of windows observed.
    pub n: u64,
    /// Mean across windows.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Relative CI half-width (`ci95 / mean`; 0 for a zero mean).
    pub fn rel_ci(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.ci95 / self.mean
        }
    }
}

/// One sampled measurement window: the [`Counters`] delta over exactly
/// `spec.measure` observed instructions. Functional fast-forward touches
/// no counter (the warm paths elide them by design), and the window's own
/// detailed warm-up is excluded by taking the delta after it, so every
/// count covers the observed ops alone.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObs {
    /// Window index in trace order.
    pub index: u64,
    /// Measured-phase op offset of the window's period start.
    pub start: u64,
    /// Counters over the observed ops.
    pub counters: Counters,
}

impl WindowObs {
    /// Window IPC.
    pub fn ipc(&self) -> f64 {
        self.counters.core.ipc()
    }

    /// Window miss fraction of lower-organization accesses.
    pub fn miss_frac(&self) -> f64 {
        self.counters.org.miss_frac()
    }

    /// Window energy per kilo-instruction (nJ/KI).
    pub fn energy_per_ki(&self) -> f64 {
        let instructions = self.counters.core.instructions.max(1) as f64;
        self.counters.price().total().nj() * 1000.0 / instructions
    }
}

/// The result of one sampled run: the estimated [`AppRun`] (assembled
/// from the summed window deltas, so every ratio metric is the sampled
/// estimate of the full run's) plus the per-window observations and the
/// sampling bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRun {
    /// Estimated run (core and organization counters cover the observed
    /// windows only; ratio metrics estimate the full run's).
    pub run: AppRun,
    /// The sampling regime.
    pub spec: SampleSpec,
    /// Interval count the run was split into.
    pub intervals: u64,
    /// Instructions the full measured phase represents.
    pub total_instructions: u64,
    /// Detailed (timed) instructions actually executed, including the
    /// per-window discarded warm-ups.
    pub detailed_instructions: u64,
    /// Per-window observations, in trace order.
    pub windows: Vec<WindowObs>,
}

impl SampledRun {
    /// IPC estimate across windows.
    pub fn ipc(&self) -> Summary {
        self.estimate(WindowObs::ipc)
    }

    /// Miss-fraction estimate across windows.
    pub fn miss_frac(&self) -> Summary {
        self.estimate(WindowObs::miss_frac)
    }

    /// Energy-per-kilo-instruction estimate across windows (nJ/KI).
    pub fn energy_per_ki(&self) -> Summary {
        self.estimate(WindowObs::energy_per_ki)
    }

    /// Ratio of represented to detailed (timed) instructions — the
    /// headline "≥20× fewer detailed cycles" lever.
    pub fn speedup(&self) -> f64 {
        self.total_instructions as f64 / self.detailed_instructions.max(1) as f64
    }

    fn estimate(&self, f: impl Fn(&WindowObs) -> f64) -> Summary {
        let mut e = Estimator::new();
        for w in &self.windows {
            e.add(f(w));
        }
        e.summary()
    }
}

/// Digest keying interval k's architectural snapshot: the warm-up digest
/// (application, architectural configuration slice, warm-up budget,
/// seed, checkpoint version) under a distinct domain tag, plus the
/// absolute trace offset the snapshot was taken at. Timing-only knobs
/// are excluded exactly as for warm-up checkpoints, so every timing
/// variant of a configuration shares one snapshot chain. Offset 0 (the
/// warm-up boundary) is keyed by [`warmup_digest`] itself — interval 0
/// reuses the ordinary warm-up checkpoint.
pub fn interval_digest(
    profile: &BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    offset: u64,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-sample-snap-v1");
    h.write_digest(warmup_digest(profile, kind, scale));
    h.write_u64(offset);
    h.digest()
}

/// Digest of one sampled job: the plain run digest under a distinct
/// domain tag, plus every sampling knob. A sampled run can never alias
/// its unsampled twin (or a different regime) in a store or on disk.
pub fn sampled_digest(
    profile: &BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    intervals: u64,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-sampled-v1");
    h.write_digest(crate::runner::run_digest(profile, kind, scale));
    h.write_knobs(&spec);
    h.write_u64(intervals);
    h.digest()
}

/// Runs `profile` on `kind` at `scale` under the sampling regime `spec`,
/// split into `intervals` interval jobs executed on up to `threads`
/// worker threads. Called from inside a pool job (a sweep worker), the
/// intervals run in order on that job's thread instead, whatever
/// `threads` says. The result is **bit-identical for any thread count
/// and for cold, warm, or absent checkpoint stores**: interval seeding
/// always goes through the encoded snapshot bytes, and the window
/// observations are stitched back in trace order (the worker pool
/// returns job results in submission order by contract).
///
/// The warm-up mode in `opts` is ignored — the prefix is always the
/// functional fast-forward (the two modes build bit-identical
/// architectural state, so only wall time could differ). Resize
/// schedules are not applied: they are keyed to detailed op indices of
/// an unsampled measured phase and have no meaning under sampling.
///
/// # Panics
///
/// Panics when `spec.warmup + spec.measure > spec.period` or
/// `spec.period == 0`.
pub fn run_app_sampled(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    intervals: u64,
    threads: usize,
    opts: RunOptions<'_>,
) -> SampledRun {
    assert!(spec.period > 0, "sampling period must be positive");
    assert!(
        spec.detailed_per_window() <= spec.period,
        "detailed window ({} + {}) exceeds the sampling period {}",
        spec.warmup,
        spec.measure,
        spec.period
    );
    let windows = spec.windows(scale);
    let k = intervals.clamp(1, windows);
    // Interval i covers windows [w0(i), w0(i+1)) — contiguous, exhaustive.
    let w0 = |i: u64| windows * i / k;

    // --- Phase 1: the snapshot chain (sequential functional prefix).
    // Interval i's snapshot is the architectural state at its first
    // window's absolute trace offset. The chain is built lazily
    // (`engine::snapshots`): a warm store answers every digest without
    // simulating; the first miss advances one functional system from
    // wherever it stands — interval k−1's functional prefix, exactly.
    let t_prefix = Instant::now();
    let points: Vec<(u64, Digest)> = (0..k)
        .map(|i| {
            let abs = scale.warmup + w0(i) * spec.period;
            let digest = if abs == scale.warmup {
                warmup_digest(&profile, kind, scale)
            } else {
                interval_digest(&profile, kind, scale, abs)
            };
            (abs, digest)
        })
        .collect();
    let seeds = engine::snapshots(profile, kind, &points, &opts);
    if let Some(w) = opts.wall {
        // The sampling-overhead track: how much wall time the snapshot
        // chain (the part a warm store eliminates) cost this run.
        w.wall_span(
            "sample-prefix",
            &format!("{}/{k}-intervals", profile.name),
            t_prefix.elapsed().as_nanos() as u64,
        );
    }

    // --- Phase 2: detailed interval jobs on the pool (inline when this
    // run is already a pool job), stitched back by concatenation
    // (results arrive in job order).
    let t_measure = Instant::now();
    let wall = opts.wall;
    let jobs: Vec<_> = (0..k)
        .map(|i| {
            let seed = &seeds[i as usize];
            let (first, last) = (w0(i), w0(i + 1));
            move || run_interval(profile, kind, scale, spec, seed, first, last, wall)
        })
        .collect();
    let observations: Vec<WindowObs> =
        pool::run_jobs(threads.max(1), jobs).into_iter().flatten().collect();
    if let Some(w) = opts.wall {
        w.wall_span(
            "sample-measure",
            &format!("{}/{windows}-windows", profile.name),
            t_measure.elapsed().as_nanos() as u64,
        );
    }

    // Summed in trace order over the stitched list, so the one f64 (the
    // organization's energy) is bit-identical for any thread count.
    let total = observations
        .iter()
        .map(|w| w.counters.clone())
        .reduce(|a, b| a.plus(&b))
        .expect("a sampled run observes at least one window");
    let run = AppRun::from_counters(profile.name, &total);
    SampledRun {
        run,
        spec,
        intervals: k,
        total_instructions: scale.measure,
        detailed_instructions: windows * spec.detailed_per_window(),
        windows: observations,
    }
}

/// Seeds one interval from its snapshot, crosses the same drain
/// barrier as every unsampled run (DESIGN.md §11), and executes its
/// windows: functional fast-forward to each period start, a discarded
/// detailed pipeline warm-up, then the observed ops as one window delta.
#[allow(clippy::too_many_arguments)]
fn run_interval(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    seed: &Seed<'_>,
    first: u64,
    last: u64,
    wall: Option<&Telemetry>,
) -> Vec<WindowObs> {
    let mut phase = Phase::from_seed(profile, kind, seed);
    (first..last)
        .map(|w| {
            let start = w * spec.period;
            phase.fast_forward_to(scale.warmup + start);
            phase.run_to(phase.done() + spec.warmup);
            let counters = phase.window(spec.measure);
            if let Some(t) = wall {
                t.wall_mark("sample-window", &format!("{}/w{w}", profile.name));
            }
            WindowObs {
                index: w,
                start,
                counters,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::runner::{run_app, tests::tiny, WarmupMode};
    use nurapid::NuRapidConfig;
    use workloads::profiles::by_name;

    pub(crate) fn tiny_spec() -> SampleSpec {
        SampleSpec {
            period: 5_000,
            warmup: 200,
            measure: 800,
        }
    }

    #[test]
    fn estimator_matches_hand_computed_stats() {
        let mut e = Estimator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            e.add(x);
        }
        assert_eq!(e.n(), 8);
        assert!((e.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic data set is 32/7.
        assert!((e.variance() - 32.0 / 7.0).abs() < 1e-12);
        let ci = 1.96 * (32.0 / 7.0 / 8.0f64).sqrt();
        assert!((e.ci95() - ci).abs() < 1e-12);
        assert!((e.summary().rel_ci() - ci / 5.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_degenerate_cases_are_safe() {
        let e = Estimator::new();
        assert_eq!((e.mean(), e.variance(), e.ci95()), (0.0, 0.0, 0.0));
        let mut one = Estimator::new();
        one.add(3.5);
        assert_eq!((one.mean(), one.ci95()), (3.5, 0.0));
    }

    #[test]
    fn default_spec_keeps_the_speedup_floor() {
        for scale in [Scale::quick(), Scale::full(), Scale::huge()] {
            let spec = SampleSpec::for_scale(scale);
            assert!(spec.detailed_per_window() <= spec.period);
            let detailed = spec.windows(scale) * spec.detailed_per_window();
            assert!(
                scale.measure as f64 / detailed as f64 >= 20.0,
                "scale {scale:?}: only {}x",
                scale.measure / detailed
            );
        }
        // The huge scale caps per-window detail: the reduction is far
        // beyond 20× there, which is what makes 1B instructions tractable.
        let huge = SampleSpec::for_scale(Scale::huge());
        let detailed = huge.windows(Scale::huge()) * huge.detailed_per_window();
        assert!(1_000_000_000 / detailed >= 1_000);
    }

    #[test]
    fn sampled_run_produces_sane_estimates() {
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let s = run_app_sampled(app, &kind, tiny(), tiny_spec(), 1, 1, RunOptions::default());
        assert_eq!(s.windows.len(), 12);
        assert_eq!(s.total_instructions, 60_000);
        assert_eq!(s.detailed_instructions, 12 * 1_000);
        assert_eq!(s.run.core.instructions, 12 * 800);
        // tiny_spec times 1_000 of every 5_000 ops: a 5x detailed reduction.
        assert!((s.speedup() - 5.0).abs() < 1e-9, "speedup {}", s.speedup());
        let ipc = s.ipc();
        assert_eq!(ipc.n, 12);
        assert!(ipc.mean > 0.05 && ipc.mean < 8.0, "ipc {}", ipc.mean);
        assert_eq!(s.run.group_fracs.len(), 4);
        let total: f64 = s.run.group_fracs.iter().sum::<f64>() + s.run.miss_frac;
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to 1, got {total}");
        assert!(s.run.energy.total().nj() > 0.0);
    }

    #[test]
    fn sampled_estimates_track_the_full_run() {
        // The sampler's reason to exist: a fraction of the detailed work
        // reproducing the full run's ratio metrics. Tolerances are loose —
        // this is a statistical estimate at a tiny scale — and the
        // committed `--exp sampling` table quantifies the real error.
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let scale = Scale {
            warmup: 30_000,
            measure: 240_000,
        };
        let full = run_app(app, &kind, scale);
        let spec = SampleSpec::for_scale(scale);
        let s = run_app_sampled(app, &kind, scale, spec, 1, 1, RunOptions::default());
        let ipc_err = (s.ipc().mean - full.ipc()).abs() / full.ipc();
        assert!(ipc_err < 0.2, "sampled IPC off by {ipc_err:.3}");
        let full_eki = full.energy.total().nj() * 1000.0 / full.core.instructions as f64;
        let eki_err = (s.energy_per_ki().mean - full_eki).abs() / full_eki;
        assert!(eki_err < 0.25, "sampled nJ/KI off by {eki_err:.3}");
        assert!(s.speedup() >= 20.0);
    }

    #[test]
    fn sampled_runs_are_bit_identical_across_threads_and_intervals_and_stores() {
        let app = by_name("parser").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let spec = tiny_spec();
        let baseline =
            run_app_sampled(app, &kind, tiny(), spec, 4, 1, RunOptions::default());

        // Thread count is pure wall time.
        for threads in [2, 8] {
            let s = run_app_sampled(app, &kind, tiny(), spec, 4, threads, RunOptions::default());
            assert_eq!(s, baseline, "threads={threads}");
        }

        // Cold and warm checkpoint stores change nothing either; the
        // warm pass answers every interval snapshot from the store.
        let dir = std::env::temp_dir()
            .join(format!("simchk-sampling-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_app_sampled(app, &kind, tiny(), spec, 4, 2, opts);
        assert_eq!(cold, baseline, "cold store");
        assert_eq!(store.misses(), 4, "4 intervals build 4 snapshots");
        let warm = run_app_sampled(app, &kind, tiny(), spec, 4, 8, opts);
        assert_eq!(warm, baseline, "warm store");
        assert_eq!(store.misses(), 4, "warm pass rebuilds nothing");
        assert_eq!(store.hits(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_zero_shares_the_warmup_checkpoint() {
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let dir = std::env::temp_dir()
            .join(format!("simchk-sampling-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        // An ordinary run publishes the warm-up checkpoint...
        let sink = simtel::TelemetrySink::disabled();
        let _ = crate::runner::run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 0));
        // ...and the sampled run's interval 0 warm-hits it.
        let _ = run_app_sampled(app, &kind, tiny(), tiny_spec(), 1, 1, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1), "interval 0 must reuse warm-up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_count_is_part_of_the_digest_not_the_result_shape() {
        // Different K values may observe the same windows (the intervals
        // tile the same window list), but they key differently: a K=2
        // artifact must never be served for a K=4 request.
        let app = by_name("galgel").unwrap();
        let d = |spec, k| sampled_digest(&app, &L2Kind::Base, tiny(), spec, k);
        assert_ne!(d(tiny_spec(), 2), d(tiny_spec(), 4));
        let mut other = tiny_spec();
        other.measure += 1;
        assert_ne!(d(tiny_spec(), 2), d(other, 2));
        let full = crate::runner::run_digest(&app, &L2Kind::Base, tiny());
        assert_ne!(d(tiny_spec(), 2), full, "sampled aliased the full run");
    }

    #[test]
    fn sampled_ignores_warmup_mode_by_construction() {
        // Both prefix modes would build identical state; the sampled
        // runner always fast-forwards, so the results match trivially.
        let app = by_name("wupwise").unwrap();
        let kind = L2Kind::Base;
        let ff = run_app_sampled(app, &kind, tiny(), tiny_spec(), 2, 1, RunOptions::default());
        let timed = run_app_sampled(
            app,
            &kind,
            tiny(),
            tiny_spec(),
            2,
            1,
            RunOptions {
                mode: WarmupMode::Timed,
                ..Default::default()
            },
        );
        assert_eq!(ff, timed);
    }

    #[test]
    #[should_panic(expected = "exceeds the sampling period")]
    fn oversized_window_panics() {
        let app = by_name("galgel").unwrap();
        let spec = SampleSpec {
            period: 100,
            warmup: 60,
            measure: 60,
        };
        let _ = run_app_sampled(app, &L2Kind::Base, tiny(), spec, 1, 1, RunOptions::default());
    }
}
