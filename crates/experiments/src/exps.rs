//! One experiment per paper table and figure.
//!
//! Every experiment returns a plain data structure with a `render()`
//! method producing the text table the `repro` binary prints. Full-system
//! runs are shared through the [`Sweep`] run store so, e.g., Figure 6 and
//! Figure 9 reuse the same base-case runs — including when they request
//! them concurrently from the simsched worker pool.

use crate::artifact;
use crate::checkpoint::CheckpointStore;
use crate::cmp::CmpRun;
use crate::report::{f2, pct, rel, TextTable};
use crate::runner::{
    run_app_opts, run_app_transient, run_digest, AppRun, L2Kind, RunOptions, Scale,
    TransientWindow, WarmupMode,
};
use crate::sampling::{self, SampleSpec, SampledRun};
use cachemodel::catalog::{self, DnucaGeometry, NuRapidGeometry};
use memsys::dramcache::L4Config;
use nuca::{CnucaConfig, SearchPolicy};
use nurapid::{DistanceVictimPolicy, NuRapidConfig, PromotionPolicy};
use simbase::digest::{Digest, Hasher128};
use simbase::stats::GeoMean;
use simbase::Capacity;
use simsched::json::Json;
use simsched::progress::{Event, EventKind, Observer, Outcome};
use simsched::store::RunStore;
use simsched::{pool, ArtifactStore};
use simtel::{Telemetry, TelemetrySink, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::profiles::{BenchProfile, LoadClass, ROSTER};

/// How the sweep stores one run family as artifacts, and the telemetry
/// summary a resumed run of it records (for families that export one).
struct Family<T: 'static> {
    decode: fn(&Json) -> Option<T>,
    encode: fn(&T) -> Json,
    fields: Option<Fields<T>>,
}

/// A run's telemetry summary fields.
type Fields<T> = fn(&T) -> Vec<(&'static str, Value)>;

const APP_RUNS: Family<AppRun> = Family {
    decode: artifact::decode,
    encode: artifact::encode,
    fields: Some(run_fields),
};

const CMP_RUNS: Family<CmpRun> = Family {
    decode: artifact::decode_cmp,
    encode: artifact::encode_cmp,
    fields: Some(cmp_run_fields),
};

const DRAM_RUNS: Family<DramRun> = Family {
    decode: artifact::decode_dram,
    encode: artifact::encode_dram,
    fields: None,
};

const SAMPLED_RUNS: Family<SampledRun> = Family {
    decode: artifact::decode_sampled,
    encode: artifact::encode_sampled,
    fields: None,
};

/// A store of full-system runs keyed by the **digest of the full
/// configuration** (application profile + organization + scale + seed),
/// executed through the simsched subsystem.
///
/// Compared to the original serial `HashMap` sweep:
///
/// - runs execute on up to [`Sweep::with_threads`] worker threads via
///   [`Sweep::prefetch`], with results independent of thread count;
/// - every (application, configuration) pair simulates **exactly once**
///   process-wide, even under concurrent requests (single-flight);
/// - keys are digests, so two distinct configurations can never alias
///   through a shared label (the old `(&str, &str)` keying hazard);
/// - with [`Sweep::with_artifacts`], completed runs are appended to a
///   JSON-lines manifest and a later sweep *resumes*, loading
///   digest-matching artifacts instead of re-simulating.
pub struct Sweep {
    scale: Scale,
    apps: Vec<BenchProfile>,
    threads: usize,
    store: RunStore<u128, AppRun>,
    cmp_store: RunStore<u128, CmpRun>,
    dram_store: RunStore<u128, DramRun>,
    sampled_store: RunStore<u128, SampledRun>,
    l4: Option<L4Config>,
    sample: Option<SampleSpec>,
    intervals: u64,
    artifacts: Option<ArtifactStore>,
    checkpoints: Option<Arc<CheckpointStore>>,
    warmup: WarmupMode,
    observer: Option<Observer>,
    telemetry: Option<Arc<Telemetry>>,
    simulated: AtomicU64,
    resumed: AtomicU64,
}

impl Sweep {
    /// A sweep over the full 15-application roster.
    pub fn new(scale: Scale) -> Self {
        Sweep::with_apps(scale, ROSTER.to_vec())
    }

    /// A sweep over a subset of applications (for tests and benches).
    pub fn with_apps(scale: Scale, apps: Vec<BenchProfile>) -> Self {
        assert!(!apps.is_empty(), "sweep needs at least one application");
        Sweep {
            scale,
            apps,
            threads: 1,
            store: RunStore::new(),
            cmp_store: RunStore::new(),
            dram_store: RunStore::new(),
            sampled_store: RunStore::new(),
            l4: None,
            sample: None,
            intervals: 1,
            artifacts: None,
            checkpoints: None,
            warmup: WarmupMode::default(),
            observer: None,
            telemetry: None,
            simulated: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
        }
    }

    /// Sets the worker-thread count used by [`Sweep::prefetch`].
    /// Results are bit-identical for any value; this only changes wall
    /// time. Defaults to 1 (serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a run-artifact directory: completed runs are appended to
    /// its JSON-lines manifest, and runs whose digest already appears
    /// there are loaded instead of simulated (resume).
    pub fn with_artifacts(mut self, dir: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.artifacts = Some(ArtifactStore::open(dir)?);
        Ok(self)
    }

    /// Attaches a warm-up checkpoint directory: simulated runs restore
    /// warm architectural state from digest-matching checkpoints instead
    /// of re-executing warm-up, and publish freshly built checkpoints for
    /// later sweeps. Results are bit-identical with or without a store
    /// (see the `runner` differential tests); only wall time changes.
    pub fn with_checkpoints(
        mut self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        self.checkpoints = Some(Arc::new(CheckpointStore::open(dir)?));
        Ok(self)
    }

    /// Attaches an **existing** checkpoint store, e.g. one opened with a
    /// pruning budget or shared with other sweeps in the same process.
    #[must_use]
    pub fn with_checkpoint_store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// The attached checkpoint store, if any (for hit/miss reporting).
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_deref()
    }

    /// Switches every keyed run to **sampled** execution (the `--sample`
    /// knob, DESIGN.md §16): [`Sweep::run`] estimates each
    /// [`AppRun`] through [`sampling::run_app_sampled`] and
    /// [`Sweep::run_cmp`] alternates detailed windows with functional
    /// fast-forward. Sampled runs digest under their own domain tags, so
    /// they can never alias full runs in the stores or on disk; with
    /// `None` (the default) every byte of every report is identical to a
    /// build without this method.
    #[must_use]
    pub fn with_sample(mut self, sample: Option<SampleSpec>) -> Self {
        self.sample = sample;
        self
    }

    /// Sets the interval count sampled single-app runs are split into
    /// (the `--intervals` knob; default 1). The count is part of the
    /// sampled digest — results are bit-identical for any *thread* count
    /// at a fixed interval count, while different interval counts are
    /// different (equally valid) estimators keyed apart.
    #[must_use]
    pub fn with_intervals(mut self, intervals: u64) -> Self {
        self.intervals = intervals.max(1);
        self
    }

    /// The sampling regime keyed runs execute under, if any.
    pub fn sample(&self) -> Option<SampleSpec> {
        self.sample
    }

    /// The interval count for sampled single-app runs.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Attaches an L4 DRAM-cache tier (the `--l4` knob, DESIGN.md §15):
    /// every keyed run — [`Sweep::run`] and [`Sweep::run_cmp`] — wraps
    /// its organization in [`L2Kind::L4`] with this configuration. The
    /// wrapped configuration digests differently, so L4 runs can never
    /// alias their unwrapped twins in the store or on disk; with `None`
    /// (the default) every byte of every report is identical to a build
    /// without this method.
    #[must_use]
    pub fn with_l4(mut self, l4: Option<L4Config>) -> Self {
        self.l4 = l4;
        self
    }

    /// Wraps a keyed organization in the sweep-wide L4 tier, when one is
    /// configured.
    fn wrap_l4(&self, kind: L2Kind) -> L2Kind {
        match &self.l4 {
            Some(cfg) => L2Kind::L4(Box::new(kind), cfg.clone()),
            None => kind,
        }
    }

    /// Selects the warm-up mode (default: functional fast-forward).
    /// [`WarmupMode::Timed`] re-enables the full-timing warm-up as a
    /// differential oracle — results are bit-identical either way.
    #[must_use]
    pub fn with_warmup(mut self, warmup: WarmupMode) -> Self {
        self.warmup = warmup;
        self
    }

    /// Installs a progress-event observer (see [`simsched::progress`]).
    #[must_use]
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a telemetry collector: every simulated run records its
    /// metrics, cycle-stamped spans, and periodic progress snapshots
    /// under `label/app`, keyed by the configuration digest. Resumed
    /// runs record their summary fields only (their spans were not
    /// replayed). Results are unchanged — telemetry observes the runs,
    /// it never steers them.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The applications in this sweep.
    pub fn apps(&self) -> &[BenchProfile] {
        &self.apps
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn emit(&self, label: &str, kind: EventKind) {
        if let Some(obs) = &self.observer {
            obs(&Event {
                label: label.to_string(),
                kind,
            });
        }
    }

    /// One keyed job through the sweep: single-flight on `digest` in
    /// `store`, resumed from a digest-matching artifact of `family` when
    /// one decodes, otherwise simulated by `simulate` and appended to the
    /// artifact manifest. Progress events bracket the job under `label`
    /// either way.
    fn keyed<T>(
        &self,
        store: &RunStore<u128, T>,
        family: &Family<T>,
        digest: Digest,
        label: &str,
        simulate: impl FnOnce(RunOptions<'_>) -> T,
    ) -> Arc<T> {
        self.emit(label, EventKind::Started);
        let t0 = Instant::now();

        // `outcome` stays `None` when the single-flight store satisfies
        // the request from another requester's completed computation.
        let mut outcome = None;
        let run = store.get_or_compute(digest.raw(), || {
            let artifact = self
                .artifacts
                .as_ref()
                .and_then(|a| a.lookup(&digest.hex()));
            if let Some(run) = artifact.as_ref().and_then(family.decode) {
                self.resumed.fetch_add(1, Ordering::Relaxed);
                if let (Some(tel), Some(fields)) = (&self.telemetry, family.fields) {
                    let sink = TelemetrySink::disabled();
                    tel.record_run(label, &digest.hex(), fields(&run), &sink);
                }
                outcome = Some(Outcome::Resumed);
                return run;
            }
            let run = simulate(RunOptions {
                mode: self.warmup,
                checkpoints: self.checkpoints.as_deref(),
                wall: self.telemetry.as_deref(),
            });
            self.simulated.fetch_add(1, Ordering::Relaxed);
            if let Some(store) = &self.artifacts {
                // Best-effort: an unwritable artifact dir degrades to a
                // plain in-memory sweep rather than failing the run.
                let _ = store.append(&digest.hex(), (family.encode)(&run));
            }
            outcome = Some(Outcome::Simulated);
            run
        });

        self.emit(
            label,
            EventKind::Finished {
                outcome: outcome.unwrap_or(Outcome::Shared),
                wall_ns: t0.elapsed().as_nanos() as u64,
            },
        );
        run
    }

    /// Runs `simulate` against a fresh per-run telemetry sink (and the
    /// collector's snapshot period) and records the run's metrics, spans,
    /// and `fields` under `label`; without a collector, against a disabled
    /// sink with snapshots off.
    fn traced<T>(
        &self,
        label: &str,
        digest: Digest,
        fields: Fields<T>,
        simulate: impl FnOnce(&TelemetrySink, u64) -> T,
    ) -> T {
        match &self.telemetry {
            Some(tel) => {
                let sink = tel.run_sink();
                let run = simulate(&sink, tel.snap_cycles());
                tel.record_run(label, &digest.hex(), fields(&run), &sink);
                run
            }
            None => simulate(&TelemetrySink::disabled(), 0),
        }
    }

    /// Runs (or returns the stored run of) `app` on the configuration
    /// named `key`.
    pub fn run(&self, app: BenchProfile, key: &'static str) -> Arc<AppRun> {
        self.run_kind(app, key, &self.wrap_l4(kind_of(key)))
    }

    /// Runs `app` on an explicit organization. `label` is only for
    /// progress display — the store is keyed by the digest of `kind`, so
    /// two different configurations sharing a label cannot collide.
    /// Under [`Sweep::with_sample`] the run is a sampled estimate.
    pub fn run_kind(&self, app: BenchProfile, label: &str, kind: &L2Kind) -> Arc<AppRun> {
        match self.sample {
            Some(spec) => self.run_kind_sampled(app, label, kind, spec),
            None => self.run_kind_full(app, label, kind),
        }
    }

    /// Runs `app` on the configuration named `key` with full detail,
    /// regardless of [`Sweep::with_sample`] — the baseline leg of the
    /// sampling error study.
    pub fn run_full(&self, app: BenchProfile, key: &'static str) -> Arc<AppRun> {
        self.run_kind_full(app, key, &self.wrap_l4(kind_of(key)))
    }

    fn run_kind_full(&self, app: BenchProfile, label: &str, kind: &L2Kind) -> Arc<AppRun> {
        let digest = run_digest(&app, kind, self.scale);
        let label = format!("{label}/{}", app.name);
        self.keyed(&self.store, &APP_RUNS, digest, &label, |opts| {
            self.traced(&label, digest, run_fields, |sink, snap_every| {
                run_app_opts(app, kind, self.scale, sink, snap_every, opts)
            })
        })
    }

    /// The sampled twin of [`Sweep::run_kind_full`]: same single-flight
    /// store, same artifact resume (the estimated [`AppRun`] reuses the
    /// plain `"app"` codec under the sampled digest), same telemetry
    /// recording — but the simulation is
    /// [`sampling::run_app_sampled`] with the sweep's interval count,
    /// fanning the intervals out on the sweep's worker-thread budget.
    fn run_kind_sampled(
        &self,
        app: BenchProfile,
        label: &str,
        kind: &L2Kind,
        spec: SampleSpec,
    ) -> Arc<AppRun> {
        let digest = sampling::sampled_digest(&app, kind, self.scale, spec, self.intervals);
        let label = format!("{label}/{}", app.name);
        self.keyed(&self.store, &APP_RUNS, digest, &label, |opts| {
            let (scale, intervals, threads) = (self.scale, self.intervals, self.threads);
            let run =
                sampling::run_app_sampled(app, kind, scale, spec, intervals, threads, opts).run;
            if let Some(tel) = &self.telemetry {
                let sink = TelemetrySink::disabled();
                tel.record_run(&label, &digest.hex(), run_fields(&run), &sink);
            }
            run
        })
    }

    /// Runs (or returns the stored run of) the CMP scenario with `cores`
    /// cores sharing the configuration named `key` (see [`crate::cmp`]).
    /// CMP runs live in their own digest-keyed single-flight store with
    /// the same artifact-resume and checkpoint behavior as [`Sweep::run`];
    /// the `simulated`/`resumed` counters are shared, so status lines and
    /// the CI resume proof account for both families.
    pub fn run_cmp(&self, cores: u32, key: &'static str) -> Arc<CmpRun> {
        let kind = self.wrap_l4(kind_of(key));
        let cfg = ::cmp::CmpConfig::micro2003(cores);
        let apps = crate::cmp::cmp_profiles(cores);
        let digest = match self.sample {
            Some(spec) => {
                crate::cmp::cmp_sampled_digest(&cfg, &apps, &kind, self.scale, spec)
            }
            None => crate::cmp::cmp_run_digest(&cfg, &apps, &kind, self.scale),
        };
        let label = format!("cmp{cores}x/{key}");
        self.keyed(&self.cmp_store, &CMP_RUNS, digest, &label, |opts| {
            self.traced(&label, digest, cmp_run_fields, |sink, snap| {
                let (scale, sample) = (self.scale, self.sample);
                crate::cmp::run_cmp_opts(key, cores, &kind, scale, sink, snap, opts, sample)
            })
        })
    }

    /// Executes the given (cores, configuration-key) CMP jobs on the
    /// sweep's worker pool, populating the CMP run store.
    pub fn prefetch_cmp(&self, jobs: &[(u32, &'static str)]) {
        for &(cores, key) in jobs {
            self.emit(&format!("cmp{cores}x/{key}"), EventKind::Queued);
        }
        let thunks: Vec<_> = jobs
            .iter()
            .map(|&(cores, key)| move || drop(self.run_cmp(cores, key)))
            .collect();
        pool::run_jobs(self.threads, thunks);
    }

    /// Runs (or returns the stored run of) the `dram` resize-transient
    /// scenario for `app`: [`dram_kind`] (NuRAPID + L4 with the shrink-
    /// then-grow schedule) through [`run_app_transient`] with
    /// [`DRAM_WINDOWS`] windows. Transient runs live in their own
    /// digest-keyed single-flight store with the same artifact-resume
    /// and checkpoint behavior as [`Sweep::run`].
    pub fn run_dram(&self, app: BenchProfile) -> Arc<DramRun> {
        let kind = dram_kind(self.scale);
        let digest = dram_digest(&app, &kind, self.scale, DRAM_WINDOWS);
        let label = format!("dram/{}", app.name);
        self.keyed(&self.dram_store, &DRAM_RUNS, digest, &label, |opts| {
            let (run, windows) = run_app_transient(app, &kind, self.scale, DRAM_WINDOWS, opts);
            DramRun { run, windows }
        })
    }

    /// Executes the `dram` transient scenario for every application in
    /// the sweep on the worker pool (called by [`dram`] itself, like the
    /// CMP table prefetches its own jobs).
    pub fn prefetch_dram(&self) {
        for app in &self.apps {
            self.emit(&format!("dram/{}", app.name), EventKind::Queued);
        }
        let jobs: Vec<_> =
            self.apps.iter().map(|&app| move || drop(self.run_dram(app))).collect();
        pool::run_jobs(self.threads, jobs);
    }

    /// Runs (or returns the stored run of) `app` on the configuration
    /// named `key` under an **explicit** sampling regime, keeping the
    /// full per-window observation list — the sampled leg of the error
    /// study, which needs the windows for confidence intervals. Lives in
    /// its own digest-keyed single-flight store (under a study-specific
    /// domain tag, so its `"sampled_app"` artifacts can never collide
    /// with the plain estimates of [`Sweep::with_sample`] runs) with the
    /// same artifact-resume behavior as every other family.
    pub fn run_sampled(
        &self,
        app: BenchProfile,
        key: &'static str,
        spec: SampleSpec,
    ) -> Arc<SampledRun> {
        let kind = self.wrap_l4(kind_of(key));
        let digest = sampled_study_digest(&app, &kind, self.scale, spec, self.intervals);
        let label = format!("sampled-{key}/{}", app.name);
        self.keyed(&self.sampled_store, &SAMPLED_RUNS, digest, &label, |opts| {
            let (scale, intervals, threads) = (self.scale, self.intervals, self.threads);
            sampling::run_app_sampled(app, &kind, scale, spec, intervals, threads, opts)
        })
    }

    /// Executes the given (application, configuration-key) jobs on the
    /// sweep's worker pool, populating the run store. Figure functions
    /// called afterwards hit the warm store. Duplicate pairs — and pairs
    /// racing with figures on other threads — are deduplicated by the
    /// store's single-flight guarantee.
    pub fn prefetch(&self, pairs: &[(BenchProfile, &'static str)]) {
        for (app, key) in pairs {
            self.emit(&format!("{key}/{}", app.name), EventKind::Queued);
        }
        let jobs: Vec<_> = pairs
            .iter()
            .map(|&(app, key)| move || drop(self.run(app, key)))
            .collect();
        pool::run_jobs(self.threads, jobs);
    }

    /// Prefetches every application in the sweep on each of `keys`.
    pub fn prefetch_all(&self, keys: &[&'static str]) {
        let pairs: Vec<_> = keys
            .iter()
            .flat_map(|&k| self.apps.iter().map(move |&a| (a, k)))
            .collect();
        self.prefetch(&pairs);
    }

    /// Number of distinct completed runs across all stores (single-core,
    /// CMP, and DRAM transient; simulated plus resumed from artifacts).
    pub fn runs(&self) -> usize {
        self.store.completed()
            + self.cmp_store.completed()
            + self.dram_store.completed()
            + self.sampled_store.completed()
    }

    /// Number of runs actually simulated by this sweep.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Number of runs loaded from digest-matching artifacts.
    pub fn resumed(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("scale", &self.scale)
            .field("apps", &self.apps.len())
            .field("threads", &self.threads)
            .field("runs", &self.runs())
            .field("artifacts", &self.artifacts.as_ref().map(|a| a.dir().to_path_buf()))
            .finish()
    }
}

/// The summary fields exported to `metrics.json` for one run. The f64
/// values are the very numbers the printed tables derive from; the JSON
/// renderer writes them shortest-round-trip, so they re-parse bit-exact.
fn run_fields(run: &AppRun) -> Vec<(&'static str, Value)> {
    vec![
        ("app", Value::Str(run.name.to_string())),
        ("instructions", Value::U64(run.core.instructions)),
        ("cycles", Value::U64(run.core.cycles)),
        ("ipc", Value::F64(run.ipc())),
        ("apki", Value::F64(run.apki())),
        ("l2_accesses", Value::U64(run.l2_accesses)),
        ("l2_misses", Value::U64(run.l2_misses)),
        ("miss_frac", Value::F64(run.miss_frac)),
        ("group_fracs", Value::F64s(run.group_fracs.clone())),
        ("dgroup_accesses", Value::U64(run.dgroup_accesses)),
        ("swaps", Value::U64(run.swaps)),
        ("l2_energy_nj", Value::F64(run.l2_energy.nj())),
        ("total_energy_nj", Value::F64(run.energy.total().nj())),
        ("edp", Value::F64(run.edp())),
    ]
}

/// The summary fields exported to `metrics.json` for one CMP run.
fn cmp_run_fields(run: &CmpRun) -> Vec<(&'static str, Value)> {
    vec![
        ("config", Value::Str(run.key.to_string())),
        ("cores", Value::U64(u64::from(run.cores))),
        ("mean_ipc", Value::F64(run.mean_ipc())),
        ("fairness", Value::F64(run.fairness())),
        ("l2_accesses", Value::U64(run.result.report.l2_accesses)),
        ("l2_misses", Value::U64(run.result.report.l2_misses)),
        ("miss_frac", Value::F64(run.result.report.miss_frac())),
        ("group_fracs", Value::F64s(run.result.report.group_fracs())),
        ("bank_conflicts", Value::U64(run.result.bank_conflicts)),
        ("bank_stall_cycles", Value::U64(run.result.bank_stall_cycles)),
        ("invalidations", Value::U64(run.result.invalidations.iter().sum())),
    ]
}

/// Resolves a configuration key to its organization.
///
/// # Panics
///
/// Panics on an unknown key.
pub fn kind_of(key: &str) -> L2Kind {
    match key {
        "base" => L2Kind::Base,
        "nf2" => L2Kind::NuRapid(NuRapidConfig::micro2003(2)),
        "nf4" => L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
        "nf8" => L2Kind::NuRapid(NuRapidConfig::micro2003(8)),
        "dm4" => L2Kind::NuRapid(
            NuRapidConfig::micro2003(4).with_promotion(PromotionPolicy::DemotionOnly),
        ),
        "fs4" => {
            L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_promotion(PromotionPolicy::Fastest))
        }
        "id4" => L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_ideal()),
        "lru-dm" => L2Kind::NuRapid(
            NuRapidConfig::micro2003(4)
                .with_promotion(PromotionPolicy::DemotionOnly)
                .with_distance_victim(DistanceVictimPolicy::Lru),
        ),
        "lru-nf" => L2Kind::NuRapid(
            NuRapidConfig::micro2003(4).with_distance_victim(DistanceVictimPolicy::Lru),
        ),
        "clock-dm" => L2Kind::NuRapid(
            NuRapidConfig::micro2003(4)
                .with_promotion(PromotionPolicy::DemotionOnly)
                .with_distance_victim(DistanceVictimPolicy::ClockApprox),
        ),
        "clock-nf" => L2Kind::NuRapid(
            NuRapidConfig::micro2003(4)
                .with_distance_victim(DistanceVictimPolicy::ClockApprox),
        ),
        "sa4" => L2Kind::Coupled(4),
        "nf4-r256" => L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_frames_per_region(256)),
        "nf4-r64" => L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_frames_per_region(64)),
        "dn-perf" => L2Kind::Dnuca(SearchPolicy::SsPerformance),
        "dn-energy" => L2Kind::Dnuca(SearchPolicy::SsEnergy),
        "dn-memo" => L2Kind::Dnuca(SearchPolicy::WayMemo),
        "cnuca" => L2Kind::Cnuca(CnucaConfig::micro2003()),
        other => panic!("unknown configuration key {other:?}"),
    }
}

/// Geometric mean of `values`.
fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut g = GeoMean::new();
    for v in values {
        g.add(v);
    }
    g.get()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Table 2: per-operation cache energies in nJ, straight from the
/// analytical model.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `(operation description, energy in nJ)` rows.
    pub rows: Vec<(String, f64)>,
}

/// Regenerates Table 2.
pub fn table2() -> Table2 {
    let cap = Capacity::from_mib(8);
    let g4 = NuRapidGeometry::micro2003(cap, 4);
    let g8 = NuRapidGeometry::micro2003(cap, 8);
    let dn = DnucaGeometry::micro2003(cap);
    let nj = |g: &NuRapidGeometry, d: usize| (g.tag_energy() + g.dgroup_access_energy(d)).nj();
    let far_bank = dn.n_banks() - 1;
    Table2 {
        rows: vec![
            ("Tag + access: closest of 4, 2-MB d-groups".into(), nj(&g4, 0)),
            ("Tag + access: farthest of 4, 2-MB d-groups".into(), nj(&g4, 3)),
            ("Tag + access: closest of 8, 1-MB d-groups".into(), nj(&g8, 0)),
            ("Tag + access: farthest of 8, 1-MB d-groups".into(), nj(&g8, 7)),
            (
                "Tag + access: closest 64-KB NUCA d-group".into(),
                dn.bank_access_energy(0).nj(),
            ),
            (
                "Tag + access: farthest 64-KB NUCA d-group (incl routing)".into(),
                dn.bank_access_energy(far_bank).nj(),
            ),
            (
                "Access 7-bit-per-entry, 16-way NUCA sm-search array".into(),
                catalog::smart_search_energy().nj(),
            ),
            (
                "Tag + access: 2 ports of low-latency 64-KB 2-way L1 cache".into(),
                catalog::l1_two_port_energy().nj(),
            ),
        ],
    }
}

impl Table2 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Operation", "Energy (nJ)"]);
        for (op, e) in &self.rows {
            t.row(vec![op.clone(), f2(*e)]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// Table 3: base-case characterization of the roster.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// `(name, class, ipc, apki)` per application.
    pub rows: Vec<(&'static str, LoadClass, f64, f64)>,
}

/// Regenerates Table 3 on the base hierarchy.
pub fn table3(sweep: &Sweep) -> Table3 {
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let r = sweep.run(p, "base");
            (p.name, p.class, r.ipc(), r.apki())
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Benchmark", "Class", "IPC", "L2 accesses / 1K inst"]);
        for &(name, class, ipc, apki) in &self.rows {
            let c = match class {
                LoadClass::HighLoad => "high",
                LoadClass::LowLoad => "low",
            };
            t.row(vec![name.to_string(), c.into(), f2(ipc), format!("{apki:.1}")]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// One Table 4 row: `(min, mean, max)` D-NUCA latency for a megabyte.
pub type DnucaMbLatency = (u64, f64, u64);

/// Table 4: per-megabyte access latencies of every organization.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// For each of the 8 MB (nearest first): latency in the 2/4/8-d-group
    /// NuRAPIDs and `(min, mean, max)` for D-NUCA.
    pub rows: Vec<(u64, u64, u64, DnucaMbLatency)>,
}

/// Regenerates Table 4 from the analytical model.
pub fn table4() -> Table4 {
    let cap = Capacity::from_mib(8);
    let g2 = NuRapidGeometry::micro2003(cap, 2);
    let g4 = NuRapidGeometry::micro2003(cap, 4);
    let g8 = NuRapidGeometry::micro2003(cap, 8);
    let dn = DnucaGeometry::micro2003(cap);
    Table4 {
        rows: (0..8)
            .map(|mb| {
                (
                    g2.latency_of_mb(mb),
                    g4.latency_of_mb(mb),
                    g8.latency_of_mb(mb),
                    dn.latency_of_mb(mb),
                )
            })
            .collect(),
    }
}

impl Table4 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Capacity",
            "2 d-groups",
            "4 d-groups",
            "8 d-groups",
            "D-NUCA (range, avg)",
        ]);
        for (mb, &(l2, l4, l8, (dmin, davg, dmax))) in self.rows.iter().enumerate() {
            t.row(vec![
                format!("MB {}", mb + 1),
                l2.to_string(),
                l4.to_string(),
                l8.to_string(),
                format!("{dmin}-{dmax} ({davg:.0})"),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Distribution figures (4, 5, 7) share one shape
// ---------------------------------------------------------------------------

/// Per-configuration access distribution: `(group_fracs, miss_frac)`.
pub type Distribution = (Vec<f64>, f64);

/// A d-group access distribution comparison across configurations: for
/// each application and configuration, the per-group access fractions and
/// the miss fraction.
#[derive(Debug, Clone)]
pub struct DistFigure {
    /// Figure label.
    pub title: &'static str,
    /// Configuration keys, in display order.
    pub configs: Vec<&'static str>,
    /// `rows[app][config] = (group_fracs, miss_frac)`.
    pub rows: Vec<(&'static str, Vec<Distribution>)>,
}

fn dist_figure(sweep: &Sweep, title: &'static str, configs: Vec<&'static str>) -> DistFigure {
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let per_config = configs
                .iter()
                .map(|k| {
                    let r = sweep.run(p, k);
                    (r.group_fracs.clone(), r.miss_frac)
                })
                .collect();
            (p.name, per_config)
        })
        .collect();
    DistFigure {
        title,
        configs,
        rows,
    }
}

impl DistFigure {
    /// Average fraction of accesses to the fastest d-group for config `i`.
    pub fn avg_first_group(&self, i: usize) -> f64 {
        let sum: f64 = self.rows.iter().map(|(_, c)| c[i].0[0]).sum();
        sum / self.rows.len() as f64
    }

    /// Average fraction of accesses to the slowest two d-groups for
    /// config `i` (Figure 4's "last 2 d-groups" comparison).
    pub fn avg_last_two_groups(&self, i: usize) -> f64 {
        let sum: f64 = self
            .rows
            .iter()
            .map(|(_, c)| {
                let g = &c[i].0;
                g[g.len().saturating_sub(2)..].iter().sum::<f64>()
            })
            .sum();
        sum / self.rows.len() as f64
    }

    /// Average miss fraction for config `i`.
    pub fn avg_miss(&self, i: usize) -> f64 {
        let sum: f64 = self.rows.iter().map(|(_, c)| c[i].1).sum();
        sum / self.rows.len() as f64
    }

    /// Renders the figure as a table of `group0/group1/... (miss)` cells.
    pub fn render(&self) -> String {
        let mut header = vec!["App".to_string()];
        header.extend(self.configs.iter().map(|c| c.to_string()));
        let mut t = TextTable::new(header);
        let fmt = |fracs: &Distribution| {
            let groups: Vec<String> = fracs.0.iter().map(|f| format!("{:.0}", f * 100.0)).collect();
            format!("{} m{:.0}", groups.join("/"), fracs.1 * 100.0)
        };
        for (name, per_config) in &self.rows {
            let mut row = vec![name.to_string()];
            row.extend(per_config.iter().map(fmt));
            t.row(row);
        }
        let mut avg = vec!["AVERAGE".to_string()];
        for i in 0..self.configs.len() {
            avg.push(format!(
                "g0 {} miss {}",
                pct(self.avg_first_group(i)),
                pct(self.avg_miss(i))
            ));
        }
        t.row(avg);
        format!("{}\n{}", self.title, t.render())
    }
}

impl DistFigure {
    /// Renders the figure as tab-separated values for plotting: one row
    /// per application, `config:group` columns plus `config:miss`.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("app");
        for (i, c) in self.configs.iter().enumerate() {
            let n = self.rows[0].1[i].0.len();
            for g in 0..n {
                out.push_str(&format!("\t{c}:g{g}"));
            }
            out.push_str(&format!("\t{c}:miss"));
        }
        out.push('\n');
        for (name, per_config) in &self.rows {
            out.push_str(name);
            for (fracs, miss) in per_config {
                for f in fracs {
                    out.push_str(&format!("\t{f:.4}"));
                }
                out.push_str(&format!("\t{miss:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Figure 4: set-associative vs distance-associative placement.
pub fn fig4(sweep: &Sweep) -> DistFigure {
    dist_figure(
        sweep,
        "Figure 4: distribution of d-group accesses, set-associative (sa4) \
         vs distance-associative (nf4) placement",
        vec!["sa4", "nf4"],
    )
}

/// Figure 5: demotion-only vs next-fastest vs fastest promotion.
pub fn fig5(sweep: &Sweep) -> DistFigure {
    dist_figure(
        sweep,
        "Figure 5: distribution of d-group accesses for NuRAPID promotion \
         policies (demotion-only / next-fastest / fastest)",
        vec!["dm4", "nf4", "fs4"],
    )
}

/// Figure 7: 2 vs 4 vs 8 d-groups.
pub fn fig7(sweep: &Sweep) -> DistFigure {
    dist_figure(
        sweep,
        "Figure 7: distribution of d-group accesses for 2-, 4-, and \
         8-d-group NuRAPIDs",
        vec!["nf2", "nf4", "nf8"],
    )
}

// ---------------------------------------------------------------------------
// Performance figures (6, 8, 9) share one shape
// ---------------------------------------------------------------------------

/// Relative performance of several configurations against the base case.
#[derive(Debug, Clone)]
pub struct PerfFigure {
    /// Figure label.
    pub title: &'static str,
    /// Configuration keys, in display order.
    pub configs: Vec<&'static str>,
    /// `rows[app] = (name, class, [ipc_config / ipc_base])`.
    pub rows: Vec<(&'static str, LoadClass, Vec<f64>)>,
}

fn perf_figure(sweep: &Sweep, title: &'static str, configs: Vec<&'static str>) -> PerfFigure {
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let base_ipc = sweep.run(p, "base").ipc();
            let rels = configs
                .iter()
                .map(|k| sweep.run(p, k).ipc() / base_ipc)
                .collect();
            (p.name, p.class, rels)
        })
        .collect();
    PerfFigure {
        title,
        configs,
        rows,
    }
}

impl PerfFigure {
    /// Geometric-mean relative performance of config `i` over all apps.
    pub fn overall(&self, i: usize) -> f64 {
        geomean(self.rows.iter().map(|(_, _, r)| r[i]))
    }

    /// Geometric mean over one load class.
    pub fn class_mean(&self, i: usize, class: LoadClass) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|(_, c, _)| *c == class)
            .map(|(_, _, r)| r[i])
            .collect();
        if vals.is_empty() {
            1.0
        } else {
            geomean(vals)
        }
    }

    /// Best per-app relative performance of config `i`.
    pub fn max(&self, i: usize) -> f64 {
        self.rows
            .iter()
            .map(|(_, _, r)| r[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut header = vec!["App".to_string()];
        header.extend(self.configs.iter().map(|c| c.to_string()));
        let mut t = TextTable::new(header);
        for (name, _, rels) in &self.rows {
            let mut row = vec![name.to_string()];
            row.extend(rels.iter().map(|r| rel(*r)));
            t.row(row);
        }
        for (label, class) in [("HIGH-LOAD", LoadClass::HighLoad), ("LOW-LOAD", LoadClass::LowLoad)]
        {
            let mut row = vec![label.to_string()];
            row.extend((0..self.configs.len()).map(|i| rel(self.class_mean(i, class))));
            t.row(row);
        }
        let mut row = vec!["OVERALL".to_string()];
        row.extend((0..self.configs.len()).map(|i| rel(self.overall(i))));
        t.row(row);
        format!("{}\n{}", self.title, t.render())
    }
}

impl PerfFigure {
    /// Renders the figure as tab-separated values for plotting.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("app");
        for c in &self.configs {
            out.push_str(&format!("\t{c}"));
        }
        out.push('\n');
        for (name, _, rels) in &self.rows {
            out.push_str(name);
            for r in rels {
                out.push_str(&format!("\t{r:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Figure 6: performance of the NuRAPID policies and the ideal case,
/// relative to the base L2/L3 hierarchy.
pub fn fig6(sweep: &Sweep) -> PerfFigure {
    perf_figure(
        sweep,
        "Figure 6: performance of NuRAPID policies relative to the base \
         L2/L3 hierarchy (demotion-only / next-fastest / fastest / ideal)",
        vec!["dm4", "nf4", "fs4", "id4"],
    )
}

/// Figure 8: performance of 2-, 4-, and 8-d-group NuRAPIDs.
pub fn fig8(sweep: &Sweep) -> PerfFigure {
    perf_figure(
        sweep,
        "Figure 8: performance of 2-, 4-, and 8-d-group NuRAPIDs relative \
         to the base L2/L3 hierarchy",
        vec!["nf2", "nf4", "nf8"],
    )
}

/// Figure 9: NuRAPID vs D-NUCA (ss-performance).
pub fn fig9(sweep: &Sweep) -> PerfFigure {
    perf_figure(
        sweep,
        "Figure 9: D-NUCA (ss-performance) and 4-/8-d-group NuRAPIDs \
         relative to the base L2/L3 hierarchy",
        vec!["dn-perf", "nf4", "nf8"],
    )
}

// ---------------------------------------------------------------------------
// Section 5.3.1: random vs true-LRU distance replacement
// ---------------------------------------------------------------------------

/// §5.3.1: average fastest-d-group access fraction for random vs
/// approximate-LRU (CLOCK) vs true-LRU distance replacement under the
/// demotion-only and next-fastest policies.
#[derive(Debug, Clone)]
pub struct LruStudy {
    /// `(policy, random frac, clock frac, lru frac)` rows.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

/// Regenerates the §5.3.1 comparison (extended with the approximate-LRU
/// middle ground the paper mentions but does not measure).
pub fn sec531(sweep: &Sweep) -> LruStudy {
    let apps = sweep.apps().to_vec();
    let avg_g0 = |sweep: &Sweep, key: &'static str| {
        let sum: f64 = apps
            .iter()
            .map(|&p| sweep.run(p, key).group_fracs[0])
            .sum();
        sum / apps.len() as f64
    };
    LruStudy {
        rows: vec![
            (
                "demotion-only",
                avg_g0(sweep, "dm4"),
                avg_g0(sweep, "clock-dm"),
                avg_g0(sweep, "lru-dm"),
            ),
            (
                "next-fastest",
                avg_g0(sweep, "nf4"),
                avg_g0(sweep, "clock-nf"),
                avg_g0(sweep, "lru-nf"),
            ),
        ],
    }
}

impl LruStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Promotion policy",
            "Random: d-group-0 accesses",
            "Approx-LRU (clock): d-group-0 accesses",
            "True-LRU: d-group-0 accesses",
        ]);
        for &(policy, random, clock, lru) in &self.rows {
            t.row(vec![policy.to_string(), pct(random), pct(clock), pct(lru)]);
        }
        format!(
            "Section 5.3.1: random vs approximate-LRU vs true-LRU distance replacement\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 10 (reconstructed): L2 dynamic energy
// ---------------------------------------------------------------------------

/// Figure 10: L2 dynamic energy per kilo-instruction for the base
/// hierarchy, D-NUCA (ss-energy), and NuRAPID, plus the d-group-access
/// comparison behind the paper's "61% fewer d-group accesses" claim.
#[derive(Debug, Clone)]
pub struct EnergyFigure {
    /// `(name, base nJ/KI, dnuca nJ/KI, nurapid nJ/KI, dnuca d-group
    /// accesses per demand access, nurapid d-group accesses per demand
    /// access)`.
    pub rows: Vec<(&'static str, f64, f64, f64, f64, f64)>,
}

/// Regenerates the energy comparison.
pub fn fig10(sweep: &Sweep) -> EnergyFigure {
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let per_ki = |r: &AppRun| r.l2_energy.nj() * 1000.0 / r.core.instructions as f64;
            let per_access =
                |r: &AppRun| r.dgroup_accesses as f64 / r.l2_accesses.max(1) as f64;
            let base = per_ki(&sweep.run(p, "base"));
            let dn = sweep.run(p, "dn-energy");
            let (dn_e, dn_a) = (per_ki(&dn), per_access(&dn));
            let nr = sweep.run(p, "nf4");
            let (nr_e, nr_a) = (per_ki(&nr), per_access(&nr));
            (p.name, base, dn_e, nr_e, dn_a, nr_a)
        })
        .collect();
    EnergyFigure { rows }
}

impl EnergyFigure {
    /// NuRAPID's average L2-energy reduction relative to D-NUCA
    /// (the paper reports 77%).
    pub fn energy_reduction_vs_dnuca(&self) -> f64 {
        let dn: f64 = self.rows.iter().map(|r| r.2).sum();
        let nr: f64 = self.rows.iter().map(|r| r.3).sum();
        1.0 - nr / dn
    }

    /// NuRAPID's average reduction in d-group accesses relative to D-NUCA
    /// (the paper reports 61%).
    pub fn access_reduction_vs_dnuca(&self) -> f64 {
        let dn: f64 = self.rows.iter().map(|r| r.4).sum();
        let nr: f64 = self.rows.iter().map(|r| r.5).sum();
        1.0 - nr / dn
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "App",
            "base nJ/KI",
            "D-NUCA(ss-e) nJ/KI",
            "NuRAPID nJ/KI",
            "D-NUCA dgrp-acc/acc",
            "NuRAPID dgrp-acc/acc",
        ]);
        for &(name, b, d, n, da, na) in &self.rows {
            t.row(vec![
                name.to_string(),
                f2(b),
                f2(d),
                f2(n),
                f2(da),
                f2(na),
            ]);
        }
        format!(
            "Figure 10 (reconstructed): L2 dynamic energy\n{}\
             NuRAPID L2 energy reduction vs D-NUCA: {}\n\
             NuRAPID d-group access reduction vs D-NUCA: {}\n",
            t.render(),
            pct(self.energy_reduction_vs_dnuca()),
            pct(self.access_reduction_vs_dnuca()),
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 11 (reconstructed): processor energy-delay
// ---------------------------------------------------------------------------

/// Figure 11: processor energy-delay relative to the base hierarchy.
#[derive(Debug, Clone)]
pub struct EdpFigure {
    /// `(name, dnuca-best EDP / base EDP, nurapid EDP / base EDP)`.
    pub rows: Vec<(&'static str, f64, f64)>,
}

/// Regenerates the energy-delay comparison. D-NUCA gets its best foot
/// forward: the lower energy-delay of its two policies per application.
pub fn fig11(sweep: &Sweep) -> EdpFigure {
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let base = sweep.run(p, "base").edp();
            let dn = sweep
                .run(p, "dn-perf")
                .edp()
                .min(sweep.run(p, "dn-energy").edp());
            let nr = sweep.run(p, "nf4").edp();
            (p.name, dn / base, nr / base)
        })
        .collect();
    EdpFigure { rows }
}

impl EdpFigure {
    /// Geometric-mean relative EDP of NuRAPID (the paper reports ~0.93,
    /// i.e. a 7% reduction).
    pub fn nurapid_mean(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.2))
    }

    /// Geometric-mean relative EDP of D-NUCA.
    pub fn dnuca_mean(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.1))
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["App", "D-NUCA (best) EDP", "NuRAPID EDP"]);
        for &(name, dn, nr) in &self.rows {
            t.row(vec![name.to_string(), rel(dn), rel(nr)]);
        }
        t.row(vec![
            "GEOMEAN".to_string(),
            rel(self.dnuca_mean()),
            rel(self.nurapid_mean()),
        ]);
        format!(
            "Figure 11 (reconstructed): processor energy-delay relative to base\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------------
// Section 2.4.3 ablation: pointer restriction
// ---------------------------------------------------------------------------

/// Pointer-restriction ablation (DESIGN.md §5.6): placement flexibility vs
/// pointer width. Compares the fully flexible NuRAPID against versions
/// restricted to 256 and 64 candidate frames per d-group.
#[derive(Debug, Clone)]
pub struct RestrictionAblation {
    /// `(label, forward-pointer bits, avg d-group-0 fraction, geometric-
    /// mean relative performance vs base)`.
    pub rows: Vec<(&'static str, u32, f64, f64)>,
}

/// Regenerates the pointer-restriction ablation.
pub fn restriction_ablation(sweep: &Sweep) -> RestrictionAblation {
    use nurapid::pointers::PointerScheme;
    let cap = Capacity::from_mib(8);
    let apps = sweep.apps().to_vec();
    let mut rows = Vec::new();
    for (label, key, scheme) in [
        (
            "flexible",
            "nf4",
            PointerScheme::flexible(cap, 128, 4),
        ),
        (
            "256 frames/region",
            "nf4-r256",
            PointerScheme::restricted(cap, 128, 4, 256),
        ),
        (
            "64 frames/region",
            "nf4-r64",
            PointerScheme::restricted(cap, 128, 4, 64),
        ),
    ] {
        let mut g0 = 0.0;
        let mut rel_perf = Vec::new();
        for &p in &apps {
            let base_ipc = sweep.run(p, "base").ipc();
            let r = sweep.run(p, key);
            g0 += r.group_fracs[0];
            rel_perf.push(r.ipc() / base_ipc);
        }
        rows.push((
            label,
            scheme.forward_pointer_bits(),
            g0 / apps.len() as f64,
            geomean(rel_perf),
        ));
    }
    RestrictionAblation { rows }
}

impl RestrictionAblation {
    /// Renders the ablation.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Placement",
            "Fwd-pointer bits",
            "d-group-0 accesses",
            "Rel. performance",
        ]);
        for &(label, bits, g0, perf) in &self.rows {
            t.row(vec![label.to_string(), bits.to_string(), pct(g0), rel(perf)]);
        }
        format!(
            "Section 2.4.3 ablation: pointer restriction vs placement flexibility
{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------------
// Organization plugin study: the trait's two new organizations vs D-NUCA
// ---------------------------------------------------------------------------

/// Organization comparison across the plugin roster: D-NUCA's three
/// search policies and compressed NUCA, per application. The two claims
/// it substantiates (DESIGN.md §12):
///
/// * **compressed NUCA** puts a larger fraction of accesses in the
///   fastest d-group than D-NUCA — its position 0 holds four compressed
///   blocks where D-NUCA holds two raw ones;
/// * **way memoization** spends less L2 energy than multicast smart
///   search — memo hits skip the smart-search array and every non-hit
///   bank.
#[derive(Debug, Clone)]
pub struct OrgFigure {
    /// Configuration keys, in display order.
    pub configs: Vec<&'static str>,
    /// `rows[app] = (name, [(rel ipc, l2 nJ/KI, fastest-group frac)])`.
    pub rows: Vec<(&'static str, Vec<(f64, f64, f64)>)>,
}

/// Regenerates the organization comparison.
pub fn orgs(sweep: &Sweep) -> OrgFigure {
    let configs = vec!["dn-perf", "dn-energy", "dn-memo", "cnuca"];
    let apps = sweep.apps().to_vec();
    let rows = apps
        .into_iter()
        .map(|p| {
            let base_ipc = sweep.run(p, "base").ipc();
            let per_config = configs
                .iter()
                .map(|k| {
                    let r = sweep.run(p, k);
                    let per_ki = r.l2_energy.nj() * 1000.0 / r.core.instructions as f64;
                    let g0 = r.group_fracs.first().copied().unwrap_or(0.0);
                    (r.ipc() / base_ipc, per_ki, g0)
                })
                .collect();
            (p.name, per_config)
        })
        .collect();
    OrgFigure { configs, rows }
}

impl OrgFigure {
    fn avg(&self, i: usize, field: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        let sum: f64 = self.rows.iter().map(|(_, c)| field(&c[i])).sum();
        sum / self.rows.len() as f64
    }

    /// Average fastest-d-group access fraction of config `i`.
    pub fn avg_first_group(&self, i: usize) -> f64 {
        self.avg(i, |r| r.2)
    }

    /// Average L2 nJ per kilo-instruction of config `i`.
    pub fn avg_energy_per_ki(&self, i: usize) -> f64 {
        self.avg(i, |r| r.1)
    }

    /// Geometric-mean relative performance of config `i`.
    pub fn overall(&self, i: usize) -> f64 {
        geomean(self.rows.iter().map(|(_, c)| c[i].0))
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut header = vec!["App".to_string()];
        for c in &self.configs {
            header.push(format!("{c} perf"));
            header.push(format!("{c} nJ/KI"));
            header.push(format!("{c} g0"));
        }
        let mut t = TextTable::new(header);
        for (name, per_config) in &self.rows {
            let mut row = vec![name.to_string()];
            for &(perf, e, g0) in per_config {
                row.push(rel(perf));
                row.push(f2(e));
                row.push(pct(g0));
            }
            t.row(row);
        }
        let mut avg = vec!["AVERAGE".to_string()];
        for i in 0..self.configs.len() {
            avg.push(rel(self.overall(i)));
            avg.push(f2(self.avg_energy_per_ki(i)));
            avg.push(pct(self.avg_first_group(i)));
        }
        t.row(avg);
        format!(
            "Organization plugins: D-NUCA search policies vs compressed NUCA\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------------
// DRAM-cache resize transients (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Number of equal measurement windows in the `dram` transient study.
/// Eight divides the resize op-indices exactly: the shrink lands on the
/// boundary between windows 2 and 3, the grow between windows 5 and 6,
/// so each transient is isolated in the first window of its regime.
pub const DRAM_WINDOWS: usize = 8;

/// First window of the shrunk (4-bank) regime.
pub const DRAM_SHRINK_WINDOW: usize = 3;

/// First window of the grown (12-bank) regime.
pub const DRAM_GROW_WINDOW: usize = 6;

/// The `dram` scenario configuration: a capacity-constrained NuRAPID
/// L2 backed by a TDRAM-style L4 that shrinks from 8 to 4 banks
/// three-eighths of the way through measurement, then grows to 12
/// banks at the six-eighths mark. Both resize op-indices fall on
/// [`DRAM_WINDOWS`] window boundaries by construction.
///
/// The L2 is 2 MB here, not the paper's 8 MB: the SPEC-2000 hot
/// footprints (0.5–5 MB) fit entirely inside an 8-MB L2, so its miss
/// stream is purely compulsory and a victim tier below it can never
/// hit, at any capacity. At 2 MB the larger hot sets overflow and the
/// folded hot-set layout conflicts, so the miss stream carries reuse —
/// which is what makes the L4's hit rate, its resize writebacks, and
/// the orphaned-block transient after each remap visible.
pub fn dram_kind(scale: Scale) -> L2Kind {
    let at = |w: usize| scale.measure * w as u64 / DRAM_WINDOWS as u64;
    let resizes = vec![(at(DRAM_SHRINK_WINDOW), 4), (at(DRAM_GROW_WINDOW), 12)];
    let mut inner = NuRapidConfig::micro2003(4);
    inner.capacity = Capacity::from_mib(2);
    L2Kind::L4(
        Box::new(L2Kind::NuRapid(inner)),
        L4Config::tdram().with_resizes(resizes),
    )
}

/// Digest keying a windowed transient run: the plain [`run_digest`]
/// (profile, configuration incl. resize schedule, scale, trace seed)
/// under a distinct domain tag, plus the window count — the same job
/// sliced into a different number of windows is a different artifact.
pub fn dram_digest(
    profile: &BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    n_windows: usize,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-dram-v1");
    let raw = run_digest(profile, kind, scale).raw();
    h.write_u64((raw >> 64) as u64);
    h.write_u64(raw as u64);
    h.write_u64(n_windows as u64);
    h.digest()
}

/// One application's `dram` transient run: the whole-measurement
/// [`AppRun`] plus its per-window slices.
#[derive(Debug, Clone, PartialEq)]
pub struct DramRun {
    /// The run's whole-measurement result (same shape as a keyed run).
    pub run: AppRun,
    /// [`DRAM_WINDOWS`] equal slices of the measured phase.
    pub windows: Vec<TransientWindow>,
}

/// The `dram` experiment: per-window IPC, L4 behavior, and memory
/// energy across the 8 → 4 → 12-bank resize schedule of [`dram_kind`].
#[derive(Debug, Clone)]
pub struct DramStudy {
    /// `(name, per-window transients)` rows.
    pub rows: Vec<(&'static str, Vec<TransientWindow>)>,
}

/// Regenerates the resize-transient study. Prefetches its own jobs on
/// the sweep's worker pool (like the CMP table), so figure callers get
/// `--threads` parallelism without a prewarm entry.
pub fn dram(sweep: &Sweep) -> DramStudy {
    sweep.prefetch_dram();
    let rows = sweep
        .apps()
        .iter()
        .map(|&p| (p.name, sweep.run_dram(p).windows.clone()))
        .collect();
    DramStudy { rows }
}

impl DramStudy {
    /// Geometric-mean IPC of window `w` across applications.
    pub fn avg_ipc(&self, w: usize) -> f64 {
        geomean(self.rows.iter().map(|(_, ws)| ws[w].ipc()))
    }

    /// Mean L4 hit rate of window `w` across applications.
    pub fn avg_hit_rate(&self, w: usize) -> f64 {
        let sum: f64 = self.rows.iter().map(|(_, ws)| ws[w].l4_hit_rate()).sum();
        sum / self.rows.len() as f64
    }

    /// Mean memory nJ per kilo-instruction of window `w`.
    pub fn avg_energy_per_ki(&self, w: usize) -> f64 {
        let sum: f64 = self
            .rows
            .iter()
            .map(|(_, ws)| ws[w].memory_nj_per_ki())
            .sum();
        sum / self.rows.len() as f64
    }

    /// IPC of the shrink-transient window relative to the steady window
    /// before it (< 1 when the shrink costs performance).
    pub fn shrink_dip(&self) -> f64 {
        self.avg_ipc(DRAM_SHRINK_WINDOW) / self.avg_ipc(DRAM_SHRINK_WINDOW - 1)
    }

    /// IPC of the grow-transient window relative to the steady window
    /// before it.
    pub fn grow_dip(&self) -> f64 {
        self.avg_ipc(DRAM_GROW_WINDOW) / self.avg_ipc(DRAM_GROW_WINDOW - 1)
    }

    /// IPC of the final window relative to the pre-shrink steady state —
    /// how fully the tier recovers once the grown cache re-warms.
    pub fn recovery(&self) -> f64 {
        self.avg_ipc(DRAM_WINDOWS - 1) / self.avg_ipc(DRAM_SHRINK_WINDOW - 1)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let n = DRAM_WINDOWS;
        let mut header = vec!["App".to_string()];
        for w in 0..n {
            header.push(format!("w{w} IPC"));
        }
        header.push("L4 hit% w7".to_string());
        header.push("rsz-wb".to_string());
        header.push("nJ/KI w2/w3/w7".to_string());
        let mut t = TextTable::new(header);
        for (name, ws) in &self.rows {
            let mut row = vec![name.to_string()];
            for w in ws {
                row.push(f2(w.ipc()));
            }
            let last = &ws[n - 1];
            row.push(pct(last.l4_hit_rate()));
            let rsz_wb: u64 = ws.iter().map(|w| w.l4().resize_writebacks).sum();
            row.push(rsz_wb.to_string());
            row.push(format!(
                "{}/{}/{}",
                f2(ws[DRAM_SHRINK_WINDOW - 1].memory_nj_per_ki()),
                f2(ws[DRAM_SHRINK_WINDOW].memory_nj_per_ki()),
                f2(ws[n - 1].memory_nj_per_ki()),
            ));
            t.row(row);
        }
        let mut avg = vec!["AVERAGE".to_string()];
        for w in 0..n {
            avg.push(f2(self.avg_ipc(w)));
        }
        avg.push(pct(self.avg_hit_rate(n - 1)));
        avg.push("-".to_string());
        avg.push(format!(
            "{}/{}/{}",
            f2(self.avg_energy_per_ki(DRAM_SHRINK_WINDOW - 1)),
            f2(self.avg_energy_per_ki(DRAM_SHRINK_WINDOW)),
            f2(self.avg_energy_per_ki(n - 1)),
        ));
        t.row(avg);
        format!(
            "L4 DRAM-cache resize transients: 8 -> 4 banks at w{}, 4 -> 12 at w{}\n{}\
             shrink-window IPC vs prior window: {}\n\
             grow-window IPC vs prior window: {}\n\
             final-window IPC vs pre-shrink: {}\n",
            DRAM_SHRINK_WINDOW,
            DRAM_GROW_WINDOW,
            t.render(),
            rel(self.shrink_dip()),
            rel(self.grow_dip()),
            rel(self.recovery()),
        )
    }
}

// ---------------------------------------------------------------------------
// Sampled-simulation error-vs-speedup study (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// The organizations the `sampling` study validates the sampler on: the
/// set-associative baseline and the flagship distance-associative
/// NuRAPID — the paper's headline comparison, which the sampled runs
/// must reproduce within tolerance.
pub const SAMPLING_KEYS: [&str; 2] = ["sa4", "nf4"];

/// Detail divisors the study sweeps: a divisor of N times roughly 1/N of
/// each sampling period in detail, i.e. an ~N× reduction in detailed
/// (timed) instructions versus full simulation.
pub const SAMPLING_DIVISORS: [u64; 4] = [5, 10, 20, 40];

/// The sampling regime for one study point: 20 windows across the
/// measured phase, each timing `period / divisor` observed ops after a
/// quarter-sized pipeline warm-up.
pub fn sampling_spec(scale: Scale, divisor: u64) -> SampleSpec {
    let period = (scale.measure / 20).max(1_000);
    let measure = (period / divisor).max(100);
    SampleSpec {
        period,
        warmup: (measure / 4).clamp(20, 2_000),
        measure,
    }
}

/// Digest keying one study run: the plain sampled digest under a
/// study-specific domain tag, so full-window `"sampled_app"` artifacts
/// never share a manifest key with the plain `"app"` estimates that
/// [`Sweep::with_sample`] runs store under [`sampling::sampled_digest`].
fn sampled_study_digest(
    profile: &BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    intervals: u64,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-sampling-study-v1");
    let raw = sampling::sampled_digest(profile, kind, scale, spec, intervals).raw();
    h.write_u64((raw >> 64) as u64);
    h.write_u64(raw as u64);
    h.digest()
}

/// One point of the error-vs-speedup study: one detail divisor, with
/// per-organization errors of the sampled estimates against the full
/// runs and the detailed-instruction reduction that bought them.
#[derive(Debug, Clone)]
pub struct SamplingPoint {
    /// Detail divisor (see [`SAMPLING_DIVISORS`]).
    pub divisor: u64,
    /// The regime this point ran under.
    pub spec: SampleSpec,
    /// Detailed-instruction reduction versus full simulation.
    pub speedup: f64,
    /// Per-key relative error of the sampled geomean IPC (order of
    /// [`SAMPLING_KEYS`]).
    pub ipc_err: [f64; 2],
    /// Per-key relative error of the sampled mean energy/KI.
    pub energy_err: [f64; 2],
    /// DA/SA geomean-IPC ratio from the full runs.
    pub delta_full: f64,
    /// The same ratio from the sampled estimates.
    pub delta_sampled: f64,
    /// Mean relative 95%-CI half-width of the per-app sampled IPC
    /// (`nf4` leg) — how tight the estimator itself thinks it is.
    pub mean_rel_ci: f64,
}

/// The `sampling` experiment: sampled estimates vs full simulation on
/// the SA/DA pair across [`SAMPLING_DIVISORS`].
#[derive(Debug, Clone)]
pub struct SamplingStudy {
    /// One point per divisor, in [`SAMPLING_DIVISORS`] order.
    pub points: Vec<SamplingPoint>,
}

fn energy_per_ki(run: &AppRun) -> f64 {
    run.energy.total().nj() * 1000.0 / run.core.instructions.max(1) as f64
}

/// Regenerates the error-vs-speedup study: full-detail baselines for
/// [`SAMPLING_KEYS`], then sampled estimates at every divisor, all on
/// the sweep's worker pool. The full baselines always run unsampled
/// ([`Sweep::run_full`]), so the study is meaningful even on a sweep
/// built with [`Sweep::with_sample`].
pub fn sampling(sweep: &Sweep) -> SamplingStudy {
    let apps = sweep.apps().to_vec();
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for &key in &SAMPLING_KEYS {
        for &app in &apps {
            sweep.emit(&format!("{key}/{}", app.name), EventKind::Queued);
            jobs.push(Box::new(move || drop(sweep.run_full(app, key))));
        }
    }
    for &divisor in &SAMPLING_DIVISORS {
        let spec = sampling_spec(sweep.scale, divisor);
        for &key in &SAMPLING_KEYS {
            for &app in &apps {
                sweep.emit(&format!("sampled-{key}/{}", app.name), EventKind::Queued);
                jobs.push(Box::new(move || drop(sweep.run_sampled(app, key, spec))));
            }
        }
    }
    pool::run_jobs(sweep.threads(), jobs);

    let full_ipc: Vec<f64> = SAMPLING_KEYS
        .iter()
        .map(|&key| geomean(apps.iter().map(|&a| sweep.run_full(a, key).ipc())))
        .collect();
    let full_eki: Vec<f64> = SAMPLING_KEYS
        .iter()
        .map(|&key| {
            apps.iter().map(|&a| energy_per_ki(&sweep.run_full(a, key))).sum::<f64>()
                / apps.len() as f64
        })
        .collect();

    let points = SAMPLING_DIVISORS
        .iter()
        .map(|&divisor| {
            let spec = sampling_spec(sweep.scale, divisor);
            let runs: Vec<Vec<Arc<SampledRun>>> = SAMPLING_KEYS
                .iter()
                .map(|&key| apps.iter().map(|&a| sweep.run_sampled(a, key, spec)).collect())
                .collect();
            let ipc: Vec<f64> = runs
                .iter()
                .map(|rs| geomean(rs.iter().map(|r| r.run.ipc())))
                .collect();
            let eki: Vec<f64> = runs
                .iter()
                .map(|rs| {
                    rs.iter().map(|r| energy_per_ki(&r.run)).sum::<f64>() / rs.len() as f64
                })
                .collect();
            let err = |est: &[f64], full: &[f64], i: usize| (est[i] - full[i]).abs() / full[i];
            SamplingPoint {
                divisor,
                spec,
                speedup: runs[0][0].speedup(),
                ipc_err: [err(&ipc, &full_ipc, 0), err(&ipc, &full_ipc, 1)],
                energy_err: [err(&eki, &full_eki, 0), err(&eki, &full_eki, 1)],
                delta_full: full_ipc[1] / full_ipc[0],
                delta_sampled: ipc[1] / ipc[0],
                mean_rel_ci: runs[1].iter().map(|r| r.ipc().rel_ci()).sum::<f64>()
                    / runs[1].len() as f64,
            }
        })
        .collect();
    SamplingStudy { points }
}

impl SamplingStudy {
    /// The point whose detailed-cycle reduction is closest to 20× — the
    /// headline regime the acceptance criteria are stated against.
    pub fn headline(&self) -> &SamplingPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.speedup - 20.0).abs().partial_cmp(&(b.speedup - 20.0).abs()).unwrap()
            })
            .expect("study has points")
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "1/N detail",
            "speedup",
            "sa4 IPC err",
            "nf4 IPC err",
            "sa4 nJ/KI err",
            "nf4 nJ/KI err",
            "DA/SA full",
            "DA/SA sampled",
            "mean 95% CI",
        ]);
        for p in &self.points {
            t.row(vec![
                format!("1/{}", p.divisor),
                format!("{:.1}x", p.speedup),
                pct(p.ipc_err[0]),
                pct(p.ipc_err[1]),
                pct(p.energy_err[0]),
                pct(p.energy_err[1]),
                rel(p.delta_full),
                rel(p.delta_sampled),
                pct(p.mean_rel_ci),
            ]);
        }
        format!(
            "Sampled vs full simulation: set-associative (sa4) vs \
             distance-associative (nf4)\n\
             (20 windows per run; errors are sampled-estimate vs full-run \
             geomean IPC and mean nJ/KI;\n \
             the 95% CI column is the estimator's own mean relative \
             confidence half-width)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profiles::by_name;

    fn tiny_sweep() -> Sweep {
        Sweep::with_apps(
            Scale {
                warmup: 40_000,
                measure: 60_000,
            },
            vec![by_name("galgel").unwrap(), by_name("wupwise").unwrap()],
        )
    }

    #[test]
    fn table2_hits_paper_anchors() {
        let t = table2();
        assert_eq!(t.rows.len(), 8);
        // Paper values: 0.42, 3.3, 0.40, 4.6, 0.18, -, 0.19, 0.57.
        assert!((t.rows[0].1 - 0.42).abs() / 0.42 < 0.3);
        assert!((t.rows[1].1 - 3.3).abs() / 3.3 < 0.3);
        assert!((t.rows[6].1 - 0.19).abs() < 1e-9);
        assert!((t.rows[7].1 - 0.57).abs() < 1e-9);
        assert!(t.render().contains("sm-search"));
    }

    #[test]
    fn table4_matches_paper_structure() {
        let t = table4();
        assert_eq!(t.rows.len(), 8);
        // Fastest MB: 19 / 14 / 12 cycles.
        assert_eq!((t.rows[0].0, t.rows[0].1, t.rows[0].2), (19, 14, 12));
        // D-NUCA MB1 average near 7.
        assert!((t.rows[0].3 .1 - 7.0).abs() < 2.0);
        let r = t.render();
        assert!(r.contains("MB 1") && r.contains("D-NUCA"));
    }

    #[test]
    fn fig4_shows_placement_advantage() {
        let s = tiny_sweep();
        let f = fig4(&s);
        // Distance-associative placement (index 1) must put more accesses
        // in the fastest d-group than set-associative (index 0).
        assert!(
            f.avg_first_group(1) > f.avg_first_group(0),
            "d-a {} vs s-a {}",
            f.avg_first_group(1),
            f.avg_first_group(0)
        );
        assert!(f.render().contains("AVERAGE"));
    }

    #[test]
    fn fig5_orders_policies() {
        let s = tiny_sweep();
        let f = fig5(&s);
        // demotion-only (0) < next-fastest (1); fastest (2) comparable to
        // next-fastest.
        assert!(f.avg_first_group(0) < f.avg_first_group(1));
        assert!((f.avg_first_group(2) - f.avg_first_group(1)).abs() < 0.1);
        // Miss fractions identical across policies (distance replacement
        // never evicts).
        assert!((f.avg_miss(0) - f.avg_miss(1)).abs() < 1e-12);
        assert!((f.avg_miss(1) - f.avg_miss(2)).abs() < 1e-12);
    }

    #[test]
    fn fig7_orders_dgroup_counts() {
        let s = tiny_sweep();
        let f = fig7(&s);
        // Fewer, larger d-groups hold more of the working set.
        assert!(f.avg_first_group(0) >= f.avg_first_group(1));
        assert!(f.avg_first_group(1) >= f.avg_first_group(2));
    }

    #[test]
    fn fig6_ideal_is_upper_bound() {
        let s = tiny_sweep();
        let f = fig6(&s);
        // ideal (3) >= next-fastest (1) >= demotion-only (0) on average.
        assert!(f.overall(3) >= f.overall(1) - 1e-9);
        assert!(f.overall(1) >= f.overall(0) - 0.02);
        assert!(f.render().contains("OVERALL"));
    }

    #[test]
    fn sweep_caches_runs() {
        let s = tiny_sweep();
        let _ = fig5(&s);
        let n = s.runs();
        let _ = fig6(&s); // reuses dm4/nf4/fs4; adds base + id4
        assert_eq!(s.runs(), n + 4);
        assert_eq!(s.simulated() as usize, s.runs(), "no artifacts attached");
    }

    #[test]
    fn same_label_different_configs_do_not_collide() {
        // The old sweep keyed runs by (app, label) strings, so two
        // distinct configurations sharing a label silently aliased. The
        // digest-keyed store must treat them as distinct runs.
        let s = tiny_sweep();
        let app = by_name("galgel").unwrap();
        let a = s.run_kind(app, "same-label", &L2Kind::NuRapid(NuRapidConfig::micro2003(4)));
        let b = s.run_kind(
            app,
            "same-label",
            &L2Kind::NuRapid(
                NuRapidConfig::micro2003(4).with_promotion(PromotionPolicy::DemotionOnly),
            ),
        );
        assert_eq!(s.runs(), 2, "two configs, two runs, despite one label");
        assert_ne!(
            a.group_fracs, b.group_fracs,
            "distinct promotion policies must not share a result"
        );
        // Same config under two different labels is still one run.
        let c = s.run_kind(app, "other-label", &L2Kind::NuRapid(NuRapidConfig::micro2003(4)));
        assert_eq!(s.runs(), 2);
        assert_eq!(*a, *c);
    }

    #[test]
    fn prefetch_populates_the_store_for_any_thread_count() {
        let serial = tiny_sweep();
        let _ = fig5(&serial);
        for threads in [1, 4] {
            let s = Sweep::with_apps(
                Scale {
                    warmup: 40_000,
                    measure: 60_000,
                },
                vec![by_name("galgel").unwrap(), by_name("wupwise").unwrap()],
            )
            .with_threads(threads);
            s.prefetch_all(&["dm4", "nf4", "fs4"]);
            assert_eq!(s.runs(), 6);
            let f = fig5(&s);
            // Figures rendered from the prefetched store equal the serial
            // baseline byte-for-byte.
            assert_eq!(f.render(), fig5(&serial).render(), "threads={threads}");
            // fig5 added no new runs: everything was prefetched.
            assert_eq!(s.runs(), 6);
        }
    }

    #[test]
    fn sweep_emits_progress_events() {
        use simsched::progress::Counts;
        let counts = Counts::new();
        let s = tiny_sweep().with_observer(counts.observer());
        s.prefetch_all(&["nf4"]);
        let _ = s.run(by_name("galgel").unwrap(), "nf4"); // store hit
        assert_eq!(counts.queued.load(Ordering::Relaxed), 2);
        assert_eq!(counts.simulated.load(Ordering::Relaxed), 2);
        assert_eq!(counts.shared.load(Ordering::Relaxed), 1);
        assert_eq!(counts.finished(), 3);
    }

    #[test]
    fn fig10_nurapid_beats_dnuca_energy() {
        let s = tiny_sweep();
        let f = fig10(&s);
        assert!(
            f.energy_reduction_vs_dnuca() > 0.3,
            "reduction {}",
            f.energy_reduction_vs_dnuca()
        );
        assert!(f.access_reduction_vs_dnuca() > 0.2);
        assert!(f.render().contains("Figure 10"));
    }

    #[test]
    fn fig11_nurapid_improves_edp() {
        let s = tiny_sweep();
        let f = fig11(&s);
        assert!(f.nurapid_mean() < 1.0, "EDP {}", f.nurapid_mean());
        assert!(f.render().contains("GEOMEAN"));
    }

    #[test]
    fn sec531_lru_vs_random() {
        let s = tiny_sweep();
        let l = sec531(&s);
        assert_eq!(l.rows.len(), 2);
        // Under demotion-only, LRU must beat random clearly; under
        // next-fastest the gap shrinks (promotion compensates).
        let dm_gap = l.rows[0].2 - l.rows[0].1;
        let nf_gap = l.rows[1].2 - l.rows[1].1;
        assert!(dm_gap > nf_gap - 0.02, "dm {dm_gap} vs nf {nf_gap}");
        assert!(l.render().contains("5.3.1"));
    }

    #[test]
    #[should_panic(expected = "unknown configuration")]
    fn unknown_key_panics() {
        let _ = kind_of("warp-drive");
    }

    #[test]
    fn orgs_compares_the_plugin_roster() {
        // art's 3.5-MB hot set overflows D-NUCA's 1-MB fastest d-group,
        // which is where the compressed ways earn their keep; and bubble
        // promotion needs roughly `n_positions` hits per block to lift it
        // into the fastest d-group, so this study needs a longer measure
        // window than the other figure tests.
        let s = Sweep::with_apps(
            Scale {
                warmup: 60_000,
                measure: 300_000,
            },
            vec![by_name("art").unwrap()],
        );
        let f = orgs(&s);
        let at = |key| f.configs.iter().position(|&c| c == key).unwrap();
        let (perf, memo, cnuca) = (at("dn-perf"), at("dn-memo"), at("cnuca"));
        // Compressed NUCA's four half-frame fast ways hold more of the
        // working set: a higher fastest-d-group residency than D-NUCA's
        // two raw ways.
        assert!(
            f.avg_first_group(cnuca) > f.avg_first_group(perf),
            "cnuca g0 {} vs dn-perf g0 {}",
            f.avg_first_group(cnuca),
            f.avg_first_group(perf)
        );
        // Way memoization skips the smart-search array and the multicast
        // on memo hits: less L2 energy than ss-performance on the same
        // trace.
        assert!(
            f.avg_energy_per_ki(memo) < f.avg_energy_per_ki(perf),
            "dn-memo {} nJ/KI vs dn-perf {}",
            f.avg_energy_per_ki(memo),
            f.avg_energy_per_ki(perf)
        );
        let r = f.render();
        assert!(r.contains("AVERAGE") && r.contains("cnuca g0"));
    }

    #[test]
    fn restriction_ablation_orders_flexibility() {
        let s = tiny_sweep();
        let a = restriction_ablation(&s);
        assert_eq!(a.rows.len(), 3);
        // Pointer bits shrink with restriction.
        assert!(a.rows[0].1 > a.rows[1].1);
        assert!(a.rows[1].1 > a.rows[2].1);
        // Flexibility can only help the fast-group fraction (within noise).
        assert!(a.rows[0].2 >= a.rows[2].2 - 0.05);
        assert!(a.render().contains("2.4.3"));
    }

    #[test]
    fn tsv_rendering_is_machine_readable() {
        let s = tiny_sweep();
        let d = fig5(&s).render_tsv();
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 apps");
        let cols = lines[0].split('\t').count();
        assert_eq!(lines[1].split('\t').count(), cols);
        // 3 configs x (4 groups + miss) + app column.
        assert_eq!(cols, 1 + 3 * 5);
        let p = fig8(&s).render_tsv();
        assert!(p.starts_with("app\tnf2\tnf4\tnf8\n"));
    }

    #[test]
    fn table3_reports_roster() {
        let s = tiny_sweep();
        let t = table3(&s);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.2 > 0.0));
        assert!(t.render().contains("galgel"));
    }

    #[test]
    fn dram_windows_track_the_resize_schedule() {
        let s = tiny_sweep();
        let d = dram(&s);
        assert_eq!(d.rows.len(), 2);
        assert_eq!(s.runs(), 2, "transient runs live in the dram store");
        for (name, ws) in &d.rows {
            assert_eq!(ws.len(), DRAM_WINDOWS, "{name}");
            let banks: Vec<u32> = ws.iter().map(|w| w.n_banks).collect();
            assert_eq!(banks, vec![8, 8, 8, 4, 4, 4, 12, 12], "{name}");
            // Each resize lands exactly in the first window of its regime.
            let resizes: Vec<u64> = ws.iter().map(|w| w.l4().resizes).collect();
            assert_eq!(resizes, vec![0, 0, 0, 1, 0, 0, 1, 0], "{name}");
            let instructions: u64 = ws.iter().map(|w| w.counters.core.instructions).sum();
            assert_eq!(instructions, 60_000, "{name}: windows tile the measured phase");
        }
        // The shrink transient costs memory energy: retired banks flush
        // their dirty blocks and the survivors re-fill the lost capacity.
        assert!(
            d.avg_energy_per_ki(DRAM_SHRINK_WINDOW)
                > d.avg_energy_per_ki(DRAM_SHRINK_WINDOW - 1),
            "shrink window {} nJ/KI vs steady {}",
            d.avg_energy_per_ki(DRAM_SHRINK_WINDOW),
            d.avg_energy_per_ki(DRAM_SHRINK_WINDOW - 1)
        );
        let r = d.render();
        assert!(r.contains("AVERAGE") && r.contains("8 -> 4"));
    }

    #[test]
    fn dram_runs_are_bit_identical_across_threads_and_checkpoint_stores() {
        let serial = tiny_sweep();
        let apps = serial.apps().to_vec();
        let baseline: Vec<_> = apps.iter().map(|&p| serial.run_dram(p)).collect();
        for threads in [2, 8] {
            let s = tiny_sweep().with_threads(threads);
            s.prefetch_dram();
            for (&p, b) in apps.iter().zip(&baseline) {
                assert_eq!(*s.run_dram(p), **b, "threads={threads}");
            }
        }
        let dir = std::env::temp_dir()
            .join(format!("simchk-exps-dram-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            let s = tiny_sweep().with_checkpoints(&dir).expect("open checkpoint store");
            for (&p, b) in apps.iter().zip(&baseline) {
                assert_eq!(*s.run_dram(p), **b, "{pass} checkpoint store");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dram_runs_resume_from_artifacts() {
        let dir = std::env::temp_dir()
            .join(format!("simart-exps-dram-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = by_name("galgel").unwrap();
        let first = tiny_sweep().with_artifacts(&dir).expect("open artifacts");
        let a = first.run_dram(app);
        assert_eq!((first.simulated(), first.resumed()), (1, 0));
        let second = tiny_sweep().with_artifacts(&dir).expect("reopen artifacts");
        let b = second.run_dram(app);
        assert_eq!((second.simulated(), second.resumed()), (0, 1));
        assert_eq!(*a, *b, "artifact resume must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_spec() -> SampleSpec {
        SampleSpec {
            period: 5_000,
            warmup: 200,
            measure: 800,
        }
    }

    #[test]
    fn sampled_sweeps_are_bit_identical_across_threads_and_stores() {
        let serial = tiny_sweep().with_sample(Some(tiny_spec())).with_intervals(4);
        let apps = serial.apps().to_vec();
        let baseline: Vec<_> = apps.iter().map(|&p| serial.run(p, "nf4")).collect();
        // A sampled run is an estimate, not the full run.
        assert_ne!(*baseline[0], *tiny_sweep().run(apps[0], "nf4"));

        for threads in [2, 8] {
            let s = tiny_sweep()
                .with_sample(Some(tiny_spec()))
                .with_intervals(4)
                .with_threads(threads);
            s.prefetch_all(&["nf4"]);
            for (&p, b) in apps.iter().zip(&baseline) {
                assert_eq!(*s.run(p, "nf4"), **b, "threads={threads}");
            }
        }
        let dir = std::env::temp_dir()
            .join(format!("simchk-exps-sampled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            let s = tiny_sweep()
                .with_sample(Some(tiny_spec()))
                .with_intervals(4)
                .with_threads(2)
                .with_checkpoints(&dir)
                .expect("open checkpoint store");
            for (&p, b) in apps.iter().zip(&baseline) {
                assert_eq!(*s.run(p, "nf4"), **b, "{pass} checkpoint store");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_sweeps_resume_from_artifacts_without_aliasing_full_runs() {
        let dir = std::env::temp_dir()
            .join(format!("simart-exps-sampled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = by_name("galgel").unwrap();
        // A full run and a sampled run of the same job share the manifest
        // without colliding (distinct digests).
        let full = tiny_sweep().with_artifacts(&dir).expect("open artifacts");
        let f = full.run(app, "nf4");
        let first = tiny_sweep()
            .with_sample(Some(tiny_spec()))
            .with_artifacts(&dir)
            .expect("open artifacts");
        let a = first.run(app, "nf4");
        assert_eq!((first.simulated(), first.resumed()), (1, 0));
        let second = tiny_sweep()
            .with_sample(Some(tiny_spec()))
            .with_artifacts(&dir)
            .expect("reopen artifacts");
        let b = second.run(app, "nf4");
        assert_eq!((second.simulated(), second.resumed()), (0, 1));
        assert_eq!(*a, *b, "artifact resume must be bit-identical");
        assert_ne!(*a, *f);
        // The full run still resumes as itself.
        let full2 = tiny_sweep().with_artifacts(&dir).expect("reopen artifacts");
        assert_eq!(*full2.run(app, "nf4"), *f);
        assert_eq!((full2.simulated(), full2.resumed()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_study_bounds_errors_and_orders_speedups() {
        let s = tiny_sweep().with_threads(2);
        let study = sampling(&s);
        assert_eq!(study.points.len(), SAMPLING_DIVISORS.len());
        for pair in study.points.windows(2) {
            assert!(
                pair[1].speedup > pair[0].speedup,
                "speedup must grow with the divisor"
            );
        }
        for p in &study.points {
            assert!(p.speedup >= 2.0);
            for k in 0..2 {
                assert!(
                    p.ipc_err[k] < 0.5 && p.energy_err[k] < 0.5,
                    "1/{} errors out of range: {:?} {:?}",
                    p.divisor,
                    p.ipc_err,
                    p.energy_err
                );
            }
            // The sampled estimate preserves the direction of the paper's
            // headline comparison: DA beats SA.
            assert!(p.delta_full > 1.0 && p.delta_sampled > 1.0);
        }
        let r = study.render();
        assert!(r.contains("DA/SA") && r.contains("1/40"));
    }

    #[test]
    fn with_l4_wraps_keyed_runs_but_not_explicit_kinds() {
        let app = by_name("galgel").unwrap();
        let plain = tiny_sweep();
        let wrapped = tiny_sweep().with_l4(Some(L4Config::tdram()));
        let p = plain.run(app, "nf4");
        let w = wrapped.run(app, "nf4");
        assert_ne!(*p, *w, "an attached L4 must change the run");
        // An explicit kind is taken verbatim — no silent re-wrapping, so
        // `run_dram`'s already-L4 configuration cannot be double-wrapped.
        let e = wrapped.run_kind(app, "nf4", &kind_of("nf4"));
        assert_eq!(*p, *e, "explicit kinds bypass the sweep's L4");
    }
}
