//! One experiment per paper table and figure.
//!
//! Every experiment returns a plain data structure with a `render()`
//! method producing the text table the `repro` binary prints. Full-system
//! runs are shared through the [`Sweep`] run store so, e.g., Figure 6 and
//! Figure 9 reuse the same base-case runs — including when they request
//! them concurrently from the simsched worker pool.

use crate::checkpoint::{CheckpointStore, Finished};
use crate::cmp::CmpRun;
use crate::engine::Counters;
use crate::frontend::{Claim, FrontEnds};
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
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::stats::GeoMean;
use simbase::Capacity;
use simsched::pool;
use simsched::progress::{Event, EventKind, Observer, Outcome};
use simsched::store::RunStore;
use simtel::{Telemetry, TelemetrySink, Value};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::profiles::{BenchProfile, LoadClass, ROSTER};

/// A run's telemetry summary fields.
type Fields<T> = fn(&T) -> Vec<(&'static str, Value)>;

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
/// - with [`Sweep::with_artifacts`], finished runs are sealed into a
///   results store, one `<run digest>.simchk` file each, and a later
///   sweep *resumes*, loading digest-matching runs instead of
///   re-simulating.
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
    results: Option<CheckpointStore>,
    checkpoints: Option<Arc<CheckpointStore>>,
    warmup: WarmupMode,
    frontends: FrontEnds,
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

    /// A sweep over a subset of applications (for tests and examples).
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
            results: None,
            checkpoints: None,
            warmup: WarmupMode::default(),
            frontends: FrontEnds::new(),
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

    /// Attaches a results directory ([`CheckpointStore::open_results`]):
    /// every finished run is sealed into it under its run digest, and a
    /// run whose file is there and whole is loaded instead of simulated
    /// (resume). A missing or damaged file means one more simulation.
    pub fn with_artifacts(mut self, dir: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.results = Some(CheckpointStore::open_results(dir)?);
        Ok(self)
    }

    /// Attaches a warm-up checkpoint directory: simulated runs restore
    /// warm architectural state from digest-matching checkpoints instead
    /// of re-executing warm-up, and publish freshly built checkpoints for
    /// later sweeps. Results are bit-identical with or without a store
    /// (see the `runner` differential tests); only wall time changes.
    pub fn with_checkpoints(mut self, dir: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
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

    /// Switches every single-core keyed run to **sampled** execution (the
    /// `--sample` knob, DESIGN.md §16): [`Sweep::run`] estimates each
    /// [`AppRun`] through [`sampling::run_app_sampled`]. Sampled runs
    /// digest under their own domain tag, so they can never alias full
    /// runs in the stores or on disk. CMP runs ([`Sweep::run_cmp`]) stay
    /// at full detail under it, keyed as without it. With `None` (the
    /// default) every byte of every report is identical to a build
    /// without this method.
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
    /// `store`, loaded from the results store when its file there is
    /// whole, otherwise simulated by `simulate` and sealed into it. A
    /// loaded run records its `fields`, when given, as its telemetry
    /// summary. Progress events bracket the job under `label` either way;
    /// a simulated member of a lockstep group reports its `group` share of
    /// the group's wall time as its own.
    fn keyed<T: Finished>(
        &self,
        store: &RunStore<u128, T>,
        fields: Option<Fields<T>>,
        digest: Digest,
        label: &str,
        group: Option<GroupRun<'_>>,
        simulate: impl FnOnce(RunOptions<'_>) -> T,
    ) -> Arc<T> {
        self.emit(label, EventKind::Started);
        let t0 = Instant::now();

        // `outcome` stays `None` when the single-flight store satisfies
        // the request from another requester's completed computation.
        let mut outcome = None;
        let run = store.get_or_compute(digest.raw(), || {
            let fresh = || {
                let run = simulate(RunOptions {
                    mode: self.warmup,
                    checkpoints: self.checkpoints.as_deref(),
                    wall: self.telemetry.as_deref(),
                    frontend: None,
                });
                self.simulated.fetch_add(1, Ordering::Relaxed);
                outcome = Some(Outcome::Simulated);
                run
            };
            let Some(results) = &self.results else {
                return fresh();
            };
            let mut run = None;
            let hit = results.restore_or_build(
                digest,
                &mut run,
                |r| *r = None,
                |r| {
                    *r = Some(fresh());
                },
            );
            let run = run.expect("a loaded or simulated run");
            if hit {
                self.resumed.fetch_add(1, Ordering::Relaxed);
                if let (Some(tel), Some(fields)) = (&self.telemetry, fields) {
                    let sink = TelemetrySink::disabled();
                    tel.record_run(label, &digest.hex(), fields(&run), &sink);
                }
                outcome = Some(Outcome::Resumed);
            }
            run
        });

        let wall_ns = match (outcome, group) {
            (Some(Outcome::Simulated), Some(group)) => group.share_ns.get(),
            _ => t0.elapsed().as_nanos() as u64,
        };
        let outcome = outcome.unwrap_or(Outcome::Shared);
        self.emit(label, EventKind::Finished { outcome, wall_ns });
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
        self.run_claimed(app, key, None)
    }

    /// [`Sweep::run`] for a planned job holding `claim` on its
    /// application's warm-up front ends.
    fn run_claimed(
        &self,
        app: BenchProfile,
        key: &'static str,
        claim: Option<&Claim<'_>>,
    ) -> Arc<AppRun> {
        let kind = self.wrap_l4(kind_of(key));
        match self.sample {
            Some(spec) => self.run_kind_sampled(app, key, &kind, spec, None),
            None => self.run_kind_full(app, key, &kind, claim),
        }
    }

    /// Runs `app` on an explicit organization. `label` is only for
    /// progress display — the store is keyed by the digest of `kind`, so
    /// two different configurations sharing a label cannot collide.
    /// Under [`Sweep::with_sample`] the run is a sampled estimate.
    pub fn run_kind(&self, app: BenchProfile, label: &str, kind: &L2Kind) -> Arc<AppRun> {
        match self.sample {
            Some(spec) => self.run_kind_sampled(app, label, kind, spec, None),
            None => self.run_kind_full(app, label, kind, None),
        }
    }

    /// Runs `app` on the configuration named `key` with full detail,
    /// regardless of [`Sweep::with_sample`] — the baseline leg of the
    /// sampling error study.
    pub fn run_full(&self, app: BenchProfile, key: &'static str) -> Arc<AppRun> {
        self.run_kind_full(app, key, &self.wrap_l4(kind_of(key)), None)
    }

    fn run_kind_full(
        &self,
        app: BenchProfile,
        label: &str,
        kind: &L2Kind,
        claim: Option<&Claim<'_>>,
    ) -> Arc<AppRun> {
        let digest = run_digest(&app, kind, self.scale);
        let label = format!("{label}/{}", app.name);
        self.keyed(&self.store, Some(run_fields), digest, &label, None, |opts| {
            let opts = RunOptions {
                frontend: claim,
                ..opts
            };
            self.traced(&label, digest, run_fields, |sink, snap_every| {
                run_app_opts(app, kind, self.scale, sink, snap_every, opts)
            })
        })
    }

    /// The sampled twin of [`Sweep::run_kind_full`]: same single-flight
    /// store, same resume (the estimated [`AppRun`] is stored as any
    /// other under the sampled digest), same telemetry
    /// recording — but the simulation is
    /// [`sampling::run_app_sampled`] with the sweep's interval count.
    /// A prefetched run executes its intervals in order on the worker
    /// that owns it (the pool has one level of parallelism); a run asked
    /// for outside the pool spreads them over the sweep's threads. A
    /// member of a lockstep group takes its result from `group`.
    fn run_kind_sampled(
        &self,
        app: BenchProfile,
        label: &str,
        kind: &L2Kind,
        spec: SampleSpec,
        group: Option<GroupRun<'_>>,
    ) -> Arc<AppRun> {
        let digest = sampling::sampled_digest(&app, kind, self.scale, spec, self.intervals);
        let label = format!("{label}/{}", app.name);
        self.keyed(&self.store, Some(run_fields), digest, &label, group, |opts| {
            let run = self.sampled(app, kind, spec, group, opts).run;
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
    /// the same resume and checkpoint behavior as [`Sweep::run`];
    /// the `simulated`/`resumed` counters are shared, so status lines and
    /// the CI resume proof account for both families.
    pub fn run_cmp(&self, cores: u32, key: &'static str) -> Arc<CmpRun> {
        let kind = self.wrap_l4(kind_of(key));
        let cfg = ::cmp::CmpConfig::micro2003(cores);
        let apps = crate::cmp::cmp_profiles(cores);
        let digest = crate::cmp::cmp_run_digest(&cfg, &apps, &kind, self.scale);
        let label = format!("cmp{cores}x/{key}");
        self.keyed(&self.cmp_store, Some(cmp_run_fields), digest, &label, None, |opts| {
            self.traced(&label, digest, cmp_run_fields, |sink, snap| {
                crate::cmp::run_cmp_opts(key, cores, &kind, self.scale, sink, snap, opts)
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
    /// digest-keyed single-flight store with the same resume and
    /// checkpoint behavior as [`Sweep::run`].
    pub fn run_dram(&self, app: BenchProfile) -> Arc<DramRun> {
        let kind = dram_kind(self.scale);
        let digest = dram_digest(&app, &kind, self.scale, DRAM_WINDOWS);
        let label = format!("dram/{}", app.name);
        self.keyed(&self.dram_store, None, digest, &label, None, |opts| {
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
        let jobs: Vec<_> = self.apps.iter().map(|&app| move || drop(self.run_dram(app))).collect();
        pool::run_jobs(self.threads, jobs);
    }

    /// Runs (or returns the stored run of) `app` on the configuration
    /// named `key` under an **explicit** sampling regime, keeping the
    /// full per-window observation list — the sampled leg of the error
    /// study, which needs the windows for confidence intervals. Lives in
    /// its own digest-keyed single-flight store (under a study-specific
    /// domain tag, so its stored runs can never collide with the plain
    /// estimates of [`Sweep::with_sample`] runs) with the same resume
    /// behavior as every other family.
    pub fn run_sampled(
        &self,
        app: BenchProfile,
        key: &'static str,
        spec: SampleSpec,
    ) -> Arc<SampledRun> {
        self.run_sampled_as(app, key, spec, None)
    }

    /// [`Sweep::run_sampled`] for a run that may be a member of a
    /// lockstep group, which then yields its result through `group`.
    fn run_sampled_as(
        &self,
        app: BenchProfile,
        key: &'static str,
        spec: SampleSpec,
        group: Option<GroupRun<'_>>,
    ) -> Arc<SampledRun> {
        let kind = self.wrap_l4(kind_of(key));
        let digest = sampled_study_digest(&app, &kind, self.scale, spec, self.intervals);
        let label = format!("sampled-{key}/{}", app.name);
        self.keyed(&self.sampled_store, None, digest, &label, group, |opts| {
            self.sampled(app, &kind, spec, group, opts)
        })
    }

    /// The run of `app` on `kind` under `spec`: a lockstep group's result
    /// for it when it is a member of one, or else simulated alone through
    /// [`sampling::run_app_sampled`] with the sweep's interval count.
    fn sampled(
        &self,
        app: BenchProfile,
        kind: &L2Kind,
        spec: SampleSpec,
        group: Option<GroupRun<'_>>,
        opts: RunOptions<'_>,
    ) -> SampledRun {
        let (scale, intervals, threads) = (self.scale, self.intervals, self.threads);
        match group {
            Some(group) => (group.run)(),
            None => sampling::run_app_sampled(app, kind, scale, spec, intervals, threads, opts),
        }
    }

    /// Plans the sampled run `member` of `app`, kept in `store`, into
    /// `jobs`: into one of `app`'s lockstep groups when it joins one, or
    /// else as a job of its own. A run joins a group only with a
    /// checkpoint store to seed the group from, and only when it will
    /// simulate — neither finished in this sweep nor held by the results
    /// store, since a group counts every member's points in `[simchk]`.
    /// Returns whether it was planned.
    fn plan_sampled<'s, T>(
        &self,
        jobs: &mut Jobs<'s>,
        store: &RunStore<u128, T>,
        app: BenchProfile,
        member: Member<'s>,
    ) -> bool {
        let run = member.run;
        let joins = self.checkpoints.is_some()
            && store.get(&run.raw()).is_none()
            && !self.results.as_ref().is_some_and(|r| r.holds(run));
        if joins {
            jobs.join(app, member)
        } else {
            jobs.run(move || (member.finish)(None))
        }
    }

    /// Runs a lockstep group of `app`'s planned sampled runs
    /// ([`sampling::run_group`]) and stores each member's result as the
    /// member's own run would. The group runs when the first member that
    /// still has to simulate asks for its result, and each member that
    /// simulated reports an equal share of the group's wall time.
    fn run_group(&self, app: BenchProfile, members: Vec<Member<'_>>) {
        let (specs, finish): (Vec<_>, Vec<_>) =
            members.into_iter().map(|m| ((m.kind, m.spec), m.finish)).unzip();
        let runs: RefCell<Vec<Option<SampledRun>>> = RefCell::new(Vec::new());
        let share_ns = Cell::new(0);
        for (m, finish) in finish.into_iter().enumerate() {
            let run = || {
                if runs.borrow().is_empty() {
                    let t_group = Instant::now();
                    let opts = RunOptions {
                        checkpoints: self.checkpoints(),
                        wall: self.telemetry.as_deref(),
                        ..RunOptions::default()
                    };
                    let (scale, intervals, threads) = (self.scale, self.intervals, self.threads);
                    let group = sampling::run_group(app, scale, intervals, &specs, threads, opts);
                    *runs.borrow_mut() = group.into_iter().map(Some).collect();
                    share_ns.set(t_group.elapsed().as_nanos() as u64 / specs.len() as u64);
                }
                runs.borrow_mut()[m].take().expect("a member's run is taken once")
            };
            finish(Some(GroupRun {
                run: &run,
                share_ns: &share_ns,
            }));
        }
    }

    /// Executes the given (application, configuration-key) jobs on the
    /// sweep's worker pool, populating the run store. Figure functions
    /// called afterwards hit the warm store. Pairs racing with figures on
    /// other threads are deduplicated by the store's single-flight
    /// guarantee, and a repeated pair is planned once.
    ///
    /// This is the warm-up planner (DESIGN.md §11): the jobs run in
    /// [`planned`] order, each holding a claim on its application's
    /// functional warm-up front end. The first job to warm up records
    /// it, the rest replay the same recording, and it is dropped once
    /// the application's last job is past its warm-up. Under
    /// [`Sweep::with_sample`] with a checkpoint store, the planned runs
    /// of each application form lockstep groups instead, each run as one
    /// job (DESIGN.md §16): the group publishes its members' snapshot
    /// chain and fast-forwards between their windows in one functional
    /// pass.
    pub fn prefetch(&self, pairs: &[(BenchProfile, &'static str)]) {
        let mut jobs = Jobs::default();
        for (app, key) in planned(pairs, self.threads) {
            let queued = match self.sample {
                Some(spec) => {
                    let kind = self.wrap_l4(kind_of(key));
                    let run =
                        sampling::sampled_digest(&app, &kind, self.scale, spec, self.intervals);
                    let finish = Box::new(move |group: Option<GroupRun<'_>>| {
                        let kind = self.wrap_l4(kind_of(key));
                        drop(self.run_kind_sampled(app, key, &kind, spec, group));
                    });
                    let member = Member {
                        run,
                        kind,
                        spec,
                        finish,
                    };
                    self.plan_sampled(&mut jobs, &self.store, app, member)
                }
                None => {
                    let claim = self.frontends.claim(app.name);
                    jobs.run(move || drop(self.run_claimed(app, key, Some(&claim))))
                }
            };
            if queued {
                self.emit(&format!("{key}/{}", app.name), EventKind::Queued);
            }
        }
        jobs.execute(self);
    }

    /// Prefetches every application in the sweep on each of `keys`.
    pub fn prefetch_all(&self, keys: &[&'static str]) {
        let pairs: Vec<_> =
            keys.iter().flat_map(|&k| self.apps.iter().map(move |&a| (a, k))).collect();
        self.prefetch(&pairs);
    }

    /// Number of distinct completed runs across all stores (single-core,
    /// CMP, DRAM transient and sampled; simulated plus resumed).
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

    /// Number of runs loaded from the results store.
    pub fn resumed(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }
}

/// A lockstep group member's hold on its group.
#[derive(Clone, Copy)]
struct GroupRun<'a> {
    /// The member's result, simulated with the whole group on the group's
    /// first request.
    run: &'a dyn Fn() -> SampledRun,
    /// Each member's equal share of the group's wall time, once it ran.
    share_ns: &'a Cell<u64>,
}

/// How a planned sampled run is run and stored as its own run, given its
/// lockstep group when it joined one.
type Finish<'s> = Box<dyn FnOnce(Option<GroupRun<'_>>) + Send + 's>;

/// A planned sampled run: its run digest, organization and regime, and
/// how it finishes.
struct Member<'s> {
    run: Digest,
    kind: L2Kind,
    spec: SampleSpec,
    finish: Finish<'s>,
}

/// One job of a plan: a run of its own, or a lockstep group of one
/// application's sampled runs.
enum Job<'s> {
    Run(Box<dyn FnOnce() + Send + 's>),
    Group(BenchProfile, Vec<Member<'s>>),
}

/// A plan's jobs, in order. A sampled run that joins a lockstep group
/// goes into its application's last group, or into a new group at its
/// own place once that one has [`sampling::CHAIN_MEMBERS`].
#[derive(Default)]
struct Jobs<'s>(Vec<Job<'s>>);

impl<'s> Jobs<'s> {
    /// Plans `job` as a job of its own. Returns `true`.
    fn run(&mut self, job: impl FnOnce() + Send + 's) -> bool {
        self.0.push(Job::Run(Box::new(job)));
        true
    }

    /// Plans `member` into one of `app`'s lockstep groups. Returns whether
    /// it was planned: a run already in a group is not planned again.
    fn join(&mut self, app: BenchProfile, member: Member<'s>) -> bool {
        let grouped = |job: &Job<'_>| match job {
            Job::Group(_, members) => members.iter().any(|m| m.run == member.run),
            Job::Run(_) => false,
        };
        if self.0.iter().any(grouped) {
            return false;
        }
        let last = self.0.iter_mut().rev().find_map(|job| match job {
            Job::Group(a, members) if a.name == app.name => Some(members),
            _ => None,
        });
        match last {
            Some(members) if members.len() < sampling::CHAIN_MEMBERS => members.push(member),
            _ => self.0.push(Job::Group(app, vec![member])),
        }
        true
    }

    /// Runs every job on `sweep`'s worker pool.
    fn execute(self, sweep: &'s Sweep) {
        let jobs: Vec<Box<dyn FnOnce() + Send + 's>> = (self.0.into_iter())
            .map(|job| match job {
                Job::Run(run) => run,
                Job::Group(app, members) => Box::new(move || sweep.run_group(app, members)),
            })
            .collect();
        pool::run_jobs(sweep.threads, jobs);
    }
}

/// `pairs` in the planner's order: applications, in order of first use,
/// fall into windows of `threads`; the windows run one after another,
/// each key by key (in order of first use), application by application.
/// The first `threads` jobs of a window thus record different
/// applications' front ends side by side, the window's later keys find
/// them recorded, and only the front ends of about two windows are
/// resident at once.
fn planned(
    pairs: &[(BenchProfile, &'static str)],
    threads: usize,
) -> Vec<(BenchProfile, &'static str)> {
    let (mut apps, mut keys) = (Vec::new(), Vec::new());
    for &(app, key) in pairs {
        if !apps.contains(&app.name) {
            apps.push(app.name);
        }
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let pos = |list: &[&str], x: &str| list.iter().position(|&n| n == x).expect("listed above");
    let mut order = pairs.to_vec();
    order.sort_by_key(|&(app, key)| {
        let a = pos(&apps, app.name);
        (a / threads, pos(&keys, key), a)
    });
    order
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("scale", &self.scale)
            .field("apps", &self.apps.len())
            .field("threads", &self.threads)
            .field("runs", &self.runs())
            .field("results", &self.results.as_ref().map(|r| r.dir().to_path_buf()))
            .finish()
    }
}

/// The summary fields exported to `metrics.json` for one run. The f64
/// values are the very numbers the printed tables derive from; the JSON
/// renderer writes them shortest-round-trip, so they re-parse bit-exact.
fn run_fields(run: &AppRun) -> Vec<(&'static str, Value)> {
    let c = &run.counters;
    vec![
        ("app", Value::Str(run.name.to_string())),
        ("instructions", Value::U64(c.core.instructions)),
        ("cycles", Value::U64(c.core.cycles)),
        ("ipc", Value::F64(run.ipc())),
        ("apki", Value::F64(run.apki())),
        ("l2_accesses", Value::U64(c.org.l2_accesses)),
        ("l2_misses", Value::U64(c.org.l2_misses)),
        ("miss_frac", Value::F64(run.miss_frac())),
        ("group_fracs", Value::F64s(run.group_fracs())),
        ("dgroup_accesses", Value::U64(c.org.dgroup_accesses)),
        ("swaps", Value::U64(c.org.swaps)),
        ("l2_energy_nj", Value::F64(c.org.l2_energy.nj())),
        ("total_energy_nj", Value::F64(run.energy().total().nj())),
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
            NuRapidConfig::micro2003(4).with_distance_victim(DistanceVictimPolicy::ClockApprox),
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
            ("Tag + access: closest 64-KB NUCA d-group".into(), dn.bank_access_energy(0).nj()),
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
                    (r.group_fracs(), r.miss_frac())
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
            avg.push(format!("g0 {} miss {}", pct(self.avg_first_group(i)), pct(self.avg_miss(i))));
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
            let rels = configs.iter().map(|k| sweep.run(p, k).ipc() / base_ipc).collect();
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
        let vals: Vec<f64> =
            self.rows.iter().filter(|(_, c, _)| *c == class).map(|(_, _, r)| r[i]).collect();
        if vals.is_empty() {
            1.0
        } else {
            geomean(vals)
        }
    }

    /// Best per-app relative performance of config `i`.
    pub fn max(&self, i: usize) -> f64 {
        self.rows.iter().map(|(_, _, r)| r[i]).fold(f64::NEG_INFINITY, f64::max)
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
        for (label, class) in [
            ("HIGH-LOAD", LoadClass::HighLoad),
            ("LOW-LOAD", LoadClass::LowLoad),
        ] {
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
        let sum: f64 = apps.iter().map(|&p| sweep.run(p, key).group_fracs()[0]).sum();
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
            let per_ki = |r: &AppRun| {
                let c = &r.counters;
                c.org.l2_energy.nj() * 1000.0 / c.core.instructions as f64
            };
            let per_access = |r: &AppRun| {
                let org = &r.counters.org;
                org.dgroup_accesses as f64 / org.l2_accesses.max(1) as f64
            };
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
            t.row(vec![name.to_string(), f2(b), f2(d), f2(n), f2(da), f2(na)]);
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
            let dn = sweep.run(p, "dn-perf").edp().min(sweep.run(p, "dn-energy").edp());
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
        ("flexible", "nf4", PointerScheme::flexible(cap, 128, 4)),
        ("256 frames/region", "nf4-r256", PointerScheme::restricted(cap, 128, 4, 256)),
        ("64 frames/region", "nf4-r64", PointerScheme::restricted(cap, 128, 4, 64)),
    ] {
        let mut g0 = 0.0;
        let mut rel_perf = Vec::new();
        for &p in &apps {
            let base_ipc = sweep.run(p, "base").ipc();
            let r = sweep.run(p, key);
            g0 += r.group_fracs()[0];
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
                    let c = &r.counters;
                    let per_ki = c.org.l2_energy.nj() * 1000.0 / c.core.instructions as f64;
                    let g0 = r.group_fracs().first().copied().unwrap_or(0.0);
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
    L2Kind::L4(Box::new(L2Kind::NuRapid(inner)), L4Config::tdram().with_resizes(resizes))
}

/// Digest keying a windowed transient run: the plain [`run_digest`]
/// (profile, configuration incl. resize schedule, scale, trace seed)
/// under a distinct domain tag, plus the window count — the same job
/// sliced into a different number of windows is a different run.
pub fn dram_digest(
    profile: &BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    n_windows: usize,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-dram-v1");
    h.write_digest(run_digest(profile, kind, scale));
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

impl Finished for DramRun {
    fn save(&self, e: &mut Encoder<'_>) {
        self.run.save(e);
        e.put_len(self.windows.len());
        for w in &self.windows {
            e.put_u32(w.n_banks);
            w.counters.save_state(e);
        }
    }

    fn load(d: &mut Decoder<'_>) -> Result<DramRun, SnapshotError> {
        let run = AppRun::load(d)?;
        let windows = (0..d.len()?)
            .map(|_| {
                Ok(TransientWindow {
                    n_banks: d.u32()?,
                    counters: Counters::load_state(d)?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        if windows.is_empty() {
            return Err(SnapshotError::Malformed("no window"));
        }
        Ok(DramRun { run, windows })
    }
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
        let sum: f64 = self.rows.iter().map(|(_, ws)| ws[w].memory_nj_per_ki()).sum();
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
/// study-specific domain tag, so full-window study runs never share a
/// results file with the plain estimates that
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
    let sampled = sampling::sampled_digest(profile, kind, scale, spec, intervals);
    h.write_digest(sampled);
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
    run.energy().total().nj() * 1000.0 / run.counters.core.instructions.max(1) as f64
}

/// Regenerates the error-vs-speedup study: full-detail baselines for
/// [`SAMPLING_KEYS`], then sampled estimates at every divisor, all on
/// the sweep's worker pool. The full baselines always run unsampled
/// ([`Sweep::run_full`]), so the study is meaningful even on a sweep
/// built with [`Sweep::with_sample`]. With a checkpoint store, each
/// application's sampled estimates run in lockstep groups
/// ([`sampling::run_group`]): every divisor samples the same period, so
/// its runs share window starts and snapshot points, and differ only in
/// window length.
pub fn sampling(sweep: &Sweep) -> SamplingStudy {
    let apps = sweep.apps().to_vec();
    let mut jobs = Jobs::default();
    for &key in &SAMPLING_KEYS {
        for &app in &apps {
            sweep.emit(&format!("{key}/{}", app.name), EventKind::Queued);
            jobs.run(move || drop(sweep.run_full(app, key)));
        }
    }
    for &divisor in &SAMPLING_DIVISORS {
        let spec = sampling_spec(sweep.scale, divisor);
        for &key in &SAMPLING_KEYS {
            for &app in &apps {
                let kind = sweep.wrap_l4(kind_of(key));
                let run = sampled_study_digest(&app, &kind, sweep.scale, spec, sweep.intervals);
                let finish = Box::new(move |group: Option<GroupRun<'_>>| {
                    drop(sweep.run_sampled_as(app, key, spec, group));
                });
                let member = Member {
                    run,
                    kind,
                    spec,
                    finish,
                };
                if sweep.plan_sampled(&mut jobs, &sweep.sampled_store, app, member) {
                    sweep.emit(&format!("sampled-{key}/{}", app.name), EventKind::Queued);
                }
            }
        }
    }
    jobs.execute(sweep);

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
            let ipc: Vec<f64> =
                runs.iter().map(|rs| geomean(rs.iter().map(|r| r.run.ipc()))).collect();
            let eki: Vec<f64> = runs
                .iter()
                .map(|rs| rs.iter().map(|r| energy_per_ki(&r.run)).sum::<f64>() / rs.len() as f64)
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
            .min_by(|a, b| (a.speedup - 20.0).abs().partial_cmp(&(b.speedup - 20.0).abs()).unwrap())
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
    use crate::sampling::tests::tiny_spec;
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
            a.group_fracs(),
            b.group_fracs(),
            "distinct promotion policies must not share a result"
        );
        // Same config under two different labels is still one run.
        let c = s.run_kind(app, "other-label", &L2Kind::NuRapid(NuRapidConfig::micro2003(4)));
        assert_eq!(s.runs(), 2);
        assert_eq!(*a, *c);
    }

    /// Every digest family, pinned byte for byte (galgel, [`Scale::quick`]):
    /// stored checkpoints and artifacts stay servable only while these
    /// hold. Only the designed warm-up twins (ideal NuRAPID, the D-NUCA
    /// policies) agree; the interval count keys sampled runs apart.
    #[test]
    #[rustfmt::skip]
    fn digests_are_pinned_and_pairwise_distinct() {
        use crate::cmp::{cmp_profiles, cmp_run_digest, cmp_warmup_digest};
        use crate::frontend::frontend_digest;
        use crate::sampling::{interval_digest, sampled_digest};
        let (app, s) = (by_name("galgel").unwrap(), Scale::quick());
        let (spec, nf4, sa4) = (SampleSpec::for_scale(s), kind_of("nf4"), kind_of("sa4"));
        let (cfg, apps) = (::cmp::CmpConfig::micro2003(4), cmp_profiles(4));
        let mut got = Vec::new();
        for (key, run, warmup) in [
            ("base", "ad60dedd8a6cdaec59283ecea6e469a7", "db1f9e4b4dff359ff3c2190933643ae2"),
            ("nf4", "7dd6d890c3fc1538b7139fa373b70615", "92c23196172b5607415e91b69f2c5818"),
            ("id4", "cb6ed0c2e85f6162f6c169fe62484ad4", "92c23196172b5607415e91b69f2c5818"),
            ("dm4", "190507c668182eb4b3b575e58f16066c", "3162d5b4246f9aa2c3b8c11c84f2abbf"),
            ("lru-nf", "c8cd0b7a657adb67fab5c164d176c9aa", "8498e22977e6485f4c50e864fb781319"),
            ("nf4-r64", "683f0da89969c1bda6300b3a4664431a", "7ba77cede689d8f0b9f93ab352398447"),
            ("sa4", "49237f508df83f2cb89017498b1f0899", "4cd2058ef72d6c9d73c23a0150b326d4"),
            ("dn-perf", "4d98fee0998e72d84688574c7d754514", "8e23d0238fd524dc8697733901a92267"),
            ("dn-memo", "052fc69a428cb02b4c1a636729831482", "8e23d0238fd524dc8697733901a92267"),
            ("cnuca", "fd819d181e32045f61b0e8f85073e22a", "ddf3af0cbde16c6ef77706874ada08b9"),
            ("dram", "b549330f0eb78c53f4728e6c1722a92e", "01fd7f062aec665718f4e3698ea347ba"),
        ] {
            let kind = if key == "dram" { dram_kind(s) } else { kind_of(key) };
            got.push((run_digest(&app, &kind, s), run));
            got.push((crate::runner::warmup_digest(&app, &kind, s), warmup));
        }
        got.extend([
            (cmp_run_digest(&cfg, &apps, &nf4, s), "12be64c21d564e7f0cfc45e824044b68"),
            (cmp_warmup_digest(&cfg, &apps, &nf4, s), "92d50e6f0970d89dfd266146bc12cfc9"),
            (sampled_digest(&app, &nf4, s, spec, 4), "241d61872c4fa91a61f112462826a163"),
            (sampled_digest(&app, &nf4, s, spec, 2), "ab0fbe605c4fa924e473b947af2e8925"),
            (interval_digest(&app, &nf4, s, 162_500), "83ad32a6ccbca9e3fc674d2f695bf865"),
            (dram_digest(&app, &dram_kind(s), s, 8), "430853f867fc71171cd793fe79221340"),
            (sampled_study_digest(&app, &sa4, s, sampling_spec(s, 10), 4), "c084bafb2695a5db27ee8b12663438bd"),
            (frontend_digest(&app, s.warmup, 128), "e839c9271f8f099376d5643471978676"),
        ]);
        for (i, (a, want)) in got.iter().enumerate() {
            assert_eq!(a.hex(), *want, "digest {i} moved");
            for (j, (b, _)) in got.iter().enumerate().skip(i + 1) {
                assert_eq!(a == b, [(3, 5), (15, 17)].contains(&(i, j)), "digests {i}, {j}");
            }
        }
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
    fn the_planner_runs_windows_of_threads_applications_key_by_key() {
        let [a, b, c] = ["galgel", "mcf", "swim"].map(|n| by_name(n).unwrap());
        let pairs = [
            (a, "nf4"),
            (b, "nf4"),
            (c, "nf4"),
            (a, "base"),
            (b, "base"),
            (c, "base"),
        ];
        let names = |order: Vec<(BenchProfile, &'static str)>| -> Vec<String> {
            order.iter().map(|(app, key)| format!("{key}/{}", app.name)).collect()
        };
        assert_eq!(
            names(planned(&pairs, 2)),
            [
                "nf4/galgel",
                "nf4/mcf",
                "base/galgel",
                "base/mcf",
                "nf4/swim",
                "base/swim"
            ]
        );
        assert_eq!(
            names(planned(&pairs, 1)),
            [
                "nf4/galgel",
                "base/galgel",
                "nf4/mcf",
                "base/mcf",
                "nf4/swim",
                "base/swim"
            ]
        );
        assert_eq!(names(planned(&pairs, 8)), names(pairs.to_vec()), "one window");
    }

    #[test]
    fn a_prefetch_records_each_front_end_once_and_keeps_none() {
        for threads in [1, 2] {
            let tel = Arc::new(Telemetry::with_params(16, 0));
            let s = tiny_sweep().with_threads(threads).with_telemetry(Arc::clone(&tel));
            s.prefetch_all(&["nf4", "dm4", "base"]);
            assert_eq!(tel.wall_events_in("warmup-frontend"), 2, "threads={threads}");
            assert_eq!(tel.wall_events_in("warmup-ff"), 6, "threads={threads}");
            assert_eq!(s.frontends.resident(), 0, "threads={threads}");
            // A run outside any plan records a front end of its own.
            let _ = s.run(by_name("galgel").unwrap(), "fs4");
            assert_eq!(tel.wall_events_in("warmup-frontend"), 3);
            assert_eq!(s.frontends.resident(), 0);
        }
    }

    /// A plan puts each application's sampled runs into lockstep groups of
    /// at most two, in order of planning and each at its first member's
    /// place, and plans a repeated run once.
    #[test]
    fn an_application_gets_a_group_per_two_members() {
        let [a, b] = ["galgel", "mcf"].map(|n| by_name(n).unwrap());
        let digest = |i: u64| {
            let mut h = Hasher128::new();
            h.write_u64(i);
            h.digest()
        };
        let member = |i: u64| Member {
            run: digest(i),
            kind: L2Kind::Base,
            spec: tiny_spec(),
            finish: Box::new(|_: Option<GroupRun<'_>>| {}),
        };
        let mut jobs = Jobs::default();
        let planned: Vec<bool> = [(a, 0), (b, 10), (a, 1), (a, 2), (a, 0), (a, 3), (a, 4)]
            .into_iter()
            .map(|(app, i)| jobs.join(app, member(i)))
            .collect();
        assert_eq!(planned, [true, true, true, true, false, true, true]);
        jobs.run(|| {});
        let shape: Vec<(&str, Vec<u128>)> = (jobs.0.iter())
            .map(|job| match job {
                Job::Group(app, members) => {
                    (app.name, members.iter().map(|m| m.run.raw()).collect())
                }
                Job::Run(_) => ("run", Vec::new()),
            })
            .collect();
        let runs = |is: &[u64]| is.iter().map(|&i| digest(i).raw()).collect::<Vec<_>>();
        assert_eq!(
            shape,
            [
                ("galgel", runs(&[0, 1])),
                ("mcf", runs(&[10])),
                ("galgel", runs(&[2, 3])),
                ("galgel", runs(&[4])),
                ("run", Vec::new()),
            ]
        );
    }

    /// A planned sampled sweep runs each application's sampled runs in
    /// lockstep groups of at most two, each publishing its members' chain,
    /// counts each (organization, point) once cold and warm, and leaves
    /// every blob and result as runs that each build their own chain do.
    #[test]
    fn a_sampled_prefetch_publishes_chains_of_at_most_two_members() {
        let keys = ["nf4", "base", "dn-perf", "sa4", "nf8"];
        let sampled = || tiny_sweep().with_sample(Some(tiny_spec())).with_intervals(3);
        let dir = |tag: &str| {
            let dir = std::env::temp_dir()
                .join(format!("simchk-exps-chain-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        // Unplanned: every run asks for its own chain.
        let alone = sampled().with_checkpoints(dir("alone")).expect("open store");
        let apps = alone.apps().to_vec();
        let want: Vec<_> = keys
            .iter()
            .flat_map(|&k| apps.iter().map(move |&a| (a, k)))
            .map(|(a, k)| alone.run(a, k))
            .collect();
        let points = (keys.len() * apps.len() * 3) as u64;
        let store = alone.checkpoints().expect("a store");
        assert_eq!((store.hits(), store.misses()), (0, points));
        for threads in [1, 2] {
            let shared = dir(&format!("shared{threads}"));
            for (pass, counts) in [("cold", (0, points)), ("warm", (points, 0))] {
                let tel = Arc::new(Telemetry::with_params(16, 0));
                let s = sampled()
                    .with_threads(threads)
                    .with_telemetry(Arc::clone(&tel))
                    .with_checkpoints(&shared)
                    .expect("open store");
                s.prefetch_all(&keys);
                let store = s.checkpoints().expect("a store");
                let at = format!("{pass}, threads={threads}");
                assert_eq!((store.hits(), store.misses()), counts, "{at}");
                // Five keys: two groups of two and a group of one per app,
                // each publishing its own chain.
                assert_eq!(tel.wall_events_in("sample-group"), 3 * apps.len(), "{at}");
                assert_eq!(tel.wall_events_in("sample-chain"), 3 * apps.len(), "{at}");
                assert_eq!(s.frontends.resident(), 0, "{at}");
                let got: Vec<_> = keys
                    .iter()
                    .flat_map(|&k| apps.iter().map(move |&a| (a, k)))
                    .map(|(a, k)| s.run(a, k))
                    .collect();
                assert_eq!(got, want, "{at}");
            }
            let blobs = |d: &std::path::Path| {
                let mut files: Vec<_> = std::fs::read_dir(d)
                    .expect("store dir")
                    .map(|e| e.expect("entry").path())
                    .collect();
                files.sort();
                files.iter().map(|f| std::fs::read(f).expect("blob")).collect::<Vec<_>>()
            };
            assert!(blobs(&shared) == blobs(store.dir()), "threads={threads}: blobs differ");
            let _ = std::fs::remove_dir_all(&shared);
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Each member of a stored sampled sweep's lockstep group reports an
    /// equal share of the group's wall time as its own, not the member
    /// that ran the group all of it and the others none.
    #[test]
    fn a_lockstep_groups_members_share_its_wall_time() {
        let events = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&events);
        let observer: Observer = Arc::new(move |e: &Event| log.lock().unwrap().push(e.clone()));
        let dir = std::env::temp_dir().join(format!("simchk-exps-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = (tiny_sweep().with_sample(Some(tiny_spec())).with_intervals(2))
            .with_threads(2)
            .with_observer(observer)
            .with_checkpoints(&dir)
            .expect("open store");
        s.prefetch_all(&["nf4", "base"]);
        let finished = |label: String| {
            let events = events.lock().unwrap();
            let done = events.iter().filter(|e| e.label == label).filter_map(|e| match e.kind {
                EventKind::Finished { outcome, wall_ns } => Some((outcome, wall_ns)),
                _ => None,
            });
            done.collect::<Vec<_>>()
        };
        for app in s.apps() {
            let nf4 = finished(format!("nf4/{}", app.name));
            let base = finished(format!("base/{}", app.name));
            assert_eq!(nf4.len(), 1, "{}", app.name);
            assert_eq!(nf4, base, "{}: the group's two members", app.name);
            assert_eq!(nf4[0].0, Outcome::Simulated, "{}", app.name);
            assert!(nf4[0].1 > 0, "{}", app.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
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
            d.avg_energy_per_ki(DRAM_SHRINK_WINDOW) > d.avg_energy_per_ki(DRAM_SHRINK_WINDOW - 1),
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
        let dir = std::env::temp_dir().join(format!("simchk-exps-dram-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            let s = tiny_sweep().with_checkpoints(&dir).expect("open checkpoint store");
            for (&p, b) in apps.iter().zip(&baseline) {
                assert_eq!(*s.run_dram(p), **b, "{pass} checkpoint store");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every result family resumes from the results store equal to its
    /// fresh run field for field, every organization energy bit for bit,
    /// while a `runs.jsonl` manifest left in the directory is not read.
    #[test]
    fn every_result_family_resumes_field_for_field() {
        let dir = std::env::temp_dir().join(format!("simres-exps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("results dir");
        std::fs::write(dir.join("runs.jsonl"), "{\"digest\":\"00\",\"app\":\"galgel\"}\n")
            .expect("plant an old manifest");
        let app = by_name("galgel").unwrap();
        let runs = |s: &Sweep| {
            let r = (
                s.run(app, "nf4"),
                s.run_cmp(2, "nf4"),
                s.run_dram(app),
                s.run_sampled(app, "nf4", tiny_spec()),
            );
            (r, s.simulated(), s.resumed())
        };
        let (fresh, simulated, resumed) = runs(&tiny_sweep().with_artifacts(&dir).expect("open"));
        assert_eq!((simulated, resumed), (4, 0), "the old manifest was read");
        let (again, simulated, resumed) = runs(&tiny_sweep().with_artifacts(&dir).expect("reopen"));
        assert_eq!((simulated, resumed), (0, 4));
        assert_eq!(fresh, again, "a resumed run differs from its fresh run");

        let bits = |c: &Counters| c.org.l2_energy.nj().to_bits();
        type Runs = (Arc<AppRun>, Arc<CmpRun>, Arc<DramRun>, Arc<SampledRun>);
        let energies = |(run, cmp, dram, sampled): &Runs| {
            let mut all = vec![
                bits(&run.counters),
                cmp.result.report.l2_energy.nj().to_bits(),
            ];
            all.push(bits(&dram.run.counters));
            all.extend(dram.windows.iter().map(|w| bits(&w.counters)));
            all.push(bits(&sampled.run.counters));
            all.extend(sampled.windows.iter().map(|w| bits(&w.counters)));
            all
        };
        assert_eq!(energies(&fresh), energies(&again));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("simchk-exps-sampled-{}", std::process::id()));
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
        let dir = std::env::temp_dir().join(format!("simart-exps-sampled-{}", std::process::id()));
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
            assert!(pair[1].speedup > pair[0].speedup, "speedup must grow with the divisor");
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
