//! Full-system run machinery: one application through one lower-level
//! cache organization, with warm-up.
//!
//! Warm-up runs as a functional fast-forward by default
//! ([`WarmupMode::FastForward`]): every architectural effect — cache
//! fills, recency updates, distance placement, demotion chains,
//! predictor training — is applied, while port scheduling, latency math,
//! energy, and telemetry are skipped. The stats boundary is an explicit
//! drain barrier (DESIGN.md §11) that both warm-up modes cross
//! identically, which makes the measured phase bit-identical between
//! them and lets warm architectural state be checkpointed to disk
//! ([`crate::checkpoint::CheckpointStore`]) keyed by [`warmup_digest`].
//!
//! The phase machinery itself lives in [`crate::engine`]: this module
//! names the configurations and their digests, and drives the engine as
//! one window ([`run_app_opts`]) or as equal resize-transient windows
//! ([`run_app_transient`]). Either way the result is an [`AppRun`]: the
//! phase's [`Counters`], priced and turned into fractions on demand.

use crate::checkpoint::{load_app, CheckpointStore, Finished};
use crate::engine::{Counters, Phase};
use crate::frontend::Claim;
use energy::EnergyTally;
use memsys::dramcache::{L4Config, L4DramCache, L4Stats};
use memsys::hierarchy::BaseHierarchy;
use memsys::org::Organization;
use nuca::{CnucaConfig, DnucaCache, DnucaConfig, SearchPolicy};
use nurapid::coupled::CoupledCache;
use nurapid::{NuRapidCache, NuRapidConfig};
use simbase::digest::{Digest, Hasher128, Knob, KnobVisitor, Knobs, Tag};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simtel::{Telemetry, TelemetrySink};
use std::time::Instant;
use workloads::BenchProfile;

/// Seed of every run's trace generator (fixed: experiments vary the
/// cache organization, not the workload stream).
pub const TRACE_SEED: u64 = 0x5eed;

/// Which lower-level cache organization to simulate.
#[derive(Debug, Clone)]
pub enum L2Kind {
    /// Conventional 1-MB L2 + 8-MB L3 (the base case).
    Base,
    /// NuRAPID with the given configuration.
    NuRapid(NuRapidConfig),
    /// The Figure 4 set-associative-placement ablation with this many
    /// d-groups.
    Coupled(usize),
    /// D-NUCA with the given search policy.
    Dnuca(SearchPolicy),
    /// Compressed NUCA with the given configuration.
    Cnuca(CnucaConfig),
    /// Any of the above with an L4 DRAM-cache tier attached to its main
    /// memory (`--l4`; DESIGN.md §15).
    L4(Box<L2Kind>, L4Config),
}

/// Instruction budget for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up instructions (caches filled, statistics then reset) —
    /// the stand-in for the paper's 5 B-instruction fast-forward.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

impl Scale {
    /// The default reproduction scale (used for EXPERIMENTS.md): the
    /// paper's 5 B-instruction fast-forward at a 1000× scale-down, then
    /// 2 M measured instructions. Warm-up dominates just as it does in
    /// the paper, which is what the functional fast-forward and the
    /// checkpoint store are for.
    pub fn full() -> Self {
        Scale {
            warmup: 5_000_000,
            measure: 2_000_000,
        }
    }

    /// A fast scale for tests, `repro --quick` and the benchmark's workloads.
    pub fn quick() -> Self {
        Scale {
            warmup: 150_000,
            measure: 250_000,
        }
    }

    /// The billion-instruction scale (`--huge`). Only practical through
    /// the sampled runner ([`crate::sampling`]): a full detailed
    /// simulation of a billion instructions is wall-clock-prohibitive,
    /// while periodic sampling executes the bulk of it as a functional
    /// fast-forward and times only the measurement windows.
    pub fn huge() -> Self {
        Scale {
            warmup: 5_000_000,
            measure: 1_000_000_000,
        }
    }
}

/// How the warm-up phase executes. Both modes build bit-identical
/// architectural state (proven by the differential tests below and in
/// each cache crate), so the measured phase cannot tell them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupMode {
    /// Functional fast-forward (the default): apply every architectural
    /// effect while skipping port scheduling, latency math, energy
    /// accounting, and telemetry — the stand-in for the paper's
    /// 5 B-instruction functional fast-forward.
    #[default]
    FastForward,
    /// Full timing simulation during warm-up. Kept as the differential
    /// oracle for [`WarmupMode::FastForward`].
    Timed,
}

/// Optional knobs of a run: warm-up mode, the checkpoint store, the
/// wall-clock telemetry channel for phase spans, and the shared warm-up
/// front ends.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// How to execute warm-up.
    pub mode: WarmupMode,
    /// Reuse/publish warm-up checkpoints through this store.
    pub checkpoints: Option<&'a CheckpointStore>,
    /// Record per-phase wall spans and checkpoint hit/miss marks (the
    /// non-deterministic `wall.json` channel only — never metrics).
    pub wall: Option<&'a Telemetry>,
    /// A planned job's claim on its application's shared warm-up front
    /// ends, given up once the warm-up is over; without one, a functional
    /// warm-up records its own front end ([`crate::frontend`]).
    pub frontend: Option<&'a Claim<'a>>,
}

impl L2Kind {
    /// The single construction seam of the plugin architecture: builds
    /// the concrete organization behind a `Box<dyn Organization>`. The
    /// rest of the runner — warm-up, checkpointing, the drain barrier,
    /// the measured loop, and the report — never names a concrete cache
    /// type, so a new organization only needs a variant here plus one
    /// arm in the [`Knobs`] declaration below (DESIGN.md §12).
    pub fn build(&self) -> Box<dyn Organization> {
        match self {
            L2Kind::Base => {
                let mut h = BaseHierarchy::micro2003();
                let e = energy::l2::BaseLevelEnergies::micro2003();
                h.set_level_energies(e.l2_nj, e.l3_nj);
                Box::new(h)
            }
            L2Kind::NuRapid(cfg) => Box::new(NuRapidCache::new(cfg.clone())),
            L2Kind::Coupled(n) => Box::new(CoupledCache::micro2003(*n)),
            L2Kind::Dnuca(policy) => Box::new(DnucaCache::new(DnucaConfig::micro2003(*policy))),
            L2Kind::Cnuca(cfg) => Box::new(DnucaCache::compressed(*cfg)),
            L2Kind::L4(inner, cfg) => {
                let mut org = inner.build();
                org.main_memory_mut()
                    .expect("the L4 tier needs a DRAM-backed organization")
                    .attach_l4(L4DramCache::new(cfg.clone()));
                org
            }
        }
    }

    /// The measured-phase resize schedule of the L4 tier (empty for
    /// every other kind). Applied by the measured loop at the scheduled
    /// op indices.
    pub fn resize_schedule(&self) -> &[(u64, u32)] {
        match self {
            L2Kind::L4(_, cfg) => &cfg.resizes,
            _ => &[],
        }
    }
}

/// The discriminant first, then the variant's own configuration, so two
/// organizations digest equal iff they simulate identically.
impl Knobs for L2Kind {
    fn visit_knobs(&mut self, v: &mut KnobVisitor<'_>) {
        v(Tag::Arch, &mut Discriminant(self));
        match self {
            L2Kind::Base => {}
            L2Kind::NuRapid(c) => c.visit_knobs(v),
            L2Kind::Coupled(n_dgroups) => v(Tag::Arch, n_dgroups),
            L2Kind::Dnuca(policy) => policy.visit_knobs(v),
            L2Kind::Cnuca(c) => c.visit_knobs(v),
            L2Kind::L4(inner, c) => {
                inner.visit_knobs(v);
                c.visit_knobs(v);
            }
        }
    }
}

/// The variant as a knob, perturbed to the next variant's evaluated config.
struct Discriminant<'a>(&'a mut L2Kind);

impl Knob for Discriminant<'_> {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u8(match self.0 {
            L2Kind::Base => 0,
            L2Kind::NuRapid(_) => 1,
            L2Kind::Coupled(_) => 2,
            L2Kind::Dnuca(_) => 3,
            L2Kind::Cnuca(_) => 4,
            L2Kind::L4(..) => 5,
        });
    }

    fn perturb(&mut self) {
        *self.0 = match self.0 {
            L2Kind::Base => L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            L2Kind::NuRapid(_) => L2Kind::Coupled(4),
            L2Kind::Coupled(_) => L2Kind::Dnuca(SearchPolicy::SsPerformance),
            L2Kind::Dnuca(_) => L2Kind::Cnuca(CnucaConfig::micro2003()),
            L2Kind::Cnuca(_) => L2Kind::L4(Box::new(L2Kind::Base), L4Config::tdram()),
            L2Kind::L4(..) => L2Kind::Base,
        };
    }
}

simbase::knobs!(Scale {
    warmup: Tag::Arch,
    measure: Tag::Timing("the measured phase starts after the barrier"),
});

/// Digest of one schedulable job: every knob of the profile, the
/// organization, and the budget, plus the trace seed — everything that
/// determines an [`AppRun`] bit-for-bit.
pub fn run_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-run-v1");
    h.write_knobs(profile);
    h.write_knobs(kind);
    h.write_knobs(&scale);
    h.write_u64(TRACE_SEED);
    h.digest()
}

/// Digest keying a job's warm-up checkpoint: the [`Tag::Arch`] knobs of
/// the same configurations, the trace seed, and the checkpoint version,
/// so configurations that differ only in [`Tag::Timing`] knobs share it.
pub fn warmup_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-warmup-v1");
    h.write_arch_knobs(profile);
    h.write_arch_knobs(kind);
    h.write_arch_knobs(&scale);
    h.write_u64(TRACE_SEED);
    h.write_u32(crate::checkpoint::CHECKPOINT_VERSION);
    h.digest()
}

/// The measured results of one application on one organization: the
/// measured phase's exact [`Counters`]. Every rendered float is derived
/// from them on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Application name.
    pub name: &'static str,
    /// Every counter of the measured phase.
    pub counters: Counters,
}

impl AppRun {
    /// Measured IPC.
    pub fn ipc(&self) -> f64 {
        self.counters.core.ipc()
    }

    /// L2 accesses per kilo-instruction (Table 3's metric).
    pub fn apki(&self) -> f64 {
        let c = &self.counters;
        1000.0 * c.org.l2_accesses as f64 / c.core.instructions.max(1) as f64
    }

    /// Fraction of L2 accesses hitting each d-group / bank-position-MB
    /// (empty for the base hierarchy).
    pub fn group_fracs(&self) -> Vec<f64> {
        self.counters.org.group_fracs()
    }

    /// Fraction of L2 accesses that missed.
    pub fn miss_frac(&self) -> f64 {
        self.counters.org.miss_frac()
    }

    /// Full-system energy tally over the measured phase.
    pub fn energy(&self) -> EnergyTally {
        self.counters.price()
    }

    /// Energy-delay product (relative unit).
    pub fn edp(&self) -> f64 {
        self.energy().energy_delay(self.counters.core.cycles)
    }
}

impl Finished for AppRun {
    fn save(&self, e: &mut Encoder<'_>) {
        e.put_u8_slice(self.name.as_bytes());
        self.counters.save_state(e);
    }

    fn load(d: &mut Decoder<'_>) -> Result<AppRun, SnapshotError> {
        Ok(AppRun {
            name: load_app(d)?,
            counters: Counters::load_state(d)?,
        })
    }
}

/// Runs `profile` on the organization `kind` at `scale` with telemetry
/// disabled and the default [`RunOptions`] (the common path).
pub fn run_app(profile: BenchProfile, kind: &L2Kind, scale: Scale) -> AppRun {
    run_app_opts(profile, kind, scale, &TelemetrySink::disabled(), 0, RunOptions::default())
}

/// The full-fat entry point: runs `profile` on the organization `kind`
/// at `scale`, recording metrics, cycle-stamped spans, and periodic
/// progress snapshots (every `snap_every` cycles) into `sink`, with the
/// warm-up mode, checkpoint store, and wall-clock channel of
/// [`RunOptions`]. Warm-up telemetry is discarded at the drain barrier,
/// so the sink reflects the measured phase only — the same window the
/// printed tables report. One measured-phase window through the engine
/// ([`Phase`]), identical for every plugin.
pub fn run_app_opts(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
    opts: RunOptions<'_>,
) -> AppRun {
    let mut phase = Phase::warmed(profile, kind, scale, sink, snap_every, opts);
    let t_measure = Instant::now();
    phase.run_to(scale.measure);
    if let Some(w) = opts.wall {
        w.wall_span("measure", profile.name, t_measure.elapsed().as_nanos() as u64);
    }
    AppRun {
        name: profile.name,
        counters: phase.counters(),
    }
}

/// One window of a resize-transient run: the measured phase is split
/// into equal instruction windows and the per-window rates expose the
/// IPC/energy dip at each resize event and the recovery after it.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientWindow {
    /// Counters over this window.
    pub counters: Counters,
    /// Live L4 bank count at the end of the window.
    pub n_banks: u32,
}

impl TransientWindow {
    /// Window IPC.
    pub fn ipc(&self) -> f64 {
        self.counters.core.ipc()
    }

    /// L4 events over this window.
    pub fn l4(&self) -> L4Stats {
        self.counters.l4.unwrap_or_default()
    }

    /// L4 hit rate over this window.
    pub fn l4_hit_rate(&self) -> f64 {
        let l4 = self.l4();
        l4.hits as f64 / l4.accesses.max(1) as f64
    }

    /// Memory-tier (L4 + DRAM) energy per kilo-instruction (nJ/KI).
    pub fn memory_nj_per_ki(&self) -> f64 {
        let nj = self.counters.price().memory.nj();
        nj * 1000.0 / self.counters.core.instructions as f64
    }
}

/// Runs `profile` on `kind` like [`run_app_opts`], but slices the
/// measured phase into `n_windows` equal instruction windows and
/// records per-window IPC, L4 traffic, bank count, and memory energy —
/// the `dram` experiment's resize-transient data. The access stream,
/// resize application, and final [`AppRun`] are bit-identical to an
/// unwindowed run of the same configuration (windowing only reads
/// counters between instructions).
pub fn run_app_transient(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    n_windows: usize,
    opts: RunOptions<'_>,
) -> (AppRun, Vec<TransientWindow>) {
    let (counters, windows) = transient_counters(profile, kind, scale, n_windows, opts);
    let run = AppRun {
        name: profile.name,
        counters,
    };
    (run, windows)
}

/// The windows of [`run_app_transient`] plus the whole measured phase's
/// [`Counters`].
pub(crate) fn transient_counters(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    n_windows: usize,
    opts: RunOptions<'_>,
) -> (Counters, Vec<TransientWindow>) {
    assert!(n_windows > 0, "a transient run needs at least one window");
    let mut phase = Phase::warmed(profile, kind, scale, &TelemetrySink::disabled(), 0, opts);
    let n = n_windows as u64;
    let windows = (1..=n)
        .map(|w| TransientWindow {
            counters: phase.window(scale.measure * w / n - phase.done()),
            n_banks: phase.l4_banks(),
        })
        .collect();
    (phase.counters(), windows)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use workloads::profiles::by_name;

    pub(crate) fn tiny() -> Scale {
        Scale {
            warmup: 30_000,
            measure: 60_000,
        }
    }

    #[test]
    fn base_run_produces_sane_numbers() {
        let r = run_app(by_name("applu").unwrap(), &L2Kind::Base, tiny());
        assert_eq!(r.counters.core.instructions, 60_000);
        assert!(r.ipc() > 0.05 && r.ipc() < 8.0, "ipc={}", r.ipc());
        assert!(r.apki() > 1.0, "high-load app must reach the L2: {}", r.apki());
        assert!(r.energy().total().nj() > 0.0);
        assert!(r.group_fracs().is_empty());
    }

    #[test]
    fn nurapid_run_reports_group_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            tiny(),
        );
        let fracs = r.group_fracs();
        assert_eq!(fracs.len(), 4);
        let total: f64 = fracs.iter().sum::<f64>() + r.miss_frac();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1, got {total}");
        assert!(fracs[0] > 0.3, "galgel's 1-MB hot set is fast");
    }

    #[test]
    fn dnuca_run_reports_position_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::Dnuca(SearchPolicy::SsPerformance),
            tiny(),
        );
        assert_eq!(r.group_fracs().len(), 8);
        let org = &r.counters.org;
        assert!(org.dgroup_accesses > org.l2_accesses, "multicast searches many banks");
    }

    #[test]
    fn low_load_app_rarely_reaches_l2() {
        let r = run_app(by_name("wupwise").unwrap(), &L2Kind::Base, tiny());
        assert!(r.apki() < 15.0, "low-load apki={}", r.apki());
    }

    #[test]
    fn deterministic_across_runs() {
        let k = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let a = run_app(by_name("parser").unwrap(), &k, tiny());
        let b = run_app(by_name("parser").unwrap(), &k, tiny());
        assert_eq!(a.counters.core.cycles, b.counters.core.cycles);
        assert_eq!(a.counters.org.l2_accesses, b.counters.org.l2_accesses);
    }

    /// The tentpole differential: for every organization, a functional
    /// fast-forward warm-up and a full-timing warm-up produce the same
    /// [`AppRun`] bit for bit (both cross the identical drain barrier,
    /// so only the architectural state could differ — and it doesn't).
    #[test]
    fn fast_forward_and_timed_warmup_agree_bit_for_bit() {
        let app = by_name("galgel").unwrap();
        let kinds = [
            L2Kind::Base,
            L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            L2Kind::Coupled(4),
            L2Kind::Dnuca(SearchPolicy::SsPerformance),
        ];
        let sink = TelemetrySink::disabled();
        for kind in &kinds {
            let ff = run_app_opts(
                app,
                kind,
                tiny(),
                &sink,
                0,
                RunOptions {
                    mode: WarmupMode::FastForward,
                    ..Default::default()
                },
            );
            let timed = run_app_opts(
                app,
                kind,
                tiny(),
                &sink,
                0,
                RunOptions {
                    mode: WarmupMode::Timed,
                    ..Default::default()
                },
            );
            assert_eq!(ff, timed, "warm-up modes diverged for {kind:?}");
        }
    }

    fn temp_store(name: &str) -> (std::path::PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!("simchk-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        (dir, store)
    }

    #[test]
    fn checkpointed_runs_are_bit_identical_cold_and_warm() {
        let app = by_name("parser").unwrap();
        let sink = TelemetrySink::disabled();
        // One configuration per organization family: the base hierarchy,
        // NuRAPID under two promotion policies, the coupled ablation, and
        // D-NUCA.
        for key in ["base", "dm4", "nf4", "sa4", "dn-energy"] {
            let kind = crate::exps::kind_of(key);
            let direct = run_app_opts(app, &kind, tiny(), &sink, 0, RunOptions::default());

            let (dir, store) = temp_store(&format!("cold-warm-{key}"));
            let opts = RunOptions {
                checkpoints: Some(&store),
                ..Default::default()
            };
            let cold = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
            let warm = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
            assert_eq!((store.misses(), store.hits()), (1, 1), "{key}");
            assert_eq!(direct, cold, "{key}: cold store changed the result");
            assert_eq!(cold, warm, "{key}: warm store changed the result");

            // A fresh store over the same directory restores from disk.
            let reopened = CheckpointStore::open(&dir).expect("reopen");
            let from_disk = run_app_opts(
                app,
                &kind,
                tiny(),
                &sink,
                0,
                RunOptions {
                    checkpoints: Some(&reopened),
                    ..Default::default()
                },
            );
            assert_eq!((reopened.misses(), reopened.hits()), (0, 1), "{key}");
            assert_eq!(direct, from_disk, "{key}: disk restore changed the result");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `ideal` is a timing-only knob, so the ideal configuration reuses
    /// the checkpoint its non-ideal twin built — and still reproduces its
    /// own numbers exactly.
    #[test]
    fn ideal_config_reuses_twin_checkpoint_without_changing_results() {
        let app = by_name("galgel").unwrap();
        let nf = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let id = L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_ideal());
        let sink = TelemetrySink::disabled();
        let id_direct = run_app_opts(app, &id, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("ideal-twin");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let _nf = run_app_opts(app, &nf, tiny(), &sink, 0, opts);
        let id_chk = run_app_opts(app, &id, tiny(), &sink, 0, opts);
        assert_eq!(
            (store.misses(), store.hits()),
            (1, 1),
            "ideal must share its twin's checkpoint"
        );
        assert_eq!(id_direct, id_chk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Store-level proof of the same property: running D-NUCA and then
    /// compressed NUCA against one [`CheckpointStore`] must build two
    /// separate checkpoints (2 misses, 0 cross-hits), while the way-memo
    /// policy warm-hits the checkpoint its sibling policy built.
    #[test]
    fn compressed_nuca_never_serves_a_baseline_checkpoint() {
        let app = by_name("parser").unwrap();
        let sink = TelemetrySink::disabled();
        let (dir, store) = temp_store("cnuca-isolation");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let dn =
            run_app_opts(app, &L2Kind::Dnuca(SearchPolicy::SsPerformance), tiny(), &sink, 0, opts);
        let cn =
            run_app_opts(app, &L2Kind::Cnuca(CnucaConfig::micro2003()), tiny(), &sink, 0, opts);
        assert_eq!(
            (store.misses(), store.hits()),
            (2, 0),
            "compressed NUCA must not share a baseline warm checkpoint"
        );
        assert_ne!(dn, cn, "organizations with distinct placement agreed exactly");

        // The memo policy reuses the D-NUCA checkpoint and still
        // reproduces its uncheckpointed numbers bit for bit.
        let memo_direct = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::WayMemo),
            tiny(),
            &sink,
            0,
            RunOptions::default(),
        );
        let memo_warm =
            run_app_opts(app, &L2Kind::Dnuca(SearchPolicy::WayMemo), tiny(), &sink, 0, opts);
        assert_eq!(
            (store.misses(), store.hits()),
            (2, 1),
            "way memoization must warm-hit the D-NUCA checkpoint"
        );
        assert_eq!(memo_direct, memo_warm, "warm restore changed way-memo results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn l4_checkpointed_runs_are_bit_identical_cold_and_warm() {
        let app = by_name("parser").unwrap();
        let inner = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let kind = L2Kind::L4(
            Box::new(inner.clone()),
            L4Config::tdram().with_resizes(vec![(tiny().measure / 2, 4)]),
        );
        let sink = TelemetrySink::disabled();
        let direct = run_app_opts(app, &kind, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("l4-cold-warm");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        let warm = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the result");
        assert_eq!(cold, warm, "warm store changed the result");

        // The L4-enabled blob never serves the L4-free twin: the inner
        // organization builds (and reuses) its own checkpoint.
        let plain_direct = run_app_opts(app, &inner, tiny(), &sink, 0, RunOptions::default());
        let plain = run_app_opts(app, &inner, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (2, 1));
        assert_eq!(plain_direct, plain, "L4-free twin changed under the shared store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
