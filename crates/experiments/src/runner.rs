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
//! ([`run_app_transient`]). Either way the result is a [`Counters`]
//! reading priced once into an [`AppRun`] ([`AppRun::from_counters`]).

use crate::checkpoint::CheckpointStore;
use crate::engine::{Counters, Phase};
use cpu::CoreResult;
use energy::EnergyTally;
use memsys::dramcache::{L4Config, L4DramCache, L4Stats};
use memsys::hierarchy::BaseHierarchy;
use memsys::org::Organization;
use nuca::{CnucaConfig, CompressedNucaCache, DnucaCache, DnucaConfig, SearchPolicy};
use nurapid::coupled::CoupledCache;
use nurapid::{DistanceVictimPolicy, NuRapidCache, NuRapidConfig, PromotionPolicy};
use simbase::digest::{Digest, Hasher128};
use simbase::EnergyNj;
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

    /// A fast scale for tests and the simkit benches.
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

/// Optional knobs of a run: warm-up mode, the checkpoint store, and the
/// wall-clock telemetry channel for phase spans.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// How to execute warm-up.
    pub mode: WarmupMode,
    /// Reuse/publish warm-up checkpoints through this store.
    pub checkpoints: Option<&'a CheckpointStore>,
    /// Record per-phase wall spans and checkpoint hit/miss marks (the
    /// non-deterministic `wall.json` channel only — never metrics).
    pub wall: Option<&'a Telemetry>,
}

impl L2Kind {
    /// The single construction seam of the plugin architecture: builds
    /// the concrete organization behind a `Box<dyn Organization>`. The
    /// rest of the runner — warm-up, checkpointing, the drain barrier,
    /// the measured loop, and the report — never names a concrete cache
    /// type, so a new organization only needs a variant here plus the
    /// two digest arms (DESIGN.md §12).
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
            L2Kind::Cnuca(cfg) => Box::new(CompressedNucaCache::new(*cfg)),
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
    /// op indices; part of [`run_digest`] but never [`warmup_digest`]
    /// (resizes happen strictly after the warm-up barrier).
    pub fn resize_schedule(&self) -> &[(u64, u32)] {
        match self {
            L2Kind::L4(_, cfg) => &cfg.resizes,
            _ => &[],
        }
    }

    /// Feeds every field of the configuration into `h`, discriminant
    /// first, so two organizations digest equal iff they simulate
    /// identically. This — not a label string — keys the run store and
    /// the on-disk artifacts.
    pub fn digest_into(&self, h: &mut Hasher128) {
        match self {
            L2Kind::Base => h.write_u8(0),
            L2Kind::NuRapid(c) => {
                h.write_u8(1);
                h.write_u64(c.capacity.bytes());
                h.write_u32(c.assoc);
                h.write_u64(c.n_dgroups as u64);
                h.write_u8(match c.promotion {
                    PromotionPolicy::DemotionOnly => 0,
                    PromotionPolicy::NextFastest => 1,
                    PromotionPolicy::Fastest => 2,
                });
                h.write_u8(match c.distance_victim {
                    DistanceVictimPolicy::Random => 0,
                    DistanceVictimPolicy::Lru => 1,
                    DistanceVictimPolicy::ClockApprox => 2,
                });
                h.write_u64(c.seed);
                h.write_bool(c.ideal);
                h.write_opt_u32(c.frames_per_region);
            }
            L2Kind::Coupled(n) => {
                h.write_u8(2);
                h.write_u64(*n as u64);
            }
            L2Kind::Dnuca(policy) => {
                h.write_u8(3);
                h.write_u8(match policy {
                    SearchPolicy::SsPerformance => 0,
                    SearchPolicy::SsEnergy => 1,
                    SearchPolicy::WayMemo => 2,
                });
            }
            L2Kind::Cnuca(c) => {
                h.write_u8(4);
                h.write_u64(c.capacity.bytes());
                h.write_u32(c.assoc);
                h.write_u64(c.n_banks as u64);
                h.write_u64(c.n_positions as u64);
                h.write_u64(c.comp_seed);
                h.write_u64(c.decomp_cycles);
            }
            L2Kind::L4(inner, c) => {
                h.write_u8(5);
                inner.digest_into(h);
                h.write_u32(c.n_banks);
                h.write_u64(c.bank_blocks);
                h.write_u32(c.assoc);
                h.write_u32(c.vnodes_per_bank);
                h.write_u64(c.hash_seed);
                h.write_u64(c.block_bytes);
                h.write_u64(c.tag_sram_latency);
                h.write_u64(c.tag_probe_latency);
                h.write_u64(c.base_latency);
                h.write_u64(c.cycles_per_8b);
                h.write_u32(c.tag_cache_entries);
                h.write_u64(c.resizes.len() as u64);
                for &(at, target) in &c.resizes {
                    h.write_u64(at);
                    h.write_u32(target);
                }
            }
        }
    }
}

/// Feeds every field of an application profile into `h`. Shared by the
/// single-core digests below and the CMP digests in [`crate::cmp`], so
/// the two families can never disagree about what identifies a workload.
pub(crate) fn digest_profile(h: &mut Hasher128, profile: &BenchProfile) {
    h.write_str(profile.name);
    h.write_u8(profile.class as u8);
    h.write_bool(profile.fp);
    h.write_f64(profile.load_frac);
    h.write_f64(profile.store_frac);
    h.write_u32(profile.branch_every);
    h.write_f64(profile.branch_bias);
    h.write_f64(profile.l1_reuse);
    h.write_u64(profile.hot_footprint.bytes());
    h.write_f64(profile.hot_frac);
    h.write_u64(profile.stream_footprint.bytes());
    h.write_u32(profile.spatial_run);
    h.write_f64(profile.dep_load_frac);
    h.write_u64(profile.code_footprint.bytes());
}

/// Digest of one schedulable job: the full application profile, the full
/// cache configuration, the instruction budget, and the trace seed.
/// Everything that determines an [`AppRun`] bit-for-bit is included, so
/// equal digests ⇒ interchangeable results (in-process or on disk).
pub fn run_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-run-v1");
    digest_profile(&mut h, profile);
    kind.digest_into(&mut h);
    h.write_u64(scale.warmup);
    h.write_u64(scale.measure);
    h.write_u64(TRACE_SEED);
    h.digest()
}

/// Digest of the warm-up-relevant slice of a job: everything that shapes
/// the architectural state at the end of warm-up, and nothing else. This
/// keys the on-disk checkpoint store, so two configurations that differ
/// only in timing knobs — NuRAPID's `ideal` latency mode, D-NUCA's search
/// policy — or in the measured-instruction budget share one checkpoint.
pub fn warmup_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-warmup-v1");
    digest_profile(&mut h, profile);
    digest_kind_architectural(&mut h, kind);
    h.write_u64(scale.warmup);
    h.write_u64(TRACE_SEED);
    h.write_u32(crate::checkpoint::CHECKPOINT_VERSION);
    h.digest()
}

/// Feeds the **architectural** slice of a configuration into `h`:
/// everything that shapes warm-up state, with timing-only knobs
/// deliberately excluded so their variants share one checkpoint. Shared
/// by [`warmup_digest`] and the CMP warm-up digest in [`crate::cmp`].
pub(crate) fn digest_kind_architectural(h: &mut Hasher128, kind: &L2Kind) {
    match kind {
        L2Kind::Base => h.write_u8(0),
        L2Kind::NuRapid(c) => {
            h.write_u8(1);
            h.write_u64(c.capacity.bytes());
            h.write_u32(c.assoc);
            h.write_u64(c.n_dgroups as u64);
            h.write_u8(match c.promotion {
                PromotionPolicy::DemotionOnly => 0,
                PromotionPolicy::NextFastest => 1,
                PromotionPolicy::Fastest => 2,
            });
            h.write_u8(match c.distance_victim {
                DistanceVictimPolicy::Random => 0,
                DistanceVictimPolicy::Lru => 1,
                DistanceVictimPolicy::ClockApprox => 2,
            });
            h.write_u64(c.seed);
            // `ideal` deliberately excluded: it changes only hit latency
            // and port occupancy, never an architectural transition.
            h.write_opt_u32(c.frames_per_region);
        }
        L2Kind::Coupled(n) => {
            h.write_u8(2);
            h.write_u64(*n as u64);
        }
        // The search policy is deliberately excluded: all three policies
        // take identical architectural transitions (hits, fills, bubble
        // swaps, memo-table updates) — only when timing starts differs.
        // The way memo is maintained under every policy precisely so this
        // sharing stays valid.
        L2Kind::Dnuca(_) => h.write_u8(3),
        L2Kind::Cnuca(c) => {
            h.write_u8(4);
            h.write_u64(c.capacity.bytes());
            h.write_u32(c.assoc);
            h.write_u64(c.n_banks as u64);
            h.write_u64(c.n_positions as u64);
            // The compressibility seed is architectural — it decides which
            // blocks may occupy the fast compressed ways, so warm-up state
            // depends on it. `decomp_cycles` is deliberately excluded: it
            // only delays hit completion, never an architectural
            // transition.
            h.write_u64(c.comp_seed);
        }
        L2Kind::L4(inner, c) => {
            h.write_u8(5);
            digest_kind_architectural(h, inner);
            // Geometry and hashing shape the warm resident set; the
            // latency knobs, the SRAM tag-cache size (timing-only), and
            // the resize schedule (measured-phase-only by construction)
            // are deliberately excluded so their variants share one
            // checkpoint.
            h.write_u32(c.n_banks);
            h.write_u64(c.bank_blocks);
            h.write_u32(c.assoc);
            h.write_u32(c.vnodes_per_bank);
            h.write_u64(c.hash_seed);
            h.write_u64(c.block_bytes);
        }
    }
}

/// The measured results of one application on one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Application name.
    pub name: &'static str,
    /// Measured-phase core results.
    pub core: CoreResult,
    /// L2 accesses during the measured phase.
    pub l2_accesses: u64,
    /// L2 misses during the measured phase.
    pub l2_misses: u64,
    /// Fraction of L2 accesses hitting each d-group / bank-position-MB
    /// (empty for the base hierarchy).
    pub group_fracs: Vec<f64>,
    /// Fraction of L2 accesses that missed.
    pub miss_frac: f64,
    /// Total data-array (d-group or bank) accesses including swap and
    /// search traffic (0 for the base hierarchy).
    pub dgroup_accesses: u64,
    /// Block movements (promotions + demotions or bubble swaps).
    pub swaps: u64,
    /// Dynamic L2 energy over the measured phase.
    pub l2_energy: EnergyNj,
    /// Full-system energy tally over the measured phase.
    pub energy: EnergyTally,
}

impl AppRun {
    /// Measured IPC.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// L2 accesses per kilo-instruction (Table 3's metric).
    pub fn apki(&self) -> f64 {
        1000.0 * self.l2_accesses as f64 / self.core.instructions.max(1) as f64
    }

    /// Energy-delay product (relative unit).
    pub fn edp(&self) -> f64 {
        self.energy.energy_delay(self.core.cycles)
    }
}

/// Runs `profile` on the organization `kind` at `scale` with telemetry
/// disabled (the common path; identical to
/// [`run_app_telemetry`] with a disabled sink).
pub fn run_app(profile: BenchProfile, kind: &L2Kind, scale: Scale) -> AppRun {
    run_app_telemetry(profile, kind, scale, &TelemetrySink::disabled(), 0)
}

/// Runs `profile` on the organization `kind` at `scale`, recording
/// metrics, cycle-stamped spans, and periodic progress snapshots (every
/// `snap_every` cycles) into `sink`. Warm-up telemetry is discarded when
/// the statistics reset, so the sink reflects the measured phase only —
/// the same window the printed tables report.
pub fn run_app_telemetry(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
) -> AppRun {
    run_app_opts(profile, kind, scale, sink, snap_every, RunOptions::default())
}

/// The full-fat entry point: [`run_app_telemetry`] plus the warm-up mode,
/// checkpoint store, and wall-clock channel of [`RunOptions`]. One
/// measured-phase window through the engine ([`Phase`]), identical for
/// every plugin.
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
    AppRun::from_counters(profile.name, &phase.counters())
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
    let (total, windows) = transient_counters(profile, kind, scale, n_windows, opts);
    (AppRun::from_counters(profile.name, &total), windows)
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

impl AppRun {
    /// Assembles the run from a measured phase's counters, priced once by
    /// [`Counters::price`]; the fractions are derived from the counts.
    pub fn from_counters(name: &'static str, c: &Counters) -> AppRun {
        AppRun {
            name,
            core: c.core.clone(),
            l2_accesses: c.org.l2_accesses,
            l2_misses: c.org.l2_misses,
            group_fracs: c.org.group_fracs(),
            miss_frac: c.org.miss_frac(),
            dgroup_accesses: c.org.dgroup_accesses,
            swaps: c.org.swaps,
            l2_energy: c.org.l2_energy,
            energy: c.price(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profiles::by_name;

    fn tiny() -> Scale {
        Scale {
            warmup: 30_000,
            measure: 60_000,
        }
    }

    #[test]
    fn base_run_produces_sane_numbers() {
        let r = run_app(by_name("applu").unwrap(), &L2Kind::Base, tiny());
        assert_eq!(r.core.instructions, 60_000);
        assert!(r.ipc() > 0.05 && r.ipc() < 8.0, "ipc={}", r.ipc());
        assert!(r.apki() > 1.0, "high-load app must reach the L2: {}", r.apki());
        assert!(r.energy.total().nj() > 0.0);
        assert!(r.group_fracs.is_empty());
    }

    #[test]
    fn nurapid_run_reports_group_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            tiny(),
        );
        assert_eq!(r.group_fracs.len(), 4);
        let total: f64 = r.group_fracs.iter().sum::<f64>() + r.miss_frac;
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1, got {total}");
        assert!(r.group_fracs[0] > 0.3, "galgel's 1-MB hot set is fast");
    }

    #[test]
    fn dnuca_run_reports_position_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::Dnuca(SearchPolicy::SsPerformance),
            tiny(),
        );
        assert_eq!(r.group_fracs.len(), 8);
        assert!(r.dgroup_accesses > r.l2_accesses, "multicast searches many banks");
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
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.l2_accesses, b.l2_accesses);
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
        let dir = std::env::temp_dir().join(format!(
            "simchk-runner-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        (dir, store)
    }

    #[test]
    fn checkpointed_runs_are_bit_identical_cold_and_warm() {
        let app = by_name("parser").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let sink = TelemetrySink::disabled();
        let direct = run_app_opts(app, &kind, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("cold-warm");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        let warm = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the result");
        assert_eq!(cold, warm, "warm store changed the result");

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
        assert_eq!((reopened.misses(), reopened.hits()), (0, 1));
        assert_eq!(direct, from_disk, "disk restore changed the result");
        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn warmup_digest_shares_across_timing_only_knobs() {
        let app = by_name("galgel").unwrap();
        let nf = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let id = L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_ideal());
        assert_eq!(warmup_digest(&app, &nf, tiny()), warmup_digest(&app, &id, tiny()));

        let perf = L2Kind::Dnuca(SearchPolicy::SsPerformance);
        let energy = L2Kind::Dnuca(SearchPolicy::SsEnergy);
        let memo = L2Kind::Dnuca(SearchPolicy::WayMemo);
        assert_eq!(
            warmup_digest(&app, &perf, tiny()),
            warmup_digest(&app, &energy, tiny())
        );
        // Way memoization only redirects the probe path; the memo table
        // is rebuilt from scratch after restore, so all three policies
        // share one warm checkpoint.
        assert_eq!(
            warmup_digest(&app, &perf, tiny()),
            warmup_digest(&app, &memo, tiny())
        );

        // The decompressor pipeline depth is pure timing: compressed
        // NUCA shares its warm state across `decomp_cycles` settings.
        let mut slow = CnucaConfig::micro2003();
        slow.decomp_cycles += 3;
        assert_eq!(
            warmup_digest(&app, &L2Kind::Cnuca(CnucaConfig::micro2003()), tiny()),
            warmup_digest(&app, &L2Kind::Cnuca(slow), tiny())
        );

        // The measured budget is warm-up-irrelevant too.
        let longer = Scale {
            warmup: tiny().warmup,
            measure: tiny().measure + 1,
        };
        assert_eq!(warmup_digest(&app, &nf, tiny()), warmup_digest(&app, &nf, longer));
    }

    #[test]
    fn warmup_digest_separates_architectural_knobs() {
        let app = by_name("galgel").unwrap();
        let nf = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let base = warmup_digest(&app, &nf, tiny());
        let shorter = Scale {
            warmup: tiny().warmup - 1,
            measure: tiny().measure,
        };
        let variants = [
            warmup_digest(&by_name("parser").unwrap(), &nf, tiny()),
            warmup_digest(&app, &L2Kind::Base, tiny()),
            warmup_digest(&app, &L2Kind::Coupled(4), tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsPerformance), tiny()),
            warmup_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(8)), tiny()),
            warmup_digest(
                &app,
                &L2Kind::NuRapid(
                    NuRapidConfig::micro2003(4).with_promotion(PromotionPolicy::Fastest),
                ),
                tiny(),
            ),
            warmup_digest(
                &app,
                &L2Kind::NuRapid(
                    NuRapidConfig::micro2003(4)
                        .with_distance_victim(DistanceVictimPolicy::Lru),
                ),
                tiny(),
            ),
            warmup_digest(&app, &nf, shorter),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "architectural variant {i} aliased the digest");
        }
    }

    /// Compressed NUCA's warm state depends on the compressibility map
    /// (placement follows it), so its digest must be disjoint from every
    /// baseline organization *and* from other compression seeds — a
    /// compressed-NUCA run may never be served a baseline checkpoint.
    #[test]
    fn warmup_digest_isolates_compressed_nuca() {
        let app = by_name("galgel").unwrap();
        let cnuca = L2Kind::Cnuca(CnucaConfig::micro2003());
        let base = warmup_digest(&app, &cnuca, tiny());
        let mut reseeded = CnucaConfig::micro2003();
        reseeded.comp_seed ^= 1;
        let variants = [
            warmup_digest(&app, &L2Kind::Base, tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsPerformance), tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::WayMemo), tiny()),
            warmup_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(4)), tiny()),
            warmup_digest(&app, &L2Kind::Cnuca(reseeded), tiny()),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the compressed-NUCA digest");
        }
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
        let dn = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::SsPerformance),
            tiny(),
            &sink,
            0,
            opts,
        );
        let cn = run_app_opts(
            app,
            &L2Kind::Cnuca(CnucaConfig::micro2003()),
            tiny(),
            &sink,
            0,
            opts,
        );
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
        let memo_warm = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::WayMemo),
            tiny(),
            &sink,
            0,
            opts,
        );
        assert_eq!(
            (store.misses(), store.hits()),
            (2, 1),
            "way memoization must warm-hit the D-NUCA checkpoint"
        );
        assert_eq!(memo_direct, memo_warm, "warm restore changed way-memo results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_digest_is_stable_and_total() {
        let app = by_name("galgel").unwrap();
        let k = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        assert_eq!(run_digest(&app, &k, tiny()), run_digest(&app, &k, tiny()));

        // Every axis of the job identity must move the digest.
        let base = run_digest(&app, &k, tiny());
        let variants = [
            run_digest(&by_name("wupwise").unwrap(), &k, tiny()),
            run_digest(&app, &L2Kind::Base, tiny()),
            run_digest(&app, &L2Kind::Coupled(4), tiny()),
            run_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsEnergy), tiny()),
            run_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(8)), tiny()),
            run_digest(&app, &k, Scale { warmup: 40_000, measure: 60_001 }),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the base digest");
        }
    }

    #[test]
    fn run_digest_separates_every_nurapid_knob() {
        use nurapid::{DistanceVictimPolicy, PromotionPolicy};
        let app = by_name("galgel").unwrap();
        let d = |c: NuRapidConfig| run_digest(&app, &L2Kind::NuRapid(c), tiny());
        let base = NuRapidConfig::micro2003(4);
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        let knobs = [
            d(base.clone().with_promotion(PromotionPolicy::DemotionOnly)),
            d(base.clone().with_promotion(PromotionPolicy::Fastest)),
            d(base.clone().with_distance_victim(DistanceVictimPolicy::Lru)),
            d(base.clone().with_distance_victim(DistanceVictimPolicy::ClockApprox)),
            d(base.clone().with_ideal()),
            d(base.clone().with_frames_per_region(256)),
            d(base.clone().with_frames_per_region(64)),
            d(reseeded),
        ];
        let baseline = d(base);
        for (i, k) in knobs.iter().enumerate() {
            assert_ne!(baseline, *k, "knob {i} not captured by the digest");
        }
        // And all knob variants are mutually distinct.
        for i in 0..knobs.len() {
            for j in i + 1..knobs.len() {
                assert_ne!(knobs[i], knobs[j], "knobs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn l4_digests_separate_the_tier_and_share_timing_knobs() {
        let app = by_name("galgel").unwrap();
        let inner = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let l4 = |c: L4Config| L2Kind::L4(Box::new(inner.clone()), c);
        let base = l4(L4Config::tdram());

        // Attaching an L4 is a different run and different warm state.
        assert_ne!(run_digest(&app, &inner, tiny()), run_digest(&app, &base, tiny()));
        assert_ne!(
            warmup_digest(&app, &inner, tiny()),
            warmup_digest(&app, &base, tiny())
        );

        // Geometry is architectural: it splits the warm-up digest.
        let mut small = L4Config::tdram();
        small.n_banks = 4;
        assert_ne!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &l4(small), tiny())
        );

        // Latency and tag-cache sizing are timing-only: their variants
        // share the warm checkpoint but stay distinct runs.
        let mut slow = L4Config::tdram();
        slow.base_latency += 20;
        slow.tag_cache_entries = 256;
        assert_eq!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &l4(slow.clone()), tiny())
        );
        assert_ne!(run_digest(&app, &base, tiny()), run_digest(&app, &l4(slow), tiny()));

        // The resize schedule applies to the measured phase only: it
        // enters the run digest but never the warm-up digest.
        let resized = l4(L4Config::tdram().with_resizes(vec![(1_000, 4)]));
        assert_eq!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &resized, tiny())
        );
        assert_ne!(run_digest(&app, &base, tiny()), run_digest(&app, &resized, tiny()));
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
