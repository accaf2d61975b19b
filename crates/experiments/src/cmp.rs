//! The CMP experiment: N cores with private L1s sharing one lower-level
//! organization, with per-bank contention and invalidation-lite sharing
//! (DESIGN.md §14).
//!
//! This module is the experiments-layer twin of the single-core
//! [`crate::runner`]: the same digest discipline (a run digest keying
//! the run store and the results store, a warm-up digest keying the
//! checkpoint store), the same construction seam ([`crate::runner::L2Kind::build`]),
//! the engine's one warm-up path and the organization's one drain
//! barrier — grown a core dimension through [`::cmp::CmpSystem`]. CMP
//! warm-up is always the functional fast-forward (see [`warmed`]), and
//! the measured phase always runs at full detail.

use crate::checkpoint::{load_app, Checkpointed, Finished};
use crate::engine;
use crate::report::{f2, pct, rel, TextTable};
use crate::runner::{L2Kind, RunOptions, Scale, TRACE_SEED};
use ::cmp::{CmpConfig, CmpResult, CmpSystem};
use cpu::CoreResult;
use memsys::org::OrgReport;
use simbase::digest::{Digest, Hasher128};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simtel::TelemetrySink;
use std::time::Instant;
use workloads::profiles::{self, BenchProfile};

/// Core counts the `cmp` experiment sweeps by default (the `--cores`
/// flag restricts a run to one of them).
pub const CMP_CORES: &[u32] = &[2, 4, 8];

/// Organizations the `cmp` experiment compares: the conventional base,
/// the flagship NuRAPID configuration, D-NUCA, and compressed NUCA.
pub const CMP_KEYS: &[&str] = &["base", "nf4", "dn-perf", "cnuca"];

/// The per-core application roster: core `i` runs the `i`-th high-load
/// application (cycled), so every core count gets a fixed, documented
/// mix that actually exercises the shared cache.
pub fn cmp_profiles(cores: u32) -> Vec<BenchProfile> {
    let hl: Vec<BenchProfile> = profiles::high_load().collect();
    (0..cores as usize).map(|i| hl[i % hl.len()]).collect()
}

/// The measured results of one CMP scenario: `cores` cores, each running
/// its rostered application, sharing the organization named by `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpRun {
    /// Configuration key (resolvable through [`crate::exps::kind_of`]).
    pub key: &'static str,
    /// Core count.
    pub cores: u32,
    /// Application name per core, in core order.
    pub apps: Vec<&'static str>,
    /// The front-end's measured results.
    pub result: CmpResult,
}

impl CmpRun {
    /// Arithmetic mean of the per-core IPCs.
    pub fn mean_ipc(&self) -> f64 {
        self.result.mean_ipc()
    }

    /// Jain's fairness index over per-core IPCs.
    pub fn fairness(&self) -> f64 {
        self.result.fairness()
    }

    /// Bank-conflict stall cycles per kilo-instruction.
    pub fn bank_stalls_per_ki(&self) -> f64 {
        self.result.bank_stalls_per_ki()
    }

    /// Cross-core L1 invalidations per kilo-instruction.
    pub fn invalidations_per_ki(&self) -> f64 {
        let instr: u64 = self.result.per_core.iter().map(|c| c.instructions).sum();
        1000.0 * self.result.invalidations.iter().sum::<u64>() as f64 / instr.max(1) as f64
    }

    /// Fraction of shared-cache accesses hitting the fastest d-group
    /// (0 for organizations without distance groups).
    pub fn fastest_frac(&self) -> f64 {
        self.result.report.group_fracs().first().copied().unwrap_or(0.0)
    }
}

impl Finished for CmpRun {
    fn save(&self, e: &mut Encoder<'_>) {
        let r = &self.result;
        e.put_u8_slice(self.key.as_bytes());
        e.put_u32(self.cores);
        for app in &self.apps {
            e.put_u8_slice(app.as_bytes());
        }
        for core in &r.per_core {
            core.save_state(e);
        }
        r.report.save_state(e);
        e.put_u64(r.bank_conflicts);
        e.put_u64(r.bank_stall_cycles);
        e.put_u64_slice(&r.per_core_bank_stalls);
        e.put_u64_slice(&r.invalidations);
    }

    /// Decodes a run whose key is one of [`CMP_KEYS`] and whose per-core
    /// vectors all hold `cores` entries.
    fn load(d: &mut Decoder<'_>) -> Result<CmpRun, SnapshotError> {
        let key = std::str::from_utf8(&d.u8_slice()?)
            .ok()
            .and_then(|k| CMP_KEYS.iter().copied().find(|&c| c == k))
            .ok_or(SnapshotError::Malformed("not a CMP configuration"))?;
        let cores = d.u32()?;
        if !(1..=8).contains(&cores) {
            return Err(SnapshotError::Malformed("CMP core count"));
        }
        let apps = (0..cores).map(|_| load_app(d)).collect::<Result<_, _>>()?;
        let per_core = (0..cores).map(|_| CoreResult::load_state(d)).collect::<Result<_, _>>()?;
        let report = OrgReport::load_state(d)?;
        let (bank_conflicts, bank_stall_cycles) = (d.u64()?, d.u64()?);
        let mut per_core_bank_stalls = vec![0; cores as usize];
        d.u64_slice_into(&mut per_core_bank_stalls)?;
        let mut invalidations = vec![0; cores as usize];
        d.u64_slice_into(&mut invalidations)?;
        Ok(CmpRun {
            key,
            cores,
            apps,
            result: CmpResult {
                per_core,
                report,
                bank_conflicts,
                bank_stall_cycles,
                per_core_bank_stalls,
                invalidations,
            },
        })
    }
}

/// Digest of one CMP job: every knob of the scenario, the per-core
/// profiles in core order, the organization, and the budget, plus the
/// seed. Keys the CMP run store and the results store.
pub fn cmp_run_digest(
    cfg: &CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-cmp-run-v1");
    h.write_knobs(cfg);
    h.write_u64(apps.len() as u64);
    apps.iter().for_each(|p| h.write_knobs(p));
    h.write_knobs(kind);
    h.write_knobs(&scale);
    h.write_u64(TRACE_SEED);
    h.digest()
}

/// Digest of the warm-up-relevant slice of a CMP job: the `Arch` knobs of
/// the same configurations. Core count and the shared-region knob shape
/// the per-core address streams and the sharer map; the bank queues are
/// timing-only, so their variants share one checkpoint.
pub fn cmp_warmup_digest(
    cfg: &CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-cmp-warmup-v1");
    h.write_arch_knobs(cfg);
    h.write_u64(apps.len() as u64);
    apps.iter().for_each(|p| h.write_arch_knobs(p));
    h.write_arch_knobs(kind);
    h.write_arch_knobs(&scale);
    h.write_u64(TRACE_SEED);
    h.write_u32(crate::checkpoint::CHECKPOINT_VERSION);
    h.digest()
}

/// The per-core share of an instruction budget `n` split evenly across
/// `cores`, at least one op, so a CMP run costs about as much as a
/// single-core run at the same scale.
pub fn per_core(n: u64, cores: u32) -> u64 {
    (n / u64::from(cores)).max(1)
}

impl Checkpointed for CmpSystem {
    fn save(&self, e: &mut Encoder<'_>) {
        self.save_state(e);
    }

    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        self.load_state(d)
    }
}

/// Builds the CMP system of `cfg` over `kind`, core `i` running
/// `apps[i]`, and warms it up through the engine's one warm-up path
/// (`engine::warm_up`, marked and timed under `label`): [`per_core`]
/// of `scale.warmup` fast-forward ops per core, or a restore from the
/// checkpoint store in `opts`. CMP warm-up is never timed: a timed
/// warm-up would interleave the cores by commit clock instead of
/// round-robin, so it would not be an oracle for this one.
pub fn warmed(
    label: &str,
    cfg: CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
    opts: RunOptions<'_>,
) -> CmpSystem {
    let unfilled = || CmpSystem::unfilled(cfg, kind.build(), apps, TRACE_SEED);
    let digest = cmp_warmup_digest(&cfg, apps, kind, scale);
    let ops = per_core(scale.warmup, cfg.cores);
    let warm = |sys: &mut CmpSystem, n| {
        sys.prefill();
        sys.warm_run(n);
    };
    engine::warm_up(unfilled, &opts, digest, label, "warmup-cmp", ops, warm)
}

/// Runs one CMP scenario: [`warmed`], across the drain barrier with
/// `sink` attached, then [`per_core`] of `scale.measure` measured ops per
/// core.
pub fn run_cmp_opts(
    key: &'static str,
    cores: u32,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
    opts: RunOptions<'_>,
) -> CmpRun {
    let cfg = CmpConfig::micro2003(cores);
    let apps = cmp_profiles(cores);
    let label = format!("cmp{cores}x/{key}");
    let mut sys = warmed(&label, cfg, &apps, kind, scale, opts);
    sys.drain_barrier(sink, snap_every);
    let t_measure = Instant::now();
    sys.run(per_core(scale.measure, cores));
    if let Some(w) = opts.wall {
        w.wall_span("measure", &label, t_measure.elapsed().as_nanos() as u64);
    }
    sys.record_telemetry(sink);
    CmpRun {
        key,
        cores,
        apps: apps.iter().map(|p| p.name).collect(),
        result: sys.finish(),
    }
}

/// The `cmp` experiment table: every core count × organization, with
/// per-core throughput, fairness, hit-distance, and contention columns.
#[derive(Debug, Clone)]
pub struct CmpTable {
    /// One completed scenario per (cores, config) pair, in display order.
    pub rows: Vec<CmpRun>,
}

/// Runs the `cmp` experiment over `cores_list` × [`CMP_KEYS`] on the
/// sweep's worker pool.
pub fn cmp_table(sweep: &crate::exps::Sweep, cores_list: &[u32]) -> CmpTable {
    let jobs: Vec<(u32, &'static str)> =
        cores_list.iter().flat_map(|&c| CMP_KEYS.iter().map(move |&k| (c, k))).collect();
    sweep.prefetch_cmp(&jobs);
    CmpTable {
        rows: jobs.iter().map(|&(c, k)| (*sweep.run_cmp(c, k)).clone()).collect(),
    }
}

impl CmpTable {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "cores",
            "config",
            "IPC/core",
            "fairness",
            "fastest",
            "L2 miss",
            "bank-stall/KI",
            "inv/KI",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.cores.to_string(),
                r.key.to_string(),
                rel(r.mean_ipc()),
                rel(r.fairness()),
                pct(r.fastest_frac()),
                pct(r.result.report.miss_frac()),
                f2(r.bank_stalls_per_ki()),
                f2(r.invalidations_per_ki()),
            ]);
        }
        format!(
            "CMP: cores sharing one organization (per-core budget, \
             10% shared region, 32 banks)\n{}",
            t.render()
        )
    }

    /// Machine-readable TSV form.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from(
            "exp\tcores\tconfig\tipc_per_core\tfairness\tfastest_frac\tmiss_frac\
             \tbank_stalls_per_ki\tinv_per_ki\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "cmp\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
                r.cores,
                r.key,
                r.mean_ipc(),
                r.fairness(),
                r.fastest_frac(),
                r.result.report.miss_frac(),
                r.bank_stalls_per_ki(),
                r.invalidations_per_ki(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::exps::kind_of;

    fn tiny() -> Scale {
        Scale {
            warmup: 24_000,
            measure: 32_000,
        }
    }

    #[test]
    fn profiles_are_fixed_and_high_load() {
        let p2 = cmp_profiles(2);
        let p8 = cmp_profiles(8);
        assert_eq!(p2.len(), 2);
        assert_eq!(p8.len(), 8);
        // The 2-core roster is a prefix of the 8-core roster.
        assert_eq!(p2[0].name, p8[0].name);
        assert_eq!(p2[1].name, p8[1].name);
        let names: Vec<_> = p8.iter().map(|p| p.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "8 cores get 8 distinct applications");
    }

    #[test]
    fn cmp_runs_are_deterministic_and_contend_at_eight_cores() {
        let kind = kind_of("nf4");
        let sink = TelemetrySink::disabled();
        let a = run_cmp_opts("nf4", 8, &kind, tiny(), &sink, 0, RunOptions::default());
        let b = run_cmp_opts("nf4", 8, &kind, tiny(), &sink, 0, RunOptions::default());
        assert_eq!(a, b);
        assert!(a.result.bank_conflicts > 0, "8 cores must show bank conflicts");
        assert!(a.bank_stalls_per_ki() > 0.0);
        assert_eq!(a.apps.len(), 8);
    }

    /// A stored CMP run decodes to itself; one whose core count disagrees
    /// with its per-core vectors, or whose key names no CMP configuration,
    /// is refused (the sweep then simulates the run again).
    #[test]
    fn malformed_cmp_payloads_are_refused() {
        let sink = TelemetrySink::disabled();
        let run = run_cmp_opts("nf4", 2, &kind_of("nf4"), tiny(), &sink, 0, RunOptions::default());
        let mut e = Encoder::new();
        run.save(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(CmpRun::load(&mut Decoder::new(&bytes)), Ok(run));
        // The key "nf4" is framed by its 8-byte length; the core count follows.
        let mut more_cores = bytes.clone();
        more_cores[11..15].copy_from_slice(&4u32.to_le_bytes());
        let mut other_key = bytes.clone();
        other_key[8..11].copy_from_slice(b"nf9");
        for bad in [more_cores, other_key] {
            assert!(CmpRun::load(&mut Decoder::new(&bad)).is_err());
        }
    }

    #[test]
    fn checkpointed_cmp_runs_are_bit_identical_cold_and_warm() {
        let kind = kind_of("nf4");
        let sink = TelemetrySink::disabled();
        let direct = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, RunOptions::default());

        let dir = std::env::temp_dir().join(format!("simchk-cmp-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, opts);
        let warm = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the CMP result");
        assert_eq!(cold, warm, "warm store changed the CMP result");

        // The ideal twin reuses the nf4 checkpoint (timing-only knob).
        let _id = run_cmp_opts("id4", 4, &kind_of("id4"), tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
