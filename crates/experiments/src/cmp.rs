//! The CMP experiment: N cores with private L1s sharing one lower-level
//! organization, with per-bank contention and invalidation-lite sharing
//! (DESIGN.md §14).
//!
//! This module is the experiments-layer twin of the single-core
//! [`crate::runner`]: the same digest discipline (a run digest keying
//! the run store and artifacts, a warm-up digest keying the checkpoint
//! store), the same drain-barrier phase structure, the same
//! construction seam ([`crate::runner::L2Kind::build`]) — grown a core
//! dimension through [`::cmp::CmpSystem`]. CMP warm-up is always the
//! functional fast-forward (there is no timed-warm-up oracle for the
//! multi-core front-end; the sharing model is architectural on both
//! paths by construction, see `crates/cmp`).

use crate::engine;
use crate::report::{f2, pct, rel, TextTable};
use crate::runner::{
    digest_kind_architectural, digest_profile, L2Kind, RunOptions, Scale, TRACE_SEED,
};
use crate::sampling::SampleSpec;
use ::cmp::{CmpConfig, CmpResult, CmpSystem};
use simbase::digest::{Digest, Hasher128};
use simbase::snapshot::{Decoder, Encoder};
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
        self.result
            .report
            .group_fracs()
            .first()
            .copied()
            .unwrap_or(0.0)
    }
}

/// Digest of one CMP job: the full scenario configuration, every
/// per-core profile in core order, the full organization configuration,
/// the budget, and the seed — everything that determines a [`CmpRun`]
/// bit-for-bit. Keys the CMP run store and the on-disk artifacts.
pub fn cmp_run_digest(
    cfg: &CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-cmp-run-v1");
    h.write_u32(cfg.cores);
    h.write_u32(cfg.shared_milli);
    h.write_u64(cfg.n_banks as u64);
    h.write_u64(cfg.bank.service_cycles);
    h.write_u64(cfg.bank.max_delay);
    h.write_u64(apps.len() as u64);
    for p in apps {
        digest_profile(&mut h, p);
    }
    kind.digest_into(&mut h);
    h.write_u64(scale.warmup);
    h.write_u64(scale.measure);
    h.write_u64(TRACE_SEED);
    h.digest()
}

/// Digest of the warm-up-relevant slice of a CMP job. Core count and
/// the shared-region knob are architectural (they shape the per-core
/// address streams and the sharer map); the bank queue model is
/// timing-only state that never runs on the warm path, so bank count
/// and bandwidth are deliberately excluded — exactly as the single-core
/// digest excludes `ideal` and the D-NUCA search policy.
pub fn cmp_warmup_digest(
    cfg: &CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-cmp-warmup-v1");
    h.write_u32(cfg.cores);
    h.write_u32(cfg.shared_milli);
    h.write_u64(apps.len() as u64);
    for p in apps {
        digest_profile(&mut h, p);
    }
    digest_kind_architectural(&mut h, kind);
    h.write_u64(scale.warmup);
    h.write_u64(TRACE_SEED);
    h.write_u32(crate::checkpoint::CHECKPOINT_VERSION);
    h.digest()
}

/// Digest of one **sampled** CMP job: the plain [`cmp_run_digest`]
/// under a distinct domain tag plus the sampling regime, so a sampled
/// scenario can never alias its unsampled twin (or a different regime)
/// in the run store or on disk. Sampled CMP runs are never split into
/// intervals (the multi-core trace interleaving is resolved inside one
/// [`CmpSystem`]), so no interval count is folded.
pub fn cmp_sampled_digest(
    cfg: &CmpConfig,
    apps: &[BenchProfile],
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-cmp-sampled-v1");
    let raw = cmp_run_digest(cfg, apps, kind, scale).raw();
    h.write_u64((raw >> 64) as u64);
    h.write_u64(raw as u64);
    spec.digest_into(&mut h);
    h.digest()
}

/// Runs one CMP scenario. The instruction budget is split evenly across
/// cores (`scale.warmup / cores` warm-up and `scale.measure / cores`
/// measured ops per core), so a CMP run costs about as much as a
/// single-core run at the same scale. With a checkpoint store the warm
/// state goes through an encoded blob on both the build and the reuse
/// path, mirroring the single-core runner's cold/warm structural
/// identity.
///
/// With `sample`, the measured phase alternates short detailed windows
/// with functional fast-forward, exactly like the single-core sampled
/// runner — the regime is scaled to the per-core budget (period, window
/// warm-up, and window measure all divide by the core count), the
/// per-window pipeline warm-up runs detailed and stays in the counters
/// (subtracting it would change every sampled-CMP result, so it stays;
/// ratio metrics are unaffected beyond the sampling error the regime
/// already carries), and the checkpoint digest is unchanged — sampled
/// and unsampled CMP runs share warm-up checkpoints.
pub fn run_cmp_opts(
    key: &'static str,
    cores: u32,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
    opts: RunOptions<'_>,
    sample: Option<SampleSpec>,
) -> CmpRun {
    let cfg = CmpConfig::micro2003(cores);
    let apps = cmp_profiles(cores);
    let per_core_warm = (scale.warmup / u64::from(cores)).max(1);
    let per_core_measure = (scale.measure / u64::from(cores)).max(1);
    let mut sys = CmpSystem::new(cfg, kind.build(), &apps, TRACE_SEED);
    let label = format!("cmp{cores}x/{key}");

    let t_warm = Instant::now();
    let chk = cmp_warmup_digest(&cfg, &apps, kind, scale);
    match engine::checkpoint(&opts, chk, &label, || {
        sys.warm_run(per_core_warm);
        let mut e = Encoder::new();
        sys.save_state(&mut e);
        e.into_bytes()
    }) {
        Some(blob) => {
            let mut d = Decoder::new(&blob);
            sys.load_state(&mut d).expect("cmp checkpoint: state");
            d.finish().expect("cmp checkpoint: trailing bytes");
        }
        None => sys.warm_run(per_core_warm),
    }
    if let Some(w) = opts.wall {
        let name = format!("{label}/{per_core_warm}-ops");
        w.wall_span("warmup-cmp", &name, t_warm.elapsed().as_nanos() as u64);
    }

    sys.drain_barrier(sink, snap_every);

    let t_measure = Instant::now();
    match sample {
        None => sys.run(per_core_measure),
        Some(spec) => {
            // The per-core regime: every knob divides by the core count
            // (floored to 1), mirroring the per-core budget split.
            let pc = SampleSpec {
                period: (spec.period / u64::from(cores)).max(1),
                warmup: (spec.warmup / u64::from(cores)).max(1),
                measure: (spec.measure / u64::from(cores)).max(1),
            };
            let detailed = pc.detailed_per_window().min(pc.period);
            let windows = (per_core_measure / pc.period).max(1);
            let mut done = 0;
            for w in 0..windows {
                sys.run(detailed);
                if let Some(t) = opts.wall {
                    t.wall_mark("sample-window", &format!("{label}/w{w}"));
                }
                sys.warm_run(pc.period - detailed);
                done += pc.period;
            }
            // The budget's tail (a partial period) runs functionally.
            sys.warm_run(per_core_measure.saturating_sub(done));
        }
    }
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
    let jobs: Vec<(u32, &'static str)> = cores_list
        .iter()
        .flat_map(|&c| CMP_KEYS.iter().map(move |&k| (c, k)))
        .collect();
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

/// Resolves a configuration name from an artifact payload back to its
/// `'static` key, or `None` for a name outside [`CMP_KEYS`] (the caller
/// then re-simulates).
pub(crate) fn key_of(name: &str) -> Option<&'static str> {
    CMP_KEYS.iter().copied().find(|&k| k == name)
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
    fn run_digest_separates_every_cmp_knob() {
        let kind = kind_of("nf4");
        let cfg = CmpConfig::micro2003(4);
        let apps = cmp_profiles(4);
        let base = cmp_run_digest(&cfg, &apps, &kind, tiny());
        assert_eq!(base, cmp_run_digest(&cfg, &apps, &kind, tiny()), "stable");

        let mut shared = cfg;
        shared.shared_milli = 200;
        let mut banks = cfg;
        banks.n_banks = 16;
        let mut bw = cfg;
        bw.bank.service_cycles += 1;
        let mut bound = cfg;
        bound.bank.max_delay += 1;
        let variants = [
            cmp_run_digest(&CmpConfig::micro2003(8), &cmp_profiles(8), &kind, tiny()),
            cmp_run_digest(&shared, &apps, &kind, tiny()),
            cmp_run_digest(&banks, &apps, &kind, tiny()),
            cmp_run_digest(&bw, &apps, &kind, tiny()),
            cmp_run_digest(&bound, &apps, &kind, tiny()),
            cmp_run_digest(&cfg, &apps, &kind_of("base"), tiny()),
            cmp_run_digest(
                &cfg,
                &apps,
                &kind,
                Scale {
                    warmup: tiny().warmup,
                    measure: tiny().measure + 1,
                },
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the CMP run digest");
        }
    }

    #[test]
    fn warmup_digest_shares_timing_only_knobs_and_separates_the_rest() {
        let kind = kind_of("nf4");
        let cfg = CmpConfig::micro2003(4);
        let apps = cmp_profiles(4);
        let base = cmp_warmup_digest(&cfg, &apps, &kind, tiny());

        // Bank count and bandwidth are timing-only: one warm checkpoint.
        let mut banks = cfg;
        banks.n_banks = 16;
        banks.bank.max_delay = 8;
        assert_eq!(base, cmp_warmup_digest(&banks, &apps, &kind, tiny()));
        // The `ideal` twin and the D-NUCA policies share too, exactly as
        // in the single-core digest.
        assert_eq!(base, cmp_warmup_digest(&cfg, &apps, &kind_of("id4"), tiny()));
        assert_eq!(
            cmp_warmup_digest(&cfg, &apps, &kind_of("dn-perf"), tiny()),
            cmp_warmup_digest(&cfg, &apps, &kind_of("dn-memo"), tiny()),
        );
        // Measured budget is warm-up-irrelevant.
        let longer = Scale {
            warmup: tiny().warmup,
            measure: tiny().measure + 1,
        };
        assert_eq!(base, cmp_warmup_digest(&cfg, &apps, &kind, longer));

        // Core count and the shared-region knob are architectural.
        let mut shared = cfg;
        shared.shared_milli = 0;
        let variants = [
            cmp_warmup_digest(&CmpConfig::micro2003(2), &cmp_profiles(2), &kind, tiny()),
            cmp_warmup_digest(&shared, &apps, &kind, tiny()),
            cmp_warmup_digest(&cfg, &apps, &kind_of("base"), tiny()),
            crate::runner::warmup_digest(&apps[0], &kind, tiny()),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the CMP warm-up digest");
        }
    }

    #[test]
    fn cmp_runs_are_deterministic_and_contend_at_eight_cores() {
        let kind = kind_of("nf4");
        let sink = TelemetrySink::disabled();
        let a = run_cmp_opts("nf4", 8, &kind, tiny(), &sink, 0, RunOptions::default(), None);
        let b = run_cmp_opts("nf4", 8, &kind, tiny(), &sink, 0, RunOptions::default(), None);
        assert_eq!(a, b);
        assert!(a.result.bank_conflicts > 0, "8 cores must show bank conflicts");
        assert!(a.bank_stalls_per_ki() > 0.0);
        assert_eq!(a.apps.len(), 8);
    }

    #[test]
    fn sampled_cmp_runs_are_deterministic_and_cheaper() {
        let kind = kind_of("nf4");
        let sink = TelemetrySink::disabled();
        let spec = SampleSpec {
            period: 8_000,
            warmup: 400,
            measure: 1_600,
        };
        let a = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, RunOptions::default(), Some(spec));
        let b = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, RunOptions::default(), Some(spec));
        assert_eq!(a, b, "sampled CMP runs must be deterministic");
        let full = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, RunOptions::default(), None);
        let detailed: u64 = a.result.per_core.iter().map(|c| c.instructions).sum();
        let full_ops: u64 = full.result.per_core.iter().map(|c| c.instructions).sum();
        assert!(
            detailed * 3 < full_ops,
            "sampling must cut detailed ops: {detailed} vs {full_ops}"
        );
        assert_ne!(a, full);
    }

    #[test]
    fn sampled_cmp_digest_separates_regimes() {
        let kind = kind_of("nf4");
        let cfg = CmpConfig::micro2003(4);
        let apps = cmp_profiles(4);
        let spec = SampleSpec {
            period: 8_000,
            warmup: 400,
            measure: 1_600,
        };
        let base = cmp_sampled_digest(&cfg, &apps, &kind, tiny(), spec);
        assert_eq!(base, cmp_sampled_digest(&cfg, &apps, &kind, tiny(), spec), "stable");
        assert_ne!(
            base,
            cmp_run_digest(&cfg, &apps, &kind, tiny()),
            "sampled and unsampled CMP digests must never alias"
        );
        let mut other = spec;
        other.measure += 1;
        assert_ne!(base, cmp_sampled_digest(&cfg, &apps, &kind, tiny(), other));
    }

    #[test]
    fn checkpointed_cmp_runs_are_bit_identical_cold_and_warm() {
        let kind = kind_of("nf4");
        let sink = TelemetrySink::disabled();
        let direct = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, RunOptions::default(), None);

        let dir = std::env::temp_dir()
            .join(format!("simchk-cmp-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, opts, None);
        let warm = run_cmp_opts("nf4", 4, &kind, tiny(), &sink, 0, opts, None);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the CMP result");
        assert_eq!(cold, warm, "warm store changed the CMP result");

        // The ideal twin reuses the nf4 checkpoint (timing-only knob).
        let _id = run_cmp_opts("id4", 4, &kind_of("id4"), tiny(), &sink, 0, opts, None);
        assert_eq!((store.misses(), store.hits()), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
