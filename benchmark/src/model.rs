//! What each simulated run executes, and what the layer ladder says it
//! should cost.
//!
//! A traced run reports every simulated run by its scheduler label. The
//! label names the run family — a single-core run, a `dram` transient
//! run, a CMP scenario, or a sampled estimate — and the configuration.
//! From that and the checkpoint regime this module derives the run's
//! instruction count exactly and predicts its host time from the ladder's
//! per-layer costs; the sum of the predictions over a rep, against the
//! traced busy time, is the ladder's reconciliation residual.

use crate::report::{get, Metrics};
use experiments::{SampleSpec, Scale};

/// A simulated run, recognized from its scheduler label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run<'a> {
    /// `key/app`: one application on one organization.
    Full(&'a str),
    /// `dram/app`: the L4 resize-transient scenario.
    Dram,
    /// `cmp{cores}x/key`: a CMP scenario.
    Cmp(u64, &'a str),
    /// `key/app` under `--sample`: a sampled estimate.
    Sampled(&'a str),
}

/// Recognizes a run from its label; `sampled` is the invocation's mode.
pub fn classify(label: &str, sampled: bool) -> Option<Run<'_>> {
    let (head, _) = label.split_once('/')?;
    if head == "dram" {
        return Some(Run::Dram);
    }
    if let Some(cores) = head.strip_prefix("cmp").and_then(|r| r.strip_suffix('x')) {
        let key = &label[head.len() + 1..];
        return Some(Run::Cmp(cores.parse().ok()?, key));
    }
    Some(if sampled { Run::Sampled(head) } else { Run::Full(head) })
}

/// The checkpoint regime a run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// No store: warm-up always executes.
    NoStore,
    /// An empty store: warm-up executes and publishes.
    Cold,
    /// A populated store: warm-up is restored.
    Warm,
}

impl Regime {
    fn warms_up(self) -> bool {
        self != Regime::Warm
    }
}

/// Ops one sampled run executes in its interval jobs: every window's
/// detailed ops plus the functional gaps between windows of an interval.
pub fn sampled_interval_ops(scale: Scale, spec: SampleSpec, intervals: u64) -> (u64, u64) {
    let windows = spec.windows(scale);
    let k = intervals.clamp(1, windows);
    let detailed = windows * spec.detailed_per_window();
    let functional = (windows - k) * (spec.period - spec.detailed_per_window());
    (detailed, functional)
}

/// Functional ops of a sampled run's snapshot chain when it is built:
/// the warm-up plus the prefix up to the last interval's first window.
pub fn sampled_prefix_ops(scale: Scale, spec: SampleSpec, intervals: u64) -> u64 {
    let windows = spec.windows(scale);
    let k = intervals.clamp(1, windows);
    scale.warmup + windows * (k - 1) / k * spec.period
}

/// Simulated instructions one run executes (detailed plus functional;
/// restored warm-ups count zero).
pub fn insts(run: Run<'_>, regime: Regime, scale: Scale, intervals: u64) -> u64 {
    let warm = regime.warms_up();
    match run {
        Run::Full(_) | Run::Dram => scale.measure + if warm { scale.warmup } else { 0 },
        Run::Cmp(cores, _) => {
            let per = |n: u64| cores * (n / cores).max(1);
            per(scale.measure) + if warm { per(scale.warmup) } else { 0 }
        }
        Run::Sampled(_) => {
            let spec = SampleSpec::for_scale(scale);
            let (detailed, functional) = sampled_interval_ops(scale, spec, intervals);
            let prefix = if warm { sampled_prefix_ops(scale, spec, intervals) } else { 0 };
            detailed + functional + prefix
        }
    }
}

/// The ladder organization whose costs stand for configuration `key`:
/// every NuRAPID variant the ladder does not build is priced as `nf4`.
pub fn ladder_key(key: &str) -> &str {
    match key {
        "base" | "nf8" | "sa4" | "dn-perf" | "dn-energy" | "dn-memo" | "cnuca" | "nf4-l4" => key,
        _ => "nf4",
    }
}

/// Per-op host costs of one organization's two execution paths, from
/// the ladder: generator + core + L1 (over the stub) + the
/// organization's own accesses at the rate the L1s emit them.
fn path_ns(m: &Metrics, key: &str) -> Result<(f64, f64), String> {
    let next_op = get(m, "workloads.next_op_ns")?;
    let warm = next_op
        + get(m, "cpu.warm_run_ns_per_op")?
        + get(m, &format!("org.{key}.warm_l2_per_op"))?
            * get(m, &format!("org.{key}.warm_access_ns"))?;
    let detail = next_op
        + get(m, "cpu.execute_ns_per_op")?
        + get(m, &format!("org.{key}.l2_per_op"))? * get(m, &format!("org.{key}.access_ns"))?;
    Ok((warm, detail))
}

/// Host ns one checkpoint costs under `regime`: encode, seal and write on
/// a miss, read and verify on a hit, then decode either way. Without a
/// store a run builds no checkpoint, except a sampled run's in-memory
/// interval snapshots, which are encoded and decoded.
fn checkpoint_ns(m: &Metrics, key: &str, regime: Regime, sampled: bool) -> Result<f64, String> {
    let encode = get(m, &format!("org.{key}.payload_encode_us"))? * 1e3;
    let decode = get(m, &format!("org.{key}.payload_decode_us"))? * 1e3;
    Ok(match regime {
        Regime::NoStore if sampled => encode + decode,
        Regime::NoStore => 0.0,
        Regime::Cold => encode + get(m, &format!("org.{key}.publish_ms"))? * 1e6 + decode,
        Regime::Warm => get(m, &format!("org.{key}.hit_ms"))? * 1e6 + decode,
    })
}

/// Predicted host ns of one run from the ladder metrics `m`.
pub fn cost_ns(
    run: Run<'_>,
    regime: Regime,
    scale: Scale,
    intervals: u64,
    m: &Metrics,
) -> Result<f64, String> {
    let warm = regime.warms_up();
    let fixed = |key: &str| get(m, &format!("org.{key}.fixed_ms")).map(|v| v * 1e6);
    let full = |key: &str| -> Result<f64, String> {
        let (warm_ns, detail_ns) = path_ns(m, key)?;
        let warm_up = if warm { scale.warmup as f64 * warm_ns } else { 0.0 };
        Ok(fixed(key)?
            + warm_up
            + scale.measure as f64 * detail_ns
            + checkpoint_ns(m, key, regime, false)?)
    };
    match run {
        Run::Full(key) => full(ladder_key(key)),
        Run::Dram => Ok(full("nf4-l4")? + 2.0 * get(m, "memsys.dramcache.resize_us")? * 1e3),
        Run::Cmp(cores, key) => {
            let key = ladder_key(key);
            let per = |n: u64| (cores * (n / cores).max(1)) as f64;
            let warm_ns = get(m, &format!("cmp.c{cores}.{key}.warm_ns_per_op"))?;
            let run_ns = get(m, &format!("cmp.c{cores}.{key}.run_ns_per_op"))?;
            let warm_up = if warm { per(scale.warmup) * warm_ns } else { 0.0 };
            Ok(fixed(key)?
                + warm_up
                + per(scale.measure) * run_ns
                + checkpoint_ns(m, key, regime, false)?)
        }
        Run::Sampled(key) => {
            let key = ladder_key(key);
            let spec = SampleSpec::for_scale(scale);
            let k = intervals.clamp(1, spec.windows(scale)) as f64;
            let (warm_ns, detail_ns) = path_ns(m, key)?;
            let (detailed, functional) = sampled_interval_ops(scale, spec, intervals);
            let chain = if warm {
                fixed(key)? + sampled_prefix_ops(scale, spec, intervals) as f64 * warm_ns
            } else {
                0.0
            };
            Ok(k * (fixed(key)? + checkpoint_ns(m, key, regime, true)?)
                + detailed as f64 * detail_ns
                + functional as f64 * warm_ns
                + chain)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::put;

    #[test]
    fn labels_classify_by_family() {
        assert_eq!(classify("nf4/applu", false), Some(Run::Full("nf4")));
        assert_eq!(classify("nf4-r256/gcc", false), Some(Run::Full("nf4-r256")));
        assert_eq!(classify("nf4/applu", true), Some(Run::Sampled("nf4")));
        assert_eq!(classify("dram/swim", false), Some(Run::Dram));
        assert_eq!(classify("cmp8x/dn-perf", false), Some(Run::Cmp(8, "dn-perf")));
        assert_eq!(classify("nolabel", false), None);
    }

    #[test]
    fn instruction_counts_at_quick_scale() {
        let q = Scale::quick();
        assert_eq!(insts(Run::Full("nf4"), Regime::NoStore, q, 1), 400_000);
        assert_eq!(insts(Run::Full("nf4"), Regime::Cold, q, 1), 400_000);
        assert_eq!(insts(Run::Full("nf4"), Regime::Warm, q, 1), 250_000);
        assert_eq!(insts(Run::Dram, Regime::Warm, q, 1), 250_000);
        for cores in [2, 4, 8] {
            assert_eq!(insts(Run::Cmp(cores, "nf4"), Regime::NoStore, q, 1), 400_000);
            assert_eq!(insts(Run::Cmp(cores, "nf4"), Regime::Warm, q, 1), 250_000);
        }
        // 20 windows of 125 + 500 detailed ops every 12 500; two intervals
        // skip the gap before their first window.
        let spec = SampleSpec::for_scale(q);
        assert_eq!(sampled_interval_ops(q, spec, 2), (12_500, 18 * 11_875));
        assert_eq!(sampled_prefix_ops(q, spec, 2), 150_000 + 10 * 12_500);
        assert_eq!(insts(Run::Sampled("nf4"), Regime::Warm, q, 2), 226_250);
        assert_eq!(insts(Run::Sampled("nf4"), Regime::Cold, q, 2), 226_250 + 275_000);
    }

    #[test]
    fn unbuilt_nurapid_variants_are_priced_as_nf4() {
        for key in ["nf2", "dm4", "fs4", "id4", "lru-nf", "clock-dm", "nf4-r64"] {
            assert_eq!(ladder_key(key), "nf4");
        }
        assert_eq!(ladder_key("dn-memo"), "dn-memo");
    }

    #[test]
    fn a_warm_run_costs_its_detailed_path_plus_a_restore() {
        let mut m = Metrics::new();
        for (name, v) in [
            ("workloads.next_op_ns", 10.0),
            ("cpu.warm_run_ns_per_op", 20.0),
            ("cpu.execute_ns_per_op", 50.0),
            ("org.nf4.warm_l2_per_op", 0.1),
            ("org.nf4.warm_access_ns", 100.0),
            ("org.nf4.l2_per_op", 0.1),
            ("org.nf4.access_ns", 200.0),
            ("org.nf4.fixed_ms", 1.0),
            ("org.nf4.payload_encode_us", 300.0),
            ("org.nf4.payload_decode_us", 400.0),
            ("org.nf4.publish_ms", 2.0),
            ("org.nf4.hit_ms", 0.5),
        ] {
            put(&mut m, name, v, "x");
        }
        let s = Scale { warmup: 1000, measure: 2000 };
        // detailed path: 10 + 50 + 0.1 * 200 = 80 ns/op; warm path 40 ns/op.
        let warm = cost_ns(Run::Full("fs4"), Regime::Warm, s, 1, &m).unwrap();
        assert!((warm - (1e6 + 2000.0 * 80.0 + 0.5e6 + 400e3)).abs() < 1e-6, "{warm}");
        let cold = cost_ns(Run::Full("nf4"), Regime::Cold, s, 1, &m).unwrap();
        assert!((cold - (1e6 + 1000.0 * 40.0 + 2000.0 * 80.0 + 300e3 + 2e6 + 400e3)).abs() < 1e-6);
        assert!(
            cost_ns(Run::Full("base"), Regime::Warm, s, 1, &m).is_err(),
            "missing metrics are errors"
        );
    }
}
