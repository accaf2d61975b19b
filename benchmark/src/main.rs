//! The NuRAPID reproduction's benchmark: end-to-end wall time, CPU time,
//! throughput, memory and set-up time of the real `repro` binary on four
//! workloads, plus a per-layer ladder whose costs must add up to the
//! traced busy time.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--reps N | --seconds T] [--seed S] [--trace 0|1] [--out FILE] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Without `--workload` every workload runs. `--trace 0` runs only the
//! untraced end-to-end reps, `--trace 1` only the ladder and the traced
//! reps; by default both run. `--seconds T` measures each for T seconds
//! instead of `--reps` reps. Every metric prints as
//! `workload metric value unit`; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and the declared metrics. The exit
//! code is non-zero when any output check failed.

mod check;
mod compare;
mod config;
mod ladder;
mod model;
mod procfs;
mod report;
mod stats;
mod traced;
mod workload;

use report::{put, Metrics};
use simbase::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Env, Store, Tally, Until, Workload};

/// The repository the benchmark belongs to (its package's parent).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent")
}

/// Where runs keep checkpoint stores and child output.
pub fn work_root() -> PathBuf {
    repo_root().join(".bench_work")
}

/// Parsed command line.
#[derive(Debug)]
struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    until: Until,
    e2e: bool,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

const USAGE: &str = "usage: nurapid-benchmark [--workload W] [--reps N | --seconds T] [--seed S] \
                     [--trace 0|1] [--out FILE] [--smoke]\n       nurapid-benchmark compare PARENT CHANGE";

fn parse(args: &[String]) -> Result<Opts, String> {
    let cfg = config::manifest();
    let mut o = Opts {
        workloads: workload::WORKLOADS.iter().collect(),
        seed: cfg.seed,
        until: Until::Reps(cfg.reps),
        e2e: true,
        trace: true,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads =
                    vec![workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|_| "bad --reps")?;
                o.until = Until::Reps(n.max(1));
            }
            "--seconds" => {
                o.until = Until::Seconds(value()?.parse().map_err(|_| "bad --seconds")?);
            }
            "--trace" => match value()?.as_str() {
                "0" => (o.e2e, o.trace) = (true, false),
                "1" => (o.e2e, o.trace) = (false, true),
                v => return Err(format!("bad --trace {v:?}")),
            },
            "--out" => o.out = Some(value()?.clone()),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.smoke {
        o.workloads = vec![workload::by_name("quick-all").expect("quick-all exists")];
        o.until = Until::Reps(1);
    }
    Ok(o)
}

/// Prints one metric line, `workload metric value unit`.
fn print_metric(workload: &str, name: &str, value: f64, unit: &str, note: &str) {
    println!("{workload} {name} {value:.6} {unit}{note}");
}

/// The end-to-end metrics of a workload's timed reps and set-ups.
fn end_to_end(w: &Workload, reps: &[workload::Rep], setups: &[f64]) -> Metrics {
    let mut m = Metrics::new();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let insts = config::manifest()
        .sim_insts(w.name)
        .expect("the manifest pins every workload's instruction count") as f64;
    let series: [(&str, Vec<f64>, &str); 3] = [
        ("wall_s", walls.clone(), "s"),
        ("cpu_s", reps.iter().map(|r| r.cpu_s).collect(), "s"),
        ("peak_rss_mb", reps.iter().map(|r| r.peak_rss_mb).collect(), "MB"),
    ];
    for (name, xs, unit) in series {
        put(&mut m, name, stats::median(&xs), unit);
        let (q1, q3) = stats::quartiles(&xs);
        let tail = stats::tail_percentile(xs.len())
            .map_or("none below 20 samples".to_string(), |p| {
                format!("p{p}={:.4}", stats::percentile(&xs, p))
            });
        let note = format!("  (median of n={}, q1={q1:.4}, q3={q3:.4}, tail {tail})", xs.len());
        print_metric(w.name, name, stats::median(&xs), unit, &note);
    }
    let minst = insts / 1e6 / stats::median(&walls);
    put(&mut m, "minst_per_s", minst, "Minst/s");
    print_metric(
        w.name,
        "minst_per_s",
        minst,
        "Minst/s",
        &format!("  ({insts} simulated instructions per rep)"),
    );
    if !setups.is_empty() {
        put(&mut m, "setup_s", stats::median(setups), "s");
        print_metric(
            w.name,
            "setup_s",
            stats::median(setups),
            "s",
            &format!("  (median of n={})", setups.len()),
        );
    }
    m
}

/// The ladder and the traced reps, interleaved: each ladder pass is
/// followed by one traced rep, which that pass prices for the residual, so
/// host drift between a pass and its rep cannot pass for a residual. Pairs
/// repeat until the workload has its traced reps and, under `--seconds`,
/// until the time is up. Each ladder metric is the median over passes.
fn run_traced(
    o: &Opts,
    env: &Env,
    w: &Workload,
    store: Option<&Path>,
    untraced_wall: f64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let spec = ladder::Spec::new(o.seed, if o.smoke { 10 } else { 1 });
    let t0 = Instant::now();
    let (mut passes, mut reps) = (Vec::new(), Vec::new());
    loop {
        passes.push(ladder::pass(&spec, env)?);
        reps.push(traced::rep(env, w, store, tally)?);
        let time_left = matches!(o.until, Until::Seconds(s) if t0.elapsed().as_secs_f64() < s);
        if reps.len() >= w.traced_reps && !time_left {
            break;
        }
    }
    eprintln!(
        "[bench] {}: {} ladder pass(es) and traced rep(s) in {:.1}s",
        w.name,
        passes.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut metrics = report::medians(&passes);
    let per_workload = traced::summarize(w, &reps, &passes, untraced_wall, tally)?;
    for (name, m) in metrics.iter().chain(&per_workload) {
        print_metric(w.name, name, m.value, m.unit, "");
    }
    metrics.extend(per_workload);
    Ok(metrics)
}

/// Everything measured for one workload, plus its check tallies.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn run_workload(o: &Opts, env: &Env, w: &Workload, tally: &mut Tally) -> Result<Outcome, String> {
    let (attempted0, failed0) = (tally.attempted, tally.failed);
    // Set-up repeats for the end-to-end reps (`setup_s` is their median),
    // runs once before trace-only reps, and is skipped by --smoke unless
    // the workload needs a populated store.
    let repeats = match (o.smoke, o.e2e) {
        (true, _) => 0,
        (false, true) => config::manifest().setup_repeats,
        (false, false) => 1,
    };
    let mut setups = Vec::new();
    let mut store: Option<PathBuf> = None;
    for _ in 0..repeats.max(usize::from(w.store == Store::Warm)) {
        if let Some(d) = store.take() {
            workload::remove_dir(&d);
        }
        let (t, s) = workload::setup(env, w, tally)?;
        setups.push(t);
        store = s;
    }
    let until = if o.e2e { o.until } else { Until::Reps(1) };
    let reps = workload::timed_reps(env, w, store.as_deref(), until, tally)?;
    let mut metrics = if o.e2e { end_to_end(w, &reps, &setups) } else { Metrics::new() };
    if o.trace {
        let untraced_wall = stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.extend(run_traced(o, env, w, store.as_deref(), untraced_wall, tally)?);
    }
    if let Some(d) = store {
        workload::remove_dir(&d);
    }
    let (attempted, failed) = (tally.attempted - attempted0, tally.failed - failed0);
    let note = format!("  ({failed} of {attempted} checks)");
    print_metric(w.name, "fail_frac", failed as f64 / attempted.max(1) as f64, "fraction", &note);
    Ok(Outcome { metrics, attempted, failed })
}

/// The declared metrics of `m` (end-to-end ones, per-layer ones, or both).
fn declared(o: &Opts, m: &Metrics) -> Vec<(String, report::Metric)> {
    let b = config::benchmark();
    let e2e = b.end_to_end.iter().map(|e| e.name.as_str()).filter(|_| o.e2e);
    let layers = config::per_layer_names().filter(|_| o.trace);
    e2e.chain(layers).filter_map(|n| Some((n.to_string(), *m.get(n)?))).collect()
}

fn run(o: &Opts) -> Result<bool, String> {
    let repro = workload::build_repro(repo_root())?;
    let env = Env::new(repro, work_root().join(std::process::id().to_string()))?;
    let mut tally = Tally::default();
    let mut line_metrics: Vec<(String, report::Metric)> = Vec::new();
    for w in &o.workloads {
        let outcome = run_workload(o, &env, w, &mut tally)?;
        let metrics = declared(o, &outcome.metrics);
        if let Some(path) = &o.out {
            let head = vec![("workload", Json::Str(w.name.into())), ("seed", Json::U64(o.seed))];
            let record = report::result_line(
                head,
                outcome.failed == 0,
                outcome.attempted,
                outcome.failed,
                &metrics,
            );
            append_line(path, &record)?;
        }
        let prefix = if o.workloads.len() > 1 { format!("{}.", w.name) } else { String::new() };
        line_metrics.extend(metrics.into_iter().map(|(n, m)| (format!("{prefix}{n}"), m)));
    }
    let ok = tally.failed == 0;
    println!(
        "{}",
        report::result_line(Vec::new(), ok, tally.attempted, tally.failed, &line_metrics)
    );
    Ok(ok)
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        match compare::run(parent, change) {
            Ok(worse) => std::process::exit(i32::from(worse > 0)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
