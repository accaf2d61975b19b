//! `repro` — regenerates every table and figure of the paper's evaluation,
//! scheduling full-system runs on the simsched worker pool.
//!
//! ```text
//! repro [--exp <id>] [--quick | --huge] [--tsv] [--cores N] [--l4]
//!       [--sample [--intervals K]] [--threads N]
//!       [--artifacts DIR] [--checkpoints DIR [--simchk-prune BYTES]]
//!       [--telemetry DIR] [--quiet]
//!
//!   --exp       table2 | table3 | table4 | fig4 | fig5 | fig6 | lru |
//!               fig7 | fig8 | fig9 | fig10 | fig11 | restrict | orgs |
//!               cmp | dram | sampling | all (default: all; `dram` — the
//!               L4 resize-transient study — and `sampling` — the
//!               sampled-vs-full error/speedup study — are opt-in only,
//!               never part of `all`)
//!   --quick     run at the reduced test scale instead of the full
//!               reproduction scale
//!   --huge      run at the billion-instruction scale (pair it with
//!               --sample unless you have hours to spare)
//!   --sample    estimate every single-core run from periodic detailed
//!               windows with functional fast-forward between them
//!               (SMARTS-style) instead of simulating every instruction
//!               in detail; reports carry the same tables over estimated
//!               runs. CMP runs stay at full detail, so --cores with
//!               --sample is an error
//!   --intervals with --sample (an error without it): split each sampled
//!               run into K (1-64) checkpoint-seeded intervals, run in
//!               order on the worker that owns the run; output is
//!               bit-identical for any K
//!   --simchk-prune with --checkpoints: evict least-recently-used
//!               .simchk files beyond BYTES after each publish (also
//!               $SIMCHK_MAX; default: keep everything)
//!   --cores     restrict the `cmp` experiment to one core count (1-8;
//!               default: sweep 2, 4, and 8); other experiments are
//!               unaffected
//!   --l4        interpose the L4 DRAM-cache tier between every
//!               organization and DRAM; without it the report is
//!               byte-identical to builds that predate the tier
//!   --tsv       machine-readable output for the figure experiments
//!   --threads   worker threads for the run sweep (default:
//!               $SIMSCHED_THREADS, else the machine's parallelism;
//!               output is bit-identical for any value)
//!   --artifacts seal every finished run into DIR as <run digest>.simchk
//!               and resume from the whole ones (default: $SIMSCHED_DIR,
//!               else disabled); never the warm-up store, and a
//!               runs.jsonl left there by older builds is not read
//!   --checkpoints reuse/publish warm-up checkpoints in DIR (default:
//!               $SIMCHK_DIR, else disabled); results are bit-identical
//!               with a cold, warm, or absent store — only wall time
//!               changes
//!   --telemetry write metrics.json / trace.json / wall.json to DIR
//!               (default: $SIMTEL_DIR, else disabled); trace.json loads
//!               in chrome://tracing / Perfetto
//!   --quiet     suppress stderr progress lines (also $SIMTEL_QUIET);
//!               with --telemetry, the lines still land on the wall
//!               channel
//! ```
//!
//! `$SIMSCHED_THREADS` and `$SIMCHK_MAX` must be integers and
//! `$SIMCHK_WARMUP` must be `timed` when set (unset: fast-forward warm-up);
//! a malformed value exits 2 naming the variable, as a bad flag does.
//!
//! Tables are always rendered in the same serial order; the thread count
//! only affects how fast the run store warms up. Progress events go to
//! stderr, tables to stdout. The telemetry artifacts' deterministic
//! channels (`metrics.json`, `trace.json`) are byte-identical for any
//! `--threads` value; only `wall.json` varies.

use experiments::exps::Sweep;
use experiments::repro::{prewarm_keys, render_selection_cores, resolve_ids};
use experiments::{Scale, WarmupMode};
use simsched::progress::{console_observer, Counts};
use simtel::{Console, Telemetry};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_string();
    let mut quick = false;
    let mut huge = false;
    let mut tsv = false;
    let mut cores: Option<u32> = None;
    let mut l4 = false;
    let mut sample = false;
    let mut intervals: Option<u64> = None;
    let mut quiet = false;
    let mut threads = default_threads();
    let mut artifacts = std::env::var("SIMSCHED_DIR").ok();
    let mut checkpoints = std::env::var("SIMCHK_DIR").ok();
    let mut simchk_budget: Option<u64> =
        env_value("SIMCHK_MAX", "a byte count", |v| v.parse().ok());
    // $SIMCHK_WARMUP=timed re-enables the full-timing warm-up (the
    // differential oracle for the default functional fast-forward; the
    // report is bit-identical either way, only slower).
    let timed = |v: &str| (v == "timed").then_some(WarmupMode::Timed);
    let warmup = env_value("SIMCHK_WARMUP", "`timed`", timed).unwrap_or(WarmupMode::FastForward);
    let mut telemetry_dir = std::env::var("SIMTEL_DIR").ok();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| usage("missing experiment id"));
            }
            "--quick" => quick = true,
            "--huge" => huge = true,
            "--sample" => sample = true,
            "--intervals" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing or bad --intervals value"));
                if !(1..=64).contains(&n) {
                    usage("--intervals must be between 1 and 64");
                }
                intervals = Some(n);
            }
            "--simchk-prune" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing or bad --simchk-prune byte budget"));
                simchk_budget = Some(n);
            }
            "--tsv" => tsv = true,
            "--cores" => {
                i += 1;
                let n: u32 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing or bad --cores value"));
                if !(1..=8).contains(&n) {
                    usage("--cores must be between 1 and 8");
                }
                cores = Some(n);
            }
            "--l4" => l4 = true,
            "--quiet" => quiet = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing or bad --threads value"));
            }
            "--artifacts" => {
                i += 1;
                artifacts =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("missing artifact dir")));
            }
            "--checkpoints" => {
                i += 1;
                checkpoints =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("missing checkpoint dir")));
            }
            "--telemetry" => {
                i += 1;
                telemetry_dir =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("missing telemetry dir")));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if quick && huge {
        usage("--quick and --huge are mutually exclusive");
    }
    if sample && cores.is_some() {
        eprintln!("error: CMP runs are not sampled; --sample cannot be combined with --cores");
        std::process::exit(2);
    }
    if !sample && intervals.is_some() {
        eprintln!("error: --intervals splits sampled runs; it needs --sample");
        std::process::exit(2);
    }
    let scale = if quick {
        Scale::quick()
    } else if huge {
        Scale::huge()
    } else {
        Scale::full()
    };
    let ids = resolve_ids(&exp).unwrap_or_else(|| usage(&format!("unknown experiment {exp:?}")));
    let cores_list: Vec<u32> = match cores {
        Some(n) => vec![n],
        None => experiments::cmp::CMP_CORES.to_vec(),
    };

    let t0 = Instant::now();
    let telemetry = telemetry_dir.as_ref().map(|_| Arc::new(Telemetry::from_env()));
    let mut console = Console::from_env(quiet);
    if let Some(tel) = &telemetry {
        console = console.with_mirror(Arc::clone(tel));
    }
    let counts = Counts::new();
    let mut sweep = Sweep::new(scale)
        .with_threads(threads)
        .with_warmup(warmup)
        .with_l4(l4.then(experiments::L4Config::tdram))
        .with_sample(sample.then(|| experiments::SampleSpec::for_scale(scale)))
        .with_intervals(intervals.unwrap_or(1))
        .with_observer(console_observer(console.clone(), Arc::clone(&counts), telemetry.clone()));
    if let Some(tel) = &telemetry {
        sweep = sweep.with_telemetry(Arc::clone(tel));
    }
    if let Some(dir) = &artifacts {
        sweep = match sweep.with_artifacts(dir) {
            Ok(s) => {
                console.status(&format!("[simsched] results: {dir}/<run digest>.simchk"));
                s
            }
            Err(e) => usage(&format!("cannot open artifact dir {dir:?}: {e}")),
        };
    }
    if let Some(dir) = &checkpoints {
        sweep = match experiments::checkpoint::CheckpointStore::open(dir) {
            Ok(store) => sweep.with_checkpoint_store(Arc::new(store.with_budget(simchk_budget))),
            Err(e) => usage(&format!("cannot open checkpoint dir {dir:?}: {e}")),
        };
    }

    // The rendering warms the run store in parallel before emitting
    // anything: the union of every selected experiment's configurations,
    // in a stable order, farmed out to the worker pool.
    let keys = prewarm_keys(&ids);
    if !keys.is_empty() {
        console.status(&format!(
            "[simsched] {} jobs ({} apps x {} configs) on {} thread{}",
            sweep.apps().len() * keys.len(),
            sweep.apps().len(),
            keys.len(),
            threads,
            if threads == 1 { "" } else { "s" }
        ));
    }
    // `print!`: the rendering already ends every experiment with a newline.
    print!("{}", render_selection_cores(&ids, &sweep, tsv, &cores_list));
    console.status(&format!(
        "[repro] {} runs ({} simulated, {} resumed, {} shared hits), {} threads, {:.1}s",
        sweep.runs(),
        sweep.simulated(),
        sweep.resumed(),
        counts.shared.load(Ordering::Relaxed),
        sweep.threads(),
        t0.elapsed().as_secs_f64()
    ));
    if let Some(store) = sweep.checkpoints() {
        console.status(&format!(
            "[simchk] {} hits, {} misses, {} pruned -> {}",
            store.hits(),
            store.misses(),
            store.pruned(),
            store.dir().display()
        ));
    }
    if let (Some(dir), Some(tel)) = (&telemetry_dir, &telemetry) {
        match tel.write_all(dir) {
            Ok(()) => console.status(&format!(
                "[simtel] {} runs, {} wall events -> {dir}/{{metrics,trace,wall}}.json",
                tel.runs(),
                tel.wall_events()
            )),
            Err(e) => {
                eprintln!("error: cannot write telemetry to {dir:?}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Default worker-thread count: `$SIMSCHED_THREADS`, else the machine's
/// available parallelism.
fn default_threads() -> usize {
    env_value("SIMSCHED_THREADS", "a thread count", |v| v.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The environment variable `name` through `parse`: `None` when unset, and
/// a set value `parse` rejects exits 2 with one line naming the variable
/// and what it `wants`.
fn env_value<T>(name: &str, wants: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var_os(name)?;
    let parsed = raw.to_str().and_then(&parse);
    if parsed.is_none() {
        eprintln!("error: ${name} is {raw:?}; it must be {wants}");
        std::process::exit(2);
    }
    parsed
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--exp table2|table3|table4|fig4|fig5|fig6|lru|fig7|fig8|fig9|fig10|fig11|restrict|orgs|cmp|dram|sampling|all] \
         [--quick|--huge] [--tsv] [--cores N] [--l4] [--sample [--intervals K]] [--threads N] [--artifacts DIR] \
         [--checkpoints DIR [--simchk-prune BYTES]] [--telemetry DIR] [--quiet]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
