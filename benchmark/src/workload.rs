//! The four workloads and the end-to-end runs of the real `repro` binary.
//!
//! Every workload runs `repro` at the quick scale on [`THREADS`] worker
//! threads, one invocation after another (closed loop: a rep starts when
//! the previous one has ended). The harness times each child, reads its
//! CPU time from the harness's own reaped-children counters, polls its
//! peak resident set, and checks every byte it prints.

use crate::check::{self, Counts, Expect};
use crate::procfs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Worker threads every `repro` invocation and traced equivalent uses.
pub const THREADS: usize = 2;

/// Interval count of the sampled Figure 9 invocation.
pub const INTERVALS: u64 = 2;

/// One `repro --quick` invocation of a workload.
#[derive(Debug)]
pub struct Invocation {
    /// The `--exp` selector.
    pub exp: &'static str,
    /// Whether it runs sampled (`--sample --intervals 2`).
    pub sample: bool,
    /// What its stdout must be.
    pub expect: Expect,
    /// Runs it simulates.
    pub runs: u64,
    /// Checkpoints it reads or publishes when given a store.
    pub checkpoints: u64,
}

/// How a workload uses the checkpoint store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// No store: every run warms up in process.
    None,
    /// A fresh, empty store for every rep: every warm-up runs and publishes.
    Cold,
    /// A store populated during set-up: every warm-up is restored.
    Warm,
}

/// A workload: a fixed sequence of invocations against one store regime.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Checkpoint regime of the timed reps.
    pub store: Store,
    /// The invocations of one rep, in order.
    pub invocations: &'static [Invocation],
    /// The invocations of one set-up rep, run against a fresh store. For a
    /// warm workload they populate the store its timed reps read; for the
    /// store-less quick report a short rep of the same binary warms the
    /// page cache, since nothing else can be prepared ahead.
    pub setup: &'static [Invocation],
    /// Traced in-process reps pooled for the scheduling percentiles: enough
    /// that at least ten runs lie beyond the 95th percentile.
    pub traced_reps: usize,
}

const FIG9: Invocation = Invocation {
    exp: "fig9",
    sample: false,
    expect: Expect::QuickSection("Figure 9:"),
    runs: 60,
    checkpoints: 60,
};

const MODES: &[Invocation] = &[
    Invocation {
        exp: "cmp",
        sample: false,
        expect: Expect::Golden(check::CMP_QUICK),
        runs: 12,
        checkpoints: 12,
    },
    Invocation {
        exp: "dram",
        sample: false,
        expect: Expect::Golden(check::DRAM_QUICK),
        runs: 15,
        checkpoints: 15,
    },
    Invocation {
        exp: "fig9",
        sample: true,
        expect: Expect::Digest(check::FIG9_SAMPLE_QUICK_DIGEST),
        runs: 60,
        checkpoints: 120,
    },
];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "quick-all",
        store: Store::None,
        invocations: &[Invocation {
            exp: "all",
            sample: false,
            expect: Expect::Golden(check::REPRO_QUICK),
            runs: 282,
            checkpoints: 0,
        }],
        setup: &[Invocation {
            exp: "table3",
            sample: false,
            expect: Expect::QuickSection("Table 3:"),
            runs: 15,
            checkpoints: 0,
        }],
        traced_reps: 1,
    },
    Workload {
        name: "fig9-cold",
        store: Store::Cold,
        invocations: &[FIG9],
        setup: &[FIG9],
        traced_reps: 4,
    },
    Workload {
        name: "fig9-warm",
        store: Store::Warm,
        invocations: &[FIG9],
        setup: &[FIG9],
        traced_reps: 4,
    },
    Workload {
        name: "modes",
        store: Store::Warm,
        invocations: MODES,
        setup: MODES,
        traced_reps: 3,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Invocation {
    /// The `repro` arguments of this invocation.
    pub fn args(&self, store: Option<&Path>) -> Vec<String> {
        let mut args: Vec<String> =
            ["--quick", "--exp", self.exp, "--threads"].iter().map(|s| s.to_string()).collect();
        args.push(THREADS.to_string());
        if self.sample {
            args.extend(["--sample".to_string(), "--intervals".to_string(), INTERVALS.to_string()]);
        }
        if let Some(dir) = store {
            args.push("--checkpoints".to_string());
            args.push(dir.display().to_string());
        }
        args
    }

    /// The status-line counts this invocation must report: every run
    /// simulated, none resumed, and against a store either all hits (`warm`)
    /// or all misses.
    pub fn expected_counts(&self, store: bool, warm: bool) -> Counts {
        let chk = if store { self.checkpoints } else { 0 };
        Counts {
            simulated: self.runs,
            resumed: 0,
            hits: if warm { chk } else { 0 },
            misses: if warm { 0 } else { chk },
        }
    }
}

/// Tallies of checks: every checked rep (all of a workload's invocations)
/// and every count or residual check is one attempt; a failed one is one
/// failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Tally {
    /// Records one check; failures are reported on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("[bench] FAILED {what}: {e}");
        }
    }
}

/// Paths the end-to-end runs need: the `repro` binary and a scratch
/// directory for child output and checkpoint stores.
#[derive(Debug)]
pub struct Env {
    /// The release `repro` binary.
    pub repro: PathBuf,
    /// Scratch space, removed when the harness exits.
    pub work: PathBuf,
    next_dir: std::cell::Cell<u64>,
}

impl Env {
    /// Uses `repro` and creates `work`.
    pub fn new(repro: PathBuf, work: PathBuf) -> Result<Env, String> {
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env { repro, work, next_dir: std::cell::Cell::new(0) })
    }

    /// A fresh, empty directory under the scratch space.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let dir = self.work.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.work.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Removes a scratch directory (best-effort: a leftover only costs disk).
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Builds the release `repro` binary of the workspace at `root` and
/// returns its path.
pub fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "bench", "--bin", "repro"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("repro");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built repro not found at {}", bin.display()))
    }
}

/// One finished child process.
#[derive(Debug)]
struct Child {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kb: u64,
    stdout: String,
    stderr: String,
    success: bool,
}

/// Environment variables that would change what `repro` does.
const REPRO_ENV: &[&str] = &[
    "SIMSCHED_DIR",
    "SIMSCHED_THREADS",
    "SIMCHK_DIR",
    "SIMCHK_MAX",
    "SIMCHK_WARMUP",
    "SIMTEL_DIR",
    "SIMTEL_QUIET",
];

/// Runs `repro args`, timing it from spawn to reap and polling its peak
/// resident set every 20 ms until it exits.
fn run_child(env: &Env, args: &[String]) -> Result<Child, String> {
    let out_path = env.work.join("stdout");
    let err_path = env.work.join("stderr");
    let file = |p: &Path| {
        std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
    };
    let mut cmd = Command::new(&env.repro);
    cmd.args(args).stdin(Stdio::null()).stdout(file(&out_path)?).stderr(file(&err_path)?);
    for var in REPRO_ENV {
        cmd.env_remove(var);
    }
    let ticks0 = procfs::reaped_children_ticks()?;
    let t0 = Instant::now();
    let mut child =
        cmd.spawn().map_err(|e| format!("cannot start {}: {e}", env.repro.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (status, wall) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = procfs::peak_rss_kb(pid) {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let status = child.wait();
        let wall = t0.elapsed();
        done.store(true, Ordering::Relaxed);
        (status, wall)
    });
    let status = status.map_err(|e| format!("waiting for repro: {e}"))?;
    let cpu_s = (procfs::reaped_children_ticks()? - ticks0) as f64 / procfs::USER_HZ;
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    Ok(Child {
        wall_s: wall.as_secs_f64(),
        cpu_s,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        stdout: read(&out_path)?,
        stderr: read(&err_path)?,
        success: status.success(),
    })
}

/// The measurements of one rep (all of a workload's invocations).
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host wall seconds, summed over the invocations.
    pub wall_s: f64,
    /// Child user + system CPU seconds, summed.
    pub cpu_s: f64,
    /// Largest peak resident set of any invocation, MB.
    pub peak_rss_mb: f64,
}

/// Runs `invocations` in order against `store` (a populated store when
/// `warm`), checking every one's stdout and status-line counts. The rep is
/// one attempt in `tally`, failed if any invocation fails a check.
fn run_invocations(
    env: &Env,
    what: &str,
    invocations: &[Invocation],
    store: Option<&Path>,
    warm: bool,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let mut rep = Rep { wall_s: 0.0, cpu_s: 0.0, peak_rss_mb: 0.0 };
    let mut verdict = Ok(());
    for inv in invocations {
        let child = run_child(env, &inv.args(store))?;
        rep.wall_s += child.wall_s;
        rep.cpu_s += child.cpu_s;
        rep.peak_rss_mb = rep.peak_rss_mb.max(child.peak_rss_kb as f64 / 1024.0);
        let result = check_child(inv, &child, store.is_some(), warm);
        if verdict.is_ok() {
            verdict = result.map_err(|e| format!("--exp {}: {e}", inv.exp));
        }
    }
    tally.record(what, verdict);
    Ok(rep)
}

fn check_child(inv: &Invocation, child: &Child, store: bool, warm: bool) -> Result<(), String> {
    if !child.success {
        return Err(format!("repro failed: {}", child.stderr.lines().last().unwrap_or("")));
    }
    inv.expect.check(&child.stdout)?;
    let got = check::parse_counts(&child.stderr).ok_or("no [repro] status line on stderr")?;
    got.expect(inv.expected_counts(store, warm))
}

/// Prepares `w` for its timed reps: one untimed rep of its set-up
/// invocations, which loads the binary into the page cache and, for
/// [`Store::Warm`], populates the store the timed reps read. Returns the
/// set-up wall time and that store.
pub fn setup(env: &Env, w: &Workload, tally: &mut Tally) -> Result<(f64, Option<PathBuf>), String> {
    let store = match w.store {
        Store::None => None,
        Store::Cold | Store::Warm => Some(env.fresh_dir("store")?),
    };
    let what = format!("{} set-up", w.name);
    let rep = run_invocations(env, &what, w.setup, store.as_deref(), false, tally)?;
    if w.store == Store::Warm {
        return Ok((rep.wall_s, store));
    }
    if let Some(d) = &store {
        remove_dir(d);
    }
    Ok((rep.wall_s, None))
}

/// Runs timed reps of `w` until `reps` are done, or until `seconds` have
/// passed (a rep that starts before the deadline finishes). A cold
/// workload gets a fresh store per rep, created and removed untimed.
pub fn timed_reps(
    env: &Env,
    w: &Workload,
    store: Option<&Path>,
    until: Until,
    tally: &mut Tally,
) -> Result<Vec<Rep>, String> {
    let what = format!("{} rep", w.name);
    let run = |store: Option<&Path>, warm: bool, tally: &mut Tally| {
        run_invocations(env, &what, w.invocations, store, warm, tally)
    };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep = match w.store {
            Store::Cold => {
                let dir = env.fresh_dir("store")?;
                let rep = run(Some(&dir), false, tally);
                remove_dir(&dir);
                rep?
            }
            Store::Warm => run(store, true, tally)?,
            Store::None => run(None, false, tally)?,
        };
        reps.push(rep);
        if until.reached(reps.len(), t0.elapsed()) {
            return Ok(reps);
        }
    }
}

/// When a repeated measurement stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many repetitions.
    Reps(usize),
    /// After the first repetition that ends past this much time.
    Seconds(f64),
}

impl Until {
    /// True once `done` repetitions taking `elapsed` satisfy the rule.
    pub fn reached(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Until::Reps(n) => done >= n,
            Until::Seconds(s) => elapsed.as_secs_f64() >= s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_arguments() {
        let modes = by_name("modes").unwrap();
        let sampled = &modes.invocations[2];
        assert_eq!(
            sampled.args(Some(Path::new("d"))),
            [
                "--quick",
                "--exp",
                "fig9",
                "--threads",
                "2",
                "--sample",
                "--intervals",
                "2",
                "--checkpoints",
                "d"
            ]
        );
        assert_eq!(by_name("quick-all").unwrap().invocations[0].args(None).len(), 5);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn expected_counts_follow_the_store_regime() {
        let inv = &by_name("modes").unwrap().invocations[2];
        assert_eq!(inv.expected_counts(true, true).hits, 120);
        assert_eq!(inv.expected_counts(true, false).misses, 120);
        assert_eq!(inv.expected_counts(false, false).misses, 0);
    }

    #[test]
    fn a_mismatched_output_is_counted_as_a_failure() {
        let inv = &by_name("fig9-warm").unwrap().invocations[0];
        let good_out = check::section(check::REPRO_QUICK, "Figure 9:").unwrap().to_string();
        let good_err =
            "[repro] 60 runs (60 simulated, 0 resumed, 60 shared hits), 2 threads, 1.3s\n\
                        [simchk] 60 hits, 0 misses, 0 pruned -> d\n";
        let child = |stdout: &str, stderr: &str| Child {
            wall_s: 1.0,
            cpu_s: 2.0,
            peak_rss_kb: 1,
            stdout: stdout.to_string(),
            stderr: stderr.to_string(),
            success: true,
        };
        let mut tally = Tally::default();
        tally.record("good", check_child(inv, &child(&good_out, good_err), true, true));
        tally.record(
            "bad bytes",
            check_child(inv, &child("Figure 9: wrong\n\n", good_err), true, true),
        );
        let cold_err = good_err.replace("60 hits, 0 misses", "0 hits, 60 misses");
        tally.record("bad counts", check_child(inv, &child(&good_out, &cold_err), true, true));
        tally.record("no status", check_child(inv, &child(&good_out, ""), true, true));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn until_rules() {
        assert!(!Until::Reps(2).reached(1, Duration::from_secs(99)));
        assert!(Until::Reps(2).reached(2, Duration::ZERO));
        assert!(!Until::Seconds(1.5).reached(9, Duration::from_secs(1)));
        assert!(Until::Seconds(1.5).reached(1, Duration::from_secs(2)));
    }
}
