//! Traced in-process equivalents of each workload's invocations.
//!
//! A traced rep builds the same `Sweep` the `repro` binary builds and
//! renders the same selection, with one addition: a `Sweep::with_observer`
//! hook that stamps every run's Started/Finished event with the wall clock
//! and the worker thread. The spans give the scheduler's view of the rep
//! (run-time percentiles, busy share, idle tails), its exact counts, and
//! the busy time the layer ladder must add up to.

use crate::check::Counts;
use crate::model::{self, Regime};
use crate::report::{put, Metrics};
use crate::stats;
use crate::workload::{self, Env, Store, Tally, Workload, INTERVALS, THREADS};
use experiments::exps::Sweep;
use experiments::repro::{render_selection, resolve_ids};
use experiments::{CheckpointStore, SampleSpec, Scale};
use simsched::progress::{EventKind, Observer, Outcome};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One simulated run, as the observer saw it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Scheduler label (`key/app`, `cmp4x/key`, `dram/app`).
    pub label: String,
    /// Worker thread that simulated it.
    pub thread: ThreadId,
    /// Start and end, from the Finished event's stamp and wall time.
    pub start: Instant,
    /// End of the run.
    pub end: Instant,
    /// Whether its invocation ran sampled.
    pub sampled: bool,
    /// Checkpoint regime of its invocation.
    pub regime: Regime,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn run(&self) -> Result<model::Run<'_>, String> {
        model::classify(&self.label, self.sampled)
            .ok_or_else(|| format!("unrecognized run label {:?}", self.label))
    }
}

/// What one traced rep measured.
#[derive(Debug)]
pub struct TracedRep {
    /// Wall time of all invocations.
    pub wall_s: f64,
    /// Every simulated run.
    pub spans: Vec<Span>,
    /// Counts summed over the invocations.
    pub counts: Counts,
    /// Simulated instructions executed.
    pub sim_insts: u64,
    /// Wall time of re-rendering every selection from the warm sweeps.
    pub render_s: f64,
}

type Log = Arc<Mutex<Vec<(Instant, ThreadId, String, EventKind)>>>;

fn stamping_observer(log: &Log) -> Observer {
    let log = Arc::clone(log);
    Arc::new(move |e| {
        let stamp = (Instant::now(), std::thread::current().id(), e.label.clone(), e.kind);
        log.lock().expect("event log poisoned").push(stamp);
    })
}

/// Runs one traced rep of `w`. A cold workload gets a fresh store; a warm
/// one reads `warm_store`. Outputs and counts are checked as one attempt.
pub fn rep(
    env: &Env,
    w: &Workload,
    warm_store: Option<&Path>,
    tally: &mut Tally,
) -> Result<TracedRep, String> {
    let scale = Scale::quick();
    let (regime, dir) = match w.store {
        Store::None => (Regime::NoStore, None),
        Store::Cold => (Regime::Cold, Some(env.fresh_dir("traced-store")?)),
        Store::Warm => {
            (Regime::Warm, Some(warm_store.ok_or("warm workload without a store")?.to_path_buf()))
        }
    };
    let mut rendered = Vec::new();
    let mut spans = Vec::new();
    let mut counts = Counts::default();
    let mut verdict = Ok(());
    let t0 = Instant::now();
    for inv in w.invocations {
        let log: Log = Arc::default();
        let mut sweep =
            Sweep::new(scale).with_threads(THREADS).with_observer(stamping_observer(&log));
        if inv.sample {
            sweep = sweep.with_sample(Some(SampleSpec::for_scale(scale))).with_intervals(INTERVALS);
        }
        if let Some(d) = &dir {
            let store = CheckpointStore::open(d)
                .map_err(|e| format!("cannot open store {}: {e}", d.display()))?;
            sweep = sweep.with_checkpoint_store(Arc::new(store));
        }
        let ids = resolve_ids(inv.exp).ok_or_else(|| format!("unknown experiment {}", inv.exp))?;
        let out = render_selection(&ids, &sweep, false);
        let got = Counts {
            simulated: sweep.simulated(),
            resumed: sweep.resumed(),
            hits: sweep.checkpoints().map_or(0, CheckpointStore::hits),
            misses: sweep.checkpoints().map_or(0, CheckpointStore::misses),
        };
        let want = inv.expected_counts(dir.is_some(), regime == Regime::Warm);
        let checked = inv.expect.check(&out).and_then(|()| got.expect(want));
        if verdict.is_ok() {
            verdict = checked.map_err(|e| format!("--exp {}: {e}", inv.exp));
        }
        counts.simulated += got.simulated;
        counts.resumed += got.resumed;
        counts.hits += got.hits;
        counts.misses += got.misses;
        let events = std::mem::take(&mut *log.lock().expect("event log poisoned"));
        for (at, thread, label, kind) in events {
            if let EventKind::Finished { outcome: Outcome::Simulated, wall_ns } = kind {
                spans.push(Span {
                    label,
                    thread,
                    start: at - Duration::from_nanos(wall_ns),
                    end: at,
                    sampled: inv.sample,
                    regime,
                });
            }
        }
        rendered.push((ids, sweep));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tally.record(&format!("{} traced rep", w.name), verdict);

    let t = Instant::now();
    for (ids, sweep) in &rendered {
        std::hint::black_box(render_selection(ids, sweep, false));
    }
    let render_s = t.elapsed().as_secs_f64();
    drop(rendered);
    if w.store == Store::Cold {
        if let Some(d) = &dir {
            workload::remove_dir(d);
        }
    }

    let mut sim_insts = 0;
    for s in &spans {
        sim_insts += model::insts(s.run()?, s.regime, scale, INTERVALS);
    }
    Ok(TracedRep { wall_s, spans, counts, sim_insts, render_s })
}

/// Worker-seconds left idle at the end of each worker-pool batch. Each
/// worker is `(first start, last end)` of its runs; workers whose spans
/// overlap form one batch, and each waits from its last run's end until
/// the batch's last run ends.
pub fn tail_idle_s(mut workers: Vec<(f64, f64)>) -> f64 {
    workers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut idle = 0.0;
    let mut batch: Vec<f64> = Vec::new();
    let mut end = f64::NEG_INFINITY;
    let mut flush = |batch: &mut Vec<f64>, end: f64| {
        idle += batch.iter().map(|last| end - last).sum::<f64>();
        batch.clear();
    };
    for (first, last) in workers {
        if first > end && !batch.is_empty() {
            flush(&mut batch, end);
            end = f64::NEG_INFINITY;
        }
        batch.push(last);
        end = end.max(last);
    }
    flush(&mut batch, end);
    idle
}

fn rep_tail_idle_s(spans: &[Span]) -> f64 {
    let Some(epoch) = spans.iter().map(|s| s.start).min() else {
        return 0.0;
    };
    let mut workers: Vec<(ThreadId, f64, f64)> = Vec::new();
    for s in spans {
        let (a, b) = ((s.start - epoch).as_secs_f64(), (s.end - epoch).as_secs_f64());
        match workers.iter_mut().find(|w| w.0 == s.thread) {
            Some(w) => {
                w.1 = w.1.min(a);
                w.2 = w.2.max(b);
            }
            None => workers.push((s.thread, a, b)),
        }
    }
    tail_idle_s(workers.into_iter().map(|(_, a, b)| (a, b)).collect())
}

/// The signed reconciliation residual of one traced rep: (Σ predicted −
/// busy) / busy, each run priced from the ladder metrics `ladder`.
pub fn residual(rep: &TracedRep, ladder: &Metrics) -> Result<f64, String> {
    let (mut predicted_ns, mut busy_s) = (0.0, 0.0);
    for s in &rep.spans {
        predicted_ns += model::cost_ns(s.run()?, s.regime, Scale::quick(), INTERVALS, ladder)?;
        busy_s += s.secs();
    }
    Ok((predicted_ns / 1e9 - busy_s) / busy_s)
}

/// The per-workload per-layer metrics from `reps` traced reps, checked
/// against the manifest's exact counts. `passes[i]` is the ladder pass
/// measured right before `reps[i]` and prices it; the reconciliation
/// residual is the magnitude of the median signed residual over the reps,
/// so a host stall in one pass or one rep cannot pass for a mismatch.
/// `untraced_wall_s` is the median wall time of the same workload run as a
/// plain child process.
pub fn summarize(
    w: &Workload,
    reps: &[TracedRep],
    passes: &[Metrics],
    untraced_wall_s: f64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let cfg = crate::config::manifest();
    let mut m = Metrics::new();
    let all: Vec<&Span> = reps.iter().flat_map(|r| &r.spans).collect();
    let durations_ms: Vec<f64> = all.iter().map(|s| s.secs() * 1e3).collect();
    if durations_ms.is_empty() {
        return Err(format!("{}: traced reps simulated nothing", w.name));
    }
    put(&mut m, "simsched.run_ms_p50", stats::percentile(&durations_ms, 50.0), "ms");
    put(&mut m, "simsched.run_ms_p95", stats::percentile(&durations_ms, 95.0), "ms");
    let busy_s: f64 = all.iter().map(|s| s.secs()).sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    put(
        &mut m,
        "simsched.busy_frac",
        busy_s / (THREADS as f64 * walls.iter().sum::<f64>()),
        "fraction",
    );
    let tails: Vec<f64> = reps.iter().map(|r| rep_tail_idle_s(&r.spans)).collect();
    put(&mut m, "simsched.tail_idle_s", stats::median(&tails), "s");

    let residuals =
        reps.iter().zip(passes).map(|(r, p)| residual(r, p)).collect::<Result<Vec<_>, _>>()?;
    let shown: Vec<String> = residuals.iter().map(|r| format!("{r:+.4}")).collect();
    eprintln!("[bench] {} signed residual per traced rep: {}", w.name, shown.join(" "));
    let residual = stats::median(&residuals).abs();
    put(&mut m, "ladder.residual_frac", residual, "fraction");
    put(&mut m, "trace_overhead_frac", stats::median(&walls) / untraced_wall_s - 1.0, "fraction");
    let renders: Vec<f64> = reps.iter().map(|r| r.render_s * 1e3).collect();
    put(&mut m, "experiments.repro.render_ms", stats::median(&renders), "ms");

    let first = &reps[0];
    put(&mut m, "count.sim_insts", first.sim_insts as f64, "count");
    put(&mut m, "count.runs_simulated", first.counts.simulated as f64, "count");
    put(&mut m, "count.simchk_hits", first.counts.hits as f64, "count");
    put(&mut m, "count.simchk_misses", first.counts.misses as f64, "count");
    let repeat = reps.iter().all(|r| r.sim_insts == first.sim_insts && r.counts == first.counts);
    tally.record(
        &format!("{} counts repeat across traced reps", w.name),
        if repeat { Ok(()) } else { Err("counts differ between reps".into()) },
    );
    let pinned = cfg.sim_insts(w.name);
    tally.record(
        &format!("{} count.sim_insts", w.name),
        if pinned == Some(first.sim_insts) {
            Ok(())
        } else {
            Err(format!("{} simulated instructions, manifest pins {pinned:?}", first.sim_insts))
        },
    );
    if cfg.residual_checked.iter().any(|n| n == w.name) {
        tally.record(
            &format!("{} ladder.residual_frac", w.name),
            if residual <= cfg.residual_tolerance {
                Ok(())
            } else {
                Err(format!("residual {residual:.4} exceeds tolerance {}", cfg.residual_tolerance))
            },
        );
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_idle_counts_each_batch_separately() {
        // Batch 1: workers end at 3 and 5 -> 2 s idle. Batch 2 starts after
        // 5: workers end at 9 and 10 -> 1 s idle.
        let workers = vec![(0.0, 3.0), (0.1, 5.0), (6.0, 9.0), (6.2, 10.0)];
        assert!((tail_idle_s(workers) - 3.0).abs() < 1e-12);
        assert_eq!(tail_idle_s(vec![]), 0.0);
        assert_eq!(tail_idle_s(vec![(1.0, 2.0)]), 0.0);
    }

    #[test]
    fn traced_reps_pool_enough_runs_for_the_95th_percentile() {
        for w in workload::WORKLOADS {
            let runs: u64 = w.invocations.iter().map(|i| i.runs).sum();
            let pooled = runs as usize * w.traced_reps;
            assert!(
                stats::tail_percentile(pooled).is_some_and(|p| p >= 95.0),
                "{}: {pooled} runs",
                w.name
            );
        }
    }
}
