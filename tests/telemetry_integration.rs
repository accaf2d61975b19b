//! End-to-end checks of the simtel telemetry subsystem through the
//! experiment harness: the deterministic channels (`metrics.json`,
//! `trace.json`) are byte-identical for any worker-thread count, the
//! exported summary fields are bit-exact against the `AppRun` the tables
//! print from, the trace exports load as Chrome trace-event files, and a
//! disabled sink costs no more than noise over no sink at all.

use experiments::exps::Sweep;
use experiments::Scale;
use memsys::lower::LowerCache;
use nurapid::{NuRapidCache, NuRapidConfig};
use simbase::json::{self, Json};
use simbase::{AccessKind, BlockAddr, Cycle};
use simtel::trace::validate_chrome_trace;
use simtel::{Telemetry, TelemetrySink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::profiles::by_name;

fn tiny() -> Scale {
    Scale {
        warmup: 30_000,
        measure: 50_000,
    }
}

fn apps() -> Vec<workloads::profiles::BenchProfile> {
    vec![
        by_name("art").expect("in roster"),
        by_name("wupwise").expect("in roster"),
    ]
}

const KEYS: [&str; 3] = ["base", "nf4", "dn-perf"];

/// Runs the reference sweep with a telemetry collector attached and
/// returns the collector.
fn collected(threads: usize) -> Arc<Telemetry> {
    let tel = Arc::new(Telemetry::with_params(512, 10_000));
    let sweep = Sweep::with_apps(tiny(), apps())
        .with_threads(threads)
        .with_telemetry(Arc::clone(&tel));
    sweep.prefetch_all(&KEYS);
    tel
}

#[test]
fn deterministic_exports_are_byte_identical_across_thread_counts() {
    let baseline = collected(1);
    let metrics = baseline.render_metrics();
    let trace = baseline.render_trace();
    assert!(!metrics.is_empty() && !trace.is_empty());
    for threads in [2usize, 8] {
        let tel = collected(threads);
        assert_eq!(tel.render_metrics(), metrics, "{threads}-thread metrics differ");
        assert_eq!(tel.render_trace(), trace, "{threads}-thread trace differs");
    }
}

#[test]
fn metrics_fields_are_bit_exact_against_the_app_run() {
    let tel = Arc::new(Telemetry::with_params(512, 10_000));
    let sweep = Sweep::with_apps(tiny(), apps()).with_telemetry(Arc::clone(&tel));
    sweep.prefetch_all(&KEYS);

    let parsed = json::parse(&tel.render_metrics()).expect("metrics.json parses");
    assert_eq!(parsed.field("schema").and_then(Json::as_str), Some("simtel-metrics-v1"));

    let bits = |j: &Json| match *j {
        Json::F64(v) => v.to_bits(),
        Json::U64(v) => (v as f64).to_bits(),
        ref other => panic!("expected a number, got {other:?}"),
    };
    for &app in &apps() {
        for key in KEYS {
            let run = sweep.run(app, key);
            let rec = parsed
                .field("runs")
                .and_then(|r| r.field(&format!("{key}/{}", app.name)))
                .unwrap_or_else(|| panic!("missing run record {key}/{}", app.name));
            // Integers exactly, floats bit-for-bit: these are the same
            // numbers the rendered tables derive from.
            let core = &run.counters.core;
            assert_eq!(rec.field("instructions").and_then(Json::as_u64), Some(core.instructions));
            assert_eq!(rec.field("cycles").and_then(Json::as_u64), Some(core.cycles));
            assert_eq!(bits(rec.field("ipc").expect("ipc")), run.ipc().to_bits());
            assert_eq!(bits(rec.field("miss_frac").expect("miss_frac")), run.miss_frac().to_bits());
            assert_eq!(bits(rec.field("edp").expect("edp")), run.edp().to_bits());
            let fracs = rec.field("group_fracs").and_then(Json::as_arr).expect("group_fracs");
            assert_eq!(fracs.len(), run.group_fracs().len(), "{key}/{}", app.name);
            for (got, want) in fracs.iter().zip(&run.group_fracs()) {
                assert_eq!(bits(got), want.to_bits(), "{key}/{}", app.name);
            }
        }
    }
}

#[test]
fn trace_exports_validate_as_chrome_traces() {
    let tel = collected(2);
    let trace = validate_chrome_trace(&tel.render_trace()).expect("trace.json valid");
    // Six runs worth of spans: tag probes and d-group accesses dominate.
    assert_eq!(trace.metadata, tel.runs() + 1, "process name plus one thread name per run");
    assert!(trace.complete_spans > 0, "expected cycle-stamped spans");
    assert!(trace.counters > 0, "expected snapshot counter tracks");
    let wall = validate_chrome_trace(&tel.render_wall()).expect("wall.json valid");
    assert_eq!(wall.events, tel.wall_events() + 1, "wall events plus process metadata");
}

#[test]
fn sampled_sweeps_populate_the_sampling_overhead_track() {
    let tel = Arc::new(Telemetry::with_params(512, 10_000));
    let spec = experiments::SampleSpec {
        period: 5_000,
        warmup: 200,
        measure: 800,
    };
    let sweep = Sweep::with_apps(tiny(), apps())
        .with_threads(2)
        .with_sample(Some(spec))
        .with_intervals(2)
        .with_telemetry(Arc::clone(&tel));
    sweep.prefetch_all(&["nf4"]);

    // Two apps, each sampled alone (no store, so no shared groups): one
    // group of one member and its chain span per run, plus one mark per
    // detailed window (10 windows at this scale).
    assert_eq!(tel.wall_events_in("sample-chain"), 2, "one snapshot-chain span per run");
    assert_eq!(tel.wall_events_in("sample-group"), 2, "one group span per run");
    let rendered = tel.render_wall();
    for app in apps() {
        let group = format!("\"{}/1-members\"", app.name);
        assert_eq!(rendered.matches(&group).count(), 2, "{group}: its chain and its group");
    }
    let windows = (tiny().measure / spec.period) as usize;
    assert_eq!(tel.wall_events_in("sample-window"), 2 * windows, "one mark per window");
    // Every sampled run still lands in metrics.json like a full run.
    assert_eq!(tel.runs(), 2);
    let wall = validate_chrome_trace(&tel.render_wall()).expect("wall.json valid");
    assert_eq!(wall.events, tel.wall_events() + 1);
}

#[test]
fn resumed_sweeps_still_record_every_run() {
    let dir = std::env::temp_dir().join(format!("simtel-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = Sweep::with_apps(tiny(), apps()).with_artifacts(&dir).expect("dir");
    first.prefetch_all(&KEYS);
    let total = apps().len() * KEYS.len();
    assert_eq!(first.simulated() as usize, total);
    drop(first);

    // Second pass loads everything from artifacts; the summary fields
    // still land in metrics.json (spans are not replayed).
    let tel = Arc::new(Telemetry::with_params(512, 10_000));
    let resumed = Sweep::with_apps(tiny(), apps())
        .with_artifacts(&dir)
        .expect("dir")
        .with_telemetry(Arc::clone(&tel));
    resumed.prefetch_all(&KEYS);
    assert_eq!(resumed.resumed() as usize, total);
    assert_eq!(tel.runs(), total, "resumed runs must still be recorded");

    let parsed = json::parse(&tel.render_metrics()).expect("parses");
    let rec = parsed
        .field("runs")
        .and_then(|r| r.field(&format!("base/{}", apps()[0].name)))
        .expect("resumed run record");
    assert!(rec.field("ipc").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `n` mixed accesses (every fifth a write) over a 20 000-block
/// footprint through the cache, returning the hit count.
fn drive(c: &mut NuRapidCache, n: u64) -> u64 {
    let mut t = Cycle::ZERO;
    let mut hits = 0;
    for i in 0..n {
        let block = BlockAddr::from_index((i * 37) % 20_000);
        let kind = if i % 5 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = c.access(block, kind, t);
        hits += out.hit as u64;
        t = out.complete_at + 10;
    }
    hits
}

/// The disabled sink is the path every non-`--telemetry` run pays: one
/// `Option` check per event site. Its median over the same NuRAPID access
/// loop must stay within 1.5x of the detached default's. The two sides'
/// iterations alternate, so host drift lands on both.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock: release only")]
fn disabled_sink_costs_no_more_than_no_sink() {
    const ITERS: usize = 9;
    const ACCESSES: u64 = 100_000;
    let prefilled = || {
        let mut c = NuRapidCache::new(NuRapidConfig::micro2003(4));
        c.prefill();
        c
    };
    let mut detached = prefilled();
    let mut disabled = prefilled();
    disabled.set_telemetry(TelemetrySink::disabled(), 0);
    let timed = |c: &mut NuRapidCache| {
        let start = Instant::now();
        black_box(drive(c, ACCESSES));
        start.elapsed()
    };
    timed(&mut detached);
    timed(&mut disabled);
    let (mut base, mut dis): (Vec<Duration>, Vec<Duration>) =
        (0..ITERS).map(|_| (timed(&mut detached), timed(&mut disabled))).unzip();
    base.sort();
    dis.sort();
    let (b, d) = (base[ITERS / 2], dis[ITERS / 2]);
    assert!(
        d.as_secs_f64() <= 1.5 * b.as_secs_f64(),
        "disabled-sink path regressed: {d:?} median vs {b:?} with no sink"
    );
}
