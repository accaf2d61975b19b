//! The per-process telemetry aggregator and its exporters.
//!
//! One [`Telemetry`] instance collects the [`SinkData`] of every run in
//! a sweep plus the scheduler's wall-clock spans, and renders three
//! artifacts:
//!
//! - `metrics.json` — a flat snapshot: per-run summary fields (IPC,
//!   d-group hit fractions, …), per-run metric shards, and the
//!   deterministic cross-run merge (`totals`);
//! - `trace.json` — the **deterministic channel**: cycle-stamped spans
//!   on one Chrome-trace thread per run (1 trace µs = 1 simulated
//!   cycle), byte-identical for any worker-thread count;
//! - `wall.json` — the **non-deterministic profiling channel**:
//!   wall-clock scheduler spans, kept in a separate file precisely so
//!   the deterministic artifacts stay comparable across machines and
//!   thread counts.
//!
//! Determinism model: runs are keyed by `(label, digest)` in a
//! [`BTreeMap`], so export order is a pure function of *which* runs
//! executed, never of when or on which worker they finished. Everything
//! inside a run is recorded single-threaded against simulation cycles,
//! and the shard merge ([`MetricSet::merge`]) is associative and
//! commutative.

use crate::metrics::MetricSet;
use crate::sink::{SinkData, TelemetrySink};
use simbase::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Default bound on retained span events per run (`SIMTEL_RING`).
pub const DEFAULT_RING_CAP: usize = 512;

/// Default cycles between progress snapshots (`SIMTEL_SNAP_CYCLES`).
pub const DEFAULT_SNAP_CYCLES: u64 = 250_000;

/// A summary field attached to a run record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact integer.
    U64(u64),
    /// A float (rendered shortest-round-trip, so it re-parses bit-exact).
    F64(f64),
    /// A float vector (e.g. per-d-group hit fractions).
    F64s(Vec<f64>),
    /// A string.
    Str(String),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::U64(*v),
            Value::F64(v) => Json::F64(*v),
            Value::F64s(vs) => Json::Arr(vs.iter().map(|&v| Json::F64(v)).collect()),
            Value::Str(s) => Json::Str(s.clone()),
        }
    }
}

/// Everything recorded about one completed run.
#[derive(Debug, Clone, Default)]
struct RunRecord {
    fields: Vec<(&'static str, Value)>,
    data: SinkData,
}

/// One wall-clock event on the non-deterministic channel.
#[derive(Debug, Clone)]
struct WallEvent {
    cat: &'static str,
    name: String,
    ts_us: u64,
    dur_us: u64,
    instant: bool,
}

/// The process-wide telemetry collector. Shared via `Arc` between the
/// sweep, the scheduler observer, and the exporter.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    ring_cap: usize,
    snap_cycles: u64,
    runs: Mutex<BTreeMap<(String, String), RunRecord>>,
    wall: Mutex<Vec<WallEvent>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::from_env()
    }
}

impl Telemetry {
    /// A collector with explicit parameters (tests and benches).
    pub fn with_params(ring_cap: usize, snap_cycles: u64) -> Self {
        Telemetry {
            epoch: Instant::now(),
            ring_cap,
            snap_cycles,
            runs: Mutex::new(BTreeMap::new()),
            wall: Mutex::new(Vec::new()),
        }
    }

    /// A collector configured from `SIMTEL_RING` and `SIMTEL_SNAP_CYCLES`
    /// (falling back to [`DEFAULT_RING_CAP`] / [`DEFAULT_SNAP_CYCLES`]).
    pub fn from_env() -> Self {
        let ring_cap = env_parse("SIMTEL_RING", DEFAULT_RING_CAP);
        let snap_cycles = env_parse("SIMTEL_SNAP_CYCLES", DEFAULT_SNAP_CYCLES);
        Telemetry::with_params(ring_cap, snap_cycles)
    }

    /// A fresh recording sink for one run.
    pub fn run_sink(&self) -> TelemetrySink {
        TelemetrySink::recording(self.ring_cap)
    }

    /// Cycles between periodic progress snapshots.
    pub const fn snap_cycles(&self) -> u64 {
        self.snap_cycles
    }

    /// Stores a completed run: its summary `fields` and whatever `sink`
    /// recorded. `dedup` (conventionally the configuration digest)
    /// disambiguates distinct configurations sharing a display label;
    /// re-recording the same `(label, dedup)` keeps the first record.
    pub fn record_run(
        &self,
        label: &str,
        dedup: &str,
        fields: Vec<(&'static str, Value)>,
        sink: &TelemetrySink,
    ) {
        let data = sink.drain();
        self.runs
            .lock()
            .unwrap()
            .entry((label.to_string(), dedup.to_string()))
            .or_insert(RunRecord { fields, data });
    }

    /// Number of recorded runs.
    pub fn runs(&self) -> usize {
        self.runs.lock().unwrap().len()
    }

    /// Records a wall-clock span that ended now and lasted `wall_ns`
    /// (non-deterministic channel).
    pub fn wall_span(&self, cat: &'static str, name: &str, wall_ns: u64) {
        let end_us = self.epoch.elapsed().as_micros() as u64;
        let dur_us = wall_ns / 1_000;
        self.wall.lock().unwrap().push(WallEvent {
            cat,
            name: name.to_string(),
            ts_us: end_us.saturating_sub(dur_us),
            dur_us,
            instant: false,
        });
    }

    /// Records an instantaneous wall-clock mark (e.g. a routed status
    /// line) on the non-deterministic channel.
    pub fn wall_mark(&self, cat: &'static str, name: &str) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.wall.lock().unwrap().push(WallEvent {
            cat,
            name: name.to_string(),
            ts_us,
            dur_us: 0,
            instant: true,
        });
    }

    /// Number of wall-clock events recorded.
    pub fn wall_events(&self) -> usize {
        self.wall.lock().unwrap().len()
    }

    /// Number of wall-clock events recorded in category `cat` — the
    /// per-track view of the wall channel. Sampled runs use it to count
    /// their `"sample-window"` marks and `"simchk"` hit/miss marks.
    pub fn wall_events_in(&self, cat: &str) -> usize {
        self.wall.lock().unwrap().iter().filter(|e| e.cat == cat).count()
    }

    /// Total duration (µs) of wall spans recorded in category `cat`.
    /// This is the sampling-overhead track: comparing `"sample-chain"`
    /// (the functional pass that seeds a lockstep group's intervals)
    /// against `"sample-group"` (the whole group, seeds and windows) shows
    /// where sampled runs' wall time actually went.
    pub fn wall_time_in(&self, cat: &str) -> u64 {
        self.wall
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.cat == cat)
            .map(|e| e.dur_us)
            .sum()
    }

    /// Display labels in export order, disambiguated exactly as the
    /// exporters disambiguate them.
    fn display_labels(runs: &BTreeMap<(String, String), RunRecord>) -> Vec<String> {
        runs.keys()
            .map(|(label, dedup)| {
                let dup = runs.keys().filter(|(l, _)| l == label).count() > 1;
                if dup {
                    format!("{label}#{}", &dedup[..dedup.len().min(8)])
                } else {
                    label.clone()
                }
            })
            .collect()
    }

    /// Renders `metrics.json`: per-run fields and shards plus the
    /// deterministic cross-run merge.
    pub fn render_metrics(&self) -> String {
        let runs = self.runs.lock().unwrap();
        let labels = Self::display_labels(&runs);
        let mut totals = MetricSet::new();
        let mut run_objs = Vec::with_capacity(runs.len());
        for (label, rec) in labels.iter().zip(runs.values()) {
            totals.merge(&rec.data.metrics);
            let mut pairs: Vec<(&str, Json)> =
                rec.fields.iter().map(|(k, v)| (*k, v.to_json())).collect();
            pairs.push(("counters", counters_json(&rec.data.metrics)));
            pairs.push(("gauges", gauges_json(&rec.data.metrics)));
            pairs.push(("hists", hists_json(&rec.data.metrics)));
            pairs.push(("events_retained", Json::U64(rec.data.ring.len() as u64)));
            pairs.push(("events_dropped", Json::U64(rec.data.ring.dropped())));
            run_objs.push((label.as_str(), Json::obj(pairs)));
        }
        Json::obj(vec![
            ("schema", Json::Str("simtel-metrics-v1".into())),
            ("runs", Json::obj(run_objs)),
            (
                "totals",
                Json::obj(vec![
                    ("counters", counters_json(&totals)),
                    ("hists", hists_json(&totals)),
                ]),
            ),
        ])
        .render()
    }

    /// Renders `trace.json`, the deterministic cycle-stamped channel:
    /// one Chrome-trace thread per run, 1 trace µs = 1 simulated cycle.
    pub fn render_trace(&self) -> String {
        let runs = self.runs.lock().unwrap();
        let labels = Self::display_labels(&runs);
        let mut events = vec![meta_event("process_name", 0, 0, "simulation (cycle time)")];
        for (i, (label, rec)) in labels.iter().zip(runs.values()).enumerate() {
            let tid = i as u64 + 1;
            events.push(meta_event("thread_name", 0, tid, label));
            for e in rec.data.ring.iter() {
                let mut pairs = vec![
                    ("name", Json::Str(e.name.into())),
                    ("cat", Json::Str(e.cat.into())),
                ];
                match e.arg {
                    Some(v) => {
                        pairs.push(("ph", Json::Str("C".into())));
                        pairs.push(("ts", Json::U64(e.start)));
                        pairs.push(("args", Json::obj(vec![("value", Json::U64(v))])));
                    }
                    None if e.dur == 0 => {
                        pairs.push(("ph", Json::Str("i".into())));
                        pairs.push(("ts", Json::U64(e.start)));
                        pairs.push(("s", Json::Str("t".into())));
                    }
                    None => {
                        pairs.push(("ph", Json::Str("X".into())));
                        pairs.push(("ts", Json::U64(e.start)));
                        pairs.push(("dur", Json::U64(e.dur)));
                    }
                }
                pairs.push(("pid", Json::U64(0)));
                pairs.push(("tid", Json::U64(tid)));
                events.push(Json::obj(pairs));
            }
        }
        trace_file(events)
    }

    /// Renders `wall.json`, the non-deterministic wall-clock channel
    /// (scheduler spans; timestamps in real µs since collector start).
    pub fn render_wall(&self) -> String {
        let wall = self.wall.lock().unwrap();
        let mut events = vec![meta_event("process_name", 1, 0, "scheduler (wall clock)")];
        for e in wall.iter() {
            let mut pairs = vec![
                ("name", Json::Str(e.name.clone())),
                ("cat", Json::Str(e.cat.into())),
            ];
            if e.instant {
                pairs.push(("ph", Json::Str("i".into())));
                pairs.push(("ts", Json::U64(e.ts_us)));
                pairs.push(("s", Json::Str("p".into())));
            } else {
                pairs.push(("ph", Json::Str("X".into())));
                pairs.push(("ts", Json::U64(e.ts_us)));
                pairs.push(("dur", Json::U64(e.dur_us)));
            }
            pairs.push(("pid", Json::U64(1)));
            pairs.push(("tid", Json::U64(1)));
            events.push(Json::obj(pairs));
        }
        trace_file(events)
    }

    /// Writes `metrics.json`, `trace.json`, and `wall.json` under `dir`
    /// (created if missing).
    pub fn write_all(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("metrics.json"), self.render_metrics())?;
        std::fs::write(dir.join("trace.json"), self.render_trace())?;
        std::fs::write(dir.join("wall.json"), self.render_wall())?;
        Ok(())
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn counters_json(m: &MetricSet) -> Json {
    Json::Obj(m.counters.iter().map(|(k, &v)| (k.clone(), Json::U64(v))).collect())
}

fn gauges_json(m: &MetricSet) -> Json {
    Json::Obj(
        m.gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    Json::obj(vec![("cycle", Json::U64(g.stamp)), ("value", Json::F64(g.value))]),
                )
            })
            .collect(),
    )
}

fn hists_json(m: &MetricSet) -> Json {
    Json::Obj(
        m.hists
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::U64(h.count())),
                        ("mean", Json::F64(h.mean())),
                        ("p50", Json::U64(h.p50())),
                        ("p95", Json::U64(h.p95())),
                        ("p99", Json::U64(h.p99())),
                        ("max", Json::U64(h.max())),
                    ]),
                )
            })
            .collect(),
    )
}

fn meta_event(name: &str, pid: u64, tid: u64, value: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name.into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", Json::obj(vec![("name", Json::Str(value.into()))])),
    ])
}

fn trace_file(events: Vec<Json>) -> String {
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_chrome_trace;

    fn record(t: &Telemetry, label: &str, dedup: &str, frac: f64) {
        let sink = t.run_sink();
        sink.count("l2.accesses", 100);
        sink.observe("chain_len", 3);
        sink.span("nurapid", "dgroup0", 10, 4);
        sink.counter_track("snap", "ipc_milli", 20, 1500);
        t.record_run(
            label,
            dedup,
            vec![
                ("app", Value::Str("galgel".into())),
                ("ipc", Value::F64(1.25)),
                ("group_fracs", Value::F64s(vec![frac, 1.0 - frac])),
            ],
            &sink,
        );
    }

    #[test]
    fn exports_are_independent_of_recording_order() {
        let a = Telemetry::with_params(64, 0);
        record(&a, "nf4/galgel", "d1", 0.75);
        record(&a, "base/galgel", "d2", 0.5);
        let b = Telemetry::with_params(64, 0);
        record(&b, "base/galgel", "d2", 0.5);
        record(&b, "nf4/galgel", "d1", 0.75);
        assert_eq!(a.render_metrics(), b.render_metrics());
        assert_eq!(a.render_trace(), b.render_trace());
    }

    #[test]
    fn rendered_trace_validates_and_counts_events() {
        let t = Telemetry::with_params(64, 0);
        record(&t, "nf4/galgel", "d1", 0.75);
        let s = validate_chrome_trace(&t.render_trace()).expect("valid trace");
        assert_eq!(s.complete_spans, 1);
        assert_eq!(s.counters, 1);
        assert_eq!(s.metadata, 2); // process_name + one thread_name
    }

    #[test]
    fn metrics_fields_roundtrip_bit_exactly() {
        let t = Telemetry::with_params(64, 0);
        let frac = 0.1 + 0.2; // a value with a non-trivial shortest form
        record(&t, "nf4/galgel", "d1", frac);
        let parsed = simbase::json::parse(&t.render_metrics()).expect("parses");
        let run = parsed.field("runs").and_then(|r| r.field("nf4/galgel")).expect("run");
        let fracs = run.field("group_fracs").and_then(Json::as_arr).expect("fracs");
        match fracs[0] {
            Json::F64(v) => assert_eq!(v.to_bits(), frac.to_bits()),
            ref other => panic!("expected F64, got {other:?}"),
        }
        assert_eq!(
            run.field("counters")
                .and_then(|c| c.field("l2.accesses"))
                .and_then(Json::as_u64),
            Some(100)
        );
    }

    #[test]
    fn duplicate_labels_are_disambiguated_by_digest() {
        let t = Telemetry::with_params(64, 0);
        record(&t, "nf4/galgel", "aaaabbbbcccc", 0.75);
        record(&t, "nf4/galgel", "ddddeeeeffff", 0.5);
        let parsed = simbase::json::parse(&t.render_metrics()).expect("parses");
        let runs = parsed.field("runs").expect("runs");
        assert!(runs.field("nf4/galgel#aaaabbbb").is_some());
        assert!(runs.field("nf4/galgel#ddddeeee").is_some());
    }

    #[test]
    fn duplicate_records_keep_the_first() {
        let t = Telemetry::with_params(64, 0);
        record(&t, "nf4/galgel", "d1", 0.75);
        record(&t, "nf4/galgel", "d1", 0.25);
        assert_eq!(t.runs(), 1);
        let parsed = simbase::json::parse(&t.render_metrics()).expect("parses");
        let run = parsed.field("runs").and_then(|r| r.field("nf4/galgel")).expect("run");
        let fracs = run.field("group_fracs").and_then(Json::as_arr).expect("fracs");
        assert_eq!(fracs[0], Json::F64(0.75));
    }

    #[test]
    fn wall_channel_is_separate_and_validates() {
        let t = Telemetry::with_params(64, 0);
        t.wall_span("simsched", "nf4/galgel", 2_000_000);
        t.wall_mark("repro", "tables rendered");
        assert_eq!(t.wall_events(), 2);
        let s = validate_chrome_trace(&t.render_wall()).expect("valid wall trace");
        assert_eq!(s.complete_spans, 1);
        assert_eq!(s.instants, 1);
        // The deterministic channels are untouched by wall events.
        assert_eq!(t.runs(), 0);
        let m = t.render_metrics();
        assert!(!m.contains("nf4/galgel"));
    }

    #[test]
    fn write_all_creates_the_three_files() {
        let t = Telemetry::with_params(64, 0);
        record(&t, "nf4/galgel", "d1", 0.75);
        let dir = std::env::temp_dir().join(format!("simtel-test-{}", std::process::id()));
        t.write_all(&dir).expect("write");
        for f in ["metrics.json", "trace.json", "wall.json"] {
            let path = dir.join(f);
            let src = std::fs::read_to_string(&path).expect("written");
            assert!(simbase::json::parse(&src).is_ok(), "{f} parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wall_category_views_partition_the_channel() {
        let t = Telemetry::with_params(64, 0);
        t.wall_span("sample-chain", "galgel/1-members", 3_000_000);
        t.wall_span("sample-group", "galgel/1-members", 1_000_000);
        t.wall_span("sample-group", "galgel/2-members", 2_000_000);
        t.wall_mark("sample-window", "galgel/w0");
        t.wall_mark("sample-window", "galgel/w1");
        assert_eq!(t.wall_events(), 5);
        assert_eq!(t.wall_events_in("sample-chain"), 1);
        assert_eq!(t.wall_events_in("sample-group"), 2);
        assert_eq!(t.wall_events_in("sample-window"), 2);
        assert_eq!(t.wall_events_in("absent"), 0);
        assert_eq!(t.wall_time_in("sample-chain"), 3_000);
        assert_eq!(t.wall_time_in("sample-group"), 3_000);
        // Marks are instantaneous: a track of marks has zero duration.
        assert_eq!(t.wall_time_in("sample-window"), 0);
    }
}
