//! `simtel` — the workspace's hermetic, std-only telemetry subsystem.
//!
//! The paper's results are entirely distributional (fractions of hits
//! per d-group, demotion chains, energy breakdowns — NuRAPID, MICRO
//! 2003 §5), and a production-scale simulator needs an observability
//! layer to profile against. This crate supplies it with zero external
//! dependencies:
//!
//! - [`metrics`] / [`hist`] — a **metrics registry**: named counters,
//!   cycle-stamped gauges, and log-scaled histograms with p50/p95/p99
//!   estimates, kept in one shard per run and merged deterministically
//!   (associative + commutative), so parallel sweeps aggregate
//!   bit-identically for any worker-thread count;
//! - [`ring`] / [`sink`] — **cycle-stamped spans and events** (tag
//!   probes, d-group accesses, demotion chains, MSHR stalls, DRAM round
//!   trips) in a bounded ring behind the [`TelemetrySink`] handle, which
//!   is a no-op by default and free when disabled (timed against no sink
//!   in `tests/telemetry_integration.rs`);
//! - [`telemetry`] — the aggregator and **exporters**: Chrome
//!   trace-event JSON for `chrome://tracing`/Perfetto (`trace.json`,
//!   deterministic; `wall.json`, the separate wall-clock profiling
//!   channel) and a flat `metrics.json` snapshot per sweep;
//! - [`trace`] — an in-tree validator for the exported trace format;
//! - [`console`] — quiet-aware status lines (`--quiet`/`SIMTEL_QUIET`).
//!
//! The simulator crates (`cpu`, `memsys`, `nuca`, `nurapid`) accept a
//! [`TelemetrySink`] via `set_telemetry`; `experiments` threads one sink
//! per run and hands the drained data to [`Telemetry`]; the `repro`
//! binary surfaces the whole subsystem as `--telemetry <dir>` /
//! `SIMTEL_DIR`.
//!
//! # Examples
//!
//! ```
//! use simtel::{Telemetry, TelemetrySink, Value};
//!
//! let tel = Telemetry::with_params(256, 0);
//! let sink = tel.run_sink();
//! sink.count("l2.accesses", 1);
//! sink.observe("dram.round_trip_cycles", 240);
//! sink.span("nurapid", "demotion_chain", 1_000, 12);
//! tel.record_run("nf4/galgel", "digest", vec![("ipc", Value::F64(1.5))], &sink);
//! assert!(simtel::trace::validate_chrome_trace(&tel.render_trace()).is_ok());
//! ```

pub mod console;
pub mod hist;
pub mod l4names;
pub mod metrics;
pub mod percore;
pub mod ring;
pub mod sink;
pub mod telemetry;
pub mod trace;

pub use console::Console;
pub use hist::LogHist;
pub use metrics::MetricSet;
pub use sink::{SinkData, TelemetrySink};
pub use telemetry::{Telemetry, Value};
