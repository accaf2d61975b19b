//! Structured scheduler progress events.
//!
//! The scheduler reports what it is doing through an [`Observer`]
//! callback — the `repro` binary installs one that prints live progress
//! to stderr, tests install counters, and headless runs install none.
//! Events are emitted from worker threads, so observers must be
//! `Send + Sync`; the provided [`Counts`] observer is lock-free.

use simtel::{Console, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a finished job obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Freshly simulated in this process.
    Simulated,
    /// Deduplicated against an identical in-process run (single-flight).
    Shared,
    /// Loaded from a digest-matching on-disk artifact.
    Resumed,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The job entered the queue.
    Queued,
    /// A worker began executing the job.
    Started,
    /// The job finished with the given outcome and wall time.
    Finished {
        /// How the result was obtained.
        outcome: Outcome,
        /// Wall-clock duration of this job on its worker.
        wall_ns: u64,
    },
}

/// One scheduler event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Job label, conventionally `config/app` (e.g. `nf4/galgel`).
    pub label: String,
    /// What happened.
    pub kind: EventKind,
}

/// A scheduler event sink.
pub type Observer = Arc<dyn Fn(&Event) + Send + Sync>;

/// A lock-free counting observer for tests and summaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Jobs queued.
    pub queued: AtomicU64,
    /// Jobs started on a worker.
    pub started: AtomicU64,
    /// Jobs finished by fresh simulation.
    pub simulated: AtomicU64,
    /// Jobs finished by single-flight sharing.
    pub shared: AtomicU64,
    /// Jobs finished from on-disk artifacts.
    pub resumed: AtomicU64,
}

impl Counts {
    /// A fresh counter set.
    pub fn new() -> Arc<Self> {
        Arc::new(Counts::default())
    }

    /// An [`Observer`] that increments these counters.
    pub fn observer(self: &Arc<Self>) -> Observer {
        let me = Arc::clone(self);
        Arc::new(move |e: &Event| {
            let c = match e.kind {
                EventKind::Queued => &me.queued,
                EventKind::Started => &me.started,
                EventKind::Finished { outcome, .. } => match outcome {
                    Outcome::Simulated => &me.simulated,
                    Outcome::Shared => &me.shared,
                    Outcome::Resumed => &me.resumed,
                },
            };
            c.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Total finished jobs.
    pub fn finished(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
            + self.shared.load(Ordering::Relaxed)
            + self.resumed.load(Ordering::Relaxed)
    }
}

/// An [`Observer`] that counts every event, routes progress lines
/// through a [`Console`] (so `--quiet` / `SIMTEL_QUIET` silence stderr
/// without losing the count summary), and — when a telemetry collector
/// is attached — records each simulated job as a wall-clock span on the
/// non-deterministic profiling channel.
pub fn console_observer(
    console: Console,
    counts: Arc<Counts>,
    telemetry: Option<Arc<Telemetry>>,
) -> Observer {
    let counting = counts.observer();
    Arc::new(move |e: &Event| {
        counting(e);
        if let EventKind::Finished { outcome, wall_ns } = e.kind {
            match outcome {
                Outcome::Simulated => {
                    if let Some(tel) = &telemetry {
                        tel.wall_span("simsched", &e.label, wall_ns);
                    }
                    console.status(&format!(
                        "[simsched] done {:<18} {:>7.2}s",
                        e.label,
                        wall_ns as f64 / 1e9
                    ));
                }
                Outcome::Resumed => {
                    console.status(&format!("[simsched] resumed {} from artifact", e.label));
                }
                Outcome::Shared => {}
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observer_tallies_by_kind() {
        let counts = Counts::new();
        let obs = counts.observer();
        let fire = |kind| {
            obs(&Event {
                label: "nf4/galgel".into(),
                kind,
            })
        };
        fire(EventKind::Queued);
        fire(EventKind::Started);
        fire(EventKind::Finished {
            outcome: Outcome::Simulated,
            wall_ns: 5,
        });
        fire(EventKind::Finished {
            outcome: Outcome::Resumed,
            wall_ns: 1,
        });
        fire(EventKind::Finished {
            outcome: Outcome::Shared,
            wall_ns: 0,
        });
        assert_eq!(counts.queued.load(Ordering::Relaxed), 1);
        assert_eq!(counts.started.load(Ordering::Relaxed), 1);
        assert_eq!(counts.simulated.load(Ordering::Relaxed), 1);
        assert_eq!(counts.resumed.load(Ordering::Relaxed), 1);
        assert_eq!(counts.shared.load(Ordering::Relaxed), 1);
        assert_eq!(counts.finished(), 3);
    }

    #[test]
    fn console_observer_counts_and_mirrors_to_the_wall_channel() {
        let counts = Counts::new();
        let tel = Arc::new(Telemetry::with_params(8, 0));
        let console = Console::new(true).with_mirror(Arc::clone(&tel));
        let obs = console_observer(console, Arc::clone(&counts), Some(Arc::clone(&tel)));
        let fire = |label: &str, outcome| {
            obs(&Event {
                label: label.into(),
                kind: EventKind::Finished {
                    outcome,
                    wall_ns: 2_000_000,
                },
            })
        };
        fire("nf4/galgel", Outcome::Simulated);
        fire("base/galgel", Outcome::Resumed);
        fire("dm4/galgel", Outcome::Shared);
        assert_eq!(counts.finished(), 3);
        // One wall span (simulated) + two mirrored status marks
        // (done + resumed); shared jobs are silent.
        assert_eq!(tel.wall_events(), 3);
    }
}
