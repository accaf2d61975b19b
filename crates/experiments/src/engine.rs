//! The measured-phase engine (DESIGN.md §11): the one place a single-core
//! system is built, warmed up or restored from a checkpoint, drained at
//! the stats boundary, stepped, and read out.
//!
//! Every single-core driver runs through it:
//!
//! - the full-detail run ([`crate::runner::run_app_opts`]): one window
//!   spanning the whole measured phase;
//! - the L4 resize-transient run ([`crate::runner::run_app_transient`]):
//!   equal instruction windows;
//! - the SMARTS interval jobs of [`crate::sampling`]: a system seeded
//!   from snapshot bytes, fast-forwarded between detailed windows.
//!
//! A window's result is the exact difference of two [`Counters`]
//! snapshots taken at its boundaries, and a phase is priced once, by
//! [`Counters::price`]. Nothing observes the run between boundaries: the
//! inner loop is the trace generator feeding [`OooCore::execute`] plus
//! the L4 resize cursor.

use crate::runner::{warmup_digest, L2Kind, RunOptions, Scale, WarmupMode, TRACE_SEED};
use cpu::uop::TraceSource;
use cpu::{CoreParams, CoreResult, OooCore};
use energy::core::CoreEnergyModel;
use energy::EnergyTally;
use memsys::dramcache::L4Stats;
use memsys::l1::CoreMemSystem;
use memsys::org::{OrgReport, Organization};
use simbase::digest::Digest;
use simbase::snapshot::{Decoder, Encoder};
use simtel::TelemetrySink;
use std::sync::Arc;
use std::time::Instant;
use workloads::{BenchProfile, TraceGenerator};

/// The single-core system every driver steps.
pub type System = OooCore<Box<dyn Organization>>;

/// Builds a fresh system for `kind`: the organization prefilled to
/// steady-state occupancy, the paper's core and L1s over it, and
/// `profile`'s trace generator at op 0.
pub fn build(profile: BenchProfile, kind: &L2Kind) -> (System, TraceGenerator) {
    let mut lower = kind.build();
    lower.prefill();
    let core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower));
    (core, TraceGenerator::new(profile, TRACE_SEED))
}

/// Serialises the architectural state in checkpoint-payload order:
/// generator, predictor, L1s, organization. Warm-up checkpoints and
/// sampled-interval snapshots share this layout, so interval 0 of a
/// sampled run *is* the ordinary warm-up checkpoint.
pub fn save_arch(core: &System, gen: &TraceGenerator) -> Vec<u8> {
    let mut e = Encoder::new();
    gen.save_state(&mut e);
    core.predictor().save_state(&mut e);
    core.mem().save_l1_state(&mut e);
    core.mem().lower().save_state(&mut e);
    e.into_bytes()
}

/// Restores a [`save_arch`] payload into a freshly [`build`]-built system.
///
/// # Panics
///
/// Panics on a payload of another configuration. The checkpoint store
/// verifies every blob's checksum and keys it by a digest of the whole
/// architectural configuration, so this only fires on a digest bug.
fn restore_arch(core: &mut System, gen: &mut TraceGenerator, blob: &[u8]) {
    let mut d = Decoder::new(blob);
    gen.load_state(&mut d).expect("checkpoint: generator state");
    core.predictor_mut()
        .load_state(&mut d)
        .expect("checkpoint: predictor state");
    core.mem_mut()
        .load_l1_state(&mut d)
        .expect("checkpoint: L1 state");
    core.mem_mut()
        .lower_mut()
        .load_state(&mut d)
        .expect("checkpoint: lower-cache state");
    d.finish().expect("checkpoint: trailing bytes");
}

/// Serves `digest` from the checkpoint store in `opts`, building the
/// payload with `build` on a miss, and marks the outcome on the wall
/// channel as `simchk` `hit/<label>` or `miss/<label>`. Returns `None`
/// without a store; the caller then warms up in place.
pub(crate) fn checkpoint(
    opts: &RunOptions<'_>,
    digest: Digest,
    label: &str,
    build: impl FnOnce() -> Vec<u8>,
) -> Option<Arc<Vec<u8>>> {
    let store = opts.checkpoints?;
    let (blob, hit) = store.get_or_build(digest, build);
    if let Some(w) = opts.wall {
        let outcome = if hit { "hit" } else { "miss" };
        w.wall_mark("simchk", &format!("{outcome}/{label}"));
    }
    Some(blob)
}

/// Every counter a measured phase accumulates on one core: the core's
/// commit counters, the L1 accesses, the organization's report, and the
/// L4 tier's events. All of them are exact event counts except the
/// organization's energy, which the organization prices from its own
/// counts, so [`minus`](Counters::minus) and [`plus`](Counters::plus)
/// lose nothing but that one f64's rounding.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Core commit counters.
    pub core: CoreResult,
    /// L1 (I + D) accesses.
    pub l1_accesses: u64,
    /// The lower organization's report.
    pub org: OrgReport,
    /// L4 events, when an L4 tier is attached.
    pub l4: Option<L4Stats>,
}

impl Counters {
    /// Reads the counters accumulated since `core`'s last drain barrier.
    fn read(core: &System) -> Counters {
        let lower = core.mem().lower();
        Counters {
            core: core.finish(),
            l1_accesses: core.mem().l1_accesses(),
            org: lower.report(),
            l4: lower.main_memory().and_then(|m| m.l4_stats()),
        }
    }

    /// Field-wise `self - earlier`: the events of the window between two
    /// snapshots of one phase.
    #[must_use]
    pub fn minus(&self, earlier: &Counters) -> Counters {
        Counters {
            core: self.core.minus(&earlier.core),
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            org: self.org.minus(&earlier.org),
            l4: self.l4.map(|s| s.minus(&earlier.l4.unwrap_or_default())),
        }
    }

    /// Field-wise `self + other`: the events of two disjoint windows.
    #[must_use]
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            core: self.core.plus(&other.core),
            l1_accesses: self.l1_accesses + other.l1_accesses,
            org: self.org.plus(&other.org),
            l4: match (self.l4, other.l4) {
                (Some(a), Some(b)) => Some(a.plus(&b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Prices the full-system energy tally: core, L1, and memory from the
    /// paper's per-event models, the L2 from the organization's report.
    /// With an L4 attached the memory tier is priced by
    /// [`energy::l4::memory_energy`]: only traffic that crossed the DRAM
    /// channel costs the off-chip rate, plus the L4's own access and
    /// tag-probe energy. Without one, every off-chip access is a full
    /// DRAM transfer.
    pub fn price(&self) -> EnergyTally {
        let m = CoreEnergyModel::micro2003();
        let memory = match &self.l4 {
            Some(s) => energy::l4::memory_energy(s.dram_blocks(), s.tag_probes, s.accesses),
            None => m.memory_energy(self.org.memory_accesses),
        };
        EnergyTally {
            core: m.core_energy(&self.core),
            l1: m.l1_energy(self.l1_accesses),
            l2: self.org.l2_energy,
            memory,
        }
    }
}

/// A single-core system past the drain barrier, stepping its measured
/// phase: `done` detailed ops so far, with the L4 resize schedule applied
/// at its op indices.
pub struct Phase<'k> {
    core: System,
    gen: TraceGenerator,
    resizes: &'k [(u64, u32)],
    next_resize: usize,
    done: u64,
}

impl<'k> Phase<'k> {
    /// Builds the system for `kind`, runs warm-up in `opts.mode` (or
    /// restores it through the checkpoint store in `opts`), and crosses the
    /// drain barrier with `sink` attached. With a store, the warm state
    /// comes out of decoded bytes on both the build and the reuse path, so
    /// cold and warm runs are structurally identical.
    pub fn warmed(
        profile: BenchProfile,
        kind: &'k L2Kind,
        scale: Scale,
        sink: &TelemetrySink,
        snap_every: u64,
        opts: RunOptions<'_>,
    ) -> Phase<'k> {
        let (mut core, mut gen) = build(profile, kind);
        let warm = |core: &mut System, gen: &mut TraceGenerator| match opts.mode {
            WarmupMode::FastForward => core.warm_run(gen, scale.warmup),
            WarmupMode::Timed => core.run(gen, scale.warmup),
        };
        let t_warm = Instant::now();
        let digest = warmup_digest(&profile, kind, scale);
        match checkpoint(&opts, digest, profile.name, || {
            warm(&mut core, &mut gen);
            save_arch(&core, &gen)
        }) {
            Some(blob) => restore_arch(&mut core, &mut gen, &blob),
            None => warm(&mut core, &mut gen),
        }
        if let Some(w) = opts.wall {
            let cat = match opts.mode {
                WarmupMode::FastForward => "warmup-ff",
                WarmupMode::Timed => "warmup-timed",
            };
            let name = format!("{}/{}-ops", profile.name, scale.warmup);
            w.wall_span(cat, &name, t_warm.elapsed().as_nanos() as u64);
        }
        Phase::at_barrier(core, gen, kind.resize_schedule(), sink, snap_every)
    }

    /// Seeds a system from [`save_arch`] bytes and crosses the drain
    /// barrier: a sampled interval's start. No resize schedule applies.
    pub fn seeded(profile: BenchProfile, kind: &L2Kind, blob: &[u8]) -> Phase<'static> {
        let (mut core, mut gen) = build(profile, kind);
        restore_arch(&mut core, &mut gen, blob);
        Phase::at_barrier(core, gen, &[], &TelemetrySink::disabled(), 0)
    }

    /// Crosses the drain barrier: the core's own (L1s, predictor, cycle
    /// zero) plus the organization's timing drain and stats reset. The
    /// telemetry sink attaches only after it, so exported metrics and
    /// spans cover exactly the measured window.
    fn at_barrier(
        core: System,
        gen: TraceGenerator,
        resizes: &'k [(u64, u32)],
        sink: &TelemetrySink,
        snap_every: u64,
    ) -> Phase<'k> {
        sink.reset();
        let mut core = core.drain_barrier(|org| {
            org.drain_timing();
            org.reset_stats();
            org.set_telemetry(sink, snap_every);
        });
        core.mem_mut().set_telemetry(sink.clone());
        core.set_telemetry(sink.clone(), snap_every);
        Phase {
            core,
            gen,
            resizes,
            next_resize: 0,
            done: 0,
        }
    }

    /// Detailed measured-phase ops executed so far.
    pub(crate) fn done(&self) -> u64 {
        self.done
    }

    /// The counters accumulated since the barrier.
    pub fn counters(&self) -> Counters {
        Counters::read(&self.core)
    }

    /// Live L4 bank count (0 without an L4 tier).
    pub(crate) fn l4_banks(&self) -> u32 {
        let main = self.core.mem().lower().main_memory();
        main.and_then(|m| m.l4()).map_or(0, |l| l.n_banks())
    }

    /// Executes detailed ops until `end` have run since the barrier,
    /// applying every resize scheduled at each op index first.
    pub fn run_to(&mut self, end: u64) {
        let (mut i, mut next) = (self.done, self.next_resize);
        while i < end {
            while next < self.resizes.len() && self.resizes[next].0 == i {
                let now = simbase::Cycle::new(self.core.cycles());
                self.core
                    .mem_mut()
                    .lower_mut()
                    .main_memory_mut()
                    .expect("a resize schedule needs a DRAM-backed organization")
                    .resize_l4(self.resizes[next].1, now);
                next += 1;
            }
            let op = self.gen.next_op();
            self.core.execute(op);
            i += 1;
        }
        (self.done, self.next_resize) = (i, next);
    }

    /// Runs `n` more detailed ops and returns their [`Counters`] delta:
    /// the one window observer.
    pub(crate) fn window(&mut self, n: u64) -> Counters {
        let before = self.counters();
        self.run_to(self.done + n);
        self.counters().minus(&before)
    }

    /// Functional fast-forward (no timing, no counters) until the trace
    /// has emitted `offset` ops in total, warm-up included.
    pub(crate) fn fast_forward_to(&mut self, offset: u64) {
        self.core.warm_run_to(&mut self.gen, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exps::{dram_kind, DRAM_WINDOWS};
    use crate::runner::transient_counters;
    use simbase::EnergyNj;
    use workloads::profiles::by_name;

    /// Asserts `a == b` in every count, and in the organization's energy
    /// (the one priced f64) up to rounding.
    fn assert_same_counts(a: &Counters, b: &Counters) {
        let (ea, eb) = (a.org.l2_energy.nj(), b.org.l2_energy.nj());
        assert!(
            (ea - eb).abs() <= 1e-9 * ea.max(eb),
            "L2 energy {ea} vs {eb}"
        );
        let counts = |c: &Counters| {
            let mut c = c.clone();
            c.org.l2_energy = EnergyNj::ZERO;
            c
        };
        assert_eq!(counts(a), counts(b));
    }

    /// The counter algebra on the `dram` scenario: the eight window
    /// deltas, resizes and all, add up to the whole measured phase.
    #[test]
    fn dram_window_deltas_add_up_to_the_whole_phase() {
        let scale = Scale {
            warmup: 10_000,
            measure: 16_000,
        };
        let (total, windows) = transient_counters(
            by_name("galgel").unwrap(),
            &dram_kind(scale),
            scale,
            DRAM_WINDOWS,
            RunOptions::default(),
        );
        assert_eq!(windows.len(), DRAM_WINDOWS);
        let sum = windows
            .iter()
            .map(|w| w.counters.clone())
            .reduce(|a, b| a.plus(&b))
            .unwrap();
        assert_same_counts(&sum, &total);
        assert_eq!(total.core.instructions, scale.measure);
        assert_eq!(total.l4.expect("the dram scenario has an L4").resizes, 2);
        let banks: Vec<u32> = windows.iter().map(|w| w.n_banks).collect();
        assert_eq!(
            banks,
            [8, 8, 8, 4, 4, 4, 12, 12],
            "resizes land on window boundaries"
        );
    }
}
