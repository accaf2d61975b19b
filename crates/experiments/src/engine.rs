//! The measured-phase engine (DESIGN.md §11): the one place a single-core
//! system is built, warmed up or restored from a checkpoint, drained at
//! the stats boundary, stepped, and read out. Its warm-up path
//! (`warm_up`) is also the CMP driver's ([`crate::cmp::warmed`]).
//!
//! Every single-core driver runs through it:
//!
//! - the full-detail run ([`crate::runner::run_app_opts`]): one window
//!   spanning the whole measured phase;
//! - the L4 resize-transient run ([`crate::runner::run_app_transient`]):
//!   equal instruction windows;
//! - the SMARTS interval jobs of [`crate::sampling`]: systems seeded
//!   from snapshots, streamed from the checkpoint store or held in memory
//!   (`seeds`), fast-forwarded between detailed windows by one lockstep
//!   front end. The snapshots come from a chain that serves every run of
//!   a lockstep group at once.
//!
//! A window's result is the exact difference of two [`Counters`]
//! snapshots taken at its boundaries, and a phase is priced once, by
//! [`Counters::price`]. Nothing observes the run between boundaries: the
//! inner loop is the trace generator feeding [`OooCore::execute`] plus
//! the L4 resize cursor.

use crate::checkpoint::{CheckpointStore, Checkpointed, PinGuard, Unserved};
use crate::frontend::{frontend_digest, FrontEnd, Lockstep};
use crate::runner::{warmup_digest, L2Kind, RunOptions, Scale, WarmupMode, TRACE_SEED};
use cpu::uop::TraceSource;
use cpu::{CoreParams, CoreResult, OooCore};
use energy::core::CoreEnergyModel;
use energy::EnergyTally;
use memsys::dramcache::L4Stats;
use memsys::l1::CoreMemSystem;
use memsys::lower::LowerCache;
use memsys::org::{OrgReport, Organization};
use simbase::digest::Digest;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simtel::{Telemetry, TelemetrySink};
use std::sync::Arc;
use std::time::Instant;
use workloads::{BenchProfile, TraceGenerator};

/// The single-core system every driver steps.
pub type System = OooCore<Box<dyn Organization>>;

/// Builds a fresh system for `kind`: the organization prefilled to
/// steady-state occupancy, the paper's core and L1s over it, and
/// `profile`'s trace generator at op 0.
pub fn build(profile: BenchProfile, kind: &L2Kind) -> (System, TraceGenerator) {
    let (mut core, gen) = build_unfilled(profile, kind);
    core.mem_mut().lower_mut().prefill();
    (core, gen)
}

/// [`build`] without the prefill: the system a checkpoint payload is
/// restored into, since the restore overwrites every byte a prefill
/// would write.
fn build_unfilled(profile: BenchProfile, kind: &L2Kind) -> (System, TraceGenerator) {
    let core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(kind.build()));
    (core, TraceGenerator::new(profile, TRACE_SEED))
}

/// Encodes the architectural state in checkpoint-payload order:
/// generator, predictor, L1s, organization. Warm-up checkpoints and
/// sampled-interval snapshots share this layout, so interval 0 of a
/// sampled run *is* the ordinary warm-up checkpoint. `org` is the
/// organization behind `core`'s L1s, or one of several a lockstep front
/// end drives.
pub(crate) fn save_payload<L: LowerCache>(
    gen: &TraceGenerator,
    core: &OooCore<L>,
    org: &dyn Organization,
    e: &mut Encoder<'_>,
) {
    gen.save_state(e);
    core.predictor().save_state(e);
    core.mem().save_l1_state(e);
    org.save_state(e);
}

fn save_into(core: &System, gen: &TraceGenerator, e: &mut Encoder<'_>) {
    save_payload(gen, core, &**core.mem().lower(), e);
}

/// The checkpoint payload of `core` and `gen`, in memory.
pub fn save_arch(core: &System, gen: &TraceGenerator) -> Vec<u8> {
    let mut e = Encoder::new();
    save_into(core, gen, &mut e);
    e.into_bytes()
}

/// Marks a checkpoint request's outcome on the wall channel as `simchk`
/// `hit/<label>` or `miss/<label>`.
fn mark(wall: Option<&Telemetry>, hit: bool, label: &str) {
    if let Some(w) = wall {
        let outcome = if hit { "hit" } else { "miss" };
        w.wall_mark("simchk", &format!("{outcome}/{label}"));
    }
}

impl Checkpointed for (System, TraceGenerator) {
    fn save(&self, e: &mut Encoder<'_>) {
        save_into(&self.0, &self.1, e);
    }

    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let (core, gen) = self;
        gen.load_state(d)?;
        core.predictor_mut().load_state(d)?;
        core.mem_mut().load_l1_state(d)?;
        core.mem_mut().lower_mut().load_state(d)
    }
}

/// The one warm-up path, taken by [`Phase::warmed`] and the CMP driver:
/// returns a system built by `unfilled` and warmed, ready for its drain
/// barrier.
///
/// With a checkpoint store in `opts`, the checkpoint keyed by `digest` is
/// streamed into the system. On a miss the system is warmed in place and
/// streamed into the checkpoint's file, then restored from that file, so
/// cold and warm runs both come out of decoded bytes. A stream that fails
/// part-way leaves the system half-written, so it is dropped for a fresh
/// unfilled one and warmed again. Without a store, or if the publish
/// failed, the system stays warmed in place. Warming in place calls
/// `warm(sys, ops)` on an unfilled system, which prefills it and runs the
/// warm-up. The store's outcome is marked as `simchk` `hit/<label>` or
/// `miss/<label>`, and the wall time as a `cat` span named
/// `<label>/<ops>-ops`.
pub(crate) fn warm_up<S: Checkpointed>(
    unfilled: impl Fn() -> S,
    opts: &RunOptions<'_>,
    digest: Digest,
    label: &str,
    cat: &'static str,
    ops: u64,
    warm: impl Fn(&mut S, u64),
) -> S {
    let t_warm = Instant::now();
    let warm = |sys: &mut S| warm(sys, ops);
    let mut sys = unfilled();
    match opts.checkpoints {
        Some(store) => {
            let hit = store.restore_or_build(digest, &mut sys, |s| *s = unfilled(), warm);
            mark(opts.wall, hit, label);
            if !hit && store.restore(digest, &mut sys) == Err(Unserved::Damaged) {
                sys = unfilled();
                warm(&mut sys);
            }
        }
        None => warm(&mut sys),
    }
    if let Some(w) = opts.wall {
        let name = format!("{label}/{ops}-ops");
        w.wall_span(cat, &name, t_warm.elapsed().as_nanos() as u64);
    }
    sys
}

/// The front end of `profile`'s `ops`-op functional warm-up over lower
/// blocks of `block_bytes`: shared through the claim in `opts` when a
/// sweep planned the run, recorded for this run alone otherwise. A
/// recording is timed as a `warmup-frontend` wall span named
/// `<app>/<ops>-ops`.
fn front_end(
    profile: BenchProfile,
    ops: u64,
    block_bytes: u64,
    opts: &RunOptions<'_>,
) -> Arc<FrontEnd> {
    let record = || {
        let t_record = Instant::now();
        let front = FrontEnd::record(profile, ops, block_bytes);
        if let Some(w) = opts.wall {
            let name = format!("{}/{ops}-ops", profile.name);
            w.wall_span("warmup-frontend", &name, t_record.elapsed().as_nanos() as u64);
        }
        front
    };
    match opts.frontend {
        Some(claim) => claim.front_end(frontend_digest(&profile, ops, block_bytes), record),
        None => Arc::new(record()),
    }
}

/// Where a sampled interval's starting state comes from.
pub(crate) enum Seed<'s> {
    /// A snapshot file in the checkpoint store, pinned for the run, taken
    /// at absolute trace offset `offset`.
    Stored {
        store: &'s CheckpointStore,
        digest: Digest,
        offset: u64,
        _pin: PinGuard,
    },
    /// Snapshot bytes held in memory, when there is no store to stream
    /// from.
    Held(Vec<u8>),
}

/// One sampled run's snapshot chain: the organization it seeds, and the
/// absolute trace offset and digest of each point, offsets ascending.
/// The digests cover the organization's architectural knobs, so two
/// members with equal points build equal states.
#[derive(Debug, Clone)]
pub struct ChainMember {
    /// The organization.
    pub kind: L2Kind,
    /// `(offset, digest)` per point.
    pub points: Vec<(u64, Digest)>,
}

/// The functional systems behind a chain, built on its first miss: one
/// [`Lockstep`] front end per lower block size, driving the organizations
/// of its members together. Members with equal points share an
/// organization.
struct Chain<'m> {
    profile: BenchProfile,
    members: &'m [ChainMember],
    fronts: Vec<Lockstep>,
    /// Per member: its front end and organization index there.
    place: Vec<(usize, usize)>,
}

impl<'m> Chain<'m> {
    fn new(profile: BenchProfile, members: &'m [ChainMember]) -> Self {
        Chain {
            profile,
            members,
            fronts: Vec::new(),
            place: Vec::new(),
        }
    }

    /// Builds every member's organization, prefilled, and groups them by
    /// block size behind fresh front ends.
    fn build(&mut self) {
        let mut groups: Vec<(u64, Vec<Box<dyn Organization>>)> = Vec::new();
        for (m, member) in self.members.iter().enumerate() {
            if let Some(twin) = self.members[..m].iter().position(|o| o.points == member.points) {
                self.place.push(self.place[twin]);
                continue;
            }
            let mut org = member.kind.build();
            org.prefill();
            let block = org.block_bytes();
            let g = match groups.iter().position(|(b, _)| *b == block) {
                Some(g) => g,
                None => {
                    groups.push((block, Vec::new()));
                    groups.len() - 1
                }
            };
            self.place.push((g, groups[g].1.len()));
            groups[g].1.push(org);
        }
        let profile = self.profile;
        self.fronts = groups.into_iter().map(|(_, orgs)| Lockstep::new(profile, orgs)).collect();
    }

    /// Advances member `m`'s front end to absolute trace offset `abs`.
    fn advance(&mut self, m: usize, abs: u64) {
        if self.fronts.is_empty() {
            self.build();
        }
        self.fronts[self.place[m].0].advance_to(abs);
    }

    /// Encodes member `m`'s system as a checkpoint payload.
    fn save(&self, m: usize, e: &mut Encoder<'_>) {
        let (f, i) = self.place[m];
        self.fronts[f].save(i, e);
    }
}

/// One member's point of a chain as the store serves it: a hit streams
/// the stored file through its checksum without decoding it, and a miss
/// publishes the member's state, which the build advanced to the point.
struct Slot<'c, 'm> {
    chain: &'c mut Chain<'m>,
    m: usize,
}

impl Checkpointed for Slot<'_, '_> {
    fn save(&self, e: &mut Encoder<'_>) {
        self.chain.save(self.m, e);
    }

    fn restore(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        d.skip(d.remaining())
    }
}

/// Publishes the snapshot chain of `profile` for every member into
/// `store`. Points go in trace order (members in order at one offset),
/// and each (member, point) is asked of the store once: a file the store
/// holds is a hit; any other point is built and published, a miss. The
/// first miss builds the chain's systems, and from then on one functional
/// pass of generator → core → L1s per lower block size advances, its L2
/// warm stream presented to every member's organization as it is made
/// (DESIGN.md §11), so every member is built from the start whichever
/// point first missed. Each request is marked `<app>@<offset>` on the
/// wall channel.
pub fn publish_chain(
    profile: BenchProfile,
    members: &[ChainMember],
    store: &CheckpointStore,
    wall: Option<&Telemetry>,
) {
    let mut order: Vec<(u64, usize, Digest)> = members
        .iter()
        .enumerate()
        .flat_map(|(m, member)| member.points.iter().map(move |&(abs, d)| (abs, m, d)))
        .collect();
    order.sort_by_key(|&(abs, m, _)| (abs, m));
    let mut chain = Chain::new(profile, members);
    for (abs, m, digest) in order {
        let mut slot = Slot {
            chain: &mut chain,
            m,
        };
        let hit = store.restore_or_build(digest, &mut slot, |_| {}, |s| s.chain.advance(s.m, abs));
        mark(wall, hit, &format!("{}@{abs}", profile.name));
    }
}

/// The seeds of a chain whose members share their points' offsets: per
/// point, one seed per member, in member order. With a checkpoint store
/// in `opts` each seed is a file in the store, pinned while the seed
/// lives and published by [`publish_chain`]; without one the chain's
/// snapshots are held in memory. The chain is timed as a `sample-chain`
/// wall span named `<app>/<members>-members`.
pub(crate) fn seeds<'s>(
    profile: BenchProfile,
    members: &[ChainMember],
    opts: &RunOptions<'s>,
) -> Vec<Vec<Seed<'s>>> {
    let t_chain = Instant::now();
    let points = 0..members[0].points.len();
    let seeds = match opts.checkpoints {
        Some(store) => {
            let stored = |c: &ChainMember, p: usize| {
                let (offset, digest) = c.points[p];
                let _pin = store.pin(digest);
                Seed::Stored {
                    store,
                    digest,
                    offset,
                    _pin,
                }
            };
            let seeds = points.map(|p| members.iter().map(|c| stored(c, p)).collect()).collect();
            publish_chain(profile, members, store, opts.wall);
            seeds
        }
        None => {
            let mut chain = Chain::new(profile, members);
            let mut held = |m: usize, p: usize| {
                chain.advance(m, members[m].points[p].0);
                let mut e = Encoder::new();
                chain.save(m, &mut e);
                Seed::Held(e.into_bytes())
            };
            points.map(|p| (0..members.len()).map(|m| held(m, p)).collect()).collect()
        }
    };
    if let Some(w) = opts.wall {
        let name = format!("{}/{}-members", profile.name, members.len());
        w.wall_span("sample-chain", &name, t_chain.elapsed().as_nanos() as u64);
    }
    seeds
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

    /// Encodes every counter: the core's, the L1 accesses, the
    /// organization's report, and the L4 events when there are any.
    pub fn save_state(&self, e: &mut Encoder<'_>) {
        self.core.save_state(e);
        e.put_u64(self.l1_accesses);
        self.org.save_state(e);
        e.put_bool(self.l4.is_some());
        if let Some(l4) = &self.l4 {
            l4.save_state(e);
        }
    }

    /// Decodes a [`Counters::save_state`] encoding, equal to the saved
    /// counters bit for bit.
    ///
    /// # Errors
    ///
    /// The first decode error.
    pub fn load_state(d: &mut Decoder<'_>) -> Result<Counters, SnapshotError> {
        Ok(Counters {
            core: CoreResult::load_state(d)?,
            l1_accesses: d.u64()?,
            org: OrgReport::load_state(d)?,
            l4: match d.bool()? {
                true => Some(L4Stats::load_state(d)?),
                false => None,
            },
        })
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
    /// Builds the system for `kind`, warms it up through `warm_up` in
    /// `opts.mode`, and crosses the drain barrier with `sink` attached.
    pub fn warmed(
        profile: BenchProfile,
        kind: &'k L2Kind,
        scale: Scale,
        sink: &TelemetrySink,
        snap_every: u64,
        opts: RunOptions<'_>,
    ) -> Phase<'k> {
        let digest = warmup_digest(&profile, kind, scale);
        let unfilled = || build_unfilled(profile, kind);
        let (label, ops) = (profile.name, scale.warmup);
        let (core, gen) = match opts.mode {
            WarmupMode::FastForward => {
                let replay = |(core, gen): &mut (System, TraceGenerator), n| {
                    let block_bytes = core.mem().lower().block_bytes();
                    let front = front_end(profile, n, block_bytes, &opts);
                    core.mem_mut().lower_mut().prefill();
                    front.replay(core, gen);
                };
                warm_up(unfilled, &opts, digest, label, "warmup-ff", ops, replay)
            }
            WarmupMode::Timed => {
                let run = |(core, gen): &mut (System, TraceGenerator), n| {
                    core.mem_mut().lower_mut().prefill();
                    core.run(gen, n);
                };
                warm_up(unfilled, &opts, digest, label, "warmup-timed", ops, run)
            }
        };
        if let Some(claim) = opts.frontend {
            claim.release();
        }
        Phase::at_barrier(core, gen, kind.resize_schedule(), sink, snap_every)
    }

    /// Seeds a system from [`save_arch`] bytes and crosses the drain
    /// barrier: a sampled interval's start. No resize schedule applies.
    pub fn seeded(profile: BenchProfile, kind: &L2Kind, blob: &[u8]) -> Phase<'static> {
        let mut sys = build_unfilled(profile, kind);
        let mut d = Decoder::new(blob);
        sys.restore(&mut d)
            .and_then(|()| d.finish())
            .expect("snapshot bytes of this configuration");
        let (core, gen) = sys;
        Phase::at_barrier(core, gen, &[], &TelemetrySink::disabled(), 0)
    }

    /// [`Phase::seeded`] from a sampled interval's [`Seed`]: a stored
    /// seed streams from its file.
    pub(crate) fn from_seed(
        profile: BenchProfile,
        kind: &L2Kind,
        seed: &Seed<'_>,
    ) -> Phase<'static> {
        let (store, digest, offset) = match seed {
            Seed::Held(blob) => return Phase::seeded(profile, kind, blob),
            Seed::Stored {
                store,
                digest,
                offset,
                ..
            } => (store, *digest, *offset),
        };
        let mut sys = build_unfilled(profile, kind);
        if store.restore(digest, &mut sys).is_err() {
            // The pinned file went missing or bad under another process:
            // derive its state again, functionally.
            sys = build(profile, kind);
            sys.0.warm_run_to(&mut sys.1, offset);
        }
        let (core, gen) = sys;
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
        let mut core = core.drain_barrier(|org| org.drain_barrier(sink, snap_every));
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

    /// The core and trace generator: a functional front end starts or
    /// resumes from them ([`crate::frontend::Lockstep::behind`],
    /// [`crate::frontend::Lockstep::resume`]).
    pub(crate) fn front(&self) -> (&System, &TraceGenerator) {
        (&self.core, &self.gen)
    }

    /// Takes up the trace where a functional front end (`core` fed by
    /// `gen`) has run it: `gen`'s position, and `core`'s predictor tables,
    /// L1 contents and last fetched block
    /// ([`OooCore::copy_front_end_from`]). The phase keeps its own timing
    /// state, counters and organization, which the front end's warm stream
    /// brought to the same point.
    pub(crate) fn take_front_end<L>(&mut self, core: &OooCore<L>, gen: &TraceGenerator) {
        self.gen.clone_from(gen);
        self.core.copy_front_end_from(core);
    }

    /// The organization's lower block size.
    pub(crate) fn block_bytes(&self) -> u64 {
        self.core.mem().lower().block_bytes()
    }

    /// The organization, for a front end's warm stream.
    pub(crate) fn org_mut(&mut self) -> &mut dyn Organization {
        &mut **self.core.mem_mut().lower_mut()
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
        assert!((ea - eb).abs() <= 1e-9 * ea.max(eb), "L2 energy {ea} vs {eb}");
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
        let sum = windows.iter().map(|w| w.counters.clone()).reduce(|a, b| a.plus(&b)).unwrap();
        assert_same_counts(&sum, &total);
        assert_eq!(total.core.instructions, scale.measure);
        assert_eq!(total.l4.expect("the dram scenario has an L4").resizes, 2);
        let banks: Vec<u32> = windows.iter().map(|w| w.n_banks).collect();
        assert_eq!(banks, [8, 8, 8, 4, 4, 4, 12, 12], "resizes land on window boundaries");
    }
}
