//! The warm-up front end (DESIGN.md §11): one functional pass of trace
//! generator → core → L1s per (application, warm-up length, lower block
//! size), whose L2 request stream every organization then replays.
//!
//! [`memsys::l1::CoreMemSystem::warm_fetch`] and `warm_data_access`
//! discard whatever the lower level does with an access, so the warm-up
//! stream an organization sees depends on the trace and the L1s alone.
//! [`FrontEnd::record`] runs that pass once over a lower level that only
//! records, and keeps the pass's generator, predictor and L1s beside the
//! stream; [`FrontEnd::replay`] copies them into a system and presents the
//! stream to its organization. The result is the state an in-place
//! [`cpu::OooCore::warm_run`] builds, byte for byte
//! (`tests/properties.rs::front_end_replay_matches_an_in_place_warm_up`).
//!
//! A sweep shares front ends through [`FrontEnds`]: its planner
//! ([`crate::exps::Sweep::prefetch`]) gives each job a [`Claim`] on its
//! application, the first claimed run to warm up records the front end
//! (single flight), and the front end is dropped once every claim on its
//! application is given up. A run without a claim records its own.
//!
//! A sampled run's snapshot chain is a longer functional pass of the same
//! kind, so it is shared too, but live instead of recorded: [`Lockstep`]
//! drives one front end whose L2 warm stream reaches every member
//! organization as it is made, so a chain of any length holds its
//! members' organizations and no stream
//! ([`crate::engine::publish_chain`]). The measured phase of a lockstep
//! group of sampled runs ([`crate::sampling::run_group`]) is a third such
//! pass: between detailed windows the front end fast-forwards for every
//! member at once, feeding each member's organization from the end of
//! its own window on. At each window start every member takes up the
//! front end's state (`Lockstep::windows`), and after the windows the
//! front end takes up the state of the member whose window ended first
//! (`Lockstep::resume`), so no window's ops run twice. Recording and
//! lockstep passes run the same core over the same lower level, `FanOut`.

use crate::engine::{self, Phase, System};
use crate::runner::TRACE_SEED;
use cpu::branch::HybridPredictor;
use cpu::{CoreParams, OooCore};
use memsys::l1::CoreMemSystem;
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::org::Organization;
use simbase::digest::{Digest, Hasher128};
use simbase::snapshot::Encoder;
use simbase::{AccessKind, BlockAddr, Cycle};
use simsched::store::RunStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use workloads::{BenchProfile, TraceGenerator};

/// Bytes per chunk of a recorded stream. Chunks are never reallocated,
/// so recording holds at most one partly filled chunk beyond the stream.
const CHUNK: usize = 16 << 10;

/// The longest varint: ten 7-bit groups cover a `u64`.
const MAX_VARINT: usize = 10;

/// The L2 warm stream of one functional pass, as presented to a
/// [`FanOut`].
///
/// An access is stored as the LEB128 varint of `zigzag(block − previous
/// block) << 1 | write`, so the short strides of a warm-up stream take one
/// or two bytes. A block index of a 64-bit address fits 57 bits (blocks
/// are at least the L1's 32 bytes), so the shift loses nothing. A varint
/// never straddles two chunks.
#[derive(Default)]
struct Recorder {
    chunks: Vec<Vec<u8>>,
    last: u64,
    accesses: usize,
}

impl Recorder {
    /// Appends one access to the stream.
    fn record(&mut self, block: BlockAddr, kind: AccessKind) {
        let delta = block.index().wrapping_sub(self.last) as i64;
        self.last = block.index();
        self.accesses += 1;
        let mut v = ((delta << 1) ^ (delta >> 63)) as u64;
        v = v << 1 | u64::from(kind.is_write());
        let room = self.chunks.last().map_or(0, |c| c.capacity() - c.len());
        if room < MAX_VARINT {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        while v >= 0x80 {
            chunk.push(v as u8 | 0x80);
            v >>= 7;
        }
        chunk.push(v as u8);
    }

    /// Presents every recorded access, in order, to `lower`.
    fn replay_into<L: LowerCache + ?Sized>(&self, lower: &mut L) {
        let mut block = 0u64;
        for chunk in &self.chunks {
            let mut bytes = chunk.iter();
            while let Some(&first) = bytes.next() {
                let (mut v, mut shift, mut byte) = (u64::from(first & 0x7f), 7, first);
                while byte & 0x80 != 0 {
                    byte = *bytes.next().expect("a varint ends in its chunk");
                    v |= u64::from(byte & 0x7f) << shift;
                    shift += 7;
                }
                let kind = if v & 1 == 1 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let zigzag = v >> 1;
                let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
                block = block.wrapping_add(delta as u64);
                lower.warm_access(BlockAddr::from_index(block), kind);
            }
        }
    }
}

/// One application's recorded warm-up: the generator, predictor and L1s
/// after `ops` functional ops, and the L2 warm stream those ops presented.
pub struct FrontEnd {
    gen: TraceGenerator,
    predictor: HybridPredictor,
    mem: CoreMemSystem<()>,
    stream: Recorder,
}

impl FrontEnd {
    /// Warm-runs `ops` ops of `profile`'s trace through the paper's core
    /// and L1s over lower blocks of `block_bytes`, recording every access
    /// the L1s present below them.
    pub fn record(profile: BenchProfile, ops: u64, block_bytes: u64) -> FrontEnd {
        let mut pass = Lockstep::over(
            profile,
            FanOut {
                block_bytes,
                stream: Some(Recorder::default()),
                orgs: Vec::new(),
                members: Vec::new(),
            },
        );
        pass.advance_to(ops);
        let Lockstep { core, gen } = pass;
        let (mem, predictor) = core.into_parts();
        let (mem, lower) = mem.replace_lower(());
        let mut stream = lower.stream.expect("recorded above");
        if let Some(last) = stream.chunks.last_mut() {
            last.shrink_to_fit();
        }
        FrontEnd {
            gen,
            predictor,
            mem,
            stream,
        }
    }

    /// Copies the recorded generator, predictor and L1s into `gen` and
    /// `core`, then presents the recorded stream to `core`'s organization
    /// through [`LowerCache::warm_access`].
    pub fn replay(&self, core: &mut System, gen: &mut TraceGenerator) {
        gen.clone_from(&self.gen);
        core.set_predictor(self.predictor.clone());
        core.mem_mut().copy_l1_state_from(&self.mem);
        self.stream.replay_into(&mut **core.mem_mut().lower_mut());
    }
}

/// Digest keying a front end: the [`Tag::Arch`](simbase::digest::Tag)
/// knobs of `profile`, the warm-up length, the trace seed and the lower
/// block size — everything the recorded state and stream depend on.
/// The organization enters only through its block size.
pub fn frontend_digest(profile: &BenchProfile, ops: u64, block_bytes: u64) -> Digest {
    let mut h = Hasher128::new();
    h.write_str("nurapid-frontend-v1");
    h.write_arch_knobs(profile);
    h.write_u64(ops);
    h.write_u64(TRACE_SEED);
    h.write_u64(block_bytes);
    h.digest()
}

/// The lower level of every functional front end: it serves the warm-up
/// path only, appending each warm access to its stream when it records
/// one ([`FrontEnd::record`]) and presenting it to each of its
/// organizations in order ([`Lockstep`]): a chain's, then each live
/// member's.
struct FanOut {
    block_bytes: u64,
    stream: Option<Recorder>,
    orgs: Vec<Box<dyn Organization>>,
    members: Vec<Member>,
}

/// A sampled run's system behind a lockstep front end. The warm stream
/// reaches its organization only while it is `live`: not while the
/// member's own detailed window covers the ops the front end runs.
struct Member {
    phase: Phase<'static>,
    live: bool,
}

impl LowerCache for FanOut {
    fn access(&mut self, _: BlockAddr, _: AccessKind, _: Cycle) -> LowerOutcome {
        unreachable!("a front end drives the warm-up path only")
    }

    fn accesses(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.accesses as u64)
    }

    fn misses(&self) -> u64 {
        0
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        if let Some(stream) = &mut self.stream {
            stream.record(block, kind);
        }
        for org in &mut self.orgs {
            org.warm_access(block, kind);
        }
        for member in self.members.iter_mut().filter(|m| m.live) {
            member.phase.org_mut().warm_access(block, kind);
        }
    }
}

/// One functional pass of trace generator → core → L1s whose L2 warm
/// stream reaches several organizations in lockstep, sharing everything
/// but the organization: the systems of a snapshot chain, or the sampled
/// runs of a lockstep group. Each organization ends up where an in-place
/// [`cpu::OooCore::warm_run_to`] over it alone would leave it, because
/// the L1s never see what the lower level does with an access.
pub(crate) struct Lockstep {
    core: OooCore<FanOut>,
    gen: TraceGenerator,
}

impl Lockstep {
    /// `profile`'s trace at op 0 over the paper's core and L1s, in front
    /// of `orgs` (prefilled, all with one block size).
    pub(crate) fn new(profile: BenchProfile, orgs: Vec<Box<dyn Organization>>) -> Lockstep {
        let block_bytes = orgs[0].block_bytes();
        assert!(
            orgs.iter().all(|o| o.block_bytes() == block_bytes),
            "a lockstep front end serves one lower block size"
        );
        let lower = FanOut {
            block_bytes,
            stream: None,
            orgs,
            members: Vec::new(),
        };
        Lockstep::over(profile, lower)
    }

    /// A front end in front of `phases`, members seeded at one trace
    /// position (a sampled interval's start), at the first member's
    /// position and state, which every member shares but for its
    /// organization. No warm access reaches a member before its first
    /// window.
    pub(crate) fn behind(profile: BenchProfile, phases: Vec<Phase<'static>>) -> Lockstep {
        let block_bytes = phases[0].block_bytes();
        assert!(
            phases.iter().all(|p| p.block_bytes() == block_bytes),
            "a lockstep front end serves one lower block size"
        );
        let lower = FanOut {
            block_bytes,
            stream: None,
            orgs: Vec::new(),
            members: phases.into_iter().map(|phase| Member { phase, live: false }).collect(),
        };
        let mut front = Lockstep::over(profile, lower);
        front.take_up(0);
        front
    }

    /// `profile`'s trace at op 0 over the paper's core and L1s, in front
    /// of `lower`.
    fn over(profile: BenchProfile, lower: FanOut) -> Lockstep {
        Lockstep {
            core: OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower)),
            gen: TraceGenerator::new(profile, TRACE_SEED),
        }
    }

    /// Warm-runs until the trace has emitted `offset` ops in total.
    pub(crate) fn advance_to(&mut self, offset: u64) {
        self.core.warm_run_to(&mut self.gen, offset);
    }

    /// Encodes organization `i`'s system as a checkpoint payload.
    pub(crate) fn save(&self, i: usize, e: &mut Encoder<'_>) {
        engine::save_payload(&self.gen, &self.core, &*self.core.mem().lower().orgs[i], e);
    }

    /// Starts a detailed window of every member at the front end's trace
    /// position: each member takes up the front end's state
    /// ([`Phase::take_front_end`]) and runs `window(m, phase)`, and from
    /// then on the warm stream no longer reaches it, until the front end
    /// resumes from it ([`Lockstep::resume`]) or [`Lockstep::join`] passes
    /// the window's end. Returns the windows' results in member order.
    pub(crate) fn windows<T>(&mut self, mut window: impl FnMut(usize, &mut Phase) -> T) -> Vec<T> {
        // Lent out of the fan-out while they read the front end's core.
        let mut members = std::mem::take(&mut self.core.mem_mut().lower_mut().members);
        let results = (members.iter_mut().enumerate())
            .map(|(m, member)| {
                member.phase.take_front_end(&self.core, &self.gen);
                member.live = false;
                window(m, &mut member.phase)
            })
            .collect();
        self.core.mem_mut().lower_mut().members = members;
        results
    }

    /// Takes up member `m`'s trace position and front-end state (its
    /// core's predictor tables, L1 contents and last fetched block), where
    /// its detailed window has just ended, and from then on presents the
    /// warm stream to it.
    pub(crate) fn resume(&mut self, m: usize) {
        self.take_up(m);
        self.core.mem_mut().lower_mut().members[m].live = true;
    }

    /// Warm-runs to `end`, the trace offset where member `m`'s detailed
    /// window ended, and from then on presents the warm stream to it.
    pub(crate) fn join(&mut self, m: usize, end: u64) {
        self.advance_to(end);
        self.core.mem_mut().lower_mut().members[m].live = true;
    }

    /// Copies member `m`'s generator and front-end state into the front
    /// end.
    fn take_up(&mut self, m: usize) {
        // Lent out of the fan-out while the front end's core reads them.
        let members = std::mem::take(&mut self.core.mem_mut().lower_mut().members);
        let (core, gen) = members[m].phase.front();
        self.core.copy_front_end_from(core);
        self.gen.clone_from(gen);
        self.core.mem_mut().lower_mut().members = members;
    }
}

/// The claims not yet given up on one application, and the front ends
/// its claimed runs recorded.
#[derive(Default)]
struct Plan {
    claims: usize,
    built: Vec<u128>,
}

/// The front ends a sweep's planned jobs share. Each is recorded on its
/// first request, once however many runs ask at the same time, and
/// dropped when the last [`Claim`] on its application is given up.
#[derive(Default)]
pub(crate) struct FrontEnds {
    built: RunStore<u128, FrontEnd>,
    plans: Mutex<HashMap<&'static str, Plan>>,
}

impl FrontEnds {
    /// No front end recorded, no claim held.
    pub(crate) fn new() -> Self {
        FrontEnds::default()
    }

    /// A claim on `app`'s front ends for one planned job. Every claim of a
    /// plan is taken before its first job starts, so no front end is
    /// dropped while a job of its application still has to warm up.
    pub(crate) fn claim(&self, app: &'static str) -> Claim<'_> {
        self.plans().entry(app).or_default().claims += 1;
        Claim {
            frontends: self,
            app,
            held: AtomicBool::new(true),
        }
    }

    /// Front ends resident now.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.built.completed()
    }

    fn plans(&self) -> MutexGuard<'_, HashMap<&'static str, Plan>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One planned job's hold on its application's shared front ends, given
/// up by [`Claim::release`] once the job's warm-up is over, or when the
/// claim drops.
pub struct Claim<'f> {
    frontends: &'f FrontEnds,
    app: &'static str,
    held: AtomicBool,
}

impl Claim<'_> {
    /// The shared front end of this claim's application keyed by
    /// `digest`, recorded by `record` if no run has recorded it yet.
    pub(crate) fn front_end(
        &self,
        digest: Digest,
        record: impl FnOnce() -> FrontEnd,
    ) -> Arc<FrontEnd> {
        let key = digest.raw();
        if let Some(plan) = self.frontends.plans().get_mut(self.app) {
            if !plan.built.contains(&key) {
                plan.built.push(key);
            }
        }
        self.frontends.built.get_or_compute(key, record)
    }

    /// Gives the claim up; the last claim on an application drops its
    /// front ends. A second call does nothing.
    pub(crate) fn release(&self) {
        if !self.held.swap(false, Ordering::Relaxed) {
            return;
        }
        let mut plans = self.frontends.plans();
        // A held claim is counted in its application's plan, so the plan
        // is there; the `if` keeps `Drop` free of panics all the same.
        if let Some(plan) = plans.get_mut(self.app) {
            plan.claims -= 1;
            if plan.claims == 0 {
                let keys = std::mem::take(&mut plan.built);
                plans.remove(self.app);
                keys.iter().for_each(|key| self.frontends.built.remove(key));
            }
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profiles::by_name;

    /// A lower level that logs every warm access it is shown.
    #[derive(Default)]
    struct Log(Vec<(u64, bool)>);

    impl LowerCache for Log {
        fn access(&mut self, _: BlockAddr, _: AccessKind, _: Cycle) -> LowerOutcome {
            unreachable!("replays are warm")
        }
        fn accesses(&self) -> u64 {
            0
        }
        fn misses(&self) -> u64 {
            0
        }
        fn block_bytes(&self) -> u64 {
            128
        }
        fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
            self.0.push((block.index(), kind.is_write()));
        }
    }

    #[test]
    fn the_stream_replays_every_access_in_order_across_chunks() {
        let mut rec = Recorder::default();
        // Strides of every varint length, both signs, both kinds, and
        // enough accesses to fill several chunks.
        let mask = (1u64 << 57) - 1;
        let (mut want, mut block) = (Vec::new(), 0u64);
        for i in 0..40_000u64 {
            let stride = match i % 5 {
                0 => 1,
                1 => i << 13,
                2 => block.wrapping_neg(),
                3 => 1 << 56,
                _ => 0,
            };
            block = block.wrapping_add(stride) & mask;
            want.push((block, i % 3 == 0));
        }
        want.extend([(mask, true), (0, false)]);
        for &(b, w) in &want {
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            rec.record(BlockAddr::from_index(b), kind);
        }
        assert!(rec.chunks.len() > 4, "the stream spans several chunks");
        let mut log = Log::default();
        rec.replay_into(&mut log);
        assert_eq!(log.0, want);
        assert_eq!(rec.accesses, want.len());
    }

    #[test]
    fn a_warm_up_stream_takes_about_two_bytes_an_access() {
        let front = FrontEnd::record(by_name("mcf").unwrap(), 150_000, 128);
        let rec = &front.stream;
        let bytes: usize = rec.chunks.iter().map(Vec::capacity).sum();
        assert!(rec.accesses > 40_000, "{}", rec.accesses);
        assert!(bytes < 2 * rec.accesses, "{bytes} bytes");
    }

    #[test]
    fn front_ends_are_shared_until_the_last_claim_is_given_up() {
        let frontends = FrontEnds::new();
        let app = by_name("galgel").unwrap();
        let (a, b) = (frontends.claim(app.name), frontends.claim(app.name));
        let digest = frontend_digest(&app, 1_000, 128);
        let recorded = std::sync::atomic::AtomicUsize::new(0);
        let record = || {
            recorded.fetch_add(1, Ordering::Relaxed);
            FrontEnd::record(app, 1_000, 128)
        };
        let first = a.front_end(digest, record);
        a.release();
        a.release();
        assert_eq!(frontends.resident(), 1, "b still holds galgel");
        let second = b.front_end(digest, record);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(recorded.load(Ordering::Relaxed), 1, "recorded once");
        drop(b);
        assert_eq!(frontends.resident(), 0, "the last claim dropped it");
        let c = frontends.claim(app.name);
        let _third = c.front_end(digest, record);
        assert_eq!(recorded.load(Ordering::Relaxed), 2, "a new plan records again");
    }
}
