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

use crate::engine::System;
use crate::runner::TRACE_SEED;
use cpu::branch::HybridPredictor;
use cpu::{CoreParams, OooCore};
use memsys::l1::CoreMemSystem;
use memsys::lower::{LowerCache, LowerOutcome};
use simbase::digest::{Digest, Hasher128};
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

/// A lower level that records each warm access and serves nothing else.
///
/// An access is stored as the LEB128 varint of `zigzag(block − previous
/// block) << 1 | write`, so the short strides of a warm-up stream take one
/// or two bytes. A block index of a 64-bit address fits 57 bits (blocks
/// are at least the L1's 32 bytes), so the shift loses nothing. A varint
/// never straddles two chunks.
struct Recorder {
    block_bytes: u64,
    chunks: Vec<Vec<u8>>,
    last: u64,
    accesses: usize,
}

impl LowerCache for Recorder {
    fn access(&mut self, _: BlockAddr, _: AccessKind, _: Cycle) -> LowerOutcome {
        unreachable!("the front end drives the warm-up path only")
    }

    fn accesses(&self) -> u64 {
        self.accesses as u64
    }

    fn misses(&self) -> u64 {
        0
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
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
}

impl Recorder {
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
    mem: CoreMemSystem<Recorder>,
}

impl FrontEnd {
    /// Warm-runs `ops` ops of `profile`'s trace through the paper's core
    /// and L1s over lower blocks of `block_bytes`, recording every access
    /// the L1s present below them.
    pub fn record(profile: BenchProfile, ops: u64, block_bytes: u64) -> FrontEnd {
        let recorder = Recorder {
            block_bytes,
            chunks: Vec::new(),
            last: 0,
            accesses: 0,
        };
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(recorder));
        let mut gen = TraceGenerator::new(profile, TRACE_SEED);
        core.warm_run(&mut gen, ops);
        let (mut mem, predictor) = core.into_parts();
        if let Some(last) = mem.lower_mut().chunks.last_mut() {
            last.shrink_to_fit();
        }
        FrontEnd {
            gen,
            predictor,
            mem,
        }
    }

    /// Copies the recorded generator, predictor and L1s into `gen` and
    /// `core`, then presents the recorded stream to `core`'s organization
    /// through [`LowerCache::warm_access`].
    pub fn replay(&self, core: &mut System, gen: &mut TraceGenerator) {
        gen.clone_from(&self.gen);
        core.set_predictor(self.predictor.clone());
        core.mem_mut().copy_l1_state_from(&self.mem);
        self.mem.lower().replay_into(&mut **core.mem_mut().lower_mut());
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
        let mut rec = Recorder {
            block_bytes: 128,
            chunks: Vec::new(),
            last: 0,
            accesses: 0,
        };
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
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            rec.warm_access(BlockAddr::from_index(b), kind);
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
        let rec = front.mem.lower();
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
