//! `cmp` — the chip-multiprocessor front-end: N out-of-order cores with
//! private L1s sharing one lower-level [`Organization`] (DESIGN.md §14).
//!
//! The single-core runner owns one `OooCore` over one organization; this
//! crate grows that shape a core dimension while keeping every paper
//! mechanism intact:
//!
//! - **Interleaving** — the measured phase steps whichever core has the
//!   lowest commit clock (ties break toward the lowest core id), one
//!   micro-op at a time, so the shared cache observes a deterministic,
//!   globally time-ordered access stream regardless of host threading.
//! - **Bank contention** — every shared-cache access first occupies its
//!   bank in a [`BankQueues`] history-based queue model; the queue delay
//!   is charged *before* the organization's own geometry latencies (the
//!   access reaches the tag/data arrays only once its bank is free).
//! - **Invalidation-lite sharing** — a per-block sharer bitmask tracks
//!   which cores hold copies of each lower-level block in their private
//!   L1s. A write from one core drops the block from every other
//!   sharer's L1 (no writeback: the writer's update is authoritative).
//!   Sharer tracking is architectural — it runs identically on the
//!   timed and warm-up paths — so CMP warm-ups checkpoint exactly like
//!   single-core ones.
//! - **Single-core degeneracy** — with one core the wrapper is a pure
//!   passthrough: no bank occupancy, no sharer bookkeeping, no stream
//!   offsetting. A 1-core CMP run is bit-identical to the single-core
//!   runner on the same organization.
//!
//! Everything lives on one simulation thread: cores share the
//! organization through `Rc<RefCell<_>>`, and a whole CMP run is one
//! simsched job, so sweep-level parallelism is unchanged.

use cpu::uop::TraceSource;
use cpu::{CoreParams, CoreResult, OooCore};
use memsys::bankq::{BankQueueParams, BankQueues};
use memsys::dramcache::L4Stats;
use memsys::l1::CoreMemSystem;
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::org::{OrgReport, Organization};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Cycle};
use simtel::{percore, TelemetrySink};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use workloads::{BenchProfile, CoreStream};

/// The largest supported core count (the sharer bitmask is a byte and
/// the per-core metric tables are sized to match).
pub const MAX_CORES: usize = percore::MAX_CORES;

/// Configuration of a CMP scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpConfig {
    /// Number of cores (1–8).
    pub cores: u32,
    /// Per-mille fraction of each core's data accesses folded into the
    /// common shared region (see [`workloads::multi`]).
    pub shared_milli: u32,
    /// Banks in front of the shared organization.
    pub n_banks: usize,
    /// Bandwidth/bound parameters of each bank queue.
    pub bank: BankQueueParams,
}

impl CmpConfig {
    /// The default scenario: `cores` cores, 10% shared data traffic, 32
    /// address-interleaved banks at the paper-era bandwidth.
    pub fn micro2003(cores: u32) -> Self {
        CmpConfig {
            cores,
            shared_milli: 100,
            n_banks: 32,
            bank: BankQueueParams::micro2003(128),
        }
    }
}

/// State shared by every core's lower-cache handle.
struct SharedInner {
    org: Box<dyn Organization>,
    banks: BankQueues,
    /// Per-block sharer bitmask (bit `i` = core `i` may hold L1 copies).
    sharers: HashMap<u64, u8>,
    /// Invalidations produced by writes, drained by the stepping loop.
    pending_inv: VecDeque<(u64, u8)>,
    cores: u32,
    /// Queue-delay cycles charged per core (timing statistic).
    bank_stalls: [u64; MAX_CORES],
}

impl SharedInner {
    /// Updates the sharer bitmask for one access and queues invalidations
    /// for a write that had other sharers. Architectural: called on both
    /// the timed and warm paths.
    fn note_sharing(&mut self, core: usize, block: u64, kind: AccessKind) {
        let bit = 1u8 << core;
        let mask = self.sharers.entry(block).or_insert(0);
        if kind.is_write() {
            let others = *mask & !bit;
            if others != 0 {
                self.pending_inv.push_back((block, others));
            }
            *mask = bit;
        } else {
            *mask |= bit;
        }
    }
}

/// One core's handle onto the shared lower level: implements
/// [`LowerCache`] so an unmodified [`CoreMemSystem`] drives it.
pub struct SharedL2 {
    inner: Rc<RefCell<SharedInner>>,
    core: usize,
}

impl LowerCache for SharedL2 {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        let mut s = self.inner.borrow_mut();
        let s = &mut *s;
        if s.cores == 1 {
            // Degenerate single-core: bit-identical to the plain runner.
            return s.org.access(block, kind, now);
        }
        s.note_sharing(self.core, block.index(), kind);
        let delay = s.banks.occupy(block, now);
        if delay > 0 {
            s.bank_stalls[self.core] += delay;
        }
        s.org.access(block, kind, now + delay)
    }

    fn accesses(&self) -> u64 {
        self.inner.borrow().org.accesses()
    }

    fn misses(&self) -> u64 {
        self.inner.borrow().org.misses()
    }

    fn block_bytes(&self) -> u64 {
        self.inner.borrow().org.block_bytes()
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        let mut s = self.inner.borrow_mut();
        let s = &mut *s;
        if s.cores > 1 {
            s.note_sharing(self.core, block.index(), kind);
        }
        s.org.warm_access(block, kind);
    }
}

/// Measured results of one CMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpResult {
    /// Per-core measured results, indexed by core id.
    pub per_core: Vec<CoreResult>,
    /// The shared organization's measured-phase report.
    pub report: OrgReport,
    /// Accesses that found their bank busy.
    pub bank_conflicts: u64,
    /// Queue-delay cycles charged by the bank model, all cores.
    pub bank_stall_cycles: u64,
    /// Queue-delay cycles charged per core.
    pub per_core_bank_stalls: Vec<u64>,
    /// Private-L1 lines dropped per core by other cores' writes.
    pub invalidations: Vec<u64>,
}

impl CmpResult {
    /// Arithmetic mean of the per-core IPCs.
    pub fn mean_ipc(&self) -> f64 {
        self.per_core.iter().map(CoreResult::ipc).sum::<f64>() / self.per_core.len().max(1) as f64
    }

    /// Jain's fairness index over per-core IPCs: 1 when every core makes
    /// equal progress, 1/n when one core starves the rest.
    pub fn fairness(&self) -> f64 {
        let n = self.per_core.len() as f64;
        let sum: f64 = self.per_core.iter().map(CoreResult::ipc).sum();
        let sq_sum: f64 = self.per_core.iter().map(|c| c.ipc() * c.ipc()).sum();
        if sq_sum == 0.0 {
            1.0
        } else {
            sum * sum / (n * sq_sum)
        }
    }

    /// Bank-conflict stall cycles per kilo-instruction (all cores).
    pub fn bank_stalls_per_ki(&self) -> f64 {
        let instr: u64 = self.per_core.iter().map(|c| c.instructions).sum();
        1000.0 * self.bank_stall_cycles as f64 / instr.max(1) as f64
    }
}

/// Snapshot framing: magic + core count guard cross-configuration loads.
const SNAPSHOT_MAGIC: u64 = 0x434d_5053_4e41_5031; // "CMPSNAP1"

/// The multi-core front-end: N cores, N per-core trace streams, one
/// shared organization.
pub struct CmpSystem {
    cfg: CmpConfig,
    shared: Rc<RefCell<SharedInner>>,
    cores: Vec<OooCore<SharedL2>>,
    streams: Vec<CoreStream>,
    /// L1 lines dropped per core by the sharing model (architectural
    /// effect, but counted only where the stepping loop delivers it).
    inv_lines: Vec<u64>,
}

impl CmpSystem {
    /// Builds the system: core `i` runs `profiles[i]` through its own
    /// [`CoreStream`] seeded from `seed`. The organization is prefilled
    /// here (the same construction point as the single-core runner).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is 0, exceeds [`MAX_CORES`], or disagrees
    /// with `profiles.len()`.
    pub fn new(cfg: CmpConfig, mut org: Box<dyn Organization>, profiles: &[BenchProfile], seed: u64) -> Self {
        let n = cfg.cores as usize;
        assert!(n >= 1 && n <= MAX_CORES, "{n} cores unsupported");
        assert_eq!(profiles.len(), n, "one profile per core");
        org.prefill();
        let shared = Rc::new(RefCell::new(SharedInner {
            org,
            banks: BankQueues::new(cfg.n_banks, cfg.bank),
            sharers: HashMap::new(),
            pending_inv: VecDeque::new(),
            cores: cfg.cores,
            bank_stalls: [0; MAX_CORES],
        }));
        let cores = (0..n)
            .map(|i| {
                let lower = SharedL2 {
                    inner: Rc::clone(&shared),
                    core: i,
                };
                OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower))
            })
            .collect();
        let streams = profiles
            .iter()
            .enumerate()
            .map(|(i, &p)| CoreStream::new(p, seed, i as u32, cfg.cores, cfg.shared_milli))
            .collect();
        CmpSystem {
            cfg,
            shared,
            cores,
            streams,
            inv_lines: vec![0; n],
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &CmpConfig {
        &self.cfg
    }

    /// Delivers every queued invalidation to the cores still holding the
    /// block. Runs after each stepped op, on the warm and timed paths
    /// alike (the sharing model is architectural).
    fn deliver_invalidations(&mut self) {
        loop {
            let item = self.shared.borrow_mut().pending_inv.pop_front();
            let Some((block, mask)) = item else { break };
            for (j, core) in self.cores.iter_mut().enumerate() {
                if mask & (1 << j) != 0 {
                    let dropped =
                        core.mem_mut().invalidate_lower_block(BlockAddr::from_index(block));
                    self.inv_lines[j] += dropped as u64;
                }
            }
        }
    }

    /// Functional warm-up: `per_core` ops per core, round-robin one op at
    /// a time so sharing effects interleave the same way every run.
    pub fn warm_run(&mut self, per_core: u64) {
        for _ in 0..per_core {
            for i in 0..self.cores.len() {
                let op = self.streams[i].next_op();
                self.cores[i].warm_execute(op);
                self.deliver_invalidations();
            }
        }
    }

    /// The drain barrier (DESIGN.md §11, grown a core dimension): clears
    /// all timing state — per-core MSHRs, the organization's ports, every
    /// bank's busy windows — zeroes all statistics, and rebuilds each
    /// core at cycle zero over its preserved architectural state.
    /// Telemetry attaches here so exports cover the measured window only.
    pub fn drain_barrier(&mut self, sink: &TelemetrySink, snap_every: u64) {
        {
            let mut s = self.shared.borrow_mut();
            let s = &mut *s;
            s.org.drain_timing();
            s.org.reset_stats();
            s.banks.drain();
            s.banks.reset_stats();
            s.bank_stalls = [0; MAX_CORES];
        }
        sink.reset();
        self.shared.borrow_mut().org.set_telemetry(sink, snap_every);
        // The shared organization was drained once above; each core's
        // handle onto it has nothing of its own to clear.
        self.cores = std::mem::take(&mut self.cores)
            .into_iter()
            .map(|core| core.drain_barrier(|_| {}))
            .collect();
        self.inv_lines.iter_mut().for_each(|v| *v = 0);
    }

    /// The measured phase: `per_core` ops per core, always stepping the
    /// core with the lowest commit clock (ties toward the lowest id) so
    /// shared-cache accesses arrive in global time order.
    pub fn run(&mut self, per_core: u64) {
        let n = self.cores.len();
        let mut issued = vec![0u64; n];
        loop {
            let mut pick: Option<usize> = None;
            for i in 0..n {
                if issued[i] < per_core
                    && pick.is_none_or(|p| self.cores[i].cycles() < self.cores[p].cycles())
                {
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let op = self.streams[i].next_op();
            self.cores[i].execute(op);
            issued[i] += 1;
            self.deliver_invalidations();
        }
    }

    /// Assembles the measured results.
    pub fn finish(&self) -> CmpResult {
        let s = self.shared.borrow();
        let n = self.cores.len();
        CmpResult {
            per_core: self.cores.iter().map(OooCore::finish).collect(),
            report: s.org.report(),
            bank_conflicts: s.banks.conflicts(),
            bank_stall_cycles: s.banks.stall_cycles(),
            per_core_bank_stalls: s.bank_stalls[..n].to_vec(),
            invalidations: self.inv_lines.clone(),
        }
    }

    /// L1 (I + D) accesses per core, in core order.
    pub fn l1_accesses(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.mem().l1_accesses()).collect()
    }

    /// The shared organization's L4 counters, when an L4 tier is attached.
    pub fn l4_stats(&self) -> Option<L4Stats> {
        self.shared
            .borrow()
            .org
            .main_memory()
            .and_then(|m| m.l4_stats())
    }

    /// Emits the per-core counters (`cmp.coreN.*`) and the shared bank /
    /// invalidation totals into `sink`.
    pub fn record_telemetry(&self, sink: &TelemetrySink) {
        if !sink.enabled() {
            return;
        }
        let r = self.finish();
        for (i, core) in r.per_core.iter().enumerate() {
            sink.count(percore::instructions(i), core.instructions);
            sink.count(percore::ipc_milli(i), (core.ipc() * 1000.0) as u64);
            sink.count(percore::bank_stall_cycles(i), r.per_core_bank_stalls[i]);
            sink.count(percore::invalidations(i), r.invalidations[i]);
        }
        sink.count(percore::BANK_CONFLICTS, r.bank_conflicts);
        sink.count(percore::BANK_STALL_CYCLES, r.bank_stall_cycles);
        sink.count(percore::INVALIDATIONS, r.invalidations.iter().sum());
    }

    /// Serializes the architectural state at a quiesced point (typically
    /// the end of warm-up): per-core stream/predictor/L1 state in core
    /// order, then the shared organization, then the sharer map in block
    /// order. Timing state (banks, MSHRs) is never part of a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if invalidations are pending (the caller must drain first).
    pub fn save_state(&self, e: &mut Encoder) {
        let s = self.shared.borrow();
        assert!(s.pending_inv.is_empty(), "snapshot requires a quiesced system");
        e.put_u64(SNAPSHOT_MAGIC);
        e.put_u32(self.cores.len() as u32);
        for i in 0..self.cores.len() {
            self.streams[i].save_state(e);
            self.cores[i].predictor().save_state(e);
            self.cores[i].mem().save_l1_state(e);
        }
        s.org.save_state(e);
        let mut blocks: Vec<(u64, u8)> = s.sharers.iter().map(|(&b, &m)| (b, m)).collect();
        blocks.sort_unstable();
        e.put_u64(blocks.len() as u64);
        for (b, m) in blocks {
            e.put_u64(b);
            e.put_u8(m);
        }
    }

    /// Restores state written by [`CmpSystem::save_state`] into a system
    /// built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a truncated payload, a non-CMP blob,
    /// a core-count mismatch, or an organization mismatch.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        if d.u64()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Malformed("not a CMP snapshot"));
        }
        if d.u32()? as usize != self.cores.len() {
            return Err(SnapshotError::Malformed("CMP core-count mismatch"));
        }
        for i in 0..self.cores.len() {
            self.streams[i].load_state(d)?;
            self.cores[i].predictor_mut().load_state(d)?;
            self.cores[i].mem_mut().load_l1_state(d)?;
        }
        let mut s = self.shared.borrow_mut();
        s.org.load_state(d)?;
        s.sharers.clear();
        let n = d.u64()?;
        for _ in 0..n {
            let block = d.u64()?;
            let mask = d.u8()?;
            s.sharers.insert(block, mask);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::uop::TraceSource;
    use memsys::hierarchy::BaseHierarchy;
    use workloads::profiles::by_name;
    use workloads::TraceGenerator;

    const SEED: u64 = 0x5eed;

    fn base_org() -> Box<dyn Organization> {
        Box::new(BaseHierarchy::micro2003())
    }

    fn profiles(n: usize) -> Vec<BenchProfile> {
        let roster = ["galgel", "applu", "parser", "apsi", "art", "mcf", "mgrid", "swim"];
        roster[..n].iter().map(|n| by_name(n).expect("rostered")).collect()
    }

    fn run_cmp(cfg: CmpConfig, warm: u64, measure: u64) -> CmpResult {
        let mut sys = CmpSystem::new(cfg, base_org(), &profiles(cfg.cores as usize), SEED);
        sys.warm_run(warm);
        sys.drain_barrier(&TelemetrySink::disabled(), 0);
        sys.run(measure);
        sys.finish()
    }

    #[test]
    fn single_core_cmp_is_bit_identical_to_a_plain_core() {
        // The degenerate 1-core CMP system against the single-core shape
        // the runner uses, both crossing the same drain barrier.
        let profile = by_name("galgel").unwrap();
        let (warm, measure) = (20_000u64, 30_000u64);

        let mut sys = CmpSystem::new(CmpConfig::micro2003(1), base_org(), &[profile], SEED);
        sys.warm_run(warm);
        sys.drain_barrier(&TelemetrySink::disabled(), 0);
        sys.run(measure);
        let cmp_result = sys.finish();

        let mut org = base_org();
        org.prefill();
        let mut gen = TraceGenerator::new(profile, SEED);
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(org));
        core.warm_run(&mut gen, warm);
        let mut core = core.drain_barrier(|org| {
            org.drain_timing();
            org.reset_stats();
        });
        for _ in 0..measure {
            let op = gen.next_op();
            core.execute(op);
        }
        assert_eq!(cmp_result.per_core[0], core.finish());
        assert_eq!(cmp_result.report, core.mem().lower().report());
        assert_eq!(cmp_result.bank_conflicts, 0, "1 core never banks-contends");
        assert_eq!(cmp_result.invalidations, vec![0]);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = CmpConfig::micro2003(4);
        let a = run_cmp(cfg, 4_000, 6_000);
        let b = run_cmp(cfg, 4_000, 6_000);
        assert_eq!(a, b);
    }

    #[test]
    fn sharing_produces_cross_core_invalidations() {
        let mut cfg = CmpConfig::micro2003(2);
        cfg.shared_milli = 400;
        let r = run_cmp(cfg, 10_000, 10_000);
        assert!(
            r.invalidations.iter().sum::<u64>() > 0,
            "40% shared write traffic must invalidate: {:?}",
            r.invalidations
        );
    }

    #[test]
    fn fully_private_streams_never_invalidate() {
        let mut cfg = CmpConfig::micro2003(4);
        cfg.shared_milli = 0;
        let r = run_cmp(cfg, 5_000, 5_000);
        assert_eq!(r.invalidations, vec![0; 4]);
    }

    #[test]
    fn eight_cores_contend_for_banks() {
        let r = run_cmp(CmpConfig::micro2003(8), 3_000, 4_000);
        assert!(r.bank_conflicts > 0, "8 cores must conflict");
        assert!(r.bank_stall_cycles > 0);
        assert!(r.bank_stalls_per_ki() > 0.0);
        assert_eq!(r.per_core.len(), 8);
        let per_core_sum: u64 = r.per_core_bank_stalls.iter().sum();
        assert_eq!(per_core_sum, r.bank_stall_cycles, "per-core stalls sum to the total");
    }

    #[test]
    fn fairness_is_one_for_identical_progress() {
        let mut r = run_cmp(CmpConfig::micro2003(2), 500, 500);
        r.per_core = vec![
            CoreResult {
                instructions: 1000,
                cycles: 500,
                loads: 0,
                stores: 0,
                branches: 0,
                mispredicts: 0,
                int_ops: 0,
                fp_ops: 0,
            };
            4
        ];
        assert!((r.fairness() - 1.0).abs() < 1e-12);
        r.per_core[0].cycles = 4000; // one starved core drags the index below 1
        assert!(r.fairness() < 1.0);
    }

    #[test]
    fn snapshot_round_trip_resumes_bit_identically() {
        let cfg = CmpConfig::micro2003(4);
        let mut sys = CmpSystem::new(cfg, base_org(), &profiles(4), SEED);
        sys.warm_run(5_000);
        let mut e = Encoder::new();
        sys.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut twin = CmpSystem::new(cfg, base_org(), &profiles(4), SEED);
        let mut d = Decoder::new(&bytes);
        twin.load_state(&mut d).expect("loads");
        d.finish().expect("no trailing bytes");

        for s in [&mut sys, &mut twin] {
            s.drain_barrier(&TelemetrySink::disabled(), 0);
            s.run(6_000);
        }
        assert_eq!(sys.finish(), twin.finish());
    }

    #[test]
    fn snapshot_rejects_a_different_core_count() {
        let mut sys = CmpSystem::new(CmpConfig::micro2003(2), base_org(), &profiles(2), SEED);
        sys.warm_run(1_000);
        let mut e = Encoder::new();
        sys.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut other = CmpSystem::new(CmpConfig::micro2003(4), base_org(), &profiles(4), SEED);
        let mut d = Decoder::new(&bytes);
        assert!(other.load_state(&mut d).is_err());
    }

    #[test]
    fn telemetry_records_per_core_and_bank_counters() {
        let cfg = CmpConfig::micro2003(2);
        let mut sys = CmpSystem::new(cfg, base_org(), &profiles(2), SEED);
        sys.warm_run(2_000);
        let sink = TelemetrySink::recording(64);
        sys.drain_barrier(&sink, 0);
        sys.run(3_000);
        sys.record_telemetry(&sink);
        let data = sink.drain();
        assert!(data.metrics.counters.contains_key(percore::instructions(0)));
        assert!(data.metrics.counters.contains_key(percore::instructions(1)));
        assert!(data.metrics.counters.contains_key(percore::BANK_STALL_CYCLES));
    }
}
