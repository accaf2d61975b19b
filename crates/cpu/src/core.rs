//! The dependency-driven out-of-order core model.

use crate::branch::HybridPredictor;
use crate::uop::{MicroOp, OpClass, TraceSource};
use memsys::l1::CoreMemSystem;
use memsys::lower::LowerCache;
use simbase::stats::Counter;
use simbase::{Addr, BlockGeometry, Cycle};
use simtel::TelemetrySink;
use std::collections::VecDeque;

/// Core configuration (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct CoreParams {
    /// Fetch/issue/commit width (8).
    pub width: u32,
    /// RUU (combined ROB/scheduler) entries (64).
    pub ruu_entries: usize,
    /// Load/store queue entries (32).
    pub lsq_entries: usize,
    /// Branch misprediction penalty in cycles (9).
    pub mispredict_penalty: u64,
    /// Pipelined integer ALUs.
    pub int_alus: usize,
    /// Pipelined integer multipliers.
    pub int_muls: usize,
    /// Pipelined FP adders.
    pub fp_alus: usize,
    /// Pipelined FP multipliers.
    pub fp_muls: usize,
    /// Data-cache ports (Table 1: "1 port, pipelined").
    pub mem_ports: usize,
}

impl CoreParams {
    /// The paper's configuration: 8-wide, 64-entry RUU, 32-entry LSQ,
    /// 9-cycle misprediction penalty, one pipelined data-cache port.
    pub fn micro2003() -> Self {
        CoreParams {
            width: 8,
            ruu_entries: 64,
            lsq_entries: 32,
            mispredict_penalty: 9,
            int_alus: 8,
            int_muls: 2,
            fp_alus: 4,
            fp_muls: 2,
            mem_ports: 1,
        }
    }
}

/// Ring length for per-cycle functional-unit occupancy. Issue times from
/// the out-of-order engine are non-monotonic within roughly a window's
/// worth of cycles; the ring must comfortably exceed that span.
const FU_RING: usize = 1024;
const _: () = assert!(FU_RING.is_power_of_two(), "ring index uses a mask");

/// A pool of `n` pipelined functional units: each unit accepts one
/// operation per cycle. Occupancy is tracked per cycle (not as a
/// high-water mark) so out-of-order issue times do not falsely serialize.
#[derive(Debug, Clone)]
struct FuPool {
    units: u32,
    /// `(cycle, ops issued that cycle)` per ring slot.
    ring: Vec<(u64, u32)>,
}

impl FuPool {
    fn new(n: usize) -> Self {
        assert!(n > 0, "pool needs at least one unit");
        FuPool {
            units: n as u32,
            ring: vec![(u64::MAX, 0); FU_RING],
        }
    }

    /// Claims a unit at the earliest cycle ≥ `at` with spare issue
    /// bandwidth; returns the actual issue time.
    fn issue(&mut self, at: Cycle) -> Cycle {
        let mut c = at.raw();
        loop {
            let slot = &mut self.ring[(c & (FU_RING as u64 - 1)) as usize];
            if slot.0 != c {
                // Slot belonged to a far-away cycle: repurpose it.
                *slot = (c, 0);
            }
            if slot.1 < self.units {
                slot.1 += 1;
                return Cycle::new(c);
            }
            c += 1;
        }
    }
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreResult {
    /// Committed instructions.
    pub instructions: u64,
    /// Total cycles from start to the last commit.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Committed integer ops (ALU + multiply).
    pub int_ops: u64,
    /// Committed floating-point ops.
    pub fp_ops: u64,
}

impl CoreResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Field-wise `self - earlier`: the events between an `earlier`
    /// snapshot of the same run and this one.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually earlier.
    #[must_use]
    pub fn minus(&self, earlier: &CoreResult) -> CoreResult {
        assert!(
            self.instructions >= earlier.instructions && self.cycles >= earlier.cycles,
            "snapshot order reversed"
        );
        self.zip(earlier, |a, b| a - b)
    }

    /// Field-wise `self + other`: the events of two disjoint windows.
    #[must_use]
    pub fn plus(&self, other: &CoreResult) -> CoreResult {
        self.zip(other, |a, b| a + b)
    }

    /// Applies `f` field by field.
    fn zip(&self, o: &CoreResult, f: impl Fn(u64, u64) -> u64) -> CoreResult {
        CoreResult {
            instructions: f(self.instructions, o.instructions),
            cycles: f(self.cycles, o.cycles),
            loads: f(self.loads, o.loads),
            stores: f(self.stores, o.stores),
            branches: f(self.branches, o.branches),
            mispredicts: f(self.mispredicts, o.mispredicts),
            int_ops: f(self.int_ops, o.int_ops),
            fp_ops: f(self.fp_ops, o.fp_ops),
        }
    }
}

/// The out-of-order core: drives a [`CoreMemSystem`] with a micro-op trace.
#[derive(Debug)]
pub struct OooCore<L> {
    params: CoreParams,
    mem: CoreMemSystem<L>,
    predictor: HybridPredictor,
    /// Result-ready times of the youngest `ruu_entries` ops, oldest first.
    ready_window: VecDeque<Cycle>,
    /// Commit times of in-flight ops (RUU occupancy), oldest first.
    ruu_commits: VecDeque<Cycle>,
    /// Commit times of in-flight memory ops (LSQ occupancy), oldest first.
    lsq_commits: VecDeque<Cycle>,
    /// Earliest time the front end may fetch the next op.
    fetch_free: Cycle,
    /// Ops fetched in the current fetch cycle.
    fetch_slot: u32,
    /// Time of the most recent commit.
    last_commit: Cycle,
    /// Ops committed in the `last_commit` cycle.
    commit_slot: u32,
    /// Functional-unit pools: integer ALU, integer multiply, FP add,
    /// FP multiply, data-cache ports.
    fu_int_alu: FuPool,
    fu_int_mul: FuPool,
    fu_fp_alu: FuPool,
    fu_fp_mul: FuPool,
    fu_mem: FuPool,
    /// Most recent instruction-fetch block, to probe the I-cache once per
    /// line rather than once per op.
    last_fetch_block: Option<u64>,
    fetch_geom: BlockGeometry,
    instructions: Counter,
    loads: Counter,
    stores: Counter,
    branches: Counter,
    int_ops: Counter,
    fp_ops: Counter,
    sink: TelemetrySink,
    snap_every: u64,
    next_snap: u64,
}

impl<L: LowerCache> OooCore<L> {
    /// Creates a core with `params` over the given memory system.
    pub fn new(params: CoreParams, mem: CoreMemSystem<L>) -> Self {
        assert!(params.width > 0 && params.ruu_entries > 0 && params.lsq_entries > 0);
        OooCore {
            params,
            mem,
            predictor: HybridPredictor::micro2003(),
            ready_window: VecDeque::with_capacity(params.ruu_entries),
            ruu_commits: VecDeque::with_capacity(params.ruu_entries),
            lsq_commits: VecDeque::with_capacity(params.lsq_entries),
            fetch_free: Cycle::ZERO,
            fetch_slot: 0,
            last_commit: Cycle::ZERO,
            commit_slot: 0,
            fu_int_alu: FuPool::new(params.int_alus),
            fu_int_mul: FuPool::new(params.int_muls),
            fu_fp_alu: FuPool::new(params.fp_alus),
            fu_fp_mul: FuPool::new(params.fp_muls),
            fu_mem: FuPool::new(params.mem_ports),
            last_fetch_block: None,
            fetch_geom: BlockGeometry::new(32),
            instructions: Counter::new(),
            loads: Counter::new(),
            stores: Counter::new(),
            branches: Counter::new(),
            int_ops: Counter::new(),
            fp_ops: Counter::new(),
            sink: TelemetrySink::disabled(),
            snap_every: 0,
            next_snap: u64::MAX,
        }
    }

    /// Attaches a telemetry sink. When `snap_every` is non-zero, the
    /// core emits a periodic progress snapshot (cumulative IPC as a
    /// counter track plus an `ipc` gauge) every `snap_every` committed
    /// cycles. Disabled sinks set the threshold to `u64::MAX`, so the
    /// hot path pays exactly one compare.
    pub fn set_telemetry(&mut self, sink: TelemetrySink, snap_every: u64) {
        self.next_snap = if sink.enabled() && snap_every > 0 {
            self.last_commit.raw() + snap_every
        } else {
            u64::MAX
        };
        self.snap_every = snap_every;
        self.sink = sink;
    }

    /// Emits the periodic IPC snapshot once commit time passes the next
    /// snapshot boundary.
    fn snapshot(&mut self) {
        let cycles = self.last_commit.raw();
        let instr = self.instructions.get();
        let ipc = instr as f64 / cycles.max(1) as f64;
        self.sink.gauge("cpu.ipc", cycles, ipc);
        self.sink.counter_track("snap", "cpu_ipc_milli", cycles, (ipc * 1000.0) as u64);
        while self.next_snap <= cycles {
            self.next_snap += self.snap_every;
        }
    }

    /// Advances `self.fetch_free`/`fetch_slot` by one fetch and returns the
    /// fetch time of this op.
    fn fetch(&mut self, pc: Addr) -> Cycle {
        // Structural: RUU must have room — the oldest in-flight op must
        // commit before a new one enters the window.
        if self.ruu_commits.len() >= self.params.ruu_entries {
            let oldest = self.ruu_commits.pop_front().expect("non-empty");
            if oldest > self.fetch_free {
                self.fetch_free = oldest;
                self.fetch_slot = 0;
            }
        }
        // I-cache: probe once per new 32-B line; a miss stalls the front
        // end by the extra latency beyond the pipelined 3-cycle hit.
        let block = self.fetch_geom.block_of(pc).index();
        if self.last_fetch_block != Some(block) {
            self.last_fetch_block = Some(block);
            let done = self.mem.fetch(pc, self.fetch_free);
            let hit_done = self.fetch_free + 3;
            if done > hit_done {
                self.fetch_free += done - hit_done;
                self.fetch_slot = 0;
            }
        }
        let t = self.fetch_free;
        self.fetch_slot += 1;
        if self.fetch_slot >= self.params.width {
            self.fetch_free += 1;
            self.fetch_slot = 0;
        }
        t
    }

    /// Ready time of the op `dist` positions back, or `fallback` when out
    /// of window (already committed) or `dist == 0`.
    fn dep_ready(&self, dist: u8, fallback: Cycle) -> Cycle {
        if dist == 0 {
            return fallback;
        }
        let len = self.ready_window.len();
        if (dist as usize) > len {
            return fallback;
        }
        self.ready_window[len - dist as usize]
    }

    /// Commits an op whose result is ready at `ready`, respecting in-order
    /// commit and commit bandwidth. Returns the commit time.
    fn commit(&mut self, ready: Cycle) -> Cycle {
        let mut t = ready.max(self.last_commit);
        if t == self.last_commit {
            self.commit_slot += 1;
            if self.commit_slot >= self.params.width {
                t += 1;
                self.commit_slot = 0;
            }
        } else {
            self.commit_slot = 1;
        }
        self.last_commit = t;
        t
    }

    /// Executes one micro-op through the model.
    pub fn execute(&mut self, op: MicroOp) {
        let fetch_t = self.fetch(op.pc);
        let dep1 = self.dep_ready(op.dep1, fetch_t);
        let dep2 = self.dep_ready(op.dep2, fetch_t);
        let mut issue = fetch_t.max(dep1).max(dep2);

        let ready = match op.class {
            OpClass::Load | OpClass::Store => {
                // Structural: LSQ must have room.
                if self.lsq_commits.len() >= self.params.lsq_entries {
                    let oldest = self.lsq_commits.pop_front().expect("non-empty");
                    issue = issue.max(oldest);
                }
                // Structural: a data-cache port must be free.
                issue = self.fu_mem.issue(issue);
                let addr = op.mem_addr.expect("memory op needs an address");
                let out = self.mem.data_access(addr, op.access_kind(), issue);
                if op.class == OpClass::Load {
                    self.loads.inc();
                    out.complete_at
                } else {
                    self.stores.inc();
                    // Stores complete into the LSQ; dependents (rare) see
                    // store-to-load forwarding at +1.
                    issue + OpClass::Store.latency()
                }
            }
            OpClass::Branch => {
                self.branches.inc();
                let resolve = issue + OpClass::Branch.latency();
                let correct = self.predictor.predict_and_update(op.pc, op.taken);
                if !correct {
                    // Redirect: the front end restarts after the penalty.
                    let restart = resolve + self.params.mispredict_penalty;
                    if restart > self.fetch_free {
                        self.fetch_free = restart;
                        self.fetch_slot = 0;
                    }
                }
                resolve
            }
            c => {
                let pool = match c {
                    OpClass::IntAlu => {
                        self.int_ops.inc();
                        &mut self.fu_int_alu
                    }
                    OpClass::IntMul => {
                        self.int_ops.inc();
                        &mut self.fu_int_mul
                    }
                    OpClass::FpAlu => {
                        self.fp_ops.inc();
                        &mut self.fu_fp_alu
                    }
                    OpClass::FpMul => {
                        self.fp_ops.inc();
                        &mut self.fu_fp_mul
                    }
                    _ => unreachable!(),
                };
                let start = pool.issue(issue);
                start + c.latency()
            }
        };

        // Record for dependents.
        if self.ready_window.len() >= self.params.ruu_entries {
            self.ready_window.pop_front();
        }
        self.ready_window.push_back(ready);

        let commit_t = self.commit(ready);
        self.ruu_commits.push_back(commit_t);
        if op.class.is_mem() {
            self.lsq_commits.push_back(commit_t);
        }
        self.instructions.inc();
        if self.last_commit.raw() >= self.next_snap {
            self.snapshot();
        }
    }

    /// Runs `n` ops from `src`.
    pub fn run<S: TraceSource>(&mut self, src: &mut S, n: u64) {
        for _ in 0..n {
            let op = src.next_op();
            self.execute(op);
        }
    }

    /// Warm-up execution of one micro-op: applies its architectural
    /// effects (I-/D-cache and lower-level contents, branch-predictor
    /// training) while skipping the out-of-order timing model — no
    /// windows, functional units, port contention, or latency math.
    pub fn warm_execute(&mut self, op: MicroOp) {
        // Same once-per-line I-cache probe discipline as `fetch`.
        let block = self.fetch_geom.block_of(op.pc).index();
        if self.last_fetch_block != Some(block) {
            self.last_fetch_block = Some(block);
            self.mem.warm_fetch(op.pc);
        }
        match op.class {
            OpClass::Load | OpClass::Store => {
                let addr = op.mem_addr.expect("memory op needs an address");
                self.mem.warm_data_access(addr, op.access_kind());
            }
            OpClass::Branch => {
                let _ = self.predictor.predict_and_update(op.pc, op.taken);
            }
            _ => {}
        }
    }

    /// Warm-runs `n` ops from `src` through [`Self::warm_execute`].
    pub fn warm_run<S: TraceSource>(&mut self, src: &mut S, n: u64) {
        for _ in 0..n {
            let op = src.next_op();
            self.warm_execute(op);
        }
    }

    /// Functional fast-forward to an **absolute** stream offset: warm-runs
    /// until `src` has emitted `target` ops. A no-op when the stream is
    /// already at (or past) the target, so callers can issue it
    /// unconditionally between sampled windows.
    pub fn warm_run_to<S: crate::uop::TraceCursor>(&mut self, src: &mut S, target: u64) {
        let n = target.saturating_sub(src.position());
        self.warm_run(src, n);
    }

    /// Branch predictor statistics.
    pub fn predictor(&self) -> &HybridPredictor {
        &self.predictor
    }

    /// Mutable access to the branch predictor (for checkpoint restore).
    pub fn predictor_mut(&mut self) -> &mut HybridPredictor {
        &mut self.predictor
    }

    /// The memory system (for cache statistics).
    pub fn mem(&self) -> &CoreMemSystem<L> {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut CoreMemSystem<L> {
        &mut self.mem
    }

    /// Committed instructions so far.
    pub fn instructions(&self) -> u64 {
        self.instructions.get()
    }

    /// Current cycle count (time of the latest commit).
    pub fn cycles(&self) -> u64 {
        self.last_commit.raw()
    }

    /// Finalizes the run and returns the aggregate result.
    pub fn finish(&self) -> CoreResult {
        CoreResult {
            instructions: self.instructions.get(),
            cycles: self.last_commit.raw(),
            loads: self.loads.get(),
            stores: self.stores.get(),
            branches: self.branches.get(),
            mispredicts: self.predictor.mispredictions(),
            int_ops: self.int_ops.get(),
            fp_ops: self.fp_ops.get(),
        }
    }

    /// Consumes the core, returning the memory system.
    pub fn into_mem(self) -> CoreMemSystem<L> {
        self.mem
    }

    /// Consumes the core, returning the memory system and the trained
    /// predictor — the pieces that survive the stats boundary when a
    /// fresh core is built for the measured phase.
    pub fn into_parts(self) -> (CoreMemSystem<L>, HybridPredictor) {
        (self.mem, self.predictor)
    }

    /// The drain barrier at the stats boundary (DESIGN.md §11): clears the
    /// L1s' timing state, zeroes the L1 and predictor counters, hands the
    /// lower level to `lower` (which drains and resets whatever it owns),
    /// and rebuilds the core at cycle zero over the preserved
    /// architectural state. Every measured phase — single-core, sampled
    /// interval, and each CMP core — crosses this one function.
    #[must_use]
    pub fn drain_barrier(self, lower: impl FnOnce(&mut L)) -> Self {
        let params = self.params;
        let (mut mem, mut pred) = self.into_parts();
        mem.drain_timing();
        mem.reset_stats();
        lower(mem.lower_mut());
        pred.reset_counters();
        let mut core = OooCore::new(params, mem);
        core.set_predictor(pred);
        core
    }

    /// Replaces the predictor (transplanting trained tables across the
    /// warm-up/measure boundary).
    pub fn set_predictor(&mut self, predictor: HybridPredictor) {
        self.predictor = predictor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::MicroOp;
    use memsys::hierarchy::BaseHierarchy;

    fn core() -> OooCore<BaseHierarchy> {
        OooCore::new(
            CoreParams::micro2003(),
            CoreMemSystem::micro2003(BaseHierarchy::micro2003()),
        )
    }

    /// A looping 2-KB code footprint: pc for instruction `i`.
    fn loop_pc(i: u64) -> Addr {
        Addr::new((i % 512) * 4)
    }

    #[test]
    fn independent_alu_ops_run_at_full_width() {
        let mut c = core();
        // Warm the I-cache over the loop body, then measure steady state.
        for i in 0..1024u64 {
            c.execute(MicroOp::alu(loop_pc(i)));
        }
        let warm_cycles = c.cycles();
        for i in 1024..41_024u64 {
            c.execute(MicroOp::alu(loop_pc(i)));
        }
        let steady_ipc = 40_000.0 / (c.cycles() - warm_cycles) as f64;
        // 8-wide: steady-state IPC approaches 8.
        assert!(steady_ipc > 6.0, "ipc={steady_ipc}");
        assert_eq!(c.finish().instructions, 41_024);
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut c = core();
        for i in 0..1024u64 {
            c.execute(MicroOp::alu(loop_pc(i))); // warm I-cache
        }
        let warm_cycles = c.cycles();
        for i in 1024..5024u64 {
            let mut op = MicroOp::alu(loop_pc(i));
            op.dep1 = 1; // each op depends on its predecessor
            c.execute(op);
        }
        let steady_ipc = 4000.0 / (c.cycles() - warm_cycles) as f64;
        assert!(steady_ipc < 1.2, "ipc={steady_ipc}");
        assert!(steady_ipc > 0.8, "ipc={steady_ipc}");
    }

    /// A cold-miss address stream that spreads across cache sets (odd
    /// stride avoids aliasing every access onto one set).
    fn miss_addr(i: u64) -> Addr {
        Addr::new((i * 131_101) % (64 * 1024 * 1024))
    }

    #[test]
    fn dependent_loads_expose_memory_latency() {
        // A pointer chase over a footprint far beyond L2: every load misses
        // and depends on the previous one -> IPC collapses.
        let mut c = core();
        for i in 0..2000u64 {
            c.execute(MicroOp::load(loop_pc(i), miss_addr(i), 1));
        }
        let r = c.finish();
        assert!(r.ipc() < 0.05, "ipc={}", r.ipc());
    }

    #[test]
    fn independent_misses_overlap_through_mshrs() {
        // Same miss stream but independent: MLP should lift IPC well above
        // the serial case.
        let serial = {
            let mut c = core();
            for i in 0..2000u64 {
                c.execute(MicroOp::load(loop_pc(i), miss_addr(i), 1));
            }
            c.finish().ipc()
        };
        let parallel = {
            let mut c = core();
            for i in 0..2000u64 {
                c.execute(MicroOp::load(loop_pc(i), miss_addr(i), 0));
            }
            c.finish().ipc()
        };
        assert!(
            parallel > 3.0 * serial,
            "parallel {parallel} vs serial {serial}"
        );
    }

    #[test]
    fn mispredicted_branches_slow_the_machine() {
        use simbase::rng::SimRng;
        let mut rng = SimRng::seeded(11);
        // Random branches: ~half mispredict, each costing the 9-cycle
        // penalty.
        let mut c = core();
        for i in 0..8000u64 {
            if i % 4 == 0 {
                c.execute(MicroOp::branch(Addr::new(0x100), rng.chance(0.5)));
            } else {
                c.execute(MicroOp::alu(loop_pc(i)));
            }
        }
        let random_ipc = c.finish().ipc();

        let mut c = core();
        for i in 0..8000u64 {
            if i % 4 == 0 {
                c.execute(MicroOp::branch(Addr::new(0x100), true));
            } else {
                c.execute(MicroOp::alu(loop_pc(i)));
            }
        }
        let predictable_ipc = c.finish().ipc();
        assert!(
            predictable_ipc > 1.5 * random_ipc,
            "predictable {predictable_ipc} vs random {random_ipc}"
        );
    }

    #[test]
    fn lsq_bounds_outstanding_memory_ops() {
        // With > 32 independent loads in flight the LSQ becomes the limit;
        // the model must not let hundreds overlap.
        let mut c = core();
        for i in 0..1000u64 {
            c.execute(MicroOp::load(loop_pc(i), miss_addr(i), 0));
        }
        let r = c.finish();
        // 1000 misses at ~237 cycles each, at most ~8 overlapped by MSHRs:
        // total cycles must exceed 1000 * 237 / 8.
        assert!(r.cycles > 1000 * 237 / 8 / 2, "cycles={}", r.cycles);
    }

    #[test]
    fn run_consumes_a_trace_source() {
        let mut c = core();
        let mut n = 0u64;
        let mut src = move || {
            n += 1;
            MicroOp::alu(Addr::new(n * 4))
        };
        c.run(&mut src, 500);
        assert_eq!(c.instructions(), 500);
        assert!(c.cycles() > 0);
    }

    #[test]
    fn op_mix_counters() {
        let mut c = core();
        c.execute(MicroOp::alu(Addr::new(0)));
        c.execute(MicroOp::load(Addr::new(4), Addr::new(0x100), 0));
        c.execute(MicroOp::store(Addr::new(8), Addr::new(0x100), 0));
        c.execute(MicroOp::branch(Addr::new(12), true));
        let mut fp = MicroOp::alu(Addr::new(16));
        fp.class = OpClass::FpMul;
        c.execute(fp);
        let r = c.finish();
        assert_eq!(
            (r.loads, r.stores, r.branches, r.int_ops, r.fp_ops),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(r.instructions, 5);
    }

    #[test]
    fn store_misses_outpace_dependent_load_misses() {
        // Stores complete into the LSQ at issue+1 and their misses overlap
        // through the MSHRs, so an all-miss store stream must run well
        // ahead of an equal all-miss dependent-load stream.
        let store_ipc = {
            let mut c = core();
            for i in 0..500u64 {
                c.execute(MicroOp::store(loop_pc(i), miss_addr(i), 0));
            }
            c.finish().ipc()
        };
        let load_ipc = {
            let mut c = core();
            for i in 0..500u64 {
                c.execute(MicroOp::load(loop_pc(i), miss_addr(i), 1));
            }
            c.finish().ipc()
        };
        assert!(
            store_ipc > 2.0 * load_ipc,
            "stores {store_ipc} vs dependent loads {load_ipc}"
        );
    }

    #[test]
    fn fp_multiplier_pool_caps_throughput() {
        // Two pipelined FP multipliers: an endless stream of independent
        // FpMul ops cannot exceed 2 IPC.
        let mut c = core();
        for i in 0..1024u64 {
            c.execute(MicroOp::alu(loop_pc(i))); // warm the I-cache
        }
        let warm = c.cycles();
        for i in 1024..9216u64 {
            let mut op = MicroOp::alu(loop_pc(i));
            op.class = OpClass::FpMul;
            c.execute(op);
        }
        let ipc = 8192.0 / (c.cycles() - warm) as f64;
        assert!(ipc < 2.2, "ipc={ipc} exceeds the 2-unit FP multiply pool");
        assert!(ipc > 1.5, "ipc={ipc} far below the 2-unit bound");
    }

    #[test]
    fn single_data_port_caps_l1_hit_throughput() {
        // Table 1: one pipelined data-cache port -> at most one memory op
        // per cycle even when everything hits.
        let mut c = core();
        for i in 0..1024u64 {
            c.execute(MicroOp::alu(loop_pc(i)));
        }
        // Warm a single line, then hammer it.
        c.execute(MicroOp::load(loop_pc(0), Addr::new(0x100), 0));
        let warm = c.cycles();
        for i in 0..8192u64 {
            c.execute(MicroOp::load(loop_pc(i), Addr::new(0x100), 0));
        }
        let ipc = 8192.0 / (c.cycles() - warm) as f64;
        assert!(ipc < 1.1, "ipc={ipc} exceeds the single data port");
    }

    #[test]
    fn fast_forward_warm_up_yields_bit_identical_measured_phase() {
        use simbase::rng::SimRng;
        // A mixed op stream spanning L1 reuse, L2/L3 footprints, memory
        // misses, dependent loads, stores, and biased branches.
        let stream = |seed: u64, n: u64| {
            let mut rng = SimRng::seeded(seed);
            let mut ops = Vec::with_capacity(n as usize);
            for i in 0..n {
                let pc = loop_pc(i);
                let roll = rng.unit();
                let op = if roll < 0.30 {
                    let addr = if rng.chance(0.6) {
                        Addr::new(rng.below(1 << 16) * 32)
                    } else {
                        miss_addr(rng.below(1 << 20))
                    };
                    MicroOp::load(pc, addr, if rng.chance(0.3) { 1 } else { 0 })
                } else if roll < 0.42 {
                    MicroOp::store(pc, Addr::new(rng.below(1 << 18) * 32), 0)
                } else if roll < 0.55 {
                    MicroOp::branch(pc, rng.chance(0.85))
                } else {
                    MicroOp::alu(pc)
                };
                ops.push(op);
            }
            ops
        };
        let warm_ops = stream(21, 40_000);
        let measure_ops = stream(22, 20_000);

        let mut timed = core();
        let mut fast = core();
        for op in &warm_ops {
            timed.execute(*op);
            fast.warm_execute(*op);
        }
        // The drain barrier both modes share.
        let rebuild = |c: OooCore<BaseHierarchy>| {
            c.drain_barrier(|lower| {
                lower.drain_timing();
                lower.reset_stats();
            })
        };
        let mut timed = rebuild(timed);
        let mut fast = rebuild(fast);
        for op in &measure_ops {
            timed.execute(*op);
            fast.execute(*op);
        }
        assert_eq!(timed.finish(), fast.finish());
        assert_eq!(timed.mem().d_hits(), fast.mem().d_hits());
        assert_eq!(timed.mem().i_hits(), fast.mem().i_hits());
        assert_eq!(
            timed.mem().lower().misses(),
            fast.mem().lower().misses()
        );
    }

    #[test]
    fn finish_is_idempotent() {
        let mut c = core();
        c.execute(MicroOp::alu(Addr::new(0)));
        let a = c.finish();
        let b = c.finish();
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
    }
}
