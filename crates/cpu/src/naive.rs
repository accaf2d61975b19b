//! Naive reference implementation of the out-of-order core: the
//! `VecDeque` formulation the ring-indexed [`crate::OooCore`] replaced,
//! kept verbatim as a differential-testing oracle (DESIGN.md §10).
//!
//! [`NaiveOooCore`] must be *observably identical* to [`crate::OooCore`]:
//! the same commit clock after every op and the same [`CoreResult`], for
//! every trace and every [`CoreParams`] the fast core accepts.
//! `tests/differential.rs` at the workspace root enforces that with a
//! randomized simkit property; this type is `pub` (not `#[cfg(test)]`)
//! solely so that test can see it. Nothing on the simulation hot path
//! uses this module.
//!
//! Do not "improve" this code: its value is that it is the obviously
//! correct queue-per-structure implementation the branch-light core is
//! measured against. Telemetry snapshots are left out; they observe the
//! clock and never feed it.

use crate::branch::HybridPredictor;
use crate::core::{CoreParams, CoreResult};
use crate::uop::{MicroOp, OpClass};
use memsys::l1::CoreMemSystem;
use memsys::lower::LowerCache;
use simbase::stats::Counter;
use simbase::{Addr, BlockGeometry, Cycle};
use std::collections::VecDeque;

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

/// The out-of-order core with one `VecDeque` per window structure.
#[derive(Debug)]
pub struct NaiveOooCore<L> {
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
}

impl<L: LowerCache> NaiveOooCore<L> {
    /// Creates a core with `params` over the given memory system.
    pub fn new(params: CoreParams, mem: CoreMemSystem<L>) -> Self {
        assert!(params.width > 0 && params.ruu_entries > 0 && params.lsq_entries > 0);
        NaiveOooCore {
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

    /// The drain barrier: clears the L1s' timing state, zeroes the L1
    /// and predictor counters, hands the lower level to `lower`, and
    /// rebuilds the core at cycle zero over the preserved state.
    #[must_use]
    pub fn drain_barrier(self, lower: impl FnOnce(&mut L)) -> Self {
        let params = self.params;
        let (mut mem, mut pred) = (self.mem, self.predictor);
        mem.drain_timing();
        mem.reset_stats();
        lower(mem.lower_mut());
        pred.reset_counters();
        let mut core = NaiveOooCore::new(params, mem);
        core.predictor = pred;
        core
    }
}
