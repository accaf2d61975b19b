//! Per-bank contention: a history-based queue model for the shared
//! lower-level cache (DESIGN.md §14).
//!
//! Each bank keeps a short history of **busy windows** — intervals during
//! which its data array is occupied serving earlier accesses. A new
//! access arriving at cycle `t` is slotted into the earliest gap that
//! fits the bank's bandwidth-derived service time (`block_bytes /
//! bytes_per_cycle`); the cycles between arrival and the slot's start are
//! the **queue delay**, charged on top of the organization's geometry
//! latencies and bounded by `max_delay` so one pathological burst cannot
//! stall a requestor forever. This is the Sniper `NucaCache` idiom
//! (history-list queue model + `getRoundedLatency(8 * block_size)`
//! processing time), reduced to what a deterministic single-thread
//! simulator needs: no wall clock, no floating point, bounded memory.
//!
//! The model is **timing-only** state: [`BankQueues::drain`] forgets all
//! busy windows at the warm-up drain barrier, exactly like MSHRs and port
//! schedules, so checkpoints never serialize it.

use simbase::digest::Tag;
use simbase::{BlockAddr, Cycle};
use std::collections::VecDeque;

/// Busy windows remembered per bank. Older windows are trimmed first;
/// with back-to-back traffic adjacent windows merge, so in practice the
/// list stays short.
const MAX_WINDOWS: usize = 8;

/// Bandwidth/bound parameters for one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankQueueParams {
    /// Cycles the data array is busy per access (bandwidth-derived).
    pub service_cycles: u64,
    /// Upper bound on the queue delay charged to any single access.
    pub max_delay: u64,
}

impl BankQueueParams {
    /// The paper-era defaults: a 16-byte/cycle data array (so a 128-B
    /// block occupies its bank for 8 cycles) and a 64-cycle delay bound.
    pub fn micro2003(block_bytes: u64) -> Self {
        BankQueueParams {
            service_cycles: (block_bytes / 16).max(1),
            max_delay: 64,
        }
    }
}

/// The bank queue is timing-only state, so both parameters are too.
pub const BANK_QUEUE_TIMING: Tag = Tag::Timing("bank queues drain at the barrier");

simbase::knobs!(BankQueueParams {
    service_cycles: BANK_QUEUE_TIMING,
    max_delay: BANK_QUEUE_TIMING,
});

/// One bank's busy-window history.
#[derive(Debug, Clone)]
pub struct BankQueue {
    params: BankQueueParams,
    /// Sorted, non-overlapping `(start, end)` busy intervals.
    windows: VecDeque<(u64, u64)>,
    accesses: u64,
    conflicts: u64,
    stall_cycles: u64,
}

impl BankQueue {
    /// An idle bank.
    pub fn new(params: BankQueueParams) -> Self {
        assert!(params.service_cycles > 0, "a bank cannot serve in zero cycles");
        BankQueue {
            params,
            windows: VecDeque::with_capacity(MAX_WINDOWS + 1),
            accesses: 0,
            conflicts: 0,
            stall_cycles: 0,
        }
    }

    /// Occupies the bank for one access arriving at `now`; returns the
    /// queue delay (0 on an idle bank) charged to this access.
    pub fn occupy(&mut self, now: Cycle) -> u64 {
        let now = now.raw();
        self.accesses += 1;
        // Expire history that ends at or before the arrival.
        while self.windows.front().is_some_and(|&(_, end)| end <= now) {
            self.windows.pop_front();
        }
        // Earliest feasible start: slide past every window the service
        // interval cannot fit in front of.
        let service = self.params.service_cycles;
        let mut start = now;
        let mut idx = self.windows.len();
        for (i, &(w_start, w_end)) in self.windows.iter().enumerate() {
            if start + service <= w_start {
                idx = i;
                break;
            }
            if w_end > start {
                start = w_end;
            }
        }
        let delay = (start - now).min(self.params.max_delay);
        if delay > 0 {
            self.conflicts += 1;
            self.stall_cycles += delay;
        }
        // Record the busy window at its uncapped position (the bank really
        // is occupied then) and merge with touching neighbors.
        self.windows.insert(idx, (start, start + service));
        self.merge_around(idx);
        while self.windows.len() > MAX_WINDOWS {
            self.windows.pop_front();
        }
        delay
    }

    /// Merges the window at `idx` with neighbors it touches or overlaps.
    fn merge_around(&mut self, idx: usize) {
        // Merge forward.
        while idx + 1 < self.windows.len() && self.windows[idx].1 >= self.windows[idx + 1].0 {
            let next = self.windows.remove(idx + 1).expect("bounded index");
            self.windows[idx].1 = self.windows[idx].1.max(next.1);
        }
        // Merge backward.
        if idx > 0 && self.windows[idx - 1].1 >= self.windows[idx].0 {
            let cur = self.windows.remove(idx).expect("bounded index");
            self.windows[idx - 1].1 = self.windows[idx - 1].1.max(cur.1);
        }
    }

    /// Accesses that found the bank busy.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total queue-delay cycles charged.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Total accesses through this bank.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Forgets all busy windows (the warm-up drain barrier).
    pub fn drain(&mut self) {
        self.windows.clear();
    }

    /// Zeroes the contention counters.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.conflicts = 0;
        self.stall_cycles = 0;
    }
}

/// The bank array in front of a shared organization: block index modulo
/// bank count picks the bank, mirroring the address-interleaved bank maps
/// of the multibanked NUCA designs.
#[derive(Debug, Clone)]
pub struct BankQueues {
    banks: Vec<BankQueue>,
}

impl BankQueues {
    /// `n_banks` idle banks with identical parameters.
    pub fn new(n_banks: usize, params: BankQueueParams) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        BankQueues {
            banks: vec![BankQueue::new(params); n_banks],
        }
    }

    /// The bank serving `block`.
    pub fn bank_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.banks.len() as u64) as usize
    }

    /// Charges one access to `block` arriving at `now`; returns its queue
    /// delay.
    pub fn occupy(&mut self, block: BlockAddr, now: Cycle) -> u64 {
        let b = self.bank_of(block);
        self.banks[b].occupy(now)
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Always false: the constructor rejects zero banks.
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Accesses that found their bank busy, summed over banks.
    pub fn conflicts(&self) -> u64 {
        self.banks.iter().map(BankQueue::conflicts).sum()
    }

    /// Queue-delay cycles charged, summed over banks.
    pub fn stall_cycles(&self) -> u64 {
        self.banks.iter().map(BankQueue::stall_cycles).sum()
    }

    /// Forgets every bank's busy windows (drain barrier).
    pub fn drain(&mut self) {
        for b in &mut self.banks {
            b.drain();
        }
    }

    /// Zeroes every bank's contention counters.
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(service: u64, max_delay: u64) -> BankQueue {
        BankQueue::new(BankQueueParams {
            service_cycles: service,
            max_delay,
        })
    }

    #[test]
    fn idle_bank_charges_nothing() {
        let mut b = q(8, 64);
        assert_eq!(b.occupy(Cycle::new(100)), 0);
        assert_eq!(b.conflicts(), 0);
        assert_eq!(b.stall_cycles(), 0);
    }

    #[test]
    fn back_to_back_accesses_queue_behind_the_service_window() {
        let mut b = q(8, 64);
        assert_eq!(b.occupy(Cycle::new(0)), 0); // busy [0, 8)
        assert_eq!(b.occupy(Cycle::new(0)), 8); // waits for the window
        assert_eq!(b.occupy(Cycle::new(0)), 16);
        assert_eq!(b.conflicts(), 2);
        assert_eq!(b.stall_cycles(), 24);
    }

    #[test]
    fn delay_is_bounded() {
        let mut b = q(10, 15);
        for _ in 0..50 {
            assert!(b.occupy(Cycle::new(0)) <= 15);
        }
    }

    #[test]
    fn a_gap_in_the_history_is_reused() {
        let mut b = q(4, 64);
        assert_eq!(b.occupy(Cycle::new(0)), 0); // [0, 4)
        assert_eq!(b.occupy(Cycle::new(20)), 0); // [20, 24)
                                                 // Arrives at 8: fits entirely inside the [4, 20) gap.
        assert_eq!(b.occupy(Cycle::new(8)), 0);
        assert_eq!(b.conflicts(), 0);
    }

    #[test]
    fn expired_windows_are_forgotten() {
        let mut b = q(8, 64);
        b.occupy(Cycle::new(0));
        assert_eq!(b.occupy(Cycle::new(1000)), 0);
    }

    #[test]
    fn drain_forgets_busy_windows_but_not_stats() {
        let mut b = q(8, 64);
        b.occupy(Cycle::new(0));
        b.occupy(Cycle::new(0));
        b.drain();
        assert_eq!(b.occupy(Cycle::new(0)), 0, "drained bank is idle");
        assert_eq!(b.conflicts(), 1, "drain keeps counters");
        b.reset_stats();
        assert_eq!((b.conflicts(), b.stall_cycles(), b.accesses()), (0, 0, 0));
    }

    #[test]
    fn banks_are_independent_and_block_mapped() {
        let mut banks = BankQueues::new(4, BankQueueParams::micro2003(128));
        let b0 = BlockAddr::from_index(0);
        let b1 = BlockAddr::from_index(1);
        let b4 = BlockAddr::from_index(4);
        assert_eq!(banks.bank_of(b0), banks.bank_of(b4));
        assert_ne!(banks.bank_of(b0), banks.bank_of(b1));
        assert_eq!(banks.occupy(b0, Cycle::new(0)), 0);
        assert_eq!(banks.occupy(b1, Cycle::new(0)), 0, "different bank is idle");
        assert!(banks.occupy(b4, Cycle::new(0)) > 0, "same bank is busy");
        assert_eq!(banks.conflicts(), 1);
        assert!(banks.stall_cycles() > 0);
    }

    #[test]
    fn micro2003_parameters_are_bandwidth_derived() {
        let p = BankQueueParams::micro2003(128);
        assert_eq!(p.service_cycles, 8, "128 B at 16 B/cycle");
        assert_eq!(p.max_delay, 64);
    }
}
