//! The single-port occupancy schedule.
//!
//! NuRAPID is one-ported and non-banked (Section 2.3): one array operation
//! at a time, and outstanding swaps must complete before a new access is
//! initiated. A miss, however, does not hold the arrays while DRAM works —
//! the port is busy for the tag probe up front and again for the fill (and
//! its demotion chain) when the data returns. This schedule tracks those
//! future reservations so intervening hits can slip into the gaps.

use simbase::Cycle;

/// Busy intervals of a single-ported structure.
///
/// Stored as a flat sorted `Vec` scanned from a moving `head` index:
/// pruned intervals advance `head` instead of shifting the buffer, and the
/// buffer is compacted only when the dead prefix dominates. The live
/// window is small (bounded by the reservation lag), so scans and
/// mid-buffer inserts stay within a cache line or two.
///
/// # Examples
///
/// ```
/// use nurapid::port::PortSchedule;
/// use simbase::Cycle;
///
/// let mut port = PortSchedule::new();
/// // A fill reserved in the future does not block a hit now...
/// assert_eq!(port.reserve(Cycle::new(200), 20), Cycle::new(200));
/// assert_eq!(port.reserve(Cycle::new(0), 10), Cycle::ZERO);
/// // ...but an operation that would overlap it is pushed past.
/// assert_eq!(port.reserve(Cycle::new(195), 10), Cycle::new(220));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PortSchedule {
    /// Sorted, disjoint `[start, end)` reservations; live from `head`.
    busy: Vec<(Cycle, Cycle)>,
    /// Index of the first live reservation in `busy`.
    head: usize,
}

impl PortSchedule {
    /// Creates an idle port.
    ///
    /// The buffer is preallocated to its steady-state bound up front:
    /// live reservations span at most the pruning lag (4096 cycles, see
    /// [`PortSchedule::reserve`]) and every port operation occupies at
    /// least a few cycles, so with the ×2 compaction slack the buffer
    /// never outgrows this — keeping the per-access path allocation-free
    /// from the first access (`tests/no_alloc.rs`) instead of after a
    /// workload-dependent warm-up.
    pub fn new() -> Self {
        PortSchedule {
            busy: Vec::with_capacity(2048),
            head: 0,
        }
    }

    /// Reserves `dur` port cycles at the earliest time ≥ `at` that does
    /// not overlap an existing reservation. Returns the start time.
    ///
    /// Request times must be quasi-monotonic: `at` may lag the largest
    /// previously requested time by at most ~4096 cycles (reservations
    /// older than that are pruned). The out-of-order core's issue times
    /// wander by at most a window's worth of cycles, far inside that
    /// bound.
    pub fn reserve(&mut self, at: Cycle, dur: u64) -> Cycle {
        // Drop reservations that ended well before `at`. Requests arrive
        // nearly — but not exactly — in time order from the out-of-order
        // core, so keep a generous lag margin before forgetting history.
        const LAG: u64 = 4096;
        while let Some(&(_, end)) = self.busy.get(self.head) {
            if end.raw() + LAG <= at.raw() {
                self.head += 1;
            } else {
                break;
            }
        }
        // Compact once the dead prefix dominates, keeping inserts cheap
        // without shifting the buffer on every prune.
        if self.head > 32 && self.head * 2 >= self.busy.len() {
            self.busy.drain(..self.head);
            self.head = 0;
        }
        // Intervals that end at or before `at` cannot move `start` and
        // (for dur > 0) cannot satisfy the gap-fit break, so binary-search
        // past them instead of walking the whole live window. Zero-length
        // requests keep the full scan: an empty interval sitting exactly
        // at `at` could legitimately break first.
        let scan_from = if dur > 0 {
            self.head + self.busy[self.head..].partition_point(|&(_, e)| e <= at)
        } else {
            self.head
        };
        let mut start = at;
        let mut insert_at = scan_from;
        for (i, &(s, e)) in self.busy[scan_from..].iter().enumerate() {
            if start.raw() + dur <= s.raw() {
                break; // fits in the gap before interval i
            }
            if start < e {
                start = e; // pushed past this interval
            }
            insert_at = scan_from + i + 1;
        }
        self.busy.insert(insert_at, (start, start + dur));
        start
    }

    /// Earliest time ≥ `at` the port is free (without reserving).
    pub fn next_free(&self, at: Cycle) -> Cycle {
        let mut t = at;
        for &(s, e) in &self.busy[self.head..] {
            if t < s {
                break;
            }
            if t < e {
                t = e;
            }
        }
        t
    }

    /// Number of live reservations (for tests).
    pub fn reservations(&self) -> usize {
        self.busy.len() - self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u64) -> Cycle {
        Cycle::new(x)
    }

    #[test]
    fn idle_port_grants_immediately() {
        let mut p = PortSchedule::new();
        assert_eq!(p.reserve(c(10), 5), c(10));
    }

    #[test]
    fn back_to_back_reservations_queue() {
        let mut p = PortSchedule::new();
        assert_eq!(p.reserve(c(0), 10), c(0));
        assert_eq!(p.reserve(c(0), 10), c(10));
        assert_eq!(p.reserve(c(5), 3), c(20));
    }

    #[test]
    fn gaps_between_reservations_are_usable() {
        let mut p = PortSchedule::new();
        // A fill reserved far in the future must not block a hit now.
        assert_eq!(p.reserve(c(200), 20), c(200));
        assert_eq!(p.reserve(c(0), 14), c(0));
        assert_eq!(p.reserve(c(14), 14), c(14));
        // But an operation that would overlap the future interval is
        // pushed past it.
        assert_eq!(p.reserve(c(195), 14), c(220));
    }

    #[test]
    fn operation_fitting_exactly_in_gap() {
        let mut p = PortSchedule::new();
        p.reserve(c(0), 10);
        p.reserve(c(30), 10);
        assert_eq!(p.reserve(c(0), 20), c(10), "20-cycle op fits in [10,30)");
        assert_eq!(p.reserve(c(0), 1), c(40), "everything earlier is taken");
    }

    #[test]
    fn next_free_does_not_reserve() {
        let mut p = PortSchedule::new();
        p.reserve(c(0), 10);
        assert_eq!(p.next_free(c(0)), c(10));
        assert_eq!(p.next_free(c(0)), c(10));
        assert_eq!(p.next_free(c(15)), c(15));
    }

    #[test]
    fn expired_reservations_are_pruned() {
        let mut p = PortSchedule::new();
        for i in 0..100 {
            p.reserve(c(i * 10), 5);
        }
        p.reserve(c(10_000), 1);
        assert!(p.reservations() <= 2, "old intervals must be dropped");
    }
}
