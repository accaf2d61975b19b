//! Miss-status holding registers (MSHRs).
//!
//! The paper's L1 data cache has 8 MSHRs (Table 1): up to eight distinct
//! block misses may be outstanding; further misses to an already-pending
//! block merge into the existing entry, and misses beyond the MSHR count
//! stall until an entry frees.

use simbase::{BlockAddr, Cycle};

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss must be sent onward.
    Allocated,
    /// The block is already pending; this access completes when the
    /// earlier miss fills, at the returned time.
    Merged(Cycle),
    /// All entries are busy; the access must wait until the returned time
    /// (when the earliest entry retires) and retry.
    Full(Cycle),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    block: BlockAddr,
    fill_at: Cycle,
}

/// A fixed-capacity MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    merges: u64,
    stalls: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merges: 0,
            stalls: 0,
        }
    }

    /// Retires every entry whose fill time is at or before `now`.
    pub fn expire(&mut self, now: Cycle) {
        self.entries.retain(|e| e.fill_at > now);
    }

    /// Presents a miss on `block` at time `now`.
    ///
    /// On [`MshrOutcome::Allocated`] the caller must later call
    /// [`MshrFile::set_fill_time`] once the lower-level latency is known.
    pub fn on_miss(&mut self, block: BlockAddr, now: Cycle) -> MshrOutcome {
        self.expire(now);
        if let Some(e) = self.entries.iter().find(|e| e.block == block) {
            self.merges += 1;
            return MshrOutcome::Merged(e.fill_at);
        }
        if self.entries.len() >= self.capacity {
            self.stalls += 1;
            let earliest =
                self.entries.iter().map(|e| e.fill_at).min().expect("full file is non-empty");
            return MshrOutcome::Full(earliest);
        }
        self.entries.push(Entry {
            block,
            // Placeholder until the lower level reports the fill time; an
            // entry with fill_at == now will expire on the next call, so
            // the caller must set the real time promptly.
            fill_at: now,
        });
        MshrOutcome::Allocated
    }

    /// Records when the outstanding miss on `block` will fill.
    ///
    /// # Panics
    ///
    /// Panics if `block` has no outstanding entry.
    pub fn set_fill_time(&mut self, block: BlockAddr, fill_at: Cycle) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.block == block)
            .expect("set_fill_time on unknown block");
        e.fill_at = fill_at;
    }

    /// Drops every outstanding entry and zeroes the merge/stall counters.
    /// Used at the warm-up drain barrier: the measured phase starts from a
    /// quiesced machine with no in-flight misses.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.merges = 0;
        self.stalls = 0;
    }

    /// Number of currently outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Total merged (secondary) misses observed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total structural stalls (file full) observed.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(8);
        assert_eq!(m.on_miss(blk(1), Cycle::new(0)), MshrOutcome::Allocated);
        m.set_fill_time(blk(1), Cycle::new(100));
        assert_eq!(m.on_miss(blk(1), Cycle::new(5)), MshrOutcome::Merged(Cycle::new(100)));
        assert_eq!(m.merges(), 1);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn fills_expire() {
        let mut m = MshrFile::new(2);
        m.on_miss(blk(1), Cycle::new(0));
        m.set_fill_time(blk(1), Cycle::new(50));
        m.expire(Cycle::new(50));
        assert_eq!(m.outstanding(), 0);
        // A new miss on the same block allocates afresh.
        assert_eq!(m.on_miss(blk(1), Cycle::new(51)), MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_reports_earliest_retirement() {
        let mut m = MshrFile::new(2);
        m.on_miss(blk(1), Cycle::new(0));
        m.set_fill_time(blk(1), Cycle::new(30));
        m.on_miss(blk(2), Cycle::new(0));
        m.set_fill_time(blk(2), Cycle::new(80));
        assert_eq!(m.on_miss(blk(3), Cycle::new(1)), MshrOutcome::Full(Cycle::new(30)));
        assert_eq!(m.stalls(), 1);
        // After the earliest entry expires there is room again.
        assert_eq!(m.on_miss(blk(3), Cycle::new(30)), MshrOutcome::Allocated);
    }

    #[test]
    fn eight_mshrs_allow_eight_outstanding() {
        let mut m = MshrFile::new(8);
        for i in 0..8 {
            assert_eq!(m.on_miss(blk(i), Cycle::new(0)), MshrOutcome::Allocated);
            m.set_fill_time(blk(i), Cycle::new(1000));
        }
        assert!(matches!(m.on_miss(blk(8), Cycle::new(1)), MshrOutcome::Full(_)));
        assert_eq!(m.outstanding(), 8);
    }

    #[test]
    fn clear_drops_entries_and_counters() {
        let mut m = MshrFile::new(2);
        m.on_miss(blk(1), Cycle::new(0));
        m.set_fill_time(blk(1), Cycle::new(100));
        m.on_miss(blk(1), Cycle::new(1)); // merge
        m.on_miss(blk(2), Cycle::new(1));
        m.set_fill_time(blk(2), Cycle::new(100));
        m.on_miss(blk(3), Cycle::new(2)); // stall
        m.clear();
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.merges(), 0);
        assert_eq!(m.stalls(), 0);
        assert_eq!(m.on_miss(blk(1), Cycle::new(3)), MshrOutcome::Allocated);
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn set_fill_time_unknown_panics() {
        let mut m = MshrFile::new(2);
        m.set_fill_time(blk(9), Cycle::new(1));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
