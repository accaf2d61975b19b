//! The organization plugin seam: every lower-level cache the experiments
//! harness can drive implements [`Organization`].
//!
//! [`super::lower::LowerCache`] is the narrow per-access interface the CPU
//! model needs. [`Organization`] is the *lifecycle* contract layered on
//! top of it — everything the run machinery does to a cache besides
//! accessing it: pre-filling to steady-state occupancy, crossing the
//! warm-up drain barrier (DESIGN.md §11), attaching telemetry for the
//! measured window, round-tripping architectural state through the
//! checkpoint codec, and summarizing the measured phase into the common
//! [`OrgReport`] the tables are rendered from.
//!
//! The experiments runner holds a `Box<dyn Organization>` and never
//! matches on the concrete type: adding a new organization means
//! implementing this trait and registering a constructor — no change to
//! the run loop, the checkpoint plumbing, or the report renderers
//! (DESIGN.md §12 walks through adding a plugin).

use crate::lower::{LowerCache, LowerOutcome};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Cycle, EnergyNj};
use simtel::TelemetrySink;

/// The measured-phase summary every organization reduces to: the common
/// denominator of the report tables. Every field is an exact counter
/// (the energy is priced from the organization's own counters), so two
/// reports subtract and add without loss; fractions are derived from the
/// counts only where a table needs them ([`OrgReport::group_fracs`],
/// [`OrgReport::miss_frac`]). Quantities an organization does not have
/// are zero/empty (the base hierarchy has no d-groups, so its
/// `group_hits` is empty and `dgroup_accesses`/`swaps` are 0).
#[derive(Debug, Clone, PartialEq)]
pub struct OrgReport {
    /// Demand accesses presented to the organization.
    pub l2_accesses: u64,
    /// Demand accesses that missed on chip.
    pub l2_misses: u64,
    /// Demand hits in each d-group / bank position (fastest first; empty
    /// for organizations without distance groups).
    pub group_hits: Vec<u64>,
    /// Total data-array (d-group or bank) accesses including swap and
    /// search traffic.
    pub dgroup_accesses: u64,
    /// Block movements (promotions + demotions or bubble swaps).
    pub swaps: u64,
    /// Off-chip accesses (reads + writebacks) — prices memory energy.
    pub memory_accesses: u64,
    /// Dynamic energy of the organization over the measured phase.
    pub l2_energy: EnergyNj,
}

impl OrgReport {
    /// Fraction of demand accesses hitting each d-group (the stacked bars
    /// of Figures 4, 5, and 7): `hits / accesses`, 0 with no accesses.
    pub fn group_fracs(&self) -> Vec<f64> {
        self.group_hits.iter().map(|&h| frac(h, self.l2_accesses)).collect()
    }

    /// Fraction of demand accesses that missed.
    pub fn miss_frac(&self) -> f64 {
        frac(self.l2_misses, self.l2_accesses)
    }

    /// Field-wise `self - earlier`: the events of a window given reports
    /// taken at its two ends.
    ///
    /// # Panics
    ///
    /// Panics if the two reports have different d-group counts.
    #[must_use]
    pub fn minus(&self, earlier: &OrgReport) -> OrgReport {
        let nj = (self.l2_energy.nj() - earlier.l2_energy.nj()).max(0.0);
        self.zip(earlier, |a, b| a - b, EnergyNj::new(nj))
    }

    /// Field-wise `self + other`: the events of two disjoint windows.
    ///
    /// # Panics
    ///
    /// Panics if the two reports have different d-group counts.
    #[must_use]
    pub fn plus(&self, other: &OrgReport) -> OrgReport {
        self.zip(other, |a, b| a + b, self.l2_energy + other.l2_energy)
    }

    /// Encodes every count, then the d-group hits, then the energy's bit
    /// pattern, so a decoded report is equal to this one bit for bit.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u64_slice(&[
            self.l2_accesses,
            self.l2_misses,
            self.dgroup_accesses,
            self.swaps,
            self.memory_accesses,
            self.l2_energy.nj().to_bits(),
        ]);
        e.put_u64_slice(&self.group_hits);
    }

    /// Decodes an [`OrgReport::save_state`] encoding.
    ///
    /// # Errors
    ///
    /// The first decode error, or [`SnapshotError::Malformed`] for an
    /// energy that is negative or not finite.
    pub fn load_state(d: &mut Decoder) -> Result<OrgReport, SnapshotError> {
        let mut w = [0; 6];
        d.u64_slice_into(&mut w)?;
        let [l2_accesses, l2_misses, dgroup_accesses, swaps, memory_accesses, energy_bits] = w;
        let nj = f64::from_bits(energy_bits);
        if !(nj.is_finite() && nj >= 0.0) {
            return Err(SnapshotError::Malformed("energy negative or not finite"));
        }
        Ok(OrgReport {
            l2_accesses,
            l2_misses,
            group_hits: d.u64_slice()?,
            dgroup_accesses,
            swaps,
            memory_accesses,
            l2_energy: EnergyNj::new(nj),
        })
    }

    /// Applies `f` to every count, d-group hits included, and takes the
    /// already-combined `l2_energy`.
    fn zip(&self, o: &OrgReport, f: impl Fn(u64, u64) -> u64, l2_energy: EnergyNj) -> OrgReport {
        assert_eq!(self.group_hits.len(), o.group_hits.len(), "d-group count");
        OrgReport {
            l2_accesses: f(self.l2_accesses, o.l2_accesses),
            l2_misses: f(self.l2_misses, o.l2_misses),
            group_hits: self.group_hits.iter().zip(&o.group_hits).map(|(&a, &b)| f(a, b)).collect(),
            dgroup_accesses: f(self.dgroup_accesses, o.dgroup_accesses),
            swaps: f(self.swaps, o.swaps),
            memory_accesses: f(self.memory_accesses, o.memory_accesses),
            l2_energy,
        }
    }
}

/// `count / total` as an f64, 0 when `total` is 0.
fn frac(count: u64, total: u64) -> f64 {
    count as f64 / total.max(1) as f64
}

/// A pluggable lower-level cache organization: the per-access
/// [`LowerCache`] interface plus the lifecycle hooks the experiments
/// harness drives.
///
/// Contract (enforced for every implementation by
/// `tests/organization_conformance.rs`):
///
/// * construction + the same access trace ⇒ bit-identical outcomes and
///   [`OrgReport`]s (no hidden global state, no wall-clock, no unseeded
///   randomness);
/// * [`save_state`](Organization::save_state) then
///   [`load_state`](Organization::load_state) into a freshly constructed
///   twin reproduces the uninterrupted run bit for bit — the snapshot
///   covers *architectural* state only, so it must be taken at the drain
///   barrier (after [`drain_timing`](Organization::drain_timing));
/// * [`reset_stats`](Organization::reset_stats) zeroes every counter
///   that feeds [`report`](Organization::report) without touching
///   architectural state;
/// * the steady-state access path performs no heap allocation.
pub trait Organization: LowerCache {
    /// Fills the cache to steady-state occupancy with placeholder blocks
    /// so a measured run never starts from an empty (all-compulsory-miss)
    /// array.
    fn prefill(&mut self);

    /// Zeroes every statistic feeding [`Organization::report`]. Crossed
    /// at the drain barrier so the report covers the measured window
    /// only.
    fn reset_stats(&mut self);

    /// Attaches a telemetry sink for the measured phase; `snap_every`
    /// requests periodic progress snapshots (0 disables them;
    /// organizations without periodic snapshots ignore it).
    fn set_telemetry(&mut self, sink: &TelemetrySink, snap_every: u64);

    /// Clears every piece of timing state (port schedules, bank
    /// occupancy, memory queues) without touching architectural state.
    fn drain_timing(&mut self);

    /// The organization's half of the drain barrier (DESIGN.md §11):
    /// drains the timing state, zeroes the statistics, then attaches
    /// `sink` for the measured phase. The single-core engine and the CMP
    /// front-end both cross it through this one sequence.
    fn drain_barrier(&mut self, sink: &TelemetrySink, snap_every: u64) {
        self.drain_timing();
        self.reset_stats();
        self.set_telemetry(sink, snap_every);
    }

    /// Serializes the full architectural state into `e` (checkpoint
    /// payload; see [`simbase::snapshot`]).
    fn save_state(&self, e: &mut Encoder);

    /// Restores the state written by [`Organization::save_state`] into a
    /// compatibly configured instance.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the payload is truncated, corrupt,
    /// or was written by an incompatible geometry.
    fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError>;

    /// Reduces the counters accumulated since the last
    /// [`Organization::reset_stats`] to the common report row.
    fn report(&self) -> OrgReport;

    /// The [`MainMemory`](crate::memory::MainMemory) backing this
    /// organization, if it has one — the attachment point of the L4 DRAM
    /// cache (`--l4`). Defaults to `None` for organizations without a
    /// DRAM channel of their own.
    fn main_memory(&self) -> Option<&crate::memory::MainMemory> {
        None
    }

    /// Mutable twin of [`Organization::main_memory`].
    fn main_memory_mut(&mut self) -> Option<&mut crate::memory::MainMemory> {
        None
    }
}

/// A boxed organization is itself a [`LowerCache`], so the generic CPU /
/// L1 stack (`CoreMemSystem<L>`) drives `Box<dyn Organization>` exactly
/// like a concrete cache. Every method forwards — including
/// [`LowerCache::warm_access`], so the fast-forward warm-up reaches each
/// organization's lean functional path rather than the trait default.
impl LowerCache for Box<dyn Organization> {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        (**self).access(block, kind, now)
    }

    fn accesses(&self) -> u64 {
        (**self).accesses()
    }

    fn misses(&self) -> u64 {
        (**self).misses()
    }

    fn block_bytes(&self) -> u64 {
        (**self).block_bytes()
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        (**self).warm_access(block, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal organization: direct-mapped over 4 blocks, flat latency.
    struct Toy {
        blocks: [u64; 4],
        accesses: u64,
        misses: u64,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                blocks: [u64::MAX; 4],
                accesses: 0,
                misses: 0,
            }
        }
    }

    impl LowerCache for Toy {
        fn access(&mut self, block: BlockAddr, _kind: AccessKind, now: Cycle) -> LowerOutcome {
            self.accesses += 1;
            let slot = (block.index() % 4) as usize;
            let hit = self.blocks[slot] == block.index();
            if !hit {
                self.misses += 1;
                self.blocks[slot] = block.index();
            }
            LowerOutcome {
                complete_at: now + if hit { 10 } else { 100 },
                hit,
            }
        }
        fn accesses(&self) -> u64 {
            self.accesses
        }
        fn misses(&self) -> u64 {
            self.misses
        }
        fn block_bytes(&self) -> u64 {
            128
        }
    }

    impl Organization for Toy {
        fn prefill(&mut self) {
            for (i, b) in self.blocks.iter_mut().enumerate() {
                *b = i as u64;
            }
        }
        fn reset_stats(&mut self) {
            self.accesses = 0;
            self.misses = 0;
        }
        fn set_telemetry(&mut self, _sink: &TelemetrySink, _snap_every: u64) {}
        fn drain_timing(&mut self) {}
        fn save_state(&self, e: &mut Encoder) {
            e.put_u64_slice(&self.blocks);
        }
        fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
            d.u64_slice_into(&mut self.blocks)
        }
        fn report(&self) -> OrgReport {
            OrgReport {
                l2_accesses: self.accesses,
                l2_misses: self.misses,
                group_hits: Vec::new(),
                dgroup_accesses: 0,
                swaps: 0,
                memory_accesses: self.misses,
                l2_energy: EnergyNj::ZERO,
            }
        }
    }

    #[test]
    fn boxed_organization_is_a_lower_cache() {
        let mut boxed: Box<dyn Organization> = Box::new(Toy::new());
        boxed.prefill();
        let hit = boxed.access(BlockAddr::from_index(2), AccessKind::Read, Cycle::ZERO);
        assert!(hit.hit, "prefilled slot must hit through the box");
        let miss = boxed.access(BlockAddr::from_index(6), AccessKind::Read, hit.complete_at);
        assert!(!miss.hit);
        assert_eq!(boxed.accesses(), 2);
        assert_eq!(boxed.misses(), 1);
        assert_eq!(boxed.block_bytes(), 128);
        let rep = boxed.report();
        assert_eq!((rep.l2_accesses, rep.l2_misses), (2, 1));
        assert_eq!(rep.miss_frac(), 0.5);
    }

    #[test]
    fn reports_subtract_and_add_exactly() {
        let r = |a: u64, g: [u64; 2], nj: f64| OrgReport {
            l2_accesses: a,
            l2_misses: a - g[0] - g[1],
            group_hits: g.to_vec(),
            dgroup_accesses: 2 * a,
            swaps: g[1],
            memory_accesses: a - g[0] - g[1],
            l2_energy: EnergyNj::new(nj),
        };
        let (early, late) = (r(10, [6, 3], 1.5), r(25, [15, 7], 4.0));
        let window = late.minus(&early);
        assert_eq!(window, r(15, [9, 4], 2.5));
        assert_eq!(window.plus(&early), late);
        assert_eq!(window.group_fracs(), vec![9.0 / 15.0, 4.0 / 15.0]);
        assert_eq!(r(0, [0, 0], 0.0).group_fracs(), vec![0.0, 0.0], "no accesses, no NaN");
    }

    #[test]
    fn boxed_warm_access_reaches_the_implementation() {
        let mut boxed: Box<dyn Organization> = Box::new(Toy::new());
        boxed.warm_access(BlockAddr::from_index(3), AccessKind::Write);
        assert_eq!(boxed.accesses(), 1, "warm access must forward, not vanish");
    }

    #[test]
    fn snapshot_round_trips_through_the_trait() {
        let mut a: Box<dyn Organization> = Box::new(Toy::new());
        a.access(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
        let mut e = Encoder::new();
        a.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut b: Box<dyn Organization> = Box::new(Toy::new());
        let mut d = Decoder::new(&bytes);
        b.load_state(&mut d).expect("round trip");
        d.finish().expect("no trailing bytes");
        let out = b.access(BlockAddr::from_index(9), AccessKind::Read, Cycle::ZERO);
        assert!(out.hit, "restored twin must hold the installed block");
    }
}
