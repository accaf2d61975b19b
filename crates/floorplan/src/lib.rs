//! Physical layout model for large non-uniform caches (paper Section 3).
//!
//! Large caches are built from many small SRAM subarrays spread across the
//! die; the latency and energy of reaching a subarray is dominated by the
//! wires between it and the processor core. This crate models:
//!
//! * a [`grid::SubarrayGrid`] of 16-KB subarrays filling an L-shaped region
//!   around a processor core placed in one corner (paper Figure 3(b));
//! * partitioning of the grid into **distance-groups** (d-groups) by routing
//!   distance, for NuRAPID's few-large-groups organization
//!   ([`dgroups::DGroupPlan`]) and for D-NUCA's many-small-banks
//!   organization ([`banks::BankPlan`], paper Figure 3(a)).
//!
//! # Examples
//!
//! ```
//! use floorplan::{LShapeFloorplan, dgroups::DGroupPlan};
//! use simbase::Capacity;
//!
//! let fp = LShapeFloorplan::micro2003(Capacity::from_mib(8));
//! let plan = DGroupPlan::partition(&fp, 4);
//! assert_eq!(plan.n_dgroups(), 4);
//! // d-groups are ordered nearest-first: route distance grows monotonically.
//! assert!(plan.route_mm(0) < plan.route_mm(3));
//! ```

pub mod banks;
pub mod dgroups;
pub mod grid;

pub use grid::{SubarrayGrid, SubarrayId};

use simbase::Capacity;

/// The L-shaped floorplan of the paper's evaluation: a processor core in one
/// corner of the die and cache subarrays filling the remaining L-shaped
/// region (paper Figure 3(b)).
#[derive(Debug, Clone)]
pub struct LShapeFloorplan {
    grid: SubarrayGrid,
    capacity: Capacity,
}

impl LShapeFloorplan {
    /// Subarray size used throughout the paper's floorplans (Figure 3).
    pub const SUBARRAY_KIB: u64 = 16;

    /// Builds the floorplan used in the paper's evaluation at 70 nm:
    /// `capacity` of cache in 16-KB subarrays around a corner core.
    ///
    /// The die is sized so that cache area plus core area form a square; the
    /// per-subarray footprint (0.30 mm on a side) is calibrated so an 8-MB
    /// cache plus core yields a ~9 mm die edge, in line with the wire-delay
    /// budget the paper reports in Table 4.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of the subarray size.
    pub fn micro2003(capacity: Capacity) -> Self {
        Self::with_subarray_mm(capacity, 0.30)
    }

    /// Builds the "more aggressive, rectangular floorplan" the original
    /// NUCA work assumes (Section 5.1 notes D-NUCA's lower latencies
    /// partly come from it): a rectangular subarray array over a
    /// full-width core strip.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of the subarray size.
    pub fn rectangular(capacity: Capacity) -> Self {
        let sub_bytes = Self::SUBARRAY_KIB * 1024;
        assert!(
            capacity.bytes().is_multiple_of(sub_bytes) && capacity.bytes() > 0,
            "capacity {capacity} must be a positive multiple of {}KB",
            Self::SUBARRAY_KIB
        );
        let n = (capacity.bytes() / sub_bytes) as usize;
        LShapeFloorplan {
            grid: SubarrayGrid::rectangle(n, 0.30),
            capacity,
        }
    }

    /// Builds a floorplan with an explicit subarray edge length in mm.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of the subarray size or
    /// `subarray_mm` is not positive.
    pub fn with_subarray_mm(capacity: Capacity, subarray_mm: f64) -> Self {
        assert!(subarray_mm > 0.0, "subarray edge must be positive");
        let sub_bytes = Self::SUBARRAY_KIB * 1024;
        assert!(
            capacity.bytes().is_multiple_of(sub_bytes) && capacity.bytes() > 0,
            "capacity {capacity} must be a positive multiple of {}KB",
            Self::SUBARRAY_KIB
        );
        let n_subarrays = (capacity.bytes() / sub_bytes) as usize;
        let grid = SubarrayGrid::l_shape(n_subarrays, subarray_mm);
        LShapeFloorplan { grid, capacity }
    }

    /// The underlying subarray grid.
    pub fn grid(&self) -> &SubarrayGrid {
        &self.grid
    }

    /// Total cache capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Number of 16-KB subarrays.
    pub fn n_subarrays(&self) -> usize {
        self.grid.len()
    }

    /// Capacity of one subarray in bytes.
    pub fn subarray_bytes(&self) -> u64 {
        Self::SUBARRAY_KIB * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_mb_floorplan_has_512_subarrays() {
        let fp = LShapeFloorplan::micro2003(Capacity::from_mib(8));
        assert_eq!(fp.n_subarrays(), 512);
        assert_eq!(fp.subarray_bytes(), 16 * 1024);
        assert_eq!(fp.capacity(), Capacity::from_mib(8));
    }

    #[test]
    fn one_mb_floorplan_has_64_subarrays() {
        let fp = LShapeFloorplan::micro2003(Capacity::from_mib(1));
        assert_eq!(fp.n_subarrays(), 64);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_non_multiple_capacity() {
        let _ = LShapeFloorplan::micro2003(Capacity::from_kib(24));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_subarray_edge() {
        let _ = LShapeFloorplan::with_subarray_mm(Capacity::from_mib(1), 0.0);
    }

    #[test]
    fn rectangular_floorplan_has_shorter_routes() {
        let ell = LShapeFloorplan::micro2003(Capacity::from_mib(8));
        let rect = LShapeFloorplan::rectangular(Capacity::from_mib(8));
        assert_eq!(rect.n_subarrays(), ell.n_subarrays());
        let n = rect.n_subarrays();
        assert!(rect.grid().mean_route_mm(0, n) < ell.grid().mean_route_mm(0, n));
    }
}
