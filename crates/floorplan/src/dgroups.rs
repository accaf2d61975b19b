//! Partitioning of the subarray grid into NuRAPID distance-groups.
//!
//! NuRAPID uses a few large d-groups (paper Section 3.3): equal-capacity
//! slices of the subarray population taken in nearest-first order. Farther
//! d-groups pay a *detour* on top of raw Manhattan distance because their
//! wires must route around the closer d-groups (Section 4's Cacti
//! modification #2).

use crate::LShapeFloorplan;
use simbase::Capacity;

/// Extra route length multiplier per d-group index, modeling the need to
/// route around every closer d-group on the L-shaped die.
const DETOUR_PER_GROUP: f64 = 0.18;

/// A partition of the floorplan into `n` equal-capacity d-groups ordered
/// nearest-first.
#[derive(Debug, Clone)]
pub struct DGroupPlan {
    /// Per-group `(start, end)` subarray index ranges (nearest-first order).
    ranges: Vec<(usize, usize)>,
    /// Per-group effective route distance in mm (mean over subarrays,
    /// inflated by the routing detour).
    route_mm: Vec<f64>,
    /// Per-group worst-case route distance in mm.
    max_route_mm: Vec<f64>,
    dgroup_capacity: Capacity,
}

impl DGroupPlan {
    /// Splits `fp` into `n` equal d-groups.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not evenly divide the subarray count.
    pub fn partition(fp: &LShapeFloorplan, n: usize) -> Self {
        assert!(n > 0, "need at least one d-group");
        let total = fp.n_subarrays();
        assert!(total.is_multiple_of(n), "{n} d-groups must evenly divide {total} subarrays");
        let per = total / n;
        let mut ranges = Vec::with_capacity(n);
        let mut route_mm = Vec::with_capacity(n);
        let mut max_route_mm = Vec::with_capacity(n);
        for g in 0..n {
            let (s, e) = (g * per, (g + 1) * per);
            ranges.push((s, e));
            let detour = 1.0 + DETOUR_PER_GROUP * g as f64;
            route_mm.push(fp.grid().mean_route_mm(s, e) * detour);
            max_route_mm.push(fp.grid().max_route_mm(s, e) * detour);
        }
        DGroupPlan {
            ranges,
            route_mm,
            max_route_mm,
            dgroup_capacity: Capacity::from_bytes(per as u64 * fp.subarray_bytes()),
        }
    }

    /// Number of d-groups.
    pub fn n_dgroups(&self) -> usize {
        self.ranges.len()
    }

    /// Capacity of each d-group.
    pub fn dgroup_capacity(&self) -> Capacity {
        self.dgroup_capacity
    }

    /// Effective (detour-inflated mean) route distance of d-group `g` in mm.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn route_mm(&self, g: usize) -> f64 {
        self.route_mm[g]
    }

    /// Worst-case route distance of d-group `g` in mm.
    pub fn max_route_mm(&self, g: usize) -> f64 {
        self.max_route_mm[g]
    }

    /// Subarray index range `(start, end)` of d-group `g` in nearest-first
    /// order.
    pub fn subarray_range(&self, g: usize) -> (usize, usize) {
        self.ranges[g]
    }

    /// Number of subarrays per d-group.
    pub fn subarrays_per_dgroup(&self) -> usize {
        let (s, e) = self.ranges[0];
        e - s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp8() -> LShapeFloorplan {
        LShapeFloorplan::micro2003(Capacity::from_mib(8))
    }

    #[test]
    fn four_group_partition_of_8mb() {
        let plan = DGroupPlan::partition(&fp8(), 4);
        assert_eq!(plan.n_dgroups(), 4);
        assert_eq!(plan.dgroup_capacity(), Capacity::from_mib(2));
        assert_eq!(plan.subarrays_per_dgroup(), 128);
        assert_eq!(plan.subarray_range(2), (256, 384));
    }

    #[test]
    fn route_distances_grow_with_group_index() {
        for n in [2, 4, 8] {
            let plan = DGroupPlan::partition(&fp8(), n);
            for g in 1..n {
                assert!(
                    plan.route_mm(g) > plan.route_mm(g - 1),
                    "n={n} g={g}: {} !> {}",
                    plan.route_mm(g),
                    plan.route_mm(g - 1)
                );
            }
        }
    }

    #[test]
    fn more_groups_means_closer_fastest_and_farther_slowest() {
        // Paper Table 4: as the number of d-groups increases, the fastest
        // megabyte gets faster and the slowest megabyte gets slower.
        let p2 = DGroupPlan::partition(&fp8(), 2);
        let p4 = DGroupPlan::partition(&fp8(), 4);
        let p8 = DGroupPlan::partition(&fp8(), 8);
        assert!(p8.route_mm(0) < p4.route_mm(0));
        assert!(p4.route_mm(0) < p2.route_mm(0));
        assert!(p8.route_mm(7) > p4.route_mm(3));
        assert!(p4.route_mm(3) > p2.route_mm(1));
    }

    #[test]
    fn max_route_at_least_mean_route_without_detour_confusion() {
        let plan = DGroupPlan::partition(&fp8(), 4);
        for g in 0..4 {
            assert!(plan.max_route_mm(g) >= plan.route_mm(g));
        }
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn uneven_partition_panics() {
        let _ = DGroupPlan::partition(&fp8(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_groups_panics() {
        let _ = DGroupPlan::partition(&fp8(), 0);
    }
}
