//! The subarray grid: positions of SRAM subarrays on the die and their
//! routing distance from the processor core.
//!
//! The core sits in the corner of the die at the grid origin; subarrays fill
//! the remaining L-shaped region. Routing distance is Manhattan distance
//! from the core edge, which is how the paper's wire-delay model (modified
//! Cacti, Section 4) accounts "for the wire delay to reach each d-group
//! based on the distance to route around any closer d-groups".

use std::fmt;

/// Identifies one subarray within a [`SubarrayGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubarrayId(pub usize);

impl fmt::Display for SubarrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// One subarray's placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Grid column (0 at the core corner).
    pub col: u32,
    /// Grid row (0 at the core corner).
    pub row: u32,
    /// Manhattan routing distance from the core edge, in mm.
    pub route_mm: f64,
}

/// A set of subarrays placed on the die, sorted nearest-first.
#[derive(Debug, Clone)]
pub struct SubarrayGrid {
    placements: Vec<Placement>,
    subarray_mm: f64,
    core_cells: u32,
}

impl SubarrayGrid {
    /// Places `n` subarrays in an L-shaped region around a corner core.
    ///
    /// The core occupies a `c × c` square of cells in the corner, where `c`
    /// is chosen as roughly half the die edge (matching Figure 3(b), where
    /// the core fills the unoccupied corner of the L). Cells are filled in
    /// increasing Manhattan distance from the core corner and the resulting
    /// list is sorted nearest-first.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `subarray_mm` is not positive.
    pub fn l_shape(n: usize, subarray_mm: f64) -> Self {
        assert!(n > 0, "grid must contain at least one subarray");
        assert!(subarray_mm > 0.0, "subarray edge must be positive");

        // Choose die dimensions: core is a square of `c` cells; the L-region
        // (die minus core) must hold `n` cells. Die edge `e` satisfies
        // e^2 - c^2 >= n with c ~ e/2 -> e ~ sqrt(4n/3).
        let e = ((4.0 * n as f64 / 3.0).sqrt().ceil()) as u32;
        let c = e / 2;

        let mut cells: Vec<(u32, u32)> = Vec::with_capacity((e * e) as usize);
        for row in 0..e {
            for col in 0..e {
                if row < c && col < c {
                    continue; // core corner
                }
                cells.push((col, row));
            }
        }
        // Nearest-first by Manhattan distance from the core *edge*: a cell
        // adjacent to the core has distance ~0.
        cells.sort_by_key(|&(col, row)| {
            let dx = col.saturating_sub(c);
            let dy = row.saturating_sub(c);
            // Cells alongside the core (col < c or row < c) are reached by
            // running straight out from the core face.
            let d = if col < c {
                dy
            } else if row < c {
                dx
            } else {
                dx + dy
            };
            (d, row, col)
        });
        assert!(
            cells.len() >= n,
            "L-region too small: {} cells for {} subarrays",
            cells.len(),
            n
        );
        cells.truncate(n);

        let placements = cells
            .into_iter()
            .map(|(col, row)| {
                let dx = col.saturating_sub(c) as f64;
                let dy = row.saturating_sub(c) as f64;
                let d = if col < c {
                    dy
                } else if row < c {
                    dx
                } else {
                    dx + dy
                };
                Placement {
                    col,
                    row,
                    route_mm: d * subarray_mm,
                }
            })
            .collect();

        SubarrayGrid {
            placements,
            subarray_mm,
            core_cells: c,
        }
    }

    /// Places `n` subarrays in a rectangular array above a full-width
    /// core strip — the "more aggressive, rectangular floorplan" the
    /// original NUCA work assumes (paper Section 5.1). Every column abuts
    /// the core, so routing distance is dominated by the row index alone
    /// and far subarrays sit closer than in the L-shape.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `subarray_mm` is not positive.
    pub fn rectangle(n: usize, subarray_mm: f64) -> Self {
        assert!(n > 0, "grid must contain at least one subarray");
        assert!(subarray_mm > 0.0, "subarray edge must be positive");
        // Four times as wide as tall: rows stay short, keeping worst-case
        // routes low (the aggressive part of this floorplan).
        let width = ((4.0 * n as f64).sqrt().ceil()) as u32;
        let rows = (n as u64).div_ceil(width as u64) as u32;
        let mut cells: Vec<(u32, u32)> = Vec::with_capacity(n);
        'outer: for row in 0..rows {
            for col in 0..width {
                cells.push((col, row));
                if cells.len() == n {
                    break 'outer;
                }
            }
        }
        // Nearest-first: distance is the row index (the core strip spans
        // the full width), with a small lateral term to reach the column.
        let center = width as f64 / 2.0;
        let mut placements: Vec<Placement> = cells
            .into_iter()
            .map(|(col, row)| Placement {
                col,
                row,
                // The full-width core strip gives every column a direct
                // vertical channel; lateral reach is mostly inside the
                // core's own wiring, discounted accordingly.
                route_mm: (row as f64 + (col as f64 - center).abs() / 8.0) * subarray_mm,
            })
            .collect();
        placements.sort_by(|a, b| {
            a.route_mm
                .partial_cmp(&b.route_mm)
                .expect("distances are finite")
                .then(a.row.cmp(&b.row))
                .then(a.col.cmp(&b.col))
        });
        SubarrayGrid {
            placements,
            subarray_mm,
            core_cells: 0,
        }
    }

    /// Number of subarrays.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True if the grid holds no subarrays (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of subarray `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn placement(&self, id: SubarrayId) -> Placement {
        self.placements[id.0]
    }

    /// Routing distance of subarray `id` from the core, in mm.
    pub fn route_mm(&self, id: SubarrayId) -> f64 {
        self.placements[id.0].route_mm
    }

    /// Subarray edge length in mm.
    pub fn subarray_mm(&self) -> f64 {
        self.subarray_mm
    }

    /// Core size in grid cells (core is `core_cells × core_cells`).
    pub fn core_cells(&self) -> u32 {
        self.core_cells
    }

    /// Iterates over subarray ids nearest-first.
    pub fn iter(&self) -> impl Iterator<Item = SubarrayId> + '_ {
        (0..self.placements.len()).map(SubarrayId)
    }

    /// Mean routing distance over a contiguous nearest-first range of
    /// subarrays, in mm.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn mean_route_mm(&self, start: usize, end: usize) -> f64 {
        assert!(start < end && end <= self.placements.len(), "bad range {start}..{end}");
        let sum: f64 = self.placements[start..end].iter().map(|p| p.route_mm).sum();
        sum / (end - start) as f64
    }

    /// Maximum routing distance over a contiguous nearest-first range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn max_route_mm(&self, start: usize, end: usize) -> f64 {
        assert!(start < end && end <= self.placements.len(), "bad range {start}..{end}");
        self.placements[start..end].iter().map(|p| p.route_mm).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_sorted_nearest_first() {
        let g = SubarrayGrid::l_shape(512, 0.30);
        let mut last = -1.0;
        for id in g.iter() {
            let d = g.route_mm(id);
            assert!(d >= last, "distances must be non-decreasing");
            last = d;
        }
    }

    #[test]
    fn nearest_subarrays_touch_the_core() {
        let g = SubarrayGrid::l_shape(512, 0.30);
        assert_eq!(g.route_mm(SubarrayId(0)), 0.0);
    }

    #[test]
    fn farthest_subarray_is_several_mm_away() {
        let g = SubarrayGrid::l_shape(512, 0.30);
        let far = g.route_mm(SubarrayId(511));
        // 512 subarrays of 0.3 mm -> die edge ~ 8 mm; far corner is a
        // multi-mm route.
        assert!(far > 3.0 && far < 12.0, "far={far}");
    }

    #[test]
    fn no_subarray_in_core_region() {
        let g = SubarrayGrid::l_shape(100, 0.5);
        let c = g.core_cells();
        for id in g.iter() {
            let p = g.placement(id);
            assert!(p.col >= c || p.row >= c, "subarray {id} inside core");
        }
    }

    #[test]
    fn placements_are_unique() {
        let g = SubarrayGrid::l_shape(300, 0.30);
        let mut seen = std::collections::HashSet::new();
        for id in g.iter() {
            let p = g.placement(id);
            assert!(seen.insert((p.col, p.row)), "duplicate cell {:?}", (p.col, p.row));
        }
    }

    #[test]
    fn mean_and_max_route() {
        let g = SubarrayGrid::l_shape(512, 0.30);
        let near = g.mean_route_mm(0, 128);
        let far = g.mean_route_mm(384, 512);
        assert!(near < far);
        assert!(g.max_route_mm(0, 128) <= g.max_route_mm(0, 512));
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn mean_route_empty_range_panics() {
        let g = SubarrayGrid::l_shape(8, 0.30);
        let _ = g.mean_route_mm(3, 3);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_subarrays_panics() {
        let _ = SubarrayGrid::l_shape(0, 0.30);
    }

    #[test]
    fn rectangle_is_sorted_and_closer_than_l_shape() {
        let rect = SubarrayGrid::rectangle(512, 0.30);
        let ell = SubarrayGrid::l_shape(512, 0.30);
        let mut last = -1.0;
        for id in rect.iter() {
            let d = rect.route_mm(id);
            assert!(d >= last);
            last = d;
        }
        // The rectangle's mean route is shorter: every column touches the
        // core strip.
        assert!(
            rect.mean_route_mm(0, 512) < ell.mean_route_mm(0, 512),
            "rect {} vs L {}",
            rect.mean_route_mm(0, 512),
            ell.mean_route_mm(0, 512)
        );
    }

    #[test]
    fn rectangle_places_all_cells_uniquely() {
        let g = SubarrayGrid::rectangle(100, 0.5);
        let mut seen = std::collections::HashSet::new();
        for id in g.iter() {
            let p = g.placement(id);
            assert!(seen.insert((p.col, p.row)));
        }
        assert_eq!(seen.len(), 100);
    }
}
