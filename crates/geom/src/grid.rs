//! World → grid embedding.
//!
//! SILC stores shortest-path maps as quadtrees over a `2^q × 2^q` grid, so
//! every network vertex must be assigned a *unique* grid cell (two vertices
//! sharing a cell could carry different first-hop colors, which a quadtree
//! decomposition could never separate). [`GridMapper`] scales world
//! coordinates into the grid and resolves cell collisions by probing nearby
//! free cells in a deterministic outward spiral.

use crate::{Point, Rect};
use std::collections::HashMap;

/// A cell position on the `2^q × 2^q` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCoord {
    pub x: u32,
    pub y: u32,
}

impl GridCoord {
    #[inline]
    pub const fn new(x: u32, y: u32) -> Self {
        GridCoord { x, y }
    }
}

/// Maps world coordinates into a `2^q × 2^q` grid and back.
///
/// Construction assigns each input point a unique cell; queries map arbitrary
/// world points (e.g. query objects that are not vertices) to their nearest
/// cell without any uniqueness guarantee.
#[derive(Debug, Clone)]
pub struct GridMapper {
    bounds: Rect,
    /// Grid resolution exponent: the grid is `2^q × 2^q` cells.
    q: u32,
    scale_x: f64,
    scale_y: f64,
}

impl GridMapper {
    /// Creates a mapper for points inside `bounds` on a `2^q × 2^q` grid.
    ///
    /// # Panics
    /// Panics if `q == 0` or `q > 16` (16 ⇒ 4.3 G cells, the practical cap
    /// for `u32` cell coordinates interleaved into a `u64` Morton code).
    pub fn new(bounds: Rect, q: u32) -> Self {
        assert!((1..=16).contains(&q), "grid exponent q must be in 1..=16, got {q}");
        let side = (1u64 << q) as f64;
        // Guard against degenerate (zero-extent) bounds.
        let w = bounds.width().max(f64::MIN_POSITIVE);
        let h = bounds.height().max(f64::MIN_POSITIVE);
        GridMapper { bounds, q, scale_x: (side - 1.0) / w, scale_y: (side - 1.0) / h }
    }

    /// Grid resolution exponent `q`.
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Number of cells along one side of the grid.
    #[inline]
    pub fn side(&self) -> u32 {
        1u32 << self.q
    }

    /// The world-space bounds the grid covers.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Maps a world point to its grid cell (clamped to the grid).
    #[inline]
    pub fn to_grid(&self, p: &Point) -> GridCoord {
        let max = self.side() - 1;
        let gx = ((p.x - self.bounds.min_x) * self.scale_x).round();
        let gy = ((p.y - self.bounds.min_y) * self.scale_y).round();
        GridCoord::new((gx.clamp(0.0, max as f64)) as u32, (gy.clamp(0.0, max as f64)) as u32)
    }

    /// World-space center of a grid cell.
    #[inline]
    pub fn to_world(&self, c: GridCoord) -> Point {
        Point::new(
            self.bounds.min_x + c.x as f64 / self.scale_x,
            self.bounds.min_y + c.y as f64 / self.scale_y,
        )
    }

    /// World-space rectangle covered by the grid-aligned block whose
    /// lower-left cell is `(x, y)` and whose side is `size` cells.
    pub fn block_rect(&self, x: u32, y: u32, size: u32) -> Rect {
        let half_x = 0.5 / self.scale_x;
        let half_y = 0.5 / self.scale_y;
        let lo = self.to_world(GridCoord::new(x, y));
        let hi = self.to_world(GridCoord::new(x + size - 1, y + size - 1));
        Rect::new(lo.x - half_x, lo.y - half_y, hi.x + half_x, hi.y + half_y)
    }

    /// Assigns every point a *unique* grid cell.
    ///
    /// Points whose natural cell is taken are moved to the nearest free cell
    /// found by a deterministic outward ring search. Returns the cell for
    /// each input point, in input order.
    ///
    /// # Panics
    /// Panics if there are more points than grid cells.
    pub fn assign_unique(&self, points: &[Point]) -> Vec<GridCoord> {
        let cells = 1u64 << (2 * self.q);
        assert!(
            (points.len() as u64) <= cells,
            "{} points cannot fit in {} grid cells; increase q",
            points.len(),
            cells
        );
        let mut taken: HashMap<GridCoord, ()> = HashMap::with_capacity(points.len() * 2);
        let mut out = Vec::with_capacity(points.len());
        let side = self.side() as i64;
        for p in points {
            let c = self.to_grid(p);
            let placed = if taken.contains_key(&c) { self.probe_free(c, side, &taken) } else { c };
            taken.insert(placed, ());
            out.push(placed);
        }
        out
    }

    /// Finds the nearest free cell to `c` by scanning square rings of
    /// increasing radius. Deterministic: rings are scanned in a fixed order.
    fn probe_free(&self, c: GridCoord, side: i64, taken: &HashMap<GridCoord, ()>) -> GridCoord {
        for radius in 1..side {
            let (cx, cy) = (c.x as i64, c.y as i64);
            for dy in -radius..=radius {
                let y = cy + dy;
                if y < 0 || y >= side {
                    continue;
                }
                // Only the ring boundary: skip interior columns.
                let xs: &[i64] = if dy.abs() == radius { &[0] } else { &[-radius, radius] };
                let ring_range: Box<dyn Iterator<Item = i64>> = if dy.abs() == radius {
                    Box::new(-radius..=radius)
                } else {
                    Box::new(xs.iter().copied())
                };
                for dx in ring_range {
                    let x = cx + dx;
                    if x < 0 || x >= side {
                        continue;
                    }
                    let cand = GridCoord::new(x as u32, y as u32);
                    if !taken.contains_key(&cand) {
                        return cand;
                    }
                }
            }
        }
        unreachable!("assign_unique checked there is a free cell")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mapper(q: u32) -> GridMapper {
        GridMapper::new(Rect::new(0.0, 0.0, 100.0, 100.0), q)
    }

    #[test]
    fn corners_map_to_grid_corners() {
        let m = mapper(8);
        assert_eq!(m.to_grid(&Point::new(0.0, 0.0)), GridCoord::new(0, 0));
        assert_eq!(m.to_grid(&Point::new(100.0, 100.0)), GridCoord::new(255, 255));
    }

    #[test]
    fn out_of_bounds_points_clamp() {
        let m = mapper(8);
        assert_eq!(m.to_grid(&Point::new(-50.0, 500.0)), GridCoord::new(0, 255));
    }

    #[test]
    fn roundtrip_error_bounded_by_cell_size() {
        let m = mapper(10);
        let cell = 100.0 / 1023.0;
        for &(x, y) in &[(13.7, 42.1), (0.0, 99.9), (50.0, 50.0)] {
            let p = Point::new(x, y);
            let back = m.to_world(m.to_grid(&p));
            assert!(p.distance(&back) <= cell, "roundtrip moved {p:?} too far");
        }
    }

    #[test]
    fn unique_assignment_no_duplicates() {
        let m = mapper(4); // 16x16 = 256 cells
                           // 60 points all at the same location must still get distinct cells.
        let pts = vec![Point::new(50.0, 50.0); 60];
        let cells = m.assign_unique(&pts);
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert(*c), "cell {c:?} assigned twice");
        }
    }

    #[test]
    fn unique_assignment_keeps_free_cells_in_place() {
        let m = mapper(6);
        let pts = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
        let cells = m.assign_unique(&pts);
        assert_eq!(cells[0], m.to_grid(&pts[0]));
        assert_eq!(cells[1], m.to_grid(&pts[1]));
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn too_many_points_panics() {
        let m = mapper(1); // 4 cells
        let pts = vec![Point::new(0.0, 0.0); 5];
        m.assign_unique(&pts);
    }

    #[test]
    fn block_rect_covers_cells() {
        let m = mapper(4);
        let r = m.block_rect(0, 0, 16);
        // The full-grid block covers (slightly more than) the world bounds.
        assert!(r.min_x <= 0.0 && r.max_x >= 100.0);
        assert!(r.min_y <= 0.0 && r.max_y >= 100.0);
    }

    #[test]
    #[should_panic(expected = "grid exponent")]
    fn q_zero_rejected() {
        GridMapper::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0);
    }

    #[test]
    fn degenerate_bounds_do_not_divide_by_zero() {
        let m = GridMapper::new(Rect::new(5.0, 5.0, 5.0, 5.0), 4);
        let c = m.to_grid(&Point::new(5.0, 5.0));
        assert_eq!(c, GridCoord::new(0, 0));
    }

    proptest! {
        #[test]
        fn grid_cell_always_in_range(x in -1e3f64..1e3, y in -1e3f64..1e3, q in 1u32..12) {
            let m = mapper(q);
            let c = m.to_grid(&Point::new(x, y));
            prop_assert!(c.x < m.side());
            prop_assert!(c.y < m.side());
        }

        #[test]
        fn unique_assignment_is_injective(
            xs in proptest::collection::vec((0f64..100.0, 0f64..100.0), 1..120)
        ) {
            let m = mapper(6); // 64x64 = 4096 cells
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let cells = m.assign_unique(&pts);
            let set: std::collections::HashSet<_> = cells.iter().collect();
            prop_assert_eq!(set.len(), pts.len());
        }
    }
}
