//! Axis-aligned rectangles with the min/max distance queries used by
//! best-first search over spatial indexes.

use crate::Point;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    /// Panics (debug builds) if the minimum exceeds the maximum on either
    /// axis.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rectangle");
        Rect { min_x, min_y, max_x, max_y }
    }

    /// The smallest rectangle containing every point of `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn bounding(points: &[Point]) -> Option<Rect> {
        let first = points.first()?;
        let mut r = Rect::new(first.x, first.y, first.x, first.y);
        for p in &points[1..] {
            r.expand(p);
        }
        Some(r)
    }

    /// Grows the rectangle to include `p`.
    #[inline]
    pub fn expand(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) * 0.5, (self.min_y + self.max_y) * 0.5)
    }

    /// Tests whether `p` lies inside the (closed) rectangle.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Tests whether the two closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Minimum Euclidean distance from `p` to any point of the rectangle
    /// (zero when `p` is inside).
    #[inline]
    pub fn min_distance(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum Euclidean distance from `p` to any point of the rectangle
    /// (always attained at one of the four corners).
    #[inline]
    pub fn max_distance(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min_x).abs().max((p.x - self.max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - self.max_y).abs());
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = unit();
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(1.0, 1.0)));
        assert!(r.contains(&Point::new(0.5, 0.5)));
        assert!(!r.contains(&Point::new(1.0001, 0.5)));
    }

    #[test]
    fn min_distance_zero_inside() {
        assert_eq!(unit().min_distance(&Point::new(0.25, 0.75)), 0.0);
    }

    #[test]
    fn min_distance_outside_axis() {
        assert_eq!(unit().min_distance(&Point::new(2.0, 0.5)), 1.0);
        assert_eq!(unit().min_distance(&Point::new(0.5, -3.0)), 3.0);
    }

    #[test]
    fn min_distance_outside_corner() {
        let d = unit().min_distance(&Point::new(2.0, 2.0));
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_distance_from_center() {
        let d = unit().max_distance(&Point::new(0.5, 0.5));
        assert!((d - (0.5f64 * 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 3.0), Point::new(4.0, -1.0)];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r, Rect::new(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn intersection_test() {
        let a = unit();
        let b = Rect::new(0.5, 0.5, 2.0, 2.0);
        let c = Rect::new(1.5, 1.5, 2.0, 2.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching edges count as intersecting (closed rectangles).
        let d = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn center_and_dims() {
        let r = Rect::new(0.0, 2.0, 4.0, 8.0);
        assert_eq!(r.center(), Point::new(2.0, 5.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
    }

    proptest! {
        #[test]
        fn min_le_max_distance(px in -10f64..10.0, py in -10f64..10.0) {
            let r = unit();
            let p = Point::new(px, py);
            prop_assert!(r.min_distance(&p) <= r.max_distance(&p) + 1e-12);
        }

        #[test]
        fn distances_bound_actual_corner_distances(px in -10f64..10.0, py in -10f64..10.0) {
            let r = unit();
            let p = Point::new(px, py);
            let corners = [
                Point::new(r.min_x, r.min_y),
                Point::new(r.min_x, r.max_y),
                Point::new(r.max_x, r.min_y),
                Point::new(r.max_x, r.max_y),
            ];
            for c in &corners {
                prop_assert!(r.min_distance(&p) <= p.distance(c) + 1e-12);
                prop_assert!(r.max_distance(&p) >= p.distance(c) - 1e-12);
            }
        }

        #[test]
        fn expand_contains(px in -10f64..10.0, py in -10f64..10.0) {
            let mut r = unit();
            let p = Point::new(px, py);
            r.expand(&p);
            prop_assert!(r.contains(&p));
            // Still contains the original rectangle.
            prop_assert!(r.contains(&Point::new(0.0, 0.0)));
            prop_assert!(r.contains(&Point::new(1.0, 1.0)));
        }
    }
}
