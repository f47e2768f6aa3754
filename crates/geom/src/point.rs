//! Points in the plane.

/// A position in world coordinates.
///
/// Coordinates are `f64` throughout the library; spatial networks from road
/// data typically use projected meters or degrees, and all SILC reasoning is
/// invariant under uniform scaling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Componentwise translation.
    #[inline]
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_zero_for_identical_points() {
        let p = Point::new(3.5, -2.0);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.midpoint(&b), Point::new(2.0, 4.0));
    }

    #[test]
    fn offset_translates() {
        let p = Point::new(1.0, 1.0).offset(2.0, -3.0);
        assert_eq!(p, Point::new(3.0, -2.0));
    }

    #[test]
    fn from_tuple() {
        let p: Point = (7.0, 8.0).into();
        assert_eq!(p, Point::new(7.0, 8.0));
    }

    #[test]
    fn non_finite_detected() {
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
        assert!(Point::new(0.0, 0.0).is_finite());
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(ax in -1e6f64..1e6, ay in -1e6f64..1e6,
                                 bx in -1e6f64..1e6, by in -1e6f64..1e6) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert_eq!(a.distance(&b), b.distance(&a));
        }

        #[test]
        fn triangle_inequality(ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                               bx in -1e3f64..1e3, by in -1e3f64..1e3,
                               cx in -1e3f64..1e3, cy in -1e3f64..1e3) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }

        #[test]
        fn midpoint_is_equidistant(ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                                   bx in -1e3f64..1e3, by in -1e3f64..1e3) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let m = a.midpoint(&b);
            prop_assert!((a.distance(&m) - b.distance(&m)).abs() <= 1e-6 * (1.0 + a.distance(&b)));
        }
    }
}
