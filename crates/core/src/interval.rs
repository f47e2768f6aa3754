//! Network-distance intervals.
//!
//! SILC answers "how far is it?" with an interval `[δ−, δ+]` guaranteed to
//! contain the true network distance, refining it only while the query at
//! hand cannot yet be answered (paper §5, "progressive refinement"). This
//! module is the small algebra those queries are written in.

/// A closed interval `[lo, hi]` known to contain a network distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistInterval {
    /// Lower bound `δ−`.
    pub lo: f64,
    /// Upper bound `δ+`.
    pub hi: f64,
}

impl DistInterval {
    /// Creates an interval.
    ///
    /// # Panics
    /// Panics (debug builds) when `lo > hi` or `lo` is negative/NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo >= 0.0, "distance lower bound must be non-negative, got {lo}");
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        DistInterval { lo, hi }
    }

    /// The degenerate interval of an exactly known distance.
    #[inline]
    pub fn exact(d: f64) -> Self {
        Self::new(d, d)
    }

    /// `[0, ∞)` — no information.
    #[inline]
    pub fn unknown() -> Self {
        DistInterval { lo: 0.0, hi: f64::INFINITY }
    }

    /// Is the distance known exactly?
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Width `δ+ − δ−` (∞ for unbounded intervals).
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Translates the interval by an exactly known prefix distance `d`.
    #[inline]
    pub fn offset(&self, d: f64) -> Self {
        DistInterval { lo: self.lo + d, hi: self.hi + d }
    }

    /// Do the two intervals overlap? Two objects whose intervals overlap
    /// cannot be ordered by distance yet — the paper calls this a
    /// *collision* (p.23) and answers it with refinement.
    #[inline]
    pub fn collides(&self, other: &DistInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Is every distance in `self` strictly below every distance in `other`?
    #[inline]
    pub fn strictly_before(&self, other: &DistInterval) -> bool {
        self.hi < other.lo
    }

    /// The intersection, if any (used when combining independent bounds on
    /// the same distance).
    pub fn intersect(&self, other: &DistInterval) -> Option<DistInterval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(DistInterval { lo, hi })
        } else {
            None
        }
    }

    /// The smallest interval containing both.
    pub fn hull(&self, other: &DistInterval) -> DistInterval {
        DistInterval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Does the interval contain `d`?
    #[inline]
    pub fn contains(&self, d: f64) -> bool {
        d >= self.lo && d <= self.hi
    }
}

impl std::fmt::Display for DistInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_interval() {
        let i = DistInterval::exact(5.0);
        assert!(i.is_exact());
        assert_eq!(i.width(), 0.0);
        assert!(i.contains(5.0));
        assert!(!i.contains(5.1));
    }

    #[test]
    fn unknown_contains_everything() {
        let u = DistInterval::unknown();
        assert!(!u.is_exact());
        assert!(u.contains(0.0));
        assert!(u.contains(1e300));
    }

    #[test]
    fn collision_semantics() {
        let a = DistInterval::new(1.0, 3.0);
        let b = DistInterval::new(2.0, 5.0);
        let c = DistInterval::new(4.0, 6.0);
        assert!(a.collides(&b));
        assert!(b.collides(&c));
        assert!(!a.collides(&c));
        assert!(a.strictly_before(&c));
        assert!(!a.strictly_before(&b));
        // Touching endpoints collide (distance could be equal).
        let d = DistInterval::new(3.0, 4.0);
        assert!(a.collides(&d));
        assert!(!a.strictly_before(&d));
    }

    #[test]
    fn offset_shifts_both_ends() {
        let i = DistInterval::new(1.0, 2.0).offset(10.0);
        assert_eq!(i, DistInterval::new(11.0, 12.0));
    }

    #[test]
    fn intersect_and_hull() {
        let a = DistInterval::new(1.0, 4.0);
        let b = DistInterval::new(3.0, 6.0);
        assert_eq!(a.intersect(&b), Some(DistInterval::new(3.0, 4.0)));
        assert_eq!(a.hull(&b), DistInterval::new(1.0, 6.0));
        let c = DistInterval::new(5.0, 7.0);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DistInterval::new(1.0, 2.5).to_string(), "[1.0000, 2.5000]");
    }

    proptest! {
        #[test]
        fn collides_is_symmetric(a in 0f64..10.0, b in 0f64..10.0, c in 0f64..10.0, d in 0f64..10.0) {
            let x = DistInterval::new(a.min(b), a.max(b));
            let y = DistInterval::new(c.min(d), c.max(d));
            prop_assert_eq!(x.collides(&y), y.collides(&x));
            // Exactly one of: collide, x before y, y before x.
            let outcomes =
                x.collides(&y) as u8 + x.strictly_before(&y) as u8 + y.strictly_before(&x) as u8;
            prop_assert_eq!(outcomes, 1);
        }

        #[test]
        fn intersect_within_hull(a in 0f64..10.0, b in 0f64..10.0, c in 0f64..10.0, d in 0f64..10.0) {
            let x = DistInterval::new(a.min(b), a.max(b));
            let y = DistInterval::new(c.min(d), c.max(d));
            let h = x.hull(&y);
            prop_assert!(h.lo <= x.lo && h.hi >= x.hi);
            prop_assert!(h.lo <= y.lo && h.hi >= y.hi);
            if let Some(i) = x.intersect(&y) {
                prop_assert!(i.lo >= h.lo && i.hi <= h.hi);
                prop_assert!(x.contains(i.lo) && y.contains(i.lo));
            }
        }
    }
}
