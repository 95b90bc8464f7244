//! 2-D geometry substrate for the `minim` ad-hoc network model.
//!
//! The paper (Gupta, 2001, §2 and §5) models a power-controlled ad-hoc
//! network as nodes with 2-D coordinates in a `100 × 100` square and a
//! per-node maximum transmission range: node `i` reaches node `j` iff
//! `dist(i, j) <= r_i`. This crate provides the geometric primitives
//! that model needs:
//!
//! * [`Point`] — a position in the plane, with distance predicates that
//!   avoid square roots on the hot path ([`Point::within`]).
//! * [`Rect`] — an axis-aligned deployment area, used both for sampling
//!   and for clamping node movement (§5.3 keeps moving nodes inside the
//!   arena).
//! * [`sample`] — deterministic, seedable generators for positions,
//!   ranges and displacements matching the paper's experimental setup.
//! * [`grid::SpatialGrid`] — a uniform-grid spatial index answering
//!   "which points lie within distance `r` of `p`?" in expected `O(1)`
//!   per reported neighbor, which keeps incremental digraph maintenance
//!   in `minim-net` near-linear for the paper's workloads.
//! * [`strata::StratifiedGrid`] — the range-stratified index over the
//!   flat grid: nodes bucketed into geometric range tiers so the
//!   *reverse-reach* query ("who can reach `p`?") scans each tier at
//!   its own range cap instead of the global maximum, and the range
//!   bound tightens when long-range nodes shrink or leave.
//! * [`segindex::SegmentGrid`] — a cell index over obstacle walls so
//!   line-of-sight tests probe only nearby walls instead of every wall.
//!
//! Everything is `f64`-based; the simulation never needs exotic robust
//! predicates because ranges and coordinates are drawn from continuous
//! distributions (ties have measure zero) and the paper's model treats
//! the boundary case `d == r` as connected (we follow `d <= r`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod grid;
pub mod sample;
pub mod segindex;
pub mod segment;
pub mod strata;

pub use grid::SpatialGrid;
pub use segindex::SegmentGrid;
pub use segment::Segment;
pub use strata::StratifiedGrid;

/// A point (node position) in the 2-D plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The squared Euclidean distance to `other`.
    ///
    /// Preferred on hot paths: comparing squared distances against a
    /// squared radius avoids the `sqrt`.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Whether `other` lies within (or exactly at) distance `r`.
    ///
    /// This is the paper's link predicate: `v_i → v_j` iff
    /// `d_ij <= r_i` (§2). The comparison is done on squared values.
    #[inline]
    pub fn within(&self, other: &Point, r: f64) -> bool {
        if r < 0.0 {
            return false;
        }
        self.dist2(other) <= r * r
    }

    /// Translates the point by `(dx, dy)`.
    #[inline]
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Moves the point by `displacement` in direction `angle` (radians).
    ///
    /// This is the §5.3 movement model: a node is displaced by a length
    /// drawn from `U[0, maxdisp]` in a uniformly random direction.
    #[inline]
    pub fn displaced(&self, angle: f64, displacement: f64) -> Point {
        self.translated(angle.cos() * displacement, angle.sin() * displacement)
    }
}

/// An axis-aligned rectangle; the deployment arena.
///
/// The paper uses a `100 × 100` square (§5). [`Rect::clamp`] keeps
/// moving nodes inside the arena, mirroring the bounded field of the
/// simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate contained in the rectangle.
    pub min_x: f64,
    /// Smallest y coordinate contained in the rectangle.
    pub min_y: f64,
    /// Largest x coordinate contained in the rectangle.
    pub max_x: f64,
    /// Largest y coordinate contained in the rectangle.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    /// Panics if the rectangle would be empty (`min > max` on an axis).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x <= max_x && min_y <= max_y,
            "degenerate Rect: ({min_x},{min_y})..({max_x},{max_y})"
        );
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The paper's standard `100 × 100` deployment square.
    pub const fn paper_arena() -> Self {
        Rect {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 100.0,
            max_y: 100.0,
        }
    }

    /// Side length along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Side length along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Whether `p` lies inside the rectangle (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Clamps `p` to the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }

    /// The rectangle's center.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dist_matches_hand_computed_values() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn within_is_boundary_inclusive() {
        // The paper's link predicate is d_ij <= r_i, so a node exactly at
        // the range boundary is connected.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 0.0);
        assert!(a.within(&b, 5.0));
        assert!(!a.within(&b, 4.999_999));
    }

    #[test]
    fn within_rejects_negative_radius() {
        let a = Point::new(1.0, 1.0);
        assert!(!a.within(&a, -1.0));
    }

    #[test]
    fn displacement_by_zero_is_identity() {
        let p = Point::new(10.0, 20.0);
        let q = p.displaced(1.234, 0.0);
        assert!(p.dist(&q) < 1e-12);
    }

    #[test]
    fn displaced_travels_requested_distance() {
        let p = Point::new(50.0, 50.0);
        for k in 0..16 {
            let angle = k as f64 * std::f64::consts::PI / 8.0;
            let q = p.displaced(angle, 7.5);
            assert!((p.dist(&q) - 7.5).abs() < 1e-9, "angle {angle}");
        }
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::paper_arena();
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(100.0, 100.0)));
        assert!(!r.contains(&Point::new(100.1, 50.0)));
        let clamped = r.clamp(Point::new(-5.0, 130.0));
        assert_eq!(clamped, Point::new(0.0, 100.0));
    }

    #[test]
    fn rect_dimensions_and_center() {
        let r = Rect::new(10.0, 20.0, 30.0, 60.0);
        assert_eq!(r.width(), 20.0);
        assert_eq!(r.height(), 40.0);
        assert_eq!(r.center(), Point::new(20.0, 40.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_rect_panics() {
        let _ = Rect::new(1.0, 0.0, 0.0, 0.0);
    }

    proptest! {
        #[test]
        fn dist_is_symmetric(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                             bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                               bx in -1e3..1e3f64, by in -1e3..1e3f64,
                               cx in -1e3..1e3f64, cy in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
        }

        #[test]
        fn clamp_result_is_contained(px in -500.0..500.0f64, py in -500.0..500.0f64) {
            let r = Rect::paper_arena();
            let q = r.clamp(Point::new(px, py));
            prop_assert!(r.contains(&q));
        }

        #[test]
        fn clamp_is_idempotent(px in -500.0..500.0f64, py in -500.0..500.0f64) {
            let r = Rect::paper_arena();
            let once = r.clamp(Point::new(px, py));
            let twice = r.clamp(once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn within_agrees_with_dist(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                                   bx in -100.0..100.0f64, by in -100.0..100.0f64,
                                   r in 0.0..300.0f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            // Up to floating point slop at the exact boundary, `within`
            // must agree with the sqrt-based distance.
            let d = a.dist(&b);
            if (d - r).abs() > 1e-9 {
                prop_assert_eq!(a.within(&b, r), d <= r);
            }
        }
    }
}
