//! The path-loss gain model.
//!
//! The physical layer underneath the paper's range abstraction: a
//! transmitter at `a` radiating power `p` is received at `b` with
//! power `p · g(a, b)`, where the gain `g` follows a distance
//! power-law with a near-field clamp,
//!
//! ```text
//! g(a, b) = (d0 / max(d(a, b), d0))^alpha · wall_loss^(walls crossed)
//! ```
//!
//! `d0` is the reference distance (inside it the gain saturates at 1
//! instead of diverging), `alpha` the path-loss exponent (2 =
//! free space, 3–4 = urban/terrain), and `wall_loss` the per-wall
//! penetration factor generalizing the binary obstacle rule of §2:
//! where `minim-net`'s link predicate treats one wall as fully
//! opaque, the gain model charges a multiplicative loss per wall the
//! sight line crosses (counted by
//! [`SegmentGrid::crossings`](minim_geom::SegmentGrid::crossings)).
//! Setting `wall_loss = 0` recovers the opaque model.

use minim_geom::{Point, SegmentGrid};

/// Distance power-law gain with optional per-wall attenuation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainModel {
    /// Reference (near-field clamp) distance `d0`; gains saturate at 1
    /// inside it.
    pub ref_dist: f64,
    /// Path-loss exponent `alpha` (2 = free space, 3–4 = terrain).
    pub alpha: f64,
    /// Multiplicative gain factor per wall crossed, in `[0, 1]`.
    /// `0` makes walls opaque (the binary §2 rule); `1` ignores them.
    pub wall_loss: f64,
}

impl GainModel {
    /// A terrain-ish default: `d0 = 1`, `alpha = 3`, 10 dB loss per
    /// wall (`wall_loss = 0.1`).
    pub fn terrain() -> Self {
        GainModel {
            ref_dist: 1.0,
            alpha: 3.0,
            wall_loss: 0.1,
        }
    }

    /// Free-space propagation (`alpha = 2`) with opaque walls.
    pub fn free_space() -> Self {
        GainModel {
            ref_dist: 1.0,
            alpha: 2.0,
            wall_loss: 0.0,
        }
    }

    /// Checks the parameters are physically sensible: a finite
    /// `ref_dist > 0`, a finite `alpha >= 1`, and `wall_loss` in
    /// `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        if !(self.ref_dist.is_finite() && self.ref_dist > 0.0) {
            return Err(format!("ref_dist must be positive, got {}", self.ref_dist));
        }
        if !(self.alpha.is_finite() && self.alpha >= 1.0) {
            return Err(format!("alpha must be >= 1, got {}", self.alpha));
        }
        if !(0.0..=1.0).contains(&self.wall_loss) {
            return Err(format!(
                "wall_loss must be in [0, 1], got {}",
                self.wall_loss
            ));
        }
        Ok(())
    }

    /// `(d0 / max(d, d0))^alpha` — the unobstructed path gain at
    /// distance `d`. Integer exponents avoid `powf` (the loop's inner
    /// sums evaluate this millions of times).
    #[inline]
    pub fn path_gain(&self, d: f64) -> f64 {
        let ratio = self.ref_dist / d.max(self.ref_dist);
        if self.alpha.fract() == 0.0 && self.alpha <= 8.0 {
            ratio.powi(self.alpha as i32)
        } else {
            ratio.powf(self.alpha)
        }
    }

    /// The gain between two points with `crossings` walls in between.
    #[inline]
    pub fn gain(&self, a: &Point, b: &Point, crossings: usize) -> f64 {
        let mut g = self.path_gain(a.dist(b));
        for _ in 0..crossings {
            g *= self.wall_loss;
        }
        g
    }

    /// The gain between two points against an optional obstacle
    /// index: counts wall crossings (only when `wall_loss` actually
    /// attenuates) and charges the per-wall loss. The one
    /// wall-attenuated gain query — [`crate::SinrField`] and the
    /// radio's SINR capture model both evaluate paths through this.
    #[inline]
    pub fn gain_between(&self, a: &Point, b: &Point, walls: Option<&SegmentGrid>) -> f64 {
        let crossings = match walls {
            Some(w) if self.wall_loss < 1.0 => w.crossings(a, b),
            _ => 0,
        };
        self.gain(a, b, crossings)
    }

    /// [`GainModel::gain_between`] with a caller-provided wall-query
    /// buffer (see [`SegmentGrid::crossings_into`]): identical result,
    /// allocation-free once the buffer is warm. The incremental SINR
    /// field patches gains on the steady-state event path through
    /// this.
    #[inline]
    pub fn gain_between_with(
        &self,
        a: &Point,
        b: &Point,
        walls: Option<&SegmentGrid>,
        scratch: &mut Vec<u32>,
    ) -> f64 {
        let crossings = match walls {
            Some(w) if self.wall_loss < 1.0 => w.crossings_into(a, b, scratch),
            _ => 0,
        };
        self.gain(a, b, crossings)
    }

    /// The largest distance at which the unobstructed path gain still
    /// reaches `g` (the inverse of [`GainModel::path_gain`], clamped
    /// to the near field). Used to bound interference scans: beyond
    /// `distance_for_gain(floor)` a transmitter cannot contribute
    /// `floor` of gain.
    pub fn distance_for_gain(&self, g: f64) -> f64 {
        assert!(g > 0.0 && g.is_finite(), "gain must be positive, got {g}");
        if g >= 1.0 {
            return self.ref_dist;
        }
        self.ref_dist * (1.0 / g).powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_decays_with_distance_and_clamps_near_field() {
        let m = GainModel::terrain();
        assert_eq!(m.path_gain(0.0), 1.0, "near-field clamp");
        assert_eq!(m.path_gain(0.5), 1.0, "inside d0");
        assert_eq!(m.path_gain(1.0), 1.0);
        assert!((m.path_gain(2.0) - 0.125).abs() < 1e-12, "1/2^3");
        assert!(m.path_gain(10.0) < m.path_gain(5.0));
        let fs = GainModel::free_space();
        assert!((fs.path_gain(10.0) - 0.01).abs() < 1e-12, "1/10^2");
    }

    #[test]
    fn walls_attenuate_multiplicatively() {
        let m = GainModel::terrain();
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let clear = m.gain(&a, &b, 0);
        assert!((m.gain(&a, &b, 1) - clear * 0.1).abs() < 1e-15);
        assert!((m.gain(&a, &b, 2) - clear * 0.01).abs() < 1e-15);
        let opaque = GainModel {
            wall_loss: 0.0,
            ..GainModel::terrain()
        };
        assert_eq!(opaque.gain(&a, &b, 1), 0.0, "opaque wall kills the link");
    }

    #[test]
    fn distance_for_gain_inverts_path_gain() {
        let m = GainModel::terrain();
        for d in [1.0, 2.0, 7.5, 40.0] {
            let g = m.path_gain(d);
            assert!((m.distance_for_gain(g) - d).abs() < 1e-9, "d = {d}");
        }
        assert_eq!(m.distance_for_gain(2.0), m.ref_dist, "supra-unit gain");
    }

    #[test]
    fn fractional_alpha_takes_the_powf_path() {
        let m = GainModel {
            ref_dist: 1.0,
            alpha: 2.5,
            wall_loss: 1.0,
        };
        assert!((m.path_gain(4.0) - 4.0f64.powf(-2.5)).abs() < 1e-15);
        assert_eq!(m.check(), Ok(()));
    }

    #[test]
    fn check_rejects_sub_linear_alpha() {
        let err = GainModel {
            ref_dist: 1.0,
            alpha: 0.5,
            wall_loss: 0.5,
        }
        .check()
        .unwrap_err();
        assert!(err.contains("alpha"), "{err}");
    }
}
