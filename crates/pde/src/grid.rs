//! Log-space spatial grids.

use crate::PdeError;

/// A uniform grid in `x = ln S`, centred on `ln S₀`, spanning
/// `± width · σ√T` (clamped to a sensible minimum so tiny vols still get
/// a usable domain).
#[derive(Debug, Clone)]
pub struct LogGrid {
    /// Grid values of `x = ln S`, ascending, length `points`.
    pub x: Vec<f64>,
    /// Spacing Δx.
    pub dx: f64,
    /// Index of the point closest to `ln S₀`.
    pub center: usize,
}

/// The domain half-width check every plan builder runs before building
/// its grids: `width` (in standard deviations) must be positive and
/// finite, or the plan fails with a typed error instead of tripping
/// [`LogGrid::new`]'s assertion.
pub(crate) fn check_width(width: f64) -> Result<(), PdeError> {
    if width.is_finite() && width > 0.0 {
        Ok(())
    } else {
        Err(PdeError::Model(mdp_model::ModelError::InvalidParameter {
            what: "width",
            value: width,
        }))
    }
}

impl LogGrid {
    /// Build a grid of `points` nodes around `spot` for volatility
    /// `sigma` and horizon `t`, spanning `width` standard deviations.
    ///
    /// # Panics
    /// Panics if `points < 3` or inputs are non-positive.
    pub fn new(spot: f64, sigma: f64, t: f64, width: f64, points: usize) -> Self {
        assert!(points >= 3, "need at least 3 grid points");
        assert!(spot > 0.0 && sigma > 0.0 && t > 0.0 && width > 0.0);
        let x0 = spot.ln();
        let half = (width * sigma * t.sqrt()).max(0.5);
        let dx = 2.0 * half / (points - 1) as f64;
        // Shift so that x0 falls exactly on a node: pricing then reads
        // the solution without interpolation.
        let center = (points - 1) / 2;
        let x: Vec<f64> = (0..points)
            .map(|i| x0 + (i as f64 - center as f64) * dx)
            .collect();
        LogGrid { x, dx, center }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Spot values `e^x` of all nodes.
    pub fn spots(&self) -> Vec<f64> {
        self.x.iter().map(|&x| x.exp()).collect()
    }

    /// The spot value at the centre node (≈ S₀ exactly, by construction).
    pub fn center_spot(&self) -> f64 {
        self.x[self.center].exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_hits_spot_exactly() {
        let g = LogGrid::new(100.0, 0.2, 1.0, 5.0, 201);
        assert!((g.center_spot() - 100.0).abs() < 1e-10);
        assert_eq!(g.len(), 201);
    }

    #[test]
    fn grid_is_uniform_and_ascending() {
        let g = LogGrid::new(50.0, 0.3, 2.0, 4.0, 101);
        for w in g.x.windows(2) {
            assert!((w[1] - w[0] - g.dx).abs() < 1e-12);
        }
    }

    #[test]
    fn span_scales_with_width() {
        let narrow = LogGrid::new(100.0, 0.2, 1.0, 3.0, 101);
        let wide = LogGrid::new(100.0, 0.2, 1.0, 6.0, 101);
        let span = |g: &LogGrid| g.x[g.len() - 1] - g.x[0];
        assert!(span(&wide) > 1.9 * span(&narrow));
    }

    #[test]
    fn minimum_half_width_enforced() {
        // Tiny σ√T must still give a usable domain.
        let g = LogGrid::new(100.0, 0.01, 0.01, 5.0, 11);
        assert!(g.x[g.len() - 1] - g.x[0] >= 1.0 - 1e-12);
    }

    #[test]
    #[should_panic(expected = "3 grid points")]
    fn too_few_points_panics() {
        let _ = LogGrid::new(100.0, 0.2, 1.0, 5.0, 2);
    }
}
