//! Randomised quasi-Monte Carlo pricing.
//!
//! Sobol' points are mapped to Gaussian path increments through the
//! inverse normal cdf (the only monotone choice) with **Brownian-bridge**
//! dimension ordering: Sobol' coordinate 0 drives each asset's terminal
//! value, later coordinates fill midpoints, so the best-distributed
//! coordinates carry the most variance. The error bar comes from
//! digital-shift replicates — `replicates` independent randomisations of
//! the same net — because a single QMC estimate has no internal variance
//! estimate.

use crate::panel::{eval_panel, PanelScratch};
use crate::path::{GbmStepper, SoaPanel, PANEL};
use crate::McError;
use mdp_math::brownian::BrownianBridge;
use mdp_math::rng::NormalInverse;
use mdp_math::sobol::SobolSequence;
use mdp_model::{ExerciseStyle, GbmMarket, Product};

/// Configuration of a randomised QMC run.
#[derive(Debug, Clone, Copy)]
pub struct QmcConfig {
    /// Sobol' points per replicate.
    pub points: u64,
    /// Monitoring steps (Sobol' dimension = steps × assets ≤ 64).
    pub steps: usize,
    /// Independent digital-shift replicates (≥ 2 for an error bar).
    pub replicates: u32,
    /// Seed for the digital shifts.
    pub seed: u64,
}

impl Default for QmcConfig {
    fn default() -> Self {
        QmcConfig {
            points: 16_384,
            steps: 1,
            replicates: 8,
            seed: 0x50B0,
        }
    }
}

/// Result of a randomised QMC run.
#[derive(Debug, Clone, Copy)]
pub struct QmcResult {
    /// Price estimate (mean over replicates).
    pub price: f64,
    /// Standard error across replicates.
    pub std_error: f64,
    /// Points per replicate.
    pub points: u64,
    /// Replicates used.
    pub replicates: u32,
}

/// Price a European product with randomised QMC.
pub fn price_qmc(
    market: &GbmMarket,
    product: &Product,
    cfg: QmcConfig,
) -> Result<QmcResult, McError> {
    product.validate_for(market)?;
    if product.exercise != ExerciseStyle::European {
        return Err(McError::Unsupported("QMC engine is European-only".into()));
    }
    if cfg.points == 0 {
        return Err(McError::ZeroPaths);
    }
    if cfg.steps == 0 {
        return Err(McError::ZeroSteps);
    }
    if cfg.replicates == 0 {
        return Err(McError::Unsupported("need at least one replicate".into()));
    }
    let d = market.dim();
    let sobol_dim = d * cfg.steps;
    if sobol_dim > mdp_math::sobol::MAX_DIMENSION {
        return Err(McError::Unsupported(format!(
            "Sobol' dimension {sobol_dim} exceeds {}",
            mdp_math::sobol::MAX_DIMENSION
        )));
    }

    let stepper = GbmStepper::new(market, product.maturity, cfg.steps);
    let log0: Vec<f64> = market.spots().iter().map(|s| s.ln()).collect();
    let disc = market.discount(product.maturity);
    let bridge = BrownianBridge::uniform(product.maturity, cfg.steps);
    let dt = product.maturity / cfg.steps as f64;
    let sq_dt = dt.sqrt();
    let payoff = &product.payoff;
    let s0_first = market.spots()[0];

    let mut estimates = Vec::with_capacity(cfg.replicates as usize);
    let mut point = vec![0.0; sobol_dim];
    let mut normals = vec![0.0; sobol_dim];
    // Per-asset scratch for the bridge construction.
    let mut zcol = vec![0.0; cfg.steps];
    let mut wcol = vec![0.0; cfg.steps];
    // Points ride the batched SoA kernel: each point's normal vector
    // becomes one panel lane, walked and evaluated by the same fused
    // panel pass as the pseudo-random engine. Lane order is point order,
    // so the replicate sum associates exactly as the per-point loop did.
    let mut panel = SoaPanel::new(&stepper, PANEL);
    let mut scratch = PanelScratch::new(d, PANEL);

    for rep in 0..cfg.replicates {
        let mut seq = SobolSequence::scrambled(sobol_dim, cfg.seed ^ ((rep as u64) << 32))
            .map_err(|e| McError::Unsupported(e.to_string()))?;
        seq.skip(1); // skip the (shifted) origin uniformly across replicates
        let mut sum = 0.0;
        let mut remaining = cfg.points;
        while remaining > 0 {
            let n = remaining.min(PANEL as u64) as usize;
            for lane in 0..n {
                seq.next_point(&mut point);
                // Coordinate layout: index (level ℓ, asset i) ↦ ℓ·d + i so
                // the leading Sobol' dimensions cover every asset's coarse
                // levels.
                for asset in 0..d {
                    for (l, z) in zcol.iter_mut().enumerate() {
                        *z = NormalInverse::transform(clamp_open(point[l * d + asset]));
                    }
                    bridge.build_path(&zcol, &mut wcol);
                    // Convert the Brownian path to per-step standardised
                    // increments for the exact stepper.
                    let mut prev = 0.0;
                    for (s, w) in wcol.iter().enumerate() {
                        normals[s * d + asset] = (w - prev) / sq_dt;
                        prev = *w;
                    }
                }
                panel.set_lane_normals(lane, &normals);
            }
            eval_panel(
                &stepper,
                &log0,
                payoff,
                s0_first,
                None,
                &mut panel,
                &mut scratch,
                n,
            );
            for lane in 0..n {
                sum += disc * scratch.ys[lane];
            }
            remaining -= n as u64;
        }
        estimates.push(sum / cfg.points as f64);
    }

    let r = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / r;
    let std_error = if estimates.len() > 1 {
        let var = estimates
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / (r - 1.0);
        (var / r).sqrt()
    } else {
        0.0
    };
    Ok(QmcResult {
        price: mean,
        std_error,
        points: cfg.points,
        replicates: cfg.replicates,
    })
}

/// Keep a uniform strictly inside (0, 1) so `Φ⁻¹` stays finite.
#[inline]
fn clamp_open(u: f64) -> f64 {
    u.clamp(1e-16, 1.0 - 1e-16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_model::{analytic, Payoff};

    fn basket5() -> (GbmMarket, Product) {
        (
            GbmMarket::symmetric(5, 100.0, 0.3, 0.0, 0.05, 0.4).unwrap(),
            Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0),
        )
    }

    #[test]
    fn qmc_matches_closed_form_tightly() {
        let (m, p) = basket5();
        let exact = analytic::geometric_basket_call(&m, &Product::equal_weights(5), 100.0, 1.0);
        let r = price_qmc(
            &m,
            &p,
            QmcConfig {
                points: 8192,
                replicates: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (r.price - exact).abs() < 5e-3,
            "{} vs {exact} (se {})",
            r.price,
            r.std_error
        );
    }

    #[test]
    fn qmc_beats_plain_mc_at_equal_budget() {
        use crate::engine::{McConfig, McEngine};
        let (m, p) = basket5();
        let exact = analytic::geometric_basket_call(&m, &Product::equal_weights(5), 100.0, 1.0);
        let budget = 16_384u64;
        let q = price_qmc(
            &m,
            &p,
            QmcConfig {
                points: budget / 4,
                replicates: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mc = McEngine::new(McConfig {
            paths: budget,
            ..Default::default()
        })
        .price(&m, &p)
        .unwrap();
        let err_q = (q.price - exact).abs();
        let err_mc = (mc.price - exact).abs();
        // QMC should be decisively tighter for this smooth 5-dim integrand.
        assert!(err_q < err_mc || err_q < 2e-3, "qmc {err_q} vs mc {err_mc}");
        assert!(
            q.std_error < mc.std_error,
            "{} vs {}",
            q.std_error,
            mc.std_error
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, p) = basket5();
        let cfg = QmcConfig {
            points: 1024,
            replicates: 2,
            ..Default::default()
        };
        let a = price_qmc(&m, &p, cfg).unwrap();
        let b = price_qmc(&m, &p, cfg).unwrap();
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }

    #[test]
    fn rejects_bad_configs() {
        let (m, p) = basket5();
        assert!(price_qmc(
            &m,
            &p,
            QmcConfig {
                points: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(price_qmc(
            &m,
            &p,
            QmcConfig {
                steps: 20, // 5 assets × 20 steps = 100 > 64 dims
                ..Default::default()
            }
        )
        .is_err());
        let am = Product::american(Payoff::MaxCall { strike: 1.0 }, 1.0);
        assert!(price_qmc(&m, &am, QmcConfig::default()).is_err());
    }
}
