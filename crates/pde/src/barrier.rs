//! One-dimensional barrier-option pricer: Crank–Nicolson on a domain
//! truncated at the barrier with an absorbing (zero Dirichlet) boundary —
//! the natural PDE treatment of a continuously monitored knock-out. Each
//! step is the two-sweep θ-step of [`crate::fd1d`].
//!
//! This engine and the Reiner–Rubinstein closed form in
//! `mdp_model::analytic` are implemented independently; the test suite
//! checks them against each other, which validates both.

use crate::fd1d::ThetaSweep;
use crate::PdeError;
use mdp_math::linalg::theta_system;
use mdp_model::{ExerciseStyle, GbmMarket, Payoff, Product};

/// Configuration of the 1-D barrier finite-difference engine.
#[derive(Debug, Clone, Copy)]
pub struct Fd1dBarrier {
    /// Spatial points between the barrier and the far boundary.
    pub space_points: usize,
    /// Time steps.
    pub time_steps: usize,
    /// Far-boundary width in standard deviations (away from the barrier).
    pub width: f64,
}

impl Default for Fd1dBarrier {
    fn default() -> Self {
        Fd1dBarrier {
            space_points: 401,
            time_steps: 400,
            width: 5.0,
        }
    }
}

/// Result of a barrier PDE run.
#[derive(Debug, Clone)]
pub struct BarrierResult {
    /// Present value at the spot.
    pub price: f64,
    /// Grid-point updates performed.
    pub nodes_processed: u64,
}

impl Fd1dBarrier {
    /// Price a European [`Payoff::UpOutCall`] or [`Payoff::DownOutPut`]
    /// under continuous barrier monitoring.
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<BarrierResult, PdeError> {
        product.validate_for(market)?;
        if market.dim() != 1 {
            return Err(PdeError::Model(mdp_model::ModelError::DimensionMismatch {
                product: 1,
                market: market.dim(),
            }));
        }
        if product.exercise != ExerciseStyle::European {
            return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                engine: "barrier FD",
                why: "European exercise only".into(),
            }));
        }
        let (strike, barrier, up) = match product.payoff {
            Payoff::UpOutCall { strike, barrier } => (strike, barrier, true),
            Payoff::DownOutPut { strike, barrier } => (strike, barrier, false),
            ref other => {
                return Err(PdeError::Model(mdp_model::ModelError::Unsupported {
                    engine: "barrier FD",
                    why: format!("payoff {other:?} is not a knock-out barrier"),
                }))
            }
        };
        let m = self.space_points;
        let n = self.time_steps;
        if m < 3 || n < 1 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        let s0 = market.spots()[0];
        let sigma = market.vols()[0];
        let r = market.rate();
        let mu = market.log_drift(0);
        let t = product.maturity;
        let x0 = s0.ln();
        let xb = barrier.ln();
        // Already knocked at inception.
        if (up && s0 >= barrier) || (!up && s0 <= barrier) {
            return Ok(BarrierResult {
                price: 0.0,
                nodes_processed: 0,
            });
        }
        // Domain: [x_far, x_barrier] for up-and-out, mirrored otherwise.
        let half = (self.width * sigma * t.sqrt()).max(0.5);
        let (x_lo, x_hi) = if up { (x0 - half, xb) } else { (xb, x0 + half) };
        let dx = (x_hi - x_lo) / (m - 1) as f64;
        let xs: Vec<f64> = (0..m).map(|i| x_lo + i as f64 * dx).collect();
        let dt = t / n as f64;

        let diff = 0.5 * sigma * sigma / (dx * dx);
        let conv = 0.5 * mu / dx;
        let a = diff - conv;
        let bb = -2.0 * diff - r;
        let c = diff + conv;
        let sweep = ThetaSweep {
            theta: 0.5,
            dt,
            a,
            b: bb,
            c,
        };

        // Terminal payoff on the surviving domain.
        let payoff_at = |x: f64| {
            let s = x.exp();
            if up {
                (s - strike).max(0.0)
            } else {
                (strike - s).max(0.0)
            }
        };
        let mut values: Vec<f64> = xs.iter().map(|&x| payoff_at(x)).collect();
        // Absorbing barrier: zero on the barrier-side boundary from the start.
        if up {
            values[m - 1] = 0.0;
        } else {
            values[0] = 0.0;
        }
        let mut nodes = m as u64;
        // Reused across every time step (no per-step allocation), with
        // the constant CN system factored once for all steps.
        let mut dp = vec![0.0; m - 2];
        let factored = theta_system(sweep.theta, dt, a, bb, c, m - 2)
            .factor()
            .map_err(|_| PdeError::GridTooSmall { space: m, time: n })?;
        for step in 1..=n {
            let tau = step as f64 * dt;
            let df = (-r * tau).exp();
            // Far boundary: discounted intrinsic (deep OTM for these
            // payoffs ⇒ ≈ 0 for the call's low side, intrinsic for the
            // put's high side — both handled by the same formula).
            let bounds = if up {
                (df * payoff_at(xs[0]), 0.0)
            } else {
                (0.0, df * payoff_at(xs[m - 1]))
            };
            sweep.step(&factored, &mut values, &mut dp, bounds, None);
            nodes += m as u64;
        }

        // Read out at x0 by linear interpolation (x0 need not be a node).
        let pos = (x0 - x_lo) / dx;
        let i = (pos.floor() as usize).min(m - 2);
        let w = pos - i as f64;
        let price = values[i] * (1.0 - w) + values[i + 1] * w;
        Ok(BarrierResult {
            price,
            nodes_processed: nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::analytic;

    fn market() -> GbmMarket {
        GbmMarket::single(100.0, 0.25, 0.0, 0.05).unwrap()
    }

    #[test]
    fn up_and_out_call_matches_closed_form() {
        let m = market();
        let p = Product::european(
            Payoff::UpOutCall {
                strike: 100.0,
                barrier: 130.0,
            },
            1.0,
        );
        let exact = analytic::up_and_out_call(100.0, 100.0, 130.0, 0.05, 0.0, 0.25, 1.0);
        let r = Fd1dBarrier {
            space_points: 801,
            time_steps: 800,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn down_and_out_put_matches_closed_form() {
        let m = market();
        let p = Product::european(
            Payoff::DownOutPut {
                strike: 100.0,
                barrier: 75.0,
            },
            1.0,
        );
        let exact = analytic::down_and_out_put(100.0, 100.0, 75.0, 0.05, 0.0, 0.25, 1.0);
        let r = Fd1dBarrier {
            space_points: 801,
            time_steps: 800,
            ..Default::default()
        }
        .price(&m, &p)
        .unwrap();
        assert!(approx_eq(r.price, exact, 5e-3), "{} vs {exact}", r.price);
    }

    #[test]
    fn distant_barrier_recovers_vanilla() {
        let m = market();
        let p = Product::european(
            Payoff::UpOutCall {
                strike: 100.0,
                barrier: 400.0,
            },
            1.0,
        );
        let vanilla = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.25, 1.0);
        let r = Fd1dBarrier::default().price(&m, &p).unwrap();
        assert!(
            approx_eq(r.price, vanilla, 1e-2),
            "{} vs {vanilla}",
            r.price
        );
    }

    #[test]
    fn knocked_at_inception_is_worthless() {
        let m = GbmMarket::single(140.0, 0.25, 0.0, 0.05).unwrap();
        let p = Product::european(
            Payoff::UpOutCall {
                strike: 100.0,
                barrier: 130.0,
            },
            1.0,
        );
        let r = Fd1dBarrier::default().price(&m, &p).unwrap();
        assert_eq!(r.price, 0.0);
    }

    #[test]
    fn barrier_price_below_vanilla_and_monotone_in_barrier() {
        let m = market();
        let vanilla = analytic::black_scholes_call(100.0, 100.0, 0.05, 0.0, 0.25, 1.0);
        let mut prev = 0.0;
        for barrier in [110.0, 125.0, 150.0, 200.0] {
            let p = Product::european(
                Payoff::UpOutCall {
                    strike: 100.0,
                    barrier,
                },
                1.0,
            );
            let r = Fd1dBarrier::default().price(&m, &p).unwrap();
            assert!(r.price < vanilla + 1e-9);
            assert!(r.price >= prev - 1e-9, "monotone in barrier level");
            prev = r.price;
        }
    }

    #[test]
    fn rejects_non_barrier_payoffs_and_american() {
        let m = market();
        let vanilla = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        assert!(Fd1dBarrier::default().price(&m, &vanilla).is_err());
        let am = Product::american(
            Payoff::UpOutCall {
                strike: 100.0,
                barrier: 130.0,
            },
            1.0,
        );
        assert!(Fd1dBarrier::default().price(&m, &am).is_err());
    }

    #[test]
    fn validation_rejects_bad_barrier_levels() {
        let bad = Payoff::UpOutCall {
            strike: 100.0,
            barrier: 90.0,
        };
        assert!(bad.validate().is_err());
        let bad2 = Payoff::DownOutPut {
            strike: 100.0,
            barrier: 110.0,
        };
        assert!(bad2.validate().is_err());
    }
}
