//! One-dimensional barrier-option pricer: Crank–Nicolson on a domain
//! truncated at the barrier with an absorbing (zero Dirichlet) boundary —
//! the natural PDE treatment of a continuously monitored knock-out.
//!
//! Each grid is stepped exactly like a European line of [`crate::fd1d`]
//! (see its module docs): interior nodes start from the payoff averaged
//! over their cells, the down-and-out put steps on the mirrored line, and
//! the price is the Richardson extrapolation `V_h + (V_h − V_2h)/3` of the
//! fine grid and a half grid (`(m − 1)/2 + 1` points over the same domain,
//! `n/2` steps). The spot need not be a node, so each grid reads its value
//! by linear interpolation before the two are combined. With the barrier
//! pushed to the far edge of an 8σ vanilla domain the engine reproduces
//! [`crate::Fd1d`] to machine precision once every grid has 41 points or
//! more; on coarser grids the absorbing boundary's discrete influence
//! reaches the spot.
//!
//! This engine and the Reiner–Rubinstein closed form in
//! `mdp_model::analytic` are implemented independently; the test suite
//! checks them against each other, which validates both.

use crate::fd1d::{half_grid, richardson, Fd1dScratch, Level, Payoff1d};
use crate::grid::LogGrid;
use crate::PdeError;
use mdp_math::CancelToken;
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
        // The half grid needs three points and one step.
        if m < 5 || n < 2 {
            return Err(PdeError::GridTooSmall { space: m, time: n });
        }
        let (hm, hn) = half_grid(m, n);
        let s0 = market.spots()[0];
        let sigma = market.vols()[0];
        let r = market.rate();
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
        // The vanilla payoff the knock-out pays if it survives.
        let weights = vec![1.0];
        let vanilla = if up {
            Payoff::BasketCall { weights, strike }
        } else {
            Payoff::BasketPut { weights, strike }
        };
        let shape = Payoff1d::of(&vanilla)?;

        let mut scratch = Fd1dScratch::default();
        let mut nodes = 0;
        let mut at_spot = [0.0; 2];
        for ((points, steps), v) in [(hm, hn), (m, n)].into_iter().zip(&mut at_spot) {
            let dx = (x_hi - x_lo) / (points - 1) as f64;
            let x: Vec<f64> = (0..points).map(|i| x_lo + i as f64 * dx).collect();
            // x0 need not be a node: read out by linear interpolation.
            let pos = (x0 - x_lo) / dx;
            let i = (pos.floor() as usize).min(points - 2);
            let w = pos - i as f64;
            let center = (pos.round() as usize).min(points - 1);
            let grid = LogGrid { x, dx, center };
            let level = Level::new(grid, steps, t, market, 0.5)?;
            // Terminal payoff on the surviving domain. The far boundary
            // is discounted intrinsic (deep OTM for the call's low side,
            // intrinsic for the put's high side); the barrier side is
            // absorbing, zero from the start.
            let point = &mut scratch.intrinsic;
            point.clear();
            point.extend(level.spots.iter().map(|&s| vanilla.eval(&[s])));
            point[if up { points - 1 } else { 0 }] = 0.0;
            level.solve(shape, false, r, &CancelToken::never(), &mut scratch)?;
            *v = scratch.values[i] * (1.0 - w) + scratch.values[i + 1] * w;
            nodes += level.nodes();
        }
        let [coarse, fine] = at_spot;
        Ok(BarrierResult {
            price: richardson(fine, coarse).0,
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
