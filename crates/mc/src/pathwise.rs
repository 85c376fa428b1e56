//! Pathwise (infinitesimal-perturbation) delta estimation.
//!
//! Under GBM the terminal price is pathwise linear in the initial spot,
//! `∂Sᵢ(T)/∂Sᵢ(0) = Sᵢ(T)/Sᵢ(0)`, so for Lipschitz payoffs the payoff
//! derivative can be moved inside the expectation and estimated on the
//! *same* paths as the price — one run gives price and all deltas with
//! MC noise far below bump-and-reprice. Discontinuous payoffs
//! (digitals) are rejected: their pathwise derivative misses the jump
//! term and would be silently biased.

use crate::path::{walk_panel, GbmStepper, SoaPanel, PANEL};
use crate::McConfig;
use crate::McError;
use mdp_math::rng::{NormalPolar, NormalSampler, Xoshiro256StarStar};
use mdp_math::stats::OnlineStats;
use mdp_model::{ExerciseStyle, GbmMarket, Payoff, Product};

/// Price plus pathwise deltas.
#[derive(Debug, Clone)]
pub struct PathwiseResult {
    /// Price estimate.
    pub price: f64,
    /// Standard error of the price.
    pub price_se: f64,
    /// Per-asset pathwise delta.
    pub delta: Vec<f64>,
    /// Standard error of each delta component.
    pub delta_se: Vec<f64>,
    /// Paths used.
    pub paths: u64,
}

/// True when the payoff family supports the pathwise method
/// (almost-everywhere differentiable, no jumps).
pub fn supports_pathwise(payoff: &Payoff) -> bool {
    matches!(
        payoff,
        Payoff::BasketCall { .. }
            | Payoff::BasketPut { .. }
            | Payoff::GeometricCall { .. }
            | Payoff::GeometricPut { .. }
            | Payoff::MaxCall { .. }
            | Payoff::MinCall { .. }
            | Payoff::MaxPut { .. }
            | Payoff::MinPut { .. }
            | Payoff::Exchange
            | Payoff::SpreadCall { .. }
            | Payoff::AsianCall { .. }
            | Payoff::AsianPut { .. }
            | Payoff::LookbackCallFloating
            | Payoff::LookbackPutFloating
    )
}

/// Payoff value and gradient w.r.t. the *terminal* spot vector
/// (for Asians: w.r.t. the per-date spots folded through the average).
fn terminal_gradient(payoff: &Payoff, s: &[f64], grad: &mut [f64]) -> f64 {
    for g in grad.iter_mut() {
        *g = 0.0;
    }
    let d = s.len();
    match payoff {
        Payoff::BasketCall { weights, strike } => {
            let b: f64 = weights.iter().zip(s).map(|(w, x)| w * x).sum();
            if b > *strike {
                grad.copy_from_slice(weights);
            }
            (b - strike).max(0.0)
        }
        Payoff::BasketPut { weights, strike } => {
            let b: f64 = weights.iter().zip(s).map(|(w, x)| w * x).sum();
            if b < *strike {
                for (g, w) in grad.iter_mut().zip(weights) {
                    *g = -w;
                }
            }
            (strike - b).max(0.0)
        }
        Payoff::GeometricCall { strike } => {
            let g0 = (s.iter().map(|x| x.ln()).sum::<f64>() / d as f64).exp();
            if g0 > *strike {
                for (gi, &si) in grad.iter_mut().zip(s) {
                    *gi = g0 / (d as f64 * si);
                }
            }
            (g0 - strike).max(0.0)
        }
        Payoff::GeometricPut { strike } => {
            let g0 = (s.iter().map(|x| x.ln()).sum::<f64>() / d as f64).exp();
            if g0 < *strike {
                for (gi, &si) in grad.iter_mut().zip(s) {
                    *gi = -g0 / (d as f64 * si);
                }
            }
            (strike - g0).max(0.0)
        }
        Payoff::MaxCall { strike } => {
            let (arg, mx) = argmax(s);
            if mx > *strike {
                grad[arg] = 1.0;
            }
            (mx - strike).max(0.0)
        }
        Payoff::MinCall { strike } => {
            let (arg, mn) = argmin(s);
            if mn > *strike {
                grad[arg] = 1.0;
            }
            (mn - strike).max(0.0)
        }
        Payoff::MaxPut { strike } => {
            let (arg, mx) = argmax(s);
            if mx < *strike {
                grad[arg] = -1.0;
            }
            (strike - mx).max(0.0)
        }
        Payoff::MinPut { strike } => {
            let (arg, mn) = argmin(s);
            if mn < *strike {
                grad[arg] = -1.0;
            }
            (strike - mn).max(0.0)
        }
        Payoff::Exchange => {
            if s[0] > s[1] {
                grad[0] = 1.0;
                grad[1] = -1.0;
            }
            (s[0] - s[1]).max(0.0)
        }
        Payoff::SpreadCall { strike } => {
            if s[0] - s[1] > *strike {
                grad[0] = 1.0;
                grad[1] = -1.0;
            }
            (s[0] - s[1] - strike).max(0.0)
        }
        _ => unreachable!("gated by supports_pathwise"),
    }
}

fn argmax(s: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for i in 1..s.len() {
        if s[i] > s[best] {
            best = i;
        }
    }
    (best, s[best])
}

fn argmin(s: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for i in 1..s.len() {
        if s[i] < s[best] {
            best = i;
        }
    }
    (best, s[best])
}

/// Estimate price and pathwise deltas of a European product.
pub fn pathwise_delta(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
) -> Result<PathwiseResult, McError> {
    product.validate_for(market)?;
    if product.exercise != ExerciseStyle::European {
        return Err(McError::Unsupported(
            "pathwise deltas are European-only".into(),
        ));
    }
    if !supports_pathwise(&product.payoff) {
        return Err(McError::Unsupported(format!(
            "pathwise method invalid for discontinuous payoff {:?}",
            product.payoff
        )));
    }
    if cfg.paths == 0 {
        return Err(McError::ZeroPaths);
    }
    if cfg.steps == 0 {
        return Err(McError::ZeroSteps);
    }
    let d = market.dim();
    let stepper = GbmStepper::new(market, product.maturity, cfg.steps);
    let log0: Vec<f64> = market.spots().iter().map(|s| s.ln()).collect();
    let disc = market.discount(product.maturity);
    let payoff = &product.payoff;
    let path_dep = payoff.is_path_dependent();
    let spots0 = market.spots();

    let mut sampler = NormalPolar::new();
    let mut grad = vec![0.0; d];
    let mut term = vec![0.0; d];
    let mut price_stats = OnlineStats::new();
    let mut delta_stats = vec![OnlineStats::new(); d];
    let s0_first = spots0[0];
    let lookback = matches!(
        payoff,
        Payoff::LookbackCallFloating | Payoff::LookbackPutFloating
    );

    // Paths ride the batched SoA kernel: fill a panel path-major (same
    // RNG draw order as the scalar per-path loop), walk all lanes
    // through the panel stepper, then run the per-lane gradient logic.
    // All per-lane state is hoisted out of the path loop — including the
    // old per-path `dvec` allocation.
    let mut panel = SoaPanel::new(&stepper, PANEL);
    let mut ys = vec![0.0; PANEL];
    let mut avg = vec![0.0; PANEL];
    let mut basket = vec![0.0; PANEL];
    let mut pmax = vec![0.0; PANEL];
    let mut pmin = vec![0.0; PANEL];
    // Row-major [asset][lane]: per-asset sums of Sᵢ(t)/S0ᵢ over dates,
    // and the per-lane pathwise delta vector.
    let mut asian_sum = vec![0.0; d * PANEL];
    let mut dvec = vec![0.0; d * PANEL];

    // Block b's substream is the previous block's start jumped once.
    let mut next = Xoshiro256StarStar::seed_from(cfg.seed);
    for b in 0..cfg.num_blocks() {
        let mut rng = next;
        next.jump();
        sampler.reset();
        let total = cfg.block_paths(b);
        let mut done = 0u64;
        while done < total {
            let n = (total - done).min(PANEL as u64) as usize;
            panel.fill_normals(&mut sampler, &mut rng, n);
            avg[..n].fill(0.0);
            asian_sum.fill(0.0);
            dvec.fill(0.0);
            pmax[..n].fill(s0_first);
            pmin[..n].fill(s0_first);
            walk_panel(&stepper, &log0, &mut panel, n, |_, p| {
                if lookback {
                    p.exp_row(0, n);
                    let row = &p.spot_row(0)[..n];
                    for (mx, &s) in pmax[..n].iter_mut().zip(row) {
                        *mx = mx.max(s);
                    }
                    for (mn, &s) in pmin[..n].iter_mut().zip(row) {
                        *mn = mn.min(s);
                    }
                } else if path_dep {
                    p.exp_all(n);
                    basket[..n].fill(0.0);
                    for i in 0..d {
                        let row = &p.spot_row(i)[..n];
                        for (bk, &s) in basket[..n].iter_mut().zip(row) {
                            *bk += s;
                        }
                        let s0 = spots0[i];
                        for (acc, &s) in asian_sum[i * PANEL..i * PANEL + n].iter_mut().zip(row) {
                            *acc += s / s0;
                        }
                    }
                    for (a, &bk) in avg[..n].iter_mut().zip(basket[..n].iter()) {
                        *a += bk / d as f64;
                    }
                }
            });
            if lookback {
                // Floating lookbacks are positively homogeneous of degree
                // 1 in S₀ (every path value scales with the spot), so the
                // pathwise delta is payoff/S₀ exactly.
                let row = panel.spot_row(0);
                for lane in 0..n {
                    let y = payoff.eval_extremes(row[lane], pmax[lane], pmin[lane]);
                    ys[lane] = y;
                    dvec[lane] = y / s0_first;
                }
            } else if path_dep {
                let m = cfg.steps as f64;
                for lane in 0..n {
                    let mean = avg[lane] / cfg.steps as f64;
                    match payoff {
                        Payoff::AsianCall { strike } => {
                            ys[lane] = (mean - strike).max(0.0);
                            if mean > *strike {
                                for i in 0..d {
                                    // ∂mean/∂S0ᵢ = (1/(m·d))·Σ_t Sᵢ(t)/S0ᵢ
                                    dvec[i * PANEL + lane] =
                                        asian_sum[i * PANEL + lane] / (m * d as f64);
                                }
                            }
                        }
                        Payoff::AsianPut { strike } => {
                            ys[lane] = (strike - mean).max(0.0);
                            if mean < *strike {
                                for i in 0..d {
                                    dvec[i * PANEL + lane] =
                                        -asian_sum[i * PANEL + lane] / (m * d as f64);
                                }
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            } else {
                panel.exp_all(n);
                for lane in 0..n {
                    panel.gather_spots(lane, &mut term);
                    ys[lane] = terminal_gradient(payoff, &term, &mut grad);
                    // Chain rule: ∂Sᵢ(T)/∂S0ᵢ = Sᵢ(T)/S0ᵢ.
                    for i in 0..d {
                        dvec[i * PANEL + lane] = grad[i] * term[i] / spots0[i];
                    }
                }
            }
            for lane in 0..n {
                price_stats.push(disc * ys[lane]);
                for (i, st) in delta_stats.iter_mut().enumerate() {
                    st.push(disc * dvec[i * PANEL + lane]);
                }
            }
            done += n as u64;
        }
    }
    Ok(PathwiseResult {
        price: price_stats.mean(),
        price_se: price_stats.std_error(),
        delta: delta_stats.iter().map(|s| s.mean()).collect(),
        delta_se: delta_stats.iter().map(|s| s.std_error()).collect(),
        paths: price_stats.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_model::greeks::black_scholes_call_greeks;
    use mdp_model::Product;

    #[test]
    fn vanilla_delta_matches_black_scholes() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let exact = black_scholes_call_greeks(100.0, 100.0, 0.05, 0.0, 0.2, 1.0);
        let r = pathwise_delta(
            &m,
            &p,
            McConfig {
                paths: 200_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (r.delta[0] - exact.delta[0]).abs() < 3.5 * r.delta_se[0],
            "{} vs {} (se {})",
            r.delta[0],
            exact.delta[0],
            r.delta_se[0]
        );
        assert!(r.delta_se[0] < 0.005, "pathwise SE should be tiny");
    }

    #[test]
    fn geometric_basket_delta_matches_bump() {
        let m = GbmMarket::symmetric(3, 100.0, 0.25, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::GeometricCall { strike: 100.0 }, 1.0);
        let r = pathwise_delta(
            &m,
            &p,
            McConfig {
                paths: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        // Analytic bump of the closed form.
        let h = 0.01;
        let up = {
            let mb = m.with_spot(0, 100.0 + h).unwrap();
            mdp_model::analytic::geometric_basket_call(&mb, &Product::equal_weights(3), 100.0, 1.0)
        };
        let dn = {
            let mb = m.with_spot(0, 100.0 - h).unwrap();
            mdp_model::analytic::geometric_basket_call(&mb, &Product::equal_weights(3), 100.0, 1.0)
        };
        let exact = (up - dn) / (2.0 * h);
        assert!(
            (r.delta[0] - exact).abs() < 4.0 * r.delta_se[0] + 1e-3,
            "{} vs {exact}",
            r.delta[0]
        );
    }

    #[test]
    fn exchange_deltas_have_opposite_signs() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::Exchange, 1.0);
        let r = pathwise_delta(
            &m,
            &p,
            McConfig {
                paths: 50_000,
                ..Default::default()
            },
        )
        .unwrap();
        // Exact Margrabe deltas: Δ₁ = Φ(d₁), Δ₂ = −Φ(d₂) with
        // σ_x = σ√(2(1−ρ)) and d₁ = σ_x√T/2 at equal spots.
        let sig_x = 0.2 * (2.0f64 * (1.0 - 0.3)).sqrt();
        let d1 = 0.5 * sig_x;
        let exact1 = mdp_math::special::norm_cdf(d1);
        let exact2 = -mdp_math::special::norm_cdf(d1 - sig_x);
        assert!(
            (r.delta[0] - exact1).abs() < 4.0 * r.delta_se[0] + 1e-3,
            "{} vs {exact1}",
            r.delta[0]
        );
        assert!(
            (r.delta[1] - exact2).abs() < 4.0 * r.delta_se[1] + 1e-3,
            "{} vs {exact2}",
            r.delta[1]
        );
    }

    #[test]
    fn max_call_deltas_sum_to_exercise_probability_scale() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.0).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let r = pathwise_delta(
            &m,
            &p,
            McConfig {
                paths: 50_000,
                ..Default::default()
            },
        )
        .unwrap();
        // Deltas positive, symmetric.
        assert!(r.delta[0] > 0.0 && r.delta[1] > 0.0);
        assert!((r.delta[0] - r.delta[1]).abs() < 0.03, "{:?}", r.delta);
    }

    #[test]
    fn asian_delta_below_european_delta() {
        let m = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        let ra = pathwise_delta(
            &m,
            &asian,
            McConfig {
                paths: 60_000,
                steps: 12,
                ..Default::default()
            },
        )
        .unwrap();
        let euro = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        let re = pathwise_delta(
            &m,
            &euro,
            McConfig {
                paths: 60_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ra.delta[0] > 0.0);
        assert!(
            ra.delta[0] < re.delta[0],
            "asian {} vs euro {}",
            ra.delta[0],
            re.delta[0]
        );
    }

    #[test]
    fn digitals_rejected() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let digital = Product::european(
            Payoff::DigitalBasketCall {
                weights: vec![1.0],
                strike: 100.0,
                cash: 1.0,
            },
            1.0,
        );
        assert!(matches!(
            pathwise_delta(&m, &digital, McConfig::default()),
            Err(McError::Unsupported(_))
        ));
        assert!(!supports_pathwise(&digital.payoff));
    }

    #[test]
    fn american_rejected() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let am = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.0,
        );
        assert!(pathwise_delta(&m, &am, McConfig::default()).is_err());
    }

    #[test]
    fn price_agrees_with_engine() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        let cfg = McConfig {
            paths: 20_000,
            ..Default::default()
        };
        let pw = pathwise_delta(&m, &p, cfg).unwrap();
        let eng = crate::engine::McEngine::new(cfg).price(&m, &p).unwrap();
        // Same sample set, same estimator for the price.
        assert!((pw.price - eng.price).abs() < 1e-12);
    }
}

#[cfg(test)]
mod lookback_pathwise_tests {
    use super::*;
    use mdp_model::{analytic, Product};

    #[test]
    fn lookback_delta_equals_price_over_spot() {
        // Homogeneity: V(λS₀) = λV(S₀) ⇒ Δ = V/S₀ exactly for the
        // continuous contract; the discretely monitored estimator obeys
        // the same identity against its own (discrete) price.
        let m = GbmMarket::single(100.0, 0.3, 0.0, 0.05).unwrap();
        let p = Product::european(Payoff::LookbackCallFloating, 1.0);
        let cfg = McConfig {
            paths: 40_000,
            steps: 64,
            ..Default::default()
        };
        let r = pathwise_delta(&m, &p, cfg).unwrap();
        assert!(
            (r.delta[0] - r.price / 100.0).abs() < 1e-12,
            "pathwise identity: {} vs {}",
            r.delta[0],
            r.price / 100.0
        );
        // And close to the continuous closed form's delta.
        let exact_delta = analytic::lookback_call_floating(100.0, 0.05, 0.0, 0.3, 1.0) / 100.0;
        assert!(
            (r.delta[0] - exact_delta).abs() < 0.03,
            "{} vs {exact_delta}",
            r.delta[0]
        );
    }
}
