//! Accuracy of the Crank–Nicolson engine against the truth, not only
//! against itself.
//!
//! * **Convergence.** Off-node European puts and calls (the strike
//!   falls between nodes) on three grids, `n = (m − 1)/2`: the order
//!   fitted to successive Richardson error estimates is second order,
//!   and each estimate bounds the extrapolated price's distance from
//!   Black–Scholes.
//! * **Default-grid accuracy.** A subset of the service benchmark's put
//!   ladder on [`Fd1d::default`]: Europeans against Black–Scholes,
//!   Americans against committed high-resolution references and the
//!   worst error of the former 401 × 400 default on the same products.
//! * **Closed forms.** Each cell-average closed form against a fine
//!   midpoint rule, on cells that straddle the strike and cells that do
//!   not.

use mdp_core::pde::cell_average;
use mdp_core::prelude::*;

fn market() -> GbmMarket {
    GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap()
}

fn vanilla(call: bool, strike: f64) -> Payoff {
    let weights = vec![1.0];
    if call {
        Payoff::BasketCall { weights, strike }
    } else {
        Payoff::BasketPut { weights, strike }
    }
}

#[test]
fn off_node_europeans_converge_at_second_order() {
    for (strike, maturity) in [(130.0, 1.0), (87.42, 0.25), (124.19, 2.0), (108.71, 0.1)] {
        for call in [false, true] {
            let exact = if call {
                analytic::black_scholes_call(100.0, strike, 0.05, 0.0, 0.2, maturity)
            } else {
                analytic::black_scholes_put(100.0, strike, 0.05, 0.0, 0.2, maturity)
            };
            let product = Product::european(vanilla(call, strike), maturity);
            let mut estimates = Vec::new();
            for m in [121, 241, 481] {
                let cfg = Fd1d {
                    space_points: m,
                    time_steps: (m - 1) / 2,
                    ..Fd1d::default()
                };
                let r = cfg.price(&market(), &product).unwrap();
                let estimate = r.error_estimate.expect("Crank–Nicolson estimates");
                assert!(
                    (r.price - exact).abs() <= estimate,
                    "K={strike} T={maturity} call={call} m={m}: |{} − {exact}| > {estimate}",
                    r.price
                );
                estimates.push(estimate);
            }
            for pair in estimates.windows(2) {
                let order = (pair[0] / pair[1]).log2();
                assert!(
                    (1.9..=2.2).contains(&order),
                    "K={strike} T={maturity} call={call}: fitted order {order}"
                );
            }
        }
    }
}

/// The service benchmark's maturities.
const MATURITIES: [f64; 5] = [0.1, 0.25, 0.5, 1.0, 2.0];

/// Every third of the benchmark's 32 strikes `70 + 60·i/31`,
/// `i = 0, 3, …, 30`.
fn strikes() -> impl Iterator<Item = f64> {
    (0..32).step_by(3).map(|i| 70.0 + 60.0 * i as f64 / 31.0)
}

/// American put values on S = 100, σ = 20%, r = 5%, q = 0, one row per
/// maturity and one column per strike of [`strikes`].
///
/// Made with this engine at 4001 × 4000 points (Richardson pair with
/// its 2001 × 2000 half grid). Cross-checked against a 20,000-step
/// Cox–Ross–Rubinstein tree on 32 products (17 of these, plus strikes
/// 70, 100 and 130 at each maturity): the two agree within 5e-5.
const AMERICAN_REFERENCE: [[f64; 11]; 5] = [
    [
        4.703743591998e-09,
        4.681499227360e-06,
        7.521635947063e-04,
        2.861308090722e-02,
        3.536064600478e-01,
        1.869419337812e+00,
        5.414352258643e+00,
        1.064604803135e+01,
        1.645161290323e+01,
        2.225806451613e+01,
        2.806451612903e+01,
    ],
    [
        2.246629105147e-04,
        4.815682154705e-03,
        5.018862049121e-02,
        2.966190002855e-01,
        1.124971276983e+00,
        3.030990145960e+00,
        6.312704366102e+00,
        1.089504229091e+01,
        1.645161290323e+01,
        2.225806451613e+01,
        2.806451612903e+01,
    ],
    [
        1.263639984258e-02,
        7.275371661543e-02,
        2.913181062127e-01,
        8.756499722340e-01,
        2.098375414837e+00,
        4.206675319003e+00,
        7.334651753356e+00,
        1.147752088871e+01,
        1.653085338629e+01,
        2.225806451613e+01,
        2.806451612903e+01,
    ],
    [
        1.311724243360e-01,
        3.789862471815e-01,
        9.068410962924e-01,
        1.867088864402e+00,
        3.407653154569e+00,
        5.644366100374e+00,
        8.645589315926e+00,
        1.243207296277e+01,
        1.698815170062e+01,
        2.227766971230e+01,
        2.806451612903e+01,
    ],
    [
        5.446684510807e-01,
        1.084168792483e+00,
        1.947758357010e+00,
        3.221187253783e+00,
        4.979593525631e+00,
        7.283003784634e+00,
        1.017522921841e+01,
        1.368542371258e+01,
        1.783125002334e+01,
        2.262265443626e+01,
        2.806550494722e+01,
    ],
];

/// The worst error against [`AMERICAN_REFERENCE`] of the former default
/// (401 × 400, point-sampled payoff, pointwise projection): 7.106e-3.
const FORMER_DEFAULT_WORST_AMERICAN: f64 = 7.11e-3;

#[test]
fn default_grid_beats_the_former_default_on_the_put_ladder() {
    let mut worst_eu: f64 = 0.0;
    let mut worst_am: f64 = 0.0;
    for (&maturity, references) in MATURITIES.iter().zip(&AMERICAN_REFERENCE) {
        let plan = Fd1d::default().plan(&market(), maturity).unwrap();
        let mut scratch = Default::default();
        for (strike, &reference) in strikes().zip(references) {
            let payoff = vanilla(false, strike);
            let eu = plan
                .execute(&Product::european(payoff.clone(), maturity), &mut scratch)
                .unwrap()
                .price;
            let exact = analytic::black_scholes_put(100.0, strike, 0.05, 0.0, 0.2, maturity);
            worst_eu = worst_eu.max((eu - exact).abs());
            let am = plan
                .execute(&Product::american(payoff, maturity), &mut scratch)
                .unwrap()
                .price;
            worst_am = worst_am.max((am - reference).abs());
        }
    }
    assert!(worst_eu <= 1e-4, "worst European error {worst_eu}");
    assert!(
        worst_am <= FORMER_DEFAULT_WORST_AMERICAN,
        "worst American error {worst_am}"
    );
}

#[test]
fn cell_averages_match_a_midpoint_rule() {
    let payoffs = [
        (vanilla(true, 100.0), 100.0),
        (
            Payoff::BasketPut {
                weights: vec![0.8],
                strike: 85.0,
            },
            85.0 / 0.8,
        ),
        (
            Payoff::DigitalBasketCall {
                weights: vec![1.0],
                strike: 100.0,
                cash: 7.0,
            },
            100.0,
        ),
    ];
    for (payoff, kink) in &payoffs {
        let xk = f64::ln(*kink);
        // Two cells straddling the kink, one above and one below it.
        let cells = [
            (xk - 0.07, xk + 0.03),
            (xk - 0.01, xk + 0.09),
            (xk + 0.05, xk + 0.12),
            (xk - 0.3, xk - 0.1),
        ];
        for (lo, hi) in cells {
            let k = 20_000;
            let h = (hi - lo) / k as f64;
            let rule = (0..k)
                .map(|j| payoff.eval(&[(lo + (j as f64 + 0.5) * h).exp()]))
                .sum::<f64>()
                / k as f64;
            let closed = cell_average(payoff, lo, hi).unwrap();
            // The rule is second order on the ramps; on the step it can
            // miss by the cash of one of its k sub-cells.
            let tol = match payoff {
                Payoff::DigitalBasketCall { cash, .. } => cash / k as f64,
                _ => 1e-8 * (1.0 + rule.abs()),
            };
            assert!(
                (closed - rule).abs() <= tol,
                "{payoff:?} on [{lo}, {hi}]: {closed} vs {rule}"
            );
        }
    }
}
