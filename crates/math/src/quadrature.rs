//! Numerical quadrature: Gauss–Legendre rules.
//!
//! Used by the analytic reference prices (bivariate normal cdf via
//! Plackett's identity, continuous averaging) and by tests that need
//! independent numerical cross-checks of closed forms.

/// A Gauss–Legendre rule on `[-1, 1]`: `nodes[i]` with `weights[i]`.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    /// Quadrature nodes in (-1, 1), ascending.
    pub nodes: Vec<f64>,
    /// Positive weights summing to 2.
    pub weights: Vec<f64>,
}

impl GaussLegendre {
    /// Build an `n`-point rule by Newton iteration on the Legendre
    /// polynomial P_n (the classic `gauleg` construction). Exact for
    /// polynomials of degree ≤ 2n−1.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "quadrature order must be positive");
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Chebyshev-based initial guess for the i-th root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut dp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
                let mut p0 = 1.0;
                let mut p1 = 0.0;
                for j in 0..n {
                    let p2 = p1;
                    p1 = p0;
                    p0 = ((2 * j + 1) as f64 * x * p1 - j as f64 * p2) / (j + 1) as f64;
                }
                dp = n as f64 * (x * p0 - p1) / (x * x - 1.0);
                let dx = p0 / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        GaussLegendre { nodes, weights }
    }

    /// Integrate `f` over `[a, b]` with this rule.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, a: f64, b: f64, mut f: F) -> f64 {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let mut acc = 0.0;
        for (&x, &w) in self.nodes.iter().zip(&self.weights) {
            acc += w * f(mid + half * x);
        }
        acc * half
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn gl_weights_sum_to_two() {
        for n in [1, 2, 5, 16, 32, 64] {
            let gl = GaussLegendre::new(n);
            let s: f64 = gl.weights.iter().sum();
            assert!(approx_eq(s, 2.0, 1e-12), "n={n}: {s}");
        }
    }

    #[test]
    fn gl_exact_for_polynomials() {
        // 5-point rule is exact for degree ≤ 9: ∫_{-1}^{1} x^8 dx = 2/9.
        let gl = GaussLegendre::new(5);
        let v = gl.integrate(-1.0, 1.0, |x| x.powi(8));
        assert!(approx_eq(v, 2.0 / 9.0, 1e-13), "{v}");
    }

    #[test]
    fn gl_odd_polynomials_vanish() {
        let gl = GaussLegendre::new(8);
        let v = gl.integrate(-1.0, 1.0, |x| x.powi(7) + x.powi(3));
        assert!(v.abs() < 1e-14);
    }

    #[test]
    fn gl_integrates_exponential() {
        // ∫_0^1 e^x dx = e − 1.
        let gl = GaussLegendre::new(16);
        let v = gl.integrate(0.0, 1.0, f64::exp);
        assert!(approx_eq(v, std::f64::consts::E - 1.0, 1e-13), "{v}");
    }

    #[test]
    fn gl_nodes_sorted_and_symmetric() {
        let gl = GaussLegendre::new(10);
        for w in gl.nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
        for i in 0..5 {
            assert!(approx_eq(gl.nodes[i], -gl.nodes[9 - i], 1e-14));
        }
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn gl_rejects_zero_order() {
        let _ = GaussLegendre::new(0);
    }
}
