//! Cache-oblivious trapezoidal decomposition of the explicit (θ = 0)
//! finite-difference sweep.
//!
//! The step-by-step explicit sweep streams the whole grid through the
//! cache once per time level: for grids past last-level cache it moves
//! `16·M` bytes per step and the kernel is memory-bound. The
//! Frigo–Strumpen trapezoid algorithm instead recurses over time-space
//! trapezoids
//!
//! ```text
//! { (t, x) : t0 ≤ t < t1,  x0 + ẋ0·(t−t0) ≤ x < x1 + ẋ1·(t−t0) }
//! ```
//!
//! cutting in **space** when a trapezoid is wide (`2·w + (ẋ1−ẋ0)·h ≥
//! 4·h`, midpoint cut with slope −1, left piece first) and in **time**
//! (bottom half first) otherwise. Base trapezoids are a few rows tall
//! and at most a few hundred points wide, so every point loaded into L1
//! is advanced many time levels before eviction: the sweep becomes
//! compute-bound and asymptotically moves `O(M·N / cache)` lines
//! instead of `O(M·N)`.
//!
//! Because processing point `(t, x)` computes the level-`t+1` value at
//! `x` from the level-`t` values at `x−1, x, x+1`, a slope `−1` cut
//! line exactly matches the stencil's dependency cone: the left piece
//! never reads a right-piece value, and the recursion visits every
//! point in a dependency-respecting order. The per-point expression is
//! the **same arithmetic** the step-by-step sweep uses
//! (`explicit_point`, shared with both distributed cluster drivers),
//! so the reordering is across independent work only and results are
//! **bitwise identical** to the retained oracle
//! ([`Fd1dPlan::execute_step_by_step`](crate::Fd1dPlan::execute_step_by_step)).
//!
//! **American options (nonlinear stencil).** Early exercise adds the
//! pointwise projection `V ← max(V, intrinsic)` after each update — the
//! nonlinear stencil of the fast American-pricing literature (arXiv
//! 2303.02317). The projection does not enlarge the dependency cone
//! (the exercise front moves at most one cell per step under the CFL
//! bound, inside the slope-1 light cone the cuts already respect), so
//! the same walk/cut rules stay valid: the base case simply fuses the
//! `max` into the update of each point, which is exactly the value the
//! oracle's step-level projection pass produces. Dirichlet boundary
//! rows depend only on the time level (discounted intrinsic from a
//! precomputed per-level table built with the oracle's expression), so
//! they join the trapezoid domain as slope-0 walls.

/// One explicit-Euler grid-point update `v + Δt·(a·v₋ + b·v + c·v₊)`.
///
/// Shared by the trapezoid base case and both distributed cluster
/// drivers so every explicit path performs the identical per-point
/// expression. (The sequential step-by-step oracle keeps its θ-generic
/// form `v + (1−θ)·Δt·(…)`, which at θ = 0 reduces to this expression
/// exactly: `(1.0 − 0.0) * dt` is `dt` bit for bit.)
#[inline(always)]
pub(crate) fn explicit_point(dt: f64, a: f64, b: f64, c: f64, vm: f64, v0: f64, vp: f64) -> f64 {
    v0 + dt * (a * vm + b * v0 + c * vp)
}

/// Height below which a trapezoid is swept level-by-level instead of
/// being cut further: ≤ 32 rows of at most a few hundred points stay L1
/// resident, and the direct double loop amortises the recursion.
const BASE_HEIGHT: isize = 32;

/// Payoff-dependent inputs of one trapezoidal explicit sweep. The two
/// parity buffers are passed to [`TrapezoidSweep::run`]; level `t` of
/// the solution lives in the even buffer when `t` is even.
pub(crate) struct TrapezoidSweep<'a> {
    /// Grid points per level.
    pub m: usize,
    /// Time-step size Δτ.
    pub dt: f64,
    /// Lower-diagonal operator coefficient.
    pub a: f64,
    /// Diagonal operator coefficient.
    pub b: f64,
    /// Upper-diagonal operator coefficient.
    pub c: f64,
    /// Intrinsic payoff on the grid (projection floor + boundary data).
    pub intrinsic: &'a [f64],
    /// `df[t] = exp(−r·t·Δτ)`, the level-`t` Dirichlet discount factor,
    /// precomputed with the oracle's per-step expression.
    pub df: &'a [f64],
    /// Apply the early-exercise projection after each point update.
    pub american: bool,
    /// Cooperative cancellation, polled at recursion cuts (never in the
    /// L1-resident base case). Partial buffers are discarded on abort,
    /// so completed sweeps stay bitwise-identical.
    pub cancel: &'a mdp_math::CancelToken,
}

impl TrapezoidSweep<'_> {
    /// Advance `n` time levels. `even` holds level 0 on entry; on exit
    /// the level-`n` surface is in `even` when `n` is even, else in
    /// `odd`. Returns `false` when the cancel token tripped mid-sweep
    /// (the buffers then hold a partial, unusable surface).
    #[must_use]
    pub fn run(&self, n: usize, even: &mut [f64], odd: &mut [f64]) -> bool {
        debug_assert_eq!(even.len(), self.m);
        debug_assert_eq!(odd.len(), self.m);
        debug_assert!(self.df.len() > n);
        self.walk(0, n as isize, 0, 0, self.m as isize, 0, even, odd)
    }

    /// Frigo–Strumpen walk over the trapezoid with bottom row
    /// `[x0, x1)` at level `t0`, top at level `t1`, and edge slopes
    /// `dx0`/`dx1` (grid cells per time level, always 0 or −1 here).
    /// Returns `false` when the walk was aborted by the cancel token.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        t0: isize,
        t1: isize,
        x0: isize,
        dx0: isize,
        x1: isize,
        dx1: isize,
        even: &mut [f64],
        odd: &mut [f64],
    ) -> bool {
        let h = t1 - t0;
        if h <= 0 {
            return true;
        }
        if h <= BASE_HEIGHT {
            // Base case: level-by-level over the (small) trapezoid —
            // the same row kernel the step-by-step sweep is built from,
            // now running on an L1-resident working set.
            for t in t0..t1 {
                let y = t - t0;
                self.row(t, x0 + dx0 * y, x1 + dx1 * y, even, odd);
            }
            return true;
        }
        // Poll only at cut nodes: the hot base case stays check-free,
        // and the abort granularity is at most BASE_HEIGHT rows.
        if self.cancel.is_cancelled() {
            return false;
        }
        if 2 * (x1 - x0) + (dx1 - dx0) * h >= 4 * h {
            // Wide: space cut through the midpoint with slope −1. The
            // left piece is closed under the stencil's dependencies, so
            // it runs to completion first.
            let xm = (2 * (x0 + x1) + (2 + dx0 + dx1) * h) / 4;
            self.walk(t0, t1, x0, dx0, xm, -1, even, odd)
                && self.walk(t0, t1, xm, -1, x1, dx1, even, odd)
        } else {
            // Tall: time cut, bottom half first.
            let s = h / 2;
            self.walk(t0, t0 + s, x0, dx0, x1, dx1, even, odd)
                && self.walk(t0 + s, t1, x0 + dx0 * s, dx0, x1 + dx1 * s, dx1, even, odd)
        }
    }

    /// Compute the level-`t+1` values at `x ∈ [lo, hi)` from level `t`.
    fn row(&self, t: isize, lo: isize, hi: isize, even: &mut [f64], odd: &mut [f64]) {
        if t & 1 == 0 {
            self.row_src_dst(t, lo, hi, even, odd);
        } else {
            self.row_src_dst(t, lo, hi, odd, even);
        }
    }

    fn row_src_dst(&self, t: isize, lo: isize, hi: isize, src: &[f64], dst: &mut [f64]) {
        let m = self.m;
        let (mut lo, mut hi) = (lo.max(0) as usize, (hi.max(0) as usize).min(m));
        if lo >= hi {
            return;
        }
        // Dirichlet walls: discounted intrinsic at the new level, the
        // oracle's boundary expression with the level discount read
        // from the precomputed table.
        let dfp = self.df[(t + 1) as usize];
        if lo == 0 {
            let b = dfp * self.intrinsic[0];
            dst[0] = if self.american {
                self.intrinsic[0].max(b)
            } else {
                b
            };
            lo = 1;
        }
        if hi == m {
            let b = dfp * self.intrinsic[m - 1];
            dst[m - 1] = if self.american {
                self.intrinsic[m - 1].max(b)
            } else {
                b
            };
            hi = m - 1;
        }
        let (dt, a, b, c) = (self.dt, self.a, self.b, self.c);
        if self.american {
            // Nonlinear stencil: the projection is fused into the point
            // update. `max` is idempotent, so this equals the oracle's
            // separate post-step projection pass bit for bit.
            let intr = self.intrinsic;
            for x in lo..hi {
                dst[x] = explicit_point(dt, a, b, c, src[x - 1], src[x], src[x + 1]).max(intr[x]);
            }
        } else {
            for x in lo..hi {
                dst[x] = explicit_point(dt, a, b, c, src[x - 1], src[x], src[x + 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: plain level-by-level sweep with the same per-point
    /// kernel.
    fn step_by_step(sweep: &TrapezoidSweep, n: usize, level0: &[f64]) -> Vec<f64> {
        let m = sweep.m;
        let mut v = level0.to_vec();
        let mut next = vec![0.0; m];
        for t in 0..n {
            let dfp = sweep.df[t + 1];
            for x in 0..m {
                next[x] = if x == 0 || x == m - 1 {
                    let b = dfp * sweep.intrinsic[x];
                    if sweep.american {
                        sweep.intrinsic[x].max(b)
                    } else {
                        b
                    }
                } else {
                    let e = explicit_point(
                        sweep.dt,
                        sweep.a,
                        sweep.b,
                        sweep.c,
                        v[x - 1],
                        v[x],
                        v[x + 1],
                    );
                    if sweep.american {
                        e.max(sweep.intrinsic[x])
                    } else {
                        e
                    }
                };
            }
            std::mem::swap(&mut v, &mut next);
        }
        v
    }

    #[test]
    fn tripped_token_aborts_recursive_sweeps() {
        let m = 128usize;
        let intrinsic: Vec<f64> = (0..m).map(|i| (i as f64 - 40.0).max(0.0)).collect();
        let token = mdp_math::CancelToken::new();
        token.cancel();
        let n = 100usize;
        let dt = 0.4 / n as f64;
        let df: Vec<f64> = (0..=n).map(|t| (-0.05 * t as f64 * dt).exp()).collect();
        let sweep = TrapezoidSweep {
            m,
            dt,
            a: 0.23,
            b: -0.58,
            c: 0.31,
            intrinsic: &intrinsic,
            df: &df,
            american: false,
            cancel: &token,
        };
        let mut even = intrinsic.clone();
        let mut odd = vec![0.0; m];
        // Tall enough to recurse ⇒ the cut-node poll sees the trip.
        assert!(!sweep.run(n, &mut even, &mut odd));
        // At or below BASE_HEIGHT there are no cut nodes: the sweep is
        // one L1-resident base case and runs to completion unchecked.
        let mut even = intrinsic.clone();
        assert!(sweep.run(super::BASE_HEIGHT as usize, &mut even, &mut odd));
    }

    #[test]
    fn trapezoid_matches_level_sweep_bitwise() {
        // Sizes chosen to exercise both cut rules and both final
        // parities, including heights well past BASE_HEIGHT.
        for (m, n) in [(3usize, 1usize), (7, 5), (33, 64), (128, 100), (401, 257)] {
            for american in [false, true] {
                let intrinsic: Vec<f64> = (0..m)
                    .map(|i| ((i as f64) - m as f64 / 3.0).max(0.0))
                    .collect();
                let dt = 0.4 / n as f64;
                let df: Vec<f64> = (0..=n).map(|t| (-0.05 * t as f64 * dt).exp()).collect();
                let never = mdp_math::CancelToken::never();
                let sweep = TrapezoidSweep {
                    m,
                    dt,
                    a: 0.23,
                    b: -0.58,
                    c: 0.31,
                    intrinsic: &intrinsic,
                    df: &df,
                    american,
                    cancel: &never,
                };
                let expected = step_by_step(&sweep, n, &intrinsic);
                let mut even = intrinsic.clone();
                let mut odd = vec![0.0; m];
                assert!(sweep.run(n, &mut even, &mut odd));
                let got = if n % 2 == 0 { &even } else { &odd };
                for (x, (g, e)) in got.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "m={m} n={n} american={american} x={x}"
                    );
                }
            }
        }
    }
}
