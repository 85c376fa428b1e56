//! Mergeable accumulators for plain and control-variate estimation.
//!
//! Parallel drivers reduce accumulators, never samples. Everything here
//! merges by **element-wise addition** over a fixed-width vector, so a
//! distributed reduction gathers the per-block vectors to one rank,
//! adds them there in global block order and broadcasts the sum — the
//! reduction of the original codes' `MPI_Allreduce(MPI_SUM)`, in an
//! order that does not depend on the rank count.

/// Sums for an estimator with an optional control variate:
/// primary sample `y` (discounted payoff) and control `x` with known
/// mean. Without a control, the `x` fields stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockAccum {
    /// Sample count.
    pub n: f64,
    /// Σy.
    pub sum_y: f64,
    /// Σy².
    pub sum_yy: f64,
    /// Σx.
    pub sum_x: f64,
    /// Σx².
    pub sum_xx: f64,
    /// Σxy.
    pub sum_xy: f64,
}

/// Width of the flattened representation.
pub const ACCUM_WIDTH: usize = 6;

/// Blocks per merge chunk of the canonical reduction order (see
/// [`merge_in_chunks`]).
pub const MERGE_CHUNK: usize = 64;

/// Reduce per-block accumulators in the **canonical two-level order**:
/// left-fold each run of [`MERGE_CHUNK`] consecutive blocks, then
/// left-fold the chunk totals.
///
/// Floating-point addition is order-sensitive, so every driver —
/// sequential, rayon, message-passing — must associate the reduction the
/// same way to stay bitwise identical. Two levels (rather than one flat
/// fold) let the parallel drivers materialise only `⌈blocks/64⌉` chunk
/// accumulators instead of one per block. The cluster driver folds its
/// gathered blocks here; `McPlan`'s block sweep runs the same fold one
/// chunk at a time.
pub fn merge_in_chunks<I: IntoIterator<Item = BlockAccum>>(accs: I) -> BlockAccum {
    let mut total = BlockAccum::new();
    let mut chunk = BlockAccum::new();
    let mut in_chunk = 0usize;
    for a in accs {
        chunk.merge(&a);
        in_chunk += 1;
        if in_chunk == MERGE_CHUNK {
            total.merge(&chunk);
            chunk = BlockAccum::new();
            in_chunk = 0;
        }
    }
    if in_chunk > 0 {
        total.merge(&chunk);
    }
    total
}

impl BlockAccum {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a primary-only sample.
    #[inline]
    pub fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum_y += y;
        self.sum_yy += y * y;
    }

    /// Add a (primary, control) pair.
    #[inline]
    pub fn push_cv(&mut self, y: f64, x: f64) {
        self.push(y);
        self.sum_x += x;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    /// Merge by summation (exact).
    pub fn merge(&mut self, o: &BlockAccum) {
        self.n += o.n;
        self.sum_y += o.sum_y;
        self.sum_yy += o.sum_yy;
        self.sum_x += o.sum_x;
        self.sum_xx += o.sum_xx;
        self.sum_xy += o.sum_xy;
    }

    /// Flatten for message passing.
    pub fn to_vec(&self) -> [f64; ACCUM_WIDTH] {
        [
            self.n,
            self.sum_y,
            self.sum_yy,
            self.sum_x,
            self.sum_xx,
            self.sum_xy,
        ]
    }

    /// Rebuild from the flattened representation.
    pub fn from_slice(v: &[f64]) -> Self {
        assert_eq!(v.len(), ACCUM_WIDTH);
        BlockAccum {
            n: v[0],
            sum_y: v[1],
            sum_yy: v[2],
            sum_x: v[3],
            sum_xx: v[4],
            sum_xy: v[5],
        }
    }

    /// Plain estimate: `(mean, standard error)` of `y`.
    pub fn plain_estimate(&self) -> (f64, f64) {
        if self.n < 1.0 {
            return (0.0, 0.0);
        }
        let mean = self.sum_y / self.n;
        if self.n < 2.0 {
            return (mean, 0.0);
        }
        let var = (self.sum_yy - self.n * mean * mean) / (self.n - 1.0);
        (mean, (var.max(0.0) / self.n).sqrt())
    }

    /// Control-variate estimate given the exact control mean `mu_x`:
    /// `mean_y − β(mean_x − μx)` with `β = Cov(y,x)/Var(x)` estimated
    /// from the same sample, and the asymptotic standard error
    /// `√((var_y − cov²/var_x)/n)`.
    pub fn cv_estimate(&self, mu_x: f64) -> (f64, f64) {
        if self.n < 2.0 {
            return self.plain_estimate();
        }
        let n = self.n;
        let mean_y = self.sum_y / n;
        let mean_x = self.sum_x / n;
        let var_y = (self.sum_yy - n * mean_y * mean_y) / (n - 1.0);
        let var_x = (self.sum_xx - n * mean_x * mean_x) / (n - 1.0);
        let cov = (self.sum_xy - n * mean_x * mean_y) / (n - 1.0);
        if var_x <= 0.0 {
            return self.plain_estimate();
        }
        let beta = cov / var_x;
        let est = mean_y - beta * (mean_x - mu_x);
        let resid_var = (var_y - cov * cov / var_x).max(0.0);
        (est, (resid_var / n).sqrt())
    }

    /// Variance-reduction factor achieved by the control
    /// (`Var_plain / Var_cv`; ≥ 1 when the control helps).
    pub fn cv_variance_ratio(&self) -> f64 {
        if self.n < 2.0 {
            return 1.0;
        }
        let n = self.n;
        let mean_y = self.sum_y / n;
        let mean_x = self.sum_x / n;
        let var_y = (self.sum_yy - n * mean_y * mean_y) / (n - 1.0);
        let var_x = (self.sum_xx - n * mean_x * mean_x) / (n - 1.0);
        let cov = (self.sum_xy - n * mean_x * mean_y) / (n - 1.0);
        if var_x <= 0.0 || var_y <= 0.0 {
            return 1.0;
        }
        let rho2 = (cov * cov) / (var_x * var_y);
        1.0 / (1.0 - rho2.min(0.999_999))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;

    #[test]
    fn plain_estimate_matches_hand_calc() {
        let mut a = BlockAccum::new();
        for y in [1.0, 2.0, 3.0, 4.0] {
            a.push(y);
        }
        let (m, se) = a.plain_estimate();
        assert!(approx_eq(m, 2.5, 1e-15));
        // var = 5/3; se = sqrt(5/12).
        assert!(approx_eq(se, (5.0f64 / 12.0).sqrt(), 1e-12));
    }

    #[test]
    fn merge_is_concatenation() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut whole = BlockAccum::new();
        for &y in &data {
            whole.push_cv(y, y * y);
        }
        let mut a = BlockAccum::new();
        let mut b = BlockAccum::new();
        for &y in &data[..20] {
            a.push_cv(y, y * y);
        }
        for &y in &data[20..] {
            b.push_cv(y, y * y);
        }
        a.merge(&b);
        assert!(approx_eq(a.sum_xy, whole.sum_xy, 1e-12));
        assert_eq!(a.n, whole.n);
    }

    #[test]
    fn chunked_merge_matches_explicit_two_level_fold() {
        let blocks: Vec<BlockAccum> = (0..200)
            .map(|i| {
                let mut a = BlockAccum::new();
                a.push_cv((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos());
                a
            })
            .collect();
        let got = merge_in_chunks(blocks.iter().copied());
        let mut want = BlockAccum::new();
        for group in blocks.chunks(MERGE_CHUNK) {
            let mut chunk = BlockAccum::new();
            for a in group {
                chunk.merge(a);
            }
            want.merge(&chunk);
        }
        assert_eq!(got.sum_y.to_bits(), want.sum_y.to_bits());
        assert_eq!(got.sum_xy.to_bits(), want.sum_xy.to_bits());
        assert_eq!(got.n, want.n);
    }

    #[test]
    fn roundtrip_flattening() {
        let mut a = BlockAccum::new();
        a.push_cv(1.5, 2.5);
        a.push_cv(-0.5, 0.5);
        let b = BlockAccum::from_slice(&a.to_vec());
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_control_removes_all_variance() {
        // x == y with known mean ⇒ estimator is exact, SE → 0.
        let mut a = BlockAccum::new();
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let mu = data.iter().sum::<f64>() / 6.0;
        for &y in &data {
            a.push_cv(y, y);
        }
        let (est, se) = a.cv_estimate(mu);
        assert!(approx_eq(est, mu, 1e-12));
        assert!(se < 1e-9, "{se}");
        assert!(a.cv_variance_ratio() > 1e5);
    }

    #[test]
    fn uncorrelated_control_is_harmless() {
        let mut a = BlockAccum::new();
        // y alternates; x constant-ish uncorrelated pattern.
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let xs = [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        for (y, x) in ys.iter().zip(&xs) {
            a.push_cv(*y, *x);
        }
        let (p_est, p_se) = a.plain_estimate();
        let (c_est, c_se) = a.cv_estimate(0.0);
        assert!(approx_eq(p_est, c_est, 1e-12));
        assert!((c_se - p_se).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_sample_safe() {
        let a = BlockAccum::new();
        assert_eq!(a.plain_estimate(), (0.0, 0.0));
        assert_eq!(a.cv_estimate(1.0), (0.0, 0.0));
        let mut b = BlockAccum::new();
        b.push(5.0);
        assert_eq!(b.plain_estimate(), (5.0, 0.0));
    }
}
