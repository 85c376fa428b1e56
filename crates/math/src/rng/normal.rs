//! Standard-normal samplers.
//!
//! Two interchangeable methods:
//!
//! * [`NormalPolar`] — Marsaglia's polar method. Exact, rejection-based
//!   (~1.27 uniforms per normal). Its transposed panel fill accepts
//!   candidate pairs without a branch on the draw. The default for
//!   pseudo-random Monte Carlo.
//! * [`NormalInverse`] — inverse-CDF transform. The **only** valid choice
//!   for quasi-Monte Carlo: it is monotone, so it preserves the
//!   low-discrepancy structure of a Sobol' point set, and it consumes
//!   exactly one uniform per normal so dimension assignment is stable.

use super::Rng64;
use crate::fastmath::ln64;
use crate::special::inv_norm_cdf;

/// A source of standard normal variates driven by a [`Rng64`].
pub trait NormalSampler {
    /// Draw one N(0,1) variate.
    fn sample<R: Rng64>(&mut self, rng: &mut R) -> f64;

    /// Fill a slice with N(0,1) variates.
    fn fill<R: Rng64>(&mut self, rng: &mut R, dst: &mut [f64]) {
        for x in dst {
            *x = self.sample(rng);
        }
    }

    /// Fill `count` strided slots `dst[offset + k·stride]`, `k` ascending,
    /// with N(0,1) variates.
    ///
    /// Draws from the RNG in exactly the order [`NormalSampler::fill`]
    /// would for a contiguous slice of length `count` — including any
    /// cached spare carried across calls — so a structure-of-arrays
    /// writer (one path per column of a panel) consumes the identical
    /// variate sequence as the contiguous per-path writer.
    fn fill_strided<R: Rng64>(
        &mut self,
        rng: &mut R,
        dst: &mut [f64],
        offset: usize,
        stride: usize,
        count: usize,
    ) {
        for k in 0..count {
            dst[offset + k * stride] = self.sample(rng);
        }
    }

    /// Fill a transposed panel: draw `n` consecutive paths of `rows`
    /// variates each — the identical RNG order to [`NormalSampler::fill`]
    /// on a contiguous `n·rows` slice — writing path `p`'s draw `k` to
    /// `dst[k·stride + p]` (one path per column).
    ///
    /// This is the batched kernel's entry point: a sampler with a bulk
    /// fast path can amortise its transform over the whole panel and
    /// scatter straight into the structure-of-arrays layout, with no
    /// staging pass.
    fn fill_transposed<R: Rng64>(
        &mut self,
        rng: &mut R,
        dst: &mut [f64],
        stride: usize,
        n: usize,
        rows: usize,
    ) {
        for p in 0..n {
            for k in 0..rows {
                dst[k * stride + p] = self.sample(rng);
            }
        }
    }

    /// Reset any cached state (e.g. the spare variate of a pairwise
    /// method). Call when re-seeding the underlying RNG.
    fn reset(&mut self);
}

/// Marsaglia polar method with one cached spare.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalPolar {
    spare: Option<f64>,
}

impl NormalPolar {
    /// New sampler with no cached spare.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NormalSampler for NormalPolar {
    #[inline]
    fn sample<R: Rng64>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * ln64(s) / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Transposed bulk fill in three phases so the per-pair transform
    /// vectorizes: collect a chunk of accepted `(u, v, s)` tuples
    /// without a branch on the draw, evaluate `f = √(−2·ln s / s)` over
    /// the whole chunk (a loop LLVM turns into SIMD), then scatter each
    /// variate straight to its panel slot `dst[k·stride + p]` — the
    /// `(p, k)` cursor advances in the draw order, so no divisions and
    /// no transpose pass. The RNG draw order, the per-element arithmetic
    /// and the spare-carry are exactly those of repeated
    /// [`NormalSampler::sample`] calls, so the output and the RNG's
    /// state afterwards are bitwise those of the default method.
    fn fill_transposed<R: Rng64>(
        &mut self,
        rng: &mut R,
        dst: &mut [f64],
        stride: usize,
        n: usize,
        rows: usize,
    ) {
        const CHUNK: usize = 256;
        let total = n * rows;
        // The (p, k) write cursor, advanced once per emitted variate.
        let mut p = 0usize;
        let mut k = 0usize;
        let mut emitted = 0usize;
        macro_rules! emit {
            ($z:expr) => {{
                dst[k * stride + p] = $z;
                k += 1;
                if k == rows {
                    k = 0;
                    p += 1;
                }
                emitted += 1;
            }};
        }
        if total < 32 {
            while emitted < total {
                let z = self.sample(rng);
                emit!(z);
            }
            return;
        }
        if let Some(z) = self.spare.take() {
            emit!(z);
        }
        let mut us = [0.0; CHUNK];
        let mut vs = [0.0; CHUNK];
        let mut fs = [0.0; CHUNK];
        while emitted < total {
            let pairs = ((total - emitted).div_ceil(2)).min(CHUNK);
            // Each round draws exactly as many candidate pairs as slots
            // are still empty, stores every candidate at the write index
            // and advances the index only past an accepted one
            // (`0 < s < 1`); a rejected candidate is overwritten by the
            // next. The empty slots need at least that many more
            // candidates, so a one-pair-at-a-time rejection loop draws
            // every one of them too: the RNG advances exactly as there.
            let mut j = 0;
            while j < pairs {
                let lacking = pairs - j;
                for _ in 0..lacking {
                    let u = 2.0 * rng.next_f64() - 1.0;
                    let v = 2.0 * rng.next_f64() - 1.0;
                    let s = u * u + v * v;
                    us[j] = u;
                    vs[j] = v;
                    fs[j] = s;
                    j += usize::from((s > 0.0) & (s < 1.0));
                }
            }
            for f in fs[..pairs].iter_mut() {
                let s = *f;
                *f = (-2.0 * ln64(s) / s).sqrt();
            }
            let whole = pairs.min((total - emitted) / 2);
            for j in 0..whole {
                emit!(us[j] * fs[j]);
                emit!(vs[j] * fs[j]);
            }
            if whole < pairs {
                // Odd tail: the first variate of the last pair goes out,
                // the second becomes the spare, as `sample` does.
                emit!(us[whole] * fs[whole]);
                self.spare = Some(vs[whole] * fs[whole]);
            }
        }
    }

    fn reset(&mut self) {
        self.spare = None;
    }
}

/// Inverse-CDF sampler: `z = Φ⁻¹(u)`.
///
/// Monotone and one-uniform-per-normal; mandatory for QMC.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalInverse;

impl NormalInverse {
    /// New inverse-CDF sampler.
    pub fn new() -> Self {
        NormalInverse
    }

    /// Transform a uniform in (0,1) into a standard normal.
    #[inline]
    pub fn transform(u: f64) -> f64 {
        inv_norm_cdf(u)
    }
}

impl NormalSampler for NormalInverse {
    #[inline]
    fn sample<R: Rng64>(&mut self, rng: &mut R) -> f64 {
        inv_norm_cdf(rng.next_open_f64())
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn moments<S: NormalSampler>(mut s: S, seed: u64, n: usize) -> (f64, f64, f64, f64) {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let (mut m1, mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = s.sample(&mut rng);
            m1 += z;
            m2 += z * z;
            m3 += z * z * z;
            m4 += z * z * z * z;
        }
        let n = n as f64;
        (m1 / n, m2 / n, m3 / n, m4 / n)
    }

    fn check_standard_normal(m: (f64, f64, f64, f64)) {
        // With n = 200k: SE(mean)≈0.0022, SE(var)≈0.0032, SE(skew-num)≈0.009,
        // SE(kurt-num)≈0.022. Use 5-sigma bands.
        assert!(m.0.abs() < 0.012, "mean {}", m.0);
        assert!((m.1 - 1.0).abs() < 0.02, "second moment {}", m.1);
        assert!(m.2.abs() < 0.05, "third moment {}", m.2);
        assert!((m.3 - 3.0).abs() < 0.15, "fourth moment {}", m.3);
    }

    #[test]
    fn polar_moments() {
        check_standard_normal(moments(NormalPolar::new(), 1, 200_000));
    }

    #[test]
    fn inverse_moments() {
        check_standard_normal(moments(NormalInverse::new(), 3, 200_000));
    }

    #[test]
    fn inverse_is_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let u = i as f64 / 1000.0;
            let z = NormalInverse::transform(u);
            assert!(z > prev, "Φ⁻¹ must be strictly increasing");
            prev = z;
        }
    }

    #[test]
    fn tail_probabilities_roughly_correct() {
        // P(|Z| > 1.96) ≈ 0.05.
        let mut s = NormalPolar::new();
        let mut rng = Xoshiro256StarStar::seed_from(9);
        let n = 100_000;
        let tail = (0..n)
            .filter(|_| s.sample(&mut rng).abs() > 1.959964)
            .count();
        let frac = tail as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.005, "tail fraction {frac}");
    }

    #[test]
    fn polar_bulk_fill_is_bitwise_equal_to_repeated_sample() {
        // The three-phase bulk fill, laid out as one path of `len` draws,
        // must reproduce the exact variate stream of repeated sample()
        // calls — odd lengths, zero-length calls, calls on either side of
        // the small-fill threshold and the spare carried across calls
        // included.
        for lens in [vec![7usize, 1, 0, 12, 3], vec![513, 2, 255, 33], vec![1]] {
            let mut a = NormalPolar::new();
            let mut rng_a = Xoshiro256StarStar::seed_from(99);
            let mut b = NormalPolar::new();
            let mut rng_b = Xoshiro256StarStar::seed_from(99);
            for len in lens {
                let mut via_fill = vec![0.0; len];
                a.fill_transposed(&mut rng_a, &mut via_fill, 1, 1, len);
                let via_sample: Vec<f64> = (0..len).map(|_| b.sample(&mut rng_b)).collect();
                for (x, y) in via_fill.iter().zip(&via_sample) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn polar_fills_advance_the_rng_exactly_as_repeated_sample() {
        // Comparing variates alone would miss a fill that drew one
        // candidate pair too many; the RNG's next u64, and the spare the
        // sampler keeps, must be those of repeated sample() calls too.
        // Lengths straddle the 32-variate small-fill threshold and the
        // 256-pair chunk, with and without a spare carried in. `fill`
        // itself is the trait's repeated `sample`.
        let bits = |v: &[f64]| v.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
        for len in [1usize, 31, 32, 255, 256, 257, 513] {
            for carry in [false, true] {
                let seed = 2 * len as u64 + u64::from(carry);
                let mut oracle = NormalPolar::new();
                let mut rng_o = Xoshiro256StarStar::seed_from(seed);
                if carry {
                    oracle.sample(&mut rng_o);
                }
                let want: Vec<f64> = (0..len).map(|_| oracle.sample(&mut rng_o)).collect();
                let after = (rng_o.next_u64(), oracle.sample(&mut rng_o).to_bits());
                // `fill_transposed` as one row of `len` paths and as one
                // path of `len` rows.
                for (n, rows) in [(len, 1), (1, len)] {
                    let mut s = NormalPolar::new();
                    let mut rng = Xoshiro256StarStar::seed_from(seed);
                    if carry {
                        s.sample(&mut rng);
                    }
                    let mut got = vec![0.0; len];
                    s.fill_transposed(&mut rng, &mut got, n, n, rows);
                    let ctx = format!("len {len} carry {carry} paths {n} rows {rows}");
                    assert_eq!(bits(&got), bits(&want), "{ctx}");
                    let next = (rng.next_u64(), s.sample(&mut rng).to_bits());
                    assert_eq!(next, after, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn fill_strided_matches_contiguous_fill() {
        // Column-major panel fill must consume the same draw sequence as
        // per-path contiguous fills, spare carry-over included.
        let (paths, count) = (5usize, 7usize);
        let mut a = NormalPolar::new();
        let mut rng_a = Xoshiro256StarStar::seed_from(11);
        let mut contiguous = vec![0.0; paths * count];
        for p in 0..paths {
            a.fill(&mut rng_a, &mut contiguous[p * count..(p + 1) * count]);
        }
        let mut b = NormalPolar::new();
        let mut rng_b = Xoshiro256StarStar::seed_from(11);
        let mut panel = vec![0.0; paths * count];
        for p in 0..paths {
            b.fill_strided(&mut rng_b, &mut panel, p, paths, count);
        }
        for p in 0..paths {
            for k in 0..count {
                assert_eq!(
                    contiguous[p * count + k].to_bits(),
                    panel[k * paths + p].to_bits(),
                    "path {p} draw {k}"
                );
            }
        }
    }

    #[test]
    fn fill_transposed_matches_contiguous_fill() {
        // The scatter fill must consume the same draw sequence as
        // per-path contiguous fills, spare carry-over across calls
        // included. Covers both the bulk path (n·rows ≥ 32) and the
        // small-fill fallback, plus a stride wider than n.
        for (n, rows, stride) in [(5usize, 7usize, 5usize), (3, 2, 8), (64, 10, 64)] {
            let mut a = NormalPolar::new();
            let mut rng_a = Xoshiro256StarStar::seed_from(17);
            let mut contiguous = vec![0.0; 2 * n * rows];
            for p in 0..2 * n {
                a.fill(&mut rng_a, &mut contiguous[p * rows..(p + 1) * rows]);
            }
            let mut b = NormalPolar::new();
            let mut rng_b = Xoshiro256StarStar::seed_from(17);
            let mut panel = vec![0.0; rows * stride];
            // Two back-to-back panel fills so an odd tail's spare carries.
            for half in 0..2 {
                b.fill_transposed(&mut rng_b, &mut panel, stride, n, rows);
                for p in 0..n {
                    for k in 0..rows {
                        assert_eq!(
                            contiguous[(half * n + p) * rows + k].to_bits(),
                            panel[k * stride + p].to_bits(),
                            "n={n} rows={rows} half={half} path {p} draw {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_clears_spare() {
        let mut s = NormalPolar::new();
        let mut rng = Xoshiro256StarStar::seed_from(4);
        let _ = s.sample(&mut rng);
        s.reset();
        // After reset the sampler must not replay the cached spare: two
        // freshly seeded runs agree only if state was fully cleared.
        let mut s2 = NormalPolar::new();
        let mut rng2 = Xoshiro256StarStar::seed_from(5);
        let mut rng3 = Xoshiro256StarStar::seed_from(5);
        let a = s.sample(&mut rng2);
        let b = s2.sample(&mut rng3);
        assert_eq!(a, b);
    }
}
