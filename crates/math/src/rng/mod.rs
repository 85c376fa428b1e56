//! Pseudo-random number generation.
//!
//! The pricing engines need three things from an RNG:
//!
//! 1. **Speed** — Monte Carlo draws hundreds of millions of variates.
//! 2. **Reproducibility** — every experiment in the evaluation is seeded,
//!    and the parallel engines must produce results that are independent of
//!    the number of workers (each worker owns a disjoint substream).
//! 3. **Statistical quality** — prices are means of millions of samples, so
//!    equidistribution failures show up directly as bias.
//!
//! [`Xoshiro256StarStar`] is the workhorse: it passes BigCrush, emits one
//! 64-bit word per four xor/rotate ops, and provides `jump()` (2^128 steps)
//! so that P parallel ranks can partition one logical stream into provably
//! disjoint substreams — the same discipline an MPI code of the paper's era
//! would use with SPRNG. [`SplitMix64`] seeds it and derives per-stream
//! keys.

mod normal;
mod splitmix;
mod xoshiro;

pub use normal::{NormalInverse, NormalPolar, NormalSampler};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;

/// A uniform 64-bit pseudo-random source.
///
/// This is the only abstraction the engines program against; everything
/// else (uniform floats, Gaussians, substreams) derives from `next_u64`.
pub trait Rng64 {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform double in `[0, 1)` with 53 random bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform double in the *open* interval `(0, 1)`.
    ///
    /// Guaranteed never to return 0.0 or 1.0 — safe to feed into `ln` or the
    /// inverse normal CDF.
    #[inline]
    fn next_open_f64(&mut self) -> f64 {
        // 53-bit mantissa shifted to the cell centre: (k + 0.5) * 2^-53.
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` without modulo bias
    /// (Lemire's multiply-shift rejection method).
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fill `dst` with uniform doubles in `[0, 1)`.
    fn fill_f64(&mut self, dst: &mut [f64]) {
        for x in dst {
            *x = self.next_f64();
        }
    }
}

/// Generators whose stream can be partitioned into disjoint substreams.
///
/// `substream(k)` must return a generator whose output never overlaps any
/// other substream index for at least 2^64 draws — the property parallel
/// Monte Carlo needs so that the price is independent of the rank count.
pub trait Substreams: Sized {
    /// An independent generator for substream `k` of this stream.
    fn substream(&self, k: u64) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seed_from(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_open_f64_never_hits_endpoints() {
        let mut r = Xoshiro256StarStar::seed_from(2);
        for _ in 0..10_000 {
            let x = r.next_open_f64();
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers_range() {
        let mut r = Xoshiro256StarStar::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_below_unbiased_mean() {
        // Mean of U[0, 1000) is 499.5; with 200k draws the SE is ~0.65.
        let mut r = Xoshiro256StarStar::seed_from(4);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_below(1000) as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 499.5).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn fill_f64_fills_everything() {
        let mut r = Xoshiro256StarStar::seed_from(5);
        let mut buf = vec![-1.0; 257];
        r.fill_f64(&mut buf);
        assert!(buf.iter().all(|&x| (0.0..1.0).contains(&x)));
    }
}
