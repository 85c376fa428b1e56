//! xoshiro256** 1.0 (Blackman & Vigna 2018) with polynomial jumps.
//!
//! The period is 2^256 − 1. `jump()` advances 2^128 steps and `long_jump()`
//! 2^192 steps, which lets a parallel driver hand rank *k* the substream
//! starting at offset k·2^128 — disjoint for any realistic draw count, so a
//! Monte Carlo price is identical no matter how the paths are distributed
//! over ranks.

use super::{Rng64, SplitMix64, Substreams};

/// xoshiro256** generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// Jump polynomial for 2^128 steps (from the reference implementation).
const JUMP: [u64; 4] = [
    0x180EC6D33CFD0ABA,
    0xD5A61266F0C9392C,
    0xA9582618E03FC9AA,
    0x39ABDC4529B1661C,
];

/// Jump polynomial for 2^192 steps.
const LONG_JUMP: [u64; 4] = [
    0x76E15D3EFEFDCBBF,
    0xC5004E441C522FB3,
    0x77710069854EE241,
    0x39109BB02ACBE635,
];

impl Xoshiro256StarStar {
    /// Seed the 256-bit state by expanding `seed` through SplitMix64,
    /// the initialisation recommended by the authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive anyway.
        if s == [0, 0, 0, 0] {
            return Xoshiro256StarStar { s: [1, 2, 3, 4] };
        }
        Xoshiro256StarStar { s }
    }

    /// Construct directly from a full 256-bit state (must not be all zero).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "xoshiro256** state must not be all-zero");
        Xoshiro256StarStar { s }
    }

    #[inline]
    fn advance(&mut self) {
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
    }

    fn apply_jump(&mut self, poly: &[u64; 4]) {
        let mut acc = [0u64; 4];
        for &word in poly {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    acc[0] ^= self.s[0];
                    acc[1] ^= self.s[1];
                    acc[2] ^= self.s[2];
                    acc[3] ^= self.s[3];
                }
                self.advance();
            }
        }
        self.s = acc;
    }

    /// Advance 2^128 steps in O(256) work.
    pub fn jump(&mut self) {
        self.apply_jump(&JUMP);
    }

    /// Advance 2^192 steps in O(256) work.
    pub fn long_jump(&mut self) {
        self.apply_jump(&LONG_JUMP);
    }

    /// The start states of substreams `0..n`, in order: entry `k` is
    /// bitwise [`Substreams::substream`]`(k)`. Each entry is one jump
    /// past the previous, so the table costs `n − 1` jumps where a
    /// `substream(k)` call per entry would cost `n(n − 1)/2`.
    pub fn substreams(&self, n: u64) -> Vec<Self> {
        let mut next = *self;
        (0..n)
            .map(|k| {
                if k > 0 {
                    next.jump();
                }
                next
            })
            .collect()
    }
}

impl Rng64 for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.advance();
        result
    }
}

impl Substreams for Xoshiro256StarStar {
    /// Substream `k` starts k·2^128 steps into the parent stream, so
    /// substreams are *provably* non-overlapping (each is 2^128 long).
    ///
    /// Cost is O(k): k jumps of 256 state updates each. The callers are
    /// Monte Carlo drivers whose `k` is a block or stratum id, so a run
    /// must not call this once per block (B blocks would cost B²/2
    /// jumps). A driver reaches block `b` with one seek plus at most one
    /// jump per block it simulates: a sequential loop keeps the next
    /// block's state and jumps it once per block, and drivers that hand
    /// blocks out index the table [`Xoshiro256StarStar::substreams`]
    /// builds once per run with `B − 1` jumps.
    fn substream(&self, k: u64) -> Self {
        let mut g = *self;
        for _ in 0..k {
            g.jump();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the public-domain xoshiro256** C code with
    /// state {1, 2, 3, 4}.
    #[test]
    fn known_answer_vector() {
        let mut r = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for &e in &expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn jump_skips_disjoint_blocks() {
        // After jump(), the next outputs must differ from the parent's
        // first outputs and a double jump must equal two single jumps.
        let base = Xoshiro256StarStar::seed_from(7);
        let mut a = base;
        a.jump();
        let mut b = base;
        b.jump();
        b.jump();
        let mut a2 = a;
        a2.jump();
        assert_eq!(a2, b);
        let mut parent = base;
        let first: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let mut jumped = a;
        let jumped_first: Vec<u64> = (0..8).map(|_| jumped.next_u64()).collect();
        assert_ne!(first, jumped_first);
    }

    #[test]
    fn long_jump_differs_from_jump() {
        let base = Xoshiro256StarStar::seed_from(8);
        let mut a = base;
        a.jump();
        let mut b = base;
        b.long_jump();
        assert_ne!(a, b);
    }

    #[test]
    fn substreams_are_distinct_and_deterministic() {
        let base = Xoshiro256StarStar::seed_from(9);
        let mut s0 = base.substream(0);
        let mut s1 = base.substream(1);
        let mut s2 = base.substream(2);
        let o0: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let o1: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        let o2: Vec<u64> = (0..16).map(|_| s2.next_u64()).collect();
        assert_ne!(o0, o1);
        assert_ne!(o1, o2);
        assert_ne!(o0, o2);
        let mut s1b = base.substream(1);
        let o1b: Vec<u64> = (0..16).map(|_| s1b.next_u64()).collect();
        assert_eq!(o1, o1b);
    }

    #[test]
    fn substream_table_matches_direct_seeks() {
        let base = Xoshiro256StarStar::seed_from(10);
        let table = base.substreams(257);
        assert_eq!(table.len(), 257);
        for k in [0u64, 1, 2, 255, 256] {
            assert_eq!(table[k as usize], base.substream(k), "substream {k}");
        }
        assert!(base.substreams(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256StarStar::from_state([0, 0, 0, 0]);
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut r = Xoshiro256StarStar::seed_from(123);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }
}
