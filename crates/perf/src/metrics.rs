//! Elementary parallel-performance metrics.

/// Speedup `S(p) = T(1)/T(p)`.
///
/// # Panics
/// Panics on non-positive times.
pub fn speedup(t1: f64, tp: f64) -> f64 {
    assert!(t1 > 0.0 && tp > 0.0, "times must be positive");
    t1 / tp
}

/// Efficiency `E(p) = S(p)/p`.
pub fn efficiency(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 0);
    speedup(t1, tp) / p as f64
}

/// Karp–Flatt experimentally determined serial fraction:
/// `e = (1/S − 1/p) / (1 − 1/p)` for `p > 1`.
///
/// A flat `e` across p indicates a genuinely serial component; a growing
/// `e` exposes overheads rising with p (communication, imbalance).
pub fn karp_flatt(t1: f64, tp: f64, p: usize) -> f64 {
    assert!(p > 1, "Karp–Flatt needs p > 1");
    let s = speedup(t1, tp);
    let pf = p as f64;
    (1.0 / s - 1.0 / pf) / (1.0 - 1.0 / pf)
}

/// Exact empirical percentile by the **nearest-rank** definition: for
/// `0 < p ≤ 100` over `n` sorted samples, the value at rank
/// `⌈p/100 · n⌉` (1-based). `p = 0` returns the minimum.
///
/// Nearest-rank always returns an *observed* sample — no interpolation
/// surprises, no values that never occurred — which is what a latency
/// report should quote. `sorted` must be ascending (checked in debug
/// builds only).
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted ascending"
    );
    if p == 0.0 {
        return sorted[0];
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The latency quantiles a service report quotes, computed exactly by
/// [`percentile_nearest_rank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Maximum observed sample.
    pub max: f64,
}

/// Summarise a sample set (sorts `samples` in place).
///
/// # Panics
/// Panics on an empty slice.
pub fn latency_summary(samples: &mut [f64]) -> LatencySummary {
    assert!(!samples.is_empty(), "summary of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
    LatencySummary {
        n: samples.len(),
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        p50: percentile_nearest_rank(samples, 50.0),
        p90: percentile_nearest_rank(samples, 90.0),
        p99: percentile_nearest_rank(samples, 99.0),
        max: samples[samples.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_scaling() {
        assert_eq!(speedup(8.0, 1.0), 8.0);
        assert_eq!(efficiency(8.0, 1.0, 8), 1.0);
        assert!(karp_flatt(8.0, 1.0, 8).abs() < 1e-15);
    }

    #[test]
    fn no_scaling() {
        assert_eq!(speedup(4.0, 4.0), 1.0);
        assert_eq!(efficiency(4.0, 4.0, 4), 0.25);
        assert!((karp_flatt(4.0, 4.0, 4) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn karp_flatt_recovers_amdahl_fraction() {
        // Construct T(p) from Amdahl with serial fraction 0.2 and verify
        // Karp–Flatt returns exactly 0.2 at every p.
        let f = 0.2;
        let t1 = 10.0;
        for p in [2usize, 4, 8, 16] {
            let tp = t1 * (f + (1.0 - f) / p as f64);
            let e = karp_flatt(t1, tp, p);
            assert!((e - f).abs() < 1e-12, "p={p}: {e}");
        }
    }

    #[test]
    fn superlinear_gives_negative_serial_fraction() {
        let e = karp_flatt(10.0, 1.0, 8); // speedup 10 > 8
        assert!(e < 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_time() {
        let _ = speedup(0.0, 1.0);
    }

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        // n = 4: rank(50) = ⌈2⌉ = 2 → second sample, NOT the 2.5
        // interpolation would give.
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_nearest_rank(&s, 50.0), 2.0);
        assert_eq!(percentile_nearest_rank(&s, 25.0), 1.0);
        assert_eq!(percentile_nearest_rank(&s, 75.0), 3.0);
        assert_eq!(percentile_nearest_rank(&s, 100.0), 4.0);
        assert_eq!(percentile_nearest_rank(&s, 0.0), 1.0);
        // Tiny p still lands on the first observed sample.
        assert_eq!(percentile_nearest_rank(&s, 0.1), 1.0);
    }

    #[test]
    fn nearest_rank_on_singleton_and_duplicates() {
        assert_eq!(percentile_nearest_rank(&[7.5], 50.0), 7.5);
        assert_eq!(percentile_nearest_rank(&[7.5], 99.0), 7.5);
        let dup = [1.0, 1.0, 1.0, 9.0];
        assert_eq!(percentile_nearest_rank(&dup, 75.0), 1.0);
        assert_eq!(percentile_nearest_rank(&dup, 76.0), 9.0);
    }

    #[test]
    fn p99_is_an_observed_sample() {
        // 1..=200: rank(99) = ⌈198⌉ = 198 → the value 198 exactly.
        let s: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&s, 99.0), 198.0);
        assert_eq!(percentile_nearest_rank(&s, 50.0), 100.0);
        assert!(s.contains(&percentile_nearest_rank(&s, 99.0)));
    }

    #[test]
    fn summary_sorts_and_reports() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let sum = latency_summary(&mut s);
        assert_eq!(sum.n, 5);
        assert_eq!(sum.p50, 3.0);
        assert_eq!(sum.max, 5.0);
        assert!((sum.mean - 3.0).abs() < 1e-15);
        assert_eq!(sum.p90, 5.0); // rank ⌈4.5⌉ = 5
        assert_eq!(sum.p99, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_percentile() {
        let _ = percentile_nearest_rank(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_p() {
        let _ = percentile_nearest_rank(&[1.0], 101.0);
    }
}
