//! Order statistics and means used by every workload's report.
//!
//! Percentiles use the nearest-rank rule on the sorted sample: the
//! `q`-quantile of `n` values is the value at 0-based rank
//! `ceil(q·n) − 1`. A tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie strictly beyond that rank, so a p99 needs
//! 1 000 samples and a p90 needs 100. Failed operations enter as `+∞`:
//! they count as missing every latency percentile.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder the support rule walks, lowest first.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// 0-based nearest rank of the `q`-quantile among `n` sorted values.
pub fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond the `q`-quantile's rank.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(q, n)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Sorts a copy of the samples (`+∞` last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile by nearest rank; `None` on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(sorted(samples)[rank(q, samples.len())])
}

/// The `q` tail percentile, or an error naming the shortfall when the
/// sample does not support it.
pub fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let n = samples.len();
    if beyond(q, n) < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} needs {MIN_BEYOND} samples beyond it, have {} of {n}",
            q * 100.0,
            beyond(q, n)
        ));
    }
    Ok(sorted(samples)[rank(q, n)])
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1 000 sits at rank 989: ten beyond it.
        assert_eq!(beyond(0.99, 1_000), 10);
        assert_eq!(beyond(0.99, 999), 9);
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(10_000), Some(0.999));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9, "x"), Ok(90.0));
        assert!(tail(&xs, 0.99, "x").is_err());
    }

    #[test]
    fn failures_count_as_missing_the_percentile() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        for x in xs.iter_mut().rev().take(25) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail(&xs, 0.9, "x"), Ok(f64::INFINITY));
        assert_eq!(quantile(&xs, 0.5), Some(100.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}
