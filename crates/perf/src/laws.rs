//! Amdahl's and Gustafson's laws and serial-fraction fitting.

/// Amdahl speedup with serial fraction `f` on `p` processors:
/// `S = 1 / (f + (1−f)/p)`.
pub fn amdahl_speedup(f: f64, p: usize) -> f64 {
    assert!((0.0..=1.0).contains(&f), "serial fraction in [0,1]");
    assert!(p > 0);
    1.0 / (f + (1.0 - f) / p as f64)
}

/// Gustafson scaled speedup with serial fraction `f'` (measured on the
/// parallel machine): `S = p − f'·(p − 1)`.
pub fn gustafson_speedup(f: f64, p: usize) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    assert!(p > 0);
    let pf = p as f64;
    pf - f * (pf - 1.0)
}

/// Least-squares fit of Amdahl's serial fraction to measured
/// `(p, speedup)` points: minimises `Σ (1/Sᵢ − f − (1−f)/pᵢ)²`, which is
/// linear in `f`.
///
/// Returns the clamped fraction in `[0, 1]`; `None` without p > 1 data.
pub fn fit_amdahl(points: &[(usize, f64)]) -> Option<f64> {
    // 1/S = f(1 − 1/p) + 1/p  ⇒  y = f·x with y = 1/S − 1/p, x = 1 − 1/p.
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut used = 0;
    for &(p, s) in points {
        if p < 2 || s <= 0.0 {
            continue;
        }
        let x = 1.0 - 1.0 / p as f64;
        let y = 1.0 / s - 1.0 / p as f64;
        sxy += x * y;
        sxx += x * x;
        used += 1;
    }
    if used == 0 || sxx == 0.0 {
        return None;
    }
    Some((sxy / sxx).clamp(0.0, 1.0))
}

/// Least-squares fit of Gustafson's serial fraction to measured scaled
/// speedups: from `S = p − f(p−1)`, `f = (p − S)/(p − 1)` averaged with
/// weights `(p−1)²`.
pub fn fit_gustafson(points: &[(usize, f64)]) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(p, s) in points {
        if p < 2 {
            continue;
        }
        let pf = p as f64;
        num += (pf - s) * (pf - 1.0);
        den += (pf - 1.0) * (pf - 1.0);
    }
    if den == 0.0 {
        return None;
    }
    Some((num / den).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_known_values() {
        // 90% parallel, 4-fold parallel speedup is the textbook example,
        // but here f is the *serial* fraction: f=0.1, p→∞ ⇒ S→10.
        assert!((amdahl_speedup(0.1, 1_000_000) - 10.0).abs() < 0.01);
        assert_eq!(amdahl_speedup(0.0, 16), 16.0);
        assert_eq!(amdahl_speedup(1.0, 16), 1.0);
    }

    #[test]
    fn gustafson_known_values() {
        assert_eq!(gustafson_speedup(0.0, 64), 64.0);
        assert_eq!(gustafson_speedup(1.0, 64), 1.0);
        // f=0.5: S = p − 0.5(p−1) = (p+1)/2.
        assert_eq!(gustafson_speedup(0.5, 9), 5.0);
    }

    #[test]
    fn gustafson_dominates_amdahl() {
        // For the same fraction, scaled speedup ≥ fixed-size speedup.
        for p in [2usize, 8, 32] {
            for f in [0.05, 0.2, 0.5] {
                assert!(gustafson_speedup(f, p) >= amdahl_speedup(f, p) - 1e-12);
            }
        }
    }

    #[test]
    fn fit_recovers_exact_amdahl_data() {
        let f = 0.07;
        let pts: Vec<(usize, f64)> = [2usize, 4, 8, 16, 32]
            .iter()
            .map(|&p| (p, amdahl_speedup(f, p)))
            .collect();
        let fit = fit_amdahl(&pts).unwrap();
        assert!((fit - f).abs() < 1e-12, "{fit}");
    }

    #[test]
    fn fit_recovers_exact_gustafson_data() {
        let f = 0.15;
        let pts: Vec<(usize, f64)> = [2usize, 4, 8, 16]
            .iter()
            .map(|&p| (p, gustafson_speedup(f, p)))
            .collect();
        let fit = fit_gustafson(&pts).unwrap();
        assert!((fit - f).abs() < 1e-12, "{fit}");
    }

    #[test]
    fn fits_need_multi_processor_data() {
        assert!(fit_amdahl(&[(1, 1.0)]).is_none());
        assert!(fit_gustafson(&[]).is_none());
    }

    #[test]
    fn fit_clamps_noisy_data() {
        // Superlinear measurements clamp to f = 0.
        let pts = [(2usize, 2.5), (4, 5.0)];
        assert_eq!(fit_amdahl(&pts).unwrap(), 0.0);
    }
}
