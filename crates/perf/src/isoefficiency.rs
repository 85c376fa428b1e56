//! Numerical isoefficiency analysis.
//!
//! The isoefficiency function `W(p)` gives the problem size (work)
//! needed to hold parallel efficiency at a target as processors grow
//! (Grama, Gupta & Kumar 1993). Fast-growing `W(p)` means poor
//! scalability. There is no general closed form, so this module works
//! numerically against *any* time model `T(n, p)` — including the
//! virtual-time model of `mdp-cluster` driven by real engine runs.

/// Find, by bisection on the problem size `n`, the smallest size whose
/// efficiency at `p` processors reaches `target` (within `rel_tol`).
///
/// * `time`: the execution-time model `T(n, p)`; must be positive.
/// * `work`: the sequential work measure `W(n)` reported back.
/// * Search range `[n_lo, n_hi]`; returns `None` when even `n_hi` cannot
///   reach the target (the efficiency is assumed monotone in `n`, true
///   for all models in this workspace).
pub fn isoefficiency_point<T, W>(
    time: T,
    work: W,
    p: usize,
    target: f64,
    n_lo: u64,
    n_hi: u64,
    rel_tol: f64,
) -> Option<(u64, f64)>
where
    T: Fn(u64, usize) -> f64,
    W: Fn(u64) -> f64,
{
    assert!(p >= 1);
    assert!((0.0..1.0).contains(&target) && target > 0.0);
    assert!(n_lo >= 1 && n_hi > n_lo);
    let eff = |n: u64| {
        let t1 = time(n, 1);
        let tp = time(n, p);
        t1 / tp / p as f64
    };
    if eff(n_hi) < target {
        return None;
    }
    if eff(n_lo) >= target {
        return Some((n_lo, work(n_lo)));
    }
    let mut lo = n_lo;
    let mut hi = n_hi;
    while hi - lo > 1 && (hi - lo) as f64 > rel_tol * lo as f64 {
        let mid = lo + (hi - lo) / 2;
        if eff(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some((hi, work(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: T(n, p) = n/p + c·log₂(p) — the additive-overhead
    /// machine whose isoefficiency is W(p) = Θ(p log p).
    fn model(c: f64) -> impl Fn(u64, usize) -> f64 + Copy {
        move |n, p| n as f64 / p as f64 + c * (p as f64).log2()
    }

    #[test]
    fn recovers_p_log_p_growth() {
        let time = model(10.0);
        let work = |n: u64| n as f64;
        let w8 = isoefficiency_point(time, work, 8, 0.8, 1, 1 << 40, 1e-6)
            .unwrap()
            .1;
        let w64 = isoefficiency_point(time, work, 64, 0.8, 1, 1 << 40, 1e-6)
            .unwrap()
            .1;
        // W(p) = E/(1−E)·c·p·log₂p ⇒ W(64)/W(8) = (64·6)/(8·3) = 16.
        let ratio = w64 / w8;
        assert!((ratio - 16.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn exact_against_closed_form() {
        // For T = n/p + c·log₂p: E = target gives
        // n* = target/(1−target) · c · p·log₂p.
        let c = 5.0;
        let time = model(c);
        let p = 16;
        let target = 0.5;
        let expect = target / (1.0 - target) * c * (p as f64) * 4.0;
        let (n, _) = isoefficiency_point(time, |n| n as f64, p, target, 1, 1 << 40, 1e-9).unwrap();
        assert!(
            ((n as f64) - expect).abs() <= expect * 1e-2 + 2.0,
            "{n} vs {expect}"
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        // Overhead grows with n too: efficiency capped below target.
        let time = |n: u64, p: usize| n as f64 / p as f64 + 0.5 * n as f64;
        let r = isoefficiency_point(time, |n| n as f64, 4, 0.9, 1, 1 << 30, 1e-6);
        assert!(r.is_none());
    }

    #[test]
    fn trivial_target_at_lower_bound() {
        let time = model(0.0); // ideal machine: efficiency 1 everywhere
        let r = isoefficiency_point(time, |n| n as f64, 32, 0.9, 4, 1 << 20, 1e-6).unwrap();
        assert_eq!(r.0, 4);
    }

    #[test]
    fn curve_is_monotone_in_p() {
        let time = model(2.0);
        let ws: Vec<f64> = [2, 4, 8, 16, 32]
            .iter()
            .map(|&p| {
                isoefficiency_point(time, |n| n as f64, p, 0.7, 1, 1 << 40, 1e-3)
                    .unwrap()
                    .1
            })
            .collect();
        for w in ws.windows(2) {
            assert!(w[1] > w[0], "{ws:?}");
        }
    }
}
