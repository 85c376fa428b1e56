//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a *seeded schedule* of message drops, message
//! delays, and rank crashes. Every decision the plan makes is a pure
//! function of `(seed, src, dest, sequence number, attempt)` — no host
//! randomness, no wall-clock — so an SPMD run under a plan can be
//! replayed bit-for-bit: same drops, same retransmit counts, same
//! virtual-time makespan. That replayability is what lets the chaos
//! tests assert exact recovery behaviour and the golden-regression
//! suite pin recovery makespans.
//!
//! Crashes are injected at *step boundaries* only (the coordination
//! points where drivers call [`crate::ThreadComm::fault_step`]): a rank
//! whose plan says `(rank, k)` unwinds with an [`InjectedCrash`] payload
//! when it reaches boundary `k`, after writing any checkpoint due at
//! that boundary. Restricting crashes to boundaries keeps the recovery
//! protocol simple — every send inside a step is matched by a receive
//! inside the same step, so no user message is ever in flight when
//! survivors roll back.

/// One pass of the SplitMix64 finaliser — a well-mixed 64→64 hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, replayable schedule of injected faults.
///
/// Built with the fluent constructors and handed to
/// [`crate::run_spmd_ft`]. A default plan (`FaultPlan::new(seed)`)
/// injects nothing; see [`FaultPlan::has_chaos`] for when the reliable
/// delivery layer activates.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every drop/delay coin flip.
    pub seed: u64,
    /// Probability an individual transmission attempt is dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is delayed.
    pub delay_prob: f64,
    /// Maximum injected delivery delay in virtual seconds (uniform in
    /// `[0, max_delay)` when the delay coin fires).
    pub max_delay: f64,
    /// Retransmission budget per message before the sender gives up and
    /// fails the rank.
    pub max_retries: u32,
    /// Base retransmission timeout in virtual seconds; attempt `a`
    /// backs off `rto · 2^a` before retransmitting.
    pub rto: f64,
    /// Scheduled crashes `(rank, step)`: the rank panics when it calls
    /// [`crate::ThreadComm::fault_step`] with that step. At most one
    /// entry per rank is honoured (the earliest step wins).
    pub crashes: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as the fault-free baseline
    /// for overhead measurements: checkpoints are still written).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0.0,
            max_retries: 8,
            rto: 1e-4,
            crashes: Vec::new(),
        }
    }

    /// Enable message drops with the given per-attempt probability.
    pub fn with_drops(mut self, prob: f64) -> Self {
        assert!((0.0..1.0).contains(&prob), "drop probability in [0,1)");
        self.drop_prob = prob;
        self
    }

    /// Enable message delays: with probability `prob` a delivered
    /// message arrives up to `max_delay` virtual seconds late.
    pub fn with_delays(mut self, prob: f64, max_delay: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "delay probability in [0,1]");
        assert!(max_delay >= 0.0);
        self.delay_prob = prob;
        self.max_delay = max_delay;
        self
    }

    /// Schedule `rank` to crash when it reaches step boundary `step`.
    pub fn with_crash(mut self, rank: usize, step: usize) -> Self {
        self.crashes.push((rank, step));
        self
    }

    /// Set the retransmission budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// True when the plan can perturb message traffic (drops or
    /// delays); this is what switches sends onto the reliable
    /// ack/retransmit path. Pure crash plans leave point-to-point
    /// traffic on the plain zero-overhead path.
    pub fn has_chaos(&self) -> bool {
        self.drop_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Deterministic uniform draw in `[0,1)` for a given decision site.
    fn coin(&self, salt: u64, src: usize, dest: usize, seq: u64, attempt: u32) -> f64 {
        let mut h = splitmix64(self.seed ^ salt);
        h = splitmix64(h ^ src as u64);
        h = splitmix64(h ^ dest as u64);
        h = splitmix64(h ^ seq);
        h = splitmix64(h ^ attempt as u64);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does transmission attempt `attempt` of message `seq` from `src`
    /// to `dest` get dropped?
    pub fn drops(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> bool {
        self.drop_prob > 0.0 && self.coin(0xD209, src, dest, seq, attempt) < self.drop_prob
    }

    /// Injected delivery delay (virtual seconds) for message `seq`,
    /// zero when the delay coin does not fire.
    pub fn delay(&self, src: usize, dest: usize, seq: u64) -> f64 {
        if self.delay_prob == 0.0 {
            return 0.0;
        }
        if self.coin(0xDE1A, src, dest, seq, 0) < self.delay_prob {
            self.coin(0xDE1B, src, dest, seq, 0) * self.max_delay
        } else {
            0.0
        }
    }

    /// The step at which `rank` is scheduled to crash, if any (earliest
    /// entry wins when a rank is listed twice).
    pub fn crash_step(&self, rank: usize) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, s)| s)
            .min()
    }

    /// True when any rank is scheduled to crash exactly at `step` —
    /// the boundaries where survivors run the failure-agreement
    /// exchange. Scheduling the exchange off the plan keeps fault-free
    /// steps free of agreement traffic (the detection itself still
    /// happens at the message level, via the poison marker).
    pub fn any_crash_at(&self, step: usize) -> bool {
        self.crashes.iter().any(|&(_, s)| s == step)
    }

    /// Largest rank index referenced by a scheduled crash.
    pub fn max_crash_rank(&self) -> Option<usize> {
        self.crashes.iter().map(|&(r, _)| r).max()
    }
}

/// Panic payload carried by an injected crash; [`crate::run_spmd_ft`]
/// downcasts it to distinguish scheduled deaths from genuine bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// The rank that crashed.
    pub rank: usize,
    /// The step boundary at which it crashed.
    pub step: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_replayable() {
        let a = FaultPlan::new(42).with_drops(0.3).with_delays(0.2, 1e-3);
        let b = FaultPlan::new(42).with_drops(0.3).with_delays(0.2, 1e-3);
        for seq in 0..50 {
            assert_eq!(a.drops(0, 1, seq, 0), b.drops(0, 1, seq, 0));
            assert_eq!(a.delay(0, 1, seq).to_bits(), b.delay(0, 1, seq).to_bits());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::new(1).with_drops(0.5);
        let b = FaultPlan::new(2).with_drops(0.5);
        let diff = (0..256)
            .filter(|&seq| a.drops(0, 1, seq, 0) != b.drops(0, 1, seq, 0))
            .count();
        assert!(diff > 50, "seeds should decorrelate drop streams: {diff}");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let p = FaultPlan::new(7).with_drops(0.25);
        let n = 4000;
        let hits = (0..n).filter(|&seq| p.drops(2, 3, seq, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn delays_bounded_and_gated() {
        let p = FaultPlan::new(9).with_delays(0.5, 2e-3);
        let mut fired = 0;
        for seq in 0..500 {
            let d = p.delay(1, 0, seq);
            assert!((0.0..2e-3).contains(&d) || d == 0.0);
            if d > 0.0 {
                fired += 1;
            }
        }
        assert!(fired > 150 && fired < 350, "{fired}");
        assert_eq!(FaultPlan::new(9).delay(1, 0, 3), 0.0);
    }

    #[test]
    fn crash_schedule_queries() {
        let p = FaultPlan::new(0)
            .with_crash(2, 10)
            .with_crash(2, 5)
            .with_crash(0, 7);
        assert_eq!(p.crash_step(2), Some(5));
        assert_eq!(p.crash_step(0), Some(7));
        assert_eq!(p.crash_step(1), None);
        assert!(p.any_crash_at(5) && p.any_crash_at(7) && p.any_crash_at(10));
        assert!(!p.any_crash_at(6));
        assert_eq!(p.max_crash_rank(), Some(2));
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::new(123);
        assert!(!p.has_chaos());
        assert!(!p.drops(0, 1, 0, 0));
        assert_eq!(p.delay(0, 1, 0), 0.0);
        assert_eq!(p.crash_step(0), None);
    }
}
