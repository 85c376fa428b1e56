//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] is a cheap, cloneable handle the serving layer
//! threads into an engine's execute hot loop. The engine polls
//! [`CancelToken::is_cancelled`] at its natural work boundary — one
//! Monte Carlo path block, one lattice or FD time step — and bails out
//! with a typed error instead of burning cores on an answer nobody is
//! waiting for any more.
//!
//! Two trigger sources, checked in order of cost:
//!
//! * an explicit flag ([`CancelToken::cancel`], one relaxed atomic
//!   load to poll);
//! * an optional wall-clock deadline ([`CancelToken::with_deadline`],
//!   one `Instant::now()` call to poll).
//!
//! The default token ([`CancelToken::never`]) carries no state at all:
//! polling it is a single `Option` discriminant test, so plans that are
//! never cancelled pay effectively nothing for the hook. Cancellation
//! is purely a *scheduling* outcome — a run that completes without
//! tripping the token is bitwise-identical to one executed without any
//! token, because the poll never touches the numerical state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared cancellation state: an explicit flag plus an optional
/// wall-clock deadline.
#[derive(Debug)]
struct Shared {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle; clones share the trigger state.
///
/// ```
/// use mdp_math::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// assert!(!CancelToken::never().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    shared: Option<Arc<Shared>>,
}

impl CancelToken {
    /// A token that can only be cancelled explicitly.
    pub fn new() -> Self {
        CancelToken {
            shared: Some(Arc::new(Shared {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// The inert token: never cancels, polls for free. This is the
    /// default state of every engine plan.
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A token that trips when the wall clock reaches `deadline` (or
    /// earlier, via [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            shared: Some(Arc::new(Shared {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Trip the token explicitly. Inert tokens ignore the call.
    pub fn cancel(&self) {
        if let Some(s) = &self.shared {
            s.flag.store(true, Ordering::Release);
        }
    }

    /// Poll the token. Engines call this at work-item boundaries; the
    /// flag is checked before the (costlier) deadline clock read.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.shared {
            None => false,
            Some(s) => {
                s.flag.load(Ordering::Acquire) || s.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// The deadline this token trips at, when one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.shared.as_ref().and_then(|s| s.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_cancels() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn explicit_cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn past_deadline_trips_immediately() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        assert!(future.deadline().is_some());
        future.cancel();
        assert!(future.is_cancelled(), "explicit cancel beats the clock");
    }
}
