//! Injectable time source for every protocol-layer deadline.
//!
//! Wall-clock reads scattered through protocol code make two things
//! impossible: replaying a seeded chaos run bit-for-bit, and testing
//! timeout logic without racing the wall clock. The [`Clock`] trait
//! funnels every `now()` read through one interface with two
//! implementations:
//!
//! * [`SystemClock`] — the real wall clock, used in production. This is
//!   the **single sanctioned wall-clock read** in the workspace: the
//!   `cargo xtask audit` determinism pass rejects any other
//!   `Instant::now()` reachable from protocol paths.
//! * [`ManualClock`] — a test clock that only moves when told to, so
//!   deadline behaviour is asserted in virtual time and timing tests
//!   cannot flake under load.
//!
//! Nothing on a protocol path sleeps (`cargo xtask audit`'s `det-sleep`
//! rule rejects `thread::sleep(` there). Receive timeouts handed to a
//! blocking transport still elapse in real time (a condition variable
//! cannot wait on virtual time); the clock governs how those deadlines
//! are *budgeted*, which is where the nondeterminism and the test
//! flakiness lived.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// The instant `timeout` after `now`. A timeout too large for `Instant`
/// (`Duration::MAX`) means no deadline: it comes back a century out, where
/// `now() + timeout` panics — `xtask check`'s `deadline-add` rule rejects
/// that form, so this is the one way a deadline is built.
pub fn deadline_after(now: Instant, timeout: Duration) -> Instant {
    const CENTURY: Duration = Duration::from_secs(100 * 365 * 24 * 3600);
    now.checked_add(timeout.min(CENTURY)).unwrap_or(now)
}

/// A source of monotonic time.
///
/// `Debug` is a supertrait so configs holding an `Arc<dyn Clock>` can keep
/// deriving `Debug`.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant on this clock.
    fn now(&self) -> Instant;
}

/// The real wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        // The one sanctioned wall-clock read (see module docs); everything
        // else must go through a Clock. lint: allow(det-clock)
        Instant::now()
    }
}

/// A virtual clock for tests: time stands still until [`advance`]d.
///
/// [`advance`]: ManualClock::advance
#[derive(Debug)]
pub struct ManualClock {
    /// Arbitrary anchor so `now()` can hand out real `Instant`s; only the
    /// offset from it ever changes.
    base: Instant,
    offset: Mutex<Duration>,
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl ManualClock {
    /// A clock frozen at its creation instant.
    pub fn new() -> Self {
        ManualClock {
            // Anchor only; virtual time is the offset from here.
            // lint: allow(det-clock)
            base: Instant::now(),
            offset: Mutex::new(Duration::ZERO),
        }
    }

    /// Moves the clock forward by `duration`.
    pub fn advance(&self, duration: Duration) {
        *self.offset.lock() += duration;
    }

    /// Total virtual time elapsed since creation.
    pub fn elapsed(&self) -> Duration {
        *self.offset.lock()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        self.base + *self.offset.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn system_clock_moves_forward() {
        let clock = SystemClock;
        let a = clock.now();
        assert!(clock.now() >= a);
    }

    #[test]
    fn manual_clock_is_frozen_until_advanced() {
        let clock = ManualClock::new();
        let a = clock.now();
        assert_eq!(clock.now(), a);
        clock.advance(Duration::from_secs(3));
        assert_eq!(clock.now(), a + Duration::from_secs(3));
        assert_eq!(clock.elapsed(), Duration::from_secs(3));
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let now = SystemClock.now();
        let t = Duration::from_millis(5);
        assert_eq!(deadline_after(now, t), now + t);
        let never = deadline_after(now, Duration::MAX);
        assert!(never >= now + Duration::from_secs(99 * 365 * 24 * 3600));
    }

    #[test]
    fn works_as_trait_object() {
        let manual = Arc::new(ManualClock::new());
        let clock: Arc<dyn Clock> = Arc::clone(&manual) as Arc<dyn Clock>;
        let t0 = clock.now();
        manual.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), t0 + Duration::from_millis(5));
    }
}
