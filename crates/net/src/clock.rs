//! Injectable time source for every protocol-layer deadline and backoff.
//!
//! Wall-clock reads scattered through retry and inference code
//! make two things impossible: replaying a seeded chaos run bit-for-bit,
//! and testing timeout logic without actually sleeping. The [`Clock`]
//! trait funnels every `now()` read and every backoff sleep through one
//! interface with two implementations:
//!
//! * [`SystemClock`] — the real wall clock, used in production. This is
//!   the **single sanctioned wall-clock read** in the workspace: the
//!   `cargo xtask audit` determinism pass rejects any other
//!   `Instant::now()` reachable from protocol paths.
//! * [`ManualClock`] — a test clock that only moves when told to (or when
//!   code under test "sleeps" on it), so backoff/deadline behaviour is
//!   asserted in virtual time and timing tests cannot flake under load.
//!
//! Receive timeouts handed to a blocking transport still elapse in real
//! time (a condition variable cannot wait on virtual time); the clock
//! governs how those deadlines are *budgeted*, which is where the
//! nondeterminism and the test flakiness lived.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A source of monotonic time plus the ability to sleep against it.
///
/// `Debug` is a supertrait so configs holding an `Arc<dyn Clock>` can keep
/// deriving `Debug`.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant on this clock.
    fn now(&self) -> Instant;

    /// Blocks (or virtually advances) for `duration`.
    fn sleep(&self, duration: Duration);
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

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A virtual clock for tests: time stands still until [`advance`]d, and
/// [`Clock::sleep`] advances it instantly instead of blocking.
///
/// [`advance`]: ManualClock::advance
#[derive(Debug)]
pub struct ManualClock {
    /// Arbitrary anchor so `now()` can hand out real `Instant`s; only the
    /// offset from it ever changes.
    base: Instant,
    offset: Mutex<Duration>,
    sleeps: AtomicU64,
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
            sleeps: AtomicU64::new(0),
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

    /// Number of [`Clock::sleep`] calls observed (each also advances the
    /// clock by the requested duration).
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        self.base + *self.offset.lock()
    }

    fn sleep(&self, duration: Duration) {
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        self.advance(duration);
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
    fn manual_sleep_advances_without_blocking() {
        let clock = ManualClock::new();
        clock.sleep(Duration::from_secs(3600)); // returns immediately
        assert_eq!(clock.elapsed(), Duration::from_secs(3600));
        assert_eq!(clock.sleeps(), 1);
    }

    #[test]
    fn works_as_trait_object() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let t0 = clock.now();
        clock.sleep(Duration::from_millis(5));
        assert_eq!(clock.now(), t0 + Duration::from_millis(5));
    }
}
