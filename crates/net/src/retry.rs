//! Bounded retries with exponential backoff + deterministic jitter, and a
//! tiny seedable PRNG shared with the fault-injection layer.
//!
//! Edge WiFi drops sends transiently; the inference and recovery
//! runtimes retry them a bounded number of times inside a **deadline
//! budget** — the caller allots one wall-clock budget to the whole
//! operation and every retry (and its backoff sleep) draws from it, rather
//! than each attempt carrying an independent timeout that can stack up
//! unboundedly.

use crate::clock::{Clock, SystemClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic 64-bit PRNG (SplitMix64). Seeded fault injection and
/// backoff jitter must replay identically run-to-run, which rules out
/// entropy from the OS; SplitMix64 passes BigCrush and is four lines long.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed; the same seed replays the same
    /// sequence forever.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Retry schedule: how many attempts, and how the backoff between them
/// grows. Delays double each attempt from `base_delay` up to `max_delay`,
/// then get "equal jitter" applied (half fixed, half uniform random) so a
/// fleet of retrying nodes does not stampede in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Iterator-style backoff state for one operation under one deadline.
#[derive(Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    rng: DetRng,
    attempt: u32,
    deadline: Instant,
    clock: Arc<dyn Clock>,
}

impl Backoff {
    /// Starts a backoff sequence against `deadline` on the real wall
    /// clock; `seed` fixes the jitter sequence.
    pub fn new(policy: RetryPolicy, seed: u64, deadline: Instant) -> Self {
        Backoff::with_clock(policy, seed, deadline, Arc::new(SystemClock))
    }

    /// Starts a backoff sequence whose deadline budget is measured on
    /// `clock` — a [`crate::ManualClock`] makes deadline-exhaustion tests
    /// fully virtual (no real sleeping).
    pub fn with_clock(
        policy: RetryPolicy,
        seed: u64,
        deadline: Instant,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Backoff {
            policy,
            rng: DetRng::new(seed),
            attempt: 0,
            deadline,
            clock,
        }
    }

    /// Remaining deadline budget (zero once the deadline has passed).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(self.clock.now())
    }

    /// Called after a failed attempt: returns the delay to sleep before
    /// retrying, or `None` when the attempt budget or the deadline budget
    /// is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.attempt += 1;
        if self.attempt >= self.policy.max_attempts {
            return None;
        }
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << (self.attempt - 1).min(16))
            .min(self.policy.max_delay);
        // Equal jitter: delay in [exp/2, exp).
        let half = exp / 2;
        let jitter = half.mul_f64(self.rng.next_f64());
        let delay = half + jitter;
        if delay >= self.remaining() {
            return None; // sleeping would blow the deadline budget
        }
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_deterministic() {
        let mut a = DetRng::new(99);
        let mut b = DetRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(100);
        assert_ne!(DetRng::new(99).next_u64(), c.next_u64());
    }

    #[test]
    fn chance_respects_extremes() {
        let mut rng = DetRng::new(1);
        assert!((0..64).all(|_| !rng.chance(0.0)));
        assert!((0..64).all(|_| rng.chance(1.1)));
        assert_eq!(rng.below(0), 0);
        assert!((0..64).all(|_| rng.below(5) < 5));
    }

    #[test]
    fn backoff_grows_and_is_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut backoff = Backoff::new(policy, 7, deadline);
        let delays: Vec<Duration> = std::iter::from_fn(|| backoff.next_delay()).collect();
        assert_eq!(delays.len(), 4); // 5 attempts = 4 retries
        for (i, d) in delays.iter().enumerate() {
            let exp = Duration::from_millis(10 * (1 << i)).min(Duration::from_millis(40));
            assert!(*d >= exp / 2 && *d < exp, "retry {i}: {d:?} vs cap {exp:?}");
        }
    }

    #[test]
    fn backoff_stops_at_deadline() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(50),
        };
        // Deadline already in the past: no retry may be granted.
        let mut backoff = Backoff::new(policy, 1, Instant::now());
        assert!(backoff.next_delay().is_none());
        assert_eq!(backoff.remaining(), Duration::ZERO);
    }

    #[test]
    fn no_retry_policy_yields_nothing() {
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut backoff = Backoff::new(RetryPolicy::none(), 0, deadline);
        assert!(backoff.next_delay().is_none());
    }

    #[test]
    fn deadline_budget_is_exact_on_a_manual_clock() {
        use crate::clock::{Clock, ManualClock};
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(40),
            max_delay: Duration::from_millis(40),
        };
        let clock = Arc::new(ManualClock::new());
        let deadline = clock.now() + Duration::from_millis(100);
        let mut backoff =
            Backoff::with_clock(policy, 3, deadline, Arc::clone(&clock) as Arc<dyn Clock>);
        // Drive the backoff entirely in virtual time: each granted delay is
        // "slept" on the manual clock, so budget exhaustion is exact and
        // the test never blocks.
        let mut granted = 0;
        while let Some(delay) = backoff.next_delay() {
            assert!(delay >= Duration::from_millis(20) && delay < Duration::from_millis(40));
            clock.sleep(delay);
            granted += 1;
        }
        assert!(
            (1..=4).contains(&granted),
            "100ms budget, 20-40ms delays: got {granted}"
        );
        assert!(backoff.remaining() < Duration::from_millis(40));
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let policy = RetryPolicy::default();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut a = Backoff::new(policy.clone(), 42, deadline);
        let mut b = Backoff::new(policy, 42, deadline);
        assert_eq!(a.next_delay(), b.next_delay());
        assert_eq!(a.next_delay(), b.next_delay());
    }
}
