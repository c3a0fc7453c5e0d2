//! Request-arrival simulation: how a strategy behaves under load.
//!
//! The paper's tables report per-inference latency in isolation; a real
//! deployment serves a *stream* of sensing events. This module runs a
//! Poisson arrival process through a single FIFO server (the master node
//! serializes inferences), yielding mean/percentile response times and
//! utilization — the data for the request-rate ablation.

use crate::time::SimTime;
use rand::Rng;

/// One simulated service episode.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests served.
    pub served: usize,
    /// Mean end-to-end response time (waiting + service).
    pub mean_response: SimTime,
    /// 95th-percentile response time.
    pub p95_response: SimTime,
    /// Fraction of time the server was busy.
    pub utilization: f64,
}

/// Draws `requests` Poisson arrival instants at `rate_hz` (exponential
/// inter-arrival times), starting from time zero. This is the offered-load
/// process of [`simulate_serving`] (ablation A4 of `reproduce`) and of
/// `load_bench`'s open-loop `mlp_open_3200` workload, so the simulated and
/// the measured stream sample the same distribution from the same seed.
///
/// # Panics
///
/// Panics if `rate_hz <= 0`.
pub fn poisson_schedule(rate_hz: f64, requests: usize, rng: &mut impl Rng) -> Vec<SimTime> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut t = 0.0f64;
    let mut arrival_at = Vec::with_capacity(requests);
    for _ in 0..requests {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_hz;
        arrival_at.push(SimTime::from_secs_f64(t));
    }
    arrival_at
}

/// Simulates `requests` Poisson arrivals at `rate_hz` into a single server
/// with deterministic `service` time per request (M/D/1).
///
/// # Panics
///
/// Panics if `rate_hz <= 0`, `requests == 0` or `service` is zero.
pub fn simulate_serving(
    service: SimTime,
    rate_hz: f64,
    requests: usize,
    rng: &mut impl Rng,
) -> ServingReport {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    assert!(requests > 0, "need at least one request");
    assert!(service > SimTime::ZERO, "service time must be positive");

    // One FIFO server serves requests in arrival order, so each one starts
    // once it has arrived and its predecessor is done (Lindley's
    // recursion): start_i = max(arrival_i, finish_{i-1}).
    let arrival_at = poisson_schedule(rate_hz, requests, rng);
    let mut finish = SimTime::ZERO;
    let responses: Vec<SimTime> = arrival_at
        .iter()
        .map(|&arrival| {
            finish = arrival.max(finish) + service;
            finish - arrival
        })
        .collect();

    let mut sorted: Vec<SimTime> = responses.clone();
    sorted.sort();
    let total: f64 = responses.iter().map(|r| r.as_secs_f64()).sum();
    let busy_total = SimTime::from_nanos(service.as_nanos() * requests as u64);
    ServingReport {
        served: requests,
        mean_response: SimTime::from_secs_f64(total / requests as f64),
        p95_response: sorted[(requests * 95 / 100).min(requests - 1)],
        // The last request finishes after every arrival: it is the horizon.
        utilization: (busy_total.as_secs_f64() / finish.as_secs_f64()).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn light_load_has_no_queueing() {
        let mut rng = StdRng::seed_from_u64(1);
        // 10 ms service, 1 request/s: essentially never queued.
        let report = simulate_serving(SimTime::from_millis(10), 1.0, 500, &mut rng);
        assert_eq!(report.served, 500);
        assert!(
            report.mean_response.as_millis_f64() < 11.0,
            "{:?}",
            report.mean_response
        );
        assert!(report.utilization < 0.05, "{}", report.utilization);
    }

    #[test]
    fn heavy_load_queues_and_saturates() {
        let mut rng = StdRng::seed_from_u64(2);
        // 10 ms service, 95 req/s → ρ = 0.95: long queues.
        let report = simulate_serving(SimTime::from_millis(10), 95.0, 2_000, &mut rng);
        assert!(report.utilization > 0.85, "{}", report.utilization);
        assert!(
            report.mean_response.as_millis_f64() > 30.0,
            "mean response {} should show queueing",
            report.mean_response
        );
        assert!(report.p95_response > report.mean_response);
    }

    #[test]
    fn matches_m_d_1_waiting_time_roughly() {
        // M/D/1: W = ρ·s / (2(1−ρ)); at ρ = 0.5 and s = 10 ms → 5 ms wait,
        // 15 ms response.
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate_serving(SimTime::from_millis(10), 50.0, 20_000, &mut rng);
        let mean_ms = report.mean_response.as_millis_f64();
        assert!(
            (mean_ms - 15.0).abs() < 2.0,
            "mean response {mean_ms} vs theory 15"
        );
    }

    #[test]
    fn faster_service_dominates() {
        let mut rng = StdRng::seed_from_u64(4);
        let slow = simulate_serving(SimTime::from_millis(20), 20.0, 2_000, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let fast = simulate_serving(SimTime::from_millis(5), 20.0, 2_000, &mut rng);
        assert!(fast.mean_response < slow.mean_response);
        assert!(fast.utilization < slow.utilization);
    }

    #[test]
    fn seeded_reports_are_pinned_to_the_bit() {
        // Ablation A4 reads these outputs: a change to the queue model
        // may not move them by a single bit.
        for (rate, seed, mean_ns, p95_ns, util_bits) in [
            (
                50.0,
                0x51u64,
                15_387_707u64,
                32_402_112u64,
                0x3fdf_cc08_9fae_1409u64,
            ),
            (90.0, 0x90, 45_891_655, 141_355_501, 0x3fec_557d_28e7_a15c),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = simulate_serving(SimTime::from_millis(10), rate, 2_000, &mut rng);
            assert_eq!(r.served, 2_000);
            assert_eq!(r.mean_response.as_nanos(), mean_ns, "ρ ≈ {}", rate / 100.0);
            assert_eq!(r.p95_response.as_nanos(), p95_ns, "ρ ≈ {}", rate / 100.0);
            assert_eq!(r.utilization.to_bits(), util_bits, "ρ ≈ {}", rate / 100.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        simulate_serving(SimTime::from_millis(1), 0.0, 1, &mut rng);
    }

    #[test]
    fn poisson_schedule_is_monotone_with_correct_mean_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let at = poisson_schedule(100.0, 10_000, &mut rng);
        assert_eq!(at.len(), 10_000);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        // Mean arrival rate within 5% of the offered 100 Hz.
        let horizon = at.last().unwrap().as_secs_f64();
        let rate = 10_000.0 / horizon;
        assert!((rate - 100.0).abs() < 5.0, "empirical rate {rate}");
        // Same seed → identical schedule (the serve bench relies on it).
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(at, poisson_schedule(100.0, 10_000, &mut rng2));
    }
}
