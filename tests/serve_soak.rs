//! Seeded serving soak: the determinism contract extended to the
//! multi-tenant front-end.
//!
//! Two runs with identical seeds — same chaos schedule, same virtual
//! arrival schedule on a [`ManualClock`], same mid-run worker blackhole —
//! must emit **byte-identical** span traces, metrics summaries and
//! per-request prediction transcripts. Every admission decision, batch
//! cut, quarantine transition and backpressure window change is
//! thereby pinned: a wall-clock read or iteration-order leak anywhere in
//! the serve path would flake this test (and `cargo xtask audit` rejects
//! such reads statically — `crates/serve/src/` is a taint root).

use std::sync::Arc;
use std::time::Duration;
use teamnet_core::build_expert;
use teamnet_core::health::PeerHealth;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, MasterConfig, WorkerConfig, TAG_SHUTDOWN,
};
use teamnet_core::FailureDetectorConfig;
use teamnet_net::{ChannelTransport, ChaosConfig, ChaosTransport, ManualClock, Transport};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_obs::{Obs, VecSink};
use teamnet_serve::{BatcherConfig, ServeConfig, ServeEngine, Ticket};
use teamnet_tensor::Tensor;

const SOAK_SEED: u64 = 0x5EA7_1E55;
const QUEUE_CAP_ROWS: usize = 32;
/// Virtual time a round is taken to be in flight for.
const ROUND_GAP_MS: u64 = 4;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// A deterministic offered-load schedule: (virtual ms gap before this
/// arrival, rows). Derived from the seed by a fixed congruence so both
/// runs replay it exactly. The engine is pumped only before an arrival
/// whose gap is long enough for a round to have returned
/// ([`ROUND_GAP_MS`]); arrivals closer together than that fall inside
/// the round in flight and coalesce behind it, so the schedule covers
/// lone requests, multi-request batches and batches cut at the row cap.
fn arrival_schedule(seed: u64, n: usize) -> Vec<(u64, usize)> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gap_ms = 1 + (state >> 33) % 6; // 1..=6 virtual ms
            let rows = 1 + ((state >> 13) % 3) as usize; // 1..=3 rows
            (gap_ms, rows)
        })
        .collect()
}

/// Runs one seeded serving soak and returns `(trace_jsonl,
/// metrics_summary, prediction_transcript)`.
///
/// Halfway through the arrival schedule worker 2 is shut down
/// (blackholed): the detector quarantines it, rounds degrade to the live
/// subset, and the admission window shrinks — all of which must be
/// byte-identically reproducible.
fn serve_soak() -> (String, String, String) {
    let mut mesh = ChannelTransport::mesh(3);
    let gentle = |node_seed: u64| ChaosConfig {
        seed: SOAK_SEED ^ node_seed,
        drop_prob: 0.05,
        delay_prob: 0.06,
        corrupt_prob: 0.03,
        duplicate_prob: 0.08,
        max_delay_msgs: 3,
    };
    let worker2 = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xE2));
    let worker1 = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xE1));
    let master = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xE0));

    let clock = Arc::new(ManualClock::new());
    let sink = Arc::new(VecSink::new());
    let obs = Obs::new(Arc::clone(&clock) as _, Arc::clone(&sink) as _);

    let config = ServeConfig {
        batch: BatcherConfig {
            max_batch_rows: 4,
            queue_cap_rows: QUEUE_CAP_ROWS,
        },
        input_dims: vec![1, 28, 28],
        master: MasterConfig {
            worker_timeout: Duration::from_millis(300),
            require_all_workers: false,
            failure: FailureDetectorConfig {
                suspect_after: 1,
                quarantine_after: 2,
                // No probe rounds inside this short soak: probing the
                // blackholed worker would only add timeout waits.
                probe_interval: 1_000,
            },
            clock: Arc::clone(&clock) as _,
            obs: obs.clone(),
            ..MasterConfig::default()
        },
    };

    let schedule = arrival_schedule(SOAK_SEED, 20);
    let blackhole_at = schedule.len() / 2;
    let mut transcript = String::new();

    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            let mut e = expert(1);
            serve_worker_with_config(&worker1, 0, &mut e, WorkerConfig::default()).unwrap();
        });
        let mut w2 = Some(scope.spawn(|_| {
            let mut e = expert(2);
            serve_worker_with_config(&worker2, 0, &mut e, WorkerConfig::default()).unwrap();
        }));

        let mut engine = ServeEngine::new(&master, expert(0), config);
        let handle = engine.handle();
        assert_eq!(handle.admission_window(), QUEUE_CAP_ROWS);

        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        for (i, &(gap_ms, rows)) in schedule.iter().enumerate() {
            if i == blackhole_at {
                // Blackhole worker 2: a clean shutdown frame via the
                // unchaosed inner endpoint (the *fault* we are injecting
                // is the silence that follows, not a lost shutdown).
                master.inner().send(2, TAG_SHUTDOWN, &[]).unwrap();
                if let Some(h) = w2.take() {
                    h.join().unwrap();
                }
            }
            clock.advance(Duration::from_millis(gap_ms));
            if gap_ms >= ROUND_GAP_MS {
                engine.pump_now(&master);
            }
            let fill = 0.05 + (i % 9) as f32 * 0.1;
            let ticket = handle
                .submit(&Tensor::full(vec![rows, 1, 28, 28], fill))
                .unwrap_or_else(|e| panic!("arrival {i} rejected: {e}"));
            tickets.push((i, ticket));
        }
        // Close-drain: what is still queued flushes after the close.
        clock.advance(Duration::from_millis(ROUND_GAP_MS));
        handle.close();
        let mut drained = 0;
        loop {
            match engine.pump_now(&master) {
                0 => break,
                n => drained += n,
            }
        }
        assert!(drained > 0, "nothing was left for the close-drain");
        let rounds = obs.metrics.snapshot().histograms["serve.batch.rows"].count;
        assert!(
            (rounds as usize) < schedule.len(),
            "no two of the {} requests shared a round",
            schedule.len()
        );

        for (i, ticket) in tickets {
            let preds = ticket
                .try_take()
                .unwrap_or_else(|| panic!("request {i} never completed"))
                .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
            for p in preds {
                transcript.push_str(&format!(
                    "req={i} label={} expert={} entropy={:08x}\n",
                    p.label,
                    p.expert,
                    p.entropy.to_bits()
                ));
            }
        }

        // The blackhole must have bitten: worker 2 quarantined, and the
        // admission window narrowed to the live fraction (backpressure).
        assert_eq!(
            engine.session().detector().health(2),
            PeerHealth::Quarantined
        );
        assert!(
            handle.admission_window() < QUEUE_CAP_ROWS,
            "window {} should have shrunk below {QUEUE_CAP_ROWS}",
            handle.admission_window()
        );

        shutdown_workers(master.inner()).unwrap();
    })
    .unwrap();

    (
        sink.to_jsonl(),
        obs.metrics.snapshot().summary(),
        transcript,
    )
}

#[test]
fn identical_seeds_give_byte_identical_serve_transcripts() {
    let (trace_a, metrics_a, preds_a) = serve_soak();
    let (trace_b, metrics_b, preds_b) = serve_soak();

    assert!(!trace_a.is_empty(), "tracer recorded nothing");
    assert_eq!(trace_a, trace_b, "seeded serve trace diverged between runs");
    assert_eq!(metrics_a, metrics_b, "seeded serve metrics diverged");
    assert_eq!(preds_a, preds_b, "prediction transcripts diverged");

    // The serve-specific spans and metrics are actually present.
    for name in ["serve.coalesce", "serve.flush", "round.broadcast"] {
        assert!(
            trace_a.contains(&format!("\"name\":\"{name}\"")),
            "span `{name}` missing from trace"
        );
    }
    for metric in [
        "gauge serve.queue_depth",
        "counter serve.admitted",
        "histogram serve.batch.rows",
        "histogram serve.latency.ns",
    ] {
        assert!(metrics_a.contains(metric), "{metric} missing:\n{metrics_a}");
    }
}
