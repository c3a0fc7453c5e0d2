//! The observability determinism contract, enforced end-to-end: two
//! identical seeded chaos soaks, each with a tracer on the master session,
//! must emit **byte-identical** JSONL span traces and byte-identical
//! metrics summaries.
//!
//! The tracer's clock is a [`ManualClock`] that is never advanced, so
//! every timestamp is a deterministic 0-offset; what the assertion then
//! pins down is the *structure* of the trace — the exact sequence of
//! rounds, broadcasts, per-peer sends, retries, gather awaits and argmin
//! merges the protocol performed — plus every counter the run
//! accumulated (discards, retries, detector transitions). A wall-clock
//! read smuggled anywhere into the traced path would make this test
//! flake; `cargo xtask audit` rejects such reads statically, and this
//! test rejects them dynamically.

use std::sync::Arc;
use std::time::Duration;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, FailureDetectorConfig};
use teamnet_net::{ChannelTransport, ChaosConfig, ChaosTransport, ManualClock};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_obs::{Obs, VecSink};
use teamnet_tensor::Tensor;

/// Same session seed as `tests/chaos_soak.rs`: one knob replays the whole
/// fault schedule.
const SESSION_SEED: u64 = 0x7EA3_0001;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// FNV-1a-64: pins a transcript across *builds*, where comparing two runs
/// of one build only pins it across runs.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs a short seeded 3-node soak with `obs` on the master session and
/// returns the concatenated [`InferenceReport::summary`] of every round.
///
/// Fault probabilities are low relative to the generous deadline: live
/// in-process workers answer in microseconds, so only seeded chaos decides
/// outcomes — never wall-clock timing. The summaries exclude absolute
/// round stamps (a process-global counter), so soaks in one process
/// compare byte for byte.
///
/// [`InferenceReport::summary`]: teamnet_core::InferenceReport::summary
fn seeded_soak(rounds: usize, obs: Obs) -> String {
    let mut mesh = ChannelTransport::mesh(3);
    let gentle = |node_seed: u64| ChaosConfig {
        seed: SESSION_SEED ^ node_seed,
        drop_prob: 0.06,
        delay_prob: 0.08,
        corrupt_prob: 0.04,
        duplicate_prob: 0.10,
        max_delay_msgs: 3,
    };
    let worker2 = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xD2));
    let worker1 = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xD1));
    let master = ChaosTransport::with_config(mesh.pop().unwrap(), gentle(0xD0));

    let config = MasterConfig {
        worker_timeout: Duration::from_millis(800),
        require_all_workers: false,
        failure: FailureDetectorConfig {
            suspect_after: 1,
            quarantine_after: 3,
            probe_interval: 2,
        },
        obs,
        ..MasterConfig::default()
    };

    let mut summaries = String::new();
    crossbeam::thread::scope(|scope| {
        for (i, node) in [&worker1, &worker2].into_iter().enumerate() {
            scope.spawn(move |_| {
                let mut worker_expert = expert(i as u64 + 1);
                serve_worker_with_config(node, 0, &mut worker_expert, WorkerConfig::default())
                    .unwrap();
            });
        }

        let mut session = InferenceSession::new(&master, config);
        let mut master_expert = expert(0);
        for round in 0..rounds {
            let images = Tensor::full([2, 1, 28, 28], (round % 7) as f32 * 0.1);
            let report = session
                .infer(&master, &mut master_expert, &images)
                .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
            summaries.push_str(&report.summary());
            summaries.push('\n');
        }
        shutdown_workers(master.inner()).unwrap();
    })
    .unwrap();
    summaries
}

/// [`seeded_soak`] with a tracer on a never-advanced [`ManualClock`]:
/// returns `(jsonl_trace, metrics_summary, report_summaries)`.
fn traced_soak(rounds: usize) -> (String, String, String) {
    let sink = Arc::new(VecSink::new());
    let obs = Obs::new(Arc::new(ManualClock::new()), Arc::clone(&sink) as _);
    let summaries = seeded_soak(rounds, obs.clone());
    (sink.to_jsonl(), obs.metrics.snapshot().summary(), summaries)
}

/// The tentpole assertion: identical seeds ⇒ byte-identical traces *and*
/// byte-identical metrics, run-to-run, with fresh threads and transports.
#[test]
fn identical_seeded_soaks_emit_byte_identical_traces_and_metrics() {
    let (trace_a, metrics_a, reports_a) = traced_soak(12);
    let (trace_b, metrics_b, reports_b) = traced_soak(12);

    assert!(!trace_a.is_empty(), "tracer recorded nothing");
    assert_eq!(trace_a, trace_b, "seeded trace diverged between runs");
    assert_eq!(metrics_a, metrics_b, "seeded metrics diverged between runs");
    assert_eq!(reports_a, reports_b, "report summaries diverged");

    // Pinned across builds too. The allocation meters are left out: what
    // a forward allocates depends on the kernel thread count.
    let metrics_pinned: String = metrics_a
        .lines()
        .filter(|l| !(l.contains(" expert.") && l.contains(".alloc_")))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(
        fnv1a64(&trace_a),
        0x8CBF_BF94_FB85_8BB0,
        "trace JSONL moved"
    );
    assert_eq!(
        fnv1a64(&metrics_pinned),
        0xD251_1DA2_2D23_DF3C,
        "metrics summary moved"
    );
    assert_eq!(
        fnv1a64(&reports_a),
        0xF8AD_3E38_5E28_8EDC,
        "report transcript moved"
    );

    // The trace actually covers the protocol: every structural span the
    // runtime emits shows up, 12 rounds' worth.
    assert_eq!(
        trace_a.matches("\"ev\":\"enter\"").count(),
        trace_a.matches("\"ev\":\"exit\"").count(),
        "every span must close"
    );
    // 12 enters + 12 exits of the per-round root span.
    assert_eq!(trace_a.matches("\"name\":\"round\",").count(), 24);
    for name in [
        "round.broadcast",
        "round.send",
        "expert.forward",
        "round.gather",
        "gather.await",
        "entropy.argmin",
    ] {
        assert!(
            trace_a.contains(&format!("\"name\":\"{name}\"")),
            "span `{name}` missing from trace"
        );
    }

    // Metrics cover the session too: the detector counter exists (wired
    // via MasterConfig.obs) and span-duration histograms were fed.
    assert!(
        metrics_a.contains("counter detector.transitions"),
        "{metrics_a}"
    );
    assert!(
        metrics_a.contains("histogram span.round.ns:"),
        "{metrics_a}"
    );
}

/// A traced run and an untraced run of the same seed perform the same
/// protocol work: tracing must observe, never perturb. The report
/// summaries (winners, health walks, discard counts) are the evidence:
/// the untraced transcript must hit the pin the traced one is held to
/// above, which also pins it across runs and builds.
#[test]
fn tracing_does_not_perturb_protocol_outcomes() {
    let untraced = seeded_soak(12, Obs::disabled());
    assert_eq!(
        fnv1a64(&untraced),
        0xF8AD_3E38_5E28_8EDC,
        "untraced report transcript moved:\n{untraced}"
    );
}

/// Bucket-boundary spot checks at the integration level, mirroring the
/// exhaustive unit tests in `teamnet_obs::metrics`: 0, 1, u64::MAX and
/// exact powers of two land where the log2 scheme says they must.
#[test]
fn histogram_bucket_boundaries_hold() {
    use teamnet_obs::Histogram;
    let h = Histogram::new();
    for v in [0u64, 1, 2, 4, 1 << 32, u64::MAX] {
        h.observe(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 6);
    let exps: Vec<u32> = snap.buckets.iter().map(|b| b.exp).collect();
    // 0 -> bucket 0; 1 -> bucket 1; 2 -> bucket 2; 4 -> bucket 3;
    // 2^32 -> bucket 33; u64::MAX -> bucket 64.
    assert_eq!(exps, vec![0, 1, 2, 3, 33, 64]);
    assert_eq!(snap.quantile(0), 0);
    assert_eq!(snap.p50(), 3, "p50 reports the bucket upper bound");
    assert_eq!(snap.p99(), u64::MAX);
}
