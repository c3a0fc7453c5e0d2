//! Collaborative inference under injected network chaos — a live demo of
//! the fault-tolerant protocol layer: round-stamped envelopes, the
//! quarantine/readmission failure detector, and per-round health reports.
//!
//! ```text
//! cargo run --release --example chaos_inference
//! ```
//!
//! A 3-node cluster runs 30 inference rounds while every endpoint's
//! outbound traffic passes through a seeded [`ChaosTransport`] that drops,
//! delays, corrupts and duplicates messages. Midway through, worker 2 is
//! black-holed entirely; the failure detector quarantines it (so its
//! timeout stops taxing every round), and the recovery subsystem ships
//! expert 2's weights to worker 1 — which has certified spare memory —
//! in one CRC-checked `LoadExpert` offer, so the full team keeps
//! answering while the node is gone. Once the link heals,
//! a probe readmits worker 2 and the expert is handed back to it.
//!
//! Set `TEAMNET_TRACE=/path/to/trace.jsonl` to record the master's span
//! trace (round / broadcast / expert.forward / gather / argmin) through a
//! [`JsonlSink`], then render the latency table with:
//!
//! ```text
//! TEAMNET_TRACE=trace.jsonl cargo run --release --example chaos_inference
//! cargo xtask trace-report trace.jsonl
//! ```
//!
//! Independently of the full trace, a fixed-capacity flight recorder is
//! always armed: the last 256 trace events circulate in a [`RingSink`]
//! (zero steady-state allocation), and the moment the failure detector
//! quarantines worker 2 the runtime dumps the ring to
//! `target/flight/flight-<n>.jsonl` — the dump's final line is the
//! `flight.quarantine` mark naming the peer and round that triggered it.

use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{
    build_expert, FailureDetectorConfig, HostBudget, PeerHealth, RecoveryConfig, RecoveryManager,
};
use teamnet_net::{ChannelTransport, ChaosConfig, ChaosTransport, SystemClock, Transport};
use teamnet_nn::ModelSpec;
use teamnet_obs::{wrap::fold_transport_stats, JsonlSink, NullSink, Obs, TraceSink};
use teamnet_tensor::Tensor;

const ROUNDS: usize = 30;

fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_prob: 0.10,
        delay_prob: 0.08,
        corrupt_prob: 0.05,
        duplicate_prob: 0.08,
        max_delay_msgs: 3,
    }
}

fn health_glyph(h: PeerHealth) -> &'static str {
    match h {
        PeerHealth::Live => "live",
        PeerHealth::Suspect => "suspect",
        PeerHealth::Quarantined => "QUARANTINED",
        PeerHealth::Probing => "probing",
    }
}

fn main() {
    let spec = ModelSpec::mlp(2, 32);
    let mut mesh = ChannelTransport::mesh(3);
    let worker2 = ChaosTransport::with_config(mesh.pop().expect("node 2"), chaos(0xBEE2));
    let worker1 = ChaosTransport::with_config(mesh.pop().expect("node 1"), chaos(0xBEE1));
    let master = ChaosTransport::with_config(mesh.pop().expect("node 0"), chaos(0xBEE0));

    // TEAMNET_TRACE=<path> records the master's full trace; either way
    // the flight recorder is armed: the last 256 events circulate in a
    // ring and anomaly paths (quarantine, round failure) dump them.
    let flight_dir = std::path::Path::new("target/flight");
    let primary: Arc<dyn TraceSink> = match std::env::var("TEAMNET_TRACE") {
        Ok(path) => {
            let sink = JsonlSink::create(&path).expect("create trace file");
            println!("tracing master session to {path}");
            Arc::new(sink)
        }
        Err(_) => Arc::new(NullSink),
    };
    let obs = Obs::with_flight_recorder(Arc::new(SystemClock), primary, 256, flight_dir);

    let config = MasterConfig {
        worker_timeout: Duration::from_millis(150),
        failure: FailureDetectorConfig {
            quarantine_after: 2,
            probe_interval: 3,
        },
        obs: obs.clone(),
        ..MasterConfig::default()
    };

    crossbeam::thread::scope(|scope| {
        for (i, node) in [&worker1, &worker2].into_iter().enumerate() {
            let spec = spec.clone();
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, i as u64 + 1);
                // Each worker certifies spare memory, so it can host a
                // quarantined peer's expert next to its own.
                let worker_config = WorkerConfig {
                    budget: HostBudget::new(512 << 20, 64 << 20),
                    ..WorkerConfig::default()
                };
                let stats =
                    serve_worker_with_config(node, 0, &mut expert, worker_config).expect("worker");
                println!(
                    "worker {} done: {} rounds served, {} probes answered, {} bad batches skipped, \
                     {} expert loads hosted",
                    i + 1,
                    stats.rounds_served,
                    stats.probes_answered,
                    stats.malformed_skipped,
                    stats.loads_accepted
                );
            });
        }

        let mut session = InferenceSession::new(&master, config);
        // Register every worker's expert (architecture + trained weights +
        // certified resident footprint) and each node's memory budget, so
        // a quarantined node's expert can be re-placed on a survivor.
        let mut recovery = RecoveryManager::new(RecoveryConfig {
            ack_timeout: Duration::from_millis(300),
            obs: obs.clone(),
            ..RecoveryConfig::default()
        });
        for node in 1..3usize {
            let mut twin = build_expert(&spec, node as u64);
            let state = teamnet_nn::state_vec(&mut twin);
            recovery.register_expert(node, node, spec.clone(), &state, 1 << 20);
            recovery.register_budget(node, HostBudget::new(512 << 20, 64 << 20));
        }
        session.set_recovery(recovery);
        let mut expert = build_expert(&spec, 0);
        println!("30 rounds of inference under seeded chaos (worker 2 dies at round 10, heals at round 18):\n");
        let mut prev_migrations = 0;
        let mut was_away = false;
        for round in 0..ROUNDS {
            if round == 10 {
                master.blackhole(2);
                println!("--- black-holing worker 2 ---");
            }
            if round == 18 {
                master.heal(2);
                println!("--- link to worker 2 healed ---");
            }
            let images = Tensor::full([2, 1, 28, 28], (round % 5) as f32 * 0.2);
            let start = Instant::now();
            let report = session.infer(&master, &mut expert, &images).expect("infer");
            let winners: Vec<usize> = report.predictions.iter().map(|p| p.expert).collect();
            let health: Vec<String> = report
                .peers
                .iter()
                .filter(|(&i, _)| i != 0)
                .map(|(i, p)| format!("w{i}={}", health_glyph(p.health)))
                .collect();
            let away: Vec<String> = report
                .expert_hosts
                .iter()
                .filter(|&(&e, &h)| e != h)
                .map(|(e, h)| format!("expert {e}@w{h}"))
                .collect();
            println!(
                "round {round:>2} ({:>5.0?}): winners {winners:?}  {}  [stale {} corrupt {} malformed {}]{}",
                start.elapsed(),
                health.join(" "),
                report.stale_discarded,
                report.corrupt_discarded,
                report.malformed_discarded,
                if away.is_empty() {
                    String::new()
                } else {
                    format!("  hosting: {}", away.join(" "))
                }
            );
            if report.migrations > prev_migrations && !away.is_empty() {
                println!("--- re-placed: {} ---", away.join(" "));
            }
            prev_migrations = report.migrations;
            if was_away && away.is_empty() {
                println!("--- expert handed back to its readmitted home ---");
            }
            was_away = !away.is_empty();
        }

        let stats = master.stats();
        println!(
            "\nmaster chaos stats: {} sent, {} dropped, {} delayed, {} corrupted, {} duplicated",
            stats.messages_sent,
            stats.messages_dropped,
            stats.messages_delayed,
            stats.messages_corrupted,
            stats.messages_duplicated
        );
        // Fold the transport's fault counters into the metrics registry so
        // the snapshot below is the one place that tells the whole story.
        fold_transport_stats(&obs.metrics, "master.transport", &stats);
        if obs.enabled() {
            obs.tracer.flush();
            println!("\nsession metrics:\n{}", obs.metrics.snapshot().summary());
        }
        let dumps = obs.flight.as_ref().map_or(0, |f| f.dump_count());
        println!("\nflight recorder: {dumps} dump(s) in {}", flight_dir.display());
        if dumps > 0 {
            let first = flight_dir.join("flight-0.jsonl");
            let text = std::fs::read_to_string(&first).expect("read flight dump");
            let last = text.lines().last().expect("non-empty dump");
            assert!(
                last.contains("flight.quarantine"),
                "flight dump must end with the triggering transition, got: {last}"
            );
            println!(
                "  {} ends with the triggering transition: {last}",
                first.display()
            );
        }
        shutdown_workers(master.inner()).expect("shutdown");
    })
    .expect("scope");
}
