//! Recovery soak: a 4-node cluster under seeded chaos where one worker is
//! *permanently* lost mid-session (it walks out of WiFi range and never
//! returns). The failure detector must quarantine it, the recovery
//! subsystem must re-place its expert onto a surviving node with certified
//! spare memory, and every later round must answer with the *full* team —
//! the surviving host serves both its own expert and the orphan, so
//! arg-min entropy selection sees exactly what it saw before the failure.
//!
//! All faults are drawn from per-node seeded PRNGs and every recovery
//! deadline runs on a [`ManualClock`], so the whole session — including
//! the migration — replays byte-for-byte from the session seed.

use std::sync::Arc;
use std::time::Duration;
use teamnet_core::health::InferenceReport;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
    TAG_INPUT,
};
use teamnet_core::{
    build_expert, FailureDetectorConfig, HostBudget, RecoveryConfig, RecoveryManager,
};
use teamnet_net::{
    ChannelTransport, ChaosConfig, ChaosTransport, Envelope, ManualClock, PayloadKind, Transport,
};
use teamnet_nn::{state_vec, ModelSpec, Sequential};
use teamnet_tensor::Tensor;

const ROUNDS: usize = 14;
/// Worker 1 is lost for good before this round's broadcast.
const BLACKHOLE_AT: usize = 5;
/// `quarantine_after = 2` misses → quarantined (and re-placed by the same
/// round's recovery pass) at the end of round `BLACKHOLE_AT + 1`; from
/// this round on, coverage must be full again.
const RECOVERED_FROM: usize = BLACKHOLE_AT + 2;

/// One knob replays the whole soak, failure schedule and all.
const SESSION_SEED: u64 = 0x7EA4_0001;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// FNV-1a-64: pins the transcript across *builds*, where comparing two
/// runs of one build only pins it across runs.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn chaos(node_seed: u64) -> ChaosConfig {
    // No reorder-delays: with drops, corruption and duplicates the
    // staleness paths are all exercised (a duplicated ack is stale to the
    // transfer, which concludes on its first ack) while outcomes stay
    // purely message-driven (a live in-process reply always beats the
    // generous deadlines, so timing never decides anything).
    ChaosConfig {
        seed: SESSION_SEED ^ node_seed,
        drop_prob: 0.05,
        delay_prob: 0.0,
        corrupt_prob: 0.03,
        duplicate_prob: 0.08,
        max_delay_msgs: 2,
    }
}

fn recovery_manager() -> RecoveryManager {
    let mut mgr = RecoveryManager::new(RecoveryConfig {
        ack_timeout: Duration::from_millis(400),
        clock: Arc::new(ManualClock::new()),
        ..RecoveryConfig::default()
    });
    for e in 1..4usize {
        let mut model = expert(e as u64);
        let state = state_vec(&mut model);
        mgr.register_expert(e, e, ModelSpec::mlp(2, 16), &state, 60_000);
        mgr.register_budget(e, HostBudget::new(1 << 30, 1 << 20));
    }
    mgr
}

/// Runs the full black-hole scenario and returns every round's report
/// plus a byte-comparable transcript (round-free summaries + the final
/// recovery counters).
fn run_soak() -> (Vec<InferenceReport>, String) {
    let mut mesh = ChannelTransport::mesh(4);
    let worker3 = ChaosTransport::with_config(mesh.pop().unwrap(), chaos(0xE3));
    let worker2 = ChaosTransport::with_config(mesh.pop().unwrap(), chaos(0xE2));
    let worker1 = ChaosTransport::with_config(mesh.pop().unwrap(), chaos(0xE1));
    let master = ChaosTransport::with_config(mesh.pop().unwrap(), chaos(0xE0));

    let config = MasterConfig {
        worker_timeout: Duration::from_millis(800),
        failure: FailureDetectorConfig {
            quarantine_after: 2,
            probe_interval: 3,
        },
        ..MasterConfig::default()
    };

    let mut reports = Vec::new();
    let mut transcript = String::new();
    crossbeam::thread::scope(|scope| {
        let mut lost = Some(scope.spawn(|_| {
            let mut e = expert(1);
            serve_worker_with_config(&worker1, 0, &mut e, WorkerConfig::default()).unwrap();
        }));
        for (node, seed) in [(&worker2, 2u64), (&worker3, 3u64)] {
            scope.spawn(move |_| {
                let mut e = expert(seed);
                serve_worker_with_config(
                    node,
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 1 << 20),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap();
            });
        }

        let mut session = InferenceSession::new(&master, config);
        session.set_recovery(recovery_manager());
        let mut master_expert = expert(0);
        for round in 0..ROUNDS {
            if round == BLACKHOLE_AT {
                // Out of range, permanently. The worker first answers what
                // it has already been sent (a duplicated frame may still
                // be queued) and stops, over the fault-free path: cutting
                // its link from this thread while it may still be
                // replying would let thread timing decide whether a late
                // reply gets out, and the transcript with it.
                let stop = Envelope::new(0, PayloadKind::Shutdown, Vec::new()).encode();
                master.inner().send(1, TAG_INPUT, &stop).unwrap();
                if let Some(worker) = lost.take() {
                    worker.join().unwrap();
                }
                master.blackhole(1);
            }
            let images = Tensor::full([2, 1, 28, 28], (round % 7) as f32 * 0.1);
            let report = session
                .infer(&master, &mut master_expert, &images)
                .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
            transcript.push_str(&report.summary());
            transcript.push('\n');
            reports.push(report);
        }
        let recovery = session.recovery().unwrap();
        transcript.push_str(&format!(
            "final: migrations={} backtracks={} handbacks={}\n",
            recovery.migrations(),
            recovery.backtracks(),
            recovery.handbacks()
        ));

        // Shutdown travels the fault-free inner path so it reaches even
        // the black-holed worker.
        shutdown_workers(master.inner()).unwrap();
    })
    .unwrap();
    (reports, transcript)
}

#[test]
fn blackholed_workers_expert_is_replaced_and_coverage_restored() {
    let (reports, _) = run_soak();
    assert_eq!(reports.len(), ROUNDS);

    // Before the failure, every expert lives at home.
    for report in &reports[..BLACKHOLE_AT] {
        assert_eq!(report.expert_hosts[&1], 1, "{report:?}");
    }

    // After the grace window the orphan is re-placed on a survivor, for
    // good (the home never comes back), and the full team answers: every
    // round's predictions are exactly what an in-process 4-expert team
    // computes, whenever all surviving nodes got their results through.
    let mut local_team = teamnet_core::TeamNet::from_experts(
        ModelSpec::mlp(2, 16),
        vec![expert(0), expert(1), expert(2), expert(3)],
    );
    let mut full_rounds = 0usize;
    for (round, report) in reports.iter().enumerate().skip(RECOVERED_FROM) {
        let host = report.expert_hosts[&1];
        assert_ne!(host, 1, "round {round}: orphan still on the dead node");
        assert!(
            report.peers.contains_key(&host),
            "round {round}: {report:?}"
        );
        let responsive = report.responsive_peers();
        if !responsive.contains(&host) || !responsive.contains(&2) || !responsive.contains(&3) {
            continue; // a chaos-dropped reply legitimately degrades a round
        }
        let images = Tensor::full([2, 1, 28, 28], (round % 7) as f32 * 0.1);
        let expected = local_team.predict(&images);
        assert_eq!(report.predictions.len(), expected.len());
        for (g, e) in report.predictions.iter().zip(&expected) {
            assert_eq!(g.label, e.label, "round {round}");
            assert_eq!(g.expert, e.expert, "round {round}");
            assert!((g.entropy - e.entropy).abs() < 1e-5, "round {round}");
        }
        full_rounds += 1;
    }
    assert!(
        full_rounds >= (ROUNDS - RECOVERED_FROM) / 2,
        "only {full_rounds} fully-covered rounds after recovery"
    );
    let last = reports.last().unwrap();
    assert!(last.migrations >= 1, "{last:?}");
}

/// The replayability claim for recovery: two soaks from the same session
/// seed — including quarantine, candidate ranking, the one-frame transfer
/// and the re-homed gather — must report byte-identical transcripts.
#[test]
fn identical_seeds_replay_the_migration_byte_for_byte() {
    let (_, first) = run_soak();
    let (_, second) = run_soak();
    assert!(first.contains("recovery: migrations=1"), "{first}");
    assert!(first.contains("final:"), "{first}");
    assert_eq!(first, second, "seeded recovery soak diverged between runs");
    assert_eq!(
        fnv1a64(&first),
        0x2260_BB87_6613_300E,
        "recovery transcript moved"
    );
}
