//! Regression tests for round-stamp misattribution under concurrent
//! sessions.
//!
//! Round stamps are process-unique, so a late reply can never alias a
//! later round — but the transport mailbox is keyed `(peer, tag)` only,
//! so when two [`InferenceSession`]s gather over one shared endpoint,
//! session A's blocking recv can consume the frame stamped with session
//! B's round. Discarding it as stale starves B: its peer reads as a miss
//! with every worker alive and answering; setting it aside for B still
//! leaves B asleep on the mailbox until its own receive times out. So
//! each result wait takes only the frames stamped for its own round (or
//! for no live round) and leaves B's queued, where its delivery has
//! already woken B. A starved peer does not fail the round, so both
//! tests require every round's report to name the whole team as having
//! answered. The first hammers two interleaved sessions over a
//! duplicate-heavy `ChaosTransport`; the second requires that no round
//! of two sessions on one plain endpoint sits out its timeout.

use std::time::{Duration, Instant};
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_net::{ChannelTransport, ChaosConfig, ChaosTransport};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_tensor::Tensor;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// Duplicates only: a duplicated broadcast makes workers re-serve old
/// rounds, so extra stale-stamped replies float around the shared
/// mailbox on top of the two sessions' interleaved gathers. No drops or
/// corruption — those would starve a peer for unrelated reasons.
fn duplicate_heavy(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_prob: 0.0,
        delay_prob: 0.0,
        corrupt_prob: 0.0,
        duplicate_prob: 0.3,
        max_delay_msgs: 0,
    }
}

#[test]
fn two_concurrent_sessions_share_a_transport_without_starving() {
    const ROUNDS_PER_SESSION: usize = 8;
    let mut nodes = ChannelTransport::mesh(3);
    let worker2_node = nodes.pop().expect("node 2");
    let worker1_node = nodes.pop().expect("node 1");
    let master_node = nodes.pop().expect("node 0");
    let chaos = ChaosTransport::with_config(master_node, duplicate_heavy(0xC0_11_1D_E5));

    crossbeam::thread::scope(|scope| {
        scope.spawn(|_| {
            let mut e = expert(1);
            serve_worker_with_config(&worker1_node, 0, &mut e, WorkerConfig::default()).unwrap();
        });
        scope.spawn(|_| {
            let mut e = expert(2);
            serve_worker_with_config(&worker2_node, 0, &mut e, WorkerConfig::default()).unwrap();
        });

        // Two sessions gather concurrently over the *same* master
        // endpoint: any mis-routed reply that starves its owning session
        // fails the whole test.
        let sessions: Vec<_> = (0..2u64)
            .map(|tenant| {
                let chaos = &chaos;
                scope.spawn(move |_| {
                    let config = MasterConfig {
                        worker_timeout: Duration::from_millis(500),
                        ..MasterConfig::default()
                    };
                    let mut session = InferenceSession::new(chaos, config);
                    let mut master_expert = expert(0);
                    for round in 0..ROUNDS_PER_SESSION {
                        let fill = 0.1 + tenant as f32 * 0.4 + round as f32 * 0.02;
                        let images = Tensor::full([2, 1, 28, 28], fill);
                        let report = session
                            .infer(chaos, &mut master_expert, &images)
                            .unwrap_or_else(|e| panic!("tenant {tenant} round {round}: {e}"));
                        assert_eq!(report.predictions.len(), 2);
                        assert_eq!(
                            report.responsive_peers(),
                            vec![0, 1, 2],
                            "tenant {tenant} round {round} starved"
                        );
                    }
                })
            })
            .collect();
        for s in sessions {
            s.join().unwrap();
        }
        shutdown_workers(chaos.inner()).unwrap();
    })
    .unwrap();
}

/// Two sessions on one plain master endpoint, many rounds each:
/// whenever one session's wait is asleep on the mailbox while the other's
/// reply lands there, the reply must wake the session it is for at once.
/// A round that sits out the full `worker_timeout` (2 s) fails the test
/// even though it succeeds; the bound on a round is half of that.
#[test]
fn a_siblings_reply_never_stalls_a_round_to_its_timeout() {
    const ROUNDS_PER_SESSION: usize = 500;
    let nodes = ChannelTransport::mesh(4);
    let [master, worker1, worker2, worker3] = &nodes[..] else {
        unreachable!("a mesh of 4");
    };

    crossbeam::thread::scope(|scope| {
        for (seed, worker) in [(1, worker1), (2, worker2), (3, worker3)] {
            scope.spawn(move |_| {
                let mut e = expert(seed);
                serve_worker_with_config(worker, 0, &mut e, WorkerConfig::default()).unwrap();
            });
        }
        let sessions: Vec<_> = (0..2u64)
            .map(|tenant| {
                scope.spawn(move |_| {
                    let config = MasterConfig {
                        worker_timeout: Duration::from_secs(2),
                        ..MasterConfig::default()
                    };
                    let mut session = InferenceSession::new(master, config);
                    let mut master_expert = expert(0);
                    let images = Tensor::full([1, 1, 28, 28], 0.1 + tenant as f32 * 0.4);
                    let mut worst = Duration::ZERO;
                    for round in 0..ROUNDS_PER_SESSION {
                        let t0 = Instant::now();
                        let report = session
                            .infer(master, &mut master_expert, &images)
                            .unwrap_or_else(|e| panic!("tenant {tenant} round {round}: {e}"));
                        worst = worst.max(t0.elapsed());
                        assert_eq!(
                            report.responsive_peers(),
                            vec![0, 1, 2, 3],
                            "tenant {tenant} round {round} starved"
                        );
                    }
                    worst
                })
            })
            .collect();
        let worst: Vec<Duration> = sessions.into_iter().map(|s| s.join().unwrap()).collect();
        shutdown_workers(master).unwrap();
        for (tenant, worst) in worst.iter().enumerate() {
            assert!(
                *worst < Duration::from_secs(1),
                "tenant {tenant}: a round took {worst:?}"
            );
        }
    })
    .unwrap();
}
