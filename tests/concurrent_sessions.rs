//! Regression test for round-stamp misattribution under concurrent
//! sessions (ISSUE 9 satellite 1).
//!
//! Round stamps were made process-unique in PR 2 so a late reply can
//! never alias a later round — but the transport mailbox is keyed
//! `(peer, tag)` only, so when two [`InferenceSession`]s gather over one
//! shared endpoint, session A's blocking recv can consume the frame
//! stamped with session B's round. Before the cross-session round
//! router, A discarded that frame as stale and B starved to a timeout:
//! with `require_all_workers` set, a spurious round failure with every
//! worker alive and answering. The router parks mis-delivered frames for
//! the session that owns the stamp; this test pins the fix by hammering
//! two interleaved strict-mode sessions over a duplicate-heavy
//! `ChaosTransport` and requiring every round to succeed.

use std::time::Duration;
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
/// corruption — those would fail strict rounds for unrelated reasons.
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
        // endpoint. Strict mode: any mis-routed reply that starves its
        // owning session fails the whole test.
        let sessions: Vec<_> = (0..2u64)
            .map(|tenant| {
                let chaos = &chaos;
                scope.spawn(move |_| {
                    let config = MasterConfig {
                        worker_timeout: Duration::from_millis(500),
                        require_all_workers: true,
                        ..MasterConfig::default()
                    };
                    let mut session = InferenceSession::new(chaos, config);
                    let mut master_expert = expert(0);
                    for round in 0..ROUNDS_PER_SESSION {
                        let fill = 0.1 + tenant as f32 * 0.4 + round as f32 * 0.02;
                        let images = Tensor::full([2, 1, 28, 28], fill);
                        let report = session
                            .infer(chaos, &mut master_expert, &images)
                            .unwrap_or_else(|e| {
                                panic!("tenant {tenant} round {round} starved: {e}")
                            });
                        assert_eq!(report.predictions.len(), 2);
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
