//! Fault-tolerance integration tests for the collaborative inference
//! protocol: stale-reply discarding, failure-detector quarantine and
//! readmission, over both in-process channels and real TCP.
//!
//! Everything here is deterministic: faults are seeded or explicit
//! (blackholes), and every ordering constraint is enforced by blocking
//! message receives — never by sleeping and hoping.

use std::time::Duration;
use teamnet_core::runtime::{
    encode_results, serve_worker_with_config, InferenceSession, MasterConfig, WorkerConfig,
    TAG_INPUT, TAG_RESULT,
};
use teamnet_core::{build_expert, ContactPlan, FailureDetectorConfig, PeerHealth};
use teamnet_net::{
    ChannelTransport, ChaosTransport, Envelope, ManualClock, PayloadKind, TcpTransport, Transport,
};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_tensor::Tensor;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// A reply from round N that arrives during round N+1 must be discarded,
/// not scored. The fake worker here withholds its round-1 reply, then —
/// once round 2's input proves the master has moved on — sends a poisoned
/// round-1 result (entropy 0.0: it would win every row if consumed)
/// followed by an honest round-2 result.
#[test]
fn stale_reply_from_previous_round_is_never_consumed() {
    let nodes = ChannelTransport::mesh(2);
    let images = Tensor::full([2, 1, 28, 28], 0.4);
    let poisoned_label = 9usize;

    crossbeam::thread::scope(|scope| {
        let worker_node = &nodes[1];
        scope.spawn(move |_| {
            // Round 1: take the input, never answer (the master times out).
            let bytes = worker_node
                .recv(0, TAG_INPUT, Duration::from_secs(10))
                .unwrap();
            let round1 = Envelope::decode(&bytes).unwrap().round;

            // Round 2's input arriving proves the master gave up on round 1.
            let bytes = worker_node
                .recv(0, TAG_INPUT, Duration::from_secs(10))
                .unwrap();
            let round2 = Envelope::decode(&bytes).unwrap().round;
            assert_ne!(round1, round2);

            // The late round-1 reply lands first, then the honest one.
            let poisoned = encode_results(&[(poisoned_label, 0.0), (poisoned_label, 0.0)]);
            let stale = Envelope::new(round1, PayloadKind::Result, poisoned);
            worker_node.send(0, TAG_RESULT, &stale.encode()).unwrap();
            let honest = encode_results(&[(3, 10.0), (3, 10.0)]);
            let fresh = Envelope::new(round2, PayloadKind::Result, honest);
            worker_node.send(0, TAG_RESULT, &fresh.encode()).unwrap();
        });

        let config = MasterConfig {
            worker_timeout: Duration::from_millis(200),
            ..MasterConfig::default()
        };
        let mut session = InferenceSession::new(&nodes[0], config);
        let mut master_expert = expert(0);

        // Round 1: the worker stays silent, the master answers locally.
        let r1 = session
            .infer(&nodes[0], &mut master_expert, &images)
            .unwrap();
        assert!(!r1.peers[&1].responded);
        assert!(r1.predictions.iter().all(|p| p.expert == 0));

        // Round 2: the stale reply arrives first and must be discarded;
        // the honest reply (entropy 10.0, losing) must be the one scored.
        let r2 = session
            .infer(&nodes[0], &mut master_expert, &images)
            .unwrap();
        assert_eq!(r2.stale_discarded, 1, "{r2:?}");
        assert!(r2.peers[&1].responded);
        for p in &r2.predictions {
            assert_eq!(p.expert, 0, "stale reply was consumed: {p:?}");
            assert_ne!(p.label, poisoned_label);
            assert_ne!(p.entropy, 0.0);
        }
    })
    .unwrap();
}

/// Detector policy used by the quarantine tests: quarantine after 2
/// consecutive misses, probe every 3rd round thereafter.
fn quarantine_config() -> MasterConfig {
    MasterConfig {
        worker_timeout: Duration::from_millis(100),
        // The worker's entropy is scaled way down, the master's way up:
        // whenever the worker answers, it wins every row.
        calibration: Some(vec![1e3, 1e-3]),
        failure: FailureDetectorConfig {
            quarantine_after: 2,
            probe_interval: 3,
        },
        ..MasterConfig::default()
    }
}

/// Drives a full outage/recovery cycle against a live worker loop on
/// node 1, with the master's outbound traffic chaos-wrapped so the worker
/// can be black-holed and healed on demand.
fn quarantine_readmission_cycle<T: Transport>(master_node: T, worker_node: &T) {
    let chaos = ChaosTransport::new(master_node);
    let images = Tensor::full([2, 1, 28, 28], 0.6);

    crossbeam::thread::scope(|scope| {
        scope.spawn(move |_| {
            let mut worker_expert = expert(1);
            serve_worker_with_config(worker_node, 0, &mut worker_expert, WorkerConfig::default())
                .unwrap();
        });

        let mut session = InferenceSession::new(&chaos, quarantine_config());
        let mut master_expert = expert(0);
        let mut round = |session: &mut InferenceSession| {
            session.infer(&chaos, &mut master_expert, &images).unwrap()
        };

        // Healthy rounds: the worker wins every row.
        for _ in 0..2 {
            let r = round(&mut session);
            assert_eq!(r.peers[&1].health, PeerHealth::Live);
            assert!(r.predictions.iter().all(|p| p.expert == 1));
        }

        // Outage: two missed rounds walk the worker into quarantine.
        chaos.blackhole(1);
        let r = round(&mut session);
        assert_eq!(r.peers[&1].health, PeerHealth::Suspect);
        let r = round(&mut session);
        assert_eq!(r.peers[&1].health, PeerHealth::Quarantined);

        // Quarantined: skipped outright (no contact, no gather wait).
        for _ in 0..2 {
            let r = round(&mut session);
            assert!(!r.peers[&1].contacted, "{r:?}");
            assert_eq!(r.peers[&1].health, PeerHealth::Quarantined);
            assert!(r.predictions.iter().all(|p| p.expert == 0));
        }

        // Probe due on the 3rd skipped round — still black-holed, so the
        // probe misses and the quarantine clock restarts.
        let r = round(&mut session);
        assert!(r.peers[&1].probed, "{r:?}");
        assert!(!r.peers[&1].responded);
        assert_eq!(r.peers[&1].health, PeerHealth::Quarantined);

        // Recovery: heal the link, wait out the probe interval, and the
        // next probe readmits the worker.
        chaos.heal(1);
        for _ in 0..2 {
            let r = round(&mut session);
            assert!(!r.peers[&1].contacted);
        }
        let r = round(&mut session);
        assert!(r.peers[&1].probed, "{r:?}");
        assert!(r.peers[&1].responded);
        assert_eq!(r.peers[&1].health, PeerHealth::Live);
        // A probe round proves liveness but carries no rows.
        assert!(r.predictions.iter().all(|p| p.expert == 0));

        // Readmitted: full contact, worker wins rows again.
        let r = round(&mut session);
        assert!(!r.peers[&1].probed);
        assert!(r.peers[&1].responded);
        assert!(r.predictions.iter().all(|p| p.expert == 1), "{r:?}");

        assert_eq!(session.detector().health(1), PeerHealth::Live);
        teamnet_core::runtime::shutdown_workers(chaos.inner()).unwrap();
    })
    .unwrap();
}

#[test]
fn quarantine_and_readmission_over_channels() {
    let mut nodes = ChannelTransport::mesh(2);
    let worker = nodes.pop().unwrap();
    let master = nodes.pop().unwrap();
    quarantine_readmission_cycle(master, &worker);
}

#[test]
fn quarantine_and_readmission_over_tcp() {
    let mut nodes = TcpTransport::mesh_localhost(2).unwrap();
    let worker = nodes.pop().unwrap();
    let master = nodes.pop().unwrap();
    quarantine_readmission_cycle(master, &worker);
}

/// The failure detector's contact plan is what keeps a dead peer from
/// taxing every round: once quarantined, `plan` must return `Skip` (not
/// `Full`) so the master never waits on the timeout again.
///
/// Time is observed through an injected [`ManualClock`] instead of racing
/// a wall-clock budget: every deadline the session computes comes from the
/// manual clock, which only the test could move — immune to scheduler
/// stalls. Nothing on the round's path sleeps (`cargo xtask audit`'s
/// `det-sleep` rule).
#[test]
fn quarantined_rounds_skip_the_gather_wait() {
    let clock = std::sync::Arc::new(ManualClock::new());
    let nodes = ChannelTransport::mesh(2);
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(80),
        failure: FailureDetectorConfig {
            quarantine_after: 1,
            probe_interval: 100,
        },
        clock: clock.clone(),
        ..MasterConfig::default()
    };
    let mut session = InferenceSession::new(&nodes[0], config);
    let mut master_expert = expert(0);
    let images = Tensor::full([1, 1, 28, 28], 0.2);

    // One miss quarantines the (nonexistent) worker.
    session
        .infer(&nodes[0], &mut master_expert, &images)
        .unwrap();
    assert_eq!(session.detector().health(1), PeerHealth::Quarantined);

    // Subsequent rounds skip the worker entirely: no contact and no clock
    // motion the session itself initiated.
    for _ in 0..5 {
        let r = session
            .infer(&nodes[0], &mut master_expert, &images)
            .unwrap();
        assert!(!r.peers[&1].contacted, "{r:?}");
        assert!(!r.peers[&1].probed, "{r:?}");
    }
    assert_eq!(clock.elapsed(), Duration::ZERO);
}

/// `ContactPlan` is part of the public API surface; make sure the plan for
/// an unknown peer is conservative.
#[test]
fn plan_for_unknown_peer_is_skip() {
    let mut detector = teamnet_core::FailureDetector::new(1, FailureDetectorConfig::default());
    assert_eq!(detector.plan(5), ContactPlan::Skip);
}
