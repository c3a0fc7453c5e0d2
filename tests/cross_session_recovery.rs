//! Regression tests for round-stamp misattribution between a gather and a
//! recovery transfer that share one master endpoint.
//!
//! `tests/concurrent_sessions.rs` covers two *gathers*. A recovery
//! transfer waits for its acks on the same `(peer, TAG_RESULT)` mailbox
//! key, so the two kinds of wait can pull each other's frames as well:
//! the transfer's ack wait used to consume and discard a sibling round's
//! `Result` (the sibling starved to its deadline), and a gather used to
//! count a live transfer's `LoadAck` as stale (the transfer recovered
//! only by resending after `ack_timeout`). Both waits now go through one
//! receive that parks a frame for the registered round that owns it.
//!
//! The tests are single-threaded and deterministic: "the sibling is in
//! the middle of its wait right now" is staged by a transport wrapper that
//! runs a scripted step at the moment a chosen blocking receive starts.

use std::sync::Mutex;
use std::time::Duration;
use teamnet_core::runtime::{
    encode_results, InferenceSession, MasterConfig, TAG_INPUT, TAG_RESULT,
};
use teamnet_core::{
    build_expert, AckStatus, LoadAckMsg, LoadExpertMsg, PeerHealth, RecoveryConfig, RecoveryManager,
};
use teamnet_net::{
    ChannelTransport, Envelope, NetError, NodeId, PayloadKind, RetryPolicy, Tag, Transport,
    TransportStats,
};
use teamnet_nn::{state_vec, ModelSpec};
use teamnet_obs::Obs;
use teamnet_tensor::Tensor;

const SOON: Duration = Duration::from_millis(500);

/// The master endpoint, with one scripted step that runs just before the
/// first blocking receive from `trigger_peer`.
struct Interleaved<'a> {
    inner: &'a ChannelTransport,
    trigger_peer: NodeId,
    step: Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>,
}

impl<'a> Interleaved<'a> {
    fn new(
        inner: &'a ChannelTransport,
        trigger_peer: NodeId,
        step: impl FnOnce() + Send + 'a,
    ) -> Self {
        Interleaved {
            inner,
            trigger_peer,
            step: Mutex::new(Some(Box::new(step))),
        }
    }
}

impl Transport for Interleaved<'_> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        self.inner.send(to, tag, payload)
    }

    fn recv_tags(
        &self,
        from: NodeId,
        tags: &[Tag],
        timeout: Duration,
    ) -> Result<(Tag, Vec<u8>), NetError> {
        if from == self.trigger_peer {
            let step = self.step.lock().unwrap().take();
            if let Some(step) = step {
                step();
            }
        }
        self.inner.recv_tags(from, tags, timeout)
    }

    fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(NodeId, Vec<u8>), NetError> {
        self.inner.recv_any(tag, timeout)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

fn spec() -> ModelSpec {
    ModelSpec::mlp(2, 16)
}

/// A recovery manager that gives up on a silent candidate quickly, with
/// expert 1 (home: node 1) registered for re-placement.
fn recovery_manager(obs: &Obs) -> RecoveryManager {
    let mut mgr = RecoveryManager::new(RecoveryConfig {
        ack_timeout: Duration::from_millis(60),
        transfer_timeout: Duration::from_millis(400),
        transfer_retry: RetryPolicy::none(),
        obs: obs.clone(),
        ..RecoveryConfig::default()
    });
    let state = state_vec(&mut build_expert(&spec(), 1));
    mgr.register_expert(1, 1, spec(), &state, 50_000);
    mgr
}

fn degraded(timeout_ms: u64, obs: &Obs) -> MasterConfig {
    MasterConfig {
        worker_timeout: Duration::from_millis(timeout_ms),
        require_all_workers: false,
        obs: obs.clone(),
        ..MasterConfig::default()
    }
}

/// Node 1's host is down as far as the recovery pass is concerned, so it
/// offers expert 1 to node 2.
const NODE_1_QUARANTINED: [PeerHealth; 3] =
    [PeerHealth::Live, PeerHealth::Quarantined, PeerHealth::Live];

#[test]
fn a_transfers_ack_wait_hands_a_siblings_result_to_its_round() {
    let nodes = ChannelTransport::mesh(3);
    let obs = Obs::disabled(); // tracer off, metrics registry live
    let mut mgr = recovery_manager(&obs);

    // The step runs when the session's gather (round R1) first blocks on
    // peer 1: both workers answer R1, and then a sibling's recovery pass
    // runs a whole transfer attempt (round R2) to node 2. Its ack wait
    // reads `(2, TAG_RESULT)`, where R1's result from peer 2 sits first.
    let master = Interleaved::new(&nodes[0], 1, || {
        let input = nodes[1].recv(0, TAG_INPUT, SOON).unwrap();
        nodes[2].recv(0, TAG_INPUT, SOON).unwrap();
        let r1 = Envelope::decode(&input).unwrap().round;
        for worker in [1usize, 2] {
            let rows = encode_results(&[(worker, 0.25)]);
            let reply = Envelope::new(r1, PayloadKind::Result, rows).encode();
            nodes[worker].send(0, TAG_RESULT, &reply).unwrap();
        }
        mgr.tick(&nodes[0], 0, &NODE_1_QUARANTINED, None);
    });

    let mut session = InferenceSession::new(&master, degraded(300, &obs));
    let mut master_expert = build_expert(&spec(), 0);
    let images = Tensor::full([1, 1, 28, 28], 0.5);
    let report = session.infer(&master, &mut master_expert, &images).unwrap();

    // Nobody served the transfer, so it failed — without costing the
    // round its reply from peer 2.
    assert!(report.peers[&1].responded, "{report:?}");
    assert!(
        report.peers[&2].responded,
        "peer 2's result was eaten by the transfer's ack wait: {report:?}"
    );
    assert_eq!(obs.metrics.counter("round.cross_session_parked").get(), 1);
    assert_eq!(obs.metrics.counter("round.cross_session_rescued").get(), 1);
    assert_eq!(report.stale_discarded, 0);
}

#[test]
fn a_gather_parks_a_live_transfers_ack_instead_of_counting_it_stale() {
    let nodes = ChannelTransport::mesh(3);
    let obs = Obs::disabled();
    let mut mgr = recovery_manager(&obs);
    let mut session = InferenceSession::new(&nodes[0], degraded(40, &obs));
    let mut stale_seen_by_gather = None;

    // The step runs when the transfer (round R2) first blocks waiting for
    // node 2's verdict on its offer: node 2 accepts, and before the
    // transfer gets to read the ack a sibling session runs a whole round
    // whose gather polls `(2, TAG_RESULT)` and finds the ack.
    let master = Interleaved::new(&nodes[0], 2, || {
        let offer = Envelope::decode(&nodes[2].recv(0, TAG_INPUT, SOON).unwrap()).unwrap();
        let LoadExpertMsg::Offer { expert, .. } = LoadExpertMsg::decode(&offer.payload).unwrap()
        else {
            panic!("expected an offer");
        };
        let accept = LoadAckMsg {
            expert,
            status: AckStatus::Accept,
            arg: 0,
        };
        let ack = Envelope::new(offer.round, PayloadKind::LoadAck, accept.encode());
        nodes[2].send(0, TAG_RESULT, &ack.encode()).unwrap();

        let mut master_expert = build_expert(&spec(), 0);
        let images = Tensor::full([1, 1, 28, 28], 0.5);
        let report = session
            .infer(&nodes[0], &mut master_expert, &images)
            .unwrap();
        stale_seen_by_gather = Some(report.stale_discarded);
    });
    mgr.tick(&master, 0, &NODE_1_QUARANTINED, None);
    drop(master);

    assert_eq!(stale_seen_by_gather, Some(0), "the ack is not stale");
    assert_eq!(obs.metrics.counter("round.cross_session_parked").get(), 1);
    assert_eq!(obs.metrics.counter("round.cross_session_rescued").get(), 1);
    // The accept reached the transfer: it went on to stream the first
    // chunk (behind the sibling round's input in node 2's mailbox).
    let mut kinds = Vec::new();
    while let Ok(frame) = nodes[2].recv(0, TAG_INPUT, Duration::ZERO) {
        kinds.push(Envelope::decode(&frame).unwrap().kind);
    }
    assert!(kinds.contains(&PayloadKind::LoadChunk), "{kinds:?}");
}
