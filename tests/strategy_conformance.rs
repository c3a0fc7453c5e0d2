//! Every inference strategy on the one round: TeamNet, the three MPI
//! partitions and SG-MoE all run `InferenceSession::round` on the master
//! and `serve_worker_with_config` on every peer, so one scaffold serves
//! them all and they inherit the same guarantees — the distributed output
//! is the local reference bit for bit, a duplicated or late reply is
//! discarded by its round stamp instead of merged into the next call, and
//! a silent peer is given up on at `worker_timeout`: a miss that TeamNet
//! answers around, a `Timeout` for a strategy that needs every share.
//!
//! Deterministic: faults are `ChaosTransport` probabilities of 1.0 or
//! explicit blackholes, and orderings are enforced by blocking receives.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, PeerCompute, TeamNet};
use teamnet_moe::{infer_distributed, ExpertPeer, SgMoe, SgMoeConfig};
use teamnet_net::{
    ChannelTransport, ChaosConfig, ChaosTransport, NetError, TcpTransport, Transport,
};
use teamnet_nn::{state_vec, Layer, Mode, ModelSpec, ShakeShakeBlock};
use teamnet_obs::Obs;
use teamnet_partition::{
    branch_parallel_forward, kernel_parallel_conv2d, mpi_matrix_forward, shard_mlp, ConvShard,
    MlpShards, Steps,
};
use teamnet_tensor::conv::{conv2d, Conv2dSpec};
use teamnet_tensor::Tensor;

/// Asks the workers to exit when dropped, so a failed assertion in the
/// master's body unwinds through `thread::scope` instead of hanging it.
struct ShutdownWorkers<'a>(&'a dyn Transport);

impl Drop for ShutdownWorkers<'_> {
    fn drop(&mut self) {
        let _ = shutdown_workers(self.0);
    }
}

/// The one scaffold: serves `peers[i]` on `nodes[i + 1]` with the one
/// worker loop, runs `master` with a session on `nodes[0]`, shuts the
/// workers down. Fewer peers than nodes leaves the last nodes unserved.
fn with_peers<T: Transport, P: PeerCompute + Send, R>(
    nodes: &[T],
    peers: Vec<P>,
    config: MasterConfig,
    master: impl FnOnce(&mut InferenceSession, &T) -> R,
) -> R {
    std::thread::scope(|scope| {
        for (node, mut peer) in nodes.iter().skip(1).zip(peers) {
            scope.spawn(move || {
                serve_worker_with_config(node, 0, &mut peer, WorkerConfig::default()).unwrap()
            });
        }
        let _shutdown = ShutdownWorkers(&nodes[0]);
        master(&mut InferenceSession::new(&nodes[0], config), &nodes[0])
    })
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: not bit-identical");
}

// ---- one fixture per strategy: what the root holds, what the peers
// ---- serve, and the local reference --------------------------------

fn team<T: Transport>(nodes: &[T], what: &str) {
    let spec = ModelSpec::mlp(2, 16);
    let expert = |i: usize| build_expert(&spec, i as u64);
    let images = Tensor::rand_uniform([4, 1, 28, 28], 0.0, 1.0, &mut rng(9));
    let k = nodes.len();
    let want = TeamNet::from_experts(spec.clone(), (0..k).map(expert).collect()).predict(&images);
    let peers = (1..k).map(expert).collect();
    let got = with_peers(nodes, peers, MasterConfig::default(), |session, root| {
        session.infer(root, &mut expert(0), &images).unwrap()
    });
    let key = |p: &teamnet_core::TeamPrediction| (p.label, p.expert, p.entropy.to_bits());
    assert_eq!(
        got.predictions.iter().map(key).collect::<Vec<_>>(),
        want.iter().map(key).collect::<Vec<_>>(),
        "{what}"
    );
}

struct Matrix {
    shards: Vec<MlpShards>,
    input: Tensor,
    want: Tensor,
}

fn matrix_fixture(nodes: usize, layers: usize, width: usize) -> Matrix {
    let spec = ModelSpec::mlp(layers, width);
    let mut model = spec.build(7);
    let state = state_vec(&mut model);
    let input = Tensor::rand_uniform([5, 784], 0.0, 1.0, &mut rng(2));
    Matrix {
        shards: (0..nodes)
            .map(|rank| shard_mlp(&spec, &state, rank, nodes))
            .collect(),
        want: model.forward(&input, Mode::Eval),
        input,
    }
}

/// Same adds in the same order per output column, however the columns
/// are split: bit-identical, and exactly one message per peer per layer
/// each way.
fn matrix<T: Transport>(nodes: &[T], what: &str) {
    let (k, layers) = (nodes.len(), 3usize);
    let Matrix {
        mut shards,
        input,
        want,
    } = matrix_fixture(k, layers, 17); // odd width: uneven shards
    let mut root_shards = shards.remove(0);
    let got = with_peers(nodes, shards, MasterConfig::default(), |session, root| {
        let got = mpi_matrix_forward(session, root, &mut root_shards, &input).unwrap();
        let sent = |node: &T| node.stats().messages_sent;
        assert_eq!(sent(root), (layers * (k - 1)) as u64, "{what}: root");
        for peer in &nodes[1..] {
            assert_eq!(sent(peer), layers as u64, "{what}: peer");
        }
        got
    });
    assert_bits(&got, &want, what);
}

fn kernel<T: Transport>(nodes: &[T], out_channels: usize, spec: Conv2dSpec, what: &str) {
    let mut rng = rng(2);
    let weight = Tensor::randn([out_channels, 3, 3, 3], 0.0, 1.0, &mut rng);
    let bias = Tensor::randn([out_channels], 0.0, 0.5, &mut rng);
    let input = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, &mut rng);
    let want = conv2d(&input, &weight, &bias, spec);
    let shard = |rank| ConvShard::new(&weight, &bias, spec, rank, nodes.len());
    let peers = (1..nodes.len())
        .map(|rank| Steps(vec![shard(rank)]))
        .collect();
    let got = with_peers(nodes, peers, MasterConfig::default(), |session, root| {
        kernel_parallel_conv2d(session, root, 0, &mut shard(0), &input).unwrap()
    });
    assert_bits(&got, &want, what);
}

/// Three blocks, so the worker's step index matters; `(in, out, stride)`
/// picks a projection or an identity skip.
fn branch_blocks(shape: (usize, usize, usize)) -> Vec<ShakeShakeBlock> {
    let (cin, cout, stride) = shape;
    (0..3)
        .map(|i| ShakeShakeBlock::new(cin, cout, stride, &mut rng(40 + i)))
        .collect()
}

/// Block `i` on input `i`, through `forward`, against the in-process
/// block — on three different inputs, so a reply merged into the wrong
/// call cannot cancel out.
fn branch_calls(
    shape: (usize, usize, usize),
    mut forward: impl FnMut(usize, &mut ShakeShakeBlock, &Tensor) -> Tensor,
    what: &str,
) {
    let mut reference = branch_blocks(shape);
    for (step, block) in branch_blocks(shape).iter_mut().enumerate() {
        let input = Tensor::randn([2, shape.0, 8, 8], 0.0, 1.0, &mut rng(step as u64));
        let want = reference[step].forward(&input, Mode::Eval);
        let got = forward(step, block, &input);
        assert_bits(&got, &want, &format!("{what}, block {step}"));
    }
}

fn branch<T: Transport>(nodes: &[T], shape: (usize, usize, usize), what: &str) {
    let peers = vec![Steps(branch_blocks(shape))];
    with_peers(nodes, peers, MasterConfig::default(), |session, root| {
        let forward = |step, block: &mut ShakeShakeBlock, input: &Tensor| {
            branch_parallel_forward(session, root, 1, step, block, input).unwrap()
        };
        branch_calls(shape, forward, what);
    });
}

fn moe_fixture(k: usize, top_k: usize) -> (SgMoe, Vec<ExpertPeer>) {
    let spec = ModelSpec::mlp(2, 16);
    let config = SgMoeConfig {
        top_k,
        ..SgMoeConfig::default()
    };
    // Node i serves the expert the gateway's own model holds at index i.
    let peers = (1..k)
        .map(|i| {
            ExpertPeer(build_expert(
                &spec,
                config.seed.wrapping_add(0xB0B + i as u64),
            ))
        })
        .collect();
    (SgMoe::new(spec, k, config), peers)
}

fn moe<T: Transport>(nodes: &[T], top_k: usize, what: &str) {
    let (mut moe, peers) = moe_fixture(nodes.len(), top_k);
    let images = Tensor::rand_uniform([6, 1, 28, 28], 0.0, 1.0, &mut rng(4));
    let want = moe.predict_proba(&images);
    let got = with_peers(nodes, peers, MasterConfig::default(), |session, root| {
        infer_distributed(session, root, &mut moe, &images).unwrap()
    });
    assert_bits(&got, &want, what);
}

/// The conformance table. Since the register-tiled kernels an output
/// element's rounding sequence does not depend on how rows, columns or
/// channels are tiled, so every strategy is held to `to_bits` equality —
/// none needs a tolerance.
#[test]
fn every_strategy_matches_its_local_reference_bit_for_bit() {
    let chan = ChannelTransport::mesh;
    let (padded, strided) = (Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1));
    let (projection, identity) = ((3, 6, 2), (4, 4, 1));

    team(&chan(3), "TeamNet x3");
    matrix(&chan(2), "MPI-Matrix x2");
    matrix(&chan(4), "MPI-Matrix x4");
    kernel(&chan(2), 7, padded, "MPI-Kernel x2");
    kernel(&chan(3), 7, padded, "MPI-Kernel x3");
    kernel(&chan(2), 4, strided, "MPI-Kernel x2, stride 2 + padding");
    branch(&chan(2), projection, "MPI-Branch, projection skip");
    branch(&chan(2), identity, "MPI-Branch, identity skip");
    for (k, top_k) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
        moe(&chan(k), top_k, &format!("SG-MoE x{k}, top-{top_k}"));
    }

    let tcp = |n| TcpTransport::mesh_localhost(n).unwrap();
    team(&tcp(2), "TeamNet over TCP");
    matrix(&tcp(3), "MPI-Matrix over TCP");
    kernel(&tcp(2), 7, padded, "MPI-Kernel over TCP");
    branch(&tcp(2), projection, "MPI-Branch over TCP");
    moe(&tcp(3), 2, "SG-MoE over TCP");
}

/// A mesh whose non-root endpoints inject `faults` into what they send.
fn chaotic_peers(n: usize, faults: ChaosConfig) -> Vec<ChaosTransport<ChannelTransport>> {
    ChannelTransport::mesh(n)
        .into_iter()
        .enumerate()
        .map(|(i, node)| match i {
            0 => ChaosTransport::new(node),
            _ => ChaosTransport::with_config(node, faults.clone()),
        })
        .collect()
}

/// A config whose `round.*` counters the test can read back.
fn counted() -> (MasterConfig, Obs) {
    let obs = Obs::disabled();
    let config = MasterConfig {
        obs: obs.clone(),
        ..MasterConfig::default()
    };
    (config, obs)
}

/// Every reply arrives twice. The private loops these strategies ran on
/// took whatever came next under their reply tag, so call N + 1 merged
/// call N's duplicate (`Ok`, wrong tensor); on the round the duplicate
/// carries a spent stamp and is discarded.
#[test]
fn duplicated_replies_are_discarded_not_merged_into_the_next_call() {
    let twice = ChaosConfig {
        duplicate_prob: 1.0,
        ..ChaosConfig::default()
    };
    let stale = |obs: &Obs| obs.metrics.counter("round.stale_discarded").get();

    let nodes = chaotic_peers(2, twice.clone());
    let (config, obs) = counted();
    let shape = (3, 6, 2);
    with_peers(
        &nodes,
        vec![Steps(branch_blocks(shape))],
        config,
        |session, root| {
            let forward = |step, block: &mut ShakeShakeBlock, input: &Tensor| {
                branch_parallel_forward(session, root, 1, step, block, input).unwrap()
            };
            branch_calls(shape, forward, "MPI-Branch, replies duplicated");
        },
    );
    assert!(stale(&obs) > 0, "no duplicate reached a later round");

    let nodes = chaotic_peers(2, twice);
    let (config, obs) = counted();
    let Matrix {
        mut shards,
        input,
        want,
    } = matrix_fixture(2, 4, 13);
    let mut root_shards = shards.remove(0);
    let got = with_peers(&nodes, shards, config, |session, root| {
        mpi_matrix_forward(session, root, &mut root_shards, &input).unwrap()
    });
    assert_bits(&got, &want, "MPI-Matrix, 4 layers, rank 1 duplicated");
    assert!(stale(&obs) > 0, "no duplicate reached a later layer");
}

/// Holds its first reply until released, then serves normally: a peer
/// that answers a call only after the gateway has given up on it.
struct LateOnce {
    inner: ExpertPeer,
    release: Option<mpsc::Receiver<()>>,
}

impl PeerCompute for LateOnce {
    fn respond(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let reply = self.inner.respond(request);
        if let Some(release) = self.release.take() {
            release.recv().unwrap();
        }
        reply
    }
}

/// The late reply of a timed-out SG-MoE call is not consumed by the next
/// call: it arrives first under the same tag, and only its stamp says it
/// answers other rows.
#[test]
fn a_timed_out_calls_late_reply_is_not_consumed_by_the_next_call() {
    let (mut moe, mut peers) = moe_fixture(2, 2);
    let (release, held) = mpsc::channel();
    let late = LateOnce {
        inner: peers.remove(0),
        release: Some(held),
    };
    let first = Tensor::rand_uniform([2, 1, 28, 28], 0.0, 1.0, &mut rng(5));
    let second = Tensor::rand_uniform([2, 1, 28, 28], 0.0, 1.0, &mut rng(6));
    let want = moe.predict_proba(&second);
    let (config, obs) = counted();
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(100),
        ..config
    };
    let nodes = ChannelTransport::mesh(2);
    with_peers(&nodes, vec![late], config, |session, root| {
        let timed_out = infer_distributed(session, root, &mut moe, &first);
        assert!(
            matches!(timed_out, Err(NetError::Timeout { .. })),
            "{timed_out:?}"
        );
        // The peer now sends its answer to the first call, then serves
        // the second: the stale frame is the first thing the gather reads.
        release.send(()).unwrap();
        let got = infer_distributed(session, root, &mut moe, &second).unwrap();
        assert_bits(&got, &want, "SG-MoE call after a timed-out one");
    });
    assert_eq!(obs.metrics.counter("round.stale_discarded").get(), 1);
}

/// A peer that never answers — black-holed on the way out, every reply
/// dropped on the way back, or simply not there — is given up on inside
/// `worker_timeout` by every strategy: no hang, no panic, no partial
/// answer. TeamNet answers with the experts that replied and records the
/// peer as unanswered; MPI-Matrix/-Kernel/-Branch and SG-MoE cannot do
/// without its share and return `NetError::Timeout`.
#[test]
fn a_silent_peer_times_every_strategy_out_inside_the_deadline() {
    let worker_timeout = Duration::from_millis(60);
    let config = || MasterConfig {
        worker_timeout,
        ..MasterConfig::default()
    };
    let gave_up = |what: &str, degrades: bool, began: Instant, res: Result<(), NetError>| {
        if degrades {
            assert!(res.is_ok(), "{what}: {res:?}");
        } else {
            assert!(
                matches!(res, Err(NetError::Timeout { .. })),
                "{what}: {res:?}"
            );
        }
        let took = began.elapsed();
        assert!(took >= worker_timeout, "{what}: gave up after {took:?}");
        assert!(took < Duration::from_secs(5), "{what}: took {took:?}");
    };
    // Each strategy's call against node 1, as `Result<(), _>`, and
    // whether it answers without node 1; TeamNet's call also checks that
    // node 1 is on record as contacted and unanswered.
    type Call<'a> =
        Box<dyn FnMut(&mut InferenceSession, &dyn Transport) -> Result<(), NetError> + 'a>;
    let spec = ModelSpec::mlp(2, 16);
    let images = Tensor::full([1, 1, 28, 28], 0.5);
    let Matrix {
        mut shards, input, ..
    } = matrix_fixture(2, 2, 8);
    let weight = Tensor::ones([4, 3, 3, 3]);
    let mut conv = ConvShard::new(&weight, &Tensor::zeros([4]), Conv2dSpec::new(3, 1, 1), 0, 2);
    let mut block = branch_blocks((3, 6, 2)).remove(0);
    let volume = Tensor::zeros([1, 3, 8, 8]);
    let (mut moe, _) = moe_fixture(2, 2);
    let mut expert = build_expert(&spec, 0);
    let mut calls: Vec<(&str, bool, Call<'_>)> = vec![
        (
            "TeamNet",
            true,
            Box::new(|s, t| {
                let report = s.infer(t, &mut expert, &images)?;
                let peer = &report.peers[&1];
                assert!(peer.contacted && !peer.responded, "{report:?}");
                assert_eq!(report.responsive_peers(), vec![0]);
                Ok(())
            }),
        ),
        (
            "MPI-Matrix",
            false,
            Box::new(|s, t| mpi_matrix_forward(s, t, &mut shards[0], &input).map(drop)),
        ),
        (
            "MPI-Kernel",
            false,
            Box::new(|s, t| kernel_parallel_conv2d(s, t, 0, &mut conv, &volume).map(drop)),
        ),
        (
            "MPI-Branch",
            false,
            Box::new(|s, t| branch_parallel_forward(s, t, 1, 0, &mut block, &volume).map(drop)),
        ),
        (
            "SG-MoE",
            false,
            Box::new(|s, t| infer_distributed(s, t, &mut moe, &images).map(drop)),
        ),
    ];

    for (what, degrades, call) in &mut calls {
        // Nobody serves node 1, and the root's sends to it vanish.
        let nodes: Vec<_> = ChannelTransport::mesh(2)
            .into_iter()
            .map(ChaosTransport::new)
            .collect();
        nodes[0].blackhole(1);
        let began = Instant::now();
        let res = call(&mut InferenceSession::new(&nodes[0], config()), &nodes[0]);
        gave_up(&format!("{what}, black-holed"), *degrades, began, res);
    }

    // A live TeamNet worker whose every reply is dropped: the request is
    // served, the answer never arrives.
    let dropped = ChaosConfig {
        drop_prob: 1.0,
        ..ChaosConfig::default()
    };
    let nodes = chaotic_peers(2, dropped);
    let peers = vec![build_expert(&spec, 1)];
    with_peers(&nodes, peers, config(), |session, root| {
        let (what, degrades, call) = &mut calls[0];
        let began = Instant::now();
        let res = call(session, root);
        gave_up(&format!("{what}, replies dropped"), *degrades, began, res);
    });
}
