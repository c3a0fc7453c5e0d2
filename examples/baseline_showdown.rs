//! Runs every *real* distributed inference implementation over in-process
//! transports and prints measured wall-clock per strategy — TeamNet vs
//! MPI-Matrix / -Kernel / -Branch vs SG-MoE — the live counterpart of the
//! simulated Tables I/II. Every strategy runs on the same round
//! (`InferenceSession::round` on the root, `serve_worker_with_config` on
//! the peer), every row has a remote hop in every inference (SG-MoE gates
//! top-k = K), and every output is checked bit for bit against its local
//! reference before it is timed.
//!
//! ```text
//! cargo run --release --example baseline_showdown [-- --smoke]
//! ```
//!
//! Exits non-zero on a wrong output, or when a strategy's time per remote
//! exchange exceeds 4 × the TeamNet K = 2 round: all of them pay the same
//! substrate, so a larger ratio is a private loop (a poll floor under
//! every message read 9–12 × here) coming back. A ratio, so a slow host
//! does not trip it. `--smoke` is the CI form: fewer inferences per row.

use rand::{rngs::StdRng, SeedableRng};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, PeerCompute, TeamNet};
use teamnet_moe::{infer_distributed, ExpertPeer, SgMoe, SgMoeConfig};
use teamnet_net::{ChannelTransport, Transport};
use teamnet_nn::{state_vec, Layer, Mode, ModelSpec, ShakeShakeBlock};
use teamnet_partition::{
    branch_parallel_forward, kernel_parallel_conv2d, mpi_matrix_forward, shard_mlp, ConvShard,
    Steps,
};
use teamnet_tensor::conv::{conv2d, Conv2dSpec};
use teamnet_tensor::Tensor;

/// Largest allowed time per remote exchange, in TeamNet K = 2 rounds.
const PARITY_BOUND: f64 = 4.0;

/// Asks the workers to exit when dropped (also on a panic in the body).
struct ShutdownWorkers<'a>(&'a dyn Transport);

impl Drop for ShutdownWorkers<'_> {
    fn drop(&mut self) {
        let _ = shutdown_workers(self.0);
    }
}

/// The one spawn/shutdown helper: a two-node in-process mesh, `peer`
/// served on node 1 by the one worker loop, `body` on the root.
fn against<P: PeerCompute + Send, R>(
    mut peer: P,
    body: impl FnOnce(&mut InferenceSession, &dyn Transport) -> R,
) -> R {
    let nodes = ChannelTransport::mesh(2);
    std::thread::scope(|scope| {
        let node1 = &nodes[1];
        scope.spawn(move || {
            serve_worker_with_config(node1, 0, &mut peer, WorkerConfig::default())
                .expect("worker serve loop")
        });
        let _shutdown = ShutdownWorkers(&nodes[0]);
        let mut session = InferenceSession::new(&nodes[0], MasterConfig::default());
        body(&mut session, &nodes[0])
    })
}

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    let data = t.data().iter().map(|x| x.to_bits()).collect();
    (t.dims().to_vec(), data)
}

struct Bench {
    inferences: usize,
    rows: Vec<Row>,
}

struct Row {
    label: &'static str,
    /// Remote request/reply exchanges in one inference.
    exchanges: u32,
    exact: bool,
    per_inference: Duration,
}

impl Bench {
    /// Checks `infer`'s output against `want`, then times it: the median
    /// of `inferences` calls, so one host stall does not decide a row.
    fn row<O: PartialEq>(
        &mut self,
        label: &'static str,
        exchanges: u32,
        want: &O,
        mut infer: impl FnMut() -> O,
    ) {
        let exact = infer() == *want;
        let mut times: Vec<Duration> = (0..self.inferences)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(infer());
                start.elapsed()
            })
            .collect();
        times.sort();
        self.rows.push(Row {
            label,
            exchanges,
            exact,
            per_inference: times[times.len() / 2],
        });
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut bench = Bench {
        inferences: if smoke { 60 } else { 400 },
        rows: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(0);
    let image = Tensor::rand_uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
    let base_spec = ModelSpec::mlp(8, 128);
    let expert_spec = ModelSpec::mlp(4, 128);

    // Baseline: one deep model, no communication.
    {
        let mut baseline = build_expert(&base_spec, 0);
        let want = bits(&baseline.forward(&image, Mode::Eval));
        bench.row("baseline MLP-8 (local)", 0, &want, || {
            bits(&baseline.forward(&image, Mode::Eval))
        });
    }

    // TeamNet x2: one broadcast + gather.
    {
        let expert = |i: u64| build_expert(&expert_spec, i);
        let key = |p: &teamnet_core::TeamPrediction| (p.label, p.expert, p.entropy.to_bits());
        let mut local = TeamNet::from_experts(expert_spec.clone(), vec![expert(0), expert(1)]);
        let want: Vec<_> = local.predict(&image).iter().map(key).collect();
        against(expert(1), |session, root| {
            let mut master = expert(0);
            bench.row("TeamNet x2 (broadcast+gather)", 1, &want, || {
                let report = session.infer(root, &mut master, &image).unwrap();
                // A silent worker is a miss, not an error: both nodes
                // must have answered for the row to count.
                assert_eq!(report.responsive_peers(), [0, 1], "a silent worker");
                report.predictions.iter().map(key).collect()
            });
        });
    }

    // MPI-Matrix x2: one round per layer.
    {
        let mut model = build_expert(&base_spec, 0);
        let state = state_vec(&mut model);
        let flat = image.reshape([1, 784]).unwrap();
        let want = bits(&model.forward(&image, Mode::Eval));
        let mut shards = shard_mlp(&base_spec, &state, 0, 2);
        against(shard_mlp(&base_spec, &state, 1, 2), |session, root| {
            bench.row("MPI-Matrix x2 (8 layers)", 8, &want, || {
                bits(&mpi_matrix_forward(session, root, &mut shards, &flat).unwrap())
            });
        });
    }

    // MPI-Kernel x2: one round per convolution.
    let volume = Tensor::randn([1, 3, 16, 16], 0.0, 1.0, &mut rng);
    {
        let weight = Tensor::randn([8, 3, 3, 3], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([8], 0.0, 0.5, &mut rng);
        let spec = Conv2dSpec::new(3, 1, 1);
        let want = bits(&conv2d(&volume, &weight, &bias, spec));
        let shard = |rank| ConvShard::new(&weight, &bias, spec, rank, 2);
        let mut mine = shard(0);
        against(Steps(vec![shard(1)]), |session, root| {
            bench.row("MPI-Kernel x2 (1 conv)", 1, &want, || {
                bits(&kernel_parallel_conv2d(session, root, 0, &mut mine, &volume).unwrap())
            });
        });
    }

    // MPI-Branch: one round per Shake-Shake block.
    {
        let block = || ShakeShakeBlock::new(3, 8, 2, &mut StdRng::seed_from_u64(5));
        let want = bits(&block().forward(&volume, Mode::Eval));
        let mut mine = block();
        against(Steps(vec![block()]), |session, root| {
            bench.row("MPI-Branch (1 block)", 1, &want, || {
                bits(&branch_parallel_forward(session, root, 1, 0, &mut mine, &volume).unwrap())
            });
        });
    }

    // SG-MoE x2, top-k = K: the gate, then a hop to the remote expert in
    // every inference (with top-k = 1 the gate may keep a lone image on
    // the co-located expert, and the row times a local forward).
    {
        let config = SgMoeConfig {
            top_k: 2,
            ..SgMoeConfig::default()
        };
        let remote = build_expert(&expert_spec, config.seed.wrapping_add(0xB0B + 1));
        let mut moe = SgMoe::new(expert_spec.clone(), 2, config);
        let want = bits(&moe.predict_proba(&image));
        against(ExpertPeer(remote), |session, root| {
            bench.row("SG-MoE x2, top-2 (gate first)", 1, &want, || {
                bits(&infer_distributed(session, root, &mut moe, &image).unwrap())
            });
        });
    }

    // The TeamNet K = 2 round is the yardstick: every strategy's exchange
    // rides the same round.
    let per_exchange = |row: &Row| row.per_inference.as_secs_f64() / f64::from(row.exchanges);
    let team_round = per_exchange(&bench.rows[1]);
    println!(
        "{:<32} {:>13} {:>10} {:>13} {:>10}",
        "strategy", "per inference", "exchanges", "per exchange", "x TeamNet"
    );
    let mut ok = true;
    for row in &bench.rows {
        let micros = |secs: f64| format!("{:.1} us", secs * 1e6);
        let (each, ratio, verdict) = if row.exchanges == 0 {
            ("-".to_string(), "-".to_string(), "")
        } else {
            let ratio = per_exchange(row) / team_round;
            let verdict = if ratio > PARITY_BOUND { "  OVER" } else { "" };
            (micros(per_exchange(row)), format!("{ratio:.2}"), verdict)
        };
        let wrong = if row.exact { "" } else { "  WRONG OUTPUT" };
        println!(
            "{:<32} {:>13} {:>10} {:>13} {:>10}{verdict}{wrong}",
            row.label,
            micros(row.per_inference.as_secs_f64()),
            row.exchanges,
            each,
            ratio
        );
        ok &= row.exact && verdict.is_empty();
    }
    println!(
        "\n(median of {} inferences per row, in-process transports: the ordering, not the",
        bench.inferences
    );
    println!("absolute values, is the point — on WiFi every exchange would cost milliseconds)");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("baseline_showdown: a row is wrong or over {PARITY_BOUND} x the TeamNet round");
        ExitCode::FAILURE
    }
}
