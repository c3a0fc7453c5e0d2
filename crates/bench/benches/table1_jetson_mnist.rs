//! Benchmark for **Table I** (Jetson TX2, handwritten digits): real
//! wall-clock latency of every strategy's inference path on the host CPU,
//! plus the cost-model simulation that produces the table itself.
//!
//! The absolute numbers are host-CPU numbers (the paper's are Jetson
//! numbers); the *relative* ordering — TeamNet's one-shot protocol beating
//! MPI-Matrix's per-layer collectives, SG-MoE paying its gate first — is
//! the reproduced quantity.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teamnet_bench::suites::{mnist_baseline_spec, mnist_expert_spec, Scale};
use teamnet_bench::tables::mnist_workload;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, TeamNet};
use teamnet_moe::{SgMoe, SgMoeConfig};
use teamnet_net::ChannelTransport;
use teamnet_nn::{state_vec, Layer, Mode};
use teamnet_partition::{mpi_matrix_forward, shard_mlp, simulate, Strategy};
use teamnet_simnet::{ComputeUnit, DeviceProfile, SimCluster};
use teamnet_tensor::Tensor;

fn image_batch(n: usize) -> Tensor {
    Tensor::rand_uniform(
        [n, 1, 28, 28],
        0.0,
        1.0,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1),
    )
}

fn bench_real_paths(c: &mut Criterion) {
    let scale = Scale::quick();
    let mut group = c.benchmark_group("table1/real");
    let image = image_batch(1);

    // Baseline: one deep MLP forward.
    let mut baseline = build_expert(&mnist_baseline_spec(&scale), 0);
    group.bench_function("baseline_mlp8_forward", |b| {
        b.iter(|| black_box(baseline.forward(black_box(&image), Mode::Eval)))
    });

    // TeamNet: K experts + arg-min entropy selection (in-process).
    for k in [2usize, 4] {
        let spec = mnist_expert_spec(&scale, k);
        let experts = (0..k as u64).map(|i| build_expert(&spec, i)).collect();
        let mut team = TeamNet::from_experts(spec, experts);
        group.bench_function(format!("teamnet_x{k}_predict"), |b| {
            b.iter(|| black_box(team.predict(black_box(&image))))
        });
    }

    // SG-MoE: gate + sparse expert evaluation.
    for k in [2usize, 4] {
        let spec = mnist_expert_spec(&scale, k);
        let config = SgMoeConfig {
            top_k: (k / 2).max(1),
            ..SgMoeConfig::default()
        };
        let mut moe = SgMoe::new(spec, k, config);
        group.bench_function(format!("sgmoe_x{k}_predict"), |b| {
            b.iter(|| black_box(moe.predict_proba(black_box(&image))))
        });
    }

    // MPI-Matrix over an in-process 2-node mesh: the worker serves its
    // shards on a real thread, the row times one forward (a round per
    // layer on the session every strategy runs on).
    {
        let spec = mnist_baseline_spec(&scale);
        let mut model = build_expert(&spec, 0);
        // Strip the Flatten front end: shards operate on the raw MLP state.
        let state = state_vec(&mut model);
        let flat = image.reshape([1, 28 * 28]).expect("flatten");
        let mesh = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            let mut shards1 = shard_mlp(&spec, &state, 1, 2);
            let node1 = &mesh[1];
            scope.spawn(move |_| {
                serve_worker_with_config(node1, 0, &mut shards1, WorkerConfig::default()).unwrap();
            });
            let mut shards0 = shard_mlp(&spec, &state, 0, 2);
            let mut session = InferenceSession::new(&mesh[0], MasterConfig::default());
            group.bench_function("mpi_matrix_2node_forward", |b| {
                b.iter(|| {
                    let out = mpi_matrix_forward(&mut session, &mesh[0], &mut shards0, &flat);
                    black_box(out.unwrap())
                })
            });
            shutdown_workers(&mesh[0]).unwrap();
        })
        .unwrap();
    }
    group.finish();
}

fn bench_simulated_table(c: &mut Criterion) {
    let scale = Scale::full();
    let mut group = c.benchmark_group("table1/simulated");
    let strategies = [
        ("baseline", Strategy::Baseline, 1usize),
        ("teamnet_x2", Strategy::TeamNet { k: 2 }, 2),
        ("mpi_matrix_x2", Strategy::MpiMatrix { nodes: 2 }, 2),
        ("sgmoe_rpc_x4", Strategy::SgMoeRpc { k: 4, top_k: 2 }, 4),
    ];
    for (name, strategy, nodes) in strategies {
        let w = mnist_workload(&scale, nodes.max(2));
        let cluster = SimCluster::homogeneous(DeviceProfile::jetson_tx2_cpu(), nodes);
        group.bench_function(format!("simulate_{name}"), |b| {
            b.iter(|| black_box(simulate(strategy, &w, &cluster, ComputeUnit::Cpu)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_real_paths, bench_simulated_table);
criterion_main!(benches);
