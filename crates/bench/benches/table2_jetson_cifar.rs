//! Benchmark for **Table II** (Jetson TX2, image classification): real
//! forward-pass latency of the Shake-Shake models and the distributed
//! primitives each strategy is built from, plus the table's cost-model
//! simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teamnet_bench::suites::{cifar_baseline_spec, cifar_expert_spec, Scale};
use teamnet_bench::tables::cifar_workload;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, TeamNet};
use teamnet_net::ChannelTransport;
use teamnet_nn::{Layer, Mode, ShakeShakeBlock};
use teamnet_partition::{branch_parallel_forward, simulate, Steps, Strategy};
use teamnet_simnet::{ComputeUnit, DeviceProfile, SimCluster};
use teamnet_tensor::Tensor;

fn cifar_image() -> Tensor {
    Tensor::rand_uniform(
        [1, 3, 32, 32],
        0.0,
        1.0,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2),
    )
}

fn bench_model_forwards(c: &mut Criterion) {
    let scale = Scale::quick();
    let mut group = c.benchmark_group("table2/real");
    group.sample_size(20);
    let image = cifar_image();

    let mut ss26 = build_expert(&cifar_baseline_spec(&scale), 0);
    group.bench_function("baseline_ss26_forward", |b| {
        b.iter(|| black_box(ss26.forward(black_box(&image), Mode::Eval)))
    });

    for k in [2usize, 4] {
        let spec = cifar_expert_spec(&scale, k);
        let depth = spec.depth();
        let experts = (0..k as u64).map(|i| build_expert(&spec, i)).collect();
        let mut team = TeamNet::from_experts(spec, experts);
        group.bench_function(format!("teamnet_x{k}_ss{depth}_predict"), |b| {
            b.iter(|| black_box(team.predict(black_box(&image))))
        });
    }

    // MPI-Branch primitive: branch-parallel evaluation of one block over an
    // in-process 2-node mesh — the worker serves its copy of the block on a
    // real thread, the row times one round.
    {
        let make = || {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
            ShakeShakeBlock::new(3, 4, 1, &mut rng)
        };
        let mesh = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            let node1 = &mesh[1];
            scope.spawn(move |_| {
                let mut blocks = Steps(vec![make()]);
                serve_worker_with_config(node1, 0, &mut blocks, WorkerConfig::default()).unwrap();
            });
            let mut block = make();
            let mut session = InferenceSession::new(&mesh[0], MasterConfig::default());
            group.bench_function("mpi_branch_block_roundtrip", |b| {
                b.iter(|| {
                    let out =
                        branch_parallel_forward(&mut session, &mesh[0], 1, 0, &mut block, &image);
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
    let mut group = c.benchmark_group("table2/simulated");
    for (name, strategy, nodes) in [
        ("baseline", Strategy::Baseline, 1usize),
        ("teamnet_x2", Strategy::TeamNet { k: 2 }, 2),
        ("mpi_branch", Strategy::MpiBranch, 2),
        ("mpi_kernel_x4", Strategy::MpiKernel { nodes: 4 }, 4),
    ] {
        let w = cifar_workload(&scale, nodes.max(2));
        let cluster = SimCluster::homogeneous(DeviceProfile::jetson_tx2_cpu(), nodes);
        group.bench_function(format!("simulate_{name}"), |b| {
            b.iter(|| black_box(simulate(strategy, &w, &cluster, ComputeUnit::Cpu)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_forwards, bench_simulated_table);
criterion_main!(benches);
