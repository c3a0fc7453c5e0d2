//! Cross-node causal tracing soak: a 3-node cluster where *every* node
//! records its own span trace, ready for offline assembly into one
//! causal DAG.
//!
//! ```text
//! cargo run --release --example trace_soak
//! cargo xtask trace-assemble 0=target/trace-soak/node0.jsonl \
//!     1=target/trace-soak/node1.jsonl 2=target/trace-soak/node2.jsonl
//! ```
//!
//! The master (node 0) runs seeded inference rounds; because
//! `MasterConfig::trace_seed` is set and its tracer is live, each round
//! gets a deterministic trace id and every `Envelope` on the wire carries
//! the 16-byte trace extension. The workers' `worker.handle` spans attach
//! to the master's round spans through those contexts, so
//! `cargo xtask trace-assemble` can merge the three JSONL files into a
//! single DAG with zero orphan spans, reconcile the nodes' clocks from
//! the send/recv edge offsets, and attribute each round's latency to
//! compute / wire / wait. CI runs exactly this pipeline and
//! asserts the assembly stays orphan-free.

use std::sync::Arc;
use std::time::Duration;
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_net::{ChannelTransport, SystemClock};
use teamnet_nn::ModelSpec;
use teamnet_obs::{JsonlSink, Obs};
use teamnet_tensor::Tensor;

const ROUNDS: usize = 8;
const TRACE_SEED: u64 = 0x7EA17EA1;

fn node_obs(dir: &std::path::Path, node: usize) -> (std::path::PathBuf, Obs) {
    let path = dir.join(format!("node{node}.jsonl"));
    let sink = JsonlSink::create(&path).expect("create per-node trace file");
    (path, Obs::new(Arc::new(SystemClock), Arc::new(sink)))
}

fn main() {
    let dir = std::path::Path::new("target/trace-soak");
    std::fs::create_dir_all(dir).expect("create trace dir");

    let spec = ModelSpec::mlp(2, 32);
    let mut mesh = ChannelTransport::mesh(3);
    let worker2 = mesh.pop().expect("node 2");
    let worker1 = mesh.pop().expect("node 1");
    let master = mesh.pop().expect("node 0");

    let (master_path, master_obs) = node_obs(dir, 0);
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(500),
        obs: master_obs.clone(),
        trace_seed: TRACE_SEED,
        ..MasterConfig::default()
    };

    let mut worker_paths = Vec::new();
    crossbeam::thread::scope(|scope| {
        for (i, node) in [&worker1, &worker2].into_iter().enumerate() {
            let spec = spec.clone();
            let (path, obs) = node_obs(dir, i + 1);
            worker_paths.push(path);
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, i as u64 + 1);
                let worker_config = WorkerConfig {
                    obs: obs.clone(),
                    ..WorkerConfig::default()
                };
                serve_worker_with_config(node, 0, &mut expert, worker_config).expect("worker");
                obs.tracer.flush();
            });
        }

        let mut session = InferenceSession::new(&master, config);
        let mut expert = build_expert(&spec, 0);
        for round in 0..ROUNDS {
            let images = Tensor::full([2, 1, 28, 28], (round % 5) as f32 * 0.2);
            let report = session.infer(&master, &mut expert, &images).expect("infer");
            let winners: Vec<usize> = report.predictions.iter().map(|p| p.expert).collect();
            println!("round {round}: winners {winners:?}");
        }
        shutdown_workers(&master).expect("shutdown");
        master_obs.tracer.flush();
    })
    .expect("scope");

    println!("\nper-node traces written:");
    println!("  0={}", master_path.display());
    for (i, p) in worker_paths.iter().enumerate() {
        println!("  {}={}", i + 1, p.display());
    }
    println!(
        "\nassemble them with:\n  cargo xtask trace-assemble 0={} 1={} 2={}",
        master_path.display(),
        worker_paths[0].display(),
        worker_paths[1].display()
    );
}
