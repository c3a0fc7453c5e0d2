//! A real distributed TeamNet deployment over TCP sockets — the paper's
//! Figure 1(d) protocol, with every node in its own thread talking through
//! the loopback interface exactly as edge devices would over WiFi.
//!
//! ```text
//! cargo run --release --example edge_cluster_tcp
//! ```
//!
//! The master broadcasts each sensor reading, all nodes run their expert
//! in parallel, workers return `(label, entropy)` pairs, and the master
//! takes the least-uncertain answer. The example also demonstrates
//! degraded operation when a worker dies mid-service.

use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, TrainConfig, Trainer};
use teamnet_data::synth_digits;
use teamnet_net::TcpTransport;
use teamnet_nn::{load_state, state_vec, ModelSpec};

const K: usize = 3;

fn main() {
    // Train a 3-expert team in-process first (deployment ships weights).
    let mut rng = StdRng::seed_from_u64(1);
    let data = synth_digits(2_000, &mut rng);
    let (train, test) = data.split(1_600);
    let spec = ModelSpec::mlp(4, 96);
    let mut trainer = Trainer::new(spec.clone(), K, TrainConfig::default());
    trainer.train(&train);
    let mut team = trainer.into_team();
    println!(
        "trained 3-expert team, in-process accuracy {:.1}%",
        team.evaluate(&test).accuracy * 100.0
    );

    // Snapshot each expert's weights — this is the deployment payload.
    let states: Vec<_> = (0..K).map(|i| state_vec(team.expert_mut(i))).collect();

    // Stand up a 3-node TCP mesh on loopback.
    let nodes = TcpTransport::mesh_localhost(K).expect("tcp mesh");
    println!("TCP mesh up: {K} nodes on 127.0.0.1");

    crossbeam::thread::scope(|scope| {
        // Nodes 1..K are workers, each loading its own expert.
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let spec = spec.clone();
            let state = states[i].clone();
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, 0);
                load_state(&mut expert, &state);
                serve_worker_with_config(node, 0, &mut expert, WorkerConfig::default())
                    .expect("worker loop");
                println!("worker {i}: shut down cleanly");
            });
        }

        // Node 0 is the master with its own expert.
        let mut master_expert = build_expert(&spec, 0);
        load_state(&mut master_expert, &states[0]);
        let mut session = InferenceSession::new(&nodes[0], MasterConfig::default());

        // Serve 200 "sensor events" and measure wall-clock + accuracy.
        let mut correct = 0usize;
        let rounds = 200.min(test.len());
        let start = Instant::now();
        for i in 0..rounds {
            let image = test.images().select_rows(&[i]);
            let report = session
                .infer(&nodes[0], &mut master_expert, &image)
                .expect("collaborative inference");
            if report.predictions[0].label == test.labels()[i] {
                correct += 1;
            }
        }
        let per_inference = start.elapsed() / rounds as u32;
        println!(
            "distributed accuracy over TCP: {:.1}% at {per_inference:?}/inference",
            correct as f64 / rounds as f64 * 100.0
        );

        // Degraded mode: tolerate missing workers.
        let degraded = MasterConfig {
            worker_timeout: Duration::from_millis(200),
            require_all_workers: false,
            ..MasterConfig::default()
        };
        shutdown_workers(&nodes[0]).expect("shutdown broadcast");
        std::thread::sleep(Duration::from_millis(100)); // let workers exit
        let image = test.images().select_rows(&[0]);
        let preds = InferenceSession::new(&nodes[0], degraded)
            .infer(&nodes[0], &mut master_expert, &image)
            .expect("degraded inference")
            .predictions;
        println!(
            "after all workers left: master alone predicts {} (expert {})",
            preds[0].label, preds[0].expert
        );
    })
    .expect("cluster threads");
}
