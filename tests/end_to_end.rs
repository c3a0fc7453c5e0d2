//! End-to-end integration: train → deploy over real TCP → collaborative
//! inference, spanning `teamnet-core`, `teamnet-nn`, `teamnet-data` and
//! `teamnet-net`.

use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::{build_expert, TrainConfig, Trainer};
use teamnet_data::synth_digits;
use teamnet_net::{ChaosTransport, TcpTransport, Transport};
use teamnet_nn::{load_state, state_vec, ModelSpec};

fn quick_train(k: usize) -> (teamnet_core::TeamNet, teamnet_data::Dataset) {
    let mut rng = StdRng::seed_from_u64(42);
    let data = synth_digits(700, &mut rng);
    let (train, test) = data.split(560);
    let config = TrainConfig {
        epochs: 3,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(ModelSpec::mlp(2, 48), k, config);
    trainer.train(&train);
    (trainer.into_team(), test)
}

#[test]
fn train_deploy_infer_over_tcp_matches_local() {
    let (mut team, test) = quick_train(2);
    let local_eval = team.evaluate(&test);
    assert!(
        local_eval.accuracy > 0.5,
        "undertrained team: {}",
        local_eval.accuracy
    );

    // Ship each expert's weights to its node, exactly as a deployment
    // would.
    let spec = team.spec().clone();
    let states: Vec<_> = (0..2).map(|i| state_vec(team.expert_mut(i))).collect();
    let nodes = TcpTransport::mesh_localhost(2).expect("mesh");

    let sample = test.subset(&(0..40).collect::<Vec<_>>());
    let distributed_preds = crossbeam::thread::scope(|scope| {
        let node1 = &nodes[1];
        let spec_w = spec.clone();
        let state_w = states[1].clone();
        scope.spawn(move |_| {
            let mut expert = build_expert(&spec_w, 0);
            load_state(&mut expert, &state_w);
            serve_worker_with_config(node1, 0, &mut expert, WorkerConfig::default()).unwrap();
        });
        let mut master = build_expert(&spec, 0);
        load_state(&mut master, &states[0]);
        let report = InferenceSession::new(&nodes[0], MasterConfig::default())
            .infer(&nodes[0], &mut master, sample.images())
            .unwrap();
        shutdown_workers(&nodes[0]).unwrap();
        report.predictions
    })
    .unwrap();

    // Distributed predictions must equal the in-process team's.
    let local_preds = team.predict(sample.images());
    assert_eq!(distributed_preds.len(), local_preds.len());
    for (d, l) in distributed_preds.iter().zip(&local_preds) {
        assert_eq!(d.label, l.label);
        assert_eq!(d.expert, l.expert);
        assert!((d.entropy - l.entropy).abs() < 1e-4);
    }
}

#[test]
fn inference_survives_a_blackholed_worker() {
    let (mut team, test) = quick_train(2);
    let spec = team.spec().clone();
    let state0 = state_vec(team.expert_mut(0));

    // A 2-node in-process cluster where the master's traffic to the worker
    // is black-holed mid-service: degraded mode must still answer.
    let mut mesh = teamnet_net::ChannelTransport::mesh(2);
    let _worker_side = mesh.pop().unwrap(); // worker never runs: dead node
    let lossy = ChaosTransport::new(mesh.pop().unwrap());
    lossy.blackhole(1);

    let mut master = build_expert(&spec, 0);
    load_state(&mut master, &state0);
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(100),
        require_all_workers: false,
        ..MasterConfig::default()
    };
    let sample = test.subset(&[0, 1, 2]);
    let preds = InferenceSession::new(&lossy, config)
        .infer(&lossy, &mut master, sample.images())
        .unwrap()
        .predictions;
    assert_eq!(preds.len(), 3);
    assert!(preds.iter().all(|p| p.expert == lossy.node_id()));
}

#[test]
fn strict_mode_reports_timeout_for_dead_worker() {
    let (mut team, test) = quick_train(2);
    let spec = team.spec().clone();
    let state0 = state_vec(team.expert_mut(0));
    let nodes = teamnet_net::ChannelTransport::mesh(2);
    let mut master = build_expert(&spec, 0);
    load_state(&mut master, &state0);
    let config = MasterConfig {
        worker_timeout: Duration::from_millis(50),
        require_all_workers: true,
        ..MasterConfig::default()
    };
    let sample = test.subset(&[0]);
    let res =
        InferenceSession::new(&nodes[0], config).infer(&nodes[0], &mut master, sample.images());
    assert!(
        matches!(res, Err(teamnet_net::NetError::Timeout { .. })),
        "{res:?}"
    );
}
