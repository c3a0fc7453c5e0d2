//! Runs one node of a distributed TeamNet cluster from a team file — the
//! deployable counterpart of the paper's edge testbed. Start one process
//! per device (possibly on different hosts):
//!
//! ```text
//! # on device 0 (the master):
//! teamnet-node --rank 0 --listen 0.0.0.0:7000 \
//!     --peers host0:7000,host1:7001 --team team.bin --demo 50
//!
//! # on device 1 (a worker):
//! teamnet-node --rank 1 --listen 0.0.0.0:7001 \
//!     --peers host0:7000,host1:7001 --team team.bin
//! ```
//!
//! Every node loads *only its own expert* (rank i → expert i). The master
//! broadcasts each input, everyone infers in parallel, and the prediction
//! with the least predictive entropy wins. `--demo N` makes the master
//! generate N synthetic digit inputs, run collaborative inference, print
//! the results, and shut the cluster down.

use rand::{rngs::StdRng, SeedableRng};
use std::net::SocketAddr;
use teamnet::core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet::core::{build_expert, load_expert, load_team};
use teamnet::data::synth_digits;
use teamnet::net::TcpTransport;
use teamnet::nn::load_state;

struct Args {
    rank: usize,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    team: String,
    demo: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut rank = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut team = "team.bin".to_string();
    let mut demo = 20usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--rank" => rank = Some(value()?.parse().map_err(|e| format!("rank: {e}"))?),
            "--listen" => listen = Some(value()?.parse().map_err(|e| format!("listen addr: {e}"))?),
            "--peers" => {
                peers = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("peer addr {s}: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--team" => team = value()?,
            "--demo" => demo = value()?.parse().map_err(|e| format!("demo: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let rank = rank.ok_or("--rank is required")?;
    let listen = listen.ok_or("--listen is required")?;
    if peers.len() < 2 {
        return Err("--peers needs at least two comma-separated addresses".to_string());
    }
    if rank >= peers.len() {
        return Err(format!(
            "rank {rank} out of range for {} peers",
            peers.len()
        ));
    }
    Ok(Args {
        rank,
        listen,
        peers,
        team,
        demo,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: teamnet-node --rank R --listen ADDR --peers A0,A1[,..] --team FILE [--demo N]");
            std::process::exit(2);
        }
    };

    // Load only this node's expert from the team file.
    let (spec, state) = match load_expert(&args.team, args.rank) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("cannot load expert {} from {}: {e}", args.rank, args.team);
            std::process::exit(1);
        }
    };
    let mut expert = build_expert(&spec, 0);
    load_state(&mut expert, &state);
    println!("node {}: expert loaded ({spec:?})", args.rank);

    // Join the mesh (dials lower ranks, accepts higher ones).
    let transport = match TcpTransport::connect_mesh(args.rank, args.listen, &args.peers) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mesh bootstrap failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "node {}: mesh of {} nodes connected",
        args.rank,
        args.peers.len()
    );

    if args.rank == 0 {
        // Master: run the demo workload, then release the workers.
        let mut rng = StdRng::seed_from_u64(1);
        let demo_data = synth_digits(args.demo.max(1), &mut rng);
        let calibration = load_team(&args.team)
            .ok()
            .map(|team| team.calibration().to_vec());
        let config = MasterConfig {
            calibration,
            ..MasterConfig::default()
        };
        let mut session = InferenceSession::new(&transport, config);
        let mut correct = 0usize;
        let start = std::time::Instant::now();
        for i in 0..demo_data.len() {
            let image = demo_data.images().select_rows(&[i]);
            match session.infer(&transport, &mut expert, &image) {
                Ok(report) => {
                    if report.predictions[0].label == demo_data.labels()[i] {
                        correct += 1;
                    }
                }
                Err(e) => {
                    eprintln!("inference {i} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        let per = start.elapsed() / demo_data.len() as u32;
        println!(
            "master: {}/{} correct, {per:?} per collaborative inference",
            correct,
            demo_data.len()
        );
        if let Err(e) = shutdown_workers(&transport) {
            eprintln!("shutdown broadcast failed: {e}");
        }
    } else {
        println!(
            "node {}: serving (ctrl-c or master shutdown to exit)",
            args.rank
        );
        if let Err(e) =
            serve_worker_with_config(&transport, 0, &mut expert, WorkerConfig::default())
        {
            eprintln!("worker loop failed: {e}");
            std::process::exit(1);
        }
        println!("node {}: received shutdown, exiting", args.rank);
    }
}
