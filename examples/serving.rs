//! Multi-tenant serving quickstart: many concurrent clients, one
//! collaborative team.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! A 3-node TeamNet cluster sits behind a [`ServeEngine`]: concurrent
//! tenants submit row-batched tensors, the engine takes whatever is
//! pending (up to 64 rows) the moment it is free, runs it as one batched
//! tensor through a single fault-tolerant collaborative round, and
//! demuxes each tenant's argmin-entropy rows back to its caller. What
//! arrives during a round coalesces and leaves with the next one, so
//! load, not a timer, sets the batch size. Two client flavours are shown:
//!
//! * in-process: [`ServeHandle::submit`] + [`Ticket::wait`];
//! * over the network: [`TcpServeFront`] + [`ServeClient`] speaking the
//!   framed wire protocol, including a malformed request coming back as
//!   a typed [`ServeError`] instead of panicking a worker.

use std::time::Duration;
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, MasterConfig, WorkerConfig,
};
use teamnet_net::ChannelTransport;
use teamnet_nn::ModelSpec;
use teamnet_serve::{BatcherConfig, ServeClient, ServeConfig, ServeEngine, TcpServeFront};
use teamnet_tensor::Tensor;

const TENANTS: usize = 4;
const REQUESTS_PER_TENANT: usize = 5;

fn main() {
    let spec = ModelSpec::mlp(2, 16);
    let nodes = ChannelTransport::mesh(3);

    crossbeam::thread::scope(|scope| {
        // Workers 1 and 2 each serve their own expert.
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let spec = spec.clone();
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, i as u64);
                serve_worker_with_config(node, 0, &mut expert, WorkerConfig::default())
                    .expect("worker loop");
            });
        }

        // The master-side engine: admission + self-clocked batching over
        // one persistent InferenceSession.
        let config = ServeConfig {
            batch: BatcherConfig::default(), // ≤ 64 rows a round, 256 queued
            input_dims: vec![1, 28, 28],
            master: MasterConfig {
                worker_timeout: Duration::from_millis(500),
                require_all_workers: false,
                ..MasterConfig::default()
            },
        };
        let mut engine = ServeEngine::new(&nodes[0], build_expert(&spec, 0), config);
        let handle = engine.handle();

        // A framed TCP front door on an ephemeral loopback port.
        let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).expect("bind front");
        let addr = front.local_addr();
        println!("serving on {addr}");

        // The engine thread: sleeps while nothing is pending, otherwise
        // runs round after round on whatever gathered during the last.
        let master_node = &nodes[0];
        let engine_thread = scope.spawn(move |_| engine.run(master_node));

        // TCP tenants, each its own connection and request stream.
        let mut clients = Vec::new();
        for tenant in 0..TENANTS {
            clients.push(scope.spawn(move |_| {
                let mut client = ServeClient::connect(&addr).expect("connect");
                for req in 0..REQUESTS_PER_TENANT {
                    let rows = 1 + (tenant + req) % 3;
                    let fill = 0.1 + tenant as f32 * 0.2;
                    let preds = client
                        .infer(&Tensor::full(vec![rows, 1, 28, 28], fill))
                        .expect("inference");
                    assert_eq!(preds.len(), rows);
                    if req == 0 {
                        println!(
                            "tenant {tenant}: label {} from expert {} (entropy {:.3})",
                            preds[0].label, preds[0].expert, preds[0].entropy
                        );
                    }
                }
            }));
        }

        // An in-process tenant rides the same batches without a socket.
        let ticket = handle
            .submit(&Tensor::full([2, 1, 28, 28], 0.9))
            .expect("submit");
        let preds = ticket.wait().expect("in-process inference");
        println!(
            "in-process tenant: {} rows, first label {} from expert {}",
            preds.len(),
            preds[0].label,
            preds[0].expert
        );

        // A mis-shaped request is rejected with a typed error frame at
        // the front door — it never reaches (let alone panics) a worker.
        let mut bad = ServeClient::connect(&addr).expect("connect");
        match bad.infer(&Tensor::full([1, 7, 7], 0.0)) {
            Err(e) => println!("malformed request rejected: {e}"),
            Ok(_) => unreachable!("a [1,7,7] tensor must not be served"),
        }

        for c in clients {
            c.join().expect("tenant thread");
        }
        handle.close();
        engine_thread.join().expect("engine thread");
        // `bad` is still connected and never says goodbye: shutdown
        // force-closes its socket rather than waiting on it.
        front.shutdown();
        shutdown_workers(&nodes[0]).expect("shutdown broadcast");
        println!(
            "served {} requests; clean shutdown",
            TENANTS * REQUESTS_PER_TENANT + 2
        );
    })
    .expect("cluster threads");
}
