//! The TCP serve front keeps accepting after `accept` fails.
//!
//! This binary holds one test and must stay that way. The test uses up
//! every file descriptor the process may open, and descriptors are
//! shared by all threads: any other test running beside it in the same
//! process would see its own sockets and files fail meanwhile.

use std::fs::File;
use std::time::Duration;
use teamnet_core::build_expert;
use teamnet_core::runtime::MasterConfig;
use teamnet_net::ChannelTransport;
use teamnet_nn::ModelSpec;
use teamnet_serve::{BatcherConfig, ServeClient, ServeConfig, ServeEngine, TcpServeFront};
use teamnet_tensor::Tensor;

/// Files opened at most while looking for the descriptor limit, so a
/// host with a huge limit is not asked for that much kernel memory.
const MAX_OPEN: usize = 1 << 17;

#[test]
fn the_front_accepts_again_once_descriptors_free_up() {
    let master = ChannelTransport::mesh(1).swap_remove(0);
    let config = ServeConfig {
        batch: BatcherConfig::default(),
        input_dims: vec![1, 28, 28],
        master: MasterConfig::default(),
    };
    let mut engine = ServeEngine::new(&master, build_expert(&ModelSpec::mlp(2, 16), 0), config);
    let handle = engine.handle();
    // Not scoped: a failed assertion must not wait on the engine's run.
    let engine_thread = std::thread::spawn(move || engine.run(&master));
    let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
    let addr = front.local_addr();
    let request = Tensor::full([1, 1, 28, 28], 0.3);

    // Use up every descriptor, then give one back for a client. Its
    // connection completes in the kernel's backlog, and the front's
    // `accept` of it fails for want of a descriptor.
    let mut files = Vec::new();
    while files.len() < MAX_OPEN {
        match File::open("/dev/null") {
            Ok(file) => files.push(file),
            Err(_) => break,
        }
    }
    if files.len() == MAX_OPEN {
        eprintln!("descriptor limit above {MAX_OPEN}: cannot exhaust it here");
        return;
    }
    files.pop();
    let pending = ServeClient::connect(&addr);
    // Long enough for the accept thread to fail at least once. Nothing
    // outside the thread shows that it has, so this is a sleep: on a host
    // too slow for it the test checks less, and never fails wrongly.
    std::thread::sleep(Duration::from_millis(200));
    drop(files);

    // The client that waited in the backlog is served, and so is a new
    // one: the listener is still open.
    let mut pending = pending.expect("connect while descriptors ran out");
    assert_eq!(pending.infer(&request).unwrap().len(), 1);
    let mut fresh = ServeClient::connect(&addr).expect("the front stopped accepting");
    assert_eq!(fresh.infer(&request).unwrap().len(), 1);
    drop((pending, fresh));

    handle.close();
    engine_thread.join().unwrap();
    let leaked = handle.obs().metrics.counter("serve.front.accept_leaked");
    front.shutdown();
    assert_eq!(leaked.get(), 0, "shutdown could not wake the accept thread");
}
