//! Scaffolding shared by this crate's unit tests: the toy cluster, and
//! drop guards that let a failed assertion fail the test. A test's
//! worker (and its `run` thread) live in a thread scope, which joins
//! them before it re-raises the panic; without the guards the worker
//! stays parked in its receive and the test hangs instead of failing.

use crate::engine::ServeHandle;
use teamnet_core::runtime::{serve_worker_with_config, shutdown_workers, WorkerConfig};
use teamnet_net::{ChannelTransport, Transport};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_tensor::Tensor;

pub(crate) fn expert(seed: u64) -> Sequential {
    teamnet_core::build_expert(&ModelSpec::mlp(2, 16), seed)
}

pub(crate) fn request(rows: usize, fill: f32) -> Tensor {
    Tensor::full(vec![rows, 1, 28, 28], fill)
}

/// Runs `body` on the master endpoint of a 2-node mesh whose worker
/// serves expert 1 until `body` returns or unwinds.
pub(crate) fn with_worker(body: impl FnOnce(&ChannelTransport)) {
    with_silent_peers(0, body);
}

/// [`with_worker`] on a mesh with `silent` more nodes that nobody serves.
pub(crate) fn with_silent_peers(silent: usize, body: impl FnOnce(&ChannelTransport)) {
    let nodes = ChannelTransport::mesh(2 + silent);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut e = expert(1);
            let served = serve_worker_with_config(&nodes[1], 0, &mut e, WorkerConfig::default());
            assert!(served.is_ok(), "worker loop: {served:?}");
        });
        let _shutdown = ShutdownWorkers(&nodes[0]);
        body(&nodes[0]);
    });
}

/// Asks the workers to exit when dropped.
struct ShutdownWorkers<'a>(&'a dyn Transport);

impl Drop for ShutdownWorkers<'_> {
    fn drop(&mut self) {
        let _ = shutdown_workers(self.0);
    }
}

/// Closes the engine when dropped, which ends its `run` thread.
pub(crate) struct CloseEngine(pub(crate) ServeHandle);

impl Drop for CloseEngine {
    fn drop(&mut self) {
        self.0.close();
    }
}
