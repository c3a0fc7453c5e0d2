//! Stands up the system under test: K experts on a transport mesh, with
//! or without the serving front-end, through the public runtime and
//! serving APIs only.

use std::net::SocketAddr;
use std::sync::Arc;
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_core::InferenceReport;
use teamnet_net::{NetError, SystemClock, Transport, TransportStats};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_obs::{Obs, TraceSink};
use teamnet_serve::{BatcherConfig, ServeConfig, ServeEngine, ServeHandle, TcpServeFront};
use teamnet_tensor::Tensor;

/// Expert weights are part of the program under test, not of the
/// workload: node `i` always hosts `build_expert(model, EXPERT_SEED + i)`,
/// so the oracle can rebuild the same team locally and `--seed` moves
/// only the inputs.
const EXPERT_SEED: u64 = 0x7EA0;

/// Seed for the deterministic per-round / per-request trace ids of the
/// traced run.
pub const TRACE_SEED: u64 = 0x10AD_BE4C;

/// A paper-grid team: the expert architecture and how many nodes run it.
#[derive(Debug, Clone)]
pub struct Team {
    pub model: ModelSpec,
    pub k: usize,
}

impl Team {
    /// COST.json `MLP-4` on K=3 nodes (master + 2 workers).
    pub fn mlp4() -> Team {
        Team {
            model: ModelSpec::mlp(4, 128),
            k: 3,
        }
    }

    /// COST.json `SS-14`, the paper's K=2 CIFAR configuration.
    pub fn ss14() -> Team {
        Team {
            model: ModelSpec::shake_shake(14, 16),
            k: 2,
        }
    }

    /// The expert node `node` hosts.
    pub fn expert(&self, node: usize) -> Sequential {
        build_expert(&self.model, EXPERT_SEED + node as u64)
    }

    /// Per-row image dims every expert of this team consumes.
    pub fn image_dims(&self) -> Vec<usize> {
        match self.model {
            ModelSpec::Mlp { .. } => vec![1, 28, 28],
            ModelSpec::ShakeShake {
                in_channels,
                image_hw,
                ..
            } => vec![in_channels, image_hw, image_hw],
        }
    }
}

/// One observability handle per node (index = node id), as a real
/// deployment has: each tracer keeps its own span stack.
#[derive(Debug, Clone)]
pub struct NodeObs(pub Vec<Obs>);

impl NodeObs {
    /// Tracing off on every node; the metrics registries stay live.
    pub fn untraced(k: usize) -> NodeObs {
        NodeObs((0..k).map(|_| Obs::disabled()).collect())
    }

    /// Tracing on, node `i` recording into `sinks[i]`.
    pub fn traced(sinks: &[Arc<dyn TraceSink>]) -> NodeObs {
        NodeObs(
            sinks
                .iter()
                .map(|sink| Obs::new(Arc::new(SystemClock), Arc::clone(sink)))
                .collect(),
        )
    }

    pub fn master(&self) -> &Obs {
        &self.0[0]
    }

    fn master_config(&self) -> MasterConfig {
        MasterConfig {
            obs: self.master().clone(),
            trace_seed: TRACE_SEED,
            ..MasterConfig::default()
        }
    }
}

/// Sum of the per-endpoint traffic counters of a mesh.
pub fn mesh_stats<T: Transport>(nodes: &[T]) -> TransportStats {
    let mut total = TransportStats::default();
    for node in nodes {
        let s = node.stats();
        total.messages_sent += s.messages_sent;
        total.bytes_sent += s.bytes_sent;
    }
    total
}

/// Asks the workers to exit when dropped, so a failed assertion in the
/// measured body unwinds through `thread::scope` instead of hanging it.
struct ShutdownWorkers<'a>(&'a dyn Transport);

impl Drop for ShutdownWorkers<'_> {
    fn drop(&mut self) {
        let _ = shutdown_workers(self.0);
    }
}

fn spawn_workers<'scope, T: Transport>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    nodes: &'scope [T],
    team: &'scope Team,
    obs: &NodeObs,
) {
    for (node_id, node) in nodes.iter().enumerate().skip(1) {
        let config = WorkerConfig {
            obs: obs.0[node_id].clone(),
            ..WorkerConfig::default()
        };
        scope.spawn(move || {
            let mut expert = team.expert(node_id);
            serve_worker_with_config(node, 0, &mut expert, config).expect("worker serve loop");
        });
    }
}

/// The master side of a bare collaborative-round cluster (no serving
/// layer): paper Table II's measurement.
pub struct Rounds<'a> {
    transport: &'a dyn Transport,
    session: InferenceSession,
    expert: Sequential,
}

impl Rounds<'_> {
    /// One collaborative round over `images`.
    pub fn infer(&mut self, images: &Tensor) -> Result<InferenceReport, NetError> {
        self.session.infer(self.transport, &mut self.expert, images)
    }
}

/// Runs `body` against a live round cluster on `nodes` (node 0 is the
/// master), then shuts the workers down and joins them.
pub fn with_rounds<T: Transport, R>(
    nodes: &[T],
    team: &Team,
    obs: &NodeObs,
    body: impl FnOnce(&mut Rounds<'_>) -> R,
) -> R {
    std::thread::scope(|scope| {
        spawn_workers(scope, nodes, team, obs);
        let master = &nodes[0];
        let _shutdown = ShutdownWorkers(master);
        let mut rounds = Rounds {
            transport: master,
            session: InferenceSession::new(master, obs.master_config()),
            expert: team.expert(0),
        };
        body(&mut rounds)
    })
}

/// The two doors into a live serving cluster.
pub struct Served {
    /// In-process submission.
    pub handle: ServeHandle,
    /// The framed TCP front.
    pub addr: SocketAddr,
}

/// Closes the engine when dropped (see [`ShutdownWorkers`]).
struct CloseEngine(ServeHandle);

impl Drop for CloseEngine {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs `body` against a live serving cluster on `nodes`: workers,
/// `ServeEngine::run` on its own thread, `TcpServeFront` bound to an
/// ephemeral loopback port. Tears all of it down afterwards.
pub fn with_serve<T: Transport, R>(
    nodes: &[T],
    team: &Team,
    obs: &NodeObs,
    batch: BatcherConfig,
    body: impl FnOnce(&Served) -> R,
) -> R {
    std::thread::scope(|scope| {
        spawn_workers(scope, nodes, team, obs);
        let master = &nodes[0];
        let _shutdown = ShutdownWorkers(master);
        let mut engine = ServeEngine::new(
            master,
            team.expert(0),
            ServeConfig {
                batch,
                input_dims: team.image_dims(),
                master: obs.master_config(),
            },
        );
        let handle = engine.handle();
        let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).expect("bind serve front");
        let served = Served {
            handle: handle.clone(),
            addr: front.local_addr(),
        };
        let engine_thread = scope.spawn(move || engine.run(master));
        let out = {
            let _close = CloseEngine(handle);
            body(&served)
        };
        engine_thread.join().expect("serve engine thread");
        front.shutdown();
        out
    })
}
