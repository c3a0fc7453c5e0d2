//! Cost-model simulation of every distributed inference strategy the
//! paper's Tables I and II compare.
//!
//! Each strategy is expressed as the sequence of compute and communication
//! steps it performs per inference, priced on a [`SimCluster`] of modeled
//! edge devices. The inputs are *measured from the real models* (FLOPs and
//! activation sizes via [`teamnet_nn::Sequential::per_layer_profile`]), so
//! the comparison reflects the actual architectures — only the hardware is
//! simulated.

use serde::{Deserialize, Serialize};
use teamnet_nn::{expert_cost, Sequential, WireModel};
use teamnet_simnet::{ComputeUnit, DeviceProfile, SimCluster, SimReport, SimTime};

/// Per-layer cost entry extracted from a real model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Layer name (e.g. `Dense`, `ShakeShake`).
    pub name: String,
    /// Forward FLOPs at batch size 1.
    pub flops: u64,
    /// Size of the layer's input activation in bytes (batch size 1).
    pub input_bytes: u64,
    /// Size of the layer's output activation in bytes (batch size 1).
    pub output_bytes: u64,
}

/// Complete static cost profile of one model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelCost {
    /// Per-layer entries, in pipeline order.
    pub layers: Vec<LayerCost>,
    /// Total trainable-parameter bytes.
    pub param_bytes: u64,
    /// Input tensor size in bytes (batch size 1).
    pub input_bytes: u64,
    /// Certified peak live activation bytes for one eval forward, from
    /// the liveness analysis in `teamnet_nn::cost` — the same number
    /// `cargo xtask cost` writes to `COST.json`. Earlier revisions
    /// approximated this as the largest single activation, which
    /// under-counts at Shake-Shake join points where three buffers
    /// coexist.
    pub peak_activation_bytes: u64,
}

impl ModelCost {
    /// Measures a model at batch size 1 for input dims `[c, h, w]` /
    /// `[features]` (batch axis added internally).
    pub fn measure(model: &Sequential, input_dims: &[usize]) -> Self {
        let mut dims = vec![1];
        dims.extend_from_slice(input_dims);
        let profile = model.per_layer_profile(&dims);
        let layers = profile
            .iter()
            .map(|p| LayerCost {
                name: p.name.to_string(),
                flops: p.flops,
                input_bytes: p.in_dims.iter().product::<usize>() as u64 * 4,
                output_bytes: p.out_dims.iter().product::<usize>() as u64 * 4,
            })
            .collect();
        let certificate = expert_cost(model, &dims, &WireModel::default());
        ModelCost {
            layers,
            param_bytes: certificate.param_bytes,
            input_bytes: certificate.input_bytes,
            peak_activation_bytes: certificate.peak_activation_bytes,
        }
    }

    /// Total forward FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Number of layers (pipeline stages).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Bytes that must be resident to run the model: parameters plus the
    /// certified activation peak.
    pub fn required_resident_bytes(&self) -> u64 {
        self.param_bytes + self.peak_activation_bytes
    }
}

/// A distributed inference strategy from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// The single-device baseline model.
    Baseline,
    /// TeamNet with `k` experts on `k` devices.
    TeamNet {
        /// Number of experts/devices.
        k: usize,
    },
    /// Column-parallel matrix multiplication over `nodes` devices
    /// (MLPs only).
    MpiMatrix {
        /// Number of devices.
        nodes: usize,
    },
    /// Branch-parallel Shake-Shake over exactly two devices.
    MpiBranch,
    /// Kernel(channel)-parallel convolutions over `nodes` devices.
    MpiKernel {
        /// Number of devices.
        nodes: usize,
    },
    /// Sparsely-Gated MoE with RPC transport (the gRPC deployment).
    SgMoeRpc {
        /// Number of experts/devices.
        k: usize,
        /// Experts consulted per input.
        top_k: usize,
    },
    /// Sparsely-Gated MoE with point-to-point messages (the MPI
    /// deployment).
    SgMoeP2p {
        /// Number of experts/devices.
        k: usize,
        /// Experts consulted per input.
        top_k: usize,
    },
}

impl Strategy {
    /// Number of devices this strategy occupies.
    pub fn nodes(&self) -> usize {
        match *self {
            Strategy::Baseline => 1,
            Strategy::TeamNet { k } => k,
            Strategy::MpiMatrix { nodes } | Strategy::MpiKernel { nodes } => nodes,
            Strategy::MpiBranch => 2,
            Strategy::SgMoeRpc { k, .. } | Strategy::SgMoeP2p { k, .. } => k,
        }
    }
}

/// Everything the simulator needs about the workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Cost profile of the full (baseline) model.
    pub full: ModelCost,
    /// Cost profile of one downsized expert (TeamNet / SG-MoE).
    pub expert: ModelCost,
    /// Bytes of one `(label, uncertainty)` result message.
    pub result_bytes: u64,
}

/// Per-call application-layer overheads of the two RPC flavours, charged
/// as extra sender-side latency (connection bookkeeping, HTTP/2-style
/// framing for the gRPC stand-in; polling slack for the MPI stand-in).
const RPC_CALL_OVERHEAD: SimTime = SimTime::from_millis(1);
const P2P_CALL_OVERHEAD: SimTime = SimTime::from_millis(2);

/// Per-layer cost of running an MPI collective over WiFi: the progress
/// engine's rendezvous handshakes and multi-round tree exchange cost
/// several medium round trips beyond the payload itself. This is the term
/// that makes per-layer model parallelism catastrophic on wireless (the
/// paper's MPI-Matrix rows reach 108–189 ms).
const MPI_COLLECTIVE_SYNC: SimTime = SimTime::from_millis(4);

/// Outcome of simulating one strategy: the [`SimReport`] plus the
/// master-node memory estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyReport {
    /// Latency/utilization/traffic of one inference.
    pub sim: SimReport,
    /// Modeled resident-memory share on the most loaded node (percent).
    pub memory_percent: f64,
}

/// Static admission plus pricing of the per-node resident share: session
/// setup must refuse a placement whose certified requirement cannot fit
/// the device at all, instead of silently simulating an impossible
/// deployment.
fn price_memory(device: &DeviceProfile, param_bytes: u64, peak_activation_bytes: u64) -> f64 {
    if let Err(e) = device.admit(param_bytes.saturating_add(peak_activation_bytes)) {
        // Documented `# Panics` contract of `simulate`: an inadmissible
        // placement is a configuration bug. lint: allow(no-panic)
        panic!("placement rejected by static admission check: {e}");
    }
    device.memory_percent(param_bytes, peak_activation_bytes)
}

/// Simulates one inference under `strategy` on `cluster`.
///
/// # Panics
///
/// Panics if the cluster is smaller than the strategy requires, an MPI
/// strategy is applied to an incompatible model family, or the static
/// admission check rejects the placement (the certified resident
/// requirement of the per-node model share exceeds device RAM).
pub fn simulate(
    strategy: Strategy,
    workload: &Workload,
    cluster: &SimCluster,
    unit: ComputeUnit,
) -> StrategyReport {
    assert!(
        cluster.len() >= strategy.nodes(),
        "cluster of {} too small for {strategy:?}",
        cluster.len()
    );
    let mut run = cluster.run();
    let full = &workload.full;
    let expert = &workload.expert;
    let device = &cluster.devices[0];

    #[allow(clippy::needless_late_init)] // one binding documented per strategy arm
    let memory_percent;
    match strategy {
        Strategy::Baseline => {
            run.compute(0, full.total_flops(), full.depth(), unit);
            memory_percent = price_memory(device, full.param_bytes, full.peak_activation_bytes);
        }
        Strategy::TeamNet { k } => {
            // Figure 1(d): broadcast input, all experts in parallel, gather
            // tiny results, arg-min locally (negligible).
            run.broadcast(0, full.input_bytes);
            for node in 0..k {
                run.compute(node, expert.total_flops(), expert.depth(), unit);
            }
            run.gather(0, workload.result_bytes);
            memory_percent = price_memory(device, expert.param_bytes, expert.peak_activation_bytes);
        }
        Strategy::MpiMatrix { nodes } => {
            // Per dense layer: everyone computes its column slice, then
            // all-gathers the slices (n·(n−1) unicasts on a shared medium).
            run.broadcast(0, full.input_bytes);
            for layer in &full.layers {
                for node in 0..nodes {
                    run.compute(node, layer.flops / nodes as u64, 1, unit);
                }
                if layer.name != "Dense" {
                    continue; // only matrix multiplications pay a collective
                }
                let slice = layer.output_bytes / nodes as u64;
                for from in 0..nodes {
                    for to in 0..nodes {
                        if from != to {
                            run.send(from, to, slice);
                        }
                    }
                }
                // MPI collectives synchronize: a small barrier round per
                // layer (up to the root and back) plus the progress-engine
                // rendezvous cost.
                run.gather(0, 8);
                run.broadcast(0, 8);
                run.delay(0, MPI_COLLECTIVE_SYNC);
                run.sync_all();
            }
            memory_percent = price_memory(
                device,
                full.param_bytes / nodes as u64,
                full.peak_activation_bytes,
            );
        }
        Strategy::MpiBranch => {
            // Per Shake-Shake block: ship the block input to the peer, both
            // compute one branch, peer returns its half. Other layers run
            // on the master alone.
            for layer in &full.layers {
                if layer.name == "ShakeShake" {
                    run.delay(0, SimTime::from_millis(1)); // MPI p2p rendezvous
                    run.send(0, 1, layer.input_bytes);
                    let branch = layer.flops / 2;
                    run.compute(0, branch, 1, unit);
                    run.compute(1, branch, 1, unit);
                    run.send(1, 0, layer.output_bytes);
                } else {
                    run.compute(0, layer.flops, 1, unit);
                }
            }
            memory_percent = price_memory(
                device,
                full.param_bytes * 6 / 10, // master holds branch1 + skip + stem/classifier
                full.peak_activation_bytes,
            );
        }
        Strategy::MpiKernel { nodes } => {
            // Per costly layer: broadcast its input, everyone convolves its
            // channel slice, gather slices at the root.
            for layer in &full.layers {
                if layer.flops < 1_000 {
                    run.compute(0, layer.flops, 1, unit);
                    continue;
                }
                run.broadcast(0, layer.input_bytes);
                for node in 0..nodes {
                    run.compute(node, layer.flops / nodes as u64, 1, unit);
                }
                run.gather(0, layer.output_bytes / nodes as u64);
                run.delay(0, MPI_COLLECTIVE_SYNC);
                run.sync_all();
            }
            memory_percent = price_memory(
                device,
                full.param_bytes / nodes as u64,
                full.peak_activation_bytes,
            );
        }
        Strategy::SgMoeRpc { k, top_k } | Strategy::SgMoeP2p { k, top_k } => {
            let overhead = if matches!(strategy, Strategy::SgMoeRpc { .. }) {
                RPC_CALL_OVERHEAD
            } else {
                P2P_CALL_OVERHEAD
            };
            // The gate runs first on node 0 (a small linear layer).
            let input_scalars = full.input_bytes / 4;
            let gate_flops = 2 * input_scalars * k as u64;
            run.compute(0, gate_flops, 1, unit);
            // Route to top_k experts. Under a balanced gate the selected
            // set is uniform over experts, so a typical inference reaches
            // ⌈top_k·(K−1)/K⌉ remote experts (expert 0 is co-located with
            // the gate and is free when selected).
            let expected_remote = (top_k as f64 * (k as f64 - 1.0) / k as f64).ceil() as usize;
            let remote: Vec<usize> = (1..k).take(expected_remote).collect();
            for &node in &remote {
                run.delay(0, overhead);
                run.send(0, node, full.input_bytes);
            }
            run.compute(0, expert.total_flops(), expert.depth(), unit);
            for &node in &remote {
                run.compute(node, expert.total_flops(), expert.depth(), unit);
                run.send(node, 0, workload.result_bytes.max(40));
            }
            // Gate combination is negligible.
            memory_percent = price_memory(
                device,
                expert.param_bytes + (input_scalars * k as u64) * 4,
                expert.peak_activation_bytes,
            );
        }
    }

    StrategyReport {
        sim: run.finish(None),
        memory_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_nn::ModelSpec;
    use teamnet_simnet::DeviceProfile;

    fn mnist_workload() -> Workload {
        let full = ModelSpec::mlp(8, 256).build(0);
        let expert = ModelSpec::mlp(4, 128).build(0);
        Workload {
            full: ModelCost::measure(&full, &[784]),
            expert: ModelCost::measure(&expert, &[784]),
            result_bytes: 20,
        }
    }

    fn cifar_workload() -> Workload {
        let full = ModelSpec::shake_shake(26, 8).build(0);
        let expert = ModelSpec::shake_shake(14, 6).build(0);
        Workload {
            full: ModelCost::measure(&full, &[3, 32, 32]),
            expert: ModelCost::measure(&expert, &[3, 32, 32]),
            result_bytes: 20,
        }
    }

    fn jetson(n: usize) -> SimCluster {
        SimCluster::homogeneous(DeviceProfile::jetson_tx2_cpu(), n)
    }

    #[test]
    fn model_cost_measurement() {
        let w = mnist_workload();
        assert!(w.full.total_flops() > w.expert.total_flops());
        assert_eq!(w.full.input_bytes, 784 * 4);
        assert!(w.full.param_bytes > 100_000);
        assert!(w.full.depth() >= 8);
    }

    /// Table I(a) shape: TeamNet ≲ baseline; MPI-Matrix catastrophically
    /// slower; SG-MoE in between.
    #[test]
    fn mnist_cpu_latency_ordering() {
        let w = mnist_workload();
        let cluster = jetson(2);
        let base = simulate(Strategy::Baseline, &w, &cluster, ComputeUnit::Cpu);
        let team = simulate(Strategy::TeamNet { k: 2 }, &w, &cluster, ComputeUnit::Cpu);
        let mpi = simulate(
            Strategy::MpiMatrix { nodes: 2 },
            &w,
            &cluster,
            ComputeUnit::Cpu,
        );
        let moe = simulate(
            Strategy::SgMoeRpc { k: 2, top_k: 2 },
            &w,
            &cluster,
            ComputeUnit::Cpu,
        );
        let (b, t, m, g) = (
            base.sim.makespan.as_millis_f64(),
            team.sim.makespan.as_millis_f64(),
            mpi.sim.makespan.as_millis_f64(),
            moe.sim.makespan.as_millis_f64(),
        );
        assert!(m > 8.0 * b, "MPI {m} must dwarf baseline {b}");
        assert!(m > 8.0 * t, "MPI {m} must dwarf TeamNet {t}");
        assert!(
            g > t,
            "SG-MoE {g} pays the gate before experts start, TeamNet {t}"
        );
    }

    /// Table II shape on CPUs: TeamNet about halves the baseline; both MPI
    /// variants are much slower; MPI-Kernel worse than MPI-Branch.
    #[test]
    fn cifar_cpu_latency_ordering() {
        let w = cifar_workload();
        let cluster = jetson(2);
        let base = simulate(Strategy::Baseline, &w, &cluster, ComputeUnit::Cpu);
        let team = simulate(Strategy::TeamNet { k: 2 }, &w, &cluster, ComputeUnit::Cpu);
        let branch = simulate(Strategy::MpiBranch, &w, &cluster, ComputeUnit::Cpu);
        let kernel = simulate(
            Strategy::MpiKernel { nodes: 2 },
            &w,
            &cluster,
            ComputeUnit::Cpu,
        );
        let (b, t, br, ke) = (
            base.sim.makespan.as_millis_f64(),
            team.sim.makespan.as_millis_f64(),
            branch.sim.makespan.as_millis_f64(),
            kernel.sim.makespan.as_millis_f64(),
        );
        assert!(t < 0.7 * b, "TeamNet {t} should beat baseline {b} clearly");
        assert!(
            br > b,
            "MPI-Branch {br} pays per-block round trips vs baseline {b}"
        );
        assert!(
            ke > br,
            "MPI-Kernel {ke} moves more data than MPI-Branch {br}"
        );
    }

    /// Table I(b) shape: on the GPU the baseline's tiny-MLP compute is so
    /// fast that WiFi overhead makes TeamNet *slower* than the baseline.
    #[test]
    fn gpu_smallness_inverts_teamnet_gain() {
        let w = mnist_workload();
        let cluster = SimCluster::homogeneous(DeviceProfile::jetson_tx2_gpu(), 2);
        let base = simulate(Strategy::Baseline, &w, &cluster, ComputeUnit::Gpu);
        let team = simulate(Strategy::TeamNet { k: 2 }, &w, &cluster, ComputeUnit::Gpu);
        assert!(
            team.sim.makespan > base.sim.makespan,
            "TeamNet {} must lose to the GPU baseline {} on tiny models",
            team.sim.makespan,
            base.sim.makespan
        );
    }

    /// More experts shrink per-node memory (Figure 5's memory panel).
    #[test]
    fn teamnet_memory_shrinks_with_more_experts() {
        let full = ModelSpec::mlp(8, 256).build(0);
        let half = ModelSpec::mlp(4, 256).build(0);
        let quarter = ModelSpec::mlp(2, 256).build(0);
        let mk = |expert: &teamnet_nn::Sequential| Workload {
            full: ModelCost::measure(&full, &[784]),
            expert: ModelCost::measure(expert, &[784]),
            result_bytes: 20,
        };
        let cluster = jetson(4);
        let w2 = mk(&half);
        let w4 = mk(&quarter);
        let double = simulate(Strategy::TeamNet { k: 2 }, &w2, &cluster, ComputeUnit::Cpu);
        let quadro = simulate(Strategy::TeamNet { k: 4 }, &w4, &cluster, ComputeUnit::Cpu);
        let base = simulate(Strategy::Baseline, &w2, &cluster, ComputeUnit::Cpu);
        assert!(double.memory_percent < base.memory_percent);
        assert!(quadro.memory_percent < double.memory_percent);
    }

    /// Regression pin for the certified memory model: with the resident
    /// share derived from the static certificate (runtime + weights +
    /// liveness peak) instead of the old per-layer heuristic, the
    /// percentages sit in the paper's ballpark — a TensorFlow-class
    /// runtime dominating small edge models, a few percent of an 8 GiB
    /// Jetson and somewhat more of a 1 GiB Pi.
    #[test]
    fn memory_percent_paper_ballpark() {
        let w = mnist_workload();
        let jetson = jetson(2);
        let base = simulate(Strategy::Baseline, &w, &jetson, ComputeUnit::Cpu);
        assert!(
            (4.5..5.5).contains(&base.memory_percent),
            "{}",
            base.memory_percent
        );
        let team = simulate(Strategy::TeamNet { k: 2 }, &w, &jetson, ComputeUnit::Cpu);
        let idle = DeviceProfile::jetson_tx2_cpu().memory_percent(0, 0);
        assert!(idle < team.memory_percent && team.memory_percent < base.memory_percent);

        let pi = SimCluster::homogeneous(DeviceProfile::raspberry_pi_3b_plus(), 2);
        let pi_base = simulate(Strategy::Baseline, &w, &pi, ComputeUnit::Cpu);
        assert!(
            (5.5..7.5).contains(&pi_base.memory_percent),
            "{}",
            pi_base.memory_percent
        );
        assert!(
            pi_base.memory_percent > base.memory_percent,
            "1 GiB vs 8 GiB"
        );
    }

    #[test]
    #[should_panic(expected = "placement rejected by static admission check")]
    fn inadmissible_placement_is_rejected_at_session_setup() {
        let w = mnist_workload();
        let mut starved = DeviceProfile::jetson_tx2_cpu();
        // Leave less free RAM than the certified requirement of the model.
        starved.memory_capacity_bytes =
            starved.runtime_resident_bytes + w.full.required_resident_bytes() - 1;
        let cluster = SimCluster::homogeneous(starved, 1);
        simulate(Strategy::Baseline, &w, &cluster, ComputeUnit::Cpu);
    }

    #[test]
    fn traffic_accounting() {
        let w = mnist_workload();
        let cluster = jetson(4);
        let team = simulate(Strategy::TeamNet { k: 4 }, &w, &cluster, ComputeUnit::Cpu);
        // 3 input unicasts + 3 result messages.
        assert_eq!(team.sim.messages_sent, 6);
        let mpi = simulate(
            Strategy::MpiMatrix { nodes: 4 },
            &w,
            &cluster,
            ComputeUnit::Cpu,
        );
        assert!(mpi.sim.messages_sent > 50, "{}", mpi.sim.messages_sent);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_undersized_cluster() {
        let w = mnist_workload();
        simulate(Strategy::TeamNet { k: 4 }, &w, &jetson(2), ComputeUnit::Cpu);
    }
}
