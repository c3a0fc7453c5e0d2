//! Generators for Tables I and II.

use crate::suites::{
    cifar_baseline_spec, cifar_expert_spec, mnist_baseline_spec, mnist_expert_spec, CifarSuite,
    MnistSuite,
};
use serde::{Deserialize, Serialize};
use teamnet_core::build_expert;
use teamnet_partition::{simulate, ModelCost, Strategy, Workload};
use teamnet_simnet::{ComputeUnit, DeviceProfile, SimCluster};

/// One row of a paper-style comparison table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRow {
    /// Strategy label (e.g. `TeamNet (x2)`).
    pub name: String,
    /// Number of edge nodes occupied.
    pub nodes: usize,
    /// Held-out accuracy in percent.
    pub accuracy_pct: f64,
    /// Modeled end-to-end inference latency in milliseconds.
    pub inference_ms: f64,
    /// Modeled resident-memory share on the most loaded node (percent).
    pub memory_pct: f64,
    /// Modeled average CPU utilization (percent, master node).
    pub cpu_pct: f64,
    /// Modeled average GPU utilization (percent, master node; 0 on
    /// CPU-only configurations).
    pub gpu_pct: f64,
    /// Messages per inference across the medium.
    pub messages: u64,
}

/// Renders rows as an aligned text table (with a GPU column when any row
/// uses one).
pub fn render(rows: &[TableRow], title: &str) -> String {
    let gpu = rows.iter().any(|r| r.gpu_pct > 0.0);
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<22} {:>5} {:>9} {:>12} {:>9} {:>8}{}  {:>8}\n",
        "strategy",
        "nodes",
        "acc(%)",
        "latency(ms)",
        "mem(%)",
        "cpu(%)",
        if gpu { "   gpu(%)" } else { "" },
        "msgs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>5} {:>9.1} {:>12.1} {:>9.1} {:>8.1}{}  {:>8}\n",
            r.name,
            r.nodes,
            r.accuracy_pct,
            r.inference_ms,
            r.memory_pct,
            r.cpu_pct,
            if gpu {
                format!(" {:>8.1}", r.gpu_pct)
            } else {
                String::new()
            },
            r.messages
        ));
    }
    out
}

fn workload(full_spec: &teamnet_nn::ModelSpec, expert_spec: &teamnet_nn::ModelSpec) -> Workload {
    let full = build_expert(full_spec, 0);
    let expert = build_expert(expert_spec, 0);
    let mut input = vec![1usize];
    input.extend(full_spec.input_dims());
    Workload {
        full: ModelCost::measure(&full, &full_spec.input_dims()),
        expert: ModelCost::measure(&expert, &expert_spec.input_dims()),
        result_bytes: 20,
    }
}

fn row(
    name: &str,
    accuracy: f64,
    strategy: Strategy,
    w: &Workload,
    cluster: &SimCluster,
    unit: ComputeUnit,
) -> TableRow {
    let report = simulate(strategy, w, cluster, unit);
    TableRow {
        name: name.to_string(),
        nodes: strategy.nodes(),
        accuracy_pct: accuracy * 100.0,
        inference_ms: report.sim.makespan.as_millis_f64(),
        memory_pct: report.memory_percent,
        cpu_pct: report.sim.cpu_percent[0],
        gpu_pct: report.sim.gpu_percent[0],
        messages: report.sim.messages_sent,
    }
}

/// Table I: Jetson TX2, handwritten digits. `unit` selects (a) CPU-only
/// or (b) GPU+CPU.
pub fn table1(suite: &MnistSuite, unit: ComputeUnit) -> Vec<TableRow> {
    let scale = &suite.scale;
    let device = match unit {
        ComputeUnit::Cpu => DeviceProfile::jetson_tx2_cpu(),
        ComputeUnit::Gpu => DeviceProfile::jetson_tx2_gpu(),
    };
    let base_spec = mnist_baseline_spec(scale);
    let mut rows = Vec::new();

    let w_base = workload(&base_spec, &base_spec);
    let one = SimCluster::homogeneous(device.clone(), 1);
    rows.push(row(
        "Baseline",
        suite.baseline_accuracy,
        Strategy::Baseline,
        &w_base,
        &one,
        unit,
    ));

    for &k in &[2usize, 4] {
        let cluster = SimCluster::homogeneous(device.clone(), k);
        let w = workload(&base_spec, &mnist_expert_spec(scale, k));
        let (team_acc, moe_acc) = if k == 2 {
            (suite.team2.accuracy, suite.moe2.1)
        } else {
            (suite.team4.accuracy, suite.moe4.1)
        };
        let tag = if k == 2 { "x2" } else { "x4" };
        rows.push(row(
            &format!("TeamNet ({tag})"),
            team_acc,
            Strategy::TeamNet { k },
            &w,
            &cluster,
            unit,
        ));
        rows.push(row(
            &format!("MPI-Matrix ({tag})"),
            suite.baseline_accuracy, // exact same function, see partition tests
            Strategy::MpiMatrix { nodes: k },
            &w_base,
            &cluster,
            unit,
        ));
        rows.push(row(
            &format!("SG-MoE-G ({tag})"),
            moe_acc,
            Strategy::SgMoeRpc {
                k,
                top_k: (k / 2).max(1),
            },
            &w,
            &cluster,
            unit,
        ));
        rows.push(row(
            &format!("SG-MoE-M ({tag})"),
            moe_acc,
            Strategy::SgMoeP2p {
                k,
                top_k: (k / 2).max(1),
            },
            &w,
            &cluster,
            unit,
        ));
    }
    rows
}

/// Table II: Jetson TX2, image classification (Shake-Shake CNNs).
pub fn table2(suite: &CifarSuite, unit: ComputeUnit) -> Vec<TableRow> {
    let scale = &suite.scale;
    let device = match unit {
        ComputeUnit::Cpu => DeviceProfile::jetson_tx2_cpu(),
        ComputeUnit::Gpu => DeviceProfile::jetson_tx2_gpu(),
    };
    let base_spec = cifar_baseline_spec(scale);
    let w_base = workload(&base_spec, &base_spec);
    let one = SimCluster::homogeneous(device.clone(), 1);
    let mut rows = Vec::new();
    rows.push(row(
        "Baseline",
        suite.baseline_accuracy,
        Strategy::Baseline,
        &w_base,
        &one,
        unit,
    ));

    for &k in &[2usize, 4] {
        let cluster = SimCluster::homogeneous(device.clone(), k);
        let w = workload(&base_spec, &cifar_expert_spec(scale, k));
        let (team_acc, moe_acc) = if k == 2 {
            (suite.team2.accuracy, suite.moe2.1)
        } else {
            (suite.team4.accuracy, suite.moe4.1)
        };
        let tag = if k == 2 { "x2" } else { "x4" };
        rows.push(row(
            &format!("TeamNet ({tag})"),
            team_acc,
            Strategy::TeamNet { k },
            &w,
            &cluster,
            unit,
        ));
        rows.push(row(
            &format!("MPI-Kernel ({tag})"),
            suite.baseline_accuracy,
            Strategy::MpiKernel { nodes: k },
            &w_base,
            &cluster,
            unit,
        ));
        if k == 2 {
            rows.push(row(
                "MPI-Branch (x2)",
                suite.baseline_accuracy,
                Strategy::MpiBranch,
                &w_base,
                &cluster,
                unit,
            ));
        }
        rows.push(row(
            &format!("SG-MoE-G ({tag})"),
            moe_acc,
            Strategy::SgMoeRpc {
                k,
                top_k: (k / 2).max(1),
            },
            &w,
            &cluster,
            unit,
        ));
        rows.push(row(
            &format!("SG-MoE-M ({tag})"),
            moe_acc,
            Strategy::SgMoeP2p {
                k,
                top_k: (k / 2).max(1),
            },
            &w,
            &cluster,
            unit,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::Scale;

    #[test]
    fn table1_shapes_hold_at_quick_scale() {
        let suite = MnistSuite::train(Scale::quick());
        let rows = table1(&suite, ComputeUnit::Cpu);
        assert_eq!(rows.len(), 9);
        let find = |n: &str| rows.iter().find(|r| r.name == n).expect(n).clone();
        let baseline = find("Baseline");
        let team2 = find("TeamNet (x2)");
        let mpi2 = find("MPI-Matrix (x2)");
        // The paper's headline orderings.
        assert!(mpi2.inference_ms > 10.0 * team2.inference_ms);
        assert!(team2.inference_ms < baseline.inference_ms * 1.5);
        assert!(team2.memory_pct < baseline.memory_pct);
        // Text rendering includes every row.
        let text = render(&rows, "Table I(a)");
        assert!(text.contains("TeamNet (x2)"));
        assert!(text.lines().count() >= 11);
    }

    #[test]
    fn table1_gpu_variant_reports_gpu_column() {
        let suite = MnistSuite::train(Scale::quick());
        let rows = table1(&suite, ComputeUnit::Gpu);
        assert!(rows.iter().any(|r| r.gpu_pct > 0.0));
        // Paper Table I(b): on the GPU the baseline beats TeamNet.
        let find = |n: &str| rows.iter().find(|r| r.name == n).expect(n).clone();
        assert!(find("Baseline").inference_ms < find("TeamNet (x2)").inference_ms);
    }
}
