//! Regenerates every table and figure of the TeamNet paper.
//!
//! ```text
//! reproduce [--quick] [all|fig5|fig6|fig7|fig8|fig9|table1a|table1b|table2a|table2b|ablations]
//! ```
//!
//! * `--quick` uses the test-scale configuration (seconds instead of
//!   minutes; numbers are noisier).
//!
//! Every latency here is simulated; measured latency comes from
//! `load_bench` and `kernel_bench`. Each artifact is printed and also
//! written as JSON under `results/`.

use std::time::Instant;
use teamnet_bench::figures::{
    fig5, fig6, fig7, fig8, fig9, render_convergence, render_specialization,
};
use teamnet_bench::suites::{CifarSuite, MnistSuite, Scale};
use teamnet_bench::tables::{render, table1, table2};
use teamnet_simnet::ComputeUnit;

struct Lazy<T> {
    value: Option<T>,
}

impl<T> Lazy<T> {
    fn new() -> Self {
        Lazy { value: None }
    }
    fn ensure(&mut self, build: impl FnOnce() -> T) {
        if self.value.is_none() {
            self.value = Some(build());
        }
    }
    fn get_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("ensure() not called")
    }
}

fn write_json(name: &str, value: &impl serde::Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted = if wanted.is_empty() {
        vec!["all"]
    } else {
        wanted
    };
    let everything = wanted.contains(&"all");
    let want = |name: &str| everything || wanted.contains(&name);

    let scale = if quick { Scale::quick() } else { Scale::full() };
    println!(
        "TeamNet reproduction — scale: {} (train {}, test {})\n",
        if quick { "quick" } else { "full" },
        scale.train,
        scale.test
    );

    let mut mnist: Lazy<MnistSuite> = Lazy::new();
    let mut cifar: Lazy<CifarSuite> = Lazy::new();
    let scale_m = scale.clone();
    let scale_c = scale.clone();
    let mnist_suite = |m: &mut Lazy<MnistSuite>| {
        m.ensure(|| {
            println!("[training MNIST-side suite: baseline, TeamNet x2/x4, SG-MoE x2/x4 ...]");
            let t0 = Instant::now();
            let s = MnistSuite::train(scale_m.clone());
            println!("[MNIST suite trained in {:?}]\n", t0.elapsed());
            s
        });
    };
    let cifar_suite = |c: &mut Lazy<CifarSuite>| {
        c.ensure(|| {
            println!("[training CIFAR-side suite: SS-26, TeamNet 2xSS-14 / 4xSS-8, SG-MoE ...]");
            let t0 = Instant::now();
            let s = CifarSuite::train(scale_c.clone());
            println!("[CIFAR suite trained in {:?}]\n", t0.elapsed());
            s
        });
    };

    if want("fig5") {
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let rows = fig5(suite);
        println!(
            "{}",
            render(&rows, "Figure 5 — Raspberry Pi 3B+, handwritten digits")
        );
        write_json("fig5", &rows);
    }
    if want("table1a") {
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let rows = table1(suite, ComputeUnit::Cpu);
        println!(
            "{}",
            render(
                &rows,
                "Table I(a) — Jetson TX2 CPU only, handwritten digits"
            )
        );
        write_json("table1a", &rows);
    }
    if want("table1b") {
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let rows = table1(suite, ComputeUnit::Gpu);
        println!(
            "{}",
            render(
                &rows,
                "Table I(b) — Jetson TX2 GPU + CPU, handwritten digits"
            )
        );
        write_json("table1b", &rows);
    }
    if want("fig6") {
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let series = fig6(suite);
        println!(
            "{}",
            render_convergence(&series, "Figure 6 — convergence of data shares (digits)")
        );
        write_json("fig6", &series);
    }
    if want("fig7") {
        cifar_suite(&mut cifar);
        let suite = cifar.get_mut();
        for (unit, tag) in [(ComputeUnit::Cpu, "CPU"), (ComputeUnit::Gpu, "GPU")] {
            let rows = fig7(suite, unit);
            println!(
                "{}",
                render(
                    &rows,
                    &format!("Figure 7 — Jetson TX2 {tag}, image classification")
                )
            );
            write_json(&format!("fig7_{}", tag.to_lowercase()), &rows);
        }
    }
    if want("table2a") {
        cifar_suite(&mut cifar);
        let suite = cifar.get_mut();
        let rows = table2(suite, ComputeUnit::Cpu);
        println!(
            "{}",
            render(
                &rows,
                "Table II(a) — Jetson TX2 CPU only, image classification"
            )
        );
        write_json("table2a", &rows);
    }
    if want("table2b") {
        cifar_suite(&mut cifar);
        let suite = cifar.get_mut();
        let rows = table2(suite, ComputeUnit::Gpu);
        println!(
            "{}",
            render(
                &rows,
                "Table II(b) — Jetson TX2 GPU + CPU, image classification"
            )
        );
        write_json("table2b", &rows);
    }
    if want("fig8") {
        cifar_suite(&mut cifar);
        let suite = cifar.get_mut();
        let series = fig8(suite);
        println!(
            "{}",
            render_convergence(&series, "Figure 8 — convergence of data shares (images)")
        );
        write_json("fig8", &series);
    }
    if want("fig9") {
        cifar_suite(&mut cifar);
        let suite = cifar.get_mut();
        for k in [2usize, 4] {
            let map = fig9(suite, k);
            println!(
                "{}",
                render_specialization(&map, "Figure 9 — expert specialization")
            );
            write_json(&format!("fig9_k{k}"), &map);
        }
    }
    if want("ablations") {
        use teamnet_bench::ablations::{combiner_comparison, gain_sweep, link_sweep, load_sweep};
        println!("== Ablation A1 — proportional-controller gain a ==");
        let gains = gain_sweep(scale.seed);
        println!(
            "{:<6} {:>24} {:>22}",
            "a", "theory resid @100", "measured imbalance"
        );
        for r in &gains {
            println!(
                "{:<6} {:>24.4} {:>22.3}",
                r.gain, r.theory_imbalance_at_100, r.measured_imbalance
            );
        }
        write_json("ablation_gain", &gains);

        println!("\n== Ablation A2 — link quality (MNIST workload, 2 nodes) ==");
        let links = link_sweep(&scale);
        println!(
            "{:<16} {:>12} {:>14} {:>16}",
            "link", "baseline(ms)", "teamnet x2(ms)", "mpi-matrix(ms)"
        );
        for r in &links {
            println!(
                "{:<16} {:>12.1} {:>14.1} {:>16.1}",
                r.link, r.baseline_ms, r.teamnet_x2_ms, r.mpi_matrix_x2_ms
            );
        }
        write_json("ablation_link", &links);

        println!("\n== Ablation A3 — inference combiner (Section V) ==");
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let combiners = combiner_comparison(suite);
        println!(
            "{:<4} {:>18} {:>18}",
            "K", "argmin acc(%)", "majority acc(%)"
        );
        for r in &combiners {
            println!(
                "{:<4} {:>18.1} {:>18.1}",
                r.k,
                r.argmin_accuracy * 100.0,
                r.majority_accuracy * 100.0
            );
        }
        write_json("ablation_combiner", &combiners);

        println!("\n== Ablation A4 — response time under Poisson load (M/D/1) ==");
        let loads = load_sweep(&scale, scale.seed);
        println!(
            "{:<10} {:>16} {:>16} {:>12} {:>12}",
            "rate(Hz)", "baseline(ms)", "teamnet(ms)", "rho base", "rho team"
        );
        for r in &loads {
            println!(
                "{:<10} {:>16.1} {:>16.1} {:>12.2} {:>12.2}",
                r.rate_hz,
                r.baseline_mean_ms,
                r.teamnet_mean_ms,
                r.baseline_utilization,
                r.teamnet_utilization
            );
        }
        write_json("ablation_load", &loads);

        println!("\n== Ablation A5 — heterogeneous clusters ==");
        let mixed = teamnet_bench::ablations::mixed_cluster_sweep(&scale);
        println!(
            "{:<16} {:>16} {:>22}",
            "cluster", "teamnet x2(ms)", "slowest compute(ms)"
        );
        for r in &mixed {
            println!(
                "{:<16} {:>16.1} {:>22.1}",
                r.cluster, r.teamnet_x2_ms, r.slowest_compute_ms
            );
        }
        write_json("ablation_mixed", &mixed);
        println!();
    }
    println!("done. JSON artifacts in ./results/");
}
