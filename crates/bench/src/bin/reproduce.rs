//! Regenerates every table and figure of the TeamNet paper.
//!
//! ```text
//! reproduce [--quick] [all|fig5|fig6|fig7|fig8|fig9|table1a|table1b|table2a|table2b|tcp]
//! ```
//!
//! * `--quick` uses the test-scale configuration (seconds instead of
//!   minutes; numbers are noisier).
//! * `tcp` additionally measures *real* end-to-end wall-clock latency of
//!   the implemented protocols over loopback TCP, as a sanity check of the
//!   cost model's orderings.
//!
//! Each artifact is printed and also written as JSON under `results/`.

use std::time::{Duration, Instant};
use teamnet_bench::figures::{
    fig5, fig6, fig7, fig8, fig9, render_convergence, render_specialization,
};
use teamnet_bench::suites::{mnist_expert_spec, CifarSuite, MnistSuite, Scale};
use teamnet_bench::tables::{render, table1, table2};
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_nn::{load_state, state_vec};
use teamnet_simnet::ComputeUnit;
use teamnet_tensor::Tensor;

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

/// Measures real loopback-TCP end-to-end latency of the TeamNet protocol
/// with `k` nodes running the MNIST expert models.
fn measure_teamnet_tcp(scale: &Scale, k: usize, trained: &mut teamnet_core::TeamNet) -> Duration {
    let spec = mnist_expert_spec(scale, k);
    let states: Vec<Vec<Tensor>> = (0..k).map(|i| state_vec(trained.expert_mut(i))).collect();
    let nodes = teamnet_net::TcpTransport::mesh_localhost(k).expect("loopback mesh");
    let image = Tensor::rand_uniform(
        [1, 1, 28, 28],
        0.0,
        1.0,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1),
    );
    crossbeam::thread::scope(|scope| {
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let spec = spec.clone();
            let state = states[i].clone();
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, 0);
                load_state(&mut expert, &state);
                serve_worker_with_config(node, 0, &mut expert, WorkerConfig::default()).ok();
            });
        }
        let mut master = build_expert(&spec, 0);
        load_state(&mut master, &states[0]);
        let mut session = InferenceSession::new(&nodes[0], MasterConfig::default());
        // Warm up, then time 50 inferences.
        for _ in 0..5 {
            session
                .infer(&nodes[0], &mut master, &image)
                .expect("warmup inference");
        }
        let start = Instant::now();
        const ROUNDS: u32 = 50;
        for _ in 0..ROUNDS {
            session
                .infer(&nodes[0], &mut master, &image)
                .expect("timed inference");
        }
        let elapsed = start.elapsed() / ROUNDS;
        shutdown_workers(&nodes[0]).ok();
        elapsed
    })
    .expect("tcp measurement threads")
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
    if want("tcp") {
        println!("== Appendix — real loopback-TCP end-to-end latency (TeamNet protocol) ==");
        mnist_suite(&mut mnist);
        let suite = mnist.get_mut();
        let t2 = measure_teamnet_tcp(&suite.scale.clone(), 2, &mut suite.team2.team);
        println!("TeamNet x2 over TCP: {t2:?} per inference");
        let t4 = measure_teamnet_tcp(&suite.scale.clone(), 4, &mut suite.team4.team);
        println!("TeamNet x4 over TCP: {t4:?} per inference");
        write_json(
            "tcp_appendix",
            &serde_json::json!({
                "teamnet_x2_us": t2.as_micros() as u64,
                "teamnet_x4_us": t4.as_micros() as u64,
            }),
        );
    }
    println!("done. JSON artifacts in ./results/");
}
