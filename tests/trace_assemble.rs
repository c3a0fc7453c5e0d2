//! End-to-end contracts of cross-node trace assembly (DESIGN.md §17):
//!
//! 1. **Order invariance** — `assemble` keys everything on `seq` numbers
//!    and span ids, never on file order, so arbitrarily shuffling the
//!    lines of every node's JSONL file yields a byte-identical DAG and
//!    critical-path report. (Real collectors interleave and reorder.)
//! 2. **Seed determinism** — two identical seeded runs over pinned
//!    [`ManualClock`]s emit byte-identical per-node traces, which
//!    assemble into byte-identical reports.
//! 3. **Zero orphans** — on a clean transport every worker span finds
//!    its causal parent in the master's rounds.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use teamnet_core::build_expert;
use teamnet_core::runtime::{
    serve_worker_with_config, shutdown_workers, InferenceSession, MasterConfig, WorkerConfig,
};
use teamnet_net::ManualClock;
use teamnet_net::{ChannelTransport, Clock};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_obs::assemble::assemble;
use teamnet_obs::{Obs, TraceSink, VecSink};
use teamnet_tensor::Tensor;

const TRACE_SEED: u64 = 0x5EED_CAFE;
const ROUNDS: usize = 4;

fn expert(seed: u64) -> Sequential {
    build_expert(&ModelSpec::mlp(2, 16), seed)
}

/// FNV-1a-64: pins the per-node traces across *builds*, where comparing
/// two runs of one build only pins them across runs.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs a clean (chaos-free) 3-node soak where *every* node records its
/// own trace over a pinned ManualClock; returns the three JSONL texts.
fn traced_cluster() -> Vec<(u64, String)> {
    let mut mesh = ChannelTransport::mesh(3);
    let worker2 = mesh.pop().unwrap();
    let worker1 = mesh.pop().unwrap();
    let master = mesh.pop().unwrap();

    let node_obs = || {
        let sink = Arc::new(VecSink::new());
        let obs = Obs::new(
            Arc::new(ManualClock::new()) as Arc<dyn Clock>,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        (sink, obs)
    };
    let (master_sink, master_obs) = node_obs();
    let (sink1, obs1) = node_obs();
    let (sink2, obs2) = node_obs();

    let config = MasterConfig {
        worker_timeout: Duration::from_millis(800),
        obs: master_obs,
        trace_seed: TRACE_SEED,
        ..MasterConfig::default()
    };

    crossbeam::thread::scope(|scope| {
        for (i, (node, obs)) in [(&worker1, obs1), (&worker2, obs2)].into_iter().enumerate() {
            scope.spawn(move |_| {
                let mut worker_expert = expert(i as u64 + 1);
                let worker_config = WorkerConfig {
                    obs,
                    ..WorkerConfig::default()
                };
                serve_worker_with_config(node, 0, &mut worker_expert, worker_config).unwrap();
            });
        }

        let mut session = InferenceSession::new(&master, config);
        let mut master_expert = expert(0);
        for round in 0..ROUNDS {
            let images = Tensor::full([2, 1, 28, 28], (round % 3) as f32 * 0.3);
            session.infer(&master, &mut master_expert, &images).unwrap();
        }
        shutdown_workers(&master).unwrap();
    })
    .unwrap();

    vec![
        (0, master_sink.to_jsonl()),
        (1, sink1.to_jsonl()),
        (2, sink2.to_jsonl()),
    ]
}

/// Deterministic Fisher–Yates over a SplitMix64 stream.
fn shuffle_lines(text: &str, mut seed: u64) -> String {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut lines: Vec<&str> = text.lines().collect();
    for i in (1..lines.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        lines.swap(i, j);
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[test]
fn clean_cluster_assembles_with_zero_orphans_and_exact_attribution() {
    let inputs = traced_cluster();
    let assembled = assemble(&inputs).expect("no orphan spans on a clean transport");
    assert!(
        assembled.warnings.is_empty(),
        "unexpected warnings: {:?}",
        assembled.warnings
    );
    assert_eq!(assembled.skews.len(), 3, "all three nodes present");
    assert!(
        !assembled.edges.is_empty(),
        "wire edges must pair across nodes"
    );

    let rounds = assembled.critical_path();
    assert_eq!(rounds.len(), ROUNDS);
    for r in &rounds {
        let sum = r.attr.compute_ns + r.attr.wire_ns + r.attr.wait_ns + r.attr.retry_ns;
        assert_eq!(
            sum, r.wall_ns,
            "attribution must sum exactly to round wall time"
        );
    }
    // Every round carries its seeded trace id, and the report shows a
    // non-empty table.
    let report = assembled.critical_path_report();
    assert!(report.lines().count() > ROUNDS, "{report}");
}

#[test]
fn identical_seeds_assemble_byte_identically() {
    let a = traced_cluster();
    let b = traced_cluster();
    for ((node_a, text_a), (node_b, text_b)) in a.iter().zip(b.iter()) {
        assert_eq!(node_a, node_b);
        assert_eq!(
            text_a, text_b,
            "node {node_a} trace diverged between identical seeded runs"
        );
    }
    let digests: Vec<u64> = a.iter().map(|(_, text)| fnv1a64(text)).collect();
    assert_eq!(
        digests,
        [
            0x9844_C08D_BB4A_541D,
            0x6C54_E748_6D0A_9A01,
            0x7B03_E967_A6F7_7837
        ],
        "per-node trace JSONL moved"
    );
    let asm_a = assemble(&a).unwrap();
    let asm_b = assemble(&b).unwrap();
    assert_eq!(asm_a.render_dag(), asm_b.render_dag());
    assert_eq!(asm_a.critical_path_report(), asm_b.critical_path_report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shuffling every node's JSONL lines arbitrarily leaves the
    /// assembled DAG and the critical-path report byte-identical.
    #[test]
    fn assembly_is_invariant_under_line_order(seed in 0u64..1_000_000) {
        // One soak per process would be ideal, but proptest cases must be
        // independent; a OnceLock caches the baseline cluster run.
        use std::sync::OnceLock;
        static BASELINE: OnceLock<(Vec<(u64, String)>, String, String)> = OnceLock::new();
        let (inputs, dag, report) = BASELINE.get_or_init(|| {
            let inputs = traced_cluster();
            let asm = assemble(&inputs).unwrap();
            let dag = asm.render_dag();
            let report = asm.critical_path_report();
            (inputs, dag, report)
        });

        let shuffled: Vec<(u64, String)> = inputs
            .iter()
            .map(|(node, text)| (*node, shuffle_lines(text, seed ^ node)))
            .collect();
        let asm = assemble(&shuffled).unwrap();
        prop_assert_eq!(&asm.render_dag(), dag);
        prop_assert_eq!(&asm.critical_path_report(), report);
    }
}
