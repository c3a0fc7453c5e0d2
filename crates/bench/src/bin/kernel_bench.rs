//! Kernel micro-benchmarks for the parallel compute backend.
//!
//! ```text
//! kernel_bench [--smoke] [--out PATH] [--force-oversubscribed]
//! ```
//!
//! Times the three parallelized kernels — matmul (64³/256³/512³ and the
//! shapes inference traffic runs: MLP-4's Dense layers at batch 1/32/64,
//! the 10-column classifier, a 4-column gate head), conv2d
//! forward + backward on Shake-Shake CIFAR shapes (two 8-image training
//! batches, then every distinct conv of SS-14 at batch 1 — its six 3×3
//! convs and two 1×1 stride-2 projections, the traffic of one inference
//! round), and the per-expert team-forward fan-out at
//! K=2/4 — at 1, 2 and 4 threads, and verifies
//! on every configuration that the parallel result is **bit-identical**
//! to the sequential one (the determinism contract of
//! `teamnet_tensor::pool`).
//!
//! Results are written as JSON (default `BENCH_kernels.json`). The file
//! records `host_threads` (`std::thread::available_parallelism`) and the
//! vector width the binary was compiled for: `vector_lanes` and `tile_nr`
//! (the tile kernel's lanes and columns per tile) and the enabled
//! `target_features` they follow from. Timing
//! a thread count the host cannot actually run in parallel measures
//! scheduling overhead, not speedup, so those rows' timing fields are
//! written as `null` (the bit-identity checks still run — they are
//! hardware-independent). `--force-oversubscribed` times them anyway for
//! scheduler-overhead studies; the per-row `timed` flag says which
//! regime produced the numbers.
//!
//! Each conv row is the fastest of fifteen windows of at least 20 ms, as
//! a mean per call within the window (the row's histograms still see
//! every call): a batch-1 conv takes microseconds, and a single window of
//! a few calls reads the host's jitter, not the kernel. The rows take
//! their windows in turn, round-robin, so each row's fifteen spread over
//! the whole conv pass instead of one 0.3 s stretch of it: the host's
//! fast and slow modes last seconds, and one stretch can sit in either.
//!
//! `default_entry` times `Tensor::matmul` and `conv2d` — the entry points
//! that go parallel only past `PAR_MIN_WORK` — as this process runs them
//! against the same call pinned sequential: the rows the threshold is set
//! from.
//!
//! `--smoke` shrinks every problem so CI can run the full matrix in
//! seconds while still exercising the bit-identity checks.
//!
//! Besides bit-identity, every run fails when one row of 1×784×128 costs
//! more than [`SINGLE_ROW_COST_LIMIT`] × a row of 64×784×128 (fastest
//! iteration of each, one thread): a ratio of two timings from one host,
//! so it trips on a store-bound single-row path coming back — the retired
//! row kernel read 3.2–4.6 ×, the tile 0.6–1.3 × — and not on a slow
//! machine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use teamnet_core::{build_expert, TeamNet};
use teamnet_nn::ModelSpec;
use teamnet_obs::{Histogram, HistogramSnapshot, MetricsRegistry, Obs};
use teamnet_tensor::conv::{conv2d, conv2d_backward_with, conv2d_with, Conv2dSpec};
use teamnet_tensor::{force_sequential_scope, ParallelConfig, Tensor, TILE_NR, VECTOR_LANES};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Most a lone row of the MLP-4 input layer may cost, in rows of the same
/// product at batch 64 (see the module docs).
const SINGLE_ROW_COST_LIMIT: f64 = 2.5;

#[derive(Serialize)]
struct MatmulRow {
    /// `[m, k] × [k, n]`.
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    iters: u32,
    /// False when the host could not run this thread count in parallel
    /// and timing was therefore refused; the timing fields are `null`.
    timed: bool,
    ms_per_iter: Option<f64>,
    gflops: Option<f64>,
    bit_identical_to_seq: bool,
    latency_ns: Option<HistogramSnapshot>,
}

#[derive(Serialize)]
struct ConvRow {
    input: Vec<usize>,
    weight: Vec<usize>,
    stride: usize,
    padding: usize,
    threads: usize,
    /// Windows each of `forward_ms` and `backward_ms` is the fastest of.
    windows: u32,
    /// Least length of a window: calls repeat until it has passed.
    window_ms: f64,
    timed: bool,
    /// Mean ms per call in the fastest window.
    forward_ms: Option<f64>,
    /// Forward multiply–adds × 2 over `forward_ms`.
    forward_gflops: Option<f64>,
    /// As `forward_ms`.
    backward_ms: Option<f64>,
    bit_identical_to_seq: bool,
    forward_ns: Option<HistogramSnapshot>,
    backward_ns: Option<HistogramSnapshot>,
}

#[derive(Serialize)]
struct TeamRow {
    k: usize,
    batch: usize,
    threads: usize,
    iters: u32,
    timed: bool,
    ms_per_iter: Option<f64>,
    bit_identical_to_seq: bool,
    latency_ns: Option<HistogramSnapshot>,
}

/// A default entry point (`Tensor::matmul`, `conv2d`: parallel only past
/// the `PAR_MIN_WORK` threshold) timed as the process runs it and pinned
/// sequential, alternating. The row that says whether the threshold is
/// set right: `default_ms` should not be the larger by more than two
/// timings of the same code differ.
#[derive(Serialize)]
struct DefaultEntryRow {
    kernel: String,
    /// Threads the default entry resolves to in this process
    /// (`TEAMNET_THREADS`, else the host's parallelism).
    default_threads: usize,
    iters: u32,
    sequential_ms: f64,
    default_ms: f64,
}

#[derive(Serialize)]
struct Report {
    host_threads: usize,
    /// `f32` lanes per vector register the tile kernel was compiled for.
    vector_lanes: usize,
    /// Columns of the tile kernel's 2-row register tile.
    tile_nr: usize,
    /// The vector features enabled at compile time, of those the tile
    /// width follows from.
    target_features: Vec<&'static str>,
    smoke: bool,
    /// Thread counts above this were not timed (their timing fields are
    /// `null`): equal to `host_threads` unless `--force-oversubscribed`.
    timing_thread_cap: usize,
    /// Fastest 1×784×128 iteration over the per-row time of the fastest
    /// 64×784×128 iteration, one thread; gated at [`SINGLE_ROW_COST_LIMIT`].
    single_row_cost_ratio: f64,
    caveat: &'static str,
    /// Cost of one disabled `Obs::span()` call (the NullSink path), in
    /// nanoseconds — the overhead the runtime pays when tracing is off.
    null_span_ns_per_call: f64,
    matmul: Vec<MatmulRow>,
    conv2d: Vec<ConvRow>,
    default_entry: Vec<DefaultEntryRow>,
    team_forward: Vec<TeamRow>,
}

/// Times `iters` runs of `f`, feeding each run's nanoseconds into `hist`
/// (the shared `teamnet-obs` log2-bucket machinery — the same snapshot
/// format the trace-report tool prints). Returns the mean ms per iter.
fn time_iters(iters: u32, hist: &Histogram, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut last = start;
    for _ in 0..iters {
        f();
        let now = Instant::now();
        let ns = now.duration_since(last).as_nanos();
        hist.observe(u64::try_from(ns).unwrap_or(u64::MAX));
        last = now;
    }
    last.duration_since(start).as_secs_f64() * 1e3 / f64::from(iters)
}

/// Times one window of `f`: calls repeat until at least `window` has
/// passed, every call's nanoseconds go into `hist`, and the window's mean
/// ms per call comes back. A window holds many calls of a
/// microsecond-sized conv, so one call's jitter does not set it.
fn window_ms(window: Duration, hist: &Histogram, f: &dyn Fn()) -> f64 {
    let start = Instant::now();
    let mut last = start;
    let mut calls = 0u32;
    while calls == 0 || last.duration_since(start) < window {
        f();
        let now = Instant::now();
        let ns = now.duration_since(last).as_nanos();
        hist.observe(u64::try_from(ns).unwrap_or(u64::MAX));
        last = now;
        calls += 1;
    }
    last.duration_since(start).as_secs_f64() * 1e3 / f64::from(calls)
}

/// Measures the per-call cost of a span against a disabled tracer: one
/// branch, no clock read, no lock. Reported in the JSON so "NullSink adds
/// no measurable overhead" is a number, not a claim.
fn measure_null_span_overhead() -> f64 {
    let obs = Obs::disabled();
    let iters = 1_000_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        let _g = obs.span("bench.noop", &[]);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// The vector features this binary was compiled with, of those that set
/// the tile kernel's width (`teamnet_tensor::VECTOR_LANES`).
fn target_features() -> Vec<&'static str> {
    [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, enabled)| enabled.then_some(name))
    .collect()
}

fn dims_key(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// `input * weight s<stride> p<padding>`, as the console lines and the
/// `default_entry` rows name a conv.
fn conv_name(in_dims: &[usize], w_dims: &[usize], spec: Conv2dSpec) -> String {
    format!(
        "{} * {} s{} p{}",
        dims_key(in_dims),
        dims_key(w_dims),
        spec.stride,
        spec.padding
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// One matmul workload: `[m, k] × [k, n]`.
type MatmulShape = (usize, usize, usize);

fn bench_matmul(
    shapes: &[MatmulShape],
    smoke: bool,
    time_cap: usize,
    metrics: &MetricsRegistry,
) -> Vec<MatmulRow> {
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        let mut rng = StdRng::seed_from_u64((m * k + n) as u64);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let reference = a
            .try_matmul_with(&b, ParallelConfig::sequential())
            .expect("inner dimensions agree");
        let flops = 2.0 * (m * k * n) as f64;
        // About 40 ms of arithmetic per row at a nominal 10 GFLOP/s (4 ms
        // in smoke), so a microsecond-sized product is not timed from
        // five samples.
        let budget = if smoke { 4e7 } else { 4e8 };
        let iters = ((budget / flops) as u32).clamp(5, 20_000);
        for threads in THREAD_COUNTS {
            let cfg = ParallelConfig::with_threads(threads);
            let out = a.try_matmul_with(&b, cfg).expect("inner dimensions agree");
            let identical = bits(&out) == bits(&reference);
            if threads > time_cap {
                println!("matmul {m:>3}x{k:>3}x{n:>3}  threads={threads}  (timing refused: host has {time_cap} thread(s))  bit-identical={identical}");
                rows.push(MatmulRow {
                    m,
                    k,
                    n,
                    threads,
                    iters: 0,
                    timed: false,
                    ms_per_iter: None,
                    gflops: None,
                    bit_identical_to_seq: identical,
                    latency_ns: None,
                });
                continue;
            }
            let hist = metrics.histogram(&format!("bench.matmul.{m}x{k}x{n}.t{threads}.ns"));
            let ms = time_iters(iters, &hist, || {
                let _ = a.try_matmul_with(&b, cfg).expect("inner dimensions agree");
            });
            rows.push(MatmulRow {
                m,
                k,
                n,
                threads,
                iters,
                timed: true,
                ms_per_iter: Some(ms),
                gflops: Some(flops / (ms * 1e6)),
                bit_identical_to_seq: identical,
                latency_ns: Some(hist.snapshot()),
            });
            println!(
                "matmul {m:>3}x{k:>3}x{n:>3}  threads={threads}  {ms:9.4} ms  ({:6.2} GFLOP/s)  bit-identical={identical}",
                flops / (ms * 1e6)
            );
        }
    }
    rows
}

/// One conv workload: input dims, weight dims `[oc, ic, k, k]` (the
/// kernel size is the last), stride, padding.
type ConvShape = (Vec<usize>, Vec<usize>, usize, usize);

/// One conv workload's tensors, shared by its rows at every thread count.
struct ConvCase {
    in_dims: Vec<usize>,
    w_dims: Vec<usize>,
    stride: usize,
    padding: usize,
    spec: Conv2dSpec,
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    grad_out: Tensor,
    flops: f64,
}

/// A timed conv row's two kernels and their fastest windows so far.
struct ConvTimer<'a> {
    row: usize,
    flops: f64,
    forward: Box<dyn Fn() + 'a>,
    backward: Box<dyn Fn() + 'a>,
    forward_hist: Arc<Histogram>,
    backward_hist: Arc<Histogram>,
    forward_ms: f64,
    backward_ms: f64,
}

fn bench_conv(
    shapes: &[ConvShape],
    (windows, window): (u32, Duration),
    time_cap: usize,
    metrics: &MetricsRegistry,
) -> Vec<ConvRow> {
    let seq = ParallelConfig::sequential();
    let cases: Vec<ConvCase> = shapes
        .iter()
        .map(|(in_dims, w_dims, stride, padding)| {
            let spec = Conv2dSpec::new(w_dims[3], *stride, *padding);
            let mut rng = StdRng::seed_from_u64(in_dims.iter().sum::<usize>() as u64);
            let input = Tensor::randn(in_dims.clone(), 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(w_dims.clone(), 0.0, 0.1, &mut rng);
            let bias = Tensor::randn([w_dims[0]], 0.0, 0.1, &mut rng);
            let out = conv2d_with(&input, &weight, &bias, spec, seq);
            let flops = 2.0 * (out.len() * w_dims[1..].iter().product::<usize>()) as f64;
            let grad_out = Tensor::randn(out.dims().to_vec(), 0.0, 1.0, &mut rng);
            ConvCase {
                in_dims: in_dims.clone(),
                w_dims: w_dims.clone(),
                stride: *stride,
                padding: *padding,
                spec,
                input,
                weight,
                bias,
                grad_out,
                flops,
            }
        })
        .collect();

    let mut rows = Vec::new();
    let mut timers = Vec::new();
    for case in &cases {
        let ConvCase {
            input,
            weight,
            bias,
            grad_out,
            spec,
            ..
        } = case;
        let fwd_ref = conv2d_with(input, weight, bias, *spec, seq);
        let bwd_ref = conv2d_backward_with(input, weight, grad_out, *spec, seq);
        for threads in THREAD_COUNTS {
            let cfg = ParallelConfig::with_threads(threads);
            let fwd = conv2d_with(input, weight, bias, *spec, cfg);
            let bwd = conv2d_backward_with(input, weight, grad_out, *spec, cfg);
            let identical = bits(&fwd) == bits(&fwd_ref)
                && bits(&bwd.0) == bits(&bwd_ref.0)
                && bits(&bwd.1) == bits(&bwd_ref.1)
                && bits(&bwd.2) == bits(&bwd_ref.2);
            let timed = threads <= time_cap;
            if timed {
                let key = format!(
                    "{}.{}s{}p{}",
                    dims_key(&case.in_dims),
                    dims_key(&case.w_dims),
                    case.stride,
                    case.padding
                );
                timers.push(ConvTimer {
                    row: rows.len(),
                    flops: case.flops,
                    forward: Box::new(move || {
                        let _ = conv2d_with(input, weight, bias, *spec, cfg);
                    }),
                    backward: Box::new(move || {
                        let _ = conv2d_backward_with(input, weight, grad_out, *spec, cfg);
                    }),
                    forward_hist: metrics
                        .histogram(&format!("bench.conv2d.fwd.{key}.t{threads}.ns")),
                    backward_hist: metrics
                        .histogram(&format!("bench.conv2d.bwd.{key}.t{threads}.ns")),
                    forward_ms: f64::MAX,
                    backward_ms: f64::MAX,
                });
            }
            rows.push(ConvRow {
                input: case.in_dims.clone(),
                weight: case.w_dims.clone(),
                stride: case.stride,
                padding: case.padding,
                threads,
                windows: if timed { windows } else { 0 },
                window_ms: if timed {
                    window.as_secs_f64() * 1e3
                } else {
                    0.0
                },
                timed,
                forward_ms: None,
                forward_gflops: None,
                backward_ms: None,
                bit_identical_to_seq: identical,
                forward_ns: None,
                backward_ns: None,
            });
        }
    }

    // Round-robin: every row takes one window of each kernel in turn, so
    // a row's fastest window is the fastest across the whole pass.
    for _ in 0..windows {
        for t in &mut timers {
            t.forward_ms = t
                .forward_ms
                .min(window_ms(window, &t.forward_hist, &t.forward));
            t.backward_ms = t
                .backward_ms
                .min(window_ms(window, &t.backward_hist, &t.backward));
        }
    }
    for t in timers {
        let row = &mut rows[t.row];
        row.forward_ms = Some(t.forward_ms);
        row.forward_gflops = Some(t.flops / (t.forward_ms * 1e6));
        row.backward_ms = Some(t.backward_ms);
        row.forward_ns = Some(t.forward_hist.snapshot());
        row.backward_ns = Some(t.backward_hist.snapshot());
    }
    for row in &rows {
        let spec = Conv2dSpec::new(row.weight[3], row.stride, row.padding);
        let name = conv_name(&row.input, &row.weight, spec);
        let (threads, identical) = (row.threads, row.bit_identical_to_seq);
        match (row.forward_ms, row.forward_gflops, row.backward_ms) {
            (Some(fwd), Some(gflops), Some(bwd)) => println!(
                "conv2d {name}  threads={threads}  fwd {fwd:8.3} ms ({gflops:6.2} GFLOP/s)  bwd {bwd:8.3} ms  bit-identical={identical}"
            ),
            _ => println!(
                "conv2d {name}  threads={threads}  (timing refused: host has {time_cap} thread(s))  bit-identical={identical}"
            ),
        }
    }
    rows
}

/// Times `f` — a call of a default entry point — under
/// [`force_sequential_scope`] and as is, alternating so host drift lands
/// on both, and keeps each side's fastest repetition.
fn bench_default_entry(kernel: String, iters: u32, f: impl Fn()) -> DefaultEntryRow {
    let run = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
    };
    let (mut sequential_ms, mut default_ms) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        sequential_ms = sequential_ms.min(force_sequential_scope(run));
        default_ms = default_ms.min(run());
    }
    println!(
        "default entry {kernel}  sequential {sequential_ms:9.4} ms  default {default_ms:9.4} ms"
    );
    DefaultEntryRow {
        kernel,
        default_threads: ParallelConfig::default().threads(),
        iters,
        sequential_ms,
        default_ms,
    }
}

/// One [`bench_default_entry`] row per matmul and conv shape.
fn bench_default_entries(
    matmul_shapes: &[MatmulShape],
    conv_shapes: &[ConvShape],
    smoke: bool,
) -> Vec<DefaultEntryRow> {
    let iters_for = |flops: f64| ((if smoke { 1e7 } else { 1e8 } / flops) as u32).clamp(3, 5_000);
    let mut default_entry = Vec::new();
    for &(m, k, n) in matmul_shapes {
        let a = Tensor::ones([m, k]);
        let b = Tensor::ones([k, n]);
        default_entry.push(bench_default_entry(
            format!("matmul {m}x{k}x{n}"),
            iters_for(2.0 * (m * k * n) as f64),
            || drop(a.matmul(&b)),
        ));
    }
    for (in_dims, w_dims, stride, padding) in conv_shapes {
        let spec = Conv2dSpec::new(w_dims[3], *stride, *padding);
        let input = Tensor::ones(in_dims.clone());
        let weight = Tensor::ones(w_dims.clone());
        let bias = Tensor::ones([w_dims[0]]);
        let out_len = conv2d(&input, &weight, &bias, spec).len();
        default_entry.push(bench_default_entry(
            format!("conv2d {}", conv_name(in_dims, w_dims, spec)),
            iters_for(2.0 * (out_len * w_dims[1..].iter().product::<usize>()) as f64),
            || drop(conv2d(&input, &weight, &bias, spec)),
        ));
    }
    default_entry
}

fn bench_team(
    ks: &[usize],
    batch: usize,
    layers: usize,
    hidden: usize,
    iters: u32,
    time_cap: usize,
    metrics: &MetricsRegistry,
) -> Vec<TeamRow> {
    let mut rows = Vec::new();
    for &k in ks {
        let spec = ModelSpec::mlp(layers, hidden);
        let experts = (0..k).map(|i| build_expert(&spec, i as u64)).collect();
        let mut team = TeamNet::from_experts(spec, experts);
        let mut rng = StdRng::seed_from_u64(k as u64);
        let images = Tensor::rand_uniform([batch, 1, 28, 28], 0.0, 1.0, &mut rng);
        team.set_parallelism(ParallelConfig::sequential());
        let reference = team.predict(&images);
        for threads in THREAD_COUNTS {
            team.set_parallelism(ParallelConfig::with_threads(threads));
            let out = team.predict(&images);
            let identical = reference.len() == out.len()
                && reference.iter().zip(&out).all(|(a, b)| {
                    a.label == b.label
                        && a.expert == b.expert
                        && a.entropy.to_bits() == b.entropy.to_bits()
                });
            if threads > time_cap {
                println!(
                    "team-forward K={k} batch={batch}  threads={threads}  (timing refused: host has {time_cap} thread(s))  bit-identical={identical}"
                );
                rows.push(TeamRow {
                    k,
                    batch,
                    threads,
                    iters: 0,
                    timed: false,
                    ms_per_iter: None,
                    bit_identical_to_seq: identical,
                    latency_ns: None,
                });
                continue;
            }
            let hist = metrics.histogram(&format!("bench.team.k{k}.t{threads}.ns"));
            let ms = time_iters(iters, &hist, || {
                let _ = team.predict(&images);
            });
            println!(
                "team-forward K={k} batch={batch}  threads={threads}  {ms:8.3} ms  bit-identical={identical}"
            );
            rows.push(TeamRow {
                k,
                batch,
                threads,
                iters,
                timed: true,
                ms_per_iter: Some(ms),
                bit_identical_to_seq: identical,
                latency_ns: Some(hist.snapshot()),
            });
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let force_oversubscribed = args.iter().any(|a| a == "--force-oversubscribed");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_kernels.json", String::as_str);

    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let time_cap = if force_oversubscribed {
        usize::MAX
    } else {
        host_threads
    };
    let target_features = target_features();
    println!(
        "kernel bench — host_threads={host_threads} smoke={smoke} \
         vector_lanes={VECTOR_LANES} tile=2x{TILE_NR} target_features={target_features:?}"
    );
    if host_threads < *THREAD_COUNTS.iter().max().unwrap_or(&1) && !force_oversubscribed {
        println!(
            "NOTE: refusing to time thread counts above {host_threads} — oversubscribed rows \
             would measure scheduling overhead, not speedup. Bit-identity is still checked \
             at every thread count. Pass --force-oversubscribed to time them anyway."
        );
    }
    println!();

    // Shake-Shake residual-branch shapes on CIFAR 32x32. Two 8-image
    // batches (the 16-channel full-resolution stage and the 32-channel
    // half-resolution stage), then every distinct conv of SS-14 at batch
    // 1 — six 3×3 pad-1 convs and the two 1×1 stride-2 projections — what
    // one image of an inference round runs through. The smoke shapes keep
    // one row-block tail (`oc` odd) and one column tail in the
    // bit-identity check: 7 × 7 = 49 output columns are a whole tile and
    // then a tail at either width (`tile_nr` 16 or 32). They also reach
    // both kinds of lowering a stride above 1 makes: one row phase (1×1
    // stride 2) and several (5×5 stride 3 pad 2).
    let conv = |input: [usize; 4], weight: [usize; 4], stride, padding| -> ConvShape {
        (input.to_vec(), weight.to_vec(), stride, padding)
    };
    // The shapes inference traffic runs: MLP-4's three Dense layers at the
    // batch sizes the serve layer produces (1, 32, 64), whose 10-column
    // classifier is all column tail, and an MoE gate head (`n` = K = 4).
    let traffic: [MatmulShape; 7] = [
        (1, 784, 128),
        (32, 784, 128),
        (64, 784, 128),
        (1, 128, 128),
        (1, 128, 10),
        (64, 128, 10),
        (64, 784, 4),
    ];
    let mut matmul_shapes: Vec<MatmulShape> = vec![(64, 64, 64)];
    if !smoke {
        matmul_shapes.extend([(256, 256, 256), (512, 512, 512)]);
    }
    matmul_shapes.extend(traffic);
    let (conv_shapes, team_batch, team_iters): (Vec<_>, usize, u32) = if smoke {
        (
            vec![
                conv([2, 8, 8, 8], [8, 8, 3, 3], 1, 1),
                conv([1, 3, 13, 13], [5, 3, 3, 3], 2, 1),
                conv([1, 8, 14, 14], [6, 8, 1, 1], 2, 0),
                conv([1, 3, 20, 20], [5, 3, 5, 5], 3, 2),
            ],
            4,
            2,
        )
    } else {
        (
            vec![
                conv([8, 16, 32, 32], [16, 16, 3, 3], 1, 1),
                conv([8, 32, 16, 16], [32, 32, 3, 3], 1, 1),
                conv([1, 3, 32, 32], [16, 3, 3, 3], 1, 1),
                conv([1, 16, 32, 32], [16, 16, 3, 3], 1, 1),
                conv([1, 16, 32, 32], [32, 16, 3, 3], 2, 1),
                conv([1, 16, 32, 32], [32, 16, 1, 1], 2, 0),
                conv([1, 32, 16, 16], [32, 32, 3, 3], 1, 1),
                conv([1, 32, 16, 16], [64, 32, 3, 3], 2, 1),
                conv([1, 32, 16, 16], [64, 32, 1, 1], 2, 0),
                conv([1, 64, 8, 8], [64, 64, 3, 3], 1, 1),
            ],
            64,
            10,
        )
    };
    // Fifteen windows of at least 20 ms per conv row; the smoke run keeps
    // two one-call windows.
    let conv_windows = if smoke {
        (2, Duration::ZERO)
    } else {
        (15, Duration::from_millis(20))
    };

    let null_span_ns_per_call = measure_null_span_overhead();
    println!("disabled span() overhead: {null_span_ns_per_call:.2} ns/call\n");

    let metrics = MetricsRegistry::new();
    let matmul = bench_matmul(&matmul_shapes, smoke, time_cap, &metrics);
    println!();
    let conv2d = bench_conv(&conv_shapes, conv_windows, time_cap, &metrics);
    println!();
    let default_entry = bench_default_entries(&matmul_shapes, &conv_shapes, smoke);
    println!();
    let team_forward = bench_team(&[2, 4], team_batch, 3, 32, team_iters, time_cap, &metrics);
    println!("\n{}", metrics.snapshot().summary());

    let all_identical = matmul.iter().all(|r| r.bit_identical_to_seq)
        && conv2d.iter().all(|r| r.bit_identical_to_seq)
        && team_forward.iter().all(|r| r.bit_identical_to_seq);

    let fastest_ns = |m: usize| {
        let row = matmul
            .iter()
            .find(|r| (r.m, r.k, r.n, r.threads) == (m, 784, 128, 1))
            .and_then(|r| r.latency_ns.as_ref());
        row.map_or(f64::NAN, |h| h.min as f64)
    };
    let single_row_cost_ratio = fastest_ns(1) / (fastest_ns(64) / 64.0);
    println!(
        "\nsingle-row cost ratio (1x784x128 vs a row of 64x784x128): {single_row_cost_ratio:.2}"
    );

    let report = Report {
        host_threads,
        vector_lanes: VECTOR_LANES,
        tile_nr: TILE_NR,
        target_features,
        smoke,
        timing_thread_cap: time_cap.min(*THREAD_COUNTS.iter().max().unwrap_or(&1)),
        single_row_cost_ratio,
        caveat: "Timings are from this host. Rows with timed=false exceeded the host's \
                 parallelism and were NOT timed (fields are null): on an oversubscribed \
                 host they would measure scheduling overhead, not speedup. The \
                 bit_identical_to_seq flags are hardware-independent and checked at every \
                 thread count regardless. Per-row *_ns fields are teamnet-obs log2-bucket \
                 histogram snapshots (quantiles are bucket upper bounds, honest to within \
                 2x). conv2d forward_ms / backward_ms are the fastest of `windows` windows of at \
                 least window_ms, each a mean per call, the rows taking their windows in turn across \
                 the conv pass. default_entry rows time Tensor::matmul / conv2d as the process \
                 runs them (default_ms) against the same call pinned sequential \
                 (sequential_ms), fastest of five alternating repetitions; \
                 single_row_cost_ratio is the fastest 1x784x128 iteration over a row of \
                 the fastest 64x784x128 iteration. null_span_ns_per_call is the cost of a span against a disabled \
                 tracer — single-digit nanoseconds, i.e. no measurable overhead on kernels \
                 that run for microseconds or more.",
        null_span_ns_per_call,
        matmul,
        conv2d,
        default_entry,
        team_forward,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(e) = std::fs::write(out_path, json + "\n") {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
    assert!(
        all_identical,
        "determinism contract violated: some configuration was not bit-identical"
    );
    assert!(
        single_row_cost_ratio <= SINGLE_ROW_COST_LIMIT,
        "a lone 1x784x128 row costs {single_row_cost_ratio:.2} rows of 64x784x128 \
         (limit {SINGLE_ROW_COST_LIMIT}): the single-row matmul path is store-bound again"
    );
}
