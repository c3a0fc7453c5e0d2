//! Per-layer probes: each times calls into one crate's public functions,
//! from outside, on the shapes the workloads use. Layers are the crate
//! names. Every figure is the median over the calls that fit the probe's
//! share of the time budget (at most `CALLS`), after a warm-up.

use crate::cluster::{mesh_stats, with_rounds, with_serve, NodeObs, Team};
use crate::stats::median;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_core::runtime::{decode_results, encode_results};
use teamnet_core::{entropy_rows, TeamPrediction};
use teamnet_net::codec::{decode_f32s, encode_f32s};
use teamnet_net::{
    crc32, ChannelTransport, Envelope, PayloadKind, SystemClock, Tag, TcpTransport, Transport,
};
use teamnet_nn::{Layer, Mode};
use teamnet_obs::{Obs, RingSink};
use teamnet_serve::wire::{
    decode_predictions, encode_predictions, encode_serve_frame, read_serve_frame,
};
use teamnet_serve::{Batcher, BatcherConfig, ServeClient, ServeMsgKind};
use teamnet_tensor::conv::{conv2d, Conv2dSpec};
use teamnet_tensor::{MemScope, Tensor};

/// Calls per probe when the budget allows.
const CALLS: usize = 200;
/// Probes sharing the budget equally.
const PROBES: u32 = 32;

/// Collects `(metric name, value)` pairs.
pub type Sink<'a> = &'a mut dyn FnMut(&'static str, f64);

/// Times `f` per call, in nanoseconds: a tenth of the calls as warm-up,
/// then up to `CALLS` timed samples of `inner` back-to-back calls each,
/// stopping early when `budget` runs out. Returns the median.
fn time_ns(budget: Duration, inner: usize, mut f: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    for _ in 0..CALLS / 10 {
        f();
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut samples = Vec::with_capacity(CALLS);
    while samples.len() < CALLS {
        let begin = Instant::now();
        for _ in 0..inner {
            f();
        }
        let end = Instant::now();
        samples.push((end - begin).as_nanos() as f64 / inner as f64);
        if end >= deadline && samples.len() >= 5 {
            break;
        }
    }
    median(&mut samples)
}

/// A deterministic non-constant fill, so kernels see realistic values.
fn ramp(dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| ((i * 31 % 97) as f32 - 48.0) / 97.0)
        .collect();
    Tensor::from_vec(data, dims.to_vec()).expect("ramp volume matches dims")
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

fn gflops(flops: usize, ns: f64) -> f64 {
    flops as f64 / ns
}

fn tensor_layer(each: Duration, out: Sink<'_>) {
    let w = ramp(&[784, 128]);
    let x1 = ramp(&[1, 784]);
    let x64 = ramp(&[64, 784]);
    out(
        "tensor.matmul_b1_us",
        time_ns(each, 1, || drop(black_box(black_box(&x1).matmul(&w)))) / 1e3,
    );
    let ns = time_ns(each, 1, || drop(black_box(black_box(&x64).matmul(&w))));
    out("tensor.matmul_b64_gflops", gflops(2 * 64 * 784 * 128, ns));

    let image = ramp(&[1, 16, 32, 32]);
    let kernel = ramp(&[16, 16, 3, 3]);
    let bias = ramp(&[16]);
    let spec = Conv2dSpec::new(3, 1, 1);
    let ns = time_ns(each, 1, || {
        drop(black_box(conv2d(black_box(&image), &kernel, &bias, spec)));
    });
    out(
        "tensor.conv2d_ss_b1_gflops",
        gflops(2 * 16 * 16 * 9 * 32 * 32, ns),
    );

    let logits = ramp(&[64, 10]);
    out(
        "tensor.softmax_rows_b64_us",
        time_ns(each, 8, || {
            drop(black_box(black_box(&logits).softmax_rows()))
        }) / 1e3,
    );
}

/// Returns the MLP-4 single-row forward time, which the `core` layer
/// subtracts from its round time.
fn nn_layer(each: Duration, out: Sink<'_>) -> f64 {
    let mlp = Team::mlp4();
    let mut expert = mlp.expert(0);
    let x1 = ramp(&[1, 1, 28, 28]);
    let x64 = ramp(&[64, 1, 28, 28]);
    let fwd_b1_ns = time_ns(each, 1, || {
        drop(black_box(expert.forward(black_box(&x1), Mode::Eval)));
    });
    out("nn.forward_mlp4_b1_us", fwd_b1_ns / 1e3);
    out(
        "nn.forward_mlp4_b64_us",
        time_ns(each, 1, || {
            drop(black_box(expert.forward(black_box(&x64), Mode::Eval)));
        }) / 1e3,
    );
    let scope = MemScope::begin();
    drop(expert.forward(&x1, Mode::Eval));
    out(
        "nn.alloc_bytes_per_row_mlp4",
        scope.stats().allocated_bytes as f64,
    );
    drop(scope);

    let mut expert = Team::ss14().expert(0);
    let image = ramp(&[1, 3, 32, 32]);
    // The one probe whose call takes milliseconds: it gets four shares.
    out(
        "nn.forward_ss14_b1_ms",
        time_ns(each * 4, 1, || {
            drop(black_box(expert.forward(black_box(&image), Mode::Eval)));
        }) / 1e6,
    );
    let scope = MemScope::begin();
    drop(expert.forward(&image, Mode::Eval));
    out(
        "nn.alloc_bytes_per_row_ss14",
        scope.stats().allocated_bytes as f64,
    );
    fwd_b1_ns
}

fn core_layer(each: Duration, fwd_b1_ns: f64, out: Sink<'_>) {
    let probs = ramp(&[64, 10]).softmax_rows();
    out(
        "core.entropy_rows_b64_us",
        time_ns(each, 8, || drop(black_box(entropy_rows(black_box(&probs))))) / 1e3,
    );
    let results: Vec<(usize, f32)> = (0..64).map(|i| (i % 10, 0.5 + i as f32 / 64.0)).collect();
    out(
        "core.results_codec_b64_us",
        time_ns(each, 8, || {
            let bytes = encode_results(black_box(&results));
            drop(black_box(decode_results(&bytes)));
        }) / 1e3,
    );

    let team = Team::mlp4();
    let obs = NodeObs::untraced(team.k);
    let x1 = ramp(&[1, 1, 28, 28]);
    let x64 = ramp(&[64, 1, 28, 28]);
    let tcp = TcpTransport::mesh_localhost(team.k).expect("loopback TCP mesh");
    let (b1_ns, b64_ns, bytes_per_round) = with_rounds(&tcp, &team, &obs, |rounds| {
        let mut round = |x: &Tensor| drop(black_box(rounds.infer(x).expect("probe round")));
        let b1_ns = time_ns(each, 1, || round(&x1));
        let b64_ns = time_ns(each, 1, || round(&x64));
        // Exact, so one round is enough: payload bytes every endpoint
        // sent for a single-row round.
        let before = mesh_stats(&tcp).bytes_sent;
        round(&x1);
        (b1_ns, b64_ns, mesh_stats(&tcp).bytes_sent - before)
    });
    out("core.round_tcp_b1_us", b1_ns / 1e3);
    out("core.round_tcp_b64_us", b64_ns / 1e3);
    out("core.round_overhead_us", (b1_ns - fwd_b1_ns) / 1e3);
    out("net.bytes_per_round", bytes_per_round as f64);

    let chan = ChannelTransport::mesh(team.k);
    let chan_ns = with_rounds(&chan, &team, &obs, |rounds| {
        time_ns(each, 1, || {
            drop(black_box(rounds.infer(&x1).expect("probe round")));
        })
    });
    out("core.round_chan_b1_us", chan_ns / 1e3);
}

const PING: Tag = Tag(0x10AD_0001);
const PONG: Tag = Tag(0x10AD_0002);
/// What the echo side answers with, whatever the ping carried.
const ECHO_BYTES: usize = 48;

/// Round-trip times over a 2-node mesh: `send` payload → peer `recv` →
/// 48-byte echo, for each payload size. An empty ping stops the echo
/// side.
fn rtt_ns<T: Transport>(nodes: &[T], each: Duration, payloads: &[&[u8]]) -> Vec<f64> {
    let wait = Duration::from_secs(10);
    std::thread::scope(|scope| {
        let echo = &nodes[1];
        scope.spawn(move || {
            while let Ok(bytes) = echo.recv(0, PING, wait) {
                if bytes.is_empty() || echo.send(0, PONG, &[0u8; ECHO_BYTES]).is_err() {
                    break;
                }
            }
        });
        let me = &nodes[0];
        let out = payloads
            .iter()
            .map(|payload| {
                time_ns(each, 1, || {
                    me.send(1, PING, payload).expect("ping");
                    black_box(me.recv(1, PONG, wait).expect("pong"));
                })
            })
            .collect();
        me.send(1, PING, &[]).expect("stop ping");
        out
    })
}

fn net_layer(each: Duration, out: Sink<'_>) {
    let row = ramp(&[1, 1, 28, 28]);
    let batch = ramp(&[64, 1, 28, 28]);
    let small = encode_f32s(row.dims(), row.data());
    let large = encode_f32s(batch.dims(), batch.data());

    let ns = time_ns(each, 1, || {
        drop(black_box(encode_f32s(
            batch.dims(),
            black_box(batch.data()),
        )));
    });
    out("net.f32s_encode_mb_s", mb_per_s(large.len(), ns));
    let ns = time_ns(each, 1, || drop(black_box(decode_f32s(black_box(&large)))));
    out("net.f32s_decode_mb_s", mb_per_s(large.len(), ns));
    let ns = time_ns(each, 1, || {
        black_box(crc32(black_box(&large)));
    });
    out("net.crc32_mb_s", mb_per_s(large.len(), ns));

    let env_small = Envelope::new(7, PayloadKind::Input, small.clone());
    let env_large = Envelope::new(7, PayloadKind::Input, large.clone());
    let wire_small = env_small.encode();
    out(
        "net.envelope_encode_3k_us",
        time_ns(each, 4, || drop(black_box(black_box(&env_small).encode()))) / 1e3,
    );
    out(
        "net.envelope_decode_3k_us",
        time_ns(each, 4, || {
            drop(black_box(Envelope::decode(black_box(&wire_small))));
        }) / 1e3,
    );
    out(
        "net.envelope_roundtrip_200k_us",
        time_ns(each, 1, || {
            let wire = black_box(&env_large).encode();
            drop(black_box(Envelope::decode(&wire)));
        }) / 1e3,
    );

    let tcp = TcpTransport::mesh_localhost(2).expect("loopback TCP mesh");
    let rtt = rtt_ns(&tcp, each, &[&small, &large]);
    out("net.tcp_rtt_3k_us", rtt[0] / 1e3);
    out("net.tcp_rtt_200k_us", rtt[1] / 1e3);
    let chan = ChannelTransport::mesh(2);
    let rtt = rtt_ns(&chan, each, &[&small]);
    out("net.chan_rtt_3k_us", rtt[0] / 1e3);
}

/// Encode a request the way `ServeClient::infer` does and read it back
/// the way the front's connection thread does.
fn wire_request_ns(each: Duration, rows: usize) -> f64 {
    let x = ramp(&[rows, 1, 28, 28]);
    time_ns(each, 1, || {
        let payload = encode_f32s(x.dims(), black_box(x.data()));
        let frame = encode_serve_frame(ServeMsgKind::Request, 1, &payload);
        let read = read_serve_frame(&mut Cursor::new(&frame)).expect("probe frame");
        drop(black_box(decode_f32s(&read.payload)));
    })
}

fn serve_layer(each: Duration, out: Sink<'_>) {
    // 64 single-row admits fill the default batch; one take empties it.
    let mut batcher = Batcher::new(BatcherConfig::default());
    let ns = time_ns(each, 1, || {
        for id in 0..64 {
            batcher.admit(id, 1, id).expect("probe admit");
        }
        drop(black_box(batcher.take_batch()));
    });
    out("serve.batcher_admit_take_ns", ns / 64.0);
    out("serve.wire_request_1row_us", wire_request_ns(each, 1) / 1e3);
    out(
        "serve.wire_request_32row_us",
        wire_request_ns(each, 32) / 1e3,
    );
    let preds: Vec<TeamPrediction> = (0..32)
        .map(|i| TeamPrediction {
            label: i % 10,
            expert: i % 3,
            entropy: 1.0 + i as f32 / 32.0,
        })
        .collect();
    out(
        "serve.predictions_codec_b32_us",
        time_ns(each, 8, || {
            let bytes = encode_predictions(black_box(&preds));
            drop(black_box(decode_predictions(&bytes)));
        }) / 1e3,
    );

    // What the TCP front adds to a request, with coalescing out of the
    // picture: a batch cap of one row flushes every request at once.
    let team = Team::mlp4();
    let obs = NodeObs::untraced(team.k);
    let nodes = TcpTransport::mesh_localhost(team.k).expect("loopback TCP mesh");
    let one_row = BatcherConfig {
        max_batch_rows: 1,
        ..BatcherConfig::default()
    };
    let x = ramp(&[1, 1, 28, 28]);
    let (tcp_ns, local_ns) = with_serve(&nodes, &team, &obs, one_row, |served| {
        let mut client = ServeClient::connect(&served.addr).expect("connect probe client");
        let tcp_ns = time_ns(each, 1, || {
            drop(black_box(client.infer(&x).expect("probe reply")));
        });
        let local_ns = time_ns(each, 1, || {
            let ticket = served.handle.submit(&x).expect("probe admit");
            drop(black_box(ticket.wait().expect("probe reply")));
        });
        (tcp_ns, local_ns)
    });
    out("serve.front_overhead_us", (tcp_ns - local_ns) / 1e3);
}

fn obs_layer(each: Duration, out: Sink<'_>) {
    let null = Obs::disabled();
    out(
        "obs.null_span_ns",
        time_ns(each, 1000, || {
            drop(black_box(null.span("probe", &[("rows", 1)])))
        }),
    );
    let ring = Obs::new(Arc::new(SystemClock), Arc::new(RingSink::new(256)));
    out(
        "obs.ring_span_ns",
        time_ns(each, 100, || {
            drop(black_box(ring.span("probe", &[("rows", 1)])))
        }),
    );
}

/// Runs every layer's probes inside `budget` and reports each metric
/// through `out`.
pub fn run_all(budget: Duration, out: Sink<'_>) {
    let each = budget / PROBES;
    tensor_layer(each, out);
    let fwd_b1_ns = nn_layer(each, out);
    core_layer(each, fwd_b1_ns, out);
    net_layer(each, out);
    serve_layer(each, out);
    obs_layer(each, out);
}
