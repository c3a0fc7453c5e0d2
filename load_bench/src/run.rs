//! One run of one workload in this process: the end-to-end run
//! (`--trace 0`) and the per-layer run (`--trace 1`).

use crate::cluster::NodeObs;
use crate::ledger::{flush_traces, mean, Capture, Digest, Ledger};
use crate::oracle::Pool;
use crate::probes;
use crate::spec::{RunResult, Values};
use crate::stats::{median, ms, peak_rss_mb, percentile, samples_beyond, us};
use crate::workloads::{self, slices_of, Kind, Outcome, Phase};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use teamnet_obs::{MetricsSnapshot, TraceSink};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A generator whose *median* request left later than this cannot keep its
/// schedule: the run measured the generator, not the program. (The tail
/// of the lateness is reported, not gated: on a shared host it measures
/// hypervisor stalls.)
const MAX_LATE_P50: Duration = Duration::from_millis(2);

/// Why a run produced no result.
#[derive(Debug)]
pub enum Invalid {
    /// The open-loop generator could not keep its schedule.
    LateGenerator { p50_us: f64 },
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invalid::LateGenerator { p50_us } => write!(
                f,
                "open-loop generator ran {p50_us:.0} us late at the median (limit {} us): \
                 run invalid",
                MAX_LATE_P50.as_micros()
            ),
        }
    }
}

/// Share of the slices each end-to-end figure is taken over: the quietest
/// ones, those where that figure reads best. The host is
/// shared, and what its other tenants do to a run only ever adds time:
/// for seconds to minutes at a stretch the same code runs 1.3–1.5 × slower
/// (CPU time per row rises with it). Figures over the whole window, or
/// medians over the slices, follow the neighbours once they are busy for
/// half a run; the quietest quarter follows the program until they are
/// busy for more than three quarters of it.
const QUIET_SHARE: f64 = 0.25;

/// One slice of the measured window.
#[derive(Debug, Default, Clone, PartialEq)]
struct Slice {
    /// Latencies of the verified requests whose reply arrived in the
    /// slice, ascending, in milliseconds.
    latency_ms: Vec<f64>,
    /// Process CPU time spent during the slice.
    cpu_ms: f64,
}

/// The end-to-end figures, each over the slices that are quietest by it,
/// pooled.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Quiet {
    /// How many slices each figure pools.
    slices: usize,
    p50_ms: f64,
    rows_s: f64,
    cpu_ms_per_row: f64,
}

/// What the measured window of one phase amounts to.
#[derive(Debug, Default)]
struct Summary {
    attempted: u64,
    failed: u64,
    verified_rows: u64,
    /// Latencies of verified requests, ascending, in milliseconds.
    latency_ms: Vec<f64>,
    throughput_rows_s: f64,
    late_p50_us: f64,
    late_p99_us: f64,
    late_max_us: f64,
    mean_span_us: f64,
    mean_submit_us: f64,
    /// The window cut into equal slices. A request belongs to the slice
    /// its reply arrived in; replies after the window's end (the last one
    /// of each closed loop) belong to none.
    slices: Vec<Slice>,
    slice_len: Duration,
    rows_per_request: usize,
}

impl Summary {
    /// Checks every reply against the oracle (outside the timed path) and
    /// folds the window into its figures.
    fn of(outcome: &Outcome, pool: &Pool) -> Summary {
        let (from, length) = outcome.measured;
        let count = slices_of(length);
        let slice_len = length / count;
        let mut latency_ms = Vec::with_capacity(outcome.ops.len());
        let mut sliced = vec![Vec::new(); count as usize];
        let mut failed = 0u64;
        for op in &outcome.ops {
            let done = (op.start + op.latency).saturating_sub(from);
            let index = (done.as_nanos() / slice_len.as_nanos().max(1)) as usize;
            match &op.reply {
                Ok(reply) if pool.matches(op.input, reply) => {
                    latency_ms.push(ms(op.latency));
                    if let Some(latencies) = sliced.get_mut(index) {
                        latencies.push(ms(op.latency));
                    }
                }
                _ => failed += 1,
            }
        }
        latency_ms.sort_by(f64::total_cmp);
        let slices = sliced
            .into_iter()
            .zip(outcome.marks.cpu_edges_ms.windows(2))
            .map(|(mut latency_ms, cpu)| {
                latency_ms.sort_by(f64::total_cmp);
                Slice {
                    latency_ms,
                    cpu_ms: cpu[1] - cpu[0],
                }
            })
            .collect();
        let verified_rows = (latency_ms.len() * pool.rows()) as u64;
        let mut late_us: Vec<f64> = outcome.ops.iter().map(|op| us(op.late)).collect();
        late_us.sort_by(f64::total_cmp);
        let n = outcome.ops.len().max(1) as f64;
        Summary {
            attempted: outcome.ops.len() as u64,
            failed,
            verified_rows,
            throughput_rows_s: verified_rows as f64 / outcome.wall.as_secs_f64(),
            late_p50_us: percentile(&late_us, 0.50),
            late_p99_us: percentile(&late_us, 0.99),
            late_max_us: late_us.last().copied().unwrap_or(0.0),
            mean_span_us: outcome.ops.iter().map(|op| us(op.latency)).sum::<f64>() / n,
            mean_submit_us: outcome.ops.iter().map(|op| us(op.submit)).sum::<f64>() / n,
            latency_ms,
            slices,
            slice_len,
            rows_per_request: pool.rows(),
        }
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q)
    }

    /// The quietest `QUIET_SHARE` of the slices (at least one) by
    /// `loudness`, a slice without a reply counting as the loudest.
    fn quietest(&self, loudness: impl Fn(&Slice) -> f64) -> Vec<&Slice> {
        let key = |s: &Slice| match s.latency_ms.len() {
            0 => f64::INFINITY,
            _ => loudness(s),
        };
        let mut slices: Vec<&Slice> = self.slices.iter().collect();
        slices.sort_by(|a, b| key(a).total_cmp(&key(b)));
        let keep = ((QUIET_SHARE * slices.len() as f64).ceil() as usize).max(1);
        slices.truncate(keep);
        slices
    }

    fn quiet(&self) -> Quiet {
        let rows = |s: &Slice| (s.latency_ms.len() * self.rows_per_request) as f64;
        let calmest = self.quietest(|s| percentile(&s.latency_ms, 0.50));
        let busiest = self.quietest(|s| -rows(s));
        let cheapest = self.quietest(|s| s.cpu_ms / rows(s));
        let mut pooled: Vec<f64> = calmest
            .iter()
            .flat_map(|s| s.latency_ms.iter().copied())
            .collect();
        pooled.sort_by(f64::total_cmp);
        let seconds = self.slice_len.as_secs_f64() * busiest.len() as f64;
        Quiet {
            slices: busiest.len(),
            p50_ms: percentile(&pooled, 0.50),
            rows_s: busiest.iter().map(|s| rows(s)).sum::<f64>() / seconds,
            cpu_ms_per_row: cheapest.iter().map(|s| s.cpu_ms).sum::<f64>()
                / cheapest.iter().map(|s| rows(s)).sum::<f64>().max(1.0),
        }
    }

    fn check_generator(&self) -> Result<(), Invalid> {
        if self.late_p50_us > us(MAX_LATE_P50) {
            return Err(Invalid::LateGenerator {
                p50_us: self.late_p50_us,
            });
        }
        Ok(())
    }
}

fn warmup_for(measure: Duration) -> Duration {
    (measure / 10).clamp(Duration::from_millis(300), Duration::from_secs(2))
}

fn build_pool(kind: Kind, seed: u64, self_test: bool) -> Pool {
    let mut pool = kind.pool(seed);
    if self_test {
        pool.corrupt_reference();
    }
    pool
}

/// The `--trace 0` run: set-up several times, then one untraced warm-up
/// and measured window.
pub fn end_to_end(
    kind: Kind,
    seed: u64,
    measure: Duration,
    self_test: bool,
) -> Result<RunResult, Invalid> {
    let pool = build_pool(kind, seed, self_test);
    let obs = NodeObs::untraced(kind.team().k);
    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| {
            workloads::run(kind, &pool, &obs, &Phase::setup_only(seed))
                .setup
                .as_secs_f64()
        })
        .collect();
    let phase = Phase {
        warmup: warmup_for(measure),
        measure,
        seed,
    };
    let outcome = workloads::run(kind, &pool, &obs, &phase);
    setups.push(outcome.setup.as_secs_f64());
    println!(
        "set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let summary = Summary::of(&outcome, &pool);
    summary.check_generator()?;

    let quiet = summary.quiet();
    println!(
        "{}: {} requests attempted, {} verified rows, {} failed; {} latency samples, {} beyond p95",
        kind.name(),
        summary.attempted,
        summary.verified_rows,
        summary.failed,
        summary.latency_ms.len(),
        samples_beyond(summary.latency_ms.len(), 0.95),
    );
    println!(
        "each figure over its quietest {} of {} slices of {:.1} s",
        quiet.slices,
        summary.slices.len(),
        summary.slice_len.as_secs_f64(),
    );
    println!(
        "whole window: p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms, max {:.4} ms, {:.2} rows/s",
        summary.p(0.50),
        summary.p(0.95),
        summary.p(0.99),
        summary.p(1.0),
        summary.throughput_rows_s,
    );
    println!("peak RSS {:.4} MiB", peak_rss_mb());
    if kind == Kind::MlpOpen3200 {
        println!(
            "generator lateness: p50 {:.0} us, p99 {:.0} us, max {:.0} us",
            summary.late_p50_us, summary.late_p99_us, summary.late_max_us
        );
    }
    let mut values = Values::default();
    values.set("setup_s", median(&mut setups));
    values.set("latency_p50_ms", quiet.p50_ms);
    values.set("throughput_rows_s", quiet.rows_s);
    Ok(RunResult {
        attempted: summary.attempted,
        failed: summary.failed,
        values,
    })
}

fn histogram_sum(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// Where the traced run's files go: beside the build, inside the
/// checkout.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("load_bench")
}

/// The `--trace 1` run: a short untraced reference window, the layer
/// probes, then a traced window of the same workload. The difference
/// between the two windows prices tracing; the traced one fills the
/// ledger.
pub fn per_layer(
    kind: Kind,
    seed: u64,
    total: Duration,
    self_test: bool,
) -> Result<RunResult, Invalid> {
    let mut values = Values::default();
    let pool = build_pool(kind, seed, self_test);
    let k = kind.team().k;
    let window = |share: u32| {
        let measure = total * share / 100;
        Phase {
            warmup: warmup_for(measure),
            measure,
            seed,
        }
    };
    let plain = workloads::run(kind, &pool, &NodeObs::untraced(k), &window(25));
    let plain_summary = Summary::of(&plain, &pool);
    plain_summary.check_generator()?;
    // Read before the probes run: they allocate for shapes this workload
    // may never see.
    values.set("peak_rss_mb", peak_rss_mb());
    probes::run_all(total * 3 / 10, &mut |name, value| values.set(name, value));

    let sinks: Vec<Arc<Capture>> = (0..k).map(|_| Arc::new(Capture::default())).collect();
    let dyn_sinks: Vec<Arc<dyn TraceSink>> = sinks
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn TraceSink>)
        .collect();
    let obs = NodeObs::traced(&dyn_sinks);
    let traced = workloads::run(kind, &pool, &obs, &window(35));
    let summary = Summary::of(&traced, &pool);
    summary.check_generator()?;
    let registry = obs.master().metrics.snapshot();
    let node_lines: Vec<Vec<String>> = sinks.iter().map(|s| s.take()).collect();
    let digest = Digest::of(&node_lines[0], traced.marks.cut_ns);

    let delta_pct = |with: f64, without: f64| 100.0 * (with - without) / without;
    values.set(
        "obs.traced_latency_delta_pct",
        delta_pct(summary.p(0.50), plain_summary.p(0.50)),
    );
    values.set(
        "obs.traced_throughput_delta_pct",
        delta_pct(summary.throughput_rows_s, plain_summary.throughput_rows_s),
    );
    let events: usize = node_lines.iter().map(Vec::len).sum();
    values.set(
        "obs.events_per_round",
        events as f64 / digest.rounds_seen.max(1) as f64,
    );

    let mut round_us: Vec<f64> = digest.round_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let round_p50_us = median(&mut round_us);
    values.set("trace.round_p50_us", round_p50_us);
    let attr = ["compute", "wire", "wait", "retry"]
        .map(|part| histogram_sum(&registry, &format!("round.attr.{part}.ns")));
    let attr_total: f64 = attr.iter().sum::<f64>().max(1.0);
    values.set("trace.round_compute_share", attr[0] / attr_total);
    values.set("trace.round_wire_share", attr[1] / attr_total);
    values.set("trace.round_wait_share", attr[2] / attr_total);
    values.set("trace.round_retry_share", attr[3] / attr_total);
    values.set(
        "core.round_retries",
        counter(&registry, "round.send.retries"),
    );
    values.set(
        "core.round_discards",
        ["stale", "corrupt", "malformed"]
            .iter()
            .map(|what| counter(&registry, &format!("round.{what}_discarded")))
            .sum(),
    );

    let (engine_sum, engine_count) = traced.marks.engine_latency;
    let engine_us = engine_sum as f64 / engine_count.max(1) as f64 / 1e3;
    let ledger = if kind.tcp_front() {
        Ledger::tcp(
            summary.mean_span_us,
            mean(&digest.request_ns) / 1e3,
            engine_us,
            digest.round_per_request_ns() / 1e3,
        )
    } else if kind.serves() {
        Ledger::in_process(
            summary.mean_span_us,
            summary.mean_submit_us,
            engine_us,
            digest.round_per_request_ns() / 1e3,
        )
    } else {
        Ledger::round_only(summary.mean_span_us, mean(&digest.round_ns) / 1e3)
    };
    values.set("ledger.span_us", ledger.span_us);
    values.set("ledger.front_us", ledger.front_us);
    values.set("ledger.queue_us", ledger.queue_us);
    values.set("ledger.round_us", ledger.round_us);
    values.set("ledger.reply_us", ledger.reply_us);
    values.set("ledger.residual_pct", ledger.residual_pct());

    if kind.serves() {
        let mut rows: Vec<f64> = digest.flushes.iter().map(|f| f.rows as f64).collect();
        values.set("serve.batch_rows_p50", median(&mut rows));
        values.set(
            "serve.rounds_per_s",
            digest.flushes.len() as f64 / traced.wall.as_secs_f64(),
        );
        values.set("serve.admitted", counter(&registry, "serve.admitted"));
        values.set(
            "serve.rejected",
            counter(&registry, "serve.rejected.overloaded")
                + counter(&registry, "serve.rejected.malformed"),
        );
        values.set("serve.queue_wait_ms", summary.p(0.50) - round_p50_us / 1e3);
    }

    // Tail and generator diagnostics come from the untraced window.
    values.set("tail.latency_p95_ms", plain_summary.p(0.95));
    values.set("tail.latency_p99_ms", plain_summary.p(0.99));
    values.set("tail.latency_max_ms", plain_summary.p(1.0));
    values.set("tail.samples", plain_summary.latency_ms.len() as f64);
    values.set(
        "tail.beyond_p95",
        samples_beyond(plain_summary.latency_ms.len(), 0.95) as f64,
    );
    values.set("cpu_ms_per_row", plain_summary.quiet().cpu_ms_per_row);
    values.set("gen.late_p50_us", plain_summary.late_p50_us);
    values.set("gen.late_p99_us", plain_summary.late_p99_us);
    values.set("gen.late_max_us", plain_summary.late_max_us);

    let attempted = plain_summary.attempted + summary.attempted;
    let failed = plain_summary.failed + summary.failed;
    values.set("failed_share", failed as f64 / attempted.max(1) as f64);

    let spans: Vec<(u64, u64)> = traced
        .ops
        .iter()
        .map(|op| (op.start.as_nanos() as u64, op.latency.as_nanos() as u64))
        .collect();
    let dir = trace_dir();
    match flush_traces(&dir, kind.name(), &spans, &node_lines) {
        Ok(()) => println!("traces written under {}", dir.display()),
        Err(e) => eprintln!("warning: traces not written under {}: {e}", dir.display()),
    }
    Ok(RunResult {
        attempted,
        failed,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Marks, Op};

    #[test]
    fn slices_take_replies_by_arrival_and_the_quietest_are_pooled() {
        let pool = Kind::MlpTcpTrickle.pool(3);
        let ms = Duration::from_millis;
        let op = |start_ms: u64, latency_ms: u64, ok: bool| Op {
            input: 1,
            start: ms(start_ms),
            latency: ms(latency_ms),
            late: Duration::ZERO,
            submit: Duration::ZERO,
            reply: if ok {
                Ok(pool.reference(1).to_vec())
            } else {
                Err("rejected".into())
            },
        };
        // Warm-up ends at 1 s; four slices of 2 s follow.
        let outcome = Outcome {
            setup: Duration::ZERO,
            ops: vec![
                op(1000, 10, true),
                op(1500, 30, true),
                op(2990, 20, true), // arrives at 3.01 s: second slice
                op(3500, 8, false), // failed: counted nowhere
                op(5100, 400, true),
                op(8995, 10, true), // arrives after the window's end
            ],
            wall: ms(8005),
            measured: (ms(1000), ms(8000)),
            marks: Marks {
                cpu_edges_ms: vec![100.0, 130.0, 140.0, 240.0, 240.0],
                ..Marks::default()
            },
        };
        let summary = Summary::of(&outcome, &pool);
        let got = &summary.slices;
        assert_eq!(got.len(), 4);
        assert_eq!(
            got[0],
            Slice {
                latency_ms: vec![10.0, 30.0],
                cpu_ms: 30.0
            }
        );
        assert_eq!(
            got[1],
            Slice {
                latency_ms: vec![20.0],
                cpu_ms: 10.0
            }
        );
        assert_eq!(got[2].latency_ms, vec![400.0]);
        assert!(got[3].latency_ms.is_empty());
        assert_eq!(
            (summary.attempted, summary.failed, summary.verified_rows),
            (6, 1, 5)
        );
        assert_eq!(summary.p(0.50), 20.0);
        // A quarter of four slices is one. The first has the lowest median
        // (nearest rank) and the most replies, the second the lowest CPU
        // time per row. The 400 ms stall and the slice without a reply are
        // the loudest by every figure.
        assert_eq!(
            summary.quiet(),
            Quiet {
                slices: 1,
                p50_ms: 10.0,
                rows_s: 1.0,
                cpu_ms_per_row: 10.0,
            }
        );
    }

    #[test]
    fn the_quietest_quarter_of_the_slices_is_pooled() {
        assert_eq!(slices_of(Duration::from_secs(24)), 12);
        assert_eq!(slices_of(Duration::from_secs(5)), 2);
        assert_eq!(slices_of(Duration::from_millis(700)), 1);
        assert_eq!(slices_of(Duration::ZERO), 1);
        let slice = |latency_ms: &[f64], cpu_ms: f64| Slice {
            latency_ms: latency_ms.to_vec(),
            cpu_ms,
        };
        // Eight slices, two kept for each figure, wherever they sit: the
        // medians 2 and 3, the two with three replies, the two cheapest in
        // CPU time per row (the first and the fourth). The empty one is
        // never among them.
        let summary = Summary {
            slices: vec![
                slice(&[5.0, 50.0], 1.0),
                slice(&[], 0.5),
                slice(&[1.0, 3.0, 9.0], 6.0),
                slice(&[7.0], 1.0),
                slice(&[2.0, 2.0, 4.0], 6.0),
                slice(&[6.0], 1.0),
                slice(&[8.0], 1.0),
                slice(&[9.0], 1.0),
            ],
            slice_len: Duration::from_secs(2),
            rows_per_request: 32,
            ..Summary::default()
        };
        assert_eq!(
            summary.quiet(),
            Quiet {
                slices: 2,
                p50_ms: 2.0,
                rows_s: 48.0,
                cpu_ms_per_row: 2.0 / 96.0,
            }
        );
        // A window shorter than a slice is one slice, and it is kept.
        let short = Summary {
            slices: vec![slice(&[1.0, 2.0, 3.0], 6.0)],
            slice_len: Duration::from_secs(1),
            rows_per_request: 1,
            ..Summary::default()
        };
        let quiet = short.quiet();
        assert_eq!((quiet.slices, quiet.p50_ms, quiet.rows_s), (1, 2.0, 3.0));
    }

    #[test]
    fn a_generator_that_cannot_keep_its_schedule_invalidates_the_run() {
        // A stalled tail is the sandbox; a late median is the generator.
        let stalled_tail = Summary {
            late_p50_us: 80.0,
            late_p99_us: 60_000.0,
            ..Summary::default()
        };
        assert!(stalled_tail.check_generator().is_ok());
        let behind = Summary {
            late_p50_us: us(MAX_LATE_P50) + 1.0,
            ..Summary::default()
        };
        assert!(matches!(
            behind.check_generator(),
            Err(Invalid::LateGenerator { .. })
        ));
    }
}
