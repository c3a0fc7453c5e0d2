//! The benchmark's vocabulary: workload and metric names with their
//! units, in the order `BENCHMARK.json` lists them, and the result line a
//! run prints.

use serde::{Number, Value};

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// What a user of the system sees; reported by `--trace 0` runs, each
/// with a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rows_s", "1/s"),
];

/// Single layers (the crate names), the traced run's ledger and the
/// ungated diagnostics; reported by `--trace 1` runs.
pub const PER_LAYER: &[Metric] = &[
    ("tensor.matmul_b1_us", "us"),
    ("tensor.matmul_b64_gflops", "GFLOP/s"),
    ("tensor.conv2d_ss_b1_gflops", "GFLOP/s"),
    ("tensor.softmax_rows_b64_us", "us"),
    ("nn.forward_mlp4_b1_us", "us"),
    ("nn.forward_mlp4_b64_us", "us"),
    ("nn.forward_ss14_b1_ms", "ms"),
    ("nn.alloc_bytes_per_row_mlp4", "B"),
    ("nn.alloc_bytes_per_row_ss14", "B"),
    ("core.entropy_rows_b64_us", "us"),
    ("core.results_codec_b64_us", "us"),
    ("core.round_tcp_b1_us", "us"),
    ("core.round_tcp_b64_us", "us"),
    ("core.round_chan_b1_us", "us"),
    ("core.round_overhead_us", "us"),
    ("core.round_retries", "count"),
    ("core.round_discards", "count"),
    ("net.f32s_encode_mb_s", "MB/s"),
    ("net.f32s_decode_mb_s", "MB/s"),
    ("net.envelope_encode_3k_us", "us"),
    ("net.envelope_decode_3k_us", "us"),
    ("net.envelope_roundtrip_200k_us", "us"),
    ("net.crc32_mb_s", "MB/s"),
    ("net.tcp_rtt_3k_us", "us"),
    ("net.tcp_rtt_200k_us", "us"),
    ("net.chan_rtt_3k_us", "us"),
    ("net.bytes_per_round", "B"),
    ("serve.batcher_admit_take_ns", "ns"),
    ("serve.wire_request_1row_us", "us"),
    ("serve.wire_request_32row_us", "us"),
    ("serve.predictions_codec_b32_us", "us"),
    ("serve.front_overhead_us", "us"),
    ("serve.batch_rows_p50", "count"),
    ("serve.rounds_per_s", "1/s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("obs.null_span_ns", "ns"),
    ("obs.ring_span_ns", "ns"),
    ("obs.events_per_round", "count"),
    ("obs.traced_latency_delta_pct", "%"),
    ("obs.traced_throughput_delta_pct", "%"),
    ("trace.round_p50_us", "us"),
    ("trace.round_compute_share", "share"),
    ("trace.round_wire_share", "share"),
    ("trace.round_wait_share", "share"),
    ("trace.round_retry_share", "share"),
    ("ledger.span_us", "us"),
    ("ledger.front_us", "us"),
    ("ledger.queue_us", "us"),
    ("ledger.round_us", "us"),
    ("ledger.reply_us", "us"),
    ("ledger.residual_pct", "%"),
    ("tail.latency_p95_ms", "ms"),
    ("tail.latency_p99_ms", "ms"),
    ("tail.latency_max_ms", "ms"),
    ("tail.samples", "count"),
    ("tail.beyond_p95", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("cpu_ms_per_row", "ms"),
    ("peak_rss_mb", "MiB"),
    ("failed_share", "share"),
];

/// Largest share of attempted operations that may fail (be rejected,
/// error out or mismatch the oracle) before a run exits non-zero.
pub const FAILED_SHARE_FLOOR: f64 = 0.001;

/// Named values a run produced.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// What one run reports as the last line of its standard output.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object over the metrics of `table`. A per-layer metric
    /// a workload has no source for (the `serve.*` rows of `cnn_round`)
    /// reads 0.
    pub fn to_json(&self, table: &[Metric]) -> Value {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                let entry = Value::Map(vec![
                    ("value".into(), Value::Num(Number::Float(value))),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Num(Number::PosInt(self.attempted)),
            ),
            ("failed".into(), Value::Num(Number::PosInt(self.failed))),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }

    /// One `name value unit` line per metric of `table`.
    pub fn print(&self, table: &[Metric]) {
        for &(name, unit) in table {
            let value = self.values.get(name).unwrap_or(0.0);
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
}

/// A JSON number as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Num(Number::PosInt(n)) => Some(*n as f64),
        Value::Num(Number::NegInt(n)) => Some(*n as f64),
        Value::Num(Number::Float(f)) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the gate reads; these tables are what the
    /// program prints. They must name the same metrics with the same
    /// units, in the same order.
    #[test]
    fn tables_match_the_manifest() {
        let manifest: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = manifest
                .get(key)
                .and_then(Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).expect("field").to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("latency_p50_ms", 1.0);
        values.set("latency_p50_ms", 8.93415);
        values.set("throughput_rows_s", f64::NAN);
        let result = RunResult {
            attempted: 4400,
            failed: 0,
            values,
        };
        let text = serde_json::to_string(&result.to_json(END_TO_END)).expect("serialize");
        assert!(!text.contains('\n'));
        let back: Value = serde_json::from_str(&text).expect("parse");
        let keys: Vec<&str> = back
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(back.get("attempted").and_then(as_f64), Some(4400.0));
        let metrics = back.get("metrics").expect("metrics");
        assert_eq!(metrics.as_map().expect("object").len(), END_TO_END.len());
        let p50 = metrics.get("latency_p50_ms").expect("p50");
        assert_eq!(p50.get("value").and_then(as_f64), Some(8.93415));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        // Later sets win; non-finite readings print as 0, never as NaN.
        let rows = metrics.get("throughput_rows_s").expect("throughput");
        assert_eq!(rows.get("value").and_then(as_f64), Some(0.0));
        assert!((result.failed_share() - 0.0).abs() < f64::EPSILON);
    }
}
