//! # teamnet-obs
//!
//! Deterministic tracing and metrics for the TeamNet workspace.
//!
//! Every earlier PR left behind its own fragment of telemetry —
//! `TransportStats` on transports, `WorkerStats` from serve loops,
//! `PeerReport`s in inference reports, one-off bench JSON — but nothing
//! explained *where a round's milliseconds went*: gate compute vs. expert
//! forward vs. retry backoff vs. wire. This crate is the single timeline:
//!
//! * [`Tracer`] — span-based tracing. `tracer.span("expert.forward", &[])`
//!   returns an RAII guard that records enter/exit events against the
//!   injectable [`teamnet_net::clock::Clock`]; under a
//!   [`teamnet_net::ManualClock`] the emitted JSONL is byte-stable
//!   run-to-run, which is what lets `tests/obs_determinism.rs` assert
//!   byte-identical traces from two seeded chaos soaks.
//! * [`MetricsRegistry`] — named [`Counter`]/[`Gauge`]/[`Histogram`]
//!   instruments in `BTreeMap`s (ordered iteration, `det-map` clean). The
//!   [`Histogram`] uses fixed log2 bucket bounds and u64 counts — no
//!   floats anywhere on the hot path — and a [`MetricsSnapshot`]
//!   serializes through the vendored serde to byte-stable JSON plus a
//!   `summary()` transcript in the style of `InferenceReport::summary()`.
//! * [`TraceSink`] — the export layer: [`JsonlSink`] (files),
//!   [`VecSink`] (in-memory, for assertions), [`NullSink`] (disabled; a
//!   disabled tracer's `span()` is one branch — no clock read, no lock,
//!   no allocation).
//! * [`report`] — the `cargo xtask trace-report` backend: ingests span
//!   JSONL and renders a per-span count/p50/p99/total latency table from
//!   the same histogram buckets.
//! * [`wrap`] — [`wrap::fold_transport_stats`] folds a transport's
//!   fault counters into the registry. The round's send/recv events come
//!   from `teamnet_core::shell`, its backoff sleeps from the
//!   `retry.backoff` span and `round.send.retries`.
//!
//! ## Determinism rules
//!
//! Timestamps are *offsets* from the tracer's construction instant, read
//! from the injected clock — never from the wall clock directly (this
//! crate is a determinism-taint root; `cargo xtask audit` rejects
//! `Instant::now()` here). A [`Tracer`] serializes its span stack behind
//! one mutex: traces are only byte-stable when one thread of control owns
//! the tracer (the master session), which is how the runtime wires it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod assemble;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod wrap;

pub use alloc::AllocMeters;
pub use metrics::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    FlightRecorder, JsonlSink, NullSink, Obs, RingSink, SpanGuard, TeeSink, TraceSink, Tracer,
    VecSink,
};

// Clock re-exports so downstream crates (simnet, benches) can build a
// deterministic `Obs` without depending on `teamnet-net` themselves.
pub use teamnet_net::{Clock, ManualClock, SystemClock};

// Trace-context re-exports: the id types frames carry on the wire, plus
// the framing sizes (header + trace extension) cost models need.
pub use teamnet_net::{derive_trace_id, TraceContext, ENVELOPE_HEADER_LEN, TRACE_EXT_LEN};
