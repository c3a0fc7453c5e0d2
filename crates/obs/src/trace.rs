//! The span tracer and its export sinks.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s; entering a span emits an
//! `enter` JSONL event and exiting (guard drop) emits an `exit` event
//! carrying the duration. Every timestamp is the offset in nanoseconds
//! from the tracer's construction instant, read on the injected
//! [`Clock`] — under a [`teamnet_net::ManualClock`] two identical seeded
//! runs emit byte-identical event streams.
//!
//! Nesting is tracked with an explicit span stack (parent ids in the
//! events), guarded by one mutex: a tracer is meant to be driven by a
//! single thread of control (the master inference loop, the trainer).
//! Guards tolerate out-of-order drops by unwinding the stack to their own
//! entry, so a mis-scoped guard degrades the tree, not the process.
//!
//! The disabled path is free by construction: a tracer over a
//! [`NullSink`] returns an inert guard after one branch — no clock read,
//! no lock, no allocation (overhead measured in `kernel_bench`, see the
//! bench caveats).

use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use teamnet_net::{Clock, SystemClock, TraceContext};

/// Where trace events go.
///
/// `record` receives one complete JSONL line (no trailing newline).
/// Implementations must be cheap and must never panic: tracing is a
/// bystander, not a participant.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Whether events should be produced at all. A `false` here turns the
    /// whole tracer off at construction time.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one JSONL event line.
    fn record(&self, line: &str);

    /// Flushes any buffering (file sinks).
    fn flush(&self) {}
}

/// A sink that discards everything and reports itself disabled; the
/// default for production configs that don't opt into tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _line: &str) {}
}

/// An in-memory sink for tests and determinism assertions.
#[derive(Debug, Default)]
pub struct VecSink {
    lines: Mutex<Vec<String>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A copy of every recorded line, in order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }

    /// All recorded lines joined with `\n` (plus a trailing newline),
    /// exactly as a [`JsonlSink`] file would read.
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock();
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for VecSink {
    fn record(&self, line: &str) {
        self.lines.lock().push(line.to_string());
    }
}

/// A buffered JSONL file sink.
///
/// Write errors after creation are swallowed (a full disk must not take
/// down an inference cluster); the file is flushed on `flush` and drop.
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
    path: std::path::PathBuf,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
            path,
        })
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JsonlSink({})", self.path.display())
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, line: &str) {
        let mut writer = self.writer.lock();
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.lock().flush();
    }
}

/// A fixed-capacity ring of the most recent trace events — the flight
/// recorder's storage.
///
/// Every slot is a `String` allocated once at construction and reused in
/// place (`clear` + `push_str`), so steady-state recording allocates
/// nothing beyond occasional slot growth when an event line outgrows its
/// slot's prior capacity. Cheap enough to leave on in production even
/// when full tracing is off.
#[derive(Debug)]
pub struct RingSink {
    state: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    slots: Vec<String>,
    /// How many slots hold real events (saturates at capacity).
    len: usize,
    /// Next slot to overwrite.
    next: usize,
}

impl RingSink {
    /// A ring holding the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        RingSink {
            state: Mutex::new(RingState {
                slots: vec![String::new(); cap],
                len: 0,
                next: 0,
            }),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.state.lock().slots.len()
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<String> {
        let state = self.state.lock();
        let cap = state.slots.len();
        let start = if state.len < cap { 0 } else { state.next };
        (0..state.len)
            .map(|i| state.slots[(start + i) % cap].clone())
            .collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, line: &str) {
        let mut state = self.state.lock();
        let at = state.next;
        let cap = state.slots.len();
        let slot = &mut state.slots[at];
        slot.clear();
        slot.push_str(line);
        state.next = (at + 1) % cap;
        state.len = (state.len + 1).min(cap);
    }
}

/// Fans every event out to each inner sink that is enabled. Used to run a
/// full trace file and a [`RingSink`] flight recorder off one tracer.
#[derive(Debug)]
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// A tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, line: &str) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record(line);
            }
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// A dump-on-failure flight recorder: a [`RingSink`] of recent events
/// plus a dump directory.
///
/// Code that detects an anomaly (quarantine transition, failed round,
/// overload burst) calls [`Obs::flight_dump`], which appends a `mark`
/// event naming the trigger — so the *last* line of every dump is the
/// transition that caused it — and then writes the ring out as
/// `flight-<n>.jsonl`.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Arc<RingSink>,
    dir: PathBuf,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder over an existing ring, dumping into `dir`.
    pub fn from_ring(ring: Arc<RingSink>, dir: impl AsRef<Path>) -> Self {
        FlightRecorder {
            ring,
            dir: dir.as_ref().to_path_buf(),
            dumps: AtomicU64::new(0),
        }
    }

    /// The underlying ring, for wiring into a [`TeeSink`].
    pub fn ring(&self) -> Arc<RingSink> {
        Arc::clone(&self.ring)
    }

    /// How many dumps have been written.
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Writes the ring's current contents to `flight-<n>.jsonl` in the
    /// dump directory. IO failures are swallowed (`None`): the recorder
    /// is a bystander, and a full disk must not take down inference.
    pub fn dump(&self) -> Option<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return None;
        }
        let path = self.dir.join(format!("flight-{n}.jsonl"));
        let lines = self.ring.snapshot();
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(&path, out).ok()?;
        Some(path)
    }
}

/// Escapes a string for embedding in a JSON string literal. Span names
/// are controlled identifiers, but the sink format must stay valid JSON
/// for any input.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[derive(Debug)]
struct TracerState {
    next_span: u64,
    seq: u64,
    stack: Vec<u64>,
}

/// The span tracer. See the module docs for the event format and the
/// determinism contract.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    origin: Instant,
    sink: Arc<dyn TraceSink>,
    enabled: bool,
    durations: Option<Arc<MetricsRegistry>>,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer emitting to `sink` with timestamps from `clock`.
    ///
    /// When `durations` is given, every span exit also feeds its duration
    /// into the histogram `span.<name>.ns` of that registry, so a
    /// [`crate::MetricsSnapshot`] carries the same latency data as the
    /// trace file.
    pub fn new(
        clock: Arc<dyn Clock>,
        sink: Arc<dyn TraceSink>,
        durations: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        let origin = clock.now();
        let enabled = sink.enabled();
        Tracer {
            clock,
            origin,
            sink,
            enabled,
            durations,
            state: Mutex::new(TracerState {
                next_span: 1,
                seq: 0,
                stack: Vec::new(),
            }),
        }
    }

    /// A permanently disabled tracer: `span()` costs one branch.
    pub fn disabled() -> Self {
        Tracer::new(Arc::new(SystemClock), Arc::new(NullSink), None)
    }

    /// Whether this tracer emits events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanosecond offset of `instant` from the tracer origin.
    fn offset_ns(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Current nanosecond timestamp on the tracer's own clock (offset
    /// from its origin). Instrumentation that derives *metrics* from the
    /// traced timeline (e.g. the per-round attribution histograms) must
    /// read this clock, not a wall clock, so deterministic runs over a
    /// [`teamnet_net::ManualClock`] stay byte-identical.
    pub fn now_ns(&self) -> u64 {
        self.offset_ns(self.clock.now())
    }

    /// Opens a span. The returned guard records the exit when dropped;
    /// bind it (`let _span = …`) for the span to cover the scope.
    ///
    /// `fields` are numeric key/value annotations rendered into the enter
    /// event in the order given (numbers only: no float formatting, no
    /// string drift).
    pub fn span(&self, name: &'static str, fields: &[(&'static str, u64)]) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                name,
                span_id: 0,
                start_ns: 0,
            };
        }
        let start_ns = self.offset_ns(self.clock.now());
        let span_id = {
            let mut state = self.state.lock();
            let span_id = state.next_span;
            state.next_span += 1;
            let parent = state.stack.last().copied().unwrap_or(0);
            let seq = state.seq;
            state.seq += 1;
            state.stack.push(span_id);
            self.sink
                .record(&render_enter(seq, span_id, parent, name, start_ns, fields));
            span_id
        };
        SpanGuard {
            tracer: Some(self),
            name,
            span_id,
            start_ns,
        }
    }

    /// The innermost open span's id, or `0` when no span is open (or the
    /// tracer is disabled). This is what send sites stamp into outgoing
    /// frames as the causal parent.
    pub fn current_span(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.state.lock().stack.last().copied().unwrap_or(0)
    }

    /// A [`TraceContext`] for `trace_id` parented on the current span —
    /// the one-liner send sites use to stamp outgoing frames.
    pub fn current_ctx(&self, trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id,
            parent_span: self.current_span(),
        }
    }

    /// Records a point event (no duration): `ev:"mark"`. Used for state
    /// transitions and flight-recorder triggers.
    pub fn mark(&self, name: &str, fields: &[(&'static str, u64)]) {
        self.point_event("mark", None, name, fields);
    }

    /// Records the departure of a traced frame: `ev:"send"` on the
    /// sender's current span, carrying the destination `peer`, the
    /// stamped trace id and the wire size. `trace-assemble` pairs it with
    /// the matching `recv` on the far side to measure the wire.
    pub fn send_event(&self, kind: &str, peer: u64, ctx: TraceContext, bytes: u64) {
        self.point_event(
            "send",
            Some(ctx.parent_span),
            kind,
            &[("peer", peer), ("trace", ctx.trace_id), ("bytes", bytes)],
        );
    }

    /// Records the arrival of a traced frame: `ev:"recv"` on the
    /// receiver's current span. `rspan` is the *sender's* span id carried
    /// in the frame — the other half of the cross-node edge.
    pub fn recv_event(&self, kind: &str, peer: u64, ctx: TraceContext, bytes: u64) {
        self.point_event(
            "recv",
            None,
            kind,
            &[
                ("peer", peer),
                ("trace", ctx.trace_id),
                ("rspan", ctx.parent_span),
                ("bytes", bytes),
            ],
        );
    }

    /// Shared implementation of the point events (`mark`/`send`/`recv`):
    /// one line on the current (or given) span, no stack change.
    fn point_event(&self, ev: &str, span: Option<u64>, name: &str, fields: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let t_ns = self.offset_ns(self.clock.now());
        let mut state = self.state.lock();
        let span = span.unwrap_or_else(|| state.stack.last().copied().unwrap_or(0));
        let seq = state.seq;
        state.seq += 1;
        self.sink
            .record(&render_event(seq, ev, span, name, t_ns, fields));
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.sink.flush();
    }

    fn observe_duration(&self, name: &str, dur_ns: u64) {
        if let Some(registry) = &self.durations {
            let mut metric = String::with_capacity(name.len() + 8);
            metric.push_str("span.");
            metric.push_str(name);
            metric.push_str(".ns");
            registry.histogram(&metric).observe(dur_ns);
        }
    }

    fn exit_span(&self, span_id: u64, name: &str, start_ns: u64) {
        let end_ns = self.offset_ns(self.clock.now());
        {
            let mut state = self.state.lock();
            // Unwind to (and including) our own entry; a guard dropped out
            // of order closes the spans it outlived.
            while let Some(top) = state.stack.pop() {
                if top == span_id {
                    break;
                }
            }
            let seq = state.seq;
            state.seq += 1;
            self.sink.record(&render_exit(
                seq,
                span_id,
                name,
                end_ns,
                end_ns.saturating_sub(start_ns),
            ));
        }
        self.observe_duration(name, end_ns.saturating_sub(start_ns));
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(enabled={}, sink={:?})", self.enabled, self.sink)
    }
}

fn render_enter(
    seq: u64,
    span: u64,
    parent: u64,
    name: &str,
    t_ns: u64,
    fields: &[(&'static str, u64)],
) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"ev\":\"enter\",\"span\":{span},\"parent\":{parent},\"name\":\""
    );
    escape_into(&mut out, name);
    let _ = write!(out, "\",\"t_ns\":{t_ns},\"fields\":{{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, key);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("}}");
    out
}

fn render_event(
    seq: u64,
    ev: &str,
    span: u64,
    name: &str,
    t_ns: u64,
    fields: &[(&'static str, u64)],
) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"ev\":\"{ev}\",\"span\":{span},\"name\":\""
    );
    escape_into(&mut out, name);
    let _ = write!(out, "\",\"t_ns\":{t_ns},\"fields\":{{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, key);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("}}");
    out
}

fn render_exit(seq: u64, span: u64, name: &str, t_ns: u64, dur_ns: u64) -> String {
    let mut out = String::with_capacity(80);
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"ev\":\"exit\",\"span\":{span},\"name\":\""
    );
    escape_into(&mut out, name);
    let _ = write!(out, "\",\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}}}");
    out
}

/// RAII guard for an open span; records the exit event when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    span_id: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.exit_span(self.span_id, self.name, self.start_ns);
        }
    }
}

/// The observability handle threaded through configs: a shared tracer
/// plus a shared metrics registry.
///
/// [`Obs::disabled`] is the default everywhere — the tracer is inert, but
/// the registry is live, so protocol counters (discards, detector
/// transitions, fault injections) accumulate even without tracing and
/// can be read back with [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub struct Obs {
    /// The span tracer.
    pub tracer: Arc<Tracer>,
    /// The metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    /// Optional flight recorder; anomaly paths dump it via
    /// [`Obs::flight_dump`].
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Obs {
    /// Tracing + metrics over `clock` into `sink`; span durations also
    /// feed `span.<name>.ns` histograms in the registry.
    pub fn new(clock: Arc<dyn Clock>, sink: Arc<dyn TraceSink>) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::new(clock, sink, Some(Arc::clone(&metrics))));
        Obs {
            tracer,
            metrics,
            flight: None,
        }
    }

    /// No tracing; live metrics. The zero-overhead default.
    pub fn disabled() -> Self {
        Obs {
            tracer: Arc::new(Tracer::disabled()),
            metrics: Arc::new(MetricsRegistry::new()),
            flight: None,
        }
    }

    /// Tracing + metrics where the sink is teed into a fresh
    /// `capacity`-event [`RingSink`], and a [`FlightRecorder`] over that
    /// ring dumps into `dump_dir`. The full trace still reaches `sink`.
    pub fn with_flight_recorder(
        clock: Arc<dyn Clock>,
        sink: Arc<dyn TraceSink>,
        capacity: usize,
        dump_dir: impl AsRef<Path>,
    ) -> Self {
        let ring = Arc::new(RingSink::new(capacity));
        let tee: Arc<dyn TraceSink> = Arc::new(TeeSink::new(vec![
            sink,
            Arc::clone(&ring) as Arc<dyn TraceSink>,
        ]));
        let recorder = Arc::new(FlightRecorder::from_ring(ring, dump_dir));
        let mut obs = Obs::new(clock, tee);
        obs.flight = Some(recorder);
        obs
    }

    /// Appends a `mark` event naming the trigger (so it lands as the
    /// dump's final line) and dumps the flight-recorder ring. Returns the
    /// dump path, or `None` when no recorder is armed or the write
    /// failed.
    pub fn flight_dump(&self, reason: &str, fields: &[(&'static str, u64)]) -> Option<PathBuf> {
        let recorder = self.flight.as_ref()?;
        self.tracer.mark(reason, fields);
        recorder.dump()
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Shorthand for [`Tracer::span`].
    pub fn span(&self, name: &'static str, fields: &[(&'static str, u64)]) -> SpanGuard<'_> {
        self.tracer.span(name, fields)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use teamnet_net::ManualClock;

    fn manual_obs() -> (Arc<ManualClock>, Arc<VecSink>, Obs) {
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let obs = Obs::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        (clock, sink, obs)
    }

    #[test]
    fn spans_emit_enter_exit_with_manual_timestamps() {
        let (clock, sink, obs) = manual_obs();
        {
            let _outer = obs.span("outer", &[("round", 3)]);
            clock.advance(Duration::from_nanos(100));
            {
                let _inner = obs.span("inner", &[]);
                clock.advance(Duration::from_nanos(50));
            }
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"ev":"enter","span":1,"parent":0,"name":"outer","t_ns":0,"fields":{"round":3}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ev":"enter","span":2,"parent":1,"name":"inner","t_ns":100,"fields":{}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"seq":2,"ev":"exit","span":2,"name":"inner","t_ns":150,"dur_ns":50}"#
        );
        assert_eq!(
            lines[3],
            r#"{"seq":3,"ev":"exit","span":1,"name":"outer","t_ns":150,"dur_ns":150}"#
        );
    }

    #[test]
    fn span_durations_feed_registry_histograms() {
        let (clock, _sink, obs) = manual_obs();
        {
            let _s = obs.span("work", &[]);
            clock.advance(Duration::from_nanos(7));
        }
        let snap = obs.metrics.snapshot();
        let h = &snap.histograms["span.work.ns"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_skips_histograms() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        {
            let _s = obs.span("work", &[("x", 1)]);
        }
        assert!(obs.metrics.snapshot().histograms.is_empty());
        // Counters still work on the disabled path.
        obs.metrics.counter("c").inc();
        assert_eq!(obs.metrics.counter("c").get(), 1);
    }

    #[test]
    fn out_of_order_drop_unwinds_the_stack() {
        let (_clock, sink, obs) = manual_obs();
        let outer = obs.span("outer", &[]);
        let inner = obs.span("inner", &[]);
        drop(outer); // wrong order: outer's exit closes inner's stack entry
        drop(inner);
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "{lines:?}");
        // A span opened after the unwind gets a root parent, not a stale one.
        let _fresh = obs.span("fresh", &[]);
        let fresh_line = &sink.lines()[4];
        assert!(fresh_line.contains("\"parent\":0"), "{fresh_line}");
    }

    #[test]
    fn names_are_json_escaped() {
        let (_clock, sink, obs) = manual_obs();
        drop(obs.span("we\"ird\\name", &[]));
        let line = sink.lines()[0].clone();
        assert!(line.contains(r#"we\"ird\\name"#), "{line}");
        assert!(
            serde_json::from_str::<serde::Value>(&line).is_ok(),
            "{line}"
        );
    }

    #[test]
    fn jsonl_sink_writes_and_flushes() {
        let dir = std::env::temp_dir();
        let path = dir.join("teamnet_obs_trace_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(r#"{"seq":0}"#);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"seq\":0}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropped_jsonl_sink_loses_no_events() {
        // The sink buffers (BufWriter) — a drop without an explicit flush
        // must still land every event on disk.
        let dir = std::env::temp_dir();
        let path = dir.join("teamnet_obs_trace_drop_test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            for i in 0..100 {
                sink.record(&format!(r#"{{"seq":{i}}}"#));
            }
            // No flush: drop must do it.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        assert_eq!(lines[99], r#"{"seq":99}"#);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn send_recv_mark_events_pin_their_format() {
        let (clock, sink, obs) = manual_obs();
        let _round = obs.span("round", &[]);
        clock.advance(Duration::from_nanos(10));
        let ctx = obs.tracer.current_ctx(77);
        assert_eq!(
            ctx,
            TraceContext {
                trace_id: 77,
                parent_span: 1
            }
        );
        obs.tracer.send_event("input", 2, ctx, 128);
        clock.advance(Duration::from_nanos(5));
        obs.tracer.recv_event(
            "result",
            2,
            TraceContext {
                trace_id: 77,
                parent_span: 9,
            },
            64,
        );
        obs.tracer.mark("quarantine", &[("peer", 2)]);
        let lines = sink.lines();
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ev":"send","span":1,"name":"input","t_ns":10,"fields":{"peer":2,"trace":77,"bytes":128}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"seq":2,"ev":"recv","span":1,"name":"result","t_ns":15,"fields":{"peer":2,"trace":77,"rspan":9,"bytes":64}}"#
        );
        assert_eq!(
            lines[3],
            r#"{"seq":3,"ev":"mark","span":1,"name":"quarantine","t_ns":15,"fields":{"peer":2}}"#
        );
        for line in &lines {
            assert!(serde_json::from_str::<serde::Value>(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn disabled_tracer_skips_point_events() {
        let obs = Obs::disabled();
        obs.tracer.mark("x", &[]);
        obs.tracer.send_event("y", 1, obs.tracer.current_ctx(1), 10);
        assert_eq!(obs.tracer.current_span(), 0);
    }

    #[test]
    fn ring_sink_keeps_only_the_newest_events_in_order() {
        let ring = RingSink::new(3);
        assert_eq!(ring.capacity(), 3);
        assert!(ring.snapshot().is_empty());
        ring.record("a");
        ring.record("b");
        assert_eq!(ring.snapshot(), vec!["a", "b"]);
        ring.record("c");
        ring.record("d");
        ring.record("e");
        assert_eq!(ring.snapshot(), vec!["c", "d", "e"]);
    }

    #[test]
    fn tee_sink_fans_out_to_enabled_sinks_only() {
        let a = Arc::new(VecSink::new());
        let ring = Arc::new(RingSink::new(4));
        let tee = TeeSink::new(vec![
            Arc::clone(&a) as Arc<dyn TraceSink>,
            Arc::new(NullSink) as Arc<dyn TraceSink>,
            Arc::clone(&ring) as Arc<dyn TraceSink>,
        ]);
        assert!(tee.enabled());
        tee.record("x");
        assert_eq!(a.lines(), vec!["x"]);
        assert_eq!(ring.snapshot(), vec!["x"]);
    }

    #[test]
    fn flight_dump_writes_ring_with_trigger_mark_last() {
        let dir = std::env::temp_dir().join("teamnet_obs_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let obs = Obs::with_flight_recorder(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
            8,
            &dir,
        );
        {
            let _s = obs.span("round", &[("round_idx", 1)]);
            clock.advance(Duration::from_nanos(3));
        }
        let path = obs
            .flight_dump("flight.quarantine", &[("peer", 2)])
            .expect("dump path");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let last = lines.last().unwrap();
        assert!(
            last.contains(r#""ev":"mark""#) && last.contains("flight.quarantine"),
            "{last}"
        );
        // The full-trace sink saw the same events.
        assert_eq!(sink.lines().len(), 3);
        assert_eq!(obs.flight.as_ref().unwrap().dump_count(), 1);
        // A second dump gets a fresh file name.
        let second = obs.flight_dump("flight.quarantine", &[]).unwrap();
        assert_ne!(path, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_sink_records_even_when_primary_sink_is_disabled() {
        // Flight recording without always-on full tracing: tee of
        // NullSink + ring is still enabled, so spans reach the ring.
        let dir = std::env::temp_dir().join("teamnet_obs_flight_null_test");
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Obs::with_flight_recorder(
            Arc::new(ManualClock::new()) as Arc<dyn Clock>,
            Arc::new(NullSink) as Arc<dyn TraceSink>,
            4,
            &dir,
        );
        assert!(obs.enabled());
        {
            let _s = obs.span("round", &[]);
        }
        let ring = obs.flight.as_ref().unwrap().ring();
        assert_eq!(ring.snapshot().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
