//! Decorators wiring observability into `teamnet-net` without a
//! dependency cycle.
//!
//! `teamnet-obs` depends on `teamnet-net` (for [`Clock`] and
//! [`Transport`]), so the net crate cannot call into this one. Instead,
//! callers wrap what they hand to the runtime:
//!
//! * [`TracedTransport`] decorates any [`Transport`], tracing every
//!   send/recv as a span and counting traffic/errors in the registry;
//! * [`TracedClock`] decorates any [`Clock`] so each backoff sleep taken
//!   through it is counted and its duration histogrammed — retries become
//!   visible without touching `Backoff` itself;
//! * [`fold_transport_stats`] copies a transport's cumulative
//!   [`TransportStats`] (including the chaos fault-injection counters)
//!   into registry gauges, unifying the ad-hoc stats structs with the
//!   metrics snapshot format.

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::trace::Obs;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_net::{Clock, NetError, Tag, Transport, TransportStats};

/// A [`Transport`] decorator that traces and counts every operation.
///
/// Spans: `net.send`, `net.recv`, `net.recv_any` (fields carry the peer
/// and payload size). Counters: `net.send.messages`, `net.send.errors`,
/// `net.recv.messages`, `net.recv.timeouts`, `net.recv.errors`.
///
/// Tracing from several threads through one shared tracer interleaves
/// span stacks; for byte-stable traces give the traced endpoint to one
/// thread of control (the master), as `tests/obs_determinism.rs` does.
#[derive(Debug)]
pub struct TracedTransport<T: Transport> {
    inner: T,
    obs: Obs,
    send_messages: Counter,
    send_errors: Counter,
    recv_messages: Counter,
    recv_timeouts: Counter,
    recv_errors: Counter,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, registering its counters in `obs`'s registry.
    pub fn new(inner: T, obs: Obs) -> Self {
        let send_messages = obs.metrics.counter("net.send.messages");
        let send_errors = obs.metrics.counter("net.send.errors");
        let recv_messages = obs.metrics.counter("net.recv.messages");
        let recv_timeouts = obs.metrics.counter("net.recv.timeouts");
        let recv_errors = obs.metrics.counter("net.recv.errors");
        TracedTransport {
            inner,
            obs,
            send_messages,
            send_errors,
            recv_messages,
            recv_timeouts,
            recv_errors,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn note_recv<M>(&self, result: &Result<M, NetError>) {
        match result {
            Ok(_) => self.recv_messages.inc(),
            Err(NetError::Timeout { .. }) => self.recv_timeouts.inc(),
            Err(_) => self.recv_errors.inc(),
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn node_id(&self) -> usize {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, to: usize, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        let _span = self.obs.span(
            "net.send",
            &[("peer", to as u64), ("bytes", payload.len() as u64)],
        );
        let result = self.inner.send(to, tag, payload);
        match &result {
            Ok(()) => self.send_messages.inc(),
            Err(_) => self.send_errors.inc(),
        }
        result
    }

    fn recv_tags(
        &self,
        from: usize,
        tags: &[Tag],
        timeout: Duration,
    ) -> Result<(Tag, Vec<u8>), NetError> {
        let _span = self.obs.span("net.recv", &[("peer", from as u64)]);
        let result = self.inner.recv_tags(from, tags, timeout);
        self.note_recv(&result);
        result
    }

    fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(usize, Vec<u8>), NetError> {
        let _span = self.obs.span("net.recv_any", &[]);
        let result = self.inner.recv_any(tag, timeout);
        self.note_recv(&result);
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A [`Clock`] decorator metering every sleep taken through it.
///
/// The runtime's only sleeps are retry backoffs (`Backoff::next_delay`
/// followed by `clock.sleep`), so `net.backoff.sleeps` /
/// `net.backoff.sleep.ns` read directly as "how much time this session
/// lost to retries".
#[derive(Debug)]
pub struct TracedClock {
    inner: Arc<dyn Clock>,
    sleeps: Counter,
    sleep_ns: Arc<Histogram>,
}

impl TracedClock {
    /// Wraps `inner`, registering `net.backoff.sleeps` and
    /// `net.backoff.sleep.ns` in `registry`.
    pub fn new(inner: Arc<dyn Clock>, registry: &MetricsRegistry) -> Self {
        TracedClock {
            inner,
            sleeps: registry.counter("net.backoff.sleeps"),
            sleep_ns: registry.histogram("net.backoff.sleep.ns"),
        }
    }
}

impl Clock for TracedClock {
    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn sleep(&self, duration: Duration) {
        self.sleeps.inc();
        self.sleep_ns
            .observe(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
        self.inner.sleep(duration);
    }
}

/// Copies a transport's cumulative [`TransportStats`] into gauges named
/// `<prefix>.messages_sent`, `<prefix>.bytes_sent`,
/// `<prefix>.messages_dropped`, `<prefix>.messages_delayed`,
/// `<prefix>.messages_corrupted`, `<prefix>.messages_duplicated`.
///
/// Gauges, not counters: `TransportStats` is itself cumulative, so each
/// fold overwrites the last-known totals instead of double-counting.
/// Values are clamped at `i64::MAX` (a transport that moved 2^63 messages
/// has other problems).
pub fn fold_transport_stats(registry: &MetricsRegistry, prefix: &str, stats: &TransportStats) {
    let fields: [(&str, u64); 6] = [
        ("messages_sent", stats.messages_sent),
        ("bytes_sent", stats.bytes_sent),
        ("messages_dropped", stats.messages_dropped),
        ("messages_delayed", stats.messages_delayed),
        ("messages_corrupted", stats.messages_corrupted),
        ("messages_duplicated", stats.messages_duplicated),
    ];
    for (field, value) in fields {
        let mut name = String::with_capacity(prefix.len() + field.len() + 1);
        name.push_str(prefix);
        name.push('.');
        name.push_str(field);
        registry
            .gauge(&name)
            .set(i64::try_from(value).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceSink, VecSink};
    use teamnet_net::{ChannelTransport, ManualClock};

    #[test]
    fn traced_transport_records_spans_and_counters() {
        let mut mesh = ChannelTransport::mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let obs = Obs::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        let traced = TracedTransport::new(a, obs.clone());

        traced.send(1, Tag(7), b"hi").unwrap();
        let got = b.recv(0, Tag(7), Duration::from_secs(1)).unwrap();
        assert_eq!(got, b"hi");
        b.send(0, Tag(8), b"yo").unwrap();
        let _ = traced.recv(1, Tag(8), Duration::from_secs(1)).unwrap();
        let timeout = traced.recv(1, Tag(9), Duration::from_millis(1));
        assert!(matches!(timeout, Err(NetError::Timeout { .. })));

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counters["net.send.messages"], 1);
        assert_eq!(snap.counters["net.recv.messages"], 1);
        assert_eq!(snap.counters["net.recv.timeouts"], 1);
        assert_eq!(snap.counters["net.send.errors"], 0);
        let lines = sink.to_jsonl();
        assert!(lines.contains(r#""name":"net.send""#), "{lines}");
        assert!(lines.contains(r#""name":"net.recv""#), "{lines}");
        assert!(lines.contains(r#""bytes":2"#), "{lines}");
    }

    #[test]
    fn traced_clock_meters_backoff_sleeps() {
        let registry = MetricsRegistry::new();
        let manual = Arc::new(ManualClock::new());
        let clock = TracedClock::new(Arc::clone(&manual) as Arc<dyn Clock>, &registry);
        clock.sleep(Duration::from_nanos(500));
        clock.sleep(Duration::from_nanos(1500));
        assert_eq!(manual.sleeps(), 2, "sleeps reach the inner clock");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.backoff.sleeps"], 2);
        assert_eq!(snap.histograms["net.backoff.sleep.ns"].sum, 2000);
        assert_eq!(clock.now(), manual.now());
    }

    #[test]
    fn transport_stats_fold_into_gauges() {
        let registry = MetricsRegistry::new();
        let stats = TransportStats {
            messages_sent: 10,
            bytes_sent: 999,
            messages_dropped: 3,
            messages_delayed: 2,
            messages_corrupted: 1,
            messages_duplicated: 4,
        };
        fold_transport_stats(&registry, "chaos.master", &stats);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["chaos.master.messages_sent"], 10);
        assert_eq!(snap.gauges["chaos.master.messages_dropped"], 3);
        assert_eq!(snap.gauges["chaos.master.messages_duplicated"], 4);
        // Re-folding overwrites (gauge semantics), not accumulates.
        fold_transport_stats(&registry, "chaos.master", &stats);
        assert_eq!(registry.snapshot().gauges["chaos.master.messages_sent"], 10);
    }
}
