//! The serving engine: admission → coalesce → one collaborative round →
//! demux.
//!
//! Many concurrent clients [`ServeHandle::submit`] row-batched tensors;
//! the engine is self-clocked: whenever it is free and anything is
//! pending it takes a batch from the [`Batcher`] at once, so requests
//! coalesce only while the round before them is in flight. The batch runs
//! as one tensor through a single [`InferenceSession::infer`] round
//! (broadcast to the whole team, argmin entropy per row) and is demuxed
//! to each request's [`Ticket`]. Expert forwards are row-independent, so
//! a request receives byte-for-byte the predictions a solo `infer` of its
//! own tensor would have produced — `tests/serve_props.rs` pins that
//! bijection property.
//!
//! Time is read exclusively from the injected [`Clock`] as nanosecond
//! offsets from the engine's construction instant, so a `ManualClock`
//! makes every admission decision and latency observation deterministic
//! (the serve soak asserts byte-identical trace + metrics transcripts
//! across identical seeds).
//!
//! Threading model: [`ServeEngine::pump_now`] is the deterministic
//! single-threaded driver (tests, soaks); [`ServeEngine::run`] pumps for
//! as long as anything is pending and sleeps, untimed, otherwise.

use crate::batcher::{Batcher, BatcherConfig, PendingRequest};
use crate::error::ServeError;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_core::health::PeerHealth;
use teamnet_core::runtime::{InferenceSession, MasterConfig};
use teamnet_core::TeamPrediction;
use teamnet_net::{Clock, Transport};
use teamnet_nn::Sequential;
use teamnet_obs::{Counter, Gauge, Histogram, Obs};
use teamnet_tensor::Tensor;

/// Serving policy: batching knobs, the expected per-row shape, and the
/// inference policy of the underlying session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batch cap and admission policy.
    pub batch: BatcherConfig,
    /// Required per-row feature dims: a submitted tensor must be shaped
    /// `[rows, input_dims...]`. Mis-shaped requests are rejected as
    /// [`ServeError::Malformed`] at the front door — they must never
    /// reach (let alone panic) a worker.
    pub input_dims: Vec<usize>,
    /// Policy for the collaborative rounds underneath; its `clock` and
    /// `obs` also drive the serving front-end, so spans, metrics and
    /// enqueue times share one timeline.
    pub master: MasterConfig,
}

/// The eventual outcome of one admitted request.
type TicketResult = Result<Vec<TeamPrediction>, ServeError>;

/// Shared slot a request's result is delivered into.
#[derive(Debug, Default)]
struct TicketSlot {
    result: Mutex<Option<TicketResult>>,
    ready: Condvar,
}

/// A claim check for one submitted request: the in-process client half
/// of the serving protocol (the framed TCP front-end resolves tickets
/// into wire replies the same way).
#[derive(Debug, Clone)]
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl Ticket {
    fn new() -> Self {
        Ticket {
            slot: Arc::new(TicketSlot::default()),
        }
    }

    fn fill(&self, result: TicketResult) {
        let mut slot = self.slot.result.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.slot.ready.notify_all();
        }
    }

    /// Non-blocking poll; `None` until the request completes.
    pub fn try_take(&self) -> Option<TicketResult> {
        self.slot.result.lock().clone()
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Whatever [`ServeError`] the engine rejected the request with.
    pub fn wait(&self) -> TicketResult {
        let mut slot = self.slot.result.lock();
        loop {
            if let Some(result) = slot.clone() {
                return result;
            }
            self.slot.ready.wait(&mut slot);
        }
    }

    /// Blocks until the request completes or `timeout` elapses
    /// (`None` on timeout).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TicketResult> {
        let deadline = Instant::now() + timeout; // lint: allow(det-clock)
        let mut slot = self.slot.result.lock();
        loop {
            if let Some(result) = slot.clone() {
                return Some(result);
            }
            if self.slot.ready.wait_until(&mut slot, deadline).timed_out() {
                return slot.clone();
            }
        }
    }
}

/// One admitted request's payload, keyed by id until its flush.
#[derive(Debug)]
struct QueuedRequest {
    data: Vec<f32>,
    ticket: Ticket,
}

/// Every admitted request resolves: one let go unanswered (its engine
/// dropped, its round unwound) is `Closed`, not a stranded waiter.
impl Drop for QueuedRequest {
    fn drop(&mut self) {
        self.ticket.fill(Err(ServeError::Closed));
    }
}

/// Consecutive [`ServeError::Overloaded`] rejections (with no admission
/// in between) that trigger a flight-recorder dump: a short blip sheds a
/// request or two, a burst this long means the team is saturated or
/// shrunk, and the last ring of trace events explains which.
const OVERLOAD_DUMP_STREAK: u64 = 8;

/// Mutable front-door state behind one lock.
#[derive(Debug)]
struct FrontState {
    batcher: Batcher,
    requests: BTreeMap<u64, QueuedRequest>,
    next_id: u64,
    closed: bool,
    /// Consecutive overload rejections since the last admission.
    overload_streak: u64,
}

/// The shared front door: admission state plus the clock/obs handles
/// submission needs.
#[derive(Debug)]
struct Front {
    state: Mutex<FrontState>,
    /// Wakes the [`ServeEngine::run`] loop on submission or close.
    wake: Condvar,
    clock: Arc<dyn Clock>,
    /// All engine timestamps are offsets from here on `clock`.
    origin: Instant,
    input_dims: Vec<usize>,
    obs: Obs,
    g_depth: Gauge,
    c_admitted: Counter,
    c_rej_overload: Counter,
    c_rej_malformed: Counter,
}

impl Front {
    fn now_ns(&self) -> u64 {
        self.clock
            .now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64
    }
}

/// Cloneable submission handle: the in-process channel client.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    front: Arc<Front>,
}

impl ServeHandle {
    /// Submits one request shaped `[rows, input_dims...]`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for a mis-shaped tensor,
    /// [`ServeError::Overloaded`] when admission control refuses it,
    /// [`ServeError::Closed`] after shutdown.
    pub fn submit(&self, input: &Tensor) -> Result<Ticket, ServeError> {
        self.admit(input.dims(), || input.data().to_vec())
    }

    /// [`ServeHandle::submit`] for a caller that is done with the tensor
    /// (the TCP front, which decoded it off the wire for this one call):
    /// the rows move into the queue instead of being copied into it.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit`].
    pub fn submit_owned(&self, input: Tensor) -> Result<Ticket, ServeError> {
        let dims = input.dims().to_vec();
        self.admit(&dims, || input.into_vec())
    }

    /// Validates and admits one request; `rows_data` is only called — and
    /// so the rows are only copied or moved — once admission has passed.
    fn admit(
        &self,
        dims: &[usize],
        rows_data: impl FnOnce() -> Vec<f32>,
    ) -> Result<Ticket, ServeError> {
        let (rows, features) = match dims.split_first() {
            Some((&rows, features)) => (rows, features),
            None => return Err(ServeError::Malformed("rank-0 request tensor".into())),
        };
        if features != self.front.input_dims.as_slice() {
            return Err(ServeError::Malformed(format!(
                "request rows shaped {features:?}, this engine serves {:?}",
                self.front.input_dims
            )));
        }
        let now_ns = self.front.now_ns();
        let mut st = self.front.state.lock();
        if st.closed {
            return Err(ServeError::Closed);
        }
        let id = st.next_id;
        match st.batcher.admit(id, rows, now_ns) {
            Ok(()) => st.overload_streak = 0,
            Err(e) => {
                match &e {
                    ServeError::Overloaded { depth, window } => {
                        self.front.c_rej_overload.inc();
                        st.overload_streak += 1;
                        if st.overload_streak == OVERLOAD_DUMP_STREAK {
                            // A sustained burst, not a blip: dump the
                            // flight-recorder ring (if armed) with the
                            // burst as its final event.
                            let _ = self.front.obs.flight_dump(
                                "flight.overload",
                                &[
                                    ("streak", st.overload_streak),
                                    ("depth", *depth as u64),
                                    ("window", *window as u64),
                                ],
                            );
                        }
                    }
                    _ => self.front.c_rej_malformed.inc(),
                }
                return Err(e);
            }
        }
        st.next_id += 1;
        let ticket = Ticket::new();
        st.requests.insert(
            id,
            QueuedRequest {
                data: rows_data(),
                ticket: ticket.clone(),
            },
        );
        self.front.c_admitted.inc();
        self.front.g_depth.set(st.batcher.depth_rows() as i64);
        drop(st);
        self.front.wake.notify_all();
        Ok(ticket)
    }

    /// Rows currently pending in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.front.state.lock().batcher.depth_rows()
    }

    /// The current admission window in rows: the configured queue cap
    /// scaled down to the live fraction of the team while the failure
    /// detector holds workers in quarantine (backpressure).
    pub fn admission_window(&self) -> usize {
        self.front.state.lock().batcher.window()
    }

    /// The engine's observability handle (shared with the underlying
    /// [`InferenceSession`]): the TCP front-end uses it to trace
    /// per-request spans on the same timeline as the rounds.
    pub fn obs(&self) -> &Obs {
        &self.front.obs
    }

    /// Marks the engine closed: future submissions fail with
    /// [`ServeError::Closed`]; pending requests still flush.
    pub fn close(&self) {
        self.front.state.lock().closed = true;
        self.front.wake.notify_all();
    }
}

/// The master-side serving engine. Owns the [`InferenceSession`] (so
/// worker health and quarantine decisions persist across batches) and
/// the master's local expert.
#[derive(Debug)]
pub struct ServeEngine {
    front: Arc<Front>,
    session: InferenceSession,
    expert: Sequential,
    h_batch_rows: Arc<Histogram>,
    h_latency: Arc<Histogram>,
    c_rounds_failed: Counter,
}

impl ServeEngine {
    /// Builds an engine serving `transport`'s cluster with the master's
    /// local `expert`.
    pub fn new(transport: &dyn Transport, expert: Sequential, config: ServeConfig) -> Self {
        let ServeConfig {
            batch,
            input_dims,
            master,
        } = config;
        let obs = master.obs.clone();
        let clock = Arc::clone(&master.clock);
        let session = InferenceSession::new(transport, master);
        let front = Arc::new(Front {
            state: Mutex::new(FrontState {
                batcher: Batcher::new(batch),
                requests: BTreeMap::new(),
                next_id: 0,
                closed: false,
                overload_streak: 0,
            }),
            wake: Condvar::new(),
            origin: clock.now(),
            clock,
            input_dims,
            g_depth: obs.metrics.gauge("serve.queue_depth"),
            c_admitted: obs.metrics.counter("serve.admitted"),
            c_rej_overload: obs.metrics.counter("serve.rejected.overloaded"),
            c_rej_malformed: obs.metrics.counter("serve.rejected.malformed"),
            obs,
        });
        ServeEngine {
            h_batch_rows: front.obs.metrics.histogram("serve.batch.rows"),
            h_latency: front.obs.metrics.histogram("serve.latency.ns"),
            c_rounds_failed: front.obs.metrics.counter("serve.rounds_failed"),
            front,
            session,
            expert,
        }
    }

    /// A new submission handle onto this engine.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            front: Arc::clone(&self.front),
        }
    }

    /// Read access to the underlying session's failure detector.
    pub fn session(&self) -> &InferenceSession {
        &self.session
    }

    /// Flushes one batch iff requests are pending — the oldest, up to
    /// `max_batch_rows` — and returns the number of requests completed.
    /// This is the deterministic driver: tests submit and call this — no
    /// engine thread, no clock motion, no real sleeping.
    pub fn pump_now(&mut self, transport: &dyn Transport) -> usize {
        let flush: Vec<(PendingRequest, QueuedRequest)> = {
            let mut st = self.front.state.lock();
            if st.batcher.is_empty() {
                return 0;
            }
            let _coalesce_span = self.front.obs.span(
                "serve.coalesce",
                &[
                    ("pending_rows", st.batcher.depth_rows() as u64),
                    ("pending_requests", st.batcher.len() as u64),
                ],
            );
            let popped = st.batcher.take_batch();
            self.front.g_depth.set(st.batcher.depth_rows() as i64);
            popped
                .into_iter()
                .filter_map(|p| {
                    let req = st.requests.remove(&p.id)?;
                    Some((p, req))
                })
                .collect()
        };
        let rows_total: usize = flush.iter().map(|(p, _)| p.rows).sum();
        let mut data =
            Vec::with_capacity(rows_total * self.front.input_dims.iter().product::<usize>());
        for (_, req) in &flush {
            data.extend_from_slice(&req.data);
        }
        let mut dims = vec![rows_total];
        dims.extend_from_slice(&self.front.input_dims);
        let images = match Tensor::from_vec(data, dims) {
            Ok(t) => t,
            Err(e) => {
                // Unreachable by construction (rows × validated feature
                // dims), but a typed rejection beats a panic if it ever
                // happens.
                let err = ServeError::Malformed(format!("batched tensor: {e}"));
                for (_, req) in &flush {
                    req.ticket.fill(Err(err.clone()));
                }
                return flush.len();
            }
        };
        self.h_batch_rows.observe(rows_total as u64);
        let outcome = {
            let _flush_span = self.front.obs.span(
                "serve.flush",
                &[
                    ("rows", rows_total as u64),
                    ("requests", flush.len() as u64),
                ],
            );
            self.session.infer(transport, &mut self.expert, &images)
        };
        let done_ns = self.front.now_ns();
        let completed = flush.len();
        match outcome {
            Ok(report) => {
                let mut offset = 0usize;
                for (p, req) in &flush {
                    let preds = report
                        .predictions
                        .get(offset..offset + p.rows)
                        .map(<[TeamPrediction]>::to_vec)
                        .ok_or_else(|| {
                            ServeError::Net("round returned too few prediction rows".into())
                        });
                    offset += p.rows;
                    self.h_latency
                        .observe(done_ns.saturating_sub(p.enqueued_ns));
                    req.ticket.fill(preds);
                }
                // Backpressure: narrow the admission window to the live
                // fraction of the team the detector reports.
                let total = report.peers.len().max(1);
                let live = report
                    .peers
                    .values()
                    .filter(|pr| pr.health == PeerHealth::Live)
                    .count();
                let mut st = self.front.state.lock();
                st.batcher.set_health(live, total);
            }
            Err(e) => {
                // The failed round itself already dumped the flight
                // recorder (if armed) inside `InferenceSession::infer`.
                self.c_rounds_failed.inc();
                let err = ServeError::Net(e.to_string());
                for (_, req) in &flush {
                    req.ticket.fill(Err(err.clone()));
                }
            }
        }
        completed
    }

    /// Runs the engine until [`ServeHandle::close`] is called and the
    /// queue has drained: the threaded driver behind the TCP front-end.
    /// Sleeps, untimed, on the front-door condvar while nothing is pending.
    pub fn run(&mut self, transport: &dyn Transport) {
        loop {
            {
                let mut st = self.front.state.lock();
                while st.batcher.is_empty() {
                    if st.closed {
                        return;
                    }
                    self.front.wake.wait(&mut st);
                }
            }
            self.pump_now(transport);
        }
    }
}

/// Nobody pumps a front whose engine is gone: close it, let its queue go.
impl Drop for ServeEngine {
    fn drop(&mut self) {
        let mut st = self.front.state.lock();
        st.closed = true;
        st.requests.clear();
        while !st.batcher.take_batch().is_empty() {}
        self.front.g_depth.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{expert, request, with_worker};
    use teamnet_net::{ChannelTransport, ManualClock, NetError, NodeId, Tag, TransportStats};

    /// A 4-row batch cap under a 16-row admission window, on a clock no
    /// test here ever advances: nothing the engine decides waits for time.
    fn config() -> ServeConfig {
        ServeConfig {
            batch: BatcherConfig {
                max_batch_rows: 4,
                queue_cap_rows: 16,
            },
            input_dims: vec![1, 28, 28],
            master: MasterConfig {
                worker_timeout: Duration::from_millis(500),
                clock: Arc::new(ManualClock::new()),
                ..MasterConfig::default()
            },
        }
    }

    /// The master endpoint, with one scripted step that runs when the
    /// first gather receive starts: the round is in flight (its input is
    /// broadcast, its result not yet taken) for as long as the step runs.
    struct MidRound<'a> {
        inner: &'a ChannelTransport,
        step: Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>,
    }

    impl Transport for MidRound<'_> {
        fn node_id(&self) -> NodeId {
            self.inner.node_id()
        }

        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }

        fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
            self.inner.send(to, tag, payload)
        }

        fn recv_tags(
            &self,
            from: NodeId,
            tags: &[Tag],
            timeout: Duration,
        ) -> Result<(Tag, Vec<u8>), NetError> {
            let step = self.step.lock().take();
            if let Some(step) = step {
                step();
            }
            self.inner.recv_tags(from, tags, timeout)
        }

        fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(NodeId, Vec<u8>), NetError> {
            self.inner.recv_any(tag, timeout)
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_lone_request_is_flushed_at_once() {
        with_worker(|master| {
            let mut engine = ServeEngine::new(master, expert(0), config());
            let ticket = engine.handle().submit(&request(1, 0.2)).unwrap();
            // The engine is free and one request is pending: it goes now,
            // alone. Nothing holds it back for company.
            assert_eq!(engine.pump_now(master), 1);
            assert_eq!(ticket.try_take().unwrap().unwrap().len(), 1);
            assert_eq!(engine.pump_now(master), 0, "idle: nothing to flush");
        });
    }

    #[test]
    fn pending_requests_leave_as_one_batch_and_demux() {
        with_worker(|master| {
            let mut engine = ServeEngine::new(master, expert(0), config());
            let handle = engine.handle();
            let t1 = handle.submit(&request(1, 0.2)).unwrap();
            let t2 = handle.submit(&request(2, 0.7)).unwrap();
            assert_eq!(engine.pump_now(master), 2);
            assert_eq!(t1.wait().unwrap().len(), 1);
            assert_eq!(t2.wait().unwrap().len(), 2);
            let rows = &handle.obs().metrics.snapshot().histograms["serve.batch.rows"];
            assert_eq!((rows.count, rows.sum), (1, 3), "one 3-row round");
        });
    }

    /// The self-clocking rule: what arrives while a round is in flight
    /// coalesces, and leaves together — oldest first, up to the batch
    /// cap — on the pump after that round returns.
    #[test]
    fn arrivals_during_a_round_leave_together_when_it_returns() {
        with_worker(|inner| {
            let mut engine = ServeEngine::new(inner, expert(0), config());
            let handle = engine.handle();
            let late: Mutex<Vec<Ticket>> = Mutex::new(Vec::new());
            let master = MidRound {
                inner,
                step: Mutex::new(Some(Box::new(|| {
                    for (rows, fill) in [(1, 0.1), (2, 0.3), (1, 0.5), (1, 0.9)] {
                        late.lock()
                            .push(handle.submit(&request(rows, fill)).unwrap());
                    }
                }))),
            };
            let first = handle.submit(&request(1, 0.2)).unwrap();
            assert_eq!(engine.pump_now(&master), 1, "the first request rides alone");
            assert_eq!(first.try_take().unwrap().unwrap().len(), 1);
            let late = late.lock();
            assert_eq!(late.len(), 4, "the step ran inside the first round");
            assert!(late.iter().all(|t| t.try_take().is_none()));
            assert_eq!(handle.queue_depth(), 5);

            assert_eq!(engine.pump_now(&master), 3, "1 + 2 + 1 rows fill the cap");
            for (ticket, rows) in late.iter().zip([1, 2, 1]) {
                assert_eq!(ticket.try_take().unwrap().unwrap().len(), rows);
            }
            assert!(late[3].try_take().is_none(), "over the cap: next round");
            assert_eq!(engine.pump_now(&master), 1, "the remainder");
            assert_eq!(late[3].try_take().unwrap().unwrap().len(), 1);
            assert_eq!(engine.pump_now(&master), 0);
            let rows = &handle.obs().metrics.snapshot().histograms["serve.batch.rows"];
            assert_eq!((rows.count, rows.sum, rows.max), (3, 6, 4));
        });
    }

    #[test]
    fn malformed_and_overload_rejected_typed() {
        let nodes = ChannelTransport::mesh(1);
        let engine = ServeEngine::new(&nodes[0], expert(0), config());
        let handle = engine.handle();
        // Wrong feature dims.
        assert!(matches!(
            handle.submit(&Tensor::full([1, 7, 7], 0.0)),
            Err(ServeError::Malformed(_))
        ));
        // Over the 4-row batch cap.
        assert!(matches!(
            handle.submit(&request(5, 0.0)),
            Err(ServeError::Malformed(_))
        ));
        // Fill the 16-row admission window with 4-row requests, then
        // overflow it.
        for _ in 0..4 {
            handle.submit(&request(4, 0.0)).unwrap();
        }
        assert!(matches!(
            handle.submit(&request(1, 0.0)),
            Err(ServeError::Overloaded {
                depth: 16,
                window: 16
            })
        ));
    }

    #[test]
    fn close_drains_then_rejects() {
        with_worker(|master| {
            let mut engine = ServeEngine::new(master, expert(0), config());
            let handle = engine.handle();
            let ticket = handle.submit(&request(1, 0.4)).unwrap();
            handle.close();
            // Close-drain: the pending request still completes.
            assert_eq!(engine.pump_now(master), 1);
            assert!(ticket.wait().is_ok());
            assert!(matches!(
                handle.submit(&request(1, 0.4)),
                Err(ServeError::Closed)
            ));
        });
    }

    /// Nobody will ever pump a dropped engine's queue: its tickets must
    /// resolve, or every waiter — a TCP connection thread, and through it
    /// `TcpServeFront::shutdown` — blocks forever.
    #[test]
    fn dropping_the_engine_resolves_queued_tickets_as_closed() {
        let nodes = ChannelTransport::mesh(1);
        let engine = ServeEngine::new(&nodes[0], expert(0), config());
        let handle = engine.handle();
        let ticket = handle.submit(&request(2, 0.4)).unwrap();
        drop(engine);
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(2)),
            Some(Err(ServeError::Closed))
        );
        assert_eq!(handle.queue_depth(), 0);
        assert!(matches!(
            handle.submit(&request(1, 0.4)),
            Err(ServeError::Closed)
        ));
    }
}
