//! The distributed inference runtime (Figure 1d and Section III), with a
//! fault-tolerant protocol layer.
//!
//! One node — the **master** — receives the sensor input, broadcasts it to
//! every peer (**workers**), all nodes run their local expert in parallel,
//! the workers return `(predicted label, predictive entropy)` pairs, and
//! the master selects the least-uncertain answer. Communication happens
//! exactly twice per inference (one broadcast out, one gather back), which
//! is the entire reason TeamNet beats MPI-style model parallelism on WiFi.
//!
//! There is one of each thing: [`serve_worker_with_config`] is the worker
//! loop, and [`InferenceSession::round`] runs a round as four phases —
//! broadcast, local forward, gather, settle — over one record per peer.
//! Frames go on and come off the wire through the IO shell
//! (`shell.rs`); what they mean is decided by the pure state machines of
//! [`crate::fsm`]; what a strategy sends, computes and reduces is its
//! [`Exchange`] ([`InferenceSession::infer`] is `round` with TeamNet's).
//!
//! Robustness (see DESIGN.md §9): every message crosses the wire inside a
//! versioned, round-stamped, CRC-checked [`Envelope`], so the master
//! discards late replies from earlier rounds instead of mis-scoring them
//! against the wrong batch, and flipped bits are caught before they decode
//! into garbage predictions. An [`InferenceSession`] additionally runs a
//! heartbeat-style [`FailureDetector`]: peers that miss
//! `quarantine_after` consecutive rounds are quarantined (no broadcast,
//! no gather wait — their timeout stops taxing every inference) and
//! periodically probed with a 16-byte envelope for readmission. Each round
//! returns an [`InferenceReport`] with per-peer health alongside the
//! predictions.
//!
//! Works over any [`Transport`] — in-process channels for tests and real
//! TCP for deployments.

use crate::entropy::entropy;
use crate::exchange::{decode_tensor, Exchange, PeerCompute, TeamExchange};
use crate::fsm;
use crate::health::{
    ContactPlan, FailureDetector, FailureDetectorConfig, InferenceReport, PeerHealth, PeerReport,
};
use crate::recover::{HostBudget, RecoveryManager, TransferManifest};
use crate::shell::{self, ResultWait, RoundRegistration};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_net::codec::{decode_f32s, encode_f32s};
use teamnet_net::{
    derive_trace_id, Backoff, Clock, Envelope, NetError, PayloadKind, RetryPolicy, SystemClock,
    Tag, Transport, TRACE_EXT_LEN,
};
use teamnet_nn::{Layer, Mode, Sequential};
use teamnet_obs::{AllocMeters, Counter, Histogram, Obs};
use teamnet_tensor::{MemScope, Tensor};

/// Tag carrying broadcast input batches and probes (master → workers).
pub const TAG_INPUT: Tag = Tag(0x7EA0_0001);
/// Tag carrying per-row `(label, entropy)` results and probe acks
/// (workers → master).
pub const TAG_RESULT: Tag = Tag(0x7EA0_0002);
/// Tag asking workers to exit their serve loop (sent raw, no envelope: a
/// shutdown is not attributable to a round).
pub const TAG_SHUTDOWN: Tag = Tag(0x7EA0_0003);

/// Master-side inference policy.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Wall-clock budget for one round's gather leg: all workers' replies
    /// (and all discard-and-rewait cycles for stale or corrupt traffic)
    /// share this one deadline.
    pub worker_timeout: Duration,
    /// If `false`, a worker timing out merely removes it from the
    /// candidate set (degraded collaborative inference); if `true`, the
    /// inference fails.
    pub require_all_workers: bool,
    /// Optional per-node entropy weights δ* (Eq. 1 with converged control
    /// variables; see [`crate::TeamNet::set_calibration`]), indexed by
    /// node id. `None` means the plain arg-min of the paper's Figure 4.
    pub calibration: Option<Vec<f32>>,
    /// Failure-detector policy (quarantine threshold, probe cadence).
    pub failure: FailureDetectorConfig,
    /// Retry schedule for broadcast/probe sends.
    pub send_retry: RetryPolicy,
    /// Clock driving deadline budgets and backoff sleeps. Defaults to the
    /// system clock; tests inject a [`teamnet_net::ManualClock`] to walk
    /// timeouts in virtual time instead of sleeping.
    pub clock: Arc<dyn Clock>,
    /// Observability handle. Defaults to [`Obs::disabled`]: spans cost one
    /// branch, while protocol counters (`round.*`, `detector.transitions`)
    /// still accumulate in the registry. Pass an [`Obs::new`] built over
    /// the *same* clock as `clock` for a coherent timeline (DESIGN.md
    /// §12).
    pub obs: Obs,
    /// Seed for the deterministic per-round trace ids
    /// ([`teamnet_net::derive_trace_id`]): two sessions configured with
    /// the same seed emit byte-identical trace ids round for round, so
    /// cross-node traces from identical seeded runs assemble identically.
    pub trace_seed: u64,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            worker_timeout: Duration::from_secs(10),
            require_all_workers: true,
            calibration: None,
            failure: FailureDetectorConfig::default(),
            send_retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock),
            obs: Obs::disabled(),
            trace_seed: 0,
        }
    }
}

/// Runs a local expert on an input batch, producing the `[n, 2]` result
/// matrix of `(label, entropy)` rows that crosses the network.
///
/// A row whose predictive distribution fails validation (a diverged or
/// numerically broken expert) reports infinite entropy: the node stays in
/// the collaboration but can never win a row, instead of panicking
/// mid-inference and taking the whole cluster down with it.
pub fn local_results(expert: &mut Sequential, images: &Tensor) -> Vec<(usize, f32)> {
    let probs = expert.forward(images, Mode::Eval).softmax_rows();
    let n = probs.dims().first().copied().unwrap_or(0);
    (0..n)
        .map(|r| {
            let row = probs.row(r);
            (
                teamnet_tensor::argmax_slice(row),
                entropy(row).unwrap_or(f32::INFINITY),
            )
        })
        .collect()
}

/// Encodes a `(label, entropy)` result matrix for the wire (the payload
/// that travels inside a [`PayloadKind::Result`] envelope).
pub fn encode_results(results: &[(usize, f32)]) -> Vec<u8> {
    let flat: Vec<f32> = results.iter().flat_map(|&(l, h)| [l as f32, h]).collect();
    encode_f32s(&[results.len(), 2], &flat)
}

/// Decodes a result matrix produced by [`encode_results`].
///
/// # Errors
///
/// [`NetError::Malformed`] for anything that is not an `[n, 2]` matrix.
pub fn decode_results(bytes: &[u8]) -> Result<Vec<(usize, f32)>, NetError> {
    let (dims, data) = decode_f32s(bytes)?;
    if dims.len() != 2 || dims.get(1) != Some(&2) {
        return Err(NetError::Malformed(format!("result matrix dims {dims:?}")));
    }
    Ok(data
        .chunks_exact(2)
        .filter_map(|p| p.first_chunk::<2>())
        .map(|&[label, h]| (label as usize, h))
        .collect())
}

/// Marker opening a multi-expert result set on the wire. Unambiguous
/// against the single-matrix encoding, whose leading `u32` is a tensor
/// rank and therefore always tiny.
const RESULT_SET_SENTINEL: u32 = 0xFFFF_FFFF;

/// Encodes results from several experts hosted on one node:
/// `sentinel: u32 | count: u32 | per expert (expert_id: u32 | len: u32 |`
/// [`encode_results`] bytes`)`.
///
/// A worker hosting only its own expert sends the plain
/// [`encode_results`] matrix instead — byte for byte the certified
/// `wire_result_bytes` of DESIGN.md §13.
pub fn encode_result_set(set: &[(u32, Vec<(usize, f32)>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&RESULT_SET_SENTINEL.to_le_bytes());
    out.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for (expert, results) in set {
        let bytes = encode_results(results);
        out.extend_from_slice(&expert.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Decodes a result payload into per-expert result matrices. A
/// single-matrix payload (no sentinel) is attributed to `sender` — the
/// worker's own expert.
///
/// # Errors
///
/// [`NetError::Malformed`] for truncated sets or undecodable matrices.
pub fn decode_result_set(
    bytes: &[u8],
    sender: usize,
) -> Result<Vec<(usize, Vec<(usize, f32)>)>, NetError> {
    let sentinel = bytes
        .get(..4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap_or_default()));
    if sentinel != Some(RESULT_SET_SENTINEL) {
        return Ok(vec![(sender, decode_results(bytes)?)]);
    }
    let mut at = 4usize;
    let take_u32 = |bytes: &[u8], at: &mut usize| -> Result<u32, NetError> {
        let slice = bytes
            .get(*at..*at + 4)
            .ok_or_else(|| NetError::Malformed(format!("result set truncated at byte {at}")))?;
        *at += 4;
        Ok(u32::from_le_bytes(slice.try_into().unwrap_or_default()))
    };
    let count = take_u32(bytes, &mut at)? as usize;
    if count > 4096 {
        return Err(NetError::Malformed(format!(
            "implausible result set of {count} experts"
        )));
    }
    let mut set = Vec::with_capacity(count);
    for _ in 0..count {
        let expert = take_u32(bytes, &mut at)? as usize;
        let len = take_u32(bytes, &mut at)? as usize;
        let body = bytes
            .get(at..at + len)
            .ok_or_else(|| NetError::Malformed(format!("result set truncated at byte {at}")))?;
        at += len;
        set.push((expert, decode_results(body)?));
    }
    if at != bytes.len() {
        return Err(NetError::Malformed(format!(
            "{} trailing bytes in result set",
            bytes.len() - at
        )));
    }
    Ok(set)
}

/// Counters kept by a worker's serve loop, returned when the loop exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Input batches answered with a result matrix.
    pub rounds_served: u64,
    /// Readmission probes acknowledged.
    pub probes_answered: u64,
    /// Batches skipped because they failed envelope or tensor decoding
    /// (corrupt or malformed traffic); the loop keeps serving.
    pub malformed_skipped: u64,
    /// Expert-transfer offers this worker admitted (DESIGN.md §14).
    pub loads_accepted: u64,
    /// Expert-transfer offers refused by the local [`HostBudget`].
    pub loads_refused: u64,
    /// Transfer chunks received (including duplicates re-acknowledged by
    /// the stop-and-wait ARQ).
    pub chunks_received: u64,
}

/// Worker-side policy for [`serve_worker_with_config`].
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Observability handle (defaults to [`Obs::disabled`]): mirrors every
    /// [`WorkerStats`] counter into the registry live (`worker.*`) and
    /// traces each served batch as a `worker.forward` span, so worker-side
    /// telemetry flows through the same snapshot machinery as the
    /// master's.
    pub obs: Obs,
    /// Memory honesty check for hosting migrated experts: an offer whose
    /// certified `required_resident_bytes` exceeds this budget's spare is
    /// refused regardless of what the master believed. Defaults to
    /// [`HostBudget::unlimited`].
    pub budget: HostBudget,
}

/// Serves a worker node — the only worker loop, whatever the strategy:
/// waits for round inputs from `master`, runs them through `peer` (a
/// TeamNet expert, or a baseline's shards), returns round-stamped
/// results, until a shutdown message arrives. Probes are
/// acknowledged immediately; corrupt or malformed batches are counted and
/// skipped — one bad frame must not take a worker out of the team.
/// [`WorkerConfig::default`] serves with observability off and an
/// unlimited hosting budget.
///
/// For the recovery protocol (DESIGN.md §14) the worker also admits
/// [`PayloadKind::LoadExpert`] offers against its [`HostBudget`],
/// reassembles chunked transfers (resumably — the in-flight
/// [`PartialLoad`](crate::recover::PartialLoad) survives across loop
/// iterations), and once an expert is resident fans every input through
/// it too, returning a demuxable per-expert result set so the master's
/// argmin-entropy still sees the full team.
///
/// # Errors
///
/// Returns transport failures other than a clean shutdown/close.
pub fn serve_worker_with_config(
    transport: &dyn Transport,
    master: usize,
    peer: &mut impl PeerCompute,
    config: WorkerConfig,
) -> Result<WorkerStats, NetError> {
    /// How long an idle worker parks before re-arming its wait. Nothing
    /// is timed by it: input, shutdown and transport close each wake the
    /// wait directly.
    const IDLE: Duration = Duration::from_secs(60);
    let obs = &config.obs;
    let me = transport.node_id();
    let c_rounds = obs.metrics.counter("worker.rounds_served");
    let c_probes = obs.metrics.counter("worker.probes_answered");
    let c_malformed = obs.metrics.counter("worker.malformed_skipped");
    let c_loads = obs.metrics.counter("worker.loads_accepted");
    let c_refused = obs.metrics.counter("worker.loads_refused");
    let m_alloc = AllocMeters::register(&obs.metrics, &format!("expert.{me}"));
    // All protocol decisions live in the pure state machine (DESIGN.md
    // §15); this shell owns the transport, the model forwards/installs
    // behind [`fsm::WorkerHooks`], and mirrors the FSM's counters into
    // the live registry.
    let mut machine = fsm::WorkerFsm::new(master, config.budget);
    let mut hooks = ServeHooks {
        me,
        peer,
        hosted: BTreeMap::new(),
        obs,
        m_alloc: &m_alloc,
    };
    loop {
        // One blocking wait covers both tags, so a round never pays a
        // poll interval. Shutdown is listed first: whenever both are
        // queued it wins, so it cannot starve behind inputs.
        let bytes = match transport.recv_tags(master, &[TAG_SHUTDOWN, TAG_INPUT], IDLE) {
            Ok((TAG_SHUTDOWN, _)) => return Ok(machine.stats()),
            Ok((_, bytes)) => bytes,
            Err(NetError::Timeout { .. }) => continue,
            Err(NetError::Closed) => return Ok(machine.stats()),
            Err(e) => return Err(e),
        };
        // A traced frame re-parents this worker's handling onto the
        // master's sending span: the `worker.handle` enter event carries
        // the remote parent (`trace`/`rpeer`/`rparent`), which is what
        // `trace-assemble` uses to graft this node's spans into the
        // master's round (DESIGN.md §17). Replies to an untraced frame
        // leave unstamped, wire-identical to v1.
        let in_ctx = shell::received(obs, "input", master, &bytes);
        let _handle_span = in_ctx.map(|ctx| {
            obs.span(
                "worker.handle",
                &[
                    ("trace", ctx.trace_id),
                    ("rpeer", master as u64),
                    ("rparent", ctx.parent_span),
                ],
            )
        });
        let before = machine.stats();
        let replies = machine.step(&bytes, &mut hooks)?;
        let after = machine.stats();
        c_rounds.add(after.rounds_served - before.rounds_served);
        c_probes.add(after.probes_answered - before.probes_answered);
        c_malformed.add(after.malformed_skipped - before.malformed_skipped);
        c_loads.add(after.loads_accepted - before.loads_accepted);
        c_refused.add(after.loads_refused - before.loads_refused);
        for msg in replies {
            let frame = msg.encode(shell::stamp(obs, in_ctx.map(|ctx| ctx.trace_id)));
            match shell::send(transport, obs, "result", msg.to, msg.tag, &frame) {
                Ok(()) => {}
                Err(NetError::Closed) => return Ok(machine.stats()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Rows of the batch tensor a request opens with (its `rank | dims…`
/// header): labels the `worker.forward` span without decoding the batch.
fn request_rows(request: &[u8]) -> u64 {
    let Some(&[r0, r1, r2, r3, d0, d1, d2, d3]) = request.first_chunk() else {
        return 0;
    };
    match u32::from_le_bytes([r0, r1, r2, r3]) {
        0 => 0,
        _rank => u64::from(u32::from_le_bytes([d0, d1, d2, d3])),
    }
}

/// The IO side of the worker serve loop, injected into
/// [`fsm::WorkerFsm::step`]: runs the real forward passes and
/// materializes hosted experts, while every protocol decision stays in
/// the state machine.
struct ServeHooks<'a, P> {
    me: usize,
    peer: &'a mut P,
    /// Migrated experts resident on this node, keyed by expert id (the
    /// FSM tracks their budget charges).
    hosted: BTreeMap<u32, Sequential>,
    obs: &'a Obs,
    m_alloc: &'a AllocMeters,
}

impl<P: PeerCompute> fsm::WorkerHooks for ServeHooks<'_, P> {
    fn forward(&mut self, input_payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let rows = request_rows(input_payload);
        let _forward_span = self.obs.span("worker.forward", &[("rows", rows)]);
        // Honesty check against the static certificate: count what this
        // forward actually allocates (DESIGN.md §13).
        let mem = MemScope::begin();
        let mut payload = self.peer.respond(input_payload)?;
        if !self.hosted.is_empty() {
            // TeamNet only (no other master migrates experts): fan the
            // batch through every hosted expert; the master demuxes by id.
            let images = decode_tensor(input_payload)?;
            let mut set = vec![(self.me as u32, decode_results(&payload)?)];
            for (&id, model) in self.hosted.iter_mut() {
                set.push((id, local_results(model, &images)));
            }
            payload = encode_result_set(&set);
        }
        let mem_stats = mem.stats();
        self.m_alloc
            .record(mem_stats.allocated_bytes, mem_stats.peak_bytes);
        Ok(payload)
    }

    fn install(
        &mut self,
        expert: u32,
        manifest: &TransferManifest,
        state: &[u8],
    ) -> Result<(), NetError> {
        let (model, _resident) = crate::recover::build_from_state(manifest, state)?;
        self.hosted.insert(expert, model);
        Ok(())
    }

    fn evict(&mut self, expert: u32) {
        self.hosted.remove(&expert);
    }
}

/// One round in flight: its identity, and what its phases have measured
/// so far (the tallies its [`InferenceReport`] carries and the raw times
/// its latency attribution is computed from).
#[derive(Debug, Default)]
struct Round {
    /// Process-unique stamp every frame of the round carries.
    stamp: u64,
    /// Session-local index: unlike the stamp it is identical across
    /// identical runs, so it is what trace spans carry.
    index: u64,
    /// The round's trace id when the session is traced: deterministic in
    /// (seed, session round), so identical seeded runs stamp identical
    /// ids (DESIGN.md §17).
    trace: Option<u64>,
    me: usize,
    rows: usize,
    started_ns: u64,
    broadcast_ns: u64,
    compute_ns: u64,
    retry_ns: u64,
    stale: u64,
    corrupt: u64,
    malformed: u64,
}

/// The session's attribution bookkeeper: the protocol counters a round
/// ticks in the registry (the two `round.cross_session_*` ones through
/// the wait that routes frames) and the round's local latency split
/// (DESIGN.md §17) — the same compute / wire / wait / retry attribution
/// `trace-assemble` derives from the cross-node DAG, measured on one node
/// so it is available even without per-node sinks.
#[derive(Debug)]
struct Attribution {
    c_send_retries: Counter,
    c_stale: Counter,
    c_corrupt: Counter,
    c_malformed: Counter,
    wait: ResultWait,
    /// `round.attr.{compute,wire,wait,retry}.ns`, in that order.
    h_attr: [Arc<Histogram>; 4],
}

impl Attribution {
    fn register(obs: &Obs, clock: &Arc<dyn Clock>) -> Self {
        let attr = |part: &str| obs.metrics.histogram(&format!("round.attr.{part}.ns"));
        Attribution {
            c_send_retries: obs.metrics.counter("round.send.retries"),
            c_stale: obs.metrics.counter("round.stale_discarded"),
            c_corrupt: obs.metrics.counter("round.corrupt_discarded"),
            c_malformed: obs.metrics.counter("round.malformed_discarded"),
            wait: ResultWait::new(obs, clock),
            h_attr: ["compute", "wire", "wait", "retry"].map(attr),
        }
    }

    /// Counts one discarded gather frame, for the round and the registry.
    fn discard(&self, round: &mut Round, why: fsm::GatherDiscard) {
        let (tally, counter) = match why {
            fsm::GatherDiscard::Stale { .. } => (&mut round.stale, &self.c_stale),
            fsm::GatherDiscard::Corrupt => (&mut round.corrupt, &self.c_corrupt),
            fsm::GatherDiscard::Malformed => (&mut round.malformed, &self.c_malformed),
        };
        *tally += 1;
        counter.inc();
    }

    /// Closes the round at `now_ns`: wire = broadcast minus backoff
    /// sleeps, compute = the local forward, wait = everything else
    /// (dominated by the gather leg). Only traced sessions feed the
    /// histograms: a disabled tracer falls back to wall time, which would
    /// poison deterministic metric pins.
    fn close(&self, round: &Round, now_ns: u64) {
        if round.trace.is_none() {
            return;
        }
        let wall_ns = now_ns.saturating_sub(round.started_ns);
        let wire_ns = round.broadcast_ns.saturating_sub(round.retry_ns);
        let busy_ns = round.broadcast_ns.saturating_add(round.compute_ns);
        let wait_ns = wall_ns.saturating_sub(busy_ns);
        let split = [round.compute_ns, wire_ns, wait_ns, round.retry_ns];
        for (histogram, ns) in self.h_attr.iter().zip(split) {
            histogram.observe(ns);
        }
    }
}

/// One peer's part in one round: how the detector planned to engage it,
/// whether the broadcast reached the wire, whether a reply was accepted.
#[derive(Debug, Clone, Copy)]
struct PeerRound {
    peer: usize,
    plan: ContactPlan,
    sent: bool,
    answered: bool,
}

/// A multi-round master-side inference session — the only way to run a
/// round: owns the round counter and the [`FailureDetector`], so peer
/// health carries across rounds and a dead worker stops costing a full
/// timeout on every single round.
#[derive(Debug)]
pub struct InferenceSession {
    config: MasterConfig,
    detector: FailureDetector,
    /// Rounds run so far (the next round's session-local index).
    rounds: u64,
    books: Attribution,
    m_alloc: AllocMeters,
    recovery: Option<RecoveryManager>,
}

impl InferenceSession {
    /// Creates a session for the cluster behind `transport`.
    pub fn new(transport: &dyn Transport, config: MasterConfig) -> Self {
        let mut detector = FailureDetector::with_clock(
            transport.num_nodes(),
            config.failure.clone(),
            Arc::clone(&config.clock),
        );
        detector.set_transition_counter(config.obs.metrics.counter("detector.transitions"));
        let books = Attribution::register(&config.obs, &config.clock);
        let m_alloc = AllocMeters::register(
            &config.obs.metrics,
            &format!("expert.{}", transport.node_id()),
        );
        InferenceSession {
            config,
            detector,
            rounds: 0,
            books,
            m_alloc,
            recovery: None,
        }
    }

    /// Read access to peer health between rounds.
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Arms failure-backtracking expert re-placement (DESIGN.md §14): the
    /// manager's registered experts are migrated to surviving hosts with
    /// certified spare memory whenever the failure detector quarantines
    /// their current host, and handed back on readmission. The recovery
    /// pass runs at the end of every [`InferenceSession::infer`] round.
    pub fn set_recovery(&mut self, manager: RecoveryManager) {
        self.recovery = Some(manager);
    }

    /// Read access to the recovery manager, if armed.
    pub fn recovery(&self) -> Option<&RecoveryManager> {
        self.recovery.as_ref()
    }

    /// One collaborative inference round: [`InferenceSession::round`] with
    /// TeamNet's exchange — the batch to every live peer, the local
    /// `expert` meanwhile, the least-uncertain answer kept per row.
    ///
    /// # Errors
    ///
    /// As [`InferenceSession::round`].
    pub fn infer(
        &mut self,
        transport: &dyn Transport,
        expert: &mut Sequential,
        images: &Tensor,
    ) -> Result<InferenceReport, NetError> {
        let exchange = TeamExchange {
            me: transport.node_id(),
            expert,
            images,
            fold: fsm::TeamFold::new(self.config.calibration.clone()),
        };
        self.round(transport, exchange)
    }

    /// One fault-tolerant round of any strategy: sends every live peer
    /// what `exchange` has for it, probes quarantined peers whose probe is
    /// due, runs the exchange's local share while the peers compute,
    /// gathers round-stamped replies under one deadline budget
    /// (discarding stale and corrupt traffic) into the exchange's fold,
    /// feeds the evidence to the failure detector, and hands the round's
    /// report to the exchange's `finish`.
    ///
    /// # Errors
    ///
    /// With `require_all_workers` set: [`NetError::Timeout`] when a
    /// contacted worker misses the deadline, [`NetError::Malformed`] /
    /// [`NetError::Corrupt`] when a reply is undecodable, and send
    /// failures. In degraded mode those all demote the peer instead, and
    /// the round fails only if [`Exchange::finish`] does.
    pub fn round<E: Exchange>(
        &mut self,
        transport: &dyn Transport,
        exchange: E,
    ) -> Result<E::Output, NetError> {
        let result = self.run_round(transport, exchange);
        if result.is_err() {
            // Round failed: dump the flight-recorder ring (if armed) with
            // the failure as its final event, so the last N trace events
            // before the anomaly survive even when no full sink is wired.
            let round_idx = self.rounds.saturating_sub(1);
            let _ = self
                .config
                .obs
                .flight_dump("flight.round_failed", &[("round_idx", round_idx)]);
        }
        result
    }

    /// Opens a round and sequences its four phases.
    fn run_round<E: Exchange>(
        &mut self,
        transport: &dyn Transport,
        mut exchange: E,
    ) -> Result<E::Output, NetError> {
        let obs = self.config.obs.clone();
        // Registered with the cross-wait router before any send, and
        // unregistered when the gather ends (on any path).
        let registration = RoundRegistration::open();
        let trace_id = derive_trace_id(self.config.trace_seed, self.rounds);
        // Attribution reads the *tracer's* clock, never `config.clock`:
        // the two may differ (deterministic soaks pin the tracer to a
        // ManualClock), and a wall-clock read here would make the traced
        // metrics diverge between identical seeded runs.
        let mut round = Round {
            stamp: registration.round,
            index: self.rounds,
            trace: obs.enabled().then_some(trace_id),
            me: transport.node_id(),
            rows: exchange.rows(),
            started_ns: obs.tracer.now_ns(),
            ..Round::default()
        };
        self.rounds += 1;
        // The `trace` field on the round span is what the assembler's
        // critical-path sweep keys cross-node membership on.
        let _round_span = obs.span(
            "round",
            &[
                ("round_idx", round.index),
                ("rows", round.rows as u64),
                ("trace", trace_id),
            ],
        );
        let mut peers = self.broadcast(transport, &mut round, &exchange)?;
        self.forward(&mut round, &mut exchange);
        self.gather(transport, &mut round, &mut exchange, &mut peers)?;
        drop(registration);
        exchange.finish(self.settle(transport, &round, &peers))
    }

    /// Sends `frame` to `peer` with bounded retries + backoff inside
    /// `deadline`. Returns whether the send ever succeeded; the time spent
    /// in backoff sleeps goes to the round's books, so it is attributed
    /// to `retry` rather than `wire`.
    fn send_retrying(
        &self,
        transport: &dyn Transport,
        round: &mut Round,
        peer: usize,
        label: &str,
        frame: &[u8],
        deadline: Instant,
    ) -> Result<bool, NetError> {
        let obs = &self.config.obs;
        let seed = round.stamp ^ ((peer as u64) << 48);
        let mut backoff = Backoff::with_clock(
            self.config.send_retry.clone(),
            seed,
            deadline,
            Arc::clone(&self.config.clock),
        );
        loop {
            let err = match shell::send(transport, obs, label, peer, TAG_INPUT, frame) {
                Ok(()) => return Ok(true),
                Err(e) => e,
            };
            let retry_in = match err {
                NetError::UnknownPeer(_) | NetError::Closed => None,
                _ => backoff.next_delay(),
            };
            let Some(delay) = retry_in else {
                return if self.config.require_all_workers {
                    Err(err)
                } else {
                    Ok(false)
                };
            };
            self.books.c_send_retries.inc();
            // The backoff sleep gets its own span so the assembled
            // critical path can blame retries, not the wire, for the
            // stall.
            let _retry_span = obs.span("retry.backoff", &[("peer", peer as u64)]);
            let before = obs.tracer.now_ns();
            self.config.clock.sleep(delay);
            let slept = obs.tracer.now_ns().saturating_sub(before);
            round.retry_ns = round.retry_ns.saturating_add(slept);
        }
    }

    /// Phase 1: plans every peer and puts the round on the wire.
    /// Quarantined peers are skipped outright; probe-due peers get a
    /// 16-byte probe instead of their request.
    fn broadcast<E: Exchange>(
        &mut self,
        transport: &dyn Transport,
        round: &mut Round,
        exchange: &E,
    ) -> Result<Vec<PeerRound>, NetError> {
        let obs = &self.config.obs;
        let deadline = self.config.clock.now() + self.config.worker_timeout;
        // One frame per kind, shared by every peer: a shared request goes
        // from `f32`s to a sendable frame in one pass (no intermediate
        // payload), is checksummed once, and an untraced round sends those
        // very bytes to each peer — byte-identical to wire v1 and to the
        // certified cost model. A traced round stamps each peer's copy
        // with a context parented on that peer's `round.send` span.
        let mut shared = false;
        let input_frame = Envelope::encode_with(round.stamp, PayloadKind::Input, None, |buf| {
            shared = exchange.request(None, buf);
        });
        let probe_frame = Envelope::new(round.stamp, PayloadKind::Probe, Vec::new()).encode();
        let stamp_len = round.trace.map_or(0, |_| TRACE_EXT_LEN);
        let me = round.me;
        let t_broadcast = obs.tracer.now_ns();
        let mut peers = Vec::new();
        {
            let _broadcast_span = obs.span("round.broadcast", &[]);
            for peer in (0..transport.num_nodes()).filter(|&p| p != me) {
                let mut plan = self.detector.plan(peer);
                let mut sent = false;
                // Without a shared request, this peer's own — or none, and
                // it sits the round out like a skipped one.
                let mut own = Vec::new();
                if plan == ContactPlan::Full && !shared {
                    own = Envelope::encode_with(round.stamp, PayloadKind::Input, None, |buf| {
                        if !exchange.request(Some(peer), buf) {
                            plan = ContactPlan::Skip;
                        }
                    });
                }
                let input = if shared { &input_frame } else { &own };
                let frame = match plan {
                    ContactPlan::Full => Some((input, PayloadKind::Input, "input")),
                    ContactPlan::Probe => Some((&probe_frame, PayloadKind::Probe, "probe")),
                    ContactPlan::Skip => None,
                };
                if let Some((unstamped, kind, label)) = frame {
                    let wire_len = (unstamped.len() + stamp_len) as u64;
                    let _send_span =
                        obs.span("round.send", &[("peer", peer as u64), ("bytes", wire_len)]);
                    let ctx = shell::stamp(obs, round.trace);
                    let frame = shell::stamped(unstamped, round.stamp, kind, ctx);
                    sent = self.send_retrying(transport, round, peer, label, &frame, deadline)?;
                }
                peers.push(PeerRound {
                    peer,
                    plan,
                    sent,
                    answered: false,
                });
            }
        }
        round.broadcast_ns = obs.tracer.now_ns().saturating_sub(t_broadcast);
        Ok(peers)
    }

    /// Phase 2: the master's own share runs while the workers compute.
    fn forward<E: Exchange>(&self, round: &mut Round, exchange: &mut E) {
        let obs = &self.config.obs;
        let t_forward = obs.tracer.now_ns();
        {
            let _forward_span = obs.span("expert.forward", &[("rows", round.rows as u64)]);
            // Honesty check against the static certificate: count what the
            // local forward actually allocates (DESIGN.md §13).
            let mem = MemScope::begin();
            exchange.local();
            let stats = mem.stats();
            self.m_alloc.record(stats.allocated_bytes, stats.peak_bytes);
        }
        round.compute_ns = obs.tracer.now_ns().saturating_sub(t_forward);
    }

    /// Phase 3: collects the replies of every peer the broadcast reached,
    /// under one deadline budget shared by every wait — including the
    /// re-waits after discarding stale, corrupt or malformed traffic.
    /// Frame classification lives in the pure gather state machine
    /// (DESIGN.md §15) and the reduction in the exchange's fold; this
    /// shell owns the waits, the deadline and the counters.
    fn gather<E: Exchange>(
        &self,
        transport: &dyn Transport,
        round: &mut Round,
        exchange: &mut E,
        peers: &mut [PeerRound],
    ) -> Result<(), NetError> {
        let obs = &self.config.obs;
        let classify = fsm::GatherFsm::new(round.stamp, self.config.require_all_workers);
        let deadline = self.config.clock.now() + self.config.worker_timeout;
        let wait = &self.books.wait;
        let _gather_span = obs.span("round.gather", &[]);
        // A peer whose send never went out is not waited for: it counts
        // as a miss when the round settles.
        for record in peers.iter_mut().filter(|p| p.sent) {
            let peer = record.peer;
            let _await_span = obs.span("gather.await", &[("peer", peer as u64)]);
            while let Some(bytes) = wait.recv(transport, round.stamp, peer, deadline)? {
                match classify.step(&bytes, |reply| exchange.fold(peer, reply)) {
                    fsm::GatherVerdict::Fatal(e) => return Err(e),
                    fsm::GatherVerdict::Discarded(why) => self.books.discard(round, why),
                    fsm::GatherVerdict::Accepted { folded } => {
                        if folded {
                            // The fold ran inside the state machine's
                            // step; emit the span here so traces keep the
                            // per-peer fold event.
                            let _argmin_span = obs.span("entropy.argmin", &[("peer", peer as u64)]);
                        }
                        record.answered = true;
                        break;
                    }
                }
            }
            if !record.answered && self.config.require_all_workers {
                return Err(NetError::Timeout {
                    waiting_for: format!("results from worker {peer} (round {})", round.stamp),
                });
            }
        }
        Ok(())
    }

    /// Phase 4: folds the round's evidence into the detector, runs the
    /// recovery pass, and writes the report and the round's attribution.
    fn settle(
        &mut self,
        transport: &dyn Transport,
        round: &Round,
        peers: &[PeerRound],
    ) -> InferenceReport {
        let obs = &self.config.obs;
        for record in peers.iter().filter(|p| p.plan != ContactPlan::Skip) {
            let peer = record.peer;
            if record.answered {
                self.detector.record_success(peer);
                continue;
            }
            let before = self.detector.health(peer);
            self.detector.record_miss(peer);
            if before != PeerHealth::Quarantined
                && self.detector.health(peer) == PeerHealth::Quarantined
            {
                // A peer just crossed into quarantine: dump the
                // flight-recorder ring (if armed) with this transition as
                // its final event.
                let _ = obs.flight_dump(
                    "flight.quarantine",
                    &[("peer", peer as u64), ("round_idx", round.index)],
                );
            }
        }

        // Every node's health; the detector never hears about the master
        // itself, so its own entry stays `Live`.
        let health: Vec<PeerHealth> = (0..transport.num_nodes())
            .map(|p| self.detector.health(p))
            .collect();
        // Recovery pass (DESIGN.md §14): with the round's quarantine
        // decisions made, hand experts back to readmitted homes and
        // re-place orphans of quarantined hosts, so the *next* round's
        // gather already sees full team coverage. Transfers inherit the
        // round's trace id, so their frames (and the worker spans
        // handling them) stay causal children of this round in the
        // assembled DAG.
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.tick(transport, round.me, &health, round.trace);
        }
        let recovery = self.recovery.as_ref();
        let expert_hosts = recovery
            .map(RecoveryManager::expert_hosts)
            .unwrap_or_default();
        let migrations = recovery.map_or(0, RecoveryManager::migrations);

        // The master's own line of the report reads as a peer that was
        // contacted and answered.
        let own = PeerRound {
            peer: round.me,
            plan: ContactPlan::Full,
            sent: true,
            answered: true,
        };
        let mut report_peers = BTreeMap::new();
        for record in peers.iter().chain([&own]) {
            let peer = record.peer;
            report_peers.insert(
                peer,
                PeerReport {
                    health: health.get(peer).copied().unwrap_or(PeerHealth::Quarantined),
                    contacted: record.plan != ContactPlan::Skip,
                    probed: record.plan == ContactPlan::Probe,
                    responded: record.answered,
                    consecutive_misses: self.detector.misses(peer),
                    hosted_experts: expert_hosts
                        .iter()
                        .filter(|&(&e, &h)| h == peer && e != peer)
                        .map(|(&e, _)| e)
                        .collect(),
                },
            );
        }
        self.books.close(round, obs.tracer.now_ns());

        InferenceReport {
            round: round.stamp,
            predictions: Vec::new(),
            peers: report_peers,
            stale_discarded: round.stale,
            corrupt_discarded: round.corrupt,
            malformed_discarded: round.malformed,
            expert_hosts,
            migrations,
        }
    }
}

/// Asks every worker served by [`serve_worker_with_config`] to exit.
///
/// # Errors
///
/// Propagates transport send failures.
pub fn shutdown_workers(transport: &dyn Transport) -> Result<(), NetError> {
    let me = transport.node_id();
    for peer in 0..transport.num_nodes() {
        if peer != me {
            transport.send(peer, TAG_SHUTDOWN, &[])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::build_expert;
    use crate::recover::{AckStatus, LoadAckMsg, LoadChunkMsg, LoadExpertMsg};
    use crate::team::TeamPrediction;
    use crossbeam::thread;
    use teamnet_net::ChannelTransport;
    use teamnet_nn::ModelSpec;

    fn expert(seed: u64) -> Sequential {
        build_expert(&ModelSpec::mlp(2, 16), seed)
    }

    /// Serves `node` with the default worker policy until shutdown.
    fn serve(node: &dyn Transport, expert: &mut Sequential) -> WorkerStats {
        serve_worker_with_config(node, 0, expert, WorkerConfig::default()).unwrap()
    }

    /// One round on a fresh session (every peer starts live).
    fn one_round(
        transport: &dyn Transport,
        expert: &mut Sequential,
        images: &Tensor,
        config: &MasterConfig,
    ) -> Result<Vec<TeamPrediction>, NetError> {
        InferenceSession::new(transport, config.clone())
            .infer(transport, expert, images)
            .map(|report| report.predictions)
    }

    #[test]
    fn results_codec_roundtrip() {
        let results = vec![(3usize, 0.5f32), (9, 1.25)];
        let decoded = decode_results(&encode_results(&results)).unwrap();
        assert_eq!(decoded, results);
        assert!(decode_results(&[1, 2, 3]).is_err());
    }

    #[test]
    fn distributed_matches_local_team() {
        // A 3-node cluster must produce exactly the same predictions as an
        // in-process TeamNet with the same experts.
        let nodes = ChannelTransport::mesh(3);
        let images = Tensor::rand_uniform(
            [4, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9),
        );

        let mut local_team = crate::team::TeamNet::from_experts(
            ModelSpec::mlp(2, 16),
            vec![expert(0), expert(1), expert(2)],
        );
        let expected = local_team.predict(&images);

        let got = thread::scope(|scope| {
            for (i, node) in nodes.iter().enumerate().skip(1) {
                let mut worker_expert = expert(i as u64);
                scope.spawn(move |_| serve(node, &mut worker_expert));
            }
            let mut master_expert = expert(0);
            let preds = one_round(
                &nodes[0],
                &mut master_expert,
                &images,
                &MasterConfig::default(),
            )
            .unwrap();
            shutdown_workers(&nodes[0]).unwrap();
            preds
        })
        .unwrap();

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.label, e.label);
            assert_eq!(g.expert, e.expert);
            assert!((g.entropy - e.entropy).abs() < 1e-5);
        }
    }

    #[test]
    fn calibrated_distributed_matches_calibrated_local() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::rand_uniform(
            [3, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11),
        );
        let weights = vec![3.0f32, 0.4];
        let mut local_team =
            crate::team::TeamNet::from_experts(ModelSpec::mlp(2, 16), vec![expert(0), expert(1)]);
        local_team.set_calibration(weights.clone());
        let expected = local_team.predict(&images);

        let got = thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve(&nodes[1], &mut worker_expert);
            });
            let mut master_expert = expert(0);
            let config = MasterConfig {
                calibration: Some(weights),
                ..MasterConfig::default()
            };
            let preds = one_round(&nodes[0], &mut master_expert, &images, &config).unwrap();
            shutdown_workers(&nodes[0]).unwrap();
            preds
        })
        .unwrap();

        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.expert, e.expert);
            assert_eq!(g.label, e.label);
        }
    }

    #[test]
    fn missing_worker_times_out_when_required() {
        let nodes = ChannelTransport::mesh(2);
        let mut master_expert = expert(0);
        let images = Tensor::zeros([1, 1, 28, 28]);
        let config = MasterConfig {
            worker_timeout: Duration::from_millis(50),
            require_all_workers: true,
            ..MasterConfig::default()
        };
        let res = one_round(&nodes[0], &mut master_expert, &images, &config);
        assert!(matches!(res, Err(NetError::Timeout { .. })), "{res:?}");
    }

    #[test]
    fn missing_worker_degrades_gracefully_when_optional() {
        let nodes = ChannelTransport::mesh(2);
        let mut master_expert = expert(0);
        let images = Tensor::zeros([2, 1, 28, 28]);
        let config = MasterConfig {
            worker_timeout: Duration::from_millis(50),
            require_all_workers: false,
            ..MasterConfig::default()
        };
        let preds = one_round(&nodes[0], &mut master_expert, &images, &config).unwrap();
        assert_eq!(preds.len(), 2);
        // All predictions fall back to the master's own expert.
        assert!(preds.iter().all(|p| p.expert == 0));
    }

    /// A transport whose sends fail transiently for the first `failures`
    /// attempts — exercises the round's retry + backoff path.
    struct FlakySends {
        inner: ChannelTransport,
        failures: std::sync::atomic::AtomicU32,
    }

    impl Transport for FlakySends {
        fn node_id(&self) -> usize {
            self.inner.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn send(&self, to: usize, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
            use std::sync::atomic::Ordering;
            if self.failures.load(Ordering::SeqCst) > 0 {
                self.failures.fetch_sub(1, Ordering::SeqCst);
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "transient",
                )));
            }
            self.inner.send(to, tag, payload)
        }
        fn recv_tags(
            &self,
            from: usize,
            tags: &[Tag],
            timeout: Duration,
        ) -> Result<(Tag, Vec<u8>), NetError> {
            self.inner.recv_tags(from, tags, timeout)
        }
        fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(usize, Vec<u8>), NetError> {
            self.inner.recv_any(tag, timeout)
        }
        fn stats(&self) -> teamnet_net::TransportStats {
            self.inner.stats()
        }
    }

    #[test]
    fn sends_retry_through_transient_failures_and_stop_at_the_policy() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let images = Tensor::full([1, 1, 28, 28], 0.2);
        let retries = |config: &MasterConfig| config.obs.metrics.counter("round.send.retries");

        // The default policy allows 3 attempts: two transient failures
        // recover, and the worker answers the frame that got through.
        let mut nodes = ChannelTransport::mesh(2);
        let worker_node = nodes.pop().unwrap();
        let flaky = FlakySends {
            inner: nodes.pop().unwrap(),
            failures: AtomicU32::new(2),
        };
        let config = MasterConfig::default();
        thread::scope(|scope| {
            scope.spawn(|_| serve(&worker_node, &mut expert(1)));
            let report = InferenceSession::new(&flaky, config.clone())
                .infer(&flaky, &mut expert(0), &images)
                .unwrap();
            assert!(report.peers[&1].responded);
            worker_node.shutdown();
        })
        .unwrap();
        assert_eq!(retries(&config).get(), 2);

        // Two attempts allowed: the round fails with the send error after
        // consuming exactly two of the hundred failures.
        let mut nodes = ChannelTransport::mesh(2);
        let _worker_node = nodes.pop().unwrap();
        let flaky = FlakySends {
            inner: nodes.pop().unwrap(),
            failures: AtomicU32::new(100),
        };
        let config = MasterConfig {
            send_retry: RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
            ..MasterConfig::default()
        };
        let res = one_round(&flaky, &mut expert(0), &images, &config);
        assert!(matches!(res, Err(NetError::Io(_))), "{res:?}");
        assert_eq!(flaky.failures.load(Ordering::SeqCst), 98);
        assert_eq!(retries(&config).get(), 1);
    }

    #[test]
    fn works_over_real_tcp() {
        let nodes = teamnet_net::TcpTransport::mesh_localhost(2).unwrap();
        let images = Tensor::rand_uniform(
            [2, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3),
        );
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve(&nodes[1], &mut worker_expert);
            });
            let mut master_expert = expert(0);
            let preds = one_round(
                &nodes[0],
                &mut master_expert,
                &images,
                &MasterConfig::default(),
            )
            .unwrap();
            assert_eq!(preds.len(), 2);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn worker_survives_multiple_rounds() {
        let nodes = ChannelTransport::mesh(2);
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                let stats = serve(&nodes[1], &mut worker_expert);
                assert_eq!(stats.rounds_served, 5);
                assert_eq!(stats.malformed_skipped, 0);
            });
            let mut master_expert = expert(0);
            for round in 0..5 {
                let images = Tensor::full([1, 1, 28, 28], round as f32 * 0.1);
                let preds = one_round(
                    &nodes[0],
                    &mut master_expert,
                    &images,
                    &MasterConfig::default(),
                )
                .unwrap();
                assert_eq!(preds.len(), 1);
            }
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn worker_skips_malformed_batches_and_keeps_serving() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::full([1, 1, 28, 28], 0.5);
        thread::scope(|scope| {
            let worker = scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve(&nodes[1], &mut worker_expert)
            });
            // Garbage that fails envelope decoding entirely.
            nodes[0].send(1, TAG_INPUT, b"not an envelope").unwrap();
            // A well-formed envelope whose tensor payload is broken.
            let bad_tensor = Envelope::new(999, PayloadKind::Input, vec![7; 9]).encode();
            nodes[0].send(1, TAG_INPUT, &bad_tensor).unwrap();
            // A healthy round must still be answered after both.
            let mut master_expert = expert(0);
            let preds = one_round(
                &nodes[0],
                &mut master_expert,
                &images,
                &MasterConfig::default(),
            )
            .unwrap();
            assert_eq!(preds.len(), 1);
            shutdown_workers(&nodes[0]).unwrap();
            let stats = worker.join().unwrap();
            assert_eq!(stats.malformed_skipped, 2);
            assert_eq!(stats.rounds_served, 1);
        })
        .unwrap();
    }

    #[test]
    fn session_report_tracks_peer_health() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::full([1, 1, 28, 28], 0.3);
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve(&nodes[1], &mut worker_expert);
            });
            let config = MasterConfig {
                require_all_workers: false,
                ..MasterConfig::default()
            };
            let mut session = InferenceSession::new(&nodes[0], config);
            let mut master_expert = expert(0);
            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.predictions.len(), 1);
            assert_eq!(report.peers.len(), 2);
            assert_eq!(report.peers[&1].health, PeerHealth::Live);
            assert!(report.peers[&1].responded);
            assert_eq!(report.responsive_peers(), vec![0, 1]);
            assert_eq!(report.stale_discarded, 0);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn result_set_codec_roundtrip_and_legacy_fallback() {
        let set: Vec<(u32, Vec<(usize, f32)>)> = vec![
            (2, vec![(3, 0.5), (1, 0.25)]),
            (5, vec![(0, 1.5), (9, 0.125)]),
        ];
        let bytes = encode_result_set(&set);
        let decoded = decode_result_set(&bytes, 2).unwrap();
        assert_eq!(
            decoded,
            vec![
                (2usize, vec![(3usize, 0.5f32), (1, 0.25)]),
                (5, vec![(0, 1.5), (9, 0.125)]),
            ]
        );
        // A legacy single-matrix payload attributes to the sender.
        let legacy = encode_results(&[(7, 2.0)]);
        assert_eq!(
            decode_result_set(&legacy, 4).unwrap(),
            vec![(4, vec![(7, 2.0)])]
        );
        // Truncation and trailing garbage are rejected.
        assert!(decode_result_set(&bytes[..bytes.len() - 2], 0).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_result_set(&long, 0).is_err());
    }

    fn recovery_manager(chunk_bytes: usize) -> RecoveryManager {
        let mut mgr = RecoveryManager::new(crate::recover::RecoveryConfig {
            chunk_bytes,
            ack_timeout: Duration::from_secs(2),
            transfer_timeout: Duration::from_secs(10),
            ..crate::recover::RecoveryConfig::default()
        });
        let mut e1 = expert(1);
        let state = teamnet_nn::state_vec(&mut e1);
        mgr.register_expert(1, 1, ModelSpec::mlp(2, 16), &state, 50_000);
        mgr
    }

    fn recovery_master_config() -> MasterConfig {
        MasterConfig {
            worker_timeout: Duration::from_millis(300),
            require_all_workers: false,
            failure: FailureDetectorConfig {
                suspect_after: 1,
                quarantine_after: 1,
                probe_interval: 1,
            },
            ..MasterConfig::default()
        }
    }

    #[test]
    fn quarantined_expert_is_replaced_then_handed_back() {
        let nodes = ChannelTransport::mesh(3);
        let images = Tensor::rand_uniform(
            [2, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(21),
        );
        let mut local_team = crate::team::TeamNet::from_experts(
            ModelSpec::mlp(2, 16),
            vec![expert(0), expert(1), expert(2)],
        );
        let expected = local_team.predict(&images);

        thread::scope(|scope| {
            let worker1 = scope.spawn(|_| {
                let mut e = expert(1);
                serve(&nodes[1], &mut e)
            });
            let worker2 = scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(
                    &nodes[2],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 1 << 20),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(4 * 1024);
            mgr.register_budget(1, HostBudget::new(1 << 30, 1 << 20));
            mgr.register_budget(2, HostBudget::new(1 << 30, 1 << 20));
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            // Round 1: everyone healthy, no migrations.
            let r1 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r1.migrations, 0);
            assert_eq!(r1.expert_hosts, [(1, 1)].into_iter().collect());

            // Worker 1 dies; the next round quarantines it and the
            // recovery pass migrates its expert onto worker 2.
            nodes[0].send(1, TAG_SHUTDOWN, &[]).unwrap();
            worker1.join().unwrap();
            let r2 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r2.peers[&1].health, PeerHealth::Quarantined);
            assert_eq!(r2.migrations, 1);
            assert_eq!(r2.expert_hosts, [(1, 2)].into_iter().collect());
            assert_eq!(r2.peers[&2].hosted_experts, vec![1]);

            // Round 3: full team coverage is restored — the distributed
            // answer matches the 3-expert local team exactly even though
            // node 1 is still being probed, because node 2 now answers
            // for both experts. Node 1 is respawned and acks the probe,
            // so the same round's recovery pass hands the expert back.
            let respawned = scope.spawn(|_| {
                let mut e = expert(1);
                serve(&nodes[1], &mut e)
            });
            let r3 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r3.predictions.len(), expected.len());
            for (g, e) in r3.predictions.iter().zip(&expected) {
                assert_eq!(g.label, e.label);
                assert_eq!(g.expert, e.expert);
                assert!((g.entropy - e.entropy).abs() < 1e-5);
            }
            assert_eq!(r3.peers[&1].health, PeerHealth::Live);
            assert_eq!(r3.expert_hosts, [(1, 1)].into_iter().collect());
            assert_eq!(session.recovery().unwrap().handbacks(), 1);
            assert_eq!(session.recovery().unwrap().migrations(), 1);

            // Round 4: steady state — the home node answers for its own
            // expert again and the team is byte-for-byte itself.
            let r4 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            for (g, e) in r4.predictions.iter().zip(&expected) {
                assert_eq!(g.label, e.label);
                assert_eq!(g.expert, e.expert);
            }
            assert_eq!(r4.migrations, 1);

            shutdown_workers(&nodes[0]).unwrap();
            let stats2 = worker2.join().unwrap();
            assert_eq!(stats2.loads_accepted, 1);
            assert!(stats2.chunks_received >= 12, "{stats2:?}");
            assert_eq!(stats2.loads_refused, 0);
            respawned.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn refused_offer_backtracks_to_admissible_candidate() {
        // Node 2 has no master-side budget (ranks first as "unknown")
        // but its own HostBudget refuses the expert; node 3 is certified
        // and admits. The master must backtrack 2 → 3 without OOMing
        // anyone.
        let nodes = ChannelTransport::mesh(4);
        let images = Tensor::full([1, 1, 28, 28], 0.4);
        thread::scope(|scope| {
            let tight = scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(
                    &nodes[2],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(60_000, 59_000), // spare 1 000 < 50 000
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });
            let roomy = scope.spawn(|_| {
                let mut e = expert(3);
                serve_worker_with_config(
                    &nodes[3],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 0),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(8 * 1024);
            mgr.register_budget(3, HostBudget::new(1 << 30, 0));
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            // Worker 1 never existed: one round quarantines it and runs
            // the refuse → backtrack → admit sequence.
            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.peers[&1].health, PeerHealth::Quarantined);
            assert_eq!(report.migrations, 1);
            assert_eq!(report.expert_hosts, [(1, 3)].into_iter().collect());
            let recovery = session.recovery().unwrap();
            assert_eq!(recovery.backtracks(), 1);
            assert_eq!(recovery.migrations(), 1);

            shutdown_workers(&nodes[0]).unwrap();
            let tight_stats = tight.join().unwrap();
            assert_eq!(tight_stats.loads_refused, 1);
            assert_eq!(tight_stats.loads_accepted, 0);
            let roomy_stats = roomy.join().unwrap();
            assert_eq!(roomy_stats.loads_accepted, 1);
        })
        .unwrap();
    }

    #[test]
    fn mid_transfer_failure_rolls_back_and_backtracks() {
        // Node 2 (ranked first by certified spare) accepts the offer but
        // reports failure on the first chunk; the master must abandon it
        // and complete the migration on node 3.
        let nodes = ChannelTransport::mesh(4);
        let images = Tensor::full([1, 1, 28, 28], 0.6);
        thread::scope(|scope| {
            let saboteur = scope.spawn(|_| {
                // Hand-rolled protocol peer: serves round 1 honestly
                // (with hopeless entropy so it never wins a row), accepts
                // the transfer offer, then fails it on the first chunk.
                let node = &nodes[2];
                loop {
                    let bytes = node.recv(0, TAG_INPUT, Duration::from_secs(5)).unwrap();
                    let env = Envelope::decode(&bytes).unwrap();
                    match env.kind {
                        PayloadKind::Input => {
                            let reply = Envelope::new(
                                env.round,
                                PayloadKind::Result,
                                encode_results(&[(0, 1.0e9)]),
                            );
                            node.send(0, TAG_RESULT, &reply.encode()).unwrap();
                        }
                        PayloadKind::LoadExpert => {
                            let msg = LoadExpertMsg::decode(&env.payload).unwrap();
                            let LoadExpertMsg::Offer { expert: id, .. } = msg else {
                                panic!("expected an offer, got {msg:?}");
                            };
                            let accept = LoadAckMsg {
                                expert: id,
                                status: AckStatus::Accept,
                                arg: 0,
                            };
                            let env_out =
                                Envelope::new(env.round, PayloadKind::LoadAck, accept.encode());
                            node.send(0, TAG_RESULT, &env_out.encode()).unwrap();
                        }
                        PayloadKind::LoadChunk => {
                            let msg = LoadChunkMsg::decode(&env.payload).unwrap();
                            let failed = LoadAckMsg {
                                expert: msg.expert,
                                status: AckStatus::Failed,
                                arg: 0,
                            };
                            let env_out =
                                Envelope::new(env.round, PayloadKind::LoadAck, failed.encode());
                            node.send(0, TAG_RESULT, &env_out.encode()).unwrap();
                            return;
                        }
                        other => panic!("unexpected kind {other:?}"),
                    }
                }
            });
            let survivor = scope.spawn(|_| {
                let mut e = expert(3);
                serve_worker_with_config(
                    &nodes[3],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 0),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(8 * 1024);
            mgr.register_budget(2, HostBudget::new(1 << 30, 0)); // spare ≈ 1 GiB
            mgr.register_budget(3, HostBudget::new(1 << 29, 0)); // spare ≈ 512 MiB
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.migrations, 1);
            assert_eq!(report.expert_hosts, [(1, 3)].into_iter().collect());
            let recovery = session.recovery().unwrap();
            assert_eq!(recovery.backtracks(), 1);

            saboteur.join().unwrap();
            shutdown_workers(&nodes[0]).unwrap();
            let survivor_stats = survivor.join().unwrap();
            assert_eq!(survivor_stats.loads_accepted, 1);
        })
        .unwrap();
    }

    #[test]
    fn probe_ack_is_cheap_and_counted() {
        let nodes = ChannelTransport::mesh(2);
        thread::scope(|scope| {
            let worker = scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve(&nodes[1], &mut worker_expert)
            });
            let probe = Envelope::new(123, PayloadKind::Probe, Vec::new());
            nodes[0].send(1, TAG_INPUT, &probe.encode()).unwrap();
            let ack_bytes = nodes[0]
                .recv(1, TAG_RESULT, Duration::from_secs(2))
                .unwrap();
            let ack = Envelope::decode(&ack_bytes).unwrap();
            assert_eq!(ack.kind, PayloadKind::ProbeAck);
            assert_eq!(ack.round, 123);
            shutdown_workers(&nodes[0]).unwrap();
            let stats = worker.join().unwrap();
            assert_eq!(stats.probes_answered, 1);
        })
        .unwrap();
    }

    #[test]
    fn shutdown_preempts_already_queued_inputs() {
        // Inputs are queued first and the shutdown last, all before the
        // serve loop takes its first message: shutdown must still win.
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::full([1, 1, 28, 28], 0.5);
        for round in 0..3 {
            let input = Envelope::new(
                round,
                PayloadKind::Input,
                encode_f32s(images.dims(), images.data()),
            );
            nodes[0].send(1, TAG_INPUT, &input.encode()).unwrap();
        }
        shutdown_workers(&nodes[0]).unwrap();
        let mut worker_expert = expert(1);
        let stats = serve(&nodes[1], &mut worker_expert);
        assert_eq!(
            stats,
            WorkerStats::default(),
            "an input ran before shutdown"
        );
    }

    #[test]
    fn shutdown_wakes_a_blocked_worker_without_a_poll_interval() {
        // The worker parks in one wait on {shutdown, input}; a shutdown
        // wakes it directly rather than at the end of a poll interval.
        // Median of several workers, so one descheduled thread on a busy
        // host does not decide the test.
        let mut waits: Vec<Duration> = (0..9)
            .map(|_| {
                let nodes = ChannelTransport::mesh(2);
                thread::scope(|scope| {
                    let worker = scope.spawn(|_| {
                        let mut worker_expert = expert(1);
                        serve(&nodes[1], &mut worker_expert)
                    });
                    // A served probe proves the loop is up; it goes back
                    // to its wait right after replying.
                    let probe = Envelope::new(1, PayloadKind::Probe, Vec::new());
                    nodes[0].send(1, TAG_INPUT, &probe.encode()).unwrap();
                    nodes[0]
                        .recv(1, TAG_RESULT, Duration::from_secs(5))
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    let begin = Instant::now();
                    shutdown_workers(&nodes[0]).unwrap();
                    let stats = worker.join().unwrap();
                    assert_eq!(stats.probes_answered, 1);
                    begin.elapsed()
                })
                .unwrap()
            })
            .collect();
        waits.sort();
        assert!(
            waits[waits.len() / 2] < Duration::from_millis(5),
            "blocked workers took {waits:?} to see a shutdown"
        );
    }
}
