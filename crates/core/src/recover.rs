//! Failure-backtracking expert re-placement (DESIGN.md §14).
//!
//! TeamNet's competitive experts make every worker load-bearing: when the
//! failure detector quarantines a node, its expert's subspace vanishes
//! from the candidate set and accuracy degrades for the rest of the
//! session. This module restores full team coverage instead: the master
//! keeps each expert's trained parameters (pre-serialized as a tensor
//! count plus one `encode_f32s` tensor each) together with its certified
//! `required_resident_bytes` from the PR-6 resource certificate, and when
//! a host is quarantined it
//!
//! 1. **ranks** surviving workers by certified spare memory (largest
//!    spare first, node id as the deterministic tie-break), dropping any
//!    candidate whose certificate cannot admit the expert;
//! 2. **offers** the expert to the best candidate in one
//!    [`PayloadKind::LoadExpert`] frame that carries the weights — the
//!    worker re-checks the admission against its *own* [`HostBudget`],
//!    builds the expert, and answers one [`PayloadKind::LoadAck`]:
//!    `Done`, `Refuse` or `Failed`;
//! 3. **backtracks** to the next-ranked candidate when an offer is
//!    refused, fails, or goes unanswered (an unanswered attempt is
//!    aborted, so a late install never strands memory);
//! 4. **hands the expert back** once the home node is readmitted by the
//!    failure detector — the home node kept its own weights, so hand-back
//!    is one release frame, not a reverse transfer, and nothing answers
//!    it.
//!
//! Experts are small by construction (the largest certified one is a few
//! MB against a 256 MiB frame cap), and every transport delivers whole
//! frames, so an expert moves in one frame: more frames would only be
//! more chances of loss.
//!
//! The master itself never hosts a migrated expert: it already fronts the
//! session, and concentrating more state on it would turn the one
//! unrecoverable node into an even larger single point of failure.
//!
//! Every frame leaves and every ack arrives through the IO shell the
//! inference round uses (`shell.rs`): each transfer and each hand-back
//! opens its own live round, so a sibling gather leaves the transfer's
//! acks queued for it, and the ack wait leaves a sibling's result queued
//! for its round.
//!
//! An unanswered offer is a miss: it is sent once and waited for once,
//! and when the wait times out the attempt is aborted and the next tick
//! tries again, so a transfer takes at most one `ack_timeout`. A resend
//! would buy nothing: while a link lives, TCP and channels lose no frame,
//! so a second copy to a live peer delivers nothing the first did not. The
//! quarantine → re-place → hand-back flow is deterministic under a
//! [`teamnet_net::ManualClock`] and seeded chaos (`tests/recovery_soak.rs`
//! asserts byte-identical transcripts across identical seeds).

use crate::expert::build_expert;
use crate::fsm;
use crate::health::PeerHealth;
use crate::runtime::TAG_INPUT;
use crate::shell::{self, RoundRegistration};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use teamnet_net::codec::{encode_f32s_into, Reader};
#[cfg(doc)]
use teamnet_net::PayloadKind;
use teamnet_net::{deadline_after, Clock, Envelope, NetError, SystemClock, Transport};
use teamnet_nn::{load_state, state_vec, ModelSpec, Sequential};
use teamnet_obs::{Counter, Histogram, Obs};
use teamnet_tensor::Tensor;

/// Wire op codes for [`LoadExpertMsg`].
const OP_OFFER: u8 = 0;
const OP_RELEASE: u8 = 1;
const OP_ABORT: u8 = 2;

/// Wire status codes for [`LoadAckMsg`] (0 and 2 are retired).
const ST_REFUSE: u8 = 1;
const ST_DONE: u8 = 3;
const ST_FAILED: u8 = 4;

/// What a worker needs to admit and rebuild a migrated expert besides its
/// weights: the architecture, and the certified memory the expert will
/// occupy once resident.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferManifest {
    /// Architecture of the migrating expert.
    pub spec: ModelSpec,
    /// Certified resident footprint (params + peak activations) the host
    /// must be able to admit — DESIGN.md §13.
    pub required_resident_bytes: u64,
}

/// Control messages carried by a [`PayloadKind::LoadExpert`] envelope
/// (master → worker).
#[derive(Debug, Clone, PartialEq)]
pub enum LoadExpertMsg {
    /// Offer to host expert `expert`, weights included; the worker
    /// answers done, refuse or failed.
    Offer {
        /// Id of the expert being migrated.
        expert: u32,
        /// Architecture + admission requirement.
        manifest: TransferManifest,
        /// The serialized parameter state (a tensor count, then each
        /// tensor as `encode_f32s` lays it down).
        state: Vec<u8>,
    },
    /// Release a hosted expert on hand-back (the home node is live
    /// again); the worker sends no reply.
    Release {
        /// Id of the expert to stop hosting.
        expert: u32,
    },
    /// Abort a transfer attempt; the worker evicts the expert if that
    /// attempt installed it.
    Abort {
        /// Id of the expert whose transfer is abandoned.
        expert: u32,
    },
}

impl LoadExpertMsg {
    /// Serializes the message (little-endian; layout documented per-field
    /// in [`LoadExpertMsg::decode`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            LoadExpertMsg::Offer {
                expert,
                manifest,
                state,
            } => {
                out.push(OP_OFFER);
                out.extend_from_slice(&expert.to_le_bytes());
                let spec = serde_json::to_vec(&manifest.spec).unwrap_or_default();
                put_len_prefixed(&mut out, &spec);
                out.extend_from_slice(&manifest.required_resident_bytes.to_le_bytes());
                put_len_prefixed(&mut out, state);
            }
            LoadExpertMsg::Release { expert } => {
                out.push(OP_RELEASE);
                out.extend_from_slice(&expert.to_le_bytes());
            }
            LoadExpertMsg::Abort { expert } => {
                out.push(OP_ABORT);
                out.extend_from_slice(&expert.to_le_bytes());
            }
        }
        out
    }

    /// Parses a message: `op: u8 | expert: u32`, and for an offer
    /// additionally `spec_len: u32 | spec json | required_resident_bytes:
    /// u64 | state_len: u32 | state`.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] on truncation, trailing bytes, an unknown
    /// op code or an undecodable model spec.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(bytes);
        let op = r.u8()?;
        let expert = r.u32()?;
        let msg = match op {
            OP_OFFER => {
                let spec_len = r.u32()? as usize;
                let spec: ModelSpec = serde_json::from_slice(r.take(spec_len)?)
                    .map_err(|e| NetError::Malformed(format!("load-expert spec: {e}")))?;
                let required_resident_bytes = r.u64()?;
                let state_len = r.u32()? as usize;
                LoadExpertMsg::Offer {
                    expert,
                    manifest: TransferManifest {
                        spec,
                        required_resident_bytes,
                    },
                    state: r.take(state_len)?.to_vec(),
                }
            }
            OP_RELEASE => LoadExpertMsg::Release { expert },
            OP_ABORT => LoadExpertMsg::Abort { expert },
            other => {
                return Err(NetError::Malformed(format!(
                    "unknown load-expert op {other}"
                )))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Appends `len: u32 | bytes`.
///
/// # Panics
///
/// On more than `u32::MAX` bytes.
fn put_len_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    assert!(u32::try_from(bytes.len()).is_ok(), "length-prefixed field");
    // In range by the assert above. lint: allow(cast-truncate)
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Worker verdicts in the transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Offer refused by the worker's own [`HostBudget`]; `arg` is the
    /// spare bytes it actually has.
    Refuse,
    /// The expert is resident: shape-checked, built and charged.
    Done,
    /// The state does not build against the offered spec (or the offer
    /// belongs to an aborted attempt); nothing was installed.
    Failed,
}

/// Worker → master acknowledgement, carried by a [`PayloadKind::LoadAck`]
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadAckMsg {
    /// Id of the expert the ack refers to.
    pub expert: u32,
    /// Verdict.
    pub status: AckStatus,
    /// Status-dependent argument (see [`AckStatus`]).
    pub arg: u64,
}

impl LoadAckMsg {
    /// Serializes the ack: `expert: u32 | status: u8 | arg: u64`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13);
        out.extend_from_slice(&self.expert.to_le_bytes());
        out.push(match self.status {
            AckStatus::Refuse => ST_REFUSE,
            AckStatus::Done => ST_DONE,
            AckStatus::Failed => ST_FAILED,
        });
        out.extend_from_slice(&self.arg.to_le_bytes());
        out
    }

    /// Parses an ack.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] for a wrong length or unknown status code.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(bytes);
        let expert = r.u32()?;
        let status = match r.u8()? {
            ST_REFUSE => AckStatus::Refuse,
            ST_DONE => AckStatus::Done,
            ST_FAILED => AckStatus::Failed,
            other => {
                return Err(NetError::Malformed(format!(
                    "unknown load-ack status {other}"
                )))
            }
        };
        let arg = r.u64()?;
        r.finish()?;
        Ok(LoadAckMsg {
            expert,
            status,
            arg,
        })
    }
}

/// A node's memory admission state: hard capacity minus the runtime's own
/// resident set minus whatever migrated experts it already hosts.
///
/// Lives on both sides of the protocol: the master keeps one per worker
/// (fed from the device's certified `DeviceProfile` numbers) to *rank*
/// candidates without wasting wire bytes on doomed offers, and each
/// worker keeps its own as the final honesty check — an offer is refused
/// when `required_resident_bytes` exceeds the local spare, no matter what
/// the master believed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBudget {
    capacity_bytes: u64,
    runtime_bytes: u64,
    hosted_bytes: u64,
}

impl HostBudget {
    /// A budget for a device with `capacity_bytes` of memory of which
    /// `runtime_bytes` are already spoken for (OS + runtime + the node's
    /// own expert).
    pub fn new(capacity_bytes: u64, runtime_bytes: u64) -> Self {
        HostBudget {
            capacity_bytes,
            runtime_bytes,
            hosted_bytes: 0,
        }
    }

    /// A budget that admits everything — the default for tests and for
    /// deployments that have not certified their devices.
    pub fn unlimited() -> Self {
        HostBudget::new(u64::MAX, 0)
    }

    /// Bytes still available for hosting migrated experts.
    pub fn spare(&self) -> u64 {
        self.capacity_bytes
            .saturating_sub(self.runtime_bytes)
            .saturating_sub(self.hosted_bytes)
    }

    /// Whether an expert needing `required` resident bytes fits.
    pub fn admit(&self, required: u64) -> bool {
        required <= self.spare()
    }

    /// Records `bytes` as hosted (a completed migration).
    pub fn charge(&mut self, bytes: u64) {
        self.hosted_bytes = self.hosted_bytes.saturating_add(bytes);
    }

    /// Frees `bytes` previously charged (hand-back or re-orphaning).
    pub fn release(&mut self, bytes: u64) {
        self.hosted_bytes = self.hosted_bytes.saturating_sub(bytes);
    }

    /// The device's hard capacity (model-checker invariant hook).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes spoken for by OS + runtime + the node's own expert.
    pub fn runtime_bytes(&self) -> u64 {
        self.runtime_bytes
    }

    /// Bytes currently charged for hosted (migrated) experts.
    pub fn hosted_bytes(&self) -> u64 {
        self.hosted_bytes
    }
}

impl Default for HostBudget {
    fn default() -> Self {
        HostBudget::unlimited()
    }
}

/// Serializes parameter tensors captured by [`state_vec`] for migration:
/// `count: u32`, then each tensor as [`encode_f32s_into`] lays it down.
///
/// # Panics
///
/// As [`encode_f32s_into`], or on more than `u32::MAX` tensors.
fn state_to_bytes(state: &[Tensor]) -> Vec<u8> {
    assert!(u32::try_from(state.len()).is_ok(), "state tensor count");
    // In range by the assert above. lint: allow(cast-truncate)
    let mut out = (state.len() as u32).to_le_bytes().to_vec();
    for t in state {
        encode_f32s_into(t.dims(), t.data(), &mut out);
    }
    out
}

/// Decodes a byte stream produced by [`state_to_bytes`].
///
/// # Errors
///
/// [`NetError::Malformed`] on truncation, trailing bytes, or a tensor
/// header [`Reader::f32s`] refuses.
fn state_from_bytes(bytes: &[u8]) -> Result<Vec<Tensor>, NetError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()?;
    let mut state = Vec::new();
    for _ in 0..count {
        let (dims, data) = r.f32s()?;
        state.push(
            Tensor::from_vec(data, dims)
                .map_err(|e| NetError::Malformed(format!("state tensor: {e}")))?,
        );
    }
    r.finish()?;
    Ok(state)
}

/// Decodes offered state bytes, rebuilds the expert from its manifest
/// spec, checks tensor shapes and loads the weights — the IO/model half
/// of an admitted offer, called by the serve shell's install hook.
///
/// # Errors
///
/// [`NetError::Malformed`] for a codec or shape problem.
pub(crate) fn build_from_state(
    manifest: &TransferManifest,
    buf: &[u8],
) -> Result<(Sequential, u64), NetError> {
    let state = state_from_bytes(buf)?;
    let mut model = build_expert(&manifest.spec, 0);
    let shapes = state_vec(&mut model);
    if shapes.len() != state.len() || shapes.iter().zip(&state).any(|(a, b)| a.dims() != b.dims()) {
        return Err(NetError::Malformed(format!(
            "state tensors do not match spec: {} vs {} tensors",
            state.len(),
            shapes.len()
        )));
    }
    load_state(&mut model, &state);
    Ok((model, manifest.required_resident_bytes))
}

/// Policy knobs for the re-placement transfer protocol.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// How long an offer waits for its ack; when the wait times out the
    /// attempt is aborted, so a transfer to a silent candidate ends after
    /// one `ack_timeout`.
    pub ack_timeout: Duration,
    /// Clock the ack waits are read on. Tests inject a
    /// [`teamnet_net::ManualClock`] so recovery runs off no wall clock.
    pub clock: Arc<dyn Clock>,
    /// Observability handle for recovery spans and counters.
    pub obs: Obs,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            ack_timeout: Duration::from_secs(2),
            clock: Arc::new(SystemClock),
            obs: Obs::disabled(),
        }
    }
}

/// One registered expert: what to ship and where it normally lives.
#[derive(Debug, Clone)]
struct ExpertRecord {
    spec: ModelSpec,
    /// Pre-serialized state ([`state_to_bytes`]), so a migration never
    /// re-serializes under time pressure.
    state: Vec<u8>,
    required_resident_bytes: u64,
    home: usize,
}

/// Master-side re-placement engine: tracks where every expert currently
/// lives, ranks surviving hosts by certified spare memory, offers the
/// expert down the ranking until one hosts it, and hands experts back to
/// readmitted homes. Owned by an
/// [`InferenceSession`](crate::runtime::InferenceSession) via
/// [`set_recovery`](crate::runtime::InferenceSession::set_recovery) and
/// ticked once per round after the round's failure evidence is folded in.
#[derive(Debug)]
pub struct RecoveryManager {
    config: RecoveryConfig,
    experts: BTreeMap<usize, ExpertRecord>,
    budgets: BTreeMap<usize, HostBudget>,
    /// expert → surrogate host; an expert absent here lives at home.
    placement: BTreeMap<usize, usize>,
    migrations: u64,
    backtracks: u64,
    handbacks: u64,
    /// Trace id of the round whose [`tick`](Self::tick) is currently
    /// running: recovery frames sent during the tick carry it, so transfer
    /// spans stay causal children of the triggering round in the
    /// assembled cross-node DAG.
    trace: Option<u64>,
    c_migrations: Counter,
    c_backtracks: Counter,
    c_handbacks: Counter,
    h_bytes: Arc<Histogram>,
}

impl RecoveryManager {
    /// Creates a manager with no experts or budgets registered.
    pub fn new(config: RecoveryConfig) -> Self {
        let c_migrations = config.obs.metrics.counter("recovery.migrations");
        let c_backtracks = config.obs.metrics.counter("recovery.backtracks");
        let c_handbacks = config.obs.metrics.counter("recovery.handbacks");
        let h_bytes = config.obs.metrics.histogram("recovery.bytes_migrated");
        RecoveryManager {
            config,
            experts: BTreeMap::new(),
            budgets: BTreeMap::new(),
            placement: BTreeMap::new(),
            migrations: 0,
            backtracks: 0,
            handbacks: 0,
            trace: None,
            c_migrations,
            c_backtracks,
            c_handbacks,
            h_bytes,
        }
    }

    /// Registers expert `expert` (normally hosted on node `home`) for
    /// recovery: its architecture, trained parameters and certified
    /// resident footprint.
    pub fn register_expert(
        &mut self,
        expert: usize,
        home: usize,
        spec: ModelSpec,
        state: &[Tensor],
        required_resident_bytes: u64,
    ) {
        self.experts.insert(
            expert,
            ExpertRecord {
                spec,
                state: state_to_bytes(state),
                required_resident_bytes,
                home,
            },
        );
    }

    /// Registers node `node`'s certified memory budget for candidate
    /// ranking. A node with no registered budget ranks as having
    /// unlimited spare — "unknown; let the worker's own honesty check
    /// decide" — which is strictly safer than silently excluding it.
    pub fn register_budget(&mut self, node: usize, budget: HostBudget) {
        self.budgets.insert(node, budget);
    }

    /// Certified spare bytes on `node` ([`u64::MAX`] when unregistered).
    pub fn spare_bytes(&self, node: usize) -> u64 {
        self.budgets.get(&node).map_or(u64::MAX, HostBudget::spare)
    }

    /// Current host of `expert` (`None` if unregistered).
    pub fn host_of(&self, expert: usize) -> Option<usize> {
        let record = self.experts.get(&expert)?;
        Some(self.placement.get(&expert).copied().unwrap_or(record.home))
    }

    /// The current expert → host map over every registered expert.
    pub fn expert_hosts(&self) -> BTreeMap<usize, usize> {
        self.experts
            .keys()
            .filter_map(|&e| self.host_of(e).map(|h| (e, h)))
            .collect()
    }

    /// Total successful migrations so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total candidates abandoned (refused offers + failed transfers).
    pub fn backtracks(&self) -> u64 {
        self.backtracks
    }

    /// Total experts handed back to readmitted homes.
    pub fn handbacks(&self) -> u64 {
        self.handbacks
    }

    /// One recovery pass, run after a round's failure evidence is folded:
    /// hands experts back to homes the detector has readmitted, then
    /// re-places every expert whose current host no longer receives
    /// rounds (quarantined or probing; a suspect keeps its experts). Failures
    /// inside the pass (refusals, failed installs, silent candidates)
    /// are backtracked or deferred to the next round — a recovery pass
    /// never fails the inference round that triggered it.
    ///
    /// `trace` is the triggering round's trace id, when it is traced:
    /// every frame the pass sends is then stamped with a context parented
    /// on the recovery span open at send time, so `trace-assemble` grafts
    /// the transfer under the master's round (DESIGN.md §17).
    pub fn tick(
        &mut self,
        transport: &dyn Transport,
        me: usize,
        health: &[PeerHealth],
        trace: Option<u64>,
    ) {
        self.trace = trace;
        let live = |n: usize| health.get(n).copied() == Some(PeerHealth::Live);
        let lost = |n: usize| !health.get(n).is_some_and(|h| h.receives_rounds());

        // Hand-backs first: a readmitted home kept its own weights, so
        // restoring steady state costs one release frame.
        let ready: Vec<(usize, usize)> = self
            .placement
            .iter()
            .filter(|&(&e, _)| self.experts.get(&e).is_some_and(|r| live(r.home)))
            .map(|(&e, &s)| (e, s))
            .collect();
        for (expert, surrogate) in ready {
            self.hand_back(transport, expert, surrogate);
        }

        // Orphans: experts whose current host (home or surrogate) the
        // detector no longer sends rounds to. Retried every round until a
        // candidate admits them.
        let orphans: Vec<usize> = self
            .experts
            .iter()
            .filter(|&(&e, record)| {
                let host = self.placement.get(&e).copied().unwrap_or(record.home);
                host != me && lost(host)
            })
            .map(|(&e, _)| e)
            .collect();
        for expert in orphans {
            self.replace(transport, me, health, expert);
        }
    }

    /// Surviving workers able to host `required` bytes, best first:
    /// certified spare descending, node id ascending on ties. `avoid` is
    /// the failed host; the master (`me`) never hosts.
    fn ranked_candidates(
        &self,
        num_nodes: usize,
        me: usize,
        avoid: usize,
        health: &[PeerHealth],
        required: u64,
    ) -> Vec<usize> {
        let mut candidates: Vec<(u64, usize)> = (0..num_nodes)
            .filter(|&n| n != me && n != avoid)
            .filter(|&n| health.get(n).copied() == Some(PeerHealth::Live))
            .map(|n| (self.spare_bytes(n), n))
            .filter(|&(spare, _)| spare >= required)
            .collect();
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates.into_iter().map(|(_, n)| n).collect()
    }

    /// Migrates `expert` to the best admissible survivor, backtracking
    /// through the ranked candidates on refusal or transfer failure.
    fn replace(
        &mut self,
        transport: &dyn Transport,
        me: usize,
        health: &[PeerHealth],
        expert: usize,
    ) {
        let Some(record) = self.experts.get(&expert) else {
            return;
        };
        let required = record.required_resident_bytes;
        let failed_host = self.placement.get(&expert).copied().unwrap_or(record.home);
        let candidates =
            self.ranked_candidates(transport.num_nodes(), me, failed_host, health, required);
        let obs = self.config.obs.clone();
        let _span = obs.span(
            "recovery.migrate",
            &[
                ("expert", expert as u64),
                ("candidates", candidates.len() as u64),
            ],
        );
        for candidate in candidates {
            match self.transfer(transport, expert, candidate) {
                Ok(bytes) => {
                    // A re-placed surrogate (itself now dead) gives its
                    // charge back before the new host takes it on.
                    if let Some(old) = self.placement.insert(expert, candidate) {
                        if let Some(b) = self.budgets.get_mut(&old) {
                            b.release(required);
                        }
                    }
                    if let Some(b) = self.budgets.get_mut(&candidate) {
                        b.charge(required);
                    }
                    self.migrations += 1;
                    self.c_migrations.inc();
                    self.h_bytes.observe(bytes);
                    return;
                }
                Err(_) => {
                    self.backtracks += 1;
                    self.c_backtracks.inc();
                }
            }
        }
        // No admissible survivor accepted this round; the expert stays
        // orphaned and the next tick tries again.
    }

    /// Returns `expert` to its readmitted home by sending the surrogate
    /// one release and waiting for nothing: the home node kept its
    /// weights, so the placement flips back whether or not the release
    /// lands, and the worker sends no reply.
    fn hand_back(&mut self, transport: &dyn Transport, expert: usize, surrogate: usize) {
        let obs = self.config.obs.clone();
        let _span = obs.span(
            "recovery.handback",
            &[("expert", expert as u64), ("from", surrogate as u64)],
        );
        // A stamp of its own, never registered: no reply is awaited.
        let round = RoundRegistration::open().round;
        let msg = fsm::release_frame(surrogate, round, expert as u32);
        let frame = msg.encode(shell::stamp(&obs, self.trace));
        let _ = shell::send(transport, &obs, "input", msg.to, TAG_INPUT, &frame);
        self.placement.remove(&expert);
        if let Some(record) = self.experts.get(&expert) {
            if let Some(b) = self.budgets.get_mut(&surrogate) {
                b.release(record.required_resident_bytes);
            }
        }
        self.handbacks += 1;
        self.c_handbacks.inc();
    }

    /// Offers `expert`, weights included, to `target` in one frame, waits
    /// one `ack_timeout` for the verdict, and returns the bytes shipped
    /// once the target answers `Done`.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] when the worker refuses or reports a failure,
    /// [`NetError::Timeout`] when the ack wait times out, and transport
    /// errors otherwise. On a timeout or transport error an abort is
    /// sent, so an offer that did land is undone.
    fn transfer(
        &self,
        transport: &dyn Transport,
        expert: usize,
        target: usize,
    ) -> Result<u64, NetError> {
        let record = self
            .experts
            .get(&expert)
            .ok_or_else(|| NetError::Malformed(format!("expert {expert} not registered")))?;
        let id = expert as u32;
        // Live for the whole transfer, so a sibling wait leaves its ack
        // queued for it instead of discarding it.
        let registration = RoundRegistration::open();
        let round = registration.round;
        let bytes = record.state.len() as u64;
        let obs = &self.config.obs;
        let _span = obs.span(
            "recovery.transfer",
            &[
                ("expert", expert as u64),
                ("target", target as u64),
                ("bytes", bytes),
            ],
        );
        let manifest = TransferManifest {
            spec: record.spec.clone(),
            required_resident_bytes: record.required_resident_bytes,
        };
        let offer = fsm::offer_frame(target, round, id, manifest, record.state.clone());
        let frame = offer.encode(shell::stamp(obs, self.trace));
        let ack = shell::send(transport, obs, "input", target, TAG_INPUT, &frame)
            .and_then(|()| self.await_ack(transport, target, round, id))
            .inspect_err(|_| {
                // The offer may have landed and only its ack been lost:
                // abort, so the worker evicts what this attempt installed.
                let msg = fsm::abort_frame(target, round, id);
                let abort = msg.encode(shell::stamp(obs, self.trace));
                let _ = shell::send(transport, obs, "input", target, TAG_INPUT, &abort);
            })?;
        // Refuse and Failed installed nothing, so neither owes an abort.
        match ack.status {
            AckStatus::Done => Ok(bytes),
            AckStatus::Refuse => Err(NetError::Remote(format!(
                "node {target} refused expert {expert}: {} spare bytes",
                ack.arg
            ))),
            AckStatus::Failed => Err(NetError::Remote(format!(
                "node {target} failed transfer of expert {expert}"
            ))),
        }
    }

    /// Waits up to `ack_timeout` for the [`PayloadKind::LoadAck`] of
    /// `expert` stamped with `round`. The wait is the same one a gather
    /// uses: a frame that belongs to a sibling's live round stays queued
    /// for it; stale gather leftovers, other acks and undecodable traffic
    /// on the result tag are discarded, not failed on.
    fn await_ack(
        &self,
        transport: &dyn Transport,
        target: usize,
        round: u64,
        expert: u32,
    ) -> Result<LoadAckMsg, NetError> {
        let (obs, clock) = (&self.config.obs, &*self.config.clock);
        let until = deadline_after(clock.now(), self.config.ack_timeout);
        while let Some(bytes) = shell::recv_result(transport, obs, clock, round, target, until)? {
            let env = Envelope::decode(&bytes).ok();
            if let Some(ack) = env.and_then(|env| fsm::match_load_ack(&env, round, expert)) {
                return Ok(ack);
            }
        }
        Err(NetError::Timeout {
            waiting_for: format!("load ack from node {target}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> TransferManifest {
        TransferManifest {
            spec: ModelSpec::mlp(2, 8),
            required_resident_bytes: 4096,
        }
    }

    #[test]
    fn load_expert_msg_roundtrips() {
        for msg in [
            LoadExpertMsg::Offer {
                expert: 7,
                manifest: manifest(),
                state: vec![1, 2, 3, 4, 5],
            },
            LoadExpertMsg::Offer {
                expert: 0,
                manifest: manifest(),
                state: Vec::new(),
            },
            LoadExpertMsg::Release { expert: 2 },
            LoadExpertMsg::Abort { expert: 9 },
        ] {
            assert_eq!(LoadExpertMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn load_ack_roundtrips() {
        for status in [AckStatus::Refuse, AckStatus::Done, AckStatus::Failed] {
            let ack = LoadAckMsg {
                expert: 11,
                status,
                arg: 42,
            };
            assert_eq!(LoadAckMsg::decode(&ack.encode()).unwrap(), ack);
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(LoadExpertMsg::decode(&[]).is_err());
        assert!(LoadExpertMsg::decode(&[99, 0, 0, 0, 0]).is_err());
        let mut trailing = LoadExpertMsg::Release { expert: 1 }.encode();
        trailing.push(0);
        assert!(LoadExpertMsg::decode(&trailing).is_err());
        let done = LoadAckMsg {
            expert: 0,
            status: AckStatus::Done,
            arg: 0,
        }
        .encode();
        assert!(LoadAckMsg::decode(&done[..12]).is_err());
        // The retired accept (0) and chunk-ok (2) codes are unknown now.
        for code in [0, 2, 200] {
            let mut bad_status = done.clone();
            bad_status[4] = code;
            assert!(LoadAckMsg::decode(&bad_status).is_err(), "{code}");
        }
    }

    #[test]
    fn host_budget_accounting() {
        let mut b = HostBudget::new(1_000, 300);
        assert_eq!(b.spare(), 700);
        assert!(b.admit(700));
        assert!(!b.admit(701));
        b.charge(500);
        assert_eq!(b.spare(), 200);
        b.release(500);
        assert_eq!(b.spare(), 700);
        assert!(HostBudget::unlimited().admit(u64::MAX - 1));
    }

    #[test]
    fn offered_state_builds_the_expert_only_against_its_own_spec() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = build_expert(&spec, 5);
        let bytes = state_to_bytes(&state_vec(&mut model));
        let manifest = TransferManifest {
            spec,
            required_resident_bytes: 1,
        };
        let (mut rebuilt, resident) = build_from_state(&manifest, &bytes).unwrap();
        assert_eq!(resident, 1);
        use teamnet_nn::{Layer, Mode};
        let x = Tensor::ones([1, 784]);
        assert_eq!(
            rebuilt.forward(&x, Mode::Eval),
            model.forward(&x, Mode::Eval)
        );
        let wider = TransferManifest {
            spec: ModelSpec::mlp(2, 16),
            required_resident_bytes: 1,
        };
        assert!(matches!(
            build_from_state(&wider, &bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn wire_codec_roundtrips_model_state() {
        let spec = ModelSpec::mlp(3, 16);
        let mut trained = build_expert(&spec, 11);
        let state = state_vec(&mut trained);
        let bytes = state_to_bytes(&state);
        assert_eq!(bytes.len() % 4, 0);
        let back = state_from_bytes(&bytes).unwrap();
        assert_eq!(back, state);

        // Loading the decoded state reproduces the source model exactly.
        let mut fresh = build_expert(&spec, 0);
        load_state(&mut fresh, &back);
        use teamnet_nn::{Layer, Mode};
        let x = Tensor::ones([2, 784]);
        assert_eq!(
            fresh.forward(&x, Mode::Eval),
            trained.forward(&x, Mode::Eval)
        );
    }

    #[test]
    fn wire_codec_rejects_damage() {
        let mut model = build_expert(&ModelSpec::mlp(2, 8), 3);
        let bytes = state_to_bytes(&state_vec(&mut model));
        // Truncation anywhere fails.
        assert!(state_from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(state_from_bytes(&bytes[..3]).is_err());
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 4]);
        assert!(state_from_bytes(&long).is_err());
        // An implausible rank fails without allocating.
        let mut bad_rank = bytes.clone();
        bad_rank[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(state_from_bytes(&bad_rank).is_err());
        // Empty state roundtrips.
        assert_eq!(state_from_bytes(&state_to_bytes(&[])).unwrap(), vec![]);
    }

    #[test]
    fn state_bytes_are_pinned() {
        // FNV-1a-64 of the serialized state, measured on the layout's
        // first encoder: the bytes a migration ships may not move.
        fn fnv1a64(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }
        for (spec, len, digest) in [
            (ModelSpec::mlp(4, 64), 236_924, 0xDE1C_819D_F80B_B4FF),
            (
                ModelSpec::shake_shake(8, 16),
                611_796,
                0xFB43_D058_8034_D37C,
            ),
        ] {
            let bytes = state_to_bytes(&state_vec(&mut build_expert(&spec, 5)));
            assert_eq!((bytes.len(), fnv1a64(&bytes)), (len, digest), "{spec:?}");
        }
    }

    #[test]
    fn candidate_ranking_prefers_certified_spare() {
        let mut mgr = RecoveryManager::new(RecoveryConfig::default());
        mgr.register_budget(1, HostBudget::new(1_000, 900)); // spare 100
        mgr.register_budget(2, HostBudget::new(1_000, 200)); // spare 800
        mgr.register_budget(3, HostBudget::new(1_000, 200)); // spare 800 (tie)
        let health = vec![PeerHealth::Live; 5];
        // Node 4 has no registered budget → unlimited spare → first.
        // Ties between 2 and 3 break toward the lower id.
        assert_eq!(mgr.ranked_candidates(5, 0, 1, &health, 50), vec![4, 2, 3]);
        // A requirement above a candidate's certified spare filters it.
        assert_eq!(mgr.ranked_candidates(5, 0, 1, &health, 500), vec![4, 2, 3]);
        assert_eq!(mgr.ranked_candidates(5, 0, 0, &health, 900), vec![4]);
        // Only live nodes qualify.
        let mut sick = health.clone();
        sick[2] = PeerHealth::Quarantined;
        sick[4] = PeerHealth::Probing;
        assert_eq!(mgr.ranked_candidates(5, 0, 1, &sick, 50), vec![3]);
    }

    /// One thing the master's endpoint did.
    #[derive(Debug, Clone, PartialEq)]
    enum Io {
        /// A frame it sent.
        Sent(Envelope),
        /// A receive call and the frame it took (`None`: the wait ended
        /// empty).
        Recv(Option<Envelope>),
    }

    /// The master's endpoint, logging every send and every receive call,
    /// in order.
    struct Recorded<'a> {
        inner: &'a dyn Transport,
        log: std::sync::Mutex<Vec<Io>>,
    }

    impl<'a> Recorded<'a> {
        fn new(inner: &'a dyn Transport) -> Self {
            Recorded {
                inner,
                log: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn log(&self) -> Vec<Io> {
            self.log.lock().unwrap().clone()
        }

        fn push(&self, io: Io) {
            self.log.lock().unwrap().push(io);
        }
    }

    impl Transport for Recorded<'_> {
        fn node_id(&self) -> usize {
            self.inner.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn send(&self, to: usize, tag: teamnet_net::Tag, payload: &[u8]) -> Result<(), NetError> {
            self.push(Io::Sent(Envelope::decode(payload).unwrap()));
            self.inner.send(to, tag, payload)
        }
        fn recv_where(
            &self,
            from: usize,
            tag: teamnet_net::Tag,
            timeout: Duration,
            accept: &dyn Fn(&[u8]) -> bool,
        ) -> Result<Vec<u8>, NetError> {
            let frame = self.inner.recv_where(from, tag, timeout, accept);
            let taken = frame.as_ref().ok().map(|f| Envelope::decode(f).unwrap());
            self.push(Io::Recv(taken));
            frame
        }
        fn stats(&self) -> teamnet_net::TransportStats {
            self.inner.stats()
        }
    }

    fn load_expert_op(env: &Envelope) -> Option<LoadExpertMsg> {
        (env.kind == teamnet_net::PayloadKind::LoadExpert)
            .then(|| LoadExpertMsg::decode(&env.payload).unwrap())
    }

    /// A sent frame's load-expert message, or the kind of a taken frame
    /// (`None` for a receive that took nothing).
    fn summary(io: &Io) -> (Option<LoadExpertMsg>, Option<teamnet_net::PayloadKind>) {
        match io {
            Io::Sent(env) => (load_expert_op(env), None),
            Io::Recv(env) => (None, env.as_ref().map(|env| env.kind)),
        }
    }

    /// A manager whose ack waits run `ack_timeout` on a clock that never
    /// moves, with expert `expert` (home: `home`) registered.
    fn manager_on(
        clock: &Arc<teamnet_net::ManualClock>,
        expert: usize,
        home: usize,
    ) -> RecoveryManager {
        let mut mgr = RecoveryManager::new(RecoveryConfig {
            ack_timeout: Duration::from_millis(20),
            clock: Arc::clone(clock) as Arc<dyn Clock>,
            ..RecoveryConfig::default()
        });
        let spec = ModelSpec::mlp(2, 8);
        let state = state_vec(&mut build_expert(&spec, 1));
        mgr.register_expert(expert, home, spec, &state, 1);
        mgr
    }

    /// Serves node `node` of `nodes` as a worker until shut down.
    fn serve_node(
        nodes: &[teamnet_net::ChannelTransport],
        node: usize,
    ) -> crate::runtime::WorkerStats {
        let mut own = build_expert(&ModelSpec::mlp(2, 16), node as u64);
        let config = crate::runtime::WorkerConfig::default();
        crate::runtime::serve_worker_with_config(&nodes[node], 0, &mut own, config).unwrap()
    }

    #[test]
    fn a_move_is_one_offer_and_one_ack_and_its_hand_back_one_release() {
        // Expert 1's home (node 1) is quarantined, node 2 hosts it, and
        // node 1 comes back: the move is one offer carrying the weights
        // and one ack, the hand-back one release that nothing answers.
        use teamnet_net::{ChannelTransport, PayloadKind};
        let spec = ModelSpec::mlp(2, 16);
        let state = state_vec(&mut build_expert(&spec, 1));
        let nodes = ChannelTransport::mesh(3);
        let recorded = Recorded::new(&nodes[0]);
        let mut mgr = RecoveryManager::new(RecoveryConfig::default());
        mgr.register_expert(1, 1, spec.clone(), &state, 50_000);
        // Assertions wait until the worker has shut down, so a failing
        // one fails the test instead of hanging it.
        let (moved, back, stats) = std::thread::scope(|scope| {
            let served = scope.spawn(|| serve_node(&nodes, 2));
            let live = PeerHealth::Live;
            mgr.tick(&recorded, 0, &[live, PeerHealth::Quarantined, live], None);
            let moved = mgr.host_of(1);
            mgr.tick(&recorded, 0, &[live; 3], None);
            let back = mgr.host_of(1);
            crate::runtime::shutdown_workers(&nodes[0]).unwrap();
            (moved, back, served.join().unwrap())
        });
        assert_eq!((moved, back), (Some(2), Some(1)));
        assert_eq!((stats.loads_accepted, stats.loads_refused), (1, 0));
        let log = recorded.log();
        assert_eq!(log.len(), 3, "{log:?}");
        let Io::Sent(offer) = &log[0] else {
            panic!("{log:?}");
        };
        let Some(LoadExpertMsg::Offer { state: shipped, .. }) = load_expert_op(offer) else {
            panic!("{offer:?}");
        };
        assert_eq!(shipped, state_to_bytes(&state));
        let Io::Recv(Some(ack)) = &log[1] else {
            panic!("{log:?}");
        };
        assert_eq!(ack.kind, PayloadKind::LoadAck);
        let ack = LoadAckMsg::decode(&ack.payload).unwrap();
        assert_eq!((ack.expert, ack.status), (1, AckStatus::Done));
        assert_eq!(
            summary(&log[2]),
            (Some(LoadExpertMsg::Release { expert: 1 }), None)
        );
        assert_eq!((mgr.migrations(), mgr.handbacks()), (1, 1));
    }

    #[test]
    fn a_silent_candidate_gets_one_offer_one_wait_and_one_abort() {
        // Nobody serves node 1: the offer's one ack wait times out and
        // the abort follows at once. The clock never moves, and nothing
        // sleeps.
        let clock = Arc::new(teamnet_net::ManualClock::new());
        let nodes = teamnet_net::ChannelTransport::mesh(2);
        let recorded = Recorded::new(&nodes[0]);
        let mgr = manager_on(&clock, 0, 0);
        let res = mgr.transfer(&recorded, 0, 1);
        assert!(matches!(res, Err(NetError::Timeout { .. })), "{res:?}");
        let log: Vec<_> = recorded.log().iter().map(summary).collect();
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(matches!(log[0], (Some(LoadExpertMsg::Offer { .. }), None)));
        assert_eq!(log[1], (None, None), "one receive call, which took nothing");
        assert_eq!(log[2], (Some(LoadExpertMsg::Abort { expert: 0 }), None));
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    #[test]
    fn a_hand_back_to_a_silent_surrogate_makes_no_receive() {
        // Expert 1 sits on node 2, which nobody serves, and its home is
        // live again: the hand-back is one release, and nothing waits.
        let clock = Arc::new(teamnet_net::ManualClock::new());
        let nodes = teamnet_net::ChannelTransport::mesh(3);
        let recorded = Recorded::new(&nodes[0]);
        let mut mgr = manager_on(&clock, 1, 1);
        mgr.placement.insert(1, 2);
        mgr.tick(&recorded, 0, &[PeerHealth::Live; 3], None);
        let log: Vec<_> = recorded.log().iter().map(summary).collect();
        assert_eq!(log, [(Some(LoadExpertMsg::Release { expert: 1 }), None)]);
        assert_eq!((mgr.host_of(1), mgr.handbacks()), (Some(1), 1));
    }

    #[test]
    fn a_suspect_host_keeps_its_expert_until_quarantined() {
        // At `quarantine_after = 2`, node 1's first miss leaves it
        // suspect, still sent every round: its expert stays and nothing
        // goes on the wire. The second miss quarantines it, and the same
        // tick moves the expert to node 2.
        use crate::health::{FailureDetector, FailureDetectorConfig};
        let clock = Arc::new(teamnet_net::ManualClock::new());
        let nodes = teamnet_net::ChannelTransport::mesh(3);
        let recorded = Recorded::new(&nodes[0]);
        let mut mgr = manager_on(&clock, 1, 1);
        let mut detector = FailureDetector::new(
            3,
            FailureDetectorConfig {
                quarantine_after: 2,
                ..FailureDetectorConfig::default()
            },
        );
        let health = |d: &FailureDetector| (0..3).map(|n| d.health(n)).collect::<Vec<_>>();
        let (kept, moved, stats) = std::thread::scope(|scope| {
            let served = scope.spawn(|| serve_node(&nodes, 2));
            detector.record_miss(1);
            mgr.tick(&recorded, 0, &health(&detector), None);
            let sent = recorded.log().len();
            let kept = (detector.health(1), mgr.host_of(1), mgr.migrations(), sent);
            detector.record_miss(1);
            mgr.tick(&recorded, 0, &health(&detector), None);
            let moved = (detector.health(1), mgr.host_of(1), mgr.migrations());
            crate::runtime::shutdown_workers(&nodes[0]).unwrap();
            (kept, moved, served.join().unwrap())
        });
        assert_eq!(kept, (PeerHealth::Suspect, Some(1), 0, 0));
        assert_eq!(moved, (PeerHealth::Quarantined, Some(2), 1));
        assert_eq!(stats.loads_accepted, 1);
    }

    #[test]
    fn a_transfer_concludes_on_its_first_ack() {
        // Node 1 answers the offer, then contradicts itself: the first
        // ack decides, and a verdict (unlike a timeout) owes no abort.
        use crate::runtime::{TAG_INPUT, TAG_RESULT};
        use teamnet_net::PayloadKind;
        let clock = Arc::new(teamnet_net::ManualClock::new());
        for (status, arg) in [
            (AckStatus::Done, 0),
            (AckStatus::Refuse, 123),
            (AckStatus::Failed, 0),
        ] {
            let nodes = teamnet_net::ChannelTransport::mesh(2);
            let mut mgr = manager_on(&clock, 0, 0);
            mgr.config.ack_timeout = Duration::from_secs(5);
            let res = std::thread::scope(|scope| {
                scope.spawn(|| {
                    let offer = nodes[1].recv(0, TAG_INPUT, Duration::from_secs(5)).unwrap();
                    let round = Envelope::decode(&offer).unwrap().round;
                    let other = if status == AckStatus::Done {
                        AckStatus::Failed
                    } else {
                        AckStatus::Done
                    };
                    for (status, arg) in [(status, arg), (other, 0)] {
                        let ack = LoadAckMsg {
                            expert: 0,
                            status,
                            arg,
                        };
                        let env = Envelope::new(round, PayloadKind::LoadAck, ack.encode());
                        nodes[1].send(0, TAG_RESULT, &env.encode()).unwrap();
                    }
                });
                mgr.transfer(&nodes[0], 0, 1)
            });
            match status {
                AckStatus::Done => assert!(res.is_ok(), "{res:?}"),
                AckStatus::Refuse => assert!(
                    matches!(&res, Err(NetError::Remote(m)) if m.contains("123 spare bytes")),
                    "{res:?}"
                ),
                AckStatus::Failed => assert!(matches!(res, Err(NetError::Remote(_))), "{res:?}"),
            }
            let abort = nodes[1].recv(0, TAG_INPUT, Duration::ZERO);
            assert!(abort.is_err(), "{status:?}: {abort:?}");
        }
    }

    #[test]
    fn expert_hosts_reflect_placement() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = build_expert(&spec, 1);
        let state = state_vec(&mut model);
        let mut mgr = RecoveryManager::new(RecoveryConfig::default());
        mgr.register_expert(1, 1, spec, &state, 64);
        assert_eq!(mgr.host_of(1), Some(1));
        assert_eq!(mgr.host_of(9), None);
        mgr.placement.insert(1, 2);
        assert_eq!(mgr.host_of(1), Some(2));
        assert_eq!(mgr.expert_hosts(), [(1, 2)].into_iter().collect());
    }
}
