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
//! 2. **offers** the expert to the best candidate over a new
//!    [`PayloadKind::LoadExpert`] envelope — the worker re-checks the
//!    admission against its *own* [`HostBudget`] and may refuse;
//! 3. **ships** the weights as chunked, CRC-checked, resumable
//!    [`PayloadKind::LoadChunk`] envelopes under a stop-and-wait ARQ
//!    (each [`PayloadKind::LoadAck`] carries the next-expected chunk
//!    cursor, so a re-offer after an interrupted transfer resumes instead
//!    of restarting);
//! 4. **backtracks** to the next-ranked candidate when an offer is
//!    refused or a transfer fails mid-flight (the target frees the
//!    partial state on abort, so a failed attempt never strands memory);
//! 5. **hands the expert back** once the home node is readmitted by the
//!    failure detector — the home node kept its own weights, so hand-back
//!    is a lightweight release, not a reverse transfer.
//!
//! The master itself never hosts a migrated expert: it already fronts the
//! session, and concentrating more state on it would turn the one
//! unrecoverable node into an even larger single point of failure.
//!
//! Every frame leaves and every ack arrives through the IO shell the
//! inference round uses (`shell.rs`): each transfer attempt and each
//! hand-back opens its own live round, so a sibling gather leaves the
//! transfer's acks queued for it, and the ack wait leaves a sibling's
//! result queued for its round.
//!
//! Everything is deadline-budgeted through the
//! [`RetryPolicy`]/[`Backoff`] machinery on an injected [`Clock`], so the
//! whole quarantine → re-place → hand-back flow is deterministic under a
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
use teamnet_net::{
    crc32, deadline_after, Backoff, Clock, Envelope, NetError, RetryPolicy, SystemClock, Transport,
};
use teamnet_nn::{load_state, state_vec, ModelSpec, Sequential};
use teamnet_obs::{Counter, Histogram, Obs};
use teamnet_tensor::Tensor;

/// Wire op codes for [`LoadExpertMsg`].
const OP_OFFER: u8 = 0;
const OP_RELEASE: u8 = 1;
const OP_ABORT: u8 = 2;

/// Wire status codes for [`LoadAckMsg`].
const ST_ACCEPT: u8 = 0;
const ST_REFUSE: u8 = 1;
const ST_CHUNK_OK: u8 = 2;
const ST_DONE: u8 = 3;
const ST_FAILED: u8 = 4;

/// Everything a worker needs to admit and reassemble a migrated expert:
/// the architecture to rebuild, the transfer geometry, an end-to-end
/// CRC-32 over the full serialized state (each chunk is *also* CRC-checked
/// by its envelope; this one catches reassembly bugs), and the certified
/// memory the expert will occupy once resident.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferManifest {
    /// Architecture of the migrating expert.
    pub spec: ModelSpec,
    /// Number of [`LoadChunkMsg`] chunks the state is split into.
    pub num_chunks: u32,
    /// Total serialized state length in bytes.
    pub total_bytes: u64,
    /// CRC-32 over the full serialized state.
    pub state_crc: u32,
    /// Certified resident footprint (params + peak activations) the host
    /// must be able to admit — DESIGN.md §13.
    pub required_resident_bytes: u64,
}

/// Control messages carried by a [`PayloadKind::LoadExpert`] envelope
/// (master → worker).
#[derive(Debug, Clone, PartialEq)]
pub enum LoadExpertMsg {
    /// Offer to host expert `expert`; the worker answers accept or refuse.
    Offer {
        /// Id of the expert being migrated.
        expert: u32,
        /// Architecture + transfer geometry + admission requirement.
        manifest: TransferManifest,
    },
    /// Release a hosted expert on hand-back (the home node is live again).
    Release {
        /// Id of the expert to stop hosting.
        expert: u32,
    },
    /// Abort an in-flight transfer; the worker frees the partial state.
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
            LoadExpertMsg::Offer { expert, manifest } => {
                out.push(OP_OFFER);
                out.extend_from_slice(&expert.to_le_bytes());
                let spec = serde_json::to_vec(&manifest.spec).unwrap_or_default();
                assert!(spec.len() <= u32::MAX as usize, "spec json length");
                // In range by the assert above. lint: allow(cast-truncate)
                out.extend_from_slice(&(spec.len() as u32).to_le_bytes());
                out.extend_from_slice(&spec);
                out.extend_from_slice(&manifest.num_chunks.to_le_bytes());
                out.extend_from_slice(&manifest.total_bytes.to_le_bytes());
                out.extend_from_slice(&manifest.state_crc.to_le_bytes());
                out.extend_from_slice(&manifest.required_resident_bytes.to_le_bytes());
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
    /// additionally `spec_len: u32 | spec json | num_chunks: u32 |
    /// total_bytes: u64 | state_crc: u32 | required_resident_bytes: u64`.
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
                LoadExpertMsg::Offer {
                    expert,
                    manifest: TransferManifest {
                        spec,
                        num_chunks: r.u32()?,
                        total_bytes: r.u64()?,
                        state_crc: r.u32()?,
                        required_resident_bytes: r.u64()?,
                    },
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

/// One chunk of a migrating expert's serialized state, carried by a
/// [`PayloadKind::LoadChunk`] envelope (master → worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadChunkMsg {
    /// Id of the expert being transferred.
    pub expert: u32,
    /// Zero-based chunk index within the transfer.
    pub index: u32,
    /// The chunk's slice of the serialized state.
    pub data: Vec<u8>,
}

impl LoadChunkMsg {
    /// Serializes the chunk: `expert: u32 | index: u32 | data`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.data.len());
        out.extend_from_slice(&self.expert.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a chunk message.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when shorter than its 8-byte header.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(bytes);
        Ok(LoadChunkMsg {
            expert: r.u32()?,
            index: r.u32()?,
            data: r.rest().to_vec(),
        })
    }
}

/// Worker verdicts in the transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Offer admitted; `arg` is the next-expected chunk index (non-zero
    /// when a matching interrupted transfer is being resumed).
    Accept,
    /// Offer refused by the worker's own [`HostBudget`]; `arg` is the
    /// spare bytes it actually has, for diagnostics.
    Refuse,
    /// Chunk consumed (or duplicate re-acknowledged); `arg` is the
    /// next-expected chunk index.
    ChunkOk,
    /// Transfer complete: full-state CRC verified, model rebuilt and
    /// resident. Also acknowledges a [`LoadExpertMsg::Release`].
    Done,
    /// The transfer failed on the worker (CRC mismatch, undecodable
    /// state, spec/state mismatch, or a chunk with no transfer open);
    /// partial state has been freed.
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
            AckStatus::Accept => ST_ACCEPT,
            AckStatus::Refuse => ST_REFUSE,
            AckStatus::ChunkOk => ST_CHUNK_OK,
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
            ST_ACCEPT => AckStatus::Accept,
            ST_REFUSE => AckStatus::Refuse,
            ST_CHUNK_OK => AckStatus::ChunkOk,
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

/// Outcome of feeding one chunk to a [`PartialLoad`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// More chunks expected; the contained value is the next-expected
    /// index (unchanged for a duplicate or out-of-order chunk).
    Progress(u32),
    /// All chunks received; call [`PartialLoad::verify`].
    Complete,
}

/// Worker-side reassembly buffer for one in-flight expert transfer.
///
/// Survives across serve-loop iterations so an interrupted transfer can
/// resume: a fresh offer carrying the same manifest is answered with the
/// current next-expected cursor instead of restarting from chunk zero.
#[derive(Debug, Clone)]
pub struct PartialLoad {
    expert: u32,
    manifest: TransferManifest,
    buf: Vec<u8>,
    next: u32,
}

impl PartialLoad {
    /// Opens a reassembly buffer for `expert` described by `manifest`.
    /// Nothing is reserved on the manifest's word: its `total_bytes` came
    /// off the wire, so the buffer grows only as checked chunks land.
    pub fn begin(expert: u32, manifest: TransferManifest) -> Self {
        PartialLoad {
            expert,
            manifest,
            buf: Vec::new(),
            next: 0,
        }
    }

    /// The expert this transfer is for.
    pub fn expert(&self) -> u32 {
        self.expert
    }

    /// Next-expected chunk index (the resume cursor).
    pub fn next_expected(&self) -> u32 {
        self.next
    }

    /// Whether a re-offer matches this in-flight transfer (same expert,
    /// same geometry, same full-state CRC) and can therefore resume.
    pub fn matches(&self, expert: u32, manifest: &TransferManifest) -> bool {
        self.expert == expert
            && self.manifest.num_chunks == manifest.num_chunks
            && self.manifest.total_bytes == manifest.total_bytes
            && self.manifest.state_crc == manifest.state_crc
    }

    /// Consumes one chunk. In-order chunks append and advance the cursor;
    /// duplicates and gaps leave the buffer untouched and re-report the
    /// cursor so the master's stop-and-wait ARQ can resend.
    pub fn accept_chunk(&mut self, msg: &LoadChunkMsg) -> ChunkOutcome {
        if msg.index != self.next
            || (self.buf.len() + msg.data.len()) as u64 > self.manifest.total_bytes
        {
            return ChunkOutcome::Progress(self.next);
        }
        self.buf.extend_from_slice(&msg.data);
        self.next += 1;
        if self.next >= self.manifest.num_chunks {
            ChunkOutcome::Complete
        } else {
            ChunkOutcome::Progress(self.next)
        }
    }

    /// Verifies the reassembled bytes against the manifest — length and
    /// CRC-32, the *protocol-visible* checks — and surrenders the
    /// manifest plus the verified state bytes. This half is pure (no
    /// model construction), so the FSM layer can run it under the model
    /// checker; the serve shell's install hook follows it with
    /// [`build_from_state`].
    ///
    /// # Errors
    ///
    /// [`NetError::Corrupt`] on a CRC mismatch, [`NetError::Malformed`]
    /// on a length mismatch. Either way the partial state is consumed
    /// and freed — a failed transfer never strands memory.
    pub fn verify(self) -> Result<(TransferManifest, Vec<u8>), NetError> {
        if self.buf.len() as u64 != self.manifest.total_bytes {
            return Err(NetError::Malformed(format!(
                "reassembled {} bytes, manifest promised {}",
                self.buf.len(),
                self.manifest.total_bytes
            )));
        }
        let got = crc32(&self.buf);
        if got != self.manifest.state_crc {
            return Err(NetError::Corrupt {
                expected: self.manifest.state_crc,
                got,
            });
        }
        Ok((self.manifest, self.buf))
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

/// Decodes verified state bytes, rebuilds the expert from its manifest
/// spec, checks tensor shapes and loads the weights — the IO/model half
/// of a completed transfer, called by the serve shell's install hook.
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
    /// Bytes of serialized state per [`LoadChunkMsg`].
    pub chunk_bytes: usize,
    /// Retry schedule for each offer/chunk exchange (attempt count + the
    /// jittered backoff between resends).
    pub transfer_retry: RetryPolicy,
    /// How long one send waits for its ack before a resend is considered.
    pub ack_timeout: Duration,
    /// Wall-clock budget for one whole transfer attempt to one candidate;
    /// on expiry the transfer aborts and the master backtracks.
    pub transfer_timeout: Duration,
    /// Clock driving the deadlines and backoff sleeps. Tests inject a
    /// [`teamnet_net::ManualClock`] so failed-transfer paths run in
    /// virtual time.
    pub clock: Arc<dyn Clock>,
    /// Observability handle for recovery spans and counters.
    pub obs: Obs,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            chunk_bytes: 64 * 1024,
            transfer_retry: RetryPolicy::default(),
            ack_timeout: Duration::from_secs(2),
            transfer_timeout: Duration::from_secs(10),
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
/// lives, ranks surviving hosts by certified spare memory, runs the
/// chunked transfer with backtracking, and hands experts back to
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
    /// re-places every expert whose current host is quarantined. Failures
    /// inside the pass (refusals, dead candidates, exhausted deadlines)
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

        // Hand-backs first: a readmitted home kept its own weights, so
        // restoring steady state costs one release message.
        let ready: Vec<(usize, usize)> = self
            .placement
            .iter()
            .filter(|&(&e, _)| self.experts.get(&e).is_some_and(|r| live(r.home)))
            .map(|(&e, &s)| (e, s))
            .collect();
        for (expert, surrogate) in ready {
            self.hand_back(transport, expert, surrogate);
        }

        // Orphans: experts whose current host (home or surrogate) is no
        // longer live. Retried every round until a candidate admits them.
        let orphans: Vec<usize> = self
            .experts
            .iter()
            .filter(|&(&e, record)| {
                let host = self.placement.get(&e).copied().unwrap_or(record.home);
                host != me && !live(host)
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

    /// Returns `expert` to its readmitted home by releasing the surrogate
    /// (best-effort: the home node kept its weights, so the placement
    /// flips back even if the release ack is lost).
    fn hand_back(&mut self, transport: &dyn Transport, expert: usize, surrogate: usize) {
        let obs = self.config.obs.clone();
        let _span = obs.span(
            "recovery.handback",
            &[("expert", expert as u64), ("from", surrogate as u64)],
        );
        let registration = RoundRegistration::open();
        let round = registration.round;
        let msg = fsm::release_frame(surrogate, round, expert as u32);
        let frame = msg.encode(shell::stamp(&obs, self.trace));
        if shell::send(transport, &obs, "input", msg.to, TAG_INPUT, &frame).is_ok() {
            let deadline = deadline_after(self.config.clock.now(), self.config.ack_timeout);
            let _ = self.await_ack(transport, surrogate, round, expert as u32, deadline);
        }
        self.placement.remove(&expert);
        if let Some(record) = self.experts.get(&expert) {
            if let Some(b) = self.budgets.get_mut(&surrogate) {
                b.release(record.required_resident_bytes);
            }
        }
        self.handbacks += 1;
        self.c_handbacks.inc();
    }

    /// Runs one chunked, resumable, stop-and-wait transfer of `expert` to
    /// `target` under the configured deadline. Returns the bytes shipped.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] when the worker refuses or reports a failure,
    /// [`NetError::Timeout`] when the deadline or retry budget runs out,
    /// and transport errors otherwise. On any error a best-effort abort is
    /// sent so the target frees its partial state.
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
        let chunk_bytes = self.config.chunk_bytes.max(1);
        let num_chunks = record.state.len().div_ceil(chunk_bytes) as u32;
        let manifest = TransferManifest {
            spec: record.spec.clone(),
            num_chunks,
            total_bytes: record.state.len() as u64,
            state_crc: crc32(&record.state),
            required_resident_bytes: record.required_resident_bytes,
        };
        // Live for the whole transfer, so a sibling wait leaves its acks
        // queued for it instead of discarding them.
        let registration = RoundRegistration::open();
        let round = registration.round;
        let deadline = deadline_after(self.config.clock.now(), self.config.transfer_timeout);
        let _span = self.config.obs.span(
            "recovery.transfer",
            &[
                ("expert", expert as u64),
                ("target", target as u64),
                ("chunks", u64::from(num_chunks)),
            ],
        );

        // The protocol decisions all live in the pure state machine; this
        // shell owns the transport, retry backoff, deadlines and aborts.
        let mut machine = fsm::TransferFsm::new(expert as u32, target, round, num_chunks);
        // Stop-and-wait ARQ over the chunks. The attempt cap is a
        // belt-and-braces bound on top of the per-exchange retry budget
        // and the wall-clock deadline (the offer exchange is not
        // counted against it).
        let mut attempts_left = (u64::from(num_chunks) + 2)
            * (self.config.transfer_retry.max_attempts.max(1) as u64 + 1);
        loop {
            match machine.phase() {
                fsm::TransferPhase::Complete => return Ok(record.state.len() as u64),
                fsm::TransferPhase::Failed(fault) => {
                    if fault.needs_abort() {
                        self.abort(transport, round, expert as u32, target);
                    }
                    return Err(fault_error(fault, expert, target));
                }
                fsm::TransferPhase::Offering => {}
                fsm::TransferPhase::Streaming => {
                    if attempts_left == 0 {
                        self.abort(transport, round, expert as u32, target);
                        return Err(NetError::Timeout {
                            waiting_for: format!("transfer of expert {expert} to node {target}"),
                        });
                    }
                    attempts_left -= 1;
                }
            }
            let Some(frame) = machine.current_frame(&manifest, &record.state, chunk_bytes) else {
                // Unreachable: concluded phases returned above.
                return Err(NetError::Malformed(format!(
                    "transfer of expert {expert} concluded without a frame"
                )));
            };
            let salt = machine.exchange_salt();
            let ack = match self.exchange(transport, &frame, round, expert as u32, deadline, salt) {
                Ok(ack) => ack,
                Err(e) => {
                    // An exchange that dies may still have delivered its
                    // frame: abort so the worker frees any partial state
                    // (this covers the offer too — a lost Accept ack
                    // must not strand the worker's reassembly buffer).
                    self.abort(transport, round, expert as u32, target);
                    return Err(e);
                }
            };
            machine.on_ack(ack);
        }
    }

    /// Sends `msg` to its target and waits for a matching ack, resending
    /// the same stamped frame after an ack timeout under the per-exchange
    /// retry budget. A failed send ends the exchange: no transport in the
    /// tree recovers a writer that failed once. `salt` keeps the jitter
    /// stream of each chunk's backoff distinct.
    fn exchange(
        &self,
        transport: &dyn Transport,
        msg: &fsm::OutboundMsg,
        round: u64,
        expert: u32,
        deadline: std::time::Instant,
        salt: u64,
    ) -> Result<LoadAckMsg, NetError> {
        let obs = &self.config.obs;
        let target = msg.to;
        let frame = msg.encode(shell::stamp(obs, self.trace));
        let mut backoff = Backoff::with_clock(
            self.config.transfer_retry.clone(),
            round ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            deadline,
            Arc::clone(&self.config.clock),
        );
        loop {
            shell::send(transport, obs, "input", target, TAG_INPUT, &frame)?;
            match self.await_ack(transport, target, round, expert, deadline) {
                Ok(ack) => return Ok(ack),
                Err(NetError::Timeout { .. }) => {}
                Err(e) => return Err(e),
            }
            match backoff.next_delay() {
                Some(delay) => self.config.clock.sleep(delay),
                None => {
                    return Err(NetError::Timeout {
                        waiting_for: format!("load ack from node {target}"),
                    })
                }
            }
        }
    }

    /// Waits up to `ack_timeout` (clamped by the transfer deadline) for a
    /// [`PayloadKind::LoadAck`] stamped with this transfer's round. The
    /// wait is the same one a gather uses: a frame that belongs to a
    /// sibling's live round stays queued for it; stale gather leftovers
    /// and undecodable traffic on the result tag are discarded, not
    /// failed on.
    fn await_ack(
        &self,
        transport: &dyn Transport,
        target: usize,
        round: u64,
        expert: u32,
        deadline: std::time::Instant,
    ) -> Result<LoadAckMsg, NetError> {
        let (obs, clock) = (&self.config.obs, &*self.config.clock);
        let until = deadline_after(clock.now(), self.config.ack_timeout).min(deadline);
        while let Some(bytes) = shell::recv_result(transport, obs, clock, round, target, until)? {
            let ack = Envelope::decode(&bytes)
                .ok()
                .and_then(|env| fsm::match_load_ack(&env, round, expert));
            if let Some(ack) = ack {
                return Ok(ack);
            }
        }
        Err(NetError::Timeout {
            waiting_for: format!("load ack from node {target}"),
        })
    }

    /// Best-effort abort so the target frees its partial state. Stamped
    /// with the *transfer's* round so only that attempt is undone — a
    /// stale abort can never clear a newer transfer's progress.
    fn abort(&self, transport: &dyn Transport, round: u64, expert: u32, target: usize) {
        let obs = &self.config.obs;
        let msg = fsm::abort_frame(target, round, expert);
        let frame = msg.encode(shell::stamp(obs, self.trace));
        let _ = shell::send(transport, obs, "input", msg.to, TAG_INPUT, &frame);
    }
}

/// Maps a concluded [`fsm::TransferFault`] to the transfer's error.
fn fault_error(fault: fsm::TransferFault, expert: usize, target: usize) -> NetError {
    match fault {
        fsm::TransferFault::RefusedOffer { spare } => NetError::Remote(format!(
            "node {target} refused expert {expert}: {spare} spare bytes"
        )),
        fsm::TransferFault::RefusedMidTransfer => NetError::Remote(format!(
            "node {target} refused expert {expert} mid-transfer"
        )),
        // The worker already freed its partial state.
        fsm::TransferFault::WorkerFailed => {
            NetError::Remote(format!("node {target} failed transfer of expert {expert}"))
        }
        fsm::TransferFault::BadOfferAck(status) => NetError::Malformed(format!(
            "unexpected offer ack {status:?} from node {target}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> TransferManifest {
        TransferManifest {
            spec: ModelSpec::mlp(2, 8),
            num_chunks: 3,
            total_bytes: 100,
            state_crc: 0xDEAD_BEEF,
            required_resident_bytes: 4096,
        }
    }

    #[test]
    fn load_expert_msg_roundtrips() {
        for msg in [
            LoadExpertMsg::Offer {
                expert: 7,
                manifest: manifest(),
            },
            LoadExpertMsg::Release { expert: 2 },
            LoadExpertMsg::Abort { expert: 9 },
        ] {
            assert_eq!(LoadExpertMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn load_chunk_and_ack_roundtrip() {
        let chunk = LoadChunkMsg {
            expert: 3,
            index: 17,
            data: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(LoadChunkMsg::decode(&chunk.encode()).unwrap(), chunk);
        for status in [
            AckStatus::Accept,
            AckStatus::Refuse,
            AckStatus::ChunkOk,
            AckStatus::Done,
            AckStatus::Failed,
        ] {
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
        assert!(LoadChunkMsg::decode(&[0, 0, 0]).is_err());
        assert!(LoadAckMsg::decode(&[0; 13]).is_ok());
        assert!(LoadAckMsg::decode(&[0; 12]).is_err());
        let mut bad_status = LoadAckMsg {
            expert: 0,
            status: AckStatus::Done,
            arg: 0,
        }
        .encode();
        bad_status[4] = 200;
        assert!(LoadAckMsg::decode(&bad_status).is_err());
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
    fn partial_load_handles_duplicates_and_gaps() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = build_expert(&spec, 5);
        let state = state_vec(&mut model);
        let bytes = state_to_bytes(&state);
        let chunk = 64usize;
        let num_chunks = bytes.len().div_ceil(chunk) as u32;
        let m = TransferManifest {
            spec,
            num_chunks,
            total_bytes: bytes.len() as u64,
            state_crc: crc32(&bytes),
            required_resident_bytes: 1,
        };
        let mut p = PartialLoad::begin(4, m.clone());
        assert!(p.matches(4, &m));
        assert!(!p.matches(5, &m));
        let piece = |i: u32| LoadChunkMsg {
            expert: 4,
            index: i,
            data: bytes[i as usize * chunk..((i as usize + 1) * chunk).min(bytes.len())].to_vec(),
        };
        assert_eq!(p.accept_chunk(&piece(0)), ChunkOutcome::Progress(1));
        // Duplicate: cursor unchanged.
        assert_eq!(p.accept_chunk(&piece(0)), ChunkOutcome::Progress(1));
        // Gap: cursor unchanged, chunk not consumed.
        assert_eq!(p.accept_chunk(&piece(2)), ChunkOutcome::Progress(1));
        for i in 1..num_chunks - 1 {
            assert_eq!(p.accept_chunk(&piece(i)), ChunkOutcome::Progress(i + 1));
        }
        assert_eq!(
            p.accept_chunk(&piece(num_chunks - 1)),
            ChunkOutcome::Complete
        );
        let (manifest, verified) = p.verify().unwrap();
        let (mut rebuilt, resident) = build_from_state(&manifest, &verified).unwrap();
        assert_eq!(resident, 1);
        use teamnet_nn::{Layer, Mode};
        let x = Tensor::ones([1, 784]);
        assert_eq!(
            rebuilt.forward(&x, Mode::Eval),
            model.forward(&x, Mode::Eval)
        );
    }

    #[test]
    fn partial_load_rejects_corrupt_state() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = build_expert(&spec, 5);
        let bytes = state_to_bytes(&state_vec(&mut model));
        let m = TransferManifest {
            spec,
            num_chunks: 1,
            total_bytes: bytes.len() as u64,
            state_crc: crc32(&bytes) ^ 1, // wrong on purpose
            required_resident_bytes: 1,
        };
        let mut p = PartialLoad::begin(0, m);
        assert_eq!(
            p.accept_chunk(&LoadChunkMsg {
                expert: 0,
                index: 0,
                data: bytes,
            }),
            ChunkOutcome::Complete
        );
        assert!(matches!(p.verify(), Err(NetError::Corrupt { .. })));
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
