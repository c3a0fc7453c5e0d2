//! Pure protocol transition functions (DESIGN.md §15).
//!
//! Every message handler of the TeamNet wire protocol lives here as a
//! **pure transition function**: `step(state, event) -> (state',
//! outbound messages)`, with clocks, RNG and IO injected by the caller.
//! The production shells — [`serve_worker_with_config`], the gather leg
//! of [`InferenceSession::round`], and
//! [`RecoveryManager`]'s transfer driver — own the transports, deadlines
//! and backoff, and reach the wire through one shared IO shell
//! (`shell.rs`); the *decisions* (what a frame means, what state changes,
//! what goes back on the wire) are all made by the types in this module.
//!
//! That split is what makes the protocol model-checkable: `cargo xtask mc`
//! drives these exact transition functions — not a parallel spec that can
//! drift — through an exhaustive bounded search over message
//! interleavings with a fault adversary, checking memory-stranding,
//! budget-soundness, idempotence and termination invariants. The
//! `fsm-conformance` audit pass closes the loop statically: any
//! [`PayloadKind`] dispatch added to core *outside* this module is an
//! audit failure, so new protocol surface cannot bypass the checked
//! state machines.
//!
//! [`serve_worker_with_config`]: crate::runtime::serve_worker_with_config
//! [`InferenceSession::round`]: crate::runtime::InferenceSession::round
//! [`RecoveryManager`]: crate::recover::RecoveryManager

use crate::recover::{
    AckStatus, ChunkOutcome, HostBudget, LoadAckMsg, LoadChunkMsg, LoadExpertMsg, PartialLoad,
    TransferManifest,
};
use crate::runtime::{decode_result_set, WorkerStats, TAG_INPUT, TAG_RESULT};
use crate::team::TeamPrediction;
use std::collections::BTreeMap;
use teamnet_net::{Envelope, EnvelopeRef, NetError, PayloadKind, Tag, TraceContext};

/// A message a transition function wants sent. The shell owns the actual
/// transport (and its retries/backoff); a model checker just moves the
/// frame into its simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundMsg {
    /// Destination node id.
    pub to: usize,
    /// Transport tag the frame travels under.
    pub tag: Tag,
    /// The envelope to encode onto the wire.
    pub env: Envelope,
}

impl OutboundMsg {
    /// Encodes the envelope for the wire, stamped with `trace` when one is
    /// given. The FSM itself stays trace-free (pure protocol state): the
    /// IO shell passes the stamp in at the send site, which `cargo xtask
    /// audit`'s `trace-propagation` rule enforces.
    pub fn encode(&self, trace: Option<TraceContext>) -> Vec<u8> {
        let env = &self.env;
        Envelope::encode_with(env.round, env.kind, trace, |buf| {
            buf.extend_from_slice(&env.payload)
        })
    }
}

/// Side effects a [`WorkerFsm`] needs performed but must not perform
/// itself: running the expert forward pass and materializing /
/// dematerializing hosted expert models. The production implementation
/// decodes tensors and builds real [`Sequential`] models; the model
/// checker substitutes canned results so exploration stays cheap and
/// deterministic.
///
/// Everything *protocol-visible* — budget admission, reassembly cursors,
/// CRC verification, ack selection — happens inside the FSM, so a mocked
/// hook cannot change protocol behavior.
///
/// [`Sequential`]: teamnet_nn::Sequential
pub trait WorkerHooks {
    /// Runs the input batch through the local expert (and every hosted
    /// expert) and returns the encoded result payload for the reply.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when the input payload does not decode into
    /// a tensor; the FSM counts it as malformed and sends no reply.
    fn forward(&mut self, input_payload: &[u8]) -> Result<Vec<u8>, NetError>;

    /// Builds and retains the hosted expert from its verified serialized
    /// state. Called only after the FSM has verified length and CRC
    /// against the manifest.
    ///
    /// # Errors
    ///
    /// Any error makes the FSM answer [`AckStatus::Failed`]; the partial
    /// state has already been freed either way.
    fn install(
        &mut self,
        expert: u32,
        manifest: &TransferManifest,
        state: &[u8],
    ) -> Result<(), NetError>;

    /// Drops a previously installed hosted expert (release or abort).
    fn evict(&mut self, expert: u32);
}

/// A migrated expert resident on a worker, as the protocol sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostedExpert {
    /// Certified bytes charged against the [`HostBudget`] while resident.
    pub resident_bytes: u64,
    /// Round stamp of the transfer frame that (most recently) confirmed
    /// residency; a round-matching [`LoadExpertMsg::Abort`] evicts.
    pub round: u64,
}

/// An in-flight transfer reassembly, tagged with the round of the
/// transfer driving it so a stale abort from an older attempt cannot
/// clear a newer transfer's progress.
#[derive(Debug, Clone)]
struct PendingTransfer {
    load: PartialLoad,
    round: u64,
}

/// Deliberate protocol defects, kept compiled-in as the model checker's
/// negative control: `cargo xtask mc` re-runs its exploration against a
/// mutated [`WorkerFsm`] every invocation and fails if the mutant does
/// *not* produce an invariant violation — proving the checker can still
/// see the class of bug it exists to prevent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsmMutation {
    /// The production transition function.
    #[default]
    None,
    /// Arms a handler defect: a chunk or offer for an
    /// already-resident expert answers [`AckStatus::Failed`] / restarts
    /// the transfer instead of re-acking [`AckStatus::Done`], and aborts
    /// ignore round stamps and never evict residents. Under a dropped
    /// final Done ack the master retries, reads `Failed`, backtracks
    /// without an effective abort — and the receiver's memory is
    /// stranded (hosted and budget-charged with no placement pointing at
    /// it).
    StrandOnLostFinalAck,
}

/// The worker side of the protocol as one pure state machine: answers
/// probes and input broadcasts, admits / reassembles / releases migrated
/// experts, and re-acknowledges duplicates idempotently. Driven by
/// [`serve_worker_with_config`], and exhaustively by `cargo xtask mc`.
///
/// [`serve_worker_with_config`]: crate::runtime::serve_worker_with_config
#[derive(Debug, Clone)]
pub struct WorkerFsm {
    master: usize,
    budget: HostBudget,
    hosted: BTreeMap<u32, HostedExpert>,
    partial: Option<PendingTransfer>,
    /// Abort tombstones: per expert, the highest round an abort has been
    /// processed for. An `Offer` or chunk stamped at or below the
    /// tombstone belongs to an attempt the master already gave up on and
    /// is answered `Failed` without touching state — otherwise an abort
    /// that overtakes its own delayed offer (both are in flight when a
    /// master deadline expires) would let the late offer open a partial
    /// that nothing ever closes. Found by `cargo xtask mc` during
    /// bring-up; see DESIGN.md §15.
    aborted: BTreeMap<u32, u64>,
    stats: WorkerStats,
    mutation: FsmMutation,
}

impl WorkerFsm {
    /// A worker state machine answering to `master`, admitting transfers
    /// against `budget`.
    pub fn new(master: usize, budget: HostBudget) -> Self {
        WorkerFsm::with_mutation(master, budget, FsmMutation::None)
    }

    /// [`WorkerFsm::new`] with a deliberate defect armed (model-checker
    /// negative control only).
    pub fn with_mutation(master: usize, budget: HostBudget, mutation: FsmMutation) -> Self {
        WorkerFsm {
            master,
            budget,
            hosted: BTreeMap::new(),
            partial: None,
            aborted: BTreeMap::new(),
            stats: WorkerStats::default(),
            mutation,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }

    /// The admission budget (capacity, runtime and hosted charges).
    pub fn budget(&self) -> &HostBudget {
        &self.budget
    }

    /// Migrated experts currently resident.
    pub fn hosted(&self) -> &BTreeMap<u32, HostedExpert> {
        &self.hosted
    }

    /// The in-flight reassembly, if any: `(expert, next_expected_chunk,
    /// transfer_round)`.
    pub fn partial(&self) -> Option<(u32, u32, u64)> {
        self.partial
            .as_ref()
            .map(|p| (p.load.expert(), p.load.next_expected(), p.round))
    }

    /// Canonical byte encoding of the *protocol* state — everything that
    /// determines future transitions, deliberately excluding the
    /// [`WorkerStats`] counters (duplicates bump counters; a model
    /// checker's dedup and idempotence checks must not see that as a new
    /// state).
    pub fn canonical_protocol_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.master as u64).to_le_bytes());
        out.extend_from_slice(&self.budget.capacity_bytes().to_le_bytes());
        out.extend_from_slice(&self.budget.runtime_bytes().to_le_bytes());
        out.extend_from_slice(&self.budget.hosted_bytes().to_le_bytes());
        out.extend_from_slice(&(self.hosted.len() as u64).to_le_bytes());
        for (id, h) in &self.hosted {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&h.resident_bytes.to_le_bytes());
            out.extend_from_slice(&h.round.to_le_bytes());
        }
        match &self.partial {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.load.expert().to_le_bytes());
                out.extend_from_slice(&p.load.next_expected().to_le_bytes());
                out.extend_from_slice(&p.round.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.aborted.len() as u64).to_le_bytes());
        for (id, round) in &self.aborted {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&round.to_le_bytes());
        }
        out
    }

    /// True when `round` belongs to a transfer attempt of `expert` that an
    /// already-processed abort has declared dead.
    fn attempt_is_dead(&self, expert: u32, round: u64) -> bool {
        self.aborted.get(&expert).is_some_and(|&r| round <= r)
    }

    fn ack(&self, round: u64, ack: LoadAckMsg) -> OutboundMsg {
        OutboundMsg {
            to: self.master,
            tag: TAG_RESULT,
            env: Envelope::new(round, PayloadKind::LoadAck, ack.encode()),
        }
    }

    fn install_verified(
        &mut self,
        expert: u32,
        round: u64,
        load: PartialLoad,
        hooks: &mut dyn WorkerHooks,
    ) -> LoadAckMsg {
        match load.verify().and_then(|(manifest, state)| {
            match hooks.install(expert, &manifest, &state) {
                Ok(()) => Ok(manifest.required_resident_bytes),
                Err(e) => Err(e),
            }
        }) {
            Ok(resident) => {
                self.budget.charge(resident);
                self.hosted.insert(
                    expert,
                    HostedExpert {
                        resident_bytes: resident,
                        round,
                    },
                );
                LoadAckMsg {
                    expert,
                    status: AckStatus::Done,
                    arg: 0,
                }
            }
            Err(_) => LoadAckMsg {
                expert,
                status: AckStatus::Failed,
                arg: 0,
            },
        }
    }

    /// Feeds one received frame (as raw bytes off the input tag) through
    /// the worker state machine, returning whatever should be sent back.
    /// Corrupt or malformed traffic is counted and produces no reply; a
    /// frame kind the worker never legitimately receives (`Result`,
    /// `ProbeAck`, `LoadAck`) is an explicit typed rejection, likewise
    /// counted.
    ///
    /// Duplicate deliveries are idempotent on protocol state: a re-offer
    /// or re-chunk for an already-resident expert re-acks
    /// [`AckStatus::Done`]; duplicate chunks re-report the cursor;
    /// duplicate releases and aborts are no-ops.
    ///
    /// # Errors
    ///
    /// Only transport-level decode failures other than
    /// [`NetError::Corrupt`] / [`NetError::Malformed`] propagate (the
    /// serve shell treats those as fatal).
    pub fn step(
        &mut self,
        bytes: &[u8],
        hooks: &mut dyn WorkerHooks,
    ) -> Result<Vec<OutboundMsg>, NetError> {
        // Borrowing decode: the payload (a whole input batch, for
        // `Input`) is checksummed in place and handed to the hooks as a
        // slice of the received frame.
        let env = match EnvelopeRef::decode(bytes) {
            Ok(env) => env,
            Err(NetError::Corrupt { .. } | NetError::Malformed(_)) => {
                self.stats.malformed_skipped += 1;
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        };
        let reply = match env.kind {
            PayloadKind::Probe => {
                self.stats.probes_answered += 1;
                Some(OutboundMsg {
                    to: self.master,
                    tag: TAG_RESULT,
                    env: Envelope::new(env.round, PayloadKind::ProbeAck, Vec::new()),
                })
            }
            PayloadKind::Input => match hooks.forward(env.payload) {
                Ok(payload) => {
                    self.stats.rounds_served += 1;
                    Some(OutboundMsg {
                        to: self.master,
                        tag: TAG_RESULT,
                        env: Envelope::new(env.round, PayloadKind::Result, payload),
                    })
                }
                Err(_) => {
                    self.stats.malformed_skipped += 1;
                    None
                }
            },
            PayloadKind::LoadExpert => match LoadExpertMsg::decode(env.payload) {
                Ok(LoadExpertMsg::Offer {
                    expert: id,
                    manifest,
                }) => {
                    if self.attempt_is_dead(id, env.round) {
                        // The abort for this attempt overtook the offer
                        // (deadline expiry reorders them): the attempt is
                        // dead, so opening a partial here would strand
                        // receiver memory forever. Typed rejection, no
                        // state touched.
                        self.stats.loads_refused += 1;
                        Some(self.ack(
                            env.round,
                            LoadAckMsg {
                                expert: id,
                                status: AckStatus::Failed,
                                arg: 0,
                            },
                        ))
                    } else if self.hosted.contains_key(&id) && self.mutation == FsmMutation::None {
                        // Idempotent re-offer: the expert is already
                        // resident (our earlier Done ack was lost).
                        // Refresh the residency round so a round-matching
                        // abort of *this* attempt can still evict, and
                        // re-ack Done instead of double-charging a
                        // restarted transfer.
                        if let Some(h) = self.hosted.get_mut(&id) {
                            h.round = env.round;
                        }
                        Some(self.ack(
                            env.round,
                            LoadAckMsg {
                                expert: id,
                                status: AckStatus::Done,
                                arg: 0,
                            },
                        ))
                    } else if !self.budget.admit(manifest.required_resident_bytes) {
                        self.stats.loads_refused += 1;
                        let spare = self.budget.spare();
                        Some(self.ack(
                            env.round,
                            LoadAckMsg {
                                expert: id,
                                status: AckStatus::Refuse,
                                arg: spare,
                            },
                        ))
                    } else if manifest.num_chunks == 0 {
                        // Degenerate empty-state transfer: complete at
                        // the offer.
                        self.stats.loads_accepted += 1;
                        let ack = self.install_verified(
                            id,
                            env.round,
                            PartialLoad::begin(id, manifest),
                            hooks,
                        );
                        Some(self.ack(env.round, ack))
                    } else {
                        // Resume a matching interrupted transfer instead
                        // of restarting from chunk zero.
                        let next = match &mut self.partial {
                            Some(p) if p.load.matches(id, &manifest) => {
                                p.round = env.round;
                                p.load.next_expected()
                            }
                            None | Some(_) => {
                                self.partial = Some(PendingTransfer {
                                    load: PartialLoad::begin(id, manifest),
                                    round: env.round,
                                });
                                0
                            }
                        };
                        self.stats.loads_accepted += 1;
                        Some(self.ack(
                            env.round,
                            LoadAckMsg {
                                expert: id,
                                status: AckStatus::Accept,
                                arg: u64::from(next),
                            },
                        ))
                    }
                }
                Ok(LoadExpertMsg::Release { expert: id }) => {
                    if let Some(h) = self.hosted.remove(&id) {
                        self.budget.release(h.resident_bytes);
                        hooks.evict(id);
                    }
                    Some(self.ack(
                        env.round,
                        LoadAckMsg {
                            expert: id,
                            status: AckStatus::Done,
                            arg: 0,
                        },
                    ))
                }
                Ok(LoadExpertMsg::Abort { expert: id }) => {
                    // Free the partial state; no reply — the master is
                    // not waiting on an abort. Aborts are round-scoped:
                    // only the transfer attempt they were issued for is
                    // undone, so a stale abort from an older attempt
                    // cannot clear a newer transfer's progress — and an
                    // abort that *does* match a completed install evicts
                    // the resident, keeping worker memory consistent with
                    // a master that gave this attempt up. The tombstone
                    // additionally kills the attempt's *future* frames, in
                    // case the abort overtook them in flight.
                    let dead = self.aborted.entry(id).or_insert(0);
                    *dead = (*dead).max(env.round);
                    match self.mutation {
                        FsmMutation::None => {
                            if self
                                .partial
                                .as_ref()
                                .is_some_and(|p| p.load.expert() == id && p.round == env.round)
                            {
                                self.partial = None;
                            }
                            if self.hosted.get(&id).is_some_and(|h| h.round == env.round) {
                                if let Some(h) = self.hosted.remove(&id) {
                                    self.budget.release(h.resident_bytes);
                                    hooks.evict(id);
                                }
                            }
                        }
                        FsmMutation::StrandOnLostFinalAck => {
                            // The defect: clear any matching partial
                            // regardless of round, never evict residents.
                            if self.partial.as_ref().is_some_and(|p| p.load.expert() == id) {
                                self.partial = None;
                            }
                        }
                    }
                    None
                }
                Err(_) => {
                    self.stats.malformed_skipped += 1;
                    None
                }
            },
            PayloadKind::LoadChunk => match LoadChunkMsg::decode(env.payload) {
                Ok(msg) => {
                    self.stats.chunks_received += 1;
                    let ack = if self.attempt_is_dead(msg.expert, env.round) {
                        // Stale chunk from an aborted attempt: rejecting it
                        // without touching state also keeps a live
                        // resident's round stamp from being refreshed
                        // *backwards* into tombstoned territory (where a
                        // duplicate abort could wrongly evict it).
                        LoadAckMsg {
                            expert: msg.expert,
                            status: AckStatus::Failed,
                            arg: 0,
                        }
                    } else if self.hosted.contains_key(&msg.expert)
                        && self.mutation == FsmMutation::None
                    {
                        // Idempotent re-chunk after a lost Done ack: the
                        // transfer already completed here. Re-ack Done
                        // (refreshing the residency round) instead of
                        // failing the master into a backtrack that
                        // strands this resident.
                        if let Some(h) = self.hosted.get_mut(&msg.expert) {
                            h.round = env.round;
                        }
                        LoadAckMsg {
                            expert: msg.expert,
                            status: AckStatus::Done,
                            arg: 0,
                        }
                    } else {
                        match self.partial.take() {
                            Some(mut p) if p.load.expert() == msg.expert => {
                                match p.load.accept_chunk(&msg) {
                                    ChunkOutcome::Progress(next) => {
                                        p.round = env.round;
                                        self.partial = Some(p); // still in flight
                                        LoadAckMsg {
                                            expert: msg.expert,
                                            status: AckStatus::ChunkOk,
                                            arg: u64::from(next),
                                        }
                                    }
                                    ChunkOutcome::Complete => {
                                        self.install_verified(msg.expert, env.round, p.load, hooks)
                                    }
                                }
                            }
                            // A chunk with no transfer open (worker
                            // restarted, or the transfer was aborted), or
                            // for a different expert than the parked
                            // transfer: fail fast so the master re-offers
                            // or backtracks.
                            other => {
                                self.partial = other;
                                LoadAckMsg {
                                    expert: msg.expert,
                                    status: AckStatus::Failed,
                                    arg: 0,
                                }
                            }
                        }
                    };
                    Some(self.ack(env.round, ack))
                }
                Err(_) => {
                    self.stats.malformed_skipped += 1;
                    None
                }
            },
            // Result/ProbeAck/LoadAck flowing master → worker is a
            // protocol error; each is an explicit typed rejection — skip
            // it rather than dying.
            PayloadKind::Result => {
                self.stats.malformed_skipped += 1;
                None
            }
            PayloadKind::ProbeAck => {
                self.stats.malformed_skipped += 1;
                None
            }
            PayloadKind::LoadAck => {
                self.stats.malformed_skipped += 1;
                None
            }
        };
        Ok(reply.into_iter().collect())
    }
}

/// Why a gather frame was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherDiscard {
    /// Round stamp belongs to another round (late reply, duplicate, or a
    /// reply destined for a concurrent sibling session sharing this
    /// transport). `seen` is the stamp the frame actually carried, so
    /// the shell can route the frame to the session that owns it
    /// instead of dropping it on the floor (DESIGN.md §16).
    Stale {
        /// The round stamp found on the discarded frame.
        seen: u64,
    },
    /// Envelope CRC mismatch.
    Corrupt,
    /// Undecodable envelope, payload, or wrong-shaped results.
    Malformed,
}

/// Outcome of feeding one gather frame to a [`GatherFsm`].
#[derive(Debug)]
pub enum GatherVerdict {
    /// The peer's reply was consumed and proves liveness; `folded` is
    /// true when it carried result rows (false for a probe ack).
    Accepted {
        /// Whether result rows were folded into the running argmin.
        folded: bool,
    },
    /// The frame was discarded; keep waiting for this peer.
    Discarded(GatherDiscard),
    /// Strict mode (`require_all_workers`): the round must fail with this
    /// error.
    Fatal(NetError),
}

/// The master's gather-leg state machine: classifies each frame received
/// from a worker (stale / corrupt / malformed / probe ack / results) and
/// hands the payload of a verified current-round `Result` to the round's
/// fold — for TeamNet, [`TeamFold`]. Driven by the gather phase of
/// [`InferenceSession::round`], and exhaustively by `cargo xtask mc`.
///
/// [`InferenceSession::round`]: crate::runtime::InferenceSession::round
#[derive(Debug, Clone, Copy)]
pub struct GatherFsm {
    round: u64,
    strict: bool,
}

impl GatherFsm {
    /// Opens the gather for `round`; `strict` (`require_all_workers`)
    /// fails the round on an undecodable reply instead of discarding it.
    pub fn new(round: u64, strict: bool) -> Self {
        GatherFsm { round, strict }
    }

    /// An undecodable reply: fatal in strict mode, discarded otherwise.
    fn reject(&self, e: NetError) -> GatherVerdict {
        if self.strict {
            return GatherVerdict::Fatal(e);
        }
        GatherVerdict::Discarded(match e {
            NetError::Corrupt { .. } => GatherDiscard::Corrupt,
            _ => GatherDiscard::Malformed,
        })
    }

    /// Classifies one frame received on the result tag and, for a
    /// well-formed current-round result, runs `fold` over its payload; a
    /// payload the fold refuses is an undecodable reply.
    pub fn step(
        &self,
        bytes: &[u8],
        fold: impl FnOnce(&[u8]) -> Result<(), NetError>,
    ) -> GatherVerdict {
        let env = match EnvelopeRef::decode(bytes) {
            Ok(env) => env,
            Err(e) => return self.reject(e),
        };
        if let Err(NetError::Stale { .. }) = env.expect_round(self.round) {
            // A reply stamped for some other round (late, duplicated, or
            // owned by a concurrent session on the same transport): never
            // score it against this batch. Stale traffic is discarded
            // even in strict mode — consuming it would silently corrupt
            // the answer — but the verdict carries the stamp so the
            // shell can hand the frame to the session that owns it.
            return GatherVerdict::Discarded(GatherDiscard::Stale { seen: env.round });
        }
        match env.kind {
            PayloadKind::Result => match fold(env.payload) {
                Ok(()) => GatherVerdict::Accepted { folded: true },
                Err(e) => self.reject(e),
            },
            // A probe ack proves liveness; it carries no rows.
            PayloadKind::ProbeAck => GatherVerdict::Accepted { folded: false },
            // Stray transfer-protocol traffic (a duplicate LoadAck from a
            // recovery exchange, or a reflected LoadExpert/LoadChunk) is
            // never part of a gather; discard it and keep waiting. Acks
            // to live transfers carry their own round stamps, so they are
            // caught by the staleness check above before reaching here.
            // Input and Probe flowing worker → master are equally
            // impossible; all five are explicit typed rejections.
            PayloadKind::LoadAck => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::LoadExpert => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::LoadChunk => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::Input => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::Probe => GatherVerdict::Discarded(GatherDiscard::Malformed),
        }
    }
}

/// TeamNet's fold: the paper's Figure-4 running arg-min-entropy. Selection
/// compares δ*-weighted entropies; the reported entropy stays raw.
#[derive(Debug, Clone)]
pub struct TeamFold {
    calibration: Option<Vec<f32>>,
    best: Vec<TeamPrediction>,
    best_weighted: Vec<f32>,
}

impl TeamFold {
    /// An unseeded fold weighing expert `i` by `calibration[i]` (or 1).
    pub fn new(calibration: Option<Vec<f32>>) -> Self {
        TeamFold {
            calibration,
            best: Vec::new(),
            best_weighted: Vec::new(),
        }
    }

    /// Seeds every row with the master's own (node `me`) `local` result.
    pub fn seed(&mut self, me: usize, local: Vec<(usize, f32)>) {
        let me_weight = weight_of(&self.calibration, me);
        self.best = local
            .into_iter()
            .map(|(label, h)| TeamPrediction {
                label,
                expert: me,
                entropy: h,
            })
            .collect();
        self.best_weighted = self.best.iter().map(|p| p.entropy * me_weight).collect();
    }

    /// Folds `peer`'s `Result` payload into the running argmin.
    ///
    /// # Errors
    ///
    /// An undecodable payload, or a result matrix of another row count
    /// than the batch's; nothing is folded.
    pub fn fold(&mut self, peer: usize, payload: &[u8]) -> Result<(), NetError> {
        // A peer hosting migrated experts replies with a result *set*; a
        // single-matrix reply is attributed to the peer's own expert.
        let sets = decode_result_set(payload, peer)?;
        let rows = self.best.len();
        if let Some((expert_id, results)) = sets.iter().find(|(_, r)| r.len() != rows) {
            return Err(NetError::Malformed(format!(
                "worker {peer} returned {} rows for expert {expert_id} on a {rows}-row batch",
                results.len()
            )));
        }
        // The paper's Figure 4 arg-min: keep the lowest-weighted-entropy
        // answer per row. Each expert keeps its own identity and
        // calibration weight, whichever node computed it.
        for (expert_id, results) in sets {
            let weight = weight_of(&self.calibration, expert_id);
            let slots = self.best_weighted.iter_mut().zip(self.best.iter_mut());
            for ((label, h), (current, winner)) in results.into_iter().zip(slots) {
                let weighted = h * weight;
                if weighted < *current {
                    *current = weighted;
                    *winner = TeamPrediction {
                        label,
                        expert: expert_id,
                        entropy: h,
                    };
                }
            }
        }
        Ok(())
    }

    /// The final per-row winners after all peers have been gathered.
    pub fn into_predictions(self) -> Vec<TeamPrediction> {
        self.best
    }
}

fn weight_of(calibration: &Option<Vec<f32>>, node: usize) -> f32 {
    calibration
        .as_ref()
        .and_then(|c| c.get(node))
        .copied()
        .unwrap_or(1.0)
}

/// Why a [`TransferFsm`] concluded in failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The worker's own budget refused the offer; contains its actual
    /// spare bytes.
    RefusedOffer {
        /// Spare bytes the worker reported.
        spare: u64,
    },
    /// The worker refused mid-transfer (a refuse ack after streaming
    /// began).
    RefusedMidTransfer,
    /// The worker reported [`AckStatus::Failed`]: its partial state is
    /// already freed, no abort needed.
    WorkerFailed,
    /// The offer was answered with an ack that makes no protocol sense;
    /// abort so the worker frees anything it holds.
    BadOfferAck(AckStatus),
}

impl TransferFault {
    /// Whether the master must send an abort so the worker frees partial
    /// state ([`AckStatus::Failed`] and refusals imply the worker holds
    /// nothing).
    pub fn needs_abort(&self) -> bool {
        matches!(self, TransferFault::BadOfferAck(_))
    }
}

/// Phase of a master-side transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPhase {
    /// Offer sent, awaiting the admission verdict.
    Offering,
    /// Streaming chunks under the stop-and-wait ARQ.
    Streaming,
    /// Worker confirmed the expert resident.
    Complete,
    /// Transfer concluded in failure; see the fault for whether an abort
    /// is owed.
    Failed(TransferFault),
}

/// The master side of one expert transfer as a pure state machine: which
/// frame to send next, which acks belong to this transfer, and how each
/// ack advances (or concludes) it. The IO shell —
/// [`RecoveryManager`](crate::recover::RecoveryManager) — owns resend
/// backoff, deadlines and the abort/backtrack bookkeeping; `cargo xtask
/// mc` owns them in the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferFsm {
    expert: u32,
    target: usize,
    round: u64,
    num_chunks: u32,
    next: u32,
    phase: TransferPhase,
}

impl TransferFsm {
    /// Starts a transfer of `expert` to `target`, stamped `round`, with
    /// the state split into `num_chunks` chunks.
    pub fn new(expert: u32, target: usize, round: u64, num_chunks: u32) -> Self {
        TransferFsm {
            expert,
            target,
            round,
            num_chunks,
            next: 0,
            phase: TransferPhase::Offering,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> TransferPhase {
        self.phase
    }

    /// The round every frame of this transfer is stamped with.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The worker this transfer targets.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Backoff-jitter salt for the in-flight exchange (0 for the offer,
    /// `index + 1` for chunk `index`): part of the retry schedule the
    /// seeded soaks replay, so it may not move.
    pub fn exchange_salt(&self) -> u64 {
        match self.phase {
            TransferPhase::Offering => 0,
            TransferPhase::Streaming | TransferPhase::Complete | TransferPhase::Failed(_) => {
                u64::from(self.next.min(self.num_chunks.saturating_sub(1))) + 1
            }
        }
    }

    /// The frame the master should (re)send right now: the offer while
    /// offering, the cursor's chunk while streaming, nothing once
    /// concluded.
    pub fn current_frame(
        &self,
        manifest: &TransferManifest,
        state: &[u8],
        chunk_bytes: usize,
    ) -> Option<OutboundMsg> {
        match self.phase {
            TransferPhase::Offering => Some(offer_frame(
                self.target,
                self.round,
                self.expert,
                manifest.clone(),
            )),
            TransferPhase::Streaming => {
                let chunk_bytes = chunk_bytes.max(1);
                let index = self.next.min(self.num_chunks.saturating_sub(1));
                let lo = index as usize * chunk_bytes;
                let hi = (lo + chunk_bytes).min(state.len());
                let payload = LoadChunkMsg {
                    expert: self.expert,
                    index,
                    data: state.get(lo..hi).unwrap_or_default().to_vec(),
                };
                Some(OutboundMsg {
                    to: self.target,
                    tag: TAG_INPUT,
                    env: Envelope::new(self.round, PayloadKind::LoadChunk, payload.encode()),
                })
            }
            TransferPhase::Complete | TransferPhase::Failed(_) => None,
        }
    }

    /// Filters a received envelope down to this transfer's ack, if it is
    /// one (right kind, right round, right expert).
    pub fn accept(&self, env: &Envelope) -> Option<LoadAckMsg> {
        match_load_ack(env, self.round, self.expert)
    }

    /// Advances the transfer on one of its own acks (as returned by
    /// [`TransferFsm::accept`]).
    pub fn on_ack(&mut self, ack: LoadAckMsg) {
        self.phase = match (self.phase, ack.status) {
            (TransferPhase::Offering, AckStatus::Accept) => {
                self.next = ack.arg.min(u64::from(self.num_chunks)) as u32;
                TransferPhase::Streaming
            }
            // An empty-state transfer completes at the offer; a Done at
            // any point means the expert is resident.
            (TransferPhase::Offering | TransferPhase::Streaming, AckStatus::Done) => {
                TransferPhase::Complete
            }
            (TransferPhase::Offering, AckStatus::Refuse) => {
                TransferPhase::Failed(TransferFault::RefusedOffer { spare: ack.arg })
            }
            (TransferPhase::Offering, status @ (AckStatus::ChunkOk | AckStatus::Failed)) => {
                TransferPhase::Failed(TransferFault::BadOfferAck(status))
            }
            // A duplicate Accept ack reports the resume cursor too.
            (TransferPhase::Streaming, AckStatus::ChunkOk | AckStatus::Accept) => {
                self.next = ack.arg.min(u64::from(self.num_chunks)) as u32;
                TransferPhase::Streaming
            }
            (TransferPhase::Streaming, AckStatus::Failed) => {
                // The worker already freed its partial state.
                TransferPhase::Failed(TransferFault::WorkerFailed)
            }
            (TransferPhase::Streaming, AckStatus::Refuse) => {
                TransferPhase::Failed(TransferFault::RefusedMidTransfer)
            }
            // Concluded transfers ignore further (duplicate) acks.
            (done @ (TransferPhase::Complete | TransferPhase::Failed(_)), _) => done,
        };
    }
}

/// Filters a raw envelope down to the [`LoadAckMsg`] for transfer
/// `round` / `expert`, discarding stale gather leftovers, wrong-kind and
/// wrong-expert traffic — the ack-matching rule shared by the production
/// [`RecoveryManager`](crate::recover::RecoveryManager) wait loop and the
/// model checker's master.
pub fn match_load_ack(env: &Envelope, round: u64, expert: u32) -> Option<LoadAckMsg> {
    if env.round != round || env.kind != PayloadKind::LoadAck {
        return None;
    }
    let ack = LoadAckMsg::decode(&env.payload).ok()?;
    if ack.expert != expert {
        return None;
    }
    Some(ack)
}

/// Builds the offer frame opening a transfer.
pub fn offer_frame(
    target: usize,
    round: u64,
    expert: u32,
    manifest: TransferManifest,
) -> OutboundMsg {
    OutboundMsg {
        to: target,
        tag: TAG_INPUT,
        env: Envelope::new(
            round,
            PayloadKind::LoadExpert,
            LoadExpertMsg::Offer { expert, manifest }.encode(),
        ),
    }
}

/// Builds the abort frame for a failed transfer attempt. Stamped with the
/// *transfer's* round so the worker only undoes that attempt (partial or
/// freshly installed resident) and never a newer one.
pub fn abort_frame(target: usize, round: u64, expert: u32) -> OutboundMsg {
    OutboundMsg {
        to: target,
        tag: TAG_INPUT,
        env: Envelope::new(
            round,
            PayloadKind::LoadExpert,
            LoadExpertMsg::Abort { expert }.encode(),
        ),
    }
}

/// Builds the release frame handing a hosted expert back.
pub fn release_frame(target: usize, round: u64, expert: u32) -> OutboundMsg {
    OutboundMsg {
        to: target,
        tag: TAG_INPUT,
        env: Envelope::new(
            round,
            PayloadKind::LoadExpert,
            LoadExpertMsg::Release { expert }.encode(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_net::crc32;
    use teamnet_nn::ModelSpec;

    /// Hooks that never touch real models: forward returns a canned
    /// payload, install always succeeds.
    struct MockHooks {
        forward_payload: Result<Vec<u8>, ()>,
        installed: Vec<u32>,
        evicted: Vec<u32>,
    }

    impl Default for MockHooks {
        fn default() -> Self {
            MockHooks {
                forward_payload: Ok(vec![1, 2, 3]),
                installed: Vec::new(),
                evicted: Vec::new(),
            }
        }
    }

    impl WorkerHooks for MockHooks {
        fn forward(&mut self, _input: &[u8]) -> Result<Vec<u8>, NetError> {
            self.forward_payload
                .clone()
                .map_err(|()| NetError::Malformed("mock forward".into()))
        }

        fn install(
            &mut self,
            expert: u32,
            _manifest: &TransferManifest,
            _state: &[u8],
        ) -> Result<(), NetError> {
            self.installed.push(expert);
            Ok(())
        }

        fn evict(&mut self, expert: u32) {
            self.evicted.push(expert);
        }
    }

    fn manifest_for(state: &[u8], chunk_bytes: usize, required: u64) -> TransferManifest {
        TransferManifest {
            spec: ModelSpec::mlp(2, 4),
            num_chunks: state.len().div_ceil(chunk_bytes.max(1)) as u32,
            total_bytes: state.len() as u64,
            state_crc: crc32(state),
            required_resident_bytes: required,
        }
    }

    fn deliver(fsm: &mut WorkerFsm, hooks: &mut MockHooks, msg: &OutboundMsg) -> Vec<OutboundMsg> {
        fsm.step(&msg.encode(None), hooks).expect("step")
    }

    fn ack_of(replies: &[OutboundMsg]) -> LoadAckMsg {
        let env = &replies.first().expect("reply").env;
        assert_eq!(env.kind, PayloadKind::LoadAck);
        LoadAckMsg::decode(&env.payload).expect("ack decode")
    }

    /// Runs a full clean transfer and returns worker + hooks.
    fn completed_transfer(round: u64) -> (WorkerFsm, MockHooks, Vec<u8>, TransferManifest) {
        let state = vec![9u8, 8, 7, 6, 5];
        let manifest = manifest_for(&state, 2, 300);
        let mut w = WorkerFsm::new(0, HostBudget::new(1000, 100));
        let mut hooks = MockHooks::default();
        let mut master = TransferFsm::new(7, 1, round, manifest.num_chunks);
        let mut guard = 0;
        while master.phase() != TransferPhase::Complete {
            let frame = master
                .current_frame(&manifest, &state, 2)
                .expect("frame while active");
            let replies = deliver(&mut w, &mut hooks, &frame);
            let ack = master
                .accept(&replies.first().expect("reply").env)
                .expect("own ack");
            master.on_ack(ack);
            guard += 1;
            assert!(guard < 20, "transfer did not converge");
        }
        (w, hooks, state, manifest)
    }

    #[test]
    fn clean_transfer_installs_and_charges() {
        let (w, hooks, _state, manifest) = completed_transfer(50);
        assert_eq!(hooks.installed, vec![7]);
        assert_eq!(w.hosted().get(&7).map(|h| h.resident_bytes), Some(300));
        assert_eq!(w.budget().hosted_bytes(), manifest.required_resident_bytes);
        assert_eq!(w.partial(), None);
        assert_eq!(w.stats().loads_accepted, 1);
        assert_eq!(w.stats().chunks_received, 3);
    }

    #[test]
    fn duplicate_final_chunk_re_acks_done_idempotently() {
        let (mut w, mut hooks, state, manifest) = completed_transfer(51);
        let before = w.canonical_protocol_bytes();
        // Master lost the Done ack and resends the final chunk.
        let mut master = TransferFsm::new(7, 1, 51, manifest.num_chunks);
        master.on_ack(LoadAckMsg {
            expert: 7,
            status: AckStatus::Accept,
            arg: u64::from(manifest.num_chunks) - 1,
        });
        let frame = master.current_frame(&manifest, &state, 2).expect("chunk");
        let replies = deliver(&mut w, &mut hooks, &frame);
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
        assert_eq!(w.canonical_protocol_bytes(), before);
        // The master completes off the re-ack instead of backtracking.
        master.on_ack(ack_of(&replies));
        assert_eq!(master.phase(), TransferPhase::Complete);
    }

    #[test]
    fn re_offer_for_resident_re_acks_done_without_double_charge() {
        let (mut w, mut hooks, _state, manifest) = completed_transfer(52);
        let charged = w.budget().hosted_bytes();
        let frame = offer_frame(1, 60, 7, manifest);
        let replies = deliver(&mut w, &mut hooks, &frame);
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
        assert_eq!(w.budget().hosted_bytes(), charged);
        assert_eq!(w.stats().loads_accepted, 1, "no second admission");
    }

    #[test]
    fn round_matching_abort_evicts_resident() {
        let (mut w, mut hooks, _state, _manifest) = completed_transfer(53);
        // The master never saw Done: it aborts attempt 53 and backtracks.
        let replies = deliver(&mut w, &mut hooks, &abort_frame(1, 53, 7));
        assert!(replies.is_empty(), "aborts are not acknowledged");
        assert!(w.hosted().is_empty());
        assert_eq!(w.budget().hosted_bytes(), 0);
        assert_eq!(hooks.evicted, vec![7]);
    }

    #[test]
    fn stale_abort_does_not_touch_newer_transfer() {
        let state = vec![1u8, 2, 3, 4, 5];
        let manifest = manifest_for(&state, 2, 300);
        let mut w = WorkerFsm::new(0, HostBudget::new(1000, 100));
        let mut hooks = MockHooks::default();
        // New transfer (round 71) opens a partial.
        deliver(&mut w, &mut hooks, &offer_frame(1, 71, 7, manifest));
        assert!(w.partial().is_some());
        // A stale abort from a dead earlier attempt (round 70) arrives.
        deliver(&mut w, &mut hooks, &abort_frame(1, 70, 7));
        assert_eq!(w.partial(), Some((7, 0, 71)), "partial survives");
        // The matching abort clears it.
        deliver(&mut w, &mut hooks, &abort_frame(1, 71, 7));
        assert_eq!(w.partial(), None);
    }

    #[test]
    fn refusal_reports_actual_spare() {
        let state = vec![1u8; 6];
        let manifest = manifest_for(&state, 2, 500);
        let mut w = WorkerFsm::new(0, HostBudget::new(400, 100));
        let mut hooks = MockHooks::default();
        let replies = deliver(&mut w, &mut hooks, &offer_frame(1, 80, 3, manifest));
        let ack = ack_of(&replies);
        assert_eq!(ack.status, AckStatus::Refuse);
        assert_eq!(ack.arg, 300);
        assert_eq!(w.stats().loads_refused, 1);
    }

    #[test]
    fn mutant_fails_resident_re_chunk_and_ignores_abort_rounds() {
        let state = vec![9u8, 8, 7, 6, 5];
        let manifest = manifest_for(&state, 2, 300);
        let mut w = WorkerFsm::with_mutation(
            0,
            HostBudget::new(1000, 100),
            FsmMutation::StrandOnLostFinalAck,
        );
        let mut hooks = MockHooks::default();
        let mut master = TransferFsm::new(7, 1, 90, manifest.num_chunks);
        while master.phase() != TransferPhase::Complete {
            let frame = master.current_frame(&manifest, &state, 2).expect("frame");
            let replies = deliver(&mut w, &mut hooks, &frame);
            master.on_ack(
                master
                    .accept(&replies.first().expect("reply").env)
                    .expect("ack"),
            );
        }
        // Done ack lost; the master resends the final chunk: the mutant
        // answers Failed (the armed defect) …
        let mut retry = TransferFsm::new(7, 1, 90, manifest.num_chunks);
        retry.on_ack(LoadAckMsg {
            expert: 7,
            status: AckStatus::Accept,
            arg: u64::from(manifest.num_chunks) - 1,
        });
        let frame = retry.current_frame(&manifest, &state, 2).expect("chunk");
        let replies = deliver(&mut w, &mut hooks, &frame);
        assert_eq!(ack_of(&replies).status, AckStatus::Failed);
        // … and its abort never evicts, stranding the resident.
        deliver(&mut w, &mut hooks, &abort_frame(1, 90, 7));
        assert!(w.hosted().contains_key(&7), "mutant strands the resident");
    }

    #[test]
    fn worker_rejects_master_bound_kinds_without_reply() {
        let mut w = WorkerFsm::new(0, HostBudget::unlimited());
        let mut hooks = MockHooks::default();
        for kind in [
            PayloadKind::Result,
            PayloadKind::ProbeAck,
            PayloadKind::LoadAck,
        ] {
            let env = Envelope::new(5, kind, vec![1, 2, 3]).encode();
            let replies = w.step(&env, &mut hooks).expect("step");
            assert!(replies.is_empty());
        }
        assert_eq!(w.stats().malformed_skipped, 3);
    }

    /// A gather over a 1-row batch the master answered `(4, 0.9)`.
    fn gather(round: u64, strict: bool, calibration: Option<Vec<f32>>) -> (GatherFsm, TeamFold) {
        let mut fold = TeamFold::new(calibration);
        fold.seed(0, vec![(4, 0.9)]);
        (GatherFsm::new(round, strict), fold)
    }

    fn result_frame(round: u64, results: &[(usize, f32)]) -> Vec<u8> {
        let payload = crate::runtime::encode_results(results);
        Envelope::new(round, PayloadKind::Result, payload).encode()
    }

    #[test]
    fn gather_folds_argmin_and_discards_stale() {
        let (g, mut fold) = gather(100, false, None);
        // Stale frame from an earlier round.
        assert!(matches!(
            g.step(&result_frame(99, &[(1, 0.1)]), |p| fold.fold(1, p)),
            GatherVerdict::Discarded(GatherDiscard::Stale { seen: 99 })
        ));
        // Fresh results win the row.
        assert!(matches!(
            g.step(&result_frame(100, &[(2, 0.2)]), |p| fold.fold(1, p)),
            GatherVerdict::Accepted { folded: true }
        ));
        // A reply with the wrong row count is refused by the fold.
        assert!(matches!(
            g.step(&result_frame(100, &[(3, 0.0), (3, 0.0)]), |p| fold
                .fold(1, p)),
            GatherVerdict::Discarded(GatherDiscard::Malformed)
        ));
        let preds = fold.into_predictions();
        assert_eq!(preds.first().map(|p| (p.label, p.expert)), Some((2, 1)));
    }

    #[test]
    fn gather_strict_mode_fails_on_corrupt() {
        let mut frame = result_frame(100, &[(2, 0.2)]);
        if let Some(b) = frame.last_mut() {
            *b ^= 0x40;
        }
        let (strictg, mut fold) = gather(100, true, None);
        assert!(matches!(
            strictg.step(&frame, |p| fold.fold(1, p)),
            GatherVerdict::Fatal(_)
        ));
        let (lax, mut fold) = gather(100, false, None);
        assert!(matches!(
            lax.step(&frame, |p| fold.fold(1, p)),
            GatherVerdict::Discarded(GatherDiscard::Corrupt)
        ));
    }

    #[test]
    fn gather_respects_calibration_weights() {
        // Raw entropies favor peer 1 (0.3 < 0.9·1.0), but peer 1's δ*
        // weight of 4.0 flips the comparison.
        let (g, mut fold) = gather(7, false, Some(vec![1.0, 4.0]));
        g.step(&result_frame(7, &[(3, 0.3)]), |p| fold.fold(1, p));
        let preds = fold.into_predictions();
        assert_eq!(preds.first().map(|p| p.expert), Some(0));
    }

    #[test]
    fn transfer_fsm_refusal_and_bad_ack_classification() {
        let mut t = TransferFsm::new(3, 2, 10, 4);
        assert_eq!(t.exchange_salt(), 0);
        t.on_ack(LoadAckMsg {
            expert: 3,
            status: AckStatus::Refuse,
            arg: 123,
        });
        assert_eq!(
            t.phase(),
            TransferPhase::Failed(TransferFault::RefusedOffer { spare: 123 })
        );
        assert!(!TransferFault::RefusedOffer { spare: 123 }.needs_abort());
        assert!(TransferFault::BadOfferAck(AckStatus::ChunkOk).needs_abort());

        let mut t = TransferFsm::new(3, 2, 10, 4);
        t.on_ack(LoadAckMsg {
            expert: 3,
            status: AckStatus::ChunkOk,
            arg: 0,
        });
        assert!(matches!(
            t.phase(),
            TransferPhase::Failed(TransferFault::BadOfferAck(AckStatus::ChunkOk))
        ));
    }

    #[test]
    fn match_load_ack_filters_round_kind_and_expert() {
        let ack = LoadAckMsg {
            expert: 5,
            status: AckStatus::ChunkOk,
            arg: 2,
        };
        let good = Envelope::new(9, PayloadKind::LoadAck, ack.encode());
        assert_eq!(match_load_ack(&good, 9, 5), Some(ack));
        assert_eq!(match_load_ack(&good, 8, 5), None, "wrong round");
        assert_eq!(match_load_ack(&good, 9, 6), None, "wrong expert");
        let wrong_kind = Envelope::new(9, PayloadKind::Result, ack.encode());
        assert_eq!(match_load_ack(&wrong_kind, 9, 5), None);
    }
}
