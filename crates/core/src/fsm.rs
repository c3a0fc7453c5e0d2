//! Pure protocol transition functions (DESIGN.md §15).
//!
//! Every message handler of the TeamNet wire protocol lives here as a
//! **pure transition function**: `step(state, event) -> (state',
//! outbound messages)`, with clocks, RNG and IO injected by the caller.
//! The production shells — [`serve_worker_with_config`], the gather leg
//! of [`InferenceSession::round`], and
//! [`RecoveryManager`]'s transfer driver — own the transports and
//! deadlines, and reach the wire through one shared IO shell
//! (`shell.rs`); the *decisions* (what a frame means, what state changes,
//! what goes back on the wire) are made by the types in this module. The
//! master's side of a transfer is one offer, one ack wait and a match on
//! the ack's [`AckStatus`] (an expired wait aborts), so it needs no state
//! machine of its own: [`match_load_ack`] picks the ack and the frame
//! builders lay down what goes out.
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

use crate::recover::{AckStatus, HostBudget, LoadAckMsg, LoadExpertMsg, TransferManifest};
use crate::runtime::{decode_result_set, WorkerStats};
use crate::team::TeamPrediction;
use std::collections::BTreeMap;
use teamnet_net::{Envelope, EnvelopeRef, NetError, PayloadKind, TraceContext};

/// A message a transition function wants sent. The shell owns the actual
/// transport, and the direction names the tag:
/// a worker's replies travel on the result tag, a master's frames on the
/// input tag. A model checker just moves the frame into its simulated
/// network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundMsg {
    /// Destination node id.
    pub to: usize,
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
/// Everything *protocol-visible* — budget admission, tombstones, budget
/// charges, ack selection — happens inside the FSM, so a mocked hook
/// cannot change protocol behavior beyond choosing `Done` or `Failed`.
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

    /// Builds and retains the hosted expert from its serialized state (the
    /// envelope CRC has already covered those bytes). Called only for an
    /// offer the FSM has admitted.
    ///
    /// # Errors
    ///
    /// Any error makes the FSM answer [`AckStatus::Failed`], with nothing
    /// charged.
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
    /// Round stamp of the offer that (most recently) confirmed
    /// residency; a round-matching [`LoadExpertMsg::Abort`] evicts.
    pub round: u64,
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
    /// Arms a handler defect: an offer for an already-resident expert
    /// answers [`AckStatus::Failed`] instead of re-acking
    /// [`AckStatus::Done`], and aborts never evict residents. Under a
    /// dropped Done ack the master's wait expires and it aborts, and the
    /// abort evicts nothing — the receiver's memory is stranded (hosted
    /// and budget-charged with no placement pointing at it).
    StrandOnLostFinalAck,
}

/// The worker side of the protocol as one pure state machine: answers
/// probes and input broadcasts, admits / installs / releases migrated
/// experts, and re-acknowledges duplicates idempotently. Driven by
/// [`serve_worker_with_config`], and exhaustively by `cargo xtask mc`.
///
/// [`serve_worker_with_config`]: crate::runtime::serve_worker_with_config
#[derive(Debug, Clone)]
pub struct WorkerFsm {
    master: usize,
    budget: HostBudget,
    hosted: BTreeMap<u32, HostedExpert>,
    /// Abort tombstones: per expert, the highest round an abort has been
    /// processed for. An `Offer` stamped at or below the tombstone
    /// belongs to an attempt the master already gave up on and is
    /// answered `Failed` without touching state — otherwise an abort that
    /// overtakes its own delayed offer (both are in flight when the
    /// master's ack wait runs out) would let the late offer install an
    /// expert nothing ever evicts. Found by `cargo xtask mc` during
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

    /// Answers one offer: `Failed` for an aborted attempt, `Done` again
    /// for a resident expert, `Refuse` past the budget, and otherwise
    /// `Done` or `Failed` as the install goes.
    fn offer(
        &mut self,
        round: u64,
        expert: u32,
        manifest: &TransferManifest,
        state: &[u8],
        hooks: &mut dyn WorkerHooks,
    ) -> (AckStatus, u64) {
        if self.attempt_is_dead(expert, round) {
            // The abort for this attempt overtook the offer (the master's
            // ack wait ran out and reordering did the rest): installing
            // now would strand receiver memory forever. Typed rejection,
            // no state touched.
            self.stats.loads_refused += 1;
            return (AckStatus::Failed, 0);
        }
        if let Some(h) = self.hosted.get_mut(&expert) {
            if self.mutation == FsmMutation::StrandOnLostFinalAck {
                // The armed defect: a re-offer of a resident fails.
                return (AckStatus::Failed, 0);
            }
            // Idempotent re-offer: the expert is already resident (our
            // earlier Done ack was lost). Refresh the residency round so
            // a round-matching abort of *this* attempt can still evict,
            // and re-ack Done instead of charging twice.
            h.round = round;
            return (AckStatus::Done, 0);
        }
        let resident = manifest.required_resident_bytes;
        if !self.budget.admit(resident) {
            self.stats.loads_refused += 1;
            return (AckStatus::Refuse, self.budget.spare());
        }
        self.stats.loads_accepted += 1;
        if hooks.install(expert, manifest, state).is_err() {
            return (AckStatus::Failed, 0);
        }
        self.budget.charge(resident);
        self.hosted.insert(
            expert,
            HostedExpert {
                resident_bytes: resident,
                round,
            },
        );
        (AckStatus::Done, 0)
    }

    /// Feeds one received frame (as raw bytes off the input tag) through
    /// the worker state machine, returning whatever should be sent back.
    /// Corrupt or malformed traffic is counted and produces no reply; a
    /// frame kind the worker never legitimately receives (`Result`,
    /// `ProbeAck`, `LoadAck`) is an explicit typed rejection, likewise
    /// counted, and so is a `Probe` or `Shutdown` that carries a payload
    /// (a flipped kind bit: the CRC does not cover the header).
    ///
    /// Duplicate deliveries are idempotent on protocol state: a re-offer
    /// for an already-resident expert re-acks [`AckStatus::Done`];
    /// duplicate releases and aborts are no-ops. Releases and aborts are
    /// never answered.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on a `Shutdown` frame: the worker is done.
    /// Otherwise only transport-level decode failures other than
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
            PayloadKind::Probe | PayloadKind::Shutdown if !env.payload.is_empty() => {
                self.stats.malformed_skipped += 1;
                None
            }
            PayloadKind::Shutdown => return Err(NetError::Closed),
            PayloadKind::Probe => {
                self.stats.probes_answered += 1;
                Some(OutboundMsg {
                    to: self.master,
                    env: Envelope::new(env.round, PayloadKind::ProbeAck, Vec::new()),
                })
            }
            PayloadKind::Input => match hooks.forward(env.payload) {
                Ok(payload) => {
                    self.stats.rounds_served += 1;
                    Some(OutboundMsg {
                        to: self.master,
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
                    state,
                }) => {
                    let (status, arg) = self.offer(env.round, id, &manifest, &state, hooks);
                    let ack = LoadAckMsg {
                        expert: id,
                        status,
                        arg,
                    };
                    Some(OutboundMsg {
                        to: self.master,
                        env: Envelope::new(env.round, PayloadKind::LoadAck, ack.encode()),
                    })
                }
                Ok(LoadExpertMsg::Release { expert: id }) => {
                    // No reply: the master flips the placement home
                    // without waiting on the surrogate.
                    if let Some(h) = self.hosted.remove(&id) {
                        self.budget.release(h.resident_bytes);
                        hooks.evict(id);
                    }
                    None
                }
                Ok(LoadExpertMsg::Abort { expert: id }) => {
                    // No reply — the master is not waiting on an abort.
                    // Aborts are round-scoped: only the transfer attempt
                    // they were issued for is undone, so a stale abort
                    // from an older attempt cannot evict a newer
                    // attempt's resident — and an abort that *does*
                    // match an install evicts it, keeping worker memory
                    // consistent with a master that gave this attempt up.
                    // The tombstone additionally kills the attempt's
                    // offer, in case the abort overtook it in flight.
                    let dead = self.aborted.entry(id).or_insert(0);
                    *dead = (*dead).max(env.round);
                    if self.mutation == FsmMutation::None
                        && self.hosted.get(&id).is_some_and(|h| h.round == env.round)
                    {
                        if let Some(h) = self.hosted.remove(&id) {
                            self.budget.release(h.resident_bytes);
                            hooks.evict(id);
                        }
                    }
                    None
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

/// Outcome of feeding one gather frame to a [`GatherFsm`]. No verdict
/// ends the round: a peer that never sends a usable reply is settled as
/// a miss when the gather's deadline passes.
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
}

impl GatherFsm {
    /// Opens the gather for `round`.
    pub fn new(round: u64) -> Self {
        GatherFsm { round }
    }

    /// An undecodable reply is discarded: the peer may still answer
    /// before the deadline, and if it does not, the round settles it as
    /// a miss.
    fn reject(e: NetError) -> GatherVerdict {
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
            Err(e) => return Self::reject(e),
        };
        if env.round != self.round {
            // A reply stamped for some other round (late, duplicated, or
            // owned by a concurrent session on the same transport): never
            // score it against this batch: consuming it would silently
            // corrupt the answer. The verdict carries the stamp so the
            // shell can hand the frame to the session that owns it.
            return GatherVerdict::Discarded(GatherDiscard::Stale { seen: env.round });
        }
        match env.kind {
            PayloadKind::Result => match fold(env.payload) {
                Ok(()) => GatherVerdict::Accepted { folded: true },
                Err(e) => Self::reject(e),
            },
            // A probe ack proves liveness; it carries no rows. One that
            // carries bytes is a result whose kind bit flipped in flight
            // (the CRC does not cover the header): its rows must not be
            // counted as answered and silently left unfolded.
            PayloadKind::ProbeAck if env.payload.is_empty() => {
                GatherVerdict::Accepted { folded: false }
            }
            PayloadKind::ProbeAck => GatherVerdict::Discarded(GatherDiscard::Malformed),
            // Stray transfer-protocol traffic (a duplicate LoadAck from a
            // recovery transfer, or a reflected LoadExpert) is never part
            // of a gather; discard it and keep waiting. Acks to live
            // transfers carry their own round stamps, so they are caught
            // by the staleness check above before reaching here. Input,
            // Probe and Shutdown flowing worker → master are equally
            // impossible; all five are explicit typed rejections.
            PayloadKind::LoadAck => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::LoadExpert => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::Input => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::Probe => GatherVerdict::Discarded(GatherDiscard::Malformed),
            PayloadKind::Shutdown => GatherVerdict::Discarded(GatherDiscard::Malformed),
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

/// Filters a raw envelope down to the [`LoadAckMsg`] for transfer
/// `round` / `expert`, discarding stale gather leftovers, wrong-kind and
/// wrong-expert traffic. The transfer's ack wait uses it.
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

/// Builds the offer frame of a transfer, weights included.
pub fn offer_frame(
    target: usize,
    round: u64,
    expert: u32,
    manifest: TransferManifest,
    state: Vec<u8>,
) -> OutboundMsg {
    let offer = LoadExpertMsg::Offer {
        expert,
        manifest,
        state,
    };
    OutboundMsg {
        to: target,
        env: Envelope::new(round, PayloadKind::LoadExpert, offer.encode()),
    }
}

/// Builds the abort frame for a failed transfer attempt. Stamped with the
/// *transfer's* round so the worker only undoes that attempt (a freshly
/// installed resident) and never a newer one.
pub fn abort_frame(target: usize, round: u64, expert: u32) -> OutboundMsg {
    OutboundMsg {
        to: target,
        env: Envelope::new(
            round,
            PayloadKind::LoadExpert,
            LoadExpertMsg::Abort { expert }.encode(),
        ),
    }
}

/// Builds the release frame handing a hosted expert back; the worker
/// evicts the expert and sends no reply.
pub fn release_frame(target: usize, round: u64, expert: u32) -> OutboundMsg {
    OutboundMsg {
        to: target,
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
    use teamnet_nn::ModelSpec;

    /// Hooks that never touch real models: forward returns a canned
    /// payload, install succeeds unless `refuse_install` is set.
    struct MockHooks {
        forward_payload: Result<Vec<u8>, ()>,
        refuse_install: bool,
        installed: Vec<u32>,
        evicted: Vec<u32>,
    }

    impl Default for MockHooks {
        fn default() -> Self {
            MockHooks {
                forward_payload: Ok(vec![1, 2, 3]),
                refuse_install: false,
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
            if self.refuse_install {
                return Err(NetError::Malformed("mock install".into()));
            }
            self.installed.push(expert);
            Ok(())
        }

        fn evict(&mut self, expert: u32) {
            self.evicted.push(expert);
        }
    }

    /// An offer of expert 7 to node 1 at `round`, needing `required`
    /// resident bytes.
    fn offer(round: u64, required: u64) -> OutboundMsg {
        let manifest = TransferManifest {
            spec: ModelSpec::mlp(2, 4),
            required_resident_bytes: required,
        };
        offer_frame(1, round, 7, manifest, vec![9, 8, 7, 6, 5])
    }

    fn deliver(fsm: &mut WorkerFsm, hooks: &mut MockHooks, msg: &OutboundMsg) -> Vec<OutboundMsg> {
        fsm.step(&msg.encode(None), hooks).expect("step")
    }

    fn ack_of(replies: &[OutboundMsg]) -> LoadAckMsg {
        let env = &replies.first().expect("reply").env;
        assert_eq!(env.kind, PayloadKind::LoadAck);
        LoadAckMsg::decode(&env.payload).expect("ack decode")
    }

    /// Runs a clean transfer of expert 7 at `round` and returns the worker
    /// and its hooks.
    fn completed_transfer(round: u64) -> (WorkerFsm, MockHooks) {
        let mut w = WorkerFsm::new(0, HostBudget::new(1000, 100));
        let mut hooks = MockHooks::default();
        let replies = deliver(&mut w, &mut hooks, &offer(round, 300));
        let reply = &replies.first().expect("reply").env;
        let ack = match_load_ack(reply, round, 7).expect("own ack");
        assert_eq!(ack.status, AckStatus::Done);
        (w, hooks)
    }

    #[test]
    fn clean_transfer_installs_and_charges() {
        let (w, hooks) = completed_transfer(50);
        assert_eq!(hooks.installed, vec![7]);
        assert_eq!(w.hosted().get(&7).map(|h| h.resident_bytes), Some(300));
        assert_eq!(w.budget().hosted_bytes(), 300);
        assert_eq!(w.stats().loads_accepted, 1);
    }

    #[test]
    fn a_duplicated_offer_re_acks_done_idempotently() {
        let (mut w, mut hooks) = completed_transfer(51);
        let before = w.canonical_protocol_bytes();
        // A second copy of the offer arrives (a duplicating link).
        let replies = deliver(&mut w, &mut hooks, &offer(51, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
        assert_eq!(w.canonical_protocol_bytes(), before);
        assert_eq!(hooks.installed, vec![7], "built once");
    }

    #[test]
    fn re_offer_for_resident_re_acks_done_without_double_charge() {
        let (mut w, mut hooks) = completed_transfer(52);
        let charged = w.budget().hosted_bytes();
        let replies = deliver(&mut w, &mut hooks, &offer(60, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
        assert_eq!(w.budget().hosted_bytes(), charged);
        assert_eq!(w.stats().loads_accepted, 1, "no second admission");
    }

    #[test]
    fn a_release_evicts_frees_the_charge_and_sends_no_reply() {
        let (mut w, mut hooks) = completed_transfer(54);
        let release = release_frame(1, 99, 7);
        let replies = deliver(&mut w, &mut hooks, &release);
        assert!(replies.is_empty(), "releases are not acknowledged");
        assert!(w.hosted().is_empty());
        assert_eq!(w.budget().hosted_bytes(), 0);
        assert_eq!(hooks.evicted, vec![7]);
        // A duplicate release is a no-op, and unanswered too.
        let before = w.canonical_protocol_bytes();
        assert!(deliver(&mut w, &mut hooks, &release).is_empty());
        assert_eq!(w.canonical_protocol_bytes(), before);
        assert_eq!(hooks.evicted, vec![7], "evicted once");
    }

    #[test]
    fn round_matching_abort_evicts_resident() {
        let (mut w, mut hooks) = completed_transfer(53);
        // The master never saw Done: it aborts attempt 53 and backtracks.
        let replies = deliver(&mut w, &mut hooks, &abort_frame(1, 53, 7));
        assert!(replies.is_empty(), "aborts are not acknowledged");
        assert!(w.hosted().is_empty());
        assert_eq!(w.budget().hosted_bytes(), 0);
        assert_eq!(hooks.evicted, vec![7]);
    }

    #[test]
    fn stale_abort_does_not_touch_newer_transfer() {
        let (mut w, mut hooks) = completed_transfer(71);
        // A stale abort from a dead earlier attempt (round 70) arrives.
        deliver(&mut w, &mut hooks, &abort_frame(1, 70, 7));
        assert!(w.hosted().contains_key(&7), "resident survives");
        // The matching abort evicts it.
        deliver(&mut w, &mut hooks, &abort_frame(1, 71, 7));
        assert!(w.hosted().is_empty());
    }

    #[test]
    fn an_offer_overtaken_by_its_abort_installs_nothing() {
        let mut w = WorkerFsm::new(0, HostBudget::new(1000, 100));
        let mut hooks = MockHooks::default();
        deliver(&mut w, &mut hooks, &abort_frame(1, 40, 7));
        let replies = deliver(&mut w, &mut hooks, &offer(40, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Failed);
        assert!(hooks.installed.is_empty() && w.hosted().is_empty());
        // A later attempt is not tombstoned.
        let replies = deliver(&mut w, &mut hooks, &offer(41, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
    }

    #[test]
    fn refusal_reports_actual_spare() {
        let mut w = WorkerFsm::new(0, HostBudget::new(400, 100));
        let mut hooks = MockHooks::default();
        let replies = deliver(&mut w, &mut hooks, &offer(80, 500));
        let ack = ack_of(&replies);
        assert_eq!(ack.status, AckStatus::Refuse);
        assert_eq!(ack.arg, 300);
        assert_eq!(w.stats().loads_refused, 1);
        assert!(hooks.installed.is_empty());
    }

    #[test]
    fn a_state_that_does_not_build_fails_and_charges_nothing() {
        let mut w = WorkerFsm::new(0, HostBudget::new(1000, 100));
        let mut hooks = MockHooks {
            refuse_install: true,
            ..MockHooks::default()
        };
        let replies = deliver(&mut w, &mut hooks, &offer(90, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Failed);
        assert!(w.hosted().is_empty());
        assert_eq!(w.budget().hosted_bytes(), 0);
    }

    #[test]
    fn mutant_fails_resident_re_offer_and_never_evicts() {
        let mut w = WorkerFsm::with_mutation(
            0,
            HostBudget::new(1000, 100),
            FsmMutation::StrandOnLostFinalAck,
        );
        let mut hooks = MockHooks::default();
        let replies = deliver(&mut w, &mut hooks, &offer(90, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Done);
        // A duplicated offer: the mutant answers Failed (the armed
        // defect) …
        let replies = deliver(&mut w, &mut hooks, &offer(90, 300));
        assert_eq!(ack_of(&replies).status, AckStatus::Failed);
        // … and, the Done ack lost, the master's abort never evicts,
        // stranding the resident.
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

    /// Flips bit 17 — byte 2 (the kind), bit 1 — which the envelope CRC
    /// does not cover.
    fn flip_kind_bit(mut frame: Vec<u8>) -> Vec<u8> {
        frame[2] ^= 0x02;
        frame
    }

    #[test]
    fn an_input_flipped_into_a_probe_is_skipped_not_acked() {
        let mut w = WorkerFsm::new(0, HostBudget::unlimited());
        let mut hooks = MockHooks::default();
        let input = Envelope::new(5, PayloadKind::Input, vec![1, 2, 3]).encode();
        let replies = w.step(&flip_kind_bit(input), &mut hooks).expect("step");
        assert!(replies.is_empty(), "{replies:?}");
        assert_eq!(
            (w.stats().probes_answered, w.stats().malformed_skipped),
            (0, 1)
        );
        // A shutdown is honoured only when it arrives empty.
        let stuffed = Envelope::new(0, PayloadKind::Shutdown, vec![9]).encode();
        assert!(w.step(&stuffed, &mut hooks).expect("step").is_empty());
        let shutdown = Envelope::new(0, PayloadKind::Shutdown, Vec::new()).encode();
        assert!(matches!(
            w.step(&shutdown, &mut hooks),
            Err(NetError::Closed)
        ));
    }

    #[test]
    fn a_result_flipped_into_a_probe_ack_is_discarded_not_counted() {
        let (g, mut fold) = gather(100, None);
        let frame = flip_kind_bit(result_frame(100, &[(2, 0.2)]));
        assert!(matches!(
            g.step(&frame, |p| fold.fold(1, p)),
            GatherVerdict::Discarded(GatherDiscard::Malformed)
        ));
    }

    /// A gather over a 1-row batch the master answered `(4, 0.9)`.
    fn gather(round: u64, calibration: Option<Vec<f32>>) -> (GatherFsm, TeamFold) {
        let mut fold = TeamFold::new(calibration);
        fold.seed(0, vec![(4, 0.9)]);
        (GatherFsm::new(round), fold)
    }

    fn result_frame(round: u64, results: &[(usize, f32)]) -> Vec<u8> {
        let payload = crate::runtime::encode_results(results);
        Envelope::new(round, PayloadKind::Result, payload).encode()
    }

    #[test]
    fn gather_folds_argmin_and_discards_stale() {
        let (g, mut fold) = gather(100, None);
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
    fn a_corrupt_reply_is_discarded() {
        let mut frame = result_frame(100, &[(2, 0.2)]);
        if let Some(b) = frame.last_mut() {
            *b ^= 0x40;
        }
        let (g, mut fold) = gather(100, None);
        assert!(matches!(
            g.step(&frame, |p| fold.fold(1, p)),
            GatherVerdict::Discarded(GatherDiscard::Corrupt)
        ));
    }

    /// Regression: a reply of entropy −1 (or NaN, or a label that is no
    /// class index) used to fold like any other, so one dishonest worker
    /// won every row. Honest entropies are never below 0.
    #[test]
    fn a_row_no_honest_expert_sends_is_malformed_not_a_winner() {
        for [label, h] in [
            [7.0, -1.0],
            [7.0, f32::NAN],
            [7.0, f32::NEG_INFINITY],
            [-1.0, 0.1],
            [3.5, 0.1],
            [16_777_216.0, 0.1],
            [f32::NAN, 0.1],
        ] {
            let payload = teamnet_net::codec::encode_f32s(&[1, 2], &[label, h]);
            let frame = Envelope::new(100, PayloadKind::Result, payload).encode();
            let (g, mut fold) = gather(100, None);
            assert!(matches!(
                g.step(&frame, |p| fold.fold(1, p)),
                GatherVerdict::Discarded(GatherDiscard::Malformed)
            ));
            let preds = fold.into_predictions();
            assert_eq!(preds.first().map(|p| (p.label, p.expert)), Some((4, 0)));
        }
        // +∞ is an honest "this row is invalid": folded, never a winner.
        let (g, mut fold) = gather(100, None);
        assert!(matches!(
            g.step(&result_frame(100, &[(2, f32::INFINITY)]), |p| fold
                .fold(1, p)),
            GatherVerdict::Accepted { folded: true }
        ));
        assert_eq!(fold.into_predictions().first().map(|p| p.expert), Some(0));
    }

    #[test]
    fn gather_respects_calibration_weights() {
        // Raw entropies favor peer 1 (0.3 < 0.9·1.0), but peer 1's δ*
        // weight of 4.0 flips the comparison.
        let (g, mut fold) = gather(7, Some(vec![1.0, 4.0]));
        g.step(&result_frame(7, &[(3, 0.3)]), |p| fold.fold(1, p));
        let preds = fold.into_predictions();
        assert_eq!(preds.first().map(|p| p.expert), Some(0));
    }

    #[test]
    fn match_load_ack_filters_round_kind_and_expert() {
        let ack = LoadAckMsg {
            expert: 5,
            status: AckStatus::Done,
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
