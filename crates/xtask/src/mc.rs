//! `cargo xtask mc` — bounded explicit-state model checking of the
//! protocol state machines in `crates/core/src/fsm.rs` (DESIGN.md §15).
//!
//! The checker drives the **production transition functions** — the same
//! [`WorkerFsm`] / [`TransferFsm`] / [`GatherFsm`] the runtime shells use,
//! not a parallel spec — through an exhaustive breadth-first search over
//! message interleavings on a small-model cluster (1 master, 2 workers,
//! 1 expert), with a budgeted fault adversary that may drop, duplicate and
//! reorder frames, crash (blackhole) a worker, and fire a spurious master
//! deadline. BFS guarantees the first counterexample found is of minimal
//! depth; states are deduplicated by an FNV-1a 64 hash of a canonical
//! byte encoding, so explored-state and transition counts are byte-stable
//! run-to-run.
//!
//! Invariants checked on every reachable state:
//!
//! * **budget soundness** — a worker's charged hosted bytes never exceed
//!   certified capacity minus runtime floor, and the charge ledger equals
//!   the sum of resident experts (HostBudget never admits past capacity,
//!   never goes negative);
//! * **idempotence** — re-applying the identical frame to a worker or the
//!   gather fold never changes protocol state (duplicates / stale frames
//!   must be absorbed);
//! * **no stranded receiver memory** (at quiescence) — a non-crashed
//!   worker holding a resident or partial transfer the master has not
//!   placed is a violation unless a frame *addressed to that worker* was
//!   dropped (the directional excuse rule: a dropped worker→master ack is
//!   NOT an excuse — the ARQ must survive ack loss);
//! * **placement consistency** (at quiescence) — no expert double-hosted,
//!   and a recorded placement points at a worker that actually hosts it;
//! * **fault-free progress** — with no adversary budget spent, the
//!   transfer must complete on the first candidate;
//! * **termination** — every path quiesces (master concluded, network
//!   drained) within the depth budget; exceeding a budget is *truncation*
//!   and fails loudly unless `--allow-truncation` acknowledges it.
//!
//! As a negative control, every invocation re-runs the exploration with
//! [`FsmMutation::StrandOnLostFinalAck`] armed on worker 1 (the pre-§15
//! protocol bugs, kept compiled-in) and **requires** a violation, printing
//! its minimized trace as a message-sequence diagram — proof the checker
//! can still see the bug class it exists to prevent. A second scenario
//! exercises the gather leg (stale / corrupt / duplicate result frames
//! against the arg-min fold), and a fault-model cross-check replays seeded
//! schedules through [`crate::netmodel`] against the real
//! `ChaosTransport`.

use crate::netmodel;
use crate::Diagnostic;
use std::collections::{HashMap, HashSet, VecDeque};
use teamnet_core::fsm::{
    abort_frame, FsmMutation, GatherFsm, GatherVerdict, TeamFold, TransferFsm, TransferPhase,
    WorkerFsm, WorkerHooks,
};
use teamnet_core::runtime::encode_results;
use teamnet_core::{HostBudget, LoadAckMsg, LoadChunkMsg, LoadExpertMsg, TransferManifest};
use teamnet_net::{crc32, Envelope, NetError, PayloadKind};
use teamnet_nn::ModelSpec;

/// Depth budget: longest interleaving explored before truncation.
const MAX_DEPTH: usize = 64;
/// State budget: distinct canonical states before truncation.
const MAX_STATES: usize = 400_000;

const MASTER: usize = 0;
const EXPERT: u32 = 7;
const CHUNK_BYTES: usize = 2;
const BASE_ROUND: u64 = 9000;
/// Transfer candidates tried in order by the modeled master.
const CANDIDATES: [usize; 2] = [1, 2];

// Adversary budgets (small model: one of each fault class is enough to
// exercise every protocol branch; the budgets bound the state space).
const DROPS: u8 = 1;
const DUPS: u8 = 1;
const CRASHES: u8 = 1;
const SPURIOUS_TIMEOUTS: u8 = 1;
/// ARQ resends the modeled master may issue per exploration path. One is
/// enough to prove the ack-loss story (drop the final Done ack, resend
/// the chunk, survive via the idempotent re-ack); two swells the state
/// space ~4x without enabling any new protocol branch.
const RESENDS: u8 = 1;

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// One frame in the simulated network (an unordered multiset: delivery in
/// any order models reordering for free).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Frame {
    to: usize,
    from: usize,
    bytes: Vec<u8>,
}

/// One successor produced by a scenario action.
struct Outcome<S> {
    /// Message-sequence-diagram row describing the action.
    row: String,
    state: S,
    /// Action-specific violation (e.g. idempotence), if any.
    violation: Option<String>,
}

/// A protocol scenario the bounded explorer can exhaust.
trait Scenario {
    type State: Clone;
    fn node_names(&self) -> &'static [&'static str];
    fn initial(&self) -> Self::State;
    /// Canonical byte encoding: everything that determines future
    /// transitions, nothing else (counters and timings excluded).
    fn canonical(&self, s: &Self::State) -> Vec<u8>;
    /// All enabled actions, in a fixed deterministic order.
    fn successors(&self, s: &Self::State) -> Vec<Outcome<Self::State>>;
    /// State-wide invariants (budget soundness, quiescence checks).
    fn check(&self, s: &Self::State) -> Option<String>;
}

struct ExplorationReport {
    states: usize,
    transitions: usize,
    violation: Option<(Vec<String>, String)>,
    truncated: Option<String>,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Breadth-first exhaustive search with canonical-hash dedup. The first
/// violation reached is at minimal depth; its trace is reconstructed from
/// the parent map.
fn explore<Sc: Scenario>(sc: &Sc) -> ExplorationReport {
    let root = sc.initial();
    if let Some(msg) = sc.check(&root) {
        return ExplorationReport {
            states: 1,
            transitions: 0,
            violation: Some((Vec::new(), msg)),
            truncated: None,
        };
    }
    let root_hash = fnv1a64(&sc.canonical(&root));
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(root_hash);
    let mut parents: HashMap<u64, (u64, String)> = HashMap::new();
    let mut queue: VecDeque<(Sc::State, u64, usize)> = VecDeque::new();
    queue.push_back((root, root_hash, 0));
    let mut states = 1usize;
    let mut transitions = 0usize;
    let mut truncated: Option<String> = None;

    'bfs: while let Some((state, hash, depth)) = queue.pop_front() {
        let succ = sc.successors(&state);
        if succ.is_empty() {
            continue; // quiescent; already checked when generated
        }
        if depth >= MAX_DEPTH {
            truncated.get_or_insert_with(|| {
                format!("depth budget ({MAX_DEPTH}) reached before quiescence")
            });
            continue;
        }
        for out in succ {
            transitions += 1;
            let violation = out.violation.or_else(|| sc.check(&out.state));
            if let Some(msg) = violation {
                let mut trace = trace_to(&parents, hash);
                trace.push(out.row);
                return ExplorationReport {
                    states,
                    transitions,
                    violation: Some((trace, msg)),
                    truncated,
                };
            }
            let h = fnv1a64(&sc.canonical(&out.state));
            if visited.insert(h) {
                states += 1;
                parents.insert(h, (hash, out.row));
                if states > MAX_STATES {
                    truncated = Some(format!("state budget ({MAX_STATES}) exhausted"));
                    break 'bfs;
                }
                queue.push_back((out.state, h, depth + 1));
            }
        }
    }
    ExplorationReport {
        states,
        transitions,
        violation: None,
        truncated,
    }
}

fn trace_to(parents: &HashMap<u64, (u64, String)>, mut hash: u64) -> Vec<String> {
    let mut rows = Vec::new();
    while let Some((parent, row)) = parents.get(&hash) {
        rows.push(row.clone());
        hash = *parent;
    }
    rows.reverse();
    rows
}

// ---------------------------------------------------------------------------
// Message-sequence-diagram rendering
// ---------------------------------------------------------------------------

const COL_GAP: usize = 34;

fn col(i: usize) -> usize {
    2 + i * COL_GAP
}

fn msc_header(names: &[&str]) -> String {
    let width = col(names.len().saturating_sub(1)) + COL_GAP / 2;
    let mut row = vec![b' '; width];
    for (i, name) in names.iter().enumerate() {
        let start = col(i).saturating_sub(name.len() / 2);
        for (j, b) in name.bytes().enumerate() {
            if let Some(slot) = row.get_mut(start + j) {
                *slot = b;
            }
        }
    }
    String::from_utf8_lossy(&row).trim_end().to_string()
}

/// An arrow between two lifelines; `head` is '>'/'<' for delivery, 'X'
/// for a frame the adversary removed (drop / delivery into a crashed
/// node).
fn msc_message(n: usize, from: usize, to: usize, label: &str, head: u8) -> String {
    let width = col(n - 1) + 1;
    let mut row = vec![b' '; width];
    for i in 0..n {
        row[col(i)] = b'|';
    }
    let (lo, hi) = (col(from.min(to)), col(from.max(to)));
    for slot in row.iter_mut().take(hi).skip(lo + 1) {
        *slot = b'-';
    }
    if head == b'X' {
        row[(lo + hi) / 2] = b'X';
    } else if to > from {
        row[hi - 1] = b'>';
    } else {
        row[lo + 1] = b'<';
    }
    let span = hi - lo - 3;
    let label: String = label.chars().take(span).collect();
    let start = lo + 1 + (span.saturating_sub(label.len())) / 2 + 1;
    for (j, b) in label.bytes().enumerate() {
        if let Some(slot) = row.get_mut(start + j) {
            *slot = b;
        }
    }
    String::from_utf8_lossy(&row).trim_end().to_string()
}

/// A local event on one lifeline (crash, deadline expiry).
fn msc_note(n: usize, node: usize, label: &str) -> String {
    let width = col(n - 1) + 1;
    let mut row = vec![b' '; width];
    for i in 0..n {
        row[col(i)] = b'|';
    }
    row[col(node)] = b'*';
    let mut s = String::from_utf8_lossy(&row).trim_end().to_string();
    s.push_str("   * ");
    s.push_str(label);
    s
}

/// Human label for a frame, decoded down to the protocol message.
fn frame_label(frame: &Frame) -> String {
    let Ok(env) = Envelope::decode(&frame.bytes) else {
        return "undecodable frame".to_string();
    };
    let what = match env.kind {
        PayloadKind::LoadExpert => match LoadExpertMsg::decode(&env.payload) {
            Ok(LoadExpertMsg::Offer { expert, .. }) => format!("Offer e{expert}"),
            Ok(LoadExpertMsg::Release { expert }) => format!("Release e{expert}"),
            Ok(LoadExpertMsg::Abort { expert }) => format!("Abort e{expert}"),
            Err(_) => "LoadExpert?".to_string(),
        },
        PayloadKind::LoadChunk => match LoadChunkMsg::decode(&env.payload) {
            Ok(m) => format!("Chunk#{} e{}", m.index, m.expert),
            Err(_) => "LoadChunk?".to_string(),
        },
        PayloadKind::LoadAck => match LoadAckMsg::decode(&env.payload) {
            Ok(m) => format!("{:?}({}) e{}", m.status, m.arg, m.expert),
            Err(_) => "LoadAck?".to_string(),
        },
        other => format!("{other:?}"),
    };
    format!("{what} @r{}", env.round)
}

// ---------------------------------------------------------------------------
// Shared worker-delivery helper (idempotence checked at every delivery)
// ---------------------------------------------------------------------------

/// Hooks with no real models behind them: install always succeeds, forward
/// returns a canned payload. Everything protocol-visible stays inside the
/// FSM, so canned hooks cannot mask a protocol bug.
struct CannedHooks {
    forward_payload: Vec<u8>,
}

impl WorkerHooks for CannedHooks {
    fn forward(&mut self, _input: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(self.forward_payload.clone())
    }

    fn install(
        &mut self,
        _expert: u32,
        _manifest: &TransferManifest,
        _state: &[u8],
    ) -> Result<(), NetError> {
        Ok(())
    }

    fn evict(&mut self, _expert: u32) {}
}

/// Applies one frame to a worker, enqueues its replies, and checks the
/// idempotence invariant: the identical frame re-applied to the resulting
/// state must leave the canonical protocol state unchanged.
fn deliver_to_worker(
    worker: &mut WorkerFsm,
    node: usize,
    bytes: &[u8],
    forward_payload: &[u8],
    net: &mut Vec<Frame>,
) -> Option<String> {
    let mut hooks = CannedHooks {
        forward_payload: forward_payload.to_vec(),
    };
    let replies = match worker.step(bytes, &mut hooks) {
        Ok(replies) => replies,
        Err(e) => return Some(format!("worker {node} transition error: {e}")),
    };
    let snapshot = worker.canonical_protocol_bytes();
    let mut replayed = worker.clone();
    let _ = replayed.step(bytes, &mut hooks);
    if replayed.canonical_protocol_bytes() != snapshot {
        return Some(format!(
            "idempotence violated: duplicate delivery of [{}] mutates worker {node} protocol state",
            frame_label(&Frame {
                to: node,
                from: MASTER,
                bytes: bytes.to_vec()
            })
        ));
    }
    for reply in replies {
        net.push(Frame {
            to: reply.to,
            from: node,
            bytes: reply.encode(None),
        });
    }
    None
}

// ---------------------------------------------------------------------------
// Scenario 1: recovery transfer (offer / chunk ARQ / abort / backtrack)
// ---------------------------------------------------------------------------

/// The modeled master: drives [`TransferFsm`] over the candidate list with
/// bounded ARQ resends, exactly like `RecoveryManager::transfer` minus the
/// wall clock.
#[derive(Clone)]
struct RecMaster {
    attempt: usize,
    fsm: Option<TransferFsm>,
    placed: Option<usize>,
    resends_left: u8,
    gave_up: bool,
}

#[derive(Clone)]
struct RecState {
    master: RecMaster,
    /// Worker node `w + 1` is `workers[w]`.
    workers: Vec<WorkerFsm>,
    crashed: Vec<bool>,
    /// Directional excuse ledger: true when a frame addressed TO worker
    /// `w + 1` was dropped by the adversary. Dropped worker→master frames
    /// do not set this — losing an ack must never strand memory.
    lost_to: Vec<bool>,
    net: Vec<Frame>,
    drops_left: u8,
    dups_left: u8,
    crashes_left: u8,
    spurious_left: u8,
}

struct Recovery {
    mutation: FsmMutation,
    manifest: TransferManifest,
    state_bytes: Vec<u8>,
}

impl Recovery {
    fn new(mutation: FsmMutation) -> Self {
        let state_bytes = vec![9u8, 8, 7, 6, 5];
        let manifest = TransferManifest {
            spec: ModelSpec::mlp(2, 4),
            num_chunks: state_bytes.len().div_ceil(CHUNK_BYTES) as u32,
            total_bytes: state_bytes.len() as u64,
            state_crc: crc32(&state_bytes),
            required_resident_bytes: 300,
        };
        Recovery {
            mutation,
            manifest,
            state_bytes,
        }
    }

    fn start_attempt(&self, master: &mut RecMaster, net: &mut Vec<Frame>) {
        let target = CANDIDATES[master.attempt];
        let fsm = TransferFsm::new(
            EXPERT,
            target,
            BASE_ROUND + master.attempt as u64,
            self.manifest.num_chunks,
        );
        if let Some(frame) = fsm.current_frame(&self.manifest, &self.state_bytes, CHUNK_BYTES) {
            net.push(Frame {
                to: frame.to,
                from: MASTER,
                bytes: frame.encode(None),
            });
        }
        master.fsm = Some(fsm);
    }

    /// Current attempt concluded without placement: try the next
    /// candidate or give up.
    fn backtrack(&self, master: &mut RecMaster, net: &mut Vec<Frame>) {
        master.fsm = None;
        master.attempt += 1;
        if master.attempt < CANDIDATES.len() {
            self.start_attempt(master, net);
        } else {
            master.gave_up = true;
        }
    }

    fn master_on_frame(&self, master: &mut RecMaster, net: &mut Vec<Frame>, bytes: &[u8]) {
        let Ok(env) = Envelope::decode(bytes) else {
            return;
        };
        let Some(mut fsm) = master.fsm.take() else {
            return; // concluded; stale ack ignored
        };
        let Some(ack) = fsm.accept(&env) else {
            master.fsm = Some(fsm); // not this transfer's ack
            return;
        };
        fsm.on_ack(ack);
        match fsm.phase() {
            TransferPhase::Offering | TransferPhase::Streaming => {
                if let Some(frame) =
                    fsm.current_frame(&self.manifest, &self.state_bytes, CHUNK_BYTES)
                {
                    net.push(Frame {
                        to: frame.to,
                        from: MASTER,
                        bytes: frame.encode(None),
                    });
                }
                master.fsm = Some(fsm);
            }
            TransferPhase::Complete => {
                master.placed = Some(fsm.target());
            }
            TransferPhase::Failed(fault) => {
                if fault.needs_abort() {
                    let abort = abort_frame(fsm.target(), fsm.round(), EXPERT);
                    net.push(Frame {
                        to: abort.to,
                        from: MASTER,
                        bytes: abort.encode(None),
                    });
                }
                self.backtrack(master, net);
            }
        }
    }

    /// Deadline expiry on the current attempt: abort it (round-scoped)
    /// and backtrack — mirrors `RecoveryManager::transfer`'s timeout arm.
    fn master_timeout(&self, master: &mut RecMaster, net: &mut Vec<Frame>) {
        if let Some(fsm) = master.fsm.take() {
            let abort = abort_frame(fsm.target(), fsm.round(), EXPERT);
            net.push(Frame {
                to: abort.to,
                from: MASTER,
                bytes: abort.encode(None),
            });
        }
        self.backtrack(master, net);
    }

    fn quiescent(&self, s: &RecState) -> bool {
        s.net.is_empty() && s.master.fsm.is_none()
    }
}

/// Indices of distinct frames in a sorted multiset (equal frames yield
/// one action — delivering either copy is the same transition).
fn distinct_frames(net: &[Frame]) -> Vec<usize> {
    let mut idxs = Vec::new();
    for i in 0..net.len() {
        if i == 0 || net[i] != net[i - 1] {
            idxs.push(i);
        }
    }
    idxs
}

impl Scenario for Recovery {
    type State = RecState;

    fn node_names(&self) -> &'static [&'static str] {
        &["master", "worker1", "worker2"]
    }

    fn initial(&self) -> RecState {
        let mut master = RecMaster {
            attempt: 0,
            fsm: None,
            placed: None,
            resends_left: RESENDS,
            gave_up: false,
        };
        let mut net = Vec::new();
        self.start_attempt(&mut master, &mut net);
        net.sort();
        RecState {
            master,
            workers: vec![
                // Worker 1 has certified spare for the expert (and carries
                // the mutation in the negative-control run)...
                WorkerFsm::with_mutation(MASTER, HostBudget::new(1000, 100), self.mutation),
                // ...worker 2 must refuse: spare 250 < required 300.
                WorkerFsm::new(MASTER, HostBudget::new(350, 100)),
            ],
            crashed: vec![false; CANDIDATES.len()],
            lost_to: vec![false; CANDIDATES.len()],
            net,
            drops_left: DROPS,
            dups_left: DUPS,
            crashes_left: CRASHES,
            spurious_left: SPURIOUS_TIMEOUTS,
        }
    }

    fn canonical(&self, s: &RecState) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(s.master.attempt as u8);
        out.push(u8::from(s.master.gave_up));
        out.push(s.master.placed.map_or(0, |w| w as u8 + 1));
        out.push(s.master.resends_left);
        match &s.master.fsm {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                out.push(f.target() as u8);
                out.extend_from_slice(&f.round().to_le_bytes());
                out.extend_from_slice(&f.exchange_salt().to_le_bytes());
                out.push(match f.phase() {
                    TransferPhase::Offering => 0,
                    TransferPhase::Streaming => 1,
                    TransferPhase::Complete | TransferPhase::Failed(_) => 2,
                });
            }
        }
        for w in &s.workers {
            let bytes = w.canonical_protocol_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        for &c in &s.crashed {
            out.push(u8::from(c));
        }
        for &l in &s.lost_to {
            out.push(u8::from(l));
        }
        out.extend_from_slice(&[s.drops_left, s.dups_left, s.crashes_left, s.spurious_left]);
        out.extend_from_slice(&(s.net.len() as u32).to_le_bytes());
        for f in &s.net {
            out.push(f.to as u8);
            out.push(f.from as u8);
            out.extend_from_slice(&(f.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&f.bytes);
        }
        out
    }

    fn successors(&self, s: &RecState) -> Vec<Outcome<RecState>> {
        let n = self.node_names().len();
        let mut out = Vec::new();
        let idxs = distinct_frames(&s.net);

        // Deliver any in-flight frame (reordering is free: any order).
        for &i in &idxs {
            let mut t = s.clone();
            let frame = t.net.remove(i);
            let label = frame_label(&frame);
            let mut violation = None;
            let row;
            if frame.to == MASTER {
                self.master_on_frame(&mut t.master, &mut t.net, &frame.bytes);
                row = msc_message(n, frame.from, frame.to, &label, b'>');
            } else if t.crashed[frame.to - 1] {
                // Delivery into a blackholed node is loss — but the crash
                // itself is the excuse, not the lost frame.
                row = msc_message(n, frame.from, frame.to, &label, b'X');
            } else {
                violation = deliver_to_worker(
                    &mut t.workers[frame.to - 1],
                    frame.to,
                    &frame.bytes,
                    &[],
                    &mut t.net,
                );
                row = msc_message(n, frame.from, frame.to, &label, b'>');
            }
            t.net.sort();
            out.push(Outcome {
                row,
                state: t,
                violation,
            });
        }

        // Adversary: drop a frame.
        if s.drops_left > 0 {
            for &i in &idxs {
                let mut t = s.clone();
                let frame = t.net.remove(i);
                if frame.to != MASTER {
                    t.lost_to[frame.to - 1] = true;
                }
                t.drops_left -= 1;
                let label = format!("DROP {}", frame_label(&frame));
                out.push(Outcome {
                    row: msc_message(n, frame.from, frame.to, &label, b'X'),
                    state: t,
                    violation: None,
                });
            }
        }

        // Adversary: duplicate a frame.
        if s.dups_left > 0 {
            for &i in &idxs {
                let mut t = s.clone();
                let frame = t.net[i].clone();
                let label = format!("DUP {}", frame_label(&frame));
                let row = msc_message(n, frame.from, frame.to, &label, b'>');
                t.net.push(frame);
                t.net.sort();
                t.dups_left -= 1;
                out.push(Outcome {
                    row,
                    state: t,
                    violation: None,
                });
            }
        }

        // Adversary: crash (blackhole) a worker.
        if s.crashes_left > 0 {
            for w in 0..s.workers.len() {
                if s.crashed[w] {
                    continue;
                }
                let mut t = s.clone();
                t.crashed[w] = true;
                t.crashes_left -= 1;
                out.push(Outcome {
                    row: msc_note(n, w + 1, "crash (blackhole)"),
                    state: t,
                    violation: None,
                });
            }
        }

        // Master ARQ resend of the in-flight frame.
        if s.master.resends_left > 0 {
            if let Some(fsm) = &s.master.fsm {
                if let Some(frame) =
                    fsm.current_frame(&self.manifest, &self.state_bytes, CHUNK_BYTES)
                {
                    let mut t = s.clone();
                    t.master.resends_left -= 1;
                    let net_frame = Frame {
                        to: frame.to,
                        from: MASTER,
                        bytes: frame.encode(None),
                    };
                    let label = format!("RESEND {}", frame_label(&net_frame));
                    let row = msc_message(n, MASTER, net_frame.to, &label, b'>');
                    t.net.push(net_frame);
                    t.net.sort();
                    out.push(Outcome {
                        row,
                        state: t,
                        violation: None,
                    });
                }
            }
        }

        // Master deadline expiry. While a signal can still reach the
        // master — an ack in flight toward it, a frame in flight toward
        // the live current target (whose delivery generates an ack), or a
        // resend available — an expiry is *spurious* and consumes
        // adversary budget. Once the master is genuinely stuck (nothing
        // inbound, nothing deliverable to a live target, no resends) the
        // deadline MUST fire, free — which is what guarantees every
        // exploration path terminates AND makes "fault-free ⇒ placed on
        // worker 1" a theorem rather than a timing accident.
        if let Some(fsm) = &s.master.fsm {
            let target = fsm.target();
            let may_still_hear = s.net.iter().any(|f| f.to == MASTER)
                || (!s.crashed[target - 1] && s.net.iter().any(|f| f.to == target))
                || s.master.resends_left > 0;
            let free = !may_still_hear;
            if free || s.spurious_left > 0 {
                let mut t = s.clone();
                if !free {
                    t.spurious_left -= 1;
                }
                let label = format!(
                    "deadline expired @r{} — abort attempt, backtrack",
                    fsm.round()
                );
                self.master_timeout(&mut t.master, &mut t.net);
                t.net.sort();
                out.push(Outcome {
                    row: msc_note(n, MASTER, &label),
                    state: t,
                    violation: None,
                });
            }
        }

        out
    }

    fn check(&self, s: &RecState) -> Option<String> {
        // Budget soundness holds in every reachable state.
        for (w, worker) in s.workers.iter().enumerate() {
            let node = w + 1;
            let b = worker.budget();
            if b.hosted_bytes() + b.runtime_bytes() > b.capacity_bytes() {
                return Some(format!(
                    "worker {node} budget overcommitted: hosted {} + runtime {} > certified capacity {}",
                    b.hosted_bytes(),
                    b.runtime_bytes(),
                    b.capacity_bytes()
                ));
            }
            let residents: u64 = worker.hosted().values().map(|h| h.resident_bytes).sum();
            if residents != b.hosted_bytes() {
                return Some(format!(
                    "worker {node} charge ledger drift: residents sum {residents} != charged {}",
                    b.hosted_bytes()
                ));
            }
        }
        if !self.quiescent(s) {
            return None;
        }
        // Quiescence invariants.
        if s.drops_left == DROPS
            && s.dups_left == DUPS
            && s.crashes_left == CRASHES
            && s.spurious_left == SPURIOUS_TIMEOUTS
            && s.master.placed != Some(CANDIDATES[0])
        {
            return Some(format!(
                "fault-free execution did not place expert {EXPERT} on worker {}",
                CANDIDATES[0]
            ));
        }
        let live_hosts: Vec<usize> = s
            .workers
            .iter()
            .enumerate()
            .filter(|(w, worker)| !s.crashed[*w] && worker.hosted().contains_key(&EXPERT))
            .map(|(w, _)| w + 1)
            .collect();
        if live_hosts.len() > 1 {
            return Some(format!(
                "expert {EXPERT} double-hosted on workers {live_hosts:?}"
            ));
        }
        if let Some(p) = s.master.placed {
            if !s.crashed[p - 1] && !s.workers[p - 1].hosted().contains_key(&EXPERT) {
                return Some(format!(
                    "placement points at worker {p} but expert {EXPERT} is not resident there (zero-hosted)"
                ));
            }
        }
        for (w, worker) in s.workers.iter().enumerate() {
            let node = w + 1;
            if s.crashed[w] || s.lost_to[w] {
                continue; // crash or an inbound drop excuses leftovers
            }
            let hosts_unplaced =
                worker.hosted().contains_key(&EXPERT) && s.master.placed != Some(node);
            let partial_open = worker.partial().is_some();
            if hosts_unplaced || partial_open {
                return Some(format!(
                    "stranded receiver memory on worker {node}: hosted-unplaced={hosts_unplaced} \
                     partial={partial_open}, with no inbound drop or crash to excuse it \
                     (a lost worker→master ack is not an excuse)"
                ));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: inference session gather (stale / corrupt / dup results)
// ---------------------------------------------------------------------------

const SESSION_ROUND: u64 = 500;

/// Canned per-node result rows: `(label, entropy)`. Entropies are strictly
/// ordered so the expected arg-min winner is unambiguous for every
/// responder subset.
const LOCAL_RESULT: (usize, f32) = (0, 0.75);
const WORKER_RESULTS: [(usize, f32); 2] = [(1, 0.5), (2, 0.25)];

#[derive(Clone)]
struct SessState {
    gather: GatherFsm,
    fold: TeamFold,
    /// Bit `p` set when peer `p` contributed a folded result.
    responded: u8,
    workers: Vec<WorkerFsm>,
    net: Vec<Frame>,
    drops_left: u8,
    dups_left: u8,
}

struct Session;

impl Session {
    fn expected_winner(responded: u8) -> (usize, usize, f32) {
        let mut best = (LOCAL_RESULT.0, MASTER, LOCAL_RESULT.1);
        for (w, &(label, entropy)) in WORKER_RESULTS.iter().enumerate() {
            let node = w + 1;
            if responded & (1 << node) != 0 && entropy < best.2 {
                best = (label, node, entropy);
            }
        }
        best
    }
}

impl Scenario for Session {
    type State = SessState;

    fn node_names(&self) -> &'static [&'static str] {
        &["master", "worker1", "worker2"]
    }

    fn initial(&self) -> SessState {
        let mut fold = TeamFold::new(None);
        fold.seed(MASTER, vec![LOCAL_RESULT]);
        let input = Envelope::new(SESSION_ROUND, PayloadKind::Input, Vec::new()).encode();
        // Adversarial pre-staged traffic: a stale result from the previous
        // round that would WIN the arg-min if wrongly folded, and a
        // corrupt frame that would also win if its CRC failure were
        // ignored.
        let stale = Envelope::new(
            SESSION_ROUND - 1,
            PayloadKind::Result,
            encode_results(&[(9, 0.01)]),
        )
        .encode();
        let mut corrupt = Envelope::new(
            SESSION_ROUND,
            PayloadKind::Result,
            encode_results(&[(9, 0.02)]),
        )
        .encode();
        if let Some(b) = corrupt.last_mut() {
            *b ^= 0x20;
        }
        let mut net = vec![
            Frame {
                to: 1,
                from: MASTER,
                bytes: input.clone(),
            },
            Frame {
                to: 2,
                from: MASTER,
                bytes: input,
            },
            Frame {
                to: MASTER,
                from: 1,
                bytes: stale,
            },
            Frame {
                to: MASTER,
                from: 2,
                bytes: corrupt,
            },
        ];
        net.sort();
        SessState {
            gather: GatherFsm::new(SESSION_ROUND, false),
            fold,
            responded: 0,
            workers: vec![
                WorkerFsm::new(MASTER, HostBudget::unlimited()),
                WorkerFsm::new(MASTER, HostBudget::unlimited()),
            ],
            net,
            drops_left: DROPS,
            dups_left: DUPS,
        }
    }

    fn canonical(&self, s: &SessState) -> Vec<u8> {
        let mut out = Vec::new();
        for p in s.fold.clone().into_predictions() {
            out.extend_from_slice(&(p.label as u64).to_le_bytes());
            out.extend_from_slice(&(p.expert as u64).to_le_bytes());
            out.extend_from_slice(&p.entropy.to_bits().to_le_bytes());
        }
        out.push(s.responded);
        for w in &s.workers {
            let bytes = w.canonical_protocol_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out.extend_from_slice(&[s.drops_left, s.dups_left]);
        out.extend_from_slice(&(s.net.len() as u32).to_le_bytes());
        for f in &s.net {
            out.push(f.to as u8);
            out.push(f.from as u8);
            out.extend_from_slice(&(f.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&f.bytes);
        }
        out
    }

    fn successors(&self, s: &SessState) -> Vec<Outcome<SessState>> {
        let n = self.node_names().len();
        let mut out = Vec::new();
        let idxs = distinct_frames(&s.net);

        for &i in &idxs {
            let mut t = s.clone();
            let frame = t.net.remove(i);
            let label = frame_label(&frame);
            let row = msc_message(n, frame.from, frame.to, &label, b'>');
            let mut violation = None;
            if frame.to == MASTER {
                let from = frame.from;
                match t.gather.step(&frame.bytes, |p| t.fold.fold(from, p)) {
                    GatherVerdict::Accepted { folded } => {
                        if folded {
                            t.responded |= 1 << frame.from;
                        }
                    }
                    GatherVerdict::Discarded(_) => {}
                    GatherVerdict::Fatal(e) => {
                        violation = Some(format!("lax-mode gather returned fatal: {e}"));
                    }
                }
                if violation.is_none() {
                    // Idempotence: re-folding the identical frame must not
                    // change the predictions (min-fold absorbs duplicates).
                    let before = t.fold.clone().into_predictions();
                    let mut again = t.fold.clone();
                    let _ = t.gather.step(&frame.bytes, |p| again.fold(from, p));
                    if again.into_predictions() != before {
                        violation = Some(format!(
                            "idempotence violated: duplicate gather frame [{label}] moved the arg-min"
                        ));
                    }
                }
            } else {
                let canned = encode_results(&[WORKER_RESULTS[frame.to - 1]]);
                violation = deliver_to_worker(
                    &mut t.workers[frame.to - 1],
                    frame.to,
                    &frame.bytes,
                    &canned,
                    &mut t.net,
                );
            }
            t.net.sort();
            out.push(Outcome {
                row,
                state: t,
                violation,
            });
        }

        if s.drops_left > 0 {
            for &i in &idxs {
                let mut t = s.clone();
                let frame = t.net.remove(i);
                t.drops_left -= 1;
                let label = format!("DROP {}", frame_label(&frame));
                out.push(Outcome {
                    row: msc_message(n, frame.from, frame.to, &label, b'X'),
                    state: t,
                    violation: None,
                });
            }
        }

        if s.dups_left > 0 {
            for &i in &idxs {
                let mut t = s.clone();
                let frame = t.net[i].clone();
                let label = format!("DUP {}", frame_label(&frame));
                let row = msc_message(n, frame.from, frame.to, &label, b'>');
                t.net.push(frame);
                t.net.sort();
                t.dups_left -= 1;
                out.push(Outcome {
                    row,
                    state: t,
                    violation: None,
                });
            }
        }

        out
    }

    fn check(&self, s: &SessState) -> Option<String> {
        if !s.net.is_empty() {
            return None;
        }
        // Quiescence: the fold must equal the arg-min recomputed
        // independently over exactly the responders — stale and corrupt
        // frames must have contributed nothing.
        let (label, expert, entropy) = Session::expected_winner(s.responded);
        let got = s.fold.clone().into_predictions();
        let Some(p) = got.first() else {
            return Some("gather lost its predictions".to_string());
        };
        if p.label != label || p.expert != expert || p.entropy != entropy {
            return Some(format!(
                "arg-min diverged from responders {{responded bits {:#05b}}}: got (label {}, expert {}, h {}), expected (label {label}, expert {expert}, h {entropy})",
                s.responded, p.label, p.expert, p.entropy
            ));
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs the full `cargo xtask mc` pass: recovery exploration, the mutant
/// negative control (which must violate), the session-gather exploration,
/// and the fault-model cross-check against the real `ChaosTransport`.
///
/// Returns the byte-stable summary lines (explored-state / transition
/// counts and the mutant's minimized counterexample); appends a
/// [`Diagnostic`] per failure. Timing goes to stderr in the caller, never
/// into these lines.
pub fn check(allow_truncation: bool, diags: &mut Vec<Diagnostic>) -> Vec<String> {
    let mut lines = Vec::new();

    let handle_truncation = |name: &str,
                             report: &ExplorationReport,
                             diags: &mut Vec<Diagnostic>,
                             lines: &mut Vec<String>| {
        if let Some(why) = &report.truncated {
            if allow_truncation {
                lines.push(format!(
                    "xtask mc: {name} — WARNING: exploration truncated ({why}); \
                         coverage bounded, accepted via --allow-truncation"
                ));
            } else {
                diags.push(Diagnostic {
                    path: format!("mc://{name}"),
                    line: 0,
                    rule: "mc-truncated",
                    message: format!(
                        "exploration truncated ({why}); results prove nothing about \
                             unexplored interleavings — raise the budget or acknowledge \
                             with --allow-truncation"
                    ),
                });
            }
        }
    };

    // 1. Recovery protocol, production transition functions: must be
    //    violation-free over the whole bounded state space.
    let recovery = Recovery::new(FsmMutation::None);
    let report = explore(&recovery);
    handle_truncation("recovery", &report, diags, &mut lines);
    match &report.violation {
        None => lines.push(format!(
            "xtask mc: recovery protocol — explored {} states, {} transitions; 0 violations",
            report.states, report.transitions
        )),
        Some((trace, message)) => diags.push(Diagnostic {
            path: "mc://recovery".to_string(),
            line: 0,
            rule: "mc-invariant",
            message: render_counterexample(&recovery, trace, message),
        }),
    }

    // 2. Negative control: the StrandOnLostFinalAck mutant MUST violate,
    //    and its minimized counterexample is printed as an MSC every run —
    //    proof the checker still sees the stranded-memory bug class.
    let mutant = Recovery::new(FsmMutation::StrandOnLostFinalAck);
    let mutant_report = explore(&mutant);
    match &mutant_report.violation {
        Some((trace, message)) => {
            lines.push(format!(
                "xtask mc: negative control — mutant caught after {} states ({} events, minimized):",
                mutant_report.states,
                trace.len()
            ));
            lines.push(render_counterexample(&mutant, trace, message));
        }
        None => diags.push(Diagnostic {
            path: "mc://negative-control".to_string(),
            line: 0,
            rule: "mc-negative-control",
            message: format!(
                "the StrandOnLostFinalAck mutant produced no invariant violation over {} \
                 states — the checker can no longer see the bug class it exists to prevent",
                mutant_report.states
            ),
        }),
    }

    // 3. Session gather leg.
    let session = Session;
    let report = explore(&session);
    handle_truncation("session", &report, diags, &mut lines);
    match &report.violation {
        None => lines.push(format!(
            "xtask mc: session gather — explored {} states, {} transitions; 0 violations",
            report.states, report.transitions
        )),
        Some((trace, message)) => diags.push(Diagnostic {
            path: "mc://session".to_string(),
            line: 0,
            rule: "mc-invariant",
            message: render_counterexample(&session, trace, message),
        }),
    }

    // 4. Fault-model cross-check: the adversary's drop/dup/reorder
    //    semantics must match the live ChaosTransport on seeded schedules.
    match netmodel::verify_seeds(&[1, 2, 3, 4, 5, 6, 7, 8]) {
        Ok(frames) => lines.push(format!(
            "xtask mc: fault model — {frames} frames replayed against ChaosTransport, 0 divergences"
        )),
        Err(e) => diags.push(Diagnostic {
            path: "mc://fault-model".to_string(),
            line: 0,
            rule: "mc-fault-model",
            message: e,
        }),
    }

    lines
}

fn render_counterexample<Sc: Scenario>(sc: &Sc, trace: &[String], message: &str) -> String {
    let mut out = String::new();
    out.push_str(&msc_header(sc.node_names()));
    out.push('\n');
    for row in trace {
        out.push_str(row);
        out.push('\n');
    }
    out.push_str("VIOLATION: ");
    out.push_str(message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_fsm_explores_clean() {
        let report = explore(&Recovery::new(FsmMutation::None));
        assert!(report.truncated.is_none(), "{:?}", report.truncated);
        assert!(
            report.violation.is_none(),
            "{}",
            report
                .violation
                .map(|(t, m)| format!("{m}\n{}", t.join("\n")))
                .unwrap_or_default()
        );
        assert!(report.states > 100, "suspiciously small state space");
    }

    #[test]
    fn mutant_is_caught_with_minimal_trace() {
        let report = explore(&Recovery::new(FsmMutation::StrandOnLostFinalAck));
        let (trace, message) = report.violation.expect("mutant must violate");
        assert!(
            message.contains("stranded"),
            "expected a stranded-memory violation, got: {message}"
        );
        assert!(!trace.is_empty());
    }

    #[test]
    fn session_gather_explores_clean() {
        let report = explore(&Session);
        assert!(report.truncated.is_none());
        assert!(
            report.violation.is_none(),
            "{}",
            report
                .violation
                .map(|(t, m)| format!("{m}\n{}", t.join("\n")))
                .unwrap_or_default()
        );
    }

    #[test]
    fn exploration_counts_are_deterministic() {
        let a = explore(&Recovery::new(FsmMutation::None));
        let b = explore(&Recovery::new(FsmMutation::None));
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn msc_rows_are_well_formed() {
        let header = msc_header(&["master", "worker1", "worker2"]);
        assert!(header.contains("master") && header.contains("worker2"));
        let row = msc_message(3, 0, 2, "Offer e7 @r9000", b'>');
        assert!(row.contains("Offer e7 @r9000"));
        assert!(row.ends_with('>') || row.contains('>'));
        let note = msc_note(3, 1, "crash (blackhole)");
        assert!(note.contains("crash"));
    }
}
