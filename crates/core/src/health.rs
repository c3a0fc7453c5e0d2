//! Heartbeat-based failure detection for the collaborative inference
//! protocol.
//!
//! The master treats each round's reply as a heartbeat: a worker that
//! answers is **live**; consecutive misses walk it through **suspect**
//! into **quarantined**, at which point the master stops spending
//! broadcast bytes and gather waits on it entirely. Quarantined peers are
//! periodically **probed** with a tiny (16-byte) envelope; an
//! acknowledgement readmits them to the team. This is the DEFER-style
//! "keep serving while nodes come and go" behaviour the edge setting
//! demands — a worker walking out of WiFi range degrades the team for a
//! few rounds instead of stalling every inference on its timeout forever.
//!
//! State machine (driven once per inference round per peer):
//!
//! ```text
//!            miss (< M total)            miss (M-th)
//!   Live ───────────────────▶ Suspect ───────────────▶ Quarantined
//!    ▲  ▲                        │                      │       ▲
//!    │  └────── reply ───────────┘     probe interval   │       │
//!    │                                  elapsed         ▼       │ probe
//!    └───────────────── probe ack ─────────────────── Probing ──┘ missed
//! ```

use crate::team::TeamPrediction;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use teamnet_obs::Counter;

/// Liveness classification of one peer, as seen by the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerHealth {
    /// Responding normally; receives every broadcast.
    Live,
    /// Missed at least one recent round but not yet quarantined; still
    /// receives broadcasts.
    Suspect,
    /// Missed `quarantine_after` consecutive rounds; skipped entirely
    /// (no broadcast, no gather wait).
    Quarantined,
    /// Quarantined peer currently being probed for readmission.
    Probing,
}

/// Failure-detector policy knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureDetectorConfig {
    /// Consecutive misses before a peer is marked [`PeerHealth::Suspect`].
    pub suspect_after: u32,
    /// Consecutive misses (M) before a peer is quarantined.
    pub quarantine_after: u32,
    /// Rounds between readmission probes while quarantined.
    pub probe_interval: u64,
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            suspect_after: 1,
            quarantine_after: 3,
            probe_interval: 4,
        }
    }
}

/// How the master should engage a peer this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactPlan {
    /// Send the full input batch and wait for results.
    Full,
    /// Send a lightweight probe and wait for its acknowledgement.
    Probe,
    /// Do not contact; do not wait.
    Skip,
}

#[derive(Debug, Clone)]
struct PeerState {
    health: PeerHealth,
    consecutive_misses: u32,
    rounds_since_probe: u64,
}

/// Per-peer liveness tracker owned by the master's inference session.
///
/// Peers are kept in a `BTreeMap` keyed by node id so any iteration over
/// them (diagnostics, reports) happens in id order — the `det-map` audit
/// rule forbids hash-ordered iteration anywhere on the protocol path.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: FailureDetectorConfig,
    peers: BTreeMap<usize, PeerState>,
    /// Incremented on every health-state change (Live→Suspect,
    /// Quarantined→Probing, readmissions, …) when wired via
    /// [`FailureDetector::set_transition_counter`].
    transitions: Option<Counter>,
}

impl FailureDetector {
    /// Creates a detector over `num_nodes` peers, all initially live.
    pub fn new(num_nodes: usize, config: FailureDetectorConfig) -> Self {
        FailureDetector {
            config,
            peers: (0..num_nodes)
                .map(|id| {
                    (
                        id,
                        PeerState {
                            health: PeerHealth::Live,
                            consecutive_misses: 0,
                            rounds_since_probe: 0,
                        },
                    )
                })
                .collect(),
            transitions: None,
        }
    }

    /// Wires a metrics counter that ticks on every peer health-state
    /// transition (the `detector.transitions` counter of DESIGN.md §12).
    pub fn set_transition_counter(&mut self, counter: Counter) {
        self.transitions = Some(counter);
    }

    fn note_transition(&self, from: PeerHealth, to: PeerHealth) {
        if from != to {
            if let Some(c) = &self.transitions {
                c.inc();
            }
        }
    }

    /// Current health of `peer` (out-of-range peers read as quarantined).
    pub fn health(&self, peer: usize) -> PeerHealth {
        self.peers
            .get(&peer)
            .map_or(PeerHealth::Quarantined, |p| p.health)
    }

    /// Consecutive misses recorded for `peer`.
    pub fn misses(&self, peer: usize) -> u32 {
        self.peers.get(&peer).map_or(0, |p| p.consecutive_misses)
    }

    /// Decides how to engage `peer` this round. Call exactly once per peer
    /// per round: quarantined peers accrue probe-interval credit here and
    /// transition to [`PeerHealth::Probing`] when a probe is due.
    pub fn plan(&mut self, peer: usize) -> ContactPlan {
        let Some(state) = self.peers.get_mut(&peer) else {
            return ContactPlan::Skip;
        };
        let before = state.health;
        let plan = match state.health {
            PeerHealth::Live | PeerHealth::Suspect => ContactPlan::Full,
            PeerHealth::Quarantined => {
                state.rounds_since_probe += 1;
                if state.rounds_since_probe >= self.config.probe_interval {
                    state.health = PeerHealth::Probing;
                    ContactPlan::Probe
                } else {
                    ContactPlan::Skip
                }
            }
            // Only reachable if the caller forgot to record the previous
            // probe's outcome; probe again rather than wedging.
            PeerHealth::Probing => ContactPlan::Probe,
        };
        let after = state.health;
        self.note_transition(before, after);
        plan
    }

    /// Records a reply (result or probe ack) from `peer`: readmission.
    pub fn record_success(&mut self, peer: usize) {
        if let Some(state) = self.peers.get_mut(&peer) {
            let before = state.health;
            state.health = PeerHealth::Live;
            state.consecutive_misses = 0;
            state.rounds_since_probe = 0;
            self.note_transition(before, PeerHealth::Live);
        }
    }

    /// Records a missed reply from `peer` (timeout, undecodable response,
    /// or failed send).
    pub fn record_miss(&mut self, peer: usize) {
        let quarantine_after = self.config.quarantine_after.max(1);
        let suspect_after = self.config.suspect_after.max(1);
        if let Some(state) = self.peers.get_mut(&peer) {
            let before = state.health;
            state.consecutive_misses = state.consecutive_misses.saturating_add(1);
            if state.health == PeerHealth::Probing {
                // Failed readmission probe: back to quarantine, restart the
                // probe clock.
                state.health = PeerHealth::Quarantined;
                state.rounds_since_probe = 0;
            } else if state.consecutive_misses >= quarantine_after {
                state.health = PeerHealth::Quarantined;
                state.rounds_since_probe = 0;
            } else if state.consecutive_misses >= suspect_after {
                state.health = PeerHealth::Suspect;
            }
            let after = state.health;
            self.note_transition(before, after);
        }
    }
}

/// One peer's slice of an [`InferenceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerReport {
    /// Health after this round's evidence was folded in.
    pub health: PeerHealth,
    /// Whether the master sent this peer anything this round.
    pub contacted: bool,
    /// Whether the contact was a lightweight readmission probe rather than
    /// the full input broadcast.
    pub probed: bool,
    /// Whether a valid, current-round reply arrived in time.
    pub responded: bool,
    /// Consecutive misses on record after this round.
    pub consecutive_misses: u32,
    /// Experts this peer is hosting on behalf of quarantined homes via
    /// the recovery protocol (DESIGN.md §14); empty outside recovery.
    #[serde(default)]
    pub hosted_experts: Vec<usize>,
}

/// The outcome of one fault-tolerant inference round: predictions plus
/// per-peer health and protocol-hygiene counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Round stamp this report describes.
    pub round: u64,
    /// Per-row winning predictions (always one per input row).
    pub predictions: Vec<TeamPrediction>,
    /// Per-node health entries, keyed by node id; an ordered map so the
    /// report serializes and iterates identically run-to-run (`det-map`).
    /// The master's own entry is always live/responded.
    pub peers: BTreeMap<usize, PeerReport>,
    /// Replies discarded because they carried an earlier round's stamp.
    pub stale_discarded: u64,
    /// Replies discarded because their payload CRC failed.
    pub corrupt_discarded: u64,
    /// Replies discarded because they failed structural decoding.
    pub malformed_discarded: u64,
    /// Current expert → host map from the recovery manager: every
    /// registered expert and the node holding it after this round's
    /// recovery pass. Empty when recovery is not armed.
    #[serde(default)]
    pub expert_hosts: BTreeMap<usize, usize>,
    /// Cumulative successful expert migrations observed by the session up
    /// to and including this round.
    #[serde(default)]
    pub migrations: u64,
}

impl InferenceReport {
    /// Node ids that were contacted and responded this round (the experts
    /// whose predictions can appear in `predictions`), including the
    /// master itself.
    pub fn responsive_peers(&self) -> Vec<usize> {
        self.peers
            .iter()
            .filter(|(_, p)| p.responded)
            .map(|(&i, _)| i)
            .collect()
    }

    /// A canonical, byte-stable rendering of everything in the report
    /// *except* the absolute round stamp.
    ///
    /// Round stamps come from a process-global counter, so two identical
    /// runs in different processes (or different orderings within one
    /// process) disagree on them even when the protocol behaved
    /// identically; the summary deliberately leaves them out so seeded
    /// chaos soaks can assert byte-identical behaviour across invocations.
    /// Entropies are rendered as `f32::to_bits` hex — exact, not subject
    /// to float-formatting drift.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.predictions.iter().enumerate() {
            let _ = writeln!(
                out,
                "pred {i}: label={} expert={} entropy={:08x}",
                p.label,
                p.expert,
                p.entropy.to_bits()
            );
        }
        for (id, p) in &self.peers {
            let _ = writeln!(
                out,
                "peer {id}: health={:?} contacted={} probed={} responded={} misses={}",
                p.health, p.contacted, p.probed, p.responded, p.consecutive_misses
            );
        }
        for (expert, host) in &self.expert_hosts {
            let _ = writeln!(out, "host {expert}: node={host}");
        }
        let _ = writeln!(
            out,
            "discarded: stale={} corrupt={} malformed={}",
            self.stale_discarded, self.corrupt_discarded, self.malformed_discarded
        );
        let _ = writeln!(out, "recovery: migrations={}", self.migrations);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(m: u32, probe: u64) -> FailureDetectorConfig {
        FailureDetectorConfig {
            suspect_after: 1,
            quarantine_after: m,
            probe_interval: probe,
        }
    }

    #[test]
    fn misses_walk_live_to_quarantined() {
        let mut fd = FailureDetector::new(2, config(3, 4));
        assert_eq!(fd.health(1), PeerHealth::Live);
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Suspect);
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Suspect);
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Quarantined);
        assert_eq!(fd.misses(1), 3);
    }

    #[test]
    fn success_resets_from_any_state() {
        let mut fd = FailureDetector::new(2, config(2, 4));
        fd.record_miss(1);
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Quarantined);
        fd.record_success(1);
        assert_eq!(fd.health(1), PeerHealth::Live);
        assert_eq!(fd.misses(1), 0);
    }

    #[test]
    fn quarantined_peer_is_skipped_until_probe_due() {
        let mut fd = FailureDetector::new(2, config(1, 3));
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Quarantined);
        assert_eq!(fd.plan(1), ContactPlan::Skip);
        assert_eq!(fd.plan(1), ContactPlan::Skip);
        assert_eq!(fd.plan(1), ContactPlan::Probe);
        assert_eq!(fd.health(1), PeerHealth::Probing);
    }

    #[test]
    fn failed_probe_restarts_quarantine_clock() {
        let mut fd = FailureDetector::new(2, config(1, 2));
        fd.record_miss(1);
        assert_eq!(fd.plan(1), ContactPlan::Skip);
        assert_eq!(fd.plan(1), ContactPlan::Probe);
        fd.record_miss(1);
        assert_eq!(fd.health(1), PeerHealth::Quarantined);
        // Clock restarted: skip again before the next probe.
        assert_eq!(fd.plan(1), ContactPlan::Skip);
        assert_eq!(fd.plan(1), ContactPlan::Probe);
    }

    #[test]
    fn successful_probe_readmits() {
        let mut fd = FailureDetector::new(2, config(1, 1));
        fd.record_miss(1);
        assert_eq!(fd.plan(1), ContactPlan::Probe);
        fd.record_success(1);
        assert_eq!(fd.health(1), PeerHealth::Live);
        assert_eq!(fd.plan(1), ContactPlan::Full);
    }

    #[test]
    fn live_and_suspect_get_full_contact() {
        let mut fd = FailureDetector::new(3, config(5, 2));
        assert_eq!(fd.plan(1), ContactPlan::Full);
        fd.record_miss(2);
        assert_eq!(fd.health(2), PeerHealth::Suspect);
        assert_eq!(fd.plan(2), ContactPlan::Full);
    }

    #[test]
    fn out_of_range_peer_is_skipped() {
        let mut fd = FailureDetector::new(1, FailureDetectorConfig::default());
        assert_eq!(fd.plan(7), ContactPlan::Skip);
        assert_eq!(fd.health(7), PeerHealth::Quarantined);
        fd.record_miss(7); // must not panic
    }

    fn peer(responded: bool) -> PeerReport {
        PeerReport {
            health: PeerHealth::Live,
            contacted: true,
            probed: false,
            responded,
            consecutive_misses: 0,
            hosted_experts: Vec::new(),
        }
    }

    fn report() -> InferenceReport {
        InferenceReport {
            round: 1,
            predictions: vec![TeamPrediction {
                label: 3,
                expert: 1,
                entropy: 0.25,
            }],
            peers: [(0, peer(true)), (1, peer(false)), (2, peer(true))]
                .into_iter()
                .collect(),
            stale_discarded: 4,
            corrupt_discarded: 0,
            malformed_discarded: 0,
            expert_hosts: BTreeMap::new(),
            migrations: 0,
        }
    }

    #[test]
    fn responsive_peers_lists_responders() {
        assert_eq!(report().responsive_peers(), vec![0, 2]);
    }

    #[test]
    fn summary_is_byte_stable_and_round_free() {
        let a = report();
        let mut b = report();
        b.round = 999; // different absolute round, same behaviour
        assert_eq!(a.summary(), b.summary());
        assert!(a.summary().contains("stale=4"), "{}", a.summary());
        assert!(a.summary().contains("entropy=3e800000"), "{}", a.summary());
    }

    #[test]
    fn summary_transcript_format_is_pinned() {
        // Regression test for the transcript format, including the
        // recovery fields: consumers (soak tests, trace diffing) depend
        // on these exact bytes.
        let mut r = report();
        r.expert_hosts = [(1, 2), (5, 0)].into_iter().collect();
        r.migrations = 3;
        if let Some(p) = r.peers.get_mut(&2) {
            p.hosted_experts = vec![1];
        }
        let expected = "\
pred 0: label=3 expert=1 entropy=3e800000
peer 0: health=Live contacted=true probed=false responded=true misses=0
peer 1: health=Live contacted=true probed=false responded=false misses=0
peer 2: health=Live contacted=true probed=false responded=true misses=0
host 1: node=2
host 5: node=0
discarded: stale=4 corrupt=0 malformed=0
recovery: migrations=3
";
        assert_eq!(r.summary(), expected);
        // Without recovery armed the host lines vanish but the counter
        // line stays, so transcripts remain line-for-line comparable.
        assert!(report().summary().ends_with("recovery: migrations=0\n"));
        assert!(!report().summary().contains("host "));
    }

    #[test]
    fn transition_counter_ticks_on_state_changes_only() {
        let counter = Counter::default();
        let mut fd = FailureDetector::new(2, config(2, 1));
        fd.set_transition_counter(counter.clone());
        fd.record_success(1); // Live -> Live: no transition
        assert_eq!(counter.get(), 0);
        fd.record_miss(1); // Live -> Suspect
        assert_eq!(counter.get(), 1);
        fd.record_miss(1); // Suspect -> Quarantined
        assert_eq!(counter.get(), 2);
        assert_eq!(fd.plan(1), ContactPlan::Probe); // Quarantined -> Probing
        assert_eq!(counter.get(), 3);
        fd.record_success(1); // Probing -> Live (readmission)
        assert_eq!(counter.get(), 4);
        assert_eq!(fd.plan(1), ContactPlan::Full); // Live stays Live
        assert_eq!(counter.get(), 4);
    }

    /// One step of detector history for the probe-credit properties:
    /// either the round's reply evidence or a plan() call.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Success,
        Miss,
        Plan,
    }

    fn apply(fd: &mut FailureDetector, step: Step) -> Option<ContactPlan> {
        match step {
            Step::Success => {
                fd.record_success(1);
                None
            }
            Step::Miss => {
                fd.record_miss(1);
                None
            }
            Step::Plan => Some(fd.plan(1)),
        }
    }

    mod probe_credit_props {
        use super::*;
        use proptest::prelude::*;

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            prop::collection::vec(
                (0u8..3).prop_map(|b| match b {
                    0 => Step::Success,
                    1 => Step::Miss,
                    _ => Step::Plan,
                }),
                0..60,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Probe credit must reset on every readmission: after any
            /// quarantine→readmission history whatsoever, the detector's
            /// future plan() stream is indistinguishable from a fresh
            /// detector's — stale probe credit must never leak across a
            /// readmission and fire an early probe.
            #[test]
            fn readmission_resets_probe_credit(
                history in steps(),
                m in 1u32..4,
                probe in 1u64..6,
                tail_plans in 1usize..12,
            ) {
                let cfg = FailureDetectorConfig {
                    suspect_after: 1,
                    quarantine_after: m,
                    probe_interval: probe,
                };
                let mut seasoned = FailureDetector::new(2, cfg.clone());
                for step in history {
                    apply(&mut seasoned, step);
                }
                // Readmission from whatever state the history produced.
                seasoned.record_success(1);
                let mut fresh = FailureDetector::new(2, cfg);
                fresh.record_success(1);
                for _ in 0..tail_plans {
                    prop_assert_eq!(seasoned.plan(1), fresh.plan(1));
                    prop_assert_eq!(seasoned.health(1), fresh.health(1));
                    prop_assert_eq!(seasoned.misses(1), fresh.misses(1));
                }
            }

            /// Two detectors fed the same seeded history agree on every
            /// plan() and on all visible state — no hidden drift between
            /// equivalent histories.
            #[test]
            fn equivalent_histories_never_drift(
                history in steps(),
                m in 1u32..4,
                probe in 1u64..6,
            ) {
                let cfg = FailureDetectorConfig {
                    suspect_after: 1,
                    quarantine_after: m,
                    probe_interval: probe,
                };
                let mut a = FailureDetector::new(2, cfg.clone());
                let mut b = FailureDetector::new(2, cfg);
                for step in history {
                    prop_assert_eq!(apply(&mut a, step), apply(&mut b, step));
                    prop_assert_eq!(a.health(1), b.health(1));
                    prop_assert_eq!(a.misses(1), b.misses(1));
                }
            }

            /// Across arbitrarily many quarantine→readmission cycles the
            /// probe cadence stays exactly `probe_interval`: after each
            /// fresh quarantine, plan() skips interval−1 times and then
            /// probes.
            #[test]
            fn probe_cadence_is_stable_across_cycles(
                cycles in 1usize..6,
                m in 1u32..4,
                probe in 1u64..6,
            ) {
                let cfg = FailureDetectorConfig {
                    suspect_after: 1,
                    quarantine_after: m,
                    probe_interval: probe,
                };
                let mut fd = FailureDetector::new(2, cfg);
                for _ in 0..cycles {
                    // Drive into quarantine.
                    for _ in 0..m {
                        fd.record_miss(1);
                    }
                    prop_assert_eq!(fd.health(1), PeerHealth::Quarantined);
                    // Credit accrues one skip at a time, then one probe.
                    for _ in 0..probe.saturating_sub(1) {
                        prop_assert_eq!(fd.plan(1), ContactPlan::Skip);
                    }
                    prop_assert_eq!(fd.plan(1), ContactPlan::Probe);
                    // Readmit; credit must be gone again.
                    fd.record_success(1);
                    prop_assert_eq!(fd.plan(1), ContactPlan::Full);
                }
            }
        }
    }
}
