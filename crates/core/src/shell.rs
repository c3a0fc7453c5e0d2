//! The IO shell of the round protocol: the one place a core frame is
//! stamped, sent and received (DESIGN.md §16–§17).
//!
//! The session's broadcast and gather, the recovery driver's exchanges and
//! the worker loop's replies all stamp their envelopes with [`stamp`], put
//! them on the wire through [`send`] and take master-bound frames off it through
//! [`recv_result`]; what a frame *means* is decided by the pure state
//! machines of [`crate::fsm`]. Owning both directions is what lets one
//! rule hold for every wait on the master: a transport's mailbox is keyed
//! `(peer, tag)` only, so several waits can sleep on one key — and each
//! takes only the frames stamped for its own round (or for no live round),
//! leaving a sibling's frame queued for the sibling, whom its delivery
//! already woke.

use crate::runtime::TAG_RESULT;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use teamnet_net::{
    peek_round, peek_trace, Clock, Envelope, NetError, PayloadKind, Tag, TraceContext, Transport,
    ENVELOPE_HEADER_LEN,
};
use teamnet_obs::Obs;

/// Process-wide round allocator: every round in this process — inference
/// or recovery transfer — gets a unique stamp, so a late reply can never
/// alias a later round even across sessions sharing a transport.
static NEXT_ROUND: AtomicU64 = AtomicU64::new(1);

/// The stamps of every round with a wait in flight. A result wait leaves
/// a frame stamped with one of these (other than its own) queued for its
/// owner; every other stamp is stale traffic.
///
/// Lock order: a mailbox's lock, then this one — [`recv_result`]'s filter
/// reads the set under the mailbox lock, and [`RoundRegistration`] takes
/// only this lock.
static LIVE_ROUNDS: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

/// A freshly stamped round, live for as long as the guard lives: dropping
/// it (on any exit path, including errors) makes whatever is still queued
/// for the round stale.
#[derive(Debug)]
pub(crate) struct RoundRegistration {
    /// The stamp every frame of this round carries.
    pub(crate) round: u64,
}

impl RoundRegistration {
    /// Allocates the next round stamp and marks it live. Open the round
    /// before its first send: once a frame is out, the reply can race
    /// back — possibly while a sibling wait reads the same mailbox key.
    pub(crate) fn open() -> Self {
        let round = NEXT_ROUND.fetch_add(1, Ordering::Relaxed);
        LIVE_ROUNDS.lock().insert(round);
        RoundRegistration { round }
    }
}

impl Drop for RoundRegistration {
    fn drop(&mut self) {
        LIVE_ROUNDS.lock().remove(&self.round);
    }
}

/// The stamp for a frame about to leave under `trace`: that trace id
/// parented on whatever span is open at the send site, so the receiver's
/// handling span becomes a causal child of it in the assembled cross-node
/// DAG. `None` (an untraced sender) leaves the frame wire-identical to v1.
pub(crate) fn stamp(obs: &Obs, trace: Option<u64>) -> Option<TraceContext> {
    trace.map(|id| obs.tracer.current_ctx(id))
}

/// One peer's copy of a frame every peer of the round shares. Unstamped,
/// that is `shared` itself — the batch was encoded and checksummed once —
/// and stamped it is re-encoded from a borrow of the shared payload.
pub(crate) fn stamped(
    shared: &[u8],
    round: u64,
    kind: PayloadKind,
    ctx: Option<TraceContext>,
) -> Cow<'_, [u8]> {
    if ctx.is_none() {
        return Cow::Borrowed(shared);
    }
    let payload = shared.get(ENVELOPE_HEADER_LEN..).unwrap_or_default();
    Cow::Owned(Envelope::encode_with(round, kind, ctx, |buf| {
        buf.extend_from_slice(payload)
    }))
}

/// Puts one encoded envelope on the wire; a stamped frame also records
/// the send half of its cross-node edge. This is the only enveloped
/// `transport.send` in core outside the pure state machines, which
/// `cargo xtask audit`'s `trace-propagation` rule enforces.
pub(crate) fn send(
    transport: &dyn Transport,
    obs: &Obs,
    label: &str,
    to: usize,
    tag: Tag,
    frame: &[u8],
) -> Result<(), NetError> {
    transport.send(to, tag, frame)?;
    if let Some(ctx) = peek_trace(frame) {
        obs.tracer
            .send_event(label, to as u64, ctx, frame.len() as u64);
    }
    Ok(())
}

/// Notes a frame that arrived from `from`: a stamped one records the
/// receive half of its cross-node edge. Returns the stamp.
pub(crate) fn received(obs: &Obs, label: &str, from: usize, frame: &[u8]) -> Option<TraceContext> {
    let ctx = peek_trace(frame)?;
    obs.tracer
        .recv_event(label, from as u64, ctx, frame.len() as u64);
    Some(ctx)
}

/// The master-side wait on the result tag, shared by a session's gather
/// and a recovery transfer's ack wait: the next frame from `peer` for the
/// wait that owns `round`, or `None` once `deadline` (on `clock`) has
/// passed with nothing taken (an expired deadline still polls once, so a
/// reply that is already there is never left behind).
///
/// The wait takes a frame stamped for `round`, for no live round, or with
/// no readable stamp — the last two are the caller's to classify (stale
/// or malformed). A frame stamped for a sibling's live round stays queued
/// for the sibling.
///
/// # Errors
///
/// Transport failures other than a timeout.
pub(crate) fn recv_result(
    transport: &dyn Transport,
    obs: &Obs,
    clock: &dyn Clock,
    round: u64,
    peer: usize,
    deadline: Instant,
) -> Result<Option<Vec<u8>>, NetError> {
    let ours = |frame: &[u8]| {
        peek_round(frame).is_none_or(|seen| seen == round || !LIVE_ROUNDS.lock().contains(&seen))
    };
    let remaining = deadline.saturating_duration_since(clock.now());
    match transport.recv_where(peer, TAG_RESULT, remaining, &ours) {
        Ok(bytes) => {
            received(obs, "result", peer, &bytes);
            Ok(Some(bytes))
        }
        Err(NetError::Timeout { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_net::Envelope;

    #[test]
    fn round_stamps_are_process_unique() {
        let a = RoundRegistration::open();
        let b = RoundRegistration::open();
        assert!(b.round > a.round);
    }

    #[test]
    fn a_result_wait_leaves_a_live_siblings_frame_queued() {
        let nodes = teamnet_net::ChannelTransport::mesh(2);
        let clock = teamnet_net::SystemClock;
        let obs = Obs::disabled();
        let mine = RoundRegistration::open();
        let sibling = RoundRegistration::open();
        let ended = RoundRegistration::open().round;
        let frame = |round| Envelope::new(round, PayloadKind::Result, vec![]).encode();
        for round in [sibling.round, ended, mine.round] {
            nodes[1].send(0, TAG_RESULT, &frame(round)).unwrap();
        }
        nodes[1].send(0, TAG_RESULT, b"no stamp").unwrap();
        let now = clock.now();
        let take = |round| recv_result(&nodes[0], &obs, &clock, round, 1, now).unwrap();
        // Stale, then its own, then unreadable: the sibling's stays put.
        assert_eq!(take(mine.round), Some(frame(ended)));
        assert_eq!(take(mine.round), Some(frame(mine.round)));
        assert_eq!(take(mine.round), Some(b"no stamp".to_vec()));
        assert_eq!(take(mine.round), None);
        assert_eq!(take(sibling.round), Some(frame(sibling.round)));
    }

    #[test]
    fn stamped_borrows_untraced_and_restamps_traced() {
        let shared = Envelope::new(7, PayloadKind::Input, vec![5; 40]).encode();
        assert!(matches!(
            stamped(&shared, 7, PayloadKind::Input, None),
            Cow::Borrowed(b) if std::ptr::eq(b, shared.as_slice())
        ));
        let ctx = TraceContext {
            trace_id: 11,
            parent_span: 4,
        };
        let copy = stamped(&shared, 7, PayloadKind::Input, Some(ctx));
        let env = Envelope::decode(&copy).unwrap();
        assert_eq!((env.round, env.trace), (7, Some(ctx)));
        assert_eq!(env.payload, vec![5; 40]);
    }
}
