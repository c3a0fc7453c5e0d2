//! The IO shell of the round protocol: the one place a core frame is
//! stamped, sent and received (DESIGN.md §16–§17).
//!
//! The session's broadcast and gather, the recovery driver's exchanges and
//! the worker loop's replies all stamp their envelopes with [`stamp`], put
//! them on the wire through [`send`] and take master-bound frames off it through
//! [`ResultWait::recv`]; what a frame *means* is decided by the pure state
//! machines of [`crate::fsm`]. Owning both directions is what lets one
//! rule hold for every wait on the master: a transport's mailbox is keyed
//! `(peer, tag)` only, so a blocking receive can pull a frame stamped for
//! some other wait's round — and every such frame is routed to the wait
//! that owns the stamp, never dropped by whoever happened to read it.

use crate::runtime::TAG_RESULT;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use teamnet_net::{
    peek_round, peek_trace, Clock, Envelope, NetError, PayloadKind, Tag, TraceContext, Transport,
    ENVELOPE_HEADER_LEN,
};
use teamnet_obs::{Counter, Obs};

/// Process-wide round allocator: every round in this process — inference
/// or recovery transfer — gets a unique stamp, so a late reply can never
/// alias a later round even across sessions sharing a transport.
static NEXT_ROUND: AtomicU64 = AtomicU64::new(1);

/// Largest number of frames parked per `(round, peer)` key: bounds what a
/// duplicate storm can make the router retain.
const MAX_PARKED_PER_KEY: usize = 1024;

/// Cross-wait frame router: one entry per round with a wait in flight,
/// holding the frames sibling waits pulled off the shared mailbox on its
/// behalf (FIFO per sending peer). Frames stamped for unregistered rounds
/// are genuine stale traffic and never enter it.
static ROUND_ROUTER: Mutex<BTreeMap<u64, BTreeMap<usize, VecDeque<Vec<u8>>>>> =
    Mutex::new(BTreeMap::new());

/// A freshly stamped round, registered with the router for as long as the
/// guard lives: dropping it (on any exit path, including errors)
/// unregisters the round and frees whatever is still parked for it.
#[derive(Debug)]
pub(crate) struct RoundRegistration {
    /// The stamp every frame of this round carries.
    pub(crate) round: u64,
}

impl RoundRegistration {
    /// Allocates the next round stamp and registers it. Open the round
    /// before its first send: once a frame is out, the reply can race
    /// back — possibly into a sibling wait's receive.
    pub(crate) fn open() -> Self {
        let round = NEXT_ROUND.fetch_add(1, Ordering::Relaxed);
        ROUND_ROUTER.lock().insert(round, BTreeMap::new());
        RoundRegistration { round }
    }
}

impl Drop for RoundRegistration {
    fn drop(&mut self) {
        ROUND_ROUTER.lock().remove(&self.round);
    }
}

/// Parks a frame from `peer` stamped for `seen` if that round has a
/// registered wait in flight; hands the frame back otherwise (genuine
/// stale traffic, or the park bound is hit).
fn park_for_round(seen: u64, peer: usize, bytes: Vec<u8>) -> Result<(), Vec<u8>> {
    let mut router = ROUND_ROUTER.lock();
    let Some(parked) = router.get_mut(&seen) else {
        return Err(bytes);
    };
    let queue = parked.entry(peer).or_default();
    if queue.len() >= MAX_PARKED_PER_KEY {
        return Err(bytes);
    }
    queue.push_back(bytes);
    Ok(())
}

/// Takes the oldest frame a sibling wait parked for (`round`, `peer`), if
/// any.
fn take_parked(round: u64, peer: usize) -> Option<Vec<u8>> {
    ROUND_ROUTER
        .lock()
        .get_mut(&round)?
        .get_mut(&peer)?
        .pop_front()
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
/// and a recovery transfer's ack wait. Its two counters are the router's:
/// frames this wait parked for a sibling, and frames siblings parked that
/// it took back.
#[derive(Debug)]
pub(crate) struct ResultWait {
    obs: Obs,
    clock: Arc<dyn Clock>,
    parked: Counter,
    rescued: Counter,
}

impl ResultWait {
    /// A wait timed on `clock`, registering `round.cross_session_parked`
    /// / `_rescued` in `obs`.
    pub(crate) fn new(obs: &Obs, clock: &Arc<dyn Clock>) -> Self {
        ResultWait {
            obs: obs.clone(),
            clock: Arc::clone(clock),
            parked: obs.metrics.counter("round.cross_session_parked"),
            rescued: obs.metrics.counter("round.cross_session_rescued"),
        }
    }

    /// The next frame from `peer` for the wait that owns `round`, or
    /// `None` once `deadline` has passed with nothing queued (an expired
    /// deadline still polls once, so a reply that is already there is
    /// never left behind).
    ///
    /// Frames a sibling wait parked for this round are taken first, and
    /// once more after a timeout; a received frame stamped for a
    /// sibling's registered round is parked for it and the wait goes on.
    /// Everything else — including stale traffic nobody owns — is the
    /// caller's to classify.
    ///
    /// # Errors
    ///
    /// Transport failures other than a timeout.
    pub(crate) fn recv(
        &self,
        transport: &dyn Transport,
        round: u64,
        peer: usize,
        deadline: Instant,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let rescue = || take_parked(round, peer).inspect(|_| self.rescued.inc());
        loop {
            let bytes = match rescue() {
                Some(bytes) => bytes,
                None => {
                    let remaining = deadline.saturating_duration_since(self.clock.now());
                    match transport.recv(peer, TAG_RESULT, remaining) {
                        Ok(bytes) => bytes,
                        Err(NetError::Timeout { .. }) => match rescue() {
                            Some(bytes) => bytes,
                            None => return Ok(None),
                        },
                        Err(e) => return Err(e),
                    }
                }
            };
            received(&self.obs, "result", peer, &bytes);
            let Some(seen) = peek_round(&bytes).filter(|&seen| seen != round) else {
                return Ok(Some(bytes));
            };
            match park_for_round(seen, peer, bytes) {
                Ok(()) => self.parked.inc(),
                Err(bytes) => return Ok(Some(bytes)),
            }
        }
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
    fn frames_park_only_for_registered_rounds_and_free_with_them() {
        let owner = RoundRegistration::open();
        let round = owner.round;
        assert_eq!(park_for_round(round, 3, vec![1]), Ok(()));
        assert_eq!(park_for_round(round, 3, vec![2]), Ok(()));
        // FIFO per (round, peer); other peers see nothing.
        assert_eq!(take_parked(round, 2), None);
        assert_eq!(take_parked(round, 3), Some(vec![1]));
        drop(owner);
        assert_eq!(take_parked(round, 3), None, "freed with the registration");
        assert_eq!(park_for_round(round, 3, vec![9]), Err(vec![9]));
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
