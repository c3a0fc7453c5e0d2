//! The one seam inference strategies differ on (DESIGN.md §18): every
//! strategy runs the same round ([`InferenceSession::round`]) against the
//! same worker loop; what differs is what the master sends, computes and
//! reduces ([`Exchange`]) and what a peer answers ([`PeerCompute`]).
//! TeamNet's pair lives here; the MPI partitions' and SG-MoE's live in
//! `teamnet-partition` and `teamnet-moe`.
//!
//! [`InferenceSession::round`]: crate::runtime::InferenceSession::round

use crate::fsm::TeamFold;
use crate::health::InferenceReport;
use crate::runtime::{encode_results, local_results};
use teamnet_net::codec::{decode_f32s, encode_f32s_into};
use teamnet_net::NetError;
use teamnet_nn::Sequential;
use teamnet_tensor::Tensor;

/// The master's side of one round of a strategy. The session calls
/// [`Exchange::request`] while it broadcasts, [`Exchange::local`] while
/// the peers compute, [`Exchange::fold`] once per accepted reply, then
/// [`Exchange::finish`].
pub trait Exchange {
    /// What the round computes.
    type Output;

    /// Rows of the batch this round is about (a span label).
    fn rows(&self) -> usize;

    /// Appends the request addressed to `to` and returns `true`, or
    /// `false` (nothing appended) when there is none. `None` — every peer
    /// alike — is asked first: the session encodes and checksums that
    /// frame once per round. Without one, each `Some(peer)` is asked, and
    /// a peer with no request sits the round out: not sent to, not waited
    /// for, its health untouched. A request opens with the batch tensor
    /// (its header labels the peer's `worker.forward` span); anything
    /// else — a step index — goes behind it.
    fn request(&self, to: Option<usize>, buf: &mut Vec<u8>) -> bool;

    /// The master's own share of the work, run while the peers compute.
    fn local(&mut self);

    /// Folds in `peer`'s reply payload, which the session has verified:
    /// intact, of this round, a `Result`, at most one per peer sent to.
    ///
    /// # Errors
    ///
    /// A payload this exchange cannot decode; the session then discards
    /// the reply as undecodable and keeps waiting for the peer.
    fn fold(&mut self, peer: usize, reply: &[u8]) -> Result<(), NetError>;

    /// Reduces what was folded to the round's output; `report` is the
    /// round's health and discard record, for an output that carries it.
    ///
    /// # Errors
    ///
    /// A reply the strategy cannot do without never arrived.
    fn finish(self, report: InferenceReport) -> Result<Self::Output, NetError>;
}

/// What a worker runs on one round's request, bytes to bytes: the payload
/// the master's [`Exchange`] wrote for this peer in, the payload its fold
/// reads out.
pub trait PeerCompute {
    /// Computes this peer's reply.
    ///
    /// # Errors
    ///
    /// A request that does not decode: counted as malformed, not answered.
    fn respond(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError>;
}

/// Decodes the tensor an [`encode_f32s`](teamnet_net::codec::encode_f32s)
/// payload carries ([`NetError::Malformed`] if it carries none).
pub fn decode_tensor(bytes: &[u8]) -> Result<Tensor, NetError> {
    let (dims, data) = decode_f32s(bytes)?;
    Tensor::from_vec(data, dims).map_err(|e| NetError::Malformed(format!("tensor payload: {e}")))
}

/// A TeamNet worker: the batch through the local expert, `(label,
/// entropy)` per row back — the certified `wire_result_bytes` (§13).
impl PeerCompute for Sequential {
    fn respond(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let images = decode_tensor(request)?;
        Ok(encode_results(&local_results(self, &images)))
    }
}

/// TeamNet's exchange (Figure 1d): broadcast the batch, run the local
/// expert, keep the least-uncertain answer per row.
pub(crate) struct TeamExchange<'a> {
    pub(crate) me: usize,
    pub(crate) expert: &'a mut Sequential,
    pub(crate) images: &'a Tensor,
    pub(crate) fold: TeamFold,
}

impl Exchange for TeamExchange<'_> {
    type Output = InferenceReport;

    fn rows(&self) -> usize {
        self.images.dims().first().copied().unwrap_or(0)
    }

    fn request(&self, to: Option<usize>, buf: &mut Vec<u8>) -> bool {
        if to.is_none() {
            // Straight from `f32`s into the frame: no intermediate payload.
            encode_f32s_into(self.images.dims(), self.images.data(), buf);
        }
        to.is_none()
    }

    fn local(&mut self) {
        let local = local_results(self.expert, self.images);
        self.fold.seed(self.me, local);
    }

    fn fold(&mut self, peer: usize, reply: &[u8]) -> Result<(), NetError> {
        self.fold.fold(peer, reply)
    }

    fn finish(self, report: InferenceReport) -> Result<InferenceReport, NetError> {
        Ok(InferenceReport {
            predictions: self.fold.into_predictions(),
            ..report
        })
    }
}
