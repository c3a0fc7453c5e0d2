//! Distributed SG-MoE inference: the paper's SG-MoE-G (gRPC) and SG-MoE-M
//! (MPI) deployments.
//!
//! Expert i runs on node i; the gate lives on the gateway, co-located
//! with its own expert ("the gate is placed on one of the edge nodes").
//! Per inference the gateway computes the top-k routing, then runs one
//! round of the session every strategy runs on: each selected remote
//! expert is sent the rows routed to it, the co-located expert runs
//! meanwhile, and the returned logits are combined with the gate weights
//! — two messages per selected remote expert against TeamNet's
//! `2·(K−1)`, but only after the gate has run. The two deployments differ
//! in their stacks' per-call overhead, which `teamnet-partition`'s cost
//! model prices; there is one real path.

use crate::gating::GatingOutput;
use crate::model::SgMoe;
use teamnet_core::exchange::decode_tensor;
use teamnet_core::runtime::InferenceSession;
use teamnet_core::{Exchange, InferenceReport, PeerCompute};
use teamnet_net::codec::{encode_f32s, encode_f32s_into};
use teamnet_net::{NetError, Transport};
use teamnet_nn::{Layer, Mode, Sequential};
use teamnet_tensor::Tensor;

/// An SG-MoE expert node, served by `teamnet-core`'s worker loop: the
/// rows routed to it in, their logits out.
pub struct ExpertPeer(pub Sequential);

impl PeerCompute for ExpertPeer {
    fn respond(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let logits = self.0.forward(&decode_tensor(request)?, Mode::Eval);
        Ok(encode_f32s(logits.dims(), logits.data()))
    }
}

/// One gated inference as a round: routed rows out to the selected remote
/// experts, the co-located expert meanwhile, the logits gate-weighted.
struct MoeRound<'a> {
    moe: &'a mut SgMoe,
    gating: GatingOutput,
    /// This node: the gateway, and the index of its co-located expert.
    me: usize,
    expert_rows: Vec<Vec<usize>>,
    /// The rows routed to each expert; `None` where there are none.
    routed: Vec<Option<Tensor>>,
    /// Logits by expert; `None` until they are in.
    logits: Vec<Option<Tensor>>,
}

impl Exchange for MoeRound<'_> {
    type Output = Tensor;

    fn rows(&self) -> usize {
        self.gating.top_indices.len()
    }

    fn request(&self, to: Option<usize>, buf: &mut Vec<u8>) -> bool {
        let Some(Some(sub)) = to.and_then(|peer| self.routed.get(peer)) else {
            return false;
        };
        encode_f32s_into(sub.dims(), sub.data(), buf);
        true
    }

    fn local(&mut self) {
        if let Some(Some(sub)) = self.routed.get(self.me) {
            self.logits[self.me] = Some(self.moe.expert_mut(self.me).forward(sub, Mode::Eval));
        }
    }

    fn fold(&mut self, peer: usize, reply: &[u8]) -> Result<(), NetError> {
        let logits = decode_tensor(reply)?;
        let routed = self.expert_rows.get(peer).map_or(0, Vec::len);
        if logits.dims() != [routed, self.moe.spec().classes()] {
            let dims = logits.dims();
            return Err(NetError::Malformed(format!(
                "expert {peer} logits {dims:?}"
            )));
        }
        let slot = self.logits.get_mut(peer);
        *slot.ok_or(NetError::UnknownPeer(peer))? = Some(logits);
        Ok(())
    }

    fn finish(self, _: InferenceReport) -> Result<Tensor, NetError> {
        let mut answers = self.routed.iter().zip(&self.logits);
        if let Some(i) = answers.position(|(sub, logits)| sub.is_some() && logits.is_none()) {
            return Err(NetError::Timeout {
                waiting_for: format!("logits of expert {i}"),
            });
        }
        let classes = self.moe.spec().classes();
        let combined = self
            .gating
            .weighted_sum(&self.expert_rows, &self.logits, classes);
        Ok(combined.softmax_rows())
    }
}

/// Gateway-side distributed SG-MoE inference: gates `images`, then one
/// round routing each selected remote expert its rows. Returns the
/// combined class probabilities `[n, classes]`, bit for bit
/// [`SgMoe::predict_proba`]'s.
///
/// # Errors
///
/// As [`InferenceSession::round`], and a silent expert is a [`NetError::Timeout`].
pub fn infer_distributed(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    moe: &mut SgMoe,
    images: &Tensor,
) -> Result<Tensor, NetError> {
    let gating = moe.gate(images);
    let expert_rows = gating.expert_rows(moe.k());
    let routed = expert_rows.iter();
    let round = MoeRound {
        routed: routed
            .map(|rows| (!rows.is_empty()).then(|| images.select_rows(rows)))
            .collect(),
        logits: vec![None; moe.k()],
        me: transport.node_id(),
        moe,
        gating,
        expert_rows,
    };
    session.round(transport, round)
}
