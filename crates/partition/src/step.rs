//! What the three MPI partitions share: a step of the model is one round
//! of the session every strategy runs on ([`InferenceSession::round`]),
//! and a peer is its share of every step behind the one worker loop. A
//! step's request is its input tensor followed by the step index, so a
//! stateless peer picks the right shard whatever was lost, duplicated or
//! retried before.

use teamnet_core::exchange::decode_tensor;
use teamnet_core::runtime::InferenceSession;
use teamnet_core::{Exchange, InferenceReport, PeerCompute};
use teamnet_net::codec::{encode_f32s, encode_f32s_into};
use teamnet_net::{NetError, Transport};
use teamnet_tensor::Tensor;

/// One node's share of one step of a partitioned model: a column block of
/// a dense layer, a channel block of a convolution, a Shake-Shake branch.
pub trait Shard {
    /// This share of the step's output.
    fn apply(&mut self, input: &Tensor) -> Tensor;
}

/// A peer of a partitioned model, served by `teamnet-core`'s worker loop:
/// its shard of every step.
#[derive(Debug, Clone, PartialEq)]
pub struct Steps<S>(pub Vec<S>);

impl<S: Shard> PeerCompute for Steps<S> {
    fn respond(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let (tensor, step) = request
            .split_last_chunk::<8>()
            .ok_or_else(|| NetError::Malformed("step request shorter than its index".into()))?;
        let step = u64::from_le_bytes(*step);
        let shard = usize::try_from(step).ok().and_then(|i| self.0.get_mut(i));
        let shard =
            shard.ok_or_else(|| NetError::Malformed(format!("no shard for step {step}")))?;
        let out = shard.apply(&decode_tensor(tensor)?);
        Ok(encode_f32s(out.dims(), out.data()))
    }
}

/// Appends a step's request: the input tensor, then the step index.
pub(crate) fn encode_step(input: &Tensor, step: usize, buf: &mut Vec<u8>) {
    encode_f32s_into(input.dims(), input.data(), buf);
    buf.extend_from_slice(&(step as u64).to_le_bytes());
}

/// One step as a round: its input to every peer — or, `only: Some(peer)`,
/// to that one —, the root's `local` share meanwhile, each answering
/// peer's output tensor back.
struct StepRound<'a, F> {
    step: usize,
    input: &'a Tensor,
    only: Option<usize>,
    local: F,
    /// Peer outputs by rank; `None` until (and unless) that peer's is in.
    replies: Vec<Option<Tensor>>,
}

impl<F: FnMut()> Exchange for StepRound<'_, F> {
    type Output = Vec<Option<Tensor>>;

    fn rows(&self) -> usize {
        self.input.dims().first().copied().unwrap_or(0)
    }

    fn request(&self, to: Option<usize>, buf: &mut Vec<u8>) -> bool {
        if to == self.only {
            encode_step(self.input, self.step, buf);
        }
        to == self.only
    }

    fn local(&mut self) {
        (self.local)();
    }

    fn fold(&mut self, peer: usize, reply: &[u8]) -> Result<(), NetError> {
        let slot = self.replies.get_mut(peer);
        *slot.ok_or(NetError::UnknownPeer(peer))? = Some(decode_tensor(reply)?);
        Ok(())
    }

    fn finish(self, _: InferenceReport) -> Result<Self::Output, NetError> {
        Ok(self.replies)
    }
}

/// Runs step `step` on `input` from the root; the peers' outputs by rank.
pub(crate) fn step_round(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    step: usize,
    only: Option<usize>,
    input: &Tensor,
    local: impl FnMut(),
) -> Result<Vec<Option<Tensor>>, NetError> {
    let round = StepRound {
        step,
        input,
        only,
        local,
        replies: vec![None; transport.num_nodes()],
    };
    session.round(transport, round)
}

/// One step of a layer sliced along its output axis (MPI-Matrix's
/// columns, MPI-Kernel's channels): the input to every node, each node's
/// slice back, concatenated along axis 1 in rank order — `2·(K−1)` messages.
pub(crate) fn slice_step(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    step: usize,
    shard: &mut impl Shard,
    input: &Tensor,
) -> Result<Tensor, NetError> {
    let mut mine = None;
    let local = || mine = Some(shard.apply(input));
    let mut parts = step_round(session, transport, step, None, input, local)?;
    parts[transport.node_id()] = mine;
    if let Some(rank) = parts.iter().position(Option::is_none) {
        return Err(NetError::Timeout {
            waiting_for: format!("the output slice of node {rank}"),
        });
    }
    concat_axis1(&parts.into_iter().flatten().collect::<Vec<_>>())
}

/// Concatenates `[n, c_i, rest…]` tensors along axis 1.
fn concat_axis1(parts: &[Tensor]) -> Result<Tensor, NetError> {
    let malformed = || NetError::Malformed("output slices disagree off axis 1".into());
    let [n, _, rest @ ..] = parts.first().ok_or_else(malformed)?.dims() else {
        return Err(malformed());
    };
    let mut channels = 0usize;
    for part in parts {
        match part.dims() {
            [pn, c, prest @ ..] if pn == n && prest == rest => channels += c,
            _ => return Err(malformed()),
        }
    }
    let mut data = Vec::with_capacity(parts.iter().map(Tensor::len).sum());
    for sample in 0..*n {
        for part in parts {
            let width = part.len() / n;
            data.extend_from_slice(&part.data()[sample * width..][..width]);
        }
    }
    let dims = [&[*n, channels], rest].concat();
    Tensor::from_vec(data, dims).map_err(|e| NetError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_joins_along_axis_one_and_rejects_mismatched_slices() {
        let a = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [2, 2, 2]).unwrap();
        let b = Tensor::from_vec((8..12).map(|x| x as f32).collect(), [2, 1, 2]).unwrap();
        let joined = concat_axis1(&[a.clone(), b]).unwrap();
        assert_eq!(joined.dims(), &[2, 3, 2]);
        assert_eq!(
            joined.data(),
            &[0.0, 1.0, 2.0, 3.0, 8.0, 9.0, 4.0, 5.0, 6.0, 7.0, 10.0, 11.0]
        );
        // A slice of another batch size or trailing shape is refused, not
        // indexed.
        for bad in [Tensor::zeros([3, 1, 2]), Tensor::zeros([2, 1, 3])] {
            let res = concat_axis1(&[a.clone(), bad]);
            assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
        }
        assert!(concat_axis1(&[Tensor::zeros([4])]).is_err());
    }

    #[test]
    fn a_step_request_picks_its_shard_and_a_bad_one_is_typed() {
        struct Scale(f32);
        impl Shard for Scale {
            fn apply(&mut self, input: &Tensor) -> Tensor {
                input.scale(self.0)
            }
        }
        let mut peer = Steps(vec![Scale(2.0), Scale(3.0)]);
        let x = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).unwrap();
        let mut request = Vec::new();
        encode_step(&x, 1, &mut request);
        let reply = decode_tensor(&peer.respond(&request).unwrap()).unwrap();
        assert_eq!(reply.data(), &[3.0, 6.0]);
        let mut past_the_end = Vec::new();
        encode_step(&x, 2, &mut past_the_end);
        for bad in [&past_the_end[..], &request[..5], &request[1..]] {
            let res = peer.respond(bad);
            assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
        }
    }
}
