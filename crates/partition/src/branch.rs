//! MPI-Branch: executing the two branches of a Shake-Shake block on two
//! edge nodes.
//!
//! The Shake-Shake CNN has exactly two independent residual branches per
//! block, so the paper parallelizes inference by giving each branch to a
//! device: per block, the master ships the block input to the worker,
//! both compute their branch, the worker returns its output, and the
//! master merges (`α = ½` at evaluation) — one round per block.

use crate::step::{step_round, Shard};
use teamnet_core::runtime::InferenceSession;
use teamnet_net::{NetError, Transport};
use teamnet_nn::{Layer, Mode, ShakeShakeBlock};
use teamnet_tensor::Tensor;

/// The branch worker's share of a block is its branch 2: the worker
/// serves its copy of the model's blocks as
/// [`Steps<ShakeShakeBlock>`](crate::Steps).
impl Shard for ShakeShakeBlock {
    fn apply(&mut self, input: &Tensor) -> Tensor {
        self.branches_mut().1.forward(input, Mode::Eval)
    }
}

/// Master-side branch-parallel evaluation of the model's `step`-th
/// block: ships `input` to `worker`, computes branch 1 and the shortcut
/// locally meanwhile, merges with the worker's branch 2.
///
/// # Errors
///
/// As [`InferenceSession::round`]: a silent worker is a [`NetError::Timeout`].
pub fn branch_parallel_forward(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    worker: usize,
    step: usize,
    block: &mut ShakeShakeBlock,
    input: &Tensor,
) -> Result<Tensor, NetError> {
    let mut mine = None;
    let local = || {
        let branch1 = block.branches_mut().0.forward(input, Mode::Eval);
        let shortcut = match block.skip_mut() {
            Some(skip) => skip.forward(input, Mode::Eval),
            None => input.clone(),
        };
        mine = Some((shortcut, branch1));
    };
    let mut replies = step_round(session, transport, step, Some(worker), input, local)?;
    let branch2 = replies.get_mut(worker).and_then(Option::take);
    let (Some((shortcut, branch1)), Some(branch2)) = (mine, branch2) else {
        return Err(NetError::Timeout {
            waiting_for: format!("branch 2 from worker {worker}"),
        });
    };
    if !branch2.shape().same_as(branch1.shape()) {
        return Err(NetError::Malformed(format!(
            "worker branch output {} does not match local {}",
            branch2.shape(),
            branch1.shape()
        )));
    }
    Ok(ShakeShakeBlock::merge_eval(&shortcut, &branch1, &branch2))
}
