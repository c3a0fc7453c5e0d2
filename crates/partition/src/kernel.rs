//! MPI-Kernel: distributing convolution kernels (output channels) across
//! edge nodes.
//!
//! Each node holds a slice of every conv layer's output channels. Per
//! layer, the input activation goes to every node, every node convolves
//! with its kernel slice, and the root concatenates the channel slices —
//! one round per convolution.

use crate::matrix::split_range;
use crate::step::{slice_step, Shard};
use teamnet_core::runtime::InferenceSession;
use teamnet_net::{NetError, Transport};
use teamnet_tensor::conv::{conv2d, Conv2dSpec};
use teamnet_tensor::Tensor;

/// One node's slice of a conv layer: output channels `[start, end)`. A
/// non-root node serves [`Steps`](crate::Steps) of them, one per conv.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvShard {
    weight: Tensor,
    bias: Tensor,
    spec: Conv2dSpec,
}

impl ConvShard {
    /// Extracts node `node`'s output-channel slice of a conv layer
    /// (`weight: [oc, ic, k, k]`, `bias: [oc]`).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, `node >= nodes`, or more nodes
    /// than output channels (an empty slice).
    pub fn new(
        weight: &Tensor,
        bias: &Tensor,
        spec: Conv2dSpec,
        node: usize,
        nodes: usize,
    ) -> Self {
        assert_eq!(weight.rank(), 4, "conv weight must be [oc, ic, k, k]");
        assert!(node < nodes, "node {node} out of range for {nodes} nodes");
        let oc = weight.dims()[0];
        assert_eq!(bias.dims(), &[oc], "bias must be [oc]");
        let (start, end) = split_range(oc, nodes, node);
        assert!(end > start, "empty conv shard: more nodes than channels");
        let rows: Vec<usize> = (start..end).collect();
        ConvShard {
            weight: weight.select_rows(&rows),
            bias: bias.data()[start..end].iter().copied().collect(),
            spec,
        }
    }

    /// Number of output channels this shard produces.
    pub fn channels(&self) -> usize {
        self.weight.dims()[0]
    }
}

impl Shard for ConvShard {
    fn apply(&mut self, input: &Tensor) -> Tensor {
        conv2d(input, &self.weight, &self.bias, self.spec)
    }
}

/// Runs the model's `step`-th convolution kernel-parallel from the root,
/// which holds `shard`: `input` (`[n, ic, h, w]`) out to every node, each
/// node's channel slice back, concatenated in rank order.
///
/// # Errors
///
/// As [`InferenceSession::round`]: a silent peer is a [`NetError::Timeout`].
pub fn kernel_parallel_conv2d(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    step: usize,
    shard: &mut ConvShard,
    input: &Tensor,
) -> Result<Tensor, NetError> {
    slice_step(session, transport, step, shard, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shard_partitions_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let weight = Tensor::randn([10, 3, 3, 3], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([10], 0.0, 1.0, &mut rng);
        let spec = Conv2dSpec::new(3, 1, 1);
        let total: usize = (0..4)
            .map(|n| ConvShard::new(&weight, &bias, spec, n, 4).channels())
            .sum();
        assert_eq!(total, 10);
    }
}
