//! MPI-Matrix: column-parallel execution of an MLP across edge nodes.
//!
//! Every dense layer's weight matrix is split column-wise over the nodes;
//! each node computes its slice of the activations and the slices are
//! gathered before the next layer. This is the classic
//! matrix-multiplication parallelization the paper evaluates — and the
//! reason it loses badly on WiFi: *every layer* pays a round.

use crate::step::{slice_step, Shard, Steps};
use teamnet_core::runtime::InferenceSession;
use teamnet_net::{NetError, Transport};
use teamnet_nn::ModelSpec;
use teamnet_tensor::Tensor;

/// Balanced split of `total` items into `parts` chunk sizes (first chunks
/// get the remainder).
pub fn split_sizes(total: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "need at least one part");
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Column range `[start, end)` owned by `part` under [`split_sizes`].
pub fn split_range(total: usize, parts: usize, part: usize) -> (usize, usize) {
    let sizes = split_sizes(total, parts);
    let start: usize = sizes[..part].iter().sum();
    (start, start + sizes[part])
}

/// One node's column block of a dense layer: `(weight, bias)` slices.
pub type DenseShard = (Tensor, Tensor);

impl Shard for DenseShard {
    fn apply(&mut self, input: &Tensor) -> Tensor {
        input.matmul(&self.0).add_row_broadcast(&self.1)
    }
}

/// One node's column shards of every dense layer of an MLP: what the
/// root passes [`mpi_matrix_forward`] and every other node serves.
pub type MlpShards = Steps<DenseShard>;

impl MlpShards {
    /// Total parameter bytes held by this node.
    pub fn param_bytes(&self) -> usize {
        let floats = self.0.iter().map(|(w, b)| w.len() + b.len());
        floats.sum::<usize>() * std::mem::size_of::<f32>()
    }
}

/// Extracts node `node`'s column shards from a trained MLP's parameter
/// snapshot (`state` as produced by [`teamnet_nn::state_vec`] on a model
/// built from `spec`).
///
/// # Panics
///
/// Panics if `spec` is not an MLP, `state` does not look like alternating
/// `(weight, bias)` pairs, or `node >= nodes`.
pub fn shard_mlp(spec: &ModelSpec, state: &[Tensor], node: usize, nodes: usize) -> MlpShards {
    assert!(
        matches!(spec, ModelSpec::Mlp { .. }),
        "MPI-Matrix shards MLPs"
    );
    assert!(node < nodes, "node {node} out of range for {nodes} nodes");
    assert!(
        state.len().is_multiple_of(2) && !state.is_empty(),
        "state must be (weight, bias) pairs"
    );
    let layers = state
        .chunks_exact(2)
        .map(|pair| {
            let (w, b) = (&pair[0], &pair[1]);
            assert_eq!(w.rank(), 2, "dense weight must be rank-2");
            assert_eq!(b.dims(), &[w.dims()[1]], "bias must match weight columns");
            let (in_dim, out_dim) = (w.dims()[0], w.dims()[1]);
            let (start, end) = split_range(out_dim, nodes, node);
            let mut w_slice = Tensor::zeros([in_dim, end - start]);
            for r in 0..in_dim {
                for (j, c) in (start..end).enumerate() {
                    w_slice.set(&[r, j], w.at(&[r, c]));
                }
            }
            let b_slice: Tensor = b.data()[start..end].iter().copied().collect();
            (w_slice, b_slice)
        })
        .collect();
    Steps(layers)
}

/// Runs one column-parallel forward pass of `input` (`[n, features]`)
/// from the root, which holds `shards`: one round per layer — the
/// per-layer collective that dominates MPI-Matrix's latency on WiFi.
///
/// # Errors
///
/// As [`InferenceSession::round`], and a silent peer is a [`NetError::Timeout`].
///
/// # Panics
///
/// Panics if `input` is not rank 2.
pub fn mpi_matrix_forward(
    session: &mut InferenceSession,
    transport: &dyn Transport,
    shards: &mut MlpShards,
    input: &Tensor,
) -> Result<Tensor, NetError> {
    assert_eq!(input.rank(), 2, "MPI-Matrix input must be [n, features]");
    let last = shards.0.len().saturating_sub(1);
    let mut activation = input.clone();
    for (step, shard) in shards.0.iter_mut().enumerate() {
        let full = slice_step(session, transport, step, shard, &activation)?;
        activation = if step < last { full.relu() } else { full };
    }
    Ok(activation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_nn::{state_vec, Layer};

    #[test]
    fn split_math() {
        assert_eq!(split_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_range(10, 4, 0), (0, 3));
        assert_eq!(split_range(10, 4, 3), (8, 10));
        assert_eq!(split_sizes(3, 5), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn shards_partition_all_parameters() {
        let spec = ModelSpec::mlp(3, 16);
        let mut model = spec.build(1);
        let state = state_vec(&mut model);
        let total: usize = (0..4)
            .map(|n| shard_mlp(&spec, &state, n, 4).param_bytes())
            .sum();
        assert_eq!(total, model.param_count() * 4);
    }

    #[test]
    #[should_panic(expected = "MPI-Matrix shards MLPs")]
    fn rejects_cnn_specs() {
        let spec = ModelSpec::shake_shake(8, 4);
        shard_mlp(&spec, &[], 0, 2);
    }
}
