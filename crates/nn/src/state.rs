//! Model state extraction and restoration.
//!
//! In the distributed runtime a trained expert is shipped to an edge node
//! as `(ModelSpec, Vec<Tensor>)`: the node rebuilds the architecture from
//! the spec and then loads the trained parameters with [`load_state`].
//!
//! On the wire the tensors travel in the one tensor codec,
//! `teamnet_net::codec::encode_f32s`: a team file holds one per
//! parameter, and the recovery subsystem's expert migration (DESIGN.md
//! §14) ships a `u32` count followed by one per parameter.

use crate::layer::Layer;
use teamnet_tensor::Tensor;

/// Snapshots every parameter of `model` in visitation order.
pub fn state_vec(model: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p, _| out.push(p.clone()));
    out
}

/// Restores parameters captured by [`state_vec`] into a model with the
/// identical architecture.
///
/// # Panics
///
/// Panics if the parameter count or any shape differs from the model's.
pub fn load_state(model: &mut dyn Layer, state: &[Tensor]) {
    let mut idx = 0usize;
    model.visit_params(&mut |p, _| {
        assert!(
            idx < state.len(),
            "state has too few tensors ({} provided)",
            state.len()
        );
        assert!(
            p.shape().same_as(state[idx].shape()),
            "state tensor {idx} shape {} does not match parameter shape {}",
            state[idx].shape(),
            p.shape()
        );
        *p = state[idx].clone();
        idx += 1;
    });
    assert_eq!(
        idx,
        state.len(),
        "state has too many tensors ({} provided, {idx} used)",
        state.len()
    );
}

/// Total number of bytes needed to serialize a model's parameters as raw
/// `f32`s — the payload size the cost model charges for deploying a model
/// over the network.
pub fn state_bytes(model: &mut dyn Layer) -> usize {
    let mut total = 0usize;
    model.visit_params(&mut |p, _| total += p.len() * std::mem::size_of::<f32>());
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::models::ModelSpec;
    use teamnet_tensor::Tensor;

    #[test]
    fn state_roundtrip_preserves_outputs() {
        let spec = ModelSpec::mlp(3, 16);
        let mut trained = spec.build(7);
        let state = state_vec(&mut trained);

        let mut fresh = spec.build(99); // different init
        let x = Tensor::ones([2, 784]);
        let before = fresh.forward(&x, Mode::Eval);
        load_state(&mut fresh, &state);
        let after = fresh.forward(&x, Mode::Eval);
        let reference = trained.forward(&x, Mode::Eval);
        assert_ne!(before, reference);
        assert_eq!(after, reference);
    }

    #[test]
    fn state_bytes_counts_all_params() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = spec.build(0);
        assert_eq!(state_bytes(&mut model), model.param_count() * 4);
    }

    #[test]
    #[should_panic(expected = "too few")]
    fn load_rejects_short_state() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = spec.build(0);
        load_state(&mut model, &[]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn load_rejects_wrong_shape() {
        let spec = ModelSpec::mlp(2, 8);
        let mut model = spec.build(0);
        let mut state = state_vec(&mut model);
        state[0] = Tensor::zeros([1]);
        load_state(&mut model, &state);
    }
}
