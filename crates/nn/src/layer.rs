//! The [`Layer`] trait and the dense/activation/reshape layers.
//!
//! Every layer caches whatever it needs during `forward` so that `backward`
//! can run without re-computation, mirroring how static-graph frameworks
//! (the paper used TensorFlow) hold activations for the backward pass.
//! Gradients *accumulate* into each parameter's `grad` buffer; call
//! [`Layer::zero_grad`] between optimizer steps.

use teamnet_tensor::{Tensor, TensorError};

/// Unwraps a kernel result whose preconditions the calling layer has
/// already established (rank/shape asserts in `forward`, the layer
/// contract for `backward`), naming the layer path in the panic.
fn checked(result: Result<Tensor, TensorError>, ctx: &'static str) -> Tensor {
    match result {
        Ok(t) => t,
        Err(e) => {
            assert!(false, "{ctx}: {e}");
            unreachable!()
        }
    }
}

/// Whether a forward pass is part of training or evaluation.
///
/// Layers with stochastic or statistics-tracking behaviour (batch
/// normalization, Shake-Shake) branch on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: use batch statistics, sample stochastic coefficients.
    Train,
    /// Inference: use running statistics, deterministic coefficients.
    Eval,
}

/// A differentiable network layer.
///
/// The contract: `backward` must be called with the gradient of the loss
/// with respect to the *most recent* `forward` output, and returns the
/// gradient with respect to that forward call's input.
pub trait Layer: Send {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the last forward output)
    /// backward, accumulating parameter gradients, and returns the gradient
    /// w.r.t. the last forward input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every `(parameter, gradient)` pair in a stable order.
    ///
    /// Parameter-free layers use the default empty implementation.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        let _ = visitor;
    }

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| {
            for x in g.data_mut() {
                *x = 0.0;
            }
        });
    }

    /// The output dimensions produced for the given input dimensions
    /// (batch dimension included), without running a forward pass.
    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize>;

    /// Validates that this layer accepts `in_dims` and returns the output
    /// dimensions it would produce — the statically checked counterpart of
    /// [`Layer::out_dims`]. Shape-preserving layers use the default.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ShapeError`] describing the first constraint the
    /// input violates.
    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        Ok(self.out_dims(in_dims))
    }

    /// Floating-point operations for one forward pass at the given input
    /// dimensions. Used by the edge-device cost model.
    fn flops(&self, in_dims: &[usize]) -> u64;

    /// Number of trainable scalars in this layer.
    fn param_count(&self) -> usize {
        0
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Peak bytes of *scratch* tensors an eval-mode forward allocates
    /// beyond its input and output (e.g. the matmul product a broadcast
    /// then copies, a conv's lowered image). The default covers layers
    /// that write the output directly.
    fn workspace_bytes(&self, in_dims: &[usize]) -> u64 {
        let _ = in_dims;
        0
    }

    /// This layer's node in the static liveness cost model
    /// (`crate::cost`). Leaves use the default; containers
    /// ([`crate::Sequential`], [`crate::ShakeShakeBlock`]) override it to
    /// expose their internal tensor graph so join points are priced by
    /// real liveness, not a running sum.
    fn cost_node(&self, in_dims: &[usize]) -> crate::cost::CostNode {
        crate::cost::CostNode::leaf(
            self.name(),
            in_dims,
            &self.out_dims(in_dims),
            self.workspace_bytes(in_dims),
        )
    }

    /// Appends this layer's flat profile entries to `out`, advancing and
    /// returning the running dimensions. Containers override this to
    /// recurse so cost models see the true per-layer granularity.
    fn profile_into(
        &self,
        in_dims: &[usize],
        out: &mut Vec<crate::sequential::LayerProfile>,
    ) -> Vec<usize> {
        let out_dims = self.out_dims(in_dims);
        out.push(crate::sequential::LayerProfile {
            name: self.name(),
            flops: self.flops(in_dims),
            params: self.param_count(),
            in_dims: in_dims.to_vec(),
            out_dims: out_dims.clone(),
        });
        out_dims
    }
}

/// Total number of trainable scalars in a layer (or whole model).
pub fn param_count(layer: &dyn Layer) -> usize {
    layer.param_count()
}

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub(crate) struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }
}

/// Fully connected layer: `y = x·W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias (the
    /// right scaling ahead of the ReLU nonlinearities every network in
    /// this workspace uses; Xavier starves gradients in the deeper MLPs).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl rand::Rng) -> Self {
        Dense {
            weight: Param::new(Tensor::he_normal([in_dim, out_dim], in_dim, rng)),
            bias: Param::new(Tensor::zeros([out_dim])),
            cached_input: None,
        }
    }

    /// Creates a dense layer from explicit weight and bias tensors.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is rank-2 and `bias` is rank-1 with length
    /// equal to the weight's second dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rank(), 2, "dense weight must be rank-2");
        assert_eq!(bias.dims(), &[weight.dims()[1]], "dense bias must be [out]");
        Dense {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// The weight matrix `[in, out]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features]");
        // Cache only when a backward pass can follow: inference must match
        // the static cost model's eval allocation schedule (DESIGN.md §13).
        self.cached_input = match mode {
            Mode::Train => Some(input.clone()),
            Mode::Eval => None,
        };
        checked(input.try_matmul(&self.weight.value), "Dense forward")
            .add_row_broadcast(&self.bias.value)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let x = self
            .cached_input
            .as_ref()
            .expect("backward() before forward()");
        let xt = checked(x.try_transpose(), "Dense backward");
        self.weight
            .grad
            .axpy(1.0, &checked(xt.try_matmul(grad_out), "Dense backward"));
        self.bias.grad.axpy(1.0, &grad_out.sum_cols());
        let wt = checked(self.weight.value.try_transpose(), "Dense backward");
        checked(grad_out.try_matmul(&wt), "Dense backward")
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight.value, &mut self.weight.grad);
        visitor(&mut self.bias.value, &mut self.bias.grad);
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[0], self.out_dim()]
    }

    fn workspace_bytes(&self, in_dims: &[usize]) -> u64 {
        // `add_row_broadcast` copies the matmul product, so product and
        // output coexist for one output-sized buffer.
        crate::cost::tensor_bytes(&self.out_dims(in_dims))
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() != 2 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 2,
                got: in_dims.to_vec(),
            });
        }
        if in_dims[1] != self.in_dim() {
            return Err(crate::ShapeError::Axis {
                layer: self.name(),
                axis: 1,
                expected: self.in_dim(),
                got: in_dims.to_vec(),
            });
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        // One multiply-add per weight element per batch row, plus the bias.
        let n = in_dims[0] as u64;
        n * (2 * self.in_dim() as u64 * self.out_dim() as u64 + self.out_dim() as u64)
    }

    fn param_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

/// Rectified linear unit layer.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.mask = match mode {
            Mode::Train => Some(input.map(|x| if x > 0.0 { 1.0 } else { 0.0 })),
            Mode::Eval => None,
        };
        input.relu()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        grad_out * self.mask.as_ref().expect("backward() before forward()")
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Hyperbolic tangent layer.
#[derive(Debug, Default)]
pub struct TanhLayer {
    output: Option<Tensor>,
}

impl TanhLayer {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        TanhLayer { output: None }
    }
}

impl Layer for TanhLayer {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = input.tanh();
        self.output = match mode {
            Mode::Train => Some(out.clone()),
            Mode::Eval => None,
        };
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let y = self.output.as_ref().expect("backward() before forward()");
        grad_out * &y.map(|v| 1.0 - v * v)
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        // tanh ≈ a handful of flops; count 4 per element.
        4 * in_dims.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// Flattens `[n, d1, d2, ...]` into `[n, d1*d2*...]`.
#[derive(Debug, Default)]
pub struct Flatten {
    in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.in_dims = Some(input.dims().to_vec());
        let n = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        // [n, rest] has exactly the input's volume. lint: allow(no-expect)
        input.reshape([n, rest]).expect("flatten preserves volume")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let dims = self.in_dims.clone().expect("backward() before forward()");
        // The cached dims have the gradient's volume. lint: allow(no-expect)
        grad_out.reshape(dims).expect("unflatten preserves volume")
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[0], in_dims[1..].iter().product()]
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() < 2 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 2,
                got: in_dims.to_vec(),
            });
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, _in_dims: &[usize]) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_hand_computed() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], [2]).unwrap();
        let mut dense = Dense::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let y = dense.forward(&x, Mode::Eval);
        // [1,1]·[[1,2],[3,4]] = [4,6]; +bias = [4.5, 5.5]
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dense = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], 0.0, 1.0, &mut rng);
        let y = dense.forward(&x, Mode::Train);
        let gx = dense.backward(&Tensor::ones(y.shape().clone()));

        let eps = 1e-2;
        // dL/dx[0]
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = dense.forward(&xp, Mode::Train).sum();
            let lm = dense.forward(&xm, Mode::Train).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2, "dx[{idx}]");
        }
    }

    #[test]
    fn dense_weight_grad_accumulates() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dense = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        let y = dense.forward(&x, Mode::Train);
        let g = Tensor::ones(y.shape().clone());
        dense.backward(&g);
        let mut first = Tensor::default();
        dense.visit_params(&mut |_, grad| {
            if first.len() == 1 {
                first = grad.clone();
            }
        });
        dense.forward(&x, Mode::Train);
        dense.backward(&g);
        let mut second = Tensor::default();
        dense.visit_params(&mut |_, grad| {
            if second.len() == 1 {
                second = grad.clone();
            }
        });
        assert!(
            second.max_abs_diff(&first.scale(2.0)) < 1e-6,
            "gradient should accumulate"
        );
        dense.zero_grad();
        dense.visit_params(&mut |_, grad| assert_eq!(grad.sum(), 0.0));
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], [1, 3]).unwrap();
        let y = relu.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let gx = relu.backward(&Tensor::ones([1, 3]));
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_uses_cached_output() {
        let mut layer = TanhLayer::new();
        let x = Tensor::from_vec(vec![0.5], [1, 1]).unwrap();
        layer.forward(&x, Mode::Train);
        let gx = layer.backward(&Tensor::ones([1, 1]));
        let expected = 1.0 - 0.5f32.tanh().powi(2);
        assert!((gx.item() - expected).abs() < 1e-6);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let x = Tensor::arange(12).into_reshaped([2, 3, 2]).unwrap();
        let y = flat.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 6]);
        let gx = flat.backward(&Tensor::ones([2, 6]));
        assert_eq!(gx.dims(), &[2, 3, 2]);
    }

    #[test]
    fn flops_and_out_dims() {
        let mut rng = StdRng::seed_from_u64(3);
        let dense = Dense::new(10, 5, &mut rng);
        assert_eq!(dense.out_dims(&[8, 10]), vec![8, 5]);
        assert_eq!(dense.flops(&[8, 10]), 8 * (2 * 10 * 5 + 5));
        assert_eq!(dense.param_count(), 55);
        assert_eq!(Relu::new().out_dims(&[2, 3]), vec![2, 3]);
    }
}
