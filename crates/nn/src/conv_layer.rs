//! Convolution and pooling layers (NCHW layout).

use crate::layer::{Layer, Mode, Param};
use teamnet_tensor::conv::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, global_avg_pool,
    global_avg_pool_backward, Conv2dSpec,
};
use teamnet_tensor::Tensor;

/// 2-D convolution layer with square kernels and symmetric zero padding.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(Tensor::he_normal(
                [out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros([out_channels])),
            spec: Conv2dSpec::new(kernel, stride, padding),
            in_channels,
            out_channels,
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.dims()[1], self.in_channels, "Conv2d channel mismatch");
        // Cache only when a backward pass can follow: inference must match
        // the static cost model's eval allocation schedule (DESIGN.md §13).
        self.cached_input = match mode {
            Mode::Train => Some(input.clone()),
            Mode::Eval => None,
        };
        conv2d(input, &self.weight.value, &self.bias.value, self.spec)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let x = self
            .cached_input
            .as_ref()
            .expect("backward() before forward()");
        let (gx, gw, gb) = conv2d_backward(x, &self.weight.value, grad_out, self.spec);
        self.weight.grad.axpy(1.0, &gw);
        self.bias.grad.axpy(1.0, &gb);
        gx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight.value, &mut self.weight.grad);
        visitor(&mut self.bias.value, &mut self.bias.grad);
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![
            in_dims[0],
            self.out_channels,
            self.spec.out_size(in_dims[2]),
            self.spec.out_size(in_dims[3]),
        ]
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() != 4 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 4,
                got: in_dims.to_vec(),
            });
        }
        if in_dims[1] != self.in_channels {
            return Err(crate::ShapeError::Axis {
                layer: self.name(),
                axis: 1,
                expected: self.in_channels,
                got: in_dims.to_vec(),
            });
        }
        for &hw in &in_dims[2..4] {
            let padded = hw + 2 * self.spec.padding;
            if padded < self.spec.kernel {
                return Err(crate::ShapeError::KernelTooLarge {
                    layer: self.name(),
                    kernel: self.spec.kernel,
                    padded,
                    got: in_dims.to_vec(),
                });
            }
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        let out = self.out_dims(in_dims);
        let per_output = 2 * self.in_channels as u64 * (self.spec.kernel * self.spec.kernel) as u64;
        out.iter().product::<usize>() as u64 * per_output
    }

    fn workspace_bytes(&self, in_dims: &[usize]) -> u64 {
        // One sample's lowering, `k·min(s, k)` shifted copies of the
        // image (`k·min(s,k)·ic·(oh + ⌊(k−1)/s⌋)·ow` floats): the
        // sequential kernel in `teamnet_tensor::conv` lowers at most one
        // sample at a time, and the sample loop reuses the slot.
        let floats = self
            .spec
            .lowered_len(self.in_channels, in_dims[2], in_dims[3]);
        crate::cost::tensor_bytes(&[floats])
    }

    fn param_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// Non-overlapping average pooling layer.
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    in_hw: Option<(usize, usize)>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer over `window × window` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        AvgPool2d {
            window,
            in_hw: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.in_hw = Some((input.dims()[2], input.dims()[3]));
        avg_pool2d(input, self.window)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let (h, w) = self.in_hw.expect("backward() before forward()");
        avg_pool2d_backward(grad_out, h, w, self.window)
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![
            in_dims[0],
            in_dims[1],
            in_dims[2] / self.window,
            in_dims[3] / self.window,
        ]
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() != 4 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 4,
                got: in_dims.to_vec(),
            });
        }
        // `out_dims` truncates with integer division; statically we insist
        // the window tiles the image exactly so no pixels are dropped.
        for axis in [2usize, 3] {
            if in_dims[axis] % self.window != 0 {
                return Err(crate::ShapeError::Divisibility {
                    layer: self.name(),
                    axis,
                    divisor: self.window,
                    got: in_dims.to_vec(),
                });
            }
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_hw: Option<(usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates a global average-pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_hw: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.in_hw = Some((input.dims()[2], input.dims()[3]));
        global_avg_pool(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let (h, w) = self.in_hw.expect("backward() before forward()");
        global_avg_pool_backward(grad_out, h, w)
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        vec![in_dims[0], in_dims[1]]
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() != 4 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 4,
                got: in_dims.to_vec(),
            });
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        in_dims.iter().product::<usize>() as u64
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert_eq!(conv.out_dims(x.dims()), y.dims().to_vec());
        let gx = conv.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    fn conv_layer_gradient_check_weight() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::randn([1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        conv.zero_grad();
        conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y.shape().clone()));

        let mut analytic = Vec::new();
        conv.visit_params(&mut |_, g| analytic.push(g.clone()));
        let wg = &analytic[0];

        // Perturb one weight and compare.
        let eps = 1e-2;
        let probe = 3;
        conv.visit_params(&mut |w, _| {
            if w.rank() == 4 {
                w.data_mut()[probe] += eps;
            }
        });
        let lp = conv.forward(&x, Mode::Train).sum();
        conv.visit_params(&mut |w, _| {
            if w.rank() == 4 {
                w.data_mut()[probe] -= 2.0 * eps;
            }
        });
        let lm = conv.forward(&x, Mode::Train).sum();
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - wg.data()[probe]).abs() < 1e-2 * (1.0 + wg.data()[probe].abs()),
            "numeric {num} vs analytic {}",
            wg.data()[probe]
        );
    }

    #[test]
    fn pooling_layers_roundtrip_shapes() {
        let x = Tensor::arange(2 * 4 * 4)
            .into_reshaped([1, 2, 4, 4])
            .unwrap();
        let mut pool = AvgPool2d::new(2);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        assert_eq!(pool.backward(&Tensor::ones([1, 2, 2, 2])).dims(), x.dims());

        let mut gap = GlobalAvgPool::new();
        let z = gap.forward(&x, Mode::Eval);
        assert_eq!(z.dims(), &[1, 2]);
        assert_eq!(gap.backward(&Tensor::ones([1, 2])).dims(), x.dims());
    }

    #[test]
    fn conv_flops_formula() {
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        // Output 1x4x5x5, each needing 2*2*9 flops.
        assert_eq!(conv.flops(&[1, 2, 5, 5]), 4 * 25 * 2 * 2 * 9);
    }
}
