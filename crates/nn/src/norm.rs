//! Batch normalization (Ioffe & Szegedy, 2015), cited by the paper's
//! Algorithm 3 for normalizing expert gradients per mini-batch.

use crate::layer::{Layer, Mode, Param};
use teamnet_tensor::Tensor;

const BN_EPS: f32 = 1e-5;

/// Per-channel batch normalization over `[n, c, h, w]` tensors.
///
/// In [`Mode::Train`] the layer normalizes with batch statistics and updates
/// exponential running averages; in [`Mode::Eval`] it uses the running
/// averages, so inference is deterministic.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps with the
    /// conventional momentum of 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            channels,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn per_channel_stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let count = (n * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for s in 0..n {
            for (ch, m) in mean.iter_mut().enumerate() {
                let base = (s * c + ch) * h * w;
                for &v in &input.data()[base..base + h * w] {
                    *m += v;
                }
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for &v in &input.data()[base..base + h * w] {
                    let d = v - mean[ch];
                    var[ch] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= count;
        }
        (mean, var)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects [n, c, h, w]");
        assert_eq!(
            input.dims()[1],
            self.channels,
            "BatchNorm2d channel mismatch"
        );
        let (c, hw) = (input.dims()[1], input.dims()[2] * input.dims()[3]);

        let (mean, var) = match mode {
            Mode::Train => {
                let (mean, var) = self.per_channel_stats(input);
                for ch in 0..c {
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());

        // One pass over per-(sample, channel) planes with the channel's
        // four scalars hoisted. The x̂ buffer only exists to serve
        // backward(): eval-mode forward neither allocates nor writes it, so
        // inference matches the static cost model's allocation schedule
        // (DESIGN.md §13). Both modes evaluate the same two expressions per
        // element, so they round identically.
        let mut out = Vec::with_capacity(input.len());
        let mut normalized = match mode {
            Mode::Train => Vec::with_capacity(input.len()),
            Mode::Eval => Vec::new(),
        };
        for (plane, x) in input.data().chunks_exact(hw.max(1)).enumerate() {
            let ch = plane % c;
            let (m, is, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            match mode {
                Mode::Train => {
                    normalized.extend(x.iter().map(|&v| (v - m) * is));
                    out.extend(normalized[plane * hw..].iter().map(|&xn| g * xn + b));
                }
                Mode::Eval => out.extend(x.iter().map(|&v| g * ((v - m) * is) + b)),
            }
        }
        if mode == Mode::Train {
            // One x̂ per input element. lint: allow(no-expect)
            let normalized = Tensor::from_vec(normalized, input.shape().clone()).expect("x̂ volume");
            self.cache = Some(BnCache {
                normalized,
                inv_std,
            });
        }
        // One output per input element. lint: allow(no-expect)
        Tensor::from_vec(out, input.shape().clone()).expect("output volume")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Layer contract: backward() only runs after forward(). lint: allow(no-expect)
        let cache = self
            .cache
            .as_ref()
            .expect("backward() requires a Train-mode forward()");
        let (n, c, h, w) = (
            grad_out.dims()[0],
            grad_out.dims()[1],
            grad_out.dims()[2],
            grad_out.dims()[3],
        );
        let count = (n * h * w) as f32;
        let xn = &cache.normalized;

        // Per-channel reductions Σg and Σ(g·x̂).
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for i in base..base + h * w {
                    sum_g[ch] += grad_out.data()[i];
                    sum_gx[ch] += grad_out.data()[i] * xn.data()[i];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.data_mut()[ch] += sum_gx[ch];
            self.beta.grad.data_mut()[ch] += sum_g[ch];
        }

        // dx = γ·inv_std/m · (m·g − Σg − x̂·Σ(g·x̂))
        let mut gx = grad_out.clone();
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                let scale = self.gamma.value.data()[ch] * cache.inv_std[ch] / count;
                for i in base..base + h * w {
                    gx.data_mut()[i] = scale
                        * (count * grad_out.data()[i] - sum_g[ch] - xn.data()[i] * sum_gx[ch]);
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.gamma.value, &mut self.gamma.grad);
        visitor(&mut self.beta.value, &mut self.beta.grad);
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        in_dims.to_vec()
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, crate::ShapeError> {
        if in_dims.len() != 4 {
            return Err(crate::ShapeError::Rank {
                layer: self.name(),
                expected: 4,
                got: in_dims.to_vec(),
            });
        }
        if in_dims[1] != self.channels {
            return Err(crate::ShapeError::Axis {
                layer: self.name(),
                axis: 1,
                expected: self.channels,
                got: in_dims.to_vec(),
            });
        }
        Ok(self.out_dims(in_dims))
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        4 * in_dims.iter().product::<usize>() as u64
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn([4, 3, 5, 5], 2.0, 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of the output should be ≈ zero-mean unit-variance
        // (γ=1, β=0 initially).
        for ch in 0..3 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let base = (s * 3 + ch) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut bn = BatchNorm2d::new(2);
        for _ in 0..50 {
            let x = Tensor::randn([8, 2, 3, 3], 5.0, 2.0, &mut rng);
            bn.forward(&x, Mode::Train);
        }
        let x = Tensor::randn([2, 2, 3, 3], 5.0, 2.0, &mut rng);
        let y1 = bn.forward(&x, Mode::Eval);
        let y2 = bn.forward(&x, Mode::Eval);
        assert_eq!(y1, y2);
        // Running stats should have learned mean≈5 → eval output roughly centred.
        assert!(y1.mean().abs() < 0.5, "eval mean {}", y1.mean());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut bn = BatchNorm2d::new(2);
        // Give gamma/beta non-trivial values.
        bn.visit_params(&mut |p, _| {
            for (i, v) in p.data_mut().iter_mut().enumerate() {
                *v += 0.3 * (i as f32 + 1.0);
            }
        });
        let x = Tensor::randn([3, 2, 2, 2], 0.0, 1.0, &mut rng);
        bn.forward(&x, Mode::Train);
        let gx = bn.backward(&Tensor::ones([3, 2, 2, 2]));

        let eps = 1e-2;
        for probe in [0usize, 7, 15, 23] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let lp = bn.forward(&xp, Mode::Train).sum();
            let lm = bn.forward(&xm, Mode::Train).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[probe]).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{probe}]: numeric {num} vs analytic {}",
                gx.data()[probe]
            );
        }
    }

    #[test]
    fn param_gradient_finite_difference() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn([2, 1, 2, 2], 1.0, 2.0, &mut rng);
        bn.forward(&x, Mode::Train);
        bn.backward(&Tensor::ones([2, 1, 2, 2]));
        let mut grads = Vec::new();
        bn.visit_params(&mut |_, g| grads.push(g.clone()));
        // β gradient is exactly the grad_out sum (8 ones).
        assert!((grads[1].data()[0] - 8.0).abs() < 1e-5);
    }
}
