//! 2-D convolution and pooling kernels (NCHW layout), with exact backward
//! passes, implemented via im2col/col2im.
//!
//! These are free functions rather than `Tensor` methods because they take
//! several configuration parameters; the [`Conv2dSpec`] struct groups them.
//!
//! The convolution forward pass unfolds one sample at a time into an
//! im2col matrix `[ic·k², oh·ow]` (row-span copies, see `unfold_into`)
//! and multiplies the weight matrix into it through the register-tiled
//! micro-kernel of the `gemm` module, one `MR`-row block of out-channels
//! at a time; (sample × out-channel block) units are what it hands out
//! to scoped threads. The backward pass computes per-sample partial
//! gradients in parallel then merges them on the calling thread in
//! sample order. Both follow the determinism contract of [`crate::pool`]:
//! results are bit-identical at every thread count.

use crate::gemm::{rows_times_matrix, MR};
use crate::pool::{self, ParallelConfig, PAR_MIN_WORK};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride and symmetric zero
/// padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding added to each spatial border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec; `stride` must be positive.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// The output positions `lo..hi` along one axis whose input coordinate
/// `o·stride + offset − padding` falls inside `0..input`; every other
/// position reads the zero padding.
fn in_bounds_span(
    outputs: usize,
    input: usize,
    offset: usize,
    spec: Conv2dSpec,
) -> std::ops::Range<usize> {
    let lo = spec.padding.saturating_sub(offset).div_ceil(spec.stride);
    let hi = (input + spec.padding)
        .saturating_sub(offset)
        .div_ceil(spec.stride)
        .min(outputs);
    lo.min(hi)..hi
}

/// Unfolds one `[c, h, w]` image into `cols`, an im2col matrix
/// `[c*k*k, oh*ow]`, so convolution becomes a matmul.
///
/// Each (matrix row, output row) pair is one contiguous span of an input
/// row: a `copy_from_slice` at stride 1, a strided gather otherwise, with
/// no per-element bounds test. Only in-bounds positions are written, and
/// which positions those are depends on the geometry alone — so `cols`
/// must come in with zeros at the padding positions, and a buffer that
/// started as all zeros can be refilled for the next sample as is.
fn unfold_into(cols: &mut [f32], img: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec) {
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    for ch in 0..c {
        for ky in 0..k {
            let ys = in_bounds_span(oh, h, ky, spec);
            for kx in 0..k {
                let xs = in_bounds_span(ow, w, kx, spec);
                if xs.is_empty() {
                    continue;
                }
                let row = (ch * k + ky) * k + kx;
                let ix0 = xs.start * spec.stride + kx - spec.padding;
                for oy in ys.clone() {
                    let iy = oy * spec.stride + ky - spec.padding;
                    let src = &img[(ch * h + iy) * w + ix0..(ch * h + iy + 1) * w];
                    let dst = &mut cols[(row * oh + oy) * ow..][xs.clone()];
                    if spec.stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(spec.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// [`unfold_into`] a fresh `[c*k*k, oh*ow]` tensor.
fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Tensor {
    let k = spec.kernel;
    let mut cols = Tensor::zeros([c * k * k, spec.out_size(h) * spec.out_size(w)]);
    unfold_into(cols.data_mut(), img, c, h, w, spec);
    cols
}

/// Inverse scatter of [`im2col`]: accumulates a `[c*k*k, oh*ow]` gradient
/// matrix back into a `[c, h, w]` image gradient.
fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Vec<f32> {
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    let mut img = vec![0.0f32; c * h * w];
    let data = cols.data();
    let col_w = oh * ow;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img[(ch * h + iy as usize) * w + ix as usize] +=
                            data[row * col_w + oy * ow + ox];
                    }
                }
            }
        }
    }
    img
}

/// 2-D convolution forward pass.
///
/// * `input`: `[n, ic, h, w]`
/// * `weight`: `[oc, ic, k, k]`
/// * `bias`: `[oc]`
///
/// Returns `[n, oc, oh, ow]`. Large convolutions are partitioned by
/// (sample × out-channel block) units across the process default
/// [`ParallelConfig`]; outputs are bit-identical at every thread count.
///
/// # Panics
///
/// Panics on any rank or dimension mismatch.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Tensor {
    conv2d_with(
        input,
        weight,
        bias,
        spec,
        default_conv_config(input, weight, spec),
    )
}

/// [`conv2d`] with an explicit thread configuration and no size
/// threshold — `cfg.threads() == 1` runs the exact sequential kernel on
/// the calling thread.
///
/// # Panics
///
/// Panics on any rank or dimension mismatch.
pub fn conv2d_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: Conv2dSpec,
    cfg: ParallelConfig,
) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d input must be [n, c, h, w]");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [oc, ic, k, k]");
    let (n, ic, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oc = weight.dims()[0];
    assert_eq!(weight.dims()[1], ic, "conv2d channel mismatch");
    assert_eq!(weight.dims()[2], spec.kernel, "conv2d kernel mismatch");
    assert_eq!(weight.dims()[3], spec.kernel, "conv2d kernel mismatch");
    assert_eq!(bias.dims(), &[oc], "conv2d bias must be [oc]");
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let ckk = ic * spec.kernel * spec.kernel;
    let tile = oh * ow;

    let w_data = weight.data();
    let b_data = bias.data();
    let in_data = input.data();
    let img_len = ic * h * w;

    // A unit is one sample's block of up to MR consecutive out-channels: a
    // contiguous `rows·oh·ow` stretch of the output, short when it is the
    // `oc % MR` tail. Block boundaries never depend on the thread count,
    // so an output element is always computed by the same tile or edge
    // path. A worker allocates one im2col workspace — which is what the
    // static cost model certifies — and refills it whenever its units move
    // on to the next sample.
    let blocks = oc.div_ceil(MR);
    let block_rows = |u: usize| {
        let ch = u % blocks * MR;
        ch..(ch + MR).min(oc)
    };
    let mut out = vec![0.0f32; n * oc * tile];
    pool::partitioned_by(
        &mut out,
        n * blocks,
        |u| block_rows(u).len() * tile,
        cfg.threads(),
        |range, mut block| {
            if range.is_empty() {
                return;
            }
            let mut cols = Tensor::zeros([ckk, tile]);
            let mut unfolded = None;
            for u in range {
                let (s, rows) = (u / blocks, block_rows(u));
                if unfolded != Some(s) {
                    let img = &in_data[s * img_len..(s + 1) * img_len];
                    unfold_into(cols.data_mut(), img, ic, h, w, spec);
                    unfolded = Some(s);
                }
                let (unit_out, rest) = std::mem::take(&mut block).split_at_mut(rows.len() * tile);
                block = rest;
                rows_times_matrix(
                    &w_data[rows.start * ckk..rows.end * ckk],
                    cols.data(),
                    ckk,
                    tile,
                    &b_data[rows],
                    unit_out,
                );
            }
        },
    );
    Tensor::from_parts([n, oc, oh, ow], out)
}

/// The default thread configuration for a convolution: parallel only when
/// the multiply–add count `n·oc·oh·ow·ic·k²` clears the [`PAR_MIN_WORK`]
/// threshold.
fn default_conv_config(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> ParallelConfig {
    if let (&[n, _, h, w], &[oc, ic, kh, kw]) = (input.dims(), weight.dims()) {
        let work = n * oc * spec.out_size(h) * spec.out_size(w) * ic * kh * kw;
        if work >= PAR_MIN_WORK {
            return ParallelConfig::default();
        }
    }
    ParallelConfig::sequential()
}

/// Gradients of [`conv2d`] with respect to its input, weight and bias.
///
/// `grad_out` has the forward output's shape `[n, oc, oh, ow]`. Returns
/// `(grad_input, grad_weight, grad_bias)` with the corresponding operand
/// shapes. Per-sample partial gradients are computed in parallel (process
/// default [`ParallelConfig`], size-thresholded) and merged in sample
/// order, so results are bit-identical at every thread count.
///
/// # Panics
///
/// Panics on any rank or dimension mismatch.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    conv2d_backward_with(
        input,
        weight,
        grad_out,
        spec,
        default_conv_config(input, weight, spec),
    )
}

/// [`conv2d_backward`] with an explicit thread configuration and no size
/// threshold — `cfg.threads() == 1` runs the exact sequential kernel on
/// the calling thread.
///
/// # Panics
///
/// Panics on any rank or dimension mismatch.
pub fn conv2d_backward_with(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    cfg: ParallelConfig,
) -> (Tensor, Tensor, Tensor) {
    let (n, ic, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oc = weight.dims()[0];
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    assert_eq!(
        grad_out.dims(),
        &[n, oc, oh, ow],
        "conv2d_backward grad_out shape mismatch"
    );

    let k2 = spec.kernel * spec.kernel;
    // Weight is [oc, ic, k, k] per the forward contract. lint: allow(no-expect)
    let w_mat = weight.reshape([oc, ic * k2]).expect("weight reshape");
    let w_mat_t = w_mat.transpose();

    let img_len = ic * h * w;
    let out_len = oc * oh * ow;

    // Per-sample partials `(dcols→image, dW, db)` fan out across workers.
    // Inner matmuls stay sequential: the sample axis already saturates the
    // configured threads, and nesting scopes would oversubscribe.
    let inner = ParallelConfig::sequential();
    let partials = pool::map_indexed(n, cfg.threads(), |s| {
        let go = Tensor::from_parts(
            [oc, oh * ow],
            grad_out.data()[s * out_len..(s + 1) * out_len].to_vec(),
        );
        // Bias gradient: sum over spatial positions.
        let gb: Vec<f32> = (0..oc).map(|ch| go.row(ch).iter().sum::<f32>()).collect();
        // Weight gradient: dW_s = dY · colsᵀ.
        let cols = im2col(
            &input.data()[s * img_len..(s + 1) * img_len],
            ic,
            h,
            w,
            spec,
        );
        let gw = go
            .try_matmul_with(&cols.transpose(), inner)
            .unwrap_or_else(|_| unreachable!());
        // Input gradient: dcols = Wᵀ · dY, scattered by col2im.
        let dcols = w_mat_t
            .try_matmul_with(&go, inner)
            .unwrap_or_else(|_| unreachable!());
        (col2im(&dcols, ic, h, w, spec), gw, gb)
    });

    // Merge in sample order: the accumulation sequence (and therefore
    // every rounding step) is the one the sequential loop performs.
    let mut grad_input = Vec::with_capacity(n * img_len);
    let mut grad_w = Tensor::zeros([oc, ic * k2]);
    let mut grad_b = vec![0.0f32; oc];
    for (gi_s, gw_s, gb_s) in partials {
        grad_input.extend(gi_s);
        grad_w.axpy(1.0, &gw_s);
        for (gb, g) in grad_b.iter_mut().zip(gb_s) {
            *gb += g;
        }
    }

    (
        Tensor::from_parts([n, ic, h, w], grad_input),
        // grad_w was allocated as [oc, ic * k2]. lint: allow(no-expect)
        grad_w
            .into_reshaped([oc, ic, spec.kernel, spec.kernel])
            .expect("grad_w reshape"),
        Tensor::from_parts([oc], grad_b),
    )
}

/// Non-overlapping average pooling over `window × window` tiles.
///
/// Input `[n, c, h, w]` with `h`, `w` divisible by `window`; output
/// `[n, c, h/window, w/window]`.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `window`.
pub fn avg_pool2d(input: &Tensor, window: usize) -> Tensor {
    assert_eq!(input.rank(), 4, "avg_pool2d input must be [n, c, h, w]");
    assert!(window > 0, "window must be positive");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    assert_eq!(h % window, 0, "height {h} not divisible by window {window}");
    assert_eq!(w % window, 0, "width {w} not divisible by window {window}");
    let (oh, ow) = (h / window, w / window);
    let scale = 1.0 / (window * window) as f32;
    // One (sample, channel) plane at a time; within a window the rows are
    // added top to bottom and left to right.
    let mut out = vec![0.0f32; n * c * oh * ow];
    let planes = input.data().chunks_exact((h * w).max(1));
    for (plane, out_plane) in planes.zip(out.chunks_exact_mut((oh * ow).max(1))) {
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            let rows = &plane[oy * window * w..(oy + 1) * window * w];
            for (ox, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for row in rows.chunks_exact(w) {
                    for &v in &row[ox * window..(ox + 1) * window] {
                        acc += v;
                    }
                }
                *o = acc * scale;
            }
        }
    }
    // `out` was allocated as n * c * oh * ow zeros. lint: allow(no-expect)
    Tensor::from_vec(out, [n, c, oh, ow]).expect("avg_pool2d volume by construction")
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient evenly over
/// its input window.
///
/// # Panics
///
/// Panics on shape mismatch between `grad_out` and the pooled geometry.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    input_h: usize,
    input_w: usize,
    window: usize,
) -> Tensor {
    assert_eq!(
        grad_out.rank(),
        4,
        "avg_pool2d_backward grad must be [n, c, oh, ow]"
    );
    let (n, c, oh, ow) = (
        grad_out.dims()[0],
        grad_out.dims()[1],
        grad_out.dims()[2],
        grad_out.dims()[3],
    );
    assert_eq!(oh * window, input_h, "pooled height mismatch");
    assert_eq!(ow * window, input_w, "pooled width mismatch");
    let scale = 1.0 / (window * window) as f32;
    let mut out = vec![0.0f32; n * c * input_h * input_w];
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * input_h * input_w;
            let obase = (s * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.data()[obase + oy * ow + ox] * scale;
                    for dy in 0..window {
                        for dx in 0..window {
                            out[base + (oy * window + dy) * input_w + ox * window + dx] += g;
                        }
                    }
                }
            }
        }
    }
    // `out` was allocated as n * c * input_h * input_w zeros. lint: allow(no-expect)
    Tensor::from_vec(out, [n, c, input_h, input_w]).expect("avg_pool2d_backward volume")
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    assert_eq!(
        input.rank(),
        4,
        "global_avg_pool input must be [n, c, h, w]"
    );
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let scale = 1.0 / (h * w) as f32;
    let (data, hw) = (input.data(), h * w);
    let out: Vec<f32> = (0..n * c)
        .map(|plane| data[plane * hw..(plane + 1) * hw].iter().sum::<f32>() * scale)
        .collect();
    // One mean per (sample, channel) plane. lint: allow(no-expect)
    Tensor::from_vec(out, [n, c]).expect("global_avg_pool volume")
}

/// Backward pass of [`global_avg_pool`].
pub fn global_avg_pool_backward(grad_out: &Tensor, h: usize, w: usize) -> Tensor {
    assert_eq!(
        grad_out.rank(),
        2,
        "global_avg_pool_backward grad must be [n, c]"
    );
    let (n, c) = (grad_out.dims()[0], grad_out.dims()[1]);
    let scale = 1.0 / (h * w) as f32;
    let mut out = Vec::with_capacity(n * c * h * w);
    for &g in grad_out.data() {
        out.extend(std::iter::repeat_n(g * scale, h * w));
    }
    // Each of the n * c gradients spreads into h * w cells. lint: allow(no-expect)
    Tensor::from_vec(out, [n, c, h, w]).expect("global_avg_pool_backward volume")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::oracle::{bits, matmul_rows, salted};
    use proptest::prelude::*;

    /// The unfold [`unfold_into`] replaced: a coordinate computation, two
    /// bounds tests and a select per element. Kept as the oracle.
    fn im2col_per_element(img: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Vec<f32> {
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let k = spec.kernel;
        let mut cols = vec![0.0f32; c * k * k * oh * ow];
        let col_w = oh * ow;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ch * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                img[(ch * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                            cols[row * col_w + oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
        cols
    }

    /// The forward kernel the tile kernel replaced, kept as the oracle of
    /// the differential test: per-element unfold, one `matmul_rows` call
    /// (finiteness scan, zero-skip) per out-channel, then a bias pass.
    fn conv2d_per_channel(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: Conv2dSpec,
    ) -> Tensor {
        let &[n, ic, h, w] = input.dims() else {
            unreachable!()
        };
        let oc = weight.dims()[0];
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let (ckk, tile, img_len) = (ic * spec.kernel * spec.kernel, oh * ow, ic * h * w);
        let mut out = vec![0.0f32; n * oc * tile];
        for s in 0..n {
            let img = &input.data()[s * img_len..(s + 1) * img_len];
            let cols = im2col_per_element(img, ic, h, w, spec);
            for ch in 0..oc {
                let tile_out = &mut out[(s * oc + ch) * tile..(s * oc + ch + 1) * tile];
                matmul_rows(weight.data(), &cols, ckk, tile, ch..ch + 1, tile_out);
                for o in tile_out {
                    *o += bias.data()[ch];
                }
            }
        }
        Tensor::from_parts([n, oc, oh, ow], out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The tile kernel against the kernel it replaced, bit for bit, on
        /// every geometry class and tail case (`oc < MR`, `oc % MR ≠ 0`,
        /// `oh·ow < NR`, `oh·ow % NR ≠ 0`), at every thread count.
        #[test]
        fn tile_forward_is_bit_identical_to_the_per_channel_kernel(
            (ki, stride, padding) in (0usize..4, 1usize..4, 0usize..3),
            (n, ic, oc) in (0usize..4, 1usize..4, 1usize..6),
            (h, w) in (1usize..10, 1usize..10),
            seed in 0u64..100_000,
        ) {
            let kernel = [1, 2, 3, 5][ki];
            let spec = Conv2dSpec::new(kernel, stride, padding);
            let fit = kernel.saturating_sub(2 * padding).max(1);
            let (h, w) = (h.max(fit), w.max(fit));
            let input = salted(&[n, ic, h, w], seed);
            let weight = salted(&[oc, ic, kernel, kernel], seed.wrapping_add(1));
            let bias = salted(&[oc], seed.wrapping_add(2));

            let want = conv2d_per_channel(&input, &weight, &bias, spec);
            for threads in [1, 2, 3, 4, 8] {
                let got = conv2d_with(&input, &weight, &bias, spec, ParallelConfig::with_threads(threads));
                prop_assert_eq!(got.dims(), want.dims());
                prop_assert!(bits(&got) == bits(&want), "threads={threads}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn tile_forward_matches_on_the_shake_shake_shapes() {
        // (ic, oc, hw, kernel, stride, padding): every distinct conv of
        // SS-14, shortcuts included. Finite data, so no NaN is mapped.
        for (ic, oc, hw, kernel, stride, padding) in [
            (3, 16, 32, 3, 1, 1),
            (16, 16, 32, 3, 1, 1),
            (16, 32, 32, 3, 2, 1),
            (16, 32, 32, 1, 2, 0),
            (32, 32, 16, 3, 1, 1),
            (32, 64, 16, 3, 2, 1),
            (32, 64, 16, 1, 2, 0),
            (64, 64, 8, 3, 1, 1),
        ] {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(hw as u64 + oc as u64);
            let spec = Conv2dSpec::new(kernel, stride, padding);
            let input = Tensor::randn([1, ic, hw, hw], 0.0, 1.0, &mut rng);
            let weight = Tensor::randn([oc, ic, kernel, kernel], 0.0, 0.2, &mut rng);
            let bias = Tensor::randn([oc], 0.0, 0.2, &mut rng);
            let want = conv2d_per_channel(&input, &weight, &bias, spec);
            for threads in [1, 2] {
                let got = conv2d_with(
                    &input,
                    &weight,
                    &bias,
                    spec,
                    ParallelConfig::with_threads(threads),
                );
                let raw = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    raw(&got),
                    raw(&want),
                    "{ic}->{oc} @{hw} k{kernel} s{stride}"
                );
            }
        }
    }

    #[test]
    fn span_unfold_equals_the_per_element_unfold() {
        for kernel in [1, 2, 3, 5] {
            for stride in 1..=3 {
                for padding in 0..=2 {
                    let spec = Conv2dSpec::new(kernel, stride, padding);
                    let fit = kernel.saturating_sub(2 * padding).max(1);
                    for (c, h, w) in [(1, fit, fit), (2, fit + 1, fit + 4), (3, 7, 5), (1, 9, 9)] {
                        let (h, w) = (h.max(fit), w.max(fit));
                        // No zero in the image: a padding position that got
                        // written, or an in-bounds one that did not, shows.
                        let img: Vec<f32> = (0..c * h * w).map(|i| 1.0 + i as f32).collect();
                        let got = im2col(&img, c, h, w, spec);
                        let want = im2col_per_element(&img, c, h, w, spec);
                        assert_eq!(
                            got.data(),
                            &want[..],
                            "k{kernel} s{stride} p{padding} {c}x{h}x{w}"
                        );
                        // Refilling a used workspace leaves no stale cell.
                        let mut again = got.clone();
                        let next: Vec<f32> = img.iter().map(|v| -v).collect();
                        unfold_into(again.data_mut(), &next, c, h, w, spec);
                        assert_eq!(again.data(), &im2col_per_element(&next, c, h, w, spec)[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn default_config_counts_the_multiply_adds_a_strided_conv_performs() {
        // Needs a parallel default to tell the two sides apart.
        if ParallelConfig::default().is_sequential() {
            return;
        }
        let spec = Conv2dSpec::new(3, 2, 1);
        let weight = Tensor::zeros([8, 4, 3, 3]);
        // n·oc·oh·ow·ic·k² = n·8·16·16·36 = n·73 728 multiply–adds for a
        // 32×32 → 16×16 strided conv. 29 images is 2.1 M (the old
        // input-sized count read four times that, 8.6 M, and fanned out);
        // 113 is one step under the 2²³ threshold, 114 over it.
        for (n, parallel) in [(29, false), (113, false), (114, true)] {
            let cfg = default_conv_config(&Tensor::zeros([n, 4, 32, 32]), &weight, spec);
            assert_eq!(!cfg.is_sequential(), parallel, "n={n}");
        }
    }

    #[test]
    fn out_size_formula() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.out_size(8), 8); // "same" convolution
        assert_eq!(Conv2dSpec::new(3, 2, 1).out_size(8), 4);
        assert_eq!(Conv2dSpec::new(2, 2, 0).out_size(8), 4);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 and bias 0 is the identity.
        let input = Tensor::arange(2 * 3 * 4)
            .into_reshaped([1, 2, 3, 4])
            .unwrap();
        let mut weight = Tensor::zeros([2, 2, 1, 1]);
        weight.set(&[0, 0, 0, 0], 1.0);
        weight.set(&[1, 1, 0, 0], 1.0);
        let out = conv2d(
            &input,
            &weight,
            &Tensor::zeros([2]),
            Conv2dSpec::new(1, 1, 0),
        );
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_hand_computed() {
        // 1 sample, 1 channel, 3x3 input; 2x2 kernel of ones, stride 1: each
        // output is the sum of a 2x2 window.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 1, 3, 3],
        )
        .unwrap();
        let weight = Tensor::ones([1, 1, 2, 2]);
        let bias = Tensor::from_vec(vec![0.5], [1]).unwrap();
        let out = conv2d(&input, &weight, &bias, Conv2dSpec::new(2, 1, 0));
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn conv2d_padding_zero_extends() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        let out = conv2d(
            &input,
            &weight,
            &Tensor::zeros([1]),
            Conv2dSpec::new(3, 1, 1),
        );
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Every 3x3 window sees exactly the 4 ones.
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    /// Finite-difference check of every conv2d gradient.
    #[test]
    fn conv2d_backward_matches_finite_differences() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let spec = Conv2dSpec::new(3, 2, 1);
        let input = Tensor::randn([2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let bias = Tensor::randn([3], 0.0, 0.5, &mut rng);

        // Scalar objective: sum of outputs, so dL/dy = 1 everywhere.
        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d(inp, wt, b, spec).sum();
        let out = conv2d(&input, &weight, &bias, spec);
        let ones = Tensor::ones(out.shape().clone());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &ones, spec);

        let eps = 1e-2;
        let check = |analytic: &Tensor, which: &str, perturb: &dyn Fn(usize, f32) -> f32| {
            for probe in [0usize, analytic.len() / 2, analytic.len() - 1] {
                let num = (perturb(probe, eps) - perturb(probe, -eps)) / (2.0 * eps);
                let ana = analytic.data()[probe];
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                    "{which}[{probe}]: numeric {num} vs analytic {ana}"
                );
            }
        };
        check(&gi, "grad_input", &|i, d| {
            let mut p = input.clone();
            p.data_mut()[i] += d;
            loss(&p, &weight, &bias)
        });
        check(&gw, "grad_weight", &|i, d| {
            let mut p = weight.clone();
            p.data_mut()[i] += d;
            loss(&input, &p, &bias)
        });
        check(&gb, "grad_bias", &|i, d| {
            let mut p = bias.clone();
            p.data_mut()[i] += d;
            loss(&input, &weight, &p)
        });
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        )
        .unwrap();
        let out = avg_pool2d(&input, 2);
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.5, 5.5, 11.5, 13.5]);
        let grad = avg_pool2d_backward(&Tensor::ones([1, 1, 2, 2]), 4, 4, 2);
        // Each input cell receives 1/4 of its window's gradient.
        assert!(grad.data().iter().all(|&g| (g - 0.25).abs() < 1e-7));
        assert!((grad.sum() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let input = Tensor::arange(2 * 3 * 2 * 2)
            .into_reshaped([2, 3, 2, 2])
            .unwrap();
        let out = global_avg_pool(&input);
        assert_eq!(out.dims(), &[2, 3]);
        assert_eq!(out.at(&[0, 0]), 1.5); // mean of 0..4
        let back = global_avg_pool_backward(&out, 2, 2);
        assert_eq!(back.dims(), &[2, 3, 2, 2]);
        assert!((back.at(&[0, 0, 0, 0]) - 1.5 / 4.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn avg_pool_rejects_indivisible() {
        avg_pool2d(&Tensor::zeros([1, 1, 3, 3]), 2);
    }

    #[test]
    fn conv2d_parallel_is_bit_identical_to_sequential() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::randn([3, 2, 6, 6], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([4, 2, 3, 3], 0.0, 0.5, &mut rng);
        let bias = Tensor::randn([4], 0.0, 0.5, &mut rng);
        let grad = Tensor::randn([3, 4, 6, 6], 0.0, 1.0, &mut rng);

        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let seq = conv2d_with(&input, &weight, &bias, spec, ParallelConfig::sequential());
        let (si, sw, sb) =
            conv2d_backward_with(&input, &weight, &grad, spec, ParallelConfig::sequential());
        for threads in [2, 3, 4, 8] {
            let cfg = ParallelConfig::with_threads(threads);
            let par = conv2d_with(&input, &weight, &bias, spec, cfg);
            assert_eq!(bits(&seq), bits(&par), "forward, threads={threads}");
            let (pi, pw, pb) = conv2d_backward_with(&input, &weight, &grad, spec, cfg);
            assert_eq!(bits(&si), bits(&pi), "grad_input, threads={threads}");
            assert_eq!(bits(&sw), bits(&pw), "grad_weight, threads={threads}");
            assert_eq!(bits(&sb), bits(&pb), "grad_bias, threads={threads}");
        }
    }

    #[test]
    fn conv2d_handles_empty_batch() {
        for threads in [1, 4] {
            let cfg = ParallelConfig::with_threads(threads);
            let out = conv2d_with(
                &Tensor::zeros([0, 2, 4, 4]),
                &Tensor::zeros([3, 2, 3, 3]),
                &Tensor::zeros([3]),
                Conv2dSpec::new(3, 1, 1),
                cfg,
            );
            assert_eq!(out.dims(), &[0, 3, 4, 4]);
            let (gi, gw, gb) = conv2d_backward_with(
                &Tensor::zeros([0, 2, 4, 4]),
                &Tensor::zeros([3, 2, 3, 3]),
                &out,
                Conv2dSpec::new(3, 1, 1),
                cfg,
            );
            assert_eq!(gi.dims(), &[0, 2, 4, 4]);
            assert_eq!(gw.dims(), &[3, 2, 3, 3]);
            assert_eq!(gb.dims(), &[3]);
        }
    }
}
