//! Pins the bits of the dense kernels across instruction-set levels.
//!
//! The tile kernel sizes its register tile from the vector width the
//! build targets (`teamnet_tensor::VECTOR_LANES`: 8 on an x86-64-v3
//! build, 4 on baseline x86-64 and aarch64), yet every output element
//! keeps one rounding sequence — `k` ascending, each product rounded
//! before it is added. So the digests below, computed on a baseline
//! (4-lane) build, must come out equal on every build: CI runs this file
//! at the default x86-64-v3 level and again at `-C target-cpu=x86-64`.
//!
//! Operands are finite. Which NaN an addition propagates is the code
//! generator's choice (DESIGN.md §11), so non-finite operands are left to
//! the oracle proptests, which compare NaN-mapped bits.

use rand::{rngs::StdRng, SeedableRng};
use teamnet_core::build_expert;
use teamnet_nn::{Layer, Mode, ModelSpec};
use teamnet_tensor::conv::{conv2d, Conv2dSpec};
use teamnet_tensor::Tensor;

/// FNV-1a-64 over the dims and the bit patterns of a run of tensors.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for x in t.data() {
            assert!(x.is_finite(), "a pinned output is not finite");
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

fn uniform(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut rng)
}

/// Eval-mode forwards of two MLP-4 and two SS-14 experts, the models the
/// benchmark's rounds run, at the batch sizes the serve layer produces.
fn expert_forwards() -> u64 {
    let mut h = Digest::new();
    let cases = [
        (ModelSpec::mlp(4, 128), [1, 28, 28], &[1, 32, 64][..]),
        (ModelSpec::shake_shake(14, 16), [3, 32, 32], &[1, 2][..]),
    ];
    for (spec, [c, hh, ww], batches) in cases {
        for seed in 0..2 {
            let mut expert = build_expert(&spec, seed);
            for &batch in batches {
                let x = uniform(&[batch, c, hh, ww], 100 + seed + batch as u64);
                h.tensor(&expert.forward(&x, Mode::Eval));
            }
        }
    }
    h.0
}

/// Every matmul shape of `kernel_bench`'s traffic rows: MLP-4's Dense
/// layers at batch 1/32/64, the 10-column classifier and a 4-column gate
/// head.
fn traffic_matmuls() -> u64 {
    let mut h = Digest::new();
    for (m, k, n) in [
        (1, 784, 128),
        (32, 784, 128),
        (64, 784, 128),
        (1, 128, 128),
        (1, 128, 10),
        (64, 128, 10),
        (64, 784, 4),
    ] {
        let seed = (m * k + n) as u64;
        let a = uniform(&[m, k], seed);
        let b = uniform(&[k, n], seed + 1);
        h.tensor(&a.matmul(&b));
    }
    h.0
}

/// Every distinct conv of SS-14, shortcuts included, at batch 1 (one
/// inference) and batch 8.
fn ss14_convs() -> u64 {
    let mut h = Digest::new();
    // (ic, oc, hw, kernel, stride, padding)
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
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let seed = (ic * 1000 + oc * 10 + kernel) as u64;
        let weight = uniform(&[oc, ic, kernel, kernel], seed);
        let bias = uniform(&[oc], seed + 1);
        for batch in [1, 8] {
            let input = uniform(&[batch, ic, hw, hw], seed + 2 + batch as u64);
            h.tensor(&conv2d(&input, &weight, &bias, spec));
        }
    }
    h.0
}

#[test]
fn dense_kernels_give_the_same_bits_at_every_vector_width() {
    let got = [expert_forwards(), traffic_matmuls(), ss14_convs()];
    let want = [
        0x340a_686e_c7f8_5c22,
        0x53c4_e8f1_c36a_8293,
        0x5659_cd79_60d4_5d37,
    ];
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d: u64| format!("{d:#018x}")),
        "[expert forwards, traffic matmuls, SS-14 convs] at {} lanes",
        teamnet_tensor::VECTOR_LANES,
    );
}
