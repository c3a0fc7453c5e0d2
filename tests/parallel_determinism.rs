//! Property tests for the determinism contract of the parallel compute
//! backend: every kernel in `teamnet_tensor::pool`'s orbit must produce
//! **bit-identical** results at every thread count, because workers write
//! disjoint output blocks with an unchanged per-element reduction order.
//!
//! Shapes are drawn adversarially small (including zero-sized axes) so
//! the partitioner's edge cases — fewer units than threads, empty
//! batches, degenerate tiles — are all exercised with real threads.

use proptest::prelude::*;
use teamnet_core::{build_expert, TeamNet};
use teamnet_nn::ModelSpec;
use teamnet_tensor::conv::{conv2d_backward_with, conv2d_with, Conv2dSpec};
use teamnet_tensor::{ParallelConfig, Tensor};

const THREAD_COUNTS: [usize; 3] = [2, 3, 4];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// A seeded matrix of mostly finite values with zeros and the IEEE
/// specials sprinkled in at deterministic positions, so the matmul
/// sparsity skip sees the operands it must not silently absorb.
fn adversarial_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::rand_uniform([rows, cols], -4.0, 4.0, &mut rng);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match (i + seed as usize) % 11 {
            0 | 4 => *v = 0.0,
            6 => *v = f32::NAN,
            8 => *v = f32::INFINITY,
            9 => *v = f32::NEG_INFINITY,
            _ => {}
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel matmul is bit-identical to the sequential kernel for
    /// arbitrary shapes — including m=0, n=0, k=0 — and arbitrary data,
    /// NaN and infinities included.
    #[test]
    fn matmul_is_bit_identical_across_thread_counts(
        m in 0usize..9,
        k in 0usize..9,
        n in 0usize..9,
        seed in 0u64..10_000,
    ) {
        let a = adversarial_matrix(m, k, seed);
        let b = adversarial_matrix(k, n, seed.wrapping_add(1));

        let reference = a
            .try_matmul_with(&b, ParallelConfig::sequential())
            .expect("shapes agree");
        for threads in THREAD_COUNTS {
            let out = a
                .try_matmul_with(&b, ParallelConfig::with_threads(threads))
                .expect("shapes agree");
            prop_assert_eq!(out.dims(), &[m, n]);
            prop_assert_eq!(bits(&out), bits(&reference));
        }
    }

    /// Parallel conv2d forward and backward are bit-identical to the
    /// sequential kernels, empty batches included.
    #[test]
    fn conv2d_is_bit_identical_across_thread_counts(
        n in 0usize..4,
        ic in 1usize..4,
        oc in 1usize..5,
        hw in 3usize..8,
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::randn([n, ic, hw, hw], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([oc, ic, 3, 3], 0.0, 0.3, &mut rng);
        let bias = Tensor::randn([oc], 0.0, 0.3, &mut rng);

        let seq = ParallelConfig::sequential();
        let fwd_ref = conv2d_with(&input, &weight, &bias, spec, seq);
        let grad_out = Tensor::randn(fwd_ref.dims().to_vec(), 0.0, 1.0, &mut rng);
        let bwd_ref = conv2d_backward_with(&input, &weight, &grad_out, spec, seq);

        for threads in THREAD_COUNTS {
            let cfg = ParallelConfig::with_threads(threads);
            let fwd = conv2d_with(&input, &weight, &bias, spec, cfg);
            prop_assert_eq!(bits(&fwd), bits(&fwd_ref));
            let bwd = conv2d_backward_with(&input, &weight, &grad_out, spec, cfg);
            prop_assert_eq!(bits(&bwd.0), bits(&bwd_ref.0));
            prop_assert_eq!(bits(&bwd.1), bits(&bwd_ref.1));
            prop_assert_eq!(bits(&bwd.2), bits(&bwd_ref.2));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The per-expert inference fan-out returns the same predictions —
    /// labels, winning experts, and bit-level entropies — at every
    /// thread count.
    #[test]
    fn team_predictions_are_bit_identical_across_thread_counts(
        k in 2usize..5,
        batch in 1usize..9,
        seed in 0u64..100,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let spec = ModelSpec::mlp(2, 16);
        let experts = (0..k).map(|i| build_expert(&spec, seed.wrapping_add(i as u64))).collect();
        let mut team = TeamNet::from_experts(spec, experts);
        let mut rng = StdRng::seed_from_u64(seed);
        let images = Tensor::rand_uniform([batch, 1, 28, 28], 0.0, 1.0, &mut rng);

        team.set_parallelism(ParallelConfig::sequential());
        let reference = team.predict(&images);
        for threads in THREAD_COUNTS {
            team.set_parallelism(ParallelConfig::with_threads(threads));
            let out = team.predict(&images);
            prop_assert_eq!(out.len(), reference.len());
            for (a, b) in reference.iter().zip(&out) {
                prop_assert_eq!(a.label, b.label);
                prop_assert_eq!(a.expert, b.expert);
                prop_assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
            }
        }
    }
}

/// The NaN-propagation contract of the matmul sparsity skip, pinned
/// outside proptest so the exact adversarial case is always exercised:
/// a zero in the left operand multiplying a NaN/∞ on the right must
/// poison the accumulator, at every thread count.
#[test]
fn zero_times_nan_poisons_output_at_every_thread_count() {
    let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], [2, 2]).expect("volume");
    let b = Tensor::from_vec(vec![f32::NAN, 1.0, f32::INFINITY, 3.0], [2, 2]).expect("volume");
    for threads in [1, 2, 3, 4] {
        let c = a
            .try_matmul_with(&b, ParallelConfig::with_threads(threads))
            .expect("shapes agree");
        assert!(c.at(&[0, 0]).is_nan(), "0*NaN + 0*inf must be NaN");
        assert_eq!(c.at(&[0, 1]), 0.0, "0*1 + 0*3 stays an ordinary zero");
        assert!(c.at(&[1, 0]).is_nan(), "1*NaN + 2*inf must be NaN");
        assert_eq!(c.at(&[1, 1]), 7.0, "finite column is unaffected");
    }
}

/// The conv forward hands out blocks of two consecutive out-channels and
/// runs 16- or 32-column register tiles inside them (4 or 8 vector
/// lanes). Five out-channels over a 9×7 output (63 columns) leave a
/// one-channel block and a 15- or 31-column edge in every sample at
/// either width, the 3-image batch makes worker boundaries fall
/// inside a sample at 2, 3 and 4 threads, and the operands carry zeros,
/// NaN and ±∞. An output element is computed by the same tile or edge
/// code wherever the boundaries fall, so even the NaN bit patterns must
/// agree.
#[test]
fn conv2d_with_ragged_blocks_is_bit_identical_across_thread_counts() {
    let spec = Conv2dSpec::new(3, 2, 1);
    // Sparse specials: dense enough to reach every tile and edge path,
    // sparse enough that most receptive fields stay finite.
    let salted = |dims: [usize; 4], seed: u64| {
        use rand::{rngs::StdRng, SeedableRng};
        let mut t = Tensor::rand_uniform(dims, -2.0, 2.0, &mut StdRng::seed_from_u64(seed));
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 211 {
                0 | 97 => *v = 0.0,
                13 => *v = f32::NAN,
                101 => *v = f32::INFINITY,
                173 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        t
    };
    let input = salted([3, 4, 17, 13], 7);
    let weight = salted([5, 4, 3, 3], 8);
    let bias = Tensor::from_vec(vec![0.5, -0.0, 1.0, f32::NAN, -2.0], [5]).expect("volume");

    let reference = conv2d_with(&input, &weight, &bias, spec, ParallelConfig::sequential());
    assert_eq!(reference.dims(), &[3, 5, 9, 7]);
    assert!(reference.data().iter().any(|x| x.is_nan()));
    assert!(reference.data().iter().any(|x| x.is_finite()));
    for threads in [2, 3, 4, 8, 16] {
        let out = conv2d_with(
            &input,
            &weight,
            &bias,
            spec,
            ParallelConfig::with_threads(threads),
        );
        assert_eq!(bits(&out), bits(&reference), "threads={threads}");
    }
}
