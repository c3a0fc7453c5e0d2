//! Dense linear algebra: matrix multiplication and transposition.
//!
//! `matmul` is BLAS-free: every product runs through the register-tiled
//! micro-kernel in [`crate::gemm`] — the same one the convolution forward
//! uses — in [`MR`]-row steps, with its output partitioned by row blocks
//! across scoped threads (see [`crate::pool`]). The per-element reduction
//! order (`k` ascending, each product rounded before it is added) depends
//! neither on the thread count nor on which rows share a tile, so results
//! are bit-identical at every `TEAMNET_THREADS` setting and a row of a
//! batched product equals the same row multiplied alone. Nothing is
//! skipped: a zero on the left still multiplies its NaN or ∞ on the
//! right, as IEEE-754 requires.
//!
//! Every operation comes in two forms: a `try_*` entry point returning
//! `Result<_, TensorError>` for callers that validate untrusted shapes,
//! and a thin panicking wrapper for the hot internal paths where a shape
//! mismatch is a programming error.

use crate::error::TensorError;
use crate::gemm::{rows_times_matrix, MR};
use crate::pool::{self, ParallelConfig, PAR_MIN_WORK};
use crate::tensor::Tensor;

fn require_rank(t: &Tensor, expected: usize, op: &'static str) -> Result<(), TensorError> {
    if t.rank() == expected {
        Ok(())
    } else {
        Err(TensorError::RankMismatch {
            op,
            expected,
            got: t.rank(),
        })
    }
}

fn shape_mismatch(op: &'static str, left: &Tensor, right: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        left: left.shape().to_string(),
        right: right.shape().to_string(),
        op,
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Large products are partitioned by row blocks across the process
    /// default [`ParallelConfig`]; outputs are bit-identical at every
    /// thread count. NaN/Inf anywhere in either operand propagates into
    /// the affected output elements per IEEE-754.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank-2, and [`TensorError::ShapeMismatch`] when the inner
    /// dimensions differ.
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let cfg = if self.rank() == 2 && rhs.rank() == 2 {
            let work = self.dims()[0] * self.dims()[1] * rhs.dims()[1];
            if work >= PAR_MIN_WORK {
                ParallelConfig::default()
            } else {
                ParallelConfig::sequential()
            }
        } else {
            ParallelConfig::sequential()
        };
        self.try_matmul_with(rhs, cfg)
    }

    /// [`Tensor::try_matmul`] with an explicit thread configuration and
    /// no size threshold — `cfg.threads() == 1` runs the exact
    /// sequential kernel on the calling thread.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::try_matmul`].
    pub fn try_matmul_with(
        &self,
        rhs: &Tensor,
        cfg: ParallelConfig,
    ) -> Result<Tensor, TensorError> {
        require_rank(self, 2, "matmul()")?;
        require_rank(rhs, 2, "matmul()")?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        if k != k2 {
            return Err(shape_mismatch("matmul()", self, rhs));
        }
        let a = self.data();
        let b = rhs.data();
        let mut out = vec![0.0f32; m * n];
        pool::partitioned(&mut out, m, cfg.threads(), |rows, block| {
            // A row's bits do not depend on which row shares its tile, so
            // each worker pairs rows from the start of its own block.
            for r0 in rows.clone().step_by(MR) {
                let r1 = (r0 + MR).min(rows.end);
                rows_times_matrix(
                    &a[r0 * k..r1 * k],
                    b,
                    k,
                    n,
                    &[0.0; MR][..r1 - r0],
                    &mut block[(r0 - rows.start) * n..(r1 - rows.start) * n],
                );
            }
        });
        Ok(Tensor::from_parts([m, n], out))
    }

    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner
    /// dimensions. Use [`Tensor::try_matmul`] to validate instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use teamnet_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
    /// assert_eq!(a.matmul(&i), a);
    /// # Ok::<(), teamnet_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul() requires rank-2 operands");
        assert_eq!(rhs.rank(), 2, "matmul() requires rank-2 operands");
        assert_eq!(
            self.dims()[1],
            rhs.dims()[0],
            "matmul() inner dimension mismatch: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        self.try_matmul(rhs).unwrap_or_else(|_| unreachable!())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank-2.
    pub fn try_transpose(&self) -> Result<Tensor, TensorError> {
        require_rank(self, 2, "transpose()")?;
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Ok(Tensor::from_parts([n, m], out))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2. Use [`Tensor::try_transpose`]
    /// to validate instead.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose() requires a rank-2 tensor");
        self.try_transpose().unwrap_or_else(|_| unreachable!())
    }

    /// Matrix–vector product: `[m, n] × [n] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank-2 and
    /// `v` rank-1, and [`TensorError::ShapeMismatch`] when the lengths
    /// disagree.
    pub fn try_matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        require_rank(self, 2, "matvec()")?;
        require_rank(v, 1, "matvec()")?;
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if n != v.dims()[0] {
            return Err(shape_mismatch("matvec()", self, v));
        }
        Ok((0..m)
            .map(|i| self.row(i).iter().zip(v.data()).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Matrix–vector product: `[m, n] × [n] → [m]`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank-2 and `v` is rank-1 with matching
    /// length. Use [`Tensor::try_matvec`] to validate instead.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec() requires a rank-2 matrix");
        assert_eq!(v.rank(), 1, "matvec() requires a rank-1 vector");
        assert_eq!(self.dims()[1], v.dims()[0], "matvec() dimension mismatch");
        self.try_matvec(v).unwrap_or_else(|_| unreachable!())
    }

    /// Outer product of two rank-1 tensors: `[m] ⊗ [n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank-1.
    pub fn try_outer(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        require_rank(self, 1, "outer()")?;
        require_rank(rhs, 1, "outer()")?;
        let (m, n) = (self.dims()[0], rhs.dims()[0]);
        let mut out = Vec::with_capacity(m * n);
        for &a in self.data() {
            for &b in rhs.data() {
                out.push(a * b);
            }
        }
        Ok(Tensor::from_parts([m, n], out))
    }

    /// Outer product of two rank-1 tensors: `[m] ⊗ [n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-1. Use [`Tensor::try_outer`]
    /// to validate instead.
    pub fn outer(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer() requires rank-1 operands");
        assert_eq!(rhs.rank(), 1, "outer() requires rank-1 operands");
        self.try_outer(rhs).unwrap_or_else(|_| unreachable!())
    }

    /// Dot product of two rank-1 tensors of equal length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank-1, and [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn try_dot(&self, rhs: &Tensor) -> Result<f32, TensorError> {
        require_rank(self, 1, "dot()")?;
        require_rank(rhs, 1, "dot()")?;
        if self.len() != rhs.len() {
            return Err(shape_mismatch("dot()", self, rhs));
        }
        Ok(self
            .data()
            .iter()
            .zip(rhs.data())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Dot product of two rank-1 tensors of equal length.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-1 with equal lengths. Use
    /// [`Tensor::try_dot`] to validate instead.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot() requires rank-1 operands");
        assert_eq!(rhs.rank(), 1, "dot() requires rank-1 operands");
        assert_eq!(self.len(), rhs.len(), "dot() length mismatch");
        self.try_dot(rhs).unwrap_or_else(|_| unreachable!())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::oracle::{bits, matmul_rows, salted, TAIL_NS};
    use proptest::prelude::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// Inner sizes of the differential tests; their column sizes are
    /// `TAIL_NS`, derived from the tile constants so every rung of the
    /// tail ladder is hit at either vector width.
    const KS: [usize; 5] = [0, 1, 3, 27, 40];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `matmul` against the row kernel it retired, bit for bit: every
        /// tile shape and column tail, odd row counts, empty operands,
        /// every thread count, with zeros, `−0`, subnormals, NaN and `±∞`
        /// on both sides.
        #[test]
        fn matmul_is_bit_identical_to_the_row_kernel(
            m in 0usize..6,
            (ki, ni) in (0usize..KS.len(), 0usize..TAIL_NS.len()),
            seed in 0u64..100_000,
        ) {
            let (k, n) = (KS[ki], TAIL_NS[ni]);
            let a = salted(&[m, k], seed);
            let b = salted(&[k, n], seed.wrapping_add(1));
            let mut want = vec![0.0f32; m * n];
            matmul_rows(a.data(), b.data(), k, n, 0..m, &mut want);
            let want = Tensor::from_parts([m, n], want);
            for threads in [1, 2, 3, 4, 8] {
                let got = a.try_matmul_with(&b, ParallelConfig::with_threads(threads)).unwrap();
                prop_assert_eq!(got.dims(), want.dims());
                prop_assert!(bits(&got) == bits(&want), "threads={threads}: {got:?} vs {want:?}");
            }
        }

        /// The serving bijection at kernel level: a row of a batched
        /// product is the same row multiplied alone, whichever rows it
        /// shared a tile with.
        #[test]
        fn each_row_of_a_product_equals_that_row_multiplied_alone(
            m in 1usize..6,
            (ki, ni) in (0usize..KS.len(), 0usize..TAIL_NS.len()),
            seed in 0u64..100_000,
        ) {
            let (k, n) = (KS[ki], TAIL_NS[ni]);
            let a = salted(&[m, k], seed);
            let b = salted(&[k, n], seed.wrapping_add(1));
            let batched = a.matmul(&b);
            for r in 0..m {
                let solo = Tensor::from_parts([1, k], a.row(r).to_vec()).matmul(&b);
                let row = Tensor::from_parts([1, n], batched.row(r).to_vec());
                prop_assert!(bits(&row) == bits(&solo), "row {r} of {m}: {row:?} vs {solo:?}");
            }
        }
    }

    #[test]
    fn matmul_hand_computed() {
        // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]); // 2x3
        let b = t(&[3.0, 1.0, 2.0, 1.0, 1.0, 0.0], &[3, 2]); // 3x2
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut eye = Tensor::zeros([3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0);
        }
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        t(&[1.0, 2.0], &[1, 2]).matmul(&t(&[1.0], &[1, 1]));
    }

    #[test]
    fn try_matmul_reports_typed_errors() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let bad_rank = a.try_matmul(&t(&[1.0], &[1]));
        assert!(matches!(
            bad_rank.unwrap_err(),
            TensorError::RankMismatch {
                op: "matmul()",
                expected: 2,
                got: 1
            }
        ));
        let bad_inner = a.try_matmul(&t(&[1.0], &[1, 1]));
        assert!(matches!(
            bad_inner.unwrap_err(),
            TensorError::ShapeMismatch { op: "matmul()", .. }
        ));
    }

    #[test]
    fn matmul_propagates_nan_and_inf_from_either_operand() {
        // The zero row of `a` meets NaN/∞ in `b`: 0·NaN = NaN, 0·∞ = NaN.
        let a = t(&[0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = t(&[f32::NAN, 1.0, 2.0, 3.0], &[2, 2]);
        let c = a.matmul(&b);
        assert!(c.at(&[0, 0]).is_nan(), "0·NaN must poison, got {c:?}");
        assert_eq!(c.at(&[0, 1]), 0.0);
        assert!(c.at(&[1, 0]).is_nan());
        assert_eq!(c.at(&[1, 1]), 7.0);

        let inf = t(&[f32::INFINITY, 0.0, 0.0, 0.0], &[2, 2]);
        let d = a.matmul(&inf);
        assert!(d.at(&[0, 0]).is_nan(), "0·∞ must poison, got {d:?}");

        // NaN in the *left* operand, against a finite rhs.
        let an = t(&[f32::NAN, 0.0, 0.0, 1.0], &[2, 2]);
        let e = an.matmul(&t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        assert!(e.at(&[0, 0]).is_nan() && e.at(&[0, 1]).is_nan());
        assert_eq!(e.at(&[1, 0]), 3.0);
    }

    #[test]
    fn matmul_parallel_is_bit_identical_to_sequential() {
        let m = 17;
        let k = 13;
        let n = 11;
        let a: Tensor = (0..m * k)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 / 7.0 - 60.0)
            .collect::<Tensor>()
            .reshape([m, k])
            .unwrap();
        let b: Tensor = (0..k * n)
            .map(|i| ((i * 40503usize) % 997) as f32 / 11.0 - 40.0)
            .collect::<Tensor>()
            .reshape([k, n])
            .unwrap();
        let seq = a.try_matmul_with(&b, ParallelConfig::sequential()).unwrap();
        for threads in [2, 3, 4, 8] {
            let par = a
                .try_matmul_with(&b, ParallelConfig::with_threads(threads))
                .unwrap();
            let seq_bits: Vec<u32> = seq.data().iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u32> = par.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "threads={threads}");
        }
    }

    #[test]
    fn matmul_handles_zero_dimensions() {
        for threads in [1, 4] {
            let cfg = ParallelConfig::with_threads(threads);
            let a0 = Tensor::zeros([0, 3]);
            let b = Tensor::zeros([3, 2]);
            assert_eq!(a0.try_matmul_with(&b, cfg).unwrap().dims(), &[0, 2]);
            let a = Tensor::zeros([2, 0]);
            let b0 = Tensor::zeros([0, 3]);
            assert_eq!(a.try_matmul_with(&b0, cfg).unwrap().dims(), &[2, 3]);
            let bn = Tensor::zeros([3, 0]);
            let c = Tensor::zeros([2, 3]).try_matmul_with(&bn, cfg).unwrap();
            assert_eq!(c.dims(), &[2, 0]);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn transpose_respects_product_rule() {
        // (A B)^T == B^T A^T
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[0.0, 1.0, -1.0, 2.0], &[2, 2]);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = t(&[1.0, 0.0, -1.0], &[3]);
        let got = a.matvec(&v);
        let want = a.matmul(&v.reshape([3, 1]).unwrap());
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn outer_and_dot() {
        let u = t(&[1.0, 2.0], &[2]);
        let v = t(&[3.0, 4.0, 5.0], &[3]);
        let o = u.outer(&v);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        assert_eq!(u.dot(&u), 5.0);
    }

    #[test]
    fn try_variants_agree_with_panicking_wrappers() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = t(&[1.0, -1.0], &[2]);
        assert_eq!(a.try_transpose().unwrap(), a.transpose());
        assert_eq!(a.try_matvec(&v).unwrap(), a.matvec(&v));
        assert_eq!(v.try_outer(&v).unwrap(), v.outer(&v));
        assert_eq!(v.try_dot(&v).unwrap(), v.dot(&v));
        assert!(v.try_transpose().is_err());
        assert!(a.try_dot(&v).is_err());
        assert!(v.try_dot(&t(&[1.0], &[1])).is_err());
        assert!(a.try_matvec(&t(&[1.0], &[1])).is_err());
        assert!(a.try_outer(&v).is_err());
    }
}
