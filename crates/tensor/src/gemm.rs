//! The register-tiled micro-kernel behind the convolution forward pass
//! (DESIGN.md §11, "The conv tile kernel").
//!
//! [`rows_times_matrix`] computes `out = a × b + bias` for a block of at
//! most [`MR`] rows of `a`. The work is cut into `MR × NR` output tiles
//! whose accumulators live in a fixed-size `[[f32; NR]; MR]`: with the
//! trip counts known at compile time LLVM keeps all of them in vector
//! registers (on baseline x86-64, eight 4-lane registers for the 2 × 16
//! tile, leaving room for the four `b` vectors and the broadcast `a`
//! values) and turns the two innermost loops into straight-line
//! `mulps`/`addps`. No `unsafe`, no intrinsics, no target features.
//!
//! **Reduction order.** The `k` loop is innermost per tile and strictly
//! ascending, a product is rounded before it is added (Rust never
//! contracts `a * b + c` into a fused multiply–add), and the bias is
//! added last. Every output element therefore sees the rounding sequence
//! `((0.0 + a₀·b₀) + a₁·b₁) + … + bias` — the one the plain row kernel
//! [`crate::linalg::matmul_rows`] followed by a bias pass produces — no
//! matter which tile, edge path or worker computes it.
//!
//! **No zero-skip.** `matmul_rows` skips `a == 0.0` terms when `b` is
//! finite. Here that would put a branch in the tile, and dropping it
//! changes no bit: with a finite `b` the skipped product is `±0`, and an
//! accumulator that starts at `+0.0` is never `−0.0` (under
//! round-to-nearest a sum is `−0` only when both addends are), so
//! `acc + ±0 == acc` exactly; with a non-finite `b` the row kernel does
//! not skip either. It also means no finiteness scan of `b` is needed.

/// Rows of `a` per register tile (and per parallel work unit of the conv
/// forward).
pub(crate) const MR: usize = 2;
/// Columns of `b` per register tile.
pub(crate) const NR: usize = 16;

/// `out[r, j] = Σₖ a[r, k]·b[k, j] + bias[r]` for the `bias.len() ≤ MR`
/// rows of `a: [rows, k]`, with `b: [k, n]` and `out: [rows, n]`, all
/// row-major. `out` is overwritten, not accumulated into.
pub(crate) fn rows_times_matrix(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let rows = bias.len();
    debug_assert!(rows <= MR, "at most MR rows per block");
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), rows * n);
    if rows == MR {
        block::<MR>(a, b, k, n, bias, out);
    } else {
        // The `oc % MR` tail: one row at a time through the 1 × NR tile.
        for r in 0..rows {
            block::<1>(
                &a[r * k..(r + 1) * k],
                b,
                k,
                n,
                &bias[r..=r],
                &mut out[r * n..(r + 1) * n],
            );
        }
    }
}

/// An `M`-row block: full `NR`-column panels through the register tile,
/// the `n % NR` tail columns through the scalar edge path.
fn block<const M: usize>(a: &[f32], b: &[f32], k: usize, n: usize, bias: &[f32], out: &mut [f32]) {
    let full = n - n % NR;
    for j0 in (0..full).step_by(NR) {
        tile::<M>(a, b, k, n, j0, bias, out);
    }
    for r in 0..M {
        let a_row = &a[r * k..(r + 1) * k];
        for j in full..n {
            let mut acc = 0.0f32;
            for (kk, &x) in a_row.iter().enumerate() {
                acc += x * b[kk * n + j];
            }
            out[r * n + j] = acc + bias[r];
        }
    }
}

/// The `M × NR` output tile at columns `j0..j0 + NR` of `b` and `out`
/// (both of row length `n`). Never inlined, so the code LLVM generates
/// for it does not depend on the call site.
#[inline(never)]
fn tile<const M: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let a_rows: [&[f32]; M] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; M];
    for kk in 0..k {
        let b_row = &b[kk * n + j0..][..NR];
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[kk];
            for (s, &bv) in acc_row.iter_mut().zip(b_row) {
                *s += x * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let bv = bias[r];
        for (o, &s) in out[r * n + j0..][..NR].iter_mut().zip(acc_row) {
            *o = s + bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_rows;

    /// The row kernel plus a bias pass: what the tile must reproduce.
    fn reference(a: &[f32], b: &[f32], k: usize, n: usize, bias: &[f32]) -> Vec<f32> {
        let rows = bias.len();
        let mut out = vec![0.0f32; rows * n];
        let finite = b.iter().all(|x| x.is_finite());
        matmul_rows(a, b, k, n, finite, 0..rows, &mut out);
        for (row, &bv) in out.chunks_mut(n.max(1)).zip(bias) {
            for o in row {
                *o += bv;
            }
        }
        out
    }

    fn ramp(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i + salt) * 31 % 97) as f32 - 48.0) / 97.0)
            .collect()
    }

    #[test]
    fn every_tail_shape_matches_the_row_kernel_bit_for_bit() {
        for rows in 0..=MR {
            for k in [0, 1, 3, 27] {
                for n in [0, 1, NR - 1, NR, NR + 1, 3 * NR + 5] {
                    let mut a = ramp(rows * k, 1);
                    // Exact zeros in `a`: the terms the row kernel skips.
                    for x in a.iter_mut().step_by(3) {
                        *x = 0.0;
                    }
                    let b = ramp(k * n, 5);
                    let bias = ramp(rows, 9);
                    let mut out = vec![f32::NAN; rows * n];
                    rows_times_matrix(&a, &b, k, n, &bias, &mut out);
                    let want = reference(&a, &b, k, n, &bias);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&want), "rows={rows} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn a_zero_weight_against_a_non_finite_column_still_poisons() {
        // 0·∞ and 0·NaN are NaN; the tile has no skip to launder them.
        let a = [0.0f32, 1.0, 0.0, 1.0];
        let mut b = vec![1.0f32; 2 * NR];
        b[0] = f32::INFINITY;
        b[1] = f32::NAN;
        let mut out = vec![0.0f32; 2 * NR];
        rows_times_matrix(&a, &b, 2, NR, &[0.0, 0.0], &mut out);
        assert!(out[0].is_nan() && out[1].is_nan());
        assert!(out[NR].is_nan() && out[NR + 1].is_nan());
        assert_eq!(out[2], 1.0);
    }
}
