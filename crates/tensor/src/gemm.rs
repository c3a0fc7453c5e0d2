//! The register-tiled micro-kernel behind both dense products of the
//! crate — [`crate::Tensor::matmul`] and the convolution forward pass
//! (DESIGN.md §11, "The tile kernel").
//!
//! [`rows_times_matrix`] computes `out = a × b + bias` for a block of at
//! most [`MR`] rows of `a`. The work is cut into `M × N` output tiles
//! whose accumulators live in a fixed-size `[[f32; N]; M]`: with the
//! trip counts known at compile time LLVM keeps all of them in vector
//! registers (eight registers of [`LANES`] floats for the 2 × `NR` tile,
//! leaving room for the four `b` vectors and the broadcast `a` values)
//! and turns the two innermost loops into straight-line vector multiplies
//! and adds. The tile is sized from the lanes the build targets — 8 where
//! AVX is enabled (x86-64 builds target x86-64-v3, `.cargo/config.toml`),
//! 4 otherwise (SSE2, NEON) — at compile time: one tile, no runtime
//! dispatch, no `unsafe`, no intrinsics.
//!
//! **Reduction order.** The `k` loop is innermost per tile and strictly
//! ascending, a product is rounded before it is added (Rust never
//! contracts `a * b + c` into a fused multiply–add), and the bias is
//! added last. Every output element therefore sees the rounding sequence
//! `((0.0 + a₀·b₀) + a₁·b₁) + … + bias` — the one a plain ikj row loop
//! followed by a bias pass produces (the `#[cfg(test)]` `oracle` below)
//! — no matter which tile shape, which neighbouring rows or which worker
//! computes it.
//!
//! **No zero-skip.** The row kernel this replaced skipped `a == 0.0`
//! terms when `b` was finite. Here that would put a branch in the tile,
//! and dropping it changes no bit: with a finite `b` the skipped product
//! is `±0`, and an accumulator that starts at `+0.0` is never `−0.0`
//! (under round-to-nearest a sum is `−0` only when both addends are), so
//! `acc + ±0 == acc` exactly; with a non-finite `b` the row kernel did
//! not skip either. It also means no finiteness scan of `b` is needed,
//! and a zero bias (`Tensor::matmul`) is exact for the same reason.

/// `f32` lanes in one vector register of the build's target: 8 where AVX
/// is enabled (x86-64-v3 and up), 4 otherwise (baseline x86-64's SSE2,
/// aarch64's NEON).
pub const LANES: usize = if cfg!(target_feature = "avx") { 8 } else { 4 };
/// Rows of `a` per register tile (and per parallel work unit of the conv
/// forward).
pub(crate) const MR: usize = 2;
/// Columns of `b` per `MR`-row register tile: four vector registers.
pub const NR: usize = 4 * LANES;
/// Columns per tile of a lone row: the same eight accumulator registers,
/// so eight independent add chains where 1 × `NR` would have four.
pub(crate) const NR1: usize = MR * NR;
/// Columns per tile in the column tail: one vector register.
const NV: usize = LANES;

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
        block::<MR, NR>(a, b, k, n, bias, out);
    } else {
        // The `rows % MR` tail: one row at a time through 1-row tiles.
        for r in 0..rows {
            block::<1, NR1>(
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

/// An `M`-row block: `W`-column panels through the widest tile the
/// registers hold for `M` rows, then the `n % W` tail in `NR`-column,
/// vector-width, 4-column and last single-column steps. The 4-column rung
/// is the vector width of a 4-lane build and keeps narrow heads (a gate's
/// `n` = K) off single-column panels on an 8-lane one.
fn block<const M: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let j = panels::<M, W>(a, b, k, n, 0, bias, out);
    let j = panels::<M, NR>(a, b, k, n, j, bias, out);
    let j = panels::<M, NV>(a, b, k, n, j, bias, out);
    let j = panels::<M, 4>(a, b, k, n, j, bias, out);
    panels::<M, 1>(a, b, k, n, j, bias, out);
}

/// Every whole `N`-column panel from column `j0` on; returns the first
/// column left over.
fn panels<const M: usize, const N: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
    out: &mut [f32],
) -> usize {
    let end = n - (n - j0) % N;
    for j in (j0..end).step_by(N) {
        tile::<M, N>(a, b, k, n, j, bias, out);
    }
    end
}

/// The `M × N` output tile at columns `j0..j0 + N` of `b` and `out`
/// (both of row length `n`). Never inlined, so the code LLVM generates
/// for it does not depend on the call site.
#[inline(never)]
fn tile<const M: usize, const N: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let a_rows: [&[f32]; M] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; N]; M];
    for kk in 0..k {
        let b_row = &b[kk * n + j0..][..N];
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[kk];
            for (s, &bv) in acc_row.iter_mut().zip(b_row) {
                *s += x * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let bv = bias[r];
        for (o, &s) in out[r * n + j0..][..N].iter_mut().zip(acc_row) {
            *o = s + bv;
        }
    }
}

/// What the differential tests of this module, `linalg.rs` and `conv.rs`
/// share: the retired kernel and operands that reach its every branch.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{LANES, NR, NR1};
    use crate::tensor::Tensor;

    /// Column counts that reach every rung of the tail ladder at the
    /// build's width: empty, one, the 4-column and vector-width rungs
    /// alone, a classifier's 10, either side of `NR`, and one panel of
    /// each rung below `NR` (then below the lone-row `NR1`) in a row.
    pub(crate) const TAIL_NS: [usize; 10] = [
        0,
        1,
        4,
        10,
        LANES,
        NR - 1,
        NR,
        NR + 1,
        NR + LANES + 4 + 1,
        NR1 + NR + LANES + 4 + 1,
    ];

    /// The plain ikj row kernel `Tensor::matmul` ran before the tile,
    /// with its finiteness scan and zero-skip: accumulates rows `rows` of
    /// `a × b` into the zeroed `out`. Kept as the oracle every
    /// differential test measures the tile against.
    pub(crate) fn matmul_rows(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        // Skipping a zero is only sound when every element of `b` is
        // finite: `0.0 × NaN` and `0.0 × ∞` are NaN and must poison the
        // accumulator.
        let rhs_finite = b.iter().all(|x| x.is_finite());
        for (bi, i) in rows.enumerate() {
            let out_row = &mut out[bi * n..(bi + 1) * n];
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 && rhs_finite {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// Bit patterns, with every NaN mapped to one pattern: which of two
    /// NaN operands an addition propagates (sign and payload) is left to
    /// the implementation by IEEE-754 and to the code generator by Rust,
    /// so it may differ between two kernels that round identically.
    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Seeded values with the IEEE specials — `0.0`, `−0.0`, a subnormal,
    /// NaN, `±∞` — salted in: often enough that the zero-skip and the
    /// non-finite paths of the old kernel are both taken.
    pub(crate) fn salted(dims: &[usize], seed: u64) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Tensor::rand_uniform(dims.to_vec(), -2.0, 2.0, &mut rng);
        // Half the seeds stay finite, so the old kernel's skip is armed.
        let specials = seed % 2 == 1;
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 23 {
                0 | 1 => *v = 0.0,
                2 => *v = -0.0,
                3 => *v = 1e-41,
                4 if specials => *v = f32::NAN,
                5 if specials => *v = f32::INFINITY,
                6 if specials => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{matmul_rows, TAIL_NS};
    use super::*;

    /// The row kernel plus a bias pass: what the tile must reproduce.
    fn reference(a: &[f32], b: &[f32], k: usize, n: usize, bias: &[f32]) -> Vec<f32> {
        let rows = bias.len();
        let mut out = vec![0.0f32; rows * n];
        matmul_rows(a, b, k, n, 0..rows, &mut out);
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
                for n in TAIL_NS {
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
