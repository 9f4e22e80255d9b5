//! General matrix multiplication kernels.
//!
//! These are the CPU reference kernels underlying the batched GEMM layer.
//! [`matmul_rows`] is a cache-blocked loop in `jki` order (column-major
//! friendly: the innermost loop streams down contiguous columns of `A` and
//! `C`). [`gram`] and [`matmul`] are the two GEMM shapes that dominate the
//! W-cycle workflow (Algorithm 1, lines 5 and 7): each is its row-range
//! kernel run over all rows.
//!
//! Summation order is part of every kernel's contract: each output element
//! is a separate reduction whose terms are added one at a time in ascending
//! index order, without fused multiply-adds. The kernels gain speed only by
//! running several *independent* reductions in lockstep ([`dot4`]), never
//! by reassociating one, so their results are bit-identical to the plain
//! scalar loops.
//!
//! [`matmul_rows`], [`gram_rows`] and [`col_pair_dots`] are dispatched
//! entries ([`crate::simd`]): each runs its `*_with` body compiled for
//! AVX-512F or AVX2 when the CPU has it, portable otherwise, with the same
//! bits every way.

use std::ops::Range;

use crate::matrix::{Columns, Matrix};
use crate::simd::Isa;

/// Cache-block edge for the k dimension.
pub const KC: usize = 256;

/// `c_col += sum(b(p) * a_col(p) for p in ks)`, adding the terms to
/// each `c_col[i]` one `p` at a time in ascending order. `a_col(p)` must be
/// at least `c_col.len()` long; only its first `c_col.len()` entries are
/// read, so the caller picks the rows.
#[inline(always)]
fn accumulate_col<'a>(
    a_col: impl Fn(usize) -> &'a [f64],
    b: impl Fn(usize) -> f64,
    ks: Range<usize>,
    c_col: &mut [f64],
) {
    let m = c_col.len();
    let mut p = ks.start;
    // Four `p` at a time with `c[i]` held in a register. The terms still
    // join each `c[i]` in ascending `p`; a group holding a zero `b(p)` takes
    // the one-`p` path, which skips the zero.
    while p + 4 <= ks.end {
        let bs = [b(p), b(p + 1), b(p + 2), b(p + 3)];
        if bs.contains(&0.0) {
            for (q, &b_q) in (p..p + 4).zip(&bs) {
                axpy(b_q, a_col(q), c_col);
            }
        } else {
            let a0 = &a_col(p)[..m];
            let a1 = &a_col(p + 1)[..m];
            let a2 = &a_col(p + 2)[..m];
            let a3 = &a_col(p + 3)[..m];
            for i in 0..m {
                let mut ci = c_col[i];
                ci += bs[0] * a0[i];
                ci += bs[1] * a1[i];
                ci += bs[2] * a2[i];
                ci += bs[3] * a3[i];
                c_col[i] = ci;
            }
        }
        p += 4;
    }
    for q in p..ks.end {
        axpy(b(q), a_col(q), c_col);
    }
}

/// `c += b_pj * a_col`, skipped entirely when `b_pj` is zero.
#[inline(always)]
fn axpy(b_pj: f64, a_col: &[f64], c_col: &mut [f64]) {
    if b_pj == 0.0 {
        return;
    }
    let a_col = &a_col[..c_col.len()];
    for (ci, &ai) in c_col.iter_mut().zip(a_col) {
        *ci += b_pj * ai;
    }
}

crate::dispatch! {
    /// Rows `rows` of `A * B`, written straight into `c_cols`: one slice per
    /// column of `B`, each `rows.len()` long. `A` is read in place. Every
    /// element is its own ascending-`p` sum, so it is bit-identical whatever
    /// rows are computed with it.
    pub fn matmul_rows(a: &Matrix, rows: Range<usize>, b: &Matrix, c_cols: &mut [&mut [f64]])
        => matmul_rows_with, matmul_rows_on
}

/// The body of [`matmul_rows`] for instruction set `I`.
#[inline(always)]
fn matmul_rows_with<I: Isa>(
    _isa: I,
    a: &Matrix,
    rows: Range<usize>,
    b: &Matrix,
    c_cols: &mut [&mut [f64]],
) {
    let k = a.cols();
    assert_eq!(b.rows(), k, "matmul_rows inner dimensions differ");
    assert_eq!(
        c_cols.len(),
        b.cols(),
        "matmul_rows needs one slice per column"
    );
    for c_col in c_cols.iter_mut() {
        assert_eq!(c_col.len(), rows.len(), "matmul_rows column length");
        c_col.fill(0.0);
    }
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for (j, c_col) in c_cols.iter_mut().enumerate() {
            let a_col = |q: usize| &a.col(q)[rows.clone()];
            accumulate_col(a_col, |p| b[(p, j)], k0..k1, c_col);
        }
    }
}

/// `A * B` as a fresh matrix: [`matmul_rows`] over all rows.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_rows(a, 0..a.rows(), b, &mut c.cols_mut());
    c
}

/// Gram matrix `B = A^T A` (first batched GEMM of each W-cycle level):
/// [`gram_rows`] over all rows.
pub fn gram(a: &Matrix) -> Matrix {
    gram_rows(a, 0..a.rows())
}

crate::dispatch! {
    /// Gram matrix of rows `rows` of the columns `a` holds, read in place
    /// (a [`Matrix`], or a pair block's columns in its task). Exploits
    /// symmetry: only the upper triangle is computed, then mirrored. Entry
    /// `(i, j)` is `a_i · a_j` summed over the rows in ascending order, four
    /// entries of a column at a time.
    pub fn gram_rows(a: &dyn Columns, rows: Range<usize>) -> Matrix => gram_rows_with, gram_rows_on
}

/// The body of [`gram_rows`] for instruction set `I`.
#[inline(always)]
fn gram_rows_with<I: Isa>(isa: I, a: &dyn Columns, rows: Range<usize>) -> Matrix {
    let (m, n) = a.shape();
    assert!(rows.end <= m, "gram_rows range past the last row");
    gram_of_cols(isa, n, |j| &a.col(j)[rows.clone()])
}

/// `B = A^T A` for the `n` columns `col(0..n)`: the upper triangle four
/// entries of a column at a time, mirrored.
#[inline(always)]
fn gram_of_cols<'a, I: Isa>(isa: I, n: usize, col: impl Fn(usize) -> &'a [f64]) -> Matrix {
    let mut b = Matrix::zeros(n, n);
    for j in 0..n {
        let aj = col(j);
        let mut i = 0;
        while i + 4 <= j + 1 {
            let s = isa.dot4([col(i), col(i + 1), col(i + 2), col(i + 3)], [aj; 4]);
            for (k, s) in s.into_iter().enumerate() {
                b[(i + k, j)] = s;
                b[(j, i + k)] = s;
            }
            i += 4;
        }
        for i in i..=j {
            let s = dot(col(i), aj);
            b[(i, j)] = s;
            b[(j, i)] = s;
        }
    }
    b
}

/// Dot product of two equal-length slices.
#[inline(always)]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let y = &y[..x.len()];
    let mut s = 0.0;
    for i in 0..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Four independent dot products `xs[k] · ys[k]` in lockstep. Each one sums
/// its terms from 0.0 in ascending index order, exactly as [`dot`] does, so
/// the results are bit-identical to four [`dot`] calls; only the
/// interleaving of the four reductions differs.
///
/// Panics unless all eight slices have the same length.
#[inline(always)]
pub fn dot4(xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
    let len = xs[0].len();
    assert!(
        xs.iter().chain(&ys).all(|v| v.len() == len),
        "dot4 operands differ in length"
    );
    let [x0, x1, x2, x3] = xs.map(|x| &x[..len]);
    let [y0, y1, y2, y3] = ys.map(|y| &y[..len]);
    let mut s = [0.0; 4];
    for r in 0..len {
        s[0] += x0[r] * y0[r];
        s[1] += x1[r] * y1[r];
        s[2] += x2[r] * y2[r];
        s[3] += x3[r] * y3[r];
    }
    s
}

crate::dispatch! {
    /// Column inner products `a_i · a_j` for every pair `(i, j)`, written to
    /// `out` in pair order and computed four pairs at a time by [`dot4`]; each
    /// value is bit-identical to `dot(a.col(i), a.col(j))`.
    pub fn col_pair_dots(a: &Matrix, pairs: &[(usize, usize)], out: &mut Vec<f64>)
        => col_pair_dots_with, col_pair_dots_on
}

/// The body of [`col_pair_dots`] for instruction set `I`.
#[inline(always)]
pub fn col_pair_dots_with<I: Isa>(
    isa: I,
    a: &Matrix,
    pairs: &[(usize, usize)],
    out: &mut Vec<f64>,
) {
    out.clear();
    let mut quads = pairs.chunks_exact(4);
    for q in &mut quads {
        out.extend(isa.dot4(
            [a.col(q[0].0), a.col(q[1].0), a.col(q[2].0), a.col(q[3].0)],
            [a.col(q[0].1), a.col(q[1].1), a.col(q[2].1), a.col(q[3].1)],
        ));
    }
    for &(i, j) in quads.remainder() {
        out.push(dot(a.col(i), a.col(j)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.shape() == b.shape() && a.sub(b).max_abs() < tol
    }

    #[test]
    fn small_matmul() {
        let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        let expect = Matrix::from_rows(2, 2, &[58., 64., 139., 154.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let g = gram(&a);
        let g2 = matmul(&a.transpose(), &a);
        assert!(approx_eq(&g, &g2, 1e-12));
        // Symmetry.
        assert!(approx_eq(&g, &g.transpose(), 0.0 + f64::EPSILON));
    }

    #[test]
    fn blocked_k_matches_unblocked() {
        // k larger than KC exercises the k-blocking path.
        let k = KC + 17;
        let a = Matrix::from_fn(4, k, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(k, 3, |i, j| ((i * 5 + j * 11) % 17) as f64 - 8.0);
        let c = matmul(&a, &b);
        let mut expect = Matrix::zeros(4, 3);
        for i in 0..4 {
            for j in 0..3 {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[(i, p)] * b[(p, j)];
                }
                expect[(i, j)] = s;
            }
        }
        assert!(approx_eq(&c, &expect, 1e-9));
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
    }
}
