//! General matrix multiplication kernels.
//!
//! These are the CPU reference kernels underlying the batched GEMM layer.
//! `gemm` is a cache-blocked triple loop in `jki` order (column-major
//! friendly: the innermost loop streams down contiguous columns of `A` and
//! `C`). [`gram`] and [`matmul`] are the two GEMM shapes that dominate the
//! W-cycle workflow (Algorithm 1, lines 5 and 7).
//!
//! Summation order is part of every kernel's contract: each output element
//! is a separate reduction whose terms are added one at a time in ascending
//! index order, without fused multiply-adds. The kernels gain speed only by
//! running several *independent* reductions in lockstep ([`dot4`]), never
//! by reassociating one, so their results are bit-identical to the plain
//! scalar loops.

use crate::matrix::Matrix;

/// Operation applied to a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    NoTrans,
    /// Use the transpose of the stored matrix.
    Trans,
}

impl Op {
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            Op::NoTrans => (m.rows(), m.cols()),
            Op::Trans => (m.cols(), m.rows()),
        }
    }
}

/// Cache-block edge for the k dimension.
const KC: usize = 256;

/// `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Matrix, op_a: Op, b: &Matrix, op_b: Op, beta: f64, c: &mut Matrix) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "gemm inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let k = ka;

    if beta != 1.0 {
        if beta == 0.0 {
            c.as_mut_slice().fill(0.0);
        } else {
            c.scale(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Materialize op_a(A) column-major once when A is transposed so the inner
    // loops always stream contiguous columns.
    let a_eff;
    let a_ref = match op_a {
        Op::NoTrans => a,
        Op::Trans => {
            a_eff = a.transpose();
            &a_eff
        }
    };

    let b_at = |p: usize, j: usize| match op_b {
        Op::NoTrans => b[(p, j)],
        Op::Trans => b[(j, p)],
    };
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for j in 0..n {
            let c_col = &mut c.col_mut(j)[..m];
            let mut p = k0;
            // Four `p` at a time with `c[i]` held in a register. The terms
            // still join each `c[i]` in ascending `p`; a group holding a zero
            // `b[p, j]` takes the one-`p` path below, which skips the zero.
            while p + 4 <= k1 {
                let bs = [b_at(p, j), b_at(p + 1, j), b_at(p + 2, j), b_at(p + 3, j)];
                if bs.contains(&0.0) {
                    for (q, &b_qj) in (p..p + 4).zip(&bs) {
                        axpy(alpha, b_qj, a_ref.col(q), c_col);
                    }
                } else {
                    let s = bs.map(|b_qj| alpha * b_qj);
                    let a0 = &a_ref.col(p)[..m];
                    let a1 = &a_ref.col(p + 1)[..m];
                    let a2 = &a_ref.col(p + 2)[..m];
                    let a3 = &a_ref.col(p + 3)[..m];
                    for i in 0..m {
                        let mut ci = c_col[i];
                        ci += s[0] * a0[i];
                        ci += s[1] * a1[i];
                        ci += s[2] * a2[i];
                        ci += s[3] * a3[i];
                        c_col[i] = ci;
                    }
                }
                p += 4;
            }
            for q in p..k1 {
                axpy(alpha, b_at(q, j), a_ref.col(q), c_col);
            }
        }
    }
}

/// `c += (alpha * b_pj) * a_col`, skipped entirely when `b_pj` is zero.
#[inline]
fn axpy(alpha: f64, b_pj: f64, a_col: &[f64], c_col: &mut [f64]) {
    if b_pj == 0.0 {
        return;
    }
    let s = alpha * b_pj;
    let a_col = &a_col[..c_col.len()];
    for (ci, &ai) in c_col.iter_mut().zip(a_col) {
        *ci += s * ai;
    }
}

/// Convenience: `A * B` as a fresh matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 0.0, &mut c);
    c
}

/// Gram matrix `B = A^T A` (first batched GEMM of each W-cycle level).
///
/// Exploits symmetry: only the upper triangle is computed, then mirrored.
/// Entry `(i, j)` is `a_i · a_j` summed over rows in ascending order, four
/// entries of a column at a time.
pub fn gram(a: &Matrix) -> Matrix {
    let n = a.cols();
    let mut b = Matrix::zeros(n, n);
    for j in 0..n {
        let aj = a.col(j);
        let mut i = 0;
        while i + 4 <= j + 1 {
            let s = dot4(
                [a.col(i), a.col(i + 1), a.col(i + 2), a.col(i + 3)],
                [aj; 4],
            );
            for (k, s) in s.into_iter().enumerate() {
                b[(i + k, j)] = s;
                b[(j, i + k)] = s;
            }
            i += 4;
        }
        for i in i..=j {
            let s = dot(a.col(i), aj);
            b[(i, j)] = s;
            b[(j, i)] = s;
        }
    }
    b
}

/// Dot product of two equal-length slices.
#[inline]
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
#[inline]
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

/// Column inner products `a_i · a_j` for every pair `(i, j)`, written to
/// `out` in pair order and computed four pairs at a time by [`dot4`]; each
/// value is bit-identical to `dot(a.col(i), a.col(j))`.
pub fn col_pair_dots(a: &Matrix, pairs: &[(usize, usize)], out: &mut Vec<f64>) {
    out.clear();
    let mut quads = pairs.chunks_exact(4);
    for q in &mut quads {
        out.extend(dot4(
            [a.col(q[0].0), a.col(q[1].0), a.col(q[2].0), a.col(q[3].0)],
            [a.col(q[0].1), a.col(q[1].1), a.col(q[2].1), a.col(q[3].1)],
        ));
    }
    for &(i, j) in quads.remainder() {
        out.push(dot(a.col(i), a.col(j)));
    }
}

/// FLOP count of `C += op(A)*op(B)` with inner dimension `k`: one FMA per
/// `m*n*k` (counted as 2 floating point ops, the convention of the paper's
/// `num_FMA` model in §IV-D2 uses FMA instructions; we expose both).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
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
    fn gemm_trans_a() {
        let a = Matrix::from_rows(3, 2, &[1., 4., 2., 5., 3., 6.]);
        let b = Matrix::from_rows(3, 2, &[7., 10., 8., 11., 9., 12.]);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, Op::Trans, &b, Op::NoTrans, 0.0, &mut c);
        // A^T is [[1,2,3],[4,5,6]]
        let expect = Matrix::from_rows(2, 2, &[50., 68., 122., 167.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_trans_b() {
        let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(2, 3, &[7., 9., 11., 8., 10., 12.]);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, Op::NoTrans, &b, Op::Trans, 0.0, &mut c);
        let expect = Matrix::from_rows(2, 2, &[58., 64., 139., 154.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        let mut c = Matrix::from_rows(2, 2, &[10., 10., 10., 10.]);
        gemm(2.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.5, &mut c);
        let expect = Matrix::from_rows(2, 2, &[7., 9., 11., 13.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let g = gram(&a);
        let mut g2 = Matrix::zeros(3, 3);
        gemm(1.0, &a, Op::Trans, &a, Op::NoTrans, 0.0, &mut g2);
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

    #[test]
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
