//! Verification utilities shared by tests, examples and the repro harness.

use crate::gemm::{col_pair_dots, gram};
use crate::matrix::Matrix;

/// Column norms `sqrt(a_j · a_j)`. Like every pair dot in this module they
/// come from [`col_pair_dots`], four independent reductions at a time, with
/// the bits of the scalar `dot`.
fn col_norms(a: &Matrix, pairs: &mut Vec<(usize, usize)>, dots: &mut Vec<f64>) -> Vec<f64> {
    pairs.clear();
    pairs.extend((0..a.cols()).map(|j| (j, j)));
    col_pair_dots(a, pairs, dots);
    dots.iter().map(|d| d.sqrt()).collect()
}

/// `||Q^T Q - I||_max` — deviation of `Q`'s columns from orthonormality.
pub fn orthonormality_error(q: &Matrix) -> f64 {
    gram(q).sub(&Matrix::identity(q.cols())).max_abs()
}

/// Maximum normalized pairwise column coherence
/// `max_{i<j} |a_i . a_j| / (||a_i|| ||a_j||)`.
///
/// This is the convergence measure of the one-sided Jacobi method: the sweep
/// loop stops when it drops below working accuracy (§II-B). Columns whose
/// norm falls below `eps * ||A||_F` are numerically zero and excluded
/// (de Rijk deflation) — between such columns the "coherence" is pure
/// round-off noise, and including it would stall convergence on matrices
/// with condition numbers near `1/eps` (Table VII's `flower_7_1`).
pub fn max_column_coherence(a: &Matrix) -> f64 {
    let n = a.cols();
    let (mut pairs, mut dots) = (Vec::new(), Vec::new());
    let norms = col_norms(a, &mut pairs, &mut dots);
    let deflate = f64::EPSILON * norms.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut worst = 0.0f64;
    for j in 0..n {
        if norms[j] <= deflate {
            continue;
        }
        pairs.clear();
        for (i, &ni) in norms[..j].iter().enumerate() {
            if ni <= deflate {
                continue;
            }
            pairs.push((i, j));
        }
        col_pair_dots(a, &pairs, &mut dots);
        for (&(i, _), &dij) in pairs.iter().zip(&dots) {
            let d = norms[i] * norms[j];
            worst = worst.max(dij.abs() / d);
        }
    }
    worst
}

/// Schedule- and conditioning-robust convergence test for one-sided Jacobi:
/// every column pair must satisfy `|a_i . a_j| <= tol * ||a_i|| ||a_j||`
/// (relative orthogonality) **or** `|a_i . a_j| <= eps * ||A||_F^2` (the
/// round-off floor — couplings at machine-noise level cannot be reduced
/// further and contribute below-eps absolute error to the spectrum). The
/// second clause is what lets matrices with condition numbers approaching
/// `1/eps` (Table VII's `flower_7_1`) terminate. A NaN anywhere in a pair's
/// test fails it: both bounds are checked as `<=`, which NaN never meets.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `x > bound` would pass a NaN
pub fn columns_converged(a: &Matrix, tol: f64) -> bool {
    let n = a.cols();
    let (mut pairs, mut dots) = (Vec::new(), Vec::new());
    let norms = col_norms(a, &mut pairs, &mut dots);
    let fro2: f64 = norms.iter().map(|x| x * x).sum();
    let floor = f64::EPSILON * fro2;
    // Pairs in the same order as ever, one column's worth of dots at a
    // time; the first unconverged pair still decides.
    for j in 0..n {
        pairs.clear();
        pairs.extend((0..j).map(|i| (i, j)));
        col_pair_dots(a, &pairs, &mut dots);
        for (i, &dij) in dots.iter().enumerate() {
            let aij = dij.abs();
            if !(aij <= tol * norms[i] * norms[j]) && !(aij <= floor) {
                return false;
            }
        }
    }
    true
}

/// Root-sum-square of normalized off-diagonal Gram entries — the "error"
/// metric plotted against sweeps in Fig. 15(a).
pub fn column_orthogonality_residual(a: &Matrix) -> f64 {
    let n = a.cols();
    let (mut pairs, mut dots) = (Vec::new(), Vec::new());
    let norms = col_norms(a, &mut pairs, &mut dots);
    let mut s = 0.0;
    for j in 0..n {
        pairs.clear();
        for (i, &ni) in norms[..j].iter().enumerate() {
            if ni * norms[j] > 0.0 {
                pairs.push((i, j));
            }
        }
        col_pair_dots(a, &pairs, &mut dots);
        for (&(i, _), &dij) in pairs.iter().zip(&dots) {
            let c = dij / (norms[i] * norms[j]);
            s += c * c;
        }
    }
    s.sqrt()
}

/// Relative gap between two spectra: `max_k |g_k - w_k| / (1 + |w_k|)`.
pub fn spectrum_distance(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / (1.0 + w.abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_zero_errors() {
        let q = Matrix::identity(5);
        assert_eq!(orthonormality_error(&q), 0.0);
        assert_eq!(max_column_coherence(&q), 0.0);
        assert_eq!(column_orthogonality_residual(&q), 0.0);
    }

    #[test]
    fn coherence_of_duplicated_column_is_one() {
        let mut a = Matrix::zeros(3, 2);
        a.col_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        a.col_mut(1).copy_from_slice(&[2.0, 4.0, 6.0]);
        assert!((max_column_coherence(&a) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn residual_accumulates_pairs() {
        // Three mutually 45-degree columns in 2D cannot exist; use a simple
        // construction where two pairs have known coherence.
        let a = Matrix::from_rows(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        // cols: (1,0) and (1,1): coherence = 1/sqrt(2).
        let c = max_column_coherence(&a);
        assert!((c - 1.0 / 2f64.sqrt()).abs() < 1e-14);
        assert!((column_orthogonality_residual(&a) - c).abs() < 1e-14);
    }

    #[test]
    fn columns_converged_relative_clause() {
        let q = Matrix::identity(4);
        assert!(columns_converged(&q, 1e-12));
        let a = Matrix::from_rows(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(!columns_converged(&a, 1e-12));
        assert!(columns_converged(&a, 0.9)); // coherence 1/sqrt(2) < 0.9
    }

    #[test]
    fn columns_converged_fails_on_nan() {
        // A NaN dot meets neither bound, so the pair is not converged.
        let mut a = crate::generate::random_uniform(6, 4, 1);
        a.col_mut(2).fill(f64::NAN);
        assert!(!columns_converged(&a, 1e-12));
        assert!(!columns_converged(&a, 2.0));
    }

    #[test]
    fn columns_converged_roundoff_floor_clause() {
        // Two columns: one O(1), one at machine-noise scale whose coherence
        // with the first is O(1) but whose coupling is below eps*||A||^2.
        let mut a = Matrix::zeros(3, 2);
        a.col_mut(0).copy_from_slice(&[1.0, 1.0, 1.0]);
        a.col_mut(1).copy_from_slice(&[1e-17, 1e-17, 0.0]);
        assert!(max_column_coherence(&a) < 1e-12 || columns_converged(&a, 1e-12));
        assert!(
            columns_converged(&a, 1e-12),
            "noise-level coupling must count as converged"
        );
    }

    /// The scalar-`dot` loops these measures replaced, kept as oracles.
    mod scalar {
        use crate::gemm::dot;
        use crate::matrix::Matrix;

        fn norms(a: &Matrix) -> Vec<f64> {
            (0..a.cols())
                .map(|j| dot(a.col(j), a.col(j)).sqrt())
                .collect()
        }

        pub fn coherence(a: &Matrix) -> f64 {
            let norms = norms(a);
            let deflate = f64::EPSILON * norms.iter().map(|x| x * x).sum::<f64>().sqrt();
            let mut worst = 0.0f64;
            for j in 0..a.cols() {
                if norms[j] <= deflate {
                    continue;
                }
                for i in 0..j {
                    if norms[i] <= deflate {
                        continue;
                    }
                    let d = norms[i] * norms[j];
                    worst = worst.max(dot(a.col(i), a.col(j)).abs() / d);
                }
            }
            worst
        }

        pub fn converged(a: &Matrix, tol: f64) -> bool {
            let norms = norms(a);
            let floor = f64::EPSILON * norms.iter().map(|x| x * x).sum::<f64>();
            for j in 0..a.cols() {
                for i in 0..j {
                    let aij = dot(a.col(i), a.col(j)).abs();
                    if aij > tol * norms[i] * norms[j] && aij > floor {
                        return false;
                    }
                }
            }
            true
        }

        pub fn residual(a: &Matrix) -> f64 {
            let norms = norms(a);
            let mut s = 0.0;
            for j in 0..a.cols() {
                for i in 0..j {
                    let d = norms[i] * norms[j];
                    if d > 0.0 {
                        let c = dot(a.col(i), a.col(j)) / d;
                        s += c * c;
                    }
                }
            }
            s.sqrt()
        }
    }

    #[test]
    fn measures_match_the_scalar_loops_bitwise() {
        // Odd row counts (dot4's scalar tail), a zero column, a column at
        // the deflation scale, a duplicate, and nearly orthogonal columns
        // where the verdict flips between tolerances.
        let mut cases: Vec<Matrix> = Vec::new();
        for (m, n) in [(1, 1), (5, 2), (7, 9), (13, 6), (33, 17)] {
            cases.push(Matrix::from_fn(m, n, |i, j| {
                (((i * 7 + j * 13) % 11) as f64 - 5.0) / (1.0 + j as f64)
            }));
        }
        let mut odd = cases[3].clone();
        odd.col_mut(1).fill(0.0);
        odd.col_mut(2).iter_mut().for_each(|x| *x *= 1e-17);
        let dup = odd.col(0).to_vec();
        odd.col_mut(4).copy_from_slice(&dup);
        cases.push(odd);
        let mut near = Matrix::identity(6);
        near[(0, 1)] = 1e-9;
        near[(3, 5)] = -2e-13;
        cases.push(near);
        for a in &cases {
            let shape = a.shape();
            assert_eq!(
                max_column_coherence(a).to_bits(),
                scalar::coherence(a).to_bits(),
                "{shape:?}"
            );
            assert_eq!(
                column_orthogonality_residual(a).to_bits(),
                scalar::residual(a).to_bits(),
                "{shape:?}"
            );
            for tol in [0.0, 1e-15, 1e-12, 1e-8, 0.5, 2.0] {
                assert_eq!(
                    columns_converged(a, tol),
                    scalar::converged(a, tol),
                    "{shape:?} tol {tol}"
                );
            }
        }
    }

    #[test]
    fn spectrum_distance_zero_for_equal() {
        assert_eq!(spectrum_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(spectrum_distance(&[1.0, 2.1], &[1.0, 2.0]) > 0.0);
    }
}
