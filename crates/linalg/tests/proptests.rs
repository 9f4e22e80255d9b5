//! Property-based tests of the linear-algebra substrate.

use proptest::prelude::*;
use wsvd_linalg::gemm::{col_pair_dots, dot, dot4};
use wsvd_linalg::generate::{random_uniform, with_spectrum};
use wsvd_linalg::householder::{bidiagonalize, seeded_orthogonal};
use wsvd_linalg::verify::orthonormality_error;
use wsvd_linalg::{
    gemm, gram, matmul, one_sided_rotation, rotate_columns, singular_values, svd_reference, Matrix,
    Op,
};

fn arb_mat(max_m: usize, max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_m, 1..=max_n, any::<u64>()).prop_map(|(m, n, s)| random_uniform(m, n, s))
}

/// The scalar kernels the optimized ones must match bit for bit: one
/// reduction at a time, each adding its terms in ascending index order.
mod scalar {
    use wsvd_linalg::{Matrix, Op, Rotation};

    pub fn gemm(alpha: f64, a: &Matrix, op_a: Op, b: &Matrix, op_b: Op, beta: f64, c: &mut Matrix) {
        let (m, n) = c.shape();
        let k = if op_a == Op::NoTrans {
            a.cols()
        } else {
            a.rows()
        };
        if beta != 1.0 {
            for x in c.as_mut_slice() {
                *x = if beta == 0.0 { 0.0 } else { *x * beta };
            }
        }
        if alpha == 0.0 {
            return;
        }
        for j in 0..n {
            for p in 0..k {
                let b_pj = if op_b == Op::NoTrans {
                    b[(p, j)]
                } else {
                    b[(j, p)]
                };
                if b_pj == 0.0 {
                    continue;
                }
                let s = alpha * b_pj;
                for i in 0..m {
                    let a_ip = if op_a == Op::NoTrans {
                        a[(i, p)]
                    } else {
                        a[(p, i)]
                    };
                    c[(i, j)] += s * a_ip;
                }
            }
        }
    }

    pub fn gram(a: &Matrix) -> Matrix {
        let n = a.cols();
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..=j {
                let mut s = 0.0;
                for r in 0..a.rows() {
                    s += a[(r, i)] * a[(r, j)];
                }
                b[(i, j)] = s;
                b[(j, i)] = s;
            }
        }
        b
    }

    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..x.len() {
            s += x[i] * y[i];
        }
        s
    }

    pub fn rotate_columns(rot: Rotation, x: &mut [f64], y: &mut [f64]) {
        for k in 0..x.len() {
            let (xi, yi) = (x[k], y[k]);
            x[k] = rot.c * xi + rot.s * yi;
            y[k] = -rot.s * xi + rot.c * yi;
        }
    }
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// `random_uniform` with every `stride`-th entry set to a signed zero (none
/// for `stride` 0), so GEMM groups of four `p` hold zeros in every position.
fn with_zeros(rows: usize, cols: usize, seed: u64, stride: usize) -> Matrix {
    let mut m = random_uniform(rows, cols, seed);
    if stride > 0 {
        for (idx, x) in m.as_mut_slice().iter_mut().enumerate() {
            if idx % stride == 0 {
                *x = if (idx / stride).is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                };
            }
        }
    }
    m
}

const ALPHAS: [f64; 4] = [1.0, -0.75, 2.5, 0.0];
const BETAS: [f64; 4] = [0.0, 1.0, 0.5, -1.25];

/// One `gemm` case against the scalar kernel, bit for bit.
fn gemm_matches_scalar(
    (m, n, k): (usize, usize, usize),
    (op_a, op_b): (Op, Op),
    (alpha, beta): (f64, f64),
    zero_stride: usize,
    seed: u64,
) -> bool {
    let a = match op_a {
        Op::NoTrans => random_uniform(m, k, seed),
        Op::Trans => random_uniform(k, m, seed),
    };
    let b = match op_b {
        Op::NoTrans => with_zeros(k, n, seed ^ 0x5a5a, zero_stride),
        Op::Trans => with_zeros(n, k, seed ^ 0x5a5a, zero_stride),
    };
    let c0 = random_uniform(m, n, seed ^ 0xc0c0);
    let (mut got, mut want) = (c0.clone(), c0);
    gemm(alpha, &a, op_a, &b, op_b, beta, &mut got);
    scalar::gemm(alpha, &a, op_a, &b, op_b, beta, &mut want);
    same_bits(got.as_slice(), want.as_slice())
}

#[test]
fn gemm_is_bitwise_scalar_past_the_k_block() {
    // k > KC = 256 and not a multiple of 4, in every transpose combination.
    for (t, ops) in [
        (Op::NoTrans, Op::NoTrans),
        (Op::Trans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::Trans),
    ]
    .into_iter()
    .enumerate()
    {
        for zero_stride in [0, 3, 4] {
            assert!(gemm_matches_scalar(
                (5, 3, 256 + 17),
                ops,
                (-0.75, 0.5),
                zero_stride,
                t as u64
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn svd_reference_reconstructs_anything(a in arb_mat(24, 24)) {
        let svd = svd_reference(&a).unwrap();
        prop_assert!(svd.relative_residual(&a) < 1e-10);
        prop_assert!(svd.orthogonality_error() < 1e-10);
        prop_assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn singular_values_invariant_under_transpose(a in arb_mat(16, 16)) {
        let s1 = singular_values(&a).unwrap();
        let s2 = singular_values(&a.transpose()).unwrap();
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x - y).abs() < 1e-10 * (1.0 + y));
        }
    }

    #[test]
    fn singular_values_invariant_under_orthogonal_mixing(
        a in arb_mat(12, 12), seed in any::<u64>()
    ) {
        let q = seeded_orthogonal(a.rows(), seed);
        let qa = matmul(&q, &a);
        let s1 = singular_values(&a).unwrap();
        let s2 = singular_values(&qa).unwrap();
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x - y).abs() < 1e-9 * (1.0 + y));
        }
    }

    #[test]
    fn gemm_is_associative_with_identity(a in arb_mat(10, 10)) {
        let i = Matrix::identity(a.cols());
        let ai = matmul(&a, &i);
        prop_assert!(ai.sub(&a).max_abs() < 1e-14);
    }

    #[test]
    fn gram_is_psd_diagonal_dominant_trace(a in arb_mat(16, 12)) {
        let g = gram(&a);
        // Symmetric.
        prop_assert!(g.sub(&g.transpose()).max_abs() < 1e-12);
        // trace(A^T A) = ||A||_F^2.
        let tr: f64 = g.diag().iter().sum();
        prop_assert!((tr - a.fro_norm().powi(2)).abs() < 1e-9 * (1.0 + tr.abs()));
        // Non-negative diagonal.
        prop_assert!(g.diag().iter().all(|&d| d >= -1e-12));
    }

    #[test]
    fn gemm_transpose_flags_agree(
        m in 1usize..9, k in 1usize..9, n in 1usize..9, seed in any::<u64>()
    ) {
        // (A B)^T == B^T A^T via the Op flags.
        let a = random_uniform(m, k, seed);
        let b = random_uniform(k, n, seed ^ 0xabcd);
        let ab = matmul(&a, &b);
        let mut btat = Matrix::zeros(n, m);
        gemm(1.0, &b, Op::Trans, &a, Op::Trans, 0.0, &mut btat);
        prop_assert!(ab.transpose().sub(&btat).max_abs() < 1e-11);
    }

    #[test]
    fn bidiagonalization_preserves_frobenius(a in arb_mat(20, 12)) {
        prop_assume!(a.rows() >= a.cols());
        let bd = bidiagonalize(&a);
        let b_fro: f64 = bd
            .diag
            .iter()
            .chain(bd.superdiag.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt();
        prop_assert!((b_fro - a.fro_norm()).abs() < 1e-9 * (1.0 + a.fro_norm()));
        prop_assert!(orthonormality_error(&bd.u) < 1e-10);
        prop_assert!(orthonormality_error(&bd.v) < 1e-10);
    }

    #[test]
    fn gemm_is_bitwise_scalar(
        dims in (0usize..7, 0usize..6, 0usize..19),
        ops in (any::<bool>(), any::<bool>()),
        coef in (0usize..4, 0usize..4),
        case in (0usize..6, any::<u64>()),
    ) {
        let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };
        prop_assert!(gemm_matches_scalar(
            dims,
            (op(ops.0), op(ops.1)),
            (ALPHAS[coef.0], BETAS[coef.1]),
            case.0,
            case.1
        ));
    }

    #[test]
    fn gram_is_bitwise_scalar(m in 0usize..20, n in 0usize..14, seed in any::<u64>()) {
        let a = random_uniform(m, n, seed);
        prop_assert!(same_bits(gram(&a).as_slice(), scalar::gram(&a).as_slice()));
    }

    #[test]
    fn dot_kernels_are_bitwise_scalar(len in 0usize..40, seed in any::<u64>()) {
        let a = random_uniform(len, 8, seed);
        prop_assert_eq!(dot(a.col(0), a.col(1)).to_bits(), scalar::dot(a.col(0), a.col(1)).to_bits());
        let got = dot4(
            [a.col(0), a.col(1), a.col(2), a.col(3)],
            [a.col(4), a.col(5), a.col(6), a.col(7)],
        );
        for (k, g) in got.iter().enumerate() {
            prop_assert_eq!(g.to_bits(), scalar::dot(a.col(k), a.col(k + 4)).to_bits());
        }
    }

    #[test]
    fn rotate_columns_is_bitwise_scalar(len in 0usize..40, seed in any::<u64>()) {
        let a = random_uniform(len, 2, seed);
        let rot = one_sided_rotation(
            dot(a.col(0), a.col(0)),
            dot(a.col(0), a.col(1)),
            dot(a.col(1), a.col(1)),
        );
        let (mut x, mut y) = (a.col(0).to_vec(), a.col(1).to_vec());
        let (mut xs, mut ys) = (x.clone(), y.clone());
        rotate_columns(rot, &mut x, &mut y);
        scalar::rotate_columns(rot, &mut xs, &mut ys);
        prop_assert!(same_bits(&x, &xs) && same_bits(&y, &ys));
    }

    #[test]
    fn step_pair_products_match_per_pair_dot(
        dims in (0usize..30, 2usize..12),
        pairs in prop::collection::vec((0usize..1000, 0usize..1000), 0..11),
        seed in any::<u64>(),
    ) {
        let a = random_uniform(dims.0, dims.1, seed);
        let pairs: Vec<(usize, usize)> =
            pairs.iter().map(|&(i, j)| (i % dims.1, j % dims.1)).collect();
        let mut got = vec![f64::NAN; 3];
        col_pair_dots(&a, &pairs, &mut got);
        prop_assert_eq!(got.len(), pairs.len());
        for (&(i, j), g) in pairs.iter().zip(&got) {
            prop_assert_eq!(g.to_bits(), dot(a.col(i), a.col(j)).to_bits());
        }
    }

    #[test]
    fn prescribed_spectrum_is_realized(
        r in 1usize..8, pad in 0usize..6, seed in any::<u64>()
    ) {
        let sigma: Vec<f64> = (0..r).map(|k| (r - k) as f64 * 1.5).collect();
        let a = with_spectrum(r + pad, r, &sigma, seed);
        let got = singular_values(&a).unwrap();
        for (g, w) in got.iter().zip(&sigma) {
            prop_assert!((g - w).abs() < 1e-9 * (1.0 + w));
        }
    }
}
