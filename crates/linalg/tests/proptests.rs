//! Property-based tests of the linear-algebra substrate.

use proptest::prelude::*;
use wsvd_linalg::gemm::{
    col_pair_dots, col_pair_dots_on, dot, dot4, gram_rows, gram_rows_on, matmul_rows,
    matmul_rows_on, KC,
};
use wsvd_linalg::generate::{random_uniform, with_spectrum};
use wsvd_linalg::householder::{bidiagonalize, seeded_orthogonal};
use wsvd_linalg::matrix::Columns;
use wsvd_linalg::simd::{Isa, Portable, Tier};
use wsvd_linalg::verify::orthonormality_error;
use wsvd_linalg::{
    gram, matmul, one_sided_rotation, rotate_columns, singular_values, svd_reference, Matrix,
};

/// Every compiled copy of the dispatched kernels this CPU runs: the
/// portable body, and the AVX2 and AVX-512 copies where it has them.
fn tiers() -> impl Iterator<Item = Tier> {
    Tier::ALL.into_iter().filter(|t| t.available())
}

/// Each kernel's public entry followed by each of its compiled copies.
fn entry_and_copies<F: ?Sized>(entry: Box<F>, copy: impl Fn(Tier) -> Box<F>) -> Vec<Box<F>> {
    std::iter::once(entry).chain(tiers().map(copy)).collect()
}

type MatmulFn = dyn Fn(&Matrix, &Matrix) -> Matrix;
fn matmuls() -> Vec<Box<MatmulFn>> {
    entry_and_copies(Box::new(matmul), |tier| {
        Box::new(move |a, b| {
            let mut c = Matrix::zeros(a.rows(), b.cols());
            matmul_rows_on(tier, a, 0..a.rows(), b, &mut c.cols_mut()).expect("available tier");
            c
        })
    })
}

type GramFn = dyn Fn(&Matrix) -> Matrix;
fn grams() -> Vec<Box<GramFn>> {
    entry_and_copies(Box::new(gram), |tier| {
        Box::new(move |a| gram_rows_on(tier, a, 0..a.rows()).expect("available tier"))
    })
}

type PairDotsFn = dyn Fn(&Matrix, &[(usize, usize)], &mut Vec<f64>);
fn pair_dots() -> Vec<Box<PairDotsFn>> {
    entry_and_copies(Box::new(col_pair_dots), |tier| {
        Box::new(move |a, pairs, out| {
            col_pair_dots_on(tier, a, pairs, out).expect("available tier")
        })
    })
}

type MatmulRowsFn = dyn Fn(&Matrix, std::ops::Range<usize>, &Matrix, &mut [&mut [f64]]);
fn matmul_rows_copies() -> Vec<Box<MatmulRowsFn>> {
    entry_and_copies(Box::new(matmul_rows), |tier| {
        Box::new(move |a, rows, b, c| matmul_rows_on(tier, a, rows, b, c).expect("available tier"))
    })
}

type GramRowsFn = dyn Fn(&dyn Columns, std::ops::Range<usize>) -> Matrix;
fn gram_rows_copies() -> Vec<Box<GramRowsFn>> {
    entry_and_copies(Box::new(gram_rows), |tier| {
        Box::new(move |a, rows| gram_rows_on(tier, a, rows).expect("available tier"))
    })
}

type Dot4Fn = fn([&[f64]; 4], [&[f64]; 4]) -> [f64; 4];

/// Every `dot4` the kernels can run: the scalar helper, the portable
/// token's, and the AVX2 register-transpose kernel where the CPU has AVX2.
fn dot4_kernels() -> Vec<Dot4Fn> {
    let portable: [Dot4Fn; 2] = [dot4, |xs, ys| Portable.dot4(xs, ys)];
    #[cfg(target_arch = "x86_64")]
    let avx2 = wsvd_linalg::simd::Avx2::detect().map(|_| avx2_dot4 as Dot4Fn);
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = None;
    portable.into_iter().chain(avx2).collect()
}

#[cfg(target_arch = "x86_64")]
fn avx2_dot4(xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
    let isa = wsvd_linalg::simd::Avx2::detect().expect("listed only on AVX2 CPUs");
    isa.dot4(xs, ys)
}

/// Reduction lengths that reach every remainder of the four-wide loops:
/// 0..=9 and 4k ± 1.
const LENS: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 31, 33, 63, 65];

fn arb_mat(max_m: usize, max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_m, 1..=max_n, any::<u64>()).prop_map(|(m, n, s)| random_uniform(m, n, s))
}

/// The scalar kernels the optimized ones must match bit for bit: one
/// reduction at a time, each adding its terms in ascending index order.
mod scalar {
    use wsvd_linalg::{Matrix, Rotation};

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for j in 0..b.cols() {
            for p in 0..a.cols() {
                let b_pj = b[(p, j)];
                if b_pj == 0.0 {
                    continue;
                }
                for i in 0..a.rows() {
                    c[(i, j)] += b_pj * a[(i, p)];
                }
            }
        }
        c
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

/// One `m x k` by `k x n` product against the scalar kernel, bit for bit,
/// through the entry and every compiled copy.
fn matmul_matches_scalar((m, n, k): (usize, usize, usize), zero_stride: usize, seed: u64) -> bool {
    let a = random_uniform(m, k, seed);
    let b = with_zeros(k, n, seed ^ 0x5a5a, zero_stride);
    let want = scalar::matmul(&a, &b);
    matmuls()
        .iter()
        .all(|kernel| same_bits(kernel(&a, &b).as_slice(), want.as_slice()))
}

#[test]
fn matmul_is_bitwise_scalar_past_the_k_block() {
    // k > KC = 256 and not a multiple of 4.
    for (t, zero_stride) in [0, 3, 4].into_iter().enumerate() {
        assert!(matmul_matches_scalar(
            (5, 3, 256 + 17),
            zero_stride,
            t as u64
        ));
    }
}

#[test]
fn matmul_copies_are_bitwise_scalar_at_every_remainder() {
    // Inner dimensions at every remainder of the four-`p` groups, and on
    // both sides of the k-block edge; row counts at every remainder of the
    // vectorized `i` loop.
    let ks = LENS.iter().copied().chain([KC - 1, KC + 1]);
    for (t, k) in ks.enumerate() {
        for o in 0..4 {
            let m = LENS[(t + o) % LENS.len()];
            for zero_stride in [0, 3] {
                let case = ((m, 3, k), zero_stride, (t * 4 + o) as u64);
                assert!(matmul_matches_scalar(case.0, case.1, case.2), "{case:?}");
            }
        }
    }
}

#[test]
fn gram_and_pair_dots_copies_are_bitwise_scalar_at_every_remainder() {
    let pairs = [
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7),
        (8, 9),
        (1, 0),
        (3, 3),
        (9, 2),
        (5, 7),
    ];
    for (t, &m) in LENS.iter().enumerate() {
        let a = random_uniform(m, 10, 700 + t as u64);
        for n in [1, 4, 5, 9, 10] {
            let sub = a.col_block(0, n);
            let want = scalar::gram(&sub);
            for kernel in grams() {
                assert!(
                    same_bits(kernel(&sub).as_slice(), want.as_slice()),
                    "m={m} n={n}"
                );
            }
        }
        for count in 0..=pairs.len() {
            for kernel in pair_dots() {
                let mut got = vec![f64::NAN; 2];
                kernel(&a, &pairs[..count], &mut got);
                assert_eq!(got.len(), count);
                for (&(i, j), g) in pairs.iter().zip(&got) {
                    let want = scalar::dot(a.col(i), a.col(j));
                    assert_eq!(g.to_bits(), want.to_bits(), "m={m} pair ({i},{j})");
                }
            }
        }
    }
}

#[test]
fn row_range_kernels_are_bitwise_scalar_on_the_rows() {
    // Every row window of A (odd starts and lengths, empty and full), inner
    // dimensions at every remainder of the four-`p` groups and past the
    // k-block edge, B with signed zeros in every group position. Each
    // result must equal the same rows of the scalar product, and the Gram
    // of those rows, bit for bit.
    for (t, k) in [0usize, 1, 3, 4, 5, 8, 10, KC + 5].into_iter().enumerate() {
        let a = random_uniform(19, k, 300 + t as u64);
        let b = with_zeros(k, 6, 400 + t as u64, 3);
        let full = scalar::matmul(&a, &b);
        for (start, len) in [(0, 19), (0, 0), (3, 5), (7, 12), (18, 1), (1, 16)] {
            let rows = start..start + len;
            let want = full.sub_matrix(start, 0, len, 6);
            for kernel in matmul_rows_copies() {
                let mut got = vec![f64::NAN; len * 6];
                let mut cols: Vec<&mut [f64]> = got.chunks_mut(len.max(1)).collect();
                cols.resize_with(6, || &mut []);
                kernel(&a, rows.clone(), &b, &mut cols);
                assert!(same_bits(&got, want.as_slice()), "k={k} rows={rows:?}");
            }
            let want = scalar::gram(&a.sub_matrix(start, 0, len, k));
            // The same columns borrowed in place, as a pair block's are.
            let mut borrowed = a.clone();
            let view = borrowed.cols_mut();
            for kernel in gram_rows_copies() {
                let got = kernel(&a, rows.clone());
                assert!(
                    same_bits(got.as_slice(), want.as_slice()),
                    "k={k} rows={rows:?}"
                );
                if k > 0 {
                    let got = kernel(&view, rows.clone());
                    assert!(
                        same_bits(got.as_slice(), want.as_slice()),
                        "k={k} rows={rows:?} borrowed"
                    );
                }
            }
        }
    }
}

#[test]
fn dot4_kernels_are_bitwise_scalar_at_every_remainder() {
    for (t, &len) in LENS.iter().enumerate() {
        // Signed zeros and mixed magnitudes: the sum must round exactly as
        // the scalar loop's does, term by term.
        let mut a = random_uniform(len, 8, 900 + t as u64);
        for (idx, x) in a.as_mut_slice().iter_mut().enumerate() {
            match idx % 7 {
                0 => *x = -0.0,
                3 => *x *= 1e12,
                5 => *x *= -1e-9,
                _ => {}
            }
        }
        let xs = [a.col(0), a.col(1), a.col(2), a.col(3)];
        let ys = [a.col(4), a.col(5), a.col(6), a.col(7)];
        for kernel in dot4_kernels() {
            let got = kernel(xs, ys);
            for k in 0..4 {
                let want = scalar::dot(xs[k], ys[k]);
                assert_eq!(got[k].to_bits(), want.to_bits(), "len={len} lane {k}");
            }
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
    fn matmul_is_bitwise_scalar(
        dims in (0usize..7, 0usize..6, 0usize..19),
        case in (0usize..6, any::<u64>()),
    ) {
        prop_assert!(matmul_matches_scalar(dims, case.0, case.1));
    }

    #[test]
    fn gram_is_bitwise_scalar(m in 0usize..20, n in 0usize..14, seed in any::<u64>()) {
        let a = random_uniform(m, n, seed);
        let want = scalar::gram(&a);
        for kernel in grams() {
            prop_assert!(same_bits(kernel(&a).as_slice(), want.as_slice()));
        }
    }

    #[test]
    fn dot_kernels_are_bitwise_scalar(len in 0usize..40, seed in any::<u64>()) {
        let a = random_uniform(len, 8, seed);
        prop_assert_eq!(dot(a.col(0), a.col(1)).to_bits(), scalar::dot(a.col(0), a.col(1)).to_bits());
        for kernel in dot4_kernels() {
            let got = kernel(
                [a.col(0), a.col(1), a.col(2), a.col(3)],
                [a.col(4), a.col(5), a.col(6), a.col(7)],
            );
            for (k, g) in got.iter().enumerate() {
                prop_assert_eq!(g.to_bits(), scalar::dot(a.col(k), a.col(k + 4)).to_bits());
            }
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
        for kernel in pair_dots() {
            let mut got = vec![f64::NAN; 3];
            kernel(&a, &pairs, &mut got);
            prop_assert_eq!(got.len(), pairs.len());
            for (&(i, j), g) in pairs.iter().zip(&got) {
                prop_assert_eq!(g.to_bits(), dot(a.col(i), a.col(j)).to_bits());
            }
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
