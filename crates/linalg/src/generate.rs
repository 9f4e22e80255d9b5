//! Matrix generators for workloads and tests.
//!
//! All generators are seeded and deterministic so every experiment in the
//! repro harness is repeatable bit-for-bit.

use crate::gemm::matmul;
use crate::householder::seeded_orthogonal;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random matrix with entries in `(-1, 1)`.
pub fn random_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Random symmetric matrix (`B = (C + C^T) / 2`).
pub fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let c = random_uniform(n, n, seed);
    Matrix::from_fn(n, n, |i, j| 0.5 * (c[(i, j)] + c[(j, i)]))
}

/// Random symmetric positive semi-definite matrix (`B = C^T C`, scaled).
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    let c = random_uniform(n, n, seed);
    let mut b = crate::gemm::gram(&c);
    b.scale(1.0 / n as f64);
    b
}

/// Matrix with a prescribed singular-value spectrum:
/// `A = U diag(sigma) V^T` with seeded orthogonal `U`, `V`.
pub fn with_spectrum(rows: usize, cols: usize, sigma: &[f64], seed: u64) -> Matrix {
    let r = rows.min(cols);
    assert!(
        sigma.len() == r,
        "need exactly min(m, n) = {r} singular values"
    );
    let u = seeded_orthogonal(rows, seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1));
    let v = seeded_orthogonal(cols, seed.wrapping_mul(0xc2b2ae3d27d4eb4f).wrapping_add(2));
    let mut s = Matrix::zeros(rows, cols);
    for (i, &x) in sigma.iter().enumerate() {
        s[(i, i)] = x;
    }
    matmul(&matmul(&u, &s), &v.transpose())
}

/// Log-spaced spectrum from `sigma_max` down to `sigma_max / cond`.
///
/// This is the standard way to hit a target 2-norm condition number.
pub fn log_spaced_spectrum(r: usize, sigma_max: f64, cond: f64) -> Vec<f64> {
    assert!(r > 0 && sigma_max > 0.0 && cond >= 1.0);
    if r == 1 {
        return vec![sigma_max];
    }
    let lo = sigma_max / cond;
    let ratio = (lo / sigma_max).ln() / (r - 1) as f64;
    (0..r)
        .map(|i| sigma_max * (ratio * i as f64).exp())
        .collect()
}

/// Matrix with a prescribed 2-norm condition number (log-spaced spectrum).
pub fn with_condition_number(rows: usize, cols: usize, cond: f64, seed: u64) -> Matrix {
    let sigma = log_spaced_spectrum(rows.min(cols), 1.0, cond);
    with_spectrum(rows, cols, &sigma, seed)
}

/// A batch of `count` random matrices of the same size, distinct seeds.
pub fn random_batch(count: usize, rows: usize, cols: usize, seed: u64) -> Vec<Matrix> {
    (0..count)
        .map(|k| {
            random_uniform(
                rows,
                cols,
                seed.wrapping_add((k as u64).wrapping_mul(0x2545f4914f6cdd1d)),
            )
        })
        .collect()
}

/// A batch with per-matrix sizes drawn from `sizes` (cycled), random entries.
pub fn mixed_size_batch(sizes: &[(usize, usize)], count: usize, seed: u64) -> Vec<Matrix> {
    (0..count)
        .map(|k| {
            let (m, n) = sizes[k % sizes.len()];
            random_uniform(
                m,
                n,
                seed.wrapping_add((k as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::singular_values;

    #[test]
    fn random_uniform_is_deterministic() {
        assert_eq!(
            random_uniform(4, 4, 9).as_slice(),
            random_uniform(4, 4, 9).as_slice()
        );
        assert_ne!(
            random_uniform(4, 4, 9).as_slice(),
            random_uniform(4, 4, 10).as_slice()
        );
    }

    #[test]
    fn symmetric_is_symmetric() {
        let b = random_symmetric(6, 3);
        assert!(b.sub(&b.transpose()).max_abs() < 1e-15);
    }

    #[test]
    fn spd_has_nonnegative_diag_dominated_spectrum() {
        let b = random_spd(5, 11);
        let s = singular_values(&b).unwrap();
        // For SPD, singular values == eigenvalues >= 0.
        assert!(s.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn with_spectrum_hits_target() {
        let sigma = vec![9.0, 4.0, 1.0];
        let a = with_spectrum(6, 3, &sigma, 17);
        let got = singular_values(&a).unwrap();
        for (g, w) in got.iter().zip(&sigma) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn log_spaced_spectrum_endpoints() {
        let s = log_spaced_spectrum(5, 2.0, 100.0);
        assert!((s[0] - 2.0).abs() < 1e-14);
        assert!((s[4] - 0.02).abs() < 1e-14);
        assert!(s.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn condition_number_achieved() {
        let a = with_condition_number(8, 8, 1e4, 23);
        let s = singular_values(&a).unwrap();
        let cond = s[0] / s[7];
        assert!((cond / 1e4 - 1.0).abs() < 1e-6, "cond = {cond}");
    }

    #[test]
    fn mixed_size_batch_cycles_sizes() {
        let b = mixed_size_batch(&[(4, 4), (6, 2)], 5, 1);
        assert_eq!(b[0].shape(), (4, 4));
        assert_eq!(b[1].shape(), (6, 2));
        assert_eq!(b[4].shape(), (4, 4));
    }
}
