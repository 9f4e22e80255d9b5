//! Givens / Jacobi plane rotations.
//!
//! Two flavours appear in the paper:
//! * the **one-sided** rotation (Eq. 3–4) orthogonalizing a pair of columns
//!   from the three inner products `a_i^T a_i`, `a_i^T a_j`, `a_j^T a_j`;
//! * the **two-sided** rotation (§II-D) annihilating the symmetric pair
//!   `b_ij = b_ji` from `b_ii`, `b_ij`, `b_jj`.
//!
//! Both reduce to the same stable `t = sign(x) / (|x| + sqrt(1 + x^2))`
//! formula with a different definition of `x`.

/// A 2x2 plane rotation `[[c, -s], [s, c]]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rotation {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
}

impl Rotation {
    /// The identity rotation (no-op).
    pub const IDENTITY: Rotation = Rotation { c: 1.0, s: 0.0 };

    /// True when this rotation is (numerically) the identity.
    pub fn is_identity(&self) -> bool {
        self.s == 0.0 && self.c == 1.0
    }

    /// Checks `c^2 + s^2 = 1` to the given tolerance.
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        (self.c * self.c + self.s * self.s - 1.0).abs() <= tol
    }
}

/// Stable tangent of the Jacobi angle: `t = sign(x) / (|x| + sqrt(1 + x^2))`.
#[inline]
fn jacobi_tangent(x: f64) -> f64 {
    let sign = if x >= 0.0 { 1.0 } else { -1.0 };
    sign / (x.abs() + (1.0 + x * x).sqrt())
}

/// One-sided Jacobi rotation (Eq. 4) from the three column inner products.
///
/// `aii = a_i^T a_i`, `aij = a_i^T a_j`, `ajj = a_j^T a_j`. Returns the
/// rotation that makes the updated columns orthogonal. When `aij` is already
/// negligible relative to the column norms the identity is returned.
pub fn one_sided_rotation(aii: f64, aij: f64, ajj: f64) -> Rotation {
    if aij == 0.0 {
        return Rotation::IDENTITY;
    }
    let tau = (aii - ajj) / (2.0 * aij);
    let t = jacobi_tangent(tau);
    let c = 1.0 / (1.0 + t * t).sqrt();
    Rotation { c, s: t * c }
}

/// Two-sided Jacobi (Givens) rotation (§II-D) zeroing `b_ij` of a symmetric
/// 2x2 block `[[b_ii, b_ij], [b_ij, b_jj]]`.
pub fn two_sided_rotation(bii: f64, bij: f64, bjj: f64) -> Rotation {
    if bij == 0.0 {
        return Rotation::IDENTITY;
    }
    let rho = (bii - bjj) / (2.0 * bij);
    let t = jacobi_tangent(rho);
    let c = 1.0 / (1.0 + t * t).sqrt();
    Rotation { c, s: t * c }
}

/// Applies `(x, y) <- (x, y) * [[c, -s], [s, c]]` to two column vectors:
/// `x' = c*x + s*y`, `y' = -s*x + c*y` (Eq. 3 with our sign convention).
#[inline]
pub fn rotate_columns(rot: Rotation, x: &mut [f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let (c, s) = (rot.c, rot.s);
    let y = &mut y[..x.len()];
    for k in 0..x.len() {
        let xi = x[k];
        let yi = y[k];
        x[k] = c * xi + s * yi;
        y[k] = -s * xi + c * yi;
    }
}

/// New inner products after a one-sided rotation, per Eq. (6):
/// returns `(a_i'^T a_i', a_j'^T a_j')`. Used by the inner-product caching
/// optimization (§IV-B2) to skip two-thirds of the dot products.
#[inline]
pub fn rotated_norms(rot: Rotation, aii: f64, aij: f64, ajj: f64) -> (f64, f64) {
    let (c, s) = (rot.c, rot.s);
    let new_ii = c * c * aii + 2.0 * c * s * aij + s * s * ajj;
    let new_jj = s * s * aii - 2.0 * c * s * aij + c * c * ajj;
    (new_ii, new_jj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_orthogonal() {
        let r = one_sided_rotation(4.0, 0.0, 1.0);
        assert!(r.is_identity());
        let r = two_sided_rotation(4.0, 0.0, 1.0);
        assert!(r.is_identity());
    }

    #[test]
    fn rotation_is_orthonormal() {
        for &(aii, aij, ajj) in &[(3.0, 1.5, 1.0), (1.0, -2.0, 5.0), (1e-8, 1e8, 2.0)] {
            let r = one_sided_rotation(aii, aij, ajj);
            assert!(r.is_orthonormal(1e-14), "rotation {r:?} not orthonormal");
        }
    }

    #[test]
    fn one_sided_orthogonalizes_columns() {
        let mut x = vec![1.0, 2.0, 0.5];
        let mut y = vec![0.7, -1.0, 3.0];
        let aii = crate::gemm::dot(&x, &x);
        let aij = crate::gemm::dot(&x, &y);
        let ajj = crate::gemm::dot(&y, &y);
        let r = one_sided_rotation(aii, aij, ajj);
        rotate_columns(r, &mut x, &mut y);
        assert!(crate::gemm::dot(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_frobenius() {
        let mut x = vec![1.0, 2.0, 0.5];
        let mut y = vec![0.7, -1.0, 3.0];
        let before = crate::gemm::dot(&x, &x) + crate::gemm::dot(&y, &y);
        let r = one_sided_rotation(
            crate::gemm::dot(&x, &x),
            crate::gemm::dot(&x, &y),
            crate::gemm::dot(&y, &y),
        );
        rotate_columns(r, &mut x, &mut y);
        let after = crate::gemm::dot(&x, &x) + crate::gemm::dot(&y, &y);
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn two_sided_annihilates_offdiag() {
        let (bii, bij, bjj) = (4.0, 2.0, 1.0);
        let r = two_sided_rotation(bii, bij, bjj);
        let (c, s) = (r.c, r.s);
        // b'_ij of G^T B G for G = [[c,-s],[s,c]].
        let b_off = c * s * (bjj - bii) + (c * c - s * s) * bij;
        assert!(b_off.abs() < 1e-14);
        // Trace (sum of eigenvalues) preserved.
        let b_ii = c * c * bii + 2.0 * c * s * bij + s * s * bjj;
        let b_jj = s * s * bii - 2.0 * c * s * bij + c * c * bjj;
        assert!((b_ii + b_jj - (bii + bjj)).abs() < 1e-12);
    }

    #[test]
    fn rotated_norms_matches_direct() {
        let x = vec![1.0, 2.0, 0.5, -0.3];
        let y = vec![0.7, -1.0, 3.0, 0.2];
        let aii = crate::gemm::dot(&x, &x);
        let aij = crate::gemm::dot(&x, &y);
        let ajj = crate::gemm::dot(&y, &y);
        let r = one_sided_rotation(aii, aij, ajj);
        let (pred_ii, pred_jj) = rotated_norms(r, aii, aij, ajj);
        let (mut x2, mut y2) = (x.clone(), y.clone());
        rotate_columns(r, &mut x2, &mut y2);
        assert!((pred_ii - crate::gemm::dot(&x2, &x2)).abs() < 1e-12);
        assert!((pred_jj - crate::gemm::dot(&y2, &y2)).abs() < 1e-12);
    }

    #[test]
    fn tangent_extreme_tau_is_stable() {
        // Huge tau -> tiny rotation; must not overflow.
        let r = one_sided_rotation(1e300, 1.0, 0.0);
        assert!(r.c.is_finite() && r.s.is_finite());
        assert!(r.is_orthonormal(1e-12));
    }
}
