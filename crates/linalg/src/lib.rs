//! # wsvd-linalg
//!
//! Dense linear-algebra substrate for the W-cycle SVD reproduction
//! (Xiao et al., *W-Cycle SVD: A Multilevel Algorithm for Batched SVD on
//! GPUs*, SC 2022).
//!
//! Provides:
//! * a column-major [`Matrix`] tuned for column-oriented Jacobi methods;
//! * GEMM kernels ([`mod@gemm`]), Gram products and right-updates — the two GEMM
//!   shapes at every W-cycle level;
//! * Jacobi/Givens plane rotations ([`givens`]) with the paper's Eq. (4) and
//!   Eq. (6) formulas;
//! * Householder reflectors and Golub–Kahan bidiagonalization
//!   ([`householder`]) plus implicit-shift QR ([`bidiag_svd`]) — the
//!   MAGMA-style two-stage SVD used both as a baseline and a test oracle;
//! * seeded workload generators ([`generate`]) and verification helpers
//!   ([`verify`]);
//! * the instruction-set dispatch of the host kernels ([`simd`],
//!   [`dispatch!`]): one body compiled three times, portable, AVX2 and
//!   AVX-512F.

#![warn(missing_docs)]

pub mod bidiag_svd;
pub mod cholesky;
pub mod gemm;
pub mod generate;
pub mod givens;
pub mod householder;
pub mod lowp;
pub mod matrix;
pub mod qr;
pub mod simd;
pub mod svd;
pub mod verify;

pub use gemm::{gram, matmul};
pub use givens::{one_sided_rotation, rotate_columns, two_sided_rotation, Rotation};
pub use matrix::Matrix;
pub use svd::{singular_values, svd_reference, Svd};
