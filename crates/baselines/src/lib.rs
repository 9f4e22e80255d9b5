//! # wsvd-baselines
//!
//! Comparator implementations for the W-cycle SVD evaluation:
//!
//! * [`cusolver`] — a cuSOLVER-like baseline (`gesvdjBatched` for `m,n <=
//!   32`, serial `gesvdj` loop above it), with the static kernel design the
//!   paper's Fig. 7/8 measure against;
//! * [`magma`] — a MAGMA-like two-stage SVD (real Householder
//!   bidiagonalization + implicit-shift QR numerics, panel-pipeline cost);
//! * [`dp`] — `Batched_DP_Direct` / `Batched_DP_Gram` of ref. \[19\], the
//!   Table-IV state of the art;
//! * [`block`] — the shared uniform-width block Jacobi (Algorithm 1) they
//!   are built from: a configuration of `wsvd-core`'s level engine.
//!
//! Every entry returns `wsvd_core::WSvd` and rejects non-finite input.

#![warn(missing_docs)]

pub mod block;
pub mod cusolver;
pub mod dp;
pub mod magma;

pub use block::{
    block_jacobi_svd, rotations_per_sweep, BlockJacobiConfig, Kernels, RotationSource,
};
pub use cusolver::{
    cusolver_batched_svd, gesvdj, gesvdj_batched, gesvdj_serial_batch, BATCHED_API_MAX_DIM,
};
pub use dp::{batched_dp_direct, batched_dp_gram, DP_BLOCK_W};
pub use magma::{magma_batched_svd, magma_gesvd};
