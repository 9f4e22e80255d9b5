//! # wsvd-jacobi
//!
//! Batched Jacobi kernels on the GPU execution-model simulator:
//!
//! * [`onesided`] — the one-sided Jacobi SVD kernel with column-vector
//!   rotations (§II-C), the α-warp task assignment and the Eq.-(6)
//!   inner-product caching of §IV-B, in shared-memory and global-memory
//!   variants;
//! * [`evd`] — the two-sided Jacobi EVD kernel (§II-D), both the serialized
//!   textbook form and the paper's parallel all-element update (§IV-C);
//! * [`ordering`] — round-robin / odd-even / ring pair schedules;
//! * [`fits`] — the exact shared-memory footprint predicates that drive
//!   Algorithm 2's level classification;
//! * [`batch`] — one-block-per-matrix batched launches;
//! * [`verify`] — static conflict-freedom and coverage proofs for any pair
//!   schedule, used by the `wsvd-sanitizer` layer before kernels launch.

#![warn(missing_docs)]

pub mod batch;
pub mod evd;
pub mod fits;
pub mod onesided;
pub mod ordering;
pub mod verify;

pub use batch::{
    batched_evd_sm, batched_evd_sm_owned, batched_svd_gm, batched_svd_in_place, batched_svd_sm,
};
pub use evd::{evd_in_block, EvdConfig, EvdVariant, JacobiEvd};
pub use fits::{
    evd_fits_in_sm, evd_kernel_resource, max_w_for_evd, svd_fits_in_sm, svd_kernel_resource,
};
pub use onesided::{
    extract_u_sigma, svd_in_block, JacobiStats, JacobiSvd, MemSpace, OneSidedConfig, SvdSmemLayout,
};
pub use ordering::Ordering;
pub use verify::{verify_ordering, verify_schedule, Coverage, ScheduleProof, ScheduleViolation};
