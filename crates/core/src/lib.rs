//! # wsvd-core
//!
//! **W-cycle SVD** — the paper's primary contribution: a size-oblivious
//! multilevel algorithm for batched SVD (Xiao et al., SC 2022, Algorithm 2).
//!
//! The batched one-sided Jacobi method is organized as a recursion over
//! levels: matrices whose SVD fits entirely in GPU shared memory are
//! decomposed in place by the batched SM SVD kernel; larger matrices are
//! partitioned into column blocks whose pair rotations are generated either
//! by the SM SVD kernel (avoiding the Gram GEMM — Observation 1), by the SM
//! EVD kernel on the Gram matrix, or by recursing with a smaller block
//! width. Each level's two batched GEMMs run under the tailoring strategy
//! with auto-tuned `(w_h, δ_h, T_h)` parameters.
//!
//! ```
//! use wsvd_core::{wcycle_svd, WCycleConfig};
//! use wsvd_gpu_sim::{Gpu, V100};
//! use wsvd_linalg::generate::random_uniform;
//!
//! let gpu = Gpu::new(V100);
//! let batch = vec![random_uniform(64, 64, 1), random_uniform(16, 16, 2)];
//! let out = wcycle_svd(&gpu, &batch, &WCycleConfig::default()).unwrap();
//! assert_eq!(out.results.len(), 2);
//! assert!(out.results[0].sigma.windows(2).all(|w| w[0] >= w[1]));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod level;
pub mod stats;
pub mod verify;
pub mod wcycle;

pub use config::{AlphaSelect, Tuning, WCycleConfig};
pub use level::{Hooks, Level, Rotation, Route};
pub use stats::{SweepRecord, WCycleStats};
pub use verify::{effective_width, verify_level, LevelCheck};
pub use wcycle::{check_finite, oriented_batch, wcycle_svd, WCycleOutput, WSvd};
