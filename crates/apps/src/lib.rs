//! # wsvd-apps
//!
//! Applications of the batched W-cycle SVD:
//! * [`assimilation`] — the ocean-model data-assimilation analysis step of
//!   §V-F (per-grid-point SVDs of mixed sizes, vs the MAGMA-like baseline);
//! * [`compression`] — low-rank image compression over batched tiles (the
//!   motivating workload of the paper's introduction);
//! * [`filters`] — separable approximation of CNN filter banks (the
//!   paper's ref. \[3\]).

#![warn(missing_docs)]

pub mod assimilation;
pub mod compression;
pub mod filters;

pub use assimilation::{
    analysis_step, analysis_step_distributed, analysis_step_distributed_with, analysis_step_with,
    AnalysisResult, AssimilationProblem, SvdEngine,
};
pub use compression::{compress, synthetic_image, tile_image, Compressed};
pub use filters::{separate_filter_bank, synthetic_filter_bank, SeparableFilter};
