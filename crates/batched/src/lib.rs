//! # wsvd-batched
//!
//! The batched-GEMM layer of the W-cycle SVD: the two GEMM shapes at every
//! level (Gram `B_ij = A_ij^T A_ij` and update `Â_ij = A_ij J_ij`), the
//! tailoring strategy that splits GEMM tasks into standard-plate segments
//! across thread blocks (§IV-D1), the TLP/AI performance models (Eqs. 8–9),
//! the auto-tuning engine that resolves the multi-objective program of
//! Eq. (10) (§IV-D3), and the α-warp selectors of §IV-B1 (GCF rule and the
//! trained decision tree).

#![warn(missing_docs)]

pub mod alpha;
pub mod autotune;
pub mod gemm;
pub mod models;

pub use alpha::{alpha_gcf, DecisionTree, TPP_CANDIDATES};
pub use autotune::{
    auto_tune, auto_tune_with_w_cap, auto_tune_with_w_cap_traced, calibrate_threshold,
    candidate_plans, scored_candidates, PlanCache, TuneTelemetry, V100_TLP_THRESHOLD,
};
pub use gemm::{
    batched_gram, batched_gram_owned, batched_update, batched_update_cols, gemm_kernel_resource,
    gemm_smem_requirement, tailor_assignment, verify_tailor_assignment, GemmStrategy, Segment,
    GEMM_SMEM_BYTES,
};
pub use models::{ai_gram, ai_update, tlp, TailorPlan};

/// The Table-VI-style size class of an `rows x cols` matrix against an
/// ascending list of caps: the index of the smallest cap both dimensions
/// fit under, or `None` when the matrix exceeds every cap (the serve layer
/// rejects such requests rather than silently oversizing a bucket).
pub fn size_class(rows: usize, cols: usize, caps: &[usize]) -> Option<usize> {
    let d = rows.max(cols);
    caps.iter().position(|&c| d <= c)
}

#[cfg(test)]
mod size_class_tests {
    use super::size_class;

    #[test]
    fn classifies_by_larger_dimension_against_ascending_caps() {
        let caps = [32, 64, 128, 256, 512];
        assert_eq!(size_class(10, 30, &caps), Some(0));
        assert_eq!(size_class(33, 8, &caps), Some(1));
        assert_eq!(size_class(64, 64, &caps), Some(1));
        assert_eq!(size_class(512, 1, &caps), Some(4));
        assert_eq!(size_class(513, 1, &caps), None);
        assert_eq!(size_class(4, 4, &[]), None);
    }
}
