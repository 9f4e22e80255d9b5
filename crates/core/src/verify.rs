//! Static pre-launch verification of a W-cycle level (the static-analysis
//! half of the `wsvd-sanitizer`).
//!
//! Given the matrix sizes entering a level, the auto-tuner's [`TailorPlan`]
//! and the configured pair [`Ordering`], [`verify_level`] *proves* — before
//! any kernel launches — that
//!
//! 1. the ordering's sweep over the level's column blocks is conflict-free
//!    and covers every block pair exactly once ([`wsvd_jacobi::verify`]);
//! 2. every shared-memory working set the level can select (SM SVD of a
//!    pair block, SM EVD of its Gram matrix, the tailored-GEMM tile) fits
//!    the per-block arena, as a list of labelled [`SmemRequirement`]s.
//!
//! The module also owns [`effective_width`], the single place where the
//! plan's block width is adapted to a task's shape — `decompose_level`
//! consumes it, so the widths the checker reasons about are by construction
//! the widths the workflow uses.

use wsvd_batched::gemm::{gemm_smem_requirement, GEMM_SMEM_BYTES};
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::SmemRequirement;
use wsvd_jacobi::fits::{evd_smem_elems, svd_smem_elems};
use wsvd_jacobi::ordering::Ordering;
use wsvd_jacobi::verify::{verify_ordering, ScheduleProof};

use crate::level::{Rotation, Route};

/// Everything a level check proved.
#[derive(Debug)]
pub struct LevelCheck {
    /// Shared-memory working sets the level may allocate, each verified to
    /// fit the arena (deduplicated by label).
    pub requirements: Vec<SmemRequirement>,
    /// One schedule certificate per task with at least two column blocks.
    pub proofs: Vec<ScheduleProof>,
    /// Pair-block shapes that fit neither SM kernel and will recurse; the
    /// recursion re-verifies at its own level with its own plan.
    pub recursing_shapes: usize,
}

/// The block width `decompose_level` actually uses for an `m x n` task under
/// a plan width `plan_w`: clamped to at most `n/2` (a pair must be two
/// blocks), and divided finer when the single resulting pair block would be
/// the whole task while fitting neither SM kernel — the level must do work,
/// not merely wrap the recursion.
pub fn effective_width(m: usize, n: usize, plan_w: usize, smem_bytes: usize) -> usize {
    let mut w = plan_w.min(n / 2).max(1);
    if 2 * w >= n && Route::Multilevel.classify(m, n, smem_bytes) == Rotation::Recurse {
        w = (n / 4).max(1);
    }
    w
}

/// Statically verifies one W-cycle level before it launches: schedule
/// conflict-freedom and coverage for every task, plus arena fit for every
/// shared-memory requirement the level's group classification can select.
/// Returns a human-readable description of the first failure.
pub fn verify_level(
    sizes: &[(usize, usize)],
    plan: &TailorPlan,
    ordering: Ordering,
    smem_bytes: usize,
) -> Result<LevelCheck, String> {
    let mut requirements: Vec<SmemRequirement> = Vec::new();
    let mut proofs = Vec::new();
    let mut recursing = 0usize;
    let mut gemm_needed = false;
    let push_req = |reqs: &mut Vec<SmemRequirement>, req: SmemRequirement| {
        if !reqs.iter().any(|r| r.label == req.label) {
            reqs.push(req);
        }
    };

    for (t, &(m, n)) in sizes.iter().enumerate() {
        if n < 2 {
            continue; // single column: nothing to pair
        }
        let w = effective_width(m, n, plan.w, smem_bytes);
        let blocks = n.div_ceil(w);
        if blocks < 2 {
            continue;
        }
        let proof = verify_ordering(ordering, blocks).map_err(|e| {
            format!(
                "task {t} ({m}x{n}, w={w}, {blocks} blocks): {ordering:?} schedule invalid: {e}"
            )
        })?;
        proofs.push(proof);

        // The partition is `blocks - 1` full-width blocks plus a ragged
        // tail, so a pair block is `2w` or `w + tail` columns wide — the
        // only shapes the level's group classification will ever see.
        let tail = n - (blocks - 1) * w;
        let mut pair_widths = vec![w + tail];
        if blocks >= 3 || tail == w {
            pair_widths.push(2 * w);
        }
        pair_widths.sort_unstable();
        pair_widths.dedup();
        for nn in pair_widths {
            match Route::Multilevel.classify(m, nn, smem_bytes) {
                Rotation::SmSvd => push_req(
                    &mut requirements,
                    SmemRequirement::from_elems(format!("sm-svd {m}x{nn}"), svd_smem_elems(m, nn)),
                ),
                Rotation::GramEvd => {
                    gemm_needed = true;
                    push_req(
                        &mut requirements,
                        SmemRequirement::from_elems(
                            format!("sm-evd {nn}x{nn}"),
                            evd_smem_elems(nn),
                        ),
                    );
                }
                _ => recursing += 1,
            }
        }
    }
    if gemm_needed {
        push_req(&mut requirements, gemm_smem_requirement());
    }
    debug_assert_eq!(gemm_smem_requirement().bytes, GEMM_SMEM_BYTES);

    for req in &requirements {
        if !req.fits(smem_bytes) {
            return Err(format!(
                "{} but the per-block arena holds {smem_bytes} B",
                req
            ));
        }
    }
    Ok(LevelCheck {
        requirements,
        proofs,
        recursing_shapes: recursing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_jacobi::fits::{evd_fits_in_sm, svd_fits_in_sm};

    const SM48K: usize = 48 * 1024;

    fn plan(w: usize) -> TailorPlan {
        TailorPlan::new(w, 64, 256)
    }

    #[test]
    fn effective_width_clamps_and_refines() {
        // Plain clamp: w never exceeds n/2.
        assert_eq!(effective_width(100, 100, 48, SM48K), 48);
        assert_eq!(effective_width(64, 16, 48, SM48K), 8);
        // 100x100 with w = 50: the single pair is the whole matrix and fits
        // neither kernel, so the width drops to n/4.
        assert!(!svd_fits_in_sm(100, 100, SM48K));
        assert!(!evd_fits_in_sm(100, SM48K));
        assert_eq!(effective_width(100, 100, 50, SM48K), 25);
        // Same plan width on a shape whose EVD fits keeps w = n/2.
        assert!(evd_fits_in_sm(40, SM48K));
        assert_eq!(effective_width(2000, 40, 50, SM48K), 20);
    }

    #[test]
    fn clean_level_produces_requirements_and_proofs() {
        let sizes = [(100usize, 100usize), (96, 96)];
        let check = verify_level(&sizes, &plan(24), Ordering::RoundRobin, SM48K).unwrap();
        assert_eq!(check.proofs.len(), 2);
        assert!(check.proofs.iter().all(|p| p.pairs == p.n * (p.n - 1) / 2));
        // 48-column pair blocks go through Gram + EVD, so the EVD and GEMM
        // working sets are both on the list and both fit.
        assert!(check
            .requirements
            .iter()
            .any(|r| r.label.starts_with("sm-evd")));
        assert!(check
            .requirements
            .iter()
            .any(|r| r.label.contains("GEMM tile")));
        assert!(check.requirements.iter().all(|r| r.fits(SM48K)));
        assert_eq!(check.recursing_shapes, 0);
    }

    #[test]
    fn oversized_pairs_are_reported_as_recursing() {
        // 400x400 at w = 48: the 400x96 pair fits neither kernel.
        let check = verify_level(&[(400, 400)], &plan(48), Ordering::RoundRobin, SM48K).unwrap();
        assert!(check.recursing_shapes > 0);
    }

    #[test]
    fn tiny_arena_fails_on_gemm_tile() {
        // An arena smaller than the 16 KiB GEMM tile: the EVD group can
        // still fit tiny matrices, but the tailored GEMM cannot run.
        let small = GEMM_SMEM_BYTES / 2;
        let err = verify_level(&[(2000, 16)], &plan(8), Ordering::RoundRobin, small).unwrap_err();
        assert!(err.contains("GEMM tile"), "{err}");
    }

    #[test]
    fn single_block_tasks_are_skipped() {
        let check = verify_level(&[(8, 1), (16, 2)], &plan(8), Ordering::OddEven, SM48K).unwrap();
        // (8,1) contributes nothing; (16,2) pairs its two single columns.
        assert_eq!(check.proofs.len(), 1);
        assert_eq!(check.proofs[0].n, 2);
    }

    #[test]
    fn all_orderings_verify_on_fig7_shapes() {
        let sizes = [
            (8usize, 32usize),
            (16, 32),
            (32, 32),
            (32, 16),
            (32, 8),
            (96, 96),
        ];
        for o in Ordering::ALL {
            verify_level(&sizes, &plan(16), o, SM48K).unwrap_or_else(|e| panic!("{o:?}: {e}"));
        }
    }
}
