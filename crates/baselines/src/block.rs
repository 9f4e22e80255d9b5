//! Uniform-width block Jacobi (Algorithm 1 of the paper), the common core of
//! the size-sensitive baselines.
//!
//! Unlike the W-cycle, this is a *single-level* method: one static column
//! block width `w` is applied to every matrix in the batch, the
//! "one-size-fits-all" design the paper argues against. It is the W-cycle's
//! level engine ([`wsvd_core::level`]) run at that width with no recursion
//! and a forced route: rotations come from either a direct SVD of the pair
//! block (falling back to the slow global-memory kernel when it does not fit
//! in SM — the size-sensitivity) or from the Gram + EVD route.

use wsvd_batched::gemm::GemmStrategy;
use wsvd_core::{
    oriented_batch, AlphaSelect, Level, Route, WCycleConfig, WCycleOutput, WCycleStats, WSvd,
};
use wsvd_gpu_sim::{Gpu, KernelError};
use wsvd_jacobi::{extract_u_sigma, EvdVariant};
use wsvd_linalg::matrix::partition_cols;
use wsvd_linalg::Matrix;

/// How pair-block rotations are generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotationSource {
    /// Direct one-sided Jacobi SVD of `A_ij` (SM when it fits, GM
    /// otherwise) — the `Batched_DP_Direct` style of ref. \[19\].
    DirectSvd,
    /// Gram matrix + two-sided Jacobi EVD — the `Batched_DP_Gram` style.
    GramEvd,
}

/// Which generation of rotation kernels the method runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernels {
    /// Pre-W-cycle codes (ref. \[19\], vendor kernels): one warp per column
    /// pair, no Eq.-(6) norm cache, the serialized two-sided Jacobi EVD.
    PreWCycle,
    /// The W-cycle's kernels: 8-thread pair teams, the norm cache, the
    /// parallel EVD.
    WCycle,
}

/// Configuration of the uniform-width block Jacobi.
#[derive(Clone, Copy, Debug)]
pub struct BlockJacobiConfig {
    /// The static column-block width (same for every matrix).
    pub w: usize,
    /// Rotation generation route.
    pub rotation: RotationSource,
    /// Coherence tolerance.
    pub tol: f64,
    /// Sweep cap.
    pub max_sweeps: usize,
    /// Rotation kernel generation.
    pub kernels: Kernels,
}

impl Default for BlockJacobiConfig {
    fn default() -> Self {
        Self {
            w: 16,
            rotation: RotationSource::GramEvd,
            tol: 1e-12,
            max_sweeps: 40,
            kernels: Kernels::WCycle,
        }
    }
}

/// Runs Algorithm 1 over a batch with one fixed `w`. Wide inputs are
/// decomposed transposed and their factors swapped back; the statistics
/// tally every rotation at level 1.
pub fn block_jacobi_svd(
    gpu: &Gpu,
    mats: &[Matrix],
    cfg: &BlockJacobiConfig,
) -> Result<WCycleOutput, KernelError> {
    let (mut tasks, transposed): (Vec<Matrix>, Vec<bool>) =
        oriented_batch(mats)?.into_iter().unzip();
    let parts: Vec<Vec<(usize, usize)>> = tasks
        .iter()
        .map(|t| partition_cols(t.cols(), cfg.w.min(t.cols() / 2).max(1)))
        .collect();
    let mut vs: Vec<Option<Matrix>> = tasks
        .iter()
        .map(|t| Some(Matrix::identity(t.cols())))
        .collect();
    let (threads_per_pair, cache_norms, evd_variant) = match cfg.kernels {
        Kernels::PreWCycle => (32, false, EvdVariant::Sequential),
        Kernels::WCycle => (8, true, EvdVariant::Parallel),
    };
    // Round-robin ordering, 256-thread kernels and the default inner
    // tolerance come with the W-cycle's defaults.
    let sweep_cfg = WCycleConfig {
        tol: cfg.tol,
        max_sweeps: cfg.max_sweeps,
        alpha: AlphaSelect::Fixed(threads_per_pair),
        cache_norms,
        ..WCycleConfig::default()
    };
    let engine = Level {
        level: 1,
        route: match cfg.rotation {
            RotationSource::DirectSvd => Route::Direct,
            RotationSource::GramEvd => Route::Gram,
        },
        parts: &parts,
        strategy: GemmStrategy::OneBlockPerGemm {
            threads: sweep_cfg.kernel_threads,
        },
        evd_variant,
        cfg: &sweep_cfg,
    };
    let mut stats = WCycleStats::default();
    let status = engine.run(gpu, &mut tasks, &mut vs, &mut stats, None)?;
    let results = tasks
        .into_iter()
        .zip(vs)
        .zip(transposed.into_iter().zip(status))
        .map(|((mut u, mut v), (transposed, (sweeps, converged)))| {
            let sigma = extract_u_sigma(&mut u, v.as_mut());
            WSvd::oriented(u, sigma, v, transposed, true, sweeps, converged)
        })
        .collect();
    Ok(WCycleOutput { results, stats })
}

/// Block rotations in a single sweep for an `n`-column matrix at width `w`
/// (the analytic `(⌊n/w⌋ - 1) · ⌊n/(2w)⌋` count of §II-B, used by Fig. 2).
pub fn rotations_per_sweep(n: usize, w: usize) -> u64 {
    let blocks = n.div_ceil(w.max(1));
    if blocks < 2 {
        return 0;
    }
    // Round-robin: blocks-1 steps (even) of ⌊blocks/2⌋ pairs.
    let steps = if blocks.is_multiple_of(2) {
        blocks - 1
    } else {
        blocks
    };
    (steps * (blocks / 2)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::{random_batch, random_uniform};
    use wsvd_linalg::singular_values;
    use wsvd_linalg::verify::orthonormality_error;

    fn check(a: &Matrix, out: &WSvd) {
        let want = singular_values(a).unwrap();
        for (g, w) in out.sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8 * (1.0 + w), "{g} vs {w}");
        }
        assert!(orthonormality_error(&out.u) < 1e-8);
        if let Some(v) = &out.v {
            assert!(orthonormality_error(v) < 1e-8);
        }
    }

    #[test]
    fn gram_route_converges() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(2, 64, 64, 3);
        let out = block_jacobi_svd(&gpu, &mats, &BlockJacobiConfig::default()).unwrap();
        for (a, o) in mats.iter().zip(&out.results) {
            check(a, o);
            assert!(o.sweeps > 0);
        }
        assert!(out.stats.total_rotations() > 0);
        assert_eq!(out.stats.sm_evd_blocks, out.stats.total_rotations());
    }

    #[test]
    fn direct_route_converges() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(2, 48, 48, 5);
        let cfg = BlockJacobiConfig {
            rotation: RotationSource::DirectSvd,
            w: 8,
            ..Default::default()
        };
        let out = block_jacobi_svd(&gpu, &mats, &cfg).unwrap();
        for (a, o) in mats.iter().zip(&out.results) {
            check(a, o);
        }
    }

    #[test]
    fn direct_route_falls_back_to_gm_for_big_blocks() {
        // At w = 24 the single 700 x 48 pair block overflows the SM SVD
        // kernel's shared memory, so every rotation must come from the GM
        // kernel, and the result must still be correct.
        let gpu = Gpu::new(V100);
        let a = random_uniform(700, 48, 7);
        let cfg = BlockJacobiConfig {
            rotation: RotationSource::DirectSvd,
            w: 24,
            max_sweeps: 30,
            ..Default::default()
        };
        let out = block_jacobi_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        check(&a, &out.results[0]);
        let stats = &out.stats;
        assert!(stats.gm_svd_blocks > 0);
        assert_eq!(stats.gm_svd_blocks, stats.total_rotations());
        assert_eq!(stats.sm_evd_blocks, 0, "no pair block took the Gram route");
        // One pair per sweep: a `batched_svd_gm` launch and the V update,
        // no `batched_gram`, EVD or block-update launch.
        let sweeps = out.results[0].sweeps as u64;
        assert_eq!(gpu.timeline().launches, 2 * sweeps);
    }

    #[test]
    fn larger_w_needs_fewer_rotations_per_sweep() {
        assert!(rotations_per_sweep(1536, 24) > rotations_per_sweep(1536, 48));
        assert_eq!(rotations_per_sweep(64, 32), 1);
        assert_eq!(rotations_per_sweep(96, 16), 5 * 3);
        assert_eq!(rotations_per_sweep(16, 16), 0);
    }

    #[test]
    fn measured_rotations_match_analytic_per_sweep() {
        let gpu = Gpu::new(V100);
        let a = random_uniform(64, 64, 9);
        let cfg = BlockJacobiConfig {
            w: 16,
            max_sweeps: 1,
            tol: 0.0,
            ..Default::default()
        };
        let out = block_jacobi_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        assert_eq!(out.stats.total_rotations(), rotations_per_sweep(64, 16));
    }
}
