//! Uniform-width block Jacobi (Algorithm 1 of the paper), the common core of
//! the size-sensitive baselines.
//!
//! Unlike the W-cycle, this is a *single-level* method: one static column
//! block width `w` is applied to every matrix in the batch, the
//! "one-size-fits-all" design the paper argues against. Rotations come from
//! either a direct SVD of the pair block (falling back to the slow
//! global-memory kernel when it does not fit in SM — the size-sensitivity)
//! or from the Gram + EVD route.

use wsvd_batched::gemm::{batched_gram, batched_update, GemmStrategy};
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::{Gpu, KernelError};
use wsvd_jacobi::batch::{batched_evd_sm, batched_svd_gm, batched_svd_sm};
use wsvd_jacobi::evd::{EvdConfig, EvdVariant};
use wsvd_jacobi::fits::svd_fits_in_sm;
use wsvd_jacobi::onesided::OneSidedConfig;
use wsvd_jacobi::Ordering;
use wsvd_linalg::gemm::dot;
use wsvd_linalg::matrix::partition_cols;
use wsvd_linalg::verify::columns_converged;
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

/// Configuration of the uniform-width block Jacobi.
#[derive(Clone, Copy, Debug)]
pub struct BlockJacobiConfig {
    /// The static column-block width (same for every matrix).
    pub w: usize,
    /// Rotation generation route.
    pub rotation: RotationSource,
    /// Use the tailoring strategy for the batched GEMMs.
    pub tailor: bool,
    /// Accumulate right singular matrices.
    pub want_v: bool,
    /// Coherence tolerance.
    pub tol: f64,
    /// Sweep cap.
    pub max_sweeps: usize,
    /// Threads per block for the SM kernels.
    pub kernel_threads: usize,
    /// Two-sided Jacobi variant for the Gram route. Pre-W-cycle codes
    /// (ref. \[19\], vendor kernels) use the serialized textbook form.
    pub evd_variant: EvdVariant,
    /// Threads per column pair inside the direct-SVD route (32 = the
    /// classic one-warp-per-pair assignment).
    pub svd_threads_per_pair: usize,
    /// Enable the Eq.-(6) inner-product cache inside the direct-SVD route.
    pub svd_cache_norms: bool,
}

impl Default for BlockJacobiConfig {
    fn default() -> Self {
        Self {
            w: 16,
            rotation: RotationSource::GramEvd,
            tailor: false,
            want_v: true,
            tol: 1e-12,
            max_sweeps: 40,
            kernel_threads: 256,
            evd_variant: EvdVariant::Parallel,
            svd_threads_per_pair: 8,
            svd_cache_norms: true,
        }
    }
}

/// Result of one matrix under block Jacobi.
#[derive(Debug)]
pub struct BlockSvd {
    /// Left singular vectors, `m x r`.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (`n x n`), when requested.
    pub v: Option<Matrix>,
    /// Sweeps until convergence.
    pub sweeps: usize,
    /// Block rotations applied for this matrix.
    pub rotations: u64,
}

/// Runs Algorithm 1 over a batch with one fixed `w` (inputs must be tall or
/// square; transpose wide matrices first).
pub fn block_jacobi_svd(
    gpu: &Gpu,
    mats: &[Matrix],
    cfg: &BlockJacobiConfig,
) -> Result<Vec<BlockSvd>, KernelError> {
    let smem = gpu.device().smem_per_block_bytes;
    let mut tasks: Vec<Matrix> = mats.to_vec();
    let mut vs: Vec<Option<Matrix>> = tasks
        .iter()
        .map(|t| cfg.want_v.then(|| Matrix::identity(t.cols())))
        .collect();
    let mut sweeps = vec![0usize; tasks.len()];
    let mut rotations = vec![0u64; tasks.len()];
    let mut active: Vec<bool> = tasks.iter().map(|t| t.cols() >= 2).collect();

    let strategy = if cfg.tailor {
        let m_star = tasks.iter().map(|t| t.rows()).max().unwrap_or(8);
        GemmStrategy::Tailored(TailorPlan::new(cfg.w, m_star, cfg.kernel_threads))
    } else {
        GemmStrategy::OneBlockPerGemm {
            threads: cfg.kernel_threads,
        }
    };

    let parts: Vec<Vec<(usize, usize)>> = tasks
        .iter()
        .map(|t| partition_cols(t.cols(), cfg.w.min(t.cols() / 2).max(1)))
        .collect();

    for _ in 0..cfg.max_sweeps {
        if !active.iter().any(|&a| a) {
            break;
        }
        let schedules: Vec<_> = parts
            .iter()
            .zip(&active)
            .map(|(p, &a)| {
                if a {
                    wsvd_jacobi::ordering::round_robin(p.len())
                } else {
                    Vec::new()
                }
            })
            .collect();
        let max_steps = schedules.iter().map(|s| s.len()).max().unwrap_or(0);

        // (task index, (row block, col block), (rows, cols)) per pair block.
        type PairRef = (usize, (usize, usize), (usize, usize));
        for step in 0..max_steps {
            let mut refs: Vec<PairRef> = Vec::new();
            let mut blocks: Vec<Matrix> = Vec::new();
            for (t, sched) in schedules.iter().enumerate() {
                if !active[t] || step >= sched.len() {
                    continue;
                }
                for &(bi, bj) in &sched[step] {
                    refs.push((t, parts[t][bi], parts[t][bj]));
                    blocks.push(tasks[t].paired_col_blocks(parts[t][bi], parts[t][bj]));
                }
            }
            if blocks.is_empty() {
                continue;
            }
            for &(t, _, _) in &refs {
                rotations[t] += 1;
            }

            let js: Vec<Matrix> = match cfg.rotation {
                RotationSource::DirectSvd => {
                    // Size-sensitive split: SM when the pair block fits,
                    // the slow GM kernel otherwise. No recursion.
                    let mut js: Vec<Option<Matrix>> = vec![None; blocks.len()];
                    let (sm_idx, gm_idx): (Vec<usize>, Vec<usize>) =
                        (0..blocks.len()).partition(|&i| {
                            let (m, nn) = blocks[i].shape();
                            svd_fits_in_sm(m, nn, smem)
                        });
                    // Tighter than the outer convergence test (see the
                    // inner-tolerance note in wsvd-core): a pair block that
                    // stops at the outer tol would stall the sweep loop.
                    let one_sided = OneSidedConfig {
                        tol: (cfg.tol * 1e-2).max(1e-15),
                        accumulate_v: true,
                        ordering: Ordering::RoundRobin,
                        threads_per_pair: cfg.svd_threads_per_pair,
                        cache_norms: cfg.svd_cache_norms,
                        ..Default::default()
                    };
                    if !sm_idx.is_empty() {
                        let sub: Vec<Matrix> = sm_idx.iter().map(|&i| blocks[i].clone()).collect();
                        let (svds, _) = batched_svd_sm(gpu, &sub, &one_sided, cfg.kernel_threads)?;
                        for (&i, svd) in sm_idx.iter().zip(svds) {
                            blocks[i] = svd.rotated_block();
                            js[i] = Some(svd.v);
                        }
                    }
                    if !gm_idx.is_empty() {
                        let sub: Vec<Matrix> = gm_idx.iter().map(|&i| blocks[i].clone()).collect();
                        let (svds, _) = batched_svd_gm(gpu, &sub, &one_sided, cfg.kernel_threads)?;
                        for (&i, svd) in gm_idx.iter().zip(svds) {
                            blocks[i] = svd.rotated_block();
                            js[i] = Some(svd.v);
                        }
                    }
                    js.into_iter().map(|j| j.unwrap()).collect()
                }
                RotationSource::GramEvd => {
                    let (grams, _) = batched_gram(gpu, &blocks, strategy)?;
                    let evd_cfg = EvdConfig {
                        tol: 1e-15,
                        max_sweeps: 30,
                        variant: cfg.evd_variant,
                    };
                    let (evds, _) = batched_evd_sm(gpu, &grams, &evd_cfg, cfg.kernel_threads)?;
                    let js: Vec<Matrix> = evds.into_iter().map(|e| e.j).collect();
                    batched_update(gpu, &mut blocks, &js, strategy)?;
                    js
                }
            };

            // Scatter and V accumulation.
            let mut v_blocks = Vec::new();
            let mut v_meta = Vec::new();
            for ((&(t, bi, bj), block), j) in refs.iter().zip(&blocks).zip(&js) {
                tasks[t].store_paired_col_blocks(bi, bj, block);
                if let Some(v) = &vs[t] {
                    v_blocks.push(v.paired_col_blocks(bi, bj));
                    v_meta.push((t, bi, bj, j.clone()));
                }
            }
            if !v_blocks.is_empty() {
                let v_js: Vec<Matrix> = v_meta.iter().map(|(_, _, _, j)| j.clone()).collect();
                batched_update(gpu, &mut v_blocks, &v_js, strategy)?;
                for ((t, bi, bj, _), vb) in v_meta.into_iter().zip(v_blocks) {
                    vs[t].as_mut().unwrap().store_paired_col_blocks(bi, bj, &vb);
                }
            }
        }

        for t in 0..tasks.len() {
            if active[t] {
                sweeps[t] += 1;
                if columns_converged(&tasks[t], cfg.tol) {
                    active[t] = false;
                }
            }
        }
    }

    Ok(tasks
        .iter()
        .zip(vs)
        .zip(sweeps.iter().zip(&rotations))
        .map(|((conv, v), (&sweeps, &rotations))| {
            let (u, sigma, v) = extract(conv, v);
            BlockSvd {
                u,
                sigma,
                v,
                sweeps,
                rotations,
            }
        })
        .collect())
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

fn extract(conv: &Matrix, v: Option<Matrix>) -> (Matrix, Vec<f64>, Option<Matrix>) {
    let (m, n) = conv.shape();
    let norms: Vec<f64> = (0..n).map(|j| dot(conv.col(j), conv.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    let r = m.min(n);
    let mut u = Matrix::zeros(m, r);
    let mut sigma = Vec::with_capacity(r);
    for (k, &j) in order.iter().take(r).enumerate() {
        let s = norms[j].sqrt();
        sigma.push(s);
        if s > 0.0 {
            let src = conv.col(j);
            let dst = u.col_mut(k);
            for i in 0..m {
                dst[i] = src[i] / s;
            }
        } else if k < m {
            u[(k, k)] = 1.0;
        }
    }
    let v = v.map(|v| {
        let mut out = Matrix::zeros(v.rows(), v.cols());
        for (k, &j) in order.iter().enumerate() {
            out.col_mut(k).copy_from_slice(v.col(j));
        }
        out
    });
    (u, sigma, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::{random_batch, random_uniform};
    use wsvd_linalg::singular_values;
    use wsvd_linalg::verify::orthonormality_error;

    fn check(a: &Matrix, out: &BlockSvd) {
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
        let outs = block_jacobi_svd(&gpu, &mats, &BlockJacobiConfig::default()).unwrap();
        for (a, o) in mats.iter().zip(&outs) {
            check(a, o);
            assert!(o.sweeps > 0 && o.rotations > 0);
        }
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
        let outs = block_jacobi_svd(&gpu, &mats, &cfg).unwrap();
        for (a, o) in mats.iter().zip(&outs) {
            check(a, o);
        }
    }

    #[test]
    fn direct_route_falls_back_to_gm_for_big_blocks() {
        // 700-row pair blocks of width 16 don't fit the SM SVD kernel
        // (700*16+256+32 elems is fine... use width 24: 700*48 = 33600 elems
        // overflow): the GM fallback must still produce a correct result.
        let gpu = Gpu::new(V100);
        let a = random_uniform(700, 48, 7);
        let cfg = BlockJacobiConfig {
            rotation: RotationSource::DirectSvd,
            w: 24,
            max_sweeps: 30,
            ..Default::default()
        };
        let outs = block_jacobi_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        check(&a, &outs[0]);
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
        let outs = block_jacobi_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        assert_eq!(outs[0].rotations, rotations_per_sweep(64, 16));
    }

    #[test]
    fn tailored_gemms_do_not_change_numerics() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(1, 80, 80, 11);
        let plain = block_jacobi_svd(&gpu, &mats, &BlockJacobiConfig::default()).unwrap();
        let cfg = BlockJacobiConfig {
            tailor: true,
            ..Default::default()
        };
        let tailored = block_jacobi_svd(&gpu, &mats, &cfg).unwrap();
        for (p, t) in plain[0].sigma.iter().zip(&tailored[0].sigma) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn want_v_false_is_cheaper_and_valueless() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(1, 64, 64, 13);
        let cfg = BlockJacobiConfig {
            want_v: false,
            ..Default::default()
        };
        let outs = block_jacobi_svd(&gpu, &mats, &cfg).unwrap();
        assert!(outs[0].v.is_none());
        let want = singular_values(&mats[0]).unwrap();
        for (g, w) in outs[0].sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8 * (1.0 + w));
        }
    }
}
