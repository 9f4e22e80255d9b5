//! Batched wrappers: one simulated thread block per matrix.
//!
//! These are the "batched SVD kernel" and "batched EVD kernel" invoked at
//! every level of the W-cycle (Algorithm 2, lines 3/9/11) and by the
//! baselines. Each launch assigns matrix `k` to block `k`; blocks run
//! concurrently under the simulator's scheduler, so large batches raise
//! occupancy exactly as in Fig. 11(a).

use wsvd_gpu_sim::{Gpu, KernelConfig, KernelError, LaunchStats};
use wsvd_linalg::matrix::Columns;
use wsvd_linalg::Matrix;

use crate::evd::{evd_in_block, EvdConfig, JacobiEvd};
use crate::onesided::{svd_in_block, JacobiSvd, MemSpace, OneSidedConfig};

/// Batched one-sided Jacobi SVD with working sets in shared memory.
///
/// Fails with [`KernelError::Smem`] if any matrix's working set exceeds the
/// device's static per-block capacity — callers are expected to have
/// filtered with [`crate::fits::svd_fits_in_sm`] first (Algorithm 2).
pub fn batched_svd_sm<A: Columns + Sync>(
    gpu: &Gpu,
    mats: &[A],
    cfg: &OneSidedConfig,
    threads_per_block: usize,
) -> Result<(Vec<JacobiSvd>, LaunchStats), KernelError> {
    let kc = svd_kernel(gpu, mats.len(), threads_per_block, MemSpace::Shared);
    gpu.launch_collect(kc, |b, ctx| {
        svd_in_block(&mats[b], cfg, ctx, MemSpace::Shared)
    })
}

/// Batched one-sided Jacobi SVD operating directly on global memory (the
/// slow path of Fig. 1; used by baselines for matrices that overflow SM).
pub fn batched_svd_gm<A: Columns + Sync>(
    gpu: &Gpu,
    mats: &[A],
    cfg: &OneSidedConfig,
    threads_per_block: usize,
) -> Result<(Vec<JacobiSvd>, LaunchStats), KernelError> {
    let kc = svd_kernel(gpu, mats.len(), threads_per_block, MemSpace::Global);
    gpu.launch_collect(kc, |b, ctx| {
        svd_in_block(&mats[b], cfg, ctx, MemSpace::Global)
    })
}

/// Batched one-sided Jacobi SVD of pair blocks rotated in place: block `k`
/// copies the columns `blocks[k]` holds (a pair block `A_ij` where it lives
/// in its task) into its working matrix, decomposes it in `space` as
/// [`batched_svd_sm`] / [`batched_svd_gm`] do, and writes the rotated block
/// `A_ij V = UΣ` back into the same columns itself. Returns each block's V,
/// the rotation `J_ij` its V pair still needs. `owners`, when given, names
/// the owner of each block (see [`Gpu::launch_over_owned`]).
pub fn batched_svd_in_place(
    gpu: &Gpu,
    blocks: Vec<Vec<&mut [f64]>>,
    cfg: &OneSidedConfig,
    threads_per_block: usize,
    space: MemSpace,
    owners: Option<&[usize]>,
) -> Result<(Vec<Matrix>, LaunchStats), KernelError> {
    let kc = svd_kernel(gpu, blocks.len(), threads_per_block, space);
    let mut items: Vec<_> = blocks.into_iter().map(|a| (a, Matrix::default())).collect();
    let stats = gpu.launch_over_owned(kc, owners, &mut items, |_, (a, v), ctx| {
        let svd = svd_in_block(a, cfg, ctx, space)?;
        svd.rotated_block_into(a);
        *v = svd.v;
        Ok(())
    })?;
    Ok((items.into_iter().map(|(_, v)| v).collect(), stats))
}

/// The launch of a batched SVD kernel in `space`: the whole shared-memory
/// arena per block in SM, none in GM.
fn svd_kernel(gpu: &Gpu, grid: usize, threads: usize, space: MemSpace) -> KernelConfig {
    match space {
        MemSpace::Shared => KernelConfig::new(
            grid,
            threads,
            gpu.device().smem_per_block_bytes,
            "batched_svd_sm",
        ),
        MemSpace::Global => KernelConfig::new(grid, threads, 0, "batched_svd_gm"),
    }
}

/// Batched two-sided Jacobi EVD in shared memory (Algorithm 2, line 11).
pub fn batched_evd_sm(
    gpu: &Gpu,
    mats: &[Matrix],
    cfg: &EvdConfig,
    threads_per_block: usize,
) -> Result<(Vec<JacobiEvd>, LaunchStats), KernelError> {
    batched_evd_sm_owned(gpu, mats, cfg, threads_per_block, None)
}

/// [`batched_evd_sm`] with the owner of each matrix (see
/// [`Gpu::launch_collect_owned`]).
pub fn batched_evd_sm_owned(
    gpu: &Gpu,
    mats: &[Matrix],
    cfg: &EvdConfig,
    threads_per_block: usize,
    owners: Option<&[usize]>,
) -> Result<(Vec<JacobiEvd>, LaunchStats), KernelError> {
    let kc = KernelConfig::new(
        mats.len(),
        threads_per_block,
        gpu.device().smem_per_block_bytes,
        "batched_evd_sm",
    );
    gpu.launch_collect_owned(kc, owners, |b, ctx| evd_in_block(&mats[b], cfg, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onesided::OneSidedConfig;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::{random_batch, random_symmetric, random_uniform};
    use wsvd_linalg::singular_values;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_svd_sm_matches_reference_per_matrix() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(8, 16, 12, 42);
        let (outs, stats) = batched_svd_sm(&gpu, &mats, &OneSidedConfig::default(), 128).unwrap();
        assert_eq!(outs.len(), 8);
        assert_eq!(stats.grid, 8);
        for (a, svd) in mats.iter().zip(&outs) {
            let want = singular_values(a).unwrap();
            for (g, w) in svd.sigma.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn larger_batches_raise_occupancy() {
        let occ = |count: usize| {
            let gpu = Gpu::new(V100);
            let mats = random_batch(count, 16, 16, 7);
            let (_, stats) = batched_svd_sm(&gpu, &mats, &OneSidedConfig::default(), 128).unwrap();
            stats.occupancy
        };
        assert!(occ(200) > occ(10));
    }

    #[test]
    fn gm_variant_is_slower_than_sm() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(16, 24, 16, 9);
        let (_, sm) = batched_svd_sm(&gpu, &mats, &OneSidedConfig::default(), 128).unwrap();
        let (_, gm) = batched_svd_gm(&gpu, &mats, &OneSidedConfig::default(), 128).unwrap();
        assert!(
            gm.kernel_seconds > sm.kernel_seconds,
            "GM {} should exceed SM {}",
            gm.kernel_seconds,
            sm.kernel_seconds
        );
    }

    #[test]
    fn batched_evd_diagonalizes_batch() {
        let gpu = Gpu::new(V100);
        let mats: Vec<Matrix> = (0..6).map(|k| random_symmetric(12, k as u64)).collect();
        let (outs, _) = batched_evd_sm(&gpu, &mats, &EvdConfig::default(), 256).unwrap();
        for (b, evd) in mats.iter().zip(&outs) {
            assert!(evd.converged);
            assert!(wsvd_linalg::svd::evd_residual(b, &evd.j, &evd.lambda) < 1e-10);
        }
    }

    #[test]
    fn in_place_svd_is_bitwise_the_gathered_svd() {
        // Pair blocks held as columns `2..` of NaN-padded matrices: tall,
        // ragged (3 + 2 columns) and wide (the transposed path with its
        // completed V). Each block's rotated columns must be the gathered
        // kernel's `UΣ`, its V the gathered V, and the launch identical, bit
        // for bit, in shared and in global memory.
        let blocks = vec![
            random_uniform(20, 8, 1),
            random_uniform(9, 5, 2),
            random_uniform(6, 10, 3),
        ];
        let cfg = OneSidedConfig::default();
        for space in [MemSpace::Shared, MemSpace::Global] {
            let gathered = match space {
                MemSpace::Shared => batched_svd_sm(&Gpu::new(V100), &blocks, &cfg, 128),
                MemSpace::Global => batched_svd_gm(&Gpu::new(V100), &blocks, &cfg, 128),
            };
            let (want, want_stats) = gathered.unwrap();
            let mut wide: Vec<Matrix> = blocks
                .iter()
                .map(|a| {
                    Matrix::from_fn(a.rows(), a.cols() + 2, |i, j| match j {
                        2.. => a[(i, j - 2)],
                        _ => f64::NAN,
                    })
                })
                .collect();
            let views = wide.iter_mut().map(|w| w.cols_mut().split_off(2)).collect();
            let (vs, got_stats) =
                batched_svd_in_place(&Gpu::new(V100), views, &cfg, 128, space, None).unwrap();
            for ((w, v), svd) in wide.iter().zip(&vs).zip(&want) {
                let m = w.rows();
                let mut rotated = Matrix::zeros(m, svd.v.cols());
                svd.rotated_block_into(&mut rotated.cols_mut());
                assert_eq!(bits(&w.as_slice()[2 * m..]), bits(rotated.as_slice()));
                assert!(w.as_slice()[..2 * m].iter().all(|x| x.is_nan()));
                assert_eq!(bits(v.as_slice()), bits(svd.v.as_slice()));
            }
            let t = |s: &LaunchStats| {
                let c = &s.totals;
                (
                    s.grid,
                    [
                        c.flops,
                        c.gm_load_bytes,
                        c.gm_store_bytes,
                        c.gm_transactions,
                    ],
                    [c.span_cycles, s.kernel_seconds, s.occupancy].map(f64::to_bits),
                )
            };
            assert_eq!(t(&got_stats), t(&want_stats), "{space:?}");
        }
    }

    /// FNV-1a over the bit patterns of `xs`: a compact pin of exact values.
    fn digest<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
        xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn batched_svd_results_and_launch_stats_are_pinned() {
        // Tall and wide shapes in one ragged batch (the wide ones run the
        // transposed path with its completed V). U, Σ and V (digests of
        // their bit patterns, per matrix) and the launch statistics are
        // pinned bit for bit, in shared and in global memory: a refactor of
        // the kernel's staging or extraction must move none of them.
        let mats = vec![
            random_uniform(10, 6, 61),
            random_uniform(6, 10, 62),
            random_uniform(24, 16, 63),
            random_uniform(16, 24, 64),
        ];
        let want_factors: [[u64; 3]; 4] = [
            [0x23344fbbcfb53876, 0x720697a30950a66a, 0x8667955642950274],
            [0xf29290190adb18cb, 0x26d6780718d142cb, 0xf9f8ee62a8b0352f],
            [0xe0748da3cd6e7605, 0x5ab528ce24c4eb7a, 0x50906c804d1a6fc8],
            [0x506f045a0576160a, 0xc75806cd0b422de3, 0x5d8857d076776432],
        ];
        let want_launch = [
            (
                MemSpace::Shared,
                [475388, 7104, 11776, 590, 1742080],
                [0x40ceb80000000000, 0x3ed578502f3d6805, 0x3f6999999999999a],
            ),
            (
                MemSpace::Global,
                [475388, 1114272, 865280, 61861, 1742080],
                [0x40d1610000000000, 0x3ed87a9b34692a47, 0x3f6999999999999a],
            ),
        ];
        let cfg = OneSidedConfig::default();
        for (space, counters, times) in want_launch {
            let gpu = Gpu::new(V100);
            let (outs, stats) = match space {
                MemSpace::Shared => batched_svd_sm(&gpu, &mats, &cfg, 128),
                MemSpace::Global => batched_svd_gm(&gpu, &mats, &cfg, 128),
            }
            .unwrap();
            let factors: Vec<[u64; 3]> = outs
                .iter()
                .map(|s| {
                    [
                        digest(s.u.as_slice()),
                        digest(&s.sigma),
                        digest(s.v.as_slice()),
                    ]
                })
                .collect();
            assert_eq!(factors, want_factors, "{space:?}");
            let c = &stats.totals;
            assert_eq!(stats.grid, 4, "{space:?}");
            let got = [
                c.flops,
                c.gm_load_bytes,
                c.gm_store_bytes,
                c.gm_transactions,
                c.smem_traffic_bytes,
            ];
            assert_eq!(got, counters, "{space:?}");
            let got = [c.span_cycles, stats.kernel_seconds, stats.occupancy].map(f64::to_bits);
            assert_eq!(got, times, "{space:?}");
        }
    }

    #[test]
    fn empty_batch_is_ok() {
        let gpu = Gpu::new(V100);
        let none: &[Matrix] = &[];
        let (outs, stats) = batched_svd_sm(&gpu, none, &OneSidedConfig::default(), 128).unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats.grid, 0);
    }
}
