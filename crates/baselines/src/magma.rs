//! MAGMA-like baseline: two-stage SVD (`gesvd`).
//!
//! MAGMA's dense SVD is Householder bidiagonalization (panel-blocked, GEMM
//! rich, GM resident) followed by implicit-shift QR on the bidiagonal. The
//! numerics here are the real algorithm (`wsvd_linalg::svd_reference`); the
//! cost model charges the launches a panel-factorization pipeline would
//! issue: one panel + trailing-update launch pair per `NB` columns for the
//! bidiagonalization, then a rotation-chain phase for the QR iteration whose
//! parallelism is bounded by the vector length (rotations are applied to
//! `U`/`V` columns; the chase itself is sequential).

use wsvd_core::{check_finite, WSvd};
use wsvd_gpu_sim::{Gpu, KernelConfig, KernelError};
use wsvd_linalg::svd::Svd;
use wsvd_linalg::{svd_reference, Matrix};

/// Panel width of the blocked bidiagonalization.
const NB: usize = 32;

/// Host-side overhead per `gesvd` call (CPU/GPU hybrid synchronization).
const PER_CALL_HOST_SECONDS: f64 = 60e-6;

/// MAGMA-like single-matrix SVD: real two-stage numerics plus the cost of
/// the panel-blocked pipeline on the simulated device.
pub fn magma_gesvd(gpu: &Gpu, a: &Matrix) -> Result<WSvd, KernelError> {
    check_finite(std::slice::from_ref(a))?;
    gpu.add_host_seconds(PER_CALL_HOST_SECONDS);
    let (m, n) = a.shape();
    let (tall_m, tall_n) = if m >= n { (m, n) } else { (n, m) };

    // --- Stage 1: bidiagonalization cost ---------------------------------
    // `gebrd`-style pipeline: the panel factorization is latency-bound —
    // every column requires a norm/reflector kernel and a GEMV-shaped panel
    // update before the next column can start (two dependent launches per
    // column), then each NB-wide panel issues one GEMM-rich trailing update
    // that re-reads the trailing matrix from GM. For small matrices the
    // 2·n dependent launches dominate; for large ones the trailing GEMMs do
    // — both regimes are the ones MAGMA shows on real hardware.
    let panels = tall_n.div_ceil(NB);
    for p in 0..panels {
        let rem_rows = tall_m - (p * NB).min(tall_m.saturating_sub(1));
        let rem_cols = tall_n - p * NB;
        let cols_in_panel = NB.min(rem_cols);
        for _c in 0..cols_in_panel {
            // The column norm is read back by the host to build the
            // reflector (the classic unblocked-gebrd synchronization):
            // a dependent round-trip per column.
            gpu.add_host_seconds(15e-6);
            // Reflector build: a norm reduction plus scaling, one block.
            let kc = KernelConfig::new(1, 256, 4 * 1024, "magma_reflector");
            gpu.launch_collect(kc, |_, ctx| {
                ctx.count_gm_load(rem_rows);
                ctx.team_reduce(1, 256, rem_rows);
                ctx.serial_step(30);
                ctx.count_gm_store(rem_rows);
                Ok(())
            })?;
            // Panel GEMV update (left + right reflector application).
            let kc = KernelConfig::new(1, 256, 4 * 1024, "magma_panel_gemv");
            gpu.launch_collect(kc, |_, ctx| {
                ctx.count_gm_load(rem_rows * cols_in_panel.min(8));
                ctx.par_step(rem_rows * cols_in_panel.min(8), 4);
                ctx.count_gm_store(rem_rows * cols_in_panel.min(8));
                Ok(())
            })?;
        }
        // Trailing update: two blocked GEMMs over the trailing matrix.
        let grid = (rem_rows.div_ceil(128)).max(1);
        let kc = KernelConfig::new(grid, 256, 24 * 1024, "magma_trailing");
        gpu.launch_collect(kc, |_, ctx| {
            let rows = rem_rows.div_ceil(grid);
            ctx.count_gm_load(rows * rem_cols + rows * NB);
            ctx.par_step(rows * rem_cols, 4 * NB as u64);
            ctx.count_gm_store(rows * rem_cols);
            Ok(())
        })?;
    }

    // --- Stage 2: bidiagonal QR iteration --------------------------------
    // MAGMA runs the implicit-shift QR on the host CPU (hybrid design):
    // O(n^2) rotations on the bidiagonal plus O(n^2 m) vector updates that
    // it applies back on the GPU in grouped launches.
    gpu.add_host_seconds(2e-9 * (tall_n * tall_n) as f64);
    let qr_groups = tall_n.div_ceil(16).max(1);
    for _ in 0..qr_groups {
        let kc = KernelConfig::new(
            (tall_m.div_ceil(256)).max(1),
            256,
            8 * 1024,
            "magma_qr_apply",
        );
        gpu.launch_collect(kc, |_, ctx| {
            ctx.count_gm_load(tall_m * 32);
            ctx.par_step(tall_m * 32, 6 * (tall_n as u64).min(64));
            ctx.count_gm_store(tall_m * 32);
            Ok(())
        })?;
    }

    // --- Real numerics ---------------------------------------------------
    // The bidiagonal QR either converges or returns `Err`: an `Ok` result
    // is converged.
    let Svd { u, sigma, v } = svd_reference(a).map_err(KernelError::Other)?;
    Ok(WSvd::oriented(u, sigma, Some(v), false, true, 0, true))
}

/// MAGMA has no batched `gesvd`; batches loop serially over the single API
/// (the protocol of Fig. 9 / Fig. 14(b)).
pub fn magma_batched_svd(gpu: &Gpu, mats: &[Matrix]) -> Result<Vec<WSvd>, KernelError> {
    check_finite(mats)?;
    mats.iter().map(|a| magma_gesvd(gpu, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::{random_batch, random_uniform, with_spectrum};

    #[test]
    fn magma_values_are_exact_reference() {
        let gpu = Gpu::new(V100);
        let sigma = vec![7.0, 3.0, 1.0];
        let a = with_spectrum(12, 3, &sigma, 3);
        let out = magma_gesvd(&gpu, &a).unwrap();
        for (g, w) in out.sigma.iter().zip(&sigma) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn magma_charges_panel_launches() {
        let gpu = Gpu::new(V100);
        let a = random_uniform(128, 128, 5);
        magma_gesvd(&gpu, &a).unwrap();
        let t = gpu.timeline();
        // 4 panels x 2 launches + QR groups + host overhead.
        assert!(t.launches >= 8, "launches = {}", t.launches);
        assert!(t.seconds > PER_CALL_HOST_SECONDS);
    }

    #[test]
    fn batched_is_serial_sum() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(3, 64, 64, 7);
        magma_batched_svd(&gpu, &mats).unwrap();
        let t3 = gpu.elapsed_seconds();
        let gpu1 = Gpu::new(V100);
        magma_gesvd(&gpu1, &mats[0]).unwrap();
        let t1 = gpu1.elapsed_seconds();
        assert!(t3 > 2.5 * t1, "batched {t3} vs single {t1}");
    }

    #[test]
    fn wide_matrices_supported() {
        let gpu = Gpu::new(V100);
        let a = random_uniform(10, 40, 9);
        let out = magma_gesvd(&gpu, &a).unwrap();
        assert_eq!(out.sigma.len(), 10);
        let want = wsvd_linalg::singular_values(&a).unwrap();
        for (g, w) in out.sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10);
        }
    }
}
