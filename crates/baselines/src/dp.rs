//! The state-of-the-art batched methods of ref. \[19\] (Boukaram et al.,
//! *Batched QR and SVD algorithms on GPUs*): `Batched_DP_Direct` and
//! `Batched_DP_Gram` — uniform-width block Jacobi with a static
//! "one-size-fits-all" configuration (the Table-IV comparators).

use wsvd_core::WSvd;
use wsvd_gpu_sim::{Gpu, KernelError};
use wsvd_linalg::Matrix;

use crate::block::{block_jacobi_svd, BlockJacobiConfig, Kernels, RotationSource};

/// The static block width both methods use (chosen so the Gram matrix of a
/// pair block fits in shared memory on every supported size).
pub const DP_BLOCK_W: usize = 16;

/// Ref. \[19\] predates the W-cycle's kernel optimizations, so both methods
/// run the pre-W-cycle kernel generation.
fn dp(gpu: &Gpu, mats: &[Matrix], rotation: RotationSource) -> Result<Vec<WSvd>, KernelError> {
    let cfg = BlockJacobiConfig {
        w: DP_BLOCK_W,
        rotation,
        kernels: Kernels::PreWCycle,
        ..Default::default()
    };
    Ok(block_jacobi_svd(gpu, mats, &cfg)?.results)
}

/// `Batched_DP_Direct`: rotations from direct SVDs of the pair blocks
/// (register/SM resident when they fit, global memory otherwise).
pub fn batched_dp_direct(gpu: &Gpu, mats: &[Matrix]) -> Result<Vec<WSvd>, KernelError> {
    dp(gpu, mats, RotationSource::DirectSvd)
}

/// `Batched_DP_Gram`: rotations from EVDs of the pair blocks' Gram matrices.
pub fn batched_dp_gram(gpu: &Gpu, mats: &[Matrix]) -> Result<Vec<WSvd>, KernelError> {
    dp(gpu, mats, RotationSource::GramEvd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::random_batch;
    use wsvd_linalg::singular_values;

    #[test]
    fn both_variants_compute_correct_values() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(2, 64, 64, 1);
        for outs in [
            batched_dp_direct(&gpu, &mats).unwrap(),
            batched_dp_gram(&gpu, &mats).unwrap(),
        ] {
            for (a, o) in mats.iter().zip(&outs) {
                let want = singular_values(a).unwrap();
                for (g, w) in o.sigma.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-8 * (1.0 + w));
                }
            }
        }
    }

    #[test]
    fn gram_beats_direct_on_large_matrices() {
        // Table IV: for 512-size matrices Gram wins over Direct (the direct
        // route falls into the GM kernel); at our scaled-down size the same
        // ordering must hold.
        let mats = random_batch(2, 256, 256, 3);
        let gpu_d = Gpu::new(V100);
        batched_dp_direct(&gpu_d, &mats).unwrap();
        let gpu_g = Gpu::new(V100);
        batched_dp_gram(&gpu_g, &mats).unwrap();
        assert!(
            gpu_g.elapsed_seconds() < gpu_d.elapsed_seconds(),
            "gram {} !< direct {}",
            gpu_g.elapsed_seconds(),
            gpu_d.elapsed_seconds()
        );
    }
}
