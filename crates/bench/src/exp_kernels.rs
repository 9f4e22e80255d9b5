//! Kernel-level experiments: Fig. 1, Fig. 2, Fig. 10(a), Fig. 10(b).

use wsvd_baselines::block::{block_jacobi_svd, BlockJacobiConfig, RotationSource};
use wsvd_baselines::rotations_per_sweep;
use wsvd_batched::gemm::{batched_gram, batched_update, GemmStrategy};
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_jacobi::batch::{batched_evd_sm, batched_svd_gm, batched_svd_sm};
use wsvd_jacobi::evd::{EvdConfig, EvdVariant};
use wsvd_jacobi::fits::{evd_fits_in_sm, svd_fits_in_sm};
use wsvd_jacobi::onesided::OneSidedConfig;
use wsvd_linalg::generate::{random_batch, random_symmetric};

use crate::report::{fmt_secs, fmt_speedup, Report};
use crate::scale::Scale;

/// Fig. 1: time of one-sided Jacobi rotation generation in different cases —
/// SVD of `A_ij` in SM vs EVD of `B_ij` in SM vs SVD of `A_ij` in GM.
pub fn fig1(scale: Scale) -> Report {
    // 192 rows keeps the 2w = 24 column pair inside the SM SVD footprint at
    // reduced scale, so three of the four rows exercise all three kernels.
    let m = scale.pick(192, 1024);
    let batch = scale.pick(16, 64);
    let mut rep = Report::new(
        "fig1",
        "Time of one-sided Jacobi methods in different cases (Fig. 1)",
        &scale.note(format!("pair blocks {m} rows, batch {batch}").as_str()),
        &["pair width 2w", "SVD in SM", "EVD(B) in SM", "SVD in GM"],
        "SVD-in-SM < EVD-in-SM < SVD-in-GM wherever SVD fits in SM",
    );
    for &w in &[4usize, 8, 12, 16] {
        let nn = 2 * w;
        let blocks = random_batch(batch, m, nn, 42 + w as u64);
        let smem = V100.smem_per_block_bytes;

        let svd_sm = if svd_fits_in_sm(m, nn, smem) {
            let gpu = Gpu::new(V100);
            batched_svd_sm(&gpu, &blocks, &OneSidedConfig::default(), 256).unwrap();
            Some(gpu.elapsed_seconds())
        } else {
            None
        };
        let evd_sm = {
            let gpu = Gpu::new(V100);
            let strat = GemmStrategy::OneBlockPerGemm { threads: 256 };
            let (grams, _) = batched_gram(&gpu, &blocks, strat).unwrap();
            let (evds, _) = batched_evd_sm(&gpu, &grams, &EvdConfig::default(), 256).unwrap();
            let js: Vec<_> = evds.into_iter().map(|e| e.j).collect();
            let mut b = blocks.clone();
            batched_update(&gpu, &mut b, &js, strat).unwrap();
            gpu.elapsed_seconds()
        };
        let svd_gm = {
            let gpu = Gpu::new(V100);
            batched_svd_gm(&gpu, &blocks, &OneSidedConfig::default(), 256).unwrap();
            gpu.elapsed_seconds()
        };
        rep.push_row(vec![
            nn.to_string(),
            svd_sm.map(fmt_secs).unwrap_or_else(|| "overflow".into()),
            fmt_secs(evd_sm),
            fmt_secs(svd_gm),
        ]);
    }
    rep
}

/// Fig. 2: block Jacobi of a batch vs the block width `w` — rotations per
/// sweep shrink as `w` grows, but beyond the SM boundary (w > 24) the pair
/// blocks fall out of shared memory and time blows up.
pub fn fig2(scale: Scale) -> Report {
    let n = scale.dim(1536, 4, 256);
    let batch = scale.dim(100, 10, 4);
    let mut rep = Report::new(
        "fig2",
        "One-sided Jacobi vs column-block width w (Fig. 2)",
        &scale.note(&format!(
            "{batch} matrices of {n}x{n} (paper: 100 of 1536x1536)"
        )),
        &["w", "rotations/sweep", "sweeps", "time", "in SM?"],
        "rotations/sweep decreases with w; time jumps once w > 24 (SM overflow)",
    );
    let mats = random_batch(batch, n, n, 7);
    for &w in &[4usize, 8, 16, 24, 32, 48] {
        let gpu = Gpu::new(V100);
        // Rotations resolve in SM while the 2w x 2w Gram EVD fits (w <= 24);
        // beyond that only the GM-resident direct SVD remains — the blow-up
        // Fig. 2 shows past the SM boundary.
        let rotation = if evd_fits_in_sm(2 * w, V100.smem_per_block_bytes) {
            RotationSource::GramEvd
        } else {
            RotationSource::DirectSvd
        };
        let cfg = BlockJacobiConfig {
            w,
            rotation,
            max_sweeps: 30,
            ..Default::default()
        };
        let out = block_jacobi_svd(&gpu, &mats, &cfg).unwrap();
        let sweeps = out.results.iter().map(|o| o.sweeps).max().unwrap_or(0);
        let fits = svd_fits_in_sm(n, 2 * w, V100.smem_per_block_bytes)
            || evd_fits_in_sm(2 * w, V100.smem_per_block_bytes);
        rep.push_row(vec![
            w.to_string(),
            rotations_per_sweep(n, w).to_string(),
            sweeps.to_string(),
            fmt_secs(gpu.elapsed_seconds()),
            if fits { "yes" } else { "no" }.to_string(),
        ]);
    }
    rep
}

/// Fig. 10(a): α-warp column-pair teams vs the usual one-full-warp-per-pair
/// assignment, batched SVD kernel on 32x32 matrices.
pub fn fig10a(scale: Scale) -> Report {
    let mut rep = Report::new(
        "fig10a",
        "α-warp vs one-warp column-rotation assignment (Fig. 10a)",
        &scale.note("32x32 matrices"),
        &["batch", "one warp/pair", "α-warp (GCF)", "speedup"],
        "α-warp teams win while the kernel is span-bound; at full occupancy both saturate FP64 throughput",
    );
    let batches: &[usize] = scale.pick(&[10usize, 50, 100, 200][..], &[10, 100, 300, 500][..]);
    for &batch in batches {
        let mats = random_batch(batch, 32, 32, 13);
        // Fixed sweep count: this is a kernel-cost comparison, as in the
        // paper's Fig. 10 (both assignments perform identical rotations).
        let run = |tpp: usize| {
            let gpu = Gpu::new(V100);
            let cfg = OneSidedConfig {
                threads_per_pair: tpp,
                max_sweeps: 8,
                tol: 0.0,
                ..Default::default()
            };
            batched_svd_sm(&gpu, &mats, &cfg, 128).unwrap();
            gpu.elapsed_seconds()
        };
        let one_warp = run(32);
        let alpha = run(wsvd_batched::alpha_gcf(32).min(16)); // α < 1 teams
        rep.push_row(vec![
            batch.to_string(),
            fmt_secs(one_warp),
            fmt_secs(alpha),
            fmt_speedup(one_warp, alpha),
        ]);
    }
    rep
}

/// Fig. 10(b): the parallel two-sided Jacobi EVD kernel vs the sequential
/// textbook implementation, batched 32x32 EVDs.
pub fn fig10b(scale: Scale) -> Report {
    let mut rep = Report::new(
        "fig10b",
        "Parallel vs sequential two-sided Jacobi EVD (Fig. 10b)",
        &scale.note("32x32 symmetric matrices"),
        &["batch", "sequential", "parallel", "speedup"],
        "parallel all-element update is ~6x faster (paper: >6x at 32x32)",
    );
    let batches: &[usize] = scale.pick(&[10usize, 50, 100][..], &[10, 100, 500][..]);
    for &batch in batches {
        let mats: Vec<_> = (0..batch)
            .map(|k| random_symmetric(32, 100 + k as u64))
            .collect();
        // Fixed sweep count: kernel-cost comparison (the sequential variant
        // would otherwise converge in fewer, far more expensive sweeps).
        let run = |variant: EvdVariant| {
            let gpu = Gpu::new(V100);
            let cfg = EvdConfig {
                variant,
                max_sweeps: 6,
                tol: 0.0,
            };
            batched_evd_sm(&gpu, &mats, &cfg, 256).unwrap();
            gpu.elapsed_seconds()
        };
        let seq = run(EvdVariant::Sequential);
        let par = run(EvdVariant::Parallel);
        rep.push_row(vec![
            batch.to_string(),
            fmt_secs(seq),
            fmt_secs(par),
            fmt_speedup(seq, par),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(cell: &str) -> f64 {
        // parse "x.xxx s|ms|us"
        let mut it = cell.split_whitespace();
        let v: f64 = it.next().unwrap().parse().unwrap();
        match it.next().unwrap() {
            "s" => v,
            "ms" => v * 1e-3,
            _ => v * 1e-6,
        }
    }

    #[test]
    fn fig1_sm_faster_than_gm() {
        let rep = fig1(Scale::Reduced);
        assert_eq!(rep.rows.len(), 4);
        for row in &rep.rows {
            if row[1] != "overflow" {
                assert!(secs(&row[1]) < secs(&row[3]), "SM !< GM in {row:?}");
            }
        }
    }

    #[test]
    fn fig2_rotations_decrease_with_w() {
        let rep = fig2(Scale::Reduced);
        let rots: Vec<u64> = rep.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(rots.windows(2).all(|w| w[0] >= w[1]), "{rots:?}");
        // SM boundary: w = 32, 48 are out.
        assert_eq!(rep.rows[4][4], "no");
        assert_eq!(rep.rows[1][4], "yes");
    }

    #[test]
    fn fig10b_parallel_wins() {
        let rep = fig10b(Scale::Reduced);
        for row in &rep.rows {
            let s: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(s > 2.0, "speedup too small: {row:?}");
        }
    }
}
