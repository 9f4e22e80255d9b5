//! Accuracy and convergence experiments: Table VII, Fig. 15(a), Fig. 15(b).

use wsvd_baselines::block::{block_jacobi_svd, BlockJacobiConfig};
use wsvd_baselines::rotations_per_sweep;
use wsvd_batched::models::TailorPlan;
use wsvd_core::{wcycle_svd, Tuning, WCycleConfig};
use wsvd_datasets::named::TABLE_VII;
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_linalg::verify::spectrum_distance;
use wsvd_linalg::{singular_values, Matrix};

use crate::report::Report;
use crate::scale::Scale;

/// Smallest sweep count whose resulting spectrum is within `target` of the
/// reference (the paper's "number of sweeps, error is less than 1e-12").
fn sweeps_until(a: &Matrix, reference: &[f64], target: f64, wcycle: bool, cap: usize) -> usize {
    for k in 1..=cap {
        if error_after_sweeps(a, reference, k, wcycle) < target {
            return k;
        }
    }
    cap
}

/// Sweep counts to reach `error < 1e-12` per Table-VII matrix, cuSOLVER-like
/// (static blocked Jacobi) vs W-cycle.
pub fn tab7(scale: Scale) -> Report {
    // 0.4 keeps every stand-in large enough that the W-cycle takes the
    // block path (so both columns count block-level sweeps).
    let factor = scale.pick(0.4, 1.0);
    let mut rep = Report::new(
        "tab7",
        "Sweeps until error < 1e-12 on SuiteSparse stand-ins (Table VII)",
        &scale.note(&format!(
            "synthetic spectra at {factor} of paper dimensions"
        )),
        &[
            "matrix",
            "size",
            "cond",
            "cuSOLVER sweeps",
            "W-cycle sweeps",
        ],
        "W-cycle needs fewer sweeps; higher condition numbers delay both",
    );
    for spec in TABLE_VII {
        let a = spec.generate_scaled(factor);
        let reference = singular_values(&a).unwrap();
        // Our stand-ins have sigma_max = 1, so "error < 1e-12" is absolute.
        let cu = sweeps_until(&a, &reference, 1e-12, false, 25);
        let wc = sweeps_until(&a, &reference, 1e-12, true, 25);
        rep.push_row(vec![
            spec.name.to_string(),
            format!("{}x{}", a.rows(), a.cols()),
            format!("{:.2e}", spec.cond),
            cu.to_string(),
            wc.to_string(),
        ]);
    }
    rep
}

/// Spectrum error after `k` sweeps (forcing exactly `k` by `tol = 0`).
fn error_after_sweeps(a: &Matrix, reference: &[f64], k: usize, wcycle: bool) -> f64 {
    let gpu = Gpu::new(V100);
    let sigma = if wcycle {
        let cfg = WCycleConfig {
            max_sweeps: k,
            tol: 0.0,
            ..Default::default()
        };
        wcycle_svd(&gpu, std::slice::from_ref(a), &cfg)
            .unwrap()
            .results
            .pop()
            .unwrap()
            .sigma
    } else {
        let cfg = BlockJacobiConfig {
            max_sweeps: k,
            tol: 0.0,
            ..Default::default()
        };
        block_jacobi_svd(&gpu, std::slice::from_ref(a), &cfg)
            .unwrap()
            .results
            .pop()
            .unwrap()
            .sigma
    };
    spectrum_distance(&sigma, reference)
}

/// Fig. 15(a): singular-value error vs sweep count on `impcol_d`.
pub fn fig15a(scale: Scale) -> Report {
    let factor = scale.pick(0.15, 1.0);
    let spec = wsvd_datasets::by_name("impcol_d").unwrap();
    let a = spec.generate_scaled(factor);
    let reference = singular_values(&a).unwrap();
    let mut rep = Report::new(
        "fig15a",
        "Error vs sweeps on impcol_d (Fig. 15a)",
        &scale.note(&format!("{}x{} stand-in", a.rows(), a.cols())),
        &["sweeps", "cuSOLVER error", "W-cycle error"],
        "W-cycle reaches lower error at every sweep count",
    );
    for k in 1..=scale.pick(4, 8) {
        let cu = error_after_sweeps(&a, &reference, k, false);
        let wc = error_after_sweeps(&a, &reference, k, true);
        rep.push_row(vec![
            k.to_string(),
            format!("{cu:.3e}"),
            format!("{wc:.3e}"),
        ]);
    }
    rep
}

/// Fig. 15(b): rotations per sweep vs tile width `w_h` and height `δ_h`.
pub fn fig15b(scale: Scale) -> Report {
    let factor = scale.pick(0.15, 1.0);
    let spec = wsvd_datasets::by_name("impcol_d").unwrap();
    let a = spec.generate_scaled(factor);
    let n = a.cols();
    let mut rep = Report::new(
        "fig15b",
        "Rotations per sweep vs tile size (Fig. 15b)",
        &scale.note(&format!("{}x{} stand-in", a.rows(), a.cols())),
        &[
            "w",
            "δ",
            "rotations/sweep (analytic)",
            "rotations/sweep (measured)",
        ],
        "rotations/sweep shrink as w grows; δ does not affect convergence",
    );
    for &w in &[4usize, 8, 16] {
        for &delta in &[32usize, a.rows()] {
            let gpu = Gpu::new(V100);
            let cfg = WCycleConfig {
                tuning: Tuning::Fixed(TailorPlan::new(w, delta, 256)),
                max_sweeps: 1,
                tol: 0.0,
                ..Default::default()
            };
            let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
            let measured = out.stats.rotations_per_level.first().copied().unwrap_or(0);
            rep.push_row(vec![
                w.to_string(),
                delta.to_string(),
                rotations_per_sweep(n, w).to_string(),
                measured.to_string(),
            ]);
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab7_wcycle_needs_no_more_sweeps() {
        let rep = tab7(Scale::Reduced);
        assert_eq!(rep.rows.len(), 5);
        for row in &rep.rows {
            let cu: usize = row[3].parse().unwrap();
            let wc: usize = row[4].parse().unwrap();
            assert!(wc <= cu + 1, "W-cycle slower to converge: {row:?}");
        }
    }

    #[test]
    fn fig15a_error_decreases_with_sweeps() {
        let rep = fig15a(Scale::Reduced);
        let wc: Vec<f64> = rep.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(wc.first().unwrap() > wc.last().unwrap(), "{wc:?}");
    }

    #[test]
    fn fig15b_delta_does_not_change_rotations() {
        let rep = fig15b(Scale::Reduced);
        for pair in rep.rows.chunks(2) {
            assert_eq!(
                pair[0][3], pair[1][3],
                "δ changed the rotation count: {pair:?}"
            );
        }
    }
}
