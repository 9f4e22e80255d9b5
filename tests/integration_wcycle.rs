//! Cross-crate integration tests: the W-cycle SVD against the independent
//! two-stage reference oracle, across sizes, shapes, devices and configs.

use wcycle_svd::baselines::gesvdj_batched;
use wcycle_svd::gpu::{Gpu, ALL_DEVICES, V100};
use wcycle_svd::linalg::generate::{
    mixed_size_batch, random_batch, random_uniform, with_condition_number, with_spectrum,
};
use wcycle_svd::linalg::verify::orthonormality_error;
use wcycle_svd::linalg::{matmul, singular_values, Matrix};
use wcycle_svd::{wcycle_svd, AlphaSelect, Tuning, WCycleConfig, WSvd};

fn assert_valid_svd(a: &Matrix, r: &WSvd, tol: f64) {
    let want = singular_values(a).expect("reference SVD");
    assert_eq!(r.sigma.len(), want.len());
    for (k, (g, w)) in r.sigma.iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() < tol * (1.0 + w),
            "sigma[{k}] = {g}, reference {w}"
        );
    }
    assert!(orthonormality_error(&r.u) < 1e-8);
    if let Some(v) = &r.v {
        assert!(orthonormality_error(v) < 1e-8);
        let rank = r.sigma.len();
        let mut us = r.u.clone();
        for j in 0..rank {
            let s = r.sigma[j];
            for x in us.col_mut(j) {
                *x *= s;
            }
        }
        let vthin = Matrix::from_fn(a.cols(), rank, |i, j| v[(i, j)]);
        let rec = matmul(&us, &vthin.transpose());
        let denom = a.fro_norm().max(1e-300);
        assert!(
            rec.sub(a).fro_norm() / denom < 1e-8,
            "reconstruction failed"
        );
    }
}

#[test]
fn sizes_across_the_level0_boundary() {
    // Sweep sizes that straddle every SM-fit boundary.
    let gpu = Gpu::new(V100);
    for n in [2usize, 3, 5, 8, 17, 31, 32, 33, 48, 55, 64, 100] {
        let a = random_uniform(n, n, n as u64);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        assert_valid_svd(&a, &out.results[0], 1e-8);
    }
}

#[test]
fn extreme_aspect_ratios() {
    let gpu = Gpu::new(V100);
    for (m, n) in [
        (200usize, 3usize),
        (3, 200),
        (150, 40),
        (40, 150),
        (1, 17),
        (17, 1),
    ] {
        let a = random_uniform(m, n, (m * 1000 + n) as u64);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        assert_valid_svd(&a, &out.results[0], 1e-8);
    }
}

#[test]
fn large_mixed_batch_matches_reference() {
    let gpu = Gpu::new(V100);
    let mats = mixed_size_batch(&[(16, 16), (70, 70), (30, 90), (120, 40)], 12, 99);
    let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    for (a, r) in mats.iter().zip(&out.results) {
        assert_valid_svd(a, r, 1e-8);
    }
}

#[test]
fn ill_conditioned_inputs() {
    let gpu = Gpu::new(V100);
    for cond in [1e3, 1e8, 1e12] {
        let a = with_condition_number(80, 80, cond, 7);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        let r = &out.results[0];
        // Large singular values to high relative accuracy.
        let want = singular_values(&a).unwrap();
        for (g, w) in r.sigma.iter().zip(&want).take(40) {
            assert!((g - w).abs() / w < 1e-8, "{g} vs {w} at cond {cond}");
        }
    }
}

#[test]
fn every_device_produces_identical_numerics() {
    // The device changes the cost model, never the arithmetic.
    let mats = random_batch(3, 60, 60, 5);
    let mut spectra: Vec<Vec<f64>> = Vec::new();
    for device in ALL_DEVICES {
        let gpu = Gpu::new(device);
        let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        spectra.push(out.results[0].sigma.clone());
        assert!(
            gpu.elapsed_seconds() > 0.0,
            "{}: no time recorded",
            device.name
        );
    }
    for s in &spectra[1..] {
        for (a, b) in s.iter().zip(&spectra[0]) {
            // Vega20's 64 KiB LDS changes the level classification, which
            // changes rotation order — values agree to working accuracy.
            assert!((a - b).abs() < 1e-9 * (1.0 + b), "{a} vs {b}");
        }
    }
}

#[test]
fn config_matrix_all_converge() {
    let a = random_uniform(90, 90, 13);
    let configs = vec![
        WCycleConfig::default(),
        WCycleConfig {
            tailor_gemm: false,
            ..Default::default()
        },
        WCycleConfig {
            cache_norms: false,
            ..Default::default()
        },
        WCycleConfig {
            want_v: false,
            ..Default::default()
        },
        WCycleConfig {
            alpha: AlphaSelect::Fixed(4),
            ..Default::default()
        },
        WCycleConfig {
            alpha: AlphaSelect::Fixed(32),
            ..Default::default()
        },
        WCycleConfig {
            tuning: Tuning::Widths(vec![8]),
            ..Default::default()
        },
        WCycleConfig {
            tuning: Tuning::Widths(vec![45, 16]),
            ..Default::default()
        },
        WCycleConfig {
            ordering: wcycle_svd::jacobi::Ordering::OddEven,
            ..Default::default()
        },
    ];
    let want = singular_values(&a).unwrap();
    for (k, cfg) in configs.iter().enumerate() {
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), cfg).unwrap();
        for (g, w) in out.results[0].sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-7 * (1.0 + w), "config {k}: {g} vs {w}");
        }
    }
}

#[test]
fn spectrum_with_clusters_and_zeros() {
    // Clustered and repeated singular values are the classic Jacobi stress.
    let gpu = Gpu::new(V100);
    let mut sigma = vec![5.0; 20];
    sigma.extend(vec![5.0 - 1e-9; 10]);
    sigma.extend(vec![1e-3; 20]);
    sigma.extend(vec![0.0; 14]);
    let a = with_spectrum(80, 64, &sigma, 21);
    let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
    let got = &out.results[0].sigma;
    for (g, w) in got.iter().zip(&sigma) {
        assert!((g - w).abs() < 1e-8, "{g} vs {w}");
    }
}

#[test]
fn empty_batch_and_tiny_matrices() {
    let gpu = Gpu::new(V100);
    let out = wcycle_svd(&gpu, &[], &WCycleConfig::default()).unwrap();
    assert!(out.results.is_empty());

    let a = Matrix::from_rows(1, 1, &[-2.5]);
    let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
    assert!((out.results[0].sigma[0] - 2.5).abs() < 1e-15);
}

#[test]
fn deterministic_across_runs() {
    let mats = random_batch(4, 72, 72, 31);
    let run = || {
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        (
            out.results
                .iter()
                .map(|r| r.sigma.clone())
                .collect::<Vec<_>>(),
            gpu.elapsed_seconds(),
        )
    };
    let (s1, t1) = run();
    let (s2, t2) = run();
    assert_eq!(s1, s2, "numerics must be bit-identical");
    assert_eq!(t1, t2, "simulated time must be deterministic");
}

#[test]
fn overflow_to_nan_is_not_converged() {
    // Scaled by 1e300 the multilevel route overflows and its columns turn
    // NaN. The sweep-boundary test must fail on them: the call uses its
    // whole sweep budget and reports that it did not converge.
    let gpu = Gpu::new(V100);
    let overflowed = |n| {
        let mut a = random_uniform(n, n, 3);
        a.as_mut_slice().iter_mut().for_each(|x| *x *= 1e300);
        a
    };
    let cfg = WCycleConfig::default();
    let a = overflowed(64);
    let wc = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
    let r = &wc.results[0];
    assert!(r.sigma.iter().any(|s| s.is_nan()), "the input overflows");
    assert_eq!((r.sweeps, r.converged), (cfg.max_sweeps, false));
    // At 32x32 the level-0 kernel's Frobenius norm overflows instead, so
    // deflation drops every column and one sweep returns σ = inf: the
    // non-finite σ alone says the result is not converged, on both engines
    // that decompose a matrix whole.
    let a = overflowed(32);
    let wc = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
    let gj = gesvdj_batched(&gpu, std::slice::from_ref(&a)).unwrap();
    for (engine, r) in [("wcycle_svd", &wc.results[0]), ("gesvdj_batched", &gj[0])] {
        assert!(r.sigma.iter().any(|s| s.is_infinite()), "{engine}");
        assert!(!r.converged, "{engine}: sweeps {}", r.sweeps);
    }
}
