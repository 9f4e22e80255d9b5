//! Cross-engine validation: every solver in the workspace (W-cycle, the
//! block-Jacobi baselines, cuSOLVER-like, MAGMA-like) must agree with the
//! two-stage reference oracle on the same batch.

use wcycle_svd::baselines::{
    batched_dp_direct, batched_dp_gram, block_jacobi_svd, cusolver_batched_svd, gesvdj,
    gesvdj_batched, gesvdj_serial_batch, magma_batched_svd, magma_gesvd, BlockJacobiConfig,
    RotationSource,
};
use wcycle_svd::gpu::{Gpu, KernelError, V100};
use wcycle_svd::linalg::generate::{random_batch, random_uniform};
use wcycle_svd::linalg::{matmul, singular_values, Matrix};
use wcycle_svd::{wcycle_svd, WCycleConfig, WSvd};

fn assert_close(got: &[f64], want: &[f64], tol: f64, engine: &str) {
    assert_eq!(got.len(), want.len(), "{engine}: wrong count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() < tol * (1.0 + w),
            "{engine}: sigma[{k}] {g} vs {w}"
        );
    }
}

#[test]
fn all_engines_agree_on_one_batch() {
    let gpu = Gpu::new(V100);
    let mats = random_batch(3, 56, 56, 2024);
    let refs: Vec<Vec<f64>> = mats.iter().map(|a| singular_values(a).unwrap()).collect();

    let wc = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    for (r, want) in wc.results.iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "wcycle");
    }
    for (r, want) in batched_dp_direct(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "dp_direct");
    }
    for (r, want) in batched_dp_gram(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "dp_gram");
    }
    for (r, want) in cusolver_batched_svd(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "cusolver");
    }
    for (r, want) in magma_batched_svd(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-10, "magma");
    }
}

#[test]
fn simulated_time_ordering_is_paper_consistent() {
    // The headline of the whole evaluation, in one assertion: for a batch of
    // mid-sized matrices, W-cycle < MAGMA < cuSOLVER-serial in simulated time.
    let mats = random_batch(8, 72, 72, 777);
    let time = |f: &dyn Fn(&Gpu)| {
        let gpu = Gpu::new(V100);
        f(&gpu);
        gpu.elapsed_seconds()
    };
    let wc = time(&|g| {
        wcycle_svd(g, &mats, &WCycleConfig::default()).unwrap();
    });
    let mg = time(&|g| {
        magma_batched_svd(g, &mats).unwrap();
    });
    let cu = time(&|g| {
        cusolver_batched_svd(g, &mats).unwrap();
    });
    assert!(wc < mg, "W-cycle ({wc}) must beat MAGMA ({mg})");
    assert!(
        mg < cu,
        "MAGMA ({mg}) must beat the serial cuSOLVER loop ({cu})"
    );
}

#[test]
fn engines_handle_rectangular_batches() {
    let gpu = Gpu::new(V100);
    let mats = vec![
        wcycle_svd::linalg::generate::random_uniform(60, 20, 1),
        wcycle_svd::linalg::generate::random_uniform(20, 60, 2),
    ];
    let refs: Vec<Vec<f64>> = mats.iter().map(|a| singular_values(a).unwrap()).collect();
    let wc = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    for (r, want) in wc.results.iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "wcycle-rect");
    }
    for (r, want) in batched_dp_gram(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-8, "dp_gram-rect");
    }
    for (r, want) in magma_batched_svd(&gpu, &mats).unwrap().iter().zip(&refs) {
        assert_close(&r.sigma, want, 1e-10, "magma-rect");
    }
}

#[test]
fn every_entry_rejects_non_finite_input() {
    fn rejected<T>(got: Result<T, KernelError>, k: usize, entry: &str) {
        match got {
            Ok(_) => panic!("{entry}: non-finite input returned Ok"),
            Err(e) => assert!(
                e.to_string()
                    .contains(&format!("matrix {k} contains non-finite")),
                "{entry}: {e}"
            ),
        }
    }
    let gpu = Gpu::new(V100);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let poisoned = |n: usize| {
            let mut a = random_uniform(n, n, 5);
            a[(3, 7)] = bad;
            a
        };
        // Batch entries name the poisoned matrix by its batch index.
        let big = vec![random_uniform(64, 64, 4), poisoned(64)];
        let small = vec![random_uniform(24, 24, 4), poisoned(24)];
        rejected(batched_dp_direct(&gpu, &big), 1, "dp_direct");
        rejected(batched_dp_gram(&gpu, &big), 1, "dp_gram");
        let cfg = BlockJacobiConfig::default();
        rejected(block_jacobi_svd(&gpu, &big, &cfg), 1, "block_jacobi");
        rejected(gesvdj_batched(&gpu, &small), 1, "gesvdj_batched");
        rejected(gesvdj_serial_batch(&gpu, &big), 1, "gesvdj_serial");
        rejected(cusolver_batched_svd(&gpu, &big), 1, "cusolver");
        rejected(magma_batched_svd(&gpu, &big), 1, "magma_batched");
        rejected(
            wcycle_svd(&gpu, &big, &WCycleConfig::default()),
            1,
            "wcycle",
        );
        rejected(gesvdj(&gpu, &big[1]), 0, "gesvdj");
        rejected(magma_gesvd(&gpu, &big[1]), 0, "magma_gesvd");
    }
}

#[test]
fn wide_inputs_return_the_factors_of_a() {
    let gpu = Gpu::new(V100);
    let a = random_uniform(40, 72, 11);
    let one = |r: Result<Vec<WSvd>, KernelError>| r.unwrap().pop().unwrap();
    for (engine, r) in [
        (
            "dp_direct",
            one(batched_dp_direct(&gpu, std::slice::from_ref(&a))),
        ),
        (
            "dp_gram",
            one(batched_dp_gram(&gpu, std::slice::from_ref(&a))),
        ),
        ("gesvdj", gesvdj(&gpu, &a).unwrap()),
    ] {
        assert_eq!(r.u.shape(), (40, 40), "{engine}: U");
        let v = r.v.as_ref().expect("V is returned");
        assert_eq!(v.shape(), (72, 40), "{engine}: V");
        let mut us = r.u.clone();
        for (j, &s) in r.sigma.iter().enumerate() {
            us.col_mut(j).iter_mut().for_each(|x| *x *= s);
        }
        let residual = matmul(&us, &v.transpose()).sub(&a).fro_norm() / a.fro_norm();
        assert!(residual < 1e-10, "{engine}: residual {residual}");
    }
}

#[test]
fn batched_api_returns_a_thin_v_for_wide_inputs() {
    // `WSvd::v` is thin `n x r` for a wide input, on the batched API as on
    // every other engine; the kernel's square completion stays internal.
    let gpu = Gpu::new(V100);
    let a = random_uniform(16, 24, 12);
    let one = |r: Result<Vec<WSvd>, KernelError>| r.unwrap().pop().unwrap();
    for (engine, r) in [
        (
            "gesvdj_batched",
            one(gesvdj_batched(&gpu, std::slice::from_ref(&a))),
        ),
        (
            "cusolver_batched_svd",
            one(cusolver_batched_svd(&gpu, std::slice::from_ref(&a))),
        ),
    ] {
        assert_eq!(r.u.shape(), (16, 16), "{engine}: U");
        assert_eq!(r.sigma.len(), 16, "{engine}: sigma");
        let v = r.v.as_ref().expect("V is returned");
        assert_eq!(v.shape(), (24, 16), "{engine}: V");
        let mut us = r.u.clone();
        for (j, &s) in r.sigma.iter().enumerate() {
            us.col_mut(j).iter_mut().for_each(|x| *x *= s);
        }
        let residual = matmul(&us, &v.transpose()).sub(&a).fro_norm() / a.fro_norm();
        assert!(residual < 1e-10, "{engine}: residual {residual}");
    }
}

/// Level-0 and multilevel matrices, tall and wide: two of at most 32x32
/// (level 0, and the batched API's range) and two that descend the W-cycle.
fn mixed_batch() -> Vec<Matrix> {
    vec![
        random_uniform(24, 24, 31),
        random_uniform(16, 30, 32),
        random_uniform(96, 96, 33),
        random_uniform(64, 110, 34),
    ]
}

fn block_cfg(rotation: RotationSource) -> BlockJacobiConfig {
    BlockJacobiConfig {
        rotation,
        ..Default::default()
    }
}

#[test]
fn every_engine_reports_converged_on_a_clean_batch() {
    let gpu = Gpu::new(V100);
    let mats = mixed_batch();
    let all_converged = |engine: &str, rs: &[WSvd]| {
        for (k, r) in rs.iter().enumerate() {
            assert!(
                r.converged,
                "{engine}: matrix {k} after {} sweeps",
                r.sweeps
            );
        }
    };
    let wc = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    assert_eq!(wc.stats.level0_sm_svds, 2, "two matrices stay at level 0");
    assert!(wc.stats.max_level >= 1, "two matrices descend");
    all_converged("wcycle", &wc.results);
    for rotation in [RotationSource::DirectSvd, RotationSource::GramEvd] {
        let out = block_jacobi_svd(&gpu, &mats, &block_cfg(rotation)).unwrap();
        all_converged(&format!("block_jacobi {rotation:?}"), &out.results);
    }
    all_converged("gesvdj_batched", &gesvdj_batched(&gpu, &mats[..2]).unwrap());
    all_converged("magma", &magma_batched_svd(&gpu, &mats).unwrap());
}

#[test]
fn sweep_cap_reports_not_converged() {
    let gpu = Gpu::new(V100);
    let a = random_uniform(96, 96, 33);
    let cfg = WCycleConfig {
        max_sweeps: 2,
        ..WCycleConfig::default()
    };
    let wc = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
    assert_eq!(wc.stats.level0_sm_svds, 0, "the multilevel path");
    let r = &wc.results[0];
    assert_eq!((r.sweeps, r.converged), (2, false), "wcycle");
    for rotation in [RotationSource::DirectSvd, RotationSource::GramEvd] {
        let cfg = BlockJacobiConfig {
            max_sweeps: 1,
            ..block_cfg(rotation)
        };
        let out = block_jacobi_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        let r = &out.results[0];
        assert_eq!((r.sweeps, r.converged), (1, false), "{rotation:?}");
    }
}
