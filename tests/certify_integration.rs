//! Integration tests for wsvd-analyze's ahead-of-time plan certification:
//!
//! * property: every plan the auto-tuner can select for a random size
//!   multiset holds a certificate, and the runtime consultation accepts it
//!   (zero false rejections over the reachable plan space);
//! * agreement: with a store installed, runs are bit-identical with
//!   the sanitizer on and off, and a certified plan never trips the runtime
//!   sanitizer on the fig7/fig9 shapes;
//! * enforcement: an uncertified plan family is a hard error before any
//!   kernel launches.
//!
//! This file owns the process-global certificate store: every test that
//! simulates work goes through [`require_certification`], which installs it
//! under [`GATE`], so installation never races a test expecting none.

use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use wcycle_svd::batched::autotune::{auto_tune_with_w_cap, V100_TLP_THRESHOLD};
use wcycle_svd::batched::models::TailorPlan;
use wcycle_svd::core::certify::{self, CertificateStore};
use wcycle_svd::gpu::{Gpu, SanitizeMode, ALL_DEVICES, V100};
use wcycle_svd::jacobi::ordering::Ordering;
use wcycle_svd::linalg::generate::random_batch;
use wcycle_svd::{wcycle_svd, Tuning, WCycleConfig};
use wsvd_analyze::plan_space::{certify_all_devices, DEFAULT_MAX_BLOCKS};

fn store() -> &'static Arc<CertificateStore> {
    static STORE: OnceLock<Arc<CertificateStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Arc::new(certify_all_devices(DEFAULT_MAX_BLOCKS).expect("plan space certifies"))
    })
}

/// Held while installing the store, and by the test that needs it absent.
static GATE: Mutex<()> = Mutex::new(());

/// Installs the store, which makes certification required (once).
fn require_certification() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    certify::install_store(store().clone());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Zero false rejections: whatever multiset of sizes the workload
    /// throws at the tuner, under any threshold regime, the selected plan
    /// is certified on every device and the level check accepts it.
    #[test]
    fn every_autotuned_plan_is_certified(
        sizes in prop::collection::vec((1usize..=200, 1usize..=200), 1..8),
        threshold_sel in 0usize..3,
    ) {
        let threshold = [0.0, V100_TLP_THRESHOLD, f64::INFINITY][threshold_sel];
        let plan: TailorPlan = auto_tune_with_w_cap(&sizes, threshold, 48);
        for device in &ALL_DEVICES {
            let cert = store().lookup(device.name, plan.w, plan.threads);
            prop_assert!(
                cert.is_some(),
                "plan (w={}, T={}) uncertified on {}",
                plan.w, plan.threads, device.name
            );
            let checked = certify::check_level_with(
                store(), device, &plan, &sizes, Ordering::RoundRobin,
            );
            prop_assert!(
                checked.is_ok(),
                "false rejection on {}: {}",
                device.name,
                checked.unwrap_err()
            );
        }
    }
}

/// Certified runs agree with the sanitizer: on the fig7 and fig9 shapes,
/// simulated time and singular values are bit-identical with hazard
/// checking on and off, and the sanitizer stays clean — a certified plan
/// never trips a runtime check.
#[test]
fn certified_runs_agree_with_sanitizer() {
    require_certification();
    let shapes: &[(usize, usize, usize)] = &[
        // fig7 shapes (m, n, batch).
        (8, 32, 6),
        (32, 32, 6),
        (32, 8, 6),
        // fig9 squares.
        (64, 64, 3),
        (128, 128, 2),
    ];
    for &(m, n, batch) in shapes {
        let mats = random_batch(batch, m, n, (m * 1000 + n) as u64);
        let cfg = WCycleConfig::default();

        let plain = Gpu::new(V100);
        let a = wcycle_svd(&plain, &mats, &cfg).unwrap();

        let sanitized = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let b = wcycle_svd(&sanitized, &mats, &cfg).unwrap();

        assert_eq!(
            plain.elapsed_seconds().to_bits(),
            sanitized.elapsed_seconds().to_bits(),
            "{m}x{n}: simulated time must be bit-identical"
        );
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.sigma.len(), rb.sigma.len());
            for (sa, sb) in ra.sigma.iter().zip(&rb.sigma) {
                assert_eq!(
                    sa.to_bits(),
                    sb.to_bits(),
                    "{m}x{n}: sigma must be bit-identical"
                );
            }
        }
        let rep = sanitized.sanitizer_report();
        assert!(
            rep.is_clean(),
            "{m}x{n}: certified plan tripped the sanitizer: {:?}",
            rep.violations
        );
    }
}

/// Enforcement: a plan family outside the certified space (64 threads per
/// block is in no tier) is a hard error before any kernel launches.
#[test]
fn uncertified_plan_is_a_hard_error_before_launch() {
    require_certification();
    let gpu = Gpu::new(V100);
    let mats = random_batch(2, 64, 64, 7);
    let cfg = WCycleConfig {
        tuning: Tuning::Fixed(TailorPlan::new(16, 32, 64)),
        ..WCycleConfig::default()
    };
    let err = wcycle_svd(&gpu, &mats, &cfg).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("uncertified plan") && msg.contains("not certified"),
        "expected a certification error, got: {msg}"
    );
    // Nothing launched: the error fired at plan-selection time.
    assert_eq!(
        gpu.elapsed_seconds(),
        0.0,
        "uncertified plan must be rejected before any launch"
    );
}

/// Certification is opt-in: until a store is installed, nothing consults
/// one, so even a plan family outside the certified space runs. (Every
/// other integration suite exercises the W-cycle this way too; pin it here,
/// where the store may already be installed by another test, in which case
/// there is nothing left to check.)
#[test]
fn certification_is_opt_in() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    if certify::store().is_some() {
        return;
    }
    let gpu = Gpu::new(V100);
    let cfg = WCycleConfig {
        tuning: Tuning::Fixed(TailorPlan::new(16, 32, 64)),
        ..WCycleConfig::default()
    };
    wcycle_svd(&gpu, &random_batch(2, 64, 64, 7), &cfg).expect("uncertified plan runs");
}
