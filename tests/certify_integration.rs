//! Integration tests for wsvd-analyze's ahead-of-time plan certification:
//!
//! * property: every plan the auto-tuner can select for a random size
//!   multiset holds a certificate, and the level check accepts it (zero
//!   false rejections over the reachable plan space);
//! * agreement: the plans a real W-cycle selects on the fig7/fig9 shapes
//!   are certified, and those runs are clean and bit-identical with the
//!   run-time sanitizer on and off.

use std::sync::OnceLock;

use proptest::prelude::*;

use wcycle_svd::batched::autotune::{auto_tune_with_w_cap, V100_TLP_THRESHOLD};
use wcycle_svd::batched::models::TailorPlan;
use wcycle_svd::gpu::{Gpu, SanitizeMode, ALL_DEVICES, V100};
use wcycle_svd::jacobi::ordering::Ordering;
use wcycle_svd::linalg::generate::random_batch;
use wcycle_svd::{wcycle_svd, WCycleConfig};
use wsvd_analyze::certify::{check_level_with, CertificateStore};
use wsvd_analyze::plan_space::{certify_all_devices, DEFAULT_MAX_BLOCKS};
use wsvd_trace::{ArgValue, TraceSink};

fn store() -> &'static CertificateStore {
    static STORE: OnceLock<CertificateStore> = OnceLock::new();
    STORE.get_or_init(|| certify_all_devices(DEFAULT_MAX_BLOCKS).expect("plan space certifies"))
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
            let checked = check_level_with(
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

/// The `u64` argument `key` of a trace event, if it has one.
fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(u) if *k == key => Some(*u),
        _ => None,
    })
}

/// Certified runs agree with the sanitizer: on the fig7 and fig9 shapes,
/// every block-Jacobi plan the W-cycle selects (read from its `autotune`
/// trace instants; the fig9 squares recurse, so there are some) holds a
/// certificate, simulated time and singular values are
/// bit-identical with hazard checking on and off, and the sanitizer stays
/// clean -- a certified plan never trips a run-time check.
#[test]
fn certified_runs_agree_with_sanitizer() {
    let shapes: &[(usize, usize, usize)] = &[
        // fig7 shapes (m, n, batch).
        (8, 32, 6),
        (32, 32, 6),
        (32, 8, 6),
        // fig9 squares.
        (64, 64, 3),
        (128, 128, 2),
    ];
    let mut plans_checked = 0;
    for &(m, n, batch) in shapes {
        let mats = random_batch(batch, m, n, (m * 1000 + n) as u64);
        let cfg = WCycleConfig::default();

        let sink = TraceSink::enabled();
        let plain = Gpu::with_trace(V100, sink.clone());
        let a = wcycle_svd(&plain, &mats, &cfg).unwrap();

        // Level-0 instants pick threads per pair and carry no `w`.
        let plans: Vec<(u64, u64)> = sink
            .events()
            .iter()
            .filter(|e| e.track == "autotune" && e.name == "plan")
            .filter_map(|e| Some((arg_u64(&e.args, "w")?, arg_u64(&e.args, "threads")?)))
            .collect();
        plans_checked += plans.len();
        for (w, threads) in plans {
            assert!(
                store()
                    .lookup(V100.name, w as usize, threads as usize)
                    .is_some(),
                "{m}x{n}: selected plan (w={w}, T={threads}) is uncertified"
            );
        }

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
    assert!(plans_checked > 0, "no block-Jacobi plan was selected");
}
