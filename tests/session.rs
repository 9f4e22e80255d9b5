//! The installed `Session` reaches every device built after it.
//!
//! This file runs as its own process and installs one session (trace on,
//! sanitize full, fused on) before building any device, as `repro` does
//! from its flags.

use std::sync::Once;

use wcycle_svd::gpu::{Gpu, GpuCluster, KernelConfig, SanitizeMode, Session, V100, VEGA20};
use wcycle_svd::linalg::generate::random_batch;
use wcycle_svd::{wcycle_svd, WCycleConfig};

fn installed() -> Session {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        assert!(Session::install(Session {
            trace: wsvd_trace::TraceSink::enabled(),
            sanitize: SanitizeMode::Full,
            fused: true,
            ..Session::default()
        }));
    });
    Session::current()
}

/// One block whose two lanes write the same range without a barrier.
fn plant_race(gpu: &Gpu) {
    let kc = KernelConfig::new(1, 32, 1024, "planted_race");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(8)?;
        ctx.smem_write(0, &buf, 0, 8);
        ctx.smem_write(1, &buf, 0, 8);
        ctx.sync_threads();
        Ok(())
    })
    .unwrap();
}

#[test]
fn devices_and_configs_pick_up_every_setting() {
    installed();
    assert!(
        !Session::install(Session::default()),
        "the first install wins"
    );

    let gpu = Gpu::new(V100);
    assert!(gpu.trace().is_enabled());
    assert!(gpu.sanitize_enabled());

    let cluster = GpuCluster::new(VEGA20, 2);
    for rank in 0..cluster.len() {
        assert!(cluster.gpu(rank).trace().is_enabled());
        assert!(cluster.gpu(rank).sanitize_enabled());
    }
    assert!(WCycleConfig::default().fused);
}

#[test]
fn races_count_in_the_tally_only_on_session_devices() {
    let session = installed();

    let own = Gpu::with_sanitize(V100, SanitizeMode::Full);
    plant_race(&own);
    assert_eq!(own.sanitizer_report().violations.len(), 1);
    assert!(own.trace().is_enabled(), "only the tally is private");

    let shared = Gpu::new(V100);
    plant_race(&shared);
    assert_eq!(shared.sanitizer_report().violations.len(), 1);

    assert_eq!(
        session.tally.violations(),
        1,
        "only the race on the Gpu::new device counts"
    );
}

/// `WCycleConfig::default()` runs fused under the session: same σ and U
/// bits and counters as the serial pipeline, less simulated time.
#[test]
fn session_fused_default_runs_the_wcycle_fused() {
    installed();
    let mats = random_batch(2, 80, 80, 1234);
    let serial_gpu = Gpu::new(V100);
    let serial_cfg = WCycleConfig {
        fused: false,
        ..WCycleConfig::default()
    };
    let serial = wcycle_svd(&serial_gpu, &mats, &serial_cfg).unwrap();

    let fused_gpu = Gpu::new(V100);
    let fused = wcycle_svd(&fused_gpu, &mats, &WCycleConfig::default()).unwrap();

    for (s, f) in serial.results.iter().zip(&fused.results) {
        assert_eq!(s.sigma, f.sigma);
        assert_eq!(s.u.as_slice(), f.u.as_slice());
    }
    assert!(fused_gpu.graph_stats().graphs >= 1);
    assert!(fused_gpu.elapsed_seconds() < serial_gpu.elapsed_seconds());
    assert_eq!(serial_gpu.timeline().totals, fused_gpu.timeline().totals);
}
