//! End-to-end tests of the `wsvd-sanitizer`: planted bugs of every hazard
//! class must be detected and surfaced through the trace sink, while the
//! real W-cycle workload under full checking must come out clean with
//! bit-identical numerics and simulated timing.

use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, HazardKind, KernelConfig, SanitizeMode, Session, V100};
use wsvd_jacobi::verify::{verify_schedule, Coverage, ScheduleViolation};
use wsvd_jacobi::Ordering;
use wsvd_linalg::generate::random_batch;

fn sanitized_gpu() -> Gpu {
    Gpu::with_sanitize(V100, SanitizeMode::Full)
}

#[test]
fn planted_write_write_race_is_reported() {
    let gpu = sanitized_gpu();
    let kc = KernelConfig::new(1, 32, 1024, "ww_race");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(8)?;
        ctx.smem_write(0, &buf, 0, 8);
        ctx.smem_write(1, &buf, 0, 8); // same range, no barrier between
        ctx.sync_threads();
        Ok(())
    })
    .unwrap();
    let report = gpu.sanitizer_report();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.kind, HazardKind::WriteWrite);
    assert_eq!(v.kernel, "ww_race");
    assert_eq!(v.block, 0);
}

#[test]
fn missing_barrier_read_write_race_is_reported() {
    let gpu = sanitized_gpu();
    let kc = KernelConfig::new(1, 32, 1024, "rw_race");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(32)?;
        ctx.smem_write(0, &buf, 0, 16);
        ctx.smem_read(1, &buf, 8, 4); // reads the half-written range
        ctx.sync_threads();
        Ok(())
    })
    .unwrap();
    let report = gpu.sanitizer_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == HazardKind::ReadWrite),
        "{:?}",
        report.violations
    );
    // The same kernel with the barrier in place is clean.
    let gpu = sanitized_gpu();
    let kc = KernelConfig::new(1, 32, 1024, "rw_fenced");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(32)?;
        ctx.smem_write(0, &buf, 0, 16);
        ctx.sync_threads();
        ctx.smem_read(1, &buf, 8, 4);
        Ok(())
    })
    .unwrap();
    assert!(gpu.sanitizer_report().is_clean());
}

#[test]
fn barrier_divergence_is_reported() {
    let gpu = sanitized_gpu();
    let kc = KernelConfig::new(1, 32, 0, "divergent");
    gpu.launch_collect(kc, |_b, ctx| {
        ctx.lane_sync(0);
        ctx.lane_sync(0);
        ctx.lane_sync(1); // lane 1 arrives once, lane 0 twice
        Ok(())
    })
    .unwrap();
    let report = gpu.sanitizer_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == HazardKind::BarrierDivergence),
        "{:?}",
        report.violations
    );
}

#[test]
fn leaked_smem_buffer_is_reported() {
    let gpu = sanitized_gpu();
    let kc = KernelConfig::new(1, 32, 1024, "leaky");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(64)?;
        ctx.smem_write(0, &buf, 0, 64);
        ctx.sync_threads();
        std::mem::forget(buf); // never returned to the arena
        Ok(())
    })
    .unwrap();
    let report = gpu.sanitizer_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == HazardKind::SmemLeak),
        "{:?}",
        report.violations
    );
}

#[test]
fn violations_surface_on_the_trace_sanitizer_track() {
    let sink = wsvd_trace::TraceSink::enabled();
    let gpu = Gpu::with_session(
        V100,
        Session {
            trace: sink.clone(),
            sanitize: SanitizeMode::Full,
            ..Session::default()
        },
    );
    let kc = KernelConfig::new(1, 32, 1024, "traced_race");
    gpu.launch_collect(kc, |_b, ctx| {
        let buf = ctx.smem().alloc(8)?;
        ctx.smem_write(0, &buf, 0, 8);
        ctx.smem_write(1, &buf, 0, 8);
        ctx.sync_threads();
        Ok(())
    })
    .unwrap();
    let events = sink.events();
    let on_track: Vec<_> = events.iter().filter(|e| e.track == "sanitizer").collect();
    assert!(
        on_track.iter().any(|e| e.name == "write-write race"),
        "violation instants missing: {:?}",
        on_track.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
    );
    assert!(
        on_track.iter().any(|e| e.name == "launch-checked"),
        "per-launch summary missing"
    );
}

#[test]
fn overlapping_pivot_schedule_fails_the_static_checker() {
    // Pairs (0,1) and (1,2) share column 1 within one step.
    let bad = vec![vec![(0, 1), (1, 2)], vec![(0, 2)]];
    match verify_schedule(&bad, 3, Coverage::ExactlyOnce) {
        Err(ScheduleViolation::Conflict { index: 1, .. }) => {}
        other => panic!("expected a conflict on column 1, got {other:?}"),
    }
    // Every shipped ordering passes at every size the W-cycle uses.
    for n in 2..=32 {
        for o in Ordering::ALL {
            wsvd_jacobi::verify_ordering(o, n).unwrap_or_else(|e| panic!("{o:?} n={n}: {e}"));
        }
    }
}

#[test]
fn static_level_verification_runs_under_sanitize_and_passes() {
    use wsvd_batched::models::TailorPlan;
    let plan = TailorPlan::new(24, 64, 256);
    let check = wsvd_core::verify_level(
        &[(100, 100), (96, 96)],
        &plan,
        Ordering::RoundRobin,
        48 * 1024,
    )
    .unwrap();
    assert!(!check.proofs.is_empty());
    assert!(check.requirements.iter().all(|r| r.fits(48 * 1024)));
}

#[test]
fn sanitized_wcycle_fig7_small_is_clean_and_bit_identical() {
    let mats: Vec<_> = [(8usize, 32usize), (32, 16), (96, 96)]
        .iter()
        .flat_map(|&(m, n)| random_batch(2, m, n, (m * 10 + n) as u64))
        .collect();
    let cfg = WCycleConfig::default();

    let plain_gpu = Gpu::new(V100);
    let plain = wcycle_svd(&plain_gpu, &mats, &cfg).unwrap();
    let plain_t = plain_gpu.elapsed_seconds();

    let san_gpu = sanitized_gpu();
    let sanitized = wcycle_svd(&san_gpu, &mats, &cfg).unwrap();
    let san_t = san_gpu.elapsed_seconds();

    let report = san_gpu.sanitizer_report();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.stats.blocks_checked > 0);
    assert!(report.stats.epochs > 0);

    // Zero-cost contract: checking must not perturb the simulated clock...
    assert_eq!(plain_t, san_t, "sanitizer changed simulated time");
    // ...or any numerical output.
    for (p, s) in plain.results.iter().zip(&sanitized.results) {
        assert_eq!(p.sigma, s.sigma);
        assert_eq!(p.sweeps, s.sweeps);
    }
}
