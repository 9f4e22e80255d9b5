//! Extension experiments beyond the paper's evaluation section:
//! * `ext-ablation` — the design-choice ablations DESIGN.md §5 calls out
//!   (the three advantages of §III-D plus the §IV optimizations);
//! * `ext-lowp` — the §V-E low-precision sketch (f32/bf16 storage);
//! * `ext-profile` — the per-kernel time/traffic breakdown behind §V-B,
//!   read from the metrics registry;
//! * `ext-trace` — the structured-trace view of the fig7 workload
//!   (kernel spans, sweep telemetry, auto-tuner decisions);
//! * `ext-sanitize` — the wsvd-sanitizer in action: the fig7 workload under
//!   full hazard checking (clean), plus planted-bug kernels and schedules
//!   proving every hazard class is actually detected.
//! * `ext-fused` — the fused launch pipeline on the launch-bound rows the
//!   repro tables expose: fig9's batch-1 columns and fig14b's sharded
//!   cluster, serial vs fused, with the overhead share each pays.
//! * `ext-metrics` — the wsvd-metrics registry in action: the fig9 batch-1
//!   case runs with a metered GPU and the report is the `--report`
//!   per-kernel view (time share, occupancy, AI, roofline ceiling
//!   attribution per Eqs. 8–10, GM-transaction efficiency).
//! * `ext-certify` — wsvd-analyze's ahead-of-time plan-space certification:
//!   every auto-tuner-reachable and pinned plan family proven safe on every
//!   device model, the reachability sweep showing zero false rejections,
//!   and the two planted bad plans statically rejected.

use wsvd_core::{wcycle_svd, AlphaSelect, Tuning, WCycleConfig};
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_jacobi::fits::{evd_smem_elems, svd_smem_elems};
use wsvd_linalg::generate::random_batch;
use wsvd_linalg::lowp::Precision;
use wsvd_linalg::singular_values;
use wsvd_linalg::verify::spectrum_distance;

use crate::report::{fmt_secs, Report};
use crate::scale::Scale;

/// Ablations: switch off one design element at a time and measure the cost.
pub fn ext_ablation(scale: Scale) -> Report {
    let n = scale.dim(256, 2, 96);
    let batch = scale.dim(100, 5, 10);
    let mut rep = Report::new(
        "ext-ablation",
        "Design-choice ablations (extension)",
        &scale.note(&format!("{batch} matrices of {n}x{n}")),
        &["variant", "time", "sweeps", "vs full"],
        "each optimization pays where it engages (cache 1.1x here; tailoring needs the fig12 regime); static small w costs sweeps",
    );
    let mats = random_batch(batch, n, n, 4096 + n as u64);
    let variants: Vec<(&str, WCycleConfig)> = vec![
        ("full W-cycle", WCycleConfig::default()),
        (
            "no tailoring",
            WCycleConfig {
                tailor_gemm: false,
                ..Default::default()
            },
        ),
        (
            "no norm cache (Eq. 6 off)",
            WCycleConfig {
                cache_norms: false,
                ..Default::default()
            },
        ),
        (
            "one warp per pair (no α)",
            WCycleConfig {
                alpha: AlphaSelect::Fixed(32),
                ..Default::default()
            },
        ),
        (
            "static w = 8 (no multilevel)",
            WCycleConfig {
                tuning: Tuning::Widths(vec![8]),
                ..Default::default()
            },
        ),
        (
            "dynamic ordering (ref. [12])",
            WCycleConfig {
                dynamic_ordering: true,
                ..Default::default()
            },
        ),
        (
            "QR preconditioning (refs. [5]/[42])",
            WCycleConfig {
                qr_precondition: true,
                ..Default::default()
            },
        ),
    ];
    let mut full_time = 0.0f64;
    for (label, cfg) in &variants {
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, &mats, cfg).unwrap();
        let t = gpu.elapsed_seconds();
        if *label == "full W-cycle" {
            full_time = t;
        }
        let sweeps = out.results.iter().map(|r| r.sweeps).max().unwrap_or(0);
        rep.push_row(vec![
            label.to_string(),
            fmt_secs(t),
            sweeps.to_string(),
            format!("{:.2}x", t / full_time.max(f64::MIN_POSITIVE)),
        ]);
    }
    rep
}

/// Low-precision storage (§V-E): smaller elements let larger tiles live in
/// SM (larger feasible `w_h`), at a bounded accuracy cost.
pub fn ext_lowp(scale: Scale) -> Report {
    let n = scale.dim(256, 2, 96);
    let mut rep = Report::new(
        "ext-lowp",
        "Low-precision storage sketch (§V-E extension)",
        &scale.note(&format!(
            "one {n}x{n} matrix; f64 kernels on quantized data"
        )),
        &[
            "precision",
            "max w (EVD fit)",
            "max pair rows (SVD fit, 2w=32)",
            "spectrum error",
        ],
        "f32/bf16 double/quadruple the SM budget; error tracks the unit roundoff",
    );
    let a = wsvd_linalg::generate::random_uniform(n, n, 31415);
    let reference = singular_values(&a).unwrap();
    let sigma_max = reference[0];
    for p in [Precision::F64, Precision::F32, Precision::Bf16] {
        // Effective element budget at this precision.
        let budget_elems = 48 * 1024 / p.bytes();
        let max_w = {
            let mut w = 1;
            while evd_smem_elems(2 * (w + 1)) <= budget_elems {
                w += 1;
            }
            w
        };
        let max_rows = {
            let mut m = 32;
            while svd_smem_elems(m + 1, 32) <= budget_elems {
                m += 1;
            }
            m
        };
        // Accuracy: decompose the quantized matrix with the f64 kernels and
        // compare against the f64 reference spectrum.
        let q = p.quantize(&a);
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&q), &WCycleConfig::default()).unwrap();
        let err = spectrum_distance(&out.results[0].sigma, &reference) / sigma_max.max(1.0);
        rep.push_row(vec![
            format!("{p:?}"),
            max_w.to_string(),
            max_rows.to_string(),
            format!("{err:.2e}"),
        ]);
    }
    rep
}

/// Runs `work` on a V100 metered under experiment `id` and returns only
/// what this run recorded. Under `repro --report` / `--bench-out` it reuses
/// the session's sink, so the series also land in snapshots and `--prom`
/// exports; otherwise it meters into a private sink.
fn metered_run(id: &str, work: impl FnOnce(&Gpu)) -> wsvd_metrics::Snapshot {
    let session = wsvd_gpu_sim::Session::current().metrics;
    let sink = if session.is_enabled() {
        session
    } else {
        wsvd_metrics::MetricsSink::enabled()
    };
    sink.set_experiment(id);
    let before = sink.snapshot();
    let mut gpu = Gpu::new(V100);
    gpu.set_metrics(sink.clone());
    work(&gpu);
    // Per-run delta: only what *this* experiment recorded, even when the
    // session sink already carries earlier experiments' series.
    sink.snapshot().since(&before)
}

/// Per-kernel profile of a representative batched run (the §V-B analysis),
/// read from the metrics registry's per-kernel totals.
pub fn ext_profile(scale: Scale) -> Report {
    let n = scale.dim(256, 2, 96);
    let batch = scale.dim(100, 5, 10);
    let mats = random_batch(batch, n, n, 2718);
    let snap = metered_run("ext-profile", |gpu| {
        wcycle_svd(gpu, &mats, &WCycleConfig::default()).unwrap();
    });
    let rows = crate::metrics_report::kernel_rows(&snap, "ext-profile");
    let total: f64 = rows.iter().map(|r| r.seconds).sum();

    let mut rep = Report::new(
        "ext-profile",
        "Per-kernel simulated-time breakdown (extension; §V-B view)",
        &scale.note(&format!("{batch} matrices of {n}x{n}")),
        &["kernel", "time%", "launches", "GM bytes", "occupancy"],
        "the EVD/SVD rotation kernels dominate; GEMMs carry the GM traffic",
    );
    for r in &rows {
        rep.push_row(vec![
            r.kernel.clone(),
            format!("{:.1}%", wsvd_gpu_sim::time_share_percent(r.seconds, total)),
            format!("{:.0}", r.launches),
            format!("{:.2e}", r.observation.gm_bytes),
            format!("{:.3}", r.occupancy),
        ]);
    }
    rep
}

/// The wsvd-metrics registry on the fig9 n=128 batch-1 case (tentpole
/// extension): one matrix runs the full W-cycle on a metered [`Gpu`] and the
/// report renders what the registry accumulated — per-kernel time share,
/// achieved occupancy, arithmetic intensity, roofline ceiling attribution
/// (Eqs. 8–10, [`wsvd_gpu_sim::KernelObservation::derive`]), GM-transaction
/// efficiency and launch-overhead share.
pub fn ext_metrics(scale: Scale) -> Report {
    let n = scale.pick(128, 256);
    // The fig9 batch-1 column: a single n x n matrix, where per-launch
    // overhead and per-level plan choices are most visible.
    let mats = random_batch(1, n, n, (3 * n + 1) as u64);
    let snap = metered_run("ext-metrics", |gpu| {
        wcycle_svd(gpu, &mats, &WCycleConfig::default()).unwrap();
    });

    let mut rep = crate::metrics_report::kernel_report(&snap, "ext-metrics");
    rep.id = "ext-metrics".to_string();
    rep.title = "Per-kernel metrics registry report (extension; fig9 batch-1 case)".to_string();
    rep.scale_note = scale.note(&format!("one {n}x{n} matrix"));
    rep
}

/// Structured-trace view of the fig7 workload (tentpole extension): each
/// shape runs with an enabled [`wsvd_trace::TraceSink`] and the report
/// summarizes what the trace recorded — kernel spans and simulated busy
/// time, per-sweep convergence instants, and the auto-tuner's plan choice.
/// Under `repro --trace FILE` these events also land in the exported
/// Perfetto timeline (the experiment reuses the session's trace sink).
pub fn ext_trace(scale: Scale) -> Report {
    let batch = scale.dim(100, 5, 10);
    let mut rep = Report::new(
        "ext-trace",
        "Structured-trace telemetry on the fig7 workload (extension)",
        &scale.note(&format!("fig7 shapes plus one 96x96 multilevel row, batch {batch}")),
        &["m", "n", "kernel spans", "busy", "sweeps", "plan w", "final coherence"],
        "every launch, sweep and plan decision is visible in the timeline; coherence collapses below tol",
    );
    let session = wsvd_gpu_sim::Session::current().trace;
    let sink = if session.is_enabled() {
        session
    } else {
        wsvd_trace::TraceSink::enabled()
    };
    // The fig7 grid exercises the level-0 kernel spans; the trailing 96x96
    // row descends into the W-cycle, where the sweep/auto-tune telemetry
    // lives.
    for &(m, n) in &[
        (8usize, 32usize),
        (16, 32),
        (32, 32),
        (32, 16),
        (32, 8),
        (96, 96),
    ] {
        let before = sink.events().len();
        let gpu = Gpu::with_trace(V100, sink.clone());
        let mats = random_batch(batch, m, n, (m * 100 + n) as u64);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        let events: Vec<wsvd_trace::Event> = sink.events().into_iter().skip(before).collect();

        let kernel_spans = events
            .iter()
            .filter(|e| {
                e.track == "kernels" && matches!(e.kind, wsvd_trace::EventKind::Span { .. })
            })
            .count();
        let busy: f64 = events
            .iter()
            .filter(|e| e.track == "kernels")
            .filter_map(|e| match e.kind {
                wsvd_trace::EventKind::Span { dur, .. } => Some(dur),
                _ => None,
            })
            .sum();
        let sweeps: Vec<&wsvd_trace::Event> = events
            .iter()
            .filter(|e| e.track == "wcycle" && e.name == "sweep")
            .collect();
        let coherence = sweeps
            .last()
            .and_then(|e| {
                e.args.iter().find_map(|(k, v)| match (k, v) {
                    (&"coherence", wsvd_trace::ArgValue::F64(x)) => Some(*x),
                    _ => None,
                })
            })
            .unwrap_or(0.0);
        let plan_w = events
            .iter()
            .find(|e| e.track == "autotune" && e.name == "plan")
            .and_then(|e| {
                e.args.iter().find_map(|(k, v)| match (k, v) {
                    (&"w", wsvd_trace::ArgValue::U64(w)) => Some(*w),
                    _ => None,
                })
            });
        rep.push_row(vec![
            m.to_string(),
            n.to_string(),
            kernel_spans.to_string(),
            fmt_secs(busy),
            sweeps.len().to_string(),
            plan_w.map_or_else(|| "-".to_string(), |w| w.to_string()),
            format!("{coherence:.2e}"),
        ]);
    }
    rep
}

/// The wsvd-sanitizer demonstration (extension): every fig7 shape runs the
/// full W-cycle under dynamic hazard tracking *and* static schedule/smem
/// verification and must come out clean; a set of planted-bug kernels and
/// one corrupted pivot schedule then show that each violation class the
/// sanitizer knows about is detected, not merely absent.
pub fn ext_sanitize(scale: Scale) -> Report {
    use wsvd_gpu_sim::{KernelConfig, SanitizeMode};
    use wsvd_jacobi::ordering::Schedule;
    use wsvd_jacobi::verify::{verify_schedule, Coverage, ScheduleViolation};

    let batch = scale.dim(100, 5, 10);
    let mut rep = Report::new(
        "ext-sanitize",
        "Hazard sanitizer & static schedule verification (extension)",
        &scale.note(&format!(
            "fig7 shapes batch {batch} under full checking; planted bugs below"
        )),
        &[
            "workload",
            "blocks",
            "epochs",
            "accesses",
            "violations",
            "verdict",
        ],
        "the real workload is hazard-free; every planted bug class is detected",
    );
    for &(m, n) in &[
        (8usize, 32usize),
        (16, 32),
        (32, 32),
        (32, 16),
        (32, 8),
        (96, 96),
    ] {
        let gpu = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let mats = random_batch(batch, m, n, (m * 100 + n) as u64);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        let r = gpu.sanitizer_report();
        rep.push_row(vec![
            format!("wcycle {m}x{n}"),
            r.stats.blocks_checked.to_string(),
            r.stats.epochs.to_string(),
            r.stats.accesses.to_string(),
            r.violations.len().to_string(),
            if r.is_clean() {
                "clean".to_string()
            } else {
                "VIOLATIONS".to_string()
            },
        ]);
    }

    // Planted dynamic bugs: one single-block kernel per hazard class. The
    // verdict quotes the sanitizer's own classification of what it caught.
    type Planted = (&'static str, fn(&mut wsvd_gpu_sim::BlockCtx));
    let planted: [Planted; 4] = [
        ("planted: unsynchronized writes", |ctx| {
            let buf = ctx.smem().alloc(8).unwrap();
            ctx.smem_write(0, &buf, 0, 8);
            ctx.smem_write(1, &buf, 0, 8); // same range, no barrier between
            ctx.sync_threads();
        }),
        ("planted: read past missing barrier", |ctx| {
            let buf = ctx.smem().alloc(32).unwrap();
            ctx.smem_write(0, &buf, 0, 16);
            ctx.smem_read(1, &buf, 8, 4); // overlaps the un-fenced write
            ctx.sync_threads();
        }),
        ("planted: divergent barrier", |ctx| {
            ctx.lane_sync(0);
            ctx.lane_sync(0);
            ctx.lane_sync(1); // lane 1 arrives once, lane 0 twice
        }),
        ("planted: leaked smem buffer", |ctx| {
            let buf = ctx.smem().alloc(64).unwrap();
            ctx.smem_write(0, &buf, 0, 64);
            ctx.sync_threads();
            std::mem::forget(buf); // never returned to the arena
        }),
    ];
    for (label, kernel) in planted {
        let gpu = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let kc = KernelConfig::new(1, 32, 1024, "planted_bug");
        gpu.launch_collect(kc, |_b, ctx| {
            kernel(ctx);
            Ok(())
        })
        .unwrap();
        let r = gpu.sanitizer_report();
        let verdict = r
            .violations
            .first()
            .map_or_else(|| "MISSED".to_string(), |v| format!("detected: {}", v.kind));
        rep.push_row(vec![
            label.to_string(),
            r.stats.blocks_checked.to_string(),
            r.stats.epochs.to_string(),
            r.stats.accesses.to_string(),
            r.violations.len().to_string(),
            verdict,
        ]);
    }

    // Planted static bug: pairs (0,1) and (1,2) share column 1 in one step.
    let bad: Schedule = vec![vec![(0, 1), (1, 2)], vec![(0, 2)]];
    let verdict = match verify_schedule(&bad, 3, Coverage::ExactlyOnce) {
        Ok(_) => "MISSED".to_string(),
        Err(ScheduleViolation::Conflict { index, .. }) => {
            format!("rejected: conflict on column {index}")
        }
        Err(e) => format!("rejected: {e}"),
    };
    rep.push_row(vec![
        "planted: overlapping pivot pairs".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "1".to_string(),
        verdict,
    ]);
    rep
}

/// The fused launch pipeline (extension): replays each W-cycle level as one
/// [`wsvd_gpu_sim::LaunchGraph`] and measures what that buys on the two
/// launch-bound shapes the repro tables expose — fig9's batch-1 columns
/// (where per-kernel overhead swamps the tiny kernels) and fig14b's
/// cluster-sharded assimilation (where sharding shrinks each device's batch
/// back into the launch-bound regime). Serial and fused runs use identical
/// matrices; kernel times and numerics are bit-identical by construction, so
/// every gap in the table is launch overhead.
pub fn ext_fused(scale: Scale) -> Report {
    use wsvd_apps::{analysis_step_distributed_with, AssimilationProblem, SvdEngine};
    use wsvd_baselines::magma_batched_svd;
    use wsvd_gpu_sim::{GpuCluster, VEGA20};

    let mut rep = Report::new(
        "ext-fused",
        "Fused launch pipeline on launch-bound workloads (extension)",
        &scale.note("fig9 batch-1/batch-40 shapes plus the fig14b 4-GPU shard"),
        &[
            "workload",
            "MAGMA",
            "W-cycle",
            "fused W-cycle",
            "speedup",
            "fused speedup",
            "overhead%",
        ],
        "batch-1 rows are launch-bound: fusing moves them from MAGMA parity toward the paper's >=2.78x",
    );
    let serial_cfg = WCycleConfig {
        fused: false,
        ..WCycleConfig::default()
    };
    let fused_cfg = WCycleConfig {
        fused: true,
        ..WCycleConfig::default()
    };

    // Part A: fig9 rows (same sizes and seeds as the fig9 experiment). The
    // MAGMA column is this PR-invariant yardstick: the paper's fig9 reports
    // the W-cycle >=2.78x ahead at batch 1, while the serial pipeline sits
    // near parity — the fused column is the row moving toward that shape.
    let sizes: &[usize] = scale.pick(&[64usize, 128][..], &[128, 256, 512][..]);
    let deep_batch = scale.pick(40usize, 100);
    let mut shapes: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, 1)).collect();
    shapes.push((sizes[sizes.len() - 1], deep_batch));
    for (n, batch) in shapes {
        let mats = random_batch(batch, n, n, (3 * n + batch) as u64);
        let magma = {
            let gpu = Gpu::new(V100);
            magma_batched_svd(&gpu, &mats).unwrap();
            gpu.elapsed_seconds()
        };
        let run = |cfg: &WCycleConfig| {
            let gpu = Gpu::new(V100);
            wcycle_svd(&gpu, &mats, cfg).unwrap();
            let t = gpu.timeline();
            (t.seconds, t.overhead_share())
        };
        let (ts, os) = run(&serial_cfg);
        let (tf, of) = run(&fused_cfg);
        rep.push_row(vec![
            format!("{batch} matrix(es) of {n}x{n}"),
            fmt_secs(magma),
            fmt_secs(ts),
            fmt_secs(tf),
            crate::report::fmt_speedup(magma, ts),
            crate::report::fmt_speedup(magma, tf),
            format!("{:.1}% -> {:.1}%", 100.0 * os, 100.0 * of),
        ]);
    }

    // Part B: the fig14b 4-GPU shard (same generator and seed as fig14b).
    // Sharding shrinks each device's batch back into the launch-bound
    // regime, which is why the serial W-cycle "gains less from sharding".
    let (min_dim, max_dim) = scale.pick((24usize, 112usize), (50, 1024));
    let points = scale.pick(24usize, 64);
    let problem = AssimilationProblem::generate(points, min_dim, max_dim, 4242);
    let run = |engine: SvdEngine, cfg: &WCycleConfig| {
        let cluster = GpuCluster::new(VEGA20, 4);
        let res = analysis_step_distributed_with(&cluster, &problem, engine, cfg).unwrap();
        let (mut overhead, mut busy) = (0.0f64, 0.0f64);
        for rank in 0..4 {
            let t = cluster.gpu(rank).timeline();
            overhead += t.overhead_seconds;
            busy += t.seconds;
        }
        (res.svd_seconds, overhead / busy.max(f64::MIN_POSITIVE))
    };
    let (magma, _) = run(SvdEngine::Magma, &serial_cfg);
    let (ts, os) = run(SvdEngine::WCycle, &serial_cfg);
    let (tf, of) = run(SvdEngine::WCycle, &fused_cfg);
    rep.push_row(vec![
        format!("4x Vega20 shard, {points} grid points"),
        fmt_secs(magma),
        fmt_secs(ts),
        fmt_secs(tf),
        crate::report::fmt_speedup(magma, ts),
        crate::report::fmt_speedup(magma, tf),
        format!("{:.1}% -> {:.1}%", 100.0 * os, 100.0 * of),
    ]);
    rep
}

/// `ext-certify` — the wsvd-analyze certification pipeline as a repro
/// artifact. Static analysis is scale-independent: both scales emit the
/// same deterministic counts (no timings, no randomness).
pub fn ext_certify(scale: Scale) -> Report {
    use wsvd_analyze::certify::PlanOrigin;
    use wsvd_analyze::plan_space::{
        certify_all_devices, planted_rejections, sweep_reachability, DEFAULT_MAX_BLOCKS,
    };

    let mut rep = Report::new(
        "ext-certify",
        "Ahead-of-time plan-space certification (extension)",
        &scale.note(
            "wsvd-analyze: certificates over the full reachable plan space; \
             scale-independent (static analysis, no simulated work)",
        ),
        &["subject", "detail", "verdict"],
        "every reachable plan family certified on every device; both planted bad \
         plans statically rejected",
    );

    let store = certify_all_devices(DEFAULT_MAX_BLOCKS).expect("plan space certifies");
    rep.push_row(vec![
        "schedule atlas".to_string(),
        format!(
            "{} orderings x blocks 2..={} ({} proofs, {} pairs)",
            store.atlas.orderings.len(),
            store.atlas.max_blocks,
            store.atlas.proofs,
            store.atlas.pairs
        ),
        "proved".to_string(),
    ]);
    for dev in store.devices.values() {
        let autotuned = dev
            .families
            .values()
            .filter(|c| matches!(c.origin, PlanOrigin::Autotuned))
            .count();
        let terminal = dev.families.values().filter(|c| c.terminal).count();
        rep.push_row(vec![
            dev.device.clone(),
            format!(
                "{} families ({} autotuned), {} terminal, {} B arena",
                dev.families.len(),
                autotuned,
                terminal,
                dev.smem_per_block_bytes
            ),
            "certified".to_string(),
        ]);
    }
    let sweep = sweep_reachability(&store).expect("no false rejections");
    rep.push_row(vec![
        "reachability sweep".to_string(),
        format!(
            "{} selections over {} workloads, {} distinct families",
            sweep.selections,
            sweep.workloads,
            sweep.selected_families.len()
        ),
        "zero false rejections".to_string(),
    ]);
    let (smem_msg, sched_msg) = planted_rejections(&V100);
    rep.push_row(vec![
        "planted: oversized smem".to_string(),
        smem_msg,
        "rejected".to_string(),
    ]);
    rep.push_row(vec![
        "planted: conflicting schedule".to_string(),
        sched_msg,
        "rejected".to_string(),
    ]);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certify_report_is_scale_independent_and_rejects_planted() {
        let a = ext_certify(Scale::Reduced);
        let b = ext_certify(Scale::Full);
        assert_eq!(a.rows, b.rows);
        assert_eq!(
            a.rows.iter().filter(|r| r[2] == "rejected").count(),
            2,
            "{:?}",
            a.rows
        );
        assert!(a.rows.iter().any(|r| r[2] == "zero false rejections"));
    }

    #[test]
    fn ablation_full_variant_is_fastest_or_close() {
        let rep = ext_ablation(Scale::Reduced);
        let full: f64 = rep.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!((full - 1.0).abs() < 1e-9);
        for row in &rep.rows[1..4] {
            let ratio: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(
                ratio >= 0.95,
                "removing an optimization should not help: {row:?}"
            );
        }
    }

    #[test]
    fn lowp_budgets_scale_with_precision() {
        let rep = ext_lowp(Scale::Reduced);
        let w: Vec<usize> = rep.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(w[1] > w[0] && w[2] > w[1], "{w:?}");
        let err: Vec<f64> = rep.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(err[0] < err[1] && err[1] < err[2], "{err:?}");
        assert!(err[1] < 1e-5, "f32 error too large: {}", err[1]);
    }

    #[test]
    fn trace_view_sees_kernels_and_convergence() {
        let rep = ext_trace(Scale::Reduced);
        assert_eq!(rep.rows.len(), 6);
        for row in &rep.rows {
            let spans: usize = row[2].parse().unwrap();
            assert!(spans > 0, "every shape launches kernels: {row:?}");
        }
        // fig7 shapes resolve whole at level 0: the SM kernel still records
        // per-sweep coherence, but no GEMM plan is tuned (the alpha-warp
        // selection carries threads-per-pair, not a width).
        assert!(
            rep.rows[0][4].parse::<usize>().unwrap() > 0,
            "expected kernel-recorded sweeps: {:?}",
            rep.rows[0]
        );
        assert_eq!(rep.rows[0][5], "-");
        // The 96x96 row descends: sweeps, a plan, and collapsed coherence.
        let deep = rep.rows.last().unwrap();
        assert!(
            deep[4].parse::<usize>().unwrap() > 0,
            "expected sweeps: {deep:?}"
        );
        assert!(
            deep[5].parse::<usize>().unwrap() > 0,
            "expected a plan width: {deep:?}"
        );
        let coherence: f64 = deep[6].parse().unwrap();
        assert!(coherence < 1e-9, "final coherence not converged: {deep:?}");
    }

    #[test]
    fn sanitize_report_is_clean_on_real_work_and_catches_planted_bugs() {
        let rep = ext_sanitize(Scale::Reduced);
        assert_eq!(rep.rows.len(), 6 + 4 + 1);
        for row in &rep.rows[..6] {
            assert_eq!(
                row[5], "clean",
                "real workload must be hazard-free: {row:?}"
            );
            assert!(
                row[1].parse::<u64>().unwrap() > 0,
                "blocks checked: {row:?}"
            );
            assert!(
                row[3].parse::<u64>().unwrap() > 0,
                "accesses recorded: {row:?}"
            );
        }
        for row in &rep.rows[6..] {
            assert!(
                row[5].starts_with("detected") || row[5].starts_with("rejected"),
                "planted bug must be caught: {row:?}"
            );
        }
        assert!(
            rep.rows[6][5].contains("write-write race"),
            "{:?}",
            rep.rows[6]
        );
        assert!(
            rep.rows[7][5].contains("read-write race"),
            "{:?}",
            rep.rows[7]
        );
        assert!(
            rep.rows[8][5].contains("barrier divergence"),
            "{:?}",
            rep.rows[8]
        );
        assert!(rep.rows[9][5].contains("smem leak"), "{:?}", rep.rows[9]);
        assert!(rep.rows[10][5].contains("column 1"), "{:?}", rep.rows[10]);
    }

    #[test]
    fn fused_pipeline_pays_off_on_launch_bound_rows() {
        let rep = ext_fused(Scale::Reduced);
        // Rows: batch-1 n=64, batch-1 n=128, batch-40 n=128, 4-GPU shard.
        // Columns: workload, MAGMA, serial, fused, serial-vs-MAGMA,
        // fused-vs-MAGMA, "serial% -> fused%" overhead share.
        assert_eq!(rep.rows.len(), 4);
        let x = |cell: &str| -> f64 { cell.trim_end_matches('x').parse().unwrap() };
        let shares = |cell: &str| -> (f64, f64) {
            let (a, b) = cell.split_once(" -> ").unwrap();
            (
                a.trim_end_matches('%').parse().unwrap(),
                b.trim_end_matches('%').parse().unwrap(),
            )
        };
        for row in &rep.rows {
            assert!(
                x(&row[5]) >= x(&row[4]),
                "fusing must never slow a run: {row:?}"
            );
            let (serial, fused) = shares(&row[6]);
            assert!(
                fused <= serial + 1e-9,
                "fused overhead share must not grow: {row:?}"
            );
        }
        // The acceptance row: fig9's batch-1 n=128 shape. Before this PR the
        // serial W-cycle sat at MAGMA parity there (repro_results/fig9.json:
        // MAGMA 3.586 ms vs W-cycle 3.574 ms, "1.00x"), so asserting the
        // fused-vs-MAGMA ratio >= 1.5 against the PR-invariant MAGMA column
        // pins a >= 1.5x total row movement (tuning-boundary fix + fusion;
        // measured ~2.5x) toward the paper's >= 2.78x batch-1 curve.
        assert!(
            x(&rep.rows[1][5]) >= 1.5,
            "batch-1 n=128 must move >= 1.5x vs MAGMA: {:?}",
            rep.rows[1]
        );
        // Fusing alone must still buy a solid chunk of that on this row.
        assert!(
            x(&rep.rows[1][5]) >= 1.25 * x(&rep.rows[1][4]),
            "fusing must pay >= 1.25x on the launch-bound row: {:?}",
            rep.rows[1]
        );
        // The 4-GPU shard's overhead share must strictly drop.
        let last = rep.rows.last().unwrap();
        let (serial, fused) = shares(&last[6]);
        assert!(
            fused < serial,
            "sharded overhead share must shrink: {last:?}"
        );
    }

    #[test]
    fn profile_covers_the_run() {
        let rep = ext_profile(Scale::Reduced);
        assert!(rep.rows.len() >= 3, "expected several kernel labels");
        assert!(rep
            .rows
            .iter()
            .any(|r| r[0].contains("svd") || r[0].contains("evd")));
    }
}
