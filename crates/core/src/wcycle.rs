//! The W-cycle SVD: a multilevel algorithm for batched SVD (Algorithm 2).
//!
//! Workflow (§III-C):
//! * **Level 0** — matrices whose whole SVD fits in shared memory are
//!   decomposed directly by the batched SM SVD kernel; the rest descend.
//! * **Level h** — each descending matrix is partitioned into column blocks
//!   of width `w_h`; every round-robin step pairs the blocks into
//!   `A_ij = [A_i, A_j]` sub-matrices, which fall into three groups:
//!   1. SVD of `A_ij` fits in SM → batched SM SVD kernel gives `J_ij`
//!      directly **and** the rotated block (`UΣ`), avoiding the Gram GEMM
//!      entirely (Observation 1);
//!   2. only the EVD of `B_ij = A_ij^T A_ij` fits in SM → tailored batched
//!      Gram GEMM, batched SM EVD kernel, tailored batched update GEMM;
//!   3. neither fits → the pair block recurses to Level h+1 with a smaller
//!      width (the "W" shape of Fig. 3).
//! * Sweeps repeat until all column blocks are mutually orthogonal; each
//!   converged matrix exits the workflow.

use wsvd_batched::autotune::{auto_tune_with_w_cap_traced, TuneTelemetry};
use wsvd_batched::gemm::{batched_gram, batched_update, GemmStrategy};
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::{Gpu, KernelConfig, KernelError};
use wsvd_jacobi::batch::{batched_evd_sm, batched_svd_sm};
use wsvd_jacobi::evd::EvdConfig;
use wsvd_jacobi::fits::{evd_fits_in_sm, svd_fits_in_sm};
use wsvd_jacobi::onesided::{JacobiSvd, OneSidedConfig};
use wsvd_linalg::gemm::{dot, matmul};
use wsvd_linalg::matrix::partition_cols;
use wsvd_linalg::verify::{columns_converged, max_column_coherence, orthonormality_error};
use wsvd_linalg::Matrix;

use crate::certify::CertifyMode;
use crate::config::{AlphaSelect, Tuning, WCycleConfig};
use crate::stats::WCycleStats;
use crate::verify::{effective_width, verify_level};
use wsvd_jacobi::verify::{verify_schedule, Coverage};

/// Fixed bounds for the per-matrix `sweeps_to_converge` metrics histogram.
/// Powers of two up to the practical sweep ceiling keep snapshots comparable
/// across experiments.
const SWEEP_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// The SVD of one input matrix as produced by the W-cycle.
#[derive(Debug)]
pub struct WSvd {
    /// Left singular vectors, `m x r` (`r = min(m, n)`).
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (full square for `m >= n` inputs; thin `n x r`
    /// for wide inputs). `None` when `want_v` was off.
    pub v: Option<Matrix>,
    /// W-cycle sweeps this matrix needed (0 when decomposed whole in SM).
    pub sweeps: usize,
}

/// Batched result: one [`WSvd`] per input plus the run statistics.
#[derive(Debug)]
pub struct WCycleOutput {
    /// Per-matrix factorizations, in input order.
    pub results: Vec<WSvd>,
    /// Multilevel workflow statistics.
    pub stats: WCycleStats,
}

/// Runs the W-cycle SVD over a batch of matrices of arbitrary (mixed) sizes.
pub fn wcycle_svd(
    gpu: &Gpu,
    mats: &[Matrix],
    cfg: &WCycleConfig,
) -> Result<WCycleOutput, KernelError> {
    for (k, a) in mats.iter().enumerate() {
        if !a.is_finite() {
            return Err(KernelError::Other(format!(
                "matrix {k} contains non-finite entries; Jacobi rotations would poison the batch"
            )));
        }
    }
    let smem = gpu.device().smem_per_block_bytes;
    let trace = gpu.trace().clone();
    let traced = trace.is_enabled();
    let health = gpu.health().clone();
    let watched = health.is_enabled();
    let mut stats = WCycleStats {
        sweeps_per_matrix: vec![0; mats.len()],
        ..Default::default()
    };

    // Wide inputs are decomposed transposed (§IV-B): fewer rotations per
    // sweep, and the factors swap back at the end. Very tall inputs are
    // optionally QR-preconditioned (refs. [5]/[42]): the Jacobi workflow
    // then runs on the square R factor and U is recovered as Q U_R.
    let mut prepared: Vec<(Matrix, bool, Option<Matrix>)> = mats
        .iter()
        .map(|a| {
            if a.rows() < a.cols() {
                (a.transpose(), true)
            } else {
                (a.clone(), false)
            }
        })
        .map(|(tall, transposed)| (tall, transposed, None))
        .collect();
    if cfg.qr_precondition {
        let qr_idx: Vec<usize> = prepared
            .iter()
            .enumerate()
            .filter(|(_, (tall, _, _))| {
                tall.cols() >= 2 && tall.rows() >= cfg.qr_aspect_threshold.max(2) * tall.cols()
            })
            .map(|(k, _)| k)
            .collect();
        if !qr_idx.is_empty() {
            let inputs: Vec<Matrix> = qr_idx.iter().map(|&k| prepared[k].0.clone()).collect();
            let factors = batched_counted_qr(gpu, &inputs)?;
            for (&k, (q, r)) in qr_idx.iter().zip(factors) {
                prepared[k] = (r, prepared[k].1, Some(q));
            }
        }
    }

    // Level-0 grouping (Algorithm 2, lines 2-5).
    let mut fit_idx = Vec::new();
    let mut rest_idx = Vec::new();
    for (k, (a, _, _)) in prepared.iter().enumerate() {
        if svd_fits_in_sm(a.rows(), a.cols(), smem) {
            fit_idx.push(k);
        } else {
            rest_idx.push(k);
        }
    }

    let mut slots: Vec<Option<WSvd>> = (0..mats.len()).map(|_| None).collect();

    if !fit_idx.is_empty() {
        let group: Vec<Matrix> = fit_idx.iter().map(|&k| prepared[k].0.clone()).collect();
        let m_star = group.iter().map(|g| g.rows()).max().unwrap_or(1);
        let threads_per_pair = cfg.alpha.resolve(m_star);
        if traced {
            trace_alpha_plan(
                gpu,
                &trace,
                &cfg.alpha,
                m_star,
                group.len(),
                threads_per_pair,
            );
        }
        let one_sided = OneSidedConfig {
            tol: cfg.tol,
            threads_per_pair,
            cache_norms: cfg.cache_norms,
            accumulate_v: true,
            ordering: cfg.ordering,
            record_coherence: traced || watched || cfg.record_convergence,
            ..Default::default()
        };
        let t_pre = gpu.elapsed_seconds();
        let (mut svds, _) = batched_svd_sm(gpu, &group, &one_sided, cfg.kernel_threads)?;
        if traced {
            trace_level0_sweeps(gpu, &trace, &svds, t_pre, gpu.elapsed_seconds());
        }
        if watched {
            health_level0_sweeps(&health, &svds, t_pre, gpu.elapsed_seconds());
        }
        if cfg.record_convergence {
            record_level0_convergence(&mut stats, &svds);
        }
        stats.level0_sm_svds = svds.len();
        // Level-0 registry metrics mirror the per-level hook in
        // `decompose_level`: whole-in-SM decompositions are "level 0".
        let metrics = gpu.metrics();
        if metrics.is_enabled() {
            metrics.counter_add(
                "wcycle",
                Some(0),
                "level_seconds",
                gpu.elapsed_seconds() - t_pre,
            );
            metrics.counter_add("wcycle", Some(0), "tasks", svds.len() as f64);
            metrics.counter_add(
                "wcycle",
                Some(0),
                "sweeps",
                svds.iter().map(|o| o.stats.sweeps).max().unwrap_or(0) as f64,
            );
            for o in &svds {
                metrics.observe(
                    "wcycle",
                    Some(0),
                    "sweeps_to_converge",
                    &SWEEP_BUCKETS,
                    o.stats.sweeps as f64,
                );
            }
        }
        let recover: Vec<(usize, Matrix, Matrix)> = fit_idx
            .iter()
            .enumerate()
            .filter_map(|(pos, &k)| {
                prepared[k]
                    .2
                    .as_ref()
                    .map(|q| (pos, q.clone(), svds[pos].u.clone()))
            })
            .collect();
        if !recover.is_empty() {
            let products = batched_counted_recover(gpu, &recover)?;
            for ((pos, _, _), u) in recover.iter().zip(products) {
                svds[*pos].u = u;
            }
        }
        for (&k, svd) in fit_idx.iter().zip(svds) {
            slots[k] = Some(finish_one(svd, prepared[k].1, cfg.want_v));
        }
    }

    if !rest_idx.is_empty() {
        let mut tasks: Vec<Matrix> = rest_idx.iter().map(|&k| prepared[k].0.clone()).collect();
        // V is needed when the caller wants it, or to recover U of a
        // transposed (wide) input.
        let need_v: Vec<bool> = rest_idx
            .iter()
            .map(|&k| cfg.want_v || prepared[k].1)
            .collect();
        let outcomes = decompose_level(gpu, &mut tasks, &need_v, 1, 48, cfg, &mut stats)?;

        // Final extraction kernel: U = normalize(columns), Σ = column norms.
        let kc = KernelConfig::new(tasks.len(), cfg.kernel_threads, 0, "wcycle_extract");
        let extracted = {
            let tasks_ref = &tasks;
            gpu.launch_collect(kc, |b, ctx| {
                let t = &tasks_ref[b];
                ctx.count_gm_load(t.len());
                ctx.par_step(t.len(), 2);
                ctx.count_gm_store(t.len());
                Ok(extract_u_sigma(t))
            })?
            .0
        };
        let mut extracted = extracted;
        let recover: Vec<(usize, Matrix, Matrix)> = rest_idx
            .iter()
            .enumerate()
            .filter_map(|(pos, &k)| {
                prepared[k]
                    .2
                    .as_ref()
                    .map(|q| (pos, q.clone(), extracted[pos].0.clone()))
            })
            .collect();
        if !recover.is_empty() {
            let products = batched_counted_recover(gpu, &recover)?;
            for ((pos, _, _), u) in recover.iter().zip(products) {
                extracted[*pos].0 = u;
            }
        }
        for (slot, ((&k, (u, sigma)), outcome)) in
            rest_idx.iter().zip(extracted).zip(outcomes).enumerate()
        {
            let transposed = prepared[k].1;
            let mut v = outcome
                .v
                .map(|v| permute_cols(&v, &sigma_order(&tasks[slot])));
            // `u`/`sigma` are already sorted by `extract_u_sigma`.
            let sweeps = outcome.sweeps;
            stats.sweeps_per_matrix[k] = sweeps;
            let result = if transposed {
                // A = V_t Σ U_t^T: swap the factors.
                let v_t = v.take().expect("wide inputs always accumulate V");
                let r = sigma.len();
                let v_out = if cfg.want_v { Some(u) } else { None };
                WSvd {
                    u: thin(&v_t, r),
                    sigma,
                    v: v_out,
                    sweeps,
                }
            } else {
                WSvd {
                    u,
                    sigma,
                    v: if cfg.want_v { v } else { None },
                    sweeps,
                }
            };
            slots[k] = Some(result);
        }
    }

    let results: Vec<WSvd> = slots
        .into_iter()
        .map(|s| s.expect("every input decomposed"))
        .collect();
    // `tol == 0` is the explicit truncated-run mode (run exactly
    // `max_sweeps`, converged or not — the accuracy experiments use it to
    // chart error vs sweep count), so the convergence contract the drift
    // monitors enforce is waived there.
    if watched && cfg.tol > 0.0 {
        health_batch_checks(&health, gpu.elapsed_seconds(), mats, &results);
    }
    Ok(WCycleOutput { results, stats })
}

/// Mirrors [`trace_level0_sweeps`] into the health watchdogs: one
/// [`sweep_sample`](wsvd_health::HealthSink::sweep_sample) per Level-0 sweep
/// from the SM kernels' recorded coherence histories.
// wsvd-lint: allow(sink-guard) — caller gates on `watched = health.is_enabled()`.
fn health_level0_sweeps(
    health: &wsvd_health::HealthSink,
    svds: &[JacobiSvd],
    t_pre: f64,
    t_post: f64,
) {
    let s_max = svds.iter().map(|o| o.stats.sweeps).max().unwrap_or(0);
    for s in 0..s_max {
        let coherence = svds
            .iter()
            .filter_map(|o| o.coherence_per_sweep.get(s))
            .fold(0.0f64, |acc, &c| acc.max(c));
        let active = svds.iter().filter(|o| o.stats.sweeps > s + 1).count();
        let ts = t_pre + (t_post - t_pre) * (s + 1) as f64 / s_max as f64;
        health.sweep_sample(0, s + 1, coherence, active, ts);
    }
}

/// Mirrors [`health_level0_sweeps`] into [`WCycleStats::convergence`]: the
/// same per-sweep aggregation of the SM kernels' coherence histories, but
/// surfaced as data for the cluster checkpoint instead of fed to a sink.
fn record_level0_convergence(stats: &mut WCycleStats, svds: &[JacobiSvd]) {
    let s_max = svds.iter().map(|o| o.stats.sweeps).max().unwrap_or(0);
    for s in 0..s_max {
        let off_norm = svds
            .iter()
            .filter_map(|o| o.coherence_per_sweep.get(s))
            .fold(0.0f64, |acc, &c| acc.max(c));
        let active = svds.iter().filter(|o| o.stats.sweeps > s + 1).count();
        stats.convergence.push(crate::SweepRecord {
            level: 0,
            sweep: (s + 1) as u64,
            off_norm,
            active: active as u64,
        });
    }
}

/// End-of-run drift monitors: per matrix, the orthogonality error of the
/// numerically significant left singular directions and (when V is
/// available) the relative reconstruction residual, both fed to
/// [`batch_check`](wsvd_health::HealthSink::batch_check). Directions with
/// `sigma <= sigma_max * eps * max(m, n)` carry no reliable basis — on
/// rank-deficient or extremely ill-conditioned inputs (the Table-VII
/// cases) their vectors are arbitrary within round-off, so they are
/// excluded rather than allowed to trip false alarms. Only called for
/// converging runs (`tol > 0`): a truncated run is unconverged by design
/// and its factors make no orthogonality promise. Host-side and
/// health-gated: never charged to the cost model.
// wsvd-lint: allow(sink-guard) — caller gates on `watched = health.is_enabled()`.
fn health_batch_checks(
    health: &wsvd_health::HealthSink,
    t_sim: f64,
    mats: &[Matrix],
    results: &[WSvd],
) {
    for (k, (a, r)) in mats.iter().zip(results).enumerate() {
        let sigma_max = r.sigma.first().copied().unwrap_or(0.0);
        if !sigma_max.is_finite() || sigma_max <= 0.0 {
            continue;
        }
        let (m, n) = a.shape();
        let floor = sigma_max * f64::EPSILON * m.max(n) as f64;
        // `sigma` is descending, so the significant directions are a prefix.
        let significant = r.sigma.iter().take_while(|&&s| s > floor).count();
        if significant == 0 {
            continue;
        }
        let orthogonality = orthonormality_error(&r.u.col_block(0, significant));
        let residual = r.v.as_ref().map(|v| {
            let rank = r.sigma.len();
            let mut us = thin(&r.u, rank);
            for (j, &s) in r.sigma.iter().enumerate() {
                us.col_mut(j).iter_mut().for_each(|x| *x *= s);
            }
            let recon = matmul(&us, &thin(v, rank).transpose());
            recon.sub(a).max_abs() / sigma_max
        });
        health.batch_check(k, residual, orthogonality, t_sim);
    }
}

/// Emits the Level-0 α-warp selection (§IV-B1) as an auto-tuner plan event:
/// the rule's rejected team widths from [`wsvd_batched::TPP_CANDIDATES`] go
/// into the event args alongside the chosen one.
// wsvd-lint: allow(sink-guard) — caller gates on `traced = trace.is_enabled()`.
fn trace_alpha_plan(
    gpu: &Gpu,
    trace: &wsvd_trace::TraceSink,
    alpha: &AlphaSelect,
    m_star: usize,
    batch: usize,
    chosen: usize,
) {
    let rejected = wsvd_batched::TPP_CANDIDATES
        .iter()
        .filter(|&&t| t != chosen)
        .map(|t| format!("tpp={t}"))
        .collect::<Vec<_>>()
        .join("; ");
    trace.instant(
        gpu.trace_pid(),
        "autotune",
        "plan",
        gpu.elapsed_seconds(),
        vec![
            ("level", 0usize.into()),
            ("param", "alpha".into()),
            ("rule", format!("{alpha:?}").into()),
            ("batch", batch.into()),
            ("m_star", m_star.into()),
            ("threads_per_pair", chosen.into()),
            ("rejected", rejected.into()),
        ],
    );
}

/// Emits per-sweep convergence instants for a Level-0 batched SM SVD launch
/// from the kernels' recorded coherence histories. The launch spans
/// `[t_pre, t_post]` in simulated time; sweep `s` of `S` is placed at the
/// matching fraction of that interval.
// wsvd-lint: allow(sink-guard) — caller gates on `traced = trace.is_enabled()`.
fn trace_level0_sweeps(
    gpu: &Gpu,
    trace: &wsvd_trace::TraceSink,
    svds: &[JacobiSvd],
    t_pre: f64,
    t_post: f64,
) {
    let s_max = svds.iter().map(|o| o.stats.sweeps).max().unwrap_or(0);
    for s in 0..s_max {
        let coherence = svds
            .iter()
            .filter_map(|o| o.coherence_per_sweep.get(s))
            .fold(0.0f64, |acc, &c| acc.max(c));
        let active = svds.iter().filter(|o| o.stats.sweeps > s + 1).count();
        let ts = t_pre + (t_post - t_pre) * (s + 1) as f64 / s_max as f64;
        trace.instant(
            gpu.trace_pid(),
            "wcycle",
            "sweep",
            ts,
            vec![
                ("level", 0usize.into()),
                ("sweep", (s + 1).into()),
                ("coherence", coherence.into()),
                ("active", active.into()),
                ("matrices", svds.len().into()),
            ],
        );
    }
}

/// Outcome of decomposing one task at a level: the matrix itself has been
/// orthogonalized in place (columns = `UΣ`, unsorted).
struct LevelOutcome {
    v: Option<Matrix>,
    sweeps: usize,
}

/// One pair block gathered for rotation: its task and the `(start, width)`
/// column blocks `A_i`, `A_j` it pairs.
#[derive(Clone, Copy)]
struct PairRef {
    task: usize,
    bi: (usize, usize),
    bj: (usize, usize),
}

/// Orthogonalizes every task's columns via block rotations at `level`,
/// recursing for pair blocks that fit neither SM kernel.
fn decompose_level(
    gpu: &Gpu,
    tasks: &mut [Matrix],
    need_v: &[bool],
    level: usize,
    w_cap: usize,
    cfg: &WCycleConfig,
    stats: &mut WCycleStats,
) -> Result<Vec<LevelOutcome>, KernelError> {
    let smem = gpu.device().smem_per_block_bytes;
    // Fused pipeline: record this level's launches into one LaunchGraph so
    // the driver's launch overhead is paid once per level, not per kernel.
    // Recursive levels open nested scopes that join the enclosing graph.
    let _graph = cfg.fused.then(|| gpu.launch_graph("wcycle level"));
    // Inner rotation generators must run tighter than the outer convergence
    // test, or the level's coherence plateaus just above `tol` (each pair
    // block would retain up-to-`tol` residual coherence internally). The
    // override exists precisely to break this invariant on purpose — see
    // `WCycleConfig::inner_tol_override`.
    let inner_tol = cfg
        .inner_tol_override
        .unwrap_or((cfg.tol * 1e-2).max(1e-15));
    let sizes: Vec<(usize, usize)> = tasks.iter().map(|t| t.shape()).collect();
    let plan = resolve_plan(gpu, cfg, level, &sizes, w_cap);
    stats.note_width(level, plan.w);
    let trace = gpu.trace().clone();
    let traced = trace.is_enabled();
    let health = gpu.health().clone();
    let watched = health.is_enabled();
    let level_t0 = gpu.elapsed_seconds();
    if watched {
        health.plan_selected(level, plan.w, plan.delta, plan.threads, level_t0);
    }
    let sanitizing = gpu.sanitize_enabled();
    // Ahead-of-time certification: under `CertifyMode::Require` the selected
    // plan's family must hold a certificate for this device covering the
    // configured ordering and every task's block count — a miss is a hard
    // error before any launch. A certified level skips the per-launch
    // `verify_level` re-verification below (the certificate already proves
    // its non-tautological obligations once, for the whole family).
    let certified = match crate::certify::mode() {
        CertifyMode::Require => {
            let cert = crate::certify::check_level(gpu.device(), &plan, &sizes, cfg.ordering)
                .map_err(|e| {
                    KernelError::Other(format!(
                        "wsvd-analyze: uncertified plan at level {level}: {e}"
                    ))
                })?;
            if traced {
                trace.instant(
                    gpu.trace_pid(),
                    "certify",
                    "plan-certified",
                    level_t0,
                    vec![
                        ("level", level.into()),
                        ("w", plan.w.into()),
                        ("threads", plan.threads.into()),
                        ("tasks_checked", cert.tasks_checked.into()),
                        ("max_task_blocks", cert.max_task_blocks.into()),
                    ],
                );
            }
            true
        }
        CertifyMode::Off => false,
    };
    if sanitizing && !certified {
        // Static half of the wsvd-sanitizer: prove the selected plan's
        // schedules and shared-memory working sets sound before any launch.
        let check = verify_level(&sizes, &plan, cfg.ordering, smem).map_err(|e| {
            KernelError::Other(format!(
                "wsvd-sanitizer: static verification failed at level {level}: {e}"
            ))
        })?;
        if traced {
            trace.instant(
                gpu.trace_pid(),
                "sanitizer",
                "static-check",
                level_t0,
                vec![
                    ("level", level.into()),
                    ("tasks", sizes.len().into()),
                    ("proofs", check.proofs.len().into()),
                    ("smem_requirements", check.requirements.len().into()),
                    ("recursing_shapes", check.recursing_shapes.into()),
                ],
            );
        }
    }
    let strategy = if cfg.tailor_gemm {
        GemmStrategy::Tailored(plan)
    } else {
        GemmStrategy::OneBlockPerGemm {
            threads: plan.threads,
        }
    };

    // Per-task column partition (width w, ragged tail allowed). When
    // w = n/2 would make the single pair block the whole task *and* that
    // whole task fits neither SM kernel, the level would be a pure wrapper
    // around the recursion — divide finer instead so the level does work.
    let parts: Vec<Vec<(usize, usize)>> = tasks
        .iter()
        .map(|t| {
            let (m, n) = t.shape();
            partition_cols(n, effective_width(m, n, plan.w, smem))
        })
        .collect();

    let mut vs: Vec<Option<Matrix>> = need_v
        .iter()
        .zip(&sizes)
        .map(|(&nv, &(_, n))| nv.then(|| Matrix::identity(n)))
        .collect();
    let mut sweeps = vec![0usize; tasks.len()];
    let mut active: Vec<bool> = tasks.iter().map(|t| t.cols() >= 2).collect();

    for round in 0..cfg.max_sweeps {
        if !active.iter().any(|&a| a) {
            break;
        }
        let mut sweep_rotations = 0u64;
        let (mut sweep_ga, mut sweep_gb, mut sweep_gc) = (0u64, 0u64, 0u64);
        let schedules: Vec<_> = parts
            .iter()
            .zip(&active)
            .enumerate()
            .map(|(t, (p, &a))| {
                if !a {
                    Vec::new()
                } else if cfg.dynamic_ordering {
                    dynamic_schedule(&tasks[t], p)
                } else {
                    cfg.ordering.schedule(p.len())
                }
            })
            .collect();
        if (sanitizing || certified) && cfg.dynamic_ordering {
            // Dynamically generated sweeps carry no static proof (and no
            // certificate — the schedule is data-dependent); check each
            // one before its rotations launch.
            for (t, sched) in schedules.iter().enumerate() {
                if sched.is_empty() {
                    continue;
                }
                verify_schedule(sched, parts[t].len(), Coverage::ExactlyOnce).map_err(|e| {
                    KernelError::Other(format!(
                        "wsvd-sanitizer: dynamic schedule invalid at level {level}, \
                         sweep {round}, task {t}: {e}"
                    ))
                })?;
            }
        }
        let max_steps = schedules.iter().map(|s| s.len()).max().unwrap_or(0);

        for step in 0..max_steps {
            // Gather this step's pair blocks across the whole batch.
            let mut refs: Vec<PairRef> = Vec::new();
            let mut blocks: Vec<Matrix> = Vec::new();
            for (t, sched) in schedules.iter().enumerate() {
                if !active[t] || step >= sched.len() {
                    continue;
                }
                for &(i, j) in &sched[step] {
                    let (bi, bj) = (parts[t][i], parts[t][j]);
                    refs.push(PairRef { task: t, bi, bj });
                    blocks.push(tasks[t].paired_col_blocks(bi, bj));
                }
            }
            if blocks.is_empty() {
                continue;
            }
            stats.add_rotations(level, blocks.len() as u64);
            sweep_rotations += blocks.len() as u64;

            // Classify into the three groups of Algorithm 2.
            let mut ga: Vec<usize> = Vec::new();
            let mut gb: Vec<usize> = Vec::new();
            let mut gc: Vec<usize> = Vec::new();
            for (idx, b) in blocks.iter().enumerate() {
                let (m, nn) = b.shape();
                if svd_fits_in_sm(m, nn, smem) {
                    ga.push(idx);
                } else if evd_fits_in_sm(nn, smem) {
                    gb.push(idx);
                } else {
                    gc.push(idx);
                }
            }
            sweep_ga += ga.len() as u64;
            sweep_gb += gb.len() as u64;
            sweep_gc += gc.len() as u64;

            let mut rotations: Vec<Option<Matrix>> = (0..blocks.len()).map(|_| None).collect();

            // Group (i): direct SM SVD — avoids the Gram GEMM (Obs. 1) and
            // the update GEMM (the kernel's converged columns are A_ij J).
            if !ga.is_empty() {
                let sub: Vec<Matrix> = ga.iter().map(|&i| blocks[i].clone()).collect();
                let m_star = sub.iter().map(|s| s.rows()).max().unwrap();
                let one_sided = OneSidedConfig {
                    tol: inner_tol,
                    threads_per_pair: cfg.alpha.resolve(m_star),
                    cache_norms: cfg.cache_norms,
                    accumulate_v: true,
                    ordering: cfg.ordering,
                    ..Default::default()
                };
                let (svds, _) = batched_svd_sm(gpu, &sub, &one_sided, cfg.kernel_threads)?;
                stats.sm_svd_blocks += ga.len() as u64;
                for (&i, svd) in ga.iter().zip(svds) {
                    blocks[i] = svd.rotated_block();
                    rotations[i] = Some(svd.v);
                }
            }

            // Group (ii): Gram GEMM -> SM EVD. The `A_ij J_ij` update joins
            // the fused batched-update launch below.
            if !gb.is_empty() {
                let sub: Vec<Matrix> = gb.iter().map(|&i| blocks[i].clone()).collect();
                let (grams, _) = batched_gram(gpu, &sub, strategy)?;
                let evd_cfg = EvdConfig {
                    tol: 1e-15,
                    max_sweeps: 30,
                    ..Default::default()
                };
                let (evds, _) = batched_evd_sm(gpu, &grams, &evd_cfg, cfg.kernel_threads)?;
                stats.sm_evd_blocks += gb.len() as u64;
                for (&i, evd) in gb.iter().zip(evds) {
                    rotations[i] = Some(evd.j);
                }
            }

            // Group (iii): recurse with a smaller width (Level h+1).
            if !gc.is_empty() {
                let mut sub: Vec<Matrix> = gc.iter().map(|&i| blocks[i].clone()).collect();
                let all_v = vec![true; sub.len()];
                let next_cap = plan.w.saturating_sub(1).max(1);
                let sub_cfg = WCycleConfig {
                    tol: inner_tol,
                    ..cfg.clone()
                };
                let outcomes =
                    decompose_level(gpu, &mut sub, &all_v, level + 1, next_cap, &sub_cfg, stats)?;
                stats.recursed_blocks += gc.len() as u64;
                for ((&i, converged), outcome) in gc.iter().zip(sub).zip(outcomes) {
                    blocks[i] = converged;
                    rotations[i] = Some(outcome.v.expect("recursion always accumulates V"));
                }
            }

            // One fused batched-update launch: the group-(ii) `A_ij J_ij`
            // products and all V-accumulator updates (groups (i)/(iii) left
            // their blocks already rotated, so only their V parts join).
            let mut upd_mats: Vec<Matrix> = Vec::new();
            let mut upd_js: Vec<Matrix> = Vec::new();
            // (kind, index): kind 0 = A-block of group (ii), 1 = V pair.
            let mut upd_meta: Vec<(u8, usize)> = Vec::new();
            for &i in &gb {
                upd_mats.push(blocks[i].clone());
                upd_js.push(rotations[i].as_ref().unwrap().clone());
                upd_meta.push((0, i));
            }
            for (k, r) in refs.iter().enumerate() {
                if let Some(v) = vs[r.task].as_ref() {
                    upd_mats.push(v.paired_col_blocks(r.bi, r.bj));
                    upd_js.push(
                        rotations[k]
                            .as_ref()
                            .expect("rotation computed for every block")
                            .clone(),
                    );
                    upd_meta.push((1, k));
                }
            }
            if !upd_mats.is_empty() {
                batched_update(gpu, &mut upd_mats, &upd_js, strategy)?;
                for ((kind, idx), updated) in upd_meta.into_iter().zip(upd_mats) {
                    match kind {
                        0 => blocks[idx] = updated,
                        _ => {
                            let r = refs[idx];
                            let v = vs[r.task].as_mut().unwrap();
                            v.store_paired_col_blocks(r.bi, r.bj, &updated);
                        }
                    }
                }
            }
            // Scatter every rotated pair block back into its task.
            for (r, block) in refs.iter().zip(&blocks) {
                tasks[r.task].store_paired_col_blocks(r.bi, r.bj, block);
            }
        }

        // Schedule-independent convergence test at the sweep boundary (in a
        // real kernel this reduction falls out of the inner products the
        // sweep already computed; it is not charged to the cost model).
        let mut coherence = 0.0f64;
        for t in 0..tasks.len() {
            if active[t] {
                sweeps[t] += 1;
                if traced || watched || cfg.record_convergence {
                    coherence = coherence.max(max_column_coherence(&tasks[t]));
                }
                if columns_converged(&tasks[t], cfg.tol) {
                    active[t] = false; // converged: exits the workflow
                }
            }
        }
        let still_active = active.iter().filter(|&&a| a).count();
        if traced {
            trace.instant(
                gpu.trace_pid(),
                "wcycle",
                "sweep",
                gpu.elapsed_seconds(),
                vec![
                    ("level", level.into()),
                    ("sweep", (round + 1).into()),
                    ("rotations", sweep_rotations.into()),
                    ("ga_sm_svd", sweep_ga.into()),
                    ("gb_gram_evd", sweep_gb.into()),
                    ("gc_recursed", sweep_gc.into()),
                    ("coherence", coherence.into()),
                    ("active", still_active.into()),
                ],
            );
        }
        if watched {
            health.sweep_sample(
                level,
                round + 1,
                coherence,
                still_active,
                gpu.elapsed_seconds(),
            );
        }
        if cfg.record_convergence {
            stats.convergence.push(crate::SweepRecord {
                level: level as u64,
                sweep: (round + 1) as u64,
                off_norm: coherence,
                active: still_active as u64,
            });
        }
    }

    if traced {
        let now = gpu.elapsed_seconds();
        trace.span(
            gpu.trace_pid(),
            "wcycle",
            &format!("level {level}"),
            level_t0,
            now - level_t0,
            vec![
                ("tasks", tasks.len().into()),
                ("w", plan.w.into()),
                ("delta", plan.delta.into()),
                ("threads", plan.threads.into()),
                (
                    "max_sweeps_used",
                    sweeps.iter().copied().max().unwrap_or(0).into(),
                ),
            ],
        );
    }

    // Per-level registry metrics: time share, convergence behaviour and the
    // chosen plan, keyed by W-cycle level. All values are already computed
    // by the algorithm (or are host-side reads of simulated time), so with
    // the sink disabled nothing here runs and the run stays bit-identical.
    let metrics = gpu.metrics();
    if metrics.is_enabled() {
        let now = gpu.elapsed_seconds();
        metrics.counter_add("wcycle", Some(level), "level_seconds", now - level_t0);
        metrics.counter_add("wcycle", Some(level), "tasks", tasks.len() as f64);
        metrics.counter_add(
            "wcycle",
            Some(level),
            "sweeps",
            sweeps.iter().copied().max().unwrap_or(0) as f64,
        );
        for &s in &sweeps {
            metrics.observe(
                "wcycle",
                Some(level),
                "sweeps_to_converge",
                &SWEEP_BUCKETS,
                s as f64,
            );
        }
        metrics.gauge_set("wcycle", Some(level), "plan_w", plan.w as f64);
        metrics.gauge_set("wcycle", Some(level), "plan_delta", plan.delta as f64);
        metrics.gauge_set("wcycle", Some(level), "plan_threads", plan.threads as f64);
    }
    if watched {
        // Mirror the level's headline delta into the flight recorder so an
        // incident's tail shows where simulated time went.
        let now = gpu.elapsed_seconds();
        health.metric_delta(
            &format!("wcycle/L{level}/level_seconds"),
            now - level_t0,
            now,
        );
    }

    Ok(vs
        .into_iter()
        .zip(sweeps)
        .map(|(v, sweeps)| LevelOutcome { v, sweeps })
        .collect())
}

/// Batched QR factorization with launch accounting: one block per matrix
/// (the preconditioning stage of refs. \[5\]/\[42\], itself batched like every
/// other stage of the workflow).
///
/// Per ref. \[5\] the GPU-friendly route is **CholeskyQR** (one Gram GEMM,
/// one small Cholesky, one triangular solve); it fails on panels whose
/// condition number squares past `1/eps` in the Gram, in which case the
/// block falls back to Householder QR (more work, unconditionally stable).
fn batched_counted_qr(gpu: &Gpu, inputs: &[Matrix]) -> Result<Vec<(Matrix, Matrix)>, KernelError> {
    let kc = KernelConfig::new(inputs.len(), 256, 16 * 1024, "wcycle_qr");
    let (factors, _) = gpu.launch_collect(kc, |b, ctx| {
        let a = &inputs[b];
        let (m, n) = a.shape();
        ctx.count_gm_load(m * n);
        match wsvd_linalg::cholesky::cholesky_qr(a) {
            Ok(qr) => {
                // Gram (2mn^2) + Cholesky (n^3/3, tiny) + solve (mn^2).
                ctx.par_step(m * n, 3 * n as u64);
                ctx.count_gm_store(m * n + n * n);
                Ok(qr)
            }
            Err(_) => {
                // Householder QR (2mn^2) plus thin-Q formation (2mn^2).
                ctx.par_step(m * n, 4 * n as u64);
                ctx.serial_step(30 * n as u64); // column-by-column latency
                ctx.count_gm_store(m * n + n * n);
                Ok(wsvd_linalg::qr::qr_thin(a))
            }
        }
    })?;
    Ok(factors)
}

/// Batched `Q * U_R` recovery GEMMs with launch accounting.
fn batched_counted_recover(
    gpu: &Gpu,
    items: &[(usize, Matrix, Matrix)],
) -> Result<Vec<Matrix>, KernelError> {
    let kc = KernelConfig::new(items.len(), 256, 16 * 1024, "wcycle_qr_recover");
    let (products, _) = gpu.launch_collect(kc, |b, ctx| {
        let (_, q, u) = &items[b];
        let (m, k) = q.shape();
        let r = u.cols();
        ctx.count_gm_load(m * k + k * r);
        ctx.par_step(m * r, 2 * k as u64);
        ctx.count_gm_store(m * r);
        Ok(wsvd_linalg::matmul(q, u))
    })?;
    Ok(products)
}

/// Dynamic ordering (ref. \[12\]): orders all block pairs of one sweep by
/// descending normalized cross-Gram weight, then packs them greedily into
/// steps of disjoint pairs — the heaviest couplings are attacked first.
/// (The weights fall out of the Gram products a real sweep computes anyway,
/// so no extra cost is charged to the model.)
fn dynamic_schedule(task: &Matrix, parts: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let b = parts.len();
    if b < 2 {
        return Vec::new();
    }
    // Per-block Frobenius norms.
    let norms: Vec<f64> = parts
        .iter()
        .map(|&(start, width)| {
            let mut s = 0.0;
            for c in start..start + width {
                s += dot(task.col(c), task.col(c));
            }
            s.sqrt().max(f64::MIN_POSITIVE)
        })
        .collect();
    // Pair weights: ||A_i^T A_j||_F normalized.
    let mut weighted: Vec<(f64, usize, usize)> = Vec::with_capacity(b * (b - 1) / 2);
    for j in 0..b {
        for i in 0..j {
            let (si, wi) = parts[i];
            let (sj, wj) = parts[j];
            let mut s = 0.0;
            for ci in si..si + wi {
                for cj in sj..sj + wj {
                    let d = dot(task.col(ci), task.col(cj));
                    s += d * d;
                }
            }
            weighted.push((s.sqrt() / (norms[i] * norms[j]), i, j));
        }
    }
    weighted.sort_by(|a, b| b.0.total_cmp(&a.0));
    // Greedy packing into steps of disjoint pairs.
    let mut steps: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut used: Vec<Vec<bool>> = Vec::new();
    for (_, i, j) in weighted {
        let slot = used.iter().position(|u| !u[i] && !u[j]);
        match slot {
            Some(k) => {
                steps[k].push((i, j));
                used[k][i] = true;
                used[k][j] = true;
            }
            None => {
                let mut u = vec![false; b];
                u[i] = true;
                u[j] = true;
                used.push(u);
                steps.push(vec![(i, j)]);
            }
        }
    }
    steps
}

fn resolve_plan(
    gpu: &Gpu,
    cfg: &WCycleConfig,
    level: usize,
    sizes: &[(usize, usize)],
    w_cap: usize,
) -> TailorPlan {
    let m_star = sizes.iter().map(|&(m, _)| m).max().unwrap_or(8);
    match &cfg.tuning {
        Tuning::Auto { threshold } => auto_tune_with_w_cap_traced(
            sizes,
            *threshold,
            w_cap,
            &TuneTelemetry {
                trace: gpu.trace().clone(),
                metrics: gpu.metrics().clone(),
                pid: gpu.trace_pid(),
                level,
                now: gpu.elapsed_seconds(),
            },
        ),
        Tuning::Fixed(p) => TailorPlan::new(p.w.min(w_cap), p.delta, p.threads),
        Tuning::Widths(ws) => {
            let w = *ws.get(level - 1).or_else(|| ws.last()).unwrap_or(&8);
            TailorPlan::new(w.min(w_cap), m_star, 256)
        }
    }
}

/// Sorted `(U, Σ)` extraction from a converged matrix (`columns = UΣ`).
fn extract_u_sigma(conv: &Matrix) -> (Matrix, Vec<f64>) {
    let (m, n) = conv.shape();
    let order = sigma_order(conv);
    let r = m.min(n);
    let mut u = Matrix::zeros(m, r);
    let mut sigma = Vec::with_capacity(r);
    for (k, &j) in order.iter().take(r).enumerate() {
        let s = dot(conv.col(j), conv.col(j)).sqrt();
        sigma.push(s);
        if s > 0.0 {
            let src = conv.col(j);
            let dst = u.col_mut(k);
            for i in 0..m {
                dst[i] = src[i] / s;
            }
        } else if k < m {
            u[(k, k)] = 1.0;
        }
    }
    (u, sigma)
}

/// Column indices of `conv` in order of descending column norm.
fn sigma_order(conv: &Matrix) -> Vec<usize> {
    let n = conv.cols();
    let norms: Vec<f64> = (0..n).map(|j| dot(conv.col(j), conv.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    order
}

fn permute_cols(m: &Matrix, order: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (k, &j) in order.iter().enumerate() {
        out.col_mut(k).copy_from_slice(m.col(j));
    }
    out
}

fn thin(m: &Matrix, r: usize) -> Matrix {
    Matrix::from_fn(m.rows(), r.min(m.cols()), |i, j| m[(i, j)])
}

/// Converts a Level-0 kernel result into the output form, undoing the
/// transpose when needed.
fn finish_one(svd: JacobiSvd, transposed: bool, want_v: bool) -> WSvd {
    let sweeps = svd.stats.sweeps;
    if transposed {
        // Decomposed A^T = U_t Σ V_t^T, so A = V_t Σ U_t^T.
        let r = svd.sigma.len();
        WSvd {
            u: thin(&svd.v, r),
            sigma: svd.sigma,
            v: want_v.then_some(svd.u),
            sweeps,
        }
    } else {
        WSvd {
            u: svd.u,
            sigma: svd.sigma,
            v: want_v.then_some(svd.v),
            sweeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlphaSelect;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::generate::{random_batch, random_uniform, with_spectrum};
    use wsvd_linalg::singular_values;
    use wsvd_linalg::verify::orthonormality_error;

    fn check_svd(a: &Matrix, out: &WSvd, tol: f64) {
        let want = singular_values(a).unwrap();
        assert_eq!(out.sigma.len(), want.len());
        for (g, w) in out.sigma.iter().zip(&want) {
            assert!((g - w).abs() < tol * (1.0 + w), "sigma {g} vs {w}");
        }
        assert!(out.sigma.windows(2).all(|p| p[0] >= p[1]), "not sorted");
        assert!(orthonormality_error(&out.u) < 1e-8, "U not orthonormal");
        if let Some(v) = &out.v {
            assert!(orthonormality_error(v) < 1e-8, "V not orthonormal");
            // Reconstruction through the leading r columns of V.
            let r = out.sigma.len();
            let mut us = out.u.clone();
            for j in 0..r {
                let s = out.sigma[j];
                for x in us.col_mut(j) {
                    *x *= s;
                }
            }
            let vthin = Matrix::from_fn(a.cols(), r, |i, j| v[(i, j)]);
            let rec = wsvd_linalg::matmul(&us, &vthin.transpose());
            let denom = a.fro_norm().max(1e-300);
            assert!(
                rec.sub(a).fro_norm() / denom < 1e-8,
                "reconstruction residual {}",
                rec.sub(a).fro_norm() / denom
            );
        }
    }

    fn run(mats: &[Matrix], cfg: &WCycleConfig) -> WCycleOutput {
        let gpu = Gpu::new(V100);
        wcycle_svd(&gpu, mats, cfg).unwrap()
    }

    #[test]
    fn small_matrices_go_level0() {
        let mats = random_batch(5, 16, 16, 1);
        let out = run(&mats, &WCycleConfig::default());
        assert_eq!(out.stats.level0_sm_svds, 5);
        assert_eq!(out.stats.total_rotations(), 0);
        for (a, r) in mats.iter().zip(&out.results) {
            check_svd(a, r, 1e-8);
        }
    }

    #[test]
    fn medium_matrix_uses_block_rotations() {
        // 100x100 does not fit whole (V accumulation): goes to Level 1.
        let mats = random_batch(2, 100, 100, 2);
        let out = run(&mats, &WCycleConfig::default());
        assert_eq!(out.stats.level0_sm_svds, 0);
        assert!(out.stats.total_rotations() > 0);
        assert!(out.stats.max_level >= 1);
        for (a, r) in mats.iter().zip(&out.results) {
            check_svd(a, r, 1e-8);
            assert!(r.sweeps > 0);
        }
    }

    #[test]
    fn known_spectrum_through_levels() {
        let sigma: Vec<f64> = (1..=96).rev().map(|k| k as f64 / 7.0).collect();
        let a = with_spectrum(96, 96, &sigma, 77);
        let out = run(std::slice::from_ref(&a), &WCycleConfig::default());
        check_svd(&a, &out.results[0], 1e-8);
    }

    #[test]
    fn wide_input_swaps_factors() {
        let a = random_uniform(24, 72, 5);
        let out = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let r = &out.results[0];
        assert_eq!(r.u.shape(), (24, 24));
        assert_eq!(r.v.as_ref().unwrap().rows(), 72);
        check_svd(&a, r, 1e-8);
    }

    #[test]
    fn mixed_size_batch() {
        let mats = vec![
            random_uniform(16, 16, 1),   // level 0
            random_uniform(100, 100, 2), // block path
            random_uniform(20, 60, 3),   // wide, level 0 after transpose
        ];
        let out = run(&mats, &WCycleConfig::default());
        for (a, r) in mats.iter().zip(&out.results) {
            check_svd(a, r, 1e-8);
        }
        assert_eq!(out.stats.level0_sm_svds, 2);
    }

    #[test]
    fn want_v_false_skips_v() {
        let mats = random_batch(2, 100, 100, 9);
        let cfg = WCycleConfig {
            want_v: false,
            ..Default::default()
        };
        let out = run(&mats, &cfg);
        for r in &out.results {
            assert!(r.v.is_none());
        }
        // Singular values still correct.
        let want = singular_values(&mats[0]).unwrap();
        for (g, w) in out.results[0].sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8 * (1.0 + w));
        }
    }

    #[test]
    fn deep_recursion_on_large_matrix() {
        // 320x320: w1 from auto-tune is large; group (iii) must appear when
        // the width cap starts at 48 (pair blocks 320x96 don't fit SVD, EVD
        // of 96x96 doesn't fit either at w=48).
        let cfg = WCycleConfig {
            tuning: Tuning::Widths(vec![48, 16]),
            ..Default::default()
        };
        let a = random_uniform(320, 320, 11);
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        assert!(out.stats.recursed_blocks > 0, "expected Level-2 recursion");
        assert!(out.stats.max_level >= 2);
        check_svd(&a, &out.results[0], 1e-8);
    }

    #[test]
    fn fixed_width_schedule_respected() {
        let cfg = WCycleConfig {
            tuning: Tuning::Widths(vec![8]),
            ..Default::default()
        };
        let a = random_uniform(64, 64, 13);
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        assert_eq!(out.stats.widths_per_level[0], 8);
        check_svd(&a, &out.results[0], 1e-8);
    }

    #[test]
    fn untailored_gemm_gives_same_numerics() {
        let a = random_uniform(96, 96, 17);
        let tailored = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let plain = run(
            std::slice::from_ref(&a),
            &WCycleConfig {
                tailor_gemm: false,
                ..Default::default()
            },
        );
        for (x, y) in tailored.results[0]
            .sigma
            .iter()
            .zip(&plain.results[0].sigma)
        {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn alpha_fixed_works() {
        let cfg = WCycleConfig {
            alpha: AlphaSelect::Fixed(32),
            ..Default::default()
        };
        let mats = random_batch(3, 24, 24, 19);
        let out = run(&mats, &cfg);
        for (a, r) in mats.iter().zip(&out.results) {
            check_svd(a, r, 1e-8);
        }
    }

    #[test]
    fn rank_deficient_matrix() {
        let sigma = vec![5.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        // 80x6 is tall; its 80x6 working set fits level 0. Embed in a
        // bigger matrix instead: 100x100 of rank 50.
        let mut s = vec![0.0; 100];
        for (k, x) in s.iter_mut().take(50).enumerate() {
            *x = 50.0 - k as f64;
        }
        let a = with_spectrum(100, 100, &s, 23);
        let out = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let got = &out.results[0].sigma;
        for (g, w) in got.iter().zip(&s) {
            assert!((g - w).abs() < 1e-7 * (1.0 + w), "{g} vs {w}");
        }
        let _ = sigma;
    }

    #[test]
    fn qr_preconditioning_gives_identical_factorization() {
        // A very tall matrix: with preconditioning the Jacobi workflow runs
        // on the 24x24 R instead of 300x24 columns.
        let a = random_uniform(300, 24, 37);
        let plain = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let pre = run(
            std::slice::from_ref(&a),
            &WCycleConfig {
                qr_precondition: true,
                ..Default::default()
            },
        );
        check_svd(&a, &pre.results[0], 1e-8);
        for (x, y) in plain.results[0].sigma.iter().zip(&pre.results[0].sigma) {
            assert!((x - y).abs() < 1e-8 * (1.0 + y));
        }
    }

    #[test]
    fn qr_preconditioning_reduces_simulated_time_for_tall_inputs() {
        // Tall enough that the sweeps' repeated full-height GEMMs dominate
        // the one-shot 4mn^2 QR cost.
        let mats = random_batch(4, 2048, 64, 39);
        let time = |flag: bool| {
            let gpu = Gpu::new(V100);
            let cfg = WCycleConfig {
                qr_precondition: flag,
                ..Default::default()
            };
            wcycle_svd(&gpu, &mats, &cfg).unwrap();
            gpu.elapsed_seconds()
        };
        let (plain, pre) = (time(false), time(true));
        assert!(
            pre < plain,
            "QR preconditioning should pay off: {pre} !< {plain}"
        );
    }

    #[test]
    fn qr_preconditioning_survives_cholqr_breakdown() {
        // cond ~ 1e10 squares past 1/eps in the Gram: CholeskyQR fails and
        // the Householder fallback must still deliver a correct SVD.
        let a = wsvd_linalg::generate::with_condition_number(200, 24, 1e10, 43);
        let out = run(
            std::slice::from_ref(&a),
            &WCycleConfig {
                qr_precondition: true,
                ..Default::default()
            },
        );
        let want = wsvd_linalg::singular_values(&a).unwrap();
        // The dominant half of the spectrum must hold to high relative
        // accuracy through the preconditioner.
        for (g, w) in out.results[0].sigma.iter().zip(&want).take(12) {
            assert!((g - w).abs() / w < 1e-7, "{g} vs {w}");
        }
    }

    #[test]
    fn qr_preconditioning_skips_squarish_inputs() {
        // Aspect ratio below the threshold: identical path, identical time.
        let mats = random_batch(2, 80, 60, 41);
        let run_t = |flag: bool| {
            let gpu = Gpu::new(V100);
            let cfg = WCycleConfig {
                qr_precondition: flag,
                ..Default::default()
            };
            wcycle_svd(&gpu, &mats, &cfg).unwrap();
            (gpu.elapsed_seconds(), gpu.timeline().launches)
        };
        assert_eq!(run_t(false), run_t(true));
    }

    #[test]
    fn dynamic_ordering_converges_to_same_spectrum() {
        let a = random_uniform(90, 90, 41);
        let static_out = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let dynamic_out = run(
            std::slice::from_ref(&a),
            &WCycleConfig {
                dynamic_ordering: true,
                ..Default::default()
            },
        );
        check_svd(&a, &dynamic_out.results[0], 1e-8);
        for (s, d) in static_out.results[0]
            .sigma
            .iter()
            .zip(&dynamic_out.results[0].sigma)
        {
            assert!((s - d).abs() < 1e-8 * (1.0 + s));
        }
        // Dynamic ordering must not need more sweeps than round-robin.
        assert!(dynamic_out.results[0].sweeps <= static_out.results[0].sweeps + 1);
    }

    #[test]
    fn dynamic_schedule_covers_all_pairs_disjointly() {
        let a = random_uniform(30, 24, 43);
        let parts = partition_cols(24, 6);
        let sched = dynamic_schedule(&a, &parts);
        let mut seen = std::collections::HashSet::new();
        for step in &sched {
            let mut used = std::collections::HashSet::new();
            for &(i, j) in step {
                assert!(i < j);
                assert!(seen.insert((i, j)), "pair repeated");
                assert!(used.insert(i) && used.insert(j), "index reused in step");
            }
        }
        assert_eq!(seen.len(), 4 * 3 / 2);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let gpu = Gpu::new(V100);
        let mut a = random_uniform(8, 8, 1);
        a[(3, 3)] = f64::NAN;
        let err = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default());
        assert!(err.is_err(), "NaN input must be rejected");
    }

    #[test]
    fn traced_run_emits_level_spans_sweeps_and_autotune_plans() {
        use wsvd_trace::{ArgValue, EventKind, TraceSink};

        let sink = TraceSink::enabled();
        let gpu = Gpu::with_trace(V100, sink.clone());
        let mats = random_batch(2, 100, 100, 2);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        let evs = sink.events();

        let arg = |ev: &wsvd_trace::Event, key: &str| -> ArgValue {
            ev.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };

        // The auto-tuner documented its choice (with rejected scores) before
        // any rotation of the level ran.
        let plan = evs
            .iter()
            .find(|e| e.track == "autotune" && e.name == "plan")
            .expect("plan-selection event");
        assert_eq!(arg(plan, "level"), ArgValue::U64(1));
        assert!(matches!(arg(plan, "rejected"), ArgValue::Str(_)));

        // Per-sweep instants carry the convergence telemetry; the run ends
        // with no active matrices and the coherence collapsed.
        let sweeps: Vec<_> = evs
            .iter()
            .filter(|e| e.track == "wcycle" && e.name == "sweep")
            .collect();
        assert!(
            sweeps.len() >= 2,
            "expected multiple sweeps, got {}",
            sweeps.len()
        );
        let coh = |e: &wsvd_trace::Event| match arg(e, "coherence") {
            ArgValue::F64(x) => x,
            other => panic!("coherence not F64: {other:?}"),
        };
        assert!(
            coh(sweeps[0]) > 1e-3,
            "first sweep should still be incoherent"
        );
        assert!(
            coh(sweeps.last().unwrap()) < 1e-9,
            "final sweep must be converged"
        );
        assert_eq!(arg(sweeps.last().unwrap(), "active"), ArgValue::U64(0));
        let rotations: u64 = sweeps
            .iter()
            .map(|e| match arg(e, "rotations") {
                ArgValue::U64(r) => r,
                other => panic!("rotations not U64: {other:?}"),
            })
            .sum();
        assert!(rotations > 0);

        // The level-1 recursion span covers every sweep instant.
        let level = evs
            .iter()
            .find(|e| e.track == "wcycle" && e.name == "level 1")
            .expect("level span");
        let EventKind::Span { start, dur } = level.kind else {
            panic!("not a span")
        };
        assert!(dur > 0.0);
        for s in &sweeps {
            let EventKind::Instant { ts } = s.kind else {
                panic!("not an instant")
            };
            assert!(ts >= start && ts <= start + dur + 1e-15);
        }
    }

    #[test]
    fn traced_level0_batch_reports_alpha_plan_and_kernel_sweeps() {
        use wsvd_trace::{ArgValue, EventKind, TraceSink};

        let sink = TraceSink::enabled();
        let gpu = Gpu::with_trace(V100, sink.clone());
        let mats = random_batch(5, 16, 16, 1);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        let evs = sink.events();
        let arg = |ev: &wsvd_trace::Event, key: &str| -> ArgValue {
            ev.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };

        // The α-warp rule is recorded as the Level-0 plan selection:
        // gcd(16, 32) = 16 threads per pair, with the other widths rejected.
        let plan = evs
            .iter()
            .find(|e| e.track == "autotune" && e.name == "plan")
            .expect("alpha plan event");
        assert_eq!(arg(plan, "level"), ArgValue::U64(0));
        assert_eq!(arg(plan, "param"), ArgValue::Str("alpha".into()));
        assert_eq!(arg(plan, "threads_per_pair"), ArgValue::U64(16));
        assert_eq!(
            arg(plan, "rejected"),
            ArgValue::Str("tpp=4; tpp=8; tpp=32".into())
        );

        // Per-sweep instants from inside the SM kernel, timestamped within
        // the launch interval and ending converged.
        let sweeps: Vec<_> = evs
            .iter()
            .filter(|e| {
                e.track == "wcycle" && e.name == "sweep" && arg(e, "level") == ArgValue::U64(0)
            })
            .collect();
        assert!(!sweeps.is_empty(), "level-0 kernel sweeps must be traced");
        let end = gpu.elapsed_seconds();
        let mut prev = 0.0;
        for s in &sweeps {
            let EventKind::Instant { ts } = s.kind else {
                panic!("not an instant")
            };
            assert!(ts >= prev && ts <= end, "ts {ts} outside [{prev}, {end}]");
            prev = ts;
        }
        match arg(sweeps.last().unwrap(), "coherence") {
            ArgValue::F64(c) => assert!(c < 1e-9, "final coherence {c} not converged"),
            other => panic!("coherence not F64: {other:?}"),
        }
    }

    #[test]
    fn untraced_run_emits_no_events() {
        let sink = wsvd_trace::TraceSink::disabled();
        let gpu = Gpu::with_trace(V100, sink.clone());
        let mats = random_batch(1, 100, 100, 2);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn sanitized_wcycle_is_clean_and_numerically_identical() {
        use wsvd_gpu_sim::SanitizeMode;
        let a = random_uniform(100, 100, 2);
        let plain = run(std::slice::from_ref(&a), &WCycleConfig::default());
        let gpu = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        let report = gpu.sanitizer_report();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.stats.blocks_checked > 0, "sanitizer must have run");
        for (x, y) in plain.results[0].sigma.iter().zip(&out.results[0].sigma) {
            assert_eq!(x, y, "sanitizing must not perturb numerics");
        }
    }

    #[test]
    fn sanitized_dynamic_ordering_verifies_every_sweep() {
        use wsvd_gpu_sim::SanitizeMode;
        let a = random_uniform(90, 90, 41);
        let cfg = WCycleConfig {
            dynamic_ordering: true,
            ..Default::default()
        };
        let gpu = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &cfg).unwrap();
        assert!(gpu.sanitizer_report().is_clean());
        check_svd(&a, &out.results[0], 1e-8);
    }

    #[test]
    fn simulated_time_accumulates() {
        let gpu = Gpu::new(V100);
        let mats = random_batch(4, 64, 64, 29);
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        let t = gpu.timeline();
        assert!(t.seconds > 0.0);
        assert!(t.launches > 1);
    }

    #[test]
    fn fused_levels_are_bit_identical_and_faster() {
        // The fused pipeline only changes the timing account: numerics and
        // counters must match the serial path bit for bit, while kernel time
        // (coalesced blocks ride resident waves) and overhead both drop.
        let mats = random_batch(3, 96, 96, 31);
        let serial_gpu = Gpu::new(V100);
        let serial = wcycle_svd(&serial_gpu, &mats, &WCycleConfig::default()).unwrap();
        let fused_gpu = Gpu::new(V100);
        let fused_cfg = WCycleConfig {
            fused: true,
            ..WCycleConfig::default()
        };
        let fused = wcycle_svd(&fused_gpu, &mats, &fused_cfg).unwrap();

        for (s, f) in serial.results.iter().zip(&fused.results) {
            assert_eq!(s.sigma, f.sigma, "fusion must not perturb numerics");
            assert_eq!(s.u.as_slice(), f.u.as_slice());
            assert_eq!(
                s.v.as_ref().map(|v| v.as_slice()),
                f.v.as_ref().map(|v| v.as_slice())
            );
        }
        let st = serial_gpu.timeline();
        let ft = fused_gpu.timeline();
        assert_eq!(st.launches, ft.launches);
        assert_eq!(st.totals, ft.totals);
        assert!(
            ft.kernel_seconds <= st.kernel_seconds,
            "riding resident waves can only shrink kernel time"
        );
        assert!(ft.overhead_seconds < st.overhead_seconds);
        assert!(ft.seconds < st.seconds);

        let g = fused_gpu.graph_stats();
        assert!(g.graphs >= 1, "each level replays one graph");
        assert!(g.nodes > 0);
        assert!(g.overhead_saved_seconds > 0.0);
        assert_eq!(serial_gpu.graph_stats().graphs, 0);
    }

    #[test]
    fn health_off_is_bit_identical_to_watched_run() {
        // The whole health layer is observational: simulated time and every
        // numeric output must match bit for bit whether the sink is on or
        // off. Covers both the Level-0 SM path and the block-rotation path.
        let mats = {
            let mut v = random_batch(2, 96, 96, 41);
            v.extend(random_batch(3, 16, 16, 42));
            v
        };
        let run = |with_health: bool| {
            let mut gpu = Gpu::new(V100);
            if with_health {
                let sink = wsvd_health::HealthSink::enabled();
                sink.set_context("bit-identity", 41);
                gpu.set_health(sink);
            }
            let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
            (gpu.elapsed_seconds(), gpu.timeline().totals, out)
        };
        let (t_off, c_off, out_off) = run(false);
        let (t_on, c_on, out_on) = run(true);
        assert_eq!(
            t_off.to_bits(),
            t_on.to_bits(),
            "health must not perturb simulated time"
        );
        assert_eq!(c_off, c_on);
        for (a, b) in out_off.results.iter().zip(&out_on.results) {
            assert_eq!(a.sigma, b.sigma);
            assert_eq!(a.u.as_slice(), b.u.as_slice());
            assert_eq!(
                a.v.as_ref().map(|v| v.as_slice()),
                b.v.as_ref().map(|v| v.as_slice())
            );
        }
    }

    #[test]
    fn clean_watched_run_fires_no_incidents() {
        let sink = wsvd_health::HealthSink::enabled();
        sink.set_context("clean", 7);
        let mut gpu = Gpu::new(V100);
        gpu.set_health(sink.clone());
        let mats = {
            let mut v = random_batch(2, 96, 96, 7);
            v.extend(random_batch(4, 32, 32, 8));
            v
        };
        wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        assert_eq!(
            sink.incident_count(),
            0,
            "clean run must be green: {:?}",
            sink.incidents()
                .iter()
                .map(|i| (i.kind.clone(), i.detail.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            sink.events_recorded() > 0,
            "the flight recorder still observed the run"
        );
    }

    #[test]
    fn loosened_inner_tol_fires_exactly_one_stagnation_incident() {
        // `inner_tol_override` looser than `tol` breaks the invariant that
        // inner generators out-resolve the outer test: each sweep leaves the
        // level's coherence stuck just above `tol`, the textbook stagnation
        // the watchdog exists for.
        let sink = wsvd_health::HealthSink::enabled();
        sink.set_context("stagnation", 43);
        let mut gpu = Gpu::new(V100);
        gpu.set_health(sink.clone());
        let mats = random_batch(1, 96, 96, 43);
        let cfg = WCycleConfig {
            tol: 1e-12,
            inner_tol_override: Some(1e-4),
            max_sweeps: 12,
            ..WCycleConfig::default()
        };
        wcycle_svd(&gpu, &mats, &cfg).unwrap();
        let incidents = sink.incidents();
        let stagnations: Vec<_> = incidents
            .iter()
            .filter(|i| i.kind == "stagnation")
            .collect();
        assert_eq!(
            stagnations.len(),
            1,
            "expected exactly one stagnation incident, got {incidents:?}"
        );
        let inc = stagnations[0];
        assert_eq!(inc.seed, 43, "incident must carry the replayable seed");
        assert!(inc.level.is_some());
        assert!(
            inc.plan.is_some(),
            "the in-force plan is part of the report"
        );
        assert!(!inc.flight_tail.is_empty());

        // Replay: regenerating from the embedded seed and re-running the
        // same config deterministically reproduces the stagnation.
        let replay_sink = wsvd_health::HealthSink::enabled();
        replay_sink.set_context("replay", inc.seed);
        let mut replay_gpu = Gpu::new(V100);
        replay_gpu.set_health(replay_sink.clone());
        let replay_mats = random_batch(1, 96, 96, inc.seed);
        wcycle_svd(&replay_gpu, &replay_mats, &cfg).unwrap();
        let replayed = replay_sink.incidents();
        assert_eq!(
            replayed.iter().filter(|i| i.kind == "stagnation").count(),
            1,
            "replay must reproduce the stagnation"
        );
    }
}
