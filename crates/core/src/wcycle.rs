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

use wsvd_batched::autotune::auto_tune_with_w_cap_traced;
use wsvd_batched::gemm::GemmStrategy;
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::{Gpu, KernelConfig, KernelError};
use wsvd_jacobi::batch::batched_svd_sm;
use wsvd_jacobi::evd::EvdVariant;
use wsvd_jacobi::fits::svd_fits_in_sm;
use wsvd_jacobi::onesided::{extract_u_sigma, JacobiSvd, OneSidedConfig};
use wsvd_linalg::gemm::matmul;
use wsvd_linalg::matrix::partition_cols;
use wsvd_linalg::verify::orthonormality_error;
use wsvd_linalg::Matrix;

use crate::config::{AlphaSelect, Tuning, WCycleConfig};
use crate::level::{self, Hooks, Level, Rotation, Route};
use crate::stats::{SweepRecord, WCycleStats};
use crate::verify::{effective_width, verify_level};

/// Fixed bounds for the per-matrix `sweeps_to_converge` metrics histogram.
/// Powers of two up to the practical sweep ceiling keep snapshots comparable
/// across experiments.
const SWEEP_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Aspect ratio `m / n` at and above which `qr_precondition` factors a tall
/// input before the Jacobi workflow.
const QR_ASPECT_THRESHOLD: usize = 3;

/// The SVD of one input matrix as produced by the W-cycle (and by the
/// Jacobi comparators, which share its result type).
#[derive(Debug)]
pub struct WSvd {
    /// Left singular vectors, `m x r` (`r = min(m, n)`).
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, thin `n x r` (square for `m >= n` inputs).
    /// `None` when `want_v` was off.
    pub v: Option<Matrix>,
    /// Sweeps the engine ran on this matrix: the SM kernel's for a matrix
    /// decomposed whole (level 0, `gesvdj_batched`), the top level's block
    /// sweeps otherwise, 0 for the non-Jacobi `magma_like`.
    pub sweeps: usize,
    /// Whether the engine's own convergence test passed within its sweep
    /// cap (Algorithm 2's "exits the workflow"): the SM kernel's verdict
    /// for a matrix decomposed whole, the top level's sweep-boundary test
    /// otherwise, always true for `magma_like`; false whenever a σ is not
    /// finite. Read host-side from what the sweeps computed anyway; never
    /// charged to the cost model.
    pub converged: bool,
}

impl WSvd {
    /// The factors of one decomposed task, the one way every engine builds
    /// its result: `u` (`m x r`), `sigma` (length `r`) and the accumulated
    /// `v`, its columns in σ order. The task of a wide input is its
    /// transpose, `A^T = U_t Σ V_t^T`, so `A = V_t Σ U_t^T`: they swap back.
    /// V is kept thin (`r` columns) and only when `want_v`. `sweeps` and
    /// `converged` are the engine's own status for the task; a non-finite
    /// σ (an input that overflowed) is never converged.
    pub fn oriented(
        u: Matrix,
        sigma: Vec<f64>,
        v: Option<Matrix>,
        transposed: bool,
        want_v: bool,
        sweeps: usize,
        converged: bool,
    ) -> WSvd {
        let r = sigma.len();
        let converged = converged && sigma.iter().all(|s| s.is_finite());
        let (u, v) = if transposed {
            (v.expect("wide inputs always accumulate V"), Some(u))
        } else {
            (u, v)
        };
        WSvd {
            u: thin(u, r),
            sigma,
            v: v.filter(|_| want_v).map(|v| thin(v, r)),
            sweeps,
            converged,
        }
    }
}

/// Rejects a batch holding a NaN or infinite entry, naming the first such
/// matrix: the rotations would spread it through every factor. Every
/// engine's entry runs this one check.
pub fn check_finite(mats: &[Matrix]) -> Result<(), KernelError> {
    match mats.iter().position(|a| !a.is_finite()) {
        Some(k) => Err(KernelError::Other(format!(
            "matrix {k} contains non-finite entries; its factors would be NaN"
        ))),
        None => Ok(()),
    }
}

/// The one entry of the Jacobi engines: [`check_finite`], then the batch's
/// working copy in the orientation the sweeps run on. Wide inputs are
/// transposed (fewer rotations per sweep, §IV-B) and flagged, so their
/// factors swap back in [`WSvd::oriented`]; tall and square ones are copied.
pub fn oriented_batch(mats: &[Matrix]) -> Result<Vec<(Matrix, bool)>, KernelError> {
    check_finite(mats)?;
    Ok(mats
        .iter()
        .map(|a| {
            if a.rows() < a.cols() {
                (a.transpose(), true)
            } else {
                (a.clone(), false)
            }
        })
        .collect())
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
    let smem = gpu.device().smem_per_block_bytes;
    let mut stats = WCycleStats::default();

    // Wide inputs are decomposed transposed and their factors swap back at
    // the end. Very tall inputs are optionally QR-preconditioned (refs.
    // [5]/[42]): the Jacobi workflow then runs on the square R factor and U
    // is recovered as Q U_R. These are the call's one working copy of the
    // batch: each matrix moves on from here (into the QR inputs, the level-0
    // group or the level tasks) and leaves an empty matrix behind.
    let mut prepared: Vec<(Matrix, bool, Option<Matrix>)> = oriented_batch(mats)?
        .into_iter()
        .map(|(tall, transposed)| (tall, transposed, None))
        .collect();
    if cfg.qr_precondition {
        let qr_idx: Vec<usize> = prepared
            .iter()
            .enumerate()
            .filter(|(_, (tall, _, _))| {
                tall.cols() >= 2 && tall.rows() >= QR_ASPECT_THRESHOLD * tall.cols()
            })
            .map(|(k, _)| k)
            .collect();
        if !qr_idx.is_empty() {
            let inputs: Vec<Matrix> = qr_idx
                .iter()
                .map(|&k| std::mem::take(&mut prepared[k].0))
                .collect();
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
        let group: Vec<Matrix> = fit_idx
            .iter()
            .map(|&k| std::mem::take(&mut prepared[k].0))
            .collect();
        let m_star = group.iter().map(|g| g.rows()).max().unwrap_or(1);
        let threads_per_pair = cfg.alpha.resolve(m_star);
        trace_alpha_plan(gpu, &cfg.alpha, m_star, group.len(), threads_per_pair);
        let one_sided = OneSidedConfig {
            tol: cfg.tol,
            max_sweeps: cfg.max_sweeps,
            threads_per_pair,
            cache_norms: cfg.cache_norms,
            accumulate_v: true,
            ordering: cfg.ordering,
            record_coherence: gpu.trace().is_enabled(),
            ..Default::default()
        };
        let t_pre = gpu.elapsed_seconds();
        let (mut svds, _) = batched_svd_sm(gpu, &group, &one_sided, cfg.kernel_threads)?;
        if one_sided.record_coherence {
            // The launch spans `[t_pre, t_post]` in simulated time; sweep
            // `s` of `S` is placed at the matching fraction of it.
            let t_post = gpu.elapsed_seconds();
            let records = level0_sweeps(&svds);
            let s_max = records.len();
            for (s, rec) in records.into_iter().enumerate() {
                let ts = t_pre + (t_post - t_pre) * (s + 1) as f64 / s_max as f64;
                let detail = SweepDetail::Kernel {
                    matrices: svds.len(),
                };
                emit_sweep(gpu, rec, ts, detail);
            }
        }
        stats.level0_sm_svds = svds.len();
        // Level-0 registry metrics mirror the per-level hook in
        // `decompose_level`: whole-in-SM decompositions are "level 0".
        level_metrics(gpu, 0, t_pre, svds.iter().map(|o| o.stats.sweeps));
        recover_qr_u(gpu, &fit_idx, &prepared, svds.iter_mut().map(|s| &mut s.u))?;
        for (&k, svd) in fit_idx.iter().zip(svds) {
            let (u, sigma, v) = (svd.u, svd.sigma, Some(svd.v));
            let (sweeps, converged) = (svd.stats.sweeps, svd.stats.converged);
            let transposed = prepared[k].1;
            slots[k] = Some(WSvd::oriented(
                u, sigma, v, transposed, cfg.want_v, sweeps, converged,
            ));
        }
    }

    if !rest_idx.is_empty() {
        let mut tasks: Vec<Matrix> = rest_idx
            .iter()
            .map(|&k| std::mem::take(&mut prepared[k].0))
            .collect();
        // V is needed when the caller wants it, or to recover U of a
        // transposed (wide) input.
        let need_v: Vec<bool> = rest_idx
            .iter()
            .map(|&k| cfg.want_v || prepared[k].1)
            .collect();
        let outcomes = decompose_level(gpu, &mut tasks, &need_v, 1, 48, cfg, &mut stats)?;

        // Final extraction kernel: U = normalize(columns), Σ = column norms,
        // each task turned into its U and its V put in σ order in place.
        let kc = KernelConfig::new(tasks.len(), cfg.kernel_threads, 0, "wcycle_extract");
        let mut extracted: Vec<_> = tasks
            .into_iter()
            .zip(outcomes)
            .map(|(t, o)| (t, o.v, Vec::new(), o.status))
            .collect();
        gpu.launch_over(kc, &mut extracted, |_, (t, v, sigma, _), ctx| {
            ctx.count_gm_load(t.len());
            ctx.par_step(t.len(), 2);
            ctx.count_gm_store(t.len());
            *sigma = extract_u_sigma(t, v.as_mut());
            Ok(())
        })?;
        recover_qr_u(
            gpu,
            &rest_idx,
            &prepared,
            extracted.iter_mut().map(|e| &mut e.0),
        )?;
        for (&k, (u, v, sigma, (sweeps, converged))) in rest_idx.iter().zip(extracted) {
            let transposed = prepared[k].1;
            slots[k] = Some(WSvd::oriented(
                u, sigma, v, transposed, cfg.want_v, sweeps, converged,
            ));
        }
    }

    let results: Vec<WSvd> = slots
        .into_iter()
        .map(|s| s.expect("every input decomposed"))
        .collect();
    // `tol == 0` is the explicit truncated-run mode (run exactly
    // `max_sweeps`, converged or not — the accuracy experiments use it to
    // chart error vs sweep count), so the convergence contract the health
    // checks enforce is waived there.
    if cfg.tol > 0.0 {
        health_batch_checks(gpu, mats, &results);
    }
    Ok(WCycleOutput { results, stats })
}

/// End-of-run health checks, per matrix. An unconverged matrix goes to
/// [`not_converged`](wsvd_health::HealthSink::not_converged) and nothing
/// else: its factors make no accuracy promise. A converged one goes to the
/// drift monitors: the orthogonality error of the numerically significant
/// left singular directions and (when V is available) the relative
/// reconstruction residual, both fed to
/// [`batch_check`](wsvd_health::HealthSink::batch_check). Directions with
/// `sigma <= sigma_max * eps * max(m, n)` carry no reliable basis — on
/// rank-deficient or extremely ill-conditioned inputs (the Table-VII
/// cases) their vectors are arbitrary within round-off, so they are
/// excluded rather than allowed to trip false alarms. Only called for
/// converging runs (`tol > 0`): a truncated run is unconverged by design
/// and its factors make no orthogonality promise. Host-side and
/// health-gated: never charged to the cost model.
fn health_batch_checks(gpu: &Gpu, mats: &[Matrix], results: &[WSvd]) {
    let health = gpu.health();
    if !health.is_enabled() {
        return;
    }
    let t_sim = gpu.elapsed_seconds();
    for (k, (a, r)) in mats.iter().zip(results).enumerate() {
        if !r.converged {
            health.not_converged(k, r.sweeps, t_sim);
            continue;
        }
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
            let mut us = r.u.clone();
            for (j, &s) in r.sigma.iter().enumerate() {
                us.col_mut(j).iter_mut().for_each(|x| *x *= s);
            }
            let recon = matmul(&us, &thin(v.clone(), rank).transpose());
            recon.sub(a).max_abs() / sigma_max
        });
        health.batch_check(k, residual, orthogonality, t_sim);
    }
}

/// Emits the Level-0 α-warp selection (§IV-B1) as an auto-tuner plan event:
/// the rule's rejected team widths from [`wsvd_batched::TPP_CANDIDATES`] go
/// into the event args alongside the chosen one.
fn trace_alpha_plan(gpu: &Gpu, alpha: &AlphaSelect, m_star: usize, batch: usize, chosen: usize) {
    let trace = gpu.trace();
    if !trace.is_enabled() {
        return;
    }
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

/// The per-sweep records of a Level-0 batched SM SVD launch, folded once
/// from the kernels' recorded coherence histories: sweep `s` takes the
/// largest coherence any matrix reached in it and counts the matrices still
/// sweeping after it.
fn level0_sweeps(svds: &[JacobiSvd]) -> Vec<SweepRecord> {
    let s_max = svds.iter().map(|o| o.stats.sweeps).max().unwrap_or(0);
    (0..s_max)
        .map(|s| SweepRecord {
            level: 0,
            sweep: (s + 1) as u64,
            off_norm: svds
                .iter()
                .filter_map(|o| o.coherence_per_sweep.get(s))
                .fold(0.0f64, |acc, &c| acc.max(c)),
            active: svds.iter().filter(|o| o.stats.sweeps > s + 1).count() as u64,
        })
        .collect()
}

/// What a sweep's trace instant says beyond its [`SweepRecord`].
enum SweepDetail {
    /// A Level-0 batched SM SVD launch over this many whole matrices.
    Kernel { matrices: usize },
    /// A Level-h sweep: block rotations, and how many pair blocks took each
    /// of Algorithm 2's three routes (SM SVD, Gram + SM EVD, recursion).
    Blocks {
        rotations: u64,
        ga: u64,
        gb: u64,
        gc: u64,
    },
}

/// Sends one sweep's record, at simulated time `ts`, to the `wcycle/sweep`
/// trace instant.
fn emit_sweep(gpu: &Gpu, rec: SweepRecord, ts: f64, detail: SweepDetail) {
    let trace = gpu.trace();
    if trace.is_enabled() {
        let mut args = vec![("level", rec.level.into()), ("sweep", rec.sweep.into())];
        if let SweepDetail::Blocks {
            rotations,
            ga,
            gb,
            gc,
        } = detail
        {
            args.push(("rotations", rotations.into()));
            args.push(("ga_sm_svd", ga.into()));
            args.push(("gb_gram_evd", gb.into()));
            args.push(("gc_recursed", gc.into()));
        }
        args.push(("coherence", rec.off_norm.into()));
        args.push(("active", rec.active.into()));
        if let SweepDetail::Kernel { matrices } = detail {
            args.push(("matrices", matrices.into()));
        }
        trace.instant(gpu.trace_pid(), "wcycle", "sweep", ts, args);
    }
}

/// Outcome of decomposing one task at a level: the matrix itself has been
/// orthogonalized in place (columns = `UΣ`, unsorted). `status` is the
/// level engine's (sweeps, converged) for the task.
struct LevelOutcome {
    v: Option<Matrix>,
    status: (usize, bool),
}

/// Orthogonalizes every task's columns via block rotations at `level`,
/// recursing for pair blocks that fit neither SM kernel: the level engine
/// on the multilevel route, wrapped in what only the W-cycle does.
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
    let inner_tol = level::inner_tol(cfg);
    let sizes: Vec<(usize, usize)> = tasks.iter().map(|t| t.shape()).collect();
    let plan = resolve_plan(gpu, cfg, level, &sizes, w_cap);
    stats.note_width(level, plan.w);
    let trace = gpu.trace().clone();
    let traced = trace.is_enabled();
    let level_t0 = gpu.elapsed_seconds();
    let health = gpu.health();
    if health.is_enabled() {
        health.plan_selected(level, plan.w, plan.delta, plan.threads);
    }
    if gpu.sanitize_enabled() {
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
    // Group (iii): recurse with a smaller width (Level h+1).
    let sub_cfg = WCycleConfig {
        tol: inner_tol,
        ..cfg.clone()
    };
    let next_cap = plan.w.saturating_sub(1).max(1);
    let mut recurse = |blocks: &mut [Matrix], stats: &mut WCycleStats| {
        let all_v = vec![true; blocks.len()];
        let outcomes = decompose_level(gpu, blocks, &all_v, level + 1, next_cap, &sub_cfg, stats)?;
        Ok(outcomes
            .into_iter()
            .map(|o| o.v.expect("recursion always accumulates V"))
            .collect())
    };
    let mut sweep_done = |rec, blocks: [u64; 4]| {
        let detail = SweepDetail::Blocks {
            rotations: blocks.iter().sum(),
            ga: blocks[Rotation::SmSvd as usize],
            gb: blocks[Rotation::GramEvd as usize],
            gc: blocks[Rotation::Recurse as usize],
        };
        emit_sweep(gpu, rec, gpu.elapsed_seconds(), detail);
    };
    let engine = Level {
        level,
        route: Route::Multilevel,
        parts: &parts,
        strategy,
        evd_variant: EvdVariant::Parallel,
        cfg,
    };
    let hooks = Hooks {
        recurse: &mut recurse,
        sweep_done: &mut sweep_done,
    };
    let status = engine.run(gpu, tasks, &mut vs, stats, Some(hooks))?;
    let sweeps = status.iter().map(|&(s, _)| s);

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
                ("max_sweeps_used", sweeps.clone().max().unwrap_or(0).into()),
            ],
        );
    }

    // Per-level registry metrics: time share, convergence behaviour and the
    // chosen plan, keyed by W-cycle level. All values are already computed
    // by the algorithm (or are host-side reads of simulated time), so with
    // the sink disabled nothing here runs and the run stays bit-identical.
    level_metrics(gpu, level, level_t0, sweeps);
    let metrics = gpu.metrics();
    if metrics.is_enabled() {
        metrics.gauge_set("wcycle", Some(level), "plan_w", plan.w as f64);
        metrics.gauge_set("wcycle", Some(level), "plan_delta", plan.delta as f64);
        metrics.gauge_set("wcycle", Some(level), "plan_threads", plan.threads as f64);
    }

    Ok(vs
        .into_iter()
        .zip(status)
        .map(|(v, status)| LevelOutcome { v, status })
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

/// The registry metrics every level records, keyed by W-cycle level: its
/// simulated seconds since `t0`, its tasks and their sweep counts.
fn level_metrics(gpu: &Gpu, level: usize, t0: f64, sweeps: impl Iterator<Item = usize> + Clone) {
    let metrics = gpu.metrics();
    if !metrics.is_enabled() {
        return;
    }
    let seconds = gpu.elapsed_seconds() - t0;
    metrics.counter_add("wcycle", Some(level), "level_seconds", seconds);
    metrics.counter_add(
        "wcycle",
        Some(level),
        "tasks",
        sweeps.clone().count() as f64,
    );
    let max_sweeps = sweeps.clone().max().unwrap_or(0);
    metrics.counter_add("wcycle", Some(level), "sweeps", max_sweeps as f64);
    for s in sweeps {
        metrics.observe(
            "wcycle",
            Some(level),
            "sweeps_to_converge",
            &SWEEP_BUCKETS,
            s as f64,
        );
    }
}

/// `U = Q U_R` for the QR-preconditioned inputs among `idx`, whose `U_R`
/// are `us` in `idx` order: one batched recovery GEMM launch.
fn recover_qr_u<'a>(
    gpu: &Gpu,
    idx: &[usize],
    prepared: &[(Matrix, bool, Option<Matrix>)],
    us: impl Iterator<Item = &'a mut Matrix>,
) -> Result<(), KernelError> {
    let mut items: Vec<(&Matrix, &mut Matrix)> = idx
        .iter()
        .zip(us)
        .filter_map(|(&k, u)| prepared[k].2.as_ref().map(|q| (q, u)))
        .collect();
    if items.is_empty() {
        return Ok(());
    }
    let kc = KernelConfig::new(items.len(), 256, 16 * 1024, "wcycle_qr_recover");
    let (products, _) = {
        let items = &items;
        gpu.launch_collect(kc, |b, ctx| {
            let (q, u) = &items[b];
            let (m, k) = q.shape();
            let r = u.cols();
            ctx.count_gm_load(m * k + k * r);
            ctx.par_step(m * r, 2 * k as u64);
            ctx.count_gm_store(m * r);
            Ok(wsvd_linalg::matmul(q, u))
        })?
    };
    for ((_, u), product) in items.iter_mut().zip(products) {
        **u = product;
    }
    Ok(())
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
        Tuning::Auto { threshold } => {
            auto_tune_with_w_cap_traced(sizes, *threshold, w_cap, gpu, level)
        }
        Tuning::Fixed(p) => TailorPlan::new(p.w.min(w_cap), p.delta, p.threads),
        Tuning::Widths(ws) => {
            let w = *ws.get(level - 1).or_else(|| ws.last()).unwrap_or(&8);
            TailorPlan::new(w.min(w_cap), m_star, 256)
        }
    }
}

/// The first `r` columns of `m` (all of them when it has no more).
fn thin(mut m: Matrix, r: usize) -> Matrix {
    m.truncate_cols(r);
    m
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
    }

    #[test]
    fn level0_sweep_cap_reports_not_converged() {
        let cfg = WCycleConfig {
            tol: 1e-12,
            max_sweeps: 1,
            ..WCycleConfig::default()
        };
        let out = run(&[random_uniform(24, 24, 3)], &cfg);
        assert_eq!(out.stats.level0_sm_svds, 1);
        let r = &out.results[0];
        assert_eq!((r.sweeps, r.converged), (1, false));
    }

    /// A watched run of the `ext-health` planted-cap scenario: one 96x96
    /// matrix, capped at two multilevel sweeps.
    fn capped_run(seed: u64, cfg: &WCycleConfig) -> (wsvd_health::HealthSink, WCycleOutput) {
        let sink = wsvd_health::HealthSink::enabled();
        sink.set_context("cap", seed);
        let mut gpu = Gpu::new(V100);
        gpu.set_health(sink.clone());
        let out = wcycle_svd(&gpu, &random_batch(1, 96, 96, seed), cfg).unwrap();
        (sink, out)
    }

    #[test]
    fn sweep_cap_fires_one_not_converged_incident_that_replays() {
        let cfg = WCycleConfig {
            tol: 1e-12,
            max_sweeps: 2,
            ..WCycleConfig::default()
        };
        let (sink, out) = capped_run(43, &cfg);
        assert_eq!(
            (out.results[0].sweeps, out.results[0].converged),
            (2, false)
        );
        let incidents = sink.incidents();
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        let inc = &incidents[0];
        assert_eq!(inc.kind, "not-converged");
        assert_eq!(inc.detail, "matrix 0: not converged after 2 sweep(s)");
        assert_eq!(inc.seed, 43, "incident must carry the replayable seed");
        assert_eq!(inc.level, Some(1));
        assert!(
            inc.plan.is_some(),
            "the in-force plan is part of the report"
        );

        // Regenerating from the embedded seed and re-running the same config
        // reproduces the incident.
        let (replay, _) = capped_run(inc.seed, &cfg);
        let kinds: Vec<String> = replay.incidents().into_iter().map(|i| i.kind).collect();
        assert_eq!(kinds, ["not-converged"]);
    }

    #[test]
    fn truncated_run_raises_no_incident() {
        // `tol == 0` runs exactly `max_sweeps` by design: unconverged, yet
        // no incident.
        let cfg = WCycleConfig {
            tol: 0.0,
            max_sweeps: 2,
            ..WCycleConfig::default()
        };
        let (sink, out) = capped_run(43, &cfg);
        assert!(!out.results[0].converged);
        assert_eq!(sink.incident_count(), 0, "{:?}", sink.incidents());
    }
}
