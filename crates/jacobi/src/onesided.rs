//! One-sided Jacobi SVD kernels (column-vector rotations, §II-C and §IV-B).
//!
//! One simulated thread block decomposes one matrix. The same numerical
//! routine backs two kernels that differ only in where the working set
//! lives:
//!
//! * [`MemSpace::Shared`] — the batched *SVD kernel in SM*: the matrix, the
//!   accumulated `V` and the cached column norms are charged to the block's
//!   48 KiB arena (allocation fails if they do not fit, enforcing the
//!   Algorithm-2 predicate);
//! * [`MemSpace::Global`] — the same rotations with every column touch
//!   counted as global-memory traffic (the slow case of Fig. 1 and the
//!   fallback path of the cuSOLVER-like baseline).
//!
//! The kernel implements both §IV-B optimizations: the α-warp assignment of
//! column-pair tasks (`threads_per_pair`) and the Eq.-(6) inner-product
//! caching that avoids two-thirds of the dot products.

use wsvd_gpu_sim::{BlockCtx, KernelError, SmemBuf};
use wsvd_linalg::gemm::{col_pair_dots_with, dot};
use wsvd_linalg::givens::{one_sided_rotation, rotate_columns, rotated_norms, Rotation};
use wsvd_linalg::matrix::Columns;
use wsvd_linalg::simd::{self, Isa, Tier};
use wsvd_linalg::Matrix;

use crate::ordering::Ordering;

/// Shared-memory placement of the one-sided kernel's working set. When the
/// hazard sanitizer is active, the kernel uses this to attribute each lane's
/// column reads/writes to the real SM buffers (lane = pair-team index).
pub struct SvdSmemLayout<'a> {
    /// The column-major working matrix (`m x n` elements).
    pub a: &'a SmemBuf,
    /// The accumulated right factor (`n x n` elements), when SM-resident.
    pub v: Option<&'a SmemBuf>,
    /// The cached column norms (at least `n` elements).
    pub norms: &'a SmemBuf,
}

/// Where the kernel's working set lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSpace {
    /// Working set in the block's shared-memory arena.
    Shared,
    /// Working set in global memory (every column access counted).
    Global,
}

/// Configuration of the one-sided Jacobi kernel.
#[derive(Clone, Copy, Debug)]
pub struct OneSidedConfig {
    /// Convergence threshold on the normalized column coherence
    /// `|a_i.a_j| / (||a_i|| ||a_j||)`.
    pub tol: f64,
    /// Sweep cap (a sweep visits every pair once).
    pub max_sweeps: usize,
    /// Threads cooperating on one column pair (`α`-warp of §IV-B1:
    /// `α ∈ {1, 1/2, 1/4, 1/8}` of a 32-thread warp). 1 models the naive
    /// one-thread-per-pair assignment of older implementations.
    pub threads_per_pair: usize,
    /// Enable the Eq.-(6) cached-norm update (§IV-B2). When disabled all
    /// three inner products are recomputed per rotation.
    pub cache_norms: bool,
    /// Accumulate the right singular matrix `V` (the `J_ij` consumed by the
    /// W-cycle). Costs an `n x n` SM buffer and extra rotation work.
    pub accumulate_v: bool,
    /// Pair-ordering schedule.
    pub ordering: Ordering,
    /// Model a kernel that re-stages the working set from global memory at
    /// every sweep (a kernel that exits per sweep for host-side convergence
    /// checks, like cuSOLVER's `gesvdj`), instead of staying SM-resident.
    pub gm_stage_per_sweep: bool,
    /// Record the per-sweep maximum coherence in
    /// [`SweepOutcome::coherence_per_sweep`] (convergence telemetry for
    /// tracing; off by default so untraced runs allocate nothing).
    pub record_coherence: bool,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_sweeps: 60,
            threads_per_pair: 8,
            cache_norms: true,
            accumulate_v: true,
            ordering: Ordering::RoundRobin,
            gm_stage_per_sweep: false,
            record_coherence: false,
        }
    }
}

/// Counters describing one matrix's Jacobi iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JacobiStats {
    /// Sweeps executed until convergence (or the cap).
    pub sweeps: usize,
    /// Plane rotations actually applied.
    pub rotations: u64,
    /// Column inner products computed.
    pub dots_computed: u64,
    /// Inner products avoided by the Eq.-(6) cache.
    pub dots_avoided: u64,
    /// True when the coherence tolerance was met within `max_sweeps`.
    pub converged: bool,
}

/// Outcome of running the sweeps: the matrix columns have converged to
/// `U Σ`; `v` holds the accumulated rotations when requested.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Accumulated right factor (identity-initialized), if requested.
    pub v: Option<Matrix>,
    /// Iteration statistics.
    pub stats: JacobiStats,
    /// Maximum coherence observed during each sweep, oldest first. Empty
    /// unless [`OneSidedConfig::record_coherence`] was set.
    pub coherence_per_sweep: Vec<f64>,
}

/// Runs one-sided Jacobi sweeps on `a` in place (columns converge to `UΣ`).
///
/// This is the shared engine; use [`svd_in_block`] for the full
/// kernel (transpose handling, factor extraction, SM accounting).
pub fn one_sided_sweeps(
    a: &mut Matrix,
    cfg: &OneSidedConfig,
    ctx: &mut BlockCtx,
    space: MemSpace,
) -> SweepOutcome {
    one_sided_sweeps_in(a, cfg, ctx, space, None)
}

wsvd_linalg::dispatch! {
    /// [`one_sided_sweeps`] with an explicit shared-memory layout so the hazard
    /// sanitizer can check the kernel's barrier structure: each rotation step is
    /// one barrier epoch in which pair-team `t` owns columns `(i_t, j_t)` of the
    /// matrix and of `V` plus their two norm-cache slots; the per-sweep norm
    /// refresh is its own epoch (lane = column). A schedule with overlapping
    /// pairs therefore surfaces as a write–write race on the shared column.
    pub fn one_sided_sweeps_in(
        a: &mut Matrix,
        cfg: &OneSidedConfig,
        ctx: &mut BlockCtx,
        space: MemSpace,
        layout: Option<&SvdSmemLayout<'_>>,
    ) -> SweepOutcome => one_sided_sweeps_with, one_sided_sweeps_in_on
}

/// The body of [`one_sided_sweeps_in`] for instruction set `I`.
#[inline(always)]
fn one_sided_sweeps_with<I: Isa>(
    isa: I,
    a: &mut Matrix,
    cfg: &OneSidedConfig,
    ctx: &mut BlockCtx,
    space: MemSpace,
    layout: Option<&SvdSmemLayout<'_>>,
) -> SweepOutcome {
    let (m, n) = a.shape();
    let mut v = if cfg.accumulate_v {
        Some(Matrix::identity(n))
    } else {
        None
    };
    let mut stats = JacobiStats::default();
    if n < 2 {
        stats.converged = true;
        return SweepOutcome {
            v,
            stats,
            coherence_per_sweep: Vec::new(),
        };
    }
    let mut coherence_per_sweep = Vec::new();

    let schedule = cfg.ordering.schedule(n);
    let tpp = cfg.threads_per_pair.max(1);
    let mut norms = vec![0.0; n];
    let mut step_dots: Vec<f64> = Vec::new();
    let mut step_rots: Vec<(usize, usize, Rotation)> = Vec::new();

    // De Rijk deflation: columns whose squared norm falls below
    // (eps * ||A||_F)^2 are numerically zero — rotating against them only
    // churns round-off, and their "coherence" is noise. They are skipped by
    // both the rotations and the convergence measure.
    let fro2: f64 = (0..n).map(|j| dot(a.col(j), a.col(j))).sum();
    let deflate_below = fro2 * (f64::EPSILON * f64::EPSILON);

    for _sweep in 0..cfg.max_sweeps {
        stats.sweeps += 1;
        let mut max_coherence = 0.0f64;

        if cfg.gm_stage_per_sweep {
            // The working set (matrix + accumulated V) round-trips through
            // global memory once per sweep.
            let v_elems = if cfg.accumulate_v { n * n } else { 0 };
            ctx.count_gm_load(m * n + v_elems);
            ctx.count_gm_store(m * n + v_elems);
        }

        if cfg.cache_norms {
            // Refresh the cached norms once per sweep (the cache is updated
            // analytically by Eq. 6 within the sweep).
            // Four independent column norms at a time.
            let mut j = 0;
            while j + 4 <= n {
                let cols = [a.col(j), a.col(j + 1), a.col(j + 2), a.col(j + 3)];
                norms[j..j + 4].copy_from_slice(&isa.dot4(cols, cols));
                j += 4;
            }
            for (j, nj) in norms.iter_mut().enumerate().skip(j) {
                *nj = dot(a.col(j), a.col(j));
            }
            stats.dots_computed += n as u64;
            ctx.team_reduce(n, tpp, m);
            if space == MemSpace::Global {
                ctx.count_gm_load(n * m);
            }
            // Refresh epoch: lane j reads column j and writes its norm slot.
            if ctx.sanitizing() {
                if let Some(lay) = layout {
                    for j in 0..n {
                        ctx.smem_read(j, lay.a, j * m, m);
                        ctx.smem_write(j, lay.norms, j, 1);
                    }
                }
            }
            ctx.sync_threads();
        }

        for step in &schedule {
            let pairs = step.len();
            if pairs == 0 {
                continue;
            }
            // Cost: each pair team computes one (cached) or three dots.
            let dots_per_pair = if cfg.cache_norms { 1 } else { 3 };
            ctx.team_reduce(pairs * dots_per_pair, tpp, m);
            if space == MemSpace::Global {
                ctx.count_gm_load(pairs * 2 * m);
            }

            // Rotation epoch: pair-team `t` owns its two columns (and their
            // norm-cache slots) exclusively; conflict-free schedules make
            // these access sets disjoint across lanes.
            if ctx.sanitizing() {
                if let Some(lay) = layout {
                    for (t, &(i, j)) in step.iter().enumerate() {
                        ctx.smem_write(t, lay.a, i * m, m);
                        ctx.smem_write(t, lay.a, j * m, m);
                        if let Some(vb) = lay.v {
                            ctx.smem_write(t, vb, i * n, n);
                            ctx.smem_write(t, vb, j * n, n);
                        }
                        if cfg.cache_norms {
                            ctx.smem_write(t, lay.norms, i, 1);
                            ctx.smem_write(t, lay.norms, j, 1);
                        }
                    }
                }
            }

            // The step's pairs are disjoint, so its work runs in phases with
            // the same result as pair by pair: every `a_i · a_j` (four pairs
            // at a time), then every rotation and Eq.-6 norm update, then
            // the rotations of A, then those of V.
            col_pair_dots_with(isa, a, step, &mut step_dots);
            step_rots.clear();
            for (&(i, j), &aij) in step.iter().zip(&step_dots) {
                let (aii, ajj) = if cfg.cache_norms {
                    (norms[i], norms[j])
                } else {
                    stats.dots_computed += 2;
                    (dot(a.col(i), a.col(i)), dot(a.col(j), a.col(j)))
                };
                if aii <= deflate_below || ajj <= deflate_below {
                    continue; // numerically zero column: deflated
                }
                stats.dots_computed += 1;
                if cfg.cache_norms {
                    stats.dots_avoided += 2;
                }

                let denom = (aii * ajj).sqrt();
                // Only an exact zero product is skipped: a NaN norm makes
                // the coherence NaN, which never reads as converged.
                let coherence = if denom > 0.0 || denom.is_nan() {
                    aij.abs() / denom
                } else {
                    0.0
                };
                max_coherence = max_carrying_nan(max_coherence, coherence);
                if coherence <= cfg.tol {
                    continue;
                }

                let rot = one_sided_rotation(aii, aij, ajj);
                if cfg.cache_norms {
                    (norms[i], norms[j]) = rotated_norms(rot, aii, aij, ajj);
                }
                step_rots.push((i, j, rot));
            }
            for &(i, j, rot) in &step_rots {
                let (ci, cj) = a.col_pair_mut(i, j);
                rotate_columns(rot, ci, cj);
            }
            if let Some(v) = v.as_mut() {
                for &(i, j, rot) in &step_rots {
                    let (vi, vj) = v.col_pair_mut(i, j);
                    rotate_columns(rot, vi, vj);
                }
            }
            let rotated_pairs = step_rots.len();
            stats.rotations += rotated_pairs as u64;

            if rotated_pairs > 0 {
                // Rotation parameters (Eq. 4): ~20 scalar ops per team.
                ctx.team_step(rotated_pairs, tpp, 1, 20);
                // Column update (Eq. 3): 6 ops per element pair.
                ctx.team_step(rotated_pairs, tpp, m, 6);
                if cfg.accumulate_v {
                    ctx.team_step(rotated_pairs, tpp, n, 6);
                }
                if cfg.cache_norms {
                    // Eq. (6) norm update: ~12 ops per team.
                    ctx.team_step(rotated_pairs, tpp, 1, 12);
                }
                if space == MemSpace::Global {
                    ctx.count_gm_store(rotated_pairs * 2 * m);
                    if cfg.accumulate_v {
                        ctx.count_gm_load(rotated_pairs * 2 * n);
                        ctx.count_gm_store(rotated_pairs * 2 * n);
                    }
                }
            }
            // Barrier between steps: the next step's pairs may touch any
            // column this step rotated.
            ctx.sync_threads();
        }

        if cfg.record_coherence {
            coherence_per_sweep.push(max_coherence);
        }
        if max_coherence <= cfg.tol {
            stats.converged = true;
            break;
        }
    }
    SweepOutcome {
        v,
        stats,
        coherence_per_sweep,
    }
}

/// `a.max(b)`, except that a NaN in either is the result: a NaN coherence
/// must keep the sweep loop from reporting convergence, and `f64::max`
/// would drop it.
#[inline(always)]
fn max_carrying_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Full SVD of one matrix produced by a Jacobi kernel.
#[derive(Debug)]
pub struct JacobiSvd {
    /// Left singular vectors, `m x r`.
    pub u: Matrix,
    /// Singular values, descending, length `r = min(m, n)`.
    pub sigma: Vec<f64>,
    /// Right singular vectors. `n x n` (full) when the kernel accumulated or
    /// completed them, `n x r` thin otherwise.
    pub v: Matrix,
    /// Iteration statistics.
    pub stats: JacobiStats,
    /// Per-sweep maximum coherence (empty unless
    /// [`OneSidedConfig::record_coherence`] was set).
    pub coherence_per_sweep: Vec<f64>,
}

impl JacobiSvd {
    /// Writes the rotated block `A V = U Σ` into `cols`, one slice per
    /// column of `V`, each `U.rows()` long (for example the pair block's
    /// columns in its task); columns beyond `Σ` (rank-deficient wide
    /// blocks) are zeroed.
    pub fn rotated_block_into(&self, cols: &mut [&mut [f64]]) {
        assert_eq!(cols.len(), self.v.cols(), "one slice per column of V");
        for (k, dst) in cols.iter_mut().enumerate() {
            assert_eq!(dst.len(), self.u.rows(), "columns as long as U's");
            match self.sigma.get(k) {
                Some(&s) => {
                    for (d, &x) in dst.iter_mut().zip(self.u.col(k)) {
                        *d = s * x;
                    }
                }
                None => dst.fill(0.0),
            }
        }
    }
}

/// Sorted `(U, Σ)` extraction from converged columns (`columns = UΣ`), in
/// place: `conv` becomes U (`m x r`, `r = min(m, n)`), its columns sorted by
/// descending σ = `sqrt(col · col)` and normalized (a zero column becomes
/// `e_k`), and `v`'s columns, the accumulated rotations, move into the same
/// order. Columns whose σ are bitwise equal keep their index order. Returns
/// Σ. Every Jacobi engine ends here: the kernel, the W-cycle's final
/// extraction and the block-Jacobi baselines.
pub fn extract_u_sigma(conv: &mut Matrix, v: Option<&mut Matrix>) -> Vec<f64> {
    let (m, n) = conv.shape();
    let sig: Vec<f64> = (0..n)
        .map(|j| dot(conv.col(j), conv.col(j)).sqrt())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| sig[y].total_cmp(&sig[x]));
    conv.permute_cols(&order);
    if let Some(v) = v {
        v.permute_cols(&order);
    }
    let r = m.min(n);
    conv.truncate_cols(r);
    order[..r]
        .iter()
        .enumerate()
        .map(|(k, &j)| {
            let (s, col) = (sig[j], conv.col_mut(k));
            if s > 0.0 {
                col.iter_mut().for_each(|x| *x /= s);
            } else {
                col.fill(0.0);
                col[k] = 1.0;
            }
            s
        })
        .collect()
}

/// One-sided Jacobi SVD of one matrix inside one simulated block.
///
/// * `a` is read where it lives (a [`Matrix`], or a pair block's columns in
///   its task) into the block's one working copy, which the sweeps rotate.
/// * Tall or square input runs directly; wide input (`m < n`) decomposes the
///   transpose (fewer rotations per sweep, §IV-B) and swaps the factors; its
///   full `n x n` V is completed with Gram–Schmidt over the null space so
///   the W-cycle can apply `J_ij` as a square rotation.
/// * `space == Shared` charges the exact working set to the block's arena —
///   the call fails with [`KernelError::Smem`] when it does not fit.
pub fn svd_in_block(
    a: &dyn Columns,
    cfg: &OneSidedConfig,
    ctx: &mut BlockCtx,
    space: MemSpace,
) -> Result<JacobiSvd, KernelError> {
    svd_in_block_on(a, cfg, ctx, space, simd::tier())
}

/// [`svd_in_block`] running its sweeps on the copy compiled for `tier`,
/// which this CPU must run (the tests run every copy it has).
fn svd_in_block_on(
    a: &dyn Columns,
    cfg: &OneSidedConfig,
    ctx: &mut BlockCtx,
    space: MemSpace,
    tier: Tier,
) -> Result<JacobiSvd, KernelError> {
    let (m, n) = a.shape();
    let wide = m < n;
    // The block's working copy (its shared-memory tile): A, or A^T (tall)
    // for a wide input.
    let mut work = if wide {
        Matrix::from_fn(n, m, |i, j| a.col(i)[j])
    } else {
        Matrix::from_columns(a)
    };
    let (rows, cols) = work.shape();
    // Charge the SM working set: matrix + V accumulation + norm caches.
    let bufs = if space == MemSpace::Shared {
        let a_buf = ctx.gm_load_to_smem(work.as_slice())?;
        let v_buf = if wide || cfg.accumulate_v {
            Some(ctx.smem().alloc(cols * cols)?)
        } else {
            None
        };
        let n_buf = ctx.smem().alloc(2 * cols)?;
        // Staging barrier: the cooperative GM load completes before any
        // lane reads the SM-resident working set.
        ctx.sync_threads();
        Some((a_buf, v_buf, n_buf))
    } else {
        None
    };
    let layout = bufs.as_ref().map(|(a_buf, v_buf, n_buf)| SvdSmemLayout {
        a: a_buf,
        v: v_buf.as_ref(),
        norms: n_buf,
    });
    let cfg = OneSidedConfig {
        accumulate_v: true,
        ..*cfg
    };
    let out = one_sided_sweeps_in_on(tier, &mut work, &cfg, ctx, space, layout.as_ref())
        .expect("svd_in_block_on runs a tier this CPU has");
    if space == MemSpace::Shared {
        // Write-back barrier, then the cooperative GM store.
        ctx.sync_threads();
        ctx.count_gm_store(rows * cols + cols * cols);
    }
    let mut v = out.v.expect("accumulate_v forced on");
    let sigma = extract_u_sigma(&mut work, Some(&mut v));
    let (u, v) = if wide {
        // A^T = U_t Σ V_t^T, so A = V_t Σ U_t^T: the accumulated V is U of
        // A, and the thin U of A^T is V of A, completed to square.
        let v_full = complete_orthonormal(&work, &sigma, ctx);
        (v, v_full)
    } else {
        (work, v)
    };
    Ok(JacobiSvd {
        u,
        sigma,
        v,
        stats: out.stats,
        coherence_per_sweep: out.coherence_per_sweep,
    })
}

/// Completes a thin `n x r` orthonormal set (columns with tiny singular
/// values treated as undetermined) to a full `n x n` orthonormal basis via
/// modified Gram–Schmidt against the coordinate vectors.
fn complete_orthonormal(thin: &Matrix, sigma: &[f64], ctx: &mut BlockCtx) -> Matrix {
    let n = thin.rows();
    let r = thin.cols();
    let cutoff = sigma.first().copied().unwrap_or(0.0) * 1e-13;
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(n);
    for (j, &s) in sigma.iter().take(r).enumerate() {
        if s > cutoff {
            basis.push(thin.col(j).to_vec());
        }
    }
    // Candidate coordinate vectors fill the remaining directions.
    let mut e = 0usize;
    while basis.len() < n && e < n {
        let mut cand = vec![0.0; n];
        cand[e] = 1.0;
        e += 1;
        for b in &basis {
            let proj = dot(&cand, b);
            for i in 0..n {
                cand[i] -= proj * b[i];
            }
        }
        let nrm = dot(&cand, &cand).sqrt();
        if nrm > 1e-8 {
            for x in &mut cand {
                *x /= nrm;
            }
            basis.push(cand);
        }
    }
    assert_eq!(basis.len(), n, "failed to complete orthonormal basis");
    ctx.par_step(n * n, 4); // Gram–Schmidt cost estimate
    let mut v = Matrix::zeros(n, n);
    for (j, b) in basis.iter().enumerate() {
        v.col_mut(j).copy_from_slice(b);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{Gpu, KernelConfig, V100};
    use wsvd_linalg::generate::{random_uniform, with_spectrum};
    use wsvd_linalg::svd::singular_values;
    use wsvd_linalg::verify::{max_column_coherence, orthonormality_error};

    fn run_one(a: &Matrix, cfg: &OneSidedConfig, space: MemSpace) -> JacobiSvd {
        let gpu = Gpu::new(V100);
        let smem = if space == MemSpace::Shared {
            48 * 1024
        } else {
            0
        };
        let kc = KernelConfig::new(1, 128, smem, "test-svd");
        let (mut out, _) = gpu
            .launch_collect(kc, |_, ctx| svd_in_block(a, cfg, ctx, space))
            .unwrap();
        out.pop().unwrap()
    }

    fn reconstruct(svd: &JacobiSvd, m: usize, n: usize) -> Matrix {
        let r = svd.sigma.len();
        let mut us = svd.u.clone();
        for j in 0..r {
            let s = svd.sigma[j];
            for x in us.col_mut(j) {
                *x *= s;
            }
        }
        // v may be full n x n; take the leading r columns.
        let vthin = Matrix::from_fn(n, r, |i, j| svd.v[(i, j)]);
        let rec = wsvd_linalg::matmul(&us, &vthin.transpose());
        assert_eq!(rec.shape(), (m, n));
        rec
    }

    #[test]
    fn converges_and_matches_reference_square() {
        let a = random_uniform(12, 12, 3);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        assert!(svd.stats.converged);
        let want = singular_values(&a).unwrap();
        for (g, w) in svd.sigma.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert!(reconstruct(&svd, 12, 12).sub(&a).max_abs() < 1e-9);
        assert!(orthonormality_error(&svd.u) < 1e-10);
        assert!(orthonormality_error(&svd.v) < 1e-10);
    }

    #[test]
    fn nan_column_is_never_converged() {
        // A NaN column's norm and dots are NaN: its coherence must be NaN
        // and must survive the per-sweep maximum, so the kernel runs its
        // whole budget and says it did not converge.
        let mut a = random_uniform(6, 4, 1);
        a.col_mut(2).fill(f64::NAN);
        for cache_norms in [true, false] {
            let cfg = OneSidedConfig {
                cache_norms,
                ..Default::default()
            };
            let svd = run_one(&a, &cfg, MemSpace::Shared);
            assert!(!svd.stats.converged, "cache_norms={cache_norms}");
            assert_eq!(
                svd.stats.sweeps, cfg.max_sweeps,
                "cache_norms={cache_norms}"
            );
        }
    }

    #[test]
    fn converges_tall() {
        let a = random_uniform(20, 6, 5);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        assert!(svd.stats.converged);
        assert!(reconstruct(&svd, 20, 6).sub(&a).max_abs() < 1e-9);
    }

    #[test]
    fn wide_matrix_via_transpose_full_v() {
        let a = random_uniform(4, 10, 7);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        assert!(svd.stats.converged);
        assert_eq!(svd.v.shape(), (10, 10), "V must be completed to square");
        assert!(
            orthonormality_error(&svd.v) < 1e-8,
            "completed V not orthonormal"
        );
        assert!(reconstruct(&svd, 4, 10).sub(&a).max_abs() < 1e-9);
        // Applying the full V to A concentrates all mass in the first r
        // columns (the property the W-cycle update relies on).
        let rotated = wsvd_linalg::matmul(&a, &svd.v);
        for j in 4..10 {
            let nrm = dot(rotated.col(j), rotated.col(j)).sqrt();
            assert!(nrm < 1e-9, "null column {j} has mass {nrm}");
        }
    }

    #[test]
    fn caching_gives_same_result_and_avoids_dots() {
        let a = random_uniform(16, 8, 11);
        let cached = run_one(
            &a,
            &OneSidedConfig {
                cache_norms: true,
                ..Default::default()
            },
            MemSpace::Shared,
        );
        let plain = run_one(
            &a,
            &OneSidedConfig {
                cache_norms: false,
                ..Default::default()
            },
            MemSpace::Shared,
        );
        assert!(cached.stats.dots_avoided > 0);
        assert_eq!(plain.stats.dots_avoided, 0);
        for (c, p) in cached.sigma.iter().zip(&plain.sigma) {
            assert!((c - p).abs() < 1e-8);
        }
        // Caching avoids roughly two-thirds of the per-rotation dots.
        let cached_rate = cached.stats.dots_computed as f64
            / (cached.stats.dots_computed + cached.stats.dots_avoided) as f64;
        assert!(cached_rate < 0.55, "avoidance rate too low: {cached_rate}");
    }

    #[test]
    fn known_spectrum_recovered() {
        let sigma = vec![10.0, 4.0, 0.5];
        let a = with_spectrum(9, 3, &sigma, 31);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        for (g, w) in svd.sigma.iter().zip(&sigma) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn columns_orthogonal_after_sweeps() {
        let a = random_uniform(10, 10, 13);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 128, 0, "sweeps");
        gpu.launch_collect(kc, |_, ctx| {
            let mut w = a.clone();
            let out = one_sided_sweeps(&mut w, &OneSidedConfig::default(), ctx, MemSpace::Global);
            assert!(out.stats.converged);
            assert!(max_column_coherence(&w) < 1e-10);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn sm_variant_fails_when_matrix_too_big() {
        // 100 x 90 with V (90x90) needs (9000 + 8100 + 180) * 8 > 48 KiB.
        let a = random_uniform(100, 90, 1);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 128, 48 * 1024, "too-big");
        let err = gpu
            .launch_collect(kc, |_, ctx| {
                svd_in_block(&a, &OneSidedConfig::default(), ctx, MemSpace::Shared)
            })
            .unwrap_err();
        assert!(matches!(err, KernelError::Smem(_)), "{err:?}");
    }

    #[test]
    fn sm_fits_predicate_matches_kernel() {
        // If the predicate says it fits, the kernel must not overflow.
        for &(m, n) in &[(32usize, 32usize), (48, 24), (64, 16), (24, 48)] {
            assert!(
                crate::fits::svd_fits_in_sm(m, n, 48 * 1024),
                "({m},{n}) should fit"
            );
            let a = random_uniform(m, n, (m * 100 + n) as u64);
            let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
            assert!(svd.stats.converged, "({m},{n}) did not converge");
        }
    }

    #[test]
    fn gm_variant_counts_transactions() {
        let a = random_uniform(16, 8, 17);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 128, 0, "gm");
        let (_, stats) = gpu
            .launch_collect(kc, |_, ctx| {
                svd_in_block(&a, &OneSidedConfig::default(), ctx, MemSpace::Global)
            })
            .unwrap();
        assert!(
            stats.totals.gm_transactions > 100,
            "GM path must be traffic-heavy"
        );
    }

    #[test]
    fn more_threads_per_pair_shrinks_span() {
        let a = random_uniform(64, 16, 19);
        let span_of = |tpp: usize| {
            let gpu = Gpu::new(V100);
            let kc = KernelConfig::new(1, 256, 48 * 1024, "alpha");
            let (_, s) = gpu
                .launch_collect(kc, |_, ctx| {
                    svd_in_block(
                        &a,
                        &OneSidedConfig {
                            threads_per_pair: tpp,
                            ..Default::default()
                        },
                        ctx,
                        MemSpace::Shared,
                    )
                })
                .unwrap();
            s.totals.span_cycles
        };
        // With batch-size-1 style blocks, wider teams shorten the span.
        assert!(span_of(32) < span_of(1));
    }

    #[test]
    fn sanitized_kernel_is_hazard_free_and_identical() {
        // Tall and wide shapes, both under full hazard checking: the real
        // kernel must produce zero violations and byte-identical results.
        for &(m, n, seed) in &[(16usize, 8usize, 29u64), (4, 10, 31)] {
            let a = random_uniform(m, n, seed);
            let base = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
            let gpu = Gpu::with_sanitize(V100, wsvd_gpu_sim::SanitizeMode::Full);
            let kc = KernelConfig::new(1, 128, 48 * 1024, "sanitized-svd");
            let (mut out, _) = gpu
                .launch_collect(kc, |_, ctx| {
                    assert!(ctx.sanitizing());
                    svd_in_block(&a, &OneSidedConfig::default(), ctx, MemSpace::Shared)
                })
                .unwrap();
            let svd = out.pop().unwrap();
            let rep = gpu.sanitizer_report();
            assert!(rep.is_clean(), "({m},{n}): {:?}", rep.violations);
            assert!(rep.stats.epochs > 0);
            assert!(rep.stats.accesses > 0);
            assert_eq!(svd.sigma, base.sigma);
        }
    }

    #[test]
    fn zero_matrix_is_fixed_point() {
        let a = Matrix::zeros(6, 4);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        assert!(svd.stats.converged);
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert_eq!(svd.stats.rotations, 0);
    }

    #[test]
    fn single_column() {
        let a = random_uniform(5, 1, 23);
        let svd = run_one(&a, &OneSidedConfig::default(), MemSpace::Shared);
        let want = dot(a.col(0), a.col(0)).sqrt();
        assert!((svd.sigma[0] - want).abs() < 1e-12);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn extraction_keeps_sigma_ties_in_index_order_and_maps_zero_to_e_k() {
        // Columns 0 and 1 have squared norms 1 and 1 + 2^-52, whose square
        // roots are both exactly 1.0: tied in σ, they keep their index
        // order (a squared-norm key would swap them). Column 2 is zero and
        // becomes the unit vector of its slot.
        let tiny = 2f64.powi(-26);
        let mut conv = Matrix::from_rows(
            4,
            4,
            &[
                1.0, 1.0, 0.0, 0.0, //
                0.0, tiny, 0.0, 0.0, //
                0.0, 0.0, 0.0, 3.0, //
                0.0, 0.0, 0.0, 0.0,
            ],
        );
        let mut v = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let v0 = v.clone();
        let sigma = extract_u_sigma(&mut conv, Some(&mut v));
        assert_eq!(sigma, [3.0, 1.0, 1.0, 0.0]);
        let order = [3, 0, 1, 2];
        for (k, &j) in order.iter().enumerate() {
            assert_eq!(v.col(k), v0.col(j), "V column {k}");
        }
        assert_eq!(conv.col(0), [0.0, 0.0, 1.0, 0.0]);
        assert_eq!(conv.col(1), [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(conv.col(2), [1.0, tiny, 0.0, 0.0]);
        assert_eq!(conv.col(3), [0.0, 0.0, 0.0, 1.0], "zero column -> e_3");
    }

    #[test]
    fn dispatched_and_portable_kernels_are_bitwise_equal() {
        // Each copy this CPU runs (AVX2 and AVX-512 where it has them)
        // against the portable body: tall, wide, square and odd-width
        // inputs, with and without the norm cache, in both memory spaces.
        let shapes = [
            (24, 8),
            (9, 16),
            (17, 17),
            (33, 7),
            (5, 13),
            (40, 31),
            (2, 3),
        ];
        for (t, &(m, n)) in shapes.iter().enumerate() {
            let a = random_uniform(m, n, 500 + t as u64);
            for cache_norms in [true, false] {
                for space in [MemSpace::Shared, MemSpace::Global] {
                    let cfg = OneSidedConfig {
                        cache_norms,
                        record_coherence: true,
                        ..Default::default()
                    };
                    let run = |tier: Tier| {
                        let kc = KernelConfig::new(1, 128, 48 * 1024, "isa-svd");
                        let (mut out, stats) = Gpu::new(V100)
                            .launch_collect(kc, |_, ctx| {
                                svd_in_block_on(&a, &cfg, ctx, space, tier)
                            })
                            .unwrap();
                        (out.pop().unwrap(), stats)
                    };
                    let (y, ys) = run(Tier::Portable);
                    for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                        let (x, xs) = run(tier);
                        let case = format!("{tier:?} {m}x{n} cache={cache_norms} {space:?}");
                        assert_eq!(bits(&x.u), bits(&y.u), "{case}");
                        assert_eq!(bits(&x.v), bits(&y.v), "{case}");
                        let sig =
                            |s: &JacobiSvd| s.sigma.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(sig(&x), sig(&y), "{case}");
                        let coh = |s: &JacobiSvd| {
                            s.coherence_per_sweep
                                .iter()
                                .map(|x| x.to_bits())
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(coh(&x), coh(&y), "{case}");
                        assert_eq!(x.stats, y.stats, "{case}");
                        assert_eq!(xs.seconds().to_bits(), ys.seconds().to_bits(), "{case}");
                    }
                }
            }
        }
    }
}
