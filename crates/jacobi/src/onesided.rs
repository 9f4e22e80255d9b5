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
use wsvd_linalg::gemm::{col_pair_dots, dot};
use wsvd_linalg::givens::{one_sided_rotation, rotate_columns, rotated_norms};
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
    let mut norms: Vec<f64> = Vec::new();
    let mut step_dots: Vec<f64> = Vec::new();

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
            norms = (0..n).map(|j| dot(a.col(j), a.col(j))).collect();
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

            // The step's pairs are disjoint, so every `a_i · a_j` can be taken
            // before any of its rotations, four pairs at a time.
            col_pair_dots(a, step, &mut step_dots);
            let mut rotated_pairs = 0usize;
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
                let coherence = if denom > 0.0 { aij.abs() / denom } else { 0.0 };
                max_coherence = max_coherence.max(coherence);
                if coherence <= cfg.tol {
                    continue;
                }

                let rot = one_sided_rotation(aii, aij, ajj);
                {
                    let (ci, cj) = a.col_pair_mut(i, j);
                    rotate_columns(rot, ci, cj);
                }
                if let Some(v) = v.as_mut() {
                    let (vi, vj) = v.col_pair_mut(i, j);
                    rotate_columns(rot, vi, vj);
                }
                if cfg.cache_norms {
                    let (nii, njj) = rotated_norms(rot, aii, aij, ajj);
                    norms[i] = nii;
                    norms[j] = njj;
                }
                stats.rotations += 1;
                rotated_pairs += 1;
            }

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
    /// The rotated block `A V = U Σ`, shaped like `A` (`U`'s rows by `V`'s
    /// columns); columns beyond `Σ` (rank-deficient wide blocks) are zero.
    pub fn rotated_block(&self) -> Matrix {
        let m = self.u.rows();
        let mut out = Matrix::zeros(m, self.v.cols());
        for (k, &s) in self.sigma.iter().enumerate() {
            let src = self.u.col(k);
            let dst = out.col_mut(k);
            for i in 0..m {
                dst[i] = s * src[i];
            }
        }
        out
    }
}

/// Extracts `U` and `Σ` from converged columns (`A_conv = U Σ`), sorting all
/// factors by descending singular value.
fn extract_factors(
    conv: &Matrix,
    v: Matrix,
    stats: JacobiStats,
    coherence_per_sweep: Vec<f64>,
) -> JacobiSvd {
    let (m, n) = conv.shape();
    let mut order: Vec<usize> = (0..n).collect();
    let sig: Vec<f64> = (0..n)
        .map(|j| dot(conv.col(j), conv.col(j)).sqrt())
        .collect();
    order.sort_by(|&x, &y| sig[y].total_cmp(&sig[x]));

    let r = m.min(n);
    let mut u = Matrix::zeros(m, r);
    let mut sigma = Vec::with_capacity(r);
    for (k, &j) in order.iter().take(r).enumerate() {
        let s = sig[j];
        sigma.push(s);
        if s > 0.0 {
            let src = conv.col(j);
            let dst = u.col_mut(k);
            for i in 0..m {
                dst[i] = src[i] / s;
            }
        } else if k < m {
            u[(k, k)] = 1.0; // arbitrary unit vector for a null direction
        }
    }
    // Permute V's columns to match (full square V).
    let mut vp = Matrix::zeros(v.rows(), v.cols());
    for (k, &j) in order.iter().enumerate() {
        vp.col_mut(k).copy_from_slice(v.col(j));
    }
    JacobiSvd {
        u,
        sigma,
        v: vp,
        stats,
        coherence_per_sweep,
    }
}

/// One-sided Jacobi SVD of one matrix inside one simulated block.
///
/// * Tall or square input runs directly; wide input (`m < n`) decomposes the
///   transpose (fewer rotations per sweep, §IV-B) and swaps the factors; its
///   full `n x n` V is completed with Gram–Schmidt over the null space so
///   the W-cycle can apply `J_ij` as a square rotation.
/// * `space == Shared` charges the exact working set to the block's arena —
///   the call fails with [`KernelError::Smem`] when it does not fit.
pub fn svd_in_block(
    a: &Matrix,
    cfg: &OneSidedConfig,
    ctx: &mut BlockCtx,
    space: MemSpace,
) -> Result<JacobiSvd, KernelError> {
    let (m, n) = a.shape();
    if m >= n {
        // Charge the SM working set: matrix + V accumulation + norm caches.
        let bufs = if space == MemSpace::Shared {
            let a_buf = ctx.gm_load_to_smem(a.as_slice())?;
            let v_buf = if cfg.accumulate_v {
                Some(ctx.smem().alloc(n * n)?)
            } else {
                None
            };
            let n_buf = ctx.smem().alloc(2 * n)?;
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
        let mut work = a.clone();
        let cfg = OneSidedConfig {
            accumulate_v: true,
            ..*cfg
        };
        let out = one_sided_sweeps_in(&mut work, &cfg, ctx, space, layout.as_ref());
        if space == MemSpace::Shared {
            // Write-back barrier, then the cooperative GM store.
            ctx.sync_threads();
            ctx.count_gm_store(m * n + n * n);
        }
        Ok(extract_factors(
            &work,
            out.v.expect("accumulate_v forced on"),
            out.stats,
            out.coherence_per_sweep,
        ))
    } else {
        // Wide: decompose A^T (n x m, tall). Accumulated V of A^T is U of A;
        // converged columns of A^T give V of A (thin), completed to square.
        let at = a.transpose();
        let bufs = if space == MemSpace::Shared {
            let a_buf = ctx.gm_load_to_smem(at.as_slice())?;
            let u_buf = ctx.smem().alloc(m * m)?;
            let n_buf = ctx.smem().alloc(2 * m)?;
            ctx.sync_threads();
            Some((a_buf, u_buf, n_buf))
        } else {
            None
        };
        let layout = bufs.as_ref().map(|(a_buf, u_buf, n_buf)| SvdSmemLayout {
            a: a_buf,
            v: Some(u_buf),
            norms: n_buf,
        });
        let mut work = at;
        let cfg_t = OneSidedConfig {
            accumulate_v: true,
            ..*cfg
        };
        let out = one_sided_sweeps_in(&mut work, &cfg_t, ctx, space, layout.as_ref());
        if space == MemSpace::Shared {
            ctx.sync_threads();
            ctx.count_gm_store(n * m + m * m);
        }
        let t = extract_factors(
            &work,
            out.v.expect("accumulate_v forced on"),
            out.stats,
            out.coherence_per_sweep,
        );
        // t.u (n x m) = V of A (thin); t.v (m x m) = U of A.
        let v_full = complete_orthonormal(&t.u, &t.sigma, ctx);
        Ok(JacobiSvd {
            u: t.v,
            sigma: t.sigma,
            v: v_full,
            stats: t.stats,
            coherence_per_sweep: t.coherence_per_sweep,
        })
    }
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
        let mut a = random_uniform(10, 10, 13);
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
        // silence unused-mut
        a.scale(1.0);
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
        matches!(err, KernelError::Smem(_));
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
}
