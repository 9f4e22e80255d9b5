//! Two-sided Jacobi EVD kernels for symmetric matrices (§II-D, §IV-C).
//!
//! The W-cycle needs the eigendecomposition `B_ij = J Λ J^T` of the Gram
//! matrix whenever a pair block is too large for the SM SVD kernel but its
//! (much smaller, `2w x 2w`) Gram matrix still fits. Two kernels are
//! provided:
//!
//! * [`EvdVariant::Sequential`] — the textbook cyclic two-sided Jacobi:
//!   eliminations are serialized because each updates two full rows *and*
//!   two full columns (at most `4s` active threads — Challenge 1);
//! * [`EvdVariant::Parallel`] — the paper's kernel: a round-robin step
//!   selects `s/2` disjoint pairs, all rotations are computed from the
//!   current `B`, and the whole update `B̂ = G^T B G` is evaluated
//!   element-wise as `b̂_xy = x^T B y` (6 multiplications + 3 additions per
//!   element, Fig. 5), so every element of `B̂` is written in parallel.

use wsvd_gpu_sim::{BlockCtx, KernelError, SmemBuf};
use wsvd_linalg::givens::{two_sided_rotation, Rotation};
use wsvd_linalg::simd::{self, Isa, Tier};
use wsvd_linalg::Matrix;

use crate::ordering::{round_robin, Schedule};

/// Shared-memory placement of the EVD kernel's working set, used by the
/// hazard sanitizer to attribute lane accesses to the real buffers.
struct EvdSmemLayout<'a> {
    /// The symmetric working matrix `B` (`s x s`).
    b: &'a SmemBuf,
    /// The accumulated eigenvector matrix `J` (`s x s`).
    j: &'a SmemBuf,
    /// Half-matrix panel staging for the parallel update (`s*s/2`).
    scratch: &'a SmemBuf,
    /// Per-step rotation parameters (`2s`).
    rots: &'a SmemBuf,
}

/// Which EVD kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvdVariant {
    /// Serialized eliminations (the baseline of Fig. 10(b)).
    Sequential,
    /// Parallel all-element update (the paper's design).
    Parallel,
}

/// Configuration of the two-sided Jacobi EVD kernel.
#[derive(Clone, Copy, Debug)]
pub struct EvdConfig {
    /// Stop when `off(B) <= tol * ||B||_F`.
    pub tol: f64,
    /// Sweep cap.
    pub max_sweeps: usize,
    /// Kernel variant.
    pub variant: EvdVariant,
}

impl Default for EvdConfig {
    fn default() -> Self {
        Self {
            tol: 1e-13,
            max_sweeps: 40,
            variant: EvdVariant::Parallel,
        }
    }
}

/// Result of a batched-EVD block: `B = J diag(lambda) J^T`.
#[derive(Debug)]
pub struct JacobiEvd {
    /// Eigenvalues in descending order.
    pub lambda: Vec<f64>,
    /// Orthogonal eigenvector matrix (columns ordered like `lambda`).
    pub j: Matrix,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the off-diagonal tolerance was met.
    pub converged: bool,
}

/// Two-sided Jacobi EVD of one symmetric matrix inside one simulated block.
///
/// The working set (`B`, `J`, a double buffer for the parallel update, and
/// per-step rotation storage) is charged to the block's shared-memory arena;
/// the call fails with [`KernelError::Smem`] if it does not fit — this is
/// the line-10 predicate of Algorithm 2.
pub fn evd_in_block(
    b: &Matrix,
    cfg: &EvdConfig,
    ctx: &mut BlockCtx,
) -> Result<JacobiEvd, KernelError> {
    evd_in_block_on(b, cfg, ctx, simd::tier())
}

/// [`evd_in_block`] running its sweeps on the copy compiled for `tier`,
/// which this CPU must run (the tests run every copy it has).
fn evd_in_block_on(
    b: &Matrix,
    cfg: &EvdConfig,
    ctx: &mut BlockCtx,
    tier: Tier,
) -> Result<JacobiEvd, KernelError> {
    let (s, s2) = b.shape();
    assert_eq!(s, s2, "EVD requires a square matrix");
    debug_assert!(
        b.sub(&b.transpose()).max_abs() < 1e-10 * (1.0 + b.max_abs()),
        "EVD input must be symmetric"
    );

    // Charge the SM footprint (matches `fits::evd_smem_elems`).
    let b_buf = ctx.gm_load_to_smem(b.as_slice())?;
    let j_buf = ctx.smem().alloc(s * s)?;
    let scratch = ctx.smem().alloc((s * s) / 2)?; // panel staging for the parallel update
    let rots = ctx.smem().alloc(2 * s)?;
    // Staging barrier: the cooperative GM load completes before any lane
    // reads the SM-resident working set.
    ctx.sync_threads();
    let lay = EvdSmemLayout {
        b: &b_buf,
        j: &j_buf,
        scratch: &scratch,
        rots: &rots,
    };

    let mut work = b.clone();
    let mut j = Matrix::identity(s);
    let (sweeps, converged) = evd_sweeps_on(tier, &mut work, &mut j, cfg, ctx, &lay)
        .expect("evd_in_block_on runs a tier this CPU has");
    // Write-back barrier, then the cooperative GM store.
    ctx.sync_threads();
    ctx.count_gm_store(2 * s * s); // write back Λ diagnostics and J

    // Extract and sort eigenvalues (descending), permuting J to match.
    let mut lambda: Vec<f64> = work.diag();
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&x, &y| lambda[y].total_cmp(&lambda[x]));
    let lambda_sorted: Vec<f64> = order.iter().map(|&i| lambda[i]).collect();
    let mut jp = Matrix::zeros(s, s);
    for (k, &i) in order.iter().enumerate() {
        jp.col_mut(k).copy_from_slice(j.col(i));
    }
    lambda = lambda_sorted;
    Ok(JacobiEvd {
        lambda,
        j: jp,
        sweeps,
        converged,
    })
}

wsvd_linalg::dispatch! {
    /// The sweep loop of [`evd_in_block`]: diagonalizes `work` in place and
    /// accumulates the rotations into `j`. Returns the sweeps run and whether
    /// the off-diagonal tolerance was met.
    fn evd_sweeps(
        work: &mut Matrix,
        j: &mut Matrix,
        cfg: &EvdConfig,
        ctx: &mut BlockCtx,
        lay: &EvdSmemLayout<'_>,
    ) -> (usize, bool) => evd_sweeps_with, evd_sweeps_on
}

/// The body of [`evd_sweeps`] for instruction set `I`.
#[inline(always)]
fn evd_sweeps_with<I: Isa>(
    _isa: I,
    work: &mut Matrix,
    j: &mut Matrix,
    cfg: &EvdConfig,
    ctx: &mut BlockCtx,
    lay: &EvdSmemLayout<'_>,
) -> (usize, bool) {
    let s = work.rows();
    let fro = work.fro_norm().max(f64::MIN_POSITIVE);
    let mut sweeps = 0;
    let mut converged = work.off_diag_norm() <= cfg.tol * fro;
    let schedule = round_robin(s);
    let mut step = StepBuffers::new(s);
    while !converged && sweeps < cfg.max_sweeps {
        sweeps += 1;
        match cfg.variant {
            EvdVariant::Sequential => sequential_sweep(work, j, ctx, lay),
            EvdVariant::Parallel => parallel_sweep(work, j, &schedule, &mut step, ctx, lay),
        }
        converged = work.off_diag_norm() <= cfg.tol * fro;
    }
    (sweeps, converged)
}

/// Classic cyclic sweep: one elimination at a time, rows and columns updated
/// in place. Span: each elimination serializes behind the previous one.
#[inline(always)]
fn sequential_sweep(b: &mut Matrix, j: &mut Matrix, ctx: &mut BlockCtx, lay: &EvdSmemLayout<'_>) {
    let s = b.rows();
    for p in 0..s {
        for q in (p + 1)..s {
            let rot = two_sided_rotation(b[(p, p)], b[(p, q)], b[(q, q)]);
            if rot.is_identity() {
                continue;
            }
            apply_two_sided(b, p, q, rot);
            apply_right_rotation(j, p, q, rot);
            // Cost: each elimination is a serialized dependency chain —
            // the rotation parameters (~20 ops) plus two block-wide barriers
            // before/after the row+column writes (the next elimination reads
            // what this one wrote). Then the 4s row/col elements update with
            // at most 4s active threads (Challenge 1).
            ctx.serial_step(100);
            ctx.team_step(1, (4 * s).min(ctx.threads()), 4 * s, 6);
            ctx.team_step(1, (2 * s).min(ctx.threads()), 2 * s, 6); // J columns
                                                                    // One cooperative group does the whole elimination (lane 0), so
                                                                    // the only hazard to check is the barrier before the next
                                                                    // elimination reads what this one wrote.
            if ctx.sanitizing() {
                ctx.smem_write(0, lay.b, p * s, s);
                ctx.smem_write(0, lay.b, q * s, s);
                ctx.smem_write(0, lay.j, p * s, s);
                ctx.smem_write(0, lay.j, q * s, s);
            }
            ctx.sync_threads();
        }
    }
}

/// Working storage of the parallel sweep, allocated once per block and
/// reused by every step of every sweep.
struct StepBuffers {
    /// The step's rotations `(p, q, G_pq)`.
    rots: Vec<(usize, usize, Rotation)>,
    /// `partner[i]`: the index paired with `i` this step (`i` if idle).
    partner: Vec<usize>,
    /// `diag[i] = G[i, i]` and `off[i] = G[partner[i], i]`: the two
    /// non-zeros of column `i` of the step's combined Givens matrix `G`.
    diag: Vec<f64>,
    off: Vec<f64>,
    /// `B` before the step (swapped with `B`, never copied).
    old: Matrix,
    /// Columns `p` and `q` of `old` with each row `r` replaced by row
    /// `partner[r]`, for the column pair `(p, q)` being updated.
    swapped_p: Vec<f64>,
    swapped_q: Vec<f64>,
}

impl StepBuffers {
    fn new(s: usize) -> Self {
        Self {
            rots: Vec::with_capacity(s / 2),
            partner: vec![0; s],
            diag: vec![1.0; s],
            off: vec![0.0; s],
            old: Matrix::zeros(s, s),
            swapped_p: vec![0.0; s],
            swapped_q: vec![0.0; s],
        }
    }

    /// Loads one step's rotations and derives each index's partner and
    /// Givens column entries.
    fn load(&mut self, rots: impl IntoIterator<Item = (usize, usize, Rotation)>) {
        self.rots.clear();
        self.rots.extend(rots);
        for (i, p) in self.partner.iter_mut().enumerate() {
            *p = i;
        }
        self.diag.fill(1.0);
        self.off.fill(0.0);
        for &(p, q, r) in &self.rots {
            self.partner[p] = q;
            self.partner[q] = p;
            (self.diag[p], self.off[p]) = givens_col_entries(p, q, r);
            (self.diag[q], self.off[q]) = givens_col_entries(q, p, r);
        }
    }
}

/// The paper's parallel sweep: round-robin steps of disjoint pairs; all
/// rotations of a step are computed from the current `B`, then applied at
/// once via the `x^T B y` element-wise formula.
#[inline(always)]
fn parallel_sweep(
    b: &mut Matrix,
    j: &mut Matrix,
    schedule: &Schedule,
    buf: &mut StepBuffers,
    ctx: &mut BlockCtx,
    lay: &EvdSmemLayout<'_>,
) {
    let s = b.rows();
    for step in schedule {
        if step.is_empty() {
            continue;
        }
        // Compute all rotations of the step concurrently from the current B.
        buf.load(
            step.iter()
                .map(|&(p, q)| (p, q, two_sided_rotation(b[(p, p)], b[(p, q)], b[(q, q)]))),
        );
        ctx.team_step(step.len(), 1, 1, 20);
        // Rotation epoch: lane `t` reads its 2x2 pivot block of B and
        // publishes (c, s) into the rotation table.
        if ctx.sanitizing() {
            for (t, &(p, q)) in step.iter().enumerate() {
                ctx.smem_read(t, lay.b, p * s + p, 1);
                ctx.smem_read(t, lay.b, p * s + q, 1);
                ctx.smem_read(t, lay.b, q * s + q, 1);
                ctx.smem_write(t, lay.rots, 2 * t, 2);
            }
        }
        ctx.sync_threads();

        // Element-wise B̂ = G^T B G: x-vector for row r of G^T and y-vector
        // for column c of G each have at most 2 non-zeros: 6 multiplications
        // + 3 additions per element.
        rotate_step(b, buf);
        ctx.par_step(s * s, 9);
        // The in-place update is staged through the half-matrix scratch
        // panel: each panel pass is two epochs — lanes (one per column) read
        // the pre-panel B plus the rotation table and write their staged
        // column into scratch, sync, then copy the staged column back over B.
        if ctx.sanitizing() {
            let half = (s / 2).max(1);
            let mut panel_start = 0;
            while panel_start < s {
                let panel_end = (panel_start + half).min(s);
                for c in panel_start..panel_end {
                    ctx.smem_read(c, lay.b, 0, s * s);
                    ctx.smem_read(c, lay.rots, 0, 2 * step.len());
                    ctx.smem_write(c, lay.scratch, (c - panel_start) * s, s);
                }
                ctx.sync_threads();
                for c in panel_start..panel_end {
                    ctx.smem_read(c, lay.scratch, (c - panel_start) * s, s);
                    ctx.smem_write(c, lay.b, c * s, s);
                }
                ctx.sync_threads();
                panel_start = panel_end;
            }
        }

        // J <- J * G (disjoint column pairs, all parallel).
        for &(p, q, r) in &buf.rots {
            apply_right_rotation(j, p, q, r);
        }
        ctx.par_step(step.len() * s, 6);
        // J-update epoch: lane `t` owns columns (p, q) of J exclusively.
        if ctx.sanitizing() {
            for (t, &(p, q, _)) in buf.rots.iter().enumerate() {
                ctx.smem_read(t, lay.rots, 2 * t, 2);
                ctx.smem_write(t, lay.j, p * s, s);
                ctx.smem_write(t, lay.j, q * s, s);
            }
        }
        ctx.sync_threads();
    }
}

/// `B <- G^T B G` for the step loaded into `buf`, one output column (or
/// rotated column pair) at a time:
/// `b̂_rc = xa*ya*o[r,c] + xa*yb*o[r,cp] + xb*ya*o[rp,c] + xb*yb*o[rp,cp]`,
/// summed in that order, where `(xa, xb)` and `(ya, yb)` are the Givens
/// column entries of `r` and `c` and `rp`, `cp` their partners (Fig. 5).
/// Terms involving an idle index's missing partner are skipped, exactly as
/// the reference `combined_element` skips them.
#[inline(always)]
fn rotate_step(b: &mut Matrix, buf: &mut StepBuffers) {
    let s = b.rows();
    std::mem::swap(b, &mut buf.old);
    let old = &buf.old;
    let partner = &buf.partner[..s];
    let (xa, xb) = (&buf.diag[..s], &buf.off[..s]);
    if 2 * buf.rots.len() == s {
        // Every index is paired (every even-width pair block), so no term is
        // ever skipped. Output columns `p` and `q` read the same four inputs
        // per row: `old[r, p]`, `old[r, q]` and their partner-row copies.
        let (sp, sq) = (&mut buf.swapped_p[..s], &mut buf.swapped_q[..s]);
        for &(p, q, _) in &buf.rots {
            let (o_p, o_q) = (&old.col(p)[..s], &old.col(q)[..s]);
            for ((dp, dq), &rp) in sp.iter_mut().zip(&mut *sq).zip(partner) {
                (*dp, *dq) = (o_p[rp], o_q[rp]);
            }
            // Columns `p` and `q` of G are `(c, s)` and `(c, -s)` (in either
            // order), so `xa[q] == ya` and `xb[q] == -yb` exactly, and
            // `x * (-y)` is `-(x * y)`: column `q` reuses column `p`'s four
            // products and subtracts the negated ones (`a - b` is `a + (-b)`
            // in IEEE arithmetic, signed zeros included).
            let (ya, yb) = (xa[p], xb[p]);
            let (out_p, out_q) = b.col_pair_mut(p, q);
            let (out_p, out_q) = (&mut out_p[..s], &mut out_q[..s]);
            for r in 0..s {
                let (k1, k2) = (xa[r] * ya, xa[r] * yb);
                let (k3, k4) = (xb[r] * ya, xb[r] * yb);
                let mut v = k1 * o_p[r];
                v += k2 * o_q[r];
                v += k3 * sp[r];
                v += k4 * sq[r];
                out_p[r] = v;
                let mut w = k1 * o_q[r];
                w -= k2 * o_p[r];
                w += k3 * sq[r];
                w -= k4 * sp[r];
                out_q[r] = w;
            }
        }
    } else {
        for c in 0..s {
            let cp = partner[c];
            let (ya, yb) = (xa[c], xb[c]);
            let (o_c, o_cp) = (&old.col(c)[..s], &old.col(cp)[..s]);
            let out = &mut b.col_mut(c)[..s];
            for r in 0..s {
                let rp = partner[r];
                let mut v = xa[r] * ya * o_c[r];
                if cp != c {
                    v += xa[r] * yb * o_cp[r];
                }
                if rp != r {
                    v += xb[r] * ya * o_c[rp];
                    if cp != c {
                        v += xb[r] * yb * o_cp[rp];
                    }
                }
                out[r] = v;
            }
        }
    }
}

/// Entries of column `i` of the step's combined Givens matrix `G`:
/// `(G[i, i], G[partner, i])` for the rotation `[[c, -s], [s, c]]` placed on
/// the (min, max) index pair.
#[inline]
fn givens_col_entries(i: usize, partner: usize, r: Rotation) -> (f64, f64) {
    if partner == i {
        return (1.0, 0.0);
    }
    if i < partner {
        // Column i is (c, s) on rows (i, partner).
        (r.c, r.s)
    } else {
        // Column i is (-s, c) on rows (partner, i).
        (r.c, -r.s)
    }
}

/// Applies `B <- G^T B G` for a single rotation on rows/cols `(p, q)`.
#[inline(always)]
fn apply_two_sided(b: &mut Matrix, p: usize, q: usize, r: Rotation) {
    let s = b.rows();
    let (c, sn) = (r.c, r.s);
    // Columns p, q.
    for i in 0..s {
        let bip = b[(i, p)];
        let biq = b[(i, q)];
        b[(i, p)] = c * bip + sn * biq;
        b[(i, q)] = -sn * bip + c * biq;
    }
    // Rows p, q.
    for jj in 0..s {
        let bpj = b[(p, jj)];
        let bqj = b[(q, jj)];
        b[(p, jj)] = c * bpj + sn * bqj;
        b[(q, jj)] = -sn * bpj + c * bqj;
    }
}

/// Applies `M <- M * G` on columns `(p, q)`.
#[inline(always)]
fn apply_right_rotation(m: &mut Matrix, p: usize, q: usize, r: Rotation) {
    let (cp, cq) = m.col_pair_mut(p, q);
    wsvd_linalg::rotate_columns(r, cp, cq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{Gpu, KernelConfig, V100};
    use wsvd_linalg::generate::{random_spd, random_symmetric};
    use wsvd_linalg::svd::evd_residual;
    use wsvd_linalg::verify::orthonormality_error;

    /// Scalar reference for one element of a parallel step, the kernel's
    /// original per-element body: `b̂_rc = x^T B y` over the at-most-2x2
    /// support of the Givens columns `x = G e_r`, `y = G e_c`.
    fn combined_element(
        old: &Matrix,
        row: usize,
        col: usize,
        partner: &[usize],
        cs: &[Rotation],
    ) -> f64 {
        let (rp, rr) = (partner[row], cs[row]);
        let (xa, xb) = givens_col_entries(row, rp, rr);
        let (cp, cr) = (partner[col], cs[col]);
        let (ya, yb) = givens_col_entries(col, cp, cr);
        let mut v = xa * ya * old[(row, col)];
        if cp != col {
            v += xa * yb * old[(row, cp)];
        }
        if rp != row {
            v += xb * ya * old[(rp, col)];
            if cp != col {
                v += xb * yb * old[(rp, cp)];
            }
        }
        v
    }

    #[test]
    fn parallel_steps_match_combined_element_bitwise() {
        // Even s pairs every index (the branch-free path); odd s leaves one
        // index idle per step. One buffer serves a whole sweep, as in the
        // kernel.
        for s in [2usize, 3, 8, 9, 16, 31, 32] {
            let mut b = random_symmetric(s, 100 + s as u64);
            let schedule = round_robin(s);
            // A zero pivot gives the first step an identity rotation.
            let (p, q) = schedule[0][0];
            b[(p, q)] = 0.0;
            b[(q, p)] = 0.0;
            let mut buf = StepBuffers::new(s);
            for step in &schedule {
                let rots: Vec<_> = step
                    .iter()
                    .map(|&(p, q)| (p, q, two_sided_rotation(b[(p, p)], b[(p, q)], b[(q, q)])))
                    .collect();
                let mut partner: Vec<usize> = (0..s).collect();
                let mut cs = vec![Rotation::IDENTITY; s];
                for &(p, q, r) in &rots {
                    partner[p] = q;
                    partner[q] = p;
                    cs[p] = r;
                    cs[q] = r;
                }
                let old = b.clone();
                // Every compiled copy of the step must meet the oracle, and
                // so must the entry with the sweep's one buffer.
                let want = |r, c| combined_element(&old, r, c, &partner, &cs).to_bits();
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let (mut got, mut got_buf) = (b.clone(), StepBuffers::new(s));
                    got_buf.load(rots.iter().copied());
                    rotate_step_on(tier, &mut got, &mut got_buf).expect("available tier");
                    for c in 0..s {
                        for r in 0..s {
                            let case = format!("{tier:?} s={s} ({r},{c})");
                            assert_eq!(got[(r, c)].to_bits(), want(r, c), "{case}");
                        }
                    }
                }
                buf.load(rots);
                rotate_step_dispatched(&mut b, &mut buf);
                for c in 0..s {
                    for r in 0..s {
                        assert_eq!(b[(r, c)].to_bits(), want(r, c), "s={s} ({r},{c})");
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn rotate_step_with<I: Isa>(_isa: I, b: &mut Matrix, buf: &mut StepBuffers) {
        rotate_step(b, buf);
    }

    wsvd_linalg::dispatch! {
        /// `rotate_step` through the dispatch, so each compiled copy meets
        /// the scalar oracle.
        fn rotate_step_dispatched(b: &mut Matrix, buf: &mut StepBuffers)
            => rotate_step_with, rotate_step_on
    }

    #[test]
    fn dispatched_and_portable_kernels_are_bitwise_equal() {
        // Each copy this CPU runs (AVX2 and AVX-512 where it has them)
        // against the portable body, on even and odd widths, for both
        // variants.
        for s in [2usize, 3, 7, 8, 9, 16, 31, 33, 44] {
            let b = random_symmetric(s, 300 + s as u64);
            for variant in [EvdVariant::Parallel, EvdVariant::Sequential] {
                let cfg = EvdConfig {
                    variant,
                    ..Default::default()
                };
                let run = |tier: Tier| {
                    let kc = KernelConfig::new(1, 256, 48 * 1024, "isa-evd");
                    let (mut out, stats) = Gpu::new(V100)
                        .launch_collect(kc, |_, ctx| evd_in_block_on(&b, &cfg, ctx, tier))
                        .unwrap();
                    (out.pop().unwrap(), stats)
                };
                let (y, ys) = run(Tier::Portable);
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let (x, xs) = run(tier);
                    let case = format!("{tier:?} s={s} {variant:?}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&x.lambda), bits(&y.lambda), "{case}");
                    assert_eq!(bits(x.j.as_slice()), bits(y.j.as_slice()), "{case}");
                    assert_eq!((x.sweeps, x.converged), (y.sweeps, y.converged), "{case}");
                    assert_eq!(xs.seconds().to_bits(), ys.seconds().to_bits(), "{case}");
                }
            }
        }
    }

    fn run(b: &Matrix, cfg: &EvdConfig) -> (JacobiEvd, wsvd_gpu_sim::LaunchStats) {
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, 48 * 1024, "evd");
        let (mut out, stats) = gpu
            .launch_collect(kc, |_, ctx| evd_in_block(b, cfg, ctx))
            .unwrap();
        (out.pop().unwrap(), stats)
    }

    #[test]
    fn parallel_diagonalizes_symmetric() {
        let b = random_symmetric(16, 5);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!(evd.converged, "did not converge in {} sweeps", evd.sweeps);
        assert!(evd_residual(&b, &evd.j, &evd.lambda) < 1e-10);
        assert!(orthonormality_error(&evd.j) < 1e-10);
        assert!(evd.lambda.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn sequential_diagonalizes_symmetric() {
        let b = random_symmetric(12, 9);
        let (evd, _) = run(
            &b,
            &EvdConfig {
                variant: EvdVariant::Sequential,
                ..Default::default()
            },
        );
        assert!(evd.converged);
        assert!(evd_residual(&b, &evd.j, &evd.lambda) < 1e-10);
    }

    #[test]
    fn variants_agree_on_spectrum() {
        let b = random_symmetric(10, 21);
        let (par, _) = run(&b, &EvdConfig::default());
        let (seq, _) = run(
            &b,
            &EvdConfig {
                variant: EvdVariant::Sequential,
                ..Default::default()
            },
        );
        for (a, c) in par.lambda.iter().zip(&seq.lambda) {
            assert!((a - c).abs() < 1e-9, "{a} vs {c}");
        }
    }

    #[test]
    fn spd_eigenvalues_match_singular_values() {
        let b = random_spd(8, 33);
        let (evd, _) = run(&b, &EvdConfig::default());
        let sv = wsvd_linalg::singular_values(&b).unwrap();
        for (l, s) in evd.lambda.iter().zip(&sv) {
            assert!((l - s).abs() < 1e-10, "{l} vs {s}");
        }
        assert!(evd.lambda.iter().all(|&l| l > -1e-12));
    }

    #[test]
    fn parallel_has_much_shorter_span_than_sequential() {
        // The Fig. 10(b) claim: ~6x for 32x32.
        let b = random_symmetric(32, 41);
        let (_, par) = run(
            &b,
            &EvdConfig {
                max_sweeps: 1,
                tol: 0.0,
                ..Default::default()
            },
        );
        let (_, seq) = run(
            &b,
            &EvdConfig {
                max_sweeps: 1,
                tol: 0.0,
                variant: EvdVariant::Sequential,
            },
        );
        let speedup = seq.totals.span_cycles / par.totals.span_cycles;
        assert!(speedup > 3.0, "span speedup only {speedup:.2}x");
    }

    #[test]
    fn diagonal_matrix_converges_immediately() {
        let b = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert_eq!(evd.sweeps, 0);
        assert_eq!(evd.lambda, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn indefinite_matrix_keeps_signs() {
        // Eigenvalues of [[0, 1], [1, 0]] are +1, -1.
        let b = Matrix::from_rows(2, 2, &[0., 1., 1., 0.]);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!((evd.lambda[0] - 1.0).abs() < 1e-12);
        assert!((evd.lambda[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sanitized_evd_is_hazard_free() {
        let b = random_symmetric(12, 7);
        for variant in [EvdVariant::Parallel, EvdVariant::Sequential] {
            let gpu = Gpu::with_sanitize(V100, wsvd_gpu_sim::SanitizeMode::Full);
            let kc = KernelConfig::new(1, 256, 48 * 1024, "sanitized-evd");
            let (mut out, _) = gpu
                .launch_collect(kc, |_, ctx| {
                    evd_in_block(
                        &b,
                        &EvdConfig {
                            variant,
                            ..Default::default()
                        },
                        ctx,
                    )
                })
                .unwrap();
            assert!(out.pop().unwrap().converged);
            let rep = gpu.sanitizer_report();
            assert!(rep.is_clean(), "{variant:?}: {:?}", rep.violations);
            assert!(rep.stats.epochs > 0);
        }
    }

    #[test]
    fn too_large_for_sm_fails() {
        let b = random_symmetric(64, 3);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, 48 * 1024, "evd-big");
        let err = gpu
            .launch_collect(kc, |_, ctx| evd_in_block(&b, &EvdConfig::default(), ctx))
            .unwrap_err();
        assert!(matches!(err, KernelError::Smem(_)), "{err:?}");
        // And the predicate agrees.
        assert!(!crate::fits::evd_fits_in_sm(64, 48 * 1024));
    }

    #[test]
    fn fits_predicate_matches_kernel_success() {
        let s = 44; // 2w = 44 fits: 3*44^2+88 = 5896 elems < 6144
        assert!(crate::fits::evd_fits_in_sm(s, 48 * 1024));
        let b = random_symmetric(s, 55);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!(evd.converged);
    }
}
