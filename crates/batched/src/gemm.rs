//! Batched GEMM kernels: the two products at every W-cycle level.
//!
//! At Level *h* the workflow needs (§IV-D):
//! 1. the **Gram** batched GEMM `B_ij = A_ij^T A_ij`, and
//! 2. the **update** batched GEMM `Â_ij = A_ij J_ij`.
//!
//! Two execution strategies are provided:
//! * [`GemmStrategy::OneBlockPerGemm`] — the "common way" (one thread block
//!   per GEMM task), which starves the device when the batch is small or
//!   the matrices are skinny (Challenge 2);
//! * [`GemmStrategy::Tailored`] — the paper's tailoring strategy: each
//!   `A_ij` is cut into standard-plate segments of `δ_h` rows, one segment
//!   per block; residual segments are packed into shared blocks until their
//!   rows exceed `1.2 δ_h`; Gram partials from the segments of one GEMM are
//!   then reduced in a second kernel (Fig. 6).

use std::borrow::Borrow;

use wsvd_gpu_sim::{
    BarrierDiscipline, Gpu, KernelConfig, KernelError, KernelResource, LaunchStats, ScheduleFamily,
    SmemRequirement,
};
use wsvd_linalg::gemm::{gram_rows, matmul_rows};
use wsvd_linalg::matrix::Columns;
use wsvd_linalg::Matrix;

use crate::models::TailorPlan;

/// Residual-packing headroom factor (§IV-D1, "an empirical parameter 1.2δ").
const RESIDUAL_PACK_FACTOR: f64 = 1.2;

/// Shared memory requested per GEMM block (double-buffered plate tiles).
/// Exported so the static sanitizer can prove the GEMM stage of a plan fits
/// the arena before launch.
pub const GEMM_SMEM_BYTES: usize = 16 * 1024;

/// The GEMM kernels' static shared-memory demand as a checkable artifact.
pub fn gemm_smem_requirement() -> SmemRequirement {
    SmemRequirement {
        label: "batched GEMM tile buffers".to_string(),
        bytes: GEMM_SMEM_BYTES,
    }
}

/// Resource-IR descriptor for the batched Gram/update GEMM kernels: the
/// fixed 16 KiB double-buffered tile arena, uniform block-wide barriers
/// between tile phases, and no pair schedule (pure data parallelism).
pub fn gemm_kernel_resource(threads: usize) -> KernelResource {
    KernelResource {
        kernel: "batched-gemm".to_string(),
        smem: gemm_smem_requirement(),
        threads_per_block: threads,
        barriers: BarrierDiscipline::Uniform,
        schedule: ScheduleFamily::None,
    }
}

/// How a batched GEMM is mapped onto thread blocks.
#[derive(Clone, Copy, Debug)]
pub enum GemmStrategy {
    /// One thread block per GEMM task (the baseline mapping).
    OneBlockPerGemm {
        /// Threads per block.
        threads: usize,
    },
    /// The tailoring strategy with a standard plate of `delta x 2w`.
    Tailored(TailorPlan),
}

/// A row-range of one GEMM task assigned to a thread block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Index of the GEMM task (the pair block) this segment belongs to.
    pub gemm: usize,
    /// First row of the segment.
    pub row_start: usize,
    /// Number of rows.
    pub rows: usize,
}

/// Work assignment of the tailoring strategy: each inner `Vec` is the
/// segment list of one thread block.
pub fn tailor_assignment(row_counts: &[usize], delta: usize) -> Vec<Vec<Segment>> {
    let delta = delta.max(1);
    let mut blocks: Vec<Vec<Segment>> = Vec::new();
    let mut residuals: Vec<Segment> = Vec::new();
    for (g, &m) in row_counts.iter().enumerate() {
        let full = m / delta;
        for s in 0..full {
            blocks.push(vec![Segment {
                gemm: g,
                row_start: s * delta,
                rows: delta,
            }]);
        }
        let rem = m - full * delta;
        if rem > 0 {
            residuals.push(Segment {
                gemm: g,
                row_start: full * delta,
                rows: rem,
            });
        }
    }
    // Pack residual segments into shared blocks until 1.2δ rows are reached.
    let cap = (RESIDUAL_PACK_FACTOR * delta as f64) as usize;
    let mut current: Vec<Segment> = Vec::new();
    let mut current_rows = 0usize;
    for seg in residuals {
        current_rows += seg.rows;
        current.push(seg);
        if current_rows > cap {
            blocks.push(std::mem::take(&mut current));
            current_rows = 0;
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    blocks
}

/// Statically verifies a tailored work assignment: every segment must lie
/// inside its GEMM, and for each GEMM the segments (across all blocks) must
/// tile its rows exactly — no overlap (a partial would be summed twice) and
/// no gap (rows silently dropped from the product). Returns a description of
/// the first defect found.
pub fn verify_tailor_assignment(
    row_counts: &[usize],
    assignment: &[Vec<Segment>],
) -> Result<(), String> {
    let mut ranges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); row_counts.len()];
    for (block, segs) in assignment.iter().enumerate() {
        for seg in segs {
            if seg.gemm >= row_counts.len() {
                return Err(format!(
                    "block {block}: segment references GEMM {} but only {} exist",
                    seg.gemm,
                    row_counts.len()
                ));
            }
            let m = row_counts[seg.gemm];
            if seg.rows == 0 || seg.row_start + seg.rows > m {
                return Err(format!(
                    "block {block}: rows [{}, {}) out of range for GEMM {} with {m} rows",
                    seg.row_start,
                    seg.row_start + seg.rows,
                    seg.gemm
                ));
            }
            ranges[seg.gemm].push((seg.row_start, seg.row_start + seg.rows));
        }
    }
    for (g, mut rs) in ranges.into_iter().enumerate() {
        rs.sort_unstable();
        let mut next = 0usize;
        for (start, end) in rs {
            if start < next {
                return Err(format!(
                    "GEMM {g}: rows [{start}, {next}) assigned to two blocks (partial counted twice)"
                ));
            }
            if start > next {
                return Err(format!("GEMM {g}: rows [{next}, {start}) unassigned"));
            }
            next = end;
        }
        if next != row_counts[g] {
            return Err(format!(
                "GEMM {g}: rows [{next}, {}) unassigned",
                row_counts[g]
            ));
        }
    }
    Ok(())
}

/// Runs [`verify_tailor_assignment`] when the GPU sanitizes, converting a
/// defect into a launch-refusing [`KernelError`].
fn check_assignment(
    gpu: &Gpu,
    row_counts: &[usize],
    assignment: &[Vec<Segment>],
) -> Result<(), KernelError> {
    if gpu.sanitize_enabled() {
        verify_tailor_assignment(row_counts, assignment).map_err(|e| {
            KernelError::Other(format!(
                "wsvd-sanitizer: tailored GEMM assignment invalid: {e}"
            ))
        })?;
    }
    Ok(())
}

/// Batched Gram products `B_k = A_k^T A_k`.
///
/// Each block reads its `A_k` where it lives: a [`Matrix`], or a pair
/// block's columns borrowed in place from its task. Returns one
/// `n_k x n_k` Gram matrix per input block plus the launch statistics
/// (tailored mode performs two launches; stats are summed).
pub fn batched_gram<A: Columns + Sync>(
    gpu: &Gpu,
    blocks: &[A],
    strategy: GemmStrategy,
) -> Result<(Vec<Matrix>, LaunchStats), KernelError> {
    batched_gram_owned(gpu, blocks, strategy, None)
}

/// [`batched_gram`] with the owner of each input block (see
/// [`Gpu::launch_collect_owned`]): every launch block runs on the host
/// thread of the owner of the GEMM it computes — under
/// [`GemmStrategy::Tailored`], of its first segment's GEMM.
pub fn batched_gram_owned<A: Columns + Sync>(
    gpu: &Gpu,
    blocks: &[A],
    strategy: GemmStrategy,
    owners: Option<&[usize]>,
) -> Result<(Vec<Matrix>, LaunchStats), KernelError> {
    match strategy {
        GemmStrategy::OneBlockPerGemm { threads } => {
            let kc = gemm_cfg(gpu, blocks.len(), threads, "batched_gram");
            gpu.launch_collect_owned(kc, owners, |b, ctx| {
                let a = &blocks[b];
                let (m, n) = a.shape();
                ctx.count_gm_load(m * n);
                ctx.par_step(n * n, 2 * m as u64);
                ctx.count_gm_store(n * n);
                let g = gram_rows(a, 0..m);
                ctx.guard_finite(g.as_slice());
                Ok(g)
            })
        }
        GemmStrategy::Tailored(plan) => {
            let rows: Vec<usize> = blocks.iter().map(|b| b.shape().0).collect();
            let assignment = tailor_assignment(&rows, plan.delta);
            check_assignment(gpu, &rows, &assignment)?;
            // When δ >= every row count, each GEMM is exactly one segment:
            // no partials exist and the reduction launch is skipped.
            let single_segment = assignment
                .iter()
                .all(|b| b.len() == 1 && b[0].rows == rows[b[0].gemm]);
            let kc = gemm_cfg(gpu, assignment.len(), plan.threads, "tailored_gram_partial");
            let of = owners.map(|o| first_segment_owners(&assignment, o));
            let (partials, stats1) = gpu.launch_collect_owned(kc, of.as_deref(), |b, ctx| {
                let mut out: Vec<(usize, Matrix)> = Vec::with_capacity(assignment[b].len());
                for seg in &assignment[b] {
                    let a = &blocks[seg.gemm];
                    let n = a.shape().1;
                    ctx.count_gm_load(seg.rows * n);
                    ctx.par_step(n * n, 2 * seg.rows as u64);
                    ctx.count_gm_store(n * n); // result (or partial) to GM
                    let g = gram_rows(a, seg.row_start..seg.row_start + seg.rows);
                    ctx.guard_finite(g.as_slice());
                    out.push((seg.gemm, g));
                }
                Ok(out)
            })?;
            if single_segment {
                let mut grams: Vec<Option<Matrix>> = (0..blocks.len()).map(|_| None).collect();
                for block_out in partials {
                    for (g, p) in block_out {
                        grams[g] = Some(p);
                    }
                }
                let grams = grams
                    .into_iter()
                    .map(|g| g.expect("one segment per gemm"))
                    .collect();
                return Ok((grams, stats1));
            }

            // Gather partials per GEMM and reduce.
            let mut per_gemm: Vec<Vec<Matrix>> = (0..blocks.len()).map(|_| Vec::new()).collect();
            for block_out in partials {
                for (g, p) in block_out {
                    per_gemm[g].push(p);
                }
            }
            let kc2 = gemm_cfg(gpu, blocks.len(), plan.threads, "tailored_gram_reduce");
            let (grams, stats2) = gpu.launch_collect_owned(kc2, owners, |g, ctx| {
                let parts = &per_gemm[g];
                let n = blocks[g].shape().1;
                let mut acc = Matrix::zeros(n, n);
                ctx.count_gm_load(parts.len() * n * n);
                for p in parts {
                    for (dst, src) in acc.as_mut_slice().iter_mut().zip(p.as_slice()) {
                        *dst += src;
                    }
                }
                ctx.par_step(n * n, parts.len().max(1) as u64);
                ctx.count_gm_store(n * n);
                ctx.guard_finite(acc.as_slice());
                Ok(acc)
            })?;
            Ok((grams, merge_stats(stats1, stats2)))
        }
    }
}

/// Batched right-updates `A_k <- A_k J_k` in place.
pub fn batched_update<J: Borrow<Matrix> + Sync>(
    gpu: &Gpu,
    blocks: &mut [Matrix],
    rotations: &[J],
    strategy: GemmStrategy,
) -> Result<LaunchStats, KernelError> {
    let cols = blocks.iter_mut().map(Matrix::cols_mut).collect();
    batched_update_cols(gpu, cols, rotations, strategy, None)
}

/// Batched right-updates `A_k <- A_k J_k` of blocks held as columns,
/// written back into the same columns: `blocks[k]` holds the columns of
/// `A_k`, which may be column slices of a larger matrix, so that a pair
/// block `A_ij` (or its V pair) is rotated where it lives. `J_k` is square.
///
/// Each simulated block stages the rows it updates (its segments under
/// [`GemmStrategy::Tailored`], the whole block otherwise) a plate at a time
/// in one block-local buffer of at most [`GEMM_SMEM_BYTES`], the host copy
/// of the kernel's shared-memory tile, reused across its plates and
/// segments, and writes the product straight back over them. An update has
/// no reduction across rows: every output element is one ascending-`p` sum
/// over a row of `A_k` and a column of `J_k`, so the result is
/// bit-identical to the product of the whole block, and each block still
/// charges exactly its own segments' counters and guards its own values.
///
/// `owners`, when given, names the owner of each `A_k`, grouped as in
/// [`batched_gram_owned`].
pub fn batched_update_cols<J: Borrow<Matrix> + Sync>(
    gpu: &Gpu,
    mut blocks: Vec<Vec<&mut [f64]>>,
    rotations: &[J],
    strategy: GemmStrategy,
    owners: Option<&[usize]>,
) -> Result<LaunchStats, KernelError> {
    assert_eq!(blocks.len(), rotations.len());
    match strategy {
        GemmStrategy::OneBlockPerGemm { threads } => {
            let kc = gemm_cfg(gpu, blocks.len(), threads, "batched_update");
            gpu.launch_over_owned(kc, owners, &mut blocks, |b, a, ctx| {
                let (m, n) = Columns::shape(a);
                ctx.count_gm_load(m * n + n * n);
                ctx.par_step(m * n, 2 * n as u64);
                ctx.count_gm_store(m * n);
                update_staged(a, rotations[b].borrow(), &mut Matrix::default());
                ctx.guard_finite_parts(a.iter().map(|c| &**c));
                Ok(())
            })
        }
        GemmStrategy::Tailored(plan) => {
            let rows: Vec<usize> = blocks.iter().map(|b| Columns::shape(b).0).collect();
            let assignment = tailor_assignment(&rows, plan.delta);
            check_assignment(gpu, &rows, &assignment)?;
            let kc = gemm_cfg(gpu, assignment.len(), plan.threads, "tailored_update");
            let of = owners.map(|o| first_segment_owners(&assignment, o));
            let mut pieces = segment_pieces(&assignment, blocks);
            gpu.launch_over_owned(kc, of.as_deref(), &mut pieces, |_, segs, ctx| {
                let mut stage = Matrix::default();
                for (seg, a) in segs.iter_mut() {
                    let n = a.len();
                    ctx.count_gm_load(seg.rows * n + n * n);
                    ctx.par_step(seg.rows * n, 2 * n as u64);
                    ctx.count_gm_store(seg.rows * n);
                    update_staged(a, rotations[seg.gemm].borrow(), &mut stage);
                    ctx.guard_finite_parts(a.iter().map(|c| &**c));
                }
                Ok(())
            })
        }
    }
}

/// `a <- a j` for the rows `a`'s columns hold, a plate of rows at a time:
/// each plate is copied into `stage` (at most [`GEMM_SMEM_BYTES`], the
/// kernel's tile) first, since every output element reads its whole input
/// row.
fn update_staged(a: &mut [&mut [f64]], j: &Matrix, stage: &mut Matrix) {
    let (m, n) = (a.first().map_or(0, |c| c.len()), a.len());
    assert_eq!(j.shape(), (n, n), "in-place updates need a square rotation");
    let plate = (GEMM_SMEM_BYTES / 8 / n.max(1)).max(1);
    for start in (0..m).step_by(plate) {
        let rows = start..(start + plate).min(m);
        let mut out: Vec<&mut [f64]> = a.iter_mut().map(|c| &mut c[rows.clone()]).collect();
        stage.assign_rows(&out, 0..rows.len());
        matmul_rows(stage, 0..rows.len(), j, &mut out);
    }
}

/// The owner of each tailored block: that of its first segment's GEMM (a
/// block packing residuals of several GEMMs runs with its first).
fn first_segment_owners(assignment: &[Vec<Segment>], owners: &[usize]) -> Vec<usize> {
    assignment.iter().map(|segs| owners[segs[0].gemm]).collect()
}

/// One block's share of the tailored update's outputs: per segment, the
/// pieces of the output columns that hold its rows.
type SegmentPieces<'a> = Vec<(Segment, Vec<&'a mut [f64]>)>;

/// Cuts every output column at its GEMM's segment boundaries and hands
/// each block the pieces of its own segments, in assignment order. Panics
/// unless the segments tile every output column.
fn segment_pieces<'a>(
    assignment: &[Vec<Segment>],
    outputs: Vec<Vec<&'a mut [f64]>>,
) -> Vec<SegmentPieces<'a>> {
    let mut pieces: Vec<SegmentPieces<'a>> = assignment
        .iter()
        .map(|segs| segs.iter().map(|&seg| (seg, Vec::new())).collect())
        .collect();
    // Each GEMM's segments as (block, slot), sorted by first row.
    let mut by_gemm: Vec<Vec<(usize, usize)>> = vec![Vec::new(); outputs.len()];
    for (b, segs) in assignment.iter().enumerate() {
        for (k, seg) in segs.iter().enumerate() {
            by_gemm[seg.gemm].push((b, k));
        }
    }
    for (cols, order) in outputs.into_iter().zip(&mut by_gemm) {
        order.sort_unstable_by_key(|&(b, k)| assignment[b][k].row_start);
        for mut rest in cols {
            for &(b, k) in order.iter() {
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(assignment[b][k].rows);
                pieces[b][k].1.push(piece);
                rest = tail;
            }
            assert!(
                rest.is_empty(),
                "tailored segments leave output rows unassigned"
            );
        }
    }
    pieces
}

fn gemm_cfg(gpu: &Gpu, grid: usize, threads: usize, label: &'static str) -> KernelConfig {
    let mut kc = KernelConfig::new(grid, threads, GEMM_SMEM_BYTES, label);
    kc.uses_tensor_cores = gpu.device().tensor_gemm_speedup > 1.0;
    kc
}

fn merge_stats(a: LaunchStats, b: LaunchStats) -> LaunchStats {
    let mut totals = a.totals;
    totals.merge(&b.totals);
    LaunchStats {
        grid: a.grid + b.grid,
        threads_per_block: a.threads_per_block,
        smem_bytes_per_block: a.smem_bytes_per_block,
        totals,
        kernel_seconds: a.kernel_seconds + b.kernel_seconds,
        overhead_seconds: a.overhead_seconds + b.overhead_seconds,
        occupancy: a.occupancy.max(b.occupancy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;
    use wsvd_linalg::gemm::matmul;
    use wsvd_linalg::generate::random_batch;

    fn plan(w: usize, delta: usize) -> GemmStrategy {
        GemmStrategy::Tailored(TailorPlan::new(w, delta, 256))
    }

    #[test]
    fn tailor_assignment_splits_rows() {
        // One 100-row GEMM at δ=32: 3 standard segments + 1 residual (4 rows).
        let a = tailor_assignment(&[100], 32);
        assert_eq!(a.len(), 4);
        assert_eq!(
            a[0],
            vec![Segment {
                gemm: 0,
                row_start: 0,
                rows: 32
            }]
        );
        assert_eq!(
            a[3],
            vec![Segment {
                gemm: 0,
                row_start: 96,
                rows: 4
            }]
        );
    }

    #[test]
    fn tailor_assignment_packs_residuals() {
        // Four GEMMs of 40 rows at δ=32: 4 standard + residuals of 8 rows
        // each; cap = 38.4 rows, so residuals pack 5-at-a-time (8*5=40>38).
        let a = tailor_assignment(&[40, 40, 40, 40], 32);
        let standard = a.iter().filter(|b| b.len() == 1 && b[0].rows == 32).count();
        assert_eq!(standard, 4);
        let packed: Vec<_> = a.iter().filter(|b| b[0].rows != 32).collect();
        assert_eq!(packed.len(), 1, "all four 8-row residuals share one block");
        assert_eq!(packed[0].len(), 4);
    }

    #[test]
    fn tailor_assignment_delta_at_least_rows_gives_one_block_per_gemm() {
        let a = tailor_assignment(&[64, 64], 64);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn tailor_assignments_verify_clean() {
        for (rows, delta) in [
            (vec![100usize], 32usize),
            (vec![40, 40, 40, 40], 32),
            (vec![64, 64], 64),
            (vec![33, 64, 7], 16),
            (vec![1, 2, 3], 1),
        ] {
            let a = tailor_assignment(&rows, delta);
            verify_tailor_assignment(&rows, &a)
                .unwrap_or_else(|e| panic!("rows={rows:?} delta={delta}: {e}"));
        }
    }

    #[test]
    fn corrupted_assignments_rejected() {
        let rows = [64usize];
        let mut a = tailor_assignment(&rows, 32);
        // Overlap: duplicate the first segment.
        let dup = a[0][0];
        a.push(vec![dup]);
        assert!(verify_tailor_assignment(&rows, &a)
            .unwrap_err()
            .contains("two blocks"));
        // Gap: drop a segment entirely.
        let mut b = tailor_assignment(&rows, 32);
        b.remove(0);
        assert!(verify_tailor_assignment(&rows, &b)
            .unwrap_err()
            .contains("unassigned"));
        // Out of range.
        let c = vec![vec![Segment {
            gemm: 0,
            row_start: 60,
            rows: 10,
        }]];
        assert!(verify_tailor_assignment(&rows, &c)
            .unwrap_err()
            .contains("out of range"));
        // Dangling GEMM index.
        let d = vec![vec![Segment {
            gemm: 3,
            row_start: 0,
            rows: 8,
        }]];
        assert!(verify_tailor_assignment(&rows, &d).is_err());
    }

    #[test]
    fn sanitized_gpu_refuses_corrupt_assignment_path() {
        // The shipped tailor_assignment is correct, so the sanitized launch
        // succeeds and matches the unsanitized result.
        let gpu = Gpu::with_sanitize(V100, wsvd_gpu_sim::SanitizeMode::Full);
        let blocks = random_batch(3, 50, 8, 17);
        let (grams, _) = batched_gram(&gpu, &blocks, plan(4, 16)).unwrap();
        for (a, g) in blocks.iter().zip(&grams) {
            assert!(g.sub(&wsvd_linalg::gram(a)).max_abs() < 1e-12);
        }
        assert!(gpu.sanitizer_report().is_clean());
    }

    #[test]
    fn gemm_requirement_fits_every_device() {
        let req = gemm_smem_requirement();
        assert_eq!(req.bytes, GEMM_SMEM_BYTES);
        for d in wsvd_gpu_sim::ALL_DEVICES {
            assert!(req.fits(d.smem_per_block_bytes), "{}", d.name);
        }
    }

    #[test]
    fn gram_strategies_agree_numerically() {
        let gpu = Gpu::new(V100);
        let blocks = random_batch(5, 48, 16, 3);
        let (plain, _) = batched_gram(
            &gpu,
            &blocks,
            GemmStrategy::OneBlockPerGemm { threads: 256 },
        )
        .unwrap();
        let (tailored, _) = batched_gram(&gpu, &blocks, plan(8, 16)).unwrap();
        for (p, t) in plain.iter().zip(&tailored) {
            assert!(p.sub(t).max_abs() < 1e-12);
        }
    }

    #[test]
    fn update_strategies_agree_numerically() {
        let gpu = Gpu::new(V100);
        let mut b1 = random_batch(4, 40, 8, 5);
        let mut b2 = b1.clone();
        let js: Vec<Matrix> = (0..4)
            .map(|k| wsvd_linalg::householder::seeded_orthogonal(8, k as u64 + 1))
            .collect();
        batched_update(
            &gpu,
            &mut b1,
            &js,
            GemmStrategy::OneBlockPerGemm { threads: 256 },
        )
        .unwrap();
        batched_update(&gpu, &mut b2, &js, plan(4, 16)).unwrap();
        for (x, y) in b1.iter().zip(&b2) {
            assert!(x.sub(y).max_abs() < 1e-12);
        }
    }

    /// Ragged pair blocks at δ = 16: nine standard segments, and the 1-,
    /// 7- and 2-row residuals of GEMMs 0, 2 and 3 packed into one block.
    /// The rotations hold exact zeros (the zero-skip path): one inside a
    /// four-`p` group, a whole zero column, an identity, and one in the
    /// trailing `p` past the last group of four.
    fn ragged_update_case() -> (Vec<Matrix>, Vec<Matrix>) {
        let blocks: Vec<Matrix> = [33usize, 64, 7, 50]
            .iter()
            .enumerate()
            .map(|(k, &m)| wsvd_linalg::generate::random_uniform(m, 10, 40 + k as u64))
            .collect();
        let mut js: Vec<Matrix> = (0..4)
            .map(|k| wsvd_linalg::householder::seeded_orthogonal(10, 60 + k as u64))
            .collect();
        js[0][(2, 3)] = 0.0;
        for p in 0..10 {
            js[1][(p, 5)] = 0.0;
        }
        js[2] = Matrix::identity(10);
        js[3][(9, 0)] = 0.0;
        (blocks, js)
    }

    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        bits_of(m.as_slice())
    }

    #[test]
    fn tailored_update_is_bitwise_per_gemm_matmul() {
        let (orig, js) = ragged_update_case();
        let assignment = tailor_assignment(&[33, 64, 7, 50], 16);
        assert!(assignment.iter().any(|b| b.len() == 3), "residuals pack");
        for strategy in [plan(5, 16), GemmStrategy::OneBlockPerGemm { threads: 256 }] {
            let gpu = Gpu::new(V100);
            let mut blocks = orig.clone();
            batched_update(&gpu, &mut blocks, &js, strategy).unwrap();
            for ((got, a), j) in blocks.iter().zip(&orig).zip(&js) {
                assert_eq!(bits(got), bits(&matmul(a, j)), "{strategy:?}");
            }
            // Borrowed rotations, blocks held as the columns of one wider
            // matrix each and rotated where they live; the other columns
            // are NaN and must be left alone.
            let borrowed: Vec<&Matrix> = js.iter().collect();
            let mut wide: Vec<Matrix> = orig
                .iter()
                .map(|a| {
                    Matrix::from_fn(a.rows(), 13, |i, j| match j {
                        3.. => a[(i, j - 3)],
                        _ => f64::NAN,
                    })
                })
                .collect();
            let cols = wide.iter_mut().map(|w| w.cols_mut().split_off(3)).collect();
            batched_update_cols(&gpu, cols, &borrowed, strategy, None).unwrap();
            for ((w, a), j) in wide.iter().zip(&orig).zip(&js) {
                let want = matmul(a, j);
                for c in 0..10 {
                    assert_eq!(bits_of(w.col(c + 3)), bits_of(want.col(c)), "{strategy:?}");
                }
                assert!(w.col(0).iter().all(|x| x.is_nan()), "columns left alone");
            }
        }
    }

    /// The ragged case's blocks held as columns `3..` of NaN-padded wider
    /// matrices, the way a pair block lives in its task.
    fn padded(blocks: &[Matrix]) -> Vec<Matrix> {
        blocks
            .iter()
            .map(|a| {
                Matrix::from_fn(a.rows(), a.cols() + 3, |i, j| match j {
                    3.. => a[(i, j - 3)],
                    _ => f64::NAN,
                })
            })
            .collect()
    }

    fn stats_bits(s: &LaunchStats) -> Vec<u64> {
        let t = &s.totals;
        vec![
            s.grid as u64,
            t.flops,
            t.gm_load_bytes,
            t.gm_store_bytes,
            t.gm_transactions,
            t.smem_traffic_bytes,
            t.span_cycles.to_bits(),
            s.kernel_seconds.to_bits(),
            s.overhead_seconds.to_bits(),
            s.occupancy.to_bits(),
        ]
    }

    #[test]
    fn gram_of_borrowed_columns_is_bitwise_the_gathered_gram() {
        // Ragged rows (residuals packed at δ = 16) and ragged widths, read
        // in place from wider NaN-padded matrices: the Grams and the launch
        // statistics must equal those of the gathered blocks bit for bit.
        let (mut blocks, _) = ragged_update_case();
        blocks[1] = blocks[1].col_block(0, 7);
        blocks[3] = blocks[3].col_block(0, 3);
        for strategy in [plan(5, 16), GemmStrategy::OneBlockPerGemm { threads: 256 }] {
            let (want, want_stats) = batched_gram(&Gpu::new(V100), &blocks, strategy).unwrap();
            let mut wide = padded(&blocks);
            let views: Vec<Vec<&mut [f64]>> =
                wide.iter_mut().map(|w| w.cols_mut().split_off(3)).collect();
            let (got, got_stats) = batched_gram(&Gpu::new(V100), &views, strategy).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.shape(), w.shape());
                assert_eq!(bits(g), bits(w), "{strategy:?}");
            }
            assert_eq!(
                stats_bits(&got_stats),
                stats_bits(&want_stats),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn update_of_borrowed_columns_is_bitwise_the_gathered_update() {
        // The same ragged blocks rotated where they live: the columns, the
        // untouched NaN padding and the launch statistics against the
        // update of the gathered copies.
        let (orig, js) = ragged_update_case();
        for strategy in [plan(5, 16), GemmStrategy::OneBlockPerGemm { threads: 256 }] {
            let mut want = orig.clone();
            let want_stats = batched_update(&Gpu::new(V100), &mut want, &js, strategy).unwrap();
            let mut wide = padded(&orig);
            let views = wide.iter_mut().map(|w| w.cols_mut().split_off(3)).collect();
            let got_stats =
                batched_update_cols(&Gpu::new(V100), views, &js, strategy, None).unwrap();
            for (w, a) in wide.iter().zip(&want) {
                assert_eq!(
                    bits_of(&w.as_slice()[3 * a.rows()..]),
                    bits(a),
                    "{strategy:?}"
                );
                assert!(w.as_slice()[..3 * a.rows()].iter().all(|x| x.is_nan()));
            }
            assert_eq!(
                stats_bits(&got_stats),
                stats_bits(&want_stats),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn update_plates_are_bitwise_the_whole_product() {
        // Blocks taller than one 16 KiB staging plate (204 rows at 10
        // columns, 85 at 24): whole blocks and 256-row segments are staged
        // in several plates, and every element must still be the whole
        // product's.
        let orig = vec![
            wsvd_linalg::generate::random_uniform(450, 10, 81),
            wsvd_linalg::generate::random_uniform(300, 24, 82),
        ];
        let js: Vec<Matrix> = orig
            .iter()
            .map(|a| wsvd_linalg::householder::seeded_orthogonal(a.cols(), 83))
            .collect();
        for strategy in [
            plan(12, 256),
            GemmStrategy::OneBlockPerGemm { threads: 256 },
        ] {
            let mut blocks = orig.clone();
            batched_update(&Gpu::new(V100), &mut blocks, &js, strategy).unwrap();
            for ((got, a), j) in blocks.iter().zip(&orig).zip(&js) {
                assert_eq!(bits(got), bits(&matmul(a, j)), "{strategy:?}");
            }
        }
    }

    #[test]
    fn update_launch_stats_are_pinned() {
        // Values of the copy-and-multiply kernels this update replaced, on
        // the same inputs: the simulated blocks must not move. Per strategy:
        // grid, totals (flops, GM load/store bytes, GM transactions, SM
        // traffic, span cycles) and the bits of kernel seconds and occupancy.
        type Pin = (usize, [u64; 5], f64, u64, u64);
        let pins: [(GemmStrategy, Pin); 2] = [
            (
                plan(5, 16),
                (
                    10,
                    [30800, 21920, 12320, 1072, 24640],
                    273.0,
                    0x3e89def6ccc86626,
                    0x3f90000000000000,
                ),
            ),
            (
                GemmStrategy::OneBlockPerGemm { threads: 256 },
                (
                    4,
                    [30800, 15520, 12320, 872, 24640],
                    177.0,
                    0x3e9373ac1715b6ab,
                    0x3f7999999999999a,
                ),
            ),
        ];
        for (strategy, (grid, counts, span, kernel_s, occ)) in pins {
            let (mut blocks, js) = ragged_update_case();
            let gpu = Gpu::new(V100);
            let s = batched_update(&gpu, &mut blocks, &js, strategy).unwrap();
            let t = s.totals;
            assert_eq!(
                (s.grid, s.threads_per_block, s.smem_bytes_per_block),
                (grid, 256, 16384)
            );
            assert_eq!(
                [
                    t.flops,
                    t.gm_load_bytes,
                    t.gm_store_bytes,
                    t.gm_transactions,
                    t.smem_traffic_bytes
                ],
                counts,
                "{strategy:?}"
            );
            assert_eq!(t.span_cycles.to_bits(), span.to_bits());
            assert_eq!(s.kernel_seconds.to_bits(), kernel_s);
            assert_eq!(s.overhead_seconds.to_bits(), 0x3ed4f8b588e368f0);
            assert_eq!(s.occupancy.to_bits(), occ);
        }
    }

    #[test]
    fn tailoring_helps_small_batches_of_tall_gemms() {
        // 2 tall GEMMs: one block each starves the device; 16 segments fill it.
        let gpu = Gpu::new(V100);
        let blocks = random_batch(2, 2048, 16, 7);
        let (_, plain) = batched_gram(
            &gpu,
            &blocks,
            GemmStrategy::OneBlockPerGemm { threads: 256 },
        )
        .unwrap();
        let (_, tailored) = batched_gram(&gpu, &blocks, plan(8, 128)).unwrap();
        assert!(
            tailored.kernel_seconds < plain.kernel_seconds,
            "tailored {} !< plain {}",
            tailored.kernel_seconds,
            plain.kernel_seconds
        );
    }

    #[test]
    fn gram_result_is_correct_gram() {
        let gpu = Gpu::new(V100);
        let blocks = random_batch(3, 20, 6, 11);
        let (grams, _) = batched_gram(&gpu, &blocks, plan(4, 8)).unwrap();
        for (a, g) in blocks.iter().zip(&grams) {
            assert!(g.sub(&wsvd_linalg::gram(a)).max_abs() < 1e-12);
        }
    }

    #[test]
    fn update_applies_rotation() {
        let gpu = Gpu::new(V100);
        let mut blocks = random_batch(1, 10, 4, 13);
        let orig = blocks[0].clone();
        let j = wsvd_linalg::householder::seeded_orthogonal(4, 9);
        batched_update(&gpu, &mut blocks, std::slice::from_ref(&j), plan(4, 4)).unwrap();
        assert!(blocks[0].sub(&matmul(&orig, &j)).max_abs() < 1e-12);
    }

    #[test]
    fn mixed_row_counts_are_handled() {
        let gpu = Gpu::new(V100);
        let blocks = vec![
            wsvd_linalg::generate::random_uniform(33, 8, 1),
            wsvd_linalg::generate::random_uniform(64, 8, 2),
            wsvd_linalg::generate::random_uniform(7, 8, 3),
        ];
        let (grams, _) = batched_gram(&gpu, &blocks, plan(4, 16)).unwrap();
        for (a, g) in blocks.iter().zip(&grams) {
            assert!(g.sub(&wsvd_linalg::gram(a)).max_abs() < 1e-12);
        }
    }
}
