//! The level engine: the one block-Jacobi sweep loop in the workspace.
//!
//! Each W-cycle level (Algorithm 2) runs it, and so does the baselines'
//! uniform-width block Jacobi (Algorithm 1): the same loop with one fixed
//! width, no recursion and a forced [`Route`]. Each step takes the pair
//! blocks `A_ij = [A_i, A_j]` the schedule pairs across the batch where they
//! live, as their task's columns; the kernel its route picks reads them
//! there and writes `A_ij J_ij` and `V_ij J_ij` back into the same columns
//! (only a recursing block is copied out, since a sub-level needs owned
//! tasks). A task leaves once its columns test converged at a sweep
//! boundary. What only the W-cycle does (plan
//! resolution, static checks, the fused launch graph, the recursion itself,
//! telemetry) stays with its caller, behind [`Hooks`].

use wsvd_batched::gemm::{batched_gram_owned, batched_update_cols, GemmStrategy};
use wsvd_gpu_sim::{Gpu, KernelError};
use wsvd_jacobi::batch::{batched_evd_sm_owned, batched_svd_in_place};
use wsvd_jacobi::evd::{EvdConfig, EvdVariant};
use wsvd_jacobi::fits::{evd_fits_in_sm, svd_fits_in_sm};
use wsvd_jacobi::onesided::{MemSpace, OneSidedConfig};
use wsvd_jacobi::verify::{verify_schedule, Coverage};
use wsvd_linalg::gemm::dot;
use wsvd_linalg::matrix::pair_cols_mut;
use wsvd_linalg::verify::{columns_converged, max_column_coherence};
use wsvd_linalg::Matrix;

use crate::config::WCycleConfig;
use crate::stats::{SweepRecord, WCycleStats};

/// Which rotation kernels a level may use: the classifier that maps each
/// pair block to a [`Rotation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Algorithm 2: SM SVD when the pair block's SVD fits in shared memory,
    /// else Gram + SM EVD when the Gram EVD fits, else recursion. Group
    /// (ii)'s block products join the V updates in one fused launch.
    Multilevel,
    /// Uniform direct route (`Batched_DP_Direct` of ref. \[19\]): SM SVD when
    /// it fits, else the global-memory SVD kernel.
    Direct,
    /// Uniform Gram route (`Batched_DP_Gram`): Gram + SM EVD for every pair
    /// block.
    Gram,
}

/// The kernel that produces one pair block's rotation `J_ij`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rotation {
    /// One-sided Jacobi SVD of `A_ij` in shared memory (Observation 1): the
    /// rotated block comes out of the kernel, no update GEMM needed.
    SmSvd = 0,
    /// One-sided Jacobi SVD of `A_ij` resident in global memory.
    GmSvd = 1,
    /// Gram GEMM `A_ij^T A_ij`, then two-sided Jacobi EVD in shared memory.
    GramEvd = 2,
    /// A deeper level with a smaller width.
    Recurse = 3,
}

impl Route {
    /// The kernel an `m x nn` pair block takes on this route, on a device
    /// with `smem` bytes of shared memory per block.
    pub fn classify(self, m: usize, nn: usize, smem: usize) -> Rotation {
        match self {
            Route::Gram => Rotation::GramEvd,
            _ if svd_fits_in_sm(m, nn, smem) => Rotation::SmSvd,
            Route::Direct => Rotation::GmSvd,
            Route::Multilevel if evd_fits_in_sm(nn, smem) => Rotation::GramEvd,
            Route::Multilevel => Rotation::Recurse,
        }
    }
}

/// The tolerance of the rotation generators inside a level whose sweep
/// boundary tests at `cfg.tol`. It must be tighter than `tol`, or the
/// level's coherence plateaus just above it (each pair block would keep up
/// to `tol` of residual coherence internally).
pub(crate) fn inner_tol(cfg: &WCycleConfig) -> f64 {
    (cfg.tol * 1e-2).max(1e-15)
}

/// One run of the sweep loop over a batch. Of `cfg` it reads the sweep
/// settings (`tol`, `max_sweeps`, `ordering`, `dynamic_ordering`) and the
/// rotation kernels' (`alpha`, `cache_norms`, `kernel_threads`).
pub struct Level<'a> {
    /// Level number (1-based) the rotations are tallied under.
    pub level: usize,
    /// The pair-block classifier.
    pub route: Route,
    /// Per-task column partition, `(start, width)` per block.
    pub parts: &'a [Vec<(usize, usize)>],
    /// Batched Gram and update GEMM mapping.
    pub strategy: GemmStrategy,
    /// Two-sided Jacobi variant of the EVD kernel.
    pub evd_variant: EvdVariant,
    /// Sweep and kernel settings.
    pub cfg: &'a WCycleConfig,
}

/// What the W-cycle adds to a level's loop.
pub struct Hooks<'h> {
    /// Orthogonalizes in place the pair blocks routed to
    /// [`Rotation::Recurse`] and returns each one's accumulated V.
    pub recurse: &'h mut Recurse<'h>,
    /// Receives each sweep's record and how many pair blocks each
    /// [`Rotation`] kernel took in it (indexed by `Rotation as usize`).
    pub sweep_done: &'h mut dyn FnMut(SweepRecord, [u64; 4]),
}

/// The recursion hook's type (see [`Hooks::recurse`]).
pub type Recurse<'h> =
    dyn FnMut(&mut [Matrix], &mut WCycleStats) -> Result<Vec<Matrix>, KernelError> + 'h;

/// One pair block of a step: its task and the `(start, width)` column
/// blocks `A_i`, `A_j` it pairs.
#[derive(Clone, Copy)]
struct PairRef {
    task: usize,
    bi: (usize, usize),
    bj: (usize, usize),
}

impl Level<'_> {
    /// Orthogonalizes every task's columns by block rotations: on return
    /// each task's columns are `UΣ` (unsorted) and each present V holds the
    /// accumulated rotations. Returns, per task, the sweeps it ran and
    /// whether it converged, i.e. left the loop on the sweep-boundary test
    /// rather than at `max_sweeps`. Without `hooks` the route must not
    /// recurse and no sweep is reported.
    pub fn run(
        &self,
        gpu: &Gpu,
        tasks: &mut [Matrix],
        vs: &mut [Option<Matrix>],
        stats: &mut WCycleStats,
        mut hooks: Option<Hooks<'_>>,
    ) -> Result<Vec<(usize, bool)>, KernelError> {
        let cfg = self.cfg;
        let inner_tol = inner_tol(cfg);
        // Dynamically generated sweeps carry no static proof (the schedule
        // is data-dependent): under the sanitizer each is checked before its
        // rotations launch.
        let verify_schedules = cfg.dynamic_ordering && gpu.sanitize_enabled();
        let measure_coherence = hooks.is_some() && gpu.trace().is_enabled();
        let smem = gpu.device().smem_per_block_bytes;
        let mut sweeps = vec![0usize; tasks.len()];
        let mut active: Vec<bool> = tasks.iter().map(|t| t.cols() >= 2).collect();
        // The step's pair references, kept across steps.
        let mut refs: Vec<PairRef> = Vec::new();

        for round in 0..cfg.max_sweeps {
            if !active.iter().any(|&a| a) {
                break;
            }
            let mut sweep_blocks = [0u64; 4];
            let schedules: Vec<_> = self
                .parts
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
            if verify_schedules {
                for (t, sched) in schedules.iter().enumerate() {
                    if sched.is_empty() {
                        continue;
                    }
                    verify_schedule(sched, self.parts[t].len(), Coverage::ExactlyOnce).map_err(
                        |e| {
                            KernelError::Other(format!(
                                "wsvd-sanitizer: dynamic schedule invalid at level {}, \
                                 sweep {round}, task {t}: {e}",
                                self.level
                            ))
                        },
                    )?;
                }
            }
            let max_steps = schedules.iter().map(|s| s.len()).max().unwrap_or(0);

            for step in 0..max_steps {
                // This step's pair blocks across the whole batch.
                refs.clear();
                for (t, sched) in schedules.iter().enumerate() {
                    if !active[t] || step >= sched.len() {
                        continue;
                    }
                    for &(i, j) in &sched[step] {
                        let (bi, bj) = (self.parts[t][i], self.parts[t][j]);
                        refs.push(PairRef { task: t, bi, bj });
                    }
                }
                if refs.is_empty() {
                    continue;
                }
                stats.add_rotations(self.level, refs.len() as u64);
                let pair_at = |r: &PairRef| (r.task, r.bi, r.bj);
                // Every launch names each block's task as its owner, so one
                // host thread runs all of a task's blocks in a launch.
                let tasks_of =
                    |idx: &[usize]| -> Vec<usize> { idx.iter().map(|&i| refs[i].task).collect() };

                let mut groups: [Vec<usize>; 4] = Default::default();
                for (idx, r) in refs.iter().enumerate() {
                    let (m, nn) = (tasks[r.task].rows(), r.bi.1 + r.bj.1);
                    groups[self.route.classify(m, nn, smem) as usize].push(idx);
                }
                for (n, g) in sweep_blocks.iter_mut().zip(&groups) {
                    *n += g.len() as u64;
                }
                let [sm, gm, gb, gc] = groups;
                // Every pair block where it lives, as its task's columns: the
                // kernels read and write them in place.
                let mut blocks =
                    pair_cols_mut(tasks.iter_mut().map(Some), refs.iter().map(pair_at));
                let mut take = |idx: &[usize]| -> Vec<_> {
                    idx.iter()
                        .map(|&i| std::mem::take(&mut blocks[i]))
                        .collect()
                };
                let mut rotations: Vec<Option<Matrix>> = (0..refs.len()).map(|_| None).collect();

                // Direct SVDs, in SM then in GM: they avoid the Gram GEMM
                // (Obs. 1) and the update GEMM (each block writes its
                // converged columns, A_ij J, back into the task itself).
                for (idx, space) in [(&sm, MemSpace::Shared), (&gm, MemSpace::Global)] {
                    if idx.is_empty() {
                        continue;
                    }
                    let sub = take(idx);
                    let m_star = sub
                        .iter()
                        .map(|c| c[0].len())
                        .max()
                        .expect("non-empty group");
                    let one_sided = OneSidedConfig {
                        tol: inner_tol,
                        threads_per_pair: cfg.alpha.resolve(m_star),
                        cache_norms: cfg.cache_norms,
                        accumulate_v: true,
                        ordering: cfg.ordering,
                        ..Default::default()
                    };
                    let of = tasks_of(idx);
                    let (js, _) = batched_svd_in_place(
                        gpu,
                        sub,
                        &one_sided,
                        cfg.kernel_threads,
                        space,
                        Some(&of),
                    )?;
                    for (&i, j) in idx.iter().zip(js) {
                        rotations[i] = Some(j);
                    }
                }
                stats.sm_svd_blocks += sm.len() as u64;
                stats.gm_svd_blocks += gm.len() as u64;

                // Gram GEMM -> SM EVD; the `A_ij J_ij` products follow below.
                let gram_blocks = take(&gb);
                let gram_of = tasks_of(&gb);
                if !gb.is_empty() {
                    let owners = Some(&gram_of[..]);
                    let (grams, _) = batched_gram_owned(gpu, &gram_blocks, self.strategy, owners)?;
                    let evd_cfg = EvdConfig {
                        tol: 1e-15,
                        max_sweeps: 30,
                        variant: self.evd_variant,
                    };
                    let (evds, _) =
                        batched_evd_sm_owned(gpu, &grams, &evd_cfg, cfg.kernel_threads, owners)?;
                    stats.sm_evd_blocks += gb.len() as u64;
                    for (&i, evd) in gb.iter().zip(evds) {
                        rotations[i] = Some(evd.j);
                    }
                }

                // Recursion to a deeper level, through the caller: a
                // sub-level needs owned tasks, so these blocks are gathered
                // and their converged columns copied back.
                if !gc.is_empty() {
                    let mut sub: Vec<Matrix> = gc
                        .iter()
                        .map(|&i| Matrix::from_columns(&blocks[i]))
                        .collect();
                    let hooks = hooks.as_mut().expect("only a hooked level recurses");
                    let sub_vs = (hooks.recurse)(&mut sub, stats)?;
                    stats.recursed_blocks += gc.len() as u64;
                    for ((&i, converged), v) in gc.iter().zip(sub).zip(sub_vs) {
                        for (k, dst) in blocks[i].iter_mut().enumerate() {
                            dst.copy_from_slice(converged.col(k));
                        }
                        rotations[i] = Some(v);
                    }
                }

                // The update GEMMs, each rotating its block in place. Every
                // rotation is borrowed, so one J serves both its block and
                // its V pair. The multilevel route runs the Gram blocks'
                // products and all V updates as one fused launch; the
                // uniform routes launch the block products first, on their
                // own.
                let rotation = |i: &usize| {
                    rotations[*i]
                        .as_ref()
                        .expect("rotation computed for every block")
                };
                let v_refs: Vec<usize> = (0..refs.len())
                    .filter(|&i| vs[refs[i].task].is_some())
                    .collect();
                let fused = self.route == Route::Multilevel;
                let mut upd_js: Vec<&Matrix> = gb.iter().map(rotation).collect();
                let mut upd = gram_blocks;
                let mut upd_of = gram_of;
                if !fused && !upd.is_empty() {
                    batched_update_cols(gpu, upd, &upd_js, self.strategy, Some(&upd_of))?;
                    (upd, upd_js, upd_of) = (Vec::new(), Vec::new(), Vec::new());
                }
                if !upd.is_empty() || !v_refs.is_empty() {
                    upd_js.extend(v_refs.iter().map(rotation));
                    upd_of.extend(tasks_of(&v_refs));
                    upd.extend(pair_cols_mut(
                        vs.iter_mut().map(Option::as_mut),
                        v_refs.iter().map(|&i| pair_at(&refs[i])),
                    ));
                    batched_update_cols(gpu, upd, &upd_js, self.strategy, Some(&upd_of))?;
                }
            }

            // Schedule-independent convergence test at the sweep boundary (in
            // a real kernel this reduction falls out of the inner products
            // the sweep already computed; it is not charged to the cost
            // model).
            let mut coherence = 0.0f64;
            for t in 0..tasks.len() {
                if active[t] {
                    sweeps[t] += 1;
                    if measure_coherence {
                        coherence = coherence.max(max_column_coherence(&tasks[t]));
                    }
                    if columns_converged(&tasks[t], cfg.tol) {
                        active[t] = false; // converged: exits the workflow
                    }
                }
            }
            if let Some(hooks) = hooks.as_mut() {
                let rec = SweepRecord {
                    level: self.level as u64,
                    sweep: (round + 1) as u64,
                    off_norm: coherence,
                    active: active.iter().filter(|&&a| a).count() as u64,
                };
                (hooks.sweep_done)(rec, sweep_blocks);
            }
        }
        Ok(sweeps.into_iter().zip(active.iter().map(|a| !a)).collect())
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_linalg::generate::random_uniform;
    use wsvd_linalg::matrix::partition_cols;

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
}
