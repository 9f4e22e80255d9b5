//! Data assimilation on an oceanic model grid (§V-F).
//!
//! On a 0.1°-resolution latitude–longitude mesh, the analysis step of an
//! ensemble smoother computes, at every grid point, a local update weight
//! matrix from the SVD of the scaled observation-anomaly matrix
//! `S = (HZ) / sqrt(N-1)`: with `S = U Σ V^T`, the Kalman-style weights are
//! `W = V (Σ^2 + I)^{-1} Σ U^T d` (observation innovations `d`). The matrix
//! size per point varies with local observation density from `50x50` to
//! `1024x1024` — exactly the mixed-size batched-SVD workload the W-cycle is
//! built for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsvd_baselines::magma_batched_svd;
use wsvd_core::{wcycle_svd, ChunkPayload, RunCheckpoint, WCycleConfig, WCycleStats};
use wsvd_gpu_sim::cluster::{
    resume_elastic, run_elastic, size_class_chunks, ElasticConfig, GpuCluster, RecoveryCounters,
    TaskChunk,
};
use wsvd_gpu_sim::{Gpu, KernelError};
use wsvd_linalg::generate::random_uniform;
use wsvd_linalg::Matrix;

/// Which SVD engine the analysis step uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvdEngine {
    /// The W-cycle batched SVD.
    WCycle,
    /// The MAGMA-like serial two-stage SVD.
    Magma,
}

/// A synthetic ocean-grid assimilation problem.
#[derive(Debug)]
pub struct AssimilationProblem {
    /// Per-grid-point observation-anomaly matrices `S_k`.
    pub anomalies: Vec<Matrix>,
    /// Per-grid-point innovation vectors `d_k` (length = rows of `S_k`).
    pub innovations: Vec<Vec<f64>>,
}

impl AssimilationProblem {
    /// Builds a grid of `points` local problems with matrix sizes drawn
    /// log-uniformly in `[min_dim, max_dim]` (the paper's 50..1024 range).
    pub fn generate(points: usize, min_dim: usize, max_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut anomalies = Vec::with_capacity(points);
        let mut innovations = Vec::with_capacity(points);
        for k in 0..points {
            let u: f64 = rng.gen();
            let dim = (min_dim as f64 * (max_dim as f64 / min_dim as f64).powf(u)).round() as usize;
            // Ensemble size fixed at ~dim (square local problems dominate).
            let s = random_uniform(dim, dim, seed.wrapping_add(17 + k as u64));
            let d: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            anomalies.push(s);
            innovations.push(d);
        }
        Self {
            anomalies,
            innovations,
        }
    }
}

/// The per-point matrix dimensions of the §V-F mixture **without**
/// materializing the matrices: replays the exact RNG stream of
/// [`AssimilationProblem::generate`] (one log-uniform dimension draw plus
/// `dim` innovation draws per point), so the serve layer can build arrival
/// traces over the same observation-density mixture the assimilation
/// experiments solve, at zero allocation cost.
pub fn mixture_dims(points: usize, min_dim: usize, max_dim: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..points)
        .map(|_| {
            let u: f64 = rng.gen();
            let dim = (min_dim as f64 * (max_dim as f64 / min_dim as f64).powf(u)).round() as usize;
            for _ in 0..dim {
                let _: f64 = rng.gen_range(-1.0..1.0);
            }
            dim
        })
        .collect()
}

/// The analysis result: per-grid-point weight vectors `w_k = V g` where
/// `g_i = σ_i / (σ_i^2 + 1) · (U^T d)_i`.
#[derive(Debug)]
pub struct AnalysisResult {
    /// Per-point weights in ensemble space.
    pub weights: Vec<Vec<f64>>,
    /// Simulated seconds spent in the SVDs.
    pub svd_seconds: f64,
}

impl AnalysisResult {
    /// A scale-invariant checksum for cross-engine comparison (the weights
    /// are sign-ambiguous per singular vector, so compare norms).
    pub fn weight_norms(&self) -> Vec<f64> {
        self.weights
            .iter()
            .map(|w| w.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect()
    }
}

/// Runs the analysis step with the chosen SVD engine under the default
/// [`WCycleConfig`] (fused when the installed session says so).
pub fn analysis_step(
    gpu: &Gpu,
    problem: &AssimilationProblem,
    engine: SvdEngine,
) -> Result<AnalysisResult, KernelError> {
    analysis_step_with(gpu, problem, engine, &WCycleConfig::default())
}

/// Runs the analysis step with an explicit [`WCycleConfig`] (only consulted
/// by the W-cycle engine). This is how experiments opt a single run into the
/// fused launch pipeline without changing the session's default.
pub fn analysis_step_with(
    gpu: &Gpu,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<AnalysisResult, KernelError> {
    let before = gpu.elapsed_seconds();
    let (factors, _) = factor_batch(gpu, &problem.anomalies, engine, cfg)?;
    let svd_seconds = gpu.elapsed_seconds() - before;
    Ok(AnalysisResult {
        weights: weights_from_factors(&factors, &problem.innovations),
        svd_seconds,
    })
}

/// `(U, Σ, V)` per grid point.
type SvdFactors = Vec<(Matrix, Vec<f64>, Matrix)>;

/// Runs the chosen SVD engine over one batch of anomalies, returning
/// `(U, Σ, V)` per point plus the W-cycle's run stats (the Magma engine
/// records none).
fn factor_batch(
    gpu: &Gpu,
    anomalies: &[Matrix],
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<(SvdFactors, Option<WCycleStats>), KernelError> {
    match engine {
        SvdEngine::WCycle => {
            let out = wcycle_svd(gpu, anomalies, cfg)?;
            let factors = out
                .results
                .into_iter()
                .map(|r| {
                    let v = r.v.expect("want_v on by default");
                    (r.u, r.sigma, v)
                })
                .collect();
            Ok((factors, Some(out.stats)))
        }
        SvdEngine::Magma => Ok((
            magma_batched_svd(gpu, anomalies)?
                .into_iter()
                .map(|r| {
                    let v = r.v.expect("magma always returns V");
                    (r.u, r.sigma, v)
                })
                .collect(),
            None,
        )),
    }
}

/// The Kalman-style weight update: per point, `g = diag(σ/(σ²+1)) U^T d`
/// and `w = V g` over the leading `r` columns of `V`.
fn weights_from_factors(
    factors: &[(Matrix, Vec<f64>, Matrix)],
    innovations: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    factors
        .iter()
        .zip(innovations)
        .map(|((u, sigma, v), d)| {
            let r = sigma.len();
            let mut g = vec![0.0; r];
            for i in 0..r {
                let mut ud = 0.0;
                for (row, &dv) in d.iter().enumerate() {
                    ud += u[(row, i)] * dv;
                }
                g[i] = sigma[i] / (sigma[i] * sigma[i] + 1.0) * ud;
            }
            let n = v.rows();
            let mut w = vec![0.0; n];
            for (i, &gi) in g.iter().enumerate() {
                for (row, wr) in w.iter_mut().enumerate() {
                    *wr += v[(row, i)] * gi;
                }
            }
            w
        })
        .collect()
}

/// Distributed analysis step over a multi-GPU cluster (the artifact's
/// `test_Cluster` branch): grid points are sharded across devices, each
/// device runs the batched SVD analysis on its shard, and the weights are
/// gathered with one collective.
pub fn analysis_step_distributed(
    cluster: &wsvd_gpu_sim::GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
) -> Result<AnalysisResult, KernelError> {
    analysis_step_distributed_with(cluster, problem, engine, &WCycleConfig::default())
}

/// Distributed analysis step with an explicit [`WCycleConfig`] for the
/// per-shard SVDs (see [`analysis_step_with`]).
///
/// With every rank alive this is the pinned static path: contiguous shards,
/// one batched SVD per rank, one gather — bit-identical to every release
/// since the cluster model landed. When a rank is already dead, the dead
/// rank's shard is *requeued* through the elastic executor and absorbed by
/// the surviving ranks (replacing the old identity failover, which
/// reassigned whole shards to a fixed neighbour).
pub fn analysis_step_distributed_with(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<AnalysisResult, KernelError> {
    let indices: Vec<usize> = (0..problem.anomalies.len()).collect();
    let shards = cluster.shard(&indices);
    let n_ranks = shards.len();
    let alive: Vec<usize> = (0..n_ranks).filter(|&r| cluster.is_alive(r)).collect();
    if alive.is_empty() {
        return Err(KernelError::Other(
            "analysis step: every cluster rank is dead; no shard can run".to_string(),
        ));
    }
    if alive.len() < n_ranks {
        // Shards become chunks (one per rank, preserving the static batch
        // compositions); the elastic executor drains the dead ranks' queues
        // into the requeue pool and the survivors absorb them.
        let chunks: Vec<TaskChunk> = shards
            .iter()
            .enumerate()
            .map(|(rank, shard)| TaskChunk {
                id: rank,
                indices: shard.clone(),
                size_class: usize::MAX,
                home_rank: rank,
                retries: 0,
                requeued: false,
            })
            .filter(|c| !c.indices.is_empty())
            .collect();
        let run = run_elastic(cluster, chunks, &ElasticConfig::default(), |gpu, chunk| {
            run_analysis_chunk(gpu, problem, chunk, engine, cfg)
        })?;
        let (weights, gathered_bytes) = scatter_weights(problem.anomalies.len(), &run.completed);
        cluster.sync(gathered_bytes);
        return Ok(AnalysisResult {
            weights,
            svd_seconds: cluster.elapsed_seconds(),
        });
    }
    let mut weights: Vec<Option<Vec<f64>>> = vec![None; problem.anomalies.len()];
    let mut gathered_bytes = 0u64;
    for (rank, shard) in shards.iter().enumerate() {
        if shard.is_empty() {
            continue;
        }
        let local = AssimilationProblem {
            anomalies: shard
                .iter()
                .map(|&i| problem.anomalies[i].clone())
                .collect(),
            innovations: shard
                .iter()
                .map(|&i| problem.innovations[i].clone())
                .collect(),
        };
        let local_result = analysis_step_with(cluster.gpu(rank), &local, engine, cfg)?;
        for (&i, w) in shard.iter().zip(local_result.weights) {
            gathered_bytes += (w.len() * 8) as u64;
            weights[i] = Some(w);
        }
    }
    cluster.sync(gathered_bytes); // gather of the analysis weights
    Ok(AnalysisResult {
        weights: weights
            .into_iter()
            .map(|w| w.expect("all points assigned"))
            .collect(),
        svd_seconds: cluster.elapsed_seconds(),
    })
}

/// Executes one elastic chunk: a batched SVD analysis over the chunk's grid
/// points on one device, with the per-sweep convergence trajectory recorded
/// into the payload so a checkpoint carries the partially converged W-cycle
/// state.
fn run_analysis_chunk(
    gpu: &Gpu,
    problem: &AssimilationProblem,
    chunk: &TaskChunk,
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<ChunkPayload, KernelError> {
    let anomalies: Vec<Matrix> = chunk
        .indices
        .iter()
        .map(|&i| problem.anomalies[i].clone())
        .collect();
    let innovations: Vec<Vec<f64>> = chunk
        .indices
        .iter()
        .map(|&i| problem.innovations[i].clone())
        .collect();
    let chunk_cfg = WCycleConfig {
        record_convergence: true,
        ..cfg.clone()
    };
    let (factors, stats) = factor_batch(gpu, &anomalies, engine, &chunk_cfg)?;
    let weights = weights_from_factors(&factors, &innovations);
    let (convergence, widths) = stats
        .map(|s| (s.convergence, s.widths_per_level))
        .unwrap_or_default();
    Ok(ChunkPayload {
        weights,
        convergence,
        widths,
    })
}

/// Scatters completed chunk payloads back to grid-point order, returning the
/// full weight table and the gather size in bytes.
fn scatter_weights(points: usize, completed: &[(TaskChunk, ChunkPayload)]) -> (Vec<Vec<f64>>, u64) {
    let mut weights: Vec<Option<Vec<f64>>> = vec![None; points];
    let mut bytes = 0u64;
    for (chunk, payload) in completed {
        for (&i, w) in chunk.indices.iter().zip(&payload.weights) {
            bytes += (w.len() * 8) as u64;
            weights[i] = Some(w.clone());
        }
    }
    (
        weights
            .into_iter()
            .map(|w| w.expect("all points assigned"))
            .collect(),
        bytes,
    )
}

/// Outcome of an elastic analysis run: the analysis itself plus the
/// recovery accounting and, when the run was stopped early, a serializable
/// checkpoint to resume from.
#[derive(Debug)]
pub struct ElasticAnalysis {
    /// The gathered analysis (empty weights when a checkpoint was taken —
    /// the run is incomplete by construction).
    pub result: AnalysisResult,
    /// Stolen / requeued / retried chunk accounting.
    pub counters: RecoveryCounters,
    /// `Some` when the run stopped at the configured checkpoint.
    pub checkpoint: Option<RunCheckpoint>,
}

/// The size-class chunking of an assimilation problem for `ranks` devices:
/// Table-VI caps, chunk target `max(1, points / (4 * ranks))` so each rank
/// sees several chunks (the granularity stealing and requeue work at).
pub fn analysis_chunks(problem: &AssimilationProblem, ranks: usize) -> Vec<TaskChunk> {
    let caps: Vec<usize> = wsvd_datasets::TABLE_VI.iter().map(|g| g.cap).collect();
    let dims: Vec<(usize, usize)> = problem
        .anomalies
        .iter()
        .map(|a| (a.rows(), a.cols()))
        .collect();
    let target = (dims.len() / (4 * ranks)).max(1);
    size_class_chunks(&dims, &caps, ranks, target)
}

/// The configuration fingerprint stamped into (and verified against) an
/// elastic checkpoint: resuming under a different cluster shape, chunking
/// or engine would break the bit-identity contract, so
/// [`RunCheckpoint::thaw`] refuses it.
pub fn analysis_fingerprint(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> String {
    let engine = match engine {
        SvdEngine::WCycle => "wcycle",
        SvdEngine::Magma => "magma",
    };
    format!(
        "{}x{}/points{}/{engine}/tol{:e}/fused{}",
        cluster.gpu(0).device().name,
        cluster.len(),
        problem.anomalies.len(),
        cfg.tol,
        cfg.fused,
    )
}

/// Elastic distributed analysis: size-class chunks on the shared work
/// deque, pull/steal scheduling, faults from `ecfg`, and chunk-granular
/// checkpointing. `workload_seed` is stamped into the checkpoint for seed
/// provenance.
pub fn analysis_step_elastic_with(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
    ecfg: &ElasticConfig,
    workload_seed: u64,
) -> Result<ElasticAnalysis, KernelError> {
    let chunks = analysis_chunks(problem, cluster.len());
    let run = run_elastic(cluster, chunks, ecfg, |gpu, chunk| {
        run_analysis_chunk(gpu, problem, chunk, engine, cfg)
    })?;
    finish_elastic(cluster, problem, engine, cfg, run, workload_seed)
}

/// Resumes an elastic analysis from a serialized checkpoint on a **fresh**
/// cluster. The checkpoint's fingerprint must match the current
/// configuration; the resumed run is bit-identical to one that was never
/// interrupted.
pub fn analysis_resume_elastic_with(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
    ecfg: &ElasticConfig,
    checkpoint: RunCheckpoint,
) -> Result<ElasticAnalysis, KernelError> {
    let workload_seed = checkpoint.workload_seed;
    let fingerprint = analysis_fingerprint(cluster, problem, engine, cfg);
    let restored = checkpoint.thaw(&fingerprint).map_err(KernelError::Other)?;
    let run = resume_elastic(cluster, restored, ecfg, |gpu, chunk| {
        run_analysis_chunk(gpu, problem, chunk, engine, cfg)
    })?;
    finish_elastic(cluster, problem, engine, cfg, run, workload_seed)
}

fn finish_elastic(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
    run: wsvd_gpu_sim::cluster::ElasticRun<ChunkPayload>,
    workload_seed: u64,
) -> Result<ElasticAnalysis, KernelError> {
    let mut counters = run.counters;
    if let Some(ckpt) = run.checkpoint {
        // Interrupted on purpose: serialize, no gather (the run is not
        // done), report how big the checkpoint is.
        let fingerprint = analysis_fingerprint(cluster, problem, engine, cfg);
        let frozen = RunCheckpoint::freeze("ext-cluster", workload_seed, &fingerprint, &ckpt);
        let bytes = frozen.to_json().len() as u64;
        counters.checkpoint_bytes = bytes;
        let health = cluster.health();
        if health.is_enabled() {
            health.checkpoint_taken(bytes, cluster.elapsed_seconds());
        }
        return Ok(ElasticAnalysis {
            result: AnalysisResult {
                weights: Vec::new(),
                svd_seconds: cluster.elapsed_seconds(),
            },
            counters,
            checkpoint: Some(frozen),
        });
    }
    let (weights, gathered_bytes) = scatter_weights(problem.anomalies.len(), &run.completed);
    cluster.sync(gathered_bytes);
    Ok(ElasticAnalysis {
        result: AnalysisResult {
            weights,
            svd_seconds: cluster.elapsed_seconds(),
        },
        counters,
        checkpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{GpuCluster, V100, VEGA20};

    #[test]
    fn problem_generation_sizes_in_range() {
        let p = AssimilationProblem::generate(12, 10, 40, 3);
        assert_eq!(p.anomalies.len(), 12);
        for (s, d) in p.anomalies.iter().zip(&p.innovations) {
            assert!(s.rows() >= 10 && s.rows() <= 40);
            assert_eq!(d.len(), s.rows());
        }
    }

    #[test]
    fn mixture_dims_match_the_generated_problem() {
        let dims = mixture_dims(12, 10, 40, 3);
        let p = AssimilationProblem::generate(12, 10, 40, 3);
        let got: Vec<usize> = p.anomalies.iter().map(|a| a.rows()).collect();
        assert_eq!(dims, got);
    }

    #[test]
    fn engines_agree_on_weights() {
        let gpu = Gpu::new(V100);
        let p = AssimilationProblem::generate(6, 12, 40, 7);
        let w = analysis_step(&gpu, &p, SvdEngine::WCycle).unwrap();
        let m = analysis_step(&gpu, &p, SvdEngine::Magma).unwrap();
        for (a, b) in w.weight_norms().iter().zip(m.weight_norms()) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b), "{a} vs {b}");
        }
    }

    #[test]
    fn wcycle_is_faster_than_magma_on_the_grid() {
        // The Fig-14(b) shape at reduced scale.
        let p = AssimilationProblem::generate(10, 16, 64, 11);
        let gpu_w = Gpu::new(V100);
        let w = analysis_step(&gpu_w, &p, SvdEngine::WCycle).unwrap();
        let gpu_m = Gpu::new(V100);
        let m = analysis_step(&gpu_m, &p, SvdEngine::Magma).unwrap();
        assert!(
            w.svd_seconds < m.svd_seconds,
            "wcycle {} !< magma {}",
            w.svd_seconds,
            m.svd_seconds
        );
    }

    #[test]
    fn distributed_matches_single_device_weights() {
        let p = AssimilationProblem::generate(9, 12, 32, 17);
        let gpu = Gpu::new(VEGA20);
        let single = analysis_step(&gpu, &p, SvdEngine::WCycle).unwrap();
        let cluster = GpuCluster::new(VEGA20, 3);
        let dist = analysis_step_distributed(&cluster, &p, SvdEngine::WCycle).unwrap();
        for (a, b) in dist.weights.iter().zip(&single.weights) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn more_gpus_cut_the_makespan() {
        // The serial MAGMA engine is compute-bound per grid point, so the
        // data-parallel decomposition divides its time almost perfectly.
        // (The W-cycle at this reduced grid is launch-bound: sharding cannot
        // help until a device is saturated, so we only require no loss.)
        let p = AssimilationProblem::generate(16, 16, 48, 19);
        let time = |gpus: usize, engine| {
            let cluster = GpuCluster::new(VEGA20, gpus);
            analysis_step_distributed(&cluster, &p, engine)
                .unwrap()
                .svd_seconds
        };
        let (m1, m4) = (time(1, SvdEngine::Magma), time(4, SvdEngine::Magma));
        assert!(
            m4 < 0.5 * m1,
            "4 GPUs ({m4}) should scale MAGMA well vs 1 ({m1})"
        );
        let (w1, w4) = (time(1, SvdEngine::WCycle), time(4, SvdEngine::WCycle));
        assert!(w4 <= w1 + 1e-4, "sharding must never hurt: {w4} vs {w1}");
    }

    #[test]
    fn fused_distributed_analysis_is_bit_identical_and_no_slower() {
        // Sizes above the shared-memory fit so each level issues several
        // kernels — the regime where a fused graph has launches to coalesce.
        let p = AssimilationProblem::generate(8, 40, 120, 23);
        let serial_cfg = WCycleConfig {
            fused: false,
            ..WCycleConfig::default()
        };
        let fused_cfg = WCycleConfig {
            fused: true,
            ..WCycleConfig::default()
        };
        let run = |cfg: &WCycleConfig| {
            let cluster = GpuCluster::new(VEGA20, 4);
            let res = analysis_step_distributed_with(&cluster, &p, SvdEngine::WCycle, cfg).unwrap();
            let share: f64 = (0..4)
                .map(|r| cluster.gpu(r).timeline().overhead_seconds)
                .sum();
            (res, share)
        };
        let (serial, serial_overhead) = run(&serial_cfg);
        let (fused, fused_overhead) = run(&fused_cfg);
        for (a, b) in serial.weights.iter().zip(&fused.weights) {
            assert_eq!(a, b, "fusing must not perturb the analysis weights");
        }
        assert!(fused_overhead < serial_overhead);
        assert!(fused.svd_seconds <= serial.svd_seconds);
    }

    #[test]
    fn killed_rank_fails_over_and_fires_one_incident() {
        let p = AssimilationProblem::generate(9, 12, 32, 17);
        let gpu = Gpu::new(VEGA20);
        let single = analysis_step(&gpu, &p, SvdEngine::WCycle).unwrap();

        let sink = wsvd_health::HealthSink::enabled();
        sink.set_context("assimilation-failover", 17);
        let mut cluster = GpuCluster::new(VEGA20, 3);
        cluster.set_health(sink.clone());
        cluster.kill(1);
        let dist = analysis_step_distributed(&cluster, &p, SvdEngine::WCycle).unwrap();
        // The surviving ranks cover every grid point with identical numerics.
        for (a, b) in dist.weights.iter().zip(&single.weights) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
        let incidents = sink.incidents();
        assert_eq!(incidents.len(), 1, "exactly one shard-dead incident");
        assert_eq!(incidents[0].kind, "shard-dead");
        assert!(
            incidents[0].recovered,
            "the requeued shard completed, so the incident must read recovered"
        );
    }

    #[test]
    fn elastic_analysis_matches_single_device_weights() {
        let p = AssimilationProblem::generate(9, 12, 32, 17);
        let gpu = Gpu::new(VEGA20);
        let single = analysis_step(&gpu, &p, SvdEngine::WCycle).unwrap();
        let cluster = GpuCluster::new(VEGA20, 3);
        let run = analysis_step_elastic_with(
            &cluster,
            &p,
            SvdEngine::WCycle,
            &WCycleConfig::default(),
            &ElasticConfig::default(),
            17,
        )
        .unwrap();
        assert!(run.checkpoint.is_none());
        // Idle ranks may steal even in a fault-free run, but nothing should
        // have died, requeued, or been lost.
        assert_eq!(run.counters.requeued_chunks, 0);
        assert_eq!(run.counters.retried_chunks, 0);
        assert_eq!(run.counters.unrecovered_chunks, 0);
        assert_eq!(run.counters.killed_ranks, 0);
        for (a, b) in run.result.weights.iter().zip(&single.weights) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn elastic_checkpoint_resume_is_bit_identical_to_straight_through() {
        use wsvd_gpu_sim::cluster::FaultPlan;
        let p = AssimilationProblem::generate(12, 12, 32, 29);
        let faults = FaultPlan::none().straggler(1, 2.0);
        let straight = {
            let cluster = GpuCluster::new(VEGA20, 3);
            let ecfg = ElasticConfig {
                faults: faults.clone(),
                checkpoint_after: None,
            };
            analysis_step_elastic_with(
                &cluster,
                &p,
                SvdEngine::WCycle,
                &WCycleConfig::default(),
                &ecfg,
                29,
            )
            .unwrap()
        };
        // Interrupt after 3 chunks, serialize the checkpoint through JSON,
        // and resume on a *fresh* cluster.
        let ckpt = {
            let cluster = GpuCluster::new(VEGA20, 3);
            let ecfg = ElasticConfig {
                faults: faults.clone(),
                checkpoint_after: Some(3),
            };
            let run = analysis_step_elastic_with(
                &cluster,
                &p,
                SvdEngine::WCycle,
                &WCycleConfig::default(),
                &ecfg,
                29,
            )
            .unwrap();
            assert!(
                run.result.weights.is_empty(),
                "interrupted run has no gather"
            );
            assert!(run.counters.checkpoint_bytes > 0);
            run.checkpoint.expect("checkpoint requested")
        };
        let rehydrated = RunCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(rehydrated.workload_seed, 29);
        let cluster = GpuCluster::new(VEGA20, 3);
        let ecfg = ElasticConfig {
            faults,
            checkpoint_after: None,
        };
        let resumed = analysis_resume_elastic_with(
            &cluster,
            &p,
            SvdEngine::WCycle,
            &WCycleConfig::default(),
            &ecfg,
            rehydrated,
        )
        .unwrap();
        assert_eq!(straight.result.weights, resumed.result.weights);
        assert_eq!(
            straight.result.svd_seconds.to_bits(),
            resumed.result.svd_seconds.to_bits(),
            "simulated clock must replay exactly"
        );
        assert_eq!(straight.counters, resumed.counters);
    }

    #[test]
    fn resume_under_a_different_configuration_is_refused() {
        let p = AssimilationProblem::generate(8, 12, 24, 31);
        let cluster = GpuCluster::new(VEGA20, 2);
        let ecfg = ElasticConfig {
            faults: wsvd_gpu_sim::cluster::FaultPlan::none(),
            checkpoint_after: Some(2),
        };
        let run = analysis_step_elastic_with(
            &cluster,
            &p,
            SvdEngine::WCycle,
            &WCycleConfig::default(),
            &ecfg,
            31,
        )
        .unwrap();
        let ckpt = run.checkpoint.unwrap();
        // Resuming on a 3-rank cluster changes the fingerprint: refused.
        let other = GpuCluster::new(VEGA20, 3);
        let err = analysis_resume_elastic_with(
            &other,
            &p,
            SvdEngine::WCycle,
            &WCycleConfig::default(),
            &ElasticConfig::default(),
            ckpt,
        )
        .unwrap_err();
        assert!(format!("{err}").contains("fingerprint"));
    }

    #[test]
    fn all_ranks_dead_is_an_error() {
        let p = AssimilationProblem::generate(4, 10, 20, 5);
        let cluster = GpuCluster::new(VEGA20, 2);
        cluster.kill(0);
        cluster.kill(1);
        let err = analysis_step_distributed(&cluster, &p, SvdEngine::WCycle).unwrap_err();
        assert!(format!("{err}").contains("every cluster rank is dead"));
    }

    #[test]
    fn weights_are_finite_and_bounded() {
        let gpu = Gpu::new(V100);
        let p = AssimilationProblem::generate(4, 10, 24, 13);
        let res = analysis_step(&gpu, &p, SvdEngine::WCycle).unwrap();
        for w in &res.weights {
            assert!(w.iter().all(|x| x.is_finite()));
        }
        // σ/(σ²+1) <= 1/2, so ||w|| <= ||d||/2 * cond-ish bound; just check
        // nothing exploded.
        for (w, d) in res.weight_norms().iter().zip(&p.innovations) {
            let dn = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(*w <= dn, "weight norm {w} exceeds innovation norm {dn}");
        }
    }
}
