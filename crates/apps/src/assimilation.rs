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
use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, GpuCluster, KernelError};
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
    let factors = factor_batch(gpu, &problem.anomalies, engine, cfg)?;
    let svd_seconds = gpu.elapsed_seconds() - before;
    Ok(AnalysisResult {
        weights: weights_from_factors(&factors, &problem.innovations),
        svd_seconds,
    })
}

/// `(U, Σ, V)` per grid point.
type SvdFactors = Vec<(Matrix, Vec<f64>, Matrix)>;

/// Runs the chosen SVD engine over one batch of anomalies, returning
/// `(U, Σ, V)` per point.
fn factor_batch(
    gpu: &Gpu,
    anomalies: &[Matrix],
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<SvdFactors, KernelError> {
    let results = match engine {
        SvdEngine::WCycle => wcycle_svd(gpu, anomalies, cfg)?.results,
        SvdEngine::Magma => magma_batched_svd(gpu, anomalies)?,
    };
    Ok(results
        .into_iter()
        .map(|r| {
            let v = r.v.expect("both engines return V");
            (r.u, r.sigma, v)
        })
        .collect())
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
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
) -> Result<AnalysisResult, KernelError> {
    analysis_step_distributed_with(cluster, problem, engine, &WCycleConfig::default())
}

/// Distributed analysis step with an explicit [`WCycleConfig`] for the
/// per-shard SVDs (see [`analysis_step_with`]): contiguous shards, one
/// batched SVD per rank, one gather of the weights.
///
/// A shard belongs to its rank. If any rank is dead, the step runs the
/// cluster's health check (one `shard-dead` incident per dead rank) and
/// returns an error naming the dead ranks; no shard runs.
pub fn analysis_step_distributed_with(
    cluster: &GpuCluster,
    problem: &AssimilationProblem,
    engine: SvdEngine,
    cfg: &WCycleConfig,
) -> Result<AnalysisResult, KernelError> {
    let dead: Vec<String> = (0..cluster.len())
        .filter(|&r| !cluster.is_alive(r))
        .map(|r| r.to_string())
        .collect();
    if !dead.is_empty() {
        cluster.health_check();
        return Err(KernelError::Other(format!(
            "analysis step: cluster rank(s) {} dead; their shards cannot run",
            dead.join(", ")
        )));
    }
    let indices: Vec<usize> = (0..problem.anomalies.len()).collect();
    let mut weights: Vec<Option<Vec<f64>>> = vec![None; problem.anomalies.len()];
    let mut gathered_bytes = 0u64;
    for (rank, shard) in cluster.shard(&indices).iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{V100, VEGA20};

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
    fn dead_ranks_are_an_error_naming_them_with_one_incident_each() {
        let p = AssimilationProblem::generate(9, 12, 32, 17);
        for (ranks, killed, named) in [
            (3, vec![1], "rank(s) 1 dead"),
            (2, vec![0, 1], "rank(s) 0, 1 dead"),
        ] {
            let sink = wsvd_health::HealthSink::enabled();
            sink.set_context("assimilation-dead-rank", 17);
            let mut cluster = GpuCluster::new(VEGA20, ranks);
            cluster.set_health(sink.clone());
            for &r in &killed {
                cluster.kill(r);
            }
            let err = analysis_step_distributed(&cluster, &p, SvdEngine::WCycle).unwrap_err();
            assert!(format!("{err}").contains(named), "{err}");
            assert_eq!(cluster.elapsed_seconds(), 0.0, "no shard ran");
            let incidents = sink.incidents();
            assert_eq!(incidents.len(), killed.len(), "one incident per dead rank");
            for (inc, r) in incidents.iter().zip(&killed) {
                assert_eq!(inc.kind, "shard-dead");
                assert!(inc.detail.contains(&format!("rank {r} ")), "{}", inc.detail);
            }
        }
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
