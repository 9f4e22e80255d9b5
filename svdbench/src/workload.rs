//! The three workloads: seeded input generation, one timed call into the
//! program's public entry points, and the untimed output check.

use std::time::Instant;

use wsvd_core::{wcycle_svd, WCycleConfig, WCycleOutput, WSvd};
use wsvd_gpu_sim::{Gpu, KernelError, Timeline, V100};
use wsvd_linalg::generate::{log_spaced_spectrum, random_uniform, with_spectrum};
use wsvd_linalg::{gram, matmul, singular_values, Matrix};
use wsvd_metrics::MetricsSink;
use wsvd_serve::{serve_trace, BatchPolicy, ServeConfig, ServeOutcome, Trace};

use crate::util::{cpu_seconds, derive, log_uniform, Digest, SplitMix};

/// Matrices per `batch-small` call, and their dimension range.
const SMALL_BATCH: usize = 128;
const SMALL_DIMS: (usize, usize) = (8, 48);
/// Matrices per `batch-large` call, their dimension range, and the largest
/// condition number (Table VII's range) of the conditioned half.
const LARGE_BATCH: usize = 8;
const LARGE_DIMS: (usize, usize) = (96, 256);
const LARGE_MAX_LOG10_COND: f64 = 12.0;
/// Requests per `serve-mixed` trace, their dimension range and the
/// open-loop arrival rate in simulated requests per second.
const SERVE_REQUESTS: usize = 256;
const SERVE_DIMS: (usize, usize) = (8, 128);
const SERVE_RATE_HZ: f64 = 2500.0;

/// Largest accepted residual, orthogonality error and singular-value error,
/// each relative to σ_max: the health drift monitor's default ceilings.
pub const TOL: f64 = 1e-8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BatchSmall,
    BatchLarge,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "batch-small" => Some(Workload::BatchSmall),
            "batch-large" => Some(Workload::BatchLarge),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSmall => "batch-small",
            Workload::BatchLarge => "batch-large",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Timed calls the simulated-time metrics are taken over: a fixed count
    /// (the first calls after warm-up), so they repeat exactly per seed
    /// whatever the host speed. It is also the minimum length of a run.
    pub fn sim_calls(self) -> usize {
        match self {
            Workload::BatchSmall => 64,
            Workload::BatchLarge => 3,
            Workload::ServeMixed => 8,
        }
    }

    /// Timed calls the traced run repeats with the registry on, and on one
    /// core: enough for steady per-call counts, few enough that a traced
    /// run of the costly workloads stays well inside its time limit.
    pub fn traced_calls(self) -> usize {
        match self {
            Workload::BatchSmall => 16,
            Workload::BatchLarge | Workload::ServeMixed => 2,
        }
    }
}

/// One call's inputs.
#[derive(Clone)]
pub enum Inputs {
    /// A batch for `wcycle_svd`, with the prescribed spectrum of each
    /// conditioned matrix (`None` for uniform random ones).
    Batch {
        mats: Vec<Matrix>,
        spectra: Vec<Option<Vec<f64>>>,
    },
    /// An arrival trace for `serve_trace`.
    Serve(Trace),
}

/// `batch-large`'s dimensions: the midpoints of `LARGE_BATCH`
/// equal-probability strata of the log-uniform distribution, ascending.
/// Every run uses the same sizes, so runs of different seeds do about the
/// same work.
fn large_dims() -> Vec<usize> {
    (0..LARGE_BATCH)
        .map(|i| {
            log_uniform(
                (i as f64 + 0.5) / LARGE_BATCH as f64,
                LARGE_DIMS.0,
                LARGE_DIMS.1,
            )
        })
        .collect()
}

/// The inputs of call `call` (0 is the warm-up) of a run with `seed`.
pub fn inputs(w: Workload, seed: u64, call: u64) -> Inputs {
    let mut rng = SplitMix::new(derive(seed, call));
    match w {
        Workload::BatchSmall => {
            let mats = (0..SMALL_BATCH)
                .map(|_| {
                    let m = log_uniform(rng.unit(), SMALL_DIMS.0, SMALL_DIMS.1);
                    let n = log_uniform(rng.unit(), SMALL_DIMS.0, SMALL_DIMS.1);
                    random_uniform(m, n, rng.next_u64())
                })
                .collect();
            Inputs::Batch {
                mats,
                spectra: vec![None; SMALL_BATCH],
            }
        }
        Workload::BatchLarge => {
            // Odd positions (the larger of each pair of sizes) are
            // conditioned, with log10(cond) drawn fresh per call from its own
            // stratum of [0, 12], rising with size; the rest are uniform.
            let width = 2.0 * LARGE_MAX_LOG10_COND / LARGE_BATCH as f64;
            let (mats, spectra) = large_dims()
                .into_iter()
                .enumerate()
                .map(|(i, n)| {
                    let data_seed = rng.next_u64();
                    if i % 2 == 1 {
                        let cond = 10f64.powf(width * ((i / 2) as f64 + rng.unit()));
                        let spectrum = log_spaced_spectrum(n, 1.0, cond);
                        (with_spectrum(n, n, &spectrum, data_seed), Some(spectrum))
                    } else {
                        (random_uniform(n, n, data_seed), None)
                    }
                })
                .unzip();
            Inputs::Batch { mats, spectra }
        }
        Workload::ServeMixed => Inputs::Serve(Trace::assimilation(
            SERVE_REQUESTS,
            SERVE_DIMS.0,
            SERVE_DIMS.1,
            SERVE_RATE_HZ,
            rng.next_u64(),
        )),
    }
}

/// What one call returned.
pub enum Outcome {
    Batch(Result<WCycleOutput, KernelError>),
    Serve(Result<ServeOutcome, KernelError>),
}

/// One timed call: host wall-clock and CPU seconds around the entry point,
/// the simulated device-busy seconds it reports, and the device's launch
/// timeline.
pub struct Call {
    pub outcome: Outcome,
    pub host_s: f64,
    pub cpu_s: f64,
    pub sim_s: f64,
    pub timeline: Timeline,
}

/// Runs one call on a fresh simulated V100 recording into `sink`, so its
/// simulated time does not depend on earlier calls. Only the entry point
/// is inside the timed region.
pub fn run(inputs: &Inputs, sink: &MetricsSink) -> Call {
    let mut gpu = Gpu::new(V100);
    gpu.set_metrics(sink.clone());
    let (t, cpu) = (Instant::now(), cpu_seconds());
    let outcome = match inputs {
        Inputs::Batch { mats, .. } => {
            Outcome::Batch(wcycle_svd(&gpu, mats, &WCycleConfig::default()))
        }
        Inputs::Serve(trace) => {
            let cfg = ServeConfig {
                policy: BatchPolicy::low_latency(),
                ..ServeConfig::default()
            };
            Outcome::Serve(serve_trace(&gpu, trace, &cfg, sink))
        }
    };
    let cpu_s = cpu_seconds() - cpu;
    let host_s = t.elapsed().as_secs_f64();
    let sim_s = match &outcome {
        Outcome::Serve(out) => out.as_ref().map_or(0.0, |o| o.busy_us * 1e-6),
        Outcome::Batch(_) => gpu.elapsed_seconds(),
    };
    Call {
        outcome,
        host_s,
        cpu_s,
        sim_s,
        timeline: gpu.timeline(),
    }
}

/// The untimed verdict on one call.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Per-SVD simulated end-to-end latency in µs: the request's record on
    /// `serve-mixed`; the call's device time on the batch workloads, where
    /// every result of a batch returns when the call does.
    pub e2e_us: Vec<f64>,
    /// Failures of the reference oracle (not W-cycle failures).
    pub reference_failed: usize,
    /// Worst residual, weighted orthogonality, σ and unweighted
    /// orthogonality errors seen (see `check_svd`).
    pub worst: [f64; 4],
    /// First failure, for the report.
    pub first_error: Option<String>,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Checks every output of a call and folds its numerics into `digest`.
/// The oracle for uniform inputs is `singular_values`: `svd_reference`'s
/// bidiagonal QR without the vectors, which converges or fails exactly as
/// it does. `oracle_on_all` also runs it on the conditioned inputs, to
/// count its failures there (it is never their oracle).
pub fn check(inputs: &Inputs, call: &Call, digest: &mut Digest, oracle_on_all: bool) -> Verdict {
    let mut v = Verdict::default();
    digest.f64(call.sim_s);
    match (inputs, &call.outcome) {
        (Inputs::Batch { mats, spectra }, Outcome::Batch(out)) => {
            v.attempted = mats.len();
            v.e2e_us = vec![call.sim_s * 1e6; mats.len()];
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    v.failed = mats.len();
                    v.first_error = Some(format!("wcycle_svd: {e}"));
                    return v;
                }
            };
            for (k, ((a, r), spectrum)) in mats.iter().zip(&out.results).zip(spectra).enumerate() {
                r.sigma.iter().for_each(|&s| digest.f64(s));
                digest.u64(r.sweeps as u64);
                let oracle = match spectrum {
                    Some(s) => {
                        if oracle_on_all && singular_values(a).is_err() {
                            v.reference_failed += 1;
                        }
                        Some(s.clone())
                    }
                    None => match singular_values(a) {
                        Ok(s) => Some(s),
                        Err(_) => {
                            v.reference_failed += 1;
                            None
                        }
                    },
                };
                if let Err(why) = check_svd(a, r, oracle.as_deref(), &mut v.worst) {
                    v.fail(format!("matrix {k} ({}x{}): {why}", a.rows(), a.cols()));
                }
            }
        }
        (Inputs::Serve(trace), Outcome::Serve(out)) => {
            v.attempted = trace.requests.len();
            match out {
                Ok(out) => {
                    for r in &out.records {
                        digest.f64(r.end_to_end_us);
                        v.e2e_us.push(r.end_to_end_us);
                    }
                    for _ in 0..out.rejected {
                        v.fail("request rejected at admission".to_string());
                    }
                }
                Err(e) => {
                    v.failed = v.attempted;
                    v.first_error = Some(format!("serve_trace: {e}"));
                }
            }
        }
        _ => unreachable!("outcome kind follows the inputs"),
    }
    v
}

/// One factorization against its input: σ finite, non-negative and
/// descending; residual ‖A − UΣVᵀ‖_max; orthogonality of U and V; and σ
/// against the oracle when there is one, all relative to σ_max.
///
/// Orthogonality is taken over the significant-σ prefix (σ above
/// σ_max·ε·max(m, n)), like the health drift monitor, with the error of
/// each pair of directions weighted by min(σ_i, σ_j)/σ_max. One-sided
/// Jacobi forms u_i = A v_i / σ_i, whose error grows like ε·σ_max/σ_i: on
/// the conditioned inputs the unweighted error reaches about 1e-5 (it is
/// recorded as `worst[3]`), while the weighted one stays near ε.
fn check_svd(
    a: &Matrix,
    r: &WSvd,
    oracle: Option<&[f64]>,
    worst: &mut [f64; 4],
) -> Result<(), String> {
    let (m, n) = a.shape();
    let rank = m.min(n);
    if r.sigma.len() != rank {
        return Err(format!("{} singular values, want {rank}", r.sigma.len()));
    }
    if r.sigma.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return Err("a singular value is negative or not finite".to_string());
    }
    if r.sigma.windows(2).any(|p| p[0] < p[1]) {
        return Err("singular values are not descending".to_string());
    }
    let v = r.v.as_ref().ok_or("no V returned")?;
    let sigma_max = r.sigma.first().copied().unwrap_or(0.0);
    if sigma_max == 0.0 {
        return Ok(());
    }
    let mut us = r.u.col_block(0, rank);
    for (j, &s) in r.sigma.iter().enumerate() {
        us.col_mut(j).iter_mut().for_each(|x| *x *= s);
    }
    let residual = matmul(&us, &v.col_block(0, rank).transpose())
        .sub(a)
        .max_abs()
        / sigma_max;
    let floor = sigma_max * f64::EPSILON * m.max(n) as f64;
    let significant = r.sigma.iter().take_while(|&&s| s > floor).count();
    let (mut weighted, mut plain) = (0.0f64, 0.0f64);
    for q in [&r.u, v] {
        let g = gram(&q.col_block(0, significant));
        for i in 0..significant {
            for j in 0..significant {
                let e = (g[(i, j)] - if i == j { 1.0 } else { 0.0 }).abs();
                plain = plain.max(e);
                weighted = weighted.max(e * r.sigma[i.max(j)] / sigma_max);
            }
        }
    }
    let sigma_err = oracle.map_or(0.0, |want| {
        r.sigma
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
            / sigma_max
    });
    for (w, e) in worst.iter_mut().zip([residual, weighted, sigma_err, plain]) {
        *w = w.max(e);
    }
    for (what, err) in [
        ("residual", residual),
        ("weighted orthogonality error", weighted),
        ("singular-value error", sigma_err),
    ] {
        if err.is_nan() || err > TOL {
            return Err(format!("{what} {err:.2e}"));
        }
    }
    Ok(())
}
