//! The traced run's per-layer metrics.
//!
//! Three sources, all driven from the benchmark's own code:
//! * **counts** from the program's metrics registry, enabled through
//!   `Gpu::set_metrics` (and `serve_trace`'s sink) on a traced twin of each
//!   of the first timed calls;
//! * **host times** from spans around direct calls into each layer's public
//!   functions at the workload's shapes;
//! * a **pinned pass**: the same calls replayed on one core (run by `main`).
//!
//! A layer's host share is its measured host cost per simulated flop, times
//! the registry's flop count for its kernels, over the workload's host time.
//! Flops, not calls or blocks, because a kernel's cost per call depends on
//! its grid and per block on how many sweeps its input needs.

use std::hint::black_box;
use std::time::Instant;

use wsvd_batched::autotune::{auto_tune_with_w_cap, PlanCache};
use wsvd_batched::gemm::{batched_gram, batched_update, GemmStrategy};
use wsvd_core::{effective_width, Tuning, WCycleConfig};
use wsvd_gpu_sim::{Gpu, KernelConfig, KernelError, LaunchStats, Timeline, V100};
use wsvd_jacobi::fits::{evd_fits_in_sm, svd_fits_in_sm};
use wsvd_jacobi::{batched_evd_sm, batched_svd_sm, EvdConfig, OneSidedConfig};
use wsvd_linalg::generate::random_uniform;
use wsvd_linalg::{gram, matmul, Matrix};
use wsvd_metrics::{parse_key, MetricsSink, Snapshot};
use wsvd_serve::{latency_bounds, summarize, tail_report, Component, ServeOutcome};

use crate::util::{derive, nearest_rank, time_median, Digest, Spans};
use crate::workload::{check, run, Inputs, Outcome};
use crate::Metric;

/// The W-cycle's level-1 width cap (`w_h <= 48`, the SM-fit bound).
const W_CAP: usize = 48;
/// Repetitions of the empty launch and of the tuner's candidate walk.
const LAUNCH_REPS: usize = 200;
const TUNE_REPS: usize = 50;

/// Sum of registry counters `name` at `level` over the kernel labels in
/// `kernels` (every label when empty).
fn counter(snap: &Snapshot, kernels: &[&str], level: Option<usize>, name: &str) -> f64 {
    snap.counters
        .iter()
        .filter_map(|(key, &v)| {
            let (_, kernel, lvl, nm) = parse_key(key)?;
            (nm == name && lvl == level && (kernels.is_empty() || kernels.contains(&kernel)))
                .then_some(v)
        })
        .fold(0.0, |a, b| a + b)
}

/// Host seconds of direct layer calls, with the blocks they launched and
/// the flops they simulated.
#[derive(Default)]
struct Direct {
    seconds: f64,
    blocks: usize,
    flops: f64,
}

impl Direct {
    fn add(&mut self, seconds: f64, stats: &LaunchStats) {
        self.seconds += seconds;
        self.blocks += stats.grid;
        self.flops += stats.totals.flops as f64;
    }

    /// Host share of a layer whose kernels simulated `flops` over `host_s`
    /// seconds of workload.
    fn share(&self, flops: f64, host_s: f64) -> f64 {
        if self.flops > 0.0 {
            self.seconds / self.flops * flops / host_s
        } else {
            0.0
        }
    }
}

/// Launch totals over the traced calls, each on its own device.
#[derive(Default)]
struct DeviceTotals {
    seconds: f64,
    overhead_s: f64,
    occupancy_s: f64,
    flops: f64,
    gm_bytes: f64,
}

impl DeviceTotals {
    fn add(&mut self, t: &Timeline) {
        self.seconds += t.seconds;
        self.overhead_s += t.overhead_seconds;
        self.occupancy_s += t.mean_occupancy() * t.seconds;
        self.flops += t.totals.flops as f64;
        self.gm_bytes += t.totals.gm_bytes() as f64;
    }
}

/// One W-cycle step's pair blocks at level 1 for `tasks` (tall matrices
/// that do not fit whole in SM), split into Algorithm 2's groups: blocks
/// whose SVD fits in SM, and blocks whose Gram EVD fits, each with the V
/// pair the update GEMM rotates alongside. Pairs fitting neither recurse.
struct PairStep {
    svd: Vec<Matrix>,
    evd: Vec<Matrix>,
    evd_v: Vec<Matrix>,
}

fn pair_step(tasks: &[Matrix], w: usize, smem: usize, seed: u64) -> PairStep {
    let mut step = PairStep {
        svd: Vec::new(),
        evd: Vec::new(),
        evd_v: Vec::new(),
    };
    for (t, a) in tasks.iter().enumerate() {
        let (m, n) = a.shape();
        let w = effective_width(m, n, w, smem);
        for p in 0..n / w / 2 {
            let block = a.col_block(2 * p * w, 2 * w);
            if svd_fits_in_sm(m, 2 * w, smem) {
                step.svd.push(block);
            } else if evd_fits_in_sm(2 * w, smem) {
                step.evd.push(block);
                let v_seed = derive(seed, (t * 1000 + p) as u64);
                step.evd_v.push(random_uniform(n, 2 * w, v_seed));
            }
        }
    }
    step
}

/// Median seconds of `f` over enough repetitions to fill about 0.2 s.
fn time_layer<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64();
    let reps = (0.2 / once.max(1e-6)).clamp(1.0, 200.0) as usize;
    time_median(reps, f).min(once)
}

fn err(e: KernelError) -> String {
    e.to_string()
}

/// Host costs of the layers' public functions, called directly.
#[derive(Default)]
struct DirectLayers {
    svd_sm: Direct,
    evd_sm: Direct,
    gram: Direct,
    update: Direct,
    /// Sweeps of every matrix the direct SM SVD calls decomposed.
    sweeps: Vec<usize>,
    linalg_blocks: usize,
    gram_gflops: f64,
    matmul_gflops: f64,
    tune_s: f64,
}

/// Direct calls at the shapes of one timed call's inputs: level 0 takes the
/// matrices that fit whole in SM (partitioned with `svd_fits_in_sm`); the
/// rest feed one level-1 pair step under the plan `auto_tune_with_w_cap`
/// picks for them.
fn direct_layers(input: Inputs, seed: u64, spans: &mut Spans) -> Result<DirectLayers, String> {
    let cfg = WCycleConfig::default();
    let smem = V100.smem_per_block_bytes;
    let Tuning::Auto { threshold } = cfg.tuning else {
        unreachable!("the default configuration auto-tunes")
    };
    let mats: Vec<Matrix> = match input {
        Inputs::Batch { mats, .. } => mats,
        Inputs::Serve(trace) => trace
            .requests
            .iter()
            .map(|r| random_uniform(r.rows, r.cols, r.data_seed))
            .collect(),
    };
    // Wide inputs are decomposed transposed, as `wcycle_svd` does.
    let tall: Vec<Matrix> = mats
        .into_iter()
        .map(|a| {
            if a.rows() < a.cols() {
                a.transpose()
            } else {
                a
            }
        })
        .collect();
    let (level0, rest): (Vec<Matrix>, Vec<Matrix>) = tall
        .iter()
        .cloned()
        .partition(|a| svd_fits_in_sm(a.rows(), a.cols(), smem));
    let rest_sizes: Vec<(usize, usize)> = rest.iter().map(Matrix::shape).collect();
    let plan = auto_tune_with_w_cap(&rest_sizes, threshold, W_CAP);
    let step = pair_step(&rest, plan.w, smem, seed);
    let strategy = GemmStrategy::Tailored(plan);
    let gpu = Gpu::new(V100);
    let mut d = DirectLayers::default();

    // Level 0 runs at the outer tolerance; pair blocks at the inner one.
    for (mats, tol) in [(&level0, cfg.tol), (&step.svd, (cfg.tol * 1e-2).max(1e-15))] {
        if mats.is_empty() {
            continue;
        }
        let m_star = mats.iter().map(Matrix::rows).max().unwrap_or(1);
        let one_sided = OneSidedConfig {
            tol,
            threads_per_pair: cfg.alpha.resolve(m_star),
            cache_norms: cfg.cache_norms,
            accumulate_v: true,
            ordering: cfg.ordering,
            ..Default::default()
        };
        let call = || batched_svd_sm(&gpu, mats, &one_sided, cfg.kernel_threads);
        let (outs, stats) = call().map_err(err)?;
        d.sweeps.extend(outs.iter().map(|o| o.stats.sweeps));
        let (s, _) = spans.span("jacobi.svd_sm", |_| time_layer(call));
        d.svd_sm.add(s, &stats);
    }

    if !step.evd.is_empty() {
        let (grams, stats) = batched_gram(&gpu, &step.evd, strategy).map_err(err)?;
        let (s, _) = spans.span("batched.gram", |_| {
            time_layer(|| batched_gram(&gpu, &step.evd, strategy))
        });
        d.gram.add(s, &stats);
        let evd_cfg = EvdConfig {
            tol: 1e-15,
            max_sweeps: 30,
            ..Default::default()
        };
        let evd = || batched_evd_sm(&gpu, &grams, &evd_cfg, cfg.kernel_threads);
        let (evds, stats) = evd().map_err(err)?;
        let (s, _) = spans.span("jacobi.evd_sm", |_| time_layer(evd));
        d.evd_sm.add(s, &stats);
        // The update rotates each A pair block and its V pair.
        let js: Vec<Matrix> = evds
            .iter()
            .flat_map(|e| [e.j.clone(), e.j.clone()])
            .collect();
        let blocks: Vec<Matrix> = step
            .evd
            .iter()
            .zip(&step.evd_v)
            .flat_map(|(a, v)| [a.clone(), v.clone()])
            .collect();
        let update = || batched_update(&gpu, &mut blocks.clone(), &js, strategy);
        let stats = update().map_err(err)?;
        let (s, _) = spans.span("batched.update", |_| time_layer(update));
        d.update.add(s, &stats);
    }

    // linalg kernels on the blocks the GEMM layer multiplies (the level-0
    // matrices when nothing reaches the GEMMs).
    let lin: &[Matrix] = [&step.evd, &level0, &tall]
        .into_iter()
        .find(|b| !b.is_empty())
        .map_or(&[], |b| &b[..]);
    let flops: f64 = lin
        .iter()
        .map(|b| 2.0 * b.rows() as f64 * (b.cols() * b.cols()) as f64)
        .sum();
    let (s, _) = spans.span("linalg.gram", |_| {
        time_layer(|| lin.iter().map(gram).collect::<Vec<_>>())
    });
    d.gram_gflops = flops / s * 1e-9;
    let rots: Vec<Matrix> = lin
        .iter()
        .enumerate()
        .map(|(i, b)| random_uniform(b.cols(), b.cols(), derive(seed, i as u64)))
        .collect();
    let (s, _) = spans.span("linalg.matmul", |_| {
        time_layer(|| {
            lin.iter()
                .zip(&rots)
                .map(|(b, j)| matmul(b, j))
                .collect::<Vec<_>>()
        })
    });
    d.matmul_gflops = flops / s * 1e-9;
    d.linalg_blocks = lin.len();

    // The tuner's candidate walk (a cache miss) at the level-1 task sizes.
    let tune_sizes = if rest_sizes.is_empty() {
        tall.iter().map(Matrix::shape).collect()
    } else {
        rest_sizes
    };
    let (tune_s, _) = spans.span("batched.autotune", |_| {
        time_median(TUNE_REPS, || {
            PlanCache::new().lookup_or_tune(&tune_sizes, threshold, W_CAP)
        })
    });
    d.tune_s = tune_s;
    Ok(d)
}

/// The exact nearest-rank p50/p99 of the served records must fall inside
/// the histogram bucket `summarize()` reports for them (its value is that
/// bucket's upper bound).
fn check_bucket_quantiles(snap: &Snapshot, served: &ServeOutcome) -> Result<(), String> {
    let summary = summarize(snap, "", served);
    let bounds = latency_bounds();
    let e2e: Vec<f64> = served.records.iter().map(|r| r.end_to_end_us).collect();
    for (q, hi) in [(0.5, summary.p50_e2e_us), (0.99, summary.p99_e2e_us)] {
        let exact = nearest_rank(&e2e, q);
        let lo = bounds
            .iter()
            .rev()
            .find(|&&b| b < hi)
            .copied()
            .unwrap_or(0.0);
        let p = q * 100.0;
        println!(
            "serve quantile p{p}: exact {exact:.3} us in summarize() bucket ({lo:.3}, {hi:.3}]"
        );
        if !(exact > lo && exact <= hi) {
            return Err(format!(
                "exact p{p} {exact} us lies outside the summarize() bucket ({lo}, {hi}]"
            ));
        }
    }
    Ok(())
}

/// What the traced run's first timed calls measured untraced: their count,
/// host seconds and digest, their plan-cache hits and misses, and the host
/// seconds of the same calls replayed on one core.
pub struct Untraced {
    pub calls: usize,
    pub host_s: f64,
    pub digest: String,
    pub cache: (u64, u64),
    pub pinned_host_s: f64,
}

/// The traced twin of each of the first `Workload::traced_calls` timed
/// calls: the same inputs, run again right after the untraced call's check
/// with the registry on, so drift in host speed cancels out of the tracing
/// overhead.
pub struct Traced {
    sink: MetricsSink,
    device: DeviceTotals,
    digest: Digest,
    host_s: f64,
    payload_s: f64,
    reference_failed: usize,
    served: ServeOutcome,
    svds: usize,
    first: Option<Inputs>,
}

impl Traced {
    pub fn new() -> Self {
        Traced {
            sink: MetricsSink::enabled(),
            device: DeviceTotals::default(),
            digest: Digest::new(),
            host_s: 0.0,
            payload_s: 0.0,
            reference_failed: 0,
            served: ServeOutcome::default(),
            svds: 0,
            first: None,
        }
    }

    pub fn observe(&mut self, input: &Inputs, spans: &mut Spans) {
        let (call, _) = spans.span("traced_call", |_| run(input, &self.sink));
        self.host_s += call.host_s;
        self.device.add(&call.timeline);
        let verdict = check(input, &call, &mut self.digest, true);
        self.reference_failed += verdict.reference_failed;
        self.svds += verdict.attempted;
        if let (Inputs::Serve(trace), Outcome::Serve(Ok(out))) = (input, &call.outcome) {
            self.served.records.extend(out.records.iter().cloned());
            self.served.batches.extend(out.batches.iter().cloned());
            // The serve layer makes each request's matrix at dispatch.
            let (_, s) = spans.span("serve.payload", |_| {
                for r in &trace.requests {
                    black_box(random_uniform(r.rows, r.cols, r.data_seed));
                }
            });
            self.payload_s += s;
        }
        if self.first.is_none() {
            self.first = Some(input.clone());
        }
    }

    /// Checks the traced twins against the untraced calls and returns the
    /// per-layer metrics.
    pub fn finish(self, u: &Untraced, seed: u64, spans: &mut Spans) -> Result<Vec<Metric>, String> {
        if self.digest.hex() != u.digest {
            return Err("an enabled metrics sink changed the simulated results".to_string());
        }
        let snap = self.sink.snapshot();
        let served = &self.served;
        if !served.records.is_empty() {
            check_bucket_quantiles(&snap, served)?;
        }
        let first = self.first.ok_or("no timed call was traced")?;
        let d = direct_layers(first, seed, spans)?;

        // Launch machinery: an empty launch at the workload's mean grid.
        let launches = counter(&snap, &[], None, "launches");
        let blocks = counter(&snap, &[], None, "blocks");
        let grid = (blocks / launches.max(1.0)).round().max(1.0) as usize;
        let empty = KernelConfig::new(grid, 128, 0, "svdbench_empty");
        let gpu = Gpu::new(V100);
        let (launch_s, _) = spans.span("gpu_sim.launch", |_| {
            time_median(LAUNCH_REPS, || gpu.launch_collect(empty, |_, _| Ok(())))
        });

        let (k, host_s, dev) = (u.calls, u.host_s, &self.device);
        let per_call = |x: f64| x / k as f64;
        let flops = |kernels: &[&str]| counter(&snap, kernels, None, "flops");
        let svd_share = d.svd_sm.share(flops(&["batched_svd_sm"]), host_s);
        let evd_share = d.evd_sm.share(flops(&["batched_evd_sm"]), host_s);
        let gemm_share = d.gram.share(
            flops(&["tailored_gram_partial", "tailored_gram_reduce"]),
            host_s,
        ) + d.update.share(flops(&["tailored_update"]), host_s);
        let (hits, misses) = u.cache;
        let lookups = (hits + misses) as f64;
        let tail = tail_report(served, 0).tail;
        let batches = served.batches.len();
        let sweeps = &d.sweeps;
        let svds = self.svds;
        let level = |l: usize, name: &str| per_call(counter(&snap, &["wcycle"], Some(l), name));

        let mut m = vec![
            Metric::new(
                "jacobi.svd_sm.host_ms",
                d.svd_sm.seconds * 1e3,
                "ms",
                d.svd_sm.blocks,
            ),
            Metric::new("jacobi.svd_sm.host_share", svd_share, "ratio", svds),
            Metric::new(
                "jacobi.sweeps_mean",
                sweeps.iter().sum::<usize>() as f64 / sweeps.len().max(1) as f64,
                "count",
                sweeps.len(),
            ),
            Metric::new(
                "jacobi.sweeps_max",
                sweeps.iter().copied().max().unwrap_or(0) as f64,
                "count",
                sweeps.len(),
            ),
            Metric::new(
                "jacobi.evd_sm.host_ms",
                d.evd_sm.seconds * 1e3,
                "ms",
                d.evd_sm.blocks,
            ),
            Metric::new("jacobi.evd_sm.host_share", evd_share, "ratio", svds),
            Metric::new(
                "batched.gram.host_ms",
                d.gram.seconds * 1e3,
                "ms",
                d.gram.blocks,
            ),
            Metric::new(
                "batched.update.host_ms",
                d.update.seconds * 1e3,
                "ms",
                d.update.blocks,
            ),
            Metric::new("batched.gemm.host_share", gemm_share, "ratio", svds),
            Metric::new(
                "linalg.gram.host_gflops",
                d.gram_gflops,
                "GFLOP/s",
                d.linalg_blocks,
            ),
            Metric::new(
                "linalg.matmul.host_gflops",
                d.matmul_gflops,
                "GFLOP/s",
                d.linalg_blocks,
            ),
            Metric::new(
                "core.host_unattributed_share",
                1.0 - svd_share - evd_share - gemm_share,
                "ratio",
                svds,
            ),
        ];
        for l in 0..3 {
            m.push(Metric::new(
                &format!("core.level_s.L{l}"),
                level(l, "level_seconds"),
                "s",
                k,
            ));
        }
        for l in 1..3 {
            m.push(Metric::new(
                &format!("core.tasks.L{l}"),
                level(l, "tasks"),
                "count",
                k,
            ));
            m.push(Metric::new(
                &format!("core.sweeps.L{l}"),
                level(l, "sweeps"),
                "count",
                k,
            ));
        }
        let share = |c: Component| tail.share(c) / 100.0;
        m.extend([
            Metric::new("gpu_sim.launches", per_call(launches), "count", k),
            Metric::new(
                "gpu_sim.blocks_per_launch",
                blocks / launches.max(1.0),
                "count",
                launches as usize,
            ),
            Metric::new(
                "gpu_sim.overhead_share",
                dev.overhead_s / dev.seconds,
                "ratio",
                k,
            ),
            Metric::new("gpu_sim.launch_host_us", launch_s * 1e6, "us", LAUNCH_REPS),
            Metric::new(
                "gpu_sim.launch_host_share",
                launch_s * launches / host_s,
                "ratio",
                k,
            ),
            Metric::new(
                "gpu_sim.parallel_speedup",
                u.pinned_host_s / host_s,
                "ratio",
                k,
            ),
            Metric::new(
                "gpu_sim.occupancy_mean",
                dev.occupancy_s / dev.seconds,
                "ratio",
                k,
            ),
            Metric::new("gpu_sim.flops", per_call(dev.flops), "flop", k),
            Metric::new("gpu_sim.gm_bytes", per_call(dev.gm_bytes), "B", k),
            Metric::new("gpu_sim.ai", dev.flops / dev.gm_bytes.max(1.0), "flop/B", k),
            Metric::new(
                "batched.plan_cache.hit_ratio",
                hits as f64 / lookups.max(1.0),
                "ratio",
                lookups as usize,
            ),
            Metric::new("batched.plan_cache.lookups", per_call(lookups), "count", k),
            Metric::new("batched.autotune.host_us", d.tune_s * 1e6, "us", TUNE_REPS),
            Metric::new("serve.batches", per_call(batches as f64), "count", k),
            Metric::new(
                "serve.batch_len_mean",
                served.records.len() as f64 / batches.max(1) as f64,
                "count",
                batches,
            ),
            Metric::new(
                "serve.p99_admission_share",
                share(Component::Admission),
                "ratio",
                tail.count,
            ),
            Metric::new(
                "serve.p99_backlog_share",
                share(Component::Backlog),
                "ratio",
                tail.count,
            ),
            Metric::new(
                "serve.p99_service_share",
                share(Component::Service),
                "ratio",
                tail.count,
            ),
            Metric::new(
                "serve.payload_host_share",
                self.payload_s / host_s,
                "ratio",
                served.records.len(),
            ),
            Metric::new(
                "telemetry.traced_overhead",
                self.host_s / host_s - 1.0,
                "ratio",
                k,
            ),
            Metric::new(
                "linalg.reference_failed",
                self.reference_failed as f64,
                "count",
                svds,
            ),
        ]);
        Ok(m)
    }
}
