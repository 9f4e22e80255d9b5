//! `wsvd-loadgen` — drive the serve layer with seeded load and score SLOs.
//!
//! ```text
//! wsvd-loadgen [--trace poisson|bursty|assimilation|all]
//!              [--requests N]        requests per trace (default 32)
//!              [--rate-hz R]         offered arrival rate (default 2000)
//!              [--min-dim D]         smallest matrix dimension (default 8)
//!              [--max-dim D]         largest matrix dimension (default 64)
//!              [--seed S]            trace + payload seed (default 42)
//!              [--max-wait-us U]     admission wait bound (default 20000)
//!              [--max-batch B]       bucket size bound (default 64)
//!              [--slo-p99-us X]      fail (exit non-zero) if p99 e2e > X
//!              [--slo-e2e-us X]      per-request SLO scored by the
//!                                    slo_violations counter (defaults to
//!                                    --slo-p99-us, else 1e6)
//!              [--why-slow K]        print the top-K slowest requests as
//!                                    admission/backlog/service waterfalls
//!                                    plus the p99-tail attribution;
//!                                    backlog is the wait for SMs or
//!                                    bandwidth held by earlier buckets'
//!                                    launches on the concurrent-stream
//!                                    device
//!              [--prom FILE]         write the Prometheus exposition
//! ```
//!
//! The two SLO knobs are distinct: `--slo-p99-us` gates the *aggregate*
//! p99 (the exit code), while `--slo-e2e-us` sets the *per-request* target
//! each served request is scored against. When only `--slo-p99-us` is
//! given it also serves as the per-request target, preserving the historic
//! behavior.
//!
//! Everything runs on simulated time with seeded generators: the same
//! command line prints byte-identical summaries (and `--why-slow`
//! waterfalls) on every run. CI's `Serve smoke` step runs this binary
//! twice — once with an attainable SLO (must pass) and once with an
//! impossible one (must exit non-zero) — and the `Tail smoke` step diffs
//! two `--why-slow` runs byte-for-byte.

use std::path::PathBuf;
use std::process::ExitCode;

use wsvd_gpu_sim::{Gpu, V100};
use wsvd_metrics::MetricsSink;
use wsvd_serve::{serve_trace, summarize, tail_report, BatchPolicy, ServeConfig, Trace};

struct Args {
    trace: String,
    requests: usize,
    rate_hz: f64,
    min_dim: usize,
    max_dim: usize,
    seed: u64,
    max_wait_us: u64,
    max_batch: usize,
    slo_p99_us: Option<f64>,
    slo_e2e_us: Option<f64>,
    why_slow: usize,
    prom: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            trace: "all".to_string(),
            requests: 32,
            rate_hz: 2000.0,
            min_dim: 8,
            max_dim: 64,
            seed: 42,
            max_wait_us: 20_000,
            max_batch: 64,
            slo_p99_us: None,
            slo_e2e_us: None,
            why_slow: 0,
            prom: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--trace" => args.trace = value("--trace")?,
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--rate-hz" => {
                args.rate_hz = value("--rate-hz")?
                    .parse()
                    .map_err(|e| format!("--rate-hz: {e}"))?
            }
            "--min-dim" => {
                args.min_dim = value("--min-dim")?
                    .parse()
                    .map_err(|e| format!("--min-dim: {e}"))?
            }
            "--max-dim" => {
                args.max_dim = value("--max-dim")?
                    .parse()
                    .map_err(|e| format!("--max-dim: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--max-wait-us" => {
                args.max_wait_us = value("--max-wait-us")?
                    .parse()
                    .map_err(|e| format!("--max-wait-us: {e}"))?
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?
            }
            "--slo-p99-us" => {
                args.slo_p99_us = Some(
                    value("--slo-p99-us")?
                        .parse()
                        .map_err(|e| format!("--slo-p99-us: {e}"))?,
                )
            }
            "--slo-e2e-us" => {
                args.slo_e2e_us = Some(
                    value("--slo-e2e-us")?
                        .parse()
                        .map_err(|e| format!("--slo-e2e-us: {e}"))?,
                )
            }
            "--why-slow" => {
                args.why_slow = value("--why-slow")?
                    .parse()
                    .map_err(|e| format!("--why-slow: {e}"))?
            }
            "--prom" => args.prom = Some(PathBuf::from(value("--prom")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn build_trace(kind: &str, a: &Args) -> Option<Trace> {
    match kind {
        "poisson" => Some(Trace::poisson(
            a.requests,
            a.rate_hz,
            (a.min_dim, a.max_dim),
            a.seed,
        )),
        "bursty" => Some(Trace::bursty(
            a.requests,
            (a.requests / 4).max(2),
            a.rate_hz * 4.0,
            (4.0e6 / a.rate_hz) as u64,
            (a.min_dim, a.max_dim),
            a.seed,
        )),
        "assimilation" => Some(Trace::assimilation(
            a.requests, a.min_dim, a.max_dim, a.rate_hz, a.seed,
        )),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsvd-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kinds: Vec<&str> = if args.trace == "all" {
        vec!["poisson", "bursty", "assimilation"]
    } else {
        vec![args.trace.as_str()]
    };
    let policy = BatchPolicy {
        max_wait_us: args.max_wait_us,
        max_batch: args.max_batch,
    };
    // The per-request SLO: its own knob when given, else the aggregate p99
    // target (the historic conflation), else 1 s.
    let cfg = ServeConfig {
        policy,
        slo_e2e_us: args.slo_e2e_us.or(args.slo_p99_us).unwrap_or(1.0e6),
    };
    let sink = MetricsSink::enabled();
    let mut violated = false;
    for kind in kinds {
        let Some(trace) = build_trace(kind, &args) else {
            eprintln!("wsvd-loadgen: unknown trace '{kind}' (poisson|bursty|assimilation|all)");
            return ExitCode::FAILURE;
        };
        sink.set_experiment(&format!("loadgen-{kind}"));
        let gpu = Gpu::new(V100);
        let outcome = match serve_trace(&gpu, &trace, &cfg, &sink) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("wsvd-loadgen: serving '{kind}' failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let s = summarize(&sink.snapshot(), &format!("loadgen-{kind}"), &outcome);
        println!(
            "trace={kind} offered={:.1}r/s requests={} batches={} rejected={} \
             p50={:.1}us p99={:.1}us queue_p50={:.1}us queue_p99={:.1}us \
             service_p50={:.1}us service_p99={:.1}us \
             mean_queue={:.1}us mean_service={:.1}us \
             throughput={:.1}r/s slo_violations={}",
            trace.offered_rate_hz(),
            s.requests,
            s.batches,
            s.rejected,
            s.p50_e2e_us,
            s.p99_e2e_us,
            s.p50_queue_us,
            s.p99_queue_us,
            s.p50_service_us,
            s.p99_service_us,
            s.mean_queue_us,
            s.mean_service_us,
            s.throughput_rps,
            s.slo_violations,
        );
        if args.why_slow > 0 {
            print!("{}", tail_report(&outcome, args.why_slow).render());
        }
        if let Some(slo) = args.slo_p99_us {
            if s.p99_e2e_us > slo {
                eprintln!(
                    "wsvd-loadgen: SLO VIOLATION on '{kind}': p99 {:.1}us > target {slo:.1}us \
                     ({} of {} requests over)",
                    s.p99_e2e_us, s.slo_violations, s.requests,
                );
                violated = true;
            }
        }
    }
    if let Some(path) = &args.prom {
        let text = sink.snapshot().to_prometheus();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("wsvd-loadgen: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("prometheus exposition written to {}", path.display());
    }
    if violated {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
