//! `svdbench` — the repository's two-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path svdbench/Cargo.toml -- \
//!     --workload batch-small|batch-large|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates seeded inputs outside the timed region, sets up at
//! least three times (twice in fresh processes, so every set-up starts with
//! a cold plan cache), then calls the public entry point in a closed loop —
//! one caller, the next call after the previous one returns — for
//! `--seconds` of timed host time. Every output is checked outside the timed
//! region. Stdout shows every metric with its unit and sample count; its
//! last line is one JSON object: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of `layers`. Results, the
//! environment record and the traced run's spans go to `svdbench/results/`.
//!
//! Two clocks: host wall-clock (what running the model costs) and simulated
//! device time (the model's output, which repeats exactly per seed).

mod layers;
mod util;
mod workload;

use std::process::Command;

use wsvd_batched::autotune::PlanCache;
use wsvd_metrics::MetricsSink;

use util::{cpu_seconds, median, nearest_rank, Digest, Spans};
use workload::{check, inputs, run, Workload};

/// A reported value with its unit and sample count.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        }
    }
}

enum Role {
    /// The benchmark proper.
    Main,
    /// One cold set-up in a fresh process: prints its time and digest.
    Probe,
    /// Replays timed calls `1..=k` after an untimed warm-up, for the pinned
    /// pass.
    Replay(usize),
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    role: Role,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut role = Role::Main;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--probe" => role = Role::Probe,
            "--replay" => role = Role::Replay(value()?.parse().map_err(|e| format!("{e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        role,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svdbench: {e}");
            eprintln!(
                "usage: svdbench --workload batch-small|batch-large|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.role {
        Role::Main => bench(&args),
        Role::Probe => setup(args.workload, args.seed).map(|(s, d)| println!("probe {s} {d}")),
        Role::Replay(k) => {
            replay(args.workload, args.seed, k).map(|(h, d)| println!("replay {h} {d}"))
        }
    };
    if let Err(e) = outcome {
        eprintln!("svdbench: {e}");
        std::process::exit(1);
    }
}

/// One set-up: generate the warm-up inputs and make the warm-up call, with
/// a cold plan cache. Returns its host CPU seconds and a digest of
/// everything the warm-up simulated — numerics, device time and every
/// registry counter — for the cross-process determinism check.
fn setup(w: Workload, seed: u64) -> Result<(f64, String), String> {
    let cpu = cpu_seconds();
    let warm = inputs(w, seed, 0);
    let sink = MetricsSink::enabled();
    let call = run(&warm, &sink);
    let setup_s = cpu_seconds() - cpu;
    let mut digest = Digest::new();
    let verdict = check(&warm, &call, &mut digest, false);
    if let Some(e) = verdict.first_error {
        return Err(format!("warm-up call failed: {e}"));
    }
    for (key, value) in sink.snapshot().counters {
        digest.str(&key);
        digest.f64(value);
    }
    Ok((setup_s, digest.hex()))
}

/// Replays timed calls `1..=k` after an untimed warm-up; returns their host
/// seconds and the digest of their outputs.
fn replay(w: Workload, seed: u64, k: usize) -> Result<(f64, String), String> {
    let off = MetricsSink::disabled();
    run(&inputs(w, seed, 0), &off);
    let mut digest = Digest::new();
    let mut host_s = 0.0;
    for c in 1..=k as u64 {
        let input = inputs(w, seed, c);
        let call = run(&input, &off);
        host_s += call.host_s;
        check(&input, &call, &mut digest, false);
    }
    Ok((host_s, digest.hex()))
}

/// Runs this executable again with `extra` arguments (optionally pinned to
/// core 0) and returns the fields of its last stdout line.
fn child(args: &Args, seed: u64, extra: &[&str], pinned: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = if pinned {
        let mut c = Command::new("taskset");
        c.args(["-c", "0"]).arg(&exe);
        c
    } else {
        Command::new(&exe)
    };
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(extra);
    let out = cmd.output().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Ok(last.split_whitespace().map(str::to_string).collect())
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    // A traced run reports per-layer metrics only, so it times just the
    // calls it traces, which keeps the costly workloads well inside the time
    // limit.
    let k = if args.trace {
        w.traced_calls()
    } else {
        w.sim_calls()
    };
    let mut spans = Spans::new();

    // Set-up with a cold plan cache, in fresh processes (at least twice, and
    // until a second of set-up is sampled) and once here. Every set-up
    // must simulate bit-identically. The traced run sets up once, and checks
    // instead that a set-up with another seed simulates differently.
    let (setups, _) = spans.span("setup", |_| -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        let mut digests = Vec::new();
        if !args.trace {
            while times.len() < 2 || (times.len() < 16 && times.iter().sum::<f64>() < 1.0) {
                let f = child(args, args.seed, &["--probe"], false)?;
                times.push(f[1].parse::<f64>().map_err(|e| e.to_string())?);
                digests.push(f[2].clone());
            }
        }
        let (here, digest) = setup(w, args.seed)?;
        times.push(here);
        digests.push(digest);
        if digests.iter().any(|d| *d != digests[0]) {
            return Err(format!(
                "same seed, different simulation: set-up digests {digests:?}"
            ));
        }
        if args.trace {
            let other = child(args, args.seed ^ 1, &["--probe"], false)?;
            if other[2] == digests[0] {
                return Err(format!(
                    "seeds {} and {} simulate identically",
                    args.seed,
                    args.seed ^ 1
                ));
            }
        }
        Ok(times)
    });
    let setups = setups?;

    // The timed phase: closed loop until `--seconds` of timed host time and
    // at least `k` calls. The simulated-time metrics use the first `k`; a
    // traced run also makes traced twins of the first `kt`.
    let off = MetricsSink::disabled();
    let (mut host_ms, mut cpu_ms, mut sim_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut passed) = (0usize, 0usize, 0usize);
    let (mut sim_s_k, mut svds_k) = (0.0f64, 0usize);
    // Each call's exact nearest-rank p50 and p99 of per-SVD latency.
    let (mut p50_k, mut p99_k, mut e2e_n) = (Vec::new(), Vec::new(), 0usize);
    let mut digest_k = Digest::new();
    let mut first_error = None;
    let mut worst = [0.0f64; 4];
    let mut traced = args.trace.then(layers::Traced::new);
    let kt = w.traced_calls();
    let mut digest_kt = String::new();
    // The plan cache's own (cumulative) hit and miss counters, read around
    // the first `kt` calls: the steady-state hit ratio, without the registry.
    let cache_before = PlanCache::global().stats();
    let mut cache_kt = cache_before;
    let (_, timed_wall) = spans.span("timed", |spans| {
        let mut c = 0u64;
        while host_ms.len() < k || host_ms.iter().sum::<f64>() < args.seconds * 1e3 {
            c += 1;
            let input = inputs(w, args.seed, c);
            let (call, _) = spans.span("call", |_| run(&input, &off));
            let mut scratch = Digest::new();
            let in_k = host_ms.len() < k;
            let v = check(
                &input,
                &call,
                if in_k { &mut digest_k } else { &mut scratch },
                false,
            );
            host_ms.push(call.host_s * 1e3);
            cpu_ms.push(call.cpu_s * 1e3);
            sim_us.push(call.sim_s * 1e6);
            attempted += v.attempted;
            failed += v.failed;
            passed += v.attempted - v.failed;
            worst
                .iter_mut()
                .zip(v.worst)
                .for_each(|(a, b)| *a = a.max(b));
            if first_error.is_none() {
                first_error = v.first_error;
            }
            if host_ms.len() <= kt {
                cache_kt = PlanCache::global().stats();
                digest_kt = digest_k.hex();
                if let Some(t) = traced.as_mut() {
                    t.observe(&input, spans);
                }
            }
            if in_k {
                sim_s_k += call.sim_s;
                svds_k += v.attempted;
                if !v.e2e_us.is_empty() {
                    p50_k.push(nearest_rank(&v.e2e_us, 0.5));
                    p99_k.push(nearest_rank(&v.e2e_us, 0.99));
                    e2e_n += v.e2e_us.len();
                }
            }
        }
    });
    let host_s: f64 = host_ms.iter().sum::<f64>() * 1e-3;
    let calls = host_ms.len();

    // Host cost is gated in CPU seconds (all threads), which the host's
    // hypervisor and other tenants cannot inflate by taking the CPUs away;
    // wall-clock is shown beside it. Every call carries the same number of
    // SVDs, so throughput comes from the median call.
    let per_call = passed as f64 / calls as f64;
    let mut e2e = vec![
        Metric::new(
            "host_svds_per_cpu_s",
            per_call / (median(&cpu_ms) * 1e-3),
            "SVD/s",
            passed,
        ),
        Metric::new("host_cpu_ms_p50", median(&cpu_ms), "ms", calls),
        Metric::new("sim_svds_per_s", svds_k as f64 / sim_s_k, "SVD/s", svds_k),
        // The median over calls of each call's quantile: one bursty trace
        // moves a pooled p99 over all requests far more than this.
        Metric::new("sim_e2e_us_p50", median(&p50_k), "us", e2e_n),
        Metric::new("sim_e2e_us_p99", median(&p99_k), "us", e2e_n),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("peak_rss_mb", util::peak_rss_mib(), "MiB", 1),
    ];
    // Shown, not gated: wall-clock, its p90 once ten calls lie beyond it,
    // and the failure ratio (0 on a healthy run, so it cannot carry a
    // relative bound).
    let mut info = vec![
        Metric::new(
            "host_svds_per_s",
            per_call / (median(&host_ms) * 1e-3),
            "SVD/s",
            passed,
        ),
        Metric::new("host_call_ms_p50", median(&host_ms), "ms", calls),
        Metric::new(
            "failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
            attempted,
        ),
    ];
    if calls >= 100 {
        info.push(Metric::new(
            "host_call_ms_p90",
            nearest_rank(&host_ms, 0.9),
            "ms",
            calls,
        ));
    }

    let reported = match traced {
        Some(t) => {
            // The same calls on one core, in a fresh process.
            let (pinned, _) = spans.span("pinned_replay", |_| {
                child(args, args.seed, &["--replay", &kt.to_string()], true)
            });
            let pinned = pinned?;
            if pinned[2] != digest_kt {
                return Err("a replay on one core simulated differently".to_string());
            }
            let untraced = layers::Untraced {
                calls: kt,
                host_s: host_ms[..kt].iter().sum::<f64>() * 1e-3,
                digest: digest_kt,
                cache: (cache_kt.0 - cache_before.0, cache_kt.1 - cache_before.1),
                pinned_host_s: pinned[1].parse().map_err(|e| format!("{e}"))?,
            };
            let (layer, _) = spans.span("layers", |spans| t.finish(&untraced, args.seed, spans));
            layer?
        }
        None => std::mem::take(&mut e2e),
    };

    let env = util::environment();
    println!(
        "svdbench {} seed={} trace={} calls={calls} timed_host_s={host_s:.3} timed_wall_s={timed_wall:.3} \
         sim_calls={k}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("environment {env}");
    println!(
        "note: every working set is LLC-resident (a batch-large batch is at most 4 MiB), \
         so gm_bytes is the simulator's computed traffic; no host bandwidth is claimed"
    );
    println!(
        "check: worst residual {:.2e}, weighted orthogonality {:.2e}, sigma error {:.2e} \
         (tolerance {:.0e}); unweighted orthogonality {:.2e}",
        worst[0],
        worst[1],
        worst[2],
        workload::TOL,
        worst[3]
    );
    if let Some(e) = &first_error {
        println!("first failure: {e}");
    }
    let shown: Vec<&Metric> = e2e.iter().chain(&info).chain(&reported).collect();
    for m in &shown {
        println!("{:<34} {:>18.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
    write_results(args, &env, [&host_ms, &cpu_ms, &sim_us], &shown, &spans)?;

    for m in &reported {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
    }
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// Writes the run's metrics, environment record and spans next to the
/// benchmark, under `results/` (ignored by git).
fn write_results(
    args: &Args,
    env: &str,
    [host_ms, cpu_ms, sim_us]: [&[f64]; 3],
    metrics: &[&Metric],
    spans: &Spans,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                m.name, m.value, m.unit, m.n
            )
        })
        .collect();
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"calls\": {}, \
         \"environment\": {env}, \
         \"call_host_ms\": {host_ms:?}, \"call_cpu_ms\": {cpu_ms:?}, \"call_sim_us\": {sim_us:?}, \
         \"note\": \"every working set is LLC-resident; gm_bytes is computed, no host bandwidth is claimed\", \
         \"metrics\": {{{}}}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        host_ms.len(),
        metrics.join(", ")
    );
    let write = |name: String, body: &str| {
        std::fs::write(dir.join(&name), body).map_err(|e| format!("{name}: {e}"))
    };
    write(format!("{stem}.json"), &json)?;
    if args.trace {
        write(format!("{stem}-spans.json"), &spans.to_json())?;
    }
    Ok(())
}
