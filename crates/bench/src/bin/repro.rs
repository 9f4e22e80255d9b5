//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//!   repro --list
//!   repro <id> [<id> ...] [--scale reduced|full] [--json DIR] [--trace FILE]
//!   repro --all [--scale reduced|full] [--json DIR] [--trace FILE]
//!   repro --check DIR [<id> ...]     # regression-compare against stored JSON
//!   repro --all --check DIR          # ... every experiment; a missing DIR/<id>.json fails
//!   repro --sanitize [<id> ...]      # run under the wsvd-sanitizer (default: fig7)
//!   repro --fused [<id> ...]         # run with the fused launch pipeline on
//!   repro --report [<id> ...]        # per-kernel profiler report (wsvd-metrics)
//!   repro --bench-out FILE [...]     # write a perf snapshot for wsvd-bench-diff
//!   repro --prom FILE [...]          # export the registry as Prometheus text
//!   repro --health [<id> ...]        # numerical-health watchdogs + incident reports
//!   repro --health-dump FILE [...]   # also write the full health report as JSON
//! ```
//!
//! `--trace FILE` records every simulated kernel launch, W-cycle sweep and
//! auto-tuner decision, writes a Chrome trace-event JSON timeline to FILE
//! (load it at <https://ui.perfetto.dev>) and prints a flame summary to
//! stderr.
//!
//! `--sanitize` turns on full dynamic hazard tracking (lane-level shared
//! memory races, barrier divergence, leaked buffers) and static schedule /
//! shared-memory verification for every simulated launch, then exits
//! non-zero if any violation was reported. Equivalent to `WSVD_SANITIZE=1`.
//!
//! `--report` turns on the wsvd-metrics registry (a strict no-op otherwise:
//! simulated time and numerics are bit-identical with metrics off) and, after
//! the experiments run, prints a per-kernel profiler table per experiment —
//! time share, achieved occupancy, arithmetic intensity and the roofline
//! ceiling each kernel is pinned to (Eqs. 8–10), GM-transaction efficiency
//! and launch-overhead share.
//!
//! `--bench-out FILE` (implies the registry on) writes a stable
//! [`wsvd_bench::BenchSnapshot`] JSON of the whole invocation; commit one as
//! `BENCH_<n>.json` and gate CI with `wsvd-bench-diff --gate`. `--prom FILE`
//! exports the same registry in Prometheus text exposition format.
//!
//! `--health` arms the wsvd-health watchdogs (another strict no-op when off):
//! NaN/Inf guards at kernel boundaries, a `not-converged` incident for a
//! matrix the W-cycle returns unconverged, per-batch residual/orthogonality
//! drift monitors and dead-shard detection at cluster barriers. After the
//! experiments run a per-experiment summary is printed and the process exits
//! non-zero if any incident fired. `--health-dump FILE` (implies `--health`)
//! additionally writes the full [`wsvd_health::HealthReport`] — incidents,
//! each with its metrics snapshot, plan in force and replayable seed — as
//! JSON. The event timeline around an incident is the `--trace FILE` export
//! of the same run, where `t_sim` is the simulated time on the device's track.
//!
//! `--fused` makes every W-cycle run record its per-level launches into a
//! [`wsvd_gpu_sim::LaunchGraph`], paying the driver's launch overhead once
//! per level instead of once per kernel (back-to-back same-shape launches
//! coalesce onto already-resident SM slots). Counters and numerics are
//! bit-identical to the serial pipeline; simulated time can only improve,
//! so fused baselines live in their own directory (`repro_results/fused/`).

use std::io::Write;
use wsvd_bench::{all_experiments, Report, Scale};
use wsvd_gpu_sim::{SanitizeMode, Session};

const USAGE: &str = "usage: repro --list | --all | <id>... [--scale reduced|full] [--json DIR] \
                     [--check DIR] [--trace FILE] [--sanitize] [--fused] [--report] \
                     [--bench-out FILE] [--prom FILE] [--health] [--health-dump FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Reduced;
    let mut json_dir: Option<String> = None;
    let mut check_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut run_all = false;
    let mut sanitize = false;
    let mut fused = false;
    let mut report = false;
    let mut bench_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut health = false;
    let mut health_dump: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for (id, _) in all_experiments() {
                    println!("{id}");
                }
                return;
            }
            "--all" => run_all = true,
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--json" => json_dir = Some(it.next().expect("--json needs a directory")),
            "--check" => check_dir = Some(it.next().expect("--check needs a directory")),
            "--trace" => trace_path = Some(it.next().expect("--trace needs a file")),
            "--sanitize" => sanitize = true,
            "--fused" => fused = true,
            "--report" => report = true,
            "--bench-out" => bench_out = Some(it.next().expect("--bench-out needs a file")),
            "--prom" => prom_out = Some(it.next().expect("--prom needs a file")),
            "--health" => health = true,
            "--health-dump" => health_dump = Some(it.next().expect("--health-dump needs a file")),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() && !run_all && check_dir.is_none() && sanitize {
        ids.push("fig7".to_string());
    }
    // Every `Gpu` copies the installed session when it is built, so the
    // flags become one session before any experiment runs. Sinks stay
    // disabled (strict no-ops) unless a flag asks for them; without
    // `--sanitize`, `WSVD_SANITIZE` decides.
    let mut session = Session::current();
    if trace_path.is_some() {
        session.trace = wsvd_trace::TraceSink::enabled();
    }
    if report || bench_out.is_some() || prom_out.is_some() {
        session.metrics = wsvd_metrics::MetricsSink::enabled();
    }
    if health || health_dump.is_some() {
        session.health = wsvd_health::HealthSink::enabled();
    }
    if sanitize {
        session.sanitize = SanitizeMode::Full;
    }
    session.fused = fused;
    Session::install(session.clone());

    let experiments = all_experiments();
    if run_all {
        ids = experiments.iter().map(|(id, _)| id.to_string()).collect();
    }
    if let Some(dir) = &check_dir {
        if ids.is_empty() {
            ids = experiments
                .iter()
                .map(|(id, _)| id.to_string())
                .filter(|id| std::path::Path::new(&format!("{dir}/{id}.json")).exists())
                .collect();
        }
    } else if ids.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("known ids:");
        for (id, _) in &experiments {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    if let Some(id) = ids
        .iter()
        .find(|id| !experiments.iter().any(|(e, _)| e == id))
    {
        eprintln!("unknown experiment '{id}' (try --list)");
        std::process::exit(2);
    }
    // Regression mode: every id named (or `--all`) needs its stored
    // baseline, read before any experiment runs.
    let baselines: Option<Vec<Report>> = check_dir.as_ref().map(|dir| {
        ids.iter()
            .map(|id| {
                let path = format!("{dir}/{id}.json");
                let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("no baseline for '{id}': cannot read {path}: {e}");
                    std::process::exit(1);
                });
                serde_json::from_str(&stored).expect("baseline parse")
            })
            .collect()
    });
    let run = |id: &str| -> Report {
        let (_, f) = experiments
            .iter()
            .find(|(e, _)| *e == id)
            .expect("ids are known");
        session.set_experiment(id);
        f(scale)
    };

    let failed = if let Some(baselines) = &baselines {
        let mut failed = false;
        for (id, baseline) in ids.iter().zip(baselines) {
            match run(id).diff(baseline) {
                None => println!("{id:>12}  PASS"),
                Some(d) => {
                    println!("{id:>12}  DIFF: {d}");
                    failed = true;
                }
            }
        }
        failed
    } else {
        let mut reports: Vec<Report> = Vec::new();
        // The copy of the host kernels this CPU runs, so host timings from
        // different machines can be told apart.
        let tier = wsvd_linalg::simd::tier().name();
        for id in &ids {
            let start = std::time::Instant::now();
            let cpu_start = cpu_seconds();
            let rep = run(id);
            println!("{}", rep.render());
            let wall = start.elapsed().as_secs_f64();
            match cpu_start.zip(cpu_seconds()) {
                Some(((u0, s0), (u1, s1))) => println!(
                    "   (regenerated in {wall:.1} s wall-clock, {:.1} s user + {:.1} s sys CPU, \
                     {tier} kernels)\n",
                    u1 - u0,
                    s1 - s0
                ),
                None => println!("   (regenerated in {wall:.1} s wall-clock, {tier} kernels)\n"),
            }
            reports.push(rep);
        }
        if let Some(dir) = json_dir {
            std::fs::create_dir_all(&dir).expect("create json dir");
            for rep in &reports {
                let path = format!("{dir}/{}.json", rep.id);
                let mut f = std::fs::File::create(&path).expect("create json file");
                f.write_all(serde_json::to_string_pretty(rep).unwrap().as_bytes())
                    .unwrap();
                eprintln!("wrote {path}");
            }
        }
        false
    };

    // The exit tail, shared by both modes: write out what the sinks
    // recorded, then fail on health incidents or sanitizer violations on the
    // session's devices.
    if let Some(path) = &trace_path {
        let events = session.trace.events();
        let processes = session.trace.processes();
        std::fs::write(path, wsvd_trace::chrome_trace_json(&events, &processes))
            .expect("write trace file");
        eprintln!("{}", wsvd_trace::flame_summary(&events, &processes));
        eprintln!(
            "wrote {} trace events to {path} (open at https://ui.perfetto.dev)",
            events.len()
        );
    }
    if session.metrics.is_enabled() {
        let snap = session.metrics.snapshot();
        if report {
            print!("{}", wsvd_bench::metrics_report::render_report(&snap));
        }
        if let Some(path) = &bench_out {
            let bench = wsvd_bench::BenchSnapshot {
                version: wsvd_bench::BENCH_SNAPSHOT_VERSION as f64,
                scale: format!("{scale:?}").to_lowercase(),
                experiments: ids.clone(),
                metrics: snap.clone(),
            };
            std::fs::write(path, bench.to_json()).expect("write bench snapshot");
            eprintln!("wrote perf snapshot to {path} (compare with wsvd-bench-diff)");
        }
        if let Some(path) = &prom_out {
            std::fs::write(path, snap.to_prometheus()).expect("write prometheus file");
            eprintln!("wrote Prometheus exposition to {path}");
        }
    }
    let violations = session.sanitize.is_on() && {
        let v = session.tally.violations();
        if v > 0 {
            eprintln!("wsvd-sanitizer: {v} violation(s) detected");
        } else {
            eprintln!(
                "wsvd-sanitizer: clean — {} experiment(s) ran under full hazard checking",
                ids.len()
            );
        }
        v > 0
    };
    let unhealthy = session.health.is_enabled() && {
        let sink = &session.health;
        if let Some(path) = &health_dump {
            std::fs::write(path, sink.report_json()).expect("write health report");
            eprintln!("wrote health report to {path}");
        }
        eprintln!(
            "wsvd-health: {} incident(s) ({} suppressed repeat(s))",
            sink.incident_count(),
            sink.suppressed(),
        );
        let summary = sink.summary();
        for id in &ids {
            match summary.get(id) {
                Some(n) => eprintln!("  {id:>12}  {n} incident(s)"),
                None => eprintln!("  {id:>12}  OK"),
            }
        }
        for inc in sink.incidents() {
            eprintln!(
                "  INCIDENT [{}] {} (replay seed {}): {}",
                inc.kind, inc.experiment, inc.seed, inc.detail
            );
        }
        sink.incident_count() > 0
    };
    if failed || violations || unhealthy {
        std::process::exit(1);
    }
}

/// This process's user and system CPU seconds so far, over all its threads,
/// from `/proc/self/stat`. `None` where that file does not exist (outside
/// Linux), so callers fall back to wall-clock alone.
fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name in field 2 may hold spaces, so count from the `)`
    // that closes it: `utime` and `stime` are fields 14 and 15, in clock
    // ticks of the Linux ABI's fixed `USER_HZ` (100 per second).
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<f64>().ok();
    Some((ticks()? / 100.0, ticks()? / 100.0))
}
