//! `wsvd-bench-diff` — compares two perf snapshots written by
//! `repro --bench-out`, under configurable relative tolerances.
//!
//! Usage:
//! ```text
//!   wsvd-bench-diff [--gate] [--allow-new] [--accept PREFIX]...
//!                   [--tol-time R] [--tol-counter R] BASELINE NEW
//! ```
//!
//! Every metric series in either snapshot is compared: time-like series
//! (names ending `seconds`) under `--tol-time` (default 0.01 = 1%
//! relative), all other counters/gauges and histogram counts under
//! `--tol-counter` (default 0 = exact). Missing or extra series always
//! violate, except that `--allow-new` accepts series present only in NEW —
//! the flag CI uses when a release legitimately adds experiments and the
//! fresh snapshot is gated against the *previous* baseline. `--accept
//! PREFIX` (repeatable) waives value drift on series whose key starts with
//! PREFIX — for a release that intentionally changes existing behavior
//! (e.g. a dead rank's shard no longer running changes ext-health's
//! killed-shard launch counts); missing/extra series
//! under an accepted prefix still violate, and the waiver should pin the
//! narrowest possible keys. With `--gate` the process exits non-zero when
//! any violation is found — CI regenerates a fresh snapshot and gates it
//! against the committed `BENCH_<n>.json` baseline this way.

use wsvd_bench::{BenchSnapshot, Tolerances};

fn main() {
    let mut gate = false;
    let mut tol = Tolerances::default();
    let mut paths: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => gate = true,
            "--allow-new" => tol.allow_new = true,
            "--accept" => {
                tol.accept_prefixes
                    .push(it.next().expect("--accept needs a key prefix"));
            }
            "--tol-time" => {
                tol.time = it
                    .next()
                    .expect("--tol-time needs a value")
                    .parse()
                    .expect("--tol-time must be a number");
            }
            "--tol-counter" => {
                tol.counter = it
                    .next()
                    .expect("--tol-counter needs a value")
                    .parse()
                    .expect("--tol-counter must be a number");
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: wsvd-bench-diff [--gate] [--allow-new] [--accept PREFIX]... [--tol-time R] \
             [--tol-counter R] BASELINE NEW"
        );
        std::process::exit(2);
    }
    if !tol.accept_prefixes.is_empty() {
        println!(
            "accepting intended value drift under {} prefix(es): {}",
            tol.accept_prefixes.len(),
            tol.accept_prefixes.join(", ")
        );
    }
    let load = |path: &str| -> BenchSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        BenchSnapshot::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(&paths[0]);
    let fresh = load(&paths[1]);
    let violations = baseline.compare(&fresh, &tol);
    for v in &violations {
        println!("DIFF  {v}");
    }
    println!(
        "{} series in baseline, {} in new; {} violation(s) (tol: time {:.1}%, counter {:.1}%)",
        baseline.series_count(),
        fresh.series_count(),
        violations.len(),
        100.0 * tol.time,
        100.0 * tol.counter,
    );
    if gate && !violations.is_empty() {
        eprintln!("bench gate FAILED against {}", paths[0]);
        std::process::exit(1);
    }
}
