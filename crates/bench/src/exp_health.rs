//! `ext-health` — the numerical-health watchdog demonstration (extension).
//!
//! One table, two halves:
//!
//! * **Clean rows** — fig7-derived shapes run twice, watched and unwatched.
//!   The health layer's contract is that every watchdog computation hides
//!   behind `is_enabled()`, so the watched run must land on the *same*
//!   simulated clock — the overhead column is required to read `0.0%`.
//! * **Planted-fault rows** — a NaN injected at a kernel boundary, a W-cycle
//!   capped at two sweeps (its convergence status reads unconverged), and a
//!   killed cluster shard. Each must produce exactly one structured
//!   [`wsvd_health::Incident`] whose embedded seed deterministically replays
//!   the failure (the `replayed` column re-runs the scenario from
//!   `incident.seed` and checks the same incident fires again).
//!
//! The experiment deliberately builds *local* [`HealthSink`]s and installs
//! them per-GPU rather than using the installed `Session`'s sink: planted
//! faults are scenery, not real incidents, and must not trip
//! `repro --health`'s non-zero exit for the run that hosts them.

use wsvd_apps::assimilation::{analysis_step_distributed, AssimilationProblem, SvdEngine};
use wsvd_batched::{batched_gram, GemmStrategy};
use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, GpuCluster, V100, VEGA20};
use wsvd_health::HealthSink;
use wsvd_linalg::generate::random_batch;

use crate::report::Report;
use crate::scale::Scale;

/// A watched or unwatched clean W-cycle run; returns (sim seconds, incidents).
fn clean_run(m: usize, n: usize, batch: usize, seed: u64, watch: bool) -> (f64, usize) {
    let sink = watch.then(|| {
        let s = HealthSink::enabled();
        s.set_context("ext-health", seed);
        s
    });
    let mut gpu = Gpu::new(V100);
    if let Some(s) = &sink {
        gpu.set_health(s.clone());
    }
    let mats = random_batch(batch, m, n, seed);
    wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    (
        gpu.elapsed_seconds(),
        sink.map(|s| s.incident_count()).unwrap_or(0),
    )
}

/// Plants one NaN at a kernel boundary: the batched Gram kernel's finite
/// guard must convert it into exactly one `non-finite` incident.
fn nan_run(seed: u64) -> HealthSink {
    let sink = HealthSink::enabled();
    sink.set_context("ext-health", seed);
    let mut gpu = Gpu::new(V100);
    gpu.set_health(sink.clone());
    let mut mats = random_batch(4, 24, 8, seed);
    mats[2][(5, 3)] = f64::NAN;
    batched_gram(&gpu, &mats, GemmStrategy::OneBlockPerGemm { threads: 256 }).unwrap();
    sink
}

/// Caps a multilevel W-cycle at two sweeps, far short of what `tol` needs:
/// the matrix comes back unconverged, one `not-converged` incident.
fn cap_run(seed: u64) -> HealthSink {
    let sink = HealthSink::enabled();
    sink.set_context("ext-health", seed);
    let mut gpu = Gpu::new(V100);
    gpu.set_health(sink.clone());
    let mats = random_batch(1, 96, 96, seed);
    let cfg = WCycleConfig {
        tol: 1e-12,
        max_sweeps: 2,
        ..WCycleConfig::default()
    };
    wcycle_svd(&gpu, &mats, &cfg).unwrap();
    sink
}

/// Kills one shard of a 4-GPU analysis step: the step's health check
/// detects the dead rank (one `shard-dead` incident) and the step fails,
/// since no other rank takes over its grid points.
fn shard_run(seed: u64) -> HealthSink {
    let sink = HealthSink::enabled();
    sink.set_context("ext-health", seed);
    let mut cluster = GpuCluster::new(VEGA20, 4);
    cluster.set_health(sink.clone());
    cluster.kill(2);
    let p = AssimilationProblem::generate(8, 12, 32, seed);
    analysis_step_distributed(&cluster, &p, SvdEngine::WCycle)
        .expect_err("a dead rank's shard cannot run");
    sink
}

/// Runs a planted-fault scenario, then replays it from the incident's own
/// embedded seed; returns `(incidents-of-kind, seed, replay-confirmed)`.
fn fault_case(kind: &str, seed: u64, run: fn(u64) -> HealthSink) -> (usize, u64, bool) {
    let sink = run(seed);
    let incidents = sink.incidents();
    let matching: Vec<_> = incidents.iter().filter(|i| i.kind == kind).collect();
    let Some(inc) = matching.first() else {
        return (0, 0, false);
    };
    let replay = run(inc.seed);
    let replayed = replay.incidents().iter().filter(|i| i.kind == kind).count() == matching.len();
    (matching.len(), inc.seed, replayed)
}

/// The `ext-health` experiment (see the module docs for the table contract).
pub fn ext_health(scale: Scale) -> Report {
    let batch = scale.pick(6, 24);
    let mut rep = Report::new(
        "ext-health",
        "Numerical-health watchdogs: clean overhead and planted faults (extension)",
        &scale.note(&format!(
            "fig7-derived clean shapes, batch {batch}; faults at fixed seeds"
        )),
        &[
            "case",
            "m",
            "n",
            "incidents",
            "kind",
            "overhead",
            "replayed",
        ],
        "clean watched runs stay green at 0.0% simulated overhead; every planted fault yields \
         exactly one incident whose seed replays it",
    );
    for &(m, n) in &[(8usize, 32usize), (32, 32), (96, 96)] {
        let seed = (m * 100 + n) as u64;
        let (t_off, _) = clean_run(m, n, batch, seed, false);
        let (t_on, incidents) = clean_run(m, n, batch, seed, true);
        let overhead = 100.0 * (t_on - t_off) / t_off;
        rep.push_row(vec![
            "clean".to_string(),
            m.to_string(),
            n.to_string(),
            incidents.to_string(),
            "-".to_string(),
            format!("{overhead:.1}%"),
            "-".to_string(),
        ]);
    }
    for (case, kind, seed, run, m, n) in [
        (
            "planted-nan",
            "non-finite",
            29u64,
            nan_run as fn(u64) -> HealthSink,
            "24",
            "8",
        ),
        ("planted-cap", "not-converged", 43, cap_run, "96", "96"),
        ("killed-shard", "shard-dead", 17, shard_run, "-", "-"),
    ] {
        let (count, seed_out, replayed) = fault_case(kind, seed, run);
        assert_eq!(
            seed_out, seed,
            "{case}: incident must carry the workload seed"
        );
        rep.push_row(vec![
            case.to_string(),
            m.to_string(),
            n.to_string(),
            count.to_string(),
            kind.to_string(),
            "-".to_string(),
            if replayed { "yes" } else { "no" }.to_string(),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_rows_are_green_and_overhead_free() {
        let rep = ext_health(Scale::Reduced);
        let clean: Vec<_> = rep.rows.iter().filter(|r| r[0] == "clean").collect();
        assert_eq!(clean.len(), 3);
        for row in clean {
            assert_eq!(row[3], "0", "clean run must fire no incidents: {row:?}");
            assert_eq!(
                row[5], "0.0%",
                "watched run must not move the simulated clock"
            );
        }
    }

    #[test]
    fn every_planted_fault_fires_once_and_replays() {
        let rep = ext_health(Scale::Reduced);
        let faults: Vec<_> = rep.rows.iter().filter(|r| r[0] != "clean").collect();
        assert_eq!(faults.len(), 3);
        for row in faults {
            assert_eq!(
                row[3], "1",
                "exactly one incident per planted fault: {row:?}"
            );
            assert_eq!(
                row[6], "yes",
                "the embedded seed must replay the fault: {row:?}"
            );
        }
    }
}
