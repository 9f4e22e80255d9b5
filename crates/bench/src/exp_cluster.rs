//! `ext-cluster` — elastic multi-GPU execution (extension).
//!
//! Scaling efficiency of the data-assimilation analysis step at 1/4/16
//! simulated GPUs under the elastic work-queue executor, with and without
//! injected faults:
//!
//! * **static / elastic clean** — the pinned contiguous-shard schedule vs
//!   the size-class work deque with stealing. On a balanced mixture the two
//!   land within noise of each other; the elastic rows additionally report
//!   the recovery counters (all zero on a clean run except steals, which
//!   idle ranks perform even without faults).
//! * **straggler rows** — one rank runs 2x slow. The static schedule eats
//!   the whole slowdown on the straggler's shard; the elastic schedule lets
//!   idle ranks steal the straggler's remainder, strictly shrinking the
//!   makespan at 4 and 16 GPUs (checked by the `steal-win` column).
//! * **kill row** — a rank dies mid-batch; its queued and in-flight chunks
//!   requeue onto the survivors. The analysis weights are **bit-identical**
//!   to the clean elastic run (chunks are deterministic, so where/when a
//!   chunk runs cannot perturb it) — the `identical` column asserts it.
//! * **resume row** — the killed run is additionally checkpointed after a
//!   few chunks, serialized to JSON, thawed, and resumed on a fresh
//!   cluster; weights *and the simulated clock* must replay bit-identically
//!   against the straight-through killed run.
//!
//! The grid points run under the serial MAGMA engine, deliberately: in the
//! simulator that engine is compute-bound, so a rank's clock is proportional
//! to the work it was assigned and scheduling effects (stealing, stragglers,
//! requeues) are visible in the makespan. The batched W-cycle at reduced
//! scale is launch-bound — a quarter batch costs nearly as much as the full
//! batch — which would mask exactly the effects this experiment measures
//! (the same regime note as `fig14b`'s scaling test). The W-cycle's own
//! checkpointed sweep state is exercised by the assimilation unit tests and
//! the `cluster_integration` suite instead.
//!
//! Faults are scenery here, exactly as in `ext-health`: every scenario
//! builds a local [`HealthSink`](wsvd_health::HealthSink) so planted kills
//! do not trip `repro --health`'s non-zero exit.

use wsvd_apps::assimilation::{
    analysis_resume_elastic_with, analysis_step_distributed_with, analysis_step_elastic_with,
    AssimilationProblem, SvdEngine,
};
use wsvd_core::{RunCheckpoint, WCycleConfig};
use wsvd_gpu_sim::cluster::{ElasticConfig, FaultPlan};
use wsvd_gpu_sim::{GpuCluster, VEGA20};
use wsvd_health::HealthSink;

use crate::report::{fmt_secs, Report};
use crate::scale::Scale;

/// Workload seed for the assimilation mixture (stamped into checkpoints).
const SEED: u64 = 4747;

/// One elastic scenario run on a fresh cluster with a local health sink.
struct ScenarioOut {
    makespan: f64,
    efficiency: f64,
    weights: Vec<Vec<f64>>,
    counters: wsvd_gpu_sim::cluster::RecoveryCounters,
    checkpoint: Option<RunCheckpoint>,
    recovered_incidents: usize,
}

fn elastic_run(problem: &AssimilationProblem, gpus: usize, ecfg: &ElasticConfig) -> ScenarioOut {
    let sink = HealthSink::enabled();
    sink.set_context("ext-cluster", SEED);
    let mut cluster = GpuCluster::new(VEGA20, gpus);
    cluster.set_health(sink.clone());
    let run = analysis_step_elastic_with(
        &cluster,
        problem,
        SvdEngine::Magma,
        &WCycleConfig::default(),
        ecfg,
        SEED,
    )
    .unwrap();
    ScenarioOut {
        makespan: cluster.elapsed_seconds(),
        efficiency: cluster.parallel_efficiency(),
        weights: run.result.weights,
        counters: run.counters,
        checkpoint: run.checkpoint,
        recovered_incidents: sink.incidents().iter().filter(|i| i.recovered).count(),
    }
}

/// The static contiguous-shard schedule under an optional straggler: each
/// rank runs its own shard, then the straggler's clock is scaled by the
/// slowdown factor (the static schedule has no way to shed the load).
fn static_run(
    problem: &AssimilationProblem,
    gpus: usize,
    straggler: Option<(usize, f64)>,
) -> (f64, f64) {
    let cluster = GpuCluster::new(VEGA20, gpus);
    analysis_step_distributed_with(
        &cluster,
        problem,
        SvdEngine::Magma,
        &WCycleConfig::default(),
    )
    .unwrap();
    if let Some((rank, factor)) = straggler {
        let gpu = cluster.gpu(rank);
        gpu.add_host_seconds((factor - 1.0) * gpu.elapsed_seconds());
    }
    (cluster.elapsed_seconds(), cluster.parallel_efficiency())
}

/// The `ext-cluster` experiment (see the module docs for the row contract).
pub fn ext_cluster(scale: Scale) -> Report {
    // Enough points that even at 16 ranks the straggler holds several
    // chunks — a one-chunk queue leaves nothing to steal.
    let points = scale.pick(48usize, 96);
    let (min_dim, max_dim) = scale.pick((12usize, 40usize), (50, 256));
    let problem = AssimilationProblem::generate(points, min_dim, max_dim, SEED);
    let mut rep = Report::new(
        "ext-cluster",
        "Elastic multi-GPU execution: work stealing, faults, checkpoint/resume (extension)",
        &scale.note(&format!(
            "assimilation mixture, {points} points of {min_dim}..{max_dim}; straggler 2x; \
             kill at 30% of the clean makespan"
        )),
        &[
            "gpus",
            "scenario",
            "makespan",
            "efficiency",
            "stolen",
            "requeued",
            "recovered",
            "ckpt-bytes",
            "steal-win",
            "identical",
        ],
        "stealing strictly beats static sharding under a 2x straggler at 4 and 16 GPUs; a \
         mid-batch kill and a killed-then-resumed run both reproduce the clean analysis \
         weights bit-identically",
    );
    let mut push = |gpus: usize,
                    scenario: &str,
                    makespan: f64,
                    eff: f64,
                    s: &wsvd_gpu_sim::cluster::RecoveryCounters,
                    recovered: usize,
                    steal_win: &str,
                    identical: &str| {
        rep.push_row(vec![
            gpus.to_string(),
            scenario.to_string(),
            fmt_secs(makespan),
            format!("{:.2}", eff),
            s.stolen_chunks.to_string(),
            s.requeued_chunks.to_string(),
            recovered.to_string(),
            s.checkpoint_bytes.to_string(),
            steal_win.to_string(),
            identical.to_string(),
        ]);
    };
    let zero = wsvd_gpu_sim::cluster::RecoveryCounters::default();
    for &gpus in &[1usize, 4, 16] {
        // -- clean ---------------------------------------------------------
        let (static_clean, static_eff) = static_run(&problem, gpus, None);
        push(
            gpus,
            "static-clean",
            static_clean,
            static_eff,
            &zero,
            0,
            "-",
            "-",
        );
        let clean = elastic_run(&problem, gpus, &ElasticConfig::default());
        assert_eq!(clean.counters.requeued_chunks, 0);
        push(
            gpus,
            "elastic-clean",
            clean.makespan,
            clean.efficiency,
            &clean.counters,
            clean.recovered_incidents,
            "-",
            "-",
        );
        // -- straggler -----------------------------------------------------
        let straggle = FaultPlan::none().straggler(0, 2.0);
        let (static_slow, slow_eff) = static_run(&problem, gpus, Some((0, 2.0)));
        push(
            gpus,
            "static-straggler",
            static_slow,
            slow_eff,
            &zero,
            0,
            "-",
            "-",
        );
        let slow = elastic_run(
            &problem,
            gpus,
            &ElasticConfig {
                faults: straggle.clone(),
                checkpoint_after: None,
            },
        );
        let steal_win = if gpus == 1 {
            // One rank: there is nobody to steal from, so parity is the
            // contract, not a win.
            "n/a"
        } else if slow.makespan < static_slow {
            "yes"
        } else {
            "NO"
        };
        push(
            gpus,
            "elastic-straggler",
            slow.makespan,
            slow.efficiency,
            &slow.counters,
            slow.recovered_incidents,
            steal_win,
            "-",
        );
        if gpus == 1 {
            continue; // killing the only rank is unrecoverable by definition
        }
        // -- mid-batch kill ------------------------------------------------
        let kill_at = 0.3 * clean.makespan;
        let kill_plan = FaultPlan::none().kill(1, kill_at);
        let killed = elastic_run(
            &problem,
            gpus,
            &ElasticConfig {
                faults: kill_plan.clone(),
                checkpoint_after: None,
            },
        );
        let identical = if killed.weights == clean.weights {
            "yes"
        } else {
            "NO"
        };
        push(
            gpus,
            "elastic-kill",
            killed.makespan,
            killed.efficiency,
            &killed.counters,
            killed.recovered_incidents,
            "-",
            identical,
        );
        // -- checkpoint / resume -------------------------------------------
        let interrupted = elastic_run(
            &problem,
            gpus,
            &ElasticConfig {
                faults: kill_plan.clone(),
                checkpoint_after: Some(3),
            },
        );
        let frozen = interrupted.checkpoint.expect("checkpoint requested");
        let json = frozen.to_json();
        let sink = HealthSink::enabled();
        sink.set_context("ext-cluster", SEED);
        let mut cluster = GpuCluster::new(VEGA20, gpus);
        cluster.set_health(sink.clone());
        let resumed = analysis_resume_elastic_with(
            &cluster,
            &problem,
            SvdEngine::Magma,
            &WCycleConfig::default(),
            &ElasticConfig {
                faults: kill_plan,
                checkpoint_after: None,
            },
            RunCheckpoint::from_json(&json).unwrap(),
        )
        .unwrap();
        let resumed_makespan = cluster.elapsed_seconds();
        let identical = if resumed.result.weights == killed.weights
            && resumed_makespan.to_bits() == killed.makespan.to_bits()
        {
            "yes"
        } else {
            "NO"
        };
        let mut counters = resumed.counters;
        counters.checkpoint_bytes = json.len() as u64;
        push(
            gpus,
            "resume",
            resumed_makespan,
            cluster.parallel_efficiency(),
            &counters,
            sink.incidents().iter().filter(|i| i.recovered).count(),
            "-",
            identical,
        );
    }
    // Surface the recovery story on the metrics registry when it is live
    // (`repro --bench-out` / `--report`); a disabled sink ignores this.
    let metrics = wsvd_gpu_sim::Session::current().metrics;
    if metrics.is_enabled() {
        for row in &rep.rows {
            if row[7] != "0" && row[7] != "-" {
                metrics.gauge_set("cluster", None, "checkpoint_bytes", row[7].parse().unwrap());
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_strictly_beats_static_under_a_straggler() {
        let rep = ext_cluster(Scale::Reduced);
        let wins: Vec<_> = rep
            .rows
            .iter()
            .filter(|r| r[1] == "elastic-straggler" && r[0] != "1")
            .collect();
        assert_eq!(wins.len(), 2, "4- and 16-GPU straggler rows");
        for row in wins {
            assert_eq!(
                row[8], "yes",
                "stealing must win at {} GPUs: {row:?}",
                row[0]
            );
            assert!(
                row[4].parse::<u64>().unwrap() > 0,
                "steals happened: {row:?}"
            );
        }
    }

    #[test]
    fn kill_and_resume_rows_are_bit_identical_and_recovered() {
        let rep = ext_cluster(Scale::Reduced);
        let checked: Vec<_> = rep
            .rows
            .iter()
            .filter(|r| r[1] == "elastic-kill" || r[1] == "resume")
            .collect();
        assert_eq!(checked.len(), 4, "kill+resume at 4 and 16 GPUs");
        for row in checked {
            assert_eq!(row[9], "yes", "bit-identity must hold: {row:?}");
            assert!(
                row[6].parse::<usize>().unwrap() >= 1,
                "the shard-dead incident must be marked recovered: {row:?}"
            );
            if row[1] == "elastic-kill" {
                assert!(
                    row[5].parse::<u64>().unwrap() > 0,
                    "a mid-batch kill must requeue work: {row:?}"
                );
            }
        }
    }

    #[test]
    fn resume_rows_report_the_checkpoint_size() {
        let rep = ext_cluster(Scale::Reduced);
        for row in rep.rows.iter().filter(|r| r[1] == "resume") {
            assert!(row[7].parse::<u64>().unwrap() > 0, "{row:?}");
        }
    }
}
