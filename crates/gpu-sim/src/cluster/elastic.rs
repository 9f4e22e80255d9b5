//! The elastic executor: pull/steal scheduling over the shared work deque,
//! fault interpretation, bounded-retry recovery, and chunk-granular
//! checkpoint/resume.
//!
//! Execution is a deterministic discrete-event loop over *simulated* time:
//! each iteration advances the alive rank with the smallest clock (lowest
//! rank on ties), which pulls a chunk — requeue pool first, then its home
//! queue, then a steal from the slowest rank's remainder — and runs it via
//! the caller's `runner`. Faults from the [`FaultPlan`] are applied around
//! the pull and the run:
//!
//! * **death detection at pull boundaries** — every pull calls the
//!   cluster's health check, so a rank killed between collectives is
//!   observed at the very next pull, not at the next `sync` (the
//!   barrier-only latch of the static path);
//! * **requeue with bounded retries** — a chunk whose rank dies mid-flight
//!   is discarded (the dead clock rewinds to the kill instant), its retry
//!   counter bumps, and it lands in the requeue pool; a dead rank's
//!   *unclaimed* remainder is drained into the pool at detection;
//! * **checkpoint/resume** — `checkpoint_after: Some(n)` stops the loop
//!   after `n` completed chunks and returns an [`ElasticCheckpoint`]
//!   capturing the full scheduler state (deque snapshot, per-rank clocks,
//!   collective clock, fault cursors, counters, completed payloads).
//!   [`resume_elastic`] restores that state onto a fresh cluster and
//!   continues; because the loop's every decision is a function of the
//!   captured state, the resumed remainder replays the straight-through
//!   schedule bit-for-bit.
//!
//! With an empty fault plan the executor adds *nothing* to simulated time:
//! chunks run back-to-back on their ranks exactly as a static per-rank loop
//! would run them — the strict-no-op contract the repro baselines pin.

use crate::launch::{Gpu, KernelError};

use super::fault::FaultPlan;
use super::queue::{QueueSnapshot, TaskChunk, WorkQueue};
use super::GpuCluster;

/// Recovery accounting of one elastic run (also mirrored onto the metrics
/// registry and trace tracks when those sinks are enabled).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryCounters {
    /// Chunks claimed from another rank's home queue.
    pub stolen_chunks: u64,
    /// Chunks moved to the requeue pool (mid-flight casualties plus a dead
    /// rank's drained remainder).
    pub requeued_chunks: u64,
    /// Mid-flight deaths (each bumps its chunk's retry counter).
    pub retried_chunks: u64,
    /// Chunks abandoned after exceeding
    /// [`FaultPlan::max_retries`](super::FaultPlan::max_retries).
    pub unrecovered_chunks: u64,
    /// Simulated seconds spent re-executing requeued work.
    pub recovery_seconds: f64,
    /// Serialized checkpoint size (set by the caller that serializes).
    pub checkpoint_bytes: u64,
    /// Ranks that died during the run.
    pub killed_ranks: u64,
}

/// Configuration of one elastic run.
#[derive(Clone, Debug, Default)]
pub struct ElasticConfig {
    /// The injected fault schedule (empty = strict no-op scheduling).
    pub faults: FaultPlan,
    /// Stop after this many completed chunks and return a checkpoint
    /// instead of finishing (test/replay hook for checkpoint/resume).
    pub checkpoint_after: Option<usize>,
}

/// Full scheduler state at a chunk boundary — everything `resume_elastic`
/// needs to replay the remainder of the run bit-identically.
#[derive(Clone, Debug)]
pub struct ElasticCheckpoint<T> {
    /// Completed chunks with their payloads, completion order.
    pub completed: Vec<(TaskChunk, T)>,
    /// The work deque (home queues, cursors, requeue pool).
    pub queue: QueueSnapshot,
    /// Per-rank simulated clocks.
    pub rank_seconds: Vec<f64>,
    /// The collective clock.
    pub sync_seconds: f64,
    /// Which ranks were dead at checkpoint time.
    pub killed: Vec<bool>,
    /// Which [`FaultPlan::stalls`] entries had been applied.
    pub stalls_applied: Vec<bool>,
    /// Which [`FaultPlan::kills`] entries had been applied.
    pub kills_applied: Vec<bool>,
    /// Recovery accounting so far.
    pub counters: RecoveryCounters,
}

/// Outcome of an elastic run.
#[derive(Debug)]
pub struct ElasticRun<T> {
    /// Completed chunks with their payloads, completion order.
    pub completed: Vec<(TaskChunk, T)>,
    /// Recovery accounting.
    pub counters: RecoveryCounters,
    /// `Some` when the run stopped at `checkpoint_after` instead of
    /// finishing.
    pub checkpoint: Option<ElasticCheckpoint<T>>,
}

impl<T> ElasticRun<T> {
    /// Payload lookup by original chunk order: `(chunk, payload)` pairs
    /// sorted by chunk id.
    pub fn into_sorted(mut self) -> Vec<(TaskChunk, T)> {
        self.completed.sort_by_key(|(c, _)| c.id);
        self.completed
    }
}

/// Runs `chunks` to completion (or to the configured checkpoint) over the
/// cluster. `runner` executes one chunk on one device and must be a pure
/// function of `(device state, chunk)` — the determinism the checkpoint
/// contract rests on.
pub fn run_elastic<T>(
    cluster: &GpuCluster,
    chunks: Vec<TaskChunk>,
    cfg: &ElasticConfig,
    runner: impl FnMut(&Gpu, &TaskChunk) -> Result<T, KernelError>,
) -> Result<ElasticRun<T>, KernelError> {
    let queue = WorkQueue::new(chunks, cluster.len());
    drive(
        cluster,
        queue,
        Vec::new(),
        vec![false; cfg.faults.stalls.len()],
        vec![false; cfg.faults.kills.len()],
        RecoveryCounters::default(),
        cfg,
        runner,
    )
}

/// Resumes a checkpointed run on a **fresh** cluster of the same size and
/// device: restores clocks, dead ranks and the deque, then continues the
/// deterministic loop. The remainder replays the straight-through schedule
/// exactly, so final payloads, per-rank clocks and counters are
/// bit-identical to a run that was never interrupted.
pub fn resume_elastic<T>(
    cluster: &GpuCluster,
    checkpoint: ElasticCheckpoint<T>,
    cfg: &ElasticConfig,
    runner: impl FnMut(&Gpu, &TaskChunk) -> Result<T, KernelError>,
) -> Result<ElasticRun<T>, KernelError> {
    assert_eq!(
        checkpoint.rank_seconds.len(),
        cluster.len(),
        "checkpoint was taken on a cluster of a different size"
    );
    for (r, &s) in checkpoint.rank_seconds.iter().enumerate() {
        cluster.gpu(r).add_host_seconds(s);
    }
    cluster.restore_sync_seconds(checkpoint.sync_seconds);
    for (r, &dead) in checkpoint.killed.iter().enumerate() {
        if dead {
            cluster.restore_killed(r);
        }
    }
    drive(
        cluster,
        WorkQueue::restore(checkpoint.queue),
        checkpoint.completed,
        checkpoint.stalls_applied,
        checkpoint.kills_applied,
        checkpoint.counters,
        cfg,
        runner,
    )
}

#[allow(clippy::too_many_arguments)]
fn drive<T>(
    cluster: &GpuCluster,
    queue: WorkQueue,
    mut completed: Vec<(TaskChunk, T)>,
    mut stalls_applied: Vec<bool>,
    mut kills_applied: Vec<bool>,
    mut counters: RecoveryCounters,
    cfg: &ElasticConfig,
    mut runner: impl FnMut(&Gpu, &TaskChunk) -> Result<T, KernelError>,
) -> Result<ElasticRun<T>, KernelError> {
    let faults = &cfg.faults;
    let health = cluster.health().clone();
    let trace = cluster.session.trace.clone();
    let pid = cluster.trace_pid;
    let metrics = cluster.gpu(0).metrics().clone();
    loop {
        // Death bookkeeping first: a dead rank's unclaimed remainder moves
        // to the requeue pool (idempotent — drained queues stay empty, so a
        // resumed run never re-drains or double-counts).
        for r in 0..cluster.len() {
            if cluster.is_alive(r) {
                continue;
            }
            for chunk in queue.drain_rank(r) {
                counters.requeued_chunks += 1;
                if health.is_enabled() {
                    health.chunk_requeued(r, chunk.id, cluster.elapsed_seconds());
                }
                if trace.is_enabled() {
                    trace.instant(
                        pid,
                        "elastic",
                        "requeue",
                        cluster.elapsed_seconds(),
                        vec![("rank", r.into()), ("chunk", chunk.id.into())],
                    );
                }
                if metrics.is_enabled() {
                    metrics.counter_add("cluster", None, "requeued_chunks", 1.0);
                }
                queue.push_requeue(chunk);
            }
        }
        if queue.total_remaining() == 0 {
            break;
        }
        // The alive rank with the smallest clock pulls next, lowest rank on
        // ties — the discrete-event step of the simulated schedule. The
        // comparison is `total_cmp` with an explicit rank-index tiebreak:
        // `partial_cmp` would make the victim of a NaN-poisoned clock (or a
        // tie under a future unstable selection) silently arbitrary, and the
        // pull order is exactly what checkpoint/resume bit-identity replays.
        let Some(rank) = (0..cluster.len())
            .filter(|&r| cluster.is_alive(r))
            .min_by(|&a, &b| {
                cluster
                    .gpu(a)
                    .elapsed_seconds()
                    .total_cmp(&cluster.gpu(b).elapsed_seconds())
                    .then_with(|| a.cmp(&b))
            })
        else {
            // The error path drops `counters` with the run; the abandoned
            // work is ledgered in the session's tally instead (what
            // `--cluster-faults` gates on).
            let left = queue.total_remaining() as u64;
            cluster.session.tally.add_unrecovered(left);
            return Err(KernelError::Other(format!(
                "elastic cluster: every cluster rank is dead with {left} chunk(s) unrecovered"
            )));
        };
        let gpu = cluster.gpu(rank);
        // Pull-boundary fault processing: pending kills whose time has come
        // land *before* the pull (the rank died idle), and the health check
        // observes any dead rank now — not at the next collective barrier.
        for (i, k) in faults.kills.iter().enumerate() {
            if !kills_applied[i] && k.rank == rank && gpu.elapsed_seconds() >= k.at_seconds {
                kills_applied[i] = true;
                counters.killed_ranks += 1;
                cluster.kill(rank);
            }
        }
        cluster.health_check();
        if !cluster.is_alive(rank) {
            continue; // next iteration drains this rank's remainder
        }
        for (i, st) in faults.stalls.iter().enumerate() {
            if !stalls_applied[i] && st.rank == rank && gpu.elapsed_seconds() >= st.at_seconds {
                stalls_applied[i] = true;
                gpu.add_host_seconds(st.seconds);
                if trace.is_enabled() {
                    trace.instant(
                        pid,
                        "elastic",
                        "stall",
                        gpu.elapsed_seconds(),
                        vec![("rank", rank.into()), ("seconds", st.seconds.into())],
                    );
                }
            }
        }
        // Pull: requeue pool, own queue, steal — in that order.
        let (chunk, stolen_from) = if let Some(c) = queue.pop_requeue() {
            (c, None)
        } else if let Some(c) = queue.pop_own(rank) {
            (c, None)
        } else if let Some((victim, c)) = queue.steal(rank) {
            (c, Some(victim))
        } else {
            // Unreachable in the single-driver loop: total_remaining() > 0
            // implies one of the three sources has work (dead ranks were
            // drained above). Defensive break rather than a spin.
            break;
        };
        if health.is_enabled() {
            health.chunk_pulled(rank, chunk.id, gpu.elapsed_seconds());
        }
        if let Some(victim) = stolen_from {
            counters.stolen_chunks += 1;
            if health.is_enabled() {
                health.chunk_stolen(rank, victim, chunk.id, gpu.elapsed_seconds());
            }
            if trace.is_enabled() {
                trace.instant(
                    pid,
                    "elastic",
                    "steal",
                    gpu.elapsed_seconds(),
                    vec![
                        ("thief", rank.into()),
                        ("victim", victim.into()),
                        ("chunk", chunk.id.into()),
                    ],
                );
            }
            if metrics.is_enabled() {
                metrics.counter_add("cluster", None, "stolen_chunks", 1.0);
            }
        }
        let t0 = gpu.elapsed_seconds();
        let result = runner(gpu, &chunk)?;
        let factor = faults.straggler_factor(rank);
        if factor != 1.0 {
            // Charged as signed host seconds so an exact 1.0 adds nothing
            // and the no-fault run stays bit-identical.
            gpu.add_host_seconds((factor - 1.0) * (gpu.elapsed_seconds() - t0));
        }
        let t1 = gpu.elapsed_seconds();
        // Mid-flight death: the kill instant fell inside this chunk's
        // execution window. The work after the instant never happened —
        // rewind the clock, discard the result, requeue the chunk.
        let mut died = false;
        for (i, k) in faults.kills.iter().enumerate() {
            if !kills_applied[i]
                && k.rank == rank
                && t0 < k.at_seconds
                && k.at_seconds <= t1
                && cluster.is_alive(rank)
            {
                kills_applied[i] = true;
                counters.killed_ranks += 1;
                gpu.add_host_seconds(k.at_seconds - t1);
                cluster.kill(rank);
                died = true;
                break;
            }
        }
        if died {
            drop(result);
            let mut chunk = chunk;
            chunk.retries += 1;
            counters.retried_chunks += 1;
            if chunk.retries > faults.max_retries {
                cluster.session.tally.add_unrecovered(1);
                return Err(KernelError::Other(format!(
                    "elastic cluster: chunk {} unrecovered after {} attempt(s)",
                    chunk.id, chunk.retries
                )));
            }
            counters.requeued_chunks += 1;
            if health.is_enabled() {
                health.chunk_requeued(rank, chunk.id, cluster.elapsed_seconds());
            }
            if trace.is_enabled() {
                trace.instant(
                    pid,
                    "elastic",
                    "requeue",
                    cluster.elapsed_seconds(),
                    vec![("rank", rank.into()), ("chunk", chunk.id.into())],
                );
            }
            if metrics.is_enabled() {
                metrics.counter_add("cluster", None, "requeued_chunks", 1.0);
            }
            queue.push_requeue(chunk);
            continue;
        }
        if chunk.requeued {
            counters.recovery_seconds += t1 - t0;
        }
        completed.push((chunk, result));
        if cfg.checkpoint_after == Some(completed.len()) {
            let checkpoint = ElasticCheckpoint {
                queue: queue.snapshot(),
                rank_seconds: cluster.rank_seconds(),
                sync_seconds: cluster.elapsed_sync_seconds(),
                killed: (0..cluster.len()).map(|r| !cluster.is_alive(r)).collect(),
                stalls_applied,
                kills_applied,
                counters: counters.clone(),
                completed,
            };
            return Ok(ElasticRun {
                completed: Vec::new(),
                counters,
                checkpoint: Some(checkpoint),
            });
        }
    }
    // Recovery outcome: every dead rank whose orphaned work was absorbed is
    // *recovered* — its latched shard-dead incident flips `recovered: true`.
    if counters.unrecovered_chunks == 0 && health.is_enabled() {
        for r in 0..cluster.len() {
            if !cluster.is_alive(r) {
                health.shard_recovered(r, cluster.elapsed_seconds());
            }
        }
    }
    if metrics.is_enabled() {
        metrics.gauge_set(
            "cluster",
            None,
            "recovery_seconds",
            counters.recovery_seconds,
        );
        metrics.gauge_set(
            "cluster",
            None,
            "killed_ranks",
            counters.killed_ranks as f64,
        );
    }
    Ok(ElasticRun {
        completed,
        counters,
        checkpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::queue::{size_class_chunks, DEFAULT_SIZE_CLASS_CAPS};
    use crate::device::VEGA20;
    use crate::launch::KernelConfig;

    /// A runner whose simulated cost scales with the chunk's index count.
    fn work(gpu: &Gpu, chunk: &TaskChunk) -> Result<Vec<usize>, KernelError> {
        let kc = KernelConfig::new(chunk.indices.len(), 256, 1024, "chunk");
        gpu.launch_collect(kc, |_, ctx| {
            ctx.par_step(20_000, 2);
            Ok(())
        })?;
        Ok(chunk.indices.clone())
    }

    fn chunks(points: usize, ranks: usize, target: usize) -> Vec<TaskChunk> {
        let dims: Vec<(usize, usize)> = (0..points).map(|k| (16 + k, 16 + k)).collect();
        size_class_chunks(&dims, &DEFAULT_SIZE_CLASS_CAPS, ranks, target)
    }

    fn covered(run: &ElasticRun<Vec<usize>>) -> Vec<usize> {
        let mut all: Vec<usize> = run
            .completed
            .iter()
            .flat_map(|(_, idx)| idx.clone())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn no_fault_elastic_run_matches_static_per_rank_timing() {
        // Strict no-op: with an empty fault plan, each rank's clock equals a
        // static loop running exactly its pulled chunks back-to-back.
        let points = 12;
        let cl = GpuCluster::new(VEGA20, 3);
        let cs = chunks(points, 3, 2);
        let run = run_elastic(&cl, cs.clone(), &ElasticConfig::default(), work).unwrap();
        assert_eq!(covered(&run), (0..points).collect::<Vec<_>>());
        assert_eq!(run.counters, RecoveryCounters::default());

        let by_rank: Vec<Vec<&TaskChunk>> = (0..3)
            .map(|r| {
                run.completed
                    .iter()
                    .map(|(c, _)| c)
                    .filter(|c| c.home_rank == r)
                    .collect()
            })
            .collect();
        let static_cl = GpuCluster::new(VEGA20, 3);
        for (r, list) in by_rank.iter().enumerate() {
            for c in list {
                work(static_cl.gpu(r), c).unwrap();
            }
        }
        for r in 0..3 {
            assert_eq!(
                cl.gpu(r).elapsed_seconds().to_bits(),
                static_cl.gpu(r).elapsed_seconds().to_bits(),
                "rank {r} clock must be bit-identical to the static schedule"
            );
        }
    }

    #[test]
    fn tied_clocks_pull_in_rank_order_deterministically() {
        // At the first pull every clock reads exactly 0.0 — a three-way tie.
        // The selection must break ties by rank index: ranks 0, 1, 2 pull
        // their first home chunks in that order, and the whole schedule
        // (completion order and per-rank clocks) replays bit-identically.
        let run_once = || {
            let cl = GpuCluster::new(VEGA20, 3);
            let run = run_elastic(&cl, chunks(9, 3, 1), &ElasticConfig::default(), work).unwrap();
            let clocks: Vec<u64> = (0..3)
                .map(|r| cl.gpu(r).elapsed_seconds().to_bits())
                .collect();
            let order: Vec<usize> = run.completed.iter().map(|(c, _)| c.id).collect();
            (order, clocks, run)
        };
        let (order_a, clocks_a, run_a) = run_once();
        let first_pullers: Vec<usize> = run_a.completed[..3]
            .iter()
            .map(|(c, _)| c.home_rank)
            .collect();
        assert_eq!(
            first_pullers,
            vec![0, 1, 2],
            "tied clocks must resolve to the lowest rank first"
        );
        let (order_b, clocks_b, _) = run_once();
        assert_eq!(order_a, order_b, "completion order must be deterministic");
        assert_eq!(clocks_a, clocks_b, "per-rank clocks must replay exactly");
    }

    #[test]
    fn steal_beats_static_sharding_under_a_straggler() {
        let points = 16;
        let faulty = ElasticConfig {
            faults: FaultPlan::none().straggler(0, 2.0),
            ..Default::default()
        };
        let cl = GpuCluster::new(VEGA20, 4);
        let run = run_elastic(&cl, chunks(points, 4, 1), &faulty, work).unwrap();
        assert!(run.counters.stolen_chunks > 0, "idle ranks must steal");
        let elastic_makespan = cl.elapsed_seconds();

        // Static: each rank runs its home chunks; rank 0 then pays 2x.
        let st = GpuCluster::new(VEGA20, 4);
        for c in &chunks(points, 4, 1) {
            work(st.gpu(c.home_rank), c).unwrap();
        }
        let slow = st.gpu(0).elapsed_seconds();
        st.gpu(0).add_host_seconds(slow); // 2x straggler on the whole shard
        assert!(
            elastic_makespan < st.elapsed_seconds(),
            "stealing must strictly shrink the straggler makespan: {elastic_makespan} vs {}",
            st.elapsed_seconds()
        );
    }

    #[test]
    fn kill_between_barriers_is_detected_at_the_next_pull() {
        // Regression (satellite 2): no `sync` happens anywhere in this run,
        // yet the kill is still observed — at a chunk-pull boundary.
        let sink = wsvd_health::HealthSink::enabled();
        sink.set_context("pull-detect", 1);
        let mut cl = GpuCluster::new(VEGA20, 2);
        cl.set_health(sink.clone());
        let cfg = ElasticConfig {
            faults: FaultPlan::none().kill(1, 1e-9),
            ..Default::default()
        };
        let run = run_elastic(&cl, chunks(8, 2, 1), &cfg, work).unwrap();
        assert_eq!(covered(&run), (0..8).collect::<Vec<_>>());
        let incidents = sink.incidents();
        assert_eq!(incidents.len(), 1, "{incidents:?}");
        assert_eq!(incidents[0].kind, "shard-dead");
        assert!(
            incidents[0].recovered,
            "requeued work completed, so the incident must be marked recovered"
        );
        assert!(run.counters.requeued_chunks > 0);
        assert_eq!(run.counters.killed_ranks, 1);
    }

    #[test]
    fn mid_chunk_kill_rewinds_the_clock_and_requeues() {
        // Let rank 0 run one chunk cleanly, then kill it mid-second-chunk.
        let cl = GpuCluster::new(VEGA20, 1);
        let probe = chunks(2, 1, 1);
        work(cl.gpu(0), &probe[0]).unwrap();
        let one = cl.gpu(0).elapsed_seconds();
        drop(cl);

        let cl = GpuCluster::new(VEGA20, 2);
        let kill_at = 1.5 * one; // mid-flight in rank 0's second chunk
        let cfg = ElasticConfig {
            faults: FaultPlan::none().kill(0, kill_at),
            ..Default::default()
        };
        let run = run_elastic(&cl, chunks(6, 2, 1), &cfg, work).unwrap();
        assert_eq!(covered(&run), (0..6).collect::<Vec<_>>());
        assert_eq!(run.counters.retried_chunks, 1, "{:?}", run.counters);
        assert!(run.counters.requeued_chunks >= 1);
        assert!(run.counters.recovery_seconds > 0.0);
        assert_eq!(
            cl.gpu(0).elapsed_seconds().to_bits(),
            kill_at.to_bits(),
            "a dead rank's clock stops exactly at the kill instant"
        );
    }

    #[test]
    fn retry_exhaustion_is_an_error_and_ledgered() {
        // Two kills aimed at whichever rank retries the poisoned chunk:
        // with max_retries = 0 the first mid-flight death is fatal.
        let cl = GpuCluster::new(VEGA20, 1);
        let probe = chunks(1, 1, 1);
        work(cl.gpu(0), &probe[0]).unwrap();
        let one = cl.gpu(0).elapsed_seconds();
        drop(cl);

        let cl = GpuCluster::new(VEGA20, 1);
        let mut faults = FaultPlan::none().kill(0, 0.5 * one);
        faults.max_retries = 0;
        let cfg = ElasticConfig {
            faults,
            ..Default::default()
        };
        let err = run_elastic(&cl, chunks(1, 1, 1), &cfg, work).unwrap_err();
        assert!(format!("{err}").contains("unrecovered"), "{err}");
        assert_eq!(cl.session.tally.unrecovered(), 1);
    }

    #[test]
    fn all_ranks_dead_with_work_left_is_an_error() {
        let cl = GpuCluster::new(VEGA20, 2);
        let cfg = ElasticConfig {
            faults: FaultPlan::none().kill(0, 1e-12).kill(1, 1e-12),
            ..Default::default()
        };
        let err = run_elastic(&cl, chunks(4, 2, 1), &cfg, work).unwrap_err();
        assert!(
            format!("{err}").contains("every cluster rank is dead"),
            "{err}"
        );
    }

    #[test]
    fn stall_charges_dead_time_once_at_a_pull_boundary() {
        let cfg = ElasticConfig {
            faults: FaultPlan::none().stall(0, 0.0, 0.25),
            ..Default::default()
        };
        let cl = GpuCluster::new(VEGA20, 1);
        let run = run_elastic(&cl, chunks(3, 1, 1), &cfg, work).unwrap();
        assert_eq!(run.completed.len(), 3);
        let clean = GpuCluster::new(VEGA20, 1);
        run_elastic(&clean, chunks(3, 1, 1), &ElasticConfig::default(), work).unwrap();
        let delta = cl.gpu(0).elapsed_seconds() - clean.gpu(0).elapsed_seconds();
        assert!(
            (delta - 0.25).abs() < 1e-12,
            "stall must charge exactly once: delta {delta}"
        );
    }

    #[test]
    fn checkpoint_resume_replays_the_straight_through_run_bit_identically() {
        let points = 10;
        let cfg = ElasticConfig {
            faults: FaultPlan::none().straggler(1, 2.0),
            ..Default::default()
        };
        // Straight-through reference.
        let straight = GpuCluster::new(VEGA20, 2);
        let want = run_elastic(&straight, chunks(points, 2, 1), &cfg, work).unwrap();

        // Interrupted at chunk 4, resumed on a fresh cluster.
        let first = GpuCluster::new(VEGA20, 2);
        let half = ElasticConfig {
            checkpoint_after: Some(4),
            ..cfg.clone()
        };
        let ckpt = run_elastic(&first, chunks(points, 2, 1), &half, work)
            .unwrap()
            .checkpoint
            .expect("run must stop at the checkpoint");
        let second = GpuCluster::new(VEGA20, 2);
        let got = resume_elastic(&second, ckpt, &cfg, work).unwrap();

        assert_eq!(
            want.completed.iter().map(|(c, _)| c.id).collect::<Vec<_>>(),
            got.completed.iter().map(|(c, _)| c.id).collect::<Vec<_>>(),
            "completion order must replay exactly"
        );
        assert_eq!(want.counters, got.counters);
        for r in 0..2 {
            assert_eq!(
                straight.gpu(r).elapsed_seconds().to_bits(),
                second.gpu(r).elapsed_seconds().to_bits(),
                "rank {r} clock must resume bit-identically"
            );
        }
    }
}
