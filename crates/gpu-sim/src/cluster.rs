//! Multi-GPU cluster simulation (the artifact's `test_Cluster` branch).
//!
//! Fig. 14(b) runs the data-assimilation workload on a distributed-memory
//! system of Vega20 GPUs driven by slurm. The model here is data-parallel
//! batch decomposition: each device owns a shard of the batch, devices run
//! independently (makespan = slowest shard), and every collective step pays
//! a latency + bandwidth synchronization cost.
//!
//! The split is static ([`GpuCluster::shard`]): a shard belongs to its rank
//! for the whole run. A rank can be marked dead ([`GpuCluster::kill`]) to
//! exercise the `shard-dead` health incident; nothing moves its work to
//! another rank.

use std::cell::Cell;

use wsvd_health::HealthSink;

use crate::device::DeviceSpec;
use crate::launch::Gpu;
use crate::session::Session;

/// A homogeneous group of simulated GPUs.
///
/// A cluster is driven from one thread: its ranks run their shards one
/// after another on the caller's thread and meet at [`GpuCluster::sync`].
/// So its clocks and kill latches are plain cells and the type is `!Sync`:
///
/// ```compile_fail,E0277
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<wsvd_gpu_sim::GpuCluster>();
/// ```
pub struct GpuCluster {
    gpus: Vec<Gpu>,
    /// Per-collective latency in seconds (network + driver).
    pub sync_latency: f64,
    /// Interconnect bandwidth in bytes/second (per link).
    pub link_bandwidth: f64,
    sync_seconds: Cell<f64>,
    session: Session,
    trace_pid: u32,
    /// Fault-injection state: `killed[r]` marks rank `r` unresponsive;
    /// `dead_reported[r]` latches the health check so one kill produces one
    /// detection even though every later collective re-checks.
    killed: Vec<Cell<bool>>,
    dead_reported: Vec<Cell<bool>>,
}

impl GpuCluster {
    /// Creates `count` devices of the same spec with default interconnect
    /// parameters (25 GB/s links, 30 µs collective latency — IB-class).
    /// Runs under [`Session::current`], labeling each rank's trace tracks.
    pub fn new(device: DeviceSpec, count: usize) -> Self {
        Self::with_session(device, count, Session::current())
    }

    /// Like [`GpuCluster::new`] under an explicit session, shared by the
    /// interconnect and every rank.
    pub fn with_session(device: DeviceSpec, count: usize, session: Session) -> Self {
        assert!(count > 0, "a cluster needs at least one device");
        let trace_pid = session.trace.register_process("cluster interconnect");
        Self {
            gpus: (0..count)
                .map(|r| {
                    Gpu::with_session_named(
                        device,
                        session.clone(),
                        &format!("{} rank {r}", device.name),
                    )
                })
                .collect(),
            sync_latency: 30e-6,
            link_bandwidth: 25e9,
            sync_seconds: Cell::new(0.0),
            session,
            trace_pid,
            killed: vec![Cell::new(false); count],
            dead_reported: vec![Cell::new(false); count],
        }
    }

    /// The health sink shared by the cluster's collectives (disabled by
    /// default).
    pub fn health(&self) -> &HealthSink {
        &self.session.health
    }

    /// Replaces the health sink on the cluster and every rank's GPU.
    pub fn set_health(&mut self, sink: HealthSink) {
        for gpu in &mut self.gpus {
            gpu.set_health(sink.clone());
        }
        self.session.health = sink;
    }

    /// Marks rank `rank` unresponsive (fault injection). The rank's
    /// accumulated time stays in the makespan — a dead shard is a straggler,
    /// not a discount — and the next collective's health check reports it.
    pub fn kill(&self, rank: usize) {
        self.killed[rank].set(true);
    }

    /// True while `rank` has not been killed.
    pub fn is_alive(&self, rank: usize) -> bool {
        !self.killed[rank].get()
    }

    /// Detects killed ranks the way a real collective does — by their
    /// absence at the barrier. Fires one `shard-dead` incident per killed
    /// rank (latched); a no-op with health off. Called from every
    /// [`GpuCluster::sync`]; callers running collective-free phases may also
    /// call it directly.
    pub fn health_check(&self) {
        if !self.session.health.is_enabled() {
            return;
        }
        for (rank, killed) in self.killed.iter().enumerate() {
            if killed.get() && !self.dead_reported[rank].replace(true) {
                self.session.health.shard_dead(rank, self.elapsed_seconds());
            }
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// True if the cluster has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Access to one device.
    pub fn gpu(&self, rank: usize) -> &Gpu {
        &self.gpus[rank]
    }

    /// Splits `items` into contiguous shards, one per device, balancing
    /// counts (the slurm-script decomposition of the artifact).
    pub fn shard<T: Clone>(&self, items: &[T]) -> Vec<Vec<T>> {
        let p = self.gpus.len();
        let base = items.len() / p;
        let extra = items.len() % p;
        let mut shards = Vec::with_capacity(p);
        let mut start = 0;
        for r in 0..p {
            let len = base + usize::from(r < extra);
            shards.push(items[start..start + len].to_vec());
            start += len;
        }
        shards
    }

    /// Records one collective (e.g. the gather of analysis weights):
    /// latency plus `bytes` over the slowest link.
    pub fn sync(&self, bytes: u64) {
        let secs = self.sync_latency + bytes as f64 / self.link_bandwidth;
        self.sync_seconds.set(self.sync_seconds.get() + secs);
        if self.session.trace.is_enabled() {
            self.session.trace.span(
                self.trace_pid,
                "collectives",
                "sync",
                self.elapsed_seconds() - secs,
                secs,
                vec![("bytes", bytes.into())],
            );
        }
        self.health_check();
    }

    /// Total time spent in collectives.
    pub fn elapsed_sync_seconds(&self) -> f64 {
        self.sync_seconds.get()
    }

    /// Data-parallel makespan: slowest device plus the collectives.
    pub fn elapsed_seconds(&self) -> f64 {
        let slowest = self
            .gpus
            .iter()
            .map(|g| g.elapsed_seconds())
            .fold(0.0f64, f64::max);
        slowest + self.elapsed_sync_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::VEGA20;
    use crate::launch::KernelConfig;

    #[test]
    fn shard_balances_counts() {
        let c = GpuCluster::new(VEGA20, 3);
        let shards = c.shard(&(0..10).collect::<Vec<_>>());
        assert_eq!(
            shards.iter().map(|s| s.len()).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let flat: Vec<i32> = shards.concat();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn one_device_shard_is_the_identity_split() {
        // Compat pin: single-device runs must see the whole batch, in
        // order, as one shard.
        let c = GpuCluster::new(VEGA20, 1);
        let items: Vec<usize> = (0..17).collect();
        let shards = c.shard(&items);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], items);
    }

    #[test]
    fn makespan_is_slowest_shard_plus_sync() {
        let c = GpuCluster::new(VEGA20, 2);
        // Load rank 0 only.
        let kc = KernelConfig::new(4, 256, 1024, "work");
        c.gpu(0)
            .launch_collect(kc, |_, ctx| {
                ctx.par_step(100_000, 2);
                Ok(())
            })
            .unwrap();
        let t0 = c.gpu(0).elapsed_seconds();
        assert!(t0 > 0.0);
        c.sync(1_000_000);
        let expect_sync = 30e-6 + 1e6 / 25e9;
        assert!((c.elapsed_seconds() - (t0 + expect_sync)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = GpuCluster::new(VEGA20, 0);
    }

    #[test]
    fn killed_rank_fires_one_shard_dead_incident() {
        let mut c = GpuCluster::new(VEGA20, 4);
        let health = wsvd_health::HealthSink::enabled();
        health.set_context("cluster-test", 7);
        c.set_health(health.clone());
        assert!(c.is_alive(2));
        c.kill(2);
        assert!(!c.is_alive(2));
        assert_eq!(health.incident_count(), 0, "detection waits for a barrier");
        c.sync(1_000);
        c.sync(1_000); // re-checks must not duplicate the incident
        let incidents = health.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, "shard-dead");
        assert!(incidents[0].detail.contains("rank 2"));
    }

    #[test]
    fn health_off_cluster_is_inert() {
        let c = GpuCluster::new(VEGA20, 2);
        assert!(!c.health().is_enabled());
        c.kill(1);
        c.sync(1_000);
        // No sink: nothing recorded, timing identical to the formula.
        let per_call = c.sync_latency + 1_000.0 / c.link_bandwidth;
        assert!((c.elapsed_sync_seconds() - per_call).abs() < 1e-18);
    }

    #[test]
    fn traced_cluster_labels_ranks_and_records_syncs() {
        let sink = wsvd_trace::TraceSink::enabled();
        let session = Session {
            trace: sink.clone(),
            ..Session::default()
        };
        let c = GpuCluster::with_session(VEGA20, 2, session);
        let names: Vec<String> = sink.processes().into_iter().map(|(_, n)| n).collect();
        assert_eq!(
            names,
            vec![
                "cluster interconnect",
                "AMD Vega20 rank 0",
                "AMD Vega20 rank 1"
            ]
        );
        c.sync(25_000_000);
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].track, "collectives");
        match evs[0].kind {
            wsvd_trace::EventKind::Span { dur, .. } => {
                assert!((dur - (30e-6 + 25e6 / 25e9)).abs() < 1e-12)
            }
            ref other => panic!("expected span, got {other:?}"),
        }
    }
}
