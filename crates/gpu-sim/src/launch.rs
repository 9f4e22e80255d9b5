//! Kernel launch machinery: block contexts, parallel execution, and the
//! timing model that converts counters into simulated time.
//!
//! A launch executes its blocks on the host's block-worker pool (the
//! simulator's stand-in for SM scheduling), all of one owner's blocks on one
//! host thread when the launch names owners. Each block records work/span
//! and memory counters into a [`BlockCounters`]; afterwards a list
//! scheduler places the block durations onto the device's resident-block
//! slots and the makespan becomes the simulated kernel time. Wall-clock never enters the model, so results are
//! deterministic and machine-independent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;
use wsvd_health::HealthSink;
use wsvd_metrics::MetricsSink;
use wsvd_trace::TraceSink;

use crate::counters::{BlockCounters, LaunchStats, Timeline};
use crate::device::DeviceSpec;
use crate::graph::{GraphState, GraphStats, LaunchGraph};
use crate::sanitize::{BlockSanitizeOutcome, HazardTracker, SanitizeMode, SanitizerReport};
use crate::session::{Session, Tally};
use crate::smem::{SharedMem, SmemBuf, SmemOverflow};
use crate::stream::{Footprint, Interval};

/// Per-block fixed cost (scheduling, prologue/epilogue), in cycles.
const BLOCK_OVERHEAD_CYCLES: f64 = 200.0;

/// Upper bound on per-SM-slot lanes emitted into a trace. Wide launches can
/// occupy thousands of slots; tracing every one would swamp the viewer, so
/// placements beyond this many slots are aggregated into the kernel span.
const MAX_TRACED_SLOTS: usize = 32;

/// Fixed occupancy histogram buckets (fractions of peak resident threads)
/// used by the per-launch `occupancy` histogram in the metrics registry.
/// Fixed bounds keep snapshots comparable across runs and devices.
pub const OCCUPANCY_BUCKETS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// Error raised by a simulated kernel block.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelError {
    /// A shared-memory allocation exceeded block capacity.
    Smem(SmemOverflow),
    /// Any other kernel failure.
    Other(String),
}

impl From<SmemOverflow> for KernelError {
    fn from(e: SmemOverflow) -> Self {
        KernelError::Smem(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Smem(e) => write!(f, "{e}"),
            KernelError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Launch geometry and resource request for one kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Number of thread blocks.
    pub grid: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Shared memory requested per block, in bytes. Must not exceed the
    /// device's static per-block capacity.
    pub smem_bytes_per_block: usize,
    /// Whether the kernel's FMAs may use tensor cores (GEMM kernels on A100).
    pub uses_tensor_cores: bool,
    /// Human-readable kernel name for diagnostics.
    pub label: &'static str,
}

impl KernelConfig {
    /// Convenience constructor with no tensor cores.
    pub fn new(
        grid: usize,
        threads_per_block: usize,
        smem_bytes_per_block: usize,
        label: &'static str,
    ) -> Self {
        Self {
            grid,
            threads_per_block,
            smem_bytes_per_block,
            uses_tensor_cores: false,
            label,
        }
    }
}

/// What one retired block hands back to the launch machinery: its counters,
/// the sanitizer's findings (when enabled), and the first non-finite value
/// the health guard saw (when health is on).
type BlockOutput = (BlockCounters, Option<BlockSanitizeOutcome>, Option<String>);

/// Execution context handed to each simulated thread block.
pub struct BlockCtx {
    smem: SharedMem,
    counters: BlockCounters,
    threads: usize,
    warp_size: usize,
    tx_bytes: usize,
    sanitizer: Option<HazardTracker>,
    finite_guard: bool,
    nonfinite: Option<String>,
}

impl BlockCtx {
    fn new(
        device: &DeviceSpec,
        cfg: &KernelConfig,
        sanitize: SanitizeMode,
        finite_guard: bool,
    ) -> Self {
        Self {
            smem: SharedMem::new(cfg.smem_bytes_per_block),
            counters: BlockCounters::default(),
            threads: cfg.threads_per_block,
            warp_size: device.warp_size,
            tx_bytes: device.gm_transaction_bytes,
            sanitizer: sanitize.is_on().then(HazardTracker::new),
            finite_guard,
            nonfinite: None,
        }
    }

    /// Kernel-boundary NaN/Inf check on `values` (typically a block's output
    /// buffer). No-op unless the GPU's health sink is enabled, so the guard
    /// costs one branch in normal runs and never touches the timing model.
    /// Only the first offense per block is kept.
    pub fn guard_finite(&mut self, values: &[f64]) {
        self.guard_finite_parts([values]);
    }

    /// [`BlockCtx::guard_finite`] on values held in pieces (e.g. the column
    /// slices of a row range), numbered consecutively across the pieces as
    /// if they were one slice.
    pub fn guard_finite_parts<'a>(&mut self, parts: impl IntoIterator<Item = &'a [f64]>) {
        if !self.finite_guard || self.nonfinite.is_some() {
            return;
        }
        let values = parts.into_iter().flatten();
        if let Some((i, v)) = values.enumerate().find(|(_, v)| !v.is_finite()) {
            self.nonfinite = Some(format!("element {i} is {v}"));
        }
    }

    /// Threads in this block.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Device warp width.
    #[inline]
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// The block's shared-memory arena.
    #[inline]
    pub fn smem(&self) -> &SharedMem {
        &self.smem
    }

    /// Stages a global-memory slice into shared memory: counts its GM load
    /// and charges a buffer of its length to the arena. The kernel keeps
    /// computing on its own copy; the handle only accounts for the bytes.
    pub fn gm_load_to_smem(&mut self, src: &[f64]) -> Result<SmemBuf, SmemOverflow> {
        self.count_gm_load(src.len());
        self.smem.alloc(src.len())
    }

    /// The single accounting path for coalesced global-memory traffic of `n`
    /// f64 elements: bytes, transactions, and span are all charged here so
    /// loads and stores can never diverge (or double-count) in how they are
    /// modelled.
    #[inline]
    fn count_gm(&mut self, n: usize, store: bool) {
        let bytes = (n * 8) as u64;
        if store {
            self.counters.gm_store_bytes += bytes;
        } else {
            self.counters.gm_load_bytes += bytes;
        }
        self.counters.gm_transactions += bytes.div_ceil(self.tx_bytes as u64);
        // The transfer is spread over the block's threads.
        self.counters.span_cycles += (n as f64 / self.threads as f64).ceil();
        if let Some(t) = self.sanitizer.as_mut() {
            t.note_gm_op();
        }
    }

    /// Counts a coalesced global-memory load of `n` f64 elements.
    #[inline]
    pub fn count_gm_load(&mut self, n: usize) {
        self.count_gm(n, false);
    }

    /// Counts a coalesced global-memory store of `n` f64 elements.
    #[inline]
    pub fn count_gm_store(&mut self, n: usize) {
        self.count_gm(n, true);
    }

    /// True when this block runs under the hazard sanitizer. Kernels may
    /// consult this to skip building instrumentation-only metadata.
    #[inline]
    pub fn sanitizing(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Block-wide barrier (`__syncthreads()`): ends the current hazard epoch,
    /// ordering every earlier shared-memory access before every later one.
    /// Purely a correctness annotation — it adds **no** simulated cycles
    /// (barrier latency is part of the per-step span models), so enabling the
    /// sanitizer never changes timing or numerics.
    #[inline]
    pub fn sync_threads(&mut self) {
        if let Some(t) = self.sanitizer.as_mut() {
            t.barrier();
        }
    }

    /// Records one logical lane arriving at a barrier. Kernels whose lanes
    /// take divergent control flow call this per lane; the sanitizer reports
    /// divergence if lanes end the block with different arrival counts.
    #[inline]
    pub fn lane_sync(&mut self, lane: usize) {
        if let Some(t) = self.sanitizer.as_mut() {
            t.lane_barrier(lane);
        }
    }

    /// Records lane `lane` reading `buf[start..start + len]` in the current
    /// hazard epoch. No-op unless sanitizing.
    #[inline]
    pub fn smem_read(&mut self, lane: usize, buf: &SmemBuf, start: usize, len: usize) {
        if let Some(t) = self.sanitizer.as_mut() {
            t.record_access(lane, buf.id(), start, len, false);
        }
    }

    /// Records lane `lane` writing `buf[start..start + len]` in the current
    /// hazard epoch. No-op unless sanitizing.
    #[inline]
    pub fn smem_write(&mut self, lane: usize, buf: &SmemBuf, start: usize, len: usize) {
        if let Some(t) = self.sanitizer.as_mut() {
            t.record_access(lane, buf.id(), start, len, true);
        }
    }

    /// Records an element-wise parallel step over `items` work items, each
    /// costing `ops` scalar floating-point operations, distributed over the
    /// block's threads.
    #[inline]
    pub fn par_step(&mut self, items: usize, ops: u64) {
        self.counters.flops += items as u64 * ops;
        self.counters.smem_traffic_bytes += items as u64 * 16; // 2 operands
        let waves = (items as f64 / self.threads as f64).ceil();
        self.counters.span_cycles += waves * ops as f64;
    }

    /// Records a parallel step executed by a sub-team of `team` threads
    /// (e.g. the α-warp column-pair teams of §IV-B1). `teams` such teams run
    /// concurrently if they fit in the block; extra teams serialize.
    #[inline]
    pub fn team_step(&mut self, teams: usize, team: usize, items_per_team: usize, ops: u64) {
        let team = team.max(1);
        self.counters.flops += (teams * items_per_team) as u64 * ops;
        self.counters.smem_traffic_bytes += (teams * items_per_team) as u64 * 16;
        let concurrent_teams = (self.threads / team).max(1);
        let team_waves = (teams as f64 / concurrent_teams as f64).ceil();
        let per_team = (items_per_team as f64 / team as f64).ceil() * ops as f64;
        self.counters.span_cycles += team_waves * per_team;
    }

    /// Records a tree reduction of `len` values by a team of `team` threads
    /// (inner products): `len/team` serial accumulation plus `log2(team)`
    /// combine steps. `teams` reductions proceed concurrently.
    #[inline]
    pub fn team_reduce(&mut self, teams: usize, team: usize, len: usize) {
        let team = team.max(1);
        self.counters.flops += (teams * len) as u64 * 2; // multiply + add
        self.counters.smem_traffic_bytes += (teams * len) as u64 * 16;
        let concurrent_teams = (self.threads / team).max(1);
        let team_waves = (teams as f64 / concurrent_teams as f64).ceil();
        let depth = (team as f64).log2().ceil();
        let per_team = (len as f64 / team as f64).ceil() * 2.0 + depth;
        self.counters.span_cycles += team_waves * per_team;
    }

    /// Records a strictly serial section of `ops` scalar operations
    /// (single-thread work; the enemy of Challenge 1).
    #[inline]
    pub fn serial_step(&mut self, ops: u64) {
        self.counters.flops += ops;
        self.counters.span_cycles += ops as f64;
    }

    /// Retires the block: returns its counters plus, when sanitizing, the
    /// hazard tracker's findings (any bytes still charged to the arena at
    /// this point were leaked by the kernel body), plus any non-finite
    /// value the health guard caught.
    fn into_parts(self) -> BlockOutput {
        let leaked = self.smem.used_bytes();
        let outcome = self.sanitizer.map(|t| t.finish(leaked));
        (self.counters, outcome, self.nonfinite)
    }
}

/// A simulated GPU: a device spec plus an accumulated timeline.
pub struct Gpu {
    device: DeviceSpec,
    timeline: Mutex<Timeline>,
    session: Session,
    trace_pid: u32,
    sanitizer: Mutex<SanitizerReport>,
    graph: Mutex<GraphState>,
    interval: Mutex<Option<Interval>>,
}

impl Gpu {
    /// Creates a fresh GPU with an empty timeline under
    /// [`Session::current`]: the installed session's sinks, sanitize mode
    /// and tally. With none installed every sink is disabled, so launches
    /// pay only an `Option` check per sink.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_session(device, Session::current())
    }

    /// Like [`Gpu::new`], recording into an explicit trace sink.
    pub fn with_trace(device: DeviceSpec, trace: TraceSink) -> Self {
        Self::with_session(
            device,
            Session {
                trace,
                ..Session::current()
            },
        )
    }

    /// Like [`Gpu::new`] with an explicit [`SanitizeMode`] and a tally of
    /// its own: violations stay in this device's
    /// [`Gpu::sanitizer_report`] and never fail the invocation (tests and
    /// planted-bug experiments).
    pub fn with_sanitize(device: DeviceSpec, mode: SanitizeMode) -> Self {
        let session = Session {
            sanitize: mode,
            tally: Tally::default(),
            ..Session::current()
        };
        Self::with_session(device, session)
    }

    /// Creates a fresh GPU under an explicit session.
    pub fn with_session(device: DeviceSpec, session: Session) -> Self {
        let name = device.name;
        Self::with_session_named(device, session, name)
    }

    /// Like [`Gpu::with_session`], with an explicit trace process name (used
    /// by [`crate::GpuCluster`] to label ranks).
    pub(crate) fn with_session_named(device: DeviceSpec, session: Session, name: &str) -> Self {
        Self {
            device,
            timeline: Mutex::new(Timeline::default()),
            trace_pid: session.trace.register_process(name),
            session,
            sanitizer: Mutex::new(SanitizerReport::default()),
            graph: Mutex::new(GraphState::default()),
            interval: Mutex::new(None),
        }
    }

    /// True when launches on this GPU are hazard-checked. Layers above also
    /// key their *static* verification passes off this flag.
    pub fn sanitize_enabled(&self) -> bool {
        self.session.sanitize.is_on()
    }

    /// Snapshot of everything the sanitizer has found on this GPU so far.
    pub fn sanitizer_report(&self) -> SanitizerReport {
        self.sanitizer.lock().clone()
    }

    /// The trace sink this GPU records into (disabled by default).
    pub fn trace(&self) -> &TraceSink {
        &self.session.trace
    }

    /// The metrics sink this GPU records into (disabled by default). Layers
    /// above (the W-cycle, experiments) key their own metrics-only work off
    /// `gpu.metrics().is_enabled()`.
    pub fn metrics(&self) -> &MetricsSink {
        &self.session.metrics
    }

    /// Replaces the metrics sink, ignoring the session's (tests and
    /// experiments that must not pollute the global registry).
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.session.metrics = sink;
    }

    /// The health sink this GPU records into (disabled by default). Layers
    /// above (the W-cycle, experiments) key their own watchdog-only work off
    /// `gpu.health().is_enabled()`.
    pub fn health(&self) -> &HealthSink {
        &self.session.health
    }

    /// Replaces the health sink, ignoring the session's (tests and
    /// fault-injection experiments that must not share the global incident
    /// log).
    pub fn set_health(&mut self, sink: HealthSink) {
        self.session.health = sink;
    }

    /// The trace process id for this GPU's tracks (0 when tracing is off).
    pub fn trace_pid(&self) -> u32 {
        self.trace_pid
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Snapshot of the accumulated timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline.lock().clone()
    }

    /// Clears the timeline.
    pub fn reset_timeline(&self) {
        *self.timeline.lock() = Timeline::default();
    }

    /// Total simulated seconds so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.timeline.lock().seconds
    }

    /// Adds host-side serial time (e.g. per-call driver overhead of a
    /// baseline that loops over single-matrix API calls).
    pub fn add_host_seconds(&self, seconds: f64) {
        self.timeline.lock().seconds += seconds;
        if let Some(iv) = self.interval.lock().as_mut() {
            iv.record(seconds, Footprint::default());
        }
    }

    /// Runs `f` as one stream interval (see [`crate::stream`]) and returns
    /// its result with the interval's simulated seconds and reservation
    /// profile: one phase per launch holding its footprint for its charged
    /// seconds, host-side time as an empty phase. The seconds are summed
    /// from zero in launch order, so they are bitwise what a fresh `Gpu`
    /// running only `f` would report as [`Gpu::elapsed_seconds`]; the
    /// timeline still records every launch. Intervals do not nest.
    pub fn interval<R>(&self, f: impl FnOnce() -> R) -> (R, Interval) {
        let outer = self.interval.lock().replace(Interval::default());
        assert!(outer.is_none(), "stream intervals do not nest");
        let r = f();
        let iv = self.interval.lock().take().expect("the interval is open");
        (r, iv)
    }

    /// Launches a kernel whose blocks each mutate one item of `items`
    /// (`cfg.grid` must equal `items.len()`), the dominant pattern for
    /// batched kernels (one matrix per block). Each block is its own owner
    /// (see [`Gpu::launch_over_owned`]).
    pub fn launch_over<T, F>(
        &self,
        cfg: KernelConfig,
        items: &mut [T],
        f: F,
    ) -> Result<LaunchStats, KernelError>
    where
        T: Send,
        F: Fn(usize, &mut T, &mut BlockCtx) -> Result<(), KernelError> + Sync,
    {
        self.launch_over_owned(cfg, None, items, f)
    }

    /// [`Gpu::launch_over`] with the owner of each block (`owners[b]`, say
    /// the batch index of the task whose data block `b` reads and writes).
    /// All of an owner's blocks run on one host thread, in grid order, so a
    /// task's data stays in one core's cache through the launch (and a
    /// launch whose blocks all have one owner runs on the caller). Which
    /// thread runs a block never enters the model: items, counters and
    /// simulated time are bitwise those of the unowned launch.
    pub fn launch_over_owned<T, F>(
        &self,
        cfg: KernelConfig,
        owners: Option<&[usize]>,
        items: &mut [T],
        f: F,
    ) -> Result<LaunchStats, KernelError>
    where
        T: Send,
        F: Fn(usize, &mut T, &mut BlockCtx) -> Result<(), KernelError> + Sync,
    {
        assert_eq!(
            cfg.grid,
            items.len(),
            "grid must match item count in launch_over"
        );
        self.launch_blocks(cfg, |cfg| {
            rayon::map_mut(items, owners, |b, item| {
                self.run_block(cfg, |ctx| f(b, item, ctx))
            })
        })
        .map(|(_, stats)| stats)
    }

    /// Launches a kernel whose blocks produce values (inputs captured by the
    /// closure); returns the per-block outputs in grid order. Each block is
    /// its own owner (see [`Gpu::launch_collect_owned`]).
    pub fn launch_collect<R, F>(
        &self,
        cfg: KernelConfig,
        f: F,
    ) -> Result<(Vec<R>, LaunchStats), KernelError>
    where
        R: Send,
        F: Fn(usize, &mut BlockCtx) -> Result<R, KernelError> + Sync,
    {
        self.launch_collect_owned(cfg, None, f)
    }

    /// [`Gpu::launch_collect`] with the owner of each block, grouped as in
    /// [`Gpu::launch_over_owned`].
    pub fn launch_collect_owned<R, F>(
        &self,
        cfg: KernelConfig,
        owners: Option<&[usize]>,
        f: F,
    ) -> Result<(Vec<R>, LaunchStats), KernelError>
    where
        R: Send,
        F: Fn(usize, &mut BlockCtx) -> Result<R, KernelError> + Sync,
    {
        self.launch_blocks(cfg, |cfg| {
            rayon::map(cfg.grid, owners, |b| self.run_block(cfg, |ctx| f(b, ctx)))
        })
    }

    /// The body every launch runs: checks `cfg`, runs its blocks through
    /// `blocks` (each block under [`Gpu::run_block`], outputs in grid
    /// order), then returns the block outputs and the retired launch's
    /// stats, or the first failing block's error in grid order.
    fn launch_blocks<R>(
        &self,
        cfg: KernelConfig,
        blocks: impl FnOnce(&KernelConfig) -> Vec<Result<(R, BlockOutput), KernelError>>,
    ) -> Result<(Vec<R>, LaunchStats), KernelError> {
        assert!(
            cfg.smem_bytes_per_block <= self.device.smem_per_block_bytes,
            "kernel '{}' requests {} B of shared memory; device '{}' provides {} B per block",
            cfg.label,
            cfg.smem_bytes_per_block,
            self.device.name,
            self.device.smem_per_block_bytes,
        );
        assert!(
            cfg.threads_per_block > 0,
            "kernel '{}' has zero threads",
            cfg.label
        );
        let results = blocks(&cfg);
        let mut outs = Vec::with_capacity(results.len());
        let mut parts = Vec::with_capacity(results.len());
        for r in results {
            let (out, p) = r?;
            outs.push(out);
            parts.push(p);
        }
        Ok((outs, self.finish(cfg, parts)))
    }

    /// Runs one block's `body` in a fresh [`BlockCtx`] and retires it.
    fn run_block<R>(
        &self,
        cfg: &KernelConfig,
        body: impl FnOnce(&mut BlockCtx) -> Result<R, KernelError>,
    ) -> Result<(R, BlockOutput), KernelError> {
        let guard = self.session.health.is_enabled();
        let mut ctx = BlockCtx::new(&self.device, cfg, self.session.sanitize, guard);
        let r = body(&mut ctx)?;
        Ok((r, ctx.into_parts()))
    }

    /// Converts per-block counters into simulated time and records the
    /// launch; sanitized blocks additionally report their hazard findings.
    fn finish(&self, cfg: KernelConfig, parts: Vec<BlockOutput>) -> LaunchStats {
        let mut blocks = Vec::with_capacity(parts.len());
        let mut outcomes = Vec::with_capacity(parts.len());
        let mut nonfinite = None;
        for (b, (c, o, nf)) in parts.into_iter().enumerate() {
            blocks.push(c);
            outcomes.push(o);
            if nonfinite.is_none() {
                nonfinite = nf.map(|detail| (b, detail));
            }
        }
        self.report_sanitize_outcomes(&cfg, outcomes);
        let d = &self.device;
        let slots = d.concurrent_blocks(cfg.threads_per_block, cfg.smem_bytes_per_block);
        let concurrent = cfg.grid.min(slots).max(1);
        // Per-block resource shares while `concurrent` blocks are resident.
        let bw_share = d.gm_bytes_per_cycle / concurrent as f64;
        let blocks_per_sm = concurrent.div_ceil(d.num_sms).max(1);
        let mut lanes_per_block = d.fp64_lanes_per_sm as f64 / blocks_per_sm as f64;
        if cfg.uses_tensor_cores {
            lanes_per_block *= d.tensor_gemm_speedup;
        }
        let lanes_per_block = lanes_per_block.max(1.0);

        // Duration of each block: roofline max of span, FLOP throughput
        // limit, and its global-memory bandwidth share.
        let durations: Vec<f64> = blocks
            .iter()
            .map(|c| {
                let compute_span = if cfg.uses_tensor_cores {
                    c.span_cycles / d.tensor_gemm_speedup
                } else {
                    c.span_cycles
                };
                let flop_limit = c.flops as f64 / (2.0 * lanes_per_block);
                let mem = c.gm_bytes() as f64 / bw_share;
                compute_span.max(flop_limit).max(mem) + BLOCK_OVERHEAD_CYCLES
            })
            .collect();

        // List-schedule the blocks onto the resident slots; only a traced
        // launch keeps the placements (the untraced sink stores nothing).
        let traced = self.session.trace.is_enabled();
        let mut placements = Vec::new();
        let full_cycles = list_schedule(&durations, concurrent, |p| {
            if traced {
                placements.push(p);
            }
        });
        let (overhead_seconds, ride) = self.charge_launch(&cfg, slots);
        // Blocks riding the previous same-shape node's resident wave add no
        // makespan: only the remainder opens new waves. (`ride > 0` only
        // inside a fused scope, so the serial path is untouched.)
        let kernel_cycles = if ride == 0 {
            full_cycles
        } else {
            list_schedule(&durations[ride.min(durations.len())..], concurrent, |_| {})
        };
        let kernel_seconds = kernel_cycles / (d.clock_ghz * 1e9);
        if ride > 0 {
            self.graph
                .lock()
                .add_overlap_saved((full_cycles - kernel_cycles) / (d.clock_ghz * 1e9));
        }

        let mut totals = BlockCounters::default();
        for c in &blocks {
            totals.merge(c);
        }
        // The resources these blocks were modelled with, for this launch's
        // phase of a stream interval's reservation: the SMs the resident
        // blocks spread over, and the GM rate over the launch's own
        // (un-ridden) makespan.
        let footprint = Footprint {
            sms: concurrent.div_ceil(blocks_per_sm),
            gm_bytes_per_cycle: if full_cycles > 0.0 {
                totals.gm_bytes() as f64 / full_cycles
            } else {
                0.0
            },
        };
        let stats = LaunchStats {
            grid: cfg.grid,
            threads_per_block: cfg.threads_per_block,
            smem_bytes_per_block: cfg.smem_bytes_per_block,
            totals,
            kernel_seconds,
            overhead_seconds,
            occupancy: d.occupancy(cfg.grid, cfg.threads_per_block, cfg.smem_bytes_per_block),
        };
        if traced {
            self.trace_launch(&cfg, &stats, &placements);
        }
        self.timeline.lock().record(&stats);
        if let Some(iv) = self.interval.lock().as_mut() {
            iv.record(stats.seconds(), footprint);
        }
        if self.session.metrics.is_enabled() {
            self.record_metrics(cfg.label, &stats);
        }
        // Blocks check finiteness only under an enabled health sink.
        if let Some((block, detail)) = nonfinite {
            let now = self.timeline.lock().seconds;
            self.session
                .health
                .nonfinite(cfg.label, block, &detail, now);
        }
        stats
    }

    /// Mirrors one launch's [`LaunchStats`] — the *same* object the timeline
    /// records — into the metrics registry, the store of per-kernel totals,
    /// keyed by kernel label. Only called when the sink is enabled;
    /// recording never touches the timing model, so metrics-off runs stay
    /// bit-identical.
    fn record_metrics(&self, label: &str, stats: &LaunchStats) {
        let m = &self.session.metrics;
        m.counter_add(label, None, "launches", 1.0);
        m.counter_add(label, None, "blocks", stats.grid as f64);
        m.counter_add(label, None, "flops", stats.totals.flops as f64);
        m.counter_add(
            label,
            None,
            "gm_load_bytes",
            stats.totals.gm_load_bytes as f64,
        );
        m.counter_add(
            label,
            None,
            "gm_store_bytes",
            stats.totals.gm_store_bytes as f64,
        );
        m.counter_add(
            label,
            None,
            "gm_transactions",
            stats.totals.gm_transactions as f64,
        );
        m.counter_add(
            label,
            None,
            "smem_traffic_bytes",
            stats.totals.smem_traffic_bytes as f64,
        );
        m.counter_add(label, None, "kernel_seconds", stats.kernel_seconds);
        m.counter_add(label, None, "overhead_seconds", stats.overhead_seconds);
        // Time-weighted occupancy accumulator: reports divide by the kernel's
        // total seconds to recover its mean occupancy.
        m.counter_add(
            label,
            None,
            "occ_seconds",
            stats.occupancy * stats.seconds(),
        );
        m.observe(
            label,
            None,
            "occupancy",
            &OCCUPANCY_BUCKETS,
            stats.occupancy,
        );
        // Device roofline constants as gauges, so a snapshot alone suffices
        // to derive AI / ceiling attribution (Eqs. 8–10) offline.
        let d = &self.device;
        m.gauge_set("device", None, "peak_fp64_flops", d.peak_fp64_flops());
        m.gauge_set("device", None, "gm_bandwidth_bytes_per_s", d.gm_bandwidth());
        m.gauge_set(
            "device",
            None,
            "gm_transaction_bytes",
            d.gm_transaction_bytes as f64,
        );
    }

    /// Launch accounting for one kernel: the full per-call driver cost (and
    /// no riding blocks) on the serial path, or the graph-node accounting of
    /// [`LaunchGraph`] while a fused scope is open. Returns
    /// `(overhead_seconds, ride_blocks)`; riding blocks occupy slots the
    /// previous same-shape node left free and add no makespan. Counters and
    /// numerics are never affected — only the timing account changes.
    fn charge_launch(&self, cfg: &KernelConfig, slots: usize) -> (f64, usize) {
        let d = &self.device;
        let full = d.launch_overhead_us * 1e-6;
        let mut g = self.graph.lock();
        if !g.capturing() {
            return (full, 0);
        }
        g.charge_node(
            (cfg.threads_per_block, cfg.smem_bytes_per_block),
            cfg.grid,
            slots,
            full,
            d.graph_node_overhead_us * 1e-6,
        )
    }

    /// Opens a fused launch scope: kernels launched while the returned
    /// [`LaunchGraph`] is alive are recorded as nodes of one graph and pay
    /// the full launch overhead once (first node) plus a small per-node
    /// dispatch cost. Back-to-back same-shape launches coalesce onto the
    /// already-resident SM slots: they pay no dispatch cost and their
    /// leading blocks fill the free slots of the previous node's last wave,
    /// adding no makespan (see [`crate::graph`]). Counters, numerics and
    /// sanitizer behaviour stay bit-identical to serial launches. Scopes
    /// nest; an inner scope joins the enclosing graph. Dropping the scope
    /// replays (closes) the graph and, when tracing, emits a `launch-graph`
    /// instant and counter samples.
    pub fn launch_graph(&self, label: &'static str) -> LaunchGraph<'_> {
        self.graph.lock().begin();
        LaunchGraph { gpu: self, label }
    }

    /// Closes one fused scope (called by [`LaunchGraph::drop`]).
    pub(crate) fn end_launch_graph(&self, label: &'static str) {
        let finished = self.graph.lock().end();
        if let Some((nodes, coalesced)) = finished {
            if self.session.metrics.is_enabled() {
                // Per-graph deltas (cumulative stats minus what was already
                // reported), so registry counters sum correctly per run even
                // though `GraphStats` itself stays Gpu-cumulative.
                let d = self.graph.lock().take_unreported();
                let m = &self.session.metrics;
                m.counter_add("launch-graph", None, "graphs", d.graphs as f64);
                m.counter_add("launch-graph", None, "nodes", d.nodes as f64);
                m.counter_add("launch-graph", None, "coalesced", d.coalesced as f64);
                m.counter_add("launch-graph", None, "ride_blocks", d.ride_blocks as f64);
                m.counter_add(
                    "launch-graph",
                    None,
                    "overhead_saved_seconds",
                    d.overhead_saved_seconds,
                );
                m.counter_add(
                    "launch-graph",
                    None,
                    "overlap_saved_seconds",
                    d.overlap_saved_seconds,
                );
            }
            if self.session.trace.is_enabled() {
                let now = self.timeline.lock().seconds;
                let stats = self.graph.lock().stats();
                self.session.trace.instant(
                    self.trace_pid,
                    "launch-graph",
                    label,
                    now,
                    vec![
                        ("nodes", nodes.into()),
                        ("coalesced", coalesced.into()),
                        ("overhead_saved_s", stats.overhead_saved_seconds.into()),
                        ("overlap_saved_s", stats.overlap_saved_seconds.into()),
                    ],
                );
                self.session.trace.counter(
                    self.trace_pid,
                    "launch-graph",
                    "graphs",
                    now,
                    stats.graphs as f64,
                );
            }
        }
    }

    /// Cumulative launch-graph statistics for this GPU.
    pub fn graph_stats(&self) -> GraphStats {
        self.graph.lock().stats()
    }

    /// Emits the launch's trace events: one kernel span, per-SM-slot block
    /// placements (first [`MAX_TRACED_SLOTS`] slots), and counter samples.
    /// Called before the timeline records the launch, so the snapshot of
    /// `timeline.seconds` is the launch's start time.
    // wsvd-lint: allow(sink-guard) — the caller gates on trace.is_enabled()
    // and only invokes this on a traced launch.
    fn trace_launch(&self, cfg: &KernelConfig, stats: &LaunchStats, placements: &[BlockPlacement]) {
        let pid = self.trace_pid;
        let t0 = self.timeline.lock().seconds;
        let kernel_start = t0 + stats.overhead_seconds;
        self.session.trace.span(
            pid,
            "kernels",
            cfg.label,
            kernel_start,
            stats.kernel_seconds,
            vec![
                ("grid", cfg.grid.into()),
                ("threads_per_block", cfg.threads_per_block.into()),
                ("smem_bytes_per_block", cfg.smem_bytes_per_block.into()),
                ("occupancy", stats.occupancy.into()),
                ("flops", stats.totals.flops.into()),
                ("gm_bytes", stats.totals.gm_bytes().into()),
                ("smem_traffic_bytes", stats.totals.smem_traffic_bytes.into()),
                ("launch_overhead_s", stats.overhead_seconds.into()),
            ],
        );
        let cycle_seconds = 1.0 / (self.device.clock_ghz * 1e9);
        for p in placements {
            if p.slot >= MAX_TRACED_SLOTS {
                continue;
            }
            let track = format!("sm-slot {:02}", p.slot);
            self.session.trace.span(
                pid,
                &track,
                cfg.label,
                kernel_start + p.start * cycle_seconds,
                (p.end - p.start) * cycle_seconds,
                vec![("block", p.block.into())],
            );
        }
        self.session
            .trace
            .counter(pid, "occupancy", "occupancy", kernel_start, stats.occupancy);
        self.session.trace.counter(
            pid,
            "gm_bytes",
            "gm_bytes",
            kernel_start,
            stats.totals.gm_bytes() as f64,
        );
        self.session.trace.counter(
            pid,
            "smem_bytes_per_block",
            "smem_bytes_per_block",
            kernel_start,
            cfg.smem_bytes_per_block as f64,
        );
    }

    /// Folds the blocks' sanitizer findings into the GPU-wide report,
    /// attributes each violation to its kernel and block, bumps the
    /// session's violation tally, and mirrors everything onto the
    /// `sanitizer` trace track as structured instants. No-op for unsanitized
    /// launches.
    fn report_sanitize_outcomes(
        &self,
        cfg: &KernelConfig,
        outcomes: Vec<Option<BlockSanitizeOutcome>>,
    ) {
        if outcomes.iter().all(|o| o.is_none()) {
            return;
        }
        // The timeline has not recorded this launch yet, so its `seconds` is
        // the launch's start time (same convention as `trace_launch`).
        let ts = self.timeline.lock().seconds;
        let pid = self.trace_pid;
        let mut launch_stats = crate::sanitize::SanitizeStats::default();
        let mut new_violations = Vec::new();
        for (block, outcome) in outcomes.into_iter().enumerate() {
            let Some(mut o) = outcome else { continue };
            launch_stats.merge(&o.stats);
            for v in o.violations.iter_mut() {
                v.kernel = cfg.label.to_string();
                v.block = block;
            }
            new_violations.append(&mut o.violations);
        }
        if self.session.trace.is_enabled() {
            for v in &new_violations {
                let mut args: Vec<(&'static str, wsvd_trace::ArgValue)> = vec![
                    ("kernel", cfg.label.into()),
                    ("block", v.block.into()),
                    ("epoch", v.epoch.into()),
                    ("lane_a", v.lanes.0.into()),
                    ("lane_b", v.lanes.1.into()),
                ];
                if let Some(buf) = v.buf {
                    args.push(("buf", buf.into()));
                }
                args.push(("detail", v.detail.clone().into()));
                self.session
                    .trace
                    .instant(pid, "sanitizer", &v.kind.to_string(), ts, args);
            }
            self.session.trace.instant(
                pid,
                "sanitizer",
                "launch-checked",
                ts,
                vec![
                    ("kernel", cfg.label.into()),
                    ("blocks_checked", launch_stats.blocks_checked.into()),
                    ("epochs", launch_stats.epochs.into()),
                    ("accesses", launch_stats.accesses.into()),
                    ("gm_ops", launch_stats.gm_ops.into()),
                    ("violations", new_violations.len().into()),
                ],
            );
        }
        if !new_violations.is_empty() {
            self.session
                .tally
                .add_violations(new_violations.len() as u64);
        }
        let mut rep = self.sanitizer.lock();
        rep.stats.merge(&launch_stats);
        rep.violations.extend(new_violations);
    }
}

/// Where one block landed in the list schedule (times in cycles, relative
/// to kernel start).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockPlacement {
    /// Grid index of the block.
    pub block: usize,
    /// Execution slot the block ran on.
    pub slot: usize,
    /// Cycle at which the block started.
    pub start: f64,
    /// Cycle at which the block finished.
    pub end: f64,
}

/// Longest-processing-slot list scheduling: assigns each duration to the
/// earliest-free of `slots` execution slots, reports each block's placement
/// to `place` (a no-op keeps the untraced path allocation-free) and returns
/// the makespan.
fn list_schedule(durations: &[f64], slots: usize, mut place: impl FnMut(BlockPlacement)) -> f64 {
    let slots = slots.max(1);
    if slots >= durations.len() {
        for (b, &d) in durations.iter().enumerate() {
            place(BlockPlacement {
                block: b,
                slot: b,
                start: 0.0,
                end: d,
            });
        }
        return durations.iter().fold(0.0f64, |m, &d| m.max(d));
    }
    // Min-heap of slot end times, keyed by ordered bits of the f64.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..slots).map(|i| Reverse((0u64, i))).collect();
    let mut ends = vec![0.0f64; slots];
    for (b, &d) in durations.iter().enumerate() {
        let Reverse((_, slot)) = heap.pop().expect("heap never empty");
        let start = ends[slot];
        ends[slot] += d;
        place(BlockPlacement {
            block: b,
            slot,
            start,
            end: ends[slot],
        });
        heap.push(Reverse((ends[slot].to_bits(), slot)));
    }
    ends.iter().fold(0.0f64, |m, &e| m.max(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::V100;

    #[test]
    fn list_schedule_fewer_jobs_than_slots() {
        assert_eq!(list_schedule(&[3.0, 1.0, 2.0], 8, |_| {}), 3.0);
    }

    #[test]
    fn list_schedule_serializes_on_one_slot() {
        assert_eq!(list_schedule(&[3.0, 1.0, 2.0], 1, |_| {}), 6.0);
    }

    #[test]
    fn list_schedule_balances_two_slots() {
        // 4,3,3 on 2 slots -> {4, 3+3} -> 6 or {4+3, 3}=7 depending on order;
        // earliest-free: 4->s0, 3->s1, 3->s1(end 3)->6. Makespan 6.
        assert_eq!(list_schedule(&[4.0, 3.0, 3.0], 2, |_| {}), 6.0);
    }

    #[test]
    fn placements_tile_each_slot_up_to_the_makespan() {
        // Pseudo-random durations over several slot counts: every block is
        // placed once, in grid order, with its own duration; within a slot
        // the blocks run back to back from cycle 0, and the busiest slot's
        // end is the makespan, bit for bit.
        let durations: Vec<f64> = (0..97)
            .map(|k| 1.0 + ((k * 2654435761u64 as usize) % 97) as f64 / 7.0)
            .collect();
        for slots in [1, 2, 7, 32, 96, 200] {
            let mut placements = Vec::new();
            let makespan = list_schedule(&durations, slots, |p| placements.push(p));
            assert_eq!(placements.len(), durations.len(), "slots={slots}");
            let mut slot_end = std::collections::BTreeMap::<usize, f64>::new();
            for (b, p) in placements.iter().enumerate() {
                assert_eq!(p.block, b);
                assert!(p.slot < slots.max(1));
                let end = slot_end.entry(p.slot).or_insert(0.0);
                assert_eq!(p.start.to_bits(), end.to_bits(), "back to back");
                assert_eq!(p.end.to_bits(), (p.start + durations[b]).to_bits());
                *end = p.end;
            }
            let latest = slot_end.values().fold(0.0f64, |m, &e| m.max(e));
            assert_eq!(latest.to_bits(), makespan.to_bits(), "slots={slots}");
        }
    }

    #[test]
    fn traced_launch_emits_kernel_span_and_counters() {
        let sink = wsvd_trace::TraceSink::enabled();
        let gpu = Gpu::with_trace(V100, sink.clone());
        let mut data = vec![0.0f64; 4];
        let cfg = KernelConfig::new(4, 64, 1024, "traced-kernel");
        let stats = gpu
            .launch_over(cfg, &mut data, |_, _, ctx| {
                ctx.par_step(64, 2);
                Ok(())
            })
            .unwrap();
        let events = sink.events();
        let kernel_spans: Vec<_> = events
            .iter()
            .filter(|e| e.track == "kernels" && e.name == "traced-kernel")
            .collect();
        assert_eq!(kernel_spans.len(), 1);
        match kernel_spans[0].kind {
            wsvd_trace::EventKind::Span { start, dur } => {
                assert!((start - stats.overhead_seconds).abs() < 1e-15);
                assert!((dur - stats.kernel_seconds).abs() < 1e-15);
            }
            ref other => panic!("expected span, got {other:?}"),
        }
        // One placement span per block (4 blocks, all within slot cap).
        let slot_spans = events
            .iter()
            .filter(|e| e.track.starts_with("sm-slot"))
            .count();
        assert_eq!(slot_spans, 4);
        // Counter samples present.
        assert!(events.iter().any(|e| e.name == "occupancy"));
        assert!(events.iter().any(|e| e.name == "gm_bytes"));
        assert_eq!(sink.processes(), vec![(1, "Tesla V100".to_string())]);
    }

    #[test]
    fn untraced_launch_emits_nothing() {
        let gpu = Gpu::with_trace(V100, wsvd_trace::TraceSink::disabled());
        let mut data = vec![0.0f64; 2];
        let cfg = KernelConfig::new(2, 64, 1024, "untraced");
        gpu.launch_over(cfg, &mut data, |_, _, ctx| {
            ctx.par_step(8, 1);
            Ok(())
        })
        .unwrap();
        assert!(!gpu.trace().is_enabled());
        assert!(gpu.trace().events().is_empty());
        assert_eq!(gpu.trace_pid(), 0);
    }

    #[test]
    fn launch_over_runs_every_block_and_counts() {
        let gpu = Gpu::new(V100);
        let mut data = vec![0.0f64; 16];
        let cfg = KernelConfig::new(16, 64, 1024, "touch");
        let stats = gpu
            .launch_over(cfg, &mut data, |b, item, ctx| {
                *item = b as f64;
                ctx.par_step(100, 2);
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.grid, 16);
        assert_eq!(stats.totals.flops, 16 * 200);
        assert!(stats.kernel_seconds > 0.0);
        for (b, x) in data.iter().enumerate() {
            assert_eq!(*x, b as f64);
        }
        assert_eq!(gpu.timeline().launches, 1);
    }

    #[test]
    fn owned_launches_are_bitwise_the_unowned_ones() {
        // 29 blocks of uneven float work over 5 owners scattered through
        // the grid, and over one owner (the inline path):
        // items, outputs and launch statistics must be those of the unowned
        // launch, bit for bit, for both entry points.
        let grid = 29;
        let scattered: Vec<usize> = (0..grid).map(|b| (b * 7 + b / 5) % 5).collect();
        let one = vec![3; grid];
        let cfg = KernelConfig::new(grid, 96, 2048, "owned");
        let work = |b: usize, ctx: &mut BlockCtx| {
            let n = 50 + 37 * (b % 6);
            ctx.count_gm_load(n);
            ctx.par_step(n, 3 + b as u64 % 4);
            ctx.team_reduce(2, 32, n);
            ctx.count_gm_store(b + 1);
            (0..n).fold(b as f64 + 0.5, |a, k| (a * 1.000_1).sin() + k as f64 / 7.0)
        };
        let stats_bits = |s: &LaunchStats| {
            let c = &s.totals;
            (
                [s.grid, s.threads_per_block, s.smem_bytes_per_block],
                [
                    c.flops,
                    c.gm_load_bytes,
                    c.gm_store_bytes,
                    c.gm_transactions,
                    c.smem_traffic_bytes,
                ],
                [
                    c.span_cycles,
                    s.kernel_seconds,
                    s.overhead_seconds,
                    s.occupancy,
                ]
                .map(f64::to_bits),
            )
        };
        let run = |owners: Option<&[usize]>| {
            let gpu = Gpu::new(V100);
            let mut items = vec![0.0f64; grid];
            let over = gpu
                .launch_over_owned(cfg, owners, &mut items, |b, x, ctx| {
                    *x = work(b, ctx);
                    Ok(())
                })
                .unwrap();
            let (outs, collect) = gpu
                .launch_collect_owned(cfg, owners, |b, ctx| Ok(work(b, ctx)))
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(&items),
                bits(&outs),
                stats_bits(&over),
                stats_bits(&collect),
                gpu.elapsed_seconds().to_bits(),
            )
        };
        let unowned = run(None);
        assert_eq!(unowned.0, unowned.1);
        for of in [&scattered, &one] {
            assert_eq!(run(Some(of)), unowned, "{of:?}");
        }
    }

    #[test]
    fn interval_measures_what_a_fresh_gpu_would() {
        let run = |gpu: &Gpu| {
            let mut launches = Vec::new();
            for (grid, words) in [(4, 0), (200, 50_000)] {
                let cfg = KernelConfig::new(grid, 256, 1024, "interval");
                let (_, stats) = gpu
                    .launch_collect(cfg, |_, ctx| {
                        ctx.par_step(1000, 2);
                        ctx.count_gm_load(words);
                        Ok(())
                    })
                    .unwrap();
                launches.push(stats);
            }
            gpu.add_host_seconds(3e-6);
            launches
        };
        let gpu = Gpu::new(V100);
        run(&gpu); // a non-zero timeline base
        let (launches, iv) = gpu.interval(|| run(&gpu));
        let fresh = Gpu::new(V100);
        run(&fresh);
        assert_eq!(iv.seconds.to_bits(), fresh.elapsed_seconds().to_bits());
        assert_eq!(gpu.timeline().launches, 4, "the timeline still records");
        // One phase per launch, then the host-side time holding nothing.
        assert_eq!(iv.phases.len(), 3);
        for (phase, stats) in iv.phases.iter().zip(&launches) {
            assert_eq!(phase.seconds.to_bits(), stats.seconds().to_bits());
        }
        assert_eq!(iv.phases[2].seconds, 3e-6);
        assert_eq!(iv.phases[2].footprint, Footprint::default());
        let sum = iv.phases.iter().fold(0.0, |s, p| s + p.seconds);
        assert_eq!(sum.to_bits(), iv.seconds.to_bits());
        // 4 resident blocks, one per SM, and no GM traffic.
        let narrow = iv.phases[0].footprint;
        assert_eq!((narrow.sms, narrow.gm_bytes_per_cycle), (4, 0.0));
        // 200 resident blocks, 3 per SM, on 67 SMs.
        let wide = iv.phases[1].footprint;
        assert_eq!(wide.sms, 200usize.div_ceil(200usize.div_ceil(80)));
        let gm = wide.gm_bytes_per_cycle;
        assert!(gm > 0.0 && gm <= V100.gm_bytes_per_cycle, "{gm} B/cycle");
    }

    #[test]
    fn smem_overflow_propagates() {
        let gpu = Gpu::new(V100);
        let mut data = vec![0u8; 1];
        let cfg = KernelConfig::new(1, 32, 256, "overflow");
        let err = gpu
            .launch_over(cfg, &mut data, |_, _, ctx| {
                let _ = ctx.smem().alloc(1000)?; // 8000 B > 256 B
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, KernelError::Smem(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn requesting_more_than_static_capacity_panics() {
        let gpu = Gpu::new(V100);
        let cfg = KernelConfig::new(1, 32, 64 * 1024, "too-big");
        let _ = gpu.launch_collect(cfg, |_, _| Ok(()));
    }

    #[test]
    fn more_blocks_improves_throughput_until_saturation() {
        // Same per-block work; 10 blocks vs 1000 blocks. Time per block must
        // shrink (higher TLP) as long as slots remain.
        let per_block_time = |grid: usize| {
            let gpu = Gpu::new(V100);
            let cfg = KernelConfig::new(grid, 256, 8 * 1024, "tlp");
            let (_, stats) = gpu
                .launch_collect(cfg, |_, ctx| {
                    ctx.par_step(4096, 4);
                    Ok(())
                })
                .unwrap();
            stats.kernel_seconds / grid as f64
        };
        assert!(per_block_time(1000) < per_block_time(10) * 0.9);
    }

    #[test]
    fn gm_traffic_increases_time() {
        let gpu = Gpu::new(V100);
        let cfg = KernelConfig::new(512, 256, 1024, "mem");
        let (_, light) = gpu
            .launch_collect(cfg, |_, ctx| {
                ctx.par_step(1000, 2);
                Ok(())
            })
            .unwrap();
        let (_, heavy) = gpu
            .launch_collect(cfg, |_, ctx| {
                ctx.par_step(1000, 2);
                ctx.count_gm_load(100_000);
                ctx.count_gm_store(100_000);
                Ok(())
            })
            .unwrap();
        assert!(heavy.kernel_seconds > light.kernel_seconds);
        assert!(heavy.totals.gm_transactions > 0);
    }

    #[test]
    fn tensor_cores_speed_up_flops_bound_kernels() {
        let run = |dev: crate::device::DeviceSpec, tensor: bool| {
            let gpu = Gpu::new(dev);
            let mut cfg = KernelConfig::new(256, 256, 1024, "gemm");
            cfg.uses_tensor_cores = tensor;
            let (_, s) = gpu
                .launch_collect(cfg, |_, ctx| {
                    ctx.par_step(100_000, 2);
                    Ok(())
                })
                .unwrap();
            s.kernel_seconds
        };
        let a100_plain = run(crate::device::A100, false);
        let a100_tensor = run(crate::device::A100, true);
        assert!(a100_tensor < a100_plain);
    }

    #[test]
    fn team_step_penalizes_small_teams_with_many_items() {
        // One team of 32 processing 320 items: 10 waves * ops.
        let gpu = Gpu::new(V100);
        let cfg = KernelConfig::new(1, 32, 1024, "teams");
        let (_, one_team) = gpu
            .launch_collect(cfg, |_, ctx| {
                ctx.team_step(1, 32, 320, 1);
                Ok(())
            })
            .unwrap();
        // 8 teams of 4 threads, 40 items each: 2 concurrent waves of teams? threads=32
        // concurrent_teams = 8, so 1 wave of ceil(40/4)=10 cycles.
        let (_, many_teams) = gpu
            .launch_collect(cfg, |_, ctx| {
                ctx.team_step(8, 4, 40, 1);
                Ok(())
            })
            .unwrap();
        assert_eq!(one_team.totals.flops, many_teams.totals.flops);
        // 8 small teams in parallel have equal span here (10 waves each way).
        assert!((one_team.totals.span_cycles - many_teams.totals.span_cycles).abs() < 1.0);
    }

    #[test]
    fn sanitized_launch_reports_race_and_traces_it() {
        let sink = wsvd_trace::TraceSink::enabled();
        let session = Session {
            trace: sink.clone(),
            sanitize: crate::sanitize::SanitizeMode::Full,
            ..Session::default()
        };
        let gpu = Gpu::with_session(V100, session.clone());
        let cfg = KernelConfig::new(2, 64, 1024, "racy");
        let (_, _stats) = gpu
            .launch_collect(cfg, |_, ctx| {
                let buf = ctx.smem().alloc(32)?;
                ctx.smem_write(0, &buf, 0, 16);
                ctx.smem_read(1, &buf, 8, 4); // overlaps lane 0's write
                Ok(())
            })
            .unwrap();
        let rep = gpu.sanitizer_report();
        assert_eq!(rep.violations.len(), 2); // one per block
        assert_eq!(
            rep.violations[0].kind,
            crate::sanitize::HazardKind::ReadWrite
        );
        assert_eq!(rep.violations[0].kernel, "racy");
        assert_eq!(rep.violations[1].block, 1);
        assert_eq!(rep.stats.blocks_checked, 2);
        assert_eq!(
            session.tally.violations(),
            2,
            "the session tallies them too"
        );
        let events = sink.events();
        assert!(events
            .iter()
            .any(|e| e.track == "sanitizer" && e.name == "read-write race"));
        assert!(events
            .iter()
            .any(|e| e.track == "sanitizer" && e.name == "launch-checked"));
    }

    #[test]
    fn barrier_clears_hazards_and_leak_is_flagged() {
        let gpu = Gpu::with_sanitize(V100, crate::sanitize::SanitizeMode::Full);
        let cfg = KernelConfig::new(1, 64, 1024, "barriered");
        gpu.launch_collect(cfg, |_, ctx| {
            let buf = ctx.smem().alloc(32)?;
            ctx.smem_write(0, &buf, 0, 16);
            ctx.sync_threads();
            ctx.smem_read(1, &buf, 8, 4); // ordered after the barrier
            std::mem::forget(buf); // planted leak: budget never released
            Ok(())
        })
        .unwrap();
        let rep = gpu.sanitizer_report();
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(
            rep.violations[0].kind,
            crate::sanitize::HazardKind::SmemLeak
        );
        assert_eq!(rep.stats.epochs, 1);
    }

    #[test]
    fn sanitizer_off_is_inert_and_costless() {
        let gpu = Gpu::new(V100);
        let cfg = KernelConfig::new(1, 64, 1024, "inert");
        let (_, stats) = gpu
            .launch_collect(cfg, |_, ctx| {
                assert!(!ctx.sanitizing());
                let buf = ctx.smem().alloc(8)?;
                ctx.smem_write(0, &buf, 0, 8);
                ctx.smem_write(1, &buf, 0, 8); // would race if checked
                ctx.sync_threads();
                ctx.lane_sync(0);
                Ok(())
            })
            .unwrap();
        assert!(gpu.sanitizer_report().is_clean());
        assert_eq!(gpu.sanitizer_report().stats.blocks_checked, 0);
        // The sanitized run of the *same* kernel produces identical counters
        // and timing: instrumentation must never perturb the model.
        let san = Gpu::with_sanitize(V100, crate::sanitize::SanitizeMode::Full);
        let (_, san_stats) = san
            .launch_collect(cfg, |_, ctx| {
                let buf = ctx.smem().alloc(8)?;
                ctx.smem_write(0, &buf, 0, 8);
                ctx.smem_write(1, &buf, 0, 8);
                ctx.sync_threads();
                ctx.lane_sync(0);
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.totals, san_stats.totals);
        assert_eq!(
            stats.kernel_seconds.to_bits(),
            san_stats.kernel_seconds.to_bits()
        );
    }

    #[test]
    fn finite_guard_numbers_pieces_as_one_slice() {
        // A tailored update segment guards its output column by column:
        // element `c * rows + r` of the segment, as if it were one
        // column-major matrix.
        let health = wsvd_health::HealthSink::enabled();
        let mut gpu = Gpu::new(V100);
        gpu.set_health(health.clone());
        let cfg = KernelConfig::new(1, 64, 1024, "pieces");
        gpu.launch_collect(cfg, |_, ctx| {
            let cols = [[1.0, 2.0, 3.0], [4.0, f64::INFINITY, f64::NAN]];
            ctx.guard_finite_parts(cols.iter().map(|c| &c[..]));
            Ok(())
        })
        .unwrap();
        let incidents = health.incidents();
        assert_eq!(incidents.len(), 1);
        assert!(
            incidents[0].detail.contains("element 4 is inf"),
            "{}",
            incidents[0].detail
        );
    }

    #[test]
    fn finite_guard_fires_one_nonfinite_incident() {
        let health = wsvd_health::HealthSink::enabled();
        health.set_context("nan-test", 17);
        let mut gpu = Gpu::new(V100);
        gpu.set_health(health.clone());
        let cfg = KernelConfig::new(4, 64, 1024, "poisoned");
        let mut data: Vec<Vec<f64>> = (0..4).map(|_| vec![1.0; 8]).collect();
        data[2][5] = f64::NAN; // plant one NaN in block 2
        gpu.launch_over(cfg, &mut data, |_, item, ctx| {
            ctx.par_step(8, 1);
            ctx.guard_finite(item);
            Ok(())
        })
        .unwrap();
        let incidents = health.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, "non-finite");
        assert!(incidents[0].detail.contains("'poisoned', block 2"));
        assert!(incidents[0].detail.contains("element 5"));
        assert_eq!(incidents[0].seed, 17);
    }

    #[test]
    fn health_off_guard_is_inert_and_timing_identical() {
        let run = |with_health: bool| {
            let mut gpu = Gpu::new(V100);
            if with_health {
                gpu.set_health(wsvd_health::HealthSink::enabled());
            }
            let cfg = KernelConfig::new(8, 64, 1024, "guarded");
            let mut data: Vec<Vec<f64>> = (0..8).map(|_| vec![1.0; 64]).collect();
            gpu.launch_over(cfg, &mut data, |_, item, ctx| {
                ctx.par_step(64, 2);
                ctx.guard_finite(item);
                Ok(())
            })
            .unwrap();
            (gpu.elapsed_seconds(), gpu.timeline().totals)
        };
        let (t_off, c_off) = run(false);
        let (t_on, c_on) = run(true);
        assert_eq!(
            t_off.to_bits(),
            t_on.to_bits(),
            "health must not perturb time"
        );
        assert_eq!(c_off, c_on);
    }

    #[test]
    fn serial_loop_of_launches_pays_overhead() {
        let gpu = Gpu::new(V100);
        for _ in 0..10 {
            let cfg = KernelConfig::new(1, 32, 256, "tiny");
            gpu.launch_collect(cfg, |_, ctx| {
                ctx.serial_step(10);
                Ok(())
            })
            .unwrap();
        }
        let t = gpu.timeline();
        assert_eq!(t.launches, 10);
        // Overhead dominates: at least 10 * 5 µs.
        assert!(t.seconds >= 50e-6);
    }

    // Ten tiny launches, optionally inside one fused scope, with alternating
    // shapes so coalescing triggers on the repeated pairs.
    fn ten_launches(gpu: &Gpu, fused: bool) -> Vec<LaunchStats> {
        let scope = fused.then(|| gpu.launch_graph("ten"));
        let mut all = Vec::new();
        for k in 0..10 {
            let threads = if k % 4 < 2 { 32 } else { 64 };
            let cfg = KernelConfig::new(1, threads, 256, "tiny");
            let (_, stats) = gpu
                .launch_collect(cfg, |_, ctx| {
                    ctx.serial_step(10 + k as u64);
                    Ok(())
                })
                .unwrap();
            all.push(stats);
        }
        drop(scope);
        all
    }

    #[test]
    fn fused_scope_amortizes_overhead_and_overlaps_coalesced_launches() {
        let serial_gpu = Gpu::new(V100);
        let fused_gpu = Gpu::new(V100);
        let serial = ten_launches(&serial_gpu, false);
        let fused = ten_launches(&fused_gpu, true);
        for (k, (s, f)) in serial.iter().zip(&fused).enumerate() {
            assert_eq!(s.totals, f.totals, "counters are schedule-independent");
            assert_eq!(s.occupancy.to_bits(), f.occupancy.to_bits());
            // Shape pattern 32,32,64,64,…: odd launches coalesce with their
            // predecessor; their single block rides the resident wave, so
            // they add neither dispatch cost nor makespan. Non-coalesced
            // launches keep bit-identical kernel time.
            if k % 2 == 1 {
                assert_eq!(f.kernel_seconds, 0.0, "riding block adds no time");
                assert_eq!(f.overhead_seconds, 0.0);
            } else {
                assert_eq!(s.kernel_seconds.to_bits(), f.kernel_seconds.to_bits());
            }
        }
        let st = serial_gpu.timeline();
        let ft = fused_gpu.timeline();
        assert_eq!(st.launches, ft.launches);
        assert_eq!(
            st.totals, ft.totals,
            "fusion must not perturb the counter totals"
        );
        assert!(
            ft.kernel_seconds < st.kernel_seconds,
            "riding saves makespan"
        );
        // Serial: 10 full launches. Fused: 1 full + per-node costs, with the
        // shape pattern 32,32,64,64,... coalescing every second launch.
        assert!((st.overhead_seconds - 50e-6).abs() < 1e-12);
        let full = V100.launch_overhead_us * 1e-6;
        let node = V100.graph_node_overhead_us * 1e-6;
        let want_fused = full + 4.0 * node; // 5 coalesced, 4 charged nodes
        assert!(
            (ft.overhead_seconds - want_fused).abs() < 1e-12,
            "fused overhead {} vs expected {}",
            ft.overhead_seconds,
            want_fused
        );
        assert!(ft.seconds < st.seconds);

        let g = fused_gpu.graph_stats();
        assert_eq!(g.graphs, 1);
        assert_eq!(g.nodes, 10);
        assert_eq!(g.coalesced, 5);
        assert_eq!(g.ride_blocks, 5, "each coalesced single-block launch rides");
        assert!((g.overhead_saved_seconds - (st.overhead_seconds - want_fused)).abs() < 1e-12);
        assert!((g.overlap_saved_seconds - (st.kernel_seconds - ft.kernel_seconds)).abs() < 1e-15);
        assert_eq!(serial_gpu.graph_stats(), GraphStats::default());
    }

    #[test]
    fn nested_fused_scopes_share_one_graph_launch() {
        let gpu = Gpu::new(V100);
        let outer = gpu.launch_graph("outer");
        let run = |label: &'static str| {
            let cfg = KernelConfig::new(1, 32, 256, label);
            gpu.launch_collect(cfg, |_, ctx| {
                ctx.serial_step(5);
                Ok(())
            })
            .unwrap()
            .1
        };
        let first = run("a");
        {
            let _inner = gpu.launch_graph("inner");
            let nested = run("b");
            // Same shape as the previous node: coalesced even across the
            // nested-scope boundary (one graph).
            assert_eq!(nested.overhead_seconds, 0.0);
        }
        let after = run("c");
        assert_eq!(after.overhead_seconds, 0.0, "inner drop must not split");
        assert!((first.overhead_seconds - V100.launch_overhead_us * 1e-6).abs() < 1e-18);
        drop(outer);
        assert_eq!(gpu.graph_stats().graphs, 1);
        assert_eq!(gpu.graph_stats().nodes, 3);

        // After the scope closes, launches pay full serial overhead again.
        let serial = run("d");
        assert!((serial.overhead_seconds - V100.launch_overhead_us * 1e-6).abs() < 1e-18);
        assert_eq!(gpu.graph_stats().nodes, 3);
    }

    #[test]
    fn metered_launch_mirrors_stats_into_registry() {
        let sink = wsvd_metrics::MetricsSink::enabled();
        sink.set_experiment("unit");
        let mut gpu = Gpu::new(V100);
        gpu.set_metrics(sink.clone());
        let cfg = KernelConfig::new(4, 64, 1024, "metered");
        let (_, stats) = gpu
            .launch_collect(cfg, |_, ctx| {
                ctx.par_step(64, 2);
                ctx.count_gm_load(128);
                Ok(())
            })
            .unwrap();
        let snap = sink.snapshot();
        let c = |name: &str| snap.counter("unit", "metered", None, name);
        assert_eq!(c("launches"), 1.0);
        assert_eq!(c("blocks"), 4.0);
        assert_eq!(c("flops"), stats.totals.flops as f64);
        assert_eq!(c("gm_load_bytes"), stats.totals.gm_load_bytes as f64);
        assert_eq!(c("gm_transactions"), stats.totals.gm_transactions as f64);
        assert_eq!(
            c("kernel_seconds").to_bits(),
            stats.kernel_seconds.to_bits()
        );
        assert_eq!(
            c("overhead_seconds").to_bits(),
            stats.overhead_seconds.to_bits()
        );
        let h = snap
            .histogram("unit", "metered", None, "occupancy")
            .expect("occupancy histogram");
        assert_eq!(h.total, 1);
        assert_eq!(
            snap.gauge("unit", "device", None, "peak_fp64_flops"),
            Some(V100.peak_fp64_flops())
        );
    }

    #[test]
    fn metrics_off_keeps_launches_bit_identical() {
        let run = |metered: bool| {
            let mut gpu = Gpu::new(V100);
            if metered {
                gpu.set_metrics(wsvd_metrics::MetricsSink::enabled());
            } else {
                gpu.set_metrics(wsvd_metrics::MetricsSink::disabled());
            }
            ten_launches(&gpu, true);
            (gpu.elapsed_seconds(), gpu.timeline().totals)
        };
        let (t_off, c_off) = run(false);
        let (t_on, c_on) = run(true);
        assert_eq!(
            t_off.to_bits(),
            t_on.to_bits(),
            "metrics must not perturb time"
        );
        assert_eq!(c_off, c_on);
    }

    #[test]
    fn metered_fused_scope_records_graph_deltas() {
        let sink = wsvd_metrics::MetricsSink::enabled();
        sink.set_experiment("unit");
        let mut gpu = Gpu::new(V100);
        gpu.set_metrics(sink.clone());
        ten_launches(&gpu, true);
        let g = gpu.graph_stats();
        let snap = sink.snapshot();
        let c = |name: &str| snap.counter("unit", "launch-graph", None, name);
        assert_eq!(c("graphs"), g.graphs as f64);
        assert_eq!(c("nodes"), g.nodes as f64);
        assert_eq!(c("coalesced"), g.coalesced as f64);
        assert_eq!(c("ride_blocks"), g.ride_blocks as f64);
        assert_eq!(
            c("overhead_saved_seconds").to_bits(),
            g.overhead_saved_seconds.to_bits()
        );
        // A second fused scope on the same GPU adds only its own delta.
        ten_launches(&gpu, true);
        let snap2 = sink.snapshot();
        assert_eq!(
            snap2.counter("unit", "launch-graph", None, "graphs"),
            gpu.graph_stats().graphs as f64
        );
        assert_eq!(
            snap2.counter("unit", "launch-graph", None, "nodes"),
            gpu.graph_stats().nodes as f64
        );
    }

    #[test]
    fn traced_fused_run_emits_graph_instant() {
        let sink = wsvd_trace::TraceSink::enabled();
        let gpu = Gpu::with_trace(V100, sink.clone());
        ten_launches(&gpu, true);
        let evs = sink.events();
        let graph_evs: Vec<_> = evs.iter().filter(|e| e.track == "launch-graph").collect();
        assert!(
            graph_evs
                .iter()
                .any(|e| matches!(e.kind, wsvd_trace::EventKind::Instant { .. })),
            "expected a launch-graph instant, got {graph_evs:?}"
        );
        assert!(graph_evs
            .iter()
            .any(|e| matches!(e.kind, wsvd_trace::EventKind::Counter { .. })));
    }
}
