//! `wsvd-sanitizer`: lane-level hazard detection for simulated kernels.
//!
//! The paper's kernels are correct only because one-sided Jacobi rotation
//! pairs touch *disjoint* column pairs per round and cooperative threads are
//! separated by `__syncthreads()` barriers. The simulator executes a block's
//! lane loops sequentially, so data races that would corrupt results on real
//! hardware stay silent. This module makes those properties checkable:
//!
//! * a [`HazardTracker`] records per-lane read/write access sets on
//!   [`crate::SmemBuf`] ranges (and counts global-memory operations) between
//!   *barrier epochs* delimited by [`crate::BlockCtx::sync_threads`];
//! * overlapping accesses from different lanes within one epoch, with at
//!   least one write, are reported as write–write or read–write races;
//! * lanes that arrive at different barrier counts
//!   ([`crate::BlockCtx::lane_sync`]) are reported as barrier divergence;
//! * shared-memory buffers still allocated when the block retires are
//!   reported as leaks (a real kernel would leave the arena dirty for the
//!   next resident block).
//!
//! Checking is **opt-in** (the [`SanitizeMode`] of a [`crate::Gpu`]'s
//! [`crate::Session`], which `WSVD_SANITIZE=1` turns on by default) and a
//! zero-cost no-op otherwise: every recording entry point is one `Option`
//! check when sanitizing is off, and no counter or simulated-time
//! accounting changes in either mode. Violations are surfaced as structured
//! instant events through the device's `wsvd-trace` sink, aggregated into a
//! per-GPU [`SanitizerReport`], and counted in the session's tally for
//! harness exit codes ([`crate::Tally::violations`]).

use std::collections::BTreeMap;
use std::fmt;

/// Upper bound on violations retained per block, so a systematically racy
/// kernel produces a readable report instead of one entry per element.
const MAX_VIOLATIONS_PER_BLOCK: usize = 16;

/// Whether (and how thoroughly) launches are checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SanitizeMode {
    /// No checking; every sanitizer entry point is a no-op (the default).
    #[default]
    Off,
    /// Full checking: dynamic hazard tracking on every block plus static
    /// schedule/footprint verification in the layers that opt in.
    Full,
}

impl SanitizeMode {
    /// True when any checking is enabled.
    #[inline]
    pub fn is_on(self) -> bool {
        self != SanitizeMode::Off
    }
}

/// The hazard classes the dynamic tracker reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// Two lanes wrote overlapping shared-memory ranges in one epoch.
    WriteWrite,
    /// One lane read a range another lane wrote in the same epoch.
    ReadWrite,
    /// Lanes arrived at different barrier counts.
    BarrierDivergence,
    /// A shared-memory buffer was still allocated when the block retired.
    SmemLeak,
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardKind::WriteWrite => write!(f, "write-write race"),
            HazardKind::ReadWrite => write!(f, "read-write race"),
            HazardKind::BarrierDivergence => write!(f, "barrier divergence"),
            HazardKind::SmemLeak => write!(f, "smem leak"),
        }
    }
}

/// One reported hazard, attributed to a kernel and block after the launch.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Hazard class.
    pub kind: HazardKind,
    /// Kernel label (filled in by the launch machinery).
    pub kernel: String,
    /// Grid index of the offending block.
    pub block: usize,
    /// Shared-memory buffer id within the block's arena, when applicable.
    pub buf: Option<usize>,
    /// Barrier epoch in which the hazard occurred.
    pub epoch: u64,
    /// The two lanes involved (equal lanes for non-race hazards).
    pub lanes: (usize, usize),
    /// Human-readable specifics (ranges, counts, bytes).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in kernel '{}' block {} epoch {} (lanes {} vs {}){}{}",
            self.kind,
            self.kernel,
            self.block,
            self.epoch,
            self.lanes.0,
            self.lanes.1,
            match self.buf {
                Some(id) => format!(" buf #{id}"),
                None => String::new(),
            },
            if self.detail.is_empty() {
                String::new()
            } else {
                format!(": {}", self.detail)
            }
        )
    }
}

/// A static shared-memory demand that must fit the per-block arena before a
/// kernel may launch (the line-2/8/10 predicates of Algorithm 2, promoted to
/// checkable artifacts).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct SmemRequirement {
    /// What requires the memory (kernel or working-set label).
    pub label: String,
    /// Bytes demanded per block.
    pub bytes: usize,
}

impl SmemRequirement {
    /// Builds a requirement from an `f64`-element count.
    pub fn from_elems(label: impl Into<String>, elems: usize) -> Self {
        Self {
            label: label.into(),
            bytes: elems * std::mem::size_of::<f64>(),
        }
    }

    /// Whether the demand fits a per-block capacity.
    #[inline]
    pub fn fits(&self, capacity_bytes: usize) -> bool {
        self.bytes <= capacity_bytes
    }
}

impl fmt::Display for SmemRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} needs {} B", self.label, self.bytes)
    }
}

#[derive(Clone, Copy, Debug)]
struct Access {
    lane: usize,
    start: usize,
    end: usize, // exclusive
    write: bool,
}

/// Checking statistics for one block / one launch / one GPU (merged up).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Blocks that ran with hazard tracking enabled.
    pub blocks_checked: u64,
    /// Barrier epochs observed (one `sync_threads` ends one epoch).
    pub epochs: u64,
    /// Shared-memory range accesses recorded.
    pub accesses: u64,
    /// Counted global-memory load/store operations observed.
    pub gm_ops: u64,
}

impl SanitizeStats {
    /// Component-wise sum.
    pub fn merge(&mut self, o: &SanitizeStats) {
        self.blocks_checked += o.blocks_checked;
        self.epochs += o.epochs;
        self.accesses += o.accesses;
        self.gm_ops += o.gm_ops;
    }
}

/// Everything one block's tracker found, handed to the launch machinery.
#[derive(Clone, Debug, Default)]
pub struct BlockSanitizeOutcome {
    /// Violations found in this block (kernel/block fields filled in later).
    pub violations: Vec<Violation>,
    /// Checking statistics for this block.
    pub stats: SanitizeStats,
}

/// Aggregated sanitizer state of one [`crate::Gpu`] across launches.
#[derive(Clone, Debug, Default)]
pub struct SanitizerReport {
    /// All violations, in launch order.
    pub violations: Vec<Violation>,
    /// Checking statistics summed over all sanitized blocks.
    pub stats: SanitizeStats,
}

impl SanitizerReport {
    /// True when no violation has been reported.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-block dynamic hazard tracker.
///
/// Lanes are logical cooperative-thread (or α-warp team) indices chosen by
/// the instrumented kernel; the tracker only requires that concurrent
/// activities use distinct lane ids. All bookkeeping is deterministic
/// (`BTreeMap`-ordered), so reports are stable run-to-run.
#[derive(Debug, Default)]
pub struct HazardTracker {
    epoch: u64,
    /// Per-buffer access sets of the current epoch.
    accesses: BTreeMap<usize, Vec<Access>>,
    /// Per-lane explicit barrier arrival counts (for divergence checks).
    lane_syncs: BTreeMap<usize, u64>,
    violations: Vec<Violation>,
    stats: SanitizeStats,
}

impl HazardTracker {
    /// A fresh tracker at epoch 0.
    pub fn new() -> Self {
        Self {
            stats: SanitizeStats {
                blocks_checked: 1,
                ..SanitizeStats::default()
            },
            ..Self::default()
        }
    }

    /// Current barrier epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn push_violation(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS_PER_BLOCK {
            self.violations.push(v);
        }
    }

    /// Records one lane's access to `[start, start + len)` of buffer
    /// `buf_id`, checking it against the epoch's existing accesses.
    pub fn record_access(
        &mut self,
        lane: usize,
        buf_id: usize,
        start: usize,
        len: usize,
        write: bool,
    ) {
        self.stats.accesses += 1;
        let end = start + len;
        let epoch = self.epoch;
        let list = self.accesses.entry(buf_id).or_default();
        let mut conflict: Option<(HazardKind, Access)> = None;
        for a in list.iter() {
            if a.lane != lane && a.start < end && start < a.end && (a.write || write) {
                let kind = if a.write && write {
                    HazardKind::WriteWrite
                } else {
                    HazardKind::ReadWrite
                };
                conflict = Some((kind, *a));
                break; // one report per access keeps output readable
            }
        }
        list.push(Access {
            lane,
            start,
            end,
            write,
        });
        if let Some((kind, a)) = conflict {
            self.push_violation(Violation {
                kind,
                kernel: String::new(),
                block: 0,
                buf: Some(buf_id),
                epoch,
                lanes: (a.lane, lane),
                detail: format!(
                    "lane {} {} [{}, {}) overlaps lane {} {} [{}, {}) with no barrier in between",
                    a.lane,
                    if a.write { "wrote" } else { "read" },
                    a.start,
                    a.end,
                    lane,
                    if write { "wrote" } else { "read" },
                    start,
                    end,
                ),
            });
        }
    }

    /// Ends the current barrier epoch: all pending access sets are retired
    /// (a barrier orders every earlier access before every later one).
    pub fn barrier(&mut self) {
        self.epoch += 1;
        self.stats.epochs += 1;
        self.accesses.clear();
    }

    /// Records one lane individually arriving at a barrier (kernels with
    /// divergent control flow). Lanes using this API must all reach the same
    /// count by block retirement or a divergence violation is reported.
    pub fn lane_barrier(&mut self, lane: usize) {
        *self.lane_syncs.entry(lane).or_insert(0) += 1;
    }

    /// Counts one global-memory operation in the current epoch.
    pub fn note_gm_op(&mut self) {
        self.stats.gm_ops += 1;
    }

    /// Retires the block: checks barrier convergence and shared-memory
    /// hygiene (`leaked_bytes` = arena bytes still allocated), and returns
    /// everything found.
    pub fn finish(mut self, leaked_bytes: usize) -> BlockSanitizeOutcome {
        if let (Some(min), Some(max)) = (
            self.lane_syncs.iter().min_by_key(|&(_, &c)| c),
            self.lane_syncs.iter().max_by_key(|&(_, &c)| c),
        ) {
            if min.1 != max.1 {
                let (min, max) = ((*min.0, *min.1), (*max.0, *max.1));
                self.push_violation(Violation {
                    kind: HazardKind::BarrierDivergence,
                    kernel: String::new(),
                    block: 0,
                    buf: None,
                    epoch: self.epoch,
                    lanes: (min.0, max.0),
                    detail: format!(
                        "lane {} reached {} barriers but lane {} reached {}",
                        min.0, min.1, max.0, max.1
                    ),
                });
            }
        }
        if leaked_bytes > 0 {
            self.push_violation(Violation {
                kind: HazardKind::SmemLeak,
                kernel: String::new(),
                block: 0,
                buf: None,
                epoch: self.epoch,
                lanes: (0, 0),
                detail: format!("{leaked_bytes} B still allocated at block retirement"),
            });
        }
        BlockSanitizeOutcome {
            violations: self.violations,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_lanes_are_clean() {
        let mut t = HazardTracker::new();
        t.record_access(0, 0, 0, 8, true);
        t.record_access(1, 0, 8, 8, true);
        t.record_access(0, 0, 0, 8, false); // own re-read is fine
        let out = t.finish(0);
        assert!(out.violations.is_empty());
        assert_eq!(out.stats.accesses, 3);
    }

    #[test]
    fn overlapping_writes_race() {
        let mut t = HazardTracker::new();
        t.record_access(0, 3, 0, 8, true);
        t.record_access(1, 3, 4, 8, true);
        let out = t.finish(0);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, HazardKind::WriteWrite);
        assert_eq!(out.violations[0].buf, Some(3));
        assert_eq!(out.violations[0].lanes, (0, 1));
    }

    #[test]
    fn read_after_cross_lane_write_races_without_barrier() {
        let mut t = HazardTracker::new();
        t.record_access(0, 0, 0, 16, true);
        t.record_access(1, 0, 0, 4, false);
        let out = t.finish(0);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, HazardKind::ReadWrite);
    }

    #[test]
    fn barrier_separates_epochs() {
        let mut t = HazardTracker::new();
        t.record_access(0, 0, 0, 16, true);
        t.barrier();
        t.record_access(1, 0, 0, 4, false); // ordered after the write
        let out = t.finish(0);
        assert!(out.violations.is_empty());
        assert_eq!(out.stats.epochs, 1);
    }

    #[test]
    fn same_lane_never_races_with_itself() {
        let mut t = HazardTracker::new();
        t.record_access(5, 0, 0, 16, true);
        t.record_access(5, 0, 0, 16, true);
        t.record_access(5, 0, 4, 4, false);
        assert!(t.finish(0).violations.is_empty());
    }

    #[test]
    fn reads_never_conflict() {
        let mut t = HazardTracker::new();
        for lane in 0..8 {
            t.record_access(lane, 0, 0, 64, false);
        }
        assert!(t.finish(0).violations.is_empty());
    }

    #[test]
    fn divergent_lane_sync_counts_flagged() {
        let mut t = HazardTracker::new();
        t.lane_barrier(0);
        t.lane_barrier(0);
        t.lane_barrier(1);
        let out = t.finish(0);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, HazardKind::BarrierDivergence);
    }

    #[test]
    fn converged_lane_syncs_pass() {
        let mut t = HazardTracker::new();
        for lane in 0..4 {
            t.lane_barrier(lane);
        }
        assert!(t.finish(0).violations.is_empty());
    }

    #[test]
    fn leak_reported() {
        let t = HazardTracker::new();
        let out = t.finish(512);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].kind, HazardKind::SmemLeak);
        assert!(out.violations[0].detail.contains("512 B"));
    }

    #[test]
    fn violation_cap_bounds_report() {
        let mut t = HazardTracker::new();
        for lane in 0..100 {
            t.record_access(lane, 0, 0, 8, true);
        }
        let out = t.finish(0);
        assert_eq!(out.violations.len(), MAX_VIOLATIONS_PER_BLOCK);
        assert_eq!(out.stats.accesses, 100);
    }

    #[test]
    fn requirement_fits() {
        let r = SmemRequirement::from_elems("svd 32x64", 6144);
        assert_eq!(r.bytes, 48 * 1024);
        assert!(r.fits(48 * 1024));
        assert!(!r.fits(48 * 1024 - 1));
    }

    #[test]
    fn mode_default_off() {
        assert!(!SanitizeMode::default().is_on());
        assert!(SanitizeMode::Full.is_on());
    }
}
