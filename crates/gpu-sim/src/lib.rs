//! # wsvd-gpu-sim
//!
//! A GPU *execution-model* simulator: the substitution substrate that stands
//! in for the CUDA/HIP hardware of the W-cycle SVD paper (see DESIGN.md §1).
//!
//! The simulator is not cycle-accurate; it models exactly the quantities the
//! paper's performance analysis is built on:
//!
//! * **static shared memory per block** (48 KiB) enforced by a real
//!   allocator ([`SharedMem`]) — the predicate driving Algorithm 2;
//! * **thread-level parallelism**: blocks execute as rayon tasks (one
//!   owner's blocks on one host thread, see [`Gpu::launch_over_owned`]), and each
//!   records a work/span estimate given its internal thread assignment
//!   ([`BlockCtx::team_step`] / [`BlockCtx::team_reduce`]);
//! * **global-memory traffic**: coalesced transaction counts (Fig. 11b);
//! * **occupancy** and resident-block limits (Fig. 11a);
//! * a **roofline timing model** with list scheduling of block durations
//!   onto SM slots, yielding deterministic *simulated seconds*;
//! * **concurrent streams** ([`StreamDevice`]): independent stretches of
//!   launches share the device's SMs and bandwidth, each launch holding,
//!   for its own duration, the resources its kernel was modelled with.

#![warn(missing_docs)]

pub mod cluster;
pub mod counters;
pub mod device;
pub mod graph;
pub mod launch;
pub mod profile;
pub mod resource;
pub mod sanitize;
pub mod session;
pub mod smem;
pub mod stream;

pub use cluster::GpuCluster;
pub use counters::{BlockCounters, LaunchStats, Timeline};
pub use device::{DeviceSpec, A100, ALL_DEVICES, P100, TITAN_X, V100, VEGA20};
pub use graph::{GraphStats, LaunchGraph};
pub use launch::{BlockCtx, BlockPlacement, Gpu, KernelConfig, KernelError, OCCUPANCY_BUCKETS};
pub use profile::{time_share_percent, KernelDerived, KernelObservation};
pub use resource::{
    BarrierDiscipline, KernelResource, ResourceFit, ResourceViolation, ScheduleFamily,
};
pub use sanitize::{
    HazardKind, HazardTracker, SanitizeMode, SanitizerReport, SmemRequirement, Violation,
};
pub use session::{Session, Tally};
pub use smem::{SharedMem, SmemBuf, SmemOverflow};
pub use stream::{Footprint, Interval, Phase, StreamDevice, StreamSlot};
