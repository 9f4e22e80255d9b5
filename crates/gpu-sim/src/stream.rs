//! Concurrent streams on one simulated device.
//!
//! A batched launch fills the GPU only when it has many blocks (Fig. 11a):
//! a small batch leaves most SMs idle, and another independent batch can
//! run beside it. [`StreamDevice`] models that at the granularity of a
//! *stream interval* — a stretch of launches (one served bucket's batched
//! SVD) measured by [`crate::Gpu::interval`]. Each interval reserves, for
//! its whole duration, the [`Footprint`] its launches were modelled with:
//! the SMs its widest launch occupied and its peak global-memory demand.
//! Because an interval never runs with fewer resources than its kernels
//! assumed, its duration is exactly the one it was measured with; only the
//! time it *waits* for resources depends on its neighbours.
//!
//! The scheduler is event-driven over completions: an interval starts at
//! the earliest time at or after it is ready, and not before any interval
//! submitted earlier has started (in-order start), at which the reserved
//! SMs of everything still running plus its own total at most `num_sms`
//! and the summed GM demand at most `gm_bytes_per_cycle`. When every
//! interval needs the whole device this is the FIFO recurrence
//! `start = max(ready, previous end)`, bit for bit.

use crate::device::DeviceSpec;

/// The device resources one stream interval holds while it runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Footprint {
    /// SMs its widest launch occupied: the launch's resident blocks over
    /// the blocks each SM held, `concurrent.div_ceil(blocks_per_sm)`.
    pub sms: usize,
    /// Peak global-memory demand in bytes per cycle: the largest
    /// `gm_bytes / kernel cycles` over its launches. A fused launch whose
    /// blocks ride the previous node's wave is rated over its own
    /// un-ridden makespan, so no launch demands more than the device
    /// bandwidth.
    pub gm_bytes_per_cycle: f64,
}

impl Footprint {
    /// The per-resource maximum of two footprints.
    pub fn max(self, other: Footprint) -> Footprint {
        Footprint {
            sms: self.sms.max(other.sms),
            gm_bytes_per_cycle: self.gm_bytes_per_cycle.max(other.gm_bytes_per_cycle),
        }
    }
}

/// What [`crate::Gpu::interval`] measured: the interval's simulated
/// seconds, summed from zero in launch order exactly as a fresh [`crate::Gpu`]'s
/// timeline would sum them, and the footprint of its launches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Interval {
    /// Simulated seconds of every launch (and host-side time) in the
    /// interval.
    pub seconds: f64,
    /// Resources the interval's launches were modelled with.
    pub footprint: Footprint,
}

/// Where one submitted interval ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamSlot {
    /// The stream (0-based) that ran it: the lowest-numbered stream idle
    /// at its start, so intervals on one stream never overlap.
    pub stream: usize,
    /// Start time (same unit as the submitted ready time).
    pub start: f64,
    /// Completion time: `start + duration`.
    pub end: f64,
}

#[derive(Clone, Copy, Debug)]
struct Running {
    end: f64,
    footprint: Footprint,
    stream: usize,
}

/// The multi-stream device: admits intervals in submission order as SMs
/// and bandwidth allow (see the module docs).
#[derive(Clone, Debug)]
pub struct StreamDevice {
    num_sms: usize,
    gm_bytes_per_cycle: f64,
    running: Vec<Running>,
    last_start: f64,
}

impl StreamDevice {
    /// An idle device with `d`'s SMs and bandwidth.
    pub fn new(d: &DeviceSpec) -> Self {
        StreamDevice {
            num_sms: d.num_sms,
            gm_bytes_per_cycle: d.gm_bytes_per_cycle,
            running: Vec::new(),
            last_start: f64::NEG_INFINITY,
        }
    }

    /// Schedules an interval of `duration` that becomes ready at `ready`
    /// and holds `footprint` (clamped to the whole device, so it always
    /// fits once the device drains). Submissions must come in ready order.
    /// Costs O(intervals in flight) per completion it waits for.
    pub fn submit(&mut self, ready: f64, duration: f64, footprint: Footprint) -> StreamSlot {
        let footprint = Footprint {
            sms: footprint.sms.min(self.num_sms),
            gm_bytes_per_cycle: footprint.gm_bytes_per_cycle.min(self.gm_bytes_per_cycle),
        };
        let mut start = ready.max(self.last_start);
        loop {
            self.running.retain(|r| r.end > start);
            let (sms, gm) = self.running.iter().fold((0, 0.0), |(s, g), r| {
                (s + r.footprint.sms, g + r.footprint.gm_bytes_per_cycle)
            });
            if sms + footprint.sms <= self.num_sms
                && gm + footprint.gm_bytes_per_cycle <= self.gm_bytes_per_cycle
            {
                break;
            }
            // Wait for the next completion event.
            start = self
                .running
                .iter()
                .map(|r| r.end)
                .fold(f64::INFINITY, f64::min);
        }
        let stream = (0..)
            .find(|s| self.running.iter().all(|r| r.stream != *s))
            .expect("a free stream index exists");
        let end = start + duration;
        self.running.push(Running {
            end,
            footprint,
            stream,
        });
        self.last_start = start;
        StreamSlot { stream, start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::V100;
    use proptest::prelude::*;

    /// The FIFO device the streams replace: one interval at a time, in
    /// ready order.
    fn fifo(jobs: &[(f64, f64, Footprint)]) -> Vec<f64> {
        let mut free_at = 0.0f64;
        jobs.iter()
            .map(|&(ready, duration, _)| {
                let start = ready.max(free_at);
                free_at = start + duration;
                start
            })
            .collect()
    }

    /// Up to 60 intervals with random gaps, durations and footprints,
    /// in ready order.
    fn arb_jobs() -> impl Strategy<Value = Vec<(f64, f64, Footprint)>> {
        let job = (0.0f64..40.0, 0.5f64..120.0, 1usize..81, 0.0f64..652.0);
        prop::collection::vec(job, 1..60).prop_map(|raw| {
            let mut ready = 0.0f64;
            raw.into_iter()
                .map(|(gap, duration, sms, gm)| {
                    ready += gap;
                    let footprint = Footprint {
                        sms,
                        gm_bytes_per_cycle: gm,
                    };
                    (ready, duration, footprint)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn whole_device_reservations_are_the_fifo_recurrence_bitwise(jobs in arb_jobs()) {
            let whole = Footprint {
                sms: V100.num_sms,
                gm_bytes_per_cycle: V100.gm_bytes_per_cycle,
            };
            let mut dev = StreamDevice::new(&V100);
            for (&(ready, duration, _), start) in jobs.iter().zip(fifo(&jobs)) {
                let slot = dev.submit(ready, duration, whole);
                prop_assert_eq!(slot.start.to_bits(), start.to_bits());
                prop_assert_eq!(slot.end.to_bits(), (start + duration).to_bits());
                prop_assert_eq!(slot.stream, 0);
            }
        }

        #[test]
        fn reservations_never_exceed_the_device_and_start_in_order(jobs in arb_jobs()) {
            let mut dev = StreamDevice::new(&V100);
            let slots: Vec<StreamSlot> = jobs
                .iter()
                .map(|&(ready, duration, fp)| dev.submit(ready, duration, fp))
                .collect();
            for (i, (s, &(ready, duration, _))) in slots.iter().zip(&jobs).enumerate() {
                prop_assert!(s.start >= ready, "interval {} starts before it is ready", i);
                prop_assert_eq!(s.end.to_bits(), (s.start + duration).to_bits());
                if i > 0 {
                    prop_assert!(s.start >= slots[i - 1].start, "interval {} starts early", i);
                }
            }
            // Every start is an event: what runs across it fits the device,
            // and no stream runs two intervals at once.
            for s in &slots {
                let live: Vec<usize> = (0..slots.len())
                    .filter(|&j| slots[j].start <= s.start && slots[j].end > s.start)
                    .collect();
                let sms: usize = live.iter().map(|&j| jobs[j].2.sms).sum();
                let gm: f64 = live.iter().map(|&j| jobs[j].2.gm_bytes_per_cycle).sum();
                prop_assert!(sms <= V100.num_sms, "{} SMs reserved", sms);
                prop_assert!(gm <= V100.gm_bytes_per_cycle, "{} B/cycle reserved", gm);
                let mut streams: Vec<usize> = live.iter().map(|&j| slots[j].stream).collect();
                streams.sort_unstable();
                streams.dedup();
                prop_assert!(streams.len() == live.len(), "a stream runs two intervals");
            }
        }
    }

    #[test]
    fn small_footprints_run_side_by_side() {
        let mut dev = StreamDevice::new(&V100);
        let quarter = Footprint {
            sms: V100.num_sms / 4,
            gm_bytes_per_cycle: V100.gm_bytes_per_cycle / 4.0,
        };
        let slots: Vec<StreamSlot> = (0..5).map(|_| dev.submit(0.0, 10.0, quarter)).collect();
        for (k, s) in slots[..4].iter().enumerate() {
            assert_eq!((s.stream, s.start), (k, 0.0));
        }
        // The fifth waits for the first completion and reuses its stream.
        assert_eq!((slots[4].stream, slots[4].start), (0, 10.0));
        // Bandwidth binds as well as SMs.
        let mut dev = StreamDevice::new(&V100);
        let hungry = Footprint {
            sms: 1,
            gm_bytes_per_cycle: 0.6 * V100.gm_bytes_per_cycle,
        };
        assert_eq!(dev.submit(0.0, 10.0, hungry).start, 0.0);
        assert_eq!(dev.submit(1.0, 10.0, hungry).start, 10.0);
    }
}
