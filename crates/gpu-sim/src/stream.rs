//! Concurrent streams on one simulated device.
//!
//! A batched launch fills the GPU only when it has many blocks (Fig. 11a):
//! a small batch leaves most SMs idle, and another independent batch can
//! run beside it. [`StreamDevice`] models that at the granularity of a
//! *stream interval* — a stretch of launches (one served bucket's batched
//! SVD) measured by [`crate::Gpu::interval`]. An interval's reservation is
//! a *profile*: one [`Phase`] per launch, in launch order, holding for the
//! launch's simulated seconds the [`Footprint`] it was modelled with (the
//! SMs its resident blocks spread over and its GM bytes/cycle). Because
//! every launch runs with the resources its kernel assumed, the interval's
//! duration is exactly the one it was measured with; only the time it
//! *waits* depends on its neighbours.
//!
//! An interval starts at the earliest time `t` at or after it is ready,
//! and not before any interval submitted earlier has started (in-order
//! start), at which every phase `k`, placed at `[t + o_k, t + o_k + d_k)`
//! (`o_k` the summed durations of the phases before it), fits beside the
//! phases already reserved: at most `num_sms` SMs and at most
//! `gm_bytes_per_cycle` at every instant. Reserved usage only drops where
//! a reserved phase ends, so the earliest fit is either the first possible
//! start or a reserved phase's end minus some `o_k`; the scheduler tests
//! those candidates in ascending order. A one-phase profile is the peak
//! rule (the whole interval holds one footprint), and when every phase
//! needs the whole device this is the FIFO recurrence
//! `start = max(ready, previous end)`, bit for bit.

use crate::device::DeviceSpec;

/// The device resources one launch holds while it runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Footprint {
    /// SMs the launch occupied: its resident blocks over the blocks each
    /// SM held, `concurrent.div_ceil(blocks_per_sm)`.
    pub sms: usize,
    /// Global-memory demand in bytes per cycle: `gm_bytes / kernel
    /// cycles`. A fused launch whose blocks ride the previous node's wave
    /// is rated over its own un-ridden makespan, so no launch demands more
    /// than the device bandwidth.
    pub gm_bytes_per_cycle: f64,
}

impl Footprint {
    /// True when the footprint holds nothing (host-side time).
    fn is_empty(&self) -> bool {
        self.sms == 0 && self.gm_bytes_per_cycle <= 0.0
    }
}

/// One stretch of an interval's reservation profile: consecutive launches
/// (or host-side time) that hold the same footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phase {
    /// Simulated seconds the phase lasts: its launches' charged seconds.
    pub seconds: f64,
    /// What it holds for that long.
    pub footprint: Footprint,
}

/// What [`crate::Gpu::interval`] measured: the interval's simulated
/// seconds, summed from zero in launch order exactly as a fresh [`crate::Gpu`]'s
/// timeline would sum them, and its reservation profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Interval {
    /// Simulated seconds of every launch (and host-side time) in the
    /// interval.
    pub seconds: f64,
    /// One phase per launch in launch order (host-side time holds an empty
    /// footprint); adjacent phases with equal footprints are merged.
    pub phases: Vec<Phase>,
}

impl Interval {
    /// Appends `seconds` holding `footprint`: to the last phase if it holds
    /// the same footprint, else as a new phase.
    pub fn record(&mut self, seconds: f64, footprint: Footprint) {
        self.seconds += seconds;
        match self.phases.last_mut() {
            Some(last) if last.footprint == footprint => last.seconds += seconds,
            _ => self.phases.push(Phase { seconds, footprint }),
        }
    }

    /// Each phase as a window `[o, e)` relative to the interval's start, in
    /// device time units (`per_second` per interval second). Windows abut;
    /// the last ends at the interval's scaled duration exactly, so the
    /// profile ends with the interval.
    fn windows(&self, per_second: f64) -> Vec<(f64, f64, Footprint)> {
        let duration = self.seconds * per_second;
        let last = self.phases.len().saturating_sub(1);
        let mut o = 0.0f64;
        self.phases
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let e = if k == last {
                    duration
                } else {
                    o + p.seconds * per_second
                };
                let w = (o, e, p.footprint);
                o = e;
                w
            })
            .collect()
    }
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

/// One reserved phase of a started interval, in absolute device time.
#[derive(Clone, Copy, Debug)]
struct Reserved {
    start: f64,
    end: f64,
    footprint: Footprint,
}

/// Reserved usage as a step function: `usage[i]` (SMs, GM B/cycle) holds
/// on `[edges[i], edges[i + 1])`, and nothing is reserved outside.
struct Usage {
    edges: Vec<f64>,
    usage: Vec<(usize, f64)>,
}

impl Usage {
    fn of(reserved: &[Reserved]) -> Self {
        let mut edges: Vec<f64> = reserved.iter().flat_map(|r| [r.start, r.end]).collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        // Summed in reservation order, so a one-phase profile sees exactly
        // the sum the peak rule forms over the intervals still running.
        let usage = edges
            .windows(2)
            .map(|w| {
                reserved
                    .iter()
                    .filter(|r| r.start <= w[0] && r.end > w[0])
                    .fold((0, 0.0), |(s, g), r| {
                        (s + r.footprint.sms, g + r.footprint.gm_bytes_per_cycle)
                    })
            })
            .collect();
        Usage { edges, usage }
    }

    /// True when `fp` fits beside the reserved usage at every instant of
    /// `[a, b)` (an empty window has none).
    fn fits(&self, a: f64, b: f64, fp: Footprint, num_sms: usize, gm: f64) -> bool {
        if b <= a {
            return true;
        }
        let first = self.edges.partition_point(|&x| x <= a).saturating_sub(1);
        (first..self.usage.len())
            .take_while(|&i| self.edges[i] < b)
            .filter(|&i| self.edges[i + 1] > a)
            .all(|i| {
                let (s, g) = self.usage[i];
                s + fp.sms <= num_sms && g + fp.gm_bytes_per_cycle <= gm
            })
    }
}

/// The multi-stream device: admits intervals in submission order as SMs
/// and bandwidth allow (see the module docs).
#[derive(Clone, Debug)]
pub struct StreamDevice {
    num_sms: usize,
    gm_bytes_per_cycle: f64,
    /// Phases of started intervals that have not ended, in submission and
    /// then launch order.
    reserved: Vec<Reserved>,
    /// `(end, stream)` of every started interval that has not ended.
    running: Vec<(f64, usize)>,
    last_start: f64,
}

impl StreamDevice {
    /// An idle device with `d`'s SMs and bandwidth.
    pub fn new(d: &DeviceSpec) -> Self {
        StreamDevice {
            num_sms: d.num_sms,
            gm_bytes_per_cycle: d.gm_bytes_per_cycle,
            reserved: Vec::new(),
            running: Vec::new(),
            last_start: f64::NEG_INFINITY,
        }
    }

    /// Schedules `interval`, ready at `ready`, on the device: it lasts
    /// `interval.seconds * per_second` device time units (the unit of
    /// `ready`) and reserves its profile phase by phase, each footprint
    /// clamped to the whole device so it always fits once the device
    /// drains. Submissions must come in ready order. Costs
    /// O(reserved phases²) to build the usage profile, plus one fit test
    /// per candidate start when the first one does not fit.
    pub fn submit(&mut self, ready: f64, interval: &Interval, per_second: f64) -> StreamSlot {
        let (num_sms, gm) = (self.num_sms, self.gm_bytes_per_cycle);
        let phases: Vec<(f64, f64, Footprint)> = interval
            .windows(per_second)
            .into_iter()
            .filter(|&(o, e, fp)| e > o && !fp.is_empty())
            .map(|(o, e, fp)| {
                let fp = Footprint {
                    sms: fp.sms.min(num_sms),
                    gm_bytes_per_cycle: fp.gm_bytes_per_cycle.min(gm),
                };
                (o, e, fp)
            })
            .collect();
        let base = ready.max(self.last_start);
        self.reserved.retain(|r| r.end > base);
        let usage = Usage::of(&self.reserved);
        let fits_at = |t: f64| {
            phases
                .iter()
                .all(|&(o, e, fp)| usage.fits(t + o, t + e, fp, num_sms, gm))
        };
        let start = if fits_at(base) {
            base
        } else {
            // Offset 0 as well as every phase's: at the last reserved end
            // the whole profile lies past every reservation, so a candidate
            // always fits.
            let offsets: Vec<f64> = std::iter::once(0.0)
                .chain(phases.iter().map(|p| p.0))
                .collect();
            let mut candidates: Vec<f64> = self
                .reserved
                .iter()
                .flat_map(|r| offsets.iter().map(move |o| r.end - o))
                .filter(|&t| t > base)
                .collect();
            candidates.sort_by(f64::total_cmp);
            candidates.dedup();
            candidates
                .into_iter()
                .find(|&t| fits_at(t))
                .expect("the profile fits once every reservation has ended")
        };
        self.running.retain(|&(end, _)| end > start);
        let stream = (0..)
            .find(|s| self.running.iter().all(|r| r.1 != *s))
            .expect("a free stream index exists");
        let end = start + interval.seconds * per_second;
        self.running.push((end, stream));
        self.reserved
            .extend(phases.iter().map(|&(o, e, footprint)| Reserved {
                start: start + o,
                end: start + e,
                footprint,
            }));
        self.last_start = start;
        StreamSlot { stream, start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::V100;
    use proptest::prelude::*;

    /// A job: ready time, duration and a one-phase footprint.
    type Job = (f64, f64, Footprint);

    fn one_phase(duration: f64, footprint: Footprint) -> Interval {
        Interval {
            seconds: duration,
            phases: vec![Phase {
                seconds: duration,
                footprint,
            }],
        }
    }

    /// Builds an interval from phases, summing its seconds in launch order
    /// as `Gpu::interval` does.
    fn profile(phases: &[Phase]) -> Interval {
        let mut iv = Interval::default();
        for p in phases {
            iv.record(p.seconds, p.footprint);
        }
        iv
    }

    /// The FIFO device the streams replace: one interval at a time, in
    /// ready order.
    fn fifo(jobs: &[(f64, Interval)]) -> Vec<f64> {
        let mut free_at = 0.0f64;
        jobs.iter()
            .map(|(ready, iv)| {
                let start = ready.max(free_at);
                free_at = start + iv.seconds;
                start
            })
            .collect()
    }

    /// The whole-interval peak rule: each interval holds one footprint for
    /// its whole duration and starts, in submission order, at the first
    /// completion event at or after it is ready at which it fits beside
    /// everything still running.
    fn peak_rule(jobs: &[Job]) -> Vec<(usize, f64)> {
        let mut running: Vec<(f64, Footprint, usize)> = Vec::new();
        let mut last_start = f64::NEG_INFINITY;
        jobs.iter()
            .map(|&(ready, duration, fp)| {
                let mut start = ready.max(last_start);
                loop {
                    running.retain(|r| r.0 > start);
                    let (sms, gm) = running.iter().fold((0, 0.0), |(s, g), r| {
                        (s + r.1.sms, g + r.1.gm_bytes_per_cycle)
                    });
                    if sms + fp.sms <= V100.num_sms
                        && gm + fp.gm_bytes_per_cycle <= V100.gm_bytes_per_cycle
                    {
                        break;
                    }
                    start = running.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
                }
                let stream = (0..).find(|s| running.iter().all(|r| r.2 != *s)).unwrap();
                running.push((start + duration, fp, stream));
                last_start = start;
                (stream, start)
            })
            .collect()
    }

    fn arb_footprint() -> impl Strategy<Value = Footprint> {
        (1usize..81, 0.0f64..652.0).prop_map(|(sms, gm)| Footprint {
            sms,
            gm_bytes_per_cycle: gm,
        })
    }

    /// Up to 60 one-phase jobs with random gaps, durations and footprints,
    /// in ready order.
    fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
        let job = (0.0f64..40.0, 0.5f64..120.0, arb_footprint());
        prop::collection::vec(job, 1..60).prop_map(|raw| {
            let mut ready = 0.0f64;
            raw.into_iter()
                .map(|(gap, duration, footprint)| {
                    ready += gap;
                    (ready, duration, footprint)
                })
                .collect()
        })
    }

    /// Up to 40 intervals of 1..8 phases (some host-side, holding
    /// nothing), in ready order.
    fn arb_profiles() -> impl Strategy<Value = Vec<(f64, Interval)>> {
        let phase = (0.1f64..30.0, arb_footprint(), 0..4u32).prop_map(|(seconds, fp, kind)| {
            let footprint = if kind == 0 { Footprint::default() } else { fp };
            Phase { seconds, footprint }
        });
        let job = (0.0f64..40.0, prop::collection::vec(phase, 1..8));
        prop::collection::vec(job, 1..40).prop_map(|raw| {
            let mut ready = 0.0f64;
            raw.into_iter()
                .map(|(gap, phases): (f64, Vec<Phase>)| {
                    ready += gap;
                    (ready, profile(&phases))
                })
                .collect()
        })
    }

    /// Every phase of every slot in absolute time, with its footprint.
    fn placed(jobs: &[(f64, Interval)], slots: &[StreamSlot]) -> Vec<(f64, f64, Footprint)> {
        jobs.iter()
            .zip(slots)
            .flat_map(|((_, iv), s)| {
                iv.windows(1.0)
                    .into_iter()
                    .map(move |(o, e, fp)| (s.start + o, s.start + e, fp))
            })
            .collect()
    }

    proptest! {
        #[test]
        fn one_phase_profiles_are_the_peak_rule_bitwise(jobs in arb_jobs()) {
            let mut dev = StreamDevice::new(&V100);
            for (&(ready, duration, fp), (stream, start)) in jobs.iter().zip(peak_rule(&jobs)) {
                let slot = dev.submit(ready, &one_phase(duration, fp), 1.0);
                prop_assert_eq!(slot.start.to_bits(), start.to_bits());
                prop_assert_eq!(slot.stream, stream);
            }
        }

        #[test]
        fn whole_device_reservations_are_the_fifo_recurrence_bitwise(jobs in arb_profiles()) {
            let whole = Footprint {
                sms: V100.num_sms,
                gm_bytes_per_cycle: V100.gm_bytes_per_cycle,
            };
            let jobs: Vec<(f64, Interval)> = jobs
                .into_iter()
                .map(|(ready, iv)| {
                    let phases: Vec<Phase> = iv
                        .phases
                        .iter()
                        .map(|p| Phase { seconds: p.seconds, footprint: whole })
                        .collect();
                    (ready, Interval { seconds: iv.seconds, phases })
                })
                .collect();
            let mut dev = StreamDevice::new(&V100);
            for ((ready, iv), start) in jobs.iter().zip(fifo(&jobs)) {
                let slot = dev.submit(*ready, iv, 1.0);
                prop_assert_eq!(slot.start.to_bits(), start.to_bits());
                prop_assert_eq!(slot.end.to_bits(), (start + iv.seconds).to_bits());
                prop_assert_eq!(slot.stream, 0);
            }
        }

        #[test]
        fn reserved_phases_never_exceed_the_device(jobs in arb_profiles()) {
            let mut dev = StreamDevice::new(&V100);
            let slots: Vec<StreamSlot> =
                jobs.iter().map(|(ready, iv)| dev.submit(*ready, iv, 1.0)).collect();
            // Usage only rises where a phase starts: check every start.
            let phases = placed(&jobs, &slots);
            for &(at, _, _) in &phases {
                let live = phases.iter().filter(|p| p.0 <= at && p.1 > at);
                let (sms, gm) = live.fold((0, 0.0), |(s, g), p| {
                    (s + p.2.sms, g + p.2.gm_bytes_per_cycle)
                });
                prop_assert!(sms <= V100.num_sms, "{} SMs reserved at {}", sms, at);
                prop_assert!(gm <= V100.gm_bytes_per_cycle, "{} B/cycle reserved at {}", gm, at);
            }
            // No stream runs two intervals at once.
            for (i, a) in slots.iter().enumerate() {
                for b in &slots[i + 1..] {
                    let overlap = a.start < b.end && b.start < a.end;
                    prop_assert!(!(overlap && a.stream == b.stream), "{:?} and {:?}", a, b);
                }
            }
        }

        #[test]
        fn starts_come_in_submission_order_and_last_their_duration(jobs in arb_profiles()) {
            let mut dev = StreamDevice::new(&V100);
            let mut previous = f64::NEG_INFINITY;
            for (i, (ready, iv)) in jobs.iter().enumerate() {
                let s = dev.submit(*ready, iv, 1.0);
                prop_assert!(s.start >= *ready, "interval {} starts before it is ready", i);
                prop_assert!(s.start >= previous, "interval {} starts early", i);
                prop_assert_eq!(s.end.to_bits(), (s.start + iv.seconds).to_bits());
                previous = s.start;
            }
        }
    }

    #[test]
    fn small_footprints_run_side_by_side() {
        let mut dev = StreamDevice::new(&V100);
        let quarter = one_phase(
            10.0,
            Footprint {
                sms: V100.num_sms / 4,
                gm_bytes_per_cycle: V100.gm_bytes_per_cycle / 4.0,
            },
        );
        let slots: Vec<StreamSlot> = (0..5).map(|_| dev.submit(0.0, &quarter, 1.0)).collect();
        for (k, s) in slots[..4].iter().enumerate() {
            assert_eq!((s.stream, s.start), (k, 0.0));
        }
        // The fifth waits for the first completion and reuses its stream.
        assert_eq!((slots[4].stream, slots[4].start), (0, 10.0));
        // Bandwidth binds as well as SMs.
        let mut dev = StreamDevice::new(&V100);
        let hungry = one_phase(
            10.0,
            Footprint {
                sms: 1,
                gm_bytes_per_cycle: 0.6 * V100.gm_bytes_per_cycle,
            },
        );
        assert_eq!(dev.submit(0.0, &hungry, 1.0).start, 0.0);
        assert_eq!(dev.submit(1.0, &hungry, 1.0).start, 10.0);
    }

    #[test]
    fn colliding_memory_bound_phases_wait_exactly_for_the_earlier_one() {
        // Two short memory-bound launches, each inside a long, light
        // profile: under a whole-interval peak they could not overlap at
        // all; per phase, only the heavy launches may not run together.
        let light = Footprint {
            sms: 2,
            gm_bytes_per_cycle: 10.0,
        };
        let heavy = Footprint {
            sms: 2,
            gm_bytes_per_cycle: 400.0,
        };
        let first = profile(&[
            Phase {
                seconds: 4.0,
                footprint: light,
            },
            Phase {
                seconds: 3.0,
                footprint: heavy,
            },
            Phase {
                seconds: 20.0,
                footprint: light,
            },
        ]);
        let second = profile(&[
            Phase {
                seconds: 1.0,
                footprint: light,
            },
            Phase {
                seconds: 2.0,
                footprint: heavy,
            },
            Phase {
                seconds: 30.0,
                footprint: light,
            },
        ]);
        let mut dev = StreamDevice::new(&V100);
        let a = dev.submit(0.0, &first, 1.0);
        assert_eq!((a.start, a.end, a.stream), (0.0, 27.0, 0));
        // Ready at 2: its heavy phase would run over [3, 5), inside the
        // first's [4, 7). It is delayed exactly until that phase ends,
        // 7 − 1 = 6, and shares the device with the first's light tail.
        let b = dev.submit(2.0, &second, 1.0);
        assert_eq!((b.start, b.end, b.stream), (6.0, 39.0, 1));
        // Ready late enough, the heavy phases do not meet: no wait.
        let mut dev = StreamDevice::new(&V100);
        dev.submit(0.0, &first, 1.0);
        assert_eq!(dev.submit(6.5, &second, 1.0).start, 6.5);
    }

    #[test]
    fn recording_merges_adjacent_equal_footprints() {
        let fp = Footprint {
            sms: 3,
            gm_bytes_per_cycle: 1.0,
        };
        let mut iv = Interval::default();
        iv.record(1.0, fp);
        iv.record(2.0, fp);
        iv.record(0.5, Footprint::default());
        iv.record(1.5, fp);
        assert_eq!(iv.seconds, 5.0);
        let seconds: Vec<f64> = iv.phases.iter().map(|p| p.seconds).collect();
        assert_eq!(seconds, [3.0, 0.5, 1.5]);
    }
}
