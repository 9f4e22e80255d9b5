//! Small host-side helpers: a seeded generator, order statistics, in-memory
//! spans, and the process/environment probes the report records.

use std::time::Instant;

/// SplitMix64: the benchmark derives every size, condition number and data
/// seed from its `--seed` through this, so the same seed gives the same
/// inputs on any build of the program under test.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for stream `a`, item `b`: independent SplitMix streams per call.
pub fn derive(a: u64, b: u64) -> u64 {
    SplitMix::new(a ^ b.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// The dimension at quantile `u` of a log-uniform distribution on `[lo, hi]`.
pub fn log_uniform(u: f64, lo: usize, hi: usize) -> usize {
    (lo as f64 * (hi as f64 / lo as f64).powf(u)).round() as usize
}

/// Exact nearest-rank quantile: the `ceil(q·n)`-th smallest value (NaN
/// for no values).
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median: the middle value, or the mean of the two middle values (NaN for
/// no values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, summed over all its threads, the
/// rayon workers a launch spawns included. Unlike wall-clock it does not
/// count time the host's hypervisor or other tenants took the CPUs away.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of the
    // 64-bit Linux targets this benchmark builds for, and the call writes
    // only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median wall-clock seconds of `reps` runs of `f` (at least one).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// One benchmark span: name, start and end in microseconds since the run
/// began, and the index of the enclosing span.
struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Spans recorded from the benchmark's own code around calls into each
/// layer, kept in memory and written out when the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span; returns its result and the span's seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans[id].end_us = end_us;
        (r, (end_us - start_us) * 1e-6)
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host the numbers were taken on, as JSON: core count, CPU model,
/// last-level cache and compiler.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let llc = (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            Some(format!("L{} {}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"llc\":\"{llc}\",\"rustc\":\"{rustc}\"}}",
        cpu.replace('"', "'")
    )
}

/// FNV-1a, for the determinism digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
