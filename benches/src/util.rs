//! Measurement plumbing shared by every workload: the metric sink,
//! timed repetition, order statistics, digests and run metadata.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Named metrics with their units. Later inserts of the same name
/// replace earlier ones, so a workload's own traced figures can
/// override the shared layer suite's.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn get_with_unit(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Free-form facts recorded next to the metrics: run metadata and
/// deterministic counters. Values are preformatted JSON.
#[derive(Debug, Default)]
pub struct Detail(BTreeMap<String, String>);

impl Detail {
    pub fn num(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.0.insert(key.into(), value.to_string());
    }

    pub fn text(&mut self, key: impl Into<String>, value: &str) {
        self.0
            .insert(key.into(), format!("\"{}\"", value.replace('"', "'")));
    }

    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A float as JSON: finite values with every digit, anything else 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Calls `f(rep)` until at least `seconds` have passed and at least
/// `min_reps` calls were made, returning each call's wall time in
/// seconds next to its result. Between calls, untimed, the clock
/// samples the host's speed and `between` runs.
pub fn repeat_for<T>(
    seconds: f64,
    min_reps: usize,
    clock: &mut HostClock,
    mut between: impl FnMut(&mut HostClock) -> Result<(), String>,
    mut f: impl FnMut(usize) -> T,
) -> Result<Vec<(f64, T)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(timed(|| f(out.len())));
        clock.sample_rss();
        clock.tick();
        between(clock)?;
    }
    Ok(out)
}

/// What the calibration kernel takes on the reference host (2 vCPUs
/// of a Sapphire Rapids Xeon under KVM) when it is quiet, seconds.
const CALIBRATION_REF_S: f64 = 0.0055;

/// Seconds between two samples of the host's speed.
const CALIBRATION_INTERVAL_S: f64 = 0.25;

/// Seconds between two set-up samples.
const SETUP_INTERVAL_S: f64 = 2.0;

/// Host-speed-normalized timing.
///
/// A shared host runs the same code up to twice as slowly at times,
/// for stretches from seconds to minutes. Between repetitions the
/// clock therefore times a fixed calibration kernel that lives in the
/// benchmark (so no change to the program can move it), and an
/// end-to-end time is the median over the run scaled by the kernel's
/// reference time over its median over the same run. Set-up is
/// sampled across the whole run the same way.
#[derive(Debug)]
pub struct HostClock {
    last_calibration: Instant,
    last_setup: Instant,
    /// Raw set-up times, seconds.
    pub setups: Vec<f64>,
    /// Calibration-kernel times, seconds.
    pub calibrations: Vec<f64>,
    /// Resident set size right after each repetition, MB.
    pub rss: Vec<f64>,
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            last_calibration: Instant::now(),
            last_setup: Instant::now(),
            setups: Vec::new(),
            calibrations: Vec::new(),
            rss: Vec::new(),
        };
        clock.calibrate();
        clock
    }

    fn calibrate(&mut self) {
        for _ in 0..3 {
            self.calibrations.push(calibration_kernel());
        }
        self.last_calibration = Instant::now();
    }

    /// Samples the host's speed if `CALIBRATION_INTERVAL_S` have passed
    /// since the last sample.
    pub fn tick(&mut self) {
        if self.last_calibration.elapsed().as_secs_f64() >= CALIBRATION_INTERVAL_S {
            self.calibrate();
        }
    }

    /// How much faster the reference host is than this one was over
    /// the run so far.
    pub fn speed(&self) -> f64 {
        CALIBRATION_REF_S / median(&self.calibrations)
    }

    /// Times one set-up, returning its result.
    pub fn setup<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (t, result) = timed(setup);
        self.setups.push(t);
        self.last_setup = Instant::now();
        result
    }

    /// Times another set-up once `SETUP_INTERVAL_S` have passed since
    /// the last, returning its result if it ran.
    pub fn resample_setup<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.last_setup.elapsed().as_secs_f64() < SETUP_INTERVAL_S {
            return Ok(None);
        }
        self.setup(setup).map(Some)
    }

    /// Records the resident set size; call right after a repetition.
    pub fn sample_rss(&mut self) {
        self.rss.push(status_mb("VmRSS:"));
    }

    /// The end-to-end metrics every workload reports: normalized
    /// median set-up and repetition times, and the median resident set
    /// right after a repetition.
    pub fn set_end_to_end(&self, m: &mut Metrics, walls: &[f64]) {
        m.set("setup_s", median(&self.setups) * self.speed(), "s");
        m.set("wall_s", median(walls) * self.speed(), "s");
        m.set("rss_mb", median(&self.rss), "MB");
    }

    /// Records the raw distributions behind the end-to-end times.
    pub fn record(&self, d: &mut Detail, walls: &[f64]) {
        d.num("reps", walls.len());
        d.num("wall_raw_p10_s", quantile(walls, 0.1));
        d.num("wall_raw_p50_s", median(walls));
        d.num("wall_raw_p90_s", quantile(walls, 0.9));
        d.num("setups", self.setups.len());
        d.num("setup_raw_p50_s", median(&self.setups));
        d.num("calibrations", self.calibrations.len());
        d.num("calibration_p50_s", median(&self.calibrations));
        d.num("host_speed", self.speed());
        d.num("peak_rss_mb", status_mb("VmHWM:"));
    }
}

/// The calibration kernel: a miniature trace-driven cache model that
/// varint-decodes a fixed entry stream and looks every fetch and load
/// up in an 8-way tag array. It has the simulator's kind of work but
/// none of its code. Returns its wall time in seconds.
fn calibration_kernel() -> f64 {
    const SETS: usize = 32;
    const WAYS: usize = 8;
    static STREAM: OnceLock<Vec<u8>> = OnceLock::new();
    let stream = STREAM.get_or_init(|| {
        let push = |out: &mut Vec<u8>, mut v: u64| loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        };
        let mut out = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let data = x.is_multiple_of(3);
            push(&mut out, u64::from(data));
            push(&mut out, if x.is_multiple_of(64) { 4096 } else { 4 });
            if data {
                push(&mut out, (x >> 8) % 256 * 4);
            }
        }
        out
    });
    let mut valid = [[false; WAYS]; SETS];
    let mut tags = [[0u64; WAYS]; SETS];
    let mut stamps = [[0u64; WAYS]; SETS];
    let (mut hits, mut tick) = (0u64, 0u64);
    let start = Instant::now();
    for _ in 0..2 {
        let (mut pos, mut pc, mut addr) = (0, 0u64, 0u64);
        while pos < stream.len() {
            let mut read = || {
                let mut v = 0u64;
                let mut shift = 0;
                loop {
                    let b = stream[pos];
                    pos += 1;
                    v |= u64::from(b & 0x7f) << shift;
                    if b & 0x80 == 0 {
                        break v;
                    }
                    shift += 7;
                }
            };
            let flag = read();
            pc = pc.wrapping_add(read());
            let data = if flag & 1 == 1 {
                addr = addr.wrapping_add(read());
                Some(addr)
            } else {
                None
            };
            for a in std::iter::once(pc).chain(data) {
                tick += 1;
                let line = a >> 5;
                let set = (line as usize) & (SETS - 1);
                let tag = line >> 5;
                let mut hit = None;
                for w in 0..WAYS {
                    if valid[set][w] && tags[set][w] == tag {
                        hit = Some(w);
                    }
                }
                let w = match hit {
                    Some(w) => {
                        hits += 1;
                        w
                    }
                    None => {
                        let mut v = 0;
                        for w in 1..WAYS {
                            if !valid[set][w] || stamps[set][w] < stamps[set][v] {
                                v = w;
                            }
                        }
                        valid[set][v] = true;
                        tags[set][v] = tag;
                        v
                    }
                };
                stamps[set][w] = tick;
            }
        }
    }
    std::hint::black_box(hits);
    start.elapsed().as_secs_f64()
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let value = f();
    (t.elapsed().as_secs_f64(), value)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `f`'s per-operation time in nanoseconds over `samples`
/// calls, each of which performs `ops` operations.
pub fn ns_per_op(samples: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples.max(1))
        .map(|_| timed(&mut f).0 * 1e9 / ops.max(1) as f64)
        .collect();
    median(&times)
}

/// 64-bit FNV-1a, the digest of every correctness gate.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn word(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A seed-derived stream of independent 64-bit values (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A size field of this process's `/proc/self/status` (`VmRSS:`,
/// `VmHWM:`) in MB; NaN where the file is missing.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, when the checkout is a
/// git work tree; `unknown` otherwise.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// `debug` or `release`, as this binary was built.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
