//! Shared plumbing: seeded inputs, sample statistics, the result line,
//! fingerprints and process memory.

use std::fmt::Write as _;
use std::time::{Duration, Instant as Wall};

use strandfs_units::prng::mix_seed;
use strandfs_units::Prng;

/// A seeded generator for one named input stream of a workload.
pub fn rng(seed: u64, stream: u64) -> Prng {
    Prng::seed_from_u64(mix_seed(seed, stream))
}

/// Microseconds in a wall-clock duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall-clock seconds since `t0`.
pub fn since(t0: Wall) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A pool of samples with nearest-rank quantiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `q`-quantile (`q` in 0..=1); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Samples strictly above the nearest-rank `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.0.len();
        n - ((q * n as f64).ceil() as usize).min(n)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// A reference operation: fixed work in pure `std`, no allocation and no
/// strandfs code, timed between the benchmark's own calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefOp {
    /// Sort 4096 seeded words: branchy and cache-resident, like PLAY
    /// compile and the round loop.
    Sort,
    /// FNV-1a over 64 KiB, a byte at a time (the run fingerprint's
    /// hash): like recording (stamps, pad copies, sector stores) and
    /// verified serving.
    Hash,
}

impl RefOp {
    /// Operations per second that count as speed 1.
    pub const fn ops_per_s(self) -> f64 {
        match self {
            RefOp::Sort => 10_000.0,
            RefOp::Hash => 8_000.0,
        }
    }
}

/// Reference operations after each set-up repetition.
pub const SETUP_REF_OPS: usize = 8;

/// Reference operations timed alongside a phase of the run. On a shared
/// virtual machine a single-threaded process speeds up and slows down
/// by a third or more in phases of seconds to minutes; each kind of
/// code swings with the reference operation that resembles it. Dividing
/// a rate by the phase's reference speed (or multiplying a time by it)
/// removes the host's swing and keeps every change to strandfs in full,
/// because the references run none of its code.
#[derive(Debug)]
pub struct Reference {
    words: Vec<u64>,
    state: u64,
    /// Operation times, indexed by `RefOp as usize`.
    times: [Samples; 2],
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            words: vec![0; 8192],
            state: 0x9e37_79b9_7f4a_7c15,
            times: Default::default(),
        }
    }
}

impl Reference {
    /// Run and time one operation of `op`.
    pub fn op(&mut self, op: RefOp) {
        let c = Wall::now();
        match op {
            RefOp::Sort => {
                let words = &mut self.words[..4096];
                for w in words.iter_mut() {
                    self.state ^= self.state << 13;
                    self.state ^= self.state >> 7;
                    self.state ^= self.state << 17;
                    *w = self.state % 100_000;
                }
                words.sort_unstable();
                std::hint::black_box(words[2048]);
            }
            RefOp::Hash => {
                let mut f = Fingerprint::default();
                for &w in std::hint::black_box(&self.words) {
                    f.add(w);
                }
                std::hint::black_box(f.get());
            }
        }
        self.times[op as usize].push(since(c));
    }

    /// Speed of the phase for `op`: its median operation rate over
    /// [`RefOp::ops_per_s`]; 1 when no operation ran.
    pub fn speed(&self, op: RefOp) -> f64 {
        let t = &self.times[op as usize];
        if t.is_empty() {
            return 1.0;
        }
        1.0 / (t.median() * op.ops_per_s())
    }
}

/// Throughput measured as the median over fixed wall-clock windows, so
/// a stall from outside the process moves one window, not the result.
#[derive(Debug)]
pub struct WindowRate {
    window_s: f64,
    units: f64,
    secs: f64,
    rates: Samples,
}

impl WindowRate {
    /// Windows of at least `window_s` seconds of measured time.
    pub fn new(window_s: f64) -> WindowRate {
        WindowRate {
            window_s,
            units: 0.0,
            secs: 0.0,
            rates: Samples::default(),
        }
    }

    /// Account `units` of work done in `secs` seconds.
    pub fn add(&mut self, units: f64, secs: f64) {
        self.units += units;
        self.secs += secs;
        if self.secs >= self.window_s {
            self.rates.push(self.units / self.secs);
            self.units = 0.0;
            self.secs = 0.0;
        }
    }

    /// Median window rate (a partial last window counts only when no
    /// full window closed).
    pub fn median(&self) -> f64 {
        if self.rates.is_empty() && self.secs > 0.0 {
            return self.units / self.secs;
        }
        self.rates.median()
    }

    /// Closed windows.
    pub fn windows(&self) -> usize {
        self.rates.len()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (recorded or scheduled blocks).
    pub attempted: u64,
    /// Operations that failed (late, dropped, errored or corrupt).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable side notes (sample counts, fingerprints) for
    /// standard error.
    pub notes: Vec<String>,
    /// Virtual-time fingerprint of the run's deterministic reports.
    pub fingerprint: u64,
}

impl Outcome {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Append a p50/p99 pair and note the sample count behind it.
    pub fn push_quantiles(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.push(&format!("{name}.p50"), s.median(), unit);
        self.push(&format!("{name}.p99"), s.quantile(0.99), unit);
        self.notes.push(format!(
            "{name}: n={} samples, {} beyond p99",
            s.len(),
            s.beyond(0.99)
        ));
    }

    /// Append the median of the wall-clock times `s` as `{name}.p50`,
    /// stated at reference speed `speed`; the measured median and p99 go
    /// to the notes.
    pub fn push_median_at(&mut self, name: &str, s: &Samples, unit: &'static str, speed: f64) {
        self.push(&format!("{name}.p50"), s.median() * speed, unit);
        self.notes.push(format!(
            "{name}: n={} samples, as measured p50={:.3} p99={:.3} {unit} (p99 not gated), \
             speed {speed:.3}",
            s.len(),
            s.median(),
            s.quantile(0.99)
        ));
    }

    /// Append a wall-clock rate stated at reference speed `speed` (the
    /// measured rate divided by it); the measured value goes to the notes.
    pub fn push_rate_at(&mut self, name: &str, measured: f64, unit: &'static str, speed: f64) {
        self.push(name, measured / speed, unit);
        self.notes.push(format!(
            "{name}: {measured:.4} {unit} as measured, speed {speed:.3}"
        ));
    }

    /// Append a wall-clock time stated at reference speed `speed` (the
    /// measured time multiplied by it); the measured value goes to the
    /// notes.
    pub fn push_time_at(&mut self, name: &str, measured: f64, unit: &'static str, speed: f64) {
        self.push(name, measured * speed, unit);
        self.notes.push(format!(
            "{name}: {measured:.4} {unit} as measured, speed {speed:.3}"
        ));
    }

    /// The metric named `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The machine-readable result line.
    pub fn result_line(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if !metric.value.is_finite() {
                return Err(format!("metric {} is not finite", metric.name));
            }
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.value,
                metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        ))
    }
}

/// FNV-1a over 64-bit words: the fingerprint of a run's virtual-time
/// reports.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Fold one word in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Machine-noise counters for the notes: this process's on-CPU and
/// run-queue wait seconds (`/proc/self/schedstat`) and the host's steal
/// ticks (`/proc/stat`), when the kernel reports them.
pub fn sched_counters() -> (f64, f64, u64) {
    let sched: Vec<f64> = std::fs::read_to_string("/proc/self/schedstat")
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0);
    (
        sched.first().copied().unwrap_or(0.0) / 1e9,
        sched.get(1).copied().unwrap_or(0.0) / 1e9,
        steal,
    )
}

/// Fail a check with a message.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
