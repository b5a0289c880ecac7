//! The four workloads, their pre-generated inputs, and the result of one timed loop
//! with the end-to-end metrics derived from it.

use std::time::Instant;

use dbring::{Update, Value};

use crate::gen::{self, Op, Shape};
use crate::oracle::Oracle;
use crate::spec::{self, Spec};
use crate::stats;

pub const TENANT: &str = "t";

/// How many point reads one read sample times: a ~100 ns call is below one clock
/// read, so reads are timed in groups.
pub const READ_GROUP: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `Ring` embedded in the harness process.
    Embedded,
    /// `dbring-serve` child process over loopback TCP.
    Wire,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub spec: &'static Spec,
    /// Customers (dashboard) or join-key range (Example 1.3).
    pub domain: usize,
    pub initial: usize,
    pub stream: usize,
    /// Updates per `Ring::apply_batch`; `0` means one `Ring::apply` per update.
    pub batch: usize,
    /// Whether `ring.reader()` is taken before timing and a reader thread runs.
    pub serve: bool,
}

impl Workload {
    pub fn per_tuple(&self) -> bool {
        self.batch == 0
    }

    /// Updates per timed write unit: one batch, or sixteen `apply` calls of which
    /// the last is sampled (so timing costs the per-tuple path < 1 %).
    pub fn unit(&self) -> usize {
        if self.per_tuple() {
            16
        } else {
            self.batch
        }
    }
}

/// Sizes are frozen here; the timed phases last `run_seconds` of `BENCHMARK.json`.
/// A stream is short enough that the embedded workloads replay it whole within one
/// measurement window (1/40 of the run), so every window sees every phase of a pass.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dash-batch",
        kind: Kind::Embedded,
        spec: &spec::DASH,
        domain: 10_000,
        initial: 400_000,
        stream: 131_072,
        batch: 512,
        serve: false,
    },
    Workload {
        name: "join-tuple",
        kind: Kind::Embedded,
        spec: &spec::JOIN,
        domain: 1_000,
        initial: 100_000,
        stream: 16_384,
        batch: 0,
        serve: false,
    },
    Workload {
        name: "dash-serve",
        kind: Kind::Embedded,
        spec: &spec::DASH,
        domain: 10_000,
        initial: 400_000,
        stream: 131_072,
        batch: 64,
        serve: true,
    },
    Workload {
        name: "wire-mixed",
        kind: Kind::Wire,
        spec: &spec::DASH,
        domain: 200,
        initial: 2_000,
        stream: 32_768,
        batch: 1,
        serve: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run feeds the system, generated from the seed before any timing.
pub struct Data {
    pub initial_ops: Vec<Op>,
    pub stream_ops: Vec<Op>,
    pub initial: Vec<Update>,
    pub stream: Vec<Update>,
    /// Group keys for point reads, cycled.
    pub key_ints: Vec<Vec<i64>>,
    pub keys: Vec<Vec<Value>>,
    pub stream_hash: u64,
    pub gen_s: f64,
}

impl Data {
    /// `shrink` divides the data sizes (1 for a real run, more for `--quick`).
    pub fn generate(w: &Workload, seed: u64, shrink: usize) -> Data {
        let started = Instant::now();
        let unit = w.unit().max(1);
        // Whole write units only, so a cyclic replay never splits a batch.
        let stream_len = (w.stream / shrink).max(unit * 4) / unit * unit;
        let initial_len = (w.initial / shrink).max(64);
        // Distinct sub-seeds per part: (seed, part) -> one splitmix64 step.
        let sub = |part: u64| gen::SplitMix64::new(seed ^ (part << 56)).next_u64();
        let initial_ops = w.spec.stream(sub(1), w.domain, initial_len, Shape::Growing);
        let stream_ops = w.spec.stream(sub(2), w.domain, stream_len, Shape::Churning);
        let key_ints = w.spec.read_keys(sub(3), w.domain, 4096);
        let keys = key_ints
            .iter()
            .map(|k| k.iter().map(|&v| Value::int(v)).collect())
            .collect();
        let stream_hash =
            gen::stream_hash(&initial_ops) ^ gen::stream_hash(&stream_ops).rotate_left(1);
        Data {
            initial: gen::to_updates(&initial_ops, w.spec.relations),
            stream: gen::to_updates(&stream_ops, w.spec.relations),
            initial_ops,
            stream_ops,
            key_ints,
            keys,
            stream_hash,
            gen_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The oracle after the initial load plus the first `applied` ops of the
    /// cyclically replayed stream plus `markers` freshness-marker rows.
    pub fn oracle(&self, w: &Workload, initial: &[Op], applied: u64, markers: u64) -> Oracle {
        let mut oracle = Oracle::new(w.spec.schema);
        oracle.apply_all(initial, 1);
        let len = self.stream_ops.len() as u64;
        let passes = (applied / len) as i64;
        if passes > 0 {
            oracle.apply_all(&self.stream_ops, passes);
        }
        oracle.apply_all(&self.stream_ops[..(applied % len) as usize], 1);
        if markers > 0 {
            oracle.apply(&spec::marker_op(), markers as i64);
        }
        oracle
    }
}

/// One timed thing: when it started and how long it took, in nanoseconds on the
/// run's `Clock`.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at: u64,
    pub ns: u64,
}

/// One write unit: `start..end` covers all its updates, `call..end` the one write
/// call that is sampled for latency (the whole unit, except for per-tuple writes).
#[derive(Clone, Copy, Debug)]
pub struct WriteUnit {
    pub start: u64,
    pub call: u64,
    pub end: u64,
}

/// What one timed loop measured.
#[derive(Default)]
pub struct LoopResult {
    /// Stream updates committed, and how many each write unit holds.
    pub updates: u64,
    pub unit: usize,
    pub writes: Vec<WriteUnit>,
    /// One sample per group of `read_group` point reads.
    pub read_group: usize,
    pub reads: Vec<Sample>,
    /// Write-call start to the first read that observed it.
    pub visible: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing, where there is one.
    pub n: Option<u64>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n: None,
    }
}

/// A run is cut into this many windows of equal length.
const WINDOWS: u64 = 40;
/// Windows with fewer samples than this are left out.
const MIN_WINDOW_SAMPLES: usize = 5;
/// Fewer usable windows than this and the statistic is taken over the whole run.
const MIN_WINDOWS: usize = 8;

/// The calm-window estimate of a statistic: `stat` is taken over each window of the
/// run and the best decile of windows is reported (`lower_is_better` says which end
/// is best). The box's neighbours slow the whole VM for seconds at a time; a figure
/// over the whole run mostly measures how many such bursts it met, while the best
/// decile of 40 windows measures the system and still needs four calm windows, not
/// one lucky one. Falls back to the whole run when windows hold too few samples.
fn calm(
    samples: &[Sample],
    span: (u64, u64),
    lower_is_better: bool,
    stat: impl Fn(&[Sample]) -> f64,
) -> f64 {
    let (from, to) = span;
    let width = ((to - from) / WINDOWS).max(1);
    let mut windows: Vec<Vec<Sample>> = vec![Vec::new(); WINDOWS as usize];
    for s in samples {
        let w = (s.at.saturating_sub(from) / width).min(WINDOWS - 1);
        windows[w as usize].push(*s);
    }
    let mut per: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| stat(w))
        .collect();
    if per.len() < MIN_WINDOWS {
        return stat(samples);
    }
    per.sort_by(f64::total_cmp);
    let p = if lower_is_better { 0.10 } else { 0.90 };
    stats::percentile_sorted(&per, p)
}

pub fn median_ns(samples: &[Sample]) -> f64 {
    let mut v: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    stats::p50_p99(&mut v).0 as f64
}

fn p99_ns(samples: &[Sample]) -> f64 {
    let mut v: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    stats::p50_p99(&mut v).1 as f64
}

/// Things per second of time spent inside the samples (`each` things per sample).
fn rate(samples: &[Sample], each: usize) -> f64 {
    let ns: u64 = samples.iter().map(|s| s.ns).sum();
    (samples.len() * each) as f64 / (ns as f64 / 1e9)
}

impl LoopResult {
    /// Stream updates per second of time spent inside write calls, over the whole run.
    pub fn ingest_rate(&self) -> f64 {
        rate(&self.units(), self.unit)
    }

    fn units(&self) -> Vec<Sample> {
        let unit = |w: &WriteUnit| Sample {
            at: w.start,
            ns: w.end - w.start,
        };
        self.writes.iter().map(unit).collect()
    }

    /// The sampled write calls.
    pub fn calls(&self) -> Vec<Sample> {
        let call = |w: &WriteUnit| Sample {
            at: w.call,
            ns: w.end - w.call,
        };
        self.writes.iter().map(call).collect()
    }

    /// The loop-derived end-to-end metrics (everything but `setup_s` and
    /// `loaded_rss_mb`, which come from set-up). Rates and medians are calm-window
    /// estimates (see [`calm`]); a 99th percentile is taken over the whole run, bursts
    /// included, because a tail is what bursts make.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let span = (
            self.writes.first().map_or(0, |w| w.start),
            self.writes.last().map_or(1, |w| w.end),
        );
        let timing = |name: &str, ns: f64, samples: &[Sample], per: f64| Metric {
            n: Some(samples.len() as u64),
            ..metric(name, ns / per, "us")
        };
        let p50 = |name: &str, samples: &[Sample], per: f64| {
            timing(name, calm(samples, span, true, median_ns), samples, per)
        };
        let p99 =
            |name: &str, samples: &[Sample], per: f64| timing(name, p99_ns(samples), samples, per);
        let (units, calls) = (self.units(), self.calls());
        let per_read = 1e3 * self.read_group as f64;
        vec![
            metric(
                "ingest_upd_per_s",
                calm(&units, span, false, |w| rate(w, self.unit)),
                "1/s",
            ),
            p50("write_p50_us", &calls, 1e3),
            p99("write_p99_us", &calls, 1e3),
            metric(
                "reads_per_s",
                calm(&self.reads, span, false, |w| rate(w, self.read_group)),
                "1/s",
            ),
            p50("read_p50_us", &self.reads, per_read),
            p99("read_p99_us", &self.reads, per_read),
            p50("visible_p50_us", &self.visible, 1e3),
            p99("visible_p99_us", &self.visible, 1e3),
        ]
    }
}

/// A fixed arithmetic loop (xorshift over 2^22 steps) timed in nanoseconds: the
/// run's own yardstick for "is this box as fast now as a minute ago".
pub fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..(1u32 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64
}

/// Resident-set figures of a process from `/proc/<pid>/status`, in MiB (`VmRSS`,
/// `VmHWM`) or as a count (`Threads`).
pub fn proc_status(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let number: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(if line.ends_with("kB") {
        number / 1024.0
    } else {
        number
    })
}
