//! One run of one workload: the untraced run the end-to-end metrics come from, and
//! the traced run every per-layer metric is derived from.

use std::path::PathBuf;

use crate::trace::{totals_by_name, Clock, NameTotals, Tracer};
use crate::workload::{
    calibrate, median_ns, metric, Data, Kind, LoopResult, Metric, Sample, Workload,
};
use crate::{embedded, stats, wire};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Updates after which the traced loop takes the exact `ExecStats`.
const EXACT_AFTER: u64 = 16_384;

/// Rows the wire side loads at set-up when it is only probed (embedded workloads).
const WIRE_PROBE_LOAD: usize = 2_000;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Options {
    fn budget_ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }

    /// `--quick` divides every data size by this.
    fn shrink(&self) -> usize {
        if self.quick {
            20
        } else {
            1
        }
    }
}

/// One finished run: the metric pool plus the counters of the result line.
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// `Err` carries the first oracle mismatch.
    pub correct: Result<(), String>,
    pub notes: Vec<String>,
}

fn noisy_note(before: f64, after: f64) -> Option<String> {
    let drift = (after - before).abs() / before;
    (drift > 0.10).then(|| format!("noisy: calibration loop drifted {:.0} %", drift * 100.0))
}

/// The end-to-end run: tracing off, set-up repeated, one timed loop, oracle check.
pub fn run_untraced(w: &'static Workload, opts: &Options) -> Result<RunOutput, String> {
    let calib = calibrate();
    let data = Data::generate(w, opts.seed, opts.shrink());
    let clock = Clock::start();
    let budget = opts.budget_ns(1.0);
    let (result, setups, rss_mb, correct) = match w.kind {
        Kind::Embedded => {
            // The first set-up is the one measured for memory and kept for the run.
            let mut sys = embedded::setup(w, &data)?;
            let mut setups = vec![sys.setup_s];
            for _ in 1..SETUPS {
                setups.push(embedded::setup(w, &data)?.setup_s);
            }
            let result = embedded::run_loop(w, &mut sys, &data, clock, budget, None);
            (result, setups, sys.rss_mb, embedded::check(w, &sys, &data))
        }
        Kind::Wire => {
            let load = data.initial_ops.len();
            let mut sys = wire::setup(w, &data, &opts.server_bin, load)?;
            let mut setups = vec![sys.setup_s];
            for _ in 1..SETUPS {
                let extra = wire::setup(w, &data, &opts.server_bin, load)?;
                setups.push(extra.setup_s);
                extra.server.shutdown().map_err(|e| e.to_string())?;
            }
            let result = wire::run_loop(w, &mut sys, &data, clock, budget, None)?;
            let correct = wire::check(w, &sys, &data).map(|_| ());
            let rss_mb = sys.rss_mb;
            sys.server.shutdown().map_err(|e| e.to_string())?;
            (result, setups, rss_mb, correct)
        }
    };
    let mut metrics = vec![
        metric("setup_s", stats::median_f64(&setups), "s"),
        metric("loaded_rss_mb", rss_mb, "MiB"),
    ];
    metrics.extend(result.end_to_end());
    let mut notes = vec![format!(
        "stream hash {:016x}, generated in {:.3} s; {} updates, {:.0} per second of write calls over the whole run",
        data.stream_hash,
        data.gen_s,
        result.updates,
        result.ingest_rate()
    )];
    notes.extend(noisy_note(calib, calibrate()));
    Ok(RunOutput {
        metrics,
        attempted: result.attempted,
        failed: result.failed,
        correct,
        notes,
    })
}

fn p50_us(samples: &[Sample]) -> f64 {
    median_ns(samples) / 1e3
}

/// What the embedded half of a traced run hands on.
struct EmbeddedLedger {
    sys: embedded::Embedded,
    traced: LoopResult,
    untraced: LoopResult,
    correct: Result<(), String>,
    /// In-process p50 of one write per update, and of one snapshot read.
    write_us: f64,
    read_us: f64,
}

/// Set-up, the traced loop, the same loop untraced, the probes and the oracle check
/// on an embedded ring; pushes every `agca`/`compiler`/`relations`/`runtime`/`core`
/// metric. `shares` are the traced and untraced loops' parts of `--seconds`.
fn embedded_ledger(
    w: &'static Workload,
    opts: &Options,
    data: &Data,
    clock: Clock,
    tracer: &mut Tracer,
    shares: (f64, f64),
    metrics: &mut Vec<Metric>,
) -> Result<EmbeddedLedger, String> {
    metrics.extend(embedded::compile_probe(w.spec, clock, tracer));
    let mut sys = embedded::setup(w, data)?;
    let mut replicas = embedded::Replicas::new(w, data)?;
    let before = embedded::ring_stats(&sys.ring);
    let exact_after = EXACT_AFTER / if opts.quick { 8 } else { 1 };
    let mut recording = embedded::Traced {
        tracer,
        replicas: &mut replicas,
        exact_after,
        exact: None,
        sample: if w.per_tuple() { 4 } else { 1 },
    };
    let budget = opts.budget_ns(shares.0);
    let traced = embedded::run_loop(w, &mut sys, data, clock, budget, Some(&mut recording));
    let exact = recording
        .exact
        .expect("the traced loop runs until the exact point");
    let untraced = embedded::run_loop(w, &mut sys, data, clock, opts.budget_ns(shares.1), None);
    let commits = if opts.quick { 16 } else { 64 };
    let (publish, read_ns) = embedded::publish_probe(w, &sys, data, clock, commits);
    metrics.extend(publish);
    let budget = opts.budget_ns(0.10);
    metrics.extend(embedded::config_probe(w, &mut sys, data, clock, budget));
    let correct = embedded::check(w, &sys, data);

    let totals = totals_by_name(tracer.spans());
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Updates under one recorded span: a whole batch, or the one sampled tuple.
    let width = if w.per_tuple() { 1.0 } else { w.batch as f64 };
    let per_upd = |t: NameTotals| t.total_ns as f64 / (t.count as f64 * width).max(1.0);
    let per_view = |name: &str| of(name).total_ns as f64 / of(name).count.max(1) as f64 / 1e3;
    let root = if w.per_tuple() {
        "core.apply"
    } else {
        "core.apply_batch"
    };
    let (apply, normalize, base, exec, published) = (
        per_upd(of(root)),
        per_upd(of("relations.normalize")),
        per_upd(of("relations.base_track")),
        per_upd(of("runtime.registry_apply")),
        per_upd(of("runtime.publish")),
    );
    // What the direct per-layer measurements explain of the root; the rest is the
    // facade's own work (validation, routing, touched-view set) plus replica error.
    // `Ring::apply` never normalizes, so there the normalizer is not on the path.
    let on_path_normalize = if w.per_tuple() { 0.0 } else { normalize };
    let accounted = on_path_normalize + base + exec + published;
    let per_exact = |now: u64, then: u64| (now - then) as f64 / exact_after as f64;
    let (now, then) = (exact.stats, before);
    metrics.extend([
        metric("agca.parse_us_per_view", per_view("agca.parse"), "us"),
        metric(
            "compiler.compile_us_per_view",
            per_view("compiler.compile"),
            "us",
        ),
        metric(
            "compiler.lower_us_per_view",
            per_view("compiler.lower"),
            "us",
        ),
        metric("relations.normalize_ns_per_upd", normalize, "ns"),
        metric(
            "relations.distinct_ratio",
            replicas.groups_out as f64 / replicas.updates_in.max(1) as f64,
            "ratio",
        ),
        metric("relations.base_track_ns_per_upd", base, "ns"),
        metric("relations.base_tuples", exact.base_tuples as f64, "count"),
        metric("runtime.exec_ns_per_upd", exec, "ns"),
        metric(
            "runtime.additions_per_upd",
            per_exact(now.additions, then.additions),
            "count",
        ),
        metric(
            "runtime.multiplications_per_upd",
            per_exact(now.multiplications, then.multiplications),
            "count",
        ),
        metric(
            "runtime.enumerated_per_upd",
            per_exact(now.bindings_enumerated, then.bindings_enumerated),
            "count",
        ),
        metric("runtime.state_entries", exact.state_entries as f64, "count"),
        metric("runtime.index_entries", exact.index_entries as f64, "count"),
        metric("core.apply_ns_per_upd", apply, "ns"),
        metric("core.self_ns_per_upd", apply - accounted, "ns"),
        metric("bench.accounted_ratio", accounted / apply, "ratio"),
    ]);
    Ok(EmbeddedLedger {
        write_us: p50_us(&traced.calls()) / width,
        read_us: read_ns / 1e3,
        sys,
        traced,
        untraced,
        correct,
    })
}

/// What the wire half of a traced run hands on.
struct WireLedger {
    traced: LoopResult,
    untraced: Option<LoopResult>,
    correct: Result<(), String>,
    setup_s: f64,
    rss_mb: f64,
}

/// Server set-up, the two-connection loop with a span per round trip (and, when the
/// workload is a wire workload, the same loop untraced), the probes and the oracle
/// check; pushes every `server` metric. `inproc` is the embedded ledger's cost of
/// one write per update and of one read, which the overheads are taken against.
fn wire_ledger(
    w: &'static Workload,
    opts: &Options,
    data: &Data,
    clock: Clock,
    tracer: &mut Tracer,
    inproc: (f64, f64),
    metrics: &mut Vec<Metric>,
) -> Result<WireLedger, String> {
    let own = w.kind == Kind::Wire;
    let load = if own {
        data.initial_ops.len()
    } else {
        data.initial_ops.len().min(WIRE_PROBE_LOAD)
    };
    let mut sys = wire::setup(w, data, &opts.server_bin, load)?;
    let (ingested0, epoch0) = wire::check(w, &sys, data)?;
    let publish0 = wire::publish_ns(&sys)?;
    let started = clock.now();
    let budget = opts.budget_ns(if own { 0.30 } else { 0.20 });
    let traced = wire::run_loop(w, &mut sys, data, clock, budget, Some(tracer))?;
    let wall = (clock.now() - started) as f64;
    let publish1 = wire::publish_ns(&sys)?;
    let untraced = if own {
        let budget = opts.budget_ns(0.15);
        Some(wire::run_loop(w, &mut sys, data, clock, budget, None)?)
    } else {
        None
    };
    metrics.extend(wire::probe(&sys, clock, opts.budget_ns(0.05))?);
    let correct = wire::check(w, &sys, data);
    if let Ok((ingested1, epoch1)) = correct {
        // Epochs count publications; between the two checks every commit is one.
        let commits = (epoch1 - epoch0).max(1) as f64;
        let per_commit = (ingested1 - ingested0) as f64 / commits;
        metrics.push(metric("server.upd_per_commit", per_commit, "count"));
    }
    let (write_us, read_us) = inproc;
    metrics.extend([
        metric(
            "server.write_overhead_us",
            p50_us(&traced.calls()) - write_us,
            "us",
        ),
        metric(
            "server.read_overhead_us",
            p50_us(&traced.reads) - read_us,
            "us",
        ),
        metric(
            "server.publish_share",
            (publish1 - publish0) / wall,
            "ratio",
        ),
        metric("server.load_upd_per_s", sys.load_upd_per_s, "1/s"),
    ]);
    sys.server.shutdown().map_err(|e| e.to_string())?;
    Ok(WireLedger {
        traced,
        untraced,
        correct: correct.map(|_| ()),
        setup_s: sys.setup_s,
        rss_mb: sys.rss_mb,
    })
}

/// The traced run: the embedded ledger and the wire ledger, both at this workload's
/// operating point (its schema, data, batch size and serving mode). Every per-layer
/// metric is derived from the spans and counts taken here. The workload's kind
/// decides which loop is its own: that loop's end-to-end figures join the pool (for
/// metrics demoted from the gated list), and `bench.trace_overhead_ratio` compares
/// that loop traced and untraced.
pub fn run_traced(w: &'static Workload, opts: &Options) -> Result<RunOutput, String> {
    let calib = calibrate();
    let data = Data::generate(w, opts.seed, opts.shrink());
    let clock = Clock::start();
    let mut tracer = Tracer::new(1 << 20);
    let mut metrics = vec![metric("bench.gen_s", data.gen_s, "s")];
    let shares = match w.kind {
        Kind::Embedded => (0.30, 0.15),
        Kind::Wire => (0.15, 0.05),
    };
    let e = embedded_ledger(w, opts, &data, clock, &mut tracer, shares, &mut metrics)?;
    let inproc = (e.write_us, e.read_us);
    let n = wire_ledger(w, opts, &data, clock, &mut tracer, inproc, &mut metrics)?;

    let (own_traced, own_untraced, setup_s, rss_mb) = match &n.untraced {
        Some(untraced) => (&n.traced, untraced, n.setup_s, n.rss_mb),
        None => (&e.traced, &e.untraced, e.sys.setup_s, e.sys.rss_mb),
    };
    metrics.extend([
        metric(
            "bench.trace_overhead_ratio",
            own_traced.ingest_rate() / own_untraced.ingest_rate(),
            "ratio",
        ),
        metric("setup_s", setup_s, "s"),
        metric("loaded_rss_mb", rss_mb, "MiB"),
    ]);
    metrics.extend(own_traced.end_to_end());
    let calib_after = calibrate();
    metrics.push(metric("bench.calib_ns", calib.min(calib_after), "ns"));

    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let mut notes = vec![format!(
        "{} spans in {}",
        tracer.spans().len(),
        trace_path.display()
    )];
    notes.extend(noisy_note(calib, calib_after));
    let loops = [
        Some(&e.traced),
        Some(&e.untraced),
        Some(&n.traced),
        n.untraced.as_ref(),
    ];
    Ok(RunOutput {
        metrics,
        attempted: loops.iter().flatten().map(|l| l.attempted).sum(),
        failed: loops.iter().flatten().map(|l| l.failed).sum(),
        correct: e.correct.and(n.correct),
        notes,
    })
}
