//! The embedded side: a `Ring` inside the harness process. Set-up, the timed loop
//! (plain for the end-to-end run, composed out of public per-layer calls with spans
//! for the traced run) and the per-layer probes.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use dbring::{
    boxed_engine, compile, lower, parse_sql, BatchNormalizer, Catalog, DeltaBatch, EngineRegistry,
    ExecStats, Ring, RingBuilder, RingHandle, StorageBackend, Update, Value, ViewDef, ViewId,
};
use dbring_relations::Snapshot;

use crate::oracle::{first_mismatch, Table};
use crate::spec::Spec;
use crate::stats;
use crate::trace::{Clock, Tracer, NO_PARENT};
use crate::workload::{
    metric, proc_status, Data, LoopResult, Metric, Sample, Workload, WriteUnit, READ_GROUP,
};

pub fn catalog(spec: &Spec) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, cols) in spec.relations {
        catalog
            .declare(*name, cols)
            .expect("distinct relation names");
    }
    catalog
}

/// A loaded ring plus the replay position in the cyclic stream.
pub struct Embedded {
    pub ring: Ring,
    pub read_view: ViewId,
    /// Reader handle, taken before timing on serving workloads.
    pub handle: Option<RingHandle>,
    /// Stream updates applied so far; the next one is `applied % stream.len()`.
    pub applied: u64,
    pub setup_s: f64,
    /// `VmRSS` growth of this process across set-up.
    pub rss_mb: f64,
}

/// Updates per call of the initial bulk load.
const LOAD_BATCH: usize = 512;

/// One write call as the workload makes it.
fn write_unit(ring: &mut Ring, w: &Workload, chunk: &[Update]) -> Result<(), dbring::Error> {
    if w.per_tuple() {
        chunk.iter().try_for_each(|u| ring.apply(u))
    } else {
        ring.apply_batch(chunk)
    }
}

/// Build the default ring (no knobs), create every view, bulk-load the initial data
/// (`apply_batch` of 512, or `apply` on the per-tuple workload), and take the reader
/// if the workload serves.
pub fn setup(w: &Workload, data: &Data) -> Result<Embedded, String> {
    let rss_before = proc_status("self", "VmRSS").unwrap_or(0.0);
    let clock = Clock::start();
    let mut ring = RingBuilder::new(catalog(w.spec)).build();
    for (name, sql) in w.spec.views {
        ring.create_view(*name, ViewDef::Sql(sql))
            .map_err(|e| format!("create_view {name}: {e}"))?;
    }
    for chunk in data.initial.chunks(LOAD_BATCH) {
        write_unit(&mut ring, w, chunk).map_err(|e| format!("initial load: {e}"))?;
    }
    let handle = w.serve.then(|| ring.reader());
    let setup_s = clock.now() as f64 / 1e9;
    let rss_mb = proc_status("self", "VmRSS").unwrap_or(0.0) - rss_before;
    let read_view = ring
        .view_id(w.spec.read_view)
        .expect("read view was created");
    Ok(Embedded {
        ring,
        read_view,
        handle,
        applied: 0,
        setup_s,
        rss_mb,
    })
}

/// What the reader thread of a serving workload brings back.
#[derive(Default)]
struct ReaderResult {
    samples: Vec<Sample>,
    /// `(ingested, time)` each time a snapshot showed a new `ingested` count.
    seen: Vec<(u64, u64)>,
    failed: u64,
}

/// Loops `snapshot_named` + `value` on Zipf keys until told to stop, noting the time
/// whenever the snapshot's `ingested` count moves (freshness detection).
fn reader_loop(
    handle: &RingHandle,
    view: &str,
    keys: &[Vec<Value>],
    clock: Clock,
    stop: &AtomicBool,
) -> ReaderResult {
    let mut out = ReaderResult {
        samples: Vec::with_capacity(1 << 22),
        ..ReaderResult::default()
    };
    let mut last = 0u64;
    let mut k = 0usize;
    let mut prev = clock.now();
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..READ_GROUP {
            match handle.snapshot_named(view) {
                Ok(snapshot) => {
                    black_box(snapshot.value(&keys[k]));
                    let ingested = snapshot.ingested();
                    if ingested != last {
                        // Published prefixes only ever grow.
                        out.failed += (ingested < last) as u64;
                        last = ingested;
                        out.seen.push((ingested, clock.now()));
                    }
                }
                Err(_) => out.failed += 1,
            }
            k = (k + 1) % keys.len();
        }
        let now = clock.now();
        out.samples.push(Sample {
            at: prev,
            ns: now - prev,
        });
        prev = now;
    }
    out
}

/// Replicas the traced loop replays every update into, so that layers without a
/// separate entry point on `Ring` are timed by a direct call on their own type.
pub struct Replicas {
    normalizer: BatchNormalizer,
    base: Snapshot,
    registry: EngineRegistry,
    /// Groups out of / updates into the normalizer.
    pub groups_out: u64,
    pub updates_in: u64,
}

impl Replicas {
    /// A harness-owned base `Snapshot` and `EngineRegistry` (same compiled programs,
    /// same default backend and parallelism as the ring), loaded with the initial data.
    pub fn new(w: &Workload, data: &Data) -> Result<Replicas, String> {
        let catalog = catalog(w.spec);
        let mut registry = EngineRegistry::new();
        for (name, sql) in w.spec.views {
            let query = parse_sql(sql, &catalog).map_err(|e| format!("{name}: {e}"))?;
            let program = compile(&catalog, &query).map_err(|e| format!("{name}: {e}"))?;
            registry.register(boxed_engine(program, StorageBackend::Hash));
        }
        let mut replicas = Replicas {
            normalizer: BatchNormalizer::new(),
            base: Snapshot::new(),
            registry,
            groups_out: 0,
            updates_in: 0,
        };
        for chunk in data.initial.chunks(LOAD_BATCH) {
            let delta = replicas.normalizer.normalize(chunk);
            replicas.base.apply_delta_batch(&delta);
            replicas
                .registry
                .apply_batch(&delta)
                .map_err(|e| format!("replica load: {e}"))?;
        }
        Ok(replicas)
    }
}

/// Counts read at a fixed point of the traced loop, so that they repeat exactly for
/// a seed: the work counters summed over the views, the entries across every view's
/// map hierarchy and its secondary indexes, and the distinct base tuples tracked.
pub struct Exact {
    pub stats: ExecStats,
    pub state_entries: usize,
    pub index_entries: usize,
    pub base_tuples: usize,
}

/// Span recording for the traced loop: the tracer, the replicas, and the counts taken
/// once exactly `exact_after` updates have been applied.
pub struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub replicas: &'a mut Replicas,
    pub exact_after: u64,
    pub exact: Option<Exact>,
    /// 1 in `sample` per-tuple write units is recorded (batches: every one).
    pub sample: u64,
}

/// Distinct `(relation, tuple)` groups a normalized batch holds.
fn delta_len(delta: &DeltaBatch<'_>) -> u64 {
    delta.groups().iter().map(|g| g.deltas().len() as u64).sum()
}

pub fn ring_stats(ring: &Ring) -> ExecStats {
    let mut total = ExecStats::default();
    for view in ring.views() {
        let s = view.stats();
        total.updates += s.updates;
        total.additions += s.additions;
        total.multiplications += s.multiplications;
        total.bindings_enumerated += s.bindings_enumerated;
    }
    total
}

/// The timed loop. Replays the stream cyclically from `sys.applied` until `budget_ns`
/// have passed (and, when traced, at least `exact_after` updates are in).
///
/// Untraced, a write is the workload's own call (`apply_batch` / `apply`). Traced, a
/// batch write is composed as `BatchNormalizer::normalize` + `Ring::apply_delta_batch`
/// (what `Ring::apply_batch` does inside) with a span around each, the publication
/// time read back from `Ring::snapshot_publish_ns`, and the same delta replayed into
/// the replicas.
pub fn run_loop(
    w: &Workload,
    sys: &mut Embedded,
    data: &Data,
    clock: Clock,
    budget_ns: u64,
    mut traced: Option<&mut Traced<'_>>,
) -> LoopResult {
    let stop = AtomicBool::new(false);
    let mut out = LoopResult {
        unit: w.unit(),
        read_group: READ_GROUP,
        ..LoopResult::default()
    };
    out.writes.reserve(1 << 20);
    out.visible.reserve(1 << 20);
    let unit = w.unit();
    let read_every: u64 = if w.per_tuple() { 16 } else { 1 };
    // (ingested after the commit, write-call start) per write, for freshness.
    let mut commits: Vec<(u64, u64)> = Vec::new();

    let reader = std::thread::scope(|scope| {
        let reader = sys.handle.clone().map(|handle| {
            let stop = &stop;
            scope.spawn(move || reader_loop(&handle, w.spec.read_view, &data.keys, clock, stop))
        });

        let started = clock.now();
        let deadline = started + budget_ns;
        let mut units: u64 = 0;
        let mut k = 0usize;
        loop {
            let cur = (sys.applied % data.stream.len() as u64) as usize;
            let chunk = &data.stream[cur..cur + unit];
            let record = match traced.as_deref() {
                Some(t) => units.is_multiple_of(t.sample) && !t.tracer.is_full(),
                None => false,
            };
            // t0: write unit starts; ts: the sampled call starts; t1: it returns;
            // replay: time then spent on the replicas, which no reader waits for.
            let (t0, ts, t1, replay, result) = if w.per_tuple() {
                let (head, last) = chunk.split_at(unit - 1);
                let t0 = clock.now();
                let mut result = head.iter().try_for_each(|u| sys.ring.apply(u));
                let ts = clock.now();
                let p0 = sys.ring.snapshot_publish_ns();
                result = result.and_then(|()| sys.ring.apply(&last[0]));
                let t1 = clock.now();
                if let Some(t) = traced.as_deref_mut() {
                    let publish = sys.ring.snapshot_publish_ns() - p0;
                    t.replay_tuples(clock, head, &last[0], record, (ts, t1, publish), units);
                }
                (t0, ts, t1, clock.now() - t1, result)
            } else if let Some(t) = traced.as_deref_mut() {
                let (t0, t1, replay, result) = t.write_batch(&mut sys.ring, clock, chunk, units);
                (t0, t0, t1, replay, result)
            } else {
                let t0 = clock.now();
                let result = sys.ring.apply_batch(chunk);
                let t1 = clock.now();
                (t0, t0, t1, 0, result)
            };
            out.attempted += 1;
            out.failed += result.is_err() as u64;
            out.updates += unit as u64;
            sys.applied += unit as u64;
            units += 1;
            out.writes.push(WriteUnit {
                start: t0,
                call: ts,
                end: t1,
            });

            if sys.handle.is_some() {
                commits.push((sys.ring.updates_ingested(), ts));
            } else {
                // No reader thread: the embedding thread reads the live view itself.
                let view = sys.ring.view(sys.read_view).expect("read view is live");
                black_box(view.value(&data.keys[k]));
                let t2 = clock.now();
                out.visible.push(Sample {
                    at: ts,
                    ns: t2 - ts - replay,
                });
                if units.is_multiple_of(read_every) {
                    for _ in 0..READ_GROUP {
                        k = (k + 1) % data.keys.len();
                        black_box(view.value(&data.keys[k]));
                    }
                    let t3 = clock.now();
                    out.reads.push(Sample {
                        at: t2,
                        ns: t3 - t2,
                    });
                    out.attempted += 1;
                }
            }

            if let Some(t) = traced.as_deref_mut() {
                if t.exact.is_none() && sys.applied >= t.exact_after {
                    let views = || sys.ring.views();
                    t.exact = Some(Exact {
                        stats: ring_stats(&sys.ring),
                        state_entries: views().map(|v| v.total_entries()).sum(),
                        index_entries: views().map(|v| v.storage_footprint().index_entries).sum(),
                        base_tuples: t.replicas.base.total_support(),
                    });
                }
            }
            let exact_pending = traced.as_deref().is_some_and(|t| t.exact.is_none());
            if t1 >= deadline && !exact_pending {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.map(|r| r.join().expect("reader thread panicked"))
    });

    if let Some(r) = reader {
        out.attempted += r.samples.len() as u64;
        out.failed += r.failed;
        out.reads = r.samples;
        // A write is visible at the first observation whose `ingested` covers it.
        let mut j = 0usize;
        for &(ingested, start) in &commits {
            while j < r.seen.len() && r.seen[j].0 < ingested {
                j += 1;
            }
            match r.seen.get(j) {
                Some(&(_, at)) => out.visible.push(Sample {
                    at: start,
                    ns: at.saturating_sub(start),
                }),
                None => break, // committed after the reader's last look
            }
        }
    }
    out
}

impl Traced<'_> {
    /// One batch write composed from public calls as `Ring::apply_batch` composes it
    /// inside, a span around each, then the same delta replayed into the replicas.
    /// Returns the write's start and end, the time the replay took after it, and
    /// the outcome.
    fn write_batch(
        &mut self,
        ring: &mut Ring,
        clock: Clock,
        chunk: &[Update],
        op: u64,
    ) -> (u64, u64, u64, Result<(), dbring::Error>) {
        let (tracer, r) = (&mut *self.tracer, &mut *self.replicas);
        let t0 = clock.now();
        let delta = r.normalizer.normalize(chunk);
        let tn = clock.now();
        let p0 = ring.snapshot_publish_ns();
        let result = ring.apply_delta_batch(&delta);
        let t1 = clock.now();
        let publish = ring.snapshot_publish_ns() - p0;
        r.updates_in += chunk.len() as u64;
        r.groups_out += delta_len(&delta);
        let root = tracer.record("core.apply_batch", t0, t1, NO_PARENT, op);
        tracer.record("relations.normalize", t0, tn, root, op);
        let adb = tracer.record("core.apply_delta_batch", tn, t1, root, op);
        tracer.record("runtime.publish", t1 - publish, t1, adb, op);
        let b0 = clock.now();
        r.base.apply_delta_batch(&delta);
        let b1 = clock.now();
        let replayed = r.registry.apply_batch(&delta);
        let b2 = clock.now();
        tracer.record("relations.base_track", b0, b1, NO_PARENT, op);
        tracer.record("runtime.registry_apply", b1, b2, NO_PARENT, op);
        let replayed = replayed.map(|_| ()).map_err(Into::into);
        (t0, t1, b2 - t1, result.and(replayed))
    }

    /// Per-tuple counterpart of the batch replay: every update of the unit goes into
    /// the replicas (they must stay in step), only the last is timed and recorded.
    fn replay_tuples(
        &mut self,
        clock: Clock,
        head: &[Update],
        last: &Update,
        record: bool,
        (start, end, publish): (u64, u64, u64),
        op: u64,
    ) {
        let r = &mut *self.replicas;
        for u in head {
            r.base.apply(u);
            let _ = r.registry.apply(u);
        }
        let b0 = clock.now();
        r.base.apply(last);
        let b1 = clock.now();
        let _ = r.registry.apply(last);
        let b2 = clock.now();
        // Off this workload's path (`Ring::apply` never normalizes); probed anyway so
        // the layer has a number at this operating point.
        let delta = r.normalizer.normalize(std::slice::from_ref(last));
        let b3 = clock.now();
        r.updates_in += 1;
        r.groups_out += delta_len(&delta);
        if record {
            let root = self.tracer.record("core.apply", start, end, NO_PARENT, op);
            self.tracer
                .record("runtime.publish", end - publish, end, root, op);
            self.tracer
                .record("relations.base_track", b0, b1, NO_PARENT, op);
            self.tracer
                .record("runtime.registry_apply", b1, b2, NO_PARENT, op);
            self.tracer
                .record("relations.normalize", b2, b3, NO_PARENT, op);
        }
    }
}

fn int_table(table: impl IntoIterator<Item = (Vec<Value>, dbring::Number)>) -> Table {
    table
        .into_iter()
        .filter_map(|(key, value)| {
            let key = key
                .iter()
                .map(|v| v.as_int().expect("integer keys"))
                .collect();
            let value = value.as_i64().expect("integer aggregates");
            (value != 0).then_some((key, value))
        })
        .collect()
}

/// Compares every view of the ring with the oracle; `Err` names the first mismatch.
pub fn check(w: &Workload, sys: &Embedded, data: &Data) -> Result<(), String> {
    let expected = data.oracle(w, &data.initial_ops, sys.applied, 0).tables();
    for (name, _) in w.spec.views {
        let view = sys.ring.view_named(name).map_err(|e| e.to_string())?;
        let actual = int_table(view.table());
        if let Some(diff) = first_mismatch(name, &actual, &expected[name]) {
            return Err(diff);
        }
        // A serving ring must also have published exactly the committed state.
        if let Some(handle) = &sys.handle {
            let snapshot = handle.snapshot_named(name).map_err(|e| e.to_string())?;
            if let Some(diff) = first_mismatch(name, &int_table(snapshot.table()), &expected[name])
            {
                return Err(format!("snapshot {diff}"));
            }
        }
    }
    Ok(())
}

/// Front-end cost per view by direct calls: `parse_sql`, `compile` (which includes
/// the delta transform), `lower`; and the size of what they produce.
pub fn compile_probe(spec: &Spec, clock: Clock, tracer: &mut Tracer) -> Vec<Metric> {
    let catalog = catalog(spec);
    let (mut triggers, mut statements, mut maps) = (0usize, 0usize, 0usize);
    for (op, (name, sql)) in spec.views.iter().enumerate() {
        let t0 = clock.now();
        let query = parse_sql(sql, &catalog).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t1 = clock.now();
        let program = compile(&catalog, &query).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t2 = clock.now();
        black_box(lower(&program).unwrap_or_else(|e| panic!("{name}: {e:?}")));
        let t3 = clock.now();
        tracer.record("agca.parse", t0, t1, NO_PARENT, op as u64);
        tracer.record("compiler.compile", t1, t2, NO_PARENT, op as u64);
        tracer.record("compiler.lower", t2, t3, NO_PARENT, op as u64);
        triggers += program.triggers.len();
        statements += program
            .triggers
            .iter()
            .map(|t| t.statements.len())
            .sum::<usize>();
        maps += program.maps.len();
    }
    vec![
        metric("compiler.triggers", triggers as f64, "count"),
        metric("compiler.statements", statements as f64, "count"),
        metric("compiler.maps", maps as f64, "count"),
    ]
}

/// Publication and snapshot-read cost on a serving clone of the loaded ring: the
/// workload's own write units applied with `reader()` taken, publication time read
/// from `Ring::snapshot_publish_ns`, then `snapshot_named` and `value` timed alone.
/// Also returns the cost of one in-process snapshot read (acquire + get) in ns.
pub fn publish_probe(
    w: &Workload,
    sys: &Embedded,
    data: &Data,
    clock: Clock,
    commits: usize,
) -> (Vec<Metric>, f64) {
    let mut served = sys.ring.clone();
    let handle = served.reader();
    let unit = if w.per_tuple() { 1 } else { w.batch };
    let mut cur = (sys.applied % data.stream.len() as u64) as usize;
    let (mut wall, mut entries) = (0u64, 0u64);
    let p0 = served.snapshot_publish_ns();
    for _ in 0..commits {
        let chunk = &data.stream[cur..cur + unit];
        cur = (cur + unit) % data.stream.len();
        let t0 = clock.now();
        write_unit(&mut served, w, chunk).expect("stream applies cleanly");
        wall += clock.now() - t0;
        // Entries this commit copied: the current size of every view it republished.
        let relations: BTreeSet<&str> = chunk.iter().map(|u| u.relation.as_str()).collect();
        let touched: BTreeSet<ViewId> = relations
            .iter()
            .flat_map(|r| served.readers_of(r))
            .collect();
        for id in touched {
            entries += served.snapshot(id).map(|s| s.len() as u64).unwrap_or(0);
        }
    }
    let publish = (served.snapshot_publish_ns() - p0) as f64;

    let groups = 512;
    let mut acquire = Vec::with_capacity(groups);
    let mut get = Vec::with_capacity(groups);
    let snapshot = handle
        .snapshot_named(w.spec.read_view)
        .expect("read view is published");
    let mut k = 0usize;
    for _ in 0..groups {
        let t0 = clock.now();
        for _ in 0..READ_GROUP {
            black_box(handle.snapshot_named(w.spec.read_view).is_ok());
        }
        let t1 = clock.now();
        for _ in 0..READ_GROUP {
            k = (k + 1) % data.keys.len();
            black_box(snapshot.value(&data.keys[k]));
        }
        let t2 = clock.now();
        acquire.push(t1 - t0);
        get.push(t2 - t1);
    }
    let per_call = |samples: &mut [u64]| stats::p50_p99(samples).0 as f64 / READ_GROUP as f64;
    let (acquire_ns, get_ns) = (per_call(&mut acquire), per_call(&mut get));
    let metrics = vec![
        metric(
            "runtime.publish_ns_per_commit",
            publish / commits as f64,
            "ns",
        ),
        metric("runtime.publish_share", publish / wall as f64, "ratio"),
        metric(
            "runtime.publish_ns_per_entry",
            publish / entries.max(1) as f64,
            "ns",
        ),
        metric(
            "runtime.snapshot_entries",
            served.snapshot_footprint() as f64,
            "count",
        ),
        metric("runtime.acquire_ns", acquire_ns, "ns"),
        metric("runtime.snapshot_get_ns", get_ns, "ns"),
    ];
    (metrics, acquire_ns + get_ns)
}

/// The price of the two ingest knobs, by subtraction of configurations (they have no
/// entry point of their own): the same write units on three replica rings holding the
/// initial data (default, `without_staged_ingest()`, `ingest_threads(1)`), visited in
/// rotating order. Also `core.backfill_ms`: create and drop one more view on the
/// loaded ring.
pub fn config_probe(
    w: &Workload,
    sys: &mut Embedded,
    data: &Data,
    clock: Clock,
    budget_ns: u64,
) -> Vec<Metric> {
    let t0 = clock.now();
    let (name, sql) = w.spec.extra_view;
    let id = sys
        .ring
        .create_view(name, ViewDef::Sql(sql))
        .expect("extra view compiles");
    sys.ring.drop_view(id).expect("extra view drops");
    let backfill_ms = (clock.now() - t0) as f64 / 1e6;

    let build = |builder: RingBuilder| {
        let mut ring = builder.build();
        for (name, sql) in w.spec.views {
            ring.create_view(*name, ViewDef::Sql(sql))
                .expect("view compiles");
        }
        for chunk in data.initial.chunks(LOAD_BATCH) {
            ring.apply_batch(chunk)
                .expect("initial data applies cleanly");
        }
        ring
    };
    let fresh = || RingBuilder::new(catalog(w.spec));
    let mut rings = [
        build(fresh()),
        build(fresh().without_staged_ingest()),
        build(fresh().ingest_threads(1)),
    ];
    let mut spent = [0u64; 3];
    let unit = w.unit();
    let mut cur = (sys.applied % data.stream.len() as u64) as usize;
    let deadline = clock.now() + budget_ns;
    let mut round = 0usize;
    while round < 6 || clock.now() < deadline {
        let chunk = &data.stream[cur..cur + unit];
        cur = (cur + unit) % data.stream.len();
        for i in 0..3 {
            let which = (i + round) % 3;
            let t0 = clock.now();
            write_unit(&mut rings[which], w, chunk).expect("stream applies cleanly");
            spent[which] += clock.now() - t0;
        }
        round += 1;
    }
    vec![
        metric("core.backfill_ms", backfill_ms, "ms"),
        metric(
            "runtime.stage_overhead_ratio",
            spent[0] as f64 / spent[1] as f64,
            "ratio",
        ),
        metric(
            "runtime.parallel_ratio",
            spent[2] as f64 / spent[0] as f64,
            "ratio",
        ),
    ]
}
