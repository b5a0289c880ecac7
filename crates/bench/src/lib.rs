//! Shared machinery for the `dbring` experiment binaries (`exp_*`) and Criterion benches.
//!
//! The experiment index lives in `DESIGN.md`; every binary regenerates one table or figure
//! of the paper and prints it in a form directly comparable to `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use dbring::{
    compile, ClassicalIvm, Executor, HashViewStorage, InterpretedExecutor, MaintenanceStrategy,
    NaiveReeval, OrderedViewStorage, StorageFootprint,
};
use dbring_workloads::Workload;
use serde::Serialize;

/// One row of the complexity-separation sweep: per-update cost of each strategy at a given
/// initial database size.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepPoint {
    /// Initial database size (number of bulk-loaded updates).
    pub initial_size: usize,
    /// Mean per-update latency of recursive IVM, in nanoseconds.
    pub recursive_ns: f64,
    /// Mean arithmetic operations per update performed by recursive IVM.
    pub recursive_ops: f64,
    /// Mean per-update latency of classical first-order IVM, in nanoseconds.
    pub classical_ns: f64,
    /// Mean per-update latency of naive re-evaluation, in nanoseconds.
    pub naive_ns: f64,
    /// Number of stream updates actually measured for the naive strategy (it is capped so
    /// the sweep terminates in reasonable time).
    pub naive_measured: usize,
}

/// Measures the mean per-update latency of a strategy over (a prefix of) a stream.
pub fn measure_per_update(
    strategy: &mut dyn MaintenanceStrategy,
    stream: &[dbring::Update],
    limit: usize,
) -> (Duration, usize) {
    let n = stream.len().min(limit).max(1);
    let started = Instant::now();
    for update in &stream[..n] {
        strategy
            .apply_update(update)
            .expect("strategy applies update");
    }
    (started.elapsed() / n as u32, n)
}

/// Runs the three strategies on one workload and reports their per-update cost.
///
/// `classical_limit` and `naive_limit` cap how many stream updates the two baselines
/// replay (their growing per-update cost is what makes them slow; a cap keeps sweeps
/// tractable without changing the trend). A limit of 0 skips the naive strategy.
pub fn sweep_point(workload: &Workload, classical_limit: usize, naive_limit: usize) -> SweepPoint {
    let initial_db = workload.initial_database();

    // Recursive IVM (compiled): bulk-load the initial database by streaming it through the
    // triggers (cheap and memory-bounded even for large starting databases), then measure
    // the stream.
    let mut recursive =
        Executor::new(compile(&workload.catalog, &workload.query).expect("workload compiles"));
    recursive
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    let initial_result = recursive.output_table();
    recursive.reset_stats();
    let started = Instant::now();
    recursive
        .apply_all(&workload.stream)
        .expect("recursive IVM applies stream");
    let recursive_ns = started.elapsed().as_nanos() as f64 / workload.stream.len().max(1) as f64;
    let recursive_ops =
        recursive.stats().arithmetic_ops() as f64 / workload.stream.len().max(1) as f64;

    // Classical first-order IVM, seeded with the (identical) starting result so that the
    // sweep does not pay a from-scratch evaluation of the bulk-loaded database.
    let mut classical = ClassicalIvm::with_initial_result(
        initial_db.clone(),
        workload.query.clone(),
        initial_result,
    )
    .expect("classical baseline initializes");
    let (classical_per_update, _) =
        measure_per_update(&mut classical, &workload.stream, classical_limit.max(1));

    // Naive re-evaluation (capped; a limit of 0 skips it entirely — on large databases the
    // naive strategy materializes the full join result per update, which is exactly the
    // blow-up the experiment is about).
    let (naive_per_update, naive_measured) = if naive_limit == 0 {
        (Duration::ZERO, 0)
    } else {
        let mut naive = NaiveReeval::new(initial_db, workload.query.clone())
            .expect("naive baseline initializes");
        measure_per_update(&mut naive, &workload.stream, naive_limit)
    };

    SweepPoint {
        initial_size: workload.initial.len(),
        recursive_ns,
        recursive_ops,
        classical_ns: classical_per_update.as_nanos() as f64,
        naive_ns: if naive_measured == 0 {
            f64::NAN
        } else {
            naive_per_update.as_nanos() as f64
        },
        naive_measured,
    }
}

/// Renders a finite float as a JSON number, non-finite as `null` (as serde_json does).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders a string as a JSON string literal with the required escapes.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One machine-readable benchmark row: a named series measured at one batch size.
/// The experiment binaries collect these and write them with [`write_bench_json`], so
/// the perf trajectory is tracked across PRs as data instead of EXPERIMENTS.md prose.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Which measurement this row belongs to (e.g. `"revenue/hash/interned"`).
    pub series: String,
    /// Number of stream updates per batch (1 for per-tuple baselines).
    pub batch_size: usize,
    /// Mean wall-clock nanoseconds per stream update.
    pub ns_per_update: f64,
    /// Mean arithmetic ring operations per stream update.
    pub ops_per_update: f64,
}

/// Renders bench rows as a pretty-printed JSON array of objects.
pub fn bench_rows_json(rows: &[BenchRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\n    \"series\": {},\n    \"batch_size\": {},\n    \
             \"ns_per_update\": {},\n    \"ops_per_update\": {}\n  }}{}\n",
            json_str(&r.series),
            r.batch_size,
            json_f64(r.ns_per_update),
            json_f64(r.ops_per_update),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

/// Writes bench rows to `BENCH_<exp>.json` in the current directory and returns the
/// path. The experiment binaries call this once at the end of a run.
pub fn write_bench_json(exp: &str, rows: &[BenchRow]) -> std::io::Result<String> {
    let path = format!("BENCH_{exp}.json");
    std::fs::write(&path, bench_rows_json(rows) + "\n")?;
    Ok(path)
}

/// Renders sweep results as pretty-printed JSON, in the shape serde_json would produce
/// for `Vec<(String, Vec<SweepPoint>)>`: an array of `[name, [point objects]]` pairs.
/// Hand-rolled because the offline `serde` stand-in (see `compat/README.md`) cannot
/// serialize; non-finite floats become `null`, as serde_json renders them.
pub fn sweep_results_json<S: AsRef<str>>(results: &[(S, Vec<SweepPoint>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (name, points)) in results.iter().enumerate() {
        out.push_str("  [\n    ");
        out.push_str(&json_str(name.as_ref()));
        out.push_str(",\n    [\n");
        for (j, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\n        \"initial_size\": {},\n        \"recursive_ns\": {},\n        \
                 \"recursive_ops\": {},\n        \"classical_ns\": {},\n        \
                 \"naive_ns\": {},\n        \"naive_measured\": {}\n      }}{}\n",
                p.initial_size,
                json_f64(p.recursive_ns),
                json_f64(p.recursive_ops),
                json_f64(p.classical_ns),
                json_f64(p.naive_ns),
                p.naive_measured,
                if j + 1 < points.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]\n  ]");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// One row of the lowering sweep: per-update cost of the slot-resolved executor against
/// the reference interpreter at a given initial database size (same compiled program,
/// same storage layout, same update stream — the difference is purely the inner loop).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LoweringPoint {
    /// Initial database size (number of bulk-loaded updates).
    pub initial_size: usize,
    /// Mean per-update latency of the lowered (plan-driven) executor, in nanoseconds.
    pub lowered_ns: f64,
    /// Mean per-update latency of the string-named interpreter, in nanoseconds.
    pub interpreted_ns: f64,
    /// Mean arithmetic operations per update (identical on both paths by construction —
    /// asserted here, tested exhaustively in `dbring-runtime`).
    pub ops_per_update: f64,
}

impl LoweringPoint {
    /// Interpreter time over lowered time (> 1 means lowering wins).
    pub fn speedup(&self) -> f64 {
        if self.lowered_ns > 0.0 {
            self.interpreted_ns / self.lowered_ns
        } else {
            f64::NAN
        }
    }
}

/// Runs one workload through the lowered executor and the reference interpreter and
/// reports their per-update cost (the shared setup of `exp_lowering` and the
/// `per_update_latency` bench).
pub fn lowering_point(workload: &Workload) -> LoweringPoint {
    let program = compile(&workload.catalog, &workload.query).expect("workload compiles");
    let streamed = workload.stream.len().max(1) as f64;

    let mut lowered = Executor::new(program.clone());
    lowered
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    lowered.reset_stats();
    let started = Instant::now();
    lowered
        .apply_all(&workload.stream)
        .expect("lowered executor applies stream");
    let lowered_ns = started.elapsed().as_nanos() as f64 / streamed;
    let lowered_stats = lowered.stats();

    let mut interpreted = InterpretedExecutor::new(program);
    interpreted
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    interpreted.reset_stats();
    let started = Instant::now();
    interpreted
        .apply_all(&workload.stream)
        .expect("interpreter applies stream");
    let interpreted_ns = started.elapsed().as_nanos() as f64 / streamed;

    assert_eq!(
        lowered_stats,
        interpreted.stats(),
        "lowered and interpreted paths must perform identical ring work"
    );
    assert_eq!(lowered.output_table(), interpreted.output_table());

    LoweringPoint {
        initial_size: workload.initial.len(),
        lowered_ns,
        interpreted_ns,
        ops_per_update: lowered_stats.arithmetic_ops() as f64 / streamed,
    }
}

/// One row of the storage-backend sweep: per-update cost and memory proxy of the lowered
/// executor on the hash backend vs the ordered backend (same compiled program, same
/// update stream — the difference is purely the [`dbring::ViewStorage`] backend under
/// the plan's probe/enumerate/write ops).
#[derive(Clone, Copy, Debug)]
pub struct StoragePoint {
    /// Initial database size (number of bulk-loaded updates).
    pub initial_size: usize,
    /// Mean per-update latency on the hash backend, in nanoseconds.
    pub hash_ns: f64,
    /// Mean per-update latency on the ordered backend, in nanoseconds.
    pub ordered_ns: f64,
    /// Mean arithmetic operations per update (identical on both backends by
    /// construction — asserted here, property-tested in `dbring-runtime`).
    pub ops_per_update: f64,
    /// Entry/index-entry counts of the hash-backed view hierarchy after the stream.
    pub hash_footprint: StorageFootprint,
    /// Entry/index-entry counts of the ordered-backed view hierarchy after the stream.
    pub ordered_footprint: StorageFootprint,
}

impl StoragePoint {
    /// Ordered time over hash time (> 1 means the hash backend is faster).
    pub fn ordered_over_hash(&self) -> f64 {
        if self.hash_ns > 0.0 {
            self.ordered_ns / self.hash_ns
        } else {
            f64::NAN
        }
    }
}

/// Runs one workload through the lowered executor on both storage backends and reports
/// per-update cost plus the memory proxy (the shared setup of `exp_storage` and the
/// `storage_backends` bench). Asserts that the two backends perform identical ring work
/// and reach identical output tables.
pub fn storage_point(workload: &Workload) -> StoragePoint {
    let program = compile(&workload.catalog, &workload.query).expect("workload compiles");
    let streamed = workload.stream.len().max(1) as f64;

    let mut hash = Executor::<HashViewStorage>::with_backend(program.clone());
    hash.apply_all(&workload.initial)
        .expect("bulk load succeeds");
    hash.reset_stats();
    let started = Instant::now();
    hash.apply_all(&workload.stream)
        .expect("hash backend applies stream");
    let hash_ns = started.elapsed().as_nanos() as f64 / streamed;
    let hash_stats = hash.stats();

    let mut ordered = Executor::<OrderedViewStorage>::with_backend(program);
    ordered
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    ordered.reset_stats();
    let started = Instant::now();
    ordered
        .apply_all(&workload.stream)
        .expect("ordered backend applies stream");
    let ordered_ns = started.elapsed().as_nanos() as f64 / streamed;

    assert_eq!(
        hash_stats,
        ordered.stats(),
        "storage backends must perform identical ring work"
    );
    assert_eq!(hash.output_table(), ordered.output_table());

    StoragePoint {
        initial_size: workload.initial.len(),
        hash_ns,
        ordered_ns,
        ops_per_update: hash_stats.arithmetic_ops() as f64 / streamed,
        hash_footprint: hash.storage_footprint(),
        ordered_footprint: ordered.storage_footprint(),
    }
}

/// One row of the batch-crossover sweep: per-update cost of the per-tuple path against
/// the batch path at one batch size, on one storage backend (same compiled program,
/// same update stream — the difference is purely `apply_all` vs `apply_batch`, with
/// the batch figure *including* `DeltaBatch` normalization).
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Number of stream updates per batch.
    pub batch_size: usize,
    /// Mean per-update latency of per-tuple `apply_all`, in nanoseconds.
    pub per_tuple_ns: f64,
    /// Mean per-update latency of chunked `apply_batch` (consolidation included), in
    /// nanoseconds.
    pub batch_ns: f64,
    /// Mean arithmetic operations per update on the per-tuple path.
    pub per_tuple_ops: f64,
    /// Mean arithmetic operations per update on the batch path (lower on weighted,
    /// degree-1 triggers — consolidation and weighted firing are where batching wins
    /// work, not just constants).
    pub batch_ops: f64,
}

impl BatchPoint {
    /// Per-tuple time over batch time (> 1 means the batch path wins).
    pub fn speedup(&self) -> f64 {
        if self.batch_ns > 0.0 {
            self.per_tuple_ns / self.batch_ns
        } else {
            f64::NAN
        }
    }
}

/// Runs one workload's stream through per-tuple `apply_all` and through `apply_batch`
/// in chunks of `batch_size`, on the storage backend named by the type parameter (the
/// shared setup of `exp_batch` and the `batch_crossover` bench). Asserts that both
/// paths reach identical output tables and view hierarchies — so pass an
/// integer-valued workload (e.g. `sales_revenue_int`, not `sales_revenue`): float
/// aggregates may legitimately differ by rounding, since the batch path reorders the
/// accumulation.
pub fn batch_point<S: dbring::ViewStorage>(workload: &Workload, batch_size: usize) -> BatchPoint {
    use dbring::BatchNormalizer;
    let program = compile(&workload.catalog, &workload.query).expect("workload compiles");
    let streamed = workload.stream.len().max(1) as f64;

    let mut per_tuple = Executor::<S>::with_backend(program.clone());
    per_tuple
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    per_tuple.reset_stats();
    let started = Instant::now();
    per_tuple
        .apply_all(&workload.stream)
        .expect("per-tuple path applies stream");
    let per_tuple_ns = started.elapsed().as_nanos() as f64 / streamed;

    let mut batched = Executor::<S>::with_backend(program);
    batched
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    batched.reset_stats();
    // The production batch path: interned fixed-width normalization with scratch
    // reused across batches (what `Ring::apply_batch` runs).
    let mut normalizer = BatchNormalizer::new();
    let started = Instant::now();
    for chunk in workload.stream.chunks(batch_size.max(1)) {
        // Normalization is part of the measured batch cost: it is work the per-tuple
        // path does not do.
        let batch = normalizer.normalize(chunk);
        batched
            .apply_batch(&batch)
            .expect("batch path applies stream");
    }
    let batch_ns = started.elapsed().as_nanos() as f64 / streamed;

    assert_eq!(
        per_tuple.output_table(),
        batched.output_table(),
        "batch path must reach the per-tuple table"
    );
    assert_eq!(per_tuple.total_entries(), batched.total_entries());

    BatchPoint {
        batch_size,
        per_tuple_ns,
        batch_ns,
        per_tuple_ops: per_tuple.stats().arithmetic_ops() as f64 / streamed,
        batch_ops: batched.stats().arithmetic_ops() as f64 / streamed,
    }
}

/// One row of the interning experiment: per-update cost of three ingest paths over the
/// same stream — per-tuple `apply_all`, chunked `apply_batch` fed by the *classic*
/// `DeltaBatch::from_updates` comparison sort, and chunked `apply_batch` fed by the
/// *interned* fixed-width [`BatchNormalizer`](dbring::BatchNormalizer) — on one storage backend. Both batch
/// figures include their normalization cost; parity (equal tables, bit-identical
/// `ExecStats` between the two batch paths) is asserted on every run.
#[derive(Clone, Copy, Debug)]
pub struct InternPoint {
    /// Number of stream updates per batch.
    pub batch_size: usize,
    /// Mean per-update latency of per-tuple `apply_all`, in nanoseconds.
    pub per_tuple_ns: f64,
    /// Mean per-update latency of the classic `Vec<Value>` batch path, in nanoseconds.
    pub classic_ns: f64,
    /// Mean per-update latency of the interned fixed-width batch path, in nanoseconds.
    pub interned_ns: f64,
    /// Mean arithmetic operations per update on the per-tuple path.
    pub per_tuple_ops: f64,
    /// Mean arithmetic operations per update on the batch paths (identical for both —
    /// asserted; interning changes representation, never ring work).
    pub batch_ops: f64,
}

impl InternPoint {
    /// Per-tuple time over interned-batch time (> 1: interning beats the per-tuple
    /// floor — the E14 gate).
    pub fn speedup_vs_per_tuple(&self) -> f64 {
        if self.interned_ns > 0.0 {
            self.per_tuple_ns / self.interned_ns
        } else {
            f64::NAN
        }
    }

    /// Classic-batch time over interned-batch time (> 1: interning beats the old
    /// normalization).
    pub fn speedup_vs_classic(&self) -> f64 {
        if self.interned_ns > 0.0 {
            self.classic_ns / self.interned_ns
        } else {
            f64::NAN
        }
    }
}

/// Runs one workload's stream through per-tuple `apply_all`, the classic
/// `DeltaBatch::from_updates` batch path, and the interned [`BatchNormalizer`](dbring::BatchNormalizer) batch
/// path, in chunks of `batch_size`, on the storage backend named by the type parameter
/// (the setup of `exp_intern`). Asserts on every run that the two batch paths reach
/// identical tables AND bit-identical `ExecStats`, and that both match the per-tuple
/// table — so pass an integer-valued workload.
pub fn intern_point<S: dbring::ViewStorage>(workload: &Workload, batch_size: usize) -> InternPoint {
    use dbring::{BatchNormalizer, DeltaBatch};
    let program = compile(&workload.catalog, &workload.query).expect("workload compiles");
    let streamed = workload.stream.len().max(1) as f64;
    let chunk_size = batch_size.max(1);

    let mut per_tuple = Executor::<S>::with_backend(program.clone());
    per_tuple
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    per_tuple.reset_stats();
    let started = Instant::now();
    per_tuple
        .apply_all(&workload.stream)
        .expect("per-tuple path applies stream");
    let per_tuple_ns = started.elapsed().as_nanos() as f64 / streamed;

    let mut classic = Executor::<S>::with_backend(program.clone());
    classic
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    classic.reset_stats();
    let started = Instant::now();
    for chunk in workload.stream.chunks(chunk_size) {
        let batch = DeltaBatch::from_updates(chunk);
        classic
            .apply_batch(&batch)
            .expect("classic batch path applies stream");
    }
    let classic_ns = started.elapsed().as_nanos() as f64 / streamed;

    let mut interned = Executor::<S>::with_backend(program);
    interned
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    interned.reset_stats();
    let mut normalizer = BatchNormalizer::new();
    let started = Instant::now();
    for chunk in workload.stream.chunks(chunk_size) {
        let batch = normalizer.normalize(chunk);
        interned
            .apply_batch(&batch)
            .expect("interned batch path applies stream");
    }
    let interned_ns = started.elapsed().as_nanos() as f64 / streamed;

    // Parity every run: interning must change representation, never results or work.
    assert_eq!(
        interned.output_table(),
        classic.output_table(),
        "interned batch path must reach the classic table"
    );
    assert_eq!(
        interned.stats(),
        classic.stats(),
        "interned batch path must perform bit-identical ring work"
    );
    assert_eq!(
        per_tuple.output_table(),
        interned.output_table(),
        "batch paths must reach the per-tuple table"
    );
    assert_eq!(per_tuple.total_entries(), interned.total_entries());

    InternPoint {
        batch_size,
        per_tuple_ns,
        classic_ns,
        interned_ns,
        per_tuple_ops: per_tuple.stats().arithmetic_ops() as f64 / streamed,
        batch_ops: interned.stats().arithmetic_ops() as f64 / streamed,
    }
}

/// One row of the multi-view amortization sweep: total per-update cost of ingesting
/// one stream into a `Ring` of `k` views against `k` independent
/// `Executor::apply_batch` loops, each with its own normalizer, over the same stream
/// (same compiled programs, same storage backend, same chunking — the differences are
/// one shared `DeltaBatch` normalization per chunk instead of `k`, routed dispatch,
/// and — for the tracked ring — base-snapshot maintenance, which is what buys late
/// view registration).
#[derive(Clone, Copy, Debug)]
pub struct RingPoint {
    /// Number of standing views maintained.
    pub views: usize,
    /// Number of stream updates per ingested chunk.
    pub batch_size: usize,
    /// Mean per-update latency of the default ring (base tracking on), in ns. This is
    /// the *total* cost of keeping all `views` fresh for one update.
    pub ring_ns: f64,
    /// Mean per-update latency of a ring built `without_base_tracking` — capability
    /// parity with the independent views, which retain no base either — in ns.
    pub ring_untracked_ns: f64,
    /// Mean per-update latency of the `views` independent single-view loops, in ns.
    pub independent_ns: f64,
    /// Mean arithmetic operations per update summed over the ring's views (asserted
    /// *exactly* equal to the independent views' sum — routing shares work, it never
    /// changes it).
    pub ops_per_update: f64,
}

impl RingPoint {
    /// Independent-loops time over default-ring time (> 1 means the ring wins).
    pub fn speedup(&self) -> f64 {
        if self.ring_ns > 0.0 {
            self.independent_ns / self.ring_ns
        } else {
            f64::NAN
        }
    }

    /// Independent-loops time over untracked-ring time (capability-parity speedup).
    pub fn untracked_speedup(&self) -> f64 {
        if self.ring_untracked_ns > 0.0 {
            self.independent_ns / self.ring_untracked_ns
        } else {
            f64::NAN
        }
    }
}

/// Runs the first `views` queries of a [`MultiViewWorkload`](dbring_workloads::MultiViewWorkload) three ways — a default
/// ring, a ring without base tracking, and `k` independent `Executor`s, each
/// normalizing every chunk itself — ingesting the same stream in chunks of
/// `batch_size` on the storage backend named by the type parameter (the shared setup
/// of `exp_ring`). Asserts, per view, that all three reach
/// identical tables *and* identical `ExecStats` — the ring's routed shared-batch
/// dispatch must change where normalization happens, never the ring work performed.
/// Pass an integer-valued workload (e.g. [`dbring_workloads::sales_dashboard`]) so
/// table equality is exact.
///
/// `S` must be one of the **in-tree** backends: the ring sides are configured through
/// `S::BACKEND` (the enum name), while the independent baseline is typed — for a
/// custom backend whose `BACKEND` merely names its closest in-tree relative, the
/// three paths would silently run different storage and the timing comparison would
/// be meaningless.
pub fn ring_point<S: dbring::ViewStorage + Send + 'static>(
    workload: &dbring_workloads::MultiViewWorkload,
    views: usize,
    batch_size: usize,
) -> RingPoint {
    use dbring::{RingBuilder, ViewDef};
    assert!(
        !workload.views.is_empty(),
        "ring_point needs a workload with at least one view"
    );
    let k = views.clamp(1, workload.views.len());
    let defs = &workload.views[..k];
    let streamed = workload.stream.len().max(1) as f64;
    let chunk = batch_size.max(1);

    let build_ring = |tracked: bool| {
        let builder = RingBuilder::new(workload.catalog.clone()).backend(S::BACKEND);
        let builder = if tracked {
            builder
        } else {
            builder.without_base_tracking()
        };
        let mut ring = builder.build();
        let ids: Vec<dbring::ViewId> = defs
            .iter()
            .map(|(name, query)| {
                ring.create_view(*name, ViewDef::Query(query.clone()))
                    .expect("dashboard views compile")
            })
            .collect();
        for piece in workload.initial.chunks(chunk) {
            ring.apply_batch(piece).expect("bulk load succeeds");
        }
        for &id in &ids {
            ring.view_mut(id).unwrap().reset_stats();
        }
        (ring, ids)
    };

    let (mut ring, ids) = build_ring(true);
    let started = Instant::now();
    for piece in workload.stream.chunks(chunk) {
        ring.apply_batch(piece).expect("ring ingests the stream");
    }
    let ring_ns = started.elapsed().as_nanos() as f64 / streamed;

    let (mut untracked, untracked_ids) = build_ring(false);
    let started = Instant::now();
    for piece in workload.stream.chunks(chunk) {
        untracked
            .apply_batch(piece)
            .expect("untracked ring ingests the stream");
    }
    let ring_untracked_ns = started.elapsed().as_nanos() as f64 / streamed;

    // Each independent executor gets its own normalizer, so the ring's only
    // advantages are the shared normalization and routing.
    let mut independent: Vec<(Executor<S>, dbring::BatchNormalizer)> = defs
        .iter()
        .map(|(_, query)| {
            let program = compile(&workload.catalog, query).expect("dashboard views compile");
            (
                Executor::<S>::with_backend(program),
                dbring::BatchNormalizer::new(),
            )
        })
        .collect();
    for (exec, normalizer) in &mut independent {
        for piece in workload.initial.chunks(chunk) {
            exec.apply_batch(&normalizer.normalize(piece))
                .expect("bulk load succeeds");
        }
        exec.reset_stats();
    }
    let started = Instant::now();
    for (exec, normalizer) in &mut independent {
        for piece in workload.stream.chunks(chunk) {
            exec.apply_batch(&normalizer.normalize(piece))
                .expect("view ingests the stream");
        }
    }
    let independent_ns = started.elapsed().as_nanos() as f64 / streamed;

    // Fan-out parity: every view reaches the same table with exactly the same ring
    // work on all three paths — the amortization is normalization and dispatch, never
    // skipped maintenance.
    let mut total_ops = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        let hosted = ring.view(id).unwrap();
        let solo = &independent[i].0;
        assert_eq!(
            hosted.table(),
            solo.output_table(),
            "ring and independent tables diverge on {}",
            hosted.name()
        );
        assert_eq!(
            hosted.stats(),
            solo.stats(),
            "ring and independent ExecStats diverge on {}",
            hosted.name()
        );
        let untracked_view = untracked.view(untracked_ids[i]).unwrap();
        assert_eq!(untracked_view.table(), solo.output_table());
        assert_eq!(untracked_view.stats(), solo.stats());
        total_ops += hosted.stats().arithmetic_ops();
    }

    RingPoint {
        views: k,
        batch_size: chunk,
        ring_ns,
        ring_untracked_ns,
        independent_ns,
        ops_per_update: total_ops as f64 / streamed,
    }
}

/// Formats a nanosecond figure with a readable unit (`-` for NaN, i.e. "not measured").
pub fn fmt_ns(ns: f64) -> String {
    if ns.is_nan() {
        "-".to_string()
    } else if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Prints a separating header for experiment output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_workloads::{customers_by_nation, self_join_count, WorkloadConfig};

    #[test]
    fn sweep_point_produces_sane_numbers() {
        let workload = self_join_count(WorkloadConfig {
            seed: 1,
            initial_size: 50,
            stream_length: 50,
            domain_size: 10,
            delete_fraction: 0.1,
        });
        let point = sweep_point(&workload, 50, 10);
        assert_eq!(point.initial_size, 50);
        assert!(point.recursive_ns > 0.0);
        assert!(point.classical_ns > 0.0);
        assert!(point.naive_ns > 0.0);
        assert!(point.recursive_ops > 0.0);
        assert_eq!(point.naive_measured, 10);
    }

    #[test]
    fn lowering_point_produces_sane_numbers() {
        let workload = self_join_count(WorkloadConfig {
            seed: 2,
            initial_size: 80,
            stream_length: 80,
            domain_size: 10,
            delete_fraction: 0.2,
        });
        let point = lowering_point(&workload);
        assert_eq!(point.initial_size, 80);
        assert!(point.lowered_ns > 0.0);
        assert!(point.interpreted_ns > 0.0);
        assert!(point.ops_per_update > 0.0);
        assert!(point.speedup() > 0.0);
    }

    #[test]
    fn storage_point_produces_sane_numbers() {
        let workload = customers_by_nation(WorkloadConfig {
            seed: 3,
            initial_size: 80,
            stream_length: 80,
            domain_size: 8,
            delete_fraction: 0.2,
        });
        let point = storage_point(&workload);
        assert_eq!(point.initial_size, 80);
        assert!(point.hash_ns > 0.0);
        assert!(point.ordered_ns > 0.0);
        assert!(point.ops_per_update > 0.0);
        assert!(point.ordered_over_hash() > 0.0);
        assert_eq!(
            point.hash_footprint.entries,
            point.ordered_footprint.entries
        );
        assert!(point.ordered_footprint.index_entries <= point.hash_footprint.index_entries);
    }

    #[test]
    fn batch_point_produces_sane_numbers_on_both_backends() {
        use dbring_workloads::sales_revenue_int;
        let workload = sales_revenue_int(WorkloadConfig {
            seed: 4,
            initial_size: 80,
            stream_length: 96,
            domain_size: 8,
            delete_fraction: 0.2,
        });
        for point in [
            batch_point::<dbring::HashViewStorage>(&workload, 32),
            batch_point::<dbring::OrderedViewStorage>(&workload, 32),
        ] {
            assert_eq!(point.batch_size, 32);
            assert!(point.per_tuple_ns > 0.0);
            assert!(point.batch_ns > 0.0);
            assert!(point.speedup() > 0.0);
            assert!(point.per_tuple_ops > 0.0);
            // Revenue per customer is degree-1: the batch path strictly saves ring work
            // whenever consolidation or weighted firing collapses anything (and never
            // does more).
            assert!(point.batch_ops <= point.per_tuple_ops);
        }
    }

    #[test]
    fn ring_point_produces_sane_numbers_on_both_backends() {
        use dbring_workloads::sales_dashboard;
        let workload = sales_dashboard(WorkloadConfig {
            seed: 5,
            initial_size: 64,
            stream_length: 96,
            domain_size: 8,
            delete_fraction: 0.2,
        });
        for point in [
            ring_point::<dbring::HashViewStorage>(&workload, 4, 32),
            ring_point::<dbring::OrderedViewStorage>(&workload, 4, 32),
        ] {
            assert_eq!(point.views, 4);
            assert_eq!(point.batch_size, 32);
            assert!(point.ring_ns > 0.0);
            assert!(point.ring_untracked_ns > 0.0);
            assert!(point.independent_ns > 0.0);
            assert!(point.ops_per_update > 0.0);
            assert!(point.speedup() > 0.0);
            assert!(point.untracked_speedup() > 0.0);
        }
        // The view count clamps to the workload's view list.
        let tiny = ring_point::<dbring::HashViewStorage>(&workload, 99, 32);
        assert_eq!(tiny.views, workload.views.len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
    }

    #[test]
    fn intern_point_asserts_parity_and_produces_sane_numbers() {
        let workload = dbring_workloads::sales_revenue_int(WorkloadConfig {
            seed: 9,
            initial_size: 100,
            stream_length: 200,
            domain_size: 8,
            delete_fraction: 0.2,
        });
        let point = intern_point::<dbring::HashViewStorage>(&workload, 32);
        assert_eq!(point.batch_size, 32);
        assert!(point.per_tuple_ns > 0.0);
        assert!(point.classic_ns > 0.0);
        assert!(point.interned_ns > 0.0);
        assert!(point.per_tuple_ops >= point.batch_ops);
        assert!(point.speedup_vs_per_tuple() > 0.0);
        assert!(point.speedup_vs_classic() > 0.0);
        let ordered = intern_point::<dbring::OrderedViewStorage>(&workload, 32);
        assert_eq!(ordered.batch_ops, point.batch_ops);
    }

    #[test]
    fn bench_rows_render_as_json() {
        let rows = vec![
            BenchRow {
                series: "revenue/hash/interned".to_string(),
                batch_size: 256,
                ns_per_update: 123.5,
                ops_per_update: 3.0,
            },
            BenchRow {
                series: "revenue/hash/per_tuple".to_string(),
                batch_size: 1,
                ns_per_update: f64::NAN,
                ops_per_update: 6.0,
            },
        ];
        let json = bench_rows_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"series\": \"revenue/hash/interned\""));
        assert!(json.contains("\"batch_size\": 256"));
        assert!(json.contains("\"ns_per_update\": 123.5"));
        // Non-finite floats render as null, as serde_json would.
        assert!(json.contains("\"ns_per_update\": null"));
    }
}
