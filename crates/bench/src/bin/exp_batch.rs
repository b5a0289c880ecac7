//! Experiment E10 — what batching buys: per-update latency of per-tuple `apply_all`
//! against `apply_batch` (DeltaBatch normalization included), swept over batch sizes,
//! reporting the crossover batch size where the batch path wins.
//!
//! Two trigger shapes bound the picture:
//!
//! * **weighted** (degree ≤ 1 in the updated relation, e.g. per-customer revenue): the
//!   batch path consolidates multiplicities and fires once per distinct tuple with
//!   scaled writes, then lands each map's deltas in one sorted pass — it saves real
//!   ring *work*, not just dispatch constants;
//! * **unit-replay** (self-joins, which read the maps they write): the batch path must
//!   replay unit updates, so it can only save dispatch/frame setup — on a
//!   duplicate-free insert-only stream it performs *identical* ring work, which this
//!   experiment asserts (the CI smoke runs `--quick`).
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_batch`
//! (add `-- --quick` for a faster, smaller sweep)

use dbring::{compile, DeltaBatch, Executor};
use dbring_bench::{batch_point, fmt_ns, header, write_bench_json, BenchRow};
use dbring_workloads::{
    customers_by_nation, sales_revenue_int, self_join_count, Workload, WorkloadConfig,
};

fn sweep(name: &str, case: &str, workload: &Workload, sizes: &[usize], rows: &mut Vec<BenchRow>) {
    header(name);
    let points: Vec<_> = sizes.iter().map(|&k| batch_point(workload, k)).collect();
    println!(
        "{:>6} | {:>12} | {:>12} | {:>8} | {:>11} | {:>9}",
        "batch", "per-tuple/upd", "batch/upd", "speedup", "pt ops/upd", "b ops/upd"
    );
    for p in &points {
        println!(
            "{:>6} | {:>12} | {:>12} | {:>7.2}x | {:>11.1} | {:>9.1}",
            p.batch_size,
            fmt_ns(p.per_tuple_ns),
            fmt_ns(p.batch_ns),
            p.speedup(),
            p.per_tuple_ops,
            p.batch_ops,
        );
    }
    match points.iter().find(|p| p.speedup() > 1.0) {
        Some(p) => println!(
            "crossover: batch size {} (batch path wins from here, {:.2}x)",
            p.batch_size,
            p.speedup()
        ),
        None => println!("no crossover in the swept sizes"),
    }
    // Series names keep the `hash` segment of the recorded BENCH_exp_batch.json rows.
    for p in &points {
        rows.push(BenchRow {
            series: format!("{case}/hash/per_tuple"),
            batch_size: p.batch_size,
            ns_per_update: p.per_tuple_ns,
            ops_per_update: p.per_tuple_ops,
        });
        rows.push(BenchRow {
            series: format!("{case}/hash/batch"),
            batch_size: p.batch_size,
            ns_per_update: p.batch_ns,
            ops_per_update: p.batch_ops,
        });
    }
}

/// Asserts the batch path's work-parity contract on a unit-replay trigger: over a
/// duplicate-free insert-only stream, chunked `apply_batch` performs *exactly* the ring
/// work of per-tuple `apply_all` (consolidation finds nothing to collapse and weighted
/// firing does not apply, so only dispatch constants differ).
fn assert_unit_replay_work_parity() {
    let mut catalog = dbring::Catalog::new();
    catalog.declare("R", &["A"]).unwrap();
    let q = dbring::parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
    let program = compile(&catalog, &q).unwrap();
    assert!(
        !Executor::new(program.clone()).plan().triggers[0].weighted_firing,
        "self-join triggers must be unit-replay"
    );
    let updates: Vec<dbring::Update> = (0..512)
        .map(|i| dbring::Update::insert("R", vec![dbring::Value::int(i)]))
        .collect();
    let mut per_tuple = Executor::new(program.clone());
    per_tuple.apply_all(&updates).unwrap();
    let mut batched = Executor::new(program);
    for chunk in updates.chunks(64) {
        batched
            .apply_batch(&DeltaBatch::from_updates(chunk))
            .unwrap();
    }
    assert_eq!(
        per_tuple.stats(),
        batched.stats(),
        "unit-replay batches must perform identical ring work"
    );
    assert_eq!(per_tuple.output_table(), batched.output_table());
    println!(
        "work parity: unit-replay batch path performed exactly {} ring ops, \
         like the per-tuple path",
        per_tuple.stats().arithmetic_ops()
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1, 16, 256, 1024]
    } else {
        &[1, 4, 16, 64, 256, 1024, 4096]
    };
    let (initial, stream) = if quick { (500, 4_096) } else { (2_000, 16_384) };
    let mut rows: Vec<BenchRow> = Vec::new();

    sweep(
        "per-customer revenue (degree-1, weighted firing, hot keys)",
        "revenue_hot",
        &sales_revenue_int(WorkloadConfig {
            seed: 101,
            initial_size: initial,
            stream_length: stream,
            // A hot-key stream (point-of-sale style): repeats are what consolidation
            // and weighted firing collapse into fewer firings.
            domain_size: 8,
            delete_fraction: 0.2,
        }),
        sizes,
        &mut rows,
    );
    sweep(
        "customers by nation (Example 5.2, unit replay)",
        "customers_nation",
        &customers_by_nation(WorkloadConfig {
            seed: 102,
            initial_size: initial,
            stream_length: stream.min(4_096),
            domain_size: 12,
            delete_fraction: 0.2,
        }),
        sizes,
        &mut rows,
    );
    sweep(
        "self-join count (Example 1.2, unit replay, probe-only)",
        "self_join",
        &self_join_count(WorkloadConfig {
            seed: 103,
            initial_size: initial,
            stream_length: stream,
            domain_size: 100,
            delete_fraction: 0.2,
        }),
        sizes,
        &mut rows,
    );

    header("batch-vs-per-tuple work parity (unit replay)");
    assert_unit_replay_work_parity();

    let path = write_bench_json("exp_batch", &rows).expect("write BENCH_exp_batch.json");
    println!("wrote {path} ({} rows)", rows.len());
}
