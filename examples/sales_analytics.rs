//! A realistic standing-analytics scenario: per-customer revenue over a stream of sales
//! and cancellations, with a comparison of maintenance strategies.
//!
//! The incremental view answers "revenue of customer X so far" at any moment without ever
//! rescanning the sales; the example also shows how much work the two classical strategies
//! (naive re-evaluation and first-order IVM) spend on the same stream.
//!
//! Run with: `cargo run --release --example sales_analytics`

use std::time::Instant;

use dbring::{ClassicalIvm, MaintenanceStrategy, NaiveReeval, RingBuilder, Value, ViewDef};
use dbring_workloads::{sales_revenue, WorkloadConfig};

fn main() {
    let workload = sales_revenue(WorkloadConfig {
        seed: 2024,
        initial_size: 2_000,
        stream_length: 1_000,
        domain_size: 50,
        delete_fraction: 0.15,
    });
    println!("query: {}", workload.query);

    // Recursive IVM: a ring over the initial database compiles the view once and
    // backfills its hierarchy from that database; then stream.
    let initial_db = workload.initial_database();
    let mut ring = RingBuilder::from_database(initial_db.clone()).build();
    let id = ring
        .create_view("revenue", ViewDef::Query(workload.query.clone()))
        .unwrap();

    let started = Instant::now();
    ring.apply_all(&workload.stream).unwrap();
    let recursive_elapsed = started.elapsed();
    let view = ring.view(id).unwrap();

    // Classical first-order IVM and naive re-evaluation over the same stream.
    let mut classical = ClassicalIvm::new(initial_db.clone(), workload.query.clone()).unwrap();
    let started = Instant::now();
    for u in &workload.stream {
        classical.apply_update(u).unwrap();
    }
    let classical_elapsed = started.elapsed();

    let mut naive = NaiveReeval::new(initial_db, workload.query.clone()).unwrap();
    let started = Instant::now();
    // The naive strategy is slow; replay only a slice of the stream and scale.
    let naive_sample = workload.stream.len().min(100);
    for u in &workload.stream[..naive_sample] {
        naive.apply_update(u).unwrap();
    }
    let naive_elapsed = started.elapsed() * (workload.stream.len() as u32 / naive_sample as u32);

    // All strategies agree on the values they maintain (check a few customers). The
    // strategies accumulate the same sums in different orders, so floating-point results
    // match up to the usual IEEE rounding differences, not bit-for-bit.
    for cust in 0..5 {
        let key = vec![Value::int(cust)];
        let (a, b) = (
            view.value(&key).as_f64(),
            classical.result_value(&key).as_f64(),
        );
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0),
            "strategies disagree for customer {cust}: {a} vs {b}"
        );
    }

    println!(
        "\n{} initial sales, {} streamed updates",
        workload.initial.len(),
        workload.stream.len()
    );
    println!("maintenance time over the stream:");
    println!("  recursive IVM (this paper) : {recursive_elapsed:>12.2?}");
    println!("  classical first-order IVM  : {classical_elapsed:>12.2?}");
    println!("  naive re-evaluation        : {naive_elapsed:>12.2?}  (extrapolated)");
    println!(
        "\nrecursive IVM work counters: {} additions, {} multiplications for {} updates",
        view.stats().additions,
        view.stats().multiplications,
        view.stats().updates
    );

    let mut top: Vec<(Vec<Value>, f64)> = view
        .table()
        .into_iter()
        .map(|(k, v)| (k, v.as_f64()))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop 5 customers by revenue:");
    for (key, revenue) in top.into_iter().take(5) {
        println!("  customer {:>3} -> {revenue:>10.2}", key[0]);
    }
}
