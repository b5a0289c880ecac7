//! Experiment E5 — **Examples 5.2 / 6.2 / 6.5**: the customers-by-nation query from its
//! SQL form down to the compiled trigger program, with the delta chain and its degrees,
//! plus a correctness + cost run against the baselines.
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_customers`

use dbring::{
    compile, delta, ClassicalIvm, Executor, MaintenanceStrategy, NaiveReeval, UpdateEvent,
};
use dbring_agca::degree::degree;
use dbring_agca::normalize::normalize;
use dbring_bench::{fmt_ns, header, measure_per_update};
use dbring_workloads::{customers_by_nation, WorkloadConfig};
use std::time::Instant;

fn main() {
    let workload = customers_by_nation(WorkloadConfig {
        seed: 5,
        initial_size: 5_000,
        stream_length: 2_000,
        domain_size: 12,
        delete_fraction: 0.2,
    });

    header("Example 5.2: SQL to AGCA");
    println!(
        "SQL   : SELECT C1.cid, SUM(1) FROM C C1, C C2 WHERE C1.nation = C2.nation GROUP BY C1.cid"
    );
    println!("AGCA  : {}", workload.query);
    println!("degree: {}", degree(&workload.query.expr));

    header("Example 6.2 / 6.5: the delta chain");
    let e1 = UpdateEvent::insert("C", &["c1", "n1"]);
    let d1 = delta(&workload.query.expr, &e1);
    let d1n = normalize(&d1).to_expr();
    println!("∆q (+C(c1, n1))          : {d1n}");
    println!(
        "deg q = {}, deg ∆q = {}",
        degree(&workload.query.expr),
        degree(&d1n)
    );
    let e2 = UpdateEvent::insert("C", &["c2", "n2"]);
    let d2 = normalize(&delta(&d1, &e2)).to_expr();
    println!("∆∆q (+C(c1,n1), +C(c2,n2)): {d2}");
    println!("deg ∆∆q = {} (database-independent)", degree(&d2));

    header("compiled trigger program");
    let program = compile(&workload.catalog, &workload.query).unwrap();
    println!("{}", program.describe());

    header("maintenance over a stream (initial |C| = 5000, 2000 updates)");
    let initial_db = workload.initial_database();
    // Bulk-load the initial customers by streaming them through the compiled triggers,
    // then measure the update stream.
    let mut recursive = Executor::new(program);
    recursive.apply_all(&workload.initial).unwrap();
    let initial_result = recursive.output_table();
    recursive.reset_stats();
    let started = Instant::now();
    recursive.apply_all(&workload.stream).unwrap();
    let recursive_ns = started.elapsed().as_nanos() as f64 / workload.stream.len() as f64;

    let mut classical = ClassicalIvm::with_initial_result(
        initial_db.clone(),
        workload.query.clone(),
        initial_result,
    )
    .unwrap();
    let (classical_per, _) =
        measure_per_update(&mut classical, &workload.stream, workload.stream.len());
    let mut naive = NaiveReeval::new(initial_db, workload.query.clone()).unwrap();
    let (naive_per, naive_n) = measure_per_update(&mut naive, &workload.stream, 5);

    // Correctness cross-check between the strategies that saw the whole stream.
    let recursive_table = recursive.output_table();
    let classical_table = classical.current_result();
    assert_eq!(recursive_table, classical_table, "strategies must agree");

    println!(
        "{:<26} {:>14} {:>20}",
        "strategy", "per update", "ops per update"
    );
    println!(
        "{:<26} {:>14} {:>20.2}",
        "recursive IVM (paper)",
        fmt_ns(recursive_ns),
        recursive.stats().arithmetic_ops() as f64 / workload.stream.len() as f64
    );
    println!(
        "{:<26} {:>14} {:>20}",
        "classical first-order IVM",
        fmt_ns(classical_per.as_nanos() as f64),
        "-"
    );
    println!(
        "{:<26} {:>14} {:>20}   (measured over {} updates)",
        "naive re-evaluation",
        fmt_ns(naive_per.as_nanos() as f64),
        "-",
        naive_n
    );
    println!(
        "\n{} customer groups maintained; view hierarchy holds {} entries",
        recursive_table.len(),
        recursive.total_entries()
    );
}
