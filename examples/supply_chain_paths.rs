//! Example 1.3 of the paper as a small supply-chain scenario: `R` links suppliers to
//! warehouses (with a capacity `A`), `S` links warehouses to stores, and `T` links stores
//! to demand (`F`). The standing query `SELECT SUM(A * F) FROM R, S, T WHERE B = C AND
//! D = E` weighs every supplier→warehouse→store→demand path.
//!
//! The compiled program maintains the three-way join aggregate through *factorized* delta
//! views: the delta with respect to an `S` update is a product of two single-key lookups,
//! exactly as in Example 1.3 — and the arithmetic work per update stays flat while the
//! relations keep growing.
//!
//! Run with: `cargo run --release --example supply_chain_paths`

use dbring::{RingBuilder, ViewDef};
use dbring_workloads::{rst_sum_join, WorkloadConfig};

fn main() {
    let workload = rst_sum_join(WorkloadConfig {
        seed: 11,
        initial_size: 0,
        stream_length: 9_000,
        domain_size: 60,
        delete_fraction: 0.1,
    });
    println!("query: {}\n", workload.query);

    let mut ring = RingBuilder::new(workload.catalog.clone()).build();
    let id = ring
        .create_view("paths", ViewDef::Query(workload.query.clone()))
        .expect("compiles");
    println!(
        "compiled program:\n{}",
        ring.view(id).unwrap().program().describe()
    );

    // Stream the updates, sampling the per-update arithmetic work as the database grows.
    println!("updates applied | tuples in views | arithmetic ops per update (avg over last 1000)");
    let mut last_ops = 0u64;
    for (i, update) in workload.stream.iter().enumerate() {
        ring.apply(update).unwrap();
        if (i + 1) % 1000 == 0 {
            let view = ring.view(id).unwrap();
            let ops = view.stats().arithmetic_ops();
            println!(
                "{:>15} | {:>15} | {:>10.2}",
                i + 1,
                view.total_entries(),
                (ops - last_ops) as f64 / 1000.0
            );
            last_ops = ops;
        }
    }

    println!(
        "\ntotal weighted path capacity: {}",
        ring.view(id).unwrap().value(&[]).as_f64()
    );
}
