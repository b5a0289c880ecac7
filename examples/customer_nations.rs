//! Example 5.2 / 6.2 of the paper: for every customer, the number of customers of the same
//! nation — maintained incrementally, and cross-checked against naive re-evaluation.
//!
//! Run with: `cargo run --example customer_nations`

use dbring::{Catalog, MaintenanceStrategy, NaiveReeval, RingBuilder, Update, Value, ViewDef};
use dbring_workloads::{customers_by_nation, WorkloadConfig};

fn main() {
    let workload = customers_by_nation(WorkloadConfig {
        seed: 7,
        initial_size: 0,
        stream_length: 500,
        domain_size: 6,
        delete_fraction: 0.25,
    });

    // The paper's SQL query, compiled to a trigger program and hosted on a one-view ring.
    let mut ring = RingBuilder::new(workload.catalog.clone()).build();
    let id = ring
        .create_view("same_nation", ViewDef::Query(workload.query.clone()))
        .expect("Example 5.2 compiles");
    println!("query: {}", workload.query);
    println!(
        "\ncompiled program:\n{}",
        ring.view(id).unwrap().program().describe()
    );

    // The non-incremental oracle recomputes the query after every update.
    let mut oracle =
        NaiveReeval::new(workload.catalog.clone(), workload.query.clone()).expect("oracle");

    for (i, update) in workload.stream.iter().enumerate() {
        ring.apply(update).unwrap();
        oracle.apply_update(update).unwrap();
        if (i + 1) % 100 == 0 {
            let view = ring.view(id).unwrap();
            assert_eq!(
                view.table(),
                oracle.current_result(),
                "incremental and naive results must agree"
            );
            println!(
                "after {:>4} updates: {} customer groups, views hold {} entries, \
                 {} arithmetic ops so far",
                i + 1,
                view.table().len(),
                view.total_entries(),
                view.stats().arithmetic_ops()
            );
        }
    }

    // Show the five customers with the most same-nation peers.
    let mut rows: Vec<(Vec<Value>, i64)> = ring
        .view(id)
        .unwrap()
        .table()
        .into_iter()
        .map(|(k, v)| (k, v.as_i64().unwrap_or(0)))
        .collect();
    rows.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
    println!("\ntop customers by same-nation count:");
    for (key, value) in rows.into_iter().take(5) {
        println!("  cid {} -> {}", key[0], value);
    }

    // Replay the paper's own miniature trace (Example 1.2 uses the scalar variant).
    let mut catalog = Catalog::new();
    catalog.declare("R", &["A"]).unwrap();
    let mut count = RingBuilder::new(catalog).build();
    let q = count
        .create_view("q", ViewDef::Agca("q := Sum(R(x) * R(y) * (x = y))"))
        .unwrap();
    let mut r_updates = vec![
        Update::insert("R", vec![Value::str("c")]),
        Update::insert("R", vec![Value::str("c")]),
        Update::insert("R", vec![Value::str("d")]),
        Update::insert("R", vec![Value::str("c")]),
        Update::delete("R", vec![Value::str("d")]),
        Update::insert("R", vec![Value::str("c")]),
        Update::delete("R", vec![Value::str("c")]),
    ];
    println!("\nExample 1.2 trace (Q = self-join count of R):");
    for u in r_updates.drain(..) {
        count.apply(&u).unwrap();
        println!(
            "  {:<8} Q(R) = {}",
            u.to_string(),
            count.view(q).unwrap().value(&[])
        );
    }
}
