//! Quick start: build a `Ring` engine, register two standing SQL aggregates, stream
//! inserts and deletes once, and read both incrementally maintained results — plus the
//! one-view ring for when one query is all you need.
//!
//! Run with: `cargo run --example quickstart`

use dbring::{Catalog, RingBuilder, Value, ViewDef};

fn main() {
    // 1. Declare the schema (a catalog is a database whose contents are ignored).
    let mut catalog = Catalog::new();
    catalog
        .declare("Sales", &["cust", "price", "qty"])
        .expect("fresh catalog");

    // 2. Build the engine and register standing queries. Each is compiled once into a
    //    trigger program: a small set of materialized maps plus, per relation and
    //    sign, a list of constant-work update statements.
    let mut ring = RingBuilder::new(catalog.clone()).build();
    let revenue = ring
        .create_view(
            "revenue",
            ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
        )
        .expect("query compiles");
    let orders = ring
        .create_view(
            "orders",
            ViewDef::Sql("SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust"),
        )
        .expect("query compiles");

    println!(
        "compiled trigger program for `revenue`:\n{}",
        ring.view(revenue).unwrap().program().describe()
    );

    // 3. Stream single-tuple updates through the ring — one ingest path for every
    //    view, each update routed to the views that read its relation.
    ring.insert(
        "Sales",
        vec![Value::int(1), Value::float(9.99), Value::int(3)],
    )
    .unwrap();
    ring.insert(
        "Sales",
        vec![Value::int(2), Value::float(5.00), Value::int(10)],
    )
    .unwrap();
    ring.insert(
        "Sales",
        vec![Value::int(1), Value::float(1.50), Value::int(2)],
    )
    .unwrap();
    // A correction: the second sale is cancelled.
    ring.delete(
        "Sales",
        vec![Value::int(2), Value::float(5.00), Value::int(10)],
    )
    .unwrap();

    // 4. Read any view at any time.
    println!("revenue per customer:");
    for (key, value) in ring.view(revenue).unwrap().table() {
        println!("  customer {} -> {:.2}", key[0], value.as_f64());
    }
    println!("orders per customer:");
    for (key, value) in ring.view(orders).unwrap().table() {
        println!("  customer {} -> {}", key[0], value);
    }
    let stats = ring.view(revenue).unwrap().stats();
    println!(
        "work done by `revenue`: {} updates, {} additions, {} multiplications",
        stats.updates, stats.additions, stats.multiplications
    );

    let revenue_1 = ring.view(revenue).unwrap().value(&[Value::int(1)]).as_f64();
    assert!((revenue_1 - 32.97).abs() < 1e-9);
    assert_eq!(
        ring.view(orders).unwrap().value(&[Value::int(1)]).as_f64(),
        2.0
    );

    // 5. One query only? A one-view ring is the same machinery; built without base
    //    tracking it stores nothing but the view's own maps.
    let mut solo = RingBuilder::new(catalog).without_base_tracking().build();
    let solo_revenue = solo
        .create_view(
            "revenue",
            ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
        )
        .expect("query compiles");
    solo.insert(
        "Sales",
        vec![Value::int(1), Value::float(9.99), Value::int(3)],
    )
    .unwrap();
    let solo_value = solo
        .view(solo_revenue)
        .unwrap()
        .value(&[Value::int(1)])
        .as_f64();
    assert!((solo_value - 29.97).abs() < 1e-9);
    println!("one-view ring agrees: {solo_value:.2}");
}
