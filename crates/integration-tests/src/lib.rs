//! Shared helpers for the cross-crate integration tests: run a workload under every
//! maintenance strategy and assert that they agree.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use dbring::{ClassicalIvm, Executor, MaintenanceStrategy, NaiveReeval, Number, Value};
use dbring_workloads::Workload;

/// The result tables of every strategy after consuming the workload, in a fixed order:
/// `[recursive-ivm, classical-ivm, naive]`.
pub fn run_all_strategies(workload: &Workload) -> Vec<(String, BTreeMap<Vec<Value>, Number>)> {
    let initial_db = workload.initial_database();

    let program =
        dbring::compile(&workload.catalog, &workload.query).expect("workload query compiles");
    let mut recursive = Executor::new(program);
    recursive
        .initialize_from(&initial_db)
        .expect("initialization succeeds");
    let mut classical = ClassicalIvm::new(initial_db.clone(), workload.query.clone())
        .expect("classical baseline initializes");
    let mut naive =
        NaiveReeval::new(initial_db, workload.query.clone()).expect("naive baseline initializes");

    for update in &workload.stream {
        recursive
            .apply(update)
            .expect("recursive IVM applies update");
        classical
            .apply_update(update)
            .expect("classical IVM applies update");
        naive.apply_update(update).expect("naive applies update");
    }

    vec![
        ("recursive-ivm".to_string(), recursive.output_table()),
        ("classical-ivm".to_string(), classical.current_result()),
        ("naive".to_string(), naive.current_result()),
    ]
}

/// Compares two result tables: integer aggregates must match exactly, floating-point
/// aggregates up to a relative tolerance (the strategies sum in different orders, so the
/// usual IEEE rounding differences are expected and not a bug).
pub fn tables_match(
    a: &BTreeMap<Vec<Value>, Number>,
    b: &BTreeMap<Vec<Value>, Number>,
) -> Result<(), String> {
    let keys: std::collections::BTreeSet<&Vec<Value>> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let x = a.get(key).copied().unwrap_or(Number::Int(0));
        let y = b.get(key).copied().unwrap_or(Number::Int(0));
        let equal = match (x, y) {
            (Number::Int(i), Number::Int(j)) => i == j,
            _ => {
                let (xf, yf) = (x.as_f64(), y.as_f64());
                (xf - yf).abs() <= 1e-6 * xf.abs().max(yf.abs()).max(1.0)
            }
        };
        if !equal {
            return Err(format!("mismatch at key {key:?}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Panics with context unless the two tables match (see [`tables_match`]).
pub fn assert_tables_match(
    a: &BTreeMap<Vec<Value>, Number>,
    b: &BTreeMap<Vec<Value>, Number>,
    context: &str,
) {
    if let Err(message) = tables_match(a, b) {
        panic!("{context}: {message}");
    }
}

/// Asserts that every strategy produced the same result table for the workload.
pub fn assert_strategies_agree(workload: &Workload) {
    let results = run_all_strategies(workload);
    let (reference_name, reference) = &results[0];
    for (name, table) in &results[1..] {
        assert_tables_match(
            table,
            reference,
            &format!(
                "strategy {name} disagrees with {reference_name} on workload {}",
                workload.name
            ),
        );
    }
}

/// Streams a workload through a fresh executor (no initial database) and returns it,
/// checking against naive re-evaluation every `check_every` updates.
pub fn stream_with_oracle(workload: &Workload, check_every: usize) -> Executor {
    let program =
        dbring::compile(&workload.catalog, &workload.query).expect("workload query compiles");
    let mut exec = Executor::new(program);
    let mut oracle = NaiveReeval::new(workload.catalog.clone(), workload.query.clone())
        .expect("oracle initializes");
    for (i, update) in workload
        .initial
        .iter()
        .chain(workload.stream.iter())
        .enumerate()
    {
        exec.apply(update).expect("executor applies update");
        oracle.apply_update(update).expect("oracle applies update");
        if check_every > 0 && (i + 1) % check_every == 0 {
            assert_tables_match(
                &exec.output_table(),
                &oracle.current_result(),
                &format!(
                    "divergence after {} updates of workload {}",
                    i + 1,
                    workload.name
                ),
            );
        }
    }
    assert_tables_match(
        &exec.output_table(),
        &oracle.current_result(),
        &format!("final divergence on workload {}", workload.name),
    );
    exec
}
