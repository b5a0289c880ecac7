//! Equivalence of the slot-resolved executor with its two references.
//!
//! The lowered [`Executor`] must agree with (a) the AGCA reference evaluator run on the
//! final database — full-pipeline correctness over random update traces with mixed
//! multiplicities — and (b) the string-named [`InterpretedExecutor`] — not just on the
//! final table but *operation for operation*: the [`ExecStats`] counters of the two
//! paths are maintained identically, so any divergence in work accounting (the quantity
//! the paper's Theorem 7.1 bounds) is a test failure, not a benchmarking footnote.
//! The batch paths are held to the same standard: chunked traces, each chunk
//! normalized once, must give both executors identical tables and identical batched
//! `ExecStats` (weighted firing included).

use dbring_agca::ast::Query;
use dbring_agca::eval::eval_all_groups;
use dbring_agca::parser::parse_query;
use dbring_algebra::{Number, Semiring};
use dbring_compiler::compile;
use dbring_relations::{BatchNormalizer, Database, Update, Value};
use dbring_runtime::{ExecStats, Executor, InterpretedExecutor};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn catalog() -> Database {
    let mut db = Database::new();
    db.declare("C", &["cid", "nation"]).unwrap();
    db.declare("R", &["A"]).unwrap();
    db
}

/// Queries covering every plan-op shape: probes, enumerates (grouped and ungrouped),
/// guards, and scalar value terms.
fn corpus() -> Vec<Query> {
    [
        "q1[c] := Sum(C(c, n) * C(c2, n))",
        "q2 := Sum(R(x) * R(y) * (x = y))",
        "q3[n] := Sum(C(c, n) * n)",
        "q4 := Sum(C(c, n) * R(n) * (n >= 1))",
    ]
    .iter()
    .map(|text| parse_query(text).unwrap())
    .collect()
}

/// A random update with mixed multiplicities: plain inserts/deletes plus batched
/// |multiplicity| > 1 updates (which the executor must unroll into single-tuple firings).
fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0i64..3, -2i64..=2).prop_map(|(c, n, m)| Update {
            relation: "C".to_string(),
            values: vec![Value::int(c), Value::int(n)],
            multiplicity: if m == 0 { 1 } else { m },
        }),
        (0i64..4, -3i64..=3).prop_map(|(a, m)| Update {
            relation: "R".to_string(),
            values: vec![Value::int(a)],
            multiplicity: if m == 0 { -1 } else { m },
        }),
    ]
}

/// Replays `trace` in chunks of `chunk` updates, each chunk normalized once and applied
/// through both executors' batch paths; asserts identical tables, view-hierarchy sizes
/// and exact work counters, and returns the lowered executor.
fn batched_parity(
    query: &Query,
    trace: &[Update],
    chunk: usize,
) -> Result<Executor, TestCaseError> {
    let program = compile(&catalog(), query).unwrap();
    let mut lowered = Executor::new(program.clone());
    let mut interpreted = InterpretedExecutor::new(program);
    let mut normalizer = BatchNormalizer::new();
    for piece in trace.chunks(chunk) {
        let batch = normalizer.normalize(piece);
        lowered.apply_batch(&batch).unwrap();
        interpreted.apply_batch(&batch).unwrap();
    }
    prop_assert_eq!(lowered.output_table(), interpreted.output_table());
    prop_assert_eq!(lowered.total_entries(), interpreted.total_entries());
    prop_assert_eq!(
        lowered.stats(),
        interpreted.stats(),
        "batched work counters diverged on query {} (chunk {})",
        &query.name,
        chunk
    );
    Ok(lowered)
}

/// Drops zero-valued groups (the executor prunes them; the evaluator may report them).
fn nonzero(table: BTreeMap<Vec<Value>, Number>) -> BTreeMap<Vec<Value>, Number> {
    table.into_iter().filter(|(_, v)| !v.is_zero()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lowered_executor_matches_the_reference_evaluator_and_the_interpreter(
        trace in prop::collection::vec(arb_update(), 1..50),
        chunk in 1usize..12,
    ) {
        let catalog = catalog();
        for query in corpus() {
            let program = compile(&catalog, &query).unwrap();
            let mut lowered = Executor::new(program.clone());
            let mut interpreted = InterpretedExecutor::new(program);
            let mut db = catalog.clone();
            for update in &trace {
                lowered.apply(update).unwrap();
                interpreted.apply(update).unwrap();
                db.apply(update).unwrap();
            }
            // (a) Final-state correctness against from-scratch evaluation.
            let reference = nonzero(eval_all_groups(&query, &db).unwrap());
            prop_assert_eq!(
                nonzero(lowered.output_table()),
                reference,
                "query {} diverged from the reference evaluator",
                &query.name
            );
            // (b) Exact agreement with the interpreter: tables, view hierarchy size, and
            // the per-operation work counters.
            prop_assert_eq!(lowered.output_table(), interpreted.output_table());
            prop_assert_eq!(lowered.total_entries(), interpreted.total_entries());
            prop_assert_eq!(
                lowered.stats(),
                interpreted.stats(),
                "work counters diverged on query {}",
                &query.name
            );
            prop_assert_eq!(
                lowered.storage_footprint().entries,
                interpreted.storage_footprint().entries
            );
            // (c) The batch paths, chunked: exact parity with the interpreter, and the
            // same final state as per-update ingest, down to the view hierarchy.
            let batched = batched_parity(&query, &trace, chunk)?;
            prop_assert_eq!(batched.output_table(), lowered.output_table());
            prop_assert_eq!(batched.total_entries(), lowered.total_entries());
        }
    }
}

/// Deterministic `ExecStats` parity over the synthetic workload streams (larger and more
/// structured than the proptest traces: indexed enumerations, three-way joins, deletes).
#[test]
fn exec_stats_agree_between_interpreted_and_lowered_paths() {
    use dbring_workloads::{customers_by_nation, rst_sum_join, self_join_count, WorkloadConfig};
    let config = WorkloadConfig {
        seed: 11,
        initial_size: 120,
        stream_length: 200,
        domain_size: 12,
        delete_fraction: 0.3,
    };
    for workload in [
        self_join_count(config),
        customers_by_nation(config),
        rst_sum_join(config),
    ] {
        let program = compile(&workload.catalog, &workload.query).unwrap();
        let mut lowered = Executor::new(program.clone());
        let mut interpreted = InterpretedExecutor::new(program);
        for update in workload.initial.iter().chain(&workload.stream) {
            lowered.apply(update).unwrap();
            interpreted.apply(update).unwrap();
        }
        let (l, i) = (lowered.stats(), interpreted.stats());
        assert_eq!(l, i, "stats diverged on workload {}", workload.name);
        assert_eq!(
            l.arithmetic_ops(),
            i.arithmetic_ops(),
            "derived op totals diverged on workload {}",
            workload.name
        );
        assert_ne!(
            l,
            ExecStats::default(),
            "workload {} did no work",
            workload.name
        );
        assert_eq!(
            lowered.output_table(),
            interpreted.output_table(),
            "tables diverged on workload {}",
            workload.name
        );
    }
}

/// The lowered path keeps the constant-work guarantee: per-update arithmetic ops for a
/// loop-free trigger program are bounded independently of how large the maps have grown.
#[test]
fn constant_work_per_update_is_preserved_by_lowering() {
    let catalog = catalog();
    let q = parse_query("q2 := Sum(R(x) * R(y) * (x = y))").unwrap();
    let mut exec = Executor::new(compile(&catalog, &q).unwrap());
    let mut worst = 0u64;
    for i in 0..2_000i64 {
        let before = exec.stats().arithmetic_ops();
        exec.apply(&Update::insert("R", vec![Value::int(i % 7)]))
            .unwrap();
        worst = worst.max(exec.stats().arithmetic_ops() - before);
    }
    assert!(worst <= 12, "per-update ops grew to {worst}");
    assert!(exec.total_entries() > 7);
}
