//! Parity of the interned fixed-width ingest path with the classic `Vec<Value>` path,
//! at the executor level: feeding a [`BatchNormalizer`]-built batch must produce the
//! same tables AND bit-identical [`ExecStats`] as feeding the reference
//! [`DeltaBatch::from_updates`] batch — on both the lowered and the interpreted
//! executor. The lowered executor's `apply_batch` is `stage_batch` plus
//! `commit_staged`, so the staged (`apply_sorted` with its pre-image log) flush is the
//! one under test.
//!
//! The traces are string-heavy on purpose: group keys are strings whose interner ids
//! are assigned in non-lexicographic order, so a flush that sorted by id instead of by
//! `Value` order would break `apply_sorted`'s strictly-ascending precondition (checked
//! by a debug assertion) and fail here.

use dbring_agca::parser::parse_query;
use dbring_compiler::{compile, TriggerProgram};
use dbring_relations::{BatchNormalizer, Database, DeltaBatch, Update, Value};
use dbring_runtime::{Executor, InterpretedExecutor};
use proptest::prelude::*;

/// Lexicographic traps: ids get assigned in arrival order, which these strings make
/// disagree with their sort order ("zz" will usually be seen before "a").
const NATIONS: [&str; 6] = ["zz", "m", "aa", "z", "a", "b"];

fn catalog() -> Database {
    let mut db = Database::new();
    db.declare("C", &["cid", "nation"]).unwrap();
    db.declare("R", &["A"]).unwrap();
    db
}

/// String-keyed aggregation (weighted flush), a self-join (unit replay), and a
/// multi-relation probe.
fn corpus() -> Vec<TriggerProgram> {
    let db = catalog();
    [
        "by_nation[n] := Sum(C(c, n))",
        "pairs := Sum(C(c, n) * C(c2, n))",
        "rs[c] := Sum(C(c, n) * R(c))",
    ]
    .iter()
    .map(|text| compile(&db, &parse_query(text).unwrap()).unwrap())
    .collect()
}

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0usize..NATIONS.len(), -2i64..=2).prop_map(|(c, n, m)| Update {
            relation: "C".to_string(),
            values: vec![Value::int(c), Value::str(NATIONS[n])],
            multiplicity: if m == 0 { 1 } else { m },
        }),
        (0i64..4, -2i64..=2).prop_map(|(a, m)| Update {
            relation: "R".to_string(),
            values: vec![Value::int(a)],
            multiplicity: if m == 0 { -1 } else { m },
        }),
    ]
}

/// Runs the full matrix: every executor consumes the same chunked trace, some through
/// the interned normalizer, some through the classic constructor, and all pairs must
/// agree exactly.
fn check_matrix(program: &TriggerProgram, trace: &[Update], chunk: usize) {
    let mut interned = Executor::new(program.clone());
    let mut classic = Executor::new(program.clone());
    let mut interp_interned = InterpretedExecutor::new(program.clone());
    let mut interp_classic = InterpretedExecutor::new(program.clone());
    let mut per_tuple = Executor::new(program.clone());
    let mut normalizer = BatchNormalizer::new();
    for c in trace.chunks(chunk.max(1)) {
        let interned_batch = normalizer.normalize(c);
        let classic_batch = DeltaBatch::from_updates(c);
        assert_eq!(interned_batch, classic_batch, "normalization diverged");
        interned.apply_batch(&interned_batch).unwrap();
        classic.apply_batch(&classic_batch).unwrap();
        interp_interned.apply_batch(&interned_batch).unwrap();
        interp_classic.apply_batch(&classic_batch).unwrap();
        per_tuple.apply_all(c).unwrap();
    }
    // Interned vs classic: tables and bit-identical work counters, on both executors.
    assert_eq!(interned.output_table(), classic.output_table());
    assert_eq!(interned.stats(), classic.stats());
    assert_eq!(
        interp_interned.output_table(),
        interp_classic.output_table()
    );
    assert_eq!(interp_interned.stats(), interp_classic.stats());
    // The batch paths still agree with single-tuple ground truth (tables; the batch
    // path legitimately does less work, so stats are not compared here).
    assert_eq!(interned.output_table(), per_tuple.output_table());
    assert_eq!(interned.total_entries(), per_tuple.total_entries());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interned_path_matches_classic_path_across_the_matrix(
        trace in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..24,
    ) {
        for program in corpus() {
            check_matrix(&program, &trace, chunk);
        }
    }
}
