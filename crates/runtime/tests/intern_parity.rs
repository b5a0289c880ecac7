//! Parity of the batch ingest path with the classic `Vec<Value>` path, at the
//! executor level: feeding a [`BatchNormalizer`]-built batch must produce the same
//! tables AND bit-identical [`ExecStats`] as feeding the reference
//! [`DeltaBatch::from_updates`] batch — on both the lowered and the interpreted
//! executor. The lowered executor's `apply_batch` is `stage_batch` plus
//! `commit_staged`, so the staged flush (one `add_ref` per consolidated key, each
//! pre-image logged) is the one under test.
//!
//! The traces are string-heavy on purpose, with strings arriving in non-lexicographic
//! order, and the flushed group keys (`by_nation`'s strings, `rs`'s customer ids)
//! include values whose order codes tie. Nothing on the ingest path sorts keys: a
//! batch and a flush land them in first-arrival order. The last property pins that
//! this order is a function of the batches alone — two executors built
//! independently, whose storages and key pools draw different hash seeds, land the
//! same batches identically and enumerate their outputs in the same order.

use dbring_agca::parser::parse_query;
use dbring_algebra::Number;
use dbring_compiler::{compile, TriggerProgram};
use dbring_relations::{BatchNormalizer, Database, DeltaBatch, Update, Value};
use dbring_runtime::{Executor, InterpretedExecutor, ViewStorage};
use proptest::prelude::*;

/// Lexicographic traps: arrival order disagrees with sort order ("zz" will usually
/// be seen before "a"); the last three share their first 8 bytes, so their order
/// codes tie.
const NATIONS: [&str; 9] = [
    "zz",
    "m",
    "aa",
    "z",
    "a",
    "b",
    "customer_0001",
    "customer_0002",
    "customer",
];

/// Customer ids: small ints, and values whose order codes tie — ints beyond ±2⁶¹,
/// floats apart only in their two low bits, and booleans.
fn arb_cid() -> impl Strategy<Value = Value> {
    const HALF: i64 = 1 << 61;
    let one = 1.0f64.to_bits();
    prop_oneof![
        (0i64..5).prop_map(Value::int),
        prop_oneof![Just(-HALF - 1), Just(HALF), Just(i64::MAX)].prop_map(Value::int),
        (0u64..4).prop_map(move |low| Value::float(f64::from_bits(one ^ low))),
        any::<bool>().prop_map(Value::Bool),
    ]
}

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
        (arb_cid(), 0usize..NATIONS.len(), -2i64..=2).prop_map(|(c, n, m)| Update {
            relation: "C".to_string(),
            values: vec![c, Value::str(NATIONS[n])],
            multiplicity: if m == 0 { 1 } else { m },
        }),
        (arb_cid(), -2i64..=2).prop_map(|(a, m)| Update {
            relation: "R".to_string(),
            values: vec![a],
            multiplicity: if m == 0 { -1 } else { m },
        }),
    ]
}

/// Runs the full matrix: every executor consumes the same chunked trace, some through
/// the reusable normalizer, some through the classic constructor, and all pairs must
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

/// Every `(key, value)` the output visits, in visiting order.
fn visits(executor: &Executor) -> Vec<(Vec<Value>, Number)> {
    let mut out = Vec::new();
    executor.output().for_each(|k, v| out.push((k.to_vec(), v)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two executors and two normalizers, each drawing its own hash seeds, fed the
    /// same chunks: the batches, the order the outputs enumerate in, the tables and
    /// the work counters agree after every chunk.
    #[test]
    fn independently_built_executors_land_batches_in_the_same_order(
        trace in prop::collection::vec(arb_update(), 1..80),
        chunk in 1usize..24,
    ) {
        for program in corpus() {
            let mut pair = [Executor::new(program.clone()), Executor::new(program.clone())];
            let mut normalizers = [BatchNormalizer::new(), BatchNormalizer::new()];
            for c in trace.chunks(chunk) {
                let batches = normalizers.each_mut().map(|n| n.normalize(c));
                prop_assert_eq!(&batches[0], &batches[1]);
                for (executor, batch) in pair.iter_mut().zip(&batches) {
                    executor.apply_batch(batch).unwrap();
                }
                prop_assert_eq!(visits(&pair[0]), visits(&pair[1]));
            }
            prop_assert_eq!(pair[0].output_table(), pair[1].output_table());
            prop_assert_eq!(pair[0].stats(), pair[1].stats());
        }
    }
}
