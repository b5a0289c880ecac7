//! The executors and the [`ViewStorage`] contract, on [`HashViewStorage`].
//!
//! The contract promises that storage only changes *where* entries physically live,
//! never *which* entries a probe or partial-key enumeration sees. The executor tests
//! check that the lowered and interpreted executors agree with each other and with the
//! reference evaluator on random mixed-multiplicity traces, per update and batched;
//! because [`ExecStats`](dbring_runtime::ExecStats) counts one operation per visited
//! entry, an index that misses an entry (the `register_index` backfill regression)
//! shows up as diverging counters, not just in a benchmark.
//!
//! Below the executors, the model-based suite at the end of this file pins the
//! [`ViewStorage`] contract itself: random operation streams over every trait method,
//! checked against a `BTreeMap` model after every step.

use dbring_agca::ast::Query;
use dbring_agca::eval::eval_all_groups;
use dbring_agca::parser::parse_query;
use dbring_algebra::{Number, Ring, Semiring};
use dbring_compiler::compile;
use dbring_relations::{Database, DeltaBatch, Update, Value};
use dbring_runtime::{Executor, HashViewStorage, InterpretedExecutor, ViewStorage};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn catalog() -> Database {
    let mut db = Database::new();
    db.declare("C", &["cid", "nation"]).unwrap();
    db.declare("R", &["A"]).unwrap();
    db
}

/// Queries covering every plan-op shape: probes, enumerates (grouped and ungrouped,
/// prefix and non-prefix slice patterns), guards, and scalar value terms.
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
/// |multiplicity| > 1 updates (which the executors must unroll into single-tuple
/// firings).
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

/// Drops zero-valued groups (the executors prune them; the evaluator may report them).
fn nonzero(table: BTreeMap<Vec<Value>, Number>) -> BTreeMap<Vec<Value>, Number> {
    table.into_iter().filter(|(_, v)| !v.is_zero()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-update maintenance on both executors against from-scratch evaluation, with
    /// exact work-counter parity. (The name predates the removal of the second
    /// backend.)
    #[test]
    fn hash_and_ordered_backends_agree_on_both_executors(
        trace in prop::collection::vec(arb_update(), 1..50),
    ) {
        let catalog = catalog();
        for query in corpus() {
            let program = compile(&catalog, &query).unwrap();
            let mut lowered = Executor::new(program.clone());
            let mut interp = InterpretedExecutor::new(program);
            let mut db = catalog.clone();
            for update in &trace {
                lowered.apply(update).unwrap();
                interp.apply(update).unwrap();
                db.apply(update).unwrap();
            }
            // (a) Final-state correctness against from-scratch evaluation.
            let reference = nonzero(eval_all_groups(&query, &db).unwrap());
            prop_assert_eq!(
                nonzero(lowered.output_table()),
                reference,
                "lowered executor diverged from the reference evaluator on {}",
                &query.name
            );
            // (b) Executor equivalence: tables, hierarchy size, exactly equal work
            // counters and entry counts.
            prop_assert_eq!(lowered.output_table(), interp.output_table());
            prop_assert_eq!(lowered.total_entries(), interp.total_entries());
            prop_assert_eq!(
                lowered.stats(),
                interp.stats(),
                "work counters diverged across executors on {}",
                &query.name
            );
            prop_assert_eq!(
                lowered.storage_footprint().entries,
                interp.storage_footprint().entries
            );
        }
    }
}

/// A deterministic Fisher–Yates permutation of a trace, driven by a cheap LCG so the
/// proptest input fully determines the order (the offline proptest stand-in has no
/// `Shuffle` strategy).
fn permute(mut trace: Vec<Update>, mut seed: u64) -> Vec<Update> {
    for i in (1..trace.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        trace.swap(i, j);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `apply_batch` over *any* chunking of *any* permutation of a mixed-multiplicity
    /// trace ends in exactly the tables the per-tuple `apply_all` reaches, on both
    /// executors. (The maintained views depend only on the net delta, which
    /// permutation, chunking and in-batch consolidation all preserve.)
    #[test]
    fn apply_batch_matches_per_tuple_apply_all_across_backends_and_executors(
        trace in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..9,
        perm_seed in 0u64..u64::MAX,
    ) {
        let catalog = catalog();
        let permuted = permute(trace.clone(), perm_seed);
        for query in corpus() {
            let program = compile(&catalog, &query).unwrap();
            let mut reference = Executor::new(program.clone());
            reference.apply_all(&trace).unwrap();
            let expected = reference.output_table();
            let expected_entries = reference.total_entries();
            let mut lowered = Executor::new(program.clone());
            let mut interp = InterpretedExecutor::new(program);
            for piece in permuted.chunks(chunk) {
                let batch = DeltaBatch::from_updates(piece);
                lowered.apply_batch(&batch).unwrap();
                interp.apply_batch(&batch).unwrap();
            }
            // The two batch paths also account their work identically.
            prop_assert_eq!(lowered.stats(), interp.stats());
            prop_assert_eq!(&lowered.output_table(), &expected, "lowered diverged on {}", &query.name);
            prop_assert_eq!(&interp.output_table(), &expected, "interp diverged on {}", &query.name);
            // The whole view hierarchy (not just the output map) converged too.
            prop_assert_eq!(lowered.total_entries(), expected_entries);
            prop_assert_eq!(interp.total_entries(), expected_entries);
        }
    }
}

// ---------------------------------------------------------------------------------
// The storage contract, model-based: random op streams against a `BTreeMap`.
// ---------------------------------------------------------------------------------

type Model = BTreeMap<Vec<Value>, Number>;

/// A cheap deterministic generator: the proptest input (one seed) fully determines
/// the operation stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as usize % n
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// Key components of every variant, with the edge cases of each: canonicalized floats
/// (`-0.0`, NaN), strings that are empty, non-ASCII, and longer than one hash word.
fn value_pool() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(-7),
        Value::int(i64::MAX),
        Value::float(0.0),
        Value::float(-0.0),
        Value::float(f64::NAN),
        Value::float(2.5),
        Value::str(""),
        Value::str("é"),
        Value::str("naïve ☃ 数据, longer than eight bytes"),
        Value::Bool(false),
        Value::Bool(true),
    ]
}

/// Deltas and values whose sums stay exact (multiples of ½), zero included.
fn number_pool() -> Vec<Number> {
    let mut pool: Vec<Number> = (-2..=2).map(Number::Int).collect();
    pool.extend([0.5, -0.5, 0.0, 1.5].map(Number::Float));
    pool
}

/// A number's exact representation: variant and bit pattern (`Number`'s `==` is
/// numeric, and `restore` promises more than that).
fn bits(n: Number) -> (bool, u64) {
    match n {
        Number::Int(i) => (true, i as u64),
        Number::Float(f) => (false, f.to_bits()),
    }
}

fn exact(
    entries: impl IntoIterator<Item = (Vec<Value>, Number)>,
) -> Vec<(Vec<Value>, (bool, u64))> {
    let mut out: Vec<_> = entries.into_iter().map(|(k, v)| (k, bits(v))).collect();
    out.sort_unstable();
    out
}

fn model_get(model: &Model, key: &[Value]) -> Number {
    model.get(key).copied().unwrap_or(Number::Int(0))
}

/// `add`/`add_ref` as the trait documents them: zero deltas ignored, a new entry holds
/// the delta itself, zero sums pruned; returns the pre-image.
fn model_add(model: &mut Model, key: &[Value], delta: Number) -> Number {
    let pre = model_get(model, key);
    if !delta.is_zero() {
        let sum = if pre.is_zero() {
            delta
        } else {
            pre.add(&delta)
        };
        if sum.is_zero() {
            model.remove(key);
        } else {
            model.insert(key.to_vec(), sum);
        }
    }
    pre
}

/// Everything observable about `storage` agrees with `model`: `len`, `to_table`, the
/// footprint identities, `get` on the probe keys, and — for every registered pattern,
/// one unregistered one and the empty one — the slice of each probe key, which must
/// also equal what the index-free scan finds.
fn verify(
    storage: &HashViewStorage,
    model: &Model,
    patterns: &[Vec<usize>],
    probes: &[Vec<Value>],
) {
    assert_eq!(storage.len(), model.len());
    assert_eq!(storage.is_empty(), model.is_empty());
    assert_eq!(exact(storage.to_table()), exact(model.clone()));
    let footprint = storage.footprint();
    assert_eq!(footprint.entries, model.len());
    assert!(footprint.indexes <= patterns.len());
    assert_eq!(footprint.index_entries, model.len() * footprint.indexes);
    let arity = storage.key_arity();
    let unregistered: Vec<usize> = (0..arity).skip(1).step_by(2).collect();
    for key in probes {
        assert_eq!(
            bits(storage.get(key)),
            bits(model_get(model, key)),
            "{key:?}"
        );
        for positions in patterns.iter().chain([&unregistered, &Vec::new()]) {
            let values: Vec<Value> = positions.iter().map(|&i| key[i].clone()).collect();
            let (mut listed, mut scanned) = (Vec::new(), Vec::new());
            storage.for_each_slice(positions, &values, |k, v| listed.push((k.to_vec(), v)));
            storage.for_each_slice_scan(positions, &values, |k, v| scanned.push((k.to_vec(), v)));
            let matching = model
                .iter()
                .filter(|(k, _)| positions.iter().zip(&values).all(|(&i, v)| &k[i] == v))
                .map(|(k, v)| (k.clone(), *v));
            let listed = exact(listed);
            assert_eq!(listed, exact(scanned), "{positions:?} = {values:?}");
            assert_eq!(listed, exact(matching), "{positions:?} = {values:?}");
        }
    }
}

/// One random operation stream over every `ViewStorage` method, verified against the
/// model after every step; a clone taken mid-stream must stay what it was.
fn run_model(seed: u64, arity: usize, steps: usize) {
    let mut rng = Rng(seed | 1);
    let numbers = number_pool();
    // Three values per position: few enough keys that streams revisit, prune and
    // re-insert them, enough that every slice list gets long.
    let pool = value_pool();
    let domain: Vec<Value> = (0..3).map(|_| rng.pick(&pool)).collect();
    let mut storage = HashViewStorage::new(arity);
    let mut model = Model::new();
    let mut patterns: Vec<Vec<usize>> = Vec::new();
    let mut frozen: Option<(HashViewStorage, Model, Vec<Vec<usize>>)> = None;
    for _ in 0..steps {
        let key = |rng: &mut Rng| -> Vec<Value> { (0..arity).map(|_| rng.pick(&domain)).collect() };
        let mut probes = vec![key(&mut rng), key(&mut rng)];
        let target = probes[0].clone();
        match rng.below(12) {
            0 | 1 => {
                let delta = rng.pick(&numbers);
                storage.add(target.clone(), delta);
                model_add(&mut model, &target, delta);
            }
            2..=4 => {
                let delta = rng.pick(&numbers);
                let pre = storage.add_ref(&target, delta);
                assert_eq!(bits(pre), bits(model_add(&mut model, &target, delta)));
            }
            5 => {
                // Prune, then re-insert: the key comes back under a reused row.
                let current = model_get(&model, &target);
                for delta in [current.neg(), Number::Int(3)] {
                    let pre = storage.add_ref(&target, delta);
                    assert_eq!(bits(pre), bits(model_add(&mut model, &target, delta)));
                }
            }
            6 => {
                let value = rng.pick(&numbers);
                storage.set(target.clone(), value);
                let delta = value.add(&model_get(&model, &target).neg());
                model_add(&mut model, &target, delta);
            }
            7 => {
                // Bit-exact, whatever the bits: 0.1 + 0.2 is not a multiple of ½.
                let value = rng.pick(&[Number::Int(0), Number::Float(0.1 + 0.2), Number::Int(4)]);
                storage.restore(&target, value);
                if value.is_zero() {
                    model.remove(&target);
                } else {
                    model.insert(target.clone(), value);
                }
            }
            8 | 9 => {
                let mut run: BTreeMap<Vec<Value>, Number> = BTreeMap::new();
                for _ in 0..rng.below(7) {
                    run.insert(key(&mut rng), rng.pick(&numbers));
                }
                let refs: Vec<(&[Value], Number)> =
                    run.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
                let expected: Vec<_> = run
                    .keys()
                    .map(|k| (k.clone(), model_get(&model, k)))
                    .collect();
                let mut logged = Vec::new();
                storage.apply_sorted(&refs, |k, pre| logged.push((k.to_vec(), pre)));
                assert_eq!(exact(logged), exact(expected), "pre-images vs a probe loop");
                for (k, delta) in &run {
                    model_add(&mut model, k, *delta);
                }
                probes.extend(run.into_keys());
            }
            10 => {
                // Late, repeated, unsorted, duplicated and degenerate registrations.
                let raw: Vec<usize> = (0..rng.below(4)).map(|_| rng.below(arity.max(1))).collect();
                storage.register_index(raw.clone());
                let mut positions = raw;
                positions.sort_unstable();
                positions.dedup();
                let degenerate = positions.is_empty() || positions.len() >= arity;
                if !degenerate && !patterns.contains(&positions) {
                    patterns.push(positions);
                }
            }
            _ => {
                if frozen.is_none() {
                    let clone = storage.clone();
                    let original = std::mem::replace(&mut storage, clone);
                    frozen = Some((original, model.clone(), patterns.clone()));
                }
            }
        }
        verify(&storage, &model, &patterns, &probes);
    }
    let every_key: Vec<Vec<Value>> = (0..3usize.pow(arity as u32))
        .map(|n| {
            (0..arity)
                .map(|i| domain[n / 3usize.pow(i as u32) % 3].clone())
                .collect()
        })
        .collect();
    verify(&storage, &model, &patterns, &every_key);
    if let Some((original, model, patterns)) = frozen {
        verify(&original, &model, &patterns, &every_key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_backends_follow_the_model_under_random_op_streams(
        seed in 0u64..u64::MAX,
        arity in 0usize..5,
        steps in 40usize..160,
    ) {
        run_model(seed, arity, steps);
    }
}

/// Rows leave a slice at its head, from its middle, at its tail and as its last
/// member — four word writes on the row-id list — and the slice stays exactly the
/// members left, in every removal order.
#[test]
fn slice_members_leave_at_head_middle_tail_and_last() {
    let key = |a: i64| vec![Value::int(a), Value::str("group"), Value::int(a % 2)];
    let orders: [[i64; 4]; 4] = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 2, 0, 3], [2, 0, 3, 1]];
    for order in orders {
        let mut storage = HashViewStorage::new(3);
        storage.register_index(vec![1]);
        storage.register_index(vec![1, 2]);
        let mut model = Model::new();
        for a in 0..4 {
            storage.add(key(a), Number::Int(a + 1));
            model.insert(key(a), Number::Int(a + 1));
        }
        let patterns = [vec![1], vec![1, 2]];
        for a in order {
            verify(&storage, &model, &patterns, &[key(a), key(9)]);
            assert_eq!(
                storage.add_ref(&key(a), Number::Int(-a - 1)),
                Number::Int(a + 1)
            );
            model.remove(&key(a));
            verify(&storage, &model, &patterns, &[key(a), key(9)]);
        }
        assert!(storage.is_empty());
    }
}
