//! Property tests for the parallel ingest path: every parallel configuration must be
//! observationally identical to sequential ingest, across both storage backends.
//!
//! 1. **Parallel dispatch == sequential dispatch**: a ring built with `ingest_threads(k)`
//!    for k in {2, 4, 8} must reach exactly the tables *and* `ExecStats` of the same
//!    ring built with `ingest_threads(1)`, over random chunked streams.
//!    The registry fans a batch out only when it carries at least
//!    `MIN_DELTAS_PER_SHARD` deltas per configured thread; a deterministic case
//!    straddles that threshold so both sides of it stay covered.
//! 2. **Sharded flush == sequential flush**: `ViewStorage::apply_sorted_sharded` must
//!    leave any pre-seeded map in exactly the state `apply_sorted` would, for any shard
//!    count — including runs small enough to take the sequential fallback.

use std::collections::BTreeMap;

use dbring::{
    Catalog, HashViewStorage, Number, OrderedViewStorage, RingBuilder, StorageBackend, Update,
    Value, ViewDef, ViewId, ViewStorage, MIN_DELTAS_PER_SHARD,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// Probe-only, enumerating, multi-relation and scalar-guard shapes, all
/// integer-valued so tables and stats compare bit-exactly.
const VIEWS: &[(&str, &str)] = &[
    ("r_by_a", "q[a] := Sum(R(a, b) * b)"),
    ("r_selfjoin", "q := Sum(R(a, b) * R(a2, b) * (a = a2))"),
    ("s_count", "q := Sum(S(x))"),
    ("rs_join", "q[a] := Sum(R(a, b) * S(b))"),
];

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..4, 0i64..3, any::<bool>()).prop_map(|(a, b, ins)| {
            let values = vec![Value::int(a), Value::int(b)];
            if ins {
                Update::insert("R", values)
            } else {
                Update::delete("R", values)
            }
        }),
        (0i64..3, any::<bool>()).prop_map(|(x, ins)| {
            let values = vec![Value::int(x)];
            if ins {
                Update::insert("S", values)
            } else {
                Update::delete("S", values)
            }
        }),
    ]
}

fn backends() -> [StorageBackend; 2] {
    [StorageBackend::Hash, StorageBackend::Ordered]
}

/// An owned delta run: `(key, weight)` pairs in ascending key order.
type Run = Vec<(Vec<Value>, Number)>;

/// Deterministically expands `(n, salt)` into a seeded map plus a sorted,
/// deduplicated delta run mixing the four interesting delta shapes: full prune
/// (accumulates to zero), plain accumulate, brand-new key, and a no-op zero delta.
fn seeded_run(n: usize, salt: i64) -> (Run, Run) {
    let key = |a: i64, b: i64| vec![Value::int(a), Value::int(b)];
    let seeds: Run = (0..n as i64)
        .map(|i| (key(i, i % 4), Number::Int(i + 1)))
        .collect();
    let mut deltas: Run = Vec::new();
    for i in 0..n as i64 {
        match (i + salt) % 4 {
            0 => deltas.push((key(i, i % 4), Number::Int(-(i + 1)))),
            1 => deltas.push((key(i, i % 4), Number::Int(7 + salt))),
            2 => deltas.push((key(n as i64 + i, i % 4), Number::Int(5))),
            _ => deltas.push((key(i, i % 4), Number::Int(0))),
        }
    }
    deltas.sort_by(|x, y| x.0.cmp(&y.0));
    deltas.dedup_by(|x, y| x.0 == y.0);
    (seeds, deltas)
}

/// Seeds one storage per path, lands the run both ways, and checks every
/// observable surface: table, length, footprint, and slice-index enumeration.
fn check_shard_parity<S: ViewStorage>(n: usize, shards: usize, salt: i64) {
    let (seeds, deltas) = seeded_run(n, salt);
    let mut sequential = S::new(2);
    sequential.register_index(vec![1]);
    let mut sharded = sequential.clone();
    let seed_refs: Vec<(&[Value], Number)> =
        seeds.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
    sequential.apply_sorted(&seed_refs);
    sharded.apply_sorted(&seed_refs);

    let refs: Vec<(&[Value], Number)> = deltas.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
    sequential.apply_sorted(&refs);
    sharded.apply_sorted_sharded(&refs, shards);

    assert_eq!(sequential.to_table(), sharded.to_table());
    assert_eq!(sequential.len(), sharded.len());
    assert_eq!(sequential.footprint(), sharded.footprint());
    for b in 0..4i64 {
        let mut seq_slice: BTreeMap<Vec<Value>, Number> = BTreeMap::new();
        let mut shard_slice: BTreeMap<Vec<Value>, Number> = BTreeMap::new();
        sequential.for_each_slice(&[1], &[Value::int(b)], |k, v| {
            seq_slice.insert(k.to_vec(), v);
        });
        sharded.for_each_slice(&[1], &[Value::int(b)], |k, v| {
            shard_slice.insert(k.to_vec(), v);
        });
        assert_eq!(seq_slice, shard_slice, "slice b={b} diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One stream, chunked identically, ingested by a sequential ring and by
    /// parallel rings at 2/4/8 threads: tables and exact work counters must agree
    /// for every view on every backend.
    #[test]
    fn parallel_dispatch_equals_sequential_dispatch(
        stream in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..16,
    ) {
        for backend in backends() {
            let mut sequential = RingBuilder::new(catalog())
                .backend(backend)
                .ingest_threads(1)
                .build();
            let ids: Vec<ViewId> = VIEWS
                .iter()
                .map(|(name, text)| sequential.create_view(*name, ViewDef::Agca(text)).unwrap())
                .collect();
            for piece in stream.chunks(chunk) {
                sequential.apply_batch(piece).unwrap();
            }
            for threads in [2usize, 4, 8] {
                let mut parallel = RingBuilder::new(catalog())
                    .backend(backend)
                    .ingest_threads(threads)
                    .build();
                for (name, text) in VIEWS {
                    parallel.create_view(*name, ViewDef::Agca(text)).unwrap();
                }
                for piece in stream.chunks(chunk) {
                    parallel.apply_batch(piece).unwrap();
                }
                for (i, (name, _)) in VIEWS.iter().enumerate() {
                    let seq = sequential.view(ids[i]).unwrap();
                    let par = parallel.view_named(name).unwrap();
                    prop_assert_eq!(
                        seq.table(),
                        par.table(),
                        "tables diverge for {} on {} at {} threads",
                        name,
                        backend,
                        threads
                    );
                    prop_assert_eq!(
                        seq.stats(),
                        par.stats(),
                        "work counters diverge for {} on {} at {} threads",
                        name,
                        backend,
                        threads
                    );
                }
            }
        }
    }

    /// `apply_sorted_sharded` == `apply_sorted` on both backends for any shard
    /// count and run size — `n` below `MIN_DELTAS_PER_SHARD * 2` exercises the
    /// sequential fallback, larger `n` the real sharded landing.
    #[test]
    fn sharded_apply_equals_sequential_apply(
        n in 0usize..600,
        shards in 1usize..9,
        salt in 0i64..100,
    ) {
        check_shard_parity::<HashViewStorage>(n, shards, salt);
        check_shard_parity::<OrderedViewStorage>(n, shards, salt);
    }
}

/// Batches of exactly one delta fewer than, as many as, and one more than the
/// fan-out threshold (`threads * MIN_DELTAS_PER_SHARD` distinct deltas): the last
/// sequential batch and the first fanned-out one must leave tables and work
/// counters identical to a sequential ring's.
#[test]
fn dispatch_agrees_on_both_sides_of_the_fan_out_threshold() {
    for backend in backends() {
        for threads in [2usize, 4] {
            let threshold = threads * MIN_DELTAS_PER_SHARD;
            for deltas in [threshold - 1, threshold, threshold + 1] {
                // `deltas` distinct tuples over both relations, then a second batch
                // of the same size deleting most of them again.
                let inserts: Vec<Update> = (0..deltas as i64)
                    .map(|i| match i % 8 {
                        0 => Update::insert("S", vec![Value::int(i)]),
                        _ => Update::insert("R", vec![Value::int(i), Value::int(i % 3)]),
                    })
                    .collect();
                let mut deletes: Vec<Update> = inserts
                    .iter()
                    .skip(5)
                    .map(|u| Update::delete(u.relation.as_str(), u.values.clone()))
                    .collect();
                deletes.extend((0..5).map(|i| Update::insert("S", vec![Value::int(-1 - i)])));
                let run = |threads: usize| {
                    let mut ring = RingBuilder::new(catalog())
                        .backend(backend)
                        .ingest_threads(threads)
                        .build();
                    for (name, text) in VIEWS {
                        ring.create_view(*name, ViewDef::Agca(text)).unwrap();
                    }
                    ring.apply_batch(&inserts).unwrap();
                    ring.apply_batch(&deletes).unwrap();
                    ring
                };
                let (sequential, parallel) = (run(1), run(threads));
                for (name, _) in VIEWS {
                    let seq = sequential.view_named(name).unwrap();
                    let par = parallel.view_named(name).unwrap();
                    assert_eq!(
                        seq.table(),
                        par.table(),
                        "{name} on {backend}, {threads} threads, {deltas} deltas"
                    );
                    assert_eq!(
                        seq.stats(),
                        par.stats(),
                        "{name} on {backend}, {threads} threads, {deltas} deltas"
                    );
                }
            }
        }
    }
}
