//! Property tests for the [`dbring::Ring`] engine's two load-bearing equivalences,
//! across both storage backends:
//!
//! 1. **Late-registration backfill**: a view created after N random updates must equal
//!    the same view replayed from scratch over those updates — at the registration
//!    point and after arbitrary further maintenance.
//! 2. **Routed shared-batch ingest**: one ring maintaining k views from one chunked
//!    stream must reach exactly the tables *and* `ExecStats` of k independent
//!    executors (the amortization moves normalization, never ring work).

use dbring::{
    compile, parse_query, BatchNormalizer, Catalog, Executor, RingBuilder, StorageBackend, Update,
    Value, ViewDef, ViewId,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// The standing views: coverage over probe-only, enumerating, multi-relation and
/// scalar-guard shapes, all integer-valued so tables compare bit-exactly.
const VIEWS: &[(&str, &str)] = &[
    ("r_by_a", "q[a] := Sum(R(a, b) * b)"),
    ("r_selfjoin", "q := Sum(R(a, b) * R(a2, b) * (a = a2))"),
    ("s_count", "q := Sum(S(x))"),
    ("rs_join", "q[a] := Sum(R(a, b) * S(b))"),
];

/// Random single-tuple updates over a small domain (collisions and deletions are
/// common, so consolidation and zero-crossings get exercised).
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

/// An independent executor for one of [`VIEWS`], with its own batch normalizer.
fn solo(text: &str) -> (Executor, BatchNormalizer) {
    let program = compile(&catalog(), &parse_query(text).unwrap()).unwrap();
    (Executor::new(program), BatchNormalizer::new())
}

fn backends() -> [StorageBackend; 2] {
    [StorageBackend::Hash, StorageBackend::Ordered]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A view registered after the stream equals the same view replayed from scratch,
    /// on every backend — and the two stay equal under further mixed ingest.
    #[test]
    fn late_registration_equals_replay_from_scratch(
        prefix in prop::collection::vec(arb_update(), 1..50),
        suffix in prop::collection::vec(arb_update(), 0..30),
    ) {
        for backend in backends() {
            let mut ring = RingBuilder::new(catalog()).backend(backend).build();
            ring.apply_all(&prefix).unwrap();
            let ids: Vec<ViewId> = VIEWS
                .iter()
                .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
                .collect();

            for (i, (name, text)) in VIEWS.iter().enumerate() {
                let (mut replayed, mut normalizer) = solo(text);
                replayed.apply_all(&prefix).unwrap();
                prop_assert_eq!(
                    ring.view(ids[i]).unwrap().table(),
                    replayed.output_table(),
                    "late view {} diverges from replay on {} after backfill",
                    name,
                    backend
                );

                // Further maintenance keeps them in lockstep (half per-update, half
                // batched, so both ingest paths run over the backfilled state).
                let (head, tail) = suffix.split_at(suffix.len() / 2);
                let mut fork = ring.clone();
                fork.apply_all(head).unwrap();
                fork.apply_batch(tail).unwrap();
                replayed.apply_all(head).unwrap();
                replayed.apply_batch(&normalizer.normalize(tail)).unwrap();
                prop_assert_eq!(
                    fork.view(ids[i]).unwrap().table(),
                    replayed.output_table(),
                    "late view {} diverges from replay on {} after further ingest",
                    name,
                    backend
                );
            }
        }
    }

    /// One ring, k views, chunked shared-batch ingest == k independent views, in
    /// tables and exact work counters, on every backend.
    #[test]
    fn routed_shared_batches_equal_independent_views(
        stream in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..16,
    ) {
        for backend in backends() {
            let mut ring = RingBuilder::new(catalog()).backend(backend).build();
            let ids: Vec<ViewId> = VIEWS
                .iter()
                .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
                .collect();
            for piece in stream.chunks(chunk) {
                ring.apply_batch(piece).unwrap();
            }
            for (i, (name, text)) in VIEWS.iter().enumerate() {
                let (mut exec, mut normalizer) = solo(text);
                for piece in stream.chunks(chunk) {
                    exec.apply_batch(&normalizer.normalize(piece)).unwrap();
                }
                let hosted = ring.view(ids[i]).unwrap();
                prop_assert_eq!(
                    hosted.table(),
                    exec.output_table(),
                    "tables diverge for {} on {}",
                    name,
                    backend
                );
                prop_assert_eq!(
                    hosted.stats(),
                    exec.stats(),
                    "work counters diverge for {} on {}",
                    name,
                    backend
                );
            }
        }
    }
}
