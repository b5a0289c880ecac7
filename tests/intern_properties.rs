//! Ring-level properties of the interned fixed-width ingest path (PR 8):
//!
//! 1. **Parity**: [`Ring::apply_batch`] — which normalizes on the ring's persistent
//!    [`BatchNormalizer`] scratch — must match a twin ring fed the classic
//!    [`DeltaBatch::from_updates`] batches through [`Ring::apply_delta_batch`]:
//!    identical tables AND bit-identical [`ExecStats`] per view, across both storage
//!    backends.
//! 2. **Interner-id stability**: ids handed out by [`Ring::interner`] survive
//!    `repair_view` rebuilds and `drop_view` — no dangling and no reassignment —
//!    while the repaired ring's tables stay equal to an untouched twin's.
//!
//! Streams are string-heavy with ids assigned in non-lexicographic order, so any
//! id-order leak into the sorted group or flush contracts fails loudly here.

use dbring::{
    DeltaBatch, ExecStats, Ring, RingBuilder, StorageBackend, Update, Value, ViewDef, ViewId,
};
use proptest::prelude::*;

/// Arrival order (likely "zz" first) disagrees with sort order.
const NATIONS: [&str; 6] = ["zz", "m", "aa", "z", "a", "b"];

fn catalog() -> dbring::Catalog {
    let mut c = dbring::Catalog::new();
    c.declare("C", &["cid", "nation"]).unwrap();
    c.declare("S", &["x"]).unwrap();
    c
}

/// String group keys, a self-join (unit replay), and a multi-relation probe.
const VIEWS: &[(&str, &str)] = &[
    ("by_nation", "q[n] := Sum(C(c, n))"),
    ("pairs", "q := Sum(C(c, n) * C(c2, n))"),
    ("cs_join", "q[c] := Sum(C(c, n) * S(c))"),
];

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0i64..5, 0usize..NATIONS.len(), any::<bool>()).prop_map(|(c, n, ins)| {
            let values = vec![Value::int(c), Value::str(NATIONS[n])];
            if ins {
                Update::insert("C", values)
            } else {
                Update::delete("C", values)
            }
        }),
        (0i64..4, any::<bool>()).prop_map(|(x, ins)| {
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

fn build_ring(backend: StorageBackend) -> (Ring, Vec<ViewId>) {
    let mut ring = RingBuilder::new(catalog()).backend(backend).build();
    let ids = VIEWS
        .iter()
        .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
        .collect();
    (ring, ids)
}

/// One view's observable state: its output table plus its work counters.
type ViewState = (Vec<(Vec<Value>, dbring::Number)>, ExecStats);

fn view_state(ring: &Ring, ids: &[ViewId]) -> Vec<ViewState> {
    ids.iter()
        .map(|&id| {
            let v = ring.view(id).unwrap();
            (v.table().into_iter().collect(), v.stats())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interned ring ingest == classic normalization, across backends: same tables,
    /// bit-identical work counters.
    #[test]
    fn interned_ring_ingest_matches_classic_normalization(
        stream in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..20,
    ) {
        for backend in backends() {
            let (mut interned, ids) = build_ring(backend);
            let (mut classic, classic_ids) = build_ring(backend);
            for piece in stream.chunks(chunk) {
                interned.apply_batch(piece).unwrap();
                classic.apply_delta_batch(&DeltaBatch::from_updates(piece)).unwrap();
            }
            prop_assert_eq!(
                view_state(&interned, &ids),
                view_state(&classic, &classic_ids),
                "interned vs classic diverged on {}",
                backend
            );
            prop_assert!(interned.interner().is_consistent());
        }
    }

    /// Interner ids survive `repair_view` rebuilds and `drop_view`: every id handed
    /// out before the churn resolves to the same string after it, and the repaired
    /// ring's views still match an untouched twin.
    #[test]
    fn interner_ids_are_stable_across_view_repair_and_drop(
        prefix in prop::collection::vec(arb_update(), 1..40),
        suffix in prop::collection::vec(arb_update(), 1..30),
    ) {
        for backend in backends() {
            let (mut churned, ids) = build_ring(backend);
            let (mut untouched, twin_ids) = build_ring(backend);
            churned.apply_batch(&prefix).unwrap();
            untouched.apply_batch(&prefix).unwrap();
            let snapshot: Vec<(String, u32)> = (0..churned.interner().len() as u32)
                .map(|id| (churned.interner().resolve(id).to_string(), id))
                .collect();
            // Rebuild every view from the snapshot, then drop one entirely.
            for &id in &ids {
                churned.repair_view(id).unwrap();
            }
            churned.drop_view(ids[1]).unwrap();
            untouched.drop_view(twin_ids[1]).unwrap();
            // Keep ingesting through the churned normalizer.
            churned.apply_batch(&suffix).unwrap();
            untouched.apply_batch(&suffix).unwrap();
            for (s, id) in &snapshot {
                prop_assert_eq!(churned.interner().get(s), Some(*id),
                    "id for {:?} drifted after repair/drop", s);
                prop_assert_eq!(churned.interner().resolve(*id), s.as_str());
            }
            prop_assert!(churned.interner().is_consistent());
            // Tables only: a repair rebuilds the engine, so work counters restart
            // while the maintained contents must not change.
            let tables = |ring: &Ring, live: [ViewId; 2]| {
                live.map(|id| ring.view(id).unwrap().table())
            };
            prop_assert_eq!(
                tables(&churned, [ids[0], ids[2]]),
                tables(&untouched, [twin_ids[0], twin_ids[2]]),
                "repaired ring diverged from untouched twin on {}",
                backend
            );
        }
    }
}
