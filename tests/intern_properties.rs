//! Ring-level parity of the batch ingest path: [`Ring::apply_batch`] — which
//! normalizes on the ring's persistent
//! [`BatchNormalizer`](dbring::BatchNormalizer) scratch — must match a
//! twin ring fed the classic [`DeltaBatch::from_updates`] batches through
//! [`Ring::apply_delta_batch`]: identical tables AND bit-identical [`ExecStats`] per
//! view.
//!
//! Streams are string-heavy and arrive in non-lexicographic order, so any
//! arrival-order leak into the sorted group or flush contracts fails loudly here.

use dbring::{DeltaBatch, ExecStats, Ring, RingBuilder, Update, Value, ViewDef, ViewId};
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

fn build_ring() -> (Ring, Vec<ViewId>) {
    let mut ring = RingBuilder::new(catalog()).build();
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

    /// Ring batch ingest == classic normalization: same tables, bit-identical work
    /// counters.
    #[test]
    fn interned_ring_ingest_matches_classic_normalization(
        stream in prop::collection::vec(arb_update(), 1..60),
        chunk in 1usize..20,
    ) {
        let (mut interned, ids) = build_ring();
        let (mut classic, classic_ids) = build_ring();
        for piece in stream.chunks(chunk) {
            interned.apply_batch(piece).unwrap();
            classic.apply_delta_batch(&DeltaBatch::from_updates(piece)).unwrap();
        }
        prop_assert_eq!(
            view_state(&interned, &ids),
            view_state(&classic, &classic_ids),
            "interned vs classic diverged"
        );
    }
}
