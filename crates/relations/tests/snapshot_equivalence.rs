//! Property tests: the flat interned row table behind [`Snapshot`] is observationally
//! the reference [`Database`] — after every step of a random stream, fed per update,
//! per normalized [`DeltaBatch`] (classic and reusable normalizer) and interleaved,
//! `to_database` equals `Database::apply_all` on the same prefix. Streams are drawn
//! to collide and cancel: 1–4 relations of arity 0–5, a tiny value pool mixing ints,
//! floats (edge cases included), strings and bools, weights in −3..=3 including
//! explicit zeros. Also here: a clone is a snapshot of its own, capacity is reused
//! after a table empties, and a net-zero stream of fresh strings leaves no string
//! behind in a `Ring`'s base mirror, fed per update and per batch.
//!
//! CI also runs this suite in release with `-C debug-assertions`, where the table
//! and the interner re-check their invariants after every mutation. (Rows aimed at
//! one probe chain under a known seed are a unit test next to `Snapshot`: the seed
//! is crate-private.)

use dbring_relations::{BatchNormalizer, Database, DeltaBatch, Snapshot, Update, Value};
use proptest::prelude::*;

const STRINGS: [&str; 5] = ["z", "aa", "", "zz", "数据"];
const FLOATS: [f64; 7] = [
    0.0,
    -0.0,
    1.5,
    -2.25,
    f64::NAN,
    f64::INFINITY,
    f64::MIN_POSITIVE / 2.0,
];
const RELATIONS: [&str; 4] = ["R0", "R1", "R2", "R3"];
const COLUMNS: [&str; 5] = ["c0", "c1", "c2", "c3", "c4"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::int),
        (0usize..STRINGS.len()).prop_map(|i| Value::str(STRINGS[i])),
        (0usize..FLOATS.len()).prop_map(|i| Value::float(FLOATS[i])),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A feeding mode (0 = per update, 1 = classic batch, 2 = reusable-normalizer
/// batch) and the chunk of updates fed that way.
type Step = (u8, Vec<Update>);

/// The arities (0–5) of a catalog of 1–4 relations, and steps over it whose rows
/// have their relation's declared arity.
fn arb_stream() -> impl Strategy<Value = (Vec<usize>, Vec<Step>)> {
    let raw_update = (
        0usize..RELATIONS.len(),
        prop::collection::vec(arb_value(), COLUMNS.len()),
        -3i64..=3,
    );
    let raw_step = (0u8..3, prop::collection::vec(raw_update, 0..24));
    (
        prop::collection::vec(0usize..=COLUMNS.len(), 1..=RELATIONS.len()),
        prop::collection::vec(raw_step, 1..10),
    )
        .prop_map(|(arities, steps)| {
            let steps = steps
                .into_iter()
                .map(|(mode, updates)| {
                    let updates = updates
                        .into_iter()
                        .map(|(rel, mut values, multiplicity)| {
                            let rel = rel % arities.len();
                            values.truncate(arities[rel]);
                            let mut update = Update::insert(RELATIONS[rel], values);
                            update.multiplicity = multiplicity;
                            update
                        })
                        .collect();
                    (mode, updates)
                })
                .collect();
            (arities, steps)
        })
}

fn catalog(arities: &[usize]) -> Database {
    let mut db = Database::new();
    for (name, &arity) in RELATIONS.iter().zip(arities) {
        db.declare(*name, &COLUMNS[..arity]).unwrap();
    }
    db
}

fn same_contents(a: &Database, b: &Database) -> bool {
    a.relation_names().eq(b.relation_names())
        && a.relation_names()
            .all(|name| a.relation(name) == b.relation(name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_equals_the_reference_database_after_every_step(
        stream in arb_stream(),
        clone_at in 0usize..10,
    ) {
        let (arities, steps) = stream;
        let catalog = catalog(&arities);
        let mut reference = catalog.clone();
        let mut snapshot = Snapshot::new();
        let mut normalizer = BatchNormalizer::new();
        let mut cloned: Option<(Snapshot, Database)> = None;
        for (step, (mode, updates)) in steps.iter().enumerate() {
            if step == clone_at % steps.len() {
                cloned = Some((snapshot.clone(), reference.clone()));
            }
            match mode {
                0 => updates.iter().for_each(|u| snapshot.apply(u)),
                1 => snapshot.apply_delta_batch(&DeltaBatch::from_updates(updates)),
                _ => snapshot.apply_delta_batch(&normalizer.normalize(updates)),
            }
            reference.apply_all(updates).unwrap();
            let materialized = snapshot.to_database(&catalog).unwrap();
            prop_assert!(same_contents(&materialized, &reference), "step {step}");
            prop_assert_eq!(snapshot.total_support(), reference.total_support());
            prop_assert_eq!(snapshot.is_empty(), reference.is_empty());
            prop_assert_eq!(snapshot.footprint().tuples, reference.total_support());
        }
        // The clone still holds exactly the prefix it was taken at.
        let (clone, prefix) = cloned.expect("clone_at falls inside the stream");
        let materialized = clone.to_database(&catalog).unwrap();
        prop_assert!(same_contents(&materialized, &prefix));
        prop_assert_eq!(clone.total_support(), prefix.total_support());
    }
}

#[test]
fn a_clone_is_unaffected_by_later_writes_to_either_side() {
    let row = |i: i64| Update::insert("R", vec![Value::int(i), Value::str(format!("s{i}"))]);
    let mut original = Snapshot::new();
    // Past one row chunk, so the clone copies a full chunk and a partial one.
    for i in 0..1500 {
        original.apply(&row(i));
    }
    let mut clone = original.clone();
    assert_eq!(clone.footprint(), original.footprint());
    for i in 0..1500 {
        original.apply(&row(i).inverse());
    }
    for i in 1500..4000 {
        clone.apply(&row(i));
    }
    assert!(original.is_empty());
    assert_eq!(clone.total_support(), 4000);
    let mut catalog = Database::new();
    catalog.declare("R", &["a", "b"]).unwrap();
    let mut expected = catalog.clone();
    expected
        .apply_all(&(0..4000).map(row).collect::<Vec<_>>())
        .unwrap();
    assert!(same_contents(
        &clone.to_database(&catalog).unwrap(),
        &expected
    ));
    assert!(original.to_database(&catalog).unwrap().is_empty());
}

#[test]
fn regrowth_after_emptying_allocates_nothing_new() {
    const ROWS: i64 = 200_000;
    let row = |i: i64| Update::insert("R", vec![Value::int(i), Value::int(i % 7)]);
    let mut snapshot = Snapshot::new();
    for i in 0..ROWS {
        snapshot.apply(&row(i));
    }
    let grown = snapshot.footprint();
    assert_eq!(grown.tuples, ROWS as usize);
    assert!(grown.row_capacity >= grown.tuples);
    assert!(
        grown.slots >= 2 * grown.tuples,
        "load stays at or below one half"
    );
    for i in 0..ROWS {
        snapshot.apply(&row(i).inverse());
    }
    assert!(snapshot.is_empty());
    // Different rows the second time; the freed row ids and the slot array serve them.
    for i in ROWS..2 * ROWS {
        snapshot.apply(&row(i));
    }
    let regrown = snapshot.footprint();
    assert_eq!(regrown.tuples, ROWS as usize);
    assert_eq!(regrown.row_capacity, grown.row_capacity, "no new chunk");
    assert_eq!(regrown.slots, grown.slots, "no new slot array");
    // A net-zero churn stream on top of that is steady-state: nothing moves at all.
    for i in ROWS..ROWS + 5_000 {
        snapshot.apply(&row(i).inverse());
        snapshot.apply(&row(i));
    }
    assert_eq!(snapshot.footprint(), regrown);
}

/// Rows of fresh strings, two string columns each (one of them repeated across rows,
/// one row holding the same string twice).
fn string_rows(round: usize) -> Vec<Update> {
    (0..64)
        .map(|i| {
            let cust = Value::str(format!("customer_{round:05}_{i:02}"));
            let region = if i == 0 {
                cust.clone()
            } else {
                Value::str(format!("region_{round}_{}", i % 4))
            };
            Update::insert("S", vec![cust, region, Value::int(i as i64)])
        })
        .collect()
}

fn inverse(rows: &[Update]) -> Vec<Update> {
    rows.iter().map(Update::inverse).collect()
}

/// A `Ring`'s base mirror fed fresh strings by `apply_batch` (each row twice) and by
/// `apply`, with a view maintained on top, forgets every string once the stream nets
/// to zero; a string shared with a surviving row outlives the row that died; and a
/// ring loaded by `RingBuilder::from_database` round-trips its strings and forgets
/// them once they are deleted.
#[test]
fn a_ring_base_forgets_the_strings_a_net_zero_stream_brought() {
    use dbring::{Catalog, RingBuilder, ViewDef};
    let mut catalog = Catalog::new();
    catalog.declare("S", &["cust", "region", "n"]).unwrap();
    let mut ring = RingBuilder::new(catalog.clone()).build();
    let view = ring
        .create_view(
            "by_cust",
            ViewDef::Sql("SELECT cust, SUM(n) FROM S GROUP BY cust"),
        )
        .unwrap();
    let strings = |ring: &dbring::Ring| ring.base_footprint().unwrap().strings;
    for round in 0..40 {
        let rows = string_rows(round);
        if round % 2 == 0 {
            let twice = [rows.clone(), rows.clone()].concat();
            ring.apply_batch(&twice).unwrap();
            assert_eq!(strings(&ring), 64 + 4);
            ring.apply_batch(&inverse(&twice)).unwrap();
        } else {
            for u in &rows {
                ring.apply(u).unwrap();
            }
            assert_eq!(strings(&ring), 64 + 4);
            for u in inverse(&rows) {
                ring.apply(&u).unwrap();
            }
        }
        let footprint = ring.base_footprint().unwrap();
        assert_eq!(
            (footprint.tuples, footprint.strings),
            (0, 0),
            "round {round}"
        );
    }
    assert!(ring.view(view).unwrap().table().is_empty());

    let rows = string_rows(99);
    ring.apply_batch(&rows).unwrap();
    ring.apply(&rows[1].inverse()).unwrap();
    assert_eq!(strings(&ring), 64 + 4 - 1, "only row 1's own string leaves");
    let mut expected = catalog.clone();
    expected.apply_all(&rows[..1]).unwrap();
    expected.apply_all(&rows[2..]).unwrap();
    assert!(same_contents(&ring.base_snapshot().unwrap(), &expected));

    let mut ring = RingBuilder::from_database(expected.clone()).build();
    assert_eq!(strings(&ring), 64 + 4 - 1);
    assert!(same_contents(&ring.base_snapshot().unwrap(), &expected));
    ring.apply_batch(&inverse(&rows[..1])).unwrap();
    ring.apply_batch(&inverse(&rows[2..])).unwrap();
    let footprint = ring.base_footprint().unwrap();
    assert_eq!((footprint.tuples, footprint.strings), (0, 0));
}
