//! Property tests: the reusable normalizer ([`BatchNormalizer`]) produces *exactly*
//! the [`DeltaBatch`] of the classic `Vec<Value>` path ([`DeltaBatch::from_updates`])
//! — same groups, same order, same keys, same weights —
//! on adversarial streams: string keys arriving in non-lexicographic order, float
//! edge cases, keys whose order codes tie, zero and multi-unit multiplicities, mixed
//! arities within one relation, and one normalizer reused across many batches (so
//! stale scratch would be caught). And both list each group's keys in the order of
//! their first update.

use dbring_relations::{BatchNormalizer, DeltaBatch, Update, Value};
use proptest::prelude::*;

/// Values drawn to collide often: small ints, a tiny string pool (plus lexicographic
/// traps: "aa" < "z"), float edge cases, and bools — and values whose
/// `Value::order_code`s tie, so their order is decided by comparing values: strings
/// sharing their first 8 bytes, ints beyond ±2⁶¹, floats apart only in the two low
/// bits the code drops.
const STRINGS: [&str; 9] = [
    "z",
    "aa",
    "m",
    "zz",
    "a",
    "a\0",
    "customer_0001",
    "customer_0002",
    "customer",
];
const FLOATS: [f64; 6] = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

fn arb_value() -> impl Strategy<Value = Value> {
    const HALF: i64 = 1 << 61;
    let one = 1.0f64.to_bits();
    prop_oneof![
        (-3i64..4).prop_map(Value::int),
        (0usize..STRINGS.len()).prop_map(|i| Value::str(STRINGS[i])),
        (0usize..FLOATS.len()).prop_map(|i| Value::float(FLOATS[i])),
        any::<bool>().prop_map(Value::Bool),
        prop_oneof![Just(i64::MIN), Just(-HALF), Just(HALF), Just(i64::MAX)].prop_map(Value::int),
        (0u64..4).prop_map(move |low| Value::float(f64::from_bits(one ^ low))),
    ]
}

fn arb_update() -> impl Strategy<Value = Update> {
    (
        (0usize..RELATIONS.len()).prop_map(|i| RELATIONS[i]),
        prop::collection::vec(arb_value(), 0..4),
        -3i64..4,
    )
        .prop_map(|(rel, values, multiplicity)| {
            let mut u = Update::insert(rel, values);
            u.multiplicity = multiplicity;
            u
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interned_normalization_equals_classic_path(
        batches in prop::collection::vec(prop::collection::vec(arb_update(), 0..40), 1..6)
    ) {
        // One normalizer across all batches: its scratch persists.
        let mut normalizer = BatchNormalizer::new();
        for updates in &batches {
            let interned = normalizer.normalize(updates);
            let classic = DeltaBatch::from_updates(updates);
            prop_assert_eq!(interned, classic);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every group lists its keys in the order of their first update in the batch
    /// (explicit `multiplicity: 0` updates fire nothing and count for no key), on
    /// the reusable normalizer and the classic constructor alike.
    #[test]
    fn group_keys_come_out_in_the_order_of_their_first_update(
        batches in prop::collection::vec(prop::collection::vec(arb_update(), 0..40), 1..6)
    ) {
        let mut normalizer = BatchNormalizer::new();
        for updates in &batches {
            for batch in [normalizer.normalize(updates), DeltaBatch::from_updates(updates)] {
                for group in batch.groups() {
                    let first = |key: &[Value]| {
                        updates.iter().position(|u| {
                            u.multiplicity != 0 && u.relation == group.relation() && u.values == key
                        })
                    };
                    let firsts: Vec<Option<usize>> =
                        group.deltas().iter().map(|(key, _)| first(key)).collect();
                    prop_assert!(
                        firsts.windows(2).all(|w| w[0] < w[1]) && firsts.iter().all(Option::is_some),
                        "{} ({}): first updates at {:?}",
                        group.relation(),
                        if group.is_insert() { "inserts" } else { "deletes" },
                        firsts
                    );
                }
            }
        }
    }
}
