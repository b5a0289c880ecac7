//! Chaos property tests for failure-atomic ingest: whatever fails — an injected
//! storage panic at a random operation, or a value error at a random position in the
//! batch — a failed `Ring::apply_batch` must land *nowhere*.
//!
//! 1. **Injected panics**: views hosted on [`FaultStorage`] panic at a random storage
//!    operation mid-batch. The batch must then leave every healthy view's table *and*
//!    `ExecStats` bit-identical to the pre-batch state, quarantine exactly the
//!    panicked views, and `Ring::repair_view` must rebuild each one to exactly the
//!    state a replay-from-scratch (without the failed batch) produces — after which
//!    the ring ingests normally again.
//! 2. **Value errors**: a malformed tuple at a random position makes one view reject
//!    the batch while a sibling accepts it. The rejection must roll every view back
//!    bit-exactly, poison nothing, and leave the ring equivalent to one that never
//!    saw the failing batch.

use std::collections::BTreeMap;

use dbring::fault::with_fault;
use dbring::{
    Catalog, Error, ExecStats, FaultOp, FaultPlan, FaultStorage, HashViewStorage, Number, Ring,
    RingBuilder, RuntimeError, Update, Value, ViewDef,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// Probe-only, enumerating, multi-relation and unit-replay (self-join) shapes, all
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

const OPS: [FaultOp; 3] = [FaultOp::Probe, FaultOp::Add, FaultOp::ApplySorted];

/// A ring whose every view lives on the fault-injection wrapper around the hash
/// storage.
fn faulted_ring() -> Ring {
    let mut ring = RingBuilder::new(catalog()).build();
    for (name, text) in VIEWS {
        ring.create_view_with::<FaultStorage<HashViewStorage>>(*name, ViewDef::Agca(text))
            .unwrap();
    }
    ring
}

/// A plain ring hosting the same views — the fault-free reference.
fn reference_ring() -> Ring {
    let mut ring = RingBuilder::new(catalog()).build();
    for (name, text) in VIEWS {
        ring.create_view(*name, ViewDef::Agca(text)).unwrap();
    }
    ring
}

type State = Vec<(String, BTreeMap<Vec<Value>, Number>, ExecStats)>;

/// Tables and work counters of every readable view, by name.
fn observable_state(ring: &Ring) -> State {
    ring.views()
        .map(|v| (v.name().to_string(), v.table(), v.stats()))
        .collect()
}

fn tables(ring: &Ring) -> Vec<(String, BTreeMap<Vec<Value>, Number>)> {
    ring.views()
        .map(|v| (v.name().to_string(), v.table()))
        .collect()
}

/// Drives one injected-panic scenario and checks the full contract.
fn check_panic_atomicity(
    prefix: &[Update],
    batch: &[Update],
    suffix: &[Update],
    plan: FaultPlan,
) -> Result<(), TestCaseError> {
    let mut ring = faulted_ring();
    let mut reference = reference_ring();
    if !prefix.is_empty() {
        ring.apply_batch(prefix).unwrap();
        reference.apply_batch(prefix).unwrap();
    }
    let before = observable_state(&ring);
    let ingested_before = ring.updates_ingested();

    let outcome = with_fault(plan, || ring.apply_batch(batch));
    match outcome {
        Err(err) => {
            // The batch landed nowhere: every still-readable view is bit-identical
            // to its pre-batch state, tables and counters alike, and the ingest
            // counter never moved.
            prop_assert!(
                matches!(err, Error::Runtime(RuntimeError::EnginePanicked { .. })),
                "expected EnginePanicked, got {err:?}"
            );
            prop_assert_eq!(ring.updates_ingested(), ingested_before);
            let after = observable_state(&ring);
            let poisoned = ring.poisoned_views();
            prop_assert!(!poisoned.is_empty(), "a panic must quarantine its view");
            prop_assert_eq!(after.len() + poisoned.len(), VIEWS.len());
            for entry in &after {
                prop_assert!(
                    before.contains(entry),
                    "healthy view {} drifted after a failed batch",
                    entry.0
                );
            }
            // Quarantined views refuse reads until repaired; repair rebuilds each
            // one to exactly the replay-without-the-failed-batch state.
            for (id, name) in &poisoned {
                prop_assert!(
                    matches!(ring.view(*id), Err(Error::ViewPoisoned { .. })),
                    "a quarantined view must refuse reads"
                );
                ring.repair_view(*id).unwrap();
                prop_assert_eq!(
                    ring.view(*id).unwrap().table(),
                    reference.view_named(name).unwrap().table(),
                    "repair of {} != replay from scratch",
                    name
                );
            }
        }
        Ok(()) => {
            // The plan outlived the batch (injection point past the batch's last
            // operation): the batch must then have landed completely.
            reference.apply_batch(batch).unwrap();
            prop_assert_eq!(tables(&ring), tables(&reference));
        }
    }

    // Either way the ring is fully live again: further ingest tracks the reference
    // (which skipped the failed batch, exactly as the ring did).
    if !suffix.is_empty() {
        ring.apply_batch(suffix).unwrap();
        reference.apply_batch(suffix).unwrap();
    }
    prop_assert_eq!(tables(&ring), tables(&reference));
    prop_assert!(ring.poisoned_views().is_empty());
    Ok(())
}

/// Drives one value-error scenario: `r_by_a` multiplies `B`, so a string in that
/// column is rejected at evaluation time — after `r_selfjoin` and friends may
/// already have staged the batch successfully.
fn check_value_error_atomicity(
    prefix: &[Update],
    mut batch: Vec<Update>,
    poison_at: usize,
    suffix: &[Update],
) -> Result<(), TestCaseError> {
    let poison = Update::insert("R", vec![Value::int(1), Value::str("boom")]);
    let at = poison_at % (batch.len() + 1);
    batch.insert(at, poison);

    let mut ring = reference_ring();
    let mut reference = reference_ring();
    if !prefix.is_empty() {
        ring.apply_batch(prefix).unwrap();
        reference.apply_batch(prefix).unwrap();
    }
    let before = observable_state(&ring);
    let ingested_before = ring.updates_ingested();

    let err = ring.apply_batch(&batch).unwrap_err();
    prop_assert!(
        !matches!(err, Error::Runtime(RuntimeError::EnginePanicked { .. })),
        "a value error must not read as a panic"
    );
    prop_assert!(
        ring.poisoned_views().is_empty(),
        "value errors never poison"
    );
    prop_assert_eq!(observable_state(&ring), before);
    prop_assert_eq!(ring.updates_ingested(), ingested_before);

    if !suffix.is_empty() {
        ring.apply_batch(suffix).unwrap();
        reference.apply_batch(suffix).unwrap();
    }
    prop_assert_eq!(observable_state(&ring), observable_state(&reference));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Injected storage panics at random operations: failed batches land nowhere,
    /// panicked views quarantine and repair to the replay-from-scratch state.
    #[test]
    fn injected_panics_leave_failed_batches_unlanded(
        prefix in prop::collection::vec(arb_update(), 0..24),
        batch in prop::collection::vec(arb_update(), 1..24),
        suffix in prop::collection::vec(arb_update(), 1..12),
        op_idx in 0usize..3,
        at in 0usize..12,
    ) {
        let plan = FaultPlan::new(OPS[op_idx], at);
        check_panic_atomicity(&prefix, &batch, &suffix, plan)?;
    }

    /// A malformed tuple at a random batch position: the rejecting view drags the
    /// whole batch down, every sibling rolls back bit-exactly, nothing is poisoned,
    /// and the ring stays equivalent to one that never saw the batch.
    #[test]
    fn value_errors_roll_every_view_back(
        prefix in prop::collection::vec(arb_update(), 0..24),
        batch in prop::collection::vec(arb_update(), 0..16),
        poison_at in 0usize..16,
        suffix in prop::collection::vec(arb_update(), 1..12),
    ) {
        check_value_error_atomicity(&prefix, batch, poison_at, &suffix)?;
    }
}
