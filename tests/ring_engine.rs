//! Behavioral coverage of the [`dbring::Ring`] engine through the public facade: view
//! lifecycle (create / late-create with backfill / drop), the one-ingest-path contract
//! with per-relation routing, the dedicated catalog errors, and the read handles.

use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;

use dbring::{
    compile, parse_query, BatchNormalizer, Catalog, Error, Executor, HashViewStorage, Number, Ring,
    RingBuilder, RuntimeError, StorageFootprint, Update, Value, ViewDef, ViewStorage,
};

fn shop_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("Sales", &["cust", "cents", "qty"]).unwrap();
    c.declare("Returns", &["cust", "cents", "qty"]).unwrap();
    c
}

fn sale(cust: i64, cents: i64, qty: i64) -> Update {
    Update::insert(
        "Sales",
        vec![Value::int(cust), Value::int(cents), Value::int(qty)],
    )
}

/// An independent executor for an AGCA view over `catalog`, with its own batch
/// normalizer: the oracle a ring's routed dispatch is compared against.
fn solo(catalog: &Catalog, text: &str) -> (Executor, BatchNormalizer) {
    let program = compile(catalog, &parse_query(text).unwrap()).unwrap();
    (Executor::new(program), BatchNormalizer::new())
}

fn ret(cust: i64, cents: i64, qty: i64) -> Update {
    Update::insert(
        "Returns",
        vec![Value::int(cust), Value::int(cents), Value::int(qty)],
    )
}

/// The three `ViewDef` spellings of the same query must produce views that agree on
/// every read.
#[test]
fn sql_agca_and_parsed_view_defs_agree() {
    let catalog = shop_catalog();
    let mut ring = RingBuilder::new(catalog.clone()).build();
    let via_sql = ring
        .create_view(
            "via_sql",
            ViewDef::Sql("SELECT cust, SUM(cents * qty) AS r FROM Sales GROUP BY cust"),
        )
        .unwrap();
    let via_agca = ring
        .create_view(
            "via_agca",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();
    let parsed = dbring::parse_query("q[c] := Sum(Sales(c, p, n) * p * n)").unwrap();
    let via_query = ring
        .create_view("via_query", ViewDef::Query(parsed))
        .unwrap();
    ring.apply_all(&[sale(1, 100, 2), sale(2, 50, 1), sale(1, 10, 3)])
        .unwrap();
    let table = ring.view(via_sql).unwrap().table();
    assert_eq!(table, ring.view(via_agca).unwrap().table());
    assert_eq!(table, ring.view(via_query).unwrap().table());
    assert_eq!(table[&vec![Value::int(1)]], Number::Int(230));
}

/// One stream, many views, routed dispatch: views only pay for relations they read,
/// and the ring agrees with independently maintained views on tables *and* work,
/// with base tracking on and off.
#[test]
fn routed_ingest_matches_independent_views_exactly() {
    let catalog = shop_catalog();
    let defs: &[(&str, &str)] = &[
        ("revenue", "q[c] := Sum(Sales(c, p, n) * p * n)"),
        ("orders", "q[c] := Sum(Sales(c, p, n))"),
        ("refunds", "q[c] := Sum(Returns(c, p, n) * p * n)"),
        ("units", "q[c] := Sum(Sales(c, p, n) * n)"),
    ];
    let updates: Vec<Update> = (0..60)
        .map(|i| {
            if i % 5 == 4 {
                ret(i % 7, 100 * (i % 3 + 1), 1)
            } else {
                sale(i % 7, 100 * (i % 4 + 1), i % 3 + 1)
            }
        })
        .collect();

    // Half per update, half batched: both ingest paths route identically.
    let (first, second) = updates.split_at(updates.len() / 2);
    let returns_seen = updates.iter().filter(|u| u.relation == "Returns").count() as u64;
    for builder in [
        RingBuilder::new(catalog.clone()),
        RingBuilder::new(catalog.clone()).without_base_tracking(),
    ] {
        let mut ring = builder.build();
        let ids: Vec<_> = defs
            .iter()
            .map(|(name, text)| ring.create_view(*name, ViewDef::Agca(text)).unwrap())
            .collect();
        ring.apply_all(first).unwrap();
        for chunk in second.chunks(8) {
            ring.apply_batch(chunk).unwrap();
        }

        for (&id, (_, text)) in ids.iter().zip(defs) {
            let (mut exec, mut normalizer) = solo(&catalog, text);
            exec.apply_all(first).unwrap();
            for chunk in second.chunks(8) {
                exec.apply_batch(&normalizer.normalize(chunk)).unwrap();
            }
            let hosted = ring.view(id).unwrap();
            assert_eq!(hosted.table(), exec.output_table(), "{}", hosted.name());
            // Routed dispatch == per-view apply, operation for operation.
            assert_eq!(hosted.stats(), exec.stats(), "{}", hosted.name());
        }
        // Routing is visible: the refunds view saw only the Returns updates.
        assert_eq!(
            ring.view_named("refunds").unwrap().stats().updates,
            returns_seen
        );
    }
}

/// Late registration: a view created after N updates equals one that watched the whole
/// stream, and keeps agreeing afterwards — including a view over a relation that had
/// no reader at all while the updates were ingested.
#[test]
fn late_views_are_backfilled_and_stay_consistent() {
    let catalog = shop_catalog();
    let mut ring = RingBuilder::new(catalog.clone()).build();
    ring.create_view(
        "revenue",
        ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
    )
    .unwrap();
    let prefix: Vec<Update> = (0..30).map(|i| sale(i % 4, 10 * (i % 5 + 1), 2)).collect();
    ring.apply_all(&prefix).unwrap();
    // Nobody read Returns so far; the snapshot still has it.
    ring.apply(&ret(1, 500, 1)).unwrap();

    let late_sales = ring
        .create_view("units", ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * n)"))
        .unwrap();
    let late_returns = ring
        .create_view(
            "refunds",
            ViewDef::Agca("q[c] := Sum(Returns(c, p, n) * p * n)"),
        )
        .unwrap();

    let (mut replayed_units, mut normalizer) = solo(&catalog, "q[c] := Sum(Sales(c, p, n) * n)");
    replayed_units.apply_all(&prefix).unwrap();
    assert_eq!(
        ring.view(late_sales).unwrap().table(),
        replayed_units.output_table()
    );
    assert_eq!(
        ring.view(late_returns).unwrap().value(&[Value::int(1)]),
        Number::Int(500)
    );

    // Subsequent maintenance keeps all of them in lockstep.
    let suffix: Vec<Update> = (0..20).map(|i| sale(i % 4, 30, i % 3 + 1)).collect();
    ring.apply_batch(&suffix).unwrap();
    replayed_units
        .apply_batch(&normalizer.normalize(&suffix))
        .unwrap();
    assert_eq!(
        ring.view(late_sales).unwrap().table(),
        replayed_units.output_table()
    );
}

/// The `Catalog = Database` alias footgun: a view over an undeclared relation fails
/// with the dedicated error, naming both the view and the relation, before compile.
#[test]
fn undeclared_relations_fail_fast_with_dedicated_errors() {
    let mut ring = RingBuilder::new(shop_catalog()).build();
    let err = ring
        .create_view("typo", ViewDef::Agca("q[c] := Sum(Sale(c, p, n) * p * n)"))
        .unwrap_err();
    match err {
        Error::UnknownRelation {
            ref relation,
            ref view,
        } => {
            assert_eq!(relation, "Sale");
            assert_eq!(view.as_deref(), Some("typo"));
        }
        ref other => panic!("expected UnknownRelation, got {other:?}"),
    }
    // The SQL path catches the same typo even earlier, while resolving the FROM list.
    assert!(matches!(
        ring.create_view(
            "typo",
            ViewDef::Sql("SELECT cust, SUM(cents) AS c FROM Sale GROUP BY cust"),
        ),
        Err(Error::Parse(_))
    ));
    // Ingest against an undeclared relation is the same family of error, minus a view.
    let err = ring.insert("Sale", vec![Value::int(1)]).unwrap_err();
    assert!(matches!(err, Error::UnknownRelation { view: None, .. }));
    // Wrong arity to a *declared* relation is a runtime arity error with a source chain.
    let err = ring.insert("Sales", vec![Value::int(1)]).unwrap_err();
    assert!(matches!(
        err,
        Error::Runtime(RuntimeError::ArityMismatch { .. })
    ));
    assert!(std::error::Error::source(&err).is_some());
}

/// Lifecycle: duplicate names, drops freeing names, stale ids staying dead, and
/// `Ring::views` reflecting the live set.
#[test]
fn view_lifecycle_and_identity() {
    let mut ring = Ring::builder(shop_catalog()).build();
    let a = ring
        .create_view("a", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
        .unwrap();
    assert!(matches!(
        ring.create_view("a", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))")),
        Err(Error::DuplicateView { .. })
    ));
    let b = ring
        .create_view("b", ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * n)"))
        .unwrap();
    ring.apply(&sale(1, 10, 2)).unwrap();
    ring.drop_view(a).unwrap();
    assert_eq!(ring.len(), 1);
    assert!(matches!(ring.view(a), Err(Error::UnknownView { .. })));
    assert!(matches!(ring.drop_view(a), Err(Error::UnknownView { .. })));
    // The name is free again; the stale id stays dead.
    let a2 = ring
        .create_view("a", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
        .unwrap();
    assert_ne!(a, a2);
    assert!(ring.view(a).is_err());
    // The recreated view was backfilled: it sees the pre-drop update.
    assert_eq!(
        ring.view(a2).unwrap().value(&[Value::int(1)]),
        Number::Int(1)
    );
    let names: Vec<String> = ring.views().map(|v| v.name().to_string()).collect();
    assert_eq!(names, vec!["b", "a"]);
    assert_eq!(ring.view_id("b"), Some(b));
    assert_eq!(ring.updates_ingested(), 1);
}

/// Read handles expose the compiled artifacts and per-view accounting.
#[test]
fn view_handles_expose_programs_footprints_and_stats() {
    let mut ring = RingBuilder::new(shop_catalog()).build();
    let id = ring
        .create_view(
            "revenue",
            ViewDef::Sql("SELECT cust, SUM(cents * qty) AS r FROM Sales GROUP BY cust"),
        )
        .unwrap();
    ring.apply_all(&[sale(1, 100, 1), sale(2, 200, 2)]).unwrap();
    let view = ring.view(id).unwrap();
    assert_eq!(view.name(), "revenue");
    assert_eq!(view.engine_name(), "recursive-ivm");
    assert!(view.program().describe().contains("on +Sales"));
    assert!(view.nc0c_source().contains("void on_insert_Sales"));
    assert_eq!(view.query().group_by.len(), 1);
    assert!(view.total_entries() >= 2);
    assert!(view.storage_footprint().entries >= 2);
    assert_eq!(view.stats().updates, 2);
    assert_eq!(view.value(&[Value::int(2)]), Number::Int(400));
    assert_eq!(view.table().len(), 2);
    let mut view = ring.view_mut(id).unwrap();
    view.reset_stats();
    assert_eq!(ring.view(id).unwrap().stats().updates, 0);
}

/// Rings can start from a loaded database, and snapshot materialization round-trips
/// through further ingest.
#[test]
fn from_database_seeds_catalog_and_snapshot() {
    let mut db = shop_catalog();
    db.apply_all(&[sale(1, 100, 1), sale(1, 50, 2), ret(1, 25, 1)])
        .unwrap();
    let mut ring = RingBuilder::from_database(db).build();
    let net = ring
        .create_view(
            "net_by_cust",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();
    assert_eq!(
        ring.view(net).unwrap().value(&[Value::int(1)]),
        Number::Int(200)
    );
    ring.apply(&sale(1, 1, 1)).unwrap();
    assert_eq!(
        ring.view(net).unwrap().value(&[Value::int(1)]),
        Number::Int(201)
    );
    let snapshot = ring.base_snapshot().expect("tracking is on");
    assert_eq!(snapshot.total_support(), 4);
    assert_eq!(snapshot.columns("Sales"), ring.catalog().columns("Sales"));
}

/// `apply_all` keeps its prevalidation contract under staged ingest: catalog errors
/// anywhere in the sequence land nothing, value errors keep `AtUpdate { index }`, and
/// the failing update itself now lands nowhere — tables *and* counters, even at
/// sibling views that would have accepted it.
#[test]
fn apply_all_prevalidates_and_keeps_indexed_errors() {
    let mut ring = RingBuilder::new(shop_catalog()).build();
    // `orders` ignores the payload columns, so it accepts tuples that `revenue`
    // (which multiplies them) chokes on. Created first, it sits at the lower slot
    // and is staged before revenue fails — the rollback is real, not a skip.
    let orders = ring
        .create_view("orders", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
        .unwrap();
    let revenue = ring
        .create_view(
            "revenue",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();

    // An undeclared relation anywhere in the sequence: prevalidation fails the whole
    // call before anything is applied.
    let bad_catalog = [
        sale(1, 10, 1),
        Update::insert("Ghost", vec![Value::int(1)]),
        sale(2, 20, 1),
    ];
    let err = ring.apply_all(&bad_catalog).unwrap_err();
    assert!(matches!(err, Error::UnknownRelation { .. }));
    assert!(ring.view(orders).unwrap().table().is_empty());
    assert_eq!(ring.updates_ingested(), 0);
    assert_eq!(ring.view(orders).unwrap().stats().updates, 0);

    // A wrong arity against a declared relation is also caught up front.
    let bad_arity = [sale(1, 10, 1), Update::insert("Sales", vec![Value::int(1)])];
    assert!(matches!(
        ring.apply_all(&bad_arity).unwrap_err(),
        Error::Runtime(RuntimeError::ArityMismatch { .. })
    ));
    assert_eq!(ring.updates_ingested(), 0);

    // A value error past prevalidation stops at the failing update with its index:
    // update 0 is applied everywhere, update 1 lands nowhere — including at `orders`,
    // which had already staged it successfully before `revenue` failed.
    let bad_value = [
        sale(1, 10, 2),
        Update::insert(
            "Sales",
            vec![Value::int(2), Value::str("x"), Value::str("y")],
        ),
        sale(3, 30, 1),
    ];
    let err = ring.apply_all(&bad_value).unwrap_err();
    match err {
        Error::Runtime(RuntimeError::AtUpdate { index, .. }) => assert_eq!(index, 1),
        other => panic!("expected AtUpdate, got {other:?}"),
    }
    assert_eq!(ring.updates_ingested(), 1, "only update 0 landed");
    assert_eq!(
        ring.view(revenue).unwrap().value(&[Value::int(1)]),
        Number::Int(20)
    );
    assert_eq!(
        ring.view(orders).unwrap().value(&[Value::int(2)]),
        Number::Int(0),
        "the failing update rolled back at the view that accepted it"
    );
    assert_eq!(ring.view(orders).unwrap().stats().updates, 1);
    assert_eq!(ring.view(revenue).unwrap().stats().updates, 1);
}

/// `without_base_tracking` trades late registration for zero base state, and says so.
#[test]
fn untracked_rings_refuse_late_registration() {
    let mut ring = RingBuilder::new(shop_catalog())
        .without_base_tracking()
        .build();
    // Creating views before any ingest is fine (there is nothing to backfill).
    ring.create_view("early", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
        .unwrap();
    ring.apply(&sale(1, 10, 1)).unwrap();
    assert!(ring.base_snapshot().is_none());
    let err = ring
        .create_view("late", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
        .unwrap_err();
    assert!(matches!(err, Error::BackfillUnavailable { .. }));
    assert!(err.to_string().contains("backfill"));
    // The early view is still maintained.
    assert_eq!(
        ring.view_named("early").unwrap().value(&[Value::int(1)]),
        Number::Int(1)
    );
}

/// The threads that wrote to any [`ThreadRecordingStorage`] in this process.
static WRITERS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

fn record_writer() {
    let id = std::thread::current().id();
    let mut writers = WRITERS.lock().unwrap_or_else(PoisonError::into_inner);
    if !writers.contains(&id) {
        writers.push(id);
    }
}

/// A [`ViewStorage`] decorator that records which thread performs each write call
/// and otherwise delegates to the hash storage.
#[derive(Clone, Debug)]
struct ThreadRecordingStorage(HashViewStorage);

impl ViewStorage for ThreadRecordingStorage {
    fn new(key_arity: usize) -> Self {
        ThreadRecordingStorage(HashViewStorage::new(key_arity))
    }

    fn key_arity(&self) -> usize {
        self.0.key_arity()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, key: &[Value]) -> Number {
        self.0.get(key)
    }

    fn add_ref(&mut self, key: &[Value], delta: Number) -> Number {
        record_writer();
        self.0.add_ref(key, delta)
    }

    fn restore(&mut self, key: &[Value], value: Number) {
        record_writer();
        self.0.restore(key, value);
    }

    fn register_index(&mut self, positions: Vec<usize>) {
        self.0.register_index(positions);
    }

    fn for_each(&self, visit: impl FnMut(&[Value], Number)) {
        self.0.for_each(visit);
    }

    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        visit: impl FnMut(&[Value], Number),
    ) {
        self.0.for_each_slice(positions, values, visit);
    }

    fn footprint(&self) -> StorageFootprint {
        self.0.footprint()
    }
}

/// Batch ingest writes every view on the calling thread: a 512-update batch that
/// touches several views is not handed to worker threads, whatever the core count.
#[test]
fn batch_ingest_writes_every_view_on_the_callers_thread() {
    let defs = [
        ("revenue", "q[c] := Sum(Sales(c, p, n) * p * n)"),
        ("orders", "q[c] := Sum(Sales(c, p, n))"),
        ("units", "q := Sum(Sales(c, p, n) * n)"),
        ("refunds", "q[c] := Sum(Returns(c, p, n) * p)"),
    ];
    let mut ring = RingBuilder::new(shop_catalog()).build();
    let mut reference = RingBuilder::new(shop_catalog()).build();
    for (name, text) in defs {
        ring.create_view_with::<ThreadRecordingStorage>(name, ViewDef::Agca(text))
            .unwrap();
        reference.create_view(name, ViewDef::Agca(text)).unwrap();
    }
    // 512 distinct tuples over both relations, so every view is touched.
    let batch: Vec<Update> = (0..512)
        .map(|i| {
            if i % 4 == 3 {
                ret(i % 37, i + 1, 1)
            } else {
                sale(i % 37, i + 1, i % 5 + 1)
            }
        })
        .collect();
    WRITERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    ring.apply_batch(&batch).unwrap();
    reference.apply_batch(&batch).unwrap();
    let writers = WRITERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    assert_eq!(
        writers,
        vec![std::thread::current().id()],
        "batch ingest wrote views from other threads"
    );
    for (name, _) in defs {
        let view = ring.view_named(name).unwrap();
        assert!(view.stats().updates > 0, "{name} was not touched");
        assert_eq!(view.table(), reference.view_named(name).unwrap().table());
    }
}
