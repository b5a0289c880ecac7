//! Property tests for the snapshot read path: a published [`ViewSnapshot`] is always
//! a *batch-consistent prefix* of the update stream, and once acquired it never
//! changes — not even under a concurrently running writer.
//!
//! 1. **Prefix equivalence**: after every committed batch, each view's snapshot table
//!    equals the table of a plain reference ring that replayed exactly that prefix.
//! 2. **Immutability**: snapshots held across later batches still compare equal to
//!    the prefix table they were acquired at.
//! 3. **No torn reads**: with a real writer thread committing batches while reader
//!    threads acquire concurrently, every observed snapshot matches a precomputed
//!    oracle table for its `ingested()` count — a reader can never see half a batch.
//! 4. **Quarantine**: a view poisoned mid-batch surfaces [`Error::ViewPoisoned`] at
//!    snapshot-acquire time, and repairs republish readable snapshots.
//! 5. **Release on drop** (footprint regression): `drop_view` evicts the published
//!    snapshot promptly; only handles already acquired keep the data alive.
//! 6. **Incremental == from scratch**: publication after a commit rebuilds only the
//!    blocks the commit's keys fall in, yet after *every* commit each snapshot equals
//!    a from-scratch export of the same ring (rows, `len`, `ingested`) — while a view
//!    grows from empty to 5 000 groups and shrinks back.
//! 7. **Cost follows the batch** (`Ring::snapshot_publish_stats`): a three-key batch
//!    rebuilds at most three blocks of a 10 000-group view and shares the rest, and
//!    copies the same number of rows at 10 240 groups as at 40 960.
//! 8. **Failed batches publish nothing**: a rejected or panicked batch leaves epoch,
//!    snapshots and publication counters untouched and leaks no change into the next
//!    commit; `repair_view` republishes the repaired view from scratch.
//! 9. **Deferred publication is never observable**: views no reader has acquired
//!    defer their commits until their first acquire builds them. Acquired at random
//!    points, or only at the end, they serve exactly what a ring whose views were
//!    all acquired up front serves — the oracle's table, the same epoch and
//!    `ingested`, never older than the last commit that changed the view.
//! 10. **First acquires race commits**: with the writer committing, readers acquire
//!     views cold and hot; per reader and view `ingested()` never decreases, every
//!     snapshot is the oracle's table at its prefix, and none misses a commit that
//!     returned before its acquire began.
//! 11. **Pending is bounded**: over a 20 000-round churn, a view nobody reads holds
//!     at most one pending entry per key it wrote since its last build.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dbring::fault::with_fault;
use dbring::{
    Catalog, Error, FaultOp, FaultPlan, FaultStorage, HashViewStorage, Number, Ring, RingBuilder,
    Update, Value, ViewDef, ViewSnapshot,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", &["A", "B"]).unwrap();
    c.declare("S", &["X"]).unwrap();
    c
}

/// Probe-only, self-join, single- and multi-relation shapes, all integer-valued so
/// snapshot tables compare bit-exactly against reference tables.
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

fn build_ring() -> Ring {
    let mut ring = RingBuilder::new(catalog()).build();
    for (name, text) in VIEWS {
        ring.create_view(*name, ViewDef::Agca(text)).unwrap();
    }
    ring
}

type Tables = Vec<(String, BTreeMap<Vec<Value>, Number>)>;

fn reference_tables(ring: &Ring) -> Tables {
    ring.views()
        .map(|v| (v.name().to_string(), v.table()))
        .collect()
}

fn snapshot_tables(ring: &Ring) -> Vec<(String, ViewSnapshot)> {
    VIEWS
        .iter()
        .map(|(name, _)| (name.to_string(), ring.snapshot_named(name).unwrap()))
        .collect()
}

/// Drives properties 1 and 2 for one configuration: batch-by-batch prefix
/// equivalence, plus immutability of every snapshot acquired along the way.
fn check_prefix_equivalence(updates: &[Update], batch_size: usize) -> Result<(), TestCaseError> {
    let mut live = build_ring();
    let mut reference = build_ring();
    let _handle = live.reader(); // serving mode on: every commit publishes

    // (snapshot, the prefix table it must keep answering with)
    let mut held: Vec<(ViewSnapshot, BTreeMap<Vec<Value>, Number>)> = Vec::new();
    let mut last_epoch: HashMap<String, u64> = HashMap::new();
    let mut previous = reference_tables(&reference);

    for chunk in updates.chunks(batch_size) {
        live.apply_batch(chunk).unwrap();
        reference.apply_batch(chunk).unwrap();

        // Property 6: a clone republishes every view from scratch (a fresh store
        // filled by the export builder), at the same `ingested`.
        let scratch = live.clone();
        let expected = reference_tables(&reference);
        for (name, snapshot) in snapshot_tables(&live) {
            let want = &expected.iter().find(|(n, _)| *n == name).unwrap().1;
            let exported = scratch.snapshot_named(&name).unwrap();
            prop_assert!(
                snapshot.iter().eq(exported.iter()),
                "published {} != from-scratch export",
                name
            );
            prop_assert_eq!(snapshot.len(), exported.len());
            prop_assert_eq!(snapshot.len(), want.len());
            let before = &previous.iter().find(|(n, _)| *n == name).unwrap().1;
            if before != want {
                // The commit changed this view, so it was republished at this commit.
                prop_assert_eq!(snapshot.ingested(), exported.ingested());
            }
            prop_assert_eq!(
                &snapshot.table(),
                want,
                "snapshot of {} diverged from the replayed prefix",
                name
            );
            // Views untouched by the batch keep their (still-current) older
            // publication, so `ingested` may lag but never lead.
            prop_assert!(snapshot.ingested() <= live.updates_ingested());
            let seen = last_epoch.entry(name.clone()).or_insert(0);
            prop_assert!(
                snapshot.epoch() >= *seen,
                "publication epoch of {} went backwards",
                &name
            );
            *seen = snapshot.epoch();
            held.push((snapshot, want.clone()));
        }
        previous = expected;
    }

    // Property 2: every snapshot acquired above is frozen at its prefix.
    for (snapshot, want) in &held {
        prop_assert_eq!(
            &snapshot.table(),
            want,
            "held snapshot of {} changed under later ingest",
            snapshot.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Properties 1 + 2 over random streams and batch sizes, across every
    /// serving configuration.
    #[test]
    fn snapshots_are_immutable_replay_prefixes(
        updates in prop::collection::vec(arb_update(), 1..32),
        batch_size in 1usize..8,
    ) {
        check_prefix_equivalence(&updates, batch_size)?;
    }
}

/// A deterministic pseudo-random stream (no RNG dependency in the oracle test).
fn synthetic_stream(len: usize) -> Vec<Update> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) % 4) as i64;
            let b = ((state >> 21) % 3) as i64;
            match (state >> 13) % 4 {
                0 => Update::delete("R", vec![Value::int(a), Value::int(b)]),
                1 => Update::insert("S", vec![Value::int(b)]),
                2 => Update::delete("S", vec![Value::int(b)]),
                _ => Update::insert("R", vec![Value::int(a), Value::int(b)]),
            }
        })
        .collect()
}

/// Property 3: concurrent readers never observe a torn batch. The oracle maps every
/// committed prefix length to its expected table, computed on a reference ring
/// *before* the live run — so reader assertions race nothing.
#[test]
fn concurrent_readers_see_only_committed_prefixes() {
    const BATCH: usize = 16;
    const STREAM: usize = 960;
    let stream = synthetic_stream(STREAM);

    // Oracle: expected r_by_a table per committed-prefix `updates_ingested` count.
    // The counter advances by normalized batch weight, so it is read off the
    // reference ring rather than recomputed from raw chunk lengths.
    let mut reference = build_ring();
    let mut oracle: HashMap<u64, BTreeMap<Vec<Value>, Number>> = HashMap::new();
    oracle.insert(0, reference.view_named("r_by_a").unwrap().table());
    for chunk in stream.chunks(BATCH) {
        reference.apply_batch(chunk).unwrap();
        oracle.insert(
            reference.updates_ingested(),
            reference.view_named("r_by_a").unwrap().table(),
        );
    }
    let final_ingested = reference.updates_ingested();
    let oracle = Arc::new(oracle);

    let mut live = build_ring();
    let handle = live.reader();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = handle.clone();
            let done = Arc::clone(&done);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut observed = 0usize;
                let mut last_ingested = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snapshot = handle.snapshot_named("r_by_a").unwrap();
                    let expected = oracle.get(&snapshot.ingested()).unwrap_or_else(|| {
                        panic!(
                            "snapshot at ingested={} is not a committed prefix",
                            snapshot.ingested()
                        )
                    });
                    assert_eq!(
                        &snapshot.table(),
                        expected,
                        "torn read at ingested={}",
                        snapshot.ingested()
                    );
                    assert!(snapshot.ingested() >= last_ingested);
                    last_ingested = snapshot.ingested();
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    for chunk in stream.chunks(BATCH) {
        live.apply_batch(chunk).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers never ran");
    assert_eq!(
        handle.snapshot_named("r_by_a").unwrap().table(),
        oracle[&final_ingested],
        "final snapshot != full replay"
    );
}

/// Property 4: a poisoned view surfaces `ViewPoisoned` at acquire time; healthy
/// siblings keep serving; repair republishes a readable snapshot.
#[test]
fn poisoned_views_refuse_snapshot_acquire_until_repaired() {
    let mut ring = RingBuilder::new(catalog()).build();
    let poisoned_id = ring
        .create_view_with::<FaultStorage<HashViewStorage>>("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    ring.create_view("s_count", ViewDef::Agca(VIEWS[2].1))
        .unwrap();
    let handle = ring.reader();

    let healthy = vec![
        Update::insert("R", vec![Value::int(1), Value::int(2)]),
        Update::insert("S", vec![Value::int(2)]),
    ];
    ring.apply_batch(&healthy).unwrap();
    let pre_poison = handle.snapshot_named("r_by_a").unwrap();

    // Panic r_by_a's storage at its batch flush: the batch lands nowhere and the
    // view is quarantined. (The flush is the one storage operation every batch is
    // guaranteed to perform on this trigger shape.)
    let batch = vec![Update::insert("R", vec![Value::int(2), Value::int(1)])];
    let outcome = with_fault(FaultPlan::new(FaultOp::Add, 0), || ring.apply_batch(&batch));
    assert!(outcome.is_err(), "injected panic must fail the batch");

    assert!(
        matches!(
            handle.snapshot_named("r_by_a"),
            Err(Error::ViewPoisoned { .. })
        ),
        "poisoned view must refuse snapshot acquire"
    );
    // The snapshot acquired before the poisoning still serves its old prefix.
    assert_eq!(pre_poison.value(&[Value::int(1)]), Number::Int(2));
    // Healthy siblings are unaffected.
    assert_eq!(
        handle.snapshot_named("s_count").unwrap().value(&[]),
        Number::Int(1)
    );

    let id = poisoned_id;
    ring.repair_view(id).unwrap();
    assert_eq!(
        handle
            .snapshot_named("r_by_a")
            .unwrap()
            .value(&[Value::int(1)]),
        Number::Int(2),
        "repair must republish a readable snapshot"
    );
}

/// Property 5 (footprint regression): `drop_view` releases the published snapshot
/// promptly — the store's footprint returns to zero even while an already-acquired
/// handle keeps its own (Arc-held) copy alive and readable.
#[test]
fn drop_view_releases_published_snapshots() {
    let mut ring = RingBuilder::new(catalog()).build();
    let id = ring
        .create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    let handle = ring.reader();
    // Subscribe the view, so that commits publish it rather than defer.
    handle.snapshot(id).unwrap();

    let batch: Vec<Update> = (0..8)
        .map(|i| Update::insert("R", vec![Value::int(i % 4), Value::int(1 + i % 2)]))
        .collect();
    ring.apply_batch(&batch).unwrap();

    assert!(ring.snapshot_footprint() > 0, "published entries expected");
    let held = handle.snapshot_named("r_by_a").unwrap();
    let held_table = held.table();
    assert!(!held_table.is_empty());

    ring.drop_view(id).unwrap();
    assert_eq!(
        ring.snapshot_footprint(),
        0,
        "drop_view must evict the published snapshot"
    );
    assert!(matches!(
        handle.snapshot_named("r_by_a"),
        Err(Error::UnknownView { .. })
    ));
    // The acquired handle's data is Arc-held: still readable, still frozen.
    assert_eq!(held.table(), held_table);

    // Recreating a view after the drop serves fresh snapshots again.
    ring.create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    assert!(handle.snapshot_named("r_by_a").is_ok());
    ring.apply_batch(&batch).unwrap();
    assert!(ring.snapshot_footprint() > 0);
}

/// `count` inserts (or deletes) of `R(a, 1)` for `a` in `range`, so `r_by_a` gains
/// (or loses) one group per update.
fn groups(range: std::ops::Range<i64>, insert: bool) -> Vec<Update> {
    range
        .map(|a| {
            let values = vec![Value::int(a), Value::int(1)];
            if insert {
                Update::insert("R", values)
            } else {
                Update::delete("R", values)
            }
        })
        .collect()
}

/// Property 6 at size: one view grows from empty to 5 000 groups and shrinks back
/// to empty through the incremental builder only — a from-scratch export shares no
/// block, and every commit into the grown view shares some — while the snapshot keeps
/// equalling the engine's table: `len` and the batch's own keys (point lookups and
/// prefix scans) after every commit, every row after every tenth (5 000 groups span
/// dozens of blocks, so scans and the batches' scattered keys cross block borders).
#[test]
fn a_view_grows_and_shrinks_through_incremental_publication_only() {
    const GROUPS: i64 = 5_000;
    const BATCH: i64 = 10;
    // Spread each batch's keys over the whole key range.
    let scattered = |i: i64| (i * 7919) % GROUPS;
    let mut ring = RingBuilder::new(catalog()).build();
    let id = ring
        .create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    let handle = ring.reader();
    let mut held = Vec::new();
    for grow in [true, false] {
        for batch in 0..GROUPS / BATCH {
            let updates: Vec<Update> = (batch * BATCH..(batch + 1) * BATCH)
                .flat_map(|i| groups(scattered(i)..scattered(i) + 1, grow))
                .collect();
            let before = ring.snapshot_publish_stats();
            ring.apply_batch(&updates).unwrap();
            let snapshot = handle.snapshot(id).unwrap();
            let view = ring.view(id).unwrap();
            // (`r_by_a` compiles to its output map alone.)
            assert_eq!(snapshot.len(), view.total_entries());
            for update in &updates {
                let key = &update.values[..1];
                assert_eq!(snapshot.value(key), view.value(key));
                assert_eq!(snapshot.prefix_scan(key).count(), grow as usize);
            }
            if snapshot.len() >= GROUPS as usize / 2 {
                let shared = ring.snapshot_publish_stats().blocks_shared;
                assert!(shared > before.blocks_shared, "commit {batch} re-exported");
            }
            if batch % 10 == 0 {
                let table = view.table();
                assert!(snapshot
                    .iter()
                    .map(|(k, v)| (k.to_vec(), v))
                    .eq(table.clone()));
                held.push((snapshot, table));
            }
        }
        let expected = if grow { GROUPS as usize } else { 0 };
        assert_eq!(handle.snapshot(id).unwrap().len(), expected);
        assert_eq!(handle.snapshot(id).unwrap().iter().count(), expected);
    }
    // Snapshots held across the whole run never moved.
    for (snapshot, table) in &held {
        assert_eq!(&snapshot.table(), table);
    }
}

/// Property 7: publication cost in counts. Into one view of `groups` groups, a batch
/// changing three far-apart groups rebuilds at most three blocks and shares all the
/// others — and copies exactly as many rows into a 40 960-group view as into a
/// 10 240-group one (multiples of the block size, so both are cut into equal blocks).
#[test]
fn publication_cost_follows_the_batch_not_the_view() {
    let mut copied = Vec::new();
    for total in [10_240i64, 40_960] {
        let mut ring = RingBuilder::new(catalog()).build();
        ring.create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
            .unwrap();
        for chunk in groups(0..total, true).chunks(512) {
            ring.apply_batch(chunk).unwrap();
        }
        let handle = ring.reader();
        // Subscribe the view, so that the batch below is built at its commit.
        handle.snapshot_named("r_by_a").unwrap();
        let loaded = ring.snapshot_publish_stats();
        assert_eq!(
            loaded.commits, 1,
            "the first publication exports everything"
        );
        assert_eq!(loaded.entries_copied, total as u64);
        assert_eq!(loaded.blocks_shared, 0);

        let batch: Vec<Update> = [17, total / 2, total - 3]
            .into_iter()
            .flat_map(|a| groups(a..a + 1, true))
            .collect();
        ring.apply_batch(&batch).unwrap();
        let stats = ring.snapshot_publish_stats();
        assert_eq!(stats.commits, 2);
        let rebuilt = stats.blocks_rebuilt - loaded.blocks_rebuilt;
        assert!((1..=3).contains(&rebuilt), "{rebuilt} blocks rebuilt");
        assert_eq!(
            stats.blocks_shared + rebuilt,
            loaded.blocks_rebuilt,
            "every block the batch did not touch is shared"
        );
        assert_eq!(
            handle
                .snapshot_named("r_by_a")
                .unwrap()
                .value(&[Value::int(17)]),
            Number::Int(2)
        );
        copied.push(stats.entries_copied - loaded.entries_copied);
    }
    assert!(copied[0] > 0);
    assert_eq!(
        copied[0], copied[1],
        "rows copied per commit must not depend on the size of the view"
    );
}

/// Property 8: a batch that fails — rejected by a trigger, or panicking inside a
/// view's storage — publishes nothing (same epochs, same counters), and the next
/// good commit publishes exactly the committed state: no key of the failed batch
/// leaks into it. Repairing the quarantined view republishes it from scratch.
#[test]
fn failed_batches_publish_nothing_and_leak_no_changes() {
    let mut ring = RingBuilder::new(catalog()).build();
    let victim = ring
        .create_view_with::<FaultStorage<HashViewStorage>>("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    ring.create_view("rs_join", ViewDef::Agca(VIEWS[3].1))
        .unwrap();
    let handle = ring.reader();
    ring.apply_batch(&groups(0..300, true)).unwrap();

    let published = |ring: &Ring| {
        let epochs: Vec<u64> = ["r_by_a", "rs_join"]
            .iter()
            .map(|name| handle.snapshot_named(name).unwrap().epoch())
            .collect();
        (epochs, ring.snapshot_publish_stats())
    };
    let before = published(&ring);
    let tables = reference_tables(&ring);

    // Rejected: a string reaches `R.B`, which both views multiply. The good
    // updates ahead of it in the batch were staged and rolled back.
    let mut rejected = groups(300..310, true);
    rejected.push(Update::insert("R", vec![Value::int(5), Value::str("x")]));
    assert!(ring.apply_batch(&rejected).is_err());
    assert!(ring.apply(rejected.last().unwrap()).is_err());
    assert_eq!(published(&ring), before);
    assert_eq!(reference_tables(&ring), tables);

    // The next commit publishes its own keys only.
    ring.apply_batch(&groups(400..403, true)).unwrap();
    for (name, table) in reference_tables(&ring) {
        let snapshot = handle.snapshot_named(&name).unwrap();
        assert_eq!(snapshot.table(), table, "{name} after a rejected batch");
        assert_eq!(snapshot.get(&[Value::int(305)]), None);
    }

    // Panicked: `r_by_a`'s storage fails at its flush. The sibling rolls back, the
    // victim is quarantined, nothing is published.
    let before = published(&ring);
    let sibling = handle.snapshot_named("rs_join").unwrap().table();
    let outcome = with_fault(FaultPlan::new(FaultOp::Add, 0), || {
        ring.apply_batch(&groups(500..510, true))
    });
    assert!(outcome.is_err());
    assert!(matches!(
        handle.snapshot_named("r_by_a"),
        Err(Error::ViewPoisoned { .. })
    ));
    assert_eq!(handle.snapshot_named("rs_join").unwrap().table(), sibling);
    assert_eq!(ring.snapshot_publish_stats(), before.1);

    // Commits keep publishing the healthy view, incrementally.
    ring.apply_batch(&groups(600..603, true)).unwrap();
    ring.apply(&Update::insert("S", vec![Value::int(1)]))
        .unwrap();
    let healthy = ring.view_named("rs_join").unwrap().table();
    assert_eq!(handle.snapshot_named("rs_join").unwrap().table(), healthy);

    // Repair rebuilds the victim from the base snapshot and publishes it whole: a
    // from-scratch export shares no block with anything.
    let before = ring.snapshot_publish_stats();
    ring.repair_view(victim).unwrap();
    let after = ring.snapshot_publish_stats();
    let repaired = handle.snapshot_named("r_by_a").unwrap();
    assert_eq!(repaired.table(), ring.view(victim).unwrap().table());
    assert_eq!(repaired.get(&[Value::int(505)]), None);
    assert_eq!(repaired.value(&[Value::int(601)]), Number::Int(1));
    assert_eq!(after.commits, before.commits + 1);
    assert_eq!(after.blocks_shared, before.blocks_shared);
    assert_eq!(
        after.entries_copied - before.entries_copied,
        repaired.len() as u64
    );
    // ... and from then on it publishes incrementally again.
    ring.apply_batch(&groups(700..701, true)).unwrap();
    let next = handle.snapshot_named("r_by_a").unwrap();
    assert_eq!(next.table(), ring.view(victim).unwrap().table());
    assert!(ring.snapshot_publish_stats().blocks_shared > after.blocks_shared);
}

/// The replay oracle: every view's table after each committed prefix, by
/// `updates_ingested` count.
type Oracle = HashMap<u64, Tables>;

fn oracle_table<'a>(
    oracle: &'a Oracle,
    ingested: u64,
    name: &str,
) -> &'a BTreeMap<Vec<Value>, Number> {
    let tables = oracle
        .get(&ingested)
        .unwrap_or_else(|| panic!("ingested={ingested} is not a committed prefix"));
    &tables.iter().find(|(n, _)| n == name).expect("a view").1
}

/// Drives property 9 for one configuration. `lazy` is read only where `picks`
/// says (bit `v` of a batch's pick acquires view `v` after that batch; views in
/// `cold` only at the end); `eager` has every view acquired from the start, so
/// it publishes every commit as it lands. Every snapshot `lazy` hands out must
/// equal the replay oracle at its `ingested()`, be no older than the last commit
/// that changed the view, and be the very snapshot `eager` serves: same rows,
/// same epoch, same `ingested`.
fn check_deferred_acquires(
    updates: &[Update],
    batch_size: usize,
    picks: &[u8],
    cold: u8,
) -> Result<(), TestCaseError> {
    let mut lazy = build_ring();
    let mut eager = build_ring();
    let handle = lazy.reader();
    let eager_handle = eager.reader();
    for (name, _) in VIEWS {
        eager_handle.snapshot_named(name).unwrap();
    }
    let mut oracle = Oracle::new();
    let mut previous = reference_tables(&eager);
    oracle.insert(0, previous.clone());
    // Per view: `updates_ingested` after the last commit that changed its table.
    let mut changed_at: HashMap<String, u64> = HashMap::new();

    let check = |lazy: &Ring,
                 v: usize,
                 oracle: &Oracle,
                 changed_at: &HashMap<String, u64>|
     -> Result<(), TestCaseError> {
        let name = VIEWS[v].0;
        // Both acquire paths: the ring's own and the detached handle.
        let snapshot = if v % 2 == 0 {
            lazy.snapshot_named(name).unwrap()
        } else {
            handle.snapshot_named(name).unwrap()
        };
        prop_assert_eq!(
            &snapshot.table(),
            oracle_table(oracle, snapshot.ingested(), name),
            "{} at ingested={}",
            name,
            snapshot.ingested()
        );
        let floor = changed_at.get(name).copied().unwrap_or(0);
        prop_assert!(
            snapshot.ingested() >= floor,
            "{} acquired at ingested={} misses the commit at {}",
            name,
            snapshot.ingested(),
            floor
        );
        let published = eager_handle.snapshot_named(name).unwrap();
        prop_assert_eq!(
            (snapshot.epoch(), snapshot.ingested()),
            (published.epoch(), published.ingested())
        );
        prop_assert!(snapshot.iter().eq(published.iter()));
        Ok(())
    };

    for (i, chunk) in updates.chunks(batch_size).enumerate() {
        lazy.apply_batch(chunk).unwrap();
        eager.apply_batch(chunk).unwrap();
        let ingested = eager.updates_ingested();
        prop_assert_eq!(lazy.updates_ingested(), ingested);
        let tables = reference_tables(&eager);
        for ((name, table), (_, before)) in tables.iter().zip(&previous) {
            if table != before {
                changed_at.insert(name.clone(), ingested);
            }
        }
        if let Some(known) = oracle.get(&ingested) {
            prop_assert_eq!(known, &tables, "two prefixes of one length differ");
        }
        oracle.insert(ingested, tables.clone());
        previous = tables;
        let pick = picks[i % picks.len()] & !cold;
        for v in (0..VIEWS.len()).filter(|v| pick & (1 << v) != 0) {
            check(&lazy, v, &oracle, &changed_at)?;
        }
    }
    for v in 0..VIEWS.len() {
        check(&lazy, v, &oracle, &changed_at)?;
    }
    // Each view was built on acquire at most once: from then on it was subscribed.
    prop_assert!(lazy.snapshot_publish_stats().pulled <= VIEWS.len() as u64);
    prop_assert_eq!(lazy.snapshot_pending_entries(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 9: deferred publication is never observable. Views acquired at
    /// random points (and some only at the end) return exactly what a ring that
    /// publishes every commit would have served.
    #[test]
    fn skipped_epochs_are_never_observable(
        updates in prop::collection::vec(arb_update(), 1..48),
        batch_size in 1usize..8,
        picks in prop::collection::vec(any::<u8>(), 1..8),
        cold in 0u8..16,
    ) {
        check_deferred_acquires(&updates, batch_size, &picks, cold)?;
    }
}

/// Property 10: first acquires race commits. One reader per view, the hot view's
/// from the start and each cold view's from a later commit, acquire while the
/// writer commits; per reader `ingested()` never decreases, every snapshot is the
/// oracle's table at its prefix, and none is older than the last commit that
/// changed the view before the acquire began.
#[test]
fn first_acquires_racing_commits_never_serve_a_stale_or_torn_view() {
    const BATCH: usize = 8;
    const STREAM: usize = 480;
    let stream = synthetic_stream(STREAM);
    let mut reference = build_ring();
    let mut oracle = Oracle::new();
    oracle.insert(0, reference_tables(&reference));
    // Per view, per committed prefix: the prefix at which the view last changed.
    let mut floors: Vec<HashMap<u64, u64>> = vec![HashMap::from([(0, 0)]); VIEWS.len()];
    let mut last = vec![0u64; VIEWS.len()];
    for chunk in stream.chunks(BATCH) {
        let before = reference_tables(&reference);
        reference.apply_batch(chunk).unwrap();
        let ingested = reference.updates_ingested();
        let tables = reference_tables(&reference);
        for (v, floor) in floors.iter_mut().enumerate() {
            if tables[v] != before[v] {
                last[v] = ingested;
            }
            floor.insert(ingested, last[v]);
        }
        oracle.insert(ingested, tables);
    }
    let oracle = Arc::new(oracle);
    let floors = Arc::new(floors);
    let commits = (STREAM / BATCH) as u64;

    for round in 0..6u64 {
        let mut live = build_ring();
        let handle = live.reader();
        // `updates_ingested` after the latest commit whose `apply_batch` returned,
        // and how many commits that was.
        let committed = Arc::new(AtomicU64::new(0));
        let progress = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..VIEWS.len())
            .map(|v| {
                let (handle, oracle, floors) =
                    (handle.clone(), Arc::clone(&oracle), Arc::clone(&floors));
                let (committed, progress, done) = (
                    Arc::clone(&committed),
                    Arc::clone(&progress),
                    Arc::clone(&done),
                );
                let start = if v == 0 {
                    0
                } else {
                    (round * 7 + v as u64 * 13) % commits
                };
                std::thread::spawn(move || {
                    let name = VIEWS[v].0;
                    while progress.load(Ordering::SeqCst) < start && !done.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let mut seen = 0u64;
                    let mut acquires = 0usize;
                    loop {
                        let finished = done.load(Ordering::SeqCst);
                        let floor = floors[v][&committed.load(Ordering::SeqCst)];
                        let snapshot = handle.snapshot_named(name).unwrap();
                        let ingested = snapshot.ingested();
                        assert!(
                            ingested >= seen,
                            "{name}: ingested went {seen} -> {ingested}"
                        );
                        assert!(
                            ingested >= floor,
                            "{name}: {ingested} misses the commit at {floor}"
                        );
                        assert_eq!(&snapshot.table(), oracle_table(&oracle, ingested, name));
                        seen = ingested;
                        acquires += 1;
                        if finished {
                            return acquires;
                        }
                    }
                })
            })
            .collect();
        for chunk in stream.chunks(BATCH) {
            live.apply_batch(chunk).unwrap();
            committed.store(live.updates_ingested(), Ordering::SeqCst);
            progress.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        for reader in readers {
            assert!(reader.join().unwrap() > 0);
        }
        let last = live.updates_ingested();
        for (name, _) in VIEWS {
            assert_eq!(
                &handle.snapshot_named(name).unwrap().table(),
                oracle_table(&oracle, last, name)
            );
        }
    }
}

/// Property 11: a view nobody reads holds at most one pending entry per key it
/// wrote since its snapshot was last built, and — since a group created and
/// deleted again between two builds leaves no entry — at most its published rows
/// plus its live rows, over 20 000 rounds of fresh keys that are inserted and
/// deleted again. `repair_view` publishes the view whole, which discards pending;
/// the final acquire builds the rest.
#[test]
fn pending_stays_within_the_keys_written_since_the_last_build() {
    let mut ring = RingBuilder::new(catalog()).build();
    let cold = ring
        .create_view("r_by_a", ViewDef::Agca(VIEWS[0].1))
        .unwrap();
    let hot = ring
        .create_view("s_count", ViewDef::Agca(VIEWS[2].1))
        .unwrap();
    let handle = ring.reader();
    handle.snapshot(hot).unwrap();
    let fresh = |round: i64| (100 + 4 * round)..(104 + 4 * round);
    let mut written: std::collections::HashSet<i64> = std::collections::HashSet::new();
    let mut peak = 0;
    for round in 0..20_000i64 {
        let mut batch = groups(fresh(round), true);
        if round > 0 {
            batch.extend(groups(fresh(round - 1), false));
        }
        // Three long-lived groups whose values keep changing.
        batch.extend(groups(0..3, true));
        if round % 7 == 0 {
            batch.push(Update::insert("S", vec![Value::int(round % 3)]));
        }
        for update in &batch {
            if update.relation == "R" {
                written.insert(update.values[0].as_int().unwrap());
            }
        }
        ring.apply_batch(&batch).unwrap();
        handle.snapshot(hot).unwrap();
        let pending = ring.snapshot_pending_entries();
        let live = ring.view(cold).unwrap().total_entries();
        assert!(pending <= written.len(), "round {round}: {pending} pending");
        assert!(
            pending <= ring.snapshot_footprint() + live,
            "round {round}: {pending} pending"
        );
        peak = peak.max(pending);
        if round % 1000 == 500 {
            ring.repair_view(cold).unwrap();
            assert_eq!(ring.snapshot_pending_entries(), 0);
            written.clear();
        }
    }
    // The three long-lived groups, the four fresh ones alive, and the deletions of
    // the four that were alive when the view was last built: fresh groups deleted
    // again before a build stay out of pending.
    assert!(peak <= 11, "{peak} pending at the peak");
    let stats = ring.snapshot_publish_stats();
    assert_eq!(stats.pulled, 0);
    assert!(stats.deferred >= 20_000);
    let snapshot = handle.snapshot(cold).unwrap();
    assert_eq!(snapshot.table(), ring.view(cold).unwrap().table());
    assert_eq!(ring.snapshot_publish_stats().pulled, 1);
    assert_eq!(ring.snapshot_pending_entries(), 0);
}
