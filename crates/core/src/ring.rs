//! The [`Ring`] engine: one catalog, many standing views, one ingest path.
//!
//! The paper maintains a whole *hierarchy* of materialized aggregates under a single
//! stream of single-tuple updates — and its successor systems (DBToaster's generated
//! programs, differential dataflow's workers) all converge on the same shape: one
//! engine object hosting every maintained view, fed once. [`Ring`] is that object for
//! this workspace:
//!
//! * **One catalog.** A ring is built over one schema ([`RingBuilder::new`]) or one
//!   loaded database ([`RingBuilder::from_database`]); every view it hosts is parsed,
//!   validated and compiled against that catalog. A query naming an undeclared
//!   relation is rejected at [`Ring::create_view`] with
//!   [`Error::UnknownRelation`](crate::Error::UnknownRelation) — a dedicated,
//!   immediate error instead of a late compile error.
//! * **Many standing views.** [`Ring::create_view`] accepts a [`ViewDef`] (SQL, AGCA
//!   text, or a parsed [`Query`]) and returns a [`ViewId`]; views can be created and
//!   [dropped](Ring::drop_view) at any point in the stream. A view created *after*
//!   updates have been ingested is backfilled from the ring's base snapshot, so it is
//!   indistinguishable from one that watched the stream from the start.
//! * **One ingest path.** Updates go to the ring ([`Ring::insert`], [`Ring::delete`],
//!   [`Ring::apply`], [`Ring::apply_all`], [`Ring::apply_batch`]), which validates
//!   them against the catalog once, normalizes batches into a
//!   [`DeltaBatch`](crate::DeltaBatch) **once**, and routes work only to the views
//!   whose programs read the touched relations — `k` views over one stream cost one
//!   normalization, not `k`. All of it runs on the calling thread.
//! * **Failure-atomic ingest.** Every update and batch is *staged* on all touched
//!   views and committed only when all of them succeed; a failure (including
//!   a panicking engine) rolls every view back, so a rejected batch lands nowhere. A
//!   view whose engine panicked is **quarantined** — reads refuse it, ingest skips
//!   it — until [`Ring::repair_view`] rebuilds it from the base snapshot.
//!
//! Reads go through the cheap [`ViewRef`] / [`ViewMut`] handles: result values and
//! tables, work counters, storage footprints, and the compiled program (including its
//! NC0C rendering) per view.
//!
//! A one-view ring is the single-view API.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use dbring_agca::ast::Query;
use dbring_agca::parser::parse_query;
use dbring_agca::sql::parse_sql;
use dbring_algebra::Number;
use dbring_compiler::{compile, generate_nc0c, Diagnostic, TriggerProgram};
use dbring_relations::{
    BaseFootprint, BatchNormalizer, Database, DeltaBatch, Snapshot, Update, Value,
};
use dbring_runtime::{
    try_boxed_engine, ChangeSet, EngineRegistry, ExecStats, Executor, PublishStats, RuntimeError,
    SnapshotAccess, SnapshotStore, StorageFootprint, ViewEngine, ViewSnapshot, ViewStorage,
};

use crate::{Catalog, Error};

/// How a view's engine is (re)built from its compiled program — kept per view so
/// [`Ring::repair_view`] can rebuild exactly the kind of engine the view was created
/// with, including executors on a typed storage ([`Ring::create_view_with`]).
type EngineFactory = Arc<dyn Fn(TriggerProgram) -> Box<dyn ViewEngine> + Send + Sync>;

/// The stable identity of a standing view inside one [`Ring`].
///
/// Ids are handed out by [`Ring::create_view`], stay valid until the view is
/// [dropped](Ring::drop_view), and are **never reused** within a ring — a stale id of a
/// dropped view can only yield [`Error::UnknownView`](crate::Error::UnknownView), never
/// silently address a different view.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ViewId(pub(crate) u32);

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}", self.0)
    }
}

/// How a standing view is defined when handed to [`Ring::create_view`]: the SQL subset,
/// the AGCA text syntax, or an already-parsed [`Query`].
#[derive(Clone, Debug)]
pub enum ViewDef<'a> {
    /// A SQL aggregate query (the Section 5 subset), e.g.
    /// `"SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"`.
    Sql(&'a str),
    /// The AGCA text syntax, e.g. `"q[c] := Sum(C(c, n) * C(c2, n))"`.
    Agca(&'a str),
    /// An already-parsed query (no parsing happens; it is validated and compiled
    /// as-is).
    Query(Query),
}

/// Builds a [`Ring`]: the catalog (or a loaded database) plus whether the base
/// relations are tracked. There is no thread setting: the built ring ingests on
/// whichever thread calls it (see [`Ring::apply_batch`]).
///
/// ```
/// use dbring::{Catalog, RingBuilder};
///
/// let mut catalog = Catalog::new();
/// catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
/// let ring = RingBuilder::new(catalog).build();
/// assert!(ring.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct RingBuilder {
    catalog: Database,
    snapshot: Snapshot,
    track_base: bool,
}

impl RingBuilder {
    /// Starts a ring over a schema. Only the catalog's *declarations* travel — any
    /// contents are ignored (a catalog is a database whose contents are ignored); use
    /// [`RingBuilder::from_database`] to start from loaded data.
    pub fn new(catalog: Catalog) -> Self {
        RingBuilder {
            catalog: catalog.schema_only(),
            snapshot: Snapshot::new(),
            track_base: true,
        }
    }

    /// Starts a ring over a loaded database: its schema becomes the catalog and its
    /// contents become the initial base snapshot, so every view — created now or later
    /// — is backfilled as if the database had been streamed in first.
    pub fn from_database(db: Database) -> Self {
        RingBuilder {
            snapshot: Snapshot::from_database(&db),
            catalog: db.schema_only(),
            track_base: true,
        }
    }

    /// Accepted and ignored: ingest always runs on the calling thread (see
    /// [`Ring::apply_batch`]), so there is no thread budget to set. Kept only
    /// because the end-to-end benchmark (`benchmark/src/embedded.rs`) still builds
    /// an `ingest_threads(1)` ring; this method goes once that call does.
    #[doc(hidden)]
    pub fn ingest_threads(self, _threads: usize) -> Self {
        self
    }

    /// Accepted and ignored: ingest is always staged, so a failed update or batch
    /// lands nowhere (see [`Ring::apply_batch`]). Kept only because the end-to-end
    /// benchmark (`benchmark/src/embedded.rs`) still builds a ring with it; this
    /// method goes once that call does.
    #[doc(hidden)]
    pub fn without_staged_ingest(self) -> Self {
        self
    }

    /// Disables base-snapshot maintenance. The ring then stores *nothing* beyond the
    /// views themselves (the paper's "no access to the base relations" regime, and the
    /// cheapest ingest path) — but views can no longer be created after updates have
    /// been ingested: [`Ring::create_view`] would have no snapshot to backfill from
    /// and returns [`Error::BackfillUnavailable`](crate::Error::BackfillUnavailable).
    pub fn without_base_tracking(mut self) -> Self {
        self.track_base = false;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Ring {
        Ring {
            catalog: self.catalog,
            snapshot: self.snapshot,
            track_base: self.track_base,
            ingested: 0,
            registry: EngineRegistry::new(),
            infos: Vec::new(),
            names: BTreeMap::new(),
            normalizer: BatchNormalizer::new(),
            snapshots: Arc::new(SnapshotStore::new()),
            serving: AtomicBool::new(false),
        }
    }
}

/// Per-view metadata the ring keeps next to the hosted engine.
#[derive(Clone)]
struct ViewInfo {
    name: String,
    query: Query,
    /// Rebuilds this view's engine from a compiled program (see [`Ring::repair_view`]).
    factory: EngineFactory,
}

impl fmt::Debug for ViewInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewInfo")
            .field("name", &self.name)
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

/// The multi-view incremental engine: hosts any number of standing aggregate views
/// over one catalog and maintains all of them from one update stream — one catalog
/// ([`Ring::catalog`]), many standing views ([`Ring::create_view`] /
/// [`Ring::drop_view`] / [`ViewRef`]), one ingest path ([`Ring::apply`],
/// [`Ring::apply_batch`]: validate once, normalize once, route to readers). See
/// [`RingBuilder`] for construction.
///
/// ```
/// use dbring::{Catalog, RingBuilder, Value, ViewDef};
///
/// let mut catalog = Catalog::new();
/// catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
/// let mut ring = RingBuilder::new(catalog).build();
///
/// let revenue = ring.create_view(
///     "revenue",
///     ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
/// ).unwrap();
/// let orders = ring.create_view(
///     "orders",
///     ViewDef::Sql("SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust"),
/// ).unwrap();
///
/// // One stream, every view stays fresh.
/// ring.insert("Sales", vec![Value::int(1), Value::float(9.5), Value::int(2)]).unwrap();
/// ring.insert("Sales", vec![Value::int(1), Value::float(0.5), Value::int(1)]).unwrap();
/// assert_eq!(ring.view(revenue).unwrap().value(&[Value::int(1)]).as_f64(), 19.5);
/// assert_eq!(ring.view(orders).unwrap().value(&[Value::int(1)]).as_f64(), 2.0);
/// ```
#[derive(Debug)]
pub struct Ring {
    /// The schema every view is validated and compiled against (declarations only).
    catalog: Database,
    /// The write-optimized positional mirror of the base relations — while
    /// [`Ring::snapshot_current`] holds, this is what late-registered views are
    /// backfilled from. Maintaining it costs one probe of a flat interned row table
    /// per tuple; the schema-carrying [`Database`] form is materialized only per
    /// backfill.
    snapshot: Snapshot,
    track_base: bool,
    /// Single-tuple updates ingested so far (batch weights included).
    ingested: u64,
    registry: EngineRegistry,
    /// Slot-parallel view metadata (`None` = dropped, like the registry's tombstones).
    infos: Vec<Option<ViewInfo>>,
    names: BTreeMap<String, ViewId>,
    /// Reusable batch normalizer: [`Ring::apply_batch`] consolidates the batch's own
    /// keys with scratch (buckets, key pool) persisting across batches.
    normalizer: BatchNormalizer,
    /// The read-side publication slots, shared with every [`RingHandle`] the ring
    /// hands out. Slot indices parallel the registry's. Interior-mutable so the
    /// ingest path can publish through `&self` borrows of sibling fields.
    snapshots: Arc<SnapshotStore>,
    /// Whether snapshot publication is live. Flipped on (permanently) by the first
    /// read-side request — [`Ring::reader`] / [`Ring::snapshot`] — so rings that are
    /// never read through snapshots pay a single untaken branch per commit.
    serving: AtomicBool,
}

impl Clone for Ring {
    /// Clones the ring's state — catalog, engines, base snapshot, counters — with a
    /// **fresh** publication store: the clone publishes to its own slots, never to
    /// the original's readers (a [`RingHandle`] keeps addressing the ring it came
    /// from). Serving state carries over: if the original was serving, the clone
    /// starts serving too, with its views republished from the cloned engines and
    /// none of them subscribed (see [`Ring::reader`]) until the clone's own
    /// acquires.
    fn clone(&self) -> Self {
        let clone = Ring {
            catalog: self.catalog.clone(),
            snapshot: self.snapshot.clone(),
            track_base: self.track_base,
            ingested: self.ingested,
            registry: self.registry.clone(),
            infos: self.infos.clone(),
            names: self.names.clone(),
            normalizer: self.normalizer.clone(),
            snapshots: Arc::new(SnapshotStore::new()),
            serving: AtomicBool::new(false),
        };
        // Mirror the slot layout (tombstones included) so ids stay aligned.
        for slot in 0..clone.infos.len() as u32 {
            match clone.registry.engine(slot) {
                Some(engine) => {
                    let name = self.snapshots.name(slot).expect("slots stay in sync");
                    clone.snapshots.register(ViewSnapshot::empty(
                        name,
                        output_arity(engine),
                        clone.ingested,
                    ));
                    if clone.registry.is_poisoned(slot) {
                        clone.snapshots.poison(slot);
                    }
                }
                None => clone.snapshots.register_dropped(),
            }
        }
        if self.serving.load(AtomicOrdering::Relaxed) {
            clone.enable_serving();
        }
        clone
    }
}

impl Ring {
    /// Shorthand for [`RingBuilder::new`].
    pub fn builder(catalog: Catalog) -> RingBuilder {
        RingBuilder::new(catalog)
    }

    /// The catalog the ring's views are compiled against (declarations only; the
    /// base contents live in the write-optimized snapshot — see
    /// [`Ring::base_snapshot`]).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of live views.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the ring hosts no views.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// Total single-tuple updates ingested so far. Batches count their *consolidated*
    /// weight: a `+t`/`-t` pair that cancels inside one batch was never ingested as
    /// far as the views (or the snapshot) are concerned.
    pub fn updates_ingested(&self) -> u64 {
        self.ingested
    }

    /// Whether the base snapshot reflects everything ingested — always true with base
    /// tracking on (the default), and true until the first update without it.
    pub fn snapshot_current(&self) -> bool {
        self.track_base || self.ingested == 0
    }

    /// The maintained base snapshot materialized as a schema-carrying [`Database`],
    /// if it is current (see [`Ring::snapshot_current`]). This is what
    /// late-registered views are backfilled from; materialization costs one tuple
    /// construction per distinct live tuple, so treat it as a bulk export, not a
    /// per-update read.
    pub fn base_snapshot(&self) -> Option<Database> {
        self.snapshot_current().then(|| {
            self.snapshot
                .to_database(&self.catalog)
                .expect("every ingested update was validated against the catalog")
        })
    }

    // ------------------------------------------------------------------
    // View lifecycle
    // ------------------------------------------------------------------

    /// Creates a standing view and returns its [`ViewId`].
    ///
    /// The definition is parsed (for [`ViewDef::Sql`] / [`ViewDef::Agca`]), validated
    /// against the catalog — a query over an undeclared relation is rejected here
    /// with [`Error::UnknownRelation`](crate::Error::UnknownRelation), not at compile
    /// time — compiled to a trigger program, and hosted on
    /// [`HashViewStorage`](dbring_runtime::HashViewStorage). If updates have already
    /// been ingested (or the ring started from a loaded database), the new view is
    /// backfilled from the base snapshot, so its result is identical to having watched
    /// the stream from the start.
    ///
    /// Names must be unique among *live* views ([`Error::DuplicateView`](crate::Error::DuplicateView)
    /// otherwise); dropping a view frees its name.
    pub fn create_view(
        &mut self,
        name: impl Into<String>,
        def: ViewDef<'_>,
    ) -> Result<ViewId, Error> {
        // Not `create_view_with::<HashViewStorage>`: that would monomorphize the
        // executor in this crate, where the storage's non-`#[inline]` methods cannot
        // be inlined into it; `try_boxed_engine` instantiates it next to them.
        self.create_view_hosted(name, def, |program| {
            try_boxed_engine(program).expect("compiled trigger programs always lower")
        })
    }

    /// [`Ring::create_view`] with the view's materialized maps on an explicitly
    /// *typed* storage — any `Send + 'static` [`ViewStorage`] implementation works
    /// (the fault-injection chaos tests host `FaultStorage`-backed views this way).
    /// [`Ring::repair_view`] rebuilds the view on the same typed storage.
    pub fn create_view_with<S: ViewStorage + Send + 'static>(
        &mut self,
        name: impl Into<String>,
        def: ViewDef<'_>,
    ) -> Result<ViewId, Error> {
        self.create_view_hosted(name, def, |program| {
            Box::new(Executor::<S>::with_backend(program))
        })
    }

    /// [`Ring::create_view`] with the engine supplied by the caller — the seam
    /// [`Ring::create_view`] and [`Ring::create_view_with`] share. The factory is
    /// retained so [`Ring::repair_view`] can rebuild the same kind of engine.
    fn create_view_hosted(
        &mut self,
        name: impl Into<String>,
        def: ViewDef<'_>,
        host: impl Fn(TriggerProgram) -> Box<dyn ViewEngine> + Send + Sync + 'static,
    ) -> Result<ViewId, Error> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(Error::DuplicateView { name });
        }
        let query = match def {
            ViewDef::Sql(sql) => parse_sql(sql, &self.catalog)?,
            ViewDef::Agca(text) => parse_query(text)?,
            ViewDef::Query(query) => query,
        };
        // The Catalog = Database alias makes it easy to hand a ring one database and a
        // query written against another; surface that as a first-class error naming
        // the view and relation, before the compiler trips over it.
        for relation in query.relations() {
            if self.catalog.columns(&relation).is_none() {
                return Err(Error::UnknownRelation {
                    relation,
                    view: Some(name),
                });
            }
        }
        if !self.snapshot_current() {
            return Err(Error::BackfillUnavailable { view: name });
        }
        let factory: EngineFactory = Arc::new(host);
        let program = compile(&self.catalog, &query)?;
        // Compiler-produced programs always lower, so hosting cannot fail here.
        let mut engine = factory(program);
        if !self.snapshot.is_empty() {
            let base = self
                .snapshot
                .to_database(&self.catalog)
                .expect("every ingested update was validated against the catalog");
            engine.initialize_from(&base)?;
        }
        let placeholder = ViewSnapshot::empty(
            Arc::from(name.as_str()),
            output_arity(&*engine),
            self.ingested,
        );
        let slot = self.registry.register(engine);
        debug_assert_eq!(slot as usize, self.infos.len());
        self.infos.push(Some(ViewInfo {
            name: name.clone(),
            query,
            factory,
        }));
        let id = ViewId(slot);
        let registered = self.snapshots.register(placeholder);
        debug_assert_eq!(registered, slot);
        if self.serving() {
            // Serve the backfilled table immediately, not at the next commit.
            self.publish_slots(vec![(slot, Publication::Whole)]);
        }
        self.names.insert(name, id);
        Ok(id)
    }

    /// Drops a view: its engine and materialized maps are discarded, its name is
    /// freed, and its id permanently invalidated (never reused). Updates ingested
    /// afterwards no longer pay for it.
    pub fn drop_view(&mut self, id: ViewId) -> Result<(), Error> {
        self.registry.remove(id.0).ok_or(Error::UnknownView {
            view: id.to_string(),
        })?;
        let info = self.infos[id.0 as usize]
            .take()
            .expect("registry slots and view infos stay in sync");
        self.names.remove(&info.name);
        // Release the published snapshot promptly: the slot stops serving now, and
        // the table's memory is freed as soon as the last reader handle drops.
        self.snapshots.evict(id.0);
        Ok(())
    }

    /// A read handle on one view. A quarantined view refuses to serve
    /// ([`Error::ViewPoisoned`](crate::Error::ViewPoisoned)) until
    /// [`Ring::repair_view`] rebuilds it — its tables reflect a half-applied batch
    /// and cannot be trusted.
    pub fn view(&self, id: ViewId) -> Result<ViewRef<'_>, Error> {
        let engine = self.registry.engine(id.0).ok_or(Error::UnknownView {
            view: id.to_string(),
        })?;
        let info = self.infos[id.0 as usize]
            .as_ref()
            .expect("registry slots and view infos stay in sync");
        if self.registry.is_poisoned(id.0) {
            return Err(Error::ViewPoisoned {
                view: info.name.clone(),
            });
        }
        Ok(ViewRef { id, info, engine })
    }

    /// A mutable handle on one view (read everything a [`ViewRef`] can, plus
    /// counter resets). Refuses quarantined views like [`Ring::view`].
    pub fn view_mut(&mut self, id: ViewId) -> Result<ViewMut<'_>, Error> {
        if self.registry.engine(id.0).is_none() {
            return Err(Error::UnknownView {
                view: id.to_string(),
            });
        }
        let info = self.infos[id.0 as usize]
            .as_ref()
            .expect("registry slots and view infos stay in sync");
        if self.registry.is_poisoned(id.0) {
            return Err(Error::ViewPoisoned {
                view: info.name.clone(),
            });
        }
        let engine = self
            .registry
            .engine_mut(id.0)
            .expect("checked live just above");
        Ok(ViewMut { id, info, engine })
    }

    /// The id of the live view with the given name.
    pub fn view_id(&self, name: &str) -> Option<ViewId> {
        self.names.get(name).copied()
    }

    /// A read handle on the live view with the given name.
    pub fn view_named(&self, name: &str) -> Result<ViewRef<'_>, Error> {
        let id = self.view_id(name).ok_or_else(|| Error::UnknownView {
            view: name.to_string(),
        })?;
        self.view(id)
    }

    /// Read handles on every live, healthy view, in creation order. Quarantined
    /// views are skipped (enumerate them with [`Ring::poisoned_views`]).
    pub fn views(&self) -> impl Iterator<Item = ViewRef<'_>> {
        self.registry
            .engines()
            .filter(|(slot, _)| !self.registry.is_poisoned(*slot))
            .map(|(slot, engine)| ViewRef {
                id: ViewId(slot),
                info: self.infos[slot as usize]
                    .as_ref()
                    .expect("registry slots and view infos stay in sync"),
                engine,
            })
    }

    /// The ids and names of the quarantined views, in creation order — the views
    /// whose engines panicked mid-ingest and now need [`Ring::repair_view`].
    pub fn poisoned_views(&self) -> Vec<(ViewId, String)> {
        self.registry
            .poisoned_slots()
            .into_iter()
            .map(|slot| {
                let info = self.infos[slot as usize]
                    .as_ref()
                    .expect("registry slots and view infos stay in sync");
                (ViewId(slot), info.name.clone())
            })
            .collect()
    }

    /// Rebuilds one view from the base snapshot: the stored query is recompiled, a
    /// fresh engine of the same kind (same typed storage for
    /// [`Ring::create_view_with`] views) is initialized from the snapshot via the
    /// same backfill path late-created views use, and it replaces the old engine,
    /// clearing any quarantine. Because a failed batch lands *nowhere* — neither in
    /// any engine nor in the snapshot — the repaired view is exactly the view that
    /// would exist had the panic never happened.
    ///
    /// Works on healthy views too (a forced rebuild). Fails with
    /// [`Error::UnknownView`](crate::Error::UnknownView) on dropped ids and
    /// [`Error::BackfillUnavailable`](crate::Error::BackfillUnavailable) on rings
    /// built [`without_base_tracking`](RingBuilder::without_base_tracking) that have
    /// already ingested updates (there is nothing authoritative to rebuild from —
    /// drop the view instead). Work counters restart from the backfill, as with any
    /// late-created view.
    pub fn repair_view(&mut self, id: ViewId) -> Result<(), Error> {
        if self.registry.engine(id.0).is_none() {
            return Err(Error::UnknownView {
                view: id.to_string(),
            });
        }
        let info = self.infos[id.0 as usize]
            .as_ref()
            .expect("registry slots and view infos stay in sync");
        if !self.snapshot_current() {
            return Err(Error::BackfillUnavailable {
                view: info.name.clone(),
            });
        }
        let program = compile(&self.catalog, &info.query)?;
        let mut engine = (info.factory)(program);
        if !self.snapshot.is_empty() {
            let base = self
                .snapshot
                .to_database(&self.catalog)
                .expect("every ingested update was validated against the catalog");
            engine.initialize_from(&base)?;
        }
        self.registry
            .replace(id.0, engine)
            .expect("checked live just above");
        if self.serving() {
            // Republication clears the store-side quarantine flag along with the
            // registry-side one: the repaired view serves again immediately.
            self.publish_slots(vec![(id.0, Publication::Whole)]);
        }
        Ok(())
    }

    /// Runs the static plan auditor over one view's compiled program and returns its
    /// diagnostics (empty means the plan lints clean). Shares [`Ring::view`]'s
    /// refusal of unknown and quarantined views. Auditing re-lowers the program —
    /// a cold introspection path, not a per-update one.
    pub fn audit_view(&self, id: ViewId) -> Result<Vec<Diagnostic>, Error> {
        Ok(self.view(id)?.audit())
    }

    /// Audits every live, healthy view (creation order): `(id, diagnostics)` pairs,
    /// diagnostics empty for views whose plans lint clean. The ring-wide counterpart
    /// of [`Ring::audit_view`] — what `dbring-lint` runs over each workload ring.
    pub fn audit(&self) -> Vec<(ViewId, Vec<Diagnostic>)> {
        self.views().map(|v| (v.id(), v.audit())).collect()
    }

    /// The ids of the live views reading `relation` — the routing table's answer to
    /// "who pays for an update to this relation?".
    pub fn readers_of(&self, relation: &str) -> Vec<ViewId> {
        self.registry
            .readers_of(relation)
            .iter()
            .map(|&slot| ViewId(slot))
            .collect()
    }

    // ------------------------------------------------------------------
    // Snapshot read path
    // ------------------------------------------------------------------

    /// A cloneable, `Send + Sync` read handle on this ring's published snapshots —
    /// the reader half of the writer/reader split: move the `Ring` into your ingest
    /// thread and hand [`RingHandle`] clones to any number of reader threads.
    ///
    /// The first read-side request (this method or [`Ring::snapshot`]) switches the
    /// ring into *serving* mode: every live view is published once, and from then on
    /// each successful commit — a single-tuple [`Ring::apply`] or a whole
    /// [`Ring::apply_batch`] — publishes the views it touched at that quiescent
    /// point. Rings that never serve snapshots pay one untaken branch per commit.
    ///
    /// Publication follows reader interest. A view is *subscribed* by the first
    /// acquire of its snapshot (through any handle or the ring itself) and stays
    /// subscribed; a commit builds a subscribed view's next snapshot at once. A
    /// commit into a view nobody has acquired yet only records the output keys it
    /// wrote with their new values, one entry per key, and that view's first acquire
    /// builds the snapshot as of the latest commit. Acquires cannot tell the two
    /// apart: each returns the view after the latest commit that touched it.
    pub fn reader(&self) -> RingHandle {
        self.enable_serving();
        RingHandle {
            store: Arc::clone(&self.snapshots),
        }
    }

    /// Acquires the current published snapshot of one view — O(1), independent of
    /// view size (an `Arc` clone of the table published at the last quiescent
    /// point). Same refusals as [`Ring::view`]: unknown/dropped ids are
    /// [`Error::UnknownView`](crate::Error::UnknownView), quarantined views are
    /// [`Error::ViewPoisoned`](crate::Error::ViewPoisoned) *at acquire time* — a
    /// snapshot handed out before the failure stays valid and consistent.
    ///
    /// Switches the ring into serving mode on first use (see [`Ring::reader`]), so
    /// the first call publishes every live view and is O(total output size). The
    /// first acquire of a view that commits have touched since builds their changes
    /// (see [`Ring::reader`]): O(changed blocks), once per view.
    pub fn snapshot(&self, id: ViewId) -> Result<ViewSnapshot, Error> {
        self.enable_serving();
        snapshot_access(self.snapshots.acquire(id.0), || id.to_string())
    }

    /// [`Ring::snapshot`] addressed by view name.
    pub fn snapshot_named(&self, name: &str) -> Result<ViewSnapshot, Error> {
        self.enable_serving();
        snapshot_access(self.snapshots.acquire_named(name), || name.to_string())
    }

    /// Whether the ring is publishing snapshots at commit points (flipped on by the
    /// first [`Ring::reader`] / [`Ring::snapshot`] call, never off).
    pub fn serving(&self) -> bool {
        self.serving.load(AtomicOrdering::Relaxed)
    }

    /// Cumulative wall-clock nanoseconds the ingest path has spent publishing
    /// snapshots — the *writer-side* cost of the read path (zero until serving
    /// starts), deferring included. Builds on a view's first acquire run on the
    /// reader's thread and are not in it. The end-to-end benchmark reads it for its
    /// `runtime.publish_*` metrics.
    pub fn snapshot_publish_ns(&self) -> u64 {
        self.snapshots.publish_ns()
    }

    /// Cumulative publication work in machine-independent counts: publication
    /// rounds, blocks rebuilt, blocks shared with the predecessor snapshot, rows
    /// copied, view publications deferred, and snapshots built on a view's first
    /// acquire (whose blocks are counted too). After the first publication a commit
    /// copies only the blocks its changed keys fall in, so `entries_copied` per
    /// commit follows the batch, not the size of the view.
    pub fn snapshot_publish_stats(&self) -> PublishStats {
        self.snapshots.publish_stats()
    }

    /// Total groups currently held across all published snapshots — the publication
    /// store's memory proxy, analogous to [`StorageFootprint`] for the engine side;
    /// [`Ring::snapshot_pending_entries`] is the deferred part.
    /// Dropping a view releases its contribution promptly. (Successive snapshots of
    /// a view share their unchanged blocks, so a reader holding older epochs keeps
    /// alive only the blocks later commits replaced.)
    pub fn snapshot_footprint(&self) -> usize {
        self.snapshots.published_entries()
    }

    /// Total `(key, value)` entries the publication store holds for commits into
    /// views no reader has acquired yet — the deferred half of the publication
    /// footprint (see [`Ring::reader`]). At most one per key a view wrote since its
    /// snapshot was last built, and none for a group created and deleted again in
    /// between, so a view holds at most its built rows plus its live rows.
    pub fn snapshot_pending_entries(&self) -> usize {
        self.snapshots.pending_entries()
    }

    /// What the base mirror holds and costs — live tuples, allocated row capacity,
    /// slot-array length, heap bytes ([`BaseFootprint`]) — the ingest-side
    /// counterpart of [`Ring::snapshot_footprint`]. `None` when the ring was built
    /// [`without_base_tracking`](RingBuilder::without_base_tracking): no mirror is
    /// kept. A rejected update or batch leaves it unchanged.
    pub fn base_footprint(&self) -> Option<BaseFootprint> {
        self.track_base.then(|| self.snapshot.footprint())
    }

    /// Switches on snapshot publication (idempotent): publishes every live view at
    /// the current quiescent point and mirrors quarantine flags into the store.
    fn enable_serving(&self) {
        if self.serving.swap(true, AtomicOrdering::Relaxed) {
            return;
        }
        self.publish_slots(
            (0..self.infos.len() as u32)
                .map(|slot| (slot, Publication::Whole))
                .collect(),
        );
        self.sync_quarantine();
    }

    /// Publishes the given slots (skipping dropped and quarantined ones) under one
    /// publication epoch, accumulating the cost into [`Ring::snapshot_publish_ns`]
    /// and [`Ring::snapshot_publish_stats`]. A whole publication replaces the
    /// slot's snapshot; a commit is built into it, or deferred until the slot's
    /// first acquire (see [`SnapshotStore::commit`]).
    fn publish_slots(&self, slots: Vec<(u32, Publication)>) {
        let mut live = slots
            .into_iter()
            .filter(|(slot, _)| !self.registry.is_poisoned(*slot))
            .filter_map(|(slot, changed)| Some((slot, self.registry.engine(slot)?, changed)))
            .peekable();
        if live.peek().is_none() {
            return;
        }
        let started = Instant::now();
        let epoch = self.snapshots.next_epoch();
        let mut stats = PublishStats {
            commits: 1,
            ..PublishStats::default()
        };
        for (slot, engine, publication) in live {
            match publication {
                Publication::Commit(mut changed) => self.snapshots.commit(
                    slot,
                    epoch,
                    self.ingested,
                    &mut changed,
                    |key| engine.output_value(key),
                    &mut stats,
                ),
                Publication::Whole => self.snapshots.publish(
                    slot,
                    ViewSnapshot::from_export(
                        self.snapshots.name(slot).expect("slots stay in sync"),
                        epoch,
                        self.ingested,
                        output_arity(engine),
                        engine.output_len(),
                        |visit| engine.for_each_output(visit),
                        &mut stats,
                    ),
                ),
            }
        }
        self.snapshots
            .record(started.elapsed().as_nanos() as u64, &stats);
    }

    /// Publishes the views a commit touched, each patched at the output keys the
    /// commit changed (at once, or on the view's first acquire). Every touched live
    /// view committed with change tracking on, so each has its change set; a
    /// quarantined one was skipped by the dispatch and is skipped here too.
    fn publish_commit(&mut self, touched: &[u32]) {
        let mut slots = Vec::with_capacity(touched.len());
        for &slot in touched {
            if self.registry.is_poisoned(slot) {
                continue;
            }
            let changed = self
                .registry
                .take_changes(slot)
                .expect("a committed view reports its changes while serving");
            slots.push((slot, Publication::Commit(changed)));
        }
        self.publish_slots(slots);
    }

    /// Mirrors the registry's quarantine flags into the publication store, so
    /// acquisition reports [`Error::ViewPoisoned`](crate::Error::ViewPoisoned)
    /// instead of serving a stale pre-failure table as if it were current.
    fn sync_quarantine(&self) {
        for slot in self.registry.poisoned_slots() {
            self.snapshots.poison(slot);
        }
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Applies one single-tuple update: validated against the catalog once, routed to
    /// exactly the views whose programs read its relation, and — once every routed
    /// view accepted it — recorded in the base snapshot (when tracking). Updates to
    /// declared relations no view reads only maintain the snapshot; undeclared
    /// relations are an [`Error::UnknownRelation`](crate::Error::UnknownRelation).
    /// Zero-multiplicity updates are explicit no-ops. Quarantined views are skipped
    /// (they catch up through [`Ring::repair_view`]'s snapshot backfill).
    ///
    /// **All-or-nothing across views**: the catalog check vets relation and arity, and when
    /// a trigger still fails on the values themselves (e.g. a string reaching an arithmetic
    /// position) the update is rolled back from every view that already staged it — a
    /// rejected update lands *nowhere*: no view, no snapshot, no counter. A panicking view
    /// engine surfaces as [`RuntimeError::EnginePanicked`] and quarantines that view;
    /// sibling views still roll back cleanly. The snapshot records only fully-applied
    /// updates, so a rejected update can never poison future
    /// [`create_view`](Ring::create_view) backfills.
    pub fn apply(&mut self, update: &Update) -> Result<(), Error> {
        if update.multiplicity == 0 {
            return Ok(());
        }
        self.check_ingest(&update.relation, update.values.len())?;
        self.apply_validated(update).map_err(Error::Runtime)
    }

    /// The post-validation half of [`Ring::apply`]: engines first, snapshot and
    /// counter only on full success. When serving, a successful single-tuple apply
    /// is a quiescent point: the touched views republish before this returns.
    fn apply_validated(&mut self, update: &Update) -> Result<(), RuntimeError> {
        self.registry.set_change_tracking(self.serving());
        if let Err(error) = self.registry.apply(update) {
            self.sync_quarantine();
            return Err(error);
        }
        if self.track_base {
            self.snapshot.apply(update);
        }
        self.ingested += update.multiplicity.unsigned_abs();
        if self.serving() {
            let touched = self.registry.readers_of(&update.relation).to_vec();
            self.publish_commit(&touched);
        }
        Ok(())
    }

    /// Convenience: applies the insertion `+R(values)`.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> Result<(), Error> {
        self.apply(&Update::insert(relation, values))
    }

    /// Convenience: applies the deletion `−R(values)`.
    pub fn delete(&mut self, relation: &str, values: Vec<Value>) -> Result<(), Error> {
        self.apply(&Update::delete(relation, values))
    }

    /// Applies a sequence of updates one by one (one routing decision and one trigger
    /// firing per update per reading view).
    ///
    /// The whole sequence is validated against the catalog **before** anything is applied,
    /// so an undeclared relation or a wrong arity anywhere in the sequence fails with
    /// *nothing* landed. Runtime failures past that point (a trigger choking on the values
    /// themselves) stop the sequence at the failing update: every update before it is
    /// applied everywhere, the failing update itself lands nowhere (each update is
    /// all-or-nothing across views — see [`Ring::apply`]), and the error is wrapped in
    /// [`RuntimeError::AtUpdate`] carrying the failing index so callers know exactly how
    /// many landed.
    pub fn apply_all<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(), Error> {
        let updates: Vec<&Update> = updates.into_iter().collect();
        for update in &updates {
            if update.multiplicity != 0 {
                self.check_ingest(&update.relation, update.values.len())?;
            }
        }
        for (index, update) in updates.into_iter().enumerate() {
            if update.multiplicity == 0 {
                continue;
            }
            self.apply_validated(update).map_err(|source| {
                Error::Runtime(RuntimeError::AtUpdate {
                    index,
                    source: Box::new(source),
                })
            })?;
        }
        Ok(())
    }

    /// Applies a batch of updates with **one** normalization for the whole ring: the
    /// updates are consolidated into a [`DeltaBatch`] once (cancelling pairs vanish,
    /// multiplicities net out), the snapshot is maintained in one pass per relation,
    /// and the borrowed batch is fanned out only to the views reading the touched
    /// relations. With `k` views this is the amortization that `k` independent
    /// executors cannot have: each would re-normalize and re-dispatch the same updates.
    ///
    /// Equivalent to [`Ring::apply_all`] over the same updates for every view
    /// (integer aggregates bit-identically; float aggregates up to IEEE reordering:
    /// a batch consolidates identical tuples and fires each once with its net weight).
    ///
    /// **Failure atomicity**: catalog failures land nothing, and a runtime failure during
    /// fan-out also lands nothing — every touched view *stages* the batch (applying it
    /// while logging pre-images) and commits only if all of them succeed, so on error each
    /// staged view is rolled back bit-identically and the snapshot is untouched. A
    /// panicking view engine surfaces as [`RuntimeError::EnginePanicked`], quarantines that
    /// view (see [`Ring::repair_view`]), and still rolls every sibling back. Staging costs
    /// one pre-image record per map write for the duration of the batch — memory
    /// proportional to the batch's write set, not to the views. Touched views stage one
    /// after another in slot order and the first failure stops the batch, so if several
    /// views would fail on it, the error reported is always the one from the
    /// **lowest-numbered view slot**.
    ///
    /// The whole batch runs on the calling thread: no worker pool is spawned and no
    /// view is written from another core, so the views this thread reads next are
    /// still in its cache. A trigger does constant work per update — too little to
    /// pay for handing a batch to other threads.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error> {
        let batch = self.normalizer.normalize(updates);
        self.apply_delta_batch(&batch)
    }

    /// Applies an already-normalized delta batch (the normalization cost of
    /// [`Ring::apply_batch`] can then be reused or amortized by the caller).
    ///
    /// Shares [`Ring::apply_batch`]'s failure contract: on a runtime error the batch
    /// has landed nowhere — every staged view rolled back, snapshot untouched — and
    /// the reported error is the lowest-slot failure. Like [`Ring::apply_batch`], it
    /// runs entirely on the calling thread.
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<(), Error> {
        for group in batch.groups() {
            let expected = match self.catalog.columns(group.relation()) {
                Some(columns) => columns.len(),
                None => {
                    return Err(Error::UnknownRelation {
                        relation: group.relation().to_string(),
                        view: None,
                    })
                }
            };
            for (values, _) in group.deltas() {
                if values.len() != expected {
                    return Err(Error::Runtime(RuntimeError::ArityMismatch {
                        relation: group.relation().to_string(),
                        expected,
                        got: values.len(),
                    }));
                }
            }
        }
        // Engines first, snapshot only on full success: a rejected batch must never
        // enter the backfill source (see `Ring::apply`).
        self.registry.set_change_tracking(self.serving());
        if let Err(error) = self.registry.apply_batch(batch) {
            self.sync_quarantine();
            return Err(error.into());
        }
        if self.track_base {
            self.snapshot.apply_delta_batch(batch);
        }
        self.ingested += batch.total_weight();
        if self.serving() {
            // The batch committed everywhere — a quiescent point. Republish exactly
            // the views that read a touched relation; snapshots of the others are
            // still current by construction.
            let mut touched: Vec<u32> = Vec::new();
            for group in batch.groups() {
                touched.extend_from_slice(self.registry.readers_of(group.relation()));
            }
            touched.sort_unstable();
            touched.dedup();
            self.publish_commit(&touched);
        }
        Ok(())
    }

    /// Validates an ingest target against the catalog: the relation must be declared
    /// and the arity must match.
    fn check_ingest(&self, relation: &str, arity: usize) -> Result<(), Error> {
        match self.catalog.columns(relation) {
            None => Err(Error::UnknownRelation {
                relation: relation.to_string(),
                view: None,
            }),
            Some(columns) if columns.len() != arity => {
                Err(Error::Runtime(RuntimeError::ArityMismatch {
                    relation: relation.to_string(),
                    expected: columns.len(),
                    got: arity,
                }))
            }
            Some(_) => Ok(()),
        }
    }
}

/// Shared read surface of [`ViewRef`] and [`ViewMut`].
macro_rules! view_read_api {
    () => {
        /// The view's id within its ring.
        pub fn id(&self) -> ViewId {
            self.id
        }

        /// The view's name.
        pub fn name(&self) -> &str {
            &self.info.name
        }

        /// The query this view maintains.
        pub fn query(&self) -> &Query {
            &self.info.query
        }

        /// The compiled trigger program (inspect with
        /// [`TriggerProgram::describe`]).
        pub fn program(&self) -> &TriggerProgram {
            self.engine.program()
        }

        /// The program rendered in the paper's low-level NC0C language.
        pub fn nc0c_source(&self) -> String {
            generate_nc0c(self.engine.program())
        }

        /// The engine's registry name (the executor family).
        pub fn engine_name(&self) -> &'static str {
            self.engine.engine_name()
        }

        /// The aggregate value for one group key (the empty slice for queries without
        /// `GROUP BY`). Missing groups read as zero.
        pub fn value(&self, group_key: &[Value]) -> Number {
            self.engine.output_value(group_key)
        }

        /// The full result table, sorted by group key.
        pub fn table(&self) -> BTreeMap<Vec<Value>, Number> {
            self.engine.output_table()
        }

        /// Work counters (updates applied, ring additions/multiplications performed)
        /// for this view alone.
        pub fn stats(&self) -> ExecStats {
            self.engine.stats()
        }

        /// Total number of entries across this view's whole map hierarchy.
        pub fn total_entries(&self) -> usize {
            self.engine.total_entries()
        }

        /// The storage-level memory proxy of this view's hierarchy: entry and
        /// secondary-index-entry counts.
        pub fn storage_footprint(&self) -> StorageFootprint {
            self.engine.storage_footprint()
        }

        /// The static plan auditor's diagnostics for this view's compiled program
        /// (empty means clean). See [`Ring::audit_view`].
        pub fn audit(&self) -> Vec<Diagnostic> {
            self.engine.audit()
        }
    };
}

/// A cheap read handle on one standing view of a [`Ring`] — everything a caller can
/// ask of a view without being able to mutate it.
#[derive(Clone, Copy)]
pub struct ViewRef<'a> {
    id: ViewId,
    info: &'a ViewInfo,
    engine: &'a dyn ViewEngine,
}

impl ViewRef<'_> {
    view_read_api!();
}

impl fmt::Debug for ViewRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewRef")
            .field("id", &self.id)
            .field("name", &self.info.name)
            .field("engine", &self.engine.engine_name())
            .finish()
    }
}

/// A mutable handle on one standing view: the full [`ViewRef`] read surface plus
/// counter resets. Ingest stays on the ring — that is the point of the design — so
/// even a mutable handle cannot apply updates to a single view.
pub struct ViewMut<'a> {
    id: ViewId,
    info: &'a ViewInfo,
    engine: &'a mut Box<dyn ViewEngine>,
}

impl ViewMut<'_> {
    view_read_api!();

    /// Resets this view's work counters (e.g. after a bulk load, before a measured
    /// stream).
    pub fn reset_stats(&mut self) {
        self.engine.reset_stats();
    }
}

impl fmt::Debug for ViewMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewMut")
            .field("id", &self.id)
            .field("name", &self.info.name)
            .field("engine", &self.engine.engine_name())
            .finish()
    }
}

/// How [`Ring::publish_slots`] builds a view's next snapshot.
enum Publication {
    /// Exported whole from the engine: first publication, backfill and repair.
    Whole,
    /// The output keys a commit changed: the successor of the current snapshot is
    /// built at the commit boundary — O(changed blocks), paid by the writer — if a
    /// reader has acquired the view, and on its first acquire otherwise.
    Commit(ChangeSet),
}

/// The number of values in one of the engine's output group keys.
fn output_arity(engine: &dyn ViewEngine) -> usize {
    let program = engine.program();
    program.maps[program.output].key_vars.len()
}

/// Maps a publication-store acquisition to the ring's error vocabulary.
fn snapshot_access(
    access: SnapshotAccess,
    who: impl FnOnce() -> String,
) -> Result<ViewSnapshot, Error> {
    match access {
        SnapshotAccess::Published(snapshot) => Ok(snapshot),
        SnapshotAccess::Poisoned(name) => Err(Error::ViewPoisoned {
            view: name.to_string(),
        }),
        SnapshotAccess::Dropped | SnapshotAccess::Unknown => {
            Err(Error::UnknownView { view: who() })
        }
    }
}

/// The reader half of a [`Ring`]: a cheap, cloneable, `Send + Sync` handle on the
/// ring's published snapshots, detached from the ring's borrow.
///
/// Obtained from [`Ring::reader`]. The intended split is one ingest thread owning
/// the `&mut Ring` and any number of reader threads holding `RingHandle` clones:
/// reads acquire O(1) point-in-time [`ViewSnapshot`]s published at batch-commit
/// quiescent points, and never contend with the writer beyond a pointer-sized
/// critical section at acquire. The first acquire of a view subscribes it: commits
/// into a view no reader has acquired defer their changes, and that first acquire
/// builds them on the reader's thread (see [`Ring::reader`]).
///
/// A handle observes the ring's view lifecycle as of each acquisition: snapshots of
/// views created later are visible once published, dropped views report
/// [`Error::UnknownView`](crate::Error::UnknownView), and quarantined views report
/// [`Error::ViewPoisoned`](crate::Error::ViewPoisoned) at acquire time (snapshots
/// acquired *before* the failure stay readable — they are immutable data).
///
/// ```
/// use dbring::{Catalog, RingBuilder, Update, Value, ViewDef};
///
/// let mut catalog = Catalog::new();
/// catalog.declare("Sales", &["cust", "cents"]).unwrap();
/// let mut ring = RingBuilder::new(catalog).build();
/// let revenue = ring
///     .create_view(
///         "revenue",
///         ViewDef::Sql("SELECT cust, SUM(cents) AS revenue FROM Sales GROUP BY cust"),
///     )
///     .unwrap();
///
/// let reader = ring.reader();
/// let writer = std::thread::spawn(move || {
///     ring.apply_batch(&[Update::insert("Sales", vec![Value::int(1), Value::int(500)])])
///         .unwrap();
///     ring
/// });
/// // Reader threads acquire consistent snapshots while the writer ingests.
/// let snapshot = reader.snapshot(revenue).unwrap();
/// assert!(snapshot.value(&[Value::int(1)]).as_f64() <= 500.0);
/// let ring = writer.join().unwrap();
/// assert_eq!(ring.snapshot(revenue).unwrap().value(&[Value::int(1)]).as_f64(), 500.0);
/// ```
#[derive(Clone, Debug)]
pub struct RingHandle {
    store: Arc<SnapshotStore>,
}

impl RingHandle {
    /// Acquires the current published snapshot of one view — O(1): an `Arc` clone
    /// under a pointer-sized critical section, never a table copy. The view's first
    /// acquire builds the commits deferred until then (see [`Ring::reader`]).
    pub fn snapshot(&self, id: ViewId) -> Result<ViewSnapshot, Error> {
        snapshot_access(self.store.acquire(id.0), || id.to_string())
    }

    /// [`RingHandle::snapshot`] addressed by view name: one pass over the slot
    /// names under one shared lock, then the matching slot's `Arc` clone.
    pub fn snapshot_named(&self, name: &str) -> Result<ViewSnapshot, Error> {
        snapshot_access(self.store.acquire_named(name), || name.to_string())
    }

    /// The id of the live (published or quarantined) view with the given name, as
    /// of this call.
    pub fn view_id(&self, name: &str) -> Option<ViewId> {
        self.store.find(name).map(ViewId)
    }

    /// Total groups currently held across all published snapshots (see
    /// [`Ring::snapshot_footprint`]).
    pub fn snapshot_footprint(&self) -> usize {
        self.store.published_entries()
    }

    /// Entries held for commits not yet built (see
    /// [`Ring::snapshot_pending_entries`]).
    pub fn snapshot_pending_entries(&self) -> usize {
        self.store.pending_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    fn sales_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("Sales", &["cust", "cents", "qty"]).unwrap();
        c.declare("Returns", &["cust", "cents"]).unwrap();
        c
    }

    fn sale(cust: i64, cents: i64, qty: i64) -> Update {
        Update::insert(
            "Sales",
            vec![Value::int(cust), Value::int(cents), Value::int(qty)],
        )
    }

    #[test]
    fn one_stream_maintains_many_views() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let revenue = ring
            .create_view(
                "revenue",
                ViewDef::Sql("SELECT cust, SUM(cents * qty) AS r FROM Sales GROUP BY cust"),
            )
            .unwrap();
        let orders = ring
            .create_view(
                "orders",
                ViewDef::Sql("SELECT cust, SUM(1) AS n FROM Sales GROUP BY cust"),
            )
            .unwrap();
        let refunds = ring
            .create_view(
                "refunds",
                ViewDef::Sql("SELECT cust, SUM(cents) AS c FROM Returns GROUP BY cust"),
            )
            .unwrap();
        assert_eq!(ring.len(), 3);
        ring.apply_all(&[sale(1, 100, 2), sale(1, 50, 1), sale(2, 30, 3)])
            .unwrap();
        ring.insert("Returns", vec![Value::int(1), Value::int(40)])
            .unwrap();
        assert_eq!(
            ring.view(revenue).unwrap().value(&[Value::int(1)]),
            Number::Int(250)
        );
        assert_eq!(
            ring.view(orders).unwrap().value(&[Value::int(1)]),
            Number::Int(2)
        );
        assert_eq!(
            ring.view(refunds).unwrap().value(&[Value::int(1)]),
            Number::Int(40)
        );
        // Routing: the Returns insert did not touch the Sales-reading views.
        assert_eq!(ring.view(revenue).unwrap().stats().updates, 3);
        assert_eq!(ring.view(refunds).unwrap().stats().updates, 1);
        assert_eq!(ring.readers_of("Sales"), vec![revenue, orders]);
        assert_eq!(ring.readers_of("Returns"), vec![refunds]);
        assert_eq!(ring.updates_ingested(), 4);
        assert_eq!(
            ring.views()
                .map(|v| v.name().to_string())
                .collect::<Vec<_>>(),
            vec!["revenue", "orders", "refunds"]
        );
    }

    #[test]
    fn late_registration_backfills_from_the_snapshot() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let early = ring
            .create_view(
                "early",
                ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
            )
            .unwrap();
        ring.apply_all(&[sale(1, 10, 1), sale(2, 20, 2), sale(1, 5, 4)])
            .unwrap();
        // Same definition, created after the stream: must match the early view.
        let late = ring
            .create_view("late", ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"))
            .unwrap();
        assert_eq!(
            ring.view(early).unwrap().table(),
            ring.view(late).unwrap().table()
        );
        // And both keep agreeing on further maintenance.
        ring.apply(&sale(2, 7, 1)).unwrap();
        assert_eq!(
            ring.view(early).unwrap().table(),
            ring.view(late).unwrap().table()
        );
        assert_eq!(
            ring.view(late).unwrap().value(&[Value::int(2)]),
            Number::Int(47)
        );
    }

    #[test]
    fn from_database_backfills_new_views() {
        let mut db = sales_catalog();
        db.apply_all(&[sale(1, 100, 1), sale(1, 10, 2)]).unwrap();
        let mut ring = RingBuilder::from_database(db).build();
        let v = ring
            .create_view(
                "revenue",
                ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
            )
            .unwrap();
        assert_eq!(
            ring.view(v).unwrap().value(&[Value::int(1)]),
            Number::Int(120)
        );
        ring.apply(&sale(1, 1, 5)).unwrap();
        assert_eq!(
            ring.view(v).unwrap().value(&[Value::int(1)]),
            Number::Int(125)
        );
    }

    #[test]
    fn create_view_rejects_undeclared_relations_with_a_dedicated_error() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let err = ring
            .create_view("bad", ViewDef::Agca("q := Sum(Ghost(x))"))
            .unwrap_err();
        match &err {
            Error::UnknownRelation { relation, view } => {
                assert_eq!(relation, "Ghost");
                assert_eq!(view.as_deref(), Some("bad"));
            }
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
        assert!(err.to_string().contains("Ghost"));
        assert!(err.to_string().contains("bad"));
        assert!(ring.is_empty(), "the failed view was not registered");
    }

    #[test]
    fn duplicate_and_unknown_view_errors() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let id = ring
            .create_view("v", ViewDef::Agca("q := Sum(Sales(c, p, n))"))
            .unwrap();
        assert!(matches!(
            ring.create_view("v", ViewDef::Agca("q := Sum(Sales(c, p, n))")),
            Err(Error::DuplicateView { .. })
        ));
        ring.drop_view(id).unwrap();
        assert!(matches!(ring.drop_view(id), Err(Error::UnknownView { .. })));
        assert!(matches!(ring.view(id), Err(Error::UnknownView { .. })));
        assert!(ring.view_id("v").is_none());
        // The name is freed, and the old id is never reused.
        let id2 = ring
            .create_view("v", ViewDef::Agca("q := Sum(Sales(c, p, n))"))
            .unwrap();
        assert_ne!(id, id2);
        assert!(matches!(
            ring.view_named("ghost"),
            Err(Error::UnknownView { .. })
        ));
        assert_eq!(ring.view_named("v").unwrap().id(), id2);
    }

    #[test]
    fn dropped_views_stop_paying_for_ingest() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let keep = ring
            .create_view("keep", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        let gone = ring
            .create_view("gone", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        ring.apply(&sale(1, 1, 1)).unwrap();
        ring.drop_view(gone).unwrap();
        ring.apply(&sale(2, 2, 2)).unwrap();
        assert_eq!(ring.view(keep).unwrap().stats().updates, 2);
        assert_eq!(ring.readers_of("Sales"), vec![keep]);
    }

    #[test]
    fn ingest_validates_against_the_catalog() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        ring.create_view("v", ViewDef::Agca("q := Sum(Sales(c, p, n))"))
            .unwrap();
        assert!(matches!(
            ring.insert("Ghost", vec![Value::int(1)]),
            Err(Error::UnknownRelation { view: None, .. })
        ));
        assert!(matches!(
            ring.insert("Sales", vec![Value::int(1)]),
            Err(Error::Runtime(RuntimeError::ArityMismatch { .. }))
        ));
        // A declared relation no view reads is maintained in the snapshot only.
        ring.insert("Returns", vec![Value::int(1), Value::int(5)])
            .unwrap();
        assert_eq!(ring.updates_ingested(), 1);
        assert_eq!(ring.base_snapshot().unwrap().total_support(), 1);
        // Batch ingest validates the same way.
        assert!(matches!(
            ring.apply_batch(&[Update::insert("Ghost", vec![Value::int(1)])]),
            Err(Error::UnknownRelation { .. })
        ));
        assert!(matches!(
            ring.apply_batch(&[Update::insert("Sales", vec![Value::int(1)])]),
            Err(Error::Runtime(RuntimeError::ArityMismatch { .. }))
        ));
        // apply_all prevalidates the whole sequence: a catalog error anywhere means
        // *nothing* lands, reported without an index.
        let before = ring.updates_ingested();
        let err = ring
            .apply_all(&[sale(1, 1, 1), Update::insert("Sales", vec![Value::int(9)])])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Runtime(RuntimeError::ArityMismatch { .. })
        ));
        assert_eq!(ring.updates_ingested(), before, "nothing landed");
    }

    /// Regression (review finding): a trigger failing on the *values* (which the
    /// catalog check cannot vet) must not poison the base snapshot — late view
    /// creation has to keep working after a rejected update, and `apply_all` must
    /// pinpoint the failing index for such runtime errors.
    #[test]
    fn rejected_updates_never_enter_the_backfill_snapshot() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        ring.create_view(
            "revenue",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();
        // Catalog-valid (right relation, right arity) but a string lands in an
        // arithmetic position: the trigger rejects it at runtime.
        let poison = Update::insert(
            "Sales",
            vec![Value::int(1), Value::str("x"), Value::str("y")],
        );
        let err = ring
            .apply_all(&[sale(1, 10, 1), poison.clone(), sale(2, 5, 1)])
            .unwrap_err();
        match err {
            Error::Runtime(RuntimeError::AtUpdate { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected AtUpdate, got {other:?}"),
        }
        // The good update before the failure landed; the poison did not reach the
        // snapshot, so mid-stream view creation still works and matches the stream.
        assert_eq!(ring.updates_ingested(), 1);
        assert!(ring.apply(&poison).is_err());
        let late = ring
            .create_view("units", ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * n)"))
            .unwrap();
        assert_eq!(
            ring.view(late).unwrap().value(&[Value::int(1)]),
            Number::Int(1)
        );
        assert_eq!(ring.base_snapshot().unwrap().total_support(), 1);
        // The batch path keeps the same guarantee.
        let err = ring.apply_batch(&[sale(3, 2, 2), poison]).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));
        assert!(ring
            .create_view("orders", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .is_ok());
    }

    #[test]
    fn rejected_batches_leave_the_base_footprint_untouched() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        ring.create_view(
            "revenue",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();
        ring.apply_batch(&[sale(1, 10, 1), sale(2, 5, 1)]).unwrap();
        let before = ring.base_footprint().expect("tracking is on by default");
        assert_eq!(before.tuples, 2);
        assert!(before.row_capacity >= 2 && before.slots >= 4 && before.bytes > 0);
        // Catalog-valid, rejected by the trigger at runtime (a string in an
        // arithmetic position) — per update and as part of a batch.
        let poison = Update::insert(
            "Sales",
            vec![Value::int(1), Value::str("x"), Value::str("y")],
        );
        assert!(ring.apply(&poison).is_err());
        assert!(ring.apply_batch(&[sale(3, 2, 2), poison]).is_err());
        assert_eq!(ring.base_footprint(), Some(before));
        let untracked = RingBuilder::new(sales_catalog())
            .without_base_tracking()
            .build();
        assert_eq!(untracked.base_footprint(), None);
    }

    /// The base mirror's interner is the ring's only one, so a ring that tracks no
    /// base holds no string however many it ingests.
    #[test]
    fn an_untracked_ring_keeps_no_string() {
        let mut catalog = Catalog::new();
        catalog.declare("S", &["cust", "price"]).unwrap();
        let mut ring = RingBuilder::new(catalog).without_base_tracking().build();
        ring.create_view(
            "by_cust",
            ViewDef::Sql("SELECT cust, SUM(price) FROM S GROUP BY cust"),
        )
        .unwrap();
        let rows: Vec<Update> = (0..100)
            .map(|i| Update::insert("S", vec![Value::str(format!("c{i}")), Value::int(i)]))
            .collect();
        ring.apply_batch(&rows).unwrap();
        ring.apply(&Update::insert("S", vec![Value::str("one"), Value::int(1)]))
            .unwrap();
        assert_eq!(ring.snapshot.footprint(), BaseFootprint::default());
    }

    #[test]
    fn batch_ingest_normalizes_once_and_matches_per_update_ingest() {
        let updates: Vec<Update> = (0..40)
            .map(|i| sale(i % 5, 100 * (i % 3 + 1), i % 4 + 1))
            .chain((0..6).map(|i| sale(i % 5, 100, 1).inverse()))
            .collect();
        let defs = [
            ("revenue", "q[c] := Sum(Sales(c, p, n) * p * n)"),
            ("orders", "q[c] := Sum(Sales(c, p, n))"),
        ];
        let mut per_update = RingBuilder::new(sales_catalog()).build();
        let mut batched = RingBuilder::new(sales_catalog()).build();
        for (name, text) in defs {
            per_update.create_view(name, ViewDef::Agca(text)).unwrap();
            batched.create_view(name, ViewDef::Agca(text)).unwrap();
        }
        per_update.apply_all(&updates).unwrap();
        for chunk in updates.chunks(16) {
            batched.apply_batch(chunk).unwrap();
        }
        for (name, _) in defs {
            assert_eq!(
                per_update.view_named(name).unwrap().table(),
                batched.view_named(name).unwrap().table(),
                "{name}"
            );
        }
        // The batch path counts *consolidated* weight: in-batch cancelling pairs
        // vanish before ingestion, so it can only see fewer updates, never more.
        assert!(batched.updates_ingested() <= per_update.updates_ingested());
        assert!(batched.updates_ingested() > 0);
        // The snapshots agree too (batch snapshot maintenance is one pass).
        assert_eq!(
            per_update.base_snapshot().unwrap().total_support(),
            batched.base_snapshot().unwrap().total_support()
        );
    }

    #[test]
    fn disabling_base_tracking_blocks_late_registration_only() {
        let mut ring = RingBuilder::new(sales_catalog())
            .without_base_tracking()
            .build();
        let early = ring
            .create_view("early", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        assert!(ring.snapshot_current(), "no updates yet");
        ring.apply(&sale(1, 1, 1)).unwrap();
        assert!(!ring.snapshot_current());
        assert!(ring.base_snapshot().is_none());
        let err = ring
            .create_view("late", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap_err();
        assert!(matches!(err, Error::BackfillUnavailable { .. }));
        assert!(err.to_string().contains("late"));
        // The early view is unaffected.
        assert_eq!(
            ring.view(early).unwrap().value(&[Value::int(1)]),
            Number::Int(1)
        );
    }

    /// The full quarantine lifecycle at ring level: a panicking engine poisons its
    /// view, reads refuse it, ingest skips it while siblings keep serving, and
    /// `repair_view` rebuilds it from the snapshot to exactly the state a replay
    /// from scratch would produce.
    #[test]
    fn panicked_views_are_quarantined_skipped_and_repaired_from_the_snapshot() {
        use dbring_runtime::fault::{with_fault, FaultOp, FaultPlan, FaultStorage};
        use dbring_runtime::HashViewStorage;

        let mut ring = RingBuilder::new(sales_catalog()).build();
        let healthy = ring
            .create_view("healthy", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        let victim = ring
            .create_view_with::<FaultStorage<HashViewStorage>>(
                "victim",
                ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
            )
            .unwrap();
        ring.apply_batch(&[sale(1, 10, 1), sale(2, 20, 2)]).unwrap();
        let healthy_before = ring.view(healthy).unwrap().table();
        let ingested_before = ring.updates_ingested();

        let failed_batch = [sale(1, 5, 1), sale(3, 7, 2)];
        let err = with_fault(FaultPlan::new(FaultOp::Add, 0), || {
            ring.apply_batch(&failed_batch).unwrap_err()
        });
        match &err {
            Error::Runtime(RuntimeError::EnginePanicked { slot }) => assert_eq!(*slot, victim.0),
            other => panic!("expected EnginePanicked, got {other:?}"),
        }
        // The failed batch landed nowhere: healthy view, snapshot and counter are
        // exactly the pre-batch state.
        assert_eq!(ring.view(healthy).unwrap().table(), healthy_before);
        assert_eq!(ring.updates_ingested(), ingested_before);

        // The victim is quarantined: reads refuse it, enumeration skips it.
        let read_err = ring.view(victim).unwrap_err();
        assert!(matches!(&read_err, Error::ViewPoisoned { view } if view == "victim"));
        assert!(read_err.to_string().contains("quarantined"));
        assert!(matches!(
            ring.view_mut(victim),
            Err(Error::ViewPoisoned { .. })
        ));
        assert_eq!(
            ring.views().map(|v| v.id()).collect::<Vec<_>>(),
            vec![healthy]
        );
        assert_eq!(ring.poisoned_views(), vec![(victim, "victim".to_string())]);

        // Ingest keeps flowing to the healthy view and the snapshot; the victim is
        // skipped on both the batch and the per-update path.
        ring.apply_batch(&[sale(1, 5, 1)]).unwrap();
        ring.apply(&sale(2, 3, 1)).unwrap();
        assert_eq!(
            ring.view(healthy).unwrap().value(&[Value::int(1)]),
            Number::Int(2)
        );

        // Repair rebuilds from the snapshot; the result is exactly a from-scratch
        // replay of everything that ever landed.
        ring.repair_view(victim).unwrap();
        assert!(ring.poisoned_views().is_empty());
        let mut replay = RingBuilder::new(sales_catalog()).build();
        let replay_victim = replay
            .create_view(
                "victim",
                ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
            )
            .unwrap();
        replay
            .apply_all(&[sale(1, 10, 1), sale(2, 20, 2), sale(1, 5, 1), sale(2, 3, 1)])
            .unwrap();
        assert_eq!(
            ring.view(victim).unwrap().table(),
            replay.view(replay_victim).unwrap().table()
        );
        // The repaired view is live again: further updates maintain it.
        ring.apply(&sale(1, 2, 1)).unwrap();
        replay.apply(&sale(1, 2, 1)).unwrap();
        assert_eq!(
            ring.view(victim).unwrap().table(),
            replay.view(replay_victim).unwrap().table()
        );
    }

    /// A commit none of whose touched views can be published (the only reader of
    /// the relation is quarantined) draws no epoch and books no publication cost.
    #[test]
    fn a_commit_with_nothing_to_publish_draws_no_epoch() {
        use dbring_runtime::fault::{with_fault, FaultOp, FaultPlan, FaultStorage};
        use dbring_runtime::HashViewStorage;

        let mut ring = RingBuilder::new(sales_catalog()).build();
        ring.create_view_with::<FaultStorage<HashViewStorage>>(
            "victim",
            ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
        )
        .unwrap();
        let returns = ring
            .create_view("returns", ViewDef::Agca("q[c] := Sum(Returns(c, p) * p)"))
            .unwrap();
        let ret = |c: i64| Update::insert("Returns", vec![Value::int(c), Value::int(1)]);
        let reader = ring.reader();
        ring.apply_batch(&[ret(1)]).unwrap();
        with_fault(FaultPlan::new(FaultOp::Add, 0), || {
            ring.apply_batch(&[sale(1, 5, 1)]).unwrap_err()
        });

        let epoch = reader.snapshot(returns).unwrap().epoch();
        let (ns, stats) = (ring.snapshot_publish_ns(), ring.snapshot_publish_stats());
        // Only the quarantined view reads Sales: these commits publish nothing.
        ring.apply_batch(&[sale(2, 5, 1)]).unwrap();
        ring.apply(&sale(3, 5, 1)).unwrap();
        assert_eq!(ring.updates_ingested(), 3);
        assert_eq!(ring.snapshot_publish_ns(), ns);
        assert_eq!(ring.snapshot_publish_stats(), stats);
        ring.apply_batch(&[ret(2)]).unwrap();
        assert_eq!(reader.snapshot(returns).unwrap().epoch(), epoch + 1);
        assert_eq!(ring.snapshot_publish_stats().commits, stats.commits + 1);
    }

    #[test]
    fn repair_needs_a_current_snapshot_and_a_live_view() {
        let mut ring = RingBuilder::new(sales_catalog())
            .without_base_tracking()
            .build();
        let v = ring
            .create_view("v", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        // Before any ingest the (empty) snapshot is current: repair is a no-op rebuild.
        ring.repair_view(v).unwrap();
        ring.apply(&sale(1, 1, 1)).unwrap();
        let err = ring.repair_view(v).unwrap_err();
        assert!(matches!(err, Error::BackfillUnavailable { .. }));
        let mut tracked = RingBuilder::new(sales_catalog()).build();
        let dropped = tracked
            .create_view("v", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        tracked.drop_view(dropped).unwrap();
        assert!(matches!(
            tracked.repair_view(dropped),
            Err(Error::UnknownView { .. })
        ));
    }

    /// `without_staged_ingest` is a shim that changes nothing: ingest stays staged,
    /// so a batch one view rejects lands in no view, not even in a lower slot that
    /// accepted it.
    #[test]
    fn without_staged_ingest_is_ignored_and_ingest_stays_atomic() {
        let mut ring = RingBuilder::new(sales_catalog())
            .without_staged_ingest()
            .build();
        let orders = ring
            .create_view("orders", ViewDef::Agca("q[c] := Sum(Sales(c, p, n))"))
            .unwrap();
        let revenue = ring
            .create_view(
                "revenue",
                ViewDef::Agca("q[c] := Sum(Sales(c, p, n) * p * n)"),
            )
            .unwrap();
        // Catalog-valid, but the revenue view chokes on the strings in arithmetic
        // positions while the counting view (the lower slot) accepts the tuple.
        let poison = Update::insert(
            "Sales",
            vec![Value::int(1), Value::str("x"), Value::str("y")],
        );
        ring.apply_batch(&[poison]).unwrap_err();
        for id in [orders, revenue] {
            let view = ring.view(id).unwrap();
            assert!(view.table().is_empty(), "the failed batch landed nowhere");
            assert_eq!(view.stats().updates, 0);
        }
    }

    #[test]
    fn every_hosted_plan_audits_clean_of_errors() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let revenue = ring
            .create_view(
                "revenue",
                ViewDef::Sql("SELECT cust, SUM(cents * qty) AS r FROM Sales GROUP BY cust"),
            )
            .unwrap();
        ring.create_view(
            "pairs",
            ViewDef::Agca("q := Sum(Sales(c, p, n) * Sales(c2, p2, n2))"),
        )
        .unwrap();
        let audits = ring.audit();
        assert_eq!(audits.len(), 2);
        for (id, diags) in &audits {
            assert!(
                !diags
                    .iter()
                    .any(|d| d.severity == dbring_compiler::Severity::Error),
                "{id}: {diags:?}"
            );
            assert_eq!(&ring.audit_view(*id).unwrap(), diags);
        }
        assert_eq!(
            ring.view(revenue).unwrap().audit(),
            ring.audit_view(revenue).unwrap()
        );
        ring.drop_view(revenue).unwrap();
        assert!(matches!(
            ring.audit_view(revenue),
            Err(Error::UnknownView { .. })
        ));
        assert_eq!(ring.audit().len(), 1);
    }

    #[test]
    fn view_handles_expose_program_and_metadata() {
        let mut ring = RingBuilder::new(sales_catalog()).build();
        let id = ring
            .create_view(
                "revenue",
                ViewDef::Sql("SELECT cust, SUM(cents * qty) AS r FROM Sales GROUP BY cust"),
            )
            .unwrap();
        ring.apply(&sale(3, 10, 2)).unwrap();
        let view = ring.view(id).unwrap();
        assert_eq!(view.id(), id);
        assert_eq!(view.name(), "revenue");
        assert_eq!(view.engine_name(), "recursive-ivm");
        assert_eq!(view.query().group_by.len(), 1);
        assert!(view.program().describe().contains("on +Sales"));
        assert!(view.nc0c_source().contains("void on_insert_Sales"));
        assert!(view.total_entries() > 0);
        assert!(view.storage_footprint().entries > 0);
        assert_eq!(format!("{}", view.id()), format!("view#{}", id.0));
        assert!(format!("{view:?}").contains("revenue"));
        let mut view = ring.view_mut(id).unwrap();
        assert_eq!(view.name(), "revenue");
        view.reset_stats();
        assert!(format!("{view:?}").contains("revenue"));
        assert_eq!(ring.view(id).unwrap().stats().updates, 0);
    }
}
