//! # dbring — incremental query evaluation in a ring of databases
//!
//! A from-scratch Rust reproduction of Christoph Koch's *Incremental Query Evaluation in a
//! Ring of Databases* (PODS 2010): the ring of generalized multiset relations, the AGCA
//! aggregate query calculus, recursive delta processing, and a compiler that turns
//! aggregate queries into trigger programs which maintain the query result with a
//! **constant number of arithmetic operations per maintained value per single-tuple
//! update** — no joins, no aggregation operators, no access to the base relations.
//!
//! ## Quick start: a [`Ring`] of standing views
//!
//! The engine object is a [`Ring`]: one catalog, any number of standing views, one
//! ingest path. Updates are validated and normalized **once** and routed only to the
//! views that read the touched relations.
//!
//! ```
//! use dbring::{Catalog, RingBuilder, Value, ViewDef};
//!
//! // Declare the schema and build the engine.
//! let mut catalog = Catalog::new();
//! catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
//! let mut ring = RingBuilder::new(catalog).build();
//!
//! // Any number of standing views over the same stream (SQL subset or AGCA syntax).
//! let revenue = ring.create_view(
//!     "revenue",
//!     ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
//! ).unwrap();
//! let orders = ring.create_view(
//!     "orders",
//!     ViewDef::Sql("SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust"),
//! ).unwrap();
//!
//! // One stream of single-tuple updates; every view stays fresh after each change.
//! ring.insert("Sales", vec![Value::int(1), Value::float(9.5), Value::int(3)]).unwrap();
//! ring.insert("Sales", vec![Value::int(1), Value::float(0.5), Value::int(1)]).unwrap();
//! ring.delete("Sales", vec![Value::int(1), Value::float(0.5), Value::int(1)]).unwrap();
//!
//! assert_eq!(ring.view(revenue).unwrap().value(&[Value::int(1)]).as_f64(), 28.5);
//! assert_eq!(ring.view(orders).unwrap().value(&[Value::int(1)]).as_f64(), 1.0);
//!
//! // Views can be created mid-stream (backfilled from the ring's base snapshot)…
//! let qty = ring.create_view(
//!     "qty",
//!     ViewDef::Sql("SELECT cust, SUM(qty) AS qty FROM Sales GROUP BY cust"),
//! ).unwrap();
//! assert_eq!(ring.view(qty).unwrap().value(&[Value::int(1)]).as_f64(), 3.0);
//! // …and dropped when no longer needed.
//! ring.drop_view(orders).unwrap();
//! ```
//!
//! Batched ingest goes through [`Ring::apply_batch`]: the batch is consolidated into a
//! [`DeltaBatch`] once for the whole ring — with `k` views that is one normalization
//! where `k` independent executors would each redo it (see `EXPERIMENTS.md`, E11).
//!
//! ## Single-view use: a one-view [`Ring`]
//!
//! When one query is all you need, build a ring with one view. A ring built
//! [`without_base_tracking`](RingBuilder::without_base_tracking) is the cheapest
//! configuration: nothing but the view's own maps is stored.
//!
//! ```
//! use dbring::{Catalog, RingBuilder, Value, ViewDef};
//!
//! let mut catalog = Catalog::new();
//! catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
//! let mut ring = RingBuilder::new(catalog).without_base_tracking().build();
//! let revenue = ring.create_view(
//!     "revenue",
//!     ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
//! ).unwrap();
//! ring.insert("Sales", vec![Value::int(1), Value::float(9.5), Value::int(3)]).unwrap();
//! assert_eq!(ring.view(revenue).unwrap().value(&[Value::int(1)]).as_f64(), 28.5);
//! ```
//!
//! Measurement code that wants the trigger program alone, with no catalog check and
//! no routing, runs an [`Executor`] over `compile(..)` directly.
//!
//! ## Crate map
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | abstract algebra (monoid/avalanche rings, polynomials, recursive memoization) | `dbring-algebra` | §1.1, §2 |
//! | generalized multiset relations, databases, updates | `dbring-relations` | §3 |
//! | the AGCA calculus: AST, parsers, evaluator, normalization, factorization | `dbring-agca` | §4–5 |
//! | the delta transform and delta hierarchies | `dbring-delta` | §6 |
//! | the NC0C trigger IR and the recursive IVM compiler | `dbring-compiler` | §7 |
//! | the trigger executor, engine hosting, op counting, baselines | `dbring-runtime` | §1.1, §7 |
//!
//! This facade re-exports the pieces most users need and adds the [`Ring`] engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use dbring_agca::ast::{CmpOp, Expr, Query};
pub use dbring_agca::eval::{eval, eval_all_groups, EvalError};
pub use dbring_agca::parser::{parse_expr, parse_query, ParseError};
pub use dbring_agca::safety::SafetyError;
pub use dbring_agca::sql::parse_sql;
pub use dbring_algebra::{Number, Polynomial, RecursiveMemo, Ring as AlgebraicRing, Semiring};
pub use dbring_compiler::{
    analyze, analyze_plan, analyze_program, audit_program, compile, generate_nc0c, has_errors,
    lower, CompileError, DiagCode, Diagnostic, ExecPlan, LowerError, PlanOp, PlanStatement,
    PlanTrigger, Severity, Slot, SlotExpr, TriggerProgram, UnboundKey,
};
pub use dbring_delta::{delta, Sign, UpdateEvent};
pub use dbring_relations::{
    BaseFootprint, BatchNormalizer, Database, DeltaBatch, DeltaGroup, Gmr, IVal, Interner, KeyPool,
    Tuple, Update, Value,
};
pub use dbring_runtime::fault;
#[doc(hidden)]
pub use dbring_runtime::StorageBackend;
pub use dbring_runtime::{
    boxed_engine, try_boxed_engine, ChangeSet, Changes, ClassicalIvm, EngineRegistry, ExecStats,
    Executor, FaultOp, FaultPlan, FaultStorage, HashViewStorage, InterpretedExecutor,
    MaintenanceStrategy, NaiveReeval, PublishStats, RuntimeError, SnapshotStore, StagedBatch,
    StorageFootprint, ViewEngine, ViewSnapshot, ViewStorage,
};

mod ring;

pub use ring::{Ring, RingBuilder, RingHandle, ViewDef, ViewId, ViewMut, ViewRef};

/// A schema catalog: relation names and their column lists. (Alias of [`Database`]; a
/// catalog is simply a database whose contents are ignored — [`RingBuilder::new`]
/// reads only its declarations. To start an engine from loaded *data*, say so
/// explicitly with [`RingBuilder::from_database`].)
pub type Catalog = Database;

/// Any error that can occur while building or driving a [`Ring`].
///
/// The wrapping variants ([`Error::Parse`], [`Error::Compile`], [`Error::Eval`],
/// [`Error::Runtime`]) expose the wrapped failure through
/// [`std::error::Error::source`], so error reporters can walk the full chain.
#[derive(Clone, Debug)]
pub enum Error {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The query could not be compiled to a trigger program.
    Compile(CompileError),
    /// Evaluating a query with the reference evaluator failed (initialization).
    Eval(EvalError),
    /// Applying an update to a compiled program failed.
    Runtime(RuntimeError),
    /// A view id or name addressed no live view of the ring (it may have been
    /// dropped; ids are never reused).
    UnknownView {
        /// The id (`view#3`) or name that failed to resolve.
        view: String,
    },
    /// A view with this name already lives on the ring (dropping a view frees its
    /// name).
    DuplicateView {
        /// The contested name.
        name: String,
    },
    /// A relation was not declared in the ring's catalog — raised eagerly by
    /// [`Ring::create_view`] for queries over undeclared relations (instead of a late
    /// compile error) and by the ring's ingest path for updates to undeclared
    /// relations.
    UnknownRelation {
        /// The undeclared relation.
        relation: String,
        /// The view whose definition referenced it (`None` when raised by ingest).
        view: Option<String>,
    },
    /// A view was created after updates were ingested on a ring built
    /// [`without_base_tracking`](RingBuilder::without_base_tracking): there is no
    /// current snapshot to backfill it from.
    BackfillUnavailable {
        /// The view that could not be created.
        view: String,
    },
    /// The view's engine panicked during ingest and was quarantined: its tables can
    /// no longer be trusted, so reads refuse to serve them and ingest skips the view.
    /// [`Ring::repair_view`] rebuilds it from the base snapshot.
    ViewPoisoned {
        /// The quarantined view's name.
        view: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::UnknownView { view } => write!(f, "no live view {view} on this ring"),
            Error::DuplicateView { name } => {
                write!(f, "a view named {name} already exists on this ring")
            }
            Error::UnknownRelation {
                relation,
                view: Some(view),
            } => write!(
                f,
                "view {view} reads relation {relation}, which the ring's catalog never declared"
            ),
            Error::UnknownRelation {
                relation,
                view: None,
            } => write!(
                f,
                "update targets relation {relation}, which the ring's catalog never declared"
            ),
            Error::BackfillUnavailable { view } => write!(
                f,
                "cannot create view {view}: base-snapshot tracking is disabled and updates \
                 were already ingested, so there is nothing to backfill it from"
            ),
            Error::ViewPoisoned { view } => write!(
                f,
                "view {view} is quarantined: its engine panicked during ingest, so its \
                 tables cannot be trusted until Ring::repair_view rebuilds it"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Eval(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::UnknownView { .. }
            | Error::DuplicateView { .. }
            | Error::UnknownRelation { .. }
            | Error::BackfillUnavailable { .. }
            | Error::ViewPoisoned { .. } => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}
impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}
impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        Error::Eval(e)
    }
}
impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Self {
        Error::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("C", &["cid", "nation"]).unwrap();
        c
    }

    /// The single-view configuration: a ring over `catalog` hosting one view.
    fn solo(catalog: &Catalog, def: ViewDef<'_>) -> Result<(Ring, ViewId), Error> {
        let mut ring = RingBuilder::new(catalog.clone()).build();
        let id = ring.create_view("q", def)?;
        Ok((ring, id))
    }

    fn customer(i: i64, nations: &[&str]) -> Update {
        let nation = nations[i as usize % nations.len()];
        Update::insert("C", vec![Value::int(i), Value::str(nation)])
    }

    #[test]
    fn sql_and_agca_constructors_agree() {
        let catalog = customer_catalog();
        let (mut via_sql, sql) = solo(
            &catalog,
            ViewDef::Sql(
                "SELECT C1.cid, SUM(1) FROM C C1, C C2 WHERE C1.nation = C2.nation GROUP BY C1.cid",
            ),
        )
        .unwrap();
        let (mut via_agca, agca) =
            solo(&catalog, ViewDef::Agca("q[c] := Sum(C(c, n) * C(c2, n))")).unwrap();
        for i in 0..20 {
            let u = customer(i, &["FR", "DE"]);
            via_sql.apply(&u).unwrap();
            via_agca.apply(&u).unwrap();
        }
        let via_sql = via_sql.view(sql).unwrap();
        assert_eq!(via_sql.table(), via_agca.view(agca).unwrap().table());
        assert_eq!(via_sql.value(&[Value::int(0)]), Number::Int(10));
    }

    #[test]
    fn initialization_from_existing_database() {
        let mut db = customer_catalog();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        db.insert("C", vec![Value::int(2), Value::str("FR")])
            .unwrap();
        let mut ring = RingBuilder::from_database(db).build();
        let id = ring
            .create_view("q", ViewDef::Agca("q[c] := Sum(C(c, n) * C(c2, n))"))
            .unwrap();
        let view = ring.view(id).unwrap();
        assert_eq!(view.value(&[Value::int(1)]), Number::Int(2));
        assert_eq!(view.table().len(), 2);
        assert!(view.total_entries() >= 2);
    }

    #[test]
    fn catalog_contents_are_ignored_by_the_single_view_facade() {
        // A loaded database handed to `RingBuilder::new` contributes only its schema;
        // the view starts empty unless the ring is built `from_database`.
        let mut db = customer_catalog();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        let (ring, id) = solo(&db, ViewDef::Agca("q[c] := Sum(C(c, n))")).unwrap();
        assert!(ring.view(id).unwrap().table().is_empty());
        assert_eq!(ring.base_snapshot().unwrap().total_support(), 0);
    }

    #[test]
    fn errors_are_propagated_and_displayed() {
        let catalog = customer_catalog();
        assert!(matches!(
            solo(&catalog, ViewDef::Sql("SELECT nope FROM C")),
            Err(Error::Parse(_))
        ));
        // An undeclared relation is a dedicated error (the Catalog = Database alias
        // footgun), not a late compile error.
        let err = solo(&catalog, ViewDef::Agca("q := Sum(Z(x))")).unwrap_err();
        assert!(matches!(err, Error::UnknownRelation { .. }));
        assert!(err.to_string().contains("Z"));
        // Genuine compile failures still surface as compile errors.
        assert!(matches!(
            solo(&catalog, ViewDef::Agca("q[x] := Sum((x = 1))")),
            Err(Error::Compile(_))
        ));
        let (mut ring, _) = solo(&catalog, ViewDef::Agca("q[c] := Sum(C(c, n))")).unwrap();
        assert!(matches!(
            ring.insert("C", vec![Value::int(1)]),
            Err(Error::Runtime(_))
        ));
    }

    #[test]
    fn error_sources_expose_the_wrapped_failure_chain() {
        use std::error::Error as StdError;
        let catalog = customer_catalog();
        let parse = solo(&catalog, ViewDef::Sql("SELECT nope FROM C")).unwrap_err();
        let source = parse.source().expect("parse errors carry a source");
        assert_eq!(source.to_string(), format!("{parse}"));
        let compile = solo(&catalog, ViewDef::Agca("q[x] := Sum((x = 1))")).unwrap_err();
        assert!(compile.source().is_some());
        let (mut ring, _) = solo(&catalog, ViewDef::Agca("q[c] := Sum(C(c, n))")).unwrap();
        let runtime = ring.insert("C", vec![Value::int(1)]).unwrap_err();
        let source = runtime.source().expect("runtime errors carry a source");
        assert!(source.to_string().contains("trigger expects"));
        // Structural ring errors have no inner cause.
        let dup = ring
            .create_view("q", ViewDef::Agca("q := Sum(C(c, n))"))
            .unwrap_err();
        assert!(matches!(dup, Error::DuplicateView { .. }));
        assert!(dup.source().is_none());
    }

    #[test]
    fn irrelevant_updates_are_ignored_by_the_single_view_facade() {
        // A declared relation the view does not read is routed to no view (the ring
        // only tracks it in its base snapshot); the executor underneath ignores any
        // relation it has no trigger for, declared or not.
        let mut catalog = customer_catalog();
        catalog.declare("Unread", &["x"]).unwrap();
        let (mut ring, id) = solo(&catalog, ViewDef::Agca("q[c] := Sum(C(c, n))")).unwrap();
        ring.insert("Unread", vec![Value::int(1)]).unwrap();
        let view = ring.view(id).unwrap();
        assert!(view.table().is_empty());
        assert_eq!(view.stats().updates, 0);
        let mut exec = Executor::new(view.program().clone());
        exec.apply(&Update::insert("Other", vec![Value::int(1)]))
            .unwrap();
        assert_eq!(exec.stats().updates, 0);
    }

    #[test]
    fn apply_batch_matches_apply_all_and_apply_all_reports_the_failing_index() {
        let catalog = customer_catalog();
        let text = "q[c] := Sum(C(c, n) * C(c2, n))";
        let updates: Vec<Update> = (0..18)
            .map(|i| {
                Update::insert(
                    "C",
                    vec![
                        Value::int(i % 6),
                        Value::str(["FR", "DE", "IT"][(i % 3) as usize]),
                    ],
                )
            })
            .collect();
        let (mut per_tuple, id) = solo(&catalog, ViewDef::Agca(text)).unwrap();
        per_tuple.apply_all(&updates).unwrap();
        let (mut batched, _) = solo(&catalog, ViewDef::Agca(text)).unwrap();
        batched.apply_batch(&updates).unwrap();
        let expected = per_tuple.view(id).unwrap().table();
        assert_eq!(batched.view(id).unwrap().table(), expected);
        // The pre-normalized entry point behaves identically.
        let (mut prebuilt, _) = solo(&catalog, ViewDef::Agca(text)).unwrap();
        prebuilt
            .apply_delta_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        assert_eq!(prebuilt.view(id).unwrap().table(), expected);
        // apply_all is not atomic; the error pinpoints the failing update (a string
        // in an arithmetic position, which only the trigger can reject).
        let (mut view, id) = solo(&catalog, ViewDef::Agca("q[c] := Sum(C(c, n) * n)")).unwrap();
        let bad = vec![
            Update::insert("C", vec![Value::int(1), Value::int(5)]),
            Update::insert("C", vec![Value::int(2), Value::str("FR")]),
        ];
        let err = view.apply_all(&bad).unwrap_err();
        assert!(matches!(
            err,
            Error::Runtime(RuntimeError::AtUpdate { index: 1, .. })
        ));
        assert_eq!(view.view(id).unwrap().stats().updates, 1);
    }

    #[test]
    fn accessors_expose_query_program_and_stats() {
        let (mut ring, id) = solo(
            &customer_catalog(),
            ViewDef::Agca("q[c] := Sum(C(c, n) * C(c2, n))"),
        )
        .unwrap();
        let view = ring.view(id).unwrap();
        assert_eq!(view.query().group_by, vec!["c"]);
        assert!(view.program().describe().contains("on +C"));
        assert!(view.nc0c_source().contains("void on_insert_C"));
        ring.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        assert_eq!(ring.view(id).unwrap().stats().updates, 1);
        assert!(ring.view(id).unwrap().total_entries() > 0);
        ring.view_mut(id).unwrap().reset_stats();
        assert_eq!(ring.view(id).unwrap().stats().updates, 0);
    }

    /// Regression: a ring must host a genuinely typed `Executor<S>` for *any*
    /// `ViewStorage` implementation, not silently substitute the built-in storage.
    /// `Ring::create_view_with` is the way to host one.
    #[test]
    fn the_facade_honors_custom_storage_backends() {
        use dbring_algebra::Number as N;

        /// A delegating wrapper around the hash storage: a distinct *type*, standing
        /// in for an out-of-tree storage.
        #[derive(Clone, Debug)]
        struct CustomStorage(HashViewStorage);

        impl ViewStorage for CustomStorage {
            fn new(key_arity: usize) -> Self {
                CustomStorage(HashViewStorage::new(key_arity))
            }
            fn key_arity(&self) -> usize {
                self.0.key_arity()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn get(&self, key: &[Value]) -> N {
                self.0.get(key)
            }
            fn add(&mut self, key: Vec<Value>, delta: N) {
                self.0.add(key, delta)
            }
            fn add_ref(&mut self, key: &[Value], delta: N) -> N {
                self.0.add_ref(key, delta)
            }
            fn restore(&mut self, key: &[Value], value: N) {
                self.0.restore(key, value)
            }
            fn register_index(&mut self, positions: Vec<usize>) {
                self.0.register_index(positions)
            }
            fn for_each(&self, visit: impl FnMut(&[Value], N)) {
                self.0.for_each(visit)
            }
            fn for_each_slice(
                &self,
                positions: &[usize],
                values: &[Value],
                visit: impl FnMut(&[Value], N),
            ) {
                self.0.for_each_slice(positions, values, visit)
            }
            fn footprint(&self) -> StorageFootprint {
                self.0.footprint()
            }
        }

        let mut ring = RingBuilder::new(customer_catalog()).build();
        let id = ring
            .create_view_with::<CustomStorage>("q", ViewDef::Agca("q[c] := Sum(C(c, n))"))
            .unwrap();
        ring.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        assert_eq!(
            ring.view(id).unwrap().value(&[Value::int(1)]),
            Number::Int(1)
        );
        // A repair rebuilds the view on the same typed storage.
        ring.repair_view(id).unwrap();
        assert_eq!(
            ring.view(id).unwrap().value(&[Value::int(1)]),
            Number::Int(1)
        );
    }
}
