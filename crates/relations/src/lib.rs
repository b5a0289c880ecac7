//! The ring of generalized multiset relations (Section 3 of *Incremental Query Evaluation
//! in a Ring of Databases*, Koch, PODS 2010).
//!
//! A *generalized multiset relation* (GMR) is a finite-support map from schema-polymorphic
//! tuples to multiplicities drawn from a ring. Addition generalizes multiset union,
//! multiplication generalizes the natural join, and — because multiplicities may be
//! negative — there is a full additive inverse, which is what makes compositional delta
//! processing possible.
//!
//! The crate provides:
//!
//! * [`value`] — the data values of the active domain (`Adom`), hashable and orderable so
//!   they can key sparse maps, with the seeded key hash ([`value::hash_values`]) every
//!   flat table uses and the order code ([`Value::order_code`]) published snapshots
//!   search on;
//! * [`tuple`](mod@tuple) — records as partial functions `Σ → Adom`; the natural join makes the set of
//!   tuples (minus the inconsistent combinations) a mutilated commutative monoid, so the GMR
//!   ring arises literally as the monoid ring `A[T]` of `dbring-algebra` (Proposition 3.3);
//! * [`gmr`] — the GMR type itself plus relation-flavoured helpers (classical-multiset
//!   checks, projections, schema inspection, pretty-printing);
//! * [`pgmr`] — parametrized GMRs, i.e. the avalanche ring over tuples (Section 3.2), which
//!   algebraizes sideways binding passing;
//! * [`database`] — named relations with declared column orders, plus single-tuple
//!   [`Update`]s (`±R(t⃗)`), the update streams consumed by every
//!   maintenance strategy in the workspace;
//! * [`batch`] — [`DeltaBatch`]: a sequence of updates normalized
//!   into consolidated per-(relation, sign) delta groups, keys in first-arrival order,
//!   the input of the executors' batch paths;
//! * [`intern`] — key grouping for the ingest path: [`KeyPool`](intern::KeyPool)
//!   groups keys where they lie (an update slice, a flat write buffer) without
//!   copying them, in first-seen order, [`BatchNormalizer`] is the scratch-reusing equivalent of
//!   `DeltaBatch::from_updates` built on it, and [`SlotTable`](intern::SlotTable)
//!   is the open-addressing core of every flat table in the workspace;
//! * [`snapshot`] — [`Snapshot`]: a write-optimized positional
//!   mirror of the base relations (one flat table of interned rows per relation,
//!   strings reference-counted by the rows holding them), maintained per update and
//!   materialized into a [`Database`] only when a late-registered view needs a
//!   backfill source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod database;
pub mod gmr;
pub mod intern;
pub mod pgmr;
pub mod snapshot;
pub mod tuple;
pub mod value;

pub use batch::{DeltaBatch, DeltaGroup};
pub use database::{Database, Update};
pub use gmr::{Gmr, GmrExt};
pub use intern::BatchNormalizer;
pub use pgmr::Pgmr;
pub use snapshot::{BaseFootprint, Snapshot};
pub use tuple::Tuple;
pub use value::Value;
