//! The object-safe engine interface a hosted view runs behind, and the engine
//! factory.
//!
//! A ring-of-views engine (the `dbring::Ring` facade) hosts *many* standing views
//! over one update stream. The views are heterogeneous — different compiled programs,
//! and on occasion a typed storage (`Ring::create_view_with::<S>`) — so the host
//! cannot be generic over one concrete executor type. [`ViewEngine`] is the
//! object-safe contract that makes a compiled, runnable view a *value*: everything
//! the host needs to drive maintenance
//! (staged per-update and batched application, initialization from a snapshot) and
//! serve reads (point lookups, tables, work counters, footprints, the program itself)
//! — behind `Box<dyn ViewEngine>`, cloneable and inspectable. The lowered
//! [`Executor`] over any [`ViewStorage`] is its implementation.
//!
//! [`boxed_engine`] / [`try_boxed_engine`] build a boxed lowered executor on
//! [`HashViewStorage`](crate::storage::HashViewStorage).
//!
//! The difference from [`MaintenanceStrategy`](crate::strategy::MaintenanceStrategy):
//! a strategy is the *measurement* interface the experiments compare recursive IVM
//! against its baselines through (it covers the database-retaining baselines, erases
//! errors to `String`, and exposes only results), while `ViewEngine` is the *hosting*
//! interface (typed [`RuntimeError`]s, staged normalized-batch application, snapshot
//! initialization, program access for code generation). The baselines are
//! deliberately not `ViewEngine`s — they retain the base database, which a ring
//! maintains once for all views.

use std::collections::BTreeMap;

use dbring_agca::eval::EvalError;
use dbring_algebra::Number;
use dbring_compiler::{Diagnostic, LowerError, TriggerProgram};
use dbring_relations::{Database, DeltaBatch, Update, Value};

use crate::executor::{ExecStats, Executor, RuntimeError, StagedBatch};
use crate::snapshot::ChangeSet;
use crate::storage::{StorageFootprint, ViewStorage};

/// The object-safe interface of one compiled, runnable view: what an engine host (a
/// ring of views, an experiment harness) needs to drive maintenance and serve reads,
/// independent of the concrete executor and storage behind it.
///
/// Implemented by the lowered [`Executor`] over every [`ViewStorage`]; obtain boxed
/// instances from [`boxed_engine`]. `Box<dyn ViewEngine>` is `Clone`, so hosts
/// composed of boxed engines stay cheaply cloneable for experiments that fork a
/// loaded state.
pub trait ViewEngine: std::fmt::Debug + Send {
    /// The engine's name: the executor family, `"recursive-ivm"`.
    fn engine_name(&self) -> &'static str;

    /// The compiled trigger program this engine runs (inspectable, NC0C-generatable).
    fn program(&self) -> &TriggerProgram;

    /// Runs the static plan auditor over this engine's program: re-lowers it and
    /// returns every [`Diagnostic`] the analysis pass pipeline finds (empty means
    /// clean). Engines whose program no longer lowers report `DB000 LoweringFailed`
    /// rather than silently auditing clean. This is a cold-path introspection call —
    /// auditing re-runs lowering, so don't put it on a per-update path.
    fn audit(&self) -> Vec<Diagnostic> {
        dbring_compiler::audit_program(self.program())
    }

    /// Stages an already-normalized [`DeltaBatch`] (one dispatch per
    /// `(relation, sign)` group, weighted firing where the trigger admits it):
    /// applies it while logging the pre-image of every write, returning the
    /// [`StagedBatch`] token the host later passes to
    /// [`commit_staged`](ViewEngine::commit_staged) or
    /// [`abort_staged`](ViewEngine::abort_staged). On `Err` the engine has already
    /// rolled itself back bit-exactly. Tokens are engine-specific: return one only to
    /// the engine that produced it.
    fn stage_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<StagedBatch, RuntimeError>;

    /// Stages one single-tuple update — the per-update counterpart of
    /// [`stage_batch`](ViewEngine::stage_batch), with the same `Err` ⇒ rolled-back
    /// contract (covering partial |multiplicity| > 1 firings). Updates to relations
    /// the program has no trigger for are ignored; zero-multiplicity updates are
    /// explicit no-ops.
    fn stage_update(&mut self, update: &Update) -> Result<StagedBatch, RuntimeError>;

    /// Makes a staged batch permanent by releasing its undo log. Cannot fail.
    fn commit_staged(&mut self, staged: StagedBatch);

    /// [`commit_staged`](ViewEngine::commit_staged) for a host that publishes
    /// snapshots: also reports into `changed` every output key the staged writes
    /// touched (any order, repeats allowed) — the undo log's entries for the output
    /// map, so nothing is tracked twice.
    fn commit_staged_reporting(&mut self, staged: StagedBatch, changed: &mut ChangeSet);

    /// Rolls a staged batch back: tables and stats return bit-exactly to the
    /// pre-stage state.
    fn abort_staged(&mut self, staged: StagedBatch);

    /// Loads every materialized view from a non-empty starting database by evaluating
    /// its defining query (the initialization step of Section 1.1). The database is
    /// not retained.
    fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError>;

    /// The output value for one group key (zero if absent).
    fn output_value(&self, key: &[Value]) -> Number;

    /// The full output table, sorted by group key.
    fn output_table(&self) -> BTreeMap<Vec<Value>, Number>;

    /// Visits every `(key, value)` group of the output table once, in any order —
    /// the export a snapshot is built from
    /// ([`ViewSnapshot::from_export`](crate::ViewSnapshot::from_export)), straight
    /// from storage with no intermediate table.
    fn for_each_output(&self, visit: &mut dyn FnMut(&[Value], Number));

    /// Number of groups in the output table — what
    /// [`for_each_output`](ViewEngine::for_each_output) visits.
    fn output_len(&self) -> usize;

    /// Work counters accumulated so far.
    fn stats(&self) -> ExecStats;

    /// Resets the work counters.
    fn reset_stats(&mut self);

    /// Total entries across the whole view hierarchy.
    fn total_entries(&self) -> usize;

    /// Entry/index-entry counts of the whole view hierarchy (the memory proxy).
    fn storage_footprint(&self) -> StorageFootprint;

    /// Clones the engine behind the object interface (`Box<dyn ViewEngine>: Clone`
    /// is built on this).
    fn boxed_clone(&self) -> Box<dyn ViewEngine>;
}

impl Clone for Box<dyn ViewEngine> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

impl<S: ViewStorage + Send + 'static> ViewEngine for Executor<S> {
    fn engine_name(&self) -> &'static str {
        "recursive-ivm"
    }

    fn program(&self) -> &TriggerProgram {
        self.program()
    }

    fn stage_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<StagedBatch, RuntimeError> {
        self.stage_batch(batch)
    }

    fn stage_update(&mut self, update: &Update) -> Result<StagedBatch, RuntimeError> {
        self.stage_update(update)
    }

    fn commit_staged(&mut self, staged: StagedBatch) {
        self.commit_staged(staged)
    }

    fn commit_staged_reporting(&mut self, staged: StagedBatch, changed: &mut ChangeSet) {
        staged.undo.report_keys_of(self.program().output, changed);
        self.commit_staged(staged);
    }

    fn abort_staged(&mut self, staged: StagedBatch) {
        self.abort_staged(staged)
    }

    fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError> {
        self.initialize_from(db)
    }

    fn output_value(&self, key: &[Value]) -> Number {
        self.output_value(key)
    }

    fn output_table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.output_table()
    }

    fn for_each_output(&self, visit: &mut dyn FnMut(&[Value], Number)) {
        self.output().for_each(|key, value| visit(key, value))
    }

    fn output_len(&self) -> usize {
        self.output().len()
    }

    fn stats(&self) -> ExecStats {
        self.stats()
    }

    fn reset_stats(&mut self) {
        self.reset_stats()
    }

    fn total_entries(&self) -> usize {
        self.total_entries()
    }

    fn storage_footprint(&self) -> StorageFootprint {
        self.storage_footprint()
    }

    fn boxed_clone(&self) -> Box<dyn ViewEngine> {
        Box::new(self.clone())
    }
}

/// A storage selector with one value. [`boxed_engine`] ignores it; it is kept only so
/// callers of the two-argument `boxed_engine` keep compiling.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageBackend {
    /// [`HashViewStorage`](crate::storage::HashViewStorage), the one storage.
    Hash,
}

/// Builds a boxed lowered-executor engine on
/// [`HashViewStorage`](crate::storage::HashViewStorage). This is the constructor
/// engine hosts use. The second argument is ignored (see
/// [`StorageBackend`]).
///
/// # Panics
/// Panics if the program does not lower (impossible for programs produced by
/// [`dbring_compiler::compile`](dbring_compiler::compile()), which validates); use [`try_boxed_engine`] for
/// hand-built programs that may not.
pub fn boxed_engine(program: TriggerProgram, _backend: StorageBackend) -> Box<dyn ViewEngine> {
    try_boxed_engine(program).expect("compiled trigger programs always lower")
}

/// Fallible [`boxed_engine`]: surfaces lowering problems as a [`LowerError`].
pub fn try_boxed_engine(program: TriggerProgram) -> Result<Box<dyn ViewEngine>, LowerError> {
    Ok(Box::new(Executor::try_new(program)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;
    use dbring_compiler::compile;

    fn sum_program() -> TriggerProgram {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        compile(&catalog, &parse_query("q := Sum(R(x))").unwrap()).unwrap()
    }

    /// Stages and commits the insertion of `R(x)`.
    fn insert(engine: &mut dyn ViewEngine, x: i64) {
        let staged = engine
            .stage_update(&Update::insert("R", vec![Value::int(x)]))
            .unwrap();
        engine.commit_staged(staged);
    }

    #[test]
    fn boxed_engines_run_and_report_on_every_backend() {
        let mut engine = boxed_engine(sum_program(), StorageBackend::Hash);
        assert_eq!(engine.engine_name(), "recursive-ivm");
        insert(engine.as_mut(), 3);
        let updates = [
            Update::insert("R", vec![Value::int(4)]),
            Update::insert("R", vec![Value::int(4)]),
            Update::delete("R", vec![Value::int(3)]),
        ];
        let staged = engine
            .stage_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        engine.commit_staged(staged);
        assert_eq!(engine.output_value(&[]), Number::Int(2));
        assert_eq!(engine.output_table().len(), 1);
        assert!(engine.stats().updates >= 3);
        assert!(engine.total_entries() > 0);
        assert!(engine.storage_footprint().entries > 0);
        assert!(engine.program().triggers.len() >= 2);
        engine.reset_stats();
        assert_eq!(engine.stats(), ExecStats::default());
    }

    #[test]
    fn boxed_engines_clone_independently() {
        let mut engine = boxed_engine(sum_program(), StorageBackend::Hash);
        insert(engine.as_mut(), 1);
        let mut fork = engine.clone();
        insert(fork.as_mut(), 2);
        assert_eq!(engine.output_value(&[]), Number::Int(1));
        assert_eq!(fork.output_value(&[]), Number::Int(2));
    }

    #[test]
    fn initialization_through_the_object_interface() {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.insert("R", vec![Value::int(1)]).unwrap();
        db.insert("R", vec![Value::int(2)]).unwrap();
        let mut engine = boxed_engine(sum_program(), StorageBackend::Hash);
        engine.initialize_from(&db).unwrap();
        assert_eq!(engine.output_value(&[]), Number::Int(2));
    }

    #[test]
    fn engines_audit_through_the_object_interface() {
        let engine = boxed_engine(sum_program(), StorageBackend::Hash);
        assert!(
            !dbring_compiler::analysis::has_errors(&engine.audit()),
            "compiled programs lint clean of errors: {:?}",
            engine.audit()
        );
        // A program that no longer lowers reports DB000 instead of silence (the
        // trait's default `audit` is exactly this call on the engine's program).
        let mut corrupted = sum_program();
        corrupted.triggers[0].statements[0].target = 99;
        let diags = dbring_compiler::audit_program(&corrupted);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, dbring_compiler::DiagCode::LoweringFailed);
    }

    #[test]
    fn try_boxed_engine_surfaces_lowering_errors() {
        let mut program = sum_program();
        program.triggers[0].statements[0].target = 99;
        assert!(try_boxed_engine(program).is_err());
        assert!(try_boxed_engine(sum_program()).is_ok());
    }
}
