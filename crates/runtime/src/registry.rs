//! The executor-hosting registry: many boxed [`ViewEngine`]s behind one ingest path,
//! with per-relation routing.
//!
//! One update stream maintaining a whole set of standing views is the paper's actual
//! operating regime (and DBToaster's: one generated program hosting every maintained
//! map). The registry is that regime's runtime core, kept deliberately below the
//! parsing/compiling facade: it knows nothing about queries or catalogs, only about
//! compiled engines and the relations their trigger programs read.
//!
//! * **Registration** derives each engine's *read set* from its program's triggers and
//!   indexes it in a routing table: relation name → the slots of the engines with a
//!   trigger on that relation.
//! * **Per-update dispatch** ([`EngineRegistry::apply`]) routes a single-tuple update
//!   to exactly the engines that read its relation — an update a view does not read
//!   costs that view nothing, not even a dispatch lookup.
//! * **Shared-batch dispatch** ([`EngineRegistry::apply_batch`]) is the amortization
//!   seam: the caller normalizes a [`DeltaBatch`] **once** and the registry fans the
//!   borrowed batch out to the union of the touched relations' readers. With `k` views
//!   over one stream this does one consolidation (bucket + sort + net) where `k`
//!   independent views would each redo it.
//! * **Ingest on the calling thread**: every engine stages, commits or aborts on the
//!   thread that called [`EngineRegistry::apply_batch`]. A trigger does constant work
//!   per update (about a microsecond per update across a six-view dashboard), far too
//!   little to pay for spawning and joining a pool per batch, and a view written on
//!   another core makes the caller's next reads of it miss its own cache.
//! * **Failure atomicity** (stage → commit): dispatch stages the batch on every
//!   touched engine — each engine applies it while logging pre-images — and commits
//!   only if *all* stages succeed. Any failure aborts every stage, so a failed
//!   dispatch leaves every engine's tables and stats bit-identical to before the
//!   call, and the deterministic lowest-slot error is reported. Engine panics are
//!   caught ([`RuntimeError::EnginePanicked`]) and the panicking slot is
//!   **quarantined**: its state can no longer be trusted, so ingest skips it and the
//!   host is expected to rebuild it ([`EngineRegistry::replace`]) from a base
//!   snapshot. Staging is the only dispatch: there is no unlogged path.
//! * **Change reporting** ([`EngineRegistry::set_change_tracking`]): a commit's undo
//!   log already names every output key the batch wrote; a host that publishes
//!   snapshots has each commit hand those keys out
//!   ([`EngineRegistry::take_changes`]) instead of re-exporting whole tables.
//!
//! Slots are tombstoned on removal and never reused, so a stale slot id can only miss
//! (yield `None`), never silently address a different engine.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dbring_relations::{DeltaBatch, Update};

use crate::engine::ViewEngine;
use crate::executor::{RuntimeError, StagedBatch};
use crate::snapshot::ChangeSet;

/// A slot-addressed host for boxed view engines with per-relation update routing.
///
/// See the [module docs](self) for the dispatch semantics. The registry is `Clone`
/// (engines clone behind the object interface), so a loaded multi-view state can be
/// forked for experiments.
#[derive(Clone, Debug, Default)]
pub struct EngineRegistry {
    /// Engine slots; `None` marks a removed engine (slots are never reused).
    slots: Vec<Option<RegisteredEngine>>,
    /// Relation name → slots of the engines whose programs read it (ascending).
    routing: HashMap<String, Vec<u32>>,
    /// Number of live (non-tombstoned) slots.
    live: usize,
    /// When true, every commit records per engine the output keys it wrote (see
    /// [`EngineRegistry::take_changes`]).
    track_changes: bool,
}

#[derive(Clone, Debug)]
struct RegisteredEngine {
    engine: Box<dyn ViewEngine>,
    /// The relations the engine's program has triggers on (sorted, deduplicated) —
    /// kept so removal can clean the routing table without re-deriving it.
    relations: Vec<String>,
    /// Quarantined: the engine panicked mid-dispatch, so its tables can no longer be
    /// trusted. Ingest skips poisoned slots; [`EngineRegistry::replace`] clears the
    /// flag with a rebuilt engine.
    poisoned: bool,
    /// The output keys the engine's last commit wrote, while change tracking is on
    /// and until the host takes them.
    changed: Option<ChangeSet>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// Number of live engines.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no engines are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Registers an engine and returns its slot id. The engine's read set is derived
    /// from its program's triggers and indexed for routing.
    pub fn register(&mut self, engine: Box<dyn ViewEngine>) -> u32 {
        let mut relations: Vec<String> = engine
            .program()
            .triggers
            .iter()
            .map(|t| t.relation.clone())
            .collect();
        relations.sort_unstable();
        relations.dedup();
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 views");
        for relation in &relations {
            self.routing.entry(relation.clone()).or_default().push(slot);
        }
        self.slots.push(Some(RegisteredEngine {
            engine,
            relations,
            poisoned: false,
            changed: None,
        }));
        self.live += 1;
        slot
    }

    /// Turns change tracking on or off (off by default). While on, every staged
    /// commit also records, per engine, the output keys it wrote — the undo log's
    /// entries for the output map, so nothing is tracked twice — for a host that
    /// publishes snapshots to pick up with [`EngineRegistry::take_changes`].
    pub fn set_change_tracking(&mut self, on: bool) {
        self.track_changes = on;
    }

    /// Takes the output keys the last commit wrote in `slot`. `None` means tracking
    /// was off, or no commit reached the slot since the keys were last taken.
    pub fn take_changes(&mut self, slot: u32) -> Option<ChangeSet> {
        self.slots.get_mut(slot as usize)?.as_mut()?.changed.take()
    }

    /// Whether the engine in `slot` is quarantined (it panicked during dispatch and
    /// its state can no longer be trusted). Unknown or removed slots report `false`.
    pub fn is_poisoned(&self, slot: u32) -> bool {
        self.slots
            .get(slot as usize)
            .and_then(|e| e.as_ref())
            .is_some_and(|r| r.poisoned)
    }

    /// The quarantined slots, in ascending order.
    pub fn poisoned_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| match e {
                Some(r) if r.poisoned => Some(slot as u32),
                _ => None,
            })
            .collect()
    }

    /// Replaces the engine in a live slot with a rebuilt one and clears its
    /// quarantine flag, returning the old engine (`None` if the slot is unknown or
    /// removed). The replacement inherits the slot's routing, so it must read the
    /// same relations — the repair path rebuilds from the same compiled query, which
    /// guarantees that.
    pub fn replace(
        &mut self,
        slot: u32,
        engine: Box<dyn ViewEngine>,
    ) -> Option<Box<dyn ViewEngine>> {
        let registered = self.slots.get_mut(slot as usize)?.as_mut()?;
        let old = std::mem::replace(&mut registered.engine, engine);
        registered.poisoned = false;
        registered.changed = None;
        Some(old)
    }

    /// Removes an engine, returning it (its final state remains readable), or `None`
    /// if the slot is unknown or already removed. The slot is tombstoned, not reused.
    pub fn remove(&mut self, slot: u32) -> Option<Box<dyn ViewEngine>> {
        let registered = self.slots.get_mut(slot as usize)?.take()?;
        for relation in &registered.relations {
            if let Some(readers) = self.routing.get_mut(relation) {
                readers.retain(|&s| s != slot);
                if readers.is_empty() {
                    self.routing.remove(relation);
                }
            }
        }
        self.live -= 1;
        Some(registered.engine)
    }

    /// The engine in a slot (`None` if unknown or removed).
    pub fn engine(&self, slot: u32) -> Option<&dyn ViewEngine> {
        self.slots
            .get(slot as usize)?
            .as_ref()
            .map(|r| r.engine.as_ref())
    }

    /// Mutable access to the engine in a slot.
    pub fn engine_mut(&mut self, slot: u32) -> Option<&mut Box<dyn ViewEngine>> {
        self.slots
            .get_mut(slot as usize)?
            .as_mut()
            .map(|r| &mut r.engine)
    }

    /// Iterates the live engines as `(slot, engine)` pairs, in slot order.
    pub fn engines(&self) -> impl Iterator<Item = (u32, &dyn ViewEngine)> {
        self.slots.iter().enumerate().filter_map(|(slot, r)| {
            r.as_ref()
                .map(|r| (slot as u32, r.engine.as_ref() as &dyn ViewEngine))
        })
    }

    /// The slots of the engines whose programs read `relation` (empty if none do).
    pub fn readers_of(&self, relation: &str) -> &[u32] {
        self.routing
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Applies one single-tuple update to exactly the engines that read its relation,
    /// returning how many engines fired. Updates to relations no engine reads return
    /// `Ok(0)` without touching anything; quarantined engines are skipped.
    ///
    /// **Atomic across engines**: the update is staged on every reader in slot order
    /// and committed only if all stages succeed. On failure every stage is aborted, so
    /// a rejected update lands nowhere, and the first (lowest-slot) error is returned.
    /// A panic in an engine quarantines that slot and surfaces as
    /// [`RuntimeError::EnginePanicked`].
    pub fn apply(&mut self, update: &Update) -> Result<u32, RuntimeError> {
        if update.multiplicity == 0 {
            return Ok(0);
        }
        let readers: Vec<u32> = match self.routing.get(update.relation.as_str()) {
            Some(readers) => readers
                .iter()
                .copied()
                .filter(|&slot| {
                    !self.slots[slot as usize]
                        .as_ref()
                        .expect("routing only lists live slots")
                        .poisoned
                })
                .collect(),
            None => return Ok(0),
        };
        self.stage_all(&readers, |engine| engine.stage_update(update))
    }

    /// Stage → commit dispatch over `slots`: stage each engine in slot order,
    /// short-circuiting on the first failure (which is therefore the lowest-slot
    /// failure), then [settle](Self::settle) the staged tokens.
    fn stage_all(
        &mut self,
        slots: &[u32],
        mut stage: impl FnMut(&mut dyn ViewEngine) -> Result<StagedBatch, RuntimeError>,
    ) -> Result<u32, RuntimeError> {
        let mut staged: Vec<(u32, StagedBatch)> = Vec::with_capacity(slots.len());
        let mut failure: Option<RuntimeError> = None;
        for &slot in slots {
            let registered = self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots");
            match catch_unwind(AssertUnwindSafe(|| stage(registered.engine.as_mut()))) {
                Ok(Ok(token)) => staged.push((slot, token)),
                Ok(Err(err)) => {
                    failure = Some(err);
                    break;
                }
                Err(_) => {
                    registered.poisoned = true;
                    failure = Some(RuntimeError::EnginePanicked { slot });
                    break;
                }
            }
        }
        self.settle(staged, failure)
    }

    /// Ends a stage → commit dispatch: commits every staged token if nothing failed
    /// (returning how many engines fired), aborts them all otherwise. While change
    /// tracking is on, each commit records the output keys the engine wrote.
    fn settle(
        &mut self,
        staged: Vec<(u32, StagedBatch)>,
        failure: Option<RuntimeError>,
    ) -> Result<u32, RuntimeError> {
        if let Some(err) = failure {
            self.abort_staged_tokens(staged);
            return Err(err);
        }
        let fired = staged.len() as u32;
        for (slot, token) in staged {
            let registered = self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots");
            if self.track_changes {
                let mut changed = ChangeSet::new();
                registered
                    .engine
                    .commit_staged_reporting(token, &mut changed);
                registered.changed = Some(changed);
            } else {
                registered.engine.commit_staged(token);
            }
        }
        Ok(fired)
    }

    /// Aborts staged tokens in reverse stage order, restoring each engine to its
    /// pre-dispatch state. An abort that itself panics quarantines the slot (the
    /// rollback did not complete, so the tables are in an unknown state).
    fn abort_staged_tokens(&mut self, staged: Vec<(u32, StagedBatch)>) {
        for (slot, token) in staged.into_iter().rev() {
            let registered = self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots");
            if catch_unwind(AssertUnwindSafe(|| registered.engine.abort_staged(token))).is_err() {
                registered.poisoned = true;
            }
        }
    }

    /// Fans one already-normalized [`DeltaBatch`] out to the union of the engines
    /// reading any relation the batch touches, returning how many engines fired. The
    /// batch is normalized **once** by the caller and borrowed by every engine — this
    /// is the shared-batch dispatch entry point that amortizes consolidation across
    /// views. Quarantined engines are skipped.
    ///
    /// **Atomic across engines**: every touched engine stages the batch — applying it
    /// while logging pre-images — and only if *all* stages succeed are they
    /// committed. Any failure aborts every stage, leaving every engine's tables and
    /// stats bit-identical to before the call. Engines stage in ascending slot order
    /// and the first failure stops the loop, so if several engines would fail on the
    /// same batch, the **lowest slot**'s error is reported. A panic in an engine is
    /// caught, reported as [`RuntimeError::EnginePanicked`], and quarantines that
    /// slot (its mid-flight state cannot be rolled back); the slots staged before it
    /// are still aborted cleanly, so the batch lands nowhere.
    ///
    /// Everything runs on the calling thread.
    pub fn apply_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<u32, RuntimeError> {
        // Union of readers over the touched relations. Batches have at most two groups
        // per relation, so a sort/dedup over the concatenated reader lists stays tiny.
        let mut touched: Vec<u32> = Vec::new();
        for group in batch.groups() {
            touched.extend_from_slice(self.readers_of(group.relation()));
        }
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&slot| {
            !self.slots[slot as usize]
                .as_ref()
                .expect("routing only lists live slots")
                .poisoned
        });
        self.stage_all(&touched, |engine| engine.stage_batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::try_boxed_engine;
    use dbring_agca::parser::parse_query;
    use dbring_algebra::Number;
    use dbring_compiler::compile;
    use dbring_relations::{Database, Value};

    fn catalog() -> Database {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.declare("S", &["B"]).unwrap();
        db
    }

    fn engine_for(text: &str) -> Box<dyn ViewEngine> {
        let program = compile(&catalog(), &parse_query(text).unwrap()).unwrap();
        try_boxed_engine(program).unwrap()
    }

    #[test]
    fn updates_route_only_to_reading_engines() {
        let mut registry = EngineRegistry::new();
        let r_sum = registry.register(engine_for("r_sum := Sum(R(x))"));
        let s_sum = registry.register(engine_for("s_sum := Sum(S(y))"));
        let both = registry.register(engine_for("both := Sum(R(x) * S(x))"));
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.readers_of("R"), &[r_sum, both]);
        assert_eq!(registry.readers_of("S"), &[s_sum, both]);
        assert_eq!(registry.readers_of("T"), &[] as &[u32]);

        let fired = registry
            .apply(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        assert_eq!(fired, 2);
        assert_eq!(registry.engine(r_sum).unwrap().stats().updates, 1);
        assert_eq!(registry.engine(s_sum).unwrap().stats().updates, 0);
        assert_eq!(registry.engine(both).unwrap().stats().updates, 1);
        // A relation nobody reads is a no-op, not an error.
        assert_eq!(
            registry
                .apply(&Update::insert("T", vec![Value::int(1)]))
                .unwrap(),
            0
        );
    }

    #[test]
    fn shared_batch_dispatch_fans_out_to_the_union_of_readers() {
        let mut registry = EngineRegistry::new();
        let r_sum = registry.register(engine_for("r_sum := Sum(R(x))"));
        let s_sum = registry.register(engine_for("s_sum := Sum(S(y))"));
        let updates = [
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("S", vec![Value::int(9)]),
            Update::delete("S", vec![Value::int(9)]),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        // S's updates cancel inside the batch: only R's reader fires.
        let fired = registry.apply_batch(&batch).unwrap();
        assert_eq!(fired, 1);
        assert_eq!(
            registry.engine(r_sum).unwrap().output_value(&[]),
            Number::Int(2)
        );
        assert_eq!(registry.engine(s_sum).unwrap().stats().updates, 0);
        assert_eq!(registry.apply_batch(&DeltaBatch::default()).unwrap(), 0);
    }

    #[test]
    fn removal_tombstones_the_slot_and_cleans_routing() {
        let mut registry = EngineRegistry::new();
        let a = registry.register(engine_for("a := Sum(R(x))"));
        let b = registry.register(engine_for("b := Sum(R(x) * x)"));
        let removed = registry.remove(a).expect("live slot removes");
        assert_eq!(removed.output_value(&[]), Number::Int(0));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.readers_of("R"), &[b]);
        assert!(registry.engine(a).is_none());
        assert!(registry.remove(a).is_none(), "double remove misses");
        assert!(registry.remove(99).is_none(), "unknown slot misses");
        // Slots are never reused: a new engine gets a fresh id.
        let c = registry.register(engine_for("c := Sum(R(x))"));
        assert_ne!(c, a);
        assert_eq!(registry.readers_of("R"), &[b, c]);
        registry
            .apply(&Update::insert("R", vec![Value::int(2)]))
            .unwrap();
        assert_eq!(
            registry.engine(c).unwrap().output_value(&[]),
            Number::Int(1)
        );
        assert_eq!(
            registry.engines().map(|(slot, _)| slot).collect::<Vec<_>>(),
            vec![b, c]
        );
    }

    #[test]
    fn dispatch_failure_reports_the_lowest_slot() {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.declare("S", &["B"]).unwrap();
        db.declare("T", &["C"]).unwrap();
        let engine = |text: &str| {
            let program = compile(&db, &parse_query(text).unwrap()).unwrap();
            try_boxed_engine(program).unwrap()
        };
        let mut registry = EngineRegistry::new();
        let ok = registry.register(engine("ok := Sum(R(x))"));
        let fails_s = registry.register(engine("fails_s := Sum(S(y))"));
        let fails_t = registry.register(engine("fails_t := Sum(T(z))"));
        // Healthy R deltas plus bad-arity S and T deltas: slots 1 and 2 both fail on
        // the same batch, with distinguishable errors.
        let updates = [
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("R", vec![Value::int(2)]),
            Update::insert("S", vec![Value::int(1), Value::int(2)]),
            Update::insert("T", vec![Value::int(1), Value::int(2)]),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        let err = registry.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::ArityMismatch {
                relation: "S".into(),
                expected: 1,
                got: 2
            },
            "the lowest failing slot's error wins"
        );
        // The staged protocol aborted every sibling: the healthy R reader staged its
        // delta but rolled it back, so the batch landed nowhere.
        assert_eq!(
            registry.engine(ok).unwrap().output_value(&[]),
            Number::Int(0),
            "a failed dispatch lands nowhere, even at healthy slots"
        );
        assert_eq!(
            registry.engine(ok).unwrap().stats().updates,
            0,
            "aborted stages restore work counters too"
        );
        // The first failure stops the loop: the higher failing slot never staged.
        assert_eq!(registry.engine(fails_t).unwrap().stats().updates, 0);
        assert_eq!(registry.engine(fails_s).unwrap().stats().updates, 0);
    }

    #[test]
    fn a_panicking_engine_is_quarantined_and_siblings_roll_back() {
        use crate::executor::Executor;
        use crate::fault::{with_fault, FaultOp, FaultPlan, FaultStorage};
        use crate::storage::HashViewStorage;

        let catalog = catalog();
        let program = |text: &str| compile(&catalog, &parse_query(text).unwrap()).unwrap();
        let mut registry = EngineRegistry::new();
        let healthy = registry.register(engine_for("healthy := Sum(R(x))"));
        let victim = registry.register(Box::new(
            Executor::<FaultStorage<HashViewStorage>>::with_backend(program(
                "victim := Sum(R(x) * x)",
            )),
        ));
        let updates: Vec<Update> = (1..=64)
            .map(|x| Update::insert("R", vec![Value::int(x)]))
            .collect();
        let (count, sum) = (updates.len() as i64, (1..=updates.len() as i64).sum());
        let batch = DeltaBatch::from_updates(&updates);
        // Warm both engines with a clean batch first.
        assert_eq!(registry.apply_batch(&batch).unwrap(), 2);
        let healthy_table = registry.engine(healthy).unwrap().output_table();

        // The batched path lands its writes through consolidated flushes, so
        // target the first `apply_sorted` of the dispatch.
        let err = with_fault(FaultPlan::new(FaultOp::ApplySorted, 0), || {
            registry.apply_batch(&batch).unwrap_err()
        });
        assert_eq!(err, RuntimeError::EnginePanicked { slot: victim });
        assert!(registry.is_poisoned(victim));
        assert_eq!(registry.poisoned_slots(), vec![victim]);
        assert!(!registry.is_poisoned(healthy));
        // The healthy sibling rolled back: the failed batch landed nowhere.
        assert_eq!(
            registry.engine(healthy).unwrap().output_table(),
            healthy_table
        );

        // Ingest now skips the quarantined slot but keeps serving the healthy one.
        assert_eq!(registry.apply_batch(&batch).unwrap(), 1);
        assert_eq!(
            registry.engine(healthy).unwrap().output_value(&[]),
            Number::Int(2 * count)
        );

        // Repair: replace the slot with a rebuilt engine; quarantine clears.
        let rebuilt = Box::new(Executor::<FaultStorage<HashViewStorage>>::with_backend(
            program("victim := Sum(R(x) * x)"),
        ));
        registry.replace(victim, rebuilt).expect("slot is live");
        assert!(!registry.is_poisoned(victim));
        assert_eq!(registry.apply_batch(&batch).unwrap(), 2);
        assert_eq!(
            registry.engine(victim).unwrap().output_value(&[]),
            Number::Int(sum)
        );
    }

    /// Change tracking hands out the output keys of exactly the last commit: none
    /// while it is off, none from a failed dispatch, and never a second time.
    #[test]
    fn commits_report_their_output_keys_while_tracking_is_on() {
        // The distinct keys of a change set, ascending.
        let keys_of = |changed: ChangeSet| -> Vec<Vec<Value>> {
            let mut keys: Vec<Vec<Value>> = changed.iter().map(<[Value]>::to_vec).collect();
            keys.sort();
            keys.dedup();
            keys
        };
        let inserts = |xs: &[i64]| -> Vec<Update> {
            xs.iter()
                .map(|&x| Update::insert("R", vec![Value::int(x)]))
                .collect()
        };
        let mut registry = EngineRegistry::new();
        let by_x = registry.register(engine_for("by_x[x] := Sum(R(x))"));
        let s_sum = registry.register(engine_for("s_sum := Sum(S(y))"));

        let updates = inserts(&[3, 1, 3]);
        registry
            .apply_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        assert!(registry.take_changes(by_x).is_none(), "tracking is off");

        registry.set_change_tracking(true);
        let updates = inserts(&[5, 4, 5]);
        registry
            .apply_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        let changed = registry.take_changes(by_x).expect("a tracked commit");
        assert_eq!(
            keys_of(changed),
            vec![vec![Value::int(4)], vec![Value::int(5)]]
        );
        assert!(registry.take_changes(by_x).is_none(), "taken once");
        assert!(registry.take_changes(s_sum).is_none(), "not touched");

        // The per-update path reports through the same commit.
        registry.apply(&inserts(&[9])[0]).unwrap();
        assert_eq!(
            keys_of(registry.take_changes(by_x).unwrap()),
            vec![vec![Value::int(9)]]
        );

        // A failed dispatch commits nothing, so it reports nothing.
        let bad = [
            Update::insert("R", vec![Value::int(7)]),
            Update::insert("S", vec![Value::int(1), Value::int(2)]),
        ];
        registry
            .apply_batch(&DeltaBatch::from_updates(&bad))
            .unwrap_err();
        assert!(registry.take_changes(by_x).is_none());
        assert!(registry.take_changes(s_sum).is_none());
    }

    #[test]
    fn engine_mut_reaches_the_hosted_engine() {
        let mut registry = EngineRegistry::new();
        let slot = registry.register(engine_for("a := Sum(R(x))"));
        registry
            .apply(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        registry.engine_mut(slot).unwrap().reset_stats();
        assert_eq!(registry.engine(slot).unwrap().stats().updates, 0);
        assert!(registry.engine_mut(42).is_none());
    }
}
