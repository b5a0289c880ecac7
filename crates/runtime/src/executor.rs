//! The trigger-program executor: recursive IVM at runtime, over a lowered
//! [`ExecPlan`].
//!
//! Construction lowers the compiled [`TriggerProgram`] once (see
//! [`dbring_compiler::lower`](dbring_compiler::lower())): every variable becomes a fixed `u16` slot in a flat
//! per-trigger frame, every map lookup is pre-classified as a fully-bound `Probe` or a
//! partially-bound `Enumerate` with its slice-index pattern fixed, and every scalar and
//! guard is rewritten over slots. Applying a single-tuple update then runs the matching
//! plan trigger's statements over reusable frame buffers: no `HashMap` environments, no
//! per-binding environment clones, no name resolution, and no heap allocation on the
//! way — staged or not: lookup keys are assembled in a scratch buffer, writes go through
//! [`ViewStorage::add_ref`] (which hands back the pre-image the undo log wants, so a
//! staged write is one storage probe), candidate frames reuse the capacity of the
//! previous statement's buffers, and the [`Value`] clones this involves never allocate:
//! ints/floats/bools are `Copy`-sized and strings are `Arc`-shared, so a clone is a
//! refcount bump. What does allocate is growth — a view's next row chunk or slot array,
//! a scratch buffer's or the undo log's first warm-up — never the steady state.
//!
//! The executor is generic over the [`ViewStorage`] holding its materialized views,
//! defaulting to [`HashViewStorage`]; naming another type
//! (`Executor::<FaultStorage<HashViewStorage>>::with_backend`) runs the same plans over
//! a decorating storage. The plan's Probe/Enumerate ops call the trait's monomorphized
//! methods, so the indirection costs nothing at runtime.
//!
//! A statement without loop variables costs a constant number of arithmetic operations;
//! a statement with loop variables costs a constant number of operations *per affected
//! map entry* — the executor counts both, identically to the reference interpreter
//! [`InterpretedExecutor`](crate::interp::InterpretedExecutor), so the experiments can
//! verify the paper's constant-work claim (Theorem 7.1) directly and the two paths can
//! be checked against each other operation-for-operation.
//!
//! The base relations are never consulted: after initialization the executor's maps are
//! the only state.

use dbring_algebra::{Number, Semiring};
use dbring_relations::intern::{KeyPool, SlotTable};
use dbring_relations::value::{hash_values, random_seed};
use dbring_relations::{Database, DeltaBatch, Update, Value};

use dbring_agca::ast::Query;
use dbring_agca::eval::{compare_values, eval_all_groups, EvalError};
use dbring_compiler::{
    lower, ExecPlan, LowerError, PlanOp, PlanStatement, PlanTrigger, SlotExpr, TriggerProgram,
    UnboundKey,
};
use dbring_delta::Sign;

use std::collections::HashMap;

use crate::snapshot::ChangeSet;
use crate::storage::{salted, HashViewStorage, StorageFootprint, ViewStorage};

/// Counters describing the work performed by the executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of single-tuple updates applied.
    pub updates: u64,
    /// Ring additions applied to map entries (one per write).
    pub additions: u64,
    /// Ring multiplications performed while evaluating statement monomials.
    pub multiplications: u64,
    /// Loop bindings enumerated across all statements.
    pub bindings_enumerated: u64,
}

impl ExecStats {
    /// Total arithmetic operations (additions + multiplications).
    pub fn arithmetic_ops(&self) -> u64 {
        self.additions + self.multiplications
    }
}

/// Errors raised while applying an update.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// The update's value count does not match the trigger's parameter count.
    ArityMismatch {
        /// The updated relation.
        relation: String,
        /// Expected number of values.
        expected: usize,
        /// Provided number of values.
        got: usize,
    },
    /// A variable required by a statement was not bound (a compiler invariant violation).
    UnboundVariable(String),
    /// A non-numeric value reached an arithmetic position.
    NonNumericValue(String),
    /// A multi-update application failed at the update with the given index; every
    /// update *before* it was already applied ([`Executor::apply_all`] is not atomic).
    AtUpdate {
        /// Zero-based position of the failing update in the applied sequence.
        index: usize,
        /// The underlying failure.
        source: Box<RuntimeError>,
    },
    /// A view engine panicked while a dispatched batch was being staged or rolled
    /// back (a storage invariant violation, an injected fault, a bug). The panic was
    /// caught at the dispatch layer and the slot quarantined: its state can no longer
    /// be trusted, so reads are refused and ingest skips it until it is rebuilt from
    /// the base snapshot (`Ring::repair_view`). Sibling views were rolled back, so
    /// the failing batch landed nowhere.
    EnginePanicked {
        /// The registry slot of the view whose engine panicked.
        slot: u32,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "update to {relation} carries {got} values, trigger expects {expected}"
            ),
            RuntimeError::UnboundVariable(v) => write!(f, "unbound variable {v} at runtime"),
            RuntimeError::NonNumericValue(c) => write!(f, "non-numeric value in {c}"),
            RuntimeError::AtUpdate { index, source } => write!(
                f,
                "update #{index} failed: {source} (updates 0..{index} were already applied)"
            ),
            RuntimeError::EnginePanicked { slot } => write!(
                f,
                "view engine at slot {slot} panicked during batch dispatch; the view is \
                 quarantined until repaired"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::AtUpdate { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Reusable buffers for the statement inner loop. Candidate bindings live in a flat
/// value buffer (`stride` = the trigger's frame length) with a parallel accumulator
/// vector; enumeration fans out into the `next_*` pair and the pairs swap. Capacity is
/// retained across statements and updates, so the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The param-initialized frame template for the current update.
    base_frame: Vec<Value>,
    /// Current candidate frames, `stride` values per candidate.
    cur_vals: Vec<Value>,
    /// Accumulated products, one per current candidate.
    cur_accs: Vec<Number>,
    /// Fan-out target for `Enumerate` ops.
    next_vals: Vec<Value>,
    /// Fan-out accumulators.
    next_accs: Vec<Number>,
    /// Key assembly buffer for probes, slices and writes.
    key_buf: Vec<Value>,
    /// Per-map write buffers for the batch path's weighted (deferred-write) triggers,
    /// indexed by map id. Capacity is retained across groups and batches.
    write_bufs: Vec<WriteBuf>,
    /// Map ids whose write buffer went non-empty since the last batch entry — the
    /// next `apply_batch` clears exactly these instead of sweeping every buffer (an
    /// O(maps) cost that dwarfed tiny batches on wide programs). May hold ids whose
    /// buffer was since flushed (clearing an empty buffer is free) and survives a
    /// failed batch, so leaked writes still get dropped.
    dirty: Vec<usize>,
    /// Reusable key pool for write-buffer consolidation: buffered rows group by key
    /// in place, in first-seen order. Capacity is retained across flushes.
    flush_pool: KeyPool,
    /// Per-group accumulator sums for one flush, indexed by the pool's group ids.
    flush_sums: Vec<Number>,
}

/// A flat write buffer for one map: `accs.len()` buffered deltas whose keys live
/// contiguously in `keys` (stride = the map's key arity). Flat storage means buffering
/// a write costs no allocation once the capacity is warm — the batch path stays as
/// allocation-lean as the per-tuple path.
#[derive(Clone, Debug, Default)]
struct WriteBuf {
    keys: Vec<Value>,
    accs: Vec<Number>,
}

/// One logged pre-image: the exact value `map` held, before a staged write touched
/// it, under the key that starts at `key_start` in the log's flat key arena and ends
/// where the next op's begins (zero ⇔ absent — maps never store explicit zeros).
#[derive(Clone, Copy, Debug)]
struct UndoOp {
    map: u32,
    key_start: u32,
    pre: Number,
}

/// The staged-ingest undo log: pre-images of every written entry, stored as a flat
/// arena — one fixed-size [`UndoOp`] per write plus the key values appended to one
/// shared buffer. The executor recycles the log across batches, so once its vectors
/// are warm logging a write allocates nothing.
///
/// One pre-image per *distinct* `(map, key)` per batch suffices: only the first
/// write to a key sees its pre-batch value, so [`UndoLog::push_once`] keeps a
/// per-batch seen-set — a [`SlotTable`] over op indices, verified by key comparison
/// against the arena, so a collision can never suppress a needed pre-image — and
/// drops repeats. Enumeration-heavy unit-replay triggers rewrite the same hot keys
/// hundreds of times per batch; this is what keeps their log bounded by the
/// *distinct* write set.
///
/// The consolidated flush path uses [`UndoLog::push_unchecked`] instead: keys in one
/// consolidated run are already unique, and a duplicate entry from a *different*
/// flush of the same batch is harmless — reverse-order restore replays the earliest
/// (true) pre-image last — so the per-write seen-set check would cost more than the
/// rare duplicate append it avoids.
///
/// Restoring the ops in *reverse* order via [`ViewStorage::restore`] reproduces the
/// pre-batch storage bit-exactly, because the first op logged for a key holds its
/// original value and is restored last (with deduplication it is also the *only*
/// op for that key, which restores the same state).
#[derive(Clone, Debug, Default)]
pub(crate) struct UndoLog {
    ops: Vec<UndoOp>,
    keys: Vec<Value>,
    /// Per-batch seen-set: `(map, key)` → index of the op that logged it.
    seen: SlotTable,
    /// The hash of every `seen` entry, so `clear` costs the entries, not the capacity.
    seen_hashes: Vec<u32>,
    /// Seed of the seen-set's hash, drawn on first use (zero: not yet) — keys come
    /// from clients, who must not be able to aim a batch at one probe chain.
    seed: u64,
}

impl UndoLog {
    /// Logs `pre`, the value `key` held before the write that just landed, unless
    /// this batch already logged a pre-image for `(map, key)`.
    #[inline]
    pub(crate) fn push_once(&mut self, map: usize, key: &[Value], pre: Number) {
        if self.seed == 0 {
            self.seed = random_seed() | 1;
        }
        let hash = hash_values(salted(self.seed, map as u64), key);
        self.seen.reserve_one();
        let (ops, keys) = (&self.ops, &self.keys);
        let probe = self.seen.probe(hash, |op| {
            let op = ops[op as usize];
            // Same map, same arity: the logged key is as long as `key`.
            op.map as usize == map && keys[op.key_start as usize..][..key.len()] == *key
        });
        if let (slot, None) = probe {
            self.seen.occupy(slot, self.ops.len() as u32, hash);
            self.seen_hashes.push(hash);
            self.push_unchecked(map, key, pre);
        }
    }

    /// Logs `key`'s pre-image without consulting the seen-set — for the consolidated
    /// flush path, where keys are unique within a run and cross-flush duplicates
    /// restore correctly in reverse order.
    #[inline]
    pub(crate) fn push_unchecked(&mut self, map: usize, key: &[Value], pre: Number) {
        self.ops.push(UndoOp {
            map: map as u32,
            key_start: self.keys.len() as u32,
            pre,
        });
        self.keys.extend_from_slice(key);
    }

    /// Number of logged pre-images.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Reports every key logged for `map` into `changed`. The log holds a pre-image
    /// for each `(map, key)` the batch wrote — on the per-statement and the
    /// consolidated-flush path alike — so for the output map these are exactly the
    /// output keys a commit may have changed.
    pub(crate) fn report_keys_of(&self, map: usize, changed: &mut ChangeSet) {
        for (i, op) in self.ops.iter().enumerate() {
            if op.map as usize == map {
                let next = self.ops.get(i + 1);
                let end = next.map_or(self.keys.len(), |next| next.key_start as usize);
                changed.push(&self.keys[op.key_start as usize..end]);
            }
        }
    }

    /// Empties the log, keeping the allocations (arena, ops, seen-set) for reuse by
    /// the next batch.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.keys.clear();
        self.seen.clear_runs(self.seen_hashes.drain(..));
    }
}

/// The token a successful [`Executor::stage_batch`] returns: proof that the batch evaluated cleanly, plus everything needed to undo it.
///
/// Staging *applies* the batch — later trigger groups must read the writes of earlier
/// ones (the second-order `δR·δS` term of a multi-relation batch), so the writes cannot
/// simply be deferred — while logging the pre-image of every touched entry.
/// [`Executor::commit_staged`] makes the batch permanent by discarding the log;
/// [`Executor::abort_staged`] replays the log in reverse, leaving tables *and*
/// [`ExecStats`] bit-identical to the pre-stage state. The memory cost of staging is
/// this log: one `(map, key, value)` triple per write the batch performed
/// ([`StagedBatch::logged_writes`]), released at commit.
///
/// A token must be returned — committed or aborted — to the engine that produced it;
/// the dispatch layer ([`EngineRegistry`](crate::registry::EngineRegistry)) keeps
/// tokens slot-aligned for exactly that reason.
#[derive(Clone, Debug)]
pub struct StagedBatch {
    pub(crate) undo: UndoLog,
    pub(crate) stats_before: ExecStats,
}

impl StagedBatch {
    /// Number of logged pre-images — the staging memory cost, one `(map, key, value)`
    /// triple per write performed while staging.
    pub fn logged_writes(&self) -> usize {
        self.undo.len()
    }
}

/// Replays an undo log in reverse, restoring every touched entry to its logged
/// pre-image bit-exactly.
pub(crate) fn rollback_maps<S: ViewStorage>(maps: &mut [S], undo: &UndoLog) {
    let mut end = undo.keys.len();
    for op in undo.ops.iter().rev() {
        let start = op.key_start as usize;
        maps[op.map as usize].restore(&undo.keys[start..end], op.pre);
        end = start;
    }
}

/// The recursive-IVM runtime for one compiled trigger program, generic over the
/// [`ViewStorage`] its materialized views live in (default: [`HashViewStorage`]).
#[derive(Clone, Debug)]
pub struct Executor<S: ViewStorage = HashViewStorage> {
    program: TriggerProgram,
    plan: ExecPlan,
    maps: Vec<S>,
    /// Relation name → plan-trigger index per sign (`[insert, delete]`); updates are
    /// dispatched without allocating or scanning the trigger list.
    dispatch: HashMap<String, [Option<usize>; 2]>,
    stats: ExecStats,
    scratch: Scratch,
    /// Recycled undo-log allocation: staging takes it, commit/abort hand it back, so
    /// steady-state staging allocates nothing for the log itself.
    undo_pool: UndoLog,
}

impl Executor<HashViewStorage> {
    /// Creates an executor with empty views on [`HashViewStorage`] (correct when
    /// starting from the empty database; otherwise call [`Executor::initialize_from`]).
    /// For another storage type, name it: `Executor::<S>::with_backend`.
    ///
    /// The program is lowered to its [`ExecPlan`] here, and the slice-index patterns the
    /// plan's enumerations need are registered on the view storage.
    ///
    /// # Panics
    /// Panics if the program does not lower — impossible for programs produced by
    /// [`dbring_compiler::compile`](dbring_compiler::compile()), which validates; use [`Executor::try_new`] for
    /// hand-built programs that may not.
    pub fn new(program: TriggerProgram) -> Self {
        Self::with_backend(program)
    }

    /// Fallible construction: like [`Executor::new`] but surfaces lowering problems
    /// (structural invalidity, read-before-bind) as a [`LowerError`] instead of
    /// panicking.
    pub fn try_new(program: TriggerProgram) -> Result<Self, LowerError> {
        Self::try_with_backend(program)
    }
}

impl<S: ViewStorage> Executor<S> {
    /// Creates an executor with empty views on the storage named by the type parameter,
    /// e.g. `Executor::<FaultStorage<HashViewStorage>>::with_backend(program)`.
    ///
    /// # Panics
    /// Panics if the program does not lower; use [`Executor::try_with_backend`] for
    /// hand-built programs that may not.
    pub fn with_backend(program: TriggerProgram) -> Self {
        Self::try_with_backend(program).expect("compiled trigger programs always lower")
    }

    /// Fallible construction on an explicit storage type: surfaces lowering problems
    /// (structural invalidity, read-before-bind) as a [`LowerError`] instead of
    /// panicking.
    pub fn try_with_backend(program: TriggerProgram) -> Result<Self, LowerError> {
        let plan = lower(&program)?;
        let mut maps: Vec<S> = plan.map_arities.iter().map(|&a| S::new(a)).collect();
        for (map, pattern) in &plan.index_registrations {
            maps[*map].register_index(pattern.clone());
        }
        let mut dispatch: HashMap<String, [Option<usize>; 2]> = HashMap::new();
        for (i, t) in plan.triggers.iter().enumerate() {
            let entry = dispatch.entry(t.relation.clone()).or_insert([None, None]);
            let slot = &mut entry[sign_index(t.sign)];
            // First match wins, matching the interpreter's linear-scan dispatch (the
            // compiler never emits duplicate (relation, sign) triggers, but hand-built
            // programs may).
            if slot.is_none() {
                *slot = Some(i);
            }
        }
        Ok(Executor {
            program,
            plan,
            maps,
            dispatch,
            stats: ExecStats::default(),
            scratch: Scratch::default(),
            undo_pool: UndoLog::default(),
        })
    }

    /// The compiled program this executor runs.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// The lowered execution plan the hot path runs.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Resets the work counters (e.g. after initialization, before a measurement run).
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// The storage of one materialized view.
    pub fn map(&self, id: usize) -> &S {
        &self.maps[id]
    }

    /// The output view's storage.
    pub fn output(&self) -> &S {
        &self.maps[self.program.output]
    }

    /// The output view as a sorted table.
    pub fn output_table(&self) -> std::collections::BTreeMap<Vec<Value>, Number> {
        self.output().to_table()
    }

    /// The output value for one group key (zero if absent).
    pub fn output_value(&self, key: &[Value]) -> Number {
        self.output().get(key)
    }

    /// Total number of entries across all views (the memory footprint of the hierarchy).
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(S::len).sum()
    }

    /// The aggregate memory proxy of the whole view hierarchy: entries plus the
    /// secondary-index structure the storage maintains next to them.
    pub fn storage_footprint(&self) -> StorageFootprint {
        self.maps
            .iter()
            .map(S::footprint)
            .fold(StorageFootprint::default(), StorageFootprint::merge)
    }

    /// Loads every view from a non-empty starting database by evaluating its defining
    /// query with the reference evaluator (the initialization step of Section 1.1). The
    /// database is *not* retained: subsequent maintenance never touches it.
    pub fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError> {
        initialize_maps(&self.program, &mut self.maps, db)
    }

    /// Applies a single-tuple update by running the matching plan trigger. Updates whose
    /// relation does not affect the query are ignored. Updates with |multiplicity| > 1 are
    /// treated as that many single-tuple updates, and an update with multiplicity 0 is an
    /// explicit no-op: it fires nothing, checks nothing (not even arity) and leaves the
    /// work counters untouched.
    ///
    /// On error the update may be partially applied (a failure between the firings of a
    /// |multiplicity| > 1 update leaves the earlier firings in place); use
    /// [`Executor::stage_update`] when the caller needs all-or-nothing per-update
    /// semantics. Hosts always do: this unlogged call is the bare trigger kernel that
    /// [`MaintenanceStrategy`](crate::strategy::MaintenanceStrategy) measures against
    /// the baselines.
    pub fn apply(&mut self, update: &Update) -> Result<(), RuntimeError> {
        self.apply_logged(update, &mut None)
    }

    /// Stages a single-tuple update: applies it while logging pre-images, so the caller
    /// can [`commit_staged`](Executor::commit_staged) or
    /// [`abort_staged`](Executor::abort_staged) it. On `Err` the engine has already been
    /// rolled back — tables and stats are bit-identical to before the call, even for a
    /// failure between the firings of a |multiplicity| > 1 update.
    pub fn stage_update(&mut self, update: &Update) -> Result<StagedBatch, RuntimeError> {
        let stats_before = self.stats;
        let mut undo = std::mem::take(&mut self.undo_pool);
        match self.apply_logged(update, &mut Some(&mut undo)) {
            Ok(()) => Ok(StagedBatch { undo, stats_before }),
            Err(e) => {
                rollback_maps(&mut self.maps, &undo);
                self.stats = stats_before;
                self.recycle(undo);
                Err(e)
            }
        }
    }

    /// Hands a finished undo log's allocation back to the pool.
    fn recycle(&mut self, mut undo: UndoLog) {
        undo.clear();
        self.undo_pool = undo;
    }

    fn apply_logged(
        &mut self,
        update: &Update,
        undo: &mut Option<&mut UndoLog>,
    ) -> Result<(), RuntimeError> {
        if update.multiplicity == 0 {
            return Ok(());
        }
        let sign = if update.multiplicity >= 0 {
            Sign::Insert
        } else {
            Sign::Delete
        };
        let Some(trigger_index) = self
            .dispatch
            .get(update.relation.as_str())
            .and_then(|per_sign| per_sign[sign_index(sign)])
        else {
            return Ok(());
        };
        let Self {
            plan,
            maps,
            stats,
            scratch,
            ..
        } = self;
        let trigger = &plan.triggers[trigger_index];
        if trigger.param_slots.len() != update.values.len() {
            return Err(RuntimeError::ArityMismatch {
                relation: update.relation.clone(),
                expected: trigger.param_slots.len(),
                got: update.values.len(),
            });
        }
        // Build the param-initialized frame template once per update. Unbound slots hold
        // a placeholder; `ExecPlan::verify_slot_liveness` (run at lowering) guarantees
        // every slot is written before it is read, so the placeholder is unreachable.
        scratch.base_frame.clear();
        scratch.base_frame.resize(trigger.frame_len, Value::Int(0));
        for (&slot, value) in trigger.param_slots.iter().zip(&update.values) {
            scratch.base_frame[slot as usize] = value.clone();
        }
        for _ in 0..update.multiplicity.unsigned_abs() {
            stats.updates += 1;
            for stmt in &trigger.statements {
                run_statement(maps, stats, scratch, trigger, stmt, undo)?;
            }
        }
        Ok(())
    }

    /// Applies a sequence of updates, one trigger firing per single-tuple update.
    ///
    /// **Not atomic:** updates are applied in order, and a failure leaves every update
    /// *before* the failing one applied. The error is wrapped in
    /// [`RuntimeError::AtUpdate`] carrying the failing update's index, so callers know
    /// exactly how many updates landed.
    pub fn apply_all<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(), RuntimeError> {
        for (index, u) in updates.into_iter().enumerate() {
            self.apply(u).map_err(|e| RuntimeError::AtUpdate {
                index,
                source: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// Applies a normalized [`DeltaBatch`] — the batch counterpart of
    /// [`Executor::apply_all`], equivalent to applying the batch's source updates one by
    /// one (in any order: the maintained views depend only on the net delta) but doing
    /// per-group work once instead of per tuple:
    ///
    /// * one trigger dispatch and one frame-template setup per `(relation, sign)` group
    ///   rather than per update;
    /// * for triggers whose delta is degree ≤ 1 in the updated relation
    ///   ([`PlanTrigger::weighted_firing`]), one firing per *distinct* tuple with the
    ///   writes scaled by the tuple's consolidated weight — writes are buffered,
    ///   consolidated per key, and landed with one [`ViewStorage::add_ref`] per
    ///   distinct key, in the order the keys first reached the buffer;
    /// * for self-join-style triggers that read their own targets, a unit-replay
    ///   fallback preserving the exact per-tuple semantics.
    ///
    /// Consolidation means cancelled `+t`/`-t` pairs never fire at all, and the work
    /// counters reflect the work actually done — fewer operations than the per-tuple
    /// path on weighted triggers is exactly the measured win.
    ///
    /// Integer-valued aggregates end bit-identical to the per-tuple path. Float-valued
    /// aggregates may differ by rounding: consolidation reorders and scales the
    /// accumulation, and IEEE-754 addition is order-sensitive.
    ///
    /// **Atomic per view:** this is [`stage_batch`](Executor::stage_batch) followed by
    /// an immediate [`commit_staged`](Executor::commit_staged), so on `Err` the engine's
    /// tables and [`ExecStats`] are bit-identical to before the call — on the weighted
    /// path *and* the unit-replay path. Batches have no unlogged path: the pre-image
    /// log is what makes the flush revocable.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<(), RuntimeError> {
        let staged = self.stage_batch(batch)?;
        self.commit_staged(staged);
        Ok(())
    }

    /// Stages a batch: applies it exactly as [`apply_batch`](Executor::apply_batch)
    /// while logging the pre-image of every write, returning the [`StagedBatch`] token
    /// to later [`commit_staged`](Executor::commit_staged) (discard the log) or
    /// [`abort_staged`](Executor::abort_staged) (roll everything back bit-exactly).
    /// On `Err` the rollback has already happened: the engine is bit-identical to
    /// before the call.
    ///
    /// Staging must apply, not defer: in a multi-relation batch a later group's trigger
    /// reads maps an earlier group's trigger wrote (the `δR·δS` second-order term), so
    /// buffering every flush until commit would silently drop those cross terms. The
    /// undo log is what makes the applied writes revocable.
    pub fn stage_batch(&mut self, batch: &DeltaBatch) -> Result<StagedBatch, RuntimeError> {
        let stats_before = self.stats;
        let mut undo = std::mem::take(&mut self.undo_pool);
        match self.apply_batch_logged(batch, &mut undo) {
            Ok(()) => Ok(StagedBatch { undo, stats_before }),
            Err(e) => {
                rollback_maps(&mut self.maps, &undo);
                self.stats = stats_before;
                self.recycle(undo);
                Err(e)
            }
        }
    }

    /// Makes a staged batch permanent. The writes already landed while staging, so this
    /// only releases the undo log (its allocation is recycled for the next staging) —
    /// it cannot fail.
    pub fn commit_staged(&mut self, staged: StagedBatch) {
        self.recycle(staged.undo);
    }

    /// Rolls a staged batch back: every logged pre-image is restored in reverse order
    /// and the stats snapshot reinstated, leaving tables and [`ExecStats`]
    /// bit-identical to the pre-stage state.
    pub fn abort_staged(&mut self, staged: StagedBatch) {
        rollback_maps(&mut self.maps, &staged.undo);
        self.stats = staged.stats_before;
        self.recycle(staged.undo);
    }

    fn apply_batch_logged(
        &mut self,
        batch: &DeltaBatch,
        undo: &mut UndoLog,
    ) -> Result<(), RuntimeError> {
        let Self {
            plan,
            maps,
            dispatch,
            stats,
            scratch,
            ..
        } = self;
        if scratch.write_bufs.len() < maps.len() {
            scratch
                .write_bufs
                .resize_with(maps.len(), WriteBuf::default);
        }
        // A previous call that errored mid-group may have left buffered writes behind;
        // drop them so a failed batch cannot leak into this one's flush. Only the
        // buffers dirtied since the last entry are swept — not all O(maps) of them.
        for &target in &scratch.dirty {
            let buf = &mut scratch.write_bufs[target];
            buf.keys.clear();
            buf.accs.clear();
        }
        scratch.dirty.clear();
        for group in batch.groups() {
            let sign = if group.is_insert() {
                Sign::Insert
            } else {
                Sign::Delete
            };
            let Some(trigger_index) = dispatch
                .get(group.relation())
                .and_then(|per_sign| per_sign[sign_index(sign)])
            else {
                continue;
            };
            let trigger = &plan.triggers[trigger_index];
            // One frame template per group; each delta only rewrites the param slots.
            scratch.base_frame.clear();
            scratch.base_frame.resize(trigger.frame_len, Value::Int(0));
            for (values, weight) in group.deltas() {
                if trigger.param_slots.len() != values.len() {
                    return Err(RuntimeError::ArityMismatch {
                        relation: group.relation().to_string(),
                        expected: trigger.param_slots.len(),
                        got: values.len(),
                    });
                }
                for (&slot, value) in trigger.param_slots.iter().zip(values.iter()) {
                    scratch.base_frame[slot as usize] = value.clone();
                }
                if trigger.weighted_firing {
                    // One firing, writes scaled by the consolidated weight and buffered:
                    // the trigger reads none of its targets, so every unit firing would
                    // compute identical writes and deferring them changes nothing.
                    stats.updates += *weight as u64;
                    for stmt in &trigger.statements {
                        eval_statement_ops(maps, stats, scratch, trigger, stmt)?;
                        buffer_statement_writes(scratch, stats, trigger, stmt, *weight);
                    }
                } else {
                    // Unit replay: the trigger reads maps it writes (a self-join), so
                    // each of the `weight` firings must see the previous one's writes.
                    for _ in 0..*weight {
                        stats.updates += 1;
                        for stmt in &trigger.statements {
                            run_statement(maps, stats, scratch, trigger, stmt, &mut Some(undo))?;
                        }
                    }
                }
            }
            if trigger.weighted_firing {
                // Flush each affected map once: consolidate, then one write per key.
                for stmt in &trigger.statements {
                    let arity = plan.map_arities[stmt.target];
                    let Scratch {
                        write_bufs,
                        flush_pool,
                        flush_sums,
                        ..
                    } = &mut *scratch;
                    let buf = &mut write_bufs[stmt.target];
                    if buf.accs.is_empty() {
                        continue;
                    }
                    // Consolidate in place: rows of the flat buffer group by key and
                    // the accumulators sum per group, in first-seen order.
                    let keys = &buf.keys;
                    let key = |row: u32| &keys[row as usize * arity..(row as usize + 1) * arity];
                    flush_pool.clear();
                    flush_sums.clear();
                    for (row, acc) in buf.accs.iter().enumerate() {
                        let g = flush_pool.push(row as u32, key) as usize;
                        if g == flush_sums.len() {
                            flush_sums.push(*acc);
                        } else {
                            flush_sums[g] = flush_sums[g].add(acc);
                        }
                    }
                    // Every non-zero group lands with one write, and its pre-image
                    // is logged unchecked: the groups of one flush are distinct
                    // keys, and a key another flush of this batch already logged
                    // restores correctly anyway (reverse order replays the true
                    // pre-image last).
                    let target = &mut maps[stmt.target];
                    for (&first, sum) in flush_pool.firsts().iter().zip(flush_sums.iter()) {
                        if !sum.is_zero() {
                            let pre = target.add_ref(key(first), *sum);
                            undo.push_unchecked(stmt.target, key(first), pre);
                        }
                    }
                    buf.keys.clear();
                    buf.accs.clear();
                }
            }
        }
        Ok(())
    }
}

fn sign_index(sign: Sign) -> usize {
    match sign {
        Sign::Insert => 0,
        Sign::Delete => 1,
    }
}

/// Bulk-loads every view of a program from a non-empty starting database by evaluating
/// the view definitions with the reference evaluator (the initialization step of
/// Section 1.1). Shared by the lowered executor and the reference interpreter so both
/// paths initialize identically.
pub(crate) fn initialize_maps<S: ViewStorage>(
    program: &TriggerProgram,
    maps: &mut [S],
    db: &Database,
) -> Result<(), EvalError> {
    for def in &program.maps {
        // Reorder the defining query once so that bulk initialization does not build
        // needless cross products (the trigger statements themselves never evaluate
        // these definitions).
        let bound = def.key_vars.iter().cloned().collect();
        let query = Query {
            name: def.name.clone(),
            group_by: def.key_vars.clone(),
            expr: dbring_agca::optimize::optimize_for_evaluation(&def.definition, &bound),
        };
        let groups = eval_all_groups(&query, db)?;
        // Initialization writes exact values: `restore` overwrites each group.
        for (key, value) in groups {
            maps[def.id].restore(&key, value);
        }
    }
    Ok(())
}

/// Runs one lowered statement over the scratch frames and applies its writes directly,
/// logging the pre-image each write returns when an undo log is supplied.
fn run_statement<S: ViewStorage>(
    maps: &mut [S],
    stats: &mut ExecStats,
    scratch: &mut Scratch,
    trigger: &PlanTrigger,
    stmt: &PlanStatement,
    undo: &mut Option<&mut UndoLog>,
) -> Result<(), RuntimeError> {
    eval_statement_ops(maps, stats, scratch, trigger, stmt)?;
    // Apply the writes. All reads of this statement are complete (a statement never
    // reads its own writes), so writing directly from the surviving frames is safe.
    let stride = trigger.frame_len.max(1);
    let Scratch {
        cur_vals,
        cur_accs,
        key_buf,
        ..
    } = scratch;
    let target = &mut maps[stmt.target];
    for row in 0..cur_accs.len() {
        let acc = cur_accs[row];
        if acc.is_zero() {
            continue;
        }
        stats.additions += 1;
        key_buf.clear();
        for &s in &stmt.target_slots {
            key_buf.push(cur_vals[row * stride + s as usize].clone());
        }
        let pre = target.add_ref(key_buf, stmt.coefficient.mul(&acc));
        if let Some(undo) = undo {
            undo.push_once(stmt.target, key_buf, pre);
        }
    }
    Ok(())
}

/// Pushes one evaluated statement's writes — scaled by a batch weight — into the
/// scratch write buffer of the statement's target map, instead of applying them.
/// Only sound for weighted (degree ≤ 1) triggers, whose reads never see their writes.
fn buffer_statement_writes(
    scratch: &mut Scratch,
    stats: &mut ExecStats,
    trigger: &PlanTrigger,
    stmt: &PlanStatement,
    weight: i64,
) {
    let stride = trigger.frame_len.max(1);
    let Scratch {
        cur_vals,
        cur_accs,
        write_bufs,
        dirty,
        ..
    } = scratch;
    let buf = &mut write_bufs[stmt.target];
    let was_empty = buf.accs.is_empty();
    let scale = stmt.coefficient.mul(&Number::Int(weight));
    for row in 0..cur_accs.len() {
        let acc = cur_accs[row];
        if acc.is_zero() {
            continue;
        }
        stats.additions += 1;
        for &s in &stmt.target_slots {
            buf.keys.push(cur_vals[row * stride + s as usize].clone());
        }
        buf.accs.push(scale.mul(&acc));
    }
    if was_empty && !buf.accs.is_empty() {
        dirty.push(stmt.target);
    }
}

/// Runs one lowered statement's op sequence over the scratch frames, leaving the
/// surviving candidates (and their accumulated products) in `scratch.cur_vals` /
/// `scratch.cur_accs`. Reads the maps, writes nothing.
fn eval_statement_ops<S: ViewStorage>(
    maps: &[S],
    stats: &mut ExecStats,
    scratch: &mut Scratch,
    trigger: &PlanTrigger,
    stmt: &PlanStatement,
) -> Result<(), RuntimeError> {
    let stride = trigger.frame_len.max(1);
    let Scratch {
        base_frame,
        cur_vals,
        cur_accs,
        next_vals,
        next_accs,
        key_buf,
        ..
    } = scratch;
    // One initial candidate: the parameters, with accumulator 1.
    cur_vals.clear();
    cur_vals.extend_from_slice(base_frame);
    cur_vals.resize(stride, Value::Int(0));
    cur_accs.clear();
    cur_accs.push(Number::Int(1));

    for op in &stmt.ops {
        let rows = cur_accs.len();
        if rows == 0 {
            break;
        }
        match op {
            PlanOp::Probe { map, key_slots } => {
                let storage = &maps[*map];
                let mut kept = 0usize;
                for row in 0..rows {
                    let base = row * stride;
                    key_buf.clear();
                    for &s in key_slots {
                        key_buf.push(cur_vals[base + s as usize].clone());
                    }
                    let value = storage.get(key_buf);
                    if value.is_zero() {
                        continue;
                    }
                    stats.multiplications += 1;
                    let acc = cur_accs[row].mul(&value);
                    if kept != row {
                        for i in 0..stride {
                            cur_vals.swap(kept * stride + i, base + i);
                        }
                    }
                    cur_accs[kept] = acc;
                    kept += 1;
                }
                cur_vals.truncate(kept * stride);
                cur_accs.truncate(kept);
            }
            PlanOp::Enumerate {
                map,
                bound_positions,
                bound_slots,
                unbound,
            } => {
                let storage = &maps[*map];
                next_vals.clear();
                next_accs.clear();
                for (row, acc) in cur_accs.iter().copied().enumerate() {
                    let base = row * stride;
                    key_buf.clear();
                    for &s in bound_slots {
                        key_buf.push(cur_vals[base + s as usize].clone());
                    }
                    storage.for_each_slice(bound_positions, key_buf, |full_key, value| {
                        let new_base = next_vals.len();
                        next_vals.extend_from_slice(&cur_vals[base..base + stride]);
                        for u in unbound {
                            match *u {
                                UnboundKey::Bind { position, slot } => {
                                    next_vals[new_base + slot as usize] =
                                        full_key[position].clone();
                                }
                                UnboundKey::Check { position, slot } => {
                                    if next_vals[new_base + slot as usize] != full_key[position] {
                                        next_vals.truncate(new_base);
                                        return;
                                    }
                                }
                            }
                        }
                        stats.multiplications += 1;
                        stats.bindings_enumerated += 1;
                        next_accs.push(acc.mul(&value));
                    });
                }
                std::mem::swap(cur_vals, next_vals);
                std::mem::swap(cur_accs, next_accs);
            }
            PlanOp::Scalar(expr) => {
                let mut kept = 0usize;
                for row in 0..rows {
                    let base = row * stride;
                    let value = eval_slots(expr, &cur_vals[base..base + stride])?;
                    let number = value
                        .as_number()
                        .ok_or_else(|| RuntimeError::NonNumericValue(expr.to_string()))?;
                    if number.is_zero() {
                        continue;
                    }
                    stats.multiplications += 1;
                    let acc = cur_accs[row].mul(&number);
                    if kept != row {
                        for i in 0..stride {
                            cur_vals.swap(kept * stride + i, base + i);
                        }
                    }
                    cur_accs[kept] = acc;
                    kept += 1;
                }
                cur_vals.truncate(kept * stride);
                cur_accs.truncate(kept);
            }
            PlanOp::Guard(op, lhs, rhs) => {
                let mut kept = 0usize;
                for row in 0..rows {
                    let base = row * stride;
                    let frame = &cur_vals[base..base + stride];
                    let l = eval_slots(lhs, frame)?;
                    let r = eval_slots(rhs, frame)?;
                    if !op.test(compare_values(&l, &r)) {
                        continue;
                    }
                    if kept != row {
                        for i in 0..stride {
                            cur_vals.swap(kept * stride + i, base + i);
                        }
                        cur_accs[kept] = cur_accs[row];
                    }
                    kept += 1;
                }
                cur_vals.truncate(kept * stride);
                cur_accs.truncate(kept);
            }
        }
    }

    Ok(())
}

/// Evaluates a slot-resolved scalar expression against one candidate frame.
fn eval_slots(expr: &SlotExpr, frame: &[Value]) -> Result<Value, RuntimeError> {
    fn numeric(expr: &SlotExpr, frame: &[Value]) -> Result<Number, RuntimeError> {
        let v = eval_slots(expr, frame)?;
        v.as_number()
            .ok_or_else(|| RuntimeError::NonNumericValue(expr.to_string()))
    }
    match expr {
        SlotExpr::Const(v) => Ok(v.clone()),
        SlotExpr::Slot(s) => Ok(frame[*s as usize].clone()),
        SlotExpr::Add(a, b) => Ok(Value::from(numeric(a, frame)?.add(&numeric(b, frame)?))),
        SlotExpr::Mul(a, b) => Ok(Value::from(numeric(a, frame)?.mul(&numeric(b, frame)?))),
        SlotExpr::Neg(a) => Ok(Value::from(numeric(a, frame)?.mul(&Number::Int(-1)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;
    use dbring_compiler::compile;

    fn customer_catalog() -> Database {
        let mut db = Database::new();
        db.declare("C", &["cid", "nation"]).unwrap();
        db
    }

    fn customers_program() -> TriggerProgram {
        let catalog = customer_catalog();
        let q = parse_query("q[c] := Sum(C(c, n) * C(c2, n))").unwrap();
        compile(&catalog, &q).unwrap()
    }

    fn insert(cid: i64, nation: &str) -> Update {
        Update::insert("C", vec![Value::int(cid), Value::str(nation)])
    }

    fn delete(cid: i64, nation: &str) -> Update {
        Update::delete("C", vec![Value::int(cid), Value::str(nation)])
    }

    #[test]
    fn example_5_2_maintained_incrementally() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        exec.apply(&insert(2, "FR")).unwrap();
        exec.apply(&insert(3, "DE")).unwrap();
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(2));
        assert_eq!(exec.output_value(&[Value::int(2)]), Number::Int(2));
        assert_eq!(exec.output_value(&[Value::int(3)]), Number::Int(1));
        // Deleting customer 2 drops customer 1's count back to 1 and removes group 2.
        exec.apply(&delete(2, "FR")).unwrap();
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(1));
        assert_eq!(exec.output_value(&[Value::int(2)]), Number::Int(0));
        assert_eq!(exec.output_table().len(), 2);
    }

    #[test]
    fn example_1_2_update_trace() {
        // q = SELECT count(*) FROM R r1, R r2 WHERE r1.A = r2.A, maintained over the exact
        // update trace of Example 1.2; expected values are from the paper's table.
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
        let program = compile(&catalog, &q).unwrap();
        let mut exec = Executor::new(program);
        let ins = |v: &str| Update::insert("R", vec![Value::str(v)]);
        let del = |v: &str| Update::delete("R", vec![Value::str(v)]);
        let trace = [
            (ins("c"), 1),
            (ins("c"), 4),
            (ins("d"), 5),
            (ins("c"), 10),
            (del("d"), 9),
            (ins("c"), 16),
            (del("c"), 9),
        ];
        for (update, expected) in trace {
            exec.apply(&update).unwrap();
            assert_eq!(
                exec.output_value(&[]),
                Number::Int(expected),
                "after {update}"
            );
        }
    }

    #[test]
    fn constant_work_per_update_for_the_self_join_count() {
        // The Example 1.2 trigger has no loop variables, so the arithmetic work per update
        // must be independent of how many tuples have been inserted.
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
        let mut exec = Executor::new(compile(&catalog, &q).unwrap());
        let mut per_update = Vec::new();
        for i in 0..200 {
            let before = exec.stats().arithmetic_ops();
            exec.apply(&Update::insert("R", vec![Value::int(i % 5)]))
                .unwrap();
            per_update.push(exec.stats().arithmetic_ops() - before);
        }
        let max = *per_update.iter().max().unwrap();
        let min = *per_update[10..].iter().min().unwrap();
        assert!(max <= 12, "ops per update stay bounded, got {max}");
        assert!(
            max <= min + 4,
            "ops per update do not grow with the database"
        );
    }

    #[test]
    fn initialization_from_a_nonempty_database_matches_streaming() {
        let mut db = customer_catalog();
        let updates: Vec<Update> = (0..30)
            .map(|i| insert(i, ["FR", "DE", "IT"][(i % 3) as usize]))
            .collect();
        for u in &updates {
            db.apply(u).unwrap();
        }
        // Path A: stream everything through the executor from empty.
        let mut streamed = Executor::new(customers_program());
        streamed.apply_all(&updates).unwrap();
        // Path B: initialize from the loaded database, then stream nothing.
        let mut initialized = Executor::new(customers_program());
        initialized.initialize_from(&db).unwrap();
        assert_eq!(streamed.output_table(), initialized.output_table());
        // Both paths then agree on further maintenance.
        let more = insert(100, "FR");
        streamed.apply(&more).unwrap();
        initialized.apply(&more).unwrap();
        assert_eq!(streamed.output_table(), initialized.output_table());
    }

    #[test]
    fn irrelevant_updates_are_ignored_and_arity_is_checked() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&Update::insert("Other", vec![Value::int(1)]))
            .unwrap();
        assert!(exec.output_table().is_empty());
        let err = exec
            .apply(&Update::insert("C", vec![Value::int(1)]))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
        assert!(err.to_string().contains("1 values"));
    }

    #[test]
    fn batched_multiplicity_updates() {
        let mut exec = Executor::new(customers_program());
        let mut batch = insert(1, "FR");
        batch.multiplicity = 3;
        exec.apply(&batch).unwrap();
        // Three identical customers of the same nation: each of the 3 sees 3 → 3 per group
        // key... group key is cid=1, so the count is 9.
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(9));
        assert_eq!(exec.stats().updates, 3);
    }

    #[test]
    fn zero_multiplicity_updates_are_explicit_no_ops() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        let stats = exec.stats();
        let table = exec.output_table();
        let mut zero = insert(2, "DE");
        zero.multiplicity = 0;
        exec.apply(&zero).unwrap();
        // Even a malformed zero-multiplicity update is a no-op, not an arity error:
        // nothing would have fired anyway.
        let mut zero_bad_arity = Update::insert("C", vec![Value::int(1)]);
        zero_bad_arity.multiplicity = 0;
        exec.apply(&zero_bad_arity).unwrap();
        assert_eq!(exec.stats(), stats);
        assert_eq!(exec.output_table(), table);
    }

    #[test]
    fn apply_all_attaches_the_failing_updates_index() {
        let mut exec = Executor::new(customers_program());
        let updates = vec![
            insert(1, "FR"),
            insert(2, "DE"),
            Update::insert("C", vec![Value::int(3)]), // arity error at index 2
            insert(4, "IT"),
        ];
        let err = exec.apply_all(&updates).unwrap_err();
        match &err {
            RuntimeError::AtUpdate { index, source } => {
                assert_eq!(*index, 2);
                assert!(matches!(**source, RuntimeError::ArityMismatch { .. }));
            }
            other => panic!("expected AtUpdate, got {other:?}"),
        }
        assert!(err.to_string().contains("update #2"));
        assert!(std::error::Error::source(&err).is_some());
        // Non-atomicity: the two updates before the failure landed.
        assert_eq!(exec.stats().updates, 2);
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(1));
    }

    #[test]
    fn apply_batch_matches_apply_all_on_a_unit_replay_program() {
        // Self-joins read the maps their triggers write, so the batch path must
        // unit-replay — and with no in-batch cancellation, do *identical* work, in one
        // batch or in many.
        let nations: Vec<Update> = (0..30)
            .map(|i| insert(i, ["FR", "DE", "IT"][(i % 3) as usize]))
            .collect();
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let self_join = parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
        let distinct: Vec<Update> = (0..64)
            .map(|i| Update::insert("R", vec![Value::int(i)]))
            .collect();
        for (program, updates) in [
            (customers_program(), nations),
            (compile(&catalog, &self_join).unwrap(), distinct),
        ] {
            for chunk in [updates.len(), 8] {
                let mut per_tuple = Executor::new(program.clone());
                per_tuple.apply_all(&updates).unwrap();
                let mut batched = Executor::new(program.clone());
                for piece in updates.chunks(chunk) {
                    batched
                        .apply_batch(&DeltaBatch::from_updates(piece))
                        .unwrap();
                }
                assert_eq!(per_tuple.output_table(), batched.output_table());
                assert_eq!(per_tuple.total_entries(), batched.total_entries());
                assert_eq!(per_tuple.stats(), batched.stats());
            }
        }
    }

    #[test]
    fn apply_batch_fires_weighted_triggers_once_per_distinct_tuple() {
        // Per-customer revenue: a degree-1 aggregation whose triggers read no maps.
        let mut catalog = Database::new();
        catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
        let q = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let program = compile(&catalog, &q).unwrap();
        assert!(Executor::new(program.clone()).plan().triggers[0].weighted_firing);

        let row = |c: i64, p: f64, q: i64| {
            Update::insert("Sales", vec![Value::int(c), Value::float(p), Value::int(q)])
        };
        // The same sale three times plus two distinct ones: the batch consolidates to
        // three distinct tuples and fires three times, not five.
        let updates = vec![
            row(1, 2.5, 4),
            row(1, 2.5, 4),
            row(1, 2.5, 4),
            row(2, 1.0, 3),
            row(1, 9.0, 1),
        ];
        let mut per_tuple = Executor::new(program.clone());
        per_tuple.apply_all(&updates).unwrap();
        let mut batched = Executor::new(program);
        batched
            .apply_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        assert_eq!(per_tuple.output_table(), batched.output_table());
        // Same logical updates...
        assert_eq!(batched.stats().updates, 5);
        // ...but strictly less ring work: the weight-3 tuple fired once.
        assert!(batched.stats().additions < per_tuple.stats().additions);
    }

    #[test]
    fn apply_batch_cancels_update_pairs_before_firing() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        let stats = exec.stats();
        let table = exec.output_table();
        // +t / -t inside one batch nets to nothing: no trigger fires at all.
        let cancelling = [insert(9, "DE"), delete(9, "DE")];
        let batch = DeltaBatch::from_updates(&cancelling);
        assert!(batch.is_empty());
        exec.apply_batch(&batch).unwrap();
        assert_eq!(exec.stats(), stats);
        assert_eq!(exec.output_table(), table);
    }

    /// Regression: a weighted group that errors *after* buffering some writes must not
    /// leak those writes into a later, unrelated `apply_batch` call's flush.
    #[test]
    fn failed_weighted_group_does_not_leak_buffered_writes_into_the_next_batch() {
        let mut catalog = Database::new();
        catalog.declare("Sales", &["cust", "cents", "qty"]).unwrap();
        let q = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let mut exec = Executor::new(compile(&catalog, &q).unwrap());
        // Valid delta first (buffered), then a bad-arity delta: the group fails before
        // its flush, so nothing may land.
        let failing = [
            Update::insert("Sales", vec![Value::int(0), Value::int(10), Value::int(1)]),
            Update::insert("Sales", vec![Value::int(9)]),
        ];
        let err = exec
            .apply_batch(&DeltaBatch::from_updates(&failing))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
        assert!(exec.output_table().is_empty(), "failed group must not land");
        // A later successful batch must apply exactly its own updates.
        let good = [Update::insert(
            "Sales",
            vec![Value::int(5), Value::int(2), Value::int(3)],
        )];
        exec.apply_batch(&DeltaBatch::from_updates(&good)).unwrap();
        assert_eq!(exec.output_table().len(), 1);
        assert_eq!(exec.output_value(&[Value::int(5)]), Number::Int(6));
        assert_eq!(exec.output_value(&[Value::int(0)]), Number::Int(0));
    }

    /// The dirty-index sweep must keep clearing leaked writes across *repeated*
    /// failures: the dirty list survives a failed batch and is only reset once the
    /// next entry has dropped the leaked buffers.
    #[test]
    fn repeated_failed_batches_keep_clearing_leaked_buffers() {
        let mut catalog = Database::new();
        catalog.declare("Sales", &["cust", "cents", "qty"]).unwrap();
        let q = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let mut exec = Executor::new(compile(&catalog, &q).unwrap());
        let failing = [
            Update::insert("Sales", vec![Value::int(0), Value::int(10), Value::int(1)]),
            Update::insert("Sales", vec![Value::int(9)]),
        ];
        for _ in 0..3 {
            exec.apply_batch(&DeltaBatch::from_updates(&failing))
                .unwrap_err();
        }
        assert!(exec.output_table().is_empty());
        let good = [Update::insert(
            "Sales",
            vec![Value::int(5), Value::int(2), Value::int(3)],
        )];
        exec.apply_batch(&DeltaBatch::from_updates(&good)).unwrap();
        assert_eq!(exec.output_table().len(), 1);
        assert_eq!(exec.output_value(&[Value::int(5)]), Number::Int(6));
    }

    /// Satellite regression: the unit-replay path used to leave a failing group
    /// *partially* applied (the writes of earlier replayed updates landed immediately).
    /// With staging, a failed batch rolls back bit-exactly — tables and stats.
    #[test]
    fn failed_unit_replay_batch_rolls_back_completely() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        let stats = exec.stats();
        let table = exec.output_table();
        // The self-join program unit-replays; the valid deltas fire (and write)
        // before the bad-arity delta is reached, so rollback must undo real writes.
        let failing = [
            insert(2, "FR"),
            insert(3, "DE"),
            Update::insert("C", vec![Value::int(9)]), // arity error
        ];
        let err = exec
            .apply_batch(&DeltaBatch::from_updates(&failing))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
        assert_eq!(exec.output_table(), table, "tables must roll back");
        assert_eq!(exec.stats(), stats, "stats must roll back");
        // The engine is fully usable afterwards.
        exec.apply_batch(&DeltaBatch::from_updates(&[insert(2, "FR")]))
            .unwrap();
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(2));
    }

    /// stage → abort is a bit-exact no-op; stage → commit equals a plain apply_batch —
    /// on both the weighted path and floats (where bit-exactness is the hard part).
    #[test]
    fn stage_abort_round_trips_bit_exactly() {
        let mut catalog = Database::new();
        catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
        let q = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let program = compile(&catalog, &q).unwrap();
        let mut exec = Executor::new(program.clone());
        let row = |c: i64, p: f64, q: i64| {
            Update::insert("Sales", vec![Value::int(c), Value::float(p), Value::int(q)])
        };
        exec.apply(&row(1, 0.1, 1)).unwrap();
        let stats = exec.stats();
        let before: Vec<(Vec<Value>, u64)> = exec
            .output_table()
            .into_iter()
            .map(|(k, v)| (k, v.as_f64().to_bits()))
            .collect();
        // Stage a float batch that perturbs the existing group, then abort.
        let staged = exec
            .stage_batch(&DeltaBatch::from_updates(&[row(1, 0.2, 1), row(2, 0.3, 1)]))
            .unwrap();
        assert!(staged.logged_writes() > 0);
        exec.abort_staged(staged);
        let after: Vec<(Vec<Value>, u64)> = exec
            .output_table()
            .into_iter()
            .map(|(k, v)| (k, v.as_f64().to_bits()))
            .collect();
        assert_eq!(before, after, "abort must restore float bit patterns");
        assert_eq!(exec.stats(), stats);
        // After the abort, stage + commit matches a fresh executor that never saw the
        // aborted batch applying the same one, stats included.
        let updates = [row(1, 0.2, 1), row(2, 0.3, 1)];
        let batch = DeltaBatch::from_updates(&updates);
        let mut fresh = Executor::new(program);
        fresh.apply(&row(1, 0.1, 1)).unwrap();
        fresh.apply_batch(&batch).unwrap();
        let staged = exec.stage_batch(&batch).unwrap();
        exec.commit_staged(staged);
        assert_eq!(exec.output_table(), fresh.output_table());
        assert_eq!(exec.stats(), fresh.stats());
    }

    /// A failed `stage_update` rolls back even partial multiplicity firings, while the
    /// unlogged `apply` keeps its documented partial semantics.
    #[test]
    fn stage_update_is_atomic_per_update() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        let stats = exec.stats();
        let table = exec.output_table();
        let bad = Update::insert("C", vec![Value::int(9)]);
        assert!(exec.stage_update(&bad).is_err());
        assert_eq!(exec.output_table(), table);
        assert_eq!(exec.stats(), stats);
        // And a successful stage commits to exactly the direct result.
        let staged = exec.stage_update(&insert(2, "FR")).unwrap();
        exec.commit_staged(staged);
        assert_eq!(exec.output_value(&[Value::int(1)]), Number::Int(2));
    }

    #[test]
    fn apply_batch_checks_arity_and_ignores_irrelevant_relations() {
        let mut exec = Executor::new(customers_program());
        exec.apply_batch(&DeltaBatch::from_updates(&[Update::insert(
            "Other",
            vec![Value::int(1)],
        )]))
        .unwrap();
        assert!(exec.output_table().is_empty());
        let err = exec
            .apply_batch(&DeltaBatch::from_updates(&[Update::insert(
                "C",
                vec![Value::int(1)],
            )]))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut exec = Executor::new(customers_program());
        exec.apply(&insert(1, "FR")).unwrap();
        let stats = exec.stats();
        assert_eq!(stats.updates, 1);
        assert!(stats.additions > 0);
        assert!(stats.arithmetic_ops() >= stats.additions);
        exec.reset_stats();
        assert_eq!(exec.stats(), ExecStats::default());
        assert!(exec.total_entries() > 0);
    }

    #[test]
    fn value_aggregation_with_floats() {
        let mut catalog = Database::new();
        catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
        let q = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let mut exec = Executor::new(compile(&catalog, &q).unwrap());
        exec.apply(&Update::insert(
            "Sales",
            vec![Value::int(7), Value::float(2.5), Value::int(4)],
        ))
        .unwrap();
        exec.apply(&Update::insert(
            "Sales",
            vec![Value::int(7), Value::float(1.0), Value::int(3)],
        ))
        .unwrap();
        assert_eq!(exec.output_value(&[Value::int(7)]), Number::Float(13.0));
        exec.apply(&Update::delete(
            "Sales",
            vec![Value::int(7), Value::float(1.0), Value::int(3)],
        ))
        .unwrap();
        assert_eq!(exec.output_value(&[Value::int(7)]), Number::Float(10.0));
    }

    #[test]
    fn duplicate_triggers_dispatch_to_the_first_match_like_the_interpreter() {
        use dbring_compiler::{MapDef, Statement, Trigger};
        // Two triggers on (R, Insert): the first bumps q by 1, the second by 100. Both
        // executors must run the *first* (linear-scan semantics); the compiler never
        // emits duplicates, but hand-built programs may.
        let make_trigger = |coefficient: i64| Trigger {
            relation: "R".to_string(),
            sign: dbring_delta::Sign::Insert,
            params: vec!["@R_A".to_string()],
            statements: vec![Statement {
                target: 0,
                target_keys: vec![],
                coefficient: Number::Int(coefficient),
                factors: vec![],
            }],
        };
        let program = TriggerProgram {
            maps: vec![MapDef {
                id: 0,
                name: "q".to_string(),
                key_vars: vec![],
                definition: dbring_agca::ast::Expr::int(0),
                degree: 0,
            }],
            triggers: vec![make_trigger(1), make_trigger(100)],
            output: 0,
        };
        let mut lowered = Executor::new(program.clone());
        let mut interpreted = crate::interp::InterpretedExecutor::new(program);
        let update = Update::insert("R", vec![Value::int(7)]);
        lowered.apply(&update).unwrap();
        interpreted.apply(&update).unwrap();
        assert_eq!(lowered.output_value(&[]), Number::Int(1));
        assert_eq!(lowered.output_table(), interpreted.output_table());
    }

    #[test]
    fn plan_is_exposed_and_matches_the_program_shape() {
        let exec = Executor::new(customers_program());
        let plan = exec.plan();
        assert_eq!(plan.triggers.len(), exec.program().triggers.len());
        assert_eq!(plan.map_arities.len(), exec.program().maps.len());
        assert!(plan.op_count() > 0);
    }

    #[test]
    fn try_new_surfaces_lowering_errors_instead_of_panicking() {
        let mut program = customers_program();
        // Break the program after compilation: a statement targeting a missing map.
        program.triggers[0].statements[0].target = 99;
        assert!(matches!(
            Executor::try_new(program),
            Err(LowerError::Invalid(_))
        ));
        assert!(Executor::try_new(customers_program()).is_ok());
    }
}
