//! The reference interpreter: trigger programs executed directly over the string-named
//! IR, with one `HashMap<String, Value>` environment per candidate binding.
//!
//! This was the executor's original inner loop. It remains as the *semantic reference*
//! for the slot-resolved [`Executor`](crate::executor::Executor): slower (per-factor name
//! hashing, per-binding environment clones, per-call bound-position derivation) but
//! simple enough to audit at a glance. The equivalence tests and the
//! `per_update_latency` bench run both paths against each other; work counters
//! ([`ExecStats`]) are maintained identically so the comparison is exact, not just
//! end-state equal. It is a test oracle, not an engine host: it has no stage/commit
//! protocol and no `ViewEngine` impl, and every write lands immediately.

use std::collections::{HashMap, HashSet};

use dbring_algebra::{Number, Semiring};
use dbring_relations::{Database, DeltaBatch, Update, Value};

use dbring_agca::eval::{compare_values, EvalError};
use dbring_compiler::{RhsFactor, ScalarExpr, Statement, TriggerProgram};
use dbring_delta::Sign;

use crate::executor::{ExecStats, RuntimeError};
use crate::storage::{HashViewStorage, ViewStorage};

/// The name-resolving reference executor for one compiled trigger program, on
/// [`HashViewStorage`] like the lowered [`Executor`](crate::executor::Executor).
#[derive(Clone, Debug)]
pub struct InterpretedExecutor {
    program: TriggerProgram,
    maps: Vec<HashViewStorage>,
    stats: ExecStats,
}

impl InterpretedExecutor {
    /// Creates an interpreter with empty views (correct when starting from the empty
    /// database; otherwise call [`InterpretedExecutor::initialize_from`]).
    pub fn new(program: TriggerProgram) -> Self {
        let mut maps: Vec<HashViewStorage> = program
            .maps
            .iter()
            .map(|m| HashViewStorage::new(m.key_vars.len()))
            .collect();
        // Register the slice indexes each statement will need: for every lookup, the key
        // positions that are bound (by parameters or earlier lookups) at that point.
        for trigger in &program.triggers {
            for stmt in &trigger.statements {
                let mut bound: HashSet<&str> = trigger.params.iter().map(String::as_str).collect();
                for factor in &stmt.factors {
                    if let RhsFactor::MapLookup { map, keys } = factor {
                        let positions: Vec<usize> = keys
                            .iter()
                            .enumerate()
                            .filter(|(_, k)| bound.contains(k.as_str()))
                            .map(|(i, _)| i)
                            .collect();
                        if !positions.is_empty() && positions.len() < keys.len() {
                            maps[*map].register_index(positions);
                        }
                        bound.extend(keys.iter().map(String::as_str));
                    }
                }
            }
        }
        InterpretedExecutor {
            program,
            maps,
            stats: ExecStats::default(),
        }
    }

    /// The compiled program this interpreter runs.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Resets the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// The storage of one materialized view.
    pub fn map(&self, id: usize) -> &HashViewStorage {
        &self.maps[id]
    }

    /// The output view's storage.
    pub fn output(&self) -> &HashViewStorage {
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

    /// Total number of entries across all views.
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(HashViewStorage::len).sum()
    }

    /// The aggregate memory proxy of the whole view hierarchy: entries plus the
    /// secondary-index structure the storage maintains next to them (identical
    /// accounting to the lowered [`Executor`](crate::executor::Executor)).
    pub fn storage_footprint(&self) -> crate::storage::StorageFootprint {
        self.maps
            .iter()
            .map(HashViewStorage::footprint)
            .fold(Default::default(), crate::storage::StorageFootprint::merge)
    }

    /// Loads every view from a non-empty starting database (the same bulk-load routine
    /// the lowered [`Executor`](crate::executor::Executor) uses, so both paths
    /// initialize identically).
    pub fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError> {
        crate::executor::initialize_maps(&self.program, &mut self.maps, db)
    }

    /// Applies a single-tuple update by interpreting the matching trigger. As in the
    /// lowered executor, an update with multiplicity 0 is an explicit no-op: it fires
    /// nothing, checks nothing (not even arity) and leaves the work counters untouched.
    ///
    /// On error the update may be partially applied.
    pub fn apply(&mut self, update: &Update) -> Result<(), RuntimeError> {
        if update.multiplicity == 0 {
            return Ok(());
        }
        let sign = if update.multiplicity >= 0 {
            Sign::Insert
        } else {
            Sign::Delete
        };
        let count = update.multiplicity.unsigned_abs();
        self.fire(&update.relation, sign, &update.values, count, false)
    }

    /// Applies a sequence of updates.
    ///
    /// **Not atomic:** updates are applied in order, and a failure leaves every update
    /// *before* the failing one applied. The error is wrapped in
    /// [`RuntimeError::AtUpdate`] carrying the failing update's index, exactly like the
    /// lowered [`Executor::apply_all`](crate::executor::Executor::apply_all).
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

    /// Applies a normalized [`DeltaBatch`]: the reference counterpart of the lowered
    /// [`Executor::apply_batch`](crate::executor::Executor::apply_batch), maintaining
    /// the same semantics (consolidation, weighted firing for triggers whose delta is
    /// degree ≤ 1 in the updated relation, unit replay otherwise) and identical
    /// [`ExecStats`] accounting, so the two batch paths can be tested against each
    /// other exactly.
    ///
    /// **Not atomic:** the interpreter writes per delta, so a mid-group error leaves
    /// earlier groups (and the failing group's earlier deltas) applied.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<(), RuntimeError> {
        for group in batch.groups() {
            let sign = if group.is_insert() {
                Sign::Insert
            } else {
                Sign::Delete
            };
            for (values, weight) in group.deltas() {
                self.fire(group.relation(), sign, values, weight.unsigned_abs(), true)?;
            }
        }
        Ok(())
    }

    /// Fires the `(relation, sign)` trigger for `count` copies of one tuple (a no-op
    /// when the program has no such trigger). Per-update and unit-replay firings run
    /// `count` times at scale 1; a `batched` tuple whose trigger admits weighted
    /// firing fires once with its writes scaled by `count`. Weighted firing reads no
    /// map the trigger writes, so these immediate writes and the lowered path's
    /// deferred ones land in identical final states.
    fn fire(
        &mut self,
        relation: &str,
        sign: Sign,
        values: &[Value],
        count: u64,
        batched: bool,
    ) -> Result<(), RuntimeError> {
        let Self {
            program,
            maps,
            stats,
        } = self;
        let Some(trigger) = program
            .triggers
            .iter()
            .find(|t| t.relation == relation && t.sign == sign)
        else {
            return Ok(());
        };
        if trigger.params.len() != values.len() {
            return Err(RuntimeError::ArityMismatch {
                relation: relation.to_string(),
                expected: trigger.params.len(),
                got: values.len(),
            });
        }
        let env: HashMap<String, Value> = trigger
            .params
            .iter()
            .cloned()
            .zip(values.iter().cloned())
            .collect();
        let (firings, scale) = if batched && trigger.supports_weighted_firing() {
            (1, count)
        } else {
            (count, 1)
        };
        for _ in 0..firings {
            stats.updates += scale;
            for stmt in &trigger.statements {
                Self::execute_statement(maps, stats, stmt, &env, Number::Int(scale as i64))?;
            }
        }
        Ok(())
    }

    /// Interprets one statement against `base_env`, writing `scale ×` its deltas
    /// (`scale` is 1 for single-tuple firings, the consolidated weight for the batch
    /// path's weighted firings).
    fn execute_statement(
        maps: &mut [HashViewStorage],
        stats: &mut ExecStats,
        stmt: &Statement,
        base_env: &HashMap<String, Value>,
        scale: Number,
    ) -> Result<(), RuntimeError> {
        // The set of candidate bindings, each with the product accumulated so far.
        let mut envs: Vec<(HashMap<String, Value>, Number)> =
            vec![(base_env.clone(), Number::Int(1))];
        for factor in &stmt.factors {
            if envs.is_empty() {
                break;
            }
            match factor {
                RhsFactor::MapLookup { map, keys } => {
                    let storage = &maps[*map];
                    let mut next = Vec::new();
                    for (env, acc) in envs {
                        let mut bound_positions = Vec::new();
                        let mut bound_values = Vec::new();
                        let mut unbound_positions = Vec::new();
                        for (i, key_var) in keys.iter().enumerate() {
                            match env.get(key_var) {
                                Some(v) => {
                                    bound_positions.push(i);
                                    bound_values.push(v.clone());
                                }
                                None => unbound_positions.push(i),
                            }
                        }
                        if unbound_positions.is_empty() {
                            let value = storage.get(&bound_values);
                            if value.is_zero() {
                                continue;
                            }
                            stats.multiplications += 1;
                            next.push((env, acc.mul(&value)));
                        } else {
                            // Enumerate matches through the storage's visitor API (no
                            // materialized match list; see `ViewStorage::for_each_slice`).
                            storage.for_each_slice(
                                &bound_positions,
                                &bound_values,
                                |full_key, value| {
                                    let mut extended = env.clone();
                                    for &i in &unbound_positions {
                                        let var = &keys[i];
                                        let val = full_key[i].clone();
                                        match extended.get(var) {
                                            Some(existing) if *existing != val => return,
                                            _ => {
                                                extended.insert(var.clone(), val);
                                            }
                                        }
                                    }
                                    stats.multiplications += 1;
                                    stats.bindings_enumerated += 1;
                                    next.push((extended, acc.mul(&value)));
                                },
                            );
                        }
                    }
                    envs = next;
                }
                RhsFactor::Scalar(term) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for (env, acc) in envs {
                        let value = eval_scalar(term, &env)?;
                        let number = value
                            .as_number()
                            .ok_or_else(|| RuntimeError::NonNumericValue(term.to_string()))?;
                        if number.is_zero() {
                            continue;
                        }
                        stats.multiplications += 1;
                        next.push((env, acc.mul(&number)));
                    }
                    envs = next;
                }
                RhsFactor::Guard(op, lhs, rhs) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for (env, acc) in envs {
                        let l = eval_scalar(lhs, &env)?;
                        let r = eval_scalar(rhs, &env)?;
                        if op.test(compare_values(&l, &r)) {
                            next.push((env, acc));
                        }
                    }
                    envs = next;
                }
            }
        }
        // Collect all writes first, then apply (a statement never reads its own writes).
        let mut writes: Vec<(Vec<Value>, Number)> = Vec::with_capacity(envs.len());
        for (env, acc) in envs {
            if acc.is_zero() {
                continue;
            }
            let mut key = Vec::with_capacity(stmt.target_keys.len());
            for var in &stmt.target_keys {
                key.push(
                    env.get(var)
                        .cloned()
                        .ok_or_else(|| RuntimeError::UnboundVariable(var.clone()))?,
                );
            }
            writes.push((key, stmt.coefficient.mul(&scale).mul(&acc)));
        }
        for (key, delta) in writes {
            stats.additions += 1;
            maps[stmt.target].add_ref(&key, delta);
        }
        Ok(())
    }
}

fn eval_scalar(term: &ScalarExpr, env: &HashMap<String, Value>) -> Result<Value, RuntimeError> {
    fn numeric(term: &ScalarExpr, env: &HashMap<String, Value>) -> Result<Number, RuntimeError> {
        let v = eval_scalar(term, env)?;
        v.as_number()
            .ok_or_else(|| RuntimeError::NonNumericValue(term.to_string()))
    }
    match term {
        ScalarExpr::Const(v) => Ok(v.clone()),
        ScalarExpr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| RuntimeError::UnboundVariable(x.clone())),
        ScalarExpr::Add(a, b) => Ok(Value::from(numeric(a, env)?.add(&numeric(b, env)?))),
        ScalarExpr::Mul(a, b) => Ok(Value::from(numeric(a, env)?.mul(&numeric(b, env)?))),
        ScalarExpr::Neg(a) => Ok(Value::from(numeric(a, env)?.mul(&Number::Int(-1)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;
    use dbring_compiler::compile;

    #[test]
    fn interpreter_maintains_the_example_1_2_trace() {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
        let mut exec = InterpretedExecutor::new(compile(&catalog, &q).unwrap());
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
            assert_eq!(exec.output_value(&[]), Number::Int(expected));
        }
        assert_eq!(exec.stats().updates, 7);
        exec.reset_stats();
        assert_eq!(exec.stats(), ExecStats::default());
        assert!(exec.total_entries() > 0);
        assert!(exec.program().statement_count() > 0);
        assert_eq!(exec.map(exec.program().output).len(), exec.output().len());
    }

    #[test]
    fn interpreter_batch_path_matches_the_lowered_batch_path_exactly() {
        let mut catalog = Database::new();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
        // One unit-replay query and one weighted (degree-1) query.
        let queries = [
            parse_query("q[c] := Sum(C(c, n) * C(c2, n))").unwrap(),
            dbring_agca::sql::parse_sql(
                "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
                &catalog,
            )
            .unwrap(),
        ];
        let updates: Vec<Update> = (0..20)
            .flat_map(|i| {
                [
                    Update::insert("C", vec![Value::int(i % 6), Value::int(i % 3)]),
                    Update::insert(
                        "Sales",
                        vec![Value::int(i % 4), Value::float(1.5), Value::int(i % 5)],
                    ),
                ]
            })
            .collect();
        let batch = dbring_relations::DeltaBatch::from_updates(&updates);
        for query in &queries {
            let program = compile(&catalog, query).unwrap();
            let mut interp = InterpretedExecutor::new(program.clone());
            interp.apply_batch(&batch).unwrap();
            let mut lowered = crate::executor::Executor::new(program.clone());
            lowered.apply_batch(&batch).unwrap();
            assert_eq!(interp.output_table(), lowered.output_table());
            assert_eq!(interp.total_entries(), lowered.total_entries());
            assert_eq!(interp.stats(), lowered.stats(), "on {}", query.name);
            // And the batch matches the per-update reference semantics.
            let mut per_tuple = InterpretedExecutor::new(program);
            per_tuple.apply_all(&updates).unwrap();
            assert_eq!(interp.output_table(), per_tuple.output_table());
        }
    }

    #[test]
    fn interpreter_no_ops_zero_multiplicity_and_indexes_apply_all_errors() {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x))").unwrap();
        let mut exec = InterpretedExecutor::new(compile(&catalog, &q).unwrap());
        let mut zero = Update::insert("R", vec![Value::int(1)]);
        zero.multiplicity = 0;
        exec.apply(&zero).unwrap();
        assert_eq!(exec.stats(), ExecStats::default());
        let err = exec
            .apply_all(&[
                Update::insert("R", vec![Value::int(1)]),
                Update::insert("R", vec![]),
            ])
            .unwrap_err();
        assert!(matches!(&err, RuntimeError::AtUpdate { index: 1, source }
                if matches!(**source, RuntimeError::ArityMismatch { .. })));
        assert_eq!(exec.stats().updates, 1, "update 0 was already applied");
    }

    #[test]
    fn interpreter_initializes_from_a_database_and_checks_arity() {
        let mut catalog = Database::new();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        let q = parse_query("q[c] := Sum(C(c, n) * C(c2, n))").unwrap();
        let program = compile(&catalog, &q).unwrap();
        let mut db = catalog.clone();
        let updates: Vec<Update> = (0..10)
            .map(|i| {
                Update::insert(
                    "C",
                    vec![Value::int(i), Value::str(["FR", "DE"][(i % 2) as usize])],
                )
            })
            .collect();
        db.apply_all(&updates).unwrap();
        let mut streamed = InterpretedExecutor::new(program.clone());
        streamed.apply_all(&updates).unwrap();
        let mut initialized = InterpretedExecutor::new(program);
        initialized.initialize_from(&db).unwrap();
        assert_eq!(streamed.output_table(), initialized.output_table());
        // Irrelevant updates are ignored; wrong arity errors.
        streamed
            .apply(&Update::insert("Other", vec![Value::int(1)]))
            .unwrap();
        assert!(matches!(
            streamed.apply(&Update::insert("C", vec![Value::int(1)])),
            Err(RuntimeError::ArityMismatch { .. })
        ));
    }
}
