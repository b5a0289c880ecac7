//! The two baselines the paper's complexity argument compares against.
//!
//! * [`NaiveReeval`] — non-incremental evaluation: re-run the query from scratch after
//!   every update. Per-update cost grows with the database (the `O(n^deg)` data
//!   complexity of Definition 6.3's degree).
//! * [`ClassicalIvm`] — classical first-order incremental view maintenance: materialize
//!   only the query result and, on every update, evaluate the *first* delta query
//!   `∆Q(D, u)` against the stored database (as in the pre-existing IVM literature the
//!   paper departs from). Cheaper than naive evaluation, but the delta query still joins
//!   against base relations, so per-update cost still grows with the database.
//!
//! Both baselines keep the base relations around — unlike the compiled recursive-IVM
//! executor, which only keeps its view hierarchy.

use std::collections::BTreeMap;

use dbring_algebra::{Number, Semiring};
use dbring_relations::{Database, Update, Value};

use dbring_agca::ast::{Expr, Query};
use dbring_agca::eval::{eval, eval_all_groups, EvalError};
use dbring_agca::optimize::optimize_for_evaluation;
use dbring_delta::{delta, Sign, UpdateEvent};

use crate::strategy::MaintenanceStrategy;

/// Non-incremental baseline: recompute the query after every update.
#[derive(Clone, Debug)]
pub struct NaiveReeval {
    db: Database,
    query: Query,
    result: BTreeMap<Vec<Value>, Number>,
}

impl NaiveReeval {
    /// Creates the baseline over a starting database (which may be empty). The query body
    /// is reordered once so that repeated re-evaluation avoids needless cross products.
    pub fn new(db: Database, query: Query) -> Result<Self, EvalError> {
        let bound = query.group_by.iter().cloned().collect();
        let query = Query {
            expr: optimize_for_evaluation(&query.expr, &bound),
            ..query
        };
        let result = eval_all_groups(&query, &db)?;
        Ok(NaiveReeval { db, query, result })
    }

    /// Applies an update and recomputes the result from scratch.
    pub fn apply(&mut self, update: &Update) -> Result<(), EvalError> {
        if self.db.columns(&update.relation).is_some() {
            self.db
                .apply(update)
                .expect("arity checked by the caller or the database");
        }
        self.result = eval_all_groups(&self.query, &self.db)?;
        Ok(())
    }

    /// The current result table.
    pub fn result(&self) -> &BTreeMap<Vec<Value>, Number> {
        &self.result
    }
}

impl MaintenanceStrategy for NaiveReeval {
    fn strategy_name(&self) -> &'static str {
        "naive"
    }
    fn apply_update(&mut self, update: &Update) -> Result<(), String> {
        self.apply(update).map_err(|e| e.to_string())
    }
    fn current_result(&self) -> BTreeMap<Vec<Value>, Number> {
        self.result
            .iter()
            .filter(|(_, v)| !v.is_zero())
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
    fn result_value(&self, key: &[Value]) -> Number {
        self.result.get(key).copied().unwrap_or(Number::Int(0))
    }
}

/// Classical first-order IVM baseline: materialize the result, evaluate `∆Q` per update.
#[derive(Clone, Debug)]
pub struct ClassicalIvm {
    db: Database,
    query: Query,
    /// Per (relation, is-insert): the symbolic event and the delta's body (the expression
    /// under the top-level `Sum`, whose groups are accumulated into the result).
    deltas: Vec<((String, bool), UpdateEvent, Expr)>,
    result: BTreeMap<Vec<Value>, Number>,
}

impl ClassicalIvm {
    /// Creates the baseline over a starting database, precomputing the (first-order) delta
    /// queries for every relation the query mentions.
    pub fn new(db: Database, query: Query) -> Result<Self, EvalError> {
        let result = eval_all_groups(&query, &db)?;
        Self::with_initial_result(db, query, result)
    }

    /// Creates the baseline over a starting database whose query result is already known
    /// (e.g. produced by another maintenance strategy or loaded from a checkpoint), so the
    /// expensive from-scratch evaluation of the starting state can be skipped.
    pub fn with_initial_result(
        db: Database,
        query: Query,
        result: BTreeMap<Vec<Value>, Number>,
    ) -> Result<Self, EvalError> {
        let mut deltas = Vec::new();
        for relation in query.relations() {
            let Some(columns) = db.columns(&relation) else {
                continue;
            };
            let arity = columns.len();
            for sign in [Sign::Insert, Sign::Delete] {
                let event = UpdateEvent::with_fresh_params(relation.clone(), sign, arity, 1);
                let d = delta(&query.expr, &event);
                let body = match d {
                    Expr::Sum(inner) => *inner,
                    other => other,
                };
                // Evaluating the delta query is the per-update cost of this strategy;
                // reorder its monomials once so conditions filter as early as possible.
                let mut bound: std::collections::BTreeSet<String> =
                    query.group_by.iter().cloned().collect();
                bound.extend(event.params.iter().cloned());
                let body = optimize_for_evaluation(&body, &bound);
                deltas.push(((relation.clone(), sign == Sign::Insert), event, body));
            }
        }
        Ok(ClassicalIvm {
            db,
            query,
            deltas,
            result,
        })
    }

    /// Applies an update: evaluates the matching delta query against the *current*
    /// database, folds the change into the materialized result, then updates the stored
    /// database.
    pub fn apply(&mut self, update: &Update) -> Result<(), EvalError> {
        let key = (update.relation.clone(), update.multiplicity > 0);
        let Some((_, event, body)) = self.deltas.iter().find(|(k, _, _)| *k == key) else {
            // The relation does not affect the query; still record the tuple if declared.
            if self.db.columns(&update.relation).is_some() {
                self.db.apply(update).expect("declared relation");
            }
            return Ok(());
        };
        let binding = event.binding(&update.values);
        let change = eval(body, &self.db, &binding)?;
        for (tuple, multiplicity) in change.iter() {
            let mut group_key = Vec::with_capacity(self.query.group_by.len());
            for var in &self.query.group_by {
                match tuple.get(var) {
                    Some(v) => group_key.push(v.clone()),
                    None => return Err(EvalError::UnboundVariable(var.clone())),
                }
            }
            let entry = self.result.entry(group_key).or_insert(Number::Int(0));
            *entry = entry.add(multiplicity);
        }
        self.result.retain(|_, v| !v.is_zero());
        self.db.apply(update).expect("declared relation");
        Ok(())
    }

    /// The current result table.
    pub fn result(&self) -> &BTreeMap<Vec<Value>, Number> {
        &self.result
    }
}

impl MaintenanceStrategy for ClassicalIvm {
    fn strategy_name(&self) -> &'static str {
        "classical-ivm"
    }
    fn apply_update(&mut self, update: &Update) -> Result<(), String> {
        self.apply(update).map_err(|e| e.to_string())
    }
    fn current_result(&self) -> BTreeMap<Vec<Value>, Number> {
        self.result
            .iter()
            .filter(|(_, v)| !v.is_zero())
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
    fn result_value(&self, key: &[Value]) -> Number {
        self.result.get(key).copied().unwrap_or(Number::Int(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;

    fn customer_db() -> Database {
        let mut db = Database::new();
        db.declare("C", &["cid", "nation"]).unwrap();
        db
    }

    fn customer_query() -> Query {
        parse_query("q[c] := Sum(C(c, n) * C(c2, n))").unwrap()
    }

    fn stream(n: i64) -> Vec<Update> {
        (0..n)
            .map(|i| {
                let nation = ["FR", "DE", "IT"][(i % 3) as usize];
                if i % 7 == 6 {
                    Update::delete(
                        "C",
                        vec![
                            Value::int(i - 3),
                            Value::str(["FR", "DE", "IT"][((i - 3) % 3) as usize]),
                        ],
                    )
                } else {
                    Update::insert("C", vec![Value::int(i), Value::str(nation)])
                }
            })
            .collect()
    }

    #[test]
    fn naive_and_classical_agree_on_example_5_2() {
        let mut naive = NaiveReeval::new(customer_db(), customer_query()).unwrap();
        let mut classical = ClassicalIvm::new(customer_db(), customer_query()).unwrap();
        for update in stream(40) {
            naive.apply(&update).unwrap();
            classical.apply(&update).unwrap();
            assert_eq!(
                naive.current_result(),
                classical.current_result(),
                "divergence after {update}"
            );
        }
        assert!(!naive.current_result().is_empty());
    }

    #[test]
    fn classical_ivm_on_scalar_count_query() {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap();
        let mut classical = ClassicalIvm::new(db, q).unwrap();
        let expected = [1i64, 4, 5, 10, 9, 16, 9];
        let trace = [
            Update::insert("R", vec![Value::str("c")]),
            Update::insert("R", vec![Value::str("c")]),
            Update::insert("R", vec![Value::str("d")]),
            Update::insert("R", vec![Value::str("c")]),
            Update::delete("R", vec![Value::str("d")]),
            Update::insert("R", vec![Value::str("c")]),
            Update::delete("R", vec![Value::str("c")]),
        ];
        for (u, e) in trace.iter().zip(expected) {
            classical.apply(u).unwrap();
            assert_eq!(classical.result_value(&[]), Number::Int(e));
        }
    }

    #[test]
    fn classical_ivm_accepts_a_precomputed_starting_result() {
        let mut db = customer_db();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        db.insert("C", vec![Value::int(2), Value::str("FR")])
            .unwrap();
        let precomputed = eval_all_groups(&customer_query(), &db).unwrap();
        let mut from_result =
            ClassicalIvm::with_initial_result(db.clone(), customer_query(), precomputed).unwrap();
        let mut from_scratch = ClassicalIvm::new(db, customer_query()).unwrap();
        let update = Update::insert("C", vec![Value::int(3), Value::str("FR")]);
        from_result.apply(&update).unwrap();
        from_scratch.apply(&update).unwrap();
        assert_eq!(from_result.current_result(), from_scratch.current_result());
    }

    #[test]
    fn baselines_start_from_a_nonempty_database() {
        let mut db = customer_db();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        db.insert("C", vec![Value::int(2), Value::str("FR")])
            .unwrap();
        let naive = NaiveReeval::new(db.clone(), customer_query()).unwrap();
        assert_eq!(naive.result_value(&[Value::int(1)]), Number::Int(2));
        let mut classical = ClassicalIvm::new(db, customer_query()).unwrap();
        assert_eq!(classical.result_value(&[Value::int(1)]), Number::Int(2));
        classical
            .apply(&Update::insert("C", vec![Value::int(3), Value::str("FR")]))
            .unwrap();
        assert_eq!(classical.result_value(&[Value::int(1)]), Number::Int(3));
        assert_eq!(classical.result_value(&[Value::int(3)]), Number::Int(3));
    }

    #[test]
    fn updates_to_undeclared_relations_are_ignored() {
        let mut naive = NaiveReeval::new(customer_db(), customer_query()).unwrap();
        let mut classical = ClassicalIvm::new(customer_db(), customer_query()).unwrap();
        let update = Update::insert("Unrelated", vec![Value::int(1)]);
        naive.apply(&update).unwrap();
        classical.apply(&update).unwrap();
        assert!(naive.current_result().is_empty());
        assert!(classical.current_result().is_empty());
        assert_eq!(naive.strategy_name(), "naive");
        assert_eq!(classical.strategy_name(), "classical-ivm");
    }
}
