//! A common interface over the maintenance strategies, so experiments, tests and
//! benchmarks can drive recursive IVM (the lowered [`Executor`]) and its baselines
//! ([`ClassicalIvm`](crate::baseline::ClassicalIvm),
//! [`NaiveReeval`](crate::baseline::NaiveReeval)) interchangeably.

use std::collections::BTreeMap;

use dbring_algebra::Number;
use dbring_relations::{Update, Value};

use crate::engine::ViewEngine;
use crate::executor::Executor;
use crate::storage::ViewStorage;

/// A view-maintenance strategy: consumes single-tuple updates and can report the current
/// query result (a table from group keys to aggregate values).
pub trait MaintenanceStrategy {
    /// A short name used in experiment output: the strategy family
    /// ("recursive-ivm", "classical-ivm", "naive").
    fn strategy_name(&self) -> &'static str;

    /// Applies one single-tuple update.
    fn apply_update(&mut self, update: &Update) -> Result<(), String>;

    /// The current query result as a sorted table. Groups whose aggregate is zero may be
    /// omitted.
    fn current_result(&self) -> BTreeMap<Vec<Value>, Number>;

    /// The aggregate value for one group key (zero if the group is absent), probed
    /// directly rather than through a materialized [`current_result`] table.
    ///
    /// [`current_result`]: MaintenanceStrategy::current_result
    fn result_value(&self, key: &[Value]) -> Number;
}

/// Recursive IVM on any [`ViewStorage`], named like its [`ViewEngine`] impl.
impl<S: ViewStorage + Send + 'static> MaintenanceStrategy for Executor<S> {
    fn strategy_name(&self) -> &'static str {
        self.engine_name()
    }

    fn apply_update(&mut self, update: &Update) -> Result<(), String> {
        self.apply(update).map_err(|e| e.to_string())
    }

    fn current_result(&self) -> BTreeMap<Vec<Value>, Number> {
        self.output_table()
    }

    fn result_value(&self, key: &[Value]) -> Number {
        self.output_value(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;
    use dbring_compiler::{compile, TriggerProgram};
    use dbring_relations::{Database, DeltaBatch};

    fn sum_program() -> TriggerProgram {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x))").unwrap();
        compile(&catalog, &q).unwrap()
    }

    #[test]
    fn executor_implements_the_strategy_interface() {
        let mut strategy: Box<dyn MaintenanceStrategy> =
            Box::new(crate::executor::Executor::new(sum_program()));
        assert_eq!(strategy.strategy_name(), "recursive-ivm");
        strategy
            .apply_update(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        strategy
            .apply_update(&Update::insert("R", vec![Value::int(2)]))
            .unwrap();
        assert_eq!(strategy.result_value(&[]), Number::Int(2));
        assert_eq!(strategy.current_result().len(), 1);
    }

    #[test]
    fn batch_application_agrees_with_per_update_application_for_every_strategy() {
        let updates: Vec<Update> = (0..12)
            .map(|i| Update::insert("R", vec![Value::int(i % 4)]))
            .chain((0..3).map(|i| Update::delete("R", vec![Value::int(i)])))
            .collect();
        // Strategies apply one update at a time; the executor's own batch path must
        // reach the same result.
        let mut batched = Executor::new(sum_program());
        batched
            .apply_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        let mut per_update: Box<dyn MaintenanceStrategy> = Box::new(Executor::new(sum_program()));
        for u in &updates {
            per_update.apply_update(u).unwrap();
        }
        assert_eq!(per_update.current_result(), batched.output_table());
    }
}
