//! End-to-end equivalence of the three maintenance strategies on every workload: the
//! compiled recursive-IVM programs must produce exactly the same result tables as
//! classical first-order IVM and naive re-evaluation, across seeds, update mixes and
//! starting databases.

use dbring::{compile, Executor};
use dbring_integration_tests::{
    assert_strategies_agree, assert_tables_match, run_all_strategies, stream_with_oracle,
};
use dbring_workloads::{
    all_workloads, customers_by_nation, rst_sum_join, sales_revenue, self_join_count,
    WorkloadConfig,
};

#[test]
fn all_strategies_agree_on_all_workloads() {
    for seed in [1u64, 2, 3] {
        for workload in all_workloads(WorkloadConfig::small(seed)) {
            assert_strategies_agree(&workload);
        }
    }
}

#[test]
fn all_strategies_agree_with_heavy_deletions() {
    let config = WorkloadConfig {
        seed: 99,
        initial_size: 80,
        stream_length: 160,
        domain_size: 6,
        delete_fraction: 0.45,
    };
    for workload in all_workloads(config) {
        assert_strategies_agree(&workload);
    }
}

#[test]
fn all_strategies_agree_with_insert_only_streams() {
    let config = WorkloadConfig {
        seed: 5,
        initial_size: 0,
        stream_length: 120,
        domain_size: 8,
        delete_fraction: 0.0,
    };
    for workload in all_workloads(config) {
        assert_strategies_agree(&workload);
    }
}

#[test]
fn streaming_from_empty_matches_the_oracle_continuously() {
    // Checks after *every* 25 updates, catching transient divergence that end-of-stream
    // comparison would miss.
    for workload in [
        self_join_count(WorkloadConfig::small(11)),
        customers_by_nation(WorkloadConfig::small(12)),
        rst_sum_join(WorkloadConfig::small(13)),
        sales_revenue(WorkloadConfig::small(14)),
    ] {
        stream_with_oracle(&workload, 25);
    }
}

#[test]
fn initialization_and_streaming_commute() {
    // Loading the initial database into the view hierarchy and then streaming must agree
    // with streaming everything from the start.
    for workload in all_workloads(WorkloadConfig::small(21)) {
        let initial_db = workload.initial_database();
        let program = compile(&workload.catalog, &workload.query).unwrap();
        let mut initialized = Executor::new(program.clone());
        initialized.initialize_from(&initial_db).unwrap();
        let mut streamed = Executor::new(program);
        streamed.apply_all(workload.initial.iter()).unwrap();
        let (a, b) = (initialized.output_table(), streamed.output_table());
        assert_tables_match(&a, &b, workload.name);
        initialized.apply_all(&workload.stream).unwrap();
        streamed.apply_all(&workload.stream).unwrap();
        let (a, b) = (initialized.output_table(), streamed.output_table());
        assert_tables_match(&a, &b, workload.name);
    }
}

#[test]
fn inverse_streams_cancel_exactly() {
    // Applying a stream and then its inverse (in reverse order) returns every view to its
    // initial contents — the additive-inverse property of the ring carried to the runtime.
    let workload = customers_by_nation(WorkloadConfig {
        delete_fraction: 0.0,
        ..WorkloadConfig::small(31)
    });
    let mut view = Executor::new(compile(&workload.catalog, &workload.query).unwrap());
    view.apply_all(&workload.stream).unwrap();
    assert!(!view.output_table().is_empty());
    let inverse: Vec<_> = workload.stream.iter().rev().map(|u| u.inverse()).collect();
    view.apply_all(&inverse).unwrap();
    assert!(
        view.output_table().is_empty(),
        "all groups must cancel back to zero"
    );
    assert_eq!(view.total_entries(), 0);
}

#[test]
fn strategies_report_consistent_scalar_values() {
    // For the scalar (no group-by) workloads the single aggregate value must agree and be
    // retrievable through the strategy interface.
    let workload = self_join_count(WorkloadConfig::small(41));
    let results = run_all_strategies(&workload);
    let values: Vec<_> = results
        .iter()
        .map(|(_, table)| table.get(&vec![]).copied())
        .collect();
    assert_eq!(values[0], values[1]);
    assert_eq!(values[1], values[2]);
}

#[test]
fn recursive_ivm_never_stores_base_relations() {
    // The executor's memory footprint is the view hierarchy only; for the self-join count
    // query that is the per-value multiplicity map (bounded by the active domain), not the
    // number of inserted tuples.
    let workload = self_join_count(WorkloadConfig {
        seed: 51,
        initial_size: 0,
        stream_length: 2_000,
        domain_size: 10,
        delete_fraction: 0.0,
    });
    let exec = stream_with_oracle(&workload, 0);
    // Views: q (1 entry) + one or two per-value maps (≤ 10 entries each); far below the
    // 2000 tuples a stored relation would need.
    assert!(exec.total_entries() <= 1 + 2 * 10);
}

#[test]
fn naive_oracle_handles_duplicate_heavy_domains() {
    // Tiny domain → many duplicate tuples → large multiplicities; exercises the bag
    // semantics of every layer.
    let workload = self_join_count(WorkloadConfig {
        seed: 61,
        initial_size: 30,
        stream_length: 120,
        domain_size: 2,
        delete_fraction: 0.3,
    });
    assert_strategies_agree(&workload);
    let results = run_all_strategies(&workload);
    let value = results[0].1.get(&vec![]).copied().unwrap();
    // With only 2 distinct values and ~100 live tuples the count is necessarily large.
    assert!(value > dbring::Number::Int(100));
}
