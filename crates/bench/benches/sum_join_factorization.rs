//! Criterion bench for Experiment E3 (Example 1.3): maintaining the three-way sum join
//! with the factorized compiled program versus evaluating the (unfactorized) first-order
//! delta query per update, at two active-domain sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbring::{compile, ClassicalIvm, Executor, MaintenanceStrategy};
use dbring_workloads::{rst_sum_join, WorkloadConfig};
use std::hint::black_box;

fn bench_sum_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("rst_sum_join_per_update");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for domain in [100usize, 400] {
        let workload = rst_sum_join(WorkloadConfig {
            seed: 9,
            initial_size: 6_000,
            stream_length: 512,
            domain_size: domain,
            delete_fraction: 0.1,
        });
        let initial_db = workload.initial_database();
        let mut loaded = Executor::new(compile(&workload.catalog, &workload.query).unwrap());
        loaded.apply_all(&workload.initial).unwrap();
        let initial_result = loaded.output_table();

        group.bench_with_input(
            BenchmarkId::new("recursive_ivm_factorized", domain),
            &domain,
            |b, _| {
                let mut view = loaded.clone();
                let mut i = 0usize;
                b.iter(|| {
                    let update = &workload.stream[i % workload.stream.len()];
                    view.apply(black_box(update)).unwrap();
                    i += 1;
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("classical_ivm_delta_query", domain),
            &domain,
            |b, _| {
                let mut strategy = ClassicalIvm::with_initial_result(
                    initial_db.clone(),
                    workload.query.clone(),
                    initial_result.clone(),
                )
                .unwrap();
                let mut i = 0usize;
                b.iter(|| {
                    let update = &workload.stream[i % workload.stream.len()];
                    strategy.apply_update(black_box(update)).unwrap();
                    i += 1;
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sum_join);
criterion_main!(benches);
