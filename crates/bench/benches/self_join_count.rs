//! Criterion bench for Experiment E2 (Example 1.2): per-update maintenance of the
//! self-join count under the three strategies, at a fixed database size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dbring::{compile, ClassicalIvm, Executor, MaintenanceStrategy, NaiveReeval};
use dbring_workloads::{self_join_count, WorkloadConfig};
use std::hint::black_box;

fn bench_self_join(c: &mut Criterion) {
    let workload = self_join_count(WorkloadConfig {
        seed: 7,
        initial_size: 5_000,
        stream_length: 512,
        domain_size: 100,
        delete_fraction: 0.2,
    });
    let initial_db = workload.initial_database();
    // Bulk-load the starting database once by streaming it through the compiled triggers;
    // the baselines are seeded with the identical starting result.
    let mut loaded = Executor::new(compile(&workload.catalog, &workload.query).unwrap());
    loaded.apply_all(&workload.initial).unwrap();
    let initial_result = loaded.output_table();

    let mut group = c.benchmark_group("self_join_count_per_update");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("recursive_ivm", |b| {
        let mut view = loaded.clone();
        let mut i = 0usize;
        b.iter(|| {
            let update = &workload.stream[i % workload.stream.len()];
            view.apply(black_box(update)).unwrap();
            i += 1;
        });
    });

    group.bench_function("classical_ivm", |b| {
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
    });

    // Naive re-evaluation is far slower; measure it over single updates from a cloned
    // starting state so the database does not keep growing across samples.
    group.sample_size(10);
    group.bench_function("naive_reevaluation", |b| {
        let strategy = NaiveReeval::new(initial_db.clone(), workload.query.clone()).unwrap();
        let mut i = 0usize;
        b.iter_batched(
            || strategy.clone(),
            |mut s| {
                let update = &workload.stream[i % workload.stream.len()];
                s.apply_update(black_box(update)).unwrap();
                i += 1;
                s
            },
            BatchSize::LargeInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_self_join);
criterion_main!(benches);
