//! Criterion bench for Experiment E7 (the complexity separation, Theorem 7.1 measured
//! sequentially): per-update latency of recursive IVM versus classical first-order IVM as
//! the initial database size grows. Recursive IVM's curve must stay flat; the baseline's
//! must grow. (Naive re-evaluation is covered by the `exp_separation` binary; it is too
//! slow to include in a Criterion sweep.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbring::{compile, ClassicalIvm, Executor, MaintenanceStrategy};
use dbring_workloads::{customers_by_nation, WorkloadConfig};
use std::hint::black_box;

fn bench_separation(c: &mut Criterion) {
    let mut group = c.benchmark_group("separation_customers");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    for size in [1_000usize, 4_000, 16_000] {
        let workload = customers_by_nation(WorkloadConfig {
            seed: 77,
            initial_size: size,
            stream_length: 512,
            domain_size: 12,
            delete_fraction: 0.2,
        });
        let initial_db = workload.initial_database();
        let mut loaded = Executor::new(compile(&workload.catalog, &workload.query).unwrap());
        loaded.apply_all(&workload.initial).unwrap();
        let initial_result = loaded.output_table();
        group.throughput(Throughput::Elements(1));

        group.bench_with_input(BenchmarkId::new("recursive_ivm", size), &size, |b, _| {
            let mut view = loaded.clone();
            let mut i = 0usize;
            b.iter(|| {
                let update = &workload.stream[i % workload.stream.len()];
                view.apply(black_box(update)).unwrap();
                i += 1;
            });
        });

        group.bench_with_input(BenchmarkId::new("classical_ivm", size), &size, |b, _| {
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
    }
    group.finish();
}

criterion_group!(benches, bench_separation);
criterion_main!(benches);
