//! Criterion bench for Experiment E5 (Example 5.2): per-update maintenance of the grouped
//! customers-by-nation query, plus the cost of compiling it and of initializing the view
//! hierarchy from a loaded database.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbring::{compile, Executor};
use dbring_workloads::{customers_by_nation, WorkloadConfig};
use std::hint::black_box;

fn bench_customers(c: &mut Criterion) {
    let mut group = c.benchmark_group("customers_group_by");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Compilation cost (query -> trigger program).
    let workload = customers_by_nation(WorkloadConfig::small(3));
    group.bench_function("compile_query", |b| {
        b.iter(|| black_box(compile(&workload.catalog, &workload.query).unwrap()));
    });

    for size in [2_000usize, 8_000] {
        let workload = customers_by_nation(WorkloadConfig {
            seed: 3,
            initial_size: size,
            stream_length: 512,
            domain_size: 12,
            delete_fraction: 0.2,
        });
        let initial_db = workload.initial_database();
        let program = compile(&workload.catalog, &workload.query).unwrap();

        // Evaluating the view definitions over a loaded database is only benchmarked at
        // the smaller size (it materializes the full self-join, which is exactly the cost
        // the incremental path avoids).
        if size == 2_000 {
            group.bench_with_input(
                BenchmarkId::new("initialize_views_from_db", size),
                &size,
                |b, _| {
                    b.iter(|| {
                        let mut exec = Executor::new(program.clone());
                        exec.initialize_from(black_box(&initial_db)).unwrap();
                        black_box(exec.total_entries())
                    });
                },
            );
        }

        let mut loaded = Executor::new(program.clone());
        loaded.apply_all(&workload.initial).unwrap();

        group.bench_with_input(
            BenchmarkId::new("recursive_ivm_per_update", size),
            &size,
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
    }
    group.finish();
}

criterion_group!(benches, bench_customers);
criterion_main!(benches);
