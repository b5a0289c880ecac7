//! Criterion bench: per-tuple `apply_all` against chunked `apply_batch` (DeltaBatch
//! normalization included) at several batch sizes.
//!
//! Every measurement applies the *same* number of stream updates per iteration (one
//! chunk of `batch_size`), so the per-tuple and batch ids at one size are directly
//! comparable; `per_tuple` at size k is the apply_all baseline over the same chunk.
//! Reference numbers and the measured crossover batch sizes live in `EXPERIMENTS.md`
//! (regenerate with `exp_batch`).
//!
//! Run with: `cargo bench -p dbring-bench --bench batch_crossover`
//! (append `-- batch` or `-- per_tuple` to smoke one side only, as CI does).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use dbring::{compile, BatchNormalizer, Executor, TriggerProgram};
use dbring_workloads::{customers_by_nation, sales_revenue_int, WorkloadConfig};
use std::hint::black_box;

/// The measurements at one batch size: identical chunk scheme on both paths. Ids keep
/// the `hash` segment they were recorded under.
fn bench_size(
    group: &mut BenchmarkGroup<'_>,
    case: &str,
    batch_size: usize,
    program: &TriggerProgram,
    workload: &dbring_workloads::Workload,
) {
    let chunks: Vec<&[dbring::Update]> = workload.stream.chunks(batch_size).collect();
    group.bench_function(
        BenchmarkId::new(format!("{case}/hash/per_tuple"), batch_size),
        |b| {
            let mut exec = Executor::new(program.clone());
            exec.apply_all(&workload.initial).unwrap();
            let mut i = 0usize;
            b.iter(|| {
                let chunk = chunks[i % chunks.len()];
                exec.apply_all(black_box(chunk)).unwrap();
                i += 1;
            });
        },
    );
    group.bench_function(
        BenchmarkId::new(format!("{case}/hash/batch"), batch_size),
        |b| {
            let mut exec = Executor::new(program.clone());
            exec.apply_all(&workload.initial).unwrap();
            // The production batch path: interned fixed-width normalization with
            // scratch persisting across iterations, as in `Ring::apply_batch`.
            let mut normalizer = BatchNormalizer::new();
            let mut i = 0usize;
            b.iter(|| {
                let chunk = chunks[i % chunks.len()];
                // Normalization is measured: the per-tuple path does not pay it.
                let batch = normalizer.normalize(black_box(chunk));
                exec.apply_batch(&batch).unwrap();
                i += 1;
            });
        },
    );
}

fn bench_batch_crossover(c: &mut Criterion) {
    // One weighted (degree-1) workload where batching saves ring work, and one
    // unit-replay workload where it can only save dispatch constants.
    let revenue = sales_revenue_int(WorkloadConfig {
        seed: 27,
        initial_size: 1_000,
        stream_length: 1_024,
        domain_size: 64,
        delete_fraction: 0.2,
    });
    let customers = customers_by_nation(WorkloadConfig {
        seed: 28,
        initial_size: 1_000,
        stream_length: 1_024,
        domain_size: 12,
        delete_fraction: 0.2,
    });

    let mut group = c.benchmark_group("batch_crossover");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));

    for (case, workload) in [
        ("sales_revenue_int", &revenue),
        ("customers_by_nation", &customers),
    ] {
        let program = compile(&workload.catalog, &workload.query).unwrap();
        for batch_size in [8usize, 64, 256] {
            bench_size(&mut group, case, batch_size, &program, workload);
        }
    }

    group.finish();
}

criterion_group!(benches, bench_batch_crossover);
criterion_main!(benches);
