//! Experiment E16 — serving reads under sustained ingest: N reader threads acquiring
//! lock-free snapshots of the sales dashboard while one writer thread keeps
//! ingesting, the split [`Ring::reader`] / [`dbring::RingHandle`] is built for.
//!
//! One writer owns the `Ring` and applies the update stream in batches; snapshots
//! are published at each batch commit (the quiescent points). Reader threads hold a
//! [`dbring::RingHandle`] and loop acquire-snapshot → point-lookup, so every sample pays the
//! full serving path: epoch acquire + binary-search probe. Measured per point:
//!
//! * reader throughput (reads/s across all readers) and mean/p50/p95/p99 read latency,
//! * writer throughput (ns per ingested update) with publication enabled,
//! * snapshot publication cost (ns per update, and share of writer wall-clock),
//! * bare snapshot-acquire latency (no lookup), demonstrating O(1) acquire.
//!
//! Three consistency checks run alongside the measurement: a snapshot acquired before
//! the writer starts must be bit-identical after the writer finishes (immutability),
//! every reader must observe monotonically non-decreasing `ingested()` counts
//! (publication never goes backwards), and at the end every view's snapshot must
//! equal its live table — the views no reader touched during the run deferred their
//! commits, so this first acquire builds them.
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_serve`
//! (add `-- --quick` for the CI smoke: hash backend only, fewer readers)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbring::{Ring, RingBuilder, StorageBackend, Value, ViewDef};
use dbring_bench::{fmt_ns, header, write_bench_json, BenchRow};
use dbring_workloads::{sales_dashboard, MultiViewWorkload, WorkloadConfig};

const BATCH: usize = 256;
const READ_VIEW: &str = "revenue_by_cust";

struct ServePoint {
    backend: StorageBackend,
    readers: usize,
    reads_per_sec: f64,
    read_mean_ns: f64,
    read_p50_ns: f64,
    read_p95_ns: f64,
    read_p99_ns: f64,
    acquire_mean_ns: f64,
    write_ns_per_update: f64,
    publish_ns_per_update: f64,
    publish_share: f64,
}

fn build_ring(backend: StorageBackend, workload: &MultiViewWorkload) -> Ring {
    let mut ring = RingBuilder::new(workload.catalog.clone())
        .backend(backend)
        .build();
    for (name, query) in &workload.views {
        ring.create_view(*name, ViewDef::Query(query.clone()))
            .expect("create view");
    }
    ring.apply_batch(&workload.initial).expect("initial load");
    ring
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

fn serve_point(
    backend: StorageBackend,
    workload: &MultiViewWorkload,
    readers: usize,
    domain: usize,
    run_ms: u64,
) -> ServePoint {
    let mut ring = build_ring(backend, workload);
    // Acquire the handle (and so enable serving) BEFORE the writer starts: from here
    // on every batch commit publishes fresh snapshots.
    let handle = ring.reader();

    // Immutability witness: this snapshot must not change while the writer runs.
    let held = handle.snapshot_named(READ_VIEW).expect("snapshot");
    let held_before = held.table();

    let stop = Arc::new(AtomicBool::new(false));

    // One writer thread owns the ring and cycles the stream in batches until told
    // to stop. ℤ-multiplicities make re-applying the stream a valid continuation.
    let writer = {
        let stop = Arc::clone(&stop);
        let stream = workload.stream.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let mut updates = 0u64;
            'outer: loop {
                for chunk in stream.chunks(BATCH) {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    ring.apply_batch(chunk).expect("ingest");
                    updates += chunk.len() as u64;
                }
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            (updates, elapsed, ring)
        })
    };

    // Reader threads: acquire + point-lookup per iteration, sampling latency.
    let reader_threads: Vec<_> = (0..readers)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let handle = handle.clone();
            std::thread::spawn(move || {
                let keys: Vec<Vec<Value>> =
                    (0..domain).map(|k| vec![Value::int(k as i64)]).collect();
                let mut samples: Vec<u64> = Vec::with_capacity(1 << 16);
                let mut last_ingested = 0u64;
                let mut i = r; // stagger starting keys across readers
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let snapshot = handle.snapshot_named(READ_VIEW).expect("snapshot");
                    let value = snapshot.value(&keys[i % keys.len()]);
                    let dt = t0.elapsed().as_nanos() as u64;
                    // Publication must never go backwards for a single reader.
                    assert!(snapshot.ingested() >= last_ingested, "ingested regressed");
                    last_ingested = snapshot.ingested();
                    // Keep the lookup observable so it cannot be optimized away.
                    std::hint::black_box(value);
                    samples.push(dt);
                    i += 1;
                }
                samples
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(run_ms));
    stop.store(true, Ordering::Relaxed);

    let mut samples: Vec<u64> = Vec::new();
    for t in reader_threads {
        samples.extend(t.join().expect("reader thread"));
    }
    let (updates, write_elapsed_ns, ring) = writer.join().expect("writer thread");
    let publish_ns = ring.snapshot_publish_ns();

    // The held snapshot is immutable: the writer's batches never touched it.
    assert_eq!(
        held.table(),
        held_before,
        "held snapshot mutated under ingest"
    );
    // Every view's snapshot is its live table: the read view was published at each
    // commit, the others were deferred and are built by this first acquire.
    for (name, _) in &workload.views {
        assert_eq!(
            handle.snapshot_named(name).expect("snapshot").table(),
            ring.view_named(name).expect("view").table(),
            "snapshot of {name} differs from the live view"
        );
    }

    // Bare acquire cost, measured after the run on the final published state.
    let acquire_rounds = 10_000u32;
    let t0 = Instant::now();
    for _ in 0..acquire_rounds {
        std::hint::black_box(handle.snapshot_named(READ_VIEW).expect("snapshot"));
    }
    let acquire_mean_ns = t0.elapsed().as_nanos() as f64 / f64::from(acquire_rounds);

    let total_reads = samples.len() as u64;
    let mean = samples.iter().sum::<u64>() as f64 / total_reads.max(1) as f64;
    samples.sort_unstable();
    ServePoint {
        backend,
        readers,
        reads_per_sec: total_reads as f64 / (run_ms as f64 / 1e3),
        read_mean_ns: mean,
        read_p50_ns: quantile(&samples, 0.50),
        read_p95_ns: quantile(&samples, 0.95),
        read_p99_ns: quantile(&samples, 0.99),
        acquire_mean_ns,
        write_ns_per_update: write_elapsed_ns as f64 / updates.max(1) as f64,
        publish_ns_per_update: publish_ns as f64 / updates.max(1) as f64,
        publish_share: publish_ns as f64 / write_elapsed_ns.max(1) as f64,
    }
}

fn rows_for(p: &ServePoint) -> Vec<BenchRow> {
    let prefix = format!("serve/{}/readers{}", p.backend.name(), p.readers);
    let row = |metric: &str, ns: f64, ops: f64| BenchRow {
        series: format!("{prefix}/{metric}"),
        batch_size: BATCH,
        ns_per_update: ns,
        ops_per_update: ops,
    };
    vec![
        row("read_mean_ns", p.read_mean_ns, p.reads_per_sec),
        row("read_p50_ns", p.read_p50_ns, 0.0),
        row("read_p95_ns", p.read_p95_ns, 0.0),
        row("read_p99_ns", p.read_p99_ns, 0.0),
        row("acquire_mean_ns", p.acquire_mean_ns, 0.0),
        row("write_ns_per_update", p.write_ns_per_update, 0.0),
        row(
            "publish_ns_per_update",
            p.publish_ns_per_update,
            p.publish_share,
        ),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        WorkloadConfig {
            seed: 42,
            initial_size: 400,
            stream_length: 1_600,
            domain_size: 50,
            delete_fraction: 0.2,
        }
    } else {
        WorkloadConfig {
            seed: 42,
            initial_size: 4_000,
            stream_length: 24_000,
            domain_size: 100,
            delete_fraction: 0.2,
        }
    };
    let domain = config.domain_size;
    let run_ms: u64 = if quick { 200 } else { 1_500 };
    let reader_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let backends: &[StorageBackend] = if quick {
        &[StorageBackend::Hash]
    } else {
        &[StorageBackend::Hash, StorageBackend::Ordered]
    };
    let workload = sales_dashboard(config);

    header(&format!(
        "E16 — serving reads under sustained ingest on {} ({} views, |initial| = {}, \
         |stream| = {} cycled; 1 writer at batch {}, {} ms per point; reads hit {})",
        workload.name,
        workload.views.len(),
        workload.initial.len(),
        workload.stream.len(),
        BATCH,
        run_ms,
        READ_VIEW,
    ));
    println!(
        "each read = snapshot acquire + point lookup; held-snapshot immutability, \
         per-reader ingest monotonicity and every view's final snapshot == its live \
         table asserted at every point"
    );

    let mut rows = Vec::new();
    for &backend in backends {
        println!(
            "\n[{}] {:>7} | {:>11} | {:>9} | {:>9} | {:>9} | {:>9} | {:>10} | {:>9} | {:>7}",
            backend.name(),
            "readers",
            "reads/s",
            "mean",
            "p50",
            "p95",
            "p99",
            "acquire",
            "write/upd",
            "publish"
        );
        for &readers in reader_counts {
            let p = serve_point(backend, &workload, readers, domain, run_ms);
            println!(
                "[{}] {:>7} | {:>11.0} | {:>9} | {:>9} | {:>9} | {:>9} | {:>10} | {:>9} | {:>6.1}%",
                backend.name(),
                p.readers,
                p.reads_per_sec,
                fmt_ns(p.read_mean_ns),
                fmt_ns(p.read_p50_ns),
                fmt_ns(p.read_p95_ns),
                fmt_ns(p.read_p99_ns),
                fmt_ns(p.acquire_mean_ns),
                fmt_ns(p.write_ns_per_update),
                p.publish_share * 100.0,
            );
            rows.extend(rows_for(&p));
        }
    }

    match write_bench_json("exp_serve", &rows) {
        Ok(path) => println!("\nwrote {} rows to {path}", rows.len()),
        Err(error) => println!("\nfailed to write bench json: {error}"),
    }
}
