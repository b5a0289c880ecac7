//! Experiment E11 — what a `Ring` buys: total per-update cost of maintaining `k`
//! standing views from one stream, as one `Ring` (shared `DeltaBatch` normalization,
//! routed dispatch, one ingest path) against `k` independent
//! `Executor::apply_batch` loops (each with its own normalizer, re-normalizing the same
//! updates).
//!
//! Two ring configurations are measured:
//!
//! * **ring** — the default: base-snapshot tracking on, so views can be created
//!   mid-stream and backfilled. The snapshot is the capability the independent views
//!   do not have; its maintenance cost is part of this row.
//! * **ring·untracked** — `without_base_tracking()`: capability parity with the
//!   independent views (neither retains any base state), isolating the pure
//!   amortization win.
//!
//! Every point asserts, per view, that the ring and the independent baseline reach
//! *identical* result tables and *exactly* equal `ExecStats` — routed shared-batch
//! dispatch moves normalization, never ring work (the CI smoke runs `--quick`).
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_ring`
//! (add `-- --quick` for a faster, smaller sweep)

use dbring_bench::{fmt_ns, header, ring_point, write_bench_json, BenchRow, RingPoint};
use dbring_workloads::{sales_dashboard, MultiViewWorkload, WorkloadConfig};

fn sweep(
    workload: &MultiViewWorkload,
    view_counts: &[usize],
    batch_sizes: &[usize],
) -> Vec<RingPoint> {
    let mut points = Vec::new();
    println!(
        "{:>5} | {:>5} | {:>10} | {:>13} | {:>10} | {:>7} | {:>9} | {:>9}",
        "views",
        "batch",
        "ring/upd",
        "untracked/upd",
        "indep/upd",
        "speedup",
        "spd(untr)",
        "ops/upd"
    );
    for &k in view_counts {
        for &batch in batch_sizes {
            let p = ring_point(workload, k, batch);
            println!(
                "{:>5} | {:>5} | {:>10} | {:>13} | {:>10} | {:>6.2}x | {:>8.2}x | {:>9.1}",
                p.views,
                p.batch_size,
                fmt_ns(p.ring_ns),
                fmt_ns(p.ring_untracked_ns),
                fmt_ns(p.independent_ns),
                p.speedup(),
                p.untracked_speedup(),
                p.ops_per_update,
            );
            points.push(p);
        }
    }
    points
}

/// Runs [`sweep`] under the acceptance gate: with k >= 4 views, ingesting one stream
/// into a ring must beat k independent `apply_batch` loops at capability parity.
/// Because this is a wall-clock gate (unlike the
/// deterministic table/ExecStats parity asserted inside every `ring_point`), a loaded
/// runner can lose a single sample to scheduler noise — so a failed attempt is
/// re-measured up to two times before the gate trips for real.
fn gated_sweep(
    workload: &MultiViewWorkload,
    view_counts: &[usize],
    batch_sizes: &[usize],
) -> Vec<RingPoint> {
    const ATTEMPTS: usize = 3;
    for attempt in 1..=ATTEMPTS {
        let points = sweep(workload, view_counts, batch_sizes);
        let winning = points
            .iter()
            .filter(|p| p.views >= 4 && p.untracked_speedup() > 1.0)
            .count();
        if winning > 0 {
            return points;
        }
        if attempt < ATTEMPTS {
            println!(
                "no winning k >= 4 point on attempt {attempt}/{ATTEMPTS} \
                 (timing noise?); re-measuring"
            );
        }
    }
    panic!(
        "no k >= 4 configuration where the ring beats independent views \
         in {ATTEMPTS} attempts"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        WorkloadConfig {
            seed: 42,
            initial_size: 400,
            stream_length: 800,
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
    let workload = sales_dashboard(config);
    let view_counts: &[usize] = if quick { &[4] } else { &[2, 4, 6] };
    let batch_sizes: &[usize] = if quick { &[64] } else { &[16, 64, 512] };

    header(&format!(
        "E11 — ring of k views vs k independent views ({}, |initial| = {}, |stream| = {})",
        workload.name,
        workload.initial.len(),
        workload.stream.len()
    ));
    println!(
        "per-update figures are the TOTAL cost of keeping all k views fresh; every point \
         asserts per-view table equality and exact ExecStats parity across all three paths"
    );

    let mut winning = 0usize;
    let mut eligible = 0usize;
    let mut rows: Vec<BenchRow> = Vec::new();
    let points = gated_sweep(&workload, view_counts, batch_sizes);
    for p in &points {
        if p.views >= 4 {
            eligible += 1;
            if p.untracked_speedup() > 1.0 {
                winning += 1;
            }
        }
        // Series names keep the `hash` segment of the recorded BENCH_exp_ring.json rows.
        for (series, ns) in [
            ("ring", p.ring_ns),
            ("ring-untracked", p.ring_untracked_ns),
            ("independent", p.independent_ns),
        ] {
            rows.push(BenchRow {
                series: format!("hash/k{}/{series}", p.views),
                batch_size: p.batch_size,
                ns_per_update: ns,
                ops_per_update: p.ops_per_update,
            });
        }
    }
    let best = points
        .iter()
        .filter(|p| p.views >= 4)
        .max_by(|a, b| a.untracked_speedup().total_cmp(&b.untracked_speedup()));
    if let Some(p) = best {
        println!(
            "best k >= 4 amortization: {} views, batch {} -> {:.2}x \
             (untracked; {:.2}x with snapshot tracking)",
            p.views,
            p.batch_size,
            p.untracked_speedup(),
            p.speedup()
        );
    }
    println!(
        "\nring (untracked) beats k >= 4 independent view loops in {winning} of {eligible} \
         measured k >= 4 points"
    );
    match write_bench_json("exp_ring", &rows) {
        Ok(path) => println!("wrote {path} ({} rows)", rows.len()),
        Err(e) => println!("could not write bench json: {e}"),
    }
}
