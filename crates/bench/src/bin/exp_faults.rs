//! Experiment E13 — what failure atomicity costs: total per-update cost of a ring
//! ingesting one chunked stream with staged (failure-atomic) batches — the default
//! since the stage/commit split — against the same ring built
//! `without_staged_ingest` (byte-for-byte the pre-staging direct path).
//!
//! Staging applies each batch normally while logging one pre-image per map write,
//! then drops the log on commit; on a failure it restores every write bit-exactly.
//! On the failure-free streams measured here the *entire* cost is therefore the undo
//! log: its allocation, its pre-image probes, and its drop. The acceptance target
//! for this repo is staged ingest within ~5% of direct ingest on the dashboard
//! workload.
//!
//! Every point asserts, per view, that the staged ring reaches *identical* result
//! tables and *exactly* equal `ExecStats` — staging must never change what work the
//! executor does, only remember how to undo it (the CI smoke runs `--quick`).
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_faults`
//! (add `-- --quick` for a faster, smaller sweep)

use dbring::{HashViewStorage, OrderedViewStorage};
use dbring_bench::{fault_point, fmt_ns, header, write_bench_json, BenchRow, FaultPoint};
use dbring_workloads::{sales_dashboard, MultiViewWorkload, WorkloadConfig};

const BATCHES_QUICK: &[usize] = &[1, 64];
const BATCHES_FULL: &[usize] = &[1, 64, 512];

fn sweep<S: dbring::ViewStorage + Send + 'static>(
    backend: &str,
    workload: &MultiViewWorkload,
    batches: &[usize],
    rows: &mut Vec<BenchRow>,
) -> Vec<FaultPoint> {
    let mut points = Vec::new();
    println!(
        "[{backend}] {:>5} | {:>5} | {:>10} | {:>10} | {:>8}",
        "views", "batch", "direct/upd", "staged/upd", "overhead"
    );
    let views = workload.views.len();
    for &batch in batches {
        let p = fault_point::<S>(workload, views, batch);
        println!(
            "[{backend}] {:>5} | {:>5} | {:>10} | {:>10} | {:>7.3}x",
            p.views,
            p.batch_size,
            fmt_ns(p.direct_ns),
            fmt_ns(p.staged_ns),
            p.overhead(),
        );
        // `ops_per_update` carries the staged/direct overhead ratio on the
        // staged row so the trajectory is trackable as one number.
        for (metric, ns, ops) in [
            ("direct_ns", p.direct_ns, 0.0),
            ("staged_ns", p.staged_ns, p.overhead()),
        ] {
            rows.push(BenchRow {
                series: format!("faults/{backend}/{metric}"),
                batch_size: p.batch_size,
                ns_per_update: ns,
                ops_per_update: ops,
            });
        }
        points.push(p);
    }
    points
}

fn report_worst(label: &str, points: &[FaultPoint]) {
    if let Some(worst) = points
        .iter()
        .max_by(|a, b| a.overhead().total_cmp(&b.overhead()))
    {
        println!(
            "[{label}] worst staging overhead: {:.3}x at batch {} \
             ({} direct vs {} staged per update)",
            worst.overhead(),
            worst.batch_size,
            fmt_ns(worst.direct_ns),
            fmt_ns(worst.staged_ns),
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let dashboard = sales_dashboard(if quick {
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
    });
    let batches = if quick { BATCHES_QUICK } else { BATCHES_FULL };

    header(&format!(
        "E13 — the price of failure-atomic ingest: staged vs direct batches on {} \
         ({} views, |initial| = {}, |stream| = {}; every point asserts per-view \
         table equality and exact ExecStats parity)",
        dashboard.name,
        dashboard.views.len(),
        dashboard.initial.len(),
        dashboard.stream.len(),
    ));
    println!(
        "batch 1 exercises the per-update staging path; larger batches amortize the \
         undo log across the consolidated flush"
    );

    let mut rows: Vec<BenchRow> = Vec::new();
    let mut points = sweep::<HashViewStorage>("hash", &dashboard, batches, &mut rows);
    points.extend(sweep::<OrderedViewStorage>(
        "ordered", &dashboard, batches, &mut rows,
    ));
    report_worst("dashboard", &points);

    println!(
        "\nparity held at every point above ({} measured); timing is reported as \
         measured — see EXPERIMENTS.md E13 for recorded sweeps and discussion",
        points.len()
    );

    match write_bench_json("exp_faults", &rows) {
        Ok(path) => println!("wrote {} rows to {path}", rows.len()),
        Err(error) => println!("failed to write bench json: {error}"),
    }
}
