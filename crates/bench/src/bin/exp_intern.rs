//! Experiment E14 — what interned fixed-width keys buy: per-update latency of the
//! interned [`BatchNormalizer`](dbring::BatchNormalizer) batch path against the classic
//! `DeltaBatch::from_updates` comparison sort AND against per-tuple `apply_all`, on the
//! E10 hot-key degree-1 workload whose honest verdict was "batching saves 6× the work
//! but loses wall-clock". The recorded gate of PR 8: that row must now flip to a
//! wall-clock **win** (interned speedup vs per-tuple > 1.0), which this binary asserts
//! in full mode (with re-measurement retries, since wall-clock gates are noisy).
//!
//! Parity — identical tables and bit-identical `ExecStats` between the classic and
//! interned paths — is asserted inside every `intern_point`, in `--quick` CI runs too.
//!
//! A string-keyed workload at tiny batch sizes is swept as well, because that is where
//! interning can lose (every fresh string pays a hash + id allocation that the classic
//! comparison sort never does); EXPERIMENTS.md records whatever this prints.
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_intern`
//! (add `-- --quick` for the CI parity smoke; the wall-clock gate only runs full)

use dbring_bench::{fmt_ns, header, intern_point, write_bench_json, BenchRow, InternPoint};
use dbring_workloads::{customers_by_nation, sales_revenue_int, Workload, WorkloadConfig};

fn sweep(workload: &Workload, sizes: &[usize]) -> Vec<InternPoint> {
    let points: Vec<InternPoint> = sizes.iter().map(|&k| intern_point(workload, k)).collect();
    println!(
        "{:>6} | {:>12} | {:>12} | {:>12} | {:>8} | {:>10} | {:>9}",
        "batch", "per-tuple/upd", "classic/upd", "interned/upd", "vs pt", "vs classic", "b ops/upd"
    );
    for p in &points {
        println!(
            "{:>6} | {:>12} | {:>12} | {:>12} | {:>7.2}x | {:>9.2}x | {:>9.1}",
            p.batch_size,
            fmt_ns(p.per_tuple_ns),
            fmt_ns(p.classic_ns),
            fmt_ns(p.interned_ns),
            p.speedup_vs_per_tuple(),
            p.speedup_vs_classic(),
            p.batch_ops,
        );
    }
    points
}

/// Series names keep the `hash` segment of the recorded BENCH_exp_intern.json rows.
fn collect_rows(case: &str, points: &[InternPoint], rows: &mut Vec<BenchRow>) {
    for p in points {
        rows.push(BenchRow {
            series: format!("{case}/hash/per_tuple"),
            batch_size: p.batch_size,
            ns_per_update: p.per_tuple_ns,
            ops_per_update: p.per_tuple_ops,
        });
        rows.push(BenchRow {
            series: format!("{case}/hash/classic"),
            batch_size: p.batch_size,
            ns_per_update: p.classic_ns,
            ops_per_update: p.batch_ops,
        });
        rows.push(BenchRow {
            series: format!("{case}/hash/interned"),
            batch_size: p.batch_size,
            ns_per_update: p.interned_ns,
            ops_per_update: p.batch_ops,
        });
    }
}

/// The E10 hot-key degree-1 row (same config as `exp_batch`): per-customer revenue
/// over 8 hot customers, 20% deletes.
fn hot_key_revenue(quick: bool) -> Workload {
    let (initial, stream) = if quick { (500, 4_096) } else { (2_000, 16_384) };
    sales_revenue_int(WorkloadConfig {
        seed: 101,
        initial_size: initial,
        stream_length: stream,
        domain_size: 8,
        delete_fraction: 0.2,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[256, 1_024]
    } else {
        &[1, 64, 256, 1_024, 4_096]
    };

    let mut rows: Vec<BenchRow> = Vec::new();

    header("E14: interned fixed-width keys vs classic normalization (E10 hot-key row)");
    let workload = hot_key_revenue(quick);
    let mut points = sweep(&workload, sizes);

    if !quick {
        // The recorded gate: the hot-key degree-1 row flips to a wall-clock win.
        // Wall-clock gates are noisy, so re-measure (fresh workload each attempt,
        // like exp_ring) before declaring a regression.
        for attempt in 0..3 {
            let best = points
                .iter()
                .map(InternPoint::speedup_vs_per_tuple)
                .fold(f64::MIN, f64::max);
            if best > 1.0 {
                println!(
                    "gate: hot-key row flips to a wall-clock win \
                     (best interned speedup vs per-tuple: {best:.2}x)"
                );
                break;
            }
            assert!(
                attempt < 2,
                "E14 gate failed after 3 attempts: interned batch path must beat \
                 per-tuple wall-clock on the hot-key row (best {best:.2}x)"
            );
            println!("gate attempt {} inconclusive; re-measuring", attempt + 1);
            points = sweep(&hot_key_revenue(quick), sizes);
        }
    }
    collect_rows("revenue_hot", &points, &mut rows);

    // Where interning can lose: string group keys at tiny batch sizes — every fresh
    // string pays an interner hash that the classic comparison sort never does, and a
    // batch of 1 amortizes nothing. Recorded honestly, not gated.
    header("string keys at small batch sizes (where interning may lose)");
    let strings = customers_by_nation(WorkloadConfig {
        seed: 102,
        initial_size: if quick { 200 } else { 1_000 },
        stream_length: if quick { 1_024 } else { 4_096 },
        domain_size: 12,
        delete_fraction: 0.2,
    });
    let string_sizes: &[usize] = if quick { &[4] } else { &[1, 4, 16] };
    let string_points = sweep(&strings, string_sizes);
    collect_rows("nation_strings", &string_points, &mut rows);

    let path = write_bench_json("exp_intern", &rows).expect("write BENCH_exp_intern.json");
    println!("\nwrote {path} ({} rows)", rows.len());
    if quick {
        println!("parity: interned == classic (tables + exact ExecStats) held on every point");
    }
}
