//! Shared machinery for the `dbring` experiment binaries (`exp_*`) and Criterion benches.
//!
//! Every binary regenerates one table or figure of the paper and prints it in a form
//! directly comparable to `EXPERIMENTS.md`. Wall-clock measurement of ingest,
//! publication and serving lives in the end-to-end benchmark under `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use dbring::{compile, ClassicalIvm, Executor, MaintenanceStrategy, NaiveReeval};
use dbring_workloads::Workload;
use serde::Serialize;

/// One row of the complexity-separation sweep: per-update cost of each strategy at a given
/// initial database size.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepPoint {
    /// Initial database size (number of bulk-loaded updates).
    pub initial_size: usize,
    /// Mean per-update latency of recursive IVM, in nanoseconds.
    pub recursive_ns: f64,
    /// Mean arithmetic operations per update performed by recursive IVM.
    pub recursive_ops: f64,
    /// Mean per-update latency of classical first-order IVM, in nanoseconds.
    pub classical_ns: f64,
    /// Mean per-update latency of naive re-evaluation, in nanoseconds.
    pub naive_ns: f64,
    /// Number of stream updates actually measured for the naive strategy (it is capped so
    /// the sweep terminates in reasonable time).
    pub naive_measured: usize,
}

/// Measures the mean per-update latency of a strategy over (a prefix of) a stream.
pub fn measure_per_update(
    strategy: &mut dyn MaintenanceStrategy,
    stream: &[dbring::Update],
    limit: usize,
) -> (Duration, usize) {
    let n = stream.len().min(limit).max(1);
    let started = Instant::now();
    for update in &stream[..n] {
        strategy
            .apply_update(update)
            .expect("strategy applies update");
    }
    (started.elapsed() / n as u32, n)
}

/// Runs the three strategies on one workload and reports their per-update cost.
///
/// `classical_limit` and `naive_limit` cap how many stream updates the two baselines
/// replay (their growing per-update cost is what makes them slow; a cap keeps sweeps
/// tractable without changing the trend). A limit of 0 skips the naive strategy.
pub fn sweep_point(workload: &Workload, classical_limit: usize, naive_limit: usize) -> SweepPoint {
    let initial_db = workload.initial_database();

    // Recursive IVM (compiled): bulk-load the initial database by streaming it through the
    // triggers (cheap and memory-bounded even for large starting databases), then measure
    // the stream.
    let mut recursive =
        Executor::new(compile(&workload.catalog, &workload.query).expect("workload compiles"));
    recursive
        .apply_all(&workload.initial)
        .expect("bulk load succeeds");
    let initial_result = recursive.output_table();
    recursive.reset_stats();
    let started = Instant::now();
    recursive
        .apply_all(&workload.stream)
        .expect("recursive IVM applies stream");
    let recursive_ns = started.elapsed().as_nanos() as f64 / workload.stream.len().max(1) as f64;
    let recursive_ops =
        recursive.stats().arithmetic_ops() as f64 / workload.stream.len().max(1) as f64;

    // Classical first-order IVM, seeded with the (identical) starting result so that the
    // sweep does not pay a from-scratch evaluation of the bulk-loaded database.
    let mut classical = ClassicalIvm::with_initial_result(
        initial_db.clone(),
        workload.query.clone(),
        initial_result,
    )
    .expect("classical baseline initializes");
    let (classical_per_update, _) =
        measure_per_update(&mut classical, &workload.stream, classical_limit.max(1));

    // Naive re-evaluation (capped; a limit of 0 skips it entirely — on large databases the
    // naive strategy materializes the full join result per update, which is exactly the
    // blow-up the experiment is about).
    let (naive_per_update, naive_measured) = if naive_limit == 0 {
        (Duration::ZERO, 0)
    } else {
        let mut naive = NaiveReeval::new(initial_db, workload.query.clone())
            .expect("naive baseline initializes");
        measure_per_update(&mut naive, &workload.stream, naive_limit)
    };

    SweepPoint {
        initial_size: workload.initial.len(),
        recursive_ns,
        recursive_ops,
        classical_ns: classical_per_update.as_nanos() as f64,
        naive_ns: if naive_measured == 0 {
            f64::NAN
        } else {
            naive_per_update.as_nanos() as f64
        },
        naive_measured,
    }
}

/// Renders a finite float as a JSON number, non-finite as `null` (as serde_json does).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders a string as a JSON string literal with the required escapes.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders sweep results as pretty-printed JSON, in the shape serde_json would produce
/// for `Vec<(String, Vec<SweepPoint>)>`: an array of `[name, [point objects]]` pairs.
/// Hand-rolled because the offline `serde` stand-in (see `compat/README.md`) cannot
/// serialize; non-finite floats become `null`, as serde_json renders them.
pub fn sweep_results_json<S: AsRef<str>>(results: &[(S, Vec<SweepPoint>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (name, points)) in results.iter().enumerate() {
        out.push_str("  [\n    ");
        out.push_str(&json_str(name.as_ref()));
        out.push_str(",\n    [\n");
        for (j, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\n        \"initial_size\": {},\n        \"recursive_ns\": {},\n        \
                 \"recursive_ops\": {},\n        \"classical_ns\": {},\n        \
                 \"naive_ns\": {},\n        \"naive_measured\": {}\n      }}{}\n",
                p.initial_size,
                json_f64(p.recursive_ns),
                json_f64(p.recursive_ops),
                json_f64(p.classical_ns),
                json_f64(p.naive_ns),
                p.naive_measured,
                if j + 1 < points.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]\n  ]");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Formats a nanosecond figure with a readable unit (`-` for NaN, i.e. "not measured").
pub fn fmt_ns(ns: f64) -> String {
    if ns.is_nan() {
        "-".to_string()
    } else if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Prints a separating header for experiment output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_workloads::{self_join_count, WorkloadConfig};

    #[test]
    fn sweep_point_produces_sane_numbers() {
        let workload = self_join_count(WorkloadConfig {
            seed: 1,
            initial_size: 50,
            stream_length: 50,
            domain_size: 10,
            delete_fraction: 0.1,
        });
        let point = sweep_point(&workload, 50, 10);
        assert_eq!(point.initial_size, 50);
        assert!(point.recursive_ns > 0.0);
        assert!(point.classical_ns > 0.0);
        assert!(point.naive_ns > 0.0);
        assert!(point.recursive_ops > 0.0);
        assert_eq!(point.naive_measured, 10);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
    }
}
