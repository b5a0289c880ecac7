//! Experiment E3 — **Example 1.3**: factorization of the delta of
//! `SELECT sum(A*F) FROM R, S, T WHERE B = C AND D = E`.
//!
//! Shows (a) the compiled program, whose `±S` statements are a product of two single-key
//! lookups `(∆Q)₁(c) * (∆Q)₂(d)`; (b) that the factorized views stay *linear* in the
//! active-domain size, while the unfactorized `∆Q(c, d)` view the paper warns about would
//! be quadratic; and (c) that per-update work stays flat as the data grows.
//!
//! Run with: `cargo run --release -p dbring-bench --bin exp_example13`

use dbring::{compile, parse_sql, Executor, Sign};
use dbring_bench::{fmt_ns, header};
use dbring_compiler::RhsFactor;
use dbring_workloads::{rst_sum_join, WorkloadConfig};
use std::time::Instant;

fn main() {
    let catalog = rst_sum_join(WorkloadConfig::small(1)).catalog;
    let query = parse_sql(
        "SELECT SUM(A * F) AS q FROM R, S, T WHERE B = C AND D = E",
        &catalog,
    )
    .unwrap();
    let program = compile(&catalog, &query).unwrap();

    header("compiled program for Example 1.3");
    println!("{}", program.describe());

    let s_stmt = program
        .trigger("S", Sign::Insert)
        .unwrap()
        .statements
        .iter()
        .find(|s| s.target == program.output)
        .unwrap();
    let lookups = s_stmt
        .factors
        .iter()
        .filter(|f| matches!(f, RhsFactor::MapLookup { .. }))
        .count();
    println!(
        "the +S statement for the output map uses {lookups} independent lookups \
         (paper: (∆Q)₁(c) * (∆Q)₂(d))\n"
    );

    header("view sizes and per-update cost as the active domain grows");
    println!(
        "{:>8} | {:>14} | {:>22} | {:>16} | {:>12}",
        "domain", "view entries", "unfactorized ∆Q size", "ops per update", "ns per update"
    );
    for domain in [50usize, 100, 200, 400, 800] {
        let workload = rst_sum_join(WorkloadConfig {
            seed: 13,
            initial_size: 4 * domain,
            stream_length: 2_000,
            domain_size: domain,
            delete_fraction: 0.1,
        });
        let mut view = Executor::new(compile(&workload.catalog, &workload.query).unwrap());
        view.initialize_from(&workload.initial_database()).unwrap();
        view.reset_stats();
        let started = Instant::now();
        view.apply_all(&workload.stream).unwrap();
        let per_update_ns = started.elapsed().as_nanos() as f64 / workload.stream.len() as f64;
        let per_update_ops = view.stats().arithmetic_ops() as f64 / workload.stream.len() as f64;
        // The unfactorized first delta wrt S is a function of the pair (c, d): its tabular
        // representation has one entry per pair of join-key values — quadratic in the
        // domain — which is exactly what factorization avoids.
        println!(
            "{:>8} | {:>14} | {:>22} | {:>16.2} | {:>12}",
            domain,
            view.total_entries(),
            domain * domain,
            per_update_ops,
            fmt_ns(per_update_ns)
        );
    }
    println!(
        "\nfactorized views grow linearly with the domain; the hypothetical unfactorized \
         ∆Q view grows quadratically; per-update arithmetic stays flat"
    );
}
