//! `dbring-lint`: the workspace's static-analysis gate.
//!
//! Compiles every workload query, every `sales-dashboard` view, every example query
//! and the pipeline property-test corpus, runs the plan auditor
//! ([`dbring::audit_program`]) over each compiled program, prints every diagnostic
//! with its stable `DBxxx` code, and exits nonzero if any plan carries an
//! Error-severity finding. CI runs this over every push, so a compiler change that
//! starts emitting dead binds, unused index registrations or ordering hazards fails
//! the build with the offending plan named — instead of shipping as a silent
//! performance or correctness regression.
//!
//! Output format, one line per diagnostic:
//!
//! ```text
//! workload/self-join-count: DB007 info [on +R stmt 0]: …
//! ```
//!
//! followed by a one-line summary (`dbring-lint: 27 plans audited, 0 errors, …`).

use dbring::{audit_program, compile, parse_query, parse_sql, Catalog, Severity};
use dbring_workloads::{all_workloads, sales_dashboard, WorkloadConfig};

/// One compile-and-audit target: where it came from, the schema it compiles
/// against, and its query.
struct Target {
    label: String,
    catalog: Catalog,
    query: dbring::Query,
}

/// The workload corpus: every single-view workload query plus every view of the
/// multi-view dashboard. Stream generation parameters are irrelevant to the plans,
/// so the smallest config does.
fn workload_targets() -> Vec<Target> {
    let config = WorkloadConfig::small(1);
    let mut targets: Vec<Target> = all_workloads(config)
        .into_iter()
        .map(|w| Target {
            label: format!("workload/{}", w.name),
            catalog: w.catalog,
            query: w.query,
        })
        .collect();
    let dashboard = sales_dashboard();
    for (view, query) in dashboard.views {
        targets.push(Target {
            label: format!("workload/{}/{view}", dashboard.name),
            catalog: dashboard.catalog.clone(),
            query,
        });
    }
    targets
}

/// The queries the `examples/` programs maintain, compiled against the same schemas
/// the examples declare.
fn example_targets() -> Vec<Target> {
    let mut targets = Vec::new();

    let mut sales = Catalog::new();
    sales.declare("Sales", &["cust", "price", "qty"]).unwrap();
    for (name, sql) in [
        (
            "quickstart/revenue",
            "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
        ),
        (
            "quickstart/orders",
            "SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust",
        ),
        (
            "quickstart/qty",
            "SELECT cust, SUM(qty) AS qty FROM Sales GROUP BY cust",
        ),
    ] {
        targets.push(Target {
            label: format!("example/{name}"),
            catalog: sales.clone(),
            query: parse_sql(sql, &sales).unwrap(),
        });
    }

    let mut dashboard = Catalog::new();
    dashboard
        .declare("Sales", &["cust", "cents", "qty"])
        .unwrap();
    dashboard
        .declare("Returns", &["cust", "cents", "qty"])
        .unwrap();
    for (name, sql) in [
        (
            "ring_dashboard/revenue",
            "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
        ),
        (
            "ring_dashboard/orders",
            "SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust",
        ),
        (
            "ring_dashboard/refunds",
            "SELECT cust, SUM(cents * qty) AS refunded FROM Returns GROUP BY cust",
        ),
        (
            "ring_dashboard/units",
            "SELECT cust, SUM(qty) AS units FROM Sales GROUP BY cust",
        ),
    ] {
        targets.push(Target {
            label: format!("example/{name}"),
            catalog: dashboard.clone(),
            query: parse_sql(sql, &dashboard).unwrap(),
        });
    }

    let mut unary = Catalog::new();
    unary.declare("R", &["A"]).unwrap();
    targets.push(Target {
        label: "example/customer_nations/q".into(),
        catalog: unary,
        query: parse_query("q := Sum(R(x) * R(y) * (x = y))").unwrap(),
    });

    targets
}

/// The `tests/pipeline_properties.rs` corpus q1–q8 — the hand-picked queries the
/// end-to-end property tests run, kept in lockstep here so the gate covers them.
fn pipeline_corpus_targets() -> Vec<Target> {
    let mut catalog = Catalog::new();
    catalog.declare("C", &["cid", "nation"]).unwrap();
    catalog.declare("R", &["A"]).unwrap();
    catalog.declare("S", &["A"]).unwrap();
    [
        "q1[n] := Sum(C(c, n))",
        "q2[c] := Sum(C(c, n) * C(c2, n))",
        "q3 := Sum(C(c, n) * C(c2, n2) * (n = n2))",
        "q4 := Sum(R(x) * R(y) * (x = y))",
        "q5 := Sum(R(x) * S(x) * x)",
        "q6[c] := Sum(C(c, n) * R(n))",
        "q7 := Sum(C(c, n) * (n >= 2) * n)",
        "q8 := Sum(C(c, n) * C(c2, n) * n)",
    ]
    .iter()
    .map(|text| Target {
        label: format!(
            "corpus/{}",
            text.split_whitespace().next().unwrap_or("query")
        ),
        catalog: catalog.clone(),
        query: parse_query(text).unwrap(),
    })
    .collect()
}

fn main() {
    let mut targets = workload_targets();
    targets.extend(example_targets());
    targets.extend(pipeline_corpus_targets());

    let (mut plans, mut errors, mut warnings, mut infos) = (0usize, 0usize, 0usize, 0usize);
    for target in &targets {
        let program = match compile(&target.catalog, &target.query) {
            Ok(program) => program,
            Err(e) => {
                // A corpus query failing to compile is itself a gate failure.
                println!("{}: compile error: {e}", target.label);
                errors += 1;
                continue;
            }
        };
        plans += 1;
        for diag in audit_program(&program) {
            match diag.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => infos += 1,
            }
            println!("{}: {diag}", target.label);
        }
    }

    println!(
        "dbring-lint: {plans} plans audited, {errors} errors, {warnings} warnings, {infos} infos"
    );
    if errors > 0 {
        std::process::exit(1);
    }
}
