//! Seeded synthetic workloads for the `dbring` experiments and benchmarks.
//!
//! The paper itself is a theory paper; its practical successor systems were evaluated on
//! proprietary financial and TPC-H-derived streams that cannot be redistributed. These
//! generators produce the closest controllable equivalents over the *paper's own example
//! schemas*: what matters for the reproduced claims (constant work per update for
//! recursive IVM, growing work for the baselines, factorized views staying linear in the
//! active domain) is the schema shape, the join structure, the update mix and the active
//! domain size — all of which are parameters here. Everything is deterministic given the
//! seed.
//!
//! Provided workloads:
//!
//! * [`self_join_count`] — Example 1.2: `SELECT count(*) FROM R r1, R r2 WHERE r1.A = r2.A`
//!   over a unary relation under inserts and deletes.
//! * [`customers_by_nation`] — Examples 5.2 / 6.2: customers per nation, grouped by
//!   customer id.
//! * [`rst_sum_join`] — Example 1.3: `SELECT sum(A*F) FROM R, S, T WHERE B = C AND D = E`.
//! * [`sales_revenue`] — a per-customer revenue aggregation over a sales stream (the kind
//!   of standing aggregate the paper's introduction motivates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dbring_agca::ast::Query;
use dbring_agca::parser::parse_query;
use dbring_agca::sql::parse_sql;
use dbring_relations::{Database, Update, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation parameters shared by all workloads.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// RNG seed; equal seeds give byte-identical workloads.
    pub seed: u64,
    /// Number of updates used to bulk-load the initial database.
    pub initial_size: usize,
    /// Number of updates in the measured stream.
    pub stream_length: usize,
    /// Size of the active domain each generated key/value is drawn from.
    pub domain_size: usize,
    /// Fraction of stream updates that are deletions of previously inserted tuples
    /// (0.0 … 0.5 is sensible).
    pub delete_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            initial_size: 1_000,
            stream_length: 1_000,
            domain_size: 100,
            delete_fraction: 0.2,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration suitable for unit tests.
    pub fn small(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            initial_size: 50,
            stream_length: 100,
            domain_size: 10,
            delete_fraction: 0.25,
        }
    }

    /// Scales the initial database size, keeping everything else fixed (used by the
    /// complexity-separation sweeps).
    pub fn with_initial_size(mut self, n: usize) -> Self {
        self.initial_size = n;
        self
    }

    /// Sets the measured stream length.
    pub fn with_stream_length(mut self, n: usize) -> Self {
        self.stream_length = n;
        self
    }

    /// Sets the active-domain size.
    pub fn with_domain_size(mut self, n: usize) -> Self {
        self.domain_size = n;
        self
    }
}

/// A fully specified experiment input: schema, query, bulk load, and measured stream.
#[derive(Clone, Debug)]
pub struct Workload {
    /// A short identifier ("self-join-count", "customers-by-nation", …).
    pub name: &'static str,
    /// The declared schema (relation names and column lists, no contents).
    pub catalog: Database,
    /// The standing query to maintain.
    pub query: Query,
    /// Updates that build the initial database.
    pub initial: Vec<Update>,
    /// The measured update stream (applied after the initial load).
    pub stream: Vec<Update>,
}

impl Workload {
    /// The initial database obtained by applying the bulk-load updates to the catalog.
    pub fn initial_database(&self) -> Database {
        let mut db = self.catalog.clone();
        db.apply_all(&self.initial)
            .expect("generated updates are well-formed");
        db
    }

    /// Total number of updates (bulk load + stream).
    pub fn total_updates(&self) -> usize {
        self.initial.len() + self.stream.len()
    }
}

/// A generator of inserts/deletes that deletes only previously inserted tuples, so
/// deletions never push multiplicities negative.
struct StreamBuilder {
    rng: StdRng,
    delete_fraction: f64,
    live: Vec<Update>,
    out: Vec<Update>,
}

impl StreamBuilder {
    fn new(seed: u64, delete_fraction: f64) -> Self {
        StreamBuilder {
            rng: StdRng::seed_from_u64(seed),
            delete_fraction,
            live: Vec::new(),
            out: Vec::new(),
        }
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Emits an insert (or, with probability `delete_fraction`, the deletion of a random
    /// previously inserted tuple instead).
    fn push(&mut self, insert: Update) {
        let delete_now =
            !self.live.is_empty() && self.rng.gen_bool(self.delete_fraction.clamp(0.0, 0.9));
        if delete_now {
            let idx = self.rng.gen_range(0..self.live.len());
            let victim = self.live.swap_remove(idx);
            self.out.push(victim.inverse());
        } else {
            self.live.push(insert.clone());
            self.out.push(insert);
        }
    }

    fn finish(self) -> Vec<Update> {
        self.out
    }
}

/// Example 1.2: the self-join tuple count over a unary relation `R(A)`.
pub fn self_join_count(config: WorkloadConfig) -> Workload {
    let mut catalog = Database::new();
    catalog.declare("R", &["A"]).unwrap();
    let query = parse_query("self_join_count := Sum(R(x) * R(y) * (x = y))").unwrap();
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        for _ in 0..count {
            let v = b.rng().gen_range(0..cfg.domain_size as i64);
            b.push(Update::insert("R", vec![Value::int(v)]));
        }
        b.finish()
    };
    Workload {
        name: "self-join-count",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// Examples 5.2 / 6.2: per-customer count of same-nation customers over `C(cid, nation)`.
pub fn customers_by_nation(config: WorkloadConfig) -> Workload {
    const NATIONS: [&str; 12] = [
        "FR", "DE", "IT", "ES", "PT", "NL", "BE", "AT", "PL", "SE", "FI", "DK",
    ];
    let mut catalog = Database::new();
    catalog.declare("C", &["cid", "nation"]).unwrap();
    let query = parse_sql(
        "SELECT C1.cid, SUM(1) AS same_nation FROM C C1, C C2 \
         WHERE C1.nation = C2.nation GROUP BY C1.cid",
        &catalog,
    )
    .unwrap();
    let nation_count = NATIONS.len().min(config.domain_size.max(1));
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig, offset: i64| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        for i in 0..count {
            let cid = offset + i as i64;
            let nation = NATIONS[b.rng().gen_range(0..nation_count)];
            b.push(Update::insert(
                "C",
                vec![Value::int(cid), Value::str(nation)],
            ));
        }
        b.finish()
    };
    Workload {
        name: "customers-by-nation",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config, 0),
        stream: make(
            config.seed.wrapping_add(1),
            config.stream_length,
            &config,
            config.initial_size as i64,
        ),
    }
}

/// Example 1.3: `SELECT sum(A*F) FROM R, S, T WHERE B = C AND D = E` over
/// `R(A,B)`, `S(C,D)`, `T(E,F)`.
pub fn rst_sum_join(config: WorkloadConfig) -> Workload {
    let mut catalog = Database::new();
    catalog.declare("R", &["A", "B"]).unwrap();
    catalog.declare("S", &["C", "D"]).unwrap();
    catalog.declare("T", &["E", "F"]).unwrap();
    let query = parse_sql(
        "SELECT SUM(A * F) AS weighted_paths FROM R, S, T WHERE B = C AND D = E",
        &catalog,
    )
    .unwrap();
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        let join_domain = cfg.domain_size.max(2) as i64;
        for i in 0..count {
            // Round-robin over the three relations so all of them keep growing.
            let value_a = b.rng().gen_range(1..100);
            let key1 = b.rng().gen_range(0..join_domain);
            let key2 = b.rng().gen_range(0..join_domain);
            let update = match i % 3 {
                0 => Update::insert("R", vec![Value::int(value_a), Value::int(key1)]),
                1 => Update::insert("S", vec![Value::int(key1), Value::int(key2)]),
                _ => Update::insert("T", vec![Value::int(key2), Value::int(value_a)]),
            };
            b.push(update);
        }
        b.finish()
    };
    Workload {
        name: "rst-sum-join",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// A per-customer revenue aggregation over a sales stream:
/// `SELECT cust, SUM(price * qty) FROM Sales GROUP BY cust`.
pub fn sales_revenue(config: WorkloadConfig) -> Workload {
    let mut catalog = Database::new();
    catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
    let query = parse_sql(
        "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
        &catalog,
    )
    .unwrap();
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        let customers = cfg.domain_size.max(1) as i64;
        for _ in 0..count {
            let cust = b.rng().gen_range(0..customers);
            let price = f64::from(b.rng().gen_range(1..10_000u32)) / 100.0;
            let qty = b.rng().gen_range(1..10i64);
            b.push(Update::insert(
                "Sales",
                vec![Value::int(cust), Value::float(price), Value::int(qty)],
            ));
        }
        b.finish()
    };
    Workload {
        name: "sales-revenue",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// The integer-cent variant of [`sales_revenue`]: the same degree-1 per-customer
/// aggregation with prices in whole cents, so every aggregate stays in `ℤ` and results
/// are *bit*-comparable across execution paths that accumulate in different orders
/// (per-tuple vs batch — float addition is order-sensitive, integer addition is not).
/// The small customer domain makes tuple repeats common, which is exactly what the
/// batch path's consolidation and weighted firing collapse.
pub fn sales_revenue_int(config: WorkloadConfig) -> Workload {
    let mut catalog = Database::new();
    catalog.declare("Sales", &["cust", "cents", "qty"]).unwrap();
    let query = parse_sql(
        "SELECT cust, SUM(cents * qty) AS revenue_cents FROM Sales GROUP BY cust",
        &catalog,
    )
    .unwrap();
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        let customers = cfg.domain_size.max(1) as i64;
        for _ in 0..count {
            let cust = b.rng().gen_range(0..customers);
            // A narrow price/qty menu: repeated (cust, cents, qty) tuples consolidate.
            let cents = 100 * b.rng().gen_range(1..25i64);
            let qty = b.rng().gen_range(1..5i64);
            b.push(Update::insert(
                "Sales",
                vec![Value::int(cust), Value::int(cents), Value::int(qty)],
            ));
        }
        b.finish()
    };
    Workload {
        name: "sales-revenue-int",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// An order/line-item foreign-key join in the style of the TPC-H schema fragment that
/// motivates standing revenue aggregates:
/// `SELECT cust, SUM(price * qty) FROM Orders, Lineitem WHERE Orders.okey = Lineitem.okey
///  GROUP BY cust`.
///
/// Unlike [`sales_revenue`] (a single-relation aggregate), this query has degree 2 and its
/// compiled triggers contain loop statements: an order insertion must credit the customer
/// with all line items already queued under that order key, and vice versa.
pub fn orders_lineitems(config: WorkloadConfig) -> Workload {
    let mut catalog = Database::new();
    catalog.declare("Orders", &["okey", "cust"]).unwrap();
    catalog
        .declare("Lineitem", &["okey", "price", "qty"])
        .unwrap();
    let query = parse_sql(
        "SELECT cust, SUM(price * qty) AS revenue FROM Orders, Lineitem \
         WHERE Orders.okey = Lineitem.okey GROUP BY cust",
        &catalog,
    )
    .unwrap();
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        let order_keys = (2 * cfg.domain_size).max(2) as i64;
        let customers = cfg.domain_size.max(1) as i64;
        for i in 0..count {
            if i % 4 == 0 {
                // One order for every three line items, on average.
                let okey = b.rng().gen_range(0..order_keys);
                let cust = b.rng().gen_range(0..customers);
                b.push(Update::insert(
                    "Orders",
                    vec![Value::int(okey), Value::int(cust)],
                ));
            } else {
                let okey = b.rng().gen_range(0..order_keys);
                let price = f64::from(b.rng().gen_range(100..50_000u32)) / 100.0;
                let qty = b.rng().gen_range(1..20i64);
                b.push(Update::insert(
                    "Lineitem",
                    vec![Value::int(okey), Value::float(price), Value::int(qty)],
                ));
            }
        }
        b.finish()
    };
    Workload {
        name: "orders-lineitems",
        catalog,
        query,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// A multi-view experiment input: one schema and one update stream shared by several
/// standing queries — the operating regime of a `Ring` engine.
#[derive(Clone, Debug)]
pub struct MultiViewWorkload {
    /// A short identifier ("sales-dashboard").
    pub name: &'static str,
    /// The shared schema (relation names and column lists, no contents).
    pub catalog: Database,
    /// The standing queries, as `(view name, query)` pairs.
    pub views: Vec<(&'static str, Query)>,
    /// Updates that build the initial database.
    pub initial: Vec<Update>,
    /// The measured update stream (applied after the initial load).
    pub stream: Vec<Update>,
}

/// A retail dashboard: six integer-valued standing aggregates over a sales stream with
/// occasional returns — the canonical many-views-one-stream workload.
///
/// Schema: `Sales(cust, cents, qty)` and `Returns(cust, cents, qty)`; roughly one
/// update in eight is a return. Four views read `Sales`, two read `Returns`, so routed
/// dispatch has real work to skip in both directions. All aggregates stay in `ℤ`
/// (prices in whole cents), so results are *bit*-comparable across execution paths
/// that accumulate in different orders — exactly like [`sales_revenue_int`]. The
/// narrow price/qty menu makes tuple repeats common, which is what batch
/// consolidation and weighted firing collapse.
pub fn sales_dashboard(config: WorkloadConfig) -> MultiViewWorkload {
    let mut catalog = Database::new();
    catalog.declare("Sales", &["cust", "cents", "qty"]).unwrap();
    catalog
        .declare("Returns", &["cust", "cents", "qty"])
        .unwrap();
    let views = vec![
        (
            "revenue_by_cust",
            parse_sql(
                "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
                &catalog,
            )
            .unwrap(),
        ),
        (
            "orders_by_cust",
            parse_sql(
                "SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust",
                &catalog,
            )
            .unwrap(),
        ),
        (
            "units_by_cust",
            parse_sql(
                "SELECT cust, SUM(qty) AS units FROM Sales GROUP BY cust",
                &catalog,
            )
            .unwrap(),
        ),
        (
            "total_revenue",
            parse_sql("SELECT SUM(cents * qty) AS total FROM Sales", &catalog).unwrap(),
        ),
        (
            "refunds_by_cust",
            parse_sql(
                "SELECT cust, SUM(cents * qty) AS refunded FROM Returns GROUP BY cust",
                &catalog,
            )
            .unwrap(),
        ),
        (
            "return_count",
            parse_sql("SELECT SUM(1) AS returns FROM Returns", &catalog).unwrap(),
        ),
    ];
    let make = |seed: u64, count: usize, cfg: &WorkloadConfig| {
        let mut b = StreamBuilder::new(seed, cfg.delete_fraction);
        let customers = cfg.domain_size.max(1) as i64;
        for i in 0..count {
            let cust = b.rng().gen_range(0..customers);
            let cents = 100 * b.rng().gen_range(1..25i64);
            let qty = b.rng().gen_range(1..5i64);
            let relation = if i % 8 == 7 { "Returns" } else { "Sales" };
            b.push(Update::insert(
                relation,
                vec![Value::int(cust), Value::int(cents), Value::int(qty)],
            ));
        }
        b.finish()
    };
    MultiViewWorkload {
        name: "sales-dashboard",
        catalog,
        views,
        initial: make(config.seed, config.initial_size, &config),
        stream: make(config.seed.wrapping_add(1), config.stream_length, &config),
    }
}

/// All workloads at a given configuration (used by sweeping experiments).
pub fn all_workloads(config: WorkloadConfig) -> Vec<Workload> {
    vec![
        self_join_count(config),
        customers_by_nation(config),
        rst_sum_join(config),
        sales_revenue(config),
        sales_revenue_int(config),
        orders_lineitems(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = customers_by_nation(WorkloadConfig::small(7));
        let b = customers_by_nation(WorkloadConfig::small(7));
        let c = customers_by_nation(WorkloadConfig::small(8));
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.initial, b.initial);
        assert_ne!(a.stream, c.stream);
    }

    #[test]
    fn sizes_match_the_configuration() {
        let cfg = WorkloadConfig::default()
            .with_initial_size(123)
            .with_stream_length(45);
        let workloads = all_workloads(cfg);
        assert_eq!(workloads.len(), 6);
        for w in workloads {
            assert_eq!(w.initial.len(), 123, "{}", w.name);
            assert_eq!(w.stream.len(), 45, "{}", w.name);
            assert_eq!(w.total_updates(), 168);
        }
    }

    #[test]
    fn orders_lineitems_mixes_both_relations() {
        let w = orders_lineitems(WorkloadConfig::small(17));
        assert!(w.stream.iter().any(|u| u.relation == "Orders"));
        assert!(w.stream.iter().any(|u| u.relation == "Lineitem"));
        assert_eq!(w.query.group_by, vec!["Orders.cust"]);
        assert_eq!(w.query.relations().len(), 2);
    }

    #[test]
    fn deletions_only_remove_live_tuples() {
        // Applying the whole workload never drives a multiplicity negative.
        for w in all_workloads(WorkloadConfig::small(3)) {
            let mut db = w.catalog.clone();
            db.apply_all(w.initial.iter().chain(w.stream.iter()))
                .unwrap();
            for rel in db.relation_names().map(str::to_string).collect::<Vec<_>>() {
                for (_, m) in db.relation(&rel).unwrap().iter() {
                    assert!(
                        *m > 0,
                        "negative or zero multiplicity in {} of {}",
                        rel,
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn queries_reference_only_declared_relations() {
        for w in all_workloads(WorkloadConfig::small(1)) {
            let declared: BTreeSet<String> =
                w.catalog.relation_names().map(str::to_string).collect();
            for r in w.query.relations() {
                assert!(declared.contains(&r), "{} not declared in {}", r, w.name);
            }
            // Streams only touch declared relations too.
            for u in w.initial.iter().chain(w.stream.iter()) {
                assert!(declared.contains(&u.relation));
            }
        }
    }

    #[test]
    fn sales_dashboard_views_compile_against_its_catalog() {
        let w = sales_dashboard(WorkloadConfig::small(11));
        assert_eq!(w.views.len(), 6);
        let declared: BTreeSet<String> = w.catalog.relation_names().map(str::to_string).collect();
        for (name, query) in &w.views {
            for r in query.relations() {
                assert!(declared.contains(&r), "{r} undeclared (view {name})");
            }
        }
        // Both relations appear in the stream, Sales dominating.
        let returns = w.stream.iter().filter(|u| u.relation == "Returns").count();
        assert!(returns > 0);
        assert!(returns < w.stream.len() / 4);
        let mut db = w.catalog.clone();
        db.apply_all(&w.initial).unwrap();
        assert!(db.total_support() > 0);
        // Determinism per seed.
        assert_eq!(sales_dashboard(WorkloadConfig::small(11)).stream, w.stream);
    }

    #[test]
    fn initial_database_loads() {
        let w = rst_sum_join(WorkloadConfig::small(5));
        let db = w.initial_database();
        assert!(db.total_support() > 0);
        let w2 = sales_revenue(WorkloadConfig::small(5));
        assert!(w2.initial_database().total_support() > 0);
    }

    #[test]
    fn delete_fraction_zero_means_insert_only() {
        let cfg = WorkloadConfig {
            delete_fraction: 0.0,
            ..WorkloadConfig::small(9)
        };
        let w = self_join_count(cfg);
        assert!(w
            .initial
            .iter()
            .chain(w.stream.iter())
            .all(Update::is_insert));
        let cfg_del = WorkloadConfig {
            delete_fraction: 0.5,
            ..WorkloadConfig::small(9)
        };
        let w2 = self_join_count(cfg_del);
        assert!(w2.stream.iter().any(|u| !u.is_insert()));
    }
}
