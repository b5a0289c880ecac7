//! The two schemas the workloads run: the six-view sales dashboard and the paper's
//! Example 1.3 join. Written out here rather than imported so that the benchmark's
//! inputs cannot change underneath it.

use crate::gen::{self, Op, Shape};

pub type Relations = &'static [(&'static str, &'static [&'static str])];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schema {
    Dash,
    Join,
}

pub struct Spec {
    pub schema: Schema,
    pub relations: Relations,
    /// `(name, SQL)` of every standing view, in creation order.
    pub views: &'static [(&'static str, &'static str)],
    /// A further view created and dropped on the loaded ring (`core.backfill_ms`).
    pub extra_view: (&'static str, &'static str),
    /// The view point reads go to; keyed by customer (`Dash`) or scalar (`Join`).
    pub read_view: &'static str,
}

pub const DASH: Spec = Spec {
    schema: Schema::Dash,
    relations: &[
        ("Sales", &["cust", "cents", "qty"]),
        ("Returns", &["cust", "cents", "qty"]),
    ],
    views: &[
        (
            "revenue_by_cust",
            "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
        ),
        (
            "orders_by_cust",
            "SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust",
        ),
        (
            "units_by_cust",
            "SELECT cust, SUM(qty) AS units FROM Sales GROUP BY cust",
        ),
        (
            "total_revenue",
            "SELECT SUM(cents * qty) AS total FROM Sales",
        ),
        (
            "refunds_by_cust",
            "SELECT cust, SUM(cents * qty) AS refunded FROM Returns GROUP BY cust",
        ),
        ("return_count", "SELECT SUM(1) AS returns FROM Returns"),
    ],
    extra_view: (
        "returned_units_by_cust",
        "SELECT cust, SUM(qty) AS units FROM Returns GROUP BY cust",
    ),
    read_view: "revenue_by_cust",
};

pub const JOIN: Spec = Spec {
    schema: Schema::Join,
    relations: &[("R", &["A", "B"]), ("S", &["C", "D"]), ("T", &["E", "F"])],
    views: &[(
        "weighted_paths",
        "SELECT SUM(A * F) AS weighted_paths FROM R, S, T WHERE B = C AND D = E",
    )],
    // Single-relation on purpose: backfilling a second three-way join evaluates it
    // from scratch over the loaded base relations, which takes minutes at this size.
    extra_view: ("r_total", "SELECT SUM(A) AS total FROM R"),
    read_view: "weighted_paths",
};

/// The customer id of the freshness marker rows (`wire-mixed`): outside every
/// generated customer range, so a marker never collides with stream data.
pub const MARKER_CUST: i64 = 1_000_000;
pub const MARKER_VIEW: &str = "orders_by_cust";

pub fn marker_op() -> Op {
    Op {
        rel: gen::SALES,
        vals: [MARKER_CUST, 100, 1],
        mult: 1,
    }
}

impl Spec {
    /// `count` ops of this schema's stream; `domain` is the customer count (`Dash`)
    /// or the join-key range (`Join`).
    pub fn stream(&self, seed: u64, domain: usize, count: usize, shape: Shape) -> Vec<Op> {
        match self.schema {
            Schema::Dash => gen::dash_stream(seed, domain, count, shape),
            Schema::Join => gen::join_stream(seed, domain as u64, count, shape),
        }
    }

    /// Pre-generated group keys for point reads of `read_view`: Zipf customers for
    /// the dashboard, the empty key for the scalar join view.
    pub fn read_keys(&self, seed: u64, domain: usize, count: usize) -> Vec<Vec<i64>> {
        match self.schema {
            Schema::Dash => {
                let zipf = gen::Zipf::new(domain, 1.0);
                let mut rng = gen::SplitMix64::new(seed);
                (0..count)
                    .map(|_| vec![zipf.sample(&mut rng) as i64])
                    .collect()
            }
            Schema::Join => vec![Vec::new(); count],
        }
    }
}
