//! Reference results computed from the applied update sequence alone: hash-map sums
//! for the dashboard views, a hash join for Example 1.3. Integer arithmetic wraps at
//! 64 bits exactly as the engine's `Number::Int` does, so a run long enough to
//! overflow still compares equal.

use std::collections::{BTreeMap, HashMap};

use crate::gen::{Op, RETURNS, SALES};
use crate::spec::Schema;

/// A view's result: group key → aggregate, zero-valued groups absent.
pub type Table = BTreeMap<Vec<i64>, i64>;

fn bump(map: &mut HashMap<i64, i64>, key: i64, by: i64) {
    let slot = map.entry(key).or_insert(0);
    *slot = slot.wrapping_add(by);
}

fn keyed(map: &HashMap<i64, i64>) -> Table {
    map.iter()
        .filter(|(_, &v)| v != 0)
        .map(|(&k, &v)| (vec![k], v))
        .collect()
}

fn scalar(value: i64) -> Table {
    let mut t = Table::new();
    if value != 0 {
        t.insert(Vec::new(), value);
    }
    t
}

#[derive(Default)]
pub struct DashOracle {
    revenue: HashMap<i64, i64>,
    orders: HashMap<i64, i64>,
    units: HashMap<i64, i64>,
    refunds: HashMap<i64, i64>,
    total: i64,
    returns: i64,
}

#[derive(Default)]
pub struct JoinOracle {
    /// `B → Σ A` over `R`.
    sum_a: HashMap<i64, i64>,
    /// `(C, D) →` multiplicity over `S`.
    s: HashMap<(i64, i64), i64>,
    /// `E → Σ F` over `T`.
    sum_f: HashMap<i64, i64>,
}

pub enum Oracle {
    Dash(DashOracle),
    Join(JoinOracle),
}

impl Oracle {
    pub fn new(schema: Schema) -> Self {
        match schema {
            Schema::Dash => Oracle::Dash(DashOracle::default()),
            Schema::Join => Oracle::Join(JoinOracle::default()),
        }
    }

    /// Applies `op` `weight` times. Every maintained sum is linear in tuple
    /// multiplicities, so `weight` full passes over a cyclically replayed stream are
    /// one pass with that weight.
    pub fn apply(&mut self, op: &Op, weight: i64) {
        let m = (op.mult as i64).wrapping_mul(weight);
        let [a, b, c] = op.vals;
        match self {
            Oracle::Dash(d) => {
                let amount = m.wrapping_mul(b).wrapping_mul(c);
                match op.rel {
                    SALES => {
                        bump(&mut d.revenue, a, amount);
                        bump(&mut d.orders, a, m);
                        bump(&mut d.units, a, m.wrapping_mul(c));
                        d.total = d.total.wrapping_add(amount);
                    }
                    RETURNS => {
                        bump(&mut d.refunds, a, amount);
                        d.returns = d.returns.wrapping_add(m);
                    }
                    other => panic!("dashboard has no relation {other}"),
                }
            }
            Oracle::Join(j) => match op.rel {
                0 => bump(&mut j.sum_a, b, m.wrapping_mul(a)),
                1 => {
                    let slot = j.s.entry((a, b)).or_insert(0);
                    *slot = slot.wrapping_add(m);
                }
                2 => bump(&mut j.sum_f, a, m.wrapping_mul(b)),
                other => panic!("Example 1.3 has no relation {other}"),
            },
        }
    }

    pub fn apply_all<'a>(&mut self, ops: impl IntoIterator<Item = &'a Op>, weight: i64) {
        for op in ops {
            self.apply(op, weight);
        }
    }

    /// The expected table of every view of the schema, by view name.
    pub fn tables(&self) -> BTreeMap<&'static str, Table> {
        let mut out = BTreeMap::new();
        match self {
            Oracle::Dash(d) => {
                out.insert("revenue_by_cust", keyed(&d.revenue));
                out.insert("orders_by_cust", keyed(&d.orders));
                out.insert("units_by_cust", keyed(&d.units));
                out.insert("total_revenue", scalar(d.total));
                out.insert("refunds_by_cust", keyed(&d.refunds));
                out.insert("return_count", scalar(d.returns));
            }
            Oracle::Join(j) => {
                // Σ_{(c,d) ∈ S} (Σ_{R.B=c} A) · S(c,d) · (Σ_{T.E=d} F)
                let mut sum = 0i64;
                for (&(c, d), &mult) in &j.s {
                    let left = j.sum_a.get(&c).copied().unwrap_or(0);
                    let right = j.sum_f.get(&d).copied().unwrap_or(0);
                    sum = sum.wrapping_add(left.wrapping_mul(mult).wrapping_mul(right));
                }
                out.insert("weighted_paths", scalar(sum));
            }
        }
        out
    }
}

/// The first difference between a view's actual and expected table, if any.
pub fn first_mismatch(view: &str, actual: &Table, expected: &Table) -> Option<String> {
    if actual == expected {
        return None;
    }
    for (key, want) in expected {
        match actual.get(key) {
            Some(got) if got == want => {}
            got => return Some(format!("{view}{key:?}: expected {want}, got {got:?}")),
        }
    }
    let extra = actual.iter().find(|(k, _)| !expected.contains_key(*k));
    Some(format!("{view}: unexpected group {extra:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(rel: u8, vals: [i64; 3], mult: i8) -> Op {
        Op { rel, vals, mult }
    }

    /// 50 dashboard updates whose sums are checked by hand below.
    fn fifty_dash_updates() -> Vec<Op> {
        let mut ops = Vec::new();
        // 40 sales, 10 each for customers 0..4, at 100 cents x 1.
        for i in 0..40 {
            ops.push(op(SALES, [i % 4, 100, 1], 1));
        }
        // 5 of customer 0's sales deleted again.
        for _ in 0..5 {
            ops.push(op(SALES, [0, 100, 1], -1));
        }
        // 5 returns by customer 1 at 200 cents x 2.
        for _ in 0..5 {
            ops.push(op(RETURNS, [1, 200, 2], 1));
        }
        assert_eq!(ops.len(), 50);
        ops
    }

    #[test]
    fn dashboard_oracle_matches_a_hand_checked_case() {
        let mut o = Oracle::new(Schema::Dash);
        o.apply_all(&fifty_dash_updates(), 1);
        let t = o.tables();
        let by_cust =
            |pairs: &[(i64, i64)]| -> Table { pairs.iter().map(|&(k, v)| (vec![k], v)).collect() };
        assert_eq!(
            t["revenue_by_cust"],
            by_cust(&[(0, 500), (1, 1000), (2, 1000), (3, 1000)])
        );
        assert_eq!(
            t["orders_by_cust"],
            by_cust(&[(0, 5), (1, 10), (2, 10), (3, 10)])
        );
        assert_eq!(t["units_by_cust"], t["orders_by_cust"]);
        assert_eq!(t["total_revenue"], scalar(3500));
        assert_eq!(t["refunds_by_cust"], by_cust(&[(1, 2000)]));
        assert_eq!(t["return_count"], scalar(5));
    }

    #[test]
    fn weight_is_repeated_application() {
        let ops = fifty_dash_updates();
        let mut thrice = Oracle::new(Schema::Dash);
        for _ in 0..3 {
            thrice.apply_all(&ops, 1);
        }
        let mut weighted = Oracle::new(Schema::Dash);
        weighted.apply_all(&ops, 3);
        assert_eq!(thrice.tables(), weighted.tables());
    }

    #[test]
    fn join_oracle_matches_a_hand_checked_case() {
        let mut ops = Vec::new();
        // R: A = 1..=10, all with B = 0  →  Σ A = 55 at key 0.
        for a in 1..=10 {
            ops.push(op(0, [a, 0, 0], 1));
        }
        // S: 10 x (0,0) and 10 x (0,1).
        for i in 0..20 {
            ops.push(op(1, [0, i % 2, 0], 1));
        }
        // T: 10 x (E=0, F=3) → Σ F = 30; 10 x (E=1, F=1) → Σ F = 10.
        for i in 0..20 {
            ops.push(op(2, if i < 10 { [0, 3, 0] } else { [1, 1, 0] }, 1));
        }
        assert_eq!(ops.len(), 50);
        let mut o = Oracle::new(Schema::Join);
        o.apply_all(&ops, 1);
        // 55 · (10 · 30 + 10 · 10) = 22 000.
        assert_eq!(o.tables()["weighted_paths"], scalar(22_000));
        // Deleting every S(0,1) leaves 55 · 10 · 30.
        for _ in 0..10 {
            o.apply(&op(1, [0, 1, 0], -1), 1);
        }
        assert_eq!(o.tables()["weighted_paths"], scalar(16_500));
    }

    #[test]
    fn mismatch_names_the_first_differing_group() {
        let want: Table = [(vec![1], 10), (vec![2], 20)].into_iter().collect();
        let mut got = want.clone();
        assert_eq!(first_mismatch("v", &got, &want), None);
        got.insert(vec![2], 21);
        assert!(first_mismatch("v", &got, &want)
            .unwrap()
            .contains("expected 20"));
    }
}
