//! Deterministic input generation: splitmix64, Zipf by precomputed CDF, and the two
//! update streams (sales dashboard, Example 1.3 join). Everything here is a pure
//! function of the seed; nothing depends on `dbring-workloads` or `compat/rand`.

use dbring::{Update, Value};

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`; the modulo bias at these sizes is below 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over ranks `0..n`, sampled by binary search in a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(s);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One single-tuple update in the harness's own compact form: the generators,
/// oracles, stream hash and wire encoder all work on this, never on engine types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    /// Index into the spec's relation list.
    pub rel: u8,
    /// The tuple (only the first `arity` values are meaningful).
    pub vals: [i64; 3],
    /// `+1` insert, `-1` delete.
    pub mult: i8,
}

/// Whether a generated sequence grows the database or leaves it as it found it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// The initial load: 20 % of the ops delete an earlier insert, the rest stay.
    Growing,
    /// The timed stream, which is replayed cyclically and so must be net-zero, or a
    /// faster system would replay it more often, grow a larger database and meet
    /// other costs. It grows like the load until `count / 8` (at most 32 768) of its
    /// inserts are live, then deletes as often as it inserts, and its tail deletes
    /// whatever is still live: every pass finds the database as the load left it, and
    /// a delete's victim is old enough to sit in an earlier batch than the delete.
    Churning,
}

/// `count` ops: each is, with the shape's probability, the deletion of a uniformly
/// chosen earlier insert *of this call* (so a stream never deletes a tuple it has
/// not inserted in the same pass), else a fresh insert drawn by `fresh`.
fn fill(
    rng: &mut SplitMix64,
    count: usize,
    shape: Shape,
    mut fresh: impl FnMut(&mut SplitMix64) -> Op,
) -> Vec<Op> {
    let plateau = match shape {
        Shape::Growing => usize::MAX,
        Shape::Churning => (count / 8).min(32_768),
    };
    let mut out = Vec::with_capacity(count);
    let mut live: Vec<Op> = Vec::new();
    let delete_one = |live: &mut Vec<Op>, out: &mut Vec<Op>, rng: &mut SplitMix64| {
        let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
        out.push(Op { mult: -1, ..victim });
    };
    // A churning stream stops inserting once the ops left are just enough to delete
    // what is live (`count` must be even for the two to meet exactly).
    let room = |out: &Vec<Op>, live: &Vec<Op>| match shape {
        Shape::Growing => out.len() < count,
        Shape::Churning => out.len() + live.len() < count,
    };
    while room(&out, &live) {
        let delete_share = if live.len() < plateau { 0.2 } else { 0.5 };
        if !live.is_empty() && rng.next_f64() < delete_share {
            delete_one(&mut live, &mut out, rng);
        } else {
            let op = fresh(rng);
            live.push(op);
            out.push(op);
        }
    }
    while out.len() < count {
        delete_one(&mut live, &mut out, rng);
    }
    out
}

/// Dashboard relation indices.
pub const SALES: u8 = 0;
pub const RETURNS: u8 = 1;

/// `Sales`/`Returns(cust, cents, qty)`: customers Zipf(1.0), one insert in eight a
/// return.
pub fn dash_stream(seed: u64, customers: usize, count: usize, shape: Shape) -> Vec<Op> {
    let zipf = Zipf::new(customers, 1.0);
    let mut rng = SplitMix64::new(seed);
    fill(&mut rng, count, shape, |rng| {
        let cust = zipf.sample(rng) as i64;
        let cents = 100 * (1 + rng.below(24) as i64);
        let qty = 1 + rng.below(4) as i64;
        let rel = if rng.below(8) == 7 { RETURNS } else { SALES };
        Op {
            rel,
            vals: [cust, cents, qty],
            mult: 1,
        }
    })
}

/// Example 1.3: `R(A,B)`, `S(C,D)`, `T(E,F)`; integer values in `1..100`, join keys
/// uniform over `keys`, relations drawn uniformly.
pub fn join_stream(seed: u64, keys: u64, count: usize, shape: Shape) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    fill(&mut rng, count, shape, |rng| {
        let rel = rng.below(3) as u8;
        let value = 1 + rng.below(99) as i64;
        let k1 = rng.below(keys) as i64;
        let k2 = rng.below(keys) as i64;
        let vals = match rel {
            0 => [value, k1, 0], // R(A, B)
            1 => [k1, k2, 0],    // S(C, D)
            _ => [k1, value, 0], // T(E, F)
        };
        Op { rel, vals, mult: 1 }
    })
}

/// Order-sensitive 64-bit digest of a stream (FNV-1a over every field), used to
/// show that a seed fixes the inputs.
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for op in ops {
        eat(op.rel as u64);
        eat(op.mult as u64);
        for v in op.vals {
            eat(v as u64);
        }
    }
    h
}

/// The engine-side form of a stream, built once before anything is timed.
pub fn to_updates(ops: &[Op], relations: &[(&str, &[&str])]) -> Vec<Update> {
    ops.iter()
        .map(|op| {
            let (name, cols) = relations[op.rel as usize];
            let values = op.vals[..cols.len()]
                .iter()
                .map(|&v| Value::int(v))
                .collect();
            if op.mult > 0 {
                Update::insert(name, values)
            } else {
                Update::delete(name, values)
            }
        })
        .collect()
}

/// The wire form of one op: `INSERT t Sales 17 500 2`.
pub fn to_line(op: &Op, relations: &[(&str, &[&str])], tenant: &str) -> String {
    let (name, cols) = relations[op.rel as usize];
    let verb = if op.mult > 0 { "INSERT" } else { "DELETE" };
    let mut line = format!("{verb} {tenant} {name}");
    for v in &op.vals[..cols.len()] {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for shape in [Shape::Growing, Shape::Churning] {
            let a = dash_stream(7, 100, 2_000, shape);
            assert_eq!(
                stream_hash(&a),
                stream_hash(&dash_stream(7, 100, 2_000, shape))
            );
            assert_ne!(
                stream_hash(&a),
                stream_hash(&dash_stream(8, 100, 2_000, shape))
            );
            let j = join_stream(7, 50, 2_000, shape);
            assert_eq!(
                stream_hash(&j),
                stream_hash(&join_stream(7, 50, 2_000, shape))
            );
            assert_ne!(
                stream_hash(&j),
                stream_hash(&join_stream(8, 50, 2_000, shape))
            );
        }
    }

    /// Net multiplicity per tuple after the ops, checking no delete precedes its insert.
    fn replay(ops: &[Op]) -> (HashMap<(u8, [i64; 3]), i64>, f64) {
        let mut live: HashMap<(u8, [i64; 3]), i64> = HashMap::new();
        let mut deletes = 0usize;
        for op in ops {
            let m = live.entry((op.rel, op.vals)).or_default();
            *m += op.mult as i64;
            assert!(*m >= 0, "delete before insert");
            deletes += (op.mult < 0) as usize;
        }
        live.retain(|_, m| *m != 0);
        (live, deletes as f64 / ops.len() as f64)
    }

    #[test]
    fn a_growing_load_deletes_a_fifth_of_earlier_inserts() {
        for ops in [
            dash_stream(3, 50, 5_000, Shape::Growing),
            join_stream(3, 20, 5_000, Shape::Growing),
        ] {
            let (live, share) = replay(&ops);
            assert_eq!(ops.len(), 5_000);
            assert!((0.15..0.25).contains(&share), "delete share {share}");
            assert!(!live.is_empty());
        }
    }

    #[test]
    fn a_churning_stream_is_net_zero_over_one_pass() {
        for ops in [
            dash_stream(3, 50, 4_096, Shape::Churning),
            join_stream(3, 20, 4_096, Shape::Churning),
        ] {
            let (live, share) = replay(&ops);
            assert_eq!(ops.len(), 4_096);
            assert_eq!(share, 0.5);
            assert!(live.is_empty(), "{} tuples survive a pass", live.len());
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1_000, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut hits0 = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1_000);
            hits0 += (r == 0) as usize;
        }
        // P(rank 0) = 1/H_1000 = 0.1336.
        assert!((1_100..1_600).contains(&hits0), "rank-0 hits {hits0}");
    }
}
