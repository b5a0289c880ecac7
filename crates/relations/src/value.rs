//! Data values of the active domain `Adom`.
//!
//! Values appear both as tuple components (so they must be hashable and totally ordered to
//! key the sparse GMR representation) and inside arithmetic terms of aggregate queries (so
//! they must convert to the [`Number`] ring). Floats are stored with canonicalized bits so
//! that `Value` can implement `Eq`/`Hash` without surprising the user: `-0.0` is identified
//! with `0.0`, and all NaNs are identified with each other.

use std::fmt;
use std::sync::Arc;

use dbring_algebra::Number;
use serde::{Deserialize, Serialize};

/// A single data value: the elements of the active domain `Adom`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// IEEE-754 double with canonicalized bit pattern (see [`OrderedF64`]).
    Float(OrderedF64),
    /// Reference-counted UTF-8 string. *Not* globally interned: [`Value::str`] allocates
    /// a fresh `Arc<str>` per call. The ingest hot path interns strings to dense ids via
    /// [`Interner`](crate::intern::Interner) (whose
    /// [`value_str`](crate::intern::Interner::value_str) also builds `Value`s that share
    /// one allocation per distinct string).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Builds a float value.
    pub fn float(f: f64) -> Self {
        Value::Float(OrderedF64::new(f))
    }

    /// The value as a [`Number`], if it is numeric (`Int`, `Float`, or `Bool` as 0/1).
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Value::Int(i) => Some(Number::Int(*i)),
            Value::Float(f) => Some(Number::Float(f.get())),
            Value::Bool(b) => Some(Number::Int(i64::from(*b))),
            Value::Str(_) => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A 64-bit code that orders like the value (the derived `Ord`):
    /// `a.order_code() < b.order_code()` implies `a < b`, and `a <= b` implies
    /// `a.order_code() <= b.order_code()`. Equal codes decide nothing, so a search
    /// over codes compares values only where two codes tie.
    ///
    /// The top two bits are the variant, in declaration order. The low 62 bits hold
    /// an order-preserving prefix of the payload: an `Int` clamped to
    /// `-2⁶¹..2⁶¹` (exact inside it), a `Float`'s `total_cmp` bit transform without
    /// its two lowest bits, a `Str`'s first 8 bytes (big-endian, zero-padded)
    /// without the two lowest bits of the eighth, and a `Bool` as 0 or 1.
    pub fn order_code(&self) -> u64 {
        const HALF: i64 = 1 << 61;
        let (variant, payload) = match self {
            Value::Int(i) => (0, ((*i).clamp(-HALF, HALF - 1) + HALF) as u64),
            Value::Float(f) => {
                let bits = f.get().to_bits();
                let ordered = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | 1 << 63
                };
                (1, ordered >> 2)
            }
            Value::Str(s) => {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                (2, u64::from_be_bytes(head) >> 2)
            }
            Value::Bool(b) => (3, u64::from(*b)),
        };
        variant << 62 | payload
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Self {
        match n {
            Number::Int(i) => Value::Int(i),
            Number::Float(f) => Value::float(f),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// An `f64` wrapper with canonical bit pattern, giving `Eq`, `Ord` and `Hash`.
///
/// `-0.0` is canonicalized to `0.0` and every NaN to a single canonical NaN, so equality
/// and hashing are consistent; ordering uses IEEE `total_cmp` on the canonical value.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps an `f64`, canonicalizing `-0.0` and NaN.
    pub fn new(f: f64) -> Self {
        if f.is_nan() {
            OrderedF64(f64::NAN)
        } else if f == 0.0 {
            OrderedF64(0.0)
        } else {
            OrderedF64(f)
        }
    }

    /// The wrapped value.
    pub fn get(&self) -> f64 {
        self.0
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        assert_eq!(Value::from("xyz"), Value::str("xyz"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
        assert_eq!(Value::int(3).as_str(), None);
        assert_eq!(Value::str("abc").as_int(), None);
    }

    #[test]
    fn numeric_conversion() {
        assert_eq!(Value::int(3).as_number(), Some(Number::Int(3)));
        assert_eq!(Value::float(2.5).as_number(), Some(Number::Float(2.5)));
        assert_eq!(Value::Bool(true).as_number(), Some(Number::Int(1)));
        assert_eq!(Value::str("x").as_number(), None);
        assert_eq!(Value::from(Number::Int(7)), Value::Int(7));
        assert_eq!(Value::from(Number::Float(0.5)), Value::float(0.5));
    }

    #[test]
    fn float_canonicalization() {
        assert_eq!(Value::float(0.0), Value::float(-0.0));
        assert_eq!(Value::float(f64::NAN), Value::float(-f64::NAN));
        let mut set = HashSet::new();
        set.insert(Value::float(0.0));
        assert!(set.contains(&Value::float(-0.0)));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut values = [
            Value::str("b"),
            Value::int(2),
            Value::float(1.5),
            Value::Bool(false),
            Value::int(-1),
            Value::str("a"),
        ];
        values.sort();
        // Sorting must be deterministic and not panic; ints sort among ints, strings among
        // strings (the inter-variant order is the enum declaration order).
        let ints: Vec<_> = values.iter().filter_map(Value::as_int).collect();
        assert_eq!(ints, vec![-1, 2]);
    }

    /// Values built to collide in [`Value::order_code`]: every variant, ints at and
    /// beyond the clamp, floats apart only in the two bits the code drops, the
    /// special floats, and strings that share their first 8 bytes or differ only in
    /// padding or beyond ASCII.
    fn adversarial() -> Vec<Value> {
        let half = 1i64 << 61;
        let mut values: Vec<Value> = [
            i64::MIN,
            i64::MIN + 1,
            -half - 1,
            -half,
            -half + 1,
            -1,
            0,
            1,
            half - 2,
            half - 1,
            half,
            half + 7,
            i64::MAX - 1,
            i64::MAX,
        ]
        .into_iter()
        .map(Value::int)
        .collect();
        let one = 1.0f64.to_bits();
        values.extend(
            [
                f64::NEG_INFINITY,
                f64::MIN,
                -1.0,
                f64::from_bits(one + 1),
                f64::from_bits(one + 2),
                f64::from_bits(one + 3),
                f64::from_bits(one + 4),
                -f64::MIN_POSITIVE,
                -f64::from_bits(1),
                -0.0,
                0.0,
                f64::from_bits(1),
                f64::from_bits(3),
                f64::MIN_POSITIVE,
                1.0,
                f64::MAX,
                f64::INFINITY,
                f64::NAN,
                -f64::NAN,
            ]
            .into_iter()
            .map(Value::float),
        );
        values.extend(
            [
                "",
                "\0",
                "a",
                "a\0",
                "a\0\0",
                "customer",
                "customer\0",
                "customer_0001",
                "customer_0002",
                "customer_0010",
                "customes",
                "customeq",
                "abcdefg\u{7f}",
                "abcdefg\u{80}",
                "abcdefgh",
                "abcdefgi",
                "é",
                "éa",
                "日本語",
                "日本語のキー",
                "\u{10ffff}",
            ]
            .into_iter()
            .map(Value::str),
        );
        values.extend([Value::Bool(false), Value::Bool(true)]);
        values
    }

    /// The two implications the code promises, for one pair.
    fn assert_code_orders_like_value(a: &Value, b: &Value) {
        let (ca, cb) = (a.order_code(), b.order_code());
        if a <= b {
            assert!(ca <= cb, "{a:?} <= {b:?} but codes {ca:#x} > {cb:#x}");
        }
        if ca < cb {
            assert!(a < b, "codes {ca:#x} < {cb:#x} but {a:?} >= {b:?}");
        }
    }

    #[test]
    fn order_codes_order_like_values_on_colliding_pairs() {
        let values = adversarial();
        for a in &values {
            for b in &values {
                assert_code_orders_like_value(a, b);
            }
        }
        // The collisions the code admits really happen, and nothing else does.
        let code = |v: Value| v.order_code();
        assert_eq!(code(Value::int(i64::MAX)), code(Value::int(1 << 61)));
        assert_eq!(code(Value::int(i64::MIN)), code(Value::int(-(1 << 61))));
        assert_ne!(
            code(Value::int((1 << 61) - 1)),
            code(Value::int((1 << 61) - 2))
        );
        assert_eq!(code(Value::str("a")), code(Value::str("a\0")));
        assert_eq!(
            code(Value::str("customer_0001")),
            code(Value::str("customer_0002"))
        );
        assert_eq!(code(Value::float(-0.0)), code(Value::float(0.0)));
        let one = 1.0f64.to_bits();
        assert_eq!(
            code(Value::float(f64::from_bits(one))),
            code(Value::float(f64::from_bits(one + 3)))
        );
        assert!(code(Value::int(i64::MAX)) < code(Value::float(f64::NEG_INFINITY)));
        assert!(code(Value::float(f64::NAN)) < code(Value::str("")));
        assert!(code(Value::str("\u{10ffff}")) < code(Value::Bool(false)));
        assert!(code(Value::Bool(false)) < code(Value::Bool(true)));
    }

    /// Pool values, random ints and float bit patterns, floats a few ulps from a
    /// pool float, and strings over an alphabet of NUL, ASCII and multi-byte chars,
    /// half of them behind a shared 9-byte prefix.
    fn any_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        const CHARS: [char; 8] = ['\0', 'a', 'b', '_', '\u{7f}', 'é', '日', '\u{10ffff}'];
        let pool = adversarial();
        let floats: Vec<f64> = pool
            .iter()
            .filter_map(|v| match v {
                Value::Float(f) => Some(f.get()),
                _ => None,
            })
            .collect();
        let text = prop::collection::vec(0..CHARS.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect::<String>());
        prop_oneof![
            (0..pool.len()).prop_map(move |i| pool[i].clone()),
            any::<i64>().prop_map(Value::int),
            any::<u64>().prop_map(|bits| Value::float(f64::from_bits(bits))),
            (0..floats.len(), 0u64..8).prop_map(move |(i, ulps)| Value::float(f64::from_bits(
                floats[i].to_bits() ^ ulps
            ))),
            (text, any::<bool>()).prop_map(|(s, shared)| {
                Value::str(if shared { format!("customer_{s}") } else { s })
            }),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest::proptest! {
        #[test]
        fn order_codes_order_like_values(a in any_value(), b in any_value()) {
            assert_code_orders_like_value(&a, &b);
            assert_code_orders_like_value(&b, &a);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::float(1.5).to_string(), "1.5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::int(5).type_name(), "int");
        assert_eq!(Value::str("hi").type_name(), "string");
    }
}
