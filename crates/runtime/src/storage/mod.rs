//! View storage: the [`ViewStorage`] trait and its one implementation,
//! [`HashViewStorage`].
//!
//! The paper's constant-ops-per-update guarantee (Theorem 7.1) asks very little of the
//! structure holding a materialized view: point probes by fully bound key, accumulation
//! of ring deltas with zero-pruning, and enumeration of the entries matching a
//! *partially* bound key in time proportional to the number of matches. [`ViewStorage`]
//! captures exactly those operations, so the execution layer never depends on how a
//! map is laid out. [`HashViewStorage`] implements them with one flat row table per
//! map: keys and values in fixed-size chunks, an open-addressing slot array of
//! `(row id, hash)` under a seeded multiply-rotate hash, and per registered key-position
//! pattern a doubly linked list of row ids per slice. Probes and writes are O(1) without
//! touching the allocator; enumeration walks a list. The trait stays a seam for
//! decorating storages: [`FaultStorage`](crate::fault::FaultStorage) injects panics for
//! the chaos tests, and a host can put a typed storage under a view with
//! `Ring::create_view_with::<S>`.
//!
//! **Two writes.** Every delta lands through [`ViewStorage::add_ref`], which returns
//! the key's pre-image from the probe it already paid for: a batch flush calls it
//! once per consolidated key, in the order the keys first reached the write buffer,
//! and logs each pre-image in the staged batch's undo log. Exact values — rollback of
//! that log, and the initial contents of a freshly built view — land through
//! [`ViewStorage::restore`]. Nothing below publication needs keys in order.
//!
//! **Enumeration order.** The order in which `for_each` and `for_each_slice` visit
//! entries is a function of the operations applied, not of the process or of a hash
//! seed: rows are visited in row-id order (a new key takes the most recently freed row,
//! else the next fresh one) and a slice newest-first, and a `restore` onto a key that
//! stays present changes neither. Float aggregates folded over an enumeration are
//! therefore reproducible run to run, and an aborted batch leaves the order of the keys
//! that survive it untouched.
//!
//! Both executors ([`Executor`](crate::executor::Executor) and the reference
//! [`InterpretedExecutor`](crate::interp::InterpretedExecutor)) run on
//! `HashViewStorage`; the lowered executor is generic over the storage type so that a
//! decorating storage can be named
//! (`Executor::<FaultStorage<HashViewStorage>>::with_backend`).
//! [`StorageFootprint`] is the memory proxy every view reports.

use std::collections::BTreeMap;
use std::fmt;

use dbring_algebra::Number;
use dbring_relations::Value;

mod hash;

pub(crate) use hash::salted;
pub use hash::HashViewStorage;

/// The storage contract a materialized view must satisfy for the executors to run
/// trigger programs over it.
///
/// All keys of one map share a fixed arity; values live in the [`Number`] ring and
/// entries whose value reaches zero are pruned (a map never stores explicit zeros, so
/// `len` is the number of non-zero groups). Enumeration callbacks receive the full key
/// in *original position order*.
///
/// The trait is deliberately generic (not object-safe): the executors monomorphize over
/// the storage, so going through the trait costs nothing on the hot path.
pub trait ViewStorage: Clone + fmt::Debug {
    /// Creates an empty map whose keys have the given arity.
    fn new(key_arity: usize) -> Self;

    /// The key arity.
    fn key_arity(&self) -> usize;

    /// Number of entries with a non-zero value.
    fn len(&self) -> usize;

    /// Whether the map has no non-zero entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key` (zero if absent).
    fn get(&self, key: &[Value]) -> Number;

    /// Adds `delta` to the value under `key`, maintaining indexes and pruning zeros,
    /// cloning the key *only* when the entry does not already exist, and returns the
    /// **pre-image**: the value held before the write (zero ⇔ absent), also when
    /// `delta` is zero. The write already paid for the probe that finds it, so staged
    /// ingest logs it without a second one. This is the one delta write: per-tuple
    /// firings and batch flushes both land through it.
    ///
    /// # Panics
    /// Panics if the key arity does not match.
    fn add_ref(&mut self, key: &[Value], delta: Number) -> Number;

    /// Writes the exact `value` under `key` (zero ⇔ absent), **byte-identically** —
    /// the rollback primitive behind staged batch execution, and the write that fills
    /// a freshly built view. Unlike a delta of the difference, which cannot reproduce
    /// a float bit pattern exactly (`0.1 + (0.4 - 0.3 - 0.1)` need not be `0.1`),
    /// `restore` writes `value` verbatim, pruning the entry (with full index
    /// maintenance) when it is zero.
    fn restore(&mut self, key: &[Value], value: Number);

    /// Registers a slice index over the given key positions (deduplicated; degenerate
    /// patterns covering no or all positions are ignored). Entries already present are
    /// backfilled, so registration order and insertion order may be interleaved freely.
    fn register_index(&mut self, positions: Vec<usize>);

    /// Visits every `(key, value)` entry, in an order the operation sequence determines
    /// (see the [module docs](self)).
    fn for_each(&self, visit: impl FnMut(&[Value], Number));

    /// Visits every entry whose key matches `values` at the given positions, without
    /// materializing the matches. Positions must be sorted and distinct.
    ///
    /// With a registered index for the pattern the cost is proportional to the number
    /// of matches (a list hop each), never to the size of the map; otherwise the
    /// storage falls back to a full scan. An empty pattern visits every entry.
    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        visit: impl FnMut(&[Value], Number),
    );

    /// The index-free fallback for [`for_each_slice`]: visits matching entries by
    /// scanning every entry and filtering on the bound positions. The storage calls
    /// this when no registered index serves the pattern, so the match semantics live
    /// in exactly one place.
    ///
    /// [`for_each_slice`]: ViewStorage::for_each_slice
    fn for_each_slice_scan(
        &self,
        positions: &[usize],
        values: &[Value],
        mut visit: impl FnMut(&[Value], Number),
    ) {
        self.for_each(|k, v| {
            if positions
                .iter()
                .zip(values.iter())
                .all(|(&i, v)| &k[i] == v)
            {
                visit(k, v);
            }
        });
    }

    /// The memory proxy for this map: entry and index-entry counts.
    fn footprint(&self) -> StorageFootprint;

    /// The entries as a sorted table (a convenience for result reporting and tests).
    fn to_table(&self) -> BTreeMap<Vec<Value>, Number> {
        let mut out = BTreeMap::new();
        self.for_each(|k, v| {
            out.insert(k.to_vec(), v);
        });
        out
    }
}

/// A memory proxy: how many entries a map (or a whole view hierarchy) holds, and how
/// much secondary-index structure sits next to them. Wall clock varies per machine;
/// these counts are exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Non-zero entries in the primary structure.
    pub entries: usize,
    /// Secondary index structures maintained (one per registered non-degenerate
    /// pattern).
    pub indexes: usize,
    /// Total entries across all secondary index structures.
    pub index_entries: usize,
}

impl StorageFootprint {
    /// Component-wise sum (for aggregating over a view hierarchy).
    pub fn merge(self, other: StorageFootprint) -> StorageFootprint {
        StorageFootprint {
            entries: self.entries + other.entries,
            indexes: self.indexes + other.indexes,
            index_entries: self.index_entries + other.index_entries,
        }
    }
}

/// Test helper: materializes a slice enumeration as an owned vector, so storage tests
/// can assert on match sets without closure plumbing.
#[cfg(test)]
pub(crate) fn slice_entries<S: ViewStorage>(
    storage: &S,
    positions: &[usize],
    values: &[Value],
) -> Vec<(Vec<Value>, Number)> {
    let mut out = Vec::new();
    storage.for_each_slice(positions, values, |k, v| out.push((k.to_vec(), v)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn footprints_merge_componentwise() {
        let a = StorageFootprint {
            entries: 3,
            indexes: 1,
            index_entries: 3,
        };
        let b = StorageFootprint {
            entries: 2,
            indexes: 0,
            index_entries: 0,
        };
        let m = a.merge(b);
        assert_eq!(m.entries, 5);
        assert_eq!(m.indexes, 1);
        assert_eq!(m.index_entries, 3);
        assert_eq!(StorageFootprint::default().entries, 0);
    }

    /// Regression: registering an index *after* entries exist — including non-prefix
    /// patterns, and after zero-sum removals — must serve exactly the matches a scan
    /// over the live entries finds. (The name predates the removal of the second
    /// backend; `storage::hash`'s `late_index_registration_backfills_existing_entries`
    /// checks the same on a different fixture.)
    #[test]
    fn late_index_registration_backfill_parity_across_backends() {
        fn scan_matches(
            m: &HashViewStorage,
            positions: &[usize],
            values: &[Value],
        ) -> Vec<(Vec<Value>, Number)> {
            let mut out = Vec::new();
            m.for_each_slice_scan(positions, values, |k, v| out.push((k.to_vec(), v)));
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        }
        let mut m = HashViewStorage::new(3);
        for (a, b, c, v) in [
            (1, 10, 7, 2),
            (1, 11, 7, 3),
            (2, 10, 8, 4),
            (2, 12, 7, 5),
            (3, 10, 7, 6),
        ] {
            m.add_ref(&key(&[a, b, c]), Number::Int(v));
        }
        // Zero-sum removals *before* registration: the index must not resurrect them.
        m.add_ref(&key(&[1, 11, 7]), Number::Int(-3));
        m.add_ref(&key(&[2, 10, 8]), Number::Int(-4));
        // Late registration of non-prefix patterns over existing entries.
        m.register_index(vec![2]);
        m.register_index(vec![1, 2]);
        for (positions, values) in [
            (vec![2], key(&[7])),
            (vec![2], key(&[8])),
            (vec![1, 2], key(&[10, 7])),
            (vec![1, 2], key(&[11, 7])),
        ] {
            let mut indexed = slice_entries(&m, &positions, &values);
            indexed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(
                indexed,
                scan_matches(&m, &positions, &values),
                "backfilled index diverged from a scan on pattern {positions:?}"
            );
        }
        // Registered indexes keep tracking writes and zero-sum removals afterwards.
        m.add_ref(&key(&[4, 13, 7]), Number::Int(9));
        m.add_ref(&key(&[1, 10, 7]), Number::Int(-2));
        for (positions, values) in [(vec![2], key(&[7])), (vec![1, 2], key(&[13, 7]))] {
            let mut indexed = slice_entries(&m, &positions, &values);
            indexed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(indexed, scan_matches(&m, &positions, &values));
        }
    }

    /// `restore` must reproduce a previously-observed entry state bit-exactly: floats
    /// come back with their original bit pattern (where a delta of the arithmetic
    /// difference would not), zero restores prune, and index maintenance tracks every
    /// transition. (The name predates the removal of the second backend.)
    #[test]
    fn restore_is_bit_exact_on_both_backends() {
        let mut m = HashViewStorage::new(1);
        m.register_index(vec![0]);
        // 0.1 + 0.2 is famously not 0.3; capture the pre-image and restore it.
        m.add_ref(&key(&[1]), Number::Float(0.1));
        let before = m.get(&key(&[1]));
        m.add_ref(&key(&[1]), Number::Float(0.2));
        m.restore(&key(&[1]), before);
        assert_eq!(m.get(&key(&[1])).as_f64().to_bits(), 0.1f64.to_bits());
        // Restoring zero prunes the entry (and its index postings).
        m.restore(&key(&[1]), Number::Int(0));
        assert_eq!(m.len(), 0);
        assert!(slice_entries(&m, &[0], &key(&[1])).is_empty());
        // Restoring a non-zero value onto an absent key inserts it verbatim.
        m.restore(&key(&[2]), Number::Float(0.3));
        assert_eq!(m.get(&key(&[2])).as_f64().to_bits(), 0.3f64.to_bits());
        assert_eq!(slice_entries(&m, &[0], &key(&[2])).len(), 1);
    }

    /// The trait's provided `is_empty` and `to_table`, over `restore` writes. (The
    /// name predates the removal of the second backend.)
    #[test]
    fn provided_methods_work_on_both_backends() {
        let mut m = HashViewStorage::new(2);
        assert!(m.is_empty());
        m.restore(&key(&[1, 2]), Number::Int(5));
        m.restore(&key(&[1, 3]), Number::Int(7));
        m.restore(&key(&[1, 2]), Number::Int(2));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(2));
        m.restore(&key(&[1, 3]), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        let table = m.to_table();
        assert_eq!(table.len(), 1);
        assert_eq!(table[&key(&[1, 2])], Number::Int(2));
    }
}
