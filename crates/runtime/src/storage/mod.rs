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
//! **One flush.** Batched writes land through a single method,
//! [`ViewStorage::apply_sorted`], which also reports every key's pre-image as it
//! lands it: staged ingest is the only way the executor writes a batch, and those
//! pre-images are its undo log. Rollback goes back through
//! [`ViewStorage::restore`].
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

use dbring_algebra::{Number, Ring, Semiring};
use dbring_relations::Value;

mod hash;

pub use hash::HashViewStorage;
pub(crate) use hash::{hash_values, random_seed, salted};

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

    /// Adds `delta` to the value under `key`, maintaining indexes and pruning zeros.
    /// The key is consumed (an implementation may reuse the allocation on first
    /// insertion).
    ///
    /// # Panics
    /// Panics if the key arity does not match.
    fn add(&mut self, key: Vec<Value>, delta: Number);

    /// Adds `delta` to the value under `key`, cloning the key *only* when the entry
    /// does not already exist — the executor's steady-state write path — and returns
    /// the **pre-image**: the value held before the write (zero ⇔ absent), also when
    /// `delta` is zero. The write already paid for the probe that finds it, so staged
    /// ingest logs it without a second one.
    ///
    /// # Panics
    /// Panics if the key arity does not match.
    fn add_ref(&mut self, key: &[Value], delta: Number) -> Number;

    /// Accumulates a consolidated batch of ring deltas whose keys are **strictly
    /// ascending** (sorted, no duplicates) while reporting each delta key's
    /// **pre-image** — the value held before the run landed (zero ⇔ absent) — to
    /// `log`. This is the batch-execution write path, fed by
    /// [`DeltaBatch`](dbring_relations::DeltaBatch)-driven triggers that buffer,
    /// sort and consolidate their writes per map, and it is staged ingest's
    /// capture-and-land step: the executor feeds the pre-images straight into its
    /// undo log, and on rollback restores them via [`restore`](ViewStorage::restore).
    /// The keys are borrowed (they point into the executor's reusable write
    /// buffers), so an implementation clones only what it actually inserts.
    ///
    /// Every delta key is reported exactly once, **including** zero-delta keys (a
    /// spurious log entry restores a value to itself — harmless — while a missing one
    /// would leak a write). Keys in a run are unique, so the report order is
    /// implementation-defined, and a key is reported no later than right after its
    /// own write. Zero deltas land nothing, and index maintenance and zero-pruning
    /// behave exactly as [`add_ref`](ViewStorage::add_ref).
    ///
    /// The default is a per-key `add_ref` loop reporting what each write returns:
    /// one probe per key, since a hash table gains nothing from the keys' order.
    fn apply_sorted(
        &mut self,
        deltas: &[(&[Value], Number)],
        mut log: impl FnMut(&[Value], Number),
    ) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "apply_sorted requires strictly ascending keys"
        );
        for (key, delta) in deltas {
            let pre = self.add_ref(key, *delta);
            log(key, pre);
        }
    }

    /// Overwrites the value under `key` (used by initialization).
    fn set(&mut self, key: Vec<Value>, value: Number) {
        let delta = value.add(&self.get(&key).neg());
        self.add(key, delta);
    }

    /// Restores the value under `key` to an exact previously-observed `value`
    /// (zero ⇔ absent), **byte-identically** — the rollback primitive behind
    /// staged batch execution. Unlike [`set`](ViewStorage::set), which lands an
    /// arithmetic delta and therefore cannot reproduce a float bit pattern
    /// exactly (`0.1 + (0.4 - 0.3 - 0.1)` need not be `0.1`), `restore` writes
    /// `value` verbatim, pruning the entry (with full index maintenance) when it is
    /// zero.
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

    /// Two identically seeded maps (64 entries, an index on column 1) and a sorted,
    /// deduplicated delta run mixing zero-sum prunes, accumulations, brand-new keys
    /// and zero deltas; `batch_scale` sizes the run against the map.
    fn batch_fixture(
        batch_scale: usize,
    ) -> (HashViewStorage, HashViewStorage, Vec<(Vec<Value>, Number)>) {
        let mut a = HashViewStorage::new(2);
        let mut b = HashViewStorage::new(2);
        for m in [&mut a, &mut b] {
            m.register_index(vec![1]);
            for i in 0..64i64 {
                m.add(key(&[i, i % 4]), Number::Int(i + 1));
            }
        }
        let mut deltas: Vec<(Vec<Value>, Number)> = Vec::new();
        for i in 0..(batch_scale as i64) {
            deltas.push((key(&[3 * i, 3 * i % 4]), Number::Int(-(3 * i + 1))));
            deltas.push((key(&[3 * i + 1, (3 * i + 1) % 4]), Number::Int(5)));
            deltas.push((key(&[100 + i, 0]), Number::Int(7)));
            deltas.push((key(&[200 + i, 1]), Number::Int(0)));
        }
        deltas.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        deltas.dedup_by(|x, y| x.0 == y.0);
        (a, b, deltas)
    }

    /// Same tables, same pruning, same index maintenance: slices on column 1 still
    /// see every entry.
    fn assert_same_contents(a: &HashViewStorage, b: &HashViewStorage, label: &str) {
        assert_eq!(a.to_table(), b.to_table(), "{label}");
        assert_eq!(a.len(), b.len(), "{label}");
        assert_eq!(a.footprint(), b.footprint(), "{label}");
        for n in 0..4 {
            let mut via_a = slice_entries(a, &[1], &key(&[n]));
            let mut via_b = slice_entries(b, &[1], &key(&[n]));
            via_a.sort_unstable_by(|x, y| x.0.cmp(&y.0));
            via_b.sort_unstable_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(via_a, via_b, "{label} slice {n}");
        }
    }

    /// `apply_sorted` must be indistinguishable from the equivalent `add_ref` loop —
    /// same tables, same pruning, same index maintenance — for batches small and large
    /// relative to the map, including zero deltas, zero-sum pruning and brand-new keys.
    /// (The name predates the removal of the second backend.)
    #[test]
    fn apply_sorted_matches_the_add_ref_loop_on_both_backends() {
        for batch_scale in [1usize, 12] {
            let (mut batched, mut looped, deltas) = batch_fixture(batch_scale);
            let refs: Vec<(&[Value], Number)> =
                deltas.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
            batched.apply_sorted(&refs, |_, _| {});
            for (k, d) in &deltas {
                looped.add_ref(k, *d);
            }
            assert_same_contents(&batched, &looped, &format!("scale={batch_scale}"));
        }
    }

    /// The pre-image log of `apply_sorted` (formerly the separate
    /// `apply_sorted_logged`) must report exactly the pre-images a probe loop before
    /// the batch would have seen — one log call per delta key, zero for absent keys —
    /// while landing what the unobserved batch lands. This is the invariant the
    /// staged-ingest undo log is built on.
    #[test]
    fn apply_sorted_logged_matches_a_probe_loop_plus_apply_sorted() {
        for batch_scale in [1usize, 12] {
            let (mut logged, mut probed, deltas) = batch_fixture(batch_scale);
            let refs: Vec<(&[Value], Number)> =
                deltas.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
            let mut expected: Vec<(Vec<Value>, Number)> = refs
                .iter()
                .map(|(k, _)| (k.to_vec(), probed.get(k)))
                .collect();
            probed.apply_sorted(&refs, |_, _| {});
            let mut captured: Vec<(Vec<Value>, Number)> = Vec::new();
            logged.apply_sorted(&refs, |k, pre| captured.push((k.to_vec(), pre)));
            // Log order is implementation-defined; contents are not.
            captured.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let label = format!("scale={batch_scale}");
            assert_eq!(captured, expected, "pre-image log diverged ({label})");
            assert_same_contents(&logged, &probed, &label);
        }
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
            m.add(key(&[a, b, c]), Number::Int(v));
        }
        // Zero-sum removals *before* registration: the index must not resurrect them.
        m.add(key(&[1, 11, 7]), Number::Int(-3));
        m.add(key(&[2, 10, 8]), Number::Int(-4));
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
        m.add(key(&[4, 13, 7]), Number::Int(9));
        m.add(key(&[1, 10, 7]), Number::Int(-2));
        for (positions, values) in [(vec![2], key(&[7])), (vec![1, 2], key(&[13, 7]))] {
            let mut indexed = slice_entries(&m, &positions, &values);
            indexed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(indexed, scan_matches(&m, &positions, &values));
        }
    }

    /// `restore` must reproduce a previously-observed entry state bit-exactly: floats
    /// come back with their original bit pattern (where a `set` of the arithmetic
    /// difference would not), zero restores prune, and index maintenance tracks every
    /// transition. (The name predates the removal of the second backend.)
    #[test]
    fn restore_is_bit_exact_on_both_backends() {
        let mut m = HashViewStorage::new(1);
        m.register_index(vec![0]);
        // 0.1 + 0.2 is famously not 0.3; capture the pre-image and restore it.
        m.add(key(&[1]), Number::Float(0.1));
        let before = m.get(&key(&[1]));
        m.add(key(&[1]), Number::Float(0.2));
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

    /// The trait's provided `set` and `to_table`. (The name predates the removal of
    /// the second backend.)
    #[test]
    fn provided_methods_work_on_both_backends() {
        let mut m = HashViewStorage::new(2);
        m.set(key(&[1, 2]), Number::Int(5));
        m.set(key(&[1, 3]), Number::Int(7));
        m.set(key(&[1, 2]), Number::Int(2));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(2));
        m.set(key(&[1, 3]), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        let table = m.to_table();
        assert_eq!(table.len(), 1);
        assert_eq!(table[&key(&[1, 2])], Number::Int(2));
    }
}
