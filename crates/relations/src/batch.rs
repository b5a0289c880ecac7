//! Delta batches: a sequence of single-tuple updates normalized into per-relation,
//! per-sign groups of *weighted* deltas.
//!
//! Real ingest rarely arrives one tuple at a time. A [`DeltaBatch`] treats a slice of
//! [`Update`]s as what it algebraically is — one delta relation (a Z-set): multiplicities
//! of identical tuples are consolidated *before* any trigger fires (so a `+R(t)` / `-R(t)`
//! pair inside the batch cancels to nothing), zero-multiplicity updates are dropped, and
//! the surviving net deltas are grouped by `(relation, sign)` with each group's keys in
//! the order of their first update. Nothing sorts them: the deltas of a Z-set commute,
//! so their order changes no view, and a batch lands the same way whenever the same
//! updates arrive in the same order. Only publication orders keys.
//!
//! The batch *borrows* the updates it normalizes: construction consolidates references
//! to the updates' own tuples, so it performs no per-tuple clones and no tree
//! maintenance — the normalization cost stays a small fraction of actually firing the
//! triggers, which is what makes small batch sizes worthwhile at all.
//!
//! Because the maintained views depend only on the *net* content of the base relations,
//! applying a batch is equivalent to applying its updates one by one, in any order — the
//! executors' batch paths exploit exactly this.

use std::collections::HashMap;
use std::fmt;

use crate::database::Update;
use crate::value::Value;

/// One group of a [`DeltaBatch`]: the net deltas of one relation under one sign, keys
/// distinct and in first-arrival order, weights strictly positive.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeltaGroup<'a> {
    relation: &'a str,
    is_insert: bool,
    /// `(tuple, weight)` pairs with distinct tuples and weights `>= 1`; a weight of `w`
    /// stands for `w` identical single-tuple updates of this group's sign.
    deltas: Vec<(&'a [Value], i64)>,
}

impl<'a> DeltaGroup<'a> {
    /// Builds a group from already-normalized deltas (keys distinct, weights `>= 1`);
    /// crate-internal so the invariants stay with the normalizers.
    pub(crate) fn new(relation: &'a str, is_insert: bool, deltas: Vec<(&'a [Value], i64)>) -> Self {
        debug_assert!(deltas.iter().all(|(_, w)| *w >= 1));
        DeltaGroup {
            relation,
            is_insert,
            deltas,
        }
    }

    /// The relation this group updates.
    pub fn relation(&self) -> &'a str {
        self.relation
    }

    /// Whether the group's deltas are insertions (positive net multiplicity).
    pub fn is_insert(&self) -> bool {
        self.is_insert
    }

    /// The net deltas: `(tuple, weight)` with distinct tuples, in the order of their
    /// first update, and every weight `>= 1`. The sign lives on the group
    /// ([`DeltaGroup::is_insert`]), so a weight is always the *magnitude* of the net
    /// multiplicity.
    pub fn deltas(&self) -> &[(&'a [Value], i64)] {
        &self.deltas
    }

    /// Sum of the weights: how many single-tuple updates this group stands for.
    pub fn total_weight(&self) -> u64 {
        self.deltas.iter().map(|(_, w)| *w as u64).sum()
    }
}

/// A batch of updates normalized into consolidated [`DeltaGroup`]s, borrowing the
/// updates it was built from.
///
/// Construction ([`DeltaBatch::from_updates`]) nets out multiplicities per
/// `(relation, tuple)`, drops tuples whose net multiplicity is zero (including explicit
/// `multiplicity: 0` updates), and emits at most two groups per relation — insertions,
/// then deletions — in ascending relation-name order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeltaBatch<'a> {
    groups: Vec<DeltaGroup<'a>>,
}

impl<'a> DeltaBatch<'a> {
    /// Normalizes a sequence of updates into a batch: consolidate multiplicities of
    /// identical `(relation, tuple)` pairs in arrival order, drop zero-sum tuples.
    /// Costs one linear bucketing pass over the updates (each distinct relation name
    /// is resolved *once per batch* — a run-of-equal-names memo plus a name→bucket
    /// map, never per-update string compares) plus one pass *per relation* through a
    /// map keyed by the tuple slice. Nothing is cloned.
    ///
    /// For repeated ingest, [`BatchNormalizer`](crate::intern::BatchNormalizer)
    /// produces the identical batch with scratch reused across batches; this
    /// constructor remains the reference implementation.
    pub fn from_updates(updates: impl IntoIterator<Item = &'a Update>) -> Self {
        let mut buckets: Vec<(&'a str, Vec<&'a Update>)> = Vec::new();
        let mut bucket_of: HashMap<&'a str, usize> = HashMap::new();
        let mut memo: Option<(&'a str, usize)> = None;
        for update in updates {
            if update.multiplicity == 0 {
                continue;
            }
            let slot = match memo {
                Some((name, slot)) if name == update.relation => slot,
                _ => {
                    let slot = *bucket_of
                        .entry(update.relation.as_str())
                        .or_insert_with(|| {
                            buckets.push((update.relation.as_str(), Vec::new()));
                            buckets.len() - 1
                        });
                    memo = Some((update.relation.as_str(), slot));
                    slot
                }
            };
            buckets[slot].1.push(update);
        }
        buckets.sort_unstable_by_key(|(relation, _)| *relation);
        let mut groups: Vec<DeltaGroup<'a>> = Vec::new();
        for (relation, bucket) in buckets {
            // Net each distinct tuple at the position of its first update, then split
            // the nets by sign; both splits inherit the first-arrival order.
            let mut net_of: HashMap<&'a [Value], usize> = HashMap::new();
            let mut nets: Vec<(&'a [Value], i64)> = Vec::new();
            for update in bucket {
                let values = update.values.as_slice();
                let i = *net_of.entry(values).or_insert_with(|| {
                    nets.push((values, 0));
                    nets.len() - 1
                });
                nets[i].1 += update.multiplicity;
            }
            let mut inserts: Vec<(&'a [Value], i64)> = Vec::new();
            let mut deletes: Vec<(&'a [Value], i64)> = Vec::new();
            for (values, net) in nets {
                match net.cmp(&0) {
                    std::cmp::Ordering::Greater => inserts.push((values, net)),
                    std::cmp::Ordering::Less => deletes.push((values, -net)),
                    std::cmp::Ordering::Equal => {} // cancelled inside the batch
                }
            }
            if !inserts.is_empty() {
                groups.push(DeltaGroup {
                    relation,
                    is_insert: true,
                    deltas: inserts,
                });
            }
            if !deletes.is_empty() {
                groups.push(DeltaGroup {
                    relation,
                    is_insert: false,
                    deltas: deletes,
                });
            }
        }
        DeltaBatch { groups }
    }

    /// Builds a batch from already-normalized groups (relation-ascending, insertions
    /// before deletions per relation); crate-internal, used by the
    /// [`BatchNormalizer`](crate::intern::BatchNormalizer).
    pub(crate) fn from_groups(groups: Vec<DeltaGroup<'a>>) -> Self {
        DeltaBatch { groups }
    }

    /// The consolidated groups, ordered by relation name with insertions before
    /// deletions.
    pub fn groups(&self) -> &[DeltaGroup<'a>] {
        &self.groups
    }

    /// Number of distinct `(relation, tuple, sign)` deltas across all groups.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.deltas.len()).sum()
    }

    /// Whether every update in the batch cancelled out (or the batch was empty).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Sum of all weights: how many single-tuple updates the batch stands for after
    /// consolidation.
    pub fn total_weight(&self) -> u64 {
        self.groups.iter().map(DeltaGroup::total_weight).sum()
    }
}

impl fmt::Display for DeltaBatch<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch of {} deltas (weight {}) over {} groups",
            self.len(),
            self.total_weight(),
            self.groups.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(rel: &str, v: i64) -> Update {
        Update::insert(rel, vec![Value::int(v)])
    }

    fn del(rel: &str, v: i64) -> Update {
        Update::delete(rel, vec![Value::int(v)])
    }

    fn key(v: i64) -> Vec<Value> {
        vec![Value::int(v)]
    }

    #[test]
    fn consolidates_multiplicities_and_cancels_pairs() {
        let updates = [
            ins("R", 1),
            ins("R", 1),
            del("R", 2),
            ins("R", 2),
            ins("R", 3),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        // R(2): +1 and -1 cancel; R(1) nets to +2; R(3) to +1.
        assert_eq!(batch.groups().len(), 1);
        let group = &batch.groups()[0];
        assert_eq!(group.relation(), "R");
        assert!(group.is_insert());
        assert_eq!(
            group.deltas(),
            &[(key(1).as_slice(), 2), (key(3).as_slice(), 1)]
        );
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.total_weight(), 3);
        assert_eq!(group.total_weight(), 3);
    }

    #[test]
    fn splits_signs_into_separate_groups_inserts_first() {
        let updates = [del("R", 5), ins("R", 1), del("R", 5), ins("S", 9)];
        let batch = DeltaBatch::from_updates(&updates);
        let shapes: Vec<(&str, bool, usize)> = batch
            .groups()
            .iter()
            .map(|g| (g.relation(), g.is_insert(), g.deltas().len()))
            .collect();
        assert_eq!(
            shapes,
            vec![("R", true, 1), ("R", false, 1), ("S", true, 1)]
        );
        // The double deletion consolidates to one weight-2 delta.
        assert_eq!(batch.groups()[1].deltas(), &[(key(5).as_slice(), 2)]);
    }

    #[test]
    fn zero_multiplicity_updates_and_full_cancellation_yield_an_empty_batch() {
        let mut zero = ins("R", 1);
        zero.multiplicity = 0;
        let updates = [zero, ins("R", 2), del("R", 2)];
        let batch = DeltaBatch::from_updates(&updates);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.total_weight(), 0);
        assert!(DeltaBatch::from_updates([]).is_empty());
    }

    #[test]
    fn negative_consolidation_crosses_zero() {
        // +1 then -3 nets to a weight-2 deletion.
        let mut big_del = del("R", 7);
        big_del.multiplicity = -3;
        let updates = [ins("R", 7), big_del];
        let batch = DeltaBatch::from_updates(&updates);
        assert_eq!(batch.groups().len(), 1);
        let group = &batch.groups()[0];
        assert!(!group.is_insert());
        assert_eq!(group.deltas(), &[(key(7).as_slice(), 2)]);
    }

    #[test]
    fn group_keys_keep_their_first_arrival_order() {
        let updates = [ins("R", 9), ins("R", 3), ins("R", 6), ins("R", 3)];
        let batch = DeltaBatch::from_updates(&updates);
        let keys: Vec<i64> = batch.groups()[0]
            .deltas()
            .iter()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![9, 3, 6]);
        assert_eq!(
            batch.to_string(),
            "batch of 3 deltas (weight 4) over 1 groups"
        );
        // A key that nets to zero drops out; a repeated key keeps the place of its
        // first update.
        let updates = [
            ins("R", 5),
            ins("R", 2),
            del("R", 2),
            ins("R", 1),
            ins("R", 5),
        ];
        assert_eq!(
            DeltaBatch::from_updates(&updates).groups()[0].deltas(),
            &[(key(5).as_slice(), 2), (key(1).as_slice(), 1)]
        );
    }
}
