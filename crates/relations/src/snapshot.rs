//! A write-optimized base snapshot: positional relation contents, cheap to maintain on
//! every update, materializable into a [`Database`] when something actually needs one.
//!
//! A multi-view engine that supports *late view registration* must be able to answer
//! "what do the base relations contain right now?" — but it must answer it rarely
//! (only when a view is created mid-stream), while paying for the bookkeeping on
//! *every* update. A [`Database`] is the wrong shape for that write path: its contents
//! are GMRs keyed by schema-carrying [`Tuple`](crate::tuple::Tuple)s, so recording one
//! update means building a `BTreeMap<String, Value>` with cloned column names — fine
//! for evaluation, wasteful as a mirror.
//!
//! [`Snapshot`] keeps the same information as **one flat, interned row table per
//! relation**. A tuple's values are encoded with the snapshot's own interner into
//! fixed-width `IVal` words (strings become ids) and stored at stride = arity in
//! fixed-size chunks that are never reallocated; the net multiplicity sits beside
//! the row; a power-of-two slot array of `(row id, 32-bit hash)` at load ≤ ½ finds a
//! row by linear probing and compares raw words — a base trace needs equality, not
//! `Value` order. Recording an update is therefore one multiply-rotate hash over a
//! few words, one probe and one word compare on flat memory: no `Vec<Value>` key, no
//! allocation per inserted row, no free per deleted one. Rows whose net reaches zero
//! are removed by backward-shift deletion and their ids reused, so a churn stream
//! that nets to zero settles into a state that allocates nothing. Relation names
//! resolve to a dense table id once per [`DeltaGroup`](crate::batch::DeltaGroup), and
//! through a last-relation memo on the per-update path.
//!
//! Strings are reference-counted by the rows that hold them: a stored row takes one
//! reference on each of its string ids and a removed row drops them, and an id whose
//! count reaches zero leaves the interner, its slot reused. A stream of fresh strings
//! that nets to zero therefore leaves no string behind
//! ([`BaseFootprint::strings`]).
//!
//! The price is paid where it is rare: [`Snapshot::to_database`] decodes every live
//! row back into [`Value`]s (strings share the interner's `Arc`s) and rebuilds the
//! schema-carrying form once per *distinct live tuple*, exactly when a backfill asks
//! for it.
//!
//! The row hash is seeded per snapshot ([`random_seed`]), because the mirror sits
//! behind a serving boundary: with a fixed hash a client could precompute rows that
//! share one probe chain. Results do not depend on the seed — materialization lands in
//! `BTreeMap`-keyed GMRs.

use std::collections::HashMap;

use crate::batch::DeltaBatch;
use crate::database::{Database, DatabaseError, Update};
use crate::intern::{IVal, Interner, RowTable};
use crate::value::{random_seed, Value};

/// What a [`Snapshot`] holds, in numbers an operator can read (see
/// [`Snapshot::footprint`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BaseFootprint {
    /// Distinct live tuples across all relations ([`Snapshot::total_support`]).
    pub tuples: usize,
    /// Rows the allocated row chunks can hold before another chunk is allocated.
    pub row_capacity: usize,
    /// Total length of the open-addressing slot arrays (kept at load ≤ ½).
    pub slots: usize,
    /// Heap bytes owned by the row tables: row chunks at full capacity,
    /// multiplicities, slot arrays and free lists. Interned string bytes are not
    /// counted (they are shared with the values that were ingested).
    pub bytes: usize,
    /// Distinct strings the live tuples hold (the interner's live ids).
    pub strings: usize,
}

/// The rows recorded under one relation name at one arity.
#[derive(Clone, Debug)]
struct Relation {
    name: String,
    rows: RowTable,
}

/// Positional relation contents mirrored from an update stream; see the
/// [module docs](self). Maintenance performs **no validation** — feed it only updates
/// the owning catalog has already vetted (unknown relations simply accumulate under
/// their name; rows of different arities under one name are kept apart and surface
/// as an error at [`Snapshot::to_database`]).
#[derive(Clone, Debug)]
pub struct Snapshot {
    interner: Interner,
    /// Initial state of every table's row hash; a clone keeps it.
    seed: u64,
    relations: Vec<Relation>,
    /// Relation name → indices into `relations`, one per arity seen (one, on
    /// catalog-vetted streams).
    ids: HashMap<String, Vec<usize>>,
    /// The table the previous row went to: runs of one relation skip the name lookup.
    last: usize,
    /// The row being recorded, encoded.
    row: Vec<IVal>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::new()
    }
}

impl Snapshot {
    /// An empty snapshot, its row hash seeded by [`random_seed`].
    pub fn new() -> Self {
        Snapshot::with_seed(random_seed())
    }

    /// An empty snapshot with a chosen hash seed, so a test can construct rows that
    /// collide.
    pub(crate) fn with_seed(seed: u64) -> Self {
        Snapshot {
            interner: Interner::default(),
            seed,
            relations: Vec::new(),
            ids: HashMap::new(),
            last: 0,
            row: Vec::new(),
        }
    }

    /// Mirrors the contents of a loaded database (used when an engine starts from
    /// existing data rather than an empty stream). Relations are read in their
    /// declared column order, so a later [`Snapshot::to_database`] round-trips.
    pub fn from_database(db: &Database) -> Self {
        let mut snapshot = Snapshot::new();
        for relation in db.relation_names() {
            let columns = db.columns(relation).expect("declared relation has columns");
            let table = snapshot.table(relation, columns.len());
            for (tuple, multiplicity) in db.relation(relation).expect("declared").iter() {
                let values = columns.iter().map(|c| {
                    tuple
                        .get(c)
                        .expect("database tuples carry their declared columns")
                });
                snapshot.bump(table, values, *multiplicity);
            }
        }
        snapshot
    }

    /// Index of the table for `relation` at `arity`, created on first sight.
    fn table(&mut self, relation: &str, arity: usize) -> usize {
        if let Some(last) = self.relations.get(self.last) {
            if last.rows.arity() == arity && last.name == relation {
                return self.last;
            }
        }
        let known = self.ids.get(relation).and_then(|tables| {
            tables
                .iter()
                .copied()
                .find(|&t| self.relations[t].rows.arity() == arity)
        });
        self.last = known.unwrap_or_else(|| {
            let table = self.relations.len();
            self.relations.push(Relation {
                name: relation.to_string(),
                rows: RowTable::new(arity, self.seed),
            });
            self.ids
                .entry(relation.to_string())
                .or_default()
                .push(table);
            table
        });
        self.last
    }

    /// Encodes `values` and adds `delta` (never zero) to that row's net multiplicity
    /// in `table`.
    fn bump<'a>(&mut self, table: usize, values: impl Iterator<Item = &'a Value>, delta: i64) {
        debug_assert_ne!(delta, 0, "a zero delta would intern strings no row holds");
        self.row.clear();
        let mut strings = false;
        self.row.extend(values.map(|v| {
            strings |= matches!(v, Value::Str(_));
            IVal::encode(v, &mut self.interner)
        }));
        if strings {
            self.add_counting_strings(table, delta);
        } else {
            self.relations[table].rows.add(&self.row, delta);
        }
    }

    /// [`bump`](Self::bump)'s second half for a row holding strings: a row this call
    /// stores takes a reference on each of its string ids, and a row it removes
    /// releases them. Kept out of line and off the string-free rows' path: done
    /// inline for every row, the bookkeeping measured up to 20 % slower on int rows
    /// in a microbenchmark (E24).
    #[inline(never)]
    fn add_counting_strings(&mut self, table: usize, delta: i64) {
        let rows = &mut self.relations[table].rows;
        let live = rows.len();
        rows.add(&self.row, delta);
        let count: fn(&mut Interner, u32) = match rows.len().cmp(&live) {
            std::cmp::Ordering::Greater => Interner::retain,
            std::cmp::Ordering::Less => Interner::release,
            std::cmp::Ordering::Equal => return,
        };
        let ids = || self.row.iter().filter_map(|word| word.str_id());
        for id in ids() {
            count(&mut self.interner, id);
        }
        debug_assert_eq!(self.interner.check(ids()), Ok(()));
    }

    /// Records one single-tuple update (`±R(t⃗)` with any multiplicity; zero is a
    /// no-op). A tuple is stored the first time it is seen and removed when its net
    /// multiplicity reaches zero.
    pub fn apply(&mut self, update: &Update) {
        if update.multiplicity == 0 {
            return;
        }
        let table = self.table(&update.relation, update.values.len());
        self.bump(table, update.values.iter(), update.multiplicity);
    }

    /// Records an already-normalized [`DeltaBatch`] — one relation resolution per
    /// group, one table update per *distinct* tuple.
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) {
        for group in batch.groups() {
            let sign = if group.is_insert() { 1 } else { -1 };
            let mut resolved: Option<usize> = None;
            for (values, weight) in group.deltas() {
                // One name resolution per group; again only if a (malformed) group
                // mixes arities.
                let table = match resolved {
                    Some(t) if self.relations[t].rows.arity() == values.len() => t,
                    _ => self.table(group.relation(), values.len()),
                };
                resolved = Some(table);
                self.bump(table, values.iter(), sign * weight);
            }
        }
    }

    /// Number of distinct live tuples across all relations.
    pub fn total_support(&self) -> usize {
        self.relations.iter().map(|r| r.rows.len()).sum()
    }

    /// Whether no live tuples are recorded.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(|r| r.rows.len() == 0)
    }

    /// What the mirror holds and what it costs: live tuples, allocated row capacity,
    /// slot-array length and heap bytes, summed over the relations, and the live
    /// strings. Capacity only ever grows; a stream that deletes back to empty and
    /// regrows reuses it.
    pub fn footprint(&self) -> BaseFootprint {
        let mut total = BaseFootprint {
            strings: self.interner.len(),
            ..BaseFootprint::default()
        };
        for relation in &self.relations {
            total.tuples += relation.rows.len();
            total.row_capacity += relation.rows.row_capacity();
            total.slots += relation.rows.slots();
            total.bytes += relation.rows.bytes();
        }
        total
    }

    /// Materializes the snapshot into a schema-carrying [`Database`] over the given
    /// catalog: the catalog's declarations plus this snapshot's contents. This is the
    /// rare, per-backfill operation the snapshot exists to defer — it costs one tuple
    /// construction per distinct live tuple. Errors if the snapshot holds a relation
    /// the catalog never declared, or rows of the wrong arity.
    pub fn to_database(&self, catalog: &Database) -> Result<Database, DatabaseError> {
        let mut db = catalog.schema_only();
        for relation in self.relations.iter().filter(|r| r.rows.len() > 0) {
            let rows = relation.rows.iter().map(|(row, multiplicity)| {
                let values = row.iter().map(|word| word.decode(&self.interner));
                (values, multiplicity)
            });
            db.add_rows(&relation.name, relation.rows.arity(), rows)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Database {
        let mut db = Database::new();
        db.declare("R", &["A", "B"]).unwrap();
        db.declare("S", &["X"]).unwrap();
        db
    }

    fn ins(rel: &str, vals: &[i64]) -> Update {
        Update::insert(rel, vals.iter().map(|&v| Value::int(v)).collect())
    }

    #[test]
    fn mirrors_updates_and_materializes_the_equivalent_database() {
        let mut snapshot = Snapshot::new();
        let mut reference = catalog();
        let updates = [
            ins("R", &[1, 2]),
            ins("R", &[1, 2]),
            ins("R", &[3, 4]),
            ins("S", &[7]),
            ins("R", &[3, 4]).inverse(),
        ];
        for u in &updates {
            snapshot.apply(u);
            reference.apply(u).unwrap();
        }
        assert_eq!(snapshot.total_support(), reference.total_support());
        let materialized = snapshot.to_database(&catalog()).unwrap();
        for rel in ["R", "S"] {
            let mut a: Vec<_> = materialized.relation(rel).unwrap().iter().collect();
            let mut b: Vec<_> = reference.relation(rel).unwrap().iter().collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{rel}");
        }
    }

    #[test]
    fn batch_maintenance_matches_per_update_maintenance() {
        let updates = [
            ins("R", &[1, 1]),
            ins("R", &[1, 1]),
            ins("R", &[2, 2]),
            ins("R", &[2, 2]).inverse(),
            ins("S", &[5]),
        ];
        let mut per_update = Snapshot::new();
        for u in &updates {
            per_update.apply(u);
        }
        let mut batched = Snapshot::new();
        batched.apply_delta_batch(&DeltaBatch::from_updates(&updates));
        assert_eq!(per_update.total_support(), batched.total_support());
        assert_eq!(
            per_update.to_database(&catalog()).unwrap().total_support(),
            batched.to_database(&catalog()).unwrap().total_support()
        );
    }

    #[test]
    fn zero_sums_are_pruned_and_zero_multiplicity_is_a_no_op() {
        let mut snapshot = Snapshot::new();
        snapshot.apply(&ins("R", &[1, 2]));
        snapshot.apply(&ins("R", &[1, 2]).inverse());
        assert!(snapshot.is_empty());
        let mut zero = ins("R", &[9, 9]);
        zero.multiplicity = 0;
        snapshot.apply(&zero);
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.total_support(), 0);
    }

    #[test]
    fn from_database_round_trips() {
        let mut db = catalog();
        db.apply_all(&[ins("R", &[1, 2]), ins("R", &[1, 2]), ins("S", &[3])])
            .unwrap();
        let snapshot = Snapshot::from_database(&db);
        assert_eq!(snapshot.total_support(), 2);
        let back = snapshot.to_database(&catalog()).unwrap();
        assert_eq!(back.total_support(), db.total_support());
        assert_eq!(
            back.relation("R").unwrap().iter().count(),
            db.relation("R").unwrap().iter().count()
        );
    }

    #[test]
    fn materialization_validates_against_the_catalog() {
        let mut snapshot = Snapshot::new();
        snapshot.apply(&ins("Ghost", &[1]));
        assert!(matches!(
            snapshot.to_database(&catalog()),
            Err(DatabaseError::UnknownRelation(_))
        ));
        let mut bad_arity = Snapshot::new();
        bad_arity.apply(&ins("S", &[1, 2]));
        assert!(matches!(
            bad_arity.to_database(&catalog()),
            Err(DatabaseError::ArityMismatch { .. })
        ));
    }

    /// A client that knew the seed could aim every row at one probe chain. With the
    /// crate-private fixed seed, do exactly that: ≥ 10 000 rows on ≤ 8 home slots,
    /// half of them in the last slots of the array so the chain wraps around, then
    /// random deletes and re-inserts against a model. A wrong backward-shift
    /// condition loses rows here (and trips the table's debug assertions first).
    #[test]
    fn rows_aimed_at_one_probe_chain_survive_random_deletes() {
        use crate::intern::int_with_row_hash;
        const SEED: u64 = 0x5eed_0bad_c0de;
        const ROWS: u32 = 10_000;
        // Low 20 bits of the stored hash: the last four and the first four slots of
        // any slot array of up to 2²⁰ slots.
        const LOW: [u32; 8] = [0xf_fffc, 0xf_fffd, 0xf_fffe, 0xf_ffff, 0, 1, 2, 3];
        let keys: Vec<i64> = (0..ROWS)
            .map(|i| int_with_row_hash(SEED, (i / 8) << 20 | LOW[i as usize % 8], i))
            .collect();
        let row = |key: i64| Update::insert("S", vec![Value::int(key)]);

        let mut snapshot = Snapshot::with_seed(SEED);
        let mut model = std::collections::HashMap::new();
        for &key in &keys {
            snapshot.apply(&row(key));
            model.insert(key, 1i64);
        }
        assert_eq!(snapshot.total_support(), ROWS as usize);
        assert!(snapshot.relations[0].rows.distinct_homes() <= 8);

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..ROWS {
            let key = keys[next() as usize % keys.len()];
            // Mostly deletes, some re-inserts of deleted rows, some weight bumps.
            let delta = if next() % 4 == 0 { 1 } else { -1 };
            let mut update = row(key);
            update.multiplicity = delta;
            snapshot.apply(&update);
            let net = model.entry(key).or_insert(0);
            *net += delta;
            if *net == 0 {
                model.remove(&key);
            }
        }
        assert_eq!(snapshot.total_support(), model.len());
        let db = snapshot.to_database(&catalog()).unwrap();
        let stored = db.relation("S").unwrap();
        assert_eq!(stored.iter().count(), model.len());
        for (key, net) in &model {
            assert_eq!(stored.get(&crate::tuple! { "X" => *key }), *net, "{key}");
        }
        // And back to nothing: every remaining row leaves through the same chain.
        for (key, net) in model {
            let mut update = row(key);
            update.multiplicity = -net;
            snapshot.apply(&update);
        }
        assert!(snapshot.is_empty());
    }
}
