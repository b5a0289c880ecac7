//! Databases and single-tuple updates.
//!
//! A [`Database`] maps relation names to classical bag relations stored as GMRs over `ℤ`
//! (`ℤ[T]`), together with a declared column order so positional rows (and positional
//! update events `±R(t₁,…,t_k)`) can be translated into schema-carrying [`Tuple`]s.
//!
//! An [`Update`] is the paper's single-tuple update `±R(t⃗)`: the insertion
//! (`multiplicity = +1`) or deletion (`multiplicity = −1`) of one tuple. Update streams
//! drive every maintenance strategy in the workspace — the compiled recursive-IVM
//! programs, the classical first-order IVM baseline, and naive re-evaluation.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::gmr::Gmr;
use crate::tuple::Tuple;
use crate::value::Value;

/// Errors raised by [`Database`] operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DatabaseError {
    /// The relation has not been declared.
    UnknownRelation(String),
    /// The relation was declared twice.
    AlreadyDeclared(String),
    /// A row or update had the wrong number of values.
    ArityMismatch {
        /// Relation concerned.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Arity of the offending row.
        got: usize,
    },
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            DatabaseError::AlreadyDeclared(r) => write!(f, "relation {r} declared twice"),
            DatabaseError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} expects {expected} values, got {got}"
            ),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// A single-tuple update `±R(t⃗)` — the paper's update events `+R(a)` / `−R(a)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Update {
    /// The relation being updated.
    pub relation: String,
    /// The tuple's values, in the relation's declared column order.
    pub values: Vec<Value>,
    /// `+1` for insertion, `−1` for deletion (other magnitudes are allowed and mean a
    /// batch of identical single-tuple updates).
    pub multiplicity: i64,
}

impl Update {
    /// An insertion `+R(t⃗)`.
    pub fn insert(relation: impl Into<String>, values: Vec<Value>) -> Self {
        Update {
            relation: relation.into(),
            values,
            multiplicity: 1,
        }
    }

    /// A deletion `−R(t⃗)`.
    pub fn delete(relation: impl Into<String>, values: Vec<Value>) -> Self {
        Update {
            relation: relation.into(),
            values,
            multiplicity: -1,
        }
    }

    /// Whether this update is an insertion (positive multiplicity).
    pub fn is_insert(&self) -> bool {
        self.multiplicity > 0
    }

    /// The update with the opposite sign.
    pub fn inverse(&self) -> Self {
        Update {
            relation: self.relation.clone(),
            values: self.values.clone(),
            multiplicity: -self.multiplicity,
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.multiplicity >= 0 { "+" } else { "-" };
        write!(f, "{}{}{}(", sign, self.multiplicity.abs(), self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[derive(Clone, Debug)]
struct RelationData {
    columns: Vec<String>,
    data: Gmr<i64>,
}

/// A database: named relations with declared column orders and `ℤ`-multiplicity contents.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, RelationData>,
}

impl Database {
    /// An empty database with no declared relations.
    pub fn new() -> Self {
        Database::default()
    }

    /// Declares a relation with the given column names.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        columns: &[&str],
    ) -> Result<(), DatabaseError> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(DatabaseError::AlreadyDeclared(name));
        }
        self.relations.insert(
            name,
            RelationData {
                columns: columns.iter().map(|c| c.to_string()).collect(),
                data: Gmr::zero(),
            },
        );
        Ok(())
    }

    /// The declared column names of a relation.
    pub fn columns(&self, relation: &str) -> Option<&[String]> {
        self.relations.get(relation).map(|r| r.columns.as_slice())
    }

    /// The names of all declared relations, in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// The contents of a relation as a GMR over `ℤ`.
    pub fn relation(&self, relation: &str) -> Option<&Gmr<i64>> {
        self.relations.get(relation).map(|r| &r.data)
    }

    /// Builds the schema-carrying [`Tuple`] for a positional row of a relation.
    pub fn row_tuple(&self, relation: &str, values: &[Value]) -> Result<Tuple, DatabaseError> {
        let rel = self
            .relations
            .get(relation)
            .ok_or_else(|| DatabaseError::UnknownRelation(relation.to_string()))?;
        if rel.columns.len() != values.len() {
            return Err(DatabaseError::ArityMismatch {
                relation: relation.to_string(),
                expected: rel.columns.len(),
                got: values.len(),
            });
        }
        Ok(Tuple::from_pairs(
            rel.columns.iter().cloned().zip(values.iter().cloned()),
        ))
    }

    /// Inserts a row with multiplicity `+1`.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> Result<(), DatabaseError> {
        self.apply(&Update::insert(relation, values))
    }

    /// Deletes a row (multiplicity `−1`; the relation may go negative, per Remark 5.1).
    pub fn delete(&mut self, relation: &str, values: Vec<Value>) -> Result<(), DatabaseError> {
        self.apply(&Update::delete(relation, values))
    }

    /// Applies a single-tuple update `±R(t⃗)`: `D + u` in the paper's notation.
    pub fn apply(&mut self, update: &Update) -> Result<(), DatabaseError> {
        let tuple = self.row_tuple(&update.relation, &update.values)?;
        let rel = self
            .relations
            .get_mut(&update.relation)
            .expect("row_tuple already checked existence");
        rel.data.add_entry(tuple, update.multiplicity);
        Ok(())
    }

    /// Applies a sequence of updates.
    pub fn apply_all<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(), DatabaseError> {
        for u in updates {
            self.apply(u)?;
        }
        Ok(())
    }

    /// Applies an already-normalized [`DeltaBatch`](crate::batch::DeltaBatch) — the
    /// batch counterpart of [`Database::apply_all`]: each group's relation is
    /// resolved once and its net deltas land in one pass, paying per *distinct*
    /// tuple rather than per source update. For callers that keep a schema-carrying
    /// database current under batched ingest; a host that only needs a backfill
    /// source should maintain the cheaper positional [`Snapshot`](crate::Snapshot)
    /// instead and materialize on demand.
    ///
    /// Not atomic: a group against an undeclared relation (or a delta with the wrong
    /// arity) fails after every earlier group was applied.
    pub fn apply_delta_batch(
        &mut self,
        batch: &crate::batch::DeltaBatch<'_>,
    ) -> Result<(), DatabaseError> {
        for group in batch.groups() {
            let rel = self
                .relations
                .get_mut(group.relation())
                .ok_or_else(|| DatabaseError::UnknownRelation(group.relation().to_string()))?;
            let sign = if group.is_insert() { 1 } else { -1 };
            for (values, weight) in group.deltas() {
                if rel.columns.len() != values.len() {
                    return Err(DatabaseError::ArityMismatch {
                        relation: group.relation().to_string(),
                        expected: rel.columns.len(),
                        got: values.len(),
                    });
                }
                let tuple =
                    Tuple::from_pairs(rel.columns.iter().cloned().zip(values.iter().cloned()));
                rel.data.add_entry(tuple, sign * weight);
            }
        }
        Ok(())
    }

    /// Crate-internal bulk load for [`Snapshot::to_database`](crate::Snapshot::to_database):
    /// adds positional rows of one `arity` to one relation, resolving and validating
    /// the relation once rather than per row.
    pub(crate) fn add_rows<R: Iterator<Item = Value>>(
        &mut self,
        relation: &str,
        arity: usize,
        rows: impl Iterator<Item = (R, i64)>,
    ) -> Result<(), DatabaseError> {
        let rel = self
            .relations
            .get_mut(relation)
            .ok_or_else(|| DatabaseError::UnknownRelation(relation.to_string()))?;
        if rel.columns.len() != arity {
            return Err(DatabaseError::ArityMismatch {
                relation: relation.to_string(),
                expected: rel.columns.len(),
                got: arity,
            });
        }
        for (values, multiplicity) in rows {
            let tuple = Tuple::from_pairs(rel.columns.iter().cloned().zip(values));
            rel.data.add_entry(tuple, multiplicity);
        }
        Ok(())
    }

    /// The schema with none of the contents: every declared relation, every column
    /// list, all data dropped. This is the "catalog" reading of a loaded database —
    /// use it where only declarations should travel (compiling a query, seeding an
    /// empty engine) so contents cannot leak along with them.
    pub fn schema_only(&self) -> Database {
        Database {
            relations: self
                .relations
                .iter()
                .map(|(name, rel)| {
                    (
                        name.clone(),
                        RelationData {
                            columns: rel.columns.clone(),
                            data: Gmr::zero(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Total number of distinct tuples (support size) across all relations.
    pub fn total_support(&self) -> usize {
        self.relations.values().map(|r| r.data.support_size()).sum()
    }

    /// Whether every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|r| r.data.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn db_with_r() -> Database {
        let mut db = Database::new();
        db.declare("R", &["A", "B"]).unwrap();
        db
    }

    #[test]
    fn declare_and_columns() {
        let db = db_with_r();
        assert_eq!(
            db.columns("R"),
            Some(&["A".to_string(), "B".to_string()][..])
        );
        assert_eq!(db.columns("S"), None);
        assert_eq!(db.relation_names().collect::<Vec<_>>(), vec!["R"]);
        assert!(db.is_empty());
    }

    #[test]
    fn double_declaration_is_an_error() {
        let mut db = db_with_r();
        assert_eq!(
            db.declare("R", &["X"]),
            Err(DatabaseError::AlreadyDeclared("R".to_string()))
        );
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut db = db_with_r();
        db.insert("R", vec![Value::int(1), Value::str("x")])
            .unwrap();
        db.insert("R", vec![Value::int(1), Value::str("x")])
            .unwrap();
        db.insert("R", vec![Value::int(2), Value::str("y")])
            .unwrap();
        let r = db.relation("R").unwrap();
        assert_eq!(r.get(&tuple! { "A" => 1, "B" => "x" }), 2);
        assert_eq!(r.get(&tuple! { "A" => 2, "B" => "y" }), 1);
        assert_eq!(db.total_support(), 2);

        db.delete("R", vec![Value::int(1), Value::str("x")])
            .unwrap();
        assert_eq!(
            db.relation("R")
                .unwrap()
                .get(&tuple! { "A" => 1, "B" => "x" }),
            1
        );
        // Deleting a tuple that is not present leaves a negative multiplicity (Remark 5.1).
        db.delete("R", vec![Value::int(9), Value::str("z")])
            .unwrap();
        assert_eq!(
            db.relation("R")
                .unwrap()
                .get(&tuple! { "A" => 9, "B" => "z" }),
            -1
        );
    }

    #[test]
    fn arity_and_name_errors() {
        let mut db = db_with_r();
        assert_eq!(
            db.insert("S", vec![Value::int(1)]),
            Err(DatabaseError::UnknownRelation("S".to_string()))
        );
        assert_eq!(
            db.insert("R", vec![Value::int(1)]),
            Err(DatabaseError::ArityMismatch {
                relation: "R".to_string(),
                expected: 2,
                got: 1
            })
        );
        assert!(db.is_empty());
    }

    #[test]
    fn update_constructors_and_display() {
        let ins = Update::insert("R", vec![Value::int(1), Value::str("x")]);
        assert!(ins.is_insert());
        assert_eq!(ins.to_string(), "+1R(1, \"x\")");
        let del = ins.inverse();
        assert!(!del.is_insert());
        assert_eq!(del.multiplicity, -1);
        assert_eq!(del.to_string(), "-1R(1, \"x\")");
    }

    #[test]
    fn apply_all_and_cancellation() {
        let mut db = db_with_r();
        let u = Update::insert("R", vec![Value::int(1), Value::int(2)]);
        db.apply_all(&[u.clone(), u.clone(), u.inverse()]).unwrap();
        assert_eq!(
            db.relation("R")
                .unwrap()
                .get(&tuple! { "A" => 1, "B" => 2 }),
            1
        );
        db.apply(&u.inverse()).unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn apply_delta_batch_matches_apply_all() {
        use crate::batch::DeltaBatch;
        let mut db = db_with_r();
        db.declare("S", &["X"]).unwrap();
        let updates = vec![
            Update::insert("R", vec![Value::int(1), Value::int(2)]),
            Update::insert("R", vec![Value::int(1), Value::int(2)]),
            Update::delete("R", vec![Value::int(3), Value::int(4)]),
            Update::insert("S", vec![Value::int(9)]),
            Update::delete("S", vec![Value::int(9)]),
        ];
        let mut per_update = db.clone();
        per_update.apply_all(&updates).unwrap();
        let mut batched = db.clone();
        batched
            .apply_delta_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        let sorted = |db: &Database, rel: &str| {
            let mut entries: Vec<(Tuple, i64)> = db
                .relation(rel)
                .unwrap()
                .iter()
                .map(|(t, m)| (t.clone(), *m))
                .collect();
            entries.sort();
            entries
        };
        for rel in ["R", "S"] {
            assert_eq!(sorted(&per_update, rel), sorted(&batched, rel), "{rel}");
        }
        // Errors mirror the per-update path.
        let unknown = [Update::insert("Z", vec![Value::int(1)])];
        assert_eq!(
            db.clone()
                .apply_delta_batch(&DeltaBatch::from_updates(&unknown)),
            Err(DatabaseError::UnknownRelation("Z".to_string()))
        );
        let bad_arity = [Update::insert("R", vec![Value::int(1)])];
        assert!(matches!(
            db.clone()
                .apply_delta_batch(&DeltaBatch::from_updates(&bad_arity)),
            Err(DatabaseError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn schema_only_keeps_declarations_and_drops_contents() {
        let mut db = db_with_r();
        db.insert("R", vec![Value::int(1), Value::str("x")])
            .unwrap();
        let schema = db.schema_only();
        assert_eq!(schema.columns("R"), db.columns("R"));
        assert!(schema.is_empty());
        assert_eq!(schema.total_support(), 0);
        assert_eq!(db.total_support(), 1, "the source is untouched");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DatabaseError::UnknownRelation("X".into()).to_string(),
            "unknown relation X"
        );
        assert!(DatabaseError::ArityMismatch {
            relation: "R".into(),
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expects 2"));
    }
}
