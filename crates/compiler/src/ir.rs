//! The NC0C trigger-program intermediate representation.
//!
//! A compiled program consists of *map definitions* (the materialized views: the query
//! itself plus the auxiliary views produced by recursive delta materialization) and
//! *triggers* (one per relation and update sign). A trigger's statements are single
//! monomials `m[k⃗] += c · f₁ · f₂ · …` whose factors are map lookups, scalar terms over
//! the trigger parameters and loop variables, and comparison guards. Statements never
//! mention base relations and never contain joins or aggregation operators — evaluating
//! one statement touches a constant number of maps per maintained value.

use std::collections::BTreeSet;
use std::fmt;

use dbring_algebra::Number;
use dbring_delta::Sign;
use dbring_relations::Value;
use serde::{Deserialize, Serialize};

use dbring_agca::ast::{CmpOp, Expr};

/// Identifier of a materialized map within a [`TriggerProgram`].
pub type MapId = usize;

/// One materialized view: the aggregate of `definition` grouped by `key_vars`.
///
/// Semantically, `map[v⃗] = Σ_{other vars} [[definition]]` — i.e. the map stores, for every
/// valuation of the key variables, the total multiplicity (or aggregate value) of the
/// definition's result restricted to that valuation. This is also exactly how maps are
/// initialized on a non-empty starting database.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MapDef {
    /// The map's identifier (its index in [`TriggerProgram::maps`]).
    pub id: MapId,
    /// Human-readable name (`q` for the output map, `m1`, `m2`, … for auxiliary views).
    pub name: String,
    /// The key variables, in key order.
    pub key_vars: Vec<String>,
    /// The AGCA expression this map materializes.
    pub definition: Expr,
    /// The polynomial degree of the definition (used to order trigger statements).
    pub degree: usize,
}

/// A scalar term over trigger parameters, loop variables and constants.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum ScalarExpr {
    /// A constant value.
    Const(Value),
    /// A trigger parameter or loop variable.
    Var(String),
    /// Addition.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Neg(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// The variables referenced by the term.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut BTreeSet<String>) {
        match self {
            ScalarExpr::Const(_) => {}
            ScalarExpr::Var(v) => {
                out.insert(v.clone());
            }
            ScalarExpr::Add(a, b) | ScalarExpr::Mul(a, b) => {
                a.collect(out);
                b.collect(out);
            }
            ScalarExpr::Neg(a) => a.collect(out),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Var(x) => write!(f, "{x}"),
            ScalarExpr::Add(a, b) => write!(f, "({a} + {b})"),
            ScalarExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            ScalarExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// One multiplicative factor of a trigger statement.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum RhsFactor {
    /// A lookup `m[k⃗]` into another materialized map. Keys are variable names (trigger
    /// parameters or loop variables), one per key of the target map.
    MapLookup {
        /// The looked-up map.
        map: MapId,
        /// The key variables, in the map's key order.
        keys: Vec<String>,
    },
    /// A numeric scalar term (multiplied into the delta).
    Scalar(ScalarExpr),
    /// A comparison guard contributing factor 1 (true) or 0 (false).
    Guard(CmpOp, ScalarExpr, ScalarExpr),
}

impl RhsFactor {
    /// The variables referenced by this factor.
    pub fn variables(&self) -> BTreeSet<String> {
        match self {
            RhsFactor::MapLookup { keys, .. } => keys.iter().cloned().collect(),
            RhsFactor::Scalar(s) => s.variables(),
            RhsFactor::Guard(_, a, b) => {
                let mut v = a.variables();
                v.extend(b.variables());
                v
            }
        }
    }
}

impl fmt::Display for RhsFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RhsFactor::MapLookup { map, keys } => write!(f, "m{map}[{}]", keys.join(", ")),
            RhsFactor::Scalar(s) => write!(f, "{s}"),
            RhsFactor::Guard(op, a, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

/// One trigger statement: `target[target_keys] += coefficient · Π factors`, summed over
/// all bindings of its loop variables.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Statement {
    /// The map being updated.
    pub target: MapId,
    /// The target key variables (trigger parameters or loop variables), one per key of the
    /// target map.
    pub target_keys: Vec<String>,
    /// The constant coefficient of the monomial.
    pub coefficient: Number,
    /// The multiplicative factors. Map lookups come first; scalar terms and guards follow.
    pub factors: Vec<RhsFactor>,
}

impl Statement {
    /// All variables referenced by the statement (target keys and factors).
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = self.target_keys.iter().cloned().collect();
        for f in &self.factors {
            out.extend(f.variables());
        }
        out
    }

    /// The statement's loop variables given the trigger parameters: every referenced
    /// variable that is not a parameter.
    pub fn loop_variables(&self, params: &[String]) -> BTreeSet<String> {
        self.variables()
            .into_iter()
            .filter(|v| !params.contains(v))
            .collect()
    }
}

/// A trigger: the statements to run when a single-tuple update `±R(p⃗)` arrives.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trigger {
    /// The updated relation.
    pub relation: String,
    /// Insertion or deletion.
    pub sign: Sign,
    /// The parameter variable names bound to the update's values, in column order.
    pub params: Vec<String>,
    /// The statements, ordered so that a map is updated before any map it reads
    /// (decreasing definition degree).
    pub statements: Vec<Statement>,
}

impl Trigger {
    /// Whether a batch of `k` identical updates may fire this trigger **once** with its
    /// writes scaled by `k`, instead of `k` unit firings.
    ///
    /// That is sound exactly when no statement of the trigger *reads* (via a map lookup)
    /// a map that any statement of the trigger *writes*: the candidate bindings and
    /// accumulated products of every firing are then independent of the firings before
    /// it, so `k` firings write `k ×` the writes of one. This is the map-level shadow of
    /// the delta being degree ≤ 1 in the updated relation — a self-join's trigger reads
    /// the views it maintains (`q += 2·cnt[x] + 1` reads `cnt`, which the same trigger
    /// bumps) and must replay unit by unit, while a degree-1 trigger's delta never
    /// consults its own targets.
    ///
    /// The rule is read off the analyzer's statement-level conflict graph
    /// ([`weighted_firing_conflict`](crate::analysis::passes::weighted_firing_conflict)),
    /// whose first conflict `DB007` reports, so the flag and the diagnostic cannot
    /// disagree.
    pub fn supports_weighted_firing(&self) -> bool {
        crate::analysis::passes::weighted_firing_conflict(self).is_none()
    }
}

/// A compiled trigger program: the materialized maps, the triggers that maintain them, and
/// which map holds the query result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TriggerProgram {
    /// All materialized maps (index = [`MapId`]).
    pub maps: Vec<MapDef>,
    /// One trigger per (relation, sign) pair that affects any map.
    pub triggers: Vec<Trigger>,
    /// The map holding the compiled query's result.
    pub output: MapId,
}

/// A structural problem detected by [`TriggerProgram::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IrError {
    /// A statement references a map id that does not exist.
    DanglingMapReference(MapId),
    /// A lookup or target uses the wrong number of keys for its map.
    KeyArityMismatch {
        /// The map concerned.
        map: MapId,
        /// Its declared key count.
        expected: usize,
        /// The number of keys used.
        got: usize,
    },
    /// A loop variable is not bound by any map lookup in its statement, so the executor
    /// could not enumerate its values.
    UnboundLoopVariable {
        /// The offending variable.
        var: String,
        /// The target map of the offending statement.
        target: MapId,
    },
    /// A statement reads a map that an earlier statement of the same trigger already
    /// updated, violating the update-before-read statement order ([`Trigger::statements`])
    /// — the read would see post-update values and results would silently drift.
    /// Detected by the same ordering pass the static analyzer runs
    /// ([`crate::analysis::passes::statement_order_violations`]), so the IR-level
    /// entry point and the analyzer cannot disagree.
    StatementOrderViolation {
        /// The relation of the offending trigger.
        relation: String,
        /// Index of the earlier statement writing the map.
        writer: usize,
        /// Index of the later statement reading it.
        reader: usize,
        /// The map written then read.
        map: MapId,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DanglingMapReference(id) => {
                write!(f, "statement references unknown map m{id}")
            }
            IrError::KeyArityMismatch { map, expected, got } => {
                write!(f, "map m{map} has {expected} keys but is used with {got}")
            }
            IrError::UnboundLoopVariable { var, target } => {
                write!(f, "loop variable {var} in a statement for m{target} is not bound by any map lookup")
            }
            IrError::StatementOrderViolation {
                relation,
                writer,
                reader,
                map,
            } => {
                write!(
                    f,
                    "trigger on {relation}: statement {reader} reads m{map} after statement \
                     {writer} updated it (statements must update a map before any map it reads)"
                )
            }
        }
    }
}

impl std::error::Error for IrError {}

impl TriggerProgram {
    /// The trigger matching a relation and sign, if any.
    pub fn trigger(&self, relation: &str, sign: Sign) -> Option<&Trigger> {
        self.triggers
            .iter()
            .find(|t| t.relation == relation && t.sign == sign)
    }

    /// The output map's definition.
    pub fn output_map(&self) -> &MapDef {
        &self.maps[self.output]
    }

    /// Total number of statements across all triggers.
    pub fn statement_count(&self) -> usize {
        self.triggers.iter().map(|t| t.statements.len()).sum()
    }

    /// Checks structural well-formedness: map references exist, key arities match,
    /// every loop variable is bound by at least one map lookup of its statement, and
    /// each trigger's statements respect the update-before-read order (the first
    /// violation found by the analyzer's ordering pass is returned as
    /// [`IrError::StatementOrderViolation`]).
    pub fn validate(&self) -> Result<(), IrError> {
        for trigger in &self.triggers {
            if let Some(v) = crate::analysis::passes::statement_order_violations(trigger)
                .into_iter()
                .next()
            {
                return Err(IrError::StatementOrderViolation {
                    relation: trigger.relation.clone(),
                    writer: v.writer,
                    reader: v.reader,
                    map: v.map,
                });
            }
            for stmt in &trigger.statements {
                let target = self
                    .maps
                    .get(stmt.target)
                    .ok_or(IrError::DanglingMapReference(stmt.target))?;
                if target.key_vars.len() != stmt.target_keys.len() {
                    return Err(IrError::KeyArityMismatch {
                        map: stmt.target,
                        expected: target.key_vars.len(),
                        got: stmt.target_keys.len(),
                    });
                }
                let mut lookup_bound: BTreeSet<String> = BTreeSet::new();
                for factor in &stmt.factors {
                    if let RhsFactor::MapLookup { map, keys } = factor {
                        let def = self
                            .maps
                            .get(*map)
                            .ok_or(IrError::DanglingMapReference(*map))?;
                        if def.key_vars.len() != keys.len() {
                            return Err(IrError::KeyArityMismatch {
                                map: *map,
                                expected: def.key_vars.len(),
                                got: keys.len(),
                            });
                        }
                        lookup_bound.extend(keys.iter().cloned());
                    }
                }
                for var in stmt.loop_variables(&trigger.params) {
                    if !lookup_bound.contains(&var) {
                        return Err(IrError::UnboundLoopVariable {
                            var,
                            target: stmt.target,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the program in a compact human-readable form (used by the experiment
    /// binaries and the documentation).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str("maps:\n");
        for m in &self.maps {
            out.push_str(&format!(
                "  m{} {}[{}] := {}   (degree {})\n",
                m.id,
                m.name,
                m.key_vars.join(", "),
                m.definition,
                m.degree
            ));
        }
        out.push_str("triggers:\n");
        for t in &self.triggers {
            out.push_str(&format!(
                "  on {}{}({}):\n",
                t.sign,
                t.relation,
                t.params.join(", ")
            ));
            for s in &t.statements {
                let factors: Vec<String> = s.factors.iter().map(|f| f.to_string()).collect();
                let rhs = if factors.is_empty() {
                    format!("{}", s.coefficient)
                } else if s.coefficient == Number::Int(1) {
                    factors.join(" * ")
                } else {
                    format!("{} * {}", s.coefficient, factors.join(" * "))
                };
                out.push_str(&format!(
                    "    m{}[{}] += {}\n",
                    s.target,
                    s.target_keys.join(", "),
                    rhs
                ));
            }
        }
        out
    }
}

/// Converts a *database-free* AGCA value term into a [`ScalarExpr`].
///
/// Returns `None` if the expression contains relational atoms, aggregates, comparisons or
/// assignments (those are handled by other [`RhsFactor`] variants or are not simple).
pub fn scalar_from_expr(expr: &Expr) -> Option<ScalarExpr> {
    match expr {
        Expr::Const(v) => Some(ScalarExpr::Const(v.clone())),
        Expr::Var(x) => Some(ScalarExpr::Var(x.clone())),
        Expr::Add(a, b) => Some(ScalarExpr::Add(
            Box::new(scalar_from_expr(a)?),
            Box::new(scalar_from_expr(b)?),
        )),
        Expr::Mul(a, b) => Some(ScalarExpr::Mul(
            Box::new(scalar_from_expr(a)?),
            Box::new(scalar_from_expr(b)?),
        )),
        Expr::Neg(a) => Some(ScalarExpr::Neg(Box::new(scalar_from_expr(a)?))),
        Expr::Sum(_) | Expr::Rel(_, _) | Expr::Cmp(_, _, _) | Expr::Assign(_, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> TriggerProgram {
        // q[] maintained from m1[x]; on +R(p): q[] += m1[p], m1[p] += 1.
        let q = MapDef {
            id: 0,
            name: "q".to_string(),
            key_vars: vec![],
            definition: Expr::sum(Expr::mul(Expr::rel("R", &["x"]), Expr::rel("R", &["y"]))),
            degree: 2,
        };
        let m1 = MapDef {
            id: 1,
            name: "m1".to_string(),
            key_vars: vec!["$k0".to_string()],
            definition: Expr::rel("R", &["$k0"]),
            degree: 1,
        };
        let trigger = Trigger {
            relation: "R".to_string(),
            sign: Sign::Insert,
            params: vec!["@R_A".to_string()],
            statements: vec![
                Statement {
                    target: 0,
                    target_keys: vec![],
                    coefficient: Number::Int(2),
                    factors: vec![RhsFactor::MapLookup {
                        map: 1,
                        keys: vec!["@R_A".to_string()],
                    }],
                },
                Statement {
                    target: 0,
                    target_keys: vec![],
                    coefficient: Number::Int(1),
                    factors: vec![],
                },
                Statement {
                    target: 1,
                    target_keys: vec!["@R_A".to_string()],
                    coefficient: Number::Int(1),
                    factors: vec![],
                },
            ],
        };
        TriggerProgram {
            maps: vec![q, m1],
            triggers: vec![trigger],
            output: 0,
        }
    }

    #[test]
    fn accessors_and_describe() {
        let p = tiny_program();
        assert_eq!(p.output_map().name, "q");
        assert_eq!(p.statement_count(), 3);
        assert!(p.trigger("R", Sign::Insert).is_some());
        assert!(p.trigger("R", Sign::Delete).is_none());
        assert!(p.trigger("S", Sign::Insert).is_none());
        let text = p.describe();
        assert!(text.contains("m0 q[]"));
        assert!(text.contains("on +R(@R_A)"));
        assert!(text.contains("m0[] += 2 * m1[@R_A]"));
        assert!(text.contains("m1[@R_A] += 1"));
    }

    #[test]
    fn validation_accepts_the_tiny_program() {
        assert!(tiny_program().validate().is_ok());
    }

    #[test]
    fn validation_rejects_dangling_references() {
        let mut p = tiny_program();
        p.triggers[0].statements[0].factors = vec![RhsFactor::MapLookup {
            map: 99,
            keys: vec!["@R_A".to_string()],
        }];
        assert_eq!(p.validate(), Err(IrError::DanglingMapReference(99)));
    }

    #[test]
    fn validation_rejects_key_arity_mismatches() {
        let mut p = tiny_program();
        p.triggers[0].statements[2].target_keys = vec![];
        assert!(matches!(
            p.validate(),
            Err(IrError::KeyArityMismatch {
                map: 1,
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn validation_rejects_unbound_loop_variables() {
        let mut p = tiny_program();
        // A target key that is neither a parameter nor bound by a lookup.
        p.triggers[0].statements[2].target_keys = vec!["mystery".to_string()];
        assert!(matches!(
            p.validate(),
            Err(IrError::UnboundLoopVariable { .. })
        ));
    }

    #[test]
    fn statement_variable_sets() {
        let p = tiny_program();
        let s = &p.triggers[0].statements[0];
        assert!(s.variables().contains("@R_A"));
        assert!(s.loop_variables(&p.triggers[0].params).is_empty());
        let loopy = Statement {
            target: 0,
            target_keys: vec!["c".to_string()],
            coefficient: Number::Int(1),
            factors: vec![RhsFactor::MapLookup {
                map: 1,
                keys: vec!["c".to_string()],
            }],
        };
        assert_eq!(
            loopy.loop_variables(&p.triggers[0].params),
            ["c".to_string()].into_iter().collect()
        );
    }

    #[test]
    fn scalar_conversion() {
        let e = Expr::mul(
            Expr::var("x"),
            Expr::add(Expr::int(2), Expr::neg(Expr::var("y"))),
        );
        let s = scalar_from_expr(&e).unwrap();
        assert_eq!(s.variables().len(), 2);
        assert_eq!(s.to_string(), "(x * (2 + (-y)))");
        assert!(scalar_from_expr(&Expr::rel("R", &["x"])).is_none());
        assert!(scalar_from_expr(&Expr::sum(Expr::int(1))).is_none());
        assert_eq!(
            scalar_from_expr(&Expr::constant("FR")).unwrap(),
            ScalarExpr::Const(Value::str("FR"))
        );
    }

    #[test]
    fn ir_error_display() {
        assert!(IrError::DanglingMapReference(3).to_string().contains("m3"));
        assert!(IrError::KeyArityMismatch {
            map: 1,
            expected: 2,
            got: 1
        }
        .to_string()
        .contains("2 keys"));
        assert!(IrError::UnboundLoopVariable {
            var: "x".to_string(),
            target: 0
        }
        .to_string()
        .contains("loop variable x"));
    }
}
