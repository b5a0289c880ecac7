//! Lowering: [`TriggerProgram`] → [`ExecPlan`], the slot-resolved execution plan.
//!
//! The trigger IR names variables by string; executing it directly means hashing variable
//! names on every factor of every statement of every update, and re-deriving which key
//! positions of a lookup are bound each time. Both are decided *once* here, at lowering
//! time:
//!
//! * every variable of a trigger is assigned a fixed **slot** (a `u16` index into a flat
//!   frame of values shared by all of the trigger's statements), and
//! * every map lookup is classified as a [`PlanOp::Probe`] (all key positions bound — a
//!   single hash-map read) or a [`PlanOp::Enumerate`] (some positions unbound — iterate
//!   the matching slice, writing the enumerated key components into their slots), with the
//!   bound/unbound position split and the slice-index pattern fixed in the plan.
//!
//! Which positions are bound at a factor is a *static* property: the bound set at any
//! point is exactly the trigger parameters plus the variables bound by earlier lookups of
//! the same statement, identical for every candidate binding the executor is extending.
//! The interpreter re-derived this per candidate per update; the plan records it once.
//!
//! Lowering also collects the slice-index patterns each map needs
//! ([`ExecPlan::index_registrations`]), replacing the quadratic bound-list scans the
//! executor used to perform at construction time, and rejects statements that would read
//! a variable before any lookup binds it — turning what used to be a runtime
//! `UnboundVariable` error into a lowering-time [`LowerError`].

use std::collections::{HashMap, HashSet};
use std::fmt;

use dbring_agca::ast::CmpOp;
use dbring_algebra::Number;
use dbring_delta::Sign;
use dbring_relations::Value;

use crate::analysis::{self, Diagnostic};
use crate::ir::{IrError, MapId, RhsFactor, ScalarExpr, TriggerProgram};

/// Index of a variable's cell within a trigger's flat frame.
pub type Slot = u16;

/// A scalar expression with every variable resolved to a frame slot.
#[derive(Clone, PartialEq, Debug)]
pub enum SlotExpr {
    /// A constant value.
    Const(Value),
    /// The value currently held by a frame slot.
    Slot(Slot),
    /// Addition.
    Add(Box<SlotExpr>, Box<SlotExpr>),
    /// Multiplication.
    Mul(Box<SlotExpr>, Box<SlotExpr>),
    /// Negation.
    Neg(Box<SlotExpr>),
}

impl fmt::Display for SlotExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotExpr::Const(v) => write!(f, "{v}"),
            SlotExpr::Slot(s) => write!(f, "${s}"),
            SlotExpr::Add(a, b) => write!(f, "({a} + {b})"),
            SlotExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            SlotExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// What to do with one *unbound* key position while enumerating a map slice.
///
/// The first occurrence of a variable binds its slot; a repeated occurrence of the same
/// variable within the same lookup (e.g. `m[x, x]` with `x` free) checks consistency
/// instead, mirroring the interpreter's per-binding equality check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnboundKey {
    /// Write the key component at `position` into `slot`.
    Bind {
        /// The key position within the enumerated map's key tuple.
        position: usize,
        /// The destination frame slot.
        slot: Slot,
    },
    /// Require the key component at `position` to equal the value already in `slot`
    /// (bound earlier in this same lookup); drop the candidate otherwise.
    Check {
        /// The key position within the enumerated map's key tuple.
        position: usize,
        /// The frame slot to compare against.
        slot: Slot,
    },
}

/// One resolved operation of a statement's factor sequence.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanOp {
    /// A fully-bound map lookup: one hash read, multiply the value into the accumulator
    /// (dropping the candidate if the value is zero).
    Probe {
        /// The looked-up map.
        map: MapId,
        /// Frame slots holding the key components, in the map's key order.
        key_slots: Vec<Slot>,
    },
    /// A partially-bound map lookup: enumerate the entries matching the bound positions
    /// (via the slice index registered for exactly this pattern), fan each candidate out
    /// per matching entry, and bind/check the unbound positions.
    Enumerate {
        /// The enumerated map.
        map: MapId,
        /// The bound key positions, ascending (the slice-index pattern).
        bound_positions: Vec<usize>,
        /// Frame slots holding the bound key components, parallel to `bound_positions`.
        bound_slots: Vec<Slot>,
        /// Actions for the unbound positions, in ascending position order.
        unbound: Vec<UnboundKey>,
    },
    /// A numeric factor: evaluate, multiply into the accumulator (dropping the candidate
    /// if zero).
    Scalar(SlotExpr),
    /// A comparison guard: keep the candidate iff it holds.
    Guard(CmpOp, SlotExpr, SlotExpr),
}

/// One lowered statement: run `ops` over the candidate frames, then add
/// `coefficient · acc` to `target[target_slots]` for every surviving candidate.
#[derive(Clone, Debug)]
pub struct PlanStatement {
    /// The map being updated.
    pub target: MapId,
    /// Frame slots holding the target key components, in the target's key order.
    pub target_slots: Vec<Slot>,
    /// The constant coefficient of the monomial.
    pub coefficient: Number,
    /// The resolved factor sequence, in evaluation order.
    pub ops: Vec<PlanOp>,
}

/// One lowered trigger: the slot layout shared by its statements, and the statements.
#[derive(Clone, Debug)]
pub struct PlanTrigger {
    /// The updated relation.
    pub relation: String,
    /// Insertion or deletion.
    pub sign: Sign,
    /// The frame slot of each trigger parameter, in column order (an update's values are
    /// written to these slots before any statement runs).
    pub param_slots: Vec<Slot>,
    /// Total frame length: parameters plus every loop variable of every statement.
    pub frame_len: usize,
    /// Whether a batch of `k` identical updates may fire this trigger once with its
    /// writes scaled by `k` (true iff no statement reads a map any statement writes —
    /// the delta is degree ≤ 1 in the updated relation; see
    /// [`Trigger::supports_weighted_firing`](crate::ir::Trigger::supports_weighted_firing)).
    /// When false, batch execution must replay unit updates to preserve self-join
    /// semantics.
    pub weighted_firing: bool,
    /// The lowered statements, in the IR's (degree-ordered) statement order.
    pub statements: Vec<PlanStatement>,
}

/// A slot-resolved execution plan for one [`TriggerProgram`].
///
/// Plan triggers are index-aligned with the program's triggers. The plan carries
/// everything the hot path needs that is derivable from the program alone, so the
/// executor can run name-free and derive nothing per update.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// The lowered triggers, aligned with [`TriggerProgram::triggers`].
    pub triggers: Vec<PlanTrigger>,
    /// Key arity of each map, aligned with [`TriggerProgram::maps`].
    pub map_arities: Vec<usize>,
    /// The slice-index patterns the plan's `Enumerate` ops rely on, deduplicated:
    /// `(map, ascending bound positions)`. Register each on the map's storage before
    /// applying updates.
    pub index_registrations: Vec<(MapId, Vec<usize>)>,
    /// The static-analysis findings attached by [`lower`]: Warning/Info only —
    /// Error-severity findings deny lowering with [`LowerError::Rejected`] instead.
    /// Read through [`ExecPlan::audit`].
    pub diagnostics: Vec<Diagnostic>,
}

/// A problem found while lowering (all are compiler-invariant violations: programs
/// produced by [`crate::compile`](crate::compile()) always lower).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LowerError {
    /// The program failed structural validation.
    Invalid(IrError),
    /// A scalar, guard or target key reads a variable before any lookup binds it.
    UnboundVariable {
        /// The offending variable.
        var: String,
        /// The relation of the trigger containing the offending statement.
        relation: String,
    },
    /// A trigger uses more than `u16::MAX` distinct variables.
    TooManyVariables {
        /// The relation of the oversized trigger.
        relation: String,
    },
    /// A plan op reads a frame slot before any parameter or enumeration binds it, or
    /// names a slot beyond the trigger's frame — a lowering-invariant violation caught
    /// by [`ExecPlan::verify_slot_liveness`]. Without this audit the executor would
    /// read the placeholder value the frame is initialized with and silently compute
    /// with garbage.
    UnboundSlot {
        /// The offending slot.
        slot: Slot,
        /// The relation of the trigger containing the offending op.
        relation: String,
    },
    /// The static analyzer found an Error-severity problem
    /// ([`analysis::analyze`]): executing the plan would silently compute wrong
    /// results, so lowering refuses to emit it. Warnings and infos do not deny —
    /// they are attached to the plan ([`ExecPlan::diagnostics`]).
    Rejected(Box<Diagnostic>),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Invalid(e) => write!(f, "invalid trigger program: {e}"),
            LowerError::UnboundVariable { var, relation } => {
                write!(
                    f,
                    "variable {var} read before bound in a trigger on {relation}"
                )
            }
            LowerError::TooManyVariables { relation } => {
                write!(f, "trigger on {relation} exceeds the u16 slot space")
            }
            LowerError::UnboundSlot { slot, relation } => {
                write!(
                    f,
                    "plan reads slot ${slot} before it is bound in a trigger on {relation} \
                     (lowering bug)"
                )
            }
            LowerError::Rejected(diag) => {
                write!(f, "static analysis rejected the plan: {diag}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

impl From<IrError> for LowerError {
    fn from(e: IrError) -> Self {
        LowerError::Invalid(e)
    }
}

impl ExecPlan {
    /// The plan trigger matching a relation and sign, if any.
    pub fn trigger(&self, relation: &str, sign: Sign) -> Option<&PlanTrigger> {
        self.triggers
            .iter()
            .find(|t| t.relation == relation && t.sign == sign)
    }

    /// The static-analysis findings [`lower`] attached to this plan. Always free of
    /// Error severity — an Error denies lowering with [`LowerError::Rejected`] — so
    /// what remains is Warnings (wasted work or memory) and Infos (e.g. why weighted
    /// firing is blocked). See [`analysis`] for the code table.
    pub fn audit(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Total number of ops across all statements of all triggers (a size measure used by
    /// diagnostics and tests).
    pub fn op_count(&self) -> usize {
        self.triggers
            .iter()
            .flat_map(|t| &t.statements)
            .map(|s| s.ops.len())
            .sum()
    }

    /// Audits the plan's slot dataflow: every slot a probe key, enumeration binding,
    /// scalar, guard or target key *reads* must have been *written* first (by a trigger
    /// parameter or an earlier `Enumerate` bind of the same statement), and every slot
    /// must fit within the trigger's frame.
    ///
    /// The executor initializes unbound frame slots with a placeholder value, so a plan
    /// that violates this invariant would not crash — it would silently compute with
    /// garbage. [`lower`] runs this audit on every plan it produces (it is O(plan) and
    /// paid once per program, not per update), turning any such lowering bug into a loud
    /// [`LowerError::UnboundSlot`] at construction time.
    pub fn verify_slot_liveness(&self) -> Result<(), LowerError> {
        for trigger in &self.triggers {
            let err = |slot: Slot| LowerError::UnboundSlot {
                slot,
                relation: trigger.relation.clone(),
            };
            let in_frame = |slot: Slot| (slot as usize) < trigger.frame_len;
            for &p in &trigger.param_slots {
                if !in_frame(p) {
                    return Err(err(p));
                }
            }
            for stmt in &trigger.statements {
                // The bound set is per statement: parameters plus earlier binds.
                let mut bound: HashSet<Slot> = trigger.param_slots.iter().copied().collect();
                let read = |slot: Slot, bound: &HashSet<Slot>| {
                    if in_frame(slot) && bound.contains(&slot) {
                        Ok(())
                    } else {
                        Err(err(slot))
                    }
                };
                for op in &stmt.ops {
                    match op {
                        PlanOp::Probe { key_slots, .. } => {
                            for &s in key_slots {
                                read(s, &bound)?;
                            }
                        }
                        PlanOp::Enumerate {
                            bound_slots,
                            unbound,
                            ..
                        } => {
                            for &s in bound_slots {
                                read(s, &bound)?;
                            }
                            for u in unbound {
                                match *u {
                                    UnboundKey::Bind { slot, .. } => {
                                        if !in_frame(slot) {
                                            return Err(err(slot));
                                        }
                                        bound.insert(slot);
                                    }
                                    // A Check compares against a slot bound earlier —
                                    // by a parameter, a previous lookup, or a Bind
                                    // earlier in this same enumeration.
                                    UnboundKey::Check { slot, .. } => read(slot, &bound)?,
                                }
                            }
                        }
                        PlanOp::Scalar(expr) => check_expr_slots(expr, &bound, &read)?,
                        PlanOp::Guard(_, lhs, rhs) => {
                            check_expr_slots(lhs, &bound, &read)?;
                            check_expr_slots(rhs, &bound, &read)?;
                        }
                    }
                }
                for &s in &stmt.target_slots {
                    read(s, &bound)?;
                }
            }
        }
        Ok(())
    }
}

/// Walks a slot expression and applies the liveness check to every slot it reads.
fn check_expr_slots(
    expr: &SlotExpr,
    bound: &HashSet<Slot>,
    read: &impl Fn(Slot, &HashSet<Slot>) -> Result<(), LowerError>,
) -> Result<(), LowerError> {
    match expr {
        SlotExpr::Const(_) => Ok(()),
        SlotExpr::Slot(s) => read(*s, bound),
        SlotExpr::Add(a, b) | SlotExpr::Mul(a, b) => {
            check_expr_slots(a, bound, read)?;
            check_expr_slots(b, bound, read)
        }
        SlotExpr::Neg(a) => check_expr_slots(a, bound, read),
    }
}

/// Lowers a validated trigger program to its slot-resolved execution plan.
pub fn lower(program: &TriggerProgram) -> Result<ExecPlan, LowerError> {
    program.validate()?;
    let mut registrations: Vec<(MapId, Vec<usize>)> = Vec::new();
    let mut seen_patterns: HashSet<(MapId, Vec<usize>)> = HashSet::new();
    let mut triggers = Vec::with_capacity(program.triggers.len());
    for trigger in &program.triggers {
        triggers.push(lower_trigger(
            trigger,
            &mut registrations,
            &mut seen_patterns,
        )?);
    }
    let mut plan = ExecPlan {
        triggers,
        map_arities: program.maps.iter().map(|m| m.key_vars.len()).collect(),
        index_registrations: registrations,
        diagnostics: Vec::new(),
    };
    // Belt-and-braces: lowering tracks bound-ness while it builds the plan, but a bug
    // there would make the executor read placeholder frame slots and return wrong
    // numbers silently. Audit the finished plan so that failure mode is impossible.
    plan.verify_slot_liveness()?;
    // Run the full analyzer pipeline: Error-severity findings (ordering violations,
    // self-read/writes, missing index registrations) deny the plan outright — today
    // they would silently corrupt results at runtime; Warnings and Infos ride along
    // on the plan for `ExecPlan::audit` / `Ring::audit` / `dbring-lint`.
    let diagnostics = analysis::analyze(program, &plan);
    if let Some(error) = diagnostics
        .iter()
        .find(|d| d.severity == analysis::Severity::Error)
    {
        return Err(LowerError::Rejected(Box::new(error.clone())));
    }
    plan.diagnostics = diagnostics;
    Ok(plan)
}

/// Assigns `name` a slot, reusing an existing assignment.
fn intern<'a>(
    slots: &mut HashMap<&'a str, Slot>,
    name: &'a str,
    relation: &str,
) -> Result<Slot, LowerError> {
    if let Some(&s) = slots.get(name) {
        return Ok(s);
    }
    let s = Slot::try_from(slots.len()).map_err(|_| LowerError::TooManyVariables {
        relation: relation.to_string(),
    })?;
    slots.insert(name, s);
    Ok(s)
}

fn lower_trigger(
    trigger: &crate::ir::Trigger,
    registrations: &mut Vec<(MapId, Vec<usize>)>,
    seen_patterns: &mut HashSet<(MapId, Vec<usize>)>,
) -> Result<PlanTrigger, LowerError> {
    let relation = trigger.relation.as_str();
    let mut slots: HashMap<&str, Slot> = HashMap::new();
    let mut param_slots = Vec::with_capacity(trigger.params.len());
    for p in &trigger.params {
        param_slots.push(intern(&mut slots, p, relation)?);
    }

    let mut statements = Vec::with_capacity(trigger.statements.len());
    for stmt in &trigger.statements {
        // The bound set is static per statement: parameters, then whatever earlier
        // lookups of this statement have bound.
        let mut bound: HashSet<Slot> = param_slots.iter().copied().collect();
        let mut ops = Vec::with_capacity(stmt.factors.len());
        for factor in &stmt.factors {
            match factor {
                RhsFactor::MapLookup { map, keys } => {
                    let mut key_slots = Vec::with_capacity(keys.len());
                    let mut all_bound = true;
                    for k in keys {
                        let s = intern(&mut slots, k, relation)?;
                        all_bound &= bound.contains(&s);
                        key_slots.push(s);
                    }
                    if all_bound {
                        ops.push(PlanOp::Probe {
                            map: *map,
                            key_slots,
                        });
                        continue;
                    }
                    let mut bound_positions = Vec::new();
                    let mut bound_slots = Vec::new();
                    let mut unbound = Vec::new();
                    for (position, &slot) in key_slots.iter().enumerate() {
                        if bound.contains(&slot) {
                            bound_positions.push(position);
                            bound_slots.push(slot);
                        } else if unbound
                            .iter()
                            .any(|u| matches!(u, UnboundKey::Bind { slot: s, .. } if *s == slot))
                        {
                            // Repeated free variable within this lookup: consistency
                            // check against its first occurrence.
                            unbound.push(UnboundKey::Check { position, slot });
                        } else {
                            unbound.push(UnboundKey::Bind { position, slot });
                        }
                    }
                    if !bound_positions.is_empty() && bound_positions.len() < keys.len() {
                        let pattern = (*map, bound_positions.clone());
                        if seen_patterns.insert(pattern.clone()) {
                            registrations.push(pattern);
                        }
                    }
                    for u in &unbound {
                        if let UnboundKey::Bind { slot, .. } = u {
                            bound.insert(*slot);
                        }
                    }
                    ops.push(PlanOp::Enumerate {
                        map: *map,
                        bound_positions,
                        bound_slots,
                        unbound,
                    });
                }
                RhsFactor::Scalar(term) => {
                    ops.push(PlanOp::Scalar(lower_scalar(
                        term, &mut slots, &bound, relation,
                    )?));
                }
                RhsFactor::Guard(op, lhs, rhs) => {
                    let l = lower_scalar(lhs, &mut slots, &bound, relation)?;
                    let r = lower_scalar(rhs, &mut slots, &bound, relation)?;
                    ops.push(PlanOp::Guard(*op, l, r));
                }
            }
        }
        let mut target_slots = Vec::with_capacity(stmt.target_keys.len());
        for var in &stmt.target_keys {
            let s = intern(&mut slots, var, relation)?;
            if !bound.contains(&s) {
                return Err(LowerError::UnboundVariable {
                    var: var.clone(),
                    relation: relation.to_string(),
                });
            }
            target_slots.push(s);
        }
        statements.push(PlanStatement {
            target: stmt.target,
            target_slots,
            coefficient: stmt.coefficient,
            ops,
        });
    }

    Ok(PlanTrigger {
        relation: trigger.relation.clone(),
        sign: trigger.sign,
        param_slots,
        frame_len: slots.len(),
        weighted_firing: trigger.supports_weighted_firing(),
        statements,
    })
}

fn lower_scalar<'a>(
    term: &'a ScalarExpr,
    slots: &mut HashMap<&'a str, Slot>,
    bound: &HashSet<Slot>,
    relation: &str,
) -> Result<SlotExpr, LowerError> {
    match term {
        ScalarExpr::Const(v) => Ok(SlotExpr::Const(v.clone())),
        ScalarExpr::Var(x) => {
            let s = intern(slots, x, relation)?;
            if !bound.contains(&s) {
                return Err(LowerError::UnboundVariable {
                    var: x.clone(),
                    relation: relation.to_string(),
                });
            }
            Ok(SlotExpr::Slot(s))
        }
        ScalarExpr::Add(a, b) => Ok(SlotExpr::Add(
            Box::new(lower_scalar(a, slots, bound, relation)?),
            Box::new(lower_scalar(b, slots, bound, relation)?),
        )),
        ScalarExpr::Mul(a, b) => Ok(SlotExpr::Mul(
            Box::new(lower_scalar(a, slots, bound, relation)?),
            Box::new(lower_scalar(b, slots, bound, relation)?),
        )),
        ScalarExpr::Neg(a) => Ok(SlotExpr::Neg(Box::new(lower_scalar(
            a, slots, bound, relation,
        )?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use dbring_agca::parser::parse_query;
    use dbring_relations::Database;

    fn lowered(catalog: &Database, q: &str) -> (TriggerProgram, ExecPlan) {
        let query = parse_query(q).unwrap();
        let program = compile(catalog, &query).unwrap();
        let plan = lower(&program).unwrap();
        (program, plan)
    }

    #[test]
    fn self_join_count_lowers_to_probes_only() {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let (program, plan) = lowered(&catalog, "q := Sum(R(x) * R(y) * (x = y))");
        assert_eq!(plan.triggers.len(), program.triggers.len());
        assert_eq!(plan.map_arities.len(), program.maps.len());
        // Every lookup in this program is fully bound by the trigger parameter — the plan
        // must contain no Enumerate ops and need no slice indexes.
        for t in &plan.triggers {
            assert_eq!(t.param_slots, vec![0]);
            for s in &t.statements {
                for op in &s.ops {
                    assert!(
                        !matches!(op, PlanOp::Enumerate { .. }),
                        "unexpected enumerate in {op:?}"
                    );
                }
            }
        }
        assert!(plan.index_registrations.is_empty());
        assert!(plan.op_count() > 0);
    }

    #[test]
    fn customers_query_gets_an_enumerate_with_a_registered_index() {
        let mut catalog = Database::new();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        let (_, plan) = lowered(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))");
        let enumerates: Vec<_> = plan
            .triggers
            .iter()
            .flat_map(|t| &t.statements)
            .flat_map(|s| &s.ops)
            .filter_map(|op| match op {
                PlanOp::Enumerate {
                    map,
                    bound_positions,
                    bound_slots,
                    unbound,
                } => Some((map, bound_positions, bound_slots, unbound)),
                _ => None,
            })
            .collect();
        assert!(!enumerates.is_empty(), "group-by self-join must enumerate");
        for (map, bound_positions, bound_slots, unbound) in &enumerates {
            assert_eq!(bound_positions.len(), bound_slots.len());
            assert!(!unbound.is_empty());
            // Partially-bound patterns must be registered for slice indexing.
            if !bound_positions.is_empty() {
                assert!(plan
                    .index_registrations
                    .iter()
                    .any(|(m, p)| m == *map && p == *bound_positions));
            }
        }
        // Registrations are deduplicated.
        let mut regs = plan.index_registrations.clone();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), plan.index_registrations.len());
    }

    #[test]
    fn params_occupy_the_first_slots_and_frames_cover_loop_vars() {
        let mut catalog = Database::new();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        let (program, plan) = lowered(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))");
        for (t, pt) in program.triggers.iter().zip(&plan.triggers) {
            assert_eq!(t.relation, pt.relation);
            assert_eq!(t.sign, pt.sign);
            assert_eq!(pt.param_slots, vec![0, 1]);
            assert!(pt.frame_len >= t.params.len());
            for s in &pt.statements {
                for &slot in &s.target_slots {
                    assert!((slot as usize) < pt.frame_len);
                }
            }
        }
        assert!(plan.trigger("C", Sign::Insert).is_some());
        assert!(plan.trigger("Z", Sign::Insert).is_none());
    }

    #[test]
    fn repeated_free_variable_in_one_lookup_checks_consistency() {
        use crate::ir::{MapDef, Statement, Trigger};
        use dbring_agca::ast::Expr;
        // Hand-built: on +R(p): q[] += m1[x, x] — `x` is free, so the lookup enumerates
        // the whole of m1 and must keep only diagonal entries.
        let program = TriggerProgram {
            maps: vec![
                MapDef {
                    id: 0,
                    name: "q".into(),
                    key_vars: vec![],
                    definition: Expr::int(0),
                    degree: 0,
                },
                MapDef {
                    id: 1,
                    name: "m1".into(),
                    key_vars: vec!["a".into(), "b".into()],
                    definition: Expr::int(0),
                    degree: 1,
                },
            ],
            triggers: vec![Trigger {
                relation: "R".into(),
                sign: Sign::Insert,
                params: vec!["@R_A".into()],
                statements: vec![Statement {
                    target: 0,
                    target_keys: vec![],
                    coefficient: Number::Int(1),
                    factors: vec![RhsFactor::MapLookup {
                        map: 1,
                        keys: vec!["x".into(), "x".into()],
                    }],
                }],
            }],
            output: 0,
        };
        let plan = lower(&program).unwrap();
        let ops = &plan.triggers[0].statements[0].ops;
        match &ops[0] {
            PlanOp::Enumerate {
                bound_positions,
                unbound,
                ..
            } => {
                assert!(bound_positions.is_empty());
                assert_eq!(unbound.len(), 2);
                assert!(matches!(unbound[0], UnboundKey::Bind { position: 0, .. }));
                assert!(matches!(unbound[1], UnboundKey::Check { position: 1, .. }));
            }
            other => panic!("expected enumerate, got {other:?}"),
        }
        // A fully-unbound pattern needs no slice index.
        assert!(plan.index_registrations.is_empty());
    }

    #[test]
    fn lowering_rejects_invalid_programs() {
        use crate::ir::{MapDef, Statement, Trigger};
        use dbring_agca::ast::Expr;
        let mut program = TriggerProgram {
            maps: vec![MapDef {
                id: 0,
                name: "q".into(),
                key_vars: vec![],
                definition: Expr::int(0),
                degree: 0,
            }],
            triggers: vec![Trigger {
                relation: "R".into(),
                sign: Sign::Insert,
                params: vec!["@R_A".into()],
                statements: vec![Statement {
                    target: 99,
                    target_keys: vec![],
                    coefficient: Number::Int(1),
                    factors: vec![],
                }],
            }],
            output: 0,
        };
        assert!(matches!(
            lower(&program),
            Err(LowerError::Invalid(IrError::DanglingMapReference(99)))
        ));
        program.triggers[0].statements[0].target = 0;
        // A scalar that reads `x` *before* the lookup that binds it: `validate` accepts
        // this (the variable is bound by *some* lookup) but lowering must reject the
        // out-of-order read — the compiler always emits lookups first.
        program.maps.push(MapDef {
            id: 1,
            name: "m1".into(),
            key_vars: vec!["k".into()],
            definition: Expr::int(0),
            degree: 1,
        });
        program.triggers[0].statements[0].factors = vec![
            RhsFactor::Scalar(ScalarExpr::Var("x".into())),
            RhsFactor::MapLookup {
                map: 1,
                keys: vec!["x".into()],
            },
        ];
        let err = lower(&program).unwrap_err();
        assert!(matches!(err, LowerError::UnboundVariable { ref var, .. } if var == "x"));
        assert!(err.to_string().contains("read before bound"));
    }

    /// Regression (silent-failure edge): a plan op reading a frame slot nothing bound
    /// would make the executor compute with the placeholder value the frame is
    /// initialized with. The liveness audit must reject such a plan loudly.
    #[test]
    fn slot_liveness_audit_rejects_read_before_bind_plans() {
        let mut catalog = Database::new();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        let (_, plan) = lowered(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))");
        // Every plan lower() produces passes its own audit.
        plan.verify_slot_liveness().unwrap();

        // Corrupt the plan the way a lowering bug would: make a probe read a slot no
        // parameter and no enumeration ever writes.
        let mut broken = plan.clone();
        let bogus = broken.triggers[0].frame_len as Slot; // one past the frame
        let stmt = &mut broken.triggers[0].statements[0];
        match stmt
            .ops
            .iter_mut()
            .find(|op| matches!(op, PlanOp::Probe { .. }))
        {
            Some(PlanOp::Probe { key_slots, .. }) => key_slots.push(bogus),
            _ => {
                // No probe in the first statement: corrupt a target slot instead.
                stmt.target_slots.push(bogus);
            }
        }
        let err = broken.verify_slot_liveness().unwrap_err();
        assert!(
            matches!(err, LowerError::UnboundSlot { slot, .. } if slot == bogus),
            "expected UnboundSlot, got {err:?}"
        );
        assert!(err.to_string().contains("before it is bound"));

        // An in-frame slot that is simply never bound is equally rejected: an Enumerate
        // bound_slot pointing at a loop variable's slot before its Bind runs.
        let mut unbound_read = plan;
        for trigger in &mut unbound_read.triggers {
            for stmt in &mut trigger.statements {
                if let Some(PlanOp::Enumerate {
                    unbound,
                    bound_positions,
                    bound_slots,
                    ..
                }) = stmt
                    .ops
                    .iter_mut()
                    .find(|op| matches!(op, PlanOp::Enumerate { .. }))
                {
                    if let Some(UnboundKey::Bind { position, slot }) = unbound.first().copied() {
                        // Pretend the position was already bound: reads the slot early.
                        unbound.remove(0);
                        bound_positions.insert(0, position);
                        bound_slots.insert(0, slot);
                        let err = unbound_read.verify_slot_liveness().unwrap_err();
                        assert!(matches!(err, LowerError::UnboundSlot { .. }));
                        return;
                    }
                }
            }
        }
        panic!("corpus query must contain an enumerate with a Bind");
    }

    #[test]
    fn weighted_firing_marks_degree_one_triggers_only() {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        catalog.declare("C", &["cid", "nation"]).unwrap();
        catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();

        // Self-join: the trigger reads the count view it maintains — unit replay only.
        let (program, plan) = lowered(&catalog, "q := Sum(R(x) * R(y) * (x = y))");
        for (t, pt) in program.triggers.iter().zip(&plan.triggers) {
            assert!(!pt.weighted_firing, "self-join trigger on {}", pt.relation);
            assert_eq!(pt.weighted_firing, t.supports_weighted_firing());
        }

        // Group-by self-join: same story.
        let (_, plan) = lowered(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))");
        assert!(plan.triggers.iter().all(|t| !t.weighted_firing));

        // A pure per-group aggregation reads no maps at all — weighted firing is sound.
        let query = dbring_agca::sql::parse_sql(
            "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
            &catalog,
        )
        .unwrap();
        let program = compile(&catalog, &query).unwrap();
        let plan = lower(&program).unwrap();
        assert!(
            plan.triggers.iter().all(|t| t.weighted_firing),
            "degree-1 aggregation triggers must allow weighted firing"
        );
    }

    #[test]
    fn slot_expr_display_and_error_display() {
        let e = SlotExpr::Mul(
            Box::new(SlotExpr::Slot(3)),
            Box::new(SlotExpr::Add(
                Box::new(SlotExpr::Const(Value::int(2))),
                Box::new(SlotExpr::Neg(Box::new(SlotExpr::Slot(0)))),
            )),
        );
        assert_eq!(e.to_string(), "($3 * (2 + (-$0)))");
        assert!(LowerError::TooManyVariables {
            relation: "R".into()
        }
        .to_string()
        .contains("u16"));
    }
}
