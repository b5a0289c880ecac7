//! The plan auditor: static analysis over trigger programs and lowered plans.
//!
//! The paper's pitch is that compiled trigger programs make view maintenance
//! *statically analyzable* — every statement is a flat monomial over map lookups, so
//! what a trigger reads and writes, and in what order, is decidable by inspection.
//! This module cashes that claim in: it computes per-statement and per-trigger
//! **effect sets** (maps read / maps written, slots defined / slots used — see
//! [`effects`]) and runs a pass pipeline (see [`passes`]) over both the
//! [`TriggerProgram`] IR and the lowered [`ExecPlan`], emitting structured
//! [`Diagnostic`] values with stable codes.
//!
//! # Diagnostic codes
//!
//! | Code  | Name                      | Severity | Meaning | Example |
//! |-------|---------------------------|----------|---------|---------|
//! | DB000 | `LoweringFailed`          | Error    | The program does not lower at all (structural invalidity, read-before-bind); only [`audit_program`] emits it. | a statement targeting a map id that does not exist |
//! | DB001 | `StatementOrderViolation` | Error    | A statement reads a map an **earlier** statement of the same trigger wrote — the read sees post-update values and results silently drift. | `m1[p] += 1; q[] += m1[p]` (must be the other way around) |
//! | DB002 | `DeadSlotBind`            | Warning  | An `Enumerate` binds a key component into a frame slot no later op or target key reads — wasted work, candidate for projecting the view's key down. | `q[] += Sum_x m1[x]` where `x` is never used again |
//! | DB003 | `UnusedIndexRegistration` | Warning  | A registered slice-index pattern matches no `Enumerate` in the plan — every update pays to maintain an index nothing reads. | a plan edited to register `(m1, [0])` with no such enumeration |
//! | DB004 | `RedundantProbe`          | Warning  | A statement probes the same map twice with identical key slots — the value could be read once and squared. | `q[] += m1[p] * m1[p]` |
//! | DB005 | `SelfReadWrite`           | Error    | A statement reads the map it writes; whether the lookup sees pre- or post-update state depends on executor buffering, so the IR's semantics are ill-defined. | `q[] += q[] * 2` |
//! | DB006 | `MissingIndexRegistration`| Error    | An `Enumerate` uses a partially-bound pattern with no registered slice index — the latent wrong-results/scan bug class the runtime used to catch dynamically. | a plan edited to drop a registration its enumerations need |
//! | DB007 | `WeightedFiringBlocked`   | Info     | The statement-level read/write conflict graph blocks weighted batch firing; names the first blocking statement pair, the groundwork for finer-grained batch replay. | the self-join trigger `q[] += 2 * m1[p] + 1; m1[p] += 1` |
//! | DB008 | `RedundantCheck`          | Warning  | An `Enumerate` repeats an identical consistency check (`position`, `slot`) — the second can never fail if the first held. | a plan edited to duplicate a `Check` entry |
//!
//! # Pipeline wiring
//!
//! [`lower`](crate::lower::lower) runs [`analyze`] on every plan it produces: any
//! Error-severity diagnostic **denies lowering**
//! ([`LowerError::Rejected`](crate::lower::LowerError::Rejected)), and the surviving
//! warnings/infos are attached to the plan
//! ([`ExecPlan::diagnostics`](crate::lower::ExecPlan::diagnostics), exposed as
//! [`ExecPlan::audit`](crate::lower::ExecPlan::audit)). The runtime's `ViewEngine`
//! trait and the `Ring` engine re-expose them per view (`Ring::audit_view` /
//! `Ring::audit`), and the `dbring-lint` binary runs the analyzer over every shipped
//! workload and example query in CI, failing on any Error.
//!
//! Analysis cost is paid once at lowering time; nothing here runs per update.

pub mod effects;
pub mod passes;

use std::fmt;

use crate::ir::{Trigger, TriggerProgram};
use crate::lower::ExecPlan;

/// How serious a [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// A property worth knowing (e.g. why weighted firing is blocked); never gates.
    Info,
    /// Wasted work or memory; the plan is correct but leaves performance behind.
    Warning,
    /// The plan would compute wrong results (or crash); lowering refuses to emit it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The stable identity of an analyzer finding. See the [module table](self) for the
/// full code/severity/meaning listing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DiagCode {
    /// DB000: the program does not lower at all.
    LoweringFailed,
    /// DB001: a statement reads a map an earlier statement wrote.
    StatementOrderViolation,
    /// DB002: an `Enumerate` bind nothing ever reads.
    DeadSlotBind,
    /// DB003: a registered slice index no `Enumerate` uses.
    UnusedIndexRegistration,
    /// DB004: a statement probes the same map twice with identical key slots.
    RedundantProbe,
    /// DB005: a statement reads the map it writes.
    SelfReadWrite,
    /// DB006: an `Enumerate` pattern with no registered slice index.
    MissingIndexRegistration,
    /// DB007: the read/write conflict graph blocks weighted batch firing.
    WeightedFiringBlocked,
    /// DB008: an `Enumerate` repeats an identical consistency check.
    RedundantCheck,
}

impl DiagCode {
    /// The stable `DBnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::LoweringFailed => "DB000",
            DiagCode::StatementOrderViolation => "DB001",
            DiagCode::DeadSlotBind => "DB002",
            DiagCode::UnusedIndexRegistration => "DB003",
            DiagCode::RedundantProbe => "DB004",
            DiagCode::SelfReadWrite => "DB005",
            DiagCode::MissingIndexRegistration => "DB006",
            DiagCode::WeightedFiringBlocked => "DB007",
            DiagCode::RedundantCheck => "DB008",
        }
    }

    /// The code's short name (`StatementOrderViolation`, …).
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::LoweringFailed => "LoweringFailed",
            DiagCode::StatementOrderViolation => "StatementOrderViolation",
            DiagCode::DeadSlotBind => "DeadSlotBind",
            DiagCode::UnusedIndexRegistration => "UnusedIndexRegistration",
            DiagCode::RedundantProbe => "RedundantProbe",
            DiagCode::SelfReadWrite => "SelfReadWrite",
            DiagCode::MissingIndexRegistration => "MissingIndexRegistration",
            DiagCode::WeightedFiringBlocked => "WeightedFiringBlocked",
            DiagCode::RedundantCheck => "RedundantCheck",
        }
    }

    /// The severity this code is always emitted at.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::LoweringFailed
            | DiagCode::StatementOrderViolation
            | DiagCode::SelfReadWrite
            | DiagCode::MissingIndexRegistration => Severity::Error,
            DiagCode::DeadSlotBind
            | DiagCode::UnusedIndexRegistration
            | DiagCode::RedundantProbe
            | DiagCode::RedundantCheck => Severity::Warning,
            DiagCode::WeightedFiringBlocked => Severity::Info,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One structured analyzer finding.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Diagnostic {
    /// The stable code identifying the finding class.
    pub code: DiagCode,
    /// The severity ([`DiagCode::severity`] of `code`).
    pub severity: Severity,
    /// The trigger the finding is about, rendered as `+R` / `-R` (`None` for
    /// plan-wide findings such as index-registration mismatches).
    pub trigger: Option<String>,
    /// The statement index within the trigger, where the finding is that precise.
    pub statement: Option<usize>,
    /// The human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(t) = &self.trigger {
            write!(f, " [on {t}")?;
            if let Some(s) = self.statement {
                write!(f, " stmt {s}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Diagnostic {
    fn new(code: DiagCode, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            trigger: None,
            statement: None,
            message,
        }
    }

    fn on(mut self, trigger: &Trigger, statement: Option<usize>) -> Self {
        self.trigger = Some(format!("{}{}", trigger.sign, trigger.relation));
        self.statement = statement;
        self
    }
}

/// Whether any diagnostic in a batch is Error-severity (the lint gate's predicate).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Runs the IR-level passes over a trigger program: statement ordering (DB001),
/// self-read/write (DB005), and the weighted-firing conflict graph (DB007).
pub fn analyze_program(program: &TriggerProgram) -> Vec<Diagnostic> {
    let mut keyed = Vec::new();
    for (ti, trigger) in program.triggers.iter().enumerate() {
        for v in passes::statement_order_violations(trigger) {
            keyed.push((
                (ti, v.reader),
                Diagnostic::new(
                    DiagCode::StatementOrderViolation,
                    format!(
                        "statement {} reads m{} after statement {} updated it; \
                         reads must see pre-update values (update-before-read, \
                         decreasing degree)",
                        v.reader, v.map, v.writer
                    ),
                )
                .on(trigger, Some(v.reader)),
            ));
        }
        for (si, map) in passes::self_read_writes(trigger) {
            keyed.push((
                (ti, si),
                Diagnostic::new(
                    DiagCode::SelfReadWrite,
                    format!(
                        "statement {si} reads m{map}, the map it writes — its \
                         semantics depend on executor write buffering"
                    ),
                )
                .on(trigger, Some(si)),
            ));
        }
        if let Some(c) = passes::weighted_firing_conflict(trigger) {
            keyed.push((
                (ti, c.reader),
                Diagnostic::new(
                    DiagCode::WeightedFiringBlocked,
                    format!(
                        "weighted batch firing is blocked: statement {} reads m{} \
                         which statement {} writes; batched updates of this trigger \
                         replay unit-by-unit",
                        c.reader, c.map, c.writer
                    ),
                )
                .on(trigger, Some(c.reader)),
            ));
        }
    }
    finish(keyed)
}

/// Runs the plan-level passes over a lowered plan: slot def-use dataflow for dead
/// binds (DB002), redundant probes (DB004) and redundant checks (DB008), plus the
/// index-registration cross-check (DB003 / DB006).
pub fn analyze_plan(plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut keyed = Vec::new();
    for (ti, trigger) in plan.triggers.iter().enumerate() {
        let on = |mut d: Diagnostic, si: usize| {
            d.trigger = Some(format!("{}{}", trigger.sign, trigger.relation));
            d.statement = Some(si);
            d
        };
        for (si, stmt) in trigger.statements.iter().enumerate() {
            for d in passes::dead_binds(stmt) {
                keyed.push((
                    (ti, si),
                    on(
                        Diagnostic::new(
                            DiagCode::DeadSlotBind,
                            format!(
                                "op {} enumerates m{} and binds slot ${} that no later \
                                 op or target key reads — dead bind, candidate for \
                                 projection",
                                d.op, d.map, d.slot
                            ),
                        ),
                        si,
                    ),
                ));
            }
            for p in passes::redundant_probes(stmt) {
                keyed.push((
                    (ti, si),
                    on(
                        Diagnostic::new(
                            DiagCode::RedundantProbe,
                            format!(
                                "op {} probes m{} with the same key slots {:?} as op {} \
                                 — the value could be read once and reused",
                                p.op, p.map, p.key_slots, p.first
                            ),
                        ),
                        si,
                    ),
                ));
            }
            for c in passes::redundant_checks(stmt) {
                keyed.push((
                    (ti, si),
                    on(
                        Diagnostic::new(
                            DiagCode::RedundantCheck,
                            format!(
                                "op {} repeats the consistency check of position {} \
                                 against slot ${} — it can never fail if the first held",
                                c.op, c.position, c.slot
                            ),
                        ),
                        si,
                    ),
                ));
            }
        }
    }
    let audit = passes::index_audit(plan);
    let plan_wide = (usize::MAX, usize::MAX);
    for (map, positions) in audit.unused {
        keyed.push((
            plan_wide,
            Diagnostic::new(
                DiagCode::UnusedIndexRegistration,
                format!(
                    "registered slice index (m{map}, positions {positions:?}) matches \
                     no Enumerate pattern — every update pays to maintain an index \
                     nothing reads"
                ),
            ),
        ));
    }
    for (map, positions) in audit.missing {
        keyed.push((
            plan_wide,
            Diagnostic::new(
                DiagCode::MissingIndexRegistration,
                format!(
                    "an Enumerate uses pattern (m{map}, positions {positions:?}) but \
                     no slice index is registered for it"
                ),
            ),
        ));
    }
    finish(keyed)
}

/// The full pass pipeline: [`analyze_program`] plus [`analyze_plan`], in one
/// deterministically ordered batch. This is what [`lower`](crate::lower::lower) runs
/// on every plan it produces.
pub fn analyze(program: &TriggerProgram, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut out = analyze_program(program);
    out.extend(analyze_plan(plan));
    out
}

/// Audits a program end-to-end without requiring it to lower first: lowers it (which
/// runs the full pipeline) and returns the plan's diagnostics; if lowering is denied
/// or fails structurally, returns the IR-level findings plus — when the failure is
/// not already explained by one of them — a DB000 `LoweringFailed` Error carrying the
/// lowering error text. This is the entry point hosts use to audit an arbitrary
/// (possibly hand-built) program.
pub fn audit_program(program: &TriggerProgram) -> Vec<Diagnostic> {
    match crate::lower::lower(program) {
        Ok(plan) => plan.diagnostics,
        Err(err) => {
            let mut diags = analyze_program(program);
            if !has_errors(&diags) {
                diags.push(Diagnostic::new(
                    DiagCode::LoweringFailed,
                    format!("the program does not lower: {err}"),
                ));
            }
            diags
        }
    }
}

/// Orders keyed findings by (trigger, statement, code, message) and strips the keys —
/// the determinism contract: the same program yields the same diagnostic sequence.
fn finish(mut keyed: Vec<((usize, usize), Diagnostic)>) -> Vec<Diagnostic> {
    keyed.sort_by(|(ka, a), (kb, b)| {
        ka.cmp(kb)
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
    keyed.into_iter().map(|(_, d)| d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrError, MapDef, RhsFactor, ScalarExpr, Statement, Trigger};
    use crate::lower::{lower, LowerError, PlanOp, UnboundKey};
    use dbring_agca::ast::Expr;
    use dbring_algebra::Number;
    use dbring_delta::Sign;

    /// A program skeleton: `q[]` (m0) and `m1[k]`, one insert trigger on `R` whose
    /// statements the individual tests swap out.
    fn program(statements: Vec<Statement>) -> TriggerProgram {
        TriggerProgram {
            maps: vec![
                MapDef {
                    id: 0,
                    name: "q".into(),
                    key_vars: vec![],
                    definition: Expr::int(0),
                    degree: 2,
                },
                MapDef {
                    id: 1,
                    name: "m1".into(),
                    key_vars: vec!["k".into()],
                    definition: Expr::int(0),
                    degree: 1,
                },
            ],
            triggers: vec![Trigger {
                relation: "R".into(),
                sign: Sign::Insert,
                params: vec!["@p".into()],
                statements,
            }],
            output: 0,
        }
    }

    fn stmt(target: crate::ir::MapId, keys: &[&str], factors: Vec<RhsFactor>) -> Statement {
        Statement {
            target,
            target_keys: keys.iter().map(|k| k.to_string()).collect(),
            coefficient: Number::Int(1),
            factors,
        }
    }

    fn lookup(map: crate::ir::MapId, keys: &[&str]) -> RhsFactor {
        RhsFactor::MapLookup {
            map,
            keys: keys.iter().map(|k| k.to_string()).collect(),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    /// DB001: write m1, then read it — the ordering pass must flag it as an Error,
    /// `validate` must reject it with the same (writer, reader, map) facts, and
    /// lowering must deny the plan.
    #[test]
    fn db001_statement_order_violation() {
        let p = program(vec![
            stmt(1, &["@p"], vec![]),
            stmt(0, &[], vec![lookup(1, &["@p"])]),
        ]);
        let diags = analyze_program(&p);
        assert_eq!(codes(&diags), vec!["DB001", "DB007"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].trigger.as_deref(), Some("+R"));
        assert_eq!(diags[0].statement, Some(1));
        assert!(diags[0].message.contains("reads m1 after statement 0"));
        assert!(matches!(
            p.validate(),
            Err(IrError::StatementOrderViolation {
                writer: 0,
                reader: 1,
                map: 1,
                ..
            })
        ));
        assert!(matches!(
            lower(&p),
            Err(LowerError::Invalid(IrError::StatementOrderViolation { .. }))
        ));
        // The same statements in update-before-read order are clean (modulo the
        // blocked-weighted-firing info, which reading a written map always implies).
        let ok = program(vec![
            stmt(0, &[], vec![lookup(1, &["@p"])]),
            stmt(1, &["@p"], vec![]),
        ]);
        assert!(ok.validate().is_ok());
        let diags = analyze_program(&ok);
        assert_eq!(codes(&diags), vec!["DB007"]);
        assert!(lower(&ok).is_ok());
    }

    /// DB005: a statement reading the map it writes is an Error regardless of
    /// statement order — no reordering can fix it.
    #[test]
    fn db005_self_read_write() {
        let p = program(vec![stmt(1, &["@p"], vec![lookup(1, &["@p"])])]);
        let diags = analyze_program(&p);
        assert_eq!(codes(&diags), vec!["DB005", "DB007"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("reads m1, the map it writes"));
        // validate's ordering pass only sees cross-statement order, so the denial
        // comes from the analyzer gate inside lower().
        assert!(p.validate().is_ok());
        match lower(&p) {
            Err(LowerError::Rejected(d)) => assert_eq!(d.code, DiagCode::SelfReadWrite),
            other => panic!("expected Rejected(SelfReadWrite), got {other:?}"),
        }
    }

    /// DB007: read-then-write of the same map is legal (pre-update read) but blocks
    /// weighted firing; the info names the blocking statement pair.
    #[test]
    fn db007_weighted_firing_blocked_names_the_pair() {
        let p = program(vec![
            stmt(0, &[], vec![lookup(1, &["@p"])]),
            stmt(1, &["@p"], vec![]),
        ]);
        let trigger = &p.triggers[0];
        assert!(!trigger.supports_weighted_firing());
        let diags = analyze_program(&p);
        assert_eq!(codes(&diags), vec!["DB007"]);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("statement 0 reads m1"));
        assert!(diags[0].message.contains("statement 1 writes"));
        // A conflict-free trigger emits nothing.
        let free = program(vec![stmt(1, &["@p"], vec![])]);
        assert!(free.triggers[0].supports_weighted_firing());
        assert!(analyze_program(&free).is_empty());
    }

    /// DB002: an enumeration whose bind nothing reads — `q[] += Σ_x m1[x]` — lowers
    /// with a DeadSlotBind warning attached to the plan.
    #[test]
    fn db002_dead_slot_bind() {
        let p = program(vec![stmt(0, &[], vec![lookup(1, &["x"])])]);
        let plan = lower(&p).unwrap();
        let diags = plan.audit();
        assert_eq!(codes(diags), vec!["DB002"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("dead bind"));
        // The same enumeration with the bind used as a target key is clean.
        let used = TriggerProgram {
            maps: vec![
                MapDef {
                    id: 0,
                    name: "q".into(),
                    key_vars: vec!["g".into()],
                    definition: Expr::int(0),
                    degree: 2,
                },
                MapDef {
                    id: 1,
                    name: "m1".into(),
                    key_vars: vec!["k".into()],
                    definition: Expr::int(0),
                    degree: 1,
                },
            ],
            triggers: vec![Trigger {
                relation: "R".into(),
                sign: Sign::Insert,
                params: vec!["@p".into()],
                statements: vec![stmt(0, &["x"], vec![lookup(1, &["x"])])],
            }],
            output: 0,
        };
        assert!(lower(&used).unwrap().audit().is_empty());
    }

    /// DB004: probing the same map twice with identical key slots.
    #[test]
    fn db004_redundant_probe() {
        let p = program(vec![stmt(
            0,
            &[],
            vec![lookup(1, &["@p"]), lookup(1, &["@p"])],
        )]);
        let plan = lower(&p).unwrap();
        let diags = plan.audit();
        assert_eq!(codes(diags), vec!["DB004"]);
        assert!(diags[0].message.contains("read once and reused"));
        // Different key slots probe different entries: clean.
        let two_params = TriggerProgram {
            maps: p.maps.clone(),
            triggers: vec![Trigger {
                relation: "R".into(),
                sign: Sign::Insert,
                params: vec!["@a".into(), "@b".into()],
                statements: vec![stmt(0, &[], vec![lookup(1, &["@a"]), lookup(1, &["@b"])])],
            }],
            output: 0,
        };
        assert!(lower(&two_params).unwrap().audit().is_empty());
    }

    /// DB003 / DB006: the index-registration cross-check, exercised by corrupting a
    /// lowered plan the way a lowering bug would.
    #[test]
    fn db003_db006_index_registration_cross_check() {
        // `q[g] += Σ_x m1[x, @p]`-shaped: a two-key map enumerated with position 1
        // bound, so the plan needs exactly one registration: (m1, [1]).
        let p = TriggerProgram {
            maps: vec![
                MapDef {
                    id: 0,
                    name: "q".into(),
                    key_vars: vec!["g".into()],
                    definition: Expr::int(0),
                    degree: 2,
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
                params: vec!["@p".into()],
                statements: vec![stmt(0, &["x"], vec![lookup(1, &["x", "@p"])])],
            }],
            output: 0,
        };
        let plan = lower(&p).unwrap();
        assert_eq!(plan.index_registrations, vec![(1, vec![1])]);
        assert!(plan.audit().is_empty());

        // An extra registration nothing enumerates: DB003 warning.
        let mut padded = plan.clone();
        padded.index_registrations.push((1, vec![0]));
        let diags = analyze_plan(&padded);
        assert_eq!(codes(&diags), vec!["DB003"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].trigger.is_none());

        // The needed registration dropped: DB006 error.
        let mut stripped = plan.clone();
        stripped.index_registrations.clear();
        let diags = analyze_plan(&stripped);
        assert_eq!(codes(&diags), vec!["DB006"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    /// DB008: a duplicated consistency check within one enumeration, exercised by
    /// corrupting a lowered plan (lowering never emits duplicates).
    #[test]
    fn db008_redundant_check() {
        // `q[] += Σ_x m1[x, x]`: Bind at position 0, Check at position 1.
        let p = TriggerProgram {
            maps: vec![
                MapDef {
                    id: 0,
                    name: "q".into(),
                    key_vars: vec![],
                    definition: Expr::int(0),
                    degree: 2,
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
                params: vec!["@p".into()],
                statements: vec![stmt(0, &[], vec![lookup(1, &["x", "x"])])],
            }],
            output: 0,
        };
        let mut plan = lower(&p).unwrap();
        assert!(plan.audit().is_empty(), "Bind+Check is the legit shape");
        let PlanOp::Enumerate { unbound, .. } = &mut plan.triggers[0].statements[0].ops[0] else {
            panic!("expected an enumerate");
        };
        let UnboundKey::Check { position, slot } = unbound[1] else {
            panic!("expected a check at entry 1");
        };
        unbound.push(UnboundKey::Check { position, slot });
        let diags = analyze_plan(&plan);
        assert_eq!(codes(&diags), vec!["DB008"]);
        assert!(diags[0].message.contains("can never fail"));
    }

    /// DB000: a structurally invalid program audits to a LoweringFailed error
    /// instead of an empty (silently "clean") report.
    #[test]
    fn db000_lowering_failed() {
        let p = program(vec![stmt(7, &[], vec![])]); // dangling map id
        let diags = audit_program(&p);
        assert_eq!(codes(&diags), vec!["DB000"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("unknown map m7"));
        // When the failure *is* an analyzer finding, DB000 is not added on top.
        let ordered_wrong = program(vec![
            stmt(1, &["@p"], vec![]),
            stmt(0, &[], vec![lookup(1, &["@p"])]),
        ]);
        let diags = audit_program(&ordered_wrong);
        assert_eq!(codes(&diags), vec!["DB001", "DB007"]);
    }

    /// The full pipeline on a clean compiled-style program: no diagnostics, and
    /// `audit_program` equals the plan's attached set.
    #[test]
    fn clean_program_audits_clean() {
        let p = program(vec![
            stmt(
                0,
                &[],
                vec![
                    lookup(1, &["@p"]),
                    RhsFactor::Scalar(ScalarExpr::Var("@p".into())),
                ],
            ),
            stmt(1, &["@p"], vec![]),
        ]);
        let plan = lower(&p).unwrap();
        let attached = plan.audit().to_vec();
        assert_eq!(attached, audit_program(&p));
        assert_eq!(codes(&attached), vec!["DB007"]); // blocked firing info only
        assert!(!has_errors(&attached));
    }

    /// Rendering: every code renders its stable string, severities order, and the
    /// Display form carries code, severity, trigger and statement.
    #[test]
    fn display_and_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for (code, s) in [
            (DiagCode::LoweringFailed, "DB000"),
            (DiagCode::StatementOrderViolation, "DB001"),
            (DiagCode::DeadSlotBind, "DB002"),
            (DiagCode::UnusedIndexRegistration, "DB003"),
            (DiagCode::RedundantProbe, "DB004"),
            (DiagCode::SelfReadWrite, "DB005"),
            (DiagCode::MissingIndexRegistration, "DB006"),
            (DiagCode::WeightedFiringBlocked, "DB007"),
            (DiagCode::RedundantCheck, "DB008"),
        ] {
            assert_eq!(code.code(), s);
            assert_eq!(code.to_string(), s);
            assert!(!code.name().is_empty());
        }
        let p = program(vec![
            stmt(1, &["@p"], vec![]),
            stmt(0, &[], vec![lookup(1, &["@p"])]),
        ]);
        let rendered = analyze_program(&p)[0].to_string();
        assert!(
            rendered.starts_with("DB001 error [on +R stmt 1]:"),
            "{rendered}"
        );
    }
}
