//! Property tests for the plan auditor (`dbring_compiler::analysis`).
//!
//! Diagnostics must be a pure, deterministic function of the program, on arbitrary
//! hand-built IR far outside what the compiler emits; and on compiled programs the
//! audit never carries an Error, and `DB007` is reported exactly for the triggers
//! whose plan replays unit updates (`weighted_firing == false`), the flag the
//! runtime's batch path obeys.

use dbring_agca::ast::Expr;
use dbring_agca::parser::parse_query;
use dbring_algebra::Number;
use dbring_compiler::analysis::analyze_program;
use dbring_compiler::{
    audit_program, compile, lower, DiagCode, MapDef, RhsFactor, ScalarExpr, Statement, Trigger,
    TriggerProgram,
};
use dbring_delta::Sign;
use dbring_relations::Database;
use proptest::prelude::*;

const MAPS: usize = 4;

/// An arbitrary RHS factor over maps `m0..m3`: a lookup keyed by the trigger
/// parameter, a scalar, or a guard — shapes the map-level effect analysis must see
/// through (only lookups read maps).
fn arb_factor() -> impl Strategy<Value = RhsFactor> {
    prop_oneof![
        (0..MAPS).prop_map(|m| RhsFactor::MapLookup {
            map: m,
            keys: vec!["@p".to_string()],
        }),
        Just(RhsFactor::Scalar(ScalarExpr::Var("@p".to_string()))),
    ]
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    (0..MAPS, prop::collection::vec(arb_factor(), 0..4)).prop_map(|(target, factors)| Statement {
        target,
        target_keys: vec!["@p".to_string()],
        coefficient: Number::Int(1),
        factors,
    })
}

fn arb_trigger() -> impl Strategy<Value = Trigger> {
    prop::collection::vec(arb_statement(), 1..6).prop_map(|statements| Trigger {
        relation: "R".to_string(),
        sign: Sign::Insert,
        params: vec!["@p".to_string()],
        statements,
    })
}

/// Wraps arbitrary triggers in a program whose map table names every `m0..m3` (the
/// program-level passes index into it for messages).
fn program_of(triggers: Vec<Trigger>) -> TriggerProgram {
    TriggerProgram {
        maps: (0..MAPS)
            .map(|id| MapDef {
                id,
                name: format!("m{id}"),
                key_vars: vec!["k".to_string()],
                definition: Expr::int(0),
                degree: 1,
            })
            .collect(),
        triggers,
        output: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Diagnostics are a pure, deterministic function of the program: two runs give
    /// the same findings in the same order (the codes are stable identifiers CI and
    /// tests match on, so ordering jitter would be a contract break).
    #[test]
    fn program_diagnostics_are_deterministic(triggers in prop::collection::vec(arb_trigger(), 1..4)) {
        let program = program_of(triggers);
        let first = analyze_program(&program);
        let second = analyze_program(&program);
        prop_assert_eq!(first, second);
    }
}

/// On *compiled* programs `DB007` marks exactly the unit-replay triggers, the full
/// audit is deterministic, and — the gate `lower()` relies on — no Error-severity
/// diagnostic ever appears.
#[test]
fn compiled_corpus_agrees_and_audits_without_errors() {
    let mut catalog = Database::new();
    catalog.declare("C", &["cid", "nation"]).unwrap();
    catalog.declare("R", &["A"]).unwrap();
    catalog.declare("S", &["A"]).unwrap();
    for text in [
        "q1[n] := Sum(C(c, n))",
        "q2[c] := Sum(C(c, n) * C(c2, n))",
        "q3 := Sum(C(c, n) * C(c2, n2) * (n = n2))",
        "q4 := Sum(R(x) * R(y) * (x = y))",
        "q5 := Sum(R(x) * S(x) * x)",
        "q6[c] := Sum(C(c, n) * R(n))",
        "q7 := Sum(C(c, n) * (n >= 2) * n)",
        "q8 := Sum(C(c, n) * C(c2, n) * n)",
    ] {
        let program = compile(&catalog, &parse_query(text).unwrap()).unwrap();
        let plan = lower(&program).unwrap();
        let diags = analyze_program(&program);
        for trigger in &plan.triggers {
            let on = format!("{}{}", trigger.sign, trigger.relation);
            let blocked = diags.iter().any(|d| {
                d.code == DiagCode::WeightedFiringBlocked && d.trigger.as_deref() == Some(&on)
            });
            assert_eq!(
                blocked, !trigger.weighted_firing,
                "{text}: trigger on {}{}",
                trigger.sign, trigger.relation
            );
        }
        let audit = audit_program(&program);
        assert_eq!(audit, audit_program(&program), "{text}: nondeterministic");
        assert!(
            !dbring_compiler::analysis::has_errors(&audit),
            "{text}: compiled program carries an Error diagnostic: {audit:?}"
        );
    }
}
