//! The recursive IVM compiler: AGCA queries → NC0C trigger programs (Section 7 of
//! *Incremental Query Evaluation in a Ring of Databases*, Koch, PODS 2010).
//!
//! Instead of evaluating delta queries at update time (classical IVM), the compiler
//! applies delta processing *recursively*: the query's delta is materialized as a set of
//! auxiliary views, those views' deltas as further views, and so on until the expressions
//! depend only on the update parameters (degree 0, guaranteed to be reached by
//! Theorem 6.4). Each monomial of each delta is factorized along variable connectivity
//! (Example 1.3), so the auxiliary views stay small — one view per independent join
//! component rather than one per delta.
//!
//! The output is a [`TriggerProgram`] in the paper's low-level
//! language **NC0C**: for every relation and sign there is a trigger whose statements are
//! of the form
//!
//! ```text
//! m[k⃗]  +=  coefficient * lookup₁ * lookup₂ * … * guard * value-term
//! ```
//!
//! — no joins, no aggregation operators, only map lookups, arithmetic and comparisons.
//! Free ("loop") variables in a statement range over slices of the looked-up maps, and
//! each maintained value receives a constant number of arithmetic operations per update,
//! which is the sequential shadow of the paper's NC⁰ claim (Theorem 7.1).
//!
//! Modules: [`ir`] defines the trigger-program IR and its validator; [`compile`](mod@compile)
//! implements the recursive compilation algorithm; [`lower`](mod@lower) resolves a compiled program
//! into a slot-indexed [`ExecPlan`] — the name-free representation the
//! runtime's hot path executes (compile once, lower once, execute per update); and
//! [`analysis`] is the plan auditor — effect sets, def-use dataflow and a lint pass
//! pipeline with stable diagnostic codes that [`lower`](lower::lower) runs over every
//! plan it produces (Errors deny the plan; Warnings/Infos attach to it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod compile;
pub mod ir;
pub mod lower;

pub use analysis::{
    analyze, analyze_plan, analyze_program, audit_program, has_errors, DiagCode, Diagnostic,
    Severity,
};
pub use codegen::generate as generate_nc0c;
pub use compile::{compile, CompileError};
pub use ir::{MapDef, MapId, RhsFactor, ScalarExpr, Statement, Trigger, TriggerProgram};
pub use lower::{
    lower, ExecPlan, LowerError, PlanOp, PlanStatement, PlanTrigger, Slot, SlotExpr, UnboundKey,
};
