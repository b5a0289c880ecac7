//! Runtime for the compiled trigger programs of `dbring-compiler`, plus the maintenance
//! baselines the paper's complexity argument compares against.
//!
//! ## The two-stage pipeline: compile → lower → execute
//!
//! A standing query goes through two representations before it runs:
//!
//! 1. **`TriggerProgram`** (from [`dbring_compiler::compile`](dbring_compiler::compile())) — the string-named NC0C
//!    IR: readable, serializable, validatable, and the right entry point for anything
//!    that *inspects* a program (code generation, `describe()`, tests over statement
//!    structure).
//! 2. **`ExecPlan`** (from [`dbring_compiler::lower`](dbring_compiler::lower())) — the slot-resolved execution
//!    plan: every variable is a fixed `u16` frame slot, every lookup is pre-classified
//!    as a fully-bound `Probe` or a partially-bound `Enumerate` with its slice-index
//!    pattern chosen once. This is the right entry point for anything that *runs* a
//!    program; [`Executor::new`](executor::Executor::new) lowers internally, so most
//!    callers never touch the plan directly.
//!
//! ## View storage
//!
//! Materialized views live in [`HashViewStorage`]: a flat row table with row-id slice
//! lists, O(1) probes. The paper's guarantee only needs point probes, ring
//! accumulation with zero-pruning, and partial-key enumeration, and the
//! [`ViewStorage`] trait names exactly those; the lowered executor is generic over it
//! so that decorating storages (the fault-injecting [`FaultStorage`]) run under the
//! unchanged execution layer.
//!
//! ## One executor, one hosting interface, one measurement interface
//!
//! * [`Executor`] — **recursive IVM** (the paper's contribution),
//!   running the lowered plan over flat reusable frames: per update it performs a
//!   constant number of arithmetic operations per maintained value, never touches the
//!   base relations, and in the steady state allocates nothing on the heap (keys are
//!   assembled in scratch buffers; writes go through
//!   [`ViewStorage::add_ref`], which copies a key into
//!   the view's row arena on first insertion). Arithmetic operations and map writes are counted so the
//!   experiments can verify the constant-work claim (Theorem 7.1) directly rather than
//!   only through wall-clock time. It is the one engine: hosts drive it through the
//!   object-safe [`ViewEngine`] interface ([`EngineRegistry`], the `dbring::Ring`
//!   facade), experiments through [`MaintenanceStrategy`].
//! * [`InterpretedExecutor`] — the same trigger semantics
//!   interpreted directly over the string-named IR with per-candidate `HashMap`
//!   environments. Slower by design; it is the auditable test oracle the lowered path
//!   is checked (and benchmarked) against, with identical [`ExecStats`] accounting. It
//!   hosts nothing: no staging, no `ViewEngine` impl.
//!
//! The baselines the paper's complexity argument compares against implement
//! [`MaintenanceStrategy`] next to the executor:
//!
//! * [`ClassicalIvm`] — classical first-order incremental view
//!   maintenance: only the query result is materialized; on every update the *first*
//!   delta query is evaluated against the stored database with the reference evaluator.
//! * [`NaiveReeval`] — non-incremental evaluation: the query is
//!   recomputed from scratch after every update.
//!
//! [`executor::Executor::initialize_from`] loads a compiled program's views from a
//! non-empty starting database by evaluating each view's defining query once with the
//! reference evaluator (the "initial values" step of Section 1.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod executor;
pub mod fault;
pub mod interp;
pub mod registry;
pub mod snapshot;
pub mod storage;
pub mod strategy;

pub use baseline::{ClassicalIvm, NaiveReeval};
pub use engine::{boxed_engine, try_boxed_engine, StorageBackend, ViewEngine};
pub use executor::{ExecStats, Executor, RuntimeError, StagedBatch};
pub use fault::{FaultOp, FaultPlan, FaultStorage};
pub use interp::InterpretedExecutor;
pub use registry::EngineRegistry;
pub use snapshot::{ChangeSet, Changes, PublishStats, SnapshotAccess, SnapshotStore, ViewSnapshot};
pub use storage::{HashViewStorage, StorageFootprint, ViewStorage};
pub use strategy::MaintenanceStrategy;
