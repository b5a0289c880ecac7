//! Fault injection for chaos-testing the staged ingest protocol.
//!
//! [`FaultStorage`] wraps any [`ViewStorage`] and delegates every operation
//! verbatim — except that a globally *armed* [`FaultPlan`] makes the Nth occurrence
//! of a chosen operation kind panic mid-write. That is exactly the failure the
//! stage/commit protocol has to survive: a view engine dying half-way through a
//! batch, with some writes landed and some not. The registry catches the unwind,
//! quarantines the slot, and rolls every sibling back; the chaos property tests
//! assert the ring is bit-identical to its pre-batch state afterwards.
//!
//! Design notes:
//!
//! * **Panic-only.** [`ViewStorage`] operations are infallible by contract, so the
//!   only storage-level failure mode that exists is a panic. `Err`-path failures
//!   are injected one level up, with malformed updates (wrong arity, wrong types)
//!   fed to the ingest path — see the fault property tests.
//! * **Global plan.** The armed plan and its operation counter live in a process
//!   global, not in the storage value: storages are cloned freely (a ring forks its
//!   engines, a rebuild clones a fresh hierarchy), so per-instance state would never
//!   see a coherent "Nth operation". The counter spans every [`FaultStorage`] instance
//!   in the process, which is what "the Nth probe of this ingest call" means in a
//!   test that controls its storages. Tests must serialize armed sections —
//!   [`with_fault`] does so with an internal lock.
//! * **Rollback is exempt.** [`ViewStorage::restore`] (and `set`) delegate without
//!   tripping: they are the rollback/initialization primitives, and a fault that
//!   re-fired while the registry was aborting staged siblings would turn one
//!   injected failure into a cascade that poisons every view, which is not the
//!   scenario under test. A panic during abort is still *handled* (the slot is
//!   quarantined); it is just not what this injector produces.
//! * A plan **auto-disarms when it fires**, so one armed fault produces exactly
//!   one panic.

use dbring_algebra::Number;
use dbring_relations::Value;
use std::sync::Mutex;

use crate::storage::{StorageFootprint, ViewStorage};

/// The operation kinds a [`FaultPlan`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Point probes ([`ViewStorage::get`]) — fires inside trigger evaluation only:
    /// the stage path takes its pre-images from the writes themselves
    /// ([`ViewStorage::add_ref`] returns them), so staging adds no probe ordinals.
    Probe,
    /// Point writes ([`ViewStorage::add`] / [`ViewStorage::add_ref`]).
    Add,
    /// Consolidated batch flushes ([`ViewStorage::apply_sorted`]), one trip per
    /// flush.
    ApplySorted,
}

/// "Panic at the `at`-th occurrence (0-based) of operation `op`, process-wide."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The targeted operation kind.
    pub op: FaultOp,
    /// How many matching operations to let through before panicking.
    pub at: usize,
}

impl FaultPlan {
    /// A plan that panics at the `at`-th (0-based) occurrence of `op`.
    pub fn new(op: FaultOp, at: usize) -> Self {
        FaultPlan { op, at }
    }
}

/// The armed plan and how many matching operations have been observed so far.
static ARMED: Mutex<Option<(FaultPlan, usize)>> = Mutex::new(None);

/// Serializes armed sections across tests: `cargo test` runs tests on concurrent
/// threads, and the plan is process-global.
static FAULT_SECTION: Mutex<()> = Mutex::new(());

/// Arms `plan`, resetting the operation counter. Prefer [`with_fault`], which also
/// serializes concurrently running tests and disarms on exit.
pub fn arm(plan: FaultPlan) {
    *lock(&ARMED) = Some((plan, 0));
}

/// Disarms any armed plan.
pub fn disarm() {
    *lock(&ARMED) = None;
}

/// Runs `f` with `plan` armed, holding the global fault-section lock so concurrent
/// tests cannot trip each other's plans, and disarming on exit (even by unwind).
/// The closure's panics propagate — arm a plan the closure *catches* (the staged
/// dispatch path does) or expect the unwind.
pub fn with_fault<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let _section = lock(&FAULT_SECTION);
    struct DisarmOnDrop;
    impl Drop for DisarmOnDrop {
        fn drop(&mut self) {
            disarm();
        }
    }
    let _disarm = DisarmOnDrop;
    arm(plan);
    f()
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A fired fault unwinds through guard drops, so treat poisoning as benign.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counts one occurrence of `op` against the armed plan, panicking (and
/// auto-disarming) when the plan's target is reached.
fn trip(op: FaultOp) {
    let mut armed = lock(&ARMED);
    if let Some((plan, seen)) = armed.as_mut() {
        if plan.op == op {
            let n = *seen;
            *seen += 1;
            if n >= plan.at {
                let fired = *plan;
                *armed = None;
                drop(armed);
                panic!("injected fault: {:?} operation #{}", fired.op, fired.at);
            }
        }
    }
}

/// A [`ViewStorage`] decorator that panics at a planned operation — the chaos
/// storage behind the fault property tests. Wraps any storage; with no plan armed
/// it is a zero-behavior-change passthrough.
#[derive(Clone, Debug)]
pub struct FaultStorage<S: ViewStorage>(pub S);

impl<S: ViewStorage> ViewStorage for FaultStorage<S> {
    fn new(key_arity: usize) -> Self {
        FaultStorage(S::new(key_arity))
    }

    fn key_arity(&self) -> usize {
        self.0.key_arity()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, key: &[Value]) -> Number {
        trip(FaultOp::Probe);
        self.0.get(key)
    }

    fn add(&mut self, key: Vec<Value>, delta: Number) {
        trip(FaultOp::Add);
        self.0.add(key, delta);
    }

    fn add_ref(&mut self, key: &[Value], delta: Number) -> Number {
        trip(FaultOp::Add);
        self.0.add_ref(key, delta)
    }

    fn apply_sorted(&mut self, deltas: &[(&[Value], Number)], log: impl FnMut(&[Value], Number)) {
        // One ApplySorted trip per flush, then the wrapped storage's combined
        // capture-and-land.
        trip(FaultOp::ApplySorted);
        self.0.apply_sorted(deltas, log);
    }

    fn set(&mut self, key: Vec<Value>, value: Number) {
        // Initialization path: uninstrumented so backfill/repair never trips.
        self.0.set(key, value);
    }

    fn restore(&mut self, key: &[Value], value: Number) {
        // Rollback primitive: uninstrumented so aborting staged siblings cannot
        // re-fire the fault that triggered the abort (see module docs).
        self.0.restore(key, value);
    }

    fn register_index(&mut self, positions: Vec<usize>) {
        self.0.register_index(positions);
    }

    fn for_each(&self, visit: impl FnMut(&[Value], Number)) {
        self.0.for_each(visit);
    }

    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        visit: impl FnMut(&[Value], Number),
    ) {
        self.0.for_each_slice(positions, values, visit);
    }

    fn footprint(&self) -> StorageFootprint {
        self.0.footprint()
    }

    fn to_table(&self) -> std::collections::BTreeMap<Vec<Value>, Number> {
        self.0.to_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HashViewStorage;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn an_armed_plan_fires_once_at_the_nth_operation_and_disarms() {
        let result = with_fault(FaultPlan::new(FaultOp::Add, 2), || {
            let mut m = FaultStorage::<HashViewStorage>::new(1);
            m.add(key(&[1]), Number::Int(1)); // op 0
            m.add(key(&[2]), Number::Int(1)); // op 1
            let panicked =
                catch_unwind(AssertUnwindSafe(|| m.add(key(&[3]), Number::Int(1)))).is_err();
            assert!(panicked, "op 2 fires the plan");
            // The plan auto-disarmed: further ops sail through.
            m.add(key(&[4]), Number::Int(1));
            m.to_table().len()
        });
        // Ops 0 and 1 landed, op 2 died mid-call (before the write), op 3 landed.
        assert_eq!(result, 3);
    }

    #[test]
    fn restore_and_set_never_trip() {
        with_fault(FaultPlan::new(FaultOp::Add, 0), || {
            let mut m = FaultStorage::<HashViewStorage>::new(1);
            m.set(key(&[1]), Number::Int(5));
            m.restore(&key(&[1]), Number::Int(7));
            assert_eq!(m.get(&key(&[1])), Number::Int(7));
            // The armed Add plan is still live and fires on the first real add.
            let panicked =
                catch_unwind(AssertUnwindSafe(|| m.add(key(&[2]), Number::Int(1)))).is_err();
            assert!(panicked);
        });
    }

    #[test]
    fn without_a_plan_the_wrapper_is_a_passthrough() {
        // Hold the section lock so a concurrently running armed test cannot
        // interleave with this one.
        let _section = super::lock(&FAULT_SECTION);
        let mut m = FaultStorage::<HashViewStorage>::new(2);
        m.register_index(vec![1]);
        m.add(key(&[1, 2]), Number::Int(3));
        m.add_ref(&key(&[1, 2]), Number::Int(4));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(7));
        assert_eq!(m.len(), 1);
        assert_eq!(m.key_arity(), 2);
        assert_eq!(m.footprint().entries, 1);
        let refs = [(key(&[2, 2]), Number::Int(9))];
        let borrowed: Vec<(&[Value], Number)> =
            refs.iter().map(|(k, d)| (k.as_slice(), *d)).collect();
        let mut pres = Vec::new();
        for _ in 0..2 {
            m.apply_sorted(&borrowed, |_, pre| pres.push(pre));
        }
        assert_eq!(pres, vec![Number::Int(0), Number::Int(9)]);
        assert_eq!(m.get(&key(&[2, 2])), Number::Int(18));
        let mut seen = 0;
        m.for_each_slice(&[1], &key(&[2]), |_, _| seen += 1);
        assert_eq!(seen, 2);
    }
}
