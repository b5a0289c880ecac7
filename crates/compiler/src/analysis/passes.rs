//! The individual analysis passes. Each pass is a pure function from a trigger (or a
//! plan) to the raw facts it finds; [`crate::analysis::analyze`] turns those facts
//! into [`Diagnostic`](crate::analysis::Diagnostic) values with stable codes.
//!
//! The pass functions are public so callers that want the *facts* — not rendered
//! diagnostics — can reuse them: [`TriggerProgram::validate`](crate::ir::TriggerProgram::validate)
//! calls [`statement_order_violations`] directly, and
//! [`Trigger::supports_weighted_firing`](crate::ir::Trigger::supports_weighted_firing)
//! is [`weighted_firing_conflict`] finding none, so the IR-level entry points and the
//! analyzer cannot drift.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::effects::{op_uses, trigger_effects};
use crate::ir::{MapId, Trigger};
use crate::lower::{ExecPlan, PlanOp, PlanStatement, Slot, UnboundKey};

/// One violation of the statement-ordering invariant: a statement reads a map that an
/// *earlier* statement of the same trigger already updated, so the read sees
/// post-update values and the maintained results silently drift.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrderViolation {
    /// Index of the earlier statement that writes the map.
    pub writer: usize,
    /// Index of the later statement that reads it.
    pub reader: usize,
    /// The map written-then-read.
    pub map: MapId,
}

/// Finds every write-then-read pair among a trigger's statements: statement `i`
/// targets map `m` and some statement `j > i` looks `m` up. The compiler's
/// decreasing-degree statement order makes this impossible for compiled programs
/// (a statement only reads maps of strictly lower degree than its target), so any
/// hit is a hand-built or corrupted program that would corrupt results at runtime.
///
/// A statement reading its *own* target is reported by [`self_read_writes`], not
/// here: no ordering of statements can fix it.
pub fn statement_order_violations(trigger: &Trigger) -> Vec<OrderViolation> {
    let effects = trigger_effects(trigger);
    // First writer index of each map, so each (reader, map) pair is reported once
    // against the earliest offending writer.
    let mut first_writer: BTreeMap<MapId, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (j, stmt) in effects.statements.iter().enumerate() {
        for &map in &stmt.reads {
            if let Some(&i) = first_writer.get(&map) {
                out.push(OrderViolation {
                    writer: i,
                    reader: j,
                    map,
                });
            }
        }
        first_writer.entry(stmt.writes).or_insert(j);
    }
    out
}

/// Finds every statement that reads the map it writes (target appears among its own
/// lookups). Such a statement violates update-before-read within itself — whether the
/// lookup sees the pre- or post-update value depends on executor write buffering, so
/// its semantics are not well-defined by the IR alone.
pub fn self_read_writes(trigger: &Trigger) -> Vec<(usize, MapId)> {
    trigger_effects(trigger)
        .statements
        .iter()
        .enumerate()
        .filter(|(_, e)| e.reads.contains(&e.writes))
        .map(|(i, e)| (i, e.writes))
        .collect()
}

/// One read/write conflict between two statements of a trigger (possibly the same
/// statement): `reader` looks up a map that `writer` targets. Any such conflict
/// makes weighted batch firing unsound — firing once with writes scaled by `k`
/// assumes every firing reads state independent of the firings before it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FiringConflict {
    /// Index of the statement reading the conflicted map.
    pub reader: usize,
    /// Index of the statement writing it.
    pub writer: usize,
    /// The conflicted map.
    pub map: MapId,
}

/// The first read/write conflict of a trigger's statement-level conflict graph, in
/// (reader, lookup) order — `None` exactly when weighted firing is sound.
pub fn weighted_firing_conflict(trigger: &Trigger) -> Option<FiringConflict> {
    let effects = trigger_effects(trigger);
    // First writer of each map (any order — unlike the ordering pass, a read *before*
    // the write conflicts too: the next firing of the batch re-reads the updated map).
    let mut first_writer: BTreeMap<MapId, usize> = BTreeMap::new();
    for (i, stmt) in effects.statements.iter().enumerate() {
        first_writer.entry(stmt.writes).or_insert(i);
    }
    for (j, stmt) in effects.statements.iter().enumerate() {
        for &map in &stmt.reads {
            if let Some(&i) = first_writer.get(&map) {
                return Some(FiringConflict {
                    reader: j,
                    writer: i,
                    map,
                });
            }
        }
    }
    None
}

/// A dead `Enumerate` bind: op `op` of a lowered statement binds `slot`, and no later
/// op of the statement (including later `Check`s of the same enumeration) and no
/// target key ever reads it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeadBind {
    /// Index of the `Enumerate` op containing the dead bind.
    pub op: usize,
    /// Index of the bind within the op's `unbound` list.
    pub unbound_index: usize,
    /// The enumerated map.
    pub map: MapId,
    /// The slot bound but never read.
    pub slot: Slot,
}

/// Finds every dead bind of a lowered statement. The enumeration itself stays
/// meaningful (each matching entry still multiplies its value into the accumulator);
/// only materializing the key component into the frame is wasted — the classic
/// candidate for projecting the enumerated view's key down.
pub fn dead_binds(stmt: &PlanStatement) -> Vec<DeadBind> {
    let mut out = Vec::new();
    for (k, op) in stmt.ops.iter().enumerate() {
        let PlanOp::Enumerate { map, unbound, .. } = op else {
            continue;
        };
        for (u, entry) in unbound.iter().enumerate() {
            let UnboundKey::Bind { slot, .. } = *entry else {
                continue;
            };
            // Used by a later Check of this same enumeration?
            let mut used = unbound[u + 1..]
                .iter()
                .any(|e| matches!(*e, UnboundKey::Check { slot: s, .. } if s == slot));
            // Used by any later op? (A later *re-bind* of the same slot is a
            // redefinition, not a use — op_uses already excludes Binds.)
            let mut later_uses = BTreeSet::new();
            for later in &stmt.ops[k + 1..] {
                op_uses(later, &mut later_uses);
            }
            used = used || later_uses.contains(&slot) || stmt.target_slots.contains(&slot);
            if !used {
                out.push(DeadBind {
                    op: k,
                    unbound_index: u,
                    map: *map,
                    slot,
                });
            }
        }
    }
    out
}

/// A probe duplicating an earlier probe of the same statement: same map, identical
/// key slots. Semantically it squares the looked-up value — but the *read* is
/// redundant: the value could be fetched once and reused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RedundantProbe {
    /// Index of the duplicated (later) probe op.
    pub op: usize,
    /// Index of the earlier identical probe.
    pub first: usize,
    /// The probed map.
    pub map: MapId,
    /// The shared key slots.
    pub key_slots: Vec<Slot>,
}

/// Finds every probe of a statement that duplicates an earlier probe exactly.
pub fn redundant_probes(stmt: &PlanStatement) -> Vec<RedundantProbe> {
    let mut seen: BTreeMap<(MapId, Vec<Slot>), usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (k, op) in stmt.ops.iter().enumerate() {
        let PlanOp::Probe { map, key_slots } = op else {
            continue;
        };
        match seen.get(&(*map, key_slots.clone())) {
            Some(&first) => out.push(RedundantProbe {
                op: k,
                first,
                map: *map,
                key_slots: key_slots.clone(),
            }),
            None => {
                seen.insert((*map, key_slots.clone()), k);
            }
        }
    }
    out
}

/// A consistency `Check` duplicating an earlier entry of the same enumeration:
/// identical `(position, slot)` pair checked twice. The second comparison can never
/// fail if the first held.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RedundantCheck {
    /// Index of the `Enumerate` op containing the duplicate.
    pub op: usize,
    /// Index of the duplicated entry within the op's `unbound` list.
    pub unbound_index: usize,
    /// The enumerated map.
    pub map: MapId,
    /// The checked key position.
    pub position: usize,
    /// The frame slot compared against.
    pub slot: Slot,
}

/// Finds duplicated consistency checks within each `Enumerate` of a statement.
pub fn redundant_checks(stmt: &PlanStatement) -> Vec<RedundantCheck> {
    let mut out = Vec::new();
    for (k, op) in stmt.ops.iter().enumerate() {
        let PlanOp::Enumerate { map, unbound, .. } = op else {
            continue;
        };
        let mut seen: BTreeSet<(usize, Slot)> = BTreeSet::new();
        for (u, entry) in unbound.iter().enumerate() {
            if let UnboundKey::Check { position, slot } = *entry {
                if !seen.insert((position, slot)) {
                    out.push(RedundantCheck {
                        op: k,
                        unbound_index: u,
                        map: *map,
                        position,
                        slot,
                    });
                }
            }
        }
    }
    out
}

/// The two directions of the index-registration cross-check: patterns registered but
/// used by no `Enumerate` (pure memory waste — every update pays to maintain a slice
/// index nothing reads), and patterns an `Enumerate` relies on with no registration
/// (the latent wrong-results/scan bug class the runtime used to hit dynamically).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IndexAudit {
    /// Registered `(map, bound positions)` patterns no `Enumerate` uses.
    pub unused: Vec<(MapId, Vec<usize>)>,
    /// `(map, bound positions)` patterns used by an `Enumerate` but never registered.
    pub missing: Vec<(MapId, Vec<usize>)>,
}

/// Cross-checks [`ExecPlan::index_registrations`] against the partially-bound
/// `Enumerate` patterns the plan's ops actually use. Fully-unbound enumerations scan
/// the whole map and need no slice index, so they are exempt on both sides.
pub fn index_audit(plan: &ExecPlan) -> IndexAudit {
    let mut used: BTreeSet<(MapId, Vec<usize>)> = BTreeSet::new();
    for trigger in &plan.triggers {
        for stmt in &trigger.statements {
            for op in &stmt.ops {
                if let PlanOp::Enumerate {
                    map,
                    bound_positions,
                    ..
                } = op
                {
                    if !bound_positions.is_empty() {
                        used.insert((*map, bound_positions.clone()));
                    }
                }
            }
        }
    }
    let registered: BTreeSet<(MapId, Vec<usize>)> =
        plan.index_registrations.iter().cloned().collect();
    IndexAudit {
        unused: registered.difference(&used).cloned().collect(),
        missing: used.difference(&registered).cloned().collect(),
    }
}
