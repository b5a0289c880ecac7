//! The hash storage: one flat row table per map, with row-id lists for slices.
//!
//! Trigger statements probe a view by fully bound key, accumulate ring deltas into it
//! and — for loop variables — enumerate the entries matching a *partially* bound key,
//! which must cost in proportion to the matches, not to the map, or the database size
//! creeps back into every update.
//!
//! * **Rows.** Key [`Value`]s at stride = arity and the [`Number`] beside them live in
//!   fixed-size chunks, allocated once and never reallocated (a growing arena leaves
//!   its freed copies resident). A pruned row overwrites its values — strings are
//!   released — and its id goes on a free list; a zero `Number` marks it free.
//! * **Probes.** A [`SlotTable`] — `(row id, 32-bit hash)` slots at load ≤ ½ — finds a
//!   row by [`hash_values`], a multiply-rotate hash seeded per storage from
//!   [`RandomState`]: a tenant's keys arrive over a socket, and whoever could predict
//!   the hash could aim every key at one probe chain.
//! * **Slices.** Each registered pattern threads the rows that agree on its positions
//!   onto a doubly linked list of row ids (`[next, prev]` per row per pattern, in the
//!   chunk) and keeps a second, small `SlotTable` from the pattern's values to the
//!   list's head. Enumeration is one group probe and a list walk handing out
//!   `&[Value]` straight from the arena; maintenance is a constant number of word
//!   writes, without allocation. Every further pattern costs eight bytes per row and
//!   a group table.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use dbring_algebra::{Number, Semiring};
use dbring_relations::intern::{
    clone_with_capacity, locate, slot_hash, SlotTable, CHUNK_ROWS, HASH_MUL,
};
use dbring_relations::Value;

use super::{StorageFootprint, ViewStorage};

/// "No row": the end of a slice list in either direction.
const NIL: u32 = u32::MAX;

/// A hash seed drawn from std's per-process random keys.
pub(crate) fn random_seed() -> u64 {
    RandomState::new().build_hasher().finish()
}

/// The seed of the `ordinal`-th table hashing under one drawn seed.
pub(crate) fn salted(seed: u64, ordinal: u64) -> u64 {
    seed ^ (ordinal + 1).wrapping_mul(HASH_MUL)
}

#[inline]
fn mix(h: u64, word: u64, tag: u64) -> u64 {
    ((h ^ word).wrapping_mul(HASH_MUL) ^ tag).rotate_left(23)
}

/// The hash state after a run of values: variant tag and payload each, strings by
/// content (eight bytes a step, then the length).
#[inline]
fn fold_values<'a>(seed: u64, values: impl IntoIterator<Item = &'a Value>) -> u64 {
    values.into_iter().fold(seed, |h, value| match value {
        Value::Int(i) => mix(h, *i as u64, 0),
        Value::Float(f) => mix(h, f.get().to_bits(), 1),
        Value::Bool(b) => mix(h, u64::from(*b), 3),
        Value::Str(s) => {
            let mut words = s.as_bytes().chunks_exact(8);
            let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
            let h = words.by_ref().fold(h, |h, w| mix(h, word(w), 2));
            let mut tail = [0u8; 8];
            tail[..words.remainder().len()].copy_from_slice(words.remainder());
            mix(mix(h, word(&tail), 2), s.len() as u64, 2)
        }
    })
}

/// Seeded multiply-rotate hash over a run of values, as the 32 bits a [`SlotTable`]
/// stores. Quality only affects speed — every probe verifies by comparison.
#[inline]
pub(crate) fn hash_values<'a>(seed: u64, values: impl IntoIterator<Item = &'a Value>) -> u32 {
    slot_hash(fold_values(seed, values))
}

/// One fixed-capacity run of rows: keys at stride arity, one value per row (zero marks
/// a free row), and `[next, prev]` row ids per row per pattern.
#[derive(Debug)]
struct Chunk {
    keys: Vec<Value>,
    vals: Vec<Number>,
    links: Vec<[u32; 2]>,
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        Chunk {
            keys: clone_with_capacity(&self.keys),
            vals: clone_with_capacity(&self.vals),
            links: clone_with_capacity(&self.links),
        }
    }
}

/// One registered slice pattern: its sorted key positions and the table from the
/// values at those positions to the head row of the list of rows carrying them.
#[derive(Clone, Debug)]
struct Pattern {
    positions: Vec<usize>,
    groups: SlotTable,
}

/// One materialized map: key tuples of a fixed arity mapping to aggregate values, plus
/// the slice lists registered for it.
#[derive(Clone, Debug)]
pub struct HashViewStorage {
    key_arity: usize,
    seed: u64,
    chunks: Vec<Chunk>,
    /// Rows carved out of the chunks so far (live + free).
    allocated: usize,
    /// Ids of carved rows that are currently unused, reused last-freed first.
    free: Vec<u32>,
    index: SlotTable,
    patterns: Vec<Pattern>,
}

impl HashViewStorage {
    /// An empty map hashing from a known seed (tests aim keys at chosen slots).
    pub(crate) fn with_seed(key_arity: usize, seed: u64) -> Self {
        HashViewStorage {
            key_arity,
            seed,
            chunks: Vec::new(),
            allocated: 0,
            free: Vec::new(),
            index: SlotTable::default(),
            patterns: Vec::new(),
        }
    }

    #[inline]
    fn key(&self, id: u32) -> &[Value] {
        let (chunk, r) = locate(id);
        &self.chunks[chunk].keys[r * self.key_arity..(r + 1) * self.key_arity]
    }

    /// The value of row `id`: zero if the row is free (or was never carved).
    #[inline]
    fn value(&self, id: u32) -> Number {
        let (chunk, r) = locate(id);
        let value = self.chunks.get(chunk).and_then(|c| c.vals.get(r));
        value.copied().unwrap_or(Number::Int(0))
    }

    #[inline]
    fn links(&self, id: u32, p: usize) -> [u32; 2] {
        let (chunk, r) = locate(id);
        self.chunks[chunk].links[r * self.patterns.len() + p]
    }

    #[inline]
    fn links_mut(&mut self, id: u32, p: usize) -> &mut [u32; 2] {
        let (chunk, r) = locate(id);
        &mut self.chunks[chunk].links[r * self.patterns.len() + p]
    }

    /// The hash of row `id`'s values at pattern `p`'s positions, under the storage
    /// seed salted with the pattern's ordinal.
    fn group_hash(&self, p: usize, id: u32) -> u32 {
        let key = self.key(id);
        let slice = self.patterns[p].positions.iter().map(|&i| &key[i]);
        hash_values(salted(self.seed, p as u64), slice)
    }

    /// Whether row `id` carries `values` at pattern `p`'s positions.
    fn in_group<'a>(&self, p: usize, id: u32, values: impl IntoIterator<Item = &'a Value>) -> bool {
        let key = self.key(id);
        let positions = self.patterns[p].positions.iter();
        positions.zip(values).all(|(&i, value)| key[i] == *value)
    }

    /// Whether rows `a` and `b` agree on pattern `p`'s positions.
    fn same_group(&self, p: usize, a: u32, b: u32) -> bool {
        let b = self.key(b);
        self.in_group(p, a, self.patterns[p].positions.iter().map(|&i| &b[i]))
    }

    /// Puts row `id` at the head of its group's list under pattern `p`.
    fn link(&mut self, p: usize, id: u32) {
        let hash = self.group_hash(p, id);
        self.patterns[p].groups.reserve_one();
        let groups = &self.patterns[p].groups;
        let (slot, head) = groups.probe(hash, |head| self.same_group(p, head, id));
        *self.links_mut(id, p) = [head.unwrap_or(NIL), NIL];
        match head {
            Some(head) => {
                self.links_mut(head, p)[1] = id;
                self.patterns[p].groups.set_id(slot, id);
            }
            None => self.patterns[p].groups.occupy(slot, id, hash),
        }
        debug_assert_eq!(self.check_groups(p, slot), Ok(()));
    }

    /// Takes row `id` off its list under pattern `p`. Only a head row touches the
    /// group table: found there by row id, it hands the group to its successor or,
    /// as the last member, takes the group out.
    fn unlink(&mut self, p: usize, id: u32) {
        let [next, prev] = self.links(id, p);
        if next != NIL {
            self.links_mut(next, p)[1] = prev;
        }
        if prev != NIL {
            self.links_mut(prev, p)[0] = next;
            return;
        }
        let hash = self.group_hash(p, id);
        let groups = &mut self.patterns[p].groups;
        let (slot, Some(_)) = groups.probe(hash, |head| head == id) else {
            unreachable!("a list's head row is in the group table");
        };
        let slot = if next != NIL {
            groups.set_id(slot, next);
            slot
        } else {
            groups.remove(slot)
        };
        debug_assert_eq!(self.check_groups(p, slot), Ok(()));
    }

    /// Stores a new row, reusing a freed id before carving a fresh one.
    fn alloc_row(&mut self, key: &[Value], value: Number) -> u32 {
        let (arity, patterns) = (self.key_arity, self.patterns.len());
        if let Some(id) = self.free.pop() {
            let (chunk, r) = locate(id);
            let chunk = &mut self.chunks[chunk];
            chunk.keys[r * arity..(r + 1) * arity].clone_from_slice(key);
            chunk.vals[r] = value;
            return id;
        }
        // Slots store `id + 1` in 32 bits, and `NIL` ends a list.
        assert!(self.allocated < NIL as usize - 1, "row id space exhausted");
        if self.allocated == self.chunks.len() * CHUNK_ROWS {
            self.chunks.push(Chunk {
                keys: Vec::with_capacity(CHUNK_ROWS * arity),
                vals: Vec::with_capacity(CHUNK_ROWS),
                links: Vec::with_capacity(CHUNK_ROWS * patterns),
            });
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room exists");
        chunk.keys.extend_from_slice(key);
        chunk.vals.push(value);
        chunk.links.resize(chunk.links.len() + patterns, [NIL; 2]);
        self.allocated += 1;
        self.allocated as u32 - 1
    }

    /// The one write path: replaces the value under `key` (zero ⇔ absent) with
    /// `update` of it — inserting, overwriting in place or pruning as the result
    /// demands, slice lists maintained — and returns the value it replaced.
    #[inline]
    fn write(&mut self, key: &[Value], update: impl FnOnce(Number) -> Number) -> Number {
        assert_eq!(key.len(), self.key_arity, "key arity mismatch");
        self.index.reserve_one();
        let hash = hash_values(self.seed, key);
        let (slot, found) = self.index.probe(hash, |id| self.key(id) == key);
        let pre = found.map_or(Number::Int(0), |id| self.value(id));
        let new = update(pre);
        let touched = match found {
            Some(id) if new.is_zero() => {
                (0..self.patterns.len()).for_each(|p| self.unlink(p, id));
                let ((chunk, r), arity) = (locate(id), key.len());
                // Overwritten, not just forgotten: a string key is released now.
                self.chunks[chunk].keys[r * arity..(r + 1) * arity].fill(Value::Int(0));
                self.chunks[chunk].vals[r] = new;
                self.free.push(id);
                self.index.remove(slot)
            }
            Some(id) => {
                let (chunk, r) = locate(id);
                self.chunks[chunk].vals[r] = new;
                slot
            }
            None if new.is_zero() => slot,
            None => {
                let id = self.alloc_row(key, new);
                self.index.occupy(slot, id, hash);
                (0..self.patterns.len()).for_each(|p| self.link(p, id));
                slot
            }
        };
        debug_assert_eq!(self.check(touched), Ok(()));
        pre
    }

    /// Pattern `p`'s group table invariants around slot `touched`: every slot names a
    /// live head row and stores the hash of that row's slice.
    fn check_groups(&self, p: usize, touched: usize) -> Result<(), String> {
        self.patterns[p]
            .groups
            .check(touched, self.allocated, |head| {
                let is_head = !self.value(head).is_zero() && self.links(head, p)[1] == NIL;
                is_head.then(|| self.group_hash(p, head))
            })
    }

    /// The storage invariants, for debug assertions after every mutation: the counters
    /// add up, the primary table's own invariants hold with every linked row live and
    /// stored under its key's hash, and — while the table is small enough to check
    /// whole — under every pattern each live row is on exactly one list whose links
    /// agree in both directions, whose members share a slice, and whose head is what
    /// the group table returns for that slice (so groups = distinct slices).
    fn check(&self, touched: usize) -> Result<(), String> {
        let (live, free) = (self.index.len(), self.free.len());
        if live + free != self.allocated {
            return Err(format!("live {live} + free {free} != {}", self.allocated));
        }
        self.index.check(touched, self.allocated, |id| {
            let live = !self.value(id).is_zero();
            live.then(|| hash_values(self.seed, self.key(id)))
        })?;
        if self.index.capacity() > SlotTable::FULL_CHECK_SLOTS {
            return Ok(());
        }
        for (p, pattern) in self.patterns.iter().enumerate() {
            self.check_groups(p, 0)?;
            let (mut heads, mut listed) = (0, 0);
            let rows = (0..self.allocated as u32).filter(|&id| !self.value(id).is_zero());
            for head in rows.filter(|&id| self.links(id, p)[1] == NIL) {
                heads += 1;
                let found = pattern
                    .groups
                    .probe(self.group_hash(p, head), |h| self.same_group(p, h, head));
                if found.1 != Some(head) {
                    return Err(format!("pattern {p}: head {head} is not its group's"));
                }
                let (mut prev, mut id) = (NIL, head);
                while id != NIL {
                    let member = !self.value(id).is_zero() && self.same_group(p, id, head);
                    if !(member && self.links(id, p)[1] == prev && listed < live) {
                        return Err(format!("pattern {p}: broken list at row {id}"));
                    }
                    listed += 1;
                    (prev, id) = (id, self.links(id, p)[0]);
                }
            }
            if heads != pattern.groups.len() || listed != live {
                let groups = pattern.groups.len();
                return Err(format!(
                    "pattern {p}: {heads} heads of {groups}, {listed} rows of {live}"
                ));
            }
        }
        Ok(())
    }
}

impl ViewStorage for HashViewStorage {
    fn new(key_arity: usize) -> Self {
        Self::with_seed(key_arity, random_seed())
    }

    fn key_arity(&self) -> usize {
        self.key_arity
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn get(&self, key: &[Value]) -> Number {
        let probe = self
            .index
            .probe(hash_values(self.seed, key), |id| self.key(id) == key);
        probe.1.map_or(Number::Int(0), |id| self.value(id))
    }

    /// The rows live in the arena, so the owned key buys nothing here.
    fn add(&mut self, key: Vec<Value>, delta: Number) {
        self.add_ref(&key, delta);
    }

    /// One probe: the key is cloned into the arena only when the entry is new, and
    /// nothing is allocated unless a chunk or a slot array fills up.
    fn add_ref(&mut self, key: &[Value], delta: Number) -> Number {
        self.write(key, |pre| {
            if delta.is_zero() {
                pre
            } else if pre.is_zero() {
                delta
            } else {
                pre.add(&delta)
            }
        })
    }

    /// An in-place overwrite: one probe, bit-exact, and a key that stays present keeps
    /// its row id and its place in every slice list.
    fn restore(&mut self, key: &[Value], value: Number) {
        self.write(key, |_| value);
    }

    /// Registers a slice pattern over the given key positions (deduplicated; ignored if
    /// it covers all positions or none, or is registered already). Rows already
    /// present are threaded onto its lists in row-id order, so a pattern registered
    /// after writes serves exactly the matches one registered up front does.
    fn register_index(&mut self, mut positions: Vec<usize>) {
        positions.sort_unstable();
        positions.dedup();
        let degenerate = positions.is_empty() || positions.len() >= self.key_arity;
        if degenerate || self.patterns.iter().any(|p| p.positions == positions) {
            return;
        }
        let p = self.patterns.len();
        let groups = SlotTable::default();
        self.patterns.push(Pattern { positions, groups });
        // One more `[next, prev]` pair per row: re-stride every chunk's links once.
        for chunk in &mut self.chunks {
            let links = Vec::with_capacity(CHUNK_ROWS * (p + 1));
            let old = std::mem::replace(&mut chunk.links, links);
            for r in 0..chunk.vals.len() {
                chunk.links.extend_from_slice(&old[r * p..(r + 1) * p]);
                chunk.links.push([NIL; 2]);
            }
        }
        for id in 0..self.allocated as u32 {
            if !self.value(id).is_zero() {
                self.link(p, id);
            }
        }
        debug_assert_eq!(self.check(0), Ok(()));
    }

    /// Visits every entry in row-id order.
    fn for_each(&self, mut visit: impl FnMut(&[Value], Number)) {
        let arity = self.key_arity;
        for chunk in &self.chunks {
            let live = chunk.vals.iter().enumerate().filter(|(_, v)| !v.is_zero());
            live.for_each(|(r, &v)| visit(&chunk.keys[r * arity..(r + 1) * arity], v));
        }
    }

    /// Visits every entry whose key matches `values` at the given positions, without
    /// materializing the matches and without a probe per match.
    ///
    /// Resolution order: empty pattern → all entries, registered pattern → one group
    /// probe and a list walk, otherwise a full scan. Positions must be sorted.
    fn for_each_slice(
        &self,
        positions: &[usize],
        values: &[Value],
        mut visit: impl FnMut(&[Value], Number),
    ) {
        assert_eq!(positions.len(), values.len());
        if positions.is_empty() {
            return self.for_each(visit);
        }
        let Some(p) = self.patterns.iter().position(|p| p.positions == positions) else {
            return self.for_each_slice_scan(positions, values, visit);
        };
        let hash = hash_values(salted(self.seed, p as u64), values);
        let probe = self.patterns[p]
            .groups
            .probe(hash, |head| self.in_group(p, head, values));
        let (arity, stride) = (self.key_arity, self.patterns.len());
        let mut id = probe.1.unwrap_or(NIL);
        while id != NIL {
            let (chunk, r) = locate(id);
            let chunk = &self.chunks[chunk];
            visit(&chunk.keys[r * arity..(r + 1) * arity], chunk.vals[r]);
            id = chunk.links[r * stride + p][0];
        }
    }

    fn footprint(&self) -> StorageFootprint {
        StorageFootprint {
            entries: self.len(),
            indexes: self.patterns.len(),
            // Every live row is on exactly one list per pattern.
            index_entries: self.len() * self.patterns.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::slice_entries;
    use super::*;
    use dbring_algebra::Ring;
    use std::collections::BTreeMap;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    fn slice(
        m: &HashViewStorage,
        positions: &[usize],
        values: &[Value],
    ) -> Vec<(Vec<Value>, Number)> {
        slice_entries(m, positions, values)
    }

    #[test]
    fn get_add_and_prune() {
        let mut m = HashViewStorage::new(2);
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        m.add(key(&[1, 2]), Number::Int(5));
        m.add(key(&[1, 3]), Number::Int(7));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(5));
        assert_eq!(m.len(), 2);
        m.add(key(&[1, 2]), Number::Int(-5));
        assert_eq!(m.get(&key(&[1, 2])), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        m.add(key(&[1, 3]), Number::Int(0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.key_arity(), 2);
    }

    #[test]
    fn set_overwrites() {
        let mut m = HashViewStorage::new(1);
        m.set(key(&[1]), Number::Int(10));
        assert_eq!(m.get(&key(&[1])), Number::Int(10));
        m.set(key(&[1]), Number::Int(3));
        assert_eq!(m.get(&key(&[1])), Number::Int(3));
        m.set(key(&[1]), Number::Int(0));
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut m = HashViewStorage::new(2);
        m.add(key(&[1]), Number::Int(1));
    }

    #[test]
    fn slices_with_and_without_index() {
        let mut indexed = HashViewStorage::new(2);
        indexed.register_index(vec![0]);
        let mut scanned = HashViewStorage::new(2);
        for (a, b, v) in [(1, 10, 2), (1, 11, 3), (2, 10, 4), (2, 12, 5)] {
            indexed.add(key(&[a, b]), Number::Int(v));
            scanned.add(key(&[a, b]), Number::Int(v));
        }
        for store in [&indexed, &scanned] {
            let mut hits: Vec<i64> = slice(store, &[0], &key(&[1]))
                .iter()
                .map(|(_, v)| v.as_i64().unwrap())
                .collect();
            hits.sort_unstable();
            assert_eq!(hits, vec![2, 3]);
            assert!(slice(store, &[0], &key(&[9])).is_empty());
            // Slicing on the second position works too (scan fallback for `indexed`).
            assert_eq!(slice(store, &[1], &key(&[10])).len(), 2);
            // Empty pattern = all entries.
            assert_eq!(slice(store, &[], &[]).len(), 4);
        }
    }

    #[test]
    fn index_tracks_removals() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        m.add(key(&[1, 10]), Number::Int(2));
        m.add(key(&[1, 11]), Number::Int(3));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        m.add(key(&[1, 10]), Number::Int(-2));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 1);
        m.add(key(&[1, 11]), Number::Int(-3));
        assert!(slice(&m, &[0], &key(&[1])).is_empty());
        // Re-inserting after pruning works.
        m.add(key(&[1, 10]), Number::Int(9));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 1);
    }

    #[test]
    fn degenerate_index_patterns_are_ignored() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![]);
        m.register_index(vec![0, 1]);
        m.register_index(vec![1, 0, 1]);
        assert_eq!(m.footprint().indexes, 0);
        m.register_index(vec![1]);
        assert_eq!(m.footprint().indexes, 1);
    }

    /// Regression: registering an index *after* entries exist used to leave the index
    /// empty, silently dropping every pre-existing entry from subsequent enumerations.
    /// Registration must backfill.
    #[test]
    fn late_index_registration_backfills_existing_entries() {
        let mut m = HashViewStorage::new(2);
        m.add(key(&[1, 10]), Number::Int(2));
        m.add(key(&[1, 11]), Number::Int(3));
        m.add(key(&[2, 10]), Number::Int(4));
        m.register_index(vec![0]);
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        assert_eq!(slice(&m, &[0], &key(&[2])).len(), 1);
        // The backfilled index keeps tracking later writes and prunes.
        m.add(key(&[1, 12]), Number::Int(1));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 3);
        m.add(key(&[1, 10]), Number::Int(-2));
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        // Re-registering the same pattern is a no-op (the live index survives).
        m.register_index(vec![0]);
        assert_eq!(slice(&m, &[0], &key(&[1])).len(), 2);
        assert_eq!(m.footprint().indexes, 1);
        assert_eq!(m.footprint().index_entries, m.len());
    }

    #[test]
    fn add_ref_matches_add_including_index_maintenance() {
        let mut by_ref = HashViewStorage::new(2);
        let mut by_value = HashViewStorage::new(2);
        for m in [&mut by_ref, &mut by_value] {
            m.register_index(vec![0]);
        }
        let trace: &[(&[i64], i64)] = &[
            (&[1, 10], 2),
            (&[1, 11], 3),
            (&[1, 10], -2), // prunes
            (&[2, 10], 4),
            (&[1, 10], 7), // re-inserts after pruning
            (&[2, 10], -4),
        ];
        for (k, d) in trace {
            by_ref.add_ref(&key(k), Number::Int(*d));
            by_value.add(key(k), Number::Int(*d));
        }
        assert_eq!(by_ref.len(), by_value.len());
        assert_eq!(by_ref.to_table(), by_value.to_table());
        assert_eq!(slice(&by_ref, &[0], &key(&[1])).len(), 2);
        assert_eq!(slice(&by_ref, &[0], &key(&[2])).len(), 0);
        // Zero deltas are ignored on both paths.
        by_ref.add_ref(&key(&[5, 5]), Number::Int(0));
        assert_eq!(by_ref.get(&key(&[5, 5])), Number::Int(0));
    }

    #[test]
    fn for_each_slice_agrees_with_materialized_slices() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        for (a, b, v) in [(1, 10, 2), (1, 11, 3), (2, 10, 4)] {
            m.add(key(&[a, b]), Number::Int(v));
        }
        for (positions, values) in [
            (vec![0], key(&[1])),
            (vec![1], key(&[10])), // scan fallback
            (vec![], vec![]),      // all entries
            (vec![0], key(&[9])),  // no matches
        ] {
            let mut visited = 0usize;
            let mut sum = 0i64;
            m.for_each_slice(&positions, &values, |_, v| {
                visited += 1;
                sum += v.as_i64().unwrap();
            });
            let expected = slice(&m, &positions, &values);
            assert_eq!(visited, expected.len());
            assert_eq!(
                sum,
                expected
                    .iter()
                    .map(|(_, v)| v.as_i64().unwrap())
                    .sum::<i64>()
            );
        }
    }

    #[test]
    fn float_values_are_supported() {
        let mut m = HashViewStorage::new(1);
        m.add(key(&[1]), Number::Float(2.5));
        m.add(key(&[1]), Number::Int(1));
        assert_eq!(m.get(&key(&[1])), Number::Float(3.5));
    }

    #[test]
    fn footprint_counts_entries_and_index_entries() {
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        m.register_index(vec![1]);
        for (a, b) in [(1, 10), (1, 11), (2, 10)] {
            m.add(key(&[a, b]), Number::Int(1));
        }
        let fp = m.footprint();
        assert_eq!(fp.entries, 3);
        assert_eq!(fp.indexes, 2);
        assert_eq!(fp.index_entries, 6); // every entry appears once per index
    }

    /// The integer that, hashed last after `prefix` under `seed`, brings
    /// [`hash_values`] to `hash` — what a client who knew the seed would compute to
    /// aim keys at one probe chain. Inverts the last mixing step and the finishing
    /// round (`low` picks among the 2³² preimages).
    fn int_completing_hash(seed: u64, prefix: &[Value], hash: u32, low: u32) -> i64 {
        // Newton iteration for the inverse of an odd multiplier modulo 2⁶⁴.
        let mut inverse = HASH_MUL;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(HASH_MUL.wrapping_mul(inverse)));
        }
        let mixed = (u64::from(hash) << 32 | u64::from(low)).wrapping_mul(inverse);
        let h = mixed ^ (mixed >> 32);
        // `h = ((state ^ word) * HASH_MUL ^ 0).rotate_left(23)` for an `Int` word.
        (fold_values(seed, prefix) ^ h.rotate_right(23).wrapping_mul(inverse)) as i64
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn scan(m: &HashViewStorage, positions: &[usize], values: &[Value]) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        m.for_each_slice_scan(positions, values, |k, _| out.push(k.to_vec()));
        out.sort_unstable();
        out
    }

    #[test]
    fn int_completing_hash_aims_a_key_at_a_chosen_hash() {
        let prefix = [
            Value::str("naïve ☃ longer than eight bytes"),
            Value::Bool(true),
        ];
        for (seed, hash, low) in [(0, 0, 0), (7, u32::MAX, 1), (0x5eed, 0xdead_beef, 42)] {
            for prefix in [&prefix[..0], &prefix[..1], &prefix[..]] {
                let mut key = prefix.to_vec();
                key.push(Value::int(int_completing_hash(seed, prefix, hash, low)));
                assert_eq!(hash_values(seed, &key), hash);
            }
        }
    }

    /// A client that knew the seed could aim every key at one probe chain — of the
    /// primary table and of a pattern's group table. With the crate-private fixed
    /// seed, do exactly that: 10 000 rows `(string, x, y)` whose row hashes *and* whose
    /// `[x]` group hashes fall on eight home slots, half of them the last slots of the
    /// array so the chains wrap around; the strings come from a set of five, so the
    /// `[string]` lists are 2 000 long and rows leave them at head, middle and tail.
    /// Then random prunes and re-inserts against a model. A wrong backward-shift
    /// condition in either table loses rows or groups here (and trips the debug
    /// assertions first).
    #[test]
    fn keys_aimed_at_one_probe_chain_survive_random_prunes_with_slices_exact() {
        const SEED: u64 = 0x5eed_0bad_c0de;
        const ROWS: u32 = 10_000;
        // Low 20 bits of a stored hash: the last four and the first four slots of any
        // slot array of up to 2²⁰ slots.
        const LOW: [u32; 8] = [0xf_fffc, 0xf_fffd, 0xf_fffe, 0xf_ffff, 0, 1, 2, 3];
        let strings = ["", "é", "eight by", "naïve ☃ 数据, longer than a word", "x"];
        let target = |i: u32| (i / 8) << 20 | LOW[i as usize % 8];
        let keys: Vec<Vec<Value>> = (0..ROWS)
            .map(|i| {
                let s = Value::str(strings[i as usize % strings.len()]);
                let x = Value::int(int_completing_hash(salted(SEED, 0), &[], target(i), i));
                let prefix = [s, x];
                let y = int_completing_hash(SEED, &prefix, target(ROWS - 1 - i), i);
                let [s, x] = prefix;
                vec![s, x, Value::int(y)]
            })
            .collect();
        for key in &keys {
            assert!(LOW.contains(&(hash_values(SEED, key) & 0xf_ffff)));
            assert!(LOW.contains(&(hash_values(salted(SEED, 0), &key[1..2]) & 0xf_ffff)));
        }

        let mut m = HashViewStorage::with_seed(3, SEED);
        m.register_index(vec![1]);
        m.register_index(vec![0]);
        let mut model = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(m.add_ref(key, Number::Int(i as i64 + 1)), Number::Int(0));
            model.insert(key.clone(), Number::Int(i as i64 + 1));
        }
        assert_eq!(m.len(), ROWS as usize);
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for step in 0..ROWS {
            let i = next() as usize % keys.len();
            // Mostly prunes, some re-inserts of pruned keys, some accumulations.
            let delta = match (model.get(&keys[i]), next() % 4) {
                (Some(value), 1..) => value.neg(),
                _ => Number::Int(i as i64 + 1),
            };
            let pre = m.add_ref(&keys[i], delta);
            assert_eq!(pre, model.get(&keys[i]).copied().unwrap_or(Number::Int(0)));
            let sum = pre.add(&delta);
            if sum.is_zero() {
                model.remove(&keys[i]);
            } else {
                model.insert(keys[i].clone(), sum);
            }
            assert_eq!(m.len(), model.len());
            // Slices stay exact: the (one-row) group just touched, now and then the long lists.
            let listed = slice(&m, &[1], &keys[i][1..2]);
            let expected: Vec<_> = model.get_key_value(&keys[i]).into_iter().collect();
            assert!(listed.iter().map(|(k, v)| (k, v)).eq(expected));
            if step % 2_000 == 0 {
                for s in strings {
                    let s = [Value::str(s)];
                    let mut listed: Vec<_> = slice(&m, &[0], &s).into_iter().map(|e| e.0).collect();
                    listed.sort_unstable();
                    assert_eq!(listed, scan(&m, &[0], &s));
                }
            }
        }
        assert_eq!(m.to_table(), model);
        // And back to nothing: every remaining row leaves through the same chains.
        for (key, value) in model {
            m.add_ref(&key, value.neg());
        }
        assert!(m.is_empty());
        assert!(m.patterns.iter().all(|p| p.groups.is_empty()));
    }

    /// `for_each` walks rows in row-id order and `for_each_slice` a list, so what a
    /// visitor sees, and in which order, depends on the operations alone: two storages
    /// hashing under different seeds cannot be told apart. A `restore` onto a key that
    /// stays present overwrites in place — an aborted batch leaves the order of the
    /// keys that survive it untouched.
    #[test]
    fn enumeration_order_depends_on_the_operations_not_on_the_seed() {
        fn visits(m: &HashViewStorage) -> Vec<(Vec<Value>, Number)> {
            let mut out = Vec::new();
            m.for_each(|k, v| out.push((k.to_vec(), v)));
            for n in 0..5 {
                m.for_each_slice(&[1], &key(&[n]), |k, v| out.push((k.to_vec(), v)));
            }
            out
        }
        let mut storages = [1u64, 0xdead_beef, u64::MAX].map(|seed| {
            let mut m = HashViewStorage::with_seed(2, seed);
            m.register_index(vec![1]);
            m
        });
        let mut next = xorshift(99);
        for _ in 0..3_000 {
            let (a, n, d) = (next() % 60, next() % 5, next() % 3);
            for m in &mut storages {
                m.add_ref(&key(&[a as i64, n as i64]), Number::Int(d as i64 - 1));
            }
        }
        let expected = visits(&storages[0]);
        assert!(expected.len() > 100);
        assert!(storages.iter().all(|m| visits(m) == expected));

        // An "aborted batch": overwrite some surviving keys, then restore them.
        let m = &mut storages[0];
        for (k, v) in expected.iter().step_by(7) {
            m.add_ref(k, Number::Float(0.5));
            m.restore(k, *v);
        }
        assert_eq!(visits(m), expected);
    }

    /// Draining a large map to empty and growing it again reuses everything: the free
    /// list hands the rows back, the slot arrays never shrink, so the second growth
    /// allocates no chunk and no slot array. A clone keeps the chunk capacity too.
    #[test]
    fn regrowth_after_a_drain_allocates_no_chunk_and_no_slot_array() {
        const ROWS: i64 = 200_000;
        let capacities = |m: &HashViewStorage| {
            let chunk = |c: &Chunk| (c.keys.capacity(), c.vals.capacity(), c.links.capacity());
            let groups: Vec<usize> = m.patterns.iter().map(|p| p.groups.capacity()).collect();
            let chunks: Vec<_> = m.chunks.iter().map(chunk).collect();
            (chunks, m.index.capacity(), groups)
        };
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![1]);
        for i in 0..ROWS {
            m.add_ref(&key(&[i, i % 1_000]), Number::Int(1));
        }
        let grown = capacities(&m);
        assert_eq!(grown.0.len(), (ROWS as usize).div_ceil(CHUNK_ROWS));
        assert!(grown
            .0
            .iter()
            .all(|&c| c == (2 * CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS)));
        for i in 0..ROWS {
            m.add_ref(&key(&[i, i % 1_000]), Number::Int(-1));
        }
        assert!(m.is_empty() && m.free.len() == ROWS as usize);
        let mut clone = m.clone();
        for storage in [&mut m, &mut clone] {
            for i in 0..ROWS {
                storage.add_ref(&key(&[-i, i % 777]), Number::Int(2));
            }
            assert_eq!(storage.len(), ROWS as usize);
            assert_eq!(capacities(storage), grown);
        }
    }

    #[test]
    fn a_pruned_row_releases_its_strings() {
        let name: std::sync::Arc<str> = std::sync::Arc::from("a string key");
        let mut m = HashViewStorage::new(2);
        m.register_index(vec![0]);
        m.add(
            vec![Value::Str(name.clone()), Value::int(1)],
            Number::Int(3),
        );
        assert_eq!(std::sync::Arc::strong_count(&name), 2);
        m.restore(&[Value::Str(name.clone()), Value::int(1)], Number::Int(0));
        assert_eq!(std::sync::Arc::strong_count(&name), 1);
    }
}
