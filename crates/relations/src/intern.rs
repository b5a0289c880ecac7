//! Value interning and fixed-width keys for the ingest hot path.
//!
//! Batch normalization and executor write-buffer flushes spend most of their time
//! comparing tuples, and a [`Value`] comparison walks an enum tag, then —
//! for strings — a heap pointer. This module replaces that with a *fixed-width*
//! representation: every value encodes to one [`IVal`], a `Copy` 128-bit word packing a
//! variant tag and an order-preserving payload. Strings are mapped to dense `u32` ids by
//! an [`Interner`], so equality on `IVal` is exactly equality on `Value` and comparing a
//! key becomes a handful of branchless integer compares.
//!
//! The one wrinkle is *order*: interner ids are assigned in first-seen order, not
//! lexicographic order, so an `IVal` compare is only authoritative when no strings are
//! involved. [`KeyPool::sorted_groups`] therefore compares raw words first and falls back to the
//! interner's resolved strings only when two `Str`-tagged words differ — the common
//! integer-keyed case never touches a string, and string-keyed batches still come out in
//! exact `Value` order (the order `DeltaBatch` groups promise).
//!
//! [`KeyPool`] is the reusable flat arena the hot path sorts: encoded keys live in one
//! `Vec<IVal>` at a fixed stride, and sorting permutes a row-index vector instead of the
//! keys themselves. [`BatchNormalizer`] builds on both to normalize an update slice into
//! a [`DeltaBatch`](crate::DeltaBatch) without allocating per tuple — the scratch
//! (buckets, encoded keys, row indices, interner) persists across batches.
//!
//! The crate-internal `RowTable` is the pool's persistent sibling: the same flat
//! fixed-width rows, but kept across batches with a net multiplicity per row, deletion
//! and a seeded hash — the storage behind [`Snapshot`](crate::Snapshot).
//! [`IVal::decode`] is what lets it hand rows back. Its open-addressing core is
//! [`SlotTable`], public because the runtime's view rows, slice-group tables and undo
//! seen-set probe through the same one.

use std::collections::HashMap;
use std::sync::Arc;

use crate::value::Value;

/// Tag bits of an [`IVal`], mirroring the declaration order of [`Value`] so that
/// cross-variant comparisons agree with `Value`'s derived `Ord`.
const TAG_INT: u128 = 0;
const TAG_FLOAT: u128 = 1;
const TAG_STR: u128 = 2;
const TAG_BOOL: u128 = 3;

const SIGN_BIT: u64 = 1 << 63;

/// A fixed-width, `Copy` encoding of one [`Value`]: `(tag << 64) | payload`.
///
/// Equality on `IVal` coincides with equality on `Value` (given one [`Interner`]), and
/// the derived integer order coincides with `Value`'s order *except* between two
/// distinct strings, whose payloads are first-seen interner ids. Callers that need true
/// `Value` order on mixed data use [`KeyPool::sorted_groups`], which performs the string
/// fallback; callers on string-free data may compare `IVal`s directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IVal(u128);

impl IVal {
    /// Encodes a value, interning strings through `interner`.
    ///
    /// Payloads are order-preserving within each tag: integers are sign-flipped to
    /// unsigned, floats get the usual `total_cmp` bit transform on their canonical
    /// bits, booleans are 0/1. String payloads are interner ids (dense, first-seen
    /// order) — equal-preserving but *not* order-preserving.
    pub fn encode(value: &Value, interner: &mut Interner) -> IVal {
        match value {
            Value::Int(i) => IVal(TAG_INT << 64 | ((*i as u64) ^ SIGN_BIT) as u128),
            Value::Float(f) => {
                // Canonical bits (the OrderedF64 invariant) mapped so that unsigned
                // compare == IEEE total_cmp: flip all bits of negatives, set the sign
                // bit of non-negatives.
                let b = f.get().to_bits();
                let key = if b & SIGN_BIT != 0 { !b } else { b | SIGN_BIT };
                IVal(TAG_FLOAT << 64 | key as u128)
            }
            Value::Str(s) => IVal(TAG_STR << 64 | u64::from(interner.intern(s)) as u128),
            Value::Bool(b) => IVal(TAG_BOOL << 64 | u64::from(*b) as u128),
        }
    }

    /// Decodes the word back into the value it was encoded from — the exact inverse of
    /// [`encode`](IVal::encode) given the same `interner`. A decoded string shares the
    /// interner's `Arc` (no bytes are copied). Panics on a string id the interner
    /// never handed out, like [`Interner::resolve`].
    pub fn decode(self, interner: &Interner) -> Value {
        let payload = self.0 as u64;
        match self.0 >> 64 {
            TAG_INT => Value::Int((payload ^ SIGN_BIT) as i64),
            TAG_FLOAT => {
                let bits = if payload & SIGN_BIT != 0 {
                    payload ^ SIGN_BIT
                } else {
                    !payload
                };
                Value::float(f64::from_bits(bits))
            }
            TAG_STR => Value::Str(Arc::clone(&interner.strings[payload as usize])),
            _ => Value::Bool(payload != 0),
        }
    }

    /// Whether this word encodes a string (its payload is an interner id).
    #[inline]
    pub fn is_str(self) -> bool {
        self.0 >> 64 == TAG_STR
    }

    /// The interner id, if this word encodes a string.
    #[inline]
    pub fn str_id(self) -> Option<u32> {
        if self.is_str() {
            Some(self.0 as u64 as u32)
        } else {
            None
        }
    }

    /// The raw `(tag << 64) | payload` word.
    #[inline]
    pub fn to_bits(self) -> u128 {
        self.0
    }
}

/// Maps strings to dense `u32` ids, first-seen order, never forgetting.
///
/// Ids are stable for the interner's lifetime: `intern` returns the same id for the
/// same string forever, and [`resolve`](Interner::resolve) inverts it. The table holds
/// `Arc<str>`s, so interning an already-`Arc`ed string costs a hash lookup and (on first
/// sight) two refcount bumps — no bytes are copied.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    ids: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns a shared string, returning its dense id (allocating a new id on first
    /// sight, sharing the `Arc` rather than copying the bytes).
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(&**s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner id space exhausted");
        self.ids.insert(Arc::clone(s), id);
        self.strings.push(Arc::clone(s));
        id
    }

    /// Interns a borrowed string, copying the bytes only on first sight.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let arc: Arc<str> = Arc::from(s);
        self.intern(&arc)
    }

    /// The id of `s`, if it has been interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// The string behind an id. Panics on a dangling id — ids are never dropped, so a
    /// dangling id is a logic error.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// A [`Value::Str`] sharing the interned allocation for `s` — repeated calls with
    /// an equal string yield values backed by one `Arc`.
    pub fn value_str(&mut self, s: &str) -> Value {
        let id = self.intern_str(s);
        Value::Str(Arc::clone(&self.strings[id as usize]))
    }

    /// Number of distinct interned strings (also the next id to be assigned).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Internal-consistency check for debug assertions: the forward map and the id
    /// table must be exact inverses, with every id in range.
    pub fn is_consistent(&self) -> bool {
        self.ids.len() == self.strings.len()
            && self
                .ids
                .iter()
                .all(|(s, &id)| self.strings.get(id as usize).map(|t| &**t) == Some(&**s))
    }
}

/// Compares two encoded keys in exact [`Value`] order, falling back to resolved strings
/// only where two distinct `Str` words meet.
fn cmp_keys(a: &[IVal], b: &[IVal], interner: &Interner) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.cmp(y);
        if ord != std::cmp::Ordering::Equal {
            if let (Some(xi), Some(yi)) = (x.str_id(), y.str_id()) {
                let sord = interner.resolve(xi).cmp(interner.resolve(yi));
                debug_assert!(
                    sord != std::cmp::Ordering::Equal,
                    "distinct ids, equal strings"
                );
                return sord;
            }
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// A reusable fixed-width key consolidator: the hot-path replacement for "sort all
/// tuples, then walk equal runs".
///
/// Keys are encoded into one flat `Vec<IVal>` at stride `arity` and *deduplicated on
/// arrival* through an open-addressing scratch table (cheap multiply-rotate hashing
/// over the fixed-width words, with full-key equality on probe, so hash quality only
/// affects speed, never correctness). Each push returns a dense group id; only the
/// *distinct* keys are ever sorted — on hot-key streams that is a small fraction of
/// the tuples, which is exactly where the classic comparison sort paid the most. All
/// storage is retained across [`begin`](KeyPool::begin) calls, so the steady state
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct KeyPool {
    /// One encoded key per distinct group, stride `arity`, in first-seen order.
    enc: Vec<IVal>,
    /// Open-addressing table: `0` = empty, otherwise group id + 1. Power-of-two size.
    table: Vec<u32>,
    /// Scratch for [`sorted_groups`](KeyPool::sorted_groups).
    order: Vec<u32>,
    groups: u32,
    arity: usize,
    has_str: bool,
}

/// Multiply-rotate hash over the fixed-width words of one encoded key.
#[inline]
fn hash_key(key: &[IVal]) -> u64 {
    hash_key_seeded(0xcbf2_9ce4_8422_2325, key)
}

/// [`hash_key`] from a caller-chosen initial state.
#[inline]
fn hash_key_seeded(seed: u64, key: &[IVal]) -> u64 {
    let mut h = seed;
    for w in key {
        // Payload and tag words hashed separately (the tag word is tiny but keeps
        // cross-variant keys apart).
        let bits = w.to_bits();
        h = (h ^ bits as u64).wrapping_mul(HASH_MUL);
        h = (h ^ (bits >> 64) as u64).rotate_left(23);
    }
    h
}

impl KeyPool {
    /// A new, empty pool.
    pub fn new() -> Self {
        KeyPool::default()
    }

    /// Resets the pool for a run of at most `expected` keys of width `arity`,
    /// retaining capacity. The scratch table is sized to keep the load factor at or
    /// below one half.
    pub fn begin(&mut self, arity: usize, expected: usize) {
        self.enc.clear();
        self.groups = 0;
        self.arity = arity;
        self.has_str = false;
        let want = (expected.max(8) * 2).next_power_of_two();
        if self.table.len() < want {
            self.table.resize(want, 0);
        }
        self.table.fill(0);
    }

    /// Encodes one key and returns its dense group id: a fresh id (the current
    /// [`groups`](KeyPool::groups) count) on first sight, the existing id on a
    /// repeat. `key.len()` must equal the pool's arity.
    pub fn push_key_grouped(&mut self, key: &[Value], interner: &mut Interner) -> u32 {
        debug_assert_eq!(key.len(), self.arity);
        let arity = self.arity;
        let start = self.enc.len();
        for v in key {
            let w = IVal::encode(v, interner);
            self.has_str |= w.is_str();
            self.enc.push(w);
        }
        let mask = (self.table.len() - 1) as u64;
        let mut slot = (hash_key(&self.enc[start..]) & mask) as usize;
        loop {
            match self.table[slot] {
                0 => {
                    let g = self.groups;
                    self.table[slot] = g + 1;
                    self.groups += 1;
                    return g;
                }
                occupied => {
                    let g = (occupied - 1) as usize;
                    if self.enc[g * arity..(g + 1) * arity] == self.enc[start..start + arity] {
                        self.enc.truncate(start);
                        return occupied - 1;
                    }
                    slot = (slot + 1) & mask as usize;
                }
            }
        }
    }

    /// Number of distinct keys seen since the last [`begin`](KeyPool::begin).
    pub fn groups(&self) -> usize {
        self.groups as usize
    }

    /// The distinct group ids in ascending [`Value`] order of their keys.
    ///
    /// String-free pools sort by raw fixed-width words; pools that saw a string use
    /// the interner fallback, so the result is exact `Value` order, never id order.
    pub fn sorted_groups(&mut self, interner: &Interner) -> &[u32] {
        self.order.clear();
        self.order.extend(0..self.groups);
        let arity = self.arity;
        if arity > 0 {
            let enc = &self.enc;
            if self.has_str {
                self.order.sort_unstable_by(|&a, &b| {
                    cmp_keys(
                        &enc[a as usize * arity..(a as usize + 1) * arity],
                        &enc[b as usize * arity..(b as usize + 1) * arity],
                        interner,
                    )
                });
            } else if arity == 1 {
                self.order.sort_unstable_by_key(|&g| enc[g as usize]);
            } else {
                self.order.sort_unstable_by(|&a, &b| {
                    enc[a as usize * arity..(a as usize + 1) * arity]
                        .cmp(&enc[b as usize * arity..(b as usize + 1) * arity])
                });
            }
        }
        &self.order
    }
}

/// Rows per chunk of a flat row table (the base `RowTable` here, the runtime's view
/// rows). Chunks are allocated at this capacity once and never reallocated, so a
/// growing table copies no rows and leaves no freed copies behind (one contiguous
/// arena measured +12 % resident on the dashboard workload, E18).
pub const CHUNK_ROWS: usize = 1024;

/// One fixed-capacity run of rows: `CHUNK_ROWS × arity` words and a net multiplicity
/// per row (zero marks a free row — a live row's net is never zero).
#[derive(Debug)]
struct RowChunk {
    words: Vec<IVal>,
    nets: Vec<i64>,
}

impl RowChunk {
    fn new(arity: usize) -> Self {
        RowChunk {
            words: Vec::with_capacity(CHUNK_ROWS * arity),
            nets: Vec::with_capacity(CHUNK_ROWS),
        }
    }
}

impl Clone for RowChunk {
    fn clone(&self) -> Self {
        RowChunk {
            words: clone_with_capacity(&self.words),
            nets: clone_with_capacity(&self.nets),
        }
    }
}

/// A clone of `vec` at `vec`'s capacity: a chunk is never reallocated, and a derived
/// clone would shrink it to its length so that the next row pushed reallocates.
pub fn clone_with_capacity<T: Clone>(vec: &Vec<T>) -> Vec<T> {
    let mut clone = Vec::with_capacity(vec.capacity());
    clone.extend_from_slice(vec);
    clone
}

/// A row id as (chunk index, row index within the chunk).
#[inline]
pub fn locate(id: u32) -> (usize, usize) {
    (id as usize / CHUNK_ROWS, id as usize % CHUNK_ROWS)
}

/// The multiplier of the workspace's multiply-rotate hashes (2⁶⁴ / φ).
pub const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 32 bits a [`SlotTable`] stores per entry, cut from a 64-bit multiply-rotate
/// hash state with one xor-shift-multiply round on top, so every input bit reaches
/// the bits the home slot is taken from.
#[inline]
pub fn slot_hash(h: u64) -> u32 {
    ((h ^ (h >> 32)).wrapping_mul(HASH_MUL) >> 32) as u32
}

/// One open-addressing slot: `0` when empty, otherwise `hash << 32 | (id + 1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot(u64);

impl Slot {
    const EMPTY: Slot = Slot(0);

    fn new(id: u32, hash: u32) -> Self {
        Slot(u64::from(hash) << 32 | u64::from(id + 1))
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The id of an occupied slot.
    fn id(self) -> u32 {
        self.0 as u32 - 1
    }

    fn hash(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// The open-addressing core shared by every flat table in the workspace: a
/// power-of-two array of `(id, 32-bit hash)` slots at load ≤ ½, linear probing, and
/// *backward-shift deletion* driven by the stored hashes alone — no tombstones, and
/// nothing behind an id is read while shifting or growing. What an id names (a row,
/// the head of a list, a log entry) and how two of them compare is the caller's: a
/// probe takes the hash and an equality closure over ids.
#[derive(Clone, Debug, Default)]
pub struct SlotTable {
    slots: Vec<Slot>,
    len: usize,
}

impl SlotTable {
    /// Up to this many slots [`check`](SlotTable::check) verifies the whole table;
    /// above it, only the probe runs around the slot a mutation touched.
    pub const FULL_CHECK_SLOTS: usize = 1024;

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of the slot array (zero until the first [`reserve_one`](Self::reserve_one)).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Walks the probe run of `hash` to the slot holding the id `eq` accepts —
    /// `(slot, Some(id))` — or to the empty slot that ends the run, where
    /// [`occupy`](Self::occupy) would put it: `(slot, None)`.
    #[inline]
    pub fn probe(&self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> (usize, Option<u32>) {
        if self.slots.is_empty() {
            return (0, None);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                return (i, None);
            }
            if slot.hash() == hash && eq(slot.id()) {
                return (i, Some(slot.id()));
            }
            i = (i + 1) & mask;
        }
    }

    /// Makes room for one more entry at load ≤ ½. Growing re-seats every entry, so
    /// call this *before* the probe whose vacancy is to be occupied.
    #[inline]
    pub fn reserve_one(&mut self) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
    }

    /// Fills the vacant `slot` a probe for `hash` ended at.
    #[inline]
    pub fn occupy(&mut self, slot: usize, id: u32, hash: u32) {
        debug_assert!(self.slots[slot].is_empty());
        self.slots[slot] = Slot::new(id, hash);
        self.len += 1;
    }

    /// Points the occupied `slot` at another id with the same hash.
    #[inline]
    pub fn set_id(&mut self, slot: usize, id: u32) {
        self.slots[slot] = Slot::new(id, self.slots[slot].hash());
    }

    /// Empties `slot` and closes the gap: every later entry of the probe run whose
    /// home slot is at or before the hole moves back into it (linear probing must
    /// never meet an empty slot between an entry's home and its position). Returns
    /// the slot finally left empty.
    pub fn remove(&mut self, mut hole: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.is_empty() {
                break;
            }
            let home = slot.hash() as usize & mask;
            // Cyclic distances back from `j`: the entry may move iff the hole lies
            // on its probe path, i.e. no farther back than its home.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = Slot::EMPTY;
        self.len -= 1;
        hole
    }

    /// Empties the table in time proportional to its entries, not its capacity, given
    /// the hash of every entry: an entry lies in the occupied run that starts at its
    /// home slot, so emptying each such run up to its first empty slot reaches it.
    pub fn clear_runs(&mut self, hashes: impl IntoIterator<Item = u32>) {
        let mask = self.slots.len().wrapping_sub(1);
        for hash in hashes {
            let mut i = hash as usize & mask;
            while !self.slots[i].is_empty() {
                self.slots[i] = Slot::EMPTY;
                i = (i + 1) & mask;
            }
        }
        debug_assert!(
            self.slots.iter().all(|s| s.is_empty()),
            "a hash was missing"
        );
        self.len = 0;
    }

    /// Doubles the slot array (from 8) and re-seats every entry by its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|s| !s.is_empty()) {
            let mut i = slot.hash() as usize & mask;
            while !self.slots[i].is_empty() {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// The table invariants, for debug assertions after every mutation: load ≤ ½ and,
    /// in every probe run checked, no empty slot separates an entry from its home.
    /// `rehash(id)` is the hash `id` should be stored under, `None` if it names
    /// nothing live. Small tables are checked whole (which also shows each of the
    /// `len` entries is reachable from exactly one slot, its id below `ids`); larger
    /// ones only in the runs around slot `touched`, and `rehash` only at `touched`
    /// itself — a slot word moves whole — so a debug build stays usable at 10⁵ entries.
    pub fn check(
        &self,
        touched: usize,
        ids: usize,
        rehash: impl Fn(u32) -> Option<u32>,
    ) -> Result<(), String> {
        let len = self.slots.len();
        if len == 0 && self.len == 0 {
            return Ok(());
        }
        if !(len.is_power_of_two() && self.len * 2 <= len) {
            return Err(format!("{} entries in {len} slots", self.len));
        }
        let mask = len - 1;
        let full = len <= Self::FULL_CHECK_SLOTS;
        // Walk `count` slots forward from an empty one.
        let (first, count) = if full {
            let empty = self.slots.iter().position(|s| s.is_empty());
            (empty.expect("load ≤ ½ leaves empty slots"), len - 1)
        } else {
            let mut first = touched.wrapping_sub(1) & mask;
            while !self.slots[first].is_empty() {
                first = first.wrapping_sub(1) & mask;
            }
            let mut end = (touched + 1) & mask;
            while !self.slots[end].is_empty() {
                end = (end + 1) & mask;
            }
            (first, end.wrapping_sub(first) & mask)
        };
        let mut seen = vec![false; if full { ids } else { 0 }];
        let mut entries = 0;
        let mut run_start = first;
        for k in 1..=count {
            let j = (first + k) & mask;
            let slot = self.slots[j];
            if slot.is_empty() {
                run_start = j;
                continue;
            }
            entries += 1;
            if full || j == touched {
                match rehash(slot.id()) {
                    None => return Err(format!("slot {j} points at a dead id")),
                    Some(hash) if hash != slot.hash() => {
                        return Err(format!("slot {j}: stored hash differs from the id's"));
                    }
                    Some(_) => {}
                }
            }
            let home = slot.hash() as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(run_start) & mask) {
                return Err(format!(
                    "slot {j}: empty slot between home {home} and entry"
                ));
            }
            if full
                && seen
                    .get_mut(slot.id() as usize)
                    .is_none_or(|seen| std::mem::replace(seen, true))
            {
                return Err(format!("id {} is out of range or linked twice", slot.id()));
            }
        }
        if full && entries != self.len {
            return Err(format!("{entries} linked entries, {} counted", self.len));
        }
        Ok(())
    }

    /// Distinct home slots of the entries at the current slot-array length.
    #[cfg(test)]
    pub(crate) fn distinct_homes(&self) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let homes: std::collections::HashSet<usize> = self
            .slots
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.hash() as usize & mask)
            .collect();
        homes.len()
    }
}

/// The persistent sibling of [`KeyPool`]: a set of encoded rows of one arity with a
/// net multiplicity each, kept across batches rather than reset per run.
///
/// Rows live as [`IVal`] words at stride `arity` in fixed-size chunks and a
/// [`SlotTable`] finds them. A row whose net reaches zero leaves the slot table and
/// its id goes on a free list, so a net-zero churn stream reaches a steady state that
/// allocates nothing. Rows compare as raw words: membership needs equality, which
/// [`IVal`] preserves exactly, not `Value` order. The hash is [`hash_key`] started
/// from a caller-supplied seed, so rows that share a probe chain under one seed do
/// not under another.
#[derive(Clone, Debug)]
pub(crate) struct RowTable {
    arity: usize,
    seed: u64,
    chunks: Vec<RowChunk>,
    /// Rows carved out of the chunks so far (live + free).
    allocated: usize,
    /// Ids of carved rows that are currently unused, reused last-freed first.
    free: Vec<u32>,
    index: SlotTable,
}

impl RowTable {
    /// An empty table for rows of `arity` words; allocates nothing until the first row.
    pub(crate) fn new(arity: usize, seed: u64) -> Self {
        RowTable {
            arity,
            seed,
            chunks: Vec::new(),
            allocated: 0,
            free: Vec::new(),
            index: SlotTable::default(),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live rows (rows with a non-zero net multiplicity).
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Rows the allocated chunks hold without allocating another.
    pub(crate) fn row_capacity(&self) -> usize {
        self.chunks.len() * CHUNK_ROWS
    }

    /// Length of the slot array.
    pub(crate) fn slots(&self) -> usize {
        self.index.capacity()
    }

    /// Heap bytes owned: row chunks at full capacity, slot array, free list.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_capacity() * (self.arity * size_of::<IVal>() + size_of::<i64>())
            + self.index.capacity() * size_of::<Slot>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// The live rows with their net multiplicities, in storage order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[IVal], i64)> {
        let arity = self.arity;
        self.chunks.iter().flat_map(move |chunk| {
            chunk
                .nets
                .iter()
                .enumerate()
                .filter(|(_, &net)| net != 0)
                .map(move |(r, &net)| (&chunk.words[r * arity..(r + 1) * arity], net))
        })
    }

    #[inline]
    fn row_hash(&self, row: &[IVal]) -> u32 {
        slot_hash(hash_key_seeded(self.seed, row))
    }

    #[inline]
    fn row(&self, id: u32) -> &[IVal] {
        let (chunk, r) = locate(id);
        &self.chunks[chunk].words[r * self.arity..(r + 1) * self.arity]
    }

    /// Adds `delta` to the net multiplicity of `row` (`row.len()` must equal the
    /// table's arity): a new row is stored on first sight, a row whose net reaches
    /// zero is removed. A zero `delta` is a no-op.
    pub(crate) fn add(&mut self, row: &[IVal], delta: i64) {
        debug_assert_eq!(row.len(), self.arity);
        if delta == 0 {
            return;
        }
        self.index.reserve_one();
        let hash = self.row_hash(row);
        let touched = match self.index.probe(hash, |id| self.row(id) == row) {
            (slot, None) => {
                let id = self.alloc_row(row, delta);
                self.index.occupy(slot, id, hash);
                slot
            }
            (slot, Some(id)) => {
                let (chunk, r) = locate(id);
                let net = &mut self.chunks[chunk].nets[r];
                *net += delta;
                if *net == 0 {
                    self.free.push(id);
                    self.index.remove(slot)
                } else {
                    slot
                }
            }
        };
        debug_assert_eq!(self.check(touched), Ok(()));
    }

    /// Stores a new row, reusing a freed id before carving a fresh one.
    fn alloc_row(&mut self, row: &[IVal], net: i64) -> u32 {
        let arity = self.arity;
        if let Some(id) = self.free.pop() {
            let (chunk, r) = locate(id);
            let chunk = &mut self.chunks[chunk];
            chunk.words[r * arity..(r + 1) * arity].copy_from_slice(row);
            chunk.nets[r] = net;
            return id;
        }
        // Slots store `id + 1` in 32 bits.
        assert!(self.allocated < u32::MAX as usize, "row id space exhausted");
        let id = self.allocated as u32;
        if self.allocated == self.chunks.len() * CHUNK_ROWS {
            self.chunks.push(RowChunk::new(arity));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room exists");
        chunk.words.extend_from_slice(row);
        chunk.nets.push(net);
        self.allocated += 1;
        id
    }

    /// The table invariants, for debug assertions after every mutation: the counters
    /// add up (`live + free == allocated`) and the slot table's own invariants hold
    /// with every linked row live and stored under its row's hash.
    fn check(&self, touched: usize) -> Result<(), String> {
        if self.index.len() + self.free.len() != self.allocated {
            return Err(format!(
                "live {} + free {} != allocated {}",
                self.index.len(),
                self.free.len(),
                self.allocated
            ));
        }
        self.index.check(touched, self.allocated, |id| {
            let (chunk, r) = locate(id);
            let live = self.chunks.get(chunk)?.nets.get(r).is_some_and(|&n| n != 0);
            live.then(|| self.row_hash(self.row(id)))
        })
    }
}

#[cfg(test)]
impl RowTable {
    /// Distinct home slots of the live rows at the current slot-array length.
    pub(crate) fn distinct_homes(&self) -> usize {
        self.index.distinct_homes()
    }
}

/// Test support: the integer whose one-column row has `row_hash == hash` under
/// `seed` — what a client who knew the seed would compute to aim rows at one probe
/// chain. Inverts [`RowTable::row_hash`] step by step (`low` picks among the 2³²
/// preimages).
#[cfg(test)]
pub(crate) fn int_with_row_hash(seed: u64, hash: u32, low: u32) -> i64 {
    // Newton iteration for the inverse of an odd multiplier modulo 2⁶⁴.
    let mut inverse = HASH_MUL;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(HASH_MUL.wrapping_mul(inverse)));
    }
    let mixed = (u64::from(hash) << 32 | u64::from(low)).wrapping_mul(inverse);
    let h = mixed ^ (mixed >> 32);
    // `h = ((seed ^ payload) * HASH_MUL ^ TAG_INT).rotate_left(23)`, and TAG_INT is 0.
    let payload = seed ^ h.rotate_right(23).wrapping_mul(inverse);
    (payload ^ SIGN_BIT) as i64
}

/// Scratch slot for one relation's updates within a batch (indices into the update
/// slice, so the scratch outlives any particular batch's borrow).
#[derive(Clone, Debug, Default)]
struct NormBucket {
    rel: u32,
    first: u32,
    rows: Vec<u32>,
}

/// Reusable batch normalizer: produces exactly what
/// [`DeltaBatch::from_updates`](crate::DeltaBatch::from_updates) produces, but on
/// interned fixed-width keys and with all scratch (relation ids, buckets, key pool,
/// interner) persisting across batches.
///
/// Per batch it performs one bucketing pass (relation names resolved once per *run* of
/// equal names via a memo, then a persistent name→id map — not per-update string
/// compares), then one encode-and-consolidate pass per relation through the
/// [`KeyPool`]'s scratch hash table, so only the *distinct* keys are sorted — on
/// hot-key streams that is a small fraction of the tuples. Buckets of non-uniform
/// arity (malformed streams that the executors reject later) fall back to the
/// reference comparison sort so behavior is bit-identical to the classic path.
#[derive(Clone, Debug, Default)]
pub struct BatchNormalizer {
    interner: Interner,
    rel_ids: HashMap<String, u32>,
    bucket_of: Vec<Option<u32>>,
    buckets: Vec<NormBucket>,
    pool: KeyPool,
    /// Per-group net multiplicity, indexed by the pool's group ids.
    nets: Vec<i64>,
    /// Per-group representative update index (first occurrence of the key).
    reps: Vec<u32>,
}

impl BatchNormalizer {
    /// A new normalizer with empty scratch.
    pub fn new() -> Self {
        BatchNormalizer::default()
    }

    /// The interner accumulated over every normalized batch (string ids are stable for
    /// the normalizer's lifetime).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Normalizes `updates` into a [`DeltaBatch`](crate::DeltaBatch) borrowing only
    /// from `updates`; equivalent to `DeltaBatch::from_updates(updates)`.
    pub fn normalize<'a>(
        &mut self,
        updates: &'a [crate::database::Update],
    ) -> crate::DeltaBatch<'a> {
        let mut active = 0usize;
        // Bucket by relation: a memo catches runs of one relation (the overwhelmingly
        // common stream shape), the persistent map catches everything else with one
        // hash lookup instead of per-update string compares.
        let mut memo: Option<(&'a str, usize)> = None;
        for (i, update) in updates.iter().enumerate() {
            if update.multiplicity == 0 {
                continue;
            }
            let slot = match memo {
                Some((name, slot)) if name == update.relation => slot,
                _ => {
                    let rid = match self.rel_ids.get(update.relation.as_str()) {
                        Some(&r) => r,
                        None => {
                            let r = u32::try_from(self.rel_ids.len())
                                .expect("relation id space exhausted");
                            self.rel_ids.insert(update.relation.clone(), r);
                            r
                        }
                    };
                    if rid as usize >= self.bucket_of.len() {
                        self.bucket_of.resize(rid as usize + 1, None);
                    }
                    let slot = match self.bucket_of[rid as usize] {
                        Some(slot) => slot as usize,
                        None => {
                            let slot = active;
                            if slot == self.buckets.len() {
                                self.buckets.push(NormBucket::default());
                            }
                            let b = &mut self.buckets[slot];
                            b.rel = rid;
                            b.first = i as u32;
                            b.rows.clear();
                            self.bucket_of[rid as usize] = Some(slot as u32);
                            active += 1;
                            slot
                        }
                    };
                    memo = Some((update.relation.as_str(), slot));
                    slot
                }
            };
            self.buckets[slot].rows.push(i as u32);
        }
        // Groups come out in ascending relation-name order.
        self.buckets[..active].sort_unstable_by(|a, b| {
            updates[a.first as usize]
                .relation
                .cmp(&updates[b.first as usize].relation)
        });
        let mut groups = Vec::new();
        for bucket in &mut self.buckets[..active] {
            let relation: &'a str = updates[bucket.first as usize].relation.as_str();
            let arity = updates[bucket.rows[0] as usize].values.len();
            let uniform = bucket
                .rows
                .iter()
                .all(|&r| updates[r as usize].values.len() == arity);
            let mut inserts: Vec<(&'a [Value], i64)> = Vec::new();
            let mut deletes: Vec<(&'a [Value], i64)> = Vec::new();
            if uniform {
                // Consolidate while pushing: duplicates collapse into the group's net
                // multiplicity on arrival, and only the distinct keys get sorted.
                self.pool.begin(arity, bucket.rows.len());
                self.nets.clear();
                self.reps.clear();
                for &r in &bucket.rows {
                    let u = &updates[r as usize];
                    let g = self.pool.push_key_grouped(&u.values, &mut self.interner) as usize;
                    if g == self.nets.len() {
                        self.nets.push(0);
                        self.reps.push(r);
                    }
                    self.nets[g] += u.multiplicity;
                }
                for &g in self.pool.sorted_groups(&self.interner) {
                    let net = self.nets[g as usize];
                    let values = updates[self.reps[g as usize] as usize].values.as_slice();
                    match net.cmp(&0) {
                        std::cmp::Ordering::Greater => inserts.push((values, net)),
                        std::cmp::Ordering::Less => deletes.push((values, -net)),
                        std::cmp::Ordering::Equal => {}
                    }
                }
            } else {
                // Mixed arity within one relation: malformed input the executors will
                // reject; take the classic comparison sort so the batch is identical.
                let mut refs: Vec<&'a crate::database::Update> =
                    bucket.rows.iter().map(|&r| &updates[r as usize]).collect();
                refs.sort_unstable_by(|a, b| a.values.cmp(&b.values));
                let mut i = 0usize;
                while i < refs.len() {
                    let values = refs[i].values.as_slice();
                    let mut net = 0i64;
                    while i < refs.len() && refs[i].values == values {
                        net += refs[i].multiplicity;
                        i += 1;
                    }
                    match net.cmp(&0) {
                        std::cmp::Ordering::Greater => inserts.push((values, net)),
                        std::cmp::Ordering::Less => deletes.push((values, -net)),
                        std::cmp::Ordering::Equal => {}
                    }
                }
            }
            bucket.rows.clear();
            self.bucket_of[bucket.rel as usize] = None;
            if !inserts.is_empty() {
                groups.push(crate::batch::DeltaGroup::new(relation, true, inserts));
            }
            if !deletes.is_empty() {
                groups.push(crate::batch::DeltaGroup::new(relation, false, deletes));
            }
        }
        crate::batch::DeltaBatch::from_groups(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Update;
    use crate::DeltaBatch;

    #[test]
    fn ival_order_matches_value_order_without_strings() {
        let mut interner = Interner::new();
        let mut values = vec![
            Value::int(-3),
            Value::int(0),
            Value::int(7),
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::float(-1.5),
            Value::float(0.0),
            Value::float(-0.0),
            Value::float(f64::NEG_INFINITY),
            Value::float(f64::INFINITY),
            Value::float(f64::NAN),
            Value::Bool(false),
            Value::Bool(true),
        ];
        values.sort();
        let encoded: Vec<IVal> = values
            .iter()
            .map(|v| IVal::encode(v, &mut interner))
            .collect();
        let mut resorted = encoded.clone();
        resorted.sort();
        assert_eq!(encoded, resorted, "IVal order must match Value order");
        // Equality is exact both ways.
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                assert_eq!(
                    a == b,
                    encoded[i] == encoded[j],
                    "equality mismatch between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn decode_inverts_encode_on_every_variant_and_edge_value() {
        let mut interner = Interner::new();
        let long = "x".repeat(10_000);
        let values = [
            Value::int(0),
            Value::int(-1),
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::float(0.0),
            Value::float(-0.0),
            Value::float(f64::NAN),
            Value::float(-f64::NAN),
            Value::float(f64::INFINITY),
            Value::float(f64::NEG_INFINITY),
            Value::float(f64::MIN_POSITIVE / 4.0),
            Value::float(-f64::from_bits(1)),
            Value::float(f64::MAX),
            Value::float(-2.25),
            Value::str(""),
            Value::str("naïve ☃ 数据"),
            Value::str(&long),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for value in &values {
            let word = IVal::encode(value, &mut interner);
            assert_eq!(&word.decode(&interner), value, "{value}");
        }
        // -0.0 and every NaN were canonicalized before they were encoded.
        let zero = IVal::encode(&Value::float(-0.0), &mut interner).decode(&interner);
        assert_eq!(zero, Value::float(0.0));
        // A decoded string is the interner's allocation, not a copy of it.
        let word = IVal::encode(&Value::str(&long), &mut interner);
        match (word.decode(&interner), word.decode(&interner)) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(&a, &b)),
            other => panic!("expected two strings, got {other:?}"),
        }
    }

    #[test]
    fn int_with_row_hash_aims_a_row_at_a_chosen_hash() {
        for (seed, hash, low) in [(0, 0, 0), (7, u32::MAX, 1), (0x5eed, 0xdead_beef, 42)] {
            let table = RowTable::new(1, seed);
            let key = int_with_row_hash(seed, hash, low);
            let row = [IVal::encode(&Value::int(key), &mut Interner::new())];
            assert_eq!(table.row_hash(&row), hash);
        }
    }

    #[test]
    fn interner_ids_are_dense_and_stable() {
        let mut interner = Interner::new();
        let a = interner.intern_str("alpha");
        let b = interner.intern_str("beta");
        assert_eq!((a, b), (0, 1));
        assert_eq!(interner.intern_str("alpha"), 0);
        assert_eq!(interner.resolve(1), "beta");
        assert_eq!(interner.get("beta"), Some(1));
        assert_eq!(interner.get("gamma"), None);
        assert_eq!(interner.len(), 2);
        assert!(interner.is_consistent());
        // value_str shares one allocation across equal strings.
        let v1 = interner.value_str("alpha");
        let v2 = interner.value_str("alpha");
        match (&v1, &v2) {
            (Value::Str(s1), Value::Str(s2)) => assert!(Arc::ptr_eq(s1, s2)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn string_keys_sort_in_value_order_not_id_order() {
        // Intern "zeta" first so id order disagrees with lexicographic order.
        let mut normalizer = BatchNormalizer::new();
        let warmup = [Update::insert("T", vec![Value::str("zeta")])];
        let _ = normalizer.normalize(&warmup);
        let updates = [
            Update::insert("T", vec![Value::str("zeta")]),
            Update::insert("T", vec![Value::str("alpha")]),
            Update::insert("T", vec![Value::str("mid")]),
        ];
        let batch = normalizer.normalize(&updates);
        assert_eq!(batch, DeltaBatch::from_updates(&updates));
        let keys: Vec<&str> = batch.groups()[0]
            .deltas()
            .iter()
            .map(|(k, _)| k[0].as_str().unwrap())
            .collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn normalizer_matches_classic_path_on_mixed_batches() {
        let mut normalizer = BatchNormalizer::new();
        let mut big_del = Update::delete("R", vec![Value::int(7), Value::str("x")]);
        big_del.multiplicity = -3;
        let mut zero = Update::insert("S", vec![Value::Bool(true)]);
        zero.multiplicity = 0;
        let updates = vec![
            Update::insert("R", vec![Value::int(7), Value::str("x")]),
            big_del,
            Update::insert("S", vec![Value::float(2.5)]),
            zero,
            Update::delete("S", vec![Value::float(2.5)]),
            Update::insert("R", vec![Value::int(1), Value::str("y")]),
            Update::insert("A", vec![]),
            Update::insert("A", vec![]),
        ];
        let batch = normalizer.normalize(&updates);
        assert_eq!(batch, DeltaBatch::from_updates(&updates));
        // Scratch reuse: a second, different batch through the same normalizer.
        let updates2 = vec![
            Update::insert("S", vec![Value::float(0.25)]),
            Update::insert("R", vec![Value::int(1), Value::str("y")]),
        ];
        assert_eq!(
            normalizer.normalize(&updates2),
            DeltaBatch::from_updates(&updates2)
        );
        assert!(normalizer.interner().is_consistent());
    }

    #[test]
    fn mixed_arity_bucket_falls_back_to_classic_sort() {
        let mut normalizer = BatchNormalizer::new();
        let updates = vec![
            Update::insert("R", vec![Value::int(2), Value::int(9)]),
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("R", vec![Value::int(2)]),
        ];
        assert_eq!(
            normalizer.normalize(&updates),
            DeltaBatch::from_updates(&updates)
        );
    }

    #[test]
    fn key_pool_groups_duplicates_and_sorts_distinct_keys() {
        let mut interner = Interner::new();
        let mut pool = KeyPool::new();
        pool.begin(2, 4);
        let keys = [
            vec![Value::int(5), Value::int(1)],
            vec![Value::int(3), Value::int(2)],
            vec![Value::int(5), Value::int(1)],
            vec![Value::int(3), Value::int(0)],
        ];
        let groups: Vec<u32> = keys
            .iter()
            .map(|k| pool.push_key_grouped(k, &mut interner))
            .collect();
        // Duplicates collapse onto first-seen group ids.
        assert_eq!(groups, vec![0, 1, 0, 2]);
        assert_eq!(pool.groups(), 3);
        // Sorted output is ascending Value order of the distinct keys:
        // (3,0) < (3,2) < (5,1).
        assert_eq!(pool.sorted_groups(&interner), &[2, 1, 0]);

        // A reused pool forgets previous groups entirely.
        pool.begin(1, 2);
        assert_eq!(pool.push_key_grouped(&[Value::int(5)], &mut interner), 0);
        assert_eq!(pool.push_key_grouped(&[Value::int(5)], &mut interner), 0);
        assert_eq!(pool.groups(), 1);
    }
}
