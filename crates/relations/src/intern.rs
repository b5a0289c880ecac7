//! Key grouping for the ingest path, and the flat tables behind it.
//!
//! Batch normalization and executor write-buffer flushes consolidate keys: equal keys
//! collapse into one group, and the distinct keys come out in the order they were
//! first seen. A batch is one delta of the ring (a Z-set): its deltas commute, so no
//! consumer needs its keys in [`Value`] order, and only publication sorts
//! (`dbring-runtime`'s snapshots). [`KeyPool`] groups the keys where they already
//! are — an update slice, a flat write buffer — by the seeded [`hash_values`] with
//! `Value` equality. [`BatchNormalizer`] builds on it to normalize an update slice
//! into a [`DeltaBatch`](crate::DeltaBatch) with all scratch (buckets, pool, nets)
//! persisting across batches.
//!
//! [`SlotTable`] is the open-addressing core of every flat table in the workspace: the
//! pool's groups, the runtime's view rows, slice-group tables and undo seen-set. The
//! crate-internal `RowTable` is the base [`Snapshot`](crate::Snapshot)'s row store:
//! rows of fixed-width `IVal` words whose strings are ids of the snapshot's
//! reference-counted `Interner`, kept across batches with a net multiplicity each.

use std::collections::HashMap;
use std::sync::Arc;

use crate::value::{hash_values, random_seed, Value};

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
/// distinct strings, whose payloads are interner ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct IVal(u128);

impl IVal {
    /// Encodes a value, interning strings through `interner`.
    ///
    /// Payloads are order-preserving within each tag: integers are sign-flipped to
    /// unsigned, floats get the usual `total_cmp` bit transform on their canonical
    /// bits, booleans are 0/1. String payloads are interner ids — equal-preserving but
    /// *not* order-preserving.
    pub(crate) fn encode(value: &Value, interner: &mut Interner) -> IVal {
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
    /// does not hold.
    pub(crate) fn decode(self, interner: &Interner) -> Value {
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
            TAG_STR => Value::Str(Arc::clone(interner.resolve(payload as u32))),
            _ => Value::Bool(payload != 0),
        }
    }

    /// The interner id, if this word encodes a string.
    #[inline]
    pub(crate) fn str_id(self) -> Option<u32> {
        (self.0 >> 64 == TAG_STR).then_some(self.0 as u64 as u32)
    }

    /// The raw `(tag << 64) | payload` word.
    #[inline]
    fn to_bits(self) -> u128 {
        self.0
    }
}

/// Maps strings to `u32` ids and counts the references to each.
///
/// [`intern`](Interner::intern) hands out an id with no references; the caller takes
/// them with [`retain`](Interner::retain) and drops them with
/// [`release`](Interner::release). An id whose count returns to zero leaves the map
/// and its slot is reused by the next new string, so a stream of strings that all
/// die again leaves the interner as it found it. The table holds `Arc<str>`s, so
/// interning an already-`Arc`ed string copies no bytes.
#[derive(Clone, Debug, Default)]
pub(crate) struct Interner {
    ids: HashMap<Arc<str>, u32>,
    /// Per id: its string (`None` while the id is free) and its reference count.
    strings: Vec<(Option<Arc<str>>, u32)>,
    /// Ids whose count fell to zero, reused last-freed first.
    free: Vec<u32>,
}

impl Interner {
    /// The id of `s`, assigning one (with no references) on first sight.
    pub(crate) fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(&**s) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.strings[id as usize].0 = Some(Arc::clone(s));
                id
            }
            None => {
                let id = u32::try_from(self.strings.len()).expect("interner id space exhausted");
                self.strings.push((Some(Arc::clone(s)), 0));
                id
            }
        };
        self.ids.insert(Arc::clone(s), id);
        id
    }

    /// The string behind a live id. Panics on a free or unknown id.
    pub(crate) fn resolve(&self, id: u32) -> &Arc<str> {
        self.strings[id as usize]
            .0
            .as_ref()
            .expect("a live interner id")
    }

    /// Takes one reference on `id`.
    pub(crate) fn retain(&mut self, id: u32) {
        self.strings[id as usize].1 += 1;
    }

    /// Drops one reference on `id`; the last one frees the id.
    pub(crate) fn release(&mut self, id: u32) {
        let (string, refs) = &mut self.strings[id as usize];
        *refs -= 1;
        if *refs == 0 {
            let string = string.take().expect("a live interner id");
            self.ids.remove(&string);
            self.free.push(id);
        }
    }

    /// Number of live strings.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The interner's invariants, for debug assertions after every change: every id
    /// is live or free, and each `touched` id is either live — referenced, and the
    /// map leads back to it — or free with no references and no string.
    pub(crate) fn check(&self, touched: impl IntoIterator<Item = u32>) -> Result<(), String> {
        if self.ids.len() + self.free.len() != self.strings.len() {
            return Err(format!(
                "live {} + free {} != ids {}",
                self.ids.len(),
                self.free.len(),
                self.strings.len()
            ));
        }
        for id in touched {
            match &self.strings[id as usize] {
                (Some(s), refs) if *refs > 0 && self.ids.get(s) == Some(&id) => {}
                (None, 0) => {}
                other => return Err(format!("id {id} holds {other:?}")),
            }
        }
        Ok(())
    }
}

/// Groups rows of a borrowed key source by key, numbering the groups in the order
/// their keys were first seen: the consolidation step of batch normalization and of
/// every write-buffer flush.
///
/// A row is a `u32` the caller resolves to its key (an index into an update slice, a
/// row of a flat buffer); the pool stores no key, only each group's first row and
/// hash. Rows are grouped by the seeded [`hash_values`] — the seed is drawn per pool,
/// since keys arrive from clients — with `Value` equality on every probe, so the hash
/// decides speed, never grouping, and the group numbers depend only on the sequence
/// of keys pushed, whatever the seed. All storage is retained across
/// [`clear`](KeyPool::clear) calls, so the steady state allocates nothing.
#[derive(Clone, Debug)]
pub struct KeyPool {
    seed: u64,
    index: SlotTable,
    /// Per group, in first-seen order: the first row that carried its key.
    firsts: Vec<u32>,
    /// Per group: its key's hash, so that [`clear`](KeyPool::clear) empties only the
    /// runs that hold groups.
    hashes: Vec<u32>,
}

impl Default for KeyPool {
    fn default() -> Self {
        KeyPool::with_seed(random_seed())
    }
}

impl KeyPool {
    /// A new, empty pool with a freshly drawn hash seed.
    pub fn new() -> Self {
        KeyPool::default()
    }

    /// An empty pool with a chosen hash seed, so a test can aim keys at one probe run.
    fn with_seed(seed: u64) -> Self {
        KeyPool {
            seed,
            index: SlotTable::default(),
            firsts: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Forgets every group, retaining capacity, before the rows of another source.
    pub fn clear(&mut self) {
        self.index.clear_runs(self.hashes.drain(..));
        self.firsts.clear();
    }

    /// The group of `row`, whose key is `key(row)`: a new group — numbered by the
    /// groups seen so far, so `row` becomes its entry in [`firsts`](KeyPool::firsts)
    /// — the first time the key is seen since the last [`clear`](KeyPool::clear),
    /// the earlier group on a repeat. `key` must resolve every row pushed since then.
    #[inline]
    pub fn push<'k>(&mut self, row: u32, key: impl Fn(u32) -> &'k [Value]) -> u32 {
        let wanted = key(row);
        let hash = hash_values(self.seed, wanted);
        self.index.reserve_one();
        let firsts = &self.firsts;
        match self
            .index
            .probe(hash, |g| key(firsts[g as usize]) == wanted)
        {
            (_, Some(group)) => group,
            (slot, None) => {
                let group = u32::try_from(firsts.len()).expect("group id space exhausted");
                self.index.occupy(slot, group, hash);
                self.firsts.push(row);
                self.hashes.push(hash);
                group
            }
        }
    }

    /// Each group's first row, indexed by group: the distinct keys in the order
    /// they were first seen since the last [`clear`](KeyPool::clear).
    pub fn firsts(&self) -> &[u32] {
        &self.firsts
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

/// A set of encoded rows of one arity with a net multiplicity each, kept across
/// batches: the base [`Snapshot`](crate::Snapshot)'s row store.
///
/// Rows live as [`IVal`] words at stride `arity` in fixed-size chunks and a
/// [`SlotTable`] finds them. A row whose net reaches zero leaves the slot table and
/// its id goes on a free list, so a net-zero churn stream reaches a steady state that
/// allocates nothing. Rows compare as raw words: membership needs equality, which
/// [`IVal`] preserves exactly, not `Value` order. The hash ([`hash_row`]) starts from
/// a caller-supplied seed, so rows that share a probe chain under one seed do not
/// under another.
/// Multiply-rotate hash over the fixed-width words of one encoded row, from `seed`.
#[inline]
fn hash_row(seed: u64, row: &[IVal]) -> u64 {
    row.iter().fold(seed, |h, w| {
        // Payload and tag words hashed separately (the tag word is tiny but keeps
        // cross-variant rows apart).
        let bits = w.to_bits();
        (((h ^ bits as u64).wrapping_mul(HASH_MUL)) ^ (bits >> 64) as u64).rotate_left(23)
    })
}

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
        slot_hash(hash_row(self.seed, row))
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
/// [`DeltaBatch::from_updates`](crate::DeltaBatch::from_updates) produces, with all
/// scratch (relation ids, buckets, key pool, nets) persisting across batches.
///
/// Per batch it performs one bucketing pass (relation names resolved once per *run* of
/// equal names via a memo, then a persistent name→id map — not per-update string
/// compares), then one consolidation pass per relation through the [`KeyPool`], which
/// groups the updates' own key slices; each group's keys come out in the order of
/// their first update. Keys of different lengths in one relation (malformed streams
/// that the executors reject later) group like any others, since slice equality
/// covers them.
#[derive(Clone, Debug, Default)]
pub struct BatchNormalizer {
    rel_ids: HashMap<String, u32>,
    bucket_of: Vec<Option<u32>>,
    buckets: Vec<NormBucket>,
    pool: KeyPool,
    /// Per-group net multiplicity, indexed by the pool's group ids.
    nets: Vec<i64>,
}

impl BatchNormalizer {
    /// A new normalizer with empty scratch.
    pub fn new() -> Self {
        BatchNormalizer::default()
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
            let key = |r: u32| updates[r as usize].values.as_slice();
            // Consolidate while pushing: duplicates collapse into the group's net
            // multiplicity on arrival, and the groups keep their first-seen order.
            self.pool.clear();
            self.nets.clear();
            for &r in &bucket.rows {
                let g = self.pool.push(r, key) as usize;
                if g == self.nets.len() {
                    self.nets.push(0);
                }
                self.nets[g] += updates[r as usize].multiplicity;
            }
            let mut inserts: Vec<(&'a [Value], i64)> = Vec::new();
            let mut deletes: Vec<(&'a [Value], i64)> = Vec::new();
            for (&r, &net) in self.pool.firsts().iter().zip(&self.nets) {
                match net.cmp(&0) {
                    std::cmp::Ordering::Greater => inserts.push((key(r), net)),
                    std::cmp::Ordering::Less => deletes.push((key(r), -net)),
                    std::cmp::Ordering::Equal => {}
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
    use proptest::prelude::*;

    #[test]
    fn ival_order_matches_value_order_without_strings() {
        let mut interner = Interner::default();
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
        let mut interner = Interner::default();
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

    proptest! {
        #[test]
        fn decode_inverts_encode(
            ints in prop::collection::vec(any::<i64>(), 0..8),
            float_bits in prop::collection::vec(any::<u64>(), 0..8),
            strings in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 0..6),
            flag in any::<bool>(),
        ) {
            let mut values: Vec<Value> = ints.into_iter().map(Value::int).collect();
            values.extend(float_bits.into_iter().map(|bits| Value::float(f64::from_bits(bits))));
            values.extend(strings.into_iter().map(|codes| {
                let s: String = codes.into_iter().filter_map(char::from_u32).collect();
                Value::str(s)
            }));
            values.push(Value::Bool(flag));
            let mut interner = Interner::default();
            let words: Vec<IVal> = values.iter().map(|v| IVal::encode(v, &mut interner)).collect();
            for (word, value) in words.iter().zip(&values) {
                prop_assert_eq!(&word.decode(&interner), value);
            }
        }
    }

    #[test]
    fn int_with_row_hash_aims_a_row_at_a_chosen_hash() {
        for (seed, hash, low) in [(0, 0, 0), (7, u32::MAX, 1), (0x5eed, 0xdead_beef, 42)] {
            let table = RowTable::new(1, seed);
            let key = int_with_row_hash(seed, hash, low);
            let row = [IVal::encode(&Value::int(key), &mut Interner::default())];
            assert_eq!(table.row_hash(&row), hash);
        }
    }

    #[test]
    fn an_id_leaves_with_its_last_reference_and_its_slot_is_reused() {
        let mut interner = Interner::default();
        let alpha: Arc<str> = Arc::from("alpha");
        let beta: Arc<str> = Arc::from("beta");
        let a = interner.intern(&alpha);
        interner.retain(a);
        interner.retain(a);
        let b = interner.intern(&beta);
        interner.retain(b);
        assert_eq!(interner.intern(&Arc::from("alpha")), a);
        assert_eq!((interner.len(), interner.check([a, b])), (2, Ok(())));
        interner.release(a);
        assert_eq!(&**interner.resolve(a), "alpha", "one reference is left");
        interner.release(a);
        assert_eq!((interner.len(), interner.check([a, b])), (1, Ok(())));
        // The freed id serves the next new string; the live one is untouched.
        let gamma = interner.intern(&Arc::from("gamma"));
        interner.retain(gamma);
        assert_eq!(gamma, a);
        assert_eq!(&**interner.resolve(b), "beta");
        interner.release(b);
        interner.release(gamma);
        assert_eq!((interner.len(), interner.check([a, b])), (0, Ok(())));
    }

    #[test]
    fn string_keys_keep_arrival_order_not_value_order() {
        // Arrival order disagrees with lexicographic order, and a warm-up batch has
        // already shown the normalizer the last key first.
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
        assert_eq!(keys, vec!["zeta", "alpha", "mid"]);
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
    }

    /// Keys of several lengths in one relation (a stream the executors reject) group
    /// on slice equality and keep their arrival order, exactly as the classic path
    /// does.
    #[test]
    fn mixed_arity_bucket_falls_back_to_classic_sort() {
        let mut normalizer = BatchNormalizer::new();
        let updates = vec![
            Update::insert("R", vec![Value::int(2), Value::int(9)]),
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("R", vec![Value::int(2)]),
            Update::insert("R", vec![]),
            Update::insert("R", vec![Value::int(i64::MIN)]),
            Update::delete("R", vec![Value::int(2)]),
        ];
        assert_eq!(
            normalizer.normalize(&updates),
            DeltaBatch::from_updates(&updates)
        );
    }

    #[test]
    fn key_pool_groups_duplicates_in_first_seen_order() {
        let mut pool = KeyPool::new();
        let keys = [
            vec![Value::int(5), Value::int(1)],
            vec![Value::int(3), Value::int(2)],
            vec![Value::int(5), Value::int(1)],
            vec![Value::int(3), Value::int(0)],
        ];
        let key = |row: u32| keys[row as usize].as_slice();
        let groups: Vec<u32> = (0..keys.len() as u32).map(|r| pool.push(r, key)).collect();
        // Duplicates collapse onto first-seen group ids, and each group keeps the
        // first row that carried its key, whatever the keys' `Value` order.
        assert_eq!(groups, vec![0, 1, 0, 2]);
        assert_eq!(pool.firsts(), &[0, 1, 3]);

        // A cleared pool forgets previous groups entirely.
        pool.clear();
        let other = [vec![Value::int(5)], vec![Value::int(5)]];
        let key = |row: u32| other[row as usize].as_slice();
        assert_eq!((pool.push(0, key), pool.push(1, key)), (0, 0));
        assert_eq!(pool.firsts(), &[0]);
    }

    /// Under a known seed, aim 2 000 distinct keys at one hash: every probe then walks
    /// one run and only `Value` equality can tell the groups apart. Each key arrives
    /// three times, interleaved; the groups must still be exactly the distinct keys,
    /// numbered in the order of their first arrival.
    #[test]
    fn key_pool_groups_exactly_when_every_key_shares_one_hash() {
        const SEED: u64 = 0x5eed_0bad_c0de;
        const KEYS: u32 = 2_000;
        let hash = 0xdead_beef;
        let distinct: Vec<[Value; 1]> = (0..KEYS)
            .map(|low| {
                [Value::int(crate::value::int_with_value_hash(
                    SEED, hash, low,
                ))]
            })
            .collect();
        assert!(distinct.iter().all(|k| hash_values(SEED, k) == hash));
        let rows: Vec<&[Value]> = (0..3 * KEYS as usize)
            .map(|i| distinct[(i * 7) % KEYS as usize].as_slice())
            .collect();
        let key = |row: u32| rows[row as usize];
        let mut pool = KeyPool::with_seed(SEED);
        for round in 0..2 {
            pool.clear();
            let groups: Vec<u32> = (0..rows.len() as u32).map(|r| pool.push(r, key)).collect();
            assert_eq!(pool.firsts().len(), KEYS as usize, "round {round}");
            for (r, &g) in groups.iter().enumerate() {
                assert_eq!(
                    groups[r % KEYS as usize],
                    g,
                    "row {r} of one key, two groups"
                );
            }
            // Rows `0..KEYS` carry every key once, `7·i mod KEYS` at row `i`.
            assert_eq!(pool.firsts(), (0..KEYS).collect::<Vec<u32>>());
        }
    }
}
