//! Published read-only view snapshots: the read side of the serving story.
//!
//! The ingest side of this runtime mutates [`ViewStorage`](crate::ViewStorage) maps
//! in place under `&mut` access, so a reader holding `&Ring` blocks the writer (and
//! vice versa). This module decouples the two with an epoch-published, RCU-style
//! snapshot per view:
//!
//! * [`ViewSnapshot`] — an immutable point-in-time copy of one view's output table,
//!   sorted by group key and cut into `Arc`-shared blocks of about [`BLOCK_TARGET`]
//!   rows. Cloning is an `Arc` clone (O(1)); every read — point lookups, prefix
//!   scans, full iteration — runs lock-free against the shared immutable data, so any
//!   number of threads can read one snapshot concurrently while the writer keeps
//!   ingesting. Every row and every block boundary carries a 64-bit order code of its
//!   key ([`Value::order_code`] of the first value), so searches compare `u64`s and
//!   touch key values only where two codes tie, and to confirm a hit.
//! * [`SnapshotStore`] — the per-view publication slots. A writer *publishes* at a
//!   quiescent point (a batch-commit boundary); readers *acquire* the current
//!   snapshot. Acquire is O(1): one shared-lock on the slot table plus one per-slot
//!   mutex held only for an `Arc` clone — never for the duration of a read — and
//!   publication swaps a pointer, so writers never wait for readers to finish.
//!
//! **Publication is proportional to what a commit changed.** There are exactly two
//! ways to build a snapshot. [`ViewSnapshot::from_export`] copies a whole output
//! table (first publication, backfill and repair). [`ViewSnapshot::successor`] takes
//! the predecessor snapshot and a sorted [`Changes`] list of output keys with their
//! values after the commits it covers, rebuilds only the blocks those keys fall in
//! and `Arc`-shares every other block — so a three-key batch into a 10 000-group view
//! copies three blocks, and the untouched blocks keep their addresses (and the
//! reader's cache lines) across epochs. [`PublishStats`] counts the blocks rebuilt
//! and shared and the rows copied, machine-independently.
//!
//! **Publication follows reader interest.** A slot is *subscribed* by its first
//! acquire, for good. A commit into a subscribed slot builds its successor at once
//! ([`SnapshotStore::commit`]). A commit into any other slot only records the
//! [`ChangeSet`]'s keys with their values after the commit in the slot's pending
//! set — deduplicated by key, the latest value winning, so it never holds more than
//! one entry per group — and the slot's first acquire builds the snapshot *as of
//! the latest commit* from them, outside the slot mutex (a commit records under it,
//! so that first acquire may wait for one recording; a commit never waits for a
//! build). No acquire can tell a
//! deferred commit from a published one: the snapshot followed by the pending set
//! is always the view after the latest commit that touched it, an acquire never
//! misses a commit that returned before it began, and the built snapshot carries
//! that commit's epoch and `ingested` count. So a commit stops paying block
//! rebuilds, directory copies and retirement for views nobody reads — DBSP's "a
//! step consumes the accumulated delta", applied to the read side.
//!
//! The store tracks view lifecycle alongside the published data: a quarantined view's
//! slot is flagged so acquisition fails *up front* ([`SnapshotAccess::Poisoned`])
//! instead of serving a table that reflects a half-applied batch, and a dropped
//! view's slot releases its snapshot promptly ([`SnapshotAccess::Dropped`]) so the
//! memory is reclaimed as soon as the last outstanding reader handle goes away.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use dbring_algebra::{Number, Semiring};
use dbring_relations::intern::SlotTable;
use dbring_relations::Value;

use crate::storage::{hash_values, random_seed};

/// Rows a snapshot block is built to hold. A block never exceeds twice this, and
/// only a snapshot's final block may hold fewer than half of it, so rebuilding the
/// block around one changed key copies a bounded number of rows whatever the view's
/// size.
pub const BLOCK_TARGET: usize = 64;
const BLOCK_MIN: usize = BLOCK_TARGET / 2;
const BLOCK_MAX: usize = 2 * BLOCK_TARGET;

/// Row `row` of a flat key array holding `arity` values per row.
fn row_key(keys: &[Value], arity: usize, row: usize) -> &[Value] {
    &keys[row * arity..(row + 1) * arity]
}

/// A key's order code: its first value's [`Value::order_code`], 0 for the empty key.
/// Keys compare as `(code, key)` pairs do, so a search decides on codes wherever they
/// differ and compares values only where two codes tie.
fn key_code(key: &[Value]) -> u64 {
    key.first().map_or(0, Value::order_code)
}

/// Whether the row `(code, key)` sorts before the row `(other_code, other)`.
fn precedes(code: u64, key: &[Value], other_code: u64, other: &[Value]) -> bool {
    code < other_code || (code == other_code && key < other)
}

/// Rows a search looks ahead for the end of a run of equal codes before it
/// searches for it.
const TIE_SCAN: usize = 4;

/// The first index of `codes` (ascending) whose row is not `below` the target coded
/// `code`, for a `below` that holds on a prefix of the rows and agrees with the
/// codes: every row coded under `code` is below and no row coded over it is. So
/// `below` is asked only inside the run of rows coded `code`, by binary search, and
/// a long run (a view keyed `(region, cust)` with few regions) costs O(log n)
/// comparisons, not O(n). Codes rarely collide, so the run's end is looked for in
/// the next [`TIE_SCAN`] rows before it is searched for; where they do (strings
/// sharing their first 8 bytes), the run often reaches the array's end, which
/// needs no search.
fn search(codes: &[u64], code: u64, below: impl Fn(usize) -> bool) -> usize {
    let start = codes.partition_point(|&c| c < code);
    let end = if codes.last() == Some(&code) {
        codes.len()
    } else {
        let ahead = &codes[start..codes.len().min(start + TIE_SCAN)];
        match ahead.iter().position(|&c| c != code) {
            Some(run) => start + run,
            None => {
                let rest = start + ahead.len();
                rest + codes[rest..].partition_point(|&c| c == code)
            }
        }
    };
    let (mut lo, mut hi) = (start, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Fills `order` with `(code, row)` for the rows `0..rows` of a flat key array,
/// sorted by key: by code, and by values only where codes tie.
fn sort_rows(keys: &[Value], arity: usize, rows: usize, order: &mut Vec<(u64, u32)>) {
    let key = |row: u32| row_key(keys, arity, row as usize);
    order.clear();
    order.extend((0..rows as u32).map(|row| (key_code(key(row)), row)));
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(key(b.1))));
}

/// Appends clones of `values`. A push loop on purpose: `Value` is not `Copy`, and
/// `extend_from_slice` clones it about three times slower (7 ns against 2.4 ns per
/// value on rustc 1.95), which is most of the cost of rebuilding a block.
fn append(to: &mut Vec<Value>, values: &[Value]) {
    to.reserve(values.len());
    for value in values {
        to.push(value.clone());
    }
}

/// A run of rows under construction, sorted ascending by unique key. Keys are stored
/// flat — `arity` values per row, each row's code and value beside them — so a run
/// is three allocations however many rows it holds.
#[derive(Debug, Default)]
struct Rows {
    keys: Vec<Value>,
    codes: Vec<u64>,
    vals: Vec<Number>,
}

impl Rows {
    /// An empty run with room for exactly `rows` rows of `arity` values.
    fn with_capacity(rows: usize, arity: usize) -> Self {
        Rows {
            keys: Vec::with_capacity(rows * arity),
            codes: Vec::with_capacity(rows),
            vals: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn key(&self, row: usize, arity: usize) -> &[Value] {
        row_key(&self.keys, arity, row)
    }

    /// Appends `key`, coded `code`, with `val`.
    fn push(&mut self, code: u64, key: &[Value], val: Number) {
        append(&mut self.keys, key);
        self.codes.push(code);
        self.vals.push(val);
    }

    fn extend_from(&mut self, block: &Block, rows: Range<usize>, arity: usize) {
        append(
            &mut self.keys,
            &block.keys.values[rows.start * arity..rows.end * arity],
        );
        self.codes.extend_from_slice(&block.codes()[rows.clone()]);
        self.vals.extend_from_slice(&block.vals[rows]);
    }
}

/// A block's keys: the flat key array and each row's [`key_code`].
#[derive(Default)]
struct BlockKeys {
    values: Box<[Value]>,
    codes: Box<[u64]>,
}

/// One immutable snapshot block: a sealed run of rows, shared between epochs as an
/// `Arc<Block>`. The keys and their codes have a shared allocation of their own, so
/// that a commit which only changes the values of groups already in the block — the
/// common case — builds its successor from the same keys and a fresh value array.
struct Block {
    keys: Arc<BlockKeys>,
    vals: Vec<Number>,
}

impl Block {
    fn len(&self) -> usize {
        self.vals.len()
    }

    fn key(&self, row: usize, arity: usize) -> &[Value] {
        row_key(&self.keys.values, arity, row)
    }

    fn codes(&self) -> &[u64] {
        &self.keys.codes
    }

    /// The first row in `from..` whose key is not below `key` (coded `code`).
    fn lower_bound(&self, from: usize, code: u64, key: &[Value], arity: usize) -> usize {
        from + search(&self.codes()[from..], code, |r| {
            self.key(from + r, arity) < key
        })
    }
}

/// The output keys one commit wrote in one view, as the engine reports them: in
/// whatever order they were written, repeats included. [`ChangeSet::resolve`] sorts
/// and deduplicates them into the [`Changes`] a successor is built from.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    arity: usize,
    rows: usize,
    keys: Vec<Value>,
    /// `(code, row number)` in ascending key order, one per distinct key.
    order: Vec<(u64, u32)>,
}

impl ChangeSet {
    /// An empty change set.
    pub fn new() -> Self {
        ChangeSet::default()
    }

    /// Reports one written key. All keys of one change set share an arity.
    pub fn push(&mut self, key: &[Value]) {
        debug_assert!(self.rows == 0 || self.arity == key.len());
        self.arity = key.len();
        append(&mut self.keys, key);
        self.rows += 1;
    }

    /// Whether no key was reported.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The reported keys, in report order (repeats included).
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.rows).map(|row| row_key(&self.keys, self.arity, row))
    }

    fn sort_dedup(&mut self) {
        let (keys, arity) = (&self.keys, self.arity);
        sort_rows(keys, arity, self.rows, &mut self.order);
        let key = |row: u32| row_key(keys, arity, row as usize);
        self.order
            .dedup_by(|a, b| a.0 == b.0 && key(a.1) == key(b.1));
    }

    /// The reported keys with the values `current` gives them now, as a sorted
    /// change list: each distinct key is probed once, in ascending order.
    pub fn resolve(&mut self, mut current: impl FnMut(&[Value]) -> Number) -> Changes {
        self.sort_dedup();
        let mut changes = Changes::new(self.arity);
        for &(code, row) in &self.order {
            let key = row_key(&self.keys, self.arity, row as usize);
            changes.push(code, key, current(key));
        }
        changes
    }
}

/// Output keys with their values after a commit (zero ⇒ the group is gone), sorted
/// ascending by key, each key once — the input of [`ViewSnapshot::successor`].
#[derive(Debug)]
pub struct Changes {
    arity: usize,
    rows: Rows,
}

impl Changes {
    /// An empty change list for keys of `arity` values.
    fn new(arity: usize) -> Self {
        Changes {
            arity,
            rows: Rows::default(),
        }
    }

    /// Appends `key`'s new value; `code` is its [`key_code`]. Keys must arrive in
    /// strictly ascending order.
    fn push(&mut self, code: u64, key: &[Value], value: Number) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert_eq!(code, key_code(key));
        debug_assert!(self.is_empty() || self.key(self.len() - 1) < key);
        self.rows.push(code, key, value);
    }

    /// Number of changed keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no key changed.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    fn key(&self, i: usize) -> &[Value] {
        self.rows.key(i, self.arity)
    }

    fn code(&self, i: usize) -> u64 {
        self.rows.codes[i]
    }

    fn value(&self, i: usize) -> Number {
        self.rows.vals[i]
    }
}

/// Work done building snapshots, in machine-independent counts. The complexity
/// claim of incremental publication is stated in these: per commit,
/// `entries_copied` depends on the batch, not on the size of the view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Publication rounds that published or deferred at least one view.
    pub commits: u64,
    /// Blocks built from copied rows.
    pub blocks_rebuilt: u64,
    /// Blocks carried over from the predecessor snapshot by `Arc` clone.
    pub blocks_shared: u64,
    /// Rows copied into rebuilt blocks.
    pub entries_copied: u64,
    /// Slot publications deferred: a commit into a view no reader has acquired yet
    /// recorded its changes in the slot's pending set instead of building.
    pub deferred: u64,
    /// Snapshots built on acquire, from a slot's pending set.
    pub pulled: u64,
}

/// An immutable point-in-time copy of one view's output table, shared by `Arc`.
///
/// A snapshot is produced by the ingest side at a batch-commit quiescent point and
/// never changes afterwards: updates ingested later publish *new* snapshots and can
/// never perturb one already handed out. `Clone` is an `Arc` clone, and every
/// accessor takes `&self` over immutable data, so snapshots are `Send + Sync` and
/// freely shared across reader threads with zero locking on the read path.
#[derive(Clone)]
pub struct ViewSnapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    name: Arc<str>,
    epoch: u64,
    ingested: u64,
    /// Values per group key.
    arity: usize,
    /// Rows across all blocks.
    len: usize,
    /// The code of every block's first key, ascending: a lookup searches this one
    /// contiguous array, then one block. Where a fence code ties with the key's,
    /// the block's own first key decides.
    fences: Vec<u64>,
    /// The table, sorted ascending by group key (unique keys, no zeros), in blocks
    /// that successive epochs share wherever a commit left them untouched.
    blocks: Vec<Arc<Block>>,
}

/// Compares a key against a prefix, considering only the key's first
/// `prefix.len()` components (a key shorter than the prefix compares `Less`,
/// so it can never match).
fn prefix_cmp(key: &[Value], prefix: &[Value]) -> Ordering {
    key[..key.len().min(prefix.len())].cmp(prefix)
}

impl SnapshotInner {
    /// The block owning `key` (coded `code`): the last one whose first key is not
    /// above it, or 0 — the first block also owns everything below its first key
    /// (an empty table has no block 0).
    fn owner(&self, code: u64, key: &[Value]) -> usize {
        search(&self.fences, code, |b| {
            self.blocks[b].key(0, self.arity) <= key
        })
        .saturating_sub(1)
    }

    /// The `(block, row)` of the first row that is not `below`, for a `below` that
    /// holds on a prefix of the table and agrees with the codes around `code` (see
    /// [`search`]); `(blocks.len(), 0)` when it holds everywhere.
    fn position(&self, code: u64, below: impl Fn(&[Value]) -> bool) -> (usize, usize) {
        let arity = self.arity;
        let before = search(&self.fences, code, |b| below(self.blocks[b].key(0, arity)));
        if before == 0 {
            return (0, 0);
        }
        let block = &self.blocks[before - 1];
        let row = search(block.codes(), code, |r| below(block.key(r, arity)));
        if row == block.len() {
            (before, 0)
        } else {
            (before - 1, row)
        }
    }

    /// The rows from position `start` up to (excluding) position `end`, in key order.
    fn rows_between(
        &self,
        start: (usize, usize),
        end: (usize, usize),
    ) -> impl Iterator<Item = (&[Value], Number)> {
        let arity = self.arity;
        let last = (end.0 + 1).min(self.blocks.len());
        (start.0..last).flat_map(move |b| {
            let block = &*self.blocks[b];
            let lo = if b == start.0 { start.1 } else { 0 };
            let hi = if b == end.0 { end.1 } else { block.len() };
            (lo..hi).map(move |row| (block.key(row, arity), block.vals[row]))
        })
    }
}

/// The block list of a snapshot under construction.
struct Directory {
    arity: usize,
    fences: Vec<u64>,
    blocks: Vec<Arc<Block>>,
}

impl Directory {
    fn new(arity: usize, blocks: usize) -> Self {
        Directory {
            arity,
            fences: Vec::with_capacity(blocks),
            blocks: Vec::with_capacity(blocks),
        }
    }

    /// Moves `rows` out into new blocks — one, or evenly sized pieces of about
    /// [`BLOCK_TARGET`] rows when they exceed the block limit — leaving `rows` empty
    /// (with its capacity, for the next run).
    fn seal(&mut self, rows: &mut Rows, stats: &mut PublishStats) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        debug_assert!(rows.codes.windows(2).all(|w| w[0] <= w[1]));
        let pieces = if n <= BLOCK_MAX {
            1
        } else {
            n.div_ceil(BLOCK_TARGET)
        };
        let mut keys = rows.keys.drain(..);
        let mut codes = rows.codes.drain(..);
        let mut vals = rows.vals.drain(..);
        for piece in 0..pieces {
            let take = (piece + 1) * n / pieces - piece * n / pieces;
            self.push(Block {
                keys: Arc::new(BlockKeys {
                    values: keys.by_ref().take(take * self.arity).collect(),
                    codes: codes.by_ref().take(take).collect(),
                }),
                vals: vals.by_ref().take(take).collect(),
            });
        }
        stats.blocks_rebuilt += pieces as u64;
        stats.entries_copied += n as u64;
    }

    fn push(&mut self, block: Block) {
        let codes = block.codes();
        debug_assert!((0..block.len()).all(|r| codes[r] == key_code(block.key(r, self.arity))));
        debug_assert!(codes.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(self
            .blocks
            .last()
            .is_none_or(|last| last.codes()[last.len() - 1] <= codes[0]));
        self.fences.push(codes[0]);
        self.blocks.push(Arc::new(block));
    }

    /// Carries the predecessor's blocks `range` over by `Arc` clone. Rows still
    /// pending from an underfull rebuilt block absorb the first of them, so that
    /// only a snapshot's final block can stay below the minimum.
    fn share(
        &mut self,
        prev: &SnapshotInner,
        mut range: Range<usize>,
        pending: &mut Rows,
        stats: &mut PublishStats,
    ) {
        if pending.len() > 0 && !range.is_empty() {
            let block = &prev.blocks[range.start];
            pending.extend_from(block, 0..block.len(), self.arity);
            self.seal(pending, stats);
            range.start += 1;
        }
        self.fences.extend_from_slice(&prev.fences[range.clone()]);
        self.blocks.extend_from_slice(&prev.blocks[range.clone()]);
        stats.blocks_shared += range.len() as u64;
    }
}

impl ViewSnapshot {
    /// The empty table at epoch 0 — what a slot holds before its first publication.
    pub fn empty(name: Arc<str>, arity: usize, ingested: u64) -> Self {
        ViewSnapshot {
            inner: Arc::new(SnapshotInner {
                name,
                epoch: 0,
                ingested,
                arity,
                len: 0,
                fences: Vec::new(),
                blocks: Vec::new(),
            }),
        }
    }

    /// Builds a snapshot by copying a whole output table: `export` is handed a
    /// visitor and calls it once per `(key, value)` group, each key `arity` values
    /// long and unique. Groups may arrive in any order; arriving in ascending key
    /// order (a `BTreeMap`) saves the sort.
    pub fn from_export(
        name: Arc<str>,
        epoch: u64,
        ingested: u64,
        arity: usize,
        export: impl FnOnce(&mut dyn FnMut(&[Value], Number)),
        stats: &mut PublishStats,
    ) -> Self {
        let mut rows = Rows::default();
        let mut sorted = true;
        export(&mut |key, val| {
            debug_assert_eq!(key.len(), arity);
            let (n, code) = (rows.len(), key_code(key));
            sorted = sorted
                && (n == 0 || precedes(rows.codes[n - 1], rows.key(n - 1, arity), code, key));
            rows.push(code, key, val);
        });
        if !sorted {
            let mut order = Vec::new();
            sort_rows(&rows.keys, arity, rows.len(), &mut order);
            // Sized exactly: the sorted copy of a whole table is the largest
            // transient a snapshot build allocates.
            let mut in_order = Rows::with_capacity(rows.len(), arity);
            for (code, row) in order {
                let row = row as usize;
                in_order.push(code, rows.key(row, arity), rows.vals[row]);
            }
            rows = in_order;
        }
        debug_assert!((1..rows.len()).all(|r| rows.key(r - 1, arity) < rows.key(r, arity)));
        let len = rows.len();
        let mut directory = Directory::new(arity, 0);
        directory.seal(&mut rows, stats);
        let Directory { fences, blocks, .. } = directory;
        ViewSnapshot {
            inner: Arc::new(SnapshotInner {
                name,
                epoch,
                ingested,
                arity,
                len,
                fences,
                blocks,
            }),
        }
    }

    /// Builds the snapshot that follows this one after the commits `changes` lists:
    /// the blocks its keys fall in are rebuilt — split when they outgrow the block
    /// limit, merged into their successor or dropped when they shrink, and sharing
    /// the old block's key array when only values changed — and every other block
    /// is shared with `self` by `Arc` clone. The cost is O(changed blocks) row
    /// copies plus one pointer per block; `self` is not modified.
    ///
    /// `changes` must cover every key whose value differs from this snapshot's; it
    /// may hold keys whose value did not change.
    pub fn successor(
        &self,
        epoch: u64,
        ingested: u64,
        changes: &Changes,
        stats: &mut PublishStats,
    ) -> Self {
        let prev = &*self.inner;
        let arity = prev.arity;
        let blocks = prev.blocks.len();
        debug_assert!(changes.is_empty() || changes.arity == arity);
        let distinct = changes.len();
        let mut directory = Directory::new(arity, blocks + 1);
        let mut len = prev.len;
        // Rebuilt rows not yet sealed into a block.
        let mut pending = Rows::default();
        // Per changed key of one block: its row in the old block and whether the
        // old block holds it.
        let mut spots: Vec<(usize, bool)> = Vec::new();
        let empty = Block {
            keys: Arc::default(),
            vals: Vec::new(),
        };
        // The first predecessor block not yet carried over or rebuilt.
        let mut next = 0;
        let mut c = 0;
        while c < distinct {
            let b = prev.owner(changes.code(c), changes.key(c));
            directory.share(prev, next..b, &mut pending, stats);
            // Every changed key below the next block's first key belongs to this one.
            let mut end = c + 1;
            if b + 1 < blocks {
                let (fence_code, fence) = (prev.fences[b + 1], prev.blocks[b + 1].key(0, arity));
                while end < distinct
                    && precedes(changes.code(end), changes.key(end), fence_code, fence)
                {
                    end += 1;
                }
            } else {
                end = distinct;
            }
            let old = prev.blocks.get(b).map_or(&empty, |block| &**block);
            spots.clear();
            let mut row = 0;
            let mut same_keys = pending.len() == 0;
            for i in c..end {
                let (code, key) = (changes.code(i), changes.key(i));
                let at = old.lower_bound(row, code, key, arity);
                let held = at < old.len() && old.codes()[at] == code && old.key(at, arity) == key;
                let live = !changes.value(i).is_zero();
                same_keys &= held && live;
                len += usize::from(live);
                len -= usize::from(held);
                spots.push((at, held));
                row = at + usize::from(held);
            }
            if same_keys {
                // Only values changed: the new block keeps the old one's key array.
                let mut vals = old.vals.clone();
                for (i, &(at, _)) in (c..end).zip(&spots) {
                    vals[at] = changes.value(i);
                }
                stats.blocks_rebuilt += 1;
                stats.entries_copied += vals.len() as u64;
                directory.push(Block {
                    keys: Arc::clone(&old.keys),
                    vals,
                });
            } else {
                // Merge the old block's rows with the changed keys' current values.
                let mut row = 0;
                for (i, &(at, held)) in (c..end).zip(&spots) {
                    pending.extend_from(old, row..at, arity);
                    row = at + usize::from(held);
                    let value = changes.value(i);
                    if !value.is_zero() {
                        pending.push(changes.code(i), changes.key(i), value);
                    }
                }
                pending.extend_from(old, row..old.len(), arity);
                if pending.len() >= BLOCK_MIN {
                    directory.seal(&mut pending, stats);
                }
            }
            next = (b + 1).min(blocks);
            c = end;
        }
        directory.share(prev, next..blocks, &mut pending, stats);
        directory.seal(&mut pending, stats);
        let Directory { fences, blocks, .. } = directory;
        ViewSnapshot {
            inner: Arc::new(SnapshotInner {
                name: Arc::clone(&prev.name),
                epoch,
                ingested,
                arity,
                len,
                fences,
                blocks,
            }),
        }
    }

    /// Whether `self` and `other` are clones of one snapshot.
    fn same(&self, other: &ViewSnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The name of the view this snapshot was published from.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The store-wide publication epoch this snapshot was published at. Strictly
    /// increasing per publication round, so two snapshots of one view are ordered
    /// by epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// How many single-tuple updates the ring had ingested when this snapshot was
    /// published — the snapshot equals the view's table after exactly that prefix
    /// of the update stream.
    pub fn ingested(&self) -> u64 {
        self.inner.ingested
    }

    /// Values per group key: the number of key columns of the view (zero for a
    /// scalar view). A point lookup takes exactly this many values.
    pub fn arity(&self) -> usize {
        self.inner.arity
    }

    /// Number of groups (rows) in the snapshot.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the snapshot holds no groups.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Point lookup: the value stored under `key`, if the group is present. One
    /// search over the blocks' fence codes, one over the codes of the block they
    /// select; key values are compared only where a code ties with the key's, and a
    /// hit is confirmed by comparing the whole key.
    pub fn get(&self, key: &[Value]) -> Option<Number> {
        let inner = &*self.inner;
        let code = key_code(key);
        let block = inner.blocks.get(inner.owner(code, key))?;
        let row = block.lower_bound(0, code, key, inner.arity);
        (row < block.len() && block.codes()[row] == code && block.key(row, inner.arity) == key)
            .then(|| block.vals[row])
    }

    /// Point lookup with the ring's absent-means-zero convention (the snapshot
    /// counterpart of a live view's `value()`).
    pub fn value(&self, key: &[Value]) -> Number {
        self.get(key).unwrap_or(Number::Int(0))
    }

    /// Iterates every `(key, value)` group in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], Number)> {
        self.inner
            .rows_between((0, 0), (self.inner.blocks.len(), 0))
    }

    /// Prefix scan: every group whose key begins with `prefix`, in ascending key
    /// order, located by search (no full-table walk).
    pub fn prefix_scan<'a>(
        &'a self,
        prefix: &[Value],
    ) -> impl Iterator<Item = (&'a [Value], Number)> {
        let inner = &*self.inner;
        let (start, end) = if prefix.is_empty() {
            ((0, 0), (inner.blocks.len(), 0))
        } else {
            let code = key_code(prefix);
            (
                inner.position(code, |k| prefix_cmp(k, prefix) == Ordering::Less),
                inner.position(code, |k| prefix_cmp(k, prefix) != Ordering::Greater),
            )
        };
        inner.rows_between(start, end)
    }

    /// The snapshot as an owned `BTreeMap` — an explicit O(n) export for tests and
    /// bulk consumers, *not* part of the per-request read path.
    pub fn table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.iter().map(|(k, v)| (k.to_vec(), v)).collect()
    }

    /// Whether `self` and `other` hold their `block`-th block at the same address
    /// (the successor shared it rather than rebuilt it).
    #[cfg(test)]
    fn shares_block(&self, other: &ViewSnapshot, block: usize) -> bool {
        Arc::ptr_eq(&self.inner.blocks[block], &other.inner.blocks[block])
    }

    /// Whether the two snapshots' `block`-th blocks hold the same key array.
    #[cfg(test)]
    fn shares_keys(&self, other: &ViewSnapshot, block: usize) -> bool {
        Arc::ptr_eq(
            &self.inner.blocks[block].keys,
            &other.inner.blocks[block].keys,
        )
    }

    /// Panics unless the block invariants hold: keys ascend strictly across all
    /// rows, every stored code is its key's code, fences are the blocks' first codes,
    /// blocks are non-empty and within the limit, only the final block is below the
    /// minimum, `len` counts the rows.
    #[cfg(test)]
    fn check_blocks(&self) {
        let inner = &*self.inner;
        let arity = inner.arity;
        assert_eq!(inner.fences.len(), inner.blocks.len());
        let mut rows = 0;
        let mut last: Option<&[Value]> = None;
        for (b, block) in inner.blocks.iter().enumerate() {
            assert_eq!(block.keys.values.len(), block.len() * arity);
            assert_eq!(block.codes().len(), block.len());
            assert!(block.len() > 0 && block.len() <= BLOCK_MAX, "block {b}");
            assert!(
                block.len() >= BLOCK_MIN || b + 1 == inner.blocks.len(),
                "block {b} of {} holds {} rows",
                inner.blocks.len(),
                block.len()
            );
            assert_eq!(inner.fences[b], block.codes()[0], "fence {b}");
            for row in 0..block.len() {
                let key = block.key(row, arity);
                assert_eq!(block.codes()[row], key_code(key), "code of {key:?}");
                assert!(last.is_none_or(|l| l < key), "keys must ascend strictly");
                assert!(!block.vals[row].is_zero());
                last = Some(key);
            }
            rows += block.len();
        }
        assert_eq!(rows, inner.len);
    }
}

impl fmt::Debug for ViewSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewSnapshot")
            .field("name", &self.inner.name)
            .field("epoch", &self.inner.epoch)
            .field("ingested", &self.inner.ingested)
            .field("len", &self.inner.len)
            .field("blocks", &self.inner.blocks.len())
            .finish()
    }
}

/// What acquiring a view's snapshot slot found.
#[derive(Clone, Debug)]
pub enum SnapshotAccess {
    /// The current published snapshot.
    Published(ViewSnapshot),
    /// The view is quarantined (its engine failed mid-ingest); the carried name is
    /// for the error message. Nothing is served until the view is repaired.
    Poisoned(Arc<str>),
    /// The view was dropped; its snapshot has been released.
    Dropped,
    /// No view was ever registered in this slot.
    Unknown,
}

/// The commits a slot has not built into its snapshot yet: the latest value of every
/// output key they wrote, and the epoch and `ingested` count of the last of them.
/// One entry per key, in a flat arena (`arity` values per entry, values beside
/// them) indexed by a [`SlotTable`] over entry numbers, so recording a key costs one
/// hash and one probe, and the set never holds more entries than keys.
#[derive(Clone)]
struct Pending {
    arity: usize,
    keys: Vec<Value>,
    vals: Vec<Number>,
    /// Key hash → entry number.
    index: SlotTable,
    /// Seed of the index's hash: keys come from clients, who must not be able to
    /// aim a commit at one probe chain.
    seed: u64,
    epoch: u64,
    ingested: u64,
}

impl Pending {
    fn new(arity: usize) -> Self {
        Pending {
            arity,
            keys: Vec::new(),
            vals: Vec::new(),
            index: SlotTable::default(),
            seed: random_seed(),
            epoch: 0,
            ingested: 0,
        }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn key(&self, entry: usize) -> &[Value] {
        row_key(&self.keys, self.arity, entry)
    }

    /// Records one commit on top of `base`, the slot's snapshot: `current` gives
    /// the value each key in `changed` holds after it, and a key recorded before
    /// keeps only its latest value. A key that is zero now and absent from `base`
    /// needs no entry, so groups created and deleted again between two builds
    /// leave nothing behind.
    fn record(
        &mut self,
        base: &ViewSnapshot,
        epoch: u64,
        ingested: u64,
        changed: &ChangeSet,
        mut current: impl FnMut(&[Value]) -> Number,
    ) {
        for key in changed.iter() {
            let value = current(key);
            let gone = value.is_zero() && base.get(key).is_none();
            let hash = hash_values(self.seed, key);
            self.index.reserve_one();
            let (keys, arity) = (&self.keys, self.arity);
            match self
                .index
                .probe(hash, |entry| row_key(keys, arity, entry as usize) == key)
            {
                (slot, Some(entry)) if gone => self.remove(slot, entry as usize),
                (_, Some(entry)) => self.vals[entry as usize] = value,
                (slot, None) if !gone => {
                    self.index.occupy(slot, self.len() as u32, hash);
                    append(&mut self.keys, key);
                    self.vals.push(value);
                }
                (_, None) => {}
            }
        }
        self.epoch = epoch;
        self.ingested = ingested;
    }

    /// Deletes `entry`, indexed at `slot`, by moving the last entry into its place.
    fn remove(&mut self, slot: usize, entry: usize) {
        self.index.remove(slot);
        let last = self.len() - 1;
        if entry != last {
            let hash = hash_values(self.seed, self.key(last));
            let (moved, _) = self.index.probe(hash, |e| e as usize == last);
            self.index.set_id(moved, entry as u32);
            for i in 0..self.arity {
                self.keys
                    .swap(entry * self.arity + i, last * self.arity + i);
            }
            self.vals.swap(entry, last);
        }
        self.keys.truncate(last * self.arity);
        self.vals.pop();
    }

    /// The pending values as a sorted change list.
    fn changes(&self) -> Changes {
        let mut order = Vec::new();
        sort_rows(&self.keys, self.arity, self.len(), &mut order);
        let mut changes = Changes::new(self.arity);
        for (code, entry) in order {
            changes.push(code, self.key(entry as usize), self.vals[entry as usize]);
        }
        changes
    }
}

/// What a slot update let go of. The caller drops it after releasing the slot
/// mutex, so that an acquire never waits for blocks to be freed.
type Released = (
    Option<ViewSnapshot>,
    Option<ViewSnapshot>,
    Option<Arc<Pending>>,
);

/// A slot's mutable part, behind its mutex.
#[derive(Default)]
struct SlotState {
    /// The published snapshot; `None` while the view is quarantined, and after it
    /// was dropped.
    current: Option<ViewSnapshot>,
    /// The snapshot the current one displaced, kept one publication longer so that
    /// the writer reclaims it. A reader that acquired it just before the swap would
    /// otherwise drop the last reference and pay — on the read path — for freeing
    /// every block the commit replaced, allocated on another thread.
    retired: Option<ViewSnapshot>,
    /// Set for good by the slot's first acquire. Until then commits defer into
    /// `pending` instead of building snapshots nobody reads.
    subscribed: bool,
    /// Commits not built yet: `current` followed by `pending` is the view after the
    /// latest commit that touched it. Present only before the first acquire, and
    /// while that acquire builds.
    pending: Option<Arc<Pending>>,
}

impl SlotState {
    /// Swaps the snapshot for `next` and discards `pending`, which `next` covers. A
    /// publication retires the displaced snapshot (releasing the one retired before
    /// it); clearing the slot releases both.
    fn install(&mut self, next: Option<ViewSnapshot>) -> Released {
        let retire = next.is_some();
        let displaced = std::mem::replace(&mut self.current, next);
        let (retired, displaced) = if retire {
            (std::mem::replace(&mut self.retired, displaced), None)
        } else {
            (self.retired.take(), displaced)
        };
        (retired, displaced, self.pending.take())
    }
}

/// One view's publication slot, on cache lines of its own: an acquire touches one
/// line, and a commit into a neighbouring slot does not take it from the reader.
#[repr(align(64))]
struct Slot {
    /// The view's name, fixed for the slot's life and kept outside the mutex so a
    /// lookup by name locks nothing but the slot it selects.
    name: Arc<str>,
    /// Set (for good) when the view is dropped.
    dropped: AtomicBool,
    state: Mutex<SlotState>,
}

impl Slot {
    fn is_dropped(&self) -> bool {
        self.dropped.load(AtomicOrdering::SeqCst)
    }

    /// Whether this is the slot of the live view named `name`.
    fn is_live_named(&self, name: &str) -> bool {
        !self.is_dropped() && &*self.name == name
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("snapshot slot lock poisoned")
    }

    fn access(&self, current: Option<&ViewSnapshot>) -> SnapshotAccess {
        match current {
            Some(snapshot) => SnapshotAccess::Published(snapshot.clone()),
            // `evict` raises the flag before it takes the lock, so it is up to date
            // under the lock.
            None if self.is_dropped() => SnapshotAccess::Dropped,
            None => SnapshotAccess::Poisoned(Arc::clone(&self.name)),
        }
    }

    /// Acquires the slot's snapshot and subscribes the slot. If commits are pending,
    /// their snapshot is built first — outside the mutex, so a commit never waits
    /// for it — and installed only if neither the snapshot nor the pending set moved
    /// meanwhile. If one did, a commit installed a newer snapshot that covers them,
    /// and that one is returned.
    fn acquire(&self, totals: &Mutex<PublishTotals>) -> SnapshotAccess {
        match self.subscribe() {
            Ok(access) => access,
            Err((base, pending)) => self.pull(base, pending, totals),
        }
    }

    /// Subscribes the slot and takes what it serves: the snapshot, or — while
    /// commits are pending — the snapshot and the pending set to build on it.
    fn subscribe(&self) -> Result<SnapshotAccess, (ViewSnapshot, Arc<Pending>)> {
        let mut state = self.lock();
        // Written once: the acquire of a subscribed slot stores nothing but the lock.
        if !state.subscribed {
            state.subscribed = true;
        }
        match (&state.current, &state.pending) {
            (Some(base), Some(pending)) => Err((base.clone(), Arc::clone(pending))),
            (current, _) => Ok(self.access(current.as_ref())),
        }
    }

    /// The second half of [`Slot::acquire`]: builds `base ⊕ pending` and installs
    /// it if the slot still holds both. Out of line and cold, so that the acquire
    /// of a subscribed slot stays an `Arc` clone under a lock.
    #[cold]
    #[inline(never)]
    fn pull(
        &self,
        base: ViewSnapshot,
        pending: Arc<Pending>,
        totals: &Mutex<PublishTotals>,
    ) -> SnapshotAccess {
        let mut stats = PublishStats {
            pulled: 1,
            ..PublishStats::default()
        };
        let built = base.successor(
            pending.epoch,
            pending.ingested,
            &pending.changes(),
            &mut stats,
        );
        let released = {
            let mut state = self.lock();
            let unmoved = state.current.as_ref().is_some_and(|c| c.same(&base))
                && state
                    .pending
                    .as_ref()
                    .is_some_and(|p| Arc::ptr_eq(p, &pending));
            if !unmoved {
                return self.access(state.current.as_ref());
            }
            state.install(Some(built.clone()))
        };
        drop(released);
        record(totals, 0, &stats);
        SnapshotAccess::Published(built)
    }

    /// Publishes a commit that wrote the output keys in `changed`, `current` giving
    /// each key's value after it. A subscribed slot gets the successor snapshot
    /// (pending commits included, the commit's values winning); an unsubscribed one
    /// records the values in its pending set. A slot with no snapshot (quarantined
    /// or dropped) is left alone.
    fn commit(
        &self,
        epoch: u64,
        ingested: u64,
        changed: &mut ChangeSet,
        current: impl FnMut(&[Value]) -> Number,
        stats: &mut PublishStats,
    ) {
        let (base, pending) = {
            let mut state = self.lock();
            let SlotState {
                current: Some(base),
                subscribed,
                pending,
                ..
            } = &mut *state
            else {
                return;
            };
            if !*subscribed {
                let pending = pending.get_or_insert_with(|| Arc::new(Pending::new(base.arity())));
                Arc::make_mut(pending).record(base, epoch, ingested, changed, current);
                stats.deferred += 1;
                return;
            }
            (base.clone(), pending.clone())
        };
        let changes = match &pending {
            // A first acquire is building `pending` right now: this commit's build
            // covers it too, its own values winning.
            Some(pending) => {
                let mut merged = Pending::clone(pending);
                merged.record(&base, epoch, ingested, changed, current);
                merged.changes()
            }
            None => changed.resolve(current),
        };
        let next = base.successor(epoch, ingested, &changes, stats);
        let released = {
            let mut state = self.lock();
            // Only a commit adds to `pending`, and only before the first acquire, so
            // it holds what this build consumed or was emptied by a pull it covers.
            debug_assert!(state
                .pending
                .as_ref()
                .is_none_or(|p| pending.as_ref().is_some_and(|q| Arc::ptr_eq(p, q))));
            state.install(Some(next))
        };
        drop(released);
    }
}

/// Cumulative publication cost: the writer's wall-clock nanoseconds, and the
/// [`PublishStats`] counts of every build, the acquires' included.
#[derive(Debug, Default)]
struct PublishTotals {
    ns: u64,
    stats: PublishStats,
}

fn totals(totals: &Mutex<PublishTotals>) -> MutexGuard<'_, PublishTotals> {
    // Plain counters, valid after every update: a panic while they were held leaves
    // nothing to repair.
    totals.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record(into: &Mutex<PublishTotals>, ns: u64, stats: &PublishStats) {
    let mut totals = totals(into);
    totals.ns += ns;
    let sum = &mut totals.stats;
    sum.commits += stats.commits;
    sum.blocks_rebuilt += stats.blocks_rebuilt;
    sum.blocks_shared += stats.blocks_shared;
    sum.entries_copied += stats.entries_copied;
    sum.deferred += stats.deferred;
    sum.pulled += stats.pulled;
}

/// The per-view snapshot publication slots, shared between one writer and any
/// number of readers via `Arc<SnapshotStore>`.
///
/// Slot indices parallel the owning engine registry's slots: registered in creation
/// order, never reused. The writer publishes at quiescent points with
/// [`SnapshotStore::publish`] (a whole table) and [`SnapshotStore::commit`] (a
/// commit's changes); readers acquire with [`SnapshotStore::acquire`] or
/// [`SnapshotStore::acquire_named`]. All slot access is O(1) — a shared lock on the
/// slot table (taken exclusively only when a *new* view is registered) plus one
/// per-slot mutex held just long enough to clone or swap an `Arc` — except the
/// first acquire of a slot, which builds the commits deferred until then.
pub struct SnapshotStore {
    slots: RwLock<Vec<Slot>>,
    epoch: AtomicU64,
    totals: Mutex<PublishTotals>,
}

impl SnapshotStore {
    /// An empty store (no slots, epoch 0).
    pub fn new() -> Self {
        SnapshotStore {
            slots: RwLock::new(Vec::new()),
            epoch: AtomicU64::new(0),
            totals: Mutex::default(),
        }
    }

    fn push(&self, name: Arc<str>, current: Option<ViewSnapshot>) -> u32 {
        let mut slots = self.slots.write().expect("snapshot store lock poisoned");
        slots.push(Slot {
            name,
            dropped: AtomicBool::new(current.is_none()),
            state: Mutex::new(SlotState {
                current,
                ..SlotState::default()
            }),
        });
        (slots.len() - 1) as u32
    }

    /// Registers the next slot — named after its initial snapshot — and returns the
    /// slot index.
    pub fn register(&self, snapshot: ViewSnapshot) -> u32 {
        self.push(Arc::clone(&snapshot.inner.name), Some(snapshot))
    }

    /// Registers the next slot already dropped (used when mirroring a store whose
    /// owning ring has tombstoned slots — indices must stay aligned).
    pub fn register_dropped(&self) {
        self.push(Arc::from(""), None);
    }

    /// Number of slots ever registered (dropped slots included — indices are stable).
    pub fn len(&self) -> usize {
        self.slots
            .read()
            .expect("snapshot store lock poisoned")
            .len()
    }

    /// Whether no slot was ever registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws the next publication epoch (strictly increasing for the store's life).
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    /// Runs `f` on `slot` under the shared lock of the slot table; a dropped or
    /// unknown slot is skipped.
    fn with_live(&self, slot: u32, f: impl FnOnce(&Slot)) {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        if let Some(slot) = slots.get(slot as usize).filter(|s| !s.is_dropped()) {
            f(slot);
        }
    }

    /// Swaps `slot`'s published snapshot for a whole fresh one (clearing any
    /// quarantine flag — the repair path republishes through here) and discards the
    /// slot's pending commits, which the fresh table covers. The displaced snapshot
    /// is released by the *next* publication to the slot (so the writer, not a
    /// reader, frees it), or later if a reader still holds a clone. Publishing to a
    /// dropped (or unknown) slot does nothing: a dropped view stays dropped.
    pub fn publish(&self, slot: u32, snapshot: ViewSnapshot) {
        self.with_live(slot, |slot| {
            let released = slot.lock().install(Some(snapshot));
            drop(released);
        });
    }

    /// Publishes a commit into `slot` at `epoch` and `ingested`: `changed` holds the
    /// output keys it wrote and `current` gives each key's value after it (zero ⇒
    /// the group is gone). A slot some acquire has subscribed gets the successor of
    /// its snapshot now. Any other slot defers: the keys and their values go into
    /// its pending set, deduplicated by key, and its first acquire builds them. Work
    /// is added to `stats`. Quarantined, dropped and unknown slots are skipped.
    pub fn commit(
        &self,
        slot: u32,
        epoch: u64,
        ingested: u64,
        changed: &mut ChangeSet,
        current: impl FnMut(&[Value]) -> Number,
        stats: &mut PublishStats,
    ) {
        self.with_live(slot, |slot| {
            slot.commit(epoch, ingested, changed, current, stats);
        });
    }

    /// Flags `slot` as quarantined: acquisition reports
    /// [`SnapshotAccess::Poisoned`] until a repair republishes. The stale snapshot
    /// and any pending commits are released immediately — the snapshot predates the
    /// failure, but serving it would silently freeze the view, so the poisoning is
    /// surfaced instead.
    pub fn poison(&self, slot: u32) {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        let released = slots[slot as usize].lock().install(None);
        drop(released);
    }

    /// Releases `slot`'s snapshot and pending commits for good (the view was
    /// dropped). Readers still holding a previously acquired [`ViewSnapshot`] keep
    /// it alive until they drop it; new acquisitions report
    /// [`SnapshotAccess::Dropped`].
    pub fn evict(&self, slot: u32) {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        let slot = &slots[slot as usize];
        slot.dropped.store(true, AtomicOrdering::SeqCst);
        let released = slot.lock().install(None);
        drop(released);
    }

    /// Acquires `slot`'s current snapshot and subscribes the slot. O(1),
    /// independent of view size, except the slot's first acquire after deferred
    /// commits, which builds them.
    pub fn acquire(&self, slot: u32) -> SnapshotAccess {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots
            .get(slot as usize)
            .map_or(SnapshotAccess::Unknown, |slot| slot.acquire(&self.totals))
    }

    /// Acquires the current snapshot of the live view named `name`
    /// ([`SnapshotAccess::Unknown`] if there is none), as [`SnapshotStore::acquire`]
    /// does: the slot table is locked once, names are compared outside the slot
    /// mutexes, and only the matching slot is locked.
    pub fn acquire_named(&self, name: &str) -> SnapshotAccess {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots
            .iter()
            .find(|slot| slot.is_live_named(name))
            .map_or(SnapshotAccess::Unknown, |slot| slot.acquire(&self.totals))
    }

    /// The slot index of the live (published or poisoned) view named `name`, if any
    /// — a linear scan over the slot names; no slot is locked.
    pub fn find(&self, name: &str) -> Option<u32> {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots
            .iter()
            .position(|slot| slot.is_live_named(name))
            .map(|i| i as u32)
    }

    /// The name `slot` was registered under (`None` for an unknown slot).
    pub fn name(&self, slot: u32) -> Option<Arc<str>> {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots.get(slot as usize).map(|s| Arc::clone(&s.name))
    }

    /// Adds one publication round's cost: the writer's wall-clock `ns` and the
    /// `stats` of its builds.
    pub fn record(&self, ns: u64, stats: &PublishStats) {
        record(&self.totals, ns, stats);
    }

    /// Cumulative wall-clock nanoseconds recorded by the writer.
    pub fn publish_ns(&self) -> u64 {
        totals(&self.totals).ns
    }

    /// Cumulative build work: the writer's rounds and every acquire's build.
    pub fn publish_stats(&self) -> PublishStats {
        totals(&self.totals).stats
    }

    /// Sums `count` over the slots' states.
    fn sum(&self, count: impl Fn(&SlotState) -> usize) -> usize {
        let slots = self.slots.read().expect("snapshot store lock poisoned");
        slots.iter().map(|slot| count(&slot.lock())).sum()
    }

    /// Total groups currently held across all published snapshots — the store's
    /// memory-proxy footprint (dropped and poisoned slots contribute zero).
    pub fn published_entries(&self) -> usize {
        self.sum(|state| state.current.as_ref().map_or(0, ViewSnapshot::len))
    }

    /// Total `(key, value)` entries held in pending sets, for views that no acquire
    /// has built yet — at most one per group each view wrote since its last build.
    pub fn pending_entries(&self) -> usize {
        self.sum(|state| state.pending.as_ref().map_or(0, |p| p.len()))
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("slots", &self.len())
            .field("epoch", &self.epoch.load(AtomicOrdering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().copied().map(Value::int).collect()
    }

    type Table = BTreeMap<Vec<Value>, Number>;

    /// A snapshot of `table` built from scratch, visiting the rows in `order`.
    fn export(table: &Table, arity: usize, reversed: bool) -> ViewSnapshot {
        let mut rows: Vec<(&Vec<Value>, &Number)> = table.iter().collect();
        if reversed {
            rows.reverse();
        }
        ViewSnapshot::from_export(
            Arc::from("v"),
            1,
            0,
            arity,
            |visit| rows.iter().for_each(|(k, v)| visit(k, **v)),
            &mut PublishStats::default(),
        )
    }

    fn snap(entries: &[(&[i64], i64)]) -> ViewSnapshot {
        let table: Table = entries
            .iter()
            .map(|(k, v)| (key(k), Number::Int(*v)))
            .collect();
        export(&table, entries.first().map_or(0, |(k, _)| k.len()), false)
    }

    /// Sets `changes` in the model and publishes them through `successor` only.
    fn step(
        model: &mut Table,
        snapshot: &ViewSnapshot,
        changes: &[(Vec<Value>, i64)],
        stats: &mut PublishStats,
    ) -> ViewSnapshot {
        let mut changed = ChangeSet::new();
        for (k, v) in changes {
            if *v == 0 {
                model.remove(k);
            } else {
                model.insert(k.clone(), Number::Int(*v));
            }
            changed.push(k);
        }
        let changes_now = changed.resolve(|k| model.get(k).copied().unwrap_or(Number::Int(0)));
        let next = snapshot.successor(
            snapshot.epoch() + 1,
            snapshot.ingested() + changes.len() as u64,
            &changes_now,
            stats,
        );
        next.check_blocks();
        assert_eq!(next.len(), model.len());
        assert!(next.iter().map(|(k, v)| (k.to_vec(), v)).eq(model.clone()));
        next
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ViewSnapshot>();
        assert_send_sync::<SnapshotStore>();
    }

    #[test]
    fn point_lookups_and_absent_means_zero() {
        let s = snap(&[(&[1, 1], 10), (&[1, 2], 20), (&[2, 1], 30)]);
        assert_eq!(s.value(&key(&[1, 2])), Number::Int(20));
        assert_eq!(s.get(&key(&[0, 0])), None);
        assert_eq!(s.get(&key(&[9, 9])), None);
        assert_eq!(s.value(&key(&[9, 9])), Number::Int(0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn prefix_scans_return_the_contiguous_run() {
        let s = snap(&[
            (&[1, 1], 10),
            (&[1, 2], 20),
            (&[2, 1], 30),
            (&[2, 5], 40),
            (&[3, 0], 50),
        ]);
        let hits: Vec<Number> = s.prefix_scan(&key(&[2])).map(|(_, v)| v).collect();
        assert_eq!(hits, vec![Number::Int(30), Number::Int(40)]);
        assert_eq!(s.prefix_scan(&key(&[7])).count(), 0);
        // An empty prefix scans everything.
        assert_eq!(s.prefix_scan(&[]).count(), 5);
    }

    #[test]
    fn scans_and_lookups_cross_block_boundaries() {
        // 40 prefixes × 25 rows: every prefix run straddles a block boundary somewhere.
        let table: Table = (0..1000)
            .map(|i| (key(&[i / 25, i % 25]), Number::Int(i + 1)))
            .collect();
        let s = export(&table, 2, false);
        s.check_blocks();
        assert!(s.inner.blocks.len() >= 1000 / BLOCK_MAX);
        assert!(s.iter().map(|(k, v)| (k.to_vec(), v)).eq(table.clone()));
        for a in 0..40 {
            let run: Vec<Number> = s.prefix_scan(&key(&[a])).map(|(_, v)| v).collect();
            let want: Vec<Number> = (a * 25..(a + 1) * 25).map(|i| Number::Int(i + 1)).collect();
            assert_eq!(run, want, "prefix {a}");
            assert_eq!(s.prefix_scan(&key(&[a, 7])).count(), 1);
        }
        for (k, v) in &table {
            assert_eq!(s.get(k), Some(*v));
        }
        assert_eq!(s.get(&key(&[3, 25])), None);
        assert_eq!(s.get(&key(&[-1, 0])), None);
        assert_eq!(s.prefix_scan(&key(&[40])).count(), 0);
    }

    #[test]
    fn an_unsorted_export_builds_the_same_snapshot() {
        let table: Table = (0..300).map(|i| (key(&[i]), Number::Int(i + 1))).collect();
        let (sorted, reversed) = (export(&table, 1, false), export(&table, 1, true));
        reversed.check_blocks();
        assert_eq!(sorted.table(), reversed.table());
        assert_eq!(sorted.inner.fences, reversed.inner.fences);
    }

    #[test]
    fn scalar_views_have_one_keyless_row() {
        let mut model = Table::new();
        let mut stats = PublishStats::default();
        let empty = ViewSnapshot::empty(Arc::from("v"), 0, 0);
        assert_eq!(empty.get(&[]), None);
        let one = step(&mut model, &empty, &[(vec![], 5)], &mut stats);
        assert_eq!(one.value(&[]), Number::Int(5));
        assert_eq!(one.prefix_scan(&[]).count(), 1);
        let two = step(&mut model, &one, &[(vec![], 7), (vec![], 7)], &mut stats);
        assert_eq!(
            (one.value(&[]), two.value(&[])),
            (Number::Int(5), Number::Int(7))
        );
        let gone = step(&mut model, &two, &[(vec![], 0)], &mut stats);
        assert!(gone.is_empty() && gone.inner.blocks.is_empty());
    }

    /// A view grows from empty to 6 000 groups and shrinks back to empty through
    /// `successor` alone, in batches whose keys scatter over the whole key range.
    #[test]
    fn grows_from_empty_and_shrinks_back_through_successors_only() {
        const GROUPS: i64 = 6000;
        let scattered = |i: i64| key(&[(i * 7919) % GROUPS]);
        let mut model = Table::new();
        let mut stats = PublishStats::default();
        let mut s = ViewSnapshot::empty(Arc::from("v"), 1, 0);
        let mut peak = None;
        for batch in 0..GROUPS / 50 {
            let changes: Vec<_> = (batch * 50..(batch + 1) * 50)
                .map(|i| (scattered(i), i + 1))
                .collect();
            s = step(&mut model, &s, &changes, &mut stats);
            if s.len() == 3000 {
                peak = Some((s.clone(), model.clone()));
            }
        }
        assert_eq!(s.len(), GROUPS as usize);
        assert!(s.inner.blocks.len() >= GROUPS as usize / BLOCK_MAX);
        for batch in 0..GROUPS / 50 {
            let changes: Vec<_> = (batch * 50..(batch + 1) * 50)
                .map(|i| (scattered(GROUPS - 1 - i), 0))
                .collect();
            s = step(&mut model, &s, &changes, &mut stats);
        }
        assert!(s.is_empty() && s.inner.blocks.is_empty() && s.inner.fences.is_empty());
        // A snapshot held from the way up never moved.
        let (held, table) = peak.expect("the view passed through 3 000 groups");
        held.check_blocks();
        assert_eq!(held.table(), table);
    }

    /// The search asks about rows only inside the run of the target's code, by
    /// binary search, so one code shared by 100 000 rows costs O(log n) comparisons
    /// and a code held by one row costs one.
    #[test]
    fn a_long_run_of_one_code_is_searched_in_logarithmic_comparisons() {
        let asked = &std::cell::Cell::new(0);
        let count = |target: usize| {
            move |row: usize| {
                asked.set(asked.get() + 1);
                row < target
            }
        };
        let inner: Vec<u64> = [vec![1; 10], vec![5; 100_000], vec![9; 10]].concat();
        let whole = vec![5; 100_000];
        let suffix: Vec<u64> = [vec![1; 10], vec![5; 100_000]].concat();
        for codes in [&inner, &whole, &suffix] {
            let run = codes.iter().position(|&c| c == 5).unwrap_or(0);
            for target in [0, 1, 4, 5, 6, 500, 99_999, 100_000] {
                asked.set(0);
                assert_eq!(search(codes, 5, count(run + target)), run + target);
                assert!(asked.get() <= 17, "{} rows asked", asked.get());
            }
        }
        asked.set(0);
        let unique: Vec<u64> = (0..1000).collect();
        assert_eq!((search(&unique, 700, count(700)), asked.get()), (700, 1));
        assert_eq!(search(&inner, 0, |_| unreachable!()), 0);
        assert_eq!(search(&inner, 3, |_| unreachable!()), 10);
        assert_eq!(search(&inner, 10, |_| unreachable!()), inner.len());
        assert_eq!(search(&[], 10, |_| unreachable!()), 0);
    }

    /// First key values built to collide in their codes: strings that share their
    /// first 8 bytes or differ only in padding, ints at and beyond the clamp, and
    /// floats apart only in the bits the code drops. The first `PRESENT` occur in
    /// tables; the rest tie with one of them and are absent.
    fn colliding() -> Vec<Value> {
        let one = 1.0f64.to_bits();
        let mut values: Vec<Value> = ["customer", "customer\0", "customer_0001", "customer_0002"]
            .into_iter()
            .map(Value::str)
            .collect();
        values.extend([i64::MIN, -(1 << 61), 1 << 61, i64::MAX].map(Value::int));
        values.extend([one, one + 1, one + 2].map(|bits| Value::float(f64::from_bits(bits))));
        values.push(Value::Bool(true));
        values.extend([
            Value::str("customer_0003"),
            Value::str("customer\0\0"),
            Value::int(i64::MAX - 1),
            Value::int(i64::MIN + 1),
            Value::float(f64::from_bits(one + 3)),
        ]);
        values
    }
    const PRESENT: usize = 12;

    /// Checks every read of `s` against `model`: `get` and a whole-key prefix scan of
    /// each probe, and a one-column prefix scan of each value in `firsts`.
    fn assert_reads_match(
        s: &ViewSnapshot,
        model: &Table,
        firsts: &[Value],
        probes: &[Vec<Value>],
    ) {
        let owned = |(k, v): (&[Value], Number)| (k.to_vec(), v);
        for key in probes {
            assert_eq!(s.get(key), model.get(key).copied(), "get {key:?}");
            let want = model.get_key_value(key).map(|(k, v)| (k.clone(), *v));
            assert!(s.prefix_scan(key).map(owned).eq(want), "scan {key:?}");
        }
        for first in firsts {
            let want = model
                .iter()
                .filter(|(k, _)| k[0] == *first)
                .map(|(k, v)| (k.clone(), *v));
            let got = s.prefix_scan(std::slice::from_ref(first)).map(owned);
            assert!(got.eq(want), "scan {first:?}");
        }
    }

    /// The complexity claim in counts: a three-key change rebuilds at most three
    /// blocks, shares every other one at its old address, and copies the same number
    /// of rows into a 10 240-group view as into a 40 960-group one (multiples of the
    /// block size, so that both views are cut into blocks of exactly the same size).
    #[test]
    fn a_small_change_rebuilds_only_the_blocks_it_touches() {
        let mut copied = Vec::new();
        for groups in [10_240i64, 40_960] {
            let mut model: Table = (0..groups).map(|i| (key(&[i]), Number::Int(1))).collect();
            let base = export(&model, 1, false);
            let blocks = base.inner.blocks.len();
            let mut stats = PublishStats::default();
            let changes = [
                (key(&[17]), 2),
                (key(&[groups / 2]), 2),
                (key(&[groups - 3]), 2),
            ];
            let next = step(&mut model, &base, &changes, &mut stats);
            assert_eq!(stats.blocks_rebuilt, 3);
            assert_eq!(stats.blocks_shared, blocks as u64 - 3);
            assert_eq!(next.inner.blocks.len(), blocks);
            let moved = (0..blocks)
                .filter(|&b| !next.shares_block(&base, b))
                .count();
            assert_eq!(moved, 3, "untouched blocks keep their addresses");
            let rekeyed = (0..blocks).filter(|&b| !next.shares_keys(&base, b)).count();
            assert_eq!(rekeyed, 0, "a value-only change copies no key");
            assert!(stats.entries_copied <= 3 * BLOCK_MAX as u64);
            // The predecessor still answers with its own values.
            assert_eq!(base.value(&key(&[17])), Number::Int(1));
            assert_eq!(next.value(&key(&[17])), Number::Int(2));
            copied.push(stats.entries_copied);
        }
        assert_eq!(
            copied[0], copied[1],
            "rows copied must not depend on view size"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After every commit the successor equals a from-scratch export of the
        /// model (rows, `len`, block invariants), and every snapshot held along the
        /// way keeps answering with the table it was published with.
        #[test]
        fn successors_equal_exports_and_predecessors_never_change(
            batches in prop::collection::vec(
                prop::collection::vec((0i64..400, 0i64..4, 0i64..3), 0..90),
                1..12,
            ),
        ) {
            let mut model = Table::new();
            let mut stats = PublishStats::default();
            let mut s = ViewSnapshot::empty(Arc::from("v"), 2, 0);
            let mut held: Vec<(ViewSnapshot, Table)> = Vec::new();
            for batch in &batches {
                let changes: Vec<_> = batch.iter().map(|&(a, b, v)| (key(&[a, b]), v)).collect();
                s = step(&mut model, &s, &changes, &mut stats);
                let scratch = export(&model, 2, true);
                prop_assert_eq!(s.table(), scratch.table());
                prop_assert_eq!(s.len(), scratch.len());
                for a in [0i64, 57, 399] {
                    prop_assert!(s.prefix_scan(&key(&[a])).eq(scratch.prefix_scan(&key(&[a]))));
                }
                held.push((s.clone(), model.clone()));
            }
            for (snapshot, table) in &held {
                prop_assert_eq!(&snapshot.table(), table);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Keys that collide in their codes, through chained successors: two-column
        /// keys whose first values collide, each present one spanning five blocks so
        /// that runs of tied fences cross block boundaries, and one-column strings
        /// that all share one code, so that every fence ties and every search falls
        /// back to comparing the strings. Every `get` and prefix scan answers like a
        /// `BTreeMap`.
        #[test]
        fn colliding_codes_read_and_publish_like_a_btreemap(
            batches in prop::collection::vec(
                prop::collection::vec((0..PRESENT, 0i64..330, 0i64..3), 0..60),
                1..8,
            ),
        ) {
            let firsts = colliding();
            let at = |f: usize, i: i64| vec![firsts[f].clone(), Value::int(i)];
            let mut model: Table = (0..PRESENT)
                .flat_map(|f| (0..320).map(move |i| (f, i)))
                .map(|(f, i)| (at(f, i), Number::Int(i + 1)))
                .collect();
            let mut s = export(&model, 2, true);
            s.check_blocks();
            prop_assert!(s.inner.blocks.len() >= 4 * PRESENT);
            let name = |i: i64| vec![Value::str(format!("customer_{i:04}"))];
            let mut tied_model: Table = (0..330)
                .filter(|i| i % 3 != 0)
                .map(|i| (name(i), Number::Int(i + 1)))
                .collect();
            let mut tied = export(&tied_model, 1, false);
            prop_assert!(tied.inner.fences.len() >= 4);
            prop_assert!(tied.inner.fences.windows(2).all(|f| f[0] == f[1]));
            let mut stats = PublishStats::default();
            for batch in &batches {
                let changes: Vec<_> = batch.iter().map(|&(f, i, v)| (at(f, i), v)).collect();
                s = step(&mut model, &s, &changes, &mut stats);
                let probes: Vec<_> = batch
                    .iter()
                    .flat_map(|&(f, i, _)| [at(f, i), at(f, -1), at(f, 330)])
                    .chain((PRESENT..firsts.len()).map(|f| at(f, 5)))
                    .collect();
                assert_reads_match(&s, &model, &firsts, &probes);
                let changes: Vec<_> = batch.iter().map(|&(_, i, v)| (name(i), v)).collect();
                tied = step(&mut tied_model, &tied, &changes, &mut stats);
                let probes: Vec<_> = batch
                    .iter()
                    .flat_map(|&(_, i, _)| [name(i), name(-1), name(330)])
                    .chain(["customer", "customer_"].map(|k| vec![Value::str(k)]))
                    .collect();
                assert_reads_match(&tied, &tied_model, &[], &probes);
            }
        }
    }

    #[test]
    fn store_lifecycle_publish_poison_evict() {
        let store = SnapshotStore::new();
        let slot = store.register(snap(&[(&[1], 5)]));
        assert!(matches!(store.acquire(slot), SnapshotAccess::Published(_)));
        assert_eq!(store.find("v"), Some(slot));
        assert!(matches!(
            store.acquire_named("v"),
            SnapshotAccess::Published(_)
        ));
        assert_eq!(store.published_entries(), 1);

        store.poison(slot);
        match store.acquire(slot) {
            SnapshotAccess::Poisoned(name) => assert_eq!(&*name, "v"),
            other => panic!("expected poisoned, got {other:?}"),
        }
        assert_eq!(store.published_entries(), 0);
        // Poisoned views are still name-addressable (the error must name them).
        assert_eq!(store.find("v"), Some(slot));
        assert!(matches!(
            store.acquire_named("v"),
            SnapshotAccess::Poisoned(_)
        ));

        let epoch = store.next_epoch();
        store.publish(slot, snap(&[(&[1], 6), (&[2], 7)]));
        assert!(epoch >= 1);
        assert!(matches!(store.acquire(slot), SnapshotAccess::Published(_)));
        assert_eq!(store.published_entries(), 2);

        store.evict(slot);
        assert!(matches!(store.acquire(slot), SnapshotAccess::Dropped));
        assert_eq!(store.find("v"), None);
        assert!(matches!(store.acquire_named("v"), SnapshotAccess::Unknown));
        assert!(matches!(store.acquire(99), SnapshotAccess::Unknown));
    }

    #[test]
    fn publishing_to_a_dropped_slot_does_not_resurrect_it() {
        let store = SnapshotStore::new();
        let slot = store.register(snap(&[(&[1], 5)]));
        store.evict(slot);
        store.publish(slot, snap(&[(&[1], 6)]));
        assert!(matches!(store.acquire(slot), SnapshotAccess::Dropped));
        assert_eq!(store.find("v"), None);
        assert_eq!(store.published_entries(), 0);
        // A view re-created under the freed name gets its own slot.
        let again = store.register(snap(&[(&[1], 7)]));
        assert_eq!(store.find("v"), Some(again));
        store.publish(99, snap(&[(&[1], 8)]));
    }

    #[test]
    fn acquired_snapshots_survive_later_publications_and_evictions() {
        let store = SnapshotStore::new();
        let slot = store.register(snap(&[(&[1], 5)]));
        let held = match store.acquire(slot) {
            SnapshotAccess::Published(s) => s,
            other => panic!("{other:?}"),
        };
        store.publish(slot, snap(&[(&[1], 99)]));
        store.evict(slot);
        // The handle acquired earlier still reads its point-in-time data.
        assert_eq!(held.value(&key(&[1])), Number::Int(5));
    }

    fn published(access: SnapshotAccess) -> ViewSnapshot {
        match access {
            SnapshotAccess::Published(snapshot) => snapshot,
            other => panic!("expected a snapshot, got {other:?}"),
        }
    }

    /// Sets `changes` in the model and commits them into `slot` through the store,
    /// at the next epoch and ten times that `ingested`.
    fn commit(
        store: &SnapshotStore,
        slot: u32,
        model: &mut Table,
        changes: &[(&[i64], i64)],
        stats: &mut PublishStats,
    ) {
        let mut changed = ChangeSet::new();
        for (k, v) in changes {
            if *v == 0 {
                model.remove(&key(k));
            } else {
                model.insert(key(k), Number::Int(*v));
            }
            changed.push(&key(k));
        }
        let epoch = store.next_epoch();
        let current = |k: &[Value]| model.get(k).copied().unwrap_or(Number::Int(0));
        store.commit(slot, epoch, 10 * epoch, &mut changed, current, stats);
    }

    fn model_of(entries: &[(&[i64], i64)]) -> Table {
        entries
            .iter()
            .map(|(k, v)| (key(k), Number::Int(*v)))
            .collect()
    }

    /// Commits into a slot no acquire has touched record their values instead of
    /// building; the first acquire builds them all, stamped with the last commit's
    /// epoch and `ingested`, and from then on each commit builds at once.
    #[test]
    fn commits_defer_until_the_first_acquire_builds_them() {
        let store = SnapshotStore::new();
        let initial: &[(&[i64], i64)] = &[(&[1], 5), (&[2], 6)];
        let slot = store.register(snap(initial));
        let mut model = model_of(initial);
        let mut stats = PublishStats::default();
        commit(&store, slot, &mut model, &[(&[1], 7)], &mut stats);
        commit(
            &store,
            slot,
            &mut model,
            &[(&[1], 8), (&[3], 1), (&[2], 0)],
            &mut stats,
        );
        assert_eq!((stats.deferred, stats.blocks_rebuilt), (2, 0));
        // Keys 1 and 3 with their latest values, and key 2's deletion.
        assert_eq!(store.pending_entries(), 3);

        let built = published(store.acquire(slot));
        built.check_blocks();
        assert_eq!(built.table(), model);
        assert_eq!((built.epoch(), built.ingested()), (2, 20));
        assert_eq!(store.pending_entries(), 0);
        assert_eq!(store.publish_stats().pulled, 1);

        let mut stats = PublishStats::default();
        commit(&store, slot, &mut model, &[(&[3], 2)], &mut stats);
        assert_eq!((stats.deferred, stats.blocks_rebuilt), (0, 1));
        let next = published(store.acquire(slot));
        assert_eq!(next.table(), model);
        assert_eq!((next.epoch(), next.ingested()), (3, 30));
        assert_eq!(store.publish_stats().pulled, 1, "nothing left to build");
    }

    /// A pending set holds one entry per key, the latest value, and forgets a group
    /// created and deleted again since the snapshot it builds on.
    #[test]
    fn pending_keeps_one_entry_per_key_and_forgets_transient_groups() {
        let store = SnapshotStore::new();
        let initial: &[(&[i64], i64)] = &[(&[1], 5)];
        let slot = store.register(snap(initial));
        let mut model = model_of(initial);
        let mut stats = PublishStats::default();
        let mut step = |changes: &[(&[i64], i64)]| {
            commit(&store, slot, &mut model, changes, &mut stats);
            store.pending_entries()
        };
        for round in 1..=100 {
            step(&[(&[1], round), (&[2], round)]);
        }
        assert_eq!(step(&[]), 2);
        step(&[(&[2], 0), (&[9], 1)]);
        // Keys 2 and 9 never reached a snapshot; key 1's deletion must be kept.
        assert_eq!(step(&[(&[9], 0), (&[1], 0)]), 1);
        step(&[(&[20], 1), (&[21], 1), (&[22], 1)]);
        // Deleting an entry other than the last moves the last one into its place,
        // where it must still be found.
        assert_eq!(step(&[(&[20], 0), (&[22], 5)]), 3);
        assert_eq!(step(&[(&[22], 6)]), 3);
        let built = published(store.acquire(slot));
        assert_eq!(built.table(), model);
        assert_eq!(built.value(&key(&[22])), Number::Int(6));
        assert_eq!(built.ingested(), 10 * 106);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Commits deferred into a pending set — keys rewritten, created, deleted
        /// and recreated in any order — build on acquire exactly the snapshot a
        /// subscribed slot published at its last commit, and the set holds at most
        /// one entry per key written, none for a group absent before and after.
        #[test]
        fn deferred_commits_build_what_published_commits_serve(
            batches in prop::collection::vec(
                prop::collection::vec((0i64..40, 0i64..3), 0..30),
                1..16,
            ),
        ) {
            let keys: Vec<[i64; 1]> = (0..40).step_by(3).map(|k| [k]).collect();
            let initial: Vec<(&[i64], i64)> = keys.iter().map(|k| (&k[..], 1)).collect();
            let (lazy, eager) = (SnapshotStore::new(), SnapshotStore::new());
            let (l, e) = (lazy.register(snap(&initial)), eager.register(snap(&initial)));
            published(eager.acquire(e));
            let (mut lazy_model, mut eager_model) = (model_of(&initial), model_of(&initial));
            let mut stats = PublishStats::default();
            let mut written = std::collections::BTreeSet::new();
            for batch in &batches {
                let keys: Vec<[i64; 1]> = batch.iter().map(|&(k, _)| [k]).collect();
                let changes: Vec<(&[i64], i64)> =
                    keys.iter().zip(batch).map(|(k, &(_, v))| (&k[..], v)).collect();
                commit(&lazy, l, &mut lazy_model, &changes, &mut stats);
                commit(&eager, e, &mut eager_model, &changes, &mut stats);
                written.extend(batch.iter().map(|&(k, _)| k));
                let transient = written
                    .iter()
                    .filter(|&&k| k % 3 != 0 && !lazy_model.contains_key(&key(&[k])))
                    .count();
                prop_assert!(lazy.pending_entries() <= written.len() - transient);
            }
            let built = published(lazy.acquire(l));
            built.check_blocks();
            let served = published(eager.acquire(e));
            prop_assert_eq!(built.table(), lazy_model);
            prop_assert!(built.iter().eq(served.iter()));
            prop_assert_eq!(built.ingested(), served.ingested());
            prop_assert_eq!(lazy.pending_entries(), 0);
        }
    }

    /// A whole publication covers what is pending, so it discards it; so do
    /// quarantine and eviction, which release the slot's data.
    #[test]
    fn whole_publication_poison_and_evict_discard_pending() {
        let store = SnapshotStore::new();
        let slot = store.register(snap(&[(&[1], 5)]));
        let mut model = model_of(&[(&[1], 5)]);
        let mut stats = PublishStats::default();
        commit(&store, slot, &mut model, &[(&[1], 6)], &mut stats);
        store.publish(slot, snap(&[(&[1], 6), (&[2], 1)]));
        assert_eq!(store.pending_entries(), 0);
        commit(&store, slot, &mut model, &[(&[1], 7)], &mut stats);
        store.poison(slot);
        assert_eq!(store.pending_entries(), 0);
        assert!(matches!(store.acquire(slot), SnapshotAccess::Poisoned(_)));
        store.publish(slot, snap(&[(&[1], 7)]));
        let slot2 = store.register(snap(&[(&[4], 1)]));
        commit(&store, slot2, &mut Table::new(), &[(&[4], 2)], &mut stats);
        assert_eq!(store.pending_entries(), 1);
        store.evict(slot2);
        assert_eq!(store.pending_entries(), 0);
        assert_eq!(
            published(store.acquire(slot)).value(&key(&[1])),
            Number::Int(7)
        );
    }

    /// A first acquire builds outside the slot mutex. When a commit installs a
    /// newer snapshot meanwhile — merging the same pending set — the build is
    /// thrown away and the acquire returns the commit's snapshot.
    #[test]
    fn a_pull_that_loses_to_a_commit_returns_the_newer_snapshot() {
        let store = SnapshotStore::new();
        let initial: &[(&[i64], i64)] = &[(&[1], 5), (&[2], 6)];
        let slot = store.register(snap(initial));
        let mut model = model_of(initial);
        let mut stats = PublishStats::default();
        commit(
            &store,
            slot,
            &mut model,
            &[(&[1], 7), (&[3], 1)],
            &mut stats,
        );

        let slots = store.slots.read().expect("unpoisoned");
        let Err((base, pending)) = slots[slot as usize].subscribe() else {
            panic!("a commit is pending");
        };
        // The acquire subscribed the slot, so this commit builds, pending included.
        commit(
            &store,
            slot,
            &mut model,
            &[(&[2], 9), (&[3], 4)],
            &mut stats,
        );
        assert_eq!(stats.deferred, 1);
        let got = published(slots[slot as usize].pull(base, pending, &store.totals));
        got.check_blocks();
        assert_eq!(got.table(), model);
        assert_eq!(got.ingested(), 20);
        assert_eq!(
            store.publish_stats().pulled,
            0,
            "the lost build is not installed"
        );
    }

    /// The displaced snapshot outlives one publication inside the store (the writer
    /// frees it, not a reader), and not a second one.
    #[test]
    fn a_displaced_snapshot_is_released_by_the_next_publication() {
        let store = SnapshotStore::new();
        let first = snap(&[(&[1], 5)]);
        let slot = store.register(first.clone());
        store.publish(slot, snap(&[(&[1], 6)]));
        assert_eq!(
            Arc::strong_count(&first.inner),
            2,
            "retired, not yet released"
        );
        store.publish(slot, snap(&[(&[1], 7)]));
        assert_eq!(Arc::strong_count(&first.inner), 1);
        let current = snap(&[(&[1], 8)]);
        store.publish(slot, current.clone());
        store.publish(slot, snap(&[(&[1], 9)]));
        store.poison(slot);
        assert_eq!(
            Arc::strong_count(&current.inner),
            1,
            "clearing releases both"
        );
    }
}
