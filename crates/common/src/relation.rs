//! Relations (finite sets of constant tuples) and hash indexes over them.
//!
//! A relation stores each of its tuples **once**, as a row of columnar
//! storage, and answers membership through a table of row positions
//! rather than a second copy of the tuple:
//!
//! * **Storage** is *generational*: an immutable list of frozen,
//!   internally sorted **stable segments** ([`ColumnSegment`], one
//!   arity-strided `Vec<Value>` each, shared by clones through `Arc`)
//!   plus a mutable **tail** in insertion order, packed the same way.
//!   [`Relation::commit`] sorts the tail in place and hands its buffer
//!   to a new segment. [`Relation::extend_packed`] writes a whole batch
//!   that way without the tail: it sorts and dedups the batch's own
//!   buffer, keeps the rows the relation lacks, and hands the buffer to
//!   the segment — the state inserting each row and committing leaves.
//!   Rows are numbered by *storage position*: the segments in order,
//!   then the tail.
//! * **Membership** is an open-addressing row-id table: each slot holds
//!   the storage position of one live row plus the top bits of its hash.
//!   A probe hashes the borrowed row, walks the slots, and compares a
//!   stored row only when the hash bits match, so `insert`, `contains`
//!   and `contains_row` allocate nothing. Clones share the table until
//!   one of them writes.
//! * **Retraction** ([`Relation::retract`]) keeps the lineage: the dead
//!   row stays where it is, marked in a dead-row bitset and appended (by
//!   position) to a retraction log. Reviving a tuple appends a fresh row,
//!   and the old one stays dead by position. Dead rows are dropped only
//!   once they outnumber the live ones (see [`Relation::compact`]).
//!
//! A [`Generation`] is a cheap copyable cursor `(epoch, segments, recent,
//! retracted)` into that layout; [`Relation::iter_since`] enumerates
//! exactly the rows added after a captured generation and
//! [`Relation::retracted_since`] the rows retracted after it — what
//! semi-naive evaluation needs for its per-round deltas, and what
//! [`Index::absorb_from`] needs to maintain hash indexes incrementally
//! instead of rebuilding them on every version bump. Every scan hands
//! out borrowed `&[Value]` rows (or [`Row`]s) without pointer chasing.
//!
//! An [`Index`] holds no rows either: its postings are the `u32`
//! storage positions of the rows they index, and [`Relation::rows_at`]
//! reads them back through a forward segment cursor. A position names
//! the same row for as long as the relation's [`Generation`] describes
//! a prefix of its storage: segments never move, but a commit sorts the
//! tail, so an index stamped while the tail held rows must be rebuilt
//! after a commit, never probed — [`Index::absorb_from`] refuses such a
//! stamp.

use crate::columnar::{ColumnSegment, Rows};
use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::interner::Symbol;
use crate::space::{
    tuple_bytes, HeapSize, SpaceNode, POSTING_BYTES, SLOT_BYTES, TUPLE_HEADER_BYTES, VALUE_BYTES,
};
use crate::tuple::{Row, Tuple};
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Global source of epoch identifiers. Epochs are unique across all
/// relations in the process, so a generation captured from one relation can
/// never be mistaken for a generation of an unrelated (or diverged) one.
static EPOCH_SOURCE: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// A cursor into a relation's generational storage.
///
/// `epoch` identifies the append-only lineage the cursor belongs to: any
/// non-append mutation (remove, clear, difference) — and the first mutation
/// after the relation was cloned while the clone is still alive — moves the
/// relation to a fresh, globally unique epoch. Within one epoch, storage
/// only grows, so `(segments, recent)` prefix counts fully describe a past
/// state and the suffix beyond them is exactly "what was added since".
///
/// The default generation (`epoch == 0`) matches no real relation; treating
/// it as a delta mark means "everything is new", which is the correct
/// behaviour for relations that did not exist when the mark was captured.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Generation {
    /// Lineage stamp; `0` only in [`Generation::default`].
    pub epoch: u64,
    /// Number of frozen segments at capture time.
    pub segments: usize,
    /// Length of the recent tail at capture time.
    pub recent: usize,
    /// Length of the tombstone log at capture time; see
    /// [`Relation::retract`].
    pub retracted: usize,
}

/// A `Sync`-safe single-slot memo keyed by `(epoch, version)`.
///
/// Replaces the former `Cell`/`RefCell` caches so `Relation` (and thus
/// `Instance`) is `Sync` and can be shared read-only across worker
/// threads. The key includes the epoch, not the version alone: two
/// diverged clones can independently mutate their way to the *same*
/// version number with different contents, and each clone deep-copies
/// the memo on `Clone`, so a version-only key could alias a stale view
/// after clone → diverge. The lock is uncontended in practice (one
/// writer thread between parallel rounds) and poison-tolerant: a
/// panicking reader cannot corrupt a cache slot, so we just take the
/// inner value.
#[derive(Debug, Default)]
struct Memo<T> {
    slot: Mutex<Option<((u64, u64), T)>>,
}

impl<T: Clone> Memo<T> {
    /// The cached value if it was stored under exactly `key`.
    fn get(&self, key: (u64, u64)) -> Option<T> {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// Stores `value` under `key`, displacing any previous entry.
    fn set(&self, key: (u64, u64), value: T) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some((key, value));
    }
}

impl<T: Clone> Clone for Memo<T> {
    fn clone(&self) -> Self {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        Memo {
            slot: Mutex::new(slot.clone()),
        }
    }
}

/// The hash of a row, as the row-id table and the fingerprint use it:
/// the value a [`Tuple`] of the same values hashes to.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    row.hash(&mut h);
    h.finish()
}

/// Low bits of a row-id table entry: the row's storage position. The
/// high bits hold the top bits of the row's hash.
const POS_BITS: u32 = 40;
const POS_MASK: u64 = (1 << POS_BITS) - 1;
/// A slot that never held an entry; it ends every probe.
const EMPTY: u64 = u64::MAX;
/// A slot whose entry was retracted; probes pass over it.
const REMOVED: u64 = u64::MAX - 1;

/// The table entry of the row at `pos` hashing to `h`.
fn slot_entry(h: u64, pos: usize) -> u64 {
    (h & !POS_MASK) | pos as u64
}

/// Bit `pos` of a bitset (unset past its end).
fn bit(bits: &[u64], pos: usize) -> bool {
    bits.get(pos / 64)
        .is_some_and(|word| word >> (pos % 64) & 1 == 1)
}

/// Sets bit `pos` of a bitset to `on`, growing it as needed.
fn set_bit(bits: &mut Vec<u64>, pos: usize, on: bool) {
    if bits.len() <= pos / 64 {
        bits.resize(pos / 64 + 1, 0);
    }
    if on {
        bits[pos / 64] |= 1 << (pos % 64);
    } else {
        bits[pos / 64] &= !(1 << (pos % 64));
    }
}

/// The first position in `0..end` at which `before` fails, for a
/// `before` that holds on a prefix of `0..end`: found by galloping up
/// from `from` when `before` holds just below it, else by a binary
/// search below `from`. An answer `d` positions past `from` costs
/// O(log d) calls.
fn gallop(from: usize, end: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (from, end);
    if from > 0 && !before(from - 1) {
        (lo, hi) = (0, from - 1);
    } else {
        let mut step = 1;
        while lo + step <= end && before(lo + step - 1) {
            lo += step;
            step *= 2;
        }
        hi = hi.min(lo + step - 1);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Rearranges the rows packed in `values` with stride `a` so that row
/// `k` becomes the row that was at `order[k]`: each cycle of the
/// permutation is walked once, holding one row aside. Leaves `order`
/// the identity.
fn permute_rows(values: &mut [Value], a: usize, order: &mut [u32]) {
    let mut held = Vec::with_capacity(a);
    for start in 0..order.len() {
        if order[start] as usize == start {
            continue;
        }
        held.clear();
        held.extend_from_slice(&values[start * a..start * a + a]);
        let mut k = start;
        loop {
            let from = order[k] as usize;
            order[k] = k as u32;
            if from == start {
                values[k * a..k * a + a].copy_from_slice(&held);
                break;
            }
            values.copy_within(from * a..from * a + a, k * a);
            k = from;
        }
    }
}

/// A value's payload, ordered as the values of its kind are: an `Int`
/// has its sign bit flipped, so unsigned order is signed order.
fn payload(v: Value) -> u64 {
    match v {
        Value::Sym(s) => s.index() as u64,
        Value::Int(i) => i as u64 ^ 1 << 63,
        Value::Invented(n) => n,
    }
}

/// A row's sort key: its columns packed into one unsigned integer by a
/// [`KeyLayout`], `u64` when they fit and `u128` otherwise.
trait RowKey: Copy + Ord + Default {
    /// `self` shifted up by `bits`, with `p` in the bits freed.
    fn push(self, bits: u32, p: u64) -> Self;
    /// Shifts the low `bits` out of `self` and returns them.
    fn pop(&mut self, bits: u32) -> u64;
}

macro_rules! row_key {
    ($($t:ty),*) => {$(
        impl RowKey for $t {
            fn push(self, bits: u32, p: u64) -> Self {
                self.checked_shl(bits).unwrap_or(0) | p as $t
            }
            fn pop(&mut self, bits: u32) -> u64 {
                let p = *self & !<$t>::MAX.checked_shl(bits).unwrap_or(0);
                *self = self.checked_shr(bits).unwrap_or(0);
                p as u64
            }
        }
    )*};
}
row_key!(u64, u128);

/// How the sort kernel packs the rows of a buffer into integer keys:
/// each column's payload less the column's smallest, in as many bits as
/// the column spans, first column highest. Every column holds values of
/// one kind, ordered as their payloads are, so the keys' unsigned order
/// is the rows' `Value` order and equal keys are equal rows.
struct KeyLayout {
    /// Per column: a value of its kind, its smallest payload, its bits.
    cols: Vec<(Value, u64, u32)>,
    /// The key's bits: the columns' sum plus the spare low bits.
    bits: u32,
}

impl KeyLayout {
    /// The layout of the rows packed in `values` with stride `a`, with
    /// `spare` low bits left free, found in one pass. `None` for arity
    /// 0, no rows, a column that mixes kinds, or a key over 128 bits.
    fn of(a: usize, values: &[Value], spare: u32) -> Option<KeyLayout> {
        let first = values.get(..a).filter(|_| a > 0)?;
        let mut range: Vec<(Value, u64, u64)> =
            first.iter().map(|&v| (v, payload(v), payload(v))).collect();
        for row in values.chunks_exact(a) {
            for ((kind, lo, hi), &v) in range.iter_mut().zip(row) {
                if std::mem::discriminant(kind) != std::mem::discriminant(&v) {
                    return None;
                }
                let p = payload(v);
                *lo = p.min(*lo);
                *hi = p.max(*hi);
            }
        }
        let cols: Vec<_> = range
            .into_iter()
            .map(|(kind, lo, hi)| (kind, lo, u64::BITS - (hi - lo).leading_zeros()))
            .collect();
        let bits = spare + cols.iter().map(|c| c.2).sum::<u32>();
        (bits <= u128::BITS).then_some(KeyLayout { cols, bits })
    }

    /// The key of `row`, its spare bits clear.
    fn key<K: RowKey>(&self, row: &[Value]) -> K {
        row.iter()
            .zip(&self.cols)
            .fold(K::default(), |k, (&v, &(_, lo, bits))| {
                k.push(bits, payload(v) - lo)
            })
    }

    /// Writes the row whose key is `key` into `row`.
    fn decode<K: RowKey>(&self, mut key: K, row: &mut [Value]) {
        for (v, &(kind, lo, bits)) in row.iter_mut().zip(&self.cols).rev() {
            let p = lo + key.pop(bits);
            *v = match kind {
                Value::Sym(_) => Value::Sym(Symbol::from_index(p as usize)),
                Value::Int(_) => Value::Int((p ^ 1 << 63) as i64),
                Value::Invented(_) => Value::Invented(p),
            };
        }
    }

    /// Sorts the rows of `values` by key and drops the duplicates, in
    /// place; returns how many rows are left.
    fn sort_dedup<K: RowKey>(&self, values: &mut Vec<Value>) -> usize {
        let a = self.cols.len();
        let mut keys: Vec<K> = values.chunks_exact(a).map(|row| self.key(row)).collect();
        keys.sort_unstable();
        keys.dedup();
        for (row, &key) in values.chunks_exact_mut(a).zip(&keys) {
            self.decode(key, row);
        }
        values.truncate(keys.len() * a);
        keys.len()
    }

    /// The order that sorts the rows of `values`, equal rows by index:
    /// each key carries its row's index in its `index_bits` spare bits.
    fn order<K: RowKey>(&self, values: &[Value], index_bits: u32) -> Vec<u32> {
        let mut keys: Vec<K> = values
            .chunks_exact(self.cols.len())
            .zip(0..)
            .map(|(row, i)| self.key::<K>(row).push(index_bits, i))
            .collect();
        keys.sort_unstable();
        keys.iter()
            .map(|&(mut k)| k.pop(index_bits) as u32)
            .collect()
    }
}

/// The order that sorts the `rows` rows packed in `values` with stride
/// `a`: row `k` of the sorted rows is the row at `order[k]`, and equal
/// rows keep their relative order. Sorts integer keys when a
/// [`KeyLayout`] fits the rows beside their index, else compares rows.
fn sort_order(a: usize, rows: usize, values: &[Value]) -> Vec<u32> {
    let n = u32::try_from(rows).expect("rows fit u32");
    let index_bits = u32::BITS - n.saturating_sub(1).leading_zeros();
    match KeyLayout::of(a, values, index_bits) {
        Some(l) if l.bits <= u64::BITS => l.order::<u64>(values, index_bits),
        Some(l) => l.order::<u128>(values, index_bits),
        None => {
            let mut order: Vec<u32> = (0..n).collect();
            let row = |i: u32| &values[i as usize * a..i as usize * a + a];
            order.sort_unstable_by(|&i, &j| row(i).cmp(row(j)).then(i.cmp(&j)));
            order
        }
    }
}

/// Sorts the `rows` rows packed in `values` with stride `arity` and
/// drops the duplicates, in place; returns how many rows are left.
/// Rows a [`KeyLayout`] fits sort as integer keys, decoded back into
/// the buffer; others are permuted into their [`sort_order`].
///
/// # Panics
/// Panics if `values` does not hold exactly `rows` rows of `arity`.
fn sort_dedup_packed(arity: usize, rows: usize, values: &mut Vec<Value>) -> usize {
    assert_eq!(values.len(), rows * arity, "packed length mismatch");
    let a = arity;
    if a == 0 {
        return rows.min(1);
    }
    match KeyLayout::of(a, values, 0) {
        Some(l) if l.bits <= u64::BITS => return l.sort_dedup::<u64>(values),
        Some(l) => return l.sort_dedup::<u128>(values),
        None => {
            let mut order = sort_order(a, rows, values);
            permute_rows(values, a, &mut order);
        }
    }
    let mut kept = 0;
    for i in 0..rows {
        if kept == 0 || values[i * a..i * a + a] != values[(kept - 1) * a..kept * a] {
            values.copy_within(i * a..i * a + a, kept * a);
            kept += 1;
        }
    }
    values.truncate(kept * a);
    kept
}

/// The membership table: linear probing over the storage positions of
/// the live rows, at load ≤ 3/4 counting removed slots.
#[derive(Clone, Debug, Default)]
struct RowTable {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<u64>,
    /// Slots holding [`REMOVED`].
    removed: usize,
}

/// A finite relation instance: a set of same-arity tuples.
///
/// Alongside the generational row storage and its row-id table, the
/// relation keeps its fingerprint up to date, a `version` counter bumped
/// on every content change (used to invalidate the cached [`sorted`]
/// view), and the epoch stamp described on [`Generation`].
///
/// [`sorted`]: Relation::sorted
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Frozen, internally sorted columnar runs; shared by clones via `Arc`.
    segments: Vec<Arc<ColumnSegment>>,
    /// Storage position of each segment's first row.
    starts: Vec<usize>,
    /// Storage position of the tail's first row: the segments' rows.
    tail_base: usize,
    /// Uncommitted rows in insertion order, packed with stride `arity`.
    tail: Vec<Value>,
    /// Rows in the tail (the count arity 0 cannot read off `tail`).
    tail_len: usize,
    /// The table slot of each tail row, so a commit re-points the slots
    /// of the rows its sort moves without probing for them. Empty while
    /// [`Relation::extend_packed`] fills the tail, which it fills in
    /// sorted order and seals straight away.
    tail_slots: Vec<usize>,
    /// Row-id table over the live rows; shared by clones until a write.
    table: Arc<RowTable>,
    /// Live tuples: the rows the table holds.
    live: usize,
    /// Dead-row bitset by storage position (empty while nothing died).
    dead: Vec<u64>,
    /// Tombstone log: the storage positions of the rows retracted from
    /// this lineage, in retraction order. The rows stay in storage (so
    /// generation cursors remain storage prefixes) but every iterator
    /// skips them. Append-only within an epoch, which is what lets
    /// [`Relation::retracted_since`] enumerate exactly the tombstones
    /// added after a mark. Each retraction kills exactly one stored row,
    /// so storage always holds `live + retracted.len()` rows.
    retracted: Vec<usize>,
    /// Length of the log at the last commit: a row the commit's sort
    /// moves can only have been logged after it.
    logged_at_commit: usize,
    /// Wrapping sum of the live rows' hashes; see [`Relation::fingerprint`].
    fingerprint: u64,
    /// Lineage stamp; see [`Generation`].
    epoch: u64,
    /// Shared token used to detect live clones: a mutation observed while
    /// the token is shared forks the epoch so sibling clones (and any index
    /// postings absorbed from them) can never alias this relation's storage.
    epoch_token: Arc<()>,
    version: u64,
    /// `(epoch, version)`-keyed memo for [`Relation::sorted`].
    sorted_cache: Memo<Arc<Vec<Tuple>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            segments: Vec::new(),
            starts: Vec::new(),
            tail_base: 0,
            tail: Vec::new(),
            tail_len: 0,
            tail_slots: Vec::new(),
            table: Arc::default(),
            live: 0,
            dead: Vec::new(),
            retracted: Vec::new(),
            logged_at_commit: 0,
            fingerprint: 0,
            epoch: next_epoch(),
            epoch_token: Arc::new(()),
            version: 0,
            sorted_cache: Memo::default(),
        }
    }

    /// Creates a relation from an iterator of tuples.
    ///
    /// # Panics
    /// Panics if a tuple's arity does not match.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut rel = Relation::new(arity);
        for t in tuples {
            rel.insert(t);
        }
        rel
    }

    /// Builds a relation from `rows` rows packed row-major in `values`,
    /// duplicates allowed, as one segment: the relation
    /// [`extend_packed`](Relation::extend_packed) leaves from empty.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly `rows` rows of `arity`.
    pub fn from_packed(arity: usize, rows: usize, values: Vec<Value>) -> Self {
        let mut rel = Relation::new(arity);
        rel.extend_packed(rows, values, usize::MAX);
        rel
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The mutation counter. Two calls returning the same value guarantee
    /// the contents did not change in between. [`Relation::commit`] does not
    /// bump it: committing reshapes storage without changing contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current generation cursor; capture before a batch of appends to
    /// later enumerate exactly that batch with [`Relation::iter_since`].
    pub fn generation(&self) -> Generation {
        Generation {
            epoch: self.epoch,
            segments: self.segments.len(),
            recent: self.tail_len,
            retracted: self.retracted.len(),
        }
    }

    /// Number of live tombstones in the retraction log.
    pub fn tombstone_count(&self) -> usize {
        self.retracted.len()
    }

    /// Number of frozen stable segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Length of the uncommitted recent tail.
    pub fn recent_len(&self) -> usize {
        self.tail_len
    }

    /// Tuple counts of the frozen stable segments, in storage order.
    pub fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.len()).collect()
    }

    /// The relation's [`SpaceNode`]: one child per frozen segment, one
    /// for the recent tail, one for the row-id table (a slot per live
    /// tuple), and one for the tombstone log when it is not empty.
    /// `items` on the branch is the logical cardinality, not the child
    /// sum — see the invariant note on [`SpaceNode`].
    pub fn space_node(&self, name: &str) -> SpaceNode {
        let per_tuple = tuple_bytes(self.arity) as u64;
        let mut children = Vec::with_capacity(self.segments.len() + 3);
        for (i, seg) in self.segments.iter().enumerate() {
            children.push(SpaceNode::leaf(
                format!("segment {i}"),
                seg.len() as u64,
                seg.len() as u64 * per_tuple,
            ));
        }
        children.push(SpaceNode::leaf(
            "recent tail",
            self.tail_len as u64,
            self.tail_len as u64 * per_tuple,
        ));
        children.push(SpaceNode::leaf(
            "row-id table",
            self.live as u64,
            (self.live * SLOT_BYTES) as u64,
        ));
        if !self.retracted.is_empty() {
            children.push(SpaceNode::leaf(
                "tombstone log",
                self.retracted.len() as u64,
                (self.retracted.len() * SLOT_BYTES) as u64,
            ));
        }
        SpaceNode::branch(format!("{name}/{}", self.arity), self.live as u64, children)
    }

    /// Moves this relation to a fresh epoch if a live clone might still
    /// share the current one. Called before any mutation so that
    /// generations captured from sibling clones stop matching this
    /// storage; calling it up front instead keeps indexes built from
    /// this relation valid through its first mutation.
    pub fn fork_epoch_if_shared(&mut self) {
        if Arc::strong_count(&self.epoch_token) > 1 {
            self.new_epoch();
        }
    }

    /// Starts a fresh lineage.
    fn new_epoch(&mut self) {
        self.epoch_token = Arc::new(());
        self.epoch = next_epoch();
    }

    /// Number of storage positions: the stored rows, dead ones included.
    pub fn stored_rows(&self) -> usize {
        self.tail_base + self.tail_len
    }

    /// The stored row at storage position `pos`.
    #[inline]
    fn row_at(&self, pos: usize) -> &[Value] {
        let a = self.arity;
        if pos >= self.tail_base {
            let i = pos - self.tail_base;
            return &self.tail[i * a..i * a + a];
        }
        let s = self.starts.partition_point(|&start| start <= pos) - 1;
        self.segments[s].row(pos - self.starts[s])
    }

    /// Whether the row at storage position `pos` was retracted.
    pub fn is_dead(&self, pos: usize) -> bool {
        bit(&self.dead, pos)
    }

    /// Looks `row`, hashing to `h`, up in the row-id table: `Ok` with its
    /// slot, or `Err` with the slot an insert of it would take.
    fn probe(&self, h: u64, row: &[Value]) -> Result<usize, usize> {
        let slots = &self.table.slots;
        if slots.is_empty() {
            return Err(0);
        }
        let mask = slots.len() - 1;
        let tag = h & !POS_MASK;
        let mut free = None;
        let mut i = h as usize & mask;
        loop {
            match slots[i] {
                EMPTY => return Err(free.unwrap_or(i)),
                REMOVED => {
                    free.get_or_insert(i);
                }
                e => {
                    if e & !POS_MASK == tag && self.row_at((e & POS_MASK) as usize) == row {
                        return Ok(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuilds the row-id table over the live rows into the smallest
    /// power of two of at least 16 and `min_len` slots, dropping its
    /// removed slots. Returns the wrapping sum of the live rows' hashes:
    /// their fingerprint.
    fn rebuild_table(&mut self, min_len: usize) -> u64 {
        let len = min_len.max(16).next_power_of_two();
        let mask = len - 1;
        let mut slots = vec![EMPTY; len];
        let mut tail_slots = std::mem::take(&mut self.tail_slots);
        let mut fingerprint = 0u64;
        for (pos, row) in self.live_rows(0, usize::MAX) {
            let h = row_hash(row);
            fingerprint = fingerprint.wrapping_add(h);
            let mut i = h as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = slot_entry(h, pos);
            // A tail `extend_packed` fills keeps no slots.
            if let Some(s) = tail_slots.get_mut(pos.wrapping_sub(self.tail_base)) {
                *s = i;
            }
        }
        self.tail_slots = tail_slots;
        self.table = Arc::new(RowTable { slots, removed: 0 });
        fingerprint
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.contains_row(row)
    }

    /// Membership test for a borrowed row (no `Tuple` allocation).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.probe(row_hash(row), row).is_ok()
    }

    /// Sorts the `rows` rows packed in `values` and drops the duplicates
    /// and the rows the relation holds, in place, probing each distinct
    /// row once: [`extend_packed`](Relation::extend_packed)'s probe
    /// without its writes. Returns how many rows are left.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly `rows` rows of the
    /// relation's arity.
    pub fn retain_absent(&self, rows: usize, values: &mut Vec<Value>) -> usize {
        let a = self.arity;
        let rows = sort_dedup_packed(a, rows, values);
        let mut kept = 0;
        for i in 0..rows {
            if !self.contains_row(&values[i * a..i * a + a]) {
                values.copy_within(i * a..i * a + a, kept * a);
                kept += 1;
            }
        }
        values.truncate(kept * a);
        kept
    }

    /// Inserts a tuple, returning `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.insert_row(tuple.values())
    }

    /// Inserts a row, copying it into the tail; returns `true` if it was
    /// new. Reviving a tombstoned tuple appends a fresh row: its dead
    /// rows stay in storage, so earlier cursors remain storage prefixes.
    ///
    /// # Panics
    /// Panics if the row's arity does not match the relation's.
    pub fn insert_row(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "arity mismatch: relation has arity {}, tuple has arity {}",
            self.arity,
            row.len()
        );
        let h = row_hash(row);
        let Err(slot) = self.probe(h, row) else {
            return false;
        };
        self.tail.extend_from_slice(row);
        let slot = self.admit(h, slot);
        self.tail_slots.push(slot);
        true
    }

    /// Adds the `rows` rows packed row-major in `values`, duplicates and
    /// present rows allowed, as one committed segment; returns how many
    /// were new. It sorts the rows and drops the duplicates in place,
    /// probes the row-id table once per distinct row (an empty relation
    /// lacks them all, and fills its table in one pass), moves the rows
    /// the relation lacks to the front of the buffer, and hands the
    /// buffer to the new segment. It stops after `max_new` new rows: the
    /// first ones in sorted order.
    ///
    /// That is the state `insert_row` of each new row and a
    /// [`commit`](Relation::commit) leave — same segments, fingerprint,
    /// version and generation marks, the table grown as those inserts
    /// grow it — without the commit's sort of the tail or re-pointing of
    /// table slots. Rows in the tail are committed first, as a segment
    /// of their own.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly `rows` rows of the
    /// relation's arity.
    pub fn extend_packed(&mut self, rows: usize, mut values: Vec<Value>, max_new: usize) -> usize {
        let a = self.arity;
        self.commit();
        let rows = sort_dedup_packed(a, rows, &mut values);
        // The buffer is the tail while it fills: its first `tail_len`
        // rows are the new ones, where their table entries point.
        self.tail = values;
        if self.live == 0 && self.table.removed == 0 {
            // Every row is new: the first `max_new` stay, and the table
            // is built once, at the size their inserts would grow it to.
            let n = rows.min(max_new);
            if n > 0 {
                self.fork_epoch_if_shared();
                self.tail_len = n;
                self.live = n;
                self.version += n as u64;
                self.fingerprint = self.rebuild_table((4 * n).div_ceil(3));
            }
        } else {
            // Row `i` is dropped or moved down to the tail's end.
            for i in 0..rows {
                if self.tail_len == max_new {
                    break;
                }
                let row = &self.tail[i * a..i * a + a];
                let h = row_hash(row);
                if let Err(slot) = self.probe(h, row) {
                    self.tail.copy_within(i * a..i * a + a, self.tail_len * a);
                    self.admit(h, slot);
                }
            }
        }
        let added = self.tail_len;
        self.tail.truncate(added * a);
        if added == 0 {
            self.tail = Vec::new();
            return 0;
        }
        // The buffer grew by doubling and lost its duplicates: its spare
        // capacity would stay with the segment for the relation's life.
        self.tail.shrink_to_fit();
        self.seal_tail();
        added
    }

    /// Enters the row just written after the tail's rows, absent and
    /// hashing to `h`, into the table at `slot` (from [`probe`]), and
    /// counts it as the tail's last row. Grows the table first when the
    /// entry would take it past load 3/4. Returns the slot it used.
    ///
    /// [`probe`]: Relation::probe
    fn admit(&mut self, h: u64, mut slot: usize) -> usize {
        self.fork_epoch_if_shared();
        if (self.live + self.table.removed + 1) * 4 > self.table.slots.len() * 3 {
            self.rebuild_table(2 * (self.live + 1));
            let (a, i) = (self.arity, self.tail_len);
            slot = self
                .probe(h, &self.tail[i * a..i * a + a])
                .expect_err("row is absent");
        }
        let pos = self.stored_rows();
        let table = Arc::make_mut(&mut self.table);
        if table.slots[slot] == REMOVED {
            table.removed -= 1;
        }
        table.slots[slot] = slot_entry(h, pos);
        self.tail_len += 1;
        self.live += 1;
        self.fingerprint = self.fingerprint.wrapping_add(h);
        self.version += 1;
        slot
    }

    /// Retracts a tuple as a *tombstone*, returning `true` if it was
    /// present.
    ///
    /// Unlike [`Relation::remove`], retraction preserves the append-only
    /// lineage: the stored row stays where it is, it leaves the row-id
    /// table, and its position is marked dead and appended to the
    /// retraction log. Generation cursors captured earlier in this epoch
    /// stay exact — [`Relation::iter_since`] simply filters the dead
    /// rows out and [`Relation::retracted_since`] enumerates the
    /// tombstones added since the mark, which is what lets indexes
    /// un-append postings instead of rebuilding.
    ///
    /// The epoch still forks when a live clone shares the storage:
    /// sibling clones with diverging tombstone logs must never answer
    /// each other's cursors.
    pub fn retract(&mut self, row: &[Value]) -> bool {
        let h = row_hash(row);
        let Ok(slot) = self.probe(h, row) else {
            return false;
        };
        self.fork_epoch_if_shared();
        let table = Arc::make_mut(&mut self.table);
        let pos = (table.slots[slot] & POS_MASK) as usize;
        table.slots[slot] = REMOVED;
        table.removed += 1;
        set_bit(&mut self.dead, pos, true);
        self.retracted.push(pos);
        self.live -= 1;
        self.fingerprint = self.fingerprint.wrapping_sub(h);
        self.version += 1;
        true
    }

    /// Compacts the relation if its dead rows outnumber its live ones:
    /// the live rows are packed into one segment, the tombstone log is
    /// emptied, and a new epoch starts. Returns whether it compacted.
    /// The rule is relative to the relation's size, so the index rebuild
    /// the new epoch forces costs no more than the retractions that led
    /// to it. Contents are unchanged, so the version does not move.
    pub fn compact(&mut self) -> bool {
        self.retracted.len() > self.live && self.repack()
    }

    /// Compacts the relation whenever it holds a dead row, whatever the
    /// ratio (see [`Relation::compact`]); returns whether it compacted.
    /// For a relation about to be copied or kept as a result.
    pub fn pack(&mut self) -> bool {
        self.repack()
    }

    /// Rebuilds the relation from its live rows in a new epoch, through
    /// [`Relation::from_packed`]; the version stays.
    fn repack(&mut self) -> bool {
        if self.retracted.is_empty() {
            return false;
        }
        *self = Relation {
            version: self.version,
            ..Relation::from_packed(self.arity, self.live, self.live_values())
        };
        true
    }

    /// Removes a tuple, returning `true` if it was present.
    ///
    /// A removal breaks the append-only lineage (a hole invalidates every
    /// previously captured prefix cursor), so the relation moves to a fresh
    /// epoch and generational consumers fall back to full rebuilds. The
    /// row is dropped from storage at the next compaction.
    pub fn remove(&mut self, row: &[Value]) -> bool {
        if !self.retract(row) {
            return false;
        }
        self.new_epoch();
        self.compact();
        true
    }

    /// Rebuilds storage as a single tail holding exactly the live rows,
    /// in their previous storage order, and drops the tombstones. Used
    /// after removals that punched holes into frozen segments, and by
    /// compaction.
    fn collapse(&mut self) {
        self.tail = self.live_values();
        self.segments.clear();
        self.starts.clear();
        self.tail_base = 0;
        self.tail_len = self.live;
        self.tail_slots = vec![0; self.live];
        self.dead = Vec::new();
        self.retracted = Vec::new();
        self.logged_at_commit = 0;
        self.rebuild_table(2 * self.live);
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        if self.stored_rows() == 0 {
            return;
        }
        let arity = self.arity;
        *self = Relation {
            version: self.version + 1,
            ..Relation::new(arity)
        };
    }

    /// Freezes the recent tail into a new stable segment (sorted and
    /// packed columnar), returning `true` if anything was committed.
    /// Contents are unchanged, so the version does not move — only the
    /// generation shape does.
    ///
    /// The sort yields a `u32` order of the tail's rows (see
    /// [`sort_order`]); the table slots of the rows it moves are
    /// re-pointed straight from the order, and dead rows (and their log
    /// entries) through a small map built only when the tail holds any.
    /// The packed tail is then permuted in place, cycle by cycle, and its
    /// own buffer becomes the segment: no second copy of the rows is ever
    /// allocated.
    pub fn commit(&mut self) -> bool {
        let logged = std::mem::replace(&mut self.logged_at_commit, self.retracted.len());
        let n = self.tail_len;
        if n == 0 {
            return false;
        }
        let a = self.arity;
        let mut order = sort_order(a, n, &self.tail);
        if order.iter().enumerate().any(|(k, &i)| k != i as usize) {
            self.repoint_tail(logged, &order);
            permute_rows(&mut self.tail, a, &mut order);
        }
        self.seal_tail();
        true
    }

    /// Hands the tail's buffer, sorted, to a new segment: the only place
    /// a segment is added to storage.
    fn seal_tail(&mut self) {
        let values = std::mem::take(&mut self.tail);
        self.segments.push(Arc::new(ColumnSegment::from_packed(
            self.arity,
            self.tail_len,
            values,
        )));
        self.starts.push(self.tail_base);
        self.tail_base += self.tail_len;
        self.tail_len = 0;
        self.tail_slots = Vec::new();
        self.logged_at_commit = self.retracted.len();
    }

    /// Re-points what names a tail row by position at the position the
    /// commit's sort gives it: the row `order[k]` moves to tail index
    /// `k`. Live rows are found through their table slots; dead ones
    /// were logged since the last commit (at `logged` on), and only
    /// those are mapped.
    fn repoint_tail(&mut self, logged: usize, order: &[u32]) {
        let base = self.tail_base;
        let any_dead = self.retracted[logged..].iter().any(|&pos| pos >= base);
        let mut moved_dead: FxHashMap<usize, usize> = FxHashMap::default();
        let table = Arc::make_mut(&mut self.table);
        for (k, &i) in order.iter().enumerate() {
            let i = i as usize;
            if any_dead && bit(&self.dead, base + i) {
                moved_dead.insert(i, k);
            } else {
                let e = &mut table.slots[self.tail_slots[i]];
                *e = (*e & !POS_MASK) | (base + k) as u64;
            }
        }
        if moved_dead.is_empty() {
            return;
        }
        for &i in moved_dead.keys() {
            set_bit(&mut self.dead, base + i, false);
        }
        for &k in moved_dead.values() {
            set_bit(&mut self.dead, base + k, true);
        }
        for pos in &mut self.retracted[logged..] {
            if *pos >= base {
                *pos = base + moved_dead[&(*pos - base)];
            }
        }
    }

    /// Commits the recent tail and returns the live tuples as frozen
    /// segments, shared with this relation rather than copied. A
    /// relation with tombstones packs its live tuples into one fresh
    /// sorted segment instead, since its own segments still hold the
    /// dead rows.
    pub(crate) fn freeze(&mut self) -> Vec<Arc<ColumnSegment>> {
        self.commit();
        if self.retracted.is_empty() {
            return self.segments.clone();
        }
        let mut values = self.live_values();
        let rows = sort_dedup_packed(self.arity, self.live, &mut values);
        vec![Arc::new(ColumnSegment::from_packed(
            self.arity, rows, values,
        ))]
    }

    /// The live rows, packed in storage order.
    fn live_values(&self) -> Vec<Value> {
        let mut values = Vec::with_capacity(self.live * self.arity);
        for (_, row) in self.live_rows(0, usize::MAX) {
            values.extend_from_slice(row);
        }
        values
    }

    /// The live rows at storage positions `lo..hi` (clamped to the
    /// storage), with their positions, in storage order.
    fn live_rows(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, &[Value])> + Clone {
        let hi = hi.min(self.stored_rows());
        let lo = lo.min(hi);
        let all_live = self.retracted.is_empty();
        let first = self
            .starts
            .partition_point(|&start| start <= lo)
            .saturating_sub(1);
        let segments = self.segments[first..]
            .iter()
            .zip(&self.starts[first..])
            .map(move |(seg, &start)| {
                let end = start + seg.len();
                seg.rows_range(lo.clamp(start, end) - start, hi.clamp(start, end) - start)
            });
        let base = self.tail_base;
        let from = lo.max(base) - base;
        let tail = Rows::over(
            &self.tail[from * self.arity..],
            self.arity,
            hi.max(base) - base - from,
        );
        segments
            .flatten()
            .chain(tail)
            .zip(lo..)
            .map(|(row, pos)| (pos, row))
            .filter(move |&(pos, _)| all_live || !self.is_dead(pos))
    }

    /// Iterates over the tuples in storage order, as [`Row`]s.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + Clone {
        self.iter_stored().map(Row)
    }

    /// Iterates in storage order: frozen segments first (each internally
    /// sorted), then the recent tail in insertion order. Every live tuple
    /// appears exactly once as a borrowed row; tombstoned rows are
    /// skipped.
    pub fn iter_stored(&self) -> impl Iterator<Item = &[Value]> + Clone {
        self.iter_stored_range(0, usize::MAX)
    }

    /// The live rows at storage positions `lo..hi`, in storage order.
    /// Positions count every stored row, dead ones included, so the
    /// ranges of a partition of `0..stored_rows()` enumerate
    /// [`Relation::iter_stored`] exactly, in order, and each range starts
    /// at its segment offset in O(log #segments) — what lets
    /// morsel-driven workers jump to their range, tombstones or not.
    pub fn iter_stored_range(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &[Value]> + Clone {
        self.live_rows(lo, hi).map(|(_, row)| row)
    }

    /// The tuples added since `gen` was captured from this relation: the
    /// live rows from storage position [`Relation::delta_start`] on.
    ///
    /// If `gen` does not describe a prefix of this relation's storage (it
    /// came from a different epoch, from a diverged clone, or was captured
    /// mid-tail before a later [`commit`](Relation::commit) folded the tail
    /// into a segment), the iterator conservatively yields a superset of the
    /// true delta — up to the whole relation. Semi-naive evaluation stays
    /// correct under a superset delta (it can only re-derive known facts);
    /// exact-delta consumers should use [`Relation::delta_bounds`] instead.
    ///
    /// Tombstoned tuples are never yielded: a tuple appended after the
    /// mark and retracted again before the call is not part of the live
    /// delta.
    pub fn iter_since(&self, gen: Generation) -> impl Iterator<Item = &[Value]> + Clone {
        self.iter_stored_range(self.delta_start(gen), usize::MAX)
    }

    /// Storage position of the first row [`Relation::iter_since`] reads
    /// for `gen`: the end of the storage prefix `gen` describes, or 0
    /// when it describes none (the conservative whole-relation fallback).
    pub fn delta_start(&self, gen: Generation) -> usize {
        match self.delta_bounds(gen) {
            None => 0,
            Some((seg_from, rec_from)) => match self.starts.get(seg_from) {
                Some(&start) => start,
                None => self.tail_base + rec_from,
            },
        }
    }

    /// The rows retracted since `gen` was captured from this relation,
    /// in retraction order. Falls back to the whole log when `gen`
    /// belongs to another epoch — a conservative superset, since every
    /// logged row is genuinely dead.
    pub fn retracted_since(&self, gen: Generation) -> impl Iterator<Item = &[Value]> {
        self.retracted_positions_since(gen)
            .iter()
            .map(|&pos| self.row_at(pos))
    }

    /// The storage positions of the rows [`Relation::retracted_since`]
    /// yields, in retraction order.
    fn retracted_positions_since(&self, gen: Generation) -> &[usize] {
        let from = if gen.epoch == self.epoch {
            gen.retracted.min(self.retracted.len())
        } else {
            0
        };
        &self.retracted[from..]
    }

    /// The stored rows at `positions`, read through a forward segment
    /// cursor: a position in the segment of the one before it costs a
    /// slice, and only a move to another segment searches for it, from
    /// that segment on when positions ascend — as the postings of an
    /// [`Index`] bucket do. Every position must be below
    /// [`Relation::stored_rows`].
    pub fn rows_at<I: IntoIterator<Item = u32>>(&self, positions: I) -> RowsAt<'_, I::IntoIter> {
        RowsAt {
            relation: self,
            positions: positions.into_iter(),
            seg: 0,
            span: 0..0,
            values: &[],
        }
    }

    /// The storage positions of the rows whose leading columns equal
    /// `key`, when the relation is stored as at most one sorted segment
    /// and no tail (`None` otherwise). Found in place by galloping from
    /// `last`, the span an earlier probe returned: a key at or a little
    /// past the last one costs a few comparisons, and any `last` gives
    /// the right span. The span may hold dead rows
    /// ([`Relation::is_dead`]).
    pub fn prefix_span(&self, key: &[Value], last: Range<usize>) -> Option<Range<usize>> {
        if self.segments.len() > 1 || self.tail_len > 0 {
            return None;
        }
        let (rows, a, k) = (self.tail_base, self.arity, key.len());
        let values = self.segments.first().map_or(&[][..], |s| s.values());
        let lead = |pos: usize| &values[pos * a..pos * a + k];
        let start = gallop(last.start.min(rows), rows, |pos| lead(pos) < key);
        let end = gallop(last.end.clamp(start, rows), rows, |pos| lead(pos) <= key);
        Some(start..end)
    }

    /// Exact delta bounds `(first new segment, first new recent index)` for
    /// a generation, or `None` when `gen` is not a storage prefix and the
    /// delta cannot be reconstructed exactly.
    pub fn delta_bounds(&self, gen: Generation) -> Option<(usize, usize)> {
        if gen.epoch != self.epoch {
            return None;
        }
        if gen.segments > self.segments.len()
            || (gen.segments == self.segments.len() && gen.recent > self.tail_len)
            || gen.retracted > self.retracted.len()
        {
            return None; // cursor is ahead of us: a diverged sibling's mark
        }
        if gen.segments == self.segments.len() {
            Some((gen.segments, gen.recent))
        } else if gen.recent == 0 {
            Some((gen.segments, 0))
        } else {
            None // captured mid-tail; that tail has since been committed
        }
    }

    /// Number of tuples [`Relation::iter_since`] would yield for `gen`
    /// (including the conservative whole-relation fallback).
    pub fn delta_len(&self, gen: Generation) -> usize {
        self.live_between(self.delta_start(gen), usize::MAX)
    }

    /// Number of rows [`Relation::iter_stored_range`] yields for
    /// `lo..hi`: O(1) for the whole storage or a relation without
    /// tombstones, a walk over the range's dead-row bits otherwise.
    pub fn live_between(&self, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.stored_rows());
        let lo = lo.min(hi);
        if lo == 0 && hi == self.stored_rows() {
            self.live
        } else if self.retracted.is_empty() {
            hi - lo
        } else {
            (lo..hi).filter(|&pos| !self.is_dead(pos)).count()
        }
    }

    /// Returns the tuples in sorted order as shared owned storage.
    ///
    /// The view is cached per version: repeated calls between mutations
    /// return the same `Arc` without re-sorting.
    pub fn sorted(&self) -> Arc<Vec<Tuple>> {
        let key = (self.epoch, self.version);
        if let Some(cached) = self.sorted_cache.get(key) {
            return cached;
        }
        let mut acc: Vec<Tuple> = self.iter_stored().map(Tuple::new).collect();
        acc.sort_unstable();
        let view = Arc::new(acc);
        self.sorted_cache.set(key, Arc::clone(&view));
        view
    }

    /// Inserts every tuple of `other`; returns the number actually added.
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn union_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        other
            .iter_stored()
            .filter(|row| self.insert_row(row))
            .count()
    }

    /// Set-difference in place; returns the number removed.
    pub fn difference_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in difference");
        let removed = other.iter_stored().filter(|&row| self.retract(row)).count();
        if removed > 0 {
            self.new_epoch();
            self.collapse();
        }
        removed
    }

    /// True iff both relations hold exactly the same tuples.
    pub fn same_tuples(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.live == other.live
            && self.fingerprint == other.fingerprint
            && self.iter_stored().all(|row| other.contains_row(row))
    }

    /// Collects the values occurring in the relation into `out`.
    pub fn collect_adom(&self, out: &mut FxHashSet<Value>) {
        for row in self.iter_stored() {
            out.extend(row.iter().copied());
        }
    }

    /// An order-independent 64-bit fingerprint of the contents.
    ///
    /// The wrapping sum of the live rows' hashes, so it does not depend
    /// on storage order, and equal contents give equal values. Used
    /// (together with relation names) for instance-level state
    /// fingerprints in cycle detection. Kept up to date by every insert
    /// and retraction from the hash the row-id table computes anyway,
    /// so reading it costs nothing.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl HeapSize for Relation {
    /// One stored-tuple copy per stored row (dead rows included), one
    /// row-id table slot per live tuple, and one log entry per
    /// tombstone. Computed from counts only (O(1)), so engines can
    /// sample it after every rule application. The *logical* byte model
    /// is layout-independent: a columnar row costs the same
    /// `tuple_bytes(arity)` a boxed tuple did.
    fn heap_bytes(&self) -> usize {
        self.stored_rows() * tuple_bytes(self.arity)
            + (self.live + self.retracted.len()) * SLOT_BYTES
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.same_tuples(other)
    }
}

impl Eq for Relation {}

/// Iterator over stored rows by storage position; see
/// [`Relation::rows_at`].
#[derive(Clone, Debug)]
pub struct RowsAt<'a, I> {
    relation: &'a Relation,
    positions: I,
    /// The run the last position fell in — segment `seg`, or the tail
    /// when `seg` is the segment count — its storage positions, and its
    /// packed rows.
    seg: usize,
    span: Range<usize>,
    values: &'a [Value],
}

impl<'a, I> RowsAt<'a, I> {
    /// Moves the cursor to the run holding storage position `pos`,
    /// searching from the current run on when `pos` lies past it.
    #[cold]
    fn seek(&mut self, pos: usize) {
        let r = self.relation;
        if pos >= r.tail_base {
            self.seg = r.segments.len();
            self.span = r.tail_base..r.stored_rows();
            self.values = &r.tail;
            return;
        }
        let from = if pos >= self.span.end { self.seg } else { 0 };
        self.seg = from + r.starts[from..].partition_point(|&start| start <= pos) - 1;
        let seg = &r.segments[self.seg];
        self.span = r.starts[self.seg]..r.starts[self.seg] + seg.len();
        self.values = seg.values();
    }
}

impl<'a, I: Iterator<Item = u32>> Iterator for RowsAt<'a, I> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        let pos = self.positions.next()? as usize;
        if !self.span.contains(&pos) {
            self.seek(pos);
        }
        let (a, i) = (self.relation.arity, pos - self.span.start);
        Some(&self.values[i * a..i * a + a])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

impl<I: ExactSizeIterator<Item = u32>> ExactSizeIterator for RowsAt<'_, I> {}

/// Sentinel for "end of chain" in the open-addressing index.
const NONE32: u32 = u32::MAX;

/// An empty slot of the index's slot table.
const NO_BUCKET: u64 = u64::MAX;

/// The slot entry of bucket `b`, whose key hashes to `h`: the bucket id
/// in the low 32 bits under the top 32 bits of the hash, so a probe
/// passes over other keys without touching their buckets.
fn bucket_entry(h: u64, b: usize) -> u64 {
    (h & !0xFFFF_FFFF) | b as u64
}

/// One bucket of an [`Index`]: its key's hash and its posting chain.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// Cached key hash, for table growth.
    hash: u64,
    /// First posting (`NONE32` when the bucket is empty).
    head: u32,
    /// Last posting, for O(1) order-preserving append.
    tail: u32,
    /// Live postings.
    len: u32,
}

/// Hashes the key columns of a packed row. Must agree with
/// [`hash_key`]: both feed the same `Value` sequence to the hasher.
fn hash_row_key(key_columns: &[usize], row: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    for &c in key_columns {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// Hashes an already-extracted probe key.
fn hash_key(key: &[Value]) -> u64 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// A hash index over a relation: tuples grouped by their values at a
/// fixed set of key columns.
///
/// Built once per (relation generation, key columns) by evaluators and used
/// to drive index-nested-loop joins: `probe` returns exactly the storage
/// positions of the tuples whose key columns equal the probe key, and
/// [`Relation::rows_at`] reads those rows from the relation the index
/// was built over. When the underlying relation only grew since the
/// index was built, [`Index::absorb_from`] appends the new postings
/// instead of rebuilding.
///
/// The layout is open-addressing over packed columns, specialized for
/// the columnar storage:
///
/// * `slots` is a power-of-two linear-probe table mapping key hashes to
///   bucket ids, each tagged with hash bits;
/// * bucket keys live packed in one `Vec<Value>` (stride = #key
///   columns), and each bucket's hash and chain ends in one record, so
///   a probe touches the slot, the key and the bucket;
/// * postings are `u32` storage positions, linked per bucket through a
///   `next` chain that preserves append order — ascending positions,
///   since rows are appended in storage order.
///
/// The index never copies a row: a tuple is stored once, in its
/// relation. Probing and absorbing allocate nothing per tuple.
#[derive(Clone, Debug)]
pub struct Index {
    key_columns: Vec<usize>,
    /// Linear-probe slot table of [`bucket_entry`]s; [`NO_BUCKET`] marks
    /// an empty slot.
    slots: Vec<u64>,
    /// Packed bucket keys, stride `key_columns.len()`.
    keys: Vec<Value>,
    buckets: Vec<Bucket>,
    /// The storage position of each posting's row. Unappended postings
    /// stay (unlinked from their chain) — absorb workloads retract far
    /// fewer rows than they append.
    positions: Vec<u32>,
    /// Per-posting chain links.
    next: Vec<u32>,
    /// Live postings across all buckets.
    live: usize,
    /// Buckets with at least one live posting.
    live_buckets: usize,
    /// The bucket of the last appended row.
    last_bucket: usize,
}

impl Index {
    fn empty(key_columns: &[usize]) -> Self {
        Index {
            key_columns: key_columns.to_vec(),
            slots: Vec::new(),
            keys: Vec::new(),
            buckets: Vec::new(),
            positions: Vec::new(),
            next: Vec::new(),
            live: 0,
            live_buckets: 0,
            last_bucket: usize::MAX,
        }
    }

    /// Builds the index. `key_columns` must be valid positions.
    pub fn build(relation: &Relation, key_columns: &[usize]) -> Self {
        let mut idx = Index::empty(key_columns);
        idx.positions.reserve(relation.len());
        idx.next.reserve(relation.len());
        idx.append_from(relation, 0);
        idx
    }

    /// Builds an index over only the tuples added since `gen` — the shape
    /// semi-naive evaluation uses for its per-round delta scans.
    pub fn build_delta(relation: &Relation, key_columns: &[usize], gen: Generation) -> Self {
        let mut idx = Index::empty(key_columns);
        idx.append_from(relation, relation.delta_start(gen));
        idx
    }

    /// Appends a posting for every live row of `relation` from storage
    /// position `lo` on, in storage order; returns how many.
    fn append_from(&mut self, relation: &Relation, lo: usize) -> usize {
        let mut appended = 0;
        for (pos, row) in relation.live_rows(lo, usize::MAX) {
            self.append(pos, row);
            appended += 1;
        }
        appended
    }

    /// The key slice of bucket `b`.
    fn key_of(&self, b: usize) -> &[Value] {
        let k = self.key_columns.len();
        &self.keys[b * k..(b + 1) * k]
    }

    /// True iff bucket `b`'s key equals `row`'s key columns.
    fn key_matches_row(&self, b: usize, row: &[Value]) -> bool {
        let k = self.key_columns.len();
        self.key_columns
            .iter()
            .enumerate()
            .all(|(j, &c)| self.keys[b * k + j] == row[c])
    }

    /// Grows (or seeds) the slot table so the load factor stays ≤ 3/4.
    /// Buckets re-place by their cached hashes — no key re-hashing.
    fn maybe_grow(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![NO_BUCKET; 16];
        } else if (self.buckets.len() + 1) * 4 >= self.slots.len() * 3 {
            let new_len = self.slots.len() * 2;
            let mask = new_len - 1;
            let mut slots = vec![NO_BUCKET; new_len];
            for (b, bucket) in self.buckets.iter().enumerate() {
                let mut i = (bucket.hash as usize) & mask;
                while slots[i] != NO_BUCKET {
                    i = (i + 1) & mask;
                }
                slots[i] = bucket_entry(bucket.hash, b);
            }
            self.slots = slots;
        }
    }

    /// Walks the probe sequence of hash `h`: `Ok` with the bucket whose
    /// key `matches`, or `Err` with the empty slot that ends the walk.
    #[inline]
    fn find(&self, h: u64, matches: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let tag = bucket_entry(h, 0);
        let mut i = (h as usize) & mask;
        loop {
            match self.slots[i] {
                NO_BUCKET => return Err(i),
                e => {
                    let b = (e & 0xFFFF_FFFF) as usize;
                    if e & !0xFFFF_FFFF == tag && matches(b) {
                        return Ok(b);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds the bucket for an extracted probe key, if present.
    fn find_bucket_for_key(&self, h: u64, key: &[Value]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(h, |b| self.key_of(b) == key).ok()
    }

    /// Finds the bucket whose key matches `row`'s key columns, if present.
    fn find_bucket_for_row(&self, h: u64, row: &[Value]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(h, |b| self.key_matches_row(b, row)).ok()
    }

    /// Finds or creates the bucket for `row`'s key columns.
    fn bucket_for_row(&mut self, h: u64, row: &[Value]) -> usize {
        self.maybe_grow();
        let slot = match self.find(h, |b| self.key_matches_row(b, row)) {
            Ok(b) => return b,
            Err(slot) => slot,
        };
        let b = self.buckets.len();
        for &c in &self.key_columns {
            self.keys.push(row[c]);
        }
        self.buckets.push(Bucket {
            hash: h,
            head: NONE32,
            tail: NONE32,
            len: 0,
        });
        self.slots[slot] = bucket_entry(h, b);
        b
    }

    /// Appends a posting for `row`, stored at position `pos`, at the end
    /// of its bucket. Positions must ascend within a bucket.
    fn append(&mut self, pos: usize, row: &[Value]) {
        // Sorted storage appends runs of rows with one key: a row whose
        // key is the last row's joins its bucket without hashing.
        let b = match self.last_bucket {
            b if b < self.buckets.len() && self.key_matches_row(b, row) => b,
            _ => {
                let h = hash_row_key(&self.key_columns, row);
                self.bucket_for_row(h, row)
            }
        };
        self.last_bucket = b;
        let pos = u32::try_from(pos).expect("storage position fits a u32 posting");
        let r = u32::try_from(self.positions.len()).expect("postings fit u32 links");
        self.positions.push(pos);
        self.next.push(NONE32);
        let bucket = &mut self.buckets[b];
        if bucket.len == 0 {
            self.live_buckets += 1;
            bucket.head = r;
        } else {
            debug_assert!(
                self.positions[bucket.tail as usize] < pos,
                "postings ascend"
            );
            self.next[bucket.tail as usize] = r;
        }
        bucket.tail = r;
        bucket.len += 1;
        self.live += 1;
    }

    /// Removes the posting of `row`, stored at position `pos`, if there
    /// is one. Tolerant of absent postings: a tuple inserted *and*
    /// retracted since the index's generation was never appended in the
    /// first place. Postings ascend within a bucket, so the walk stops
    /// at the first position past `pos`.
    fn unappend(&mut self, pos: usize, row: &[Value]) {
        let h = hash_row_key(&self.key_columns, row);
        let Some(b) = self.find_bucket_for_row(h, row) else {
            return;
        };
        let mut prev = NONE32;
        let mut cur = self.buckets[b].head;
        while cur != NONE32 && (self.positions[cur as usize] as usize) < pos {
            prev = cur;
            cur = self.next[cur as usize];
        }
        if cur == NONE32 || self.positions[cur as usize] as usize != pos {
            return;
        }
        let nxt = self.next[cur as usize];
        if prev != NONE32 {
            self.next[prev as usize] = nxt;
        }
        let bucket = &mut self.buckets[b];
        if prev == NONE32 {
            bucket.head = nxt;
        }
        if bucket.tail == cur {
            bucket.tail = prev;
        }
        bucket.len -= 1;
        self.live -= 1;
        if bucket.len == 0 {
            self.live_buckets -= 1;
            bucket.head = NONE32;
            bucket.tail = NONE32;
        }
    }

    /// Number of tuples indexed (live postings across all buckets).
    pub fn tuple_count(&self) -> usize {
        self.live
    }

    /// Absorbs the changes `relation` saw since `gen` (the generation this
    /// index is current for): the postings of the rows retracted since
    /// are unlinked by their logged storage positions, and postings for
    /// the new live rows appended. Returns the number of tuples
    /// appended, or `None` when `gen` is no longer a storage prefix — a
    /// lineage break, or a commit that sorted a tail the index holds
    /// positions in — and the caller must rebuild.
    pub fn absorb_from(&mut self, relation: &Relation, gen: Generation) -> Option<usize> {
        relation.delta_bounds(gen)?;
        for &pos in relation.retracted_positions_since(gen) {
            self.unappend(pos, relation.row_at(pos));
        }
        Some(self.append_from(relation, relation.delta_start(gen)))
    }

    /// The key columns this index was built on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// The storage positions of the tuples whose key columns equal
    /// `key`, ascending (append order); read the rows with
    /// [`Relation::rows_at`] on the relation the index was built over.
    /// The iterator reports its exact length.
    pub fn probe(&self, key: &[Value]) -> Postings<'_> {
        debug_assert_eq!(key.len(), self.key_columns.len());
        let h = hash_key(key);
        match self.find_bucket_for_key(h, key) {
            Some(b) => Postings {
                index: self,
                cur: self.buckets[b].head,
                remaining: self.buckets[b].len as usize,
            },
            None => Postings {
                index: self,
                cur: NONE32,
                remaining: 0,
            },
        }
    }

    /// Number of distinct keys with at least one live posting.
    pub fn distinct_keys(&self) -> usize {
        self.live_buckets
    }
}

/// Iterator over the postings of one [`Index`] bucket, yielding storage
/// positions in append order.
#[derive(Clone, Debug)]
pub struct Postings<'a> {
    index: &'a Index,
    cur: u32,
    remaining: usize,
}

impl Iterator for Postings<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE32 {
            return None;
        }
        let r = self.cur as usize;
        self.cur = self.index.next[r];
        self.remaining -= 1;
        Some(self.index.positions[r])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Postings<'_> {}

impl HeapSize for Index {
    /// One boxed key per live bucket plus one [`POSTING_BYTES`] posting
    /// (a storage position and a chain link) per live posting: the rows
    /// themselves are charged to the relation that stores them.
    fn heap_bytes(&self) -> usize {
        let key_width = TUPLE_HEADER_BYTES + self.key_columns.len() * VALUE_BYTES;
        self.live_buckets * key_width + self.live * POSTING_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn insert_dedups_and_bumps_version() {
        let mut r = Relation::new(2);
        let v0 = r.version();
        assert!(r.insert(t2(1, 2)));
        assert!(r.version() > v0);
        let v1 = r.version();
        assert!(!r.insert(t2(1, 2)));
        assert_eq!(r.version(), v1, "duplicate insert must not bump version");
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.insert(Tuple::from([Value::Int(1)]));
    }

    #[test]
    fn union_and_difference() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        let b = Relation::from_tuples(2, vec![t2(3, 4), t2(5, 6)]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.difference_with(&b), 2);
        assert_eq!(a.len(), 1);
        assert!(a.contains(&t2(1, 2)));
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4), t2(5, 6)]);
        let b = Relation::from_tuples(2, vec![t2(5, 6), t2(1, 2), t2(3, 4)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_cache_invalidates_on_mutation() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        let fp0 = r.fingerprint();
        assert_eq!(r.fingerprint(), fp0, "cached value must be stable");
        r.insert(t2(3, 4));
        let fp1 = r.fingerprint();
        assert_ne!(fp0, fp1);
        r.remove(&t2(3, 4));
        assert_eq!(r.fingerprint(), fp0);
    }

    #[test]
    fn index_probe() {
        let r = Relation::from_tuples(2, vec![t2(1, 10), t2(1, 20), t2(2, 30)]);
        let idx = Index::build(&r, &[0]);
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(idx.probe(&[Value::Int(9)]).count(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn index_probe_preserves_append_order() {
        let mut r = Relation::new(2);
        for k in [30, 10, 20] {
            r.insert(t2(1, k));
        }
        r.commit(); // segment is sorted: (1,10), (1,20), (1,30)
        r.insert(t2(1, 5)); // tail appends after the segment
        let idx = Index::build(&r, &[0]);
        let got: Vec<Tuple> = r
            .rows_at(idx.probe(&[Value::Int(1)]))
            .map(Tuple::new)
            .collect();
        assert_eq!(got, vec![t2(1, 10), t2(1, 20), t2(1, 30), t2(1, 5)]);
    }

    #[test]
    fn index_on_no_columns_groups_everything() {
        let r = Relation::from_tuples(2, vec![t2(1, 10), t2(2, 20)]);
        let idx = Index::build(&r, &[]);
        assert_eq!(idx.probe(&[]).len(), 2);
    }

    #[test]
    fn index_handles_many_distinct_keys_through_growth() {
        let mut r = Relation::new(2);
        for k in 0..500 {
            r.insert(t2(k, k + 1));
            r.insert(t2(k, k + 2));
        }
        let idx = Index::build(&r, &[0]);
        assert_eq!(idx.distinct_keys(), 500);
        assert_eq!(idx.tuple_count(), 1000);
        for k in 0..500 {
            let got: Vec<Tuple> = r
                .rows_at(idx.probe(&[Value::Int(k)]))
                .map(Tuple::new)
                .collect();
            assert_eq!(got, vec![t2(k, k + 1), t2(k, k + 2)], "key {k}");
        }
        assert_eq!(idx.probe(&[Value::Int(999)]).count(), 0);
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        let sorted = r.sorted();
        assert_eq!(*sorted, vec![t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn sorted_is_cached_until_mutation() {
        let mut r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        r.commit();
        let a = r.sorted();
        let b = r.sorted();
        assert!(
            Arc::ptr_eq(&a, &b),
            "unchanged relation must reuse the view"
        );
        assert_eq!(*a, vec![t2(1, 2), t2(3, 4)]);
        r.insert(t2(0, 0));
        let c = r.sorted();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(*c, vec![t2(0, 0), t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn clear_resets() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.clear();
        assert!(r.is_empty());
        // Clearing an already-empty relation should not bump the version.
        let v = r.version();
        r.clear();
        assert_eq!(r.version(), v);
    }

    #[test]
    fn commit_freezes_tail_without_changing_contents() {
        let mut r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        let v = r.version();
        let fp = r.fingerprint();
        assert_eq!(r.segment_count(), 0);
        assert_eq!(r.recent_len(), 2);
        assert!(r.commit());
        assert!(!r.commit(), "empty tail commits nothing");
        assert_eq!(r.segment_count(), 1);
        assert_eq!(r.recent_len(), 0);
        assert_eq!(r.version(), v, "commit must not bump the version");
        assert_eq!(r.fingerprint(), fp);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t2(1, 2)));
    }

    #[test]
    fn iter_since_sees_exactly_the_new_tuples() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.commit();
        let mark = r.generation();
        // Empty delta: nothing new since the mark.
        assert_eq!(r.iter_since(mark).count(), 0);
        // Tail appends are visible…
        r.insert(t2(3, 4));
        r.insert(t2(5, 6));
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(3, 4), t2(5, 6)]);
        // …duplicate inserts are not (they add nothing).
        r.insert(t2(1, 2));
        assert_eq!(r.iter_since(mark).count(), 2);
        // …and so is a committed segment made from them.
        r.commit();
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(3, 4), t2(5, 6)]);
        // A fresh mark after the commit sees nothing.
        assert_eq!(r.iter_since(r.generation()).count(), 0);
    }

    #[test]
    fn iter_since_falls_back_to_superset_on_epoch_change() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        let mark = r.generation();
        r.insert(t2(3, 4));
        r.remove(&t2(3, 4)); // non-append mutation: epoch moves
        assert!(r.delta_bounds(mark).is_none());
        // The conservative fallback yields the whole relation.
        assert_eq!(r.iter_since(mark).count(), r.len());
    }

    #[test]
    fn mutation_after_clone_forks_the_epoch() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2)]);
        let mark = a.generation();
        let b = a.clone();
        assert_eq!(b.generation(), mark, "clones share the generation");
        a.insert(t2(3, 4));
        assert_ne!(
            a.generation().epoch,
            mark.epoch,
            "mutating a shared relation must fork its epoch"
        );
        // The untouched clone still answers exact deltas for the old mark.
        assert_eq!(b.delta_bounds(mark), Some((0, 1)));
        // The mutated one conservatively reports everything.
        assert_eq!(a.iter_since(mark).count(), a.len());
    }

    /// `prefix_span` over a one-segment relation, with tombstones or
    /// without, yields exactly the rows a filter over `iter_stored`
    /// keeps, in storage order: for probe sequences that ascend,
    /// descend, repeat a key, miss, and fall before the first row or
    /// past the last, at every key length, each probe searching from the
    /// span the last one returned or from an arbitrary one. A tail or a
    /// second segment turns the search down.
    #[test]
    fn prefix_span_matches_a_filter_over_storage() {
        let mut rng = crate::rng::Rng::seeded(30);
        for round in 0..400 {
            let a = 1 + rng.gen_index(3);
            let mut rel = Relation::new(a);
            for _ in 0..rng.gen_index(60) {
                let row: Tuple = (0..a)
                    .map(|_| Value::Int(rng.gen_range_i64(1, 7)))
                    .collect();
                rel.insert(row);
            }
            rel.commit();
            if rng.gen_bool(0.5) {
                let rows: Vec<Tuple> = rel.iter_stored().map(Tuple::new).collect();
                for row in rows.iter().filter(|_| rng.gen_bool(0.3)) {
                    rel.retract(row.values());
                }
            }
            // Values 0 and 7 fall before every row and past the last.
            let k = 1 + rng.gen_index(a);
            let mut keys: Vec<Vec<Value>> = (0..24)
                .map(|_| {
                    (0..k)
                        .map(|_| Value::Int(rng.gen_range_i64(0, 8)))
                        .collect()
                })
                .collect();
            match round % 4 {
                0 => keys.sort(),
                1 => keys.sort_by(|x, y| y.cmp(x)),
                2 => {
                    let first = keys[0].clone();
                    keys.iter_mut()
                        .step_by(2)
                        .for_each(|key| key.clone_from(&first));
                }
                _ => {}
            }
            let stored = rel.stored_rows() + 2;
            let mut last = 0..0;
            for key in &keys {
                if rng.gen_bool(0.2) {
                    last = rng.gen_index(stored)..rng.gen_index(stored);
                }
                let span = rel.prefix_span(key, last.clone()).expect("one segment");
                let got: Vec<&[Value]> = rel.iter_stored_range(span.start, span.end).collect();
                let want: Vec<&[Value]> = rel
                    .iter_stored()
                    .filter(|row| row[..k] == key[..])
                    .collect();
                assert_eq!(got, want, "round {round}: key {key:?} from {last:?}");
                last = span;
            }
        }
        let mut rel = Relation::from_tuples(2, [t2(1, 2)]);
        assert_eq!(rel.prefix_span(&[Value::Int(1)], 0..0), None, "a tail");
        rel.commit();
        assert_eq!(rel.prefix_span(&[Value::Int(1)], 0..0), Some(0..1));
        rel.insert(t2(0, 5));
        rel.commit();
        assert_eq!(
            rel.prefix_span(&[Value::Int(1)], 0..0),
            None,
            "two segments"
        );
    }

    #[test]
    fn index_absorbs_tail_appends_and_committed_segments() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10)]);
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let gen0 = r.generation();

        // Empty delta absorbs zero tuples.
        assert_eq!(idx.absorb_from(&r, gen0), Some(0));

        // Tail growth absorbs incrementally.
        r.insert(t2(1, 20));
        assert_eq!(idx.absorb_from(&r, gen0), Some(1));
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);

        // A boundary mark (taken right after a commit) still yields an
        // exact delta even when the new tuples are committed before the
        // absorb — the engines always mark on segment boundaries.
        r.commit();
        let gen1 = r.generation();
        r.insert(t2(2, 30));
        r.commit();
        assert_eq!(idx.absorb_from(&r, gen1), Some(1));
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);

        // Removal breaks the lineage: absorb must refuse.
        r.remove(&t2(2, 30));
        assert_eq!(idx.absorb_from(&r, r.generation()), Some(0));
        let stale = gen1;
        assert_eq!(idx.absorb_from(&r, stale), None);
    }

    /// Compile-time guard: shared-read parallel evaluation requires the
    /// storage types to be `Send + Sync`; this fails to build if a memo
    /// regresses to `Cell`/`RefCell`.
    #[test]
    fn storage_types_are_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Relation>();
        assert_sync::<Index>();
        assert_sync::<Generation>();
        assert_sync::<Memo<u64>>();
    }

    /// Two clones can diverge and then reach the *same* version number
    /// with different contents. The memos are deep-copied per clone and
    /// keyed by `(epoch, version)`, so neither clone may serve the other's
    /// (or its own stale pre-divergence) sorted view or fingerprint.
    #[test]
    fn diverged_clones_never_alias_cached_views() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2)]);
        a.commit();
        let _ = a.sorted(); // warm the memo before cloning
        let _ = a.fingerprint();
        let mut b = a.clone();
        // Both clones mutate once: same version counter, different facts.
        a.insert(t2(3, 4));
        b.insert(t2(5, 6));
        assert_eq!(a.version(), b.version());
        assert_eq!(*a.sorted(), vec![t2(1, 2), t2(3, 4)]);
        assert_eq!(*b.sorted(), vec![t2(1, 2), t2(5, 6)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Divergence through removal (epoch fork) re-sorts too.
        b.remove(&t2(5, 6));
        b.insert(t2(7, 8));
        assert_eq!(*b.sorted(), vec![t2(1, 2), t2(7, 8)]);
    }

    #[test]
    fn delta_len_matches_iter_since() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.commit();
        let mark = r.generation();
        assert_eq!(r.delta_len(mark), 0);
        r.insert(t2(3, 4));
        r.insert(t2(5, 6));
        assert_eq!(r.delta_len(mark), r.iter_since(mark).count());
        r.commit();
        r.insert(t2(7, 8));
        assert_eq!(r.delta_len(mark), 3);
        // Stale mark: conservative fallback counts the whole relation.
        r.remove(&t2(7, 8));
        assert_eq!(r.delta_len(mark), r.len());
    }

    /// Splits storage positions `from..stored_rows()` into `parts`
    /// contiguous ranges and returns their rows, concatenated, after
    /// checking that [`Relation::live_between`] counts each range's rows.
    fn rows_of_ranges(r: &Relation, from: usize, parts: usize) -> Vec<Tuple> {
        let total = r.stored_rows() - from;
        let mut merged: Vec<Tuple> = Vec::new();
        for p in 0..parts {
            let lo = from + p * total / parts;
            let hi = from + (p + 1) * total / parts;
            let rows: Vec<Tuple> = r.iter_stored_range(lo, hi).map(Tuple::new).collect();
            assert_eq!(r.live_between(lo, hi), rows.len(), "{lo}..{hi}");
            merged.extend(rows);
        }
        merged
    }

    /// Contiguous ranges of storage positions from the delta start
    /// partition the delta exactly and in order, for any morsel count
    /// (including more morsels than rows), tombstones or not — the
    /// contract parallel morsel scans rely on.
    #[test]
    fn delta_ranges_partition_the_delta_exactly() {
        let mut r = Relation::from_tuples(2, vec![t2(0, 0)]);
        r.commit();
        let mark = r.generation();
        // A delta spanning a committed segment and a live tail.
        for k in 1..=7 {
            r.insert(t2(k % 3, k));
        }
        r.commit();
        for k in 8..=10 {
            r.insert(t2(k % 3, k));
        }
        assert_eq!(r.delta_start(mark), 1);
        for tombstoned in [false, true] {
            if tombstoned {
                // Dead rows keep their positions; the ranges skip them.
                r.retract(&t2(1, 1));
                r.retract(&t2(1, 10));
            }
            let full: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
            assert_eq!(r.delta_len(mark), full.len());
            for parts in [1usize, 2, 3, 4, 16] {
                let merged = rows_of_ranges(&r, r.delta_start(mark), parts);
                assert_eq!(merged, full, "tombstoned={tombstoned} parts={parts}");
            }
        }
    }

    /// Same partition contract for full storage scans.
    #[test]
    fn iter_stored_range_partitions_storage_exactly() {
        let mut r = Relation::new(2);
        for k in 0..9 {
            r.insert(t2(k, k + 1));
            if k % 4 == 3 {
                r.commit();
            }
        }
        for tombstoned in [false, true] {
            if tombstoned {
                r.retract(&t2(0, 1));
                r.retract(&t2(5, 6));
                assert_eq!(r.stored_rows(), r.len() + 2);
            }
            let full: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
            for parts in [1usize, 2, 5, 12] {
                let merged = rows_of_ranges(&r, 0, parts);
                assert_eq!(merged, full, "tombstoned={tombstoned} parts={parts}");
            }
        }
    }

    #[test]
    fn retract_preserves_the_lineage_and_filters_iteration() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        r.commit();
        let mark = r.generation();
        r.insert(t2(5, 6));
        assert!(r.retract(&t2(1, 2)));
        assert!(!r.retract(&t2(1, 2)), "already dead");
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&t2(1, 2)));
        assert_eq!(r.tombstone_count(), 1);
        // The mark is still an exact storage prefix…
        assert!(r.delta_bounds(mark).is_some());
        // …the live delta is just the new tuple…
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(5, 6)]);
        assert_eq!(r.delta_len(mark), 1);
        // …and the tombstones since the mark are enumerable.
        let dead: Vec<_> = r.retracted_since(mark).map(Tuple::new).collect();
        assert_eq!(dead, vec![t2(1, 2)]);
        // Dead tuples vanish from every view.
        assert_eq!(r.iter_stored().count(), 2);
        assert_eq!(*r.sorted(), vec![t2(3, 4), t2(5, 6)]);
    }

    #[test]
    fn index_absorbs_retractions_by_unappending() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10), t2(1, 20), t2(2, 30)]);
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let mark = r.generation();
        r.retract(&t2(1, 10));
        r.insert(t2(3, 40));
        assert_eq!(idx.absorb_from(&r, mark), Some(1));
        let got: Vec<Tuple> = r
            .rows_at(idx.probe(&[Value::Int(1)]))
            .map(Tuple::new)
            .collect();
        assert_eq!(got, vec![t2(1, 20)]);
        let got: Vec<Tuple> = r
            .rows_at(idx.probe(&[Value::Int(3)]))
            .map(Tuple::new)
            .collect();
        assert_eq!(got, vec![t2(3, 40)]);
        assert_eq!(idx.tuple_count(), 3);
        // Retracting the last posting of a key drops the bucket.
        let mark2 = r.generation();
        r.retract(&t2(2, 30));
        assert_eq!(idx.absorb_from(&r, mark2), Some(0));
        assert_eq!(idx.distinct_keys(), 2);
        // Insert-then-retract inside one delta never reaches the index.
        let mark3 = r.generation();
        r.insert(t2(4, 50));
        r.retract(&t2(4, 50));
        assert_eq!(idx.absorb_from(&r, mark3), Some(0));
        assert_eq!(idx.tuple_count(), 2);
    }

    /// Unappending the head, middle, and tail of one bucket's chain
    /// by storage position keeps the remaining postings in append order,
    /// and a re-append after emptying the bucket revives it.
    #[test]
    fn unappend_keeps_chain_order_at_every_position() {
        let rows: Vec<Tuple> = (0..4).map(|k| t2(1, k)).collect();
        for victim in 0..4 {
            let r = Relation::from_tuples(2, rows.clone());
            let mut idx = Index::build(&r, &[0]);
            // An absent posting (a position the bucket never held) is
            // passed over.
            idx.unappend(9, rows[victim].values());
            assert_eq!(idx.tuple_count(), 4);
            idx.unappend(victim, rows[victim].values());
            let got: Vec<Tuple> = r
                .rows_at(idx.probe(&[Value::Int(1)]))
                .map(Tuple::new)
                .collect();
            let expect: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, t)| t.clone())
                .collect();
            assert_eq!(got, expect, "victim={victim}");
            assert_eq!(idx.tuple_count(), 3);
        }
        // Empty a bucket completely, then revive it.
        let mut r = Relation::from_tuples(2, vec![t2(7, 1)]);
        let mut idx = Index::build(&r, &[0]);
        idx.unappend(0, t2(7, 1).values());
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.probe(&[Value::Int(7)]).count(), 0);
        r.insert(t2(7, 2));
        idx.append(1, r.row_at(1));
        let got: Vec<Tuple> = r
            .rows_at(idx.probe(&[Value::Int(7)]))
            .map(Tuple::new)
            .collect();
        assert_eq!(got, vec![t2(7, 2)]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn reviving_a_tombstoned_tuple_appends_a_fresh_copy() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let mark = r.generation();
        r.retract(&t2(1, 2));
        assert!(r.insert(t2(1, 2)), "revival counts as an insert");
        assert_eq!(
            r.generation().epoch,
            mark.epoch,
            "revival keeps the lineage"
        );
        assert!(r.delta_bounds(mark).is_some(), "old cursors stay exact");
        assert_eq!(r.tombstone_count(), 1, "the dead copy stays logged");
        // Exactly one live copy per member, in every view.
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter_stored().count(), 2);
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(1, 2)]);
        assert_eq!(r.delta_len(mark), 1);
        // The index un-appends the dead copy and appends the fresh one.
        assert_eq!(idx.absorb_from(&r, mark), Some(1));
        let got: Vec<Tuple> = r
            .rows_at(idx.probe(&[Value::Int(1)]))
            .map(Tuple::new)
            .collect();
        assert_eq!(got, vec![t2(1, 2)]);
        // Union-based merges take the same revival path.
        let mut a = Relation::from_tuples(2, vec![t2(7, 8)]);
        a.retract(&t2(7, 8));
        let b = Relation::from_tuples(2, vec![t2(7, 8)]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.iter_stored().count(), 1);
    }

    /// One tuple retracted and revived again and again, across commits
    /// that sort tails holding several of its copies: every view keeps
    /// exactly one live copy, and an index that follows the lineage
    /// agrees with a fresh build after every step. A commit that sorts a
    /// tail the index holds positions in refuses the index's stamp, and
    /// the index is rebuilt rather than probed.
    #[test]
    fn repeated_retract_and_revive_keeps_one_live_copy() {
        let mut r = Relation::from_tuples(2, (0..4).map(|k| t2(k, k)).collect::<Vec<_>>());
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let mut mark = r.generation();
        let check = |r: &Relation, idx: &Index, round: usize| {
            let mut stored: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
            stored.sort_unstable();
            assert_eq!(stored, *r.sorted(), "round {round}");
            let fresh = Index::build(r, &[0]);
            for k in [0, 1, 2, 3, 9] {
                let probe = |idx: &Index| {
                    let mut rows: Vec<Tuple> = r
                        .rows_at(idx.probe(&[Value::Int(k)]))
                        .map(Tuple::new)
                        .collect();
                    rows.sort_unstable();
                    rows
                };
                assert_eq!(probe(idx), probe(&fresh), "round {round}, key {k}");
            }
        };
        for round in 0..8 {
            assert!(r.retract(&t2(2, 2)));
            r.insert(t2(9, round as i64));
            assert!(r.insert(t2(2, 2)));
            assert!(idx.absorb_from(&r, mark).is_some(), "round {round}");
            check(&r, &idx, round);
            mark = r.generation();
            if round % 3 == 2 {
                assert!(mark.recent > 0, "the index holds tail positions");
                r.commit();
                assert_eq!(idx.absorb_from(&r, mark), None, "round {round}");
                idx = Index::build(&r, &[0]);
                check(&r, &idx, round);
                mark = r.generation();
            }
        }
        assert_eq!(r.tombstone_count(), 8);
        assert_eq!(r.len(), 12);
    }

    /// A commit sorts the tail where it lies and hands the tail's own
    /// buffer to the new segment: no second copy of the rows.
    #[test]
    fn commit_sorts_the_tail_in_its_own_buffer() {
        let mut r = Relation::new(2);
        for k in [5, 3, 8, 1, 4, 2, 7, 6] {
            r.insert(t2(k, -k));
        }
        r.retract(&t2(4, -4));
        r.insert(t2(4, -4));
        let buffer = r.tail.as_ptr();
        assert!(r.commit());
        let seg = r.segments.last().expect("committed");
        assert_eq!(
            seg.row(0).as_ptr(),
            buffer,
            "the segment owns the tail's buffer"
        );
        let rows: Vec<Tuple> = seg.rows().map(Tuple::new).collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted, "the segment is sorted");
        assert_eq!(r.iter_stored().count(), 8);
        assert!(r.contains(&t2(4, -4)));
        assert_eq!(r.retracted_since(Generation::default()).count(), 1);
    }

    #[test]
    fn compaction_waits_until_dead_rows_outnumber_live_ones() {
        let mut r = Relation::from_tuples(2, (0..4).map(|k| t2(k, 0)).collect::<Vec<_>>());
        r.commit();
        let mark = r.generation();
        r.retract(&t2(0, 0));
        r.retract(&t2(1, 0));
        assert!(!r.compact(), "2 dead rows do not outnumber 2 live ones");
        assert!(r.delta_bounds(mark).is_some());
        r.retract(&t2(2, 0));
        let version = r.version();
        assert!(r.compact());
        assert_eq!(r.version(), version, "compaction keeps the contents");
        assert!(r.delta_bounds(mark).is_none(), "a new epoch starts");
        assert_eq!(r.tombstone_count(), 0);
        assert_eq!((r.segment_count(), r.recent_len()), (1, 0), "packed");
        let rows: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
        assert_eq!(rows, vec![t2(3, 0)]);
        // A tuple dead before compaction comes back as a plain insert.
        assert!(r.insert(t2(0, 0)));
        assert_eq!(r.iter_stored().count(), 2);
    }

    /// Packing drops every dead row, whatever the ratio, and keeps the
    /// contents; a relation without one is left alone.
    #[test]
    fn packing_drops_dead_rows_whatever_the_ratio() {
        let mut r = Relation::from_tuples(2, (0..4).map(|k| t2(k, 0)).collect::<Vec<_>>());
        r.commit();
        assert!(!r.pack(), "nothing dead");
        r.retract(&t2(0, 0));
        r.insert(t2(0, 0));
        r.retract(&t2(1, 0));
        assert!(!r.compact(), "2 dead rows against 3 live ones");
        assert!(r.pack());
        assert_eq!(r.tombstone_count(), 0);
        assert_eq!((r.segment_count(), r.recent_len()), (1, 0), "packed");
        let mut rows: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![t2(0, 0), t2(2, 0), t2(3, 0)]);
        assert!(!r.pack());
    }

    /// Inserting after many retractions costs one probe of the row-id
    /// table, not a scan of the tombstone log: the table holds only the
    /// live rows, a revival appends a fresh row at the next storage
    /// position, and the dead rows stay dead by position.
    #[test]
    fn revival_check_is_a_map_lookup() {
        let mut r = Relation::new(2);
        for k in 0..2000 {
            r.insert(t2(k, 0));
        }
        for k in 0..1000 {
            r.retract(&t2(k, 0));
        }
        let live_slots = |r: &Relation| {
            let slots = &r.table.slots;
            slots
                .iter()
                .filter(|&&e| e != EMPTY && e != REMOVED)
                .count()
        };
        assert_eq!(live_slots(&r), 1000);
        assert_eq!(r.dead.iter().map(|w| w.count_ones()).sum::<u32>(), 1000);
        let row = r.len() + r.tombstone_count();
        assert_eq!(row, 2000, "every stored row is live or logged dead");
        assert!(r.insert(t2(5, 0)));
        let (slot, pos) = (r.probe(row_hash(t2(5, 0).values()), t2(5, 0).values()), row);
        assert_eq!(r.table.slots[slot.unwrap()] & POS_MASK, pos as u64);
        assert!(r.is_dead(5), "the old copy stays dead");
        assert!(r.insert(t2(5000, 0)));
        assert_eq!(live_slots(&r), 1002);
        assert_eq!(r.tombstone_count(), 1000);
        let copies = r.iter_stored().filter(|row| *row == t2(5, 0).values());
        assert_eq!(copies.count(), 1);
    }

    #[test]
    fn retract_on_a_shared_relation_forks_the_epoch() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        a.commit();
        let mark = a.generation();
        let b = a.clone();
        a.retract(&t2(1, 2));
        assert_ne!(a.generation().epoch, mark.epoch);
        // The untouched clone still answers the old cursor exactly and
        // never sees the sibling's tombstone.
        assert_eq!(b.delta_bounds(mark), Some((1, 0)));
        assert!(b.contains(&t2(1, 2)));
        assert_eq!(b.retracted_since(mark).count(), 0);
    }

    #[test]
    fn absorb_refuses_mid_tail_marks_after_commit() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10)]);
        let mid_tail = r.generation(); // recent == 1, nothing committed yet
        r.insert(t2(2, 20));
        r.commit(); // the marked prefix is now inside the segment
        let mut idx = Index::build(&r, &[0]);
        assert_eq!(idx.absorb_from(&r, mid_tail), None);
        // iter_since degrades to a superset instead of losing tuples.
        assert_eq!(r.iter_since(mid_tail).count(), 2);
    }

    /// The state a relation under test must match: its tuples, and what
    /// happened since the current delta mark.
    #[derive(Clone, Default)]
    struct Model {
        tuples: std::collections::BTreeSet<Tuple>,
        /// Tuples newly inserted since the mark.
        appended: std::collections::BTreeSet<Tuple>,
        /// Tuples retracted since the mark, in order.
        retracted: Vec<Tuple>,
    }

    impl Model {
        fn insert(&mut self, t: &Tuple) -> bool {
            let fresh = self.tuples.insert(t.clone());
            if fresh {
                self.appended.insert(t.clone());
            }
            fresh
        }

        fn retract(&mut self, t: &Tuple) -> bool {
            let gone = self.tuples.remove(t);
            if gone {
                self.retracted.push(t.clone());
            }
            gone
        }
    }

    /// The four values column `column` of a test universe draws from,
    /// by palette: small ints; ints spanning all 64 bits; symbols and
    /// invented values spanning 32 and 64 bits; kinds mixed in a column.
    /// Rows drawn from them take every path of the sort kernel: `u64`
    /// and `u128` keys and the comparator.
    fn palette(palette: usize, column: usize) -> [Value; 4] {
        let sym = |i: usize| Value::Sym(Symbol::from_index(i));
        match palette {
            0 => [0, 1, 2, 3].map(Value::Int),
            1 => [i64::MIN, -1, 0, i64::MAX].map(Value::Int),
            2 if column.is_multiple_of(2) => [0, 1, 2, u32::MAX as usize].map(sym),
            2 => [0, 5, 1 << 63, u64::MAX].map(Value::Invented),
            _ => [sym(1), Value::Int(-5), Value::Int(7), Value::Invented(2)],
        }
    }

    /// Every tuple over the values of `palette_no`: all the tuples a test
    /// can name.
    fn universe(arity: usize, palette_no: usize) -> Vec<Tuple> {
        let mut out = vec![Tuple::from([])];
        for column in 0..arity {
            out = out
                .iter()
                .flat_map(|t| {
                    palette(palette_no, column).map(|v| {
                        let mut values = t.values().to_vec();
                        values.push(v);
                        Tuple::from(values)
                    })
                })
                .collect();
        }
        out
    }

    /// The path the sort kernel takes for the rows packed in `values`
    /// with stride `a` and `spare` index bits: 0 for `u64` keys, 1 for
    /// `u128` keys, 2 for the comparator.
    fn kernel_path(a: usize, values: &[Value], spare: u32) -> usize {
        match KeyLayout::of(a, values, spare) {
            Some(l) if l.bits <= u64::BITS => 0,
            Some(_) => 1,
            None => 2,
        }
    }

    /// Every segment of `r` holds its rows in `Value` order.
    fn assert_segments_sorted(r: &Relation, ctx: &str) {
        for (s, seg) in r.segments.iter().enumerate() {
            let rows: Vec<&[Value]> = (0..seg.len()).map(|i| seg.row(i)).collect();
            assert!(rows.is_sorted(), "{ctx}: segment {s} is not sorted");
        }
    }

    /// Checks `r` against `model`, including the deltas since `mark`.
    fn check_against(r: &Relation, model: &Model, mark: Generation, domain: &[Tuple], ctx: &str) {
        let want: Vec<Tuple> = model.tuples.iter().cloned().collect();
        assert_segments_sorted(r, ctx);
        assert_eq!(r.len(), want.len(), "{ctx}: len");
        let mut stored: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
        stored.sort_unstable();
        assert_eq!(stored, want, "{ctx}: iter_stored");
        assert_eq!(*r.sorted(), want, "{ctx}: sorted");
        for t in domain {
            assert_eq!(
                r.contains(t),
                model.tuples.contains(t),
                "{ctx}: contains {t:?}"
            );
        }
        // The row-id table holds exactly the live rows, each under its
        // own hash bits, and counts its removed slots.
        let entries: Vec<u64> = r
            .table
            .slots
            .iter()
            .copied()
            .filter(|&e| e < REMOVED)
            .collect();
        assert_eq!(entries.len(), r.len(), "{ctx}: table entries");
        for e in entries {
            let pos = (e & POS_MASK) as usize;
            assert!(!r.is_dead(pos), "{ctx}: table names a dead row");
            assert_eq!(
                slot_entry(row_hash(r.row_at(pos)), pos),
                e,
                "{ctx}: table entry"
            );
        }
        let removed = r.table.slots.iter().filter(|&&e| e == REMOVED).count();
        assert_eq!(removed, r.table.removed, "{ctx}: removed slots");
        let fresh = Relation::from_tuples(r.arity(), want.iter().cloned());
        assert_eq!(r.fingerprint(), fresh.fingerprint(), "{ctx}: fingerprint");
        assert!(*r == fresh, "{ctx}: equality");
        let mut since: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        since.sort_unstable();
        assert_eq!(since.len(), r.delta_len(mark), "{ctx}: delta_len");
        // Position ranges partition the delta walk, dead rows or not.
        let ordered: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        let ranged = rows_of_ranges(r, r.delta_start(mark), 3);
        assert_eq!(ranged, ordered, "{ctx}: iter_stored_range");
        if r.delta_bounds(mark).is_some() {
            let added: Vec<Tuple> = model
                .appended
                .intersection(&model.tuples)
                .cloned()
                .collect();
            assert_eq!(since, added, "{ctx}: iter_since");
        } else {
            assert_eq!(since, want, "{ctx}: iter_since fallback");
        }
        if mark.epoch == r.generation().epoch {
            let dead: Vec<Tuple> = r.retracted_since(mark).map(Tuple::new).collect();
            assert_eq!(dead, model.retracted, "{ctx}: retracted_since");
        }
    }

    /// Probes every key of `idx` and of a fresh build over `r`: both hold
    /// the same postings.
    fn check_index(idx: &Index, r: &Relation, domain: &[Tuple], ctx: &str) {
        let fresh = Index::build(r, idx.key_columns());
        assert_eq!(idx.tuple_count(), fresh.tuple_count(), "{ctx}: index size");
        assert_eq!(
            idx.distinct_keys(),
            fresh.distinct_keys(),
            "{ctx}: index keys"
        );
        for t in domain {
            let key = &t.values()[..idx.key_columns().len()];
            let rows =
                |idx: &Index| -> Vec<Tuple> { r.rows_at(idx.probe(key)).map(Tuple::new).collect() };
            let (mut got, mut want) = (rows(idx), rows(&fresh));
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}: index probe {key:?}");
        }
    }

    /// A seeded buffer of `rows` rows for the sort kernel's model test.
    /// Column `c` holds one kind whose payloads span exactly
    /// `widths[c]` bits (`None`: kinds mixed), drawn from `distinct`
    /// payloads per column so that rows repeat.
    fn kernel_buffer(
        rng: &mut crate::rng::Rng,
        rows: usize,
        widths: &[Option<u32>],
        distinct: usize,
    ) -> Vec<Value> {
        let of_kind = |kind: usize, p: u64| match kind {
            0 => Value::Sym(Symbol::from_index(p as usize)),
            1 => Value::Int((p ^ 1 << 63) as i64),
            _ => Value::Invented(p),
        };
        let mut values = vec![Value::Int(0); rows * widths.len()];
        for (c, &width) in widths.iter().enumerate() {
            let column: Vec<Value> = match width {
                Some(w) => {
                    // Symbols hold 32 bits; a 64-bit span of ints runs
                    // from `i64::MIN` to `i64::MAX`.
                    let kind = rng.gen_index(if w <= 32 { 3 } else { 2 }) + usize::from(w > 32);
                    let top = if kind == 0 { u32::MAX.into() } else { u64::MAX };
                    let mask = u64::MAX.checked_shr(64 - w).unwrap_or(0);
                    let lo = match (top - mask).checked_add(1) {
                        Some(room) => rng.next_u64() % room,
                        None => rng.next_u64(),
                    };
                    let mut payloads = vec![lo, lo + mask];
                    payloads.extend((0..distinct).map(|_| lo + (rng.next_u64() & mask)));
                    let mut column: Vec<Value> = (0..rows)
                        .map(|_| of_kind(kind, payloads[rng.gen_index(payloads.len())]))
                        .collect();
                    // Both ends occur, so the span is exactly `w` bits
                    // (of two rows or more).
                    let at = rng.gen_index(rows);
                    column[at] = of_kind(kind, lo);
                    column[(at + 1) % rows] = of_kind(kind, lo + mask);
                    column
                }
                None => (0..rows)
                    .map(|i| of_kind(i % 3, rng.next_u64() % distinct as u64))
                    .collect(),
            };
            for (r, v) in column.into_iter().enumerate() {
                values[r * widths.len() + c] = v;
            }
        }
        values
    }

    /// Checks the sort kernel on one buffer against sorting its rows as
    /// slices: `sort_dedup_packed` leaves the sorted distinct rows, and
    /// `sort_order` is the stable sort of the row indices. Returns the
    /// path the kernel took.
    fn check_kernel(a: usize, values: &[Value], ctx: &str) -> usize {
        // An arity-0 buffer stands for three empty rows.
        let rows = values.len().checked_div(a).unwrap_or(3);
        let row = |i: usize| &values[i * a..i * a + a];
        let mut want: Vec<&[Value]> = (0..rows).map(row).collect();
        want.sort();
        want.dedup();
        let mut got = values.to_vec();
        let kept = sort_dedup_packed(a, rows, &mut got);
        assert_eq!(kept, want.len(), "{ctx}: kept");
        assert_eq!(got, want.concat(), "{ctx}: sorted rows");
        let mut order: Vec<u32> = (0..rows as u32).collect();
        order.sort_by_key(|&i| row(i as usize));
        assert_eq!(sort_order(a, rows, values), order, "{ctx}: order");
        kernel_path(a, values, 0)
    }

    /// The sort kernel matches sorting rows as slices and dropping
    /// repeats, on seeded buffers: arities 0–6; negative ints and
    /// `i64::MIN`/`i64::MAX`; symbol and invented columns; columns that
    /// mix kinds; key widths of exactly 64/65 and 128/129 bits, on the
    /// path each width asks for; one row; every row a repeat.
    #[test]
    fn sort_kernel_matches_a_comparator_sort() {
        let mut rng = crate::rng::Rng::seeded(27);
        // Widths, and the path: 0 for u64 keys, 1 for u128, 2 compare.
        let exact: [(&[u32], usize); 12] = [
            (&[64], 0),
            (&[32, 32], 0),
            (&[63, 1], 0),
            (&[20, 20, 20, 4], 0),
            (&[32, 33], 1),
            (&[64, 1], 1),
            (&[13, 13, 13, 13, 13], 1),
            (&[64, 64], 1),
            (&[43, 43, 42], 1),
            (&[22, 22, 21, 21, 21, 21], 1),
            (&[64, 64, 1], 2),
            (&[22, 22, 22, 21, 21, 21], 2),
        ];
        for (widths, path) in exact {
            let widths: Vec<Option<u32>> = widths.iter().copied().map(Some).collect();
            for round in 0..8 {
                let rows = 2 + rng.gen_index(200);
                let values = kernel_buffer(&mut rng, rows, &widths, 6);
                let ctx = format!("widths {widths:?}, round {round}");
                assert_eq!(check_kernel(widths.len(), &values, &ctx), path, "{ctx}");
            }
        }
        let mut paths = [0; 3];
        for round in 0..600 {
            let a = rng.gen_index(7);
            let widths: Vec<Option<u32>> = (0..a)
                .map(|_| match rng.gen_index(8) {
                    0 => None,
                    1 => Some(0),
                    2 => Some(64),
                    _ => Some(rng.gen_index(65) as u32),
                })
                .collect();
            let rows = match round % 3 {
                0 => 1,
                _ => 1 + rng.gen_index(300),
            };
            let distinct = 1 + rng.gen_index(12);
            let mut values = kernel_buffer(&mut rng, rows, &widths, distinct);
            let ctx = format!("round {round}, widths {widths:?}, rows {rows}");
            paths[check_kernel(a, &values, &ctx)] += 1;
            // Every row a repeat of the first.
            if a > 0 {
                let first = values[..a].to_vec();
                for row in values.chunks_exact_mut(a) {
                    row.copy_from_slice(&first);
                }
                check_kernel(a, &values, &format!("{ctx}, repeats"));
            }
        }
        assert!(paths.iter().all(|&n| n > 0), "kernel paths {paths:?}");
    }

    /// `from_packed` leaves the state `insert_row` of each row and a
    /// commit leave: the same rows in storage order, one segment, no
    /// tail, the same length, fingerprint and version, and a table of
    /// the same size that holds every row — over arities 0–6, with
    /// duplicates.
    #[test]
    fn from_packed_matches_insert_then_commit() {
        for seed in 0..40 {
            let mut rng = crate::rng::Rng::seeded(seed);
            let arity = seed as usize % 7;
            let rows = rng.gen_index(300);
            let values: Vec<Value> = (0..rows * arity)
                .map(|_| Value::Int(rng.gen_index(4) as i64))
                .collect();
            let mut inserted = Relation::new(arity);
            for k in 0..rows {
                inserted.insert_row(&values[k * arity..k * arity + arity]);
            }
            inserted.commit();
            let rows = if arity == 0 { rows.min(1) } else { rows };
            let packed = Relation::from_packed(arity, rows, values);
            let ctx = format!("seed {seed}, arity {arity}");
            let stored = |r: &Relation| -> Vec<Vec<Value>> {
                r.iter_stored().map(<[Value]>::to_vec).collect()
            };
            assert_eq!(stored(&packed), stored(&inserted), "{ctx}: rows");
            assert_eq!(packed.segment_lens(), inserted.segment_lens(), "{ctx}");
            assert_eq!(packed.recent_len(), 0, "{ctx}");
            assert_eq!(packed.len(), inserted.len(), "{ctx}: len");
            assert_eq!(packed.fingerprint(), inserted.fingerprint(), "{ctx}");
            assert_eq!(packed.version(), inserted.version(), "{ctx}: version");
            assert_eq!(
                packed.table.slots.len(),
                inserted.table.slots.len(),
                "{ctx}: table size"
            );
            assert!(packed == inserted, "{ctx}: equality");
            for row in inserted.iter_stored() {
                assert!(packed.contains_row(row), "{ctx}: {row:?} missing");
            }
            let mut more = packed.clone();
            if let Some(row) = inserted.iter_stored().next() {
                assert!(!more.insert_row(row), "{ctx}: a stored row is new");
            }
            if arity > 0 {
                assert!(more.insert_row(&vec![Value::Int(9); arity]), "{ctx}");
            }
        }
    }

    /// A relation of `arity` after a seeded run of inserts, commits and
    /// retractions, its tail holding a row when `tail` draws a new one:
    /// the same relation for the same arguments.
    fn seeded_state(seed: u64, domain: &[Tuple], tail: bool) -> Relation {
        let mut rng = crate::rng::Rng::seeded(seed);
        let mut r = Relation::new(domain[0].arity());
        for _ in 0..rng.gen_index(60) {
            let t = &domain[rng.gen_index(domain.len())];
            match rng.gen_index(5) {
                0 => {
                    r.retract(t);
                }
                1 => {
                    r.commit();
                }
                _ => {
                    r.insert_row(t);
                }
            }
        }
        r.commit();
        if tail {
            r.insert_row(&domain[rng.gen_index(domain.len())]);
        }
        r
    }

    /// `extend_packed` of a batch leaves what `insert_row` of each of its
    /// rows and a commit leave: the same rows in storage order, segment
    /// lengths, length, version and fingerprint, the same rows since and
    /// retractions since a mark captured before, and an index stamped at
    /// that mark absorbs the same way into an index probing the same
    /// rows. Over arities 0–4 and every value palette, batches with
    /// repeats, present and tombstoned rows, on committed relations and
    /// on relations whose tail holds a row, which both commit first. The
    /// table grows to the same size, and every segment is sorted. The
    /// batches take every path of the sort kernel.
    #[test]
    fn extend_packed_matches_insert_then_commit() {
        let (mut revived, mut with_tail, mut paths) = (0, 0, [0; 3]);
        for seed in 0..300 {
            let arity = seed as usize % 5;
            let tail = seed % 3 == 0;
            let domain = universe(arity, seed as usize / 5 % 4);
            let mut rng = crate::rng::Rng::seeded(seed + 1000);
            let batch: Vec<Tuple> = (0..rng.gen_index(80))
                .map(|_| domain[rng.gen_index(domain.len())].clone())
                .collect();
            let mut packed = seeded_state(seed, &domain, tail);
            let mut inserted = seeded_state(seed, &domain, tail);
            let had_tail = packed.recent_len() > 0;
            with_tail += usize::from(had_tail);
            let dead: Vec<&[Value]> = packed.retracted_since(Generation::default()).collect();
            revived += usize::from(
                batch
                    .iter()
                    .any(|t| dead.contains(&t.values()) && !packed.contains(t)),
            );
            let key: Vec<usize> = (0..arity.min(1)).collect();
            let (mark_p, mark_i) = (packed.generation(), inserted.generation());
            let (mut index_p, mut index_i) =
                (Index::build(&packed, &key), Index::build(&inserted, &key));
            // Sorted, the inserts meet the table in the order
            // `extend_packed` probes it.
            inserted.commit();
            let mut order = batch.clone();
            order.sort_unstable();
            let want = order
                .iter()
                .filter(|t| inserted.insert_row(t.values()))
                .count();
            inserted.commit();
            let values: Vec<Value> = batch.iter().flat_map(|t| t.values().to_vec()).collect();
            paths[kernel_path(arity, &values, 0)] += 1;
            let got = packed.extend_packed(batch.len(), values, usize::MAX);
            packed.commit();
            let ctx = format!("seed {seed}, arity {arity}, tail {had_tail}");
            assert_eq!(got, want, "{ctx}: new rows");
            assert_segments_sorted(&packed, &ctx);
            let rows = |it: &mut dyn Iterator<Item = &[Value]>| -> Vec<Vec<Value>> {
                it.map(<[Value]>::to_vec).collect()
            };
            assert_eq!(
                rows(&mut packed.iter_stored()),
                rows(&mut inserted.iter_stored()),
                "{ctx}: rows"
            );
            assert_eq!(
                packed.segment_lens(),
                inserted.segment_lens(),
                "{ctx}: segments"
            );
            assert_eq!(packed.len(), inserted.len(), "{ctx}: len");
            assert_eq!(packed.version(), inserted.version(), "{ctx}: version");
            assert_eq!(
                packed.fingerprint(),
                inserted.fingerprint(),
                "{ctx}: fingerprint"
            );
            assert_eq!(
                packed.table.slots.len(),
                inserted.table.slots.len(),
                "{ctx}: table"
            );
            assert_eq!(
                rows(&mut packed.iter_since(mark_p)),
                rows(&mut inserted.iter_since(mark_i)),
                "{ctx}: iter_since"
            );
            assert_eq!(
                rows(&mut packed.retracted_since(mark_p)),
                rows(&mut inserted.retracted_since(mark_i)),
                "{ctx}: retracted_since"
            );
            let absorbed = index_p.absorb_from(&packed, mark_p);
            assert_eq!(
                absorbed,
                index_i.absorb_from(&inserted, mark_i),
                "{ctx}: absorb_from"
            );
            if absorbed.is_none() {
                (index_p, index_i) = (Index::build(&packed, &key), Index::build(&inserted, &key));
            }
            for t in &domain {
                let key_values = &t.values()[..key.len()];
                assert_eq!(
                    rows(&mut packed.rows_at(index_p.probe(key_values))),
                    rows(&mut inserted.rows_at(index_i.probe(key_values))),
                    "{ctx}: probe {key_values:?}"
                );
            }
        }
        assert!(revived > 0, "no batch revived a tombstoned row");
        assert!(with_tail > 0, "no relation had a tail");
        assert!(paths.iter().all(|&n| n > 0), "kernel paths {paths:?}");
    }

    /// Seeded random sequences of insert, retract, re-insert,
    /// `extend_packed`, commit, compact, pack and clone-then-mutate
    /// against a `BTreeSet` model:
    /// contents, membership, fingerprint, the deltas and tombstones
    /// since captured marks, and an index kept up to date by absorbing
    /// (or rebuilt when the lineage breaks) all stay exact. A second
    /// index absorbs only at segment boundaries, so it is probed across
    /// commits that sorted tails holding dead rows. The values come from
    /// every palette, so commits and batches take every path of the sort
    /// kernel.
    #[test]
    fn random_operations_match_a_set_model() {
        // Commits of tails holding a dead row, and batches, by the path
        // the sort kernel takes.
        let (mut dead_tail_commits, mut batch_paths) = ([0; 3], [0; 3]);
        for seed in 0..60 {
            let mut rng = crate::rng::Rng::seeded(seed);
            let arity = rng.gen_index(3);
            let domain = universe(arity, seed as usize % 4);
            let key: Vec<usize> = (0..arity.min(1)).collect();
            let mut r = Relation::new(arity);
            let mut model = Model::default();
            let mut mark = r.generation();
            let mut idx = Index::build(&r, &key);
            let mut idx_gen = r.generation();
            let mut bidx = Index::build(&r, &key);
            let mut bidx_gen = r.generation();
            let mut sibling: Option<(Relation, Model, Generation)> = None;
            for step in 0..250 {
                let ctx = format!("seed {seed}, arity {arity}, step {step}");
                let t = domain[rng.gen_index(domain.len())].clone();
                match rng.gen_index(13) {
                    0..=3 => assert_eq!(r.insert(t.clone()), model.insert(&t), "{ctx}: insert"),
                    11 => {
                        // A batch with repeats, present and tombstoned
                        // rows, sometimes capped: its sorted distinct rows
                        // go in, after the tail is committed.
                        let batch: Vec<Tuple> = (0..rng.gen_index(8))
                            .map(|_| domain[rng.gen_index(domain.len())].clone())
                            .collect();
                        let max_new = match rng.gen_index(4) {
                            0 => rng.gen_index(3),
                            _ => usize::MAX,
                        };
                        let mut order = batch.clone();
                        order.sort_unstable();
                        order.dedup();
                        let mut want = 0;
                        for t in &order {
                            if want < max_new && model.insert(t) {
                                want += 1;
                            }
                        }
                        let values: Vec<Value> =
                            batch.iter().flat_map(|t| t.values().to_vec()).collect();
                        batch_paths[kernel_path(arity, &values, 0)] += 1;
                        let got = r.extend_packed(batch.len(), values, max_new);
                        assert_eq!(got, want, "{ctx}: extend_packed");
                    }
                    4..=6 => assert_eq!(r.retract(&t), model.retract(&t), "{ctx}: retract"),
                    7 => {
                        let base = r.tail_base;
                        if r.retracted[r.logged_at_commit..].iter().any(|&p| p >= base) {
                            let index_bits = usize::BITS - (r.recent_len() - 1).leading_zeros();
                            dead_tail_commits[kernel_path(arity, &r.tail, index_bits)] += 1;
                        }
                        r.commit();
                    }
                    8 => {
                        r.compact();
                    }
                    9 => {
                        r.pack();
                    }
                    10 => {
                        mark = r.generation();
                        model.appended.clear();
                        model.retracted.clear();
                    }
                    _ => {
                        // Clone, then mutate the clone: the original keeps
                        // its contents and lineage, the clone forks.
                        let mut c = r.clone();
                        let mut cm = model.clone();
                        let u = domain[rng.gen_index(domain.len())].clone();
                        assert_eq!(c.retract(&t), cm.retract(&t), "{ctx}: clone retract");
                        assert_eq!(c.insert(u.clone()), cm.insert(&u), "{ctx}: clone insert");
                        check_against(&c, &cm, mark, &domain, &format!("{ctx} (clone)"));
                        sibling = Some((c, cm, mark));
                    }
                }
                check_against(&r, &model, mark, &domain, &ctx);
                if let Some((c, cm, c_mark)) = &mut sibling {
                    // The sibling keeps diverging while `r` moves on.
                    let u = domain[rng.gen_index(domain.len())].clone();
                    assert_eq!(c.insert(u.clone()), cm.insert(&u), "{ctx}: sibling insert");
                    if step % 3 == 0 {
                        c.commit();
                    }
                    check_against(c, cm, *c_mark, &domain, &format!("{ctx} (sibling)"));
                }
                if idx.absorb_from(&r, idx_gen).is_none() {
                    idx = Index::build(&r, &key);
                }
                idx_gen = r.generation();
                check_index(&idx, &r, &domain, &ctx);
                if r.recent_len() == 0 {
                    if bidx.absorb_from(&r, bidx_gen).is_none() {
                        bidx = Index::build(&r, &key);
                    }
                    bidx_gen = r.generation();
                    check_index(&bidx, &r, &domain, &format!("{ctx} (boundary index)"));
                }
            }
        }
        assert!(
            dead_tail_commits.iter().all(|&n| n > 0),
            "commits of dead tail rows by kernel path: {dead_tail_commits:?}"
        );
        assert!(
            batch_paths.iter().all(|&n| n > 0),
            "batches by kernel path: {batch_paths:?}"
        );
    }
}
