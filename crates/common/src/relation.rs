//! Relations (finite sets of constant tuples) and hash indexes over them.
//!
//! Storage is *generational*: a relation keeps an immutable list of frozen,
//! internally sorted **stable segments** plus a mutable, insertion-ordered
//! **recent tail**. [`Relation::commit`] promotes the tail into a new frozen
//! segment. A [`Generation`] is a cheap copyable cursor `(epoch, segments,
//! recent)` into that layout; [`Relation::iter_since`] enumerates exactly the
//! tuples added after a captured generation, which is what semi-naive
//! evaluation needs for its per-round deltas, and what [`Index::absorb_from`]
//! needs to maintain hash indexes incrementally instead of rebuilding them
//! from scratch on every version bump.
//!
//! Physically, frozen segments are **columnar**: each is a single
//! arity-strided `Vec<Value>` ([`ColumnSegment`]) rather than a
//! `Vec<Tuple>` of per-tuple boxes, so scans walk one contiguous
//! allocation and hand out borrowed `&[Value]` rows without pointer
//! chasing. The recent tail still holds owned [`Tuple`]s (it is built
//! incrementally, one insert at a time); [`Relation::commit`] is the
//! point where rows get packed. [`Index`] is open-addressing over the
//! same packed representation: probe and absorb never allocate a
//! per-tuple box.

use crate::columnar::ColumnSegment;
use crate::hash::{hash_one, FxHashSet, FxHasher};
use crate::space::{tuple_bytes, HeapSize, SpaceNode, TUPLE_HEADER_BYTES, VALUE_BYTES};
use crate::tuple::Tuple;
use crate::value::Value;
use std::hash::Hasher;
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

/// A finite relation instance: a set of same-arity tuples.
///
/// Alongside the generational segment storage, the relation keeps a flat
/// hash set of all tuples for O(1) membership, a `version` counter bumped on
/// every content change (used to invalidate the cached [`fingerprint`] and
/// [`sorted`] views), and the epoch stamp described on [`Generation`].
///
/// [`fingerprint`]: Relation::fingerprint
/// [`sorted`]: Relation::sorted
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Membership set over segments ∪ recent (each tuple stored once there).
    set: FxHashSet<Tuple>,
    /// Frozen, internally sorted columnar runs; shared by clones via `Arc`.
    segments: Vec<Arc<ColumnSegment>>,
    /// Uncommitted tail in insertion order, already deduplicated.
    recent: Vec<Tuple>,
    /// Tombstone log: tuples retracted from this lineage, in retraction
    /// order. Their physical copies stay in `segments`/`recent` (so
    /// generation cursors remain storage prefixes) but they are absent
    /// from `set`, and every iterator filters them out. Append-only
    /// within an epoch, which is what lets [`Relation::retracted_since`]
    /// enumerate exactly the tombstones added after a mark.
    retracted: Vec<Tuple>,
    /// Lineage stamp; see [`Generation`].
    epoch: u64,
    /// Shared token used to detect live clones: a mutation observed while
    /// the token is shared forks the epoch so sibling clones (and any index
    /// postings absorbed from them) can never alias this relation's storage.
    epoch_token: Arc<()>,
    version: u64,
    /// `(epoch, version)`-keyed memo for [`Relation::fingerprint`].
    fingerprint_cache: Memo<u64>,
    /// `(epoch, version)`-keyed memo for [`Relation::sorted`].
    sorted_cache: Memo<Arc<Vec<Tuple>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            set: FxHashSet::default(),
            segments: Vec::new(),
            recent: Vec::new(),
            retracted: Vec::new(),
            epoch: next_epoch(),
            epoch_token: Arc::new(()),
            version: 0,
            fingerprint_cache: Memo::default(),
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

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
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
            recent: self.recent.len(),
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
        self.recent.len()
    }

    /// Tuple counts of the frozen stable segments, in storage order.
    pub fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.len()).collect()
    }

    /// The relation's [`SpaceNode`]: one child per frozen segment, one
    /// for the recent tail, one for the membership set (which owns its
    /// own clone of every tuple). `items` on the branch is the logical
    /// cardinality, not the child sum — see the invariant note on
    /// [`SpaceNode`].
    pub fn space_node(&self, name: &str) -> SpaceNode {
        let per_tuple = tuple_bytes(self.arity) as u64;
        let mut children = Vec::with_capacity(self.segments.len() + 2);
        for (i, seg) in self.segments.iter().enumerate() {
            children.push(SpaceNode::leaf(
                format!("segment {i}"),
                seg.len() as u64,
                seg.len() as u64 * per_tuple,
            ));
        }
        children.push(SpaceNode::leaf(
            "recent tail",
            self.recent.len() as u64,
            self.recent.len() as u64 * per_tuple,
        ));
        children.push(SpaceNode::leaf(
            "membership set",
            self.set.len() as u64,
            self.set.len() as u64 * per_tuple,
        ));
        if !self.retracted.is_empty() {
            children.push(SpaceNode::leaf(
                "tombstone log",
                self.retracted.len() as u64,
                self.retracted.len() as u64 * per_tuple,
            ));
        }
        SpaceNode::branch(
            format!("{name}/{}", self.arity),
            self.set.len() as u64,
            children,
        )
    }

    /// Moves this relation to a fresh epoch if a live clone might still
    /// share the current one. Must be called before any mutation so that
    /// generations captured from sibling clones stop matching this storage.
    fn fork_epoch_if_shared(&mut self) {
        if Arc::strong_count(&self.epoch_token) > 1 {
            self.epoch_token = Arc::new(());
            self.epoch = next_epoch();
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.set.contains(tuple)
    }

    /// Membership test for a borrowed row (no `Tuple` allocation).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.set.contains(row)
    }

    /// Inserts a tuple, returning `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "arity mismatch: relation has arity {}, tuple has arity {}",
            self.arity,
            tuple.arity()
        );
        if self.set.contains(&tuple) {
            return false;
        }
        if self.retracted.contains(&tuple) {
            // Reviving a tombstoned tuple: its dead physical copy is
            // still in storage, so a plain append would make iterators
            // yield it twice. Collapse to the live set (dropping the
            // tombstone log) under a fresh epoch instead.
            self.epoch = next_epoch();
            self.epoch_token = Arc::new(());
            self.collapse_to_set();
        } else {
            self.fork_epoch_if_shared();
        }
        self.set.insert(tuple.clone());
        self.recent.push(tuple);
        self.version += 1;
        true
    }

    /// Retracts a tuple as a *tombstone*, returning `true` if it was
    /// present.
    ///
    /// Unlike [`Relation::remove`], retraction preserves the append-only
    /// lineage: the physical copy stays where it is, the tuple is dropped
    /// from the membership set, and a tombstone is appended to the
    /// retraction log. Generation cursors captured earlier in this epoch
    /// stay exact — [`Relation::iter_since`] simply filters the dead
    /// tuples out and [`Relation::retracted_since`] enumerates the
    /// tombstones added since the mark, which is what lets indexes
    /// un-append postings instead of rebuilding.
    ///
    /// The epoch still forks when a live clone shares the storage:
    /// sibling clones with diverging tombstone logs must never answer
    /// each other's cursors.
    pub fn retract(&mut self, tuple: &Tuple) -> bool {
        if !self.set.contains(tuple) {
            return false;
        }
        self.fork_epoch_if_shared();
        self.set.remove(tuple);
        self.retracted.push(tuple.clone());
        self.version += 1;
        true
    }

    /// Removes a tuple, returning `true` if it was present.
    ///
    /// A removal breaks the append-only lineage (a hole invalidates every
    /// previously captured prefix cursor), so the relation moves to a fresh
    /// epoch and generational consumers fall back to full rebuilds.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if !self.set.remove(tuple) {
            return false;
        }
        self.version += 1;
        self.epoch = next_epoch();
        self.epoch_token = Arc::new(());
        if let Some(pos) = self.recent.iter().position(|t| t == tuple) {
            self.recent.remove(pos);
        } else {
            self.collapse_to_set();
        }
        true
    }

    /// Rebuilds storage as a single recent tail holding exactly the members
    /// of `set`, preserving the previous storage order. Used after removals
    /// that punched holes into frozen segments.
    fn collapse_to_set(&mut self) {
        let mut all: Vec<Tuple> = Vec::with_capacity(self.set.len());
        for seg in &self.segments {
            for row in seg.rows() {
                if self.set.contains(row) {
                    all.push(Tuple::new(row));
                }
            }
        }
        for t in self.recent.drain(..) {
            if self.set.contains(&t) {
                all.push(t);
            }
        }
        self.segments.clear();
        self.recent = all;
        self.retracted.clear();
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        if self.set.is_empty() && self.retracted.is_empty() {
            return;
        }
        self.set.clear();
        self.segments.clear();
        self.recent.clear();
        self.retracted.clear();
        self.version += 1;
        self.epoch = next_epoch();
        self.epoch_token = Arc::new(());
    }

    /// Freezes the recent tail into a new stable segment (sorted and
    /// packed columnar), returning `true` if anything was committed.
    /// Contents are unchanged, so the version does not move — only the
    /// generation shape does. This is the point where per-tuple boxes
    /// from the tail are flattened into one contiguous value buffer.
    pub fn commit(&mut self) -> bool {
        if self.recent.is_empty() {
            return false;
        }
        let mut seg = std::mem::take(&mut self.recent);
        seg.sort_unstable();
        self.segments
            .push(Arc::new(ColumnSegment::from_tuples(self.arity, &seg)));
        true
    }

    /// Commits the recent tail and returns the live tuples as frozen
    /// segments, shared with this relation rather than copied. A
    /// relation with tombstones packs its live tuples into one fresh
    /// segment instead, since its own segments still hold the dead
    /// copies.
    pub(crate) fn freeze(&mut self) -> Vec<Arc<ColumnSegment>> {
        self.commit();
        if self.retracted.is_empty() {
            self.segments.clone()
        } else {
            vec![Arc::new(ColumnSegment::from_tuples(
                self.arity,
                self.sorted().iter(),
            ))]
        }
    }

    /// Iterates over the tuples in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + Clone {
        self.set.iter()
    }

    /// Iterates in storage order: frozen segments first (each internally
    /// sorted), then the recent tail in insertion order. Every live tuple
    /// appears exactly once as a borrowed row; tombstoned tuples are
    /// skipped.
    pub fn iter_stored(&self) -> impl Iterator<Item = &[Value]> + Clone {
        let all_live = self.retracted.is_empty();
        self.segments
            .iter()
            .flat_map(|s| s.rows())
            .chain(self.recent.iter().map(|t| t.values()))
            .filter(move |row| all_live || self.set.contains(*row))
    }

    /// Rows `lo..hi` of [`Relation::iter_stored`]'s enumeration.
    ///
    /// Tombstone-free relations (the hot path) navigate straight to the
    /// right segment offsets instead of skipping row by row, which is
    /// what lets morsel-driven workers jump to their assigned range in
    /// O(#segments) rather than O(lo).
    pub fn iter_stored_range(
        &self,
        lo: usize,
        hi: usize,
    ) -> Box<dyn Iterator<Item = &[Value]> + '_> {
        if self.retracted.is_empty() {
            Box::new(rows_in_range(&self.segments, &self.recent, lo, hi))
        } else {
            Box::new(self.iter_stored().skip(lo).take(hi.saturating_sub(lo)))
        }
    }

    /// The tuples added since `gen` was captured from this relation.
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
    pub fn iter_since(&self, gen: Generation) -> impl Iterator<Item = &[Value]> {
        let (seg_from, rec_from) = self.delta_bounds(gen).unwrap_or((0, 0));
        let all_live = self.retracted.is_empty();
        self.segments[seg_from..]
            .iter()
            .flat_map(|s| s.rows())
            .chain(self.recent[rec_from..].iter().map(|t| t.values()))
            .filter(move |row| all_live || self.set.contains(*row))
    }

    /// Rows `lo..hi` of [`Relation::iter_since`]'s enumeration for `gen`
    /// (including its conservative whole-relation fallback). Offsets are
    /// relative to the delta, not to full storage; the ranges of a
    /// partition of `0..delta_len(gen)` enumerate the delta exactly, in
    /// order — the contract morsel-driven delta scans rely on.
    pub fn iter_since_range(
        &self,
        gen: Generation,
        lo: usize,
        hi: usize,
    ) -> Box<dyn Iterator<Item = &[Value]> + '_> {
        if self.retracted.is_empty() {
            let (seg_from, rec_from) = self.delta_bounds(gen).unwrap_or((0, 0));
            Box::new(rows_in_range(
                &self.segments[seg_from..],
                &self.recent[rec_from..],
                lo,
                hi,
            ))
        } else {
            Box::new(self.iter_since(gen).skip(lo).take(hi.saturating_sub(lo)))
        }
    }

    /// The tombstones appended since `gen` was captured from this
    /// relation, in retraction order. Falls back to the whole log when
    /// `gen` belongs to another epoch — a conservative superset, since
    /// every logged tuple is genuinely dead.
    pub fn retracted_since(&self, gen: Generation) -> impl Iterator<Item = &Tuple> {
        let from = if gen.epoch == self.epoch {
            gen.retracted.min(self.retracted.len())
        } else {
            0
        };
        self.retracted[from..].iter()
    }

    /// Exact delta bounds `(first new segment, first new recent index)` for
    /// a generation, or `None` when `gen` is not a storage prefix and the
    /// delta cannot be reconstructed exactly.
    pub fn delta_bounds(&self, gen: Generation) -> Option<(usize, usize)> {
        if gen.epoch != self.epoch {
            return None;
        }
        if gen.segments > self.segments.len()
            || (gen.segments == self.segments.len() && gen.recent > self.recent.len())
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
    /// (including the conservative whole-relation fallback). Lets parallel
    /// workers split a delta scan into equal contiguous morsels without
    /// first materializing it.
    pub fn delta_len(&self, gen: Generation) -> usize {
        if !self.retracted.is_empty() {
            // Dead tuples hide inside the suffix; count the filtered
            // enumeration instead of trusting the storage arithmetic.
            return self.iter_since(gen).count();
        }
        let (seg_from, rec_from) = self.delta_bounds(gen).unwrap_or((0, 0));
        self.segments[seg_from..]
            .iter()
            .map(|s| s.len())
            .sum::<usize>()
            + (self.recent.len() - rec_from)
    }

    /// Number of rows [`Relation::iter_stored`] yields. Equals `len()`
    /// for tombstone-free relations; with tombstones the storage walk is
    /// filtered, but every live tuple still appears exactly once.
    pub fn stored_len(&self) -> usize {
        self.set.len()
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
        let mut acc: Vec<Tuple> = self.set.iter().cloned().collect();
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
        // Routed through `insert` so reviving a tombstoned tuple takes
        // the collapse path there instead of appending a duplicate copy.
        let mut added = 0;
        for t in other.iter() {
            if self.insert(t.clone()) {
                added += 1;
            }
        }
        added
    }

    /// Set-difference in place; returns the number removed.
    pub fn difference_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in difference");
        let mut removed = 0;
        for t in other.iter() {
            if self.set.remove(t) {
                removed += 1;
            }
        }
        if removed > 0 {
            self.version += 1;
            self.epoch = next_epoch();
            self.epoch_token = Arc::new(());
            self.collapse_to_set();
        }
        removed
    }

    /// True iff both relations hold exactly the same tuples.
    pub fn same_tuples(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.set == other.set
    }

    /// Collects the values occurring in the relation into `out`.
    pub fn collect_adom(&self, out: &mut FxHashSet<Value>) {
        for t in self.iter() {
            out.extend(t.values().iter().copied());
        }
    }

    /// An order-independent 64-bit fingerprint of the contents.
    ///
    /// Computed as the wrapping sum of per-tuple hashes, so it does not
    /// depend on hash-set iteration order. Used (together with relation
    /// names) for instance-level state fingerprints in cycle detection.
    /// Cached per version: convergence loops that fingerprint an unchanged
    /// relation every round pay for one full pass, not one per round.
    pub fn fingerprint(&self) -> u64 {
        let key = (self.epoch, self.version);
        if let Some(fp) = self.fingerprint_cache.get(key) {
            return fp;
        }
        let fp = self
            .set
            .iter()
            .fold(0u64, |acc, t| acc.wrapping_add(hash_one(t)));
        self.fingerprint_cache.set(key, fp);
        fp
    }
}

/// Enumerates rows `lo..hi` of the concatenation `segments ++ recent`
/// by jumping straight to the covering segment offsets (no per-row
/// skipping). Bounds outside the storage are clamped.
fn rows_in_range<'a>(
    segments: &'a [Arc<ColumnSegment>],
    recent: &'a [Tuple],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = &'a [Value]> {
    let mut pieces: Vec<crate::columnar::Rows<'a>> = Vec::new();
    let mut off = 0usize;
    for seg in segments {
        let n = seg.len();
        let a = lo.max(off);
        let b = hi.min(off + n);
        if a < b {
            pieces.push(seg.rows_range(a - off, b - off));
        }
        off += n;
    }
    let a = lo.clamp(off, off + recent.len());
    let b = hi.clamp(off, off + recent.len());
    let tail: &[Tuple] = if a < b {
        &recent[a - off..b - off]
    } else {
        &[]
    };
    pieces
        .into_iter()
        .flatten()
        .chain(tail.iter().map(|t| t.values()))
}

impl HeapSize for Relation {
    /// One stored-tuple copy per segment row, recent-tail posting,
    /// and membership-set entry. Computed from counts only (O(#segments)),
    /// so engines can sample it after every rule application. The
    /// *logical* byte model is layout-independent: a columnar row costs
    /// the same `tuple_bytes(arity)` a boxed tuple did.
    fn heap_bytes(&self) -> usize {
        let stored = self.segments.iter().map(|s| s.len()).sum::<usize>()
            + self.recent.len()
            + self.set.len()
            + self.retracted.len();
        stored * tuple_bytes(self.arity)
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.same_tuples(other)
    }
}

impl Eq for Relation {}

/// Sentinel for "no slot / end of chain" in the open-addressing index.
const NONE32: u32 = u32::MAX;

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
/// to drive index-nested-loop joins: `probe` returns exactly the tuples
/// whose key columns equal the probe key. When the underlying relation only
/// grew since the index was built, [`Index::absorb_from`] appends the new
/// postings instead of rebuilding.
///
/// The layout is open-addressing over packed columns, specialized for
/// the columnar storage:
///
/// * `slots` is a power-of-two linear-probe table mapping key hashes to
///   bucket ids;
/// * bucket keys live packed in one `Vec<Value>` (stride = #key
///   columns) with their hashes cached for cheap table growth;
/// * postings live packed in one `Vec<Value>` (stride = arity), linked
///   per bucket through a `next` chain that preserves append order.
///
/// Probing and absorbing therefore never allocate a per-tuple box: a
/// probe hashes the borrowed key slice, walks the chain, and yields
/// borrowed `&[Value]` rows.
#[derive(Debug)]
pub struct Index {
    key_columns: Vec<usize>,
    arity: usize,
    /// Linear-probe slot table; `NONE32` marks an empty slot.
    slots: Vec<u32>,
    /// Packed bucket keys, stride `key_columns.len()`.
    keys: Vec<Value>,
    /// Cached key hash per bucket.
    hashes: Vec<u64>,
    /// First posting per bucket (`NONE32` when the bucket is empty).
    heads: Vec<u32>,
    /// Last posting per bucket, for O(1) order-preserving append.
    tails: Vec<u32>,
    /// Live postings per bucket.
    lens: Vec<u32>,
    /// Packed posting rows, stride `arity`. Unappended rows stay in the
    /// buffer (unlinked from their chain) — absorb workloads retract
    /// far fewer rows than they append.
    rows: Vec<Value>,
    /// Per-posting chain links.
    next: Vec<u32>,
    /// Total postings ever appended (dead ones included).
    row_count: usize,
    /// Live postings across all buckets.
    live: usize,
    /// Buckets with at least one live posting.
    live_buckets: usize,
}

impl Index {
    fn empty(key_columns: &[usize], arity: usize) -> Self {
        Index {
            key_columns: key_columns.to_vec(),
            arity,
            slots: Vec::new(),
            keys: Vec::new(),
            hashes: Vec::new(),
            heads: Vec::new(),
            tails: Vec::new(),
            lens: Vec::new(),
            rows: Vec::new(),
            next: Vec::new(),
            row_count: 0,
            live: 0,
            live_buckets: 0,
        }
    }

    /// Builds the index. `key_columns` must be valid positions.
    pub fn build(relation: &Relation, key_columns: &[usize]) -> Self {
        let mut idx = Index::empty(key_columns, relation.arity());
        for row in relation.iter_stored() {
            idx.append_row(row);
        }
        idx
    }

    /// Builds an index over only the tuples added since `gen` — the shape
    /// semi-naive evaluation uses for its per-round delta scans.
    pub fn build_delta(relation: &Relation, key_columns: &[usize], gen: Generation) -> Self {
        let mut idx = Index::empty(key_columns, relation.arity());
        for row in relation.iter_since(gen) {
            idx.append_row(row);
        }
        idx
    }

    /// The key slice of bucket `b`.
    fn key_of(&self, b: usize) -> &[Value] {
        let k = self.key_columns.len();
        &self.keys[b * k..(b + 1) * k]
    }

    /// The packed row of posting `r`.
    fn row_of(&self, r: u32) -> &[Value] {
        let a = self.arity;
        let r = r as usize;
        &self.rows[r * a..r * a + a]
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
        let buckets = self.heads.len();
        if self.slots.is_empty() {
            self.slots = vec![NONE32; 16];
        } else if (buckets + 1) * 4 >= self.slots.len() * 3 {
            let new_len = self.slots.len() * 2;
            let mask = new_len - 1;
            let mut slots = vec![NONE32; new_len];
            for b in 0..buckets {
                let mut i = (self.hashes[b] as usize) & mask;
                while slots[i] != NONE32 {
                    i = (i + 1) & mask;
                }
                slots[i] = b as u32;
            }
            self.slots = slots;
        }
    }

    /// Finds the bucket for an extracted probe key, if present.
    fn find_bucket_for_key(&self, h: u64, key: &[Value]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            match self.slots[i] {
                NONE32 => return None,
                b => {
                    let b = b as usize;
                    if self.hashes[b] == h && self.key_of(b) == key {
                        return Some(b);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds the bucket whose key matches `row`'s key columns, if present.
    fn find_bucket_for_row(&self, h: u64, row: &[Value]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            match self.slots[i] {
                NONE32 => return None,
                b => {
                    let b = b as usize;
                    if self.hashes[b] == h && self.key_matches_row(b, row) {
                        return Some(b);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds or creates the bucket for `row`'s key columns.
    fn bucket_for_row(&mut self, h: u64, row: &[Value]) -> usize {
        self.maybe_grow();
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            match self.slots[i] {
                NONE32 => break,
                b => {
                    let b = b as usize;
                    if self.hashes[b] == h && self.key_matches_row(b, row) {
                        return b;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let b = self.heads.len();
        for &c in &self.key_columns {
            self.keys.push(row[c]);
        }
        self.hashes.push(h);
        self.heads.push(NONE32);
        self.tails.push(NONE32);
        self.lens.push(0);
        self.slots[i] = b as u32;
        b
    }

    /// Appends a posting for `row`, preserving append order per bucket.
    fn append_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity);
        let h = hash_row_key(&self.key_columns, row);
        let b = self.bucket_for_row(h, row);
        let r = self.row_count as u32;
        self.rows.extend_from_slice(row);
        self.next.push(NONE32);
        self.row_count += 1;
        if self.lens[b] == 0 {
            self.live_buckets += 1;
            self.heads[b] = r;
        } else {
            let t = self.tails[b] as usize;
            self.next[t] = r;
        }
        self.tails[b] = r;
        self.lens[b] += 1;
        self.live += 1;
    }

    /// Removes one posting for `row`, if present. Tolerant of absent
    /// postings: a tuple inserted *and* retracted since the index's
    /// generation was never appended in the first place.
    fn unappend(&mut self, row: &[Value]) {
        let h = hash_row_key(&self.key_columns, row);
        let Some(b) = self.find_bucket_for_row(h, row) else {
            return;
        };
        let mut prev = NONE32;
        let mut cur = self.heads[b];
        while cur != NONE32 {
            if self.row_of(cur) == row {
                let nxt = self.next[cur as usize];
                if prev == NONE32 {
                    self.heads[b] = nxt;
                } else {
                    self.next[prev as usize] = nxt;
                }
                if self.tails[b] == cur {
                    self.tails[b] = prev;
                }
                self.lens[b] -= 1;
                self.live -= 1;
                if self.lens[b] == 0 {
                    self.live_buckets -= 1;
                    self.heads[b] = NONE32;
                    self.tails[b] = NONE32;
                }
                return;
            }
            prev = cur;
            cur = self.next[cur as usize];
        }
    }

    /// Number of tuples indexed (live postings across all buckets).
    pub fn tuple_count(&self) -> usize {
        self.live
    }

    /// Absorbs the changes `relation` saw since `gen` (the generation this
    /// index is current for): postings for retracted tuples are removed,
    /// postings for new live tuples appended. Returns the number of
    /// tuples appended, or `None` when the delta cannot be reconstructed
    /// exactly and the caller must rebuild.
    pub fn absorb_from(&mut self, relation: &Relation, gen: Generation) -> Option<usize> {
        relation.delta_bounds(gen)?;
        for t in relation.retracted_since(gen) {
            self.unappend(t.values());
        }
        let mut appended = 0;
        for row in relation.iter_since(gen) {
            self.append_row(row);
            appended += 1;
        }
        Some(appended)
    }

    /// The key columns this index was built on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// The tuples whose key columns equal `key`, in append order, as
    /// borrowed packed rows. The iterator reports its exact length.
    pub fn probe(&self, key: &[Value]) -> Postings<'_> {
        debug_assert_eq!(key.len(), self.key_columns.len());
        let h = hash_key(key);
        match self.find_bucket_for_key(h, key) {
            Some(b) => Postings {
                index: self,
                cur: self.heads[b],
                remaining: self.lens[b] as usize,
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

/// Iterator over the postings of one [`Index`] bucket, yielding packed
/// rows in append order.
#[derive(Clone, Debug)]
pub struct Postings<'a> {
    index: &'a Index,
    cur: u32,
    remaining: usize,
}

impl<'a> Iterator for Postings<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.cur == NONE32 {
            return None;
        }
        let r = self.cur;
        self.cur = self.index.next[r as usize];
        self.remaining -= 1;
        Some(self.index.row_of(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Postings<'_> {}

impl HeapSize for Index {
    /// One key row per live bucket plus one stored-tuple copy per live
    /// posting — the same logical bucket model as before the columnar
    /// layout, so index byte gauges stay comparable.
    fn heap_bytes(&self) -> usize {
        let key_width = TUPLE_HEADER_BYTES + self.key_columns.len() * VALUE_BYTES;
        self.live_buckets * key_width + self.live * tuple_bytes(self.arity)
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
        let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
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
            let got: Vec<Tuple> = idx.probe(&[Value::Int(k)]).map(Tuple::new).collect();
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

    /// Contiguous ranges over the delta enumeration partition it exactly
    /// and in order, for any morsel count (including more morsels than
    /// tuples) — the contract parallel morsel scans rely on.
    #[test]
    fn iter_since_range_partitions_the_delta_exactly() {
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
        let full: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        let total = r.delta_len(mark);
        assert_eq!(total, full.len());
        for parts in [1usize, 2, 3, 4, 16] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_since_range(mark, lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "parts={parts}");
        }
        // The tombstone fallback path partitions the filtered walk too.
        r.retract(&t2(1, 1));
        let full: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        let total = r.delta_len(mark);
        for parts in [1usize, 3] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_since_range(mark, lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "tombstoned parts={parts}");
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
        let full: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
        let total = r.stored_len();
        assert_eq!(total, full.len());
        for parts in [1usize, 2, 5, 12] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_stored_range(lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "parts={parts}");
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
        let dead: Vec<_> = r.retracted_since(mark).cloned().collect();
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
        let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(1, 20)]);
        let got: Vec<Tuple> = idx.probe(&[Value::Int(3)]).map(Tuple::new).collect();
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
    /// keeps the remaining postings in append order, and a re-append
    /// after emptying the bucket revives it.
    #[test]
    fn unappend_keeps_chain_order_at_every_position() {
        let rows: Vec<Tuple> = (0..4).map(|k| t2(1, k)).collect();
        for victim in 0..4 {
            let r = Relation::from_tuples(2, rows.clone());
            let mut idx = Index::build(&r, &[0]);
            idx.unappend(rows[victim].values());
            let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
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
        let r = Relation::from_tuples(2, vec![t2(7, 1)]);
        let mut idx = Index::build(&r, &[0]);
        idx.unappend(t2(7, 1).values());
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.probe(&[Value::Int(7)]).count(), 0);
        idx.append_row(t2(7, 2).values());
        let got: Vec<Tuple> = idx.probe(&[Value::Int(7)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(7, 2)]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn reviving_a_tombstoned_tuple_collapses_storage() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        r.commit();
        let mark = r.generation();
        r.retract(&t2(1, 2));
        let epoch_before = r.generation().epoch;
        assert!(r.insert(t2(1, 2)), "revival counts as an insert");
        assert_ne!(
            r.generation().epoch,
            epoch_before,
            "revival must fork the epoch"
        );
        assert!(r.delta_bounds(mark).is_none(), "old cursors are refused");
        assert_eq!(r.tombstone_count(), 0, "collapse drops the log");
        // Exactly one physical copy per live tuple.
        assert_eq!(r.iter_stored().count(), 2);
        assert_eq!(r.len(), 2);
        // Union-based merges take the same revival path.
        let mut a = Relation::from_tuples(2, vec![t2(7, 8)]);
        a.retract(&t2(7, 8));
        let b = Relation::from_tuples(2, vec![t2(7, 8)]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.iter_stored().count(), 1);
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
}
