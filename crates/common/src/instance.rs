//! Database instances.

use crate::columnar::ColumnSegment;
use crate::hash::{hash_one, FxHashMap, FxHashSet};
use crate::interner::{Interner, Symbol};
use crate::relation::{Generation, Relation};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An instance over a database schema: a mapping from relation symbols to
/// finite relations.
///
/// Stored as a `BTreeMap` so iteration order (and hence printing,
/// fingerprint composition, and exhaustive-search traversal order in the
/// nondeterministic engines) is deterministic.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Instance {
    relations: BTreeMap<Symbol, Relation>,
}

impl Instance {
    /// Creates an empty instance (no relations at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// The relation for `name`, if present.
    pub fn relation(&self, name: Symbol) -> Option<&Relation> {
        self.relations.get(&name)
    }

    /// Mutable access to the relation for `name`, if present.
    pub fn relation_mut(&mut self, name: Symbol) -> Option<&mut Relation> {
        self.relations.get_mut(&name)
    }

    /// The relation for `name`, creating an empty relation of the given
    /// arity if absent.
    ///
    /// # Panics
    /// Panics if the relation exists with a different arity.
    pub fn ensure(&mut self, name: Symbol, arity: usize) -> &mut Relation {
        let rel = self
            .relations
            .entry(name)
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(
            rel.arity(),
            arity,
            "relation ensured with conflicting arity"
        );
        rel
    }

    /// Inserts a fact. Creates the relation if needed.
    pub fn insert_fact(&mut self, name: Symbol, tuple: Tuple) -> bool {
        self.insert_row(name, &tuple)
    }

    /// Inserts the fact `name(row)`, copying the row into its relation's
    /// storage. Creates the relation if needed.
    pub fn insert_row(&mut self, name: Symbol, row: &[Value]) -> bool {
        self.ensure(name, row.len()).insert_row(row)
    }

    /// Retracts a fact as a tombstone on its relation's generational
    /// storage (see [`Relation::retract`]). Returns `false` if the fact
    /// (or its relation) is absent.
    pub fn retract_fact(&mut self, name: Symbol, row: &[Value]) -> bool {
        self.relations
            .get_mut(&name)
            .is_some_and(|r| r.retract(row))
    }

    /// True iff the fact is present.
    pub fn contains_fact(&self, name: Symbol, row: &[Value]) -> bool {
        self.relations
            .get(&name)
            .is_some_and(|r| r.contains_row(row))
    }

    /// Iterates over `(symbol, relation)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(&s, r)| (s, r))
    }

    /// The relation symbols present.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations.keys().copied()
    }

    /// Removes a relation entirely, returning it if present.
    pub fn remove_relation(&mut self, name: Symbol) -> Option<Relation> {
        self.relations.remove(&name)
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// True iff every relation is empty (or there are none).
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Relation::is_empty)
    }

    /// The active domain `adom(I)`: every value occurring in some fact.
    pub fn adom(&self) -> FxHashSet<Value> {
        let mut out = FxHashSet::default();
        for rel in self.relations.values() {
            rel.collect_adom(&mut out);
        }
        out
    }

    /// The active domain as a sorted vector (deterministic iteration for
    /// the engines that valuate variables over the domain).
    pub fn adom_sorted(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.adom().into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Restricts the instance to the given symbols (the paper's "image of
    /// P restricted to the idb relations").
    pub fn project_schema(&self, keep: impl IntoIterator<Item = Symbol>) -> Instance {
        let keep: FxHashSet<Symbol> = keep.into_iter().collect();
        Instance {
            relations: self
                .relations
                .iter()
                .filter(|(s, _)| keep.contains(s))
                .map(|(&s, r)| (s, r.clone()))
                .collect(),
        }
    }

    /// A deterministic, order-independent fingerprint of the full state,
    /// composed from the fingerprints the relations keep up to date.
    ///
    /// Used by the noninflationary engine for divergence (cycle)
    /// detection and by the nondeterministic engines to memoize visited
    /// states. Empty relations contribute nothing, so an instance that
    /// merely *mentions* a relation fingerprints equal to one that omits
    /// it — which is the semantics we want for state comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for (&name, rel) in &self.relations {
            if rel.is_empty() {
                continue;
            }
            let h = hash_one(&(name, rel.arity())) ^ rel.fingerprint();
            acc = acc.wrapping_add(hash_one(&h));
        }
        acc
    }

    /// True iff both instances hold exactly the same facts (empty
    /// relations are ignored, mirroring [`Instance::fingerprint`]).
    pub fn same_facts(&self, other: &Instance) -> bool {
        self.nonempty().eq(other.nonempty())
    }

    /// The non-empty relations, in symbol order.
    fn nonempty(&self) -> impl Iterator<Item = (&Symbol, &Relation)> {
        self.relations.iter().filter(|(_, r)| !r.is_empty())
    }

    /// Commits every relation and returns its facts as [`FrozenFacts`],
    /// which share the relations' frozen segments instead of copying
    /// them.
    pub fn freeze(&mut self) -> FrozenFacts {
        FrozenFacts {
            relations: self
                .relations
                .iter_mut()
                .filter(|(_, r)| !r.is_empty())
                .map(|(&name, r)| (name, r.arity(), r.len(), r.freeze()))
                .collect(),
        }
    }

    /// Commits every relation's recent tail into a frozen stable segment
    /// (see [`Relation::commit`]); returns how many relations had anything
    /// to commit. Engines call this at round boundaries so the tuples of a
    /// round form whole segments and delta marks stay exact.
    pub fn commit_all(&mut self) -> usize {
        self.relations
            .values_mut()
            .map(|r| usize::from(r.commit()))
            .sum()
    }

    /// Compacts every relation whose dead rows outnumber its live ones
    /// (see [`Relation::compact`]); returns how many it compacted.
    pub fn compact_all(&mut self) -> usize {
        self.relations
            .values_mut()
            .map(|r| usize::from(r.compact()))
            .sum()
    }

    /// Packs every relation that holds a dead row (see
    /// [`Relation::pack`]); returns how many it packed.
    pub fn pack_all(&mut self) -> usize {
        self.relations
            .values_mut()
            .map(|r| usize::from(r.pack()))
            .sum()
    }

    /// Total `(stable segments, uncommitted recent tuples)` across all
    /// relations — the storage-shape gauge surfaced by `--stats`.
    pub fn storage_stats(&self) -> (usize, usize) {
        self.relations.values().fold((0, 0), |(s, r), rel| {
            (s + rel.segment_count(), r + rel.recent_len())
        })
    }

    /// Renders the instance for humans (sorted, one fact per line).
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayInstance<'a> {
        DisplayInstance {
            instance: self,
            interner,
        }
    }
}

impl FromIterator<(Symbol, Relation)> for Instance {
    /// The instance holding each relation under its symbol; a later
    /// relation of the same symbol replaces an earlier one.
    fn from_iter<I: IntoIterator<Item = (Symbol, Relation)>>(relations: I) -> Self {
        Instance {
            relations: relations.into_iter().collect(),
        }
    }
}

impl crate::space::HeapSize for Instance {
    /// Sum over the relations; cheap enough (counts only, no tuple
    /// walk) for engines to sample as a per-rule high-water mark.
    fn heap_bytes(&self) -> usize {
        self.relations
            .values()
            .map(crate::space::HeapSize::heap_bytes)
            .sum()
    }
}

/// A snapshot of every relation's [`Generation`] at a point in time — the
/// first-class delta mark that replaces threading an ad-hoc delta `Instance`
/// through the semi-naive engines.
///
/// Capture a handle *before* merging a round's new facts; afterwards,
/// `relation.iter_since(handle.mark(sym))` enumerates exactly that round's
/// delta. Relations that did not exist at capture time report the default
/// generation, which conservatively marks all their tuples as new.
#[derive(Clone, Debug, Default)]
pub struct DeltaHandle {
    marks: FxHashMap<Symbol, Generation>,
}

impl DeltaHandle {
    /// Captures the current generation of every relation in `instance`.
    pub fn capture(instance: &Instance) -> Self {
        DeltaHandle {
            marks: instance.iter().map(|(s, r)| (s, r.generation())).collect(),
        }
    }

    /// The captured mark for `name` (default generation if the relation was
    /// not present at capture time, meaning "everything is new").
    pub fn mark(&self, name: Symbol) -> Generation {
        self.marks.get(&name).copied().unwrap_or_default()
    }
}

/// The facts of an instance at the moment of [`Instance::freeze`],
/// held through the frozen segments of its relations.
///
/// Taking one copies no tuple, and unlike a clone of the instance it
/// shares no relation's epoch token, so the instance keeps its lineage
/// (and its indexes keep absorbing appends) as it moves on. States of
/// an append-only run share their common segments.
#[derive(Clone, Debug)]
pub struct FrozenFacts {
    /// `(name, arity, tuple count, segments)` per non-empty relation, in
    /// symbol order.
    relations: Vec<(Symbol, usize, usize, Vec<Arc<ColumnSegment>>)>,
}

impl FrozenFacts {
    /// True iff `instance` holds exactly these facts (empty relations
    /// are ignored, as in [`Instance::same_facts`]). Equal counts and
    /// containment of every frozen row decide it, since a relation's
    /// segments hold each of its tuples once.
    pub fn same_facts(&self, instance: &Instance) -> bool {
        let mut live = instance.nonempty();
        self.relations.iter().all(|(name, arity, len, segments)| {
            live.next().is_some_and(|(n, rel)| {
                n == name
                    && rel.arity() == *arity
                    && rel.len() == *len
                    && segments
                        .iter()
                        .flat_map(|s| s.rows())
                        .all(|row| rel.contains_row(row))
            })
        }) && live.next().is_none()
    }
}

/// Helper returned by [`Instance::display`].
pub struct DisplayInstance<'a> {
    instance: &'a Instance,
    interner: &'a Interner,
}

impl fmt::Display for DisplayInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in self.instance.iter() {
            for t in rel.sorted().iter() {
                if rel.arity() == 0 {
                    writeln!(f, "{}", self.interner.name(name))?;
                } else {
                    writeln!(
                        f,
                        "{}{}",
                        self.interner.name(name),
                        t.display(self.interner)
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, Symbol, Symbol) {
        let mut i = Interner::new();
        let g = i.intern("G");
        let t = i.intern("T");
        (i, g, t)
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    /// Compile-time guard: parallel workers share the instance (and the
    /// round's delta marks) read-only across threads.
    #[test]
    fn instance_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Instance>();
        assert_sync::<DeltaHandle>();
    }

    #[test]
    fn insert_and_contains() {
        let (_, g, _) = setup();
        let mut inst = Instance::new();
        assert!(inst.insert_fact(g, t2(1, 2)));
        assert!(!inst.insert_fact(g, t2(1, 2)));
        assert!(inst.contains_fact(g, &t2(1, 2)));
        assert!(!inst.contains_fact(g, &t2(2, 1)));
        assert_eq!(inst.fact_count(), 1);
    }

    #[test]
    fn retract_fact_tombstones_without_dropping_the_relation() {
        let (_, g, _) = setup();
        let mut inst = Instance::new();
        inst.insert_fact(g, t2(1, 2));
        inst.insert_fact(g, t2(3, 4));
        assert!(inst.retract_fact(g, &t2(1, 2)));
        assert!(!inst.retract_fact(g, &t2(1, 2)), "already gone");
        assert!(!inst.retract_fact(g, &t2(9, 9)), "never present");
        assert!(!inst.contains_fact(g, &t2(1, 2)));
        assert_eq!(inst.fact_count(), 1);
        assert!(inst.relation(g).is_some(), "relation survives emptying");
    }

    #[test]
    fn adom_collects_all_values() {
        let (_, g, t) = setup();
        let mut inst = Instance::new();
        inst.insert_fact(g, t2(1, 2));
        inst.insert_fact(t, t2(2, 3));
        let adom = inst.adom_sorted();
        assert_eq!(adom, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn fingerprint_ignores_empty_relations() {
        let (_, g, t) = setup();
        let mut a = Instance::new();
        a.insert_fact(g, t2(1, 2));
        let mut b = a.clone();
        b.ensure(t, 2); // empty relation, should not matter
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.same_facts(&b));
    }

    #[test]
    fn fingerprint_distinguishes_relation_names() {
        let (_, g, t) = setup();
        let mut a = Instance::new();
        a.insert_fact(g, t2(1, 2));
        let mut b = Instance::new();
        b.insert_fact(t, t2(1, 2));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!a.same_facts(&b));
    }

    #[test]
    fn frozen_facts_share_segments_and_keep_the_lineage() {
        let (_, g, t) = setup();
        let mut inst = Instance::new();
        inst.insert_fact(g, t2(1, 2));
        inst.ensure(t, 2);
        let frozen = inst.freeze();
        assert_eq!(inst.storage_stats(), (1, 0), "freezing commits");
        assert!(frozen.same_facts(&inst));
        let epoch = inst.relation(g).unwrap().generation().epoch;
        inst.insert_fact(g, t2(3, 4));
        assert_eq!(
            inst.relation(g).unwrap().generation().epoch,
            epoch,
            "a frozen state must not fork the lineage"
        );
        assert!(!frozen.same_facts(&inst));
        inst.relation_mut(g).unwrap().remove(&t2(3, 4));
        assert!(frozen.same_facts(&inst));
        inst.insert_fact(t, t2(1, 2));
        assert!(!frozen.same_facts(&inst), "a new relation differs");
        // Tombstoned tuples are not part of a frozen state.
        let mut retracted = Instance::new();
        retracted.insert_fact(g, t2(1, 2));
        retracted.insert_fact(g, t2(3, 4));
        retracted.commit_all();
        retracted.retract_fact(g, &t2(3, 4));
        let mut expected = Instance::new();
        expected.insert_fact(g, t2(1, 2));
        assert!(retracted.freeze().same_facts(&expected));
    }

    #[test]
    fn project_schema_keeps_only_requested() {
        let (_, g, t) = setup();
        let mut inst = Instance::new();
        inst.insert_fact(g, t2(1, 2));
        inst.insert_fact(t, t2(3, 4));
        let proj = inst.project_schema([t]);
        assert!(proj.relation(g).is_none());
        assert!(proj.contains_fact(t, &t2(3, 4)));
    }

    #[test]
    fn display_sorted_output() {
        let (i, g, _) = setup();
        let mut inst = Instance::new();
        inst.insert_fact(g, t2(3, 4));
        inst.insert_fact(g, t2(1, 2));
        let shown = inst.display(&i).to_string();
        assert_eq!(shown, "G(1, 2)\nG(3, 4)\n");
    }

    #[test]
    fn zero_arity_display() {
        let mut i = Interner::new();
        let delay = i.intern("delay");
        let mut inst = Instance::new();
        inst.insert_fact(delay, Tuple::from([]));
        assert_eq!(inst.display(&i).to_string(), "delay\n");
    }

    #[test]
    #[should_panic(expected = "conflicting arity")]
    fn ensure_conflicting_arity_panics() {
        let (_, g, _) = setup();
        let mut inst = Instance::new();
        inst.ensure(g, 2);
        inst.ensure(g, 3);
    }
}
