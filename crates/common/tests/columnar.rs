//! Property suite for the columnar segment layout (`common::columnar`
//! behind `common::relation`).
//!
//! The columnar rewrite replaced the boxed `Vec<Tuple>` segments with
//! arity-strided packed buffers. These tests pin the contract that made
//! the swap safe, against a plain `Vec<Tuple>` reference model that
//! mirrors the pre-columnar storage discipline (append to a tail;
//! `commit` sorts the tail and freezes it as a segment):
//!
//! * a relation stays content-equal, and `iter_stored` stays
//!   order-equal, through seeded random insert/commit/clone schedules
//!   at arities 0–5 with heavy duplication;
//! * `HeapSize` stays deterministic in the contents (physical segment
//!   layout must not leak into the logical byte gauges) and additive
//!   across the space tree;
//! * `iter_since` deltas are exact for cursors captured at freeze
//!   boundaries — no row missing, none repeated, order preserved —
//!   and conservatively a superset for cursors orphaned mid-tail by a
//!   later commit.

use unchained_common::{
    tuple_bytes, ColumnSegment, HeapSize, Instance, Interner, Relation, Rng, SpaceReport, Tuple,
    Value, SLOT_BYTES,
};

/// A random tuple of the given arity over a small value domain, so
/// duplicate inserts are frequent.
fn random_tuple(rng: &mut Rng, arity: usize, domain: i64) -> Tuple {
    (0..arity)
        .map(|_| Value::Int(rng.gen_range_i64(0, domain)))
        .collect::<Vec<Value>>()
        .into()
}

/// The reference model: the storage discipline the previous boxed
/// layout implemented, kept as plain `Vec<Tuple>`s.
#[derive(Clone, Default)]
struct RefModel {
    /// Frozen prefix: concatenation of sorted segments.
    frozen: Vec<Tuple>,
    /// Live tail, in insertion order.
    tail: Vec<Tuple>,
}

impl RefModel {
    fn contains(&self, t: &Tuple) -> bool {
        self.frozen.contains(t) || self.tail.contains(t)
    }

    fn insert(&mut self, t: Tuple) -> bool {
        if self.contains(&t) {
            return false;
        }
        self.tail.push(t);
        true
    }

    fn commit(&mut self) {
        self.tail.sort_unstable();
        self.frozen.append(&mut self.tail);
    }

    /// Expected `iter_stored` order: frozen segments, then the tail.
    fn stored(&self) -> Vec<Tuple> {
        let mut out = self.frozen.clone();
        out.extend(self.tail.iter().cloned());
        out
    }

    fn len(&self) -> usize {
        self.frozen.len() + self.tail.len()
    }
}

/// Drives `rel` and the reference model through the same insert stream,
/// committing at the given cadence.
fn grow(
    rng: &mut Rng,
    rel: &mut Relation,
    model: &mut RefModel,
    arity: usize,
    steps: usize,
    commit_every: usize,
) {
    for step in 0..steps {
        let t = random_tuple(rng, arity, 6);
        let fresh = rel.insert(t.clone());
        assert_eq!(
            fresh,
            model.insert(t),
            "insert dedup disagrees with the reference model at step {step}"
        );
        if commit_every > 0 && step % commit_every == commit_every - 1 {
            rel.commit();
            model.commit();
        }
    }
}

/// Content equality (as sets, via `iter`) plus exact storage-order
/// equality (via `iter_stored`, rows borrowed from packed segments).
fn assert_matches_model(rel: &Relation, model: &RefModel, context: &str) {
    assert_eq!(rel.len(), model.len(), "{context}: length");
    let expected = model.stored();
    let packed: Vec<Tuple> = rel.iter_stored().map(Tuple::new).collect();
    assert_eq!(packed, expected, "{context}: iter_stored() order/content");
    let mut boxed: Vec<Tuple> = rel.iter().map(Tuple::from).collect();
    let mut sorted = expected.clone();
    boxed.sort_unstable();
    sorted.sort_unstable();
    assert_eq!(boxed, sorted, "{context}: iter() content");
    for t in &expected {
        assert!(rel.contains(t), "{context}: membership lost");
    }
}

#[test]
fn random_relations_match_the_reference_at_every_arity() {
    let mut rng = Rng::seeded(0xC01);
    for arity in 0..=5 {
        for commit_every in [0, 1, 7] {
            let mut rel = Relation::new(arity);
            let mut model = RefModel::default();
            grow(&mut rng, &mut rel, &mut model, arity, 300, commit_every);
            let context = format!("arity {arity}, commit every {commit_every}");
            assert_matches_model(&rel, &model, &context);
            // One more commit (freezing the live tail) keeps them in
            // lockstep.
            rel.commit();
            model.commit();
            assert_matches_model(&rel, &model, &format!("{context}, after final commit"));
        }
    }
}

#[test]
fn cross_epoch_clones_snapshot_and_diverge_independently() {
    let mut rng = Rng::seeded(0xC02);
    for arity in 1..=4 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        grow(&mut rng, &mut rel, &mut model, arity, 120, 11);

        // Clone mid-life, with a live uncommitted tail.
        let snapshot = rel.clone();
        let snapshot_model = model.clone();

        // The original keeps growing across more epochs…
        grow(&mut rng, &mut rel, &mut model, arity, 120, 13);
        assert_matches_model(&rel, &model, &format!("arity {arity}: original"));
        // …while the clone still replays the exact capture state.
        assert_matches_model(
            &snapshot,
            &snapshot_model,
            &format!("arity {arity}: snapshot"),
        );

        // And a fork of the clone diverges without disturbing it.
        let mut fork = snapshot.clone();
        let mut fork_model = snapshot_model.clone();
        grow(&mut rng, &mut fork, &mut fork_model, arity, 60, 5);
        assert_matches_model(&fork, &fork_model, &format!("arity {arity}: fork"));
        assert_matches_model(
            &snapshot,
            &snapshot_model,
            &format!("arity {arity}: snapshot after fork diverged"),
        );
    }
}

#[test]
fn iter_since_is_exact_at_freeze_boundaries_and_conservative_mid_tail() {
    let mut rng = Rng::seeded(0xC03);
    for arity in 0..=3 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        // Boundary cursors: captured right after a commit (tail empty),
        // paired with the frozen length at capture time. These stay
        // exact forever: later commits only append segments.
        let mut boundary = vec![(rel.generation(), 0usize)];
        for step in 0..400 {
            let t = random_tuple(&mut rng, arity, 5);
            let fresh = rel.insert(t.clone());
            assert_eq!(fresh, model.insert(t));
            if step % 29 == 7 {
                rel.commit();
                model.commit();
                boundary.push((rel.generation(), model.frozen.len()));
            }
        }
        let stored = model.stored();
        for (i, (gen, seen)) in boundary.iter().enumerate() {
            let delta: Vec<Tuple> = rel.iter_since(*gen).map(Tuple::new).collect();
            assert_eq!(
                delta,
                &stored[*seen..],
                "arity {arity}, boundary cursor {i}: delta must be the exact stored suffix"
            );
            assert_eq!(rel.delta_len(*gen), stored.len() - seen);
        }

        // A mid-tail cursor is exact while the tail lives…
        let mid_gen = rel.generation();
        let mut late = Vec::new();
        for _ in 0..30 {
            let t = random_tuple(&mut rng, arity, 50); // wide domain: mostly fresh
            if rel.insert(t.clone()) {
                model.insert(t.clone());
                late.push(t);
            }
        }
        let exact: Vec<Tuple> = rel.iter_since(mid_gen).map(Tuple::new).collect();
        assert_eq!(exact, late, "arity {arity}: mid-tail cursor before commit");
        // …and degrades to a conservative superset once a commit folds
        // that tail into a sorted segment (semi-naive stays correct
        // under supersets; exactness is only promised at boundaries).
        rel.commit();
        model.commit();
        let superset: Vec<Tuple> = rel.iter_since(mid_gen).map(Tuple::new).collect();
        for t in &late {
            assert!(
                superset.contains(t),
                "arity {arity}: orphaned cursor dropped a delta row"
            );
        }
        assert!(superset.len() <= rel.len());
    }
}

#[test]
fn heap_bytes_are_deterministic_in_contents_and_additive() {
    // Same content, three different construction histories: the
    // logical byte gauge must agree (counts × fixed widths — physical
    // segment layout must not leak).
    let facts: Vec<Tuple> = (0..60)
        .map(|k| Tuple::from([Value::Int(k % 13), Value::Int((k * 5 + 2) % 13)]))
        .collect();
    let mut one_segment = Relation::new(2);
    let mut many_segments = Relation::new(2);
    let mut unfrozen = Relation::new(2);
    for (i, t) in facts.iter().enumerate() {
        one_segment.insert(t.clone());
        many_segments.insert(t.clone());
        unfrozen.insert(t.clone());
        if i % 3 == 0 {
            many_segments.commit();
        }
    }
    one_segment.commit();
    assert_eq!(one_segment.len(), many_segments.len());
    assert_eq!(one_segment.heap_bytes(), many_segments.heap_bytes());
    assert_eq!(one_segment.heap_bytes(), unfrozen.heap_bytes());
    // The model: each tuple is stored once, in a segment or the tail,
    // at tuple_bytes(arity), plus one row-id table slot.
    assert_eq!(
        one_segment.heap_bytes(),
        one_segment.len() * (tuple_bytes(2) + SLOT_BYTES)
    );

    // Additivity holds over the whole space tree of a random instance.
    let mut rng = Rng::seeded(0xC04);
    let mut interner = Interner::new();
    let mut instance = Instance::new();
    for (name, arity) in [("A", 1usize), ("B", 2), ("C", 3)] {
        let sym = interner.intern(name);
        instance.ensure(sym, arity);
        for _ in 0..rng.gen_index(200) {
            instance.insert_fact(sym, random_tuple(&mut rng, arity, 7));
        }
    }
    let report = SpaceReport::for_instance(&instance, &interner);
    report
        .check_additive()
        .expect("space tree must be additive");
    let rel_total: usize = instance.iter().map(|(_, r)| r.heap_bytes()).sum();
    assert_eq!(report.relation_bytes(), rel_total as u64);
}

#[test]
fn column_segments_replay_tuples_verbatim() {
    // The packed layer itself, one level below Relation: packing any
    // tuple sequence (duplicates included — segments do not dedup) and
    // reading it back row by row is the identity.
    let mut rng = Rng::seeded(0xC05);
    for arity in 0..=5 {
        let tuples: Vec<Tuple> = (0..50).map(|_| random_tuple(&mut rng, arity, 4)).collect();
        let values = tuples.iter().flat_map(|t| t.values().iter().copied());
        let seg = ColumnSegment::from_packed(arity, tuples.len(), values.collect());
        assert_eq!(seg.len(), tuples.len());
        let back: Vec<Tuple> = seg.rows().map(Tuple::new).collect();
        assert_eq!(back, tuples, "arity {arity}");
        // Random subranges agree with the equivalent skip/take.
        for _ in 0..10 {
            let lo = rng.gen_index(tuples.len() + 1);
            let hi = lo + rng.gen_index(tuples.len() - lo + 1);
            let ranged: Vec<Tuple> = seg.rows_range(lo, hi).map(Tuple::new).collect();
            assert_eq!(&ranged[..], &tuples[lo..hi], "arity {arity}, {lo}..{hi}");
        }
    }
}
