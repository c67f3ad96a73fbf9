//! Invariants of the logical-byte space model (`common::space`).
//!
//! Three properties keep `--memstats` trustworthy: bytes are *additive*
//! (every branch equals the sum of its children), *monotone* under
//! inserts, and *deterministic in the contents* — the same facts report
//! the same bytes no matter how (or on how many threads) they were
//! derived. The engine-level thread-count check lives in
//! `crates/core/tests/telemetry.rs`; here we exercise the model itself.

use unchained_common::{
    tuple_bytes, HeapSize, Index, Instance, Interner, Relation, Rng, SpaceReport, Tuple, Value,
    POSTING_BYTES, SLOT_BYTES,
};

fn t2(a: i64, b: i64) -> Tuple {
    Tuple::from([Value::Int(a), Value::Int(b)])
}

#[test]
fn relation_bytes_count_every_stored_copy() {
    let mut r = Relation::new(2);
    assert_eq!(r.heap_bytes(), 0);
    r.insert(t2(1, 2));
    r.insert(t2(3, 4));
    // Uncommitted: each tuple is one row of the recent tail, plus its
    // row-id table slot.
    let stored = 2 * (tuple_bytes(2) + SLOT_BYTES);
    assert_eq!(r.heap_bytes(), stored);
    r.commit();
    // Committed: the same rows, now in a frozen segment.
    assert_eq!(r.heap_bytes(), stored);
    // A duplicate insert stores nothing.
    assert!(!r.insert(t2(1, 2)));
    assert_eq!(r.heap_bytes(), stored);
    // A retraction keeps the dead row; its table slot becomes a
    // tombstone-log entry.
    assert!(r.retract(&t2(1, 2)));
    assert_eq!(r.heap_bytes(), stored);
}

#[test]
fn relation_bytes_are_monotone_under_inserts() {
    let mut rng = Rng::seeded(0xB0A7);
    let mut r = Relation::new(2);
    let mut last = r.heap_bytes();
    for step in 0..500 {
        // Small domain so duplicates are frequent.
        r.insert(t2(rng.gen_range_i64(0, 12), rng.gen_range_i64(0, 12)));
        if step % 37 == 0 {
            r.commit();
        }
        let now = r.heap_bytes();
        assert!(now >= last, "bytes shrank at step {step}: {last} -> {now}");
        last = now;
    }
}

#[test]
fn relation_bytes_are_deterministic_in_the_contents() {
    // Same facts, different insertion orders and commit schedules:
    // segment layout differs, bytes do not.
    let facts: Vec<(i64, i64)> = (0..40).map(|k| (k, (k * 7 + 3) % 40)).collect();
    let mut a = Relation::new(2);
    for &(x, y) in &facts {
        a.insert(t2(x, y));
    }
    a.commit();
    let mut b = Relation::new(2);
    for (i, &(x, y)) in facts.iter().rev().enumerate() {
        b.insert(t2(x, y));
        if i % 7 == 0 {
            b.commit();
        }
    }
    assert_ne!(a.segment_lens(), b.segment_lens());
    assert_eq!(a.heap_bytes(), b.heap_bytes());
    // The per-relation tree is additive in both layouts.
    a.space_node("T").check_additive().unwrap();
    b.space_node("T").check_additive().unwrap();
}

#[test]
fn space_node_branches_sum_their_children() {
    let mut r = Relation::new(2);
    for k in 0..10 {
        r.insert(t2(k, k + 1));
        if k == 4 {
            r.commit();
        }
    }
    let node = r.space_node("edge");
    node.check_additive().unwrap();
    let child_sum: u64 = node.children.iter().map(|c| c.bytes).sum();
    assert_eq!(node.bytes, child_sum);
    assert_eq!(node.bytes, r.heap_bytes() as u64);
    // items on the branch is the logical cardinality, not the child sum
    // (each tuple is stored twice).
    assert_eq!(node.items, 10);
    assert_eq!(
        node.children.iter().map(|c| c.items).sum::<u64>(),
        2 * node.items
    );
}

#[test]
fn instance_report_is_additive_and_complete() {
    let mut interner = Interner::new();
    let g = interner.intern("G");
    let t = interner.intern("T");
    let mut inst = Instance::new();
    for k in 0..20 {
        inst.insert_fact(g, t2(k, k + 1));
    }
    for k in 0..5 {
        inst.insert_fact(t, t2(k, k + 2));
    }
    let report = SpaceReport::for_instance(&inst, &interner);
    report.check_additive().unwrap();
    // Relation bytes match the instance model exactly; total adds the
    // interner on top.
    assert_eq!(report.relation_bytes(), inst.heap_bytes() as u64);
    assert_eq!(
        report.total_bytes(),
        (inst.heap_bytes() + interner.heap_bytes()) as u64
    );
    let rendered = report.render();
    assert!(rendered.contains("additive: ok"), "{rendered}");
    assert!(rendered.contains("G/2"), "{rendered}");
    // The fattest table leads with the bigger relation.
    let fat = report.fattest_relations(2);
    let g_pos = fat.find("G/2").unwrap();
    let t_pos = fat.find("T/2").unwrap();
    assert!(g_pos < t_pos, "{fat}");
}

#[test]
fn index_bytes_follow_the_bucket_model() {
    let mut r = Relation::new(2);
    // Key column 0: keys 0 and 1, with 3 and 2 postings.
    for &(x, y) in &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)] {
        r.insert(t2(x, y));
    }
    r.commit();
    let idx = Index::build(&r, &[0]);
    assert_eq!(idx.distinct_keys(), 2);
    // Per bucket: one boxed 1-column key; per posting, the storage
    // position of its row and a chain link — the rows themselves are
    // charged to the relation, never copied into the index.
    let expected = 2 * tuple_bytes(1) + 5 * POSTING_BYTES;
    assert_eq!(idx.heap_bytes(), expected);
}

#[test]
fn interner_bytes_grow_with_names_not_lookups() {
    let mut i = Interner::new();
    assert_eq!(i.heap_bytes(), 0);
    i.intern("edge");
    let one = i.heap_bytes();
    assert!(one > 0);
    // Re-interning an existing name allocates nothing.
    i.intern("edge");
    assert_eq!(i.heap_bytes(), one);
    i.intern("tc");
    assert!(i.heap_bytes() > one);
}
