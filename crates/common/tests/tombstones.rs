//! Property suite for tombstoned storage (`Relation::retract`, revival
//! by re-insertion, `Relation::compact`).
//!
//! Seeded schedules of insert, retract, re-insert, commit, clone and
//! compact run against a `BTreeSet` model over a tiny value domain, so
//! one tuple is retracted and revived many times and tails hold several
//! copies of it when they are committed. After every step:
//!
//! * `len`, `contains`, `iter_stored` (each live tuple exactly once),
//!   `sorted` and `delta_len` agree with the model;
//! * for a mark captured at a commit boundary, `iter_since` yields
//!   exactly the live tuples (re)appended since, each once, until a
//!   compaction starts a new epoch;
//! * an `Index` that follows the lineage through `absorb_from` probes
//!   exactly like a fresh build whenever it is allowed to absorb.

use std::collections::BTreeSet;
use unchained_common::{Index, Relation, Rng, Tuple, Value};

const DOMAIN: i64 = 5;

fn pair(a: i64, b: i64) -> Tuple {
    Tuple::from([Value::Int(a), Value::Int(b)])
}

fn sorted_rows<'a>(rows: impl Iterator<Item = &'a [Value]>) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = rows.map(Tuple::new).collect();
    out.sort_unstable();
    out
}

/// The rows each key's postings name in `rel`, the relation `idx` was
/// built over (postings are storage positions).
fn probe_all(idx: &Index, rel: &Relation) -> Vec<Vec<Tuple>> {
    (0..DOMAIN)
        .map(|k| sorted_rows(rel.rows_at(idx.probe(&[Value::Int(k)]))))
        .collect()
}

#[test]
fn retract_revive_commit_compact_schedules_match_a_set_model() {
    for seed in 0..200u64 {
        let mut rng = Rng::seeded(seed);
        let mut rel = Relation::new(2);
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        let mut idx = Index::build(&rel, &[0]);
        let mut idx_gen = rel.generation();
        // A mark at a commit boundary and the tuples appended since.
        let mut mark = rel.generation();
        let mut since: BTreeSet<Tuple> = BTreeSet::new();
        let mut mark_exact = true;
        // A live clone forks the epoch at the next mutation.
        let mut _shadow: Option<Relation> = None;
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            match rng.gen_index(20) {
                0..=7 => {
                    let t = pair(rng.gen_range_i64(0, DOMAIN), rng.gen_range_i64(0, DOMAIN));
                    let fresh = model.insert(t.clone());
                    assert_eq!(rel.insert(t.clone()), fresh, "{ctx}");
                    if fresh {
                        since.insert(t);
                    }
                }
                8..=13 if !model.is_empty() => {
                    let live: Vec<Tuple> = model.iter().cloned().collect();
                    let t = live[rng.gen_index(live.len())].clone();
                    model.remove(&t);
                    since.remove(&t);
                    assert!(rel.retract(&t), "{ctx}");
                    assert!(!rel.retract(&t), "{ctx}: already dead");
                }
                14 | 15 => {
                    rel.commit();
                    mark = rel.generation();
                    since.clear();
                    mark_exact = true;
                }
                16 => {
                    let dead = rel.tombstone_count();
                    let compacted = rel.compact();
                    assert_eq!(compacted, dead > model.len(), "{ctx}");
                    if compacted {
                        assert_eq!(rel.tombstone_count(), 0, "{ctx}");
                        mark_exact = false;
                    }
                }
                17 => _shadow = Some(rel.clone()),
                18 => _shadow = None,
                _ => {}
            }
            assert_eq!(rel.len(), model.len(), "{ctx}");
            let want: Vec<Tuple> = model.iter().cloned().collect();
            assert_eq!(sorted_rows(rel.iter_stored()), want, "{ctx}: iter_stored");
            assert_eq!(*rel.sorted(), want, "{ctx}: sorted");
            for t in &want {
                assert!(rel.contains(t), "{ctx}");
            }
            assert_eq!(rel.delta_len(mark), rel.iter_since(mark).count(), "{ctx}");
            if mark_exact && rel.delta_bounds(mark).is_some() {
                let got = sorted_rows(rel.iter_since(mark));
                let want_since: Vec<Tuple> = since.iter().cloned().collect();
                assert_eq!(got, want_since, "{ctx}: iter_since");
            }
            match idx.absorb_from(&rel, idx_gen) {
                Some(_) => {
                    assert_eq!(
                        probe_all(&idx, &rel),
                        probe_all(&Index::build(&rel, &[0]), &rel),
                        "{ctx}: absorbed index"
                    );
                }
                None => idx = Index::build(&rel, &[0]),
            }
            idx_gen = rel.generation();
        }
    }
}
