//! Reference answers computed without any engine code, and the digest
//! that compares them with the engines' answers.
//!
//! Each checker is a textbook algorithm over the generated [`Edb`]:
//! breadth-first search for `reach`, a worklist Andersen solver for
//! points-to, retrograde analysis for the win-move game, and one
//! depth-first search per source for transitive closure. None of them
//! touches `unchained-core` or the storage of `unchained-common`, so a
//! bug shared by every engine still shows up as a mismatch.
//!
//! The checkers are also the yardstick of `op_vs_reference`, so they
//! keep their state the way the engines do: in hash maps and hash sets
//! keyed by the input's values, rebuilt from the input on every call.
//! Host slowdowns then stretch a checker and an engine alike. Checkers
//! over dense arrays ran from cache while the engines waited on memory:
//! timed beside the same operations, their ratio to the engines spread
//! up to 15% between seeded runs, where these spread up to 5%.

use std::collections::{HashMap, HashSet, VecDeque};

use unchained_common::{Instance, Interner, Value};

use crate::gen::{mix64, Edb};

/// An order-independent 64-bit digest of a set of facts: the wrapping
/// sum of one mixed hash per fact, plus the fact count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of facts added.
    pub facts: u64,
    /// Wrapping sum of the per-fact hashes.
    pub sum: u64,
}

impl Digest {
    /// Adds the fact `pred(values…)`.
    pub fn add(&mut self, pred: &str, values: &[i64]) {
        // FNV-1a over the name, then each value folded through the
        // splitmix finalizer.
        let mut h = pred.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        for &v in values {
            h = mix64(h ^ v as u64);
        }
        self.facts += 1;
        self.sum = self.sum.wrapping_add(mix64(h));
    }

    /// The digest of every fact in `instance`. A fact holding anything
    /// but integers cannot match a reference answer, so it poisons the
    /// digest.
    pub fn of_instance(instance: &Instance, interner: &Interner) -> Digest {
        let mut d = Digest::default();
        let mut ints = Vec::new();
        for (pred, rel) in instance.iter() {
            let name = interner.name(pred);
            for tuple in rel.iter() {
                ints.clear();
                for v in tuple.values() {
                    match v {
                        Value::Int(i) => ints.push(*i),
                        _ => ints.push(i64::MIN),
                    }
                }
                d.add(name, &ints);
            }
        }
        d
    }
}

/// The binary relation `rel` as a map from each row's `key` column
/// (0 or 1) to the other column's values.
fn multimap(edb: &Edb, rel: &str, key: usize) -> HashMap<i64, Vec<i64>> {
    let mut map: HashMap<i64, Vec<i64>> = HashMap::new();
    for (a, b) in edb.rel(rel).pairs() {
        let (k, v) = if key == 0 { (a, b) } else { (b, a) };
        map.entry(k).or_default().push(v);
    }
    map
}

/// The values `map` holds for `key`; none if it has no entry.
fn at(map: &HashMap<i64, Vec<i64>>, key: i64) -> &[i64] {
    map.get(&key).map_or(&[], Vec::as_slice)
}

/// `R`: every node reachable from a source in `S` along `G`.
pub fn reach(edb: &Edb) -> Digest {
    let succ = multimap(edb, "G", 0);
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    for &s in &edb.rel("S").values {
        if seen.insert(s) {
            queue.push_back(s);
        }
    }
    while let Some(x) = queue.pop_front() {
        for &y in at(&succ, x) {
            if seen.insert(y) {
                queue.push_back(y);
            }
        }
    }
    let mut d = Digest::default();
    for &x in &seen {
        d.add("R", &[x]);
    }
    d
}

/// `T`: every pair `(x, y)` with a non-empty `G` path from `x` to `y`.
pub fn transitive_closure(edb: &Edb) -> Digest {
    let succ = multimap(edb, "G", 0);
    let mut d = Digest::default();
    let mut seen = HashSet::new();
    let mut stack = Vec::new();
    for (&x, first) in &succ {
        seen.clear();
        stack.extend_from_slice(first);
        while let Some(y) = stack.pop() {
            if seen.insert(y) {
                stack.extend_from_slice(at(&succ, y));
            }
        }
        for &y in &seen {
            d.add("T", &[x, y]);
        }
    }
    d
}

/// Solves the win-move game on `moves` by retrograde analysis: a
/// position without moves is lost, a position with a move to a lost
/// position is won, a position whose moves all reach won positions is
/// lost, and everything left undecided is drawn. Returns the digests of
/// the won positions (the well-founded model's true `win` facts) and of
/// the won-or-drawn positions (its true-or-unknown `win` facts).
pub fn win(edb: &Edb) -> (Digest, Digest) {
    #[derive(Clone, Copy, PartialEq)]
    enum Status {
        Open,
        Won,
        Lost,
    }
    let preds = multimap(edb, "moves", 1);
    // Open moves of every position in the game, 0 for those without.
    let mut open_moves: HashMap<i64, usize> = HashMap::new();
    for (a, b) in edb.rel("moves").pairs() {
        *open_moves.entry(a).or_default() += 1;
        open_moves.entry(b).or_default();
    }
    let mut status: HashMap<i64, Status> = HashMap::new();
    let mut queue = VecDeque::new();
    for (&x, &moves) in &open_moves {
        if moves == 0 {
            status.insert(x, Status::Lost);
            queue.push_back(x);
        } else {
            status.insert(x, Status::Open);
        }
    }
    while let Some(y) = queue.pop_front() {
        let lost = status[&y] == Status::Lost;
        for &p in at(&preds, y) {
            if status[&p] != Status::Open {
                continue;
            }
            let left = open_moves.get_mut(&p).expect("every position has a count");
            *left -= 1;
            if lost || *left == 0 {
                status.insert(p, if lost { Status::Won } else { Status::Lost });
                queue.push_back(p);
            }
        }
    }
    let (mut won, mut possible) = (Digest::default(), Digest::default());
    for (&x, s) in &status {
        match s {
            Status::Won => {
                won.add("win", &[x]);
                possible.add("win", &[x]);
            }
            // Drawn positions have moves, so they are in the game.
            Status::Open => possible.add("win", &[x]),
            Status::Lost => {}
        }
    }
    (won, possible)
}

/// `PT` by a worklist Andersen solver over facts. Each new fact
/// `PT(x,y)` is indexed, then joined once with every rule body it can
/// complete against the facts indexed so far, itself included:
/// `Assign(v,x)` gives `PT(v,y)`; as the first `PT` of the load rule,
/// `Load(v,x)` and `PT(y,o)` give `PT(v,o)`; as its second, `PT(p,x)`
/// and `Load(v,p)` give `PT(v,y)`; and likewise for the store rule. A
/// pair of facts is joined when the later of the two is taken from the
/// worklist.
pub fn andersen(edb: &Edb) -> Digest {
    let assign_by_w = multimap(edb, "Assign", 1);
    let load_by_p = multimap(edb, "Load", 1);
    let store_by_p = multimap(edb, "Store", 0);
    let store_by_w = multimap(edb, "Store", 1);
    let mut pt: HashSet<(i64, i64)> = HashSet::new();
    // `PT` indexed on its first and on its second column.
    let (mut from, mut to): (HashMap<i64, Vec<i64>>, HashMap<i64, Vec<i64>>) = Default::default();
    let mut work: Vec<(i64, i64)> = edb
        .rel("AddrOf")
        .pairs()
        .filter(|&f| pt.insert(f))
        .collect();
    let mut derived = Vec::new();
    while let Some((x, y)) = work.pop() {
        from.entry(x).or_default().push(y);
        to.entry(y).or_default().push(x);
        for &v in at(&assign_by_w, x) {
            derived.push((v, y));
        }
        for &v in at(&load_by_p, x) {
            derived.extend(at(&from, y).iter().map(|&o| (v, o)));
        }
        for &p in at(&to, x) {
            derived.extend(at(&load_by_p, p).iter().map(|&v| (v, y)));
        }
        for &w in at(&store_by_p, x) {
            derived.extend(at(&from, w).iter().map(|&o| (y, o)));
        }
        for &p in at(&store_by_w, x) {
            derived.extend(at(&from, p).iter().map(|&q| (q, y)));
        }
        work.extend(derived.drain(..).filter(|&f| pt.insert(f)));
    }
    let mut d = Digest::default();
    for &(v, o) in &pt {
        d.add("PT", &[v, o]);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, NonmonoSize, PointsToSize, ReachSize};
    use unchained_core::noninflationary::ConflictPolicy;
    use unchained_core::{inflationary, noninflationary, seminaive, wellfounded, EvalOptions};
    use unchained_parser::{parse_facts, parse_program};

    fn load(program: &str, edb: &Edb) -> (unchained_parser::Program, Instance, Interner) {
        let mut interner = Interner::new();
        let p = parse_program(program, &mut interner).unwrap();
        let i = parse_facts(&edb.render(), &mut interner).unwrap();
        (p, i, interner)
    }

    const SMALL: NonmonoSize = NonmonoSize {
        game_layers: 8,
        game_width: 50,
        tc_layers: 6,
        tc_width: 8,
    };

    #[test]
    fn digest_is_order_independent() {
        let facts = [("R", vec![1]), ("T", vec![1, 2]), ("T", vec![2, 1])];
        let mut fwd = Digest::default();
        for (p, v) in &facts {
            fwd.add(p, v);
        }
        let mut rev = Digest::default();
        for (p, v) in facts.iter().rev() {
            rev.add(p, v);
        }
        assert_eq!(fwd, rev);
        // Argument order and relation names are part of a fact.
        let mut swapped = Digest::default();
        swapped.add("T", &[1, 2]);
        let mut other = Digest::default();
        other.add("T", &[2, 1]);
        assert_ne!(swapped, other);
        let mut renamed = Digest::default();
        renamed.add("S", &[1, 2]);
        assert_ne!(swapped, renamed);
        // An instance digests the same whatever order it was built in.
        let mut interner = Interner::new();
        let a = parse_facts("T(1,2). T(2,1). R(1).", &mut interner).unwrap();
        let b = parse_facts("R(1). T(2,1). T(1,2).", &mut interner).unwrap();
        assert_eq!(Digest::of_instance(&a, &interner), fwd);
        assert_eq!(Digest::of_instance(&b, &interner), fwd);
    }

    #[test]
    fn reach_checker_agrees_with_seminaive() {
        for seed in [1, 2] {
            let size = ReachSize {
                nodes: 2_000,
                degree: 2,
                sources: 3,
            };
            let edb = gen::reach(seed, size);
            let (p, i, interner) = load(gen::REACH_PROGRAM, &edb);
            let run = seminaive::minimum_model(&p, &i, EvalOptions::default()).unwrap();
            let got = Digest::of_instance(&run.answer(&p), &interner);
            assert_eq!(got, reach(&edb), "seed {seed}");
            assert!(got.facts > 3, "seed {seed}: nothing reached");
        }
    }

    #[test]
    fn andersen_checker_agrees_with_seminaive() {
        for seed in [1, 2] {
            let edb = gen::pointsto(seed, PointsToSize { vars: 4_000 });
            let (p, i, interner) = load(gen::POINTSTO_PROGRAM, &edb);
            let run = seminaive::minimum_model(&p, &i, EvalOptions::default()).unwrap();
            let got = Digest::of_instance(&run.answer(&p), &interner);
            assert_eq!(got, andersen(&edb), "seed {seed}");
            assert!(got.facts > 4_000, "seed {seed}: no derived points-to facts");
        }
    }

    #[test]
    fn retrograde_checker_agrees_with_wellfounded() {
        for seed in [1, 2] {
            let edb = gen::game(seed, SMALL);
            let (p, i, interner) = load(gen::WIN_PROGRAM, &edb);
            let model = wellfounded::eval(&p, &i, EvalOptions::default()).unwrap();
            let (won, possible) = win(&edb);
            let t = Digest::of_instance(&model.true_facts.project_schema(p.idb()), &interner);
            let u = Digest::of_instance(&model.possible_facts.project_schema(p.idb()), &interner);
            assert_eq!((t, u), (won, possible), "seed {seed}");
            assert!(won.facts > 0 && possible.facts > won.facts, "seed {seed}");
        }
    }

    #[test]
    fn tc_checker_agrees_with_both_fixpoint_engines() {
        for seed in [1, 2] {
            let edb = gen::digraph(seed, SMALL);
            let (p, i, interner) = load(gen::TC_PROGRAM, &edb);
            let want = transitive_closure(&edb);
            let infl = inflationary::eval(&p, &i, EvalOptions::default()).unwrap();
            let non = noninflationary::eval(
                &p,
                &i,
                ConflictPolicy::PreferPositive,
                EvalOptions::default(),
            )
            .unwrap();
            assert_eq!(Digest::of_instance(&infl.answer(&p), &interner), want);
            assert_eq!(Digest::of_instance(&non.answer(&p), &interner), want);
            assert!(want.facts > edb.facts() as u64, "seed {seed}");
        }
    }
}
