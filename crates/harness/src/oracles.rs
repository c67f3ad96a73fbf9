//! Direct (non-Datalog) reference implementations of the queries the
//! paper's examples compute. The experiment harness validates every
//! engine against these.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use unchained_common::{Instance, Relation, Symbol, Tuple, Value};

/// Extracts a binary relation as an adjacency map (plus the node set).
fn adjacency(instance: &Instance, rel: Symbol) -> (BTreeSet<Value>, BTreeMap<Value, Vec<Value>>) {
    let mut nodes = BTreeSet::new();
    let mut adj: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    if let Some(r) = instance.relation(rel) {
        for t in r.iter() {
            nodes.insert(t[0]);
            nodes.insert(t[1]);
            adj.entry(t[0]).or_default().push(t[1]);
        }
    }
    (nodes, adj)
}

/// The transitive closure of the binary relation `rel` (pairs `(a, b)`
/// with a nonempty path from `a` to `b`).
pub fn transitive_closure(instance: &Instance, rel: Symbol) -> Relation {
    let (nodes, adj) = adjacency(instance, rel);
    let mut out = Relation::new(2);
    for &start in &nodes {
        let mut queue: VecDeque<Value> = adj.get(&start).into_iter().flatten().copied().collect();
        let mut seen: BTreeSet<Value> = queue.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            out.insert(Tuple::from([start, v]));
            for &w in adj.get(&v).into_iter().flatten() {
                if seen.insert(w) {
                    queue.push_back(w);
                }
            }
        }
    }
    out
}

/// The complement of the transitive closure over `universe²`.
pub fn complement_tc(instance: &Instance, rel: Symbol, universe: &[Value]) -> Relation {
    let tc = transitive_closure(instance, rel);
    let mut out = Relation::new(2);
    for &a in universe {
        for &b in universe {
            let t = Tuple::from([a, b]);
            if !tc.contains(&t) {
                out.insert(t);
            }
        }
    }
    out
}

/// BFS shortest-path distances: `dist[(a, b)] = d(a, b)` for reachable
/// pairs (path length ≥ 1; absent = infinite).
pub fn distances(instance: &Instance, rel: Symbol) -> BTreeMap<(Value, Value), u64> {
    let (nodes, adj) = adjacency(instance, rel);
    let mut out = BTreeMap::new();
    for &start in &nodes {
        let mut queue: VecDeque<(Value, u64)> = VecDeque::new();
        let mut seen: BTreeSet<Value> = BTreeSet::new();
        for &n in adj.get(&start).into_iter().flatten() {
            if seen.insert(n) {
                queue.push_back((n, 1));
            }
        }
        while let Some((v, d)) = queue.pop_front() {
            out.insert((start, v), d);
            for &w in adj.get(&v).into_iter().flatten() {
                if seen.insert(w) {
                    queue.push_back((w, d + 1));
                }
            }
        }
    }
    out
}

/// The nodes *not* reachable from a cycle (Example 4.4's `good` query:
/// nodes for which the lengths of incoming paths are bounded).
pub fn good_nodes(instance: &Instance, rel: Symbol) -> Relation {
    let (nodes, adj) = adjacency(instance, rel);
    // A node is "bad" iff it is reachable from some node on a cycle.
    // Nodes on cycles: those reachable from themselves.
    let tc = transitive_closure(instance, rel);
    let on_cycle: Vec<Value> = nodes
        .iter()
        .copied()
        .filter(|&v| tc.contains(&Tuple::from([v, v])))
        .collect();
    let mut bad: BTreeSet<Value> = on_cycle.iter().copied().collect();
    let mut queue: VecDeque<Value> = on_cycle.into();
    while let Some(v) = queue.pop_front() {
        for &w in adj.get(&v).into_iter().flatten() {
            if bad.insert(w) {
                queue.push_back(w);
            }
        }
    }
    let mut out = Relation::new(1);
    for &v in &nodes {
        if !bad.contains(&v) {
            out.insert(Tuple::from([v]));
        }
    }
    out
}

/// Game-theoretic value of a win-move game state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GameValue {
    /// The player to move wins with optimal play.
    Win,
    /// The player to move loses.
    Lose,
    /// Neither: optimal play draws (forces an infinite game).
    Draw,
}

/// Solves the win-move game (Example 3.2) by backward induction:
/// a state with no moves is lost; a state with a move to a lost state
/// is won; states never labelled are draws. The draws are exactly the
/// *unknown* facts of the well-founded semantics.
pub fn solve_game(instance: &Instance, moves: Symbol) -> BTreeMap<Value, GameValue> {
    let (nodes, adj) = adjacency(instance, moves);
    let mut value: BTreeMap<Value, GameValue> = BTreeMap::new();
    loop {
        let mut changed = false;
        for &v in &nodes {
            if value.contains_key(&v) {
                continue;
            }
            let succs = adj.get(&v).map(Vec::as_slice).unwrap_or(&[]);
            if succs.is_empty() {
                value.insert(v, GameValue::Lose);
                changed = true;
            } else if succs.iter().any(|s| value.get(s) == Some(&GameValue::Lose)) {
                value.insert(v, GameValue::Win);
                changed = true;
            } else if succs.iter().all(|s| value.get(s) == Some(&GameValue::Win)) {
                value.insert(v, GameValue::Lose);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &v in &nodes {
        value.entry(v).or_insert(GameValue::Draw);
    }
    value
}

/// Whether the unary relation `rel` has an even number of elements
/// (the evenness query of Section 4.4).
pub fn evenness(instance: &Instance, rel: Symbol) -> bool {
    instance
        .relation(rel)
        .map_or(0, Relation::len)
        .is_multiple_of(2)
}

/// Checks that `oriented` is a valid orientation of `original`: every
/// 2-cycle of `original` lost exactly one direction, one-way edges are
/// untouched, and nothing else changed.
pub fn is_valid_orientation(original: &Relation, oriented: &Relation) -> bool {
    if oriented.arity() != 2 || original.arity() != 2 {
        return false;
    }
    // Every oriented edge must come from the original.
    for t in oriented.iter() {
        if !original.contains(&t) {
            return false;
        }
    }
    for t in original.iter() {
        let rev = Tuple::from([t[1], t[0]]);
        let symmetric = original.contains(&rev) && t[0] != t[1];
        if symmetric {
            // Exactly one direction survives.
            if oriented.contains(&t) == oriented.contains(&rev) {
                return false;
            }
        } else if !oriented.contains(&t) {
            // One-way edges must survive.
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle_graph, line_graph, paper_game};
    use unchained_common::Interner;

    #[test]
    fn tc_of_line_and_cycle() {
        let mut i = Interner::new();
        let line = line_graph(&mut i, "G", 4);
        let g = i.get("G").unwrap();
        assert_eq!(transitive_closure(&line, g).len(), 6);
        let cyc = cycle_graph(&mut i, "G", 4);
        assert_eq!(transitive_closure(&cyc, g).len(), 16);
    }

    #[test]
    fn complement_is_complement() {
        let mut i = Interner::new();
        let line = line_graph(&mut i, "G", 4);
        let g = i.get("G").unwrap();
        let universe = line.adom_sorted();
        let tc = transitive_closure(&line, g);
        let ct = complement_tc(&line, g, &universe);
        assert_eq!(tc.len() + ct.len(), 16);
    }

    #[test]
    fn distances_on_line() {
        let mut i = Interner::new();
        let line = line_graph(&mut i, "G", 4);
        let g = i.get("G").unwrap();
        let d = distances(&line, g);
        assert_eq!(d.get(&(Value::Int(0), Value::Int(3))), Some(&3));
        assert_eq!(d.get(&(Value::Int(3), Value::Int(0))), None);
    }

    #[test]
    fn good_nodes_of_mixed_graph() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut inst = Instance::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4), (6, 4)] {
            inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        let good = good_nodes(&inst, g);
        // Cycle {1,2,3} and its reachable node 4 are bad; 6 is good.
        assert_eq!(good.len(), 1);
        assert!(good.contains(&Tuple::from([Value::Int(6)])));
    }

    #[test]
    fn paper_game_solution() {
        let mut i = Interner::new();
        let inst = paper_game(&mut i, "moves");
        let moves = i.get("moves").unwrap();
        let v = solve_game(&inst, moves);
        let val = |name: &str, i: &mut Interner| v[&Value::sym(i, name)];
        assert_eq!(val("d", &mut i), GameValue::Win);
        assert_eq!(val("f", &mut i), GameValue::Win);
        assert_eq!(val("e", &mut i), GameValue::Lose);
        assert_eq!(val("g", &mut i), GameValue::Lose);
        assert_eq!(val("a", &mut i), GameValue::Draw);
        assert_eq!(val("b", &mut i), GameValue::Draw);
        assert_eq!(val("c", &mut i), GameValue::Draw);
    }

    #[test]
    fn orientation_validity() {
        let mut original = Relation::new(2);
        let v = Value::Int;
        for (a, b) in [(1, 2), (2, 1), (3, 4)] {
            original.insert(Tuple::from([v(a), v(b)]));
        }
        let mut good = Relation::new(2);
        good.insert(Tuple::from([v(1), v(2)]));
        good.insert(Tuple::from([v(3), v(4)]));
        assert!(is_valid_orientation(&original, &good));
        // Keeping both directions is invalid.
        assert!(!is_valid_orientation(&original, &original));
        // Dropping the one-way edge is invalid.
        let mut missing = Relation::new(2);
        missing.insert(Tuple::from([v(1), v(2)]));
        assert!(!is_valid_orientation(&original, &missing));
    }

    #[test]
    fn evenness_counts() {
        let mut i = Interner::new();
        let r = i.intern("R");
        let mut inst = Instance::new();
        inst.ensure(r, 1);
        assert!(evenness(&inst, r));
        inst.insert_fact(r, Tuple::from([Value::Int(1)]));
        assert!(!evenness(&inst, r));
    }
}
