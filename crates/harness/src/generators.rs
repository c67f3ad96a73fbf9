//! Instance generators for the experiment harness: graph families,
//! random relations, and game boards.
//!
//! Every generator is deterministic given its arguments (random ones
//! take an explicit seed), so tests, benches and the Figure 1 harness
//! are reproducible.

use unchained_common::{Instance, Interner, Rng, Symbol, Tuple, Value};

/// Inserts the edge `(a, b)` into `rel`.
fn edge(instance: &mut Instance, rel: Symbol, a: i64, b: i64) {
    instance.insert_fact(rel, Tuple::from([Value::Int(a), Value::Int(b)]));
}

/// A directed line `0 → 1 → … → n−1` in relation `name`.
pub fn line_graph(interner: &mut Interner, name: &str, n: i64) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for k in 0..n - 1 {
        edge(&mut instance, rel, k, k + 1);
    }
    instance
}

/// A directed cycle on `n` nodes.
pub fn cycle_graph(interner: &mut Interner, name: &str, n: i64) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for k in 0..n {
        edge(&mut instance, rel, k, (k + 1) % n);
    }
    instance
}

/// The complete directed graph (no self-loops) on `n` nodes.
pub fn complete_graph(interner: &mut Interner, name: &str, n: i64) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for a in 0..n {
        for b in 0..n {
            if a != b {
                edge(&mut instance, rel, a, b);
            }
        }
    }
    instance
}

/// A `w × h` grid digraph in relation `name`: node `(x, y)` is the
/// integer `y·w + x`, with edges rightward and downward. Transitive
/// closure over a grid exercises joins with high fan-in (many distinct
/// paths reach each node) without the quadratic blowup of a clique.
pub fn grid_graph(interner: &mut Interner, name: &str, w: i64, h: i64) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for y in 0..h {
        for x in 0..w {
            let node = y * w + x;
            if x + 1 < w {
                edge(&mut instance, rel, node, node + 1);
            }
            if y + 1 < h {
                edge(&mut instance, rel, node, node + w);
            }
        }
    }
    instance
}

/// A layered two-parent DAG in relation `name`: `layers` layers of
/// `width` nodes, node `(k, j)` being the integer `k·width + j`, with
/// edges from `(k, j)` to `(k+1, j)` and `(k+1, (j+1) mod width)`. Every
/// node past the first layer has two parents, so the transitive closure
/// derives most facts along several paths: retracting one edge
/// overdeletes facts that another path rederives.
pub fn layered_dag(interner: &mut Interner, name: &str, layers: i64, width: i64) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for k in 0..layers - 1 {
        for j in 0..width {
            let node = k * width + j;
            edge(&mut instance, rel, node, node + width);
            edge(&mut instance, rel, node, (k + 1) * width + (j + 1) % width);
        }
    }
    instance
}

/// A random digraph on `n` nodes where each ordered pair (including
/// self-loops) is an edge independently with probability `p`.
pub fn random_digraph(interner: &mut Interner, name: &str, n: i64, p: f64, seed: u64) -> Instance {
    let rel = interner.intern(name);
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for a in 0..n {
        for b in 0..n {
            if rng.gen_bool(p) {
                edge(&mut instance, rel, a, b);
            }
        }
    }
    instance
}

/// A random digraph given by out-degree: each of `n` nodes gets
/// exactly `out_deg` *distinct* random successors (re-rolling
/// collisions), so the relation holds exactly `n·out_deg` edges. This
/// is the way to reach 10^6-fact EDBs — [`random_digraph`] flips a
/// coin per ordered pair and is quadratic in `n`.
pub fn random_out_digraph(
    interner: &mut Interner,
    name: &str,
    n: i64,
    out_deg: i64,
    seed: u64,
) -> Instance {
    let rel = interner.intern(name);
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    let out_deg = out_deg.min(n); // at most n distinct successors exist
    for a in 0..n {
        let mut added = 0;
        while added < out_deg {
            let b = rng.gen_range_i64(0, n);
            if instance.insert_fact(rel, Tuple::from([Value::Int(a), Value::Int(b)])) {
                added += 1;
            }
        }
    }
    instance
}

/// A random Andersen points-to input for `programs::POINTSTO`:
/// `vars` program variables (values `0..vars`) and as many allocation
/// sites (values `vars..2·vars`), one `AddrOf` fact per site aimed at
/// a random variable, plus exactly `assigns`/`loads`/`stores` distinct
/// statements over random variable pairs. Keep `assigns` below `vars`
/// (subcritical assign graph) and the fixpoint's output stays linear
/// in the input — the EDB size, not the closure, is the scale knob.
/// Total EDB size is exactly `vars + assigns + loads + stores`.
pub fn random_pointsto(
    interner: &mut Interner,
    vars: i64,
    assigns: i64,
    loads: i64,
    stores: i64,
    seed: u64,
) -> Instance {
    let addr_of = interner.intern("AddrOf");
    let assign = interner.intern("Assign");
    let load = interner.intern("Load");
    let store = interner.intern("Store");
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    for rel in [addr_of, assign, load, store] {
        instance.ensure(rel, 2);
    }
    for o in 0..vars {
        let v = rng.gen_range_i64(0, vars);
        instance.insert_fact(addr_of, Tuple::from([Value::Int(v), Value::Int(vars + o)]));
    }
    for (rel, count) in [(assign, assigns), (load, loads), (store, stores)] {
        let mut added = 0;
        while added < count {
            let a = rng.gen_range_i64(0, vars);
            let b = rng.gen_range_i64(0, vars);
            if instance.insert_fact(rel, Tuple::from([Value::Int(a), Value::Int(b)])) {
                added += 1;
            }
        }
    }
    instance
}

/// A random symmetric-pair graph: `pairs` disjoint 2-cycles plus
/// `extra` random one-way edges among `2·pairs` nodes. The workload of
/// the orientation program (Section 5.1).
pub fn symmetric_pairs(
    interner: &mut Interner,
    name: &str,
    pairs: i64,
    extra: i64,
    seed: u64,
) -> Instance {
    let rel = interner.intern(name);
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    let n = 2 * pairs;
    for k in 0..pairs {
        edge(&mut instance, rel, 2 * k, 2 * k + 1);
        edge(&mut instance, rel, 2 * k + 1, 2 * k);
    }
    let mut added = 0;
    while added < extra {
        let a = rng.gen_range_i64(0, n);
        let b = rng.gen_range_i64(0, n);
        if a != b && !instance.contains_fact(rel, &Tuple::from([Value::Int(b), Value::Int(a)])) {
            if instance.insert_fact(rel, Tuple::from([Value::Int(a), Value::Int(b)])) {
                added += 1;
            } else {
                added += 1; // duplicate pick still consumes budget
            }
        } else {
            added += 1;
        }
    }
    instance
}

/// A random game board for the win-move query: `n` states, each with
/// 0–`max_moves` outgoing moves, in relation `name`.
pub fn random_game(
    interner: &mut Interner,
    name: &str,
    n: i64,
    max_moves: i64,
    seed: u64,
) -> Instance {
    let rel = interner.intern(name);
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for a in 0..n {
        let moves = rng.gen_range_i64(0, max_moves + 1);
        for _ in 0..moves {
            let b = rng.gen_range_i64(0, n);
            edge(&mut instance, rel, a, b);
        }
    }
    instance
}

/// The paper's Example 3.2 game instance `K`:
/// `moves = {⟨b,c⟩, ⟨c,a⟩, ⟨a,b⟩, ⟨a,d⟩, ⟨d,e⟩, ⟨d,f⟩, ⟨f,g⟩}`.
pub fn paper_game(interner: &mut Interner, name: &str) -> Instance {
    let rel = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(rel, 2);
    for (x, y) in [
        ("b", "c"),
        ("c", "a"),
        ("a", "b"),
        ("a", "d"),
        ("d", "e"),
        ("d", "f"),
        ("f", "g"),
    ] {
        let vx = Value::sym(interner, x);
        let vy = Value::sym(interner, y);
        instance.insert_fact(rel, Tuple::from([vx, vy]));
    }
    instance
}

/// A random unary relation over `0..universe` with `k` distinct
/// members, in relation `name`.
pub fn random_unary(
    interner: &mut Interner,
    name: &str,
    universe: i64,
    k: usize,
    seed: u64,
) -> Instance {
    let rel = interner.intern(name);
    let mut rng = Rng::seeded(seed);
    let mut instance = Instance::new();
    instance.ensure(rel, 1);
    let mut values: Vec<i64> = (0..universe).collect();
    // Fisher–Yates prefix shuffle.
    for i in 0..k.min(values.len()) {
        let j = i + rng.gen_index(values.len() - i);
        values.swap(i, j);
        instance.insert_fact(rel, Tuple::from([Value::Int(values[i])]));
    }
    instance
}

/// Merges `b` into `a` (union of relations; arities must agree).
pub fn merge(mut a: Instance, b: &Instance) -> Instance {
    for (pred, rel) in b.iter() {
        if rel.is_empty() {
            a.ensure(pred, rel.arity());
            continue;
        }
        a.ensure(pred, rel.arity()).union_with(rel);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_cycle_sizes() {
        let mut i = Interner::new();
        let g = line_graph(&mut i, "G", 5);
        assert_eq!(g.fact_count(), 4);
        let c = cycle_graph(&mut i, "G", 5);
        assert_eq!(c.fact_count(), 5);
        let k = complete_graph(&mut i, "G", 4);
        assert_eq!(k.fact_count(), 12);
    }

    #[test]
    fn grid_graph_edge_count() {
        let mut i = Interner::new();
        // w·(h−1) downward + h·(w−1) rightward edges.
        let g = grid_graph(&mut i, "G", 4, 3);
        assert_eq!(g.fact_count(), (4 * 2 + 3 * 3) as usize);
        let line = grid_graph(&mut i, "G", 5, 1);
        assert_eq!(line.fact_count(), 4);
    }

    #[test]
    fn random_digraph_is_seed_deterministic() {
        let mut i = Interner::new();
        let a = random_digraph(&mut i, "G", 10, 0.3, 7);
        let b = random_digraph(&mut i, "G", 10, 0.3, 7);
        assert!(a.same_facts(&b));
        let c = random_digraph(&mut i, "G", 10, 0.3, 8);
        assert!(!a.same_facts(&c) || a.fact_count() == c.fact_count());
    }

    #[test]
    fn out_digraph_has_exact_edge_count() {
        let mut i = Interner::new();
        let g = random_out_digraph(&mut i, "G", 100, 4, 9);
        assert_eq!(g.fact_count(), 400);
        // Deterministic in the seed; a clamp to n when out_deg > n.
        let h = random_out_digraph(&mut i, "G", 100, 4, 9);
        assert!(g.same_facts(&h));
        let tiny = random_out_digraph(&mut i, "G", 3, 10, 9);
        assert_eq!(tiny.fact_count(), 9);
    }

    #[test]
    fn pointsto_input_has_exact_fact_count() {
        let mut i = Interner::new();
        let inst = random_pointsto(&mut i, 50, 25, 10, 10, 3);
        assert_eq!(inst.fact_count(), 50 + 25 + 10 + 10);
        let again = random_pointsto(&mut i, 50, 25, 10, 10, 3);
        assert!(inst.same_facts(&again));
        // Allocation sites live in their own value band above the vars.
        let addr = i.get("AddrOf").unwrap();
        for t in inst.relation(addr).unwrap().iter() {
            match (t[0], t[1]) {
                (Value::Int(v), Value::Int(o)) => {
                    assert!((0..50).contains(&v));
                    assert!((50..100).contains(&o));
                }
                other => panic!("non-int point-to fact {other:?}"),
            }
        }
    }

    #[test]
    fn symmetric_pairs_have_two_cycles() {
        let mut i = Interner::new();
        let inst = symmetric_pairs(&mut i, "G", 3, 0, 1);
        assert_eq!(inst.fact_count(), 6);
        let g = i.get("G").unwrap();
        let rel = inst.relation(g).unwrap();
        for t in rel.iter() {
            let rev = Tuple::from([t[1], t[0]]);
            assert!(rel.contains(&rev));
        }
    }

    #[test]
    fn paper_game_has_seven_moves() {
        let mut i = Interner::new();
        let inst = paper_game(&mut i, "moves");
        assert_eq!(inst.fact_count(), 7);
    }

    #[test]
    fn random_unary_has_k_members() {
        let mut i = Interner::new();
        let inst = random_unary(&mut i, "R", 20, 7, 3);
        assert_eq!(inst.fact_count(), 7);
    }

    #[test]
    fn merge_unions() {
        let mut i = Interner::new();
        let a = line_graph(&mut i, "G", 3);
        let b = random_unary(&mut i, "R", 5, 2, 1);
        let m = merge(a, &b);
        assert_eq!(m.fact_count(), 4);
    }
}
