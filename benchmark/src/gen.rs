//! Seeded workload inputs and the program texts they feed.
//!
//! Everything the engines receive is built here: a splitmix64 stream
//! draws each input's shape, `--seed` renames its values and reorders
//! its facts ([`relabel`]), and [`Edb::render`] turns it into `.facts`
//! text, which is all the program sees of the input. The shape is
//! drawn from a fixed stream, so every seed poses the same problem
//! under other names: the same rounds, joins and answer sizes. Random
//! shapes made the work itself vary with the seed (one points-to seed
//! in ten ran 40% longer than the rest), which the spread between
//! seeded runs would count as noise.
//!
//! The generator and the program texts live in the benchmark on
//! purpose, so a change to the repository's own generators or program
//! corpus cannot change what the benchmark measures.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Single-source reachability (two rules, one two-way join).
pub const REACH_PROGRAM: &str = "\
R(x) :- S(x).
R(y) :- R(x), G(x,y).
";

/// Field-insensitive Andersen points-to analysis (three-way joins
/// through the growing `PT` relation).
pub const POINTSTO_PROGRAM: &str = "\
PT(v,o) :- AddrOf(v,o).
PT(v,o) :- Assign(v,w), PT(w,o).
PT(v,o) :- Load(v,p), PT(p,q), PT(q,o).
PT(q,o) :- Store(p,w), PT(p,q), PT(w,o).
";

/// The win-move game (Datalog¬, not stratifiable).
pub const WIN_PROGRAM: &str = "win(x) :- moves(x,y), !win(y).\n";

/// Transitive closure.
pub const TC_PROGRAM: &str = "\
T(x,y) :- G(x,y).
T(x,y) :- G(x,z), T(z,y).
";

/// The splitmix64 generator: a 64-bit counter passed through a
/// finalizing mix. Small, fast, and fixed here for good.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A value in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// [`below`](Self::below) as a domain value.
    fn value_below(&mut self, n: u64) -> i64 {
        i64::try_from(self.below(n)).expect("benchmark domains fit in i64")
    }
}

/// The splitmix64 finalizer, also used by the answer digest.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One input relation: integer rows of a fixed arity, stored flat.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rel {
    /// Relation name as written in the program text.
    pub name: &'static str,
    /// Values per row.
    pub arity: usize,
    /// Row-major values, `arity` per row.
    pub values: Vec<i64>,
}

impl Rel {
    fn new(name: &'static str, arity: usize) -> Self {
        Rel {
            name,
            arity,
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len() / self.arity
    }

    /// The rows of a binary relation.
    pub fn pairs(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        assert_eq!(self.arity, 2, "{} is not binary", self.name);
        self.values.chunks_exact(2).map(|p| (p[0], p[1]))
    }
}

/// A generated input database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edb {
    /// Relations in generation order.
    pub rels: Vec<Rel>,
}

impl Edb {
    /// Total number of facts.
    pub fn facts(&self) -> usize {
        self.rels.iter().map(Rel::len).sum()
    }

    /// The relation called `name`.
    ///
    /// # Panics
    /// If the input has no such relation (a benchmark bug).
    pub fn rel(&self, name: &str) -> &Rel {
        self.rels
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("input has no relation {name}"))
    }

    /// Renders the input as `.facts` text, one fact per line.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.facts() * 20);
        for rel in &self.rels {
            for row in rel.values.chunks_exact(rel.arity) {
                out.push_str(rel.name);
                out.push('(');
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push_str(").\n");
            }
        }
        out
    }
}

/// Seed of the stream that draws every input's shape.
const SHAPE_SEED: u64 = 0x5EED_0001;

/// The seeded form of `shape`: values in each of the consecutive id
/// ranges `kinds` (sizes, from 0) renamed by a random permutation of
/// that range, and the rows of each relation put in random order. A
/// value keeps its kind, so points-to variables stay variables.
fn relabel(shape: Edb, seed: u64, kinds: &[u64]) -> Edb {
    let mut rng = SplitMix64::new(seed);
    let mut name = Vec::new();
    for &n in kinds {
        let base = name.len() as i64;
        let start = name.len();
        name.extend((0..n as i64).map(|v| base + v));
        shuffle(&mut rng, &mut name[start..]);
    }
    let rels = shape
        .rels
        .into_iter()
        .map(|rel| {
            let mut rows: Vec<&[i64]> = rel.values.chunks_exact(rel.arity).collect();
            shuffle(&mut rng, &mut rows);
            let values = rows
                .iter()
                .flat_map(|row| row.iter().map(|&v| name[v as usize]))
                .collect();
            Rel { values, ..rel }
        })
        .collect();
    Edb { rels }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Appends `count` distinct random pairs over `0..range × 0..range`.
fn distinct_pairs(rng: &mut SplitMix64, rel: &mut Rel, count: u64, range: u64) {
    let mut seen = HashSet::new();
    while (seen.len() as u64) < count {
        let pair = (rng.value_below(range), rng.value_below(range));
        if seen.insert(pair) {
            rel.values.extend([pair.0, pair.1]);
        }
    }
}

/// Gives `node` `degree` distinct successors, each drawn by `target`
/// (which must have at least `degree` values to draw from).
fn successors(
    rng: &mut SplitMix64,
    rel: &mut Rel,
    node: i64,
    degree: u64,
    mut target: impl FnMut(&mut SplitMix64) -> i64,
) {
    let start = rel.values.len();
    let mut added = 0;
    while added < degree {
        let b = target(rng);
        if !rel.values[start..].chunks_exact(2).any(|e| e[1] == b) {
            rel.values.extend([node, b]);
            added += 1;
        }
    }
}

/// Size of the `reach` input.
#[derive(Clone, Copy, Debug)]
pub struct ReachSize {
    /// Graph nodes.
    pub nodes: u64,
    /// Distinct successors per node.
    pub degree: u64,
    /// Distinct source nodes.
    pub sources: u64,
}

/// The `reach` input: `G` with exactly `nodes·degree` edges and `S` with
/// exactly `sources` nodes.
pub fn reach(seed: u64, size: ReachSize) -> Edb {
    relabel(reach_shape(size), seed, &[size.nodes])
}

fn reach_shape(size: ReachSize) -> Edb {
    let mut rng = SplitMix64::new(SHAPE_SEED);
    let mut g = Rel::new("G", 2);
    for a in 0..size.nodes {
        successors(&mut rng, &mut g, a as i64, size.degree, |r| {
            r.value_below(size.nodes)
        });
    }
    let mut s = Rel::new("S", 1);
    let mut seen = HashSet::new();
    while (seen.len() as u64) < size.sources.min(size.nodes) {
        let x = rng.value_below(size.nodes);
        if seen.insert(x) {
            s.values.push(x);
        }
    }
    Edb { rels: vec![g, s] }
}

/// Size of a points-to input: `vars` variables, as many allocation
/// sites, `vars/4` assignments and `vars/16` loads and stores. The
/// assignment graph stays subcritical, so the closure stays linear in
/// the input.
#[derive(Clone, Copy, Debug)]
pub struct PointsToSize {
    /// Program variables (values `0..vars`; sites are `vars..2·vars`).
    pub vars: u64,
}

/// The points-to input: one `AddrOf` per allocation site aimed at a
/// random variable, then distinct random `Assign`, `Load` and `Store`
/// statements over variable pairs.
pub fn pointsto(seed: u64, size: PointsToSize) -> Edb {
    relabel(pointsto_shape(size), seed, &[size.vars, size.vars])
}

fn pointsto_shape(size: PointsToSize) -> Edb {
    let v = size.vars;
    let mut rng = SplitMix64::new(SHAPE_SEED);
    let mut addr_of = Rel::new("AddrOf", 2);
    for o in 0..v {
        addr_of.values.extend([rng.value_below(v), (v + o) as i64]);
    }
    let mut rels = vec![addr_of];
    for (name, count) in [("Assign", v / 4), ("Load", v / 16), ("Store", v / 16)] {
        let mut rel = Rel::new(name, 2);
        distinct_pairs(&mut rng, &mut rel, count, v);
        rels.push(rel);
    }
    Edb { rels }
}

/// Size of the `nonmono` inputs: a layered game and a layered digraph,
/// each `layers` deep and `width` wide. Node `layer·width + k` is the
/// `k`-th of its layer.
#[derive(Clone, Copy, Debug)]
pub struct NonmonoSize {
    /// Layers of the game.
    pub game_layers: u64,
    /// Positions per game layer (at least 4).
    pub game_width: u64,
    /// Layers of the transitive-closure digraph.
    pub tc_layers: u64,
    /// Nodes per digraph layer (at least 2).
    pub tc_width: u64,
}

/// The `moves` relation of a layered game.
///
/// Position 0 of each layer is a spine: it moves only to position 0 of
/// the next layer, and the last one has no moves. Every other position
/// of a middle layer has 0–3 moves into the next layer, and the rest of
/// the last layer has 1–3 moves among itself (never to the spine), so it
/// is drawn, as are the positions that cannot escape into it. With every
/// other move one layer down, the spine's head is the last position the
/// alternating fixpoint decides, so the number of well-founded rounds
/// is set by the depth rather than by chance.
pub fn game(seed: u64, size: NonmonoSize) -> Edb {
    let positions = size.game_layers * size.game_width;
    relabel(game_shape(size), seed, &[positions])
}

fn game_shape(size: NonmonoSize) -> Edb {
    let (layers, width) = (size.game_layers, size.game_width);
    assert!(width >= 4, "the last layer needs room for 3 distinct moves");
    let mut rng = SplitMix64::new(SHAPE_SEED);
    let mut moves = Rel::new("moves", 2);
    let at = |layer: u64, k: u64| (layer * width + k) as i64;
    for layer in 0..layers {
        for k in 0..width {
            let p = at(layer, k);
            if layer + 1 == layers {
                if k > 0 {
                    let d = 1 + rng.below(3);
                    successors(&mut rng, &mut moves, p, d, |r| {
                        at(layer, 1 + r.below(width - 1))
                    });
                }
            } else if k == 0 {
                moves.values.extend([p, at(layer + 1, 0)]);
            } else {
                let d = rng.below(4);
                successors(&mut rng, &mut moves, p, d, |r| {
                    at(layer + 1, r.below(width))
                });
            }
        }
    }
    Edb { rels: vec![moves] }
}

/// The `G` relation of a layered digraph: every node outside the last
/// layer has 2 distinct successors in the next layer. Paths are as long
/// as the layer distance, so transitive closure takes exactly `layers`
/// stages. Drawn from its own stream, so the game and the digraph do
/// not depend on each other's sizes.
pub fn digraph(seed: u64, size: NonmonoSize) -> Edb {
    let nodes = size.tc_layers * size.tc_width;
    relabel(digraph_shape(size), mix64(seed ^ 0x7C_0000), &[nodes])
}

fn digraph_shape(size: NonmonoSize) -> Edb {
    let (layers, width) = (size.tc_layers, size.tc_width);
    let mut rng = SplitMix64::new(mix64(SHAPE_SEED ^ 0x7C_0000));
    let mut g = Rel::new("G", 2);
    for node in 0..(layers - 1) * width {
        let next = (node / width + 1) * width;
        successors(&mut rng, &mut g, node as i64, 2, |r| {
            (next + r.below(width)) as i64
        });
    }
    Edb { rels: vec![g] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let size = NonmonoSize {
            game_layers: 5,
            game_width: 40,
            tc_layers: 5,
            tc_width: 6,
        };
        let pt = PointsToSize { vars: 160 };
        let rs = ReachSize {
            nodes: 100,
            degree: 4,
            sources: 16,
        };
        assert_eq!(reach(1, rs), reach(1, rs));
        assert_ne!(reach(1, rs), reach(2, rs));
        assert_eq!(pointsto(1, pt), pointsto(1, pt));
        assert_ne!(pointsto(1, pt), pointsto(2, pt));
        assert_eq!(game(1, size), game(1, size));
        assert_ne!(game(1, size), game(2, size));
        assert_eq!(digraph(1, size), digraph(1, size));
        assert_ne!(digraph(1, size), digraph(2, size));
    }

    /// The sorted out-degrees of each relation: equal for two inputs that
    /// differ only in names and fact order.
    fn profile(edb: &Edb) -> Vec<Vec<usize>> {
        edb.rels
            .iter()
            .map(|rel| {
                let mut degree = std::collections::HashMap::<i64, usize>::new();
                for row in rel.values.chunks_exact(rel.arity) {
                    *degree.entry(row[0]).or_default() += 1;
                }
                let mut d: Vec<usize> = degree.into_values().collect();
                d.sort_unstable();
                d
            })
            .collect()
    }

    #[test]
    fn seeds_rename_one_shape_and_keep_each_value_kind() {
        let vars = 400;
        let (a, b) = (
            pointsto(1, PointsToSize { vars }),
            pointsto(2, PointsToSize { vars }),
        );
        assert_ne!(a, b);
        assert_eq!(profile(&a), profile(&b));
        for (v, o) in a.rel("AddrOf").pairs() {
            assert!((0..vars as i64).contains(&v), "variable {v}");
            assert!((vars as i64..2 * vars as i64).contains(&o), "site {o}");
        }
        for name in ["Assign", "Load", "Store"] {
            assert!(
                a.rel(name).values.iter().all(|&v| v < vars as i64),
                "{name}"
            );
        }
        let size = NonmonoSize {
            game_layers: 6,
            game_width: 30,
            tc_layers: 5,
            tc_width: 6,
        };
        assert_eq!(profile(&game(1, size)), profile(&game(2, size)));
        assert_eq!(profile(&digraph(1, size)), profile(&digraph(2, size)));
    }

    #[test]
    fn inputs_have_exact_counts_and_layered_shapes() {
        let r = reach(
            3,
            ReachSize {
                nodes: 1_000,
                degree: 4,
                sources: 16,
            },
        );
        assert_eq!(r.rel("G").len(), 4_000);
        assert_eq!(r.rel("S").len(), 16);
        let p = pointsto(3, PointsToSize { vars: 3_200 });
        assert_eq!(
            ["AddrOf", "Assign", "Load", "Store"].map(|n| p.rel(n).len()),
            [3_200, 800, 200, 200]
        );
        // The benchmark's full sizes, by the same formulas.
        let pointsto_facts = |s: PointsToSize| s.vars + s.vars / 4 + 2 * (s.vars / 16);
        assert_eq!(pointsto_facts(crate::workloads::POINTSTO), 110_000);
        assert_eq!(pointsto_facts(crate::workloads::IVM), 55_000);
        let full = crate::workloads::REACH;
        assert_eq!(full.nodes * full.degree + full.sources, 260_016);
        // The layers, checked on the shapes: renaming hides them.
        let full = crate::workloads::NONMONO;
        let g = digraph_shape(full);
        assert_eq!(g.facts() as u64, 2 * (full.tc_layers - 1) * full.tc_width);
        for (a, b) in g.rel("G").pairs() {
            assert_eq!(b / full.tc_width as i64, a / full.tc_width as i64 + 1);
        }
        let moves = game_shape(full);
        let width = full.game_width as i64;
        let last = full.game_layers as i64 - 1;
        for (a, b) in moves.rel("moves").pairs() {
            let (la, lb) = (a / width, b / width);
            match (la == last, a % width == 0) {
                (true, _) => assert!(lb == last && b % width != 0, "{a}->{b}"),
                (false, true) => assert_eq!(b, a + width, "spine"),
                (false, false) => assert_eq!(lb, la + 1, "{a}->{b}"),
            }
        }
    }

    #[test]
    fn rendered_facts_parse_back_to_the_same_count() {
        let edb = pointsto(5, PointsToSize { vars: 320 });
        let mut interner = unchained_common::Interner::new();
        let parsed = unchained_parser::parse_facts(&edb.render(), &mut interner).unwrap();
        assert_eq!(parsed.fact_count(), edb.facts());
    }
}
