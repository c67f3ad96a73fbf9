//! Grammar-based program and instance generation, one campaign per
//! language fragment.
//!
//! Every generated program is **safe by construction** for its
//! campaign's engine matrix: range-restricted, stratifiable where the
//! matrix requires it, positively bound for the nondeterministic
//! engines, and free of invention feedback loops (invented-value heads
//! never reappear in bodies, so Datalog¬new evaluation terminates).
//! Programs come out [normalized](unchained_parser::Program::normalized),
//! so `parse(print(p)) == p` holds for each — the shrinker and the
//! corpus writer depend on that round trip.
//!
//! Generation is fully deterministic in the seed; no wall clock, no
//! global state.

use unchained_common::{Instance, Interner, Rng, Symbol, Tuple, Value};
use unchained_parser::{Atom, HeadLiteral, Literal, Program, Rule, Term, Var};

/// A fuzzing campaign: which language fragment to generate and which
/// oracle matrix to run (see [`crate::oracle`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Campaign {
    /// Pure positive Datalog — the widest matrix: naive, semi-naive,
    /// stratified, magic, parallel, while-translation, monotonicity.
    Positive,
    /// Stratified Datalog¬ (negation layered by construction):
    /// stratified sequential/parallel, well-founded, while-translation.
    Negation,
    /// Datalog¬new with non-recursive invention: determinism and
    /// thread-invariance of the invention engine.
    Invention,
    /// N-Datalog with `choice`: seeded-run determinism and poss/cert
    /// containment.
    Nondet,
    /// Planned-vs-unplanned: stratified Datalog¬ over deliberately
    /// skewed edb cardinalities, comparing the cost-based join ordering
    /// against the syntactic (most-bound-first) reference ordering,
    /// sequentially and in parallel.
    Planner,
    /// Incremental maintenance: stratified Datalog¬ driven through a
    /// seeded script of edb insert/retract batches, comparing the
    /// [`unchained_core::IncrementalSession`]'s maintained model after
    /// every poll against a from-scratch evaluation of the edited edb,
    /// at one and at four worker threads.
    EditScript,
    /// Columnar storage and morsel scheduling at size: layered
    /// pseudo-random digraphs with 10^4–10^5 edges (seed-scaled from
    /// [`GrammarConfig::scale_edges`]) under a pinned pool of
    /// reachability-shaped stratified programs, differentially run
    /// sequentially vs morsel-parallel at 2/4/8 threads plus an
    /// edit-script incremental pass.
    Scale,
    /// Unstratified Datalog¬ and Datalog¬¬: negation on any idb
    /// predicate (recursion through negation) and negative heads. The
    /// well-founded, inflationary and Datalog¬¬ engines (under all four
    /// conflict policies) are checked against the definitional
    /// reference evaluator in [`crate::spec`].
    Unstratified,
}

impl Campaign {
    /// Parses a campaign name as spelled on the CLI.
    pub fn parse(name: &str) -> Option<Campaign> {
        Some(match name {
            "positive" | "datalog" => Campaign::Positive,
            "negation" | "stratified" => Campaign::Negation,
            "invention" | "datalog-new" => Campaign::Invention,
            "nondet" => Campaign::Nondet,
            "planner" | "plan" => Campaign::Planner,
            "edits" | "edit-script" | "ivm" => Campaign::EditScript,
            "scale" | "columnar" => Campaign::Scale,
            "unstratified" | "wellfounded" => Campaign::Unstratified,
            _ => return None,
        })
    }

    /// The canonical name (used in FUZZ.json and corpus file names).
    pub fn name(self) -> &'static str {
        match self {
            Campaign::Positive => "positive",
            Campaign::Negation => "negation",
            Campaign::Invention => "invention",
            Campaign::Nondet => "nondet",
            Campaign::Planner => "planner",
            Campaign::EditScript => "edits",
            Campaign::Scale => "scale",
            Campaign::Unstratified => "unstratified",
        }
    }

    /// All campaigns, in documentation order.
    pub fn all() -> [Campaign; 8] {
        [
            Campaign::Positive,
            Campaign::Negation,
            Campaign::Invention,
            Campaign::Nondet,
            Campaign::Planner,
            Campaign::EditScript,
            Campaign::Scale,
            Campaign::Unstratified,
        ]
    }
}

/// Size knobs for one generated (program, instance) pair. The defaults
/// keep every oracle run well under a millisecond so a 200-program
/// smoke budget stays interactive.
#[derive(Clone, Copy, Debug)]
pub struct GrammarConfig {
    /// Maximum rules per program (actual count varies 1..=max by seed).
    pub max_rules: usize,
    /// Number of idb predicates (`I0`, `I1`, …; arities 1–2).
    pub idb_preds: usize,
    /// Number of edb predicates (`E0`, `E1`, …; arities 1–2).
    pub edb_preds: usize,
    /// Maximum body literals per rule (before safety patching).
    pub max_body: usize,
    /// Domain values are `Int(0..universe)`.
    pub universe: i64,
    /// Facts generated per edb predicate (duplicates collapse).
    pub facts_per_pred: usize,
    /// Base edge count for the [`Campaign::Scale`] digraphs. Per-seed
    /// sizes land in `base..=3*base`, with roughly one program in ten
    /// at `10*base` — the default 10 000 yields the advertised
    /// 10^4–10^5 range. Tests shrink this to stay interactive in
    /// debug builds.
    pub scale_edges: usize,
}

impl Default for GrammarConfig {
    fn default() -> Self {
        GrammarConfig {
            max_rules: 5,
            idb_preds: 3,
            edb_preds: 2,
            max_body: 3,
            universe: 4,
            facts_per_pred: 5,
            scale_edges: 10_000,
        }
    }
}

fn arity_of(index: usize) -> usize {
    1 + index % 2
}

const VAR_NAMES: [&str; 6] = ["x", "y", "z", "w", "u", "v"];

/// Generates one safe program plus a matching edb instance,
/// deterministically in `seed`.
pub fn generate(
    interner: &mut Interner,
    campaign: Campaign,
    cfg: GrammarConfig,
    seed: u64,
) -> (Program, Instance) {
    if campaign == Campaign::Scale {
        return scale_generate(interner, cfg, seed);
    }
    let mut rng = Rng::seeded(seed);
    let idb: Vec<_> = (0..cfg.idb_preds)
        .map(|k| (interner.intern(&format!("I{k}")), arity_of(k), k))
        .collect();
    let edb: Vec<_> = (0..cfg.edb_preds)
        .map(|k| (interner.intern(&format!("E{k}")), arity_of(k)))
        .collect();
    // Invention targets live outside the body pool: a `Vk` head may
    // invent values, and because `Vk` never occurs in any body the
    // invention cannot feed back — evaluation always terminates.
    let invent: Vec<_> = (0..2)
        .map(|k| (interner.intern(&format!("V{k}")), 2usize))
        .collect();

    let n_rules = 1 + rng.gen_index(cfg.max_rules);
    let mut rules = Vec::new();
    for _ in 0..n_rules {
        if campaign == Campaign::Unstratified && rng.gen_bool(0.5) {
            rules.extend(game_rules(&mut rng, &idb, &edb));
            continue;
        }
        let n_vars = 1 + rng.gen_index(VAR_NAMES.len() - 2);
        let pick_term = |rng: &mut Rng| {
            if rng.gen_bool(0.12) {
                Term::Const(Value::Int(rng.gen_range_i64(0, cfg.universe)))
            } else {
                Term::Var(Var(rng.gen_index(n_vars) as u32))
            }
        };

        // Head: usually a plain idb atom; in the invention campaign,
        // sometimes an invention target with a fresh head variable.
        let inventing = campaign == Campaign::Invention && rng.gen_bool(0.35);
        let (head_pred, head_arity, head_level) = if inventing {
            let (p, a) = invent[rng.gen_index(invent.len())];
            (p, a, usize::MAX)
        } else {
            idb[rng.gen_index(idb.len())]
        };
        let head_args: Vec<Term> = if inventing {
            // `Vk(x, n)`: first column bound by the body, second invented.
            vec![
                Term::Var(Var(rng.gen_index(n_vars) as u32)),
                Term::Var(Var(n_vars as u32)),
            ]
        } else {
            (0..head_arity).map(|_| pick_term(&mut rng)).collect()
        };

        // Body literals. Negation discipline guarantees stratifiability:
        // a rule for the idb predicate at level L may use idb atoms of
        // level ≤ L positively and idb atoms of level < L negatively
        // (edb atoms freely, either sign). Every negative dependency
        // edge then strictly increases the level, so no cycle can pass
        // through a negation — the textbook sufficient condition.
        let n_body = 1 + rng.gen_index(cfg.max_body);
        let mut body = Vec::new();
        let stratified = matches!(
            campaign,
            Campaign::Negation | Campaign::Planner | Campaign::EditScript
        );
        // The unstratified campaign negates any idb atom, so negation
        // may close a recursive cycle.
        let unstratified = campaign == Campaign::Unstratified;
        for _ in 0..n_body {
            let negate = (stratified && rng.gen_bool(0.3)) || (unstratified && rng.gen_bool(0.35));
            let layered = stratified;
            let pos_pool = if layered {
                (head_level + 1).min(idb.len())
            } else {
                idb.len()
            };
            let neg_pool = if unstratified {
                idb.len()
            } else {
                head_level.min(idb.len())
            };
            let from_edb = if negate {
                neg_pool == 0 || rng.gen_bool(0.5)
            } else {
                rng.gen_bool(0.5)
            };
            let (pred, arity) = if from_edb {
                edb[rng.gen_index(edb.len())]
            } else if negate {
                let (p, a, _) = idb[rng.gen_index(neg_pool)];
                (p, a)
            } else {
                let (p, a, _) = idb[rng.gen_index(pos_pool)];
                (p, a)
            };
            let args: Vec<Term> = (0..arity).map(|_| pick_term(&mut rng)).collect();
            let atom = Atom::new(pred, args);
            body.push(if negate {
                Literal::Neg(atom)
            } else {
                Literal::Pos(atom)
            });
        }
        // Occasionally a comparison literal in the nondet campaign
        // (equalities are part of Definition 5.1's rule syntax).
        if campaign == Campaign::Nondet && rng.gen_bool(0.25) {
            let s = Term::Var(Var(rng.gen_index(n_vars) as u32));
            let t = pick_term(&mut rng);
            body.push(if rng.gen_bool(0.5) {
                Literal::Eq(s, t)
            } else {
                Literal::Neq(s, t)
            });
        }

        // Safety patching. The nondeterministic engines require every
        // variable positively bound; the deterministic ones only need
        // head variables range-restricted (a negative occurrence binds
        // a variable to the active domain there, which the oracle
        // deliberately leaves exercised in the negation campaign).
        let needs_positive: Vec<Var> = {
            let positively_bound: std::collections::BTreeSet<Var> = body
                .iter()
                .filter_map(|l| match l {
                    Literal::Pos(a) => Some(a.vars().collect::<Vec<_>>()),
                    _ => None,
                })
                .flatten()
                .collect();
            let mut pending: Vec<Var> = if campaign == Campaign::Nondet {
                let mut all: Vec<Var> = body.iter().flat_map(|l| l.vars()).collect();
                all.extend(head_args.iter().filter_map(|t| t.as_var()));
                all
            } else {
                let body_vars: std::collections::BTreeSet<Var> =
                    body.iter().flat_map(|l| l.vars()).collect();
                head_args
                    .iter()
                    .filter_map(|t| t.as_var())
                    .filter(|v| !body_vars.contains(v))
                    .collect()
            };
            if inventing {
                // The invented variable stays unbound by design.
                pending.retain(|v| v.index() < n_vars);
            }
            pending.sort_unstable();
            pending.dedup();
            pending.retain(|v| !positively_bound.contains(v));
            pending
        };
        for v in needs_positive {
            let (pred, arity) = edb[0];
            let args: Vec<Term> = (0..arity).map(|_| Term::Var(v)).collect();
            body.push(Literal::Pos(Atom::new(pred, args)));
        }

        // Choice constraints ride on already-bound variables.
        if campaign == Campaign::Nondet && n_vars >= 2 && rng.gen_bool(0.3) {
            let left = Term::Var(Var(0));
            let right = Term::Var(Var(1));
            body.push(Literal::Choice(vec![left], vec![right]));
        }

        let max_var = n_vars + usize::from(inventing);
        // Datalog¬¬ retraction: some unstratified heads are negative.
        let head = Atom::new(head_pred, head_args);
        rules.push(Rule {
            head: vec![if unstratified && rng.gen_bool(0.25) {
                HeadLiteral::Neg(head)
            } else {
                HeadLiteral::Pos(head)
            }],
            body,
            forall: vec![],
            var_names: VAR_NAMES[..max_var].iter().map(|s| s.to_string()).collect(),
        });
    }
    let program = Program { rules }.normalized();

    let mut instance = Instance::new();
    if campaign == Campaign::Unstratified {
        game_instance(&mut rng, cfg, &edb, &idb, &mut instance);
        return (program, instance);
    }
    for (k, (pred, arity)) in edb.iter().enumerate() {
        instance.ensure(*pred, *arity);
        // The planner campaign skews cardinalities hard (E1 ≫ E0) so
        // the cost-based ordering genuinely disagrees with the
        // syntactic one — otherwise the two legs would pick the same
        // plans and the differential test would be vacuous.
        let (facts, universe) = if campaign == Campaign::Planner {
            (
                cfg.facts_per_pred * (1 + 8 * k),
                cfg.universe * (1 + k as i64),
            )
        } else {
            (cfg.facts_per_pred, cfg.universe)
        };
        for _ in 0..facts {
            let tuple: Tuple = (0..*arity)
                .map(|_| Value::Int(rng.gen_range_i64(0, universe)))
                .collect();
            instance.insert_fact(*pred, tuple);
        }
    }
    (program, instance)
}

/// One of the unstratified campaign's rule shapes over a move relation
/// (the first binary edb predicate) and the unary idb predicates: the
/// win-move rule, alone or with a second negated predicate, and its
/// two-player variant, whose alternating fixpoints take as many rounds
/// as the longest path; reachability; and a token that a pair of rules
/// moves along the edges, one step a stage, retracting it behind.
/// Random rules alone rarely keep the alternation or a Datalog¬¬ run
/// going past a few steps.
fn game_rules(rng: &mut Rng, idb: &[(Symbol, usize, usize)], edb: &[(Symbol, usize)]) -> Vec<Rule> {
    let unary: Vec<Symbol> = idb.iter().filter(|i| i.1 == 1).map(|i| i.0).collect();
    let pick = |rng: &mut Rng| unary[rng.gen_index(unary.len())];
    let (a, b) = (pick(rng), pick(rng));
    let moves = edb
        .iter()
        .find(|e| e.1 == 2)
        .expect("the campaign has a binary edb predicate")
        .0;
    let (x, y) = (Term::Var(Var(0)), Term::Var(Var(1)));
    let atom = |p: Symbol, t: &Term| Atom::new(p, vec![*t]);
    let edge = Literal::Pos(Atom::new(moves, vec![x, y]));
    let rule = |head: HeadLiteral, body: Vec<Literal>| Rule {
        head: vec![head],
        body,
        forall: vec![],
        var_names: VAR_NAMES[..2].iter().map(|s| s.to_string()).collect(),
    };
    let win = |negated: &[Symbol]| {
        let mut body = vec![edge.clone()];
        body.extend(negated.iter().map(|&p| Literal::Neg(atom(p, &y))));
        rule(HeadLiteral::Pos(atom(a, &x)), body)
    };
    match rng.gen_index(5) {
        0 => vec![win(&[a])],
        1 => vec![win(&[b])],
        2 => vec![win(&[a, b])],
        3 => vec![rule(
            HeadLiteral::Pos(atom(a, &y)),
            vec![Literal::Pos(atom(b, &x)), edge.clone()],
        )],
        _ => vec![
            rule(
                HeadLiteral::Pos(atom(a, &y)),
                vec![Literal::Pos(atom(a, &x)), edge.clone()],
            ),
            rule(
                HeadLiteral::Neg(atom(a, &x)),
                vec![Literal::Pos(atom(a, &x)), edge.clone()],
            ),
        ],
    }
}

/// The unstratified campaign's input: the binary edb predicates hold a
/// path through twice the usual universe with a few edges dropped and a
/// few random ones added (so games have long lines, branches and
/// cycles); the unary ones hold a few random values. Half the unary idb
/// predicates start with one fact, a token for the moving rules.
fn game_instance(
    rng: &mut Rng,
    cfg: GrammarConfig,
    edb: &[(Symbol, usize)],
    idb: &[(Symbol, usize, usize)],
    instance: &mut Instance,
) {
    let universe = 2 * cfg.universe;
    for &(pred, arity) in edb {
        instance.ensure(pred, arity);
        let mut fact = |vals: &[i64]| {
            instance.insert_fact(pred, vals.iter().map(|&v| Value::Int(v)).collect());
        };
        if arity == 2 {
            for k in 0..universe - 1 {
                if rng.gen_bool(0.85) {
                    fact(&[k, k + 1]);
                }
            }
            for _ in 0..3 {
                fact(&[
                    rng.gen_range_i64(0, universe),
                    rng.gen_range_i64(0, universe),
                ]);
            }
        } else {
            for _ in 0..3 {
                fact(&[rng.gen_range_i64(0, universe)]);
            }
        }
    }
    for &(pred, arity, _) in idb {
        if arity == 1 && rng.gen_bool(0.5) {
            instance.insert_fact(
                pred,
                Tuple::from([Value::Int(rng.gen_range_i64(0, universe))]),
            );
        }
    }
}

/// The pinned program pool for the scale campaign. Every program is
/// reachability-shaped so the idb stays `O(nodes + edges)` — large
/// enough to exercise segment freezing and morsel partitioning, small
/// enough that a 50-program budget stays interactive in release builds.
const SCALE_PROGRAMS: [&str; 3] = [
    // Single-source reachability (the bench `scale_reach` shape).
    "R(y) :- S(y).\nR(y) :- R(x), G(x,y).",
    // Reachability plus a stratified frontier: edges whose source was
    // never reached. Negation over an edb-bounded range keeps the
    // stratum cheap while still exercising the negative morsel path.
    "R(y) :- S(y).\nR(y) :- R(x), G(x,y).\nF(x,y) :- G(x,y), !R(x).",
    // Two independent sources joined on the intersection.
    "R(y) :- S(y).\nR(y) :- R(x), G(x,y).\nQ(y) :- T(y).\nQ(y) :- Q(x), G(x,y).\nB(x) :- R(x), Q(x).",
];

/// Scale-campaign generation: a layered pseudo-random digraph under one
/// of [`SCALE_PROGRAMS`]. Node `k` lives in layer `k % layers`; every
/// edge goes from layer `i` to layer `(i + 1) % layers`, so paths wrap
/// through short cycles and reachable sets saturate in a few rounds
/// while staying bounded by the node count.
fn scale_generate(interner: &mut Interner, cfg: GrammarConfig, seed: u64) -> (Program, Instance) {
    let mut rng = Rng::seeded(seed);
    let base = cfg.scale_edges.max(64);
    let edges = if rng.gen_bool(0.1) {
        base * 10
    } else {
        base * (1 + rng.gen_index(3))
    };
    let layers = 4 + rng.gen_index(4);
    let nodes = (edges / 2).max(layers * 2);
    let per_layer = nodes / layers;

    let text = SCALE_PROGRAMS[rng.gen_index(SCALE_PROGRAMS.len())];
    let program = unchained_parser::parse_program(text, interner)
        .expect("pinned scale program parses")
        .normalized();

    let g = interner.intern("G");
    let mut instance = Instance::new();
    instance.ensure(g, 2);
    for _ in 0..edges {
        let from = rng.gen_index(nodes);
        let next_layer = (from % layers + 1) % layers;
        let to = next_layer + layers * rng.gen_index(per_layer);
        instance.insert_fact(
            g,
            Tuple::from([Value::Int(from as i64), Value::Int(to as i64)]),
        );
    }
    // Seed relations: a handful of start nodes each.
    let mut seed_rel = |name: &str, interner: &mut Interner, rng: &mut Rng| {
        let sym = interner.intern(name);
        instance.ensure(sym, 1);
        for _ in 0..1 + rng.gen_index(4) {
            let node = rng.gen_index(nodes) as i64;
            instance.insert_fact(sym, Tuple::from([Value::Int(node)]));
        }
    };
    seed_rel("S", interner, &mut rng);
    if text.contains("T(") {
        seed_rel("T", interner, &mut rng);
    }
    (program, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_parser::{
        check_positively_bound, check_range_restricted, classify, parse_program, DependencyGraph,
        Language,
    };

    /// Default knobs, except the scale digraphs are shrunk so debug
    /// test builds stay interactive (the properties are size-free).
    fn test_cfg() -> GrammarConfig {
        GrammarConfig {
            scale_edges: 256,
            ..GrammarConfig::default()
        }
    }

    #[test]
    fn generated_programs_are_safe_for_their_campaign() {
        for campaign in Campaign::all() {
            for seed in 0..80u64 {
                let mut i = Interner::new();
                let (p, _) = generate(&mut i, campaign, test_cfg(), seed);
                let allow_invention = campaign == Campaign::Invention;
                check_range_restricted(&p, allow_invention)
                    .unwrap_or_else(|e| panic!("{campaign:?} seed {seed}: {e}"));
                match campaign {
                    Campaign::Positive => assert_eq!(classify(&p), Language::Datalog),
                    Campaign::Negation
                    | Campaign::Planner
                    | Campaign::EditScript
                    | Campaign::Scale => {
                        DependencyGraph::build(&p)
                            .stratify()
                            .unwrap_or_else(|e| panic!("seed {seed} not stratifiable: {e}"));
                    }
                    Campaign::Invention => {
                        assert!(classify(&p) <= Language::DatalogNegNew, "seed {seed}");
                        // No invention feedback: invented-head predicates
                        // never occur in bodies.
                        for rule in &p.rules {
                            for lit in &rule.body {
                                if let Some(a) = lit.atom() {
                                    assert!(!i.name(a.pred).starts_with('V'), "seed {seed}");
                                }
                            }
                        }
                    }
                    Campaign::Nondet => {
                        check_positively_bound(&p, false)
                            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                    }
                    Campaign::Unstratified => {
                        assert!(classify(&p) <= Language::DatalogNegNeg, "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn generated_programs_round_trip_through_the_printer() {
        for campaign in Campaign::all() {
            for seed in 0..80u64 {
                let mut i = Interner::new();
                let (p, _) = generate(&mut i, campaign, test_cfg(), seed);
                let text = p.display(&i).to_string();
                let reparsed = parse_program(&text, &mut i)
                    .unwrap_or_else(|e| panic!("{campaign:?} seed {seed}: {e}\n{text}"));
                assert_eq!(reparsed, p, "{campaign:?} seed {seed} round trip:\n{text}");
            }
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        let (pa, ia) = generate(&mut a, Campaign::Negation, GrammarConfig::default(), 7);
        let (pb, ib) = generate(&mut b, Campaign::Negation, GrammarConfig::default(), 7);
        assert_eq!(pa, pb);
        assert!(ia.same_facts(&ib));
        let (pc, _) = generate(&mut a, Campaign::Negation, GrammarConfig::default(), 8);
        assert_ne!(pa, pc);
    }
}
