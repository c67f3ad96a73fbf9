//! Property-style tests of the core invariants: oracle agreement on
//! random graphs, monotonicity of Datalog, inflationary growth,
//! 3-valued model containment, orientation validity, and parser
//! round-tripping.
//!
//! Formerly proptest-based; rewritten as seeded deterministic loops so
//! the suite builds offline with no external dependencies. Each
//! property samples a fixed number of pseudo-random cases from
//! [`Rng`], so failures reproduce exactly.

use unchained::common::{Instance, Interner, Rng, Tuple, Value};
use unchained::core::{
    inflationary, naive, noninflationary, seminaive, stratified, wellfounded, EvalOptions,
};
use unchained::fuzz::spec;
use unchained::harness::oracles;
use unchained::harness::programs;
use unchained::nondet::{run_once, NondetProgram, RandomChooser};
use unchained::parser::parse_program;

/// A pseudo-random edge set over `0..max_node` with at most
/// `max_edges` (possibly duplicate) entries.
fn random_edges(rng: &mut Rng, max_node: i64, max_edges: usize) -> Vec<(i64, i64)> {
    let count = rng.gen_index(max_edges + 1);
    (0..count)
        .map(|_| {
            (
                rng.gen_range_i64(0, max_node),
                rng.gen_range_i64(0, max_node),
            )
        })
        .collect()
}

fn graph_instance(interner: &mut Interner, edges: &[(i64, i64)]) -> Instance {
    let g = interner.intern("G");
    let mut instance = Instance::new();
    instance.ensure(g, 2);
    for &(a, b) in edges {
        instance.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    instance
}

/// Semi-naive and naive evaluation compute the same minimum model.
#[test]
fn seminaive_equals_naive() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 7, 20);
        let mut i = Interner::new();
        let program = parse_program(programs::TC, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let a = naive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        let b = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance), "seed {seed}");
    }
}

/// The Datalog TC answer equals the BFS oracle.
#[test]
fn tc_matches_oracle() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 8, 24);
        let mut i = Interner::new();
        let program = parse_program(programs::TC, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let run = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(
            run.instance
                .relation(t)
                .unwrap()
                .same_tuples(&oracles::transitive_closure(&input, g)),
            "seed {seed}"
        );
    }
}

/// Monotonicity of pure Datalog: adding edges never removes answers.
#[test]
fn datalog_is_monotone() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 15);
        let extra = (rng.gen_range_i64(0, 6), rng.gen_range_i64(0, 6));
        let mut i = Interner::new();
        let program = parse_program(programs::TC, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut bigger = input.clone();
        bigger.insert_fact(g, Tuple::from([Value::Int(extra.0), Value::Int(extra.1)]));
        let small = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        let large = seminaive::minimum_model(&program, &bigger, EvalOptions::default()).unwrap();
        for tuple in small.instance.relation(t).unwrap().iter() {
            assert!(large.instance.contains_fact(t, &tuple), "seed {seed}");
        }
    }
}

/// Inflationary stages grow monotonically: the final instance contains
/// the input, and the answer under a pure-Datalog program equals the
/// minimum model.
#[test]
fn inflationary_contains_input() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 15);
        let mut i = Interner::new();
        let program = parse_program(programs::TC, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let g = i.get("G").unwrap();
        let run = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        for tuple in input.relation(g).unwrap().iter() {
            assert!(run.instance.contains_fact(g, &tuple), "seed {seed}");
        }
        let mm = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(run.instance.same_facts(&mm.instance), "seed {seed}");
    }
}

/// The semi-naive inflationary engine is stage-exact with the
/// definition — Datalog¬¬ stages under insertion priority, computed by
/// the reference evaluator, which shares no code with the engines — on
/// random inputs of the win program.
#[test]
fn inflationary_seminaive_stage_exact() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 14);
        let mut i = Interner::new();
        let program = parse_program(programs::WIN, &mut i).unwrap();
        let moves = i.intern("moves");
        let mut input = Instance::new();
        input.ensure(moves, 2);
        for &(a, b) in &es {
            input.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        let a = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        let policy = noninflationary::ConflictPolicy::PreferPositive;
        let spec::Stages::Fixpoint { db, stages } =
            spec::datalog_negneg(&program, &input, policy, 1_000)
        else {
            panic!("the reference reached no fixpoint (seed {seed})");
        };
        assert_eq!(spec::db_of(&a.instance), db, "seed {seed}");
        assert_eq!(a.stages, stages, "seed {seed}");
    }
}

/// 3-valued containment: true facts ⊆ possible facts, and the model is
/// consistent with the game oracle on win-move inputs.
#[test]
fn wellfounded_true_subset_of_possible() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 14);
        let mut i = Interner::new();
        let program = parse_program(programs::WIN, &mut i).unwrap();
        // Reuse the edge set as a `moves` relation.
        let moves = i.intern("moves");
        let mut input = Instance::new();
        input.ensure(moves, 2);
        for &(a, b) in &es {
            input.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        let model = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        let win = i.get("win").unwrap();
        if let Some(rel) = model.true_facts.relation(win) {
            for t in rel.iter() {
                assert!(model.possible_facts.contains_fact(win, &t), "seed {seed}");
            }
        }
        // Consistency with the oracle.
        let solution = oracles::solve_game(&input, moves);
        for (&state, &value) in &solution {
            let truth = model.truth(win, &Tuple::from([state]));
            let expected = match value {
                oracles::GameValue::Win => wellfounded::Truth::True,
                oracles::GameValue::Lose => wellfounded::Truth::False,
                oracles::GameValue::Draw => wellfounded::Truth::Unknown,
            };
            assert_eq!(truth, expected, "seed {seed}");
        }
    }
}

/// The stratified CTC answer partitions adom² with the TC answer.
#[test]
fn ctc_partitions_square() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 14);
        let mut i = Interner::new();
        let program = parse_program(programs::CTC_STRATIFIED, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let t = i.get("T").unwrap();
        let ct = i.get("CT").unwrap();
        let run = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        let n = input.adom().len();
        let t_rel = run.instance.relation(t).unwrap();
        let ct_rel = run.instance.relation(ct).unwrap();
        assert_eq!(t_rel.len() + ct_rel.len(), n * n, "seed {seed}");
        for tuple in t_rel.iter() {
            assert!(!ct_rel.contains(&tuple), "seed {seed}");
        }
    }
}

/// Every nondeterministic orientation run yields a valid orientation,
/// for every seed.
#[test]
fn orientation_runs_always_valid() {
    for seed in 0..64u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 12);
        let chooser_seed = rng.next_u64();
        let mut i = Interner::new();
        let program = parse_program(programs::ORIENTATION, &mut i).unwrap();
        let input = graph_instance(&mut i, &es);
        let g = i.get("G").unwrap();
        let original = input.relation(g).unwrap().clone();
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut chooser = RandomChooser::seeded(chooser_seed);
        let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
        // Self-loops are their own reverse and cannot be oriented, so
        // exclude graphs with self-loops from the validity check — the
        // program deletes them outright (G(x,x),G(x,x) matches).
        if es.iter().all(|&(a, b)| a != b) {
            assert!(
                oracles::is_valid_orientation(&original, run.instance.relation(g).unwrap()),
                "seed {seed}"
            );
        }
    }
}

/// Parser round-trip: display of a parsed program reparses to the same
/// display.
#[test]
fn parser_display_roundtrip() {
    for seed in 0..200u64 {
        let mut rng = Rng::seeded(seed);
        let n_rules = 1 + rng.gen_index(5);
        let mut src = String::new();
        for r in 0..n_rules {
            let head_arity = rng.gen_index(3);
            let vars = ["x", "y", "z"];
            let head_args: Vec<&str> = (0..head_arity).map(|k| vars[k]).collect();
            let mut rule = format!("H{r}");
            if !head_args.is_empty() {
                rule.push_str(&format!("({})", head_args.join(",")));
            }
            rule.push_str(" :- ");
            let mut body = Vec::new();
            // Ensure range restriction: one positive atom with all vars.
            body.push(format!("B{r}(x,y,z)"));
            if rng.gen_bool(0.5) {
                body.push(format!("!C{r}(x)"));
            }
            if rng.gen_bool(0.5) {
                body.push("x != y".to_string());
            }
            rule.push_str(&body.join(", "));
            rule.push('.');
            src.push_str(&rule);
            src.push('\n');
        }
        let mut i1 = Interner::new();
        let p1 = parse_program(&src, &mut i1).unwrap();
        let shown1 = p1.display(&i1).to_string();
        let mut i2 = Interner::new();
        let p2 = parse_program(&shown1, &mut i2).unwrap();
        let shown2 = p2.display(&i2).to_string();
        assert_eq!(shown1, shown2, "seed {seed}");
    }
}
