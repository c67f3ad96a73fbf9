//! Property-style tests for the extension subsystems: magic sets,
//! stable models, the choice operator, distributed exchange, and the
//! FO ↔ algebra translation.
//!
//! Formerly proptest-based; rewritten as seeded deterministic loops so
//! the suite builds offline with no external dependencies.

use unchained::common::{Instance, Interner, Rng, Tuple, Value};
use unchained::core::{inflationary, magic, stable, EvalOptions};
use unchained::exchange::{Network, Peer};
use unchained::fo::{eval_formula, eval_via_algebra, FoTerm, FoVar, Formula};
use unchained::harness::programs;
use unchained::nondet::{run_once, NondetProgram, RandomChooser};
use unchained::parser::parse_program;

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

/// A formula skeleton over placeholder predicates (0 = binary G,
/// 1 = unary P) and variables FoVar(0..3); `resolve_formula` swaps in
/// the real symbols.
#[derive(Clone, Debug)]
enum Skel {
    G(u32, u32),
    P(u32),
    EqVars(u32, u32),
    EqConst(u32, i64),
    True,
    False,
    Not(Box<Skel>),
    And(Box<Skel>, Box<Skel>),
    Or(Box<Skel>, Box<Skel>),
    Exists(u32, Box<Skel>),
    Forall(u32, Box<Skel>),
}

/// A random skeleton of connective depth ≤ `depth`.
fn random_skel(rng: &mut Rng, depth: usize) -> Skel {
    if depth == 0 || rng.gen_bool(0.35) {
        match rng.gen_index(6) {
            0 => Skel::G(rng.gen_index(3) as u32, rng.gen_index(3) as u32),
            1 => Skel::P(rng.gen_index(3) as u32),
            2 => Skel::EqVars(rng.gen_index(3) as u32, rng.gen_index(3) as u32),
            3 => Skel::EqConst(rng.gen_index(3) as u32, rng.gen_range_i64(0, 4)),
            4 => Skel::True,
            _ => Skel::False,
        }
    } else {
        match rng.gen_index(5) {
            0 => Skel::Not(Box::new(random_skel(rng, depth - 1))),
            1 => Skel::And(
                Box::new(random_skel(rng, depth - 1)),
                Box::new(random_skel(rng, depth - 1)),
            ),
            2 => Skel::Or(
                Box::new(random_skel(rng, depth - 1)),
                Box::new(random_skel(rng, depth - 1)),
            ),
            3 => Skel::Exists(
                rng.gen_index(3) as u32,
                Box::new(random_skel(rng, depth - 1)),
            ),
            _ => Skel::Forall(
                rng.gen_index(3) as u32,
                Box::new(random_skel(rng, depth - 1)),
            ),
        }
    }
}

fn resolve_formula(
    skel: &Skel,
    g: unchained::common::Symbol,
    p: unchained::common::Symbol,
) -> Formula {
    let var = |v: u32| FoTerm::Var(FoVar(v));
    match skel {
        Skel::G(a, b) => Formula::Atom(g, vec![var(*a), var(*b)]),
        Skel::P(a) => Formula::Atom(p, vec![var(*a)]),
        Skel::EqVars(a, b) => Formula::Eq(var(*a), var(*b)),
        Skel::EqConst(v, c) => Formula::Eq(var(*v), FoTerm::Const(Value::Int(*c))),
        Skel::True => Formula::True,
        Skel::False => Formula::False,
        Skel::Not(f) => resolve_formula(f, g, p).not(),
        Skel::And(a, b) => resolve_formula(a, g, p).and(resolve_formula(b, g, p)),
        Skel::Or(a, b) => resolve_formula(a, g, p).or(resolve_formula(b, g, p)),
        Skel::Exists(v, f) => Formula::exists([FoVar(*v)], resolve_formula(f, g, p)),
        Skel::Forall(v, f) => Formula::forall([FoVar(*v)], resolve_formula(f, g, p)),
    }
}

fn graph_instance(interner: &mut Interner, name: &str, es: &[(i64, i64)]) -> Instance {
    let g = interner.intern(name);
    let mut instance = Instance::new();
    instance.ensure(g, 2);
    for &(a, b) in es {
        instance.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    instance
}

/// Magic-sets single-source TC equals full evaluation filtered to the
/// source, on arbitrary graphs and sources.
#[test]
fn magic_equals_full_on_random_graphs() {
    for seed in 0..48u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 7, 18);
        let source = rng.gen_range_i64(0, 7);
        let mut i = Interner::new();
        let program = parse_program(programs::TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let input = graph_instance(&mut i, "G", &es);
        let query = magic::QueryPattern::new(t, vec![Some(Value::Int(source)), None]);
        // compare_with_full asserts equality internally.
        let (_, stats) = magic::compare_with_full(&program, &query, &input, &mut i).unwrap();
        // Magic never derives more than full (plus its magic facts are
        // counted, so allow equality).
        assert!(
            stats.magic_facts <= stats.full_facts + es.len() + 1,
            "seed {seed}"
        );
    }
}

/// Every stable model of the win-move program on a random game is a
/// fixpoint of its own reduct and lies in the well-founded interval.
#[test]
fn stable_models_are_reduct_fixpoints() {
    for seed in 0..48u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 5, 8);
        let mut i = Interner::new();
        let program = parse_program(programs::WIN, &mut i).unwrap();
        let input = graph_instance(&mut i, "moves", &es);
        let win = i.get("win").unwrap();
        let options = stable::StableOptions {
            max_unknowns: 12,
            ..Default::default()
        };
        let Ok(models) = stable::stable_models(&program, &input, options) else {
            // Too many unknowns for this instance: skip.
            continue;
        };
        let wf =
            unchained::core::wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        for m in &models {
            assert!(
                stable::is_stable_model(&program, &input, m, EvalOptions::default()).unwrap(),
                "seed {seed}"
            );
            for t in wf
                .true_facts
                .relation(win)
                .into_iter()
                .flat_map(|r| r.iter())
            {
                assert!(m.contains_fact(win, &t), "seed {seed}");
            }
            for t in m.relation(win).into_iter().flat_map(|r| r.iter()) {
                assert!(wf.possible_facts.contains_fact(win, &t), "seed {seed}");
            }
        }
    }
}

/// The choice FD holds in every run of the assignment program: each
/// student at most one advisor, regardless of seed and sizes.
#[test]
fn choice_fd_always_holds() {
    for seed in 0..48u64 {
        let mut rng = Rng::seeded(seed);
        let students = 1 + rng.gen_index(4);
        let profs = 1 + rng.gen_index(3);
        let chooser_seed = rng.next_u64();
        let mut i = Interner::new();
        let program = parse_program(
            "advises(s, a) :- student(s), prof(a), choice((s),(a)).",
            &mut i,
        )
        .unwrap();
        let student = i.get("student").unwrap();
        let prof = i.get("prof").unwrap();
        let advises = i.get("advises").unwrap();
        let mut input = Instance::new();
        for s in 0..students as i64 {
            input.insert_fact(student, Tuple::from([Value::Int(s)]));
        }
        for a in 0..profs as i64 {
            input.insert_fact(prof, Tuple::from([Value::Int(100 + a)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut chooser = RandomChooser::seeded(chooser_seed);
        let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
        let rel = run.instance.relation(advises).unwrap();
        assert_eq!(rel.len(), students, "seed {seed}");
        let mut seen = std::collections::BTreeSet::new();
        for t in rel.iter() {
            assert!(seen.insert(t[0]), "seed {seed}");
        }
    }
}

/// Distributed evaluation converges to the centralized answer on
/// random edge partitions.
#[test]
fn exchange_matches_centralized() {
    for seed in 0..48u64 {
        let mut rng = Rng::seeded(seed);
        let es = random_edges(&mut rng, 6, 12);
        let split_seed = rng.next_u64() % 100;
        let mut i = Interner::new();
        let peer_prog = parse_program(
            "T(x,y) :- G(x,y). T(x,y) :- T(x,z), T(z,y). T(x,y) :- Timp(x,y).",
            &mut i,
        )
        .unwrap();
        let central_prog =
            parse_program("T(x,y) :- G(x,y). T(x,y) :- T(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let timp = i.get("Timp").unwrap();
        // Pseudo-random edge split driven by split_seed.
        let mut db_a = Instance::new();
        db_a.ensure(g, 2);
        let mut db_b = Instance::new();
        db_b.ensure(g, 2);
        for (idx, &(a, b)) in es.iter().enumerate() {
            let fact = Tuple::from([Value::Int(a), Value::Int(b)]);
            if (split_seed.wrapping_mul(31).wrapping_add(idx as u64)).is_multiple_of(2) {
                db_a.insert_fact(g, fact);
            } else {
                db_b.insert_fact(g, fact);
            }
        }
        let mut network = Network::new();
        network.add_peer(Peer::new("a", peer_prog.clone(), db_a).exporting(t, "b", timp));
        network.add_peer(Peer::new("b", peer_prog, db_b).exporting(t, "a", timp));
        network.run_to_convergence(200).unwrap();

        let central_input = graph_instance(&mut i, "G", &es);
        let central =
            inflationary::eval(&central_prog, &central_input, EvalOptions::default()).unwrap();
        let expected = central.instance.relation(t).unwrap();
        for name in ["a", "b"] {
            let got = network.peer(name).unwrap().database.relation(t).unwrap();
            assert!(got.same_tuples(expected), "seed {seed} peer {name}");
        }
    }
}

/// Codd's theorem, randomized: the FO → algebra translation agrees
/// with the direct formula evaluator on random formulas over a fixed
/// vocabulary.
#[test]
fn fo_algebra_translation_agrees() {
    let mut checked = 0;
    for seed in 0..96u64 {
        let mut rng = Rng::seeded(seed);
        let phi = random_skel(&mut rng, 3);
        let es = random_edges(&mut rng, 4, 8);
        let mut i = Interner::new();
        let g = i.intern("G");
        let p = i.intern("P");
        let mut inst = Instance::new();
        inst.ensure(g, 2);
        inst.ensure(p, 1);
        for &(a, b) in &es {
            inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
            if a % 2 == 0 {
                inst.insert_fact(p, Tuple::from([Value::Int(a)]));
            }
        }
        // Keep the domain nonempty and small.
        let mut dom = inst.adom_sorted();
        if dom.is_empty() {
            dom.push(Value::Int(0));
        }
        let phi = resolve_formula(&phi, g, p);
        let layout = phi.free_vars();
        // The direct evaluator is exponential in |layout|; cap it.
        if layout.len() > 3 {
            continue;
        }
        let direct = eval_formula(&phi, &layout, &inst, &dom).unwrap();
        let via_algebra = eval_via_algebra(&phi, &layout, &inst, &dom).unwrap();
        assert!(direct.same_tuples(&via_algebra), "seed {seed}");
        checked += 1;
    }
    assert!(checked >= 48, "only {checked} formulas exercised");
}

/// Regression: a shrunken counterexample saved by the original
/// proptest suite — a variable bound by Exists shadowing a free
/// occurrence of the same variable in a conjoined equality.
#[test]
fn fo_algebra_regression_exists_shadowing() {
    let mut i = Interner::new();
    let g = i.intern("G");
    let p = i.intern("P");
    let mut inst = Instance::new();
    inst.ensure(g, 2);
    inst.ensure(p, 1);
    inst.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(0)]));
    let dom = inst.adom_sorted();
    let skel = Skel::And(
        Box::new(Skel::Exists(0, Box::new(Skel::EqVars(0, 2)))),
        Box::new(Skel::EqVars(0, 0)),
    );
    let phi = resolve_formula(&skel, g, p);
    let layout = phi.free_vars();
    let direct = eval_formula(&phi, &layout, &inst, &dom).unwrap();
    let via_algebra = eval_via_algebra(&phi, &layout, &inst, &dom).unwrap();
    assert!(direct.same_tuples(&via_algebra));
}

/// While-program display/parse roundtrip on synthesized programs.
#[test]
fn while_display_roundtrip() {
    for seed in 0..150u64 {
        let mut rng = Rng::seeded(seed);
        let n_stmts = 1 + rng.gen_index(3);
        let mut src = String::new();
        for k in 0..n_stmts {
            match rng.gen_index(3) {
                0 => src.push_str(&format!("R{k} += {{ x, y | G(x,y) & x != y }};\n")),
                1 => src.push_str(&format!("R{k} := {{ x | exists y (G(x,y)) or H(x) }};\n")),
                _ => src.push_str(&format!(
                    "while change do\n  R{k} += {{ x | forall y (G(y,x) -> R{k}(y)) }};\nend\n"
                )),
            }
        }
        let mut i1 = Interner::new();
        let (p1, v1) = unchained::while_lang::parse_while_program(&src, &mut i1).unwrap();
        let shown1 = unchained::while_lang::display_program(&p1, &v1, &i1).to_string();
        let mut i2 = Interner::new();
        let (p2, v2) = unchained::while_lang::parse_while_program(&shown1, &mut i2).unwrap();
        let shown2 = unchained::while_lang::display_program(&p2, &v2, &i2).to_string();
        assert_eq!(shown1, shown2, "seed {seed}");
    }
}
