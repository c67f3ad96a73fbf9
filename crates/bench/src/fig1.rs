//! The witnesses behind **Figure 1** of *Datalog Unchained* — the
//! relative expressive power of the Datalog variants.
//!
//! The paper's figure is a claims diagram, not a measurement; what can
//! be reproduced on a laptop is, for each edge of the diagram, a
//! machine-checked witness:
//!
//! * equivalences (`≡`) are validated by running both sides over
//!   generated instance families and comparing their answers with each
//!   other and with the `harness::oracles`;
//! * strict inclusions (`⇑`) are validated by running the inclusion
//!   direction, plus a witness of the separation that is actually
//!   checkable (e.g. non-monotonicity of complement-TC separates it
//!   from monotone Datalog; the unstratifiable win-move program is
//!   rejected by the stratified engine but evaluated by the fixpoint
//!   ones; value invention exceeds any polynomial fact bound).
//!
//! [`checks`] runs them all; the `fig1` binary prints the figure with
//! the results, and `tests/fig1.rs` requires every one to pass.

use unchained_common::{Instance, Interner, Relation, Tuple, Value};
use unchained_core::{
    inflationary, invention, magic, noninflationary, stable, stratified, wellfounded, EvalError,
    EvalOptions,
};
use unchained_fo::{FoTerm, Formula, VarSet};
use unchained_harness::generators::{cycle_graph, line_graph, random_digraph, random_game};
use unchained_harness::oracles;
use unchained_harness::ordered::evenness_input;
use unchained_harness::programs;
use unchained_nondet::{effect, poss_cert, EffOptions, NondetProgram};
use unchained_parser::parse_program;
use unchained_while::{run as run_while, Assignment, LoopCondition, Stmt, WhileProgram};

/// One machine-checked witness for an edge of the figure.
#[derive(Clone, Debug)]
pub struct Check {
    /// The witness, as `FIG1/<edge>: <claim>`.
    pub id: String,
    /// Whether the witness held.
    pub ok: bool,
    /// What was measured (instance counts, sizes).
    pub detail: String,
}

struct Report {
    rows: Vec<Check>,
}

impl Report {
    fn check(&mut self, id: &str, ok: bool, detail: impl Into<String>) {
        self.rows.push(Check {
            id: id.to_string(),
            ok,
            detail: detail.into(),
        });
    }
}

/// Runs every witness, level by level up the figure.
pub fn checks() -> Vec<Check> {
    let mut report = Report { rows: Vec::new() };
    level_datalog_vs_stratified(&mut report);
    level_stratified_vs_fixpoint(&mut report);
    level_fixpoint_equivalences(&mut report);
    level_while(&mut report);
    level_invention(&mut report);
    level_nondet(&mut report);
    level_ordered(&mut report);
    level_stable(&mut report);
    level_magic(&mut report);
    level_choice(&mut report);
    report.rows
}

fn graph_family(interner: &mut Interner) -> Vec<Instance> {
    let mut family = Vec::new();
    for n in [2i64, 3, 4, 6, 8] {
        family.push(line_graph(interner, "G", n));
        family.push(cycle_graph(interner, "G", n));
    }
    for seed in 0..4u64 {
        family.push(random_digraph(interner, "G", 7, 0.25, seed));
    }
    family
}

/// Datalog ⇑ stratified Datalog¬: correctness of stratified CTC plus a
/// non-monotonicity witness (Datalog is monotone; CT is not).
fn level_datalog_vs_stratified(report: &mut Report) {
    let mut i = Interner::new();
    let program = parse_program(programs::CTC_STRATIFIED, &mut i).unwrap();
    let g = i.get("G").unwrap();
    let ct = i.get("CT").unwrap();
    let family = graph_family(&mut i);
    let mut all_ok = true;
    for inst in &family {
        let run = stratified::eval(&program, inst, EvalOptions::default()).unwrap();
        let expected = oracles::complement_tc(inst, g, &inst.adom_sorted());
        let got = run
            .instance
            .relation(ct)
            .cloned()
            .unwrap_or_else(|| Relation::new(2));
        all_ok &= got.same_tuples(&expected);
    }
    report.check(
        "FIG1/strat⊇datalog: stratified CTC = oracle",
        all_ok,
        format!("{} instances", family.len()),
    );

    // Non-monotonicity: CT over the 2-line loses a tuple when the
    // closing edge is added. Every pure-Datalog query is monotone, so
    // CT separates the levels.
    let base = line_graph(&mut i, "G", 2);
    let mut bigger = base.clone();
    bigger.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(0)]));
    let ct_small = stratified::eval(&program, &base, EvalOptions::default())
        .unwrap()
        .instance
        .relation(ct)
        .cloned()
        .unwrap();
    let ct_big = stratified::eval(&program, &bigger, EvalOptions::default())
        .unwrap()
        .instance
        .relation(ct)
        .cloned()
        .unwrap();
    let lost = ct_small.iter().any(|t| !ct_big.contains(&t));
    report.check(
        "FIG1/strat⊋datalog: CT is non-monotone (Datalog is monotone)",
        lost,
        format!(
            "|CT| {} → {} after adding an edge",
            ct_small.len(),
            ct_big.len()
        ),
    );
}

/// stratified ⇑ fixpoint: the unstratifiable win-move program is
/// rejected by the stratified engine and solved by well-founded
/// semantics, whose 3-valued answer matches the game-theoretic oracle.
fn level_stratified_vs_fixpoint(report: &mut Report) {
    let mut i = Interner::new();
    let program = parse_program(programs::WIN, &mut i).unwrap();
    let moves = i.get("moves").unwrap();
    let win = i.get("win").unwrap();

    let game = unchained_harness::generators::paper_game(&mut i, "moves");
    let rejected = matches!(
        stratified::eval(&program, &game, EvalOptions::default()),
        Err(EvalError::Analysis(_))
    );
    report.check(
        "FIG1/fixpoint⊋strat: win-move rejected by stratified engine",
        rejected,
        "recursion through negation",
    );

    let mut all_ok = true;
    let mut games = vec![game];
    for seed in 0..6u64 {
        games.push(random_game(&mut i, "moves", 9, 3, seed));
    }
    for inst in &games {
        let model = wellfounded::eval(&program, inst, EvalOptions::default()).unwrap();
        let solution = oracles::solve_game(inst, moves);
        for (&state, &value) in &solution {
            let truth = model.truth(win, &Tuple::from([state]));
            let expected = match value {
                oracles::GameValue::Win => wellfounded::Truth::True,
                oracles::GameValue::Lose => wellfounded::Truth::False,
                oracles::GameValue::Draw => wellfounded::Truth::Unknown,
            };
            all_ok &= truth == expected;
        }
    }
    report.check(
        "FIG1/wf: 3-valued win = game oracle (win/lose/draw)",
        all_ok,
        format!("{} games (incl. the paper's Example 3.2)", games.len()),
    );
}

/// well-founded ≡ inflationary ≡ fixpoint: cross-checks between the
/// three formalisms on the paper's own example programs.
fn level_fixpoint_equivalences(report: &mut Report) {
    let mut i = Interner::new();

    // (a) Inflationary delayed-CTC (Example 4.3) = stratified CTC.
    let delayed = parse_program(programs::CTC_INFLATIONARY, &mut i).unwrap();
    let strat = parse_program(programs::CTC_STRATIFIED, &mut i).unwrap();
    let ct = i.get("CT").unwrap();
    let family = graph_family(&mut i);
    let mut ok = true;
    let mut checked = 0;
    for inst in &family {
        if inst.is_empty() {
            continue; // Example 4.3 assumes G nonempty
        }
        let a = inflationary::eval(&delayed, inst, EvalOptions::default()).unwrap();
        let b = stratified::eval(&strat, inst, EvalOptions::default()).unwrap();
        ok &= a
            .instance
            .relation(ct)
            .unwrap()
            .same_tuples(b.instance.relation(ct).unwrap());
        checked += 1;
    }
    report.check(
        "FIG1/infl≡fixpoint: Example 4.3 delayed CTC = stratified CTC",
        ok,
        format!("{checked} instances"),
    );

    // (b) Inflationary timestamped `good` (Example 4.4) = while-language
    // fixpoint program = oracle.
    let good_dl = parse_program(programs::GOOD_TIMESTAMP, &mut i).unwrap();
    let g = i.get("G").unwrap();
    let good = i.get("good").unwrap();
    let good_w = i.intern("goodW");
    let mut vs = VarSet::new();
    let (x, y) = (vs.var("x"), vs.var("y"));
    let while_prog = WhileProgram::new(vec![Stmt::While {
        condition: LoopCondition::Change,
        body: vec![Stmt::Assign {
            target: good_w,
            vars: vec![x],
            formula: Formula::forall(
                [y],
                Formula::Atom(g, vec![FoTerm::Var(y), FoTerm::Var(x)])
                    .implies(Formula::Atom(good_w, vec![FoTerm::Var(y)])),
            ),
            mode: Assignment::Cumulate,
        }],
    }]);
    let mut ok = true;
    for inst in &family {
        let a = inflationary::eval(&good_dl, inst, EvalOptions::default()).unwrap();
        let b = run_while(&while_prog, inst, 100_000, None).unwrap();
        let expected = oracles::good_nodes(inst, g);
        let got_dl = a
            .instance
            .relation(good)
            .cloned()
            .unwrap_or_else(|| Relation::new(1));
        let got_w = b
            .instance
            .relation(good_w)
            .cloned()
            .unwrap_or_else(|| Relation::new(1));
        ok &= got_dl.same_tuples(&expected) && got_w.same_tuples(&expected);
    }
    report.check(
        "FIG1/infl≡fixpoint: Example 4.4 timestamped good = while-fixpoint = oracle",
        ok,
        format!("{} instances", family.len()),
    );

    // (c) The closer program (Example 4.1) = strict-distance oracle.
    let closer_p = parse_program(programs::CLOSER, &mut i).unwrap();
    let closer = i.get("closer").unwrap();
    let mut ok = true;
    for inst in &family {
        let run = inflationary::eval(&closer_p, inst, EvalOptions::default()).unwrap();
        let got = run
            .instance
            .relation(closer)
            .cloned()
            .unwrap_or_else(|| Relation::new(4));
        let dist = oracles::distances(inst, g);
        let dom = inst.adom_sorted();
        let d = |a: Value, b: Value| dist.get(&(a, b)).copied().unwrap_or(u64::MAX);
        let mut expected = Relation::new(4);
        for &a in &dom {
            for &b in &dom {
                for &c in &dom {
                    for &e in &dom {
                        if d(a, b) < d(c, e) {
                            expected.insert(Tuple::from([a, b, c, e]));
                        }
                    }
                }
            }
        }
        ok &= got.same_tuples(&expected);
    }
    report.check(
        "FIG1/infl: Example 4.1 closer = strict-distance oracle",
        ok,
        format!("{} instances", family.len()),
    );

    // (d) Well-founded two-valued reading = stratified result on
    // stratified programs.
    let mut ok = true;
    for inst in &family {
        let a = wellfounded::eval(&strat, inst, EvalOptions::default()).unwrap();
        let b = stratified::eval(&strat, inst, EvalOptions::default()).unwrap();
        ok &= a.is_total() && a.true_facts.same_facts(&b.instance);
    }
    report.check(
        "FIG1/wf≡infl: WF total & equal to stratified on stratified programs",
        ok,
        format!("{} instances", family.len()),
    );
}

/// fixpoint ↑ while: Datalog¬¬ subsumes Datalog¬, adds genuinely
/// noninflationary behaviour (deletion-based composition; possible
/// divergence).
fn level_while(report: &mut Report) {
    let mut i = Interner::new();

    // (a) Datalog¬ ⊆ Datalog¬¬: identical results on TC.
    let tc = parse_program(programs::TC, &mut i).unwrap();
    let family = graph_family(&mut i);
    let mut ok = true;
    for inst in &family {
        let a = inflationary::eval(&tc, inst, EvalOptions::default()).unwrap();
        let b = noninflationary::eval(
            &tc,
            inst,
            noninflationary::ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        ok &= a.instance.same_facts(&b.instance);
    }
    report.check(
        "FIG1/while⊇fixpoint: Datalog¬ runs unchanged under Datalog¬¬",
        ok,
        format!("{} instances", family.len()),
    );

    // (b) Deletions express composition: P − π_A(Q).
    let diff = parse_program(programs::DIFF_NNEGNEG, &mut i).unwrap();
    // Strip the multi-head rule down to the deterministic variant used
    // in Section 5.2's deterministic discussion:
    let det_diff = parse_program("answer(x) :- P(x). !answer(x) :- Q(x,y).", &mut i).unwrap();
    let _ = diff;
    let p = i.get("P").unwrap();
    let q = i.get("Q").unwrap();
    let answer = i.get("answer").unwrap();
    let mut input = Instance::new();
    let v = Value::Int;
    for k in 0..6 {
        input.insert_fact(p, Tuple::from([v(k)]));
    }
    for k in [1i64, 4] {
        input.insert_fact(q, Tuple::from([v(k), v(100 + k)]));
    }
    let run = noninflationary::eval(
        &det_diff,
        &input,
        noninflationary::ConflictPolicy::PreferNegative,
        EvalOptions::default(),
    )
    .unwrap();
    let got = run.instance.relation(answer).unwrap();
    let ok = got.len() == 4
        && !got.contains(&Tuple::from([v(1)]))
        && !got.contains(&Tuple::from([v(4)]));
    report.check(
        "FIG1/while: deletion-based P − π_A(Q) = relational-algebra oracle",
        ok,
        format!("|answer| = {}", got.len()),
    );

    // (c) The flip-flop program diverges: Datalog¬¬ computations need
    // not terminate (the while-ness of the language).
    let flip = parse_program(programs::FLIP_FLOP, &mut i).unwrap();
    let t = i.get("T").unwrap();
    let mut input = Instance::new();
    input.insert_fact(t, Tuple::from([Value::Int(0)]));
    let diverged = matches!(
        noninflationary::eval(
            &flip,
            &input,
            noninflationary::ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        ),
        Err(EvalError::Diverged { period: 2, .. })
    );
    report.check(
        "FIG1/while: §4.2 flip-flop diverges with period 2",
        diverged,
        "cycle detected exactly",
    );
}

/// while ⇑ Datalog¬new: value invention escapes every polynomial fact
/// bound; safe programs remain deterministic.
fn level_invention(report: &mut Report) {
    let mut i = Interner::new();
    let chain = parse_program(
        "Chain(n, x) :- Start(x).\nChain(n2, n) :- Chain(n, x).",
        &mut i,
    )
    .unwrap();
    let start = i.get("Start").unwrap();
    let mut input = Instance::new();
    input.insert_fact(start, Tuple::from([Value::Int(0)]));
    // The input has 1 value; any Datalog¬(¬) instance over it holds at
    // most |adom(P,I)|^arity facts per relation. The inventing chain
    // exceeds any such bound.
    let budget = 64;
    let escaped = matches!(
        invention::eval(
            &chain,
            &input,
            EvalOptions::default().with_max_facts(budget)
        ),
        Err(EvalError::FactLimitExceeded(_))
    );
    report.check(
        "FIG1/new⊋while: invented-value chain exceeds any polynomial fact bound",
        escaped,
        format!("budget {budget} facts on a 1-value input"),
    );

    // Safety: a non-inventing answer relation is invented-value-free.
    let tagged = parse_program("Obj(o, x, y) :- G(x,y). Src(x) :- Obj(o, x, y).", &mut i).unwrap();
    let g = line_graph(&mut i, "G", 4);
    let run = invention::eval(&tagged, &g, EvalOptions::default()).unwrap();
    let ok = run.is_safe_answer(i.get("Src").unwrap())
        && !run.is_safe_answer(i.get("Obj").unwrap())
        && run.invented == 3;
    report.check(
        "FIG1/new: safety restriction separates safe from unsafe answers",
        ok,
        format!("{} invented values", run.invented),
    );
}

/// Section 5: the nondeterministic family (N-Datalog¬¬ effects,
/// control constructs, poss/cert).
fn level_nondet(report: &mut Report) {
    let mut i = Interner::new();

    // (a) Orientation effects = all valid orientations.
    let orientation = parse_program(programs::ORIENTATION, &mut i).unwrap();
    let g = i.get("G").unwrap();
    let input = unchained_harness::generators::symmetric_pairs(&mut i, "G", 3, 2, 11);
    let original = input.relation(g).unwrap().clone();
    let compiled = NondetProgram::compile(&orientation, false).unwrap();
    let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
    let all_valid = effects
        .iter()
        .all(|e| oracles::is_valid_orientation(&original, e.relation(g).unwrap()));
    let ok = effects.len() == 8 && all_valid;
    report.check(
        "FIG1/nondet: §5.1 orientation eff = the 2^k valid orientations",
        ok,
        format!("{} effects, all valid: {all_valid}", effects.len()),
    );

    // (b) P − π_A(Q) in the three control-extended languages.
    let v = Value::Int;
    let p = i.intern("P");
    let q = i.intern("Q");
    let mut input = Instance::new();
    for k in 0..5 {
        input.insert_fact(p, Tuple::from([v(k)]));
    }
    for k in [0i64, 3] {
        input.insert_fact(q, Tuple::from([v(k), v(10 + k)]));
    }
    let mut expected = Relation::new(1);
    for k in [1i64, 2, 4] {
        expected.insert(Tuple::from([v(k)]));
    }
    let mut results = Vec::new();
    for (name, src) in [
        ("∀", programs::DIFF_FORALL),
        ("⊥", programs::DIFF_BOTTOM),
        ("¬¬", programs::DIFF_NNEGNEG),
    ] {
        let prog = parse_program(src, &mut i).unwrap();
        let answer = i.get("answer").unwrap();
        let compiled = NondetProgram::compile(&prog, false).unwrap();
        let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
        let all_match = !effects.is_empty()
            && effects.iter().all(|e| {
                e.relation(answer)
                    .cloned()
                    .unwrap_or_else(|| Relation::new(1))
                    .same_tuples(&expected)
            });
        results.push(format!("{name}:{}", if all_match { "✓" } else { "✗" }));
        report.check(
            &format!("FIG1/nondet: P−π_A(Q) via N-Datalog¬{name} = oracle on every effect"),
            all_match,
            format!("{} effect(s)", effects.len()),
        );
    }

    // (c) Example 5.4: plain N-Datalog¬ *cannot* chain the two rules —
    // some effect of the naive composition is wrong.
    let naive_prog = parse_program(programs::DIFF_NAIVE_COMPOSITION, &mut i).unwrap();
    let answer = i.get("answer").unwrap();
    let compiled = NondetProgram::compile(&naive_prog, false).unwrap();
    let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
    let some_wrong = effects.iter().any(|e| {
        !e.relation(answer)
            .cloned()
            .unwrap_or_else(|| Relation::new(1))
            .same_tuples(&expected)
    });
    report.check(
        "FIG1/nondet: Example 5.4 naive composition has wrong effects in N-Datalog¬",
        some_wrong,
        format!("{} effects, some ≠ oracle: {some_wrong}", effects.len()),
    );

    // (d) poss/cert of the orientation program (Def. 5.10).
    let mut two_cycle = Instance::new();
    let g2 = i.get("G").unwrap();
    two_cycle.insert_fact(g2, Tuple::from([v(1), v(2)]));
    two_cycle.insert_fact(g2, Tuple::from([v(2), v(1)]));
    let compiled = NondetProgram::compile(&orientation, false).unwrap();
    let pc = poss_cert(&compiled, &two_cycle, EffOptions::default()).unwrap();
    let ok = pc.effect_count == 2
        && pc.poss.relation(g2).unwrap().len() == 2
        && pc.cert.relation(g2).unwrap().is_empty();
    report.check(
        "FIG1/nondet: Def 5.10 poss = input, cert = ∅ for the 2-cycle orientation",
        ok,
        format!("effects: {}", pc.effect_count),
    );
}

/// Theorem 4.7: evenness on ordered databases (with min/max) in
/// semipositive Datalog¬ — evaluated identically by the stratified,
/// well-founded and inflationary engines.
fn level_ordered(report: &mut Report) {
    let mut i = Interner::new();
    let program = parse_program(programs::EVEN_SEMIPOSITIVE, &mut i).unwrap();
    let even = i.get("even").unwrap();
    let r = i.get("R").unwrap();
    let mut ok = true;
    for k in 0..=8usize {
        let members: Vec<i64> = (0..k as i64).map(|x| x * 2).collect();
        let input = evenness_input(&mut i, "R", 20, &members);
        let expected = oracles::evenness(&input, r);
        for engine in ["stratified", "wellfounded", "inflationary"] {
            let derived = match engine {
                "stratified" => stratified::eval(&program, &input, EvalOptions::default())
                    .unwrap()
                    .instance
                    .contains_fact(even, &Tuple::from([])),
                "wellfounded" => {
                    let m = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
                    m.truth(even, &Tuple::from([])) == wellfounded::Truth::True
                }
                _ => inflationary::eval(&program, &input, EvalOptions::default())
                    .unwrap()
                    .instance
                    .contains_fact(even, &Tuple::from([])),
            };
            ok &= derived == expected;
        }
    }
    report.check(
        "FIG1/order: Thm 4.7 evenness (semipositive, ordered+min/max) = parity oracle",
        ok,
        "|R| ∈ 0..=8 × 3 engines",
    );
}

/// §3.3 context — stable models: the paper's game instance has none
/// (why well-founded semantics was needed), stratified programs have
/// exactly one, and all stable models live in the WF interval.
fn level_stable(report: &mut Report) {
    let mut i = Interner::new();
    let win = parse_program(programs::WIN, &mut i).unwrap();
    let game = unchained_harness::generators::paper_game(&mut i, "moves");
    let models = stable::stable_models(&win, &game, stable::StableOptions::default()).unwrap();
    report.check(
        "FIG1/stable: paper's win-move instance has NO stable model",
        models.is_empty(),
        format!("{} models (drawn odd cycle is incoherent)", models.len()),
    );
    let strat_p = parse_program(programs::CTC_STRATIFIED, &mut i).unwrap();
    let input = line_graph(&mut i, "G", 4);
    let models = stable::stable_models(&strat_p, &input, stable::StableOptions::default()).unwrap();
    let strat_run = stratified::eval(&strat_p, &input, EvalOptions::default()).unwrap();
    let ok = models.len() == 1 && models[0].same_facts(&strat_run.instance);
    report.check(
        "FIG1/stable: stratified programs have one stable model = stratified answer",
        ok,
        format!("{} model(s)", models.len()),
    );
}

/// §3.1 context — magic sets: goal-directed rewriting agrees with full
/// evaluation and derives strictly fewer facts on selective queries.
fn level_magic(report: &mut Report) {
    let mut i = Interner::new();
    let program = parse_program(programs::TC, &mut i).unwrap();
    let t = i.get("T").unwrap();
    let g = i.get("G").unwrap();
    // Two disjoint chains; query one end point.
    let mut input = Instance::new();
    for chain in 0..4i64 {
        for k in 0..10i64 {
            let base = chain * 100;
            input.insert_fact(
                g,
                Tuple::from([Value::Int(base + k), Value::Int(base + k + 1)]),
            );
        }
    }
    let query = magic::QueryPattern::new(t, vec![Some(Value::Int(0)), None]);
    let (answer, stats) = magic::compare_with_full(&program, &query, &input, &mut i).unwrap();
    let ok = answer.len() == 10 && stats.magic_facts < stats.full_facts;
    report.check(
        "FIG1/magic: single-source TC — magic answer = full answer, fewer facts",
        ok,
        format!(
            "full {} vs magic {} derived facts",
            stats.full_facts, stats.magic_facts
        ),
    );
}

/// §5.2/§5.3 — the choice operator computes evenness (a deterministic
/// query no deterministic generic language expresses without order):
/// every terminal computation agrees, so poss = cert.
fn level_choice(report: &mut Report) {
    let mut i = Interner::new();
    let program = parse_program(unchained_nondet::CHOICE_PARITY, &mut i).unwrap();
    let r = i.get("R").unwrap();
    let even_r = i.get("evenR").unwrap();
    let mut ok = true;
    for k in 0..=4usize {
        let mut input = Instance::new();
        input.ensure(r, 1);
        for v in 0..k as i64 {
            input.insert_fact(r, Tuple::from([Value::Int(v)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let pc = poss_cert(&compiled, &input, EffOptions::default()).unwrap();
        let expected = k % 2 == 0;
        ok &= pc.poss.contains_fact(even_r, &Tuple::from([])) == expected;
        ok &= pc.cert.contains_fact(even_r, &Tuple::from([])) == expected;
    }
    report.check(
        "FIG1/choice: evenness via choice+∀+⊥ — poss = cert = parity oracle",
        ok,
        "|R| ∈ 0..=4, all computations agree (det fragment, §5.3)",
    );
}
