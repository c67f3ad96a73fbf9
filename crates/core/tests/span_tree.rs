//! Span-tree invariants for the hierarchical tracer: deterministic
//! work-gauge projections are byte-identical across thread counts,
//! children's gauges account exactly for their parents', and the
//! Chrome-trace-event export validates against its own schema checker.

use unchained_common::{
    gauge_tree, sum_gauge, to_chrome_json, validate_chrome_trace, Instance, Interner, Span,
    SpanKind, Telemetry, Tracer, Tuple, Value,
};
use unchained_core::noninflationary::ConflictPolicy;
use unchained_core::{
    inflationary, invention, noninflationary, seminaive, stratified, wellfounded, EvalOptions,
    IncrementalSession,
};
use unchained_parser::parse_program;

const TC: &str = "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).";

fn chain(interner: &mut Interner, n: i64) -> Instance {
    let g = interner.intern("G");
    let mut input = Instance::new();
    for k in 0..n {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    input
}

/// Runs semi-naive TC over a seeded chain and returns the finished
/// span forest plus the interner that names it.
fn traced_tc(n: i64, threads: usize) -> (Vec<Span>, Interner) {
    let mut interner = Interner::new();
    let program = parse_program(TC, &mut interner).unwrap();
    let input = chain(&mut interner, n);
    let tracer = Tracer::enabled();
    let tel = Telemetry::off().with_tracer(tracer.clone());
    let options = EvalOptions::default()
        .with_telemetry(tel)
        .with_threads(threads);
    seminaive::minimum_model(&program, &input, options).unwrap();
    (tracer.finish(), interner)
}

fn walk<'s>(roots: &'s [Span], out: &mut Vec<&'s Span>) {
    for span in roots {
        out.push(span);
        walk(&span.children, out);
    }
}

#[test]
fn gauge_tree_is_byte_identical_across_thread_counts() {
    let (seq, interner_seq) = traced_tc(24, 1);
    let (par, interner_par) = traced_tc(24, 4);
    let seq_tree = gauge_tree(&seq, &interner_seq);
    let par_tree = gauge_tree(&par, &interner_par);
    assert!(!seq_tree.is_empty());
    assert_eq!(
        seq_tree, par_tree,
        "deterministic projection must not depend on the schedule"
    );
    // The projection carries the work gauges…
    assert!(seq_tree.contains("facts_added"), "{seq_tree}");
    assert!(seq_tree.contains("fired"), "{seq_tree}");
    // …including the deterministic planner-effect gauges…
    assert!(seq_tree.contains("plan_joins_pruned"), "{seq_tree}");
    // …but no schedule-dependent worker lanes or join-counter leaves
    // (probe counts depend on the per-worker index chunking).
    assert!(!seq_tree.contains("worker"), "{seq_tree}");
    assert!(!seq_tree.contains("probes"), "{seq_tree}");
}

/// The run-level gauges raised on eval spans (peaks, the divergence
/// detector's state count, invented values) and every round's live
/// facts and bytes are thread-invariant too: each stage-driver engine's
/// gauge tree is byte-identical at threads 1 and 4.
#[test]
fn every_engines_gauge_tree_is_identical_at_threads_1_and_4() {
    let mut i = Interner::new();
    let tc = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 12);
    let win = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.intern("moves");
    let mut game = Instance::new();
    for k in 0..20 {
        game.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        game.insert_fact(
            moves,
            Tuple::from([Value::Int(k), Value::Int((k * 7) % 21)]),
        );
    }
    let shrink = parse_program("!G(x,y) :- G(x,y), G(y,x). T(x,y) :- G(x,y).", &mut i).unwrap();
    let g = i.get("G").unwrap();
    let mut cycles = input.clone();
    for k in 0..12 {
        cycles.insert_fact(g, Tuple::from([Value::Int(k + 1), Value::Int(k)]));
    }
    let objects = parse_program("EdgeObj(e, x, y) :- G(x,y).", &mut i).unwrap();
    let trees = |threads: usize| {
        let tracer = Tracer::enabled();
        let options = EvalOptions::default()
            .with_telemetry(Telemetry::off().with_tracer(tracer.clone()))
            .with_threads(threads);
        wellfounded::eval(&win, &game, options.clone()).unwrap();
        noninflationary::eval(
            &shrink,
            &cycles,
            ConflictPolicy::PreferPositive,
            options.clone(),
        )
        .unwrap();
        invention::eval(&objects, &input, options.clone()).unwrap();
        let mut session = IncrementalSession::new(tc.clone(), &input, options).unwrap();
        session
            .retract(g, Tuple::from([Value::Int(5), Value::Int(6)]))
            .unwrap();
        session.poll().unwrap();
        gauge_tree(&tracer.finish(), &i)
    };
    let seq = trees(1);
    assert_eq!(seq, trees(4));
    for gauge in [
        "peak_facts=",
        "bytes_peak=",
        "states_seen=",
        "invented=",
        " facts=",
    ] {
        assert!(seq.contains(gauge), "{gauge} missing from {seq}");
    }
}

#[test]
fn children_gauges_account_for_their_parents() {
    let (roots, _) = traced_tc(16, 1);
    assert_eq!(roots.len(), 1, "one eval root");
    let eval = &roots[0];
    assert_eq!(eval.kind, SpanKind::Eval);

    let mut all = Vec::new();
    walk(&roots, &mut all);
    // Every round's `rules_fired` equals the sum of its rule children's
    // `fired` gauges.
    let mut rounds = 0;
    for round in all.iter().filter(|s| s.kind == SpanKind::Round) {
        rounds += 1;
        let fired: u64 = round
            .children
            .iter()
            .filter(|c| c.kind == SpanKind::Rule)
            .map(|c| c.gauge("fired").unwrap_or(0))
            .sum();
        assert_eq!(round.gauge("rules_fired"), Some(fired), "{}", round.name);
    }
    assert!(rounds >= 2);
    // The same identity holds forest-wide through `sum_gauge`.
    assert_eq!(
        sum_gauge(&roots, SpanKind::Round, "rules_fired"),
        sum_gauge(&roots, SpanKind::Rule, "fired"),
    );
    // The stratum span's round count matches the tree shape, and the
    // total facts added over rounds bounds the final instance size.
    let stratum = eval
        .children
        .iter()
        .find(|s| s.kind == SpanKind::Stratum)
        .expect("eval wraps a stratum");
    assert_eq!(stratum.gauge("rounds"), Some(rounds));
    let added = sum_gauge(&roots, SpanKind::Round, "facts_added");
    assert!(eval.gauge("final_facts").unwrap() >= added);
    // Wall-clock nesting: timed children start within their parent
    // (gauge-only leaves like the join summary carry no timing).
    for parent in &all {
        for child in parent.children.iter().filter(|c| c.start_nanos > 0) {
            assert!(child.start_nanos >= parent.start_nanos);
        }
    }
}

#[test]
fn parallel_run_has_one_worker_lane_per_thread() {
    let (roots, _) = traced_tc(32, 4);
    let mut all = Vec::new();
    walk(&roots, &mut all);
    let lanes: std::collections::BTreeSet<usize> = all
        .iter()
        .filter(|s| s.kind == SpanKind::Worker)
        .map(|s| s.lane.expect("worker spans carry a lane"))
        .collect();
    assert_eq!(
        lanes.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "one timeline lane per worker at threads=4"
    );
    // The sequential run has none.
    let (roots, _) = traced_tc(32, 1);
    let mut all = Vec::new();
    walk(&roots, &mut all);
    assert!(all.iter().all(|s| s.kind != SpanKind::Worker));
}

#[test]
fn chrome_export_validates_for_every_engine_shape() {
    // Semi-naive (parallel): eval → stratum → round → rule/worker/join.
    let (roots, interner) = traced_tc(24, 4);
    let json = to_chrome_json(&roots, &interner);
    let summary = validate_chrome_trace(
        &json,
        &["eval", "stratum", "round", "rule", "worker", "join"],
    )
    .unwrap();
    assert!(summary.contains("events"), "{summary}");

    // Stratified negation: one stratum span per stratum.
    let mut interner = Interner::new();
    let program = parse_program(
        "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). V(x) :- G(x,y). V(y) :- G(x,y). \
         CT(x,y) :- V(x), V(y), !T(x,y).",
        &mut interner,
    )
    .unwrap();
    let input = chain(&mut interner, 6);
    let tracer = Tracer::enabled();
    let tel = Telemetry::off().with_tracer(tracer.clone());
    stratified::eval(&program, &input, EvalOptions::default().with_telemetry(tel)).unwrap();
    let roots = tracer.finish();
    let strata = roots[0]
        .children
        .iter()
        .filter(|s| s.kind == SpanKind::Stratum)
        .count();
    assert!(strata >= 2, "negation splits the program into strata");
    validate_chrome_trace(
        &to_chrome_json(&roots, &interner),
        &["eval", "stratum", "round", "rule"],
    )
    .unwrap();

    // Well-founded: alternating-fixpoint phases, with worker lanes when
    // its stages run in parallel.
    let mut interner = Interner::new();
    let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut interner).unwrap();
    let moves = interner.intern("moves");
    let mut input = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3)] {
        input.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let traced_wf = |threads: usize| {
        let tracer = Tracer::enabled();
        let tel = Telemetry::off().with_tracer(tracer.clone());
        let options = EvalOptions::default()
            .with_telemetry(tel)
            .with_threads(threads);
        wellfounded::eval(&program, &input, options).unwrap();
        to_chrome_json(&tracer.finish(), &interner)
    };
    validate_chrome_trace(
        &traced_wf(4),
        &["eval", "phase", "round", "rule", "worker", "join"],
    )
    .unwrap();
    let sequential = traced_wf(1);
    validate_chrome_trace(&sequential, &["eval", "phase", "round", "rule", "join"]).unwrap();

    // A kind the forest lacks is an error, as is junk input.
    assert!(validate_chrome_trace(&sequential, &["worker"]).is_err());
    assert!(validate_chrome_trace("[1,2,3]", &[]).is_err());
}

/// A parallel round attributes to each rule the worker time its morsels
/// took, so a 4-worker profile shows non-zero rule times.
#[test]
fn parallel_rule_spans_carry_worker_time() {
    let (roots, _) = traced_tc(32, 4);
    let mut all = Vec::new();
    walk(&roots, &mut all);
    let rules: Vec<&&Span> = all.iter().filter(|s| s.kind == SpanKind::Rule).collect();
    assert!(!rules.is_empty());
    assert!(
        rules.iter().any(|r| r.dur_nanos > 0),
        "every parallel rule span reads 0 ns"
    );
    // The worker time of a rule never exceeds what its round's workers
    // spent together.
    for round in all.iter().filter(|s| s.kind == SpanKind::Round) {
        let rule_time: u64 = round
            .children
            .iter()
            .filter(|c| c.kind == SpanKind::Rule)
            .map(|c| c.dur_nanos)
            .sum();
        let worker_time: u64 = round
            .children
            .iter()
            .filter(|c| c.kind == SpanKind::Worker)
            .map(|c| c.dur_nanos)
            .sum();
        assert!(rule_time <= worker_time, "{}", round.name);
    }
}

/// The stage-driver engines attribute every round to its rules the way
/// the semi-naive engine does: each round's `rules_fired` is the sum of
/// its rule leaves' `fired`, and the rule leaves carry wall time.
#[test]
fn stage_driver_rounds_account_for_their_rules() {
    let mut interner = Interner::new();
    let tc = parse_program(TC, &mut interner).unwrap();
    let win = parse_program("win(x) :- moves(x,y), !win(y).", &mut interner).unwrap();
    let input = chain(&mut interner, 8);
    let moves = interner.intern("moves");
    let mut game = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 4)] {
        game.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let tracer = Tracer::enabled();
    let options =
        EvalOptions::default().with_telemetry(Telemetry::off().with_tracer(tracer.clone()));
    wellfounded::eval(&win, &game, options.clone()).unwrap();
    inflationary::eval(&tc, &input, options.clone()).unwrap();
    noninflationary::eval(&tc, &input, ConflictPolicy::PreferPositive, options).unwrap();
    let roots = tracer.finish();
    assert_eq!(roots.len(), 3, "one eval root per engine");
    for eval in &roots {
        let mut all = Vec::new();
        walk(std::slice::from_ref(eval), &mut all);
        let rounds: Vec<&&Span> = all.iter().filter(|s| s.kind == SpanKind::Round).collect();
        assert!(rounds.len() >= 2, "{}", eval.name);
        for round in rounds {
            let rules: Vec<&Span> = round
                .children
                .iter()
                .filter(|c| c.kind == SpanKind::Rule)
                .collect();
            assert!(!rules.is_empty(), "{} {}", eval.name, round.name);
            let fired: u64 = rules.iter().map(|r| r.gauge("fired").unwrap_or(0)).sum();
            assert_eq!(round.gauge("rules_fired"), Some(fired), "{}", eval.name);
            assert!(round.children.iter().any(|c| c.kind == SpanKind::Join));
        }
        assert!(
            sum_gauge(std::slice::from_ref(eval), SpanKind::Rule, "fired") > 0,
            "{}",
            eval.name
        );
    }

    // An incremental session records each poll as one round with a leaf
    // per program rule: the overdelete, rederive and insert passes of
    // every stratum attribute their matches to the rule that fired them.
    // The diamond G(0,1), G(1,3), G(0,2), G(2,3) makes a retraction
    // rederive, and `CT`, which negates `T`, recomputes in a nested
    // batch round of its own.
    let program = parse_program(
        &format!("{TC} V(x) :- G(x,y). CT(x) :- V(x), !T(x,x)."),
        &mut interner,
    )
    .unwrap();
    let g = interner.intern("G");
    let edge = |a: i64, b: i64| Tuple::from([Value::Int(a), Value::Int(b)]);
    let mut diamond = Instance::new();
    for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
        diamond.insert_fact(g, edge(a, b));
    }
    let tracer = Tracer::enabled();
    let options =
        EvalOptions::default().with_telemetry(Telemetry::off().with_tracer(tracer.clone()));
    let mut session = IncrementalSession::new(program.clone(), &diamond, options).unwrap();
    let mut polled = 0;
    for (retract, (a, b)) in [
        (true, (1, 3)),
        (false, (3, 0)),
        (true, (3, 0)),
        (false, (1, 3)),
    ] {
        if retract {
            session.retract(g, edge(a, b)).unwrap();
        } else {
            session.insert(g, edge(a, b)).unwrap();
        }
        polled += session.poll().unwrap().rules_fired;
    }
    let roots = tracer.finish();
    // The initial fixpoint and each poll are runs of their own: `ivm`
    // eval spans, a poll's around its round.
    assert!(roots
        .iter()
        .all(|r| r.kind == SpanKind::Eval && r.name == "ivm"));
    let polls: Vec<&Span> = roots
        .iter()
        .flat_map(|r| &r.children)
        .filter(|s| s.name == "poll")
        .collect();
    assert_eq!(polls.len(), 4);
    for poll in &polls {
        assert_eq!(poll.kind, SpanKind::Round);
        let rules: Vec<&Span> = poll
            .children
            .iter()
            .filter(|c| c.kind == SpanKind::Rule)
            .collect();
        assert_eq!(rules.len(), program.rules.len(), "one leaf per rule");
        let fired: u64 = rules.iter().map(|r| r.gauge("fired").unwrap_or(0)).sum();
        assert_eq!(poll.gauge("rules_fired"), Some(fired));
    }
    assert!(polled > 0);
    assert!(
        polls
            .iter()
            .any(|p| p.children.iter().any(|c| c.kind == SpanKind::Round)),
        "CT recomputes in a nested round"
    );
}

/// A round's join leaf carries every join counter, so the span tree
/// reproduces the run's `JoinCounters`.
#[test]
fn join_leaves_sum_to_the_runs_join_counters() {
    let mut interner = Interner::new();
    let program = parse_program(TC, &mut interner).unwrap();
    let input = chain(&mut interner, 24);
    let tracer = Tracer::enabled();
    let tel = Telemetry::enabled().with_tracer(tracer.clone());
    seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let trace = tel.snapshot().unwrap();
    let roots = tracer.finish();
    assert!(trace.joins.indexed_tuples > 0);
    for (name, total) in [
        ("probes", trace.joins.probes),
        ("probe_tuples", trace.joins.probe_tuples),
        ("index_builds", trace.joins.index_builds),
        ("indexed_tuples", trace.joins.indexed_tuples),
        ("index_hits", trace.joins.index_hits),
        ("index_appends", trace.joins.index_appends),
        ("appended_tuples", trace.joins.appended_tuples),
        ("index_rebuilds", trace.joins.index_rebuilds),
    ] {
        assert_eq!(sum_gauge(&roots, SpanKind::Join, name), total, "{name}");
    }
}

/// A poll whose stratum falls back to batch recomputation nests that
/// recomputation's rounds in its own, and each round records its own
/// join work: the poll's rounds together read `PollStats::joins`, the
/// recomputation counted once. On the diamond session, inserting
/// `G(3,0)` closes a cycle, so `T` gains `T(x,x)` facts and `CT`, which
/// negates `T`, recomputes.
#[test]
fn poll_rounds_sum_to_the_polls_join_counters() {
    let mut interner = Interner::new();
    let program = parse_program(
        &format!("{TC} V(x) :- G(x,y). CT(x) :- V(x), !T(x,x)."),
        &mut interner,
    )
    .unwrap();
    let g = interner.intern("G");
    let edge = |a: i64, b: i64| Tuple::from([Value::Int(a), Value::Int(b)]);
    let mut diamond = Instance::new();
    for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
        diamond.insert_fact(g, edge(a, b));
    }
    let tracer = Tracer::enabled();
    let options =
        EvalOptions::default().with_telemetry(Telemetry::off().with_tracer(tracer.clone()));
    let mut session = IncrementalSession::new(program, &diamond, options).unwrap();
    session.insert(g, edge(3, 0)).unwrap();
    let stats = session.poll().unwrap();
    assert_eq!(stats.strata_recomputed, 1, "{stats:?}");
    let roots = tracer.finish();
    let poll: Vec<&Span> = roots
        .iter()
        .flat_map(|r| &r.children)
        .filter(|s| s.name == "poll")
        .collect();
    let [poll] = poll[..] else {
        panic!("one poll round, got {}", poll.len())
    };
    assert!(poll.children.iter().any(|c| c.kind == SpanKind::Round));
    let joins = stats.joins;
    assert!(joins.probes > 0);
    for (name, total) in [
        ("probes", joins.probes),
        ("probe_tuples", joins.probe_tuples),
        ("index_builds", joins.index_builds),
        ("indexed_tuples", joins.indexed_tuples),
        ("index_hits", joins.index_hits),
        ("index_appends", joins.index_appends),
        ("appended_tuples", joins.appended_tuples),
        ("index_rebuilds", joins.index_rebuilds),
    ] {
        let rounds = sum_gauge(std::slice::from_ref(poll), SpanKind::Join, name);
        assert_eq!(rounds, total, "{name}");
    }
}

/// A well-founded round that shrinks the over-estimate fires most of
/// its matches in the overdelete closure and the rederive pass, not in
/// the seed loop over the gained facts. Each rule's span carries the
/// time of all three, so the rule spans of those rounds account for
/// most of their time (the seed loop alone reads well under 1%).
#[test]
fn wellfounded_shrink_rounds_time_their_closure() {
    let mut interner = Interner::new();
    let program = parse_program(
        "win(x) :- moves(x,y), !win(y). \
         far(x,y) :- win(x), e(x,y). far(x,z) :- far(x,y), e(y,z).",
        &mut interner,
    )
    .unwrap();
    let (moves, e) = (interner.intern("moves"), interner.intern("e"));
    let mut input = Instance::new();
    for k in 0..6 {
        input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    for k in 0..300 {
        input.insert_fact(e, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    let tracer = Tracer::enabled();
    let options =
        EvalOptions::default().with_telemetry(Telemetry::off().with_tracer(tracer.clone()));
    wellfounded::eval(&program, &input, options).unwrap();
    let roots = tracer.finish();
    let mut all = Vec::new();
    walk(&roots, &mut all);
    let shrinks: Vec<&&Span> = all
        .iter()
        .filter(|s| s.kind == SpanKind::Round && s.gauge("facts_removed").unwrap_or(0) > 0)
        .collect();
    assert!(!shrinks.is_empty(), "no round shrank the over-estimate");
    let (mut rule_time, mut round_time) = (0, 0);
    for round in shrinks {
        let rules = round.children.iter().filter(|c| c.kind == SpanKind::Rule);
        let fired: u64 = rules.clone().map(|r| r.gauge("fired").unwrap_or(0)).sum();
        assert_eq!(round.gauge("rules_fired"), Some(fired), "{}", round.name);
        rule_time += rules.map(|r| r.dur_nanos).sum::<u64>();
        round_time += round.dur_nanos;
    }
    assert!(
        rule_time * 3 >= round_time,
        "rule spans cover {rule_time} of {round_time} ns in shrinking rounds"
    );
}
