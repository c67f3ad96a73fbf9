//! Integration tests for the telemetry subsystem: stage-by-stage
//! traces of the engines on the paper's worked fixpoint examples.
//!
//! The stage counts asserted here are the machine-checked form of the
//! paper's hand-worked iterations: transitive closure of an n-chain
//! saturates in n stages with strictly shrinking deltas, and the
//! Section 4.2 flip-flop program cycles with period 2.

use unchained_common::{
    Instance, Interner, SpaceReport, Span, SpanKind, Telemetry, Tracer, Tuple, Value,
};
use unchained_core::{
    inflationary, naive, noninflationary, seminaive, wellfounded, DivergenceDetection, EvalError,
    EvalOptions,
};
use unchained_parser::parse_program;

const TC: &str = "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).";

/// A directed chain 1 → 2 → … → n over predicate `G`.
fn chain(interner: &mut Interner, n: i64) -> Instance {
    let g = interner.intern("G");
    let mut db = Instance::new();
    for k in 1..n {
        db.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    db
}

/// A directed cycle 1 → 2 → … → n → 1 over predicate `G`.
fn cycle(interner: &mut Interner, n: i64) -> Instance {
    let g = interner.intern("G");
    let mut db = Instance::new();
    for k in 1..=n {
        let next = if k == n { 1 } else { k + 1 };
        db.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(next)]));
    }
    db
}

#[test]
fn seminaive_chain_trace_has_shrinking_deltas() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let n = 6i64;
    let input = chain(&mut i, n);
    let tel = Telemetry::enabled();
    let run = seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let trace = tel.snapshot().expect("trace");
    assert_eq!(trace.engine, "seminaive");
    // Stage k derives the paths of length k+1; the last stage is the
    // empty one that detects the fixpoint. Chain of n nodes: deltas
    // n-1, n-2, …, 1, 0 over n stages.
    assert_eq!(trace.stages.len(), n as usize);
    let t = i.get("T").unwrap();
    for (idx, stage) in trace.stages.iter().enumerate() {
        let expected = n as usize - 1 - idx;
        assert_eq!(stage.stage, idx + 1);
        assert_eq!(stage.facts_added, expected, "stage {}", idx + 1);
        if expected > 0 {
            assert_eq!(stage.delta, vec![(t, expected)], "stage {}", idx + 1);
        } else {
            assert!(stage.delta.is_empty());
        }
        assert_eq!(stage.facts_removed, 0);
    }
    // T holds all n(n-1)/2 ordered pairs; G's n-1 facts were input.
    let pairs = (n * (n - 1) / 2) as usize;
    assert_eq!(trace.total_facts_added(), pairs);
    assert_eq!(trace.final_facts, run.instance.fact_count());
    assert_eq!(trace.final_facts, pairs + (n as usize - 1));
    assert_eq!(trace.peak_facts, trace.final_facts);
    assert!(trace.joins.probes > 0, "semi-naive TC must probe indexes");
}

#[test]
fn seminaive_cycle_trace_adds_n_facts_per_stage() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let n = 5i64;
    let input = cycle(&mut i, n);
    let tel = Telemetry::enabled();
    seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let trace = tel.snapshot().expect("trace");
    // On an n-cycle every stage (but the last two) derives exactly the
    // n paths one hop longer, until all n² pairs exist.
    assert_eq!(trace.total_facts_added(), (n * n) as usize);
    for stage in &trace.stages[..trace.stages.len() - 2] {
        assert_eq!(stage.facts_added, n as usize, "stage {}", stage.stage);
    }
    assert_eq!(trace.stages.last().unwrap().facts_added, 0);
}

#[test]
fn naive_and_seminaive_traces_agree_on_totals() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 7);
    let ntel = Telemetry::enabled();
    let nrun = naive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(ntel.clone()),
    )
    .unwrap();
    let stel = Telemetry::enabled();
    let srun = seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(stel.clone()),
    )
    .unwrap();
    let ntrace = ntel.snapshot().unwrap();
    let strace = stel.snapshot().unwrap();
    assert_eq!(ntrace.engine, "naive");
    assert_eq!(strace.engine, "seminaive");
    // Same minimum model, hence the same totals…
    assert_eq!(nrun.instance, srun.instance);
    assert_eq!(ntrace.total_facts_added(), strace.total_facts_added());
    assert_eq!(ntrace.final_facts, strace.final_facts);
    assert_eq!(ntrace.stages.len(), strace.stages.len());
    // …but naive refires every rule body from scratch each stage, so
    // the trace exposes the redundant work Section 4.1 warns about.
    assert!(
        ntrace.rules_fired > strace.rules_fired,
        "naive fired {} vs semi-naive {}",
        ntrace.rules_fired,
        strace.rules_fired
    );
}

/// Inflationary evaluation fires each rule's semi-naive variants over
/// the previous stage's delta, so on a positive program it derives
/// naive's facts at naive's stages while firing fewer matches from
/// stage 2 on — with or without birth stages recorded.
#[test]
fn inflationary_derives_naives_stages_with_less_work() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 7);
    let traced = |run: &dyn Fn(EvalOptions)| {
        let tel = Telemetry::enabled();
        run(EvalOptions::default().with_telemetry(tel.clone()));
        tel.snapshot().unwrap()
    };
    let naive = traced(&|o| {
        naive::minimum_model(&program, &input, o).unwrap();
    });
    let inflationary = traced(&|o| {
        inflationary::eval(&program, &input, o).unwrap();
    });
    let births = traced(&|o| {
        inflationary::eval_traced(&program, &input, o).unwrap();
    });
    let added = |t: &unchained_common::EvalTrace| {
        t.stages.iter().map(|s| s.facts_added).collect::<Vec<_>>()
    };
    for trace in [&inflationary, &births] {
        assert_eq!(trace.stages.len(), naive.stages.len(), "{}", trace.engine);
        assert_eq!(added(trace), added(&naive), "{}", trace.engine);
        assert_eq!(
            trace.stages[0].rules_fired, naive.stages[0].rules_fired,
            "stage 1 is a full Γ_P stage"
        );
        for (s, n) in trace.stages.iter().zip(&naive.stages).skip(1) {
            assert!(
                s.rules_fired < n.rules_fired,
                "{} stage {}: fired {} vs naive {}",
                trace.engine,
                s.stage,
                s.rules_fired,
                n.rules_fired
            );
        }
    }
}

/// Each reduct of the alternating fixpoint is a positive program whose
/// negation reads a frozen instance. Win-move's only positive literal is
/// the edb `moves`, so after a reduct's first stage no rule has a delta
/// to fire on.
#[test]
fn every_wellfounded_reduct_fires_nothing_after_its_first_stage() {
    let mut i = Interner::new();
    let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.get("moves").unwrap();
    let mut input = Instance::new();
    for k in 0..12i64 {
        input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        input.insert_fact(
            moves,
            Tuple::from([Value::Int(k), Value::Int((k * 5) % 13)]),
        );
    }
    let tracer = Tracer::enabled();
    let options =
        EvalOptions::default().with_telemetry(Telemetry::off().with_tracer(tracer.clone()));
    let model = wellfounded::eval(&program, &input, options).unwrap();
    let roots = tracer.finish();
    let reducts: Vec<&Span> = roots[0]
        .children
        .iter()
        .filter(|s| s.kind == SpanKind::Phase)
        .collect();
    assert_eq!(reducts.len(), model.rounds);
    let mut second_stages = 0;
    for reduct in reducts {
        let rounds: Vec<&Span> = reduct
            .children
            .iter()
            .filter(|s| s.kind == SpanKind::Round)
            .collect();
        assert!(
            rounds.len() <= 2,
            "{}: {} stages",
            reduct.name,
            rounds.len()
        );
        assert!(rounds[0].gauge("rules_fired").unwrap() > 0);
        if let Some(second) = rounds.get(1) {
            assert_eq!(second.gauge("rules_fired"), Some(0), "{}", reduct.name);
            second_stages += 1;
        }
    }
    assert!(second_stages > 0);
}

/// Datalog¬¬ samples its peak from counts and remembers exact states by
/// sharing frozen segments, so on chain TC nothing forks a relation's
/// lineage and the index cache only absorbs: no rebuild at any stage.
/// The peak is unchanged: the last stage holds the fixpoint twice.
#[test]
fn noninflationary_chain_keeps_its_indexes() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let n = 8i64;
    let input = chain(&mut i, n);
    let tel = Telemetry::enabled();
    let options = EvalOptions::default().with_telemetry(tel.clone());
    assert_eq!(options.divergence, DivergenceDetection::Exact);
    let run = noninflationary::eval(
        &program,
        &input,
        noninflationary::ConflictPolicy::PreferPositive,
        options,
    )
    .unwrap();
    let trace = tel.snapshot().unwrap();
    let facts = (n - 1 + n * (n - 1) / 2) as usize;
    assert_eq!(run.instance.fact_count(), facts);
    assert_eq!(trace.joins.index_rebuilds, 0);
    assert!(trace.joins.index_appends > 0);
    assert_eq!(trace.peak_facts, 2 * facts);
}

#[test]
fn flip_flop_divergence_is_visible_in_trace() {
    let mut i = Interner::new();
    // The Section 4.2 flip-flop program: T alternates {⟨0⟩} / {⟨1⟩}.
    let program = parse_program(
        "T(0) :- T(1).\n!T(1) :- T(1).\nT(1) :- T(0).\n!T(0) :- T(0).",
        &mut i,
    )
    .unwrap();
    let t = i.get("T").unwrap();
    let mut input = Instance::new();
    input.insert_fact(t, Tuple::from([Value::Int(0)]));
    let tel = Telemetry::enabled();
    let err = noninflationary::eval(
        &program,
        &input,
        noninflationary::ConflictPolicy::PreferPositive,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap_err();
    assert_eq!(
        err,
        EvalError::Diverged {
            stage: 2,
            period: 2
        }
    );
    // The engine finishes the trace before reporting divergence, so
    // the period-2 cycle is machine-checkable from the snapshot.
    let trace = tel.snapshot().expect("trace survives divergence");
    assert_eq!(trace.engine, "noninflationary");
    let d = trace.divergence.expect("divergence snapshot");
    assert_eq!(d.diverged_stage, Some(2));
    assert_eq!(d.period, Some(2));
    assert!(d.states_seen >= 2);
    // Each stage both adds and retracts one T fact.
    assert!(trace.stages.iter().any(|s| s.facts_removed > 0));
}

/// The `peak_facts` fix: the gauge is a true high-water mark over *live*
/// facts, sampled while both the old state and its successor are in
/// memory — not a max over stage-end counts. On a shrinking
/// noninflationary program the mid-stage peak strictly exceeds every
/// stage-end count, which the old boundary-only sampling missed.
#[test]
fn peak_facts_sees_the_mid_stage_high_water_mark() {
    let mut i = Interner::new();
    // Removes both 2-cycles in one parallel firing: 5 G facts drop to 1.
    let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
    let g = i.get("G").unwrap();
    let mut input = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 2), (4, 5)] {
        input.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let tel = Telemetry::enabled();
    let run = noninflationary::eval(
        &program,
        &input,
        noninflationary::ConflictPolicy::PreferPositive,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    assert_eq!(run.instance.fact_count(), 1);
    let trace = tel.snapshot().unwrap();
    // Stage 1 materializes next = {(4,5)} while the 5-fact input is
    // still live: peak = 5 + 1 = 6, above every stage-end count.
    let max_stage_end = trace
        .stages
        .iter()
        .map(|s| s.bytes) // stage-end bytes track stage-end facts
        .max()
        .unwrap_or(0);
    assert_eq!(trace.peak_facts, 6);
    assert!(
        trace.peak_facts > trace.final_facts,
        "peak {} vs final {}",
        trace.peak_facts,
        trace.final_facts
    );
    assert!(
        trace.bytes_peak > max_stage_end,
        "bytes peak {} vs max stage-end {max_stage_end}",
        trace.bytes_peak
    );
    assert!(trace.bytes_final > 0);
    assert!(trace.bytes_peak > trace.bytes_final);
}

/// Space gauges are logical (counts × fixed widths), so they are
/// byte-identical however many worker threads derived the facts.
#[test]
fn space_accounting_is_identical_at_threads_1_and_4() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let input = {
        // Seeded pseudo-random graph (same generator as the seminaive
        // unit tests): two out-edges per node.
        let g = i.get("G").unwrap();
        let n = 17i64;
        let mut inst = Instance::new();
        for k in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k * 7 + 3) % n)]));
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k * 5 + 1) % n)]));
        }
        inst
    };
    let run_with = |threads: usize| {
        let tel = Telemetry::enabled();
        let run = seminaive::minimum_model(
            &program,
            &input,
            EvalOptions::default()
                .with_telemetry(tel.clone())
                .with_threads(threads),
        )
        .unwrap();
        (run, tel.snapshot().unwrap())
    };
    let (run1, trace1) = run_with(1);
    let (run4, trace4) = run_with(4);
    assert_eq!(trace1.bytes_peak, trace4.bytes_peak);
    assert_eq!(trace1.bytes_final, trace4.bytes_final);
    assert_eq!(
        trace1.stages.iter().map(|s| s.bytes).collect::<Vec<_>>(),
        trace4.stages.iter().map(|s| s.bytes).collect::<Vec<_>>()
    );
    // The full rendered report (the `--memstats` tree) is byte-identical.
    let report1 = SpaceReport::for_instance(&run1.instance, &i);
    let report4 = SpaceReport::for_instance(&run4.instance, &i);
    report1.check_additive().unwrap();
    assert_eq!(report1.render(), report4.render());
    assert!(report1.relation_bytes() > 0);
}

/// Morsel-parallel execution must be invisible in the trace: every
/// deterministic stage field is byte-identical at threads 1 and 7.
///
/// Seven is deliberate — an odd worker count over morsels whose sizes
/// don't divide evenly, the shape that caught the PR 5 chunking bug
/// (the last short morsel was attributed to the wrong stage). Only the
/// wall clocks and the per-worker join counters (each worker keeps its
/// own index cache) may differ between runs.
#[test]
fn eval_trace_stages_are_identical_at_threads_1_and_7() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let g = i.get("G").unwrap();
    // Seeded pseudo-random multigraph with an odd edge count so no
    // morsel boundary lands evenly under 7 workers.
    let n = 23i64;
    let mut input = Instance::new();
    for k in 0..n {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k * 7 + 3) % n)]));
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k * 5 + 1) % n)]));
        if k % 3 == 0 {
            input.insert_fact(
                g,
                Tuple::from([Value::Int(k), Value::Int((k * 11 + 4) % n)]),
            );
        }
    }
    let run_with = |threads: usize| {
        let tel = Telemetry::enabled();
        let run = seminaive::minimum_model(
            &program,
            &input,
            EvalOptions::default()
                .with_telemetry(tel.clone())
                .with_threads(threads),
        )
        .unwrap();
        (run, tel.snapshot().unwrap())
    };
    let (run1, trace1) = run_with(1);
    let (run7, trace7) = run_with(7);
    assert_eq!(run1.instance, run7.instance, "derived facts must agree");
    assert_eq!(run1.stages, run7.stages);
    assert_eq!(trace1.engine, trace7.engine);
    assert_eq!(trace1.stages.len(), trace7.stages.len());
    // The deterministic projection of every stage record: everything
    // except wall clocks and worker-local join-cache counters.
    for (s1, s7) in trace1.stages.iter().zip(&trace7.stages) {
        assert_eq!(s1.stage, s7.stage);
        assert_eq!(s1.facts_added, s7.facts_added, "stage {}", s1.stage);
        assert_eq!(s1.facts_removed, s7.facts_removed, "stage {}", s1.stage);
        assert_eq!(s1.rules_fired, s7.rules_fired, "stage {}", s1.stage);
        assert_eq!(s1.delta, s7.delta, "stage {}", s1.stage);
        assert_eq!(s1.bytes, s7.bytes, "stage {}", s1.stage);
    }
    // Run-level gauges, same projection.
    assert_eq!(trace1.peak_facts, trace7.peak_facts);
    assert_eq!(trace1.final_facts, trace7.final_facts);
    assert_eq!(trace1.bytes_peak, trace7.bytes_peak);
    assert_eq!(trace1.bytes_final, trace7.bytes_final);
    assert_eq!(trace1.rules_fired, trace7.rules_fired);
    assert_eq!(trace1.plan_joins_pruned, trace7.plan_joins_pruned);
    assert_eq!(trace1.subplans_shared, trace7.subplans_shared);
}

/// Same determinism check on a stratified program with negation.
#[test]
fn space_accounting_is_thread_invariant_under_negation() {
    let mut i = Interner::new();
    let program = parse_program(
        "T(x,y) :- G(x,y).\n\
         T(x,y) :- G(x,z), T(z,y).\n\
         unreach(x,y) :- node(x), node(y), !T(x,y).",
        &mut i,
    )
    .unwrap();
    let g = i.get("G").unwrap();
    let node = i.get("node").unwrap();
    let n = 9i64;
    let mut input = Instance::new();
    for k in 0..n {
        input.insert_fact(node, Tuple::from([Value::Int(k)]));
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k * 3 + 2) % n)]));
    }
    let run_with = |threads: usize| {
        let tel = Telemetry::enabled();
        let run = unchained_core::stratified::eval(
            &program,
            &input,
            EvalOptions::default()
                .with_telemetry(tel.clone())
                .with_threads(threads),
        )
        .unwrap();
        (run, tel.snapshot().unwrap())
    };
    let (run1, trace1) = run_with(1);
    let (run4, trace4) = run_with(4);
    assert_eq!(trace1.bytes_final, trace4.bytes_final);
    assert_eq!(trace1.bytes_peak, trace4.bytes_peak);
    let report1 = SpaceReport::for_instance(&run1.instance, &i);
    let report4 = SpaceReport::for_instance(&run4.instance, &i);
    assert_eq!(report1.render(), report4.render());
}

#[test]
fn wellfounded_trace_reports_engine_and_work() {
    let mut i = Interner::new();
    let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.get("moves").unwrap();
    let mut input = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3)] {
        input.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let tel = Telemetry::enabled();
    wellfounded::eval(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let trace = tel.snapshot().unwrap();
    assert_eq!(trace.engine, "wellfounded");
    assert!(trace.stages.len() >= 2, "alternating fixpoint takes rounds");
}

#[test]
fn disabled_telemetry_yields_no_snapshot() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 4);
    let tel = Telemetry::off();
    seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    assert!(tel.snapshot().is_none());
    assert!(!tel.is_enabled());
}

/// A deliberately tiny JSON-lines structure check (no JSON crate in the
/// sanctioned dependency set): every line must be a flat-ish object
/// with balanced braces/brackets and correctly quoted strings.
fn assert_json_object_line(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced in {line}");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced in {line}");
    assert!(!in_string, "unterminated string in {line}");
}

#[test]
fn trace_json_lines_are_well_formed() {
    let mut i = Interner::new();
    let program = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 5);
    let tel = Telemetry::enabled();
    seminaive::minimum_model(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let mut trace = tel.snapshot().unwrap();
    trace.interner_symbols = i.len();
    trace
        .notes
        .push("quote \" backslash \\ newline \n done".to_string());
    let json = trace.to_json_lines(&i);
    let lines: Vec<&str> = json.lines().collect();
    // One run line plus one line per stage.
    assert_eq!(lines.len(), 1 + trace.stages.len());
    for line in &lines {
        assert_json_object_line(line);
    }
    assert!(lines[0].contains("\"type\":\"run\""));
    assert!(lines[0].contains("\"engine\":\"seminaive\""));
    assert!(lines[0].contains("\\\"")); // the quote in the note survived escaping
    for (idx, line) in lines[1..].iter().enumerate() {
        assert!(line.contains("\"type\":\"stage\""), "{line}");
        assert!(line.contains(&format!("\"stage\":{}", idx + 1)), "{line}");
    }
    // Per-predicate deltas are keyed by interned name.
    assert!(lines[1].contains("\"T\":4"), "{}", lines[1]);
}
