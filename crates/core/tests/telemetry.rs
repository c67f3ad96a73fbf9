//! Integration tests for the telemetry subsystem: stage-by-stage
//! traces of the engines on the paper's worked fixpoint examples.
//!
//! The stage counts asserted here are the machine-checked form of the
//! paper's hand-worked iterations: transitive closure of an n-chain
//! saturates in n stages with strictly shrinking deltas, and the
//! Section 4.2 flip-flop program cycles with period 2.

use unchained_common::{
    Instance, Interner, SpaceReport, Span, SpanKind, Symbol, Telemetry, Tracer, Tuple, Value,
};
use unchained_core::magic::{self, QueryPattern};
use unchained_core::noninflationary::ConflictPolicy;
use unchained_core::{
    inflationary, invention, naive, noninflationary, provenance, seminaive, stable, stratified,
    wellfounded, EvalError, EvalOptions, IncrementalSession,
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

/// Every application of `Γ̂` in the alternating fixpoint is one phase
/// of at most two rounds: the from-scratch reducts `I₁` and `I₂` fire
/// the full rule once and then have no delta to fire on (win-move's only
/// positive literal is the edb `moves`); the over-estimate's delete and
/// rederive is one round; the under-estimate's growth fires the
/// negation variants over what left the over-estimate, then finds no
/// delta either.
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

/// After the two from-scratch applications, the alternating fixpoint
/// works from each application's change. On a 200-move line the game
/// resolves one position an application: 202 applications, and every
/// one of them — counted in the trace — fires a handful of matches, so
/// the whole run stays within 2,000 (computing every application from
/// scratch fires about 20,000). Each application that shrinks the
/// over-estimate (the odd ones from the third on) records its overdelete
/// closure and rederive pass as exactly one round.
#[test]
fn wellfounded_on_a_line_fires_what_each_application_changes() {
    let mut i = Interner::new();
    let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.get("moves").unwrap();
    let win = i.get("win").unwrap();
    let mut input = Instance::new();
    for k in 0..200i64 {
        input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    let tracer = Tracer::enabled();
    let tel = Telemetry::enabled().with_tracer(tracer.clone());
    let model = wellfounded::eval(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    let trace = tel.snapshot().unwrap();
    let roots = tracer.finish();
    let phases = &roots
        .iter()
        .find(|s| s.kind == SpanKind::Eval)
        .unwrap()
        .children;
    let shrinks: Vec<&Span> = phases.iter().skip(2).step_by(2).collect();
    assert_eq!(shrinks.len(), 100);
    for phase in shrinks {
        let rounds = phase.children.iter().filter(|c| c.kind == SpanKind::Round);
        assert_eq!(rounds.count(), 1, "{}", phase.name);
    }
    assert_eq!(model.rounds, 202);
    assert!(model.is_total());
    // Position 200 has no move: lost; so 199 wins, 198 loses, …
    assert_eq!(model.true_facts.relation(win).unwrap().len(), 100);
    assert!(
        trace.rules_fired <= 2_000,
        "{} matches over {} stage records",
        trace.rules_fired,
        trace.stages.len()
    );
    // Every application is in the trace: at least one record each.
    assert!(trace.stages.len() >= model.rounds);
}

/// Datalog¬¬ keeps its relations' lineage: it samples its peak from
/// counts, remembers exact states by sharing frozen segments, and
/// removes facts as tombstones. On doubling transitive closure over a
/// chain (nothing is retracted, so both rules are Δ-driven) the Δ
/// variants probe the growing `T` through full indexes, which only
/// absorb: no rebuild at any stage. The rules fire exactly the matches
/// inflationary evaluation fires. The peak is unchanged: the last stage
/// holds the fixpoint twice.
#[test]
fn noninflationary_chain_keeps_its_indexes() {
    let mut i = Interner::new();
    let program = parse_program(
        "T(x,y) :- G(x,y).
T(x,y) :- T(x,z), T(z,y).",
        &mut i,
    )
    .unwrap();
    let n = 8i64;
    let input = chain(&mut i, n);
    let tel = Telemetry::enabled();
    let options = EvalOptions::default().with_telemetry(tel.clone());
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
    let tel = Telemetry::enabled();
    inflationary::eval(
        &program,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    assert_eq!(trace.rules_fired, tel.snapshot().unwrap().rules_fired);
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

/// The round spans the stage driver recorded (those carrying the stage
/// gauges) under `span`, in completion order.
fn stage_rounds<'s>(span: &'s Span, out: &mut Vec<&'s Span>) {
    for child in &span.children {
        stage_rounds(child, out);
    }
    if span.kind == SpanKind::Round && span.gauge("rules_fired").is_some() {
        out.push(span);
    }
}

/// Every engine that records stages projects them from its round spans:
/// stage for round, each `StageRecord` field equals the round's gauge,
/// its Δ the round's absorb leaves and its join work the round's join
/// leaf, and the run's totals are the sums.
#[test]
fn projected_stages_equal_the_round_spans_gauges() {
    let mut i = Interner::new();
    let tc = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 6);
    let t = i.get("T").unwrap();
    let win = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.intern("moves");
    let mut game = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 4)] {
        game.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let ctc = parse_program(
        &format!("{TC}\nV(x) :- G(x,y).\nCT(x,y) :- V(x), V(y), !T(x,y)."),
        &mut i,
    )
    .unwrap();
    let shrink = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
    let g = i.get("G").unwrap();
    let mut cycles = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 2), (4, 5)] {
        cycles.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let objects = parse_program("EdgeObj(e, x, y) :- G(x,y).", &mut i).unwrap();
    let query = QueryPattern::new(t, vec![Some(Value::Int(2)), None]);
    let interner = i.clone();
    type Engine<'a> = Box<dyn Fn(EvalOptions) + 'a>;
    let engines: Vec<(&str, Engine)> = vec![
        (
            "naive",
            Box::new(|o| drop(naive::minimum_model(&tc, &input, o))),
        ),
        (
            "seminaive",
            Box::new(|o| drop(seminaive::minimum_model(&tc, &input, o))),
        ),
        (
            "stratified",
            Box::new(|o| drop(stratified::eval(&ctc, &input, o))),
        ),
        (
            "inflationary-traced",
            Box::new(|o| drop(inflationary::eval_traced(&tc, &input, o))),
        ),
        (
            "noninflationary",
            Box::new(|o| {
                drop(noninflationary::eval(
                    &shrink,
                    &cycles,
                    ConflictPolicy::PreferPositive,
                    o,
                ))
            }),
        ),
        (
            "wellfounded",
            Box::new(|o| drop(wellfounded::eval(&win, &game, o))),
        ),
        (
            "invention",
            Box::new(|o| drop(invention::eval(&objects, &input, o))),
        ),
        (
            "magic",
            Box::new(|o| drop(magic::answer(&tc, &query, &input, &mut interner.clone(), o))),
        ),
        (
            "provenance",
            Box::new(|o| drop(provenance::minimum_model_with_provenance(&tc, &input, o))),
        ),
        (
            "stable",
            Box::new(|o| {
                let model = wellfounded::eval(&win, &game, EvalOptions::default()).unwrap();
                drop(stable::is_stable_model(&win, &game, &model.true_facts, o));
            }),
        ),
        (
            "ivm",
            Box::new(|o| {
                let mut session = IncrementalSession::new(tc.clone(), &input, o).unwrap();
                session
                    .retract(g, Tuple::from([Value::Int(3), Value::Int(4)]))
                    .unwrap();
                session.poll().unwrap();
            }),
        ),
    ];
    for (engine, run) in engines {
        let tracer = Tracer::enabled();
        let tel = Telemetry::off().with_tracer(tracer.clone());
        run(EvalOptions::default().with_telemetry(tel.clone()));
        let trace = tel.snapshot().unwrap();
        let roots = tracer.finish();
        let mut rounds = Vec::new();
        for root in &roots {
            stage_rounds(root, &mut rounds);
        }
        assert_eq!(trace.engine, engine);
        assert!(!rounds.is_empty(), "{engine}");
        assert_eq!(trace.stages.len(), rounds.len(), "{engine}");
        for (stage, round) in trace.stages.iter().zip(&rounds) {
            let gauge = |key| round.gauge(key).unwrap();
            assert_eq!(stage.facts_added as u64, gauge("facts_added"), "{engine}");
            assert_eq!(
                stage.facts_removed as u64,
                gauge("facts_removed"),
                "{engine}"
            );
            assert_eq!(stage.rules_fired, gauge("rules_fired"), "{engine}");
            assert_eq!(stage.bytes, gauge("bytes"), "{engine}");
            assert_eq!(stage.wall_nanos, round.dur_nanos, "{engine}");
            let leaves = |kind| {
                round
                    .children
                    .iter()
                    .filter(move |c: &&Span| c.kind == kind)
            };
            let delta: Vec<(Symbol, usize)> = leaves(SpanKind::Absorb)
                .map(|c| (c.pred.unwrap(), c.gauge("facts_added").unwrap() as usize))
                .collect();
            assert_eq!(stage.delta, delta, "{engine}");
            let join = leaves(SpanKind::Join).next().expect("a join leaf");
            for (key, value) in stage.joins.gauges() {
                assert_eq!(join.gauge(key), Some(value), "{engine} {key}");
            }
        }
        let sum = |key| rounds.iter().map(|r| r.gauge(key).unwrap()).sum::<u64>();
        assert_eq!(trace.rules_fired, sum("rules_fired"), "{engine}");
        assert_eq!(
            trace.total_facts_added() as u64,
            sum("facts_added"),
            "{engine}"
        );
        assert_eq!(
            trace.plan_joins_pruned,
            sum("plan_joins_pruned"),
            "{engine}"
        );
        let wall: u64 = roots.iter().map(|r| r.dur_nanos).sum();
        assert_eq!(trace.total_wall_nanos, wall, "{engine}");
    }
}

/// Three handles on one tracer, each running another engine inside a
/// caller's span: each snapshot holds its own run alone — the trace a
/// handle of its own records — and the tracer holds the three eval spans
/// once each.
#[test]
fn handles_sharing_a_tracer_each_project_their_own_run() {
    let mut i = Interner::new();
    let tc = parse_program(TC, &mut i).unwrap();
    let input = chain(&mut i, 6);
    let win = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
    let moves = i.intern("moves");
    let mut game = Instance::new();
    for (a, b) in [(1, 2), (2, 1), (2, 3)] {
        game.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    let run = |engine: usize, tel: &Telemetry| {
        // One thread: join counters of parallel runs vary with the schedule.
        let o = EvalOptions::default()
            .with_telemetry(tel.clone())
            .with_threads(1);
        match engine {
            0 => drop(seminaive::minimum_model(&tc, &input, o).unwrap()),
            1 => drop(wellfounded::eval(&win, &game, o).unwrap()),
            _ => {
                drop(noninflationary::eval(&tc, &input, ConflictPolicy::PreferPositive, o).unwrap())
            }
        }
    };
    let tracer = Tracer::enabled();
    let handles: [Telemetry; 3] =
        std::array::from_fn(|_| Telemetry::enabled().with_tracer(tracer.clone()));
    {
        let _op = tracer.span(SpanKind::Phase, "traced op");
        for (engine, tel) in handles.iter().enumerate() {
            run(engine, tel);
        }
    }
    let roots = tracer.finish();
    let mut evals = Vec::new();
    fn collect<'s>(span: &'s Span, out: &mut Vec<&'s Span>) {
        if span.kind == SpanKind::Eval {
            out.push(span);
        }
        span.children.iter().for_each(|c| collect(c, out));
    }
    roots.iter().for_each(|r| collect(r, &mut evals));
    let names: Vec<&str> = evals.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["seminaive", "wellfounded", "noninflationary"]);
    for (engine, (tel, eval)) in handles.iter().zip(&evals).enumerate() {
        let shared = tel.snapshot().unwrap();
        assert_eq!(shared.engine, eval.name);
        assert_eq!(shared.total_wall_nanos, eval.dur_nanos);
        let alone = Telemetry::enabled();
        run(engine, &alone);
        let alone = alone.snapshot().unwrap();
        let work = |t: &unchained_common::EvalTrace| {
            let stages: Vec<_> = t
                .stages
                .iter()
                .map(|s| (s.facts_added, s.rules_fired, s.bytes))
                .collect();
            (
                stages,
                t.rules_fired,
                t.joins,
                t.peak_facts,
                t.final_facts,
                t.bytes_peak,
                t.notes.len(),
            )
        };
        assert_eq!(work(&shared), work(&alone), "{}", eval.name);
    }
}
