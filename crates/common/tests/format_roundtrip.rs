//! Round-trip tests for the JSON-lines evaluation trace
//! (`--trace-json`). It is emitted by a hand-rolled writer, so these
//! tests parse it back with [`Json`] and compare field-by-field against
//! the in-memory values. The BENCH.json report's round trip is tested
//! in `crates/bench/tests/format_roundtrip.rs`.

use unchained_common::telemetry::{DivergenceSnapshot, EvalTrace, JoinCounters, StageRecord};
use unchained_common::{Interner, Json};

/// A representative trace touching every serialized field, including
/// characters that need JSON escaping.
fn sample_trace(interner: &mut Interner) -> EvalTrace {
    let t = interner.intern("T");
    let weird = interner.intern("edge \"quoted\"\n");
    let mut trace = EvalTrace {
        engine: "noninflationary".into(),
        ..Default::default()
    };
    trace.total_wall_nanos = 123_456;
    trace.peak_facts = 42;
    trace.final_facts = 40;
    trace.bytes_peak = 2048;
    trace.bytes_final = 1920;
    trace.rules_fired = 99;
    trace.joins = JoinCounters {
        probes: 7,
        probe_tuples: 70,
        index_builds: 3,
        indexed_tuples: 30,
        index_hits: 11,
        index_appends: 2,
        appended_tuples: 8,
        index_rebuilds: 1,
    };
    trace.divergence = Some(DivergenceSnapshot {
        states_seen: 5,
        diverged_stage: Some(4),
        period: Some(2),
    });
    trace.plan_joins_pruned = 4;
    trace.ivm_overdeleted = 13;
    trace.ivm_rederived = 9;
    trace.invented = 6;
    trace.loop_iterations = 0;
    trace.interner_symbols = interner.len();
    trace.threads = 3;
    trace.choice_points = vec![1, 3];
    trace.notes = vec!["magic rewrite: 4 rules".into(), "tab\there".into()];
    trace.stages.push(StageRecord {
        stage: 1,
        wall_nanos: 1000,
        facts_added: 2,
        facts_removed: 1,
        rules_fired: 10,
        bytes: 1024,
        delta: vec![(t, 2), (weird, 1)],
        joins: JoinCounters {
            probes: 4,
            probe_tuples: 40,
            index_builds: 2,
            indexed_tuples: 20,
            index_hits: 3,
            index_appends: 1,
            appended_tuples: 4,
            index_rebuilds: 0,
        },
    });
    trace.stages.push(StageRecord {
        stage: 2,
        wall_nanos: 500,
        facts_added: 0,
        facts_removed: 0,
        rules_fired: 5,
        bytes: 1920,
        delta: vec![],
        joins: JoinCounters::default(),
    });
    trace
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("field {key} missing or not a number"))
}

#[test]
fn trace_json_lines_round_trip() {
    let mut interner = Interner::new();
    let trace = sample_trace(&mut interner);
    let text = trace.to_json_lines(&interner);

    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("every trace line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), 1 + trace.stages.len());

    let run = &lines[0];
    assert_eq!(run.get("type").and_then(Json::as_str), Some("run"));
    assert_eq!(
        run.get("engine").and_then(Json::as_str),
        Some(trace.engine.as_str())
    );
    assert_eq!(u(run, "stages"), trace.stages.len() as u64);
    assert_eq!(u(run, "total_wall_nanos"), trace.total_wall_nanos);
    assert_eq!(u(run, "peak_facts"), trace.peak_facts as u64);
    assert_eq!(u(run, "final_facts"), trace.final_facts as u64);
    assert_eq!(u(run, "bytes_peak"), trace.bytes_peak);
    assert_eq!(u(run, "bytes_final"), trace.bytes_final);
    assert_eq!(u(run, "rules_fired"), trace.rules_fired);
    assert_eq!(u(run, "ivm_overdeleted"), trace.ivm_overdeleted);
    assert_eq!(u(run, "ivm_rederived"), trace.ivm_rederived);
    assert_eq!(u(run, "invented"), trace.invented as u64);
    assert_eq!(u(run, "loop_iterations"), trace.loop_iterations as u64);
    assert_eq!(u(run, "interner_symbols"), trace.interner_symbols as u64);

    let joins = run.get("joins").expect("run has joins");
    assert_eq!(u(joins, "probes"), trace.joins.probes);
    assert_eq!(u(joins, "probe_tuples"), trace.joins.probe_tuples);
    assert_eq!(u(joins, "index_builds"), trace.joins.index_builds);
    assert_eq!(u(joins, "indexed_tuples"), trace.joins.indexed_tuples);
    assert_eq!(u(joins, "index_hits"), trace.joins.index_hits);
    assert_eq!(u(joins, "index_appends"), trace.joins.index_appends);
    assert_eq!(u(joins, "appended_tuples"), trace.joins.appended_tuples);
    assert_eq!(u(joins, "index_rebuilds"), trace.joins.index_rebuilds);

    let div = run.get("divergence").expect("run has divergence");
    let snap = trace.divergence.as_ref().unwrap();
    assert_eq!(div.get("detector").and_then(Json::as_str), Some("exact"));
    assert_eq!(u(div, "states_seen"), snap.states_seen as u64);
    assert_eq!(
        div.get("diverged_stage").and_then(Json::as_usize),
        snap.diverged_stage
    );
    assert_eq!(div.get("period").and_then(Json::as_usize), snap.period);

    let choice: Vec<u64> = run
        .get("choice_points")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(choice, vec![1, 3]);
    let notes: Vec<&str> = run
        .get("notes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(notes, vec!["magic rewrite: 4 rules", "tab\there"]);

    for (line, rec) in lines[1..].iter().zip(&trace.stages) {
        assert_eq!(line.get("type").and_then(Json::as_str), Some("stage"));
        assert_eq!(u(line, "stage"), rec.stage as u64);
        assert_eq!(u(line, "wall_nanos"), rec.wall_nanos);
        assert_eq!(u(line, "facts_added"), rec.facts_added as u64);
        assert_eq!(u(line, "facts_removed"), rec.facts_removed as u64);
        assert_eq!(u(line, "rules_fired"), rec.rules_fired);
        assert_eq!(u(line, "bytes"), rec.bytes);
        let delta = line.get("delta").expect("stage has delta");
        for (pred, n) in &rec.delta {
            // The escaped predicate name parses back to the interned one.
            assert_eq!(
                delta.get(interner.name(*pred)).and_then(Json::as_usize),
                Some(*n)
            );
        }
        let joins = line.get("joins").expect("stage has joins");
        assert_eq!(u(joins, "probes"), rec.joins.probes);
    }
}

/// The keys of a JSON object.
fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(members) => members.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn assert_joins(v: &Json, want: &JoinCounters) {
    let mut names = Vec::new();
    for (key, value) in want.gauges() {
        assert_eq!(u(v, key), value, "joins.{key}");
        names.push(key);
    }
    names.sort_unstable();
    assert_eq!(keys(v), names);
}

/// The writer's schema, field for field: every line carries exactly the
/// fields the trace has, each with the trace's value, so a field added
/// to the trace but not to the writer (or written but not declared here)
/// breaks this test.
#[test]
fn trace_json_lines_carry_every_field() {
    let mut interner = Interner::new();
    let trace = sample_trace(&mut interner);
    let text = trace.to_json_lines(&interner);
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

    let run = &lines[0];
    let mut want = vec![
        "type",
        "engine",
        "stages",
        "total_wall_nanos",
        "peak_facts",
        "final_facts",
        "bytes_peak",
        "bytes_final",
        "rules_fired",
        "plan_joins_pruned",
        "ivm_overdeleted",
        "ivm_rederived",
        "joins",
        "divergence",
        "invented",
        "loop_iterations",
        "interner_symbols",
        "threads",
        "choice_points",
        "notes",
    ];
    want.sort_unstable();
    assert_eq!(keys(run), want);
    assert_eq!(u(run, "plan_joins_pruned"), trace.plan_joins_pruned);
    assert_eq!(u(run, "threads"), trace.threads as u64);
    assert_joins(run.get("joins").unwrap(), &trace.joins);
    let div = run.get("divergence").unwrap();
    assert_eq!(
        keys(div),
        vec!["detector", "diverged_stage", "period", "states_seen"]
    );
    // A run without a divergence snapshot writes `null`, and a snapshot
    // without a cycle writes null stage and period.
    let mut quiet = trace.clone();
    quiet.divergence = None;
    let quiet_run = Json::parse(quiet.to_json_lines(&interner).lines().next().unwrap()).unwrap();
    assert_eq!(quiet_run.get("divergence"), Some(&Json::Null));
    quiet.divergence = Some(DivergenceSnapshot {
        states_seen: 3,
        ..DivergenceSnapshot::default()
    });
    let quiet_run = Json::parse(quiet.to_json_lines(&interner).lines().next().unwrap()).unwrap();
    let div = quiet_run.get("divergence").unwrap();
    assert_eq!(div.get("diverged_stage"), Some(&Json::Null));
    assert_eq!(div.get("period"), Some(&Json::Null));

    for (line, rec) in lines[1..].iter().zip(&trace.stages) {
        assert_eq!(
            keys(line),
            vec![
                "bytes",
                "delta",
                "facts_added",
                "facts_removed",
                "joins",
                "rules_fired",
                "stage",
                "type",
                "wall_nanos"
            ]
        );
        assert_eq!(keys(line.get("delta").unwrap()).len(), rec.delta.len());
        assert_joins(line.get("joins").unwrap(), &rec.joins);
    }
}
