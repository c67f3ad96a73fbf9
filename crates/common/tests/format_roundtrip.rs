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
        detector: "fingerprint".into(),
        states_seen: 5,
        diverged_stage: Some(4),
        period: Some(2),
    });
    trace.ivm_overdeleted = 13;
    trace.ivm_rederived = 9;
    trace.invented = 6;
    trace.loop_iterations = 0;
    trace.interner_symbols = interner.len();
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
    assert_eq!(
        div.get("detector").and_then(Json::as_str),
        Some(snap.detector.as_str())
    );
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

#[test]
fn trace_parses_back_via_from_json_lines() {
    let mut interner = Interner::new();
    let trace = sample_trace(&mut interner);
    let text = trace.to_json_lines(&interner);
    // Emitter → parser: the structures compare equal…
    let parsed = EvalTrace::from_json_lines(&text, &mut interner).unwrap();
    assert_eq!(parsed, trace);
    // …and re-emission is byte-identical, so any schema drift between
    // the writer and the reader breaks this test.
    assert_eq!(parsed.to_json_lines(&interner), text);
    // Malformed inputs are rejected with messages, not panics.
    assert!(EvalTrace::from_json_lines("", &mut interner).is_err());
    assert!(EvalTrace::from_json_lines("{\"type\":\"stage\"}", &mut interner).is_err());
    assert!(EvalTrace::from_json_lines("not json", &mut interner).is_err());
}
