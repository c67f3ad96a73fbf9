//! Round-trip tests for the two machine-readable formats: the
//! JSON-lines evaluation trace (`--trace-json`) and the versioned
//! BENCH.json benchmark report. Both are emitted by hand-rolled
//! writers, so these tests parse them back with [`Json`] and compare
//! field-by-field against the in-memory values.

use unchained_common::telemetry::{DivergenceSnapshot, EvalTrace, JoinCounters, StageRecord};
use unchained_common::{
    BenchEntry, BenchReport, Gauges, Interner, Json, WallStats, BENCH_SCHEMA_VERSION,
};

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

fn sample_report() -> BenchReport {
    let mut report = BenchReport::default();
    for (workload, engine, median) in [
        ("chain", "seminaive", 1_000u64),
        ("win", "wellfounded", 2_000),
    ] {
        report.entries.push(BenchEntry {
            workload: workload.into(),
            engine: engine.into(),
            threads: 1,
            n: 16,
            edb_facts: 0,
            reps: 3,
            wall: WallStats {
                min: median / 2,
                median,
                p95: median * 2,
                total: median * 3,
            },
            gauges: Gauges {
                stages: 4,
                facts_derived: 120,
                peak_facts: 135,
                rules_fired: 17,
                probes: 8,
                probe_tuples: 80,
                index_builds: 2,
                indexed_tuples: 20,
                index_hits: 5,
                index_appends: 3,
                appended_tuples: 12,
                index_rebuilds: 1,
                plan_joins_pruned: 3,
                interner_symbols: 2,
                bytes_peak: 8192,
                bytes_final: 4096,
                ivm_overdeleted: 5,
                ivm_rederived: 2,
            },
        });
    }
    report
}

#[test]
fn bench_report_round_trips_through_json() {
    let report = sample_report();
    let text = report.to_json();
    let parsed = BenchReport::from_json(&text).expect("emitted report parses");
    assert_eq!(parsed, report);
}

#[test]
fn bench_json_carries_the_schema_version() {
    let report = sample_report();
    let doc = Json::parse(&report.to_json()).expect("BENCH.json is one JSON document");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION)
    );
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), report.entries.len());
    let first = &entries[0];
    assert_eq!(first.get("workload").and_then(Json::as_str), Some("chain"));
    assert_eq!(
        first
            .get("wall")
            .and_then(|w| w.get("median"))
            .and_then(Json::as_u64),
        Some(1_000)
    );
    let planner = first
        .get("planner")
        .expect("v5 entries carry planner gauges");
    assert_eq!(u(planner, "joins_pruned"), 3);
}

#[test]
fn bench_report_rejects_foreign_schema_versions() {
    let report = sample_report();
    let bumped = report.to_json().replacen(
        &format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"),
        &format!("\"schema_version\":{}", BENCH_SCHEMA_VERSION + 1),
        1,
    );
    let err = BenchReport::from_json(&bumped).unwrap_err();
    assert!(err.contains("schema"), "{err}");
    assert!(BenchReport::from_json("not json at all").is_err());
    assert!(BenchReport::from_json("{\"entries\":[]}").is_err());
}
