//! Round-trip tests for the versioned BENCH.json benchmark report. It
//! is emitted by a hand-rolled writer, so these tests parse it back
//! with [`Json`] and compare field-by-field against the in-memory
//! values.

use unchained_bench::{BenchEntry, BenchReport, Gauges, WallStats, BENCH_SCHEMA_VERSION};
use unchained_common::Json;

fn u(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("field {key} missing or not a number"))
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
