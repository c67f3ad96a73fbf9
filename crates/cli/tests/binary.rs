//! True end-to-end tests of the `unchained` binary (spawned as a
//! process): file I/O, exit codes, stdout/stderr wiring, and the REPL
//! over a piped stdin session.

use std::io::Write;
use std::process::{Command, Stdio};
use unchained_common::{BenchReport, Json, BENCH_SCHEMA_VERSION};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_unchained"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("unchained-bin-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn eval_tc_from_files() {
    let prog = write_temp("tc.dl", "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).\n");
    let facts = write_temp("tc_facts.dl", "G(1,2). G(2,3).\n");
    let out = bin()
        .args(["eval", "--semantics", "seminaive"])
        .arg(&prog)
        .arg(&facts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("T(1, 3)"), "{stdout}");
}

#[test]
fn missing_file_fails_with_message() {
    let out = bin()
        .args(["eval", "--semantics", "naive", "/definitely/not/here.dl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn check_prints_analysis() {
    let prog = write_temp("win.dl", "win(x) :- moves(x,y), !win(y).\n");
    let out = bin().arg("check").arg(&prog).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("not stratifiable"), "{stdout}");
}

/// A facts file whose relation has another arity than the program reads
/// it with is an error at engine entry, exit 1 with a message, under
/// every semantics and under `ivm` — never a panic in the executor.
#[test]
fn input_arity_conflict_fails_with_message_under_every_semantics() {
    let prog = write_temp("arity.dl", "T(x,y) :- G(x,y).\n");
    let while_prog = write_temp("arity.wl", "T += { x, y | G(x, y) };\n");
    let facts = write_temp("arity_facts.dl", "G(23).\n");
    let edits = write_temp("arity.edits", "poll\n");
    let semantics = [
        "naive",
        "seminaive",
        "stratified",
        "wellfounded",
        "inflationary",
        "noninflationary",
        "invention",
        "nondet",
        "effect",
        "whilelang",
    ];
    let mut runs: Vec<(String, Command)> = semantics
        .iter()
        .map(|&s| {
            let mut cmd = bin();
            cmd.args(["eval", "--semantics", s])
                .arg(if s == "whilelang" { &while_prog } else { &prog })
                .arg(&facts);
            (s.to_string(), cmd)
        })
        .collect();
    let mut ivm = bin();
    ivm.arg("ivm").arg(&prog).arg(&edits).arg(&facts);
    runs.push(("ivm".into(), ivm));
    for (name, mut cmd) in runs {
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        let expected = if name == "whilelang" {
            "arity mismatch on G: instance has 1, formula uses 2"
        } else {
            "relation G declared with arity 2 but used with arity 1"
        };
        assert!(stderr.contains(expected), "{name}: {stderr}");
        assert!(!stderr.contains("sym#"), "{name}: {stderr}");
    }
}

#[test]
fn help_exits_zero() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn bad_command_exits_nonzero() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn repl_session_over_stdin() {
    let mut child = bin()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdin = child.stdin.as_mut().unwrap();
    stdin
        .write_all(
            b"G(1,2). G(2,3).\n\
              T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).\n\
              ? T\n\
              .explain T(1,3)\n\
              .quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("T(1, 3)"), "{stdout}");
    assert!(stdout.contains("(given)"), "{stdout}");
}

#[test]
fn run_stats_prints_table_and_writes_trace_json() {
    let prog = write_temp(
        "tc_stats.dl",
        "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).\n",
    );
    let facts = write_temp("tc_stats_facts.dl", "G(1,2). G(2,3). G(3,4).\n");
    let trace = std::env::temp_dir()
        .join("unchained-bin-tests")
        .join("tc_trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = bin()
        .args(["run", "--semantics", "seminaive", "--stats", "--trace-json"])
        .arg(&trace)
        .arg(&prog)
        .arg(&facts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The answer, then the stats table with per-stage delta sizes and
    // total timing.
    assert!(stdout.contains("T(1, 4)"), "{stdout}");
    assert!(stdout.contains("engine: seminaive"), "{stdout}");
    assert!(stdout.contains("wall:"), "{stdout}");
    assert!(stdout.contains("T=3"), "{stdout}");
    // The trace file holds one valid JSON object per line: a `run`
    // header followed by one `stage` record per stage.
    let json = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<Json> = json
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad trace line {l}: {e}")))
        .collect();
    assert!(lines.len() >= 2, "{json}");
    assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("run"));
    assert_eq!(
        lines[0].get("engine").and_then(Json::as_str),
        Some("seminaive")
    );
    for line in &lines[1..] {
        assert_eq!(line.get("type").and_then(Json::as_str), Some("stage"));
        assert!(line.get("wall_nanos").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn bench_quick_smoke_writes_valid_bench_json() {
    let json_path = std::env::temp_dir()
        .join("unchained-bin-tests")
        .join("bench_smoke.json");
    std::fs::create_dir_all(json_path.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(&json_path);
    let out = bin()
        .args([
            "bench", "--quick", "--filter", "chain", "--reps", "1", "--warmup", "0", "--json",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("chain/seminaive"), "{stdout}");

    let text = std::fs::read_to_string(&json_path).unwrap();
    let doc = Json::parse(&text).expect("BENCH.json parses");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION)
    );
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    assert!(!entries.is_empty());
    for e in entries {
        assert_eq!(e.get("workload").and_then(Json::as_str), Some("chain"));
        assert!(e.get("wall").and_then(|w| w.get("median")).is_some());
    }
    // The typed parser accepts its own emission too.
    let report = BenchReport::from_json(&text).unwrap();
    assert_eq!(report.entries.len(), entries.len());
}

#[test]
fn bench_baseline_regression_exits_nonzero() {
    let dir = std::env::temp_dir().join("unchained-bin-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("bench_base.json");
    let _ = std::fs::remove_file(&json_path);
    let common = [
        "--quick",
        "--filter",
        "chain/seminaive",
        "--reps",
        "1",
        "--warmup",
        "0",
    ];
    let out = bin()
        .arg("bench")
        .args(common)
        .arg("--json")
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);

    // Self-comparison with a loose threshold passes.
    let out = bin()
        .arg("bench")
        .args(common)
        .args(["--threshold", "1000"])
        .arg("--baseline")
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);

    // An artificial slowdown fixture: doctor the baseline down to 1ns
    // medians so the fresh run reads as a massive regression.
    let mut doctored =
        BenchReport::from_json(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    for e in &mut doctored.entries {
        e.wall.min = 1;
        e.wall.median = 1;
        e.wall.p95 = 1;
        e.wall.total = 1;
    }
    let doctored_path = dir.join("bench_doctored.json");
    std::fs::write(&doctored_path, doctored.to_json()).unwrap();
    let out = bin()
        .arg("bench")
        .args(common)
        .arg("--baseline")
        .arg(&doctored_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // Bad bench usage is distinguishable from a regression.
    let out = bin().args(["bench", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out);
}
