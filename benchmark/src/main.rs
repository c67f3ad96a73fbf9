//! # The unchained benchmark
//!
//! One command measures one workload end to end, checks every answer
//! against a reference that shares no engine code, and prints each
//! metric as `workload metric value unit n=<samples>`, followed by one
//! JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload reach [--seed 1] [--seconds 25] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! The run exits 0 only if every attempted operation succeeded with the
//! right answer. It drives the program only through public functions of
//! `unchained-parser`, `unchained-common` and `unchained-core`, and
//! sets the worker-thread count of every call itself, so
//! `UNCHAINED_THREADS` cannot change a workload.
//!
//! ## Workloads
//!
//! Each input's shape is drawn once by a splitmix64 stream in this
//! package; `--seed` renames its values and shuffles its facts, so every
//! seed poses the same problem and the spread between seeds is the
//! machine's. Inputs are rendered to `.facts` text and loaded with
//! `parse_facts`. Each workload is one client in a closed loop at one
//! thread: the next operation starts when the previous one returns,
//! after one untimed warm-up.
//!
//! | name | input | one operation |
//! |---|---|---|
//! | `reach` | `R(x) :- S(x). R(y) :- R(x), G(x,y).`; 65,000 nodes of out-degree 4 and 16 sources (260,016 facts) | `seminaive::minimum_model` + `answer` |
//! | `pointsto` | Andersen points-to (4 rules) over 80,000 variables: `AddrOf` 80k, `Assign` 20k, `Load` 5k, `Store` 5k (110,000 facts) | `seminaive::minimum_model` + `answer` |
//! | `nonmono` | win-move on a 10,000-position game, 25 layers of 400 with 0–3 moves per position; transitive closure of a 288-node digraph, 16 layers of 18 with out-degree 2 | `wellfounded::eval`(win) + `inflationary::eval`(TC) + `noninflationary::eval`(TC, `PreferPositive`) |
//! | `ivm` | the points-to program over 40,000 variables (55,000 facts) | one `poll` of an `IncrementalSession` after a batch retracting 5 present `Assign` facts and inserting 5 fresh ones |
//!
//! Why these four:
//!
//! - `reach` has one two-way join and about 15 rounds, so its time goes
//!   to loading, cloning and indexing its input. Storage changes show
//!   here; planner and executor changes should not.
//! - `pointsto` has three-way joins through a growing relation and
//!   replans every round. Planner, executor and index-append changes
//!   show here. Its traced run adds one operation at two threads for
//!   the parallel driver's layer metrics; timed operations stay at one
//!   thread, because on a two-core machine two workers share the cores
//!   with every other runnable process.
//! - `nonmono` runs the paper's non-monotone semantics on inputs that
//!   fit in cache. It is the only workload that runs the
//!   alternating-fixpoint, inflationary and Datalog¬¬ drivers. Its
//!   inputs are layered so that the depth, not chance, sets the round
//!   and stage counts (26 and 16).
//! - `ivm` puts writes beside reads: inserts, DRed overdelete and
//!   rederive through the same storage, index and executor layers as
//!   `pointsto`. A batch-path gain that slows the write path shows here.
//!
//! Answers are compared through an order-independent 64-bit digest
//! against breadth-first search (`reach`), a worklist Andersen solver
//! (`pointsto`, `ivm`), retrograde game analysis (win-move: won and
//! won-or-drawn positions) and per-source search (transitive closure).
//! `ivm` is checked every 60 timed polls and after the last one, both
//! through `session.answer()` and through `stratified::eval` of
//! `session.edb()`, against the solver run on the benchmark's own copy
//! of the edited input.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Lower is better for each. The bound is the share of the parent
//! commit's median by which a change may worsen the metric. The spread
//! is the distance between the quartiles of ten 25-second runs as a
//! share of their median, the largest over the four workloads, in two
//! sets (seeds 1 to 10, then 11 to 20) on a shared 2-vCPU virtual
//! machine; the medians of the two sets differed by at most the last
//! column.
//!
//! | metric | unit | definition | bound | spread | sets apart |
//! |---|---|---|---|---|---|
//! | `setup_s` | s | median set-up: `parse_program` + `parse_facts` + `Instance::commit_all` (+ `IncrementalSession::new` on `ivm`), repeated at least 5 times and for at least 2 s | 25% | 6–21% | 7.5% |
//! | `op_vs_reference` | ratio | median over the timed operations (polls on `ivm`) of each one's wall time, with telemetry off, ÷ the wall time of the reference solve run right before it on the same input | 15% | 1.0–4.5% | 1.3% |
//! | `peak_rss_mib` | MiB | `VmHWM` of the process, which runs one workload, after the set-ups and the warm-up operation (the warm-up polls on `ivm`) | 10% | 0.1–0.6% | 0.3% |
//!
//! `op_vs_reference` is an operation's time measured in units of the
//! reference solve, because wall time alone does not repeat on this
//! machine: neighbours slow its memory and cores by up to 2× for minutes
//! at a time, and the median operation time (`bench.op_ms_p50`, a layer
//! metric) spread 14–44% between seeded runs of 10 to 20 seconds. The reference solvers are the benchmark's own answer
//! checkers, which keep their state in hash maps as the engines do, so a
//! slowdown stretches both sides and a change to the program moves only
//! the numerator: an operation 10% slower reads 10% higher. Over four
//! sweeps in 90 minutes of changing load, each workload's median ratio
//! stayed within 3%. `setup_s` has no such yardstick, so its bound is
//! the widest allowed and its spread is the host's.
//! `peak_rss_mib` is read after the warm-up because later operations at
//! two threads (`pointsto`'s traced run) add allocator fragmentation
//! that spread 19–22% from run to run.
//!
//! Correctness is reported beside the metrics: the result line's
//! `attempted` and `failed` count operations (polls on `ivm`) and those
//! that returned `Err`, panicked or answered wrongly, and any failure
//! makes the run exit 1.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Counts come from one extra operation run under telemetry and the
//! span tracer (ten polls on `ivm`); times come from timing public
//! calls from outside. A metric of a layer the workload does not run
//! reads 0 with `n=0`. The last column names the end-to-end metric and
//! the workload each should move.
//!
//! | metric | unit | definition | moves |
//! |---|---|---|---|
//! | `bench.op_ms_p50` | ms | median wall time of the timed operations, with telemetry off | `op_vs_reference` everywhere, as its numerator |
//! | `bench.reference_ms_p50` | ms | median wall time of the reference solves | none: the program cannot change it, only the host's speed |
//! | `parser.parse_facts_s` | s | `parse_facts` time, median of the set-ups | `setup_s` on `reach`; barely on `nonmono` |
//! | `instance.commit_s` | s | `Instance::commit_all` time, median of the set-ups | `setup_s` on `reach`, `pointsto` |
//! | `instance.clone_s` | s | `Instance::clone` of the loaded input, every engine's first step (median of 3) | `op_vs_reference` on `reach` |
//! | `instance.answer_s` | s | `FixpointRun::answer` (answer projections on `nonmono`, `session.answer()` on `ivm`), median | `op_vs_reference` on `reach`, `pointsto` |
//! | `space.bytes_peak` | bytes | peak logical bytes of the traced operation | `peak_rss_mib` on `reach` |
//! | `space.bytes_final` | bytes | logical bytes of the result instance | `peak_rss_mib` on `reach` |
//! | `space.rss_per_logical` | ratio | peak RSS bytes ÷ `space.bytes_peak` | `peak_rss_mib` on `reach` |
//! | `planner.plan_s` | s | one cost-mode pass of `Planner::new(Catalog::from_instance(edb))` + `plan_rule` and `seminaive_variants` over every rule (median of 101) | `op_vs_reference` on `pointsto` |
//! | `planner.joins_pruned` | count | that pass's scans narrowed to index probes | `op_vs_reference` on `pointsto` |
//! | `planner.subplans_shared` | count | that pass's shared subplan nodes | `op_vs_reference` on `pointsto` |
//! | `exec.rules_fired` | count | rule-body matches per operation | `op_vs_reference` on `pointsto` |
//! | `exec.probes` | count | index probes per operation | `op_vs_reference` on `pointsto` |
//! | `exec.probe_tuples` | count | tuples returned by those probes | `op_vs_reference` on `pointsto` |
//! | `exec.facts_per_firing` | ratio | facts derived ÷ rules fired | `op_vs_reference` on `pointsto` |
//! | `index.builds` | count | indexes built from scratch per operation | `op_vs_reference` on `nonmono`, `pointsto` |
//! | `index.rebuilds` | count | stale indexes rebuilt per operation | `op_vs_reference` on `nonmono`, `pointsto` |
//! | `index.indexed_tuples` | count | tuples scanned building indexes | `op_vs_reference` on `nonmono`, `pointsto` |
//! | `index.appended_tuples` | count | tuples absorbed into existing indexes | `op_vs_reference` on `nonmono`, `pointsto` |
//! | `index.hit_ratio` | ratio | hits ÷ (hits + builds + rebuilds) | `op_vs_reference` on `nonmono`, `pointsto` |
//! | `parallel.worker_busy_frac` | ratio | worker-lane span time ÷ (2 × round span time) in the two-thread traced operation | — (timed operations run at one thread) |
//! | `parallel.index_replication` | ratio | `indexed_tuples` at 2 threads ÷ at 1 thread | — (timed operations run at one thread) |
//! | `seminaive.stages` | count | semi-naive rounds | `op_vs_reference` on `reach`, `pointsto` |
//! | `wellfounded.eval_s` | s | `wellfounded::eval` time, median | `op_vs_reference` on `nonmono` |
//! | `wellfounded.rounds` | count | alternating-fixpoint rounds | `op_vs_reference` on `nonmono` |
//! | `inflationary.eval_s` | s | `inflationary::eval` time, median | `op_vs_reference` on `nonmono` |
//! | `inflationary.stages` | count | inflationary stages | `op_vs_reference` on `nonmono` |
//! | `noninflationary.eval_s` | s | `noninflationary::eval` time, median | `op_vs_reference` on `nonmono` |
//! | `noninflationary.stages` | count | Datalog¬¬ stages | `op_vs_reference` on `nonmono` |
//! | `ivm.poll_ms_p90` | ms | 90th percentile of the timed polls | `op_vs_reference` on `ivm` |
//! | `ivm.overdeleted_per_poll` | count | DRed overdeleted tuples per poll (`PollStats`) | `op_vs_reference` on `ivm` |
//! | `ivm.rederive_ratio` | ratio | rederived ÷ overdeleted | `op_vs_reference` on `ivm` |
//! | `ivm.snapshot_s` | s | clone of `session.instance()` and `session.edb()`, which `poll` copies (median of 3) | `op_vs_reference` on `ivm` |
//! | `ivm.scratch_eval_s` | s | `stratified::eval` of the session's input at the checks, median | `ivm.poll_vs_scratch` |
//! | `ivm.poll_vs_scratch` | ratio | `bench.op_ms_p50` ÷ `ivm.scratch_eval_s` in ms | `op_vs_reference` on `ivm` |
//! | `telemetry.overhead_frac` | ratio | traced operation time ÷ `bench.op_ms_p50` − 1 | `op_vs_reference` everywhere |
//! | `trace.rule_frac` | ratio | rule-span time ÷ the traced operation's time: the share the program's spans attribute to a rule | — |
//!
//! On `ivm` the `exec.*` and `index.*` counts are per poll and come from
//! `PollStats`. The traced polls run on a twin session fed the batches of
//! the timed session's warm-up, so every count depends on the seed alone.
//! `ivm.poll_ms_p90` is a layer metric because it is a wall time, which
//! the host's slowdowns move (see `op_vs_reference`), and the other
//! workloads time too few operations a run for a tail percentile.
//!
//! ## Traces
//!
//! With `--trace 1 --trace-out FILE` the run writes one Chrome
//! trace-event JSON file. The benchmark's own spans (`bench …`, around
//! each public call it makes) and the program's span tree share one
//! timeline. Open it at <https://ui.perfetto.dev> ("Open trace file")
//! or in `chrome://tracing`.

mod gen;
mod reference;
mod report;
mod workloads;

use workloads::Config;

const USAGE: &str = "\
usage: benchmark --workload reach|pointsto|nonmono|ivm [--seed N] [--seconds S]
                 [--trace 0|1] [--trace-out FILE]";

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["reach", "pointsto", "nonmono", "ivm"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        trace_out: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => out.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", out.workload));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let report = match args.workload.as_str() {
        "reach" => workloads::reach(workloads::REACH, &cfg),
        "pointsto" => workloads::pointsto(workloads::POINTSTO, &cfg),
        "nonmono" => workloads::nonmono(workloads::NONMONO, &cfg),
        _ => workloads::ivm(workloads::IVM, &cfg),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let (Some(path), Some(trace)) = (&args.trace_out, &report.chrome_trace) {
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    print!("{}", report.lines(args.trace));
    println!("{}", report.json(args.trace));
    std::process::exit(report.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload ivm --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ivm".into(),
                seed: 7,
                seconds: 20.0,
                trace: true,
                trace_out: None,
            }
        );
        assert_eq!(parse("--workload reach").unwrap().seed, 1);
        for bad in [
            "",
            "--workload nope",
            "--workload reach --trace 2",
            "--workload reach --seed",
            "--workload reach --seconds -1",
            "--workload reach --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
