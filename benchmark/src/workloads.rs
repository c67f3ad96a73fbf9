//! The four workloads: set-up, the closed timed loop, answer checks,
//! and the traced operation that yields the per-layer metrics.
//!
//! Every workload follows the same shape. It generates its input from
//! the seed and computes the reference answer first. It then sets up
//! [`SETUP_REPS`] times: `parse_program`, `parse_facts` of the rendered
//! text, and `Instance::commit_all` (plus `IncrementalSession::new` for
//! `ivm`). One untimed warm-up follows, then the timed operations, one
//! client in a closed loop, for at least `--seconds` and at least a
//! minimum count. Right before each operation the workload times its
//! engine-free reference solver on the same input, the yardstick of
//! `op_vs_reference`. Each answer is checked outside the timed region. With
//! `--trace 1` the workload also runs one operation (ten polls for
//! `ivm`) under telemetry and the span tracer, and times the layer
//! calls the per-layer metrics name.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use unchained_common::{
    to_chrome_json, EvalTrace, HeapSize, Instance, Interner, JoinCounters, Span, SpanKind, Symbol,
    Telemetry, Tracer, Tuple, Value,
};
use unchained_core::noninflationary::ConflictPolicy;
use unchained_core::planner::{Catalog, Planner};
use unchained_core::wellfounded::WellFoundedModel;
use unchained_core::{
    inflationary, noninflationary, seminaive, stratified, wellfounded, EvalOptions, FixpointRun,
    IncrementalSession, PlanMode,
};
use unchained_parser::{parse_facts, parse_program, Program};

use crate::gen::{self, mix64, NonmonoSize, PointsToSize, ReachSize, SplitMix64};
use crate::reference::{self, Digest};
use crate::report::{peak_rss_bytes, quantile, ratio, Report};

// The sizes keep one operation between 0.1 and 0.4 s, so a run times
// about a hundred of them, and keep set-up near a second or less.

/// Full size of `reach`: 260,016 EDB facts.
pub const REACH: ReachSize = ReachSize {
    nodes: 65_000,
    degree: 4,
    sources: 16,
};
/// Full size of `pointsto`: 110,000 EDB facts.
pub const POINTSTO: PointsToSize = PointsToSize { vars: 80_000 };
/// Full size of `nonmono`.
pub const NONMONO: NonmonoSize = NonmonoSize {
    game_layers: 25,
    game_width: 400,
    tc_layers: 16,
    tc_width: 18,
};
/// Full size of `ivm`: 55,000 EDB facts.
pub const IVM: PointsToSize = PointsToSize { vars: 40_000 };

/// Least set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Least time the set-ups of a run take together. Five `nonmono`
/// set-ups take under 0.1 s, a stretch that one burst of a neighbour's
/// load can cover whole.
const SETUP_SECONDS: f64 = 2.0;
/// Least number of timed operations of the evaluation workloads.
const MIN_OPS: usize = 3;
/// Least number of timed polls of `ivm`.
const MIN_POLLS: usize = 30;
/// Untimed polls before `ivm` starts timing.
const WARMUP_POLLS: usize = 10;
/// Polls of the traced `ivm` operation.
const TRACED_POLLS: usize = 10;
/// `ivm` retracts this many `Assign` facts per batch and inserts as many.
const BATCH_EDITS: usize = 5;
/// `ivm` checks its answer every this many timed polls, and at the end.
const CHECK_EVERY: usize = 60;
/// Least time of the reference solves timed before each operation.
/// `nonmono`'s solvers take about 10 ms, too short a stretch of the
/// machine's speed to stand for the operation after it.
const MIN_REFERENCE_MS: f64 = 50.0;
/// Clones timed for `instance.clone_s` and `ivm.snapshot_s`.
const CLONE_REPS: usize = 3;
/// Planner passes timed for `planner.plan_s`.
const PLAN_REPS: usize = 101;
/// The name of the benchmark span around each traced operation.
const TRACED_OP: &str = "bench traced op";
/// Worker threads of the extra traced `pointsto` operation behind the
/// `parallel.*` metrics. Timed operations run at one thread: on a
/// two-core machine, two workers share the cores with every other
/// runnable process, and the time would measure the scheduler too.
const PARALLEL_THREADS: usize = 2;
/// The name of the benchmark span around that operation.
const PARALLEL_OP: &str = "bench traced op, 2 threads";

/// How a run is driven.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Least time the timed loop runs, in seconds.
    pub seconds: f64,
    /// Also run the traced operation and report the per-layer metrics.
    pub trace: bool,
}

impl Config {
    /// The benchmark's span recorder: enabled only for traced runs.
    fn tracer(&self) -> Tracer {
        if self.trace {
            Tracer::enabled()
        } else {
            Tracer::off()
        }
    }
}

/// Runs `f` inside a benchmark span called `name`, returning its result
/// and wall time in seconds.
fn timed<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(SpanKind::Phase, name);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f`, turning a panic into an error.
fn attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Compares answer digests with the reference's.
fn compare(got: &[Digest], want: &[Digest]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "answers differ from the reference: got {got:?}, want {want:?}"
        ))
    }
}

/// The closed loop's stopping rule: at least `min` operations and at
/// least `seconds` of wall time.
struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Budget {
    fn new(seconds: f64, min: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Wall times of the successful timed operations, each paired with the
/// time of the reference solve run right before it (see
/// [`reference_ms`]).
///
/// The pair is what makes the end-to-end time repeatable on a shared
/// host: neighbours slow this machine's memory and cores by up to 2×
/// for minutes at a time, which spread the median wall time of ten
/// seeded runs by 14–44% (quartile distance over median), while the
/// ratio of each operation to its reference solve spread 1–5%. The
/// reference is the benchmark's own code, so a change to the program
/// moves only the numerator.
#[derive(Default)]
struct Timing {
    op_ms: Vec<f64>,
    reference_ms: Vec<f64>,
}

impl Timing {
    fn push(&mut self, op_ms: f64, reference_ms: f64) {
        self.op_ms.push(op_ms);
        self.reference_ms.push(reference_ms);
    }

    /// Records `op_vs_reference`, the median of the per-operation
    /// ratios, and both wall-time medians.
    fn record(&self, rep: &mut Report) {
        let ratios: Vec<f64> = self
            .op_ms
            .iter()
            .zip(&self.reference_ms)
            .map(|(op, reference)| ratio(*op, *reference))
            .collect();
        rep.median("op_vs_reference", &ratios);
        rep.median("bench.op_ms_p50", &self.op_ms);
        rep.median("bench.reference_ms_p50", &self.reference_ms);
    }
}

/// Mean wall time in milliseconds of runs of the reference `solve`,
/// repeated until they fill [`MIN_REFERENCE_MS`].
fn reference_ms<R>(mut solve: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut runs = 0;
    loop {
        std::hint::black_box(solve());
        runs += 1;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms >= MIN_REFERENCE_MS {
            return ms / f64::from(runs);
        }
    }
}

/// Runs one checked warm-up operation, records `peak_rss_mib`, then
/// runs checked operations closed-loop for the budget, each right after
/// one timed run of `reference`, and records their [`Timing`]; `sample`
/// sees each successful timed output.
fn closed_loop<T, R>(
    rep: &mut Report,
    seconds: f64,
    mut reference: impl FnMut() -> R,
    mut op: impl FnMut() -> Result<T, String>,
    check: impl Fn(&T) -> Result<(), String>,
    mut sample: impl FnMut(&T),
) {
    std::hint::black_box(reference());
    rep.attempt(op().and_then(|out| check(&out)));
    record_rss(rep);
    let mut timing = Timing::default();
    let budget = Budget::new(seconds, MIN_OPS);
    let mut done = 0;
    while budget.more(done) {
        done += 1;
        let reference_ms = reference_ms(&mut reference);
        let start = Instant::now();
        let out = op();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        rep.attempt(out.and_then(|out| {
            timing.push(ms, reference_ms);
            sample(&out);
            check(&out)
        }));
    }
    timing.record(rep);
}

/// One parsed program and its committed input.
struct Unit {
    program: Program,
    edb: Instance,
}

/// One set-up's result: the programs and inputs, over one interner.
struct Loaded {
    interner: Interner,
    units: Vec<Unit>,
}

/// Sets up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_SECONDS`] (or the whole `seconds` of a shorter run), each
/// time parsing every `(program, facts)` source, committing the input,
/// and running `extra`; records `setup_s` and its parse and commit
/// layers; keeps the last set-up.
fn setup<T>(
    rep: &mut Report,
    seconds: f64,
    tracer: &Tracer,
    sources: &[(&str, &str)],
    mut extra: impl FnMut(&Loaded, &Tracer) -> Result<T, String>,
) -> Result<(Loaded, T), String> {
    let (mut total, mut parse, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let budget = Budget::new(SETUP_SECONDS.min(seconds), SETUP_REPS);
    while budget.more(total.len()) {
        // Free the previous set-up first, so each starts from the same heap.
        drop(last.take());
        let start = Instant::now();
        let mut interner = Interner::new();
        let mut units = Vec::new();
        let (mut parse_s, mut commit_s) = (0.0, 0.0);
        for (program, facts) in sources {
            let (program, _) = timed(tracer, "bench parse_program", || {
                parse_program(program, &mut interner)
            });
            let program = program.map_err(|e| format!("program: {e}"))?;
            let (edb, secs) = timed(tracer, "bench parse_facts", || {
                parse_facts(facts, &mut interner)
            });
            parse_s += secs;
            let mut edb = edb.map_err(|e| format!("facts: {e}"))?;
            commit_s += timed(tracer, "bench commit_all", || edb.commit_all()).1;
            units.push(Unit { program, edb });
        }
        let loaded = Loaded { interner, units };
        let x = extra(&loaded, tracer)?;
        total.push(start.elapsed().as_secs_f64());
        parse.push(parse_s);
        commit.push(commit_s);
        last = Some((loaded, x));
    }
    rep.median("setup_s", &total);
    rep.median("parser.parse_facts_s", &parse);
    rep.median("instance.commit_s", &commit);
    Ok(last.expect("SETUP_REPS > 0"))
}

/// Times [`CLONE_REPS`] runs of `f` (each result dropped untimed) and
/// records their median as `metric`.
fn clone_metric<T>(rep: &mut Report, tracer: &Tracer, metric: &'static str, f: impl Fn() -> T) {
    let secs: Vec<f64> = (0..CLONE_REPS)
        .map(|_| timed(tracer, "bench clone", &f).1)
        .collect();
    rep.median(metric, &secs);
}

/// Records `planner.*`: the median time of one cost-mode planning pass
/// (`plan_rule` and `seminaive_variants` for every rule, over a catalog
/// of the input) and the pass's gauges.
fn plan_metrics(rep: &mut Report, units: &[Unit]) {
    let pass = || {
        let (mut pruned, mut shared) = (0, 0);
        for u in units {
            let idb: HashSet<Symbol> = u.program.idb().into_iter().collect();
            let mut planner = Planner::new(Catalog::from_instance(&u.edb), PlanMode::Cost);
            for rule in &u.program.rules {
                std::hint::black_box(planner.plan_rule(rule));
                std::hint::black_box(planner.seminaive_variants(rule, &|p| idb.contains(&p)));
            }
            let stats = planner.stats();
            pruned += stats.joins_pruned;
            shared += stats.subplans_shared;
        }
        (pruned, shared)
    };
    let secs: Vec<f64> = (0..PLAN_REPS)
        .map(|_| timed(&Tracer::off(), "", pass).1)
        .collect();
    rep.median("planner.plan_s", &secs);
    let (pruned, shared) = pass();
    rep.put("planner.joins_pruned", pruned as f64, 1);
    rep.put("planner.subplans_shared", shared as f64, 1);
}

/// Work done by one traced operation.
#[derive(Default)]
struct Work {
    rules_fired: u64,
    facts_derived: u64,
    joins: JoinCounters,
}

impl Work {
    fn of_traces(traces: &[EvalTrace]) -> Work {
        let mut w = Work::default();
        for t in traces {
            w.rules_fired += t.rules_fired;
            w.facts_derived += t.total_facts_added() as u64;
            w.joins.absorb(&t.joins);
        }
        w
    }

    /// Records `exec.*` and `index.*`, divided by `per` operations.
    fn record(&self, rep: &mut Report, per: usize) {
        let per_op = |v: u64| v as f64 / per as f64;
        let j = &self.joins;
        rep.put("exec.rules_fired", per_op(self.rules_fired), per);
        rep.put("exec.probes", per_op(j.probes), per);
        rep.put("exec.probe_tuples", per_op(j.probe_tuples), per);
        rep.put(
            "exec.facts_per_firing",
            ratio(self.facts_derived as f64, self.rules_fired as f64),
            per,
        );
        rep.put("index.builds", per_op(j.index_builds), per);
        rep.put("index.rebuilds", per_op(j.index_rebuilds), per);
        rep.put("index.indexed_tuples", per_op(j.indexed_tuples), per);
        rep.put("index.appended_tuples", per_op(j.appended_tuples), per);
        let lookups = j.index_hits + j.index_builds + j.index_rebuilds;
        rep.put(
            "index.hit_ratio",
            ratio(j.index_hits as f64, lookups as f64),
            per,
        );
    }
}

/// Total duration of the spans of `kind` in the tree under `span`.
fn span_nanos(span: &Span, kind: SpanKind) -> u64 {
    let own = if span.kind == kind { span.dur_nanos } else { 0 };
    own + span
        .children
        .iter()
        .map(|c| span_nanos(c, kind))
        .sum::<u64>()
}

/// Records the span-derived metrics of the traced operation (the
/// `TRACED_OP` root) and of the parallel one (`PARALLEL_OP`), and the
/// merged Chrome trace; records the space metrics from the program's
/// byte model and `peak_rss_mib`.
fn finish_trace(
    rep: &mut Report,
    tracer: &Tracer,
    interner: &Interner,
    bytes_peak: u64,
    bytes_final: u64,
) {
    let roots = tracer.finish();
    if let Some(op) = roots.iter().find(|s| s.name == PARALLEL_OP) {
        let rounds = span_nanos(op, SpanKind::Round) as f64;
        rep.put(
            "parallel.worker_busy_frac",
            ratio(
                span_nanos(op, SpanKind::Worker) as f64,
                PARALLEL_THREADS as f64 * rounds,
            ),
            1,
        );
    }
    if let Some(op) = roots.iter().find(|s| s.name == TRACED_OP) {
        rep.put(
            "trace.rule_frac",
            ratio(span_nanos(op, SpanKind::Rule) as f64, op.dur_nanos as f64),
            1,
        );
    }
    rep.put("space.bytes_peak", bytes_peak as f64, 1);
    rep.put("space.bytes_final", bytes_final as f64, 1);
    rep.put(
        "space.rss_per_logical",
        ratio(rep.get("peak_rss_mib") * MIB, bytes_peak as f64),
        1,
    );
    rep.chrome_trace = Some(to_chrome_json(&roots, interner));
}

const MIB: f64 = 1024.0 * 1024.0;

/// Records `peak_rss_mib`, the peak resident set so far. Workloads read
/// it after set-up and the warm-up: later operations, the two-thread
/// traced one most, only add allocator fragmentation, which varies
/// widely from run to run.
fn record_rss(rep: &mut Report) {
    rep.put("peak_rss_mib", peak_rss_bytes() as f64 / MIB, 1);
}

/// `reach`: single-source reachability.
pub fn reach(size: ReachSize, cfg: &Config) -> Result<Report, String> {
    let input = gen::reach(cfg.seed, size);
    fixpoint_workload(
        "reach",
        gen::REACH_PROGRAM,
        &input,
        reference::reach,
        false,
        cfg,
    )
}

/// `pointsto`: Andersen points-to analysis; its traced run also
/// measures the parallel driver.
pub fn pointsto(size: PointsToSize, cfg: &Config) -> Result<Report, String> {
    let input = gen::pointsto(cfg.seed, size);
    fixpoint_workload(
        "pointsto",
        gen::POINTSTO_PROGRAM,
        &input,
        reference::andersen,
        true,
        cfg,
    )
}

/// The outcome of one `seminaive::minimum_model` operation.
struct FixpointOp {
    run: FixpointRun,
    answer: Instance,
    answer_s: f64,
}

/// The shared body of `reach` and `pointsto`: one operation is
/// `seminaive::minimum_model` plus `FixpointRun::answer` at one thread,
/// checked against and timed beside the reference solver `solve`. With
/// `parallel`, the traced run adds one operation at
/// [`PARALLEL_THREADS`] for the `parallel.*` metrics.
fn fixpoint_workload(
    name: &'static str,
    program_text: &str,
    input: &gen::Edb,
    solve: impl Fn(&gen::Edb) -> Digest,
    parallel: bool,
    cfg: &Config,
) -> Result<Report, String> {
    let want = solve(input);
    let mut rep = Report::new(name);
    let tracer = cfg.tracer();
    let text = input.render();
    let (loaded, ()) = setup(
        &mut rep,
        cfg.seconds,
        &tracer,
        &[(program_text, &text)],
        |_, _| Ok(()),
    )?;
    drop(text);
    let Unit { program, edb } = &loaded.units[0];
    let interner = &loaded.interner;
    let options = EvalOptions::default().with_threads(1);

    let op = |options: EvalOptions, tracer: &Tracer| {
        attempt(|| {
            let (run, _) = timed(tracer, "bench seminaive::minimum_model", || {
                seminaive::minimum_model(program, edb, options)
            });
            let run = run.map_err(|e| e.to_string())?;
            let (answer, answer_s) = timed(tracer, "bench answer", || run.answer(program));
            Ok(FixpointOp {
                run,
                answer,
                answer_s,
            })
        })
    };
    let check = |out: &FixpointOp| compare(&[Digest::of_instance(&out.answer, interner)], &[want]);

    let mut answer_s = Vec::new();
    closed_loop(
        &mut rep,
        cfg.seconds,
        || solve(input),
        || op(options.clone(), &Tracer::off()),
        check,
        |out| answer_s.push(out.answer_s),
    );
    rep.median("instance.answer_s", &answer_s);
    if !cfg.trace {
        return Ok(rep);
    }

    clone_metric(&mut rep, &tracer, "instance.clone_s", || edb.clone());
    plan_metrics(&mut rep, &loaded.units);
    let traced = |threads: usize, span: &str| {
        let telemetry = Telemetry::enabled().with_tracer(tracer.clone());
        let options = options
            .clone()
            .with_threads(threads)
            .with_telemetry(telemetry.clone());
        let (out, secs) = timed(&tracer, span, || op(options, &tracer));
        (out, secs, telemetry.snapshot().unwrap_or_default())
    };
    let (out, secs, trace) = traced(1, TRACED_OP);
    let bytes_final = match out {
        Ok(out) => {
            rep.attempt(check(&out));
            rep.put("seminaive.stages", out.run.stages as f64, 1);
            out.run.instance.heap_bytes() as u64
        }
        Err(e) => {
            rep.attempt(Err(e));
            0
        }
    };
    Work::of_traces(std::slice::from_ref(&trace)).record(&mut rep, 1);
    rep.put(
        "telemetry.overhead_frac",
        secs * 1e3 / rep.get("bench.op_ms_p50") - 1.0,
        1,
    );
    if parallel {
        let (out, _, par) = traced(PARALLEL_THREADS, PARALLEL_OP);
        rep.attempt(out.and_then(|out| check(&out)));
        rep.put(
            "parallel.index_replication",
            ratio(
                par.joins.indexed_tuples as f64,
                trace.joins.indexed_tuples as f64,
            ),
            1,
        );
    }
    finish_trace(&mut rep, &tracer, interner, trace.bytes_peak, bytes_final);
    Ok(rep)
}

/// The outcome of one `nonmono` operation.
struct NonmonoOp {
    wf: WellFoundedModel,
    infl: FixpointRun,
    non: FixpointRun,
    /// True and true-or-unknown `win`, then both closures.
    answers: [Instance; 4],
    engine_s: [f64; 3],
    answer_s: f64,
}

/// `nonmono`: the well-founded win-move game, then inflationary and
/// Datalog¬¬ transitive closure, at one thread.
pub fn nonmono(size: NonmonoSize, cfg: &Config) -> Result<Report, String> {
    let game = gen::game(cfg.seed, size);
    let graph = gen::digraph(cfg.seed, size);
    let solve = || (reference::win(&game), reference::transitive_closure(&graph));
    let ((won, possible), tc) = solve();
    let want = [won, possible, tc, tc];

    let mut rep = Report::new("nonmono");
    let tracer = cfg.tracer();
    let (game_text, graph_text) = (game.render(), graph.render());
    let sources = [
        (gen::WIN_PROGRAM, game_text.as_str()),
        (gen::TC_PROGRAM, graph_text.as_str()),
    ];
    let (loaded, ()) = setup(&mut rep, cfg.seconds, &tracer, &sources, |_, _| Ok(()))?;
    let [win, tc_unit] = &loaded.units[..] else {
        unreachable!("two sources, two units")
    };
    let interner = &loaded.interner;
    let options = EvalOptions::default().with_threads(1);

    // Each engine gets its own options, so a traced operation can give
    // each its own telemetry handle.
    let op = |options: [EvalOptions; 3], tracer: &Tracer| {
        attempt(|| {
            let [wf_opts, infl_opts, non_opts] = options;
            let (wf, wf_s) = timed(tracer, "bench wellfounded::eval", || {
                wellfounded::eval(&win.program, &win.edb, wf_opts)
            });
            let wf = wf.map_err(|e| e.to_string())?;
            let (infl, infl_s) = timed(tracer, "bench inflationary::eval", || {
                inflationary::eval(&tc_unit.program, &tc_unit.edb, infl_opts)
            });
            let infl = infl.map_err(|e| e.to_string())?;
            let (non, non_s) = timed(tracer, "bench noninflationary::eval", || {
                noninflationary::eval(
                    &tc_unit.program,
                    &tc_unit.edb,
                    ConflictPolicy::PreferPositive,
                    non_opts,
                )
            });
            let non = non.map_err(|e| e.to_string())?;
            let (answers, answer_s) = timed(tracer, "bench answer", || {
                [
                    wf.true_facts.project_schema(win.program.idb()),
                    wf.possible_facts.project_schema(win.program.idb()),
                    infl.answer(&tc_unit.program),
                    non.answer(&tc_unit.program),
                ]
            });
            Ok(NonmonoOp {
                wf,
                infl,
                non,
                answers,
                engine_s: [wf_s, infl_s, non_s],
                answer_s,
            })
        })
    };
    let check = |out: &NonmonoOp| {
        compare(
            &out.answers
                .each_ref()
                .map(|a| Digest::of_instance(a, interner)),
            &want,
        )
    };
    let mut answer_s = Vec::new();
    let mut engine_s: [Vec<f64>; 3] = Default::default();
    closed_loop(
        &mut rep,
        cfg.seconds,
        solve,
        || op(std::array::from_fn(|_| options.clone()), &Tracer::off()),
        check,
        |out| {
            answer_s.push(out.answer_s);
            for (samples, s) in engine_s.iter_mut().zip(out.engine_s) {
                samples.push(s);
            }
        },
    );
    rep.median("instance.answer_s", &answer_s);
    for (metric, samples) in [
        "wellfounded.eval_s",
        "inflationary.eval_s",
        "noninflationary.eval_s",
    ]
    .into_iter()
    .zip(&engine_s)
    {
        rep.median(metric, samples);
    }
    if !cfg.trace {
        return Ok(rep);
    }

    clone_metric(&mut rep, &tracer, "instance.clone_s", || {
        (win.edb.clone(), tc_unit.edb.clone())
    });
    plan_metrics(&mut rep, &loaded.units);
    let telemetry: [Telemetry; 3] =
        std::array::from_fn(|_| Telemetry::enabled().with_tracer(tracer.clone()));
    let traced_options = telemetry
        .each_ref()
        .map(|t| options.clone().with_telemetry(t.clone()));
    let (out, secs) = timed(&tracer, TRACED_OP, || op(traced_options, &tracer));
    let traces = telemetry.map(|t| t.snapshot().unwrap_or_default());
    let bytes_final = match out {
        Ok(out) => {
            rep.attempt(check(&out));
            rep.put("wellfounded.rounds", out.wf.rounds as f64, 1);
            rep.put("inflationary.stages", out.infl.stages as f64, 1);
            rep.put("noninflationary.stages", out.non.stages as f64, 1);
            [
                &out.wf.possible_facts,
                &out.infl.instance,
                &out.non.instance,
            ]
            .map(|i| i.heap_bytes() as u64)
            .into_iter()
            .max()
            .unwrap_or(0)
        }
        Err(e) => {
            rep.attempt(Err(e));
            0
        }
    };
    Work::of_traces(&traces).record(&mut rep, 1);
    rep.put(
        "telemetry.overhead_frac",
        secs * 1e3 / rep.get("bench.op_ms_p50") - 1.0,
        1,
    );
    let bytes_peak = traces.iter().map(|t| t.bytes_peak).max().unwrap_or(0);
    finish_trace(&mut rep, &tracer, interner, bytes_peak, bytes_final);
    Ok(rep)
}

/// The `ivm` edit stream and the benchmark's own copy of the EDB it
/// produces.
#[derive(Clone)]
struct Edits {
    input: gen::Edb,
    assign: Vec<(i64, i64)>,
    present: HashSet<(i64, i64)>,
    vars: u64,
    rng: SplitMix64,
}

impl Edits {
    fn new(input: &gen::Edb, vars: u64, seed: u64) -> Self {
        let assign: Vec<(i64, i64)> = input.rel("Assign").pairs().collect();
        Edits {
            present: assign.iter().copied().collect(),
            assign,
            input: input.clone(),
            vars,
            rng: SplitMix64::new(mix64(seed ^ 0xED17_0000)),
        }
    }

    /// Queues one batch on `session`: retract [`BATCH_EDITS`] present
    /// `Assign` facts, then insert as many that are neither present nor
    /// just retracted, so the EDB size stays constant.
    fn queue(&mut self, session: &mut IncrementalSession, assign: Symbol) -> Result<(), String> {
        let fact = |(a, b): (i64, i64)| Tuple::from([Value::Int(a), Value::Int(b)]);
        let mut retracted = Vec::with_capacity(BATCH_EDITS);
        for _ in 0..BATCH_EDITS {
            let i = self.rng.below(self.assign.len() as u64) as usize;
            let pair = self.assign.swap_remove(i);
            self.present.remove(&pair);
            session
                .retract(assign, fact(pair))
                .map_err(|e| e.to_string())?;
            retracted.push(pair);
        }
        let mut inserted = 0;
        while inserted < BATCH_EDITS {
            let v = self.vars;
            let pair = (self.rng.below(v) as i64, self.rng.below(v) as i64);
            if self.present.contains(&pair) || retracted.contains(&pair) {
                continue;
            }
            self.present.insert(pair);
            self.assign.push(pair);
            session
                .insert(assign, fact(pair))
                .map_err(|e| e.to_string())?;
            inserted += 1;
        }
        Ok(())
    }

    /// The EDB after every queued batch.
    fn edb(&self) -> gen::Edb {
        let mut edb = self.input.clone();
        for rel in &mut edb.rels {
            if rel.name == "Assign" {
                rel.values = self.assign.iter().flat_map(|&(a, b)| [a, b]).collect();
            }
        }
        edb
    }
}

/// Checks a session against the Andersen solver on the benchmark's own
/// EDB copy, both through `session.answer()` and through a from-scratch
/// `stratified::eval` of `session.edb()`; returns the two call times.
fn check_session(
    session: &IncrementalSession,
    edits: &Edits,
    interner: &Interner,
) -> (Result<(), String>, f64, f64) {
    let want = reference::andersen(&edits.edb());
    let (answer, answer_s) = timed(&Tracer::off(), "", || session.answer());
    let (scratch, scratch_s) = timed(&Tracer::off(), "", || {
        attempt(|| {
            stratified::eval(
                session.program(),
                session.edb(),
                EvalOptions::default().with_threads(1),
            )
            .map_err(|e| e.to_string())
        })
    });
    let outcome = scratch.and_then(|run| {
        compare(
            &[
                Digest::of_instance(&answer, interner),
                Digest::of_instance(&run.answer(session.program()), interner),
            ],
            &[want, want],
        )
    });
    (outcome, answer_s, scratch_s)
}

/// `ivm`: an `IncrementalSession` over the points-to program, fed
/// batches of `Assign` edits, each followed by a timed `poll`.
pub fn ivm(size: PointsToSize, cfg: &Config) -> Result<Report, String> {
    let input = gen::pointsto(cfg.seed, size);
    let mut rep = Report::new("ivm");
    let tracer = cfg.tracer();
    let options = EvalOptions::default().with_threads(1);
    let text = input.render();
    let (loaded, session) = setup(
        &mut rep,
        cfg.seconds,
        &tracer,
        &[(gen::POINTSTO_PROGRAM, &text)],
        |loaded, tracer| {
            let u = &loaded.units[0];
            timed(tracer, "bench IncrementalSession::new", || {
                IncrementalSession::new(u.program.clone(), &u.edb, options.clone())
            })
            .0
            .map_err(|e| e.to_string())
        },
    )?;
    let mut session = session;
    let interner = &loaded.interner;
    let assign = interner
        .get("Assign")
        .ok_or("the program does not mention Assign")?;
    let mut edits = Edits::new(&input, size.vars, cfg.seed);
    // The traced polls get the warm-up's batches, so their counts depend
    // on the seed alone and not on how many polls fit in the budget.
    let twin_edits = edits.clone();
    let (mut answer_s, mut scratch_s) = (Vec::new(), Vec::new());

    // Queues a batch, solves the edited input from scratch with the
    // reference solver, then polls; returns both wall times.
    let poll = |session: &mut IncrementalSession, edits: &mut Edits| {
        edits.queue(session, assign)?;
        let reference_ms = reference_ms(|| reference::andersen(&edits.edb()));
        let start = Instant::now();
        attempt(|| session.poll().map_err(|e| e.to_string()))?;
        Ok::<_, String>((start.elapsed().as_secs_f64() * 1e3, reference_ms))
    };
    for _ in 0..WARMUP_POLLS {
        let polled = poll(&mut session, &mut edits);
        let failed = polled.is_err();
        rep.attempt(polled.map(|_| ()));
        if failed {
            return Ok(rep);
        }
    }
    let (outcome, _, _) = check_session(&session, &edits, interner);
    if let Err(e) = outcome {
        rep.flag(e);
    }
    record_rss(&mut rep);
    let traced = if cfg.trace {
        Some(traced_polls(
            &mut rep,
            &tracer,
            &loaded,
            twin_edits,
            options.clone(),
        )?)
    } else {
        None
    };

    let mut timing = Timing::default();
    let budget = Budget::new(cfg.seconds, MIN_POLLS);
    while budget.more(timing.op_ms.len()) {
        match poll(&mut session, &mut edits) {
            Ok((ms, reference_ms)) => {
                timing.push(ms, reference_ms);
                rep.attempt(Ok(()));
            }
            Err(e) => {
                // A failed poll leaves the session unusable.
                rep.attempt(Err(e));
                return Ok(rep);
            }
        }
        let polls = timing.op_ms.len();
        if polls % CHECK_EVERY == 0 || !budget.more(polls) {
            let (outcome, a, s) = check_session(&session, &edits, interner);
            answer_s.push(a);
            scratch_s.push(s);
            if let Err(e) = outcome {
                rep.flag(e);
            }
        }
    }
    timing.record(&mut rep);
    let polls = timing.op_ms.len();
    rep.put("ivm.poll_ms_p90", quantile(&timing.op_ms, 0.9), polls);
    rep.median("instance.answer_s", &answer_s);
    rep.median("ivm.scratch_eval_s", &scratch_s);
    rep.put(
        "ivm.poll_vs_scratch",
        ratio(
            rep.get("bench.op_ms_p50"),
            rep.get("ivm.scratch_eval_s") * 1e3,
        ),
        polls,
    );
    let Some(traced) = traced else {
        return Ok(rep);
    };

    let u = &loaded.units[0];
    clone_metric(&mut rep, &tracer, "instance.clone_s", || u.edb.clone());
    clone_metric(&mut rep, &tracer, "ivm.snapshot_s", || {
        (session.instance().clone(), session.edb().clone())
    });
    plan_metrics(&mut rep, &loaded.units);
    rep.put(
        "telemetry.overhead_frac",
        traced.secs_per_poll * 1e3 / rep.get("bench.op_ms_p50") - 1.0,
        TRACED_POLLS,
    );
    finish_trace(
        &mut rep,
        &tracer,
        interner,
        traced.bytes_peak,
        traced.bytes_final,
    );
    Ok(rep)
}

/// What the traced `ivm` polls measured beyond their work metrics.
struct TracedPolls {
    secs_per_poll: f64,
    bytes_peak: u64,
    bytes_final: u64,
}

/// Runs [`TRACED_POLLS`] polls under telemetry and the tracer, on a
/// twin session set up from the loaded input and fed `edits`, and
/// records their per-poll work metrics from `PollStats`.
fn traced_polls(
    rep: &mut Report,
    tracer: &Tracer,
    loaded: &Loaded,
    mut edits: Edits,
    options: EvalOptions,
) -> Result<TracedPolls, String> {
    let u = &loaded.units[0];
    let assign = loaded.interner.get("Assign").ok_or("no Assign")?;
    let telemetry = Telemetry::enabled().with_tracer(tracer.clone());
    let mut twin = IncrementalSession::new(
        u.program.clone(),
        &u.edb,
        options.with_telemetry(telemetry.clone()),
    )
    .map_err(|e| e.to_string())?;
    let mut stats = Vec::new();
    let (_, secs) = timed(tracer, TRACED_OP, || {
        for _ in 0..TRACED_POLLS {
            let polled = edits.queue(&mut twin, assign).and_then(|()| {
                timed(tracer, "bench poll", || {
                    attempt(|| twin.poll().map_err(|e| e.to_string()))
                })
                .0
            });
            let failed = polled.is_err();
            rep.attempt(polled.map(|s| stats.push(s)));
            if failed {
                break;
            }
        }
    });
    if let (Err(e), _, _) = check_session(&twin, &edits, &loaded.interner) {
        rep.flag(e);
    }
    let polls = stats.len().max(1);
    let mut work = Work::default();
    let (mut overdeleted, mut rederived) = (0, 0);
    for s in &stats {
        work.rules_fired += s.rules_fired;
        work.facts_derived += s.facts_added;
        work.joins.absorb(&s.joins);
        overdeleted += s.overdeleted;
        rederived += s.rederived;
    }
    work.record(rep, polls);
    rep.put(
        "ivm.overdeleted_per_poll",
        overdeleted as f64 / polls as f64,
        polls,
    );
    rep.put(
        "ivm.rederive_ratio",
        ratio(rederived as f64, overdeleted as f64),
        polls,
    );
    Ok(TracedPolls {
        secs_per_poll: secs / polls as f64,
        bytes_peak: telemetry.snapshot().unwrap_or_default().bytes_peak,
        bytes_final: twin.instance().heap_bytes() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_NONMONO: NonmonoSize = NonmonoSize {
        game_layers: 10,
        game_width: 60,
        tc_layers: 6,
        tc_width: 8,
    };

    fn cfg(seed: u64, trace: bool) -> Config {
        Config {
            seed,
            seconds: 0.0,
            trace,
        }
    }

    fn assert_clean(rep: &Report, trace: bool) {
        assert_eq!(rep.failed, 0, "{}", rep.workload);
        assert!(rep.attempted > 0);
        assert_eq!(rep.exit_code(), 0);
        assert!(rep.get("setup_s") > 0.0 && rep.get("op_vs_reference") > 0.0);
        assert_eq!(rep.chrome_trace.is_some(), trace);
        if let Some(chrome) = &rep.chrome_trace {
            unchained_common::validate_chrome_trace(chrome, &["phase"]).unwrap();
        }
    }

    #[test]
    fn every_workload_checks_clean_at_small_sizes() {
        for seed in [1, 2] {
            for trace in [false, true] {
                let c = cfg(seed, trace);
                let reach_size = ReachSize {
                    nodes: 3_000,
                    degree: 3,
                    sources: 4,
                };
                assert_clean(&reach(reach_size, &c).unwrap(), trace);
                let p = pointsto(PointsToSize { vars: 3_200 }, &c).unwrap();
                assert_clean(&p, trace);
                assert_clean(&nonmono(SMALL_NONMONO, &c).unwrap(), trace);
                let i = ivm(PointsToSize { vars: 1_600 }, &c).unwrap();
                assert_clean(&i, trace);
                if trace {
                    assert!(p.get("exec.rules_fired") > 0.0);
                    assert!(p.get("parallel.index_replication") > 0.0);
                    assert!(i.get("exec.probes") > 0.0);
                    assert!(i.get("ivm.scratch_eval_s") > 0.0);
                }
            }
        }
    }

    #[test]
    fn a_doctored_answer_fails_the_run() {
        let size = ReachSize {
            nodes: 500,
            degree: 2,
            sources: 2,
        };
        let input = gen::reach(1, size);
        let doctored = |edb: &gen::Edb| {
            let mut d = reference::reach(edb);
            d.sum ^= 1;
            d
        };
        let rep = fixpoint_workload(
            "reach",
            gen::REACH_PROGRAM,
            &input,
            doctored,
            false,
            &cfg(1, false),
        )
        .unwrap();
        assert!(rep.failed > 0);
        assert_eq!(rep.failed, rep.attempted);
        assert_ne!(rep.exit_code(), 0);
        assert!(rep.json(false).starts_with("{\"correct\": false"));
    }
}
