//! # unchained-bench
//!
//! The in-repo benchmark harness: a registry of seeded workload
//! generators run across every applicable engine, measured by the
//! zero-dependency kernel in [`bench`] and emitted as
//! a versioned, machine-readable `BENCH.json` plus a human table.
//!
//! Following the self-profiling discipline of production Datalog
//! engines (Soufflé's profiler, DDlog's `--self-profile`), the harness
//! has **no external dependencies** — it builds and runs fully offline
//! and is reachable two ways:
//!
//! ```sh
//! cargo run --release -p unchained-bench -- --quick --json BENCH.json
//! cargo run --release -p unchained-cli -- bench --quick --json BENCH.json
//! ```
//!
//! `--baseline PRIOR.json` compares against an earlier report and exits
//! nonzero on regression (median wall time beyond a configurable
//! threshold, or drift in the deterministic work gauges), so CI can
//! gate performance PRs.
//!
//! | workload | shape | engines |
//! |---|---|---|
//! | `chain`  | line-graph TC (§3.1) | naive, seminaive, inflationary, noninflationary, while |
//! | `cycle`  | cycle-graph TC | naive, seminaive |
//! | `grid`   | grid-graph TC (high fan-in joins) | naive, seminaive |
//! | `random` | seeded random-digraph TC | seminaive, inflationary |
//! | `win`    | win-move game, alternating fixpoint (Ex. 3.2) | wellfounded |
//! | `ctc`    | complement of TC (§3.2) | stratified, wellfounded |
//! | `magic`  | single-source TC over disjoint chains (§3.1) | seminaive, magic |
//! | `invent` | Datalog¬new invention chain (§4.3) | invention |
//! | `scale_reach` | single-source reach, 10^6-fact EDB, threads 1/2/4/8 | seminaive |
//! | `scale_pointsto` | Andersen points-to, 4.4·10^5-fact EDB, threads 1/2/4/8 | seminaive |
//!
//! Every generator is deterministic in its seed (`common::rng`), so
//! the work gauges — stages, facts derived, join probes — are exactly
//! reproducible across runs and machines; only wall times vary.
//! Telemetry stays enabled while timing (that is how the gauges are
//! harvested), so timings include the collection overhead uniformly —
//! comparisons across runs remain apples-to-apples.
//!
//! [`fig1`] holds the Figure 1 witnesses that the `fig1` binary prints.

pub mod bench;
pub mod fig1;

use bench::DEFAULT_REGRESSION_THRESHOLD;
pub use bench::{
    compare_reports, compare_with_history, measure, BenchEntry, BenchHistory, BenchReport,
    Comparison, Gauges, HistoryComparison, HistoryPoint, HistoryRun, Repetitions, WallStats,
    BENCH_SCHEMA_VERSION,
};
use unchained_common::fmt_bytes;
use unchained_common::{hottest_rules, Instance, Interner, Telemetry, Tracer, Tuple, Value};
use unchained_core::{
    inflationary, invention, magic, naive, noninflationary, seminaive, stratified, wellfounded,
    EvalError, EvalOptions, IncrementalSession,
};
use unchained_harness::generators;
use unchained_harness::programs;
use unchained_parser::{parse_program, Program};
use unchained_while::parse_while_program;

/// The while-language rendering of transitive closure (Theorem 4.2's
/// other side of the fixpoint coin).
const WHILE_TC: &str = "\
while change do
  T += { x, y | G(x,y) or exists z (T(x,z) & G(z,y)) };
end
";

/// One benchmark case: a workload × engine × size triple plus the
/// closure that performs a single evaluation and harvests its gauges.
///
/// The runner takes the [`Tracer`] to evaluate under: the timing loop
/// passes a disabled one (zero overhead), the `--profile` pass an
/// enabled one — in which case the runner also returns its
/// hottest-rules table, rendered against the case's own interner.
pub struct Case {
    /// Workload name (`chain`, `win`, …).
    pub workload: &'static str,
    /// Engine name (`naive`, `magic`, `while`, …).
    pub engine: &'static str,
    /// Worker threads requested for this case (1 = sequential).
    pub threads: usize,
    /// Size parameter (nodes, states, or stages — per workload).
    pub n: u64,
    /// Input EDB size in facts (recorded in v7 `BENCH.json` entries so
    /// throughput rates can be read against the input scale).
    pub edb_facts: u64,
    runner: CaseRunner,
}

/// A boxed single-case runner (see [`Case`]).
type CaseRunner = Box<dyn FnMut(&Tracer) -> Result<(Gauges, u64, Option<String>), String>>;

/// How many rules the per-case `--profile` table shows.
const PROFILE_TOP_N: usize = 5;

impl Case {
    /// The label `--filter` matches against (`workload/engine`, with an
    /// `@threads` suffix on parallel cases).
    pub fn label(&self) -> String {
        if self.threads > 1 {
            format!("{}/{}@{}", self.workload, self.engine, self.threads)
        } else {
            format!("{}/{}", self.workload, self.engine)
        }
    }
}

/// Workload sizes for the two fidelity levels.
struct Sizes {
    chain: i64,
    cycle: i64,
    grid: (i64, i64),
    random: i64,
    win: i64,
    ctc: i64,
    magic_chains: i64,
    magic_len: i64,
    invent_stages: usize,
    /// Layers and width of the `rederive` case's two-parent DAG.
    dag: (i64, i64),
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            chain: 64,
            cycle: 48,
            grid: (8, 8),
            random: 48,
            win: 64,
            ctc: 24,
            magic_chains: 8,
            magic_len: 12,
            invent_stages: 256,
            dag: (24, 16),
        }
    }

    fn quick() -> Sizes {
        Sizes {
            chain: 16,
            cycle: 12,
            grid: (4, 4),
            random: 16,
            win: 16,
            ctc: 10,
            magic_chains: 4,
            magic_len: 6,
            invent_stages: 32,
            dag: (8, 6),
        }
    }
}

/// Wraps one deterministic-engine evaluation: enables telemetry, times
/// nothing itself (the kernel's [`measure`] loop does), and converts
/// the finished trace into [`Gauges`] plus the worker-thread count the
/// engine actually ran with (`1` when the engine has no parallel path,
/// so such entries stay keyed as sequential rows).
fn harvest(
    tel: &Telemetry,
    interner_symbols: usize,
    input_facts: usize,
) -> Result<(Gauges, u64), String> {
    let mut trace = tel.snapshot().ok_or("telemetry produced no trace")?;
    trace.interner_symbols = interner_symbols;
    let threads = (trace.threads as u64).max(1);
    Ok((Gauges::from_trace(&trace, input_facts), threads))
}

/// A boxed workload-input generator.
type GraphGen = Box<dyn Fn(&mut Interner) -> Instance>;

/// A boxed single-evaluation closure driven through [`EvalOptions`].
type EngineRun = Box<dyn FnMut(&Instance, EvalOptions) -> Result<(), String>>;

/// Builds a runner for an engine driven through [`EvalOptions`].
/// `eval` runs the engine once; it may treat an expected budget error
/// as success (the invention chain runs against a stage budget). The
/// case's interner is captured whole so a profiling pass can render
/// rule names and head predicates.
fn options_runner(
    input: Instance,
    interner: Interner,
    threads: usize,
    mut eval: impl FnMut(&Instance, EvalOptions) -> Result<(), String> + 'static,
) -> CaseRunner {
    Box::new(move |tracer| {
        let tel = Telemetry::enabled().with_tracer(tracer.clone());
        let options = EvalOptions::default()
            .with_telemetry(tel.clone())
            .with_threads(threads);
        eval(&input, options)?;
        let profile = tracer
            .is_enabled()
            .then(|| hottest_rules(&tracer.finish(), &interner, PROFILE_TOP_N));
        let (gauges, threads) = harvest(&tel, interner.len(), input.fact_count())?;
        Ok((gauges, threads, profile))
    })
}

/// Like [`options_runner`], but the workload input is built on the
/// runner's first call instead of when the registry is assembled. The
/// scale workloads use this: their full-fidelity EDBs run to 10^6
/// facts, and generating them eagerly would make `cases()` — and every
/// `--filter` run that skips them — pay seconds of setup. The first
/// (warmup) call absorbs the generation; timed repetitions reuse it.
fn lazy_runner(
    threads: usize,
    build: impl Fn(&mut Interner) -> (Instance, Program) + 'static,
) -> CaseRunner {
    let mut state: Option<(Instance, Interner, Program)> = None;
    Box::new(move |tracer| {
        let (input, interner, program) = state.get_or_insert_with(|| {
            let mut interner = Interner::new();
            let (input, program) = build(&mut interner);
            (input, interner, program)
        });
        let tel = Telemetry::enabled().with_tracer(tracer.clone());
        let options = EvalOptions::default()
            .with_telemetry(tel.clone())
            .with_threads(threads);
        seminaive::minimum_model(program, input, options)
            .map(drop)
            .map_err(|e| e.to_string())?;
        let profile = tracer
            .is_enabled()
            .then(|| hottest_rules(&tracer.finish(), interner, PROFILE_TOP_N));
        let (gauges, threads) = harvest(&tel, interner.len(), input.fact_count())?;
        Ok((gauges, threads, profile))
    })
}

/// The full case registry at the given fidelity. `threads` is the
/// worker count every options-driven case is asked to run with; when it
/// is 1 (the default), a dedicated `chain/seminaive@4` thread-scaling
/// row is appended so the committed baseline always tracks the parallel
/// path.
pub fn cases(quick: bool, threads: usize) -> Vec<Case> {
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };
    let mut out: Vec<Case> = Vec::new();

    let parse = |src: &str, i: &mut Interner| -> Program {
        parse_program(src, i).expect("registry program parses")
    };

    // chain / cycle / grid / random — transitive closure under the
    // positive and fixpoint engines.
    let tc_graphs: Vec<(&'static str, u64, GraphGen)> = vec![
        ("chain", sizes.chain as u64, {
            let n = sizes.chain;
            Box::new(move |i| generators::line_graph(i, "G", n))
        }),
        ("cycle", sizes.cycle as u64, {
            let n = sizes.cycle;
            Box::new(move |i| generators::cycle_graph(i, "G", n))
        }),
        ("grid", (sizes.grid.0 * sizes.grid.1) as u64, {
            let (w, h) = sizes.grid;
            Box::new(move |i| generators::grid_graph(i, "G", w, h))
        }),
        ("random", sizes.random as u64, {
            let n = sizes.random;
            Box::new(move |i| generators::random_digraph(i, "G", n, 2.0 / n as f64, 0xDA7A))
        }),
    ];
    for (workload, n, gen) in tc_graphs {
        let engines: &[&str] = match workload {
            "chain" => &[
                "naive",
                "seminaive",
                "inflationary",
                "noninflationary",
                "while",
            ],
            "cycle" | "grid" => &["naive", "seminaive"],
            _ => &["seminaive", "inflationary"],
        };
        for &engine in engines {
            let mut interner = Interner::new();
            let input = gen(&mut interner);
            let case = match engine {
                "while" => {
                    let (program, _) =
                        parse_while_program(WHILE_TC, &mut interner).expect("WHILE_TC parses");
                    let facts = input.fact_count();
                    let input = input.clone();
                    Case {
                        workload,
                        engine,
                        threads: 1,
                        n,
                        edb_facts: facts as u64,
                        runner: Box::new(move |tracer| {
                            let tel = Telemetry::enabled().with_tracer(tracer.clone());
                            unchained_while::run_traced(
                                &program,
                                &input,
                                1_000_000,
                                None,
                                tel.clone(),
                            )
                            .map_err(|e| e.to_string())?;
                            let profile = tracer
                                .is_enabled()
                                .then(|| hottest_rules(&tracer.finish(), &interner, PROFILE_TOP_N));
                            let (gauges, threads) = harvest(&tel, interner.len(), facts)?;
                            Ok((gauges, threads, profile))
                        }),
                    }
                }
                _ => {
                    let program = parse(programs::TC, &mut interner);
                    let run: EngineRun = match engine {
                        "naive" => Box::new(move |inp, o| {
                            naive::minimum_model(&program, inp, o)
                                .map(drop)
                                .map_err(|e| e.to_string())
                        }),
                        "seminaive" => Box::new(move |inp, o| {
                            seminaive::minimum_model(&program, inp, o)
                                .map(drop)
                                .map_err(|e| e.to_string())
                        }),
                        "inflationary" => Box::new(move |inp, o| {
                            inflationary::eval(&program, inp, o)
                                .map(drop)
                                .map_err(|e| e.to_string())
                        }),
                        "noninflationary" => Box::new(move |inp, o| {
                            noninflationary::eval(
                                &program,
                                inp,
                                noninflationary::ConflictPolicy::PreferPositive,
                                o,
                            )
                            .map(drop)
                            .map_err(|e| e.to_string())
                        }),
                        other => unreachable!("unknown TC engine {other}"),
                    };
                    let mut run = run;
                    Case {
                        workload,
                        engine,
                        threads,
                        n,
                        edb_facts: input.fact_count() as u64,
                        runner: options_runner(input, interner, threads, move |inp, o| run(inp, o)),
                    }
                }
            };
            out.push(case);
        }
    }

    // chain/seminaive thread-scaling row: the same workload with 4
    // workers. The work gauges (stages, facts, fired) must equal the
    // sequential row's; the entry is keyed apart as `chain/seminaive@4`.
    if threads == 1 {
        let mut interner = Interner::new();
        let n = sizes.chain;
        let input = generators::line_graph(&mut interner, "G", n);
        let program = parse(programs::TC, &mut interner);
        out.push(Case {
            workload: "chain",
            engine: "seminaive",
            threads: 4,
            n: n as u64,
            edb_facts: input.fact_count() as u64,
            runner: options_runner(input, interner, 4, move |inp, o| {
                seminaive::minimum_model(&program, inp, o)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        });
    }

    // win — the unstratifiable game program under the alternating
    // fixpoint (well-founded) engine, on a seeded random board.
    {
        let mut interner = Interner::new();
        let input = generators::random_game(&mut interner, "moves", sizes.win, 3, 0xBEEF);
        let program = parse(programs::WIN, &mut interner);
        out.push(Case {
            workload: "win",
            engine: "wellfounded",
            threads,
            n: sizes.win as u64,
            edb_facts: input.fact_count() as u64,
            runner: options_runner(input, interner, threads, move |inp, o| {
                wellfounded::eval(&program, inp, o)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        });
    }

    // ctc — stratified complement-of-TC, under the stratified engine
    // and (as a stratified program) the well-founded one.
    for engine in ["stratified", "wellfounded"] {
        let mut interner = Interner::new();
        let input = generators::line_graph(&mut interner, "G", sizes.ctc);
        let program = parse(programs::CTC_STRATIFIED, &mut interner);
        let run: EngineRun = match engine {
            "stratified" => Box::new(move |inp, o| {
                stratified::eval(&program, inp, o)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
            _ => Box::new(move |inp, o| {
                wellfounded::eval(&program, inp, o)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
        };
        let mut run = run;
        out.push(Case {
            workload: "ctc",
            engine,
            threads,
            n: sizes.ctc as u64,
            edb_facts: input.fact_count() as u64,
            runner: options_runner(input, interner, threads, move |inp, o| run(inp, o)),
        });
    }

    // magic — single-source reachability over disjoint chains: full
    // semi-naive evaluation vs. the magic-sets rewrite of the same
    // query (the goal-direction ablation of §3.1).
    {
        let chains = sizes.magic_chains;
        let len = sizes.magic_len;
        let n = (chains * len) as u64;
        let build = |i: &mut Interner| {
            let g = i.intern("G");
            let mut input = Instance::new();
            input.ensure(g, 2);
            for c in 0..chains {
                let base = c * 1000;
                for k in 0..len {
                    input.insert_fact(
                        g,
                        Tuple::from([Value::Int(base + k), Value::Int(base + k + 1)]),
                    );
                }
            }
            input
        };
        {
            let mut interner = Interner::new();
            let input = build(&mut interner);
            let program = parse(programs::TC, &mut interner);
            out.push(Case {
                workload: "magic",
                engine: "seminaive",
                threads,
                n,
                edb_facts: input.fact_count() as u64,
                runner: options_runner(input, interner, threads, move |inp, o| {
                    seminaive::minimum_model(&program, inp, o)
                        .map(drop)
                        .map_err(|e| e.to_string())
                }),
            });
        }
        {
            let mut interner = Interner::new();
            let input = build(&mut interner);
            let program = parse(programs::TC, &mut interner);
            let t = interner.get("T").expect("TC defines T");
            let query = magic::QueryPattern::new(t, vec![Some(Value::Int(0)), None]);
            let facts = input.fact_count();
            out.push(Case {
                workload: "magic",
                engine: "magic",
                threads,
                n,
                edb_facts: facts as u64,
                runner: Box::new(move |tracer| {
                    let tel = Telemetry::enabled().with_tracer(tracer.clone());
                    let options = EvalOptions::default()
                        .with_telemetry(tel.clone())
                        .with_threads(threads);
                    magic::answer(&program, &query, &input, &mut interner, options)
                        .map_err(|e| e.to_string())?;
                    let profile = tracer
                        .is_enabled()
                        .then(|| hottest_rules(&tracer.finish(), &interner, PROFILE_TOP_N));
                    let (gauges, threads) = harvest(&tel, interner.len(), facts)?;
                    Ok((gauges, threads, profile))
                }),
            });
        }
    }

    // invent — the Datalog¬new chain that invents a value per stage,
    // run against a stage budget (it would otherwise run forever; the
    // budget makes the measured work exactly `invent_stages` stages).
    {
        let mut interner = Interner::new();
        let program = parse(
            "Chain(n, x) :- Start(x).\nChain(n2, n) :- Chain(n, x).",
            &mut interner,
        );
        let start = interner.get("Start").expect("Start interned");
        let mut input = Instance::new();
        input.insert_fact(start, Tuple::from([Value::Int(0)]));
        let budget = sizes.invent_stages;
        out.push(Case {
            workload: "invent",
            engine: "invention",
            threads,
            n: budget as u64,
            edb_facts: 1,
            runner: options_runner(
                input,
                interner,
                threads,
                move |inp, o| match invention::eval(&program, inp, o.with_max_stages(budget)) {
                    Ok(_) | Err(EvalError::StageLimitExceeded(_)) => Ok(()),
                    Err(e) => Err(e.to_string()),
                },
            ),
        });
    }

    // ivm — incremental maintenance on chain TC: build the session
    // (initial fixpoint), retract the last edge, poll, and check the
    // maintained instance against a from-scratch evaluation of the
    // edited edb. The runner doubles as the CI smoke for the poll-vs-
    // recompute invariant: a divergence (the poll keeping facts the
    // from-scratch run no longer derives, or losing ones it still does)
    // fails the case outright. Gauges carry the poll's overdelete and
    // rederive counters alongside its join work.
    {
        let n = sizes.chain;
        out.push(Case {
            workload: "ivm",
            engine: "incremental",
            threads,
            n: n as u64,
            // The runner builds its line-graph EDB itself: n−1 edges.
            edb_facts: (n - 1) as u64,
            runner: Box::new(move |tracer| {
                let mut interner = Interner::new();
                let input = generators::line_graph(&mut interner, "G", n);
                let program =
                    parse_program(programs::TC, &mut interner).expect("registry program parses");
                let g = interner.get("G").expect("line graph interns G");
                let facts = input.fact_count();
                let tel = Telemetry::enabled().with_tracer(tracer.clone());
                let sw = tel.stopwatch();
                let options = EvalOptions::default()
                    .with_telemetry(tel.clone())
                    .with_threads(threads);
                let mut session =
                    IncrementalSession::new(program, &input, options).map_err(|e| e.to_string())?;
                session
                    .retract(g, Tuple::from([Value::Int(n - 2), Value::Int(n - 1)]))
                    .map_err(|e| e.to_string())?;
                let stats = session.poll().map_err(|e| e.to_string())?;
                if stats.overdeleted == 0 {
                    return Err("ivm case retracted a chain edge but overdeleted nothing".into());
                }
                let scratch =
                    stratified::eval(session.program(), session.edb(), EvalOptions::default())
                        .map_err(|e| e.to_string())?;
                if !session.instance().same_facts(&scratch.instance) {
                    return Err("ivm poll diverged from a from-scratch evaluation".into());
                }
                tel.finish(&sw, session.instance().fact_count());
                let profile = tracer
                    .is_enabled()
                    .then(|| hottest_rules(&tracer.finish(), &interner, PROFILE_TOP_N));
                let (gauges, threads) = harvest(&tel, interner.len(), facts)?;
                Ok((gauges, threads, profile))
            }),
        });
    }

    // rederive — incremental maintenance that restores tuples: TC over
    // a layered two-parent DAG (the corpus's diamond witness, scaled
    // up). Retracting the edge from node 0 to its first child
    // overdeletes every closure fact of node 0 through that child, and
    // the facts the other child still reaches are rederived. The runner
    // fails unless the poll rederives something and lands on the
    // from-scratch evaluation of the edited edb.
    {
        let (layers, width) = sizes.dag;
        out.push(Case {
            workload: "rederive",
            engine: "incremental",
            threads,
            n: (layers * width) as u64,
            // Two out-edges per node of every layer but the last.
            edb_facts: (2 * (layers - 1) * width) as u64,
            runner: Box::new(move |tracer| {
                let mut interner = Interner::new();
                let input = generators::layered_dag(&mut interner, "G", layers, width);
                let program =
                    parse_program(programs::TC, &mut interner).expect("registry program parses");
                let g = interner.get("G").expect("layered DAG interns G");
                let facts = input.fact_count();
                let tel = Telemetry::enabled().with_tracer(tracer.clone());
                let sw = tel.stopwatch();
                let options = EvalOptions::default()
                    .with_telemetry(tel.clone())
                    .with_threads(threads);
                let mut session =
                    IncrementalSession::new(program, &input, options).map_err(|e| e.to_string())?;
                session
                    .retract(g, Tuple::from([Value::Int(0), Value::Int(width)]))
                    .map_err(|e| e.to_string())?;
                let stats = session.poll().map_err(|e| e.to_string())?;
                if stats.rederived == 0 {
                    return Err("rederive case retracted a DAG edge but rederived nothing".into());
                }
                let scratch =
                    stratified::eval(session.program(), session.edb(), EvalOptions::default())
                        .map_err(|e| e.to_string())?;
                if !session.instance().same_facts(&scratch.instance) {
                    return Err("rederive poll diverged from a from-scratch evaluation".into());
                }
                tel.finish(&sw, session.instance().fact_count());
                let profile = tracer
                    .is_enabled()
                    .then(|| hottest_rules(&tracer.finish(), &interner, PROFILE_TOP_N));
                let (gauges, threads) = harvest(&tel, interner.len(), facts)?;
                Ok((gauges, threads, profile))
            }),
        });
    }

    // scale — the columnar-layout / morsel-scheduler workloads: EDBs
    // of 10^4 (quick) to 10^6 (full) facts, one to two orders past
    // the graph cases above. `scale_reach` is single-source
    // reachability over a random out-degree-4 digraph (output and
    // work both linear in the edge count); `scale_pointsto` is a
    // field-insensitive Andersen points-to analysis (four rules, five
    // relations, three-way joins through the `PT` IDB). The default
    // registry carries thread-scaling rows at 1/2/4/8 over identical
    // inputs, so BENCH.json always records `speedup_vs_seq` against a
    // sequential twin; an explicit `--threads N` run keeps one row.
    // Inputs are built lazily on first run (see [`lazy_runner`]), so
    // listing or filtering the registry never generates them.
    {
        let thread_rows: Vec<usize> = if threads == 1 {
            vec![1, 2, 4, 8]
        } else {
            vec![threads]
        };
        let reach_n: i64 = if quick { 2_500 } else { 260_000 };
        const REACH_DEG: i64 = 4;
        const REACH_SOURCES: usize = 16;
        for &t in &thread_rows {
            out.push(Case {
                workload: "scale_reach",
                engine: "seminaive",
                threads: t,
                n: reach_n as u64,
                // Both generators produce exact counts by construction.
                edb_facts: (reach_n * REACH_DEG) as u64 + REACH_SOURCES as u64,
                runner: lazy_runner(t, move |i| {
                    let input = generators::merge(
                        generators::random_out_digraph(i, "G", reach_n, REACH_DEG, 0x5CA1E),
                        &generators::random_unary(i, "S", reach_n, REACH_SOURCES, 0x0DD5),
                    );
                    let program = parse_program(programs::REACH, i).expect("REACH parses");
                    (input, program)
                }),
            });
        }
        // Subcritical statement mix (assigns = vars/4, loads = stores
        // = vars/16), so the points-to closure stays within a small
        // constant of the EDB — see the generator's doc; denser mixes
        // cross the percolation threshold and the closure goes
        // superlinear. EDB = vars·(1 + 1/4 + 1/16 + 1/16) = 11·vars/8.
        let pt_vars: i64 = if quick { 8_000 } else { 320_000 };
        for &t in &thread_rows {
            out.push(Case {
                workload: "scale_pointsto",
                engine: "seminaive",
                threads: t,
                n: pt_vars as u64,
                edb_facts: (11 * pt_vars / 8) as u64,
                runner: lazy_runner(t, move |i| {
                    let input = generators::random_pointsto(
                        i,
                        pt_vars,
                        pt_vars / 4,
                        pt_vars / 16,
                        pt_vars / 16,
                        0xA11C,
                    );
                    let program = parse_program(programs::POINTSTO, i).expect("POINTSTO parses");
                    (input, program)
                }),
            });
        }
    }

    out
}

/// Which bench subcommand to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchMode {
    /// Measure the registry (the default).
    Run,
    /// Print the committed `BENCH_HISTORY.json` trajectory.
    History,
    /// Gate an existing report against the history (no measurement).
    Compare,
}

/// Parsed `bench` arguments, shared by `unchained bench …` and the
/// `unchained-bench` binary.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Subcommand (`bench`, `bench history`, `bench compare`).
    pub mode: BenchMode,
    /// Substring filter on `workload/engine` labels.
    pub filter: Option<String>,
    /// Write the report as `BENCH.json` to this path.
    pub json: Option<String>,
    /// Compare against a prior `BENCH.json` at this path.
    pub baseline: Option<String>,
    /// Small sizes + fewer repetitions (CI smoke fidelity).
    pub quick: bool,
    /// Override the timed repetition count.
    pub reps: Option<usize>,
    /// Override the warmup count.
    pub warmup: Option<usize>,
    /// Regression threshold for `--baseline` (ratio of medians).
    pub threshold: f64,
    /// Worker threads for every options-driven case (default 1; the
    /// default registry also carries a fixed `chain/seminaive@4` row).
    pub threads: usize,
    /// After timing, re-run each case once under the hierarchical
    /// tracer and print its hottest-rules table.
    pub profile: bool,
    /// Print the per-entry space table (peak/final bytes, tuples/s).
    pub memstats: bool,
    /// The append-only `BENCH_HISTORY.json` path: run mode appends one
    /// line per run, history mode prints it, compare mode gates
    /// against its last run.
    pub history: Option<String>,
    /// Revision label stamped on a new history line (pass the git rev).
    pub rev: String,
    /// Date label stamped on a new history line (passed in, never read
    /// from the clock, so history files stay reproducible).
    pub date: String,
    /// Compare mode: the `BENCH.json` report to check (positional;
    /// default `BENCH.json`).
    pub report: Option<String>,
    /// List the registry without running anything.
    pub list: bool,
    /// Print usage and exit 0.
    pub help: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            mode: BenchMode::Run,
            filter: None,
            json: None,
            baseline: None,
            quick: false,
            reps: None,
            warmup: None,
            threshold: DEFAULT_REGRESSION_THRESHOLD,
            threads: 1,
            profile: false,
            memstats: false,
            history: None,
            rev: "local".to_string(),
            date: "undated".to_string(),
            report: None,
            list: false,
            help: false,
        }
    }
}

/// Usage text for the bench harness.
pub const BENCH_USAGE: &str = "\
unchained bench — in-repo benchmark harness (BENCH.json)

USAGE:
  unchained bench [options]             measure the registry
  unchained bench history [options]     print the BENCH_HISTORY.json trajectory
  unchained bench compare [REPORT.json] --history BENCH_HISTORY.json
                                        gate a report against the last
                                        history run (bytes growth, work
                                        drift — never wall time)
  cargo run --release -p unchained-bench -- [options]

OPTIONS:
  --filter <PAT>      run only cases whose workload/engine label
                      contains PAT (e.g. `chain`, `magic/magic`)
  --json <PATH>       write the machine-readable BENCH.json report
  --baseline <PATH>   compare against a prior BENCH.json; exit nonzero
                      on regression (see --threshold)
  --quick             small sizes + fewer repetitions (CI smoke)
  --reps <N>          timed repetitions per case (default 5, quick 3)
  --warmup <N>        untimed warmup runs per case (default 1)
  --threshold <X>     regression = median > X × baseline median
                      (default 2.0; absolute floor 25µs)
  --threads <N>       worker threads for every engine case (default 1;
                      entries record the count the engine actually used,
                      and parallel rows are keyed `workload/engine@N/n`)
  --profile           after timing, re-run each case once under the
                      hierarchical tracer and print its hottest-rules
                      table (wall time, firings, rounds per rule)
  --memstats          print the per-entry space table (peak/final
                      logical bytes, derived tuples per second)
  --history <PATH>    run mode: append this run (medians, bytes, facts)
                      as one line to the append-only history file;
                      history/compare modes: the file to read
  --rev <REV>         revision label for the appended history line
                      (pass `git rev-parse --short HEAD`; default `local`)
  --date <DATE>       date label for the appended history line (passed
                      in, never read from the clock; default `undated`)
  --list              list the case registry and exit
  --help              this text
";

/// Parses bench arguments (everything after the `bench` word).
pub fn parse_bench_args(argv: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "history" if args.mode == BenchMode::Run => args.mode = BenchMode::History,
            "compare" if args.mode == BenchMode::Run => args.mode = BenchMode::Compare,
            "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a value")?.clone());
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?.clone());
            }
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?.clone());
            }
            "--quick" => args.quick = true,
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --reps `{v}`"))?;
                if n == 0 {
                    return Err("--reps must be >= 1".into());
                }
                args.reps = Some(n);
            }
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a value")?;
                args.warmup = Some(v.parse().map_err(|_| format!("bad --warmup `{v}`"))?);
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                let x: f64 = v.parse().map_err(|_| format!("bad --threshold `{v}`"))?;
                if x.is_nan() || x < 1.0 {
                    return Err("--threshold must be >= 1.0".into());
                }
                args.threshold = x;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                args.threads = n;
            }
            "--profile" => args.profile = true,
            "--memstats" => args.memstats = true,
            "--history" => {
                args.history = Some(it.next().ok_or("--history needs a path")?.clone());
            }
            "--rev" => {
                args.rev = it.next().ok_or("--rev needs a value")?.clone();
            }
            "--date" => {
                args.date = it.next().ok_or("--date needs a value")?.clone();
            }
            "--list" => args.list = true,
            "--help" | "-h" => args.help = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown bench option `{other}`"));
            }
            path if args.mode == BenchMode::Compare && args.report.is_none() => {
                args.report = Some(path.to_string());
            }
            other => return Err(format!("unknown bench option `{other}`")),
        }
    }
    if args.mode != BenchMode::Run && args.history.is_none() {
        return Err(format!(
            "bench {}: --history <PATH> is required",
            if args.mode == BenchMode::History {
                "history"
            } else {
                "compare"
            }
        ));
    }
    Ok(args)
}

/// Renders the per-entry space table (`--memstats`): the v4 byte gauges
/// and the derived throughput rate, one row per entry.
pub fn render_space_table(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>12}",
        "bench space", "bytes_peak", "bytes_final", "tuples/s"
    );
    for e in &report.entries {
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12}",
            e.key(),
            fmt_bytes(e.gauges.bytes_peak),
            fmt_bytes(e.gauges.bytes_final),
            e.tuples_per_sec()
        );
    }
    out
}

/// Runs the (filtered) registry and collects the report. Pure except
/// for the measurements themselves — no file I/O.
pub fn run_benchmarks(args: &BenchArgs) -> Result<BenchReport, String> {
    let mut rep = if args.quick {
        Repetitions::quick()
    } else {
        Repetitions::full()
    };
    if let Some(n) = args.reps {
        rep.reps = n;
    }
    if let Some(n) = args.warmup {
        rep.warmup = n;
    }
    let mut report = BenchReport::default();
    for mut case in cases(args.quick, args.threads) {
        if let Some(pat) = &args.filter {
            if !case.label().contains(pat.as_str()) {
                continue;
            }
        }
        let off = Tracer::off();
        let (samples, last) = measure(rep, || (case.runner)(&off));
        let (gauges, threads, _) = last.map_err(|e| format!("{}: {e}", case.label()))?;
        report.entries.push(BenchEntry {
            workload: case.workload.to_string(),
            engine: case.engine.to_string(),
            threads,
            n: case.n,
            edb_facts: case.edb_facts,
            reps: rep.reps as u64,
            wall: WallStats::from_samples(&samples),
            gauges,
        });
    }
    if report.entries.is_empty() {
        return Err(match &args.filter {
            Some(pat) => format!("no benchmark case matches filter `{pat}`"),
            None => "benchmark registry is empty".to_string(),
        });
    }
    Ok(report)
}

/// Runs each (filtered) case once under an enabled [`Tracer`] and
/// renders a per-case hottest-rules table (the `--profile` pass). Pure
/// except for the evaluations — no file I/O.
pub fn profile_benchmarks(args: &BenchArgs) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for mut case in cases(args.quick, args.threads) {
        if let Some(pat) = &args.filter {
            if !case.label().contains(pat.as_str()) {
                continue;
            }
        }
        let tracer = Tracer::enabled();
        let (_, _, profile) =
            (case.runner)(&tracer).map_err(|e| format!("{}: {e}", case.label()))?;
        let _ = writeln!(out, "profile {} (n={})", case.label(), case.n);
        out.push_str(profile.as_deref().unwrap_or("no rule spans recorded\n"));
        out.push('\n');
    }
    if out.is_empty() {
        return Err(match &args.filter {
            Some(pat) => format!("no benchmark case matches filter `{pat}`"),
            None => "benchmark registry is empty".to_string(),
        });
    }
    Ok(out)
}

/// The complete bench command: parse, run, print, write `--json`,
/// compare `--baseline`. Returns the process exit code (0 ok, 1 on
/// error or regression, 2 on bad usage). Shared by the `unchained`
/// CLI's `bench` subcommand and the `unchained-bench` binary.
pub fn main_with_args(argv: &[String]) -> u8 {
    let args = match parse_bench_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{BENCH_USAGE}");
            return 2;
        }
    };
    if args.help {
        print!("{BENCH_USAGE}");
        return 0;
    }
    let read_history = |path: &str| -> Result<BenchHistory, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchHistory::parse(&text)
    };
    match args.mode {
        BenchMode::Run => {}
        BenchMode::History => {
            let path = args.history.as_deref().expect("checked by the parser");
            match read_history(path) {
                Ok(history) => {
                    print!("{}", history.render_trajectory());
                    return 0;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        BenchMode::Compare => {
            let report_path = args.report.as_deref().unwrap_or("BENCH.json");
            let history_path = args.history.as_deref().expect("checked by the parser");
            let gate = || -> Result<bool, String> {
                let text = std::fs::read_to_string(report_path)
                    .map_err(|e| format!("cannot read {report_path}: {e}"))?;
                let report = BenchReport::from_json(&text)?;
                let history = read_history(history_path)?;
                let cmp = compare_with_history(&report, &history)?;
                print!("{}", cmp.render());
                Ok(cmp.passed())
            };
            return match gate() {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            };
        }
    }
    if args.list {
        for case in cases(args.quick, args.threads) {
            println!("{}/{}", case.label(), case.n);
        }
        return 0;
    }
    let report = match run_benchmarks(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print!("{}", report.render_table());
    if args.memstats {
        print!("{}", render_space_table(&report));
    }
    if args.profile {
        match profile_benchmarks(&args) {
            Ok(tables) => print!("{tables}"),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return 1;
            }
        };
        let base = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let cmp = compare_reports(&report, &base, args.threshold);
        print!("{}", cmp.render());
        if cmp.has_regression() {
            return 1;
        }
    }
    if let Some(path) = &args.history {
        let line = HistoryRun::from_report(&report, &args.rev, &args.date).to_json_line();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                use std::io::Write as _;
                writeln!(f, "{}", line.trim_end())
            });
        if let Err(e) = appended {
            eprintln!("error: cannot append to {path}: {e}");
            return 1;
        }
        println!("appended history line to {path}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn registry_covers_the_required_matrix() {
        let cases = cases(true, 1);
        let workloads: BTreeSet<_> = cases.iter().map(|c| c.workload).collect();
        let engines: BTreeSet<_> = cases.iter().map(|c| c.engine).collect();
        assert!(workloads.len() >= 6, "{workloads:?}");
        assert!(engines.len() >= 5, "{engines:?}");
        for w in [
            "chain",
            "cycle",
            "grid",
            "random",
            "win",
            "ctc",
            "magic",
            "invent",
            "ivm",
            "rederive",
            "scale_reach",
            "scale_pointsto",
        ] {
            assert!(workloads.contains(w), "missing workload {w}");
        }
        for e in [
            "naive",
            "seminaive",
            "stratified",
            "wellfounded",
            "inflationary",
            "noninflationary",
            "magic",
            "while",
            "invention",
            "incremental",
        ] {
            assert!(engines.contains(e), "missing engine {e}");
        }
        // Full and quick fidelities share the same matrix, larger n.
        let full = super::cases(false, 1);
        assert_eq!(full.len(), cases.len());
        // The default registry carries the thread-scaling row…
        assert!(
            cases.iter().any(|c| c.label() == "chain/seminaive@4"),
            "missing thread-scaling row"
        );
        // …as are the scale workloads' 1/2/4/8 thread-scaling rows.
        for w in ["scale_reach", "scale_pointsto"] {
            let rows: Vec<usize> = cases
                .iter()
                .filter(|c| c.workload == w)
                .map(|c| c.threads)
                .collect();
            assert_eq!(rows, vec![1, 2, 4, 8], "{w}");
        }
        // …all of which are dropped when the whole run is already
        // parallel (the chain@4 row, plus three extra rows per scale
        // workload).
        let par = super::cases(true, 4);
        assert_eq!(par.len(), cases.len() - 7);
        assert!(par.iter().all(|c| c.threads == 4 || c.engine == "while"));
    }

    #[test]
    fn arg_parsing_round_trips() {
        let a = parse_bench_args(&argv(
            "--filter chain --json out.json --baseline base.json --quick --reps 2 \
             --warmup 0 --threshold 3.5",
        ))
        .unwrap();
        assert_eq!(a.filter.as_deref(), Some("chain"));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.baseline.as_deref(), Some("base.json"));
        assert!(a.quick);
        assert_eq!(a.reps, Some(2));
        assert_eq!(a.warmup, Some(0));
        assert_eq!(a.threshold, 3.5);
        assert!(parse_bench_args(&argv("--reps 0")).is_err());
        assert!(parse_bench_args(&argv("--threshold 0.5")).is_err());
        assert!(parse_bench_args(&argv("--bogus")).is_err());
        assert!(parse_bench_args(&argv("--help")).unwrap().help);
        assert!(parse_bench_args(&argv("--profile")).unwrap().profile);
        assert!(!parse_bench_args(&argv("")).unwrap().profile);
        assert_eq!(parse_bench_args(&argv("--threads 4")).unwrap().threads, 4);
        assert_eq!(parse_bench_args(&argv("")).unwrap().threads, 1);
        assert!(parse_bench_args(&argv("--threads 0")).is_err());
    }

    #[test]
    fn history_and_compare_modes_parse() {
        let a = parse_bench_args(&argv("history --history BENCH_HISTORY.json")).unwrap();
        assert_eq!(a.mode, BenchMode::History);
        assert_eq!(a.history.as_deref(), Some("BENCH_HISTORY.json"));
        let a = parse_bench_args(&argv("compare BENCH.json --history BENCH_HISTORY.json")).unwrap();
        assert_eq!(a.mode, BenchMode::Compare);
        assert_eq!(a.report.as_deref(), Some("BENCH.json"));
        // Both modes refuse to guess a history path.
        assert!(parse_bench_args(&argv("history")).is_err());
        assert!(parse_bench_args(&argv("compare BENCH.json")).is_err());
        // Run mode accepts the stamping options.
        let a = parse_bench_args(&argv(
            "--quick --history h.json --rev abc1234 --date 2026-08-07",
        ))
        .unwrap();
        assert_eq!(a.mode, BenchMode::Run);
        assert_eq!(a.rev, "abc1234");
        assert_eq!(a.date, "2026-08-07");
        assert!(parse_bench_args(&argv("--memstats")).unwrap().memstats);
        // A stray positional outside compare mode is still an error.
        assert!(parse_bench_args(&argv("BENCH.json")).is_err());
    }

    #[test]
    fn memstats_table_shows_byte_gauges_per_entry() {
        let report = run_benchmarks(&BenchArgs {
            filter: Some("chain/seminaive".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        })
        .unwrap();
        let table = render_space_table(&report);
        assert!(table.contains("bench space"), "{table}");
        assert!(table.contains("chain/seminaive/16"), "{table}");
        assert!(table.contains("chain/seminaive@4/16"), "{table}");
        for e in &report.entries {
            assert!(e.gauges.bytes_peak > 0, "{}", e.key());
            assert!(e.gauges.bytes_final > 0, "{}", e.key());
            assert!(e.gauges.bytes_peak >= e.gauges.bytes_final, "{}", e.key());
        }
        // Byte gauges are thread-invariant: the @4 row matches row 1.
        assert_eq!(
            report.entries[0].gauges.bytes_peak,
            report.entries[1].gauges.bytes_peak
        );
        assert_eq!(
            report.entries[0].gauges.bytes_final,
            report.entries[1].gauges.bytes_final
        );
    }

    #[test]
    fn measured_report_survives_the_history_gate() {
        let report = run_benchmarks(&BenchArgs {
            filter: Some("chain/".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        })
        .unwrap();
        let line = HistoryRun::from_report(&report, "abc1234", "2026-08-07").to_json_line();
        let history = BenchHistory::parse(&line).unwrap();
        assert!(history.render_trajectory().contains("abc1234 2026-08-07"));
        // A report gates cleanly against its own history line.
        let cmp = compare_with_history(&report, &history).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.checked, report.entries.len());
    }

    #[test]
    fn parallel_chain_case_reports_identical_work() {
        let run = |filter: &str| {
            run_benchmarks(&BenchArgs {
                filter: Some(filter.into()),
                quick: true,
                reps: Some(1),
                warmup: Some(0),
                ..Default::default()
            })
            .unwrap()
        };
        let report = run("chain/seminaive");
        // The filter matches both the sequential row and the @4 row.
        assert_eq!(report.entries.len(), 2);
        let seq = &report.entries[0];
        let par = &report.entries[1];
        assert_eq!((seq.threads, par.threads), (1, 4));
        assert_eq!(seq.gauges.stages, par.gauges.stages);
        assert_eq!(seq.gauges.facts_derived, par.gauges.facts_derived);
        assert_eq!(seq.gauges.rules_fired, par.gauges.rules_fired);
        // A --threads 4 run records what the engine actually used: 4 for
        // the stage-driver engines, 1 for the while interpreter, which
        // has no parallel path.
        let report = run_benchmarks(&BenchArgs {
            filter: Some("chain/".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            threads: 4,
            ..Default::default()
        })
        .unwrap();
        let by_engine = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.engine == name)
                .unwrap_or_else(|| panic!("{name} entry"))
        };
        assert_eq!(by_engine("seminaive").threads, 4);
        assert_eq!(by_engine("naive").threads, 4);
        assert_eq!(by_engine("while").threads, 1);
    }

    #[test]
    fn filtered_quick_run_produces_valid_entries() {
        let args = BenchArgs {
            filter: Some("magic".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        };
        let report = run_benchmarks(&args).unwrap();
        assert_eq!(report.entries.len(), 2);
        let magic = report
            .entries
            .iter()
            .find(|e| e.engine == "magic")
            .expect("magic entry");
        let full = report
            .entries
            .iter()
            .find(|e| e.engine == "seminaive")
            .expect("seminaive entry");
        // Goal direction derives strictly fewer facts than full TC.
        assert!(magic.gauges.facts_derived < full.gauges.facts_derived);
        assert!(full.gauges.probes > 0);
        assert!(full.wall.median > 0);
        // The emitted JSON parses back to the same report.
        let round = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round, report);
    }

    #[test]
    fn invention_case_survives_its_stage_budget() {
        let args = BenchArgs {
            filter: Some("invent".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        };
        let report = run_benchmarks(&args).unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        // The budget bounds the run: one invented fact per stage.
        assert_eq!(e.gauges.stages, e.n);
        assert!(e.gauges.facts_derived >= e.n);
    }

    #[test]
    fn ivm_case_reports_maintenance_gauges() {
        let args = BenchArgs {
            filter: Some("ivm".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        };
        let report = run_benchmarks(&args).unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(e.workload, "ivm");
        assert_eq!(e.engine, "incremental");
        // Retracting the last chain edge deletes the n-1 closure facts
        // that route through it, and none of them rederives.
        assert!(e.gauges.ivm_overdeleted > 0, "{:?}", e.gauges);
        assert!(
            e.gauges.ivm_rederived <= e.gauges.ivm_overdeleted,
            "{:?}",
            e.gauges
        );
        // The gauges cover both the initial fixpoint and the poll.
        assert!(e.gauges.rules_fired > 0);
        assert!(e.gauges.probes > 0);
        // The emitted JSON (v6: carries the ivm object) round-trips.
        let round = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round, report);
    }

    #[test]
    fn rederive_case_restores_tuples() {
        let args = BenchArgs {
            filter: Some("rederive".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        };
        let report = run_benchmarks(&args).unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(
            (e.workload.as_str(), e.engine.as_str()),
            ("rederive", "incremental")
        );
        assert!(e.gauges.ivm_rederived > 0, "{:?}", e.gauges);
        assert!(
            e.gauges.ivm_rederived < e.gauges.ivm_overdeleted,
            "{:?}",
            e.gauges
        );
    }

    #[test]
    fn profile_pass_prints_hottest_rules_per_case() {
        let args = BenchArgs {
            filter: Some("chain/seminaive".into()),
            quick: true,
            ..Default::default()
        };
        let tables = profile_benchmarks(&args).unwrap();
        // Both the sequential and the @4 thread-scaling row profile.
        assert!(
            tables.contains("profile chain/seminaive (n=16)"),
            "{tables}"
        );
        assert!(
            tables.contains("profile chain/seminaive@4 (n=16)"),
            "{tables}"
        );
        assert!(tables.contains("hottest rules"), "{tables}");
        assert!(tables.contains("[T]"), "{tables}");
        // An unmatched filter is an error here too.
        let args = BenchArgs {
            filter: Some("no-such-case".into()),
            quick: true,
            ..Default::default()
        };
        assert!(profile_benchmarks(&args).is_err());
    }

    #[test]
    fn scale_rows_share_work_and_record_edb_facts() {
        let report = run_benchmarks(&BenchArgs {
            filter: Some("scale_reach".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        })
        .unwrap();
        // The default registry carries the full thread-scaling ladder.
        let threads: Vec<u64> = report.entries.iter().map(|e| e.threads).collect();
        assert_eq!(threads, vec![1, 2, 4, 8]);
        let seq = &report.entries[0];
        // Quick fidelity: 2 500 nodes × out-degree 4, plus 16 sources.
        assert_eq!(seq.edb_facts, 10_016);
        for e in &report.entries {
            // Work gauges are schedule-invariant: every thread row
            // derives the same facts through the same stages.
            assert_eq!(e.edb_facts, seq.edb_facts);
            assert_eq!(e.gauges.stages, seq.gauges.stages);
            assert_eq!(e.gauges.facts_derived, seq.gauges.facts_derived);
            assert_eq!(e.gauges.rules_fired, seq.gauges.rules_fired);
        }
        // Reachability never exceeds the node count — the workload is
        // EDB-bound, not closure-bound.
        assert!(seq.gauges.facts_derived <= 2 * seq.n);
        // v7 JSON carries the EDB size and the speedup rate, and the
        // sequential twin is the speedup denominator.
        let json = report.to_json();
        assert!(json.contains("\"edb_facts\":10016"), "{json}");
        assert!(json.contains("\"speedup_vs_seq\":1.00"), "{json}");
        assert_eq!(report.speedup_vs_seq(seq), 1.0);
        let round = BenchReport::from_json(&json).unwrap();
        assert_eq!(round, report);
    }

    #[test]
    fn scale_pointsto_closure_stays_linear() {
        let report = run_benchmarks(&BenchArgs {
            filter: Some("scale_pointsto".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        // An explicit --threads run keeps a single row per workload.
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        // Quick fidelity: 8 000 vars × 11/8.
        assert_eq!(e.edb_facts, 11_000);
        assert_eq!(e.threads, 2);
        assert!(e.gauges.facts_derived > 0);
        // The subcritical assign graph keeps the points-to closure
        // within a small constant of the EDB (the scale knob is input
        // size, not output blowup).
        assert!(
            e.gauges.facts_derived < 8 * e.edb_facts,
            "{} facts from {} EDB",
            e.gauges.facts_derived,
            e.edb_facts
        );
    }

    #[test]
    fn unknown_filter_is_an_error() {
        let args = BenchArgs {
            filter: Some("no-such-case".into()),
            quick: true,
            ..Default::default()
        };
        assert!(run_benchmarks(&args).unwrap_err().contains("no-such-case"));
    }

    #[test]
    fn while_engine_runs_chain_tc() {
        let args = BenchArgs {
            filter: Some("chain/while".into()),
            quick: true,
            reps: Some(1),
            warmup: Some(0),
            ..Default::default()
        };
        let report = run_benchmarks(&args).unwrap();
        assert_eq!(report.entries.len(), 1);
        // A 16-chain closes in 15 cumulate rounds plus the no-change one.
        assert!(report.entries[0].gauges.facts_derived > 0);
    }
}
