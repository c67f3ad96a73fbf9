//! Command execution: load, evaluate, render.

use crate::args::{Command, Semantics};
use unchained_common::{
    hottest_rules, to_chrome_json, validate_chrome_trace, Instance, Interner, SpaceReport,
    Telemetry, Tracer, Tuple, TIME_BUCKETS,
};
use unchained_core::{
    inflationary, invention, naive, noninflationary, provenance, seminaive, stratified,
    wellfounded, EvalOptions, IncrementalSession,
};
use unchained_nondet::{effect, poss_cert, EffOptions, NondetProgram, RandomChooser};
use unchained_parser::{
    classify, parse_facts, parse_program, DependencyGraph, HeadLiteral, Program, Term,
};
use unchained_while::parse_while_program;

/// The outcome of a command: the text to print plus any side-channel
/// payloads (`--trace-json`, `--profile`, `--metrics`) for the caller
/// to write to the requested paths (this module stays I/O-free).
#[derive(Clone, Debug)]
pub struct ExecOutput {
    /// The text to print to stdout.
    pub text: String,
    /// JSON-lines trace content, when `--trace-json` was given.
    pub trace_json: Option<String>,
    /// Chrome-trace-event profile JSON, when `--profile` was given.
    pub profile_json: Option<String>,
    /// Prometheus text exposition, when `--metrics` was given.
    pub metrics_text: Option<String>,
}

/// Executes a parsed command against file contents already read by the
/// caller (keeping this function I/O-free and testable). Returns the
/// text to print.
pub fn execute(
    command: &Command,
    program_text: &str,
    facts_text: Option<&str>,
) -> Result<String, String> {
    execute_full(command, program_text, facts_text).map(|o| o.text)
}

/// Like [`execute`], but also returns the JSON-lines trace when the
/// command asked for one, and appends the `--stats` table to the text.
pub fn execute_full(
    command: &Command,
    program_text: &str,
    facts_text: Option<&str>,
) -> Result<ExecOutput, String> {
    let plain = |text: String| ExecOutput {
        text,
        trace_json: None,
        profile_json: None,
        metrics_text: None,
    };
    match command {
        Command::Help => Ok(plain(crate::args::USAGE.to_string())),
        Command::Repl => Ok(plain(
            "(interactive mode: run the `unchained` binary with `repl`)".into(),
        )),
        Command::Bench { .. } => Ok(plain(
            "(benchmark mode: run the `unchained` binary with `bench`)".into(),
        )),
        Command::Fuzz { .. } => Ok(plain(
            "(fuzzing mode: run the `unchained` binary with `fuzz`)".into(),
        )),
        Command::Ivm { .. } => Ok(plain(
            "(incremental mode: run the `unchained` binary with `ivm`)".into(),
        )),
        Command::Check { .. } => {
            let mut interner = Interner::new();
            let program = parse_program(program_text, &mut interner).map_err(|e| e.to_string())?;
            Ok(plain(render_check(&program, &interner)))
        }
        Command::Plan { syntactic, .. } => {
            let mut interner = Interner::new();
            let program = parse_program(program_text, &mut interner).map_err(|e| e.to_string())?;
            let input = match facts_text {
                Some(text) => parse_facts(text, &mut interner).map_err(|e| e.to_string())?,
                None => Instance::new(),
            };
            Ok(plain(render_plans(&program, &input, *syntactic, &interner)))
        }
        Command::Eval {
            semantics,
            output,
            max_stages,
            seed,
            policy,
            stats,
            memstats,
            trace_json,
            threads,
            morsel_size,
            profile,
            metrics,
            ..
        } => {
            let mut interner = Interner::new();
            let want_trace = *stats || *memstats || trace_json.is_some() || profile.is_some();
            let tracer = if want_trace {
                Tracer::enabled()
            } else {
                Tracer::off()
            };
            let tel = Telemetry::off().with_tracer(tracer);
            let wall = std::time::Instant::now();
            // Rendered space report plus its relation-bytes gauge,
            // captured before the answer is rendered away.
            let mut space: Option<(String, u64)> = None;
            let evaluated = if *semantics == Semantics::WhileLang {
                eval_while(
                    program_text,
                    facts_text,
                    output.as_deref(),
                    *max_stages,
                    *seed,
                    &mut interner,
                    tel.clone(),
                )
            } else {
                let program =
                    parse_program(program_text, &mut interner).map_err(|e| e.to_string())?;
                let input = match facts_text {
                    Some(text) => parse_facts(text, &mut interner).map_err(|e| e.to_string())?,
                    None => Instance::new(),
                };
                let mut options = EvalOptions::default().with_telemetry(tel.clone());
                if let Some(m) = max_stages {
                    options = options.with_max_stages(*m);
                }
                if let Some(n) = threads {
                    options = options.with_threads(*n);
                }
                if let Some(n) = morsel_size {
                    options = options.with_morsel_size(*n);
                }
                evaluate(
                    *semantics,
                    &program,
                    &input,
                    options,
                    *seed,
                    policy,
                    &mut interner,
                )
                .map(|answer| {
                    if *memstats {
                        space = Some(render_memstats(&answer, &interner));
                    }
                    render_answer(&answer, output.as_deref(), &program, &interner)
                })
            };
            let trace = tel.snapshot().map(|mut trace| {
                trace.interner_symbols = interner.len();
                trace
            });
            // Process-wide metrics: every run counts, errors separately.
            let engine = semantics.to_string();
            let registry = unchained_common::metrics();
            registry.counter_add("unchained_eval_runs_total", &[("engine", &engine)], 1);
            registry.histogram_observe(
                "unchained_eval_wall_seconds",
                &[("engine", &engine)],
                wall.elapsed().as_secs_f64(),
                &TIME_BUCKETS,
            );
            match evaluated {
                Ok(mut text) => {
                    if *stats {
                        if let Some(trace) = &trace {
                            text.push_str(&trace.render_table(&interner));
                        }
                    }
                    if *memstats {
                        if let Some((report, relation_bytes)) = &space {
                            text.push_str(report);
                            registry.gauge_set(
                                "unchained_relation_bytes",
                                &[("engine", &engine)],
                                *relation_bytes as f64,
                            );
                        }
                        if let Some(trace) = &trace {
                            text.push_str(&trace.fattest_deltas(&interner, 8));
                            registry.gauge_set(
                                "unchained_peak_bytes",
                                &[("engine", &engine)],
                                trace.bytes_peak as f64,
                            );
                            let delta_tuples: usize = trace
                                .stages
                                .iter()
                                .flat_map(|s| s.delta.iter().map(|(_, n)| n))
                                .sum();
                            registry.gauge_set(
                                "unchained_delta_tuples",
                                &[("engine", &engine)],
                                delta_tuples as f64,
                            );
                        }
                    }
                    let json = match trace_json {
                        Some(_) => trace.map(|t| t.to_json_lines(&interner)),
                        None => None,
                    };
                    let profile_json = profile.as_ref().map(|_| {
                        let roots = tel.tracer().finish();
                        registry.gauge_set(
                            "unchained_trace_spans",
                            &[("engine", &engine)],
                            span_count(&roots) as f64,
                        );
                        text.push_str(&hottest_rules(&roots, &interner, 10));
                        to_chrome_json(&roots, &interner)
                    });
                    let metrics_text = metrics.as_ref().map(|_| registry.render());
                    Ok(ExecOutput {
                        text,
                        trace_json: json,
                        profile_json,
                        metrics_text,
                    })
                }
                Err(message) => {
                    let mut message = name_relations(&message, &interner);
                    registry.counter_add("unchained_eval_errors_total", &[("engine", &engine)], 1);
                    // Engines finish their trace even on divergence or
                    // budget errors; surface it with the failure.
                    if *stats {
                        if let Some(trace) = trace {
                            if !trace.stages.is_empty() {
                                message.push('\n');
                                message.push_str(&trace.render_table(&interner));
                            }
                        }
                    }
                    Err(message)
                }
            }
        }
        Command::Explain { goal, .. } => {
            let mut interner = Interner::new();
            let program = parse_program(program_text, &mut interner).map_err(|e| e.to_string())?;
            let input = match facts_text {
                Some(text) => parse_facts(text, &mut interner).map_err(|e| e.to_string())?,
                None => Instance::new(),
            };
            let (pred, tuple) = parse_goal_fact(goal, &mut interner)?;
            let run =
                provenance::minimum_model_with_provenance(&program, &input, EvalOptions::default())
                    .map_err(|e| format!("{e} (explain requires pure Datalog)"))?;
            Ok(plain(provenance::explain(&run, pred, &tuple, &interner)))
        }
        Command::TraceCheck { expect, .. } => {
            let kinds: Vec<&str> = expect.iter().map(String::as_str).collect();
            let mut summary = validate_chrome_trace(program_text, &kinds)?;
            if !summary.ends_with('\n') {
                summary.push('\n');
            }
            Ok(plain(summary))
        }
    }
}

/// Parses a ground goal fact like `T(1,3)` into its predicate and tuple.
fn parse_goal_fact(
    goal: &str,
    interner: &mut Interner,
) -> Result<(unchained_common::Symbol, Tuple), String> {
    parse_ground_fact(goal, "explain", interner)
}

/// Parses a ground fact like `T(1,3)` into its predicate and tuple;
/// `context` names the caller (`explain` goals, `ivm` edits) in errors.
fn parse_ground_fact(
    text: &str,
    context: &str,
    interner: &mut Interner,
) -> Result<(unchained_common::Symbol, Tuple), String> {
    let text = text.trim().trim_end_matches('.');
    let parsed = parse_program(&format!("{text}."), interner).map_err(|e| e.to_string())?;
    let atom = parsed
        .rules
        .first()
        .filter(|r| r.body.is_empty() && r.head.len() == 1)
        .and_then(|r| r.head.first())
        .and_then(HeadLiteral::atom)
        .ok_or_else(|| format!("{context}: `{text}` is not a single fact"))?;
    let mut values = Vec::new();
    for term in &atom.args {
        match term {
            Term::Const(v) => values.push(*v),
            Term::Var(_) => return Err(format!("{context} needs a ground fact")),
        }
    }
    Ok((atom.pred, Tuple::from(values)))
}

/// Runs an edit script against an [`IncrementalSession`] and renders the
/// maintained answer (the `unchained ivm` batch driver).
///
/// Script syntax, one directive per line: `+Fact.` queues an insert,
/// `-Fact.` queues a retract, `poll` applies everything queued.
/// `%`-comments and blank lines are skipped. Edits still pending at
/// end-of-script are applied by one final implicit poll, so a script
/// with no `poll` lines still maintains the answer.
pub fn execute_ivm(
    program_text: &str,
    facts_text: Option<&str>,
    edits_text: &str,
    output: Option<&str>,
    max_stages: Option<usize>,
    threads: Option<usize>,
    stats: bool,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut interner = Interner::new();
    let program = parse_program(program_text, &mut interner).map_err(|e| e.to_string())?;
    let input = match facts_text {
        Some(text) => parse_facts(text, &mut interner).map_err(|e| e.to_string())?,
        None => Instance::new(),
    };
    let mut options = EvalOptions::default();
    if let Some(max) = max_stages {
        options = options.with_max_stages(max);
    }
    if let Some(threads) = threads {
        options = options.with_threads(threads);
    }
    let mut session = IncrementalSession::new(program, &input, options)
        .map_err(|e| name_relations(&e.to_string(), &interner))?;
    let mut out = String::new();
    let mut polls = 0usize;
    let mut poll = |session: &mut IncrementalSession, out: &mut String| -> Result<(), String> {
        let st = session.poll().map_err(|e| e.to_string())?;
        polls += 1;
        let _ = write!(
            out,
            "% poll {polls}: applied {} edit(s): +{} \u{2212}{} facts",
            st.applied, st.facts_added, st.facts_removed
        );
        if stats {
            let _ = write!(
                out,
                " (overdeleted {}, rederived {}, strata {} skipped / {} recomputed, \
                 {} rules fired)",
                st.overdeleted,
                st.rederived,
                st.strata_skipped,
                st.strata_recomputed,
                st.rules_fired
            );
        }
        out.push('\n');
        Ok(())
    };
    for (idx, raw) in edits_text.lines().enumerate() {
        let line = raw.split('%').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let located = |msg: String| format!("edit script line {lineno}: {msg}");
        if line == "poll" || line == ".poll" {
            poll(&mut session, &mut out).map_err(located)?;
            continue;
        }
        let (insert, fact) = if let Some(rest) = line.strip_prefix('+') {
            (true, rest)
        } else if let Some(rest) = line.strip_prefix('-') {
            (false, rest)
        } else {
            return Err(located(format!(
                "expected `+Fact.`, `-Fact.`, or `poll`, got `{line}`"
            )));
        };
        let (pred, tuple) = parse_ground_fact(fact, "edit", &mut interner).map_err(located)?;
        let queued = if insert {
            session.insert(pred, tuple)
        } else {
            session.retract(pred, tuple)
        };
        queued.map_err(|e| located(name_relations(&e.to_string(), &interner)))?;
    }
    if session.pending_edits() > 0 {
        poll(&mut session, &mut out)?;
    }
    out.push_str(&render_instance(
        session.instance(),
        output,
        session.program(),
        &interner,
    ));
    Ok(out)
}

/// Total number of spans in a forest (for the `unchained_trace_spans`
/// gauge).
fn span_count(roots: &[unchained_common::Span]) -> usize {
    roots.iter().map(|s| 1 + span_count(&s.children)).sum()
}

/// Renders the `--memstats` space report for an answer and returns it
/// with its relation-bytes total (the `unchained_relation_bytes` gauge).
/// Three-valued answers report on the true facts, effect enumerations
/// on the possibility instance.
fn render_memstats(answer: &Answer, interner: &Interner) -> (String, u64) {
    let instance = match answer {
        Answer::Instance(instance, _) => instance,
        Answer::ThreeValued(model) => &model.true_facts,
        Answer::Effects { poss, .. } => poss,
    };
    let report = SpaceReport::for_instance(instance, interner);
    let mut out = report.render();
    out.push_str(&report.fattest_relations(8));
    (out, report.relation_bytes())
}

/// Evaluates a while-language program file.
#[allow(clippy::too_many_arguments)]
fn eval_while(
    program_text: &str,
    facts_text: Option<&str>,
    output: Option<&str>,
    max_stages: Option<usize>,
    seed: u64,
    interner: &mut Interner,
    telemetry: Telemetry,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let (program, _) = parse_while_program(program_text, interner).map_err(|e| e.to_string())?;
    let input = match facts_text {
        Some(text) => parse_facts(text, interner).map_err(|e| e.to_string())?,
        None => Instance::new(),
    };
    let max = max_stages.unwrap_or(1_000_000);
    // Deterministic seeded LCG drives the witness operator if present.
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut chooser = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % n
    };
    let needs_chooser = program.has_witness();
    let result = if needs_chooser {
        unchained_while::run_traced(&program, &input, max, Some(&mut chooser), telemetry)
    } else {
        unchained_while::run_traced(&program, &input, max, None, telemetry)
    }
    .map_err(|e| e.to_string())?;
    let assigned = program.assigned();
    let shown = match output {
        Some(name) => match interner.get(name) {
            Some(sym) => result.instance.project_schema([sym]),
            None => Instance::new(),
        },
        None => result.instance.project_schema(assigned),
    };
    let mut out = shown.display(interner).to_string();
    let _ = writeln!(out, "% iterations: {}", result.iterations);
    Ok(out)
}

/// Renders every rule's compiled plan (and its semi-naive Δ variants)
/// without evaluating: the same [`Planner`] call the engines make, on
/// the counts the first stage plans on, so the full plans print as
/// stage 1 fires them. The catalog comes from the facts file (empty
/// without one, which degenerates cost ordering to most-bound-first).
fn render_plans(
    program: &Program,
    input: &Instance,
    syntactic: bool,
    interner: &Interner,
) -> String {
    use std::fmt::Write as _;
    use unchained_core::planner::{Catalog, Planner};
    let mode = if syntactic {
        unchained_core::PlanMode::Syntactic
    } else {
        unchained_core::PlanMode::Cost
    };
    let catalog = Catalog::from_instance(input);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "% mode: {}  catalog: {} fact(s)",
        if syntactic { "syntactic" } else { "cost" },
        catalog.total()
    );
    let mut planner = Planner::new(catalog, mode);
    let idb: unchained_common::FxHashSet<unchained_common::Symbol> =
        program.idb().into_iter().collect();
    for (i, rule) in program.rules.iter().enumerate() {
        let _ = writeln!(out, "rule {}: {}.", i + 1, rule.display(interner));
        for line in planner.plan_rule(rule).render(rule, interner).lines() {
            let _ = writeln!(out, "  {line}");
        }
        for delta in planner.seminaive_variants(rule, &|p| idb.contains(&p)) {
            let _ = writeln!(out, "  Δ variant:");
            for line in delta.render(rule, interner).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    let _ = writeln!(
        out,
        "% planner: {} join(s) pruned to index probes",
        planner.stats().joins_pruned
    );
    out
}

/// Rewrites each `sym#n` in an error message (how a relation
/// [`Symbol`](unchained_common::Symbol) prints without an interner) as
/// the relation's name in `interner`.
fn name_relations(message: &str, interner: &Interner) -> String {
    let mut out = String::with_capacity(message.len());
    let mut rest = message;
    while let Some(at) = rest.find("sym#") {
        let digits = rest[at + 4..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let end = at + 4 + digits;
        match rest[at + 4..end].parse::<usize>() {
            Ok(i) if i < interner.len() => {
                out.push_str(&rest[..at]);
                out.push_str(interner.name(unchained_common::Symbol::from_index(i)));
            }
            _ => out.push_str(&rest[..end]),
        }
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn render_check(program: &Program, interner: &Interner) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let names = |syms: Vec<unchained_common::Symbol>| {
        syms.iter()
            .map(|&s| interner.name(s).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "rules:    {}", program.rules.len());
    let _ = writeln!(out, "language: {}", classify(program));
    let _ = writeln!(out, "edb:      {}", names(program.edb()));
    let _ = writeln!(out, "idb:      {}", names(program.idb()));
    match DependencyGraph::build(program).stratify() {
        Ok(strat) => {
            let _ = writeln!(out, "strata:   {}", strat.strata_count());
        }
        Err(e) => {
            let _ = writeln!(out, "strata:   not stratifiable ({e})");
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn evaluate(
    semantics: Semantics,
    program: &Program,
    input: &Instance,
    options: EvalOptions,
    seed: u64,
    policy: &str,
    interner: &mut Interner,
) -> Result<Answer, String> {
    match semantics {
        Semantics::Naive => naive::minimum_model(program, input, options)
            .map(|r| Answer::Instance(r.instance, r.stages))
            .map_err(|e| e.to_string()),
        Semantics::Seminaive => seminaive::minimum_model(program, input, options)
            .map(|r| Answer::Instance(r.instance, r.stages))
            .map_err(|e| e.to_string()),
        Semantics::Stratified => stratified::eval(program, input, options)
            .map(|r| Answer::Instance(r.instance, r.stages))
            .map_err(|e| e.to_string()),
        Semantics::WellFounded => wellfounded::eval(program, input, options)
            .map(Answer::ThreeValued)
            .map_err(|e| e.to_string()),
        Semantics::Inflationary => inflationary::eval(program, input, options)
            .map(|r| Answer::Instance(r.instance, r.stages))
            .map_err(|e| e.to_string()),
        Semantics::Noninflationary => {
            let policy = match policy {
                "positive" => noninflationary::ConflictPolicy::PreferPositive,
                "negative" => noninflationary::ConflictPolicy::PreferNegative,
                "noop" => noninflationary::ConflictPolicy::NoOp,
                "undefined" => noninflationary::ConflictPolicy::Undefined,
                other => return Err(format!("unknown conflict policy `{other}`")),
            };
            noninflationary::eval(program, input, policy, options)
                .map(|r| Answer::Instance(r.instance, r.stages))
                .map_err(|e| e.to_string())
        }
        Semantics::Invention => invention::eval(program, input, options)
            .map(|r| {
                let stages = r.stages;
                Answer::Instance(r.instance, stages)
            })
            .map_err(|e| e.to_string()),
        Semantics::Nondet => {
            let compiled = NondetProgram::compile(program, true).map_err(|e| e.to_string())?;
            let mut chooser = RandomChooser::seeded(seed);
            unchained_nondet::run_once(&compiled, input, &mut chooser, options)
                .map(|r| Answer::Instance(r.instance, r.steps))
                .map_err(|e| e.to_string())
        }
        Semantics::WhileLang => {
            unreachable!("WhileLang is handled before Datalog parsing in execute()")
        }
        Semantics::Effect => {
            let compiled = NondetProgram::compile(program, true).map_err(|e| e.to_string())?;
            let effects =
                effect(&compiled, input, EffOptions::default()).map_err(|e| e.to_string())?;
            let pc =
                poss_cert(&compiled, input, EffOptions::default()).map_err(|e| e.to_string())?;
            let _ = interner; // symbols already interned during parse
            Ok(Answer::Effects {
                effects,
                poss: pc.poss,
                cert: pc.cert,
            })
        }
    }
}

enum Answer {
    Instance(Instance, usize),
    ThreeValued(wellfounded::WellFoundedModel),
    Effects {
        effects: Vec<Instance>,
        poss: Instance,
        cert: Instance,
    },
}

fn render_instance(
    instance: &Instance,
    output: Option<&str>,
    program: &Program,
    interner: &Interner,
) -> String {
    match output {
        Some(name) => match interner.get(name) {
            Some(sym) => instance.project_schema([sym]).display(interner).to_string(),
            None => String::new(),
        },
        None => instance
            .project_schema(program.idb())
            .display(interner)
            .to_string(),
    }
}

fn render_answer(
    answer: &Answer,
    output: Option<&str>,
    program: &Program,
    interner: &Interner,
) -> String {
    use std::fmt::Write as _;
    match answer {
        Answer::Instance(instance, stages) => {
            let mut out = render_instance(instance, output, program, interner);
            let _ = writeln!(out, "% stages: {stages}");
            out
        }
        Answer::ThreeValued(model) => {
            let mut out = String::new();
            let _ = writeln!(out, "% true facts:");
            out.push_str(&render_instance(
                &model.true_facts,
                output,
                program,
                interner,
            ));
            let _ = writeln!(out, "% unknown facts:");
            for (pred, tuple) in model.unknown_facts() {
                if output.is_some_and(|o| interner.get(o) != Some(pred)) {
                    continue;
                }
                if tuple.arity() == 0 {
                    let _ = writeln!(out, "{}", interner.name(pred));
                } else {
                    let _ = writeln!(out, "{}{}", interner.name(pred), tuple.display(interner));
                }
            }
            let _ = writeln!(out, "% rounds: {}", model.rounds);
            out
        }
        Answer::Effects {
            effects,
            poss,
            cert,
        } => {
            let mut out = String::new();
            let _ = writeln!(out, "% {} terminal instance(s)", effects.len());
            for (i, e) in effects.iter().enumerate() {
                let _ = writeln!(out, "% effect #{i}:");
                out.push_str(&render_instance(e, output, program, interner));
            }
            let _ = writeln!(out, "% poss:");
            out.push_str(&render_instance(poss, output, program, interner));
            let _ = writeln!(out, "% cert:");
            out.push_str(&render_instance(cert, output, program, interner));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_args, Command};

    fn eval_cmd(sem: &str) -> Command {
        let argv: Vec<String> = format!("eval --semantics {sem} p.dl f.dl")
            .split_whitespace()
            .map(String::from)
            .collect();
        parse_args(&argv).unwrap().command
    }

    #[test]
    fn end_to_end_seminaive() {
        let out = execute(
            &eval_cmd("seminaive"),
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3)."),
        )
        .unwrap();
        assert!(out.contains("T(1, 3)"));
        assert!(out.contains("% stages:"));
    }

    const TC: &str = "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).";

    #[test]
    fn ivm_script_polls_and_renders_maintained_answer() {
        let script = "\
% grow the chain, then cut it
+G(3,4).
poll
-G(1,2).   % severs 1 from the rest
poll
+G(4,5).   % left pending: the implicit final poll applies it
";
        let out = execute_ivm(TC, Some("G(1,2). G(2,3)."), script, None, None, None, true).unwrap();
        assert!(out.contains("% poll 1: applied 1 edit(s): +"), "{out}");
        assert!(out.contains("% poll 2:"), "{out}");
        assert!(out.contains("% poll 3:"), "{out}");
        assert!(out.contains("overdeleted"), "{out}");
        // After -G(1,2): no path from 1; after +G(3,4), +G(4,5): 2..5 chain.
        assert!(!out.contains("T(1, 2)"), "{out}");
        assert!(out.contains("T(2, 5)"), "{out}");
    }

    #[test]
    fn ivm_script_errors_carry_line_numbers() {
        let err =
            execute_ivm(TC, None, "+G(1,2).\nG(2,3).\n", None, None, None, false).unwrap_err();
        assert!(err.contains("edit script line 2"), "{err}");
        assert!(err.contains("expected `+Fact.`"), "{err}");
        // Edits must target edb relations, located to their line.
        let err = execute_ivm(TC, None, "\n+T(1,2).\n", None, None, None, false).unwrap_err();
        assert!(err.contains("edit script line 2"), "{err}");
        // A non-ground edit names the ivm context, not `explain`.
        let err = execute_ivm(TC, None, "-G(x,1).", None, None, None, false).unwrap_err();
        assert!(err.contains("edit needs a ground fact"), "{err}");
    }

    #[test]
    fn ivm_output_filter_projects_one_relation() {
        let out = execute_ivm(
            TC,
            Some("G(1,2)."),
            "+G(2,3).",
            Some("T"),
            None,
            None,
            false,
        )
        .unwrap();
        assert!(out.contains("T(1, 3)"), "{out}");
        assert!(!out.contains("G(1, 2)"), "{out}");
    }

    #[test]
    fn end_to_end_wellfounded_three_valued() {
        let out = execute(
            &eval_cmd("wellfounded"),
            "win(x) :- moves(x,y), !win(y).",
            Some("moves('a','b'). moves('b','a')."),
        )
        .unwrap();
        assert!(out.contains("% unknown facts:"));
        assert!(out.contains("win('a')"));
    }

    #[test]
    fn end_to_end_effect() {
        let out = execute(
            &eval_cmd("effect"),
            "!G(x,y) :- G(x,y), G(y,x).",
            Some("G(1,2). G(2,1)."),
        )
        .unwrap();
        assert!(out.contains("% 2 terminal instance(s)"));
        assert!(out.contains("% poss:"));
        assert!(out.contains("% cert:"));
    }

    #[test]
    fn check_renders_analysis() {
        let out = execute(
            &parse_args(&["check".to_string(), "p.dl".to_string()])
                .unwrap()
                .command,
            "T(x,y) :- G(x,y). CT(x,y) :- !T(x,y).",
            None,
        )
        .unwrap();
        assert!(out.contains("language: stratified Datalog¬"));
        assert!(out.contains("strata:   2"));
        assert!(out.contains("edb:      G"));
    }

    #[test]
    fn plan_command_renders_cost_ordered_plans() {
        let cmd = parse_args(&["plan", "p.dl", "f.dl"].map(String::from))
            .unwrap()
            .command;
        // B is much bigger than A: cost mode scans A first even though
        // the rule text names B first.
        let facts: String = (0..40)
            .map(|k| format!("B({k},{}).", k + 1))
            .chain(["A(1,2).".to_string()])
            .collect::<Vec<_>>()
            .join(" ");
        let out = execute(
            &cmd,
            "T(x,z) :- B(x,y), A(y,z). T(x,y) :- B(x,z), T(z,y).",
            Some(&facts),
        )
        .unwrap();
        assert!(out.contains("% mode: cost"), "{out}");
        assert!(
            out.contains("rule 1: T(x, z) :- B(x, y), A(y, z)."),
            "{out}"
        );
        assert!(out.contains("scan A("), "{out}");
        assert!(out.contains("join B("), "{out}");
        // The recursive rule shows its semi-naive delta variant.
        assert!(out.contains("Δ variant:"), "{out}");
        assert!(out.contains("Δ\n"), "{out}");
        assert!(out.contains("% planner:"), "{out}");
        // The syntactic reference leg keeps the textual order.
        let cmd = parse_args(&["plan", "p.dl", "f.dl", "--syntactic"].map(String::from))
            .unwrap()
            .command;
        let out = execute(&cmd, "T(x,z) :- B(x,y), A(y,z).", Some(&facts)).unwrap();
        assert!(out.contains("% mode: syntactic"), "{out}");
        assert!(out.contains("scan B("), "{out}");
        assert!(out.contains("join A("), "{out}");
    }

    /// `unchained plan` renders the full plans on the facts file's
    /// counts, as the first stage plans them: the recursive rule scans
    /// the still-empty `R` and seeks `G` on the column `R` binds.
    #[test]
    fn plan_command_renders_the_plans_stage_one_fires() {
        let cmd = parse_args(&["plan", "p.dl", "f.dl"].map(String::from))
            .unwrap()
            .command;
        let facts: String = (0..4)
            .map(|k| format!("S({k})."))
            .chain((0..2000).map(|k| format!("G({},{}).", k % 500, k)))
            .collect::<Vec<_>>()
            .join(" ");
        let out = execute(&cmd, "R(x) :- S(x). R(y) :- R(x), G(x,y).", Some(&facts)).unwrap();
        let rule2 = &out[out.find("rule 2:").expect("two rules")..];
        assert!(
            rule2.contains("  scan R(x)\n  join G(=x, y) seek\n  project R(y)\n"),
            "{out}"
        );
        assert!(
            rule2.contains("    scan R(x) Δ\n    join G(=x, y) seek\n"),
            "{out}"
        );
    }

    #[test]
    fn bad_policy_reported() {
        let argv: Vec<String> = "eval --semantics noninflationary --policy bogus p.dl"
            .split_whitespace()
            .map(String::from)
            .collect();
        let cmd = parse_args(&argv).unwrap().command;
        let err = execute(&cmd, "!A(x) :- A(x).", None).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn output_filter() {
        let argv: Vec<String> = "eval --semantics seminaive --output T p.dl"
            .split_whitespace()
            .map(String::from)
            .collect();
        let cmd = parse_args(&argv).unwrap().command;
        let out = execute(&cmd, "T(x) :- A(x). U(x) :- A(x). A(1).", None).unwrap();
        assert!(out.contains("T(1)"));
        assert!(!out.contains("U(1)"));
    }

    #[test]
    fn parse_error_propagates() {
        assert!(execute(&eval_cmd("naive"), "T(x :- G(x).", None).is_err());
    }

    fn eval_cmd_with(sem: &str, extra: &str) -> Command {
        let argv: Vec<String> = format!("eval --semantics {sem} p.dl f.dl {extra}")
            .split_whitespace()
            .map(String::from)
            .collect();
        parse_args(&argv).unwrap().command
    }

    #[test]
    fn stats_flag_appends_stage_table() {
        let out = execute_full(
            &eval_cmd_with("seminaive", "--stats"),
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3). G(3,4)."),
        )
        .unwrap();
        assert!(out.text.contains("T(1, 4)"));
        assert!(out.text.contains("engine: seminaive"), "{}", out.text);
        // Per-stage delta sizes: chain of 4 → deltas 3, 2, 1, 0.
        assert!(out.text.contains("T=3"), "{}", out.text);
        assert!(out.text.contains("T=1"), "{}", out.text);
        assert!(out.text.contains("wall:"), "{}", out.text);
        // The index-maintenance gauges and storage shape ride along.
        assert!(out.text.contains("index cache:"), "{}", out.text);
        assert!(out.text.contains("reuse:"), "{}", out.text);
        assert!(out.text.contains("note: storage:"), "{}", out.text);
        // No --trace-json requested → no JSON payload.
        assert!(out.trace_json.is_none());
    }

    #[test]
    fn trace_json_flag_yields_json_lines() {
        let out = execute_full(
            &eval_cmd_with("seminaive", "--trace-json out.jsonl"),
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3)."),
        )
        .unwrap();
        // The answer text stays clean (no table without --stats)…
        assert!(!out.text.contains("engine:"));
        // …and the JSON-lines payload is present and well-formed.
        let json = out.trace_json.expect("trace json");
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.len() >= 2, "{json}");
        assert!(lines[0].starts_with("{\"type\":\"run\""), "{json}");
        assert!(lines[0].contains("\"engine\":\"seminaive\""), "{json}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[1].contains("\"type\":\"stage\""), "{json}");
    }

    #[test]
    fn stats_survive_divergence_errors() {
        let err = execute_full(
            &eval_cmd_with("noninflationary", "--stats"),
            "T(0) :- T(1). !T(1) :- T(1). T(1) :- T(0). !T(0) :- T(0).",
            Some("T(0)."),
        )
        .unwrap_err();
        // The flip-flop diverges, but the stats table rides along with
        // the error so the period-2 cycle is visible.
        assert!(err.contains("diverge"), "{err}");
        assert!(err.contains("engine: noninflationary"), "{err}");
        assert!(err.contains("period 2"), "{err}");
    }

    #[test]
    fn threads_flag_output_byte_identical_to_sequential() {
        let prog = "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).";
        let facts = "G(1,2). G(2,3). G(3,4). G(4,5). G(5,6).";
        let seq = execute(
            &eval_cmd_with("seminaive", "--threads 1"),
            prog,
            Some(facts),
        )
        .unwrap();
        let par = execute(
            &eval_cmd_with("seminaive", "--threads 4"),
            prog,
            Some(facts),
        )
        .unwrap();
        assert_eq!(seq, par);
        assert!(par.contains("T(1, 6)"));
        // The parallel run surfaces its thread count in the stats table.
        let out = execute_full(
            &eval_cmd_with("seminaive", "--threads 4 --stats"),
            prog,
            Some(facts),
        )
        .unwrap();
        assert!(out.text.contains("threads: 4"), "{}", out.text);
    }

    #[test]
    fn memstats_flag_appends_space_report() {
        let out = execute_full(
            &eval_cmd_with("seminaive", "--memstats --metrics out.prom"),
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3). G(3,4)."),
        )
        .unwrap();
        assert!(out.text.contains("space breakdown"), "{}", out.text);
        assert!(out.text.contains("additive: ok"), "{}", out.text);
        assert!(out.text.contains("T/2"), "{}", out.text);
        assert!(out.text.contains("fattest relations"), "{}", out.text);
        assert!(out.text.contains("fattest deltas"), "{}", out.text);
        // The space gauges land in the Prometheus registry.
        let prom = out.metrics_text.expect("metrics text");
        assert!(
            prom.contains("unchained_relation_bytes{engine=\"seminaive\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("unchained_peak_bytes{engine=\"seminaive\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("unchained_delta_tuples{engine=\"seminaive\"}"),
            "{prom}"
        );
        // Without the flag the report stays out of the output.
        let out =
            execute_full(&eval_cmd("seminaive"), "T(x,y) :- G(x,y).", Some("G(1,2).")).unwrap();
        assert!(!out.text.contains("space breakdown"));
    }

    #[test]
    fn memstats_report_identical_at_threads_1_and_4() {
        let prog = "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).";
        let facts = "G(1,2). G(2,3). G(3,4). G(4,5). G(5,1). G(2,5).";
        let seq = execute_full(
            &eval_cmd_with("seminaive", "--memstats --threads 1"),
            prog,
            Some(facts),
        )
        .unwrap();
        let par = execute_full(
            &eval_cmd_with("seminaive", "--memstats --threads 4"),
            prog,
            Some(facts),
        )
        .unwrap();
        assert_eq!(seq.text, par.text);
        assert!(seq.text.contains("additive: ok"), "{}", seq.text);
    }

    #[test]
    fn memstats_covers_three_valued_answers() {
        let out = execute_full(
            &eval_cmd_with("wellfounded", "--memstats"),
            "win(x) :- moves(x,y), !win(y).",
            Some("moves('a','b'). moves('b','a')."),
        )
        .unwrap();
        assert!(out.text.contains("space breakdown"), "{}", out.text);
        assert!(out.text.contains("additive: ok"), "{}", out.text);
    }

    #[test]
    fn stats_flag_off_keeps_output_clean() {
        let out =
            execute_full(&eval_cmd("seminaive"), "T(x,y) :- G(x,y).", Some("G(1,2).")).unwrap();
        assert!(!out.text.contains("engine:"));
        assert!(out.trace_json.is_none());
    }

    #[test]
    fn profile_flag_yields_chrome_trace() {
        let out = execute_full(
            &eval_cmd_with("seminaive", "--profile out.trace.json"),
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3). G(3,4)."),
        )
        .unwrap();
        // The answer text gains the hottest-rules table…
        assert!(out.text.contains("hottest rules"), "{}", out.text);
        // …and the payload is a valid Chrome trace with the core kinds.
        let json = out.profile_json.expect("profile json");
        let summary = validate_chrome_trace(&json, &["eval", "stratum", "round", "rule"]).unwrap();
        assert!(summary.contains("eval"), "{summary}");
        assert!(out.trace_json.is_none());
        assert!(out.metrics_text.is_none());
    }

    #[test]
    fn metrics_flag_renders_prometheus_text() {
        let out = execute_full(
            &eval_cmd_with("naive", "--metrics out.prom"),
            "T(x) :- G(x).",
            Some("G(1)."),
        )
        .unwrap();
        let prom = out.metrics_text.expect("metrics text");
        assert!(
            prom.contains("unchained_eval_runs_total{engine=\"naive\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE unchained_eval_wall_seconds histogram"),
            "{prom}"
        );
        assert!(
            prom.contains("unchained_eval_wall_seconds_bucket"),
            "{prom}"
        );
    }

    #[test]
    fn explain_command_prints_derivation_tree() {
        let cmd = parse_args(&["explain", "p.dl", "f.dl", "T(1,3)"].map(String::from))
            .unwrap()
            .command;
        let out = execute(
            &cmd,
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            Some("G(1,2). G(2,3)."),
        )
        .unwrap();
        assert!(out.contains("⊢ T(1, 3)"), "{out}");
        assert!(out.contains("(given)"), "{out}");
        // Non-facts and non-ground goals are rejected.
        let cmd = parse_args(&["why", "p.dl", "T(x,y)"].map(String::from))
            .unwrap()
            .command;
        let err = execute(&cmd, "T(x,y) :- G(x,y).", None).unwrap_err();
        assert!(err.contains("ground"), "{err}");
    }

    #[test]
    fn trace_check_validates_profile_output() {
        let out = execute_full(
            &eval_cmd_with("seminaive", "--profile p.json"),
            "T(x,y) :- G(x,y).",
            Some("G(1,2)."),
        )
        .unwrap();
        let json = out.profile_json.unwrap();
        let cmd =
            parse_args(&["trace-check", "t.json", "--expect", "eval,round"].map(String::from))
                .unwrap()
                .command;
        // The trace file content travels in the program-text slot.
        let summary = execute(&cmd, &json, None).unwrap();
        assert!(summary.contains("kinds:"), "{summary}");
        // A missing kind or broken JSON is an error (seminaive emits no
        // Phase spans).
        let cmd = parse_args(&["trace-check", "t.json", "--expect", "phase"].map(String::from))
            .unwrap()
            .command;
        assert!(execute(&cmd, &json, None).is_err());
        let cmd = parse_args(&["trace-check", "t.json"].map(String::from))
            .unwrap()
            .command;
        assert!(execute(&cmd, "not json", None).is_err());
    }

    #[test]
    fn whilelang_stats_report_loop_iterations() {
        let out = execute_full(
            &eval_cmd_with("whilelang", "--stats"),
            "while change do\n  T += { x, y | G(x,y) or exists z (T(x,z) & G(z,y)) };\nend",
            Some("G(1,2). G(2,3). G(3,4)."),
        )
        .unwrap();
        assert!(out.text.contains("engine: while"), "{}", out.text);
        assert!(out.text.contains("loop iterations:"), "{}", out.text);
    }
}
