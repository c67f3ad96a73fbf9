//! The differential oracle: one program, every applicable engine, all
//! answers compared.
//!
//! Per campaign the matrix is:
//!
//! | campaign | engines | metamorphic checks |
//! |---|---|---|
//! | positive | naive, semi-naive, stratified, magic, semi-naive@{2,4,8}, inflationary (plain, traced), Datalog¬¬, the definitional least fixpoint ([`crate::spec`]), while-translation | edb-monotonicity, rule permutation, stage-count equality |
//! | negation | stratified, well-founded@{1,4}, stratified@{2,4,8}, inflationary@{1,4} against the definitional Datalog¬¬ stages, inflationary-traced, Datalog¬¬@{1,4}, while-translation | rule/stratum permutation, stage/round-count equality |
//! | invention | invention ×2 (determinism), invention@4 | — |
//! | nondet | seeded run ×2 (determinism), poss/cert containment | — |
//! | planner | stratified syntactic-plan vs cost-plan, cost-plan@{2,4,8}, syntactic-plan@4 | stage-count equality |
//! | edits | incremental session vs from-scratch stratified, after every poll of a seeded edit script, @{1,4} | edb-mirror fidelity |
//! | scale | stratified@1 vs morsel-parallel@{2,4,8} on 10^4–10^5-fact layered digraphs, plus an incremental edit-script pass@4 | stage-count equality, edb-mirror fidelity |
//! | unstratified | well-founded, inflationary and Datalog¬¬ under all four conflict policies, each @{1,4} against the definitional reference evaluator ([`crate::spec`]) | round/stage-count equality, divergence and contradiction stages |
//!
//! A `Fault` injects a deliberate wrong answer into one extra matrix
//! entry — the shrinker's self-test: with the fault enabled the oracle
//! must diverge on any program that derives at least one idb fact, and
//! the shrinker must walk that divergence down to a ≤ 3-rule repro.

use unchained_common::{Instance, Interner, Rng, Symbol, Tuple, Value};
use unchained_core::noninflationary::ConflictPolicy::{self, PreferPositive};
use unchained_core::{
    inflationary, invention, magic, naive, noninflationary, seminaive, stratified, wellfounded,
    EvalError, EvalOptions, FixpointRun, IncrementalSession, PlanMode,
};
use unchained_nondet::{poss_cert, run_once, EffOptions, NondetProgram, RandomChooser};
use unchained_parser::{HeadLiteral, Program};

use crate::grammar::Campaign;
use crate::spec;
use crate::translate::to_while;

/// Deliberate engine fault for the shrinker self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// All engines honest.
    None,
    /// One extra matrix entry drops the largest derived idb fact —
    /// wrong on every program whose answer is nonempty.
    DropMaxFact,
}

/// A detected disagreement between two oracle legs.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Name of the reference leg.
    pub left: &'static str,
    /// Name of the disagreeing leg.
    pub right: &'static str,
    /// Human-readable detail (fact counts, stage counts, …).
    pub detail: String,
}

/// What one oracle invocation did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Engine invocations performed.
    pub oracle_runs: usize,
    /// Pairwise comparisons / property checks performed.
    pub comparisons: usize,
    /// First disagreement found, if any.
    pub divergence: Option<Divergence>,
    /// True if the reference engine could not evaluate the program
    /// (budget); the program is skipped, not counted as divergent.
    pub skipped: bool,
}

impl Outcome {
    fn diverge(&mut self, left: &'static str, right: &'static str, detail: String) {
        if self.divergence.is_none() {
            self.divergence = Some(Divergence {
                left,
                right,
                detail,
            });
        }
    }
}

fn opts(threads: usize) -> EvalOptions {
    // Thread count is always set explicitly so FUZZ output is identical
    // whether or not UNCHAINED_THREADS is exported.
    EvalOptions::default()
        .with_max_stages(MAX_STAGES)
        .with_max_facts(100_000)
        .with_threads(threads)
}

/// The input instance with every program relation present (empty where
/// the generator produced no facts), so all engines and the while
/// interpreter see the same schema.
fn prepared(program: &Program, input: &Instance) -> Instance {
    let mut out = input.clone();
    if let Ok(schema) = program.schema() {
        for pred in program.edb() {
            if let Some(arity) = schema.arity(pred) {
                out.ensure(pred, arity);
            }
        }
    }
    out
}

/// All facts of `instance`, in deterministic (symbol, tuple) order.
pub(crate) fn fact_list(instance: &Instance) -> Vec<(Symbol, Tuple)> {
    let mut out = Vec::new();
    for (sym, rel) in instance.iter() {
        for t in rel.sorted().iter() {
            out.push((sym, t.clone()));
        }
    }
    out
}

/// Rebuilds `instance` without the facts selected by `drop`.
pub(crate) fn without_facts(instance: &Instance, drop: impl Fn(usize) -> bool) -> Instance {
    let mut out = Instance::new();
    for (sym, rel) in instance.iter() {
        out.ensure(sym, rel.arity());
    }
    for (i, (sym, tuple)) in fact_list(instance).into_iter().enumerate() {
        if !drop(i) {
            out.insert_fact(sym, tuple);
        }
    }
    out
}

/// The faulty leg: the reference answer minus its largest fact.
fn drop_max_fact(answer: &Instance) -> Instance {
    let n = fact_list(answer).len();
    if n == 0 {
        return answer.clone();
    }
    without_facts(answer, |i| i == n - 1)
}

fn compare(
    outcome: &mut Outcome,
    left: &'static str,
    right: &'static str,
    a: &Instance,
    b: &Instance,
) {
    outcome.comparisons += 1;
    if !a.same_facts(b) {
        outcome.diverge(
            left,
            right,
            format!("{} vs {} idb facts", a.fact_count(), b.fact_count()),
        );
    }
}

/// Runs the full oracle matrix for `campaign` on one program/instance
/// pair. `interner` must be the one the program was built against
/// (magic rewriting interns adorned predicate names); `run_seed` drives
/// the nondeterministic campaign's seeded choosers.
pub fn check(
    campaign: Campaign,
    program: &Program,
    input: &Instance,
    interner: &mut Interner,
    run_seed: u64,
    fault: Fault,
) -> Outcome {
    let input = prepared(program, input);
    match campaign {
        Campaign::Positive => positive(program, &input, interner, fault),
        Campaign::Negation => negation(program, &input, fault),
        Campaign::Invention => invention_campaign(program, &input, fault),
        Campaign::Nondet => nondet(program, &input, run_seed, fault),
        Campaign::Planner => planner(program, &input, fault),
        Campaign::EditScript => edit_script_campaign(program, &input, run_seed, fault),
        Campaign::Scale => scale_campaign(program, &input, run_seed, fault),
        Campaign::Unstratified => unstratified(program, &input, fault),
    }
}

/// One queued EDB edit: `true` inserts the tuple, `false` retracts it.
type Edit = (bool, Symbol, Tuple);

/// Derives a deterministic edit script from `seed`: two to twelve
/// batches of inserts and retracts against the program's edb relations.
/// Retractions target facts actually present after the preceding edits
/// (tracked in a mirror), so the delete/rederive machinery is genuinely
/// exercised; insertions draw from a slightly larger universe than the
/// generator's, so both redundant and novel facts occur. Some
/// insertions re-insert a fact an earlier batch retracted, so sessions
/// revive tombstoned facts — one fact possibly again and again — and
/// compact small relations that retractions left mostly dead.
fn edit_script(program: &Program, input: &Instance, seed: u64) -> Vec<Vec<Edit>> {
    let Ok(schema) = program.schema() else {
        return Vec::new();
    };
    let mut preds: Vec<(Symbol, usize)> = program
        .edb()
        .into_iter()
        .filter_map(|p| schema.arity(p).map(|a| (p, a)))
        .collect();
    preds.sort_unstable_by_key(|&(p, _)| p);
    if preds.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng::seeded(seed);
    let mut mirror = input.clone();
    let batches = 2 + rng.gen_index(11);
    let mut script = Vec::with_capacity(batches);
    // Facts retracted by earlier batches, candidates for re-insertion.
    let mut retracted: Vec<(Symbol, Tuple)> = Vec::new();
    for _ in 0..batches {
        let mut batch = Vec::new();
        for _ in 0..1 + rng.gen_index(3) {
            let (pred, arity) = preds[rng.gen_index(preds.len())];
            let existing: Vec<Tuple> = mirror
                .relation(pred)
                .map(|r| r.sorted().iter().cloned().collect())
                .unwrap_or_default();
            if !existing.is_empty() && rng.gen_bool(0.5) {
                let tuple = existing[rng.gen_index(existing.len())].clone();
                mirror.retract_fact(pred, &tuple);
                batch.push((false, pred, tuple));
            } else if !retracted.is_empty() && rng.gen_bool(0.4) {
                let (pred, tuple) = retracted[rng.gen_index(retracted.len())].clone();
                mirror.insert_fact(pred, tuple.clone());
                batch.push((true, pred, tuple));
            } else {
                let tuple: Tuple = (0..arity)
                    .map(|_| Value::Int(rng.gen_range_i64(0, 6)))
                    .collect();
                mirror.insert_fact(pred, tuple.clone());
                batch.push((true, pred, tuple));
            }
        }
        retracted.extend(
            batch
                .iter()
                .filter(|(insert, _, _)| !insert)
                .map(|(_, pred, tuple)| (*pred, tuple.clone())),
        );
        script.push(batch);
    }
    script
}

/// Edit-script differential: an [`IncrementalSession`] fed a seeded
/// script of insert/retract batches must agree with a from-scratch
/// stratified evaluation of the edited edb after **every** poll — both
/// the idb answer and the maintained edb mirror — at one and at four
/// worker threads.
fn edit_script_campaign(
    program: &Program,
    input: &Instance,
    run_seed: u64,
    fault: Fault,
) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    if stratified::eval(program, input, opts(1)).is_err() {
        out.skipped = true;
        return out;
    }
    let script = edit_script(program, input, run_seed);
    if script.is_empty() {
        out.skipped = true;
        return out;
    }

    let mut final_answer = None;
    for threads in [1usize, 4] {
        out.oracle_runs += 1;
        let leg = if threads == 1 { "ivm" } else { "ivm-parallel" };
        let mut session = match IncrementalSession::new(program.clone(), input, opts(threads)) {
            Ok(s) => s,
            Err(e) => {
                out.diverge("from-scratch", leg, format!("session init failed: {e}"));
                return out;
            }
        };
        let mut edb = input.clone();
        for batch in &script {
            for (insert, pred, tuple) in batch {
                let queued = if *insert {
                    edb.insert_fact(*pred, tuple.clone());
                    session.insert(*pred, tuple.clone())
                } else {
                    edb.retract_fact(*pred, tuple);
                    session.retract(*pred, tuple.clone())
                };
                if let Err(e) = queued {
                    out.diverge("from-scratch", leg, format!("edit rejected: {e}"));
                    return out;
                }
            }
            out.oracle_runs += 1;
            if let Err(e) = session.poll() {
                out.diverge("from-scratch", leg, format!("poll failed: {e}"));
                return out;
            }
            let Ok(scratch) = stratified::eval(program, &edb, opts(1)) else {
                // The edited instance blew a budget the initial run fit
                // in; nothing sound to compare against.
                out.skipped = true;
                return out;
            };
            // The whole maintained instance (edb mirror + idb) and the
            // mirror alone: the second isolates edit-application bugs
            // from maintenance bugs.
            compare(
                &mut out,
                "from-scratch",
                leg,
                &scratch.instance,
                session.instance(),
            );
            compare(&mut out, "edited-edb", leg, &edb, session.edb());
        }
        if threads == 1 {
            final_answer = Some(session.answer());
        }
    }

    if let Some(answer) = final_answer {
        fault_leg(&mut out, &answer, fault);
    }
    out
}

/// Budgets for the scale campaign: the layered digraphs carry up to
/// 10^5 edb facts and reachability-shaped idbs of the same order, so
/// the fact ceiling is raised well clear of any honest run while still
/// catching a runaway fixpoint.
fn scale_opts(threads: usize) -> EvalOptions {
    EvalOptions::default()
        .with_max_stages(500)
        .with_max_facts(2_000_000)
        .with_threads(threads)
}

/// Scale differential: the morsel-parallel legs must be invisible at
/// 10^4–10^5-fact size — byte-identical model *and* stage count at
/// 2/4/8 worker threads against the sequential reference — and an
/// incremental session driven by a seeded edit script over the large
/// edb must agree with from-scratch evaluation after every poll.
///
/// This is the fuzzing face of the columnar/morsel tentpole: segment
/// freezing, `iter_since` delta cursors, and morsel partitioning all
/// get exercised at sizes the small-grammar campaigns never reach.
fn scale_campaign(program: &Program, input: &Instance, run_seed: u64, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    let Ok(reference) = stratified::eval(program, input, scale_opts(1)) else {
        out.skipped = true;
        return out;
    };
    let answer = reference.answer(program);

    for threads in [2usize, 4, 8] {
        out.oracle_runs += 1;
        match stratified::eval(program, input, scale_opts(threads)) {
            Ok(run) => {
                compare(
                    &mut out,
                    "stratified",
                    "morsel-parallel",
                    &answer,
                    &run.answer(program),
                );
                out.comparisons += 1;
                if run.stages != reference.stages {
                    out.diverge(
                        "stratified",
                        "morsel-parallel",
                        format!(
                            "stages {} at 1 thread vs {} at {threads}",
                            reference.stages, run.stages
                        ),
                    );
                }
            }
            Err(e) => out.diverge(
                "stratified",
                "morsel-parallel",
                format!("threads={threads} failed: {e}"),
            ),
        }
    }

    // Incremental pass: a short edit script against the large edb,
    // maintained at 4 threads, checked against from-scratch after
    // every poll. Retractions of long-standing facts force the
    // delete/rederive machinery through frozen columnar segments.
    let script = scale_edit_script(program, input, run_seed);
    if !script.is_empty() {
        out.oracle_runs += 1;
        match IncrementalSession::new(program.clone(), input, scale_opts(4)) {
            Ok(mut session) => {
                let mut edb = input.clone();
                'polls: for batch in &script {
                    for (insert, pred, tuple) in batch {
                        let queued = if *insert {
                            edb.insert_fact(*pred, tuple.clone());
                            session.insert(*pred, tuple.clone())
                        } else {
                            edb.retract_fact(*pred, tuple);
                            session.retract(*pred, tuple.clone())
                        };
                        if let Err(e) = queued {
                            out.diverge("from-scratch", "ivm-scale", format!("edit rejected: {e}"));
                            break 'polls;
                        }
                    }
                    out.oracle_runs += 1;
                    if let Err(e) = session.poll() {
                        out.diverge("from-scratch", "ivm-scale", format!("poll failed: {e}"));
                        break 'polls;
                    }
                    let Ok(scratch) = stratified::eval(program, &edb, scale_opts(1)) else {
                        break 'polls;
                    };
                    compare(
                        &mut out,
                        "from-scratch",
                        "ivm-scale",
                        &scratch.instance,
                        session.instance(),
                    );
                    compare(&mut out, "edited-edb", "ivm-scale", &edb, session.edb());
                }
            }
            Err(e) => out.diverge(
                "from-scratch",
                "ivm-scale",
                format!("session init failed: {e}"),
            ),
        }
    }

    fault_leg(&mut out, &answer, fault);
    out
}

/// Edit script over a scale instance: two batches of inserts and
/// retracts drawn from the instance's own active domain (the small
/// campaigns' hard-coded universe would never hit a 10^4-node graph).
fn scale_edit_script(program: &Program, input: &Instance, seed: u64) -> Vec<Vec<Edit>> {
    let Ok(schema) = program.schema() else {
        return Vec::new();
    };
    let mut preds: Vec<(Symbol, usize)> = program
        .edb()
        .into_iter()
        .filter_map(|p| schema.arity(p).map(|a| (p, a)))
        .collect();
    preds.sort_unstable_by_key(|&(p, _)| p);
    let adom = input.adom_sorted();
    if preds.is_empty() || adom.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng::seeded(seed);
    let mut mirror = input.clone();
    let mut script = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut batch = Vec::new();
        for _ in 0..1 + rng.gen_index(3) {
            let (pred, arity) = preds[rng.gen_index(preds.len())];
            let existing: Vec<Tuple> = mirror
                .relation(pred)
                .map(|r| r.sorted().iter().cloned().collect())
                .unwrap_or_default();
            if !existing.is_empty() && rng.gen_bool(0.5) {
                let tuple = existing[rng.gen_index(existing.len())].clone();
                mirror.retract_fact(pred, &tuple);
                batch.push((false, pred, tuple));
            } else {
                let tuple: Tuple = (0..arity)
                    .map(|_| adom[rng.gen_index(adom.len())])
                    .collect();
                mirror.insert_fact(pred, tuple.clone());
                batch.push((true, pred, tuple));
            }
        }
        script.push(batch);
    }
    script
}

/// Planned-vs-unplanned: the cost-based join ordering must be a pure
/// optimization. The syntactic (most-bound-first) reference ordering
/// and the cost-based ordering must agree on the model *and* the stage
/// count, sequentially and at every thread count.
fn planner(program: &Program, input: &Instance, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    let syntactic = |threads| opts(threads).with_plan_mode(PlanMode::Syntactic);
    let costed = |threads| opts(threads).with_plan_mode(PlanMode::Cost);
    let Ok(reference) = stratified::eval(program, input, syntactic(1)) else {
        out.skipped = true;
        return out;
    };
    let answer = reference.answer(program);

    // Cost-planned leg, sequential: same model, same stage count.
    out.oracle_runs += 1;
    match stratified::eval(program, input, costed(1)) {
        Ok(run) => {
            compare(
                &mut out,
                "syntactic-plan",
                "cost-plan",
                &answer,
                &run.answer(program),
            );
            out.comparisons += 1;
            if run.stages != reference.stages {
                out.diverge(
                    "syntactic-plan",
                    "cost-plan",
                    format!("stages {} vs {}", reference.stages, run.stages),
                );
            }
        }
        Err(e) => out.diverge(
            "syntactic-plan",
            "cost-plan",
            format!("cost plan failed: {e}"),
        ),
    }

    // Cost-planned parallel legs: delta-first plans still partition the
    // per-round matches exactly, so the model stays byte-identical.
    for threads in [2usize, 4, 8] {
        out.oracle_runs += 1;
        match stratified::eval(program, input, costed(threads)) {
            Ok(run) => compare(
                &mut out,
                "syntactic-plan",
                "cost-plan-parallel",
                &answer,
                &run.answer(program),
            ),
            Err(e) => out.diverge(
                "syntactic-plan",
                "cost-plan-parallel",
                format!("threads={threads} failed: {e}"),
            ),
        }
    }

    // The syntactic ordering is itself thread-invariant.
    out.oracle_runs += 1;
    match stratified::eval(program, input, syntactic(4)) {
        Ok(run) => compare(
            &mut out,
            "syntactic-plan",
            "syntactic-plan-parallel",
            &answer,
            &run.answer(program),
        ),
        Err(e) => out.diverge(
            "syntactic-plan",
            "syntactic-plan-parallel",
            format!("threads=4 failed: {e}"),
        ),
    }

    fault_leg(&mut out, &answer, fault);
    out
}

fn positive(program: &Program, input: &Instance, interner: &mut Interner, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    let Ok(reference) = seminaive::minimum_model(program, input, opts(1)) else {
        out.skipped = true;
        return out;
    };
    let answer = reference.answer(program);

    // Naive fixpoint: same minimum model, stage counts may differ.
    out.oracle_runs += 1;
    match naive::minimum_model(program, input, opts(1)) {
        Ok(run) => {
            compare(
                &mut out,
                "seminaive",
                "naive",
                &answer,
                &run.answer(program),
            );
            // On positive programs the inflationary and Datalog¬¬ stages
            // are exactly the naive ones.
            let infl = inflationary::eval(program, input, opts(1));
            stage_leg(&mut out, "naive", "inflationary", &run, program, infl);
            let traced = inflationary_traced(program, input);
            stage_leg(
                &mut out,
                "naive",
                "inflationary-traced",
                &run,
                program,
                traced,
            );
            let negneg = noninflationary::eval(program, input, PreferPositive, opts(1));
            stage_leg(&mut out, "naive", "noninflationary", &run, program, negneg);
        }
        Err(e) => out.diverge("seminaive", "naive", format!("naive failed: {e}")),
    }

    // Stratified evaluation degenerates to semi-naive on one stratum.
    out.oracle_runs += 1;
    match stratified::eval(program, input, opts(1)) {
        Ok(run) => compare(
            &mut out,
            "seminaive",
            "stratified",
            &answer,
            &run.answer(program),
        ),
        Err(e) => out.diverge("seminaive", "stratified", format!("stratified failed: {e}")),
    }

    // Parallel legs promise byte-identical answers *and* stage counts.
    for threads in [2usize, 4, 8] {
        out.oracle_runs += 1;
        match seminaive::minimum_model(program, input, opts(threads)) {
            Ok(run) => {
                compare(
                    &mut out,
                    "seminaive",
                    "seminaive-parallel",
                    &answer,
                    &run.answer(program),
                );
                out.comparisons += 1;
                if run.stages != reference.stages {
                    out.diverge(
                        "seminaive",
                        "seminaive-parallel",
                        format!(
                            "stages {} at 1 thread vs {} at {threads}",
                            reference.stages, run.stages
                        ),
                    );
                }
            }
            Err(e) => out.diverge(
                "seminaive",
                "seminaive-parallel",
                format!("threads={threads} failed: {e}"),
            ),
        }
    }

    // Magic rewriting on a single-binding query over the first idb
    // predicate: the rewritten program must report exactly the
    // reference tuples that match the binding.
    let idb = program.idb();
    let mut adom: Vec<Value> = input.adom_sorted();
    adom.extend(program.adom());
    adom.sort_unstable();
    adom.dedup();
    if let (Some(&query_pred), Some(&bind)) = (idb.first(), adom.first()) {
        if let Ok(schema) = program.schema() {
            let arity = schema.arity(query_pred).unwrap_or(0);
            let mut bindings = vec![None; arity];
            if arity > 0 {
                bindings[0] = Some(bind);
            }
            let query = magic::QueryPattern::new(query_pred, bindings.clone());
            out.oracle_runs += 1;
            match magic::answer(program, &query, input, interner, opts(1)) {
                Ok(rel) => {
                    let mut expected = Instance::new();
                    expected.ensure(query_pred, arity);
                    if let Some(full) = answer.relation(query_pred) {
                        for t in full.sorted().iter() {
                            let matches = bindings
                                .iter()
                                .zip(t.values())
                                .all(|(b, v)| b.is_none_or(|c| c == *v));
                            if matches {
                                expected.insert_fact(query_pred, t.clone());
                            }
                        }
                    }
                    let mut got = Instance::new();
                    got.ensure(query_pred, arity);
                    for t in rel.iter() {
                        got.insert_row(query_pred, &t);
                    }
                    compare(&mut out, "seminaive", "magic", &expected, &got);
                }
                Err(e) => out.diverge("seminaive", "magic", format!("magic failed: {e}")),
            }
        }
    }

    // Independent references: the least fixpoint by its definition —
    // Γ̂(∅), the reduct over an empty J, is the minimum model of a
    // positive program — and the fixpoint-language translation.
    out.oracle_runs += 1;
    out.comparisons += 1;
    let edb = spec::db_of(input);
    let adom = spec::active_domain(program, &edb);
    let want = spec::reduct(program, &edb, &spec::Db::new(), &adom);
    if spec::project(&want, &idb) != spec::project(&spec::db_of(&answer), &idb) {
        out.diverge("spec-minimum-model", "seminaive", "facts differ".into());
    }
    while_leg(&mut out, program, input, &answer, "seminaive");

    // Metamorphic: positive programs are monotone in the edb.
    out.oracle_runs += 1;
    let sub = without_facts(input, |i| i % 3 == 0);
    match seminaive::minimum_model(program, &sub, opts(1)) {
        Ok(run) => {
            out.comparisons += 1;
            let sub_answer = run.answer(program);
            let missing = fact_list(&sub_answer)
                .into_iter()
                .find(|(sym, t)| !answer.contains_fact(*sym, t));
            if missing.is_some() {
                out.diverge(
                    "seminaive",
                    "monotonicity",
                    "shrinking the edb grew the answer".to_string(),
                );
            }
        }
        Err(e) => out.diverge("seminaive", "monotonicity", format!("sub-edb failed: {e}")),
    }

    rule_permutation_leg(&mut out, program, input, &answer, Campaign::Positive);
    fault_leg(&mut out, &answer, fault);
    out
}

fn negation(program: &Program, input: &Instance, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    let Ok(reference) = stratified::eval(program, input, opts(1)) else {
        out.skipped = true;
        return out;
    };
    let answer = reference.answer(program);

    for threads in [2usize, 4, 8] {
        out.oracle_runs += 1;
        match stratified::eval(program, input, opts(threads)) {
            Ok(run) => {
                compare(
                    &mut out,
                    "stratified",
                    "stratified-parallel",
                    &answer,
                    &run.answer(program),
                );
                out.comparisons += 1;
                if run.stages != reference.stages {
                    out.diverge(
                        "stratified",
                        "stratified-parallel",
                        format!(
                            "stages {} at 1 thread vs {} at {threads}",
                            reference.stages, run.stages
                        ),
                    );
                }
            }
            Err(e) => out.diverge(
                "stratified",
                "stratified-parallel",
                format!("threads={threads} failed: {e}"),
            ),
        }
    }

    // On stratifiable programs the well-founded model is total and
    // coincides with the stratified model (§3.3), at any thread count,
    // in the same rounds.
    let mut rounds = None;
    for threads in [1usize, 4] {
        out.oracle_runs += 1;
        let (right, true_leg, possible_leg) = if threads == 1 {
            ("wellfounded", "wellfounded-true", "wellfounded-possible")
        } else {
            (
                "wellfounded@4",
                "wellfounded@4-true",
                "wellfounded@4-possible",
            )
        };
        match wellfounded::eval(program, input, opts(threads)) {
            Ok(model) => {
                let idb = program.idb();
                compare(
                    &mut out,
                    "stratified",
                    true_leg,
                    &answer,
                    &model.true_facts.project_schema(idb.iter().copied()),
                );
                compare(
                    &mut out,
                    "stratified",
                    possible_leg,
                    &answer,
                    &model.possible_facts.project_schema(idb),
                );
                out.comparisons += 1;
                let first = *rounds.get_or_insert(model.rounds);
                if model.rounds != first {
                    out.diverge(
                        "wellfounded",
                        right,
                        format!("rounds {first} vs {}", model.rounds),
                    );
                }
            }
            Err(e) => out.diverge("stratified", right, format!("{right} failed: {e}")),
        }
    }

    // The inflationary family: its answer is not the stratified one,
    // so the legs agree stage for stage with inflationary `eval`, which
    // the definitional reference checks. The stratified reference
    // already rejected head negation, so Datalog¬¬ under insertion
    // priority never retracts.
    out.oracle_runs += 1;
    match inflationary::eval(program, input, opts(1)) {
        Ok(run) => {
            let left = "inflationary";
            // On Datalog¬ programs, Datalog¬¬ stages under insertion
            // priority are inflationary stages: the definitional
            // reference checks the facts and the stage count.
            out.oracle_runs += 1;
            let want = spec::datalog_negneg(program, input, PreferPositive, MAX_STAGES);
            negneg_leg(
                &mut out,
                "spec-datalog-negneg",
                left,
                &want,
                Ok(run.clone()),
            );
            let par = inflationary::eval(program, input, opts(4));
            stage_leg(&mut out, left, "inflationary@4", &run, program, par);
            let traced = inflationary_traced(program, input);
            stage_leg(&mut out, left, "inflationary-traced", &run, program, traced);
            let negneg = noninflationary::eval(program, input, PreferPositive, opts(1));
            stage_leg(&mut out, left, "noninflationary", &run, program, negneg);
            let negneg = noninflationary::eval(program, input, PreferPositive, opts(4));
            stage_leg(&mut out, left, "noninflationary@4", &run, program, negneg);
        }
        Err(e) => out.diverge(
            "stratified",
            "inflationary",
            format!("inflationary failed: {e}"),
        ),
    }

    while_leg(&mut out, program, input, &answer, "stratified");
    rule_permutation_leg(&mut out, program, input, &answer, Campaign::Negation);
    fault_leg(&mut out, &answer, fault);
    out
}

/// The unstratified campaign: every engine of the paper's non-monotone
/// semantics against the definitional reference of [`crate::spec`],
/// which shares no code with them. Datalog¬¬ runs the whole program
/// under each conflict policy; the well-founded and inflationary
/// engines run its Datalog¬ part (the rules with positive heads).
fn unstratified(program: &Program, input: &Instance, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    for policy in [
        ConflictPolicy::PreferPositive,
        ConflictPolicy::PreferNegative,
        ConflictPolicy::NoOp,
        ConflictPolicy::Undefined,
    ] {
        out.oracle_runs += 3;
        let want = spec::datalog_negneg(program, input, policy, MAX_STAGES);
        for (threads, right) in [(1, "noninflationary"), (4, "noninflationary@4")] {
            let got = noninflationary::eval(program, input, policy, opts(threads));
            negneg_leg(&mut out, "spec-datalog-negneg", right, &want, got);
        }
    }

    let mut datalog_neg = program.clone();
    datalog_neg
        .rules
        .retain(|r| matches!(r.head[..], [HeadLiteral::Pos(_)]));
    if datalog_neg.rules.is_empty() {
        return out;
    }
    let idb = datalog_neg.idb();
    out.oracle_runs += 1;
    let want = spec::well_founded(&datalog_neg, input);
    let wellfounded_legs = [
        (1, "wellfounded", "wellfounded-true", "wellfounded-possible"),
        (
            4,
            "wellfounded@4",
            "wellfounded@4-true",
            "wellfounded@4-possible",
        ),
    ];
    for (threads, engine, true_leg, possible_leg) in wellfounded_legs {
        out.oracle_runs += 1;
        match wellfounded::eval(&datalog_neg, input, opts(threads)) {
            Ok(model) => {
                let legs = [
                    (true_leg, &want.true_facts, &model.true_facts),
                    (possible_leg, &want.possible_facts, &model.possible_facts),
                ];
                for (right, want, got) in legs {
                    out.comparisons += 1;
                    let got = spec::db_of(got);
                    if spec::project(want, &idb) != spec::project(&got, &idb) {
                        out.diverge("spec-alternating-fixpoint", right, "facts differ".into());
                    }
                }
                out.comparisons += 1;
                if model.rounds != want.rounds {
                    out.diverge(
                        "spec-alternating-fixpoint",
                        engine,
                        format!("rounds {} vs {}", want.rounds, model.rounds),
                    );
                }
            }
            Err(e) => out.diverge(
                "spec-alternating-fixpoint",
                engine,
                format!("{engine} failed: {e}"),
            ),
        }
    }

    out.oracle_runs += 3;
    let want = spec::datalog_negneg(&datalog_neg, input, PreferPositive, MAX_STAGES);
    for (threads, right) in [(1, "inflationary"), (4, "inflationary@4")] {
        let got = inflationary::eval(&datalog_neg, input, opts(threads));
        negneg_leg(&mut out, "spec-datalog-negneg", right, &want, got);
    }

    let mut answer = Instance::new();
    for (pred, tuples) in spec::project(&want_facts(&want), &idb) {
        for t in tuples {
            answer.insert_fact(pred, Tuple::from(t));
        }
    }
    fault_leg(&mut out, &answer, fault);
    out
}

/// The stage budget of every run in the oracle (see [`opts`]).
const MAX_STAGES: usize = 500;

/// The facts of a reference run that reached a fixpoint.
fn want_facts(want: &spec::Stages) -> spec::Db {
    match want {
        spec::Stages::Fixpoint { db, .. } => db.clone(),
        _ => spec::Db::new(),
    }
}

/// Compares an engine run of Datalog¬¬ stages with the reference: the
/// same fixpoint in the same stages, or the same divergence,
/// contradiction or budget error at the same stage.
fn negneg_leg(
    out: &mut Outcome,
    left: &'static str,
    right: &'static str,
    want: &spec::Stages,
    got: Result<FixpointRun, EvalError>,
) {
    // Two checks: how the run ended, and at which stage.
    out.comparisons += 2;
    let agree = match (want, &got) {
        (spec::Stages::Fixpoint { db, stages }, Ok(run)) => {
            *stages == run.stages && *db == spec::db_of(&run.instance)
        }
        (
            spec::Stages::Diverged { stage, period },
            Err(EvalError::Diverged {
                stage: s,
                period: p,
            }),
        ) => (stage, period) == (s, p),
        (spec::Stages::Contradiction { stage }, Err(EvalError::Contradiction { stage: s })) => {
            stage == s
        }
        (spec::Stages::StageLimit, Err(EvalError::StageLimitExceeded(_))) => true,
        _ => false,
    };
    if !agree {
        let got = match got {
            Ok(run) => format!("fixpoint after {} stages", run.stages),
            Err(e) => e.to_string(),
        };
        out.diverge(left, right, format!("{want:?} vs {got}"));
    }
}

fn invention_campaign(program: &Program, input: &Instance, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    out.oracle_runs += 1;
    let Ok(first) = invention::eval(program, input, opts(1)) else {
        out.skipped = true;
        return out;
    };
    let answer = first.answer(program);

    // Invention is deterministic: a second run reproduces the instance,
    // the stage count, and the invented-value budget exactly.
    out.oracle_runs += 1;
    match invention::eval(program, input, opts(1)) {
        Ok(second) => {
            compare(
                &mut out,
                "invention",
                "invention-rerun",
                &answer,
                &second.answer(program),
            );
            out.comparisons += 1;
            if (second.stages, second.invented) != (first.stages, first.invented) {
                out.diverge(
                    "invention",
                    "invention-rerun",
                    format!(
                        "stages/invented ({}, {}) vs ({}, {})",
                        first.stages, first.invented, second.stages, second.invented
                    ),
                );
            }
        }
        Err(e) => out.diverge("invention", "invention-rerun", format!("rerun failed: {e}")),
    }

    // Thread invariance: at 4 workers the stages fire in parallel and
    // replay their matches in sequential order, so fresh values are
    // numbered as at one thread.
    out.oracle_runs += 1;
    match invention::eval(program, input, opts(4)) {
        Ok(par) => compare(
            &mut out,
            "invention",
            "invention-parallel",
            &answer,
            &par.answer(program),
        ),
        Err(e) => out.diverge(
            "invention",
            "invention-parallel",
            format!("threads=4 failed: {e}"),
        ),
    }

    fault_leg(&mut out, &answer, fault);
    out
}

fn nondet(program: &Program, input: &Instance, run_seed: u64, fault: Fault) -> Outcome {
    let mut out = Outcome::default();
    let Ok(compiled) = NondetProgram::compile(program, false) else {
        out.skipped = true;
        return out;
    };
    out.oracle_runs += 1;
    let mut chooser = RandomChooser::seeded(run_seed);
    let Ok(first) = run_once(&compiled, input, &mut chooser, opts(1)) else {
        out.skipped = true;
        return out;
    };
    let idb = program.idb();
    let answer = first.instance.project_schema(idb.iter().copied());

    // Same seed, same run: the seeded chooser makes one computation
    // fully reproducible.
    out.oracle_runs += 1;
    let mut chooser = RandomChooser::seeded(run_seed);
    match run_once(&compiled, input, &mut chooser, opts(1)) {
        Ok(second) => {
            let mut replay = second.instance.project_schema(idb.iter().copied());
            if fault == Fault::DropMaxFact {
                replay = drop_max_fact(&replay);
            }
            compare(&mut out, "nondet", "nondet-replay", &answer, &replay);
            out.comparisons += 1;
            if second.steps != first.steps && fault == Fault::None {
                out.diverge(
                    "nondet",
                    "nondet-replay",
                    format!("steps {} vs {}", first.steps, second.steps),
                );
            }
        }
        Err(e) => out.diverge("nondet", "nondet-replay", format!("replay failed: {e}")),
    }

    // Effect-space containment: cert ⊆ every run ⊆ poss. Skipped (not
    // failed) when the state space exceeds the enumeration budget.
    out.oracle_runs += 1;
    if let Ok(pc) = poss_cert(&compiled, input, EffOptions { max_states: 2_000 }) {
        let poss = pc.poss.project_schema(idb.iter().copied());
        let cert = pc.cert.project_schema(idb.iter().copied());
        out.comparisons += 1;
        if let Some((sym, _)) = fact_list(&cert)
            .into_iter()
            .find(|(sym, t)| !poss.contains_fact(*sym, t))
        {
            out.diverge("poss", "cert", format!("cert fact outside poss: {sym:?}"));
        }
        out.comparisons += 1;
        if fact_list(&answer)
            .into_iter()
            .any(|(sym, t)| !poss.contains_fact(sym, &t))
        {
            out.diverge("poss", "nondet", "run derived a fact outside poss".into());
        }
        out.comparisons += 1;
        if fact_list(&cert)
            .into_iter()
            .any(|(sym, t)| !answer.contains_fact(sym, &t))
        {
            out.diverge("cert", "nondet", "run missed a certain fact".into());
        }
    }
    out
}

/// Compares a leg that runs the reference's Γ_P stages: the answer and
/// the stage count must both agree.
fn stage_leg(
    out: &mut Outcome,
    left: &'static str,
    right: &'static str,
    reference: &FixpointRun,
    program: &Program,
    run: Result<FixpointRun, EvalError>,
) {
    out.oracle_runs += 1;
    match run {
        Ok(run) => {
            compare(
                out,
                left,
                right,
                &reference.answer(program),
                &run.answer(program),
            );
            out.comparisons += 1;
            if run.stages != reference.stages {
                out.diverge(
                    left,
                    right,
                    format!("stages {} vs {}", reference.stages, run.stages),
                );
            }
        }
        Err(e) => out.diverge(left, right, format!("{right} failed: {e}")),
    }
}

/// Inflationary evaluation that also records birth stages.
fn inflationary_traced(program: &Program, input: &Instance) -> Result<FixpointRun, EvalError> {
    inflationary::eval_traced(program, input, opts(1)).map(|t| FixpointRun {
        instance: t.instance,
        stages: t.stages,
    })
}

/// The while-translation leg shared by the deterministic campaigns.
fn while_leg(
    out: &mut Outcome,
    program: &Program,
    input: &Instance,
    answer: &Instance,
    reference: &'static str,
) {
    let Some(wp) = to_while(program) else {
        return;
    };
    out.oracle_runs += 1;
    match unchained_while::run(&wp, input, 100_000, None) {
        Ok(run) => compare(
            out,
            reference,
            "while-translation",
            answer,
            &run.instance.project_schema(program.idb()),
        ),
        Err(e) => out.diverge(reference, "while-translation", format!("while failed: {e}")),
    }
}

/// Rule-order (and hence stratum-discovery-order) invariance: the
/// reversed program must compute the same model.
fn rule_permutation_leg(
    out: &mut Outcome,
    program: &Program,
    input: &Instance,
    answer: &Instance,
    campaign: Campaign,
) {
    let mut reversed = program.clone();
    reversed.rules.reverse();
    out.oracle_runs += 1;
    let run = match campaign {
        Campaign::Positive => seminaive::minimum_model(&reversed, input, opts(1)),
        _ => stratified::eval(&reversed, input, opts(1)),
    };
    match run {
        Ok(run) => compare(
            out,
            "original-order",
            "reversed-order",
            answer,
            &run.answer(&reversed),
        ),
        Err(e) => out.diverge("original-order", "reversed-order", format!("failed: {e}")),
    }
}

/// The injected-fault leg: an extra matrix entry that is the reference
/// answer minus its largest fact.
fn fault_leg(out: &mut Outcome, answer: &Instance, fault: Fault) {
    if fault == Fault::DropMaxFact {
        out.oracle_runs += 1;
        let faulty = drop_max_fact(answer);
        compare(out, "reference", "injected-fault", answer, &faulty);
    }
}
