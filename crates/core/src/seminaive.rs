//! Semi-naive bottom-up evaluation.
//!
//! The classical optimization of naive fixpoint evaluation: a fact can
//! only be *newly* derived in round `k+1` if its derivation uses at least
//! one fact first derived in round `k`. Each rule with a recursive
//! positive body literal is therefore evaluated in *variants*, one per
//! recursive literal, where that literal scans the per-round delta and
//! the others scan the full relations.
//!
//! The module exposes the shared [`seminaive_fixpoint`] used by the
//! positive-Datalog engine here and by the stratified engine
//! ([`crate::stratified`]), whose per-stratum fixpoints are exactly the
//! same computation with negation frozen against completed strata.

use crate::error::EvalError;
use crate::exec::{for_each_head, IndexCache, Sources};
use crate::fixpoint::{emit_round_leaves, with_idb, EvalScope, RuleStat};
use crate::ir::Plan;
use crate::options::{EvalOptions, FixpointRun};
use crate::parallel::{run_round, PlanTask};
use crate::planner::{Catalog, Planner};
use crate::require_language;
use crate::subst::active_domain;
use unchained_common::{
    DeltaHandle, FxHashSet, HeapSize, Instance, Span, SpanKind, StageRecord, Symbol,
};
use unchained_parser::{check_range_restricted, HeadLiteral, Language, Program, Rule};

/// Runs the rules of one (sub)program to fixpoint with semi-naive
/// deltas, mutating `instance` in place. Negative literals are checked
/// against the full current instance, so the caller must guarantee they
/// are *frozen* (never derivable by `rules`) — true for pure Datalog
/// (no negation) and for stratified evaluation (negation only on
/// completed strata).
///
/// Returns the number of rounds executed (≥ 1).
pub(crate) fn seminaive_fixpoint(
    rules: &[&Rule],
    instance: &mut Instance,
    adom: &[unchained_common::Value],
    recursive: &FxHashSet<Symbol>,
    cache: &mut IndexCache,
    options: &EvalOptions,
) -> Result<usize, EvalError> {
    struct RulePlans<'r> {
        rule: &'r Rule,
        full: Plan,
        deltas: Vec<Plan>,
    }
    // Plan against a cardinality snapshot of the instance as it stands
    // on entry (for stratified evaluation: with all lower strata
    // already computed). Recursive predicates are inflated so their
    // initially-small relations are not mistaken for cheap scans.
    let mut planner = Planner::new(Catalog::from_instance(instance), options.plan_mode);
    planner.inflate(recursive.iter().copied());
    let compiled: Vec<RulePlans> = rules
        .iter()
        .map(|rule| {
            let full = planner.plan_rule(rule);
            let deltas = planner.seminaive_variants(rule, &|p| recursive.contains(&p));
            RulePlans { rule, full, deltas }
        })
        .collect();
    let plan_stats = planner.stats();

    let head_atom = |rule: &Rule| match &rule.head[0] {
        HeadLiteral::Pos(a) => a.clone(),
        _ => unreachable!("semi-naive engines require positive single heads"),
    };

    // Stage indexes continue from whatever the trace already holds, so
    // stratified evaluation appends one contiguous stage sequence.
    let tel = &options.telemetry;
    let base = tel.with(|t| t.stages.len()).unwrap_or(0);
    let tracer = tel.tracer().clone();
    let traced = tracer.is_enabled();
    let head_preds: Vec<Symbol> = compiled.iter().map(|rp| head_atom(rp.rule).pred).collect();
    // Planner-effect gauges are deterministic (plans never depend on
    // the schedule), so they are safe in the thread-invariant lane.
    // Accumulated across strata when called repeatedly.
    tel.with(|t| {
        t.plan_joins_pruned += plan_stats.joins_pruned;
        t.subplans_shared += plan_stats.subplans_shared;
    });
    tracer.gauge("plan_joins_pruned", plan_stats.joins_pruned);
    tracer.gauge("subplans_shared", plan_stats.subplans_shared);

    // Parallel executor state. Each worker owns a private cache that
    // lives across rounds (so full indexes absorb committed segments
    // just like the sequential cache); morsels are pulled from a shared
    // queue, see `crate::parallel`. The shared `cache` stays the single
    // source of truth for counters: after every parallel round its
    // counters are rewritten as entry snapshot + the sum over worker
    // caches, which keeps the per-stage `since` diffs below exact.
    let threads = options.threads.get();
    tel.with(|t| t.threads = threads);
    let mut worker_caches: Vec<IndexCache> = if threads > 1 {
        (0..threads).map(|_| IndexCache::new()).collect()
    } else {
        Vec::new()
    };
    let entry_counters = cache.counters;
    let roll_up = |cache: &mut IndexCache, worker_caches: &[IndexCache]| {
        let mut total = entry_counters;
        for wc in worker_caches {
            total.absorb(&wc.counters);
        }
        cache.counters = total;
    };

    // Freeze the input facts into stable segments: every later round then
    // adds exactly one segment per touched relation, so delta marks stay
    // exact and full indexes absorb each round as a single segment append.
    instance.commit_all();

    // Round 1: full evaluation of every rule into a pending buffer —
    // driver-row morsels pulled by workers when parallel.
    let mut stage_sw = tel.stopwatch();
    let mut joins_before = cache.counters;
    let mut round_guard = tracer.span(SpanKind::Round, format!("round {}", base + 1));
    let mut rule_stats: Vec<RuleStat> = vec![RuleStat::default(); compiled.len()];
    let mut worker_lanes: Vec<(u64, u64)> = Vec::new();
    let mut fired: u64 = 0;
    let mut pending;
    if threads > 1 {
        let tasks: Vec<PlanTask> = compiled
            .iter()
            .enumerate()
            .map(|(i, rp)| PlanTask {
                rule: i,
                head: head_atom(rp.rule),
                plan: &rp.full,
            })
            .collect();
        let round_base = tracer.now_nanos();
        let (p, stats) = run_round(
            &tasks,
            instance,
            None,
            adom,
            &mut worker_caches,
            options.morsel_size,
            compiled.len(),
            traced,
        );
        pending = p;
        fired = stats.fired_total;
        if traced {
            for (ri, f) in stats.fired_per_rule.iter().enumerate() {
                rule_stats[ri] = RuleStat {
                    fired: *f,
                    start_nanos: round_base,
                    dur_nanos: 0,
                };
            }
            worker_lanes = stats
                .workers
                .iter()
                .map(|(s, d)| (round_base + s, *d))
                .collect();
        }
        roll_up(cache, &worker_caches);
        // Parallel rounds sample the high-water mark on the merged
        // pending buffer, which is what the sequential per-rule samples
        // below converge to — so both paths report identical peaks.
        if tel.is_enabled() {
            tel.sample_peak(
                instance.fact_count() + pending.fact_count(),
                instance.heap_bytes() + pending.heap_bytes(),
            );
        }
    } else {
        pending = Instance::new();
        for (ri, rp) in compiled.iter().enumerate() {
            let head = head_atom(rp.rule);
            let rule_start = tracer.now_nanos();
            let rule_fired = for_each_head(
                &rp.full,
                &head.args,
                Sources::simple(instance),
                adom,
                cache,
                &mut |tuple| {
                    if !instance.contains_fact(head.pred, &tuple) {
                        pending.insert_fact(head.pred, tuple);
                    }
                },
            );
            fired += rule_fired;
            // Live facts right now = instance + the pending buffer: the
            // true high-water mark, sampled after every rule application
            // rather than only at round boundaries.
            if tel.is_enabled() {
                tel.sample_peak(
                    instance.fact_count() + pending.fact_count(),
                    instance.heap_bytes() + pending.heap_bytes(),
                );
            }
            if traced {
                rule_stats[ri] = RuleStat {
                    fired: rule_fired,
                    start_nanos: rule_start,
                    dur_nanos: tracer.now_nanos().saturating_sub(rule_start),
                };
            }
        }
    }
    // Delta-variant tasks are the same every round; build them once.
    let delta_tasks: Vec<PlanTask> = if threads > 1 {
        compiled
            .iter()
            .enumerate()
            .flat_map(|(i, rp)| {
                rp.deltas.iter().map(move |plan| PlanTask {
                    rule: i,
                    head: head_atom(rp.rule),
                    plan,
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut rounds = 1;
    loop {
        // Capture generation marks, then merge: afterwards,
        // `iter_since(mark)` enumerates exactly this round's delta.
        let mark = DeltaHandle::capture(instance);
        let absorb_start = tracer.now_nanos();
        // Every round deduplicates pending against the instance, so any
        // pending fact is a change.
        let changed = !pending.is_empty();
        let merged = merge(instance, &pending, options.max_facts);
        tel.with(|t| {
            t.stages.push(StageRecord {
                stage: base + rounds,
                wall_nanos: stage_sw.nanos(),
                facts_added: pending.fact_count(),
                facts_removed: 0,
                rules_fired: fired,
                delta: pending
                    .iter()
                    .map(|(pred, rel)| (pred, rel.len()))
                    .collect(),
                bytes: instance.heap_bytes() as u64,
                joins: cache.counters.since(&joins_before),
            });
            t.peak_facts = t.peak_facts.max(instance.fact_count());
            t.bytes_peak = t.bytes_peak.max(instance.heap_bytes() as u64);
        });
        if traced {
            // Deterministic round gauges first (thread-invariant), then
            // the attribution leaves, then close the round span. Logical
            // bytes are counts x fixed widths, so the lane is identical
            // at any thread count.
            tracer.gauge("facts_added", pending.fact_count() as u64);
            tracer.gauge("rules_fired", fired);
            tracer.gauge("bytes", instance.heap_bytes() as u64);
            let mut absorb = Span::leaf(SpanKind::Absorb, "merge");
            absorb.start_nanos = absorb_start;
            absorb.dur_nanos = tracer.now_nanos().saturating_sub(absorb_start);
            absorb.gauges.push(("facts", pending.fact_count() as u64));
            tracer.leaf(absorb);
            emit_round_leaves(
                &tracer,
                &head_preds,
                &rule_stats,
                &mut worker_lanes,
                &cache.counters.since(&joins_before),
            );
        }
        drop(round_guard);
        merged?;
        if !changed {
            if threads > 1 {
                tel.with(|t| {
                    let per_worker: Vec<String> = worker_caches
                        .iter()
                        .map(|wc| wc.counters.probes.to_string())
                        .collect();
                    t.notes.push(format!(
                        "parallel: {threads} workers, probes per worker: [{}]",
                        per_worker.join(", ")
                    ));
                });
            }
            return Ok(rounds);
        }
        rounds += 1;
        if options.max_stages.is_some_and(|m| rounds > m) {
            return Err(EvalError::StageLimitExceeded(rounds - 1));
        }
        // Promote the merged round to frozen segments and evaluate the
        // delta variants against the marks captured before the merge.
        instance.commit_all();
        stage_sw = tel.stopwatch();
        joins_before = cache.counters;
        round_guard = tracer.span(SpanKind::Round, format!("round {}", base + rounds));
        if traced {
            rule_stats = vec![RuleStat::default(); compiled.len()];
        }
        fired = 0;
        if threads > 1 {
            for wc in &mut worker_caches {
                wc.begin_delta_round();
            }
            let round_base = tracer.now_nanos();
            let (p, stats) = run_round(
                &delta_tasks,
                instance,
                Some(&mark),
                adom,
                &mut worker_caches,
                options.morsel_size,
                compiled.len(),
                traced,
            );
            pending = p;
            fired = stats.fired_total;
            if traced {
                for (ri, f) in stats.fired_per_rule.iter().enumerate() {
                    rule_stats[ri] = RuleStat {
                        fired: *f,
                        start_nanos: round_base,
                        dur_nanos: 0,
                    };
                }
                worker_lanes = stats
                    .workers
                    .iter()
                    .map(|(s, d)| (round_base + s, *d))
                    .collect();
            }
            roll_up(cache, &worker_caches);
            if tel.is_enabled() {
                tel.sample_peak(
                    instance.fact_count() + pending.fact_count(),
                    instance.heap_bytes() + pending.heap_bytes(),
                );
            }
            continue;
        }
        cache.begin_delta_round();
        let mut next_pending = Instance::new();
        for (ri, rp) in compiled.iter().enumerate() {
            let head = head_atom(rp.rule);
            let rule_start = tracer.now_nanos();
            let mut rule_fired: u64 = 0;
            for plan in &rp.deltas {
                rule_fired += for_each_head(
                    plan,
                    &head.args,
                    Sources {
                        delta: Some(&mark),
                        ..Sources::simple(instance)
                    },
                    adom,
                    cache,
                    &mut |tuple| {
                        if !instance.contains_fact(head.pred, &tuple)
                            && !next_pending.contains_fact(head.pred, &tuple)
                        {
                            next_pending.insert_fact(head.pred, tuple);
                        }
                    },
                );
            }
            fired += rule_fired;
            if tel.is_enabled() {
                tel.sample_peak(
                    instance.fact_count() + next_pending.fact_count(),
                    instance.heap_bytes() + next_pending.heap_bytes(),
                );
            }
            if traced {
                rule_stats[ri] = RuleStat {
                    fired: rule_fired,
                    start_nanos: rule_start,
                    dur_nanos: tracer.now_nanos().saturating_sub(rule_start),
                };
            }
        }
        pending = next_pending;
    }
}

/// Inserts a round's `pending` facts into `instance`, failing at the
/// first fact over the `max_facts` budget — the stage driver's
/// per-insert check, so the reported count is `max_facts + 1` at any
/// thread count.
fn merge(
    instance: &mut Instance,
    pending: &Instance,
    max_facts: Option<usize>,
) -> Result<(), EvalError> {
    let mut facts = instance.fact_count();
    for (pred, rel) in pending.iter() {
        for t in rel.iter() {
            if instance.insert_fact(pred, t.clone()) {
                facts += 1;
                if max_facts.is_some_and(|m| facts > m) {
                    return Err(EvalError::FactLimitExceeded(facts));
                }
            }
        }
    }
    Ok(())
}

/// Computes the minimum model of a positive Datalog program on `input`
/// using semi-naive evaluation. Semantically identical to
/// [`crate::naive::minimum_model`].
///
/// # Errors
/// Rejects programs outside pure Datalog and non-range-restricted rules.
pub fn minimum_model(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;
    single_stratum(program, input, &options, "seminaive")
}

/// Runs every rule of `program` as one semi-naive stratum over `input`,
/// inside an [`EvalScope`] named `engine`. Sound for pure Datalog and,
/// by the monotonicity argument of
/// [`crate::inflationary::eval_seminaive`], for inflationary Datalog¬.
pub(crate) fn single_stratum(
    program: &Program,
    input: &Instance,
    options: &EvalOptions,
    engine: &str,
) -> Result<FixpointRun, EvalError> {
    let adom = active_domain(program, input);
    let mut instance = with_idb(program, input)?;
    let recursive: FxHashSet<Symbol> = program.idb().into_iter().collect();
    let rules: Vec<&Rule> = program.rules.iter().collect();
    let mut cache = IndexCache::new();
    let scope = EvalScope::begin(options, engine);
    let tracer = scope.tracer().clone();
    let stratum_guard = tracer.span(SpanKind::Stratum, "stratum 0");
    let stages = seminaive_fixpoint(
        &rules,
        &mut instance,
        &adom,
        &recursive,
        &mut cache,
        options,
    )?;
    tracer.gauge("rounds", stages as u64);
    tracer.gauge("rules", rules.len() as u64);
    drop(stratum_guard);
    let (segments, recent) = instance.storage_stats();
    options.telemetry.note(format!(
        "storage: {segments} segments, {recent} uncommitted"
    ));
    options.telemetry.note(format!(
        "index cache: {} indexes, {}",
        cache.entry_count(),
        unchained_common::fmt_bytes(cache.heap_bytes() as u64)
    ));
    scope.finish(&instance, None);
    Ok(FixpointRun { instance, stages })
}

/// Convenience: evaluate a Datalog program and return just the relation
/// for `answer_pred` (empty if it was never derived).
pub fn eval_to_relation(
    program: &Program,
    input: &Instance,
    answer_pred: Symbol,
) -> Result<unchained_common::Relation, EvalError> {
    let run = minimum_model(program, input, EvalOptions::default())?;
    let arity = program.schema()?.arity(answer_pred).unwrap_or(0);
    Ok(run
        .instance
        .relation(answer_pred)
        .cloned()
        .unwrap_or_else(|| unchained_common::Relation::new(arity)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    fn tc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
            interner,
        )
        .unwrap()
    }

    fn random_ish_graph(interner: &mut Interner, n: i64) -> Instance {
        // Deterministic pseudo-random graph: edge (i, (i*7+3) mod n) and
        // (i, (i*5+1) mod n).
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 7 + 3) % n)]));
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 5 + 1) % n)]));
        }
        inst
    }

    #[test]
    fn agrees_with_naive_on_lines_and_cycles() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        for n in [2i64, 3, 5, 8] {
            // line
            let mut line = Instance::new();
            for k in 0..n - 1 {
                line.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            let a = naive::minimum_model(&p, &line, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &line, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "line n={n}");
            // cycle
            let mut cyc = Instance::new();
            for k in 0..n {
                cyc.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k + 1) % n)]));
            }
            let a = naive::minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "cycle n={n}");
        }
    }

    #[test]
    fn agrees_with_naive_on_denser_graph() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = random_ish_graph(&mut i, 13);
        let a = naive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
    }

    #[test]
    fn nonrecursive_rules_fire_once() {
        let mut i = Interner::new();
        let p = parse_program("A(x) :- B(x). C(x) :- A(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let c = i.get("C").unwrap();
        assert!(run.instance.contains_fact(c, &Tuple::from([Value::Int(1)])));
    }

    #[test]
    fn right_linear_and_left_linear_tc_agree() {
        let mut i = Interner::new();
        let left = tc_program(&mut i);
        let right = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), G(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 11);
        let a = minimum_model(&left, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&right, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
    }

    #[test]
    fn nonlinear_tc_agrees() {
        let mut i = Interner::new();
        let lin = tc_program(&mut i);
        let nonlin = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), T(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 9);
        let a = minimum_model(&lin, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&nonlin, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
        // The nonlinear version doubles path lengths per round, so it
        // should take fewer rounds.
        assert!(b.stages <= a.stages);
    }

    #[test]
    fn same_generation_program() {
        // A classic non-TC recursion: same-generation.
        let mut i = Interner::new();
        let p = parse_program(
            "SG(x,x) :- Person(x).\n\
             SG(x,y) :- Par(x,xp), SG(xp,yp), Par(y,yp).",
            &mut i,
        )
        .unwrap();
        let person = i.get("Person").unwrap();
        let par = i.get("Par").unwrap();
        let mut input = Instance::new();
        // A small binary tree: 1 root; 2,3 children; 4,5,6,7 grandchildren.
        for k in 1..=7i64 {
            input.insert_fact(person, Tuple::from([Value::Int(k)]));
        }
        for (c, par_) in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)] {
            input.insert_fact(par, Tuple::from([Value::Int(c), Value::Int(par_)]));
        }
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let sg = i.get("SG").unwrap();
        let rel = run.instance.relation(sg).unwrap();
        // 2 and 3 are same generation; 4..7 pairwise same generation.
        assert!(rel.contains(&Tuple::from([Value::Int(2), Value::Int(3)])));
        assert!(rel.contains(&Tuple::from([Value::Int(4), Value::Int(7)])));
        assert!(!rel.contains(&Tuple::from([Value::Int(2), Value::Int(4)])));
        // 7 reflexive + {2,3}² off-diag 2 + {4..7}² off-diag 12 = 21.
        assert_eq!(rel.len(), 21);
    }

    #[test]
    fn eval_to_relation_missing_answer_is_empty() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let t = i.get("T").unwrap();
        let rel = eval_to_relation(&p, &Instance::new(), t).unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.arity(), 2);
    }
}
