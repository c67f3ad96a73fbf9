//! The one Γ_P stage driver behind every forward-chaining engine, and
//! the telemetry envelope every engine run sits in.
//!
//! Every language from Datalog to Datalog¬new applies the same
//! immediate consequence operator Γ_P: fire every rule with every
//! applicable valuation against the current instance. The languages
//! differ only in what a stage does with the facts it fires — its
//! [`Consequence`] policy:
//!
//! | policy | engines | a stage … |
//! |---|---|---|
//! | [`Accumulate`] | naive, inflationary, the well-founded and stable reducts | inserts the fired facts |
//! | `Retract` | noninflationary | inserts and deletes under a conflict policy |
//! | `Invent` | invention | inserts, minting fresh values per Skolem key |
//! | `Derive` | provenance | inserts, keeping each fact's first derivation |
//!
//! [`Stages::run`] drives them all through one loop: re-plan every rule
//! against the current instance, fire every plan, hand each match to
//! the policy, apply it under the fact budget, commit, and record the
//! stage.
//!
//! A policy whose stages only add facts, and whose negative literals can
//! only turn false as the run goes on, is *Δ-driven*: a match new at
//! stage k+1 must use a positive idb fact born at stage k, so after the
//! first stage the driver fires only each rule's semi-naive variants over
//! the previous stage's delta (§4.1). Inflationary `eval`/`eval_traced`
//! and the well-founded and stable reducts are Δ-driven. Naive (the
//! reference leg), `Retract`, `Invent` and `Derive` fire full Γ_P stages.

use std::ops::ControlFlow;

use unchained_common::{
    DeltaHandle, FxHashMap, HeapSize, Instance, JoinCounters, Span, SpanGuard, SpanKind,
    StageRecord, Stopwatch, Symbol, Telemetry, Tracer, Tuple, Value,
};
use unchained_parser::{HeadLiteral, Program};

use crate::error::EvalError;
use crate::exec::{for_each_match, IndexCache, Sources};
use crate::ir::Plan;
use crate::options::{EvalOptions, FixpointRun};
use crate::planner::{Catalog, Planner};
use crate::subst::{active_domain, instantiate, Env};

/// `input` with every idb relation of `program` present, even if it
/// stays empty.
pub(crate) fn with_idb(program: &Program, input: &Instance) -> Result<Instance, EvalError> {
    let mut instance = input.clone();
    let schema = program.schema()?;
    for pred in program.idb() {
        instance.ensure(pred, schema.arity(pred).expect("idb has arity"));
    }
    Ok(instance)
}

/// The telemetry envelope of one engine run: resets the trace under the
/// engine's name, times the run, and holds its eval span open until
/// [`finish`](Self::finish).
pub(crate) struct EvalScope {
    tel: Telemetry,
    run_sw: Stopwatch,
    eval: SpanGuard,
}

impl EvalScope {
    pub(crate) fn begin(options: &EvalOptions, engine: &str) -> EvalScope {
        let tel = options.telemetry.clone();
        tel.begin(engine);
        let run_sw = tel.stopwatch();
        let eval = tel.tracer().span(SpanKind::Eval, engine);
        EvalScope { tel, run_sw, eval }
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        self.tel.tracer()
    }

    /// Ends the run on `instance`: gauges `rounds` (when given) and
    /// `final_facts` on the eval span, closes it, and fills the trace's
    /// run summary.
    pub(crate) fn finish(self, instance: &Instance, rounds: Option<usize>) {
        let tracer = self.tel.tracer();
        if let Some(rounds) = rounds {
            tracer.gauge("rounds", rounds as u64);
        }
        tracer.gauge("final_facts", instance.fact_count() as u64);
        drop(self.eval);
        self.tel
            .with(|t| t.bytes_final = instance.heap_bytes() as u64);
        self.tel.finish(&self.run_sw, instance.fact_count());
    }

    /// Finishes the run on `instance` and passes the stage count (or
    /// the error) of `result` through.
    pub(crate) fn end(
        self,
        instance: &Instance,
        result: Result<usize, EvalError>,
    ) -> Result<usize, EvalError> {
        self.finish(instance, result.as_ref().ok().copied());
        result
    }
}

/// Per-rule attribution collected during one round: match count plus
/// wall-clock placement of the rule's evaluation.
#[derive(Clone, Copy, Default)]
pub(crate) struct RuleStat {
    pub(crate) fired: u64,
    pub(crate) start_nanos: u64,
    pub(crate) dur_nanos: u64,
}

/// Attaches one round's attribution leaves to the currently open round
/// span: per-rule spans (deterministic `fired` gauges), per-worker lane
/// spans (parallel rounds), and a join-counter summary.
pub(crate) fn emit_round_leaves(
    tracer: &Tracer,
    head_preds: &[Symbol],
    rule_stats: &[RuleStat],
    worker_lanes: &mut Vec<(u64, u64)>,
    joins: &JoinCounters,
) {
    for (ri, rs) in rule_stats.iter().enumerate() {
        let mut span = Span::leaf(SpanKind::Rule, format!("rule {ri}"));
        span.pred = Some(head_preds[ri]);
        span.start_nanos = rs.start_nanos;
        span.dur_nanos = rs.dur_nanos;
        span.gauges.push(("fired", rs.fired));
        tracer.leaf(span);
    }
    for (w, (start, dur)) in worker_lanes.drain(..).enumerate() {
        let mut span = Span::leaf(SpanKind::Worker, format!("worker {w}"));
        span.lane = Some(w);
        span.start_nanos = start;
        span.dur_nanos = dur;
        tracer.leaf(span);
    }
    let mut join = Span::leaf(SpanKind::Join, "joins");
    join.gauges = vec![
        ("probes", joins.probes),
        ("probe_tuples", joins.probe_tuples),
        ("index_builds", joins.index_builds),
        ("index_hits", joins.index_hits),
        ("index_appends", joins.index_appends),
        ("index_rebuilds", joins.index_rebuilds),
    ];
    tracer.leaf(join);
}

/// What a stage does with the facts Γ_P fires.
pub(crate) trait Consequence {
    /// Takes one body match `env` of rule `rule` (whose head is
    /// `head`), fired against `instance`.
    fn fire(&mut self, rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance);

    /// Applies what the stage fired. The stage is recorded whether or
    /// not this fails; a stage that changes nothing ends the run.
    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError>;

    /// Whether stages after the first may fire only the semi-naive
    /// variants over the previous stage's delta (see the module doc).
    fn delta_driven(&self) -> bool {
        false
    }
}

/// One stage's update of the instance, under the run's fact budget.
pub(crate) struct Apply<'s> {
    /// The instance the stage updates.
    pub(crate) instance: &'s mut Instance,
    /// The sorted active domain; policies that mint values extend it.
    pub(crate) adom: &'s mut Vec<Value>,
    /// The stage number, from 1.
    pub(crate) stage: usize,
    pub(crate) tel: &'s Telemetry,
    max_facts: Option<usize>,
    facts: usize,
    record: bool,
    added: usize,
    removed: usize,
    delta: Vec<(Symbol, usize)>,
}

impl Apply<'_> {
    /// Inserts a fact, returning whether it was new. Fails at the first
    /// fact over the `max_facts` budget.
    pub(crate) fn insert(&mut self, pred: Symbol, tuple: Tuple) -> Result<bool, EvalError> {
        if !self.instance.insert_fact(pred, tuple) {
            return Ok(false);
        }
        self.added += 1;
        self.facts += 1;
        if self.record {
            match self.delta.iter_mut().find(|(p, _)| *p == pred) {
                Some((_, n)) => *n += 1,
                None => self.delta.push((pred, 1)),
            }
        }
        if self.max_facts.is_some_and(|m| self.facts > m) {
            return Err(EvalError::FactLimitExceeded(self.facts));
        }
        Ok(true)
    }

    /// Removes a fact, returning whether it was present.
    pub(crate) fn remove(&mut self, pred: Symbol, tuple: &Tuple) -> bool {
        let gone = self
            .instance
            .relation_mut(pred)
            .is_some_and(|rel| rel.remove(tuple));
        if gone {
            self.removed += 1;
            self.facts -= 1;
        }
        gone
    }

    /// Whether the stage has inserted or removed anything so far.
    pub(crate) fn changed(&self) -> bool {
        self.added + self.removed > 0
    }
}

/// Insert every fired fact (naive, inflationary, and the reducts of the
/// well-founded and stable engines), optionally recording the stage at
/// which each fact was born.
pub(crate) struct Accumulate<'b> {
    pending: Vec<(Symbol, Tuple)>,
    birth: Option<&'b mut FxHashMap<(Symbol, Tuple), usize>>,
    delta: bool,
}

impl<'b> Accumulate<'b> {
    /// Full Γ_P stages: naive evaluation, the reference the Δ-driven
    /// engines are checked against.
    pub(crate) fn full() -> Self {
        Accumulate {
            pending: Vec::new(),
            birth: None,
            delta: false,
        }
    }

    /// Δ-driven stages: inflationary Datalog¬ and the reducts, whose
    /// negative literals never turn true.
    pub(crate) fn delta() -> Self {
        Accumulate {
            delta: true,
            ..Accumulate::full()
        }
    }

    /// Δ-driven stages that record the birth stage of every inserted
    /// fact into `birth`.
    pub(crate) fn with_births(birth: &'b mut FxHashMap<(Symbol, Tuple), usize>) -> Self {
        Accumulate {
            birth: Some(birth),
            ..Accumulate::delta()
        }
    }
}

impl Consequence for Accumulate<'_> {
    fn fire(&mut self, _rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let HeadLiteral::Pos(head) = head else {
            unreachable!("accumulating heads are positive")
        };
        let tuple = instantiate(&head.args, env);
        if !instance.contains_fact(head.pred, &tuple) {
            self.pending.push((head.pred, tuple));
        }
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        for (pred, tuple) in self.pending.drain(..) {
            match &mut self.birth {
                Some(birth) => {
                    if stage.insert(pred, tuple.clone())? {
                        birth.entry((pred, tuple)).or_insert(stage.stage);
                    }
                }
                None => {
                    stage.insert(pred, tuple)?;
                }
            }
        }
        Ok(())
    }

    fn delta_driven(&self) -> bool {
        self.delta
    }
}

/// The stage driver over one program: its sorted idb, its active domain
/// and the index cache every stage's joins share.
pub(crate) struct Stages<'p> {
    program: &'p Program,
    options: &'p EvalOptions,
    idb: Vec<Symbol>,
    adom: Vec<Value>,
    cache: IndexCache,
}

impl<'p> Stages<'p> {
    pub(crate) fn new(program: &'p Program, input: &Instance, options: &'p EvalOptions) -> Self {
        Stages {
            program,
            options,
            idb: program.idb(),
            adom: active_domain(program, input),
            cache: IndexCache::new(),
        }
    }

    /// The program's idb predicates, sorted.
    pub(crate) fn idb(&self) -> &[Symbol] {
        &self.idb
    }

    /// Fires stage after stage over `instance` until one changes
    /// nothing, returning the stages performed (that last one
    /// included). Negative literals read `neg` when given — the frozen
    /// instance of a reduct — and the current instance otherwise. The
    /// instance is committed on entry and after every stage, so a
    /// stage's facts form one segment per relation and the delta marks
    /// of a Δ-driven policy stay exact.
    ///
    /// # Errors
    /// [`EvalError::StageLimitExceeded`] past `max_stages`,
    /// [`EvalError::FactLimitExceeded`] at the first fact over
    /// `max_facts`, and whatever the policy's `apply` reports.
    pub(crate) fn run(
        &mut self,
        instance: &mut Instance,
        neg: Option<&Instance>,
        policy: &mut impl Consequence,
    ) -> Result<usize, EvalError> {
        let rules = &self.program.rules;
        let tel = &self.options.telemetry;
        let tracer = tel.tracer();
        let traced = tracer.is_enabled();
        let record = traced || tel.is_enabled();
        let head_preds: Vec<Symbol> = rules
            .iter()
            .map(|r| r.head[0].atom().expect("relational head").pred)
            .collect();
        let idb = &self.idb;
        let delta_driven = policy.delta_driven();
        // Marks captured before the previous stage's apply: set from the
        // second stage of a Δ-driven run on.
        let mut mark: Option<DeltaHandle> = None;
        instance.commit_all();
        let mut stage = 0;
        loop {
            stage += 1;
            if self.options.max_stages.is_some_and(|m| stage > m) {
                return Err(EvalError::StageLimitExceeded(stage - 1));
            }
            let _round = tracer.span(SpanKind::Round, format!("round {stage}"));
            let stage_sw = tel.stopwatch();
            let joins_before = self.cache.counters;
            // Re-plan every stage: join orders chosen against a stale
            // catalog would stick as the instance grows (or shrinks).
            // On the first stage the idb really is empty, so its
            // cardinality is inflated; afterwards the live counts speak
            // for themselves.
            let mut planner =
                Planner::new(Catalog::from_instance(instance), self.options.plan_mode);
            if stage == 1 {
                planner.inflate(idb.iter().copied());
            }
            // A Δ stage fires each rule's variants over the delta, one
            // per positive idb literal; a full stage fires the rule.
            let plans: Vec<Vec<Plan>> = rules
                .iter()
                .map(|r| match mark {
                    Some(_) => planner.seminaive_variants(r, &|p| idb.binary_search(&p).is_ok()),
                    None => vec![planner.plan_rule(r)],
                })
                .collect();
            let plan_stats = planner.stats();
            if mark.is_some() {
                self.cache.begin_delta_round();
            }

            // One parallel firing: every rule reads the same instance.
            let current: &Instance = instance;
            let sources = Sources {
                full: current,
                delta: mark.as_ref(),
                neg,
                delta_from: None,
            };
            let mut rule_stats = Vec::new();
            let mut fired = 0;
            for (ri, (rule, plans)) in rules.iter().zip(&plans).enumerate() {
                let start_nanos = tracer.now_nanos();
                let mut rule_fired = 0u64;
                for plan in plans {
                    let _ =
                        for_each_match(plan, sources, &self.adom, &mut self.cache, &mut |env| {
                            rule_fired += 1;
                            policy.fire(ri, &rule.head[0], env, current);
                            ControlFlow::Continue(())
                        });
                }
                fired += rule_fired;
                if traced {
                    rule_stats.push(RuleStat {
                        fired: rule_fired,
                        start_nanos,
                        dur_nanos: tracer.now_nanos().saturating_sub(start_nanos),
                    });
                }
            }

            let next_mark = delta_driven.then(|| DeltaHandle::capture(instance));
            let mut apply = Apply {
                facts: instance.fact_count(),
                instance: &mut *instance,
                adom: &mut self.adom,
                stage,
                tel,
                max_facts: self.options.max_facts,
                record,
                added: 0,
                removed: 0,
                delta: Vec::new(),
            };
            let applied = policy.apply(&mut apply);
            let changed = apply.changed();
            let (added, removed, delta) = (apply.added, apply.removed, apply.delta);
            instance.commit_all();
            mark = next_mark;

            if record {
                let bytes = instance.heap_bytes() as u64;
                let joins = self.cache.counters.since(&joins_before);
                tracer.gauge("facts_added", added as u64);
                tracer.gauge("facts_removed", removed as u64);
                tracer.gauge("rules_fired", fired);
                tracer.gauge("bytes", bytes);
                tracer.gauge("plan_joins_pruned", plan_stats.joins_pruned);
                tracer.gauge("subplans_shared", plan_stats.subplans_shared);
                if traced {
                    emit_round_leaves(tracer, &head_preds, &rule_stats, &mut Vec::new(), &joins);
                }
                tel.with(|t| {
                    t.stages.push(StageRecord {
                        stage: t.stages.len() + 1,
                        wall_nanos: stage_sw.nanos(),
                        facts_added: added,
                        facts_removed: removed,
                        rules_fired: fired,
                        delta,
                        bytes,
                        joins,
                    });
                    t.peak_facts = t.peak_facts.max(instance.fact_count());
                    t.bytes_peak = t.bytes_peak.max(bytes);
                    t.plan_joins_pruned += plan_stats.joins_pruned;
                    t.subplans_shared += plan_stats.subplans_shared;
                });
            }
            applied?;
            if !changed {
                return Ok(stage);
            }
        }
    }
}

/// Runs `program` on `input` to the fixpoint of `policy`'s stages,
/// inside an [`EvalScope`] named `engine`.
pub(crate) fn eval(
    program: &Program,
    input: &Instance,
    options: &EvalOptions,
    engine: &str,
    policy: &mut impl Consequence,
) -> Result<FixpointRun, EvalError> {
    let mut instance = with_idb(program, input)?;
    let scope = EvalScope::begin(options, engine);
    let result = Stages::new(program, input, options).run(&mut instance, None, policy);
    let stages = scope.end(&instance, result)?;
    Ok(FixpointRun { instance, stages })
}

#[cfg(test)]
mod tests {
    use crate::noninflationary::ConflictPolicy;
    use crate::{
        inflationary, invention, naive, noninflationary, provenance, seminaive, stratified,
        wellfounded, EvalError, EvalOptions,
    };
    use unchained_common::{Instance, Interner, Tuple, Value};
    use unchained_parser::parse_program;

    /// The fact budget is checked after every insertion, so a stage that
    /// would derive 1,000 facts stops at the first one over the budget
    /// instead of reporting the post-stage count — in the stage driver
    /// and in the semi-naive driver's merge alike, at any thread count.
    #[test]
    fn fact_budget_stops_a_stage_at_the_first_fact_over() {
        let mut i = Interner::new();
        let program = parse_program("P(x,y,z) :- A(x), A(y), A(z).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut input = Instance::new();
        for k in 0..10 {
            input.insert_fact(a, Tuple::from([Value::Int(k)]));
        }
        let options = || EvalOptions::default().with_max_facts(10);
        let over = Some(EvalError::FactLimitExceeded(11));
        let policy = ConflictPolicy::PreferPositive;
        assert_eq!(
            naive::minimum_model(&program, &input, options()).err(),
            over
        );
        assert_eq!(inflationary::eval(&program, &input, options()).err(), over);
        assert_eq!(
            inflationary::eval_traced(&program, &input, options()).err(),
            over
        );
        assert_eq!(invention::eval(&program, &input, options()).err(), over);
        assert_eq!(
            noninflationary::eval(&program, &input, policy, options()).err(),
            over
        );
        assert_eq!(
            provenance::minimum_model_with_provenance(&program, &input, options()).err(),
            over
        );
        for threads in [1, 4] {
            let options = || options().with_threads(threads);
            assert_eq!(
                seminaive::minimum_model(&program, &input, options()).err(),
                over,
                "seminaive @{threads}"
            );
            assert_eq!(
                stratified::eval(&program, &input, options()).err(),
                over,
                "stratified @{threads}"
            );
            assert_eq!(
                inflationary::eval_seminaive(&program, &input, options()).err(),
                over,
                "inflationary-seminaive @{threads}"
            );
        }
    }

    #[test]
    fn wellfounded_honours_the_fact_budget() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let mut input = Instance::new();
        for k in 0..20 {
            input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let model = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        let budget = model.possible_facts.fact_count() - 1;
        assert!(matches!(
            wellfounded::eval(
                &program,
                &input,
                EvalOptions::default().with_max_facts(budget)
            ),
            Err(EvalError::FactLimitExceeded(_))
        ));
    }
}
