//! The one Γ_P stage driver behind every forward-chaining engine, and
//! the telemetry envelope every engine run sits in.
//!
//! Every language from Datalog to Datalog¬new applies the same
//! immediate consequence operator Γ_P: fire every rule with every
//! applicable valuation against the current instance. The languages
//! differ only in what a stage does with the facts it fires — its
//! [`Consequence`] policy:
//!
//! | policy | engines | a stage … | Δ-driven |
//! |---|---|---|---|
//! | [`Accumulate`] | naive, semi-naive, stratified, inflationary, the well-founded and stable reducts, the IVM batch fixpoints | inserts the fired facts | every rule, except naive's |
//! | `Retract` | noninflationary | inserts and deletes under a conflict policy | per rule: those whose head no rule retracts |
//! | `Invent` | invention | inserts, minting fresh values per Skolem key | no |
//! | `Derive` | provenance | inserts, keeping each fact's first derivation | no |
//!
//! Every policy runs at any `threads`, with identical answers, stage
//! counts and `rules_fired`.
//!
//! [`Stages::run`] drives them all through one loop: re-plan every rule
//! against the current instance, fire every plan, hand each match to
//! the policy, apply it under the fact budget, commit, and record the
//! stage. A run fires a rule set — the whole program, or one stratum
//! ([`Stages::restrict`], [`eval_strata`]). At one thread the plans fire
//! on the calling thread; otherwise [`crate::parallel`] fires them in
//! morsels across workers and replays the matches into the policy in
//! the sequential order.
//!
//! A rule is *Δ-driven* when every fact its head infers stays: then only
//! a valuation new at stage k+1 can add to the stage, and a new valuation
//! must use a positive fact the last stage inserted or negate one it
//! removed. So after the first stage the driver fires such a rule's
//! semi-naive variants over the last stage's insertions and its negation
//! variants over its removals (§4.1), and every other rule its full plan.
//! Semi-naive variants are taken over the head predicates of the rules
//! the run fires; under semi-naive, stratified and inflationary
//! evaluation and the reducts nothing is removed, so only they fire.
//! Under `Retract` a head no rule retracts is never removed once
//! inferred, and no `¬A` inference can conflict with it; removals are
//! tombstones, read back through
//! [`Relation::retracted_since`](unchained_common::Relation::retracted_since).
//! A run can also be *entered* with the facts that just left its
//! negative context ([`Stages::run_from`]): the alternating fixpoint
//! grows its under-estimate that way.

use std::ops::ControlFlow;

use unchained_common::{
    fmt_bytes, DeltaHandle, FxHashMap, HeapSize, Instance, JoinCounters, Span, SpanGuard, SpanKind,
    StageRecord, Stopwatch, Symbol, Telemetry, Tracer, Tuple, Value,
};
use unchained_parser::{HeadLiteral, Program, Rule, Term};

use crate::error::EvalError;
use crate::exec::{for_each_match, IndexCache, Sources};
use crate::input_schema;
use crate::ir::Plan;
use crate::options::{EvalOptions, FixpointRun};
use crate::parallel::{self, Task};
use crate::planner::{Catalog, PlanStats, Planner};
use crate::subst::{active_domain_if_enumerated, instantiate_into, Env};

/// `input` with every idb relation of `program` present, even if it
/// stays empty. Fails if an input relation's arity conflicts with the
/// program's (see [`input_schema`]).
pub(crate) fn with_idb(program: &Program, input: &Instance) -> Result<Instance, EvalError> {
    let schema = input_schema(program, input)?;
    let mut instance = input.clone();
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
/// wall-clock placement of the rule's evaluation (for a parallel round,
/// the summed worker time of the rule's morsels).
#[derive(Clone, Copy, Default)]
pub(crate) struct RuleStat {
    pub(crate) fired: u64,
    pub(crate) start_nanos: u64,
    pub(crate) dur_nanos: u64,
}

impl RuleStat {
    /// Adds `fired` matches, and the time since `start_nanos` on
    /// `tracer`'s clock, to a rule fired in several pieces (the Δ
    /// closures and rederive pass of [`crate::ivm`]); the first piece
    /// places the rule's start.
    pub(crate) fn add(&mut self, tracer: &Tracer, fired: u64, start_nanos: u64) {
        if self.start_nanos == 0 {
            self.start_nanos = start_nanos;
        }
        self.fired += fired;
        self.dur_nanos += tracer.now_nanos().saturating_sub(start_nanos);
    }
}

/// What a stage does with the facts Γ_P fires.
pub(crate) trait Consequence {
    /// Takes one body match `env` of rule `rule` (whose head is
    /// `head`), fired against `instance`.
    fn fire(&mut self, rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance);

    /// Applies what the stage fired. The stage is recorded whether or
    /// not this fails; a stage that changes nothing ends the run.
    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError>;

    /// Whether stages after the first may fire, for the rules whose
    /// head predicate is `head`, only their semi-naive variants over the
    /// previous stage's insertions and their negation variants over its
    /// removals (see the module doc).
    fn delta_driven(&self, _head: Symbol) -> bool {
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
    /// Inserts the fact `pred(row)`, returning whether it was new. Fails
    /// at the first fact over the `max_facts` budget.
    pub(crate) fn insert(&mut self, pred: Symbol, row: &[Value]) -> Result<bool, EvalError> {
        if !self.instance.insert_row(pred, row) {
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

    /// Removes a fact as a tombstone (see [`Relation::retract`]), so the
    /// relation keeps its lineage; returns whether it was present.
    ///
    /// [`Relation::retract`]: unchained_common::Relation::retract
    pub(crate) fn remove(&mut self, pred: Symbol, row: &[Value]) -> bool {
        let gone = self.instance.retract_fact(pred, row);
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

/// Facts [`Fired::push_new`] buffers before it checks them against the
/// instance as one batch.
const CHECK_BATCH: usize = 64;

/// The facts a stage fired, in firing order, packed into one flat value
/// buffer: firing a fact allocates nothing once the buffers have grown.
#[derive(Default)]
pub(crate) struct Fired {
    /// Each fact's predicate and the end of its row in `values` (8 B a
    /// fact: the buffer holds every firing of a fact the instance lacks,
    /// repeats included, until `apply`).
    facts: Vec<(Symbol, u32)>,
    values: Vec<Value>,
    /// The facts from here on have not been checked against the
    /// instance yet.
    unchecked: usize,
}

impl Fired {
    /// Fires `pred(args)` under `env`, unless `instance` already holds
    /// it. Facts are checked in batches: the rows of a batch are first
    /// [touched](unchained_common::Relation::touch), so their membership
    /// probes overlap their cache misses instead of taking them in turn.
    /// The instance does not change while a stage fires, so a check
    /// made later in the stage has the same outcome.
    pub(crate) fn push_new(&mut self, pred: Symbol, args: &[Term], env: &Env, instance: &Instance) {
        self.push(pred, args, env);
        if self.facts.len() - self.unchecked >= CHECK_BATCH {
            self.drop_known(instance);
        }
    }

    /// Drops the unchecked facts `instance` already holds.
    fn drop_known(&mut self, instance: &Instance) {
        let from = self.unchecked;
        let mut start = from.checked_sub(1).map_or(0, |i| self.facts[i].1 as usize);
        let mut rel = None;
        let mut lookup = |pred: Symbol| match rel {
            Some((p, r)) if p == pred => r,
            _ => {
                let r = instance.relation(pred);
                rel = Some((pred, r));
                r
            }
        };
        let mut touched = 0;
        let mut begin = start;
        for &(pred, end) in &self.facts[from..] {
            let end = end as usize;
            if let Some(r) = lookup(pred) {
                touched ^= r.touch(&self.values[begin..end]);
            }
            begin = end;
        }
        std::hint::black_box(touched);
        let (mut kept, mut kept_end) = (from, start);
        for i in from..self.facts.len() {
            let (pred, end) = self.facts[i];
            let end = end as usize;
            let known = lookup(pred).is_some_and(|r| r.contains_row(&self.values[start..end]));
            if !known {
                self.values.copy_within(start..end, kept_end);
                kept_end += end - start;
                self.facts[kept] = (pred, kept_end as u32);
                kept += 1;
            }
            start = end;
        }
        self.facts.truncate(kept);
        self.values.truncate(kept_end);
        self.unchecked = kept;
    }

    /// Fires `pred(args)` under `env`.
    pub(crate) fn push(&mut self, pred: Symbol, args: &[Term], env: &Env) {
        instantiate_into(args, env, &mut self.values);
        self.facts.push((
            pred,
            u32::try_from(self.values.len()).expect("fired values fit u32 positions"),
        ));
    }

    /// The fired facts, in firing order.
    fn iter(&self) -> impl Iterator<Item = (Symbol, &[Value])> {
        let mut start = 0;
        self.facts.iter().map(move |&(pred, end)| {
            let end = end as usize;
            let row = &self.values[start..end];
            start = end;
            (pred, row)
        })
    }

    /// Inserts every fired fact into `stage`, handing each new one to
    /// `inserted`, and empties the buffer.
    pub(crate) fn apply(
        &mut self,
        stage: &mut Apply<'_>,
        mut inserted: impl FnMut(Symbol, &[Value], usize),
    ) -> Result<(), EvalError> {
        self.drop_known(&*stage.instance);
        let result = self.iter().try_for_each(|(pred, row)| {
            if stage.insert(pred, row)? {
                inserted(pred, row, stage.stage);
            }
            Ok(())
        });
        self.facts.clear();
        self.values.clear();
        self.unchecked = 0;
        result
    }
}

/// Insert every fired fact (naive, inflationary, and the reducts of the
/// well-founded and stable engines), optionally recording the stage at
/// which each fact was born.
pub(crate) struct Accumulate<'b> {
    fired: Fired,
    birth: Option<&'b mut FxHashMap<(Symbol, Tuple), usize>>,
    delta: bool,
}

impl<'b> Accumulate<'b> {
    /// Full Γ_P stages: naive evaluation, the reference the Δ-driven
    /// engines are checked against.
    pub(crate) fn full() -> Self {
        Accumulate {
            fired: Fired::default(),
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
        self.fired.push_new(head.pred, &head.args, env, instance);
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        let birth = &mut self.birth;
        self.fired.apply(stage, |pred, row, at| {
            if let Some(birth) = birth {
                birth.entry((pred, Tuple::new(row))).or_insert(at);
            }
        })
    }

    fn delta_driven(&self, _head: Symbol) -> bool {
        self.delta
    }
}

/// The stage driver: the rule set a run fires — the whole program, or
/// one stratum — with the active domain and the index caches every
/// stage's joins share, across stages, runs and strata.
pub(crate) struct Stages<'p> {
    options: &'p EvalOptions,
    rules: Vec<&'p Rule>,
    /// The head predicates of `rules`, sorted: the predicates Δ variants
    /// are taken over, and whose cardinality a cold first stage inflates.
    idb: Vec<Symbol>,
    adom: Vec<Value>,
    cache: IndexCache,
    /// One index cache per worker of a parallel stage (none at one
    /// thread), kept across stages like `cache`.
    workers: Vec<IndexCache>,
}

impl<'p> Stages<'p> {
    pub(crate) fn new(program: &'p Program, input: &Instance, options: &'p EvalOptions) -> Self {
        Stages::over(
            program,
            options,
            active_domain_if_enumerated(program, input),
            IndexCache::new(),
        )
    }

    /// A driver firing every rule of `program`, whose `Domain` steps
    /// enumerate `adom` and whose joins start from `cache`.
    pub(crate) fn over(
        program: &'p Program,
        options: &'p EvalOptions,
        adom: Vec<Value>,
        cache: IndexCache,
    ) -> Self {
        let threads = options.threads.get();
        let workers = if threads > 1 { threads } else { 0 };
        let mut stages = Stages {
            options,
            rules: Vec::new(),
            idb: Vec::new(),
            adom,
            cache,
            workers: (0..workers).map(|_| IndexCache::new()).collect(),
        };
        stages.restrict(program.rules.iter().collect());
        stages
    }

    /// Makes later runs fire `rules` only: one stratum, whose negative
    /// literals read lower strata that are already complete.
    pub(crate) fn restrict(&mut self, rules: Vec<&'p Rule>) {
        let mut idb: Vec<Symbol> = rules
            .iter()
            .flat_map(|r| r.head.iter().filter_map(HeadLiteral::atom))
            .map(|a| a.pred)
            .collect();
        idb.sort_unstable();
        idb.dedup();
        self.idb = idb;
        self.rules = rules;
    }

    /// The active domain and the driver's index cache, for an owner that
    /// keeps them between runs.
    pub(crate) fn into_parts(self) -> (Vec<Value>, IndexCache) {
        (self.adom, self.cache)
    }

    /// The options the run was started with.
    pub(crate) fn options(&self) -> &'p EvalOptions {
        self.options
    }

    /// The head predicates of the rules a run fires, sorted.
    pub(crate) fn idb(&self) -> &[Symbol] {
        &self.idb
    }

    /// A driver over the same rules and active domain with index caches
    /// of its own, for an instance whose relations have their own
    /// lineage.
    pub(crate) fn sibling(&self) -> Stages<'p> {
        Stages {
            options: self.options,
            rules: self.rules.clone(),
            idb: self.idb.clone(),
            adom: self.adom.clone(),
            cache: IndexCache::new(),
            workers: self.workers.iter().map(|_| IndexCache::new()).collect(),
        }
    }

    /// The active domain `Domain` steps enumerate, and the index cache
    /// every stage's joins share.
    pub(crate) fn parts(&mut self) -> (&[Value], &mut IndexCache) {
        (&self.adom, &mut self.cache)
    }

    /// Drops every cached index, the workers' included, for a run whose
    /// next phase reads the instance through other plans than the last.
    pub(crate) fn clear_indexes(&mut self) {
        self.cache.clear();
        for worker in &mut self.workers {
            worker.clear();
        }
    }

    /// The head predicate of every rule, in rule order.
    pub(crate) fn head_preds(&self) -> Vec<Symbol> {
        self.rules
            .iter()
            .map(|r| r.head[0].atom().expect("relational head").pred)
            .collect()
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
        self.run_from(instance, neg, None, policy)
    }

    /// Like [`run`](Self::run), entered with `left`: the facts that just
    /// left `neg`, on an `instance` that was the policy's fixpoint for
    /// `neg` before they did. The first stage is then already a Δ stage:
    /// Δ-driven rules fire only their negation variants over `left`,
    /// since a valuation new to the looser negative context must use a
    /// negated fact that left it.
    pub(crate) fn run_from(
        &mut self,
        instance: &mut Instance,
        neg: Option<&Instance>,
        mut left: Option<Instance>,
        policy: &mut impl Consequence,
    ) -> Result<usize, EvalError> {
        let options = self.options;
        let tel = &options.telemetry;
        let tracer = tel.tracer();
        let record = tracer.is_enabled() || tel.is_enabled();
        let head_preds = self.head_preds();
        let driven: Vec<bool> = head_preds.iter().map(|&h| policy.delta_driven(h)).collect();
        let any_driven = driven.contains(&true);
        tel.with(|t| t.threads = self.workers.len().max(1));
        // Negation variants read `left` with every fact counted as new.
        let all_new = DeltaHandle::default();
        instance.commit_all();
        // Marks captured before the previous stage's apply: set from the
        // second stage of a Δ-driven run on, or from the entry.
        let mut mark: Option<DeltaHandle> = left.as_ref().map(|_| DeltaHandle::capture(instance));
        let mut stage = 0;
        loop {
            stage += 1;
            if options.max_stages.is_some_and(|m| stage > m) {
                return Err(EvalError::StageLimitExceeded(stage - 1));
            }
            let _round = tracer.span(SpanKind::Round, format!("round {stage}"));
            let stage_sw = tel.stopwatch();
            let joins_before = self.cache.counters;
            // Re-plan every stage: join orders chosen against a stale
            // catalog would stick as the instance grows (or shrinks).
            // On a cold first stage the idb really is empty, so its
            // cardinality is inflated; afterwards the live counts speak
            // for themselves.
            let mut planner = Planner::new(Catalog::from_instance(instance), options.plan_mode);
            if mark.is_none() && stage == 1 {
                planner.inflate(self.idb.iter().copied());
            }
            // A Δ stage fires each Δ-driven rule's semi-naive variants
            // over the last stage's insertions (one per positive idb
            // literal) and its negation variants over the facts that
            // left the negative context (one per negated literal over
            // them); every other rule fires its full plan. Each plan
            // comes with its rule and a flag marking negation variants.
            let left_has = |p: Symbol| {
                left.as_ref()
                    .and_then(|l| l.relation(p))
                    .is_some_and(|r| !r.is_empty())
            };
            let idb = &self.idb;
            let mut plans: Vec<(usize, Plan, bool)> = Vec::new();
            for (ri, (r, &driven)) in self.rules.iter().zip(&driven).enumerate() {
                if mark.is_none() || !driven {
                    plans.push((ri, planner.plan_rule(r), false));
                    continue;
                }
                let seminaive = planner.seminaive_variants(r, &|p| idb.binary_search(&p).is_ok());
                plans.extend(seminaive.into_iter().map(|p| (ri, p, false)));
                let negation = planner.negation_variants(r, &left_has);
                plans.extend(negation.into_iter().map(|p| (ri, p, true)));
            }
            let plan_stats = planner.stats();
            if mark.is_some() {
                self.cache.begin_delta_round();
                for worker in &mut self.workers {
                    worker.begin_delta_round();
                }
            }

            // One parallel firing: every rule reads the same instance.
            let current: &Instance = instance;
            let sources = Sources {
                delta: mark.as_ref(),
                neg,
                ..Sources::simple(current)
            };
            let left_sources = Sources {
                delta: Some(&all_new),
                delta_from: left.as_ref(),
                ..sources
            };
            let tasks: Vec<Task> = plans
                .iter()
                .map(|(rule, plan, negation)| Task {
                    rule: *rule,
                    plan,
                    sources: if *negation { left_sources } else { sources },
                })
                .collect();
            let (rule_stats, workers) = self.fire(&tasks, current, policy);
            let fired = rule_stats.iter().map(|s| s.fired).sum();

            let next_mark = any_driven.then(|| DeltaHandle::capture(instance));
            let mut apply = Apply {
                facts: instance.fact_count(),
                instance: &mut *instance,
                adom: &mut self.adom,
                stage,
                tel,
                max_facts: options.max_facts,
                record,
                added: 0,
                removed: 0,
                delta: Vec::new(),
            };
            let applied = policy.apply(&mut apply);
            let changed = apply.changed();
            let (added, removed, delta) = (apply.added, apply.removed, apply.delta);
            // Removals are tombstones, so the facts that left the
            // instance — which negation reads when `neg` is unset — are
            // the ones logged since the mark.
            left = match &next_mark {
                Some(marks) if removed > 0 && neg.is_none() => {
                    Some(retracted_since(instance, marks))
                }
                _ => None,
            };
            instance.commit_all();
            if removed > 0 {
                instance.compact_all();
            }
            mark = next_mark;

            if record {
                let round = Round {
                    added,
                    removed,
                    fired,
                    delta,
                    joins: self.cache.counters.since(&joins_before),
                    plan_stats,
                    workers,
                };
                round.record(tel, &head_preds, &rule_stats, stage_sw.nanos(), instance);
            }
            applied?;
            if !changed {
                return Ok(stage);
            }
        }
    }

    /// Fires `tasks` against `instance` and hands every match to
    /// `policy`: on this thread through the driver's cache, or in
    /// morsels across the workers, whose join counters then roll up into
    /// the driver's. Returns each rule's attribution and the worker
    /// lanes.
    fn fire(
        &mut self,
        tasks: &[Task<'_>],
        instance: &Instance,
        policy: &mut impl Consequence,
    ) -> (Vec<RuleStat>, Vec<(u64, u64)>) {
        let tracer = self.options.telemetry.tracer();
        let start_nanos = tracer.now_nanos();
        let mut stats = vec![
            RuleStat {
                start_nanos,
                ..RuleStat::default()
            };
            self.rules.len()
        ];
        let rules = &self.rules;
        let mut fire =
            |rule: usize, env: &Env| policy.fire(rule, &rules[rule].head[0], env, instance);
        if self.workers.is_empty() {
            for (k, task) in tasks.iter().enumerate() {
                let task_start = tracer.now_nanos();
                let stat = &mut stats[task.rule];
                if k == 0 || tasks[k - 1].rule != task.rule {
                    stat.start_nanos = task_start;
                }
                let fired = &mut stat.fired;
                let _ = for_each_match(
                    task.plan,
                    task.sources,
                    &self.adom,
                    &mut self.cache,
                    &mut |env| {
                        *fired += 1;
                        fire(task.rule, env);
                        ControlFlow::Continue(())
                    },
                );
                stat.dur_nanos += tracer.now_nanos().saturating_sub(task_start);
            }
            return (stats, Vec::new());
        }
        let lanes = parallel::fire(
            tasks,
            &self.adom,
            &mut self.workers,
            self.options.morsel_size,
            tracer.is_enabled().then_some(start_nanos),
            &mut stats,
            &mut fire,
        );
        for worker in &mut self.workers {
            self.cache
                .counters
                .absorb(&std::mem::take(&mut worker.counters));
        }
        (stats, lanes)
    }
}

/// The facts logged as retracted from `instance` since `marks` and still
/// absent, as an instance of their own.
fn retracted_since(instance: &Instance, marks: &DeltaHandle) -> Instance {
    let mut out = Instance::new();
    for (pred, rel) in instance.iter() {
        for t in rel.retracted_since(marks.mark(pred)) {
            if !rel.contains(t) {
                out.insert_row(pred, t);
            }
        }
    }
    out
}

/// One round's gauges, recorded on the open round span — with a leaf per
/// rule, per worker of a parallel round, and for its join counters — and
/// as a [`StageRecord`].
pub(crate) struct Round {
    pub(crate) added: usize,
    pub(crate) removed: usize,
    pub(crate) fired: u64,
    pub(crate) delta: Vec<(Symbol, usize)>,
    pub(crate) joins: JoinCounters,
    pub(crate) plan_stats: PlanStats,
    /// `(start, duration)` of each worker of a parallel round.
    pub(crate) workers: Vec<(u64, u64)>,
}

impl Round {
    /// Records the round that left `instance`; `rule_stats` holds one
    /// entry per rule of `head_preds`.
    pub(crate) fn record(
        self,
        tel: &Telemetry,
        head_preds: &[Symbol],
        rule_stats: &[RuleStat],
        wall_nanos: u64,
        instance: &Instance,
    ) {
        let tracer = tel.tracer();
        let bytes = instance.heap_bytes() as u64;
        tracer.gauge("facts_added", self.added as u64);
        tracer.gauge("facts_removed", self.removed as u64);
        tracer.gauge("rules_fired", self.fired);
        tracer.gauge("bytes", bytes);
        tracer.gauge("plan_joins_pruned", self.plan_stats.joins_pruned);
        tracer.gauge("subplans_shared", self.plan_stats.subplans_shared);
        if tracer.is_enabled() {
            for (ri, rs) in rule_stats.iter().enumerate() {
                let mut span = Span::leaf(SpanKind::Rule, format!("rule {ri}"));
                span.pred = Some(head_preds[ri]);
                span.start_nanos = rs.start_nanos;
                span.dur_nanos = rs.dur_nanos;
                span.gauges.push(("fired", rs.fired));
                tracer.leaf(span);
            }
            for (w, &(start, dur)) in self.workers.iter().enumerate() {
                let mut span = Span::leaf(SpanKind::Worker, format!("worker {w}"));
                span.lane = Some(w);
                span.start_nanos = start;
                span.dur_nanos = dur;
                tracer.leaf(span);
            }
            let mut join = Span::leaf(SpanKind::Join, "joins");
            join.gauges = vec![
                ("probes", self.joins.probes),
                ("probe_tuples", self.joins.probe_tuples),
                ("index_builds", self.joins.index_builds),
                ("indexed_tuples", self.joins.indexed_tuples),
                ("index_hits", self.joins.index_hits),
                ("index_appends", self.joins.index_appends),
                ("appended_tuples", self.joins.appended_tuples),
                ("index_rebuilds", self.joins.index_rebuilds),
            ];
            tracer.leaf(join);
        }
        tel.with(|t| {
            t.stages.push(StageRecord {
                stage: t.stages.len() + 1,
                wall_nanos,
                facts_added: self.added,
                facts_removed: self.removed,
                rules_fired: self.fired,
                delta: self.delta,
                bytes,
                joins: self.joins,
            });
            t.peak_facts = t.peak_facts.max(instance.fact_count());
            t.bytes_peak = t.bytes_peak.max(bytes);
            t.plan_joins_pruned += self.plan_stats.joins_pruned;
            t.subplans_shared += self.plan_stats.subplans_shared;
        });
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

/// Runs `strata` of `program` in order on `input`, each to its Δ-driven
/// [`Accumulate`] fixpoint, inside an [`EvalScope`] named `engine`: a
/// negative literal must read a predicate no later stratum defines. Each
/// non-empty stratum is one [`Stages`] run over its own rules in a
/// `stratum k` span; the strata share one active domain and one index
/// cache. Returns the stages of all strata together (at least one).
pub(crate) fn eval_strata(
    program: &Program,
    input: &Instance,
    options: &EvalOptions,
    engine: &str,
    strata: Vec<Vec<&Rule>>,
) -> Result<FixpointRun, EvalError> {
    let mut instance = with_idb(program, input)?;
    let scope = EvalScope::begin(options, engine);
    let tracer = scope.tracer().clone();
    let mut stages = Stages::new(program, input, options);
    let run = || -> Result<usize, EvalError> {
        let mut total = 0;
        for (k, rules) in strata.into_iter().enumerate() {
            if rules.is_empty() {
                continue;
            }
            let _stratum = tracer.span(SpanKind::Stratum, format!("stratum {k}"));
            let n = rules.len();
            stages.restrict(rules);
            let rounds = stages.run(&mut instance, None, &mut Accumulate::delta())?;
            tracer.gauge("rounds", rounds as u64);
            tracer.gauge("rules", n as u64);
            options
                .telemetry
                .note(format!("stratum {k}: {n} rules, {rounds} rounds"));
            total += rounds;
        }
        Ok(total)
    };
    let result = run();
    let (segments, recent) = instance.storage_stats();
    options.telemetry.note(format!(
        "storage: {segments} segments, {recent} uncommitted"
    ));
    let (_, cache) = stages.into_parts();
    options.telemetry.note(format!(
        "index cache: {} indexes, {}",
        cache.entry_count(),
        fmt_bytes(cache.heap_bytes() as u64)
    ));
    scope.finish(&instance, None);
    Ok(FixpointRun {
        instance,
        stages: result?.max(1),
    })
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

    /// `Fired::push_new` checks facts against the instance in batches:
    /// across several batches, with known facts, repeats and two
    /// predicates interleaved, exactly the facts the instance lacks
    /// survive, in firing order.
    #[test]
    fn fired_drops_known_facts_in_firing_order() {
        use super::{Fired, CHECK_BATCH};
        use crate::subst::Env;
        use unchained_parser::{Term, Var};
        let mut i = Interner::new();
        let (p, q) = (i.intern("P"), i.intern("Q"));
        let mut instance = Instance::new();
        for k in (0..300).step_by(3) {
            instance.insert_fact(p, Tuple::from([Value::Int(k)]));
        }
        let args = [Term::Var(Var(0))];
        let mut fired = Fired::default();
        let mut want = Vec::new();
        for k in 0..(3 * CHECK_BATCH as i64) {
            let env: Env = vec![Some(Value::Int(k % 150))];
            let pred = if k % 7 == 0 { q } else { p };
            fired.push_new(pred, &args, &env, &instance);
            if pred == q || k % 150 % 3 != 0 {
                want.push((pred, vec![Value::Int(k % 150)]));
            }
        }
        fired.drop_known(&instance);
        let got: Vec<_> = fired
            .iter()
            .map(|(pred, row)| (pred, row.to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    /// The fact budget is checked after every insertion, so a stage that
    /// would derive 1,000 facts stops at the first one over the budget
    /// instead of reporting the post-stage count — on every stage-driver
    /// engine, at any thread count.
    #[test]
    fn fact_budget_stops_a_stage_at_the_first_fact_over() {
        let mut i = Interner::new();
        let program = parse_program("P(x,y,z) :- A(x), A(y), A(z).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut input = Instance::new();
        for k in 0..10 {
            input.insert_fact(a, Tuple::from([Value::Int(k)]));
        }
        let over = Some(EvalError::FactLimitExceeded(11));
        let policy = ConflictPolicy::PreferPositive;
        for threads in [1, 4] {
            let options = || {
                EvalOptions::default()
                    .with_max_facts(10)
                    .with_threads(threads)
            };
            let runs = [
                (
                    "naive",
                    naive::minimum_model(&program, &input, options()).err(),
                ),
                (
                    "seminaive",
                    seminaive::minimum_model(&program, &input, options()).err(),
                ),
                (
                    "stratified",
                    stratified::eval(&program, &input, options()).err(),
                ),
                (
                    "inflationary",
                    inflationary::eval(&program, &input, options()).err(),
                ),
                (
                    "inflationary-traced",
                    inflationary::eval_traced(&program, &input, options()).err(),
                ),
                (
                    "invention",
                    invention::eval(&program, &input, options()).err(),
                ),
                (
                    "noninflationary",
                    noninflationary::eval(&program, &input, policy, options()).err(),
                ),
                (
                    "provenance",
                    provenance::minimum_model_with_provenance(&program, &input, options()).err(),
                ),
            ];
            for (engine, err) in runs {
                assert_eq!(err, over, "{engine} @{threads}");
            }
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
