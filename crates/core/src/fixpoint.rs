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
//! | `Trigger` | the active-database trigger engine | applies the effective insertions and deletions, insertion first, and replaces the `ins-`/`del-` delta relations with them | no |
//! | `Withdraw` | the DRed overdelete of an IVM poll and of the well-founded shrink | withdraws the fired facts still live into the run's change set | every rule |
//! | `Insert` | the insert propagation of an IVM poll | inserts the fired facts, one at a time, into the instance and the run's change set | every rule |
//!
//! Every policy runs at any `threads`, with identical answers, stage
//! counts and `rules_fired`.
//!
//! [`Stages::run`] drives them all through one loop: take every rule's
//! plans from the driver's [`PlanCache`], re-planning a plan only when a
//! body relation's cardinality has left the power-of-two bucket it was
//! planned at, fire every plan, hand each match to the policy, apply it
//! under the fact budget, commit, and record the stage. Policies that
//! only insert what they fire collect it in [`Fired`], one packed buffer
//! per head predicate, and [`Apply::extend`] adds each buffer as one
//! sorted, duplicate-free segment, probing each distinct fact once
//! ([`Relation::extend_packed`](unchained_common::Relation::extend_packed));
//! naive evaluation's full stages, which re-fire every known fact, drop
//! those as they fire ([`Fired::probing`]). A run fires a rule set — the
//! whole program, or one stratum ([`Stages::restrict`], [`eval_strata`]).
//! At one thread the plans fire on the calling thread; otherwise
//! [`crate::parallel`] fires them in morsels across workers and replays
//! the matches into the policy in the sequential order.
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
//!
//! A run can also be *entered* with the facts whose membership in its
//! negative context just changed ([`Stages::run_from`]), and *driven
//! over a change set* ([`Change`]): a closure of an IVM poll or of the
//! well-founded shrink. A closure's Δ is that set, so it reads no
//! instance marks and never commits (a commit would re-sort tails that
//! the caller's index stamps cover); it fires on the calling thread and
//! adds its work to the caller's [`Round`].

use std::ops::ControlFlow;

use unchained_common::{
    fmt_bytes, DeltaHandle, FxHashMap, HeapSize, Instance, JoinCounters, Relation, Run, Span,
    SpanKind, Symbol, Tracer, Tuple, Value,
};
use unchained_parser::{HeadLiteral, Literal, Program, Rule, Term};

use crate::error::EvalError;
use crate::exec::{for_each_match, IndexCache, Sources};
use crate::input_schema;
use crate::ir::Plan;
use crate::options::{EvalOptions, FixpointRun};
use crate::parallel::{self, Task};
use crate::planner::{Catalog, PlanMode, PlanStats, Planner};
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

/// Every fact of `instance`, relation by relation.
pub(crate) fn facts(instance: &Instance) -> impl Iterator<Item = (Symbol, &[Value])> {
    instance
        .iter()
        .flat_map(|(pred, rel)| rel.iter_stored().map(move |row| (pred, row)))
}

/// The telemetry envelope of one engine run: its run of the telemetry
/// handle, named after the engine, whose eval span stays open until
/// [`finish`](Self::finish) (or the scope drops).
pub(crate) struct EvalScope {
    tracer: Tracer,
    _run: Run,
}

impl EvalScope {
    pub(crate) fn begin(options: &EvalOptions, engine: &str) -> EvalScope {
        let tel = &options.telemetry;
        EvalScope {
            tracer: tel.tracer().clone(),
            _run: tel.run(engine),
        }
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Ends the run on `instance`: gauges `rounds` (when given),
    /// `final_facts` and `bytes_final` on the eval span, and closes it.
    pub(crate) fn finish(self, instance: &Instance, rounds: Option<usize>) {
        let tracer = &self.tracer;
        if let Some(rounds) = rounds {
            tracer.gauge("rounds", rounds as u64);
        }
        tracer.gauge("final_facts", instance.fact_count() as u64);
        if tracer.is_enabled() {
            tracer.gauge("bytes_final", instance.heap_bytes() as u64);
        }
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
    /// Adds `piece` to a rule fired in several pieces (the closure
    /// stages and rederive pass of one round); the first piece places
    /// the rule's start.
    pub(crate) fn merge(&mut self, piece: &RuleStat) {
        if self.start_nanos == 0 {
            self.start_nanos = piece.start_nanos;
        }
        self.fired += piece.fired;
        self.dur_nanos += piece.dur_nanos;
    }
}

/// The change set a closure run is driven over — an IVM poll's
/// deletions or insertions, or the well-founded shrink's withdrawals —
/// and the round of its caller, which its stages add their rules'
/// attribution and their planning to.
pub(crate) struct Change<'c> {
    /// The first stage's Δ is all of these facts, each later stage's the
    /// facts the previous stage moved, which its policy appends here.
    pub(crate) facts: &'c mut Instance,
    /// When set, full scans (and negation, without a frozen context)
    /// read the state before an update that inserted these facts and
    /// deleted `facts` ([`Sources::before`]).
    pub(crate) before: Option<&'c Instance>,
    pub(crate) round: &'c mut Round,
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
    pub(crate) tracer: &'s Tracer,
    /// A closure run's change set, which gets every fact it moves.
    pub(crate) change: Option<&'s mut Instance>,
    max_facts: Option<usize>,
    facts: usize,
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
        self.count(pred, 1);
        if self.max_facts.is_some_and(|m| self.facts > m) {
            return Err(EvalError::FactLimitExceeded(self.facts));
        }
        Ok(true)
    }

    /// Adds the `rows` facts of `pred` packed in `values`, duplicates
    /// and present facts allowed, as one sorted segment (see
    /// [`Relation::extend_packed`]); returns how many were new. Fails at
    /// the first fact over the `max_facts` budget, which only the facts
    /// up to it are inserted for, the first in sorted order.
    ///
    /// [`Relation::extend_packed`]: unchained_common::Relation::extend_packed
    pub(crate) fn extend(
        &mut self,
        pred: Symbol,
        arity: usize,
        rows: usize,
        values: Vec<Value>,
    ) -> Result<usize, EvalError> {
        let room = self
            .max_facts
            .map_or(usize::MAX, |m| m.saturating_sub(self.facts) + 1);
        let added = self
            .instance
            .ensure(pred, arity)
            .extend_packed(rows, values, room);
        self.count(pred, added);
        if self.max_facts.is_some_and(|m| self.facts > m) {
            return Err(EvalError::FactLimitExceeded(self.facts));
        }
        Ok(added)
    }

    /// Counts `n` facts of `pred` as inserted.
    fn count(&mut self, pred: Symbol, n: usize) {
        self.added += n;
        self.facts += n;
        if n > 0 && self.tracer.is_enabled() {
            match self.delta.iter_mut().find(|(p, _)| *p == pred) {
                Some((_, k)) => *k += n,
                None => self.delta.push((pred, n)),
            }
        }
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

/// Values (16 B each) a predicate's buffer of fired facts holds before
/// it is first deduplicated (see [`Fired::push_new`]).
const DEDUP_FLOOR: usize = 1 << 14;

/// The facts a stage fired, one packed value buffer per head predicate,
/// in the order of their first firing: firing a fact allocates nothing
/// once the buffers have grown. [`apply`](Fired::apply) hands each
/// buffer to [`Relation::extend_packed`], which adds the facts the
/// instance lacks as one sorted segment.
///
/// [`Relation::extend_packed`]: unchained_common::Relation::extend_packed
#[derive(Default)]
pub(crate) struct Fired {
    batches: Vec<Batch>,
    /// The batch the last firing went to: consecutive firings come from
    /// one rule, so mostly go to it again.
    last: usize,
    /// Whether each firing probes the instance and drops a fact it
    /// holds (see [`Fired::probing`]).
    probe: bool,
}

/// The fired facts of one predicate.
struct Batch {
    pred: Symbol,
    arity: usize,
    /// Rows in `values` (the count arity 0 cannot read off them).
    rows: usize,
    values: Vec<Value>,
    /// The length of `values` after the last [`dedup`](Batch::dedup),
    /// which left distinct facts the instance lacks.
    deduped: usize,
}

impl Batch {
    /// Drops the duplicates and the facts `instance` holds, leaving the
    /// rows sorted. The rows the last dedup kept are sorted, distinct
    /// and absent already, so only the rows fired since are sorted and
    /// probed, then merged into them.
    fn dedup(&mut self, instance: &Instance) {
        let a = self.arity; // ≥ 1: arity-0 buffers hold no values
        let empty;
        let rel = match instance.relation(self.pred) {
            Some(rel) => rel,
            None => {
                empty = Relation::new(a);
                &empty
            }
        };
        let kept = self.values[..self.deduped].to_vec();
        self.values.drain(..self.deduped);
        let mut i = rel.retain_absent(self.values.len() / a, &mut self.values) * a;
        // Merge from the back: row by row, the larger of the two last
        // rows goes to the end of the room left, once if both are equal.
        let (mut j, mut k) = (kept.len(), i + kept.len());
        self.values.resize(k, Value::Int(0));
        while j > 0 {
            let old = &kept[j - a..j];
            if i > 0 && self.values[i - a..i] >= *old {
                if self.values[i - a..i] == *old {
                    j -= a;
                }
                self.values.copy_within(i - a..i, k - a);
                i -= a;
            } else {
                self.values[k - a..k].copy_from_slice(old);
                j -= a;
            }
            k -= a;
        }
        // Equal rows written once left a gap above the fresh rows still
        // in place.
        self.values.drain(i..k);
        self.rows = self.values.len() / a;
        self.deduped = self.values.len();
    }
}

impl Fired {
    /// Buffers for stages that re-fire most of what the instance holds
    /// (naive evaluation's full stages): each fired fact is probed as it
    /// fires and dropped if the instance holds it, so the buffer only
    /// grows with the stage's new facts.
    pub(crate) fn probing() -> Self {
        Fired {
            probe: true,
            ..Fired::default()
        }
    }

    /// Fires `pred(args)` under `env`, which `instance` may already
    /// hold. Once the predicate's buffer has doubled since its last
    /// deduplication, and holds at least twice [`DEDUP_FLOOR`] values, it
    /// is sorted in place and loses its duplicates and the facts
    /// `instance` holds; so it never holds more than about twice the
    /// stage's new facts. The instance does not change while a stage
    /// fires, so a fact dropped here would be dropped at `apply` too.
    pub(crate) fn push_new(&mut self, pred: Symbol, args: &[Term], env: &Env, instance: &Instance) {
        let probe = self.probe;
        let batch = self.add(pred, args, env);
        let a = batch.arity;
        let row = &batch.values[batch.values.len() - a..];
        if probe && instance.contains_fact(pred, row) {
            batch.values.truncate(batch.values.len() - a);
            batch.rows -= 1;
        } else if batch.values.len() >= 2 * batch.deduped.max(DEDUP_FLOOR) {
            batch.dedup(instance);
        }
    }

    /// Fires `pred(args)` under `env`.
    pub(crate) fn push(&mut self, pred: Symbol, args: &[Term], env: &Env) {
        self.add(pred, args, env);
    }

    /// Fires `pred(args)` under `env`, kept only if it is in `live`.
    pub(crate) fn push_live(&mut self, pred: Symbol, args: &[Term], env: &Env, live: &Instance) {
        let batch = self.add(pred, args, env);
        let a = batch.arity;
        if !live.contains_fact(pred, &batch.values[batch.values.len() - a..]) {
            batch.values.truncate(batch.values.len() - a);
            batch.rows -= 1;
        }
    }

    /// Appends `pred(args)` under `env` to its predicate's buffer, and
    /// returns that buffer.
    fn add(&mut self, pred: Symbol, args: &[Term], env: &Env) -> &mut Batch {
        if self.batches.get(self.last).is_none_or(|b| b.pred != pred) {
            self.last = match self.batches.iter().position(|b| b.pred == pred) {
                Some(at) => at,
                None => {
                    self.batches.push(Batch {
                        pred,
                        arity: args.len(),
                        rows: 0,
                        values: Vec::new(),
                        deduped: 0,
                    });
                    self.batches.len() - 1
                }
            };
        }
        let batch = &mut self.batches[self.last];
        instantiate_into(args, env, &mut batch.values);
        batch.rows += 1;
        batch
    }

    /// Hands every fired fact to `each`, predicate by predicate in the
    /// order of their first firing, and empties the buffers.
    pub(crate) fn drain(
        &mut self,
        mut each: impl FnMut(Symbol, &[Value]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        for batch in std::mem::take(&mut self.batches) {
            let a = batch.arity;
            for k in 0..batch.rows {
                each(batch.pred, &batch.values[k * a..(k + 1) * a])?;
            }
        }
        Ok(())
    }

    /// Adds every fired fact to `stage`, one sorted segment per
    /// predicate, handing each new one to `inserted`, and empties the
    /// buffers.
    pub(crate) fn apply(
        &mut self,
        stage: &mut Apply<'_>,
        mut inserted: impl FnMut(Symbol, &[Value], usize),
    ) -> Result<(), EvalError> {
        for batch in std::mem::take(&mut self.batches) {
            let added = stage.extend(batch.pred, batch.arity, batch.rows, batch.values)?;
            let rel = stage.instance.relation(batch.pred).expect("extended");
            for row in rel.iter_stored_range(rel.stored_rows() - added, usize::MAX) {
                inserted(batch.pred, row, stage.stage);
            }
        }
        Ok(())
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
    /// They re-fire every fact the instance holds, so each is probed as
    /// it fires ([`Fired::probing`]).
    pub(crate) fn full() -> Self {
        Accumulate {
            fired: Fired::probing(),
            birth: None,
            delta: false,
        }
    }

    /// Δ-driven stages: inflationary Datalog¬ and the reducts, whose
    /// negative literals never turn true.
    pub(crate) fn delta() -> Self {
        Accumulate {
            fired: Fired::default(),
            birth: None,
            delta: true,
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
/// one stratum — with the active domain, the index caches every stage's
/// joins share and the [`PlanCache`], across stages, runs and strata.
pub(crate) struct Stages<'p> {
    pub(crate) options: &'p EvalOptions,
    pub(crate) program: &'p Program,
    /// The program index of each rule a run fires.
    rules: Vec<usize>,
    /// The head predicate of each rule of `rules`.
    heads: Vec<Symbol>,
    /// The head predicates of `rules`, sorted: the predicates Δ variants
    /// are taken over.
    idb: Vec<Symbol>,
    adom: Vec<Value>,
    cache: IndexCache,
    plans: PlanCache,
    /// One index cache per worker of a parallel stage (none at one
    /// thread), kept across stages like `cache`.
    workers: Vec<IndexCache>,
}

/// A cached plan's program rule and Δ literal.
type PlanKey = (usize, Option<usize>);

/// The plans a driver compiled, kept across stages and runs: one per
/// program rule and Δ literal (none for the full plan), with its
/// `joins_pruned` and its stamp — the power-of-two bucket of each body
/// atom's cardinality in the instance the stage fires over. A stage
/// reuses a plan whose stamp it matches, so a join order changes only
/// when the data has changed shape. Every stage, the first included, is
/// planned on the live counts: a first stage can only fire rules whose
/// bodies already hold, so an empty idb relation is a free scan there.
#[derive(Default)]
pub(crate) struct PlanCache {
    plans: FxHashMap<PlanKey, (Plan, u64, Vec<u8>)>,
    /// Plans compiled so far.
    pub(crate) compiled: usize,
}

impl<'p> Stages<'p> {
    pub(crate) fn new(program: &'p Program, input: &Instance, options: &'p EvalOptions) -> Self {
        Stages::over(
            program,
            options,
            active_domain_if_enumerated(program, input),
            IndexCache::new(),
            PlanCache::default(),
        )
    }

    /// A driver firing every rule of `program`, whose `Domain` steps
    /// enumerate `adom` and whose joins and plans start from `cache` and
    /// `plans`.
    pub(crate) fn over(
        program: &'p Program,
        options: &'p EvalOptions,
        adom: Vec<Value>,
        cache: IndexCache,
        plans: PlanCache,
    ) -> Self {
        let threads = options.threads.get();
        let workers = if threads > 1 { threads } else { 0 };
        let mut stages = Stages {
            options,
            program,
            rules: Vec::new(),
            heads: Vec::new(),
            idb: Vec::new(),
            adom,
            cache,
            plans,
            workers: (0..workers).map(|_| IndexCache::new()).collect(),
        };
        stages.restrict((0..program.rules.len()).collect());
        stages
    }

    /// Makes later runs fire the program rules `rules` only: one stratum,
    /// whose negative literals read lower strata that are already
    /// complete.
    pub(crate) fn restrict(&mut self, rules: Vec<usize>) {
        self.heads = rules
            .iter()
            .map(|&ri| {
                self.program.rules[ri].head[0]
                    .atom()
                    .expect("relational head")
                    .pred
            })
            .collect();
        self.idb = self.heads.clone();
        self.idb.sort_unstable();
        self.idb.dedup();
        self.rules = rules;
    }

    /// The active domain and the driver's index and plan caches, for an
    /// owner that keeps them between runs.
    pub(crate) fn into_parts(self) -> (Vec<Value>, IndexCache, PlanCache) {
        (self.adom, self.cache, self.plans)
    }

    /// The head predicates of the rules a run fires, sorted.
    pub(crate) fn idb(&self) -> &[Symbol] {
        &self.idb
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
    pub(crate) fn head_preds(&self) -> &[Symbol] {
        &self.heads
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
        self.run_from(instance, neg, None, None, policy)
    }

    /// Like [`run`](Self::run), entered with `flipped`: facts whose
    /// membership in `neg` just changed, on an `instance` that was the
    /// policy's fixpoint for `neg` before. The first stage is then a Δ
    /// stage: Δ-driven rules fire only their negation variants over
    /// `flipped`, since a valuation the change makes or breaks negates
    /// one of them. A closure run is driven over `change` instead of the
    /// instance's own growth, and reads the state before its change: its
    /// negation reads `neg` without `flipped` (see the module doc).
    pub(crate) fn run_from(
        &mut self,
        instance: &mut Instance,
        neg: Option<&Instance>,
        flipped: Option<&Instance>,
        mut change: Option<Change<'_>>,
        policy: &mut impl Consequence,
    ) -> Result<usize, EvalError> {
        let options = self.options;
        let tracer = options.telemetry.tracer();
        let driven: Vec<bool> = self.heads.iter().map(|&h| policy.delta_driven(h)).collect();
        let any_driven = driven.contains(&true);
        // Negation variants read the flipped facts with every fact
        // counted as new.
        let all_new = DeltaHandle::default();
        // Marks captured before the previous stage's apply, from the
        // second stage of a Δ-driven run on, or from the entry: on the
        // instance, or on a closure's change set, all of it new at entry.
        let mut mark = match &change {
            Some(change) => {
                if change.before.is_some() {
                    // The view's withdrawn side is this run's change set.
                    self.cache.forget_withdrawn();
                }
                Some(DeltaHandle::default())
            }
            None => {
                instance.commit_all();
                flipped.map(|_| DeltaHandle::capture(instance))
            }
        };
        // The facts that left the instance at the last stage's apply.
        let mut left: Option<Instance> = None;
        let mut stage = 0;
        loop {
            stage += 1;
            if options.max_stages.is_some_and(|m| stage > m) {
                return Err(EvalError::StageLimitExceeded(stage - 1));
            }
            let _round = change
                .is_none()
                .then(|| tracer.span(SpanKind::Round, format!("round {stage}")));
            let joins_before = self.cache.counters;
            // A Δ stage fires each Δ-driven rule's semi-naive variants
            // over the last stage's Δ (one per positive literal over a
            // head predicate, or one the change set holds) and negation
            // variants over the flipped facts; every other rule fires its
            // full plan, with its rule and a flag for negation variants.
            let facts = change.as_ref().map(|c| &*c.facts);
            let flips = if stage == 1 { flipped } else { left.as_ref() };
            let holds = |set: Option<&Instance>, p: Symbol| {
                set.and_then(|s| s.relation(p))
                    .is_some_and(|r| !r.is_empty())
            };
            let idb = &self.idb;
            let in_delta = |p| facts.map_or(idb.binary_search(&p).is_ok(), |_| holds(facts, p));
            // Plans come from the cache (see [`PlanCache`]).
            let (mut cache, mut planner) = (std::mem::take(&mut self.plans), None);
            let mut plan_stats = PlanStats::default();
            // Each rule's planning time, part of its span when sequential.
            let mut planned = vec![RuleStat::default(); self.rules.len()];
            let mut keys = Vec::new();
            for (pos, (&ri, &driven)) in self.rules.iter().zip(&driven).enumerate() {
                let start_nanos = tracer.now_nanos();
                let rule = &self.program.rules[ri];
                let first = keys.len();
                if mark.is_none() || !driven {
                    keys.push((pos, (ri, None), false));
                } else {
                    // Semi-naive variants first, then negation variants.
                    for negation in [false, true] {
                        let variant = |i: &usize| match &rule.body[*i] {
                            Literal::Pos(a) => !negation && in_delta(a.pred),
                            Literal::Neg(a) => negation && holds(flips, a.pred),
                            _ => false,
                        };
                        let body = (0..rule.body.len()).filter(variant);
                        keys.extend(body.map(|i| (pos, (ri, Some(i)), negation)));
                    }
                }
                for &(_, key, _) in &keys[first..] {
                    let at = (&*instance, options.plan_mode);
                    plan_stats.joins_pruned += cache.plan(key, rule, at, &mut planner);
                }
                let dur_nanos = tracer.now_nanos().saturating_sub(start_nanos);
                planned[pos] = RuleStat {
                    fired: 0,
                    start_nanos,
                    dur_nanos,
                };
            }
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
                // A closure reads the state before its change.
                neg_added: facts.and(flipped),
                delta_from: facts,
                before: change.as_ref().and_then(|c| Some((c.before?, &*c.facts))),
                ..Sources::simple(current)
            };
            let flipped_sources = Sources {
                delta: Some(&all_new),
                delta_from: flips,
                ..sources
            };
            let tasks: Vec<Task> = keys
                .iter()
                .map(|(rule, key, negation)| Task {
                    rule: *rule,
                    plan: &cache.plans[key].0,
                    sources: if *negation { flipped_sources } else { sources },
                })
                .collect();
            // A closure fires on this thread: its stages are change-sized,
            // morsels cannot read a pre-update view, and the workers of a
            // poll's driver would index the whole instance afresh.
            let parallel = facts.is_none();
            let (rule_stats, workers) = self.fire(&tasks, current, policy, parallel, planned);
            self.plans = cache;

            let next_mark = any_driven.then(|| DeltaHandle::capture(facts.unwrap_or(current)));
            let mut apply = Apply {
                facts: instance.fact_count(),
                instance: &mut *instance,
                adom: &mut self.adom,
                stage,
                tracer,
                change: change.as_mut().map(|c| &mut *c.facts),
                max_facts: options.max_facts,
                added: 0,
                removed: 0,
                delta: Vec::new(),
            };
            let applied = policy.apply(&mut apply);
            let changed = apply.changed();
            let (added, removed, delta) = (apply.added, apply.removed, apply.delta);
            mark = next_mark;
            match &mut change {
                Some(change) => change.round.add(&rule_stats, plan_stats),
                None => {
                    // Removals are tombstones, so the facts that left the
                    // instance — which negation reads when `neg` is unset
                    // — are the ones logged since the mark.
                    left = match &mark {
                        Some(marks) if removed > 0 && neg.is_none() => {
                            Some(retracted_since(instance, marks))
                        }
                        _ => None,
                    };
                    instance.commit_all();
                    if removed > 0 {
                        instance.compact_all();
                    }
                    if tracer.is_enabled() {
                        let round = Round {
                            added,
                            removed,
                            rules: rule_stats,
                            delta,
                            joins: self.cache.counters.since(&joins_before),
                            plan_stats,
                            workers,
                        };
                        round.record(options, &self.heads, instance);
                    }
                }
            }
            applied?;
            if !changed {
                return Ok(stage);
            }
        }
    }

    /// Fires `tasks` against `instance` and hands every match to
    /// `policy`: on this thread through the driver's cache, adding each
    /// task's time to its rule's planning time in `stats`, or, when
    /// `parallel`, in morsels across the workers, whose join counters
    /// then roll up into the driver's. Returns each rule's attribution
    /// and the worker lanes.
    fn fire(
        &mut self,
        tasks: &[Task<'_>],
        instance: &Instance,
        policy: &mut impl Consequence,
        parallel: bool,
        mut stats: Vec<RuleStat>,
    ) -> (Vec<RuleStat>, Vec<(u64, u64)>) {
        let tracer = self.options.telemetry.tracer();
        let (program, rules) = (self.program, &self.rules);
        let mut fire = |rule: usize, env: &Env| {
            policy.fire(rule, &program.rules[rules[rule]].head[0], env, instance)
        };
        if self.workers.is_empty() || !parallel {
            for task in tasks {
                let task_start = tracer.now_nanos();
                let stat = &mut stats[task.rule];
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
        // A parallel rule span holds the worker time of its morsels.
        let start_nanos = tracer.now_nanos();
        stats.fill(RuleStat {
            start_nanos,
            ..RuleStat::default()
        });
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

impl PlanCache {
    /// Returns the `joins_pruned` of the plan `key` names for `rule` at
    /// a stage over `instance`. The plan is compiled, by `planner` (made
    /// at the stage's first miss), only when the cached one was stamped
    /// with other buckets.
    fn plan(
        &mut self,
        key: PlanKey,
        rule: &Rule,
        (instance, mode): (&Instance, PlanMode),
        planner: &mut Option<Planner>,
    ) -> u64 {
        // The catalog's cardinality of a body atom, by its bucket.
        let bucket = |p| {
            let n = instance.relation(p).map_or(0, Relation::len);
            (usize::BITS - n.leading_zeros()) as u8
        };
        let atoms = rule.body.iter().filter_map(Literal::atom);
        let stamp = atoms.map(|a| bucket(a.pred));
        if let Some((_, pruned, at)) = self.plans.get(&key) {
            if at.iter().copied().eq(stamp.clone()) {
                return *pruned;
            }
        }
        let planner =
            planner.get_or_insert_with(|| Planner::new(Catalog::from_instance(instance), mode));
        let before = planner.stats().joins_pruned;
        let plan = match key.1 {
            Some(i) => planner.plan_delta(rule, i),
            None => planner.plan_rule(rule),
        };
        let pruned = planner.stats().joins_pruned - before;
        self.compiled += 1;
        self.plans.insert(key, (plan, pruned, stamp.collect()));
        pruned
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
/// rule, per worker of a parallel round, per relation of its Δ and for
/// its join counters; a [`StageRecord`] is projected from them. A
/// caller's round made of several pieces (closure runs, rederive passes)
/// adds them up in `rules` and `plan_stats`.
///
/// [`StageRecord`]: unchained_common::StageRecord
#[derive(Default)]
pub(crate) struct Round {
    pub(crate) added: usize,
    pub(crate) removed: usize,
    /// Each rule's attribution, by its position in the rule set fired.
    pub(crate) rules: Vec<RuleStat>,
    pub(crate) delta: Vec<(Symbol, usize)>,
    pub(crate) joins: JoinCounters,
    pub(crate) plan_stats: PlanStats,
    /// `(start, duration)` of each worker of a parallel round.
    pub(crate) workers: Vec<(u64, u64)>,
}

impl Round {
    /// Adds the rules' attribution and the planning of one piece.
    pub(crate) fn add(&mut self, rules: &[RuleStat], plan_stats: PlanStats) {
        let n = self.rules.len().max(rules.len());
        self.rules.resize(n, RuleStat::default());
        for (sum, piece) in self.rules.iter_mut().zip(rules) {
            sum.merge(piece);
        }
        self.plan_stats.joins_pruned += plan_stats.joins_pruned;
    }

    /// The matches the round's rules fired.
    pub(crate) fn fired(&self) -> u64 {
        self.rules.iter().map(|s| s.fired).sum()
    }

    /// Records the round that left `instance`, run under `options`;
    /// `rules` holds one entry per rule of `head_preds`.
    pub(crate) fn record(self, options: &EvalOptions, head_preds: &[Symbol], instance: &Instance) {
        let tracer = options.telemetry.tracer();
        tracer.gauge("facts_added", self.added as u64);
        tracer.gauge("facts_removed", self.removed as u64);
        tracer.gauge("rules_fired", self.fired());
        tracer.gauge("facts", instance.fact_count() as u64);
        tracer.gauge("bytes", instance.heap_bytes() as u64);
        tracer.gauge("plan_joins_pruned", self.plan_stats.joins_pruned);
        for (ri, rs) in self.rules.iter().enumerate() {
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
        for (pred, added) in self.delta {
            let mut span = Span::leaf(SpanKind::Absorb, "delta");
            span.pred = Some(pred);
            span.gauges.push(("facts_added", added as u64));
            tracer.leaf(span);
        }
        let mut join = Span::leaf(SpanKind::Join, "joins");
        join.gauges = self.joins.gauges();
        join.gauges.push(("threads", options.threads.get() as u64));
        tracer.leaf(join);
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

/// Runs `strata` of `program` (each a list of program rule indices) in
/// order on `input`, each to its Δ-driven [`Accumulate`] fixpoint,
/// inside an [`EvalScope`] named `engine`: a negative literal must read
/// a predicate no later stratum defines. Each non-empty stratum is one
/// [`Stages`] run over its own rules in a `stratum k` span; the strata
/// share one active domain, index cache and plan cache. Returns the
/// stages of all strata together (at least one).
pub(crate) fn eval_strata(
    program: &Program,
    input: &Instance,
    options: &EvalOptions,
    engine: &str,
    strata: Vec<Vec<usize>>,
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
            tracer.note(|| format!("stratum {k}: {n} rules, {rounds} rounds"));
            total += rounds;
        }
        Ok(total)
    };
    let result = run();
    tracer.note(|| {
        let (segments, recent) = instance.storage_stats();
        format!("storage: {segments} segments, {recent} uncommitted")
    });
    let (_, cache, _) = stages.into_parts();
    tracer.note(|| {
        format!(
            "index cache: {} keys, {} of indexes",
            cache.entry_count(),
            fmt_bytes(cache.heap_bytes() as u64)
        )
    });
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

    /// `Fired::push_new` keeps a predicate's buffer bounded by the
    /// stage's new facts, not its firings: 100,000 firings of ten facts,
    /// five of them known, never hold more than twice the dedup floor of
    /// values, and `apply` adds exactly the five new facts, as one
    /// segment. A probing buffer holds the firings of new facts alone.
    #[test]
    fn fired_buffer_stays_small_under_repeated_firings() {
        use super::{Apply, Fired, DEDUP_FLOOR};
        use crate::subst::Env;
        use unchained_common::Tracer;
        use unchained_parser::{Term, Var};
        let mut i = Interner::new();
        let p = i.intern("P");
        let mut instance = Instance::new();
        for k in 0..5 {
            instance.insert_fact(p, Tuple::from([Value::Int(k)]));
        }
        instance.commit_all();
        let args = [Term::Var(Var(0))];
        let mut fired = Fired::default();
        let mut most = 0;
        for k in 0..100_000 {
            let env: Env = vec![Some(Value::Int(k % 10))];
            fired.push_new(p, &args, &env, &instance);
            most = most.max(fired.batches[0].values.len());
        }
        assert!(most <= 2 * DEDUP_FLOOR, "buffer reached {most} values");
        // The last deduplication kept the five new facts alone.
        assert_eq!(fired.batches[0].deduped, 5);
        // A probing buffer never takes a known fact in.
        let mut probing = Fired::probing();
        for k in 0..1_000 {
            let env: Env = vec![Some(Value::Int(k % 10))];
            probing.push_new(p, &args, &env, &instance);
        }
        let held = &probing.batches[0];
        assert_eq!(held.rows, 500);
        assert!(held.values.iter().all(|v| *v >= Value::Int(5)));
        let tracer = Tracer::off();
        let mut stage = Apply {
            facts: instance.fact_count(),
            instance: &mut instance,
            adom: &mut Vec::new(),
            stage: 1,
            tracer: &tracer,
            change: None,
            max_facts: None,
            added: 0,
            removed: 0,
            delta: Vec::new(),
        };
        let mut new = Vec::new();
        fired
            .apply(&mut stage, |_, row, _| new.push(row[0]))
            .unwrap();
        assert_eq!(stage.added, 5);
        assert_eq!(new, (5..10).map(Value::Int).collect::<Vec<_>>());
        assert!(fired.batches.is_empty());
        assert_eq!(instance.relation(p).unwrap().segment_lens(), vec![5, 5]);
    }

    /// Each dedup pass leaves exactly the distinct facts fired so far
    /// that the instance lacks, sorted, while the passes sort and probe
    /// only the facts fired since the last one and merge them in: 60,000
    /// random binary firings, a quarter of their domain known, the later
    /// half reaching below the earlier half's facts.
    #[test]
    fn fired_dedup_passes_keep_the_sorted_new_facts() {
        use super::Fired;
        use crate::subst::Env;
        use std::collections::BTreeSet;
        use unchained_common::rng::Rng;
        use unchained_parser::{Term, Var};
        let mut i = Interner::new();
        let p = i.intern("P");
        let mut rng = Rng::seeded(7);
        let mut instance = Instance::new();
        for x in 0..120 {
            for y in 0..30 {
                instance.insert_fact(p, Tuple::from([Value::Int(x), Value::Int(y)]));
            }
        }
        instance.commit_all();
        let args = [Term::Var(Var(0)), Term::Var(Var(1))];
        let mut fired = Fired::default();
        let mut model = BTreeSet::new();
        let mut passes = 0;
        for t in 0..60_000 {
            let low = if t < 30_000 { 60 } else { 0 };
            let x = (low + rng.gen_index(120 - low)) as i64;
            let y = rng.gen_index(120) as i64;
            let env: Env = vec![Some(Value::Int(x)), Some(Value::Int(y))];
            fired.push_new(p, &args, &env, &instance);
            if y >= 30 {
                model.insert([Value::Int(x), Value::Int(y)]);
            }
            let batch = &fired.batches[0];
            if batch.deduped == batch.values.len() && batch.rows > 0 {
                passes += 1;
                let want: Vec<Value> = model.iter().flatten().copied().collect();
                assert_eq!(batch.values, want, "pass {passes}");
            }
        }
        assert!(passes >= 3, "only {passes} passes");
    }

    /// A run after a body relation crossed a power-of-two bucket fires
    /// exactly the plan a fresh planner makes for the instance; growth
    /// within a bucket compiles nothing.
    #[test]
    fn plan_cache_replans_when_a_body_relation_crosses_a_bucket() {
        use super::{Accumulate, Stages};
        use crate::planner::{Catalog, Planner};
        let mut i = Interner::new();
        let program = parse_program("H(x,y) :- A(x), B(x,y).", &mut i).unwrap();
        let (a, b) = (i.get("A").unwrap(), i.get("B").unwrap());
        let rule = &program.rules[0];
        let mut instance = Instance::new();
        instance.insert_fact(a, Tuple::from([Value::Int(0)]));
        for k in 0..8 {
            instance.insert_fact(b, Tuple::from([Value::Int(k), Value::Int(k)]));
        }
        let options = EvalOptions::default();
        let mut stages = Stages::new(&program, &instance, &options);
        let mut cached = |instance: &mut Instance| {
            stages
                .run(instance, None, &mut Accumulate::delta())
                .unwrap();
            let (plan, ..) = &stages.plans.plans[&(0, None)];
            (plan.render(rule, &i), stages.plans.compiled)
        };
        let fresh = |instance: &Instance| {
            let mut planner = Planner::new(Catalog::from_instance(instance), options.plan_mode);
            planner.plan_rule(rule).render(rule, &i)
        };
        let (small, compiled) = cached(&mut instance);
        assert_eq!((small.as_str(), compiled), (fresh(&instance).as_str(), 1));
        // A grows from bucket [1, 2) to [64, 128): B is now the cheaper
        // scan, and the next run re-plans.
        for k in 1..64 {
            instance.insert_fact(a, Tuple::from([Value::Int(k)]));
        }
        let (large, compiled) = cached(&mut instance);
        assert_ne!(small, large);
        assert_eq!((large.as_str(), compiled), (fresh(&instance).as_str(), 2));
        instance.insert_fact(a, Tuple::from([Value::Int(64)]));
        assert_eq!(cached(&mut instance), (large, 2));
    }

    /// A first stage fires only rules whose bodies already hold in the
    /// input, so it is planned on the counts it fires over: there
    /// `R(y) :- R(x), G(x,y)` scans the empty `R` instead of probing it
    /// once per `G` edge, and stage 1's probes do not grow with `G`.
    #[test]
    fn first_stage_is_planned_on_the_instance_it_fires_over() {
        let stage_one_probes = |edges: i64| {
            let mut i = Interner::new();
            let src = "R(x) :- S(x).\nR(y) :- R(x), G(x,y).";
            let program = parse_program(src, &mut i).unwrap();
            let (s, g) = (i.get("S").unwrap(), i.get("G").unwrap());
            let mut input = Instance::new();
            for k in 0..4 {
                input.insert_fact(s, Tuple::from([Value::Int(k)]));
            }
            // Every node leads to a sink of its own: R grows for one stage.
            for k in 0..edges {
                input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(-k - 1)]));
            }
            let tel = unchained_common::Telemetry::enabled();
            let options = EvalOptions::default().with_telemetry(tel.clone());
            let run = seminaive::minimum_model(&program, &input, options).unwrap();
            assert_eq!(run.instance.relation(i.get("R").unwrap()).unwrap().len(), 8);
            tel.snapshot().unwrap().stages[0].joins.probes
        };
        assert_eq!(stage_one_probes(1_000), stage_one_probes(10_000));
    }

    /// A chain run re-plans a rule variant only when a body relation
    /// enters a new power-of-two bucket: T grows monotonically to n
    /// facts, so each variant compiles at most ⌈log₂ n⌉ + 2 times, far
    /// fewer than the stages it fires in.
    #[test]
    fn chain_run_compiles_a_variant_once_per_bucket() {
        use super::{Accumulate, Stages};
        let mut i = Interner::new();
        let src = "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).";
        let program = parse_program(src, &mut i).unwrap();
        let (g, t) = (i.get("G").unwrap(), i.get("T").unwrap());
        let mut instance = Instance::new();
        for k in 0..64 {
            instance.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        instance.ensure(t, 2);
        let options = EvalOptions::default();
        let mut stages = Stages::new(&program, &instance, &options);
        let rounds = stages
            .run(&mut instance, None, &mut Accumulate::delta())
            .unwrap();
        let n = instance.relation(t).unwrap().len();
        assert_eq!(n, 64 * 65 / 2);
        // Each rule's full plan and rule 1's variant over T.
        let variants = stages.plans.plans.len();
        assert_eq!(variants, 3);
        let bound = variants * (n.next_power_of_two().ilog2() as usize + 2);
        let compiled = stages.plans.compiled;
        assert!(compiled <= bound, "{compiled} plans, bound {bound}");
        assert!(compiled < rounds, "{compiled} plans over {rounds} stages");
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
