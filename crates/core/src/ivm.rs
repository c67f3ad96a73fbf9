//! Incremental view maintenance (IVM): a long-lived evaluation session
//! that keeps a stratified Datalog¬ fixpoint synchronized with
//! insert/retract batches on the EDB instead of recomputing from
//! scratch.
//!
//! Inserts propagate through the same semi-naive Δ-variant plans the
//! batch engines use, driven over a scratch change set via
//! [`Sources::delta_from`]. Deletes use DRed-style maintenance: an
//! *overdelete* pass computes an overestimate of the tuples whose
//! support may be gone (Δ plans over the deleted set, every other
//! literal reading the pre-update fixpoint), then a *rederive* pass
//! restores each withdrawn tuple that still has alternative support in
//! the new state, queried through bound-head plans whose head variables
//! become index probe keys. DRed is exact on every stratum, recursive or
//! not, so it is the only delete strategy. Overdelete and insertion are
//! closure runs of the stage driver (`fixpoint::Stages::run_from` with
//! a change set), under the `Withdraw` and `Insert` policies.
//!
//! A poll costs its change, not the instance. It copies nothing: the
//! pre-update fixpoint is read as a view over the live instance
//! ([`Sources::before`]) built from the poll's two change sets, the net
//! deletions and net insertions so far. Those sets are recorded as the
//! poll goes — from the queued edits against the EDB mirror, then from
//! what each stratum's closures withdraw and add — rather than diffed.
//! Deletions are tombstones, insertions append to the tails, and no
//! closure commits, so the session's indexes absorb every poll.
//!
//! Two changes force a stratum back onto the batch path ([`PollStats::
//! strata_recomputed`]): a change to a negated predicate (deletion
//! under negation can *grow* the stratum, which Δ plans over positive
//! literals cannot see), and an active-domain change under a rule with
//! a variable not bound by any positive literal (its `Domain` steps
//! enumerate the adom). Both recompute the stratum from scratch and
//! diff it against its previous heads, so downstream strata still see a
//! minimal change set.

use std::ops::ControlFlow;

use crate::error::EvalError;
use crate::exec::{for_each_match_from, IndexCache, Sources};
use crate::fixpoint::{
    Accumulate, Apply, Change, Consequence, EvalScope, Fired, PlanCache, Round, RuleStat, Stages,
};
use crate::ir::Plan;
use crate::options::EvalOptions;
use crate::planner::{Catalog, PlanMode, Planner};
use crate::subst::{active_domain, active_domain_if_enumerated, enumerates_domain, Env};
use crate::{input_schema, require_language};
use unchained_common::{
    FxHashMap, FxHashSet, Instance, JoinCounters, Relation, Schema, SpanKind, Symbol, Tuple, Value,
};
use unchained_parser::{
    check_range_restricted, Atom, DependencyGraph, HeadLiteral, Language, Literal, Program, Rule,
    Var,
};

/// One queued EDB edit.
#[derive(Clone, Debug)]
enum Edit {
    Insert(Symbol, Tuple),
    Retract(Symbol, Tuple),
}

/// Deterministic work gauges for one [`IncrementalSession::poll`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PollStats {
    /// Net EDB facts the batch changed (inserts + retracts after
    /// cancellation).
    pub applied: u64,
    /// Net facts added to the maintained instance (EDB and IDB).
    pub facts_added: u64,
    /// Net facts removed from the maintained instance (EDB and IDB).
    pub facts_removed: u64,
    /// Tuples withdrawn by the overdelete pass (the DRed overestimate).
    pub overdeleted: u64,
    /// Withdrawn tuples restored from alternative support.
    pub rederived: u64,
    /// Strata skipped because nothing they read changed.
    pub strata_skipped: u64,
    /// Strata recomputed from scratch (negated input or active domain
    /// changed).
    pub strata_recomputed: u64,
    /// Satisfying valuations enumerated by Δ-variant and support plans
    /// (join-order invariant, like the batch engines' gauge; fallback
    /// recomputation reports its matches through telemetry stages
    /// instead).
    pub rules_fired: u64,
    /// Join work across every phase of the poll.
    pub joins: JoinCounters,
}

/// A long-lived incremental evaluation session over one stratified
/// Datalog¬ program.
///
/// Construction runs the initial fixpoint; afterwards
/// [`insert`](Self::insert)/[`retract`](Self::retract) queue EDB edits
/// and [`poll`](Self::poll) re-stabilizes the IDB strata incrementally.
/// The maintained [`instance`](Self::instance) always equals what
/// [`crate::stratified::eval`] would compute on the current
/// [`edb`](Self::edb) — the edit-script fuzz campaign holds the session
/// to exactly that oracle.
pub struct IncrementalSession {
    program: Program,
    options: EvalOptions,
    /// The program indices of each stratum's rules.
    strata: Vec<Vec<usize>>,
    /// The head predicate of every rule, in program order.
    heads: Vec<Symbol>,
    schema: Schema,
    /// EDB mirror: exactly the input a from-scratch run would receive.
    edb: Instance,
    /// The maintained fixpoint (EDB plus all IDB strata).
    instance: Instance,
    /// Active domain of (program, edb) as of the last stabilization;
    /// kept only when some stratum is `adom_dependent` (empty otherwise,
    /// since no plan then enumerates it).
    adom: Vec<Value>,
    idb: FxHashSet<Symbol>,
    pending: Vec<Edit>,
    /// Long-lived index and plan caches over the maintained instance.
    cache: IndexCache,
    plans: PlanCache,
    /// The rederive pass's bound-head support plans.
    support: Support,
    /// Per stratum: some rule has a variable outside every positive
    /// body literal (bound by `Domain` enumeration of the adom)?
    adom_dependent: Vec<bool>,
}

impl IncrementalSession {
    /// Creates a session and computes the initial fixpoint.
    ///
    /// # Errors
    /// Rejects everything [`crate::stratified::eval`] rejects, plus
    /// initial instances that already contain facts for IDB predicates
    /// (input IDB facts would have no derivation to maintain).
    pub fn new(
        program: Program,
        input: &Instance,
        options: EvalOptions,
    ) -> Result<Self, EvalError> {
        require_language(&program, Language::DatalogNeg)?;
        check_range_restricted(&program, false)?;
        let stratification = DependencyGraph::build(&program).stratify()?;
        let schema = input_schema(&program, input)?;
        let idb: FxHashSet<Symbol> = program.idb().into_iter().collect();
        for (pred, rel) in input.iter() {
            if idb.contains(&pred) && !rel.is_empty() {
                return Err(EvalError::InvalidUpdate(
                    "initial instance contains facts for a derived (IDB) predicate".into(),
                ));
            }
        }

        let strata = stratification.partition_rules(&program);
        let adom_dependent = strata
            .iter()
            .map(|rules| enumerates_domain(rules.iter().map(|&ri| &program.rules[ri])))
            .collect();
        let adom = active_domain_if_enumerated(&program, input);

        let mut instance = input.clone();
        // The copy shares epochs with `input` and the mirror: part ways
        // now, before the initial fixpoint indexes it, not at the first
        // poll's first edit.
        for pred in input.symbols() {
            if let Some(rel) = instance.relation_mut(pred) {
                rel.fork_epoch_if_shared();
            }
        }
        for pred in program.idb() {
            instance.ensure(pred, schema.arity(pred).expect("idb has arity"));
        }
        // The initial fixpoint is the session's first run; each poll is
        // one more.
        let scope = EvalScope::begin(&options, "ivm");
        // The session keeps the index and plan caches the initial
        // fixpoint built, so the first poll absorbs into the indexes
        // instead of building afresh.
        let (cache, plans) = (IndexCache::new(), PlanCache::default());
        let mut stages = Stages::over(&program, &options, adom, cache, plans);
        for stratum_rules in strata.iter().filter(|rules| !rules.is_empty()) {
            stages.restrict(stratum_rules.clone());
            stages.run(&mut instance, None, &mut Accumulate::delta())?;
        }
        let (adom, cache, plans) = stages.into_parts();
        scope.finish(&instance, None);

        let support = Support::new(&program, &instance, options.plan_mode);
        let heads = program.rules.iter().map(|r| head_atom(r).pred).collect();

        Ok(IncrementalSession {
            edb: input.clone(),
            program,
            options,
            strata,
            heads,
            schema,
            instance,
            adom,
            idb,
            pending: Vec::new(),
            cache,
            plans,
            support,
            adom_dependent,
        })
    }

    /// The maintained instance (EDB plus derived strata). Between a
    /// queued edit and the next [`poll`](Self::poll) this reflects the
    /// *previous* stable state.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The EDB mirror: the input a from-scratch evaluation of the same
    /// program would receive right now (queued edits not yet applied).
    pub fn edb(&self) -> &Instance {
        &self.edb
    }

    /// The program this session maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of queued, not-yet-polled edits.
    pub fn pending_edits(&self) -> usize {
        self.pending.len()
    }

    /// The IDB portion of the maintained instance (the paper's answer
    /// restriction).
    pub fn answer(&self) -> Instance {
        self.instance.project_schema(self.program.idb())
    }

    /// Queues an EDB insertion.
    ///
    /// # Errors
    /// Rejects edits on IDB predicates and arity mismatches.
    pub fn insert(&mut self, pred: Symbol, tuple: Tuple) -> Result<(), EvalError> {
        self.validate_edit(pred, &tuple)?;
        self.pending.push(Edit::Insert(pred, tuple));
        Ok(())
    }

    /// Queues an EDB retraction.
    ///
    /// # Errors
    /// Rejects edits on IDB predicates and arity mismatches.
    pub fn retract(&mut self, pred: Symbol, tuple: Tuple) -> Result<(), EvalError> {
        self.validate_edit(pred, &tuple)?;
        self.pending.push(Edit::Retract(pred, tuple));
        Ok(())
    }

    fn validate_edit(&self, pred: Symbol, tuple: &Tuple) -> Result<(), EvalError> {
        if self.idb.contains(&pred) {
            return Err(EvalError::InvalidUpdate(
                "edits must target EDB relations, but this predicate is derived by a rule".into(),
            ));
        }
        let expected = self
            .schema
            .arity(pred)
            .or_else(|| self.edb.relation(pred).map(Relation::arity));
        if let Some(arity) = expected {
            if arity != tuple.arity() {
                return Err(EvalError::InvalidUpdate(format!(
                    "arity mismatch: relation has arity {arity}, tuple has arity {}",
                    tuple.arity()
                )));
            }
        }
        Ok(())
    }

    /// Applies every queued edit and re-stabilizes the IDB strata
    /// incrementally.
    ///
    /// # Errors
    /// Propagates the stage/fact budget errors of [`EvalOptions`]; the
    /// session stays usable only if `poll` returns `Ok`.
    pub fn poll(&mut self) -> Result<PollStats, EvalError> {
        let mut stats = PollStats::default();
        if self.pending.is_empty() {
            return Ok(stats);
        }
        let joins_entry = self.cache.counters;

        // The poll's net change so far. Invariant: the live instance is
        // the pre-poll fixpoint minus `deleted` plus `inserted`, which is
        // what lets delete phases read the pre-update state as a view.
        let mut deleted = Instance::new();
        let mut inserted = Instance::new();
        // The EDB net change, taken from the edits against the mirror's
        // membership: an edit that changes the mirror either cancels an
        // opposite change earlier in the batch or is new.
        for edit in std::mem::take(&mut self.pending) {
            match edit {
                Edit::Insert(pred, tuple) => {
                    if self.edb.insert_fact(pred, tuple.clone())
                        && !deleted.retract_fact(pred, &tuple)
                    {
                        inserted.insert_fact(pred, tuple);
                    }
                }
                Edit::Retract(pred, tuple) => {
                    if self.edb.retract_fact(pred, &tuple) && !inserted.retract_fact(pred, &tuple) {
                        deleted.insert_fact(pred, tuple);
                    }
                }
            }
        }
        stats.applied = (deleted.fact_count() + inserted.fact_count()) as u64;
        if stats.applied == 0 {
            return Ok(stats);
        }
        let scope = EvalScope::begin(&self.options, "ivm");
        let tracer = scope.tracer().clone();
        let poll = tracer.span(SpanKind::Round, "poll");
        for (pred, rel) in deleted.iter() {
            for t in rel.iter() {
                self.instance.retract_fact(pred, &t);
            }
        }
        for (pred, rel) in inserted.iter() {
            for t in rel.iter() {
                self.instance.insert_row(pred, &t);
            }
        }

        let adom_changed = self.adom_dependent.contains(&true) && {
            let adom = active_domain(&self.program, &self.edb);
            let changed = adom != self.adom;
            self.adom = adom;
            changed
        };
        let touched =
            |change: &Instance, p: Symbol| change.relation(p).is_some_and(|r| !r.is_empty());

        // The poll's round, with a rule leaf per program rule.
        let mut round = Round {
            rules: vec![RuleStat::default(); self.program.rules.len()],
            ..Round::default()
        };
        // The join work of the strata recomputed in nested rounds, which
        // record it themselves.
        let mut nested = JoinCounters::default();
        // One driver for the poll's closures and recomputed strata, over
        // the session's active domain, index cache and plan cache.
        let mut stages = Stages::over(
            &self.program,
            &self.options,
            std::mem::take(&mut self.adom),
            std::mem::take(&mut self.cache),
            std::mem::take(&mut self.plans),
        );
        for (stratum, stratum_rules) in self.strata.iter().enumerate() {
            if stratum_rules.is_empty() {
                continue;
            }
            stages.restrict(stratum_rules.clone());
            let (mut pos_preds, mut neg_preds) = (FxHashSet::default(), FxHashSet::default());
            for lit in stratum_rules
                .iter()
                .flat_map(|&ri| &self.program.rules[ri].body)
            {
                match lit {
                    Literal::Pos(a) => pos_preds.insert(a.pred),
                    Literal::Neg(a) => neg_preds.insert(a.pred),
                    _ => false,
                };
            }
            let neg_changed = neg_preds
                .iter()
                .any(|&p| touched(&deleted, p) || touched(&inserted, p));
            if neg_changed || (adom_changed && self.adom_dependent[stratum]) {
                // Batch fallback: Δ plans over positive literals cannot
                // see growth caused by deletion under negation or by a
                // shifted active domain. The previous heads are moved
                // out, not cloned, and diffed against the recomputation.
                let mut previous = Vec::with_capacity(stages.idb().len());
                for &p in stages.idb() {
                    let rel = self.instance.relation_mut(p).expect("idb relations exist");
                    let empty = Relation::new(rel.arity());
                    previous.push((p, std::mem::replace(rel, empty)));
                }
                let before = stages.parts().1.counters;
                stages.run(&mut self.instance, None, &mut Accumulate::delta())?;
                nested.absorb(&stages.parts().1.counters.since(&before));
                for (p, old) in previous {
                    let new = self.instance.relation(p).expect("idb relations exist");
                    for t in old.iter().filter(|t| !new.contains(t)) {
                        deleted.insert_row(p, &t);
                    }
                    for t in new.iter().filter(|t| !old.contains(t)) {
                        inserted.insert_row(p, &t);
                    }
                }
                stats.strata_recomputed += 1;
                continue;
            }
            let del_hit = pos_preds.iter().any(|&p| touched(&deleted, p));
            let ins_hit = pos_preds.iter().any(|&p| touched(&inserted, p));
            if !del_hit && !ins_hit {
                stats.strata_skipped += 1;
                continue;
            }
            // This stratum's closures, by rule position in the stratum.
            let mut part = Round::default();
            let mut withdraw = Withdraw::default();
            if del_hit {
                let overdelete = Change {
                    facts: &mut deleted,
                    before: Some(&inserted),
                    round: &mut part,
                };
                let instance = &mut self.instance;
                stages.run_from(instance, None, None, Some(overdelete), &mut withdraw)?;
                let withdrawn = &withdraw.withdrawn;
                stats.overdeleted += withdrawn.len() as u64;
                let (support, instance) = (&self.support, &mut self.instance);
                let rules = &mut round.rules;
                stats.rederived += rederive(withdrawn, support, instance, None, &mut stages, rules);
            }
            if ins_hit {
                let propagate = Change {
                    facts: &mut inserted,
                    before: None,
                    round: &mut part,
                };
                let (instance, insert) = (&mut self.instance, &mut Insert::default());
                stages.run_from(instance, None, None, Some(propagate), insert)?;
            }
            for (&ri, piece) in stratum_rules.iter().zip(&part.rules) {
                round.rules[ri].merge(piece);
            }
            round.plan_stats.joins_pruned += part.plan_stats.joins_pruned;
            // The stratum's net head change: a withdrawn tuple that is
            // live again (rederived, or re-added by the insert closure)
            // never changed.
            for (pred, tuple) in &withdraw.withdrawn {
                if self.instance.contains_fact(*pred, tuple) {
                    deleted.retract_fact(*pred, tuple);
                    inserted.retract_fact(*pred, tuple);
                }
            }
        }
        (self.adom, self.cache, self.plans) = stages.into_parts();

        self.instance.compact_all();
        self.edb.compact_all();
        stats.facts_removed = deleted.fact_count() as u64;
        stats.facts_added = inserted.fact_count() as u64;
        stats.rules_fired = round.fired();
        stats.joins = self.cache.counters.since(&joins_entry);
        // Each poll is one telemetry stage, so a trace of a session
        // reads as: initial fixpoint rounds, then one round per poll,
        // with a leaf per program rule. The rounds of a recomputed
        // stratum nest in it and record their own join work, so the
        // poll's rounds together read `stats.joins`.
        if tracer.is_enabled() {
            round.added = stats.facts_added as usize;
            round.removed = stats.facts_removed as usize;
            round.joins = stats.joins.since(&nested);
            round.record(&self.options, &self.heads, &self.instance);
            tracer.gauge("overdeleted", stats.overdeleted);
            tracer.gauge("rederived", stats.rederived);
        }
        drop(poll);
        scope.finish(&self.instance, None);
        Ok(stats)
    }
}

/// Bound-head support plans, one per rule of a program, with every head
/// variable prebound so a support check for a concrete tuple starts
/// from index probes on the head bindings; and the indices of the rules
/// deriving each head predicate.
pub(crate) struct Support {
    rules_for: FxHashMap<Symbol, Vec<usize>>,
    plans: Vec<Plan>,
}

impl Support {
    /// Plans `program`'s support queries against the catalog of
    /// `instance`.
    pub(crate) fn new(program: &Program, instance: &Instance, mode: PlanMode) -> Support {
        let mut planner = Planner::new(Catalog::from_instance(instance), mode);
        let mut rules_for: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
        let mut plans = Vec::with_capacity(program.rules.len());
        for (ri, rule) in program.rules.iter().enumerate() {
            let head = head_atom(rule);
            rules_for.entry(head.pred).or_default().push(ri);
            let mut prebound: Vec<Var> = Vec::new();
            for v in head.vars() {
                if !prebound.contains(&v) {
                    prebound.push(v);
                }
            }
            plans.push(planner.plan_rule_bound(rule, &prebound));
        }
        Support { rules_for, plans }
    }
}

fn head_atom(rule: &Rule) -> &Atom {
    match &rule.head[0] {
        HeadLiteral::Pos(a) => a,
        _ => unreachable!("Datalog¬ rules have a single positive head"),
    }
}

/// Seeds a valuation environment from a concrete head tuple: `None` if
/// the tuple contradicts a head constant or a repeated head variable.
fn seed_env(head: &Atom, tuple: &Tuple, var_count: usize) -> Option<Env> {
    let mut env: Env = vec![None; var_count];
    for (i, term) in head.args.iter().enumerate() {
        match term {
            unchained_parser::Term::Const(v) => {
                if *v != tuple[i] {
                    return None;
                }
            }
            unchained_parser::Term::Var(v) => match env[v.index()] {
                Some(existing) => {
                    if existing != tuple[i] {
                        return None;
                    }
                }
                None => env[v.index()] = Some(tuple[i]),
            },
        }
    }
    Some(env)
}

/// The DRed overdelete's stages, which read the state before the
/// withdrawals (see [`Change::before`]): withdraw every fired head still
/// live into the run's change set, and list it in `withdrawn`.
#[derive(Default)]
pub(crate) struct Withdraw {
    fired: Fired,
    pub(crate) withdrawn: Vec<(Symbol, Tuple)>,
}

impl Consequence for Withdraw {
    fn fire(&mut self, _rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let HeadLiteral::Pos(head) = head else {
            unreachable!("Datalog¬ heads are positive")
        };
        self.fired.push_live(head.pred, &head.args, env, instance);
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        self.fired.drain(|pred, row| {
            if stage.remove(pred, row) {
                if let Some(change) = stage.change.as_deref_mut() {
                    change.insert_row(pred, row);
                }
                self.withdrawn.push((pred, Tuple::new(row)));
            }
            Ok(())
        })
    }

    fn delta_driven(&self, _head: Symbol) -> bool {
        true
    }
}

/// Insert propagation's stages: insert every fired head the instance
/// lacks, under the fact budget, into the instance and the run's change
/// set. Facts go into the tail one at a time, so a poll adds no storage
/// segment: one per poll would pile up in a long-lived session.
#[derive(Default)]
pub(crate) struct Insert(Fired);

impl Consequence for Insert {
    fn fire(&mut self, _rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let HeadLiteral::Pos(head) = head else {
            unreachable!("Datalog¬ heads are positive")
        };
        self.0.push_new(head.pred, &head.args, env, instance);
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        self.0.drain(|pred, row| {
            if stage.insert(pred, row)? {
                if let Some(change) = stage.change.as_deref_mut() {
                    change.insert_row(pred, row);
                }
            }
            Ok(())
        })
    }

    fn delta_driven(&self, _head: Symbol) -> bool {
        true
    }
}

/// The DRed rederivation pass: each withdrawn tuple that still has a
/// derivation from surviving (certified) facts is restored, with
/// negative literals reading `neg` when given (the new negative
/// context), through the active domain and index cache of `stages`,
/// whose program `support` was built for. A support check stops at the
/// first derivation. Iterates to fixpoint because a restored tuple can
/// in turn support another candidate — but only through a rule for a
/// candidate's predicate that reads a candidate predicate positively,
/// so without such a rule one pass is the fixpoint. Returns the number
/// restored.
/// `rule_stats[rule]` gains each rule's matches and the time they took
/// on the run's trace clock.
pub(crate) fn rederive(
    candidates: &[(Symbol, Tuple)],
    support: &Support,
    instance: &mut Instance,
    neg: Option<&Instance>,
    stages: &mut Stages<'_>,
    rule_stats: &mut [RuleStat],
) -> u64 {
    let (program, tracer) = (stages.program, stages.options.telemetry.tracer());
    let (adom, cache) = stages.parts();
    let chained = restores_chain(candidates, program, support);
    let mut rederived = 0;
    loop {
        let mut changed = false;
        for (pred, tuple) in candidates {
            if instance.contains_fact(*pred, tuple) {
                continue;
            }
            for &ri in support.rules_for.get(pred).into_iter().flatten() {
                let rule = &program.rules[ri];
                let Some(mut env) = seed_env(head_atom(rule), tuple, rule.var_count()) else {
                    continue;
                };
                let start_nanos = tracer.now_nanos();
                let sources = Sources {
                    neg,
                    ..Sources::simple(instance)
                };
                let supported = for_each_match_from(
                    &support.plans[ri],
                    sources,
                    adom,
                    cache,
                    &mut env,
                    &mut |_| ControlFlow::Break(()),
                )
                .is_break();
                rule_stats[ri].merge(&RuleStat {
                    fired: u64::from(supported),
                    start_nanos,
                    dur_nanos: tracer.now_nanos().saturating_sub(start_nanos),
                });
                if supported {
                    instance.insert_fact(*pred, tuple.clone());
                    rederived += 1;
                    changed = true;
                    break;
                }
            }
        }
        if !changed || !chained {
            return rederived;
        }
    }
}

/// Whether restoring one of `candidates` can support another: some rule
/// for a candidate's predicate reads a candidate predicate positively.
fn restores_chain(candidates: &[(Symbol, Tuple)], program: &Program, support: &Support) -> bool {
    let preds: FxHashSet<Symbol> = candidates.iter().map(|(pred, _)| *pred).collect();
    preds.iter().any(|pred| {
        support
            .rules_for
            .get(pred)
            .into_iter()
            .flatten()
            .any(|&ri| {
                program.rules[ri]
                    .body
                    .iter()
                    .any(|lit| matches!(lit, Literal::Pos(a) if preds.contains(&a.pred)))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified;
    use crate::PlanMode;
    use unchained_common::{HeapSize, Interner, Value};
    use unchained_parser::parse_program;

    fn tc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
            interner,
        )
        .unwrap()
    }

    fn edge(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    fn chain(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, edge(k, k + 1));
        }
        inst
    }

    /// The session must equal a from-scratch run on its current EDB.
    fn assert_matches_scratch(session: &IncrementalSession, interner: &Interner) {
        let scratch =
            stratified::eval(session.program(), session.edb(), EvalOptions::default()).unwrap();
        assert!(
            session.instance().same_facts(&scratch.instance),
            "session diverged from from-scratch evaluation:\nsession:\n{}\nscratch:\n{}",
            session.instance().display(interner),
            scratch.instance.display(interner),
        );
    }

    #[test]
    fn inserts_match_from_scratch() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        s.insert(g, edge(3, 4)).unwrap();
        s.insert(g, edge(4, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.facts_added > 2, "inserts must derive new T facts");
        assert_eq!(stats.facts_removed, 0);
        assert_matches_scratch(&s, &i);
    }

    /// Rederivation repeats its pass only when a restored tuple can
    /// support another candidate: TC's recursive rule reads `T`, the
    /// win-move rule reads `win` only under negation.
    #[test]
    fn rederive_chains_only_through_positive_candidate_reads() {
        let mut i = Interner::new();
        let tc = tc_program(&mut i);
        let win = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let (t, w) = (i.get("T").unwrap(), i.get("win").unwrap());
        let support = |p: &Program| Support::new(p, &Instance::new(), PlanMode::default());
        let one = |pred| vec![(pred, Tuple::from([Value::Int(1), Value::Int(2)]))];
        assert!(restores_chain(&one(t), &tc, &support(&tc)));
        assert!(!restores_chain(&one(w), &win, &support(&win)));
        assert!(!restores_chain(&[], &tc, &support(&tc)));
    }

    /// A session keeps its plans across polls: once its first polls
    /// have planned the Δ variants, polls whose relations stay in their
    /// power-of-two buckets (G at 39–40 facts, T at 780–820) compile
    /// nothing.
    #[test]
    fn polls_within_their_buckets_compile_no_plan() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 41), EvalOptions::default()).unwrap();
        let poll = |s: &mut IncrementalSession, retract: bool| {
            if retract {
                s.retract(g, edge(39, 40)).unwrap();
            } else {
                s.insert(g, edge(39, 40)).unwrap();
            }
            let stats = s.poll().unwrap();
            assert_eq!(stats.applied, 1);
            s.plans.compiled
        };
        poll(&mut s, true);
        let planned = poll(&mut s, false);
        for k in 0..6 {
            assert_eq!(poll(&mut s, k % 2 == 0), planned, "poll {}", k + 3);
        }
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn retractions_match_from_scratch() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 6), EvalOptions::default()).unwrap();
        s.retract(g, edge(2, 3)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.overdeleted > 0, "a cut chain loses T facts");
        assert!(stats.facts_removed > 1);
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn alternative_support_is_rederived() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut input = Instance::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            input.insert_fact(g, edge(a, b));
        }
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        s.retract(g, edge(0, 2)).unwrap();
        let stats = s.poll().unwrap();
        // T(0,2) loses its direct edge but survives via G(0,1), T(1,2).
        assert!(s.instance().contains_fact(t, &edge(0, 2)));
        assert!(stats.rederived >= 1, "overdeleted T(0,2) must be restored");
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn negation_stratum_falls_back_to_recompute() {
        let mut i = Interner::new();
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             CT(x,y) :- !T(x,y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        s.retract(g, edge(1, 2)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.strata_recomputed >= 1, "CT reads ¬T, which shrank");
        assert_matches_scratch(&s, &i);
        // Insert it back: the complement must return to its old state.
        s.insert(g, edge(1, 2)).unwrap();
        s.poll().unwrap();
        assert_matches_scratch(&s, &i);
    }

    /// `P(1)` has three non-recursive derivations; each poll retracts
    /// one. The overdelete withdraws `P(1)` every time, and the rederive
    /// pass restores it while a derivation remains.
    #[test]
    fn deletions_with_remaining_support_are_rederived() {
        let mut i = Interner::new();
        let p = parse_program("P(x) :- A(x). P(x) :- B(x). P(x) :- C(x).", &mut i).unwrap();
        let (a, b, c) = (
            i.get("A").unwrap(),
            i.get("B").unwrap(),
            i.get("C").unwrap(),
        );
        let pp = i.get("P").unwrap();
        let one = Tuple::from([Value::Int(1)]);
        let mut input = Instance::new();
        for pred in [a, b, c] {
            input.insert_fact(pred, one.clone());
        }
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        // A and B remain: rederived.
        s.retract(c, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.rederived, 1);
        assert!(s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
        // B remains: rederived.
        s.retract(a, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.rederived, 1);
        assert!(s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
        // Last support gone: nothing rederives it.
        s.retract(b, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.rederived, 0);
        assert!(!s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn mixed_batch_nets_out_to_nothing() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        let before = s.instance().clone();
        s.insert(g, edge(7, 8)).unwrap();
        s.retract(g, edge(7, 8)).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.applied, 0);
        assert!(s.instance().same_facts(&before));
        // An empty poll is a no-op too.
        let stats = s.poll().unwrap();
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn rejects_idb_edits_arity_mismatches_and_idb_input() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut s =
            IncrementalSession::new(p.clone(), &chain(&mut i, 3), EvalOptions::default()).unwrap();
        assert!(matches!(
            s.insert(t, edge(0, 1)),
            Err(EvalError::InvalidUpdate(_))
        ));
        assert!(matches!(
            s.retract(g, Tuple::from([Value::Int(0)])),
            Err(EvalError::InvalidUpdate(_))
        ));
        let mut tainted = Instance::new();
        tainted.insert_fact(t, edge(0, 1));
        assert!(matches!(
            IncrementalSession::new(p, &tainted, EvalOptions::default()),
            Err(EvalError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn updates_across_strata_cascade() {
        let mut i = Interner::new();
        // Three strata with only positive inter-stratum dependencies.
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             S(x) :- T(x,x).\n\
             U(x) :- S(x), V(x).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let v = i.get("V").unwrap();
        let mut input = Instance::new();
        for (a, b) in [(0, 1), (1, 2)] {
            input.insert_fact(g, edge(a, b));
        }
        input.insert_fact(v, Tuple::from([Value::Int(0)]));
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        // Close the cycle: S(0), S(1), S(2) and U(0) appear.
        s.insert(g, edge(2, 0)).unwrap();
        s.poll().unwrap();
        assert_matches_scratch(&s, &i);
        // Cut it again: the cascade must retract through S into U.
        s.retract(g, edge(2, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.facts_removed > 0);
        assert_matches_scratch(&s, &i);
    }

    /// The fact budget stops a poll at the first fact over it and
    /// reports `max_facts + 1`, like every batch driver (see
    /// `fixpoint::tests::fact_budget_stops_a_stage_at_the_first_fact_over`):
    /// ten `A` facts under a cubic rule would derive 1,000 `P` facts.
    #[test]
    fn fact_budget_stops_a_poll_at_the_first_fact_over() {
        let mut i = Interner::new();
        let program = parse_program("P(x,y,z) :- A(x), A(y), A(z).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let fact = |k: i64| Tuple::from([Value::Int(k)]);
        let over = Some(EvalError::FactLimitExceeded(21));
        for threads in [1, 4] {
            let options = || {
                EvalOptions::default()
                    .with_max_facts(20)
                    .with_threads(threads)
            };
            let mut ten = Instance::new();
            for k in 0..10 {
                ten.insert_fact(a, fact(k));
            }
            let built = IncrementalSession::new(program.clone(), &ten, options());
            assert_eq!(built.err(), over, "new @{threads}");
            let mut one = Instance::new();
            one.insert_fact(a, fact(0));
            let mut s = IncrementalSession::new(program.clone(), &one, options()).unwrap();
            for k in 1..10 {
                s.insert(a, fact(k)).unwrap();
            }
            assert_eq!(s.poll().err(), over, "poll @{threads}");
        }
    }

    /// TC over a 400-link chain in which every link also has a parallel
    /// two-hop path, alternately retracting and re-inserting the last
    /// link. Every retraction overdeletes about 800 closure facts and
    /// rederives them all. Once the first poll has built the indexes it
    /// needs, every poll absorbs its change into them: no rebuild, and
    /// indexing work far below the 320k-fact closure. No poll adds a
    /// storage segment (its closures write into the tails), and each
    /// records exactly one telemetry stage.
    #[test]
    fn polls_keep_index_lineage_through_retract_and_revive() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let n = 400i64;
        let mut input = Instance::new();
        for k in 0..n {
            input.insert_fact(g, edge(k, k + 1));
            input.insert_fact(g, edge(k, 1000 + k));
            input.insert_fact(g, edge(1000 + k, k + 1));
        }
        let tel = unchained_common::Telemetry::enabled();
        let options = EvalOptions::default().with_telemetry(tel.clone());
        let mut s = IncrementalSession::new(p, &input, options).unwrap();
        let last = edge(n - 1, n);
        let stages = || tel.snapshot().unwrap().stages.len();
        for poll in 0..6 {
            if poll % 2 == 0 {
                s.retract(g, last.clone()).unwrap();
            } else {
                s.insert(g, last.clone()).unwrap();
            }
            let (segments, recorded) = (s.instance().storage_stats().0, stages());
            let stats = s.poll().unwrap();
            assert_eq!(s.instance().storage_stats().0, segments, "poll {poll}");
            assert_eq!(stages(), recorded + 1, "poll {poll}");
            assert_eq!(stats.facts_added + stats.facts_removed, 1, "only G changes");
            if poll % 2 == 0 {
                assert!(stats.overdeleted > 700, "{stats:?}");
                assert_eq!(stats.rederived, stats.overdeleted);
            }
            if poll > 0 {
                assert_eq!(stats.joins.index_rebuilds, 0, "poll {poll}: {stats:?}");
                assert!(
                    stats.joins.indexed_tuples < 10_000,
                    "poll {poll}: {stats:?}"
                );
            }
        }
        assert_matches_scratch(&s, &i);
    }

    /// The acceptance gauge of ISSUE 9: after a retraction on the
    /// chain-TC workload, one poll must do strictly less join work than
    /// recomputing from scratch — by the deterministic gauges, not wall
    /// time.
    #[test]
    fn chain_tc_retraction_beats_from_scratch_on_work_gauges() {
        let mut i = Interner::new();
        let n = 48i64;
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, n), EvalOptions::default()).unwrap();
        s.retract(g, edge(n - 2, n - 1)).unwrap();
        let stats = s.poll().unwrap();
        assert_matches_scratch(&s, &i);

        let telemetry = unchained_common::Telemetry::enabled();
        let scratch = stratified::eval(
            s.program(),
            s.edb(),
            EvalOptions::default().with_telemetry(telemetry.clone()),
        )
        .unwrap();
        let trace = telemetry.snapshot().unwrap();
        assert!(scratch.instance.same_facts(s.instance()));
        assert!(
            stats.rules_fired < trace.rules_fired,
            "poll fired {} vs from-scratch {}",
            stats.rules_fired,
            trace.rules_fired
        );
        assert!(
            stats.joins.probe_tuples < trace.joins.probe_tuples,
            "poll probed {} tuples vs from-scratch {}",
            stats.joins.probe_tuples,
            trace.joins.probe_tuples
        );
        // The margin is structural (O(n) vs O(n²)), so assert a real
        // gap rather than a knife's edge.
        assert!(stats.rules_fired * 4 < trace.rules_fired);
    }

    /// Every run of a session, the initial fixpoint and each poll, ends
    /// with the instance's logical bytes, so the snapshot's final bytes
    /// are those of the last poll, within the peak.
    #[test]
    fn session_runs_gauge_their_final_bytes() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let tel = unchained_common::Telemetry::enabled();
        let options = EvalOptions::default().with_telemetry(tel.clone());
        let mut s = IncrementalSession::new(p, &chain(&mut i, 16), options).unwrap();
        let initial = tel.snapshot().unwrap();
        assert_eq!(initial.bytes_final, s.instance().heap_bytes() as u64);
        s.retract(g, edge(14, 15)).unwrap();
        s.poll().unwrap();
        let trace = tel.snapshot().unwrap();
        assert_eq!(trace.bytes_final, s.instance().heap_bytes() as u64);
        assert!(0 < trace.bytes_final && trace.bytes_final <= trace.bytes_peak);
    }
}
