//! The rule planner: lowers parser-AST rule bodies into the step lists
//! of [`crate::ir`] with cost-based join ordering and
//! sideways-information-passing filter pushdown.
//!
//! Planning decisions, in order, per rule body:
//!
//! 1. **Join order** — positive atoms are scheduled greedily. Under
//!    [`PlanMode::Cost`] the next atom is the one with the smallest
//!    estimated probe cost `card(pred) / 4^bound_positions`, using
//!    relation cardinalities snapshotted from the instance the plan
//!    fires over into a [`Catalog`], with a Cartesian guard: once any
//!    position is bound, atoms sharing a bound position always beat
//!    unconnected ones regardless of cardinality. Under
//!    [`PlanMode::Syntactic`] the next atom is simply the
//!    one with the most bound argument positions, tie-broken by source
//!    order — the historical ordering, kept as the differential-fuzzing
//!    counterpart. Ties in cost fall back to bound positions, then
//!    source order, so plans are deterministic.
//! 2. **SIP pushdown** — every argument position whose value is known
//!    when an atom is scheduled (constants, variables bound by earlier
//!    atoms or equalities) becomes part of the scan's index key: the
//!    filter is pushed *into* the probe rather than applied after
//!    enumeration. Negative literals and comparisons are checked at the
//!    earliest point where their variables are bound.
//! 3. **Delta variants** — semi-naive evaluation needs, per recursive
//!    scan, a variant reading that scan from the round's delta. Under
//!    cost mode the delta scan is forced first (a delta is presumed
//!    smaller than anything else); under syntactic mode the variant
//!    keeps the full plan's order with the one source flipped.
//!    *Negation variants* do the same for a negated literal whose
//!    instance changed: the literal becomes a delta scan over the facts
//!    that left (or entered) that instance, so a valuation that a
//!    negation newly enables, or newly blocks, is found from the change.
//! 4. **Storage seeks** — a later scan whose key is its relation's
//!    leading columns, bound in order by the driver's leading columns,
//!    is marked `seek` (see [`Step::Scan`]): its probe keys follow the
//!    driver's sorted rows, so the executor may answer them from sorted
//!    storage instead of a hash index.
//!
//! The planner reports [`PlanStats`]: `joins_pruned` counts the planned
//! scans whose probe key is non-empty, i.e. joins the SIP pushdown
//! narrowed.
//!
//! The plan is computed once, from a deterministic catalog snapshot —
//! never from runtime state — so the same program and input produce the
//! same plan at any thread count: the *plan* is deterministic, the
//! schedule need not be.

use unchained_common::{FxHashMap, Instance, Symbol};
use unchained_parser::{Literal, Rule, Term, Var};

use crate::ir::{Plan, ScanSource, Step};

/// How rule bodies are ordered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlanMode {
    /// Cost-based greedy ordering from catalog cardinalities (the
    /// default).
    #[default]
    Cost,
    /// Most-bound-first ordering, ignoring cardinalities. This is the
    /// pre-IR planner's behavior, kept as the reference leg for
    /// planned-vs-unplanned differential fuzzing.
    Syntactic,
}

/// Relation cardinalities snapshotted at plan time.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    cards: FxHashMap<Symbol, u64>,
    total: u64,
}

impl Catalog {
    /// A catalog with no information: every relation estimates to 0, so
    /// cost mode degenerates to most-bound-first ordering.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Snapshots the cardinality of every relation in `instance`.
    pub fn from_instance(instance: &Instance) -> Self {
        let mut cards = FxHashMap::default();
        let mut total = 0u64;
        for (pred, rel) in instance.iter() {
            cards.insert(pred, rel.len() as u64);
            total += rel.len() as u64;
        }
        Catalog { cards, total }
    }

    /// The snapshotted cardinality of `pred` (0 when unknown).
    pub fn card(&self, pred: Symbol) -> u64 {
        self.cards.get(&pred).copied().unwrap_or(0)
    }

    /// Total facts in the snapshot.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Deterministic gauges describing what planning achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanStats {
    /// Scans whose probe key is non-empty: joins the SIP pushdown
    /// narrowed from full enumeration to an index probe.
    pub joins_pruned: u64,
    /// Always 0: plans share no subplans. Kept only so that readers
    /// written against the former sharing gauge still build.
    pub subplans_shared: u64,
}

/// Compiles the rules of one program into plans.
pub struct Planner {
    catalog: Catalog,
    mode: PlanMode,
    stats: PlanStats,
}

impl Planner {
    /// A planner over `catalog` in `mode`.
    pub fn new(catalog: Catalog, mode: PlanMode) -> Self {
        Planner {
            catalog,
            mode,
            stats: PlanStats::default(),
        }
    }

    /// Gauges accumulated so far.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Plans a rule's full body, requiring all body variables bound.
    pub fn plan_rule(&mut self, rule: &Rule) -> Plan {
        let literals: Vec<&Literal> = rule.body.iter().collect();
        let vars = rule.body_vars();
        self.compile(rule, &literals, &vars, None, &[])
    }

    /// Plans a rule's full body with `prebound` variables already bound
    /// by the caller: they act as constants, so scans over atoms using
    /// them turn the positions into probe-key columns. Run the result
    /// with [`crate::exec::for_each_match_from`], seeding the
    /// environment at each prebound variable's index.
    ///
    /// The incremental-maintenance engine uses this for support queries:
    /// with every head variable prebound, "does any body valuation
    /// rederive this tuple?" becomes a chain of point lookups instead of
    /// a full join.
    pub fn plan_rule_bound(&mut self, rule: &Rule, prebound: &[Var]) -> Plan {
        let literals: Vec<&Literal> = rule.body.iter().collect();
        let vars = rule.body_vars();
        self.compile(rule, &literals, &vars, None, prebound)
    }

    /// Plans the given body literals of `rule`.
    ///
    /// `vars_to_bind` lists the variables the plan must have bound when
    /// the callback fires (normally all body variables; the
    /// nondeterministic `forall` engine plans only the non-universal
    /// part of the body). Variables not bound by scans or equalities get
    /// [`Step::Domain`] steps.
    pub fn plan_body(&mut self, rule: &Rule, literals: &[&Literal], vars_to_bind: &[Var]) -> Plan {
        self.compile(rule, literals, vars_to_bind, None, &[])
    }

    /// Plans `rule` with body literal `i` read from the delta, forced
    /// first under cost mode. A positive literal gives its semi-naive
    /// variant. A negated literal `¬p(ū)` gives its *negation variant*:
    /// a positive scan of `p(ū)` over the facts that left, or entered,
    /// the instance the literal reads. The other literals plan as usual,
    /// so variables only the active domain binds keep their `Domain`
    /// steps.
    pub fn plan_delta(&mut self, rule: &Rule, i: usize) -> Plan {
        let scanned;
        let mut literals: Vec<&Literal> = rule.body.iter().collect();
        if let Literal::Neg(atom) = &rule.body[i] {
            scanned = Literal::Pos(atom.clone());
            literals[i] = &scanned;
        }
        self.compile(rule, &literals, &rule.body_vars(), Some(i), &[])
    }

    /// The semi-naive variants of a rule: [`plan_delta`](Self::plan_delta)
    /// of each positive body atom over a predicate in `recursive`. Empty
    /// if the body scans no recursive predicate (such rules only fire in
    /// the first iteration).
    pub fn seminaive_variants(
        &mut self,
        rule: &Rule,
        recursive: &dyn Fn(Symbol) -> bool,
    ) -> Vec<Plan> {
        (0..rule.body.len())
            .filter(|&i| matches!(&rule.body[i], Literal::Pos(a) if recursive(a.pred)))
            .map(|i| self.plan_delta(rule, i))
            .collect()
    }

    /// Estimated tuples enumerated by scanning `pred` with `known`
    /// bound positions: `card / 4^known`.
    fn estimate(&self, pred: Symbol, known: usize) -> u64 {
        self.catalog.card(pred) >> (2 * known).min(63)
    }

    /// Orders the body into steps (the join-ordering loop). When
    /// `delta_lit` names a literal, its scan reads the delta; under
    /// cost mode it is additionally forced to the front. Variables in
    /// `prebound` start out bound (seeded by the caller at run time),
    /// so they count as known positions for SIP pushdown and cost.
    fn compile(
        &mut self,
        rule: &Rule,
        literals: &[&Literal],
        vars_to_bind: &[Var],
        delta_lit: Option<usize>,
        prebound: &[Var],
    ) -> Plan {
        #[derive(PartialEq)]
        enum LitState {
            Pending,
            Done,
        }
        let mut state: Vec<LitState> = literals.iter().map(|_| LitState::Pending).collect();
        let mut bound = vec![false; rule.var_count()];
        for v in prebound {
            bound[v.index()] = true;
        }
        let mut steps = Vec::new();

        let term_known = |t: &Term, bound: &[bool]| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[v.index()],
        };

        // Flush every pending check whose variables are now all bound.
        // Negative literals and comparisons never bind variables
        // (matching the paper: negation tests absence under a full
        // valuation).
        fn flush_checks(
            literals: &[&Literal],
            state: &mut [LitState],
            bound: &[bool],
            steps: &mut Vec<Step>,
        ) {
            for (i, lit) in literals.iter().enumerate() {
                if state[i] == LitState::Done {
                    continue;
                }
                let ready = lit.vars().iter().all(|v| bound[v.index()]);
                if !ready {
                    continue;
                }
                match lit {
                    Literal::Neg(atom) => {
                        steps.push(Step::CheckNeg {
                            pred: atom.pred,
                            args: atom.args.clone(),
                        });
                        state[i] = LitState::Done;
                    }
                    Literal::Eq(l, r) => {
                        steps.push(Step::CheckCmp {
                            left: *l,
                            right: *r,
                            equal: true,
                        });
                        state[i] = LitState::Done;
                    }
                    Literal::Neq(l, r) => {
                        steps.push(Step::CheckCmp {
                            left: *l,
                            right: *r,
                            equal: false,
                        });
                        state[i] = LitState::Done;
                    }
                    Literal::Pos(_) => {
                        // Positive atoms are handled by scans below; even
                        // when fully bound we emit a scan (a cheap point
                        // lookup).
                    }
                    Literal::Choice(..) => {
                        unreachable!(
                            "choice constraints are stripped before planning (nondet engine only)"
                        )
                    }
                }
            }
        }

        loop {
            flush_checks(literals, &mut state, &bound, &mut steps);

            // 1. Equality that can bind a variable?
            let mut progressed = false;
            for (i, lit) in literals.iter().enumerate() {
                if state[i] == LitState::Done {
                    continue;
                }
                if let Literal::Eq(l, r) = lit {
                    let (lk, rk) = (term_known(l, &bound), term_known(r, &bound));
                    let bind = match (lk, rk) {
                        (true, false) => r.as_var().map(|v| (v, *l)),
                        (false, true) => l.as_var().map(|v| (v, *r)),
                        _ => None,
                    };
                    if let Some((var, term)) = bind {
                        steps.push(Step::BindEq { var, term });
                        bound[var.index()] = true;
                        state[i] = LitState::Done;
                        progressed = true;
                        break;
                    }
                }
            }
            if progressed {
                continue;
            }

            // 2. Positive atom: pick the next scan. The selection key is
            //    (cost, fewest-unbound, source order), minimized; under
            //    syntactic mode cost is constant so the key degenerates
            //    to most-bound-first with source-order tie-break. A
            //    forced delta literal always wins (deltas are presumed
            //    small).
            let mut best: Option<((u64, u64, u64, u64), usize)> = None;
            for (i, lit) in literals.iter().enumerate() {
                if state[i] == LitState::Done {
                    continue;
                }
                if let Literal::Pos(atom) = lit {
                    let known = atom.args.iter().filter(|t| term_known(t, &bound)).count();
                    let key = if self.mode == PlanMode::Cost && delta_lit == Some(i) {
                        (0, 0, 0, 0)
                    } else {
                        let cost = match self.mode {
                            PlanMode::Cost => self.estimate(atom.pred, known),
                            PlanMode::Syntactic => 0,
                        };
                        // Cartesian guard: an atom with no known position
                        // joins nothing — every frontier-connected atom,
                        // however expensive, beats a cross product. (Only
                        // cost mode needs the explicit flag; the syntactic
                        // key's most-bound-first already encodes it.)
                        // Without it, a cheap unconnected relation wins on
                        // raw cardinality and each delta tuple re-enumerates
                        // it wholesale: the Andersen `Load`/`Store` rules
                        // turn quadratic exactly that way.
                        let cross = u64::from(self.mode == PlanMode::Cost && known == 0);
                        (cross, cost, (usize::MAX - known) as u64, i as u64)
                    };
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, i));
                    }
                }
            }
            if let Some((_, i)) = best {
                let Literal::Pos(atom) = literals[i] else {
                    unreachable!()
                };
                let key: Vec<usize> = atom
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| term_known(t, &bound))
                    .map(|(p, _)| p)
                    .collect();
                for t in &atom.args {
                    if let Term::Var(v) = t {
                        bound[v.index()] = true;
                    }
                }
                steps.push(Step::Scan {
                    pred: atom.pred,
                    args: atom.args.clone(),
                    key,
                    source: if delta_lit == Some(i) {
                        ScanSource::Delta
                    } else {
                        ScanSource::Full
                    },
                    seek: false,
                });
                state[i] = LitState::Done;
                continue;
            }

            // 3. Still-unbound variable that the caller needs: enumerate
            //    it over the active domain.
            let next_unbound = vars_to_bind.iter().copied().find(|v| !bound[v.index()]);
            if let Some(v) = next_unbound {
                steps.push(Step::Domain { var: v });
                bound[v.index()] = true;
                continue;
            }

            break;
        }
        flush_checks(literals, &mut state, &bound, &mut steps);
        debug_assert!(
            state.iter().all(|s| *s == LitState::Done),
            "planner left literals unscheduled"
        );
        mark_seeks(&mut steps);
        self.stats.joins_pruned += steps
            .iter()
            .filter(|s| matches!(s, Step::Scan { key, .. } if !key.is_empty()))
            .count() as u64;
        Plan {
            steps,
            var_count: rule.var_count(),
        }
    }
}

/// Marks every full scan after the driver (a leading scan step) whose
/// probe key is its relation's leading columns, each bound by the
/// driver's column at the same position: see [`Step::Scan`]'s `seek`.
fn mark_seeks(steps: &mut [Step]) {
    let Some((Step::Scan { args: lead, .. }, rest)) = steps.split_first_mut() else {
        return;
    };
    for step in rest {
        if let Step::Scan {
            args,
            key,
            source: ScanSource::Full,
            seek,
            ..
        } = step
        {
            *seek = !key.is_empty()
                && key
                    .iter()
                    .enumerate()
                    .all(|(i, &p)| p == i && lead.get(i) == Some(&args[i]));
        }
    }
}

/// Plans a rule's full body with an empty catalog (cost ordering
/// degenerates to most-bound-first). Engines that plan against a real
/// input should use a [`Planner`] with [`Catalog::from_instance`].
pub fn plan_rule(rule: &Rule) -> Plan {
    Planner::new(Catalog::empty(), PlanMode::Cost).plan_rule(rule)
}

/// Plans the given body literals with an empty catalog (see
/// [`Planner::plan_body`]).
pub fn plan_body(rule: &Rule, literals: &[&Literal], vars_to_bind: &[Var]) -> Plan {
    Planner::new(Catalog::empty(), PlanMode::Cost).plan_body(rule, literals, vars_to_bind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{for_each_match, for_each_match_from, IndexCache, Sources};
    use crate::subst::active_domain;
    use std::ops::ControlFlow;
    use unchained_common::{Instance, Interner, Tuple, Value};
    use unchained_parser::{parse_program, HeadLiteral};

    fn collect_matches(
        src: &str,
        facts: &[(&str, Vec<i64>)],
    ) -> (Vec<Vec<Value>>, unchained_parser::Program) {
        let mut interner = Interner::new();
        let program = parse_program(src, &mut interner).unwrap();
        let mut instance = Instance::new();
        for (name, vals) in facts {
            let sym = interner.intern(name);
            let tuple: Tuple = vals.iter().map(|&v| Value::Int(v)).collect();
            instance.insert_fact(sym, tuple);
        }
        let adom = active_domain(&program, &instance);
        let rule = &program.rules[0];
        let plan = plan_rule(rule);
        let mut cache = IndexCache::new();
        let mut out = Vec::new();
        let n_vars = rule.var_count();
        let _ = for_each_match(
            &plan,
            Sources::simple(&instance),
            &adom,
            &mut cache,
            &mut |env| {
                out.push((0..n_vars).map(|i| env[i].unwrap()).collect::<Vec<_>>());
                ControlFlow::Continue(())
            },
        );
        out.sort();
        (out, program)
    }

    #[test]
    fn join_two_atoms() {
        let (matches, _) = collect_matches(
            "P(x,y) :- G(x,z), G(z,y).",
            &[("G", vec![1, 2]), ("G", vec![2, 3])],
        );
        // x=1, y=3, z=2 (vars in first-occurrence order: x, y, z).
        assert_eq!(
            matches,
            vec![vec![Value::Int(1), Value::Int(3), Value::Int(2)]]
        );
    }

    #[test]
    fn negative_only_rule_ranges_over_adom() {
        // CT(x,y) :- !T(x,y). — x, y enumerate the active domain.
        let (matches, _) =
            collect_matches("CT(x,y) :- !T(x,y).", &[("T", vec![1, 1]), ("E", vec![2])]);
        // adom = {1, 2}; all pairs except (1,1).
        assert_eq!(matches.len(), 3);
        assert!(!matches.contains(&vec![Value::Int(1), Value::Int(1)]));
    }

    #[test]
    fn repeated_variables_in_atom() {
        let (matches, _) =
            collect_matches("L(x) :- G(x,x).", &[("G", vec![1, 2]), ("G", vec![3, 3])]);
        assert_eq!(matches, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn constants_in_atoms() {
        let (matches, _) =
            collect_matches("P(x) :- G(1,x).", &[("G", vec![1, 2]), ("G", vec![2, 3])]);
        assert_eq!(matches, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn equality_binding_and_checks() {
        let (matches, _) = collect_matches(
            "P(x,y) :- G(x,y), y = 2.",
            &[("G", vec![1, 2]), ("G", vec![2, 3])],
        );
        assert_eq!(matches, vec![vec![Value::Int(1), Value::Int(2)]]);
        let (matches, _) = collect_matches(
            "P(x,y) :- G(x,y), x != y.",
            &[("G", vec![1, 1]), ("G", vec![1, 2])],
        );
        assert_eq!(matches, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn equality_can_introduce_domain_var() {
        // y bound through equality to x which is scanned.
        let (matches, _) = collect_matches("P(y) :- G(x,x), y = x.", &[("G", vec![3, 3])]);
        assert_eq!(matches, vec![vec![Value::Int(3), Value::Int(3)]]);
    }

    #[test]
    fn empty_body_matches_once() {
        let (matches, _) = collect_matches("delay :- .", &[("G", vec![1, 2])]);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn missing_relation_is_empty_for_scan_and_true_for_negation() {
        let (matches, _) = collect_matches("P(x) :- M(x).", &[("G", vec![1, 2])]);
        assert!(matches.is_empty());
        let (matches, _) = collect_matches("P(x) :- G(x,y), !M(x).", &[("G", vec![1, 2])]);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let mut interner = Interner::new();
        let program = parse_program("P(x) :- G(x,y).", &mut interner).unwrap();
        let g = interner.get("G").unwrap();
        let mut instance = Instance::new();
        for k in 0..10 {
            instance.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let adom = active_domain(&program, &instance);
        let plan = plan_rule(&program.rules[0]);
        let mut cache = IndexCache::new();
        let mut count = 0;
        let _ = for_each_match(
            &plan,
            Sources::simple(&instance),
            &adom,
            &mut cache,
            &mut |_| {
                count += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(count, 1);
    }

    fn scan_preds(plan: &Plan) -> Vec<Symbol> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                Step::Scan { pred, .. } => Some(*pred),
                _ => None,
            })
            .collect()
    }

    fn instance_with(interner: &mut Interner, rels: &[(&str, usize, usize)]) -> Instance {
        // rels: (name, arity, cardinality); tuples are distinct ints.
        let mut instance = Instance::new();
        for (name, arity, card) in rels {
            let sym = interner.intern(name);
            instance.ensure(sym, *arity);
            for k in 0..*card {
                let tuple: Tuple = (0..*arity)
                    .map(|c| Value::Int((k * 7 + c) as i64))
                    .collect();
                instance.insert_fact(sym, tuple);
            }
        }
        instance
    }

    #[test]
    fn seminaive_variant_generation() {
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), T(z,y).", &mut interner).unwrap();
        let t = interner.get("T").unwrap();
        let mut planner = Planner::new(Catalog::empty(), PlanMode::Cost);
        let variants = planner.seminaive_variants(&program.rules[0], &|p| p == t);
        assert_eq!(variants.len(), 1);
        let delta_scans = variants[0]
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Scan {
                        source: ScanSource::Delta,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(delta_scans, 1);
        // Non-recursive rule: no variants.
        let program2 = parse_program("T(x,y) :- G(x,y).", &mut interner).unwrap();
        assert!(planner
            .seminaive_variants(&program2.rules[0], &|p| p == t)
            .is_empty());
    }

    /// A negation variant turns one changed negated literal into a
    /// leading delta scan; the other negated literal stays a check, and a
    /// variable only that check binds keeps its `Domain` step.
    #[test]
    fn negation_variant_scans_the_changed_literal_first() {
        let mut interner = Interner::new();
        let program = parse_program("H(x) :- E(x,y), !P(y), !Q(z), !R(x).", &mut interner).unwrap();
        let (e, p, q, r) = (
            interner.get("E").unwrap(),
            interner.get("P").unwrap(),
            interner.get("Q").unwrap(),
            interner.get("R").unwrap(),
        );
        let instance = instance_with(&mut interner, &[("E", 2, 8)]);
        let rule = &program.rules[0];
        for mode in [PlanMode::Cost, PlanMode::Syntactic] {
            let mut planner = Planner::new(Catalog::from_instance(&instance), mode);
            // Literals 1 and 3 are `!P(y)` and `!R(x)`.
            let variants = [planner.plan_delta(rule, 1), planner.plan_delta(rule, 3)];
            for (plan, changed) in variants.iter().zip([p, r]) {
                let delta: Vec<Symbol> = plan
                    .steps
                    .iter()
                    .filter_map(|s| match s {
                        Step::Scan {
                            pred,
                            source: ScanSource::Delta,
                            ..
                        } => Some(*pred),
                        _ => None,
                    })
                    .collect();
                assert_eq!(delta, vec![changed], "{mode:?}");
                let mut negated: Vec<Symbol> = plan
                    .steps
                    .iter()
                    .filter_map(|s| match s {
                        Step::CheckNeg { pred, .. } => Some(*pred),
                        _ => None,
                    })
                    .collect();
                negated.sort_unstable();
                let mut want: Vec<Symbol> =
                    [p, q, r].into_iter().filter(|&s| s != changed).collect();
                want.sort_unstable();
                assert_eq!(negated, want, "{mode:?}");
                assert_eq!(
                    plan.steps
                        .iter()
                        .filter(|s| matches!(s, Step::Domain { .. }))
                        .count(),
                    1,
                    "z is bound only by the active domain"
                );
                assert!(scan_preds(plan).contains(&e));
            }
            if mode == PlanMode::Cost {
                // The delta scan leads, and E probes on what it bound.
                assert_eq!(scan_preds(&variants[0]), vec![p, e]);
                let Step::Scan { key, .. } = &variants[0].steps[1] else {
                    panic!("E follows the delta scan");
                };
                assert_eq!(key, &[1]);
            }
        }
    }

    #[test]
    fn cost_mode_forces_delta_scan_first() {
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), T(z,y).", &mut interner).unwrap();
        let g = interner.get("G").unwrap();
        let t = interner.get("T").unwrap();
        let instance = instance_with(&mut interner, &[("G", 2, 8), ("T", 2, 64)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let variants = planner.seminaive_variants(&program.rules[0], &|p| p == t);
        assert_eq!(scan_preds(&variants[0]), vec![t, g]);
        // Syntactic mode keeps the full plan's order (G first) and only
        // flips the source.
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Syntactic);
        let variants = planner.seminaive_variants(&program.rules[0], &|p| p == t);
        assert_eq!(scan_preds(&variants[0]), vec![g, t]);
        assert!(matches!(
            variants[0].steps[1],
            Step::Scan {
                source: ScanSource::Delta,
                ..
            }
        ));
    }

    #[test]
    fn chain_join_order_tracks_cardinalities() {
        // A chain body: the cheapest relation leads, then the join
        // frontier follows the bindings.
        let mut interner = Interner::new();
        let program = parse_program("P(x,w) :- A(x,y), B(y,z), C(z,w).", &mut interner).unwrap();
        let (a, b, c) = (
            interner.get("A").unwrap(),
            interner.get("B").unwrap(),
            interner.get("C").unwrap(),
        );
        let instance = instance_with(&mut interner, &[("A", 2, 64), ("B", 2, 16), ("C", 2, 1)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let plan = planner.plan_rule(&program.rules[0]);
        // C (card 1) first; B joins on z (16/16 = 1) before A (64/16 = 4).
        assert_eq!(scan_preds(&plan), vec![c, b, a]);
        // Syntactic mode ignores cardinalities: source order on the
        // all-unbound tie.
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Syntactic);
        let plan = planner.plan_rule(&program.rules[0]);
        assert_eq!(scan_preds(&plan), vec![a, b, c]);
    }

    #[test]
    fn star_join_order_tracks_cardinalities() {
        let mut interner = Interner::new();
        let program = parse_program("P(x) :- R(x,a), S(x,b), U(x,c).", &mut interner).unwrap();
        let (r, s, u) = (
            interner.get("R").unwrap(),
            interner.get("S").unwrap(),
            interner.get("U").unwrap(),
        );
        let instance = instance_with(&mut interner, &[("R", 2, 40), ("S", 2, 1), ("U", 2, 12)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let plan = planner.plan_rule(&program.rules[0]);
        // S (card 1) binds the hub x; then U (12/4 = 3) before R (40/4 = 10).
        assert_eq!(scan_preds(&plan), vec![s, u, r]);
    }

    #[test]
    fn triangle_join_order_tracks_cardinalities() {
        let mut interner = Interner::new();
        let program =
            parse_program("P(x,y,z) :- E1(x,y), E2(y,z), E3(z,x).", &mut interner).unwrap();
        let (e1, e2, e3) = (
            interner.get("E1").unwrap(),
            interner.get("E2").unwrap(),
            interner.get("E3").unwrap(),
        );
        let instance = instance_with(&mut interner, &[("E1", 2, 2), ("E2", 2, 50), ("E3", 2, 50)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let plan = planner.plan_rule(&program.rules[0]);
        // E1 (card 2) first; E2/E3 tie at one bound position → source
        // order; the last scan is fully bound.
        assert_eq!(scan_preds(&plan), vec![e1, e2, e3]);
        let Step::Scan { key, .. } = plan.steps.last().unwrap() else {
            panic!("last step must be the closing scan");
        };
        assert_eq!(key, &[0, 1], "closing triangle scan is a point lookup");
    }

    #[test]
    fn cost_mode_never_picks_a_cross_product_over_a_connected_atom() {
        // The Andersen load rule. After the forced delta scan binds
        // (q, o), the connected PT(p,q) atom must be scheduled before
        // the *smaller but unconnected* Load(v,p): picking Load there
        // re-enumerates it per delta tuple — a Cartesian product that
        // turns the whole fixpoint quadratic.
        let mut interner = Interner::new();
        let program =
            parse_program("PT(v,o) :- Load(v,p), PT(p,q), PT(q,o).", &mut interner).unwrap();
        let load = interner.get("Load").unwrap();
        let pt = interner.get("PT").unwrap();
        let instance = instance_with(&mut interner, &[("Load", 2, 4), ("PT", 2, 64)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let variants = planner.seminaive_variants(&program.rules[0], &|p| p == pt);
        assert_eq!(variants.len(), 2);
        // Δ on PT(q,o): delta first, then PT(p,q) via q, then Load via p.
        assert_eq!(scan_preds(&variants[1]), vec![pt, pt, load]);
        // Every post-delta scan probes on at least one bound column.
        for step in variants[1].steps.iter().skip(1) {
            if let Step::Scan { key, .. } = step {
                assert!(!key.is_empty(), "cross product scheduled: {step:?}");
            }
        }
        // Δ on PT(p,q): Load joins via p and is cheap, so it may lead
        // the remainder — but it too must arrive connected.
        for step in variants[0].steps.iter().skip(1) {
            if let Step::Scan { key, .. } = step {
                assert!(!key.is_empty(), "cross product scheduled: {step:?}");
            }
        }
    }

    #[test]
    fn sip_filters_only_push_into_bound_positions() {
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), T(z,y).", &mut interner).unwrap();
        let instance = instance_with(&mut interner, &[("G", 2, 8), ("T", 2, 64)]);
        let t = interner.get("T").unwrap();
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let plan = planner.plan_rule(&program.rules[0]);
        // First scan (G) has nothing bound: empty key. Second scan (T)
        // probes exactly on column 0 (z is bound, y is not).
        let keys: Vec<&Vec<usize>> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Scan { key, .. } => Some(key),
                _ => None,
            })
            .collect();
        assert_eq!(keys, vec![&vec![], &vec![0]]);
        // The same fact is visible in the gauge: one pruned join.
        assert_eq!(planner.stats().joins_pruned, 1);
        // And the T scan keys only the bound column.
        let t_key = plan.steps.iter().find_map(|s| match s {
            Step::Scan { pred, key, .. } if *pred == t => Some(key),
            _ => None,
        });
        assert_eq!(t_key, Some(&vec![0]));
    }

    #[test]
    fn cost_ordering_never_changes_answers() {
        // The same tricky bodies under both modes: answers agree.
        let sources = [
            "H(x,y) :- A(x,z), !B(z), A(y,w).",
            "H(x) :- A(x,x), B(x), A(x,y), !B(y).",
            "H(x) :- A(1,x), !A(x,2), x != 1.",
            "H(x,y) :- B(z), x = z, y = x, !A(x,y).",
            "H(x) :- B(x), A(x,x).",
        ];
        let mut interner = Interner::new();
        let a = interner.intern("A");
        let b = interner.intern("B");
        let mut instance = Instance::new();
        for (p, q) in [(1i64, 2), (2, 2), (2, 3), (3, 1)] {
            instance.insert_fact(a, Tuple::from([Value::Int(p), Value::Int(q)]));
        }
        for v in [1i64, 3] {
            instance.insert_fact(b, Tuple::from([Value::Int(v)]));
        }
        for src in sources {
            let program = parse_program(src, &mut interner).unwrap();
            let rule = &program.rules[0];
            let adom = active_domain(&program, &instance);
            let mut answers: Vec<Vec<Vec<Value>>> = Vec::new();
            for mode in [PlanMode::Cost, PlanMode::Syntactic] {
                let mut planner = Planner::new(Catalog::from_instance(&instance), mode);
                let plan = planner.plan_rule(rule);
                let mut cache = IndexCache::new();
                let mut out: Vec<Vec<Value>> = Vec::new();
                let vars = rule.body_vars();
                let _ = for_each_match(
                    &plan,
                    Sources::simple(&instance),
                    &adom,
                    &mut cache,
                    &mut |env| {
                        out.push(vars.iter().map(|v| env[v.index()].unwrap()).collect());
                        ControlFlow::Continue(())
                    },
                );
                out.sort();
                out.dedup();
                answers.push(out);
            }
            assert_eq!(answers[0], answers[1], "modes disagree on:\n{src}");
        }
    }

    #[test]
    fn prebound_head_variables_become_probe_keys() {
        // Support query: does any body valuation derive T(a, b) for a
        // *fixed* (a, b)? With x and y prebound the G scan probes on
        // both columns instead of enumerating.
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), G(z,y).", &mut interner).unwrap();
        let rule = &program.rules[0];
        let g = interner.get("G").unwrap();
        let mut instance = Instance::new();
        for (p, q) in [(1i64, 2), (2, 3), (3, 4)] {
            instance.insert_fact(g, Tuple::from([Value::Int(p), Value::Int(q)]));
        }
        let head_vars: Vec<Var> = rule
            .head
            .first()
            .and_then(HeadLiteral::atom)
            .map(|a| a.args.iter().filter_map(|t| t.as_var()).collect())
            .unwrap_or_default();
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let plan = planner.plan_rule_bound(rule, &head_vars);
        // The first scheduled scan already probes on a bound column.
        let Some(Step::Scan { key, .. }) =
            plan.steps.iter().find(|s| matches!(s, Step::Scan { .. }))
        else {
            panic!("plan must scan G");
        };
        assert!(!key.is_empty(), "prebound vars must reach the probe key");

        // Seeded execution answers the point query.
        let adom = active_domain(&program, &instance);
        let mut cache = IndexCache::new();
        let mut supported = |a: i64, b: i64| {
            let mut env: Vec<Option<Value>> = vec![None; plan.var_count];
            for (v, val) in head_vars.iter().zip([a, b]) {
                env[v.index()] = Some(Value::Int(val));
            }
            let mut hit = false;
            let _ = for_each_match_from(
                &plan,
                Sources::simple(&instance),
                &adom,
                &mut cache,
                &mut env,
                &mut |_| {
                    hit = true;
                    ControlFlow::Break(())
                },
            );
            hit
        };
        assert!(supported(1, 3));
        assert!(supported(2, 4));
        assert!(!supported(1, 4));
        assert!(!supported(3, 3));
    }

    #[test]
    fn plans_render_their_steps() {
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), T(z,y).", &mut interner).unwrap();
        let t = interner.get("T").unwrap();
        let instance = instance_with(&mut interner, &[("G", 2, 4), ("T", 2, 16)]);
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let rule = &program.rules[0];
        let plan = planner.plan_rule(rule);
        assert_eq!(
            plan.render(rule, &interner),
            "scan G(x, z)\njoin T(=z, y)\nproject T(x, y)\n"
        );
        let variants = planner.seminaive_variants(rule, &|p| p == t);
        assert_eq!(
            variants[0].render(rule, &interner),
            "scan T(z, y) Δ\njoin G(x, =z)\nproject T(x, y)\n"
        );
    }

    /// A later scan is marked `seek` only when its key is its leading
    /// columns, each bound by the driver's column at the same position:
    /// not when the key binds another column, in another order, or from
    /// a scan after the driver.
    #[test]
    fn seek_marks_keys_the_drivers_leading_columns_bind_in_order() {
        let mut interner = Interner::new();
        let program = parse_program(
            "R(y) :- R(x), G(x,y).\n\
             P(x,y) :- D(x,y), E(x,y,z).\n\
             P(x,y) :- D(x,y), E(y,x,z).\n\
             P(x,y) :- D(x,y), G(y,z).\n\
             P(x,z) :- D(x,y), G(y,z), H(z,w).",
            &mut interner,
        )
        .unwrap();
        let r = interner.get("R").unwrap();
        let instance = instance_with(
            &mut interner,
            &[("D", 2, 4), ("E", 3, 64), ("G", 2, 64), ("H", 2, 64)],
        );
        let mut planner = Planner::new(Catalog::from_instance(&instance), PlanMode::Cost);
        let seeks = |plan: &Plan| -> Vec<bool> {
            plan.steps
                .iter()
                .filter_map(|s| match s {
                    Step::Scan { seek, .. } => Some(*seek),
                    _ => None,
                })
                .collect()
        };
        let reach = &program.rules[0];
        let delta = &planner.seminaive_variants(reach, &|p| p == r)[0];
        assert_eq!(
            delta.render(reach, &interner),
            "scan R(x) Δ\njoin G(=x, y) seek\nproject R(y)\n"
        );
        let want = [
            vec![false, true],
            vec![false, false],
            vec![false, false],
            vec![false, false, false],
        ];
        for (rule, want) in program.rules[1..].iter().zip(&want) {
            assert_eq!(&seeks(&planner.plan_rule(rule)), want, "{rule:?}");
        }
    }
}
