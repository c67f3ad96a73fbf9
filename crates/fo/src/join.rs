//! Join-based evaluation of `{x̄ | φ}` comprehensions.
//!
//! [`crate::formula::eval_formula`] realizes the textbook semantics by
//! enumerating all `|domain|^k` assignments of the target variables and
//! checking satisfaction of each — obviously correct, and hopeless as
//! an execution strategy: on chain transitive closure the *while*
//! engine spent essentially all its time re-enumerating `D²×D`
//! valuations per loop iteration. This module evaluates the same
//! comprehensions bottom-up instead:
//!
//! * the formula is split into its top-level union parts (`∨`);
//! * each part sheds its existential prefix and is flattened into a
//!   conjunction;
//! * the positive atoms are joined index-nested-loop style over the
//!   instance relations, ordered greedily most-bound-first (smallest
//!   relation first among unconnected atoms — the same Cartesian-guard
//!   discipline as the Datalog planner's syntactic mode);
//! * every other conjunct (negation, equality, nested disjunction or
//!   quantifier) runs as a filter at the first point its free
//!   variables are bound, via the naive satisfaction check under the
//!   then-current binding;
//! * target or existential variables bound by no atom are enumerated
//!   over the domain, exactly as the naive evaluator would.
//!
//! Values bound from relation tuples are checked for domain membership,
//! so the result is tuple-identical to the naive evaluator even on
//! instances whose active domain exceeds the evaluation domain. The
//! equivalence is checked differentially by the tests below on a
//! seeded battery of formulas and random instances. The one visible
//! difference is error eagerness: this evaluator validates every atom
//! of a part up front, where the naive evaluator can short-circuit
//! past an unknown relation or an arity mismatch.

use crate::formula::{satisfies, term_value, Env, FoError, FoTerm, FoVar, Formula};
use unchained_common::{FxHashSet, Index, Instance, Relation, Tuple, Value};

/// Evaluates an open formula as [`crate::formula::eval_formula`] does —
/// same signature, same result set — using joins over the instance
/// relations instead of assignment enumeration.
///
/// This is the evaluator behind *while*-language relation assignments;
/// the naive one remains the semantics reference.
pub fn eval_formula_joined(
    formula: &Formula,
    free_vars: &[FoVar],
    instance: &Instance,
    domain: &[Value],
) -> Result<Relation, FoError> {
    for v in formula.free_vars() {
        if !free_vars.contains(&v) {
            return Err(FoError::UnboundVariable(v));
        }
    }
    let mut out = Relation::new(free_vars.len());
    let domain_set: FxHashSet<Value> = domain.iter().copied().collect();
    for part in union_parts(formula) {
        eval_part(part, free_vars, instance, domain, &domain_set, &mut out)?;
    }
    Ok(out)
}

/// Flattens nested top-level disjunctions into union parts.
fn union_parts(formula: &Formula) -> Vec<&Formula> {
    fn walk<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
        match f {
            Formula::Or(fs) => fs.iter().for_each(|f| walk(f, out)),
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(formula, &mut out);
    out
}

/// Flattens nested conjunctions into conjuncts.
fn flatten_and<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
    match f {
        Formula::And(fs) => fs.iter().for_each(|f| flatten_and(f, out)),
        other => out.push(other),
    }
}

/// How one scan step reaches its rows.
enum Access<'a> {
    /// No position is bound when the scan runs: full relation scan.
    Full(&'a Relation),
    /// At least one position is bound: a hash index on those columns,
    /// probed with the values of `key_terms` under the current binding;
    /// its postings are storage positions in `rel`.
    Probe {
        rel: &'a Relation,
        index: Box<Index>,
        key_terms: Vec<FoTerm>,
    },
}

/// One step of a part's execution plan.
enum Step<'a> {
    /// Join one positive atom: enumerate candidate rows, bind fresh
    /// variables (domain membership checked), reject mismatches.
    Scan {
        terms: &'a [FoTerm],
        access: Access<'a>,
    },
    /// Enumerate a variable no atom binds over the domain.
    Domain(FoVar),
    /// Check a non-atom conjunct under the current (total on its free
    /// variables) binding.
    Filter(&'a Formula),
}

fn eval_part(
    part: &Formula,
    free_vars: &[FoVar],
    instance: &Instance,
    domain: &[Value],
    domain_set: &FxHashSet<Value>,
    out: &mut Relation,
) -> Result<(), FoError> {
    // Shed the existential prefix. A quantified variable that shadows a
    // target variable (or a repeat of one already shed) stays inside
    // the residual, where the naive evaluator's save/restore semantics
    // handle the shadowing.
    let mut scope: Vec<FoVar> = free_vars.to_vec();
    let mut body = part;
    while let Formula::Exists(vars, inner) = body {
        if vars.iter().any(|v| scope.contains(v)) {
            break;
        }
        for &v in vars {
            if !scope.contains(&v) {
                scope.push(v);
            }
        }
        body = inner;
    }

    // Classify the conjuncts.
    let mut conjuncts = Vec::new();
    flatten_and(body, &mut conjuncts);
    let mut atoms: Vec<(&[FoTerm], &Relation)> = Vec::new();
    let mut filters: Vec<(&Formula, Vec<FoVar>)> = Vec::new();
    for c in conjuncts {
        match c {
            Formula::True => {}
            Formula::False => return Ok(()),
            Formula::Atom(pred, terms) => {
                let rel = instance
                    .relation(*pred)
                    .ok_or(FoError::UnknownRelation(*pred))?;
                if rel.arity() != terms.len() {
                    return Err(FoError::ArityMismatch {
                        relation: *pred,
                        expected: rel.arity(),
                        found: terms.len(),
                    });
                }
                atoms.push((terms.as_slice(), rel));
            }
            other => filters.push((other, other.free_vars())),
        }
    }

    // Plan: greedy most-bound-first atom order (ties to the smaller
    // relation), filters as early as their variables allow, domain
    // enumeration for whatever no atom binds.
    fn flush_filters<'a>(
        filters: &mut Vec<(&'a Formula, Vec<FoVar>)>,
        bound: &FxHashSet<FoVar>,
        steps: &mut Vec<Step<'a>>,
    ) {
        filters.retain(|(f, fv)| {
            if fv.iter().all(|v| bound.contains(v)) {
                steps.push(Step::Filter(f));
                false
            } else {
                true
            }
        });
    }
    let mut steps: Vec<Step<'_>> = Vec::new();
    let mut bound: FxHashSet<FoVar> = FxHashSet::default();
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    flush_filters(&mut filters, &bound, &mut steps);
    while !remaining.is_empty() {
        let is_bound = |t: &FoTerm, bound: &FxHashSet<FoVar>| match t {
            FoTerm::Const(_) => true,
            FoTerm::Var(v) => bound.contains(v),
        };
        let (pick, &ai) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(slot, &ai)| {
                let (terms, rel) = atoms[ai];
                let known = terms.iter().filter(|t| is_bound(t, &bound)).count();
                (usize::MAX - known, rel.len(), slot)
            })
            .expect("remaining is non-empty");
        remaining.swap_remove(pick);
        let (terms, rel) = atoms[ai];
        let key_cols: Vec<usize> = terms
            .iter()
            .enumerate()
            .filter(|(_, t)| is_bound(t, &bound))
            .map(|(i, _)| i)
            .collect();
        let access = if key_cols.is_empty() {
            Access::Full(rel)
        } else {
            Access::Probe {
                rel,
                index: Box::new(Index::build(rel, &key_cols)),
                key_terms: key_cols.iter().map(|&i| terms[i]).collect(),
            }
        };
        steps.push(Step::Scan { terms, access });
        for t in terms {
            if let FoTerm::Var(v) = t {
                bound.insert(*v);
            }
        }
        flush_filters(&mut filters, &bound, &mut steps);
    }
    for &v in &scope {
        if bound.insert(v) {
            steps.push(Step::Domain(v));
            flush_filters(&mut filters, &bound, &mut steps);
        }
    }
    debug_assert!(filters.is_empty(), "filter variables escape the scope");

    let env_len = scope.iter().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut env: Env = vec![None; env_len];
    exec(
        &steps, free_vars, instance, domain, domain_set, &mut env, out,
    )
}

/// Binds `row` against `terms` under `env`, pushing newly bound
/// variables onto `fresh`. Returns false on any mismatch or when a
/// fresh value lies outside the evaluation domain; the caller unbinds
/// `fresh` either way.
fn match_row(
    terms: &[FoTerm],
    row: &[Value],
    env: &mut Env,
    domain_set: &FxHashSet<Value>,
    fresh: &mut Vec<FoVar>,
) -> bool {
    for (t, &val) in terms.iter().zip(row) {
        match t {
            FoTerm::Const(c) => {
                if *c != val {
                    return false;
                }
            }
            FoTerm::Var(v) => match env[v.index()] {
                Some(b) => {
                    if b != val {
                        return false;
                    }
                }
                None => {
                    if !domain_set.contains(&val) {
                        return false;
                    }
                    env[v.index()] = Some(val);
                    fresh.push(*v);
                }
            },
        }
    }
    true
}

fn exec(
    steps: &[Step<'_>],
    free_vars: &[FoVar],
    instance: &Instance,
    domain: &[Value],
    domain_set: &FxHashSet<Value>,
    env: &mut Env,
    out: &mut Relation,
) -> Result<(), FoError> {
    let Some((step, rest)) = steps.split_first() else {
        let tuple: Tuple = free_vars
            .iter()
            .map(|v| env[v.index()].expect("target variable bound"))
            .collect();
        out.insert(tuple);
        return Ok(());
    };
    match step {
        Step::Domain(v) => {
            for &value in domain {
                env[v.index()] = Some(value);
                exec(rest, free_vars, instance, domain, domain_set, env, out)?;
            }
            env[v.index()] = None;
        }
        Step::Filter(f) => {
            if satisfies(f, instance, domain, env)? {
                exec(rest, free_vars, instance, domain, domain_set, env, out)?;
            }
        }
        Step::Scan { terms, access } => {
            let mut fresh: Vec<FoVar> = Vec::new();
            match access {
                Access::Full(rel) => {
                    for row in rel.iter_stored() {
                        if match_row(terms, row, env, domain_set, &mut fresh) {
                            exec(rest, free_vars, instance, domain, domain_set, env, out)?;
                        }
                        for v in fresh.drain(..) {
                            env[v.index()] = None;
                        }
                    }
                }
                Access::Probe {
                    rel,
                    index,
                    key_terms,
                } => {
                    let key: Vec<Value> = key_terms
                        .iter()
                        .map(|t| term_value(t, env))
                        .collect::<Result<_, _>>()?;
                    for row in rel.rows_at(index.probe(&key)) {
                        if match_row(terms, row, env, domain_set, &mut fresh) {
                            exec(rest, free_vars, instance, domain, domain_set, env, out)?;
                        }
                        for v in fresh.drain(..) {
                            env[v.index()] = None;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{eval_formula, VarSet};
    use unchained_common::{Interner, Rng, Symbol};

    fn assert_agree(phi: &Formula, layout: &[FoVar], inst: &Instance, dom: &[Value]) {
        let naive = eval_formula(phi, layout, inst, dom).unwrap();
        let joined = eval_formula_joined(phi, layout, inst, dom).unwrap();
        assert!(
            naive.same_tuples(&joined),
            "naive {} vs joined {} tuples",
            naive.len(),
            joined.len()
        );
    }

    fn setup() -> (Interner, Instance, Vec<Value>) {
        let mut i = Interner::new();
        let g = i.intern("G");
        let p = i.intern("P");
        let mut inst = Instance::new();
        for (a, b) in [(1i64, 2), (2, 3), (3, 1), (2, 2), (4, 1)] {
            inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        for v in [2i64, 4] {
            inst.insert_fact(p, Tuple::from([Value::Int(v)]));
        }
        let dom = inst.adom_sorted();
        (i, inst, dom)
    }

    #[test]
    fn agrees_on_the_codd_battery(// the same shapes codd.rs checks against the naive evaluator
    ) {
        let (mut i, inst, dom) = setup();
        let g = i.intern("G");
        let p = i.intern("P");
        let mut vs = VarSet::new();
        let (x, y, z) = (vs.var("x"), vs.var("y"), vs.var("z"));
        let gxy = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]);
        let px = Formula::Atom(p, vec![FoTerm::Var(x)]);
        for (phi, layout) in [
            (gxy.clone(), vec![x, y]),
            // Repeated variable and constant selections.
            (
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(x)]),
                vec![x],
            ),
            (
                Formula::Atom(g, vec![FoTerm::Const(Value::Int(2)), FoTerm::Var(y)]),
                vec![y],
            ),
            // Swapped layout.
            (gxy.clone(), vec![y, x]),
            // Connectives, negation, equality.
            (gxy.clone().and(px.clone()), vec![x, y]),
            (gxy.clone().or(px.clone()), vec![x, y]),
            (gxy.clone().not(), vec![x, y]),
            (px.clone().implies(gxy.clone()), vec![x, y]),
            (
                Formula::Eq(FoTerm::Var(x), FoTerm::Var(y)).and(gxy.clone()),
                vec![x, y],
            ),
            (Formula::Eq(FoTerm::Var(x), FoTerm::Var(y)), vec![x, y]),
            // Quantifiers: two-step reach, sinks, sentence layouts.
            (
                Formula::exists(
                    [z],
                    Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(z)])
                        .and(Formula::Atom(g, vec![FoTerm::Var(z), FoTerm::Var(y)])),
                ),
                vec![x, y],
            ),
            (
                Formula::forall(
                    [y],
                    Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]).not(),
                ),
                vec![x],
            ),
            (Formula::exists([x, y], gxy.clone()), vec![]),
            // Booleans and empty connectives.
            (Formula::True, vec![x]),
            (Formula::False, vec![x]),
            (Formula::And(vec![]), vec![x]),
            (Formula::Or(vec![]), vec![x]),
            (Formula::True, vec![]),
        ] {
            assert_agree(&phi, &layout, &inst, &dom);
        }
    }

    #[test]
    fn shadowed_quantifier_stays_naive() {
        // {x | ∃x P(x)}: the bound x shadows the target x, so the
        // comprehension is the whole domain (P is non-empty). The
        // prefix must not be shed into the join scope.
        let (mut i, inst, dom) = setup();
        let p = i.intern("P");
        let mut vs = VarSet::new();
        let x = vs.var("x");
        let phi = Formula::exists([x], Formula::Atom(p, vec![FoTerm::Var(x)]));
        assert_agree(&phi, &[x], &inst, &dom);
        assert_eq!(
            eval_formula_joined(&phi, &[x], &inst, &dom).unwrap().len(),
            dom.len()
        );
    }

    #[test]
    fn values_outside_the_domain_are_not_produced() {
        // The naive evaluator only enumerates domain values; the join
        // path binds from tuples and must filter to match when the
        // caller passes a domain smaller than the active domain.
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut inst = Instance::new();
        inst.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        inst.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(9)]));
        let dom = vec![Value::Int(1), Value::Int(2)];
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let phi = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]);
        assert_agree(&phi, &[x, y], &inst, &dom);
        let joined = eval_formula_joined(&phi, &[x, y], &inst, &dom).unwrap();
        assert_eq!(joined.len(), 1, "the (1,9) edge lies outside the domain");
    }

    #[test]
    fn tc_step_formula_matches_naive_on_a_chain() {
        // The while-engine workhorse: T ∪ {(x,y) | ∃z T(x,z) ∧ G(z,y)}.
        let mut i = Interner::new();
        let g = i.intern("G");
        let t = i.intern("T");
        let mut inst = Instance::new();
        for k in 0..12i64 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            inst.insert_fact(t, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let dom = inst.adom_sorted();
        let mut vs = VarSet::new();
        let (x, y, z) = (vs.var("x"), vs.var("y"), vs.var("z"));
        let phi = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]).or(Formula::exists(
            [z],
            Formula::Atom(t, vec![FoTerm::Var(x), FoTerm::Var(z)])
                .and(Formula::Atom(g, vec![FoTerm::Var(z), FoTerm::Var(y)])),
        ));
        assert_agree(&phi, &[x, y], &inst, &dom);
    }

    #[test]
    fn errors_match_on_straight_line_parts() {
        let (mut i, inst, dom) = setup();
        let g = i.intern("G");
        let missing = i.intern("missing");
        let mut vs = VarSet::new();
        let x = vs.var("x");
        assert!(matches!(
            eval_formula_joined(
                &Formula::Atom(missing, vec![FoTerm::Var(x)]),
                &[x],
                &inst,
                &dom
            ),
            Err(FoError::UnknownRelation(_))
        ));
        assert!(matches!(
            eval_formula_joined(&Formula::Atom(g, vec![FoTerm::Var(x)]), &[x], &inst, &dom),
            Err(FoError::ArityMismatch { .. })
        ));
        let open = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(x)]);
        assert!(eval_formula_joined(&open, &[], &inst, &dom).is_err());
    }

    /// Seeded random instances × a pool of formula shapes: the joined
    /// evaluator must agree with the naive one tuple-for-tuple.
    #[test]
    fn random_instances_agree_with_naive() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let h = i.intern("H");
        let p = i.intern("P");
        let mut vs = VarSet::new();
        let (x, y, z) = (vs.var("x"), vs.var("y"), vs.var("z"));
        let pool: Vec<(Formula, Vec<FoVar>)> = formula_pool(g, h, p, x, y, z);
        let mut rng = Rng::seeded(0xF0F0);
        for round in 0..40 {
            let n = 2 + (round % 7) as i64;
            let inst = random_instance(&mut rng, g, h, p, n);
            let dom = inst.adom_sorted();
            for (phi, layout) in &pool {
                assert_agree(phi, layout, &inst, &dom);
            }
        }
    }

    fn random_instance(rng: &mut Rng, g: Symbol, h: Symbol, p: Symbol, n: i64) -> Instance {
        let mut inst = Instance::new();
        inst.ensure(g, 2);
        inst.ensure(h, 2);
        inst.ensure(p, 1);
        let value = |rng: &mut Rng| Value::Int(rng.gen_range_i64(0, n));
        for _ in 0..rng.gen_index(2 * n as usize) {
            let t = Tuple::from([value(rng), value(rng)]);
            inst.insert_fact(g, t);
        }
        for _ in 0..rng.gen_index(n as usize + 1) {
            let t = Tuple::from([value(rng), value(rng)]);
            inst.insert_fact(h, t);
        }
        for _ in 0..rng.gen_index(n as usize) {
            inst.insert_fact(p, Tuple::from([value(rng)]));
        }
        inst
    }

    fn formula_pool(
        g: Symbol,
        h: Symbol,
        p: Symbol,
        x: FoVar,
        y: FoVar,
        z: FoVar,
    ) -> Vec<(Formula, Vec<FoVar>)> {
        let gxy = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]);
        let hyz = Formula::Atom(h, vec![FoTerm::Var(y), FoTerm::Var(z)]);
        let px = Formula::Atom(p, vec![FoTerm::Var(x)]);
        let py = Formula::Atom(p, vec![FoTerm::Var(y)]);
        vec![
            // Join with projection: {(x,z) | ∃y G(x,y) ∧ H(y,z)}.
            (
                Formula::exists([y], gxy.clone().and(hyz.clone())),
                vec![x, z],
            ),
            // Join plus negation filter.
            (gxy.clone().and(py.clone().not()), vec![x, y]),
            // Disjunction of unconnected parts.
            (gxy.clone().or(px.clone().and(py.clone())), vec![x, y]),
            // Universal filter over a join variable.
            (
                px.clone()
                    .and(Formula::forall([y], gxy.clone().implies(py.clone()))),
                vec![x],
            ),
            // Equality binding a free variable with no atom.
            (
                px.clone().and(Formula::Eq(FoTerm::Var(x), FoTerm::Var(y))),
                vec![x, y],
            ),
            // Triangle-ish three-way join.
            (
                Formula::exists(
                    [z],
                    gxy.clone()
                        .and(hyz.clone())
                        .and(Formula::Atom(g, vec![FoTerm::Var(z), FoTerm::Var(x)])),
                ),
                vec![x, y],
            ),
            // Pure negation (co-relation): {(x,y) | ¬G(x,y)}.
            (gxy.clone().not(), vec![x, y]),
            // Constant probe.
            (
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Const(Value::Int(0))]),
                vec![x],
            ),
        ]
    }
}
