//! Codd's theorem, empirically: compiling FO formulas to relational
//! algebra.
//!
//! Section 2 of the paper recalls that "FO has an algebraization called
//! relational algebra" \[51\]. This module implements the constructive
//! direction used in practice: given a formula `φ` with free variables
//! `x̄` and an *active domain* `D`, produce an algebra expression whose
//! value equals `{x̄ | D ⊨ φ}` under the active-domain semantics.
//!
//! The translation is the textbook one:
//!
//! * an atom `R(t̄)` becomes selections (for constants and repeated
//!   variables) over `R`, projected and padded to the target column
//!   layout via products with the domain relation `D`;
//! * `∧` becomes join on shared free variables (here: product +
//!   selection, since columns are positional), `∨` becomes union of
//!   same-layout expressions, `¬φ` becomes `D^k − ⟦φ⟧`;
//! * `∃y φ` projects `y` away; `∀y φ` is `¬∃y ¬φ`.
//!
//! Every subexpression is materialized over the **full layout** (all
//! free variables of the enclosing comprehension plus the quantified
//! ones in scope), which keeps the translation simple and obviously
//! correct at the cost of larger intermediates — this is the semantics
//! reference, not the fast path. The equivalence with the direct
//! evaluator in [`crate::formula`] is checked by unit and property
//! tests; both sides realize the same queries, which is the content of
//! Codd's theorem at this scale.

use crate::algebra::{self, Condition, Expr, Operand};
use crate::formula::{FoError, FoTerm, FoVar, Formula};
use unchained_common::{Instance, Relation, Tuple, Value};

/// Compiles `phi` (with free variables `layout`, in order) to an
/// algebra expression over `instance`'s relations, with quantifiers and
/// negation ranging over the given `domain`.
///
/// The resulting expression — evaluated with
/// [`crate::algebra::eval`] against the same instance — produces
/// exactly `eval_formula(phi, layout, instance, domain)`.
pub fn compile_formula(phi: &Formula, layout: &[FoVar], domain: &[Value]) -> Result<Expr, FoError> {
    for v in phi.free_vars() {
        if !layout.contains(&v) {
            return Err(FoError::UnboundVariable(v));
        }
    }
    let dom_rel = Relation::from_tuples(1, domain.iter().map(|&v| Tuple::from([v])));
    let max_var = max_var_index(phi)
        .into_iter()
        .chain(layout.iter().map(|v| v.index() as u32))
        .max()
        .map_or(0, |m| m + 1);
    let ctx = Ctx {
        domain: dom_rel,
        next_fresh: std::cell::Cell::new(max_var),
    };
    ctx.compile(phi, layout)
}

fn max_var_index(phi: &Formula) -> Option<u32> {
    let term = |t: &FoTerm| match t {
        FoTerm::Var(v) => Some(v.0),
        FoTerm::Const(_) => None,
    };
    match phi {
        Formula::True | Formula::False => None,
        Formula::Atom(_, terms) => terms.iter().filter_map(term).max(),
        Formula::Eq(l, r) => term(l).max(term(r)),
        Formula::Not(inner) => max_var_index(inner),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().filter_map(max_var_index).max(),
        Formula::Exists(vars, inner) | Formula::Forall(vars, inner) => {
            vars.iter().map(|v| v.0).max().max(max_var_index(inner))
        }
    }
}

/// Capture-avoiding renaming of the free occurrences of `from` to `to`.
fn rename(phi: &Formula, from: FoVar, to: FoVar) -> Formula {
    let term = |t: &FoTerm| match t {
        FoTerm::Var(v) if *v == from => FoTerm::Var(to),
        other => *other,
    };
    match phi {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(p, terms) => Formula::Atom(*p, terms.iter().map(term).collect()),
        Formula::Eq(l, r) => Formula::Eq(term(l), term(r)),
        Formula::Not(inner) => rename(inner, from, to).not(),
        Formula::And(fs) => Formula::And(fs.iter().map(|f| rename(f, from, to)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|f| rename(f, from, to)).collect()),
        Formula::Exists(vars, inner) => {
            if vars.contains(&from) {
                // `from` is re-bound here: nothing free below.
                Formula::Exists(vars.clone(), inner.clone())
            } else {
                Formula::Exists(vars.clone(), Box::new(rename(inner, from, to)))
            }
        }
        Formula::Forall(vars, inner) => {
            if vars.contains(&from) {
                Formula::Forall(vars.clone(), inner.clone())
            } else {
                Formula::Forall(vars.clone(), Box::new(rename(inner, from, to)))
            }
        }
    }
}

struct Ctx {
    domain: Relation,
    next_fresh: std::cell::Cell<u32>,
}

impl Ctx {
    /// `D^k` — the k-fold product of the domain (k = layout length).
    fn domain_power(&self, k: usize) -> Expr {
        if k == 0 {
            // The zero-ary "true" relation: one empty tuple.
            return Expr::Lit(Box::new(Relation::from_tuples(0, [Tuple::from([])])));
        }
        let mut e = Expr::Lit(Box::new(self.domain.clone()));
        for _ in 1..k {
            e = e.product(Expr::Lit(Box::new(self.domain.clone())));
        }
        e
    }

    fn compile(&self, phi: &Formula, layout: &[FoVar]) -> Result<Expr, FoError> {
        let k = layout.len();
        match phi {
            Formula::True => Ok(self.domain_power(k)),
            Formula::False => Ok(Expr::Lit(Box::new(Relation::new(k)))),
            Formula::Atom(pred, terms) => {
                // Start from R × D^k, select agreement between R's
                // columns and the layout columns (or constants), then
                // project the layout columns away from R's prefix.
                let arity = terms.len();
                let base = Expr::Rel(*pred).product(self.domain_power(k));
                let mut conds = Vec::new();
                for (pos, term) in terms.iter().enumerate() {
                    match term {
                        FoTerm::Const(c) => conds.push(Condition {
                            left: Operand::Col(pos),
                            right: Operand::Const(*c),
                            equal: true,
                        }),
                        FoTerm::Var(v) => {
                            let slot = layout
                                .iter()
                                .position(|lv| lv == v)
                                .ok_or(FoError::UnboundVariable(*v))?;
                            conds.push(Condition {
                                left: Operand::Col(pos),
                                right: Operand::Col(arity + slot),
                                equal: true,
                            });
                        }
                    }
                }
                let selected = if conds.is_empty() {
                    base
                } else {
                    Expr::Select(Box::new(base), conds)
                };
                let layout_cols: Vec<usize> = (arity..arity + k).collect();
                Ok(selected.project(layout_cols))
            }
            Formula::Eq(l, r) => {
                let base = self.domain_power(k);
                let operand = |t: &FoTerm| -> Result<Operand, FoError> {
                    match t {
                        FoTerm::Const(c) => Ok(Operand::Const(*c)),
                        FoTerm::Var(v) => layout
                            .iter()
                            .position(|lv| lv == v)
                            .map(Operand::Col)
                            .ok_or(FoError::UnboundVariable(*v)),
                    }
                };
                Ok(Expr::Select(
                    Box::new(base),
                    vec![Condition {
                        left: operand(l)?,
                        right: operand(r)?,
                        equal: true,
                    }],
                ))
            }
            Formula::Not(inner) => {
                let pos = self.compile(inner, layout)?;
                Ok(self.domain_power(k).diff(pos))
            }
            Formula::And(parts) => {
                let mut expr: Option<Expr> = None;
                for part in parts {
                    let e = self.compile(part, layout)?;
                    expr = Some(match expr {
                        // Same-layout conjuncts intersect:
                        // a ∩ b = a − (a − b).
                        Some(acc) => acc.clone().diff(acc.diff(e)),
                        None => e,
                    });
                }
                Ok(expr.unwrap_or_else(|| self.domain_power(k)))
            }
            Formula::Or(parts) => {
                let mut expr: Option<Expr> = None;
                for part in parts {
                    let e = self.compile(part, layout)?;
                    expr = Some(match expr {
                        Some(acc) => acc.union(e),
                        None => e,
                    });
                }
                Ok(expr.unwrap_or_else(|| Expr::Lit(Box::new(Relation::new(k)))))
            }
            Formula::Exists(vars, inner) => {
                // Extend the layout with the quantified variables,
                // alpha-renaming any that collide with a variable
                // already in scope (a bound `v` must shadow a free `v`,
                // as the direct evaluator's save/restore does), then
                // compile and project the extension away.
                let mut extended: Vec<FoVar> = layout.to_vec();
                let mut body = (**inner).clone();
                for v in vars {
                    let v = if extended.contains(v) {
                        let fresh = FoVar(self.next_fresh.get());
                        self.next_fresh.set(fresh.0 + 1);
                        body = rename(&body, *v, fresh);
                        fresh
                    } else {
                        *v
                    };
                    extended.push(v);
                }
                let inner_expr = self.compile(&body, &extended)?;
                Ok(inner_expr.project((0..k).collect::<Vec<_>>()))
            }
            Formula::Forall(vars, inner) => {
                // ∀ȳ φ ≡ ¬∃ȳ ¬φ.
                let rewritten = Formula::exists(vars.clone(), inner.clone().not()).not();
                self.compile(&rewritten, layout)
            }
        }
    }
}

/// Convenience: compile and evaluate in one step (the algebra
/// counterpart of [`crate::formula::eval_formula`]).
pub fn eval_via_algebra(
    phi: &Formula,
    layout: &[FoVar],
    instance: &Instance,
    domain: &[Value],
) -> Result<Relation, FoError> {
    let expr = compile_formula(phi, layout, domain)?;
    algebra::eval(&expr, instance).map_err(|e| match e {
        algebra::AlgebraError::UnknownRelation(s) => FoError::UnknownRelation(s),
        algebra::AlgebraError::ColumnOutOfRange { .. }
        | algebra::AlgebraError::ArityMismatch { .. } => {
            unreachable!("translation produces well-typed algebra: {e}")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{eval_formula, VarSet};
    use unchained_common::Interner;

    fn setup() -> (Interner, Instance, Vec<Value>) {
        let mut i = Interner::new();
        let g = i.intern("G");
        let p = i.intern("P");
        let mut inst = Instance::new();
        for (a, b) in [(1i64, 2), (2, 3), (3, 1), (2, 2)] {
            inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        inst.insert_fact(p, Tuple::from([Value::Int(2)]));
        let dom = inst.adom_sorted();
        (i, inst, dom)
    }

    fn assert_agree(phi: &Formula, layout: &[FoVar], inst: &Instance, dom: &[Value]) {
        let direct = eval_formula(phi, layout, inst, dom).unwrap();
        let via_algebra = eval_via_algebra(phi, layout, inst, dom).unwrap();
        assert!(
            direct.same_tuples(&via_algebra),
            "direct {} vs algebra {} tuples",
            direct.len(),
            via_algebra.len()
        );
    }

    #[test]
    fn atoms() {
        let (mut i, inst, dom) = setup();
        let g = i.intern("G");
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        assert_agree(
            &Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]),
            &[x, y],
            &inst,
            &dom,
        );
        // Repeated variable: G(x,x).
        assert_agree(
            &Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(x)]),
            &[x],
            &inst,
            &dom,
        );
        // Constant: G(2, y).
        assert_agree(
            &Formula::Atom(g, vec![FoTerm::Const(Value::Int(2)), FoTerm::Var(y)]),
            &[y],
            &inst,
            &dom,
        );
        // Swapped layout: {(y,x) | G(x,y)}.
        assert_agree(
            &Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]),
            &[y, x],
            &inst,
            &dom,
        );
    }

    #[test]
    fn connectives_and_negation() {
        let (mut i, inst, dom) = setup();
        let g = i.intern("G");
        let p = i.intern("P");
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let gxy = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]);
        let px = Formula::Atom(p, vec![FoTerm::Var(x)]);
        assert_agree(&gxy.clone().and(px.clone()), &[x, y], &inst, &dom);
        assert_agree(&gxy.clone().or(px.clone()), &[x, y], &inst, &dom);
        assert_agree(&gxy.clone().not(), &[x, y], &inst, &dom);
        assert_agree(&px.clone().implies(gxy.clone()), &[x, y], &inst, &dom);
        assert_agree(
            &Formula::Eq(FoTerm::Var(x), FoTerm::Var(y)).and(gxy),
            &[x, y],
            &inst,
            &dom,
        );
    }

    #[test]
    fn quantifiers() {
        let (mut i, inst, dom) = setup();
        let g = i.intern("G");
        let mut vs = VarSet::new();
        let (x, y, z) = (vs.var("x"), vs.var("y"), vs.var("z"));
        // Nodes with an out-neighbour.
        assert_agree(
            &Formula::exists([y], Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)])),
            &[x],
            &inst,
            &dom,
        );
        // Two-step reachability.
        assert_agree(
            &Formula::exists(
                [z],
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(z)])
                    .and(Formula::Atom(g, vec![FoTerm::Var(z), FoTerm::Var(y)])),
            ),
            &[x, y],
            &inst,
            &dom,
        );
        // Sinks: ∀y ¬G(x,y).
        assert_agree(
            &Formula::forall(
                [y],
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]).not(),
            ),
            &[x],
            &inst,
            &dom,
        );
        // Sentence (k = 0): ∃x∃y G(x,y).
        assert_agree(
            &Formula::exists(
                [x, y],
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]),
            ),
            &[],
            &inst,
            &dom,
        );
    }

    #[test]
    fn booleans_and_edge_cases() {
        let (_, inst, dom) = setup();
        let vs = &mut VarSet::new();
        let x = vs.var("x");
        assert_agree(&Formula::True, &[x], &inst, &dom);
        assert_agree(&Formula::False, &[x], &inst, &dom);
        assert_agree(&Formula::True, &[], &inst, &dom);
        assert_agree(&Formula::And(vec![]), &[x], &inst, &dom);
        assert_agree(&Formula::Or(vec![]), &[x], &inst, &dom);
    }

    #[test]
    fn unlisted_free_variable_rejected() {
        let mut i = Interner::new();
        let p = i.intern("P");
        let mut vs = VarSet::new();
        let x = vs.var("x");
        let phi = Formula::Atom(p, vec![FoTerm::Var(x)]);
        assert!(matches!(
            compile_formula(&phi, &[], &[Value::Int(1)]),
            Err(FoError::UnboundVariable(_))
        ));
    }

    #[test]
    fn parsed_formulas_agree() {
        // End-to-end: text → formula → (direct | algebra).
        let (mut i, inst, dom) = setup();
        for src in [
            "G(x,y) & !G(y,x)",
            "exists z (G(x,z) & G(z,y)) or x = y",
            "forall y (G(x,y) -> P(y))",
            "P(x) & x != 2",
        ] {
            let mut vs = VarSet::new();
            let phi = crate::text::parse_formula(src, &mut i, &mut vs).unwrap();
            let layout = phi.free_vars();
            assert_agree(&phi, &layout, &inst, &dom);
        }
    }
}
