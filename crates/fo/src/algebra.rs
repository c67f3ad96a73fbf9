//! Relational algebra: the algebraization of FO recalled in Section 2 of
//! the paper (Codd's theorem).
//!
//! Operators are positional: projection and selection address columns by
//! index, and the join operator concatenates the left-hand columns with
//! the right-hand ones. The classical attribute-rename operator `δ` is
//! subsumed by positional projection.

use std::fmt;
use unchained_common::{Index, Instance, Relation, Symbol, Tuple, Value};

/// One side of a selection comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A column of the input.
    Col(usize),
    /// A constant.
    Const(Value),
}

/// A selection condition: (in)equality between two operands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Condition {
    /// Left operand.
    pub left: Operand,
    /// Right operand.
    pub right: Operand,
    /// True for `=`, false for `≠`.
    pub equal: bool,
}

/// A relational algebra expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A base relation of the instance.
    Rel(Symbol),
    /// A literal constant relation.
    Lit(Box<Relation>),
    /// `π_cols(e)` — also serves as positional rename/reorder.
    Project(Box<Expr>, Vec<usize>),
    /// `σ_conds(e)` (conjunction of conditions).
    Select(Box<Expr>, Vec<Condition>),
    /// Equi-join: tuples `l ++ r` with `l[i] = r[j]` for each `(i, j)`.
    /// With no pairs this is the Cartesian product `×`.
    Join(Box<Expr>, Box<Expr>, Vec<(usize, usize)>),
    /// `e1 ∪ e2`.
    Union(Box<Expr>, Box<Expr>),
    /// `e1 − e2`.
    Diff(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A base relation.
    pub fn rel(name: Symbol) -> Expr {
        Expr::Rel(name)
    }

    /// `π_cols(self)`.
    pub fn project(self, cols: impl Into<Vec<usize>>) -> Expr {
        Expr::Project(Box::new(self), cols.into())
    }

    /// `σ` with a single condition.
    pub fn select(self, cond: Condition) -> Expr {
        Expr::Select(Box::new(self), vec![cond])
    }

    /// Natural-style equi-join on explicit column pairs.
    pub fn join_on(self, other: Expr, pairs: impl Into<Vec<(usize, usize)>>) -> Expr {
        Expr::Join(Box::new(self), Box::new(other), pairs.into())
    }

    /// Cartesian product.
    pub fn product(self, other: Expr) -> Expr {
        Expr::Join(Box::new(self), Box::new(other), vec![])
    }

    /// Union.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// Difference.
    pub fn diff(self, other: Expr) -> Expr {
        Expr::Diff(Box::new(self), Box::new(other))
    }
}

/// Algebra evaluation errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AlgebraError {
    /// The expression mentions a relation absent from the instance.
    UnknownRelation(Symbol),
    /// A column index exceeds the input arity.
    ColumnOutOfRange {
        /// Offending index.
        column: usize,
        /// Input arity.
        arity: usize,
    },
    /// Union/difference of relations with different arities.
    ArityMismatch {
        /// Left arity.
        left: usize,
        /// Right arity.
        right: usize,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownRelation(s) => write!(f, "unknown relation {s:?}"),
            AlgebraError::ColumnOutOfRange { column, arity } => {
                write!(f, "column {column} out of range for arity {arity}")
            }
            AlgebraError::ArityMismatch { left, right } => {
                write!(f, "arity mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for AlgebraError {}

fn operand_value(op: Operand, tuple: &[Value]) -> Value {
    match op {
        Operand::Col(c) => tuple[c],
        Operand::Const(v) => v,
    }
}

fn check_operand(op: Operand, arity: usize) -> Result<(), AlgebraError> {
    if let Operand::Col(c) = op {
        if c >= arity {
            return Err(AlgebraError::ColumnOutOfRange { column: c, arity });
        }
    }
    Ok(())
}

/// Evaluates `expr` against `instance`, producing a materialized
/// relation.
pub fn eval(expr: &Expr, instance: &Instance) -> Result<Relation, AlgebraError> {
    match expr {
        Expr::Rel(name) => instance
            .relation(*name)
            .cloned()
            .ok_or(AlgebraError::UnknownRelation(*name)),
        Expr::Lit(rel) => Ok((**rel).clone()),
        Expr::Project(inner, cols) => {
            let input = eval(inner, instance)?;
            for &c in cols {
                if c >= input.arity() {
                    return Err(AlgebraError::ColumnOutOfRange {
                        column: c,
                        arity: input.arity(),
                    });
                }
            }
            let mut out = Relation::new(cols.len());
            for t in input.iter() {
                out.insert(t.project(cols));
            }
            Ok(out)
        }
        Expr::Select(inner, conds) => {
            let input = eval(inner, instance)?;
            for cond in conds {
                check_operand(cond.left, input.arity())?;
                check_operand(cond.right, input.arity())?;
            }
            let mut out = Relation::new(input.arity());
            for t in input.iter() {
                let ok = conds
                    .iter()
                    .all(|c| (operand_value(c.left, &t) == operand_value(c.right, &t)) == c.equal);
                if ok {
                    out.insert_row(&t);
                }
            }
            Ok(out)
        }
        Expr::Join(left, right, pairs) => {
            let l = eval(left, instance)?;
            let r = eval(right, instance)?;
            for &(i, j) in pairs {
                if i >= l.arity() {
                    return Err(AlgebraError::ColumnOutOfRange {
                        column: i,
                        arity: l.arity(),
                    });
                }
                if j >= r.arity() {
                    return Err(AlgebraError::ColumnOutOfRange {
                        column: j,
                        arity: r.arity(),
                    });
                }
            }
            let mut out = Relation::new(l.arity() + r.arity());
            if pairs.is_empty() {
                // Cartesian product.
                for lt in l.iter() {
                    for rt in r.iter() {
                        let vals: Vec<Value> =
                            lt.values().iter().chain(rt.values()).copied().collect();
                        out.insert(Tuple::from(vals));
                    }
                }
            } else {
                // Hash join: index the right side on its join columns.
                let rcols: Vec<usize> = pairs.iter().map(|&(_, j)| j).collect();
                let index = Index::build(&r, &rcols);
                let mut key = Vec::with_capacity(pairs.len());
                for lt in l.iter() {
                    key.clear();
                    key.extend(pairs.iter().map(|&(i, _)| lt[i]));
                    for rt in r.rows_at(index.probe(&key)) {
                        let vals: Vec<Value> =
                            lt.values().iter().chain(rt.iter()).copied().collect();
                        out.insert(Tuple::from(vals));
                    }
                }
            }
            Ok(out)
        }
        Expr::Union(left, right) => {
            let mut l = eval(left, instance)?;
            let r = eval(right, instance)?;
            if l.arity() != r.arity() {
                return Err(AlgebraError::ArityMismatch {
                    left: l.arity(),
                    right: r.arity(),
                });
            }
            l.union_with(&r);
            Ok(l)
        }
        Expr::Diff(left, right) => {
            let mut l = eval(left, instance)?;
            let r = eval(right, instance)?;
            if l.arity() != r.arity() {
                return Err(AlgebraError::ArityMismatch {
                    left: l.arity(),
                    right: r.arity(),
                });
            }
            l.difference_with(&r);
            Ok(l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;

    fn setup() -> (Interner, Symbol, Instance) {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut inst = Instance::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 2)] {
            inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
        }
        (i, g, inst)
    }

    #[test]
    fn project() {
        let (_, g, inst) = setup();
        let sources = eval(&Expr::rel(g).project([0]), &inst).unwrap();
        assert_eq!(sources.len(), 3); // {1, 2, 3}
        let swapped = eval(&Expr::rel(g).project([1, 0]), &inst).unwrap();
        assert!(swapped.contains(&Tuple::from([Value::Int(2), Value::Int(1)])));
    }

    #[test]
    fn select_eq_and_neq() {
        let (_, g, inst) = setup();
        let diag = eval(
            &Expr::rel(g).select(Condition {
                left: Operand::Col(0),
                right: Operand::Col(1),
                equal: true,
            }),
            &inst,
        )
        .unwrap();
        assert_eq!(diag.len(), 1);
        let off_diag = eval(
            &Expr::rel(g).select(Condition {
                left: Operand::Col(0),
                right: Operand::Col(1),
                equal: false,
            }),
            &inst,
        )
        .unwrap();
        assert_eq!(off_diag.len(), 3);
        let from_two = eval(
            &Expr::rel(g).select(Condition {
                left: Operand::Col(0),
                right: Operand::Const(Value::Int(2)),
                equal: true,
            }),
            &inst,
        )
        .unwrap();
        assert_eq!(from_two.len(), 2);
    }

    #[test]
    fn join_computes_two_step_paths() {
        let (_, g, inst) = setup();
        // G ⋈_{1=0} G, projected to endpoints: pairs at distance two.
        let expr = Expr::rel(g).join_on(Expr::rel(g), [(1, 0)]).project([0, 3]);
        let two_step = eval(&expr, &inst).unwrap();
        // 1->2->3, 1->2->2, 2->3->1, 3->1->2, 2->2->3, 2->2->2
        assert_eq!(two_step.len(), 6);
        assert!(two_step.contains(&Tuple::from([Value::Int(1), Value::Int(3)])));
    }

    #[test]
    fn product_sizes_multiply() {
        let (_, g, inst) = setup();
        let p = eval(&Expr::rel(g).product(Expr::rel(g)), &inst).unwrap();
        assert_eq!(p.len(), 16);
        assert_eq!(p.arity(), 4);
    }

    #[test]
    fn union_and_difference() {
        let (_, g, inst) = setup();
        let u = eval(&Expr::rel(g).union(Expr::rel(g).project([1, 0])), &inst).unwrap();
        assert_eq!(u.len(), 7); // 4 + 4 − 1 shared (2,2)
        let d = eval(&Expr::rel(g).diff(Expr::rel(g).project([1, 0])), &inst).unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn errors() {
        let (mut i, g, inst) = setup();
        let missing = i.intern("missing");
        assert!(matches!(
            eval(&Expr::rel(missing), &inst),
            Err(AlgebraError::UnknownRelation(_))
        ));
        assert!(matches!(
            eval(&Expr::rel(g).project([5]), &inst),
            Err(AlgebraError::ColumnOutOfRange { .. })
        ));
        assert!(matches!(
            eval(&Expr::rel(g).union(Expr::rel(g).project([0])), &inst),
            Err(AlgebraError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn literal_relations() {
        let (_, _, inst) = setup();
        let lit = Relation::from_tuples(1, vec![Tuple::from([Value::Int(9)])]);
        let out = eval(&Expr::Lit(Box::new(lit.clone())), &inst).unwrap();
        assert!(out.same_tuples(&lit));
    }
}
