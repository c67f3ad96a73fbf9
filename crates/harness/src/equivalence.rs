//! The empirical-equivalence harness: run two queries (any engine, any
//! language) over a family of instances and compare their answers.

use std::fmt;
use unchained_common::{Instance, Relation, Symbol};

/// A query under test: anything that maps an instance to a relation.
pub type QueryFn<'a> = dyn Fn(&Instance) -> Result<Relation, String> + 'a;

/// The outcome of comparing two queries over an instance family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Answers agreed on every instance.
    Equivalent {
        /// Number of instances checked.
        instances: usize,
    },
    /// Answers differed on some instance.
    Differs {
        /// Index of the first differing instance.
        instance_index: usize,
        /// Number of tuples only in the left answer.
        only_left: usize,
        /// Number of tuples only in the right answer.
        only_right: usize,
    },
    /// A query failed to evaluate.
    Error {
        /// Index of the offending instance.
        instance_index: usize,
        /// The error message.
        message: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent { instances } => {
                write!(f, "equivalent on {instances} instances")
            }
            Verdict::Differs { instance_index, only_left, only_right } => write!(
                f,
                "differs on instance #{instance_index} (+{only_left} left-only, +{only_right} right-only)"
            ),
            Verdict::Error { instance_index, message } => {
                write!(f, "error on instance #{instance_index}: {message}")
            }
        }
    }
}

/// Runs both queries on every instance and compares the answers.
pub fn compare(left: &QueryFn<'_>, right: &QueryFn<'_>, family: &[Instance]) -> Verdict {
    for (idx, instance) in family.iter().enumerate() {
        let a = match left(instance) {
            Ok(r) => r,
            Err(message) => {
                return Verdict::Error {
                    instance_index: idx,
                    message,
                }
            }
        };
        let b = match right(instance) {
            Ok(r) => r,
            Err(message) => {
                return Verdict::Error {
                    instance_index: idx,
                    message,
                }
            }
        };
        if !a.same_tuples(&b) {
            let only_left = a.iter().filter(|t| !b.contains(t)).count();
            let only_right = b.iter().filter(|t| !a.contains(t)).count();
            return Verdict::Differs {
                instance_index: idx,
                only_left,
                only_right,
            };
        }
    }
    Verdict::Equivalent {
        instances: family.len(),
    }
}

/// Helper: extracts `pred` from an instance-valued result (missing
/// relation = empty of the given arity).
pub fn relation_of(instance: &Instance, pred: Symbol, arity: usize) -> Relation {
    instance
        .relation(pred)
        .cloned()
        .unwrap_or_else(|| Relation::new(arity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle_graph, line_graph, random_digraph};
    use crate::oracles::transitive_closure;
    use crate::programs::TC;
    use unchained_common::Interner;
    use unchained_core::{seminaive, EvalOptions};
    use unchained_parser::parse_program;

    #[test]
    fn datalog_tc_matches_oracle_across_family() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut family: Vec<Instance> = Vec::new();
        for n in 3..7 {
            family.push(line_graph(&mut i, "G", n));
        }
        for n in 3..6 {
            family.push(cycle_graph(&mut i, "G", n));
        }
        for seed in 0..3 {
            family.push(random_digraph(&mut i, "G", 8, 0.2, seed));
        }
        let left: Box<QueryFn> = Box::new(|inst: &Instance| {
            seminaive::minimum_model(&program, inst, EvalOptions::default())
                .map(|run| relation_of(&run.instance, t, 2))
                .map_err(|e| e.to_string())
        });
        let right: Box<QueryFn> = Box::new(|inst: &Instance| Ok(transitive_closure(inst, g)));
        let verdict = compare(&left, &right, &family);
        assert!(verdict.is_equivalent(), "{verdict}");
    }

    #[test]
    fn differing_queries_reported() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let family = vec![line_graph(&mut i, "G", 3)];
        let left: Box<QueryFn> = Box::new(|inst: &Instance| Ok(relation_of(inst, g, 2)));
        let right: Box<QueryFn> = Box::new(|_inst: &Instance| Ok(Relation::new(2)));
        let verdict = compare(&left, &right, &family);
        assert!(matches!(
            verdict,
            Verdict::Differs {
                instance_index: 0,
                only_left: 2,
                only_right: 0
            }
        ));
    }

    #[test]
    fn errors_reported() {
        let left: Box<QueryFn> = Box::new(|_| Err("boom".into()));
        let right: Box<QueryFn> = Box::new(|_| Ok(Relation::new(1)));
        let verdict = compare(&left, &right, &[Instance::new()]);
        assert!(matches!(verdict, Verdict::Error { message, .. } if message == "boom"));
    }
}
