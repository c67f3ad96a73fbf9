//! The empirical-equivalence harness behind the Figure 1 reproduction:
//! run two queries (any engine, any language) over a family of
//! instances and compare their answers.

use std::fmt;
use unchained_common::{EvalTrace, Instance, Relation, Symbol, Telemetry};

/// A query under test: anything that maps an instance to a relation.
pub type QueryFn<'a> = dyn Fn(&Instance) -> Result<Relation, String> + 'a;

/// A query under test that also reports telemetry: the harness hands
/// it an enabled [`Telemetry`] to thread into the engine's options.
pub type TracedQueryFn<'a> = dyn Fn(&Instance, Telemetry) -> Result<Relation, String> + 'a;

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

/// A [`Verdict`] plus, when the comparison failed, the evaluation
/// traces both engines produced on the offending instance — so a
/// Figure 1 disagreement report shows not just *that* the answers
/// differ, but how each engine got there (stage counts, deltas, join
/// work).
#[derive(Clone, Debug)]
pub struct TracedVerdict {
    /// The comparison outcome.
    pub verdict: Verdict,
    /// The left engine's trace on the offending instance
    /// (`None` when equivalent).
    pub left_trace: Option<EvalTrace>,
    /// The right engine's trace on the offending instance
    /// (`None` when equivalent, or when the left query already failed).
    pub right_trace: Option<EvalTrace>,
}

impl TracedVerdict {
    /// True for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        self.verdict.is_equivalent()
    }
}

/// Like [`compare`], but hands each query an enabled [`Telemetry`] and
/// attaches both engines' traces to any failure.
pub fn compare_traced(
    left: &TracedQueryFn<'_>,
    right: &TracedQueryFn<'_>,
    family: &[Instance],
) -> TracedVerdict {
    for (idx, instance) in family.iter().enumerate() {
        let ltel = Telemetry::enabled();
        let rtel = Telemetry::enabled();
        let a = match left(instance, ltel.clone()) {
            Ok(r) => r,
            Err(message) => {
                return TracedVerdict {
                    verdict: Verdict::Error {
                        instance_index: idx,
                        message,
                    },
                    left_trace: ltel.snapshot(),
                    right_trace: None,
                }
            }
        };
        let b = match right(instance, rtel.clone()) {
            Ok(r) => r,
            Err(message) => {
                return TracedVerdict {
                    verdict: Verdict::Error {
                        instance_index: idx,
                        message,
                    },
                    left_trace: ltel.snapshot(),
                    right_trace: rtel.snapshot(),
                }
            }
        };
        if !a.same_tuples(&b) {
            let only_left = a.iter().filter(|t| !b.contains(t)).count();
            let only_right = b.iter().filter(|t| !a.contains(t)).count();
            return TracedVerdict {
                verdict: Verdict::Differs {
                    instance_index: idx,
                    only_left,
                    only_right,
                },
                left_trace: ltel.snapshot(),
                right_trace: rtel.snapshot(),
            };
        }
    }
    TracedVerdict {
        verdict: Verdict::Equivalent {
            instances: family.len(),
        },
        left_trace: None,
        right_trace: None,
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
    fn traced_comparison_attaches_both_traces_on_difference() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let family = vec![line_graph(&mut i, "G", 5)];
        // Left: the real semi-naive TC. Right: deliberately drops one
        // tuple, so the harness must report Differs with both traces.
        let left: Box<TracedQueryFn> = Box::new(|inst: &Instance, tel| {
            seminaive::minimum_model(&program, inst, EvalOptions::default().with_telemetry(tel))
                .map(|run| relation_of(&run.instance, t, 2))
                .map_err(|e| e.to_string())
        });
        let right: Box<TracedQueryFn> = Box::new(|inst: &Instance, tel| {
            seminaive::minimum_model(&program, inst, EvalOptions::default().with_telemetry(tel))
                .map(|run| {
                    let full = relation_of(&run.instance, t, 2);
                    let mut out = Relation::new(2);
                    for tuple in full.iter().skip(1) {
                        out.insert_row(&tuple);
                    }
                    out
                })
                .map_err(|e| e.to_string())
        });
        let traced = compare_traced(&left, &right, &family);
        assert!(matches!(
            traced.verdict,
            Verdict::Differs {
                instance_index: 0,
                ..
            }
        ));
        let lt = traced.left_trace.expect("left trace");
        let rt = traced.right_trace.expect("right trace");
        assert_eq!(lt.engine, "seminaive");
        assert_eq!(rt.engine, "seminaive");
        assert!(!lt.stages.is_empty());
        // Both engines did identical evaluation work; only the
        // projection differed.
        assert_eq!(lt.stages.len(), rt.stages.len());
        assert_eq!(lt.total_facts_added(), rt.total_facts_added());
    }

    #[test]
    fn traced_comparison_equivalent_has_no_traces() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let family = vec![line_graph(&mut i, "G", 3)];
        let left: Box<TracedQueryFn> =
            Box::new(|inst: &Instance, _tel| Ok(relation_of(inst, g, 2)));
        let right: Box<TracedQueryFn> =
            Box::new(|inst: &Instance, _tel| Ok(relation_of(inst, g, 2)));
        let traced = compare_traced(&left, &right, &family);
        assert!(traced.is_equivalent());
        assert!(traced.left_trace.is_none() && traced.right_trace.is_none());
    }

    #[test]
    fn errors_reported() {
        let left: Box<QueryFn> = Box::new(|_| Err("boom".into()));
        let right: Box<QueryFn> = Box::new(|_| Ok(Relation::new(1)));
        let verdict = compare(&left, &right, &[Instance::new()]);
        assert!(matches!(verdict, Verdict::Error { message, .. } if message == "boom"));
    }
}
