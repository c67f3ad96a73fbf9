//! Stratified Datalog¬ (Section 3.2).
//!
//! The program's predicates are partitioned into strata such that
//! negation is only applied to predicates defined in strictly earlier
//! strata. Each stratum is then evaluated to a semi-naive fixpoint in
//! order, each by one run of the stage driver over its rules, so every
//! negative literal reads a fully computed relation —
//! "the portion of P defining R comes before the negation of R is used".

use crate::error::EvalError;
use crate::fixpoint;
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use unchained_common::Instance;
use unchained_parser::{check_range_restricted, DependencyGraph, Language, Program};

/// Evaluates a stratified Datalog¬ program.
///
/// # Errors
/// Rejects programs with recursion through negation
/// ([`AnalysisError::NotStratifiable`](unchained_parser::AnalysisError)),
/// programs outside Datalog¬ syntax, and non-range-restricted rules.
pub fn eval(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    // Accept Datalog¬ *syntax* here and let stratification reject
    // recursion through negation with the informative
    // `NotStratifiable` error (classification alone would report a
    // less specific `WrongLanguage`).
    require_language(program, Language::DatalogNeg)?;
    check_range_restricted(program, false)?;
    let stratification = DependencyGraph::build(program).stratify()?;

    let strata = stratification.partition_rules(program);
    fixpoint::eval_strata(program, input, &options, "stratified", strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    /// The paper's Section 3.2 example: complement of transitive closure.
    fn ctc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             CT(x,y) :- !T(x,y).",
            interner,
        )
        .unwrap()
    }

    fn line(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst
    }

    #[test]
    fn complement_of_transitive_closure() {
        let mut i = Interner::new();
        let p = ctc_program(&mut i);
        let input = line(&mut i, 4);
        let run = eval(&p, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        let ct = i.get("CT").unwrap();
        let t_rel = run.instance.relation(t).unwrap();
        let ct_rel = run.instance.relation(ct).unwrap();
        // |T| + |CT| = |adom|² and they are disjoint.
        assert_eq!(t_rel.len() + ct_rel.len(), 16);
        for tup in t_rel.iter() {
            assert!(!ct_rel.contains(&tup));
        }
        // (0,1) reachable, so in T not CT; (1,0) unreachable.
        assert!(ct_rel.contains(&Tuple::from([Value::Int(1), Value::Int(0)])));
        assert!(!ct_rel.contains(&Tuple::from([Value::Int(0), Value::Int(1)])));
    }

    #[test]
    fn pure_datalog_agrees_with_seminaive() {
        let mut i = Interner::new();
        let p = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let input = line(&mut i, 6);
        let a = eval(&p, &input, EvalOptions::default()).unwrap();
        let b = crate::seminaive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
    }

    #[test]
    fn multiple_strata_chain() {
        // Three strata: T, then A = ¬T restricted, then B = ¬A restricted.
        let mut i = Interner::new();
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             A(x,y) :- !T(x,y).\n\
             B(x,y) :- !A(x,y).",
            &mut i,
        )
        .unwrap();
        let input = line(&mut i, 3);
        let run = eval(&p, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        let b = i.get("B").unwrap();
        // B = ¬¬T = T (over adom²).
        assert!(run
            .instance
            .relation(b)
            .unwrap()
            .same_tuples(run.instance.relation(t).unwrap()));
    }

    #[test]
    fn rejects_unstratifiable() {
        let mut i = Interner::new();
        let p = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        assert!(matches!(
            eval(&p, &Instance::new(), EvalOptions::default()),
            Err(EvalError::Analysis(
                unchained_parser::AnalysisError::NotStratifiable { .. }
            ))
        ));
    }

    #[test]
    fn semipositive_program() {
        // NG = complement of edge relation over the vertex set.
        let mut i = Interner::new();
        let p = parse_program("NG(x,y) :- V(x), V(y), !G(x,y).", &mut i).unwrap();
        let v = i.get("V").unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        for k in 0..3 {
            input.insert_fact(v, Tuple::from([Value::Int(k)]));
        }
        input.insert_fact(g, Tuple::from([Value::Int(0), Value::Int(1)]));
        let run = eval(&p, &input, EvalOptions::default()).unwrap();
        let ng = i.get("NG").unwrap();
        assert_eq!(run.instance.relation(ng).unwrap().len(), 8);
    }

    #[test]
    fn empty_stratum_rules_skipped() {
        let mut i = Interner::new();
        let p = parse_program("A(x) :- B(x).", &mut i).unwrap();
        let run = eval(&p, &Instance::new(), EvalOptions::default()).unwrap();
        assert!(run.stages >= 1);
    }

    #[test]
    fn negation_on_empty_relation() {
        // CT over a graph with no edges at all: adom comes only from V.
        let mut i = Interner::new();
        let p = parse_program("R(x) :- V(x), !S(x).", &mut i).unwrap();
        let v = i.get("V").unwrap();
        let mut input = Instance::new();
        input.insert_fact(v, Tuple::from([Value::Int(1)]));
        let run = eval(&p, &input, EvalOptions::default()).unwrap();
        let r = i.get("R").unwrap();
        assert_eq!(run.instance.relation(r).unwrap().len(), 1);
    }
}
