//! Semi-naive bottom-up evaluation.
//!
//! The classical optimization of naive fixpoint evaluation: a fact can
//! only be *newly* derived in round `k+1` if its derivation uses at least
//! one fact first derived in round `k`. After the first round each rule
//! therefore fires in *variants*, one per idb body literal, where that
//! literal scans the last round's delta and the others scan the full
//! relations.
//!
//! That is the Δ-driven [`Accumulate`](crate::fixpoint) policy of the
//! one stage driver, [`crate::fixpoint::Stages`], run as a single
//! stratum; [`crate::stratified`] runs the same driver stratum by
//! stratum.

use crate::error::EvalError;
use crate::fixpoint;
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use unchained_common::Instance;
use unchained_parser::{check_range_restricted, Language, Program};

/// Computes the minimum model of a positive Datalog program on `input`
/// using semi-naive evaluation. Semantically identical to
/// [`crate::naive::minimum_model`].
///
/// # Errors
/// Rejects programs outside pure Datalog and non-range-restricted rules.
pub fn minimum_model(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;
    let strata = vec![(0..program.rules.len()).collect()];
    fixpoint::eval_strata(program, input, &options, "seminaive", strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    fn tc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
            interner,
        )
        .unwrap()
    }

    fn random_ish_graph(interner: &mut Interner, n: i64) -> Instance {
        // Deterministic pseudo-random graph: edge (i, (i*7+3) mod n) and
        // (i, (i*5+1) mod n).
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 7 + 3) % n)]));
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 5 + 1) % n)]));
        }
        inst
    }

    #[test]
    fn agrees_with_naive_on_lines_and_cycles() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        for n in [2i64, 3, 5, 8] {
            // line
            let mut line = Instance::new();
            for k in 0..n - 1 {
                line.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            let a = naive::minimum_model(&p, &line, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &line, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "line n={n}");
            // cycle
            let mut cyc = Instance::new();
            for k in 0..n {
                cyc.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k + 1) % n)]));
            }
            let a = naive::minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "cycle n={n}");
        }
    }

    #[test]
    fn agrees_with_naive_on_denser_graph() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = random_ish_graph(&mut i, 13);
        let a = naive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
    }

    #[test]
    fn nonrecursive_rules_fire_once() {
        let mut i = Interner::new();
        let p = parse_program("A(x) :- B(x). C(x) :- A(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let c = i.get("C").unwrap();
        assert!(run.instance.contains_fact(c, &Tuple::from([Value::Int(1)])));
    }

    #[test]
    fn right_linear_and_left_linear_tc_agree() {
        let mut i = Interner::new();
        let left = tc_program(&mut i);
        let right = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), G(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 11);
        let a = minimum_model(&left, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&right, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
    }

    #[test]
    fn nonlinear_tc_agrees() {
        let mut i = Interner::new();
        let lin = tc_program(&mut i);
        let nonlin = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), T(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 9);
        let a = minimum_model(&lin, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&nonlin, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
        // The nonlinear version doubles path lengths per round, so it
        // should take fewer rounds.
        assert!(b.stages <= a.stages);
    }

    #[test]
    fn same_generation_program() {
        // A classic non-TC recursion: same-generation.
        let mut i = Interner::new();
        let p = parse_program(
            "SG(x,x) :- Person(x).\n\
             SG(x,y) :- Par(x,xp), SG(xp,yp), Par(y,yp).",
            &mut i,
        )
        .unwrap();
        let person = i.get("Person").unwrap();
        let par = i.get("Par").unwrap();
        let mut input = Instance::new();
        // A small binary tree: 1 root; 2,3 children; 4,5,6,7 grandchildren.
        for k in 1..=7i64 {
            input.insert_fact(person, Tuple::from([Value::Int(k)]));
        }
        for (c, par_) in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)] {
            input.insert_fact(par, Tuple::from([Value::Int(c), Value::Int(par_)]));
        }
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let sg = i.get("SG").unwrap();
        let rel = run.instance.relation(sg).unwrap();
        // 2 and 3 are same generation; 4..7 pairwise same generation.
        assert!(rel.contains(&Tuple::from([Value::Int(2), Value::Int(3)])));
        assert!(rel.contains(&Tuple::from([Value::Int(4), Value::Int(7)])));
        assert!(!rel.contains(&Tuple::from([Value::Int(2), Value::Int(4)])));
        // 7 reflexive + {2,3}² off-diag 2 + {4..7}² off-diag 12 = 21.
        assert_eq!(rel.len(), 21);
    }
}
