//! Naive bottom-up evaluation of positive Datalog (Section 3.1).
//!
//! Computes the minimum model `P(I)`: the least fixpoint of the
//! immediate consequence operator, by firing all rules with all
//! applicable valuations until nothing new is inferred. The semi-naive
//! engine ([`crate::seminaive`]) computes the same result while avoiding
//! rederivations; this one exists as the reference implementation and as
//! the baseline for the `naive_vs_seminaive` benchmark.

use crate::error::EvalError;
use crate::fixpoint::{self, Accumulate};
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use unchained_common::Instance;
use unchained_parser::{check_range_restricted, Language, Program};

/// Computes the minimum model of a positive Datalog program on `input`.
///
/// The result instance contains the input edb relations plus the
/// computed idb relations; use [`FixpointRun::answer`] to project to the
/// idb.
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
    fixpoint::eval(
        program,
        input,
        &options,
        "naive",
        &mut Accumulate::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn line_graph(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst
    }

    #[test]
    fn transitive_closure_of_a_line() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = line_graph(&mut i, 5);
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        // A 5-node line has C(5,2) = 10 transitive-closure pairs.
        assert_eq!(run.instance.relation(t).unwrap().len(), 10);
        assert!(run
            .instance
            .contains_fact(t, &Tuple::from([Value::Int(0), Value::Int(4)])));
        // Answer projects away the edb.
        let answer = run.answer(&p);
        assert!(answer.relation(i.get("G").unwrap()).is_none());
    }

    #[test]
    fn empty_input_fixpoint_in_one_stage() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let run = minimum_model(&p, &Instance::new(), EvalOptions::default()).unwrap();
        assert_eq!(run.stages, 1);
        let t = i.get("T").unwrap();
        assert!(run.instance.relation(t).unwrap().is_empty());
    }

    #[test]
    fn stage_count_tracks_distance() {
        // On a line of n nodes, the left-linear TC rule needs ~n stages.
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = line_graph(&mut i, 6);
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        // Distances up to 5; stage k infers pairs at distance k; +1 to
        // detect the fixpoint.
        assert_eq!(run.stages, 6);
    }

    #[test]
    fn rejects_negation() {
        let mut i = Interner::new();
        let p = parse_program("A(x) :- B(x), !C(x).", &mut i).unwrap();
        assert!(matches!(
            minimum_model(&p, &Instance::new(), EvalOptions::default()),
            Err(EvalError::WrongLanguage { .. })
        ));
    }

    #[test]
    fn stage_limit_enforced() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = line_graph(&mut i, 10);
        assert!(matches!(
            minimum_model(&p, &input, EvalOptions::default().with_max_stages(2)),
            Err(EvalError::StageLimitExceeded(_))
        ));
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.intern("G");
        let mut input = Instance::new();
        for k in 0..4 {
            input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k + 1) % 4)]));
        }
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        // Complete relation on 4 nodes.
        assert_eq!(run.instance.relation(t).unwrap().len(), 16);
    }

    /// Regression: plans must be rebuilt against the grown idb each
    /// round. With one entry-time catalog both of Q's body atoms are
    /// idb, so both get the same inflated cardinality; the tie puts the
    /// 200-tuple P1 on the scan side of the join, and every round after
    /// the first scans all of P1 probing the one-fact P2 — hundreds of
    /// probe lookups where a fresh catalog needs a handful.
    #[test]
    fn replanning_tracks_grown_idb_cardinalities() {
        let mut i = Interner::new();
        let p = parse_program(
            "P1(x,y) :- E1(x,y).\n\
             P2(x,y) :- E2(x,y).\n\
             Q(x,y) :- P1(x,y), P2(x,y).",
            &mut i,
        )
        .unwrap();
        let e1 = i.get("E1").unwrap();
        let e2 = i.get("E2").unwrap();
        let mut input = Instance::new();
        for k in 0..200i64 {
            input.insert_fact(e1, Tuple::from([Value::Int(k), Value::Int(k)]));
        }
        input.insert_fact(e2, Tuple::from([Value::Int(0), Value::Int(0)]));
        let telemetry = unchained_common::Telemetry::enabled();
        let run = minimum_model(
            &p,
            &input,
            EvalOptions::default().with_telemetry(telemetry.clone()),
        )
        .unwrap();
        let q = i.get("Q").unwrap();
        assert_eq!(run.instance.relation(q).unwrap().len(), 1);
        let trace = telemetry.snapshot().unwrap();
        assert!(
            trace.joins.probes < 50,
            "stale join order: {} probe lookups for a one-fact join",
            trace.joins.probes
        );
    }

    #[test]
    fn facts_in_program_text() {
        let mut i = Interner::new();
        let p = parse_program("G(1,2). T(x,y) :- G(x,y).", &mut i).unwrap();
        let run = minimum_model(&p, &Instance::new(), EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(run
            .instance
            .contains_fact(t, &Tuple::from([Value::Int(1), Value::Int(2)])));
    }
}
