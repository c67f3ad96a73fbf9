//! Single nondeterministic computations: pick one applicable rule
//! instantiation at a time (via a [`Chooser`]) until no change-producing
//! firing remains.

use crate::chooser::Chooser;
use crate::program::{states_equal, NondetProgram, State};
use crate::NondetError;
use unchained_common::{Instance, SpanKind};
use unchained_core::EvalOptions;

/// Statistics and result of one nondeterministic run.
#[derive(Clone, Debug)]
pub struct NondetRun {
    /// The terminal instance.
    pub instance: Instance,
    /// Number of firings performed.
    pub steps: usize,
    /// Number of values invented (N-Datalog¬new only).
    pub invented: u64,
}

/// Runs one computation of `compiled` from `input`, with `chooser`
/// resolving each choice among the applicable firings.
///
/// # Errors
/// * [`NondetError::Aborted`] if the chosen computation derives `⊥`;
/// * [`NondetError::StepLimitExceeded`] if `options.max_stages` firings
///   happen without reaching a terminal state (N-Datalog¬¬ runs need
///   not terminate);
/// * [`NondetError::FactLimitExceeded`] under the fact budget;
/// * an arity conflict between the program and `input`.
pub fn run_once(
    compiled: &NondetProgram<'_>,
    input: &Instance,
    chooser: &mut dyn Chooser,
    options: EvalOptions,
) -> Result<NondetRun, NondetError> {
    unchained_core::input_schema(compiled.program, input)?;
    let tel = options.telemetry.clone();
    tel.begin("nondet");
    let run_sw = tel.stopwatch();
    let tracer = tel.tracer().clone();
    let eval_guard = tracer.span(SpanKind::Eval, "nondet");
    let mut state = State::initial(input.clone());
    let mut fresh: u64 = 0;
    let mut steps = 0usize;
    loop {
        if options.max_stages.is_some_and(|m| steps >= m) {
            tel.finish(&run_sw, state.instance.fact_count());
            return Err(NondetError::StepLimitExceeded(steps));
        }
        let round_guard = tracer.span(SpanKind::Round, format!("step {}", steps + 1));
        // Candidate firings that change the state.
        let firings = compiled.firings(&state, &mut fresh);
        let changing: Vec<_> = firings
            .iter()
            .filter(|f| {
                let next = compiled.apply(&state, f);
                !states_equal(&next, &state)
            })
            .collect();
        if changing.is_empty() {
            drop(round_guard);
            tracer.gauge("steps", steps as u64);
            tracer.gauge("invented", fresh);
            tracer.gauge("final_facts", state.instance.fact_count() as u64);
            drop(eval_guard);
            tel.with(|t| t.invented = fresh as usize);
            tel.finish(&run_sw, state.instance.fact_count());
            return Ok(NondetRun {
                instance: state.instance,
                steps,
                invented: fresh,
            });
        }
        // One choice point per firing: how many candidates were live.
        tel.with(|t| t.choice_points.push(changing.len()));
        tracer.gauge("choices", changing.len() as u64);
        let pick = chooser.choose(changing.len());
        state = compiled.apply(&state, changing[pick]);
        steps += 1;
        drop(round_guard);
        if state.bottom {
            tel.finish(&run_sw, state.instance.fact_count());
            return Err(NondetError::Aborted { steps });
        }
        if options
            .max_facts
            .is_some_and(|m| state.instance.fact_count() > m)
        {
            tel.finish(&run_sw, state.instance.fact_count());
            return Err(NondetError::FactLimitExceeded(state.instance.fact_count()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::{FirstChooser, RandomChooser, SequenceChooser};
    use crate::program::NondetProgram;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    #[test]
    fn orientation_produces_valid_result() {
        // Section 5.1: remove one edge of every 2-cycle.
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for (a, b) in [(1, 2), (2, 1), (3, 4), (4, 3)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        for seed in 0..10 {
            let mut chooser = RandomChooser::seeded(seed);
            let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
            let rel = run.instance.relation(g).unwrap();
            // Exactly one edge per 2-cycle survives.
            assert_eq!(rel.len(), 2);
            let has = |a: i64, b: i64| rel.contains(&Tuple::from([v(a), v(b)]));
            assert!(has(1, 2) ^ has(2, 1));
            assert!(has(3, 4) ^ has(4, 3));
            assert_eq!(run.steps, 2);
        }
    }

    #[test]
    fn different_seeds_reach_different_outcomes() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut outcomes = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let mut chooser = RandomChooser::seeded(seed);
            let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
            let rel = run.instance.relation(g).unwrap();
            outcomes.insert(rel.sorted().as_ref().clone());
        }
        assert_eq!(outcomes.len(), 2, "both orientations should be reachable");
    }

    #[test]
    fn deterministic_program_single_outcome() {
        // Without conflicting rules, every chooser converges to the same
        // fixpoint (the minimum model).
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for k in 0..4 {
            input.insert_fact(g, Tuple::from([v(k), v(k + 1)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let expected =
            unchained_core::seminaive::minimum_model(&program, &input, EvalOptions::default())
                .unwrap();
        for seed in 0..5 {
            let mut chooser = RandomChooser::seeded(seed);
            let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
            assert!(
                run.instance
                    .relation(t)
                    .unwrap()
                    .same_tuples(expected.instance.relation(t).unwrap()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bottom_aborts() {
        let mut i = Interner::new();
        let program = parse_program("bottom :- P(x).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let mut input = Instance::new();
        input.insert_fact(p, Tuple::from([Value::Int(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut chooser = FirstChooser;
        assert!(matches!(
            run_once(&compiled, &input, &mut chooser, EvalOptions::default()),
            Err(NondetError::Aborted { .. })
        ));
    }

    #[test]
    fn step_limit_on_oscillating_program() {
        // One-at-a-time flip-flop can oscillate forever with an
        // adversarial chooser.
        let mut i = Interner::new();
        let program = parse_program("T(1), !T(0) :- T(0). T(0), !T(1) :- T(1).", &mut i).unwrap();
        let t = i.get("T").unwrap();
        let mut input = Instance::new();
        input.insert_fact(t, Tuple::from([Value::Int(0)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut chooser = FirstChooser;
        assert!(matches!(
            run_once(
                &compiled,
                &input,
                &mut chooser,
                EvalOptions::default().with_max_stages(25)
            ),
            Err(NondetError::StepLimitExceeded(25))
        ));
    }

    #[test]
    fn scripted_choices_drive_specific_outcomes() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        // The two scripts pick the two different firings.
        let mut results = Vec::new();
        for script in [vec![0], vec![1]] {
            let mut chooser = SequenceChooser::new(script);
            let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
            results.push(run.instance.relation(g).unwrap().sorted().len());
        }
        assert_eq!(results, vec![1, 1]);
    }
}
