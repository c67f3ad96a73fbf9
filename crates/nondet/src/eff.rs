//! Exhaustive computation of the effect relation `eff(P)`
//! (Definition 5.2): all terminal instances reachable from an input by
//! sequences of immediate successors, excluding computations that
//! derive `⊥`.

use crate::program::{NondetProgram, State};
use crate::NondetError;
use unchained_common::{FxHashMap, Instance};

/// Budget for exhaustive effect computation.
#[derive(Clone, Copy, Debug)]
pub struct EffOptions {
    /// Maximum number of distinct states to visit before failing with
    /// [`NondetError::StateBudgetExceeded`]. The state space of an
    /// N-Datalog¬¬ program is finite but exponential; effects are only
    /// exhaustively enumerable for small inputs.
    pub max_states: usize,
}

impl Default for EffOptions {
    fn default() -> Self {
        EffOptions {
            max_states: 100_000,
        }
    }
}

/// The effect of `compiled` on `input`: the set of instances `J` with
/// `(input, J) ∈ eff(P)`, sorted deterministically.
///
/// States that derived `⊥` are pruned (their continuations cannot
/// appear in the effect). Value-inventing programs generally have
/// infinite state spaces; expect the budget to trip for them.
///
/// # Errors
/// [`NondetError::StateBudgetExceeded`] when `options.max_states`
/// distinct states have been visited; an arity conflict between the
/// program and `input`.
pub fn effect(
    compiled: &NondetProgram<'_>,
    input: &Instance,
    options: EffOptions,
) -> Result<Vec<Instance>, NondetError> {
    unchained_core::input_schema(compiled.program, input)?;
    let initial = State::initial(input.clone());
    // Visited memo: fingerprint → states (to resolve collisions exactly).
    let mut visited: FxHashMap<u64, Vec<State>> = FxHashMap::default();
    let visit = |state: &State, visited: &mut FxHashMap<u64, Vec<State>>| -> bool {
        let bucket = visited.entry(state.fingerprint()).or_default();
        if bucket
            .iter()
            .any(|s| crate::program::states_equal(s, state))
        {
            false
        } else {
            bucket.push(state.clone());
            true
        }
    };
    let mut stack = vec![initial.clone()];
    visit(&initial, &mut visited);
    let mut visited_count = 1usize;
    let mut terminals: Vec<Instance> = Vec::new();
    let mut fresh: u64 = 0;

    while let Some(state) = stack.pop() {
        if state.bottom {
            // Abandoned computation: contributes nothing.
            continue;
        }
        let succ = compiled.successors(&state, &mut fresh);
        if succ.is_empty() {
            if !terminals.iter().any(|t| t.same_facts(&state.instance)) {
                terminals.push(state.instance);
            }
            continue;
        }
        for next in succ {
            if visit(&next, &mut visited) {
                visited_count += 1;
                if visited_count > options.max_states {
                    return Err(NondetError::StateBudgetExceeded(visited_count));
                }
                stack.push(next);
            }
        }
    }
    // Deterministic order: sort by rendered fact list.
    terminals.sort_by_cached_key(instance_sort_key);
    Ok(terminals)
}

/// A canonical sort key for instances (sorted fact tuples per relation).
pub(crate) fn instance_sort_key(instance: &Instance) -> Vec<u8> {
    let mut key = Vec::new();
    for (sym, rel) in instance.iter() {
        if rel.is_empty() {
            continue;
        }
        key.extend_from_slice(&(sym.index() as u64).to_be_bytes());
        for t in rel.sorted().iter() {
            for v in t.values() {
                key.extend_from_slice(format!("{v:?}|").as_bytes());
            }
        }
        key.push(0xff);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NondetProgram;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    #[test]
    fn orientation_effect_enumerates_all_orientations() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for (a, b) in [(1, 2), (2, 1), (3, 4), (4, 3)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
        // 2 choices per 2-cycle → 4 orientations.
        assert_eq!(effects.len(), 4);
        for e in &effects {
            assert_eq!(e.relation(g).unwrap().len(), 2);
        }
    }

    #[test]
    fn deterministic_program_has_single_effect() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for k in 0..3 {
            input.insert_fact(g, Tuple::from([v(k), v(k + 1)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(effects.len(), 1);
        let expected = unchained_core::seminaive::minimum_model(
            &program,
            &input,
            unchained_core::EvalOptions::default(),
        )
        .unwrap();
        assert!(effects[0].same_facts(&expected.instance));
    }

    #[test]
    fn bottom_paths_are_pruned() {
        // One rule orients (1,2)/(2,1); a second rule aborts whenever the
        // orientation kept (2,1). Effect = only the (1,2) orientation.
        let mut i = Interner::new();
        let program = parse_program(
            "!G(x,y), done(x) :- G(x,y), G(y,x).\n\
             bottom :- done(x), G(2,1), !G(1,2).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let effects = effect(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(effects.len(), 1);
        assert!(effects[0].contains_fact(g, &Tuple::from([v(1), v(2)])));
        assert!(!effects[0].contains_fact(g, &Tuple::from([v(2), v(1)])));
    }

    #[test]
    fn empty_input_no_firings() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let effects = effect(&compiled, &Instance::new(), EffOptions::default()).unwrap();
        assert_eq!(effects.len(), 1);
        assert!(effects[0].is_empty());
    }

    #[test]
    fn state_budget_enforced() {
        // 3 two-cycles → 27 states along the way; a budget of 4 trips.
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for (a, b) in [(1, 2), (3, 4), (5, 6)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
            input.insert_fact(g, Tuple::from([v(b), v(a)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        assert!(matches!(
            effect(&compiled, &input, EffOptions { max_states: 4 }),
            Err(NondetError::StateBudgetExceeded(_))
        ));
    }
}
