//! Substitution helpers shared by every engine: valuation
//! environments, term evaluation, head instantiation, and the active
//! domain. What a fixpoint stage does with the instantiated heads lives
//! in [`crate::fixpoint`]'s consequence policies.

use unchained_common::{Instance, Tuple, Value};
use unchained_parser::Term;

/// A valuation environment: one slot per rule variable.
pub type Env = Vec<Option<Value>>;

/// Evaluates `term` under `env`.
///
/// # Panics
/// Panics if the term is an unbound variable — the planner guarantees
/// this cannot happen for well-formed plans.
#[inline]
pub fn term_value(term: &Term, env: &Env) -> Value {
    match term {
        Term::Const(v) => *v,
        Term::Var(v) => env[v.index()].expect("planner bound all variables"),
    }
}

/// Instantiates `args` under a complete environment.
pub fn instantiate(args: &[Term], env: &Env) -> Tuple {
    args.iter().map(|t| term_value(t, env)).collect()
}

/// Computes the sorted active domain `adom(P, I)`: constants of the
/// program plus values of the instance.
pub fn active_domain(program: &unchained_parser::Program, instance: &Instance) -> Vec<Value> {
    let mut dom = instance.adom();
    dom.extend(program.adom());
    let mut v: Vec<Value> = dom.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;
    use unchained_parser::parse_program;

    #[test]
    fn term_value_and_instantiate() {
        let mut i = Interner::new();
        let program = parse_program("P(x, 7) :- Q(x).", &mut i).unwrap();
        let head = match &program.rules[0].head[0] {
            unchained_parser::HeadLiteral::Pos(a) => a,
            _ => unreachable!(),
        };
        let env: Env = vec![Some(Value::Int(3))];
        assert_eq!(
            instantiate(&head.args, &env),
            Tuple::from([Value::Int(3), Value::Int(7)])
        );
    }

    #[test]
    fn active_domain_merges_program_and_instance_constants() {
        let mut i = Interner::new();
        let program = parse_program("P(x) :- Q(x), x != 9.", &mut i).unwrap();
        let q = i.get("Q").unwrap();
        let mut instance = Instance::new();
        instance.insert_fact(q, Tuple::from([Value::Int(1)]));
        let adom = active_domain(&program, &instance);
        assert_eq!(adom, vec![Value::Int(1), Value::Int(9)]);
    }
}
