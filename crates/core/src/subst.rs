//! Substitution helpers shared by every engine: valuation
//! environments, term evaluation, head instantiation, and the active
//! domain. What a fixpoint stage does with the instantiated heads lives
//! in [`crate::fixpoint`]'s consequence policies.

use unchained_common::{FxHashSet, Instance, Tuple, Value};
use unchained_parser::{Literal, Program, Rule, Term, Var};

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

/// Instantiates `args` under a complete environment onto the end of
/// `out`, a flat value buffer.
#[inline]
pub fn instantiate_into(args: &[Term], env: &Env, out: &mut Vec<Value>) {
    out.extend(args.iter().map(|t| term_value(t, env)));
}

/// Computes the sorted active domain `adom(P, I)`: constants of the
/// program plus values of the instance.
pub fn active_domain(program: &Program, instance: &Instance) -> Vec<Value> {
    let mut dom = instance.adom();
    dom.extend(program.adom());
    let mut v: Vec<Value> = dom.into_iter().collect();
    v.sort_unstable();
    v
}

/// Whether some rule of `rules` has a variable that no positive body
/// atom binds: the planner enumerates such a variable over the active
/// domain, and only such a rule reads it.
pub fn enumerates_domain<'r>(rules: impl IntoIterator<Item = &'r Rule>) -> bool {
    rules.into_iter().any(|r| {
        let mut bound: FxHashSet<Var> = FxHashSet::default();
        for l in &r.body {
            if let Literal::Pos(a) = l {
                bound.extend(a.vars());
            }
        }
        r.head_vars()
            .into_iter()
            .chain(r.body_vars())
            .chain(r.forall.iter().copied())
            .any(|v| !bound.contains(&v))
    })
}

/// [`active_domain`] if some rule of `program` enumerates it (see
/// [`enumerates_domain`]), and empty otherwise.
pub fn active_domain_if_enumerated(program: &Program, instance: &Instance) -> Vec<Value> {
    if enumerates_domain(&program.rules) {
        active_domain(program, instance)
    } else {
        Vec::new()
    }
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

    #[test]
    fn a_positive_program_gets_an_empty_domain() {
        let mut i = Interner::new();
        let program =
            parse_program("T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut instance = Instance::new();
        instance.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        assert!(!enumerates_domain(&program.rules));
        assert!(active_domain_if_enumerated(&program, &instance).is_empty());
    }

    #[test]
    fn a_negated_only_variable_still_enumerates_the_domain() {
        let mut i = Interner::new();
        let program = parse_program("P(x) :- !Q(x).", &mut i).unwrap();
        let q = i.get("Q").unwrap();
        let mut instance = Instance::new();
        instance.insert_fact(q, Tuple::from([Value::Int(4)]));
        instance.insert_fact(q, Tuple::from([Value::Int(2)]));
        assert!(enumerates_domain(&program.rules));
        assert_eq!(
            active_domain_if_enumerated(&program, &instance),
            active_domain(&program, &instance)
        );
        assert_eq!(
            active_domain_if_enumerated(&program, &instance),
            vec![Value::Int(2), Value::Int(4)]
        );
    }
}
