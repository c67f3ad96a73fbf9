//! Datalog¬new — value invention (Section 4.3).
//!
//! Variables that occur in a rule head but not in its body are valuated
//! *outside the current active domain*: each applicable body
//! instantiation is extended with **one** instantiation of the remaining
//! variables with distinct fresh values. The new values break the
//! polynomial "space barrier" of the other languages — with them the
//! language expresses *all* computable queries (Theorem 4.6), the proof
//! simulating a Turing machine on invented scratch space.
//!
//! ### Determinization
//! The paper notes the only nondeterminism is the identity of the fresh
//! values, and that a syntactic safety restriction (answers built only
//! from input values) makes the expressed query deterministic. We issue
//! fresh values from a counter and key them on `(rule, body valuation)`
//! — i.e. a Skolem-function reading, so re-firing the same body
//! instantiation at a later stage reuses its original invented values
//! instead of minting an endless stream. This keeps the inflationary
//! fixpoint semantics: without the memoization, *every* program with an
//! inventing rule whose body ever fires would diverge trivially. (See
//! DESIGN.md, "Substitutions".)
//!
//! Programs can still grow without bound through *chains* of inventions
//! (invented values enabling new body instantiations), which is exactly
//! the unbounded-space power the language is supposed to have. The
//! `max_stages` / `max_facts` budgets bound such runs.

use crate::error::EvalError;
use crate::fixpoint::{with_idb, Apply, Consequence, EvalScope, Fired, Stages};
use crate::options::EvalOptions;
use crate::require_language;
use crate::subst::Env;
use unchained_common::{FxHashSet, Instance, Value};
use unchained_parser::{check_range_restricted, features, HeadLiteral, Language, Program, Var};

/// Result of a Datalog¬new run: the fixpoint plus invention statistics.
#[derive(Clone, Debug)]
pub struct InventionRun {
    /// The fixpoint instance (may contain invented values).
    pub instance: Instance,
    /// Stages performed.
    pub stages: usize,
    /// Number of values invented.
    pub invented: u64,
}

impl InventionRun {
    /// The answer restricted to the idb, like [`FixpointRun::answer`].
    pub fn answer(&self, program: &Program) -> Instance {
        self.instance.project_schema(program.idb())
    }

    /// Checks the paper's *safety restriction*: the relation `answer`
    /// contains no invented values (then the query result is
    /// deterministic, independent of the choice of new values).
    pub fn is_safe_answer(&self, answer: unchained_common::Symbol) -> bool {
        self.instance
            .relation(answer)
            .is_none_or(|rel| rel.iter().all(|t| t.iter().all(|v| !v.is_invented())))
    }
}

/// Evaluates a Datalog¬new program under the inflationary semantics with
/// value invention.
///
/// # Errors
/// Rejects nondeterministic syntax and head negation; reports budget
/// exhaustion for unboundedly growing runs.
pub fn eval(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<InventionRun, EvalError> {
    require_language(program, Language::DatalogNegNew)?;
    if features(program).head_negation {
        return Err(EvalError::WrongLanguage {
            engine_accepts: Language::DatalogNegNew,
            found: Language::DatalogNegNeg,
        });
    }
    check_range_restricted(program, true)?;

    let mut invent = Invent {
        invented_vars: program.rules.iter().map(|r| r.invented_vars()).collect(),
        body_vars: program.rules.iter().map(|r| r.body_vars()).collect(),
        memo: program.rules.iter().map(|_| FxHashSet::default()).collect(),
        next_fresh: 0,
        in_adom: 0,
        fired: Fired::default(),
    };
    let mut instance = with_idb(program, input)?;
    let scope = EvalScope::begin(&options, "invention");
    let result = Stages::new(program, input, &options).run(&mut instance, None, &mut invent);
    let stages = scope.end(&instance, result)?;
    Ok(InventionRun {
        instance,
        stages,
        invented: invent.next_fresh,
    })
}

/// Insert the fired facts, extending each body valuation of an
/// inventing rule with fresh values — once per `(rule, body
/// valuation)`, the Skolem reading.
struct Invent {
    invented_vars: Vec<Vec<Var>>,
    body_vars: Vec<Vec<Var>>,
    /// Skolem memo: one entry per (rule, body valuation) that has fired.
    memo: Vec<FxHashSet<Box<[Value]>>>,
    next_fresh: u64,
    /// Minted values already added to the active domain.
    in_adom: u64,
    fired: Fired,
}

impl Consequence for Invent {
    fn fire(&mut self, rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let HeadLiteral::Pos(head) = head else {
            unreachable!("head negation rejected above")
        };
        let invented = &self.invented_vars[rule];
        if invented.is_empty() {
            self.fired.push_new(head.pred, &head.args, env, instance);
            return;
        }
        let key: Box<[Value]> = self.body_vars[rule]
            .iter()
            .map(|v| env[v.index()].expect("body var bound"))
            .collect();
        if !self.memo[rule].insert(key) {
            return;
        }
        // Extend the valuation with distinct fresh values.
        let mut extended = env.clone();
        for v in invented {
            extended[v.index()] = Some(Value::Invented(self.next_fresh));
            self.next_fresh += 1;
        }
        self.fired.push(head.pred, &head.args, &extended);
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        self.fired.apply(stage, |_, _, _| {})?;
        // Every value minted this stage now occurs in an inserted fact,
        // and a stage adds no other new value, so extending the domain
        // by the minted values equals recomputing it from the instance.
        // `Invented` sorts last and the counter only grows, so each
        // lands at the end.
        for n in self.in_adom..self.next_fresh {
            let v = Value::Invented(n);
            if let Err(at) = stage.adom.binary_search(&v) {
                stage.adom.insert(at, v);
            }
        }
        self.in_adom = self.next_fresh;
        stage.tracer.raise("invented", self.next_fresh);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple};
    use unchained_parser::parse_program;

    #[test]
    fn invents_one_value_per_body_instantiation() {
        // Pair every edge with a fresh edge-object.
        let mut i = Interner::new();
        let program = parse_program("EdgeObj(e, x, y) :- G(x,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        let v = Value::Int;
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(3)]));
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        assert_eq!(run.invented, 2);
        let eo = i.get("EdgeObj").unwrap();
        let rel = run.instance.relation(eo).unwrap();
        assert_eq!(rel.len(), 2);
        // All first components are distinct invented values.
        let ids: FxHashSet<Value> = rel.iter().map(|t| t[0]).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|v| v.is_invented()));
    }

    #[test]
    fn refire_does_not_mint_new_values() {
        // The body stays satisfiable forever; without Skolem memoization
        // this would never terminate.
        let mut i = Interner::new();
        let program = parse_program("Tag(n, x) :- P(x).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let mut input = Instance::new();
        input.insert_fact(p, Tuple::from([Value::Int(7)]));
        let run = eval(
            &program,
            &input,
            EvalOptions::default().with_max_stages(100),
        )
        .unwrap();
        assert_eq!(run.invented, 1);
        let tag = i.get("Tag").unwrap();
        assert_eq!(run.instance.relation(tag).unwrap().len(), 1);
    }

    #[test]
    fn multiple_invented_vars_are_distinct() {
        let mut i = Interner::new();
        let program = parse_program("Pair(a, b, x) :- P(x).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let mut input = Instance::new();
        input.insert_fact(p, Tuple::from([Value::Int(1)]));
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        let pair = i.get("Pair").unwrap();
        let t = run.instance.relation(pair).unwrap().sorted()[0].clone();
        assert!(t[0].is_invented() && t[1].is_invented());
        assert_ne!(t[0], t[1]);
    }

    #[test]
    fn unbounded_chain_hits_budget() {
        // Each invented value re-enables the rule: an unbounded chain
        // Succ(fresh, last). This is the pspace-barrier-breaking power —
        // and must be stopped by the budget.
        let mut i = Interner::new();
        let program = parse_program(
            "Chain(n, x) :- Start(x).\n\
             Chain(n2, n) :- Chain(n, x).",
            &mut i,
        )
        .unwrap();
        let start = i.get("Start").unwrap();
        let mut input = Instance::new();
        input.insert_fact(start, Tuple::from([Value::Int(0)]));
        let err = eval(&program, &input, EvalOptions::default().with_max_stages(50)).unwrap_err();
        assert!(matches!(
            err,
            EvalError::StageLimitExceeded(_) | EvalError::FactLimitExceeded(_)
        ));
        let err = eval(&program, &input, EvalOptions::default().with_max_facts(40)).unwrap_err();
        assert!(matches!(err, EvalError::FactLimitExceeded(_)));
    }

    #[test]
    fn plain_datalog_neg_runs_unchanged() {
        // Datalog¬ ⊆ Datalog¬new: no invention, same result as the
        // inflationary engine.
        let mut i = Interner::new();
        let program = parse_program(
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y), V(x), V(y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let vsym = i.get("V").unwrap();
        let mut input = Instance::new();
        for k in 0..3i64 {
            input.insert_fact(vsym, Tuple::from([Value::Int(k)]));
        }
        input.insert_fact(g, Tuple::from([Value::Int(0), Value::Int(1)]));
        let a = eval(&program, &input, EvalOptions::default()).unwrap();
        let b = crate::inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
        assert_eq!(a.invented, 0);
    }

    #[test]
    fn safety_check_detects_invented_answers() {
        let mut i = Interner::new();
        let program = parse_program("A(n, x) :- P(x). B(x) :- P(x).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let mut input = Instance::new();
        input.insert_fact(p, Tuple::from([Value::Int(1)]));
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(!run.is_safe_answer(i.get("A").unwrap()));
        assert!(run.is_safe_answer(i.get("B").unwrap()));
        assert!(run.is_safe_answer(i.intern("missing")));
    }

    #[test]
    fn invented_values_participate_in_joins() {
        // Invented object ids can be dereferenced by later rules.
        let mut i = Interner::new();
        let program = parse_program(
            "EdgeObj(e, x, y) :- G(x,y).\n\
             Src(e, x) :- EdgeObj(e, x, y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        let src = i.get("Src").unwrap();
        let rel = run.instance.relation(src).unwrap();
        assert_eq!(rel.len(), 1);
        let t = rel.sorted()[0].clone();
        assert!(t[0].is_invented());
        assert_eq!(t[1], Value::Int(1));
    }
}
