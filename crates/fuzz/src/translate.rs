//! Datalog(¬) → *fixpoint* (while-language) translation.
//!
//! The constructive side of Theorem 4.2: a stratified Datalog¬ program
//! becomes one `while change do` loop per stratum, whose body
//! cumulatively assigns each idb predicate of that stratum the FO
//! comprehension of its rules,
//!
//! ```text
//! P += { ō | ⋁_rules ∃ x̄ ( ⋀_j ō_j = head_j ∧ ⋀ body literals ) }
//! ```
//!
//! The while interpreter evaluates over `adom(input) ∪ constants(P)` —
//! exactly the engines' active domain — so the fixpoint program is an
//! *independent* implementation of the same query, sharing none of the
//! rule-planning/join machinery the engine family is built on. That
//! makes it the fuzzer's reference oracle: a bug in the planner
//! (`core::planner`) or executor (`core::exec`) has no counterpart
//! here.

use unchained_common::Symbol;
use unchained_fo::{FoTerm, FoVar, Formula};
use unchained_parser::{DependencyGraph, HeadLiteral, Literal, Program, Rule, Term};
use unchained_while::{Assignment, LoopCondition, Stmt, WhileProgram};

/// Translates a stratified Datalog¬ program into an equivalent
/// fixpoint-language program. Returns `None` for programs outside the
/// translatable fragment: multi-literal or negative heads, `forall`,
/// `choice`, value invention, or unstratifiable negation.
pub fn to_while(program: &Program) -> Option<WhileProgram> {
    for rule in &program.rules {
        if rule.head.len() != 1 || !rule.forall.is_empty() || !rule.invented_vars().is_empty() {
            return None;
        }
        if !matches!(rule.head[0], HeadLiteral::Pos(_)) {
            return None;
        }
        if rule.body.iter().any(|l| matches!(l, Literal::Choice(..))) {
            return None;
        }
    }
    let strat = DependencyGraph::build(program).stratify().ok()?;
    let schema = program.schema().ok()?;
    let partition = strat.partition_rules(program);

    let mut stmts = Vec::new();
    for stratum in partition {
        let stratum_rules: Vec<&Rule> = stratum.iter().map(|&ri| &program.rules[ri]).collect();
        if stratum_rules.is_empty() {
            continue;
        }
        // Group the stratum's rules by head predicate, in symbol order
        // for determinism.
        let mut preds: Vec<Symbol> = stratum_rules
            .iter()
            .filter_map(|r| r.head[0].atom())
            .map(|a| a.pred)
            .collect();
        preds.sort_unstable();
        preds.dedup();

        let mut body = Vec::new();
        for pred in preds {
            let arity = schema.arity(pred)?;
            let out: Vec<FoVar> = (0..arity).map(|i| FoVar(i as u32)).collect();
            let branches: Vec<Formula> = stratum_rules
                .iter()
                .filter(|r| r.head[0].atom().map(|a| a.pred) == Some(pred))
                .map(|r| rule_branch(r, &out))
                .collect();
            body.push(Stmt::Assign {
                target: pred,
                vars: out,
                formula: Formula::Or(branches),
                mode: Assignment::Cumulate,
            });
        }
        stmts.push(Stmt::While {
            condition: LoopCondition::Change,
            body,
        });
    }
    Some(WhileProgram::new(stmts))
}

/// One rule as a disjunct: `∃ x̄ (ō = head ∧ body)`, with the rule's
/// variables shifted past the output variables.
fn rule_branch(rule: &Rule, out: &[FoVar]) -> Formula {
    let shift = out.len() as u32;
    let fo = |t: &Term| match t {
        Term::Var(v) => FoTerm::Var(FoVar(v.0 + shift)),
        Term::Const(c) => FoTerm::Const(*c),
    };
    let head = rule.head[0].atom().expect("checked positive head");
    let mut conjuncts: Vec<Formula> = head
        .args
        .iter()
        .zip(out)
        .map(|(arg, o)| Formula::Eq(FoTerm::Var(*o), fo(arg)))
        .collect();
    for lit in &rule.body {
        conjuncts.push(match lit {
            Literal::Pos(a) => Formula::Atom(a.pred, a.args.iter().map(fo).collect()),
            Literal::Neg(a) => Formula::Atom(a.pred, a.args.iter().map(fo).collect()).not(),
            Literal::Eq(s, t) => Formula::Eq(fo(s), fo(t)),
            Literal::Neq(s, t) => Formula::Eq(fo(s), fo(t)).not(),
            Literal::Choice(..) => unreachable!("checked above"),
        });
    }
    let bound: Vec<FoVar> = (0..rule.var_count() as u32)
        .map(|i| FoVar(i + shift))
        .collect();
    Formula::exists(bound, Formula::And(conjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Instance, Interner, Tuple, Value};
    use unchained_core::{seminaive, stratified, EvalOptions};
    use unchained_parser::parse_program;

    fn chain(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        inst.ensure(g, 2);
        for k in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst
    }

    #[test]
    fn tc_translation_matches_seminaive() {
        let mut i = Interner::new();
        let p = parse_program("T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).", &mut i).unwrap();
        let input = chain(&mut i, 5);
        let engine = seminaive::minimum_model(&p, &input, EvalOptions::default())
            .unwrap()
            .answer(&p);
        let wp = to_while(&p).unwrap();
        assert!(wp.is_fixpoint());
        let run = unchained_while::run(&wp, &input, 10_000, None).unwrap();
        assert!(run.instance.project_schema(p.idb()).same_facts(&engine));
    }

    #[test]
    fn stratified_negation_translation_matches() {
        let mut i = Interner::new();
        // Complement-of-TC needs a vertex relation for range restriction.
        let p = parse_program(
            "T(x, y) :- G(x, y).\n\
             T(x, y) :- G(x, z), T(z, y).\n\
             V(x) :- G(x, y).\n\
             V(y) :- G(x, y).\n\
             CT(x, y) :- V(x), V(y), !T(x, y).",
            &mut i,
        )
        .unwrap();
        let input = chain(&mut i, 4);
        let engine = stratified::eval(&p, &input, EvalOptions::default())
            .unwrap()
            .answer(&p);
        let wp = to_while(&p).unwrap();
        let run = unchained_while::run(&wp, &input, 10_000, None).unwrap();
        assert!(run.instance.project_schema(p.idb()).same_facts(&engine));
    }

    #[test]
    fn untranslatable_fragments_are_rejected() {
        let mut i = Interner::new();
        let invention = parse_program("P(x, n) :- E(x).", &mut i).unwrap();
        assert!(to_while(&invention).is_none());
        let choice = parse_program("P(x) :- E(x, y), choice((x), (y)).", &mut i).unwrap();
        assert!(to_while(&choice).is_none());
        let unstratifiable = parse_program("P(x) :- E(x), !P(x).", &mut i).unwrap();
        assert!(to_while(&unstratifiable).is_none());
    }
}
