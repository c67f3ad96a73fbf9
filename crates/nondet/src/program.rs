//! Compilation of nondeterministic programs (Definition 5.1) and the
//! immediate-successor relation (Definition 5.2).

use crate::NondetError;
use std::ops::ControlFlow;
use unchained_common::{Instance, Symbol, Tuple, Value};
use unchained_core::exec::{for_each_match, IndexCache, Sources};
use unchained_core::ir::Plan;
use unchained_core::planner::plan_body;
use unchained_core::subst::{active_domain, instantiate, term_value};
use unchained_parser::{check_positively_bound, features, HeadLiteral, Literal, Program, Var};

/// One instantiated head operation of a rule firing.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum HeadOp {
    /// Insert the fact.
    Insert(Symbol, Tuple),
    /// Delete the fact.
    Delete(Symbol, Tuple),
    /// Derive `⊥`: the computation is abandoned (N-Datalog¬⊥).
    Bottom,
}

/// A candidate firing: one rule instantiation applicable in the current
/// state, reduced to its head operations and (for choice rules) the
/// new choice commitments it makes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Firing {
    /// Index of the fired rule in the program.
    pub rule: usize,
    /// Instantiated head operations.
    pub ops: Vec<HeadOp>,
    /// Newly committed choice pairs: `(rule, constraint, key, value)`.
    pub choices: Vec<(u32, u32, Tuple, Tuple)>,
}

/// The accumulated choice commitments of a computation: for each
/// `(rule, constraint)` pair, the chosen partial function from key
/// tuples to value tuples (the LDL choice semantics: once a pair is
/// chosen it is fixed for the rest of the computation).
pub type ChoiceMaps =
    std::collections::BTreeMap<(u32, u32), std::collections::BTreeMap<Tuple, Tuple>>;

/// A state of a nondeterministic computation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct State {
    /// The facts.
    pub instance: Instance,
    /// Whether `⊥` has been derived on the way to this state.
    pub bottom: bool,
    /// Committed choice pairs (empty for choice-free programs).
    pub choices: ChoiceMaps,
}

impl State {
    /// Initial state for an input instance.
    pub fn initial(instance: Instance) -> Self {
        State {
            instance,
            bottom: false,
            choices: ChoiceMaps::new(),
        }
    }

    /// Fingerprint for memoization (folds in the bottom flag and the
    /// choice commitments).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = self.instance.fingerprint() ^ if self.bottom { 0x5bd1_e995 } else { 0 };
        for ((rule, idx), map) in &self.choices {
            for (k, v) in map {
                fp ^= unchained_common::hash::hash_one(&(rule, idx, k, v));
            }
        }
        fp
    }
}

struct CompiledRule {
    /// Plan over the literals without universally quantified variables.
    plan: Plan,
    /// Literals that mention a `forall` variable (checked universally).
    universal: Vec<Literal>,
    /// The rule's `forall` variables.
    forall: Vec<Var>,
    /// Head template.
    head: Vec<HeadLiteral>,
    /// Variables occurring in the head but not the body (N-Datalog¬new).
    invented: Vec<Var>,
    /// Choice constraints `(key terms, value terms)` of the rule.
    choices: Vec<(Vec<unchained_parser::Term>, Vec<unchained_parser::Term>)>,
}

/// A compiled nondeterministic program.
pub struct NondetProgram<'p> {
    /// The source program.
    pub program: &'p Program,
    rules: Vec<CompiledRule>,
    /// Whether any rule invents values.
    pub has_invention: bool,
}

impl<'p> NondetProgram<'p> {
    /// Compiles `program`, checking Definition 5.1's conditions: head
    /// variables positively bound (invented variables exempt iff
    /// `allow_invention`), `forall` variables confined to bodies.
    pub fn compile(program: &'p Program, allow_invention: bool) -> Result<Self, NondetError> {
        check_positively_bound(program, allow_invention)
            .map_err(unchained_core::EvalError::Analysis)?;
        let feats = features(program);
        if feats.invention && !allow_invention {
            return Err(NondetError::Eval(unchained_core::EvalError::Analysis(
                unchained_parser::AnalysisError::UnrestrictedHeadVar {
                    rule: 0,
                    var: "<invented>".into(),
                },
            )));
        }
        for (idx, rule) in program.rules.iter().enumerate() {
            for lit in &rule.body {
                if let Literal::Choice(..) = lit {
                    if lit.vars().iter().any(|v| rule.forall.contains(v)) {
                        return Err(NondetError::ChoiceInUniversalScope { rule: idx });
                    }
                }
            }
        }
        let rules = program
            .rules
            .iter()
            .map(|rule| {
                let forall: Vec<Var> = rule.forall.clone();
                let is_universal = |lit: &Literal| lit.vars().iter().any(|v| forall.contains(v));
                let planned: Vec<&Literal> = rule
                    .body
                    .iter()
                    .filter(|l| !is_universal(l) && !matches!(l, Literal::Choice(..)))
                    .collect();
                let universal: Vec<Literal> = rule
                    .body
                    .iter()
                    .filter(|l| is_universal(l) && !matches!(l, Literal::Choice(..)))
                    .cloned()
                    .collect();
                let choices: Vec<(Vec<unchained_parser::Term>, Vec<unchained_parser::Term>)> = rule
                    .body
                    .iter()
                    .filter_map(|l| match l {
                        Literal::Choice(k, v) => Some((k.clone(), v.clone())),
                        _ => None,
                    })
                    .collect();
                // The candidate enumeration must bind every non-forall
                // body variable plus every (non-invented) head variable.
                let mut vars: Vec<Var> = rule
                    .body_vars()
                    .into_iter()
                    .filter(|v| !forall.contains(v))
                    .collect();
                vars.sort_unstable();
                vars.dedup();
                let plan = plan_body(rule, &planned, &vars);
                CompiledRule {
                    plan,
                    universal,
                    forall,
                    head: rule.head.clone(),
                    invented: rule.invented_vars(),
                    choices,
                }
            })
            .collect();
        Ok(NondetProgram {
            program,
            rules,
            has_invention: feats.invention,
        })
    }

    /// Enumerates the applicable firings in `state` (Definition 5.1's
    /// conditions (i)–(iii)), deduplicated by head operations. The
    /// `fresh` counter supplies invented values for N-Datalog¬new rules.
    pub fn firings(&self, state: &State, fresh: &mut u64) -> Vec<Firing> {
        let adom = active_domain(self.program, &state.instance);
        let mut cache = IndexCache::new();
        let mut out: Vec<Firing> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut seen: unchained_common::FxHashSet<(
            Vec<HeadOp>,
            Vec<(u32, u32, Tuple, Tuple)>,
        )> = unchained_common::FxHashSet::default();
        for (ridx, rule) in self.rules.iter().enumerate() {
            let _ = for_each_match(
                &rule.plan,
                Sources::simple(&state.instance),
                &adom,
                &mut cache,
                &mut |env| {
                    // Universal part: every extension of the forall vars
                    // over adom must satisfy the universal literals.
                    if !universal_holds(
                        &rule.universal,
                        &rule.forall,
                        &state.instance,
                        &adom,
                        &mut env.clone(),
                        0,
                    ) {
                        return ControlFlow::Continue(());
                    }
                    // Choice admissibility (LDL semantics): each
                    // constraint's committed map may not be contradicted;
                    // new pairs are recorded by the firing.
                    let mut choice_records: Vec<(u32, u32, Tuple, Tuple)> = Vec::new();
                    for (cidx, (key_terms, val_terms)) in rule.choices.iter().enumerate() {
                        let key: Tuple = key_terms.iter().map(|t| term_value(t, env)).collect();
                        let val: Tuple = val_terms.iter().map(|t| term_value(t, env)).collect();
                        let slot = (ridx as u32, cidx as u32);
                        match state.choices.get(&slot).and_then(|m| m.get(&key)) {
                            Some(committed) if *committed != val => {
                                return ControlFlow::Continue(());
                            }
                            Some(_) => {}
                            None => choice_records.push((slot.0, slot.1, key, val)),
                        }
                    }
                    // Extend with invented values if needed. We key
                    // dedup on ops *before* minting fresh values so two
                    // isomorphic firings are not double-counted; the
                    // values are only allocated when the firing is new.
                    let mut env = env.clone();
                    let mut pending_fresh = *fresh;
                    for v in &rule.invented {
                        env[v.index()] = Some(Value::Invented(pending_fresh));
                        pending_fresh += 1;
                    }
                    // Instantiate head; condition (ii): consistent head.
                    let mut ops = Vec::with_capacity(rule.head.len());
                    for h in &rule.head {
                        match h {
                            HeadLiteral::Pos(a) => {
                                ops.push(HeadOp::Insert(a.pred, instantiate(&a.args, &env)))
                            }
                            HeadLiteral::Neg(a) => {
                                ops.push(HeadOp::Delete(a.pred, instantiate(&a.args, &env)))
                            }
                            HeadLiteral::Bottom => ops.push(HeadOp::Bottom),
                        }
                    }
                    ops.sort_unstable();
                    ops.dedup();
                    let consistent = !ops.iter().any(|op| match op {
                        HeadOp::Insert(p, t) => ops.contains(&HeadOp::Delete(*p, t.clone())),
                        _ => false,
                    });
                    let dedup_key = (ops.clone(), choice_records.clone());
                    if consistent && seen.insert(dedup_key) {
                        if !rule.invented.is_empty() {
                            *fresh = pending_fresh;
                        }
                        out.push(Firing {
                            rule: ridx,
                            ops,
                            choices: choice_records,
                        });
                    }
                    ControlFlow::Continue(())
                },
            );
        }
        out
    }

    /// Applies a firing to a state, producing the immediate successor.
    pub fn apply(&self, state: &State, firing: &Firing) -> State {
        let mut next = state.clone();
        for op in &firing.ops {
            match op {
                HeadOp::Delete(pred, tuple) => {
                    if let Some(rel) = next.instance.relation_mut(*pred) {
                        rel.remove(tuple);
                    }
                }
                HeadOp::Insert(..) | HeadOp::Bottom => {}
            }
        }
        for op in &firing.ops {
            match op {
                HeadOp::Insert(pred, tuple) => {
                    next.instance.insert_fact(*pred, tuple.clone());
                }
                HeadOp::Bottom => next.bottom = true,
                HeadOp::Delete(..) => {}
            }
        }
        for (rule, cidx, key, val) in &firing.choices {
            next.choices
                .entry((*rule, *cidx))
                .or_default()
                .insert(key.clone(), val.clone());
        }
        next
    }

    /// The immediate successors of `state` that differ from it
    /// (Definition 5.2's condition (ii) makes states with no such
    /// successor terminal). Deduplicated. A firing that only commits a
    /// choice changes the state too: [`states_equal`] counts choices,
    /// and a run takes that step. States are compared by
    /// [`State::fingerprint`] first, so the deep comparison runs only
    /// between states whose fingerprints match.
    pub fn successors(&self, state: &State, fresh: &mut u64) -> Vec<State> {
        let own = state.fingerprint();
        let mut out: Vec<(u64, State)> = Vec::new();
        for firing in self.firings(state, fresh) {
            let next = self.apply(state, &firing);
            let fp = next.fingerprint();
            let same = |f: u64, s: &State| f == fp && states_equal(s, &next);
            if !same(own, state) && !out.iter().any(|(f, s)| same(*f, s)) {
                out.push((fp, next));
            }
        }
        out.into_iter().map(|(_, s)| s).collect()
    }
}

/// Structural state equality (facts + bottom flag + choice
/// commitments).
pub fn states_equal(a: &State, b: &State) -> bool {
    a.bottom == b.bottom && a.choices == b.choices && a.instance.same_facts(&b.instance)
}

fn universal_holds(
    literals: &[Literal],
    forall: &[Var],
    instance: &Instance,
    adom: &[Value],
    env: &mut Vec<Option<Value>>,
    depth: usize,
) -> bool {
    if depth == forall.len() {
        return literals.iter().all(|lit| literal_holds(lit, instance, env));
    }
    let var = forall[depth];
    for &value in adom {
        env[var.index()] = Some(value);
        if !universal_holds(literals, forall, instance, adom, env, depth + 1) {
            env[var.index()] = None;
            return false;
        }
    }
    env[var.index()] = None;
    true
}

fn literal_holds(lit: &Literal, instance: &Instance, env: &Vec<Option<Value>>) -> bool {
    match lit {
        Literal::Pos(a) => {
            let tuple: Tuple = a.args.iter().map(|t| term_value(t, env)).collect();
            instance
                .relation(a.pred)
                .is_some_and(|r| r.contains(&tuple))
        }
        Literal::Neg(a) => {
            let tuple: Tuple = a.args.iter().map(|t| term_value(t, env)).collect();
            !instance
                .relation(a.pred)
                .is_some_and(|r| r.contains(&tuple))
        }
        Literal::Eq(l, r) => term_value(l, env) == term_value(r, env),
        Literal::Neq(l, r) => term_value(l, env) != term_value(r, env),
        Literal::Choice(..) => {
            unreachable!("choice constraints never appear in the universal part")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;
    use unchained_parser::parse_program;

    fn orientation_setup() -> (Interner, Program, Instance) {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        let v = Value::Int;
        for (a, b) in [(1, 2), (2, 1)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
        }
        (i, program, input)
    }

    #[test]
    fn firings_enumerated_and_deduped() {
        let (_, program, input) = orientation_setup();
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let state = State::initial(input);
        let mut fresh = 0;
        let firings = compiled.firings(&state, &mut fresh);
        // Two instantiations: delete (1,2) or delete (2,1).
        assert_eq!(firings.len(), 2);
    }

    #[test]
    fn apply_deletes_one_edge() {
        let (i, program, input) = orientation_setup();
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let state = State::initial(input);
        let mut fresh = 0;
        let firings = compiled.firings(&state, &mut fresh);
        let next = compiled.apply(&state, &firings[0]);
        let g = i.get("G").unwrap();
        assert_eq!(next.instance.relation(g).unwrap().len(), 1);
    }

    #[test]
    fn successors_exclude_no_ops() {
        // A rule that re-asserts an existing fact produces J = I only.
        let mut i = Interner::new();
        let program = parse_program("A(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut input = Instance::new();
        input.insert_fact(a, Tuple::from([Value::Int(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut fresh = 0;
        let succ = compiled.successors(&State::initial(input), &mut fresh);
        assert!(succ.is_empty(), "re-assertion must not be a successor ≠ J");
    }

    /// Successors are the distinct changed states in the order their
    /// first firing comes: two of the three firings of `A(x) :- B(x,y)`
    /// reach the same state, which is kept once, at its first firing.
    #[test]
    fn successors_are_distinct_in_firing_order() {
        let mut i = Interner::new();
        let program = parse_program("A(x) :- B(x,y).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        for (x, y) in [(1, 1), (1, 2), (2, 1)] {
            input.insert_fact(b, Tuple::from([Value::Int(x), Value::Int(y)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let state = State::initial(input);
        let mut want: Vec<State> = Vec::new();
        for firing in compiled.firings(&state, &mut 0) {
            let next = compiled.apply(&state, &firing);
            if !want.iter().any(|s| states_equal(s, &next)) {
                want.push(next);
            }
        }
        let succ = compiled.successors(&state, &mut 0);
        assert_eq!(succ.len(), 2);
        assert!(succ.iter().zip(&want).all(|(s, w)| states_equal(s, w)));
    }

    /// A firing that derives no new fact but commits a new choice is a
    /// successor: after x=2 ↦ y=3 derives I2(3), the firing x=3 ↦ y=3
    /// only commits its choice, and eff(P) must still reach that state.
    #[test]
    fn successors_include_choice_only_commitments() {
        let mut i = Interner::new();
        let program = parse_program("I2(y) :- E0(y), choice((x), (y)).", &mut i).unwrap();
        let (e0, i2) = (i.get("E0").unwrap(), i.get("I2").unwrap());
        let mut input = Instance::new();
        for v in [2, 3] {
            input.insert_fact(e0, Tuple::from([Value::Int(v)]));
        }
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut fresh = 0;
        let three = Tuple::from([Value::Int(3)]);
        let first = compiled
            .successors(&State::initial(input), &mut fresh)
            .into_iter()
            .find(|s| s.instance.contains_fact(i2, &three) && s.instance.fact_count() == 3)
            .expect("some firing derives I2(3) alone");
        let succ = compiled.successors(&first, &mut fresh);
        assert!(
            succ.iter()
                .any(|s| s.instance.same_facts(&first.instance) && s.choices != first.choices),
            "a choice-only commitment is a successor"
        );
    }

    #[test]
    fn inconsistent_heads_skipped() {
        // A(x), !A(x) in one head is inconsistent for every valuation.
        let mut i = Interner::new();
        let program = parse_program("A(x), !A(x) :- B(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut fresh = 0;
        assert!(compiled
            .firings(&State::initial(input), &mut fresh)
            .is_empty());
    }

    #[test]
    fn bottom_firing_flags_state() {
        let mut i = Interner::new();
        let program = parse_program("bottom :- B(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let state = State::initial(input);
        let mut fresh = 0;
        let succ = compiled.successors(&state, &mut fresh);
        assert_eq!(succ.len(), 1);
        assert!(succ[0].bottom);
    }

    #[test]
    fn forall_rule_checks_all_extensions() {
        // Example 5.5: answer(x) :- forall y : P(x), !Q(x,y).
        let mut i = Interner::new();
        let program = parse_program("answer(x) :- forall y : P(x), !Q(x,y).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let q = i.get("Q").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        for k in [1, 2] {
            input.insert_fact(p, Tuple::from([v(k)]));
        }
        input.insert_fact(q, Tuple::from([v(1), v(2)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let mut fresh = 0;
        let firings = compiled.firings(&State::initial(input), &mut fresh);
        // Only x = 2 passes (Q(1,2) falsifies x = 1 at y = 2).
        assert_eq!(firings.len(), 1);
        assert_eq!(
            firings[0].ops,
            vec![HeadOp::Insert(
                i.get("answer").unwrap(),
                Tuple::from([v(2)])
            )]
        );
    }

    #[test]
    fn compile_rejects_unbound_head_vars() {
        let mut i = Interner::new();
        let program = parse_program("A(x) :- !B(x).", &mut i).unwrap();
        assert!(NondetProgram::compile(&program, false).is_err());
    }

    #[test]
    fn invention_requires_flag() {
        let mut i = Interner::new();
        let program = parse_program("A(n, x) :- B(x).", &mut i).unwrap();
        assert!(NondetProgram::compile(&program, false).is_err());
        let compiled = NondetProgram::compile(&program, true).unwrap();
        assert!(compiled.has_invention);
    }

    #[test]
    fn invention_mints_fresh_values_per_firing() {
        let mut i = Interner::new();
        let program = parse_program("A(n, x) :- B(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        input.insert_fact(b, Tuple::from([Value::Int(2)]));
        let compiled = NondetProgram::compile(&program, true).unwrap();
        let mut fresh = 0;
        let firings = compiled.firings(&State::initial(input), &mut fresh);
        assert_eq!(firings.len(), 2);
        assert_eq!(fresh, 2);
    }
}
