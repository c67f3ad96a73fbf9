//! Why-provenance for positive Datalog: record, for every derived
//! fact, the rule and premise facts of its first derivation, and
//! explain answers as derivation trees.
//!
//! Deductive databases justify their answers — the "deduction" in the
//! name (Section 3.1). This module instruments the naive engine to keep
//! one witness derivation per fact (why-provenance in the
//! minimal-witness sense); because a fact's premises were present
//! *before* the fact was first inserted, the recorded graph is acyclic
//! and [`explain`] always terminates.

use crate::error::EvalError;
use crate::fixpoint::{self, Apply, Consequence};
use crate::options::EvalOptions;
use crate::require_language;
use crate::subst::{instantiate, Env};
use unchained_common::{FxHashMap, Instance, Interner, Symbol, Tuple};
use unchained_parser::{check_range_restricted, Atom, HeadLiteral, Language, Literal, Program};

/// One recorded derivation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the rule that fired.
    pub rule: usize,
    /// The instantiated positive body atoms used as premises.
    pub premises: Vec<(Symbol, Tuple)>,
}

/// A fixpoint run with provenance.
#[derive(Clone, Debug)]
pub struct ProvenanceRun {
    /// The minimum model (input included).
    pub instance: Instance,
    /// Stages performed.
    pub stages: usize,
    /// First derivation of every *derived* fact (input facts absent).
    pub why: FxHashMap<(Symbol, Tuple), Derivation>,
}

impl ProvenanceRun {
    /// The derivation of a fact, if it was derived (rather than given).
    pub fn derivation(&self, pred: Symbol, tuple: &Tuple) -> Option<&Derivation> {
        self.why.get(&(pred, tuple.clone()))
    }
}

/// Computes the minimum model of a positive Datalog program while
/// recording one derivation per derived fact.
///
/// ```
/// use unchained_common::{Instance, Interner, Tuple, Value};
/// use unchained_core::provenance::{explain, minimum_model_with_provenance};
/// use unchained_core::EvalOptions;
/// use unchained_parser::parse_program;
///
/// let mut interner = Interner::new();
/// let program = parse_program(
///     "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
///     &mut interner,
/// ).unwrap();
/// let g = interner.get("G").unwrap();
/// let t = interner.get("T").unwrap();
/// let mut input = Instance::new();
/// input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
/// input.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));
/// let run = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
/// let tree = explain(&run, t, &Tuple::from([Value::Int(1), Value::Int(3)]), &interner);
/// assert!(tree.contains("(given)"));
/// ```
pub fn minimum_model_with_provenance(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<ProvenanceRun, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;

    // Premise templates: the positive body atoms of each rule, in body
    // order.
    let templates = program
        .rules
        .iter()
        .map(|r| {
            r.body
                .iter()
                .filter_map(|l| match l {
                    Literal::Pos(a) => Some(a),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut derive = Derive {
        templates,
        pending: Vec::new(),
        why: FxHashMap::default(),
    };
    let run = fixpoint::eval(program, input, &options, "provenance", &mut derive)?;
    Ok(ProvenanceRun {
        instance: run.instance,
        stages: run.stages,
        why: derive.why,
    })
}

/// Insert the fired facts, keeping the first derivation of each.
struct Derive<'p> {
    templates: Vec<Vec<&'p Atom>>,
    pending: Vec<(Symbol, Tuple, Derivation)>,
    why: FxHashMap<(Symbol, Tuple), Derivation>,
}

impl Consequence for Derive<'_> {
    fn fire(&mut self, rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let HeadLiteral::Pos(head) = head else {
            unreachable!("pure Datalog heads are positive")
        };
        let tuple = instantiate(&head.args, env);
        if !instance.contains_fact(head.pred, &tuple) {
            let premises = self.templates[rule]
                .iter()
                .map(|a| (a.pred, instantiate(&a.args, env)))
                .collect();
            self.pending
                .push((head.pred, tuple, Derivation { rule, premises }));
        }
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        for (pred, tuple, derivation) in self.pending.drain(..) {
            if stage.insert(pred, &tuple)? {
                self.why.entry((pred, tuple)).or_insert(derivation);
            }
        }
        Ok(())
    }
}

/// Renders the derivation tree of `pred(tuple)` as indented text.
/// Input facts print as `⊢ fact (given)`; derived facts list their
/// rule and recurse into the premises.
pub fn explain(run: &ProvenanceRun, pred: Symbol, tuple: &Tuple, interner: &Interner) -> String {
    fn fact_str(pred: Symbol, tuple: &Tuple, interner: &Interner) -> String {
        if tuple.arity() == 0 {
            interner.name(pred).to_string()
        } else {
            format!("{}{}", interner.name(pred), tuple.display(interner))
        }
    }
    fn rec(
        run: &ProvenanceRun,
        pred: Symbol,
        tuple: &Tuple,
        interner: &Interner,
        indent: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match run.derivation(pred, tuple) {
            None => {
                if run.instance.contains_fact(pred, tuple) {
                    out.push_str(&format!(
                        "{pad}⊢ {} (given)\n",
                        fact_str(pred, tuple, interner)
                    ));
                } else {
                    out.push_str(&format!(
                        "{pad}✗ {} (not derivable)\n",
                        fact_str(pred, tuple, interner)
                    ));
                }
            }
            Some(d) => {
                out.push_str(&format!(
                    "{pad}⊢ {} (rule {})\n",
                    fact_str(pred, tuple, interner),
                    d.rule
                ));
                for (p, t) in &d.premises {
                    rec(run, *p, t, interner, indent + 1, out);
                }
            }
        }
    }
    let mut out = String::new();
    rec(run, pred, tuple, interner, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Value;
    use unchained_parser::parse_program;

    fn setup() -> (Interner, Program, Instance) {
        let mut i = Interner::new();
        let program =
            parse_program("T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        for k in 0..4i64 {
            input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        (i, program, input)
    }

    #[test]
    fn provenance_agrees_with_plain_evaluation() {
        let (_, program, input) = setup();
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let plain =
            crate::seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(prov.instance.same_facts(&plain.instance));
    }

    #[test]
    fn every_derived_fact_has_a_derivation_over_present_facts() {
        let (mut i, program, input) = setup();
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let rel = prov.instance.relation(t).unwrap();
        assert_eq!(rel.len(), 10);
        for tuple in rel.iter() {
            let d = prov
                .derivation(t, &tuple.to_tuple())
                .expect("derived fact has provenance");
            for (p, prem) in &d.premises {
                assert!(prov.instance.contains_fact(*p, prem));
            }
        }
    }

    #[test]
    fn explain_renders_a_tree_down_to_given_facts() {
        let (i, program, input) = setup();
        let t = i.get("T").unwrap();
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let tree = explain(&prov, t, &Tuple::from([Value::Int(0), Value::Int(3)]), &i);
        // The tree bottoms out in given G facts and derives through T.
        assert!(tree.contains("⊢ T(0, 3) (rule 1)"), "{tree}");
        assert!(tree.contains("(given)"), "{tree}");
        // Distance-3 fact: at least three G premises appear.
        assert_eq!(tree.matches("(given)").count(), 3, "{tree}");
    }

    #[test]
    fn explain_handles_underivable_and_input_facts() {
        let (mut i, program, input) = setup();
        let g = i.intern("G");
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let given = explain(&prov, g, &Tuple::from([Value::Int(0), Value::Int(1)]), &i);
        assert!(given.contains("(given)"));
        let missing = explain(&prov, t, &Tuple::from([Value::Int(3), Value::Int(0)]), &i);
        assert!(missing.contains("not derivable"));
    }

    #[test]
    fn first_derivation_uses_shortest_expansion() {
        // The base rule (rule 0) derives distance-1 pairs; recursion
        // builds on them. The first recorded derivation of T(0,1) is
        // via rule 0, not a longer one.
        let (mut i, program, input) = setup();
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let d = prov
            .derivation(t, &Tuple::from([Value::Int(0), Value::Int(1)]))
            .unwrap();
        assert_eq!(d.rule, 0);
        assert_eq!(d.premises.len(), 1);
    }

    #[test]
    fn rejects_non_datalog() {
        let mut i = Interner::new();
        let program = parse_program("A(x) :- B(x), !C(x).", &mut i).unwrap();
        assert!(matches!(
            minimum_model_with_provenance(&program, &Instance::new(), EvalOptions::default()),
            Err(EvalError::WrongLanguage { .. })
        ));
    }
}
