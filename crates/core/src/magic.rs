//! Magic-sets rewriting for positive Datalog.
//!
//! Section 3.1 of the paper notes that "most of the optimization
//! techniques in deductive databases have been developed around
//! Datalog"; magic sets (Bancilhon–Maier–Sagiv–Ullman / Beeri–
//! Ramakrishnan) is the canonical one. Given a query pattern with some
//! arguments bound to constants, the rewrite specializes the program so
//! that bottom-up evaluation only derives facts *relevant* to the
//! query, simulating top-down goal direction.
//!
//! This implementation uses the standard left-to-right sideways
//! information passing strategy (SIP):
//!
//! * predicates are **adorned** with `b`/`f` patterns describing which
//!   argument positions are bound;
//! * for each adorned idb predicate `P^a`, a **magic predicate**
//!   `magic__P__a` collects the bound-argument tuples for which `P^a`
//!   is actually demanded;
//! * each rule `P(ū) ← B₁, …, Bₙ` becomes
//!   `P^a(ū) ← magic__P__a(ū|bound), B₁', …, Bₙ'` with idb body atoms
//!   adorned, plus one magic rule per idb body atom passing its bound
//!   arguments sideways.
//!
//! The rewritten program is again pure Datalog and is evaluated with
//! the ordinary semi-naive engine. The `magic_tc` benchmark measures
//! the speedup on single-source reachability.

use crate::error::EvalError;
use crate::fixpoint::EvalScope;
use crate::options::EvalOptions;
use crate::require_language;
use crate::seminaive;
use std::collections::{BTreeSet, VecDeque};
use unchained_common::{Instance, Interner, Relation, Span, SpanKind, Symbol, Tuple, Value};
use unchained_parser::{
    check_range_restricted, Atom, HeadLiteral, Language, Literal, Program, Rule, Term,
};

/// A query pattern: a predicate with each argument either bound to a
/// constant or free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPattern {
    /// The queried (idb) predicate.
    pub pred: Symbol,
    /// One entry per argument position: `Some(c)` = bound to `c`,
    /// `None` = free.
    pub bindings: Vec<Option<Value>>,
}

impl QueryPattern {
    /// Builds a pattern.
    pub fn new(pred: Symbol, bindings: Vec<Option<Value>>) -> Self {
        QueryPattern { pred, bindings }
    }

    fn adornment(&self) -> Adornment {
        self.bindings.iter().map(Option::is_some).collect()
    }

    /// The facts of `pred` in `instance` that agree with every bound
    /// position.
    fn select(&self, instance: &Instance, pred: Symbol) -> Relation {
        let mut out = Relation::new(self.bindings.len());
        for t in instance.relation(pred).into_iter().flat_map(Relation::iter) {
            let mut pairs = self.bindings.iter().zip(t.values());
            if pairs.all(|(b, v)| b.is_none_or(|c| c == *v)) {
                out.insert_row(&t);
            }
        }
        out
    }
}

/// `true` = bound position.
type Adornment = Vec<bool>;

fn adornment_string(a: &Adornment) -> String {
    a.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// The result of the rewrite.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten (pure Datalog) program.
    pub program: Program,
    /// The adorned answer predicate (e.g. `T__bf`).
    pub answer_pred: Symbol,
    /// The magic seed fact(s) for the query constants.
    pub seeds: Instance,
}

/// Rewrite errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MagicError {
    /// Magic sets here apply to pure Datalog only.
    NotPureDatalog,
    /// The queried predicate is not an idb predicate of the program.
    NotAnIdbPredicate(Symbol),
    /// The pattern's arity does not match the predicate's.
    ArityMismatch {
        /// Expected (program) arity.
        expected: usize,
        /// Pattern arity.
        found: usize,
    },
}

impl std::fmt::Display for MagicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MagicError::NotPureDatalog => {
                write!(f, "magic-sets rewriting requires pure (positive) Datalog")
            }
            MagicError::NotAnIdbPredicate(s) => {
                write!(f, "{s:?} is not an idb predicate of the program")
            }
            MagicError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "query pattern arity {found} does not match predicate arity {expected}"
                )
            }
        }
    }
}

impl std::error::Error for MagicError {}

fn adorned_name(interner: &mut Interner, base: &str, a: &Adornment) -> Symbol {
    interner.intern(&format!("{base}__{}", adornment_string(a)))
}

fn magic_name(interner: &mut Interner, base: &str, a: &Adornment) -> Symbol {
    interner.intern(&format!("magic__{base}__{}", adornment_string(a)))
}

/// Performs the magic-sets rewrite of `program` for `query`.
///
/// ```
/// use unchained_common::{Instance, Interner, Tuple, Value};
/// use unchained_core::magic::{answer, QueryPattern};
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
/// input.insert_fact(g, Tuple::from([Value::Int(7), Value::Int(8)])); // irrelevant
///
/// let query = QueryPattern::new(t, vec![Some(Value::Int(1)), None]);
/// let reachable = answer(&program, &query, &input, &mut interner, EvalOptions::default())
///     .unwrap();
/// assert_eq!(reachable.len(), 2); // 1 → 2, 1 → 3; chain 7→8 untouched
/// ```
pub fn magic_rewrite(
    program: &Program,
    query: &QueryPattern,
    interner: &mut Interner,
) -> Result<MagicProgram, MagicError> {
    if unchained_parser::classify(program) != Language::Datalog {
        return Err(MagicError::NotPureDatalog);
    }
    let idb: BTreeSet<Symbol> = program.idb().into_iter().collect();
    if !idb.contains(&query.pred) {
        return Err(MagicError::NotAnIdbPredicate(query.pred));
    }
    let schema = program.schema().map_err(|_| MagicError::NotPureDatalog)?;
    let expected = schema.arity(query.pred).unwrap_or(0);
    if expected != query.bindings.len() {
        return Err(MagicError::ArityMismatch {
            expected,
            found: query.bindings.len(),
        });
    }

    let mut rewritten = Program::new();
    let mut done: BTreeSet<(Symbol, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(Symbol, Adornment)> = VecDeque::new();
    let start = (query.pred, query.adornment());
    queue.push_back(start.clone());
    done.insert(start);

    while let Some((pred, adornment)) = queue.pop_front() {
        let base = interner.name(pred).to_string();
        let adorned_head = adorned_name(interner, &base, &adornment);
        let magic_head = magic_name(interner, &base, &adornment);
        for rule in &program.rules {
            let HeadLiteral::Pos(head) = &rule.head[0] else {
                unreachable!("pure Datalog heads are positive")
            };
            if head.pred != pred {
                continue;
            }
            // Bound variables start with the head's bound positions.
            let mut bound: BTreeSet<unchained_parser::Var> = BTreeSet::new();
            let mut magic_args: Vec<Term> = Vec::new();
            for (pos, term) in head.args.iter().enumerate() {
                if adornment[pos] {
                    magic_args.push(*term);
                    if let Term::Var(v) = term {
                        bound.insert(*v);
                    }
                }
            }
            let magic_atom = Atom::new(magic_head, magic_args);

            // Walk the body left-to-right, building the rewritten body
            // and emitting magic rules for idb atoms.
            let mut new_body: Vec<Literal> = vec![Literal::Pos(magic_atom.clone())];
            for lit in &rule.body {
                let Literal::Pos(atom) = lit else {
                    unreachable!("pure Datalog bodies are positive atoms")
                };
                if idb.contains(&atom.pred) {
                    // Adornment of this occurrence.
                    let sub_adornment: Adornment = atom
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        })
                        .collect();
                    let sub_base = interner.name(atom.pred).to_string();
                    let sub_adorned = adorned_name(interner, &sub_base, &sub_adornment);
                    let sub_magic = magic_name(interner, &sub_base, &sub_adornment);
                    // Magic rule: demand the bound part of this atom
                    // given the demand for the head and everything
                    // established so far.
                    let demanded: Vec<Term> = atom
                        .args
                        .iter()
                        .zip(&sub_adornment)
                        .filter(|(_, &b)| b)
                        .map(|(t, _)| *t)
                        .collect();
                    rewritten.rules.push(Rule {
                        head: vec![HeadLiteral::Pos(Atom::new(sub_magic, demanded))],
                        body: new_body.clone(),
                        forall: vec![],
                        var_names: rule.var_names.clone(),
                    });
                    // The rewritten rule reads the adorned version.
                    new_body.push(Literal::Pos(Atom::new(sub_adorned, atom.args.clone())));
                    let key = (atom.pred, sub_adornment);
                    if done.insert(key.clone()) {
                        queue.push_back(key);
                    }
                } else {
                    new_body.push(lit.clone());
                }
                for v in atom.vars() {
                    bound.insert(v);
                }
            }
            rewritten.rules.push(Rule {
                head: vec![HeadLiteral::Pos(Atom::new(adorned_head, head.args.clone()))],
                body: new_body,
                forall: vec![],
                var_names: rule.var_names.clone(),
            });
        }
    }

    // Seed: the query's own magic fact.
    let mut seeds = Instance::new();
    let base = interner.name(query.pred).to_string();
    let q_adornment = query.adornment();
    let magic_query = magic_name(interner, &base, &q_adornment);
    let seed: Tuple = query.bindings.iter().flatten().copied().collect();
    seeds.insert_fact(magic_query, seed);
    let answer_pred = adorned_name(interner, &base, &q_adornment);
    Ok(MagicProgram {
        program: rewritten,
        answer_pred,
        seeds,
    })
}

/// Rewrites, evaluates (semi-naive), and returns the query answer: the
/// tuples of the queried predicate matching the pattern's constants.
pub fn answer(
    program: &Program,
    query: &QueryPattern,
    input: &Instance,
    interner: &mut Interner,
    options: EvalOptions,
) -> Result<Relation, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;
    let scope = EvalScope::begin(&options, "magic");
    let tracer = scope.tracer().clone();
    let rewrite_start = tracer.now_nanos();
    let magic = magic_rewrite(program, query, interner).map_err(|e| {
        // Surface rewrite problems as analysis errors.
        EvalError::Analysis(unchained_parser::AnalysisError::UnrestrictedHeadVar {
            rule: usize::MAX,
            var: e.to_string(),
        })
    })?;
    if tracer.is_enabled() {
        let mut rewrite = Span::leaf(SpanKind::Phase, "rewrite");
        rewrite.start_nanos = rewrite_start;
        rewrite.dur_nanos = tracer.now_nanos().saturating_sub(rewrite_start);
        rewrite
            .gauges
            .push(("rules", magic.program.rules.len() as u64));
        rewrite
            .gauges
            .push(("seeds", magic.seeds.fact_count() as u64));
        tracer.leaf(rewrite);
    }
    let mut seeded = input.clone();
    for (pred, rel) in magic.seeds.iter() {
        seeded.ensure(pred, rel.arity()).union_with(rel);
    }
    // The inner semi-naive run is part of this one: its rounds are the
    // stages of the magic trace.
    let run = seminaive::minimum_model(&magic.program, &seeded, options)?;
    tracer.note(|| {
        format!(
            "rewrite: {} rules from {}, {} magic seed fact(s)",
            magic.program.rules.len(),
            program.rules.len(),
            magic.seeds.fact_count()
        )
    });
    scope.finish(&run.instance, None);
    Ok(query.select(&run.instance, magic.answer_pred))
}

/// Statistics comparing magic evaluation to full evaluation (used by
/// tests and the ablation bench to verify the rewrite actually prunes).
#[derive(Clone, Copy, Debug)]
pub struct MagicStats {
    /// Facts derived by full evaluation.
    pub full_facts: usize,
    /// Facts derived by magic evaluation (including magic facts).
    pub magic_facts: usize,
}

/// Runs both full and magic evaluation, checks they agree on the query
/// answer, and reports derived-fact counts.
pub fn compare_with_full(
    program: &Program,
    query: &QueryPattern,
    input: &Instance,
    interner: &mut Interner,
) -> Result<(Relation, MagicStats), EvalError> {
    let full = seminaive::minimum_model(program, input, EvalOptions::default())?;
    let full_answer = query.select(&full.instance, query.pred);
    let magic = magic_rewrite(program, query, interner).expect("rewrite");
    let mut seeded = input.clone();
    for (pred, rel) in magic.seeds.iter() {
        seeded.ensure(pred, rel.arity()).union_with(rel);
    }
    let magic_run = seminaive::minimum_model(&magic.program, &seeded, EvalOptions::default())?;
    let magic_answer = answer(program, query, input, interner, EvalOptions::default())?;
    assert!(
        magic_answer.same_tuples(&full_answer),
        "magic answer must equal full answer"
    );
    Ok((
        full_answer,
        MagicStats {
            full_facts: full.instance.fact_count() - input.fact_count(),
            magic_facts: magic_run.instance.fact_count() - seeded.fact_count(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_harness_free::*;

    /// Minimal local generators (this crate cannot depend on the
    /// harness crate, which depends on it).
    mod unchained_harness_free {
        use unchained_common::{Instance, Interner, Tuple, Value};

        pub fn line(interner: &mut Interner, n: i64) -> Instance {
            let g = interner.intern("G");
            let mut inst = Instance::new();
            inst.ensure(g, 2);
            for k in 0..n - 1 {
                inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            inst
        }

        pub fn forked(interner: &mut Interner) -> Instance {
            // Two disjoint components: 0→1→2 and 10→11→12.
            let g = interner.intern("G");
            let mut inst = Instance::new();
            inst.ensure(g, 2);
            for (a, b) in [(0, 1), (1, 2), (10, 11), (11, 12)] {
                inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
            }
            inst
        }
    }
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    const TC: &str = "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).";

    #[test]
    fn bound_source_matches_full_evaluation() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let input = forked(&mut i);
        let query = QueryPattern::new(t, vec![Some(Value::Int(0)), None]);
        let (answer, stats) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        // Reachable from 0: {1, 2}.
        assert_eq!(answer.len(), 2);
        assert!(answer.contains(&Tuple::from([Value::Int(0), Value::Int(2)])));
        // Magic evaluation must not touch the other component.
        assert!(
            stats.magic_facts < stats.full_facts,
            "magic {} < full {}",
            stats.magic_facts,
            stats.full_facts
        );
    }

    #[test]
    fn free_pattern_degenerates_to_full() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let input = line(&mut i, 5);
        let query = QueryPattern::new(t, vec![None, None]);
        let (answer, _) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        assert_eq!(answer.len(), 10);
    }

    #[test]
    fn bound_both_positions() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let input = line(&mut i, 6);
        let query = QueryPattern::new(t, vec![Some(Value::Int(1)), Some(Value::Int(4))]);
        let (answer, _) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        assert_eq!(answer.len(), 1);
        let query = QueryPattern::new(t, vec![Some(Value::Int(4)), Some(Value::Int(1))]);
        let (answer, _) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        assert!(answer.is_empty());
    }

    #[test]
    fn right_linear_rule_and_bound_second_arg() {
        let mut i = Interner::new();
        let program =
            parse_program("T(x,y) :- G(x,y).\nT(x,y) :- T(x,z), G(z,y).", &mut i).unwrap();
        let t = i.get("T").unwrap();
        let input = forked(&mut i);
        let query = QueryPattern::new(t, vec![None, Some(Value::Int(12))]);
        let (answer, _) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        // Ancestors of 12: {10, 11}.
        assert_eq!(answer.len(), 2);
    }

    #[test]
    fn same_generation_with_bound_first() {
        let mut i = Interner::new();
        let program = parse_program(
            "SG(x,x) :- Person(x).\n\
             SG(x,y) :- Par(x,xp), SG(xp,yp), Par(y,yp).",
            &mut i,
        )
        .unwrap();
        let person = i.get("Person").unwrap();
        let par = i.get("Par").unwrap();
        let sg = i.get("SG").unwrap();
        let mut input = Instance::new();
        for k in 1..=7i64 {
            input.insert_fact(person, Tuple::from([Value::Int(k)]));
        }
        for (c, p) in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)] {
            input.insert_fact(par, Tuple::from([Value::Int(c), Value::Int(p)]));
        }
        let query = QueryPattern::new(sg, vec![Some(Value::Int(4)), None]);
        let (answer, _) = compare_with_full(&program, &query, &input, &mut i).unwrap();
        // Same generation as 4: {4, 5, 6, 7}.
        assert_eq!(answer.len(), 4);
    }

    #[test]
    fn rewrite_structure() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let t = i.get("T").unwrap();
        let query = QueryPattern::new(t, vec![Some(Value::Int(0)), None]);
        let magic = magic_rewrite(&program, &query, &mut i).unwrap();
        // 2 original rules → 2 rewritten + 1 magic rule (for the
        // recursive T atom).
        assert_eq!(magic.program.rules.len(), 3);
        assert_eq!(magic.seeds.fact_count(), 1);
        assert_eq!(i.name(magic.answer_pred), "T__bf");
        // The rewritten program is itself valid pure Datalog.
        assert_eq!(
            unchained_parser::classify(&magic.program),
            Language::Datalog
        );
    }

    #[test]
    fn errors() {
        let mut i = Interner::new();
        let program = parse_program(TC, &mut i).unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        assert_eq!(
            magic_rewrite(&program, &QueryPattern::new(g, vec![None, None]), &mut i).unwrap_err(),
            MagicError::NotAnIdbPredicate(g)
        );
        assert_eq!(
            magic_rewrite(&program, &QueryPattern::new(t, vec![None]), &mut i).unwrap_err(),
            MagicError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
        let neg = parse_program("A(x) :- B(x), !C(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        assert_eq!(
            magic_rewrite(&neg, &QueryPattern::new(a, vec![None]), &mut i).unwrap_err(),
            MagicError::NotPureDatalog
        );
    }
}
