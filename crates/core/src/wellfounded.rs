//! The well-founded semantics of Datalog¬ (Section 3.3), computed via
//! Van Gelder's **alternating fixpoint** \[62\].
//!
//! The well-founded model is 3-valued: each fact is *true*, *false* or
//! *unknown*. The alternating fixpoint computes it as follows. For an
//! instance `J`, let `Γ̂(J)` be the least fixpoint of the program where
//! every negative literal `¬A` is read as "`A ∉ J`" (the
//! Gelfond–Lifschitz-style reduct, evaluated bottom-up from the input).
//! `Γ̂` is *antimonotone*, so its square is monotone and the sequence
//!
//! ```text
//! I₀ = input,  I₁ = Γ̂(I₀),  I₂ = Γ̂(I₁), …
//! ```
//!
//! has an increasing even subsequence (underestimates: facts certainly
//! true) and a decreasing odd subsequence (overestimates: facts possibly
//! true). At the simultaneous fixpoint, the even limit is the set of
//! **true** facts, facts in the odd limit but not the even one are
//! **unknown**, and everything else is **false**.

use crate::error::EvalError;
use crate::fixpoint::{with_idb, Accumulate, EvalScope, Stages};
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use unchained_common::{Instance, SpanKind, Symbol, Tracer, Tuple};
use unchained_parser::{check_range_restricted, Language, Program};

/// The truth value of a fact in a 3-valued model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Truth {
    /// Certainly true.
    True,
    /// Certainly false.
    False,
    /// Undetermined by the program (e.g. drawn positions in the win-move
    /// game of Example 3.2).
    Unknown,
}

/// The well-founded (3-valued) model of a program on an input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WellFoundedModel {
    /// Facts true in the model (includes the input edb facts).
    pub true_facts: Instance,
    /// Facts true-or-unknown (superset of `true_facts`).
    pub possible_facts: Instance,
    /// Number of alternating rounds (applications of `Γ̂`) performed.
    pub rounds: usize,
}

impl WellFoundedModel {
    /// The truth value of `pred(tuple)`.
    pub fn truth(&self, pred: Symbol, tuple: &Tuple) -> Truth {
        if self.true_facts.contains_fact(pred, tuple) {
            Truth::True
        } else if self.possible_facts.contains_fact(pred, tuple) {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// The *unknown* facts: in the overestimate but not the underestimate.
    pub fn unknown_facts(&self) -> Vec<(Symbol, Tuple)> {
        let mut out = Vec::new();
        for (pred, rel) in self.possible_facts.iter() {
            for t in rel.sorted().iter() {
                if !self.true_facts.contains_fact(pred, t) {
                    out.push((pred, t.clone()));
                }
            }
        }
        out
    }

    /// Whether the model is total (2-valued): no unknown facts.
    pub fn is_total(&self) -> bool {
        self.possible_facts.same_facts(&self.true_facts)
    }

    /// The 2-valued reading used by Theorem comparison with fixpoint
    /// queries: take the true facts as the answer.
    pub fn two_valued(&self) -> &Instance {
        &self.true_facts
    }
}

/// The reduct least-fixpoint `Γ̂(J)`: evaluates the program bottom-up
/// from `base` with every negative literal checked against the frozen
/// instance `J`.
pub(crate) fn reduct(
    stages: &mut Stages<'_>,
    base: &Instance,
    frozen: &Instance,
) -> Result<Instance, EvalError> {
    let mut instance = base.clone();
    stages.run(&mut instance, Some(frozen), &mut Accumulate::default())?;
    Ok(instance)
}

/// Computes the well-founded model of a Datalog¬ program on `input`.
///
/// # Errors
/// Rejects programs outside Datalog¬ syntax (no head negation, no
/// invention, no nondeterministic constructs) and non-range-restricted
/// rules.
pub fn eval(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<WellFoundedModel, EvalError> {
    require_language(program, Language::DatalogNeg)?;
    check_range_restricted(program, false)?;
    let base = with_idb(program, input)?;
    let scope = EvalScope::begin(&options, "wellfounded");
    let mut stages = Stages::new(program, input, &options);
    match alternate(&mut stages, &base, scope.tracer()) {
        Ok(model) => {
            options.telemetry.note(format!(
                "alternating fixpoint stable after {} reduct applications: \
                 {} true facts, {} possible facts",
                model.rounds,
                model.true_facts.fact_count(),
                model.possible_facts.fact_count()
            ));
            scope.finish(&model.true_facts, Some(model.rounds));
            Ok(model)
        }
        Err(e) => {
            scope.finish(&base, None);
            Err(e)
        }
    }
}

/// The alternating sequence `I₀ = base, I₁ = Γ̂(I₀), …`: even iterates
/// underestimate, odd iterates overestimate, until an even iterate
/// repeats.
fn alternate(
    stages: &mut Stages<'_>,
    base: &Instance,
    tracer: &Tracer,
) -> Result<WellFoundedModel, EvalError> {
    let mut rounds = 0;
    let mut apply = |frozen: &Instance, rounds: &mut usize| {
        *rounds += 1;
        let _phase = tracer.span(SpanKind::Phase, format!("reduct {rounds}"));
        reduct(stages, base, frozen)
    };
    let mut even = base.clone();
    loop {
        let odd = apply(&even, &mut rounds)?;
        let next_even = apply(&odd, &mut rounds)?;
        if next_even.same_facts(&even) {
            // Simultaneous fixpoint reached: (even, odd) is stable.
            return Ok(WellFoundedModel {
                true_facts: even,
                possible_facts: odd,
                rounds,
            });
        }
        even = next_even;
    }
}

/// Convenience wrapper returning the 2-valued reading (true facts only),
/// shaped like the other engines' results for cross-engine comparisons.
pub fn eval_two_valued(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    let model = eval(program, input, options)?;
    Ok(FixpointRun {
        instance: model.true_facts,
        stages: model.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Value};
    use unchained_parser::parse_program;

    /// Example 3.2 of the paper: the win-move game.
    #[test]
    fn paper_example_win_move_game() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let win = i.get("win").unwrap();
        let mut input = Instance::new();
        let node = |name: &str, i: &mut Interner| Value::sym(i, name);
        let (a, b, c, d, e, f, g) = (
            node("a", &mut i),
            node("b", &mut i),
            node("c", &mut i),
            node("d", &mut i),
            node("e", &mut i),
            node("f", &mut i),
            node("g", &mut i),
        );
        for (x, y) in [(b, c), (c, a), (a, b), (a, d), (d, e), (d, f), (f, g)] {
            input.insert_fact(moves, Tuple::from([x, y]));
        }
        let model = eval(&program, &input, EvalOptions::default()).unwrap();
        // The paper's exact 3-valued answer:
        //   true:    win(d), win(f)
        //   false:   win(e), win(g)
        //   unknown: win(a), win(b), win(c)
        assert_eq!(model.truth(win, &Tuple::from([d])), Truth::True);
        assert_eq!(model.truth(win, &Tuple::from([f])), Truth::True);
        assert_eq!(model.truth(win, &Tuple::from([e])), Truth::False);
        assert_eq!(model.truth(win, &Tuple::from([g])), Truth::False);
        assert_eq!(model.truth(win, &Tuple::from([a])), Truth::Unknown);
        assert_eq!(model.truth(win, &Tuple::from([b])), Truth::Unknown);
        assert_eq!(model.truth(win, &Tuple::from([c])), Truth::Unknown);
        assert!(!model.is_total());
        assert_eq!(model.unknown_facts().len(), 3);
    }

    #[test]
    fn stratified_program_is_total_and_agrees() {
        let mut i = Interner::new();
        let program = parse_program(
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        for k in 0..3i64 {
            input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let model = eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(model.is_total());
        let strat = crate::stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(model.true_facts.same_facts(&strat.instance));
    }

    #[test]
    fn pure_datalog_is_total_and_minimum_model() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        input.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));
        let model = eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(model.is_total());
        let mm = crate::seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(model.true_facts.same_facts(&mm.instance));
    }

    #[test]
    fn fully_unknown_loop() {
        // p :- !q. q :- !p. — both unknown under WF semantics.
        let mut i = Interner::new();
        let program = parse_program("p :- !q. q :- !p.", &mut i).unwrap();
        let p = i.get("p").unwrap();
        let q = i.get("q").unwrap();
        let model = eval(&program, &Instance::new(), EvalOptions::default()).unwrap();
        assert_eq!(model.truth(p, &Tuple::from([])), Truth::Unknown);
        assert_eq!(model.truth(q, &Tuple::from([])), Truth::Unknown);
    }

    #[test]
    fn negation_resolves_when_grounded() {
        // p :- !q. with q underivable: p true, q false.
        let mut i = Interner::new();
        let program = parse_program("p :- !q. q :- r.", &mut i).unwrap();
        let p = i.get("p").unwrap();
        let q = i.get("q").unwrap();
        let model = eval(&program, &Instance::new(), EvalOptions::default()).unwrap();
        assert_eq!(model.truth(p, &Tuple::from([])), Truth::True);
        assert_eq!(model.truth(q, &Tuple::from([])), Truth::False);
        assert!(model.is_total());
    }

    #[test]
    fn win_move_on_a_line_is_total() {
        // Game on a simple line 0→1→2→3: positions alternate lose/win
        // from the sink; no draws.
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let win = i.get("win").unwrap();
        let mut input = Instance::new();
        for k in 0..3i64 {
            input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let model = eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(model.is_total());
        // 3 is lost (no moves), 2 wins, 1 loses, 0 wins.
        assert_eq!(
            model.truth(win, &Tuple::from([Value::Int(3)])),
            Truth::False
        );
        assert_eq!(model.truth(win, &Tuple::from([Value::Int(2)])), Truth::True);
        assert_eq!(
            model.truth(win, &Tuple::from([Value::Int(1)])),
            Truth::False
        );
        assert_eq!(model.truth(win, &Tuple::from([Value::Int(0)])), Truth::True);
    }

    #[test]
    fn rejects_head_negation() {
        let mut i = Interner::new();
        let program = parse_program("!A(x) :- B(x).", &mut i).unwrap();
        assert!(matches!(
            eval(&program, &Instance::new(), EvalOptions::default()),
            Err(EvalError::WrongLanguage { .. })
        ));
    }
}
