//! Stable model semantics for Datalog¬ (Section 3.3's historical
//! context: stable models \[65\] and their relationship to the
//! well-founded semantics).
//!
//! A 2-valued instance `M` (extending the input) is a **stable model**
//! of `P` iff the least fixpoint of the Gelfond–Lifschitz reduct
//! `P/M` — the positive program obtained by deleting rules with a
//! negative literal contradicted by `M` and dropping the remaining
//! negative literals — equals `M` exactly.
//!
//! Connection to the well-founded semantics (the "3-stable model" of
//! the paper's Section 3.3): every stable model `M` satisfies
//! `WF.true ⊆ M ⊆ WF.possible`, which this module exploits: candidate
//! models are enumerated as `WF.true ∪ S` for subsets `S` of the
//! *unknown* facts, so the search is `2^u` for `u` unknown facts rather
//! than exponential in the full fact universe. Programs with no
//! unknowns (e.g. all stratified programs) have exactly one candidate —
//! and exactly one stable model, coinciding with the stratified /
//! well-founded answer.
//!
//! The win-move program of Example 3.2 on the paper's instance `K` is
//! the classic witness that a Datalog¬ program may have **no** stable
//! model at all (the drawn 3-cycle `a → b → c → a` forces
//! `win(a) = ¬win(b) = win(c) = ¬win(a)`), while the well-founded
//! semantics still answers — with unknowns.

use crate::error::EvalError;
use crate::fixpoint::{with_idb, Accumulate, EvalScope, Stages};
use crate::options::EvalOptions;
use crate::require_language;
use crate::wellfounded;
use unchained_common::{Instance, Span, SpanKind, Telemetry, Tuple};
use unchained_parser::{check_range_restricted, Language, Program};

/// Budget for stable-model enumeration.
#[derive(Clone, Debug)]
pub struct StableOptions {
    /// Underlying fixpoint budgets.
    pub eval: EvalOptions,
    /// Maximum number of unknown facts to enumerate over (the search is
    /// `2^u`); exceeding it fails with
    /// [`EvalError::StageLimitExceeded`]-style budget error.
    pub max_unknowns: usize,
}

impl Default for StableOptions {
    fn default() -> Self {
        StableOptions {
            eval: EvalOptions::default(),
            max_unknowns: 20,
        }
    }
}

/// Error: too many unknown facts for exhaustive stable-model search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TooManyUnknowns {
    /// Number of unknown facts in the well-founded model.
    pub unknowns: usize,
    /// The configured bound.
    pub bound: usize,
}

impl std::fmt::Display for TooManyUnknowns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} unknown facts exceed the stable-model search bound of {}",
            self.unknowns, self.bound
        )
    }
}

impl std::error::Error for TooManyUnknowns {}

/// Errors from stable-model enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StableError {
    /// Underlying evaluation error.
    Eval(EvalError),
    /// The 2^u search bound was exceeded.
    TooManyUnknowns(TooManyUnknowns),
}

impl std::fmt::Display for StableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StableError::Eval(e) => write!(f, "{e}"),
            StableError::TooManyUnknowns(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for StableError {}

impl From<EvalError> for StableError {
    fn from(e: EvalError) -> Self {
        StableError::Eval(e)
    }
}

/// True iff `model` is a stable model of `program` on `input`.
pub fn is_stable_model(
    program: &Program,
    input: &Instance,
    model: &Instance,
    options: EvalOptions,
) -> Result<bool, EvalError> {
    require_language(program, Language::DatalogNeg)?;
    check_range_restricted(program, false)?;
    let mut lfp = with_idb(program, input)?;
    let scope = EvalScope::begin(&options, "stable");
    let result =
        Stages::new(program, input, &options).run(&mut lfp, Some(model), &mut Accumulate::delta());
    scope.finish(&lfp, None);
    result?;
    Ok(lfp.same_facts(model))
}

/// Enumerates all stable models of a Datalog¬ program on `input`,
/// sorted deterministically.
///
/// ```
/// use unchained_common::{Instance, Interner};
/// use unchained_core::stable::{stable_models, StableOptions};
/// use unchained_parser::parse_program;
///
/// let mut interner = Interner::new();
/// // The mutual-exclusion pair: two stable models, {p} and {q}.
/// let program = parse_program("p :- !q. q :- !p.", &mut interner).unwrap();
/// let models = stable_models(&program, &Instance::new(), StableOptions::default()).unwrap();
/// assert_eq!(models.len(), 2);
/// ```
///
/// Candidates are `WF.true ∪ S` for each subset `S` of the well-founded
/// model's unknown facts (every stable model lies in that interval).
///
/// # Errors
/// [`StableError::TooManyUnknowns`] when the unknown-fact count exceeds
/// `options.max_unknowns`, plus any underlying evaluation error.
pub fn stable_models(
    program: &Program,
    input: &Instance,
    options: StableOptions,
) -> Result<Vec<Instance>, StableError> {
    require_language(program, Language::DatalogNeg).map_err(StableError::Eval)?;
    check_range_restricted(program, false)
        .map_err(|e| StableError::Eval(EvalError::Analysis(e)))?;
    // The stable engine owns the trace; inner well-founded and reduct
    // runs get a muted handle so candidate churn doesn't clobber it.
    let scope = EvalScope::begin(&options.eval, "stable");
    let tracer = scope.tracer().clone();
    let inner = options.eval.clone().with_telemetry(Telemetry::off());
    let wf_phase = tracer.span(SpanKind::Phase, "wellfounded interval");
    let wf = wellfounded::eval(program, input, inner.clone())?;
    let unknowns: Vec<(unchained_common::Symbol, Tuple)> = wf.unknown_facts();
    tracer.gauge("true_facts", wf.true_facts.fact_count() as u64);
    tracer.gauge("unknowns", unknowns.len() as u64);
    drop(wf_phase);
    if unknowns.len() > options.max_unknowns {
        return Err(StableError::TooManyUnknowns(TooManyUnknowns {
            unknowns: unknowns.len(),
            bound: options.max_unknowns,
        }));
    }
    let mut base = with_idb(program, input)?;
    base.commit_all();
    let mut lfp = base.clone();
    let mut stages = Stages::new(program, input, &inner);
    let mut models = Vec::new();
    for mask in 0u64..(1u64 << unknowns.len()) {
        let mut candidate = wf.true_facts.clone();
        for (bit, (pred, tuple)) in unknowns.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                candidate.insert_fact(*pred, tuple.clone());
            }
        }
        let candidate_start = tracer.now_nanos();
        wellfounded::reduct_into(&mut stages, &mut lfp, &base, &candidate)?;
        let stable = lfp.same_facts(&candidate);
        if tracer.is_enabled() {
            let mut leaf = Span::leaf(SpanKind::Phase, format!("candidate {mask}"));
            leaf.start_nanos = candidate_start;
            leaf.dur_nanos = tracer.now_nanos().saturating_sub(candidate_start);
            leaf.gauges.push(("stable", u64::from(stable)));
            tracer.leaf(leaf);
        }
        if stable {
            models.push(candidate);
        }
    }
    models.sort_by_cached_key(|m| format!("{m:?}"));
    tracer.gauge("models", models.len() as u64);
    tracer.note(|| {
        format!(
            "well-founded interval: {} true facts, {} unknown; {} candidates tested, {} stable",
            wf.true_facts.fact_count(),
            unknowns.len(),
            1u64 << unknowns.len(),
            models.len()
        )
    });
    scope.finish(models.first().unwrap_or(&wf.true_facts), None);
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Value};
    use unchained_parser::parse_program;

    #[test]
    fn paper_game_has_no_stable_model() {
        // Example 3.2's instance: the drawn odd cycle a→b→c→a forces a
        // contradiction, so no stable model exists — the historical
        // motivation for the well-founded semantics.
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let mut input = Instance::new();
        let s = |i: &mut Interner, n: &str| Value::sym(i, n);
        let nodes: Vec<Value> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|n| s(&mut i, n))
            .collect();
        let (a, b, c, d, e, f, g) = (
            nodes[0], nodes[1], nodes[2], nodes[3], nodes[4], nodes[5], nodes[6],
        );
        for (x, y) in [(b, c), (c, a), (a, b), (a, d), (d, e), (d, f), (f, g)] {
            input.insert_fact(moves, Tuple::from([x, y]));
        }
        let models = stable_models(&program, &input, StableOptions::default()).unwrap();
        assert!(models.is_empty());
    }

    #[test]
    fn two_cycle_game_has_two_stable_models() {
        // a ↔ b: stable models are {win(a)} and {win(b)} (the two
        // kernels of the 2-cycle).
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let win = i.get("win").unwrap();
        let a = Value::sym(&mut i, "a");
        let b = Value::sym(&mut i, "b");
        let mut input = Instance::new();
        input.insert_fact(moves, Tuple::from([a, b]));
        input.insert_fact(moves, Tuple::from([b, a]));
        let models = stable_models(&program, &input, StableOptions::default()).unwrap();
        assert_eq!(models.len(), 2);
        for m in &models {
            let wins = m.relation(win).unwrap();
            assert_eq!(wins.len(), 1);
        }
        let has_a = models
            .iter()
            .any(|m| m.contains_fact(win, &Tuple::from([a])));
        let has_b = models
            .iter()
            .any(|m| m.contains_fact(win, &Tuple::from([b])));
        assert!(has_a && has_b);
    }

    #[test]
    fn stratified_program_has_unique_stable_model() {
        let mut i = Interner::new();
        let program = parse_program(
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([Value::Int(0), Value::Int(1)]));
        input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        let models = stable_models(&program, &input, StableOptions::default()).unwrap();
        assert_eq!(models.len(), 1);
        let strat = crate::stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(models[0].same_facts(&strat.instance));
    }

    #[test]
    fn p_not_q_mutual_exclusion() {
        // p :- !q. q :- !p. — two stable models: {p} and {q}.
        let mut i = Interner::new();
        let program = parse_program("p :- !q. q :- !p.", &mut i).unwrap();
        let models = stable_models(&program, &Instance::new(), StableOptions::default()).unwrap();
        assert_eq!(models.len(), 2);
        let p = i.get("p").unwrap();
        let q = i.get("q").unwrap();
        for m in &models {
            let has_p = m.contains_fact(p, &Tuple::from([]));
            let has_q = m.contains_fact(q, &Tuple::from([]));
            assert!(has_p ^ has_q);
        }
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        // p :- !p. — the canonical incoherent program.
        let mut i = Interner::new();
        let program = parse_program("p :- !p.", &mut i).unwrap();
        let models = stable_models(&program, &Instance::new(), StableOptions::default()).unwrap();
        assert!(models.is_empty());
    }

    #[test]
    fn stable_models_lie_in_wellfounded_interval() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let win = i.get("win").unwrap();
        // 4-cycle: two stable models (alternating kernels).
        let mut input = Instance::new();
        for k in 0..4i64 {
            input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int((k + 1) % 4)]));
        }
        let wf = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        let models = stable_models(&program, &input, StableOptions::default()).unwrap();
        assert_eq!(models.len(), 2);
        for m in &models {
            // WF.true ⊆ M ⊆ WF.possible on the win relation.
            for t in wf
                .true_facts
                .relation(win)
                .into_iter()
                .flat_map(|r| r.iter())
            {
                assert!(m.contains_fact(win, &t));
            }
            for t in m.relation(win).unwrap().iter() {
                assert!(wf.possible_facts.contains_fact(win, &t));
            }
        }
    }

    #[test]
    fn is_stable_model_checks_directly() {
        let mut i = Interner::new();
        let program = parse_program("p :- !q. q :- !p.", &mut i).unwrap();
        let p = i.get("p").unwrap();
        let q = i.get("q").unwrap();
        let mut m_p = Instance::new();
        m_p.insert_fact(p, Tuple::from([]));
        assert!(is_stable_model(&program, &Instance::new(), &m_p, EvalOptions::default()).unwrap());
        let mut m_both = m_p.clone();
        m_both.insert_fact(q, Tuple::from([]));
        assert!(
            !is_stable_model(&program, &Instance::new(), &m_both, EvalOptions::default()).unwrap()
        );
        assert!(!is_stable_model(
            &program,
            &Instance::new(),
            &Instance::new(),
            EvalOptions::default()
        )
        .unwrap());
    }

    #[test]
    fn unknown_budget_enforced() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let mut input = Instance::new();
        // A big even cycle: every win fact is unknown under WF.
        for k in 0..30i64 {
            input.insert_fact(
                moves,
                Tuple::from([Value::Int(k), Value::Int((k + 1) % 30)]),
            );
        }
        let err = stable_models(
            &program,
            &input,
            StableOptions {
                max_unknowns: 8,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, StableError::TooManyUnknowns(_)));
    }
}
