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
//!
//! Each application changes its iterate little, so only `I₁` and `I₂`
//! are computed from scratch. From then on one instance holds the
//! under-estimate and grows in place, one holds the over-estimate and
//! shrinks in place, and each application is one stage-driver run over
//! its input's last change: the over-estimate drops what the facts that
//! entered the under-estimate block (a `Withdraw` closure, then
//! rederive), and the under-estimate adds what the facts that left the
//! over-estimate enable (Δ-driven stages entered with those facts).
//! Both start from *negation variants*
//! ([`crate::planner::Planner::plan_delta`]).

use crate::error::EvalError;
use crate::fixpoint::{with_idb, Accumulate, Change, EvalScope, Round, Stages};
use crate::ivm::{rederive, Support, Withdraw};
use crate::options::EvalOptions;
use crate::require_language;
use unchained_common::{
    DeltaHandle, HeapSize, Instance, Relation, SpanKind, Symbol, Tracer, Tuple,
};
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
}

/// The reduct least fixpoint `Γ̂(J)`, computed in place: resets every
/// idb relation of `target` to `base`'s, then evaluates bottom-up with
/// every negative literal checked against the frozen instance `J`.
/// `target` keeps its edb relations, so an application copies none of
/// the input.
pub(crate) fn reduct_into(
    stages: &mut Stages<'_>,
    target: &mut Instance,
    base: &Instance,
    frozen: &Instance,
) -> Result<(), EvalError> {
    for &pred in stages.idb() {
        let from = base.relation(pred).expect("base holds every idb relation");
        let rel = target
            .relation_mut(pred)
            .expect("target holds every idb relation");
        // A fresh relation keeps the reduct's lineage unshared, so its
        // first stage's delta mark stays exact.
        *rel = if from.is_empty() {
            Relation::new(from.arity())
        } else {
            from.clone()
        };
    }
    stages.run(target, Some(frozen), &mut Accumulate::delta())?;
    Ok(())
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
    let mut base = with_idb(program, input)?;
    // Committed once, so the iterates cloned from it share one storage
    // layout of the edb and its indexes serve every application.
    base.commit_all();
    let scope = EvalScope::begin(&options, "wellfounded");
    match alternate(program, &base, &options, scope.tracer()) {
        Ok(model) => {
            scope.tracer().note(|| {
                format!(
                    "alternating fixpoint stable after {} reduct applications: \
                     {} true facts, {} possible facts",
                    model.rounds,
                    model.true_facts.fact_count(),
                    model.possible_facts.fact_count()
                )
            });
            scope.finish(&model.true_facts, Some(model.rounds));
            Ok(model)
        }
        Err(e) => {
            scope.finish(&base, None);
            Err(e)
        }
    }
}

/// The alternating sequence `I₀ = base, I₁ = Γ̂(I₀), …`, until an even
/// iterate repeats. `I₁` and `I₂` are computed from scratch; after that
/// one instance holds the under-estimate, which only grows, and one the
/// over-estimate, which only shrinks, and each application of `Γ̂`
/// works from what the previous one changed:
///
/// * the over-estimate `Γ̂(I₂ₖ)` loses what the facts that entered the
///   under-estimate block ([`shrink`]);
/// * the under-estimate `Γ̂(I₂ₖ₊₁)` gains what the facts that left the
///   over-estimate enable ([`Stages::run_from`]).
///
/// Each side keeps its own index and plan caches across every round,
/// since their idb relations have separate lineages.
fn alternate(
    program: &Program,
    base: &Instance,
    options: &EvalOptions,
    tracer: &Tracer,
) -> Result<WellFoundedModel, EvalError> {
    let mut over_side = Stages::new(program, base, options);
    let mut under_side = Stages::new(program, base, options);
    let idb = over_side.idb().to_vec();
    // The live iterates share the edb: count it once.
    let edb_bytes = base.heap_bytes() as u64;
    let sample = |under: &Instance, over: &Instance| {
        if tracer.is_enabled() {
            let live = edb_bytes + idb_bytes(under, &idb) + idb_bytes(over, &idb);
            tracer.raise("bytes_peak", live);
        }
    };
    let mut rounds = 0;
    let mut phase = || {
        rounds += 1;
        tracer.span(SpanKind::Phase, format!("reduct {rounds}"))
    };

    let mut over = base.clone();
    let mut under = base.clone();
    {
        let _phase = phase();
        reduct_into(&mut over_side, &mut over, base, base)?;
        sample(&under, &over);
    }
    {
        let _phase = phase();
        reduct_into(&mut under_side, &mut under, base, &over)?;
        sample(&under, &over);
    }
    // From here on every application runs Δ and support plans only:
    // the from-scratch plans' indexes would sit idle.
    over_side.clear_indexes();
    under_side.clear_indexes();
    let mut gained = since(&under, &DeltaHandle::default(), base, &idb);
    let support = Support::new(program, &over, options.plan_mode);
    while !gained.is_empty() {
        let left = {
            let _phase = phase();
            let left = shrink(&mut over_side, base, &mut over, &under, &gained, &support)?;
            sample(&under, &over);
            left
        };
        let _phase = phase();
        let mark = DeltaHandle::capture(&under);
        let (neg, delta) = (Some(&over), &mut Accumulate::delta());
        under_side.run_from(&mut under, neg, Some(&left), None, delta)?;
        gained = since(&under, &mark, base, &idb);
        sample(&under, &over);
    }
    // The caller's answer step copies the over-estimate: drop the dead
    // rows its withdrawals left first.
    over.pack_all();
    Ok(WellFoundedModel {
        true_facts: under,
        possible_facts: over,
        rounds,
    })
}

/// Logical bytes of the `idb` relations of `instance`.
fn idb_bytes(instance: &Instance, idb: &[Symbol]) -> u64 {
    idb.iter()
        .filter_map(|&p| instance.relation(p))
        .map(|r| r.heap_bytes() as u64)
        .sum()
}

/// The facts of the `idb` relations of `instance` added since `marks`,
/// less the input's own (`base`).
fn since(instance: &Instance, marks: &DeltaHandle, base: &Instance, idb: &[Symbol]) -> Instance {
    let mut out = Instance::new();
    for &pred in idb {
        let rel = instance
            .relation(pred)
            .expect("iterates hold every idb relation");
        for row in rel.iter_since(marks.mark(pred)) {
            let tuple = Tuple::new(row);
            if !base.contains_fact(pred, &tuple) {
                out.ensure(pred, rel.arity()).insert(tuple);
            }
        }
    }
    out
}

/// One application of `Γ̂` to an under-estimate that just gained
/// `gained`, computed from the last over-estimate by delete and
/// rederive (the DRed of [`crate::ivm`], with a negative context).
///
/// Γ̂ is antimonotone, so the new over-estimate is a subset of the old.
/// A valuation of the old one is lost iff it negates a fact that entered
/// the under-estimate, or uses a positive fact that is lost. The
/// overdelete is one closure run under [`Withdraw`]: its first stage
/// fires the negation variants over `gained`, reading every other
/// literal in the old state (negation reads the under-estimate without
/// `gained`), and its later stages close over the withdrawn facts. A
/// withdrawn fact that keeps a derivation — against the surviving facts
/// and the new under-estimate — is rederived. Facts never withdrawn
/// keep every derivation they had, so the result is exactly `Γ̂` of the
/// new under-estimate.
///
/// Records the application as one round. Returns the facts that left
/// the over-estimate.
fn shrink(
    side: &mut Stages<'_>,
    base: &Instance,
    over: &mut Instance,
    under: &Instance,
    gained: &Instance,
    support: &Support,
) -> Result<Instance, EvalError> {
    let options = side.options;
    let tracer = options.telemetry.tracer();
    let _round = tracer.span(SpanKind::Round, "round 1");
    let joins_before = side.parts().1.counters;

    // The overdelete, seeded by the valuations of the old over-estimate
    // that negate a gained fact.
    let nothing = Instance::new();
    let mut withdrawn = Instance::new();
    let mut round = Round::default();
    let overdelete = Change {
        facts: &mut withdrawn,
        before: Some(&nothing),
        round: &mut round,
    };
    let (neg, mut withdraw) = (Some(under), Withdraw::default());
    side.run_from(over, neg, Some(gained), Some(overdelete), &mut withdraw)?;
    let candidates = withdraw.withdrawn;
    // Input facts of idb predicates hold in every iterate: the
    // overdelete may withdraw them, and they come straight back.
    for (pred, tuple) in &candidates {
        if base.contains_fact(*pred, tuple) {
            over.insert_fact(*pred, tuple.clone());
        }
    }
    let rules = &mut round.rules;
    rederive(&candidates, support, over, Some(under), side, rules);
    let mut left = Instance::new();
    for (pred, tuple) in candidates {
        if !over.contains_fact(pred, &tuple) {
            left.insert_fact(pred, tuple);
        }
    }
    over.commit_all();
    over.compact_all();

    if tracer.is_enabled() {
        round.removed = left.fact_count();
        round.joins = side.parts().1.counters.since(&joins_before);
        round.record(options, side.head_preds(), over);
    }
    Ok(left)
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
