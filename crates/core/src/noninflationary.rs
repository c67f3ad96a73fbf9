//! Datalog¬¬ — noninflationary semantics with retraction (Section 4.2).
//!
//! Negative head literals delete facts, and input relations may appear
//! in heads, so programs can express updates. The immediate consequence
//! operator fires all rules in parallel; positive head instantiations
//! are inserted and negative ones deleted, with a **conflict policy**
//! deciding what happens when `A` and `¬A` are inferred in the same
//! firing. The paper's default gives priority to insertion and notes
//! three alternatives, all yielding equivalent languages; we implement
//! all four.
//!
//! A head no rule retracts is never removed once inferred, so from the
//! second stage on its rules fire only over the last stage's change:
//! their semi-naive variants over its insertions and their negation
//! variants over its removals, which are tombstones (see the stage
//! driver, `fixpoint.rs`), and its facts travel in the flat buffer the
//! accumulating stages use (`fixpoint::Fired`). Rules whose head some
//! rule retracts fire full stages. Without negative heads this is exactly inflationary
//! Datalog¬'s Δ driving.
//!
//! Termination is *not* guaranteed: the flip-flop program of Section 4.2
//! oscillates forever. The engine detects such divergence by
//! remembering every visited state exactly.
//!
//! By the results of \[6\], Datalog¬¬ expresses exactly the **while
//! queries** (Theorem 4.5 relates it to inflationary Datalog¬ via
//! `ptime` vs `pspace`).

use crate::error::EvalError;
use crate::fixpoint::{self, facts, Apply, Consequence, Fired};
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use crate::subst::{instantiate_into, Env};
use unchained_common::{FrozenFacts, FxHashMap, FxHashSet, HeapSize, Instance, Symbol, Value};
use unchained_parser::{check_range_restricted, HeadLiteral, Language, Program};

/// The visited states, by fingerprint, for divergence detection. They
/// are kept as [`FrozenFacts`]: they share the instance's committed
/// segments instead of cloning it, so remembering a state neither copies
/// its tuples nor breaks the lineage the index cache absorbs along.
#[derive(Default)]
struct Detector {
    seen: FxHashMap<u64, Vec<(FrozenFacts, usize)>>,
    /// Distinct states remembered.
    states: usize,
}

impl Detector {
    /// Records `inst` as visited at `stage`; returns the stage of a
    /// previous visit if this state was seen before. Tuples are compared
    /// only on a fingerprint match.
    fn record(&mut self, inst: &mut Instance, stage: usize) -> Option<usize> {
        let bucket = self.seen.entry(inst.fingerprint()).or_default();
        if let Some((_, prev)) = bucket.iter().find(|(f, _)| f.same_facts(inst)) {
            return Some(*prev);
        }
        bucket.push((inst.freeze(), stage));
        self.states += 1;
        None
    }
}

/// What to do when `A` and `¬A` are inferred in the same firing
/// (Section 4.2 discusses all four; the languages are equivalent under
/// any of the first three).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConflictPolicy {
    /// Keep `A`: insertion wins (the paper's chosen semantics).
    #[default]
    PreferPositive,
    /// Remove `A`: deletion wins.
    PreferNegative,
    /// No-op: `A`'s membership is left as it was in the previous state.
    NoOp,
    /// Treat the conflict as a contradiction making the result undefined
    /// (option (iii) in the paper): evaluation fails.
    Undefined,
}

/// Evaluates a Datalog¬¬ program to its (non-guaranteed) fixpoint.
///
/// # Errors
/// * [`EvalError::Diverged`] if the state sequence enters a cycle (the
///   computation would never terminate);
/// * [`EvalError::Contradiction`] under [`ConflictPolicy::Undefined`]
///   when `A` and `¬A` are inferred simultaneously;
/// * the usual language / range-restriction / budget errors.
pub fn eval(
    program: &Program,
    input: &Instance,
    policy: ConflictPolicy,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    require_language(program, Language::DatalogNegNeg)?;
    check_range_restricted(program, false)?;
    let mut retract = Retract {
        policy,
        retractable: program
            .rules
            .iter()
            .flat_map(|r| &r.head)
            .filter_map(|h| match h {
                HeadLiteral::Neg(a) => Some(a.pred),
                _ => None,
            })
            .collect(),
        detector: Detector::default(),
        kept: Fired::default(),
        inserted: Instance::new(),
        deleted: Instance::new(),
        row: Vec::new(),
    };
    fixpoint::eval(program, input, &options, "noninflationary", &mut retract)
}

/// Insert and delete under a [`ConflictPolicy`], remembering visited
/// states to detect divergence. The detector's state count lands on the
/// run's eval span when the run ends at a fixpoint or diverges, with the
/// stage and period of a divergence.
struct Retract {
    policy: ConflictPolicy,
    /// The predicates some rule's negative head retracts from.
    retractable: FxHashSet<Symbol>,
    detector: Detector,
    /// The facts the stage inferred whose predicate no rule retracts:
    /// no `¬A` can conflict with them, so they are batched as the
    /// accumulating stages batch theirs.
    kept: Fired,
    /// The facts the stage inferred of retractable predicates, and
    /// those it retracted.
    inserted: Instance,
    deleted: Instance,
    /// Scratch space for instantiating a head.
    row: Vec<Value>,
}

impl Consequence for Retract {
    fn fire(&mut self, _rule: usize, head: &HeadLiteral, env: &Env, instance: &Instance) {
        let row = &mut self.row;
        row.clear();
        match head {
            // Inferring a present fact changes nothing unless the stage
            // may also infer its retraction.
            HeadLiteral::Pos(a) if !self.retractable.contains(&a.pred) => {
                self.kept.push_new(a.pred, &a.args, env, instance);
            }
            HeadLiteral::Pos(a) => {
                instantiate_into(&a.args, env, row);
                self.inserted.insert_row(a.pred, row);
            }
            HeadLiteral::Neg(a) => {
                instantiate_into(&a.args, env, row);
                self.deleted.insert_row(a.pred, row);
            }
            HeadLiteral::Bottom => unreachable!("⊥ is nondeterministic-only"),
        }
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        let inserted = std::mem::take(&mut self.inserted);
        let deleted = std::mem::take(&mut self.deleted);
        if self.policy == ConflictPolicy::Undefined
            && facts(&inserted).any(|(pred, row)| deleted.contains_fact(pred, row))
        {
            return Err(EvalError::Contradiction { stage: stage.stage });
        }
        if stage.stage == 1 {
            // The input state counts as visited at stage 0.
            self.detector.record(stage.instance, 0);
        }
        // The state the stage fired against stays live while its
        // successor materializes: that is the true high-water mark — on
        // a shrinking program it strictly exceeds every stage-end count.
        let tracer = stage.tracer;
        let prev = tracer
            .is_enabled()
            .then(|| (stage.instance.fact_count(), stage.instance.heap_bytes()));
        // A fact both inferred and retracted is resolved by the policy;
        // afterwards the two sets are disjoint, so deleting first changes
        // no outcome and keeps the fact budget exact.
        for (pred, row) in facts(&deleted) {
            if self.policy == ConflictPolicy::PreferNegative || !inserted.contains_fact(pred, row) {
                stage.remove(pred, row);
            }
        }
        for (pred, row) in facts(&inserted) {
            if self.policy == ConflictPolicy::PreferPositive || !deleted.contains_fact(pred, row) {
                stage.insert(pred, row)?;
            }
        }
        self.kept.apply(stage, |_, _, _| {})?;
        if let Some((facts, bytes)) = prev {
            let live = &*stage.instance;
            tracer.raise("peak_facts", (facts + live.fact_count()) as u64);
            tracer.raise("bytes_peak", (bytes + live.heap_bytes()) as u64);
        }
        if !stage.changed() {
            tracer.raise("states_seen", self.detector.states as u64);
            return Ok(());
        }
        if let Some(first) = self.detector.record(stage.instance, stage.stage) {
            let (at, period) = (stage.stage, stage.stage - first);
            tracer.raise("states_seen", self.detector.states as u64);
            tracer.raise("diverged_stage", at as u64);
            tracer.raise("period", period as u64);
            tracer.note(|| format!("diverged at stage {at} with period {period}"));
            return Err(EvalError::Diverged { stage: at, period });
        }
        Ok(())
    }

    /// A head no rule retracts is never removed once inferred, and no
    /// `¬A` inference can conflict with it, so only valuations new to
    /// the stage can add to it: those using a fact the last stage
    /// inserted, or negating one it removed.
    fn delta_driven(&self, head: Symbol) -> bool {
        !self.retractable.contains(&head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    /// The paper's Section 4.2 flip-flop program never terminates on
    /// input `T(0)`. The exact detector compares the live instance with
    /// the frozen segments of the states it remembers.
    #[test]
    fn flip_flop_diverges() {
        let mut i = Interner::new();
        let program = parse_program(
            "T(0) :- T(1).\n\
             !T(1) :- T(1).\n\
             T(1) :- T(0).\n\
             !T(0) :- T(0).",
            &mut i,
        )
        .unwrap();
        let t = i.get("T").unwrap();
        let mut input = Instance::new();
        input.insert_fact(t, Tuple::from([Value::Int(0)]));
        let err = eval(
            &program,
            &input,
            ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap_err();
        // T flip-flops between {⟨0⟩} and {⟨1⟩}: period 2.
        assert_eq!(
            err,
            EvalError::Diverged {
                stage: 2,
                period: 2
            }
        );
    }

    /// The deterministic 2-cycle removal program from Section 5.1 (with
    /// deterministic semantics it removes *all* 2-cycles).
    #[test]
    fn remove_all_two_cycles() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        let v = Value::Int;
        for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 2), (4, 5)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
        }
        let run = eval(
            &program,
            &input,
            ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        let rel = run.instance.relation(g).unwrap();
        // Both 2-cycles removed entirely; (4,5) survives. Note the
        // self-inverse pairs are deleted in one parallel firing.
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&Tuple::from([v(4), v(5)])));
    }

    #[test]
    fn conflict_policies_differ_on_simultaneous_inference() {
        // A is present; one rule retracts it, another re-asserts it.
        let mut i = Interner::new();
        let program = parse_program("!A(x) :- A(x). A(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut input = Instance::new();
        input.insert_fact(a, Tuple::from([Value::Int(1)]));

        // PreferPositive: A survives; immediate fixpoint.
        let run = eval(
            &program,
            &input,
            ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(run.instance.contains_fact(a, &Tuple::from([Value::Int(1)])));

        // PreferNegative: A removed, then stays away.
        let run = eval(
            &program,
            &input,
            ConflictPolicy::PreferNegative,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(!run.instance.contains_fact(a, &Tuple::from([Value::Int(1)])));

        // NoOp: A's membership is as in the old state: stays.
        let run = eval(
            &program,
            &input,
            ConflictPolicy::NoOp,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(run.instance.contains_fact(a, &Tuple::from([Value::Int(1)])));

        // Undefined: contradiction.
        assert!(matches!(
            eval(
                &program,
                &input,
                ConflictPolicy::Undefined,
                EvalOptions::default()
            ),
            Err(EvalError::Contradiction { stage: 1 })
        ));
    }

    #[test]
    fn update_semantics_inserts_into_edb() {
        // Symmetric closure computed *into the input relation*.
        let mut i = Interner::new();
        let program = parse_program("G(y,x) :- G(x,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        let run = eval(
            &program,
            &input,
            ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(run.instance.relation(g).unwrap().len(), 2);
    }

    #[test]
    fn subsumes_inflationary_datalog_neg() {
        // A Datalog¬ program runs identically under Datalog¬¬ semantics.
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        for k in 0..4i64 {
            input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let a = eval(
            &program,
            &input,
            ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        let b = crate::inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
    }

    #[test]
    fn deletion_based_composition() {
        // The paper's Section 5.2 example computing P − π_A(Q) with
        // deletions, run deterministically:
        //   answer(x) :- P(x).
        //   !answer(x) :- Q(x,y).
        let mut i = Interner::new();
        let program = parse_program("answer(x) :- P(x). !answer(x) :- Q(x,y).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let q = i.get("Q").unwrap();
        let answer = i.get("answer").unwrap();
        let mut input = Instance::new();
        let v = Value::Int;
        for k in [1, 2, 3] {
            input.insert_fact(p, Tuple::from([v(k)]));
        }
        input.insert_fact(q, Tuple::from([v(2), v(9)]));
        let run = eval(
            &program,
            &input,
            ConflictPolicy::PreferNegative,
            EvalOptions::default(),
        )
        .unwrap();
        let rel = run.instance.relation(answer).unwrap();
        // P − π_A(Q) = {1, 3}.
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&Tuple::from([v(1)])));
        assert!(rel.contains(&Tuple::from([v(3)])));
    }

    #[test]
    fn rejects_multi_head() {
        let mut i = Interner::new();
        let program = parse_program("A(x), B(x) :- C(x).", &mut i).unwrap();
        assert!(matches!(
            eval(
                &program,
                &Instance::new(),
                ConflictPolicy::PreferPositive,
                EvalOptions::default()
            ),
            Err(EvalError::WrongLanguage { .. })
        ));
    }
}
