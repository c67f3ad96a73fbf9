//! Temporal (Dedalus-style) forward chaining — "Datalog in time and
//! space" \[19\], surveyed in Section 6 as a foundation for programming
//! and reasoning about distributed and *data-driven reactive* systems
//! (the fourth adoption domain in the paper's abstract).
//!
//! A [`TemporalProgram`] splits its rules into
//!
//! * **deductive** rules — hold *within* a timestep: the state is
//!   closed under them by an inflationary fixpoint;
//! * **inductive** rules — hold *across* timesteps: their heads are
//!   asserted at `t + 1` from bodies evaluated at the (deductively
//!   closed) state of `t`. Dedalus's explicit-persistence idiom is an
//!   inductive rule `R(x̄) ← R(x̄)`; nothing persists unless a rule
//!   says so.
//!
//! A run produces the trace `S₀, S₁, …`; like the noninflationary
//! languages of Section 4.2, reactive programs need not quiesce, so the
//! runner detects both **fixpoints** (`Sₜ₊₁ = Sₜ`) and **limit cycles**
//! (a repeated state, e.g. a blinking light) and otherwise stops at the
//! step budget.

use crate::ExchangeError;
use std::ops::ControlFlow;
use unchained_common::{FxHashMap, Instance, Symbol, Tuple};
use unchained_core::exec::{for_each_match, IndexCache, Sources};
use unchained_core::ir::Plan;
use unchained_core::planner::plan_rule;
use unchained_core::subst::{active_domain, instantiate};
use unchained_core::{inflationary, EvalError, EvalOptions};
use unchained_parser::{check_range_restricted, classify, HeadLiteral, Language, Program};

/// A temporal program: deductive (same-timestep) and inductive
/// (next-timestep) Datalog¬ rules over one schema.
#[derive(Clone, Debug)]
pub struct TemporalProgram {
    /// Rules closing each timestep's state (inflationary semantics).
    pub deductive: Program,
    /// Rules producing the next timestep's facts (one parallel firing
    /// against the deductively closed state).
    pub inductive: Program,
}

/// How a temporal run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemporalEnd {
    /// `Sₜ₊₁ = Sₜ`: the system quiesced.
    Fixpoint {
        /// The quiescent timestep.
        at: usize,
    },
    /// `Sₜ = Sₜ₋ₚ` for period `p > 0`: a limit cycle (e.g. a blinker).
    Cycle {
        /// First timestep of the repeated state.
        first: usize,
        /// Cycle length.
        period: usize,
    },
    /// The step budget ran out with no repetition detected.
    BudgetExhausted,
}

/// A temporal run: the state trace and how it ended.
#[derive(Clone, Debug)]
pub struct TemporalRun {
    /// `trace[t]` = the deductively closed state at timestep `t`.
    pub trace: Vec<Instance>,
    /// Why the run stopped.
    pub end: TemporalEnd,
}

impl TemporalRun {
    /// The final state.
    pub fn last(&self) -> &Instance {
        self.trace.last().expect("trace nonempty")
    }
}

/// Runs a temporal program from `initial` for at most `max_steps`
/// timesteps.
///
/// ```
/// use unchained_common::{Instance, Interner, Tuple, Value};
/// use unchained_exchange::temporal::{run_temporal, TemporalEnd, TemporalProgram};
/// use unchained_parser::parse_program;
///
/// let mut interner = Interner::new();
/// // The blinker: `on` toggles each step — a period-2 limit cycle.
/// let inductive = parse_program(
///     "lamp(x) :- lamp(x). on(x) :- lamp(x), !on(x).",
///     &mut interner,
/// ).unwrap();
/// let lamp = interner.get("lamp").unwrap();
/// let mut initial = Instance::new();
/// initial.insert_fact(lamp, Tuple::from([Value::Int(1)]));
/// let program = TemporalProgram { deductive: parse_program("", &mut interner).unwrap(), inductive };
/// let run = run_temporal(&program, &initial, 100).unwrap();
/// assert!(matches!(run.end, TemporalEnd::Cycle { period: 2, .. }));
/// ```
///
/// # Errors
/// Propagates engine errors from either rule set: inductive rules
/// outside Datalog¬ (a multi-head rule, say) or not range-restricted,
/// and an arity conflict between the inductive rules and a closed state
/// (wrapped as [`ExchangeError::Local`] with pseudo-peer names
/// `deductive` / `inductive`).
pub fn run_temporal(
    program: &TemporalProgram,
    initial: &Instance,
    max_steps: usize,
) -> Result<TemporalRun, ExchangeError> {
    fn local(which: &str) -> impl Fn(EvalError) -> ExchangeError + '_ {
        move |error| ExchangeError::Local {
            peer: which.to_string(),
            error,
        }
    }
    // The inductive rules fire once a timestep, each into its one
    // positive head, under a plan that binds every head variable: the
    // checks `inflationary::eval` makes of the deductive rules.
    let found = classify(&program.inductive);
    if found > Language::DatalogNeg {
        let engine_accepts = Language::DatalogNeg;
        let error = EvalError::WrongLanguage {
            engine_accepts,
            found,
        };
        return Err(local("inductive")(error));
    }
    check_range_restricted(&program.inductive, false).map_err(|e| local("inductive")(e.into()))?;
    let inductive_plans: Vec<Plan> = program.inductive.rules.iter().map(plan_rule).collect();

    let mut trace: Vec<Instance> = Vec::new();
    let mut seen: FxHashMap<u64, Vec<(usize, Instance)>> = FxHashMap::default();
    let mut state = initial.clone();
    loop {
        // Deductive closure of the current timestep.
        let closed = inflationary::eval(&program.deductive, &state, EvalOptions::default())
            .map_err(local("deductive"))?
            .instance;
        // Repetition detection on closed states.
        let t = trace.len();
        let fp = closed.fingerprint();
        if let Some(bucket) = seen.get(&fp) {
            if let Some((first, _)) = bucket.iter().find(|(_, s)| s.same_facts(&closed)) {
                let period = t - first;
                trace.push(closed);
                return Ok(TemporalRun {
                    trace,
                    end: if period == 1 {
                        // Immediate repetition of the previous state.
                        TemporalEnd::Fixpoint { at: *first }
                    } else {
                        TemporalEnd::Cycle {
                            first: *first,
                            period,
                        }
                    },
                });
            }
        }
        seen.entry(fp).or_default().push((t, closed.clone()));
        trace.push(closed.clone());
        if t >= max_steps {
            return Ok(TemporalRun {
                trace,
                end: TemporalEnd::BudgetExhausted,
            });
        }
        unchained_core::input_schema(&program.inductive, &closed).map_err(local("inductive"))?;
        // One parallel inductive firing builds S_{t+1}.
        let adom = active_domain(&program.inductive, &closed);
        let mut cache = IndexCache::new();
        let mut next = Instance::new();
        for (rule, plan) in program.inductive.rules.iter().zip(&inductive_plans) {
            let HeadLiteral::Pos(head) = &rule.head[0] else {
                unreachable!("Datalog¬ heads are positive")
            };
            let _ = for_each_match(
                plan,
                Sources::simple(&closed),
                &adom,
                &mut cache,
                &mut |env| {
                    let tuple: Tuple = instantiate(&head.args, env);
                    let pred: Symbol = head.pred;
                    next.insert_fact(pred, tuple);
                    ControlFlow::Continue(())
                },
            );
        }
        state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Value};
    use unchained_parser::parse_program;

    fn empty_program() -> Program {
        Program::new()
    }

    /// A counter walking a successor chain: `at` moves one step per
    /// timestep (succ is re-asserted by explicit persistence).
    #[test]
    fn counter_walks_the_chain() {
        let mut i = Interner::new();
        let inductive = parse_program(
            "succ(x,y) :- succ(x,y).\n\
             at(y) :- at(x), succ(x,y).",
            &mut i,
        )
        .unwrap();
        let succ = i.get("succ").unwrap();
        let at = i.get("at").unwrap();
        let mut initial = Instance::new();
        for k in 0..5i64 {
            initial.insert_fact(succ, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        initial.insert_fact(at, Tuple::from([Value::Int(0)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let run = run_temporal(&program, &initial, 100).unwrap();
        // At timestep t the counter is at position t (until it falls
        // off the chain and the at-relation empties → fixpoint).
        assert!(run.trace[3].contains_fact(at, &Tuple::from([Value::Int(3)])));
        assert!(!run.trace[3].contains_fact(at, &Tuple::from([Value::Int(2)])));
        assert!(matches!(run.end, TemporalEnd::Fixpoint { .. }));
    }

    /// The blinker: `on` toggles every timestep — a period-2 limit
    /// cycle, detected as such.
    #[test]
    fn blinker_is_a_period_two_cycle() {
        let mut i = Interner::new();
        let inductive = parse_program(
            "lamp(x) :- lamp(x).\n\
             on(x) :- lamp(x), !on(x).",
            &mut i,
        )
        .unwrap();
        let lamp = i.get("lamp").unwrap();
        let on = i.get("on").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(lamp, Tuple::from([Value::Int(1)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let run = run_temporal(&program, &initial, 100).unwrap();
        assert!(matches!(run.end, TemporalEnd::Cycle { period: 2, .. }));
        // Alternating on/off along the trace.
        let lit = |t: usize| run.trace[t].contains_fact(on, &Tuple::from([Value::Int(1)]));
        assert!(!lit(0) && lit(1) && !lit(2));
    }

    /// A state relation the inductive rules read with another arity is
    /// an arity conflict of the inductive program, not a panic.
    #[test]
    fn inductive_arity_conflict_is_an_error() {
        let mut i = Interner::new();
        let inductive = parse_program("L(x,y) :- L(x,y).", &mut i).unwrap();
        let l = i.get("L").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(l, Tuple::from([Value::Int(1)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let err = run_temporal(&program, &initial, 10).unwrap_err();
        assert!(
            matches!(
                &err,
                ExchangeError::Local {
                    peer,
                    error: EvalError::Analysis(unchained_parser::AnalysisError::ArityConflict(_)),
                } if peer == "inductive"
            ),
            "{err:?}"
        );
    }

    /// An inductive rule with two heads is outside Datalog¬, which fires
    /// one head a rule: rejected at entry, not run with its first head.
    #[test]
    fn multi_head_inductive_rule_is_rejected() {
        let mut i = Interner::new();
        let inductive = parse_program("A(x), B(x) :- C(x).", &mut i).unwrap();
        let c = i.get("C").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(c, Tuple::from([Value::Int(1)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let err = run_temporal(&program, &initial, 10).unwrap_err();
        assert!(
            matches!(
                &err,
                ExchangeError::Local {
                    peer,
                    error: EvalError::WrongLanguage { .. },
                } if peer == "inductive"
            ),
            "{err:?}"
        );
    }

    /// A head variable no body literal binds would invent a value, which
    /// Datalog¬ does not: rejected at entry, not a panic in the executor.
    #[test]
    fn inductive_head_only_variable_is_an_error() {
        let mut i = Interner::new();
        let inductive = parse_program("P(x,y) :- C(x).", &mut i).unwrap();
        let c = i.get("C").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(c, Tuple::from([Value::Int(1)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let err = run_temporal(&program, &initial, 10).unwrap_err();
        assert!(
            matches!(
                &err,
                ExchangeError::Local {
                    peer,
                    error: EvalError::WrongLanguage {
                        found: Language::DatalogNegNew,
                        ..
                    },
                } if peer == "inductive"
            ),
            "{err:?}"
        );
    }

    /// Deductive rules close each timestep: reachability is recomputed
    /// within every step while edges evolve inductively.
    #[test]
    fn deductive_closure_within_each_step() {
        let mut i = Interner::new();
        let deductive =
            parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        // Edges persist, and one new edge appears at every step from a
        // pending queue.
        let inductive = parse_program(
            "G(x,y) :- G(x,y).\n\
             nextedge(x,y,q) :- nextedge(x,y,q), !turn(q).\n\
             turn(q) :- turn(q).\n\
             G(x,y) :- nextedge(x,y,q), turn(q).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let nextedge = i.get("nextedge").unwrap();
        let turn = i.get("turn").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(g, Tuple::from([Value::Int(0), Value::Int(1)]));
        initial.insert_fact(
            nextedge,
            Tuple::from([Value::Int(1), Value::Int(2), Value::Int(0)]),
        );
        initial.insert_fact(turn, Tuple::from([Value::Int(0)]));
        let program = TemporalProgram {
            deductive,
            inductive,
        };
        let run = run_temporal(&program, &initial, 50).unwrap();
        // Step 0: only 0→1 closed. Step 1: edge 1→2 arrives; closure
        // includes 0→2.
        assert!(!run.trace[0].contains_fact(t, &Tuple::from([Value::Int(0), Value::Int(2)])));
        assert!(run.trace[1].contains_fact(t, &Tuple::from([Value::Int(0), Value::Int(2)])));
        assert!(matches!(run.end, TemporalEnd::Fixpoint { .. }));
    }

    /// Without a persistence rule, facts evaporate: Dedalus's explicit
    /// persistence, observed.
    #[test]
    fn no_persistence_rule_no_persistence() {
        let mut i = Interner::new();
        let inductive = parse_program("other(x) :- seed(x).", &mut i).unwrap();
        let seed = i.get("seed").unwrap();
        let other = i.get("other").unwrap();
        let mut initial = Instance::new();
        initial.insert_fact(seed, Tuple::from([Value::Int(9)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let run = run_temporal(&program, &initial, 10).unwrap();
        assert!(run.trace[1].contains_fact(other, &Tuple::from([Value::Int(9)])));
        assert!(!run.trace[1].contains_fact(seed, &Tuple::from([Value::Int(9)])));
        // Step 2: everything is gone (other had no persistence either).
        assert!(run.trace[2].is_empty());
        assert!(matches!(run.end, TemporalEnd::Fixpoint { .. }));
    }

    #[test]
    fn budget_exhaustion_reported() {
        // An ever-growing counter chain never repeats within budget…
        // here simulated with an unbounded queue? Values cannot grow, so
        // use a long chain and a tiny budget instead.
        let mut i = Interner::new();
        let inductive =
            parse_program("succ(x,y) :- succ(x,y). at(y) :- at(x), succ(x,y).", &mut i).unwrap();
        let succ = i.get("succ").unwrap();
        let at = i.get("at").unwrap();
        let mut initial = Instance::new();
        for k in 0..50i64 {
            initial.insert_fact(succ, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        initial.insert_fact(at, Tuple::from([Value::Int(0)]));
        let program = TemporalProgram {
            deductive: empty_program(),
            inductive,
        };
        let run = run_temporal(&program, &initial, 5).unwrap();
        assert_eq!(run.trace.len(), 6);
        assert!(matches!(run.end, TemporalEnd::BudgetExhausted));
    }
}
