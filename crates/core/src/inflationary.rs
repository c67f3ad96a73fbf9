//! Inflationary (forward chaining) Datalog¬ — Section 4.1.
//!
//! The semantics of the two PODS 1988 papers ("Why not negation by
//! fixpoint?"): all rules are fired in parallel with all applicable
//! instantiations, facts accumulate, and a negative literal `¬A` is true
//! at a stage iff `A` has not been inferred *so far* — which does not
//! preclude `A` from being inferred later. The sequence
//! `Γ_P(I) ⊆ Γ²_P(I) ⊆ …` reaches its fixpoint `Γ^ω_P(I)` after
//! polynomially many stages.
//!
//! By Theorem 4.2 this language expresses exactly the **fixpoint
//! queries**.

use crate::error::EvalError;
use crate::fixpoint::{self, Accumulate};
use crate::options::{EvalOptions, FixpointRun};
use crate::require_language;
use unchained_common::{FxHashMap, Instance, Symbol, Tuple};
use unchained_parser::{check_range_restricted, Language, Program};

/// Evaluates a Datalog¬ program under the inflationary semantics.
///
/// Any Datalog¬ program is accepted — including non-stratifiable ones
/// like `win(x) ← moves(x,y), ¬win(y)` — because the procedural
/// semantics is defined for all of them. Termination is guaranteed (the
/// instance grows within a fixed polynomial space of facts), so
/// `options.max_stages` is only a safety valve.
///
/// Stages after the first fire only the rules' semi-naive variants over
/// the previous stage's delta. That is sound for the *inflationary*
/// semantics even with negation — unlike for the noninflationary
/// languages — by a monotonicity argument: facts only accumulate, so a
/// negative literal `¬A` that holds at stage `k+1` also held at stage
/// `k`. An instantiation newly firing at stage `k+1` therefore must use
/// at least one positive fact first derived at stage `k` (its negative
/// part cannot have *become* true). Each stage derives exactly the facts
/// a full Γ_P stage would — including for the stage-sensitive programs
/// of Examples 4.1/4.3/4.4, which the tests check.
///
/// # Errors
/// Rejects programs with head negation, invention, or nondeterministic
/// constructs, and non-range-restricted rules.
pub fn eval(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    require_language(program, Language::DatalogNeg)?;
    check_range_restricted(program, false)?;
    fixpoint::eval(
        program,
        input,
        &options,
        "inflationary",
        &mut Accumulate::delta(),
    )
}

/// A fixpoint run that also records the *birth stage* of every derived
/// fact — the procedural information the inflationary semantics turns
/// into meaning (Example 4.1 reads shortest-path distance off it).
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The fixpoint instance.
    pub instance: Instance,
    /// Stages performed (as in [`FixpointRun`]).
    pub stages: usize,
    /// `birth[(pred, tuple)]` = stage at which the fact was first
    /// inferred (input facts are not recorded).
    pub birth: FxHashMap<(Symbol, Tuple), usize>,
}

impl TracedRun {
    /// The birth stage of a fact (`None` for input facts and facts
    /// never derived).
    pub fn birth_stage(&self, pred: Symbol, tuple: &Tuple) -> Option<usize> {
        self.birth.get(&(pred, tuple.clone())).copied()
    }
}

/// Like [`eval`], additionally recording when each fact was first
/// inferred.
pub fn eval_traced(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<TracedRun, EvalError> {
    require_language(program, Language::DatalogNeg)?;
    check_range_restricted(program, false)?;
    let mut birth = FxHashMap::default();
    let run = fixpoint::eval(
        program,
        input,
        &options,
        "inflationary-traced",
        &mut Accumulate::with_births(&mut birth),
    )?;
    Ok(TracedRun {
        instance: run.instance,
        stages: run.stages,
        birth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    fn line(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst
    }

    /// Example 4.1 of the paper: the `closer` program.
    #[test]
    fn paper_example_closer() {
        let mut i = Interner::new();
        let program = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), G(z,y).\n\
             closer(x,y,xp,yp) :- T(x,y), !T(xp,yp).",
            &mut i,
        )
        .unwrap();
        // Line 0→1→2: d(0,1)=d(1,2)=1, d(0,2)=2, others ∞.
        let input = line(&mut i, 3);
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        let closer = i.get("closer").unwrap();
        let rel = run.instance.relation(closer).unwrap();
        let v = Value::Int;
        // Note on fidelity: the paper's prose defines closer with
        // d(x,y) ≤ d(x',y'), but its own stage argument ("if T(x,y) and
        // ¬T(x',y') hold at some stage n, then d(x,y) ≤ n and
        // d(x',y') > n") yields the *strict* comparison — a pair with
        // d(x,y) = d(x',y') never satisfies both conditions at one
        // stage. We test the procedural semantics the program actually
        // has: closer(x,y,x',y') ⟺ d(x,y) < d(x',y').
        //
        // d(0,1) < d(0,2): closer(0,1,0,2) holds.
        assert!(rel.contains(&Tuple::from([v(0), v(1), v(0), v(2)])));
        // d(0,2) < d(1,0) (=∞): holds.
        assert!(rel.contains(&Tuple::from([v(0), v(2), v(1), v(0)])));
        // d(0,2) < d(0,1) is false: must be absent.
        assert!(!rel.contains(&Tuple::from([v(0), v(2), v(0), v(1)])));
        // Equal distances: neither is strictly closer.
        assert!(!rel.contains(&Tuple::from([v(0), v(1), v(1), v(2)])));
        assert!(!rel.contains(&Tuple::from([v(1), v(2), v(0), v(1)])));
        // Exhaustive check against a distance oracle.
        let dist = |a: i64, b: i64| -> i64 {
            // distance in the 3-line (∞ → i64::MAX)
            if a < b {
                b - a
            } else {
                i64::MAX
            }
        };
        for x in 0..3i64 {
            for y in 0..3i64 {
                for xp in 0..3i64 {
                    for yp in 0..3i64 {
                        let expected = dist(x, y) < dist(xp, yp);
                        let got = rel.contains(&Tuple::from([v(x), v(y), v(xp), v(yp)]));
                        assert_eq!(got, expected, "closer({x},{y},{xp},{yp})");
                    }
                }
            }
        }
    }

    /// Example 4.3 of the paper: complement of transitive closure via the
    /// delayed-firing technique, verbatim from the paper (assumes G
    /// nonempty).
    #[test]
    fn paper_example_delayed_complement() {
        let mut i = Interner::new();
        let program = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             old-T(x,y) :- T(x,y).\n\
             old-T-except-final(x,y) :- T(x,y), T(xp,zp), T(zp,yp), !T(xp,yp).\n\
             CT(x,y) :- !T(x,y), old-T(xp,yp), !old-T-except-final(xp,yp).",
            &mut i,
        )
        .unwrap();
        for n in [2i64, 3, 5] {
            let input = line(&mut i, n);
            let run = eval(&program, &input, EvalOptions::default()).unwrap();
            let strat = crate::stratified::eval(
                &parse_program(
                    "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y).",
                    &mut i,
                )
                .unwrap(),
                &input,
                EvalOptions::default(),
            )
            .unwrap();
            let ct = i.get("CT").unwrap();
            assert!(
                run.instance
                    .relation(ct)
                    .unwrap()
                    .same_tuples(strat.instance.relation(ct).unwrap()),
                "inflationary delayed CT must match stratified CT (n={n})"
            );
        }
    }

    #[test]
    fn win_move_game_inflationary_two_valued() {
        // Under inflationary semantics win is computed procedurally; on
        // a line 0→1→2→3 stage parity yields the game-theoretic answer
        // only partially (the inflationary answer differs from WF in
        // general, but on this acyclic line the true wins appear).
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        let win = i.get("win").unwrap();
        let mut input = Instance::new();
        for k in 0..3i64 {
            input.insert_fact(moves, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        let run = eval(&program, &input, EvalOptions::default()).unwrap();
        let rel = run.instance.relation(win).unwrap();
        // Stage 1 infers win(0), win(1), win(2) (no win facts yet), and
        // nothing changes after: the inflationary answer here is the
        // overestimate {0,1,2}.
        assert_eq!(rel.len(), 3);
        assert!(!rel.contains(&Tuple::from([Value::Int(3)])));
    }

    #[test]
    fn matches_minimum_model_on_pure_datalog() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let input = line(&mut i, 6);
        let inf = eval(&program, &input, EvalOptions::default()).unwrap();
        let mm = crate::seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(inf.instance.same_facts(&mm.instance));
    }

    #[test]
    fn rejects_nondeterministic_syntax() {
        let mut i = Interner::new();
        let program = parse_program("A(x), B(x) :- C(x).", &mut i).unwrap();
        assert!(matches!(
            eval(&program, &Instance::new(), EvalOptions::default()),
            Err(EvalError::WrongLanguage { .. })
        ));
    }

    /// Inflationary semantics by full Γ_P stages: every rule fires
    /// every stage, the reference the Δ-driven stages are held to.
    fn full_stages(program: &Program, input: &Instance) -> crate::FixpointRun {
        fixpoint::eval(
            program,
            input,
            &EvalOptions::default(),
            "inflationary-full",
            &mut Accumulate::full(),
        )
        .unwrap()
    }

    #[test]
    fn seminaive_matches_naive_inflationary_on_stage_sensitive_programs() {
        // The paper's three stage-sensitive example programs: identical
        // answers AND identical stage counts under the semi-naive
        // optimization as under full Γ_P stages.
        let mut i = Interner::new();
        let programs = [
            // Example 4.1 closer
            "T(x,y) :- G(x,y).\nT(x,y) :- T(x,z), G(z,y).\ncloser(x,y,xp,yp) :- T(x,y), !T(xp,yp).",
            // Example 4.3 delayed complement
            "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).\nold-T(x,y) :- T(x,y).\nold-T-except-final(x,y) :- T(x,y), T(xp,zp), T(zp,yp), !T(xp,yp).\nCT(x,y) :- !T(x,y), old-T(xp,yp), !old-T-except-final(xp,yp).",
            // Example 4.4 timestamped good
            "bad(x) :- G(y,x), !good(y).\ndelay :- .\ngood(x) :- delay, !bad(x).\nbad-stamped(x,t) :- G(y,x), !good(y), good(t).\ndelay-stamped(t) :- good(t).\ngood(x) :- delay-stamped(t), !bad-stamped(x,t).",
        ];
        for src in programs {
            let program = parse_program(src, &mut i).unwrap();
            for n in [2i64, 4, 6] {
                let input = line(&mut i, n);
                let a = full_stages(&program, &input);
                let b = eval(&program, &input, EvalOptions::default()).unwrap();
                assert!(
                    a.instance.same_facts(&b.instance),
                    "answers differ (n={n}):\n{src}"
                );
                assert_eq!(a.stages, b.stages, "stage counts differ (n={n}):\n{src}");
            }
        }
    }

    #[test]
    fn seminaive_matches_on_unstratifiable_win() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let moves = i.get("moves").unwrap();
        for seed in 0..5u64 {
            // Deterministic pseudo-random games.
            let mut input = Instance::new();
            input.ensure(moves, 2);
            let mut s = seed;
            for _ in 0..10 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 33) % 7) as i64;
                let b = ((s >> 13) % 7) as i64;
                input.insert_fact(moves, Tuple::from([Value::Int(a), Value::Int(b)]));
            }
            let a = full_stages(&program, &input);
            let b = eval(&program, &input, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "seed {seed}");
            assert_eq!(a.stages, b.stages, "seed {seed}");
        }
    }

    #[test]
    fn traced_run_birth_stages_are_distances() {
        // Example 4.1's insight, directly observable: T(x,y) is born at
        // stage d(x,y).
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- T(x,z), G(z,y).", &mut i).unwrap();
        let input = line(&mut i, 6);
        let t = i.get("T").unwrap();
        let traced = eval_traced(&program, &input, EvalOptions::default()).unwrap();
        for a in 0..6i64 {
            for b in (a + 1)..6 {
                let tuple = Tuple::from([Value::Int(a), Value::Int(b)]);
                assert_eq!(
                    traced.birth_stage(t, &tuple),
                    Some((b - a) as usize),
                    "T({a},{b})"
                );
            }
        }
        // Input facts and underivable facts have no birth stage.
        let g = i.get("G").unwrap();
        assert_eq!(
            traced.birth_stage(g, &Tuple::from([Value::Int(0), Value::Int(1)])),
            None
        );
        assert_eq!(
            traced.birth_stage(t, &Tuple::from([Value::Int(3), Value::Int(0)])),
            None
        );
        // Traced and untraced runs agree.
        let plain = eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(plain.instance.same_facts(&traced.instance));
        assert_eq!(plain.stages, traced.stages);
    }

    #[test]
    fn accepts_unstratifiable_programs() {
        let mut i = Interner::new();
        let program = parse_program("p :- !q. q :- !p.", &mut i).unwrap();
        let run = eval(&program, &Instance::new(), EvalOptions::default()).unwrap();
        // Stage 1: neither p nor q present, so both rules fire: {p, q}.
        let p = i.get("p").unwrap();
        let q = i.get("q").unwrap();
        assert!(run.instance.contains_fact(p, &Tuple::from([])));
        assert!(run.instance.contains_fact(q, &Tuple::from([])));
    }
}
