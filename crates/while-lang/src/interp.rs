//! Interpreter for the while / fixpoint languages.

use crate::ast::{Assignment, LoopCondition, Stmt, WhileProgram};
use std::fmt;
use unchained_common::{
    FxHashMap, HeapSize, Instance, Relation, Span, SpanKind, Telemetry, Tracer, Value,
};
use unchained_fo::{eval_formula_joined, eval_sentence, FoError};

/// Supplies the choices of the witness operator `W`.
pub trait WitnessChooser {
    /// Picks an index in `0..n` among the satisfying assignments
    /// (sorted). Called with `n ≥ 1`.
    fn choose(&mut self, n: usize) -> usize;
}

/// A trivial chooser always picking the least satisfying assignment.
impl WitnessChooser for () {
    fn choose(&mut self, _n: usize) -> usize {
        0
    }
}

/// Any `FnMut(usize) -> usize` can serve as a chooser.
impl<F: FnMut(usize) -> usize> WitnessChooser for F {
    fn choose(&mut self, n: usize) -> usize {
        (self)(n).min(n - 1)
    }
}

/// Interpreter errors.
#[derive(Clone, PartialEq, Debug)]
pub enum WhileError {
    /// A formula evaluation failed.
    Fo(FoError),
    /// A loop exceeded the iteration budget (while programs need not
    /// terminate).
    IterationLimitExceeded(usize),
    /// The program revisited a state inside a sentence-guarded loop (it
    /// will never terminate).
    Diverged {
        /// Iteration at which a state repeated.
        iteration: usize,
    },
    /// The program uses the witness operator but no chooser was given.
    WitnessWithoutChooser,
}

impl fmt::Display for WhileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhileError::Fo(e) => write!(f, "{e}"),
            WhileError::IterationLimitExceeded(n) => {
                write!(f, "loop iteration limit {n} exceeded")
            }
            WhileError::Diverged { iteration } => {
                write!(f, "while-loop revisited a state at iteration {iteration}")
            }
            WhileError::WitnessWithoutChooser => {
                write!(
                    f,
                    "program uses the witness operator W but no chooser was supplied"
                )
            }
        }
    }
}

impl std::error::Error for WhileError {}

impl From<FoError> for WhileError {
    fn from(e: FoError) -> Self {
        WhileError::Fo(e)
    }
}

/// Result of a terminating while-program run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The final instance (inputs plus every assigned relation).
    pub instance: Instance,
    /// Total number of loop-body executions across all loops.
    pub iterations: usize,
}

struct Interp<'c> {
    domain: Vec<Value>,
    max_iterations: usize,
    iterations: usize,
    chooser: Option<&'c mut dyn WitnessChooser>,
    tracer: Tracer,
}

impl Interp<'_> {
    fn exec_block(&mut self, stmts: &[Stmt], instance: &mut Instance) -> Result<bool, WhileError> {
        let mut changed = false;
        for stmt in stmts {
            changed |= self.exec(stmt, instance)?;
        }
        Ok(changed)
    }

    fn exec(&mut self, stmt: &Stmt, instance: &mut Instance) -> Result<bool, WhileError> {
        match stmt {
            Stmt::Assign {
                target,
                vars,
                formula,
                mode,
            } => {
                let rel = eval_formula_joined(formula, vars, instance, &self.domain)?;
                // Mid-assignment, the evaluated comprehension and the
                // instance are both live — that is the space peak.
                if self.tracer.is_enabled() {
                    let facts = instance.fact_count() + rel.len();
                    self.tracer.raise("peak_facts", facts as u64);
                    let bytes = instance.heap_bytes() + rel.heap_bytes();
                    self.tracer.raise("bytes_peak", bytes as u64);
                }
                Ok(apply_assignment(instance, *target, rel, *mode))
            }
            Stmt::AssignWitness {
                target,
                vars,
                formula,
                mode,
            } => {
                let rel = eval_formula_joined(formula, vars, instance, &self.domain)?;
                let chosen = if rel.is_empty() {
                    Relation::new(vars.len())
                } else {
                    let sorted = rel.sorted();
                    let chooser = self
                        .chooser
                        .as_deref_mut()
                        .ok_or(WhileError::WitnessWithoutChooser)?;
                    if self.tracer.is_enabled() {
                        let mut choice = Span::leaf(SpanKind::Phase, "choose");
                        choice.gauges.push(("choices", sorted.len() as u64));
                        self.tracer.leaf(choice);
                    }
                    let pick = chooser.choose(sorted.len()).min(sorted.len() - 1);
                    Relation::from_tuples(vars.len(), [sorted[pick].clone()])
                };
                Ok(apply_assignment(instance, *target, chosen, *mode))
            }
            Stmt::While { condition, body } => {
                let mut any_change = false;
                // Cycle detection for sentence-guarded loops (change-
                // guarded loops on cumulative bodies always terminate,
                // but Replace bodies can cycle there too, so track all).
                let mut seen: FxHashMap<u64, Vec<Instance>> = FxHashMap::default();
                loop {
                    let proceed = match condition {
                        LoopCondition::Change => true,
                        LoopCondition::Sentence(f) => eval_sentence(f, instance, &self.domain)?,
                    };
                    if !proceed {
                        return Ok(any_change);
                    }
                    self.iterations += 1;
                    if self.iterations > self.max_iterations {
                        return Err(WhileError::IterationLimitExceeded(self.max_iterations));
                    }
                    let round_guard = self
                        .tracer
                        .span(SpanKind::Round, format!("iteration {}", self.iterations));
                    let changed = self.exec_block(body, instance)?;
                    self.tracer.gauge("facts", instance.fact_count() as u64);
                    self.tracer.gauge("changed", u64::from(changed));
                    drop(round_guard);
                    any_change |= changed;
                    match condition {
                        LoopCondition::Change => {
                            if !changed {
                                return Ok(any_change);
                            }
                        }
                        LoopCondition::Sentence(_) => {
                            // A repeated state under the same guard means
                            // the loop never exits.
                            let fp = instance.fingerprint();
                            let bucket = seen.entry(fp).or_default();
                            if bucket.iter().any(|i| i.same_facts(instance)) {
                                return Err(WhileError::Diverged {
                                    iteration: self.iterations,
                                });
                            }
                            bucket.push(instance.clone());
                        }
                    }
                }
            }
        }
    }
}

fn apply_assignment(
    instance: &mut Instance,
    target: unchained_common::Symbol,
    rel: Relation,
    mode: Assignment,
) -> bool {
    match mode {
        Assignment::Replace => {
            let changed = instance
                .relation(target)
                .is_none_or(|old| !old.same_tuples(&rel));
            let arity = rel.arity();
            *instance.ensure(target, arity) = rel;
            changed
        }
        Assignment::Cumulate => {
            let arity = rel.arity();
            instance.ensure(target, arity).union_with(&rel) > 0
        }
    }
}

/// Runs `program` on `input`.
///
/// The evaluation domain is `adom(input) ∪ constants(program)`, fixed
/// for the whole run (assignments only produce tuples over this
/// domain, mirroring the genericity of the language). `max_iterations`
/// bounds the *total* number of loop-body executions; `chooser` is
/// required iff the program uses the witness operator.
pub fn run(
    program: &WhileProgram,
    input: &Instance,
    max_iterations: usize,
    chooser: Option<&mut dyn WitnessChooser>,
) -> Result<RunResult, WhileError> {
    run_traced(program, input, max_iterations, chooser, Telemetry::off())
}

/// Like [`run`], but records loop iterations and witness choice points
/// as a run of `telemetry` (engine name `"while"`). The run ends even
/// when it fails, so budget and divergence errors still carry the
/// partial picture.
pub fn run_traced(
    program: &WhileProgram,
    input: &Instance,
    max_iterations: usize,
    mut chooser: Option<&mut dyn WitnessChooser>,
    telemetry: Telemetry,
) -> Result<RunResult, WhileError> {
    if program.has_witness() && chooser.is_none() {
        return Err(WhileError::WitnessWithoutChooser);
    }
    let mut domain: Vec<Value> = input.adom().into_iter().collect();
    domain.extend(program.constants());
    domain.sort_unstable();
    domain.dedup();

    let mut instance = input.clone();
    // Relation variables start out empty (like the `good += ∅`
    // initialization of Example 4.4); create them up front so formulas
    // may mention a relation before its first assignment executes.
    fn declare(stmts: &[Stmt], instance: &mut Instance) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, vars, .. } | Stmt::AssignWitness { target, vars, .. } => {
                    if instance.relation(*target).is_none() {
                        instance.ensure(*target, vars.len());
                    }
                }
                Stmt::While { body, .. } => declare(body, instance),
            }
        }
    }
    declare(&program.stmts, &mut instance);
    let tracer = telemetry.tracer().clone();
    let run = telemetry.run("while");
    let mut interp = Interp {
        domain,
        max_iterations,
        iterations: 0,
        chooser: chooser.take(),
        tracer: tracer.clone(),
    };
    let outcome = interp.exec_block(&program.stmts, &mut instance);
    tracer.gauge("iterations", interp.iterations as u64);
    tracer.gauge("final_facts", instance.fact_count() as u64);
    if tracer.is_enabled() {
        tracer.gauge("bytes_final", instance.heap_bytes() as u64);
    }
    drop(run);
    outcome?;
    Ok(RunResult {
        instance,
        iterations: interp.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Symbol, Tuple};
    use unchained_fo::{FoTerm, Formula, VarSet};

    fn line(interner: &mut Interner, n: i64) -> (Symbol, Instance) {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        (g, inst)
    }

    /// The transitive-closure fixpoint program:
    /// `while change do T += {(x,y) | G(x,y) ∨ ∃z(T(x,z) ∧ G(z,y))}`.
    fn tc_program(g: Symbol, t: Symbol) -> WhileProgram {
        let mut vs = VarSet::new();
        let (x, y, z) = (vs.var("x"), vs.var("y"), vs.var("z"));
        let phi = Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]).or(Formula::exists(
            [z],
            Formula::Atom(t, vec![FoTerm::Var(x), FoTerm::Var(z)])
                .and(Formula::Atom(g, vec![FoTerm::Var(z), FoTerm::Var(y)])),
        ));
        WhileProgram::new(vec![Stmt::While {
            condition: LoopCondition::Change,
            body: vec![Stmt::Assign {
                target: t,
                vars: vec![x, y],
                formula: phi,
                mode: Assignment::Cumulate,
            }],
        }])
    }

    #[test]
    fn fixpoint_transitive_closure() {
        let mut i = Interner::new();
        let (g, input) = line(&mut i, 5);
        let t = i.intern("T");
        let program = tc_program(g, t);
        assert!(program.is_fixpoint());
        let result = run(&program, &input, 1000, None).unwrap();
        assert_eq!(result.instance.relation(t).unwrap().len(), 10);
    }

    #[test]
    fn while_with_replacement_computes_sink_set() {
        // sinks := {x | ∀y ¬G(x,y)} — one straight-line assignment.
        let mut i = Interner::new();
        let (g, input) = line(&mut i, 4);
        let sinks = i.intern("sinks");
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let program = WhileProgram::new(vec![Stmt::Assign {
            target: sinks,
            vars: vec![x],
            formula: Formula::forall(
                [y],
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]).not(),
            ),
            mode: Assignment::Replace,
        }]);
        let result = run(&program, &input, 10, None).unwrap();
        let rel = result.instance.relation(sinks).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&Tuple::from([Value::Int(3)])));
    }

    #[test]
    fn example_4_4_good_nodes() {
        // The paper's Example 4.4:
        //   good += ∅; while change do good += {x | ∀y (G(y,x) → good(y))}
        // computes the nodes not reachable from a cycle.
        let mut i = Interner::new();
        let g = i.intern("G");
        let good = i.intern("good");
        let mut input = Instance::new();
        let v = Value::Int;
        // Graph: cycle 1→2→3→1, plus 3→4→5, and isolated-source 6→4.
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 4)] {
            input.insert_fact(g, Tuple::from([v(a), v(b)]));
        }
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let phi = Formula::forall(
            [y],
            Formula::Atom(g, vec![FoTerm::Var(y), FoTerm::Var(x)])
                .implies(Formula::Atom(good, vec![FoTerm::Var(y)])),
        );
        let program = WhileProgram::new(vec![Stmt::While {
            condition: LoopCondition::Change,
            body: vec![Stmt::Assign {
                target: good,
                vars: vec![x],
                formula: phi,
                mode: Assignment::Cumulate,
            }],
        }]);
        assert!(program.is_fixpoint());
        let result = run(&program, &input, 1000, None).unwrap();
        let rel = result.instance.relation(good).unwrap();
        // 1,2,3 are on a cycle; 4,5 are reachable from it. Only 6 is
        // good among non-cycle nodes... and 6 has no predecessors, so
        // good = {6}.
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&Tuple::from([v(6)])));
    }

    #[test]
    fn sentence_guard_terminates_when_false() {
        let mut i = Interner::new();
        let (g, input) = line(&mut i, 3);
        let r = i.intern("R");
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        // while ∃x G(x,x) do R := true — guard false immediately.
        let program = WhileProgram::new(vec![Stmt::While {
            condition: LoopCondition::Sentence(Formula::exists(
                [x, y],
                Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)])
                    .and(Formula::Eq(FoTerm::Var(x), FoTerm::Var(y))),
            )),
            body: vec![Stmt::Assign {
                target: r,
                vars: vec![],
                formula: Formula::True,
                mode: Assignment::Cumulate,
            }],
        }]);
        let result = run(&program, &input, 10, None).unwrap();
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn infinite_loop_detected() {
        // while true do R := R (no state change → divergence detected
        // at the second iteration).
        let mut i = Interner::new();
        let r = i.intern("R");
        let program = WhileProgram::new(vec![Stmt::While {
            condition: LoopCondition::Sentence(Formula::True),
            body: vec![Stmt::Assign {
                target: r,
                vars: vec![],
                formula: Formula::False,
                mode: Assignment::Replace,
            }],
        }]);
        assert!(matches!(
            run(&program, &Instance::new(), 100, None),
            Err(WhileError::Diverged { .. })
        ));
    }

    #[test]
    fn iteration_budget_enforced() {
        let mut i = Interner::new();
        let (g, input) = line(&mut i, 20);
        let t = i.intern("T");
        let program = tc_program(g, t);
        assert!(matches!(
            run(&program, &input, 3, None),
            Err(WhileError::IterationLimitExceeded(3))
        ));
    }

    #[test]
    fn witness_requires_chooser_and_picks_one() {
        let mut i = Interner::new();
        let (g, input) = line(&mut i, 4);
        let pick = i.intern("pick");
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let program = WhileProgram::new(vec![Stmt::AssignWitness {
            target: pick,
            vars: vec![x, y],
            formula: Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]),
            mode: Assignment::Replace,
        }]);
        assert!(matches!(
            run(&program, &input, 10, None),
            Err(WhileError::WitnessWithoutChooser)
        ));
        let mut chooser = |_n: usize| 1usize;
        let result = run(&program, &input, 10, Some(&mut chooser)).unwrap();
        let rel = result.instance.relation(pick).unwrap();
        assert_eq!(rel.len(), 1);
        // Sorted edges of the 4-line: (0,1),(1,2),(2,3); index 1 = (1,2).
        assert!(rel.contains(&Tuple::from([Value::Int(1), Value::Int(2)])));
    }

    #[test]
    fn witness_on_empty_relation_assigns_empty() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let pick = i.intern("pick");
        let mut input = Instance::new();
        input.ensure(g, 2);
        let mut vs = VarSet::new();
        let (x, y) = (vs.var("x"), vs.var("y"));
        let program = WhileProgram::new(vec![Stmt::AssignWitness {
            target: pick,
            vars: vec![x, y],
            formula: Formula::Atom(g, vec![FoTerm::Var(x), FoTerm::Var(y)]),
            mode: Assignment::Replace,
        }]);
        let mut chooser = |_n: usize| 0usize;
        let result = run(&program, &input, 10, Some(&mut chooser)).unwrap();
        assert!(result.instance.relation(pick).unwrap().is_empty());
    }
}
