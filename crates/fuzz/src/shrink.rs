//! Delta-debugging shrinker: walk a divergence down to a minimal repro.
//!
//! Greedy ddmin over three nested granularities — drop whole rules,
//! then body literals, then edb tuples — revalidating campaign safety
//! (range restriction, stratifiability, positive binding) and
//! re-running the oracle after every candidate edit, looping until a
//! full pass makes no progress. Rules are renormalized after literal
//! drops so the final repro still satisfies `parse(print(p)) == p` and
//! can be written to the corpus verbatim.

use unchained_common::{Instance, Interner};
use unchained_parser::{check_positively_bound, check_range_restricted, DependencyGraph, Program};

use crate::grammar::Campaign;
use crate::oracle::{self, Fault};

/// A minimized repro plus the work it took.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal diverging program (normalized).
    pub program: Program,
    /// The minimal diverging edb instance.
    pub instance: Instance,
    /// Candidate oracle evaluations performed.
    pub steps: usize,
}

/// True iff `program` is still a well-formed member of the campaign's
/// fragment — candidates that break safety are rejected, never tested.
fn valid(campaign: Campaign, program: &Program) -> bool {
    if program.rules.is_empty() || program.schema().is_err() {
        return false;
    }
    if check_range_restricted(program, campaign == Campaign::Invention).is_err() {
        return false;
    }
    match campaign {
        Campaign::Negation | Campaign::Planner | Campaign::EditScript | Campaign::Scale => {
            DependencyGraph::build(program).stratify().is_ok()
        }
        Campaign::Nondet => check_positively_bound(program, false).is_ok(),
        Campaign::Positive | Campaign::Invention | Campaign::Unstratified => true,
    }
}

/// Minimizes `(program, instance)` while the oracle keeps diverging.
/// `max_steps` bounds the total number of candidate evaluations.
pub fn shrink(
    campaign: Campaign,
    program: &Program,
    instance: &Instance,
    interner: &mut Interner,
    run_seed: u64,
    fault: Fault,
    max_steps: usize,
) -> ShrinkOutcome {
    let mut program = program.normalized();
    let mut instance = instance.clone();
    let mut steps = 0usize;

    let diverges = |p: &Program, i: &Instance, interner: &mut Interner| {
        oracle::check(campaign, p, i, interner, run_seed, fault)
            .divergence
            .is_some()
    };

    loop {
        let mut progressed = false;

        // Phase 1: drop whole rules.
        let mut idx = 0;
        while idx < program.rules.len() && program.rules.len() > 1 && steps < max_steps {
            let mut candidate = program.clone();
            candidate.rules.remove(idx);
            steps += 1;
            if valid(campaign, &candidate) && diverges(&candidate, &instance, interner) {
                program = candidate;
                progressed = true;
            } else {
                idx += 1;
            }
        }

        // Phase 2: drop body literals, renormalizing the edited rule.
        for ri in 0..program.rules.len() {
            let mut li = 0;
            while li < program.rules[ri].body.len() && steps < max_steps {
                let mut candidate = program.clone();
                candidate.rules[ri].body.remove(li);
                candidate.rules[ri] = candidate.rules[ri].normalized();
                steps += 1;
                if valid(campaign, &candidate) && diverges(&candidate, &instance, interner) {
                    program = candidate;
                    progressed = true;
                } else {
                    li += 1;
                }
            }
        }

        // Phase 3: drop edb tuples.
        let mut fi = 0;
        while fi < oracle::fact_list(&instance).len() && steps < max_steps {
            let candidate = oracle::without_facts(&instance, |i| i == fi);
            steps += 1;
            if diverges(&program, &candidate, interner) {
                instance = candidate;
                progressed = true;
            } else {
                fi += 1;
            }
        }

        if !progressed || steps >= max_steps {
            break;
        }
    }

    ShrinkOutcome {
        program: program.normalized(),
        instance,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate, GrammarConfig};

    /// With the drop-max-fact fault injected, any generated program
    /// that derives a fact diverges — and the shrinker must walk it
    /// down to a tiny, still-diverging, still-round-trippable repro.
    #[test]
    fn injected_fault_shrinks_to_three_rules_or_fewer() {
        let mut found = 0;
        for seed in 0..20u64 {
            let mut interner = Interner::new();
            let (p, inst) = generate(
                &mut interner,
                Campaign::Positive,
                GrammarConfig::default(),
                seed,
            );
            let outcome = oracle::check(
                Campaign::Positive,
                &p,
                &inst,
                &mut interner,
                seed,
                Fault::DropMaxFact,
            );
            if outcome.divergence.is_none() {
                continue; // empty answer: the fault has nothing to drop
            }
            found += 1;
            let shrunk = shrink(
                Campaign::Positive,
                &p,
                &inst,
                &mut interner,
                seed,
                Fault::DropMaxFact,
                5_000,
            );
            assert!(shrunk.program.rules.len() <= 3, "seed {seed}");
            assert!(valid(Campaign::Positive, &shrunk.program), "seed {seed}");
            // Still diverges, and still parses back to itself.
            let again = oracle::check(
                Campaign::Positive,
                &shrunk.program,
                &shrunk.instance,
                &mut interner,
                seed,
                Fault::DropMaxFact,
            );
            assert!(again.divergence.is_some(), "seed {seed}");
            let text = shrunk.program.display(&interner).to_string();
            let reparsed = unchained_parser::parse_program(&text, &mut interner).unwrap();
            assert_eq!(reparsed, shrunk.program, "seed {seed}:\n{text}");
        }
        assert!(
            found >= 5,
            "only {found} diverging seeds — fault leg inert?"
        );
    }
}
