//! Differential testing of the engine equivalences on *randomly
//! generated programs* — the theorems say the engines agree on every
//! program of a fragment, so we compare them on programs nobody
//! hand-picked (seeded, deterministic).

use unchained::common::{Instance, Interner};
use unchained::core::{
    inflationary, naive, noninflationary, seminaive, stratified, wellfounded, EvalOptions,
};
use unchained::fuzz::spec;
use unchained::harness::randprog::{random_edb, random_program, Fragment, RandProgConfig};
use unchained::nondet::{effect, EffOptions, NondetProgram};

const SEEDS: std::ops::Range<u64> = 0..40;

/// Inflationary semantics by its definition: the Datalog¬¬ stages of a
/// program without head negation under insertion priority, computed by
/// the reference evaluator, which shares no code with the engines.
/// Returns the fixpoint's facts and its stage count.
fn spec_inflationary(program: &unchained::parser::Program, input: &Instance) -> (spec::Db, usize) {
    let policy = noninflationary::ConflictPolicy::PreferPositive;
    match spec::datalog_negneg(program, input, policy, 1_000) {
        spec::Stages::Fixpoint { db, stages } => (db, stages),
        other => panic!("the reference reached no fixpoint: {other:?}"),
    }
}

#[test]
fn naive_equals_seminaive_on_random_positive_programs() {
    for seed in SEEDS {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::Positive,
            ..Default::default()
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 5, 6, seed ^ 0xABCD);
        let a = naive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        let b = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance), "seed {seed}");
    }
}

/// The semi-naive inflationary engine derives what full Γ_P stages
/// derive, stage for stage: the definition's stages are the naive side.
#[test]
fn inflationary_naive_equals_seminaive_on_random_datalog_neg() {
    for seed in SEEDS {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::DatalogNeg,
            ..Default::default()
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 5, 6, seed ^ 0x1234);
        let a = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        let (facts, stages) = spec_inflationary(&program, &input);
        assert_eq!(spec::db_of(&a.instance), facts, "seed {seed}");
        assert_eq!(a.stages, stages, "seed {seed}");
    }
}

#[test]
fn stratified_equals_wellfounded_on_random_semipositive_programs() {
    for seed in SEEDS {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::Semipositive,
            ..Default::default()
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 5, 6, seed ^ 0x77);
        let a = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        let wf = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(wf.is_total(), "seed {seed}");
        assert!(a.instance.same_facts(&wf.true_facts), "seed {seed}");
    }
}

#[test]
fn datalog_negneg_engine_subsumes_inflationary_on_random_programs() {
    for seed in SEEDS {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::DatalogNeg,
            ..Default::default()
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 5, 6, seed ^ 0xFEED);
        let a = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        let b = noninflationary::eval(
            &program,
            &input,
            noninflationary::ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(a.instance.same_facts(&b.instance), "seed {seed}");
    }
}

#[test]
fn nondet_effect_is_singleton_minimum_model_on_random_positive_programs() {
    // Effects explode combinatorially, so keep programs and inputs tiny.
    for seed in 0..12u64 {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::Positive,
            rules: 2,
            idb_preds: 1,
            edb_preds: 2,
            max_body: 2,
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 3, 2, seed ^ 0x5A5A);
        let expected = seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let effects = match effect(&compiled, &input, EffOptions { max_states: 20_000 }) {
            Ok(e) => e,
            Err(_) => continue, // state budget: skip this seed
        };
        assert_eq!(effects.len(), 1, "seed {seed}");
        assert!(effects[0].same_facts(&expected.instance), "seed {seed}");
    }
}

#[test]
fn wellfounded_true_facts_subset_of_inflationary_on_random_programs() {
    // Both realize the fixpoint queries, but on a *given* Datalog¬
    // program the two semantics differ; what must hold is that the
    // WF-true facts are contained in the inflationary result whenever
    // the program is semipositive (where both equal stratified).
    for seed in SEEDS {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::Semipositive,
            ..Default::default()
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 5, 6, seed ^ 0xC0DE);
        let wf = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        let strat = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        for (pred, rel) in wf.true_facts.iter() {
            for t in rel.iter() {
                assert!(strat.instance.contains_fact(pred, &t), "seed {seed}");
            }
        }
    }
}

/// Deep fuzz run (hundreds of seeds, larger programs). Not part of the
/// default suite; run with `cargo test --test differential -- --ignored`.
#[test]
#[ignore = "long-running deep fuzz; run explicitly"]
fn deep_differential_fuzz() {
    for seed in 0..400u64 {
        let mut i = Interner::new();
        let cfg = RandProgConfig {
            fragment: Fragment::DatalogNeg,
            rules: 6,
            idb_preds: 3,
            edb_preds: 2,
            max_body: 4,
        };
        let program = random_program(&mut i, cfg, seed);
        let input = random_edb(&mut i, cfg, 6, 8, seed ^ 0xDEED);
        let a = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        let (facts, stages) = spec_inflationary(&program, &input);
        assert_eq!(spec::db_of(&a.instance), facts, "seed {seed}");
        assert_eq!(a.stages, stages, "seed {seed}");
        let c = noninflationary::eval(
            &program,
            &input,
            noninflationary::ConflictPolicy::PreferPositive,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(a.instance.same_facts(&c.instance), "seed {seed}");
    }
}
