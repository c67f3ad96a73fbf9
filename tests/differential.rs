//! Differential testing of the engine equivalences on *randomly
//! generated programs* — the theorems say the engines agree on every
//! program of a fragment, so we compare them on programs nobody
//! hand-picked (seeded, deterministic). Programs and inputs come from
//! the fuzzer's grammar: its positive campaign for Datalog, its
//! negation campaign (stratified Datalog¬) for the semipositive
//! properties, and its unstratified campaign less the retracting rules
//! for full Datalog¬.

use unchained::common::{Instance, Interner};
use unchained::core::{
    inflationary, naive, noninflationary, seminaive, stratified, wellfounded, EvalOptions,
};
use unchained::fuzz::grammar::generate;
use unchained::fuzz::{spec, Campaign, GrammarConfig};
use unchained::nondet::{effect, EffOptions, NondetProgram};
use unchained::parser::{HeadLiteral, Program};

const SEEDS: std::ops::Range<u64> = 0..40;

/// The program and input the grammar generates for `campaign` at the
/// default sizes.
fn generated(campaign: Campaign, seed: u64) -> (Program, Instance) {
    generate(
        &mut Interner::new(),
        campaign,
        GrammarConfig::default(),
        seed,
    )
}

/// A full Datalog¬ program (negation on any idb predicate, usually
/// unstratifiable) and its input: an unstratified campaign program
/// without its rules with a negative head.
fn datalog_neg(cfg: GrammarConfig, seed: u64) -> (Program, Instance) {
    let (mut program, input) = generate(&mut Interner::new(), Campaign::Unstratified, cfg, seed);
    program
        .rules
        .retain(|r| matches!(r.head[..], [HeadLiteral::Pos(_)]));
    (program, input)
}

/// Inflationary semantics by its definition: the Datalog¬¬ stages of a
/// program without head negation under insertion priority, computed by
/// the reference evaluator, which shares no code with the engines.
/// Returns the fixpoint's facts and its stage count.
fn spec_inflationary(program: &Program, input: &Instance) -> (spec::Db, usize) {
    let policy = noninflationary::ConflictPolicy::PreferPositive;
    match spec::datalog_negneg(program, input, policy, 1_000) {
        spec::Stages::Fixpoint { db, stages } => (db, stages),
        other => panic!("the reference reached no fixpoint: {other:?}"),
    }
}

#[test]
fn naive_equals_seminaive_on_random_positive_programs() {
    for seed in SEEDS {
        let (program, input) = generated(Campaign::Positive, seed);
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
        let (program, input) = datalog_neg(GrammarConfig::default(), seed);
        let a = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
        let (facts, stages) = spec_inflationary(&program, &input);
        assert_eq!(spec::db_of(&a.instance), facts, "seed {seed}");
        assert_eq!(a.stages, stages, "seed {seed}");
    }
}

#[test]
fn stratified_equals_wellfounded_on_random_semipositive_programs() {
    for seed in SEEDS {
        let (program, input) = generated(Campaign::Negation, seed);
        let a = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        let wf = wellfounded::eval(&program, &input, EvalOptions::default()).unwrap();
        assert!(wf.is_total(), "seed {seed}");
        assert!(a.instance.same_facts(&wf.true_facts), "seed {seed}");
    }
}

#[test]
fn datalog_negneg_engine_subsumes_inflationary_on_random_programs() {
    for seed in SEEDS {
        let (program, input) = datalog_neg(GrammarConfig::default(), seed);
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
        let cfg = GrammarConfig {
            max_rules: 2,
            idb_preds: 1,
            edb_preds: 2,
            max_body: 2,
            universe: 3,
            facts_per_pred: 2,
            ..GrammarConfig::default()
        };
        let (program, input) = generate(&mut Interner::new(), Campaign::Positive, cfg, seed);
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
    // program the semantics differ; what must hold is that the WF-true
    // facts are contained in the stratified result whenever the
    // program is stratified (where the two agree).
    for seed in SEEDS {
        let (program, input) = generated(Campaign::Negation, seed);
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
        let cfg = GrammarConfig {
            max_rules: 6,
            idb_preds: 3,
            edb_preds: 2,
            max_body: 4,
            universe: 6,
            facts_per_pred: 8,
            ..GrammarConfig::default()
        };
        let (program, input) = datalog_neg(cfg, seed);
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
