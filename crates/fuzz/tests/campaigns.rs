//! Integration tests for the differential fuzzer: every campaign runs
//! clean at a small budget, and a full run is bit-for-bit deterministic.

use unchained_common::Interner;
use unchained_fuzz::corpus::{corpus_files, load};
use unchained_fuzz::oracle::check;
use unchained_fuzz::{run_campaign, Campaign, Fault, FuzzOptions};

fn options(campaign: Campaign, seed: u64, budget: usize) -> FuzzOptions {
    let mut opts = FuzzOptions {
        campaign,
        seed,
        budget,
        fault: Fault::None,
        corpus_dir: None,
        ..FuzzOptions::default()
    };
    // The scale campaign defaults to 10^4–10^5-fact instances for the
    // release-build gate; debug-build tests shrink the digraphs (the
    // differential properties are size-free, only the gate needs bulk).
    if campaign == Campaign::Scale {
        opts.grammar.scale_edges = 512;
    }
    opts
}

#[test]
fn every_campaign_runs_clean_at_small_budget() {
    for campaign in Campaign::all() {
        let (report, repros) = run_campaign(&options(campaign, 7, 15)).expect("campaign runs");
        assert_eq!(
            report.divergences,
            0,
            "campaign {} diverged: {}",
            campaign.name(),
            report.to_json()
        );
        assert!(repros.is_empty());
        assert_eq!(report.programs + report.skipped, 15);
        assert!(report.oracle_runs > 0, "oracle must actually run");
        assert!(report.comparisons >= report.oracle_runs - report.programs * 2);
    }
}

/// At the default (gate) configuration, scale-campaign instances hit
/// the advertised 10^4-fact floor — checked on generation alone so the
/// debug build never evaluates one.
#[test]
fn scale_campaign_instances_reach_ten_thousand_facts_by_default() {
    use unchained_common::Interner;
    use unchained_fuzz::GrammarConfig;
    let mut i = Interner::new();
    let (_, instance) =
        unchained_fuzz::grammar::generate(&mut i, Campaign::Scale, GrammarConfig::default(), 1);
    assert!(
        instance.fact_count() >= 10_000,
        "scale edb too small: {}",
        instance.fact_count()
    );
}

#[test]
fn identical_options_give_identical_reports() {
    for campaign in [Campaign::Positive, Campaign::Negation] {
        let a = run_campaign(&options(campaign, 42, 25)).expect("first run");
        let b = run_campaign(&options(campaign, 42, 25)).expect("second run");
        assert_eq!(a.0.to_json(), b.0.to_json());
        assert_eq!(a.1.len(), b.1.len());
    }
}

/// The shrinker self-test for the incremental campaign: with the
/// drop-max-fact fault riding on the session's final answer, any edit
/// script that leaves the idb nonempty diverges — and the shrinker must
/// still walk the witness down to a tiny stratified program.
#[test]
fn edit_script_fault_injection_shrinks_to_minimal_repros() {
    let opts = FuzzOptions {
        fault: Fault::DropMaxFact,
        ..options(Campaign::EditScript, 7, 20)
    };
    let (report, repros) = run_campaign(&opts).expect("faulted run");
    assert!(report.divergences > 0, "fault must be observable");
    assert_eq!(repros.len(), report.divergences);
    for repro in &repros {
        assert!(
            repro.program.rules.len() <= 3,
            "repro not minimal: {} rules",
            repro.program.rules.len()
        );
    }
}

#[test]
fn fault_injection_produces_divergences_and_minimal_repros() {
    let opts = FuzzOptions {
        fault: Fault::DropMaxFact,
        ..options(Campaign::Positive, 7, 20)
    };
    let (report, repros) = run_campaign(&opts).expect("faulted run");
    assert!(report.divergences > 0, "fault must be observable");
    assert!(report.fault_injected);
    assert_eq!(repros.len(), report.divergences);
    assert!(report.shrink_steps > 0, "shrinker must have reduced repros");
    for repro in &repros {
        assert!(
            repro.program.rules.len() <= 3,
            "repro not minimal: {} rules",
            repro.program.rules.len()
        );
    }
}

/// A repro the campaign writes loads back with the campaign and run seed
/// its header records, and still diverges under the faulty oracle at
/// that seed — so a repro copied into `tests/corpus/` replays as found.
#[test]
fn written_repros_load_back_with_campaign_and_run_seed() {
    for campaign in [Campaign::Positive, Campaign::EditScript] {
        let dir = std::env::temp_dir().join(format!(
            "unchained-fuzz-repro-header-{}-{}",
            campaign.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let opts = FuzzOptions {
            fault: Fault::DropMaxFact,
            corpus_dir: Some(dir.clone()),
            ..options(campaign, 7, 10)
        };
        let (report, _) = run_campaign(&opts).expect("faulted run");
        let files = corpus_files(&dir);
        assert!(report.divergences > 0, "fault must be observable");
        assert_eq!(files.len(), report.divergences);
        for dl in files {
            let mut interner = Interner::new();
            let repro = load(&dl, &mut interner).expect("repro loads");
            assert_eq!(repro.campaign, Some(campaign), "{}", dl.display());
            let run_seed = repro.run_seed.expect("repro records its run seed");
            let outcome = check(
                campaign,
                &repro.program,
                &repro.instance,
                &mut interner,
                run_seed,
                Fault::DropMaxFact,
            );
            assert!(
                outcome.divergence.is_some(),
                "{} no longer diverges",
                dl.display()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
