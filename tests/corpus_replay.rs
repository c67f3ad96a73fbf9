//! Replays every checked-in repro under `tests/corpus/` through the
//! differential oracle. The corpus holds two kinds of entries: seeded
//! regression witnesses for storage bugs fixed in earlier revisions
//! (cross-clone version aliasing, epoch-fork cache keying) and any
//! minimal repros the fuzzer's shrinker writes when a real divergence
//! is found. Either way the contract is the same — once a program is in
//! the corpus, every engine must agree on it forever.

use std::path::PathBuf;

use unchained::common::Interner;
use unchained::fuzz::corpus::{corpus_files, load};
use unchained::fuzz::oracle::check;
use unchained::fuzz::Fault;

/// Run seeds every corpus entry is replayed under, besides the one its
/// header records.
const RUN_SEEDS: std::ops::Range<u64> = 0..4;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_replays_without_divergence() {
    let files = corpus_files(&corpus_dir());
    assert!(
        !files.is_empty(),
        "tests/corpus must hold at least the seeded regression witnesses"
    );
    for dl in files {
        let mut interner = Interner::new();
        let repro = load(&dl, &mut interner)
            .unwrap_or_else(|e| panic!("corpus entry {} must parse: {e}", dl.display()));
        let campaign = repro.campaign.unwrap_or_else(|| {
            panic!(
                "corpus entry {} must record `% campaign: <name>` in its header",
                dl.display()
            )
        });
        // A shrunk repro records the run seed that drove its seeded
        // choosers (nondet runs, edit scripts); hand-written entries do
        // not. Replay that seed and several more.
        for run_seed in RUN_SEEDS.chain(repro.run_seed) {
            let outcome = check(
                campaign,
                &repro.program,
                &repro.instance,
                &mut interner,
                run_seed,
                Fault::None,
            );
            assert!(
                !outcome.skipped,
                "corpus entry {} must exercise the oracle, not skip",
                dl.display()
            );
            assert!(
                outcome.divergence.is_none(),
                "corpus entry {} regressed at run seed {run_seed}: {:?}",
                dl.display(),
                outcome.divergence
            );
        }
    }
}

/// Every corpus `.dl` file must survive a print → parse round trip: the
/// shrinker emits normalized programs, and hand-seeded entries must obey
/// the same fixed-point convention so the corpus stays canonical.
#[test]
fn corpus_entries_are_print_parse_fixed_points() {
    for dl in corpus_files(&corpus_dir()) {
        let mut interner = Interner::new();
        let repro = load(&dl, &mut interner).expect("corpus entry parses");
        let printed = repro.program.display(&interner).to_string();
        let reparsed = unchained::parser::parse_program(&printed, &mut interner)
            .unwrap_or_else(|e| panic!("printed corpus entry {} must reparse: {e}", dl.display()));
        assert_eq!(
            repro.program,
            reparsed,
            "corpus entry {} is not print/parse canonical",
            dl.display()
        );
    }
}
