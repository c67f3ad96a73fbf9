//! # unchained-fuzz
//!
//! Deterministic differential fuzzing for the engine family. The
//! paper's "evaluation" is semantic equivalence — every forward-chaining
//! variant must agree with its declarative counterpart — so the fuzzer
//! generates random safe programs per fragment ([`grammar`]), runs them
//! through every applicable engine plus an independent while-language
//! translation ([`oracle`], [`translate`]), and on any disagreement
//! delta-debugs the witness down to a minimal repro ([`shrink`]) checked
//! into the corpus ([`corpus`]) that `cargo test` replays forever after.
//!
//! Zero dependencies, fully offline, and **bit-for-bit deterministic**:
//! the same `(campaign, seed, budget)` triple produces the same
//! programs, the same oracle verdicts, the same `FUZZ.json`
//! ([`report`]) and the same corpus files on every run and machine.
//! Reachable two ways:
//!
//! ```sh
//! cargo run --release -p unchained-fuzz -- --seed 42 --budget 200
//! cargo run --release -p unchained-cli -- fuzz --seed 42 --budget 200
//! ```

pub mod corpus;
pub mod grammar;
pub mod oracle;
pub mod report;
pub mod shrink;
pub mod spec;
pub mod translate;

pub use corpus::Repro;
pub use grammar::{Campaign, GrammarConfig};
pub use oracle::{Divergence, Fault, Outcome};
pub use report::{FuzzReport, FUZZ_SCHEMA_VERSION};
pub use shrink::ShrinkOutcome;
pub use translate::to_while;

use std::path::PathBuf;
use unchained_common::{Interner, Rng};

/// One campaign's configuration, as assembled from the command line.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Which fragment/matrix to run.
    pub campaign: Campaign,
    /// Master seed; every program seed derives from it.
    pub seed: u64,
    /// Number of programs to generate.
    pub budget: usize,
    /// Deliberate fault injection (shrinker self-test).
    pub fault: Fault,
    /// Where to write shrunk repros (`None`: keep them in memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Candidate-evaluation bound per shrink.
    pub max_shrink_steps: usize,
    /// Program/instance size knobs.
    pub grammar: GrammarConfig,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            campaign: Campaign::Positive,
            seed: 0,
            budget: 100,
            fault: Fault::None,
            corpus_dir: None,
            max_shrink_steps: 5_000,
            grammar: GrammarConfig::default(),
        }
    }
}

/// Runs one campaign: generate → oracle → (shrink → corpus) per
/// program. Returns the report plus every shrunk repro (already written
/// to `corpus_dir` when one is configured).
pub fn run_campaign(options: &FuzzOptions) -> Result<(FuzzReport, Vec<Repro>), String> {
    let mut report = FuzzReport {
        campaign: options.campaign.name().to_string(),
        seed: options.seed,
        budget: options.budget,
        fault_injected: options.fault != Fault::None,
        ..FuzzReport::default()
    };
    let mut repros = Vec::new();
    let mut master = Rng::seeded(options.seed);

    for index in 0..options.budget {
        let program_seed = master.next_u64();
        let run_seed = master.next_u64();
        // A fresh interner per program keeps symbol tables (and the
        // magic rewrite's adorned names) from cross-contaminating runs.
        let mut interner = Interner::new();
        let (program, instance) = grammar::generate(
            &mut interner,
            options.campaign,
            options.grammar,
            program_seed,
        );
        report.programs += 1;

        let outcome = oracle::check(
            options.campaign,
            &program,
            &instance,
            &mut interner,
            run_seed,
            options.fault,
        );
        report.oracle_runs += outcome.oracle_runs;
        report.comparisons += outcome.comparisons;
        if outcome.skipped {
            report.skipped += 1;
            continue;
        }
        let Some(divergence) = outcome.divergence else {
            continue;
        };
        report.divergences += 1;

        let shrunk = shrink::shrink(
            options.campaign,
            &program,
            &instance,
            &mut interner,
            run_seed,
            options.fault,
            options.max_shrink_steps,
        );
        report.shrink_steps += shrunk.steps;
        let stem = format!("{}-s{}-p{index}", options.campaign.name(), options.seed);
        let repro = Repro {
            stem: stem.clone(),
            program: shrunk.program,
            instance: shrunk.instance,
            header: vec![
                format!("campaign: {}", options.campaign.name()),
                format!("run seed: {run_seed}"),
                format!(
                    "regenerate: unchained fuzz --campaign {} --seed {} --budget {}",
                    options.campaign.name(),
                    options.seed,
                    index + 1
                ),
                format!(
                    "divergence: {} vs {} ({})",
                    divergence.left, divergence.right, divergence.detail
                ),
                format!("shrunk in {} candidate evaluations", shrunk.steps),
                "replayed by tests/corpus_replay.rs".to_string(),
            ],
        };
        if let Some(dir) = &options.corpus_dir {
            repro
                .write(dir, &interner)
                .map_err(|e| format!("cannot write repro {stem}: {e}"))?;
        }
        report.repros.push(stem);
        repros.push(repro);
    }
    Ok((report, repros))
}

/// Usage text for `unchained fuzz` / `cargo run -p unchained-fuzz`.
pub const FUZZ_USAGE: &str = "\
unchained fuzz — deterministic differential fuzzing of the engine family

USAGE:
  unchained fuzz [options]

OPTIONS:
  --campaign <C>     positive (default) | negation | invention | nondet |
                     planner | edits (incremental-session edit scripts) |
                     scale (10^4–10^5-fact digraphs, morsel-parallel + ivm) |
                     unstratified (recursion through negation, head
                     negation; checked against the reference evaluator)
  --seed <N>         master seed (default 0); same seed, same run, bit for bit
  --budget <N>       programs to generate (default 100)
  --json <PATH>      write the campaign summary (default FUZZ.json)
  --corpus <DIR>     where shrunk repros land (default tests/corpus)
  --inject-fault     add a deliberately wrong oracle leg (shrinker self-test)
  --max-shrink <N>   candidate evaluations per shrink (default 5000)
  --help             this text

EXIT STATUS:
  0  no divergence    1  divergences found    2  usage error
";

struct CliArgs {
    options: FuzzOptions,
    json: Option<String>,
    help: bool,
}

fn parse_cli(argv: &[String]) -> Result<CliArgs, String> {
    let mut args = CliArgs {
        options: FuzzOptions {
            corpus_dir: Some(PathBuf::from("tests/corpus")),
            ..FuzzOptions::default()
        },
        json: Some("FUZZ.json".to_string()),
        help: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => args.help = true,
            "--campaign" | "-c" => {
                let v = it.next().ok_or("--campaign needs a value")?;
                args.options.campaign =
                    Campaign::parse(v).ok_or_else(|| format!("unknown campaign `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.options.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                args.options.budget = v.parse().map_err(|_| format!("bad --budget `{v}`"))?;
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?.clone());
            }
            "--corpus" => {
                args.options.corpus_dir =
                    Some(PathBuf::from(it.next().ok_or("--corpus needs a path")?));
            }
            "--inject-fault" => args.options.fault = Fault::DropMaxFact,
            "--max-shrink" => {
                let v = it.next().ok_or("--max-shrink needs a value")?;
                args.options.max_shrink_steps =
                    v.parse().map_err(|_| format!("bad --max-shrink `{v}`"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// CLI entry point shared by the standalone binary and `unchained fuzz`.
pub fn main_with_args(argv: &[String]) -> u8 {
    let args = match parse_cli(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{FUZZ_USAGE}");
            return 2;
        }
    };
    if args.help {
        print!("{FUZZ_USAGE}");
        return 0;
    }
    let (report, _) = match run_campaign(&args.options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print!("{}", report.render_summary());
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return 2;
        }
    }
    u8::from(report.divergences > 0)
}
