//! Hand-rolled argument parsing (the sanctioned dependency set has no
//! CLI crate, and the surface is small).

use std::fmt;

/// Which engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// Naive positive-Datalog evaluation.
    Naive,
    /// Semi-naive positive-Datalog evaluation.
    Seminaive,
    /// Stratified Datalog¬.
    Stratified,
    /// Well-founded (3-valued) Datalog¬.
    WellFounded,
    /// Inflationary (forward chaining) Datalog¬.
    Inflationary,
    /// Datalog¬¬ (noninflationary, retraction).
    Noninflationary,
    /// Datalog¬new (value invention).
    Invention,
    /// Nondeterministic single run (N-Datalog¬(¬), ⊥, ∀, new).
    Nondet,
    /// Exhaustive effect enumeration + poss/cert.
    Effect,
    /// The imperative while / fixpoint language (program file uses the
    /// `unchained_while::parse` text syntax, not Datalog rules).
    WhileLang,
}

impl Semantics {
    /// Parses a semantics name.
    pub fn parse(s: &str) -> Option<Semantics> {
        Some(match s {
            "naive" => Semantics::Naive,
            "seminaive" | "semi-naive" => Semantics::Seminaive,
            "stratified" => Semantics::Stratified,
            "wellfounded" | "well-founded" | "wf" => Semantics::WellFounded,
            "inflationary" | "forward" => Semantics::Inflationary,
            "noninflationary" | "datalog-neg-neg" | "while" => Semantics::Noninflationary,
            "invention" | "datalog-new" => Semantics::Invention,
            "nondet" | "n" => Semantics::Nondet,
            "effect" | "eff" => Semantics::Effect,
            "whilelang" | "while-lang" | "wl" => Semantics::WhileLang,
            _ => return None,
        })
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Semantics::Naive => "naive",
            Semantics::Seminaive => "seminaive",
            Semantics::Stratified => "stratified",
            Semantics::WellFounded => "wellfounded",
            Semantics::Inflationary => "inflationary",
            Semantics::Noninflationary => "noninflationary",
            Semantics::Invention => "invention",
            Semantics::Nondet => "nondet",
            Semantics::Effect => "effect",
            Semantics::WhileLang => "whilelang",
        };
        f.write_str(s)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The command: `eval` or `check`.
    pub command: Command,
}

/// Supported subcommands.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Evaluate a program against facts.
    Eval {
        /// Path to the program file.
        program: String,
        /// Path to the facts file (optional; empty input otherwise).
        facts: Option<String>,
        /// Engine.
        semantics: Semantics,
        /// Print only this relation (otherwise: all idb relations).
        output: Option<String>,
        /// Stage budget.
        max_stages: Option<usize>,
        /// Seed for nondeterministic runs.
        seed: u64,
        /// Conflict policy name for Datalog¬¬ (positive | negative |
        /// noop | undefined).
        policy: String,
        /// Print a per-stage evaluation statistics table.
        stats: bool,
        /// Print the per-relation space report (logical byte
        /// breakdown, fattest relations/deltas) after the run.
        memstats: bool,
        /// Write the evaluation trace as JSON lines to this path.
        trace_json: Option<String>,
        /// Worker threads for the stage driver's parallel stages (None =
        /// engine default, which honors `UNCHAINED_THREADS`).
        threads: Option<usize>,
        /// Driver rows per parallel morsel (None = engine default).
        morsel_size: Option<usize>,
        /// Write a Chrome-trace-event profile (Perfetto-loadable) of
        /// the run's span tree to this path.
        profile: Option<String>,
        /// Write the process metrics registry (Prometheus text format)
        /// to this path after the run.
        metrics: Option<String>,
    },
    /// Parse and analyze a program: language class, edb/idb,
    /// stratification.
    Check {
        /// Path to the program file.
        program: String,
    },
    /// Show each rule's compiled query plan (and its semi-naive delta
    /// variants) without evaluating.
    Plan {
        /// Path to the program file.
        program: String,
        /// Path to the facts file (optional; the catalog that drives
        /// the cost-based join order is empty otherwise).
        facts: Option<String>,
        /// Use the most-bound-first reference ordering instead of the
        /// cost-based one.
        syntactic: bool,
    },
    /// Explain why a fact holds: derivation tree from the provenance
    /// engine.
    Explain {
        /// Path to the program file.
        program: String,
        /// Path to the facts file (optional; empty input otherwise).
        facts: Option<String>,
        /// The goal fact, e.g. `T(1,3)`.
        goal: String,
    },
    /// Validate a Chrome-trace-event JSON profile written by
    /// `--profile` (schema + optionally required span kinds).
    TraceCheck {
        /// Path to the trace JSON file.
        file: String,
        /// Span kinds that must be present (`--expect eval,round,...`).
        expect: Vec<String>,
    },
    /// Drive an incremental maintenance session from an edit script:
    /// compute the initial fixpoint, then apply `+Fact.` / `-Fact.`
    /// batches and re-stabilize at every `poll` line.
    Ivm {
        /// Path to the program file.
        program: String,
        /// Path to the edit script (`+Fact.`, `-Fact.`, `poll` lines).
        edits: String,
        /// Path to the initial facts file (optional; empty otherwise).
        facts: Option<String>,
        /// Print only this relation after the final poll.
        output: Option<String>,
        /// Stage budget per poll.
        max_stages: Option<usize>,
        /// Worker threads for the stage driver.
        threads: Option<usize>,
        /// Print per-poll maintenance statistics.
        stats: bool,
    },
    /// Interactive session.
    Repl,
    /// Run the benchmark harness (arguments passed through to
    /// `unchained_bench`).
    Bench {
        /// Everything after the `bench` word, verbatim.
        rest: Vec<String>,
    },
    /// Run the differential fuzzer (arguments passed through to
    /// `unchained_fuzz`).
    Fuzz {
        /// Everything after the `fuzz` word, verbatim.
        rest: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
unchained — the Datalog engine family of 'Datalog Unchained' (PODS 2021)

USAGE:
  unchained eval --semantics <SEM> <PROGRAM.dl> [FACTS.dl] [options]
  unchained run ...            alias for eval
  unchained check <PROGRAM.dl>
  unchained plan <PROGRAM.dl> [FACTS.dl] [--syntactic]
                               show each rule's compiled query plan and
                               Δ variants; join order is costed from the
                               facts (--syntactic: most-bound-first
                               reference ordering)
  unchained explain <PROGRAM.dl> [FACTS.dl] <FACT>
                               derivation tree for a fact, e.g.
                               `unchained explain tc.dl tc_facts.dl \"T(1,3)\"`
  unchained trace-check <TRACE.json> [--expect k1,k2,…]
                               validate a --profile trace file
  unchained ivm <PROGRAM.dl> <EDITS> [FACTS.dl] [options]
                               incremental maintenance: compute the
                               fixpoint, then replay an edit script of
                               `+Fact.` (insert), `-Fact.` (retract) and
                               `poll` (apply batch, re-stabilize) lines;
                               --stats prints per-poll maintenance work
  unchained repl
  unchained bench [options]     in-repo benchmark harness (BENCH.json);
                               see `unchained bench --help`
  unchained fuzz [options]      deterministic differential fuzzer (FUZZ.json,
                               repro corpus); see `unchained fuzz --help`
  unchained help

SEMANTICS (for --semantics / -s):
  naive | seminaive            positive Datalog (minimum model)
  stratified                   stratified Datalog¬
  wellfounded                  well-founded Datalog¬ (3-valued)
  inflationary                 forward chaining Datalog¬
  noninflationary              Datalog¬¬ (retraction; see --policy)
  invention                    Datalog¬new (value invention)
  nondet                       one nondeterministic run (N-Datalog…)
  effect                       exhaustive eff(P) + poss/cert
  whilelang                    imperative while/fixpoint program
                               (text syntax: R += { x | phi }; while … do … end)

OPTIONS:
  --output <PRED>              print only this relation
  --max-stages <N>             stage / step budget
  --seed <N>                   RNG seed for nondet runs (default 0)
  --policy <P>                 Datalog¬¬ conflict policy:
                               positive (default) | negative | noop | undefined
  --stats                      print per-stage evaluation statistics
                               (delta sizes, rules fired, join work, timing)
  --memstats                   print the space report: per-relation /
                               per-segment logical bytes, fattest relations
                               and rule deltas (identical for every
                               --threads count)
  --trace-json <PATH>          write the evaluation trace as JSON lines
  --threads <N>                worker threads for each evaluation stage
                               (default 1, or the UNCHAINED_THREADS env var;
                               output is identical for every thread count)
  --morsel-size <N>            driver rows per parallel work morsel
                               (default 2048; output is identical for
                               every value — the knob trades scheduling
                               overhead against load balance)
  --profile <PATH>             write a Chrome-trace-event profile of the run
                               (open in Perfetto / chrome://tracing; one
                               timeline lane per worker with --threads)
  --metrics <PATH>             write process metrics (Prometheus text format)
";

/// Parses a command line (without the binary name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Args {
            command: Command::Help,
        });
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Args {
            command: Command::Help,
        }),
        "repl" => Ok(Args {
            command: Command::Repl,
        }),
        "bench" => Ok(Args {
            command: Command::Bench {
                rest: it.cloned().collect(),
            },
        }),
        "fuzz" => Ok(Args {
            command: Command::Fuzz {
                rest: it.cloned().collect(),
            },
        }),
        "check" => {
            let program = it.next().ok_or("check: missing program file")?.clone();
            Ok(Args {
                command: Command::Check { program },
            })
        }
        "plan" => {
            let mut program = None;
            let mut facts = None;
            let mut syntactic = false;
            for arg in it {
                match arg.as_str() {
                    "--syntactic" => syntactic = true,
                    other if other.starts_with('-') => {
                        return Err(format!("unknown option `{other}`"));
                    }
                    path => {
                        if program.is_none() {
                            program = Some(path.to_string());
                        } else if facts.is_none() {
                            facts = Some(path.to_string());
                        } else {
                            return Err(format!("unexpected argument `{path}`"));
                        }
                    }
                }
            }
            Ok(Args {
                command: Command::Plan {
                    program: program.ok_or("plan: missing program file")?,
                    facts,
                    syntactic,
                },
            })
        }
        "explain" | "why" => {
            let positional: Vec<String> = it.cloned().collect();
            match positional.len() {
                2 => Ok(Args {
                    command: Command::Explain {
                        program: positional[0].clone(),
                        facts: None,
                        goal: positional[1].clone(),
                    },
                }),
                3 => Ok(Args {
                    command: Command::Explain {
                        program: positional[0].clone(),
                        facts: Some(positional[1].clone()),
                        goal: positional[2].clone(),
                    },
                }),
                _ => Err("explain: expected <PROGRAM> [FACTS] <FACT>".to_string()),
            }
        }
        "trace-check" => {
            let mut file = None;
            let mut expect = Vec::new();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--expect" => {
                        let v = it.next().ok_or("--expect needs a value")?;
                        expect.extend(v.split(',').map(|s| s.trim().to_string()));
                    }
                    other if other.starts_with('-') => {
                        return Err(format!("unknown option `{other}`"));
                    }
                    path => {
                        if file.is_none() {
                            file = Some(path.to_string());
                        } else {
                            return Err(format!("unexpected argument `{path}`"));
                        }
                    }
                }
            }
            Ok(Args {
                command: Command::TraceCheck {
                    file: file.ok_or("trace-check: missing trace file")?,
                    expect,
                },
            })
        }
        "ivm" => {
            let mut positional = Vec::new();
            let mut output = None;
            let mut max_stages = None;
            let mut threads = None;
            let mut stats = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" | "-o" => {
                        output = Some(it.next().ok_or("--output needs a value")?.clone());
                    }
                    "--max-stages" => {
                        let v = it.next().ok_or("--max-stages needs a value")?;
                        max_stages =
                            Some(v.parse().map_err(|_| format!("bad --max-stages `{v}`"))?);
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                        if n == 0 {
                            return Err("--threads must be at least 1".to_string());
                        }
                        threads = Some(n);
                    }
                    "--stats" => stats = true,
                    other if other.starts_with('-') => {
                        return Err(format!("unknown option `{other}`"));
                    }
                    path => positional.push(path.to_string()),
                }
            }
            if positional.len() < 2 || positional.len() > 3 {
                return Err("ivm: expected <PROGRAM> <EDITS> [FACTS]".to_string());
            }
            Ok(Args {
                command: Command::Ivm {
                    program: positional[0].clone(),
                    edits: positional[1].clone(),
                    facts: positional.get(2).cloned(),
                    output,
                    max_stages,
                    threads,
                    stats,
                },
            })
        }
        "eval" | "run" => {
            let mut program = None;
            let mut facts = None;
            let mut semantics = None;
            let mut output = None;
            let mut max_stages = None;
            let mut seed = 0u64;
            let mut policy = "positive".to_string();
            let mut stats = false;
            let mut memstats = false;
            let mut trace_json = None;
            let mut threads = None;
            let mut morsel_size = None;
            let mut profile = None;
            let mut metrics = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--semantics" | "-s" => {
                        let v = it.next().ok_or("--semantics needs a value")?;
                        semantics = Some(
                            Semantics::parse(v)
                                .ok_or_else(|| format!("unknown semantics `{v}`"))?,
                        );
                    }
                    "--output" | "-o" => {
                        output = Some(it.next().ok_or("--output needs a value")?.clone());
                    }
                    "--max-stages" => {
                        let v = it.next().ok_or("--max-stages needs a value")?;
                        max_stages =
                            Some(v.parse().map_err(|_| format!("bad --max-stages `{v}`"))?);
                    }
                    "--seed" => {
                        let v = it.next().ok_or("--seed needs a value")?;
                        seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                    }
                    "--policy" => {
                        policy = it.next().ok_or("--policy needs a value")?.clone();
                    }
                    "--stats" => {
                        stats = true;
                    }
                    "--memstats" => {
                        memstats = true;
                    }
                    "--trace-json" => {
                        trace_json = Some(it.next().ok_or("--trace-json needs a path")?.clone());
                    }
                    "--profile" => {
                        profile = Some(it.next().ok_or("--profile needs a path")?.clone());
                    }
                    "--metrics" => {
                        metrics = Some(it.next().ok_or("--metrics needs a path")?.clone());
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                        if n == 0 {
                            return Err("--threads must be at least 1".to_string());
                        }
                        threads = Some(n);
                    }
                    "--morsel-size" => {
                        let v = it.next().ok_or("--morsel-size needs a value")?;
                        let n: usize = v.parse().map_err(|_| format!("bad --morsel-size `{v}`"))?;
                        if n == 0 {
                            return Err("--morsel-size must be at least 1".to_string());
                        }
                        morsel_size = Some(n);
                    }
                    other if other.starts_with('-') => {
                        return Err(format!("unknown option `{other}`"));
                    }
                    path => {
                        if program.is_none() {
                            program = Some(path.to_string());
                        } else if facts.is_none() {
                            facts = Some(path.to_string());
                        } else {
                            return Err(format!("unexpected argument `{path}`"));
                        }
                    }
                }
            }
            Ok(Args {
                command: Command::Eval {
                    program: program.ok_or("eval: missing program file")?,
                    facts,
                    semantics: semantics.ok_or("eval: missing --semantics")?,
                    output,
                    max_stages,
                    seed,
                    policy,
                    stats,
                    memstats,
                    trace_json,
                    threads,
                    morsel_size,
                    profile,
                    metrics,
                },
            })
        }
        other => Err(format!("unknown command `{other}` (try `unchained help`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_eval() {
        let args = parse_args(&argv(
            "eval --semantics inflationary prog.dl facts.dl --output T --max-stages 10",
        ))
        .unwrap();
        let Command::Eval {
            program,
            facts,
            semantics,
            output,
            max_stages,
            ..
        } = args.command
        else {
            panic!("expected eval");
        };
        assert_eq!(program, "prog.dl");
        assert_eq!(facts.as_deref(), Some("facts.dl"));
        assert_eq!(semantics, Semantics::Inflationary);
        assert_eq!(output.as_deref(), Some("T"));
        assert_eq!(max_stages, Some(10));
    }

    #[test]
    fn run_alias_and_observability_flags() {
        let args = parse_args(&argv(
            "run --semantics seminaive prog.dl --stats --trace-json out.jsonl",
        ))
        .unwrap();
        let Command::Eval {
            program,
            stats,
            trace_json,
            ..
        } = args.command
        else {
            panic!("expected eval");
        };
        assert_eq!(program, "prog.dl");
        assert!(stats);
        assert_eq!(trace_json.as_deref(), Some("out.jsonl"));
        // Flags default off.
        let args = parse_args(&argv("eval -s naive p.dl")).unwrap();
        let Command::Eval {
            stats, trace_json, ..
        } = args.command
        else {
            panic!("expected eval");
        };
        assert!(!stats);
        assert!(trace_json.is_none());
        assert!(parse_args(&argv("eval -s naive p.dl --trace-json")).is_err());
    }

    #[test]
    fn parse_memstats_flag() {
        let args = parse_args(&argv("run -s seminaive p.dl --memstats")).unwrap();
        let Command::Eval { memstats, .. } = args.command else {
            panic!("expected eval");
        };
        assert!(memstats);
        let args = parse_args(&argv("eval -s naive p.dl")).unwrap();
        let Command::Eval { memstats, .. } = args.command else {
            panic!("expected eval");
        };
        assert!(!memstats);
    }

    #[test]
    fn parse_threads_flag() {
        let args = parse_args(&argv("eval -s seminaive p.dl --threads 4")).unwrap();
        let Command::Eval { threads, .. } = args.command else {
            panic!("expected eval");
        };
        assert_eq!(threads, Some(4));
        // Default is None (engine default / UNCHAINED_THREADS).
        let args = parse_args(&argv("eval -s seminaive p.dl")).unwrap();
        let Command::Eval { threads, .. } = args.command else {
            panic!("expected eval");
        };
        assert_eq!(threads, None);
        assert!(parse_args(&argv("eval -s seminaive p.dl --threads 0")).is_err());
        assert!(parse_args(&argv("eval -s seminaive p.dl --threads nope")).is_err());
        assert!(parse_args(&argv("eval -s seminaive p.dl --threads")).is_err());
    }

    #[test]
    fn parse_morsel_size_flag() {
        let args = parse_args(&argv("eval -s seminaive p.dl --morsel-size 128")).unwrap();
        let Command::Eval { morsel_size, .. } = args.command else {
            panic!("expected eval");
        };
        assert_eq!(morsel_size, Some(128));
        let args = parse_args(&argv("eval -s seminaive p.dl")).unwrap();
        let Command::Eval { morsel_size, .. } = args.command else {
            panic!("expected eval");
        };
        assert_eq!(morsel_size, None);
        assert!(parse_args(&argv("eval -s seminaive p.dl --morsel-size 0")).is_err());
        assert!(parse_args(&argv("eval -s seminaive p.dl --morsel-size nope")).is_err());
        assert!(parse_args(&argv("eval -s seminaive p.dl --morsel-size")).is_err());
    }

    #[test]
    fn parse_profile_and_metrics_flags() {
        let args = parse_args(&argv(
            "run -s seminaive p.dl --profile out.trace.json --metrics out.prom",
        ))
        .unwrap();
        let Command::Eval {
            profile, metrics, ..
        } = args.command
        else {
            panic!("expected eval");
        };
        assert_eq!(profile.as_deref(), Some("out.trace.json"));
        assert_eq!(metrics.as_deref(), Some("out.prom"));
        // Default off; a bare flag is an error.
        let args = parse_args(&argv("eval -s naive p.dl")).unwrap();
        let Command::Eval {
            profile, metrics, ..
        } = args.command
        else {
            panic!("expected eval");
        };
        assert!(profile.is_none() && metrics.is_none());
        assert!(parse_args(&argv("eval -s naive p.dl --profile")).is_err());
    }

    #[test]
    fn parse_explain() {
        assert_eq!(
            parse_args(&argv("explain p.dl f.dl T(1,3)"))
                .unwrap()
                .command,
            Command::Explain {
                program: "p.dl".into(),
                facts: Some("f.dl".into()),
                goal: "T(1,3)".into(),
            }
        );
        assert_eq!(
            parse_args(&argv("why p.dl T(1,3)")).unwrap().command,
            Command::Explain {
                program: "p.dl".into(),
                facts: None,
                goal: "T(1,3)".into(),
            }
        );
        assert!(parse_args(&argv("explain p.dl")).is_err());
    }

    #[test]
    fn parse_trace_check() {
        assert_eq!(
            parse_args(&argv("trace-check out.json --expect eval,round,rule"))
                .unwrap()
                .command,
            Command::TraceCheck {
                file: "out.json".into(),
                expect: vec!["eval".into(), "round".into(), "rule".into()],
            }
        );
        assert_eq!(
            parse_args(&argv("trace-check out.json")).unwrap().command,
            Command::TraceCheck {
                file: "out.json".into(),
                expect: vec![],
            }
        );
        assert!(parse_args(&argv("trace-check")).is_err());
    }

    #[test]
    fn parse_plan() {
        assert_eq!(
            parse_args(&argv("plan p.dl f.dl")).unwrap().command,
            Command::Plan {
                program: "p.dl".into(),
                facts: Some("f.dl".into()),
                syntactic: false,
            }
        );
        assert_eq!(
            parse_args(&argv("plan p.dl --syntactic")).unwrap().command,
            Command::Plan {
                program: "p.dl".into(),
                facts: None,
                syntactic: true,
            }
        );
        assert!(parse_args(&argv("plan")).is_err());
        assert!(parse_args(&argv("plan p.dl --bogus")).is_err());
        assert!(parse_args(&argv("plan a b c")).is_err());
    }

    #[test]
    fn parse_check_and_help() {
        assert_eq!(
            parse_args(&argv("check p.dl")).unwrap().command,
            Command::Check {
                program: "p.dl".into()
            }
        );
        assert_eq!(parse_args(&argv("help")).unwrap().command, Command::Help);
        assert_eq!(parse_args(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn parse_ivm() {
        let args = parse_args(&argv(
            "ivm tc.dl edits.txt facts.dl --stats --threads 4 --output T",
        ))
        .unwrap();
        assert_eq!(
            args.command,
            Command::Ivm {
                program: "tc.dl".into(),
                edits: "edits.txt".into(),
                facts: Some("facts.dl".into()),
                output: Some("T".into()),
                max_stages: None,
                threads: Some(4),
                stats: true,
            }
        );
        let args = parse_args(&argv("ivm tc.dl edits.txt")).unwrap();
        let Command::Ivm { facts, stats, .. } = args.command else {
            panic!("expected ivm");
        };
        assert!(facts.is_none() && !stats);
        assert!(parse_args(&argv("ivm tc.dl")).is_err());
        assert!(parse_args(&argv("ivm a b c d")).is_err());
        assert!(parse_args(&argv("ivm a b --threads 0")).is_err());
        assert!(parse_args(&argv("ivm a b --bogus")).is_err());
    }

    #[test]
    fn parse_bench_passthrough() {
        let args = parse_args(&argv("bench --quick --filter chain")).unwrap();
        assert_eq!(
            args.command,
            Command::Bench {
                rest: argv("--quick --filter chain")
            }
        );
        assert_eq!(
            parse_args(&argv("bench")).unwrap().command,
            Command::Bench { rest: vec![] }
        );
    }

    #[test]
    fn errors() {
        assert!(parse_args(&argv("eval prog.dl")).is_err()); // no semantics
        assert!(parse_args(&argv("eval --semantics bogus p.dl")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("eval -s naive a b c")).is_err());
    }

    #[test]
    fn all_semantics_names_parse() {
        for name in [
            "naive",
            "seminaive",
            "stratified",
            "wellfounded",
            "inflationary",
            "noninflationary",
            "invention",
            "nondet",
            "effect",
            "whilelang",
        ] {
            assert!(Semantics::parse(name).is_some(), "{name}");
        }
    }
}
