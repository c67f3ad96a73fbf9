//! An interactive session: accumulate facts and rules, evaluate under
//! any semantics of the family, inspect relations.
//!
//! The REPL is a pure line-processor ([`Repl::feed`]) so the whole
//! interaction is unit-testable; `main` wires it to stdin.
//!
//! ```text
//! > G(1,2).                      % ground fact → database
//! > T(x,y) :- G(x,y).            % rule → program
//! > T(x,y) :- G(x,z), T(z,y).
//! > ? T                          % evaluate, print relation T
//! T(1, 2)
//! > .semantics wellfounded       % switch engines
//! > .help                        % list commands
//! ```

use crate::args::Semantics;
use unchained_common::{Instance, Interner, Symbol, Tuple, Value};
use unchained_core::{EvalOptions, IncrementalSession};
use unchained_parser::{classify, parse_program, HeadLiteral, Program, Term};

/// REPL state.
pub struct Repl {
    interner: Interner,
    program: Program,
    database: Instance,
    semantics: Semantics,
    max_stages: Option<usize>,
    seed: u64,
    threads: Option<usize>,
    morsel_size: Option<usize>,
    /// The live incremental session behind `.insert`/`.retract`/`.poll`.
    /// Created lazily from the current program and database; dropped
    /// whenever either changes (the session would be maintaining a
    /// stale fixpoint).
    session: Option<IncrementalSession>,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new()
    }
}

/// Help text for the in-REPL `.help` command.
pub const REPL_HELP: &str = "\
Enter Datalog statements (terminated by `.`) or commands:
  G('a','b').                 add a ground fact to the database
  T(x,y) :- G(x,y).           add a rule to the program
  ? <relation>                evaluate and print one relation
  ?                           evaluate and print all idb relations
  .semantics <name>           switch engine (naive, seminaive, stratified,
                              wellfounded, inflationary, noninflationary,
                              invention, nondet, effect)
  .seed <n>                   RNG seed for nondeterministic runs
  .max-stages <n>             stage budget
  .threads <n>                worker threads for each evaluation stage
  .morsel-size <n>            driver rows per parallel work morsel
  .explain <fact>.            derivation tree of a fact (Datalog only)
  .why <fact>.                alias of .explain
  .insert <fact>.             queue an edb insertion on the live
                              incremental session (started on first use
                              from the current program and database)
  .retract <fact>.            queue an edb retraction
  .poll                       apply queued edits, re-stabilize the idb
                              incrementally, and report the maintenance
                              work (overdeletions, rederivations, strata
                              skipped); the database reflects the edits
  .stats [relation]           evaluate with per-stage statistics
  .mem [relation]             evaluate and print the space report
                              (per-relation logical bytes, fattest
                              relations and rule deltas)
  .profile [relation]         evaluate under the hierarchical tracer and
                              print the hottest-rules table
  .metrics                    print the process metrics registry
                              (Prometheus text format)
  .program                    show the accumulated rules
  .facts                      show the database
  .check                      classify the program
  .plan                       show each rule's compiled query plan and
                              Δ variants (join order costed from the
                              current database)
  .clear                      drop program and database
  .help                       this text
  .quit                       leave
Commands may also be spelled with a `:` prefix (`:stats`, `:help`, …).
";

/// What the caller should do after a line is processed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplOutcome {
    /// Print this text (possibly empty) and continue.
    Continue(String),
    /// Exit the session.
    Quit,
}

impl Repl {
    /// Creates a fresh session (semi-naive semantics).
    pub fn new() -> Self {
        Repl {
            interner: Interner::new(),
            program: Program::new(),
            database: Instance::new(),
            semantics: Semantics::Seminaive,
            max_stages: None,
            seed: 0,
            threads: None,
            morsel_size: None,
            session: None,
        }
    }

    /// Processes one input line.
    pub fn feed(&mut self, line: &str) -> ReplOutcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            return ReplOutcome::Continue(String::new());
        }
        if let Some(rest) = line.strip_prefix('?') {
            return ReplOutcome::Continue(self.query(rest.trim().trim_end_matches('.'), false));
        }
        if let Some(cmd) = line.strip_prefix('.').or_else(|| line.strip_prefix(':')) {
            return self.command(cmd.trim());
        }
        ReplOutcome::Continue(self.add_statements(line))
    }

    fn command(&mut self, cmd: &str) -> ReplOutcome {
        let (name, arg) = match cmd.split_once(char::is_whitespace) {
            Some((n, a)) => (n, a.trim()),
            None => (cmd, ""),
        };
        let out = match name {
            "quit" | "exit" | "q" => return ReplOutcome::Quit,
            "help" | "h" => REPL_HELP.to_string(),
            "semantics" => match Semantics::parse(arg) {
                Some(Semantics::WhileLang) | None => {
                    format!("unknown semantics `{arg}`\n")
                }
                Some(s) => {
                    self.semantics = s;
                    format!("semantics: {s}\n")
                }
            },
            "seed" => match arg.parse::<u64>() {
                Ok(n) => {
                    self.seed = n;
                    format!("seed: {n}\n")
                }
                Err(_) => format!("bad seed `{arg}`\n"),
            },
            "max-stages" => match arg.parse::<usize>() {
                Ok(n) => {
                    self.max_stages = Some(n);
                    format!("max stages: {n}\n")
                }
                Err(_) => format!("bad stage budget `{arg}`\n"),
            },
            "threads" => match arg.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    self.threads = Some(n);
                    format!("threads: {n}\n")
                }
                _ => format!("bad thread count `{arg}`\n"),
            },
            "morsel-size" => match arg.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    self.morsel_size = Some(n);
                    format!("morsel size: {n}\n")
                }
                _ => format!("bad morsel size `{arg}`\n"),
            },
            "explain" | "why" => self.explain(arg),
            "insert" => self.ivm_edit(arg, true),
            "retract" => self.ivm_edit(arg, false),
            "poll" => self.ivm_poll(),
            "stats" => self.query(arg.trim_end_matches('.'), true),
            "mem" | "memstats" => self.memstats(arg.trim_end_matches('.')),
            "profile" => self.profile(arg.trim_end_matches('.')),
            "metrics" => {
                let rendered = unchained_common::metrics().render();
                if rendered.is_empty() {
                    "no metrics recorded yet (run a query first)\n".to_string()
                } else {
                    rendered
                }
            }
            "program" => self.program.display(&self.interner).to_string(),
            "facts" => self.database.display(&self.interner).to_string(),
            "check" => {
                if self.program.rules.is_empty() {
                    "no rules yet\n".to_string()
                } else {
                    format!("language: {}\n", classify(&self.program))
                }
            }
            "plan" => {
                if self.program.rules.is_empty() {
                    "no rules yet\n".to_string()
                } else {
                    self.plan()
                }
            }
            "clear" => {
                self.program = Program::new();
                self.database = Instance::new();
                self.session = None;
                "cleared\n".to_string()
            }
            other => format!("unknown command `.{other}` (try `.help`)\n"),
        };
        ReplOutcome::Continue(out)
    }

    /// Adds rules/facts from a statement line. Ground single-atom
    /// statements go to the database; everything else to the program.
    fn add_statements(&mut self, line: &str) -> String {
        let parsed = match parse_program(line, &mut self.interner) {
            Ok(p) => p,
            Err(e) => return format!("{e}\n"),
        };
        let mut added_facts = 0;
        let mut added_rules = 0;
        for rule in parsed.rules {
            let ground_fact = rule.body.is_empty()
                && rule.head.len() == 1
                && rule.forall.is_empty()
                && matches!(&rule.head[0], HeadLiteral::Pos(a)
                    if a.args.iter().all(|t| matches!(t, Term::Const(_))));
            if ground_fact {
                let HeadLiteral::Pos(atom) = &rule.head[0] else {
                    unreachable!()
                };
                let values: Vec<Value> = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => *v,
                        Term::Var(_) => unreachable!("checked ground"),
                    })
                    .collect();
                self.database.insert_fact(atom.pred, Tuple::from(values));
                added_facts += 1;
            } else {
                self.program.rules.push(rule);
                added_rules += 1;
            }
        }
        if added_facts + added_rules > 0 {
            // The session's fixpoint no longer matches the inputs.
            self.session = None;
        }
        match (added_facts, added_rules) {
            (0, 0) => String::new(),
            (f, 0) => format!("added {f} fact(s)\n"),
            (0, r) => format!("added {r} rule(s)\n"),
            (f, r) => format!("added {f} fact(s), {r} rule(s)\n"),
        }
    }

    /// Parses `text` as a single ground fact against the session
    /// interner.
    fn ground_fact(&mut self, text: &str) -> Result<(Symbol, Tuple), String> {
        let parsed =
            parse_program(&format!("{text}."), &mut self.interner).map_err(|e| format!("{e}\n"))?;
        let atom = parsed
            .rules
            .first()
            .filter(|r| r.body.is_empty() && r.head.len() == 1)
            .and_then(|r| r.head.first())
            .and_then(HeadLiteral::atom)
            .ok_or_else(|| format!("`{text}` is not a single fact\n"))?;
        let mut values = Vec::new();
        for term in &atom.args {
            match term {
                Term::Const(v) => values.push(*v),
                Term::Var(_) => return Err("edits need a ground fact\n".to_string()),
            }
        }
        Ok((atom.pred, Tuple::from(values)))
    }

    /// The live incremental session, started lazily from the current
    /// program and database.
    fn ivm_session(&mut self) -> Result<&mut IncrementalSession, String> {
        if self.session.is_none() {
            let session =
                IncrementalSession::new(self.program.clone(), &self.database, self.options())
                    .map_err(|e| format!("cannot start incremental session: {e}\n"))?;
            self.session = Some(session);
        }
        Ok(self.session.as_mut().expect("just created"))
    }

    /// Queues one edb edit (`.insert` / `.retract`) on the session.
    fn ivm_edit(&mut self, arg: &str, insert: bool) -> String {
        let verb = if insert { "insert" } else { "retract" };
        let arg = arg.trim().trim_end_matches('.');
        if arg.is_empty() {
            return format!("usage: .{verb} T(1,2).\n");
        }
        let (pred, tuple) = match self.ground_fact(arg) {
            Ok(edit) => edit,
            Err(e) => return e,
        };
        let fact = format!(
            "{}{}",
            self.interner.name(pred),
            tuple.display(&self.interner)
        );
        let session = match self.ivm_session() {
            Ok(s) => s,
            Err(e) => return e,
        };
        let queued = if insert {
            session.insert(pred, tuple)
        } else {
            session.retract(pred, tuple)
        };
        match queued {
            Ok(()) => format!(
                "queued {verb} {fact} ({} pending; `.poll` applies)\n",
                session.pending_edits()
            ),
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// Applies queued edits and reports the maintenance work.
    fn ivm_poll(&mut self) -> String {
        let stats = match self.ivm_session().map(IncrementalSession::poll) {
            Ok(Ok(stats)) => stats,
            Ok(Err(e)) => {
                // A failed poll leaves the session in an unusable state.
                self.session = None;
                return format!("error: {e}\n");
            }
            Err(e) => return e,
        };
        let session = self.session.as_ref().expect("session polled");
        // Queries and `.facts` see the edited database from here on.
        self.database = session.edb().clone();
        format!(
            "applied {} edit(s): +{} −{} facts (overdeleted {}, rederived {}, \
             strata {} skipped / {} recomputed); {} facts total\n",
            stats.applied,
            stats.facts_added,
            stats.facts_removed,
            stats.overdeleted,
            stats.rederived,
            stats.strata_skipped,
            stats.strata_recomputed,
            session.instance().fact_count()
        )
    }

    /// Explains the derivation of a ground fact via why-provenance
    /// (positive Datalog programs only).
    fn explain(&mut self, fact_text: &str) -> String {
        let fact_text = fact_text.trim().trim_end_matches('.');
        if fact_text.is_empty() {
            return "usage: .explain T(1,2)
"
            .to_string();
        }
        // Parse the fact as a one-statement program.
        let parsed = match parse_program(&format!("{fact_text}."), &mut self.interner) {
            Ok(p) => p,
            Err(e) => {
                return format!(
                    "{e}
"
                )
            }
        };
        let Some(rule) = parsed.rules.first() else {
            return "usage: .explain T(1,2)
"
            .to_string();
        };
        let Some(atom) = rule.head.first().and_then(HeadLiteral::atom) else {
            return "usage: .explain T(1,2)
"
            .to_string();
        };
        let mut values = Vec::new();
        for term in &atom.args {
            match term {
                Term::Const(v) => values.push(*v),
                Term::Var(_) => {
                    return "explain needs a ground fact
"
                    .to_string()
                }
            }
        }
        match unchained_core::provenance::minimum_model_with_provenance(
            &self.program,
            &self.database,
            self.options(),
        ) {
            Ok(run) => unchained_core::provenance::explain(
                &run,
                atom.pred,
                &Tuple::from(values),
                &self.interner,
            ),
            Err(e) => format!(
                "error: {e} (explain requires pure Datalog)
"
            ),
        }
    }

    /// Evaluates the program and prints `target` (or all idb
    /// relations); with `stats`, appends the per-stage statistics table.
    fn query(&mut self, target: &str, stats: bool) -> String {
        self.run_eval(target, stats, false, false)
    }

    /// Evaluates and appends the space report to the answer.
    fn memstats(&mut self, target: &str) -> String {
        self.run_eval(target, false, true, false)
    }

    /// Evaluates under the hierarchical tracer and appends the
    /// hottest-rules table to the answer.
    fn profile(&mut self, target: &str) -> String {
        self.run_eval(target, false, false, true)
    }

    /// Renders each rule's compiled query plan, costing the join order
    /// from the current database's cardinalities.
    fn plan(&self) -> String {
        let cmd = crate::args::Command::Plan {
            program: String::new(),
            facts: None,
            syntactic: false,
        };
        let program_text = self.program.display(&self.interner).to_string();
        let facts_text = self.facts_text();
        match crate::run::execute_full(&cmd, &program_text, Some(&facts_text)) {
            Ok(out) => out.text,
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// The database rendered as a fact file: instance display prints
    /// bare facts, and the fact-file parser wants statement terminators.
    fn facts_text(&self) -> String {
        self.database
            .display(&self.interner)
            .to_string()
            .lines()
            .map(|l| format!("{l}.\n"))
            .collect()
    }

    fn run_eval(&mut self, target: &str, stats: bool, memstats: bool, profile: bool) -> String {
        let cmd = crate::args::Command::Eval {
            program: String::new(),
            facts: None,
            semantics: self.semantics,
            output: if target.is_empty() {
                None
            } else {
                Some(target.to_string())
            },
            max_stages: self.max_stages,
            seed: self.seed,
            policy: "positive".to_string(),
            stats,
            memstats,
            trace_json: None,
            threads: self.threads,
            morsel_size: self.morsel_size,
            // The path is a placeholder: the REPL prints the profiling
            // table inline and discards the Chrome JSON payload.
            profile: profile.then(|| "(repl)".to_string()),
            metrics: None,
        };
        let program_text = self.program.display(&self.interner).to_string();
        let facts_text = self.facts_text();
        match crate::run::execute_full(&cmd, &program_text, Some(&facts_text)) {
            Ok(out) => out.text,
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// The currently selected semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Exposes the evaluation options (for tests).
    pub fn options(&self) -> EvalOptions {
        let mut o = EvalOptions::default();
        if let Some(m) = self.max_stages {
            o = o.with_max_stages(m);
        }
        if let Some(n) = self.threads {
            o = o.with_threads(n);
        }
        if let Some(n) = self.morsel_size {
            o = o.with_morsel_size(n);
        }
        o
    }
}

/// Runs the REPL over stdin/stdout (used by `main`).
pub fn run_repl() -> std::io::Result<()> {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut repl = Repl::new();
    writeln!(
        stdout,
        "unchained repl — `.help` for commands, `.quit` to leave"
    )?;
    loop {
        write!(stdout, "> ")?;
        stdout.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            return Ok(()); // EOF
        }
        match repl.feed(&line) {
            ReplOutcome::Continue(out) => {
                write!(stdout, "{out}")?;
            }
            ReplOutcome::Quit => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_ok(repl: &mut Repl, line: &str) -> String {
        match repl.feed(line) {
            ReplOutcome::Continue(out) => out,
            ReplOutcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn facts_rules_and_query() {
        let mut repl = Repl::new();
        assert_eq!(feed_ok(&mut repl, "G(1,2). G(2,3)."), "added 2 fact(s)\n");
        assert_eq!(
            feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y)."),
            "added 2 rule(s)\n"
        );
        let out = feed_ok(&mut repl, "? T");
        assert!(out.contains("T(1, 3)"), "{out}");
        // Bare `?` prints all idb relations.
        let out = feed_ok(&mut repl, "?");
        assert!(out.contains("T(1, 2)"));
    }

    #[test]
    fn switching_semantics() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "moves('a','b'). moves('b','a').");
        feed_ok(&mut repl, "win(x) :- moves(x,y), !win(y).");
        // Semi-naive rejects negation…
        let out = feed_ok(&mut repl, "? win");
        assert!(out.contains("error"), "{out}");
        // …well-founded answers 3-valued.
        assert_eq!(
            feed_ok(&mut repl, ".semantics wellfounded"),
            "semantics: wellfounded\n"
        );
        let out = feed_ok(&mut repl, "? win");
        assert!(out.contains("unknown facts"), "{out}");
    }

    #[test]
    fn commands() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "A(x) :- B(x).");
        assert!(feed_ok(&mut repl, ".program").contains("A(x) :- B(x)."));
        assert!(feed_ok(&mut repl, ".check").contains("language: Datalog"));
        feed_ok(&mut repl, "B(7).");
        assert!(feed_ok(&mut repl, ".facts").contains("B(7)"));
        assert_eq!(feed_ok(&mut repl, ".clear"), "cleared\n");
        assert_eq!(feed_ok(&mut repl, ".check"), "no rules yet\n");
        assert!(feed_ok(&mut repl, ".help").contains(".semantics"));
        assert!(feed_ok(&mut repl, ".bogus").contains("unknown command"));
        assert!(feed_ok(&mut repl, ".semantics bogus").contains("unknown semantics"));
        assert_eq!(repl.feed(".quit"), ReplOutcome::Quit);
    }

    #[test]
    fn plan_command_renders_rule_plans() {
        let mut repl = Repl::new();
        assert_eq!(feed_ok(&mut repl, ".plan"), "no rules yet\n");
        feed_ok(&mut repl, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let out = feed_ok(&mut repl, ".plan");
        assert!(out.contains("% mode: cost"), "{out}");
        assert!(out.contains("rule 1: T(x, y) :- G(x, y)."), "{out}");
        assert!(out.contains("scan G("), "{out}");
        assert!(out.contains("Δ variant:"), "{out}");
        assert!(out.contains("% planner:"), "{out}");
    }

    #[test]
    fn stats_command_prints_stage_table() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let out = feed_ok(&mut repl, ".stats T");
        assert!(out.contains("T(1, 4)"), "{out}");
        assert!(out.contains("engine: seminaive"), "{out}");
        assert!(out.contains("stage"), "{out}");
        // `:`-prefixed spelling works too.
        let out = feed_ok(&mut repl, ":stats");
        assert!(out.contains("engine: seminaive"), "{out}");
        // Plain queries stay stats-free.
        let out = feed_ok(&mut repl, "? T");
        assert!(!out.contains("engine:"), "{out}");
    }

    #[test]
    fn mem_command_prints_space_report() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let out = feed_ok(&mut repl, ".mem T");
        assert!(out.contains("T(1, 4)"), "{out}");
        assert!(out.contains("space breakdown"), "{out}");
        assert!(out.contains("additive: ok"), "{out}");
        assert!(out.contains("fattest relations"), "{out}");
        // `.memstats` is an alias; plain queries stay report-free.
        let out = feed_ok(&mut repl, ".memstats");
        assert!(out.contains("space breakdown"), "{out}");
        let out = feed_ok(&mut repl, "? T");
        assert!(!out.contains("space breakdown"), "{out}");
    }

    #[test]
    fn incremental_session_commands() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2). G(2,3).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        // Edits queue until `.poll` applies them in one batch.
        let out = feed_ok(&mut repl, ".insert G(3,4).");
        assert!(out.contains("queued insert G(3, 4)"), "{out}");
        assert!(out.contains("1 pending"), "{out}");
        let out = feed_ok(&mut repl, ".poll");
        assert!(out.contains("applied 1 edit(s)"), "{out}");
        let out = feed_ok(&mut repl, "? T");
        assert!(out.contains("T(1, 4)"), "{out}");
        // Retraction overdeletes downstream facts, rederiving survivors.
        feed_ok(&mut repl, ".retract G(1,2).");
        let out = feed_ok(&mut repl, ".poll");
        assert!(out.contains("overdeleted"), "{out}");
        let out = feed_ok(&mut repl, "? T");
        assert!(!out.contains("T(1, 2)"), "{out}");
        assert!(out.contains("T(2, 4)"), "{out}");
        // Edits must be validated: idb target, non-ground, empty arg.
        let out = feed_ok(&mut repl, ".insert T(9,9).");
        assert!(out.contains("error"), "{out}");
        let out = feed_ok(&mut repl, ".insert");
        assert!(out.contains("usage"), "{out}");
        let out = feed_ok(&mut repl, ".retract G(x,1).");
        assert!(out.contains("ground"), "{out}");
        // Adding a rule invalidates the session; the next edit restarts
        // it against the maintained database.
        feed_ok(&mut repl, "S(x) :- G(x,y).");
        let out = feed_ok(&mut repl, ".insert G(4,5).");
        assert!(out.contains("1 pending"), "{out}");
        let out = feed_ok(&mut repl, ".poll");
        assert!(out.contains("applied 1 edit(s)"), "{out}");
        let out = feed_ok(&mut repl, "? S");
        assert!(out.contains("S(4)"), "{out}");
    }

    #[test]
    fn explain_shows_derivations() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2). G(2,3).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let out = feed_ok(&mut repl, ".explain T(1,3).");
        assert!(out.contains("⊢ T(1, 3)"), "{out}");
        assert!(out.contains("(given)"), "{out}");
        let out = feed_ok(&mut repl, ".explain T(3,1)");
        assert!(out.contains("not derivable"), "{out}");
        let out = feed_ok(&mut repl, ".explain");
        assert!(out.contains("usage"), "{out}");
        let out = feed_ok(&mut repl, ".explain T(x,y)");
        assert!(out.contains("ground"), "{out}");
    }

    #[test]
    fn why_is_an_alias_of_explain() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y).");
        let out = feed_ok(&mut repl, ".why T(1,2).");
        assert!(out.contains("⊢ T(1, 2)"), "{out}");
    }

    #[test]
    fn profile_command_prints_hottest_rules() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let out = feed_ok(&mut repl, ".profile T");
        assert!(out.contains("T(1, 4)"), "{out}");
        assert!(out.contains("hottest rules"), "{out}");
        // Plain queries stay profile-free.
        let out = feed_ok(&mut repl, "? T");
        assert!(!out.contains("hottest rules"), "{out}");
    }

    #[test]
    fn metrics_command_scrapes_the_registry() {
        let mut repl = Repl::new();
        feed_ok(&mut repl, "G(1,2).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y).");
        feed_ok(&mut repl, "? T");
        let out = feed_ok(&mut repl, ".metrics");
        assert!(out.contains("unchained_eval_runs_total"), "{out}");
        assert!(out.contains("unchained_eval_wall_seconds"), "{out}");
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let mut repl = Repl::new();
        let out = feed_ok(&mut repl, "T(x :- G(x).");
        assert!(out.contains("parse error"));
        // Session still usable.
        assert_eq!(feed_ok(&mut repl, "G(1,1)."), "added 1 fact(s)\n");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut repl = Repl::new();
        assert_eq!(feed_ok(&mut repl, ""), "");
        assert_eq!(feed_ok(&mut repl, "% note"), "");
        assert_eq!(feed_ok(&mut repl, "   "), "");
    }

    #[test]
    fn budget_and_seed_settings() {
        let mut repl = Repl::new();
        assert_eq!(feed_ok(&mut repl, ".max-stages 5"), "max stages: 5\n");
        assert_eq!(feed_ok(&mut repl, ".seed 42"), "seed: 42\n");
        assert!(feed_ok(&mut repl, ".max-stages x").contains("bad"));
        assert_eq!(repl.options().max_stages, Some(5));
    }

    #[test]
    fn threads_setting_and_query_agreement() {
        let mut repl = Repl::new();
        assert_eq!(feed_ok(&mut repl, ".threads 4"), "threads: 4\n");
        assert_eq!(repl.options().threads.get(), 4);
        assert!(feed_ok(&mut repl, ".threads 0").contains("bad"));
        assert!(feed_ok(&mut repl, ".threads x").contains("bad"));
        // Queries through the parallel path match a sequential session.
        feed_ok(&mut repl, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut repl, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        let par = feed_ok(&mut repl, "? T");
        let mut seq = Repl::new();
        feed_ok(&mut seq, ".threads 1");
        feed_ok(&mut seq, "G(1,2). G(2,3). G(3,4).");
        feed_ok(&mut seq, "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        assert_eq!(par, feed_ok(&mut seq, "? T"));
        assert!(par.contains("T(1, 4)"), "{par}");
    }

    #[test]
    fn nonground_heads_become_rules() {
        let mut repl = Repl::new();
        // A "fact" with a variable is really an unconditional rule; it
        // lands in the program, not the database.
        let out = feed_ok(&mut repl, "delay :- .");
        assert_eq!(out, "added 1 fact(s)\n"); // ground zero-ary: a fact
        let out = feed_ok(&mut repl, "Self(x,x) :- Node(x).");
        assert_eq!(out, "added 1 rule(s)\n");
    }
}
