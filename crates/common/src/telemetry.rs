//! Zero-dependency evaluation telemetry: join counters, per-stage
//! fixpoint traces, and a hand-rolled JSON-lines emitter.
//!
//! The paper's empirical story is about *how* forward chaining unfolds —
//! stages of the immediate consequence operator, deltas shrinking to a
//! fixpoint, divergence cycles in noninflationary runs. The engines
//! record that unfolding on the span tree ([`crate::trace`]) of the
//! [`Telemetry`] handle threaded through their options, writing each
//! gauge once, and an [`EvalTrace`] is projected from a run's eval span.
//! A disabled handle (the default) records nothing: the hot join
//! counters are plain unguarded integer adds on the index cache, and
//! everything stage-granular is skipped behind a single `Option` check
//! per stage.
//!
//! Nothing here depends on `serde`/`tracing` — the offline build cannot
//! fetch them, so the JSON emitter and table renderer are hand-rolled.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::trace::{Span, SpanKind, Tracer};
use crate::{Interner, Symbol};

/// Join-work counters, accumulated branch-free on the index cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Number of index probes performed.
    pub probes: u64,
    /// Total tuples returned by those probes.
    pub probe_tuples: u64,
    /// Number of hash indexes built from scratch for a fresh cache entry
    /// (includes the per-round delta indexes, which are built fresh by
    /// design and stay proportional to the round's delta).
    pub index_builds: u64,
    /// Total tuples scanned while building or rebuilding indexes.
    pub indexed_tuples: u64,
    /// Cache probes answered by an index that was already current.
    pub index_hits: u64,
    /// Stale indexes refreshed incrementally by absorbing new tuples.
    pub index_appends: u64,
    /// Total tuples appended by those incremental absorbs.
    pub appended_tuples: u64,
    /// Stale indexes that had to be rebuilt from scratch (the generation
    /// delta could not be reconstructed — removals, clears, diverged
    /// clones). On append-only fixpoints this stays bounded by the number
    /// of relations, not the number of rounds.
    pub index_rebuilds: u64,
}

impl JoinCounters {
    /// Component-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &JoinCounters) -> JoinCounters {
        JoinCounters {
            probes: self.probes - earlier.probes,
            probe_tuples: self.probe_tuples - earlier.probe_tuples,
            index_builds: self.index_builds - earlier.index_builds,
            indexed_tuples: self.indexed_tuples - earlier.indexed_tuples,
            index_hits: self.index_hits - earlier.index_hits,
            index_appends: self.index_appends - earlier.index_appends,
            appended_tuples: self.appended_tuples - earlier.appended_tuples,
            index_rebuilds: self.index_rebuilds - earlier.index_rebuilds,
        }
    }

    /// The counters as span gauges, named as in the JSON-lines trace.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probes", self.probes),
            ("probe_tuples", self.probe_tuples),
            ("index_builds", self.index_builds),
            ("indexed_tuples", self.indexed_tuples),
            ("index_hits", self.index_hits),
            ("index_appends", self.index_appends),
            ("appended_tuples", self.appended_tuples),
            ("index_rebuilds", self.index_rebuilds),
        ]
    }

    /// The counters a join span's [`gauges`](Self::gauges) recorded.
    fn of_span(span: &Span) -> JoinCounters {
        let g = |key| span.gauge(key).unwrap_or(0);
        JoinCounters {
            probes: g("probes"),
            probe_tuples: g("probe_tuples"),
            index_builds: g("index_builds"),
            indexed_tuples: g("indexed_tuples"),
            index_hits: g("index_hits"),
            index_appends: g("index_appends"),
            appended_tuples: g("appended_tuples"),
            index_rebuilds: g("index_rebuilds"),
        }
    }

    /// Component-wise accumulation.
    pub fn absorb(&mut self, other: &JoinCounters) {
        self.probes += other.probes;
        self.probe_tuples += other.probe_tuples;
        self.index_builds += other.index_builds;
        self.indexed_tuples += other.indexed_tuples;
        self.index_hits += other.index_hits;
        self.index_appends += other.index_appends;
        self.appended_tuples += other.appended_tuples;
        self.index_rebuilds += other.index_rebuilds;
    }
}

/// One application of the immediate consequence operator (or the
/// engine's closest analogue: a semi-naive round, an alternating-fixpoint
/// iterate, an incremental poll…): the projection of one round span the
/// stage driver recorded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageRecord {
    /// 1-based stage index within the run.
    pub stage: usize,
    /// Wall time of the stage, in nanoseconds.
    pub wall_nanos: u64,
    /// Facts newly added this stage.
    pub facts_added: usize,
    /// Facts removed this stage (noninflationary semantics only).
    pub facts_removed: usize,
    /// Rule-body matches evaluated this stage (including rederivations).
    pub rules_fired: u64,
    /// Per-predicate cardinality of this stage's delta (added facts).
    pub delta: Vec<(Symbol, usize)>,
    /// Join work performed during this stage.
    pub joins: JoinCounters,
    /// Logical instance bytes at the stage boundary (the
    /// [`crate::space`] model; `0` when the engine does not account).
    pub bytes: u64,
}

/// Snapshot of the noninflationary divergence detector, which remembers
/// every visited state exactly, at run end.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DivergenceSnapshot {
    /// Distinct states remembered when the run ended.
    pub states_seen: usize,
    /// Stage at which a cycle was detected, if one was.
    pub diverged_stage: Option<usize>,
    /// Period of the detected cycle, if one was.
    pub period: Option<usize>,
}

/// A full evaluation trace: per-stage records plus run-level summary,
/// projected from the span tree of a handle's runs (see
/// [`Telemetry::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Engine that produced the trace (`"naive"`, `"seminaive"`, …).
    pub engine: String,
    /// Per-stage records, in order.
    pub stages: Vec<StageRecord>,
    /// Total wall time of the run, in nanoseconds.
    pub total_wall_nanos: u64,
    /// Largest number of live facts observed: at every stage's end, and
    /// mid-stage where an engine holds two states at once (a Datalog¬¬
    /// stage's old and new instance, a while assignment's result beside
    /// the instance), so the value is a true high-water mark rather
    /// than a stage-boundary sample.
    pub peak_facts: usize,
    /// Instance size at run end.
    pub final_facts: usize,
    /// High-water mark of live logical bytes (the [`crate::space`]
    /// model), sampled alongside `peak_facts`.
    pub bytes_peak: u64,
    /// Logical instance bytes at run end.
    pub bytes_final: u64,
    /// Total rule-body matches across stages.
    pub rules_fired: u64,
    /// Total join work across stages.
    pub joins: JoinCounters,
    /// Scans the planner narrowed to index probes via
    /// sideways-information-passing (summed across strata). A plan
    /// property, so deterministic at any thread count.
    pub plan_joins_pruned: u64,
    /// Tuples withdrawn by the incremental engine's overdelete pass
    /// (DRed overestimate), summed across polls. Zero for batch runs.
    pub ivm_overdeleted: u64,
    /// Withdrawn tuples the incremental engine restored from
    /// alternative support, summed across polls. Zero for batch runs.
    pub ivm_rederived: u64,
    /// Divergence-detector snapshot (noninflationary runs).
    pub divergence: Option<DivergenceSnapshot>,
    /// Values invented by the Datalog¬new engine.
    pub invented: usize,
    /// Candidate count at each nondeterministic choice point.
    pub choice_points: Vec<usize>,
    /// While-language loop iterations executed.
    pub loop_iterations: usize,
    /// Interner size after the run (set by the frontend, which owns it).
    pub interner_symbols: usize,
    /// Worker threads the evaluation ran with (`0` = the engine does not
    /// support the option; `1` = sequential; `>1` = parallel rounds).
    pub threads: usize,
    /// Free-form annotations (strata, rewrites, candidate models…).
    pub notes: Vec<String>,
}

impl EvalTrace {
    /// Total facts added across all stages.
    pub fn total_facts_added(&self) -> usize {
        self.stages.iter().map(|s| s.facts_added).sum()
    }

    /// The trace of `runs`, the eval spans of the runs one handle made,
    /// in order: the engine is the first run's, wall time the runs'
    /// durations, the final sizes the last run's `final_facts` and
    /// `bytes_final`. Everything else is read off the runs' subtrees.
    fn project(runs: &[Span]) -> EvalTrace {
        let mut trace = EvalTrace {
            engine: runs.first().map(|run| run.name.clone()).unwrap_or_default(),
            ..EvalTrace::default()
        };
        for run in runs {
            trace.total_wall_nanos += run.dur_nanos;
            trace.final_facts = run.gauge("final_facts").unwrap_or(0) as usize;
            trace.bytes_final = run.gauge("bytes_final").unwrap_or(0);
            trace.add(run);
        }
        trace.peak_facts = trace.peak_facts.max(trace.final_facts);
        trace.bytes_peak = trace.bytes_peak.max(trace.bytes_final);
        trace
    }

    /// Adds what `span` and its subtree recorded, in completion order:
    /// the run-level maxima raised on eval spans, a stage per round span
    /// carrying `rules_fired` (the stage driver's), the worker count of
    /// join leaves, every `choices` gauge and every note.
    fn add(&mut self, span: &Span) {
        for child in &span.children {
            self.add(child);
        }
        let g = |key| span.gauge(key).unwrap_or(0);
        match span.kind {
            SpanKind::Eval => {
                self.peak_facts = self.peak_facts.max(g("peak_facts") as usize);
                self.bytes_peak = self.bytes_peak.max(g("bytes_peak"));
                self.invented = self.invented.max(g("invented") as usize);
                self.loop_iterations = self.loop_iterations.max(g("iterations") as usize);
                if let Some(states_seen) = span.gauge("states_seen") {
                    self.divergence = Some(DivergenceSnapshot {
                        states_seen: states_seen as usize,
                        diverged_stage: span.gauge("diverged_stage").map(|s| s as usize),
                        period: span.gauge("period").map(|p| p as usize),
                    });
                }
            }
            SpanKind::Round if span.gauge("rules_fired").is_some() => self.add_stage(span),
            SpanKind::Join => self.threads = self.threads.max(g("threads") as usize),
            _ => {}
        }
        if let Some(choices) = span.gauge("choices") {
            self.choice_points.push(choices as usize);
        }
        self.notes.extend(span.notes.iter().cloned());
    }

    /// Adds the stage `round` recorded: its gauges, its Δ from its absorb
    /// leaves and its join work from its join leaf.
    fn add_stage(&mut self, round: &Span) {
        let g = |key| round.gauge(key).unwrap_or(0);
        let mut stage = StageRecord {
            stage: self.stages.len() + 1,
            wall_nanos: round.dur_nanos,
            facts_added: g("facts_added") as usize,
            facts_removed: g("facts_removed") as usize,
            rules_fired: g("rules_fired"),
            bytes: g("bytes"),
            ..StageRecord::default()
        };
        for leaf in &round.children {
            match (leaf.kind, leaf.pred) {
                (SpanKind::Absorb, Some(pred)) => {
                    stage
                        .delta
                        .push((pred, leaf.gauge("facts_added").unwrap_or(0) as usize));
                }
                (SpanKind::Join, _) => stage.joins.absorb(&JoinCounters::of_span(leaf)),
                _ => {}
            }
        }
        self.rules_fired += stage.rules_fired;
        self.joins.absorb(&stage.joins);
        self.plan_joins_pruned += g("plan_joins_pruned");
        self.ivm_overdeleted += g("overdeleted");
        self.ivm_rederived += g("rederived");
        self.peak_facts = self.peak_facts.max(g("facts") as usize);
        self.bytes_peak = self.bytes_peak.max(stage.bytes);
        self.stages.push(stage);
    }

    /// Renders the trace as JSON lines: one `run` object followed by one
    /// `stage` object per stage. Predicate names resolve via `interner`.
    pub fn to_json_lines(&self, interner: &Interner) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"run\"");
        push_json_str(&mut out, "engine", &self.engine);
        let _ = write!(
            out,
            ",\"stages\":{},\"total_wall_nanos\":{},\"peak_facts\":{},\"final_facts\":{}",
            self.stages.len(),
            self.total_wall_nanos,
            self.peak_facts,
            self.final_facts
        );
        let _ = write!(
            out,
            ",\"bytes_peak\":{},\"bytes_final\":{}",
            self.bytes_peak, self.bytes_final
        );
        let _ = write!(out, ",\"rules_fired\":{}", self.rules_fired);
        let _ = write!(out, ",\"plan_joins_pruned\":{}", self.plan_joins_pruned);
        let _ = write!(
            out,
            ",\"ivm_overdeleted\":{},\"ivm_rederived\":{}",
            self.ivm_overdeleted, self.ivm_rederived
        );
        out.push_str(",\"joins\":");
        push_joins(&mut out, &self.joins);
        out.push_str(",\"divergence\":");
        match &self.divergence {
            None => out.push_str("null"),
            Some(d) => {
                let _ = write!(
                    out,
                    "{{\"detector\":\"exact\",\"states_seen\":{}",
                    d.states_seen
                );
                match d.diverged_stage {
                    Some(s) => {
                        let _ = write!(out, ",\"diverged_stage\":{s}");
                    }
                    None => out.push_str(",\"diverged_stage\":null"),
                }
                match d.period {
                    Some(p) => {
                        let _ = write!(out, ",\"period\":{p}");
                    }
                    None => out.push_str(",\"period\":null"),
                }
                out.push('}');
            }
        }
        let _ = write!(
            out,
            ",\"invented\":{},\"loop_iterations\":{},\"interner_symbols\":{},\"threads\":{}",
            self.invented, self.loop_iterations, self.interner_symbols, self.threads
        );
        out.push_str(",\"choice_points\":[");
        for (i, c) in self.choice_points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(n));
        }
        out.push_str("]}\n");

        for s in &self.stages {
            let _ = write!(
                out,
                "{{\"type\":\"stage\",\"stage\":{},\"wall_nanos\":{},\"facts_added\":{},\
                 \"facts_removed\":{},\"rules_fired\":{},\"bytes\":{}",
                s.stage, s.wall_nanos, s.facts_added, s.facts_removed, s.rules_fired, s.bytes
            );
            out.push_str(",\"delta\":{");
            // Name order, the order a JSON reader normalizes objects to.
            let mut delta: Vec<(&str, usize)> = s
                .delta
                .iter()
                .map(|(pred, n)| (interner.name(*pred), *n))
                .collect();
            delta.sort_unstable();
            for (i, (pred, n)) in delta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(pred), n);
            }
            out.push_str("},\"joins\":");
            push_joins(&mut out, &s.joins);
            out.push_str("}\n");
        }
        out
    }

    /// Renders the trace as a human-readable statistics table.
    pub fn render_table(&self, interner: &Interner) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine: {}   stages: {}   wall: {}{}",
            self.engine,
            self.stages.len(),
            fmt_nanos(self.total_wall_nanos),
            if self.threads > 1 {
                format!("   threads: {}", self.threads)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "facts: {} final (peak {})   rules fired: {}   probes: {} ({} tuples)   \
             index builds: {} ({} tuples)",
            self.final_facts,
            self.peak_facts,
            self.rules_fired,
            self.joins.probes,
            self.joins.probe_tuples,
            self.joins.index_builds,
            self.joins.indexed_tuples
        );
        if self.bytes_final > 0 || self.bytes_peak > 0 {
            let _ = writeln!(
                out,
                "space: {} final (peak {})",
                crate::space::fmt_bytes(self.bytes_final),
                crate::space::fmt_bytes(self.bytes_peak)
            );
        }
        let lookups = self.joins.index_hits
            + self.joins.index_appends
            + self.joins.index_builds
            + self.joins.index_rebuilds;
        if lookups > 0 {
            let reused = self.joins.index_hits + self.joins.index_appends;
            let _ = writeln!(
                out,
                "index cache: {} hits, {} appends ({} tuples), {} rebuilds   reuse: {:.1}%",
                self.joins.index_hits,
                self.joins.index_appends,
                self.joins.appended_tuples,
                self.joins.index_rebuilds,
                100.0 * reused as f64 / lookups as f64
            );
        }
        if self.plan_joins_pruned > 0 {
            let _ = writeln!(
                out,
                "planner: {} joins pruned to index probes",
                self.plan_joins_pruned
            );
        }
        if self.invented > 0 {
            let _ = writeln!(out, "invented values: {}", self.invented);
        }
        if self.loop_iterations > 0 {
            let _ = writeln!(out, "loop iterations: {}", self.loop_iterations);
        }
        if !self.choice_points.is_empty() {
            let _ = writeln!(
                out,
                "choice points: {} (candidates per step: {})",
                self.choice_points.len(),
                self.choice_points
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        if let Some(d) = &self.divergence {
            let verdict = match (d.diverged_stage, d.period) {
                (Some(s), Some(p)) => format!("cycle at stage {s}, period {p}"),
                _ => "no cycle".to_string(),
            };
            let _ = writeln!(
                out,
                "divergence detector: exact ({} states seen, {verdict})",
                d.states_seen
            );
        }
        if self.interner_symbols > 0 {
            let _ = writeln!(out, "interner symbols: {}", self.interner_symbols);
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>8} {:>12}  delta",
                "stage", "added", "removed", "fired", "wall"
            );
            for s in &self.stages {
                let delta = s
                    .delta
                    .iter()
                    .map(|(pred, n)| format!("{}={}", interner.name(*pred), n))
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(
                    out,
                    "{:>5} {:>8} {:>8} {:>8} {:>12}  {}",
                    s.stage,
                    s.facts_added,
                    s.facts_removed,
                    s.rules_fired,
                    fmt_nanos(s.wall_nanos),
                    delta
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// The top-`n` relations by cumulative delta tuples across stages —
    /// the cardinality-growth companion to the tracer's hottest-rules
    /// table: which relations' deltas dominated the run.
    pub fn fattest_deltas(&self, interner: &Interner, n: usize) -> String {
        let mut per: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
        for s in &self.stages {
            for (pred, added) in &s.delta {
                let e = per.entry(interner.name(*pred)).or_insert((0, 0));
                e.0 += added;
                e.1 += 1;
            }
        }
        let mut rows: Vec<(&str, usize, usize)> =
            per.into_iter().map(|(k, (t, r))| (k, t, r)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>10}",
            "fattest deltas", "tuples", "stages"
        );
        for (name, tuples, stages) in rows.into_iter().take(n) {
            let _ = writeln!(out, "{name:<24} {tuples:>12} {stages:>10}");
        }
        out
    }
}

fn push_joins(out: &mut String, j: &JoinCounters) {
    for (i, (key, value)) in j.gauges().into_iter().enumerate() {
        let sep = if i == 0 { '{' } else { ',' };
        let _ = write!(out, "{sep}\"{key}\":{value}");
    }
    out.push('}');
}

fn push_json_str(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"{}\"", json_escape(value));
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// A cheap, clonable handle to the span tracer an evaluation records
/// into, and to the runs made through it.
///
/// The span tree is the only recorder: engines write each gauge once,
/// on a span, and [`snapshot`](Self::snapshot) projects the
/// [`EvalTrace`] of the handle's runs from their eval spans. One switch:
/// the handle is on exactly when its tracer is. Off (the default), every
/// recording call is a single `Option` check. On, it records into a
/// tracer of its own ([`enabled`](Self::enabled)) or a caller's
/// ([`with_tracer`](Self::with_tracer)), which several handles may
/// share: each still projects only its own runs, and the caller's
/// tracer gets every run's spans once. Clones share the runs; the handle
/// is `Send + Sync`, so options carrying it cross into scoped worker
/// threads. The locks are poison-tolerant: a panicking recorder leaves a
/// readable trace behind.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    tracer: Tracer,
    /// The runs made through this handle; `None` exactly when off.
    runs: Option<Arc<Mutex<Runs>>>,
}

/// The runs of one handle.
#[derive(Debug, Default)]
struct Runs {
    /// Whether the tracer is the handle's own: no one else reads it, so
    /// a closed run moves out of it instead of being copied.
    own: bool,
    /// Runs open now. A run opened inside another — the inner engine of
    /// magic sets — is part of the outer one.
    open: usize,
    /// The eval span of every closed outermost run, in order.
    closed: Vec<Span>,
}

fn lock(runs: &Mutex<Runs>) -> MutexGuard<'_, Runs> {
    runs.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Telemetry {
    /// The disabled (no-op) handle.
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// An enabled handle recording into a tracer of its own.
    pub fn enabled() -> Self {
        Telemetry::recording(Tracer::enabled(), true)
    }

    /// This handle recording into `tracer` instead, which keeps every
    /// run's spans: on exactly when `tracer` is. The tracer rides inside
    /// the handle through `EvalOptions` into every engine, so span
    /// emission needs no signature changes.
    #[must_use]
    pub fn with_tracer(self, tracer: Tracer) -> Self {
        Telemetry::recording(tracer, false)
    }

    fn recording(tracer: Tracer, own: bool) -> Self {
        let runs = tracer.is_enabled().then(|| {
            Arc::new(Mutex::new(Runs {
                own,
                ..Runs::default()
            }))
        });
        Telemetry { tracer, runs }
    }

    /// The span tracer the handle records into (disabled when off).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.runs.is_some()
    }

    /// Opens a run of `engine`: an eval span, closed when the returned
    /// guard drops. The handle keeps the span of each outermost run.
    pub fn run(&self, engine: &str) -> Run {
        if let Some(runs) = &self.runs {
            self.tracer.open(SpanKind::Eval, engine);
            lock(runs).open += 1;
        }
        Run(self.clone())
    }

    /// The trace of every run made through this handle, if enabled.
    pub fn snapshot(&self) -> Option<EvalTrace> {
        let runs = self.runs.as_ref()?;
        Some(EvalTrace::project(&lock(runs).closed))
    }
}

/// An open run (see [`Telemetry::run`]); dropping it closes the run's
/// eval span.
#[must_use]
#[derive(Debug)]
pub struct Run(Telemetry);

impl Drop for Run {
    fn drop(&mut self) {
        let Some(runs) = &self.0.runs else {
            return;
        };
        let tracer = &self.0.tracer;
        let mut runs = lock(runs);
        runs.open -= 1;
        if runs.open > 0 {
            tracer.close(false);
        } else if runs.own {
            tracer.close(false);
            runs.closed.extend(tracer.finish());
        } else {
            runs.closed.extend(tracer.close(true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time guard: the handle must stay shareable across worker
    /// threads (it rides inside `EvalOptions` into `thread::scope`).
    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Telemetry>();
        assert_sync::<EvalTrace>();
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        {
            let _run = tel.run("x");
            tel.tracer()
                .note(|| unreachable!("notes run only when tracing"));
        }
        assert!(tel.snapshot().is_none());
        assert!(!Telemetry::enabled().with_tracer(Tracer::off()).is_enabled());
    }

    #[test]
    fn clones_share_one_trace() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        {
            let _run = other.run("seminaive");
            other.tracer().note(|| "hello".into());
        }
        let trace = tel.snapshot().unwrap();
        assert_eq!(trace.engine, "seminaive");
        assert_eq!(trace.notes, vec!["hello".to_string()]);
    }

    /// One recorded stage: a round span with its gauges and a join leaf.
    fn stage(tracer: &Tracer, added: u64, fired: u64, probes: u64) {
        let _round = tracer.span(SpanKind::Round, "round");
        tracer.gauge("facts_added", added);
        tracer.gauge("rules_fired", fired);
        tracer.gauge("facts", added);
        let mut join = Span::leaf(SpanKind::Join, "joins");
        join.gauges = JoinCounters {
            probes,
            probe_tuples: 2 * probes,
            ..JoinCounters::default()
        }
        .gauges();
        tracer.leaf(join);
    }

    #[test]
    fn projection_sums_stages() {
        let tel = Telemetry::enabled();
        let tracer = tel.tracer().clone();
        {
            let _run = tel.run("naive");
            stage(&tracer, 3, 5, 2);
            stage(&tracer, 1, 4, 1);
            tracer.raise("peak_facts", 9);
            tracer.raise("peak_facts", 7);
            tracer.gauge("final_facts", 10);
        }
        let t = tel.snapshot().unwrap();
        assert_eq!(t.stages.len(), 2);
        assert_eq!((t.stages[0].stage, t.stages[1].stage), (1, 2));
        assert_eq!(t.rules_fired, 9);
        assert_eq!(t.joins.probes, 3);
        assert_eq!(t.joins.probe_tuples, 6);
        assert_eq!(t.final_facts, 10);
        assert_eq!(t.peak_facts, 10);
        assert_eq!(t.total_facts_added(), 4);
    }

    /// A run opened inside another through the same handle is part of
    /// it, and handles sharing a tracer each project their own runs.
    #[test]
    fn runs_nest_and_handles_share_a_tracer() {
        let tracer = Tracer::enabled();
        let (a, b) = (
            Telemetry::off().with_tracer(tracer.clone()),
            Telemetry::off().with_tracer(tracer.clone()),
        );
        {
            let _outer = a.run("magic");
            let _inner = a.run("seminaive");
            stage(&tracer, 2, 2, 1);
        }
        {
            let _run = b.run("naive");
            stage(&tracer, 1, 1, 1);
        }
        let (ta, tb) = (a.snapshot().unwrap(), b.snapshot().unwrap());
        assert_eq!((ta.engine.as_str(), ta.stages.len()), ("magic", 1));
        assert_eq!((tb.engine.as_str(), tb.stages.len()), ("naive", 1));
        let roots = tracer.finish();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].children[0].kind, SpanKind::Eval);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_lines_shape() {
        let interner = Interner::new();
        let mut trace = EvalTrace {
            engine: "naive".into(),
            ..Default::default()
        };
        trace.stages.push(StageRecord {
            stage: 1,
            facts_added: 2,
            ..Default::default()
        });
        let text = trace.to_json_lines(&interner);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"run\""));
        assert!(lines[0].contains("\"engine\":\"naive\""));
        assert!(lines[1].starts_with("{\"type\":\"stage\""));
        assert!(lines[1].contains("\"facts_added\":2"));
    }

    #[test]
    fn table_mentions_stages_and_engine() {
        let mut interner = Interner::new();
        let t_sym = interner.intern("T");
        let mut trace = EvalTrace {
            engine: "seminaive".into(),
            total_wall_nanos: 1_500,
            ..Default::default()
        };
        trace.stages.push(StageRecord {
            stage: 1,
            facts_added: 4,
            delta: vec![(t_sym, 4)],
            ..Default::default()
        });
        let table = trace.render_table(&interner);
        assert!(table.contains("engine: seminaive"));
        assert!(table.contains("T=4"));
        assert!(table.contains("1.5µs"));
    }
}
