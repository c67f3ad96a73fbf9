//! Zero-dependency evaluation telemetry: counters, monotonic timers,
//! per-stage fixpoint traces, and a hand-rolled JSON-lines emitter.
//!
//! The paper's empirical story is about *how* forward chaining unfolds —
//! stages of the immediate consequence operator, deltas shrinking to a
//! fixpoint, divergence cycles in noninflationary runs. The engines
//! record that unfolding into an [`EvalTrace`] through a [`Telemetry`]
//! handle threaded through their options. A disabled handle (the
//! default) is a no-op sink: the hot join counters are plain unguarded
//! integer adds on the index cache, and everything stage-granular is
//! skipped behind a single `Option` check per stage.
//!
//! Nothing here depends on `serde`/`tracing` — the offline build cannot
//! fetch them, so the JSON emitter and table renderer are hand-rolled.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::json::Json;
use crate::trace::Tracer;
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
/// iterate, a nondeterministic firing step…).
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

/// Snapshot of the noninflationary divergence detector at run end.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DivergenceSnapshot {
    /// Detector kind: `"exact"`, `"fingerprint"`, or `"off"`.
    pub detector: String,
    /// Distinct states remembered when the run ended.
    pub states_seen: usize,
    /// Stage at which a cycle was detected, if one was.
    pub diverged_stage: Option<usize>,
    /// Period of the detected cycle, if one was.
    pub period: Option<usize>,
}

/// A full evaluation trace: per-stage records plus run-level summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Engine that produced the trace (`"naive"`, `"seminaive"`, …).
    pub engine: String,
    /// Per-stage records, in order.
    pub stages: Vec<StageRecord>,
    /// Total wall time of the run, in nanoseconds.
    pub total_wall_nanos: u64,
    /// Largest number of live facts observed, sampled after every rule
    /// application (instance plus any pending delta buffer), so the
    /// value is a true high-water mark rather than a stage-boundary
    /// sample.
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

    /// Fills the run-level summary from the stage records: total wall
    /// time, final/peak sizes, and the stage sums for rules fired and
    /// join work.
    pub fn finish(&mut self, total_wall_nanos: u64, final_facts: usize) {
        self.total_wall_nanos = total_wall_nanos;
        self.final_facts = final_facts;
        self.peak_facts = self.peak_facts.max(final_facts);
        self.bytes_peak = self.bytes_peak.max(self.bytes_final);
        self.rules_fired = self.stages.iter().map(|s| s.rules_fired).sum();
        let mut joins = JoinCounters::default();
        for s in &self.stages {
            joins.absorb(&s.joins);
        }
        self.joins = joins;
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
                out.push('{');
                let _ = write!(out, "\"detector\":\"{}\"", json_escape(&d.detector));
                let _ = write!(out, ",\"states_seen\":{}", d.states_seen);
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
            // Name order, matching the object normalization applied by
            // `from_json_lines` — keeps the round-trip exact.
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

    /// Parses a trace back from its [`to_json_lines`](Self::to_json_lines)
    /// rendering. Predicate names re-intern through `interner`; the
    /// result compares equal (`PartialEq`) to the emitted trace whenever
    /// the same interner produced the names, so the round-trip drift
    /// test in `crates/common/tests/format_roundtrip.rs` can hold the
    /// emitter and this parser to one schema.
    pub fn from_json_lines(text: &str, interner: &mut Interner) -> Result<EvalTrace, String> {
        let joins_of = |v: &Json, what: &str| -> Result<JoinCounters, String> {
            let field = |key: &str| {
                v.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{what}: missing joins.{key}"))
            };
            Ok(JoinCounters {
                probes: field("probes")?,
                probe_tuples: field("probe_tuples")?,
                index_builds: field("index_builds")?,
                indexed_tuples: field("indexed_tuples")?,
                index_hits: field("index_hits")?,
                index_appends: field("index_appends")?,
                appended_tuples: field("appended_tuples")?,
                index_rebuilds: field("index_rebuilds")?,
            })
        };

        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let run_line = lines.next().ok_or("empty trace")?;
        let run = Json::parse(run_line).map_err(|e| format!("run line: {e}"))?;
        if run.get("type").and_then(Json::as_str) != Some("run") {
            return Err("first line is not a `run` object".into());
        }
        let req_u64 = |key: &str| {
            run.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("run: missing `{key}`"))
        };
        let req_usize = |key: &str| {
            run.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("run: missing `{key}`"))
        };
        let mut trace = EvalTrace {
            engine: run
                .get("engine")
                .and_then(Json::as_str)
                .ok_or("run: missing `engine`")?
                .to_string(),
            total_wall_nanos: req_u64("total_wall_nanos")?,
            peak_facts: req_usize("peak_facts")?,
            final_facts: req_usize("final_facts")?,
            rules_fired: req_u64("rules_fired")?,
            plan_joins_pruned: req_u64("plan_joins_pruned")?,
            ivm_overdeleted: req_u64("ivm_overdeleted")?,
            ivm_rederived: req_u64("ivm_rederived")?,
            bytes_peak: req_u64("bytes_peak")?,
            bytes_final: req_u64("bytes_final")?,
            joins: joins_of(run.get("joins").ok_or("run: missing `joins`")?, "run")?,
            invented: req_usize("invented")?,
            loop_iterations: req_usize("loop_iterations")?,
            interner_symbols: req_usize("interner_symbols")?,
            threads: req_usize("threads")?,
            ..EvalTrace::default()
        };
        trace.divergence = match run.get("divergence").ok_or("run: missing `divergence`")? {
            Json::Null => None,
            d => Some(DivergenceSnapshot {
                detector: d
                    .get("detector")
                    .and_then(Json::as_str)
                    .ok_or("divergence: missing `detector`")?
                    .to_string(),
                states_seen: d
                    .get("states_seen")
                    .and_then(Json::as_usize)
                    .ok_or("divergence: missing `states_seen`")?,
                diverged_stage: d.get("diverged_stage").and_then(Json::as_usize),
                period: d.get("period").and_then(Json::as_usize),
            }),
        };
        for c in run
            .get("choice_points")
            .and_then(Json::as_arr)
            .ok_or("run: missing `choice_points`")?
        {
            trace
                .choice_points
                .push(c.as_usize().ok_or("choice_points: non-integer entry")?);
        }
        for n in run
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or("run: missing `notes`")?
        {
            trace
                .notes
                .push(n.as_str().ok_or("notes: non-string entry")?.to_string());
        }
        let declared_stages = req_usize("stages")?;

        for line in lines {
            let what = "stage line";
            let stage = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
            if stage.get("type").and_then(Json::as_str) != Some("stage") {
                return Err(format!("{what}: not a `stage` object"));
            }
            let mut record = StageRecord {
                stage: stage
                    .get("stage")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("{what}: missing `stage`"))?,
                wall_nanos: stage
                    .get("wall_nanos")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{what}: missing `wall_nanos`"))?,
                facts_added: stage
                    .get("facts_added")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("{what}: missing `facts_added`"))?,
                facts_removed: stage
                    .get("facts_removed")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("{what}: missing `facts_removed`"))?,
                rules_fired: stage
                    .get("rules_fired")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{what}: missing `rules_fired`"))?,
                bytes: stage
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{what}: missing `bytes`"))?,
                joins: joins_of(
                    stage
                        .get("joins")
                        .ok_or_else(|| format!("{what}: missing `joins`"))?,
                    what,
                )?,
                ..StageRecord::default()
            };
            match stage.get("delta") {
                Some(Json::Obj(members)) => {
                    for (pred, n) in members {
                        record.delta.push((
                            interner.intern(pred),
                            n.as_usize()
                                .ok_or_else(|| format!("{what}: non-integer delta"))?,
                        ));
                    }
                }
                _ => return Err(format!("{what}: missing `delta` object")),
            }
            trace.stages.push(record);
        }
        if trace.stages.len() != declared_stages {
            return Err(format!(
                "run declares {declared_stages} stages but {} stage lines follow",
                trace.stages.len()
            ));
        }
        Ok(trace)
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
                "divergence detector: {} ({} states seen, {verdict})",
                d.detector, d.states_seen
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
    let _ = write!(
        out,
        "{{\"probes\":{},\"probe_tuples\":{},\"index_builds\":{},\"indexed_tuples\":{},\
         \"index_hits\":{},\"index_appends\":{},\"appended_tuples\":{},\"index_rebuilds\":{}}}",
        j.probes,
        j.probe_tuples,
        j.index_builds,
        j.indexed_tuples,
        j.index_hits,
        j.index_appends,
        j.appended_tuples,
        j.index_rebuilds
    );
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

/// A monotonic timer that only reads the clock when telemetry is on.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// A stopwatch that never reads the clock and reports 0.
    pub fn disabled() -> Self {
        Stopwatch(None)
    }

    /// Nanoseconds elapsed since creation (0 when disabled). Saturates
    /// at `u64::MAX` (≈ 584 years).
    pub fn nanos(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

/// A cheap, clonable handle to an optional [`EvalTrace`] sink.
///
/// Disabled (the default) it is a no-op: every recording method returns
/// immediately after one `Option` check — no lock is ever touched.
/// Enabled, it shares one mutex-guarded trace among all clones (the
/// handle is `Send + Sync`, so options structs carrying it can cross
/// into scoped worker threads), and it can be read back by whoever
/// created it. The lock is poison-tolerant: a panicking recorder leaves
/// a readable trace behind.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<EvalTrace>>>,
    tracer: Tracer,
}

impl Telemetry {
    /// The disabled (no-op) handle.
    pub fn off() -> Self {
        Telemetry {
            sink: None,
            tracer: Tracer::off(),
        }
    }

    /// An enabled handle with an empty trace (span tracing stays off —
    /// see [`with_tracer`](Self::with_tracer)).
    pub fn enabled() -> Self {
        Telemetry {
            sink: Some(Arc::new(Mutex::new(EvalTrace::default()))),
            tracer: Tracer::off(),
        }
    }

    /// This handle with the given span tracer attached. The tracer
    /// rides inside the telemetry handle through `EvalOptions` into
    /// every engine, so span emission needs no signature changes.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached span tracer (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `f` on the trace if enabled; returns its result.
    pub fn with<R>(&self, f: impl FnOnce(&mut EvalTrace) -> R) -> Option<R> {
        self.sink
            .as_ref()
            .map(|cell| f(&mut cell.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Resets the trace and names the engine. Call at run entry.
    pub fn begin(&self, engine: &str) {
        self.with(|t| {
            *t = EvalTrace::default();
            t.engine = engine.to_string();
        });
    }

    /// Renames the engine without clearing the trace (wrapping engines
    /// such as magic-sets claim the inner engine's trace this way).
    pub fn rename(&self, engine: &str) {
        self.with(|t| t.engine = engine.to_string());
    }

    /// Appends a free-form note.
    pub fn note(&self, note: impl Into<String>) {
        self.with(|t| t.notes.push(note.into()));
    }

    /// Raises the live-size high-water marks (facts and logical bytes).
    /// Engines call this after every rule application with the total
    /// live footprint — instance plus any pending delta buffers — so
    /// `peak_facts`/`bytes_peak` are true peaks, not stage-boundary
    /// samples. Guard the (cheap) argument computation behind
    /// [`is_enabled`](Self::is_enabled) on hot paths.
    pub fn sample_peak(&self, live_facts: usize, live_bytes: usize) {
        self.with(|t| {
            t.peak_facts = t.peak_facts.max(live_facts);
            t.bytes_peak = t.bytes_peak.max(live_bytes as u64);
        });
    }

    /// A stopwatch that is live only when telemetry is enabled.
    pub fn stopwatch(&self) -> Stopwatch {
        if self.sink.is_some() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch::disabled()
        }
    }

    /// Fills the run-level summary (see [`EvalTrace::finish`]).
    pub fn finish(&self, sw: &Stopwatch, final_facts: usize) {
        let nanos = sw.nanos();
        self.with(|t| t.finish(nanos, final_facts));
    }

    /// Clones the current trace out of the handle, if enabled.
    pub fn snapshot(&self) -> Option<EvalTrace> {
        self.with(|t| t.clone())
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
        tel.begin("x");
        tel.note("ignored");
        assert_eq!(tel.with(|_| ()), None);
        assert!(tel.snapshot().is_none());
        assert_eq!(tel.stopwatch().nanos(), 0);
    }

    #[test]
    fn clones_share_one_trace() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.begin("seminaive");
        other.note("hello");
        let trace = tel.snapshot().unwrap();
        assert_eq!(trace.engine, "seminaive");
        assert_eq!(trace.notes, vec!["hello".to_string()]);
    }

    #[test]
    fn finish_sums_stages() {
        let tel = Telemetry::enabled();
        tel.begin("naive");
        tel.with(|t| {
            t.stages.push(StageRecord {
                stage: 1,
                facts_added: 3,
                rules_fired: 5,
                joins: JoinCounters {
                    probes: 2,
                    probe_tuples: 7,
                    ..Default::default()
                },
                ..Default::default()
            });
            t.stages.push(StageRecord {
                stage: 2,
                facts_added: 1,
                rules_fired: 4,
                joins: JoinCounters {
                    probes: 1,
                    probe_tuples: 1,
                    ..Default::default()
                },
                ..Default::default()
            });
        });
        tel.finish(&Stopwatch::disabled(), 10);
        let t = tel.snapshot().unwrap();
        assert_eq!(t.rules_fired, 9);
        assert_eq!(t.joins.probes, 3);
        assert_eq!(t.joins.probe_tuples, 8);
        assert_eq!(t.final_facts, 10);
        assert_eq!(t.total_facts_added(), 4);
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
        trace.finish(42, 2);
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
            ..Default::default()
        };
        trace.stages.push(StageRecord {
            stage: 1,
            facts_added: 4,
            delta: vec![(t_sym, 4)],
            ..Default::default()
        });
        trace.finish(1_500, 4);
        let table = trace.render_table(&interner);
        assert!(table.contains("engine: seminaive"));
        assert!(table.contains("T=4"));
        assert!(table.contains("1.5µs"));
    }
}
