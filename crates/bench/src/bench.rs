//! The measurement kernel behind the in-repo benchmark harness: a
//! warmup/repetition loop over a monotonic clock, order statistics, the
//! versioned `BENCH.json` schema, and the baseline comparator that lets
//! CI gate performance regressions.
//!
//! Soufflé's profiler and DDlog's self-profiling are the reference
//! points: a production Datalog engine measures itself, with no
//! external benchmarking dependency, and records machine-readable
//! artifacts so every performance claim has a before/after trail. The
//! schema marries wall-time statistics (min/median/p95 over
//! repetitions) with the work gauges the [`unchained_common::telemetry`] subsystem
//! already collects — stage counts, facts derived, join probe/build
//! counters, peak instance size, interner growth — so a "win" can be
//! separated into *less work* vs. *same work done faster*.
//!
//! The workload registry that produces [`BenchEntry`] values is the
//! crate root; this module is the schema it writes and the CLI reads.

use std::fmt::Write as _;
use std::time::Instant;

use unchained_common::fmt_bytes;
use unchained_common::telemetry::{json_escape, EvalTrace};
use unchained_common::Json;

/// Version of the `BENCH.json` schema. Bump on any breaking change to
/// the emitted shape; the parser rejects mismatched files so a stale
/// baseline fails loudly instead of comparing garbage.
///
/// v2 added the index-maintenance gauges (`index_hits`, `index_appends`,
/// `appended_tuples`, `index_rebuilds`) to the `joins` object. v3 added
/// the per-entry `threads` field (worker threads the case ran with) so
/// thread-scaling rows are first-class, separately-keyed entries. v4
/// added the space gauges `bytes_peak`/`bytes_final` (logical instance
/// bytes, see `unchained_common::space`) and the derived `tuples_per_sec` rate.
/// v5 added the `planner` object (`joins_pruned`; a `subplans_shared`
/// gauge it also held is gone, and the reader ignores it) recording
/// the cost-based planner's deterministic effect on each run.
/// v6 added the `ivm` object (`overdeleted`, `rederived`) for the
/// incremental-maintenance workloads, and relaxed the reader to accept
/// v4/v5 baselines (sub-objects introduced later parse as zeroes) so an
/// old committed baseline still compares instead of failing outright.
/// v7 added the per-entry `edb_facts` field (input EDB size, so
/// throughput rows are self-describing) and the derived
/// `speedup_vs_seq` rate on thread-scaling rows; it also stopped gating
/// the index-maintenance gauges (`index_appends`/`index_rebuilds`) on
/// entries with `threads > 1` — under the morsel-driven scheduler the
/// per-worker cache contents depend on which worker pulled which
/// morsel, so those two gauges are schedule-dependent there (the
/// fact/stage/byte gauges remain exact at every thread count).
pub const BENCH_SCHEMA_VERSION: u64 = 7;

/// Oldest `BENCH.json` schema the reader still accepts. Versions below
/// this renamed or re-shaped existing fields; v4 onward only *added*
/// fields, which parse as zero when absent.
pub const BENCH_SCHEMA_OLDEST_READABLE: u64 = 4;

/// Ignore regressions whose absolute median increase is below this
/// floor (25 µs): ratios on microsecond-scale cases are dominated by
/// scheduler noise, and no interesting regression hides under it.
pub const REGRESSION_MIN_DELTA_NANOS: u64 = 25_000;

/// Default regression threshold: fail when a median is more than 2×
/// its baseline (and above [`REGRESSION_MIN_DELTA_NANOS`]).
pub const DEFAULT_REGRESSION_THRESHOLD: f64 = 2.0;

/// Byte-growth gate: an entry's `bytes_peak` more than this factor over
/// its baseline counts as a space regression. Logical bytes are
/// deterministic (counts × fixed widths, see `unchained_common::space`), so unlike
/// wall time this gate is machine-independent and needs no noise floor
/// beyond requiring a non-zero baseline.
pub const BYTES_REGRESSION_FACTOR: f64 = 2.0;

/// Cross-engine bound, checked within the *new* report: on workloads
/// both engines measure, the `while` interpreter may be at most this
/// factor slower than the semi-naive engine at the same size and
/// thread count. The while engine re-evaluates its whole comprehension
/// every loop iteration (no delta reasoning), so a gap of one order of
/// magnitude is expected — but its assignments evaluate through the
/// same index-nested-loop joins as the Datalog engines, so a gap of
/// three orders (as with the old `O(|domain|^k)` enumeration, which
/// ran chain TC at n=64 ~1600× slower than semi-naive) is a
/// regression. Ratios between same-machine, same-run rows are
/// machine-independent enough to gate.
pub const WHILE_GAP_FACTOR: f64 = 100.0;

/// Warmup/repetition counts for one benchmark case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repetitions {
    /// Untimed runs executed first (cache/allocator warmup).
    pub warmup: usize,
    /// Timed runs; must be ≥ 1.
    pub reps: usize,
}

impl Repetitions {
    /// The full-fidelity default: 1 warmup + 5 timed repetitions.
    pub fn full() -> Self {
        Repetitions { warmup: 1, reps: 5 }
    }

    /// The `--quick` smoke setting: 1 warmup + 3 timed repetitions.
    pub fn quick() -> Self {
        Repetitions { warmup: 1, reps: 3 }
    }
}

/// Runs `f` `warmup + reps` times, timing the last `reps` executions on
/// the monotonic clock. Returns the timed samples in nanoseconds and
/// the result of the final execution (so the caller can harvest gauges
/// from it without an extra run).
pub fn measure<T>(rep: Repetitions, mut f: impl FnMut() -> T) -> (Vec<u64>, T) {
    assert!(rep.reps >= 1, "measure requires reps >= 1");
    for _ in 0..rep.warmup {
        let _ = f();
    }
    let mut samples = Vec::with_capacity(rep.reps);
    let mut last = None;
    for _ in 0..rep.reps {
        let start = Instant::now();
        let out = f();
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        last = Some(out);
    }
    (samples, last.expect("reps >= 1"))
}

/// Order statistics over one case's timed samples, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallStats {
    /// Fastest repetition.
    pub min: u64,
    /// Median repetition (lower-median for even counts).
    pub median: u64,
    /// 95th-percentile repetition (nearest-rank).
    pub p95: u64,
    /// Sum over all repetitions.
    pub total: u64,
}

impl WallStats {
    /// Summarizes a non-empty sample set.
    pub fn from_samples(samples: &[u64]) -> WallStats {
        assert!(!samples.is_empty(), "summarize requires samples");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        WallStats {
            min: sorted[0],
            median: sorted[(sorted.len() - 1) / 2],
            p95: rank(0.95),
            total: samples.iter().sum(),
        }
    }
}

/// Work gauges for one case, harvested from the engine's [`EvalTrace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Stages (immediate-consequence applications or the engine's
    /// analogue) in one run.
    pub stages: u64,
    /// Facts in the final instance beyond the input (saturating).
    pub facts_derived: u64,
    /// Largest instance observed at any stage boundary.
    pub peak_facts: u64,
    /// Rule-body matches evaluated.
    pub rules_fired: u64,
    /// Hash-index probes performed.
    pub probes: u64,
    /// Tuples returned by those probes.
    pub probe_tuples: u64,
    /// Hash indexes built fresh (includes per-round delta indexes).
    pub index_builds: u64,
    /// Tuples scanned while building or rebuilding indexes.
    pub indexed_tuples: u64,
    /// Index-cache probes answered by an already-current index.
    pub index_hits: u64,
    /// Stale indexes refreshed incrementally by absorbing new tuples.
    pub index_appends: u64,
    /// Tuples appended by those incremental absorbs.
    pub appended_tuples: u64,
    /// Stale indexes rebuilt from scratch (lineage breaks only; bounded
    /// by relation count — not round count — on append-only fixpoints).
    pub index_rebuilds: u64,
    /// Join steps the planner turned into index probes by pushing an
    /// already-bound literal ahead of unbound ones (deterministic:
    /// a pure function of program + catalog, never of the schedule).
    pub plan_joins_pruned: u64,
    /// Interner size after the run.
    pub interner_symbols: u64,
    /// Logical-byte high-water mark of the instance (plus any pending
    /// delta buffer) across the run; 0 when the engine does not account.
    pub bytes_peak: u64,
    /// Logical bytes of the final instance.
    pub bytes_final: u64,
    /// Tuples withdrawn by the incremental engine's overdelete pass
    /// (zero for batch engines).
    pub ivm_overdeleted: u64,
    /// Withdrawn tuples the incremental engine restored from
    /// alternative support (zero for batch engines).
    pub ivm_rederived: u64,
}

impl Gauges {
    /// Pulls the gauges out of a finished trace. `input_facts` is the
    /// size of the input instance (to report *derived* facts).
    pub fn from_trace(trace: &EvalTrace, input_facts: usize) -> Gauges {
        Gauges {
            // Stage-based engines record one `StageRecord` per stage;
            // the while interpreter counts loop iterations instead.
            stages: (trace.stages.len() as u64).max(trace.loop_iterations as u64),
            facts_derived: trace.final_facts.saturating_sub(input_facts) as u64,
            peak_facts: trace.peak_facts as u64,
            rules_fired: trace.rules_fired,
            probes: trace.joins.probes,
            probe_tuples: trace.joins.probe_tuples,
            index_builds: trace.joins.index_builds,
            indexed_tuples: trace.joins.indexed_tuples,
            index_hits: trace.joins.index_hits,
            index_appends: trace.joins.index_appends,
            appended_tuples: trace.joins.appended_tuples,
            index_rebuilds: trace.joins.index_rebuilds,
            plan_joins_pruned: trace.plan_joins_pruned,
            interner_symbols: trace.interner_symbols as u64,
            bytes_peak: trace.bytes_peak,
            bytes_final: trace.bytes_final,
            ivm_overdeleted: trace.ivm_overdeleted,
            ivm_rederived: trace.ivm_rederived,
        }
    }
}

/// One `workload × engine × size` measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Workload name (`chain`, `win`, `magic`, …).
    pub workload: String,
    /// Engine name (`naive`, `seminaive`, `magic`, `while`, …).
    pub engine: String,
    /// Worker threads the case ran with (1 = sequential).
    pub threads: u64,
    /// Workload size parameter (nodes, states, stages — per workload).
    pub n: u64,
    /// Input EDB facts the case was fed (0 when the workload predates
    /// the field or generates no input relation).
    pub edb_facts: u64,
    /// Timed repetitions behind `wall`.
    pub reps: u64,
    /// Wall-time order statistics.
    pub wall: WallStats,
    /// Work gauges from the final repetition's trace.
    pub gauges: Gauges,
}

impl BenchEntry {
    /// The comparison key: entries are matched across reports by
    /// workload, engine, thread count, and size. Sequential entries keep
    /// the historical `workload/engine/n` spelling; parallel entries are
    /// keyed apart with an `@threads` marker.
    pub fn key(&self) -> String {
        if self.threads > 1 {
            format!(
                "{}/{}@{}/{}",
                self.workload, self.engine, self.threads, self.n
            )
        } else {
            format!("{}/{}/{}", self.workload, self.engine, self.n)
        }
    }

    /// Derived throughput: facts derived per second of median wall time
    /// (0 when the median rounds to zero). Emitted into `BENCH.json`
    /// for dashboards but never parsed back — it is a pure function of
    /// two stored fields.
    pub fn tuples_per_sec(&self) -> u64 {
        if self.wall.median == 0 {
            return 0;
        }
        (self.gauges.facts_derived as f64 * 1e9 / self.wall.median as f64) as u64
    }
}

impl BenchReport {
    /// Derived speedup of `e` over the sequential entry for the same
    /// workload, engine, and size in this report: `seq_median /
    /// e.median`. Returns 1.0 for sequential entries and 0.0 when no
    /// sequential twin exists or a median is zero. Emitted into
    /// `BENCH.json` for thread-scaling rows but never parsed back.
    pub fn speedup_vs_seq(&self, e: &BenchEntry) -> f64 {
        if e.threads <= 1 {
            return 1.0;
        }
        let Some(seq) = self.entries.iter().find(|b| {
            b.threads == 1 && b.workload == e.workload && b.engine == e.engine && b.n == e.n
        }) else {
            return 0.0;
        };
        if e.wall.median == 0 || seq.wall.median == 0 {
            return 0.0;
        }
        seq.wall.median as f64 / e.wall.median as f64
    }
}

/// A full harness run: schema version plus one entry per case.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Entries in registry order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Renders the versioned `BENCH.json` document (one entry per
    /// line, so diffs of committed snapshots stay reviewable).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"schema_version\":{BENCH_SCHEMA_VERSION},");
        out.push_str("\"entries\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"workload\":\"{}\",\"engine\":\"{}\",\"threads\":{},\"n\":{},\
                 \"edb_facts\":{},\"reps\":{}",
                json_escape(&e.workload),
                json_escape(&e.engine),
                e.threads,
                e.n,
                e.edb_facts,
                e.reps
            );
            let _ = write!(
                out,
                ",\"wall\":{{\"min\":{},\"median\":{},\"p95\":{},\"total\":{}}}",
                e.wall.min, e.wall.median, e.wall.p95, e.wall.total
            );
            let g = &e.gauges;
            let _ = write!(
                out,
                ",\"stages\":{},\"facts_derived\":{},\"peak_facts\":{},\"rules_fired\":{}",
                g.stages, g.facts_derived, g.peak_facts, g.rules_fired
            );
            let _ = write!(
                out,
                ",\"joins\":{{\"probes\":{},\"probe_tuples\":{},\"index_builds\":{},\
                 \"indexed_tuples\":{},\"index_hits\":{},\"index_appends\":{},\
                 \"appended_tuples\":{},\"index_rebuilds\":{}}}",
                g.probes,
                g.probe_tuples,
                g.index_builds,
                g.indexed_tuples,
                g.index_hits,
                g.index_appends,
                g.appended_tuples,
                g.index_rebuilds
            );
            let _ = write!(
                out,
                ",\"planner\":{{\"joins_pruned\":{}}}",
                g.plan_joins_pruned
            );
            let _ = write!(
                out,
                ",\"ivm\":{{\"overdeleted\":{},\"rederived\":{}}}",
                g.ivm_overdeleted, g.ivm_rederived
            );
            let _ = write!(
                out,
                ",\"interner_symbols\":{},\"bytes_peak\":{},\"bytes_final\":{},\
                 \"tuples_per_sec\":{},\"speedup_vs_seq\":{:.2}}}",
                g.interner_symbols,
                g.bytes_peak,
                g.bytes_final,
                e.tuples_per_sec(),
                self.speedup_vs_seq(e)
            );
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a `BENCH.json` document. Versions
    /// [`BENCH_SCHEMA_OLDEST_READABLE`]`..=`[`BENCH_SCHEMA_VERSION`]
    /// are accepted — later versions only added sub-objects (`planner`
    /// in v5, `ivm` in v6), which parse as zeroes when absent so an old
    /// committed baseline still compares. Anything outside the window
    /// is rejected loudly.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("BENCH.json: missing schema_version")?;
        if !(BENCH_SCHEMA_OLDEST_READABLE..=BENCH_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "BENCH.json: schema_version {version} (this build reads \
                 {BENCH_SCHEMA_OLDEST_READABLE}..={BENCH_SCHEMA_VERSION}); \
                 regenerate the baseline"
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("BENCH.json: missing entries array")?;
        let field = |j: &Json, name: &str| -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("BENCH.json entry: missing numeric `{name}`"))
        };
        let mut out = Vec::with_capacity(entries.len());
        // Sub-objects introduced after v4 are optional: absent (a pre-v5
        // or pre-v6 baseline) means every gauge inside is zero.
        let opt = |obj: Option<&Json>, name: &str| -> Result<u64, String> {
            match obj {
                None => Ok(0),
                Some(j) => field(j, name),
            }
        };
        for e in entries {
            let wall = e.get("wall").ok_or("BENCH.json entry: missing wall")?;
            let joins = e.get("joins").ok_or("BENCH.json entry: missing joins")?;
            let planner = e.get("planner");
            let ivm = e.get("ivm");
            out.push(BenchEntry {
                workload: e
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("BENCH.json entry: missing workload")?
                    .to_string(),
                engine: e
                    .get("engine")
                    .and_then(Json::as_str)
                    .ok_or("BENCH.json entry: missing engine")?
                    .to_string(),
                threads: field(e, "threads")?,
                n: field(e, "n")?,
                // Added in v7; absent in older baselines.
                edb_facts: e.get("edb_facts").and_then(Json::as_u64).unwrap_or(0),
                reps: field(e, "reps")?,
                wall: WallStats {
                    min: field(wall, "min")?,
                    median: field(wall, "median")?,
                    p95: field(wall, "p95")?,
                    total: field(wall, "total")?,
                },
                gauges: Gauges {
                    stages: field(e, "stages")?,
                    facts_derived: field(e, "facts_derived")?,
                    peak_facts: field(e, "peak_facts")?,
                    rules_fired: field(e, "rules_fired")?,
                    probes: field(joins, "probes")?,
                    probe_tuples: field(joins, "probe_tuples")?,
                    index_builds: field(joins, "index_builds")?,
                    indexed_tuples: field(joins, "indexed_tuples")?,
                    index_hits: field(joins, "index_hits")?,
                    index_appends: field(joins, "index_appends")?,
                    appended_tuples: field(joins, "appended_tuples")?,
                    index_rebuilds: field(joins, "index_rebuilds")?,
                    plan_joins_pruned: opt(planner, "joins_pruned")?,
                    interner_symbols: field(e, "interner_symbols")?,
                    bytes_peak: field(e, "bytes_peak")?,
                    bytes_final: field(e, "bytes_final")?,
                    ivm_overdeleted: opt(ivm, "overdeleted")?,
                    ivm_rederived: opt(ivm, "rederived")?,
                },
            });
        }
        Ok(BenchReport { entries: out })
    }

    /// Renders the human-readable results table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>4} {:>10} {:>10} {:>10} {:>7} {:>9} {:>10} {:>9} {:>8} {:>9} {:>7} {:>10}",
            "workload/engine",
            "n",
            "reps",
            "median",
            "min",
            "p95",
            "stages",
            "facts",
            "probes",
            "peak",
            "appends",
            "rebuilds",
            "pruned",
            "bytes"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>4} {:>10} {:>10} {:>10} {:>7} {:>9} {:>10} {:>9} {:>8} {:>9} {:>7} {:>10}",
                if e.threads > 1 {
                    format!("{}/{}@{}", e.workload, e.engine, e.threads)
                } else {
                    format!("{}/{}", e.workload, e.engine)
                },
                e.n,
                e.reps,
                fmt_nanos(e.wall.median),
                fmt_nanos(e.wall.min),
                fmt_nanos(e.wall.p95),
                e.gauges.stages,
                e.gauges.facts_derived,
                e.gauges.probes,
                e.gauges.peak_facts,
                e.gauges.index_appends,
                e.gauges.index_rebuilds,
                e.gauges.plan_joins_pruned,
                fmt_bytes(e.gauges.bytes_peak)
            );
        }
        out
    }
}

/// One matched entry pair in a baseline comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct EntryDelta {
    /// The shared key (`workload/engine/n`).
    pub key: String,
    /// Baseline median, nanoseconds.
    pub base_median: u64,
    /// New median, nanoseconds.
    pub new_median: u64,
    /// `new_median / base_median` (∞-safe: a 0 baseline compares as 1).
    pub ratio: f64,
    /// Whether the slowdown crosses the threshold *and* the absolute
    /// floor ([`REGRESSION_MIN_DELTA_NANOS`]).
    pub time_regressed: bool,
    /// Whether the deterministic work gauges drifted (facts derived,
    /// stage count, or index-maintenance work changed for the same
    /// workload/engine/size).
    pub work_drifted: bool,
    /// Whether `bytes_peak` grew past [`BYTES_REGRESSION_FACTOR`] ×
    /// baseline (only checked when the baseline accounted bytes at all).
    pub bytes_regressed: bool,
}

/// One cross-engine data point from the new report: the `while` row
/// against the semi-naive row of the same workload, size, and thread
/// count (see [`WHILE_GAP_FACTOR`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineGap {
    /// The while entry's key.
    pub key: String,
    /// Median wall nanoseconds of the while row.
    pub while_median: u64,
    /// Median wall nanoseconds of the matching semi-naive row.
    pub seminaive_median: u64,
    /// `while_median / seminaive_median`.
    pub ratio: f64,
    /// Whether the gap exceeds [`WHILE_GAP_FACTOR`] (beyond the
    /// absolute noise floor).
    pub regressed: bool,
}

/// The outcome of comparing a run against a baseline `BENCH.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Matched entries, in the new report's order.
    pub deltas: Vec<EntryDelta>,
    /// Keys present only in the baseline (not a failure: quick and full
    /// runs measure different sizes).
    pub missing: Vec<String>,
    /// Keys present only in the new report.
    pub added: Vec<String>,
    /// Cross-engine while-vs-seminaive gaps found in the new report.
    pub engine_gaps: Vec<EngineGap>,
    /// The threshold the comparison ran with.
    pub threshold: f64,
}

impl Comparison {
    /// True when any matched entry regressed (time, work drift, or
    /// byte growth) or a cross-engine gap blew past its bound.
    pub fn has_regression(&self) -> bool {
        self.deltas
            .iter()
            .any(|d| d.time_regressed || d.work_drifted || d.bytes_regressed)
            || self.engine_gaps.iter().any(|g| g.regressed)
    }

    /// Renders the per-entry delta table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline comparison (regression = median > {:.2}× baseline and \
             +{} absolute):",
            self.threshold,
            fmt_nanos(REGRESSION_MIN_DELTA_NANOS)
        );
        for d in &self.deltas {
            let verdict = if d.work_drifted {
                "  WORK DRIFT"
            } else if d.bytes_regressed {
                "  BYTES GREW"
            } else if d.time_regressed {
                "  REGRESSED"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>10} -> {:>10}  (x{:.2}){verdict}",
                d.key,
                fmt_nanos(d.base_median),
                fmt_nanos(d.new_median),
                d.ratio
            );
        }
        for k in &self.missing {
            let _ = writeln!(out, "  {k:<28} only in baseline");
        }
        for k in &self.added {
            let _ = writeln!(out, "  {k:<28} only in this run");
        }
        for g in &self.engine_gaps {
            let verdict = if g.regressed { "  WHILE GAP" } else { "" };
            let _ = writeln!(
                out,
                "  {:<28} {:>10} vs {:>10} seminaive  (x{:.1}, bound x{:.0}){verdict}",
                g.key,
                fmt_nanos(g.while_median),
                fmt_nanos(g.seminaive_median),
                g.ratio,
                WHILE_GAP_FACTOR
            );
        }
        let regressions = self
            .deltas
            .iter()
            .filter(|d| d.time_regressed || d.work_drifted || d.bytes_regressed)
            .count()
            + self.engine_gaps.iter().filter(|g| g.regressed).count();
        let _ = writeln!(
            out,
            "{} compared, {} regression(s), {} missing, {} added",
            self.deltas.len(),
            regressions,
            self.missing.len(),
            self.added.len()
        );
        out
    }
}

/// Compares `new` against `base`, flagging entries whose median wall
/// time exceeds `threshold × baseline` (beyond the absolute floor) and
/// entries whose deterministic work gauges changed.
pub fn compare_reports(new: &BenchReport, base: &BenchReport, threshold: f64) -> Comparison {
    let mut cmp = Comparison {
        threshold,
        ..Default::default()
    };
    for e in &new.entries {
        let key = e.key();
        match base.entries.iter().find(|b| b.key() == key) {
            None => cmp.added.push(key),
            Some(b) => {
                let ratio = if b.wall.median == 0 {
                    1.0
                } else {
                    e.wall.median as f64 / b.wall.median as f64
                };
                let delta = e.wall.median.saturating_sub(b.wall.median);
                cmp.deltas.push(EntryDelta {
                    key,
                    base_median: b.wall.median,
                    new_median: e.wall.median,
                    ratio,
                    time_regressed: ratio > threshold && delta > REGRESSION_MIN_DELTA_NANOS,
                    // The fact and stage gauges are deterministic at
                    // every thread count. The index-maintenance gauges
                    // are only deterministic sequentially: under the
                    // morsel scheduler, which worker cache builds or
                    // absorbs an index depends on the schedule.
                    work_drifted: e.gauges.facts_derived != b.gauges.facts_derived
                        || e.gauges.stages != b.gauges.stages
                        || (e.threads <= 1
                            && (e.gauges.index_rebuilds != b.gauges.index_rebuilds
                                || e.gauges.index_appends != b.gauges.index_appends)),
                    bytes_regressed: b.gauges.bytes_peak > 0
                        && e.gauges.bytes_peak as f64
                            > b.gauges.bytes_peak as f64 * BYTES_REGRESSION_FACTOR,
                });
            }
        }
    }
    for b in &base.entries {
        let key = b.key();
        if !new.entries.iter().any(|e| e.key() == key) {
            cmp.missing.push(key);
        }
    }
    // Cross-engine bound on the new report alone: the while interpreter
    // against semi-naive on every workload/size/threads both measure.
    for e in &new.entries {
        if e.engine != "while" {
            continue;
        }
        let Some(s) = new.entries.iter().find(|s| {
            s.engine == "seminaive"
                && s.workload == e.workload
                && s.n == e.n
                && s.threads == e.threads
        }) else {
            continue;
        };
        let ratio = if s.wall.median == 0 {
            1.0
        } else {
            e.wall.median as f64 / s.wall.median as f64
        };
        cmp.engine_gaps.push(EngineGap {
            key: e.key(),
            while_median: e.wall.median,
            seminaive_median: s.wall.median,
            ratio,
            regressed: ratio > WHILE_GAP_FACTOR
                && e.wall.median.saturating_sub(s.wall.median) > REGRESSION_MIN_DELTA_NANOS,
        });
    }
    cmp
}

/// One per-entry data point carried into a history line: just the
/// fields that stay comparable across commits — the median (for eyes,
/// never gated), plus the two deterministic gauges the history gate
/// checks (`bytes_peak` growth and `facts_derived` drift).
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryPoint {
    /// The entry key (`workload/engine[@threads]/n`).
    pub key: String,
    /// Median wall nanoseconds of that run.
    pub median: u64,
    /// Logical-byte high-water mark of that run.
    pub bytes_peak: u64,
    /// Facts derived beyond the input.
    pub facts_derived: u64,
}

/// One benchmark run recorded into `BENCH_HISTORY.json`: a git
/// revision, a date (both passed in by the caller — this module never
/// reads the clock or the repo), and one [`HistoryPoint`] per entry.
/// Serialized as exactly one JSON line so the file is append-only and
/// its diffs are one line per run.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRun {
    /// Git revision the run was taken at.
    pub rev: String,
    /// ISO date of the run.
    pub date: String,
    /// One point per report entry, in report order.
    pub points: Vec<HistoryPoint>,
}

impl HistoryRun {
    /// Distills a report into a history line.
    pub fn from_report(report: &BenchReport, rev: &str, date: &str) -> HistoryRun {
        HistoryRun {
            rev: rev.to_string(),
            date: date.to_string(),
            points: report
                .entries
                .iter()
                .map(|e| HistoryPoint {
                    key: e.key(),
                    median: e.wall.median,
                    bytes_peak: e.gauges.bytes_peak,
                    facts_derived: e.gauges.facts_derived,
                })
                .collect(),
        }
    }

    /// Renders the run as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"rev\":\"{}\",\"date\":\"{}\",\"points\":[",
            json_escape(&self.rev),
            json_escape(&self.date)
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":\"{}\",\"median\":{},\"bytes_peak\":{},\"facts_derived\":{}}}",
                json_escape(&p.key),
                p.median,
                p.bytes_peak,
                p.facts_derived
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses one history line (strict: every field required).
    pub fn from_json_line(line: &str) -> Result<HistoryRun, String> {
        let doc = Json::parse(line).map_err(|e| format!("BENCH_HISTORY.json: {e}"))?;
        let s = |j: &Json, name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCH_HISTORY.json run: missing string `{name}`"))
        };
        let u = |j: &Json, name: &str| -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("BENCH_HISTORY.json point: missing numeric `{name}`"))
        };
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("BENCH_HISTORY.json run: missing points array")?
            .iter()
            .map(|p| {
                Ok(HistoryPoint {
                    key: p
                        .get("key")
                        .and_then(Json::as_str)
                        .ok_or("BENCH_HISTORY.json point: missing `key`")?
                        .to_string(),
                    median: u(p, "median")?,
                    bytes_peak: u(p, "bytes_peak")?,
                    facts_derived: u(p, "facts_derived")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(HistoryRun {
            rev: s(&doc, "rev")?,
            date: s(&doc, "date")?,
            points,
        })
    }
}

/// The whole `BENCH_HISTORY.json` trajectory: one [`HistoryRun`] per
/// line, oldest first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchHistory {
    /// Runs in file (= chronological append) order.
    pub runs: Vec<HistoryRun>,
}

impl BenchHistory {
    /// Parses the line-oriented history file (blank lines ignored).
    pub fn parse(text: &str) -> Result<BenchHistory, String> {
        let runs = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(HistoryRun::from_json_line)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchHistory { runs })
    }

    /// Renders the history back to its file form (one line per run).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Renders the trajectory for humans: the run list, then one line
    /// per key showing its median/byte series oldest → newest.
    pub fn render_trajectory(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bench history: {} run(s)", self.runs.len());
        for r in &self.runs {
            let _ = writeln!(out, "  {} {} ({} workloads)", r.rev, r.date, r.points.len());
        }
        let mut keys: Vec<&str> = Vec::new();
        for r in &self.runs {
            for p in &r.points {
                if !keys.contains(&p.key.as_str()) {
                    keys.push(&p.key);
                }
            }
        }
        keys.sort_unstable();
        for key in keys {
            let series: Vec<String> = self
                .runs
                .iter()
                .filter_map(|r| r.points.iter().find(|p| p.key == key))
                .map(|p| format!("{} {}", fmt_nanos(p.median), fmt_bytes(p.bytes_peak)))
                .collect();
            let _ = writeln!(out, "  {:<28} {}", key, series.join(" -> "));
        }
        out
    }
}

/// The outcome of gating a report against the latest history line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistoryComparison {
    /// Revision of the history line compared against.
    pub baseline_rev: String,
    /// How many report entries had a matching history point.
    pub checked: usize,
    /// One human-readable line per violated gate.
    pub failures: Vec<String>,
}

impl HistoryComparison {
    /// True when no gate fired.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "history comparison vs {}: {} checked, {} failure(s)",
            self.baseline_rev,
            self.checked,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

/// Gates `report` against the most recent run in `history`. Only the
/// deterministic gauges are gated — `bytes_peak` growth beyond
/// [`BYTES_REGRESSION_FACTOR`] and any `facts_derived` drift — never
/// wall time, so a committed history validates on any machine. Keys
/// present on only one side are skipped (quick and full runs measure
/// different sizes). Errs on an empty history.
pub fn compare_with_history(
    report: &BenchReport,
    history: &BenchHistory,
) -> Result<HistoryComparison, String> {
    let last = history
        .runs
        .last()
        .ok_or("BENCH_HISTORY.json has no runs to compare against")?;
    let mut cmp = HistoryComparison {
        baseline_rev: last.rev.clone(),
        ..Default::default()
    };
    for e in &report.entries {
        let key = e.key();
        let Some(p) = last.points.iter().find(|p| p.key == key) else {
            continue;
        };
        cmp.checked += 1;
        if p.bytes_peak > 0
            && e.gauges.bytes_peak as f64 > p.bytes_peak as f64 * BYTES_REGRESSION_FACTOR
        {
            cmp.failures.push(format!(
                "{key}: bytes_peak {} -> {} (> {BYTES_REGRESSION_FACTOR}x)",
                fmt_bytes(p.bytes_peak),
                fmt_bytes(e.gauges.bytes_peak)
            ));
        }
        if e.gauges.facts_derived != p.facts_derived {
            cmp.failures.push(format!(
                "{key}: facts_derived drifted {} -> {}",
                p.facts_derived, e.gauges.facts_derived
            ));
        }
    }
    Ok(cmp)
}

/// Formats nanoseconds with an adaptive unit (shared with telemetry's
/// table style).
pub fn fmt_nanos(nanos: u64) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(workload: &str, engine: &str, n: u64, median: u64) -> BenchEntry {
        BenchEntry {
            workload: workload.into(),
            engine: engine.into(),
            threads: 1,
            n,
            edb_facts: 0,
            reps: 3,
            wall: WallStats {
                min: median / 2,
                median,
                p95: median * 2,
                total: median * 3,
            },
            gauges: Gauges {
                stages: 4,
                facts_derived: 10,
                peak_facts: 12,
                rules_fired: 20,
                probes: 30,
                probe_tuples: 40,
                index_builds: 2,
                indexed_tuples: 15,
                index_hits: 6,
                index_appends: 3,
                appended_tuples: 9,
                index_rebuilds: 1,
                plan_joins_pruned: 2,
                interner_symbols: 5,
                bytes_peak: 4096,
                bytes_final: 2048,
                ivm_overdeleted: 7,
                ivm_rederived: 4,
            },
        }
    }

    #[test]
    fn wall_stats_order_statistics() {
        let s = WallStats::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 5);
        assert_eq!(s.p95, 9);
        assert_eq!(s.total, 25);
        let one = WallStats::from_samples(&[4]);
        assert_eq!((one.min, one.median, one.p95, one.total), (4, 4, 4, 4));
    }

    #[test]
    fn measure_runs_warmup_plus_reps() {
        let mut calls = 0;
        let (samples, last) = measure(Repetitions { warmup: 2, reps: 3 }, || {
            calls += 1;
            calls
        });
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, 5);
        assert_eq!(last, 5);
    }

    #[test]
    fn report_json_round_trips() {
        let report = BenchReport {
            entries: vec![
                entry("chain", "naive", 16, 1_000_000),
                entry("win", "wellfounded", 8, 500),
            ],
        };
        let json = report.to_json();
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn threads_field_round_trips_and_keys_entries_apart() {
        let mut seq = entry("chain", "seminaive", 64, 1_000);
        let mut par = entry("chain", "seminaive", 64, 700);
        par.threads = 4;
        assert_eq!(seq.key(), "chain/seminaive/64");
        assert_eq!(par.key(), "chain/seminaive@4/64");
        seq.threads = 1;
        let report = BenchReport {
            entries: vec![seq, par],
        };
        let json = report.to_json();
        // `threads` sits between engine and n so line-oriented consumers
        // (scripts/check.sh) can pin a row by prefix.
        assert!(
            json.contains("\"engine\":\"seminaive\",\"threads\":1,\"n\":64"),
            "{json}"
        );
        assert!(
            json.contains("\"engine\":\"seminaive\",\"threads\":4,\"n\":64"),
            "{json}"
        );
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        let table = report.render_table();
        assert!(table.contains("chain/seminaive@4"), "{table}");
    }

    #[test]
    fn schema_version_mismatch_rejected() {
        let report = BenchReport {
            entries: vec![entry("chain", "naive", 16, 100)],
        };
        for bad in [
            999,
            BENCH_SCHEMA_VERSION + 1,
            BENCH_SCHEMA_OLDEST_READABLE - 1,
        ] {
            let json = report.to_json().replace(
                &format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"),
                &format!("\"schema_version\":{bad}"),
            );
            let err = BenchReport::from_json(&json).unwrap_err();
            assert!(err.contains(&format!("schema_version {bad}")), "{err}");
        }
    }

    /// Backward compatibility: a committed v4 baseline (no `planner`,
    /// no `ivm` sub-object) and a v5 one (no `ivm`) still parse — the
    /// absent gauges read as zero — so `bench compare` keeps working
    /// across the v5 and v6 schema bumps without a forced regeneration.
    #[test]
    fn pre_v6_baselines_parse_with_zeroed_late_gauges() {
        let report = BenchReport {
            entries: vec![entry("chain", "naive", 16, 1_000)],
        };
        let v6 = report.to_json();

        // A v5 file: no ivm object.
        let v5 = v6
            .replace(
                &format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"),
                "\"schema_version\":5",
            )
            .replace(",\"ivm\":{\"overdeleted\":7,\"rederived\":4}", "");
        let parsed = BenchReport::from_json(&v5).unwrap();
        assert_eq!(parsed.entries[0].gauges.ivm_overdeleted, 0);
        assert_eq!(parsed.entries[0].gauges.ivm_rederived, 0);
        assert_eq!(parsed.entries[0].gauges.plan_joins_pruned, 2);
        // A file that still records the dropped `subplans_shared` gauge.
        let shared = v5.replace(
            "\"joins_pruned\":2}",
            "\"joins_pruned\":2,\"subplans_shared\":1}",
        );
        assert_ne!(shared, v5);
        let parsed = BenchReport::from_json(&shared).unwrap();
        assert_eq!(parsed.entries[0].gauges.plan_joins_pruned, 2);

        // A v4 file: neither planner nor ivm.
        let v4 = v5
            .replace("\"schema_version\":5", "\"schema_version\":4")
            .replace(",\"planner\":{\"joins_pruned\":2}", "");
        let parsed = BenchReport::from_json(&v4).unwrap();
        assert_eq!(parsed.entries[0].gauges.plan_joins_pruned, 0);
        assert_eq!(parsed.entries[0].gauges.ivm_overdeleted, 0);
        // Everything present still round-trips exactly.
        assert_eq!(parsed.entries[0].gauges.probes, 30);
        assert_eq!(parsed.entries[0].wall.median, 1_000);
        // And comparing a v6 run against the v4 baseline works.
        let cmp = compare_reports(&report, &parsed, 2.0);
        assert_eq!(cmp.deltas.len(), 1);
    }

    #[test]
    fn comparison_flags_slowdowns_above_floor_and_threshold() {
        let base = BenchReport {
            entries: vec![entry("chain", "naive", 16, 1_000_000)],
        };
        let slow = BenchReport {
            entries: vec![entry("chain", "naive", 16, 5_000_000)],
        };
        let cmp = compare_reports(&slow, &base, 2.0);
        assert!(cmp.has_regression());
        assert!(cmp.deltas[0].time_regressed);
        // Same medians: no regression.
        let cmp = compare_reports(&base, &base, 2.0);
        assert!(!cmp.has_regression());
        // Big ratio but tiny absolute delta: below the floor, ignored.
        let tiny_base = BenchReport {
            entries: vec![entry("chain", "naive", 16, 100)],
        };
        let tiny_slow = BenchReport {
            entries: vec![entry("chain", "naive", 16, 900)],
        };
        assert!(!compare_reports(&tiny_slow, &tiny_base, 2.0).has_regression());
    }

    /// The while interpreter is allowed to trail semi-naive (it has no
    /// delta reasoning) but not by orders of magnitude: the gap bound
    /// pins the join-based assignment evaluator in place.
    #[test]
    fn comparison_bounds_the_while_engine_gap() {
        let fine = BenchReport {
            entries: vec![
                entry("chain", "seminaive", 64, 1_000_000),
                entry("chain", "while", 64, 20_000_000), // 20x: expected
            ],
        };
        let cmp = compare_reports(&fine, &fine, 2.0);
        assert_eq!(cmp.engine_gaps.len(), 1);
        assert!(!cmp.has_regression());

        let pathological = BenchReport {
            entries: vec![
                entry("chain", "seminaive", 64, 1_000_000),
                // The old O(|domain|^k) enumeration gap (~1600x).
                entry("chain", "while", 64, 1_600_000_000),
            ],
        };
        let cmp = compare_reports(&pathological, &pathological, 2.0);
        assert!(cmp.has_regression());
        assert!(cmp.engine_gaps[0].regressed);
        assert!(cmp.render().contains("WHILE GAP"), "{}", cmp.render());

        // Rows only pair at the same workload and size.
        let unmatched = BenchReport {
            entries: vec![
                entry("chain", "seminaive", 16, 1_000),
                entry("chain", "while", 64, 1_600_000_000),
            ],
        };
        let cmp = compare_reports(&unmatched, &unmatched, 2.0);
        assert!(cmp.engine_gaps.is_empty());
        assert!(!cmp.has_regression());
    }

    #[test]
    fn comparison_flags_work_drift_and_tracks_key_changes() {
        let base = BenchReport {
            entries: vec![
                entry("chain", "naive", 16, 1_000),
                entry("gone", "naive", 4, 10),
            ],
        };
        let mut drifted = entry("chain", "naive", 16, 1_000);
        drifted.gauges.facts_derived += 1;
        let new = BenchReport {
            entries: vec![drifted, entry("fresh", "magic", 8, 10)],
        };
        let cmp = compare_reports(&new, &base, 2.0);
        assert!(cmp.has_regression());
        assert!(cmp.deltas[0].work_drifted);
        assert_eq!(cmp.missing, vec!["gone/naive/4".to_string()]);
        assert_eq!(cmp.added, vec!["fresh/magic/8".to_string()]);
        let rendered = cmp.render();
        assert!(rendered.contains("WORK DRIFT"), "{rendered}");
        assert!(rendered.contains("only in baseline"), "{rendered}");
    }

    #[test]
    fn bytes_gauges_round_trip_and_gate_growth() {
        let report = BenchReport {
            entries: vec![entry("chain", "seminaive", 64, 1_000)],
        };
        let json = report.to_json();
        // The v4 fields land after interner_symbols, preserving the
        // line-prefix contract scripts/check.sh relies on.
        assert!(
            json.contains("\"bytes_peak\":4096,\"bytes_final\":2048"),
            "{json}"
        );
        assert!(json.contains("\"tuples_per_sec\":"), "{json}");
        assert_eq!(BenchReport::from_json(&json).unwrap(), report);

        let mut fat = entry("chain", "seminaive", 64, 1_000);
        fat.gauges.bytes_peak = 4096 * 3; // > 2x
        let cmp = compare_reports(
            &BenchReport {
                entries: vec![fat.clone()],
            },
            &report,
            2.0,
        );
        assert!(cmp.has_regression());
        assert!(cmp.deltas[0].bytes_regressed);
        assert!(cmp.render().contains("BYTES GREW"), "{}", cmp.render());
        // A zero-byte baseline (engine without accounting) never gates.
        let mut unaccounted = report.clone();
        unaccounted.entries[0].gauges.bytes_peak = 0;
        let cmp = compare_reports(&BenchReport { entries: vec![fat] }, &unaccounted, 2.0);
        assert!(!cmp.deltas[0].bytes_regressed);
    }

    #[test]
    fn tuples_per_sec_is_derived_from_median() {
        let e = entry("chain", "seminaive", 64, 1_000_000); // 1 ms, 10 facts
        assert_eq!(e.tuples_per_sec(), 10_000);
        let mut zero = entry("chain", "seminaive", 64, 1);
        zero.wall.median = 0;
        assert_eq!(zero.tuples_per_sec(), 0);
    }

    #[test]
    fn history_lines_round_trip_and_render_a_trajectory() {
        let report = BenchReport {
            entries: vec![
                entry("chain", "seminaive", 64, 1_000),
                entry("win", "wellfounded", 8, 500),
            ],
        };
        let run = HistoryRun::from_report(&report, "abc1234", "2026-08-07");
        let line = run.to_json_line();
        assert!(!line.contains('\n'), "one run = one line: {line}");
        assert_eq!(HistoryRun::from_json_line(&line).unwrap(), run);

        let mut newer = run.clone();
        newer.rev = "def5678".into();
        newer.points[0].median = 900;
        let history = BenchHistory {
            runs: vec![run, newer],
        };
        let parsed = BenchHistory::parse(&history.to_text()).unwrap();
        assert_eq!(parsed, history);
        let shown = history.render_trajectory();
        assert!(shown.contains("bench history: 2 run(s)"), "{shown}");
        assert!(shown.contains("abc1234"), "{shown}");
        assert!(shown.contains("chain/seminaive/64"), "{shown}");
        assert!(shown.contains("->"), "{shown}");

        assert!(HistoryRun::from_json_line("{}").is_err());
        assert!(BenchHistory::parse("not json").is_err());
        assert!(BenchHistory::parse("").unwrap().runs.is_empty());
    }

    #[test]
    fn history_gate_checks_bytes_and_work_but_never_time() {
        let base = BenchReport {
            entries: vec![entry("chain", "seminaive", 64, 1_000)],
        };
        let history = BenchHistory {
            runs: vec![HistoryRun::from_report(&base, "abc1234", "2026-08-07")],
        };
        // Identical work, wildly slower wall time: passes.
        let mut slow = base.clone();
        slow.entries[0].wall.median = 1_000_000_000;
        let cmp = compare_with_history(&slow, &history).unwrap();
        assert_eq!(cmp.checked, 1);
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.baseline_rev, "abc1234");
        // Byte growth past the factor: fails.
        let mut fat = base.clone();
        fat.entries[0].gauges.bytes_peak *= 3;
        let cmp = compare_with_history(&fat, &history).unwrap();
        assert!(!cmp.passed());
        assert!(cmp.render().contains("bytes_peak"), "{}", cmp.render());
        // Derived-fact drift: fails.
        let mut drift = base.clone();
        drift.entries[0].gauges.facts_derived += 1;
        let cmp = compare_with_history(&drift, &history).unwrap();
        assert!(!cmp.passed());
        assert!(cmp.render().contains("facts_derived"), "{}", cmp.render());
        // Unmatched keys are skipped, empty history errs.
        let other = BenchReport {
            entries: vec![entry("grid", "seminaive", 8, 10)],
        };
        let cmp = compare_with_history(&other, &history).unwrap();
        assert_eq!(cmp.checked, 0);
        assert!(cmp.passed());
        assert!(compare_with_history(&base, &BenchHistory::default()).is_err());
    }

    #[test]
    fn table_lists_every_entry() {
        let report = BenchReport {
            entries: vec![entry("chain", "naive", 16, 42_000)],
        };
        let table = report.render_table();
        assert!(table.contains("chain/naive"), "{table}");
        assert!(table.contains("42.0µs"), "{table}");
    }
}
