//! Metric names, the per-run report, and its two renderings: one
//! `workload metric value unit n=<samples>` line per metric, and the
//! final JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, printed by every workload without `--trace`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_vs_reference", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, printed by every workload with `--trace 1`.
/// A metric of a layer the workload does not run reads 0 with `n=0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.op_ms_p50", "ms"),
    ("bench.reference_ms_p50", "ms"),
    ("parser.parse_facts_s", "s"),
    ("instance.commit_s", "s"),
    ("instance.clone_s", "s"),
    ("instance.answer_s", "s"),
    ("space.bytes_peak", "bytes"),
    ("space.bytes_final", "bytes"),
    ("space.rss_per_logical", "ratio"),
    ("planner.plan_s", "s"),
    ("planner.joins_pruned", "count"),
    ("planner.subplans_shared", "count"),
    ("exec.rules_fired", "count"),
    ("exec.probes", "count"),
    ("exec.probe_tuples", "count"),
    ("exec.facts_per_firing", "ratio"),
    ("index.builds", "count"),
    ("index.rebuilds", "count"),
    ("index.indexed_tuples", "count"),
    ("index.appended_tuples", "count"),
    ("index.hit_ratio", "ratio"),
    ("parallel.worker_busy_frac", "ratio"),
    ("parallel.index_replication", "ratio"),
    ("seminaive.stages", "count"),
    ("wellfounded.eval_s", "s"),
    ("wellfounded.rounds", "count"),
    ("inflationary.eval_s", "s"),
    ("inflationary.stages", "count"),
    ("noninflationary.eval_s", "s"),
    ("noninflationary.stages", "count"),
    ("ivm.poll_ms_p90", "ms"),
    ("ivm.overdeleted_per_poll", "count"),
    ("ivm.rederive_ratio", "ratio"),
    ("ivm.snapshot_s", "s"),
    ("ivm.scratch_eval_s", "s"),
    ("ivm.poll_vs_scratch", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.rule_frac", "ratio"),
];

/// One metric's value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Stat {
    value: f64,
    n: usize,
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations (or polls) attempted, warm-up and traced ones included.
    pub attempted: u64,
    /// Attempts that returned `Err`, panicked, or gave a wrong answer.
    pub failed: u64,
    stats: BTreeMap<&'static str, Stat>,
    /// The merged span tree as Chrome trace-event JSON (traced runs).
    pub chrome_trace: Option<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            stats: BTreeMap::new(),
            chrome_trace: None,
        }
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.flag(why);
        }
    }

    /// Marks an already counted operation as failed.
    pub fn flag(&mut self, why: String) {
        self.failed += 1;
        eprintln!("{}: FAILED: {why}", self.workload);
    }

    /// Sets metric `name` to `value`, backed by `n` samples.
    ///
    /// # Panics
    /// If `name` is in neither metric table (a benchmark bug).
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(m, _)| *m == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.stats.insert(name, Stat { value, n });
    }

    /// Sets metric `name` to the median of `samples`.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.put(name, quantile(samples, 0.5), samples.len());
    }

    /// The value recorded for `name` (0 if none).
    pub fn get(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, |s| s.value)
    }

    fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn each(&self, trace: bool) -> impl Iterator<Item = (&'static str, &'static str, Stat)> + '_ {
        Self::table(trace).iter().map(move |&(name, unit)| {
            let stat = self
                .stats
                .get(name)
                .copied()
                .unwrap_or(Stat { value: 0.0, n: 0 });
            (name, unit, stat)
        })
    }

    /// One `workload metric value unit n=<samples>` line per metric of
    /// the selected table.
    pub fn lines(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit, s) in self.each(trace) {
            let _ = writeln!(out, "{} {name} {} {unit} n={}", self.workload, s.value, s.n);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the selected table with its unit.
    pub fn json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, s)) in self.each(trace).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.value
            );
        }
        out.push_str("}}");
        out
    }

    /// 0 when every attempt succeeded, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0 || self.attempted == 0)
    }
}

/// The `q`-quantile of `samples` (linear interpolation between the
/// closest ranks); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in bytes; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Json;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "bad metric name {name}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn json_line_parses_and_carries_every_metric() {
        let mut r = Report::new("reach");
        r.attempt(Ok(()));
        r.median("op_vs_reference", &[3.0, 1.0, 2.0]);
        r.put("space.bytes_peak", 1e9, 1);
        for trace in [false, true] {
            let doc = Json::parse(&r.json(trace)).unwrap();
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in Report::table(trace) {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("missing {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
        let doc = Json::parse(&r.json(false)).unwrap();
        let op = doc
            .get("metrics")
            .and_then(|m| m.get("op_vs_reference"))
            .unwrap();
        assert_eq!(op.get("value").and_then(Json::as_f64), Some(2.0));
        assert!(r.lines(false).contains("reach op_vs_reference 2 ratio n=3"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new("ivm");
        r.attempt(Ok(()));
        assert_eq!(r.exit_code(), 0);
        r.flag("digest mismatch".into());
        assert_eq!(r.exit_code(), 1);
        let doc = Json::parse(&r.json(false)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(Report::new("ivm").exit_code(), 1, "nothing attempted");
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
