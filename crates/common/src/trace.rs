//! Hierarchical tracing: a span tree recording *where* evaluation time
//! and work went — eval → stratum → round → rule, with join/absorb
//! leaves and per-worker timelines from the parallel executor.
//!
//! The span tree is the one recorder of an evaluation: engines write
//! each gauge once, on a span, and the flat
//! [`crate::telemetry::EvalTrace`] — how much work each stage did — is
//! projected from a run's eval span; the tree also says which rule,
//! which join, and which worker did it. Spans carry three kinds of
//! payload:
//!
//! * **wall-clock** (`start_nanos`/`dur_nanos`, relative to the tracer's
//!   creation) — machine- and schedule-dependent, never compared;
//! * **work gauges** (`gauges`: fired counts, delta sizes…) — for the
//!   deterministic span kinds these are byte-identical across thread
//!   counts, and [`gauge_tree`] projects exactly that comparable part;
//!   a run-level maximum (a peak) is raised on the eval span
//!   ([`Tracer::raise`]);
//! * **notes** — free-form annotations ([`Tracer::note`]).
//!
//! Span trees export as Chrome trace-event JSON ([`to_chrome_json`]),
//! loadable in Perfetto / `chrome://tracing`: the main evaluation
//! nests on one timeline lane, and each parallel worker gets its own
//! lane so delta-chunk imbalance is directly visible.
//!
//! Like the rest of the workspace this is zero-dependency: a disabled
//! [`Tracer`] (the default) is a single `Option` check per call and
//! never reads the clock.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::json::Json;
use crate::telemetry::json_escape;
use crate::{Interner, Symbol};

/// What a span measures. The **deterministic** kinds (`Eval`, `Stratum`,
/// `Round`, `Rule`, `Phase`) carry only thread-invariant work gauges and
/// participate in [`gauge_tree`]; the rest (`Worker`, `Join`, `Absorb`)
/// are timing/shard detail that legitimately varies with the schedule
/// and thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole engine run.
    Eval,
    /// One stratum of a stratified evaluation.
    Stratum,
    /// One fixpoint round / stage.
    Round,
    /// One rule's matches within a round (all delta variants).
    Rule,
    /// One worker thread's share of a parallel round.
    Worker,
    /// Join work of a round (index probes/builds), as counters.
    Join,
    /// The facts a round merged into one relation: its Δ of the span's
    /// predicate.
    Absorb,
    /// Any other engine-specific phase (rewrite, candidate check…).
    Phase,
}

impl SpanKind {
    /// The stable lowercase name used in exports and validation.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Eval => "eval",
            SpanKind::Stratum => "stratum",
            SpanKind::Round => "round",
            SpanKind::Rule => "rule",
            SpanKind::Worker => "worker",
            SpanKind::Join => "join",
            SpanKind::Absorb => "absorb",
            SpanKind::Phase => "phase",
        }
    }

    /// Whether this kind's gauges must be byte-identical across thread
    /// counts (and therefore appears in [`gauge_tree`]).
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            SpanKind::Eval | SpanKind::Stratum | SpanKind::Round | SpanKind::Rule | SpanKind::Phase
        )
    }
}

/// One node of the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the span measures.
    pub kind: SpanKind,
    /// Display name (`"round 3"`, `"rule 1"`, …).
    pub name: String,
    /// Predicate the span is about (rule head), resolved at export time.
    pub pred: Option<Symbol>,
    /// Worker lane for parallel-round shards; `None` = the main thread.
    pub lane: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
    /// Work gauges (insertion-ordered, keys are code literals).
    pub gauges: Vec<(&'static str, u64)>,
    /// Child spans, in completion order.
    pub children: Vec<Span>,
    /// Free-form annotations (strata, rewrites, candidate models…), in
    /// the order written.
    pub notes: Vec<String>,
}

impl Span {
    /// A completed leaf span with no timing or payload; the caller fills
    /// in whatever fields apply before attaching it via [`Tracer::leaf`].
    pub fn leaf(kind: SpanKind, name: impl Into<String>) -> Span {
        Span {
            kind,
            name: name.into(),
            pred: None,
            lane: None,
            start_nanos: 0,
            dur_nanos: 0,
            gauges: Vec::new(),
            children: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[derive(Debug, Default)]
struct TraceState {
    roots: Vec<Span>,
    open: Vec<Span>,
}

impl TraceState {
    /// Closes the innermost open span at `now` and attaches it to its
    /// parent (or the roots); returns it there.
    fn close(&mut self, now: u64) -> Option<&Span> {
        let mut span = self.open.pop()?;
        span.dur_nanos = now.saturating_sub(span.start_nanos);
        let siblings = match self.open.last_mut() {
            Some(parent) => &mut parent.children,
            None => &mut self.roots,
        };
        siblings.push(span);
        siblings.last()
    }
}

#[derive(Debug)]
struct TracerInner {
    origin: Instant,
    state: Mutex<TraceState>,
}

/// A cheap, clonable handle to an optional span-tree recorder.
///
/// Disabled (the default) every method is a no-op behind one `Option`
/// check — no lock, no clock. Enabled, all clones share one
/// mutex-guarded tree; spans open/close via RAII [`SpanGuard`]s so the
/// tree stays well-formed across early `?` returns.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The disabled (no-op) handle.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled handle with an empty tree; now == 0.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                origin: Instant::now(),
                state: Mutex::new(TraceState::default()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now_nanos(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| u64::try_from(i.origin.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut TraceState) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|i| f(&mut i.state.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Opens a span; it closes (and attaches to its parent) when the
    /// returned guard drops. Guards must nest like scopes.
    #[must_use]
    pub fn span(&self, kind: SpanKind, name: impl Into<String>) -> SpanGuard {
        self.open(kind, name);
        SpanGuard {
            tracer: self.clone(),
        }
    }

    /// Opens a span without a guard: [`close`](Self::close) ends it.
    pub(crate) fn open(&self, kind: SpanKind, name: impl Into<String>) {
        if self.inner.is_some() {
            let mut span = Span::leaf(kind, name);
            span.start_nanos = self.now_nanos();
            self.with_state(|s| s.open.push(span));
        }
    }

    /// Closes the innermost open span and attaches it to its parent (or
    /// the roots); returns a copy of it when `copy`.
    pub(crate) fn close(&self, copy: bool) -> Option<Span> {
        let now = self.now_nanos();
        self.with_state(|s| s.close(now).filter(|_| copy).cloned())
            .flatten()
    }

    /// Records a work gauge on the innermost open span.
    pub fn gauge(&self, key: &'static str, value: u64) {
        self.with_state(|s| {
            if let Some(span) = s.open.last_mut() {
                span.gauges.push((key, value));
            }
        });
    }

    /// Raises the gauge `key` of the innermost open eval span to at least
    /// `value`: a run-level maximum — a peak, or a count that only grows
    /// — recorded from anywhere inside the run.
    pub fn raise(&self, key: &'static str, value: u64) {
        self.with_state(|s| {
            let Some(eval) = s.open.iter_mut().rev().find(|s| s.kind == SpanKind::Eval) else {
                return;
            };
            match eval.gauges.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v = (*v).max(value),
                None => eval.gauges.push((key, value)),
            }
        });
    }

    /// Appends a note to the innermost open span; `note` runs only when
    /// the tracer is on.
    pub fn note(&self, note: impl FnOnce() -> String) {
        if self.inner.is_some() {
            let note = note();
            self.with_state(|s| {
                if let Some(span) = s.open.last_mut() {
                    span.notes.push(note);
                }
            });
        }
    }

    /// Attaches an already-completed span as a child of the innermost
    /// open span (or as a root if none is open).
    pub fn leaf(&self, span: Span) {
        self.with_state(|s| match s.open.last_mut() {
            Some(parent) => parent.children.push(span),
            None => s.roots.push(span),
        });
    }

    /// Drains the recorded tree. Any span still open is closed at the
    /// current time (tolerates engines that errored mid-span).
    pub fn finish(&self) -> Vec<Span> {
        let now = self.now_nanos();
        self.with_state(|s| {
            while s.close(now).is_some() {}
            std::mem::take(&mut s.roots)
        })
        .unwrap_or_default()
    }
}

/// RAII guard for an open span; dropping it closes the span.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.close(false);
    }
}

/// Renders the deterministic projection of a span tree: only the
/// deterministic kinds (see [`SpanKind::is_deterministic`]), only names,
/// predicates, and work gauges — no wall times, no lanes. Two runs of
/// the same workload must produce byte-identical projections for every
/// thread count; tests and `scripts/check.sh` compare exactly this.
pub fn gauge_tree(roots: &[Span], interner: &Interner) -> String {
    fn walk(span: &Span, depth: usize, interner: &Interner, out: &mut String) {
        if !span.kind.is_deterministic() {
            return;
        }
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "{} {}", span.kind.as_str(), span.name);
        if let Some(pred) = span.pred {
            let _ = write!(out, " pred={}", interner.name(pred));
        }
        for (k, v) in &span.gauges {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for child in &span.children {
            walk(child, depth + 1, interner, out);
        }
    }
    let mut out = String::new();
    for span in roots {
        walk(span, 0, interner, &mut out);
    }
    out
}

/// Sums a gauge over all spans of one kind in the tree.
pub fn sum_gauge(roots: &[Span], kind: SpanKind, key: &str) -> u64 {
    fn walk(span: &Span, kind: SpanKind, key: &str) -> u64 {
        let own = if span.kind == kind {
            span.gauge(key).unwrap_or(0)
        } else {
            0
        };
        own + span
            .children
            .iter()
            .map(|c| walk(c, kind, key))
            .sum::<u64>()
    }
    roots.iter().map(|s| walk(s, kind, key)).sum()
}

/// Exports a span tree as Chrome trace-event JSON (the "JSON Array
/// Format" with `traceEvents`), loadable in Perfetto and
/// `chrome://tracing`. Complete events (`ph:"X"`) carry microsecond
/// timestamps; the main evaluation is thread 1 and each worker lane `w`
/// is thread `w + 2`, named via `thread_name` metadata events.
pub fn to_chrome_json(roots: &[Span], interner: &Interner) -> String {
    fn tid(span: &Span) -> usize {
        span.lane.map(|l| l + 2).unwrap_or(1)
    }

    fn push_event(span: &Span, interner: &Interner, out: &mut String) {
        let name = match span.pred {
            Some(pred) => format!("{} [{}]", span.name, interner.name(pred)),
            None => span.name.clone(),
        };
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}",
            json_escape(&name),
            span.kind.as_str(),
            span.start_nanos as f64 / 1000.0,
            span.dur_nanos as f64 / 1000.0,
            tid(span)
        );
        out.push_str(",\"args\":{\"kind\":\"");
        out.push_str(span.kind.as_str());
        out.push('"');
        for (k, v) in &span.gauges {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}}");
        for child in &span.children {
            push_event(child, interner, out);
        }
    }

    fn collect_lanes(span: &Span, lanes: &mut Vec<usize>) {
        if let Some(l) = span.lane {
            if !lanes.contains(&l) {
                lanes.push(l);
            }
        }
        for child in &span.children {
            collect_lanes(child, lanes);
        }
    }

    let mut lanes = Vec::new();
    for span in roots {
        collect_lanes(span, &mut lanes);
    }
    lanes.sort_unstable();

    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"main\"}}",
    );
    for l in &lanes {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"worker {l}\"}}}}",
            l + 2
        );
    }
    for span in roots {
        push_event(span, interner, &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Validates Chrome trace-event JSON produced by [`to_chrome_json`] (or
/// any conforming tool): the document must parse, `traceEvents` must be
/// an array of well-formed `X`/`M` events, and every kind listed in
/// `expect_kinds` must occur on at least one complete event. Returns a
/// short summary (`"<n> events, kinds: ..."`) on success.
pub fn validate_chrome_trace(text: &str, expect_kinds: &[&str]) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut kinds: Vec<String> = Vec::new();
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        for key in ["pid", "tid"] {
            if ev.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric `{key}`"));
            }
        }
        match ph {
            "X" => {
                complete += 1;
                for key in ["ts", "dur"] {
                    match ev.get(key).and_then(Json::as_f64) {
                        Some(v) if v >= 0.0 => {}
                        _ => return Err(format!("event {i}: missing non-negative `{key}`")),
                    }
                }
                if let Some(kind) = ev
                    .get("args")
                    .and_then(|a| a.get("kind"))
                    .and_then(Json::as_str)
                {
                    if !kinds.iter().any(|k| k == kind) {
                        kinds.push(kind.to_string());
                    }
                }
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    if complete == 0 {
        return Err("no complete (`ph:\"X\"`) events".into());
    }
    let missing: Vec<&str> = expect_kinds
        .iter()
        .copied()
        .filter(|want| !kinds.iter().any(|k| k == want))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing span kinds: {} (present: {})",
            missing.join(", "),
            kinds.join(", ")
        ));
    }
    kinds.sort_unstable();
    Ok(format!(
        "{} events ({complete} spans), kinds: {}",
        events.len(),
        kinds.join(", ")
    ))
}

/// Aggregates all `Rule` spans by (name, predicate) and renders the
/// top-`n` hottest rules by total wall time: the table the bench
/// harness and the REPL `.profile` command print.
pub fn hottest_rules(roots: &[Span], interner: &Interner, n: usize) -> String {
    struct Agg {
        name: String,
        pred: Option<Symbol>,
        dur_nanos: u64,
        fired: u64,
        rounds: u64,
    }
    fn walk(span: &Span, aggs: &mut Vec<Agg>) {
        if span.kind == SpanKind::Rule {
            let fired = span.gauge("fired").unwrap_or(0);
            match aggs
                .iter_mut()
                .find(|a| a.name == span.name && a.pred == span.pred)
            {
                Some(a) => {
                    a.dur_nanos += span.dur_nanos;
                    a.fired += fired;
                    a.rounds += 1;
                }
                None => aggs.push(Agg {
                    name: span.name.clone(),
                    pred: span.pred,
                    dur_nanos: span.dur_nanos,
                    fired,
                    rounds: 1,
                }),
            }
        }
        for child in &span.children {
            walk(child, aggs);
        }
    }
    let mut aggs = Vec::new();
    for span in roots {
        walk(span, &mut aggs);
    }
    if aggs.is_empty() {
        return "no rule spans recorded\n".to_string();
    }
    aggs.sort_by(|a, b| b.dur_nanos.cmp(&a.dur_nanos).then(a.name.cmp(&b.name)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>10} {:>7}",
        "hottest rules", "wall", "fired", "rounds"
    );
    for a in aggs.iter().take(n) {
        let label = match a.pred {
            Some(pred) => format!("{} [{}]", a.name, interner.name(pred)),
            None => a.name.clone(),
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10.3}ms {:>10} {:>7}",
            label,
            a.dur_nanos as f64 / 1e6,
            a.fired,
            a.rounds
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::off();
        assert!(!tr.is_enabled());
        assert_eq!(tr.now_nanos(), 0);
        {
            let _g = tr.span(SpanKind::Eval, "x");
            tr.gauge("k", 1);
            tr.leaf(Span::leaf(SpanKind::Join, "j"));
        }
        assert!(tr.finish().is_empty());
    }

    #[test]
    fn spans_nest_and_close_in_scope_order() {
        let tr = Tracer::enabled();
        {
            let _eval = tr.span(SpanKind::Eval, "seminaive");
            {
                let _round = tr.span(SpanKind::Round, "round 1");
                tr.gauge("facts_added", 3);
                tr.leaf(Span::leaf(SpanKind::Join, "joins"));
            }
            {
                let _round = tr.span(SpanKind::Round, "round 2");
                tr.gauge("facts_added", 0);
            }
        }
        let roots = tr.finish();
        assert_eq!(roots.len(), 1);
        let eval = &roots[0];
        assert_eq!(eval.kind, SpanKind::Eval);
        assert_eq!(eval.children.len(), 2);
        assert_eq!(eval.children[0].gauge("facts_added"), Some(3));
        assert_eq!(eval.children[0].children[0].kind, SpanKind::Join);
        assert!(eval.dur_nanos >= eval.children[1].dur_nanos);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let tr = Tracer::enabled();
        let g = tr.span(SpanKind::Eval, "e");
        let g2 = tr.span(SpanKind::Round, "r");
        std::mem::forget(g2);
        std::mem::forget(g);
        let roots = tr.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
    }

    fn sample_tree(interner: &mut Interner) -> Vec<Span> {
        let t = interner.intern("T");
        let tr = Tracer::enabled();
        {
            let _eval = tr.span(SpanKind::Eval, "seminaive");
            {
                let _round = tr.span(SpanKind::Round, "round 1");
                let mut rule = Span::leaf(SpanKind::Rule, "rule 0");
                rule.pred = Some(t);
                rule.gauges.push(("fired", 7));
                tr.leaf(rule);
                let mut worker = Span::leaf(SpanKind::Worker, "worker 0");
                worker.lane = Some(0);
                tr.leaf(worker);
                tr.gauge("facts_added", 7);
            }
            tr.gauge("final_facts", 7);
        }
        tr.finish()
    }

    #[test]
    fn gauge_tree_hides_nondeterministic_kinds() {
        let mut interner = Interner::new();
        let roots = sample_tree(&mut interner);
        let proj = gauge_tree(&roots, &interner);
        assert!(proj.contains("eval seminaive final_facts=7"), "{proj}");
        assert!(proj.contains("rule rule 0 pred=T fired=7"), "{proj}");
        assert!(!proj.contains("worker"), "{proj}");
        assert!(!proj.contains("nanos"), "{proj}");
    }

    #[test]
    fn sum_gauge_totals_rule_fired() {
        let mut interner = Interner::new();
        let roots = sample_tree(&mut interner);
        assert_eq!(sum_gauge(&roots, SpanKind::Rule, "fired"), 7);
        assert_eq!(sum_gauge(&roots, SpanKind::Round, "facts_added"), 7);
    }

    #[test]
    fn chrome_export_is_valid_and_has_lanes() {
        let mut interner = Interner::new();
        let roots = sample_tree(&mut interner);
        let json = to_chrome_json(&roots, &interner);
        let summary = validate_chrome_trace(&json, &["eval", "round", "rule", "worker"]).unwrap();
        assert!(summary.contains("worker"), "{summary}");
        // The worker lane got its own named thread.
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("worker 0"), "{json}");
        // Missing kinds are reported.
        let err = validate_chrome_trace(&json, &["stratum"]).unwrap_err();
        assert!(err.contains("stratum"), "{err}");
        // Garbage is rejected.
        assert!(validate_chrome_trace("{}", &[]).is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{}]}", &[]).is_err());
    }

    #[test]
    fn hottest_rules_ranks_by_wall_time() {
        let mut interner = Interner::new();
        let t = interner.intern("T");
        let mut slow = Span::leaf(SpanKind::Rule, "rule 1");
        slow.pred = Some(t);
        slow.dur_nanos = 5_000_000;
        slow.gauges.push(("fired", 100));
        let mut fast = Span::leaf(SpanKind::Rule, "rule 0");
        fast.dur_nanos = 1_000;
        fast.gauges.push(("fired", 3));
        let mut round = Span::leaf(SpanKind::Round, "round 1");
        round.children.push(fast);
        round.children.push(slow);
        let table = hottest_rules(&[round], &interner, 10);
        let pos_slow = table.find("rule 1 [T]").unwrap();
        let pos_fast = table.find("rule 0").unwrap();
        assert!(pos_slow < pos_fast, "{table}");
        assert!(table.contains("100"), "{table}");
        assert_eq!(hottest_rules(&[], &interner, 5), "no rule spans recorded\n");
    }
}
