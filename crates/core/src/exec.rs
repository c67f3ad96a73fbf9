//! The shared plan executor: one tuple-at-a-time interpreter over the
//! existing [`Relation`]/[`IndexCache`] storage, driven by every
//! engine.
//!
//! The interpreter walks a compiled [`Plan`]'s steps
//! ([`crate::ir::Step`]) depth-first, invoking a callback once per
//! satisfying valuation. A scan with no bound column reads the
//! relation's stored rows in place, in storage order, through one loop
//! that the morsel entry point shares ([`for_each_match_morsel`]). So
//! does a keyed scan marked `seek` while its driver reads sorted storage
//! and its relation is one sorted segment: a galloping search from the
//! last probe's span finds the rows ([`Relation::prefix_span`]). Other
//! keyed scans probe a per-(relation, columns) hash index, memoized
//! across fixpoint iterations in an [`IndexCache`] tracked by relation
//! [`Generation`]: when a relation only grew, the cached index absorbs
//! the new tuples incrementally instead of being rebuilt from scratch.
//! An index's postings are storage positions, not rows: the scan copies
//! a probe's positions into a pooled buffer and reads each row from
//! storage as it binds it ([`Relation::rows_at`]), so no tuple is ever
//! copied out of its relation. Join-work telemetry ([`JoinCounters`])
//! is emitted here, in one place, for all engines.

use std::ops::{ControlFlow, Range};
use unchained_common::{
    DeltaHandle, FxHashMap, Generation, HeapSize, Index, Instance, JoinCounters, Relation, Symbol,
    Value,
};
use unchained_parser::Term;

use crate::ir::{Plan, ScanSource, Step};
use crate::subst::{term_value, Env};

/// What a cached index covers.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Covers {
    /// A relation of the instance full scans read.
    Full,
    /// One round's delta slice of a relation.
    Delta,
    /// A relation of the withdrawn side of a pre-update view
    /// ([`Sources::before`]).
    Withdrawn,
}

/// The cached indexes of one relation and coverage, by key columns: a
/// lookup compares the probe's column slice in place, so a probe that
/// hits allocates nothing.
type ColumnEntries = Vec<(Box<[usize]>, CacheEntry)>;

/// How the cache answers the probes of one key: through a hash index
/// current for the relation at `gen` (for a delta-source entry, for the
/// slice since `mark`), or by seeks in the relation's one sorted segment
/// ([`Relation::prefix_span`]), each searching from the span the last
/// one read. A new entry seeks until a probe cannot. (A boxed index
/// would cost every indexed probe a pointer chase.)
#[allow(clippy::large_enum_variant)]
enum CacheEntry {
    Index {
        gen: Generation,
        mark: Option<Generation>,
        index: Index,
    },
    Seek(Range<usize>),
}

/// What answers one keyed probe: a hash index to look the key up in,
/// or the storage positions of the rows that lead with the key.
pub(crate) enum Probe<'c> {
    Index(&'c Index),
    Seek(Range<usize>),
}

/// A per-run cache of relation indexes, keyed by
/// `(relation, key columns, source)` and tracked by relation generation.
/// It holds only indexes some probe keys into: scans with no bound
/// column read storage in place and build none.
///
/// A `seek` probe ([`Step::Scan`]) may instead be answered from sorted
/// storage (see [`CacheEntry`]); either way it costs one lookup.
///
/// A full-source entry whose relation only grew since the index was built
/// absorbs the new tuples by appending postings ([`Index::absorb_from`]);
/// only lineage breaks (removals, clears, diverged clones) and commits
/// that sorted a tail the entry holds positions in force a rebuild,
/// so on append-only fixpoints rebuilds stay bounded by the number of
/// relations instead of scaling with the number of rounds. Delta-source
/// entries index one round's `iter_since` slice; they are built fresh each
/// round — work proportional to the round's delta — and dropped by
/// [`IndexCache::begin_delta_round`].
#[derive(Default)]
pub struct IndexCache {
    entries: FxHashMap<(Symbol, Covers), ColumnEntries>,
    /// Join-work counters, incremented unconditionally (plain integer
    /// adds — the telemetry-off path stays branch-free). Engines
    /// snapshot and diff this per stage when telemetry is enabled.
    pub counters: JoinCounters,
    /// Pool of packed-value scratch buffers reused by keyed scans and
    /// negative checks (probe keys and fully bound rows), so
    /// steady-state probing does not allocate. Depth-bounded: the pool
    /// high-water mark is the deepest scan nesting of any plan, not the
    /// data size.
    scratch: Vec<Vec<Value>>,
    /// Pool of the buffers a keyed scan copies a probe's postings into:
    /// storage positions, 4 bytes a match, never copies of the rows.
    positions: Vec<Vec<u32>>,
    /// Pool of variable-slot lists the scan step reuses the same way.
    slots: Vec<Vec<usize>>,
}

impl IndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared scratch buffer from the pool (or a fresh one).
    fn take_scratch(&mut self) -> Vec<Value> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool for reuse.
    fn put_scratch(&mut self, mut buf: Vec<Value>) {
        buf.clear();
        self.scratch.push(buf);
    }

    /// Takes a cleared position buffer from the pool (or a fresh one).
    fn take_positions(&mut self) -> Vec<u32> {
        self.positions.pop().unwrap_or_default()
    }

    /// Returns a position buffer to the pool for reuse.
    fn put_positions(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.positions.push(buf);
    }

    /// The variables a scan of `args` binds from each row: those at
    /// non-`key` positions still unbound in `env`, in a pooled list to
    /// hand back with [`IndexCache::put_slots`].
    fn binds(&mut self, args: &[Term], key: &[usize], env: &Env) -> Vec<usize> {
        let mut binds = self.slots.pop().unwrap_or_default();
        for (p, term) in args.iter().enumerate() {
            if let Term::Var(v) = term {
                if !key.contains(&p) && env[v.index()].is_none() {
                    binds.push(v.index());
                }
            }
        }
        binds
    }

    /// Returns a list taken by [`IndexCache::binds`] to the pool.
    fn put_slots(&mut self, mut slots: Vec<usize>) {
        slots.clear();
        self.slots.push(slots);
    }

    /// Drops all delta-source entries. Call at the start of each
    /// semi-naive round: delta indexes cover one round's slice and are
    /// never carried across rounds.
    pub fn begin_delta_round(&mut self) {
        self.entries
            .retain(|(_, covers), _| *covers != Covers::Delta);
    }

    /// Drops every cached index, returning the memory to the caller:
    /// for a run whose next phase reads the instance through other
    /// plans than the last.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops the indexes over the withdrawn side of pre-update views
    /// ([`Sources::before`]). Call whenever the withdrawn instance is
    /// replaced or loses its lineage; the entries are change-sized.
    pub fn forget_withdrawn(&mut self) {
        self.entries
            .retain(|(_, covers), _| *covers != Covers::Withdrawn);
    }

    /// Logical bytes held by every cached index (see
    /// [`unchained_common::space`]). Reported as a telemetry note, not
    /// part of the `--memstats` tree: live cache contents depend on the
    /// worker-shard layout, so unlike relation bytes they are not
    /// invariant across thread counts.
    pub fn heap_bytes(&self) -> usize {
        self.entries
            .values()
            .flatten()
            .map(|(_, e)| match e {
                CacheEntry::Index { index, .. } => index.heap_bytes(),
                CacheEntry::Seek(_) => 0,
            })
            .sum()
    }

    /// Number of cached keys, each served by an index or by seeks.
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// How a probe of `relation` on `cols` is answered. Given `seek`, the
    /// probe's key, a key no index serves yet is sought in storage while
    /// the relation allows; otherwise its index is built, grown or hit.
    #[inline]
    pub(crate) fn get(
        &mut self,
        pred: Symbol,
        cols: &[usize],
        source: ScanSource,
        relation: &Relation,
        mark: Option<Generation>,
        seek: Option<&[Value]>,
    ) -> Probe<'_> {
        let covers = match source {
            ScanSource::Full => Covers::Full,
            ScanSource::Delta => Covers::Delta,
        };
        self.entry(pred, cols, covers, relation, mark, seek)
    }

    fn entry(
        &mut self,
        pred: Symbol,
        cols: &[usize],
        covers: Covers,
        relation: &Relation,
        mark: Option<Generation>,
        seek: Option<&[Value]>,
    ) -> Probe<'_> {
        debug_assert!(!cols.is_empty(), "a keyless scan reads storage in place");
        let gen_now = relation.generation();
        let counters = &mut self.counters;
        let fresh = |counters: &mut JoinCounters| {
            let index = match mark {
                Some(m) => Index::build_delta(relation, cols, m),
                None => Index::build(relation, cols),
            };
            counters.index_builds += 1;
            counters.indexed_tuples += index.tuple_count() as u64;
            CacheEntry::Index {
                gen: gen_now,
                mark,
                index,
            }
        };
        let entries = self.entries.entry((pred, covers)).or_default();
        let at = match entries.iter().position(|(c, _)| **c == *cols) {
            Some(at) => at,
            None => {
                entries.push((cols.into(), CacheEntry::Seek(0..0)));
                entries.len() - 1
            }
        };
        let entry = &mut entries[at].1;
        match entry {
            CacheEntry::Seek(last) => {
                if let Some(span) = seek.and_then(|key| relation.prefix_span(key, last.clone())) {
                    *last = span.clone();
                    return Probe::Seek(span);
                }
                // The relation or the driver is not sorted: index the key.
                *entry = fresh(counters);
            }
            CacheEntry::Index { gen, mark: m, .. } if *gen == gen_now && *m == mark => {
                counters.index_hits += 1;
            }
            // Delta indexes are rebuilt per round, never absorbed.
            CacheEntry::Index { .. } if mark.is_some() => *entry = fresh(counters),
            CacheEntry::Index { gen, index, .. } => {
                if let Some(appended) = index.absorb_from(relation, *gen) {
                    counters.index_appends += 1;
                    counters.appended_tuples += appended as u64;
                } else {
                    counters.index_rebuilds += 1;
                    counters.indexed_tuples += relation.len() as u64;
                    *index = Index::build(relation, cols);
                }
                *gen = gen_now;
            }
        }
        let CacheEntry::Index { index, .. } = entry else {
            unreachable!("a seek returns above");
        };
        Probe::Index(index)
    }
}

/// The instances a plan reads from.
///
/// * `full` — the current instance, read by [`ScanSource::Full`] scans.
/// * `delta` — the generation marks captured at the previous round
///   boundary; [`ScanSource::Delta`] scans of semi-naive plan variants
///   read `full`'s relations restricted to the tuples added since the
///   mark (`Relation::iter_since`). No separate delta instance exists.
/// * `neg` — when set, negative literals are checked against this
///   instance instead of `full`. The well-founded engine uses this for
///   the Gelfond–Lifschitz-style reduct of the alternating fixpoint,
///   where negation reads the *previous* iterate while positive facts
///   accumulate in the current one.
/// * `neg_added` — when set together with `neg`, negative literals read
///   `neg − neg_added`: the negative context as it was before it gained
///   `neg_added`. The alternating fixpoint's overdelete reads the
///   previous under-estimate this way, without keeping a copy of it.
/// * `delta_from` — when set, [`ScanSource::Delta`] scans read their
///   relations from this instance instead of `full` (marks still come
///   from `delta`). The incremental-maintenance engine uses this to
///   drive Δ-variant plans over a scratch change set (the overdeleted
///   or newly inserted tuples) while `full` stays pinned to the
///   appropriate database state.
/// * `before` — when set to `(inserted, deleted)`, full scans and
///   negative checks read `(full − inserted) ∪ deleted` instead of
///   `full`: the state before an update that inserted `inserted` and
///   deleted `deleted`, read without copying it. A keyed scan indexes
///   the deleted side under its own cache entries (see
///   [`IndexCache::forget_withdrawn`]). Incremental maintenance reads
///   the pre-update fixpoint this way; the morsel entry point does not
///   support it.
#[derive(Clone, Copy)]
pub struct Sources<'a> {
    /// Current instance.
    pub full: &'a Instance,
    /// Delta marks, if running a semi-naive delta variant.
    pub delta: Option<&'a DeltaHandle>,
    /// Override instance for negative checks.
    pub neg: Option<&'a Instance>,
    /// Facts `neg` gained in its last update, read as absent.
    pub neg_added: Option<&'a Instance>,
    /// Override instance for delta scans.
    pub delta_from: Option<&'a Instance>,
    /// `(inserted, deleted)`: read full relations as before that update.
    pub before: Option<(&'a Instance, &'a Instance)>,
}

impl<'a> Sources<'a> {
    /// Sources reading everything from one instance.
    pub fn simple(full: &'a Instance) -> Self {
        Sources {
            full,
            delta: None,
            neg: None,
            neg_added: None,
            delta_from: None,
            before: None,
        }
    }
}

/// Runs `plan` against `sources`, with domain steps enumerating `adom`,
/// invoking `on_match` for every satisfying valuation. `on_match` may
/// stop the enumeration early by returning [`ControlFlow::Break`].
#[allow(clippy::type_complexity)]
pub fn for_each_match(
    plan: &Plan,
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut env: Env = vec![None; plan.var_count];
    Run::new(plan, sources, adom).steps(&plan.steps, cache, &mut env, on_match)
}

/// Like [`for_each_match`], but starting from a caller-seeded
/// environment: variables already bound in `env` act as constants
/// (plans compiled with those variables prebound turn them into scan
/// key columns). `env` must have `plan.var_count` slots; bindings the
/// plan adds are undone before returning, the seeded ones survive.
#[allow(clippy::type_complexity)]
pub fn for_each_match_from(
    plan: &Plan,
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    env: &mut Env,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    debug_assert_eq!(env.len(), plan.var_count);
    Run::new(plan, sources, adom).steps(&plan.steps, cache, env, on_match)
}

/// One unit of work for the morsel-driven parallel stages: either a
/// whole-plan evaluation, or a contiguous row range of the plan's
/// *driver* — its first scan step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Morsel {
    /// Run the plan in full. Used for plans whose first step is not a
    /// scan (no row range to partition).
    Whole,
    /// Run only driver rows `lo..hi`: storage positions counted from
    /// the start of the driver's span (see [`driver_len`]), dead rows
    /// included.
    Rows {
        /// First driver row (inclusive).
        lo: usize,
        /// Past-the-end driver row (exclusive).
        hi: usize,
    },
}

/// What a scan step reads, in storage order: the live rows of
/// `relation` at the storage positions `span` (all of storage for a
/// full scan, the rows since `mark` for a Δ scan), less those in
/// `hidden`, then every row of `withdrawn`. Only a full scan through a
/// pre-update view ([`Sources::before`]) has `hidden` (the update's
/// insertions) and `withdrawn` (its deletions). A scan with no bound
/// column reads these rows in place; a keyed scan probes an index.
struct Stored<'a> {
    relation: Option<&'a Relation>,
    mark: Option<Generation>,
    span: Range<usize>,
    hidden: Option<&'a Relation>,
    withdrawn: Option<&'a Relation>,
}

impl<'a> Stored<'a> {
    /// What a scan of `pred` from `source` reads in `sources`.
    fn new(sources: &Sources<'a>, pred: Symbol, source: ScanSource) -> Self {
        let (instance, mark, view) = match source {
            ScanSource::Full => (sources.full, None, sources.before),
            ScanSource::Delta => {
                let marks = sources.delta.expect("delta plan run without delta marks");
                let instance = sources.delta_from.unwrap_or(sources.full);
                (instance, Some(marks.mark(pred)), None)
            }
        };
        let relation = instance.relation(pred);
        Stored {
            relation,
            mark,
            span: relation.map_or(0..0, |r| {
                mark.map_or(0, |m| r.delta_start(m))..r.stored_rows()
            }),
            hidden: view.and_then(|(inserted, _)| inserted.relation(pred)),
            withdrawn: view.and_then(|(_, deleted)| deleted.relation(pred)),
        }
    }

    /// The rows, borrowed from storage.
    fn rows(&self) -> impl Iterator<Item = &'a [Value]> {
        let (span, hidden) = (self.span.clone(), self.hidden);
        self.relation
            .into_iter()
            .flat_map(move |r| r.iter_stored_range(span.start, span.end))
            .filter(move |row| !hidden.is_some_and(|h| h.contains_row(row)))
            .chain(self.withdrawn.into_iter().flat_map(Relation::iter_stored))
    }

    /// How many rows [`Stored::rows`] yields; read off the storage
    /// without walking it, unless a view hides some of its rows.
    fn count(&self) -> usize {
        if self.hidden.is_some() {
            return self.rows().count();
        }
        self.relation
            .map_or(0, |r| r.live_between(self.span.start, self.span.end))
            + self.withdrawn.map_or(0, Relation::len)
    }
}

/// The plan's first step, if it is a scan: its arguments, and what it
/// reads in `sources`.
fn driver<'p, 'a>(plan: &'p Plan, sources: &Sources<'a>) -> Option<(&'p [Term], Stored<'a>)> {
    let Some(Step::Scan {
        pred, args, source, ..
    }) = plan.steps.first()
    else {
        return None;
    };
    Some((args, Stored::new(sources, *pred, *source)))
}

/// Number of driver rows `plan` partitions into morsels under
/// `sources`: the storage positions its first scan step spans, dead
/// rows included. `None` when the first step is not a scan — such plans
/// cannot be row-partitioned and run as one [`Morsel::Whole`]. An
/// absent relation yields `Some(0)`: nothing to scan, zero morsels.
pub fn driver_len(plan: &Plan, sources: Sources<'_>) -> Option<usize> {
    driver(plan, &sources).map(|(_, scan)| scan.span.len())
}

/// Like [`for_each_match`], but restricted to one [`Morsel`] of the
/// plan's driver scan. The morsel's driver rows are read in place by
/// the loop that serves every scan with no bound column (constants in
/// the driver are checked row by row), so workers pulling disjoint
/// ranges partition the plan's match set exactly: every match consumes
/// exactly one driver row. The sequential scan reads the same rows in
/// the same order, so the morsels of a partition, taken in order, yield
/// the matches in the order [`for_each_match`] does, on any storage.
pub fn for_each_match_morsel(
    plan: &Plan,
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    morsel: Morsel,
    on_match: &mut dyn FnMut(&Env),
) {
    assert!(sources.before.is_none(), "morsels do not read views");
    let on_match = &mut |env: &Env| {
        on_match(env);
        ControlFlow::Continue(())
    };
    let env = &mut vec![None; plan.var_count];
    let run = Run::new(plan, sources, adom);
    let _ = match (morsel, driver(plan, &sources)) {
        (Morsel::Rows { lo, hi }, Some((args, mut scan))) => {
            scan.span = scan.span.start + lo..scan.span.start + hi;
            let (rows, rest) = (scan.rows(), &plan.steps[1..]);
            run.each_row(scan.count(), rows, args, &[], rest, cache, env, on_match)
        }
        _ => run.steps(&plan.steps, cache, env, on_match),
    };
}

/// Whether `row` is in `pred` as full scans read it: in `full`, or in
/// the pre-update view when [`Sources::before`] is set.
fn in_full(sources: Sources<'_>, pred: Symbol, row: &[Value]) -> bool {
    let has = |instance: &Instance| instance.relation(pred).is_some_and(|r| r.contains_row(row));
    match sources.before {
        None => has(sources.full),
        Some((inserted, deleted)) => (has(sources.full) && !has(inserted)) || has(deleted),
    }
}

/// Binds the variables at the non-`key` positions of `args` to `row`'s
/// values; returns `false` at the first position `row` does not match:
/// a constant it differs from, or a variable already bound (earlier in
/// the row, or before the scan) to another value. Bindings made before
/// a mismatch stay for the caller to undo.
#[inline]
fn bind_row(args: &[Term], key: &[usize], row: &[Value], env: &mut Env) -> bool {
    for (p, term) in args.iter().enumerate() {
        if key.contains(&p) {
            continue;
        }
        match term {
            Term::Const(c) => {
                if *c != row[p] {
                    return false;
                }
            }
            Term::Var(v) => match env[v.index()] {
                Some(existing) => {
                    if existing != row[p] {
                        return false;
                    }
                }
                None => env[v.index()] = Some(row[p]),
            },
        }
    }
    true
}

/// What every step of one plan run reads: its sources, and the active
/// domain that domain steps enumerate.
#[derive(Clone, Copy)]
struct Run<'a> {
    sources: Sources<'a>,
    adom: &'a [Value],
    /// Whether the driver reads sorted runs of storage only, so that the
    /// keys of `seek` scans ascend: not when it reads an uncommitted
    /// tail, which holds rows in insertion order, or a pre-update view.
    sorted: bool,
}

impl<'a> Run<'a> {
    fn new(plan: &Plan, sources: Sources<'a>, adom: &'a [Value]) -> Self {
        let seek = |s: &Step| matches!(s, Step::Scan { seek: true, .. });
        let sorted = plan.steps.iter().any(seek)
            && driver(plan, &sources).is_some_and(|(_, scan)| {
                scan.withdrawn.is_none() && scan.relation.is_some_and(|r| r.recent_len() == 0)
            });
        Run {
            sources,
            adom,
            sorted,
        }
    }

    /// Counts one probe yielding `count` rows, then binds `args` from
    /// each of `rows` in turn, at the positions not in `key`, and runs
    /// `rest` under each binding that matches.
    #[allow(clippy::too_many_arguments)]
    fn each_row<'r>(
        self,
        count: usize,
        rows: impl Iterator<Item = &'r [Value]>,
        args: &[Term],
        key: &[usize],
        rest: &[Step],
        cache: &mut IndexCache,
        env: &mut Env,
        on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        cache.counters.probes += 1;
        cache.counters.probe_tuples += count as u64;
        let binds = cache.binds(args, key, env);
        let mut flow = ControlFlow::Continue(());
        for row in rows {
            // Bind non-key positions, checking repeated variables.
            if bind_row(args, key, row, env) {
                flow = self.steps(rest, cache, env, on_match);
            }
            for &b in &binds {
                env[b] = None;
            }
            if flow.is_break() {
                break;
            }
        }
        cache.put_slots(binds);
        flow
    }

    fn steps(
        self,
        steps: &[Step],
        cache: &mut IndexCache,
        env: &mut Env,
        on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some((step, rest)) = steps.split_first() else {
            return on_match(env);
        };
        let sources = self.sources;
        match step {
            Step::Scan {
                pred,
                args,
                key,
                source,
                seek,
            } => {
                let scan = Stored::new(&sources, *pred, *source);
                if scan.relation.is_none() && scan.withdrawn.is_none() {
                    return ControlFlow::Continue(()); // absent relation = empty
                }
                if key.is_empty() {
                    // Nothing bound: read the stored rows in place. They
                    // borrow from `sources`, not `cache`: no buffering.
                    let (count, rows) = (scan.count(), scan.rows());
                    return self.each_row(count, rows, args, key, rest, cache, env, on_match);
                }
                if scan.mark.is_none() && key.len() == args.len() {
                    // Every position bound: a membership test, no index.
                    let mut row = cache.take_scratch();
                    row.extend(args.iter().map(|t| term_value(t, env)));
                    let hit = usize::from(in_full(sources, *pred, &row));
                    let rows = row.chunks_exact(args.len()).take(hit);
                    let flow = self.each_row(hit, rows, args, key, rest, cache, env, on_match);
                    cache.put_scratch(row);
                    return flow;
                }
                // An index cannot be held across the recursive call (which
                // needs `cache`), so copy the matching postings — storage
                // positions, not rows — into a pooled buffer: buckets are
                // typically small, and in steady state this allocates
                // nothing. The rows are read from storage as they bind.
                let mut probe = cache.take_scratch();
                probe.extend(key.iter().map(|&p| term_value(&args[p], env)));
                let seek =
                    *seek && self.sorted && scan.hidden.is_none() && scan.withdrawn.is_none();
                let seek = seek.then_some(&probe[..]);
                let mut hits = cache.take_positions();
                if let Some(relation) = scan.relation {
                    match cache.get(*pred, key, *source, relation, scan.mark, seek) {
                        // The live positions of the span found in storage.
                        Probe::Seek(span) => {
                            hits.extend(span.filter(|&p| !relation.is_dead(p)).map(|p| p as u32));
                        }
                        Probe::Index(index) => {
                            let postings = index.probe(&probe);
                            match scan.hidden {
                                None => hits.extend(postings),
                                Some(hidden) => hits.extend(
                                    postings
                                        .clone()
                                        .zip(relation.rows_at(postings))
                                        .filter(|(_, row)| !hidden.contains_row(row))
                                        .map(|(pos, _)| pos),
                                ),
                            }
                        }
                    }
                }
                let own = hits.len();
                if let Some(withdrawn) = scan.withdrawn {
                    let index = cache.entry(*pred, key, Covers::Withdrawn, withdrawn, None, None);
                    if let Probe::Index(index) = index {
                        hits.extend(index.probe(&probe));
                    }
                }
                cache.put_scratch(probe);
                let (own, theirs) = hits.split_at(own);
                let withdrawn = scan.withdrawn.into_iter();
                let rows = scan
                    .relation
                    .into_iter()
                    .flat_map(|r| r.rows_at(own.iter().copied()))
                    .chain(withdrawn.flat_map(|w| w.rows_at(theirs.iter().copied())));
                let flow = self.each_row(hits.len(), rows, args, key, rest, cache, env, on_match);
                cache.put_positions(hits);
                flow
            }
            Step::BindEq { var, term } => {
                let value = term_value(term, env);
                let prev = env[var.index()];
                env[var.index()] = Some(value);
                let flow = self.steps(rest, cache, env, on_match);
                env[var.index()] = prev;
                flow
            }
            Step::Domain { var } => {
                for &value in self.adom {
                    env[var.index()] = Some(value);
                    self.steps(rest, cache, env, on_match)?;
                }
                env[var.index()] = None;
                ControlFlow::Continue(())
            }
            Step::CheckNeg { pred, args } => {
                let mut row = cache.take_scratch();
                row.extend(args.iter().map(|t| term_value(t, env)));
                let present = match sources.neg {
                    Some(neg) => {
                        neg.contains_fact(*pred, &row)
                            && !sources
                                .neg_added
                                .is_some_and(|added| added.contains_fact(*pred, &row))
                    }
                    None => in_full(sources, *pred, &row),
                };
                cache.put_scratch(row);
                if present {
                    ControlFlow::Continue(())
                } else {
                    self.steps(rest, cache, env, on_match)
                }
            }
            Step::CheckCmp { left, right, equal } => {
                if (term_value(left, env) == term_value(right, env)) == *equal {
                    self.steps(rest, cache, env, on_match)
                } else {
                    ControlFlow::Continue(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subst::instantiate;
    use unchained_common::{Interner, Tuple};
    use unchained_parser::HeadLiteral;

    /// The index `cache` answers a probe of `rel` on column 0 through.
    fn index<'c>(
        cache: &'c mut IndexCache,
        g: Symbol,
        rel: &Relation,
        source: ScanSource,
        mark: Option<Generation>,
    ) -> &'c Index {
        match cache.get(g, &[0], source, rel, mark, None) {
            Probe::Index(index) => index,
            Probe::Seek(_) => unreachable!("no seek was asked for"),
        }
    }

    #[test]
    fn index_cache_absorbs_growth_instead_of_rebuilding() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let mut rel = Relation::new(1);
        rel.insert(Tuple::from([Value::Int(1)]));
        rel.commit();
        let mut cache = IndexCache::new();
        assert_eq!(
            index(&mut cache, g, &rel, ScanSource::Full, None)
                .probe(&[Value::Int(1)])
                .len(),
            1
        );
        assert_eq!(cache.counters.index_builds, 1);
        // Unchanged relation: a cache hit, no index work.
        let _ = index(&mut cache, g, &rel, ScanSource::Full, None);
        assert_eq!(cache.counters.index_hits, 1);
        // Growth (including across a commit) is absorbed incrementally.
        rel.insert(Tuple::from([Value::Int(2)]));
        rel.commit();
        assert_eq!(
            index(&mut cache, g, &rel, ScanSource::Full, None)
                .probe(&[Value::Int(2)])
                .len(),
            1
        );
        assert_eq!(cache.counters.index_appends, 1);
        assert_eq!(cache.counters.appended_tuples, 1);
        assert_eq!(cache.counters.index_rebuilds, 0);
        // A removal breaks the lineage and forces a rebuild.
        rel.remove(&Tuple::from([Value::Int(1)]));
        assert_eq!(
            index(&mut cache, g, &rel, ScanSource::Full, None)
                .probe(&[Value::Int(1)])
                .len(),
            0
        );
        assert_eq!(cache.counters.index_rebuilds, 1);
    }

    /// An entry that absorbed an uncommitted tail holds positions the
    /// next commit's sort moves: after `commit_all` the entry is rebuilt,
    /// never probed, and its probes agree with a fresh build.
    #[test]
    fn index_cache_rebuilds_an_entry_stamped_mid_tail_after_commit() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let pair = |a: i64, b: i64| Tuple::from([Value::Int(a), Value::Int(b)]);
        let mut instance = Instance::new();
        instance.insert_fact(g, pair(0, 0));
        instance.commit_all();
        let mut cache = IndexCache::new();
        let _ = index(
            &mut cache,
            g,
            instance.relation(g).unwrap(),
            ScanSource::Full,
            None,
        );
        // Tail rows in reverse order, so the commit's sort moves them.
        for b in (1..=6).rev() {
            instance.insert_fact(g, pair(b % 2, b));
        }
        let _ = index(
            &mut cache,
            g,
            instance.relation(g).unwrap(),
            ScanSource::Full,
            None,
        );
        assert_eq!(cache.counters.index_appends, 1);
        assert_eq!(cache.counters.appended_tuples, 6);
        instance.commit_all();
        let rel = instance.relation(g).unwrap();
        let fresh = Index::build(rel, &[0]);
        let idx = index(&mut cache, g, rel, ScanSource::Full, None);
        for k in 0..3 {
            let got: Vec<Tuple> = rel
                .rows_at(idx.probe(&[Value::Int(k)]))
                .map(Tuple::new)
                .collect();
            let want: Vec<Tuple> = rel
                .rows_at(fresh.probe(&[Value::Int(k)]))
                .map(Tuple::new)
                .collect();
            assert_eq!(got, want, "key {k}");
        }
        assert_eq!(cache.counters.index_rebuilds, 1);
        assert_eq!(cache.counters.index_appends, 1);
    }

    /// `Sources::before` reads `(full − inserted) ∪ deleted` in every
    /// kind of read: an index-driven scan, a fully bound scan (answered
    /// by membership) and a negative check.
    #[test]
    fn before_view_reads_the_pre_update_state() {
        let mut i = Interner::new();
        let program = unchained_parser::parse_program(
            "Q(x,y) :- G(x,y).\nH(x) :- K(x), G(x,2).\nN(x) :- K(x), !G(x,2).",
            &mut i,
        )
        .unwrap();
        let (g, k) = (i.get("G").unwrap(), i.get("K").unwrap());
        let pair = |a: i64| Tuple::from([Value::Int(a), Value::Int(2)]);
        let mut live = Instance::new();
        let (mut inserted, mut deleted) = (Instance::new(), Instance::new());
        live.insert_fact(g, pair(1));
        live.insert_fact(g, pair(5));
        inserted.insert_fact(g, pair(5));
        deleted.insert_fact(g, pair(3));
        for a in [1, 3, 5] {
            live.insert_fact(k, Tuple::from([Value::Int(a)]));
        }
        let sources = Sources {
            before: Some((&inserted, &deleted)),
            ..Sources::simple(&live)
        };
        let mut cache = IndexCache::new();
        let heads = |ri: usize, cache: &mut IndexCache| {
            let rule = &program.rules[ri];
            let HeadLiteral::Pos(head) = &rule.head[0] else {
                unreachable!()
            };
            let mut out: Vec<Tuple> = Vec::new();
            let plan = crate::planner::plan_rule(rule);
            let _ = for_each_match(&plan, sources, &[], cache, &mut |env| {
                out.push(instantiate(&head.args, env));
                ControlFlow::Continue(())
            });
            out.sort_unstable();
            out
        };
        assert_eq!(heads(0, &mut cache), vec![pair(1), pair(3)]);
        // The keyless scan read the view in place: one probe of its two
        // rows, and no index over either side.
        assert_eq!(cache.counters.index_builds, 0);
        assert_eq!(cache.entry_count(), 0);
        assert_eq!((cache.counters.probes, cache.counters.probe_tuples), (1, 2));
        let one = |a: i64| Tuple::from([Value::Int(a)]);
        assert_eq!(heads(1, &mut cache), vec![one(1), one(3)]);
        assert_eq!(heads(2, &mut cache), vec![one(5)]);
    }

    /// A `seek` join reads the same rows in the same order whether the
    /// probed relation is one sorted segment (answered from storage, no
    /// index) or the same rows in two (answered through an index), dead
    /// rows included; a driver with an uncommitted tail keeps the index.
    #[test]
    fn seek_and_index_probes_match_alike_in_order() {
        use crate::planner::{Catalog, PlanMode, Planner};
        let mut i = Interner::new();
        let program = unchained_parser::parse_program("H(x,y) :- D(x), G(x,y).", &mut i).unwrap();
        let (d, g) = (i.get("D").unwrap(), i.get("G").unwrap());
        let pair = |a: i64, b: i64| Tuple::from([Value::Int(a), Value::Int(b)]);
        let mut rows: Vec<Tuple> = (0..60).map(|k| pair(k % 13, k * 7 % 19)).collect();
        rows.sort_unstable();
        rows.dedup();
        // G's rows at the same storage positions, in one segment or two.
        let layout = |cut: usize, tail: bool| {
            let mut instance = Instance::new();
            for (k, part) in [&rows[..cut], &rows[cut..]].into_iter().enumerate() {
                for row in part {
                    instance.insert_fact(g, row.clone());
                }
                instance.insert_fact(d, Tuple::from([Value::Int(2 * k as i64 + 3)]));
                instance.commit_all();
            }
            instance.relation_mut(g).unwrap().retract(&rows[7]);
            for x in [0, 5, 5 + i64::from(tail)] {
                instance.insert_fact(d, Tuple::from([Value::Int(x)]));
            }
            if !tail {
                instance.commit_all();
            }
            instance
        };
        let run = |instance: &Instance| {
            let mut planner = Planner::new(Catalog::from_instance(instance), PlanMode::Cost);
            let plan = planner.plan_rule(&program.rules[0]);
            assert!(matches!(plan.steps[1], Step::Scan { seek: true, .. }));
            let mut cache = IndexCache::new();
            let mut matches = Vec::new();
            let _ = for_each_match(
                &plan,
                Sources::simple(instance),
                &[],
                &mut cache,
                &mut |env| {
                    matches.push((env[0], env[1]));
                    ControlFlow::Continue(())
                },
            );
            (matches, cache.counters)
        };
        let (seek, a) = run(&layout(0, false));
        let (index, b) = run(&layout(rows.len() / 2, false));
        assert_eq!(seek, index);
        assert!(seek.len() > 4, "{seek:?}");
        assert_eq!((a.probes, a.probe_tuples), (b.probes, b.probe_tuples));
        assert_eq!((a.index_builds, b.index_builds), (0, 1));
        let (_, c) = run(&layout(0, true));
        assert_eq!(
            c.index_builds, 1,
            "a driver with a tail yields unsorted keys"
        );
    }

    #[test]
    fn delta_index_covers_only_the_slice_since_the_mark() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let mut rel = Relation::new(1);
        rel.insert(Tuple::from([Value::Int(1)]));
        rel.commit();
        let mark = rel.generation();
        rel.insert(Tuple::from([Value::Int(2)]));
        rel.commit();
        let mut cache = IndexCache::new();
        let idx = index(&mut cache, g, &rel, ScanSource::Delta, Some(mark));
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 0);
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(cache.counters.index_builds, 1);
        assert_eq!(cache.counters.indexed_tuples, 1);
    }
}
