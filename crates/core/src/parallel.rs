//! Morsel-driven parallel firing of one stage of the stage driver
//! ([`crate::fixpoint::Stages`]).
//!
//! Firing a stage — "run these plans against this frozen instance and
//! hand every match to the policy" — is embarrassingly parallel once the
//! storage is `Sync`: the instance is only read while the plans run.
//! Workers are `std::thread::scope` threads (no runtime, no channels,
//! zero dependencies), one per requested thread, each owning a
//! long-lived [`IndexCache`] for its keyed probes that the driver keeps
//! across stages, so full-relation indexes absorb committed segments
//! incrementally exactly as in the sequential path.
//!
//! Work is split into **morsels**: fixed-size contiguous ranges of the
//! storage positions each plan's driver scan (its first step) spans —
//! all of storage for a full scan, the rows since the mark for a Δ
//! variant — dead rows included, which the morsel skips. The morsel
//! list is built deterministically, task-major, before any worker
//! starts; workers then *pull* morsels from a shared atomic cursor until
//! the queue is drained, so a worker stuck on a skewed morsel does not
//! idle the rest of the stage. Plans whose first step is not a scan get
//! a single whole-plan morsel.
//!
//! Determinism does not depend on the schedule: each worker buffers the
//! valuations its morsels match, and the driver replays the buffers into
//! the policy in morsel order once every worker is done. A morsel reads
//! its driver rows in place, in storage order, through the loop the
//! sequential scan uses, so the policy sees the matches of the
//! sequential stage in the sequential order — which is what lets the
//! order-sensitive policies (fresh-value numbering, first derivations)
//! answer identically at any thread count and any morsel size.

use crate::exec::{driver_len, for_each_match_morsel, IndexCache, Morsel, Sources};
use crate::fixpoint::RuleStat;
use crate::ir::Plan;
use crate::subst::Env;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use unchained_common::Value;

/// One plan a stage fires: the rule it belongs to, and what it reads.
pub(crate) struct Task<'a> {
    pub(crate) rule: usize,
    pub(crate) plan: &'a Plan,
    pub(crate) sources: Sources<'a>,
}

/// The valuations one morsel matched: `count` of them, flattened into
/// `envs` at the plan's variable count each.
struct Matches {
    count: u64,
    envs: Vec<Option<Value>>,
    nanos: u64,
}

/// The deterministic work list for one stage: each entry names a task
/// and a morsel of its driver scan.
fn build_morsels(tasks: &[Task<'_>], morsel_size: usize) -> Vec<(usize, Morsel)> {
    let step = morsel_size.max(1);
    let mut morsels = Vec::new();
    for (t, task) in tasks.iter().enumerate() {
        match driver_len(task.plan, task.sources) {
            // No driver scan to partition: one whole-plan morsel.
            None => morsels.push((t, Morsel::Whole)),
            // Empty driver: the plan cannot match, skip it entirely.
            Some(0) => {}
            Some(n) => {
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + step).min(n);
                    morsels.push((t, Morsel::Rows { lo, hi }));
                    lo = hi;
                }
            }
        }
    }
    morsels
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Fires `tasks` across one scoped thread per cache in `workers`, in
/// morsels of at most `morsel_size` driver rows, then replays every
/// match into `on_match(rule, env)` in morsel order and counts it in
/// `stats[rule]`. Timed from `start` (the stage's start on the tracer's
/// clock), each rule's `dur_nanos` adds up the worker time of its
/// morsels, and the `(start, duration)` of each worker is returned.
pub(crate) fn fire(
    tasks: &[Task<'_>],
    adom: &[Value],
    workers: &mut [IndexCache],
    morsel_size: usize,
    start: Option<u64>,
    stats: &mut [RuleStat],
    on_match: &mut dyn FnMut(usize, &Env),
) -> Vec<(u64, u64)> {
    let timed = start.is_some();
    let stage_start = Instant::now();
    let morsels = build_morsels(tasks, morsel_size);
    let cursor = AtomicUsize::new(0);
    type WorkerResult = (Vec<(usize, Matches)>, (u64, u64));
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|cache| {
                let (cursor, morsels) = (&cursor, &morsels);
                scope.spawn(move || {
                    let started = if timed { nanos_since(stage_start) } else { 0 };
                    let mut done = Vec::new();
                    loop {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(t, morsel)) = morsels.get(m) else {
                            break;
                        };
                        let task = &tasks[t];
                        let clock = timed.then(Instant::now);
                        let mut matches = Matches {
                            count: 0,
                            envs: Vec::new(),
                            nanos: 0,
                        };
                        for_each_match_morsel(
                            task.plan,
                            task.sources,
                            adom,
                            cache,
                            morsel,
                            &mut |env| {
                                matches.count += 1;
                                matches.envs.extend_from_slice(env);
                            },
                        );
                        matches.nanos = clock.map_or(0, nanos_since);
                        done.push((m, matches));
                    }
                    let lane = if timed {
                        (started, nanos_since(stage_start).saturating_sub(started))
                    } else {
                        (0, 0)
                    };
                    (done, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel stage worker panicked"))
            .collect()
    });

    let mut lanes = Vec::new();
    let mut slots: Vec<Option<Matches>> = morsels.iter().map(|_| None).collect();
    for (done, (started, dur)) in results {
        if let Some(start) = start {
            lanes.push((start + started, dur));
        }
        for (m, matches) in done {
            slots[m] = Some(matches);
        }
    }
    let mut env = Env::new();
    for (&(t, _), matches) in morsels.iter().zip(slots) {
        let matches = matches.expect("every morsel was pulled");
        let task = &tasks[t];
        stats[task.rule].fired += matches.count;
        stats[task.rule].dur_nanos += matches.nanos;
        let width = task.plan.var_count;
        for k in 0..matches.count as usize {
            env.clear();
            env.extend_from_slice(&matches.envs[k * width..(k + 1) * width]);
            on_match(task.rule, &env);
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::for_each_match;
    use crate::planner::plan_rule;
    use crate::subst::active_domain;
    use std::ops::ControlFlow;
    use unchained_common::{DeltaHandle, Instance, Interner, Symbol, Tuple};
    use unchained_parser::{parse_program, Program};

    fn tc_setup(n: i64) -> (Interner, Program, Instance) {
        let mut i = Interner::new();
        let p = parse_program("T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut inst = Instance::new();
        for k in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst.commit_all();
        (i, p, inst)
    }

    /// Leaves `pred`'s storage untidy: an uncommitted tail of new
    /// `(k, k + 2)` rows with a tombstone among them, and the committed
    /// row `(0, 1)` retracted and revived, so its old row stays dead and
    /// a fresh copy ends the tail.
    fn scuff(inst: &mut Instance, pred: Symbol) {
        for k in 0..5 {
            inst.insert_fact(pred, Tuple::from([Value::Int(k), Value::Int(k + 2)]));
        }
        assert!(inst.retract_fact(pred, &[Value::Int(1), Value::Int(3)]));
        let revived = [Value::Int(0), Value::Int(1)];
        assert!(inst.retract_fact(pred, &revived));
        assert!(inst.insert_fact(pred, Tuple::from(revived)));
        let relation = inst.relation(pred).unwrap();
        assert!(relation.recent_len() > 0 && relation.tombstone_count() == 2);
    }

    fn tasks<'a>(plans: &'a [Plan], sources: Sources<'a>) -> Vec<Task<'a>> {
        plans
            .iter()
            .enumerate()
            .map(|(rule, plan)| Task {
                rule,
                plan,
                sources,
            })
            .collect()
    }

    /// The matches of `tasks` in the order the sequential path yields
    /// them, as `(rule, env)` pairs.
    fn sequential(tasks: &[Task<'_>], adom: &[Value]) -> Vec<(usize, Env)> {
        let mut cache = IndexCache::new();
        let mut out = Vec::new();
        for task in tasks {
            let _ = for_each_match(task.plan, task.sources, adom, &mut cache, &mut |env| {
                out.push((task.rule, env.clone()));
                ControlFlow::Continue(())
            });
        }
        out
    }

    /// Across worker counts and morsel sizes — including one row per
    /// morsel and more workers than morsels — the replay hands the
    /// policy the sequential matches in the sequential order, and the
    /// per-rule counts and worker lanes add up; on committed storage and
    /// on an untidy one ([`scuff`]).
    #[test]
    fn morsel_full_round_matches_single_worker() {
        for untidy in [false, true] {
            full_round_matches_single_worker(untidy);
        }
    }

    fn full_round_matches_single_worker(untidy: bool) {
        let (mut i, p, mut inst) = tc_setup(8);
        // Seed T with a first stage's output so the recursive rule
        // joins something, committed as one segment.
        let (g, t) = (i.get("G").unwrap(), i.intern("T"));
        let edges: Vec<Tuple> = inst.relation(g).unwrap().iter().map(Tuple::from).collect();
        for e in edges {
            inst.insert_fact(t, e);
        }
        inst.commit_all();
        if untidy {
            scuff(&mut inst, g);
            scuff(&mut inst, t);
        }
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = tasks(&plans, Sources::simple(&inst));
        let expect = sequential(&tasks, &adom);
        assert!(!expect.is_empty());
        for (workers, morsel_size) in [(1, 1024), (4, 1024), (4, 1), (3, 2), (16, 4)] {
            let mut caches: Vec<IndexCache> = (0..workers).map(|_| IndexCache::new()).collect();
            let mut got = Vec::new();
            let mut stats = vec![RuleStat::default(); plans.len()];
            let lanes = fire(
                &tasks,
                &adom,
                &mut caches,
                morsel_size,
                Some(0),
                &mut stats,
                &mut |rule, env| got.push((rule, env.clone())),
            );
            let ctx = format!("untidy={untidy} workers={workers} size={morsel_size}");
            assert_eq!(got, expect, "{ctx}");
            for (rule, stat) in stats.iter().enumerate() {
                let want = expect.iter().filter(|(r, _)| *r == rule).count() as u64;
                assert_eq!(stat.fired, want, "{ctx}");
            }
            assert_eq!(lanes.len(), workers);
        }
    }

    /// Δ scans: the morsels partition the delta enumeration exactly and
    /// replay it in order, on committed storage and on an untidy one
    /// ([`scuff`]).
    #[test]
    fn morsel_delta_round_matches_single_worker() {
        for untidy in [false, true] {
            delta_round_matches_single_worker(untidy);
        }
    }

    fn delta_round_matches_single_worker(untidy: bool) {
        let (mut i, p, mut inst) = tc_setup(8);
        let t = i.intern("T");
        let mark = DeltaHandle::capture(&inst);
        let g = i.get("G").unwrap();
        let edges: Vec<Tuple> = inst.relation(g).unwrap().iter().map(Tuple::from).collect();
        for e in edges {
            inst.insert_fact(t, e);
        }
        inst.commit_all();
        if untidy {
            scuff(&mut inst, t);
        }
        let mut planner = crate::planner::Planner::new(
            crate::planner::Catalog::empty(),
            crate::planner::PlanMode::Cost,
        );
        let plans: Vec<Plan> = p
            .rules
            .iter()
            .flat_map(|r| planner.seminaive_variants(r, &|s| s == t))
            .collect();
        assert!(!plans.is_empty());
        let sources = Sources {
            delta: Some(&mark),
            ..Sources::simple(&inst)
        };
        let tasks = tasks(&plans, sources);
        let adom = inst.adom_sorted();
        let expect = sequential(&tasks, &adom);
        for (workers, morsel_size) in [(2, 3), (3, 1), (4, 2), (4, 1024)] {
            let mut caches: Vec<IndexCache> = (0..workers).map(|_| IndexCache::new()).collect();
            let mut got = Vec::new();
            let mut stats = vec![RuleStat::default(); plans.len()];
            let lanes = fire(
                &tasks,
                &adom,
                &mut caches,
                morsel_size,
                None,
                &mut stats,
                &mut |rule, env| got.push((rule, env.clone())),
            );
            assert!(lanes.is_empty(), "untimed stages record no lanes");
            assert_eq!(
                got, expect,
                "untidy={untidy} workers={workers} size={morsel_size}"
            );
        }
    }

    /// Stages with no work at all — no tasks, or only empty drivers —
    /// replay nothing, and every worker still reports a timing lane.
    #[test]
    fn empty_rounds_drain_cleanly() {
        let (_, p, inst) = tc_setup(0); // G exists in the program, no facts
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let mut caches: Vec<IndexCache> = (0..4).map(|_| IndexCache::new()).collect();
        for tasks in [tasks(&plans, Sources::simple(&inst)), Vec::new()] {
            let mut calls = 0;
            let mut stats = vec![RuleStat::default(); 2];
            let lanes = fire(
                &tasks,
                &adom,
                &mut caches,
                8,
                Some(0),
                &mut stats,
                &mut |_, _| calls += 1,
            );
            assert_eq!(calls, 0);
            assert!(stats.iter().all(|s| s.fired == 0));
            assert_eq!(lanes.len(), 4);
        }
    }

    /// The morsel list is deterministic and covers each driver exactly.
    #[test]
    fn morsel_list_partitions_drivers_exactly() {
        let (_, p, inst) = tc_setup(7); // G has 7 rows; T absent (empty driver)
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let sources = Sources::simple(&inst);
        let tasks = tasks(&plans, sources);
        let morsels = build_morsels(&tasks, 3);
        // Each task's driver is G (7 rows) or T (absent): the G-driven
        // task splits 7 rows into ceil(7/3) = 3 ranges; absent drivers
        // contribute nothing.
        for (t, _) in &morsels {
            let mut covered = Vec::new();
            for (t2, m) in &morsels {
                if t2 == t {
                    match m {
                        Morsel::Rows { lo, hi } => covered.push((*lo, *hi)),
                        Morsel::Whole => unreachable!("scan-led plans get row morsels"),
                    }
                }
            }
            let n = driver_len(tasks[*t].plan, sources).unwrap();
            let mut expect = 0;
            for (lo, hi) in covered {
                assert_eq!(lo, expect, "gap in morsel coverage");
                assert!(hi > lo && hi - lo <= 3);
                expect = hi;
            }
            assert_eq!(expect, n, "driver not fully covered");
        }
        // Morsel size is clamped to at least one row.
        assert_eq!(
            build_morsels(&tasks, 0).len(),
            build_morsels(&tasks, 1).len()
        );
    }
}
