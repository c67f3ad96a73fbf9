//! Morsel-driven parallel round execution for the semi-naive hot path.
//!
//! One fixpoint round — "fire these plans against this frozen instance
//! and collect the derived tuples" — is embarrassingly parallel once the
//! storage is `Sync`: the instance is only read, and each derived tuple
//! goes to a private per-worker buffer. Workers are `std::thread::scope`
//! threads (no runtime, no channels, zero dependencies), one per
//! requested thread, each owning a long-lived [`IndexCache`] so
//! full-relation indexes absorb committed segments incrementally across
//! rounds exactly as in the sequential path.
//!
//! Work is split into **morsels**: fixed-size contiguous row ranges of
//! each plan's driver scan (its first step — the stored enumeration of a
//! full scan, or the exact delta enumeration of a semi-naive delta
//! variant). The morsel list is built deterministically, task-major,
//! before any worker starts; workers then *pull* morsels from a shared
//! atomic cursor until the queue is drained, so a worker stuck on a
//! skewed morsel no longer idles the rest of the round (the failure mode
//! of static striping). Plans whose first step is not a scan get a
//! single whole-plan morsel.
//!
//! Determinism does not depend on the schedule: the morsel *partition*
//! is fixed up front, every match of a plan consumes exactly one driver
//! row, and the morsels partition each driver enumeration exactly — so
//! the union of per-morsel match sets and the per-rule fired sums equal
//! the sequential round's, no matter which worker ran which morsel.
//! Per-worker buffers are merged in worker order into a set, so the
//! resulting round delta — and therefore every subsequent round, the
//! final instance, and its display — is byte-identical to the
//! sequential evaluation for any thread count and any morsel size.

use crate::exec::{driver_len, for_each_head_morsel, IndexCache, Morsel, Sources};
use crate::ir::Plan;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use unchained_common::{DeltaHandle, Instance, Value};
use unchained_parser::Atom;

/// One unit of round work: a compiled plan and the head it derives into.
pub(crate) struct PlanTask<'p> {
    /// Index of the source rule (several delta-variant tasks can share
    /// one rule); attributes fired counts to rule spans.
    pub rule: usize,
    /// Head atom instantiated on each match.
    pub head: Atom,
    /// The compiled body (full plan in round 1, a delta variant after).
    pub plan: &'p Plan,
}

/// Per-round attribution data returned by [`run_round`] alongside the
/// merged pending instance.
pub(crate) struct RoundStats {
    /// Total rule-body matches fired across all tasks and workers.
    pub fired_total: u64,
    /// Matches fired per source rule (summed over that rule's tasks and
    /// all workers). Deterministic for every worker count and schedule:
    /// the morsel partition of each driver enumeration is fixed before
    /// the workers start, and fired counts sum over the partition.
    pub fired_per_rule: Vec<u64>,
    /// Per-worker `(start_offset_nanos, dur_nanos)` relative to round
    /// entry — the worker-lane timeline. One entry per worker (also for
    /// workers that pulled no morsels). Empty when `timed` was false.
    pub workers: Vec<(u64, u64)>,
}

/// The deterministic work list for one round: each entry names a task
/// and a morsel of its driver scan.
fn build_morsels(
    tasks: &[PlanTask<'_>],
    sources: Sources<'_>,
    morsel_size: usize,
) -> Vec<(usize, Morsel)> {
    let step = morsel_size.max(1);
    let mut morsels = Vec::new();
    for (t, task) in tasks.iter().enumerate() {
        match driver_len(task.plan, sources) {
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

/// Runs one round's `tasks` across `worker_caches.len()` scoped threads
/// and merges the per-worker derived-tuple buffers in worker order.
/// The round's work is cut into driver-row morsels of at most
/// `morsel_size` rows (see the module docs) which workers pull from a
/// shared queue. `rules` bounds the rule indexes in `tasks`; `timed`
/// additionally records per-worker wall offsets (for worker-lane
/// spans). Returns the merged pending instance (deduplicated against
/// `instance` by the workers) and the round's attribution stats.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_round(
    tasks: &[PlanTask<'_>],
    instance: &Instance,
    delta: Option<&DeltaHandle>,
    adom: &[Value],
    worker_caches: &mut [IndexCache],
    morsel_size: usize,
    rules: usize,
    timed: bool,
) -> (Instance, RoundStats) {
    let round_start = Instant::now();
    let sources = Sources {
        delta,
        ..Sources::simple(instance)
    };
    let morsels = build_morsels(tasks, sources, morsel_size);
    let cursor = AtomicUsize::new(0);
    type WorkerResult = (Instance, Vec<u64>, (u64, u64));
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_caches
            .iter_mut()
            .map(|cache| {
                let cursor = &cursor;
                let morsels = &morsels;
                scope.spawn(move || {
                    let started = if timed {
                        u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    } else {
                        0
                    };
                    let mut fired_per_rule = vec![0u64; rules];
                    let mut pending = Instance::new();
                    loop {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(t, morsel)) = morsels.get(m) else {
                            break;
                        };
                        let task = &tasks[t];
                        let fired = for_each_head_morsel(
                            task.plan,
                            &task.head.args,
                            sources,
                            adom,
                            cache,
                            morsel,
                            &mut |tuple| {
                                if !instance.contains_fact(task.head.pred, &tuple)
                                    && !pending.contains_fact(task.head.pred, &tuple)
                                {
                                    pending.insert_fact(task.head.pred, tuple);
                                }
                            },
                        );
                        fired_per_rule[task.rule] += fired;
                    }
                    let timing = if timed {
                        let ended =
                            u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        (started, ended.saturating_sub(started))
                    } else {
                        (0, 0)
                    };
                    (pending, fired_per_rule, timing)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel round worker panicked"))
            .collect()
    });

    let mut stats = RoundStats {
        fired_total: 0,
        fired_per_rule: vec![0u64; rules],
        workers: Vec::new(),
    };
    let mut merged = Instance::new();
    // Reuse the first worker's buffer as the merge target: with one
    // worker this is exactly the sequential pending set, and with more
    // the remaining (typically small) buffers fold into it in order.
    for (w, (pending, fired_per_rule, timing)) in results.into_iter().enumerate() {
        for (rule, f) in fired_per_rule.into_iter().enumerate() {
            stats.fired_per_rule[rule] += f;
            stats.fired_total += f;
        }
        if timed {
            stats.workers.push(timing);
        }
        if w == 0 {
            merged = pending;
        } else {
            for (pred, rel) in pending.iter() {
                for t in rel.iter() {
                    merged.insert_fact(pred, t.clone());
                }
            }
        }
    }
    (merged, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_rule, Catalog, PlanMode, Planner};
    use crate::subst::active_domain;
    use unchained_common::{FxHashSet, Interner, Symbol, Tuple};
    use unchained_parser::{parse_program, HeadLiteral};

    fn tc_setup(n: i64) -> (Interner, unchained_parser::Program, Instance) {
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

    fn head(rule: &unchained_parser::Rule) -> Atom {
        match &rule.head[0] {
            HeadLiteral::Pos(a) => a.clone(),
            _ => unreachable!(),
        }
    }

    fn full_tasks<'p>(p: &unchained_parser::Program, plans: &'p [Plan]) -> Vec<PlanTask<'p>> {
        p.rules
            .iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (r, plan))| PlanTask {
                rule: i,
                head: head(r),
                plan,
            })
            .collect()
    }

    /// Full round 1: the merged buffer and attribution equal a
    /// single-worker run, across worker counts and morsel sizes —
    /// including morsel size 1 (one row per morsel) and more workers
    /// than morsels.
    #[test]
    fn morsel_full_round_matches_single_worker() {
        let (_, p, inst) = tc_setup(6);
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let rules = p.rules.len();
        let mut one = vec![IndexCache::new()];
        let (seq, seq_stats) = run_round(&tasks, &inst, None, &adom, &mut one, 1024, rules, false);
        for (workers, morsel_size) in [(4, 1024), (4, 1), (3, 2), (16, 4)] {
            let mut caches: Vec<IndexCache> = (0..workers).map(|_| IndexCache::new()).collect();
            let (par, par_stats) = run_round(
                &tasks,
                &inst,
                None,
                &adom,
                &mut caches,
                morsel_size,
                rules,
                true,
            );
            assert!(seq.same_facts(&par), "workers={workers} size={morsel_size}");
            assert_eq!(seq_stats.fired_total, par_stats.fired_total);
            // Per-rule attribution is schedule-invariant; worker
            // timings appear only on the timed run, one per worker
            // even when a worker pulled no morsels.
            assert_eq!(seq_stats.fired_per_rule, par_stats.fired_per_rule);
            assert_eq!(par_stats.workers.len(), workers);
        }
        assert!(seq_stats.workers.is_empty());
    }

    /// Delta mode: the morsels partition each delta enumeration exactly,
    /// so the merged result and fired counts equal sequential.
    #[test]
    fn morsel_delta_round_matches_single_worker() {
        let (mut i, p, mut inst) = tc_setup(8);
        let t = i.intern("T");
        let recursive: FxHashSet<Symbol> = [t].into_iter().collect();
        // Seed T with round 1's output and capture the delta mark by hand.
        let mark = DeltaHandle::capture(&inst);
        let g = i.get("G").unwrap();
        let edges: Vec<Tuple> = inst.relation(g).unwrap().iter().cloned().collect();
        for e in edges {
            inst.insert_fact(t, e);
        }
        inst.commit_all();
        let mut planner = Planner::new(Catalog::empty(), PlanMode::Cost);
        let plans: Vec<Vec<Plan>> = p
            .rules
            .iter()
            .map(|r| planner.seminaive_variants(r, &|s| recursive.contains(&s)))
            .collect();
        let tasks: Vec<PlanTask> = p
            .rules
            .iter()
            .zip(&plans)
            .enumerate()
            .flat_map(|(i, (r, variants))| {
                variants.iter().map(move |plan| PlanTask {
                    rule: i,
                    head: head(r),
                    plan,
                })
            })
            .collect();
        assert!(!tasks.is_empty());
        let rules = p.rules.len();
        let mut one = vec![IndexCache::new()];
        let (seq, seq_stats) = run_round(
            &tasks,
            &inst,
            Some(&mark),
            &adom_of(&inst),
            &mut one,
            1024,
            rules,
            false,
        );
        for (workers, morsel_size) in [(2, 3), (3, 1), (4, 2), (4, 1024)] {
            let mut caches: Vec<IndexCache> = (0..workers).map(|_| IndexCache::new()).collect();
            let (par, par_stats) = run_round(
                &tasks,
                &inst,
                Some(&mark),
                &adom_of(&inst),
                &mut caches,
                morsel_size,
                rules,
                false,
            );
            assert!(seq.same_facts(&par), "workers={workers} size={morsel_size}");
            assert_eq!(
                seq_stats.fired_total, par_stats.fired_total,
                "workers={workers} size={morsel_size}"
            );
            assert_eq!(
                seq_stats.fired_per_rule, par_stats.fired_per_rule,
                "workers={workers} size={morsel_size}"
            );
        }
    }

    /// Rounds with no work at all — no tasks, or only empty drivers —
    /// produce an empty merged buffer and zeroed attribution, and every
    /// worker still reports a timing lane.
    #[test]
    fn empty_rounds_drain_cleanly() {
        let (_, p, inst) = tc_setup(0); // G exists in the program, no facts
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let rules = p.rules.len();
        let mut caches: Vec<IndexCache> = (0..4).map(|_| IndexCache::new()).collect();
        let (merged, stats) = run_round(&tasks, &inst, None, &adom, &mut caches, 8, rules, true);
        assert_eq!(merged.fact_count(), 0);
        assert_eq!(stats.fired_total, 0);
        assert_eq!(stats.workers.len(), 4);

        // Entirely taskless round.
        let (merged, stats) = run_round(&[], &inst, None, &adom, &mut caches, 8, 0, true);
        assert_eq!(merged.fact_count(), 0);
        assert_eq!(stats.fired_total, 0);
        assert_eq!(stats.workers.len(), 4);
    }

    /// The morsel list is deterministic and covers each driver exactly.
    #[test]
    fn morsel_list_partitions_drivers_exactly() {
        let (_, p, inst) = tc_setup(7); // G has 7 rows; T absent (empty driver)
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let sources = Sources::simple(&inst);
        let morsels = build_morsels(&tasks, sources, 3);
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
            build_morsels(&tasks, sources, 0).len(),
            build_morsels(&tasks, sources, 1).len()
        );
    }

    fn adom_of(inst: &Instance) -> Vec<Value> {
        inst.adom_sorted()
    }
}
