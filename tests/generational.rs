//! Differential property tests for the generational storage layer: the
//! semi-naive engines now read per-round deltas straight out of relation
//! generations (segment marks) instead of a separate delta instance, so
//! these tests pin the equivalence naive == semi-naive == stratified on
//! seeded random inputs *and* check the storage-level invariants the
//! rewrite is supposed to guarantee (no index rebuilds on growth-only
//! workloads, per-round segment promotion).

use unchained::common::telemetry::{EvalTrace, Telemetry};
use unchained::common::{Instance, Interner, Relation, Rng, Symbol, Tuple, Value};
use unchained::core::{
    inflationary, naive, noninflationary, seminaive, stratified, wellfounded, EvalOptions,
};
use unchained::fuzz::grammar::generate;
use unchained::fuzz::{Campaign, GrammarConfig};
use unchained::parser::{parse_program, HeadLiteral, Program};

fn random_graph(interner: &mut Interner, nodes: i64, edges: usize, seed: u64) -> Instance {
    let g = interner.intern("G");
    let mut rng = Rng::seeded(seed);
    let mut inst = Instance::new();
    for _ in 0..edges {
        let a = rng.gen_range_i64(0, nodes);
        let b = rng.gen_range_i64(0, nodes);
        inst.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(b)]));
    }
    inst
}

/// A stratified Datalog¬ program and its input, from the fuzzer's
/// grammar (its negation campaign, default sizes).
fn negation_program(interner: &mut Interner, seed: u64) -> (Program, Instance) {
    generate(interner, Campaign::Negation, GrammarConfig::default(), seed)
}

fn tc_program(interner: &mut Interner) -> Program {
    parse_program(
        "T(x,y) :- G(x,y).\n\
         T(x,y) :- G(x,z), T(z,y).",
        interner,
    )
    .unwrap()
}

/// Naive evaluation (no deltas at all) and semi-naive evaluation (the
/// generational delta path) must produce byte-identical output on random
/// transitive-closure inputs, across graph shapes from sparse to dense.
#[test]
fn naive_and_generational_seminaive_identical_on_random_tc() {
    for seed in 0..25u64 {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let edges = 4 + (seed as usize % 3) * 10;
        let input = random_graph(&mut i, 10, edges, seed);
        let a = naive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let b = seminaive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let c = stratified::eval(&p, &input, EvalOptions::default()).unwrap();
        assert_eq!(
            a.instance.display(&i).to_string(),
            b.instance.display(&i).to_string(),
            "naive vs seminaive, seed {seed}"
        );
        assert_eq!(
            b.instance.display(&i).to_string(),
            c.instance.display(&i).to_string(),
            "seminaive vs stratified, seed {seed}"
        );
    }
}

/// Stratified evaluation routes every stratum through the same
/// generational fixpoint; on random stratifiable Datalog¬ programs it
/// must agree with itself run twice (determinism) and, on the negation
/// fragment, with the naive-per-stratum semantics captured by the
/// existing harness oracles. Here we pin determinism plus agreement of
/// the delta path with the full-evaluation first round.
#[test]
fn stratified_generational_path_deterministic_on_random_negation_programs() {
    for seed in 0..25u64 {
        let mut i = Interner::new();
        let (program, input) = negation_program(&mut i, seed);
        let a = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        let b = stratified::eval(&program, &input, EvalOptions::default()).unwrap();
        assert_eq!(
            a.instance.display(&i).to_string(),
            b.instance.display(&i).to_string(),
            "seed {seed}"
        );
    }
}

/// On a growth-only workload (pure Datalog TC), full-relation indexes
/// must never be rebuilt: every round's new tuples are absorbed by
/// appending the freshly committed segment. A long chain maximizes the
/// number of rounds, so this is exactly the "index work proportional to
/// the delta" claim of the storage rewrite.
#[test]
fn long_chain_tc_absorbs_instead_of_rebuilding() {
    let mut i = Interner::new();
    let p = tc_program(&mut i);
    let g = i.get("G").unwrap();
    let mut input = Instance::new();
    for k in 0..48i64 {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    let tel = Telemetry::enabled();
    let run = seminaive::minimum_model(
        &p,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    // 48-node chain: T has n*(n+1)/2 = 1176 pairs over 48 rounds.
    assert_eq!(
        run.instance.relation(i.get("T").unwrap()).unwrap().len(),
        1176
    );
    let trace = tel.snapshot().unwrap();
    assert!(trace.stages.len() >= 40, "chain TC needs many rounds");
    assert_eq!(
        trace.joins.index_rebuilds, 0,
        "growth-only workload must never rebuild a full index"
    );
    // Right-linear TC joins the delta against the *static* G, so the one
    // full index is a pure cache hit every round — never rebuilt.
    assert!(
        trace.joins.index_hits as usize >= trace.stages.len() - 2,
        "G's full index should be reused every round ({} hits, {} rounds)",
        trace.joins.index_hits,
        trace.stages.len()
    );
}

/// Nonlinear TC joins the delta against the *growing* full T relation:
/// its full index must absorb each round's committed segment by
/// appending, never by rebuilding, and the appended tuple count is
/// bounded by the facts actually derived (index work proportional to
/// the deltas, not rounds × relation size).
#[test]
fn nonlinear_tc_appends_committed_segments() {
    let mut i = Interner::new();
    let p = parse_program(
        "T(x,y) :- G(x,y).\n\
         T(x,y) :- T(x,z), T(z,y).",
        &mut i,
    )
    .unwrap();
    let g = i.get("G").unwrap();
    let mut input = Instance::new();
    for k in 0..32i64 {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    let tel = Telemetry::enabled();
    let run = seminaive::minimum_model(
        &p,
        &input,
        EvalOptions::default().with_telemetry(tel.clone()),
    )
    .unwrap();
    assert_eq!(
        run.instance.relation(i.get("T").unwrap()).unwrap().len(),
        528
    );
    let trace = tel.snapshot().unwrap();
    assert_eq!(trace.joins.index_rebuilds, 0);
    assert!(
        trace.joins.index_appends > 0,
        "full T index should absorb committed segments incrementally"
    );
    let derived = trace.total_facts_added() as u64 + input.fact_count() as u64;
    // Two delta variants each keep a full-T index on a different key, so
    // each derived tuple is appended at most once per index — per worker
    // cache, when the run is parallel (each worker owns index replicas).
    let threads = EvalOptions::default().threads.get() as u64;
    assert!(
        trace.joins.appended_tuples <= 2 * threads * derived,
        "appended {} tuples for {} derived facts",
        trace.joins.appended_tuples,
        trace.total_facts_added()
    );
}

/// Each committed round becomes one frozen segment per touched relation,
/// and the fixpoint leaves nothing uncommitted in the recent tail.
#[test]
fn fixpoint_leaves_round_aligned_segments() {
    let mut i = Interner::new();
    let p = tc_program(&mut i);
    let g = i.get("G").unwrap();
    let mut input = Instance::new();
    for k in 0..12i64 {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    let run = seminaive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
    let t_rel = run.instance.relation(i.get("T").unwrap()).unwrap();
    assert_eq!(t_rel.recent_len(), 0, "fixpoint commits every round");
    // T gains one segment per productive round (12 rounds for a 12-edge
    // chain), G exactly one (its input segment).
    assert_eq!(t_rel.segment_count(), 12);
    assert_eq!(run.instance.relation(g).unwrap().segment_count(), 1);
}

/// The parallel executor must be invisible in the output: threads=1 and
/// threads=4 produce byte-identical instances and identical derived-fact
/// gauges (stage count, facts added, matches fired) on seeded random TC
/// inputs. Index counters are allowed to differ (each worker owns index
/// replicas); the *semantic* work is not.
#[test]
fn parallel_seminaive_byte_identical_on_random_tc() {
    for seed in 0..15u64 {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let edges = 4 + (seed as usize % 3) * 10;
        let input = random_graph(&mut i, 10, edges, seed);
        let tel_seq = Telemetry::enabled();
        let seq = seminaive::minimum_model(
            &p,
            &input,
            EvalOptions::default()
                .with_threads(1)
                .with_telemetry(tel_seq.clone()),
        )
        .unwrap();
        let tel_par = Telemetry::enabled();
        let par = seminaive::minimum_model(
            &p,
            &input,
            EvalOptions::default()
                .with_threads(4)
                .with_telemetry(tel_par.clone()),
        )
        .unwrap();
        assert_eq!(
            seq.instance.display(&i).to_string(),
            par.instance.display(&i).to_string(),
            "threads=1 vs threads=4, seed {seed}"
        );
        let (a, b) = (tel_par.snapshot().unwrap(), tel_seq.snapshot().unwrap());
        assert_eq!(a.stages.len(), b.stages.len(), "stage count, seed {seed}");
        assert_eq!(
            a.total_facts_added(),
            b.total_facts_added(),
            "facts derived, seed {seed}"
        );
        assert_eq!(a.rules_fired, b.rules_fired, "matches fired, seed {seed}");
        assert_eq!(a.threads, 4, "parallel trace records its thread count");
    }
}

/// Same differential guarantee through the stratified engine on seeded
/// random stratified (negation) programs: every stratum routes through
/// the parallel fixpoint, and the final instance must not depend on the
/// thread count.
#[test]
fn parallel_stratified_byte_identical_on_random_negation_programs() {
    for seed in 0..15u64 {
        let mut i = Interner::new();
        let (program, input) = negation_program(&mut i, seed);
        let tel_seq = Telemetry::enabled();
        let seq = stratified::eval(
            &program,
            &input,
            EvalOptions::default()
                .with_threads(1)
                .with_telemetry(tel_seq.clone()),
        )
        .unwrap();
        let tel_par = Telemetry::enabled();
        let par = stratified::eval(
            &program,
            &input,
            EvalOptions::default()
                .with_threads(4)
                .with_telemetry(tel_par.clone()),
        )
        .unwrap();
        assert_eq!(
            seq.instance.display(&i).to_string(),
            par.instance.display(&i).to_string(),
            "threads=1 vs threads=4, seed {seed}"
        );
        let (a, b) = (tel_par.snapshot().unwrap(), tel_seq.snapshot().unwrap());
        assert_eq!(
            a.total_facts_added(),
            b.total_facts_added(),
            "facts derived, seed {seed}"
        );
        assert_eq!(a.stages.len(), b.stages.len(), "stage count, seed {seed}");
    }
}

/// The 1-vs-4 check above only exercises power-of-two worker pools; odd
/// and oversubscribed pools chunk the rule/delta work differently (uneven
/// chunk sizes, workers with no work at all). Sweep threads 2, 3 and 8
/// against the sequential reference on the same seeded TC inputs.
#[test]
fn parallel_seminaive_matches_across_thread_counts() {
    for seed in 0..10u64 {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let edges = 4 + (seed as usize % 3) * 10;
        let input = random_graph(&mut i, 10, edges, seed);
        let tel_seq = Telemetry::enabled();
        let seq = seminaive::minimum_model(
            &p,
            &input,
            EvalOptions::default()
                .with_threads(1)
                .with_telemetry(tel_seq.clone()),
        )
        .unwrap();
        let ref_trace = tel_seq.snapshot().unwrap();
        for threads in [2usize, 3, 8] {
            let tel = Telemetry::enabled();
            let par = seminaive::minimum_model(
                &p,
                &input,
                EvalOptions::default()
                    .with_threads(threads)
                    .with_telemetry(tel.clone()),
            )
            .unwrap();
            assert_eq!(
                seq.instance.display(&i).to_string(),
                par.instance.display(&i).to_string(),
                "threads=1 vs threads={threads}, seed {seed}"
            );
            let trace = tel.snapshot().unwrap();
            assert_eq!(
                trace.stages.len(),
                ref_trace.stages.len(),
                "stage count at threads={threads}, seed {seed}"
            );
            assert_eq!(
                trace.total_facts_added(),
                ref_trace.total_facts_added(),
                "facts derived at threads={threads}, seed {seed}"
            );
        }
    }
}

/// Same sweep through the stratified engine on seeded stratified
/// programs: stratum scheduling must be invisible at any worker count.
#[test]
fn parallel_stratified_matches_across_thread_counts() {
    for seed in 0..10u64 {
        let mut i = Interner::new();
        let (program, input) = negation_program(&mut i, seed);
        let seq =
            stratified::eval(&program, &input, EvalOptions::default().with_threads(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let par = stratified::eval(
                &program,
                &input,
                EvalOptions::default().with_threads(threads),
            )
            .unwrap();
            assert_eq!(
                seq.instance.display(&i).to_string(),
                par.instance.display(&i).to_string(),
                "threads=1 vs threads={threads}, seed {seed}"
            );
        }
    }
}

/// Chunking edge case: a 7-edge chain at threads=3 splits neither the
/// rule set nor any round's delta evenly, and the side predicate `S`
/// saturates in round one — every later round evaluates its rule against
/// an *empty* delta. The empty chunks and uneven remainders must not
/// perturb the fixpoint or derive duplicate facts.
#[test]
fn odd_thread_count_with_empty_delta_round_is_exact() {
    let mut i = Interner::new();
    let p = parse_program(
        "T(x,y) :- G(x,y).\n\
         T(x,y) :- G(x,z), T(z,y).\n\
         S(x) :- G(x, x).",
        &mut i,
    )
    .unwrap();
    let g = i.get("G").unwrap();
    let mut input = Instance::new();
    for k in 0..7i64 {
        input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
    }
    // One self-loop feeds S exactly once, in the very first round.
    input.insert_fact(g, Tuple::from([Value::Int(3), Value::Int(3)]));
    let tel = Telemetry::enabled();
    let run = seminaive::minimum_model(
        &p,
        &input,
        EvalOptions::default()
            .with_threads(3)
            .with_telemetry(tel.clone()),
    )
    .unwrap();
    let seq = seminaive::minimum_model(&p, &input, EvalOptions::default().with_threads(1)).unwrap();
    assert_eq!(
        run.instance.display(&i).to_string(),
        seq.instance.display(&i).to_string(),
        "threads=3 vs threads=1"
    );
    // S holds exactly the one self-loop node; the chain closure includes
    // the loop-augmented pairs, and no fact is derived twice.
    assert_eq!(run.instance.relation(i.get("S").unwrap()).unwrap().len(), 1);
    let trace = tel.snapshot().unwrap();
    assert!(
        trace.stages.len() >= 5,
        "chain TC must run several rounds after S's delta goes empty"
    );
    assert_eq!(trace.threads, 3);
}

/// Mutating one clone of an instance must not poison delta marks taken
/// on the other: epoch forking downgrades the stale mark to a superset
/// scan instead of silently missing tuples.
#[test]
fn cloned_instances_keep_independent_delta_lineages() {
    let mut i = Interner::new();
    let g = i.intern("G");
    let mut a = Instance::new();
    a.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
    a.commit_all();
    let mark = unchained::common::DeltaHandle::capture(&a);
    let mut b = a.clone();
    b.insert_fact(g, Tuple::from([Value::Int(3), Value::Int(4)]));
    // The clone's mutation forked its epoch: the old mark now reports
    // *all* of b's tuples (a sound superset), while a's lineage is intact.
    assert_eq!(b.relation(g).unwrap().iter_since(mark.mark(g)).count(), 2);
    assert_eq!(a.relation(g).unwrap().iter_since(mark.mark(g)).count(), 0);
}

/// Property sweep of the symmetric hazard: mutating the *original*
/// after taking a clone must fork the original's epoch — the shared
/// lineage came first, but neither side owns it. Whatever mix of
/// inserts and retracts lands on the original, the untouched clone's
/// contents and delta lineage must stay byte-stable, and a mark taken
/// before the split must stop matching the mutated side's storage
/// (degrading to a full, sound superset scan).
#[test]
fn mutating_the_original_forks_the_epoch_not_the_clone() {
    for seed in 0..30u64 {
        let mut rng = Rng::seeded(0xC10E + seed);
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut orig = Instance::new();
        for k in 0..6i64 {
            orig.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        orig.commit_all();
        let mark = unchained::common::DeltaHandle::capture(&orig);
        let clone = orig.clone();
        let clone_before = clone.display(&i).to_string();
        let edits = 1 + rng.gen_range_i64(0, 5);
        for _ in 0..edits {
            if rng.gen_range_i64(0, 2) == 0 {
                let a = rng.gen_range_i64(10, 30);
                orig.insert_fact(g, Tuple::from([Value::Int(a), Value::Int(a)]));
            } else {
                let k = rng.gen_range_i64(0, 6);
                orig.retract_fact(g, &Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
        }
        // The untouched clone: contents and delta lineage byte-stable.
        assert_eq!(clone.display(&i).to_string(), clone_before, "seed {seed}");
        assert_eq!(
            clone.relation(g).unwrap().iter_since(mark.mark(g)).count(),
            0,
            "seed {seed}: clone's delta lineage must stay exact"
        );
        // The mutated original: the pre-split mark must not claim to
        // still match this storage.
        let live = orig.relation(g).unwrap().len();
        assert_eq!(
            orig.relation(g).unwrap().iter_since(mark.mark(g)).count(),
            live,
            "seed {seed}: stale mark must degrade to a superset scan"
        );
    }
}

/// The live rows of each frozen segment of `rel`, in storage order.
fn segments(rel: &Relation) -> Vec<Vec<&[Value]>> {
    let mut start = 0;
    rel.segment_lens()
        .into_iter()
        .map(|len| {
            start += len;
            rel.iter_stored_range(start - len, start).collect()
        })
        .collect()
}

/// Checks that every relation of `instance` is committed into strictly
/// sorted segments and, for each of `preds`, that its segments are its
/// input facts' (committed as one on entry) and then one per stage that
/// added to it, of the size `trace` records.
fn check_stage_segments(
    instance: &Instance,
    input: &Instance,
    preds: &[Symbol],
    trace: &EvalTrace,
    ctx: &str,
) {
    for (pred, rel) in instance.iter() {
        assert_eq!(rel.recent_len(), 0, "{ctx}: {pred:?} has a tail");
        for (k, seg) in segments(rel).iter().enumerate() {
            assert!(
                seg.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: segment {k} of {pred:?} is not strictly sorted"
            );
        }
    }
    for &pred in preds {
        let mut want = input.relation(pred).map_or(Vec::new(), |r| {
            let mut lens = r.segment_lens();
            lens.extend(Some(r.recent_len()).filter(|&n| n > 0));
            lens
        });
        want.extend(
            trace
                .stages
                .iter()
                .flat_map(|s| s.delta.iter().filter(|(p, _)| *p == pred))
                .map(|&(_, n)| n),
        );
        let rel = instance.relation(pred).expect("idb relation");
        assert_eq!(rel.segment_lens(), want, "{ctx}: segments of {pred:?}");
    }
}

/// A Δ stage adds each relation's new facts as one sorted, duplicate-free
/// segment. On fuzzer-grammar programs, every segment of a semi-naive,
/// inflationary, well-founded and Datalog¬¬ result is strictly sorted,
/// and each idb relation of the semi-naive, inflationary and Datalog¬¬
/// runs (those no rule retracts from, for Datalog¬¬) holds one segment
/// per stage that added to it, of the size the stage's trace records.
#[test]
fn stage_segments_are_sorted_and_match_the_trace() {
    let traced = |run: &dyn Fn(EvalOptions) -> Option<Vec<Instance>>| {
        let tel = Telemetry::enabled();
        let out = run(EvalOptions::default().with_telemetry(tel.clone()));
        out.map(|instances| (instances, tel.snapshot().unwrap()))
    };
    let mut checked = [0; 4];
    for seed in 0..30u64 {
        let mut i = Interner::new();
        let (program, input) = generate(&mut i, Campaign::Positive, GrammarConfig::default(), seed);
        let (out, trace) = traced(&|o| {
            Some(vec![
                seminaive::minimum_model(&program, &input, o).ok()?.instance,
            ])
        })
        .unwrap();
        check_stage_segments(
            &out[0],
            &input,
            &program.idb(),
            &trace,
            &format!("seminaive {seed}"),
        );
        checked[0] += 1;

        let mut i = Interner::new();
        let (mut program, input) = generate(
            &mut i,
            Campaign::Unstratified,
            GrammarConfig::default(),
            seed,
        );
        let retracted: Vec<Symbol> = program
            .rules
            .iter()
            .flat_map(|r| &r.head)
            .filter_map(|h| match h {
                HeadLiteral::Neg(a) => Some(a.pred),
                _ => None,
            })
            .collect();
        let kept: Vec<Symbol> = program
            .idb()
            .into_iter()
            .filter(|p| !retracted.contains(p))
            .collect();
        let policy = noninflationary::ConflictPolicy::PreferPositive;
        if let Some((out, trace)) = traced(&|o| {
            Some(vec![
                noninflationary::eval(&program, &input, policy, o)
                    .ok()?
                    .instance,
            ])
        }) {
            check_stage_segments(
                &out[0],
                &input,
                &kept,
                &trace,
                &format!("noninflationary {seed}"),
            );
            checked[1] += 1;
        }
        program
            .rules
            .retain(|r| matches!(r.head[..], [HeadLiteral::Pos(_)]));
        let (out, trace) =
            traced(&|o| Some(vec![inflationary::eval(&program, &input, o).ok()?.instance]))
                .unwrap();
        check_stage_segments(
            &out[0],
            &input,
            &program.idb(),
            &trace,
            &format!("inflationary {seed}"),
        );
        checked[2] += 1;
        let (out, trace) = traced(&|o| {
            let m = wellfounded::eval(&program, &input, o).ok()?;
            Some(vec![m.true_facts, m.possible_facts])
        })
        .unwrap();
        for (k, instance) in out.iter().enumerate() {
            check_stage_segments(
                instance,
                &input,
                &[],
                &trace,
                &format!("wellfounded {k} {seed}"),
            );
        }
        checked[3] += 1;
    }
    assert!(
        checked.iter().all(|&n| n > 10),
        "too few runs checked: {checked:?}"
    );
}

/// `input` with every relation stored as one sorted segment, or with
/// `split` stored as two: its lower half of rows in sort order, then
/// its upper half. Either way the rows sit at the same storage
/// positions in the same order; only the segment count differs.
fn laid_out(input: &Instance, split: Option<Symbol>) -> Instance {
    let mut out = Instance::new();
    for (pred, rel) in input.iter() {
        let mut rows: Vec<Tuple> = rel.iter_stored().map(Tuple::new).collect();
        rows.sort_unstable();
        let cut = if split == Some(pred) {
            rows.len() / 2
        } else {
            0
        };
        out.ensure(pred, rel.arity());
        for half in [&rows[..cut], &rows[cut..]] {
            for row in half {
                out.insert_fact(pred, row.clone());
            }
            out.commit_all();
        }
    }
    out
}

/// A keyed probe the plan marks `seek` (reach's `G(=x, y)` under
/// `ΔR(x)`, points-to's `Store(=p, w)` under `ΔPT(p, q)`) is answered
/// from sorted storage when the probed relation is one segment, and
/// through a hash index when it is two. Both read the same rows in the
/// same order, so the answers, stages, rules fired, probes, probe
/// tuples and first derivations agree at 1, 2 and 4 threads; on the
/// one-segment input reach builds no index at all.
#[test]
fn storage_seeks_and_index_probes_do_the_same_work() {
    use unchained::core::provenance::minimum_model_with_provenance;
    use unchained::harness::{generators, programs};
    let mut i = Interner::new();
    let reach = generators::merge(
        generators::random_out_digraph(&mut i, "G", 3_000, 4, 11),
        &generators::random_unary(&mut i, "S", 3_000, 8, 12),
    );
    let pointsto = generators::random_pointsto(&mut i, 2_000, 600, 300, 300, 13);
    let cases = [
        (programs::REACH, reach, "G"),
        (programs::POINTSTO, pointsto, "Store"),
    ];
    for (src, input, probed) in cases {
        let program = parse_program(src, &mut i).unwrap();
        let probed = i.get(probed).unwrap();
        let layouts = [laid_out(&input, None), laid_out(&input, Some(probed))];
        assert_eq!(layouts[0].relation(probed).unwrap().segment_count(), 1);
        assert_eq!(layouts[1].relation(probed).unwrap().segment_count(), 2);
        for threads in [1, 2, 4] {
            let runs: Vec<_> = layouts
                .iter()
                .map(|layout| {
                    let tel = Telemetry::enabled();
                    let options = EvalOptions::default()
                        .with_threads(threads)
                        .with_telemetry(tel.clone());
                    let run = seminaive::minimum_model(&program, layout, options).unwrap();
                    (run, tel.snapshot().unwrap())
                })
                .collect();
            let [(seek, a), (index, b)] = &runs[..] else {
                unreachable!("two layouts")
            };
            let ctx = format!("{src}at {threads} thread(s)");
            assert_eq!(seek.instance, index.instance, "{ctx}");
            assert_eq!(seek.stages, index.stages, "{ctx}");
            assert_eq!(a.stages.len(), b.stages.len(), "{ctx}");
            assert_eq!(a.rules_fired, b.rules_fired, "{ctx}");
            assert_eq!(a.joins.probes, b.joins.probes, "{ctx}");
            assert_eq!(a.joins.probe_tuples, b.joins.probe_tuples, "{ctx}");
            // Which worker indexes what varies run to run at 2 and 4
            // threads; sequentially, the two-segment run indexes more.
            if threads == 1 {
                let postings = |t: &EvalTrace| t.joins.indexed_tuples + t.joins.appended_tuples;
                assert!(postings(a) < postings(b), "{ctx}");
            }
            if src == programs::REACH {
                assert_eq!(a.joins.indexed_tuples, 0, "{ctx}");
                assert_eq!(a.joins.index_builds, 0, "{ctx}");
            }
            let why: Vec<_> = layouts
                .iter()
                .map(|layout| {
                    let options = EvalOptions::default().with_threads(threads);
                    minimum_model_with_provenance(&program, layout, options)
                        .unwrap()
                        .why
                })
                .collect();
            assert_eq!(why[0], why[1], "{ctx}: first derivations");
        }
    }
}
