//! Datalog¬¬ fires a rule whose head no rule retracts only over the
//! last stage's change, even while other predicates are retracted every
//! stage — and still computes what the definition says.

use unchained_common::{
    Instance, Interner, Span, SpanKind, Symbol, Telemetry, Tracer, Tuple, Value,
};
use unchained_core::noninflationary::ConflictPolicy;
use unchained_core::{inflationary, noninflationary, EvalOptions};
use unchained_fuzz::spec;
use unchained_parser::parse_program;

const TC: &str = "T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).";

/// Matches fired by the rules deriving `pred` (every rule when `None`),
/// summed over the rule leaves of the span trees.
fn fired(roots: &[Span], pred: Option<Symbol>) -> u64 {
    roots
        .iter()
        .map(|s| {
            let own = match s.kind {
                SpanKind::Rule if pred.is_none() || s.pred == pred => s.gauge("fired").unwrap_or(0),
                _ => 0,
            };
            own + fired(&s.children, pred)
        })
        .sum()
}

/// Transitive closure beside a token that moves one edge a stage,
/// retracted behind itself, and a rule that marks where the token left
/// through a negation of the token's predicate. The closure rules fire
/// exactly the matches inflationary evaluation of the closure alone
/// fires, and the result is the reference evaluator's.
#[test]
fn closure_beside_a_retracted_token_fires_as_inflationary_does() {
    let mut i = Interner::new();
    let program = parse_program(
        &format!(
            "{TC}\n\
             A(y) :- A(x), S(x,y).\n\
             !A(x) :- A(x), S(x,y).\n\
             V(x) :- S(x,y), !A(x)."
        ),
        &mut i,
    )
    .unwrap();
    let tc = parse_program(TC, &mut i).unwrap();
    let (g, s, a, t, v) = (
        i.get("G").unwrap(),
        i.get("S").unwrap(),
        i.get("A").unwrap(),
        i.get("T").unwrap(),
        i.get("V").unwrap(),
    );
    let pair = |x: i64, y: i64| Tuple::from([Value::Int(x), Value::Int(y)]);
    let mut input = Instance::new();
    for k in 0..9 {
        input.insert_fact(g, pair(k, k + 1));
    }
    for k in 0..12 {
        input.insert_fact(s, pair(k, k + 1));
    }
    input.insert_fact(a, Tuple::from([Value::Int(0)]));

    let traced = |run: &dyn Fn(EvalOptions)| {
        let tracer = Tracer::enabled();
        let tel = Telemetry::enabled().with_tracer(tracer.clone());
        run(EvalOptions::default().with_telemetry(tel.clone()));
        (tracer.finish(), tel.snapshot().unwrap())
    };
    let policy = ConflictPolicy::PreferPositive;
    let (mixed, trace) = traced(&|o| {
        let run = noninflationary::eval(&program, &input, policy, o).unwrap();
        let want = spec::datalog_negneg(&program, &input, policy, 100);
        assert_eq!(
            want,
            spec::Stages::Fixpoint {
                db: spec::db_of(&run.instance),
                stages: run.stages
            }
        );
        // The token walked the whole line and marked every position
        // behind it.
        assert!(run
            .instance
            .contains_fact(a, &Tuple::from([Value::Int(12)])));
        assert_eq!(run.instance.relation(v).unwrap().len(), 12);
    });
    let (alone, _) = traced(&|o| {
        inflationary::eval(&tc, &input, o).unwrap();
    });
    // The token is retracted in every stage it moves, which outlasts
    // the closure.
    let moving: Vec<usize> = trace.stages.iter().map(|s| s.facts_removed).collect();
    assert!(
        moving.len() > 10 && moving[..12].iter().all(|&r| r == 1),
        "{moving:?}"
    );
    assert_eq!(fired(&mixed, Some(t)), fired(&alone, None));
    assert!(fired(&alone, None) > 0);
}
