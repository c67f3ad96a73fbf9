//! A definitional reference evaluator: the paper's definitions of the
//! immediate consequence operator Γ_P, the reduct least fixpoint Γ̂, the
//! alternating fixpoint (§3.3) and Datalog¬¬ stages (§4.2), executed as
//! written.
//!
//! It shares no code with the engines it checks. Relations are
//! `BTreeSet<Vec<Value>>`s, valuations come from nested loops over them
//! (positive atoms in source order, then every still-unbound variable
//! over the active domain), and every operator recomputes from scratch:
//! no IR, no planner, no indexes, no deltas. It is slow by design and
//! meant for the fuzzer's small instances.

use std::collections::{BTreeMap, BTreeSet};

use unchained_common::{Instance, Symbol, Value};
use unchained_core::noninflationary::ConflictPolicy;
use unchained_parser::{Atom, HeadLiteral, Literal, Program, Rule, Term};

/// A database: each predicate's set of tuples. Empty sets are never
/// stored, so equal databases are equal maps.
pub type Db = BTreeMap<Symbol, BTreeSet<Vec<Value>>>;

/// The facts of `instance`.
pub fn db_of(instance: &Instance) -> Db {
    let mut db = Db::new();
    for (pred, rel) in instance.iter() {
        for t in rel.iter() {
            db.entry(pred).or_default().insert(t.values().to_vec());
        }
    }
    db
}

/// `db` restricted to the predicates in `keep`.
pub fn project(db: &Db, keep: &[Symbol]) -> Db {
    db.iter()
        .filter(|(p, _)| keep.contains(p))
        .map(|(p, ts)| (*p, ts.clone()))
        .collect()
}

fn holds(db: &Db, pred: Symbol, tuple: &[Value]) -> bool {
    db.get(&pred).is_some_and(|ts| ts.contains(tuple))
}

fn insert(db: &mut Db, pred: Symbol, tuple: Vec<Value>) {
    db.entry(pred).or_default().insert(tuple);
}

fn remove(db: &mut Db, pred: Symbol, tuple: &[Value]) {
    if let Some(ts) = db.get_mut(&pred) {
        ts.remove(tuple);
        if ts.is_empty() {
            db.remove(&pred);
        }
    }
}

fn value(term: &Term, val: &[Option<Value>]) -> Option<Value> {
    match term {
        Term::Const(c) => Some(*c),
        Term::Var(v) => val[v.index()],
    }
}

fn ground(atom: &Atom, val: &[Option<Value>]) -> Vec<Value> {
    atom.args
        .iter()
        .map(|t| value(t, val).expect("valuation binds every variable"))
        .collect()
}

/// The active domain: the input's values and the program's constants.
pub fn active_domain(program: &Program, input: &Db) -> Vec<Value> {
    let mut dom: BTreeSet<Value> = program.adom().into_iter().collect();
    for ts in input.values() {
        for t in ts {
            dom.extend(t.iter().copied());
        }
    }
    dom.into_iter().collect()
}

/// Calls `each` with every valuation of `rule`'s variables over `adom`
/// that satisfies its body: positive atoms in `pos`, negated atoms
/// absent from `neg`, comparisons true.
fn valuations(
    rule: &Rule,
    pos: &Db,
    neg: &Db,
    adom: &[Value],
    each: &mut dyn FnMut(&[Option<Value>]),
) {
    let positives: Vec<&Atom> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    let mut val = vec![None; rule.var_count()];
    match_atoms(rule, &positives, pos, neg, adom, &mut val, each);
}

/// Nested loops over the tuples of each positive atom in turn.
fn match_atoms(
    rule: &Rule,
    atoms: &[&Atom],
    pos: &Db,
    neg: &Db,
    adom: &[Value],
    val: &mut Vec<Option<Value>>,
    each: &mut dyn FnMut(&[Option<Value>]),
) {
    let Some((atom, rest)) = atoms.split_first() else {
        return assign_rest(rule, 0, neg, adom, val, each);
    };
    let Some(tuples) = pos.get(&atom.pred) else {
        return;
    };
    for tuple in tuples {
        let saved = val.clone();
        let fits = atom.args.iter().zip(tuple).all(|(t, &v)| match t {
            Term::Const(c) => *c == v,
            Term::Var(x) => match val[x.index()] {
                Some(bound) => bound == v,
                None => {
                    val[x.index()] = Some(v);
                    true
                }
            },
        });
        if fits {
            match_atoms(rule, rest, pos, neg, adom, val, each);
        }
        *val = saved;
    }
}

/// Ranges every variable the positive atoms left unbound over `adom`,
/// then checks the rest of the body.
fn assign_rest(
    rule: &Rule,
    from: usize,
    neg: &Db,
    adom: &[Value],
    val: &mut Vec<Option<Value>>,
    each: &mut dyn FnMut(&[Option<Value>]),
) {
    if let Some(i) = (from..val.len()).find(|&i| val[i].is_none()) {
        for &v in adom {
            val[i] = Some(v);
            assign_rest(rule, i + 1, neg, adom, val, each);
        }
        val[i] = None;
        return;
    }
    let satisfied = rule.body.iter().all(|lit| match lit {
        Literal::Pos(_) => true,
        Literal::Neg(a) => !holds(neg, a.pred, &ground(a, val)),
        Literal::Eq(l, r) => value(l, val) == value(r, val),
        Literal::Neq(l, r) => value(l, val) != value(r, val),
        Literal::Choice(..) => unreachable!("the reference evaluates deterministic programs"),
    });
    if satisfied {
        each(val);
    }
}

/// Γ_P: the positive and the negative head facts of every valuation
/// whose positive atoms hold in `pos` and negated atoms fail in `neg`.
pub fn consequences(program: &Program, pos: &Db, neg: &Db, adom: &[Value]) -> (Db, Db) {
    let (mut inferred, mut retracted) = (Db::new(), Db::new());
    for rule in &program.rules {
        valuations(rule, pos, neg, adom, &mut |val| {
            for head in &rule.head {
                match head {
                    HeadLiteral::Pos(a) => insert(&mut inferred, a.pred, ground(a, val)),
                    HeadLiteral::Neg(a) => insert(&mut retracted, a.pred, ground(a, val)),
                    HeadLiteral::Bottom => unreachable!("⊥ is nondeterministic-only"),
                }
            }
        });
    }
    (inferred, retracted)
}

/// Γ̂(J): the least fixpoint over `input` of the rules with every
/// negated atom read against `j`.
pub fn reduct(program: &Program, input: &Db, j: &Db, adom: &[Value]) -> Db {
    let mut db = input.clone();
    loop {
        let (inferred, _) = consequences(program, &db, j, adom);
        let before = db.clone();
        for (p, ts) in inferred {
            db.entry(p).or_default().extend(ts);
        }
        if db == before {
            return db;
        }
    }
}

/// The well-founded model as the alternating fixpoint computes it.
#[derive(Debug, PartialEq, Eq)]
pub struct WellFounded {
    /// The limit of the under-estimates `I₀ ⊆ I₂ ⊆ …`.
    pub true_facts: Db,
    /// The limit of the over-estimates `I₁ ⊇ I₃ ⊇ …`.
    pub possible_facts: Db,
    /// Applications of Γ̂ until an under-estimate repeated.
    pub rounds: usize,
}

/// The alternating fixpoint from scratch: `I₀ = input`, `Iₖ₊₁ = Γ̂(Iₖ)`,
/// two applications at a time until an even iterate repeats.
pub fn well_founded(program: &Program, input: &Instance) -> WellFounded {
    let input = db_of(input);
    let adom = active_domain(program, &input);
    let mut even = input.clone();
    let mut rounds = 0;
    loop {
        let odd = reduct(program, &input, &even, &adom);
        let next = reduct(program, &input, &odd, &adom);
        rounds += 2;
        if next == even {
            return WellFounded {
                true_facts: even,
                possible_facts: odd,
                rounds,
            };
        }
        even = next;
    }
}

/// How a run of Datalog¬¬ stages ends.
#[derive(Debug, PartialEq, Eq)]
pub enum Stages {
    /// Stage `stages` changed nothing; `db` is the fixpoint.
    Fixpoint {
        /// The final instance.
        db: Db,
        /// Stages performed, the last (unchanging) one included.
        stages: usize,
    },
    /// Stage `stage` reached the state stage `stage - period` had.
    Diverged {
        /// The stage that repeated a state.
        stage: usize,
        /// Distance to the state's first visit.
        period: usize,
    },
    /// Stage `stage` inferred some `A` and `¬A` under
    /// [`ConflictPolicy::Undefined`].
    Contradiction {
        /// The stage.
        stage: usize,
    },
    /// More than the stage budget.
    StageLimit,
}

/// Datalog¬¬ (§4.2): every stage fires Γ_P against the current state,
/// then inserts and deletes, resolving `A`/`¬A` conflicts by `policy`.
/// States are remembered to report divergence.
pub fn datalog_negneg(
    program: &Program,
    input: &Instance,
    policy: ConflictPolicy,
    max_stages: usize,
) -> Stages {
    let mut db = db_of(input);
    let adom = active_domain(program, &db);
    let mut seen: BTreeMap<Db, usize> = BTreeMap::from([(db.clone(), 0)]);
    for stage in 1..=max_stages {
        let (inferred, retracted) = consequences(program, &db, &db, &adom);
        let conflict =
            |p: &Symbol, t: &Vec<Value>| holds(&inferred, *p, t) && holds(&retracted, *p, t);
        let mut next = db.clone();
        for (p, ts) in &retracted {
            for t in ts {
                let kept = match policy {
                    ConflictPolicy::PreferPositive | ConflictPolicy::NoOp => conflict(p, t),
                    ConflictPolicy::PreferNegative => false,
                    ConflictPolicy::Undefined => {
                        if conflict(p, t) {
                            return Stages::Contradiction { stage };
                        }
                        false
                    }
                };
                if !kept {
                    remove(&mut next, *p, t);
                }
            }
        }
        for (p, ts) in &inferred {
            for t in ts {
                let added = match policy {
                    ConflictPolicy::PreferPositive => true,
                    _ => !conflict(p, t),
                };
                if added {
                    insert(&mut next, *p, t.clone());
                }
            }
        }
        if next == db {
            return Stages::Fixpoint { db, stages: stage };
        }
        if let Some(first) = seen.get(&next) {
            return Stages::Diverged {
                stage,
                period: stage - first,
            };
        }
        seen.insert(next.clone(), stage);
        db = next;
    }
    Stages::StageLimit
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::{Interner, Tuple};
    use unchained_parser::parse_program;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Example 3.2's win-move game, read off the definition.
    #[test]
    fn win_move_game_is_three_valued() {
        let mut i = Interner::new();
        let program = parse_program("win(x) :- moves(x,y), !win(y).", &mut i).unwrap();
        let (moves, win) = (i.get("moves").unwrap(), i.get("win").unwrap());
        let mut input = Instance::new();
        // 1 ⇄ 2 is a draw; 2 → 3 → 4 resolves: 4 lost, 3 won.
        for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 4)] {
            input.insert_fact(moves, Tuple::from([int(a), int(b)]));
        }
        let model = well_founded(&program, &input);
        let wins = |db: &Db| db.get(&win).cloned().unwrap_or_default();
        assert_eq!(wins(&model.true_facts), BTreeSet::from([vec![int(3)]]));
        assert_eq!(
            wins(&model.possible_facts),
            BTreeSet::from([vec![int(1)], vec![int(2)], vec![int(3)]])
        );
        assert_eq!(model.rounds % 2, 0);
    }

    /// The §4.2 flip-flop diverges with period 2; the conflict program
    /// separates the four policies.
    #[test]
    fn datalog_negneg_stages_follow_the_policy() {
        let mut i = Interner::new();
        let flip = parse_program(
            "T(0) :- T(1). !T(1) :- T(1). T(1) :- T(0). !T(0) :- T(0).",
            &mut i,
        )
        .unwrap();
        let t = i.get("T").unwrap();
        let mut input = Instance::new();
        input.insert_fact(t, Tuple::from([int(0)]));
        assert_eq!(
            datalog_negneg(&flip, &input, ConflictPolicy::PreferPositive, 50),
            Stages::Diverged {
                stage: 2,
                period: 2
            }
        );

        let clash = parse_program("!A(x) :- A(x). A(x) :- A(x).", &mut i).unwrap();
        let a = i.get("A").unwrap();
        let mut input = Instance::new();
        input.insert_fact(a, Tuple::from([int(1)]));
        let kept = |policy| match datalog_negneg(&clash, &input, policy, 50) {
            Stages::Fixpoint { db, .. } => Some(holds(&db, a, &[int(1)])),
            _ => None,
        };
        assert_eq!(kept(ConflictPolicy::PreferPositive), Some(true));
        assert_eq!(kept(ConflictPolicy::PreferNegative), Some(false));
        assert_eq!(kept(ConflictPolicy::NoOp), Some(true));
        assert_eq!(
            datalog_negneg(&clash, &input, ConflictPolicy::Undefined, 50),
            Stages::Contradiction { stage: 1 }
        );
    }
}
