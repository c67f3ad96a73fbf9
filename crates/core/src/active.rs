//! An active-database trigger engine — the framework of Picouet–Vianu
//! \[104\] ("Semantics and expressiveness issues in active databases"),
//! which the paper points to at the end of Section 4.3, in its
//! deferred-execution, set-oriented form.
//!
//! Active rules are Datalog¬¬ rules over the base schema **extended
//! with delta relations**: for a base relation `R`, the relation `ins-R`
//! holds the tuples inserted in the previous round and `del-R` those
//! deleted. Execution:
//!
//! 1. an external **update** (a set of insertions and deletions) is
//!    applied to the state and becomes the round-0 deltas;
//! 2. each round evaluates all rules *once* (one parallel firing)
//!    against the state plus the current deltas; positive heads request
//!    insertions, negative heads deletions;
//! 3. the *effective* changes (requests that actually change the state)
//!    are applied and become the next round's deltas;
//! 4. the database **quiesces** when a round changes nothing.
//!
//! An update is one run of the shared stage driver (`fixpoint::Stages`)
//! over the state plus its delta relations, a round per stage.
//!
//! Like Datalog¬¬ itself (Section 4.2), triggers need not terminate;
//! a round budget bounds runaway cascades. \[104\] shows such languages
//! climb the complexity ladder (pspace, exptime, …) depending on the
//! features enabled — here we provide the core machinery and validate
//! its behavioural properties (cascades, audit rules, quiescence,
//! divergence).

use crate::error::EvalError;
use crate::fixpoint::{facts, Apply, Consequence, Stages};
use crate::options::EvalOptions;
use crate::subst::{instantiate, Env};
use crate::{input_schema, require_language};
use unchained_common::{FxHashMap, Instance, Interner, Symbol, Tuple};
use unchained_parser::{check_range_restricted, HeadLiteral, Language, Program};

/// Prefix naming the insertion delta of a relation (`ins-R`).
pub const INS_PREFIX: &str = "ins-";
/// Prefix naming the deletion delta of a relation (`del-R`).
pub const DEL_PREFIX: &str = "del-";

/// An external update: the triggering event.
#[derive(Clone, Default, Debug)]
pub struct Update {
    /// Facts to insert.
    pub insertions: Vec<(Symbol, Tuple)>,
    /// Facts to delete.
    pub deletions: Vec<(Symbol, Tuple)>,
}

impl Update {
    /// An update inserting one fact.
    pub fn insert(pred: Symbol, tuple: Tuple) -> Self {
        Update {
            insertions: vec![(pred, tuple)],
            deletions: vec![],
        }
    }

    /// An update deleting one fact.
    pub fn delete(pred: Symbol, tuple: Tuple) -> Self {
        Update {
            insertions: vec![],
            deletions: vec![(pred, tuple)],
        }
    }
}

/// Outcome of processing one update to quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActiveReport {
    /// Rounds of trigger firing (0 if the update itself changed
    /// nothing).
    pub rounds: usize,
    /// Total effective insertions (including the external ones).
    pub inserted: usize,
    /// Total effective deletions (including the external ones).
    pub deleted: usize,
}

/// An active database: base state plus trigger rules.
pub struct ActiveDatabase {
    /// Trigger rules (over base relations and `ins-`/`del-` deltas).
    pub program: Program,
    /// The base state. Delta relations never appear here.
    pub state: Instance,
    /// Round budget per update.
    pub max_rounds: usize,
}

/// Each base relation's `(ins-R, del-R)` delta relations.
type Deltas = FxHashMap<Symbol, (Symbol, Symbol)>;

impl ActiveDatabase {
    /// Creates an active database; `interner` names the program's
    /// relations.
    ///
    /// # Errors
    /// Rejects programs outside Datalog¬¬ (a rule with several heads
    /// among them), non-range-restricted rules, and, with
    /// [`EvalError::InvalidUpdate`], a rule whose head is an `ins-`/`del-`
    /// delta relation: only the engine writes those.
    pub fn new(program: Program, state: Instance, interner: &Interner) -> Result<Self, EvalError> {
        require_language(&program, Language::DatalogNegNeg)?;
        check_range_restricted(&program, false)?;
        let heads = program.rules.iter().filter_map(|r| r.head[0].atom());
        if let Some(head) = heads.map(|a| interner.name(a.pred)).find(|n| is_delta(n)) {
            return Err(delta_written(head));
        }
        Ok(ActiveDatabase {
            program,
            state,
            max_rounds: 10_000,
        })
    }

    /// Applies `update` and fires triggers until quiescence.
    ///
    /// `interner` is needed to resolve the `ins-R` / `del-R` delta
    /// relation names used by the rules.
    ///
    /// # Errors
    /// An arity conflict between the program, the state, the update and
    /// the delta relations; [`EvalError::InvalidUpdate`] when a rule head,
    /// the update or the state names a delta relation;
    /// [`EvalError::StageLimitExceeded`] past `max_rounds`.
    pub fn apply(
        &mut self,
        update: Update,
        interner: &mut Interner,
    ) -> Result<ActiveReport, EvalError> {
        let deltas = self.deltas(&update, interner)?;
        // Apply the external update; effective changes seed the deltas.
        let mut work = std::mem::take(&mut self.state);
        let mut trigger = Trigger {
            deltas: &deltas,
            insert: Instance::new(),
            delete: Instance::new(),
            inserted: 0,
            deleted: 0,
        };
        for (pred, tuple) in &update.insertions {
            if work.insert_row(*pred, tuple) {
                trigger.inserted += 1;
                work.insert_row(deltas[pred].0, tuple);
            }
        }
        for (pred, tuple) in &update.deletions {
            if work.retract_fact(*pred, tuple) {
                trigger.deleted += 1;
                work.insert_row(deltas[pred].1, tuple);
            }
        }
        let rounds = if trigger.inserted + trigger.deleted == 0 {
            Ok(0)
        } else {
            let options = EvalOptions::default().with_max_stages(self.max_rounds);
            Stages::new(&self.program, &work, &options).run(&mut work, None, &mut trigger)
        };
        strip(&mut work, &deltas);
        self.state = work;
        Ok(ActiveReport {
            rounds: rounds?,
            inserted: trigger.inserted,
            deleted: trigger.deleted,
        })
    }

    /// Resolves the delta relations of every base relation the program,
    /// the state or `update` names, checking that they all agree on
    /// arities and that only the engine writes delta relations.
    fn deltas(&self, update: &Update, interner: &mut Interner) -> Result<Deltas, EvalError> {
        let mut schema = input_schema(&self.program, &self.state)?;
        for (pred, tuple) in update.insertions.iter().chain(&update.deletions) {
            schema.declare(*pred, tuple.arity())?;
        }
        let mut deltas = Deltas::default();
        for (pred, arity) in schema.iter().collect::<Vec<_>>() {
            let name = interner.name(pred).to_string();
            if is_delta(&name) {
                continue;
            }
            let ins = interner.intern(&format!("{INS_PREFIX}{name}"));
            let del = interner.intern(&format!("{DEL_PREFIX}{name}"));
            schema.declare(ins, arity)?;
            schema.declare(del, arity)?;
            deltas.insert(pred, (ins, del));
        }
        let heads = self.program.rules.iter().filter_map(|r| r.head[0].atom());
        let updated = update.insertions.iter().chain(&update.deletions);
        let written = heads.map(|a| a.pred).chain(updated.map(|(p, _)| *p));
        if let Some(pred) = written
            .chain(self.state.symbols())
            .find(|p| !deltas.contains_key(p))
        {
            return Err(delta_written(interner.name(pred)));
        }
        Ok(deltas)
    }
}

/// Whether `name` names a delta relation.
fn is_delta(name: &str) -> bool {
    name.starts_with(INS_PREFIX) || name.starts_with(DEL_PREFIX)
}

/// The error for writing the delta relation `name`.
fn delta_written(name: &str) -> EvalError {
    EvalError::InvalidUpdate(format!(
        "{name} is a delta relation: no rule, update or state may hold it"
    ))
}

/// Drops every delta relation from `instance`.
fn strip(instance: &mut Instance, deltas: &Deltas) {
    for &(ins, del) in deltas.values() {
        instance.remove_relation(ins);
        instance.remove_relation(del);
    }
}

/// One trigger round as a stage policy: every rule fires its full plan
/// (triggers read the deltas, which a round replaces wholesale, so no
/// rule is Δ-driven); the effective requests, insertion winning a
/// conflict as in Datalog¬¬, change the state and replace `ins-R` and
/// `del-R`. A round that changes no base fact changes nothing, which
/// ends the run.
struct Trigger<'d> {
    deltas: &'d Deltas,
    /// The round's requested insertions and deletions.
    insert: Instance,
    delete: Instance,
    /// Effective insertions and deletions so far.
    inserted: usize,
    deleted: usize,
}

impl Consequence for Trigger<'_> {
    fn fire(&mut self, _rule: usize, head: &HeadLiteral, env: &Env, _instance: &Instance) {
        match head {
            HeadLiteral::Pos(a) => self.insert.insert_fact(a.pred, instantiate(&a.args, env)),
            HeadLiteral::Neg(a) => self.delete.insert_fact(a.pred, instantiate(&a.args, env)),
            HeadLiteral::Bottom => unreachable!("⊥ is nondeterministic-only"),
        };
    }

    fn apply(&mut self, stage: &mut Apply<'_>) -> Result<(), EvalError> {
        let insert = std::mem::take(&mut self.insert);
        let delete = std::mem::take(&mut self.delete);
        let mut next = Instance::new();
        for (pred, row) in facts(&delete) {
            if !insert.contains_fact(pred, row) && stage.remove(pred, row) {
                self.deleted += 1;
                next.insert_row(self.deltas[&pred].1, row);
            }
        }
        for (pred, row) in facts(&insert) {
            if stage.insert(pred, row)? {
                self.inserted += 1;
                next.insert_row(self.deltas[&pred].0, row);
            }
        }
        if !stage.changed() {
            return Ok(());
        }
        strip(stage.instance, self.deltas);
        for (pred, row) in facts(&next) {
            stage.instance.insert_row(pred, row);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Value;
    use unchained_parser::parse_program;

    fn sym(i: &mut Interner, s: &str) -> Value {
        Value::sym(i, s)
    }

    /// The state holds no delta relation after an update, whatever its
    /// outcome.
    fn assert_no_deltas(db: &ActiveDatabase, i: &Interner) {
        for pred in db.state.symbols() {
            let name = i.name(pred);
            assert!(
                !name.starts_with(INS_PREFIX) && !name.starts_with(DEL_PREFIX),
                "delta relation {name} left in the state"
            );
        }
    }

    /// Referential integrity by genuinely cascading triggers: deleting
    /// a department deletes its employees (round 1), which deletes
    /// their assignments (round 2).
    #[test]
    fn cascading_delete_over_two_rounds() {
        let mut i = Interner::new();
        let program = parse_program(
            "!emp(e, d) :- del-dept(d), emp(e, d).\n\
             !assigned(e, p) :- del-emp(e, d), assigned(e, p).",
            &mut i,
        )
        .unwrap();
        let dept = i.get("dept").unwrap_or_else(|| i.intern("dept"));
        let emp = i.get("emp").unwrap();
        let assigned = i.get("assigned").unwrap();
        let mut state = Instance::new();
        let sales = sym(&mut i, "sales");
        let ops = sym(&mut i, "ops");
        state.insert_fact(dept, Tuple::from([sales]));
        state.insert_fact(dept, Tuple::from([ops]));
        let (ann, bob, dan) = (sym(&mut i, "ann"), sym(&mut i, "bob"), sym(&mut i, "dan"));
        state.insert_fact(emp, Tuple::from([ann, sales]));
        state.insert_fact(emp, Tuple::from([bob, sales]));
        state.insert_fact(emp, Tuple::from([dan, ops]));
        let (p1, p2, p3) = (sym(&mut i, "p1"), sym(&mut i, "p2"), sym(&mut i, "p3"));
        state.insert_fact(assigned, Tuple::from([ann, p1]));
        state.insert_fact(assigned, Tuple::from([bob, p2]));
        state.insert_fact(assigned, Tuple::from([dan, p3]));

        let mut db = ActiveDatabase::new(program, state, &i).unwrap();
        let report = db
            .apply(Update::delete(dept, Tuple::from([sales])), &mut i)
            .unwrap();
        // 1 dept + 2 emps + 2 assignments deleted; 2 cascade rounds +
        // a quiescing round.
        assert_eq!(
            report,
            ActiveReport {
                rounds: 3,
                inserted: 0,
                deleted: 5
            }
        );
        assert_eq!(db.state.relation(emp).unwrap().len(), 1);
        assert_eq!(db.state.relation(assigned).unwrap().len(), 1);
        assert_no_deltas(&db, &i);
    }

    /// Audit triggers: insertions are logged, and the log itself does
    /// not retrigger anything.
    #[test]
    fn audit_log_trigger() {
        let mut i = Interner::new();
        let program = parse_program("log(e, d) :- ins-emp(e, d).", &mut i).unwrap();
        let emp = i.intern("emp");
        let log = i.get("log").unwrap();
        let mut db = ActiveDatabase::new(program, Instance::new(), &i).unwrap();
        let e = sym(&mut i, "eve");
        let d = sym(&mut i, "rnd");
        let report = db
            .apply(Update::insert(emp, Tuple::from([e, d])), &mut i)
            .unwrap();
        assert!(db.state.contains_fact(log, &Tuple::from([e, d])));
        // emp insert + log insert.
        assert_eq!(report.inserted, 2);
        // Re-inserting an existing fact is a no-op: no deltas, no firing.
        let report = db
            .apply(Update::insert(emp, Tuple::from([e, d])), &mut i)
            .unwrap();
        assert_eq!(
            report,
            ActiveReport {
                rounds: 0,
                inserted: 0,
                deleted: 0
            }
        );
        assert_no_deltas(&db, &i);
    }

    /// Repair trigger: deleting a protected fact re-inserts it
    /// (compensating action), reaching quiescence.
    #[test]
    fn compensating_trigger_restores_protected_fact() {
        let mut i = Interner::new();
        let program =
            parse_program("config(k, v) :- del-config(k, v), protected(k).", &mut i).unwrap();
        let config = i.get("config").unwrap();
        let protected = i.get("protected").unwrap();
        let mut state = Instance::new();
        let k = sym(&mut i, "root-key");
        let v = sym(&mut i, "v1");
        state.insert_fact(config, Tuple::from([k, v]));
        state.insert_fact(protected, Tuple::from([k]));
        let mut db = ActiveDatabase::new(program, state, &i).unwrap();
        let report = db
            .apply(Update::delete(config, Tuple::from([k, v])), &mut i)
            .unwrap();
        assert!(db.state.contains_fact(config, &Tuple::from([k, v])));
        assert_eq!(report.deleted, 1);
        assert_eq!(report.inserted, 1);
        assert_no_deltas(&db, &i);
    }

    /// Two triggers that undo each other forever exhaust the round
    /// budget — active rule sets need not terminate, like Datalog¬¬.
    #[test]
    fn ping_pong_triggers_hit_round_budget() {
        let mut i = Interner::new();
        // Delete on insert, re-insert on delete: each round undoes the
        // previous one forever.
        let program = parse_program("!A(x) :- ins-A(x). A(x) :- del-A(x).", &mut i).unwrap();
        let a = i.intern("A");
        let mut db = ActiveDatabase::new(program, Instance::new(), &i).unwrap();
        db.max_rounds = 30;
        let result = db.apply(Update::insert(a, Tuple::from([Value::Int(1)])), &mut i);
        assert!(matches!(result, Err(EvalError::StageLimitExceeded(30))));
        assert_no_deltas(&db, &i);
    }

    /// Mixed update: simultaneous insertions and deletions both seed
    /// round-0 deltas.
    #[test]
    fn mixed_update_seeds_both_deltas() {
        let mut i = Interner::new();
        let program =
            parse_program("sawins(x) :- ins-R(x). sawdel(x) :- del-R(x).", &mut i).unwrap();
        let r = i.intern("R");
        let sawins = i.get("sawins").unwrap();
        let sawdel = i.get("sawdel").unwrap();
        let mut state = Instance::new();
        state.insert_fact(r, Tuple::from([Value::Int(1)]));
        let mut db = ActiveDatabase::new(program, state, &i).unwrap();
        let update = Update {
            insertions: vec![(r, Tuple::from([Value::Int(2)]))],
            deletions: vec![(r, Tuple::from([Value::Int(1)]))],
        };
        db.apply(update, &mut i).unwrap();
        assert!(db
            .state
            .contains_fact(sawins, &Tuple::from([Value::Int(2)])));
        assert!(db
            .state
            .contains_fact(sawdel, &Tuple::from([Value::Int(1)])));
        assert_no_deltas(&db, &i);
    }

    /// A round that requests both `B(1)` and `¬B(1)` inserts it:
    /// insertion wins a conflict, as in Datalog¬¬ (Section 4.2).
    #[test]
    fn conflicting_requests_favour_insertion() {
        let mut i = Interner::new();
        let program = parse_program("B(x) :- ins-A(x). !B(x) :- ins-A(x).", &mut i).unwrap();
        let (a, b) = (i.intern("A"), i.get("B").unwrap());
        let mut db = ActiveDatabase::new(program, Instance::new(), &i).unwrap();
        let one = Tuple::from([Value::Int(1)]);
        let report = db.apply(Update::insert(a, one.clone()), &mut i).unwrap();
        assert!(db.state.contains_fact(b, &one));
        assert_eq!(
            report,
            ActiveReport {
                rounds: 2,
                inserted: 2,
                deleted: 0
            }
        );
        assert_no_deltas(&db, &i);
    }

    /// Every head of a rule fires, so a rule with two heads — outside
    /// Datalog¬¬ — is rejected rather than half fired.
    #[test]
    fn multi_head_rules_are_rejected() {
        let mut i = Interner::new();
        let program = parse_program("A(x), B(x) :- ins-C(x).", &mut i).unwrap();
        assert!(matches!(
            ActiveDatabase::new(program, Instance::new(), &i),
            Err(EvalError::WrongLanguage { .. })
        ));
    }

    /// Only the engine writes delta relations: a rule deriving one is
    /// rejected when the database is created, not at its first update.
    #[test]
    fn rules_deriving_a_delta_relation_are_rejected() {
        let mut i = Interner::new();
        let program = parse_program("ins-B(x) :- ins-A(x).", &mut i).unwrap();
        let result = ActiveDatabase::new(program, Instance::new(), &i);
        assert!(matches!(result, Err(EvalError::InvalidUpdate(_))));
    }

    fn arity_conflict(result: Result<ActiveReport, EvalError>) -> bool {
        matches!(
            result,
            Err(EvalError::Analysis(
                unchained_parser::AnalysisError::ArityConflict(_)
            ))
        )
    }

    /// A state relation the program reads with another arity.
    #[test]
    fn state_arity_conflicting_with_the_program_is_rejected() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- ins-H(x), G(x,y).", &mut i).unwrap();
        let (g, h) = (i.get("G").unwrap(), i.intern("H"));
        let mut state = Instance::new();
        state.insert_fact(g, Tuple::from([Value::Int(1)]));
        let mut db = ActiveDatabase::new(program, state, &i).unwrap();
        let result = db.apply(Update::insert(h, Tuple::from([Value::Int(1)])), &mut i);
        assert!(arity_conflict(result));
        assert_no_deltas(&db, &i);
    }

    /// An update whose relation's delta the program reads with another
    /// arity.
    #[test]
    fn update_arity_conflicting_with_a_delta_literal_is_rejected() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- ins-G(x,y).", &mut i).unwrap();
        let g = i.intern("G");
        let mut db = ActiveDatabase::new(program, Instance::new(), &i).unwrap();
        let result = db.apply(Update::insert(g, Tuple::from([Value::Int(2)])), &mut i);
        assert!(arity_conflict(result));
        assert!(db.state.is_empty());
    }

    /// An update fact of another arity than its state relation.
    #[test]
    fn update_arity_conflicting_with_the_state_is_rejected() {
        let mut i = Interner::new();
        let program = parse_program("log(x) :- ins-G(x).", &mut i).unwrap();
        let g = i.get("G").unwrap_or_else(|| i.intern("G"));
        let mut state = Instance::new();
        state.insert_fact(g, Tuple::from([Value::Int(1)]));
        let mut db = ActiveDatabase::new(program, state, &i).unwrap();
        let update = Update::insert(g, Tuple::from([Value::Int(2), Value::Int(3)]));
        assert!(arity_conflict(db.apply(update, &mut i)));
        assert_eq!(db.state.fact_count(), 1);
        assert_no_deltas(&db, &i);
    }
}
