//! # unchained-core
//!
//! The deterministic engine family of *Datalog Unchained* (Vianu, PODS
//! 2021): every deterministic semantics the paper surveys, over one
//! shared rule-evaluation substrate.
//!
//! | Engine | Paper | Expressiveness (Figure 1) |
//! |---|---|---|
//! | [`naive`], [`seminaive`] | §3.1 minimum model of Datalog | bottom of the hierarchy |
//! | [`stratified`] | §3.2 stratified Datalog¬ | strictly above Datalog |
//! | [`wellfounded`] | §3.3 well-founded (3-valued, alternating fixpoint) | ≡ fixpoint queries |
//! | [`inflationary`] | §4.1 forward chaining Datalog¬ | ≡ fixpoint queries |
//! | [`noninflationary`] | §4.2 Datalog¬¬ (retraction, updates) | ≡ while queries |
//! | [`invention`] | §4.3 Datalog¬new (value invention) | all computable queries |
//! | [`stable`] | §3.3 stable models (Gelfond–Lifschitz) | between WF true and possible |
//!
//! ## Quick example
//!
//! ```
//! use unchained_common::{Instance, Interner, Tuple, Value};
//! use unchained_parser::parse_program;
//! use unchained_core::{inflationary, EvalOptions};
//!
//! let mut interner = Interner::new();
//! let program = parse_program(
//!     "T(x,y) :- G(x,y).\n\
//!      T(x,y) :- G(x,z), T(z,y).",
//!     &mut interner,
//! ).unwrap();
//! let g = interner.get("G").unwrap();
//! let mut input = Instance::new();
//! input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
//! input.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));
//!
//! let run = inflationary::eval(&program, &input, EvalOptions::default()).unwrap();
//! let t = interner.get("T").unwrap();
//! assert!(run.instance.contains_fact(t, &Tuple::from([Value::Int(1), Value::Int(3)])));
//! ```

pub mod active;
pub mod error;
pub mod exec;
mod fixpoint;
pub mod inflationary;
pub mod invention;
pub mod ir;
pub mod ivm;
pub mod magic;
pub mod naive;
pub mod noninflationary;
pub mod options;
mod parallel;
pub mod planner;
pub mod provenance;
pub mod seminaive;
pub mod stable;
pub mod stratified;
pub mod subst;
pub mod wellfounded;

pub use error::EvalError;
pub use ivm::{IncrementalSession, PollStats};
pub use options::{EvalOptions, FixpointRun};
pub use planner::PlanMode;

use unchained_common::{Instance, Schema};
use unchained_parser::{classify, Language, Program};

/// `program`'s schema with the arity of every relation of `input`
/// declared into it: the one check, at engine entry, that the input
/// fits the program. A relation the program reads with another arity
/// is an [`ArityConflict`](unchained_common::schema::ArityConflict)
/// error, not a row of the wrong width for the executor to index.
pub fn input_schema(program: &Program, input: &Instance) -> Result<Schema, EvalError> {
    let mut schema = program.schema()?;
    for (pred, rel) in input.iter() {
        schema.declare(pred, rel.arity())?;
    }
    Ok(schema)
}

/// Checks that `program` classifies at or below `max` in the language
/// hierarchy (and that rules have the single-positive-head shape all
/// deterministic engines below Datalog¬¬ require).
pub(crate) fn require_language(program: &Program, max: Language) -> Result<(), EvalError> {
    let found = classify(program);
    if found > max {
        return Err(EvalError::WrongLanguage {
            engine_accepts: max,
            found,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;
    use unchained_parser::parse_program;

    #[test]
    fn require_language_orders_correctly() {
        let mut i = Interner::new();
        let datalog = parse_program("A(x) :- B(x).", &mut i).unwrap();
        assert!(require_language(&datalog, Language::Datalog).is_ok());
        assert!(require_language(&datalog, Language::DatalogNegNew).is_ok());
        let neg = parse_program("A(x) :- B(x), !A(x).", &mut i).unwrap();
        assert!(require_language(&neg, Language::Datalog).is_err());
        assert!(require_language(&neg, Language::DatalogNeg).is_ok());
    }
}
