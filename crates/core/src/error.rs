//! Errors produced by the evaluation engines.

use std::fmt;
use unchained_parser::{AnalysisError, Language};

/// An evaluation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// The program failed a syntactic precondition (range restriction,
    /// stratifiability, arity consistency, …).
    Analysis(AnalysisError),
    /// The program belongs to a language the engine does not implement
    /// (e.g. a Datalog¬¬ program handed to the inflationary engine).
    WrongLanguage {
        /// The most expressive language the engine accepts.
        engine_accepts: Language,
        /// What the program classified as.
        found: Language,
    },
    /// A noninflationary computation revisited a previous state and will
    /// therefore never reach a fixpoint (like the flip-flop program of
    /// Section 4.2).
    Diverged {
        /// Stage at which the repeated state was re-entered.
        stage: usize,
        /// Length of the cycle (stage − first occurrence).
        period: usize,
    },
    /// The configured stage budget was exhausted without reaching a
    /// fixpoint (or detecting a cycle).
    StageLimitExceeded(usize),
    /// The configured fact budget was exhausted (only reachable with
    /// value invention, which can grow instances without bound).
    FactLimitExceeded(usize),
    /// Simultaneous inference of `A` and `¬A` under the
    /// [`ConflictPolicy::Undefined`](crate::noninflationary::ConflictPolicy)
    /// semantics.
    Contradiction {
        /// Stage at which the contradiction occurred.
        stage: usize,
    },
    /// An update was rejected. An incremental session's edits must
    /// target EDB relations with schema-consistent arities, and its
    /// initial instance must not already contain IDB facts; only an
    /// active database's trigger engine writes its delta relations.
    InvalidUpdate(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Analysis(e) => write!(f, "{e}"),
            EvalError::WrongLanguage {
                engine_accepts,
                found,
            } => write!(
                f,
                "program is in {found}, but this engine accepts at most {engine_accepts}"
            ),
            EvalError::Diverged { stage, period } => write!(
                f,
                "computation diverges: state at stage {stage} repeats with period {period}"
            ),
            EvalError::StageLimitExceeded(n) => {
                write!(f, "stage limit of {n} exceeded without reaching a fixpoint")
            }
            EvalError::FactLimitExceeded(n) => write!(f, "fact limit of {n} exceeded"),
            EvalError::Contradiction { stage } => write!(
                f,
                "A and ¬A inferred simultaneously at stage {stage} (undefined semantics)"
            ),
            EvalError::InvalidUpdate(msg) => write!(f, "invalid update: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<AnalysisError> for EvalError {
    fn from(e: AnalysisError) -> Self {
        EvalError::Analysis(e)
    }
}

impl From<unchained_common::schema::ArityConflict> for EvalError {
    fn from(e: unchained_common::schema::ArityConflict) -> Self {
        EvalError::Analysis(AnalysisError::ArityConflict(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = EvalError::Diverged {
            stage: 7,
            period: 2,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('2'));
        let e = EvalError::WrongLanguage {
            engine_accepts: Language::DatalogNeg,
            found: Language::DatalogNegNeg,
        };
        assert!(e.to_string().contains("Datalog¬¬"));
    }
}
