//! # unchained-parser
//!
//! Syntax for the whole *Datalog Unchained* language family: an AST
//! covering Datalog, Datalog¬, Datalog¬¬, Datalog¬new and the
//! nondeterministic variants (multi-literal heads, equalities, `⊥`,
//! `forall`); a lexer and parser for a concrete text syntax (accepting
//! both ASCII `:-`/`!` and the paper's `←`/`¬`/`∀`/`⊥` notation); and
//! static analysis (range restriction, positive binding, dependency
//! graph, stratification, language classification).
//!
//! ## Example
//!
//! ```
//! use unchained_common::Interner;
//! use unchained_parser::{parse_program, classify, Language};
//!
//! let mut interner = Interner::new();
//! let program = parse_program(
//!     "T(x,y) :- G(x,y).\n\
//!      T(x,y) :- G(x,z), T(z,y).",
//!     &mut interner,
//! ).unwrap();
//! assert_eq!(classify(&program), Language::Datalog);
//! ```

pub mod analysis;
pub mod ast;
pub mod lexer;
pub mod parser;

pub use analysis::{
    check_positively_bound, check_range_restricted, classify, features, AnalysisError,
    DependencyGraph, Features, Language, Stratification,
};
pub use ast::{Atom, HeadLiteral, Literal, Program, Rule, Term, Var};
pub use lexer::{lex, LexError, Lexer, Pos, Token, TokenKind};
pub use parser::{parse_facts, parse_program, ParseError};
