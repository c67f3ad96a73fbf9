//! # unchained-harness
//!
//! The experiment harness for reproducing *Datalog Unchained*:
//!
//! * [`generators`] — deterministic instance families (lines, cycles,
//!   random digraphs, game boards, symmetric-pair graphs, unary
//!   relations);
//! * [`oracles`] — direct reference implementations of the queries the
//!   paper's examples compute (transitive closure and its complement,
//!   BFS distances, cycle reachability, the win-move game solution,
//!   evenness, orientation validity);
//! * [`programs`] — the paper's programs, verbatim, as parseable text;
//! * [`ordered`] — ordered-database support (`succ`/`lt`/`min`/`max`,
//!   Section 4.5).

pub mod generators;
pub mod oracles;
pub mod ordered;
pub mod programs;

pub use oracles::GameValue;
