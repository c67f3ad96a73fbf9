//! # unchained
//!
//! A family of Datalog engines with declarative and forward-chaining
//! (procedural) semantics, reproducing the languages surveyed in
//! *Datalog Unchained* (Victor Vianu, PODS 2021).
//!
//! This facade crate re-exports the workspace crates under stable names:
//!
//! * [`common`] — relational substrate (values, tuples, relations, instances)
//! * [`fo`] — relational algebra and first-order (calculus) evaluation
//! * [`parser`] — Datalog syntax, AST and program analysis
//! * [`core`] — the deterministic semantics family (naive, semi-naive,
//!   stratified, well-founded, inflationary, Datalog¬¬, Datalog¬new)
//! * [`nondet`] — the nondeterministic semantics family (N-Datalog¬(¬),
//!   N-Datalog¬⊥, N-Datalog¬∀, N-Datalog¬new, poss/cert)
//! * [`while_lang`] — the imperative while / fixpoint comparator languages
//! * [`exchange`] — peer-to-peer data exchange with forward-chaining
//!   rules (Webdamlog-style, Section 6)
//! * [`harness`] — workload generators, oracles, the paper's programs and
//!   ordered-database support
//! * [`bench`] — the in-repo benchmark harness (workload registry,
//!   BENCH.json emitter, baseline comparator)
//! * [`fuzz`] — deterministic differential fuzzing (campaign oracle
//!   matrix, delta-debugging shrinker, repro corpus, FUZZ.json)
pub use unchained_bench as bench;
pub use unchained_common as common;
pub use unchained_core as core;
pub use unchained_exchange as exchange;
pub use unchained_fo as fo;
pub use unchained_fuzz as fuzz;
pub use unchained_harness as harness;
pub use unchained_nondet as nondet;
pub use unchained_parser as parser;
pub use unchained_while as while_lang;
