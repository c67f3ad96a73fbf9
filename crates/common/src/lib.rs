//! # unchained-common
//!
//! The relational substrate shared by every engine in the `unchained`
//! workspace: domain values and string interning, tuples, relations with
//! hash indexes, database instances, and a handful of small utilities
//! (fast hashing, deterministic fingerprints).
//!
//! The model follows Section 2 of *Datalog Unchained* (Vianu, PODS 2021):
//!
//! * a **relation schema** is a relation symbol with an arity (we use
//!   positional attributes rather than named ones, as is standard in
//!   Datalog implementations);
//! * an **instance** over a relation schema is a finite set of constant
//!   tuples of that arity;
//! * an **instance over a database schema** maps each relation symbol to a
//!   relation instance;
//! * the **active domain** `adom(I)` of an instance is the set of domain
//!   elements occurring in it.
//!
//! Only finite instances are representable, matching the paper's setting.

pub mod columnar;
pub mod error;
pub mod hash;
pub mod instance;
pub mod interner;
pub mod json;
pub mod metrics;
pub mod relation;
pub mod rng;
pub mod schema;
pub mod space;
pub mod telemetry;
pub mod trace;
pub mod tuple;
pub mod value;

pub use columnar::{ColumnSegment, Rows};
pub use error::CommonError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use instance::{DeltaHandle, FrozenFacts, Instance};
pub use interner::{Interner, Symbol};
pub use json::{Json, JsonError};
pub use metrics::{metrics, Registry, TIME_BUCKETS};
pub use relation::{Generation, Index, Relation};
pub use rng::Rng;
pub use schema::{RelationSchema, Schema};
pub use space::{
    fmt_bytes, tuple_bytes, HeapSize, SpaceNode, SpaceReport, POSTING_BYTES, SLOT_BYTES,
};
pub use telemetry::{
    DivergenceSnapshot, EvalTrace, JoinCounters, StageRecord, Stopwatch, Telemetry,
};
pub use trace::{
    gauge_tree, hottest_rules, sum_gauge, to_chrome_json, validate_chrome_trace, Span, SpanGuard,
    SpanKind, Tracer,
};
pub use tuple::{Row, Tuple};
pub use value::Value;
