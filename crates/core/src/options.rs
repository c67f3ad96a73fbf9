//! Evaluation options and result types shared by the engines.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use unchained_common::{Instance, Telemetry};
use unchained_parser::Program;

use crate::planner::PlanMode;

/// Default worker-thread count: `UNCHAINED_THREADS` from the environment
/// (read once per process), else 1. Letting the env var steer the default
/// means `UNCHAINED_THREADS=4 cargo test` exercises the parallel rounds
/// across the whole suite without touching any call site.
fn default_threads() -> NonZeroUsize {
    static DEFAULT: OnceLock<NonZeroUsize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("UNCHAINED_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(NonZeroUsize::MIN)
    })
}

/// Default [`EvalOptions::morsel_size`]: small enough to load-balance
/// skewed rounds across workers, large enough that the shared-queue
/// fetch is noise next to the per-row join work.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

/// Budgets and knobs for an evaluation run.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Maximum number of stages (applications of the immediate
    /// consequence operator) before giving up with
    /// [`EvalError::StageLimitExceeded`](crate::EvalError).
    pub max_stages: Option<usize>,
    /// Maximum total number of facts before giving up with
    /// [`EvalError::FactLimitExceeded`](crate::EvalError). Only value
    /// invention can grow an instance beyond polynomial bounds, but the
    /// limit is enforced wherever set.
    pub max_facts: Option<usize>,
    /// Telemetry handle. Disabled by default; cloning the options clones
    /// the handle, so all clones record the same runs.
    pub telemetry: Telemetry,
    /// Worker threads for every engine on the stage driver
    /// ([`crate::fixpoint`]): each stage fires its plans in morsels
    /// across this many workers. 1 (the default, unless
    /// `UNCHAINED_THREADS` overrides it) keeps evaluation strictly
    /// sequential; output is byte-identical for every value.
    pub threads: NonZeroUsize,
    /// Maximum driver rows per morsel for the parallel executor: each
    /// parallel stage is cut into contiguous driver-row ranges of at
    /// most this many rows, pulled by workers from a shared queue.
    /// Output is byte-identical for every value (the morsel partition
    /// is deterministic and schedule-independent); the knob trades
    /// scheduling overhead against load balance. Ignored at 1 thread.
    pub morsel_size: usize,
    /// How rule bodies are ordered by the planner. [`PlanMode::Cost`]
    /// (the default) orders joins by catalog cardinalities;
    /// [`PlanMode::Syntactic`] keeps the historical most-bound-first
    /// order and exists as the differential-fuzzing reference leg.
    pub plan_mode: PlanMode,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_stages: None,
            max_facts: None,
            telemetry: Telemetry::off(),
            threads: default_threads(),
            morsel_size: DEFAULT_MORSEL_SIZE,
            plan_mode: PlanMode::default(),
        }
    }
}

impl EvalOptions {
    /// Options with a stage budget.
    pub fn with_max_stages(mut self, n: usize) -> Self {
        self.max_stages = Some(n);
        self
    }

    /// Options with a fact budget.
    pub fn with_max_facts(mut self, n: usize) -> Self {
        self.max_facts = Some(n);
        self
    }

    /// Options feeding the given telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Options with the given worker-thread count (`n == 0` is clamped
    /// to 1, i.e. sequential).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN);
        self
    }

    /// Options with the given morsel size (`n == 0` is clamped to 1).
    pub fn with_morsel_size(mut self, n: usize) -> Self {
        self.morsel_size = n.max(1);
        self
    }

    /// Options with the given planning mode.
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }
}

/// The result of a terminating fixpoint computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixpointRun {
    /// The final instance over `sch(P)` (input relations included).
    pub instance: Instance,
    /// Number of stages performed, counting the stage that detects the
    /// fixpoint (so a program that infers nothing still takes 1 stage).
    pub stages: usize,
}

impl FixpointRun {
    /// The *image* (answer) of the program: the final instance restricted
    /// to the idb relations, as defined in Section 4.1 of the paper.
    pub fn answer(&self, program: &Program) -> Instance {
        self.instance.project_schema(program.idb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_builders() {
        let o = EvalOptions::default()
            .with_max_stages(5)
            .with_max_facts(100);
        assert_eq!(o.max_stages, Some(5));
        assert_eq!(o.max_facts, Some(100));
    }

    #[test]
    fn default_has_no_budgets() {
        let o = EvalOptions::default();
        assert!(o.max_stages.is_none() && o.max_facts.is_none());
    }

    #[test]
    fn morsel_size_builder_clamps_zero() {
        assert_eq!(EvalOptions::default().morsel_size, DEFAULT_MORSEL_SIZE);
        assert_eq!(EvalOptions::default().with_morsel_size(0).morsel_size, 1);
        assert_eq!(EvalOptions::default().with_morsel_size(64).morsel_size, 64);
    }

    #[test]
    fn thread_builder_clamps_zero_to_sequential() {
        assert_eq!(EvalOptions::default().with_threads(4).threads.get(), 4);
        assert_eq!(EvalOptions::default().with_threads(0).threads.get(), 1);
    }

    /// `EvalOptions` must be shareable by reference across scoped worker
    /// threads (it carries the telemetry handle into them).
    #[test]
    fn options_are_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<EvalOptions>();
    }
}
