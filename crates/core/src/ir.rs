//! The plan form every engine's rule bodies compile to.
//!
//! A rule body lowers (see [`crate::planner`]) into a flat list of
//! [`Step`]s in the owning rule's variable space: scans (index-nested
//! loop joins), equality binds, active-domain enumerations, negation
//! checks and comparisons, in execution order. The executor
//! ([`crate::exec`]) interprets that list, and [`Plan::render`] prints
//! it, so the rendered plan is exactly what runs.
//!
//! Delta-scan variants for semi-naive evaluation are ordinary step
//! lists whose recursive scan reads [`ScanSource::Delta`].

use std::fmt::Write as _;

use unchained_common::{Interner, Symbol};
use unchained_parser::{HeadLiteral, Rule, Term, Var};

/// Where a scan reads from: the full relation or the per-round delta
/// slice (semi-naive evaluation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScanSource {
    /// The full current relation.
    Full,
    /// The tuples added since the caller's
    /// [`DeltaHandle`](unchained_common::DeltaHandle) mark.
    Delta,
}

/// One step of a compiled rule body, in the owning rule's variable
/// space.
#[derive(Clone, Debug)]
pub enum Step {
    /// Probe `pred` on its `key` positions and bind the remaining
    /// positions.
    Scan {
        /// The relation scanned.
        pred: Symbol,
        /// The atom's argument terms.
        args: Vec<Term>,
        /// Positions whose value is known before the scan (constants and
        /// already-bound variables): the probe key.
        key: Vec<usize>,
        /// Full or delta relation.
        source: ScanSource,
        /// Set on a full scan after the first step whose key is its
        /// relation's leading columns, bound in the same order by the
        /// driver's (the first step's) leading columns. Its probe keys
        /// then come in the driver's storage order, ascending over each
        /// sorted run, so the executor may seek its rows in sorted
        /// storage from the last probe's ([`Relation::prefix_span`])
        /// instead of through a hash index.
        ///
        /// [`Relation::prefix_span`]: unchained_common::Relation::prefix_span
        seek: bool,
    },
    /// Bind `var` to the value of `term` (which the plan guarantees is
    /// evaluable here).
    BindEq {
        /// The variable being bound.
        var: Var,
        /// Its defining term.
        term: Term,
    },
    /// Enumerate `var` over the active domain.
    Domain {
        /// The variable enumerated.
        var: Var,
    },
    /// Check that `pred(args)` is absent.
    CheckNeg {
        /// The negated relation.
        pred: Symbol,
        /// Argument terms (all bound here).
        args: Vec<Term>,
    },
    /// Check `(left = right) == equal`.
    CheckCmp {
        /// Left term.
        left: Term,
        /// Right term.
        right: Term,
        /// Equality (`true`) or inequality (`false`).
        equal: bool,
    },
}

/// A compiled rule body: the steps the executor runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Ordered steps.
    pub steps: Vec<Step>,
    /// Number of variables in the owning rule (environment size).
    pub var_count: usize,
}

impl Plan {
    /// Renders the steps in execution order, one per line, naming
    /// values by `rule`'s own variables. The first step's scan reads
    /// `scan`, later ones `join`; a key column reads `=t`, a column
    /// repeating a variable bound earlier in the same atom `?x`, a delta
    /// scan ends in `Δ`, and a scan marked to seek sorted storage in
    /// `seek`. When `rule` has a single positive head
    /// whose variables the steps bind, a closing `project` line names
    /// the emitted tuple; a plan with no line at all renders `unit`.
    pub fn render(&self, rule: &Rule, interner: &Interner) -> String {
        let term = |t: &Term| match t {
            Term::Var(v) => rule.var_names[v.index()].clone(),
            Term::Const(c) => c.display(interner).to_string(),
        };
        let terms = |args: &[Term]| args.iter().map(term).collect::<Vec<_>>().join(", ");
        let mut bound = vec![false; self.var_count];
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let _ = match step {
                Step::Scan {
                    pred,
                    args,
                    key,
                    source,
                    seek,
                } => {
                    let cols: Vec<String> = args
                        .iter()
                        .enumerate()
                        .map(|(p, t)| {
                            let seen = t
                                .as_var()
                                .is_some_and(|v| std::mem::replace(&mut bound[v.index()], true));
                            if key.contains(&p) {
                                format!("={}", term(t))
                            } else if seen {
                                format!("?{}", term(t))
                            } else {
                                term(t)
                            }
                        })
                        .collect();
                    writeln!(
                        out,
                        "{} {}({}){}{}",
                        if i == 0 { "scan" } else { "join" },
                        interner.name(*pred),
                        cols.join(", "),
                        if *source == ScanSource::Delta {
                            " Δ"
                        } else {
                            ""
                        },
                        if *seek { " seek" } else { "" }
                    )
                }
                Step::BindEq { var, term: t } => {
                    bound[var.index()] = true;
                    writeln!(out, "bind {} := {}", rule.var_names[var.index()], term(t))
                }
                Step::Domain { var } => {
                    bound[var.index()] = true;
                    writeln!(out, "domain {}", rule.var_names[var.index()])
                }
                Step::CheckNeg { pred, args } => {
                    writeln!(out, "antijoin !{}({})", interner.name(*pred), terms(args))
                }
                Step::CheckCmp { left, right, equal } => writeln!(
                    out,
                    "select {} {} {}",
                    term(left),
                    if *equal { "=" } else { "!=" },
                    term(right)
                ),
            };
        }
        if let [HeadLiteral::Pos(head)] = &rule.head[..] {
            if head.vars().all(|v| bound[v.index()]) {
                let _ = writeln!(
                    out,
                    "project {}({})",
                    interner.name(head.pred),
                    terms(&head.args)
                );
            }
        }
        if out.is_empty() {
            out.push_str("unit\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Catalog, PlanMode, Planner};
    use unchained_parser::parse_program;

    #[test]
    fn render_shows_scan_join_and_delta() {
        let mut interner = Interner::new();
        let program = parse_program("T(x,y) :- G(x,z), T(z,y).", &mut interner).unwrap();
        let rule = &program.rules[0];
        let [Some(g), Some(t)] = [interner.get("G"), interner.get("T")] else {
            panic!("parsed program interns G and T");
        };
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let plan = Plan {
            steps: vec![
                Step::Scan {
                    pred: g,
                    args: vec![Term::Var(x), Term::Var(z)],
                    key: vec![],
                    source: ScanSource::Full,
                    seek: false,
                },
                Step::Scan {
                    pred: t,
                    args: vec![Term::Var(z), Term::Var(y)],
                    key: vec![0],
                    source: ScanSource::Delta,
                    seek: false,
                },
            ],
            var_count: rule.var_count(),
        };
        assert_eq!(
            plan.render(rule, &interner),
            "scan G(x, z)\njoin T(=z, y) Δ\nproject T(x, y)\n"
        );
    }

    /// Every step form, as the planner emits it for one rule and its
    /// Δ variant: a repeated-variable check, key columns (the join on
    /// the driver's leading column marked `seek`), a select and
    /// a bind as soon as their variables are bound, a domain for the
    /// variable only the negation mentions, then the antijoin.
    #[test]
    fn render_pins_every_step_form() {
        let mut interner = Interner::new();
        let program = parse_program(
            "H(x, w) :- G(x, x), T(x, y), !N(y, u), y != 1, w = y.",
            &mut interner,
        )
        .unwrap();
        let rule = &program.rules[0];
        let t = interner.get("T").unwrap();
        let mut planner = Planner::new(Catalog::empty(), PlanMode::Cost);
        assert_eq!(
            planner.plan_rule(rule).render(rule, &interner),
            "scan G(x, ?x)\njoin T(=x, y) seek\nselect y != 1\nbind w := y\n\
             domain u\nantijoin !N(y, u)\nproject H(x, w)\n"
        );
        let variants = planner.seminaive_variants(rule, &|p| p == t);
        assert_eq!(
            variants[0].render(rule, &interner),
            "scan T(x, y) Δ\nselect y != 1\nbind w := y\njoin G(=x, =x)\n\
             domain u\nantijoin !N(y, u)\nproject H(x, w)\n"
        );
        // A head variable no step binds (an invented value) gets no
        // projection, and an empty plan renders as the unit relation.
        let program = parse_program("P(x, n) :- G(x, x).\nQ :- .", &mut interner).unwrap();
        let invented = &program.rules[0];
        assert_eq!(
            planner.plan_rule(invented).render(invented, &interner),
            "scan G(x, ?x)\n"
        );
        let unit = &program.rules[1];
        assert_eq!(
            planner.plan_rule(unit).render(unit, &interner),
            "project Q()\n"
        );
    }
}
