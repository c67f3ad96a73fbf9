//! Static analysis of rule programs: range restriction (safety),
//! positive-binding checks, the predicate dependency graph,
//! stratification, and classification into the paper's language family.

use crate::ast::{HeadLiteral, Literal, Program, Rule, Term, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use unchained_common::Symbol;

/// An analysis error (program rejected by a language's syntactic
/// conditions).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnalysisError {
    /// A head variable does not occur in the body at all (illegal in
    /// every language except Datalog¬new, where such variables denote
    /// invented values).
    UnrestrictedHeadVar {
        /// Index of the offending rule in the program.
        rule: usize,
        /// The variable's name.
        var: String,
    },
    /// A head variable is not *positively bound* in the body, violating
    /// Definition 5.1's condition for the nondeterministic languages.
    HeadVarNotPositivelyBound {
        /// Index of the offending rule in the program.
        rule: usize,
        /// The variable's name.
        var: String,
    },
    /// A universally quantified variable also occurs in the head.
    ForallVarInHead {
        /// Index of the offending rule in the program.
        rule: usize,
        /// The variable's name.
        var: String,
    },
    /// The program has recursion through negation, so it is not
    /// stratifiable.
    NotStratifiable {
        /// A predicate in an SCC with an internal negative edge.
        witness: Symbol,
    },
    /// One relation symbol is used with two different arities.
    ArityConflict(unchained_common::schema::ArityConflict),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnrestrictedHeadVar { rule, var } => write!(
                f,
                "rule {rule}: head variable `{var}` does not occur in the body"
            ),
            AnalysisError::HeadVarNotPositivelyBound { rule, var } => write!(
                f,
                "rule {rule}: head variable `{var}` is not positively bound in the body"
            ),
            AnalysisError::ForallVarInHead { rule, var } => write!(
                f,
                "rule {rule}: universally quantified variable `{var}` occurs in the head"
            ),
            AnalysisError::NotStratifiable { witness } => write!(
                f,
                "program is not stratifiable (recursion through negation involving {witness:?})"
            ),
            AnalysisError::ArityConflict(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<unchained_common::schema::ArityConflict> for AnalysisError {
    fn from(c: unchained_common::schema::ArityConflict) -> Self {
        AnalysisError::ArityConflict(c)
    }
}

/// Checks the paper's range-restriction condition for the deterministic
/// languages: *every variable occurring in a rule head also occurs in the
/// rule body* (in any literal — negative literals and (in)equalities
/// count, because the procedural semantics valuates variables over the
/// whole active domain).
///
/// Variables occurring in the head only are permitted when
/// `allow_invention` is set (Datalog¬new).
pub fn check_range_restricted(
    program: &Program,
    allow_invention: bool,
) -> Result<(), AnalysisError> {
    for (idx, rule) in program.rules.iter().enumerate() {
        if allow_invention {
            continue;
        }
        let body: BTreeSet<Var> = rule.body_vars().into_iter().collect();
        for v in rule.head_vars() {
            if !body.contains(&v) {
                return Err(AnalysisError::UnrestrictedHeadVar {
                    rule: idx,
                    var: rule.var_names[v.index()].clone(),
                });
            }
        }
    }
    Ok(())
}

/// Variables of `rule` that are *positively bound*: they occur in a
/// positive relational atom, or are connected to a constant or to a
/// positively bound variable through a chain of positive equalities.
pub fn positively_bound_vars(rule: &Rule) -> BTreeSet<Var> {
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    for lit in &rule.body {
        if let Literal::Pos(atom) = lit {
            bound.extend(atom.vars());
        }
    }
    // Propagate through equalities until a fixpoint.
    loop {
        let mut changed = false;
        for lit in &rule.body {
            if let Literal::Eq(s, t) = lit {
                let s_bound = match s {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                let t_bound = match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                if s_bound && !t_bound {
                    if let Term::Var(v) = t {
                        changed |= bound.insert(*v);
                    }
                }
                if t_bound && !s_bound {
                    if let Term::Var(v) = s {
                        changed |= bound.insert(*v);
                    }
                }
            }
        }
        if !changed {
            return bound;
        }
    }
}

/// Checks Definition 5.1's condition for the nondeterministic languages:
/// every head variable is positively bound in the body. Also checks that
/// `forall` variables do not occur in heads.
///
/// With `allow_invention` (N-Datalog¬new), head-only variables are
/// exempt.
pub fn check_positively_bound(
    program: &Program,
    allow_invention: bool,
) -> Result<(), AnalysisError> {
    for (idx, rule) in program.rules.iter().enumerate() {
        let bound = positively_bound_vars(rule);
        let body: BTreeSet<Var> = rule.body_vars().into_iter().collect();
        let forall: BTreeSet<Var> = rule.forall.iter().copied().collect();
        for v in rule.head_vars() {
            if forall.contains(&v) {
                return Err(AnalysisError::ForallVarInHead {
                    rule: idx,
                    var: rule.var_names[v.index()].clone(),
                });
            }
            if bound.contains(&v) {
                continue;
            }
            if allow_invention && !body.contains(&v) {
                continue; // invented-value variable
            }
            return Err(AnalysisError::HeadVarNotPositivelyBound {
                rule: idx,
                var: rule.var_names[v.index()].clone(),
            });
        }
    }
    Ok(())
}

/// An edge of the predicate dependency graph: the head predicate depends
/// on the body predicate, positively or negatively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// The predicate being defined (head).
    pub head: Symbol,
    /// The predicate it reads (body).
    pub body: Symbol,
    /// True if `body` occurs under negation in some rule defining `head`.
    pub negative: bool,
}

/// The predicate dependency graph of a program.
///
/// Head predicates depend on every predicate in the same rule's body.
/// Negative head literals (Datalog¬¬ deletions) also record dependencies,
/// marked negative, because a deletion's effect is non-monotone.
#[derive(Clone, Default, Debug)]
pub struct DependencyGraph {
    /// `deps[p]` = set of (dependency, is_negative) pairs for predicate
    /// `p`. A dependency can be recorded both positively and negatively.
    deps: BTreeMap<Symbol, BTreeSet<(Symbol, bool)>>,
    nodes: BTreeSet<Symbol>,
}

impl DependencyGraph {
    /// Builds the dependency graph of `program`.
    pub fn build(program: &Program) -> Self {
        let mut graph = DependencyGraph::default();
        for rule in &program.rules {
            for lit in &rule.body {
                if let Some(atom) = lit.atom() {
                    graph.nodes.insert(atom.pred);
                }
            }
            for head in &rule.head {
                let Some(head_atom) = head.atom() else {
                    continue;
                };
                graph.nodes.insert(head_atom.pred);
                let head_negative = matches!(head, HeadLiteral::Neg(_));
                for lit in &rule.body {
                    let (pred, lit_negative) = match lit {
                        Literal::Pos(a) => (a.pred, false),
                        Literal::Neg(a) => (a.pred, true),
                        _ => continue,
                    };
                    graph
                        .deps
                        .entry(head_atom.pred)
                        .or_default()
                        .insert((pred, lit_negative || head_negative));
                }
            }
        }
        graph
    }

    /// All predicates mentioned by the program.
    pub fn nodes(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.nodes.iter().copied()
    }

    /// The dependencies of `pred` as `(dependency, negative)` pairs.
    pub fn dependencies(&self, pred: Symbol) -> impl Iterator<Item = (Symbol, bool)> + '_ {
        self.deps.get(&pred).into_iter().flatten().copied()
    }

    /// Computes a stratification: a map from predicate to stratum number
    /// such that positive dependencies stay within or below the stratum
    /// and negative dependencies come strictly below. Returns an error if
    /// the program has recursion through negation.
    ///
    /// Uses Bellman-Ford-style level relaxation, failing once a level
    /// exceeds the number of predicates (which certifies a negative
    /// cycle).
    pub fn stratify(&self) -> Result<Stratification, AnalysisError> {
        let mut level: BTreeMap<Symbol, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        let max = self.nodes.len();
        loop {
            let mut changed = false;
            for (&head, deps) in &self.deps {
                for &(body, negative) in deps {
                    let need = level[&body] + usize::from(negative);
                    if level[&head] < need {
                        if need > max {
                            return Err(AnalysisError::NotStratifiable { witness: head });
                        }
                        level.insert(head, need);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let strata_count = level.values().max().map_or(0, |&m| m + 1);
        Ok(Stratification {
            level,
            strata_count,
        })
    }
}

/// A stratification of a program's predicates.
#[derive(Clone, Debug)]
pub struct Stratification {
    level: BTreeMap<Symbol, usize>,
    strata_count: usize,
}

impl Stratification {
    /// The stratum of a predicate (0 if unknown to the program).
    pub fn stratum(&self, pred: Symbol) -> usize {
        self.level.get(&pred).copied().unwrap_or(0)
    }

    /// The number of strata.
    pub fn strata_count(&self) -> usize {
        self.strata_count
    }

    /// Partitions the rules of a program by the stratum of their (single,
    /// positive) head predicate. Index `i` of the result holds the
    /// program indices of the rules of stratum `i`, in program order.
    pub fn partition_rules(&self, program: &Program) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.strata_count.max(1)];
        for (ri, rule) in program.rules.iter().enumerate() {
            if let Some(atom) = rule.head.first().and_then(HeadLiteral::atom) {
                out[self.stratum(atom.pred)].push(ri);
            }
        }
        out
    }
}

/// Syntactic feature flags of a program, used to classify it into the
/// paper's language family.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Features {
    /// Some body literal is negated.
    pub body_negation: bool,
    /// Some head literal is negated (Datalog¬¬ retraction).
    pub head_negation: bool,
    /// Some rule has more than one head literal (N-Datalog¬¬).
    pub multi_head: bool,
    /// Some rule derives `⊥` (N-Datalog¬⊥).
    pub bottom: bool,
    /// Some rule has a `forall` prefix (N-Datalog¬∀).
    pub forall: bool,
    /// Some rule invents values (head-only variables, Datalog¬new).
    pub invention: bool,
    /// Some body literal is an (in)equality.
    pub equality: bool,
    /// Some body literal is a `choice` constraint (LDL-style).
    pub choice: bool,
}

/// Computes the syntactic [`Features`] of a program.
pub fn features(program: &Program) -> Features {
    let mut f = Features::default();
    for rule in &program.rules {
        if rule.head.len() > 1 {
            f.multi_head = true;
        }
        if !rule.forall.is_empty() {
            f.forall = true;
        }
        if !rule.invented_vars().is_empty() {
            f.invention = true;
        }
        for h in &rule.head {
            match h {
                HeadLiteral::Neg(_) => f.head_negation = true,
                HeadLiteral::Bottom => f.bottom = true,
                HeadLiteral::Pos(_) => {}
            }
        }
        for l in &rule.body {
            match l {
                Literal::Neg(_) => f.body_negation = true,
                Literal::Eq(..) | Literal::Neq(..) => f.equality = true,
                Literal::Choice(..) => f.choice = true,
                Literal::Pos(_) => {}
            }
        }
    }
    f
}

/// The language a program (syntactically) belongs to, from most to least
/// restrictive. This mirrors the family of Figure 1 in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Language {
    /// Pure positive Datalog.
    Datalog,
    /// Datalog¬ where negation is applied only to edb predicates.
    SemipositiveDatalogNeg,
    /// Datalog¬ without recursion through negation.
    StratifiedDatalogNeg,
    /// Full Datalog¬ (body negation, single positive heads).
    DatalogNeg,
    /// Datalog¬¬ (negations in heads: retraction / updates).
    DatalogNegNeg,
    /// Datalog¬new (value invention).
    DatalogNegNew,
    /// Requires a nondeterministic language (multi-head, equality, `⊥`
    /// or `forall`).
    Nondeterministic,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Language::Datalog => "Datalog",
            Language::SemipositiveDatalogNeg => "semipositive Datalog¬",
            Language::StratifiedDatalogNeg => "stratified Datalog¬",
            Language::DatalogNeg => "Datalog¬",
            Language::DatalogNegNeg => "Datalog¬¬",
            Language::DatalogNegNew => "Datalog¬new",
            Language::Nondeterministic => "N-Datalog (nondeterministic family)",
        };
        f.write_str(s)
    }
}

/// Classifies a program into the most restrictive language of the family
/// that (syntactically) contains it.
pub fn classify(program: &Program) -> Language {
    let f = features(program);
    if f.multi_head || f.bottom || f.forall || f.equality || f.choice {
        return Language::Nondeterministic;
    }
    if f.invention {
        return Language::DatalogNegNew;
    }
    if f.head_negation {
        return Language::DatalogNegNeg;
    }
    if !f.body_negation {
        return Language::Datalog;
    }
    // Distinguish semipositive / stratified / full Datalog¬.
    let idb: BTreeSet<Symbol> = program.idb().into_iter().collect();
    let negates_idb = program.rules.iter().any(|r| {
        r.body.iter().any(|l| match l {
            Literal::Neg(a) => idb.contains(&a.pred),
            _ => false,
        })
    });
    if !negates_idb {
        return Language::SemipositiveDatalogNeg;
    }
    let graph = DependencyGraph::build(program);
    if graph.stratify().is_ok() {
        Language::StratifiedDatalogNeg
    } else {
        Language::DatalogNeg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use unchained_common::Interner;

    fn program(src: &str) -> (Program, Interner) {
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).unwrap();
        (p, i)
    }

    #[test]
    fn classify_pure_datalog() {
        let (p, _) = program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).");
        assert_eq!(classify(&p), Language::Datalog);
    }

    #[test]
    fn classify_semipositive() {
        // Negation applied only to the edb predicate G.
        let (p, _) = program("NG(x,y) :- V(x), V(y), !G(x,y).");
        assert_eq!(classify(&p), Language::SemipositiveDatalogNeg);
    }

    #[test]
    fn classify_stratified() {
        let (p, _) = program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y).");
        assert_eq!(classify(&p), Language::StratifiedDatalogNeg);
    }

    #[test]
    fn classify_unstratifiable() {
        let (p, _) = program("win(x) :- moves(x,y), !win(y).");
        assert_eq!(classify(&p), Language::DatalogNeg);
    }

    #[test]
    fn classify_updates_and_invention_and_nondet() {
        let (p, _) = program("!T(1) :- T(1).");
        assert_eq!(classify(&p), Language::DatalogNegNeg);
        let (p, _) = program("P(x, n) :- Q(x).");
        assert_eq!(classify(&p), Language::DatalogNegNew);
        let (p, _) = program("A(x), B(x) :- C(x).");
        assert_eq!(classify(&p), Language::Nondeterministic);
        let (p, _) = program("A(x) :- forall y : C(x), !D(x,y).");
        assert_eq!(classify(&p), Language::Nondeterministic);
        let (p, _) = program("bottom :- C(x).");
        assert_eq!(classify(&p), Language::Nondeterministic);
        let (p, _) = program("A(x) :- C(x,y), x = y.");
        assert_eq!(classify(&p), Language::Nondeterministic);
    }

    #[test]
    fn stratification_levels() {
        let (p, i) = program(
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y). D(x) :- CT(x,x).",
        );
        let strat = DependencyGraph::build(&p).stratify().unwrap();
        let t = i.get("T").unwrap();
        let ct = i.get("CT").unwrap();
        let d = i.get("D").unwrap();
        let g = i.get("G").unwrap();
        assert_eq!(strat.stratum(g), 0);
        assert_eq!(strat.stratum(t), 0);
        assert_eq!(strat.stratum(ct), 1);
        assert_eq!(strat.stratum(d), 1);
        assert_eq!(strat.strata_count(), 2);
    }

    #[test]
    fn stratify_rejects_negative_cycle() {
        let (p, _) = program("A(x) :- B(x), !C(x). C(x) :- A(x).");
        assert!(DependencyGraph::build(&p).stratify().is_err());
    }

    #[test]
    fn partition_rules_by_stratum() {
        let (p, _) = program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- !T(x,y).");
        let strat = DependencyGraph::build(&p).stratify().unwrap();
        let parts = strat.partition_rules(&p);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
    }

    #[test]
    fn range_restriction() {
        let (p, _) = program("A(x,y) :- B(x).");
        assert!(matches!(
            check_range_restricted(&p, false),
            Err(AnalysisError::UnrestrictedHeadVar { .. })
        ));
        assert!(check_range_restricted(&p, true).is_ok());
        // Negative literals count for range restriction (CT example).
        let (p, _) = program("CT(x,y) :- !T(x,y).");
        assert!(check_range_restricted(&p, false).is_ok());
    }

    #[test]
    fn positive_binding() {
        // Head var bound only by a negative literal: rejected for N-Datalog.
        let (p, _) = program("A(x) :- !B(x).");
        assert!(matches!(
            check_positively_bound(&p, false),
            Err(AnalysisError::HeadVarNotPositivelyBound { .. })
        ));
        // Bound through an equality chain to a constant.
        let (p, _) = program("A(x) :- B(y), x = 1.");
        assert!(check_positively_bound(&p, false).is_ok());
        // Bound transitively: y positive, x = y.
        let (p, _) = program("A(x) :- B(y), x = y.");
        assert!(check_positively_bound(&p, false).is_ok());
    }

    #[test]
    fn forall_var_cannot_be_in_head() {
        let (p, _) = program("A(y) :- forall y : B(y).");
        assert!(matches!(
            check_positively_bound(&p, false),
            Err(AnalysisError::ForallVarInHead { .. })
        ));
    }

    #[test]
    fn features_detection() {
        let (p, _) = program("A(x), !B(x) :- C(x), !D(x), x != 1.");
        let f = features(&p);
        assert!(f.multi_head && f.head_negation && f.body_negation && f.equality);
        assert!(!f.bottom && !f.forall && !f.invention);
    }

    #[test]
    fn dependency_graph_edges() {
        let (p, i) = program("A(x) :- B(x), !C(x).");
        let g = DependencyGraph::build(&p);
        let a = i.get("A").unwrap();
        let deps: Vec<_> = g.dependencies(a).collect();
        assert_eq!(deps.len(), 2);
        assert!(deps.contains(&(i.get("B").unwrap(), false)));
        assert!(deps.contains(&(i.get("C").unwrap(), true)));
    }
}
