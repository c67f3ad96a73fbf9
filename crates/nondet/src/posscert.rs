//! Possibility and certainty semantics (Definition 5.10):
//!
//! ```text
//! poss(I, P) = ⋃ { J | (I, J) ∈ eff(P) }
//! cert(I, P) = ⋂ { J | (I, J) ∈ eff(P) }
//! ```
//!
//! These turn a nondeterministic program into two deterministic
//! queries; Theorem 5.11 shows they reach `db-np` / `db-co-np` for
//! N-Datalog¬∀ / N-Datalog¬⊥ and `db-pspace` for N-Datalog¬¬.

use crate::eff::{effect, EffOptions};
use crate::program::NondetProgram;
use crate::NondetError;
use unchained_common::{Instance, Relation, Tuple};

/// Both deterministic readings of a nondeterministic program's effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PossCert {
    /// Union of all effects.
    pub poss: Instance,
    /// Intersection of all effects.
    pub cert: Instance,
    /// Number of distinct terminal instances.
    pub effect_count: usize,
}

/// Computes `poss` and `cert` by exhaustive effect enumeration.
///
/// If the effect is empty (every computation aborted via `⊥`), `poss`
/// is the empty instance and `cert` is the empty instance as well — the
/// natural reading of an empty union and intersection over instances.
///
/// # Errors
/// Propagates [`NondetError::StateBudgetExceeded`] from the effect
/// enumeration.
pub fn poss_cert(
    compiled: &NondetProgram<'_>,
    input: &Instance,
    options: EffOptions,
) -> Result<PossCert, NondetError> {
    let effects = effect(compiled, input, options)?;
    let effect_count = effects.len();
    let mut iter = effects.into_iter();
    let Some(first) = iter.next() else {
        return Ok(PossCert {
            poss: Instance::new(),
            cert: Instance::new(),
            effect_count: 0,
        });
    };
    let mut poss = first.clone();
    let mut cert = first;
    for j in iter {
        // poss ∪= j
        for (pred, rel) in j.iter() {
            if rel.is_empty() {
                continue;
            }
            poss.ensure(pred, rel.arity()).union_with(rel);
        }
        // cert ∩= j
        let preds: Vec<_> = cert.symbols().collect();
        for pred in preds {
            let keep: Relation = match j.relation(pred) {
                Some(other) => {
                    let current = cert.relation(pred).expect("pred listed");
                    Relation::from_tuples(
                        current.arity(),
                        current
                            .iter()
                            .filter(|t| other.contains(t))
                            .map(Tuple::from),
                    )
                }
                None => Relation::new(cert.relation(pred).expect("pred listed").arity()),
            };
            *cert.relation_mut(pred).expect("pred listed") = keep;
        }
    }
    Ok(PossCert {
        poss,
        cert,
        effect_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NondetProgram;
    use unchained_common::{Interner, Tuple, Value};
    use unchained_parser::parse_program;

    #[test]
    fn orientation_poss_is_input_and_cert_is_empty() {
        let mut i = Interner::new();
        let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let pc = poss_cert(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(pc.effect_count, 2);
        // Possibly-kept edges: both; certainly-kept: neither.
        assert_eq!(pc.poss.relation(g).unwrap().len(), 2);
        assert!(pc.cert.relation(g).unwrap().is_empty());
    }

    #[test]
    fn deterministic_program_poss_equals_cert() {
        let mut i = Interner::new();
        let program = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(3)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let pc = poss_cert(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(pc.effect_count, 1);
        assert!(pc.poss.same_facts(&pc.cert));
    }

    #[test]
    fn all_aborting_program_has_empty_effect() {
        let mut i = Interner::new();
        let program = parse_program("bottom :- P(x).", &mut i).unwrap();
        let p = i.get("P").unwrap();
        let mut input = Instance::new();
        input.insert_fact(p, Tuple::from([Value::Int(1)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let pc = poss_cert(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(pc.effect_count, 0);
        assert!(pc.poss.is_empty() && pc.cert.is_empty());
    }

    #[test]
    fn cert_intersects_partial_overlap() {
        // keep(x) is asserted along every path for x=1, only sometimes
        // for the oriented pair.
        let mut i = Interner::new();
        let program = parse_program(
            "!G(x,y), kept(y,x) :- G(x,y), G(y,x).\n\
             base(x) :- P(x).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let p = i.get("P").unwrap();
        let kept = i.get("kept").unwrap();
        let base = i.get("base").unwrap();
        let v = Value::Int;
        let mut input = Instance::new();
        input.insert_fact(g, Tuple::from([v(1), v(2)]));
        input.insert_fact(g, Tuple::from([v(2), v(1)]));
        input.insert_fact(p, Tuple::from([v(9)]));
        let compiled = NondetProgram::compile(&program, false).unwrap();
        let pc = poss_cert(&compiled, &input, EffOptions::default()).unwrap();
        assert_eq!(pc.effect_count, 2);
        // base(9) on every path → certain.
        assert!(pc.cert.contains_fact(base, &Tuple::from([v(9)])));
        // kept tuples differ per path → possible but not certain.
        assert_eq!(pc.poss.relation(kept).unwrap().len(), 2);
        assert!(pc.cert.relation(kept).unwrap().is_empty());
    }
}
