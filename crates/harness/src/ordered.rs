//! Ordered-database support (Section 4.5).
//!
//! "In ordered databases, the schema is assumed to contain a binary
//! relation providing a total order on the active domain of each
//! instance." For the semipositive programs of Theorem 4.7 the order
//! must come with explicit `min` and `max` constants — surprisingly,
//! these cannot be computed by semipositive programs themselves.
//!
//! This module equips an instance with `succ` (the successor relation
//! of the order), `lt` (the full order), and unary `min` / `max`.

use unchained_common::{Instance, Interner, Tuple, Value};

/// Names of the order relations added by [`attach_order`].
#[derive(Clone, Copy, Debug)]
pub struct OrderSchema<'a> {
    /// Successor relation name (binary).
    pub succ: &'a str,
    /// Full order relation name (binary, strict `<`).
    pub lt: &'a str,
    /// Minimum constant (unary).
    pub min: &'a str,
    /// Maximum constant (unary).
    pub max: &'a str,
}

impl Default for OrderSchema<'_> {
    fn default() -> Self {
        OrderSchema {
            succ: "succ",
            lt: "lt",
            min: "min",
            max: "max",
        }
    }
}

/// Attaches a total order over the instance's active domain (sorted by
/// the natural `Value` order): `succ`, `lt`, `min`, `max`.
///
/// Returns the input unchanged (except for empty order relations) if
/// the active domain is empty.
pub fn attach_order(
    mut instance: Instance,
    interner: &mut Interner,
    schema: OrderSchema<'_>,
) -> Instance {
    let domain = instance.adom_sorted();
    let succ = interner.intern(schema.succ);
    let lt = interner.intern(schema.lt);
    let min = interner.intern(schema.min);
    let max = interner.intern(schema.max);
    instance.ensure(succ, 2);
    instance.ensure(lt, 2);
    instance.ensure(min, 1);
    instance.ensure(max, 1);
    for pair in domain.windows(2) {
        instance.insert_fact(succ, Tuple::from([pair[0], pair[1]]));
    }
    for (i, &a) in domain.iter().enumerate() {
        for &b in &domain[i + 1..] {
            instance.insert_fact(lt, Tuple::from([a, b]));
        }
    }
    if let (Some(&first), Some(&last)) = (domain.first(), domain.last()) {
        instance.insert_fact(min, Tuple::from([first]));
        instance.insert_fact(max, Tuple::from([last]));
    }
    instance
}

/// Builds an ordered instance whose unary relation `rel_name` holds `k`
/// chosen members of the universe `0..universe` — the standard workload
/// for the evenness experiment (Theorem 4.7). The whole universe
/// participates in the order via a unary `U` relation.
pub fn evenness_input(
    interner: &mut Interner,
    rel_name: &str,
    universe: i64,
    members: &[i64],
) -> Instance {
    let r = interner.intern(rel_name);
    let u = interner.intern("U");
    let mut instance = Instance::new();
    instance.ensure(r, 1);
    for v in 0..universe {
        instance.insert_fact(u, Tuple::from([Value::Int(v)]));
    }
    for &m in members {
        assert!(m < universe, "member {m} outside universe {universe}");
        instance.insert_fact(r, Tuple::from([Value::Int(m)]));
    }
    attach_order(instance, interner, OrderSchema::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_relations_built() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut inst = Instance::new();
        inst.insert_fact(g, Tuple::from([Value::Int(3), Value::Int(1)]));
        inst.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
        let ordered = attach_order(inst, &mut i, OrderSchema::default());
        let succ = i.get("succ").unwrap();
        let lt = i.get("lt").unwrap();
        let min = i.get("min").unwrap();
        let max = i.get("max").unwrap();
        // Domain {1,2,3}: succ = {(1,2),(2,3)}; lt = 3 pairs.
        assert_eq!(ordered.relation(succ).unwrap().len(), 2);
        assert_eq!(ordered.relation(lt).unwrap().len(), 3);
        assert!(ordered.contains_fact(min, &Tuple::from([Value::Int(1)])));
        assert!(ordered.contains_fact(max, &Tuple::from([Value::Int(3)])));
    }

    #[test]
    fn empty_instance_gets_empty_order() {
        let mut i = Interner::new();
        let ordered = attach_order(Instance::new(), &mut i, OrderSchema::default());
        let min = i.get("min").unwrap();
        assert!(ordered.relation(min).unwrap().is_empty());
    }

    #[test]
    fn evenness_input_shape() {
        let mut i = Interner::new();
        let inst = evenness_input(&mut i, "R", 5, &[0, 2, 4]);
        let r = i.get("R").unwrap();
        let succ = i.get("succ").unwrap();
        assert_eq!(inst.relation(r).unwrap().len(), 3);
        // Universe 0..5 → 4 successor pairs.
        assert_eq!(inst.relation(succ).unwrap().len(), 4);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn evenness_input_validates_members() {
        let mut i = Interner::new();
        evenness_input(&mut i, "R", 3, &[5]);
    }
}
