//! Constant tuples.

use crate::interner::Interner;
use crate::value::Value;
use std::fmt;
use std::ops::Deref;

/// A constant tuple over a relation schema: a fixed-arity sequence of
/// domain [`Value`]s.
///
/// Stored as a boxed slice (two words on the stack) rather than a `Vec`
/// (three words) since tuples are immutable once built and relations hold
/// very many of them.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Box<[Value]>>) -> Self {
        Tuple(values.into())
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Projects the tuple onto the given column positions.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn project(&self, columns: &[usize]) -> Tuple {
        Tuple(columns.iter().map(|&c| self.0[c]).collect())
    }

    /// Renders the tuple for humans, e.g. `('a', 3)`.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayTuple<'a> {
        DisplayTuple {
            values: &self.0,
            interner,
        }
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl std::borrow::Borrow<[Value]> for Tuple {
    /// Lets hash sets keyed by `Tuple` answer lookups for borrowed
    /// `&[Value]` rows straight out of columnar storage, with no
    /// per-probe `Tuple` allocation. Sound because `Tuple` is a
    /// single-field wrapper: its derived `Hash`/`Eq`/`Ord` delegate to
    /// the slice, so the `Borrow` coherence requirements hold.
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl crate::space::HeapSize for Tuple {
    /// The inline `Box<[Value]>` handle plus one value slot per column
    /// (see [`crate::space::tuple_bytes`]).
    fn heap_bytes(&self) -> usize {
        crate::space::tuple_bytes(self.arity())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(v: [Value; N]) -> Self {
        Tuple(Box::new(v))
    }
}

/// One stored tuple of a relation, borrowed from its columnar storage:
/// what [`Relation::iter`](crate::relation::Relation::iter) yields. It
/// dereferences to the row's values; [`Row::to_tuple`] copies it out.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Row<'a>(pub &'a [Value]);

impl<'a> Row<'a> {
    /// The values as a slice.
    pub fn values(self) -> &'a [Value] {
        self.0
    }

    /// The row's arity.
    pub fn arity(self) -> usize {
        self.0.len()
    }

    /// An owned copy of the row.
    pub fn to_tuple(self) -> Tuple {
        Tuple::new(self.0)
    }

    /// Projects the row onto the given column positions.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn project(self, columns: &[usize]) -> Tuple {
        Tuple(columns.iter().map(|&c| self.0[c]).collect())
    }

    /// Renders the row for humans, e.g. `('a', 3)`.
    pub fn display(self, interner: &'a Interner) -> DisplayTuple<'a> {
        DisplayTuple {
            values: self.0,
            interner,
        }
    }
}

impl Deref for Row<'_> {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.0
    }
}

impl From<Row<'_>> for Tuple {
    fn from(row: Row<'_>) -> Self {
        row.to_tuple()
    }
}

impl PartialEq<Tuple> for Row<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        self.0 == other.values()
    }
}

/// Helper returned by [`Tuple::display`] and [`Row::display`].
pub struct DisplayTuple<'a> {
    values: &'a [Value],
    interner: &'a Interner,
}

impl fmt::Display for DisplayTuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v.display(self.interner))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_values() {
        let t = Tuple::from([Value::Int(1), Value::Int(2)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn empty_tuple() {
        // Zero-ary tuples represent propositional facts such as `delay`
        // in Example 4.4 of the paper.
        let t = Tuple::from([]);
        assert_eq!(t.arity(), 0);
    }

    #[test]
    fn projection() {
        let t = Tuple::from([Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::from([Value::Int(30), Value::Int(10)])
        );
        assert_eq!(t.project(&[]), Tuple::from([]));
    }

    #[test]
    fn display() {
        let mut i = Interner::new();
        let t = Tuple::from([Value::sym(&mut i, "a"), Value::Int(5)]);
        assert_eq!(t.display(&i).to_string(), "('a', 5)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Tuple::from([Value::Int(1), Value::Int(2)]);
        let b = Tuple::from([Value::Int(1), Value::Int(3)]);
        assert!(a < b);
    }
}
