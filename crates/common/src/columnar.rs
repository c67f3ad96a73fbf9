//! Columnar tuple storage: flat, arity-strided value buffers.
//!
//! Every tuple a relation stores is a row of one of these buffers.
//! [`ColumnSegment`] packs rows into a single contiguous `Vec<Value>`
//! in row-major order with a fixed stride (the arity): row `i`
//! occupies `values[i*arity .. (i+1)*arity]`. A relation's uncommitted
//! tail is packed the same way, and a commit sorts the tail in place
//! and hands that very buffer to a new segment
//! ([`ColumnSegment::from_packed`]) without copying a row. Scans walk one allocation linearly and [`Rows`]
//! hands rows out as borrowed `&[Value]` slices; no tuple is ever a
//! heap box of its own.
//!
//! In the logical space model (see [`crate::space`]) a stored row costs
//! [`tuple_bytes`](crate::space::tuple_bytes) whatever the physical
//! layout, so byte gauges stay comparable across layouts.

use crate::value::Value;

/// An immutable, row-major packed run of same-arity rows.
///
/// Arity 0 is explicitly supported (propositional relations): the value
/// buffer stays empty and the row count alone carries the cardinality,
/// with every row read back as the empty slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSegment {
    arity: usize,
    rows: usize,
    values: Vec<Value>,
}

impl ColumnSegment {
    /// A segment of `rows` rows already packed row-major in `values`;
    /// takes the buffer over without copying it.
    ///
    /// # Panics
    /// Panics if `values` does not hold exactly `rows` rows of `arity`.
    pub fn from_packed(arity: usize, rows: usize, values: Vec<Value>) -> Self {
        assert_eq!(values.len(), rows * arity, "packed length mismatch");
        ColumnSegment {
            arity,
            rows,
            values,
        }
    }

    /// The row stride.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The packed rows, row-major with stride [`ColumnSegment::arity`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Row `i` as a borrowed slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates all rows in storage order.
    pub fn rows(&self) -> Rows<'_> {
        self.rows_range(0, self.rows)
    }

    /// Iterates rows `lo..hi` in storage order.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len()`.
    pub fn rows_range(&self, lo: usize, hi: usize) -> Rows<'_> {
        assert!(
            lo <= hi && hi <= self.rows,
            "range {lo}..{hi} out of {}",
            self.rows
        );
        Rows::over(
            &self.values[lo * self.arity..hi * self.arity],
            self.arity,
            hi - lo,
        )
    }
}

/// Iterator over the rows of a [`ColumnSegment`] (or any packed
/// row-major value buffer), yielding `&[Value]` slices of the stride.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
    remaining: usize,
}

impl<'a> Rows<'a> {
    /// The first `rows` rows packed row-major in `values`, which holds at
    /// least that many (arity 0 needs the count: its rows hold nothing).
    pub fn over(values: &'a [Value], arity: usize, rows: usize) -> Self {
        debug_assert!(values.len() >= rows * arity);
        Rows {
            values,
            arity,
            remaining: rows,
        }
    }

    /// An empty rows iterator of the given stride.
    pub fn empty(arity: usize) -> Self {
        Rows {
            values: &[],
            arity,
            remaining: 0,
        }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            return Some(&[]);
        }
        let (row, rest) = self.values.split_at(self.arity);
        self.values = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    /// `tuples` packed into a segment, in order.
    fn from_tuples(arity: usize, tuples: &[Tuple]) -> ColumnSegment {
        let values = tuples.iter().flat_map(|t| t.values().iter().copied());
        ColumnSegment::from_packed(arity, tuples.len(), values.collect())
    }

    #[test]
    fn packs_rows_in_order() {
        let tuples = vec![t2(3, 4), t2(1, 2), t2(5, 6)];
        let seg = from_tuples(2, &tuples);
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.arity(), 2);
        assert_eq!(seg.row(1), &[Value::Int(1), Value::Int(2)]);
        let back: Vec<Tuple> = seg.rows().map(Tuple::new).collect();
        assert_eq!(back, tuples);
    }

    #[test]
    fn range_iteration_matches_skip_take() {
        let tuples: Vec<Tuple> = (0..10).map(|k| t2(k, k + 1)).collect();
        let seg = from_tuples(2, &tuples);
        for (lo, hi) in [(0, 0), (0, 10), (3, 7), (9, 10)] {
            let ranged: Vec<&[Value]> = seg.rows_range(lo, hi).collect();
            let skipped: Vec<&[Value]> = seg.rows().skip(lo).take(hi - lo).collect();
            assert_eq!(ranged, skipped, "{lo}..{hi}");
        }
    }

    #[test]
    fn arity_zero_counts_rows_without_values() {
        let tuples = vec![Tuple::from([]), Tuple::from([])];
        let seg = from_tuples(0, &tuples);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.rows().count(), 2);
        assert_eq!(seg.row(0), &[] as &[Value]);
        assert_eq!(seg.rows_range(1, 2).count(), 1);
    }

    #[test]
    fn exact_size_is_reported() {
        let tuples: Vec<Tuple> = (0..5).map(|k| t2(k, k)).collect();
        let seg = from_tuples(2, &tuples);
        let mut it = seg.rows();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn arity_is_checked() {
        let _ = ColumnSegment::from_packed(2, 1, vec![Value::Int(1)]);
    }
}
