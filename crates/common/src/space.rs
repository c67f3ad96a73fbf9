//! Space accounting: a deterministic logical-byte model for the
//! storage types, and the [`SpaceReport`] tree surfaced by the CLI's
//! `--memstats`, the REPL's `.mem`, and the bench harness.
//!
//! The model counts **logical** bytes — element counts multiplied by
//! fixed per-element sizes — and never allocator-dependent quantities
//! (`Vec::capacity`, hash-table load factors, malloc headers). That
//! trade keeps reports exactly reproducible across runs, machines, and
//! worker-thread counts: the parallel semi-naive path produces the same
//! committed segments per round as the sequential one, so the same
//! counts yield the same bytes, and `scripts/check.sh` can diff the
//! rendered tree byte-for-byte at `--threads 1` vs `--threads 4`.
//!
//! What counts as a byte (see DESIGN.md, "Space accounting"):
//!
//! * a [`Value`](crate::value::Value) slot is [`VALUE_BYTES`] (the
//!   `Copy` enum, padded);
//! * a stored tuple is [`TUPLE_HEADER_BYTES`] for its inline
//!   `Box<[Value]>` handle plus one value slot per column
//!   ([`tuple_bytes`]);
//! * a relation owns what it stores: one stored-tuple copy per row of
//!   a frozen segment or of the recent tail (dead rows included — they
//!   stay until compaction), one [`SLOT_BYTES`] row-id table slot per
//!   live tuple, and one [`SLOT_BYTES`] log entry per tombstone — a
//!   tuple is stored once, and the membership table holds its
//!   position, not a copy;
//! * an index owns one boxed key per bucket plus one [`POSTING_BYTES`]
//!   posting per indexed tuple — the storage position of its row and a
//!   chain link, not a copy of the row;
//! * the interner owns every name twice (the id-to-name vector and the
//!   name-to-id map key) plus one [`SYMBOL_BYTES`] id per entry.
//!
//! `Arc`-shared frozen segments are charged to every relation that
//! holds them: the model is about attribution, not unique ownership,
//! and double-charging clones keeps per-relation numbers additive.

use std::fmt::Write as _;

use crate::instance::Instance;
use crate::interner::Interner;

/// Logical bytes of one [`Value`](crate::value::Value) slot (the
/// 12-byte `Copy` enum padded to 16 in tuples and environments).
pub const VALUE_BYTES: usize = 16;

/// Inline handle of a stored [`Tuple`](crate::tuple::Tuple): the
/// two-word `Box<[Value]>` fat pointer.
pub const TUPLE_HEADER_BYTES: usize = 16;

/// One row position: a row-id table slot or a tombstone-log entry.
pub const SLOT_BYTES: usize = 8;

/// One index posting: the `u32` storage position of the row it indexes
/// and the `u32` link to the next posting of its bucket.
pub const POSTING_BYTES: usize = 8;

/// Inline handle of an interned string (`Box<str>` fat pointer).
pub const STR_HEADER_BYTES: usize = 16;

/// One interned [`Symbol`](crate::interner::Symbol) id.
pub const SYMBOL_BYTES: usize = 4;

/// Logical bytes of one stored tuple of the given arity: the inline
/// handle plus one value slot per column.
pub const fn tuple_bytes(arity: usize) -> usize {
    TUPLE_HEADER_BYTES + arity * VALUE_BYTES
}

/// Types that can report their logical footprint under the model above.
///
/// Implementations must be *deterministic in the contents*: two objects
/// holding the same elements report the same bytes regardless of how
/// they were built, which thread built them, or what the allocator did.
pub trait HeapSize {
    /// Logical bytes attributed to this object (inline handle included
    /// for element types such as tuples; containers sum their elements).
    fn heap_bytes(&self) -> usize;
}

/// One node of a [`SpaceReport`]: a labelled byte gauge with an item
/// count and optional children.
///
/// `bytes` of a branch always equals the sum over its children (that is
/// the additivity invariant `check_additive` verifies); `items` is the
/// *logical* count for the label (e.g. a relation's cardinality), which
/// intentionally need not be the child sum — a relation counts each
/// tuple both as a stored row and as a row-id table slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceNode {
    /// Human label (`T/2`, `segment 0`, `interner`…).
    pub label: String,
    /// Logical item count for this label (tuples, symbols, …).
    pub items: u64,
    /// Logical bytes attributed to this subtree.
    pub bytes: u64,
    /// Breakdown, when there is one.
    pub children: Vec<SpaceNode>,
}

impl SpaceNode {
    /// A leaf gauge.
    pub fn leaf(label: impl Into<String>, items: u64, bytes: u64) -> SpaceNode {
        SpaceNode {
            label: label.into(),
            items,
            bytes,
            children: Vec::new(),
        }
    }

    /// A branch whose bytes are the sum over `children`; `items` is
    /// supplied by the caller (see the type-level invariant note).
    pub fn branch(label: impl Into<String>, items: u64, children: Vec<SpaceNode>) -> SpaceNode {
        let bytes = children.iter().map(|c| c.bytes).sum();
        SpaceNode {
            label: label.into(),
            items,
            bytes,
            children,
        }
    }

    /// Verifies the additivity invariant recursively: every branch's
    /// bytes equal the sum of its children's.
    pub fn check_additive(&self) -> Result<(), String> {
        if !self.children.is_empty() {
            let sum: u64 = self.children.iter().map(|c| c.bytes).sum();
            if sum != self.bytes {
                return Err(format!(
                    "space node `{}` reports {} bytes but its children sum to {sum}",
                    self.label, self.bytes
                ));
            }
            for c in &self.children {
                c.check_additive()?;
            }
        }
        Ok(())
    }
}

/// The full space breakdown of an evaluation: instance relations (each
/// split into frozen segments, recent tail, row-id table and tombstone
/// log) plus
/// the interner, rendered as an indented tree with deterministic byte
/// gauges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceReport {
    /// The tree root (label `space`).
    pub root: SpaceNode,
}

impl SpaceReport {
    /// Accounts `instance` and `interner` under the logical-byte model.
    /// Relations appear in symbol order, so two instances with the same
    /// contents render identically.
    pub fn for_instance(instance: &Instance, interner: &Interner) -> SpaceReport {
        let relations: Vec<SpaceNode> = instance
            .iter()
            .map(|(sym, rel)| rel.space_node(interner.name(sym)))
            .collect();
        let fact_count = instance.fact_count() as u64;
        let relations = SpaceNode::branch("relations", fact_count, relations);
        let interner_node = SpaceNode::leaf(
            "interner",
            interner.len() as u64,
            interner.heap_bytes() as u64,
        );
        SpaceReport {
            root: SpaceNode::branch("space", fact_count, vec![relations, interner_node]),
        }
    }

    /// Total logical bytes in the report.
    pub fn total_bytes(&self) -> u64 {
        self.root.bytes
    }

    /// Logical bytes of the `relations` subtree (excluding the
    /// interner) — the value exported as `unchained_relation_bytes`.
    pub fn relation_bytes(&self) -> u64 {
        self.root
            .children
            .iter()
            .find(|c| c.label == "relations")
            .map_or(0, |c| c.bytes)
    }

    /// Verifies the additivity invariant over the whole tree.
    pub fn check_additive(&self) -> Result<(), String> {
        self.root.check_additive()
    }

    /// Renders the indented breakdown tree plus a summary line stating
    /// the total and the additivity verdict (`additive: ok` is what the
    /// `scripts/check.sh` memstats gate greps for).
    pub fn render(&self) -> String {
        let mut out = String::new();
        fn walk(out: &mut String, node: &SpaceNode, depth: usize) {
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{}", node.label);
            let _ = writeln!(
                out,
                "{label:<32} {:>10} {:>10}",
                fmt_bytes(node.bytes),
                node.items
            );
            for c in &node.children {
                walk(out, c, depth + 1);
            }
        }
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>10}",
            "space breakdown", "bytes", "items"
        );
        walk(&mut out, &self.root, 0);
        let verdict = match self.check_additive() {
            Ok(()) => "additive: ok".to_string(),
            Err(e) => format!("additive: BROKEN ({e})"),
        };
        let _ = writeln!(
            out,
            "space total: {} ({} bytes, {verdict})",
            fmt_bytes(self.root.bytes),
            self.root.bytes
        );
        out
    }

    /// The top-`n` relations by bytes, rendered in the same spirit as
    /// the tracer's `hottest rules` table.
    pub fn fattest_relations(&self, n: usize) -> String {
        let mut rels: Vec<&SpaceNode> = self
            .root
            .children
            .iter()
            .filter(|c| c.label == "relations")
            .flat_map(|c| c.children.iter())
            .collect();
        rels.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.label.cmp(&b.label)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>10}",
            "fattest relations", "bytes", "tuples"
        );
        for r in rels.iter().take(n) {
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>10}",
                r.label,
                fmt_bytes(r.bytes),
                r.items
            );
        }
        out
    }
}

/// Formats a byte count with an adaptive binary unit.
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    if bytes >= GIB {
        format!("{:.2}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;

    #[test]
    fn tuple_model_counts_header_plus_values() {
        assert_eq!(tuple_bytes(0), TUPLE_HEADER_BYTES);
        assert_eq!(tuple_bytes(2), TUPLE_HEADER_BYTES + 2 * VALUE_BYTES);
        let t = Tuple::from([Value::Int(1), Value::Int(2)]);
        assert_eq!(t.heap_bytes(), tuple_bytes(2));
        assert_eq!(Value::Int(7).heap_bytes(), VALUE_BYTES);
    }

    #[test]
    fn branch_sums_children_and_additivity_is_checked() {
        let ok = SpaceNode::branch(
            "parent",
            3,
            vec![SpaceNode::leaf("a", 1, 10), SpaceNode::leaf("b", 2, 20)],
        );
        assert_eq!(ok.bytes, 30);
        assert!(ok.check_additive().is_ok());
        let mut broken = ok.clone();
        broken.bytes = 31;
        let err = broken.check_additive().unwrap_err();
        assert!(err.contains("parent"), "{err}");
    }

    #[test]
    fn report_renders_tree_and_fattest_table() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let t = interner.intern("T");
        let mut inst = Instance::new();
        for k in 0..4 {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst.insert_fact(t, Tuple::from([Value::Int(0), Value::Int(1)]));
        let report = SpaceReport::for_instance(&inst, &interner);
        assert!(report.check_additive().is_ok());
        assert!(report.total_bytes() > 0);
        assert!(report.relation_bytes() > 0);
        assert!(report.relation_bytes() < report.total_bytes());
        let rendered = report.render();
        assert!(rendered.contains("additive: ok"), "{rendered}");
        assert!(rendered.contains("G/2"), "{rendered}");
        assert!(rendered.contains("interner"), "{rendered}");
        let fattest = report.fattest_relations(5);
        let g_line = fattest.lines().find(|l| l.starts_with("G/2")).unwrap();
        let t_line = fattest.lines().find(|l| l.starts_with("T/2")).unwrap();
        let g_pos = fattest.find(g_line).unwrap();
        let t_pos = fattest.find(t_line).unwrap();
        assert!(g_pos < t_pos, "G is fatter than T:\n{fattest}");
    }

    #[test]
    fn report_is_deterministic_in_contents() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let build = |order: &[i64]| {
            let mut inst = Instance::new();
            for &k in order {
                inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            inst.relation_mut(g).unwrap().commit();
            inst
        };
        let a = SpaceReport::for_instance(&build(&[1, 2, 3]), &interner);
        let b = SpaceReport::for_instance(&build(&[3, 1, 2]), &interner);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(1023), "1023B");
        assert_eq!(fmt_bytes(1536), "1.5KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
    }
}
