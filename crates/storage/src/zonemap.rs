//! Per-chunk zone maps and the sargable-predicate vocabulary for chunk
//! pruning on the analytical scan path.
//!
//! A [`ChunkZone`] summarises one fixed-size slot range ("chunk") of a
//! [`ColumnTable`](crate::ColumnTable): per column the min/max of every
//! non-null value ever written to the chunk plus a null count, and per chunk
//! a live-row count.  The summaries are maintained incrementally:
//!
//! - **append tightens** — a freshly appended value expands min/max to
//!   include exactly that value, so a chunk filled by appends has tight
//!   bounds;
//! - **update widens** — an in-place overwrite expands the bounds to include
//!   the *new* value but never removes the old value's contribution, so the
//!   zone stays a conservative superset of the chunk's history;
//! - **delete keeps contributions** — deleting a row only decrements the
//!   live count; the zone still covers the deleted values.  A chunk whose
//!   live count reaches zero is pruned outright;
//! - **compaction rebuilds tight** — sealing a chunk into the main tier
//!   recomputes its zone from the surviving live values only.
//!
//! Zone maps are the only per-chunk summary a scan consults: a value absent
//! from a chunk but inside its min/max range does not prune it.
//!
//! The superset property is what makes pruning safe: a zone check may say
//! "might match" for a chunk that no longer matches, but never "cannot
//! match" for one that does.

use crate::value::Value;

/// Number of slots per pruning chunk in a [`ColumnTable`](crate::ColumnTable).
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// Comparison operator of a sargable predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOp {
    /// `column = value`
    Eq,
    /// `column < value`
    Lt,
    /// `column <= value`
    Le,
    /// `column > value`
    Gt,
    /// `column >= value`
    Ge,
}

/// One sargable conjunct: `column <op> value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column position in the table schema.
    pub column: usize,
    /// Comparison operator.
    pub op: PredicateOp,
    /// Literal to compare against (never `Value::Null`).
    pub value: Value,
}

impl ColumnPredicate {
    /// Build a predicate; returns `None` for a NULL literal (NULL comparisons
    /// match nothing, but the full filter downstream already handles that —
    /// the pruner simply has nothing useful to say).
    pub fn new(column: usize, op: PredicateOp, value: Value) -> Option<ColumnPredicate> {
        if matches!(value, Value::Null) {
            return None;
        }
        Some(ColumnPredicate { column, op, value })
    }
}

/// An AND-conjunction of sargable predicates, extracted from a query filter.
///
/// The conjunction is a *necessary* condition on matching rows, not a
/// sufficient one: non-sargable parts of the original filter are simply
/// dropped, and the full filter is still applied to every surviving row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanPredicate {
    /// Conjuncts; a row can only match the query if it satisfies all of them.
    pub predicates: Vec<ColumnPredicate>,
}

impl ScanPredicate {
    /// A predicate with no conjuncts (prunes nothing beyond empty chunks).
    pub fn new(predicates: Vec<ColumnPredicate>) -> ScanPredicate {
        ScanPredicate { predicates }
    }

    /// Whether the predicate constrains anything.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }
}

/// Zone summary of one `(chunk, column)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnZone {
    /// Smallest non-null value ever written to the chunk's column, if any.
    pub min: Option<Value>,
    /// Largest non-null value ever written to the chunk's column, if any.
    pub max: Option<Value>,
    /// Number of NULLs ever written to the chunk's column.
    pub null_count: u64,
}

impl ColumnZone {
    /// Fold one written value into the zone (append or update path).
    pub fn include(&mut self, value: &Value) {
        if matches!(value, Value::Null) {
            self.null_count += 1;
            return;
        }
        match &self.min {
            Some(min) if value >= min => {}
            _ => self.min = Some(value.clone()),
        }
        match &self.max {
            Some(max) if value <= max => {}
            _ => self.max = Some(value.clone()),
        }
    }

    /// Can any value covered by this zone satisfy `<op> probe`?
    ///
    /// `false` means *provably not* — the chunk can be skipped.  A zone that
    /// never saw a non-null value cannot satisfy any comparison (NULL
    /// comparisons are false).
    pub fn may_match(&self, op: PredicateOp, probe: &Value) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        match op {
            PredicateOp::Eq => min <= probe && probe <= max,
            PredicateOp::Lt => min < probe,
            PredicateOp::Le => min <= probe,
            PredicateOp::Gt => max > probe,
            PredicateOp::Ge => max >= probe,
        }
    }
}

/// Zone summary of one chunk: per-column zones plus a live-row count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkZone {
    /// One zone per schema column.
    pub zones: Vec<ColumnZone>,
    /// Number of live (non-deleted) rows currently in the chunk.
    pub live_count: u64,
}

impl ChunkZone {
    /// An empty zone for a table with `columns` columns.
    pub fn new(columns: usize) -> ChunkZone {
        ChunkZone {
            zones: vec![ColumnZone::default(); columns],
            live_count: 0,
        }
    }

    /// Can any live row in this chunk satisfy every conjunct of `predicate`?
    pub fn may_match(&self, predicate: &ScanPredicate) -> bool {
        if self.live_count == 0 {
            return false;
        }
        predicate
            .predicates
            .iter()
            .all(|p| match self.zones.get(p.column) {
                Some(zone) => zone.may_match(p.op, &p.value),
                None => true,
            })
    }
}

/// Outcome of one (possibly pruned) chunked scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Physical slots actually visited (live or deleted) in surviving chunks.
    pub slots_examined: usize,
    /// Chunks whose column data was touched.
    pub chunks_scanned: u64,
    /// Chunks skipped because a zone map (or empty live count) excluded them.
    pub chunks_pruned_zonemap: u64,
    /// Live rows in surviving *main-tier* chunks that encoded-predicate
    /// evaluation (dictionary-code comparison, RLE run skipping) deselected
    /// before any value was decoded.
    pub rows_pruned_encoded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn include_tracks_min_max_and_nulls() {
        let mut zone = ColumnZone::default();
        zone.include(&Value::Int(5));
        zone.include(&Value::Int(2));
        zone.include(&Value::Int(9));
        zone.include(&Value::Null);
        assert_eq!(zone.min, Some(Value::Int(2)));
        assert_eq!(zone.max, Some(Value::Int(9)));
        assert_eq!(zone.null_count, 1);
    }

    #[test]
    fn may_match_brackets_each_operator() {
        let mut zone = ColumnZone::default();
        zone.include(&Value::Int(10));
        zone.include(&Value::Int(20));

        assert!(zone.may_match(PredicateOp::Eq, &Value::Int(10)));
        assert!(zone.may_match(PredicateOp::Eq, &Value::Int(15)));
        assert!(!zone.may_match(PredicateOp::Eq, &Value::Int(9)));
        assert!(!zone.may_match(PredicateOp::Eq, &Value::Int(21)));

        assert!(zone.may_match(PredicateOp::Lt, &Value::Int(11)));
        assert!(!zone.may_match(PredicateOp::Lt, &Value::Int(10)));
        assert!(zone.may_match(PredicateOp::Le, &Value::Int(10)));
        assert!(!zone.may_match(PredicateOp::Le, &Value::Int(9)));

        assert!(zone.may_match(PredicateOp::Gt, &Value::Int(19)));
        assert!(!zone.may_match(PredicateOp::Gt, &Value::Int(20)));
        assert!(zone.may_match(PredicateOp::Ge, &Value::Int(20)));
        assert!(!zone.may_match(PredicateOp::Ge, &Value::Int(21)));
    }

    #[test]
    fn all_null_zone_matches_nothing() {
        let mut zone = ColumnZone::default();
        zone.include(&Value::Null);
        for op in [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ] {
            assert!(!zone.may_match(op, &Value::Int(0)));
        }
    }

    #[test]
    fn mixed_numeric_types_compare_by_value() {
        // Value's Ord compares numerics cross-variant (Decimal stores cents).
        let mut zone = ColumnZone::default();
        zone.include(&Value::Decimal(1000)); // 10.00
        zone.include(&Value::Decimal(2000)); // 20.00
        assert!(zone.may_match(PredicateOp::Eq, &Value::Int(15)));
        assert!(!zone.may_match(PredicateOp::Eq, &Value::Int(25)));
    }

    #[test]
    fn chunk_zone_requires_every_conjunct() {
        let mut chunk = ChunkZone::new(2);
        chunk.live_count = 4;
        chunk.zones[0].include(&Value::Int(1));
        chunk.zones[0].include(&Value::Int(100));
        chunk.zones[1].include(&Value::Int(5));

        let p0 = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(50)).unwrap();
        let p1 = ColumnPredicate::new(1, PredicateOp::Gt, Value::Int(10)).unwrap();
        assert!(chunk.may_match(&ScanPredicate::new(vec![p0.clone()])));
        assert!(!chunk.may_match(&ScanPredicate::new(vec![p1.clone()])));
        assert!(!chunk.may_match(&ScanPredicate::new(vec![p0, p1])));
    }

    #[test]
    fn empty_chunk_never_matches() {
        let chunk = ChunkZone::new(1);
        assert!(!chunk.may_match(&ScanPredicate::default()));
    }

    #[test]
    fn null_literals_are_rejected() {
        assert!(ColumnPredicate::new(0, PredicateOp::Eq, Value::Null).is_none());
    }
}
