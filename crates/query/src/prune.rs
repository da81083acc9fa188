//! Sargable-predicate extraction and the chunk pruner handed to data sources.
//!
//! [`extract_sargable`] walks a filter [`Expr`] and collects the conjuncts a
//! column-store chunk can be tested against without evaluating the
//! expression: comparisons between a column and a literal (`Eq`, `Lt`, `Le`,
//! `Gt`, `Ge`, in either orientation) joined by `AND`.  Everything else —
//! `OR` branches, `NOT`, arithmetic, `LIKE`, column-to-column comparisons —
//! contributes nothing; the extracted [`ScanPredicate`] is therefore a
//! *necessary* condition on matching rows (a row failing it cannot match the
//! full filter) but not a sufficient one, and the executor still applies the
//! full filter to every row of a surviving chunk.

use crate::expr::Expr;
use olxp_storage::{ColumnPredicate, PredicateOp, ScanPredicate};

/// A pruning request carried from the executor to a
/// [`DataSource`](crate::DataSource): which chunks may be skipped.  The executor
/// builds one only while [`ExecOptions::pruning`](crate::ExecOptions) is on;
/// without one, sources take the unpruned path.
#[derive(Debug, Clone)]
pub struct ChunkPruner {
    predicate: ScanPredicate,
}

impl ChunkPruner {
    /// Pruner for a scan with a filter expression.
    ///
    /// The filter addresses the columns the scan emits; chunk summaries are
    /// kept per base-table column, so `columns` (the scan's column list,
    /// `None` = every column in schema order) translates each conjunct back.
    /// A conjunct on a position the scan does not emit is dropped — fewer
    /// conjuncts only prune less — and left to the filter itself to report.
    pub fn from_filter(filter: &Expr, columns: Option<&[usize]>) -> ChunkPruner {
        let mut predicate = extract_sargable(filter);
        if let Some(columns) = columns {
            predicate
                .predicates
                .retain_mut(|p| match columns.get(p.column) {
                    Some(&base) => {
                        p.column = base;
                        true
                    }
                    None => false,
                });
        }
        ChunkPruner { predicate }
    }

    /// Pruner for an unfiltered scan: no conjuncts, but fully deleted chunks
    /// can still be skipped.
    pub fn unfiltered() -> ChunkPruner {
        ChunkPruner {
            predicate: ScanPredicate::default(),
        }
    }

    /// The extracted conjunction (a necessary condition on matching rows).
    pub fn predicate(&self) -> &ScanPredicate {
        &self.predicate
    }
}

/// Extract the sargable AND-conjuncts of a filter expression.
///
/// The result may be empty when nothing in the filter is sargable; that is
/// still a valid (vacuous) necessary condition.
pub fn extract_sargable(expr: &Expr) -> ScanPredicate {
    let mut predicates = Vec::new();
    collect(expr, &mut predicates);
    ScanPredicate::new(predicates)
}

fn collect(expr: &Expr, out: &mut Vec<ColumnPredicate>) {
    match expr {
        Expr::And(a, b) => {
            collect(a, out);
            collect(b, out);
        }
        Expr::Eq(a, b) => push_comparison(a, b, PredicateOp::Eq, PredicateOp::Eq, out),
        Expr::Lt(a, b) => push_comparison(a, b, PredicateOp::Lt, PredicateOp::Gt, out),
        Expr::Le(a, b) => push_comparison(a, b, PredicateOp::Le, PredicateOp::Ge, out),
        Expr::Gt(a, b) => push_comparison(a, b, PredicateOp::Gt, PredicateOp::Lt, out),
        Expr::Ge(a, b) => push_comparison(a, b, PredicateOp::Ge, PredicateOp::Le, out),
        _ => {}
    }
}

/// `column <op> literal` in either orientation; `flipped` is the operator
/// with the operands swapped (`5 < col` ⇔ `col > 5`).  NULL literals are
/// dropped ([`ColumnPredicate::new`] refuses them): comparisons with NULL
/// match nothing, which the residual filter already handles.
fn push_comparison(
    a: &Expr,
    b: &Expr,
    op: PredicateOp,
    flipped: PredicateOp,
    out: &mut Vec<ColumnPredicate>,
) {
    match (a, b) {
        (Expr::Column(c), Expr::Literal(v)) => out.extend(ColumnPredicate::new(*c, op, v.clone())),
        (Expr::Literal(v), Expr::Column(c)) => {
            out.extend(ColumnPredicate::new(*c, flipped, v.clone()))
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use olxp_storage::Value;

    #[test]
    fn equality_extracts_in_both_orientations() {
        let p = extract_sargable(&col(2).eq(lit(Value::Int(7))));
        assert_eq!(p.predicates.len(), 1);
        assert_eq!(p.predicates[0].column, 2);
        assert_eq!(p.predicates[0].op, PredicateOp::Eq);

        let p = extract_sargable(&lit(Value::Int(7)).eq(col(2)));
        assert_eq!(p.predicates.len(), 1);
        assert_eq!(p.predicates[0].op, PredicateOp::Eq);
    }

    #[test]
    fn range_operators_flip_when_literal_is_first() {
        let p = extract_sargable(&lit(Value::Int(5)).lt(col(0)));
        assert_eq!(p.predicates[0].op, PredicateOp::Gt, "5 < col ⇔ col > 5");
        let p = extract_sargable(&col(0).le(lit(Value::Int(5))));
        assert_eq!(p.predicates[0].op, PredicateOp::Le);
        let p = extract_sargable(&lit(Value::Int(5)).ge(col(0)));
        assert_eq!(p.predicates[0].op, PredicateOp::Le, "5 >= col ⇔ col <= 5");
    }

    #[test]
    fn and_conjunctions_recurse_and_drop_non_sargable_parts() {
        let filter = col(0)
            .ge(lit(Value::Int(10)))
            .and(col(1).eq(lit(Value::str("paid"))))
            .and(col(2).like("x%"));
        let p = extract_sargable(&filter);
        assert_eq!(p.predicates.len(), 2, "LIKE conjunct contributes nothing");
    }

    #[test]
    fn or_not_and_column_comparisons_are_not_sargable() {
        let or = col(0)
            .eq(lit(Value::Int(1)))
            .or(col(0).eq(lit(Value::Int(2))));
        assert!(extract_sargable(&or).is_empty());
        let not = col(0).eq(lit(Value::Int(1))).not();
        assert!(extract_sargable(&not).is_empty());
        let col_cmp = col(0).eq(col(1));
        assert!(extract_sargable(&col_cmp).is_empty());
    }

    #[test]
    fn null_literals_are_dropped() {
        let p = extract_sargable(&col(0).eq(lit(Value::Null)));
        assert!(p.is_empty());
    }

    #[test]
    fn pruner_construction_respects_mode() {
        let filter = col(0).eq(lit(Value::Int(1)));
        let pruner = ChunkPruner::from_filter(&filter, None);
        assert_eq!(pruner.predicate().predicates.len(), 1);
        assert!(ChunkPruner::unfiltered().predicate().is_empty());
    }

    #[test]
    fn conjuncts_are_translated_to_base_table_columns() {
        // The scan emits base columns [4, 9]; the filter addresses those as
        // positions 0 and 1, and names a position 2 the scan does not emit.
        let filter = col(1)
            .eq(lit(Value::Int(7)))
            .and(col(0).lt(lit(Value::Int(3))))
            .and(col(2).gt(lit(Value::Int(0))));
        let pruner = ChunkPruner::from_filter(&filter, Some(&[4, 9]));
        let columns: Vec<usize> = pruner
            .predicate()
            .predicates
            .iter()
            .map(|p| p.column)
            .collect();
        assert_eq!(columns, vec![9, 4]);
    }
}
