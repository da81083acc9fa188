//! Logical query plans.

use crate::expr::{AggFunc, Expr};

/// Join kind.  The workloads only need inner and left-outer joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching pairs.
    Inner,
    /// Keep every left row; unmatched right columns become NULL.
    LeftOuter,
}

/// One aggregate in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column position the function is applied to.
    pub column: usize,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, column: usize) -> AggSpec {
        AggSpec { func, column }
    }
}

/// A sort key: column position plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column position in the input rows.
    pub column: usize,
    /// True for ascending order.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(column: usize) -> SortKey {
        SortKey {
            column,
            ascending: true,
        }
    }

    /// Descending sort key.
    pub fn desc(column: usize) -> SortKey {
        SortKey {
            column,
            ascending: false,
        }
    }
}

/// A logical query plan.
///
/// Plans are trees built bottom-up by the workloads (usually through
/// [`crate::builder::QueryBuilder`]) and interpreted by [`crate::exec::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan every visible row of a table.
    TableScan {
        /// Table name.
        table: String,
        /// Optional pushed-down filter, over the columns the scan emits.
        filter: Option<Expr>,
        /// Base-table columns the scan emits, in this order; `None` emits
        /// every column in schema order.  Plans are built with `None`; the
        /// executor's column-pruning pass narrows it to what the plan reads.
        columns: Option<Vec<usize>>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate to apply.
        predicate: Expr,
    },
    /// Compute expressions over each input row.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Expressions producing the output columns.
        exprs: Vec<Expr>,
    },
    /// Hash join on column equality.
    Join {
        /// Left (probe) side.
        left: Box<Plan>,
        /// Right (build) side.
        right: Box<Plan>,
        /// Join key columns of the left input.
        left_keys: Vec<usize>,
        /// Join key columns of the right input.
        right_keys: Vec<usize>,
        /// Join kind.
        kind: JoinKind,
    },
    /// Group-by aggregation.  Output rows are the group-by columns followed by
    /// one column per aggregate.  An empty `group_by` produces a single row.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping column positions.
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggregates: Vec<AggSpec>,
    },
    /// Sort by the given keys.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Keep only the first `limit` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum number of rows to emit.
        limit: usize,
    },
}

impl Plan {
    /// Names of every base table referenced by the plan, in first-visit order
    /// (used by the engine for latching, freshness checks and the
    /// semantic-consistency validator).
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            Plan::TableScan { table, .. } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.collect_tables(out),
            Plan::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn sample_plan() -> Plan {
        Plan::Aggregate {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::TableScan {
                    table: "ORDERS".into(),
                    filter: None,
                    columns: None,
                }),
                right: Box::new(Plan::TableScan {
                    table: "ORDER_LINE".into(),
                    filter: Some(col(2).gt(lit(0))),
                    columns: None,
                }),
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
            }),
            group_by: vec![1],
            aggregates: vec![AggSpec::new(AggFunc::Sum, 3)],
        }
    }

    #[test]
    fn referenced_tables_are_collected_once() {
        let plan = Plan::Join {
            left: Box::new(sample_plan()),
            right: Box::new(Plan::TableScan {
                table: "ORDERS".into(),
                filter: None,
                columns: None,
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
        };
        assert_eq!(plan.referenced_tables(), vec!["ORDERS", "ORDER_LINE"]);
    }
}
