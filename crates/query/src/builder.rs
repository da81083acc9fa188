//! Fluent plan builder used by the workloads.

use crate::expr::Expr;
use crate::plan::{AggSpec, JoinKind, Plan, SortKey};

/// Builds [`Plan`] trees with a fluent API.
///
/// ```
/// use olxp_query::{QueryBuilder, col, lit, AggFunc};
/// use olxp_query::plan::{AggSpec, SortKey};
///
/// // SELECT o_cid, COUNT(*), SUM(o_amount) FROM ORDERS
/// // WHERE o_amount > 1.00 GROUP BY o_cid ORDER BY o_cid;
/// let plan = QueryBuilder::scan("ORDERS")
///     .filter(col(2).gt(lit(100)))
///     .aggregate(vec![1], vec![AggSpec::new(AggFunc::Count, 0), AggSpec::new(AggFunc::Sum, 2)])
///     .sort(vec![SortKey::asc(0)])
///     .build();
/// assert_eq!(plan.referenced_tables(), vec!["ORDERS"]);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    plan: Plan,
}

impl QueryBuilder {
    /// Start from a full table scan.
    pub fn scan(table: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::TableScan {
                table: table.into(),
                filter: None,
                columns: None,
            },
        }
    }

    /// Start from a full table scan with a pushed-down filter.
    pub fn scan_where(table: impl Into<String>, filter: Expr) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::TableScan {
                table: table.into(),
                filter: Some(filter),
                columns: None,
            },
        }
    }

    /// Wrap an existing plan.
    pub fn from_plan(plan: Plan) -> QueryBuilder {
        QueryBuilder { plan }
    }

    /// Add a filter operator.
    pub fn filter(self, predicate: Expr) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Filter {
                input: Box::new(self.plan),
                predicate,
            },
        }
    }

    /// Add a projection operator.
    pub fn project(self, exprs: Vec<Expr>) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Project {
                input: Box::new(self.plan),
                exprs,
            },
        }
    }

    /// Join with another plan on column equality.
    pub fn join(
        self,
        other: QueryBuilder,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
    ) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Join {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
                left_keys,
                right_keys,
                kind,
            },
        }
    }

    /// Group-by aggregation.
    pub fn aggregate(self, group_by: Vec<usize>, aggregates: Vec<AggSpec>) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Aggregate {
                input: Box::new(self.plan),
                group_by,
                aggregates,
            },
        }
    }

    /// Sort by the given keys.
    pub fn sort(self, keys: Vec<SortKey>) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Sort {
                input: Box::new(self.plan),
                keys,
            },
        }
    }

    /// Keep only the first `n` rows.
    pub fn limit(self, n: usize) -> QueryBuilder {
        QueryBuilder {
            plan: Plan::Limit {
                input: Box::new(self.plan),
                limit: n,
            },
        }
    }

    /// Finish building and return the plan.
    pub fn build(self) -> Plan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, AggFunc};

    #[test]
    fn builder_produces_expected_tree() {
        let plan = QueryBuilder::scan("ACCOUNT")
            .join(
                QueryBuilder::scan("CHECKING"),
                vec![0],
                vec![0],
                JoinKind::Inner,
            )
            .filter(col(2).gt(lit(0)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Avg, 2)])
            .sort(vec![SortKey::desc(1)])
            .limit(10)
            .build();
        assert_eq!(plan.referenced_tables(), vec!["ACCOUNT", "CHECKING"]);
        match plan {
            Plan::Limit { limit, .. } => assert_eq!(limit, 10),
            other => panic!("expected Limit at the root, got {other:?}"),
        }
    }

    #[test]
    fn scan_where_pushes_filter_down() {
        let plan = QueryBuilder::scan_where("ITEM", col(0).eq(lit(1))).build();
        match plan {
            Plan::TableScan { filter, .. } => assert!(filter.is_some()),
            other => panic!("expected TableScan, got {other:?}"),
        }
    }
}
