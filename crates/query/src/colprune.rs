//! Column pruning: narrow every table scan to the columns the plan reads.
//!
//! `prune_columns` walks a plan top-down carrying the set of output
//! positions the operators above a node read, and derives per operator what
//! it needs of its input:
//!
//! * the root needs every column it outputs;
//! * `Aggregate` needs its `group_by` and aggregate columns, `Project` the
//!   columns its expressions name — whatever is asked of them, since both
//!   compute fresh output columns;
//! * `Filter` and `Sort` add the columns of their predicate / keys to what
//!   is asked of them; `Limit` passes the set through;
//! * `Join` splits the set at its left input's width and adds both key lists;
//! * a `TableScan` adds the columns of its own pushed-down filter and, when
//!   that is still short of its full width, gets a column list.
//!
//! Batches stay rectangular: a narrowed scan emits a batch of exactly the
//! listed columns, so every position between that scan and the nearest
//! `Aggregate` / `Project` above it (filters, sort keys, join keys, and the
//! `Aggregate` / `Project` input references themselves) is rewritten to the
//! column's new place.  The operators run unchanged on the rewritten plan.
//!
//! The pass is conservative: when any reference is out of range, a table is
//! unknown, or nothing can be narrowed, it returns `None` and the executor
//! runs the plan as written, reporting errors exactly as it always has.
//! The executor runs the pass only while `ExecOptions::pruning` is on; off,
//! every plan runs as written over full-width batches, which is the
//! reference the pruned path is tested against.

use crate::error::QueryResult;
use crate::expr::Expr;
use crate::plan::{AggSpec, Plan, SortKey};
use crate::source::DataSource;
use std::collections::BTreeSet;

/// Number of columns `plan` outputs.
pub(crate) fn output_width(plan: &Plan, source: &dyn DataSource) -> QueryResult<usize> {
    Ok(match plan {
        Plan::TableScan {
            columns: Some(columns),
            ..
        } => columns.len(),
        Plan::TableScan { table, .. } => source.schema(table)?.column_count(),
        Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            output_width(input, source)?
        }
        Plan::Project { exprs, .. } => exprs.len(),
        Plan::Join { left, right, .. } => {
            output_width(left, source)? + output_width(right, source)?
        }
        Plan::Aggregate {
            group_by,
            aggregates,
            ..
        } => group_by.len() + aggregates.len(),
    })
}

/// `plan` with every table scan narrowed to the columns the plan reads and
/// the positions above it rewritten to match, or `None` when the plan is to
/// run as written (nothing to narrow, or a reference the pass cannot place).
pub(crate) fn prune_columns(plan: &Plan, source: &dyn DataSource) -> Option<Plan> {
    let width = output_width(plan, source).ok()?;
    let mut pass = Pass {
        source,
        narrowed: false,
    };
    let pruned = pass.node(plan, (0..width).collect())?;
    debug_assert!(
        pruned.remap.iter().copied().eq((0..width).map(Some)),
        "the root keeps every output column in place"
    );
    pass.narrowed.then_some(pruned.plan)
}

/// A rewritten subtree, and where each of the original subtree's output
/// positions went (`None` = no longer produced).  The new output width is the
/// number of `Some` entries.
struct Pruned {
    plan: Plan,
    remap: Vec<Option<usize>>,
}

impl Pruned {
    /// A subtree whose output columns are all still where they were.
    fn in_place(plan: Plan, width: usize) -> Pruned {
        Pruned {
            plan,
            remap: (0..width).map(Some).collect(),
        }
    }

    fn width(&self) -> usize {
        self.remap.iter().flatten().count()
    }
}

/// New place of original position `pos`; `None` when it is out of range or
/// no longer produced.
fn place(remap: &[Option<usize>], pos: usize) -> Option<usize> {
    remap.get(pos).copied().flatten()
}

/// `expr` with every column moved to its new place; `None` when it names a
/// column that has none.
fn place_expr(remap: &[Option<usize>], expr: &Expr) -> Option<Expr> {
    let mut placed = true;
    expr.for_each_column(&mut |pos| placed &= place(remap, pos).is_some());
    placed.then(|| {
        let mut expr = expr.clone();
        expr.remap_columns(&|pos| place(remap, pos).unwrap_or(pos));
        expr
    })
}

/// Whether every position in `required` is one of `width` columns.
fn within(required: &BTreeSet<usize>, width: usize) -> bool {
    required.last().map_or(true, |&max| max < width)
}

/// Add the columns `expr` names to `required`.
fn require(required: &mut BTreeSet<usize>, expr: &Expr) {
    expr.for_each_column(&mut |pos| {
        required.insert(pos);
    });
}

struct Pass<'a> {
    source: &'a dyn DataSource,
    /// Whether any scan was narrowed.
    narrowed: bool,
}

impl Pass<'_> {
    /// Rewrite `plan` to produce (at least) its output positions `required`.
    /// `None` aborts the whole pass.
    fn node(&mut self, plan: &Plan, mut required: BTreeSet<usize>) -> Option<Pruned> {
        Some(match plan {
            Plan::TableScan {
                table,
                filter,
                columns,
            } => {
                let width = output_width(plan, self.source).ok()?;
                if let Some(f) = filter {
                    require(&mut required, f);
                }
                if !within(&required, width) {
                    return None;
                }
                if required.len() == width {
                    return Some(Pruned::in_place(plan.clone(), width));
                }
                self.narrowed = true;
                let mut remap = vec![None; width];
                for (place, &pos) in required.iter().enumerate() {
                    remap[pos] = Some(place);
                }
                let kept = required
                    .iter()
                    .map(|&pos| columns.as_ref().map_or(pos, |c| c[pos]))
                    .collect();
                let filter = match filter {
                    Some(f) => Some(place_expr(&remap, f)?),
                    None => None,
                };
                Pruned {
                    plan: Plan::TableScan {
                        table: table.clone(),
                        filter,
                        columns: Some(kept),
                    },
                    remap,
                }
            }
            Plan::Filter { input, predicate } => {
                require(&mut required, predicate);
                let input = self.node(input, required)?;
                Pruned {
                    plan: Plan::Filter {
                        predicate: place_expr(&input.remap, predicate)?,
                        input: Box::new(input.plan),
                    },
                    remap: input.remap,
                }
            }
            Plan::Sort { input, keys } => {
                required.extend(keys.iter().map(|k| k.column));
                let input = self.node(input, required)?;
                let keys = keys
                    .iter()
                    .map(|k| {
                        Some(SortKey {
                            column: place(&input.remap, k.column)?,
                            ..*k
                        })
                    })
                    .collect::<Option<_>>()?;
                Pruned {
                    plan: Plan::Sort {
                        input: Box::new(input.plan),
                        keys,
                    },
                    remap: input.remap,
                }
            }
            Plan::Limit { input, limit } => {
                let input = self.node(input, required)?;
                Pruned {
                    plan: Plan::Limit {
                        input: Box::new(input.plan),
                        limit: *limit,
                    },
                    remap: input.remap,
                }
            }
            Plan::Project { input, exprs } => {
                if !within(&required, exprs.len()) {
                    return None;
                }
                let mut needed = BTreeSet::new();
                for expr in exprs {
                    require(&mut needed, expr);
                }
                let input = self.node(input, needed)?;
                Pruned::in_place(
                    Plan::Project {
                        exprs: exprs
                            .iter()
                            .map(|e| place_expr(&input.remap, e))
                            .collect::<Option<_>>()?,
                        input: Box::new(input.plan),
                    },
                    exprs.len(),
                )
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let width = group_by.len() + aggregates.len();
                if !within(&required, width) {
                    return None;
                }
                let needed = group_by
                    .iter()
                    .copied()
                    .chain(aggregates.iter().map(|a| a.column))
                    .collect();
                let input = self.node(input, needed)?;
                Pruned::in_place(
                    Plan::Aggregate {
                        group_by: group_by
                            .iter()
                            .map(|&g| place(&input.remap, g))
                            .collect::<Option<_>>()?,
                        aggregates: aggregates
                            .iter()
                            .map(|a| Some(AggSpec::new(a.func, place(&input.remap, a.column)?)))
                            .collect::<Option<_>>()?,
                        input: Box::new(input.plan),
                    },
                    width,
                )
            }
            Plan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                let left_width = output_width(left, self.source).ok()?;
                let mut left_required: BTreeSet<usize> = left_keys.iter().copied().collect();
                let mut right_required: BTreeSet<usize> = right_keys.iter().copied().collect();
                for pos in required {
                    if pos < left_width {
                        left_required.insert(pos);
                    } else {
                        right_required.insert(pos - left_width);
                    }
                }
                let left = self.node(left, left_required)?;
                let right = self.node(right, right_required)?;
                let new_left_width = left.width();
                let remap = left
                    .remap
                    .iter()
                    .copied()
                    .chain(right.remap.iter().map(|p| p.map(|p| p + new_left_width)))
                    .collect();
                Pruned {
                    plan: Plan::Join {
                        left_keys: left_keys
                            .iter()
                            .map(|&k| place(&left.remap, k))
                            .collect::<Option<_>>()?,
                        right_keys: right_keys
                            .iter()
                            .map(|&k| place(&right.remap, k))
                            .collect::<Option<_>>()?,
                        left: Box::new(left.plan),
                        right: Box::new(right.plan),
                        kind: *kind,
                    },
                    remap,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::expr::{col, lit, AggFunc};
    use crate::plan::JoinKind;
    use crate::source::ShardedRowSource;
    use olxp_storage::{ColumnDef, DataType, RowTable, TableSchema};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Empty tables are enough: the pass only reads schemas.  `FACT` has six
    /// columns, `DIM` two.
    fn source() -> ShardedRowSource {
        let table = |name: &str, width: usize| {
            let columns = (0..width)
                .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int, false))
                .collect();
            let schema = TableSchema::new(name, columns, vec!["c0"]).unwrap();
            (name.to_string(), Arc::new(RowTable::new(Arc::new(schema))))
        };
        let tables = HashMap::from([table("FACT", 6), table("DIM", 2)]);
        ShardedRowSource::new(vec![Arc::new(tables)], 1)
    }

    fn scan(table: &str, filter: Option<Expr>, columns: &[usize]) -> Plan {
        Plan::TableScan {
            table: table.into(),
            filter,
            columns: Some(columns.to_vec()),
        }
    }

    #[test]
    fn aggregate_over_a_filtering_scan_reads_keys_inputs_and_filter_columns() {
        let source = source();
        let plan = QueryBuilder::scan_where("FACT", col(4).gt(lit(0)))
            .aggregate(vec![5], vec![AggSpec::new(AggFunc::Sum, 2)])
            .build();
        let expected = QueryBuilder::from_plan(scan("FACT", Some(col(1).gt(lit(0))), &[2, 4, 5]))
            .aggregate(vec![2], vec![AggSpec::new(AggFunc::Sum, 0)])
            .build();
        assert_eq!(prune_columns(&plan, &source), Some(expected));
    }

    #[test]
    fn filter_sort_and_limit_pass_the_set_down_and_add_their_own() {
        let source = source();
        let plan = QueryBuilder::scan("FACT")
            .filter(col(3).eq(lit(1)))
            .sort(vec![SortKey::desc(5)])
            .limit(4)
            .project(vec![col(1).add(col(1))])
            .build();
        let expected = QueryBuilder::from_plan(scan("FACT", None, &[1, 3, 5]))
            .filter(col(1).eq(lit(1)))
            .sort(vec![SortKey::desc(2)])
            .limit(4)
            .project(vec![col(0).add(col(0))])
            .build();
        assert_eq!(prune_columns(&plan, &source), Some(expected));
    }

    #[test]
    fn join_splits_the_set_at_the_left_width_and_adds_both_key_lists() {
        let source = source();
        // FACT ⋈ DIM on FACT.c1 = DIM.c0, reading FACT.c3 and DIM.c1 (at 6+1).
        let plan = QueryBuilder::scan("FACT")
            .join(
                QueryBuilder::scan("DIM"),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .project(vec![col(7), col(3)])
            .build();
        // DIM is read whole, so its scan keeps `columns: None`.
        let expected = QueryBuilder::from_plan(scan("FACT", None, &[1, 3]))
            .join(
                QueryBuilder::scan("DIM"),
                vec![0],
                vec![0],
                JoinKind::LeftOuter,
            )
            .project(vec![col(3), col(1)])
            .build();
        assert_eq!(prune_columns(&plan, &source), Some(expected));
        assert_eq!(output_width(&plan, &source).unwrap(), 2);
    }

    #[test]
    fn a_root_that_outputs_whole_rows_leaves_the_plan_as_written() {
        let source = source();
        let plan = QueryBuilder::scan_where("FACT", col(0).gt(lit(3)))
            .join(QueryBuilder::scan("DIM"), vec![1], vec![0], JoinKind::Inner)
            .sort(vec![SortKey::asc(7)])
            .limit(3)
            .build();
        assert_eq!(prune_columns(&plan, &source), None);
        assert_eq!(output_width(&plan, &source).unwrap(), 8);
    }

    #[test]
    fn an_already_narrowed_scan_narrows_further_in_base_table_terms() {
        let source = source();
        let plan = QueryBuilder::from_plan(scan("FACT", Some(col(2).lt(lit(9))), &[5, 0, 3]))
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Max, 0)])
            .build();
        let expected = QueryBuilder::from_plan(scan("FACT", Some(col(1).lt(lit(9))), &[5, 3]))
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Max, 0)])
            .build();
        assert_eq!(prune_columns(&plan, &source), Some(expected));
    }

    #[test]
    fn a_reference_the_pass_cannot_place_leaves_the_plan_as_written() {
        let source = source();
        let narrowable = |plan: QueryBuilder| plan.aggregate(vec![0], vec![]).build();
        for plan in [
            // Position past the table's width, in each place one can hide.
            narrowable(QueryBuilder::scan_where("FACT", col(6).eq(lit(1)))),
            narrowable(QueryBuilder::scan("FACT").filter(col(9).eq(lit(1)))),
            narrowable(QueryBuilder::scan("FACT").sort(vec![SortKey::asc(6)])),
            narrowable(
                QueryBuilder::scan("FACT")
                    .project(vec![col(0)])
                    .filter(col(1).is_null()),
            ),
            QueryBuilder::scan("FACT")
                .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, 6)])
                .build(),
            narrowable(QueryBuilder::scan("FACT").join(
                QueryBuilder::scan("DIM"),
                vec![1],
                vec![2],
                JoinKind::Inner,
            )),
            // Unknown table.
            narrowable(QueryBuilder::scan("NOPE")),
        ] {
            assert_eq!(prune_columns(&plan, &source), None, "{plan:?}");
        }
    }
}
