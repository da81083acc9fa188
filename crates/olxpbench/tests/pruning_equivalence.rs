//! Property-based equivalence of pruned and unpruned columnar scans.
//!
//! Chunk pruning (zone maps) is a pure optimization: it may only skip chunks
//! that provably contain no matching live rows, so a filtered scan must
//! return exactly the same rows with [`ExecOptions::pruning`] off and on —
//! including after updates (which widen zone maps conservatively) and
//! deletes (which leave stale contributions behind), and for every sargable
//! predicate shape the extractor understands (equality, ranges,
//! AND-conjunctions) as well as non-sargable filters that prune nothing.

use olxpbench::prelude::*;
use olxpbench::query::{execute_with, ColumnSource, ExecOptions, Expr, Plan};
use olxpbench::storage::ColumnTable;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Tiny chunks so a handful of rows spans many chunks and every scan
/// exercises the prune/survive decision repeatedly.
const CHUNK_SIZE: usize = 8;

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("b", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

/// A generated filter: the sargable shapes the extractor understands, plus a
/// non-sargable OR (which must disable pruning rather than lose rows).
#[derive(Debug, Clone)]
enum Predicate {
    EqA(i64),
    LtA(i64),
    RangeA(i64, i64),
    RangeAndEq(i64, i64),
    EqBoth(i64, i64),
    OrEq(i64, i64),
}

impl Predicate {
    fn expr(&self) -> Expr {
        match *self {
            Predicate::EqA(x) => col(1).eq(lit(Value::Int(x))),
            Predicate::LtA(x) => col(1).lt(lit(Value::Int(x))),
            Predicate::RangeA(lo, hi) => col(1)
                .ge(lit(Value::Int(lo)))
                .and(col(1).le(lit(Value::Int(hi)))),
            Predicate::RangeAndEq(lo, b) => col(1)
                .ge(lit(Value::Int(lo)))
                .and(col(2).eq(lit(Value::Int(b)))),
            Predicate::EqBoth(a, b) => col(1)
                .eq(lit(Value::Int(a)))
                .and(col(2).eq(lit(Value::Int(b)))),
            Predicate::OrEq(x, y) => col(1)
                .eq(lit(Value::Int(x)))
                .or(col(1).eq(lit(Value::Int(y)))),
        }
    }
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let v = -12i64..12;
    prop_oneof![
        v.clone().prop_map(Predicate::EqA),
        v.clone().prop_map(Predicate::LtA),
        (v.clone(), v.clone()).prop_map(|(x, y)| Predicate::RangeA(x.min(y), x.max(y))),
        (v.clone(), v.clone()).prop_map(|(lo, b)| Predicate::RangeAndEq(lo, b)),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::EqBoth(a, b)),
        (v.clone(), v).prop_map(|(x, y)| Predicate::OrEq(x, y)),
    ]
}

/// Build a column table from inserts, then apply updates and deletes (all
/// indices taken modulo the row count), leaving widened zone maps and dead
/// slots behind.
fn build(
    rows: &[(i64, i64)],
    updates: &[(usize, i64, i64)],
    deletes: &[usize],
) -> Arc<ColumnTable> {
    let table = Arc::new(ColumnTable::with_chunk_size(schema(), CHUNK_SIZE));
    for (i, &(a, b)) in rows.iter().enumerate() {
        table
            .apply(
                &Key::int(i as i64),
                Some(&Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(a),
                    Value::Int(b),
                ])),
            )
            .unwrap();
    }
    for &(i, a, b) in updates {
        let id = (i % rows.len()) as i64;
        table
            .apply(
                &Key::int(id),
                Some(&Row::new(vec![
                    Value::Int(id),
                    Value::Int(a),
                    Value::Int(b),
                ])),
            )
            .unwrap();
    }
    for &i in deletes {
        let id = (i % rows.len()) as i64;
        table.apply(&Key::int(id), None).unwrap();
    }
    table
}

fn scan(table: &Arc<ColumnTable>, plan: &Plan, pruning: bool) -> Vec<Row> {
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), Arc::clone(table));
    let source = ColumnSource::new(&tables);
    // A batch size smaller than the chunk size also exercises batch windows
    // that straddle pruned-run boundaries.
    let mut out = execute_with(plan, &source, ExecOptions::batched(5).with_pruning(pruning))
        .expect("scan succeeds")
        .rows;
    // Order-insensitive comparison: sort by the primary key (column 0).
    out.sort_by(|x, y| x[0].cmp(&y[0]));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A filtered scan returns the same rows with pruning off and on, for
    /// any mutation history and any supported predicate shape.
    #[test]
    fn pruned_scan_equals_unpruned_scan(
        rows in proptest::collection::vec((-10i64..10, -10i64..10), 1..120),
        updates in proptest::collection::vec((0usize..1024, -10i64..10, -10i64..10), 0..30),
        deletes in proptest::collection::vec(0usize..1024, 0..30),
        predicate in predicate_strategy(),
    ) {
        let table = build(&rows, &updates, &deletes);
        let plan = QueryBuilder::scan_where("T", predicate.expr()).build();
        let baseline = scan(&table, &plan, false);
        let pruned = scan(&table, &plan, true);
        prop_assert_eq!(&pruned, &baseline, "diverged for predicate {:?}", predicate);
    }

    /// Unfiltered scans agree too: the only pruning opportunity is a fully
    /// deleted chunk, which must not hide surviving rows elsewhere.
    #[test]
    fn unfiltered_scan_unaffected_by_pruning(
        rows in proptest::collection::vec((-10i64..10, -10i64..10), 1..80),
        deletes in proptest::collection::vec(0usize..1024, 0..80),
    ) {
        let table = build(&rows, &[], &deletes);
        let plan = QueryBuilder::scan("T").build();
        let baseline = scan(&table, &plan, false);
        let pruned = scan(&table, &plan, true);
        prop_assert_eq!(pruned, baseline);
    }
}
