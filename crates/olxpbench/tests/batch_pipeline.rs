//! Integration tests for the vectorized batch pipeline: equivalence of the
//! reference (the row source with pruning off) and the pruned path over the
//! row source and the column source across every plan shape, the exact
//! columns and pruner each scan is asked for, and the late-materialization
//! guarantee on a large columnar scan.

use olxpbench::prelude::*;
use olxpbench::query::{
    execute, execute_with, ChunkPruner, ColumnSource, DataSource, ExecOptions, QueryResult,
    ShardedRowSource, SourceKind,
};
use olxpbench::storage::{ColumnBatch, ColumnTable, RowTable, ScanOutcome};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

fn orders_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("grp", DataType::Int, false),
                ColumnDef::new("val", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

fn dim_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "D",
            vec![
                ColumnDef::new("grp", DataType::Int, false),
                ColumnDef::new("label", DataType::Str, false),
            ],
            vec!["grp"],
        )
        .unwrap(),
    )
}

/// Width of the wide table `W`: `T`'s three columns, then strings, a
/// nullable string and filler a query never needs.
const WIDE: usize = 14;

fn wide_schema() -> Arc<TableSchema> {
    let mut columns = vec![
        ColumnDef::new("id", DataType::Int, false),
        ColumnDef::new("grp", DataType::Int, false),
        ColumnDef::new("val", DataType::Int, false),
        ColumnDef::new("name", DataType::Str, false),
        ColumnDef::new("tag", DataType::Str, false),
        ColumnDef::new("note", DataType::Str, true),
    ];
    for i in columns.len()..WIDE {
        let data_type = if i % 2 == 0 {
            DataType::Str
        } else {
            DataType::Int
        };
        columns.push(ColumnDef::new(format!("pad{i}"), data_type, false));
    }
    Arc::new(TableSchema::new("W", columns, vec!["id"]).unwrap())
}

fn wide_row(id: i64, grp: i64, val: i64) -> Row {
    let mut values = vec![
        Value::Int(id),
        Value::Int(grp),
        Value::Int(val),
        Value::Str(format!("name-{id}")),
        Value::Str(format!("g{grp}")),
        if id % 3 == 0 {
            Value::Null
        } else {
            Value::Str(format!("note-{}", val % 4))
        },
    ];
    for i in values.len()..WIDE {
        values.push(if i % 2 == 0 {
            Value::Str(format!("pad-{i}-{}", id % 5))
        } else {
            Value::Int(id * i as i64)
        });
    }
    Row::new(values)
}

/// The batched column-store aggregate never materializes a per-row tuple:
/// on a 100k-row table the executor's `output_rows` counter stays at
/// the single output row, and the reference (pruning off) walks the same
/// physical slots to the same result.  `olxp-perf`'s
/// `storage.colstore.scan_mrows_per_s` times the same batched scan path.
#[test]
fn batched_column_aggregate_materializes_no_per_row_tuples_on_100k_rows() {
    const ROWS: i64 = 100_000;
    let table = Arc::new(ColumnTable::new(orders_schema()));
    for i in 0..ROWS {
        table
            .apply(
                &Key::int(i),
                Some(&Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Int(i % 1_000),
                ])),
            )
            .unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), Arc::clone(&table));
    let source = ColumnSource::new(&tables);
    let plan = QueryBuilder::scan("T")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
                AggSpec::new(AggFunc::Count, 0),
            ],
        )
        .build();

    let batched = execute_with(&plan, &source, ExecOptions::batched(1024)).unwrap();
    let reference = execute_with(
        &plan,
        &source,
        ExecOptions::batched(1024).with_pruning(false),
    )
    .unwrap();

    assert_eq!(batched.rows, reference.rows, "identical results");
    assert_eq!(batched.rows.len(), 1);

    // Both paths walked the same physical slots...
    assert_eq!(batched.stats.rows_scanned, ROWS as u64);
    assert_eq!(reference.stats.rows_scanned, ROWS as u64);

    // ...and materialized only the plan root's output row.
    assert_eq!(
        batched.stats.output_rows, 1,
        "batched path materializes only the plan root's output row"
    );
    assert_eq!(
        batched.stats.batches_scanned,
        (ROWS as u64).div_ceil(1024),
        "scan streamed in ~1024-slot chunks with a partial final batch"
    );
}

/// Build the fixture tables in both layouts: `T` and its wide twin `W` (same
/// keys, same deletes) plus the dimension `D`.  Rows are inserted in
/// ascending primary-key order so the row store (B-tree order) and the column
/// store (slot order) iterate identically; deletes leave tombstones in the
/// row store and deselected slots in the column store.  The column tables use
/// 8-slot chunks; with `compacted` every full chunk is sealed into the
/// encoded main tier (after the deletes, so main chunks carry dead slots) and
/// only the partial tail stays in delta.
#[allow(clippy::type_complexity)]
fn build_tables(
    rows: &[(i64, i64, i64)],
    delete_picks: &[usize],
    compacted: bool,
) -> (
    HashMap<String, Arc<RowTable>>,
    HashMap<String, Arc<ColumnTable>>,
) {
    let mut by_id: Vec<(i64, i64, i64)> = Vec::new();
    for &(id, grp, val) in rows {
        if !by_id.iter().any(|&(i, _, _)| i == id) {
            by_id.push((id, grp, val));
        }
    }
    by_id.sort_unstable();

    let mut row_tables = HashMap::new();
    let mut col_tables = HashMap::new();
    let narrow = |id, grp, val| Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(val)]);
    let fact_tables: [(&str, Arc<TableSchema>, &dyn Fn(i64, i64, i64) -> Row); 2] = [
        ("T", orders_schema(), &narrow),
        ("W", wide_schema(), &wide_row),
    ];
    for (name, schema, make_row) in fact_tables {
        let row_t = Arc::new(RowTable::new(Arc::clone(&schema)));
        let col_t = Arc::new(ColumnTable::with_chunk_size(schema, 8));
        for &(id, grp, val) in &by_id {
            let row = make_row(id, grp, val);
            row_t.install(Key::int(id), Some(row.clone()), 1);
            col_t.apply(&Key::int(id), Some(&row)).unwrap();
        }
        for &pick in delete_picks {
            let (id, _, _) = by_id[pick % by_id.len()];
            let key = Key::int(id);
            if row_t.get(&key, 5).is_some() {
                row_t.install(key.clone(), None, 5);
                col_t.apply(&key, None).unwrap();
            }
        }
        row_tables.insert(name.to_string(), row_t);
        col_tables.insert(name.to_string(), col_t);
    }

    let row_d = Arc::new(RowTable::new(dim_schema()));
    let col_d = Arc::new(ColumnTable::with_chunk_size(dim_schema(), 2));
    for grp in 0..5i64 {
        let row = Row::new(vec![Value::Int(grp), Value::Str(format!("group-{grp}"))]);
        row_d.install(Key::int(grp), Some(row.clone()), 1);
        col_d.apply(&Key::int(grp), Some(&row)).unwrap();
    }
    row_tables.insert("D".to_string(), row_d);
    col_tables.insert("D".to_string(), col_d);

    if compacted {
        for table in col_tables.values() {
            table.compact();
        }
    }
    (row_tables, col_tables)
}

/// Number of plan shapes [`plan_for_shape`] knows.
const SHAPES: u8 = 13;

fn plan_for_shape(shape: u8, knob: i64) -> Plan {
    match shape {
        // Pushed-down filter + residual filter operator.
        0 => QueryBuilder::scan_where("T", col(2).ge(lit(knob)))
            .filter(col(1).ne(lit(3)))
            .build(),
        // Projection with computed expressions.
        1 => QueryBuilder::scan("T")
            .project(vec![col(0), col(2).add(col(1)), col(2).mul(lit(2))])
            .build(),
        // Grouped aggregation over every aggregate function.
        2 => QueryBuilder::scan("T")
            .aggregate(
                vec![1],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Sum, 2),
                    AggSpec::new(AggFunc::Avg, 2),
                    AggSpec::new(AggFunc::Min, 2),
                    AggSpec::new(AggFunc::Max, 2),
                ],
            )
            .build(),
        // Hash joins; group values 5..8 have no dimension row, so the inner
        // and left-outer variants genuinely differ.
        3 => QueryBuilder::scan("T")
            .join(QueryBuilder::scan("D"), vec![1], vec![0], JoinKind::Inner)
            .build(),
        4 => QueryBuilder::scan("T")
            .join(
                QueryBuilder::scan("D"),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .build(),
        // Sort + limit above it.
        5 => QueryBuilder::scan("T")
            .sort(vec![SortKey::desc(2), SortKey::asc(0)])
            .limit(5)
            .build(),

        // The wide table, few columns read, through every operator kind.
        // Pushed-down filter and filter operator under an aggregate.
        6 => QueryBuilder::scan_where("W", col(2).ge(lit(knob)))
            .filter(col(4).ne(lit("g3")))
            .aggregate(
                vec![1],
                vec![
                    AggSpec::new(AggFunc::Count, 5),
                    AggSpec::new(AggFunc::Sum, 2),
                ],
            )
            .build(),
        // Project over a join: both inputs narrow, the dimension to its key.
        7 => QueryBuilder::scan("W")
            .join(QueryBuilder::scan("D"), vec![1], vec![0], JoinKind::Inner)
            .project(vec![col(3), col(2).add(col(0))])
            .build(),
        // ...and reading across the join boundary.
        8 => QueryBuilder::scan("W")
            .join(
                QueryBuilder::scan("D"),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .filter(col(WIDE + 1).is_null().or(col(2).lt(lit(knob))))
            .project(vec![col(WIDE + 1), col(5), col(0)])
            .build(),
        // Sort + limit over a join with nothing above: the root outputs
        // whole rows, so nothing is pruned.
        9 => QueryBuilder::scan("W")
            .join(QueryBuilder::scan("D"), vec![1], vec![0], JoinKind::Inner)
            .sort(vec![SortKey::desc(2), SortKey::asc(0)])
            .limit(5)
            .build(),
        // Left-outer join whose right input is empty: whole rows...
        10 => QueryBuilder::scan("T")
            .join(
                QueryBuilder::scan_where("D", col(0).eq(lit(999))),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .build(),
        // ...and grouped by a right-side column (all NULL).
        11 => QueryBuilder::scan("W")
            .join(
                QueryBuilder::scan_where("D", col(0).eq(lit(999))),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .aggregate(
                vec![WIDE + 1],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Max, 3),
                ],
            )
            .build(),
        // Sort and limit below a projection: the sort gathers narrow batches.
        _ => QueryBuilder::scan_where("W", col(3).like("%1%"))
            .sort(vec![SortKey::desc(4), SortKey::asc(3)])
            .limit(7)
            .project(vec![col(3), col(5)])
            .build(),
    }
}

/// One batched scan: the table, and the columns asked for (`None` = all).
type Scan<'a> = (&'a str, Option<&'a [usize]>);

/// A [`DataSource`] that records which columns each batched scan is asked
/// for and whether it was handed a pruner, then serves it from the wrapped
/// source.
struct Recording<'a> {
    inner: &'a dyn DataSource,
    scans: RefCell<Vec<Asked>>,
}

/// What one scan was asked for.
#[derive(Debug)]
struct Asked {
    table: String,
    columns: Option<Vec<usize>>,
    pruner: bool,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a dyn DataSource) -> Recording<'a> {
        Recording {
            inner,
            scans: RefCell::default(),
        }
    }
}

impl DataSource for Recording<'_> {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn schema(&self, table: &str) -> QueryResult<Arc<TableSchema>> {
        self.inner.schema(table)
    }

    fn scan_batches(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        batch_size: usize,
        pruner: Option<&ChunkPruner>,
        f: &mut dyn FnMut(&ColumnBatch<'_>),
    ) -> QueryResult<ScanOutcome> {
        self.scans.borrow_mut().push(Asked {
            table: table.to_string(),
            columns: projection.map(<[usize]>::to_vec),
            pruner: pruner.is_some(),
        });
        let width = projection.map_or(self.inner.schema(table)?.column_count(), <[usize]>::len);
        self.inner
            .scan_batches(table, projection, batch_size, pruner, &mut |batch| {
                assert_eq!(
                    batch.width(),
                    width,
                    "batch of exactly the columns asked for"
                );
                f(batch)
            })
    }
}

/// Column pruning asks every scan for exactly the columns its plan reads —
/// the operators' own plus the scan's pushed-down filter — in ascending
/// order, and for everything (`None`) where the plan outputs whole rows;
/// every scan gets a pruner.  The reference (pruning off) asks every scan
/// for everything and hands it no pruner.
#[test]
fn each_scan_is_asked_for_exactly_the_columns_its_plan_reads() {
    let rows: Vec<(i64, i64, i64)> = (0..40).map(|i| (i, i % 8, i * 7 % 50 - 10)).collect();
    let (row_tables, col_tables) = build_tables(&rows, &[3, 17], true);
    let row_src = ShardedRowSource::new(vec![Arc::new(row_tables)], 10);
    let col_src = ColumnSource::new(&col_tables);
    let all = None;
    let expected: [&[Scan<'_>]; SHAPES as usize] = [
        &[("T", all)],
        &[("T", all)],
        &[("T", all)],
        &[("T", all), ("D", all)],
        &[("T", all), ("D", all)],
        &[("T", all)],
        &[("W", Some(&[1, 2, 4, 5]))],
        &[("W", Some(&[0, 1, 2, 3])), ("D", Some(&[0]))],
        &[("W", Some(&[0, 1, 2, 5])), ("D", all)],
        &[("W", all), ("D", all)],
        &[("T", all), ("D", all)],
        &[("W", Some(&[0, 1, 3])), ("D", all)],
        &[("W", Some(&[3, 4, 5]))],
    ];
    for (shape, expected) in expected.iter().enumerate() {
        let plan = plan_for_shape(shape as u8, 0);
        for inner in [&row_src as &dyn DataSource, &col_src] {
            let source = Recording::new(inner);
            let out = execute(&plan, &source).unwrap();
            let scans = source.scans.into_inner();
            let asked: Vec<Scan<'_>> = scans
                .iter()
                .map(|s| (s.table.as_str(), s.columns.as_deref()))
                .collect();
            assert_eq!(asked, *expected, "shape {shape}");
            assert!(scans.iter().all(|s| s.pruner), "shape {shape}: a pruner");

            let source = Recording::new(inner);
            let reference =
                execute_with(&plan, &source, ExecOptions::default().with_pruning(false)).unwrap();
            let scans = source.scans.into_inner();
            assert_eq!(scans.len(), expected.len(), "shape {shape}");
            assert!(
                scans.iter().all(|s| s.columns.is_none() && !s.pruner),
                "shape {shape}: the reference asks for everything, unpruned: {scans:?}"
            );
            assert_eq!(out.rows, reference.rows, "shape {shape}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every plan shape returns identical rows through the row source with
    /// pruning off (the reference: the plan as written, full width), the row
    /// source pruned and `ColumnSource` pruned — over a pure-delta and a
    /// compacted column store, tables with deleted slots, and batch sizes
    /// that force a partial final batch.
    #[test]
    fn plan_shapes_agree_across_sources_and_scan_modes(
        rows in proptest::collection::vec((0i64..120, 0i64..8, -500i64..500), 1..60),
        delete_picks in proptest::collection::vec(0usize..120, 0..12),
        batch_size in 1usize..10,
        shape in 0..SHAPES,
        knob in -200i64..200,
        compacted in 0u8..2,
    ) {
        let (row_tables, col_tables) = build_tables(&rows, &delete_picks, compacted == 1);
        let plan = plan_for_shape(shape, knob);
        let row_src = ShardedRowSource::new(vec![Arc::new(row_tables)], 10);
        let col_src = ColumnSource::new(&col_tables);

        let baseline = execute_with(
            &plan,
            &row_src,
            ExecOptions::batched(batch_size).with_pruning(false),
        )
        .unwrap();
        let row_batched =
            execute_with(&plan, &row_src, ExecOptions::batched(batch_size)).unwrap();
        let col_batched =
            execute_with(&plan, &col_src, ExecOptions::batched(batch_size)).unwrap();

        prop_assert_eq!(
            &row_batched.rows, &baseline.rows,
            "row source batched diverged (shape {}, batch_size {})", shape, batch_size
        );
        prop_assert_eq!(
            &col_batched.rows, &baseline.rows,
            "ColumnSource batched diverged (shape {}, batch_size {})", shape, batch_size
        );
        prop_assert_eq!(row_batched.stats.output_rows, baseline.stats.output_rows);
        prop_assert_eq!(col_batched.stats.output_rows, baseline.stats.output_rows);
        // The two row-source modes examine exactly the same physical keys.
        prop_assert_eq!(row_batched.stats.rows_scanned, baseline.stats.rows_scanned);
    }
}
