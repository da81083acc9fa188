//! Criterion micro-benchmarks for the storage substrate: MVCC row store,
//! column store, buffer pool and replication pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use olxpbench::engine::model::BufferPool;
use olxpbench::prelude::*;
use olxpbench::storage::{
    ColumnPredicate, ColumnTable, PredicateOp, ReplicationLog, Replicator, RowTable, ScanPredicate,
    WalOp,
};
use std::sync::Arc;
use std::time::Duration;

fn item_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "ITEM",
            vec![
                ColumnDef::new("i_id", DataType::Int, false),
                ColumnDef::new("i_name", DataType::Str, false),
                ColumnDef::new("i_price", DataType::Decimal, false),
            ],
            vec!["i_id"],
        )
        .unwrap()
        .with_index("idx_name", vec!["i_name"], false)
        .unwrap(),
    )
}

fn item(id: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(format!("item-{}", id % 64)),
        Value::Decimal(100 + id),
    ])
}

/// Sum the batch columns `positions` of a scan asked for `projection`.
fn sum_columns(table: &ColumnTable, projection: Option<&[usize]>, positions: &[usize]) -> f64 {
    let mut sum = 0f64;
    table.scan_batches(projection, 1024, |batch| {
        for &position in positions {
            let values = batch.column(position);
            for row in batch.selected_rows() {
                sum += values[row].as_f64().unwrap_or(0.0);
            }
        }
    });
    sum
}

/// A 34-column table shaped like tabenchmark's SUBSCRIBER: a key, a phone
/// number string, then flag / small-int / byte-string columns.
fn wide_table(rows: i64) -> ColumnTable {
    let mut columns = vec![
        ColumnDef::new("s_id", DataType::Int, false),
        ColumnDef::new("sub_nbr", DataType::Str, false),
    ];
    for i in 2..34 {
        let data_type = if i % 3 == 0 {
            DataType::Str
        } else {
            DataType::Int
        };
        columns.push(ColumnDef::new(format!("c{i}"), data_type, false));
    }
    let table = ColumnTable::new(Arc::new(
        TableSchema::new("WIDE", columns, vec!["s_id"]).unwrap(),
    ));
    for id in 0..rows {
        let mut values = vec![Value::Int(id), Value::Str(format!("{id:015}"))];
        for i in 2..34i64 {
            values.push(if i % 3 == 0 {
                Value::Str(format!("v{}", (id + i) % 97))
            } else {
                Value::Int((id * i) % 251)
            });
        }
        table.apply(&Key::int(id), Some(&Row::new(values))).unwrap();
    }
    table
}

fn loaded_row_table(rows: i64) -> RowTable {
    let table = RowTable::new(item_schema());
    for i in 0..rows {
        table.install(Key::int(i), Some(item(i)), 1);
    }
    table
}

fn bench_rowstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("rowstore");
    group.measurement_time(Duration::from_millis(600));
    group.sample_size(20);

    group.bench_function("insert", |b| {
        b.iter_batched(
            || (RowTable::new(item_schema()), 0i64),
            |(table, _)| {
                for i in 0..256 {
                    table.install(Key::int(i), Some(item(i)), 1);
                }
                table
            },
            BatchSize::SmallInput,
        )
    });

    let table = loaded_row_table(10_000);
    group.bench_function("point_read", |b| {
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 7) % 10_000;
            table.get(&Key::int(key), 10)
        })
    });
    group.bench_function("full_scan_10k", |b| {
        b.iter(|| {
            let mut count = 0usize;
            table.scan(10, |_, _| count += 1);
            count
        })
    });
    group.bench_function("batched_scan_10k", |b| {
        b.iter(|| {
            let mut count = 0usize;
            table.scan_batches(10, None, 1024, |batch| count += batch.num_rows());
            count
        })
    });
    group.bench_function("batched_scan_10k_project_1_of_3", |b| {
        b.iter(|| {
            let mut count = 0usize;
            table.scan_batches(10, Some(&[2]), 1024, |batch| count += batch.num_rows());
            count
        })
    });
    group.bench_function("secondary_index_lookup", |b| {
        b.iter(|| {
            table
                .index_lookup(0, &Key::new(vec![Value::Str("item-7".into())]), 10)
                .unwrap()
                .0
                .len()
        })
    });
    group.finish();
}

fn bench_colstore_and_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("colstore");
    group.measurement_time(Duration::from_millis(600));
    group.sample_size(20);

    let col = ColumnTable::new(item_schema());
    for i in 0..10_000i64 {
        col.apply(&Key::int(i), Some(&item(i))).unwrap();
    }
    group.bench_function("projected_scan_10k", |b| {
        b.iter(|| sum_columns(&col, Some(&[2]), &[0]))
    });
    group.bench_function("full_width_scan_10k", |b| {
        b.iter(|| sum_columns(&col, None, &[2]))
    });

    group.finish();

    // Vectorized consumption of columnar data: `scan_batches` hands out the
    // projected columns (zero-copy slices in the delta tier, decoded vectors
    // in the main tier) with a selection bitmap.
    let mut group = c.benchmark_group("colstore_batch");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(10);
    let big = ColumnTable::new(item_schema());
    for i in 0..100_000i64 {
        big.apply(&Key::int(i), Some(&item(i))).unwrap();
    }
    group.bench_function("batched_scan_100k", |b| {
        b.iter(|| sum_columns(&big, Some(&[2]), &[0]))
    });
    // Column pruning in one line: the same two columns summed out of a
    // 34-column table, asking the scan for those two or for all 34.  The
    // delta tier lends slices either way (the gap is the per-batch slice
    // bookkeeping); the main tier decodes what it is asked for.
    let wide = wide_table(20_000);
    for tier in ["delta", "main"] {
        if tier == "main" {
            wide.compact();
        }
        group.bench_function(format!("wide34_project_2_of_34_{tier}_20k"), |b| {
            b.iter(|| sum_columns(&wide, Some(&[2, 4]), &[0, 1]))
        });
        group.bench_function(format!("wide34_all_34_{tier}_20k"), |b| {
            b.iter(|| sum_columns(&wide, None, &[2, 4]))
        });
    }
    group.finish();

    // Chunk pruning: the same selective equality scan with pruning off and
    // on.  `i_price` is monotone in the row id, so zone maps prune almost
    // every chunk.
    let mut group = c.benchmark_group("colstore_prune");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(10);
    let predicate = ScanPredicate::new(
        ColumnPredicate::new(2, PredicateOp::Eq, Value::Decimal(100 + 50_000))
            .into_iter()
            .collect(),
    );
    for (label, predicate) in [("off", None), ("on", Some(&predicate))] {
        group.bench_function(format!("eq_scan_100k_{label}"), |b| {
            b.iter(|| {
                let mut count = 0usize;
                big.scan_batches_pruned(Some(&[2]), 1024, predicate, |batch| {
                    count += batch.selected_rows().count()
                });
                count
            })
        });
    }
    group.finish();

    // Encoded vs. plain execution of the same scans. Both tables hold the
    // same 100k rows; one is fully compacted into dictionary/RLE-encoded main
    // chunks, the other keeps everything in the plain delta tier. The
    // encoded equality scan matches dictionary codes and skips decoding for
    // windows with no survivors.
    let mut group = c.benchmark_group("colstore_encoded");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(10);
    let encoded = ColumnTable::new(item_schema());
    for i in 0..100_000i64 {
        encoded.apply(&Key::int(i), Some(&item(i))).unwrap();
    }
    encoded.compact();
    let name_eq = ScanPredicate::new(
        ColumnPredicate::new(1, PredicateOp::Eq, Value::Str("item-7".into()))
            .into_iter()
            .collect(),
    );
    for (label, table) in [("plain", &big), ("encoded", &encoded)] {
        group.bench_function(format!("name_eq_scan_100k_{label}"), |b| {
            b.iter(|| {
                let mut count = 0usize;
                table.scan_batches_pruned(Some(&[1]), 1024, Some(&name_eq), |batch| {
                    count += batch.selected_rows().count()
                });
                count
            })
        });
        group.bench_function(format!("full_scan_sum_100k_{label}"), |b| {
            b.iter(|| sum_columns(table, Some(&[2]), &[0]))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("replication");
    group.measurement_time(Duration::from_millis(600));
    group.sample_size(20);
    group.bench_function("replication_apply_1k", |b| {
        b.iter_batched(
            || {
                let log = Arc::new(ReplicationLog::new());
                let replica = Arc::new(ColumnTable::new(item_schema()));
                let mut repl = Replicator::new(Arc::clone(&log));
                repl.register("ITEM", replica);
                for i in 0..1_000i64 {
                    log.append(WalOp {
                        table: "ITEM".into(),
                        key: Key::int(i),
                        row: Some(item(i)),
                    });
                }
                repl
            },
            |repl| repl.catch_up().unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_bufferpool(c: &mut Criterion) {
    let mut group = c.benchmark_group("bufferpool");
    group.measurement_time(Duration::from_millis(400));
    group.sample_size(20);
    let pool = BufferPool::new(4096);
    group.bench_function("access_mixed_tables", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            pool.access(if i % 3 == 0 { "ORDER_LINE" } else { "CUSTOMER" }, 64)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rowstore,
    bench_colstore_and_replication,
    bench_bufferpool
);
criterion_main!(benches);
