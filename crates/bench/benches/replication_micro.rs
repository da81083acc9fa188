//! Criterion micro-benchmarks for the replication pipeline: log append and
//! apply throughput, and the end-to-end catch-up latency of the background
//! applier thread.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use olxpbench::prelude::*;
use olxpbench::storage::{ColumnTable, ReplicationLog, Replicator, WalOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: i64 = 1_024;

fn item_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "ITEM",
            vec![
                ColumnDef::new("i_id", DataType::Int, false),
                ColumnDef::new("i_price", DataType::Decimal, false),
            ],
            vec!["i_id"],
        )
        .unwrap(),
    )
}

fn item(id: i64) -> Row {
    Row::new(vec![Value::Int(id), Value::Decimal(100 + id)])
}

fn write(id: i64) -> WalOp {
    WalOp {
        table: "ITEM".into(),
        key: Key::int(id),
        row: Some(item(id)),
    }
}

fn filled_log(records: i64) -> Arc<ReplicationLog> {
    let log = Arc::new(ReplicationLog::new());
    for i in 0..records {
        log.append(write(i));
    }
    log
}

fn bench_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication_micro");
    group.measurement_time(Duration::from_millis(600));
    group.sample_size(20);

    group.bench_function("append_1k", |b| {
        b.iter_batched(
            ReplicationLog::new,
            |log| {
                for i in 0..RECORDS {
                    log.append(write(i));
                }
                log
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("apply_1k", |b| {
        b.iter_batched(
            || {
                let log = filled_log(RECORDS);
                let replica = Arc::new(ColumnTable::new(item_schema()));
                let mut repl = Replicator::new(Arc::clone(&log));
                repl.register("ITEM", replica);
                repl
            },
            |repl| {
                repl.catch_up().unwrap();
                repl
            },
            BatchSize::SmallInput,
        )
    });

    // End-to-end pipeline latency: load 1k rows through the row store and the
    // replication log while the appends wake the dedicated applier thread,
    // then spin until the replica has fully converged.  The measurement spans
    // load *and* concurrent catch-up — the freshness pipeline as a whole, not
    // the isolated apply cost (that is `apply_1k`).
    group.bench_function("load_to_converged_1k", |b| {
        b.iter_batched(
            || {
                let db =
                    HybridDatabase::new(EngineConfig::dual_engine().with_time_scale(0.0)).unwrap();
                db.create_table(
                    TableSchema::new(
                        "ITEM",
                        vec![
                            ColumnDef::new("i_id", DataType::Int, false),
                            ColumnDef::new("i_price", DataType::Decimal, false),
                        ],
                        vec!["i_id"],
                    )
                    .unwrap(),
                )
                .unwrap();
                db
            },
            |db| {
                for i in 0..RECORDS {
                    db.load_row("ITEM", item(i)).unwrap();
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while db.replication_lag() > 0 {
                    assert!(Instant::now() < deadline, "applier failed to catch up");
                    std::thread::yield_now();
                }
                db
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
