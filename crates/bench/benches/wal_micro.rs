//! Criterion micro-benchmarks for the durability subsystem: WAL append
//! throughput under each sync policy, the group-commit batch-size sweep, and
//! replay (recovery) throughput over a 100k-record log.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use olxpbench::prelude::*;
use olxpbench::storage::wal::{SyncPolicy, Wal, WalOp};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEGMENT_BYTES: u64 = 32 * 1024 * 1024;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("olxp-wal-bench-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn op(id: i64) -> WalOp {
    WalOp {
        table: "ACCOUNT".into(),
        key: Key::int(id),
        row: Some(Row::new(vec![Value::Int(id), Value::Decimal(100 + id)])),
    }
}

/// Log one single-mutation transaction and wait for its durability.
fn commit_one(wal: &Wal, id: i64) {
    static NEXT_TXN: AtomicU64 = AtomicU64::new(1);
    let txn = NEXT_TXN.fetch_add(1, Ordering::Relaxed);
    wal.log_mutations(txn, &[op(id)], id as u64 + 1)
        .expect("append succeeds");
    let lsn = wal.log_commit(txn, id as u64 + 1).expect("append succeeds");
    wal.sync_to(lsn).expect("sync succeeds");
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_micro");
    group.measurement_time(Duration::from_millis(600));
    group.sample_size(10);

    // Append throughput per sync policy, single committer.  `Never` shows the
    // raw encode+buffer cost, `GroupCommit` adds the coordinator, `Always`
    // pays one fsync per commit — the span the sync-policy knob trades over.
    let policies: [(&str, SyncPolicy); 3] = [
        ("never", SyncPolicy::Never),
        ("group", SyncPolicy::group_commit()),
        ("always", SyncPolicy::Always),
    ];
    for (name, policy) in policies {
        let commits: i64 = if matches!(policy, SyncPolicy::Always) {
            32 // fsync-bound: keep iterations small
        } else {
            1_024
        };
        group.bench_function(format!("append_{commits}_sync_{name}"), |b| {
            b.iter_batched(
                || {
                    let dir = temp_dir(name);
                    let (wal, _) = Wal::open(&dir, policy, SEGMENT_BYTES).expect("open");
                    (wal, dir)
                },
                |(wal, dir)| {
                    for i in 0..commits {
                        commit_one(&wal, i);
                    }
                    drop(wal);
                    let _ = std::fs::remove_dir_all(&dir);
                },
                BatchSize::PerIteration,
            )
        });
    }

    // Group-commit batch-size sweep: fixed committer concurrency, varying
    // max_batch.  Larger batches amortize fsyncs until max_wait dominates.
    for max_batch in [1usize, 4, 16] {
        group.bench_function(format!("group_commit_8x32_max_batch_{max_batch}"), |b| {
            b.iter_batched(
                || {
                    let dir = temp_dir("sweep");
                    let policy = SyncPolicy::GroupCommit {
                        max_batch,
                        max_wait_us: 200,
                    };
                    let (wal, _) = Wal::open(&dir, policy, SEGMENT_BYTES).expect("open");
                    (Arc::new(wal), dir)
                },
                |(wal, dir)| {
                    std::thread::scope(|scope| {
                        for t in 0..8i64 {
                            let wal = Arc::clone(&wal);
                            scope.spawn(move || {
                                for i in 0..32 {
                                    commit_one(&wal, t * 32 + i);
                                }
                            });
                        }
                    });
                    drop(wal);
                    let _ = std::fs::remove_dir_all(&dir);
                },
                BatchSize::PerIteration,
            )
        });
    }

    // Replay (recovery) throughput on a 100k-record log: the cost of
    // reopening after a crash with no checkpoint to shortcut replay.
    group.bench_function("replay_100k_records", |b| {
        b.iter_batched(
            || {
                let dir = temp_dir("replay");
                {
                    let (wal, _) = Wal::open(&dir, SyncPolicy::Never, SEGMENT_BYTES).expect("open");
                    // ~33,334 transactions x 3 records each > 100k records.
                    for i in 0..33_334 {
                        commit_one(&wal, i);
                    }
                    wal.flush_and_fsync().expect("flush");
                }
                dir
            },
            |dir| {
                let (_wal, replay) =
                    Wal::open(&dir, SyncPolicy::Never, SEGMENT_BYTES).expect("replay");
                assert!(replay.records.len() >= 100_000);
                let _ = std::fs::remove_dir_all(&dir);
            },
            BatchSize::PerIteration,
        )
    });

    // End-to-end durable commit through the engine: what a transaction pays
    // for group-commit durability relative to the in-memory engine.
    group.bench_function("engine_commit_256_group", |b| {
        b.iter_batched(
            || {
                let dir = temp_dir("engine");
                let config = EngineConfig::dual_engine()
                    .with_time_scale(0.0)
                    .with_durability(DurabilityConfig::at(dir.display().to_string()));
                let db = HybridDatabase::open(config).expect("open");
                db.create_table(
                    TableSchema::new(
                        "ACCOUNT",
                        vec![
                            ColumnDef::new("a_id", DataType::Int, false),
                            ColumnDef::new("a_balance", DataType::Decimal, false),
                        ],
                        vec!["a_id"],
                    )
                    .expect("schema"),
                )
                .expect("create table");
                (db, dir)
            },
            |(db, dir)| {
                let session = db.session();
                for i in 0..256i64 {
                    let mut txn = session.begin(WorkClass::Oltp);
                    session
                        .insert(
                            &mut txn,
                            "ACCOUNT",
                            Row::new(vec![Value::Int(i), Value::Decimal(i)]),
                        )
                        .expect("insert");
                    session.commit(txn).expect("commit");
                }
                drop(session);
                drop(db);
                let _ = std::fs::remove_dir_all(&dir);
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_wal);
criterion_main!(benches);
