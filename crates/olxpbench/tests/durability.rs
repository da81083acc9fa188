//! Crash-recovery test suite for the durability subsystem.
//!
//! Every test follows the same shape: open a durable engine rooted at a fresh
//! data directory, do some committed work, *crash* (drop all process state
//! without a clean shutdown via `HybridDatabase::simulate_crash`), reopen from
//! the same directory, and verify that everything acknowledged before the
//! crash — and nothing else — is visible again, through both transactional
//! reads and freshness-bounded analytical queries.

use olxpbench::prelude::*;
use olxpbench::storage::StorageError;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir()
        .join(format!(
            "olxp-durability-{tag}-{}-{nanos}",
            std::process::id()
        ))
        .display()
        .to_string()
}

fn account_schema() -> TableSchema {
    TableSchema::new(
        "ACCOUNT",
        vec![
            ColumnDef::new("a_id", DataType::Int, false),
            ColumnDef::new("a_owner", DataType::Str, false),
            ColumnDef::new("a_balance", DataType::Decimal, false),
        ],
        vec!["a_id"],
    )
    .unwrap()
    .with_index("idx_owner", vec!["a_owner"], false)
    .unwrap()
}

/// A durable dual-engine config: column-store-only analytical routing and
/// strict freshness, so post-recovery analytical reads are the hard case.
fn durable_config(dir: &str, sync: SyncPolicy) -> EngineConfig {
    let mut config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_freshness(FreshnessPolicy::Strict)
        .with_durability(DurabilityConfig::at(dir).with_sync(sync))
        .with_nodes(2);
    config.analytical_rowstore_percent = 0;
    config
}

fn account_row(id: i64, balance: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(format!("owner-{id}")),
        Value::Decimal(balance),
    ])
}

/// Commit one insert through the full transactional path.
fn commit_insert(session: &Session, id: i64, balance: i64) {
    let mut txn = session.begin(WorkClass::Oltp);
    session
        .insert(&mut txn, "ACCOUNT", account_row(id, balance))
        .unwrap();
    session.commit(txn).unwrap();
}

/// Count the ACCOUNT rows via a Strict-freshness analytical query (served by
/// the column store, so recovery must have re-seeded replication correctly).
fn analytical_count(db: &Arc<HybridDatabase>) -> i64 {
    let session = db.session();
    let plan = QueryBuilder::scan("ACCOUNT")
        .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
        .build();
    let out = session.analytical_query(&plan).unwrap();
    assert_eq!(
        out.stats.freshness_lag_records, 0,
        "strict analytical read observes zero lag"
    );
    out.rows[0][0].as_int().unwrap()
}

/// Count rows via transactional point reads of the expected keys.
fn transactional_count(db: &Arc<HybridDatabase>, ids: impl Iterator<Item = i64>) -> i64 {
    let session = db.session();
    let mut txn = session.begin(WorkClass::Oltp);
    let mut found = 0;
    for id in ids {
        if session
            .read(&mut txn, "ACCOUNT", &Key::int(id))
            .unwrap()
            .is_some()
        {
            found += 1;
        }
    }
    session.commit(txn).unwrap();
    found
}

#[test]
fn kill_after_commit_loses_nothing() {
    // The acceptance-criteria round trip: N commits across both stores, crash
    // without shutdown, reopen, observe all N through transactional reads AND
    // a Strict-freshness analytical query.  Runs once per shard count: the
    // single-shard engine (the seed layout, one plain `wal` stream) and a
    // sharded one (four `wal-shard<K>` streams, per-shard checkpoint cuts).
    const N: i64 = 40;
    for shards in [1usize, 4] {
        let dir = temp_dir(&format!("kill-after-commit-{shards}"));
        let config = || durable_config(&dir, SyncPolicy::group_commit()).with_shards(shards);
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(account_schema()).unwrap();
            let session = db.session();
            for i in 0..N {
                commit_insert(&session, i, 100 * i);
            }
            // Both stores hold the data before the crash.
            assert_eq!(analytical_count(&db), N);
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let report = db.recovery_report().expect("recovery ran");
        assert_eq!(report.tables_recovered, 1);
        assert_eq!(
            transactional_count(&db, 0..N),
            N,
            "row store recovered at {shards} shards"
        );
        assert_eq!(
            analytical_count(&db),
            N,
            "column store re-seeded at {shards} shards"
        );
        // Updates layered over recovered rows keep working.
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(&mut txn, "ACCOUNT", &Key::int(0), account_row(0, 999_999))
            .unwrap();
        session.commit(txn).unwrap();
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn kill_mid_write_loses_nothing_committed() {
    // Under SyncPolicy::Always every acknowledged commit is fsynced; a crash
    // with arbitrary unflushed engine state (mid-"write") must preserve all
    // of them.  Updates and deletes exercise replay beyond pure inserts.
    let dir = temp_dir("kill-mid-write");
    {
        let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always)).unwrap();
        db.create_table(account_schema()).unwrap();
        let session = db.session();
        for i in 0..20 {
            commit_insert(&session, i, i);
        }
        // Overwrite half, delete a quarter.
        for i in 0..10 {
            let mut txn = session.begin(WorkClass::Oltp);
            session
                .update(&mut txn, "ACCOUNT", &Key::int(i), account_row(i, 1_000 + i))
                .unwrap();
            session.commit(txn).unwrap();
        }
        for i in 15..20 {
            let mut txn = session.begin(WorkClass::Oltp);
            session.delete(&mut txn, "ACCOUNT", &Key::int(i)).unwrap();
            session.commit(txn).unwrap();
        }
        db.simulate_crash();
    }
    let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always)).unwrap();
    assert_eq!(transactional_count(&db, 0..20), 15, "deletes replayed");
    assert_eq!(analytical_count(&db), 15);
    let session = db.session();
    let mut txn = session.begin(WorkClass::Oltp);
    let row = session
        .read(&mut txn, "ACCOUNT", &Key::int(3))
        .unwrap()
        .expect("updated row survives");
    assert_eq!(row[2], Value::Decimal(1_003), "newest image wins");
    session.commit(txn).unwrap();
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn key_written_twice_in_one_transaction_recovers_its_last_image() {
    // Both versions carry the transaction's one commit timestamp, so replay
    // must not mistake the second for one it already holds (NewOrder with a
    // repeated item updates one STOCK row twice).  A second key in the same
    // transaction makes the four-shard run cross-shard on most layouts.
    for shards in [1usize, 4] {
        let dir = temp_dir(&format!("written-twice-{shards}"));
        let config = || durable_config(&dir, SyncPolicy::Always).with_shards(shards);
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(account_schema()).unwrap();
            let session = db.session();
            commit_insert(&session, 1, 10);
            let mut txn = session.begin(WorkClass::Oltp);
            session
                .update(&mut txn, "ACCOUNT", &Key::int(1), account_row(1, 20))
                .unwrap();
            session
                .insert(&mut txn, "ACCOUNT", account_row(2, 5))
                .unwrap();
            session
                .update(&mut txn, "ACCOUNT", &Key::int(1), account_row(1, 30))
                .unwrap();
            session
                .update(&mut txn, "ACCOUNT", &Key::int(2), account_row(2, 6))
                .unwrap();
            session.commit(txn).unwrap();
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        for (id, balance) in [(1, 30), (2, 6)] {
            let row = session
                .read(&mut txn, "ACCOUNT", &Key::int(id))
                .unwrap()
                .expect("row recovered");
            assert_eq!(
                row[2],
                Value::Decimal(balance),
                "account {id} recovers its second image at {shards} shards"
            );
        }
        session.commit(txn).unwrap();
        assert_eq!(analytical_count(&db), 2);
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn insert_and_delete_of_one_key_in_one_transaction_leaves_no_version_after_recovery() {
    // Replay applies only the key's last write, a tombstone for a key the
    // recovered store never held: it must be a no-op, not a tombstone-only
    // version chain.
    for shards in [1usize, 4] {
        let dir = temp_dir(&format!("insert-then-delete-{shards}"));
        let config = || durable_config(&dir, SyncPolicy::Always).with_shards(shards);
        let keys_before;
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(account_schema()).unwrap();
            let session = db.session();
            for i in 0..4 {
                commit_insert(&session, i, 10 * i);
            }
            keys_before = db.table_key_count("ACCOUNT");
            let mut txn = session.begin(WorkClass::Oltp);
            session
                .insert(&mut txn, "ACCOUNT", account_row(99, 1))
                .unwrap();
            session.delete(&mut txn, "ACCOUNT", &Key::int(99)).unwrap();
            session.commit(txn).unwrap();
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        assert_eq!(
            db.table_key_count("ACCOUNT"),
            keys_before,
            "no version of the key at {shards} shards"
        );
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        assert!(session
            .read(&mut txn, "ACCOUNT", &Key::int(99))
            .unwrap()
            .is_none());
        session.commit(txn).unwrap();
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The newest WAL segment in `dir` (highest sequence number).
fn newest_segment(dir: &str) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(Path::new(dir))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("at least one WAL segment")
}

#[test]
fn torn_tail_is_truncated_and_commits_survive() {
    let dir = temp_dir("torn-tail");
    {
        let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always)).unwrap();
        db.create_table(account_schema()).unwrap();
        let session = db.session();
        for i in 0..10 {
            commit_insert(&session, i, i);
        }
        db.simulate_crash();
    }
    // A crash mid-write leaves a torn frame at the tail of the newest
    // segment: a header promising more bytes than were persisted.
    {
        let mut f = OpenOptions::new()
            .append(true)
            .open(newest_segment(&dir))
            .unwrap();
        f.write_all(&10_000u32.to_le_bytes()).unwrap();
        f.write_all(&0x1234_5678u32.to_le_bytes()).unwrap();
        f.write_all(b"only half a record made it to dis").unwrap();
    }
    let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always)).unwrap();
    let report = db.recovery_report().unwrap();
    assert!(report.torn_bytes_truncated > 0, "the torn tail was dropped");
    assert_eq!(transactional_count(&db, 0..10), 10);
    assert_eq!(analytical_count(&db), 10);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_log_corruption_surfaces_as_typed_error() {
    // Pinned to one shard: with the work spread over several small streams,
    // the flipped "middle" byte of one stream can land in its final record,
    // which is indistinguishable from a torn tail and legally truncated
    // instead of reported.
    let dir = temp_dir("corruption");
    let segment;
    {
        let db =
            HybridDatabase::open(durable_config(&dir, SyncPolicy::Always).with_shards(1)).unwrap();
        db.create_table(account_schema()).unwrap();
        let session = db.session();
        for i in 0..10 {
            commit_insert(&session, i, i);
        }
        segment = newest_segment(&dir);
        db.simulate_crash();
    }
    // Damage a byte in the middle of acknowledged log bytes.
    let mut bytes = std::fs::read(&segment).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&segment, &bytes).unwrap();

    let err = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always).with_shards(1));
    assert!(
        matches!(
            err,
            Err(EngineError::Storage(StorageError::WalCorrupt { .. }))
        ),
        "expected WalCorrupt, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsynced_commits_under_never_policy_are_lost_but_synced_ones_survive() {
    // The contrapositive of durability: with SyncPolicy::Never nothing is
    // fsynced at commit, so a crash loses the tail — demonstrating that the
    // syncing policies (not luck) are what the other tests rely on.
    let dir = temp_dir("never");
    {
        let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Never)).unwrap();
        db.create_table(account_schema()).unwrap();
        let session = db.session();
        for i in 0..5 {
            commit_insert(&session, i, i);
        }
        db.checkpoint().unwrap(); // makes everything so far durable
        for i in 5..10 {
            commit_insert(&session, i, i);
        }
        db.simulate_crash(); // the 5 post-checkpoint commits were never synced
    }
    let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Never)).unwrap();
    assert_eq!(transactional_count(&db, 0..10), 5);
    assert_eq!(analytical_count(&db), 5);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_from_checkpoint_plus_wal_tail_composes() {
    // Work lands in three strata: before the first checkpoint, between
    // checkpoints, and in the WAL tail after the last one.  Recovery must
    // stitch all three together.
    for shards in [1usize, 4] {
        let dir = temp_dir(&format!("compose-{shards}"));
        let config = || durable_config(&dir, SyncPolicy::group_commit()).with_shards(shards);
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(account_schema()).unwrap();
            let session = db.session();
            for i in 0..10 {
                commit_insert(&session, i, i);
            }
            db.checkpoint().unwrap();
            for i in 10..20 {
                commit_insert(&session, i, i);
            }
            db.checkpoint().unwrap();
            for i in 20..30 {
                commit_insert(&session, i, i);
            }
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.checkpoint_rows, 20, "two strata from the checkpoint");
        assert_eq!(report.wal_txns_replayed, 10, "one stratum from the tail");
        assert_eq!(transactional_count(&db, 0..30), 30);
        assert_eq!(analytical_count(&db), 30);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn automatic_checkpoints_trigger_and_truncate() {
    let dir = temp_dir("auto-ckpt");
    let config = |sync| {
        let mut c = durable_config(&dir, sync);
        // Three records per commit: trigger roughly every 20 commits.
        c.durability = c
            .durability
            .with_checkpoint_every(60)
            .with_segment_bytes(4096);
        c
    };
    {
        let db = HybridDatabase::open(config(SyncPolicy::group_commit())).unwrap();
        db.create_table(account_schema()).unwrap();
        let session = db.session();
        for i in 0..100 {
            commit_insert(&session, i, i);
        }
        let wal = db.metrics_snapshot().wal;
        assert!(wal.checkpoints >= 1, "auto checkpoint fired: {wal:?}");
        assert_eq!(wal.checkpoint_failures, 0);
        db.simulate_crash();
    }
    let db = HybridDatabase::open(config(SyncPolicy::group_commit())).unwrap();
    assert_eq!(transactional_count(&db, 0..100), 100);
    assert_eq!(analytical_count(&db), 100);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_batches_concurrent_committers() {
    // The acceptance criterion's batching bound: >= 2 commits per fsync on
    // average under concurrent committers.
    let dir = temp_dir("group-batch");
    // Pinned to one shard: the batching bound assumes all committers share
    // one fsync queue, and sharding deliberately splits that queue per shard.
    let db = HybridDatabase::open(
        durable_config(
            &dir,
            SyncPolicy::GroupCommit {
                max_batch: 8,
                max_wait_us: 2_000,
            },
        )
        .with_shards(1),
    )
    .unwrap();
    db.create_table(account_schema()).unwrap();
    const THREADS: i64 = 8;
    const PER_THREAD: i64 = 30;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = db.session();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    commit_insert(&session, t * PER_THREAD + i, i);
                }
            });
        }
    });
    let wal = db.metrics_snapshot().wal;
    // Every commit plus the create_table DDL was acknowledged via a sync.
    assert_eq!(wal.synced_commits, (THREADS * PER_THREAD) as u64 + 1);
    assert!(
        wal.commits_per_fsync() >= 2.0,
        "expected >= 2 commits per fsync, got {:.2} ({} commits / {} fsyncs)",
        wal.commits_per_fsync(),
        wal.synced_commits,
        wal.fsyncs
    );
    assert!(wal.group_batch_max >= 2);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_racing_concurrent_commits_lose_nothing() {
    // Regression test for the checkpoint-cut race: the `(commit_ts, LSN)`
    // cut must never land between a transaction's timestamp allocation and
    // its WAL window, or recovery silently drops an acknowledged commit.
    // Hammer commits from several threads while another thread checkpoints
    // continuously, then crash and verify every acknowledged commit.
    let dir = temp_dir("ckpt-race");
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 50;
    {
        let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::group_commit())).unwrap();
        db.create_table(account_schema()).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let done = &done;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let session = db.session();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        commit_insert(&session, t * PER_THREAD + i, i);
                    }
                });
            }
            let ckpt_db = &db;
            scope.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    ckpt_db.checkpoint().unwrap();
                }
            });
            // Writers finishing is observed by the scope join of their
            // handles; signal the checkpointer afterwards by a sentinel
            // thread that waits for the commit count.
            let sentinel_db = &db;
            scope.spawn(move || {
                while sentinel_db.metrics_snapshot().commits < (THREADS * PER_THREAD) as u64 {
                    std::thread::yield_now();
                }
                done.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        db.simulate_crash();
    }
    let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::group_commit())).unwrap();
    assert_eq!(
        transactional_count(&db, 0..THREADS * PER_THREAD),
        THREADS * PER_THREAD,
        "no acknowledged commit may be lost to a racing checkpoint"
    );
    assert_eq!(analytical_count(&db), THREADS * PER_THREAD);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_workload_survives_crash_recovery() {
    // End-to-end: run a real workload (fibenchmark OLTP) against a durable
    // engine, crash, reopen, and verify the engine still answers strict
    // analytical queries over a consistent recovered state.
    use std::time::Duration;
    let dir = temp_dir("workload");
    let committed;
    {
        let mut config = EngineConfig::dual_engine()
            .with_time_scale(0.0)
            .with_durability(DurabilityConfig::at(&dir));
        config.analytical_rowstore_percent = 0;
        let db = HybridDatabase::open(config).unwrap();
        let workload = Fibenchmark::new();
        let bench = BenchConfig::oltp_only(2, 500.0, Duration::from_millis(200))
            .with_scale_factor(1)
            .with_warmup(Duration::from_millis(20));
        let driver = BenchmarkDriver::new(bench);
        driver.prepare(&db, &workload).unwrap();
        let result = driver.run(&db, &workload).unwrap();
        assert!(result.engine.wal.appends > 0, "durable run logs to the WAL");
        assert!(result.engine.wal.fsyncs > 0);
        committed = db.total_live_rows();
        db.simulate_crash();
    }
    let mut config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_durability(DurabilityConfig::at(&dir));
    config.analytical_rowstore_percent = 0;
    let db = HybridDatabase::open(config).unwrap();
    assert_eq!(
        db.total_live_rows(),
        committed,
        "every acknowledged row survives the crash"
    );
    assert_eq!(db.replication_lag(), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_doubt_cross_shard_transaction_commits_on_all_shards_or_none() {
    // The 2PC acceptance case.  A cross-shard transaction forces
    // Begin+Mutation+Prepare to every touched shard before any shard logs its
    // Commit marker, so the worst crash leaves the transaction *in doubt*:
    // prepared everywhere, committed on some-but-not-all shards.  Recovery
    // must resolve it atomically — any shard's Commit marker proves the
    // global decision and commits the writes on every shard; no marker
    // anywhere means presumed abort on every shard.  We craft both crash
    // states directly in the per-shard WAL streams.
    use olxpbench::storage::{Wal, WalOp};

    const SHARDS: usize = 4;
    const SEGMENT: u64 = 8 * 1024 * 1024;
    let dir = temp_dir("in-doubt-2pc");

    // Baseline: create the table on a sharded durable engine, learn which
    // shard each key routes to, then crash.
    let (key_a, key_b, key_c, key_d, shard_a, shard_b, shard_c, shard_d);
    {
        let db = HybridDatabase::open(durable_config(&dir, SyncPolicy::Always).with_shards(SHARDS))
            .unwrap();
        db.create_table(account_schema()).unwrap();
        // Pick two disjoint pairs of keys, each pair spanning two shards.
        let pick_pair = |start: i64| {
            let first = start;
            let first_shard = db.shard_for("ACCOUNT", &Key::int(first));
            let mut second = first + 1;
            while db.shard_for("ACCOUNT", &Key::int(second)) == first_shard {
                second += 1;
            }
            (
                first,
                second,
                first_shard,
                db.shard_for("ACCOUNT", &Key::int(second)),
            )
        };
        let (a, b, sa, sb) = pick_pair(1);
        let (c, d, sc, sd) = pick_pair(1000);
        (key_a, key_b, shard_a, shard_b) = (a, b, sa, sb);
        (key_c, key_d, shard_c, shard_d) = (c, d, sc, sd);
        db.simulate_crash();
    }

    let wal_op = |key: i64| WalOp {
        table: "ACCOUNT".to_string(),
        key: Key::int(key),
        row: Some(account_row(key, 7)),
    };
    let append = |shard: usize, txn_id: u64, key: i64, commit: bool| {
        let (wal, _replay) = Wal::open_named(
            &dir,
            &format!("wal-shard{shard}"),
            SyncPolicy::Always,
            SEGMENT,
        )
        .unwrap();
        let commit_ts = 1_000_000 + txn_id;
        wal.log_mutations(txn_id, &[wal_op(key)], commit_ts)
            .unwrap();
        wal.log_prepare(txn_id).unwrap();
        if commit {
            wal.log_commit(txn_id, commit_ts).unwrap();
        }
        wal.flush_and_fsync().unwrap();
    };

    // Crash state 1: txn 1 prepared on shards A and B, Commit marker written
    // only on shard A — the coordinator died between the two marker appends.
    append(shard_a, 1_000_001, key_a, true);
    append(shard_b, 1_000_001, key_b, false);
    // Crash state 2: txn 2 prepared on shards C and D, no Commit marker
    // anywhere — the coordinator died before deciding.
    append(shard_c, 1_000_002, key_c, false);
    append(shard_d, 1_000_002, key_d, false);

    let db =
        HybridDatabase::open(durable_config(&dir, SyncPolicy::Always).with_shards(SHARDS)).unwrap();
    let report = db.recovery_report().expect("recovery ran");
    assert!(
        report.in_doubt_committed >= 1,
        "shard B's prepared writes were resolved by shard A's marker, got {report:?}"
    );
    // Txn 1: committed on BOTH shards, including the one missing its marker.
    assert_eq!(
        transactional_count(&db, [key_a, key_b].into_iter()),
        2,
        "a Commit marker on any shard commits the transaction on every shard"
    );
    // Txn 2: visible on NO shard — prepared-everywhere without a marker is
    // presumed aborted.
    assert_eq!(
        transactional_count(&db, [key_c, key_d].into_iter()),
        0,
        "a prepared transaction with no Commit marker anywhere must not commit"
    );

    // The resolution is itself durable: crash and reopen once more, and the
    // outcome is unchanged (replay is idempotent and re-resolves identically).
    db.simulate_crash();
    let db =
        HybridDatabase::open(durable_config(&dir, SyncPolicy::Always).with_shards(SHARDS)).unwrap();
    assert_eq!(transactional_count(&db, [key_a, key_b].into_iter()), 2);
    assert_eq!(transactional_count(&db, [key_c, key_d].into_iter()), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn each_commit_shape_logs_its_record_sequence_and_recovers_exactly() {
    // Pins the commit protocol's WAL footprint per operation shape, read off
    // the `wal.appends` counter: a read-only commit logs nothing; a
    // single-shard commit of k writes logs Begin + k Mutations + Commit; a
    // cross-shard commit logs Begin + Mutations + Prepare + Commit on each
    // touched shard; a bulk-loaded row logs Begin + Mutation + Commit.  Then
    // a crash and reopen must bring back exactly the rows every shape left.
    use std::collections::BTreeMap;

    for shards in [1usize, 2] {
        let dir = temp_dir(&format!("protocol-{shards}"));
        let config = || durable_config(&dir, SyncPolicy::group_commit()).with_shards(shards);
        let mut expected: BTreeMap<i64, Row> = BTreeMap::new();
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(account_schema()).unwrap();
            let appends = || db.metrics_snapshot().wal.appends;
            for id in 0..20 {
                let before = appends();
                db.load_row("ACCOUNT", account_row(id, id)).unwrap();
                assert_eq!(appends() - before, 3, "load_row at {shards} shards");
                expected.insert(id, account_row(id, id));
            }
            db.finish_load().unwrap();
            let ids_on = |shard: usize| -> Vec<i64> {
                (0..20)
                    .filter(|&id| db.shard_for("ACCOUNT", &Key::int(id)) == shard)
                    .collect()
            };
            let session = db.session();

            let before = appends();
            let mut txn = session.begin(WorkClass::Oltp);
            session.read(&mut txn, "ACCOUNT", &Key::int(0)).unwrap();
            session.commit(txn).unwrap();
            assert_eq!(appends() - before, 0, "read-only commit at {shards} shards");

            // Single shard, k = 3: an update, a delete and an insert.
            let on_first = ids_on(0);
            let fresh = (100..)
                .find(|&id| db.shard_for("ACCOUNT", &Key::int(id)) == 0)
                .unwrap();
            let before = appends();
            let mut txn = session.begin(WorkClass::Oltp);
            let updated = account_row(on_first[0], 500);
            session
                .update(&mut txn, "ACCOUNT", &Key::int(on_first[0]), updated.clone())
                .unwrap();
            session
                .delete(&mut txn, "ACCOUNT", &Key::int(on_first[1]))
                .unwrap();
            session
                .insert(&mut txn, "ACCOUNT", account_row(fresh, 7))
                .unwrap();
            session.commit(txn).unwrap();
            assert_eq!(appends() - before, 3 + 2, "single-shard commit at {shards}");
            expected.insert(on_first[0], updated);
            expected.remove(&on_first[1]);
            expected.insert(fresh, account_row(fresh, 7));

            if shards == 2 {
                // Cross-shard, k1 = 2 on shard 0 and k2 = 1 on shard 1.
                let on_second = ids_on(1);
                let writes = [(on_first[2], 21), (on_first[3], 22), (on_second[0], 23)];
                let before = appends();
                let mut txn = session.begin(WorkClass::Oltp);
                for (id, balance) in writes {
                    session
                        .update(&mut txn, "ACCOUNT", &Key::int(id), account_row(id, balance))
                        .unwrap();
                    expected.insert(id, account_row(id, balance));
                }
                session.commit(txn).unwrap();
                assert_eq!(appends() - before, 2 + 1 + 6, "cross-shard commit");
            }
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let mut recovered: BTreeMap<i64, Row> = BTreeMap::new();
        let ts = db.txn_manager().oracle().read_ts();
        db.scan_table("ACCOUNT", ts, |key, row| {
            recovered.insert(key.parts()[0].as_int().unwrap(), Row::clone(row));
        })
        .unwrap();
        assert_eq!(recovered, expected, "recovered rows at {shards} shards");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
