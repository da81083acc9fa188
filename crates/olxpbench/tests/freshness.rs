//! End-to-end tests for the background replication applier and the
//! freshness-bounded analytical read path.
//!
//! The paper's core requirement is that analytical queries run over *freshly
//! committed* transactional data.  These tests prove the property the engine
//! now enforces: under `FreshnessPolicy::BoundedRecords(n)`, no analytical
//! read ever observes replication lag greater than `n`, even while concurrent
//! OLTP writers hammer the row store — and the benchmark driver reports the
//! observed freshness distribution next to throughput.

use olxpbench::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn item_schema() -> TableSchema {
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
}

fn item(id: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(format!("item-{}", id % 16)),
        Value::Decimal(100 + id),
    ])
}

/// A dual-engine database whose analytical queries always hit the column
/// store, with no simulated service delays.
fn colstore_db(freshness: FreshnessPolicy) -> Arc<HybridDatabase> {
    let mut config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_freshness(freshness)
        .with_freshness_timeout_ms(10_000);
    config.analytical_rowstore_percent = 0;
    let db = HybridDatabase::new(config).unwrap();
    db.create_table(item_schema()).unwrap();
    for i in 0..256 {
        db.load_row("ITEM", item(i)).unwrap();
    }
    db.finish_load().unwrap();
    db
}

fn count_plan() -> Plan {
    QueryBuilder::scan("ITEM")
        .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
        .build()
}

/// The acceptance property: with the background applier running and
/// `BoundedRecords(n)`, every analytical read observes lag <= n while
/// concurrent writers commit.
#[test]
fn bounded_records_holds_under_concurrent_writers() {
    for bound in [4u64, 64] {
        let db = colstore_db(FreshnessPolicy::BoundedRecords(bound));
        assert!(db.has_background_applier());
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            const WRITERS: usize = 2;
            for w in 0..WRITERS {
                let session = db.session();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let id = 1_000_000 + (w as i64) * 1_000_000 + i;
                        let result = session.run_transaction(WorkClass::Oltp, 3, |s, txn| {
                            s.insert(txn, "ITEM", item(id))
                        });
                        result.expect("writer transaction commits");
                        i += 1;
                    }
                });
            }

            let session = db.session();
            let plan = count_plan();
            let mut max_observed = 0u64;
            for _ in 0..100 {
                let out = session
                    .analytical_query(&plan)
                    .expect("freshness-bounded read succeeds");
                assert!(
                    out.stats.freshness_lag_records <= bound,
                    "observed lag {} exceeds bound {bound}",
                    out.stats.freshness_lag_records
                );
                max_observed = max_observed.max(out.stats.freshness_lag_records);
            }
            stop.store(true, Ordering::Relaxed);
            let _ = max_observed; // writers keep lag non-deterministic; the bound is what matters
        });

        // The applier converges once the writers stop.
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.replication_lag() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(db.replication_lag(), 0, "applier drains after writers stop");
        // Dropping the database joins the applier thread; returning from this
        // iteration without hanging is the clean-shutdown check.
        drop(db);
    }
}

/// Strict reads observe everything committed before the read started.
#[test]
fn strict_reads_are_exactly_fresh() {
    let db = colstore_db(FreshnessPolicy::Strict);
    let session = db.session();
    let plan = count_plan();
    for batch in 0..10i64 {
        let mut txn = session.begin(WorkClass::Oltp);
        for k in 0..20i64 {
            session
                .insert(&mut txn, "ITEM", item(2_000_000 + batch * 100 + k))
                .unwrap();
        }
        session.commit(txn).unwrap();
        let out = session.analytical_query(&plan).unwrap();
        let expected = 256 + (batch + 1) * 20;
        assert_eq!(
            out.rows[0][0].as_int(),
            Some(expected),
            "strict read must see all {expected} committed rows"
        );
    }
}

/// The benchmark driver reports freshness percentiles for a dual-engine run
/// with concurrent OLTP and OLAP agents.
#[test]
fn driver_reports_freshness_percentiles() {
    let db = HybridDatabase::new(
        EngineConfig::dual_engine()
            .with_time_scale(0.0)
            .with_freshness(FreshnessPolicy::BoundedRecords(512)),
    )
    .unwrap();
    let workload = Fibenchmark::new();
    let config = BenchConfig {
        label: "freshness".into(),
        oltp: AgentConfig::new(2, 400.0),
        olap: AgentConfig::new(2, 100.0),
        hybrid: AgentConfig::disabled(),
        duration: Duration::from_millis(400),
        warmup: Duration::from_millis(50),
        ..BenchConfig::default()
    };
    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).unwrap();
    let result = driver.run(&db, &workload).unwrap();

    let olap = result.olap.expect("olap agents were enabled");
    assert!(olap.count > 0, "analytical queries ran");
    let freshness = result.freshness.expect("freshness summary present");
    assert!(
        freshness.observations > 0,
        "freshness was observed per analytical read"
    );
    assert!(freshness.lag_records_p50 <= freshness.lag_records_p95);
    assert!(freshness.lag_records_p95 <= freshness.lag_records_max);
    assert!(
        freshness.lag_records_max <= 512,
        "bound held during the run"
    );
    assert_eq!(result.engine.replication_errors, 0);

    // An OLTP-only run reports no freshness distribution.
    let oltp_only = BenchConfig {
        label: "oltp-only".into(),
        oltp: AgentConfig::new(1, 200.0),
        olap: AgentConfig::disabled(),
        hybrid: AgentConfig::disabled(),
        duration: Duration::from_millis(200),
        warmup: Duration::from_millis(20),
        ..BenchConfig::default()
    };
    let result = BenchmarkDriver::new(oltp_only).run(&db, &workload).unwrap();
    assert!(result.freshness.is_none());
}

/// The applier thread exits promptly when the database is dropped, even under
/// load, and an explicit shutdown is honoured by later reads.
#[test]
fn applier_shutdown_is_clean_and_prompt() {
    let db = colstore_db(FreshnessPolicy::Eventual);
    let session = db.session();
    for i in 0..200i64 {
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .insert(&mut txn, "ITEM", item(3_000_000 + i))
            .unwrap();
        session.commit(txn).unwrap();
    }
    let started = Instant::now();
    db.shutdown_applier();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "applier shutdown must not hang"
    );
    assert!(!db.has_background_applier());
    // Without the applier, eventual reads drive replication themselves.
    let out = session.analytical_query(&count_plan()).unwrap();
    assert_eq!(out.rows[0][0].as_int(), Some(456));
    assert_eq!(db.replication_lag(), 0);
}
