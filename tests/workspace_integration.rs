//! Cross-crate integration tests: the framework, the engine archetypes and the
//! workload suites working together end-to-end.

use olxpbench::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn fast_engine(architecture: EngineArchitecture) -> Arc<HybridDatabase> {
    let config = match architecture {
        EngineArchitecture::SingleEngine => EngineConfig::single_engine(),
        EngineArchitecture::DualEngine => EngineConfig::dual_engine(),
        EngineArchitecture::SharedNothing => EngineConfig::shared_nothing(),
    }
    // Keep the cost model's ratios but compress real time so tests stay fast.
    .with_time_scale(0.05);
    HybridDatabase::new(config).expect("valid config")
}

fn short_config(label: &str) -> BenchConfig {
    BenchConfig {
        label: label.to_string(),
        warmup: Duration::from_millis(50),
        duration: Duration::from_millis(400),
        scale_factor: 1,
        ..BenchConfig::default()
    }
}

#[test]
fn every_suite_runs_all_three_agent_classes_on_the_dual_engine() {
    for name in ["subenchmark", "fibenchmark", "tabenchmark"] {
        let workload = workload_by_name(name).unwrap();
        let db = fast_engine(EngineArchitecture::DualEngine);
        let config = BenchConfig {
            oltp: AgentConfig::new(2, 120.0),
            olap: AgentConfig::new(1, 6.0),
            hybrid: AgentConfig::new(1, 10.0),
            ..short_config(name)
        };
        let driver = BenchmarkDriver::new(config);
        driver.prepare(&db, workload.as_ref()).unwrap();
        let result = driver.run(&db, workload.as_ref()).unwrap();

        let oltp = result.oltp.expect("oltp agents enabled");
        let olap = result.olap.expect("olap agents enabled");
        let hybrid = result.hybrid.expect("hybrid agents enabled");
        assert!(oltp.count > 0, "{name}: no online transactions completed");
        assert!(olap.count > 0, "{name}: no analytical queries completed");
        assert!(hybrid.count > 0, "{name}: no hybrid transactions completed");
        assert!(result.engine.commits > 0, "{name}: nothing committed");
        assert!(
            oltp.errors + olap.errors + hybrid.errors
                <= (oltp.count + olap.count + hybrid.count) / 10,
            "{name}: too many request failures"
        );
        // Percentile ordering sanity.
        assert!(oltp.median_ms <= oltp.p95_ms + 1e-9);
        assert!(oltp.p95_ms <= oltp.max_ms + 1e-9);
    }
}

#[test]
fn single_engine_also_supports_every_suite() {
    for name in ["subenchmark", "fibenchmark", "tabenchmark", "chbenchmark"] {
        let workload = workload_by_name(name).unwrap();
        let db = fast_engine(EngineArchitecture::SingleEngine);
        let has_hybrid = !workload.hybrid_transactions().is_empty();
        let config = BenchConfig {
            oltp: AgentConfig::new(2, 150.0),
            olap: AgentConfig::new(1, 6.0),
            hybrid: if has_hybrid {
                AgentConfig::new(1, 8.0)
            } else {
                AgentConfig::disabled()
            },
            ..short_config(name)
        };
        let driver = BenchmarkDriver::new(config);
        driver.prepare(&db, workload.as_ref()).unwrap();
        let result = driver.run(&db, workload.as_ref()).unwrap();
        assert!(
            result.oltp.unwrap().count > 0,
            "{name}: no OLTP completions"
        );
        assert!(
            result.olap.unwrap().count > 0,
            "{name}: no OLAP completions"
        );
        assert_eq!(result.hybrid.is_some(), has_hybrid);
    }
}

#[test]
fn semantic_consistency_splits_olxp_suites_from_the_stitch_baseline() {
    for workload in olxp_suites() {
        let report = check_semantic_consistency(workload.as_ref());
        assert!(
            report.is_semantically_consistent(),
            "{} must be semantically consistent",
            workload.name()
        );
    }
    let ch = ChBenchmark::new();
    let report = check_semantic_consistency(&ch);
    assert!(!report.is_semantically_consistent());
    assert_eq!(report.olap_only_tables.len(), 3);
}

#[test]
fn replication_keeps_columnar_replicas_in_sync_after_a_run() {
    let workload = Fibenchmark::new();
    let db = fast_engine(EngineArchitecture::DualEngine);
    let config = BenchConfig {
        oltp: AgentConfig::new(2, 300.0),
        ..short_config("replication")
    };
    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).unwrap();
    driver.run(&db, &workload).unwrap();

    // Drain whatever the opportunistic replication steps have not applied yet,
    // then verify row counts match between the row store and the replicas.
    db.finish_load().unwrap();
    assert_eq!(db.replication_lag(), 0);
    for table in ["ACCOUNT", "SAVINGS", "CHECKING"] {
        let row_count = db.table_live_row_count(table).unwrap();
        let col_count = db.col_table(table).unwrap().live_row_count();
        assert_eq!(row_count, col_count, "replica of {table} diverged");
    }
}

#[test]
fn table_features_match_the_paper() {
    let features: Vec<WorkloadFeatures> = olxp_suites().iter().map(|w| w.features()).collect();
    assert_eq!(features[0].tables(), 9);
    assert_eq!(features[0].columns, 92);
    assert_eq!(features[1].tables(), 3);
    assert_eq!(features[1].columns, 6);
    assert_eq!(features[2].tables(), 4);
    assert_eq!(features[2].columns, 51);
    let comparison = BenchmarkComparison::paper_table1(&features);
    assert_eq!(comparison.rows.len(), 6);
    assert!(comparison.rows.last().unwrap().has_hybrid_transaction);
}

#[test]
fn isolation_levels_follow_the_architecture() {
    let dual = fast_engine(EngineArchitecture::DualEngine);
    let single = fast_engine(EngineArchitecture::SingleEngine);
    assert_eq!(
        dual.config().default_isolation(),
        IsolationLevel::RepeatableRead
    );
    assert_eq!(
        single.config().default_isolation(),
        IsolationLevel::ReadCommitted
    );

    // Snapshot isolation on the dual engine: a transaction does not observe a
    // concurrent commit that happened after its snapshot.
    let workload = Fibenchmark::new();
    workload.create_schema(&dual).unwrap();
    workload.load(&dual, 1, 1).unwrap();
    dual.finish_load().unwrap();
    let session = dual.session();

    let mut reader = session.begin(WorkClass::Oltp);
    let before = session
        .read(&mut reader, "CHECKING", &Key::int(1))
        .unwrap()
        .unwrap();

    let mut writer = session.begin(WorkClass::Oltp);
    let mut row = session
        .read(&mut writer, "CHECKING", &Key::int(1))
        .unwrap()
        .unwrap();
    row.set(1, Value::Decimal(999_999));
    session
        .update(&mut writer, "CHECKING", &Key::int(1), row)
        .unwrap();
    session.commit(writer).unwrap();

    let after = session
        .read(&mut reader, "CHECKING", &Key::int(1))
        .unwrap()
        .unwrap();
    assert_eq!(before, after, "repeatable read must pin the snapshot");
    session.abort(reader);
}

#[test]
fn closed_loop_mode_also_produces_results() {
    let workload = Fibenchmark::new();
    let db = fast_engine(EngineArchitecture::DualEngine);
    let config = BenchConfig {
        mode: LoopMode::Closed,
        oltp: AgentConfig::new(2, 50.0),
        ..short_config("closed-loop")
    };
    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).unwrap();
    let result = driver.run(&db, &workload).unwrap();
    assert!(result.oltp.unwrap().count > 0);
}

#[test]
fn weight_overrides_restrict_the_transaction_mix() {
    let workload = Subenchmark::new();
    let db = fast_engine(EngineArchitecture::DualEngine);
    let config = BenchConfig {
        oltp: AgentConfig::new(2, 100.0),
        weight_overrides: vec![
            ("NewOrder".into(), 0),
            ("Payment".into(), 0),
            ("OrderStatus".into(), 1),
            ("Delivery".into(), 0),
            ("StockLevel".into(), 0),
        ],
        ..short_config("read-only-mix")
    };
    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).unwrap();
    let orders_before = db.table_key_count("ORDERS");
    let result = driver.run(&db, &workload).unwrap();
    assert!(result.oltp.unwrap().count > 0);
    assert_eq!(
        db.table_key_count("ORDERS"),
        orders_before,
        "OrderStatus-only mix must not create orders"
    );
}

#[test]
fn run_counters_cover_only_the_measurement_window() {
    let workload = Fibenchmark::new();
    let db = HybridDatabase::new(EngineConfig::dual_engine().with_time_scale(0.0))
        .expect("valid config");
    let config = BenchConfig::oltp_only(1, 2_000.0, Duration::from_millis(100))
        .with_warmup(Duration::from_millis(400))
        .with_scale_factor(1);
    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).unwrap();
    let result = driver.run(&db, &workload).unwrap();
    let oltp = result.oltp.expect("oltp agents enabled");
    assert!(oltp.count > 0);
    // One transaction may straddle the window's start and count in both.
    assert!(
        result.engine.commits <= oltp.count + oltp.errors + 1,
        "{} commits against {} completed and {} failed transactions: the \
         warm-up leaked into the run's counters",
        result.engine.commits,
        oltp.count,
        oltp.errors
    );
}
