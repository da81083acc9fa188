//! End-to-end telemetry tests at the benchmark level: a live run exposes
//! scrapeable `/metrics` and `/healthz` endpoints on an ephemeral port, and
//! the driver threads the sampled timeline into its `BenchmarkResult` so the
//! report layer can print the per-interval table.

use olxpbench::engine::metrics::METRICS;
use olxpbench::prelude::*;
use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Minimal HTTP/1.1 GET against the embedded telemetry listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry listener");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn live_run_is_scrapeable_and_reports_a_timeline() {
    let config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_telemetry_interval_ms(5)
        .with_telemetry_addr("127.0.0.1:0");
    let db = HybridDatabase::new(config).unwrap();
    let addr = db.telemetry_addr().expect("ephemeral listener bound");

    let workload = Fibenchmark::new();
    let bench = BenchConfig::oltp_only(2, 400.0, Duration::from_millis(400))
        .with_scale_factor(1)
        .with_warmup(Duration::from_millis(50));
    let driver = BenchmarkDriver::new(bench);
    driver.prepare(&db, &workload).unwrap();
    let before = db.telemetry_elapsed_ms();
    let result = driver.run(&db, &workload).unwrap();
    let after = db.telemetry_elapsed_ms();

    // The run lasted ~450ms at a 5ms cadence: the timeline must have caught
    // several intervals, rebased to the driver's observation window.
    assert!(
        result.timeline.len() >= 3,
        "expected a sampled timeline, got {} points",
        result.timeline.len()
    );
    let commits: u64 = result.timeline.iter().map(|p| p.commits).sum();
    assert!(commits > 0, "timeline should have observed commits");
    for pair in result.timeline.windows(2) {
        assert!(pair[0].t_ms < pair[1].t_ms, "timeline is monotonic");
    }
    // It is the engine's own points from the run's start on, `t_ms` counted
    // from that start rather than from when the database opened.
    let engine_points = db.telemetry_timeline();
    let rebased_from = |t0: u64| -> Vec<TelemetryPoint> {
        let since = engine_points.iter().filter(|p| p.t_ms >= t0);
        since
            .take(result.timeline.len())
            .map(|p| TelemetryPoint {
                t_ms: p.t_ms - t0,
                ..*p
            })
            .collect()
    };
    assert!(
        (before..=after).any(|t0| rebased_from(t0) == result.timeline),
        "timeline is not the engine's points rebased to a start in {before}..={after}"
    );
    let table = timeline_table(&result.timeline);
    assert!(table.contains("commit/s"));
    assert!(table.lines().count() >= result.timeline.len() + 2);
    assert_eq!(result.engine.freshness_timeouts, 0);

    // The listener keeps serving after the run.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE olxp_commits_total counter"));
    assert!(metrics.contains("olxp_up 1"));
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "health checks pass on a clean run: {health}");
    assert!(health.starts_with("{\"healthy\":true"));
}

/// Key set of a JSON object.
fn keys(value: &serde_json::Value) -> BTreeSet<String> {
    value
        .as_map()
        .expect("a JSON object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Label keys of every sample whose series name starts with `prefix`.
fn label_keys(metrics: &str, prefix: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for line in metrics.lines().filter(|l| l.starts_with(prefix)) {
        let Some((_, rest)) = line.split_once('{') else {
            continue;
        };
        let (labels, _) = rest.split_once('}').expect("closing brace");
        for pair in labels.split(',') {
            found.insert(pair.split_once('=').expect("key=value").0.to_string());
        }
    }
    found
}

/// The names scrapers, dashboards and `bench-summary-*.json` readers depend
/// on, captured from the hand-written exporters before they were derived from
/// the one declaration list: `/metrics` and `/snapshot` may grow, a
/// `/timeseries` point and a `timeline` entry may not change at all.
#[test]
fn wire_names_are_pinned() {
    let dir = std::env::temp_dir().join(format!("olxp-wire-golden-{}", std::process::id()));
    let config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_shards(2)
        .with_tracing(true)
        .with_durability(DurabilityConfig::at(dir.display().to_string()))
        .with_telemetry_interval_ms(5)
        .with_telemetry_addr("127.0.0.1:0");
    let db = HybridDatabase::open(config).unwrap();
    let addr = db.telemetry_addr().expect("ephemeral listener bound");

    let workload = Fibenchmark::new();
    let bench = BenchConfig::mixed(1, 300.0, 1, 20.0, Duration::from_millis(250))
        .with_scale_factor(1)
        .with_warmup(Duration::from_millis(20));
    let driver = BenchmarkDriver::new(bench);
    driver.prepare(&db, &workload).unwrap();
    let result = driver.run(&db, &workload).unwrap();
    // The engine runs traced, so the driver reports its commit-path stages.
    assert!(
        result
            .stages
            .iter()
            .any(|s| s.stage == "commit" && s.count > 0),
        "a traced run reports a commit stage: {:?}",
        result.stages.iter().map(|s| &s.stage).collect::<Vec<_>>()
    );

    // (a) /metrics: every family with its type, and the label keys of the
    // labelled families.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let types: BTreeSet<String> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(str::to_string)
        .collect();
    let pinned_types = set(&[
        "olxp_aborts_total counter",
        "olxp_checkpoints_total counter",
        "olxp_chunks_compacted_total counter",
        "olxp_chunks_pruned_total counter",
        "olxp_chunks_scanned_total counter",
        "olxp_columnar_bytes gauge",
        "olxp_commits_total counter",
        "olxp_freshness_timeouts_total counter",
        "olxp_replication_applied_records_total counter",
        "olxp_replication_errors_total counter",
        "olxp_replication_lag_records gauge",
        "olxp_shards gauge",
        "olxp_stage_nanos histogram",
        "olxp_statements_total counter",
        "olxp_up gauge",
        "olxp_wal_appends_total counter",
        "olxp_wal_fsyncs_total counter",
        "olxp_wal_written_bytes_total counter",
    ]);
    assert!(
        types.is_superset(&pinned_types),
        "families removed or retyped: {:?}",
        pinned_types.difference(&types).collect::<Vec<_>>()
    );
    for (series, pinned) in [
        ("olxp_statements_total", set(&["class"])),
        ("olxp_chunks_pruned_total", set(&["reason"])),
        ("olxp_columnar_bytes", set(&["tier"])),
        ("olxp_stage_nanos_bucket", set(&["stage", "le"])),
        ("olxp_stage_nanos_sum", set(&["stage"])),
        ("olxp_stage_nanos_count", set(&["stage"])),
    ] {
        assert_eq!(label_keys(&metrics, series), pinned, "labels of {series}");
    }

    // (b) /snapshot keys.
    let (status, body) = http_get(addr, "/snapshot");
    assert_eq!(status, 200);
    let snapshot: serde_json::Value = serde_json::from_str(&body).expect("/snapshot is JSON");
    let pinned_snapshot = set(&[
        "aborts",
        "checkpoints",
        "chunks_compacted",
        "chunks_pruned_zonemap",
        "chunks_scanned",
        "col_bytes_plain",
        "col_bytes_resident",
        "commits",
        "distributed_commits",
        "freshness_observations",
        "freshness_timeouts",
        "hybrid_statements",
        "load_statements",
        "olap_statements",
        "oltp_statements",
        "replication_applied",
        "replication_errors",
        "replication_lag_records",
        "shards",
        "uptime_ms",
        "wal_appends",
        "wal_bytes_written",
        "wal_durable_lsn",
        "wal_fsyncs",
        "wal_last_lsn",
    ]);
    let snapshot_keys = keys(&snapshot);
    assert!(
        snapshot_keys.is_superset(&pinned_snapshot),
        "/snapshot keys removed: {:?}",
        pinned_snapshot
            .difference(&snapshot_keys)
            .collect::<Vec<_>>()
    );

    // (c) one /timeseries point; (d) one serialised `timeline` entry, which
    // is the same point without the two derived rates.
    let timeline_entry = [
        "aborts",
        "chunks_compacted",
        "chunks_pruned",
        "chunks_scanned",
        "commit_p50_us",
        "commit_p95_us",
        "commits",
        "freshness_p50_us",
        "freshness_p95_us",
        "freshness_timeouts",
        "hybrid_statements",
        "interval_ms",
        "olap_statements",
        "oltp_statements",
        "replication_applied",
        "replication_errors",
        "replication_lag",
        "t_ms",
        "wal_appends",
        "wal_bytes",
        "wal_fsyncs",
    ];
    let (status, body) = http_get(addr, "/timeseries");
    assert_eq!(status, 200);
    let series: serde_json::Value = serde_json::from_str(&body).expect("/timeseries is JSON");
    assert_eq!(keys(&series), set(&["capacity", "dropped", "points"]));
    let point = &series.get("points").and_then(|p| p.as_seq()).unwrap()[0];
    let mut pinned_point = set(&timeline_entry);
    pinned_point.extend(set(&["abort_rate", "commit_tps"]));
    assert_eq!(keys(point), pinned_point, "/timeseries point keys");

    assert!(!result.timeline.is_empty(), "the run sampled a timeline");
    let json = serde_json::to_string(&result).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let entry = &doc.get("timeline").and_then(|t| t.as_seq()).unwrap()[0];
    assert_eq!(keys(entry), set(&timeline_entry), "timeline entry keys");
    // The run's counters are serialised once, under the one declaration's
    // names.
    let mut engine_keys: BTreeSet<String> = METRICS.iter().map(|d| d.key.to_string()).collect();
    engine_keys.insert("per_shard".to_string());
    assert_eq!(
        keys(doc.get("engine").expect("an engine object")),
        engine_keys,
        "engine keys"
    );

    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}
