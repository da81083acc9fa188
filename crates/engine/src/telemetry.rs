//! Live telemetry: a background metrics sampler and embedded HTTP scrape
//! endpoints.
//!
//! Two optional background services ride on [`HybridDatabase`]:
//!
//! * **Sampler** — when [`crate::EngineConfig::telemetry_interval_ms`] is
//!   non-zero (the default is 250 ms), a dedicated thread snapshots the
//!   engine metrics every interval, diffs against the previous snapshot and
//!   appends one [`TelemetryPoint`] per interval to a fixed-capacity
//!   [`TimeSeriesRing`].  The ring feeds the per-interval timeline table in
//!   benchmark reports and the `/timeseries` endpoint.
//! * **HTTP listener** — when [`crate::EngineConfig::telemetry_addr`] (or
//!   `OLXP_TELEMETRY_ADDR`) is set, a dependency-free HTTP/1.1 listener
//!   serves `GET /metrics` (Prometheus text exposition), `/healthz` (SLO
//!   health checks, 200/503), `/snapshot` (full counter snapshot as JSON)
//!   and `/timeseries` (the sampler's ring as JSON).
//!
//! Both threads hold only a [`Weak`] reference to the database, so an open
//! database with telemetry enabled can still be dropped normally; the
//! threads observe the dead weak reference and exit, and
//! [`HybridDatabase`]'s drop shuts them down explicitly first.

use crate::database::HybridDatabase;
use crate::metrics::MetricsSnapshot;
use olxp_storage::SyncPolicy;
use olxp_trace::{
    prometheus_counter, prometheus_gauge, prometheus_histogram, Handler, HttpResponse,
    LogHistogram, SpanCategory, TelemetryPoint, TelemetryServer, TimeSeriesRing,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Per-interval points retained by the sampler ring: at the default 250 ms
/// interval this is ~17 minutes of history, bounded at ~700 KiB.
const TIMELINE_CAPACITY: usize = 4096;

/// Longest single sleep inside the sampler loop, so shutdown is never
/// delayed by more than this even under second-scale sampling intervals.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Live telemetry state shared between the sampler thread, the HTTP handler
/// and the report path.  Owned by the database via `Arc` and referenced by
/// the background threads through it (they hold the database weakly).
pub struct TelemetryState {
    started: Instant,
    ring: Mutex<TimeSeriesRing>,
    /// Set while the newest WAL LSN is ahead of the durable LSN and the
    /// durable LSN did not advance across a whole sampling interval — the
    /// signature of a wedged fsync path, surfaced by `/healthz`.
    wal_stalled: AtomicBool,
}

impl TelemetryState {
    pub(crate) fn new() -> TelemetryState {
        TelemetryState {
            started: Instant::now(),
            ring: Mutex::new(TimeSeriesRing::with_capacity(TIMELINE_CAPACITY)),
            wal_stalled: AtomicBool::new(false),
        }
    }

    /// Milliseconds since the database was opened (the sampler's time axis).
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Copy of every retained timeline point, oldest first.
    pub fn timeline(&self) -> Vec<TelemetryPoint> {
        self.ring.lock().points().to_vec()
    }

    /// Copy of the retained points sampled at or after `t_ms`.
    pub fn timeline_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.ring.lock().points_since(t_ms).to_vec()
    }

    /// The ring rendered as a JSON document (the `/timeseries` body).
    pub fn timeline_json(&self) -> String {
        self.ring.lock().to_json()
    }

    /// True while the sampler believes the WAL fsync path is wedged.
    pub fn wal_stalled(&self) -> bool {
        self.wal_stalled.load(Ordering::Relaxed)
    }

    fn push(&self, point: TelemetryPoint) {
        self.ring.lock().push(point);
    }
}

impl std::fmt::Debug for TelemetryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryState")
            .field("points", &self.ring.lock().len())
            .field("wal_stalled", &self.wal_stalled())
            .finish()
    }
}

/// The background metrics-sampler thread and its shutdown plumbing.
pub(crate) struct TelemetrySampler {
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) handle: Option<std::thread::JoinHandle<()>>,
}

/// Spawn the sampler thread.  It holds the database weakly: every tick
/// upgrades, snapshots, diffs and appends one point; when the database is
/// gone (or shutdown is flagged) the thread exits.
pub(crate) fn spawn_sampler(db: &Arc<HybridDatabase>) -> TelemetrySampler {
    let interval = Duration::from_millis(db.config().telemetry_interval_ms.max(1));
    let weak: Weak<HybridDatabase> = Arc::downgrade(db);
    let state = Arc::clone(db.telemetry_state_arc());
    let mut prev = db.metrics_snapshot();
    let mut prev_t = state.elapsed_ms();
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("olxp-telemetry-sampler".to_string())
        .spawn(move || loop {
            // Sleep the interval in small slices so shutdown (and drop) never
            // waits a full sampling period.
            let tick_deadline = Instant::now() + interval;
            while Instant::now() < tick_deadline {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(SHUTDOWN_POLL.min(tick_deadline - Instant::now()));
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            let Some(db) = weak.upgrade() else { return };
            let now = db.metrics_snapshot();
            let t_ms = state.elapsed_ms();
            let delta = now.delta_since(&prev);
            // The durable LSN failing to advance across a whole interval
            // while commits are waiting on it means the fsync path is
            // wedged.  `SyncPolicy::Never` legitimately leaves the durable
            // LSN behind, so it never counts as a stall.
            let syncing = db.is_durable() && db.config().durability.sync != SyncPolicy::Never;
            let stalled = syncing
                && now.wal.last_lsn > now.wal.durable_lsn
                && now.wal.durable_lsn == prev.wal.durable_lsn;
            state.wal_stalled.store(stalled, Ordering::Relaxed);
            state.push(sample_point(
                t_ms,
                t_ms.saturating_sub(prev_t).max(1),
                &delta,
                db.replication_lag(),
            ));
            prev = now;
            prev_t = t_ms;
            // Dropped before the next sleep: the sampler must not keep the
            // database alive across an interval while everyone else is done
            // with it.
            drop(db);
        })
        .expect("spawning the telemetry sampler thread succeeds");
    TelemetrySampler {
        shutdown,
        handle: Some(handle),
    }
}

/// Build one timeline point from an interval's metrics delta.
fn sample_point(
    t_ms: u64,
    interval_ms: u64,
    delta: &MetricsSnapshot,
    replication_lag: u64,
) -> TelemetryPoint {
    let p_us = |hist: &LogHistogram, q: f64| -> f64 {
        if hist.is_empty() {
            0.0
        } else {
            hist.value_at_quantile(q) as f64 / 1_000.0
        }
    };
    let commit = delta.stages.get(SpanCategory::Commit);
    let freshness = delta.stages.get(SpanCategory::FreshnessWait);
    TelemetryPoint {
        t_ms,
        interval_ms,
        commits: delta.commits,
        aborts: delta.aborts,
        oltp_statements: delta.statements[0],
        olap_statements: delta.statements[1],
        hybrid_statements: delta.statements[2],
        replication_applied: delta.replication_applied,
        replication_errors: delta.replication_errors,
        replication_lag,
        wal_appends: delta.wal.appends,
        wal_fsyncs: delta.wal.fsyncs,
        wal_bytes: delta.wal.bytes_written,
        chunks_compacted: delta.chunks_compacted,
        chunks_scanned: delta.chunks_scanned,
        chunks_pruned: delta.chunks_pruned_zonemap,
        freshness_timeouts: delta.freshness_timeouts,
        commit_p50_us: p_us(commit, 0.50),
        commit_p95_us: p_us(commit, 0.95),
        freshness_p50_us: p_us(freshness, 0.50),
        freshness_p95_us: p_us(freshness, 0.95),
    }
}

/// Bind the embedded HTTP listener on `addr` and route the four telemetry
/// endpoints to `db` (held weakly: scrapes after the database is gone get
/// 503, and the listener never keeps the engine alive).
pub(crate) fn serve(db: &Arc<HybridDatabase>, addr: &str) -> std::io::Result<TelemetryServer> {
    TelemetryServer::bind(addr, handler_for(db))
}

/// The endpoint router used by [`serve`] (separated so tests can drive it
/// without a live socket).
pub(crate) fn handler_for(db: &Arc<HybridDatabase>) -> Handler {
    let weak: Weak<HybridDatabase> = Arc::downgrade(db);
    Arc::new(move |path: &str| {
        let Some(db) = weak.upgrade() else {
            return HttpResponse::json(503, "{\"error\":\"database is shut down\"}");
        };
        match path {
            "/metrics" => HttpResponse::text(200, render_prometheus(&db)),
            "/healthz" => {
                let report = health_report(&db);
                let status = if report.healthy() { 200 } else { 503 };
                HttpResponse::json(status, report.to_json())
            }
            "/snapshot" => HttpResponse::json(200, render_snapshot_json(&db)),
            "/timeseries" => HttpResponse::json(200, db.telemetry_state().timeline_json()),
            other => HttpResponse::not_found(other),
        }
    })
}

/// One SLO health check evaluated by `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCheck {
    /// Stable check identifier (e.g. `replication_errors`).
    pub name: &'static str,
    /// Whether the check passed.
    pub healthy: bool,
    /// Human-readable evidence for the verdict.
    pub detail: String,
}

/// The `/healthz` verdict: every check with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// All evaluated checks, stable order.
    pub checks: Vec<HealthCheck>,
}

impl HealthReport {
    /// True when every check passed (the endpoint returns 200).
    pub fn healthy(&self) -> bool {
        self.checks.iter().all(|c| c.healthy)
    }

    /// The `/healthz` JSON body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"healthy\":");
        out.push_str(if self.healthy() { "true" } else { "false" });
        out.push_str(",\"checks\":[");
        for (i, check) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            out.push_str(&json_string(check.name));
            out.push_str(",\"healthy\":");
            out.push_str(if check.healthy { "true" } else { "false" });
            out.push_str(",\"detail\":");
            out.push_str(&json_string(&check.detail));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Replication apply-error rate above which `/healthz` degrades (1%).
const MAX_REPLICATION_ERROR_RATE: f64 = 0.01;

/// Evaluate the SLO health checks against the live engine: background-thread
/// liveness, freshness-timeout count, replication error rate and WAL fsync
/// progress.
pub fn health_report(db: &HybridDatabase) -> HealthReport {
    let snapshot = db.metrics_snapshot();
    let mut checks = Vec::new();

    let applier_expected = db.config().background_applier;
    let applier_ok = !applier_expected || db.has_background_applier();
    checks.push(HealthCheck {
        name: "replication_applier",
        healthy: applier_ok,
        detail: if !applier_expected {
            "not configured".to_string()
        } else if applier_ok {
            "running".to_string()
        } else {
            "configured but not running".to_string()
        },
    });

    let compactor_expected = db.config().compression;
    let compactor_ok = !compactor_expected || db.has_background_compactor();
    checks.push(HealthCheck {
        name: "delta_compactor",
        healthy: compactor_ok,
        detail: if !compactor_expected {
            "not configured".to_string()
        } else if compactor_ok {
            "running".to_string()
        } else {
            "configured but not running".to_string()
        },
    });

    let error_rate =
        snapshot.replication_errors as f64 / (snapshot.replication_applied.max(1)) as f64;
    checks.push(HealthCheck {
        name: "replication_errors",
        healthy: error_rate <= MAX_REPLICATION_ERROR_RATE,
        detail: format!(
            "{} errors / {} applied ({:.2}%)",
            snapshot.replication_errors,
            snapshot.replication_applied,
            error_rate * 100.0
        ),
    });

    checks.push(HealthCheck {
        name: "freshness_timeouts",
        healthy: snapshot.freshness_timeouts == 0,
        detail: format!("{} timed-out bounded reads", snapshot.freshness_timeouts),
    });

    let stalled = db.telemetry_state().wal_stalled();
    checks.push(HealthCheck {
        name: "wal_progress",
        healthy: !stalled,
        detail: if stalled {
            format!(
                "durable LSN stuck at {} with last LSN {}",
                snapshot.wal.durable_lsn, snapshot.wal.last_lsn
            )
        } else {
            "durable LSN advancing (or nothing pending)".to_string()
        },
    });

    HealthReport { checks }
}

/// Render the full Prometheus text exposition for `/metrics`.
pub(crate) fn render_prometheus(db: &HybridDatabase) -> String {
    let s = db.metrics_snapshot();
    let mut out = String::with_capacity(4096);
    prometheus_gauge(&mut out, "olxp_up", "Engine liveness.", &[(&[], 1.0)]);
    prometheus_counter(
        &mut out,
        "olxp_commits",
        "Transactions committed through the engine.",
        &[(&[], s.commits as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_aborts",
        "Transactions aborted through the engine.",
        &[(&[], s.aborts as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_statements",
        "Statements executed, by work class.",
        &[
            (&[("class", "oltp")], s.statements[0] as f64),
            (&[("class", "olap")], s.statements[1] as f64),
            (&[("class", "hybrid")], s.statements[2] as f64),
            (&[("class", "load")], s.statements[3] as f64),
        ],
    );
    prometheus_counter(
        &mut out,
        "olxp_replication_applied_records",
        "Replication log records applied to columnar replicas.",
        &[(&[], s.replication_applied as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_replication_errors",
        "Failed replication apply attempts.",
        &[(&[], s.replication_errors as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_freshness_timeouts",
        "Freshness-bounded analytical reads that timed out.",
        &[(&[], s.freshness_timeouts as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_wal_appends",
        "WAL records appended across every shard stream.",
        &[(&[], s.wal.appends as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_wal_fsyncs",
        "fsync calls issued by the WAL streams.",
        &[(&[], s.wal.fsyncs as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_wal_written_bytes",
        "Bytes written to WAL segment files.",
        &[(&[], s.wal.bytes_written as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_checkpoints",
        "Checkpoints taken.",
        &[(&[], s.wal.checkpoints as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_chunks_scanned",
        "Column-store chunks whose rows were scanned.",
        &[(&[], s.chunks_scanned as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_chunks_pruned",
        "Column-store chunks skipped before row access, by pruning mechanism.",
        &[(&[("reason", "zonemap")], s.chunks_pruned_zonemap as f64)],
    );
    prometheus_counter(
        &mut out,
        "olxp_chunks_compacted",
        "Delta chunks sealed into the compressed main tier.",
        &[(&[], s.chunks_compacted as f64)],
    );
    prometheus_gauge(
        &mut out,
        "olxp_shards",
        "Hash-partitioned storage shards.",
        &[(&[], s.shards as f64)],
    );
    prometheus_gauge(
        &mut out,
        "olxp_replication_lag_records",
        "Appended-but-unapplied replication records, summed across shards.",
        &[(&[], db.replication_lag() as f64)],
    );
    prometheus_gauge(
        &mut out,
        "olxp_columnar_bytes",
        "Columnar replica footprint, resident (encoded) vs plain (unencoded).",
        &[
            (&[("tier", "resident")], s.col_bytes_resident as f64),
            (&[("tier", "plain")], s.col_bytes_plain as f64),
        ],
    );
    let stage_series: Vec<(&str, &LogHistogram)> = s
        .stages
        .iter_nonempty()
        .map(|(category, hist)| (category.as_str(), hist))
        .collect();
    if !stage_series.is_empty() {
        out.push_str(&prometheus_histogram(
            "olxp_stage_nanos",
            "Per-lifecycle-stage latency in nanoseconds (tracing required).",
            &stage_series,
        ));
    }
    out
}

/// Render the `/snapshot` JSON body: the full counter snapshot plus the
/// retained slow-transaction and slow-query records (copied, not drained —
/// scraping must never steal the benchmark report's data).
pub(crate) fn render_snapshot_json(db: &HybridDatabase) -> String {
    let s = db.metrics_snapshot();
    let mut out = String::with_capacity(2048);
    out.push('{');
    push_field(&mut out, "uptime_ms", db.telemetry_state().elapsed_ms());
    push_field(&mut out, "commits", s.commits);
    push_field(&mut out, "aborts", s.aborts);
    push_field(&mut out, "oltp_statements", s.statements[0]);
    push_field(&mut out, "olap_statements", s.statements[1]);
    push_field(&mut out, "hybrid_statements", s.statements[2]);
    push_field(&mut out, "load_statements", s.statements[3]);
    push_field(&mut out, "replication_applied", s.replication_applied);
    push_field(&mut out, "replication_errors", s.replication_errors);
    push_field(&mut out, "replication_lag_records", db.replication_lag());
    push_field(&mut out, "freshness_observations", s.freshness_observations);
    push_field(&mut out, "freshness_timeouts", s.freshness_timeouts);
    push_field(&mut out, "distributed_commits", s.distributed_commits);
    push_field(&mut out, "wal_appends", s.wal.appends);
    push_field(&mut out, "wal_fsyncs", s.wal.fsyncs);
    push_field(&mut out, "wal_bytes_written", s.wal.bytes_written);
    push_field(&mut out, "wal_last_lsn", s.wal.last_lsn);
    push_field(&mut out, "wal_durable_lsn", s.wal.durable_lsn);
    push_field(&mut out, "checkpoints", s.wal.checkpoints);
    push_field(&mut out, "chunks_scanned", s.chunks_scanned);
    push_field(&mut out, "chunks_pruned_zonemap", s.chunks_pruned_zonemap);
    push_field(&mut out, "chunks_compacted", s.chunks_compacted);
    push_field(&mut out, "shards", s.shards);
    push_field(&mut out, "col_bytes_resident", s.col_bytes_resident);
    push_field(&mut out, "col_bytes_plain", s.col_bytes_plain);
    out.push_str("\"slow_txns\":[");
    for (i, record) in db.slow_txn_log().records().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&record.format()));
    }
    out.push_str("],\"slow_queries\":[");
    for (i, record) in db.slow_query_log().records().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&record.format()));
    }
    out.push_str("]}");
    out
}

fn push_field(out: &mut String, name: &str, value: u64) {
    out.push_str(&json_string(name));
    out.push(':');
    out.push_str(&value.to_string());
    out.push(',');
}

/// Minimal JSON string encoder for the hand-rolled bodies above.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_trace::StageBreakdown;

    #[test]
    fn sample_point_derives_interval_fields() {
        let mut delta = MetricsSnapshot {
            commits: 50,
            aborts: 2,
            replication_applied: 40,
            chunks_pruned_zonemap: 3,
            freshness_timeouts: 1,
            ..MetricsSnapshot::default()
        };
        delta.statements = [100, 10, 5, 0];
        delta.wal.appends = 70;
        let mut stages = StageBreakdown::new();
        stages.record(SpanCategory::Commit, 2_000_000);
        delta.stages = stages;
        let point = sample_point(1_250, 250, &delta, 9);
        assert_eq!(point.commits, 50);
        assert_eq!(point.oltp_statements, 100);
        assert_eq!(point.chunks_pruned, 3);
        assert_eq!(point.replication_lag, 9);
        assert_eq!(point.freshness_timeouts, 1);
        assert!((point.commit_tps() - 200.0).abs() < 1e-9);
        assert!(point.commit_p50_us >= 1_900.0, "p50 ≈ 2ms in µs");
        assert_eq!(point.freshness_p50_us, 0.0, "empty histogram reads zero");
    }

    #[test]
    fn health_report_json_shape() {
        let report = HealthReport {
            checks: vec![
                HealthCheck {
                    name: "a",
                    healthy: true,
                    detail: "fine \"quoted\"".to_string(),
                },
                HealthCheck {
                    name: "b",
                    healthy: false,
                    detail: "broken".to_string(),
                },
            ],
        };
        assert!(!report.healthy());
        let json = report.to_json();
        assert!(json.starts_with("{\"healthy\":false,"));
        assert!(json.contains("\"fine \\\"quoted\\\"\""), "{json}");
        let healthy = HealthReport {
            checks: vec![HealthCheck {
                name: "a",
                healthy: true,
                detail: String::new(),
            }],
        };
        assert!(healthy.healthy());
        assert!(healthy.to_json().starts_with("{\"healthy\":true,"));
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
