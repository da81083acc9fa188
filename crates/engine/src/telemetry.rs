//! Live telemetry: a background metrics sampler and embedded HTTP scrape
//! endpoints.
//!
//! Two optional background services ride on [`HybridDatabase`]:
//!
//! * **Sampler** — when [`crate::EngineConfig::telemetry_interval_ms`] is
//!   non-zero (the default is 250 ms), a background worker snapshots the
//!   engine metrics every interval, diffs against the previous snapshot and
//!   appends one [`TelemetryPoint`] per interval to a fixed-capacity
//!   [`TimeSeriesRing`].  The ring feeds the `/timeseries` endpoint and,
//!   as `BenchmarkResult::timeline`, the per-interval table in reports.
//! * **HTTP listener** — when [`crate::EngineConfig::telemetry_addr`] (or
//!   `OLXP_TELEMETRY_ADDR`) is set, a dependency-free HTTP/1.1 listener
//!   serves `GET /metrics` (Prometheus text exposition), `/healthz` (SLO
//!   health checks, 200/503), `/snapshot` (full counter snapshot as JSON)
//!   and `/timeseries` (the sampler's ring as JSON).
//!
//! Both hold only a [`Weak`] reference to the database, so an open database
//! with telemetry enabled can still be dropped normally; [`HybridDatabase`]'s
//! drop stops them first.

use crate::background::Signal;
use crate::database::HybridDatabase;
use crate::metrics::{metric_families, MetricKind, MetricsSnapshot, METRICS};
use olxp_storage::SyncPolicy;
use olxp_trace::{
    prometheus_counter, prometheus_gauge, prometheus_histogram, Handler, HttpResponse,
    LogHistogram, SeriesPoint, SpanCategory, TelemetryServer, TimeSeriesRing,
};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Declares [`TelemetryPoint`]: each `field(source);` line is one per-interval
/// counter — the public field, its value `delta.source` in
/// [`TelemetryPoint::from_delta`] and its serialized key.
macro_rules! telemetry_point {
    ( $( $(#[$doc:meta])* $field:ident($($source:tt)+); )* ) => {
        /// One sampling interval of engine activity: counter deltas over the
        /// interval plus a few end-of-interval gauges.  Rates are derived,
        /// not stored, so a point stays mergeable with its neighbours by
        /// summation.  Serialised as is into `BenchmarkResult::timeline`.
        #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
        pub struct TelemetryPoint {
            /// Milliseconds on the time axis (since the database opened; the
            /// benchmark driver rebases to its own start) at the end of the
            /// interval this point covers.
            pub t_ms: u64,
            /// Actual length of the interval in milliseconds (the sampler
            /// aims for the configured cadence but records what elapsed).
            pub interval_ms: u64,
            $( $(#[$doc])* pub $field: u64, )*
            /// Replication lag in records at the end of the interval (gauge).
            pub replication_lag: u64,
            /// Median end-to-end commit latency over the interval in
            /// microseconds (0 when tracing is off — the commit-stage
            /// histogram is the source).
            pub commit_p50_us: f64,
            /// 95th-percentile commit latency over the interval (µs).
            pub commit_p95_us: f64,
            /// Median freshness-wait latency over the interval (µs).
            pub freshness_p50_us: f64,
            /// 95th-percentile freshness-wait latency over the interval (µs).
            pub freshness_p95_us: f64,
        }

        impl TelemetryPoint {
            /// Build one timeline point from an interval's metrics delta.
            fn from_delta(
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
                    $( $field: delta.$($source)+, )*
                    replication_lag,
                    commit_p50_us: p_us(commit, 0.50),
                    commit_p95_us: p_us(commit, 0.95),
                    freshness_p50_us: p_us(freshness, 0.50),
                    freshness_p95_us: p_us(freshness, 0.95),
                }
            }
        }

    };
}

telemetry_point! {
    /// Transactions committed during the interval.
    commits(commits);
    /// Transactions aborted during the interval.
    aborts(aborts);
    /// Online-transaction statements issued during the interval.
    oltp_statements(statements[0]);
    /// Analytical statements issued during the interval.
    olap_statements(statements[1]);
    /// Hybrid-transaction statements issued during the interval.
    hybrid_statements(statements[2]);
    /// Replication records applied to columnar replicas during the interval.
    replication_applied(replication_applied);
    /// Replication apply failures during the interval.
    replication_errors(replication_errors);
    /// WAL records appended during the interval.
    wal_appends(wal.appends);
    /// WAL fsyncs issued during the interval.
    wal_fsyncs(wal.fsyncs);
    /// WAL bytes written during the interval.
    wal_bytes(wal.bytes_written);
    /// Delta chunks sealed into the compressed main tier during the interval.
    chunks_compacted(chunks_compacted);
    /// Column-store chunks scanned during the interval.
    chunks_scanned(chunks_scanned);
    /// Column-store chunks skipped by zone maps during the interval.
    chunks_pruned(chunks_pruned_zonemap);
    /// Analytical freshness waits that timed out during the interval.
    freshness_timeouts(freshness_timeouts);
}

impl TelemetryPoint {
    /// Events per second for a counter delta over this point's interval.
    pub fn rate(&self, count: u64) -> f64 {
        if self.interval_ms == 0 {
            return 0.0;
        }
        count as f64 * 1_000.0 / self.interval_ms as f64
    }

    /// The `/timeseries` rendering: every field, then the two derived rates
    /// dashboards plot directly.
    fn series_json(&self) -> Value {
        let mut point = self.serialize();
        if let Value::Map(fields) = &mut point {
            fields.push(("commit_tps".to_string(), self.commit_tps().serialize()));
            fields.push(("abort_rate".to_string(), self.abort_rate().serialize()));
        }
        point
    }

    /// Commit throughput over the interval (commits/s).
    pub fn commit_tps(&self) -> f64 {
        self.rate(self.commits)
    }

    /// Aborts as a fraction of commit attempts over the interval.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            return 0.0;
        }
        self.aborts as f64 / attempts as f64
    }
}

impl SeriesPoint for TelemetryPoint {
    fn t_ms(&self) -> u64 {
        self.t_ms
    }
}

/// Per-interval points retained by the sampler ring: at the default 250 ms
/// interval this is ~17 minutes of history, bounded at ~700 KiB.
const TIMELINE_CAPACITY: usize = 4096;

/// Live telemetry state shared between the sampler thread, the HTTP handler
/// and the report path.  Owned by the database via `Arc` and referenced by
/// the background threads through it (they hold the database weakly).
pub struct TelemetryState {
    started: Instant,
    ring: Mutex<TimeSeriesRing<TelemetryPoint>>,
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
        self.ring.lock().points()
    }

    /// Copy of the retained points sampled at or after `t_ms`.
    pub fn timeline_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.ring.lock().points_since(t_ms)
    }

    /// The ring rendered as a JSON document (the `/timeseries` body):
    /// `{"capacity":N,"dropped":D,"points":[...]}`.
    pub fn timeline_json(&self) -> String {
        let ring = self.ring.lock();
        let points = ring
            .points()
            .iter()
            .map(TelemetryPoint::series_json)
            .collect();
        object([
            ("capacity", ring.capacity().serialize()),
            ("dropped", ring.dropped().serialize()),
            ("points", Value::Seq(points)),
        ])
        .to_string()
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

/// The sampler's worker body.  It holds the database weakly: every interval
/// it upgrades, snapshots, diffs and appends one point; it returns when the
/// database is gone or the worker is stopped (which ends the park at once).
pub(crate) fn sampler(db: &Arc<HybridDatabase>) -> impl FnOnce(&Signal) + Send + 'static {
    let interval = Duration::from_millis(db.config().telemetry_interval_ms.max(1));
    let weak: Weak<HybridDatabase> = Arc::downgrade(db);
    let state = Arc::clone(db.telemetry_state_arc());
    let mut prev = db.metrics_snapshot();
    let mut prev_t = state.elapsed_ms();
    move |signal| loop {
        signal.park(interval);
        if signal.stopping() {
            return;
        }
        let Some(db) = weak.upgrade() else { return };
        let now = db.metrics_snapshot();
        let t_ms = state.elapsed_ms();
        let delta = now.delta_since(&prev);
        // The durable LSN failing to advance across a whole interval while
        // commits are waiting on it means the fsync path is wedged.
        // `SyncPolicy::Never` legitimately leaves the durable LSN behind, so
        // it never counts as a stall.
        let syncing = db.is_durable() && db.config().durability.sync != SyncPolicy::Never;
        let stalled = syncing
            && now.wal.last_lsn > now.wal.durable_lsn
            && now.wal.durable_lsn == prev.wal.durable_lsn;
        state.wal_stalled.store(stalled, Ordering::Relaxed);
        state.push(TelemetryPoint::from_delta(
            t_ms,
            t_ms.saturating_sub(prev_t).max(1),
            &delta,
            db.replication_lag(),
        ));
        prev = now;
        prev_t = t_ms;
        // Dropped before the next park: the sampler must not keep the
        // database alive across an interval while everyone else is done with
        // it.
        drop(db);
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
            let error = object([("error", "database is shut down".serialize())]);
            return HttpResponse::json(503, error.to_string());
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
        let checks = self.checks.iter().map(|check| {
            object([
                ("name", check.name.serialize()),
                ("healthy", check.healthy.serialize()),
                ("detail", check.detail.serialize()),
            ])
        });
        object([
            ("healthy", self.healthy().serialize()),
            ("checks", Value::Seq(checks.collect())),
        ])
        .to_string()
    }
}

/// Replication apply-error rate above which `/healthz` degrades (1%).
const MAX_REPLICATION_ERROR_RATE: f64 = 0.01;

/// Evaluate the SLO health checks against the live engine: background-thread
/// liveness, freshness-timeout count, replication error rate and WAL fsync
/// progress.
pub fn health_report(db: &HybridDatabase) -> HealthReport {
    let snapshot = db.metrics_snapshot();
    let config = db.config();
    let mut checks = vec![
        thread_check("replication_applier", true, db.has_background_applier()),
        thread_check("delta_compactor", true, db.has_background_compactor()),
        thread_check(
            "telemetry_sampler",
            config.telemetry_interval_ms > 0,
            db.has_telemetry_sampler(),
        ),
    ];

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

/// The liveness check of an optional background thread: healthy when it is
/// not configured, or configured and still running.
fn thread_check(name: &'static str, configured: bool, running: bool) -> HealthCheck {
    let detail = match (configured, running) {
        (false, _) => "not configured",
        (true, true) => "running",
        (true, false) => "configured but not running",
    };
    HealthCheck {
        name,
        healthy: !configured || running,
        detail: detail.to_string(),
    }
}

/// Render the full Prometheus text exposition for `/metrics`: liveness, the
/// replication-lag gauge, every declared metric ([`METRICS`], one `# HELP` /
/// `# TYPE` per family) and, with tracing, the stage histograms.
pub(crate) fn render_prometheus(db: &HybridDatabase) -> String {
    let s = db.metrics_snapshot();
    let mut out = String::with_capacity(8192);
    prometheus_gauge(&mut out, "olxp_up", "Engine liveness.", &[(&[], 1.0)]);
    prometheus_gauge(
        &mut out,
        "olxp_replication_lag_records",
        "Appended-but-unapplied replication records, summed across shards.",
        &[(&[], db.replication_lag() as f64)],
    );
    for family in metric_families() {
        let first = &family[0];
        let samples: Vec<(&[(&str, &str)], f64)> = family
            .iter()
            .map(|def| (def.labels, def.value(&s) as f64))
            .collect();
        match first.kind {
            MetricKind::Counter => prometheus_counter(&mut out, first.family, first.help, &samples),
            MetricKind::Gauge => prometheus_gauge(&mut out, first.family, first.help, &samples),
        }
    }
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

/// Render the `/snapshot` JSON body: uptime, replication lag and every
/// declared metric ([`METRICS`]).
pub(crate) fn render_snapshot_json(db: &HybridDatabase) -> String {
    let s = db.metrics_snapshot();
    let metrics = METRICS
        .iter()
        .map(|def| (def.key, def.value(&s).serialize()));
    let fields = [
        ("uptime_ms", db.telemetry_state().elapsed_ms().serialize()),
        ("replication_lag_records", db.replication_lag().serialize()),
    ]
    .into_iter()
    .chain(metrics);
    object(fields).to_string()
}

/// A JSON object of `fields`, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
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
        let point = TelemetryPoint::from_delta(1_250, 250, &delta, 9);
        assert_eq!(point.commits, 50);
        assert_eq!(point.oltp_statements, 100);
        assert_eq!(point.chunks_pruned, 3);
        assert_eq!(point.replication_lag, 9);
        assert_eq!(point.freshness_timeouts, 1);
        assert!((point.commit_tps() - 200.0).abs() < 1e-9);
        assert!(point.commit_p50_us >= 1_900.0, "p50 ≈ 2ms in µs");
        assert_eq!(point.freshness_p50_us, 0.0, "empty histogram reads zero");
        assert!((point.abort_rate() - 2.0 / 52.0).abs() < 1e-9);
        let idle = TelemetryPoint::default();
        assert_eq!(idle.commit_tps(), 0.0, "a zero-length interval has no rate");
        assert_eq!(idle.abort_rate(), 0.0);

        let json = point.series_json();
        let fields = json.as_map().expect("a point is an object");
        assert_eq!(fields[0], ("t_ms".to_string(), Value::I64(1_250)));
        assert_eq!(fields[1], ("interval_ms".to_string(), Value::I64(250)));
        assert_eq!(json.get("commit_tps"), Some(&Value::F64(200.0)));
        assert_eq!(json.get("abort_rate"), Some(&Value::F64(2.0 / 52.0)));
    }

    #[test]
    fn timeline_json_document_shape() {
        let state = TelemetryState::new();
        assert_eq!(
            state.timeline_json(),
            format!("{{\"capacity\":{TIMELINE_CAPACITY},\"dropped\":0,\"points\":[]}}")
        );
        for t_ms in [100, 200] {
            state.push(TelemetryPoint {
                t_ms,
                commits: t_ms / 10,
                ..TelemetryPoint::default()
            });
        }
        let json = state.timeline_json();
        assert!(
            json.starts_with("{\"capacity\":4096,\"dropped\":0,\"points\":[{\"t_ms\":100,"),
            "{json}"
        );
        assert!(json.contains("},{\"t_ms\":200,"), "{json}");
        assert!(json.contains("\"commits\":20,"), "{json}");
        assert_eq!(json.matches("\"abort_rate\":").count(), 2, "{json}");
        assert!(json.ends_with("}]}"), "{json}");
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
}
