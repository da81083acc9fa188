//! Fixed-capacity telemetry time series.
//!
//! The live telemetry sampler diffs consecutive engine metrics snapshots and
//! appends one [`TelemetryPoint`] per sampling interval into a
//! [`TimeSeriesRing`] — a bounded ring that keeps the newest points and
//! counts what it had to drop, so a long-lived engine exposes a sliding
//! window of its recent behaviour without growing memory.  Everything here is
//! dependency-free: the JSON renderings are hand-rolled string builders over
//! purely numeric fields, exactly like [`crate::chrome_trace_json`].

use std::collections::VecDeque;
use std::fmt::Write as _;

/// One sampling interval of engine activity: counter deltas over the
/// interval plus a few end-of-interval gauges.  Rates are derived, not
/// stored, so a point stays mergeable with its neighbours by summation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryPoint {
    /// Milliseconds since the sampler started, measured at the end of the
    /// interval this point covers.
    pub t_ms: u64,
    /// Actual length of the interval in milliseconds (the sampler aims for
    /// the configured cadence but records what really elapsed).
    pub interval_ms: u64,
    /// Transactions committed during the interval.
    pub commits: u64,
    /// Transactions aborted during the interval.
    pub aborts: u64,
    /// Online-transaction statements issued during the interval.
    pub oltp_statements: u64,
    /// Analytical statements issued during the interval.
    pub olap_statements: u64,
    /// Hybrid-transaction statements issued during the interval.
    pub hybrid_statements: u64,
    /// Replication records applied to columnar replicas during the interval.
    pub replication_applied: u64,
    /// Replication apply failures during the interval.
    pub replication_errors: u64,
    /// Replication lag in records at the end of the interval (gauge).
    pub replication_lag: u64,
    /// WAL records appended during the interval.
    pub wal_appends: u64,
    /// WAL fsyncs issued during the interval.
    pub wal_fsyncs: u64,
    /// WAL bytes written during the interval.
    pub wal_bytes: u64,
    /// Delta chunks sealed into the compressed main tier during the interval.
    pub chunks_compacted: u64,
    /// Column-store chunks scanned during the interval.
    pub chunks_scanned: u64,
    /// Column-store chunks skipped by zone maps during the interval.
    pub chunks_pruned: u64,
    /// Analytical freshness waits that timed out during the interval.
    pub freshness_timeouts: u64,
    /// Median end-to-end commit latency over the interval in microseconds
    /// (0 when tracing is off — the commit-stage histogram is the source).
    pub commit_p50_us: f64,
    /// 95th-percentile commit latency over the interval in microseconds.
    pub commit_p95_us: f64,
    /// Median freshness-wait latency over the interval in microseconds.
    pub freshness_p50_us: f64,
    /// 95th-percentile freshness-wait latency over the interval.
    pub freshness_p95_us: f64,
}

impl TelemetryPoint {
    /// Events per second for a counter delta over this point's interval.
    fn rate(&self, count: u64) -> f64 {
        if self.interval_ms == 0 {
            return 0.0;
        }
        count as f64 * 1_000.0 / self.interval_ms as f64
    }

    /// Commit throughput over the interval (commits/s).
    pub fn commit_tps(&self) -> f64 {
        self.rate(self.commits)
    }

    /// Online-statement throughput over the interval (statements/s).
    pub fn oltp_stmt_tps(&self) -> f64 {
        self.rate(self.oltp_statements)
    }

    /// Analytical-statement throughput over the interval (statements/s).
    pub fn olap_stmt_tps(&self) -> f64 {
        self.rate(self.olap_statements)
    }

    /// Hybrid-statement throughput over the interval (statements/s).
    pub fn hybrid_stmt_tps(&self) -> f64 {
        self.rate(self.hybrid_statements)
    }

    /// Aborts as a fraction of commit attempts over the interval.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            return 0.0;
        }
        self.aborts as f64 / attempts as f64
    }

    /// Fraction of eligible chunks the scan path skipped this interval.
    pub fn prune_rate(&self) -> f64 {
        let eligible = self.chunks_scanned + self.chunks_pruned;
        if eligible == 0 {
            return 0.0;
        }
        self.chunks_pruned as f64 / eligible as f64
    }

    /// Render this point as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"t_ms\":{},\"interval_ms\":{},\"commits\":{},\"aborts\":{},\
             \"oltp_statements\":{},\"olap_statements\":{},\"hybrid_statements\":{},\
             \"replication_applied\":{},\"replication_errors\":{},\"replication_lag\":{},\
             \"wal_appends\":{},\"wal_fsyncs\":{},\"wal_bytes\":{},\
             \"chunks_compacted\":{},\"chunks_scanned\":{},\"chunks_pruned\":{},\
             \"freshness_timeouts\":{},\"commit_tps\":{:.1},\"abort_rate\":{:.4},\
             \"commit_p50_us\":{:.1},\"commit_p95_us\":{:.1},\
             \"freshness_p50_us\":{:.1},\"freshness_p95_us\":{:.1}}}",
            self.t_ms,
            self.interval_ms,
            self.commits,
            self.aborts,
            self.oltp_statements,
            self.olap_statements,
            self.hybrid_statements,
            self.replication_applied,
            self.replication_errors,
            self.replication_lag,
            self.wal_appends,
            self.wal_fsyncs,
            self.wal_bytes,
            self.chunks_compacted,
            self.chunks_scanned,
            self.chunks_pruned,
            self.freshness_timeouts,
            self.commit_tps(),
            self.abort_rate(),
            self.commit_p50_us,
            self.commit_p95_us,
            self.freshness_p50_us,
            self.freshness_p95_us,
        );
        out
    }
}

/// Bounded ring of [`TelemetryPoint`]s: keeps the newest `capacity` points
/// and counts evictions, so the memory held by a long-running sampler is
/// fixed at construction time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeriesRing {
    capacity: usize,
    points: VecDeque<TelemetryPoint>,
    dropped: u64,
}

impl TimeSeriesRing {
    /// A ring that retains at most `capacity` points (0 retains nothing).
    pub fn with_capacity(capacity: usize) -> TimeSeriesRing {
        TimeSeriesRing {
            capacity,
            points: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// Append a point, evicting the oldest when the ring is full.
    pub fn push(&mut self, point: TelemetryPoint) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(point);
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> Vec<TelemetryPoint> {
        self.points.iter().cloned().collect()
    }

    /// Retained points newer than (or at) `t_ms`, oldest first.
    pub fn points_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.points
            .iter()
            .filter(|p| p.t_ms >= t_ms)
            .cloned()
            .collect()
    }

    /// The newest retained point.
    pub fn last(&self) -> Option<&TelemetryPoint> {
        self.points.back()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points evicted (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the ring as a JSON document:
    /// `{"capacity":N,"dropped":D,"points":[...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.points.len() * 512);
        let _ = write!(
            out,
            "{{\"capacity\":{},\"dropped\":{},\"points\":[",
            self.capacity, self.dropped
        );
        for (i, point) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&point.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t_ms: u64, commits: u64) -> TelemetryPoint {
        TelemetryPoint {
            t_ms,
            interval_ms: 100,
            commits,
            aborts: 1,
            ..TelemetryPoint::default()
        }
    }

    #[test]
    fn derived_rates() {
        let p = point(100, 50);
        assert!((p.commit_tps() - 500.0).abs() < 1e-9);
        assert!((p.abort_rate() - 1.0 / 51.0).abs() < 1e-9);
        let idle = TelemetryPoint::default();
        assert_eq!(idle.commit_tps(), 0.0);
        assert_eq!(idle.abort_rate(), 0.0);
        assert_eq!(idle.prune_rate(), 0.0);
        let pruned = TelemetryPoint {
            chunks_scanned: 25,
            chunks_pruned: 75,
            ..TelemetryPoint::default()
        };
        assert!((pruned.prune_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TimeSeriesRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(point(i * 100, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 2);
        let points = ring.points();
        assert_eq!(points[0].t_ms, 200, "oldest two were evicted");
        assert_eq!(points[2].t_ms, 400);
        assert_eq!(ring.last().unwrap().t_ms, 400);
        assert_eq!(ring.points_since(300).len(), 2);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut ring = TimeSeriesRing::with_capacity(0);
        ring.push(point(0, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn json_document_shape() {
        let mut ring = TimeSeriesRing::with_capacity(8);
        ring.push(point(100, 10));
        ring.push(point(200, 20));
        let json = ring.to_json();
        assert!(json.starts_with("{\"capacity\":8,\"dropped\":0,\"points\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"t_ms\":100"));
        assert!(json.contains("\"commits\":20"));
        assert!(json.contains("\"commit_tps\":200.0"));
        let doc: serde_json::Value = serde_json::from_str(&json).expect("ring JSON parses");
        let points = doc
            .get("points")
            .and_then(|v| v.as_seq())
            .expect("points is an array");
        assert_eq!(points.len(), 2);
        assert!(points[0].get("abort_rate").is_some());
        let empty: serde_json::Value =
            serde_json::from_str(&TimeSeriesRing::with_capacity(4).to_json())
                .expect("empty ring parses");
        assert_eq!(
            empty
                .get("points")
                .and_then(|v| v.as_seq())
                .map(|p| p.len()),
            Some(0)
        );
    }
}
