//! Slow-transaction and slow-query logs.
//!
//! While tracing is enabled and [`crate::EngineConfig::slow_txn_threshold_ms`]
//! is non-zero, every commit whose end-to-end latency crosses the threshold is
//! retained here with its full per-stage breakdown — the first place to look
//! when a latency percentile regresses, without replaying the whole trace.
//!
//! The analytical side mirrors it: with
//! [`crate::EngineConfig::slow_query_threshold_ms`] non-zero, every
//! standalone analytical query slower than the threshold (wall clock,
//! freshness wait included) is retained with its per-operator time breakdown
//! (operator timings need tracing; the total and the observed freshness lag
//! are recorded either way).  Both logs surface through the telemetry
//! `/snapshot` endpoint and drain into benchmark results.

use olxp_trace::SpanCategory;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on retained records per log; past it only a drop counter
/// advances so a pathological run cannot grow memory without bound.
const SLOW_LOG_CAP: usize = 1024;

/// One commit that crossed the slow-transaction threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTxnRecord {
    /// WAL transaction id of the commit (0 for non-durable commits, which
    /// allocate no WAL id).
    pub txn_id: u64,
    /// End-to-end commit latency in nanoseconds.
    pub total_nanos: u64,
    /// Shards the transaction wrote to, ascending.
    pub shards: Vec<u32>,
    /// Per-stage durations in nanoseconds, in lifecycle order.  Stages the
    /// commit never entered (e.g. WAL stages on an in-memory engine) are
    /// omitted.
    pub stages: Vec<(SpanCategory, u64)>,
}

impl SlowTxnRecord {
    /// One-line human-readable rendering, e.g.
    /// `slow txn 42: 15.200ms on shards [0,2] (lock=1.000ms fsync=12.000ms)`.
    pub fn format(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(|s| s.to_string()).collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .filter(|&&(_, nanos)| nanos > 0)
            .map(|&(category, nanos)| format!("{}={}", category.as_str(), fmt_ms(nanos)))
            .collect();
        format!(
            "slow txn {}: {} on shards [{}] ({})",
            self.txn_id,
            fmt_ms(self.total_nanos),
            shards.join(","),
            stages.join(" ")
        )
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

/// One analytical query that crossed the slow-query threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// Execution route the planner chose (`"column_store"` or `"row_store"`).
    pub route: &'static str,
    /// End-to-end query latency in nanoseconds, freshness wait included.
    pub total_nanos: u64,
    /// Replication lag (in records) observed when the query was admitted.
    pub lag_records: u64,
    /// Wall-clock nanoseconds per operator node, children before parents (a
    /// parent's duration includes its children's).  Empty unless tracing was
    /// enabled while the query ran.
    pub operators: Vec<u64>,
}

impl SlowQueryRecord {
    /// One-line human-readable rendering, e.g.
    /// `slow query: 12.000ms via column_store (lag 42 records) (op0=9.000ms op1=2.000ms)`.
    /// The operator list is omitted when tracing captured none.
    pub fn format(&self) -> String {
        let mut line = format!(
            "slow query: {} via {} (lag {} records)",
            fmt_ms(self.total_nanos),
            self.route,
            self.lag_records
        );
        let operators: Vec<String> = self
            .operators
            .iter()
            .enumerate()
            .filter(|&(_, &nanos)| nanos > 0)
            .map(|(index, &nanos)| format!("op{index}={}", fmt_ms(nanos)))
            .collect();
        if !operators.is_empty() {
            line.push_str(&format!(" ({})", operators.join(" ")));
        }
        line
    }
}

/// A record a [`SlowLog`] can gate on its end-to-end latency.
pub trait SlowRecord {
    /// End-to-end latency in nanoseconds.
    fn total_nanos(&self) -> u64;
}

impl SlowRecord for SlowTxnRecord {
    fn total_nanos(&self) -> u64 {
        self.total_nanos
    }
}

impl SlowRecord for SlowQueryRecord {
    fn total_nanos(&self) -> u64 {
        self.total_nanos
    }
}

/// Bounded store of slow records with a fixed latency threshold.
#[derive(Debug)]
pub struct SlowLog<R> {
    threshold_nanos: u64,
    records: Mutex<Vec<R>>,
    dropped: AtomicU64,
}

/// Bounded store of [`SlowTxnRecord`]s.
pub type SlowTxnLog = SlowLog<SlowTxnRecord>;

/// Bounded store of [`SlowQueryRecord`]s.
pub type SlowQueryLog = SlowLog<SlowQueryRecord>;

impl<R: SlowRecord + Clone> SlowLog<R> {
    /// A log that retains records slower than `threshold_ms` milliseconds;
    /// `0` disables recording entirely.
    pub fn new(threshold_ms: u64) -> SlowLog<R> {
        SlowLog {
            threshold_nanos: threshold_ms.saturating_mul(1_000_000),
            records: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// True when a non-zero threshold was configured.
    pub fn is_enabled(&self) -> bool {
        self.threshold_nanos > 0
    }

    /// The configured threshold in nanoseconds (0 = disabled).
    pub fn threshold_nanos(&self) -> u64 {
        self.threshold_nanos
    }

    /// Retain a record if it crossed the threshold.  Returns true when the
    /// record qualified (even if the cap forced it to be dropped).
    pub fn observe(&self, record: R) -> bool {
        if self.threshold_nanos == 0 || record.total_nanos() < self.threshold_nanos {
            return false;
        }
        let mut records = self.records.lock();
        if records.len() < SLOW_LOG_CAP {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<R> {
        self.records.lock().clone()
    }

    /// Drain the retained records, oldest first.
    pub fn take(&self) -> Vec<R> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Qualifying records the cap forced to be dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(txn_id: u64, total_nanos: u64) -> SlowTxnRecord {
        SlowTxnRecord {
            txn_id,
            total_nanos,
            shards: vec![0, 2],
            stages: vec![
                (SpanCategory::Lock, 1_000_000),
                (SpanCategory::Fsync, 12_000_000),
                (SpanCategory::Install, 0),
            ],
        }
    }

    #[test]
    fn threshold_gates_recording() {
        let log = SlowTxnLog::new(10);
        assert!(log.is_enabled());
        assert!(!log.observe(record(1, 9_999_999)), "below threshold");
        assert!(log.observe(record(2, 10_000_000)), "at threshold");
        assert!(log.observe(record(3, 50_000_000)));
        assert_eq!(log.len(), 2);
        let drained = log.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].txn_id, 2);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn zero_threshold_disables_the_log() {
        let log = SlowTxnLog::new(0);
        assert!(!log.is_enabled());
        assert!(!log.observe(record(1, u64::MAX)));
        assert!(log.is_empty());
    }

    #[test]
    fn formatting_lists_nonzero_stages() {
        let rendered = record(42, 15_200_000).format();
        assert_eq!(
            rendered,
            "slow txn 42: 15.200ms on shards [0,2] (lock=1.000ms fsync=12.000ms)"
        );
        assert!(!rendered.contains("install"), "zero stages are omitted");
    }

    fn query(total_nanos: u64, operators: Vec<u64>) -> SlowQueryRecord {
        SlowQueryRecord {
            route: "column_store",
            total_nanos,
            lag_records: 42,
            operators,
        }
    }

    #[test]
    fn query_threshold_gates_recording() {
        let log = SlowQueryLog::new(10);
        assert!(log.is_enabled());
        assert_eq!(log.threshold_nanos(), 10_000_000);
        assert!(
            !log.observe(query(9_999_999, Vec::new())),
            "below threshold"
        );
        assert!(log.observe(query(10_000_000, Vec::new())), "at threshold");
        assert!(log.observe(query(50_000_000, vec![1, 2])));
        assert_eq!(log.len(), 2);
        assert_eq!(log.records().len(), 2, "records() copies without draining");
        let drained = log.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].operators, vec![1, 2]);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);

        let disabled = SlowQueryLog::new(0);
        assert!(!disabled.is_enabled());
        assert!(!disabled.observe(query(u64::MAX, Vec::new())));
    }

    #[test]
    fn query_formatting_lists_operators_when_traced() {
        let traced = query(12_000_000, vec![9_000_000, 2_000_000, 0]).format();
        assert_eq!(
            traced,
            "slow query: 12.000ms via column_store (lag 42 records) (op0=9.000ms op1=2.000ms)"
        );
        assert!(!traced.contains("op2"), "zero operators are omitted");

        let untraced = query(12_000_000, Vec::new()).format();
        assert_eq!(
            untraced,
            "slow query: 12.000ms via column_store (lag 42 records)"
        );
    }
}
