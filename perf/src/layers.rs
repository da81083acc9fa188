//! The per-layer numbers a round reads from counters and histograms the
//! engine already keeps: one row per metric, in the order of the catalogue.

use crate::spans::Recorder;
use crate::spec::Spec;
use crate::stats;
use olxp_engine::MetricsSnapshot;
use olxp_trace::SpanCategory::{self, *};
use std::time::Duration;

/// Lock-table and transaction-manager counters over the measured list.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnCounts {
    pub lock_acquisitions: u64,
    pub lock_contended: u64,
    pub lock_wait_nanos: u64,
    pub begun: u64,
    pub committed: u64,
}

/// What one round observed around its measured list.
pub struct Observed<'a> {
    pub spec: &'a Spec,
    /// The round's phase spans (set-up, drain, checkpoint).
    pub phases: &'a Recorder,
    pub loaded_rows: usize,
    /// Requests in the measured list.
    pub measured: usize,
    /// Wall time of the measured list.
    pub wall: Duration,
    /// Engine counters over the measured list, drain and final compaction.
    pub delta: &'a MetricsSnapshot,
    /// Engine gauges after the final compaction.
    pub after: &'a MetricsSnapshot,
    pub txns: TxnCounts,
    /// Replication lag each analytical read observed, ascending.
    pub lags: &'a [u64],
}

/// `numerator / denominator`, 0 when the workload has no such work.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn counts(o: &Observed) -> Vec<(&'static str, f64)> {
    let d = o.delta;
    // Stage histograms are filled only while the engine traces: 0 otherwise.
    let us = |category: SpanCategory, q: f64| {
        let hist = d.stages.get(category);
        if hist.is_empty() {
            0.0
        } else {
            hist.value_at_quantile(q) as f64 / 1e3
        }
    };
    let ms = |phase: &str| o.phases.total_ms(phase);
    let ops = o.measured as f64;
    let commits = d.commits as f64;
    let queries = d.statements[1] as f64;
    let acquisitions = o.txns.lock_acquisitions as f64;
    let chunks_considered =
        (d.chunks_scanned + d.chunks_pruned_zonemap + d.chunks_pruned_filter) as f64;
    let checkpointed_rows = if o.spec.durable {
        o.loaded_rows as f64
    } else {
        0.0
    };
    vec![
        ("engine.database.open_ms", ms("engine.database.open")),
        (
            "engine.database.load_krows_per_s",
            ratio(o.loaded_rows as f64, ms("workloads.load")),
        ),
        (
            "engine.database.finish_load_ms",
            ms("engine.database.finish_load"),
        ),
        ("engine.database.settle_ms", ms("engine.database.settle")),
        ("engine.database.warmup_ms", ms("engine.database.warmup")),
        ("engine.session.commit_p50_us", us(Commit, 0.5)),
        ("engine.session.commit_p99_us", us(Commit, 0.99)),
        (
            "engine.session.statements_per_txn",
            ratio((d.statements[0] + d.statements[2]) as f64, commits),
        ),
        (
            "engine.cluster.modelled_busy_us_per_op",
            ratio(d.total_busy_nanos() as f64 / 1e3, ops),
        ),
        (
            "engine.cluster.queue_wait_us_per_op",
            ratio(d.total_queue_wait_nanos() as f64 / 1e3, ops),
        ),
        ("txn.locks.acquire_p50_us", us(Lock, 0.5)),
        ("txn.locks.acquire_p99_us", us(Lock, 0.99)),
        (
            "txn.locks.acquisitions_per_commit",
            ratio(acquisitions, commits),
        ),
        (
            "txn.locks.contended_pct",
            100.0 * ratio(o.txns.lock_contended as f64, acquisitions),
        ),
        (
            "txn.locks.wait_us_per_commit",
            ratio(o.txns.lock_wait_nanos as f64 / 1e3, commits),
        ),
        (
            "txn.manager.aborts_per_kcommit",
            1e3 * ratio(d.aborts as f64, commits),
        ),
        (
            "txn.manager.attempts_per_success",
            ratio(o.txns.begun as f64, o.txns.committed as f64),
        ),
        ("storage.wal.append_p50_us", us(WalAppend, 0.5)),
        ("storage.wal.append_p99_us", us(WalAppend, 0.99)),
        ("storage.wal.fsync_p50_us", us(Fsync, 0.5)),
        ("storage.wal.fsync_p99_us", us(Fsync, 0.99)),
        (
            "storage.wal.bytes_per_commit",
            ratio(d.wal.bytes_written as f64, commits),
        ),
        (
            "storage.wal.appends_per_commit",
            ratio(d.wal.appends as f64, commits),
        ),
        (
            "storage.wal.fsyncs_per_commit",
            ratio(d.wal.fsyncs as f64, commits),
        ),
        ("storage.wal.group_batch_p50", d.wal.group_batch_p50 as f64),
        (
            "storage.checkpoint.write_ms",
            ms("storage.checkpoint.write"),
        ),
        (
            "storage.checkpoint.krows_per_s",
            ratio(checkpointed_rows, ms("storage.checkpoint.write")),
        ),
        ("storage.rowstore.install_p50_us", us(Install, 0.5)),
        ("storage.rowstore.install_p99_us", us(Install, 0.99)),
        (
            "storage.rowstore.rows_scanned_per_op",
            ratio(d.row_rows_scanned as f64, ops),
        ),
        (
            "storage.replication.apply_p50_us",
            us(ReplicationApply, 0.5),
        ),
        (
            "storage.replication.apply_p99_us",
            us(ReplicationApply, 0.99),
        ),
        (
            "storage.replication.applied_krec_per_s",
            ratio(d.replication_applied as f64 / 1e3, o.wall.as_secs_f64()),
        ),
        (
            "storage.replication.drain_ms",
            ms("storage.replication.drain"),
        ),
        ("storage.replication.errors", d.replication_errors as f64),
        (
            "storage.replication.lag_p50_records",
            stats::percentile(o.lags, 0.5) as f64,
        ),
        (
            "storage.replication.lag_p95_records",
            stats::percentile(o.lags, 0.95) as f64,
        ),
        (
            "storage.replication.lag_max_records",
            stats::percentile(o.lags, 1.0) as f64,
        ),
        (
            "storage.colstore.rows_scanned_per_query",
            ratio(d.col_rows_scanned as f64, queries),
        ),
        (
            "storage.colstore.chunks_scanned_per_query",
            ratio(d.chunks_scanned as f64, queries),
        ),
        ("storage.colstore.compaction_p50_us", us(Compaction, 0.5)),
        ("storage.colstore.compaction_p99_us", us(Compaction, 0.99)),
        (
            "storage.colstore.chunks_compacted",
            d.chunks_compacted as f64,
        ),
        (
            "storage.colstore.compression_ratio",
            o.after.col_compression_ratio(),
        ),
        (
            "storage.zonemap.prune_pct",
            100.0 * ratio(d.chunks_pruned_zonemap as f64, chunks_considered),
        ),
        (
            "storage.filter.prune_pct",
            100.0 * ratio(d.chunks_pruned_filter as f64, chunks_considered),
        ),
        (
            "storage.encode.rows_pruned_pct",
            100.0
                * ratio(
                    d.rows_pruned_encoded as f64,
                    (d.col_rows_scanned + d.rows_pruned_encoded) as f64,
                ),
        ),
        ("query.exec.operator_p50_us", us(QueryOperator, 0.5)),
        ("query.exec.operator_p99_us", us(QueryOperator, 0.99)),
        // Hybrid transactions run their queries inside transactions, which
        // the engine does not count as analytical statements.
        (
            "query.exec.batches_per_query",
            ratio(
                d.query_batches as f64,
                if queries > 0.0 { queries } else { ops },
            ),
        ),
        ("query.exec.freshness_wait_p99_us", us(FreshnessWait, 0.99)),
    ]
}
