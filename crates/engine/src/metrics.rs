//! Engine-side metrics.
//!
//! The experiment harness reads these counters to compute the quantities the
//! paper reports beyond plain latency/throughput: the normalized lock overhead
//! of Figure 4, scan volumes, buffer-pool churn and replication lag.

use olxp_trace::{SpanCategory, StageBreakdown};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Freshness observed by one analytical read at the moment it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreshnessSample {
    /// Committed mutation records the replica trailed the row store by.
    pub lag_records: u64,
    /// Commit-timestamp delta between the newest committed mutation and the
    /// newest applied one (logical staleness).
    pub lag_commit_ts: u64,
}

/// Cap on retained freshness samples; beyond it only the counter advances so
/// unbounded runs cannot grow memory without limit.
const FRESHNESS_SAMPLE_CAP: usize = 1 << 20;

/// Durability counters of one engine, surfaced inside [`MetricsSnapshot`].
///
/// Populated by [`crate::HybridDatabase::metrics_snapshot`] from the live WAL
/// when durability is enabled; all-zero for in-memory engines.  The counters
/// accumulate over the engine's lifetime; the batch percentiles describe the
/// full distribution of committers-per-fsync observed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalMetrics {
    /// WAL records appended.
    pub appends: u64,
    /// fsync calls issued by the WAL (commit syncs + segment rotations).
    pub fsyncs: u64,
    /// Bytes written to WAL segment files.
    pub bytes_written: u64,
    /// Commits acknowledged through a durability sync.
    pub synced_commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Automatic checkpoints that failed (the WAL keeps the records, so a
    /// failure costs disk space, not durability).
    pub checkpoint_failures: u64,
    /// Median group-commit batch size (committers per fsync).
    pub group_batch_p50: u64,
    /// 90th percentile group-commit batch size.
    pub group_batch_p90: u64,
    /// 99th percentile group-commit batch size.
    pub group_batch_p99: u64,
    /// Largest group-commit batch observed.
    pub group_batch_max: u64,
    /// Highest LSN assigned.
    pub last_lsn: u64,
    /// Highest LSN known durable.
    pub durable_lsn: u64,
}

impl WalMetrics {
    /// Mean committers per fsync (0 when no fsync has happened).
    pub fn commits_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            return 0.0;
        }
        self.synced_commits as f64 / self.fsyncs as f64
    }
}

/// Per-shard slice of the write-path counters, surfaced inside
/// [`MetricsSnapshot::per_shard`].
///
/// Commit and lock-wait counters come from [`EngineMetrics`] (a commit
/// touching several shards counts once on each); the WAL counters are filled
/// in by [`crate::HybridDatabase::metrics_snapshot`] from that shard's own
/// stream and stay zero on in-memory engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardBreakdown {
    /// Commits that wrote to this shard.
    pub commits: u64,
    /// Write-lock acquisitions on this shard's lock table.
    pub lock_waits: u64,
    /// Real nanoseconds those acquisitions took (queueing included).
    pub lock_wait_nanos: u64,
    /// WAL records appended to this shard's stream.
    pub wal_appends: u64,
    /// fsyncs issued on this shard's stream.
    pub wal_fsyncs: u64,
}

impl ShardBreakdown {
    /// Mean lock acquisition time on this shard in nanoseconds.
    pub fn mean_lock_wait_nanos(&self) -> f64 {
        if self.lock_waits == 0 {
            return 0.0;
        }
        self.lock_wait_nanos as f64 / self.lock_waits as f64
    }
}

/// Classification of work for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Online transaction statements.
    Oltp,
    /// Standalone analytical queries.
    Olap,
    /// Hybrid transactions (online transaction with an embedded real-time query).
    Hybrid,
    /// Bulk data loading (not charged to any experiment).
    Load,
}

impl WorkClass {
    fn index(self) -> usize {
        match self {
            WorkClass::Oltp => 0,
            WorkClass::Olap => 1,
            WorkClass::Hybrid => 2,
            WorkClass::Load => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkClass::Oltp => "oltp",
            WorkClass::Olap => "olap",
            WorkClass::Hybrid => "hybrid",
            WorkClass::Load => "load",
        }
    }
}

/// Atomic counters maintained by the engine.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    busy_nanos: [AtomicU64; 4],
    queue_wait_nanos: [AtomicU64; 4],
    statements: [AtomicU64; 4],
    commits: AtomicU64,
    aborts: AtomicU64,
    row_rows_scanned: AtomicU64,
    col_rows_scanned: AtomicU64,
    chunks_scanned: AtomicU64,
    chunks_pruned_zonemap: AtomicU64,
    rows_pruned_encoded: AtomicU64,
    chunks_compacted: AtomicU64,
    query_batches: AtomicU64,
    buffer_misses: AtomicU64,
    replication_applied: AtomicU64,
    replication_errors: AtomicU64,
    distributed_commits: AtomicU64,
    freshness_observations: AtomicU64,
    freshness_timeouts: AtomicU64,
    freshness_samples: Mutex<Vec<FreshnessSample>>,
    lock_waits: AtomicU64,
    lock_wait_nanos: AtomicU64,
    /// Lifecycle-stage latency histograms, populated only while tracing is
    /// enabled (one mutex hold per commit/operation, not per stage).
    stage: Mutex<StageBreakdown>,
    /// Per-shard counters, sized by [`EngineMetrics::with_shards`]; empty
    /// vectors (the [`Default`]) disable the per-shard breakdown.
    shard_commits: Vec<AtomicU64>,
    shard_lock_waits: Vec<AtomicU64>,
    shard_lock_wait_nanos: Vec<AtomicU64>,
}

/// A point-in-time copy of [`EngineMetrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Simulated service nanoseconds, per work class `[oltp, olap, hybrid, load]`.
    pub busy_nanos: [u64; 4],
    /// Real nanoseconds spent queueing for node workers, per work class.
    pub queue_wait_nanos: [u64; 4],
    /// Statements executed, per work class.
    pub statements: [u64; 4],
    /// Transactions committed through the engine.
    pub commits: u64,
    /// Transactions aborted through the engine.
    pub aborts: u64,
    /// Physical rows scanned from row stores.
    pub row_rows_scanned: u64,
    /// Physical rows scanned from column stores.
    pub col_rows_scanned: u64,
    /// Column-store chunks whose rows were actually scanned.
    pub chunks_scanned: u64,
    /// Column-store chunks skipped because their zone maps (min/max + live
    /// counts) proved no row could match the scan predicate.
    pub chunks_pruned_zonemap: u64,
    /// Always 0: kept only because `perf/src/layers.rs` still reads it.
    pub chunks_pruned_filter: u64,
    /// Live rows in surviving compressed main-tier chunks that predicate
    /// evaluation on the encoded columns deselected before decoding.
    pub rows_pruned_encoded: u64,
    /// Delta chunks the background compactor sealed into the compressed main
    /// tier.
    pub chunks_compacted: u64,
    /// Column batches streamed through the vectorized query executor.
    pub query_batches: u64,
    /// Buffer-pool page misses.
    pub buffer_misses: u64,
    /// Replication log records applied to columnar replicas.
    pub replication_applied: u64,
    /// Replication apply attempts that failed (the records are retained in
    /// the log and retried; a non-zero value means the replica fell behind).
    pub replication_errors: u64,
    /// Commits that required two-phase commit across partitions.
    pub distributed_commits: u64,
    /// Freshness observations recorded by analytical reads.
    pub freshness_observations: u64,
    /// Freshness-bounded analytical reads that gave up waiting for the
    /// replica and failed with a timeout — a key SLO health signal: any
    /// growth means the replication pipeline cannot hold the configured
    /// staleness bound.
    pub freshness_timeouts: u64,
    /// Durability counters (all-zero for in-memory engines; see
    /// [`WalMetrics`]).  On a sharded engine these are aggregated across
    /// every shard's WAL stream.
    pub wal: WalMetrics,
    /// Number of hash-partitioned storage shards the engine runs with
    /// (filled in by [`crate::HybridDatabase::metrics_snapshot`]).
    pub shards: u64,
    /// Bytes currently resident across every columnar replica: encoded main
    /// chunks plus the plain delta tails.  A gauge filled in by
    /// [`crate::HybridDatabase::metrics_snapshot`], not a counter.
    pub col_bytes_resident: u64,
    /// Bytes the same columnar data would occupy with every tier unencoded
    /// (gauge, filled like [`MetricsSnapshot::col_bytes_resident`]).
    pub col_bytes_plain: u64,
    /// Write-lock acquisitions across every shard's lock table.
    pub lock_waits: u64,
    /// Real nanoseconds those acquisitions took.
    pub lock_wait_nanos: u64,
    /// Per-lifecycle-stage latency histograms (empty unless the engine ran
    /// with [`crate::EngineConfig::tracing`] enabled).
    pub stages: StageBreakdown,
    /// Per-shard write-path counters, in shard order.  Empty when the engine
    /// metrics were not sized for a shard breakdown.
    pub per_shard: Vec<ShardBreakdown>,
}

impl MetricsSnapshot {
    /// Total simulated busy time across all classes.
    pub fn total_busy_nanos(&self) -> u64 {
        self.busy_nanos.iter().sum()
    }

    /// Total queue wait across all classes.
    pub fn total_queue_wait_nanos(&self) -> u64 {
        self.queue_wait_nanos.iter().sum()
    }

    /// Columnar compression ratio: plain bytes per resident byte (1.0 when
    /// nothing is stored or nothing is compressed).
    pub fn col_compression_ratio(&self) -> f64 {
        if self.col_bytes_resident == 0 {
            return 1.0;
        }
        self.col_bytes_plain as f64 / self.col_bytes_resident as f64
    }

    /// Difference between two snapshots (`self - earlier`), element-wise.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for i in 0..4 {
            out.busy_nanos[i] = self.busy_nanos[i].saturating_sub(earlier.busy_nanos[i]);
            out.queue_wait_nanos[i] =
                self.queue_wait_nanos[i].saturating_sub(earlier.queue_wait_nanos[i]);
            out.statements[i] = self.statements[i].saturating_sub(earlier.statements[i]);
        }
        out.commits = self.commits.saturating_sub(earlier.commits);
        out.aborts = self.aborts.saturating_sub(earlier.aborts);
        out.row_rows_scanned = self
            .row_rows_scanned
            .saturating_sub(earlier.row_rows_scanned);
        out.col_rows_scanned = self
            .col_rows_scanned
            .saturating_sub(earlier.col_rows_scanned);
        out.chunks_scanned = self.chunks_scanned.saturating_sub(earlier.chunks_scanned);
        out.chunks_pruned_zonemap = self
            .chunks_pruned_zonemap
            .saturating_sub(earlier.chunks_pruned_zonemap);
        out.rows_pruned_encoded = self
            .rows_pruned_encoded
            .saturating_sub(earlier.rows_pruned_encoded);
        out.chunks_compacted = self
            .chunks_compacted
            .saturating_sub(earlier.chunks_compacted);
        out.query_batches = self.query_batches.saturating_sub(earlier.query_batches);
        out.buffer_misses = self.buffer_misses.saturating_sub(earlier.buffer_misses);
        out.replication_applied = self
            .replication_applied
            .saturating_sub(earlier.replication_applied);
        out.replication_errors = self
            .replication_errors
            .saturating_sub(earlier.replication_errors);
        out.freshness_observations = self
            .freshness_observations
            .saturating_sub(earlier.freshness_observations);
        out.freshness_timeouts = self
            .freshness_timeouts
            .saturating_sub(earlier.freshness_timeouts);
        out.distributed_commits = self
            .distributed_commits
            .saturating_sub(earlier.distributed_commits);
        out.lock_waits = self.lock_waits.saturating_sub(earlier.lock_waits);
        out.lock_wait_nanos = self.lock_wait_nanos.saturating_sub(earlier.lock_wait_nanos);
        out.stages = self.stages.since(&earlier.stages);
        out.per_shard = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, now)| {
                let then = earlier.per_shard.get(i).copied().unwrap_or_default();
                ShardBreakdown {
                    commits: now.commits.saturating_sub(then.commits),
                    lock_waits: now.lock_waits.saturating_sub(then.lock_waits),
                    lock_wait_nanos: now.lock_wait_nanos.saturating_sub(then.lock_wait_nanos),
                    wal_appends: now.wal_appends.saturating_sub(then.wal_appends),
                    wal_fsyncs: now.wal_fsyncs.saturating_sub(then.wal_fsyncs),
                }
            })
            .collect();
        // WAL counters subtract; the percentiles and LSN watermarks are
        // lifetime values, so the newer snapshot's are carried over, as are
        // the resident-bytes gauges (a delta of gauges is meaningless).
        out.shards = self.shards;
        out.col_bytes_resident = self.col_bytes_resident;
        out.col_bytes_plain = self.col_bytes_plain;
        out.wal = self.wal;
        out.wal.appends = self.wal.appends.saturating_sub(earlier.wal.appends);
        out.wal.fsyncs = self.wal.fsyncs.saturating_sub(earlier.wal.fsyncs);
        out.wal.bytes_written = self
            .wal
            .bytes_written
            .saturating_sub(earlier.wal.bytes_written);
        out.wal.synced_commits = self
            .wal
            .synced_commits
            .saturating_sub(earlier.wal.synced_commits);
        out.wal.checkpoints = self.wal.checkpoints.saturating_sub(earlier.wal.checkpoints);
        out.wal.checkpoint_failures = self
            .wal
            .checkpoint_failures
            .saturating_sub(earlier.wal.checkpoint_failures);
        out
    }
}

impl EngineMetrics {
    /// Create zeroed metrics without a per-shard breakdown.
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Create zeroed metrics sized for a per-shard breakdown of `shards`
    /// write-path counters.
    pub fn with_shards(shards: usize) -> EngineMetrics {
        EngineMetrics {
            shard_commits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_lock_waits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_lock_wait_nanos: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ..EngineMetrics::default()
        }
    }

    /// Record simulated service time.
    pub fn add_busy(&self, class: WorkClass, nanos: u64) {
        self.busy_nanos[class.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record real queue wait time.
    pub fn add_queue_wait(&self, class: WorkClass, nanos: u64) {
        self.queue_wait_nanos[class.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one executed statement.
    pub fn add_statement(&self, class: WorkClass) {
        self.statements[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a commit.
    pub fn add_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an abort.
    pub fn add_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record rows scanned from a row store.
    pub fn add_row_rows_scanned(&self, rows: u64) {
        self.row_rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record rows scanned from a column store.
    pub fn add_col_rows_scanned(&self, rows: u64) {
        self.col_rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record batches streamed through the vectorized executor.
    pub fn add_query_batches(&self, batches: u64) {
        self.query_batches.fetch_add(batches, Ordering::Relaxed);
    }

    /// Record one query's column-store chunk accounting: chunks whose rows
    /// were scanned, chunks skipped by zone maps, and rows deselected by
    /// predicate evaluation on encoded main-tier columns.
    pub fn add_chunk_pruning(&self, scanned: u64, pruned_zonemap: u64, rows_pruned_encoded: u64) {
        if scanned > 0 {
            self.chunks_scanned.fetch_add(scanned, Ordering::Relaxed);
        }
        if pruned_zonemap > 0 {
            self.chunks_pruned_zonemap
                .fetch_add(pruned_zonemap, Ordering::Relaxed);
        }
        if rows_pruned_encoded > 0 {
            self.rows_pruned_encoded
                .fetch_add(rows_pruned_encoded, Ordering::Relaxed);
        }
    }

    /// Record delta chunks sealed into the compressed main tier.
    pub fn add_chunks_compacted(&self, chunks: u64) {
        if chunks > 0 {
            self.chunks_compacted.fetch_add(chunks, Ordering::Relaxed);
        }
    }

    /// Record buffer-pool misses.
    pub fn add_buffer_misses(&self, misses: u64) {
        self.buffer_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Record applied replication records.
    pub fn add_replication_applied(&self, records: u64) {
        self.replication_applied
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Record a failed replication apply attempt.
    pub fn add_replication_error(&self) {
        self.replication_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the freshness one analytical read observed at its start.
    ///
    /// Samples beyond [`FRESHNESS_SAMPLE_CAP`] advance the observation
    /// counter but are not retained until a consumer drains the store with
    /// [`EngineMetrics::take_freshness_samples`].
    pub fn record_freshness(&self, sample: FreshnessSample) {
        self.freshness_observations.fetch_add(1, Ordering::Relaxed);
        let mut samples = self.freshness_samples.lock();
        if samples.len() < FRESHNESS_SAMPLE_CAP {
            samples.push(sample);
        }
    }

    /// Drain and return the retained freshness samples.
    ///
    /// The benchmark driver drains once when a run starts (discarding
    /// leftovers from earlier runs on the same database), once when the
    /// warm-up ends (so the distribution covers the same window as the
    /// latency summaries), and once at the end to collect the run's samples —
    /// which also keeps long-lived databases from ever pinning the sample cap.
    pub fn take_freshness_samples(&self) -> Vec<FreshnessSample> {
        std::mem::take(&mut *self.freshness_samples.lock())
    }

    /// Record a freshness-bounded analytical read that timed out waiting for
    /// the replica to satisfy its staleness bound.
    pub fn add_freshness_timeout(&self) {
        self.freshness_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a two-phase (multi-partition) commit.
    pub fn add_distributed_commit(&self) {
        self.distributed_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one write-lock acquisition on `shard` that took `nanos`.
    pub fn add_lock_wait(&self, shard: usize, nanos: u64) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(counter) = self.shard_lock_waits.get(shard) {
            counter.fetch_add(1, Ordering::Relaxed);
            self.shard_lock_wait_nanos[shard].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Count a commit against every shard it wrote to.
    pub fn add_shard_commits(&self, shards: &[usize]) {
        for &shard in shards {
            if let Some(counter) = self.shard_commits.get(shard) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record one duration against a lifecycle stage's histogram.
    pub fn record_stage(&self, category: SpanCategory, nanos: u64) {
        self.stage.lock().record(category, nanos);
    }

    /// Record several stage durations under one lock hold (the commit path
    /// batches its whole breakdown into a single call).
    pub fn record_stages(&self, durations: &[(SpanCategory, u64)]) {
        let mut stage = self.stage.lock();
        for &(category, nanos) in durations {
            stage.record(category, nanos);
        }
    }

    /// Copy of the stage-latency breakdown recorded so far.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        self.stage.lock().clone()
    }

    /// Take a snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let read = |arr: &[AtomicU64; 4]| {
            [
                arr[0].load(Ordering::Relaxed),
                arr[1].load(Ordering::Relaxed),
                arr[2].load(Ordering::Relaxed),
                arr[3].load(Ordering::Relaxed),
            ]
        };
        MetricsSnapshot {
            busy_nanos: read(&self.busy_nanos),
            queue_wait_nanos: read(&self.queue_wait_nanos),
            statements: read(&self.statements),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            row_rows_scanned: self.row_rows_scanned.load(Ordering::Relaxed),
            col_rows_scanned: self.col_rows_scanned.load(Ordering::Relaxed),
            chunks_scanned: self.chunks_scanned.load(Ordering::Relaxed),
            chunks_pruned_zonemap: self.chunks_pruned_zonemap.load(Ordering::Relaxed),
            chunks_pruned_filter: 0,
            rows_pruned_encoded: self.rows_pruned_encoded.load(Ordering::Relaxed),
            chunks_compacted: self.chunks_compacted.load(Ordering::Relaxed),
            query_batches: self.query_batches.load(Ordering::Relaxed),
            buffer_misses: self.buffer_misses.load(Ordering::Relaxed),
            replication_applied: self.replication_applied.load(Ordering::Relaxed),
            replication_errors: self.replication_errors.load(Ordering::Relaxed),
            distributed_commits: self.distributed_commits.load(Ordering::Relaxed),
            freshness_observations: self.freshness_observations.load(Ordering::Relaxed),
            freshness_timeouts: self.freshness_timeouts.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Ordering::Relaxed),
            stages: self.stage.lock().clone(),
            per_shard: self
                .shard_commits
                .iter()
                .zip(&self.shard_lock_waits)
                .zip(&self.shard_lock_wait_nanos)
                .map(|((commits, waits), wait_nanos)| ShardBreakdown {
                    commits: commits.load(Ordering::Relaxed),
                    lock_waits: waits.load(Ordering::Relaxed),
                    lock_wait_nanos: wait_nanos.load(Ordering::Relaxed),
                    // Per-shard WAL counters live on the database's streams;
                    // `HybridDatabase::metrics_snapshot` fills them in.
                    wal_appends: 0,
                    wal_fsyncs: 0,
                })
                .collect(),
            // The WAL, shard layout and columnar footprint live on the
            // database, not here; `HybridDatabase::metrics_snapshot` fills
            // these in.
            wal: WalMetrics::default(),
            shards: 0,
            col_bytes_resident: 0,
            col_bytes_plain: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let m = EngineMetrics::new();
        m.add_busy(WorkClass::Oltp, 100);
        m.add_busy(WorkClass::Olap, 200);
        m.add_busy(WorkClass::Hybrid, 50);
        m.add_statement(WorkClass::Oltp);
        m.add_statement(WorkClass::Oltp);
        m.add_commit();
        let s = m.snapshot();
        assert_eq!(s.busy_nanos[0], 100);
        assert_eq!(s.busy_nanos[1], 200);
        assert_eq!(s.busy_nanos[2], 50);
        assert_eq!(s.statements[0], 2);
        assert_eq!(s.total_busy_nanos(), 350);
        assert_eq!(s.commits, 1);
    }

    #[test]
    fn delta_since_subtracts() {
        let m = EngineMetrics::new();
        m.add_busy(WorkClass::Oltp, 100);
        m.add_commit();
        let early = m.snapshot();
        m.add_busy(WorkClass::Oltp, 40);
        m.add_commit();
        m.add_buffer_misses(7);
        let late = m.snapshot();
        let d = late.delta_since(&early);
        assert_eq!(d.busy_nanos[0], 40);
        assert_eq!(d.commits, 1);
        assert_eq!(d.buffer_misses, 7);
    }

    #[test]
    fn freshness_samples_are_recorded_and_drained() {
        let m = EngineMetrics::new();
        m.record_freshness(FreshnessSample {
            lag_records: 3,
            lag_commit_ts: 9,
        });
        let first = m.take_freshness_samples();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].lag_records, 3);
        m.record_freshness(FreshnessSample {
            lag_records: 7,
            lag_commit_ts: 21,
        });
        let second = m.take_freshness_samples();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].lag_records, 7);
        assert!(m.take_freshness_samples().is_empty());
        assert_eq!(
            m.snapshot().freshness_observations,
            2,
            "counter is lifetime"
        );
    }

    #[test]
    fn freshness_timeouts_are_counted_and_delta() {
        let m = EngineMetrics::new();
        m.add_freshness_timeout();
        let early = m.snapshot();
        m.add_freshness_timeout();
        m.add_freshness_timeout();
        let d = m.snapshot().delta_since(&early);
        assert_eq!(early.freshness_timeouts, 1);
        assert_eq!(d.freshness_timeouts, 2);
    }

    #[test]
    fn replication_errors_are_counted() {
        let m = EngineMetrics::new();
        m.add_replication_error();
        m.add_replication_error();
        let early = m.snapshot();
        m.add_replication_error();
        let d = m.snapshot().delta_since(&early);
        assert_eq!(early.replication_errors, 2);
        assert_eq!(d.replication_errors, 1);
    }

    #[test]
    fn per_shard_counters_accumulate_and_delta() {
        let m = EngineMetrics::with_shards(2);
        m.add_shard_commits(&[0, 1]);
        m.add_shard_commits(&[1]);
        m.add_lock_wait(0, 100);
        m.add_lock_wait(1, 50);
        m.add_lock_wait(9, 25); // out of range: global only, never panics
        let early = m.snapshot();
        assert_eq!(early.per_shard.len(), 2);
        assert_eq!(early.per_shard[0].commits, 1);
        assert_eq!(early.per_shard[1].commits, 2);
        assert_eq!(early.per_shard[0].lock_wait_nanos, 100);
        assert_eq!(early.lock_waits, 3);
        assert_eq!(early.lock_wait_nanos, 175);
        assert_eq!(early.per_shard[0].mean_lock_wait_nanos(), 100.0);
        m.add_shard_commits(&[0]);
        m.add_lock_wait(1, 30);
        let d = m.snapshot().delta_since(&early);
        assert_eq!(d.per_shard[0].commits, 1);
        assert_eq!(d.per_shard[1].commits, 0);
        assert_eq!(d.per_shard[1].lock_wait_nanos, 30);
        assert_eq!(d.lock_waits, 1);
    }

    #[test]
    fn unsized_metrics_have_no_shard_breakdown() {
        let m = EngineMetrics::new();
        m.add_shard_commits(&[0]);
        m.add_lock_wait(0, 10);
        let s = m.snapshot();
        assert!(s.per_shard.is_empty());
        assert_eq!(s.lock_waits, 1, "global counters still work");
    }

    #[test]
    fn stage_histograms_snapshot_and_delta() {
        let m = EngineMetrics::new();
        m.record_stage(SpanCategory::Fsync, 1_000);
        m.record_stages(&[(SpanCategory::Lock, 10), (SpanCategory::Lock, 20)]);
        let early = m.snapshot();
        assert_eq!(early.stages.get(SpanCategory::Lock).count(), 2);
        m.record_stage(SpanCategory::Lock, 30);
        let d = m.snapshot().delta_since(&early);
        assert_eq!(d.stages.get(SpanCategory::Lock).count(), 1);
        assert_eq!(d.stages.get(SpanCategory::Fsync).count(), 0);
        assert!(!m.stage_breakdown().is_empty());
    }

    #[test]
    fn work_class_names() {
        assert_eq!(WorkClass::Oltp.name(), "oltp");
        assert_eq!(WorkClass::Olap.name(), "olap");
        assert_eq!(WorkClass::Hybrid.name(), "hybrid");
        assert_eq!(WorkClass::Load.name(), "load");
    }
}
