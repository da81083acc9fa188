//! Engine-side metrics.
//!
//! The experiment harness reads these counters to compute the quantities the
//! paper reports beyond plain latency/throughput: the normalized lock overhead
//! of Figure 4, scan volumes, buffer-pool churn and replication lag.

use olxp_trace::{SpanCategory, StageBreakdown};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Freshness observed by one analytical read at the moment it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreshnessSample {
    /// Committed mutation records the replica trailed the row store by.
    pub lag_records: u64,
}

/// Cap on retained freshness samples; beyond it only the counter advances so
/// unbounded runs cannot grow memory without limit.
const FRESHNESS_SAMPLE_CAP: usize = 1 << 20;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
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

/// Whether a delta between two snapshots subtracts a metric or carries the
/// newer value over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Accumulates over the engine's lifetime; exported with a `_total`
    /// suffix and subtracted by [`MetricsSnapshot::delta_since`].
    Counter,
    /// Instantaneous value, lifetime percentile or watermark: a delta of two
    /// is meaningless, so [`MetricsSnapshot::delta_since`] keeps the newer.
    Gauge,
}

/// One exported `u64` of [`MetricsSnapshot`], as declared in the table below.
pub struct MetricDef {
    /// `/snapshot` key.
    pub key: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Prometheus family (counters are exported as `<family>_total`).
    /// Entries of one family are adjacent in [`METRICS`] and differ in labels.
    pub family: &'static str,
    /// Prometheus labels of this sample.
    pub labels: &'static [(&'static str, &'static str)],
    /// `# HELP` text, also the rustdoc of the snapshot field.
    pub help: &'static str,
    read: fn(&MetricsSnapshot) -> u64,
    slot: fn(&mut MetricsSnapshot) -> &mut u64,
}

impl MetricDef {
    /// This metric's value in `snapshot`.
    pub fn value(&self, snapshot: &MetricsSnapshot) -> u64 {
        (self.read)(snapshot)
    }
}

/// [`METRICS`] split into Prometheus families: each item is the adjacent
/// entries sharing a family name, whose first member supplies kind and help.
pub fn metric_families() -> impl Iterator<Item = &'static [MetricDef]> {
    let mut rest = METRICS;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let len = rest.iter().take_while(|d| d.family == first.family).count();
        let (family, tail) = rest.split_at(len);
        rest = tail;
        Some(family)
    })
}

/// The one declaration of every engine metric.  Each line yields the atomic
/// in [`EngineMetrics`] (sections `counters` and `per_class`), the public
/// field of [`MetricsSnapshot`] or [`WalMetrics`], its load in
/// [`EngineMetrics::snapshot`] and its [`METRICS`] entry, which
/// [`MetricsSnapshot::delta_since`], `/metrics` and `/snapshot` iterate.  A
/// `[inc name]` / `[add name]` after a counter also generates its recorder;
/// counters without one are recorded by the hand-written methods below.
macro_rules! engine_metrics {
    (@labels { $($key:ident = $value:literal),* }) => {
        &[$((stringify!($key), $value)),*]
    };
    (@def $key:expr, $kind:ident, $family:literal, $labels:tt, $help:literal, $($path:tt)+) => {
        MetricDef {
            key: $key,
            kind: MetricKind::$kind,
            family: $family,
            labels: engine_metrics!(@labels $labels),
            help: $help,
            read: |s| s.$($path)+,
            slot: |s| &mut s.$($path)+,
        }
    };
    (@per_class $field:ident, $index:tt, $class:tt, $family:literal, $help:literal) => {
        engine_metrics!(@def concat!($class, "_", stringify!($field)), Counter, $family,
            { class = $class }, $help, $field[$index])
    };
    (@recorder inc $name:ident $field:ident) => {
        #[doc = concat!("Count one towards `", stringify!($field), "`.")]
        pub fn $name(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@recorder add $name:ident $field:ident) => {
        #[doc = concat!("Add `n` to `", stringify!($field), "`.")]
        pub fn $name(&self, n: u64) {
            self.$field.fetch_add(n, Ordering::Relaxed);
        }
    };
    (
        counters { $(
            $cfield:ident $([$form:ident $recorder:ident])? => $cfamily:literal $clabels:tt
                $chelp:literal;
        )* }
        per_class { $( $pfield:ident => $pfamily:literal $phelp:literal; )* }
        gauges { $( $gfield:ident => $gfamily:literal $glabels:tt $ghelp:literal; )* }
        wal { $(
            $wkind:ident $wfield:ident $wkey:literal => $wfamily:literal $wlabels:tt
                $whelp:literal;
        )* }
    ) => {
        /// Atomic counters maintained by the engine.
        #[derive(Debug, Default)]
        pub struct EngineMetrics {
            $( $pfield: [AtomicU64; 4], )*
            $( $cfield: AtomicU64, )*
            freshness_samples: Mutex<Vec<FreshnessSample>>,
            /// Lifecycle-stage latency histograms, populated only while
            /// tracing is enabled (one mutex hold per commit/operation, not
            /// per stage).
            stage: Mutex<StageBreakdown>,
            /// Per-shard counters, sized by [`EngineMetrics::with_shards`];
            /// empty vectors (the [`Default`]) disable the per-shard breakdown.
            shard_commits: Vec<AtomicU64>,
            shard_lock_waits: Vec<AtomicU64>,
            shard_lock_wait_nanos: Vec<AtomicU64>,
        }

        /// Durability counters of one engine, surfaced inside
        /// [`MetricsSnapshot`].
        ///
        /// Populated by [`crate::HybridDatabase::metrics_snapshot`] from the
        /// live WAL when durability is enabled (aggregated across every
        /// shard's stream); all-zero for in-memory engines.  The counters
        /// accumulate over the engine's lifetime; the batch percentiles
        /// describe the full distribution of committers-per-fsync so far.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct WalMetrics {
            $( #[doc = $whelp] pub $wfield: u64, )*
        }

        /// A point-in-time copy of [`EngineMetrics`], completed by
        /// [`crate::HybridDatabase::metrics_snapshot`] with what lives on the
        /// database: the gauges, [`WalMetrics`] and the per-shard WAL counts.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $(
                #[doc = $phelp]
                #[doc = "  Indexed `[oltp, olap, hybrid, load]`."]
                pub $pfield: [u64; 4],
            )*
            $( #[doc = $chelp] pub $cfield: u64, )*
            /// Always 0: kept only because `perf/src/layers.rs` still reads it.
            pub chunks_pruned_filter: u64,
            $( #[doc = $ghelp] pub $gfield: u64, )*
            /// Durability counters.
            pub wal: WalMetrics,
            /// Per-lifecycle-stage latency histograms (empty unless the engine
            /// ran with [`crate::EngineConfig::tracing`] enabled).
            pub stages: StageBreakdown,
            /// Per-shard write-path counters, in shard order.  Empty when the
            /// engine metrics were not sized for a shard breakdown.
            pub per_shard: Vec<ShardBreakdown>,
        }

        impl EngineMetrics {
            $($( engine_metrics!(@recorder $form $recorder $cfield); )?)*

            /// Take a snapshot of every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $cfield: self.$cfield.load(Ordering::Relaxed), )*
                    $( $pfield: std::array::from_fn(|class| {
                        self.$pfield[class].load(Ordering::Relaxed)
                    }), )*
                    chunks_pruned_filter: 0,
                    $( $gfield: 0, )*
                    wal: WalMetrics::default(),
                    stages: self.stage.lock().clone(),
                    per_shard: self.shard_breakdowns(),
                }
            }

            /// Bump the atomic behind `METRICS[i]` by `i + 1`, for every atomic
            /// (they lead the list, in declaration order); returns how many.
            #[cfg(test)]
            fn bump_each(&self) -> usize {
                let mut bumped = 0;
                let mut bump = |counter: &AtomicU64| {
                    bumped += 1;
                    counter.fetch_add(bumped as u64, Ordering::Relaxed);
                };
                $( bump(&self.$cfield); )*
                $( self.$pfield.iter().for_each(&mut bump); )*
                bumped
            }
        }

        /// Every exported metric, in `/metrics` and `/snapshot` order.
        pub static METRICS: &[MetricDef] = &[
            $( engine_metrics!(@def stringify!($cfield), Counter, $cfamily, $clabels, $chelp,
                $cfield), )*
            $(
                engine_metrics!(@per_class $pfield, 0, "oltp", $pfamily, $phelp),
                engine_metrics!(@per_class $pfield, 1, "olap", $pfamily, $phelp),
                engine_metrics!(@per_class $pfield, 2, "hybrid", $pfamily, $phelp),
                engine_metrics!(@per_class $pfield, 3, "load", $pfamily, $phelp),
            )*
            $( engine_metrics!(@def stringify!($gfield), Gauge, $gfamily, $glabels, $ghelp,
                $gfield), )*
            $( engine_metrics!(@def $wkey, $wkind, $wfamily, $wlabels, $whelp, wal.$wfield), )*
        ];
    };
}

engine_metrics! {
    counters {
        commits [inc add_commit] => "olxp_commits" {}
            "Transactions committed through the engine.";
        aborts [inc add_abort] => "olxp_aborts" {}
            "Transactions aborted through the engine.";
        row_rows_scanned [add add_row_rows_scanned] => "olxp_row_rows_scanned" {}
            "Physical rows scanned from row stores.";
        col_rows_scanned [add add_col_rows_scanned] => "olxp_col_rows_scanned" {}
            "Physical rows scanned from column stores.";
        chunks_scanned => "olxp_chunks_scanned" {}
            "Column-store chunks whose rows were actually scanned.";
        chunks_pruned_zonemap => "olxp_chunks_pruned" { reason = "zonemap" }
            "Column-store chunks skipped because their zone maps proved no row could match the scan predicate.";
        rows_pruned_encoded => "olxp_rows_pruned_encoded" {}
            "Live rows of compressed main-tier chunks that predicates evaluated on the encoded columns deselected before decoding.";
        chunks_compacted [add add_chunks_compacted] => "olxp_chunks_compacted" {}
            "Delta chunks the background compactor sealed into the compressed main tier.";
        query_batches [add add_query_batches] => "olxp_query_batches" {}
            "Column batches streamed through the vectorized query executor.";
        buffer_misses [add add_buffer_misses] => "olxp_buffer_misses" {}
            "Buffer-pool page misses.";
        replication_applied [add add_replication_applied] => "olxp_replication_applied_records" {}
            "Replication log records applied to columnar replicas.";
        replication_errors [inc add_replication_error] => "olxp_replication_errors" {}
            "Failed replication apply attempts (the records stay in the log and are retried; non-zero means the replica fell behind).";
        distributed_commits [inc add_distributed_commit] => "olxp_distributed_commits" {}
            "Commits that required two-phase commit across partitions.";
        freshness_observations => "olxp_freshness_observations" {}
            "Freshness observations recorded by analytical reads.";
        freshness_timeouts [inc add_freshness_timeout] => "olxp_freshness_timeouts" {}
            "Freshness-bounded analytical reads that timed out waiting for the replica: any growth means replication cannot hold the staleness bound.";
        lock_waits => "olxp_lock_waits" {}
            "Write-lock acquisitions across every shard's lock table.";
        lock_wait_nanos => "olxp_lock_wait_nanos" {}
            "Real nanoseconds write-lock acquisitions took, queueing included.";
    }
    per_class {
        busy_nanos => "olxp_busy_nanos" "Simulated service nanoseconds, by work class.";
        queue_wait_nanos => "olxp_queue_wait_nanos"
            "Real nanoseconds spent queueing for node workers, by work class.";
        statements => "olxp_statements" "Statements executed, by work class.";
    }
    gauges {
        shards => "olxp_shards" {} "Hash-partitioned storage shards the engine runs with.";
        col_bytes_resident => "olxp_columnar_bytes" { tier = "resident" }
            "Columnar replica bytes: resident (encoded main chunks plus plain delta tails) vs plain (every tier unencoded).";
        col_bytes_plain => "olxp_columnar_bytes" { tier = "plain" }
            "Bytes the same columnar data would occupy with every tier unencoded.";
    }
    wal {
        Counter appends "wal_appends" => "olxp_wal_appends" {} "WAL records appended.";
        Counter fsyncs "wal_fsyncs" => "olxp_wal_fsyncs" {}
            "fsync calls issued by the WAL (commit syncs + segment rotations).";
        Counter bytes_written "wal_bytes_written" => "olxp_wal_written_bytes" {}
            "Bytes written to WAL segment files.";
        Counter synced_commits "wal_synced_commits" => "olxp_wal_synced_commits" {}
            "Commits acknowledged through a durability sync.";
        Counter checkpoints "checkpoints" => "olxp_checkpoints" {} "Checkpoints taken.";
        Counter checkpoint_failures "checkpoint_failures" => "olxp_checkpoint_failures" {}
            "Automatic checkpoints that failed (the WAL keeps the records: costs disk space, not durability).";
        Gauge group_batch_p50 "wal_group_batch_p50" => "olxp_wal_group_batch" { quantile = "0.5" }
            "Lifetime group-commit batch size (committers per fsync): median, p90, p99 and largest.";
        Gauge group_batch_p90 "wal_group_batch_p90" => "olxp_wal_group_batch" { quantile = "0.9" }
            "90th percentile group-commit batch size.";
        Gauge group_batch_p99 "wal_group_batch_p99" => "olxp_wal_group_batch" { quantile = "0.99" }
            "99th percentile group-commit batch size.";
        Gauge group_batch_max "wal_group_batch_max" => "olxp_wal_group_batch" { quantile = "1" }
            "Largest group-commit batch observed.";
        Gauge last_lsn "wal_last_lsn" => "olxp_wal_last_lsn" {} "Highest LSN assigned.";
        Gauge durable_lsn "wal_durable_lsn" => "olxp_wal_durable_lsn" {}
            "Highest LSN known durable.";
    }
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

    /// Difference between two snapshots (`self - earlier`): counters, stage
    /// histograms and per-shard counts subtract; gauges, lifetime percentiles
    /// and LSN watermarks are the newer snapshot's.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            stages: self.stages.since(&earlier.stages),
            per_shard: self.per_shard.clone(),
            ..*self
        };
        for def in METRICS.iter().filter(|d| d.kind == MetricKind::Counter) {
            let slot = (def.slot)(&mut out);
            *slot = slot.saturating_sub(def.value(earlier));
        }
        for (now, then) in out.per_shard.iter_mut().zip(&earlier.per_shard) {
            now.commits = now.commits.saturating_sub(then.commits);
            now.lock_waits = now.lock_waits.saturating_sub(then.lock_waits);
            now.lock_wait_nanos = now.lock_wait_nanos.saturating_sub(then.lock_wait_nanos);
            now.wal_appends = now.wal_appends.saturating_sub(then.wal_appends);
            now.wal_fsyncs = now.wal_fsyncs.saturating_sub(then.wal_fsyncs);
        }
        out
    }
}

/// One key per [`METRICS`] entry, named as in `/snapshot`, plus `per_shard`.
/// Stage histograms are left out: reports carry their quantiles instead.
impl Serialize for MetricsSnapshot {
    fn serialize(&self) -> Value {
        let mut entries: Vec<(String, Value)> = METRICS
            .iter()
            .map(|def| (def.key.to_string(), def.value(self).serialize()))
            .collect();
        entries.push(("per_shard".to_string(), self.per_shard.serialize()));
        Value::Map(entries)
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

    /// Record the freshness one analytical read observed at its start.
    ///
    /// Samples beyond the retention cap (2^20) advance the observation
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
    /// The benchmark driver drains once when the warm-up ends (discarding
    /// leftovers from earlier runs and the warm-up's samples, so the
    /// distribution covers the same window as the latency summaries) and once
    /// at the end to collect the run's samples — which also keeps long-lived
    /// databases from ever pinning the sample cap.
    pub fn take_freshness_samples(&self) -> Vec<FreshnessSample> {
        std::mem::take(&mut *self.freshness_samples.lock())
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

    /// The per-shard counters kept here; the per-shard WAL counts live on the
    /// database's streams and are filled in by
    /// [`crate::HybridDatabase::metrics_snapshot`].
    fn shard_breakdowns(&self) -> Vec<ShardBreakdown> {
        self.shard_commits
            .iter()
            .zip(&self.shard_lock_waits)
            .zip(&self.shard_lock_wait_nanos)
            .map(|((commits, waits), wait_nanos)| ShardBreakdown {
                commits: commits.load(Ordering::Relaxed),
                lock_waits: waits.load(Ordering::Relaxed),
                lock_wait_nanos: wait_nanos.load(Ordering::Relaxed),
                wal_appends: 0,
                wal_fsyncs: 0,
            })
            .collect()
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

    /// `/metrics` series name and rendered label set of a declared metric.
    fn series(def: &MetricDef) -> (String, String) {
        let name = match def.kind {
            MetricKind::Counter => format!("{}_total", def.family),
            MetricKind::Gauge => def.family.to_string(),
        };
        let labels: Vec<String> = def
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        (name, labels.join(","))
    }

    #[test]
    fn every_declared_metric_is_recorded_diffed_and_exported() {
        // Recorded: bumping each atomic shows up in snapshot().
        let metrics = EngineMetrics::new();
        let atomics = metrics.bump_each();
        assert_eq!(atomics, 17 + 3 * 4, "every atomic is declared");
        let snapshot = metrics.snapshot();
        for (i, def) in METRICS[..atomics].iter().enumerate() {
            assert_eq!(
                def.value(&snapshot),
                i as u64 + 1,
                "{} after bumping",
                def.key
            );
        }

        // Diffed: counters subtract, gauges carry the newer value.
        let mut early = MetricsSnapshot::default();
        let mut late = MetricsSnapshot::default();
        for (i, def) in METRICS.iter().enumerate() {
            *(def.slot)(&mut early) = 10;
            *(def.slot)(&mut late) = 100 + i as u64;
        }
        let delta = late.delta_since(&early);
        for (i, def) in METRICS.iter().enumerate() {
            let expected = match def.kind {
                MetricKind::Counter => 90 + i as u64,
                MetricKind::Gauge => 100 + i as u64,
            };
            assert_eq!(def.value(&delta), expected, "{} in a delta", def.key);
        }

        // Exported: one valid, unique series in /metrics (HELP before TYPE,
        // one TYPE per family) and one unique key in /snapshot.
        let db = crate::HybridDatabase::new(crate::EngineConfig::dual_engine()).unwrap();
        let exposition = crate::telemetry::render_prometheus(&db);
        let snapshot_json = crate::telemetry::render_snapshot_json(&db);
        assert!(
            !exposition.contains("olxp_stage_nanos"),
            "stages that recorded nothing are not exported"
        );
        let valid = |name: &str| {
            !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
        };
        for def in METRICS {
            let (name, labels) = series(def);
            assert!(valid(def.family), "family {}", def.family);
            assert!(def.labels.iter().all(|(k, _)| valid(k)), "labels of {name}");
            assert!(!def.help.is_empty(), "{name} has help text");
            let sample = if labels.is_empty() {
                format!("{name} ")
            } else {
                format!("{name}{{{labels}}} ")
            };
            let count = |prefix: &str| exposition.lines().filter(|l| l.starts_with(prefix)).count();
            assert_eq!(count(&sample), 1, "one `{sample}` sample in:\n{exposition}");
            assert_eq!(
                count(&format!("# TYPE {name} ")),
                1,
                "one TYPE line for {name}"
            );
            let help = exposition
                .find(&format!("# HELP {name} "))
                .expect("HELP line");
            let kind = exposition
                .find(&format!("# TYPE {name} "))
                .expect("TYPE line");
            assert!(help < kind, "HELP precedes TYPE for {name}");
            let key = format!("\"{}\":", def.key);
            assert_eq!(
                snapshot_json.matches(&key).count(),
                1,
                "one {key} in {snapshot_json}"
            );
        }
    }

    /// The README's metric reference is this table, one row per family.
    #[test]
    fn readme_metric_reference_matches_the_declarations() {
        let readme = include_str!("../../../README.md");
        let mut expected = String::new();
        for family in metric_families() {
            let first = &family[0];
            let values: Vec<&str> = family
                .iter()
                .flat_map(|d| d.labels)
                .map(|(_, v)| *v)
                .collect();
            let labels = match first.labels.first() {
                Some((key, _)) => format!("`{key}`: {}", values.join(", ")),
                None => "—".to_string(),
            };
            let kind = format!("{:?}", first.kind).to_lowercase();
            let (name, _) = series(first);
            expected.push_str(&format!(
                "| `{name}` | {kind} | {labels} | {} |\n",
                first.help
            ));
        }
        assert!(
            readme.contains(&expected),
            "README.md \"Metric reference\" is out of date; the declared rows are:\n{expected}"
        );
        for family in [
            "olxp_up",
            "olxp_replication_lag_records",
            "olxp_stage_nanos",
        ] {
            assert!(readme.contains(&format!("| `{family}` |")), "{family} row");
        }
    }

    #[test]
    fn freshness_samples_are_recorded_and_drained() {
        let m = EngineMetrics::new();
        m.record_freshness(FreshnessSample { lag_records: 3 });
        let first = m.take_freshness_samples();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].lag_records, 3);
        m.record_freshness(FreshnessSample { lag_records: 7 });
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
