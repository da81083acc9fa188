//! The HTAP database facade.
//!
//! Since the sharding refactor the write path is hash-partitioned into N
//! engine shards.  Each shard owns its own `RowTable` partition of every
//! table, its own lock table (held by the transaction manager), its own
//! replication log + applier feeding the shared columnar replicas, its own
//! segmented WAL stream (`wal-shard<K>-<seq>.seg`) and its own commit gate.
//! The timestamp oracle stays global: it is the single commit-timestamp
//! authority, so snapshots remain consistent across shards.  `shards = 1`
//! is behaviorally identical to the unsharded engine (including WAL file
//! names), which keeps the seed configuration and all existing tests valid.

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::metrics::{EngineMetrics, MetricsSnapshot, WalMetrics};
use crate::model::{Model, Placement};
use crate::session::{CommitCtx, Session};
use crate::slowlog::{SlowQueryLog, SlowTxnLog};
use crate::telemetry::{self, HealthReport, TelemetryPoint, TelemetrySampler, TelemetryState};
use olxp_storage::checkpoint::{load_latest_checkpoint, write_checkpoint};
use olxp_storage::wal::{ReplayedRecord, WalReplay};
use olxp_storage::{
    Catalog, CheckpointData, ColumnTable, Key, MemoryFootprint, MutationOp, ReplicationLog,
    Replicator, Row, RowTable, StorageError, TableCheckpoint, TableSchema, Timestamp, Wal, WalOp,
    WalRecord,
};
use olxp_trace::TelemetryServer;
use olxp_txn::{TransactionManager, WriteOp};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which physical store a standalone analytical query is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticalRoute {
    /// Served by the row store (TiKV-style scan).
    RowStore,
    /// Served by the columnar replicas (TiFlash-style scan).
    ColumnStore,
}

/// The dedicated replication applier thread and its shutdown plumbing.
struct BackgroundApplier {
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// True while a stored background thread has neither exited nor panicked.
fn is_running(handle: Option<&std::thread::JoinHandle<()>>) -> bool {
    handle.is_some_and(|handle| !handle.is_finished())
}

/// The dedicated delta-compactor thread and its shutdown plumbing.
struct BackgroundCompactor {
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Wake-up signal between the writers that grow delta tails (the replication
/// appliers and opportunistic catch-up) and the background compactor.
///
/// A plain `Mutex<bool>` + condvar rather than a queue: the compactor sweeps
/// every table anyway, so all a notification needs to convey is "something
/// was applied since your last sweep".  The flag absorbs notifications that
/// arrive while the compactor is mid-sweep, so work is never missed, and the
/// timed wait bounds staleness if a notification is ever lost.
struct CompactionSignal {
    pending: Mutex<bool>,
    condvar: Condvar,
}

impl CompactionSignal {
    fn new() -> CompactionSignal {
        CompactionSignal {
            pending: Mutex::new(false),
            condvar: Condvar::new(),
        }
    }

    /// Record that delta tails may have grown and wake the compactor.
    fn notify(&self) {
        *self.pending.lock() = true;
        self.condvar.notify_one();
    }

    /// Park until notified (or `timeout`), consuming the pending flag.
    fn wait(&self, timeout: Duration) {
        let mut pending = self.pending.lock();
        if !*pending {
            self.condvar
                .wait_until(&mut pending, std::time::Instant::now() + timeout);
        }
        *pending = false;
    }
}

/// The shard owning `(table, key)` among `shard_count` hash partitions.
///
/// The shard half of [`Placement::of`]: deterministic across processes, so
/// checkpoint rows and WAL records re-route to the same shard on recovery,
/// and tests can predict key placement.
pub fn shard_of(table: &str, key: &Key, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    Placement::of(table, key, shard_count, &[0]).shard
}

/// WAL stream name for one shard.  A single-shard engine keeps the legacy
/// plain `wal` stream so its on-disk layout is byte-identical to the
/// unsharded engine; sharded engines use one `wal-shard<K>` stream each
/// (segment files `wal-shard<K>-<seq>.seg`).
fn wal_stream(shard: usize, shard_count: usize) -> String {
    if shard_count == 1 {
        "wal".to_string()
    } else {
        format!("wal-shard{shard}")
    }
}

/// One hash partition of the engine's write path: a `RowTable` partition per
/// table, a replication log + applier feeding the shared columnar replicas,
/// an optional WAL stream and the commit gate coordinating commits with
/// checkpoints on this shard.
struct Shard {
    row_tables: RwLock<Arc<HashMap<String, Arc<RowTable>>>>,
    replication: Arc<ReplicationLog>,
    replicator: Arc<Mutex<Replicator>>,
    applier: Mutex<Option<BackgroundApplier>>,
    wal: Option<Arc<Wal>>,
    /// Commits hold this for read across [WAL append .. commit marker]; the
    /// checkpointer takes every shard's gate for write to pick a consistent
    /// `(commit_ts, per-shard LSN)` cut with no transaction mid-flight.
    commit_gate: RwLock<()>,
}

/// What crash recovery found and rebuilt when a durable database was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Checkpoint ordering key (sum of the per-shard WAL cuts; 0 when no
    /// checkpoint existed).
    pub checkpoint_lsn: u64,
    /// Commit timestamp the checkpoint snapshot was taken at.
    pub checkpoint_commit_ts: Timestamp,
    /// Rows loaded from the checkpoint.
    pub checkpoint_rows: u64,
    /// WAL records scanned during replay across all shard streams (including
    /// ones the checkpoint already covered).
    pub wal_records_scanned: u64,
    /// Committed transactions replayed from the WAL tails.  A cross-shard
    /// transaction counts once, however many shards it touched.
    pub wal_txns_replayed: u64,
    /// Mutations applied while replaying those transactions.
    pub wal_mutations_replayed: u64,
    /// Bytes of torn WAL tail truncated (a crash mid-write leaves these).
    pub torn_bytes_truncated: u64,
    /// Tables rebuilt (from the checkpoint catalog plus replayed DDL).
    pub tables_recovered: u64,
    /// Replication records re-seeded into the columnar replicas so freshness
    /// watermarks resume correctly.
    pub replication_reseeded: u64,
    /// Cross-shard transactions resolved from an in-doubt prepared state: a
    /// shard held Prepare + mutations without its own Commit marker, and
    /// another shard's Commit marker decided the outcome as committed.
    pub in_doubt_committed: u64,
}

/// An in-process HTAP database instance configured as one of the paper's
/// architectural archetypes.
///
/// The database owns the catalog, the sharded row store, the columnar
/// replicas, the per-shard replication pipelines, the transaction manager,
/// the performance model and the engine metrics.  Benchmark threads interact
/// with it through [`Session`]s obtained from [`HybridDatabase::session`].
///
/// When [`EngineConfig::background_applier`] is set (the default), opening the
/// database spawns one dedicated applier thread per shard that continuously
/// drains the shard's replication log into the columnar replicas — the
/// "background process" behind TiDB's asynchronous log replication.  Each
/// thread parks when its log is empty, wakes on append, and is joined when
/// the last reference to the database is dropped.
/// Shared columnar replica map (see `HybridDatabase::col_tables` for why the
/// container itself is reference-counted).
type SharedColumnTables = Arc<RwLock<Arc<HashMap<String, Arc<ColumnTable>>>>>;

pub struct HybridDatabase {
    config: EngineConfig,
    catalog: Catalog,
    shards: Vec<Shard>,
    /// Shared columnar replicas.  The outer `Arc` lets the background
    /// compactor hold the *container* without holding the database (no
    /// `Arc` cycle), so tables installed after the thread starts are still
    /// picked up on its next sweep.
    col_tables: SharedColumnTables,
    txn_mgr: TransactionManager,
    model: Model,
    metrics: Arc<EngineMetrics>,
    olap_route_counter: AtomicU64,
    commit_counter: AtomicU64,
    /// What recovery rebuilt when this database was opened (durable engines).
    recovery: Mutex<Option<RecoveryReport>>,
    /// WAL records logged since the last checkpoint (drives auto-checkpoints).
    wal_records_since_ckpt: AtomicU64,
    /// Guards against concurrent auto-checkpoints.
    checkpointing: AtomicBool,
    checkpoints_taken: AtomicU64,
    checkpoint_failures: AtomicU64,
    /// Wakes the background compactor when replication grows a delta tail.
    compaction: Arc<CompactionSignal>,
    /// The background delta-compactor thread (when
    /// [`EngineConfig::compression`] is on).
    compactor: Mutex<Option<BackgroundCompactor>>,
    /// Commits slower than [`EngineConfig::slow_txn_threshold_ms`], retained
    /// with their per-stage breakdown while tracing is enabled.
    slow_log: SlowTxnLog,
    /// Analytical queries slower than
    /// [`EngineConfig::slow_query_threshold_ms`], retained with their
    /// per-operator breakdown (operators need tracing).
    slow_query_log: SlowQueryLog,
    /// Sampler ring, SLO flags and the telemetry time axis.  Always present —
    /// idle when the sampler is disabled.
    telemetry_state: Arc<TelemetryState>,
    /// The background metrics-sampler thread (when
    /// [`EngineConfig::telemetry_interval_ms`] is non-zero).
    telemetry: Mutex<Option<TelemetrySampler>>,
    /// The embedded HTTP scrape listener (when
    /// [`EngineConfig::telemetry_addr`] is set).
    telemetry_http: Mutex<Option<TelemetryServer>>,
}

impl HybridDatabase {
    /// Create a database with the given configuration.
    ///
    /// Alias for [`HybridDatabase::open`]: when the configuration enables
    /// durability, any existing state in the data directory is recovered.
    pub fn new(config: EngineConfig) -> EngineResult<Arc<HybridDatabase>> {
        HybridDatabase::open(config)
    }

    /// Open a database.
    ///
    /// For in-memory configurations this simply constructs an empty engine.
    /// For durable configurations it loads the newest checkpoint, replays
    /// every shard's WAL tail above that shard's checkpoint cut (tolerating —
    /// and truncating — a torn final record, the signature of a crash
    /// mid-write), rebuilds the sharded row store and catalog, resolves
    /// in-doubt cross-shard transactions (a prepared transaction replays iff
    /// *any* shard logged its Commit marker), re-seeds the replication
    /// pipelines so the columnar replicas and freshness watermarks resume
    /// correctly, and fast-forwards the timestamp oracle past the newest
    /// recovered commit.
    ///
    /// A durable directory must be reopened with the shard count it was
    /// written with: shard streams are named by shard index and checkpoint
    /// cuts are recorded per shard.
    pub fn open(config: EngineConfig) -> EngineResult<Arc<HybridDatabase>> {
        config.validate()?;
        // The span-recording gate is process-wide (background threads and the
        // storage/query crates all consult it), so opening a tracing engine
        // raises it; it is never lowered here — a caller comparing traced and
        // untraced runs in one process lowers it explicitly between them with
        // `olxp_trace::set_enabled(false)`.
        if config.tracing {
            olxp_trace::set_enabled(true);
        }
        let shard_count = config.shards;
        let mut shards = Vec::with_capacity(shard_count);
        let mut replays: Vec<WalReplay> = Vec::new();
        let checkpoint = match config.durability.data_dir.as_deref() {
            Some(dir) => load_latest_checkpoint(Path::new(dir))?,
            None => None,
        };
        for shard in 0..shard_count {
            let wal = match config.durability.data_dir.as_deref() {
                Some(dir) => {
                    let (wal, replay) = Wal::open_named(
                        dir,
                        &wal_stream(shard, shard_count),
                        config.durability.sync,
                        config.durability.segment_bytes,
                    )?;
                    replays.push(replay);
                    Some(Arc::new(wal))
                }
                None => None,
            };
            let replication = Arc::new(ReplicationLog::new());
            let replicator = Arc::new(Mutex::new(Replicator::new(Arc::clone(&replication))));
            shards.push(Shard {
                row_tables: RwLock::new(Arc::new(HashMap::new())),
                replication,
                replicator,
                applier: Mutex::new(None),
                wal,
                commit_gate: RwLock::new(()),
            });
        }
        let metrics = Arc::new(EngineMetrics::with_shards(shard_count));
        let model = Model::new(&config, Arc::clone(&metrics));
        let txn_mgr = TransactionManager::with_shards(
            Duration::from_millis(config.lock_wait_timeout_ms),
            shard_count,
        );
        // Transaction ids name WAL records on every shard stream: recovery
        // keys its committed-transaction map by them, so new ones start past
        // every id already logged.
        txn_mgr.resume_txn_ids_after(replays.iter().map(|r| r.max_txn_id).max().unwrap_or(0));
        let slow_log = SlowTxnLog::new(config.slow_txn_threshold_ms);
        let slow_query_log = SlowQueryLog::new(config.slow_query_threshold_ms);
        let db = Arc::new(HybridDatabase {
            config,
            catalog: Catalog::new(),
            shards,
            col_tables: Arc::new(RwLock::new(Arc::new(HashMap::new()))),
            txn_mgr,
            model,
            metrics,
            olap_route_counter: AtomicU64::new(0),
            commit_counter: AtomicU64::new(0),
            recovery: Mutex::new(None),
            wal_records_since_ckpt: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            checkpoints_taken: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            compaction: Arc::new(CompactionSignal::new()),
            compactor: Mutex::new(None),
            slow_log,
            slow_query_log,
            telemetry_state: Arc::new(TelemetryState::new()),
            telemetry: Mutex::new(None),
            telemetry_http: Mutex::new(None),
        });
        if db.is_durable() {
            let report = db.recover(checkpoint, replays)?;
            *db.recovery.lock() = Some(report);
        }
        if db.config.background_applier {
            for (shard, state) in db.shards.iter().enumerate() {
                *state.applier.lock() = Some(spawn_applier(
                    shard,
                    Arc::clone(&state.replication),
                    Arc::clone(&state.replicator),
                    Arc::clone(&db.metrics),
                    db.config.replication_batch,
                    Duration::from_micros(db.config.applier_idle_wait_us),
                    Arc::clone(&db.compaction),
                ));
            }
        }
        if db.config.compression {
            *db.compactor.lock() = Some(spawn_compactor(
                Arc::clone(&db.col_tables),
                Arc::clone(&db.compaction),
                Arc::clone(&db.metrics),
                Duration::from_micros(db.config.compactor_idle_wait_us),
            ));
        }
        if db.config.telemetry_interval_ms > 0 {
            *db.telemetry.lock() = Some(telemetry::spawn_sampler(&db));
        }
        if let Some(addr) = db.config.telemetry_addr.clone() {
            // A scrape endpoint that cannot bind (port taken, no permission)
            // must not take the database down with it: log and run without.
            match telemetry::serve(&db, &addr) {
                Ok(server) => *db.telemetry_http.lock() = Some(server),
                Err(e) => eprintln!("olxp: telemetry listener on {addr} unavailable: {e}"),
            }
        }
        Ok(db)
    }

    /// Convenience constructor for the MemSQL-like archetype.
    pub fn single_engine() -> Arc<HybridDatabase> {
        HybridDatabase::new(EngineConfig::single_engine()).expect("default config is valid")
    }

    /// Convenience constructor for the TiDB-like archetype.
    pub fn dual_engine() -> Arc<HybridDatabase> {
        HybridDatabase::new(EngineConfig::dual_engine()).expect("default config is valid")
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The performance model sessions report their work to.
    pub(crate) fn model(&self) -> &Model {
        &self.model
    }

    /// The transaction manager.
    pub fn txn_manager(&self) -> &TransactionManager {
        &self.txn_mgr
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The slow-transaction log (populated only while tracing is enabled and
    /// [`EngineConfig::slow_txn_threshold_ms`] is non-zero).
    pub fn slow_txn_log(&self) -> &SlowTxnLog {
        &self.slow_log
    }

    /// The slow-query log (populated when
    /// [`EngineConfig::slow_query_threshold_ms`] is non-zero; per-operator
    /// breakdowns additionally need tracing).
    pub fn slow_query_log(&self) -> &SlowQueryLog {
        &self.slow_query_log
    }

    /// Live telemetry state: the sampler's time-series ring and SLO flags.
    pub fn telemetry_state(&self) -> &TelemetryState {
        &self.telemetry_state
    }

    /// The shared telemetry state, for the sampler thread to hold without
    /// holding the database.
    pub(crate) fn telemetry_state_arc(&self) -> &Arc<TelemetryState> {
        &self.telemetry_state
    }

    /// Address the embedded telemetry HTTP listener is bound on, when one is
    /// running (resolves `:0` requests to the actual ephemeral port).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_http.lock().as_ref().map(|s| s.local_addr())
    }

    /// True while the background metrics sampler is running (false once it
    /// has exited or panicked).
    pub fn has_telemetry_sampler(&self) -> bool {
        let sampler = self.telemetry.lock();
        is_running(sampler.as_ref().and_then(|s| s.handle.as_ref()))
    }

    /// Copy of every retained per-interval timeline point, oldest first.
    pub fn telemetry_timeline(&self) -> Vec<TelemetryPoint> {
        self.telemetry_state.timeline()
    }

    /// Copy of the timeline points sampled at or after `t_ms` on the
    /// telemetry time axis (see [`Self::telemetry_elapsed_ms`]).
    pub fn telemetry_points_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.telemetry_state.timeline_since(t_ms)
    }

    /// Milliseconds since the database was opened — the time axis of the
    /// sampler's timeline points.
    pub fn telemetry_elapsed_ms(&self) -> u64 {
        self.telemetry_state.elapsed_ms()
    }

    /// Evaluate the `/healthz` SLO checks against the live engine.
    pub fn health_report(&self) -> HealthReport {
        telemetry::health_report(self)
    }

    /// Snapshot of engine metrics (durable engines include live WAL counters
    /// aggregated across every shard's stream).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.wal = self.wal_metrics();
        snapshot.shards = self.shards.len() as u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(wal) = &shard.wal else { continue };
            let Some(entry) = snapshot.per_shard.get_mut(i) else {
                continue;
            };
            let stats = wal.stats();
            entry.wal_appends = stats.appends;
            entry.wal_fsyncs = stats.fsyncs;
        }
        let footprint = self.columnar_footprint();
        snapshot.col_bytes_resident = footprint.bytes_resident as u64;
        snapshot.col_bytes_plain = footprint.bytes_plain as u64;
        snapshot
    }

    /// Aggregate resident-memory footprint of every columnar replica.
    pub fn columnar_footprint(&self) -> MemoryFootprint {
        let mut footprint = MemoryFootprint::default();
        for table in self.col_tables.read().values() {
            footprint.merge(&table.memory_footprint());
        }
        footprint
    }

    /// Durability counters (all-zero for in-memory engines).  Counters are
    /// summed across the per-shard WAL streams; group-commit batch
    /// percentiles report the largest observed on any shard.
    pub fn wal_metrics(&self) -> WalMetrics {
        if !self.is_durable() {
            return WalMetrics::default();
        }
        let mut m = WalMetrics {
            checkpoints: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            ..WalMetrics::default()
        };
        for shard in &self.shards {
            let Some(wal) = &shard.wal else { continue };
            let stats = wal.stats();
            m.appends += stats.appends;
            m.fsyncs += stats.fsyncs;
            m.bytes_written += stats.bytes_written;
            m.synced_commits += stats.synced_commits;
            m.group_batch_p50 = m.group_batch_p50.max(stats.batch_p50);
            m.group_batch_p90 = m.group_batch_p90.max(stats.batch_p90);
            m.group_batch_p99 = m.group_batch_p99.max(stats.batch_p99);
            m.group_batch_max = m.group_batch_max.max(stats.batch_max);
            m.last_lsn += stats.last_lsn;
            m.durable_lsn += stats.durable_lsn;
        }
        m
    }

    /// What recovery rebuilt when this database was opened, or `None` for an
    /// in-memory engine.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self.recovery.lock()
    }

    /// True when this engine writes a WAL.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().any(|s| s.wal.is_some())
    }

    // ------------------------------------------------------------------
    // Sharding
    // ------------------------------------------------------------------

    /// Number of hash-partitioned storage shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `(table, key)`.
    pub fn shard_for(&self, table: &str, key: &Key) -> usize {
        shard_of(table, key, self.shards.len())
    }

    /// One shard's partition of a table.
    pub(crate) fn row_partition(&self, shard: usize, table: &str) -> EngineResult<Arc<RowTable>> {
        self.shards[shard]
            .row_tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))
    }

    /// Every shard's partition of `table`, in shard order.
    pub fn row_partitions(&self, table: &str) -> EngineResult<Vec<Arc<RowTable>>> {
        let parts: Vec<Arc<RowTable>> = self
            .shards
            .iter()
            .filter_map(|s| s.row_tables.read().get(table).cloned())
            .collect();
        if parts.is_empty() {
            return Err(EngineError::UnknownTable(table.to_string()));
        }
        Ok(parts)
    }

    /// Scan every shard's partition of `table` at `ts`, calling `f` for each
    /// visible row (shard-major order).  Returns rows examined.
    pub fn scan_table(
        &self,
        table: &str,
        ts: Timestamp,
        mut f: impl FnMut(&Key, &Arc<Row>),
    ) -> EngineResult<usize> {
        let mut examined = 0;
        for part in self.row_partitions(table)? {
            examined += part.scan(ts, &mut f);
        }
        Ok(examined)
    }

    /// Live rows of `table` across all shards at the current read timestamp.
    pub fn table_live_row_count(&self, table: &str) -> EngineResult<usize> {
        let ts = self.txn_mgr.oracle().read_ts();
        Ok(self
            .row_partitions(table)?
            .iter()
            .map(|p| p.live_row_count(ts))
            .sum())
    }

    /// Per-shard row-table maps, in shard order (feeds the sharded query
    /// source).
    pub fn sharded_row_tables(&self) -> Vec<Arc<HashMap<String, Arc<RowTable>>>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(&s.row_tables.read()))
            .collect()
    }

    /// One shard's write-ahead log.  Only for durable engines: either every
    /// shard has one or none does.
    pub(crate) fn wal_for_shard(&self, shard: usize) -> &Arc<Wal> {
        let wal = self.shards[shard].wal.as_ref();
        wal.expect("durable engine has a WAL per shard")
    }

    /// Shared hold on one shard's commit gate.  Committers keep it across
    /// [WAL mutation append .. commit marker append] on that shard so the
    /// checkpointer's exclusive hold observes no transaction mid-flight.
    /// Multi-gate holders (cross-shard commits, the checkpointer) always
    /// acquire in ascending shard order.
    pub(crate) fn commit_gate_read_for(&self, shard: usize) -> RwLockReadGuard<'_, ()> {
        self.shards[shard].commit_gate.read()
    }

    /// One shard's replication log.
    pub(crate) fn replication_for(&self, shard: usize) -> &Arc<ReplicationLog> {
        &self.shards[shard].replication
    }

    /// Every shard's replication log, in shard order (freshness checks).
    pub(crate) fn replication_logs(&self) -> Vec<Arc<ReplicationLog>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(&s.replication))
            .collect()
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Create a table: a row-table partition in every shard, plus one shared
    /// columnar replica registered with every shard's replication pipeline.
    /// Durable engines log the DDL to shard 0's WAL (and sync it per the
    /// policy) so the schema survives a crash even before the first
    /// checkpoint.
    pub fn create_table(&self, schema: TableSchema) -> EngineResult<()> {
        if let Some(wal) = &self.shards[0].wal {
            // Log before installing: if the WAL refuses the record, nothing
            // was registered and the call can simply be retried.  The rare
            // spurious record (logged but install lost to a concurrent
            // duplicate) is harmless — recovery skips CreateTable records
            // for tables that already exist.  Both steps share one gate hold
            // so a checkpoint cut cannot fall between them.
            if self.catalog.contains(schema.name()) {
                return Err(StorageError::TableExists(schema.name().to_string()).into());
            }
            let lsn = {
                let _gate = self.shards[0].commit_gate.read();
                let lsn = wal.log_create_table(&schema)?;
                self.install_table(schema)?;
                lsn
            };
            let wal = Arc::clone(wal);
            wal.sync_to(lsn)?;
            self.note_wal_records(1);
            Ok(())
        } else {
            self.install_table(schema)
        }
    }

    /// Register a table with the catalog, stores and replication pipelines
    /// without touching the WAL (shared by [`Self::create_table`] and
    /// recovery, which must not re-log what it replays).
    fn install_table(&self, schema: TableSchema) -> EngineResult<()> {
        let schema = self.catalog.create_table(schema)?;
        let col_table = Arc::new(ColumnTable::new(Arc::clone(&schema)));
        for shard in &self.shards {
            let row_table = Arc::new(RowTable::new(Arc::clone(&schema)));
            {
                let mut map = shard.row_tables.write();
                let mut new_map = HashMap::clone(map.as_ref());
                new_map.insert(schema.name().to_string(), row_table);
                *map = Arc::new(new_map);
            }
            shard
                .replicator
                .lock()
                .register(schema.name().to_string(), Arc::clone(&col_table));
        }
        {
            let mut map = self.col_tables.write();
            let mut new_map = HashMap::clone(map.as_ref());
            new_map.insert(schema.name().to_string(), col_table);
            *map = Arc::new(new_map);
        }
        Ok(())
    }

    /// Shard 0's snapshot of the row tables (cheap to clone).  With more than
    /// one shard this is only that shard's partition; use
    /// [`Self::sharded_row_tables`] or [`Self::scan_table`] for whole-table
    /// access.
    pub fn row_tables(&self) -> Arc<HashMap<String, Arc<RowTable>>> {
        Arc::clone(&self.shards[0].row_tables.read())
    }

    /// Shared snapshot of the columnar replicas.
    pub fn col_tables(&self) -> Arc<HashMap<String, Arc<ColumnTable>>> {
        Arc::clone(&self.col_tables.read())
    }

    /// Shard 0's partition of the row table for `name`.  With one shard (the
    /// default) this is the whole table; sharded callers route a key with
    /// [`Self::shard_for`].
    pub fn row_table(&self, name: &str) -> EngineResult<Arc<RowTable>> {
        self.row_partition(0, name)
    }

    /// The columnar replica for `name`.
    pub fn col_table(&self, name: &str) -> EngineResult<Arc<ColumnTable>> {
        self.col_tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Open a session.  Each benchmark driver thread owns one session.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Load a row outside of any transaction (benchmark data population).
    ///
    /// Loading bypasses the cost model and the cluster so that experiment
    /// setup time does not pollute measurements, but writes through the
    /// commit stages on the owning shard — open (gate, then a load
    /// timestamp), log, install (row store and replication feed), markers —
    /// as a one-mutation transaction under an id from the transaction
    /// manager.  The sync is deferred to [`Self::finish_load`] so bulk loading
    /// is not throttled to one fsync per row.
    pub fn load_row(&self, table: &str, row: Row) -> EngineResult<()> {
        let key = self.catalog.table(table)?.primary_key_of(&row);
        let at = [self.model.place(table, &key)];
        let op = [WriteOp::Insert {
            table: table.to_string(),
            key,
            row,
        }];
        let mut ctx = CommitCtx::new(self, &at, self.txn_mgr.load_txn_id(), false);
        ctx.open(|| Ok(self.txn_mgr.oracle().load_ts()))?;
        ctx.log(&op, &at)?;
        ctx.install(op, &at)?;
        ctx.markers()
    }

    /// Finish bulk loading: apply all pending replication on every shard so
    /// the columnar replicas are complete before measurement starts, and (on
    /// a durable engine) make the loaded data durable with one fsync per
    /// shard stream.
    pub fn finish_load(&self) -> EngineResult<usize> {
        let mut applied = 0;
        for shard in &self.shards {
            applied += shard.replicator.lock().catch_up()?;
        }
        self.metrics.add_replication_applied(applied as u64);
        if self.is_durable() {
            for shard in &self.shards {
                if let Some(wal) = &shard.wal {
                    wal.flush_and_fsync()?;
                }
            }
            self.maybe_checkpoint();
        }
        Ok(applied)
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// Apply one batch of pending replication records on every shard
    /// (asynchronous log replication step).  Called opportunistically by
    /// sessions when no background applier is running; failures are counted
    /// in the engine metrics and surfaced to the caller.
    pub fn replicate_step(&self) -> EngineResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            let result = shard
                .replicator
                .lock()
                .apply_pending(self.config.replication_batch);
            match result {
                Ok(applied) => total += applied,
                Err(e) => {
                    if total > 0 {
                        self.metrics.add_replication_applied(total as u64);
                    }
                    self.metrics.add_replication_error();
                    return Err(e.into());
                }
            }
        }
        if total > 0 {
            self.metrics.add_replication_applied(total as u64);
            self.compaction.notify();
        }
        Ok(total)
    }

    /// True while every shard's dedicated background applier thread is
    /// running: a thread that exited or panicked on any shard reads false.
    pub fn has_background_applier(&self) -> bool {
        self.shards.iter().all(|shard| {
            let applier = shard.applier.lock();
            is_running(applier.as_ref().and_then(|a| a.handle.as_ref()))
        })
    }

    /// Stop every shard's background applier thread and wait for it to exit.
    /// Further replication is applied opportunistically (or via
    /// [`Self::finish_load`]).  Idempotent; also invoked on drop.
    pub fn shutdown_applier(&self) {
        for shard in &self.shards {
            let Some(mut applier) = shard.applier.lock().take() else {
                continue;
            };
            applier.shutdown.store(true, Ordering::Release);
            shard.replication.notify_waiters();
            if let Some(handle) = applier.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// True while the background delta-compactor thread is running (false
    /// once it has exited or panicked).
    pub fn has_background_compactor(&self) -> bool {
        let compactor = self.compactor.lock();
        is_running(compactor.as_ref().and_then(|c| c.handle.as_ref()))
    }

    /// Stop the background delta-compactor thread and wait for it to exit.
    /// Delta chunks stop migrating to the compressed main tier (explicit
    /// [`Self::compact_columnar`] calls still work).  Idempotent; also
    /// invoked on drop.
    pub fn shutdown_compactor(&self) {
        let Some(mut compactor) = self.compactor.lock().take() else {
            return;
        };
        compactor.shutdown.store(true, Ordering::Release);
        self.compaction.notify();
        if let Some(handle) = compactor.handle.take() {
            let _ = handle.join();
        }
    }

    /// Stop the telemetry sampler thread and the embedded HTTP listener.
    /// The retained timeline stays readable.  Idempotent; also invoked on
    /// drop.
    pub fn shutdown_telemetry(&self) {
        if let Some(mut server) = self.telemetry_http.lock().take() {
            server.shutdown();
        }
        let sampler = self.telemetry.lock().take();
        if let Some(mut sampler) = sampler {
            sampler.shutdown.store(true, Ordering::Release);
            if let Some(handle) = sampler.handle.take() {
                if handle.thread().id() == std::thread::current().id() {
                    // The sampler's own upgraded Arc can be the last one, in
                    // which case this drop runs *on* the sampler thread:
                    // detach instead of self-joining — the thread exits at
                    // its next shutdown check.
                    drop(handle);
                } else {
                    let _ = handle.join();
                }
            }
        }
    }

    /// Synchronously seal every full delta chunk of every columnar replica
    /// into the compressed main tier — the same migration the background
    /// compactor performs continuously.  Returns the number of chunks sealed.
    /// Used by benchmarks that want a settled store before measuring and by
    /// engines running with the compactor disabled.
    pub fn compact_columnar(&self) -> u64 {
        let tables: Vec<Arc<ColumnTable>> = self.col_tables.read().values().cloned().collect();
        let mut sealed = 0u64;
        for table in tables {
            sealed += table.compact() as u64;
        }
        self.metrics.add_chunks_compacted(sealed);
        sealed
    }

    /// Records appended to the replication logs but not yet applied, summed
    /// across shards.
    pub fn replication_lag(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.replication.lag_records())
            .sum()
    }

    /// Shard 0's replication log (the only one in unsharded setups; used by
    /// tests and metrics).
    pub fn replication_log(&self) -> &Arc<ReplicationLog> {
        &self.shards[0].replication
    }

    // ------------------------------------------------------------------
    // Durability: WAL plumbing, checkpoints and crash recovery
    // ------------------------------------------------------------------

    /// Account WAL records toward the automatic checkpoint threshold.
    pub(crate) fn note_wal_records(&self, records: u64) {
        self.wal_records_since_ckpt
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Take an automatic checkpoint when the configured record threshold has
    /// been crossed.  At most one checkpoint runs at a time; a failure is
    /// counted and retried at the next trigger (durability is unaffected —
    /// the WALs retain everything a failed checkpoint did not truncate).
    ///
    /// Must not be called while holding any commit gate (the checkpoint takes
    /// them all exclusively).
    pub(crate) fn maybe_checkpoint(&self) {
        let every = self.config.durability.checkpoint_every_records;
        if every == 0 || !self.is_durable() {
            return;
        }
        if self.wal_records_since_ckpt.load(Ordering::Relaxed) < every {
            return;
        }
        if self
            .checkpointing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if self.checkpoint().is_err() {
            self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpointing.store(false, Ordering::Release);
    }

    /// Write a checkpoint: a consistent snapshot of the catalog and of every
    /// row visible at one commit timestamp (merged across shards), tagged
    /// with the WAL cut of every shard stream.  Each shard's WAL segments
    /// wholly below its own cut are truncated afterwards.
    ///
    /// The `(commit_ts, per-shard LSN)` cut is taken while holding *every*
    /// shard's commit gate exclusively (acquired in ascending shard order,
    /// the same order cross-shard commits use, so the two cannot deadlock):
    /// no transaction is between its WAL append and its commit marker on any
    /// shard at that instant, so every transaction — including a cross-shard
    /// one — is either fully below the cut on all its shards (and visible at
    /// the timestamp) or fully above it (and replayed from the WAL tails on
    /// recovery).
    pub fn checkpoint(&self) -> EngineResult<u64> {
        if !self.is_durable() {
            return Err(EngineError::Config("durability is disabled".into()));
        }
        let data_dir = self
            .config
            .durability
            .data_dir
            .as_deref()
            .ok_or_else(|| EngineError::Config("durability is disabled".into()))?;
        let (ckpt_ts, shard_cuts) = {
            let _gates: Vec<_> = self.shards.iter().map(|s| s.commit_gate.write()).collect();
            let cuts: Vec<(u32, u64)> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, s.wal.as_ref().map_or(0, |w| w.last_lsn())))
                .collect();
            (self.txn_mgr.oracle().read_ts(), cuts)
        };
        // The MVCC snapshot at `ckpt_ts` is stable after the gates are
        // released: later commits carry strictly larger timestamps.
        let mut tables = Vec::new();
        for schema in self.catalog.tables() {
            let mut rows = Vec::new();
            for part in self.row_partitions(schema.name())? {
                part.scan(ckpt_ts, |_, row| rows.push(Row::clone(row)));
            }
            tables.push(TableCheckpoint {
                schema: TableSchema::clone(&schema),
                rows,
            });
        }
        let lsn_sum: u64 = shard_cuts.iter().map(|&(_, lsn)| lsn).sum();
        let data = CheckpointData {
            lsn: lsn_sum,
            commit_ts: ckpt_ts,
            tables,
            shard_cuts: shard_cuts.clone(),
        };
        write_checkpoint(Path::new(data_dir), &data)?;
        for &(shard, cut) in &shard_cuts {
            if let Some(wal) = &self.shards[shard as usize].wal {
                wal.truncate_up_to(cut)?;
            }
        }
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        self.wal_records_since_ckpt.store(0, Ordering::Relaxed);
        Ok(lsn_sum)
    }

    /// Simulate a crash: stop the appliers and discard all process state the
    /// OS would lose on a kill — nothing buffered in any WAL is flushed, and
    /// the clean-shutdown flush on drop is suppressed.  Everything a
    /// [`crate::Session::commit`] acknowledged under a syncing policy is
    /// already on disk and survives a subsequent [`HybridDatabase::open`].
    pub fn simulate_crash(&self) {
        self.shutdown_applier();
        self.shutdown_compactor();
        for shard in &self.shards {
            if let Some(wal) = &shard.wal {
                wal.mark_crashed();
            }
        }
    }

    /// Rebuild the stores from a checkpoint plus every shard's replayed WAL
    /// tail.
    ///
    /// Replay runs in two passes.  The collection pass walks every shard
    /// stream, installing DDL beyond that shard's cut and gathering each
    /// transaction's mutations, Prepare LSN and Commit marker per shard —
    /// plus a *global* committed map from every Commit marker on any shard.
    /// The apply pass then resolves each shard's transactions in LSN order:
    /// a transaction's effects on a shard are applied iff it is globally
    /// committed and its resolution LSN on that shard (its own Commit marker
    /// if present, else its Prepare) lies beyond the shard's checkpoint cut.
    /// That rule is what makes cross-shard atomicity survive a crash between
    /// one shard's Commit marker and another's: the shard that never logged
    /// its marker still replays the transaction because *some* shard proved
    /// the commit was decided, and a prepared transaction with no marker
    /// anywhere is presumed aborted.
    fn recover(
        &self,
        checkpoint: Option<CheckpointData>,
        replays: Vec<WalReplay>,
    ) -> EngineResult<RecoveryReport> {
        let shard_count = self.shards.len();
        let mut report = RecoveryReport {
            torn_bytes_truncated: replays.iter().map(|r| r.truncated_bytes).sum(),
            ..RecoveryReport::default()
        };
        let cuts: Vec<u64> = (0..shard_count)
            .map(|s| checkpoint.as_ref().map_or(0, |c| c.cut_for_shard(s as u32)))
            .collect();
        let mut max_ts: Timestamp = 0;
        if let Some(checkpoint) = checkpoint {
            report.checkpoint_lsn = checkpoint.lsn;
            report.checkpoint_commit_ts = checkpoint.commit_ts;
            max_ts = checkpoint.commit_ts;
            // Checkpointed rows do not carry per-row timestamps; they are all
            // installed at the snapshot timestamp, which preserves visibility
            // for every read at or above it (and the WAL tails only hold
            // transactions committed after the snapshot).  Rows re-route to
            // their shard by the same hash the write path uses, so a
            // checkpoint taken at this shard count reloads into identical
            // partitions.
            let load_ts = checkpoint.commit_ts.max(1);
            for table in checkpoint.tables {
                self.install_table(table.schema.clone())?;
                let schema = self.catalog.table(table.schema.name())?;
                for row in table.rows {
                    let key = schema.primary_key_of(&row);
                    let shard = shard_of(schema.name(), &key, shard_count);
                    self.row_partition(shard, schema.name())?
                        .insert(row, load_ts)?;
                    report.checkpoint_rows += 1;
                }
            }
        }

        // Collection pass.
        #[derive(Default)]
        struct ShardTxn {
            ops: Vec<(WalOp, Timestamp)>,
            commit: Option<(u64, Timestamp)>,
            prepare_lsn: Option<u64>,
        }
        let mut per_shard: Vec<HashMap<u64, ShardTxn>> = Vec::with_capacity(shard_count);
        let mut committed: HashMap<u64, Timestamp> = HashMap::new();
        for (shard, replay) in replays.into_iter().enumerate() {
            let mut txns: HashMap<u64, ShardTxn> = HashMap::new();
            for ReplayedRecord { lsn, record } in replay.records {
                report.wal_records_scanned += 1;
                match record {
                    WalRecord::CreateTable { schema } => {
                        if lsn > cuts[shard] && !self.catalog.contains(schema.name()) {
                            self.install_table(schema)?;
                        }
                    }
                    WalRecord::Begin { txn_id } => {
                        txns.entry(txn_id).or_default();
                    }
                    WalRecord::Mutation {
                        txn_id,
                        op,
                        commit_ts,
                    } => {
                        txns.entry(txn_id).or_default().ops.push((op, commit_ts));
                    }
                    WalRecord::Prepare { txn_id } => {
                        txns.entry(txn_id).or_default().prepare_lsn = Some(lsn);
                    }
                    WalRecord::Commit {
                        txn_id, commit_ts, ..
                    } => {
                        txns.entry(txn_id).or_default().commit = Some((lsn, commit_ts));
                        // A marker below the cut still proves the global
                        // decision for other shards' in-doubt prepares.
                        committed.insert(txn_id, commit_ts);
                    }
                }
            }
            per_shard.push(txns);
        }

        // Apply pass: per shard, in resolution-LSN order (matching original
        // commit order for any given key, since row locks are held across the
        // commit's whole WAL window).
        // (resolution LSN, txn id, commit ts, buffered ops, resolved in doubt).
        type Resolved = (u64, u64, Timestamp, Vec<(WalOp, Timestamp)>, bool);
        let mut replayed: HashSet<u64> = HashSet::new();
        let mut in_doubt: HashSet<u64> = HashSet::new();
        for (shard, txns) in per_shard.into_iter().enumerate() {
            let mut resolved: Vec<Resolved> = txns
                .into_iter()
                .filter_map(|(txn_id, st)| match (st.commit, st.prepare_lsn) {
                    (Some((lsn, ts)), _) => Some((lsn, txn_id, ts, st.ops, false)),
                    (None, Some(prepare_lsn)) => committed
                        .get(&txn_id)
                        .map(|&ts| (prepare_lsn, txn_id, ts, st.ops, true)),
                    // No marker anywhere and no prepare: a crash before the
                    // commit decision — presumed aborted, never replayed.
                    (None, None) => None,
                })
                .collect();
            resolved.sort_by_key(|&(lsn, ..)| lsn);
            for (resolution_lsn, txn_id, commit_ts, ops, was_in_doubt) in resolved {
                if resolution_lsn <= cuts[shard] {
                    continue; // fully contained in the checkpoint on this shard
                }
                if replayed.insert(txn_id) {
                    report.wal_txns_replayed += 1;
                }
                // Counted separately from the unique-txn tally: the shard
                // holding the Commit marker replays the txn normally, and it
                // is some *other* shard that resolves it in doubt.
                if was_in_doubt && in_doubt.insert(txn_id) {
                    report.in_doubt_committed += 1;
                }
                max_ts = max_ts.max(commit_ts);
                // Every version a transaction writes carries its one commit
                // timestamp, so `recover_apply`'s overlap rule would take a
                // second write of a key for one the checkpoint already holds:
                // only the last image of each key is applied.
                let mut last_write: HashMap<(&str, &Key), usize> = HashMap::new();
                for (i, (op, _)) in ops.iter().enumerate() {
                    last_write.insert((op.table.as_str(), &op.key), i);
                }
                for (i, (op, op_ts)) in ops.iter().enumerate() {
                    if last_write[&(op.table.as_str(), &op.key)] == i {
                        self.recover_apply(op, *op_ts)?;
                    }
                    report.wal_mutations_replayed += 1;
                }
            }
        }

        // Resume the timeline above the newest recovered commit, then re-seed
        // the replication pipelines: every recovered row is shipped to its
        // shard's columnar-replica feed and applied synchronously, so the
        // database opens with appended == applied watermarks and
        // Strict-freshness reads see every pre-crash commit immediately.
        self.txn_mgr.oracle().advance_to(max_ts);
        let reseed_ts = self.txn_mgr.oracle().read_ts();
        for schema in self.catalog.tables() {
            for (shard, part) in self.row_partitions(schema.name())?.iter().enumerate() {
                part.scan(reseed_ts, |key, row| {
                    self.shards[shard].replication.append(
                        schema.name(),
                        MutationOp::Insert,
                        key.clone(),
                        Some(Row::clone(row)),
                        reseed_ts,
                    );
                });
            }
        }
        let mut applied = 0;
        for shard in &self.shards {
            applied += shard.replicator.lock().catch_up()?;
        }
        self.metrics.add_replication_applied(applied as u64);
        report.replication_reseeded = applied as u64;
        report.tables_recovered = self.catalog.len() as u64;
        Ok(report)
    }

    /// Apply one replayed mutation at its original commit timestamp to the
    /// shard partition owning its key.
    ///
    /// Idempotent against checkpoint overlap: a key whose newest version is
    /// already at or above the mutation's timestamp is left untouched (the
    /// checkpoint captured that transaction's effect), an update of a key the
    /// snapshot never saw becomes an insert, and a delete of an absent key is
    /// a no-op.
    fn recover_apply(&self, op: &WalOp, commit_ts: Timestamp) -> EngineResult<()> {
        let row_table = self.row_partition(self.shard_for(&op.table, &op.key), &op.table)?;
        if row_table
            .latest_commit_ts(&op.key)
            .is_some_and(|latest| latest >= commit_ts)
        {
            return Ok(());
        }
        match op.op {
            MutationOp::Insert | MutationOp::Update => {
                let row = op.row.clone().ok_or_else(|| {
                    StorageError::Internal("WAL mutation record without row image".into())
                })?;
                match row_table.update(&op.key, row.clone(), commit_ts) {
                    Err(StorageError::KeyNotFound { .. }) => {
                        row_table.insert(row, commit_ts)?;
                    }
                    other => other?,
                }
            }
            MutationOp::Delete => match row_table.delete(&op.key, commit_ts) {
                Err(StorageError::KeyNotFound { .. }) => {}
                other => other?,
            },
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Routing and accounting (used by `Session`)
    // ------------------------------------------------------------------

    /// Decide where the next standalone analytical query runs.
    ///
    /// The dual engine routes `analytical_rowstore_percent` of queries to the
    /// row store (the optimizer's choice in TiDB, §V-B1) and the remainder to
    /// the columnar replicas on dedicated analytical nodes.  The single engine
    /// and the shared-nothing configuration always compete with OLTP on the
    /// same nodes, which is the point of the comparison.
    pub fn route_analytical(&self) -> AnalyticalRoute {
        let n = self.olap_route_counter.fetch_add(1, Ordering::Relaxed);
        let percent = self.config.analytical_rowstore_percent;
        // Bresenham-style spread: exactly `percent` of every 100 consecutive
        // queries hit the row store, interleaved rather than front-loaded so
        // short runs exercise both paths in the configured proportion.
        if (n * percent) % 100 < percent {
            AnalyticalRoute::RowStore
        } else {
            AnalyticalRoute::ColumnStore
        }
    }

    /// Record a commit.  Without a background applier, trigger an
    /// opportunistic replication step every few commits so the columnar
    /// replicas keep up; with the appliers running, the append itself already
    /// woke the owning shard's applier thread.
    pub fn note_commit(&self) {
        self.metrics.add_commit();
        let n = self.commit_counter.fetch_add(1, Ordering::Relaxed);
        if n % 32 == 0 && !self.has_background_applier() {
            // A failure is counted in the metrics by replicate_step and the
            // records stay queued; the next analytical read surfaces it.
            let _ = self.replicate_step();
        }
    }

    /// Record an abort.
    pub fn note_abort(&self) {
        self.metrics.add_abort();
    }

    // ------------------------------------------------------------------
    // Derived metrics
    // ------------------------------------------------------------------

    /// Lock overhead: time spent blocked (row-lock waits across every shard's
    /// lock table plus worker-queue waits) relative to the simulated busy
    /// time.  This is the quantity the paper measures with `perf` lock
    /// samples in Figure 4.
    pub fn lock_overhead(&self) -> f64 {
        let snapshot = self.metrics.snapshot();
        let busy = snapshot.total_busy_nanos() as f64;
        if busy == 0.0 {
            return 0.0;
        }
        let lock_wait = self.txn_mgr.stats().locks.wait_nanos as f64;
        let queue_wait = snapshot.total_queue_wait_nanos() as f64;
        (lock_wait + queue_wait) / busy
    }

    /// Total number of live rows across all shards and row tables (for
    /// sanity checks).
    pub fn total_live_rows(&self) -> usize {
        let ts = self.txn_mgr.oracle().read_ts();
        self.shards
            .iter()
            .map(|s| {
                s.row_tables
                    .read()
                    .values()
                    .map(|t| t.live_row_count(ts))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Approximate number of keys in a table's row store across all shards
    /// (physical size used by the cost model for full scans).
    pub fn table_key_count(&self, table: &str) -> usize {
        self.shards
            .iter()
            .map(|s| s.row_tables.read().get(table).map_or(0, |t| t.key_count()))
            .sum()
    }
}

impl Drop for HybridDatabase {
    fn drop(&mut self) {
        // Telemetry first: no scrape or sample should observe a half-torn-
        // down engine.
        self.shutdown_telemetry();
        self.shutdown_applier();
        self.shutdown_compactor();
    }
}

/// Spawn one shard's dedicated applier thread.
///
/// The thread drains the shard's replication log in `batch`-sized steps,
/// parking on the log's condition variable when it is empty (appends wake
/// it).  Apply failures are counted and retried with a capped backoff — the
/// failed batch stays queued (see [`Replicator::apply_pending`]), so
/// committed mutations are never lost while the pipeline is unhealthy.
fn spawn_applier(
    shard: usize,
    log: Arc<ReplicationLog>,
    replicator: Arc<Mutex<Replicator>>,
    metrics: Arc<EngineMetrics>,
    batch: usize,
    idle_wait: Duration,
    compaction: Arc<CompactionSignal>,
) -> BackgroundApplier {
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name(format!("olxp-replication-applier-{shard}"))
        .spawn(move || {
            // Error backoff is independent of the idle park time: it must
            // start small so transient failures retry quickly (a parked
            // freshness-bounded reader is waiting on this thread), growing
            // only while failures persist.
            let initial_backoff = Duration::from_micros(100);
            let max_backoff = Duration::from_millis(5);
            let mut backoff = initial_backoff;
            while !stop.load(Ordering::Acquire) {
                // The replication-apply span covers append→apply for the
                // batch: it starts when the oldest record in the batch was
                // appended (the lag a freshness-bounded reader would wait
                // out), not when the applier picked it up.
                let trace_from = if olxp_trace::enabled() {
                    let now = olxp_trace::now_nanos();
                    let age = log
                        .oldest_pending_age()
                        .map_or(0, |age| age.as_nanos() as u64);
                    Some(now.saturating_sub(age))
                } else {
                    None
                };
                let result = replicator.lock().apply_pending(batch);
                match result {
                    Ok(0) => {
                        log.wait_for_pending(idle_wait);
                    }
                    Ok(applied) => {
                        metrics.add_replication_applied(applied as u64);
                        if let Some(start) = trace_from {
                            olxp_trace::record_span(
                                olxp_trace::SpanCategory::ReplicationApply,
                                shard as u32,
                                applied as u64,
                                start,
                            );
                            metrics.record_stage(
                                olxp_trace::SpanCategory::ReplicationApply,
                                olxp_trace::now_nanos().saturating_sub(start),
                            );
                        }
                        // Applied mutations grow delta tails: give the
                        // compactor a chance to seal any chunk they filled.
                        compaction.notify();
                        backoff = initial_backoff;
                    }
                    Err(_) => {
                        metrics.add_replication_error();
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(max_backoff);
                    }
                }
            }
        })
        .expect("spawning the replication applier thread succeeds");
    BackgroundApplier {
        shutdown,
        handle: Some(handle),
    }
}

/// Spawn the database's delta-compactor thread.
///
/// Each sweep snapshots the current table map (so tables installed later are
/// picked up) and seals every full delta chunk into the compressed main tier.
/// A sweep that sealed nothing parks on the [`CompactionSignal`] until the
/// replication appliers apply more mutations (or the idle timeout elapses —
/// the self-poll fallback that bounds staleness when writes bypass the
/// appliers, e.g. opportunistic catch-up with the background applier off).
fn spawn_compactor(
    col_tables: SharedColumnTables,
    signal: Arc<CompactionSignal>,
    metrics: Arc<EngineMetrics>,
    idle_wait: Duration,
) -> BackgroundCompactor {
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("olxp-delta-compactor".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let tables: Vec<Arc<ColumnTable>> = col_tables.read().values().cloned().collect();
                let mut sealed = 0u64;
                for table in tables {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // One `compact_chunk` call per chunk: each takes the
                    // table's write lock once, so readers and the applier
                    // interleave with the rewrite — and each seal/encode
                    // gets its own stage-histogram entry while tracing.
                    let mut chunks = 0u64;
                    loop {
                        let trace_from = if olxp_trace::enabled() {
                            Some(olxp_trace::now_nanos())
                        } else {
                            None
                        };
                        if !table.compact_chunk() {
                            break;
                        }
                        if let Some(start) = trace_from {
                            metrics.record_stage(
                                olxp_trace::SpanCategory::Compaction,
                                olxp_trace::now_nanos().saturating_sub(start),
                            );
                        }
                        chunks += 1;
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    metrics.add_chunks_compacted(chunks);
                    sealed += chunks;
                }
                if sealed == 0 {
                    signal.wait(idle_wait);
                }
            }
        })
        .expect("spawning the delta compactor thread succeeds");
    BackgroundCompactor {
        shutdown,
        handle: Some(handle),
    }
}

impl std::fmt::Debug for HybridDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridDatabase")
            .field("architecture", &self.config.architecture)
            .field("nodes", &self.config.nodes)
            .field("shards", &self.shards.len())
            .field("tables", &self.catalog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WorkClass;
    use crate::model::Work;
    use olxp_storage::{ColumnDef, DataType, Value};

    fn item_schema() -> TableSchema {
        TableSchema::new(
            "ITEM",
            vec![
                ColumnDef::new("i_id", DataType::Int, false),
                ColumnDef::new("i_price", DataType::Decimal, false),
            ],
            vec!["i_id"],
        )
        .unwrap()
    }

    #[test]
    fn create_table_registers_row_and_column_stores() {
        let db = HybridDatabase::dual_engine();
        db.create_table(item_schema()).unwrap();
        assert!(db.row_table("ITEM").is_ok());
        assert!(db.col_table("ITEM").is_ok());
        assert!(matches!(
            db.row_table("NOPE"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn load_rows_replicate_to_column_store() {
        // Disable the background applier so the pre-finish_load lag is
        // deterministic.
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_background_applier(false))
            .unwrap();
        db.create_table(item_schema()).unwrap();
        for i in 0..100 {
            db.load_row(
                "ITEM",
                Row::new(vec![Value::Int(i), Value::Decimal(i * 10)]),
            )
            .unwrap();
        }
        assert!(!db.has_background_applier());
        assert!(db.replication_lag() > 0);
        let applied = db.finish_load().unwrap();
        assert_eq!(applied, 100);
        assert_eq!(db.replication_lag(), 0);
        assert_eq!(db.col_table("ITEM").unwrap().live_row_count(), 100);
        assert_eq!(db.total_live_rows(), 100);
        assert_eq!(db.table_key_count("ITEM"), 100);
    }

    #[test]
    fn sharded_engine_partitions_rows_and_merges_scans() {
        let db = HybridDatabase::new(
            EngineConfig::dual_engine()
                .with_shards(4)
                .with_background_applier(false),
        )
        .unwrap();
        assert_eq!(db.shard_count(), 4);
        db.create_table(item_schema()).unwrap();
        for i in 0..200 {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                .unwrap();
        }
        db.finish_load().unwrap();
        // Every key lives on exactly one shard, and the hash spreads them.
        let mut per_shard = vec![0usize; 4];
        let ts = db.txn_manager().oracle().read_ts();
        for (shard, part) in db.row_partitions("ITEM").unwrap().iter().enumerate() {
            per_shard[shard] = part.live_row_count(ts);
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 200);
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "hash partitioning leaves no shard empty at this size: {per_shard:?}"
        );
        // Routed partition agrees with the hash.
        for i in 0..200i64 {
            let key = Key::int(i);
            let shard = db.shard_for("ITEM", &key);
            assert!(db
                .row_partition(shard, "ITEM")
                .unwrap()
                .get(&key, ts)
                .is_some());
            assert_eq!(shard, shard_of("ITEM", &key, 4), "routing is deterministic");
        }
        // Merged scan sees everything; the shared columnar replica converged.
        assert_eq!(db.scan_table("ITEM", ts, |_, _| {}).unwrap(), 200);
        assert_eq!(db.table_live_row_count("ITEM").unwrap(), 200);
        assert_eq!(db.col_table("ITEM").unwrap().live_row_count(), 200);
        assert_eq!(db.replication_lag(), 0);
        assert_eq!(db.metrics_snapshot().shards, 4);
    }

    #[test]
    fn background_applier_drains_the_log_without_explicit_steps() {
        let db = HybridDatabase::dual_engine();
        assert!(db.has_background_applier());
        db.create_table(item_schema()).unwrap();
        for i in 0..500 {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                .unwrap();
        }
        // No finish_load: the applier threads must converge on their own.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.replication_lag() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "applier failed to drain the log (lag {})",
                db.replication_lag()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(db.col_table("ITEM").unwrap().live_row_count(), 500);
        assert!(db.metrics_snapshot().replication_applied >= 500);
    }

    #[test]
    fn applier_shuts_down_cleanly_and_idempotently() {
        let db = HybridDatabase::dual_engine();
        assert!(db.has_background_applier());
        db.shutdown_applier();
        assert!(!db.has_background_applier());
        db.shutdown_applier(); // idempotent
                               // Dropping the database after an explicit shutdown must not hang.
        drop(db);
    }

    #[test]
    fn compactor_shuts_down_cleanly_and_idempotently() {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_compression(true)).unwrap();
        assert!(db.has_background_compactor());
        db.shutdown_compactor();
        assert!(!db.has_background_compactor());
        db.shutdown_compactor(); // idempotent
        drop(db);

        let off = HybridDatabase::new(EngineConfig::dual_engine().with_compression(false)).unwrap();
        assert!(!off.has_background_compactor());
    }

    /// The named `/healthz` check's verdict and the handler's `/healthz` status.
    fn healthz(db: &Arc<HybridDatabase>, check: &str) -> (bool, u16) {
        let report = db.health_report();
        let verdict = report.checks.iter().find(|c| c.name == check).unwrap();
        let handler = telemetry::handler_for(db);
        (verdict.healthy, handler("/healthz").status)
    }

    fn wait_until_finished(handle: &std::thread::JoinHandle<()>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(std::time::Instant::now() < deadline, "thread never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn healthz_fails_when_one_shards_applier_has_exited() {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_shards(4)).unwrap();
        assert_eq!(healthz(&db, "replication_applier"), (true, 200));
        // Stop shard 2's applier behind the database's back: its handle stays
        // stored, exactly as after a panic inside the thread.
        {
            let shard = &db.shards[2];
            let applier = shard.applier.lock();
            let applier = applier.as_ref().expect("applier spawned at open");
            applier.shutdown.store(true, Ordering::Release);
            shard.replication.notify_waiters();
            wait_until_finished(applier.handle.as_ref().unwrap());
        }
        assert!(!db.has_background_applier());
        assert_eq!(healthz(&db, "replication_applier"), (false, 503));
        db.shutdown_applier(); // still joins every shard cleanly
        drop(db);
    }

    #[test]
    fn healthz_fails_when_the_compactor_has_exited() {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_compression(true)).unwrap();
        assert_eq!(healthz(&db, "delta_compactor"), (true, 200));
        {
            let compactor = db.compactor.lock();
            let compactor = compactor.as_ref().expect("compactor spawned at open");
            compactor.shutdown.store(true, Ordering::Release);
            db.compaction.notify();
            wait_until_finished(compactor.handle.as_ref().unwrap());
        }
        assert!(!db.has_background_compactor());
        assert_eq!(healthz(&db, "delta_compactor"), (false, 503));
        db.shutdown_compactor();
        drop(db);
    }

    #[test]
    fn healthz_fails_when_the_telemetry_sampler_has_exited() {
        let config = EngineConfig::dual_engine().with_telemetry_interval_ms(5);
        let db = HybridDatabase::new(config).unwrap();
        assert_eq!(healthz(&db, "telemetry_sampler"), (true, 200));
        {
            let sampler = db.telemetry.lock();
            let sampler = sampler.as_ref().expect("sampler spawned at open");
            sampler.shutdown.store(true, Ordering::Release);
            wait_until_finished(sampler.handle.as_ref().unwrap());
        }
        assert!(!db.has_telemetry_sampler());
        assert_eq!(healthz(&db, "telemetry_sampler"), (false, 503));
        db.shutdown_telemetry(); // still joins the exited thread cleanly
        drop(db);

        let off =
            HybridDatabase::new(EngineConfig::dual_engine().with_telemetry_interval_ms(0)).unwrap();
        let report = off.health_report();
        let check = report.checks.iter().find(|c| c.name == "telemetry_sampler");
        assert_eq!(check.unwrap().detail, "not configured");
        assert_eq!(healthz(&off, "telemetry_sampler"), (true, 200));
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect to telemetry listener");
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
            .expect("status line")
            .parse()
            .expect("numeric status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn telemetry_sampler_appends_interval_points() {
        let db =
            HybridDatabase::new(EngineConfig::dual_engine().with_telemetry_interval_ms(5)).unwrap();
        assert!(db.has_telemetry_sampler());
        db.create_table(item_schema()).unwrap();
        for i in 0..50 {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                .unwrap();
        }
        db.finish_load().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.telemetry_timeline().len() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "sampler produced no points"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let points = db.telemetry_timeline();
        for pair in points.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms, "time axis is monotonic");
        }
        assert!(points.iter().all(|p| p.interval_ms > 0));
        assert!(
            points.iter().map(|p| p.replication_applied).sum::<u64>() >= 50,
            "the bulk load's replication shows up in some interval"
        );
        assert!(db.telemetry_points_since(points[1].t_ms).len() <= points.len());

        db.shutdown_telemetry();
        assert!(!db.has_telemetry_sampler());
        let frozen = db.telemetry_timeline().len();
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(
            db.telemetry_timeline().len(),
            frozen,
            "no points after shutdown; the retained timeline stays readable"
        );
        db.shutdown_telemetry(); // idempotent

        let off =
            HybridDatabase::new(EngineConfig::dual_engine().with_telemetry_interval_ms(0)).unwrap();
        assert!(!off.has_telemetry_sampler());
        assert!(off.telemetry_addr().is_none());
        assert!(off.telemetry_timeline().is_empty());
    }

    #[test]
    fn telemetry_http_serves_live_scrapes_on_an_ephemeral_port() {
        let config = EngineConfig::dual_engine()
            .with_telemetry_addr("127.0.0.1:0")
            .with_telemetry_interval_ms(5);
        let db = HybridDatabase::new(config).unwrap();
        db.create_table(item_schema()).unwrap();
        for i in 0..100 {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                .unwrap();
        }
        db.finish_load().unwrap();
        let addr = db.telemetry_addr().expect("listener bound on :0");

        // /metrics: Prometheus text exposition, parse every sample back.
        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let mut samples = 0;
        for line in body.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value: {line}"
            );
            assert!(series.starts_with("olxp_"), "unprefixed series: {line}");
            samples += 1;
        }
        assert!(samples >= 10, "a real exposition: {body}");
        assert!(body.contains("# TYPE olxp_commits_total counter"));
        assert!(body.contains("# TYPE olxp_shards gauge"));
        assert!(body.contains("olxp_statements_total{class=\"oltp\"}"));

        // /healthz: a fresh engine passes every SLO check.
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"healthy\":true"));

        // /snapshot: the full counter snapshot with both slow logs.
        let (status, body) = http_get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"commits\":"));
        assert!(body.contains("\"slow_txns\":["));
        assert!(body.contains("\"slow_queries\":["));

        // /timeseries: wait for the sampler, then fetch the ring.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.telemetry_timeline().is_empty() {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        let (status, body) = http_get(addr, "/timeseries");
        assert_eq!(status, 200);
        assert!(body.contains("\"points\":[{"), "ring has points: {body}");

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        db.shutdown_telemetry();
        assert!(db.telemetry_addr().is_none());
    }

    #[test]
    fn health_degrades_when_slos_are_violated() {
        let db = HybridDatabase::dual_engine();
        assert!(db.health_report().healthy());

        // Stopping a configured background thread flips its liveness check.
        db.shutdown_applier();
        let report = db.health_report();
        assert!(!report.healthy());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "replication_applier" && !c.healthy));

        // The endpoint router mirrors the verdict as 503 without a socket.
        let handler = telemetry::handler_for(&db);
        let resp = handler("/healthz");
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("\"replication_applier\""));
        assert_eq!(handler("/metrics").status, 200, "metrics always serve");

        // A freshness timeout is an SLO violation on its own.
        let db2 = HybridDatabase::dual_engine();
        db2.metrics().add_freshness_timeout();
        let report = db2.health_report();
        assert!(!report.healthy());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "freshness_timeouts" && !c.healthy));
    }

    #[test]
    fn background_compactor_seals_replicated_chunks() {
        // Small time budget: load enough rows to fill several default-size
        // chunks and wait for the compactor to migrate them to main.
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_compression(true)).unwrap();
        db.create_table(item_schema()).unwrap();
        let rows = 3 * olxp_storage::DEFAULT_PRUNE_CHUNK_SIZE as i64;
        for i in 0..rows {
            db.load_row(
                "ITEM",
                Row::new(vec![Value::Int(i), Value::Decimal(i % 16)]),
            )
            .unwrap();
        }
        let table = db.col_table("ITEM").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // Poll the metric (charged after the seal) so every assertion below
        // observes a settled state.
        while db.metrics_snapshot().chunks_compacted < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "compactor failed to seal full chunks (sealed {})",
                table.main_chunk_count()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(table.main_chunk_count() >= 3);
        assert_eq!(table.live_row_count(), rows as usize);
        let snapshot = db.metrics_snapshot();
        assert!(
            snapshot.col_bytes_resident < snapshot.col_bytes_plain,
            "encoded main chunks shrink the resident footprint"
        );
        assert!(snapshot.col_compression_ratio() > 1.0);
    }

    #[test]
    fn explicit_compaction_works_with_the_compactor_disabled() {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_compression(false)).unwrap();
        db.create_table(item_schema()).unwrap();
        let rows = 2 * olxp_storage::DEFAULT_PRUNE_CHUNK_SIZE as i64;
        for i in 0..rows {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i % 4)]))
                .unwrap();
        }
        db.finish_load().unwrap();
        assert_eq!(db.col_table("ITEM").unwrap().main_chunk_count(), 0);
        assert_eq!(db.compact_columnar(), 2);
        assert_eq!(db.col_table("ITEM").unwrap().main_chunk_count(), 2);
        assert_eq!(db.metrics_snapshot().chunks_compacted, 2);
    }

    #[test]
    fn analytical_routing_follows_configured_percentage() {
        let mut config = EngineConfig::dual_engine();
        config.analytical_rowstore_percent = 25;
        let db = HybridDatabase::new(config).unwrap();
        let row_routed = (0..100)
            .filter(|_| db.route_analytical() == AnalyticalRoute::RowStore)
            .count();
        assert_eq!(row_routed, 25);
        let single = HybridDatabase::single_engine();
        assert_eq!(single.route_analytical(), AnalyticalRoute::RowStore);
    }

    #[test]
    fn charge_accumulates_metrics() {
        let db = HybridDatabase::new(
            EngineConfig::single_engine()
                .with_nodes(1)
                .with_time_scale(0.0),
        )
        .unwrap();
        let (oltp, olap) = (WorkClass::Oltp, WorkClass::Olap);
        db.model()
            .charge(oltp, Work::WriteStatement { table: "T", txn: 1 });
        db.model().charge(
            olap,
            Work::FullScan {
                table: "T",
                rows: 10,
            },
        );
        let cost = db.config().cost;
        let snapshot = db.metrics_snapshot();
        assert_eq!(
            snapshot.busy_nanos[0],
            cost.statement_overhead_ns + cost.mem_point_read_ns
        );
        assert_eq!(
            snapshot.busy_nanos[1],
            cost.statement_overhead_ns + 10 * cost.mem_scan_row_ns
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = EngineConfig::dual_engine().with_nodes(0);
        assert!(HybridDatabase::new(bad).is_err());
        let bad = EngineConfig::dual_engine().with_shards(0);
        assert!(HybridDatabase::new(bad).is_err());
    }

    #[test]
    fn lock_overhead_is_zero_without_work() {
        let db = HybridDatabase::single_engine();
        assert_eq!(db.lock_overhead(), 0.0);
    }

    fn temp_dir(tag: &str) -> String {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("olxp-db-{tag}-{}-{nanos}", std::process::id()));
        dir.display().to_string()
    }

    fn durable_config(dir: &str) -> EngineConfig {
        crate::config::EngineConfig::dual_engine()
            .with_time_scale(0.0)
            .with_durability(crate::config::DurabilityConfig::at(dir))
    }

    #[test]
    fn durable_load_crash_reopen_recovers_rows() {
        let dir = temp_dir("load");
        {
            let db = HybridDatabase::open(durable_config(&dir)).unwrap();
            assert!(db.is_durable());
            db.create_table(item_schema()).unwrap();
            for i in 0..50 {
                db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                    .unwrap();
            }
            db.finish_load().unwrap();
            db.simulate_crash();
        }
        let db = HybridDatabase::open(durable_config(&dir)).unwrap();
        let report = db.recovery_report().expect("durable open reports recovery");
        assert_eq!(db.total_live_rows(), 50);
        assert_eq!(report.tables_recovered, 1);
        assert_eq!(report.replication_reseeded, 50);
        assert_eq!(db.replication_lag(), 0, "replicas converge during open");
        assert_eq!(db.col_table("ITEM").unwrap().live_row_count(), 50);
        assert!(
            report.wal_records_scanned > 0,
            "recovery scanned the WAL tail"
        );
        // New work after recovery keeps appending above the replayed LSNs.
        db.load_row("ITEM", Row::new(vec![Value::Int(50), Value::Decimal(50)]))
            .unwrap();
        assert!(db.metrics_snapshot().wal.appends > 0);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_durable_crash_reopen_recovers_every_partition() {
        let dir = temp_dir("shardload");
        let config = || durable_config(&dir).with_shards(4);
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(item_schema()).unwrap();
            for i in 0..60 {
                db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                    .unwrap();
            }
            db.finish_load().unwrap();
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(db.total_live_rows(), 60);
        assert_eq!(report.wal_txns_replayed, 60);
        assert_eq!(report.replication_reseeded, 60);
        assert_eq!(db.col_table("ITEM").unwrap().live_row_count(), 60);
        let ts = db.txn_manager().oracle().read_ts();
        for i in 0..60i64 {
            let key = Key::int(i);
            assert!(
                db.row_partition(db.shard_for("ITEM", &key), "ITEM")
                    .unwrap()
                    .get(&key, ts)
                    .is_some(),
                "row {i} recovered into its owning shard"
            );
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = temp_dir("ckpt");
        {
            let db = HybridDatabase::open(durable_config(&dir)).unwrap();
            db.create_table(item_schema()).unwrap();
            for i in 0..20 {
                db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                    .unwrap();
            }
            db.finish_load().unwrap();
            let lsn = db.checkpoint().unwrap();
            assert!(lsn > 0);
            assert_eq!(db.metrics_snapshot().wal.checkpoints, 1);
            db.simulate_crash();
        }
        let db = HybridDatabase::open(durable_config(&dir)).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.checkpoint_rows, 20, "rows come from the checkpoint");
        assert_eq!(report.wal_txns_replayed, 0, "nothing after the checkpoint");
        assert_eq!(db.total_live_rows(), 20);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_checkpoint_records_every_shards_cut() {
        let dir = temp_dir("shardckpt");
        let config = || durable_config(&dir).with_shards(2);
        {
            let db = HybridDatabase::open(config()).unwrap();
            db.create_table(item_schema()).unwrap();
            for i in 0..30 {
                db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                    .unwrap();
            }
            db.finish_load().unwrap();
            db.checkpoint().unwrap();
            // Post-checkpoint writes replay from the per-shard WAL tails.
            for i in 30..40 {
                db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                    .unwrap();
            }
            db.finish_load().unwrap();
            db.simulate_crash();
        }
        let db = HybridDatabase::open(config()).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.checkpoint_rows, 30);
        assert_eq!(report.wal_txns_replayed, 10);
        assert_eq!(db.total_live_rows(), 40);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_durability() {
        let db = HybridDatabase::single_engine();
        assert!(!db.is_durable());
        assert!(db.recovery_report().is_none());
        assert!(matches!(db.checkpoint(), Err(EngineError::Config(_))));
        assert_eq!(db.wal_metrics(), crate::metrics::WalMetrics::default());
    }
}
