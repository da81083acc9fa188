//! The HTAP database facade.
//!
//! The write path is hash-partitioned into N engine shards (see
//! `shard.rs`): each owns its own `RowTable` partition of every table, its
//! own replication log and applier feeding the shared columnar replicas, its
//! own segmented WAL stream (`wal-shard<K>-<seq>.seg`) and its own commit
//! gate.  The timestamp oracle and the transaction manager's one lock table
//! stay global: the oracle is the single commit-timestamp authority, so
//! snapshots remain consistent across shards.  `shards = 1` is behaviorally
//! identical to the unsharded engine (including WAL file names).
//!
//! Checkpoints and crash recovery live in `recovery.rs`, and the applier,
//! compactor and sampler threads share one lifecycle in `background.rs`.

use crate::background::{self, Worker};
use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::metrics::{EngineMetrics, MetricsSnapshot, WalMetrics};
use crate::model::Model;
use crate::session::{CommitCtx, Session};
use crate::shard::Shard;
use crate::telemetry::{self, HealthReport, TelemetryPoint, TelemetryState};
use olxp_storage::checkpoint::load_latest_checkpoint;
use olxp_storage::{
    Catalog, ColumnTable, MemoryFootprint, Row, RowTable, StorageError, TableSchema, WalOp,
    WalStatsSnapshot,
};
use olxp_trace::TelemetryServer;
use olxp_txn::TransactionManager;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::recovery::RecoveryReport;
pub use crate::shard::shard_of;

/// Which physical store a standalone analytical query is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticalRoute {
    /// Served by the row store (TiKV-style scan).
    RowStore,
    /// Served by the columnar replicas (TiFlash-style scan).
    ColumnStore,
}

/// Shared columnar replica map (see `HybridDatabase::col_tables` for why the
/// container itself is reference-counted).
pub(crate) type SharedColumnTables = Arc<RwLock<Arc<HashMap<String, Arc<ColumnTable>>>>>;

/// An in-process HTAP database instance configured as one of the paper's
/// architectural archetypes.
///
/// The database owns the catalog, the sharded row store, the columnar
/// replicas, the per-shard replication pipelines, the transaction manager,
/// the performance model and the engine metrics.  Benchmark threads interact
/// with it through [`Session`]s obtained from [`HybridDatabase::session`].
///
/// Opening the database spawns one dedicated applier thread per shard that
/// continuously drains the shard's replication log into the columnar
/// replicas — the "background process" behind TiDB's asynchronous log
/// replication, and the only thing that applies replication while the engine
/// runs.  Each thread parks when its log is empty, wakes on append, and is
/// joined when the last reference to the database is dropped.
pub struct HybridDatabase {
    config: EngineConfig,
    catalog: Catalog,
    pub(crate) shards: Vec<Shard>,
    /// Shared columnar replicas.  The outer `Arc` lets the background
    /// compactor hold the *container* without holding the database (no
    /// `Arc` cycle), so tables installed after the thread starts are still
    /// picked up on its next sweep.
    col_tables: SharedColumnTables,
    txn_mgr: TransactionManager,
    model: Model,
    metrics: Arc<EngineMetrics>,
    olap_route_counter: AtomicU64,
    /// What recovery rebuilt when this database was opened (durable engines).
    recovery: Mutex<Option<RecoveryReport>>,
    /// WAL records logged since the last checkpoint (drives auto-checkpoints).
    pub(crate) wal_records_since_ckpt: AtomicU64,
    /// Guards against concurrent auto-checkpoints.
    pub(crate) checkpointing: AtomicBool,
    pub(crate) checkpoints_taken: AtomicU64,
    pub(crate) checkpoint_failures: AtomicU64,
    /// The delta compactor.  Its signal is what the appliers notify when
    /// they grow a delta tail.
    compactor: Worker,
    /// Sampler ring, SLO flags and the telemetry time axis.  Always present —
    /// idle when the sampler is disabled.
    telemetry_state: Arc<TelemetryState>,
    /// The metrics sampler (started when
    /// [`EngineConfig::telemetry_interval_ms`] is non-zero).
    sampler: Worker,
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
        let checkpoint = match config.durability.data_dir.as_deref() {
            Some(dir) => load_latest_checkpoint(Path::new(dir))?,
            None => None,
        };
        let mut shards = Vec::with_capacity(shard_count);
        let mut replays = Vec::new();
        for index in 0..shard_count {
            let (shard, replay) = Shard::open(index, &config)?;
            shards.push(shard);
            replays.extend(replay);
        }
        let metrics = Arc::new(EngineMetrics::with_shards(shard_count));
        let model = Model::new(&config, Arc::clone(&metrics));
        let txn_mgr = TransactionManager::new();
        // Transaction ids name WAL records on every shard stream: recovery
        // keys its committed-transaction map by them, so new ones start past
        // every id already logged.
        txn_mgr.resume_txn_ids_after(replays.iter().map(|r| r.max_txn_id).max().unwrap_or(0));
        let db = Arc::new(HybridDatabase {
            config,
            catalog: Catalog::new(),
            shards,
            col_tables: Arc::new(RwLock::new(Arc::new(HashMap::new()))),
            txn_mgr,
            model,
            metrics,
            olap_route_counter: AtomicU64::new(0),
            recovery: Mutex::new(None),
            wal_records_since_ckpt: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            checkpoints_taken: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            compactor: Worker::default(),
            telemetry_state: Arc::new(TelemetryState::new()),
            sampler: Worker::default(),
            telemetry_http: Mutex::new(None),
        });
        if db.is_durable() {
            let report = db.recover(checkpoint, replays)?;
            *db.recovery.lock() = Some(report);
        }
        for (index, shard) in db.shards.iter().enumerate() {
            let log = Arc::clone(&shard.replication);
            let replicator = Arc::clone(&shard.replicator);
            let (metrics, compactor) = (Arc::clone(&db.metrics), db.compactor.signal());
            let name = format!("olxp-replication-applier-{index}");
            shard.applier.start(name, move |signal| {
                background::apply(signal, index, &log, &replicator, &metrics, &compactor)
            });
        }
        let (tables, metrics) = (Arc::clone(&db.col_tables), Arc::clone(&db.metrics));
        db.compactor
            .start("olxp-delta-compactor".into(), move |signal| {
                background::compact(signal, &tables, &metrics)
            });
        if db.config.telemetry_interval_ms > 0 {
            let sampler = telemetry::sampler(&db);
            db.sampler.start("olxp-telemetry-sampler".into(), sampler);
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
        self.sampler.running()
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
        let wal_stats = self.wal_stats();
        snapshot.wal = self.merge_wal_stats(&wal_stats);
        snapshot.shards = self.shards.len() as u64;
        for (entry, stats) in snapshot.per_shard.iter_mut().zip(&wal_stats) {
            let Some(stats) = stats else { continue };
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
        self.merge_wal_stats(&self.wal_stats())
    }

    /// Each shard's WAL counters, read once (`None` for a shard without a
    /// WAL stream).
    fn wal_stats(&self) -> Vec<Option<WalStatsSnapshot>> {
        self.shards
            .iter()
            .map(|shard| shard.wal.as_ref().map(|wal| wal.stats()))
            .collect()
    }

    /// The cross-shard merge behind [`Self::wal_metrics`].
    fn merge_wal_stats(&self, wal_stats: &[Option<WalStatsSnapshot>]) -> WalMetrics {
        if !self.is_durable() {
            return WalMetrics::default();
        }
        let mut m = WalMetrics {
            checkpoints: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            ..WalMetrics::default()
        };
        for stats in wal_stats.iter().flatten() {
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
    pub(crate) fn install_table(&self, schema: TableSchema) -> EngineResult<()> {
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

    /// Shared snapshot of the columnar replicas.
    pub fn col_tables(&self) -> Arc<HashMap<String, Arc<ColumnTable>>> {
        Arc::clone(&self.col_tables.read())
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
    /// is not throttled to one fsync per row.  The row is checked against its
    /// schema; a second row under the same key replaces the first.
    pub fn load_row(&self, table: &str, row: Row) -> EngineResult<()> {
        let schema = self.catalog.table(table)?;
        schema.validate_row(&row)?;
        let key = schema.primary_key_of(&row);
        let at = [self.model.place(table, &key)];
        let op = [WalOp {
            table: table.to_string(),
            key,
            row: Some(row),
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
    // Replication and background workers
    // ------------------------------------------------------------------

    /// True while every shard's dedicated background applier thread is
    /// running: a thread that exited or panicked on any shard reads false.
    pub fn has_background_applier(&self) -> bool {
        self.shards.iter().all(|shard| shard.applier.running())
    }

    /// Stop every shard's background applier thread and wait for it to exit.
    /// Nothing applies replication afterwards: eventual reads serve the
    /// replica as of the stop and bounded reads time out.  Idempotent; also
    /// invoked on drop.
    pub fn shutdown_applier(&self) {
        for shard in &self.shards {
            // The applier parks on its log, which appends wake; wake it too.
            let log = &shard.replication;
            shard.applier.stop_waking(|| log.notify_waiters());
        }
    }

    /// True while the background delta-compactor thread is running (false
    /// once it has exited or panicked).
    pub fn has_background_compactor(&self) -> bool {
        self.compactor.running()
    }

    /// Stop the background delta-compactor thread and wait for it to exit.
    /// Delta chunks stop migrating to the compressed main tier (explicit
    /// [`Self::compact_columnar`] calls still work).  Idempotent; also
    /// invoked on drop.
    pub fn shutdown_compactor(&self) {
        self.compactor.stop();
    }

    /// Stop the telemetry sampler thread and the embedded HTTP listener.
    /// The retained timeline stays readable.  Idempotent; also invoked on
    /// drop.
    pub fn shutdown_telemetry(&self) {
        if let Some(mut server) = self.telemetry_http.lock().take() {
            server.shutdown();
        }
        self.sampler.stop();
    }

    /// Synchronously seal every full delta chunk of every columnar replica
    /// into the compressed main tier — the same migration the background
    /// compactor performs continuously.  Returns the number of chunks sealed.
    /// Used by benchmarks that want a settled store before measuring and
    /// after [`Self::shutdown_compactor`].
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

    /// Record a commit.  The append already woke the owning shard's applier.
    pub fn note_commit(&self) {
        self.metrics.add_commit();
    }

    /// Record an abort.
    pub fn note_abort(&self) {
        self.metrics.add_abort();
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
    use olxp_storage::{ColumnDef, DataType, Key, Value};
    use std::time::Duration;

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
        let partitions = db.row_partitions("ITEM").unwrap();
        assert_eq!(partitions.len(), db.shard_count());
        assert!(db.col_table("ITEM").is_ok());
        assert!(matches!(
            db.row_partitions("NOPE"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn load_rows_replicate_to_column_store() {
        // Stop the background applier so the pre-finish_load lag is
        // deterministic.
        let db = HybridDatabase::dual_engine();
        db.shutdown_applier();
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
    fn one_lock_table_counts_the_lock_waits_of_every_shard() {
        let config = EngineConfig::dual_engine().with_time_scale(0.0);
        let db = HybridDatabase::new(config.with_shards(4)).unwrap();
        db.create_table(item_schema()).unwrap();
        let session = db.session();
        for batch in 0..8i64 {
            let mut txn = session.begin(WorkClass::Oltp);
            for i in batch * 8..(batch + 1) * 8 {
                let row = Row::new(vec![Value::Int(i), Value::Decimal(i)]);
                session.insert(&mut txn, "ITEM", row).unwrap();
            }
            session.commit(txn).unwrap();
        }
        let locks = db.txn_manager().stats().locks;
        let snap = db.metrics_snapshot();
        let per_shard: Vec<u64> = snap.per_shard.iter().map(|s| s.lock_waits).collect();
        assert_eq!(locks.acquisitions, 64);
        assert_eq!(snap.lock_waits, locks.acquisitions);
        assert_eq!(per_shard.iter().sum::<u64>(), locks.acquisitions);
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "the writes land on all four shards: {per_shard:?}"
        );
    }

    #[test]
    fn sharded_engine_partitions_rows_and_merges_scans() {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_shards(4)).unwrap();
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
        let db = HybridDatabase::dual_engine();
        assert!(db.has_background_compactor());
        db.shutdown_compactor();
        assert!(!db.has_background_compactor());
        db.shutdown_compactor(); // idempotent
        drop(db);
    }

    /// The named `/healthz` check's verdict and the handler's `/healthz` status.
    fn healthz(db: &Arc<HybridDatabase>, check: &str) -> (bool, u16) {
        let report = db.health_report();
        let verdict = report.checks.iter().find(|c| c.name == check).unwrap();
        let handler = telemetry::handler_for(db);
        (verdict.healthy, handler("/healthz").status)
    }

    /// Opens a database with every background worker, ends one thread behind
    /// the database's back with `halt` (its handle stays stored, as when a
    /// thread exits or panics on its own), and checks that `/healthz` turns
    /// unhealthy on `check` and that `shutdown` and drop still join.
    fn healthz_fails_when_worker_exits(
        check: &str,
        halt: fn(&HybridDatabase),
        running: fn(&HybridDatabase) -> bool,
        shutdown: fn(&HybridDatabase),
    ) {
        let config = EngineConfig::dual_engine()
            .with_shards(4)
            .with_telemetry_interval_ms(5);
        let db = HybridDatabase::new(config).unwrap();
        assert!(running(&db));
        assert_eq!(healthz(&db, check), (true, 200));
        halt(&db);
        assert!(!running(&db));
        assert_eq!(healthz(&db, check), (false, 503));
        shutdown(&db); // joins the exited thread whose handle was kept
        assert!(!running(&db));
        drop(db);
    }

    #[test]
    fn healthz_fails_when_one_shards_applier_has_exited() {
        healthz_fails_when_worker_exits(
            "replication_applier",
            |db| {
                let (applier, log) = (&db.shards[2].applier, &db.shards[2].replication);
                applier.halt_for_test(|| log.notify_waiters());
            },
            HybridDatabase::has_background_applier,
            HybridDatabase::shutdown_applier,
        );
    }

    #[test]
    fn healthz_fails_when_the_compactor_has_exited() {
        healthz_fails_when_worker_exits(
            "delta_compactor",
            |db| db.compactor.halt_for_test(|| {}),
            HybridDatabase::has_background_compactor,
            HybridDatabase::shutdown_compactor,
        );
    }

    #[test]
    fn healthz_fails_when_the_telemetry_sampler_has_exited() {
        healthz_fails_when_worker_exits(
            "telemetry_sampler",
            |db| db.sampler.halt_for_test(|| {}),
            HybridDatabase::has_telemetry_sampler,
            HybridDatabase::shutdown_telemetry,
        );

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

        // /snapshot: the full counter snapshot.
        let (status, body) = http_get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"commits\":"));

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
        let db = HybridDatabase::dual_engine();
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
        let db = HybridDatabase::dual_engine();
        db.shutdown_compactor();
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
    fn idle_workers_stop_promptly_under_a_long_sampling_interval() {
        let config = EngineConfig::dual_engine().with_telemetry_interval_ms(60_000);
        let db = HybridDatabase::new(config).unwrap();
        assert!(db.has_background_applier() && db.has_background_compactor());
        assert!(db.has_telemetry_sampler());
        // Let every worker reach its idle park.
        std::thread::sleep(Duration::from_millis(20));
        let limit = Duration::from_millis(250);
        let started = std::time::Instant::now();
        db.shutdown_telemetry();
        assert!(
            started.elapsed() < limit,
            "sampler: {:?}",
            started.elapsed()
        );
        let started = std::time::Instant::now();
        drop(db);
        assert!(started.elapsed() < limit, "drop: {:?}", started.elapsed());
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
