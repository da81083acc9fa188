//! Hash partitions of the write path.
//!
//! Each [`Shard`] owns a `RowTable` partition of every table, a replication
//! log and applier feeding the shared columnar replicas, an optional WAL
//! stream and the commit gate.  [`shard_of`] routes a key to its shard, and
//! the `HybridDatabase` accessors here read the partitions.

use crate::background::Worker;
use crate::config::EngineConfig;
use crate::database::HybridDatabase;
use crate::error::{EngineError, EngineResult};
use crate::model::Placement;
use olxp_storage::wal::WalReplay;
use olxp_storage::{Key, ReplicationLog, Replicator, Row, RowTable, Timestamp, Wal};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::Arc;

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
pub(crate) struct Shard {
    pub(crate) row_tables: RwLock<Arc<HashMap<String, Arc<RowTable>>>>,
    pub(crate) replication: Arc<ReplicationLog>,
    pub(crate) replicator: Arc<Mutex<Replicator>>,
    pub(crate) applier: Worker,
    pub(crate) wal: Option<Arc<Wal>>,
    /// Commits hold this for read across [WAL append .. commit marker]; the
    /// checkpointer takes every shard's gate for write to pick a consistent
    /// `(commit_ts, per-shard LSN)` cut with no transaction mid-flight.
    pub(crate) commit_gate: RwLock<()>,
}

impl Shard {
    /// Shard `index` of `config.shards`, with its WAL stream opened (and
    /// replayed) when the engine is durable.
    pub(crate) fn open(
        index: usize,
        config: &EngineConfig,
    ) -> EngineResult<(Shard, Option<WalReplay>)> {
        let durability = &config.durability;
        let (wal, replay) = match durability.data_dir.as_deref() {
            Some(dir) => {
                let stream = wal_stream(index, config.shards);
                let (wal, replay) =
                    Wal::open_named(dir, &stream, durability.sync, durability.segment_bytes)?;
                (Some(Arc::new(wal)), Some(replay))
            }
            None => (None, None),
        };
        let replication = Arc::new(ReplicationLog::new());
        let replicator = Arc::new(Mutex::new(Replicator::new(Arc::clone(&replication))));
        let shard = Shard {
            row_tables: RwLock::new(Arc::new(HashMap::new())),
            applier: Worker::default(),
            replication,
            replicator,
            wal,
            commit_gate: RwLock::new(()),
        };
        Ok((shard, replay))
    }
}

impl HybridDatabase {
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
        let ts = self.txn_manager().oracle().read_ts();
        Ok(self
            .row_partitions(table)?
            .iter()
            .map(|p| p.live_row_count(ts))
            .sum())
    }

    /// Total number of live rows across all shards and row tables (for
    /// sanity checks).
    pub fn total_live_rows(&self) -> usize {
        let ts = self.txn_manager().oracle().read_ts();
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
}
