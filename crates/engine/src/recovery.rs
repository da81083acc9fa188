//! Checkpoints and crash recovery.
//!
//! A checkpoint is a consistent snapshot of every row at one commit
//! timestamp, tagged with each shard's WAL cut.  Opening a durable database
//! loads the newest checkpoint, replays every shard's WAL tail above its cut
//! and reports what it rebuilt in a [`RecoveryReport`].

use crate::database::HybridDatabase;
use crate::error::{EngineError, EngineResult};
use crate::shard::shard_of;
use olxp_storage::checkpoint::write_checkpoint;
use olxp_storage::wal::{ReplayedRecord, WalReplay};
use olxp_storage::{
    CheckpointData, Key, Row, TableCheckpoint, TableSchema, Timestamp, WalOp, WalRecord,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;

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

impl HybridDatabase {
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
        let every = self.config().durability.checkpoint_every_records;
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
        let data_dir = self
            .config()
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
            (self.txn_manager().oracle().read_ts(), cuts)
        };
        // The MVCC snapshot at `ckpt_ts` is stable after the gates are
        // released: later commits carry strictly larger timestamps.
        let mut tables = Vec::new();
        for schema in self.catalog().tables() {
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

    /// Simulate a crash: stop the appliers and the compactor and discard all
    /// process state the OS would lose on a kill — nothing buffered in any
    /// WAL is flushed, and the clean-shutdown flush on drop is suppressed.
    /// Everything a [`crate::Session::commit`] acknowledged under a syncing
    /// policy is already on disk and survives a subsequent
    /// [`HybridDatabase::open`].
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
    pub(crate) fn recover(
        &self,
        checkpoint: Option<CheckpointData>,
        replays: Vec<WalReplay>,
    ) -> EngineResult<RecoveryReport> {
        let shard_count = self.shards.len();
        let catalog = self.catalog();
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
                let schema = catalog.table(table.schema.name())?;
                for row in table.rows {
                    schema.validate_row(&row)?;
                    let key = schema.primary_key_of(&row);
                    let shard = shard_of(schema.name(), &key, shard_count);
                    self.row_partition(shard, schema.name())?
                        .install(key, Some(row), load_ts);
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
                        if lsn > cuts[shard] && !catalog.contains(schema.name()) {
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
        let oracle = self.txn_manager().oracle();
        oracle.advance_to(max_ts);
        let reseed_ts = oracle.read_ts();
        for schema in catalog.tables() {
            for (shard, part) in self.row_partitions(schema.name())?.iter().enumerate() {
                part.scan(reseed_ts, |key, row| {
                    self.shards[shard].replication.append(WalOp {
                        table: schema.name().to_string(),
                        key: key.clone(),
                        row: Some(Row::clone(row)),
                    });
                });
            }
        }
        let mut applied = 0;
        for shard in &self.shards {
            applied += shard.replicator.lock().catch_up()?;
        }
        self.metrics().add_replication_applied(applied as u64);
        report.replication_reseeded = applied as u64;
        report.tables_recovered = catalog.len() as u64;
        Ok(report)
    }

    /// Apply one replayed mutation at its original commit timestamp to the
    /// shard partition owning its key.
    ///
    /// Idempotent against checkpoint overlap: a key whose newest version is
    /// already at or above the mutation's timestamp is left untouched (the
    /// checkpoint captured that transaction's effect), and a tombstone of a
    /// key with no version is a no-op.  An image read back from disk is
    /// checked against its schema and key before it is installed.
    fn recover_apply(&self, op: &WalOp, commit_ts: Timestamp) -> EngineResult<()> {
        let row_table = self.row_partition(self.shard_for(&op.table, &op.key), &op.table)?;
        let latest = row_table.latest_commit_ts(&op.key);
        if latest.is_some_and(|latest| latest >= commit_ts) {
            return Ok(());
        }
        match &op.row {
            Some(row) => row_table.schema().validate_image(&op.key, row)?,
            None if latest.is_none() => return Ok(()),
            None => {}
        }
        row_table.install(op.key.clone(), op.row.clone(), commit_ts);
        Ok(())
    }
}
