//! Transaction manager.

use crate::error::{TxnError, TxnResult};
use crate::isolation::IsolationLevel;
use crate::locks::{LockManager, LockStatsSnapshot};
use crate::oracle::TimestampOracle;
use crate::transaction::{Transaction, TxnState};
use crate::TxnId;
use olxp_storage::{Key, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate transaction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxnManagerStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (conflicts, wait-die, explicit rollback).
    pub aborted: u64,
    /// Lock-manager counters.
    pub locks: LockStatsSnapshot,
}

/// Coordinates transaction begin/commit/abort, timestamps and locks.
///
/// One manager is shared by every session of an engine node.  When the engine
/// hash-partitions its storage into shards, the manager holds one independent
/// lock table per shard: a transaction only touches the lock tables of the
/// shards its keys route to, so single-shard transactions never contend on a
/// shared lock structure.  The timestamp oracle stays global — it is the
/// single commit-timestamp authority across all shards.
#[derive(Debug)]
pub struct TransactionManager {
    oracle: Arc<TimestampOracle>,
    locks: Vec<Arc<LockManager>>,
    next_txn_id: AtomicU64,
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
}

impl TransactionManager {
    /// Create a manager with a default lock-wait timeout and one lock table.
    pub fn new() -> TransactionManager {
        TransactionManager::with_lock_timeout(Duration::from_millis(500))
    }

    /// Create a manager with an explicit lock-wait timeout and one lock table.
    pub fn with_lock_timeout(timeout: Duration) -> TransactionManager {
        TransactionManager::with_shards(timeout, 1)
    }

    /// Create a manager with one independent lock table per storage shard.
    pub fn with_shards(timeout: Duration, shards: usize) -> TransactionManager {
        let shards = shards.max(1);
        TransactionManager {
            oracle: Arc::new(TimestampOracle::new()),
            locks: (0..shards)
                .map(|_| Arc::new(LockManager::with_timeout(timeout)))
                .collect(),
            next_txn_id: AtomicU64::new(1),
            begun: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The shared timestamp oracle.
    pub fn oracle(&self) -> &Arc<TimestampOracle> {
        &self.oracle
    }

    /// The first shard's lock manager (the only one in unsharded setups).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks[0]
    }

    /// The lock table owned by storage shard `shard`.
    pub fn locks_for_shard(&self, shard: usize) -> &Arc<LockManager> {
        &self.locks[shard]
    }

    /// Number of per-shard lock tables.
    pub fn lock_shards(&self) -> usize {
        self.locks.len()
    }

    /// Begin a transaction at the given isolation level.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let id = self.next_txn_id.fetch_add(1, Ordering::SeqCst);
        self.begun.fetch_add(1, Ordering::Relaxed);
        Transaction::new(id, isolation, self.oracle.read_ts())
    }

    /// A fresh id from the sequence [`Self::begin`] draws from, without
    /// beginning (or counting) a transaction: bulk loading logs each row
    /// under one, so every id names one unit of work in spans, WAL and logs.
    pub fn load_txn_id(&self) -> TxnId {
        self.next_txn_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Fast-forward the id sequence past `id`, so no later transaction reuses
    /// an id already in the WAL.  Recovery calls it with the largest id it
    /// replayed; never moves backwards.
    pub fn resume_txn_ids_after(&self, id: TxnId) {
        self.next_txn_id
            .fetch_max(id.saturating_add(1), Ordering::SeqCst);
    }

    /// The snapshot a statement of `txn` should read from.
    ///
    /// Repeatable read pins the begin snapshot; read committed refreshes the
    /// snapshot for every statement.
    pub fn statement_read_ts(&self, txn: &Transaction) -> Timestamp {
        if txn.isolation().snapshot_per_transaction() {
            txn.begin_read_ts()
        } else {
            self.oracle.read_ts()
        }
    }

    /// Acquire the exclusive row lock `(table, key)` for `txn` in the first
    /// shard's lock table.
    pub fn lock_for_write(&self, txn: &mut Transaction, table: &str, key: &Key) -> TxnResult<()> {
        self.lock_for_write_on(0, txn, table, key)
    }

    /// Acquire the exclusive row lock `(table, key)` for `txn` in the lock
    /// table of storage shard `shard`.  The caller is responsible for
    /// routing: the same `(table, key)` must always be locked on the same
    /// shard.
    pub fn lock_for_write_on(
        &self,
        shard: usize,
        txn: &mut Transaction,
        table: &str,
        key: &Key,
    ) -> TxnResult<()> {
        if !txn.is_active() {
            return Err(TxnError::InvalidState {
                operation: "write in",
                state: txn.state_name(),
            });
        }
        self.locks[shard].lock_exclusive(txn.id(), table, key)?;
        Ok(())
    }

    fn release_everywhere(&self, txn_id: u64) {
        for locks in &self.locks {
            locks.release_all(txn_id);
        }
    }

    fn summed_lock_stats(&self) -> LockStatsSnapshot {
        let mut total = LockStatsSnapshot::default();
        for locks in &self.locks {
            let s = locks.stats();
            total.acquisitions += s.acquisitions;
            total.contended += s.contended;
            total.wait_die_aborts += s.wait_die_aborts;
            total.timeouts += s.timeouts;
            total.wait_nanos += s.wait_nanos;
        }
        total
    }

    /// Allocate a commit timestamp for `txn` *without* finishing it.
    ///
    /// The engine validates snapshot-isolation write conflicts beforehand,
    /// uses this to install the write set into storage stamped with the
    /// commit timestamp while still holding the transaction's locks, and then
    /// calls [`Self::finish_commit`].  Splitting the two steps closes the
    /// window in which another snapshot could observe the commit timestamp but
    /// not yet the installed versions.
    pub fn prepare_commit(&self, txn: &Transaction) -> TxnResult<Timestamp> {
        if !txn.is_active() {
            return Err(TxnError::InvalidState {
                operation: "commit",
                state: txn.state_name(),
            });
        }
        Ok(self.oracle.commit_ts())
    }

    /// Mark `txn` committed and release its locks (the write set has already
    /// been applied by the caller using the timestamp from
    /// [`Self::prepare_commit`]).
    pub fn finish_commit(&self, txn: &mut Transaction) -> TxnResult<()> {
        if !txn.is_active() {
            return Err(TxnError::InvalidState {
                operation: "commit",
                state: txn.state_name(),
            });
        }
        txn.mark_committed();
        self.release_everywhere(txn.id());
        self.committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Abort `txn` and release its locks.  Idempotent for already-finished
    /// transactions.
    pub fn abort(&self, txn: &mut Transaction) {
        if txn.state() == TxnState::Active {
            txn.mark_aborted();
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
        self.release_everywhere(txn.id());
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TxnManagerStats {
        TxnManagerStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            locks: self.summed_lock_stats(),
        }
    }
}

impl Default for TransactionManager {
    fn default() -> Self {
        TransactionManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's two-step commit with nothing installed in between.
    fn commit(mgr: &TransactionManager, txn: &mut Transaction) -> TxnResult<Timestamp> {
        let ts = mgr.prepare_commit(txn)?;
        mgr.finish_commit(txn)?;
        Ok(ts)
    }

    #[test]
    fn begin_assigns_increasing_ids_and_snapshots() {
        let mgr = TransactionManager::new();
        let a = mgr.begin(IsolationLevel::RepeatableRead);
        let b = mgr.begin(IsolationLevel::RepeatableRead);
        assert!(b.id() > a.id());
        assert!(b.begin_read_ts() >= a.begin_read_ts());
    }

    #[test]
    fn load_ids_share_the_begin_sequence_and_resume_past_recovery() {
        let mgr = TransactionManager::new();
        let loaded = mgr.load_txn_id();
        assert!(mgr.begin(IsolationLevel::RepeatableRead).id() > loaded);
        assert_eq!(mgr.stats().begun, 1, "a load id begins no transaction");
        mgr.resume_txn_ids_after(100);
        mgr.resume_txn_ids_after(5); // never rewinds
        assert_eq!(mgr.load_txn_id(), 101);
    }

    #[test]
    fn repeatable_read_pins_snapshot_read_committed_refreshes() {
        let mgr = TransactionManager::new();
        let rr = mgr.begin(IsolationLevel::RepeatableRead);
        let rc = mgr.begin(IsolationLevel::ReadCommitted);
        let before_rr = mgr.statement_read_ts(&rr);
        let before_rc = mgr.statement_read_ts(&rc);
        // Another transaction commits, advancing the clock.
        let mut other = mgr.begin(IsolationLevel::RepeatableRead);
        commit(&mgr, &mut other).unwrap();
        assert_eq!(mgr.statement_read_ts(&rr), before_rr);
        assert!(mgr.statement_read_ts(&rc) > before_rc);
    }

    #[test]
    fn commit_releases_locks_and_counts() {
        let mgr = TransactionManager::new();
        let mut txn = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut txn, "ITEM", &Key::int(1)).unwrap();
        assert_eq!(mgr.locks().held_by(txn.id()), 1);
        let ts = commit(&mgr, &mut txn).unwrap();
        assert!(ts > 0);
        assert_eq!(mgr.locks().held_by(txn.id()), 0);
        assert_eq!(mgr.stats().committed, 1);
    }

    #[test]
    fn double_commit_is_rejected() {
        let mgr = TransactionManager::new();
        let mut txn = mgr.begin(IsolationLevel::ReadCommitted);
        commit(&mgr, &mut txn).unwrap();
        assert!(matches!(
            commit(&mgr, &mut txn),
            Err(TxnError::InvalidState { .. })
        ));
    }

    #[test]
    fn abort_releases_locks_and_is_idempotent() {
        let mgr = TransactionManager::new();
        let mut txn = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut txn, "ITEM", &Key::int(1)).unwrap();
        mgr.abort(&mut txn);
        mgr.abort(&mut txn);
        assert_eq!(mgr.stats().aborted, 1);
        assert_eq!(mgr.locks().held_by(txn.id()), 0);
        assert!(matches!(
            mgr.lock_for_write(&mut txn, "ITEM", &Key::int(2)),
            Err(TxnError::InvalidState { .. })
        ));
    }

    #[test]
    fn prepare_then_finish_commit_keeps_locks_until_finish() {
        let mgr = TransactionManager::new();
        let mut txn = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut txn, "ITEM", &Key::int(1)).unwrap();
        let ts = mgr.prepare_commit(&txn).unwrap();
        assert!(ts > txn.begin_read_ts());
        assert_eq!(mgr.locks().held_by(txn.id()), 1, "locks survive prepare");
        mgr.finish_commit(&mut txn).unwrap();
        assert_eq!(mgr.locks().held_by(txn.id()), 0);
        assert_eq!(mgr.stats().committed, 1);
        assert!(mgr.finish_commit(&mut txn).is_err());
    }

    #[test]
    fn sharded_lock_tables_are_independent_and_all_released() {
        let mgr = TransactionManager::with_shards(Duration::from_millis(100), 4);
        assert_eq!(mgr.lock_shards(), 4);
        let mut a = mgr.begin(IsolationLevel::RepeatableRead);
        let mut b = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write_on(1, &mut a, "ITEM", &Key::int(7))
            .unwrap();
        // Same (table, key) on a *different* shard's table does not conflict:
        // routing guarantees a key only ever locks on its own shard.
        mgr.lock_for_write_on(2, &mut b, "ITEM", &Key::int(7))
            .unwrap();
        mgr.lock_for_write_on(3, &mut a, "ITEM", &Key::int(8))
            .unwrap();
        assert_eq!(mgr.locks_for_shard(1).held_by(a.id()), 1);
        assert_eq!(mgr.locks_for_shard(3).held_by(a.id()), 1);
        mgr.finish_commit(&mut a).unwrap();
        for shard in 0..4 {
            assert_eq!(mgr.locks_for_shard(shard).held_by(a.id()), 0);
        }
        mgr.abort(&mut b);
        assert_eq!(mgr.locks_for_shard(2).held_by(b.id()), 0);
        let stats = mgr.stats();
        assert_eq!(stats.locks.acquisitions, 3, "stats sum across shards");
    }

    #[test]
    fn conflicting_writers_follow_wait_die() {
        let mgr = TransactionManager::new();
        let mut old = mgr.begin(IsolationLevel::RepeatableRead);
        let mut young = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut old, "ITEM", &Key::int(7)).unwrap();
        let err = mgr.lock_for_write(&mut young, "ITEM", &Key::int(7));
        assert!(matches!(err, Err(TxnError::Aborted { .. })));
        mgr.abort(&mut young);
        commit(&mgr, &mut old).unwrap();
    }
}
