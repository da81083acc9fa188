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
/// One manager is shared by every session of an engine, whatever its shard
/// count: one lock table covers every shard's rows, and the timestamp oracle
/// is the single commit-timestamp authority across all shards.
#[derive(Debug)]
pub struct TransactionManager {
    oracle: Arc<TimestampOracle>,
    locks: LockManager,
    next_txn_id: AtomicU64,
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
}

impl TransactionManager {
    /// Create a manager with a fresh oracle and an empty lock table.
    pub fn new() -> TransactionManager {
        TransactionManager {
            oracle: Arc::new(TimestampOracle::new()),
            locks: LockManager::new(),
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

    /// Acquire the exclusive row lock `(table, key)` for `txn`, which holds
    /// it until commit or abort.  Returns the nanoseconds spent waiting.
    pub fn lock_for_write(&self, txn: &mut Transaction, table: &str, key: &Key) -> TxnResult<u64> {
        if !txn.is_active() {
            return Err(TxnError::InvalidState {
                operation: "write in",
                state: txn.state_name(),
            });
        }
        let grant = self.locks.lock_exclusive(txn.id(), table, key)?;
        txn.locks.extend(grant.granted);
        Ok(grant.waited_nanos)
    }

    fn release(&self, txn: &mut Transaction) {
        self.locks.release(txn.id(), txn.locks.drain(..));
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
        self.release(txn);
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
        self.release(txn);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TxnManagerStats {
        TxnManagerStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            locks: self.locks.stats(),
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
        assert_eq!(txn.locks.len(), 1);
        let ts = commit(&mgr, &mut txn).unwrap();
        assert!(ts > 0);
        assert!(txn.locks.is_empty());
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
        assert!(txn.locks.is_empty());
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
        assert_eq!(txn.locks.len(), 1, "locks survive prepare");
        mgr.finish_commit(&mut txn).unwrap();
        assert!(txn.locks.is_empty());
        assert_eq!(mgr.stats().committed, 1);
        assert!(mgr.finish_commit(&mut txn).is_err());
    }

    #[test]
    fn relocking_a_key_records_it_once_and_one_commit_frees_it() {
        let mgr = TransactionManager::new();
        let mut old = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut old, "ITEM", &Key::int(7)).unwrap();
        mgr.lock_for_write(&mut old, "ITEM", &Key::int(7)).unwrap();
        assert_eq!(old.locks, [("ITEM".to_string(), Key::int(7))]);
        assert_eq!(mgr.stats().locks.acquisitions, 1);
        commit(&mgr, &mut old).unwrap();
        assert!(old.locks.is_empty());
        let mut young = mgr.begin(IsolationLevel::RepeatableRead);
        mgr.lock_for_write(&mut young, "ITEM", &Key::int(7))
            .unwrap();
        commit(&mgr, &mut young).unwrap();
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
