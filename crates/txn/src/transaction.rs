//! Transaction handles and write sets.

use crate::isolation::IsolationLevel;
use crate::TxnId;
use olxp_storage::{Key, Row, Timestamp, WalOp};
use std::collections::HashMap;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running; statements may still be executed.
    Active,
    /// Successfully committed at `commit_ts`.
    Committed,
    /// Rolled back (either explicitly or by a conflict).
    Aborted,
}

/// The ordered list of buffered writes of one transaction, with an index for
/// read-your-own-writes lookups.  Each write is a [`WalOp`], the one shape a
/// write keeps through the WAL, the row store and the replication log.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    ops: Vec<WalOp>,
    /// table -> key -> index of the latest op touching that row.
    latest: HashMap<String, HashMap<Key, usize>>,
}

impl WriteSet {
    /// Create an empty write set.
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// Append an operation.
    pub fn push(&mut self, op: WalOp) {
        let idx = self.ops.len();
        match self.latest.get_mut(op.table.as_str()) {
            Some(keys) => {
                keys.insert(op.key.clone(), idx);
            }
            None => {
                let keys = HashMap::from([(op.key.clone(), idx)]);
                self.latest.insert(op.table.clone(), keys);
            }
        }
        self.ops.push(op);
    }

    /// The operations in execution order, by value (a commit installs them).
    pub fn into_ops(self) -> Vec<WalOp> {
        self.ops
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Read-your-own-writes: the effect of this transaction on `(table, key)`.
    ///
    /// * `None` — the transaction has not touched the row.
    /// * `Some(None)` — the transaction deleted the row.
    /// * `Some(Some(row))` — the transaction wrote this image.
    pub fn effective_row(&self, table: &str, key: &Key) -> Option<Option<&Row>> {
        let idx = *self.latest.get(table)?.get(key)?;
        Some(self.ops[idx].row.as_ref())
    }
}

/// A transaction handle.
///
/// The handle is a passive record: it owns the snapshot timestamp, the write
/// set and the lifecycle state; the engine session drives reads, writes and
/// commit against it.
#[derive(Debug)]
pub struct Transaction {
    id: TxnId,
    isolation: IsolationLevel,
    begin_read_ts: Timestamp,
    state: TxnState,
    write_set: WriteSet,
}

impl Transaction {
    /// Create an active transaction (used by the manager).
    pub fn new(id: TxnId, isolation: IsolationLevel, begin_read_ts: Timestamp) -> Transaction {
        Transaction {
            id,
            isolation,
            begin_read_ts,
            state: TxnState::Active,
            write_set: WriteSet::new(),
        }
    }

    /// Transaction id (also its wait-die age: smaller is older).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Snapshot timestamp taken at begin.
    pub fn begin_read_ts(&self) -> Timestamp {
        self.begin_read_ts
    }

    /// Current state.
    pub fn state(&self) -> TxnState {
        self.state
    }

    /// True while statements may still run.
    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    /// The buffered writes.
    pub fn write_set(&self) -> &WriteSet {
        &self.write_set
    }

    /// Mutable access to the buffered writes (engine only).
    pub fn write_set_mut(&mut self) -> &mut WriteSet {
        &mut self.write_set
    }

    /// Mark committed (manager only).
    pub fn mark_committed(&mut self) {
        self.state = TxnState::Committed;
    }

    /// Mark aborted (manager only).
    pub fn mark_aborted(&mut self) {
        self.state = TxnState::Aborted;
    }

    /// Human-readable state name (for errors).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            TxnState::Active => "active",
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_storage::Value;

    /// A write of row 1 of table `T`: image `v`, or a tombstone for `None`.
    fn write(v: Option<i64>) -> WalOp {
        WalOp {
            table: "T".into(),
            key: Key::int(1),
            row: v.map(|v| Row::new(vec![Value::Int(v)])),
        }
    }

    #[test]
    fn write_set_tracks_latest_image_per_key() {
        let mut ws = WriteSet::new();
        ws.push(write(Some(10)));
        ws.push(write(Some(20)));
        assert_eq!(ws.len(), 2);
        let effective = ws.effective_row("T", &Key::int(1)).unwrap().unwrap();
        assert_eq!(effective[0], Value::Int(20));
        assert!(ws.effective_row("T", &Key::int(2)).is_none());
    }

    #[test]
    fn delete_shows_as_some_none() {
        let mut ws = WriteSet::new();
        ws.push(write(Some(10)));
        ws.push(write(None));
        assert_eq!(ws.effective_row("T", &Key::int(1)), Some(None));
    }

    #[test]
    fn transaction_lifecycle_bookkeeping() {
        let mut txn = Transaction::new(3, IsolationLevel::RepeatableRead, 42);
        assert!(txn.is_active());
        assert_eq!(txn.begin_read_ts(), 42);
        txn.mark_committed();
        assert_eq!(txn.state(), TxnState::Committed);
        assert!(!txn.is_active());
    }
}
