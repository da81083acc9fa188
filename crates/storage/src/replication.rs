//! Asynchronous logical replication from the row store to the column store.
//!
//! In the dual-engine architecture of the paper (TiDB), transactions commit
//! against the row store and a background process ships the committed
//! mutations to the columnar replica ("asynchronous log replication", §III-A).
//! [`ReplicationLog`] is the committed-mutation queue and [`Replicator`]
//! applies queued records to the registered [`ColumnTable`]s.  A record
//! carries one committed write as the transaction buffered it, a [`WalOp`]:
//! a table, a primary key and either the row's new image (an upsert) or
//! `None` (a tombstone).  The gap between
//! the newest appended LSN and the newest applied LSN is the replication lag —
//! the data-freshness dimension the paper's real-time queries care about.
//!
//! The log tracks freshness along two axes:
//!
//! * **records** — appended LSN minus applied LSN ([`ReplicationLog::lag_records`]);
//! * **wall-clock age** — how long the oldest still-pending record has been
//!   waiting ([`ReplicationLog::oldest_pending_age`]), the bound enforced by
//!   time-based freshness policies.
//!
//! Appenders (committing transactions) and the shard's background applier
//! thread synchronise through two condition variables: the applier parks on
//! the queue until work arrives, and freshness-bounded readers park on the
//! applied watermark until it advances.

use crate::colstore::ColumnTable;
use crate::error::StorageResult;
use crate::wal::WalOp;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One committed mutation shipped to the analytical replica.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Log sequence number (monotonic, dense, starting at 1).
    pub lsn: u64,
    /// The committed write, exactly as the transaction buffered it.
    pub op: WalOp,
    /// Wall-clock instant the record entered the log (drives time-based
    /// freshness bounds).
    pub appended_at: Instant,
}

/// The committed-mutation queue between the row store and the column store.
///
/// All LSN assignment happens under the queue lock, so the queue is always
/// densely LSN-ordered even under concurrent committers, and the appended
/// watermark only moves forward.
#[derive(Debug)]
pub struct ReplicationLog {
    queue: Mutex<VecDeque<LogRecord>>,
    /// Signalled whenever records are appended (appliers park on this).
    pending_cv: Condvar,
    /// Highest LSN appended; the next append takes `appended + 1`.  Written
    /// only under the queue lock, which orders the writers; the `Release`
    /// store pairs with the `Acquire` loads of lock-free watermark readers.
    appended: AtomicU64,
    applied: AtomicU64,
    /// Guards [`Self::applied_cv`]; freshness-bounded readers park on it until
    /// the applied watermark advances.
    applied_mutex: Mutex<()>,
    applied_cv: Condvar,
}

impl Default for ReplicationLog {
    fn default() -> ReplicationLog {
        ReplicationLog::new()
    }
}

impl ReplicationLog {
    /// Create an empty log.
    pub fn new() -> ReplicationLog {
        ReplicationLog {
            queue: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
            appended: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            applied_mutex: Mutex::new(()),
            applied_cv: Condvar::new(),
        }
    }

    /// Append a committed write and return its LSN.
    ///
    /// The LSN is assigned while holding the queue lock, so concurrent
    /// committers cannot enqueue records out of LSN order, and the appended
    /// high-water mark only ever moves forward.
    pub fn append(&self, op: WalOp) -> u64 {
        let mut queue = self.queue.lock();
        let lsn = self.appended.load(Ordering::Relaxed) + 1;
        queue.push_back(LogRecord {
            lsn,
            op,
            appended_at: Instant::now(),
        });
        self.appended.store(lsn, Ordering::Release);
        self.pending_cv.notify_one();
        lsn
    }

    /// Remove and return up to `max` queued records, oldest first.
    pub fn drain(&self, max: usize) -> Vec<LogRecord> {
        let mut queue = self.queue.lock();
        let n = max.min(queue.len());
        queue.drain(..n).collect()
    }

    /// Push records back onto the *front* of the queue, preserving their
    /// order.  Used by the replicator to return the unapplied tail of a
    /// drained batch after a mid-batch failure, so no committed mutation is
    /// ever dropped.
    pub fn requeue_front(&self, records: Vec<LogRecord>) {
        if records.is_empty() {
            return;
        }
        let mut queue = self.queue.lock();
        for record in records.into_iter().rev() {
            queue.push_front(record);
        }
        self.pending_cv.notify_one();
    }

    /// Number of queued (not yet applied) records.
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }

    /// Highest LSN ever appended.
    pub fn last_appended_lsn(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Highest LSN acknowledged as applied by a replicator.
    pub fn last_applied_lsn(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Replication lag in records.
    pub fn lag_records(&self) -> u64 {
        self.last_appended_lsn()
            .saturating_sub(self.last_applied_lsn())
    }

    /// Wall-clock age of the oldest record still waiting to be applied, or
    /// `None` when the queue is fully drained.
    pub fn oldest_pending_age(&self) -> Option<Duration> {
        self.queue.lock().front().map(|r| r.appended_at.elapsed())
    }

    /// Queue length and oldest-record age read under one lock acquisition.
    ///
    /// Time-based freshness checks need both values from the *same* instant —
    /// and read before the lag watermarks — so that records the applier has
    /// drained but not yet applied can never be mistaken for a young queue
    /// (see `Session::ensure_freshness`).
    pub fn queue_snapshot(&self) -> (usize, Option<Duration>) {
        let queue = self.queue.lock();
        (queue.len(), queue.front().map(|r| r.appended_at.elapsed()))
    }

    /// Park until records are pending, a notification arrives, or `timeout`
    /// passes — whichever comes first.  Returns `true` when records are
    /// pending.  Used by the background applier to idle without busy-spinning:
    /// the single wait (rather than a wait-while-empty loop) lets a shutdown
    /// notification wake the applier promptly even though the queue is empty,
    /// and the applier's own loop re-checks for work anyway.
    pub fn wait_for_pending(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut queue = self.queue.lock();
        if queue.is_empty() {
            let _ = self.pending_cv.wait_until(&mut queue, deadline);
        }
        !queue.is_empty()
    }

    /// Wake everyone parked on the pending queue (used on shutdown so the
    /// applier notices the stop flag promptly).
    pub fn notify_waiters(&self) {
        let _queue = self.queue.lock();
        self.pending_cv.notify_all();
        let _applied = self.applied_mutex.lock();
        self.applied_cv.notify_all();
    }

    /// Park until the applied watermark reaches `target_lsn`, a notification
    /// arrives, or `timeout` passes — whichever comes first.  Returns `true`
    /// when the watermark is at or past the target.
    ///
    /// Like [`Self::wait_for_pending`], this performs a *single* wait rather
    /// than re-waiting on wakeups that have not reached the target yet:
    /// wakeups can be administrative (applier shutdown), and the caller's
    /// retry loop must get the chance to re-check its bound and deadline
    /// instead of sleeping out the full timeout here.
    pub fn wait_for_applied(&self, target_lsn: u64, timeout: Duration) -> bool {
        if self.last_applied_lsn() >= target_lsn {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self.applied_mutex.lock();
        if self.last_applied_lsn() < target_lsn {
            let _ = self.applied_cv.wait_until(&mut guard, deadline);
        }
        self.last_applied_lsn() >= target_lsn
    }

    /// Advance the applied watermark for one successfully applied record.
    /// Waiters are notified per *batch* (see [`Self::notify_applied`]), not
    /// per record, to keep the hot apply path free of lock traffic.
    fn mark_applied(&self, lsn: u64) {
        self.applied.fetch_max(lsn, Ordering::Release);
    }

    /// Wake readers parked on the applied watermark.  Called by the
    /// replicator once per apply batch that made progress.
    fn notify_applied(&self) {
        let _guard = self.applied_mutex.lock();
        self.applied_cv.notify_all();
    }
}

/// Applies queued log records to registered column tables.
pub struct Replicator {
    log: Arc<ReplicationLog>,
    replicas: HashMap<String, Arc<ColumnTable>>,
}

impl Replicator {
    /// Create a replicator over the given log.
    pub fn new(log: Arc<ReplicationLog>) -> Replicator {
        Replicator {
            log,
            replicas: HashMap::new(),
        }
    }

    /// Register the columnar replica for a table.
    pub fn register(&mut self, table: impl Into<String>, replica: Arc<ColumnTable>) {
        self.replicas.insert(table.into(), replica);
    }

    /// Apply up to `batch` pending records.  Returns the number applied.
    ///
    /// Records for tables without a registered replica are acknowledged and
    /// skipped (the table is row-store only).  A record is acknowledged (and
    /// the applied watermark advanced) only *after* it has been applied
    /// successfully; on a mid-batch failure the failed record and the
    /// unapplied tail are pushed back onto the front of the queue, so a
    /// transient error never loses committed mutations and the replica can
    /// converge on retry.
    pub fn apply_pending(&self, batch: usize) -> StorageResult<usize> {
        let records = self.log.drain(batch);
        let mut applied = 0usize;
        let mut iter = records.into_iter();
        while let Some(record) = iter.next() {
            if let Err(e) = self.apply_one(&record) {
                let mut unapplied = vec![record];
                unapplied.extend(iter);
                self.log.requeue_front(unapplied);
                if applied > 0 {
                    self.log.notify_applied();
                }
                return Err(e);
            }
            self.log.mark_applied(record.lsn);
            applied += 1;
        }
        if applied > 0 {
            self.log.notify_applied();
        }
        Ok(applied)
    }

    fn apply_one(&self, record: &LogRecord) -> StorageResult<()> {
        let op = &record.op;
        match self.replicas.get(&op.table) {
            Some(replica) => replica.apply(&op.key, op.row.as_ref()),
            None => Ok(()),
        }
    }

    /// Apply everything currently pending.
    pub fn catch_up(&self) -> StorageResult<usize> {
        let mut total = 0;
        loop {
            let applied = self.apply_pending(1024)?;
            if applied == 0 {
                return Ok(total);
            }
            total += applied;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::key::Key;
    use crate::row::Row;
    use crate::schema::{ColumnDef, DataType, TableSchema};
    use crate::value::Value;
    use std::thread;

    fn orders_schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "ORDERS",
                vec![
                    ColumnDef::new("o_id", DataType::Int, false),
                    ColumnDef::new("o_amount", DataType::Decimal, false),
                ],
                vec!["o_id"],
            )
            .unwrap(),
        )
    }

    fn order(id: i64, amount: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Decimal(amount)])
    }

    /// A write of `table`'s row `id`: an image, or a tombstone for `None`.
    fn op(table: &str, id: i64, row: Option<Row>) -> WalOp {
        WalOp {
            table: table.into(),
            key: Key::int(id),
            row,
        }
    }

    #[test]
    fn lsns_are_monotonic_and_lag_is_tracked() {
        let log = ReplicationLog::new();
        let a = log.append(op("ORDERS", 1, Some(order(1, 10))));
        let b = log.append(op("ORDERS", 2, Some(order(2, 20))));
        assert!(b > a);
        assert_eq!(log.pending(), 2);
        assert_eq!(log.lag_records(), 2);
        assert!(log.oldest_pending_age().is_some());
    }

    #[test]
    fn concurrent_appends_enqueue_dense_in_order_lsns() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 250;
        let log = Arc::new(ReplicationLog::new());
        thread::scope(|scope| {
            for t in 0..THREADS {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = (t * PER_THREAD + i) as i64;
                        log.append(op("ORDERS", id, Some(order(id, 1))));
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(log.last_appended_lsn(), total);
        assert_eq!(log.pending(), total as usize);
        let drained = log.drain(usize::MAX);
        let lsns: Vec<u64> = drained.iter().map(|r| r.lsn).collect();
        let expected: Vec<u64> = (1..=total).collect();
        assert_eq!(lsns, expected, "queue order must match dense LSN order");
    }

    #[test]
    fn appended_watermark_never_regresses() {
        // Interleave appends and watermark reads from several threads; the
        // watermark observed by any reader must be monotonically increasing.
        let log = Arc::new(ReplicationLog::new());
        let stop = Arc::new(AtomicU64::new(0));
        thread::scope(|scope| {
            let reader_log = Arc::clone(&log);
            let reader_stop = Arc::clone(&stop);
            let reader = scope.spawn(move || {
                let mut last = 0;
                while reader_stop.load(Ordering::Relaxed) == 0 {
                    let seen = reader_log.last_appended_lsn();
                    assert!(seen >= last, "watermark regressed: {seen} < {last}");
                    last = seen;
                }
                last
            });
            for t in 0..4 {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..200 {
                        let id = (t * 200 + i) as i64;
                        log.append(op("ORDERS", id, Some(order(id, 1))));
                    }
                });
            }
            // Writers finish when their scope handles join; signal the reader.
            scope.spawn(move || {
                // This closure runs concurrently; give writers a moment, then stop.
                thread::sleep(Duration::from_millis(20));
                stop.store(1, Ordering::Relaxed);
            });
            let last_seen = reader.join().unwrap();
            assert!(last_seen <= 800);
        });
        assert_eq!(log.last_appended_lsn(), 800);
    }

    #[test]
    fn replicator_applies_records_in_order() {
        let log = Arc::new(ReplicationLog::new());
        let replica = Arc::new(ColumnTable::new(orders_schema()));
        let mut repl = Replicator::new(Arc::clone(&log));
        repl.register("ORDERS", Arc::clone(&replica));

        log.append(op("ORDERS", 1, Some(order(1, 10))));
        log.append(op("ORDERS", 1, Some(order(1, 99))));
        log.append(op("ORDERS", 2, Some(order(2, 20))));
        log.append(op("ORDERS", 2, None));

        let applied = repl.catch_up().unwrap();
        assert_eq!(applied, 4);
        assert_eq!(log.lag_records(), 0);
        assert_eq!(replica.live_row_count(), 1);

        let mut amounts = Vec::new();
        replica.scan_batches(Some(&[1]), 64, |batch| {
            amounts.extend(
                batch
                    .selected_rows()
                    .map(|row| batch.column(0)[row].clone()),
            );
        });
        assert_eq!(amounts, vec![Value::Decimal(99)]);
    }

    #[test]
    fn failed_apply_loses_no_records_and_keeps_watermark_correct() {
        let log = Arc::new(ReplicationLog::new());
        let replica = Arc::new(ColumnTable::new(orders_schema()));
        let mut repl = Replicator::new(Arc::clone(&log));
        repl.register("ORDERS", Arc::clone(&replica));

        log.append(op("ORDERS", 1, Some(order(1, 10))));
        // Poison record: a wrong-arity row image fails to apply.
        log.append(op("ORDERS", 2, Some(Row::new(vec![Value::Int(2)]))));
        log.append(op("ORDERS", 3, Some(order(3, 30))));

        let err = repl.apply_pending(16);
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        // The good record before the failure was applied and acknowledged...
        assert_eq!(log.last_applied_lsn(), 1);
        assert_eq!(replica.live_row_count(), 1);
        // ...and the failed record plus the unapplied tail are still queued.
        assert_eq!(log.pending(), 2, "no drained-but-unapplied record is lost");

        // Retrying hits the same poison record (still at the head, in order).
        let err = repl.apply_pending(16);
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        assert_eq!(log.pending(), 2);

        // Operator intervention: discard the poison record, then catch up.
        let discarded = log.drain(1);
        assert_eq!(discarded[0].lsn, 2);
        assert_eq!(repl.catch_up().unwrap(), 1);
        assert_eq!(log.last_applied_lsn(), 3);
        assert_eq!(replica.live_row_count(), 2);
        assert_eq!(log.pending(), 0);
    }

    #[test]
    fn update_before_insert_is_upserted() {
        let log = Arc::new(ReplicationLog::new());
        let replica = Arc::new(ColumnTable::new(orders_schema()));
        let mut repl = Replicator::new(Arc::clone(&log));
        repl.register("ORDERS", Arc::clone(&replica));
        log.append(op("ORDERS", 7, Some(order(7, 70))));
        repl.catch_up().unwrap();
        assert_eq!(replica.live_row_count(), 1);
    }

    #[test]
    fn malformed_image_surfaces_its_schema_error() {
        let log = Arc::new(ReplicationLog::new());
        let replica = Arc::new(ColumnTable::new(orders_schema()));
        let mut repl = Replicator::new(Arc::clone(&log));
        repl.register("ORDERS", Arc::clone(&replica));
        // A malformed row image (wrong arity) must surface the schema error
        // and leave the replica untouched.
        log.append(op("ORDERS", 1, Some(Row::new(vec![Value::Int(1)]))));
        let err = repl.apply_pending(4);
        assert!(err.is_err(), "schema mismatch must propagate");
        assert!(
            !matches!(err, Err(StorageError::KeyNotFound { .. })),
            "the surfaced error is the original schema failure"
        );
        assert_eq!(replica.live_row_count(), 0, "nothing was upserted");
        assert_eq!(log.pending(), 1, "the failed record is retained");
    }

    #[test]
    fn unregistered_tables_are_skipped_but_acknowledged() {
        let log = Arc::new(ReplicationLog::new());
        let repl = Replicator::new(Arc::clone(&log));
        log.append(op("HISTORY", 1, Some(order(1, 1))));
        assert_eq!(repl.catch_up().unwrap(), 1);
        assert_eq!(log.lag_records(), 0);
    }

    #[test]
    fn drain_respects_batch_size() {
        let log = ReplicationLog::new();
        for i in 0..10 {
            log.append(op("ORDERS", i, Some(order(i, 1))));
        }
        assert_eq!(log.drain(3).len(), 3);
        assert_eq!(log.pending(), 7);
    }

    #[test]
    fn requeue_front_preserves_order() {
        let log = ReplicationLog::new();
        for i in 0..5 {
            log.append(op("ORDERS", i, Some(order(i, 1))));
        }
        let drained = log.drain(3);
        log.requeue_front(drained);
        let all = log.drain(10);
        let lsns: Vec<u64> = all.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn wait_for_applied_wakes_when_watermark_advances() {
        let log = Arc::new(ReplicationLog::new());
        let replica = Arc::new(ColumnTable::new(orders_schema()));
        let mut repl = Replicator::new(Arc::clone(&log));
        repl.register("ORDERS", Arc::clone(&replica));
        log.append(op("ORDERS", 1, Some(order(1, 1))));

        assert!(
            !log.wait_for_applied(1, Duration::from_millis(5)),
            "nothing applied yet"
        );
        thread::scope(|scope| {
            let waiter_log = Arc::clone(&log);
            let waiter =
                scope.spawn(move || waiter_log.wait_for_applied(1, Duration::from_secs(5)));
            repl.catch_up().unwrap();
            assert!(
                waiter.join().unwrap(),
                "waiter observes the applied watermark"
            );
        });
    }

    #[test]
    fn wait_for_pending_signals_appends() {
        let log = Arc::new(ReplicationLog::new());
        assert!(!log.wait_for_pending(Duration::from_millis(5)));
        thread::scope(|scope| {
            let waiter_log = Arc::clone(&log);
            let waiter = scope.spawn(move || waiter_log.wait_for_pending(Duration::from_secs(5)));
            log.append(op("ORDERS", 1, Some(order(1, 1))));
            assert!(waiter.join().unwrap());
        });
    }
}
