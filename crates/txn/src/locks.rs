//! Row-level lock manager with wait-time instrumentation.
//!
//! Writers take exclusive row locks before buffering a write; readers never
//! lock (MVCC serves them a snapshot), matching the behaviour of the systems
//! the paper evaluates.  Deadlocks are avoided with a **wait-die** policy: an
//! older transaction waits for a younger lock holder, a younger transaction is
//! aborted immediately and retried by the benchmark driver.
//!
//! The manager measures the time transactions spend blocked on locks.  The
//! normalized lock overhead of the paper's Figure 4 is computed from
//! [`LockStatsSnapshot::wait_nanos`] relative to the engine's busy time.

use crate::error::{TxnError, TxnResult};
use crate::TxnId;
use olxp_storage::Key;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A lockable resource: a row of a table.
pub type LockTarget = (String, Key);

/// How long an older transaction waits for a row lock before giving up.
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_millis(500);

#[derive(Debug, Clone)]
struct LockEntry {
    holder: TxnId,
}

/// Aggregate lock counters.
#[derive(Debug, Default)]
struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_die_aborts: AtomicU64,
    timeouts: AtomicU64,
    wait_nanos: AtomicU64,
}

/// A point-in-time copy of the lock manager's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// Locks granted.
    pub acquisitions: u64,
    /// Lock requests that had to wait or abort because another transaction
    /// held the lock.
    pub contended: u64,
    /// Requests aborted by the wait-die policy.
    pub wait_die_aborts: u64,
    /// Requests that gave up after the wait timeout.
    pub timeouts: u64,
    /// Total nanoseconds spent blocked waiting for locks.
    pub wait_nanos: u64,
}

impl LockStats {
    fn snapshot(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            wait_die_aborts: self.wait_die_aborts.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
        }
    }
}

/// What one granted [`LockManager::lock_exclusive`] request did.
#[derive(Debug)]
pub struct Grant {
    /// Nanoseconds spent blocked (near 0 when granted at once).
    pub waited_nanos: u64,
    /// The lock this request newly granted, for the holder to keep until it
    /// passes it to [`LockManager::release`]; `None` when the transaction
    /// already held it.
    pub granted: Option<LockTarget>,
}

struct LockShard {
    table: Mutex<HashMap<LockTarget, LockEntry>>,
    released: Condvar,
}

/// Row-level exclusive lock manager shared by every session of an engine.
/// It records who holds each lock, not which locks a transaction holds: the
/// holder keeps that list (see [`Grant::granted`]).
pub struct LockManager {
    shards: Vec<LockShard>,
    stats: LockStats,
    wait_timeout: Duration,
}

impl LockManager {
    /// Create a manager with the engine's lock-wait timeout (500 ms).
    pub fn new() -> LockManager {
        LockManager::with_timeout(LOCK_WAIT_TIMEOUT)
    }

    /// Create a manager with an explicit lock-wait timeout.
    pub fn with_timeout(wait_timeout: Duration) -> LockManager {
        let shards = (0..16)
            .map(|_| LockShard {
                table: Mutex::new(HashMap::new()),
                released: Condvar::new(),
            })
            .collect();
        LockManager {
            shards,
            stats: LockStats::default(),
            wait_timeout,
        }
    }

    fn shard_for(&self, target: &LockTarget) -> &LockShard {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        target.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Acquire an exclusive lock on `(table, key)` for transaction `txn_id`.
    ///
    /// `txn_id` doubles as the transaction's age: smaller ids are older.
    /// The returned [`Grant`] carries the time spent waiting and, unless the
    /// transaction already held the lock, the lock to release later.
    pub fn lock_exclusive(&self, txn_id: TxnId, table: &str, key: &Key) -> TxnResult<Grant> {
        let target: LockTarget = (table.to_string(), key.clone());
        let shard = self.shard_for(&target);
        let started = Instant::now();
        let deadline = started + self.wait_timeout;
        let mut guard = shard.table.lock();
        let outcome = loop {
            match guard.get(&target) {
                None => {
                    guard.insert(target.clone(), LockEntry { holder: txn_id });
                    self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                    break Ok(Some(target));
                }
                // Re-entrant acquisition.
                Some(entry) if entry.holder == txn_id => break Ok(None),
                Some(entry) => {
                    self.stats.contended.fetch_add(1, Ordering::Relaxed);
                    // Wait-die: only an older transaction (smaller id) may wait.
                    if txn_id > entry.holder {
                        self.stats.wait_die_aborts.fetch_add(1, Ordering::Relaxed);
                        break Err(TxnError::Aborted {
                            table: table.to_string(),
                            key: key.to_string(),
                        });
                    }
                    let timed_out = shard.released.wait_until(&mut guard, deadline).timed_out();
                    if timed_out {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        break Err(TxnError::LockTimeout {
                            table: table.to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
        };
        drop(guard);
        let waited_nanos = started.elapsed().as_nanos() as u64;
        self.stats
            .wait_nanos
            .fetch_add(waited_nanos, Ordering::Relaxed);
        outcome.map(|granted| Grant {
            waited_nanos,
            granted,
        })
    }

    /// Release the locks `txn_id` was granted, waking their waiters.
    pub fn release(&self, txn_id: TxnId, held: impl IntoIterator<Item = LockTarget>) {
        for target in held {
            let shard = self.shard_for(&target);
            let mut guard = shard.table.lock();
            if guard.get(&target).map(|e| e.holder) == Some(txn_id) {
                guard.remove(&target);
            }
            shard.released.notify_all();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.stats.snapshot()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_lock_is_granted() {
        let lm = LockManager::new();
        let grant = lm.lock_exclusive(1, "ITEM", &Key::int(5)).unwrap();
        assert!(grant.waited_nanos < Duration::from_millis(100).as_nanos() as u64);
        assert_eq!(grant.granted, Some(("ITEM".to_string(), Key::int(5))));
        assert_eq!(lm.stats().acquisitions, 1);
        lm.release(1, grant.granted);
        assert!(lm.lock_exclusive(2, "ITEM", &Key::int(5)).is_ok());
    }

    #[test]
    fn reentrant_lock_is_granted() {
        let lm = LockManager::new();
        let first = lm.lock_exclusive(1, "ITEM", &Key::int(5)).unwrap();
        let again = lm.lock_exclusive(1, "ITEM", &Key::int(5)).unwrap();
        assert!(first.granted.is_some() && again.granted.is_none());
        assert_eq!(lm.stats().acquisitions, 1);
    }

    #[test]
    fn younger_transaction_dies_on_conflict() {
        let lm = LockManager::new();
        lm.lock_exclusive(1, "ITEM", &Key::int(5)).unwrap();
        let err = lm.lock_exclusive(2, "ITEM", &Key::int(5)).unwrap_err();
        assert!(matches!(err, TxnError::Aborted { .. }));
        assert_eq!(lm.stats().wait_die_aborts, 1);
    }

    #[test]
    fn older_transaction_waits_until_release() {
        let lm = Arc::new(LockManager::new());
        let held = lm.lock_exclusive(5, "ITEM", &Key::int(9)).unwrap().granted;
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.lock_exclusive(1, "ITEM", &Key::int(9)));
        thread::sleep(Duration::from_millis(30));
        lm.release(5, held);
        let waited = waiter.join().unwrap().unwrap().waited_nanos;
        assert!(waited >= Duration::from_millis(10).as_nanos() as u64);
        assert!(lm.stats().wait_nanos >= waited);
        assert_eq!(lm.stats().contended, 1);
    }

    #[test]
    fn older_transaction_times_out_eventually() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.lock_exclusive(5, "ITEM", &Key::int(9)).unwrap();
        let err = lm.lock_exclusive(1, "ITEM", &Key::int(9)).unwrap_err();
        assert!(matches!(err, TxnError::LockTimeout { .. }));
        assert_eq!(lm.stats().timeouts, 1);
    }

    #[test]
    fn locks_on_different_keys_do_not_conflict() {
        let lm = LockManager::new();
        lm.lock_exclusive(1, "ITEM", &Key::int(1)).unwrap();
        lm.lock_exclusive(2, "ITEM", &Key::int(2)).unwrap();
        lm.lock_exclusive(3, "STOCK", &Key::int(1)).unwrap();
        assert_eq!(lm.stats().contended, 0);
    }

    #[test]
    fn release_wakes_all_waiters() {
        let lm = Arc::new(LockManager::new());
        let held = lm.lock_exclusive(10, "T", &Key::int(1)).unwrap().granted;
        let mut handles = Vec::new();
        for waiter_id in 1..=3u64 {
            let lm = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                lm.lock_exclusive(waiter_id, "T", &Key::int(1)).is_ok()
            }));
        }
        thread::sleep(Duration::from_millis(30));
        lm.release(10, held);
        let successes = handles
            .into_iter()
            .filter(|h| matches!(h, _))
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        // At least one waiter must eventually obtain the lock; the others may
        // be serialised behind it or die by wait-die, both acceptable.
        assert!(successes >= 1);
    }
}
