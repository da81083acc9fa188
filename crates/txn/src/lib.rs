//! # olxp-txn
//!
//! Transaction substrate for OLxPBench-RS.
//!
//! The crate provides the concurrency-control building blocks used by the HTAP
//! engine in `olxp-engine`:
//!
//! * a [`oracle::TimestampOracle`] issuing monotonically increasing logical
//!   timestamps for snapshots and commits;
//! * [`isolation::IsolationLevel`] — the paper's engines differ here: the
//!   TiDB-like dual engine runs repeatable-read/snapshot isolation while the
//!   MemSQL-like single engine only offers read-committed (§V-A2);
//! * a [`locks::LockManager`] implementing row-level exclusive locks with a
//!   wait-die deadlock-avoidance policy and, crucially, **wait-time
//!   instrumentation**: the paper's Figure 4 compares "lock overhead" between
//!   schema models, and [`locks::LockStats`] is the quantity that experiment
//!   reports;
//! * [`transaction::Transaction`] — a handle that buffers writes (the write
//!   set) until commit; the [`locks::LockManager`] tracks the locks it holds;
//! * [`manager::TransactionManager`] — begin/commit/abort orchestration.
//!
//! The crate deliberately does *not* apply writes to storage itself; the engine
//! owns the tables and applies a committed transaction's write set, which keeps
//! this crate independently testable.

pub mod error;
pub mod isolation;
pub mod locks;
pub mod manager;
pub mod oracle;
pub mod transaction;

pub use error::{TxnError, TxnResult};
pub use isolation::IsolationLevel;
pub use locks::{LockManager, LockStats, LockStatsSnapshot};
pub use manager::{TransactionManager, TxnManagerStats};
pub use oracle::TimestampOracle;
pub use transaction::{Transaction, TxnState, WriteSet};

/// Transaction identifier.  Ids are allocated densely by the manager and also
/// serve as the age ordering used by the wait-die policy.
pub type TxnId = u64;
