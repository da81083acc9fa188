//! Transaction errors.

use std::fmt;

/// Result alias for transaction operations.
pub type TxnResult<T> = Result<T, TxnError>;

/// Errors produced by the transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction was aborted by the wait-die policy (it was younger than
    /// the lock holder).  The caller should retry with a new transaction.
    Aborted {
        /// Table of the conflicting lock.
        table: String,
        /// Human-readable key of the conflicting lock.
        key: String,
    },
    /// Waiting for a lock exceeded the configured timeout.
    LockTimeout {
        /// Table of the lock that timed out.
        table: String,
        /// Human-readable key of the lock.
        key: String,
    },
    /// Write-write conflict detected at commit (snapshot isolation).
    WriteConflict {
        /// Table of the conflicting write.
        table: String,
        /// Human-readable key of the conflicting write.
        key: String,
    },
    /// The transaction handle is in the wrong state for the operation.
    InvalidState {
        /// What was attempted.
        operation: &'static str,
        /// The state the transaction was in.
        state: &'static str,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Aborted { table, key } => {
                write!(f, "transaction aborted by wait-die on {table} {key}")
            }
            TxnError::LockTimeout { table, key } => {
                write!(f, "lock wait timed out on {table} {key}")
            }
            TxnError::WriteConflict { table, key } => {
                write!(f, "write-write conflict on {table} {key}")
            }
            TxnError::InvalidState { operation, state } => {
                write!(f, "cannot {operation} a transaction in state {state}")
            }
        }
    }
}

impl std::error::Error for TxnError {}

impl TxnError {
    /// True when the transaction should simply be retried (the standard
    /// response to wait-die aborts and write conflicts in the benchmark
    /// driver, mirroring how OLxPBench retries aborted TPC-C transactions).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TxnError::Aborted { .. }
                | TxnError::WriteConflict { .. }
                | TxnError::LockTimeout { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(TxnError::Aborted {
            table: "t".into(),
            key: "k".into()
        }
        .is_retryable());
        assert!(TxnError::WriteConflict {
            table: "t".into(),
            key: "k".into()
        }
        .is_retryable());
        assert!(!TxnError::InvalidState {
            operation: "commit",
            state: "aborted"
        }
        .is_retryable());
    }
}
