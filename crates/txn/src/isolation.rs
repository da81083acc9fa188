//! Isolation levels.

/// Isolation level of a transaction.
///
/// The paper runs TiDB at repeatable read (snapshot) isolation and notes that
/// "MemSQL only supports a read committed isolation level" (§V-A2), so these
/// two levels are what the engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IsolationLevel {
    /// Each statement reads the newest committed data (MemSQL-like).
    ReadCommitted,
    /// The whole transaction reads from the snapshot taken at `begin`
    /// (TiDB's repeatable read / snapshot isolation).
    #[default]
    RepeatableRead,
}

impl IsolationLevel {
    /// Whether the read timestamp is fixed at transaction begin (`true`) or
    /// refreshed per statement (`false`).
    pub fn snapshot_per_transaction(self) -> bool {
        matches!(self, IsolationLevel::RepeatableRead)
    }

    /// Whether commit-time write-write conflict validation is required.
    ///
    /// Under snapshot isolation two transactions that both update a row one of
    /// them read from an older snapshot must not both commit ("first committer
    /// wins").  Read committed relies on locks alone.
    pub fn validates_write_conflicts(self) -> bool {
        matches!(self, IsolationLevel::RepeatableRead)
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::RepeatableRead => "repeatable-read",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_semantics_follow_level() {
        assert!(IsolationLevel::RepeatableRead.snapshot_per_transaction());
        assert!(!IsolationLevel::ReadCommitted.snapshot_per_transaction());
        assert!(IsolationLevel::RepeatableRead.validates_write_conflicts());
        assert!(!IsolationLevel::ReadCommitted.validates_write_conflicts());
    }

    #[test]
    fn default_is_repeatable_read() {
        assert_eq!(IsolationLevel::default(), IsolationLevel::RepeatableRead);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(IsolationLevel::ReadCommitted.name(), "read-committed");
        assert_eq!(IsolationLevel::RepeatableRead.name(), "repeatable-read");
    }
}
