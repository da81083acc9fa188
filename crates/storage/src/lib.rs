//! # olxp-storage
//!
//! Storage substrate for OLxPBench-RS.
//!
//! This crate provides the storage building blocks that the HTAP engine
//! ([`olxp-engine`](https://docs.rs/olxp-engine)) composes into the two
//! architectural archetypes evaluated by the OLxPBench paper:
//!
//! * a multi-version **row store** ([`rowstore::RowTable`]) with primary-key and
//!   secondary (possibly composite) indexes, used for online transactions;
//! * an append-only **column store** ([`colstore::ColumnTable`]) used for
//!   analytical queries;
//! * **vectorized batches** ([`batch::ColumnBatch`]): the chunked columnar
//!   unit both stores hand to the query executor, so analytical scans never
//!   materialize per-row tuples at the storage boundary;
//! * an asynchronous **replication log** ([`replication`]) that ships committed
//!   row-store mutations into the column store, modelling TiDB's TiKV→TiFlash
//!   log replication;
//! * a **durability subsystem**: a segmented, CRC-checksummed **write-ahead
//!   log** ([`wal::Wal`]) with group commit, and **checkpoints**
//!   ([`checkpoint`]) that snapshot the row store + catalog so the log can be
//!   truncated.  Together they let the engine recover every acknowledged
//!   commit after a crash.
//!
//! Everything here is deliberately self-contained: no external database is
//! required, and all table state lives in process memory (optionally made
//! crash-safe by the WAL) so benchmark experiments are reproducible on a
//! laptop.

pub mod batch;
pub mod catalog;
pub mod checkpoint;
pub mod colstore;
pub mod delta;
pub mod encode;
pub mod error;
pub mod key;
pub mod replication;
pub mod row;
pub mod rowstore;
pub mod schema;
pub mod value;
pub mod wal;
pub mod zonemap;

#[cfg(test)]
pub(crate) mod test_util;

pub use batch::{BatchBuilder, ColumnBatch, DEFAULT_BATCH_SIZE};
pub use catalog::Catalog;
pub use checkpoint::{CheckpointData, TableCheckpoint};
pub use colstore::{ColumnTable, MemoryFootprint};
pub use delta::MainChunk;
pub use encode::{EncodedColumn, Encoding};
pub use error::{StorageError, StorageResult};
pub use key::Key;
pub use replication::{LogRecord, ReplicationLog, Replicator};
pub use row::Row;
pub use rowstore::RowTable;
pub use schema::{ColumnDef, DataType, IndexDef, TableSchema};
pub use value::Value;
pub use wal::{SyncPolicy, Wal, WalOp, WalRecord, WalReplay, WalStatsSnapshot};
pub use zonemap::{
    ChunkZone, ColumnPredicate, ColumnZone, PredicateOp, ScanOutcome, ScanPredicate,
    DEFAULT_CHUNK_SIZE as DEFAULT_PRUNE_CHUNK_SIZE,
};

/// Transaction timestamp type used throughout the stack.
///
/// Timestamps are dense logical timestamps handed out by the transaction
/// manager's timestamp oracle (see `olxp-txn`).  `0` is reserved as "before all
/// transactions" and [`TS_MAX`] as "not yet ended".
pub type Timestamp = u64;

/// Sentinel for an open-ended (still visible) version.
pub const TS_MAX: Timestamp = u64::MAX;
