//! Data sources the executor reads from.
//!
//! A [`DataSource`] abstracts over "where do base-table rows come from":
//! [`ShardedRowSource`] reads the per-shard partitions of MVCC row tables at a
//! snapshot timestamp (the only option for statements inside a transaction,
//! including the real-time query of a hybrid transaction), while
//! [`ColumnSource`] reads the columnar replicas (what the dual-engine
//! architecture uses for standalone analytical queries).
//!
//! A source has one way to read a table: the batched scan.  The executor
//! names the base-table columns a plan reads (or `None` for all of them)
//! and, when pruning is on, a chunk pruner; the source hands back batches of
//! exactly those columns.  The row stores clone nothing else out of their
//! version chains and ignore the pruner (they keep no chunk summaries); the
//! column store borrows only those delta vectors, decodes only those
//! main-tier columns, and skips the chunks the pruner excludes.  Point and
//! prefix reads of the workloads go through the engine session, not through
//! a plan.

use crate::error::{QueryError, QueryResult};
use crate::prune::ChunkPruner;
use olxp_storage::{ColumnBatch, ColumnTable, RowTable, ScanOutcome, TableSchema, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// Which physical store served a scan; drives the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Row store (TiKV-like / MemSQL row store).
    RowStore,
    /// Column store (TiFlash-like / MemSQL column store).
    ColumnStore,
}

/// A provider of base-table rows for the executor.
pub trait DataSource {
    /// Which store this source represents.
    fn kind(&self) -> SourceKind;

    /// Schema of a table.
    fn schema(&self, table: &str) -> QueryResult<Arc<TableSchema>>;

    /// Stream the visible rows as [`ColumnBatch`]es of up to `batch_size` row
    /// slots, calling `f` for each batch.
    ///
    /// `projection` names the base-table columns each batch carries, in that
    /// order (`None` = every column in schema order); every position must be
    /// a column of the table.  `pruner` lets sources with chunk summaries
    /// (the column store) skip chunks that provably cannot satisfy its
    /// predicate, and deselect rows on encoded data; sources
    /// without them (the row stores) scan everything and report zeroed chunk
    /// counters.  Neither changes which rows are *examined* for a surviving
    /// chunk, only how many values are moved.  No per-row `Row` is
    /// materialized at the storage/query boundary.
    fn scan_batches(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        batch_size: usize,
        pruner: Option<&ChunkPruner>,
        f: &mut dyn FnMut(&ColumnBatch<'_>),
    ) -> QueryResult<ScanOutcome>;
}

/// [`DataSource`] over the per-shard partitions of hash-partitioned MVCC row
/// tables, all read at one snapshot.
///
/// Each shard owns a disjoint slice of every table's keys, so a scan is the
/// concatenation of the per-shard scans (shard-major order).  An unsharded
/// caller passes
/// its one table map as a single shard.
pub struct ShardedRowSource {
    shards: Vec<Arc<HashMap<String, Arc<RowTable>>>>,
    read_ts: Timestamp,
}

impl ShardedRowSource {
    /// Create a source reading every shard's partition at `read_ts`.
    pub fn new(
        shards: Vec<Arc<HashMap<String, Arc<RowTable>>>>,
        read_ts: Timestamp,
    ) -> ShardedRowSource {
        ShardedRowSource { shards, read_ts }
    }

    fn partitions(&self, name: &str) -> QueryResult<Vec<&Arc<RowTable>>> {
        let parts: Vec<&Arc<RowTable>> = self
            .shards
            .iter()
            .filter_map(|tables| tables.get(name))
            .collect();
        if parts.is_empty() {
            return Err(QueryError::Storage(
                olxp_storage::StorageError::TableNotFound(name.into()),
            ));
        }
        Ok(parts)
    }
}

impl DataSource for ShardedRowSource {
    fn kind(&self) -> SourceKind {
        SourceKind::RowStore
    }

    fn schema(&self, table: &str) -> QueryResult<Arc<TableSchema>> {
        Ok(Arc::clone(self.partitions(table)?[0].schema()))
    }

    fn scan_batches(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        batch_size: usize,
        _pruner: Option<&ChunkPruner>,
        f: &mut dyn FnMut(&ColumnBatch<'_>),
    ) -> QueryResult<ScanOutcome> {
        let mut outcome = ScanOutcome::default();
        for part in self.partitions(table)? {
            outcome.slots_examined +=
                part.scan_batches(self.read_ts, projection, batch_size, |b| f(&b));
        }
        Ok(outcome)
    }
}

/// [`DataSource`] over columnar replicas (latest replicated state).
pub struct ColumnSource<'a> {
    tables: &'a HashMap<String, Arc<ColumnTable>>,
}

impl<'a> ColumnSource<'a> {
    /// Create a source reading the given columnar tables.
    pub fn new(tables: &'a HashMap<String, Arc<ColumnTable>>) -> ColumnSource<'a> {
        ColumnSource { tables }
    }

    fn table(&self, name: &str) -> QueryResult<&Arc<ColumnTable>> {
        self.tables.get(name).ok_or_else(|| {
            QueryError::Storage(olxp_storage::StorageError::TableNotFound(name.into()))
        })
    }
}

impl DataSource for ColumnSource<'_> {
    fn kind(&self) -> SourceKind {
        SourceKind::ColumnStore
    }

    fn schema(&self, table: &str) -> QueryResult<Arc<TableSchema>> {
        Ok(Arc::clone(self.table(table)?.schema()))
    }

    fn scan_batches(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        batch_size: usize,
        pruner: Option<&ChunkPruner>,
        f: &mut dyn FnMut(&ColumnBatch<'_>),
    ) -> QueryResult<ScanOutcome> {
        let t = self.table(table)?;
        // Without a pruner the scan still runs through the chunked path so
        // chunk counters stay populated, but nothing is skipped.  With one,
        // the pruner's predicate both skips chunks (zone maps) and, inside
        // surviving compressed main-tier chunks, runs directly on the encoded
        // columns so non-matching rows never decode (reported as
        // `rows_pruned_encoded`).  Both are sound because the predicate is a
        // necessary condition and the executor re-applies its full residual
        // filter to every row either way.
        let predicate = pruner.map(ChunkPruner::predicate);
        Ok(t.scan_batches_pruned(projection, batch_size, predicate, |batch| f(batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_storage::{ColumnDef, DataType, Key, Row, Value};

    /// Selected rows a full-width scan of `table` hands out.
    fn count(source: &dyn DataSource, table: &str) -> QueryResult<usize> {
        let mut rows = 0;
        source.scan_batches(table, None, 4, None, &mut |b| rows += b.selected_count())?;
        Ok(rows)
    }

    fn schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "ITEM",
                vec![
                    ColumnDef::new("i_id", DataType::Int, false),
                    ColumnDef::new("i_price", DataType::Decimal, false),
                ],
                vec!["i_id"],
            )
            .unwrap(),
        )
    }

    #[test]
    fn row_source_scans_at_snapshot() {
        let table = Arc::new(RowTable::new(schema()));
        for i in 0..5 {
            table.install(
                Key::int(i),
                Some(Row::new(vec![Value::Int(i), Value::Decimal(i * 10)])),
                10,
            );
        }
        table.install(
            Key::int(99),
            Some(Row::new(vec![Value::Int(99), Value::Decimal(1)])),
            20,
        );
        let tables = HashMap::from([("ITEM".to_string(), table)]);
        let source = ShardedRowSource::new(vec![Arc::new(tables)], 15);
        assert_eq!(
            count(&source, "ITEM").unwrap(),
            5,
            "row committed at ts 20 is invisible at ts 15"
        );
        assert_eq!(source.kind(), SourceKind::RowStore);
    }

    #[test]
    fn sharded_source_merges_partition_scans() {
        let mut shards = Vec::new();
        for shard in 0..2u64 {
            let table = Arc::new(RowTable::new(schema()));
            for i in 0..3u64 {
                let id = (shard * 100 + i) as i64;
                table.install(
                    Key::int(id),
                    Some(Row::new(vec![Value::Int(id), Value::Decimal(id)])),
                    10,
                );
            }
            let mut tables = HashMap::new();
            tables.insert("ITEM".to_string(), table);
            shards.push(Arc::new(tables));
        }
        let source = ShardedRowSource::new(shards, 15);
        assert_eq!(source.kind(), SourceKind::RowStore);
        assert_eq!(
            count(&source, "ITEM").unwrap(),
            6,
            "scan concatenates every shard's partition"
        );
        let mut batched = 0;
        let outcome = source
            .scan_batches("ITEM", Some(&[1]), 4, None, &mut |b| {
                assert_eq!(b.width(), 1);
                batched += b.selected_count();
            })
            .unwrap();
        assert_eq!(batched, 6);
        assert_eq!(outcome.slots_examined, 6);
        assert!(count(&source, "NOPE").is_err());
    }

    #[test]
    fn unknown_table_is_an_error() {
        let source = ShardedRowSource::new(vec![Arc::new(HashMap::new())], 1);
        assert!(count(&source, "NOPE").is_err());
        assert!(source.schema("NOPE").is_err());
    }
}
