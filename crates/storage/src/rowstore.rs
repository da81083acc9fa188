//! Multi-version row store.
//!
//! [`RowTable`] is the OLTP-facing storage structure: a B-tree keyed by the
//! primary key whose leaves hold *version chains*.  Each committed write
//! appends a new version stamped with its commit timestamp; readers select the
//! version visible at their snapshot timestamp.  Secondary indexes map index
//! keys to the primary keys of rows that (at some point) carried that key; the
//! visible row is always re-checked against the index key so stale entries are
//! filtered out rather than returned.
//!
//! This mirrors the row engines of the systems the paper evaluates (TiKV for
//! TiDB, the in-memory row store of MemSQL) closely enough for the benchmark's
//! purposes: point reads and short range scans are cheap, full scans touch
//! every live key, and long-running scans keep the table's shared latch busy.

use crate::batch::{BatchBuilder, ColumnBatch};
use crate::error::{StorageError, StorageResult};
use crate::key::Key;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::{Timestamp, TS_MAX};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Result of an index lookup: the matching `(primary key, row)` pairs plus
/// the number of index entries examined to produce them.
pub type IndexLookup = (Vec<(Key, Arc<Row>)>, usize);

/// One version of a row.  `row == None` is a tombstone (deleted).
#[derive(Debug, Clone)]
struct Version {
    begin: Timestamp,
    end: Timestamp,
    row: Option<Arc<Row>>,
}

impl Version {
    fn visible_at(&self, read_ts: Timestamp) -> bool {
        self.begin <= read_ts && (self.end == TS_MAX || read_ts < self.end)
    }
}

/// Version chain, oldest first.
type VersionChain = Vec<Version>;

/// A multi-version table stored in row format.
pub struct RowTable {
    schema: Arc<TableSchema>,
    data: RwLock<BTreeMap<Key, VersionChain>>,
    /// One (index key -> set of primary keys) map per secondary index, in the
    /// same order as `schema.indexes()`.
    secondary: Vec<RwLock<BTreeMap<Key, BTreeSet<Key>>>>,
}

impl RowTable {
    /// Create an empty table for the given schema.
    pub fn new(schema: Arc<TableSchema>) -> RowTable {
        let secondary = schema
            .indexes()
            .iter()
            .map(|_| RwLock::new(BTreeMap::new()))
            .collect();
        RowTable {
            schema,
            data: RwLock::new(BTreeMap::new()),
            secondary,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Number of keys (live or dead) in the primary B-tree.
    pub fn key_count(&self) -> usize {
        self.data.read().len()
    }

    /// Number of rows visible at `read_ts`.
    pub fn live_row_count(&self, read_ts: Timestamp) -> usize {
        self.data
            .read()
            .values()
            .filter(|chain| Self::visible(chain, read_ts).is_some())
            .count()
    }

    fn visible(chain: &VersionChain, read_ts: Timestamp) -> Option<Arc<Row>> {
        chain
            .iter()
            .rev()
            .find(|v| v.visible_at(read_ts))
            .and_then(|v| v.row.clone())
    }

    /// Install the write of `pk` committed at `commit_ts`: end the live
    /// version, if there is one, and push `row`'s image, or a tombstone when
    /// `row` is `None`.  The caller owns every check (schema, existence,
    /// primary key); [`crate::ColumnTable::apply`] is the column store's
    /// counterpart.
    pub fn install(&self, pk: Key, row: Option<Row>, commit_ts: Timestamp) {
        let row = row.map(Arc::new);
        if let Some(row) = &row {
            self.index_row(&pk, row);
        }
        let mut data = self.data.write();
        let chain = data.entry(pk).or_default();
        if let Some(last) = chain.last_mut() {
            if last.end == TS_MAX {
                last.end = commit_ts;
            }
        }
        chain.push(Version {
            begin: commit_ts,
            end: TS_MAX,
            row,
        });
    }

    /// Point read by primary key at snapshot `read_ts`.
    pub fn get(&self, pk: &Key, read_ts: Timestamp) -> Option<Arc<Row>> {
        let data = self.data.read();
        data.get(pk).and_then(|chain| Self::visible(chain, read_ts))
    }

    /// Commit timestamp of the newest version (live or tombstone) of `pk`, or
    /// `None` if the key has never existed.  Used by the engine for
    /// snapshot-isolation write-conflict validation ("first committer wins").
    pub fn latest_commit_ts(&self, pk: &Key) -> Option<Timestamp> {
        let data = self.data.read();
        data.get(pk).and_then(|chain| chain.last().map(|v| v.begin))
    }

    /// Scan every row visible at `read_ts`, invoking `f` for each.  Returns the
    /// number of keys examined (the physical scan size, which drives the cost
    /// model), which can exceed the number of visible rows.
    pub fn scan<F>(&self, read_ts: Timestamp, mut f: F) -> usize
    where
        F: FnMut(&Key, &Arc<Row>),
    {
        let data = self.data.read();
        let mut examined = 0usize;
        for (key, chain) in data.iter() {
            examined += 1;
            if let Some(row) = Self::visible(chain, read_ts) {
                f(key, &row);
            }
        }
        examined
    }

    /// Vectorized full scan: pack every row visible at `read_ts` into owned
    /// [`ColumnBatch`]es of up to `batch_size` rows and hand each batch to
    /// `f`.  `projection` selects and orders the columns each batch carries
    /// (`None` = every column in schema order); values of the other columns
    /// are never cloned.  Returns the number of keys examined (which can
    /// exceed the rows batched, since keys whose version chain has no visible
    /// row still cost a chain walk).
    ///
    /// The MVCC row store cannot hand out borrowed column slices the way the
    /// column store does — versions live in per-key chains — so this adapter
    /// transposes visible rows into column vectors, giving downstream
    /// operators one uniform batch interface over both stores.
    ///
    /// # Panics
    /// Panics if a projected position is not a column of the schema.
    pub fn scan_batches<F>(
        &self,
        read_ts: Timestamp,
        projection: Option<&[usize]>,
        batch_size: usize,
        mut f: F,
    ) -> usize
    where
        F: FnMut(ColumnBatch<'static>),
    {
        let width = projection.map_or(self.schema.column_count(), <[usize]>::len);
        let mut builder = BatchBuilder::new(width, batch_size);
        let examined = self.scan(read_ts, |_, row| {
            match projection {
                None => builder.push_row(row.values()),
                Some(columns) => builder.push_row_projected(row.values(), columns),
            }
            if builder.is_full() {
                f(builder.finish());
            }
        });
        if !builder.is_empty() {
            f(builder.finish());
        }
        examined
    }

    /// Prefix scan: all rows whose primary key starts with `prefix`, in key
    /// order.  Returns the number of keys examined.
    pub fn prefix_scan<F>(&self, prefix: &Key, read_ts: Timestamp, mut f: F) -> usize
    where
        F: FnMut(&Key, &Arc<Row>),
    {
        let upper = prefix.prefix_upper_bound();
        let high = upper.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
        let data = self.data.read();
        let mut examined = 0usize;
        for (key, chain) in data.range::<Key, _>((Bound::Included(prefix), high)) {
            examined += 1;
            if let Some(row) = Self::visible(chain, read_ts) {
                f(key, &row);
            }
        }
        examined
    }

    /// Equality lookup through the secondary index at position `index_pos`
    /// (into `schema.indexes()`).  `key` may be a prefix of the index key.
    ///
    /// Returns `(primary key, row)` pairs visible at `read_ts` whose *current*
    /// value still matches the index key, plus the number of index entries
    /// examined.
    pub fn index_lookup(
        &self,
        index_pos: usize,
        key: &Key,
        read_ts: Timestamp,
    ) -> StorageResult<IndexLookup> {
        let index_def =
            self.schema
                .indexes()
                .get(index_pos)
                .ok_or_else(|| StorageError::IndexNotFound {
                    table: self.schema.name().to_string(),
                    index: format!("#{index_pos}"),
                })?;
        let index = self.secondary[index_pos].read();
        let mut out = Vec::new();
        let mut examined = 0usize;
        let upper = key.prefix_upper_bound();
        let range: Box<dyn Iterator<Item = (&Key, &BTreeSet<Key>)>> = match &upper {
            Some(u) => Box::new(index.range::<Key, _>((Bound::Included(key), Bound::Excluded(u)))),
            None => Box::new(index.range::<Key, _>((Bound::Included(key), Bound::Unbounded))),
        };
        let data = self.data.read();
        for (_ikey, pks) in range {
            for pk in pks {
                examined += 1;
                if let Some(chain) = data.get(pk) {
                    if let Some(row) = Self::visible(chain, read_ts) {
                        // Filter out stale index entries: the visible row must
                        // still match the requested index-key prefix.
                        let current = self.schema.index_key_of(index_def, &row);
                        if current.starts_with(key) {
                            out.push((pk.clone(), row));
                        }
                    }
                }
            }
        }
        Ok((out, examined.max(1)))
    }

    /// Remove versions that ended before `horizon_ts` (no snapshot can see
    /// them any more).  Returns the number of versions dropped.
    pub fn gc(&self, horizon_ts: Timestamp) -> usize {
        let mut data = self.data.write();
        let mut dropped = 0usize;
        data.retain(|_, chain| {
            let before = chain.len();
            // Keep every version still visible to some snapshot >= horizon.
            chain.retain(|v| v.end == TS_MAX || v.end > horizon_ts);
            dropped += before - chain.len();
            !chain.is_empty()
        });
        dropped
    }

    fn index_row(&self, pk: &Key, row: &Arc<Row>) {
        for (pos, index_def) in self.schema.indexes().iter().enumerate() {
            let ikey = self.schema.index_key_of(index_def, row);
            let mut index = self.secondary[pos].write();
            index.entry(ikey).or_default().insert(pk.clone());
        }
    }
}

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable")
            .field("table", &self.schema.name())
            .field("keys", &self.key_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use crate::value::Value;

    fn item_table() -> RowTable {
        let schema = TableSchema::new(
            "ITEM",
            vec![
                ColumnDef::new("i_id", DataType::Int, false),
                ColumnDef::new("i_name", DataType::Str, false),
                ColumnDef::new("i_price", DataType::Decimal, false),
            ],
            vec!["i_id"],
        )
        .unwrap()
        .with_index("idx_name", vec!["i_name"], false)
        .unwrap();
        RowTable::new(Arc::new(schema))
    }

    fn item(id: i64, name: &str, price: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Str(name.into()),
            Value::Decimal(price),
        ])
    }

    /// Install `row` under the primary key it carries.
    fn put(t: &RowTable, row: Row, ts: Timestamp) {
        t.install(t.schema().primary_key_of(&row), Some(row), ts);
    }

    #[test]
    fn insert_and_point_read() {
        let t = item_table();
        put(&t, item(1, "bolt", 150), 10);
        assert!(
            t.get(&Key::int(1), 9).is_none(),
            "not visible before commit"
        );
        let row = t.get(&Key::int(1), 10).unwrap();
        assert_eq!(row[1], Value::Str("bolt".into()));
    }

    #[test]
    fn update_creates_new_version_and_preserves_old_snapshot() {
        let t = item_table();
        put(&t, item(1, "bolt", 150), 10);
        t.install(Key::int(1), Some(item(1, "bolt", 175)), 20);
        assert_eq!(t.get(&Key::int(1), 15).unwrap()[2], Value::Decimal(150));
        assert_eq!(t.get(&Key::int(1), 25).unwrap()[2], Value::Decimal(175));
    }

    #[test]
    fn delete_hides_row_from_later_snapshots_only() {
        let t = item_table();
        put(&t, item(1, "bolt", 150), 10);
        t.install(Key::int(1), None, 20);
        assert!(t.get(&Key::int(1), 15).is_some());
        assert!(t.get(&Key::int(1), 25).is_none());
        assert_eq!(t.live_row_count(25), 0);
        assert_eq!(t.live_row_count(15), 1);
    }

    #[test]
    fn full_scan_counts_examined_keys() {
        let t = item_table();
        for i in 0..10 {
            put(&t, item(i, "x", 100 + i), 10);
        }
        t.install(Key::int(3), None, 20);
        let mut seen = 0;
        let examined = t.scan(25, |_, _| seen += 1);
        assert_eq!(examined, 10);
        assert_eq!(seen, 9);
    }

    #[test]
    fn scan_batches_packs_visible_rows_only() {
        let t = item_table();
        for i in 0..10 {
            put(&t, item(i, "x", 100 + i), 10);
        }
        t.install(Key::int(3), None, 20);
        let mut sizes = Vec::new();
        let mut total = 0usize;
        let examined = t.scan_batches(25, None, 4, |batch| {
            assert_eq!(batch.width(), 3);
            assert!(batch.selection().is_none(), "row-store batches are dense");
            sizes.push(batch.num_rows());
            total += batch.num_rows();
        });
        assert_eq!(examined, 10, "the tombstoned key is still examined");
        assert_eq!(total, 9, "only visible rows are batched");
        assert_eq!(sizes, vec![4, 4, 1], "partial final batch is flushed");

        // A projection narrows and reorders the batch, not the rows visited.
        let mut prices = Vec::new();
        let examined = t.scan_batches(25, Some(&[2, 0]), 4, |batch| {
            assert_eq!(batch.width(), 2);
            for row in batch.selected_rows() {
                assert_eq!(
                    batch.column(0)[row],
                    Value::Decimal(100 + batch.column(1)[row].as_int().unwrap())
                );
                prices.push(batch.column(0)[row].clone());
            }
        });
        assert_eq!(examined, 10);
        assert_eq!(prices.len(), 9);
    }

    #[test]
    fn prefix_scan_on_composite_pk() {
        let schema = TableSchema::new(
            "ORDER_LINE",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("ol_number", DataType::Int, false),
                ColumnDef::new("ol_amount", DataType::Decimal, false),
            ],
            vec!["o_id", "ol_number"],
        )
        .unwrap();
        let t = RowTable::new(Arc::new(schema));
        for o in 0..3 {
            for l in 0..5 {
                put(
                    &t,
                    Row::new(vec![Value::Int(o), Value::Int(l), Value::Decimal(100)]),
                    5,
                );
            }
        }
        let mut rows = Vec::new();
        t.prefix_scan(&Key::int(1), 10, |k, _| rows.push(k.clone()));
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|k| k.starts_with(&Key::int(1))));
    }

    #[test]
    fn index_lookup_respects_visibility_and_staleness() {
        let t = item_table();
        put(&t, item(1, "bolt", 150), 10);
        put(&t, item(2, "bolt", 90), 10);
        t.install(Key::int(2), Some(item(2, "nut", 90)), 20);

        // At ts 15 both items are named "bolt".
        let (rows, _) = t
            .index_lookup(0, &Key::new(vec![Value::Str("bolt".into())]), 15)
            .unwrap();
        assert_eq!(rows.len(), 2);

        // At ts 25 item 2 was renamed, so only item 1 matches.
        let (rows, _) = t
            .index_lookup(0, &Key::new(vec![Value::Str("bolt".into())]), 25)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Key::int(1));

        // The new name is findable.
        let (rows, _) = t
            .index_lookup(0, &Key::new(vec![Value::Str("nut".into())]), 25)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn gc_drops_dead_versions() {
        let t = item_table();
        put(&t, item(1, "bolt", 150), 10);
        for ts in 0..5 {
            t.install(Key::int(1), Some(item(1, "bolt", 150 + ts)), 20 + ts as u64);
        }
        let dropped = t.gc(100);
        assert!(dropped >= 5);
        assert!(t.get(&Key::int(1), TS_MAX).is_some());
    }
}
