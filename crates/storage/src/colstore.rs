//! Column store.
//!
//! [`ColumnTable`] is the OLAP-facing storage structure: each column lives in
//! its own vector so analytical scans only touch the columns they project, the
//! way TiFlash (TiDB) or the MemSQL column store do.  The column store holds
//! the *latest committed* image of each row as of the replication watermark; it
//! is populated exclusively through the asynchronous replication log (see
//! [`crate::replication`]), never written directly by transactions.
//!
//! Slots are grouped into fixed-size **chunks** (see
//! [`crate::zonemap::DEFAULT_CHUNK_SIZE`]) and kept in two tiers (see
//! [`crate::delta`]): a mutable **delta** tail of plain column vectors that
//! absorbs replicated writes, and an immutable **main** prefix of sealed
//! [`MainChunk`]s whose columns are compressed ([`crate::encode`]).  Global
//! slot indices are stable across compaction: sealing the oldest full delta
//! chunk moves its data, never its position.  Writes that would mutate a main
//! slot in place (updates, idempotent insert replays) instead delete the main
//! version and re-insert into delta, so main chunks never change after
//! sealing.
//!
//! One pruning structure is consulted before touching column data:
//! per-column **zone maps** ([`ChunkZone`]: min/max + null and live counts;
//! in delta, appends tighten, updates widen, deletes keep their
//! contributions).  A zone is a conservative superset of the chunk's
//! contents, so pruning can skip non-matching chunks but never loses a
//! matching row; compaction rebuilds it *tight* from the surviving data.
//! Inside surviving main chunks, sargable predicates additionally run on the
//! encoded columns themselves, so only rows that can still match are ever
//! decoded.

use crate::batch::{ColumnBatch, DEFAULT_BATCH_SIZE};
use crate::delta::{seal_chunk, MainChunk};
use crate::encode::{plain_slice_bytes, Encoding};
use crate::error::{StorageError, StorageResult};
use crate::key::Key;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::zonemap::{ChunkZone, ScanOutcome, ScanPredicate, DEFAULT_CHUNK_SIZE};
use crate::Timestamp;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Approximate resident memory of one [`ColumnTable`], split by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Bytes actually resident: encoded main chunks plus the plain delta tail.
    pub bytes_resident: usize,
    /// Bytes the same slots would occupy with every tier unencoded.
    pub bytes_plain: usize,
    /// Sealed main-tier chunks.
    pub main_chunks: usize,
    /// Slots still in the mutable delta tail.
    pub delta_slots: usize,
}

impl MemoryFootprint {
    /// Plain bytes per resident byte (1.0 when nothing is stored or nothing
    /// is compressed).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_resident == 0 {
            return 1.0;
        }
        self.bytes_plain as f64 / self.bytes_resident as f64
    }

    /// Accumulate another footprint (used to aggregate across tables).
    pub fn merge(&mut self, other: &MemoryFootprint) {
        self.bytes_resident += other.bytes_resident;
        self.bytes_plain += other.bytes_plain;
        self.main_chunks += other.main_chunks;
        self.delta_slots += other.delta_slots;
    }
}

struct ColumnData {
    /// Immutable compressed chunks: a chunk-aligned prefix of the slot space.
    main: Vec<MainChunk>,
    /// Delta tier: one vector per column holding the slots past the main
    /// prefix (delta-local index = global slot - main slot count).
    columns: Vec<Vec<crate::Value>>,
    /// Deletion markers for *every* slot, main and delta (global indexing).
    deleted: Vec<bool>,
    /// Primary key -> global slot position of the live row.
    pk_slots: HashMap<Key, usize>,
    /// Per-chunk zone maps, one entry per started chunk (global indexing).
    zones: Vec<ChunkZone>,
    /// Commit timestamp of the newest applied mutation (freshness watermark).
    applied_ts: Timestamp,
    /// Log sequence number of the newest applied mutation.
    applied_lsn: u64,
}

impl ColumnData {
    /// Slots covered by the sealed main tier.
    fn main_slots(&self, chunk_size: usize) -> usize {
        self.main.len() * chunk_size
    }
}

/// A table stored in columnar format, maintained by log replication.
pub struct ColumnTable {
    schema: Arc<TableSchema>,
    chunk_size: usize,
    data: RwLock<ColumnData>,
}

impl ColumnTable {
    /// Create an empty column table for the schema.
    pub fn new(schema: Arc<TableSchema>) -> ColumnTable {
        ColumnTable::with_chunk_size(schema, DEFAULT_CHUNK_SIZE)
    }

    /// Create an empty column table with an explicit pruning chunk size
    /// (tests use small chunks to exercise pruning on small tables).
    pub fn with_chunk_size(schema: Arc<TableSchema>, chunk_size: usize) -> ColumnTable {
        let columns = schema.columns().iter().map(|_| Vec::new()).collect();
        ColumnTable {
            schema,
            chunk_size: chunk_size.max(1),
            data: RwLock::new(ColumnData {
                main: Vec::new(),
                columns,
                deleted: Vec::new(),
                pk_slots: HashMap::new(),
                zones: Vec::new(),
                applied_ts: 0,
                applied_lsn: 0,
            }),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Slots per pruning chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of live (non-deleted) rows.
    pub fn live_row_count(&self) -> usize {
        self.data.read().pk_slots.len()
    }

    /// Number of slots (live + deleted) — the physical scan width.
    pub fn slot_count(&self) -> usize {
        self.data.read().deleted.len()
    }

    /// Number of sealed main-tier chunks.
    pub fn main_chunk_count(&self) -> usize {
        self.data.read().main.len()
    }

    /// Number of slots still in the mutable delta tail.
    pub fn delta_slot_count(&self) -> usize {
        let data = self.data.read();
        data.deleted.len() - data.main_slots(self.chunk_size)
    }

    /// Commit timestamp of the newest applied mutation.
    pub fn applied_ts(&self) -> Timestamp {
        self.data.read().applied_ts
    }

    /// Log sequence number of the newest applied mutation.
    pub fn applied_lsn(&self) -> u64 {
        self.data.read().applied_lsn
    }

    /// Approximate resident memory, split by tier.  Main-chunk sizes were
    /// cached at seal time; the delta tail is measured on demand.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let data = self.data.read();
        let delta_bytes: usize = data.columns.iter().map(|c| plain_slice_bytes(c)).sum();
        let mut footprint = MemoryFootprint {
            bytes_resident: delta_bytes,
            bytes_plain: delta_bytes,
            main_chunks: data.main.len(),
            delta_slots: data.deleted.len() - data.main_slots(self.chunk_size),
        };
        for chunk in &data.main {
            footprint.bytes_resident += chunk.encoded_bytes;
            footprint.bytes_plain += chunk.plain_bytes;
        }
        footprint
    }

    /// Per-column tally of how many sealed main chunks use each encoding,
    /// in `[plain, dictionary, rle]` order (reporting / tests).
    pub fn main_encoding_census(&self) -> Vec<[usize; 3]> {
        let data = self.data.read();
        let mut census = vec![[0usize; 3]; self.schema.columns().len()];
        for chunk in &data.main {
            for (col, encoded) in chunk.columns.iter().enumerate() {
                let slot = match encoded.encoding() {
                    Encoding::Plain => 0,
                    Encoding::Dictionary => 1,
                    Encoding::Rle => 2,
                };
                census[col][slot] += 1;
            }
        }
        census
    }

    /// The zone map for `slot`'s chunk, growing the zone vector as the slot
    /// space grows.
    fn zone_for_slot(
        zones: &mut Vec<ChunkZone>,
        columns: usize,
        chunk_size: usize,
        slot: usize,
    ) -> &mut ChunkZone {
        let chunk = slot / chunk_size;
        while zones.len() <= chunk {
            zones.push(ChunkZone::new(columns));
        }
        &mut zones[chunk]
    }

    /// Append one row to the delta tail.  Caller updates `applied_ts` / LSN.
    fn append_row(&self, data: &mut ColumnData, pk: &Key, row: &Row) {
        let columns = self.schema.column_count();
        for (col_idx, value) in row.values().iter().enumerate() {
            data.columns[col_idx].push(value.clone());
        }
        data.deleted.push(false);
        let slot = data.deleted.len() - 1;
        data.pk_slots.insert(pk.clone(), slot);
        let zone = Self::zone_for_slot(&mut data.zones, columns, self.chunk_size, slot);
        for (col_idx, value) in row.values().iter().enumerate() {
            zone.zones[col_idx].include(value);
        }
        zone.live_count += 1;
    }

    /// Retire the live version at `slot` (which lives in the immutable main
    /// tier) and append `row` as its replacement in delta.  Main chunks are
    /// never rewritten: their zone map keeps its (tight) bounds and only
    /// loses live count.
    fn supersede_main_row(&self, data: &mut ColumnData, pk: &Key, row: &Row, slot: usize) {
        data.deleted[slot] = true;
        let chunk = slot / self.chunk_size;
        data.zones[chunk].live_count = data.zones[chunk].live_count.saturating_sub(1);
        self.append_row(data, pk, row);
    }

    /// Apply an insert arriving from the replication log.
    pub fn apply_insert(
        &self,
        pk: &Key,
        row: &Row,
        commit_ts: Timestamp,
        lsn: u64,
    ) -> StorageResult<()> {
        self.schema.validate_row(row)?;
        let columns = self.schema.column_count();
        let mut data = self.data.write();
        let main_slots = data.main_slots(self.chunk_size);
        if let Some(&slot) = data.pk_slots.get(pk) {
            if slot < main_slots {
                // Idempotent re-apply against a sealed slot: delete +
                // re-insert, since main chunks are immutable.
                self.supersede_main_row(&mut data, pk, row, slot);
            } else {
                // Idempotent re-apply (e.g. replay after restart): overwrite.
                let delta_slot = slot - main_slots;
                for (col_idx, value) in row.values().iter().enumerate() {
                    data.columns[col_idx][delta_slot] = value.clone();
                }
                let was_deleted = std::mem::replace(&mut data.deleted[slot], false);
                let zone = Self::zone_for_slot(&mut data.zones, columns, self.chunk_size, slot);
                for (col_idx, value) in row.values().iter().enumerate() {
                    zone.zones[col_idx].include(value);
                }
                if was_deleted {
                    zone.live_count += 1;
                }
            }
        } else {
            self.append_row(&mut data, pk, row);
        }
        data.applied_ts = data.applied_ts.max(commit_ts);
        data.applied_lsn = data.applied_lsn.max(lsn);
        Ok(())
    }

    /// Apply an update arriving from the replication log.
    ///
    /// For a row still in delta, the chunk's zone map *widens* to include the
    /// new values (the old values' contribution is never removed, keeping
    /// the zone a conservative superset).  For a row in the immutable main
    /// tier, the update becomes delete + re-insert into delta, leaving the
    /// sealed chunk — and its tight zone map — untouched.
    pub fn apply_update(
        &self,
        pk: &Key,
        row: &Row,
        commit_ts: Timestamp,
        lsn: u64,
    ) -> StorageResult<()> {
        self.schema.validate_row(row)?;
        let columns = self.schema.column_count();
        let mut data = self.data.write();
        let main_slots = data.main_slots(self.chunk_size);
        let slot = *data
            .pk_slots
            .get(pk)
            .ok_or_else(|| StorageError::KeyNotFound {
                table: self.schema.name().to_string(),
                key: pk.to_string(),
            })?;
        if slot < main_slots {
            self.supersede_main_row(&mut data, pk, row, slot);
        } else {
            let delta_slot = slot - main_slots;
            for (col_idx, value) in row.values().iter().enumerate() {
                data.columns[col_idx][delta_slot] = value.clone();
            }
            let zone = Self::zone_for_slot(&mut data.zones, columns, self.chunk_size, slot);
            for (col_idx, value) in row.values().iter().enumerate() {
                zone.zones[col_idx].include(value);
            }
        }
        data.applied_ts = data.applied_ts.max(commit_ts);
        data.applied_lsn = data.applied_lsn.max(lsn);
        Ok(())
    }

    /// Apply a delete arriving from the replication log.
    ///
    /// Deletes only decrement the chunk's live count; the zone map keeps the
    /// deleted values' contributions (a superset stays a superset).  A chunk
    /// whose live count reaches zero is pruned outright by the scan path.
    /// Works identically for both tiers.
    pub fn apply_delete(&self, pk: &Key, commit_ts: Timestamp, lsn: u64) -> StorageResult<()> {
        let columns = self.schema.column_count();
        let mut data = self.data.write();
        if let Some(slot) = data.pk_slots.remove(pk) {
            data.deleted[slot] = true;
            let zone = Self::zone_for_slot(&mut data.zones, columns, self.chunk_size, slot);
            zone.live_count = zone.live_count.saturating_sub(1);
        }
        data.applied_ts = data.applied_ts.max(commit_ts);
        data.applied_lsn = data.applied_lsn.max(lsn);
        Ok(())
    }

    /// Seal the oldest full delta chunk into the compressed main tier.
    ///
    /// Returns `false` when the delta tail holds less than one full chunk
    /// (partial tail chunks are never sealed — they are still growing).  The
    /// rewrite re-encodes every column, rebuilds the chunk's zone map tight
    /// from the surviving live rows, and drops deleted payloads; global slot
    /// indices are unchanged, so readers see the exact same rows before and
    /// after.
    pub fn compact_chunk(&self) -> bool {
        let trace_start = if olxp_trace::enabled() {
            Some(olxp_trace::now_nanos())
        } else {
            None
        };
        let mut data = self.data.write();
        let main_slots = data.main_slots(self.chunk_size);
        if data.deleted.len() - main_slots < self.chunk_size {
            return false;
        }
        let chunk = data.main.len();
        let (sealed, zone) = {
            let column_slices: Vec<&[crate::Value]> =
                data.columns.iter().map(|c| &c[..self.chunk_size]).collect();
            seal_chunk(
                &column_slices,
                &data.deleted[main_slots..main_slots + self.chunk_size],
            )
        };
        data.main.push(sealed);
        data.zones[chunk] = zone;
        for column in data.columns.iter_mut() {
            column.drain(..self.chunk_size);
        }
        if let Some(start) = trace_start {
            // One span per sealed chunk; the span's shard field carries the
            // main-tier chunk index, its txn field the chunk's row capacity.
            olxp_trace::record_span(
                olxp_trace::SpanCategory::Compaction,
                chunk as u32,
                self.chunk_size as u64,
                start,
            );
        }
        true
    }

    /// Seal every full delta chunk, one write-lock acquisition per chunk so
    /// readers interleave.  Returns the number of chunks sealed.
    pub fn compact(&self) -> usize {
        let mut sealed = 0;
        while self.compact_chunk() {
            sealed += 1;
        }
        sealed
    }

    /// Vectorized scan: hand out one [`ColumnBatch`] per chunk of up to
    /// `batch_size` row slots.
    ///
    /// Delta-tier batches borrow the column vectors directly (zero copy);
    /// main-tier batches own freshly decoded values.  Deleted slots are
    /// deselected through the batch's selection bitmap rather than skipped,
    /// so the batch layout matches the physical slot layout.  `projection`
    /// selects and orders the columns each batch exposes; `None` exposes
    /// every column in schema order.  Returns the number of slots examined.
    /// Scanning an empty table is a no-op.
    pub fn scan_batches<F>(&self, projection: Option<&[usize]>, batch_size: usize, f: F) -> usize
    where
        F: FnMut(&ColumnBatch<'_>),
    {
        self.scan_batches_pruned(projection, batch_size, None, f)
            .slots_examined
    }

    /// Vectorized scan with chunk pruning and encoded predicate execution.
    ///
    /// Like [`ColumnTable::scan_batches`], but before touching column data
    /// each chunk is tested against `predicate` (an AND-conjunction of
    /// sargable predicates that is *necessary* for a row to match the query):
    /// zone maps exclude chunks whose value ranges cannot satisfy a conjunct
    /// or that hold no live row (an empty conjunction still skips those).
    /// Slots inside pruned chunks are neither examined nor scanned.
    /// `predicate = None` is the unpruned scan: every chunk, no encoded
    /// evaluation.
    ///
    /// Surviving *delta* chunks are handed out run-coalesced in `batch_size`
    /// windows of zero-copy borrowed slices, exactly as before compaction.
    /// Surviving *main* chunks evaluate the predicate's conjuncts directly on
    /// their encoded columns (dictionary-code comparison, RLE run skipping),
    /// then decode only the still-selected positions into owned batches;
    /// windows in which no row survives are skipped without decoding at all.
    /// Every deselection is sound because the predicate is a *necessary*
    /// condition — consumers re-apply their full residual filter either way.
    pub fn scan_batches_pruned<F>(
        &self,
        projection: Option<&[usize]>,
        batch_size: usize,
        predicate: Option<&ScanPredicate>,
        mut f: F,
    ) -> ScanOutcome
    where
        F: FnMut(&ColumnBatch<'_>),
    {
        let data = self.data.read();
        let slots = data.deleted.len();
        let mut outcome = ScanOutcome::default();
        if slots == 0 {
            return outcome;
        }
        let batch_size = batch_size.max(1);
        let all: Vec<usize>;
        let projection = match projection {
            Some(p) => p,
            None => {
                all = (0..self.schema.column_count()).collect();
                &all
            }
        };

        let num_chunks = slots.div_ceil(self.chunk_size);
        let survivors: Vec<bool> = data.zones[..num_chunks]
            .iter()
            .map(|zone| {
                let survives = predicate.map_or(true, |p| zone.may_match(p));
                if survives {
                    outcome.chunks_scanned += 1;
                } else {
                    outcome.chunks_pruned_zonemap += 1;
                }
                survives
            })
            .collect();

        // Main tier: per-chunk encoded filtering + selective decode.
        for (chunk, main) in data.main.iter().enumerate() {
            if !survivors[chunk] {
                continue;
            }
            let base = chunk * self.chunk_size;
            outcome.slots_examined += self.chunk_size;
            let mut start = 0usize;
            while start < self.chunk_size {
                let end = (start + batch_size).min(self.chunk_size);
                let window = &data.deleted[base + start..base + end];
                let mut selection: Vec<bool> = window.iter().map(|&d| !d).collect();
                let live_before = selection.iter().filter(|&&s| s).count();
                if let Some(p) = predicate {
                    for cp in &p.predicates {
                        if let Some(column) = main.columns.get(cp.column) {
                            column.filter_range(cp.op, &cp.value, start, &mut selection);
                        }
                    }
                }
                let kept = selection.iter().filter(|&&s| s).count();
                outcome.rows_pruned_encoded += (live_before - kept) as u64;
                if kept > 0 {
                    let columns: Vec<Vec<crate::Value>> = projection
                        .iter()
                        .map(|&col| main.columns[col].decode_range(start, &selection))
                        .collect();
                    let mut batch = ColumnBatch::owned_sized(columns, end - start);
                    batch.set_selection(selection);
                    f(&batch);
                }
                start = end;
            }
        }

        // Delta tier: run-coalesced zero-copy windows, as before compaction.
        let main_slots = data.main_slots(self.chunk_size);
        let mut chunk = data.main.len();
        while chunk < num_chunks {
            if !survivors[chunk] {
                chunk += 1;
                continue;
            }
            let run_first = chunk;
            while chunk < num_chunks && survivors[chunk] {
                chunk += 1;
            }
            let run_start = run_first * self.chunk_size;
            let run_end = (chunk * self.chunk_size).min(slots);
            outcome.slots_examined += run_end - run_start;
            let mut start = run_start;
            while start < run_end {
                let end = (start + batch_size).min(run_end);
                let columns: Vec<&[crate::Value]> = projection
                    .iter()
                    .map(|&col| &data.columns[col][start - main_slots..end - main_slots])
                    .collect();
                let deleted = &data.deleted[start..end];
                let batch = if deleted.iter().any(|&d| d) {
                    let selection: Vec<bool> = deleted.iter().map(|&d| !d).collect();
                    let mut batch = ColumnBatch::borrowed_sized(columns, None, end - start);
                    batch.set_selection(selection);
                    batch
                } else {
                    ColumnBatch::borrowed_sized(columns, None, end - start)
                };
                f(&batch);
                start = end;
            }
        }
        outcome
    }

    /// Scan live rows materialising full rows (schema column order).
    pub fn scan_rows<F>(&self, mut f: F) -> usize
    where
        F: FnMut(&Row),
    {
        let mut buf: Vec<crate::Value> = Vec::with_capacity(self.schema.column_count());
        self.scan_batches(None, DEFAULT_BATCH_SIZE, |batch| {
            for row in batch.selected_rows() {
                batch.gather_row_into(row, &mut buf);
                f(&Row::new(std::mem::take(&mut buf)));
            }
        })
    }
}

impl std::fmt::Debug for ColumnTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnTable")
            .field("table", &self.schema.name())
            .field("live_rows", &self.live_row_count())
            .field("main_chunks", &self.main_chunk_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use crate::value::Value;
    use crate::zonemap::{ColumnPredicate, PredicateOp};

    fn table() -> ColumnTable {
        ColumnTable::new(Arc::new(schema()))
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "ORDERS",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("o_amount", DataType::Decimal, false),
                ColumnDef::new("o_status", DataType::Str, false),
            ],
            vec!["o_id"],
        )
        .unwrap()
    }

    fn small_chunk_table() -> ColumnTable {
        ColumnTable::with_chunk_size(Arc::new(schema()), 4)
    }

    fn order(id: i64, amount: i64, status: &str) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Decimal(amount),
            Value::Str(status.into()),
        ])
    }

    fn eq(column: usize, value: Value) -> ScanPredicate {
        ScanPredicate::new(vec![
            ColumnPredicate::new(column, PredicateOp::Eq, value).unwrap()
        ])
    }

    /// Matching row ids: the pruner only yields a *superset* of matching
    /// chunks, so the predicate is re-applied per row exactly like the query
    /// executor's residual filter would.  `pruning = false` scans with no
    /// predicate at all — the reference every pruned scan must agree with.
    fn collect_ids(t: &ColumnTable, predicate: Option<&ScanPredicate>, pruning: bool) -> Vec<i64> {
        let mut ids = Vec::new();
        t.scan_batches_pruned(None, 3, predicate.filter(|_| pruning), |batch| {
            for row in batch.selected_rows() {
                let keep = predicate.map_or(true, |p| {
                    p.predicates.iter().all(|cp| {
                        let v = &batch.column(cp.column)[row];
                        !v.is_null()
                            && match cp.op {
                                PredicateOp::Eq => v == &cp.value,
                                PredicateOp::Lt => v < &cp.value,
                                PredicateOp::Le => v <= &cp.value,
                                PredicateOp::Gt => v > &cp.value,
                                PredicateOp::Ge => v >= &cp.value,
                            }
                    })
                });
                if keep {
                    ids.push(batch.column(0)[row].as_int().unwrap());
                }
            }
        });
        ids.sort_unstable();
        ids
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let t = table();
        t.apply_insert(&Key::int(1), &order(1, 500, "new"), 10, 1)
            .unwrap();
        t.apply_insert(&Key::int(2), &order(2, 700, "new"), 11, 2)
            .unwrap();
        assert_eq!(t.live_row_count(), 2);
        t.apply_update(&Key::int(1), &order(1, 900, "paid"), 12, 3)
            .unwrap();
        t.apply_delete(&Key::int(2), 13, 4).unwrap();
        assert_eq!(t.live_row_count(), 1);
        assert_eq!(t.slot_count(), 2, "deleted slots remain physically present");
        assert_eq!(t.applied_ts(), 13);
        assert_eq!(t.applied_lsn(), 4);

        let mut rows = Vec::new();
        t.scan_rows(|r| rows.push(r.clone()));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Decimal(900));
    }

    #[test]
    fn update_of_unknown_key_errors() {
        let t = table();
        assert!(matches!(
            t.apply_update(&Key::int(9), &order(9, 1, "x"), 1, 1),
            Err(StorageError::KeyNotFound { .. })
        ));
    }

    #[test]
    fn reapplied_insert_is_idempotent() {
        let t = table();
        t.apply_insert(&Key::int(1), &order(1, 500, "new"), 10, 1)
            .unwrap();
        t.apply_insert(&Key::int(1), &order(1, 650, "new"), 10, 1)
            .unwrap();
        assert_eq!(t.live_row_count(), 1);
        let mut amounts = Vec::new();
        t.scan_batches(Some(&[1]), 64, |batch| {
            amounts.extend(
                batch
                    .selected_rows()
                    .map(|row| batch.column(0)[row].clone()),
            );
        });
        assert_eq!(amounts, vec![Value::Decimal(650)]);
    }

    #[test]
    fn projected_scan_only_returns_requested_columns() {
        let t = small_chunk_table();
        for i in 0..4 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64)
                .unwrap();
        }
        for compacted in [false, true] {
            let mut ids = Vec::new();
            t.scan_batches(Some(&[2, 0]), 3, |batch| {
                assert_eq!(batch.width(), 2, "only the requested columns");
                for row in batch.selected_rows() {
                    assert_eq!(batch.column(0)[row], Value::Str("new".into()));
                    ids.push(batch.column(1)[row].clone());
                }
            });
            assert_eq!(
                ids,
                (0..4).map(Value::Int).collect::<Vec<_>>(),
                "projection order, delta and main alike (compacted: {compacted})"
            );
            assert_eq!(t.compact(), usize::from(!compacted));
        }
    }

    #[test]
    fn empty_scan_is_a_counterless_noop() {
        let t = table();
        let examined = t.scan_rows(|_| panic!("no rows to visit"));
        assert_eq!(examined, 0);
        let outcome = t.scan_batches_pruned(None, 64, None, |_| panic!("no batches"));
        assert_eq!(
            outcome,
            ScanOutcome::default(),
            "scanning an empty table is a no-op"
        );
    }

    #[test]
    fn deleted_slots_count_as_examined_but_not_scanned() {
        let t = table();
        for i in 0..6i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        t.apply_delete(&Key::int(2), 6, 7).unwrap();
        t.apply_delete(&Key::int(4), 6, 8).unwrap();
        let mut seen = 0;
        let examined = t.scan_rows(|_| seen += 1);
        assert_eq!(examined, 6, "deleted slots are still walked");
        assert_eq!(seen, 4);
    }

    #[test]
    fn empty_projection_still_visits_every_live_row() {
        let t = table();
        for i in 0..3i64 {
            t.apply_insert(&Key::int(i), &order(i, i, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        let mut visits = 0;
        let examined = t.scan_batches(Some(&[]), 64, |batch| {
            assert_eq!(batch.width(), 0);
            visits += batch.selected_count();
        });
        assert_eq!(examined, 3);
        assert_eq!(visits, 3, "zero-width batches keep their row count");
    }

    #[test]
    fn scan_batches_chunks_with_selection_and_partial_tail() {
        let t = table();
        for i in 0..10i64 {
            t.apply_insert(&Key::int(i), &order(i, i, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        t.apply_delete(&Key::int(1), 6, 11).unwrap();
        let mut batch_sizes = Vec::new();
        let mut selected = 0usize;
        let mut amounts = Vec::new();
        let examined = t.scan_batches(Some(&[1]), 4, |batch| {
            assert_eq!(batch.width(), 1, "projection narrows the batch");
            batch_sizes.push(batch.num_rows());
            selected += batch.selected_count();
            for row in batch.selected_rows() {
                amounts.push(batch.column(0)[row].clone());
            }
        });
        assert_eq!(examined, 10);
        assert_eq!(batch_sizes, vec![4, 4, 2], "partial final batch");
        assert_eq!(selected, 9, "deleted slot is deselected, not compacted");
        assert!(!amounts.contains(&Value::Decimal(1)));
    }

    // -- chunk pruning ------------------------------------------------------

    #[test]
    fn zone_maps_prune_nonmatching_chunks() {
        // 12 append-ordered rows with chunk size 4: chunk ranges are
        // [0..4), [4..8), [8..12) on o_id.
        let t = small_chunk_table();
        for i in 0..12i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        let pred = eq(0, Value::Int(9));
        let mut rows = Vec::new();
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |batch| {
            for row in batch.selected_rows() {
                rows.push(batch.column(0)[row].clone());
            }
        });
        assert_eq!(outcome.chunks_pruned_zonemap, 2);
        assert_eq!(outcome.chunks_scanned, 1);
        assert_eq!(
            outcome.slots_examined, 4,
            "only the surviving chunk is walked"
        );
        assert!(rows.contains(&Value::Int(9)));

        // Range predicate: o_id >= 8 keeps only the last chunk.
        let range = ScanPredicate::new(vec![ColumnPredicate::new(
            0,
            PredicateOp::Ge,
            Value::Int(8),
        )
        .unwrap()]);
        let outcome = t.scan_batches_pruned(None, 64, Some(&range), |_| {});
        assert_eq!(outcome.chunks_pruned_zonemap, 2);
        assert_eq!(outcome.slots_examined, 4);
    }

    #[test]
    fn pruned_slots_are_neither_examined_nor_scanned() {
        // Satellite regression: pinned counters for a pruned scan.
        let t = small_chunk_table();
        for i in 0..12i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        t.apply_delete(&Key::int(5), 6, 20).unwrap();
        let pred = eq(0, Value::Int(6));
        let mut seen = 0usize;
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |batch| {
            seen += batch.selected_count();
        });
        assert_eq!(outcome.slots_examined, 4, "pruned slots are not examined");
        assert_eq!(seen, 3, "deleted slot in the surviving chunk is deselected");
        assert_eq!(outcome.chunks_scanned, 1);
        assert_eq!(outcome.chunks_pruned_zonemap, 2);
    }

    #[test]
    fn updates_widen_zones_conservatively() {
        let t = small_chunk_table();
        for i in 0..8i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        // Move row 1's amount far outside its chunk's original [0, 300]
        // amount range.
        t.apply_update(&Key::int(1), &order(1, 99_000, "paid"), 6, 9)
            .unwrap();
        // The widened zone must admit the new value...
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(99_000))), true),
            vec![1]
        );
        // ...and conservatively still admit the overwritten old value: the
        // chunk is scanned (zone kept the old contribution) but the full
        // filter downstream finds nothing.
        let pred = eq(1, Value::Decimal(100));
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |_| {});
        assert_eq!(
            outcome.chunks_pruned_zonemap, 1,
            "second chunk still prunes"
        );
        assert_eq!(outcome.chunks_scanned, 1, "widened chunk still scans");
    }

    #[test]
    fn fully_deleted_chunks_prune_even_without_predicate() {
        let t = small_chunk_table();
        for i in 0..8i64 {
            t.apply_insert(&Key::int(i), &order(i, i, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        for i in 0..4i64 {
            t.apply_delete(&Key::int(i), 6, 10 + i as u64).unwrap();
        }
        let unfiltered = ScanPredicate::default();
        let outcome = t.scan_batches_pruned(None, 64, Some(&unfiltered), |_| {});
        assert_eq!(outcome.chunks_pruned_zonemap, 1, "dead chunk skipped");
        assert_eq!(outcome.slots_examined, 4);
        // The unpruned scan still walks the dead slots.
        assert_eq!(t.scan_batches(None, 64, |_| {}), 8);
    }

    #[test]
    fn scattered_equality_probe_scans_every_live_chunk() {
        // Amounts interleave across chunks so both chunks' zones span the
        // whole range: min/max cannot exclude a value that lies inside the
        // range, whether or not any row holds it.  This is the limit of zone
        // maps, on the delta tier and on sealed main chunks alike.
        let t = small_chunk_table();
        let amounts = [10i64, 30, 50, 70, 20, 40, 60, 80];
        for (i, amount) in amounts.iter().enumerate() {
            t.apply_insert(
                &Key::int(i as i64),
                &order(i as i64, *amount, "new"),
                5,
                i as u64 + 1,
            )
            .unwrap();
        }
        for compacted in [false, true] {
            for (amount, ids) in [(45, vec![]), (40, vec![5])] {
                let pred = eq(1, Value::Decimal(amount));
                let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |_| {});
                assert_eq!(outcome.chunks_scanned, 2, "compacted: {compacted}");
                assert_eq!(outcome.chunks_pruned_zonemap, 0);
                assert_eq!(outcome.slots_examined, 8);
                assert_eq!(collect_ids(&t, Some(&pred), true), ids);
                assert_eq!(collect_ids(&t, Some(&pred), false), ids);
            }
            assert_eq!(t.compact(), if compacted { 0 } else { 2 });
        }
    }

    #[test]
    fn filter_invalidated_by_update_never_loses_rows() {
        let t = small_chunk_table();
        for i in 0..8i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 10, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        let probe = eq(1, Value::Decimal(555));
        // 555 is outside both chunks' amount ranges: everything prunes.
        let outcome = t.scan_batches_pruned(None, 64, Some(&probe), |_| {});
        assert_eq!(outcome.chunks_pruned_zonemap, 2);
        // Update writes 555 into a full chunk; its zone must widen.
        t.apply_update(&Key::int(2), &order(2, 555, "paid"), 6, 9)
            .unwrap();
        assert_eq!(collect_ids(&t, Some(&probe), true), vec![2]);
        // Same for the idempotent-insert overwrite path.
        t.apply_insert(&Key::int(3), &order(3, 777, "new"), 7, 10)
            .unwrap();
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(777))), true),
            vec![3]
        );
    }

    #[test]
    fn all_pruning_modes_agree_on_results() {
        let t = small_chunk_table();
        for i in 0..20i64 {
            t.apply_insert(
                &Key::int(i),
                &order(i, (i * 37) % 11 * 100, "new"),
                5,
                i as u64 + 1,
            )
            .unwrap();
        }
        t.apply_delete(&Key::int(7), 6, 30).unwrap();
        t.apply_update(&Key::int(3), &order(3, 4_200, "paid"), 7, 31)
            .unwrap();
        for pred in [
            eq(1, Value::Decimal(300)),
            eq(1, Value::Decimal(4_200)),
            ScanPredicate::new(vec![
                ColumnPredicate::new(0, PredicateOp::Ge, Value::Int(5)).unwrap(),
                ColumnPredicate::new(0, PredicateOp::Lt, Value::Int(15)).unwrap(),
            ]),
        ] {
            assert_eq!(
                collect_ids(&t, Some(&pred), true),
                collect_ids(&t, Some(&pred), false)
            );
        }
    }

    // -- delta/main compaction ----------------------------------------------

    #[test]
    fn compaction_preserves_slots_rows_and_results() {
        let t = small_chunk_table();
        for i in 0..10i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        t.apply_delete(&Key::int(2), 6, 20).unwrap();
        t.apply_update(&Key::int(5), &order(5, 9_999, "paid"), 7, 21)
            .unwrap();
        let before = collect_ids(&t, None, false);

        // 10 slots, chunk size 4: two full chunks seal, the 2-slot tail stays.
        assert_eq!(t.compact(), 2);
        assert_eq!(t.main_chunk_count(), 2);
        assert_eq!(t.delta_slot_count(), 2);
        assert_eq!(t.slot_count(), 10, "global slot space is unchanged");
        assert_eq!(t.live_row_count(), 9);

        assert_eq!(collect_ids(&t, None, false), before);
        for pred in [
            eq(0, Value::Int(5)),
            eq(1, Value::Decimal(9_999)),
            ScanPredicate::new(vec![ColumnPredicate::new(
                0,
                PredicateOp::Ge,
                Value::Int(3),
            )
            .unwrap()]),
        ] {
            assert_eq!(
                collect_ids(&t, Some(&pred), true),
                collect_ids(&t, Some(&pred), false)
            );
        }
        // Re-compacting with only a partial tail is a no-op.
        assert_eq!(t.compact(), 0);
    }

    #[test]
    fn compaction_rebuilds_tight_zones_and_filters() {
        // Satellite regression: pre-compaction pruning metadata has drifted
        // (deletes left stale contributions); the rewrite must shed them.
        let t = small_chunk_table();
        for i in 0..4i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        for i in 4..8i64 {
            t.apply_insert(&Key::int(i), &order(i, 10_000 + i, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        // Kill the chunk-0 maximum.  Deletes keep their contributions (a
        // superset stays correct), so the zone is now a stale superset.
        let pred = eq(1, Value::Decimal(300));
        t.apply_delete(&Key::int(3), 6, 20).unwrap();

        // Before compaction the stale superset admits the dead value: the
        // zone still covers 300.
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |_| {});
        assert_eq!(outcome.chunks_scanned, 1, "stale metadata cannot prune");

        assert_eq!(t.compact(), 2);

        // After the rewrite the zone is tight: its max is 200, so the probe
        // prunes everything.
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |_| {});
        assert_eq!(outcome.chunks_pruned_zonemap, 2, "tight zones prune");
        assert_eq!(outcome.chunks_scanned, 0);
        // The surviving chunk-0 rows are still fully readable.
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(200))), true),
            vec![2]
        );
    }

    #[test]
    fn updates_to_main_rows_become_delete_plus_reinsert() {
        let t = small_chunk_table();
        for i in 0..8i64 {
            t.apply_insert(&Key::int(i), &order(i, i * 100, "new"), 5, i as u64 + 1)
                .unwrap();
        }
        assert_eq!(t.compact(), 2);
        t.apply_update(&Key::int(1), &order(1, 7_777, "paid"), 6, 9)
            .unwrap();
        assert_eq!(t.live_row_count(), 8, "logical row count is unchanged");
        assert_eq!(t.slot_count(), 9, "the new version appends to delta");
        assert_eq!(t.main_chunk_count(), 2, "main chunks are never rewritten");
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(7_777))), true),
            vec![1]
        );
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(100))), true),
            Vec::<i64>::new(),
            "the superseded main version is invisible"
        );
        // The idempotent-insert overwrite path takes the same route.
        t.apply_insert(&Key::int(2), &order(2, 8_888, "new"), 7, 10)
            .unwrap();
        assert_eq!(t.live_row_count(), 8);
        assert_eq!(
            collect_ids(&t, Some(&eq(1, Value::Decimal(8_888))), true),
            vec![2]
        );
        // Deleting a main-resident row works unchanged.
        t.apply_delete(&Key::int(0), 8, 11).unwrap();
        assert_eq!(t.live_row_count(), 7);
        assert_eq!(collect_ids(&t, None, false), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn encoded_predicates_deselect_before_decode() {
        // Low-cardinality status strings dictionary-encode; the equality
        // probe then runs on codes and rows of other statuses never decode.
        let t = small_chunk_table();
        for i in 0..8i64 {
            let status = if i % 4 == 0 { "paid" } else { "new" };
            t.apply_insert(&Key::int(i), &order(i, i, status), 5, i as u64 + 1)
                .unwrap();
        }
        assert_eq!(t.compact(), 2);
        let pred = eq(2, Value::Str("paid".into()));
        let mut seen = 0usize;
        let outcome = t.scan_batches_pruned(None, 64, Some(&pred), |batch| {
            seen += batch.selected_count();
        });
        assert_eq!(seen, 2, "only matching rows stay selected");
        assert_eq!(
            outcome.rows_pruned_encoded, 6,
            "non-matching rows skipped decode"
        );
        assert_eq!(collect_ids(&t, Some(&pred), true), vec![0, 4]);
    }

    #[test]
    fn compaction_shrinks_resident_bytes() {
        let t = ColumnTable::with_chunk_size(Arc::new(schema()), 64);
        for i in 0..256i64 {
            // Low-cardinality status + clustered amounts: both compress.
            let status = format!("status-{}", i % 3);
            t.apply_insert(&Key::int(i), &order(i, i / 64, &status), 5, i as u64 + 1)
                .unwrap();
        }
        let before = t.memory_footprint();
        assert_eq!(before.main_chunks, 0);
        assert_eq!(before.bytes_resident, before.bytes_plain);
        assert_eq!(t.compact(), 4);
        let after = t.memory_footprint();
        assert_eq!(after.main_chunks, 4);
        assert_eq!(after.delta_slots, 0);
        assert!(
            after.bytes_resident < before.bytes_resident / 2,
            "encoded main is less than half the plain footprint \
             ({} vs {})",
            after.bytes_resident,
            before.bytes_resident
        );
        assert!(after.compression_ratio() > 2.0);
        assert_eq!(
            after.bytes_plain, before.bytes_plain,
            "plain size is layout-stable"
        );
    }

    #[test]
    fn mid_compaction_interleaving_never_loses_rows() {
        // Compact one chunk at a time, scanning between steps: every mix of
        // main and delta must return the same rows.
        let t = small_chunk_table();
        for i in 0..16i64 {
            t.apply_insert(
                &Key::int(i),
                &order(i, (i * 31) % 5 * 100, "new"),
                5,
                i as u64 + 1,
            )
            .unwrap();
        }
        t.apply_delete(&Key::int(6), 6, 30).unwrap();
        let baseline = collect_ids(&t, None, false);
        let pred = eq(1, Value::Decimal(300));
        let pred_baseline = collect_ids(&t, Some(&pred), false);
        while t.compact_chunk() {
            assert_eq!(collect_ids(&t, None, false), baseline);
            for pruning in [false, true] {
                assert_eq!(collect_ids(&t, Some(&pred), pruning), pred_baseline);
            }
        }
        assert_eq!(t.main_chunk_count(), 4);
    }
}
