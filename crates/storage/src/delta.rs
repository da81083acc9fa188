//! Delta/main tiering for the column store.
//!
//! [`crate::ColumnTable`] keeps its slots in two tiers, the log-structured
//! HTAP layout of TiFlash-style stores:
//!
//! * the **delta** tier — the mutable tail of plain column vectors that
//!   absorbs replicated writes (appends, in-place overwrites);
//! * the **main** tier — an immutable, chunk-aligned prefix of
//!   [`MainChunk`]s whose columns are compressed with the encodings of
//!   [`crate::encode`].
//!
//! Compaction ([`seal_chunk`]) migrates the oldest *full* delta chunk into
//! main.  The rewrite is also when pruning metadata stops drifting: the
//! chunk's zone map is rebuilt *tight* from the surviving live values
//! (updates widened it, deletes left stale contributions) — main chunks never
//! mutate in place, so it cannot go stale again.  Deleted slots are encoded
//! as [`Value::Null`] placeholders: they stay physically present (global slot
//! indices never change) but carry no payload.

use crate::encode::EncodedColumn;
use crate::value::Value;
use crate::zonemap::ChunkZone;

/// One sealed, immutable chunk of the main tier.
#[derive(Debug)]
pub struct MainChunk {
    /// One encoded column per schema column, all covering `chunk_size` slots.
    pub columns: Vec<EncodedColumn>,
    /// Approximate resident bytes of the encoded columns.
    pub encoded_bytes: usize,
    /// Approximate resident bytes the same slots would occupy unencoded.
    pub plain_bytes: usize,
}

impl MainChunk {
    /// Number of row slots the chunk covers.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, EncodedColumn::len)
    }

    /// True when the chunk covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Seal one full delta chunk into a [`MainChunk`], rebuilding its zone map
/// from the actual surviving data.
///
/// `columns` are the chunk's slots of every schema column (all the same
/// length) and `deleted` the matching deletion markers.  Deleted slots are
/// masked to [`Value::Null`] before encoding — their payloads are dropped,
/// their positions preserved — and do not contribute to the rebuilt zone map,
/// which is what makes post-compaction bounds tight.
pub fn seal_chunk(columns: &[&[Value]], deleted: &[bool]) -> (MainChunk, ChunkZone) {
    let mut zone = ChunkZone::new(columns.len());
    zone.live_count = deleted.iter().filter(|&&d| !d).count() as u64;

    let mut encoded = Vec::with_capacity(columns.len());
    let mut masked: Vec<Value> = Vec::with_capacity(deleted.len());
    let (mut encoded_bytes, mut plain_bytes) = (0usize, 0usize);
    for (col_idx, column) in columns.iter().enumerate() {
        masked.clear();
        for (value, &dead) in column.iter().zip(deleted) {
            if dead {
                masked.push(Value::Null);
            } else {
                zone.zones[col_idx].include(value);
                masked.push(value.clone());
            }
        }
        let col = EncodedColumn::encode(&masked);
        encoded_bytes += col.encoded_bytes();
        plain_bytes += col.plain_bytes();
        encoded.push(col);
    }

    let chunk = MainChunk {
        columns: encoded,
        encoded_bytes,
        plain_bytes,
    };
    (chunk, zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoding;

    #[test]
    fn seal_rebuilds_tight_zones_and_live_counts() {
        let ids: Vec<Value> = (0..8).map(Value::Int).collect();
        let amounts: Vec<Value> = (0..8).map(|i| Value::Int(i * 100)).collect();
        let mut deleted = vec![false; 8];
        deleted[0] = true;
        deleted[7] = true;
        let (chunk, zone) = seal_chunk(&[&ids, &amounts], &deleted);
        assert_eq!(chunk.len(), 8);
        assert_eq!(zone.live_count, 6);
        // Bounds cover only the surviving rows 1..=6.
        assert_eq!(zone.zones[0].min, Some(Value::Int(1)));
        assert_eq!(zone.zones[0].max, Some(Value::Int(6)));
        assert_eq!(zone.zones[1].max, Some(Value::Int(600)));
        assert_eq!(zone.zones[0].null_count, 0, "masked slots are not NULLs");
    }

    #[test]
    fn deleted_payloads_are_dropped_by_the_rewrite() {
        // A chunk of fat strings where half the rows died: the masked
        // encoding must not retain the dead payloads.
        let values: Vec<Value> = (0..32)
            .map(|i| Value::Str(format!("payload-{i:0>60}")))
            .collect();
        let deleted: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        let (chunk, zone) = seal_chunk(&[&values], &deleted);
        assert_eq!(zone.live_count, 16);
        let full_plain: usize = values.len() * std::mem::size_of::<Value>()
            + values
                .iter()
                .map(|v| match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                })
                .sum::<usize>();
        assert!(
            chunk.plain_bytes < full_plain,
            "dead payloads no longer count"
        );
        assert_eq!(
            chunk.columns[0].decode_range(0, &[true; 32])[0],
            Value::Null
        );
        assert_eq!(chunk.columns[0].decode_range(0, &[true; 32])[1], values[1]);
    }

    #[test]
    fn empty_live_set_still_seals() {
        let ids: Vec<Value> = (0..4).map(Value::Int).collect();
        let (chunk, zone) = seal_chunk(&[&ids], &[true; 4]);
        assert_eq!(zone.live_count, 0);
        assert_eq!(zone.zones[0].min, None);
        // All-placeholder columns compress to a single NULL run.
        assert_eq!(chunk.columns[0].encoding(), Encoding::Rle);
    }
}
