//! Vectorized batches: fixed-capacity chunks of column vectors.
//!
//! The read path of the stack is batch-first: storage scans hand the executor
//! [`ColumnBatch`]es — one `Vec`/slice per column plus an optional *selection
//! bitmap* marking which rows are live — instead of materializing a [`Row`]
//! per tuple.  A scan names the columns it wants and a batch carries exactly
//! those, in that order: the column store's delta tier lends them out as
//! **borrowed** zero-copy slices of its column vectors and decodes only them
//! from its compressed main tier; the MVCC row store and the query operators
//! produce **owned** batches built with [`BatchBuilder`], cloning no value of
//! a column nobody asked for.  Rows are only materialized "late", at the
//! root of a query plan.
//!
//! This is the standard HTAP recipe (TiFlash, SAP HANA, the vectorized
//! engines surveyed by Zhang et al. 2024): the columnar replica only pays off
//! if the analytical engine consumes its layout natively rather than
//! re-rowifying every value at the storage boundary.

use crate::row::Row;
use crate::value::Value;
use std::borrow::Cow;

/// Default number of row slots per batch.
///
/// 1024 slots keep a typical projected batch within L1/L2 cache while
/// amortizing per-batch bookkeeping over enough tuples that per-row virtual
/// dispatch disappears from profiles.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A chunk of rows in columnar layout.
///
/// All columns have the same length (`num_rows`).  The optional selection
/// bitmap marks live rows: `None` means *all* rows are selected (the common
/// fast path), `Some(sel)` means row `i` participates iff `sel[i]`.  Deleted
/// column-store slots and filtered-out tuples are deselected rather than
/// compacted, so producing a batch never moves data.
#[derive(Debug, Clone)]
pub struct ColumnBatch<'a> {
    columns: Vec<Cow<'a, [Value]>>,
    selection: Option<Cow<'a, [bool]>>,
    num_rows: usize,
}

impl<'a> ColumnBatch<'a> {
    /// A batch borrowing column slices (zero copy), e.g. directly from the
    /// column store.  All slices must have equal length, as must `selection`
    /// when present.  The row count is derived from the first column; use
    /// [`ColumnBatch::borrowed_sized`] when the batch may have zero columns.
    pub fn borrowed(columns: Vec<&'a [Value]>, selection: Option<&'a [bool]>) -> ColumnBatch<'a> {
        let num_rows = columns.first().map_or(0, |c| c.len());
        ColumnBatch::borrowed_sized(columns, selection, num_rows)
    }

    /// [`ColumnBatch::borrowed`] with an explicit row count, so even a
    /// zero-width batch (e.g. an empty projection) still carries how many
    /// rows it stands for.
    pub fn borrowed_sized(
        columns: Vec<&'a [Value]>,
        selection: Option<&'a [bool]>,
        num_rows: usize,
    ) -> ColumnBatch<'a> {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        debug_assert!(selection.map_or(true, |s| s.len() == num_rows));
        ColumnBatch {
            columns: columns.into_iter().map(Cow::Borrowed).collect(),
            selection: selection.map(Cow::Borrowed),
            num_rows,
        }
    }

    /// A batch owning its column vectors, with every row selected.  The row
    /// count is derived from the first column; use
    /// [`ColumnBatch::owned_sized`] when the batch may have zero columns.
    pub fn owned(columns: Vec<Vec<Value>>) -> ColumnBatch<'static> {
        let num_rows = columns.first().map_or(0, |c| c.len());
        ColumnBatch::owned_sized(columns, num_rows)
    }

    /// [`ColumnBatch::owned`] with an explicit row count (see
    /// [`ColumnBatch::borrowed_sized`]).
    pub fn owned_sized(columns: Vec<Vec<Value>>, num_rows: usize) -> ColumnBatch<'static> {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        ColumnBatch {
            columns: columns.into_iter().map(Cow::Owned).collect(),
            selection: None,
            num_rows,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of row slots (selected or not).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// True when the batch holds no row slots at all.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The values of column `col`.
    ///
    /// # Panics
    /// Panics if `col` is out of range (programming error in an operator).
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// Borrow the value at (`col`, `row`), or `None` when out of range.
    pub fn value(&self, col: usize, row: usize) -> Option<&Value> {
        self.columns.get(col).and_then(|c| c.get(row))
    }

    /// The selection bitmap, or `None` when every row is selected.
    pub fn selection(&self) -> Option<&[bool]> {
        self.selection.as_deref()
    }

    /// Whether row slot `row` participates in the batch.
    pub fn is_selected(&self, row: usize) -> bool {
        match &self.selection {
            None => row < self.num_rows,
            Some(sel) => sel.get(row).copied().unwrap_or(false),
        }
    }

    /// Number of selected rows.
    pub fn selected_count(&self) -> usize {
        match &self.selection {
            None => self.num_rows,
            Some(sel) => sel.iter().filter(|&&s| s).count(),
        }
    }

    /// Iterator over the indices of selected row slots.
    pub fn selected_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_rows).filter(|&i| self.is_selected(i))
    }

    /// Replace the selection bitmap (used by vectorized filters, which narrow
    /// the selection in place instead of copying the surviving rows).
    ///
    /// # Panics
    /// Panics if `selection.len() != num_rows`.
    pub fn set_selection(&mut self, selection: Vec<bool>) {
        assert_eq!(
            selection.len(),
            self.num_rows,
            "selection bitmap must cover every row slot"
        );
        self.selection = Some(Cow::Owned(selection));
    }

    /// Late materialization: append one [`Row`] per *selected* slot to `out`.
    /// Returns the number of rows appended.
    pub fn materialize_into(&self, out: &mut Vec<Row>) -> usize {
        let mut appended = 0;
        for row in self.selected_rows() {
            let mut values = Vec::with_capacity(self.width());
            for col in &self.columns {
                values.push(col[row].clone());
            }
            out.push(Row::new(values));
            appended += 1;
        }
        appended
    }
}

/// Builds owned [`ColumnBatch`]es row by row, recycling nothing across
/// batches (each `finish` hands the column vectors to the batch).
///
/// The row count is tracked explicitly rather than derived from the column
/// vectors, so zero-width batches (empty projections) still carry their
/// cardinality.
#[derive(Debug)]
pub struct BatchBuilder {
    columns: Vec<Vec<Value>>,
    rows: usize,
    capacity: usize,
}

impl BatchBuilder {
    /// A builder for batches of `width` columns and up to `capacity` rows.
    pub fn new(width: usize, capacity: usize) -> BatchBuilder {
        let capacity = capacity.max(1);
        BatchBuilder {
            columns: (0..width).map(|_| Vec::new()).collect(),
            rows: 0,
            capacity,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Target batch capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently buffered.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the builder holds `capacity` rows and should be flushed.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Append one row by cloning `values` into the column vectors.
    ///
    /// # Panics
    /// Panics if `values.len() != width` (operator arity bug).
    pub fn push_row(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value.clone());
        }
        self.rows += 1;
    }

    /// Append one row holding `values[src]` for each `src` in `projection`,
    /// in that order; the other values are never cloned.
    ///
    /// # Panics
    /// Panics if `projection.len() != width` or a position is out of range
    /// (operator arity bug).
    pub fn push_row_projected(&mut self, values: &[Value], projection: &[usize]) {
        assert_eq!(projection.len(), self.columns.len(), "row arity mismatch");
        for (col, &src) in self.columns.iter_mut().zip(projection) {
            col.push(values[src].clone());
        }
        self.rows += 1;
    }

    /// Append row slot `row` of `batch` by cloning each column value
    /// straight across (no intermediate row buffer).
    ///
    /// # Panics
    /// Panics if the widths differ or `row` is out of range.
    pub fn push_row_from(&mut self, batch: &ColumnBatch<'_>, row: usize) {
        assert_eq!(batch.width(), self.columns.len(), "batch width mismatch");
        for (src, col) in self.columns.iter_mut().enumerate() {
            col.push(batch.column(src)[row].clone());
        }
        self.rows += 1;
    }

    /// Append every *selected* row of `batch` column-wise — the vectorized
    /// bulk copy used by scan operators (whole column slices are cloned in
    /// one pass per column instead of cell-by-cell per row).
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn extend_from_batch(&mut self, batch: &ColumnBatch<'_>) {
        assert_eq!(batch.width(), self.columns.len(), "batch width mismatch");
        self.rows += batch.selected_count();
        match batch.selection() {
            None => {
                for (src, col) in self.columns.iter_mut().enumerate() {
                    col.extend_from_slice(batch.column(src));
                }
            }
            Some(selection) => {
                for (src, col) in self.columns.iter_mut().enumerate() {
                    let values = batch.column(src);
                    col.extend(
                        values
                            .iter()
                            .zip(selection)
                            .filter(|&(_, &keep)| keep)
                            .map(|(v, _)| v.clone()),
                    );
                }
            }
        }
    }

    /// Append the rows of `batch` whose slot is *both* selected in the batch
    /// and marked in `keep`, column-wise (used by filtering scans).
    ///
    /// # Panics
    /// Panics if the widths differ or `keep.len() != batch.num_rows()`.
    pub fn extend_selected(&mut self, batch: &ColumnBatch<'_>, keep: &[bool]) {
        assert_eq!(batch.width(), self.columns.len(), "batch width mismatch");
        assert_eq!(keep.len(), batch.num_rows(), "keep bitmap width mismatch");
        self.rows += (0..batch.num_rows())
            .filter(|&row| keep[row] && batch.is_selected(row))
            .count();
        for (src, col) in self.columns.iter_mut().enumerate() {
            let values = batch.column(src);
            col.extend(
                values
                    .iter()
                    .enumerate()
                    .filter(|&(row, _)| keep[row] && batch.is_selected(row))
                    .map(|(_, v)| v.clone()),
            );
        }
    }

    /// Append one row by moving `values` into the column vectors.
    ///
    /// # Panics
    /// Panics if `values.len() != width` (operator arity bug).
    pub fn push_row_values(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value);
        }
        self.rows += 1;
    }

    /// [`BatchBuilder::push_row_values`] followed by the standard flush
    /// policy: when the builder reaches capacity the finished batch is
    /// appended to `out`.  Keeps the emit idiom of the query operators in
    /// one place.
    pub fn push_row_values_into(
        &mut self,
        values: Vec<Value>,
        out: &mut Vec<ColumnBatch<'static>>,
    ) {
        self.push_row_values(values);
        if self.is_full() {
            out.push(self.finish());
        }
    }

    /// Take the buffered rows as an owned batch, leaving the builder empty
    /// and ready for the next batch.
    pub fn finish(&mut self) -> ColumnBatch<'static> {
        let width = self.columns.len();
        let columns =
            std::mem::replace(&mut self.columns, (0..width).map(|_| Vec::new()).collect());
        let rows = std::mem::take(&mut self.rows);
        ColumnBatch::owned_sized(columns, rows)
    }

    /// Flush the builder into `out` if it holds any rows.
    pub fn flush_into(&mut self, out: &mut Vec<ColumnBatch<'static>>) {
        if !self.is_empty() {
            out.push(self.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_owned() -> ColumnBatch<'static> {
        ColumnBatch::owned(vec![
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("c".into()),
            ],
        ])
    }

    #[test]
    fn owned_batch_selects_everything_by_default() {
        let batch = sample_owned();
        assert_eq!(batch.width(), 2);
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.selected_count(), 3);
        assert!(batch.selection().is_none());
        assert!(batch.is_selected(2));
        assert!(!batch.is_selected(3));
        assert_eq!(batch.value(0, 1), Some(&Value::Int(2)));
        assert_eq!(batch.value(9, 0), None);
    }

    #[test]
    fn selection_narrows_visible_rows() {
        let mut batch = sample_owned();
        batch.set_selection(vec![true, false, true]);
        assert_eq!(batch.selected_count(), 2);
        assert_eq!(batch.selected_rows().collect::<Vec<_>>(), vec![0, 2]);
        let mut rows = Vec::new();
        assert_eq!(batch.materialize_into(&mut rows), 2);
        assert_eq!(rows[1][0], Value::Int(3));
    }

    #[test]
    #[should_panic(expected = "selection bitmap must cover")]
    fn short_selection_is_rejected() {
        let mut batch = sample_owned();
        batch.set_selection(vec![true]);
    }

    #[test]
    fn borrowed_batch_is_zero_copy_view() {
        let c0 = vec![Value::Int(10), Value::Int(20)];
        let c1 = vec![Value::Int(1), Value::Int(2)];
        let sel = vec![false, true];
        let batch = ColumnBatch::borrowed(vec![&c0, &c1], Some(&sel));
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.selected_count(), 1);
        let mut rows = Vec::new();
        batch.materialize_into(&mut rows);
        assert_eq!(rows, vec![Row::new(vec![Value::Int(20), Value::Int(2)])]);
    }

    #[test]
    fn builder_fills_and_recycles() {
        let mut builder = BatchBuilder::new(2, 2);
        assert!(builder.is_empty());
        builder.push_row(&[Value::Int(1), Value::Int(10)]);
        builder.push_row_values(vec![Value::Int(2), Value::Int(20)]);
        assert!(builder.is_full());
        let batch = builder.finish();
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.column(1), &[Value::Int(10), Value::Int(20)]);
        assert!(builder.is_empty());
        let mut out = Vec::new();
        builder.flush_into(&mut out);
        assert!(out.is_empty(), "empty builder flushes nothing");
        builder.push_row(&[Value::Int(3), Value::Int(30)]);
        builder.flush_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_rows(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let builder = BatchBuilder::new(1, 0);
        assert!(!builder.is_full());
    }
}
