//! Plan interpreter.
//!
//! The executor is *batch-only*: base tables stream in as [`ColumnBatch`]es
//! through the one [`DataSource::scan_batches`], and every operator takes and
//! emits batches — filters narrow a batch's selection bitmap in place,
//! projections and joins emit new owned batches, aggregates fold batch
//! columns into group states, and sort orders `(batch, slot)` locators before
//! gathering them into fresh batches.  Full [`Row`] tuples are materialized
//! once, at the plan root; [`ExecStats::output_rows`] counts them.
//!
//! [`ExecOptions::pruning`] is the one switch between the pruned path (the
//! default, and what the engine runs) and the reference: off runs the plan
//! as written over full-width batches, with no column or chunk pruning.

use crate::colprune::{output_width, prune_columns};
use crate::error::{QueryError, QueryResult};
use crate::expr::{AggFunc, ValueAccess};
use crate::plan::{AggSpec, JoinKind, Plan, SortKey};
use crate::prune::ChunkPruner;
use crate::source::{DataSource, SourceKind};
use olxp_storage::{BatchBuilder, ColumnBatch, Row, Value, DEFAULT_BATCH_SIZE};
use std::collections::HashMap;

/// Executor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Row slots per [`ColumnBatch`] flowing between operators (>= 1).
    pub batch_size: usize,
    /// Whether the executor prunes.  On, the plan is first narrowed to the
    /// columns it reads (see [`crate::colprune`]) and the sargable conjuncts
    /// of each scan filter are pushed down as a [`ChunkPruner`]; sources
    /// without chunk summaries (the row stores) ignore the pruner.  Off runs
    /// the plan as written over full-width batches and hands the source no
    /// pruner: the reference the equivalence tests compare against.
    pub pruning: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            pruning: true,
        }
    }
}

impl ExecOptions {
    /// Batched execution with the given batch size (clamped to >= 1).
    pub fn batched(batch_size: usize) -> ExecOptions {
        ExecOptions {
            batch_size: batch_size.max(1),
            ..ExecOptions::default()
        }
    }

    /// Switch pruning on or off (builder style).
    pub fn with_pruning(mut self, pruning: bool) -> ExecOptions {
        self.pruning = pruning;
        self
    }
}

/// Work counters accumulated while executing a plan.
///
/// The engine converts these into service time through the storage cost model,
/// so they deliberately count *physical* work (rows examined) rather than
/// logical output sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Which store served the base-table accesses.
    pub source_kind: Option<SourceKind>,
    /// Physical rows examined by table scans, the headline input to the scan
    /// cost model.
    pub rows_scanned: u64,
    /// Number of full table scans performed.
    pub full_scans: u64,
    /// Column batches streamed out of table scans.
    pub batches_scanned: u64,
    /// Hash-join probe operations (probes plus emitted matches).
    pub join_probes: u64,
    /// Rows used to build join hash tables.
    pub join_build_rows: u64,
    /// Rows fed into aggregation operators.
    pub agg_input_rows: u64,
    /// Rows fed into sort operators.
    pub sort_rows: u64,
    /// Rows produced by the plan root.  Operators exchange batches only, so
    /// these are the only `Row` tuples the executor materializes.
    pub output_rows: u64,
    /// Replication lag, in committed mutation records, of the store this
    /// query read from at the moment the read started (0 for reads of the
    /// authoritative row store).  Filled in by the engine session.
    pub freshness_lag_records: u64,
    /// Column-store chunks whose data was actually read by table scans.
    pub chunks_scanned: u64,
    /// Column-store chunks skipped by zone maps (min/max or live count).
    pub chunks_pruned_zonemap: u64,
    /// Live rows in surviving compressed main-tier chunks deselected by
    /// predicate evaluation on the encoded columns (dictionary-code
    /// comparison, RLE run skipping) before any value was decoded.
    pub rows_pruned_encoded: u64,
    /// Wall-clock nanoseconds of every operator node executed, children
    /// before parents (a parent's duration includes its children's).  Only
    /// populated while `olxp_trace` span recording is enabled; empty
    /// otherwise.
    pub operator_nanos: Vec<u64>,
}

impl ExecStats {
    /// Merge another stats record into this one (used when a transaction runs
    /// several statements).
    pub fn merge(&mut self, other: &ExecStats) {
        if self.source_kind.is_none() {
            self.source_kind = other.source_kind;
        }
        self.rows_scanned += other.rows_scanned;
        self.full_scans += other.full_scans;
        self.batches_scanned += other.batches_scanned;
        self.join_probes += other.join_probes;
        self.join_build_rows += other.join_build_rows;
        self.agg_input_rows += other.agg_input_rows;
        self.sort_rows += other.sort_rows;
        self.output_rows += other.output_rows;
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_pruned_zonemap += other.chunks_pruned_zonemap;
        self.rows_pruned_encoded += other.rows_pruned_encoded;
        self.operator_nanos.extend_from_slice(&other.operator_nanos);
        // Freshness is a point-in-time observation, not additive work: keep
        // the worst (stalest) observation across merged statements.
        self.freshness_lag_records = self.freshness_lag_records.max(other.freshness_lag_records);
    }
}

/// Result of executing a plan: the output rows and the work counters.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Output rows of the plan root.
    pub rows: Vec<Row>,
    /// Work performed.
    pub stats: ExecStats,
}

/// Execute `plan` against `source` with default options (pruning on,
/// [`DEFAULT_BATCH_SIZE`]).
pub fn execute(plan: &Plan, source: &dyn DataSource) -> QueryResult<QueryOutput> {
    execute_with(plan, source, ExecOptions::default())
}

/// Execute `plan` against `source` with explicit executor options.
pub fn execute_with(
    plan: &Plan,
    source: &dyn DataSource,
    opts: ExecOptions,
) -> QueryResult<QueryOutput> {
    let opts = ExecOptions {
        batch_size: opts.batch_size.max(1),
        ..opts
    };
    let mut stats = ExecStats {
        source_kind: Some(source.kind()),
        ..ExecStats::default()
    };
    let pruned = opts.pruning.then(|| prune_columns(plan, source)).flatten();
    let batches = run(pruned.as_ref().unwrap_or(plan), source, &mut stats, &opts)?;
    let rows = batches.into_rows();
    stats.output_rows = rows.len() as u64;
    Ok(QueryOutput { rows, stats })
}

// ----------------------------------------------------------------------
// Intermediate representation
// ----------------------------------------------------------------------

/// One selected slot of an operator's input: a position across a batch's
/// column vectors (nothing materialized).
#[derive(Clone, Copy)]
struct RowAt<'a> {
    batch: &'a ColumnBatch<'a>,
    slot: usize,
}

impl ValueAccess for RowAt<'_> {
    fn width(&self) -> usize {
        self.batch.width()
    }

    fn value_at(&self, pos: usize) -> Option<&Value> {
        self.batch.value(pos, self.slot)
    }
}

/// Result of one operator: owned batches of the operator's output width.
struct Batches(Vec<ColumnBatch<'static>>);

impl Batches {
    /// Number of selected rows across the result.
    fn selected_len(&self) -> usize {
        self.0.iter().map(ColumnBatch::selected_count).sum()
    }

    /// Visit every selected row in order.  The row handles borrow `self`, so
    /// consumers (the join build side, sort) may retain them.
    fn for_each<'s, F>(&'s self, mut f: F) -> QueryResult<()>
    where
        F: FnMut(RowAt<'s>) -> QueryResult<()>,
    {
        for batch in &self.0 {
            for slot in batch.selected_rows() {
                f(RowAt { batch, slot })?;
            }
        }
        Ok(())
    }

    /// Late materialization: turn the result into `Row` tuples.
    fn into_rows(self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.selected_len());
        for batch in &self.0 {
            batch.materialize_into(&mut rows);
        }
        rows
    }
}

/// Clone the values of `row` into a fresh vector (used when emitting join
/// outputs and group keys).
fn gather(row: &RowAt<'_>, extra_capacity: usize) -> Vec<Value> {
    let width = row.width();
    let mut values = Vec::with_capacity(width + extra_capacity);
    for pos in 0..width {
        values.push(row.value_at(pos).expect("pos < width").clone());
    }
    values
}

fn extract_key(row: &RowAt<'_>, positions: &[usize]) -> QueryResult<Vec<Value>> {
    positions
        .iter()
        .map(|&p| {
            row.value_at(p)
                .cloned()
                .ok_or(QueryError::ColumnOutOfRange {
                    position: p,
                    width: row.width(),
                })
        })
        .collect()
}

// ----------------------------------------------------------------------
// Operators
// ----------------------------------------------------------------------

/// The trace tag identifying an operator kind, carried in the span's shard
/// field (spans all share the `query_operator` category).
fn operator_tag(plan: &Plan) -> u32 {
    match plan {
        Plan::TableScan { .. } => 0,
        Plan::Filter { .. } => 2,
        Plan::Project { .. } => 3,
        Plan::Join { .. } => 4,
        Plan::Aggregate { .. } => 5,
        Plan::Sort { .. } => 6,
        Plan::Limit { .. } => 7,
    }
}

fn run(
    plan: &Plan,
    source: &dyn DataSource,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    // Per-operator batch timing, one relaxed load when tracing is off.  A
    // node's span (and recorded duration) includes its children, matching
    // how the spans nest in a Chrome trace view.
    let trace_start = if olxp_trace::enabled() {
        Some(olxp_trace::now_nanos())
    } else {
        None
    };
    let result = run_node(plan, source, stats, opts)?;
    if let Some(start) = trace_start {
        olxp_trace::record_span(
            olxp_trace::SpanCategory::QueryOperator,
            operator_tag(plan),
            result.selected_len() as u64,
            start,
        );
        stats
            .operator_nanos
            .push(olxp_trace::now_nanos().saturating_sub(start));
    }
    Ok(result)
}

fn run_node(
    plan: &Plan,
    source: &dyn DataSource,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    match plan {
        Plan::TableScan {
            table,
            filter,
            columns,
        } => scan_table(
            table,
            filter.as_ref(),
            columns.as_deref(),
            source,
            stats,
            opts,
        ),
        Plan::Filter { input, predicate } => {
            // Narrow each batch's selection bitmap in place; nothing is
            // copied or compacted.
            let mut input = run(input, source, stats, opts)?;
            for batch in &mut input.0 {
                let mut selection = vec![false; batch.num_rows()];
                for slot in batch.selected_rows() {
                    if predicate.matches_access(&RowAt { batch, slot })? {
                        selection[slot] = true;
                    }
                }
                batch.set_selection(selection);
            }
            Ok(input)
        }
        Plan::Project { input, exprs } => {
            let input = run(input, source, stats, opts)?;
            let mut out = Vec::new();
            let mut builder = BatchBuilder::new(exprs.len(), opts.batch_size);
            input.for_each(|row| {
                let values = exprs
                    .iter()
                    .map(|e| e.eval_access(&row))
                    .collect::<QueryResult<_>>()?;
                builder.push_row_values_into(values, &mut out);
                Ok(())
            })?;
            builder.flush_into(&mut out);
            Ok(Batches(out))
        }
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            kind,
        } => {
            if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                return Err(QueryError::InvalidPlan(
                    "join key lists must be non-empty and of equal length".into(),
                ));
            }
            let left_in = run(left, source, stats, opts)?;
            let right_in = run(right, source, stats, opts)?;
            join(
                JoinInput {
                    rows: &left_in,
                    keys: left_keys,
                    width: output_width(left, source)?,
                },
                JoinInput {
                    rows: &right_in,
                    keys: right_keys,
                    width: output_width(right, source)?,
                },
                *kind,
                stats,
                opts,
            )
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            if aggregates.is_empty() {
                return Err(QueryError::InvalidPlan(
                    "aggregate node requires at least one aggregate".into(),
                ));
            }
            let input = run(input, source, stats, opts)?;
            aggregate(&input, group_by, aggregates, stats, opts)
        }
        Plan::Sort { input, keys } => {
            let input = run(input, source, stats, opts)?;
            stats.sort_rows += input.selected_len() as u64;
            sort(&input, keys, opts)
        }
        Plan::Limit { input, limit } => {
            let mut out = Vec::new();
            let mut remaining = *limit;
            for mut batch in run(input, source, stats, opts)?.0 {
                if remaining == 0 {
                    break;
                }
                let selected = batch.selected_count();
                if selected > remaining {
                    let mut selection = vec![false; batch.num_rows()];
                    for slot in batch.selected_rows().take(remaining) {
                        selection[slot] = true;
                    }
                    batch.set_selection(selection);
                    remaining = 0;
                } else {
                    remaining -= selected;
                }
                out.push(batch);
            }
            Ok(Batches(out))
        }
    }
}

/// Base-table scan: stream batches of the scan's `columns` from the source,
/// apply the pushed-down filter per selected slot, and emit owned batches of
/// the surviving rows.
fn scan_table(
    table: &str,
    filter: Option<&crate::expr::Expr>,
    columns: Option<&[usize]>,
    source: &dyn DataSource,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    let table_width = source.schema(table)?.column_count();
    if let Some(&position) = columns.and_then(|c| c.iter().find(|&&c| c >= table_width)) {
        return Err(QueryError::ColumnOutOfRange {
            position,
            width: table_width,
        });
    }
    let width = columns.map_or(table_width, <[usize]>::len);
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(width, opts.batch_size);
    let mut err: Option<QueryError> = None;
    let mut batches = 0u64;
    // Push the sargable conjuncts of the filter down to the source so column
    // stores can skip chunks before touching data.  Pruning only ever removes
    // chunks that cannot contain a matching row; the full filter still runs
    // on every surviving slot below.
    let pruner = opts.pruning.then(|| match filter {
        Some(f) => ChunkPruner::from_filter(f, columns),
        None => ChunkPruner::unfiltered(),
    });
    let outcome = source.scan_batches(
        table,
        columns,
        opts.batch_size,
        pruner.as_ref(),
        &mut |batch| {
            if err.is_some() {
                return;
            }
            batches += 1;
            match filter {
                None => {
                    // Flush first if the bulk append would overflow the
                    // configured batch size: emitted batches stay <= batch_size.
                    if !builder.is_empty()
                        && builder.len() + batch.selected_count() > builder.capacity()
                    {
                        out.push(builder.finish());
                    }
                    builder.extend_from_batch(batch);
                }
                Some(f) => {
                    // Evaluate the predicate per selected slot into a keep
                    // bitmap, then copy the survivors column-wise.
                    let mut keep = vec![false; batch.num_rows()];
                    let mut survivors = 0usize;
                    for slot in batch.selected_rows() {
                        match f.matches_access(&RowAt { batch, slot }) {
                            Ok(matched) => {
                                keep[slot] = matched;
                                survivors += usize::from(matched);
                            }
                            Err(e) => {
                                err = Some(e);
                                return;
                            }
                        }
                    }
                    if !builder.is_empty() && builder.len() + survivors > builder.capacity() {
                        out.push(builder.finish());
                    }
                    builder.extend_selected(batch, &keep);
                }
            }
            if builder.is_full() {
                out.push(builder.finish());
            }
        },
    )?;
    if let Some(e) = err {
        return Err(e);
    }
    builder.flush_into(&mut out);
    stats.rows_scanned += outcome.slots_examined as u64;
    stats.full_scans += 1;
    stats.batches_scanned += batches;
    stats.chunks_scanned += outcome.chunks_scanned;
    stats.chunks_pruned_zonemap += outcome.chunks_pruned_zonemap;
    stats.rows_pruned_encoded += outcome.rows_pruned_encoded;
    Ok(Batches(out))
}

/// One input of a hash join: its rows, its key positions, and the width the
/// plan gives it — a result with no rows cannot tell its own.
struct JoinInput<'a> {
    rows: &'a Batches,
    keys: &'a [usize],
    width: usize,
}

/// Hash join: build on the right, probe with the left so LeftOuter can emit
/// unmatched left rows.  Build-side rows are addressed by batch slot — only
/// emitted matches gather values.
fn join(
    left: JoinInput<'_>,
    right: JoinInput<'_>,
    kind: JoinKind,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    let build_rows = right.rows.selected_len();
    stats.join_build_rows += build_rows as u64;
    let right_width = right.width;

    // Build: hash each selected right slot by its join key.
    let mut locators: Vec<RowAt<'_>> = Vec::with_capacity(build_rows);
    let mut hash: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build_rows);
    right.rows.for_each(|row| {
        let key = extract_key(&row, right.keys)?;
        hash.entry(key).or_default().push(locators.len());
        locators.push(row);
        Ok(())
    })?;

    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(left.width + right_width, opts.batch_size);
    left.rows.for_each(|lrow| {
        stats.join_probes += 1;
        let key = extract_key(&lrow, left.keys)?;
        match hash.get(&key) {
            Some(matches) => {
                for &loc in matches {
                    stats.join_probes += 1;
                    let mut values = gather(&lrow, right_width);
                    let rrow = &locators[loc];
                    for pos in 0..right_width {
                        values.push(rrow.value_at(pos).expect("pos < width").clone());
                    }
                    builder.push_row_values_into(values, &mut out);
                }
            }
            None => {
                if kind == JoinKind::LeftOuter {
                    let mut values = gather(&lrow, right_width);
                    values.extend(std::iter::repeat(Value::Null).take(right_width));
                    builder.push_row_values_into(values, &mut out);
                }
            }
        }
        Ok(())
    })?;
    builder.flush_into(&mut out);
    Ok(Batches(out))
}

#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> AggState {
        AggState {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        self.count += 1;
        if let Some(v) = value.as_f64() {
            self.sum += v;
        }
        match &self.min {
            Some(m) if value >= m => {}
            _ => self.min = Some(value.clone()),
        }
        match &self.max {
            Some(m) if value <= m => {}
            _ => self.max = Some(value.clone()),
        }
    }

    fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Vectorized aggregation: fold every selected input slot into per-group
/// [`AggState`]s (per-batch increments for the input accounting), then emit
/// the groups as one batch — the result stays columnar until the plan root.
fn aggregate(
    input: &Batches,
    group_by: &[usize],
    aggregates: &[AggSpec],
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    stats.agg_input_rows += input.selected_len() as u64;
    if group_by.is_empty() {
        return aggregate_global(input, aggregates, opts);
    }
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    input.for_each(|row| {
        let key = extract_key(&row, group_by)?;
        let states = match groups.get_mut(&key) {
            Some(states) => states,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| vec![AggState::new(); aggregates.len()])
            }
        };
        for (state, spec) in states.iter_mut().zip(aggregates) {
            let value = row
                .value_at(spec.column)
                .ok_or(QueryError::ColumnOutOfRange {
                    position: spec.column,
                    width: row.width(),
                })?;
            state.update(value);
        }
        Ok(())
    })?;

    let width = group_by.len() + aggregates.len();
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(width, opts.batch_size);
    for key in order {
        let states = &groups[&key];
        let mut values = key.clone();
        values.reserve(aggregates.len());
        for (state, spec) in states.iter().zip(aggregates) {
            values.push(state.finalize(spec.func));
        }
        builder.push_row_values_into(values, &mut out);
    }
    builder.flush_into(&mut out);
    Ok(Batches(out))
}

/// Global (ungrouped) aggregate: a single state vector folded over every
/// input slot — no per-row group-key allocation or hashing.  A global
/// aggregate over zero rows still yields one row.
fn aggregate_global(
    input: &Batches,
    aggregates: &[AggSpec],
    opts: &ExecOptions,
) -> QueryResult<Batches> {
    let mut states = vec![AggState::new(); aggregates.len()];
    input.for_each(|row| {
        for (state, spec) in states.iter_mut().zip(aggregates) {
            let value = row
                .value_at(spec.column)
                .ok_or(QueryError::ColumnOutOfRange {
                    position: spec.column,
                    width: row.width(),
                })?;
            state.update(value);
        }
        Ok(())
    })?;
    let values: Vec<Value> = states
        .iter()
        .zip(aggregates)
        .map(|(s, a)| s.finalize(a.func))
        .collect();
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(aggregates.len(), opts.batch_size);
    builder.push_row_values(values);
    builder.flush_into(&mut out);
    Ok(Batches(out))
}

/// Stable sort: order the selected `(batch, slot)` locators by `keys` (tied
/// rows keep their input order), then gather them into fresh batches.
fn sort(input: &Batches, keys: &[SortKey], opts: &ExecOptions) -> QueryResult<Batches> {
    let mut locators: Vec<RowAt<'_>> = Vec::with_capacity(input.selected_len());
    input.for_each(|row| {
        locators.push(row);
        Ok(())
    })?;
    let Some(first) = locators.first() else {
        return Ok(Batches(Vec::new()));
    };
    // Validate positions up front so sorting itself cannot fail.
    let width = first.width();
    if let Some(key) = keys.iter().find(|k| k.column >= width) {
        return Err(QueryError::ColumnOutOfRange {
            position: key.column,
            width,
        });
    }
    locators.sort_by(|a, b| {
        for key in keys {
            let (x, y) = (
                &a.batch.column(key.column)[a.slot],
                &b.batch.column(key.column)[b.slot],
            );
            let ord = if key.ascending { x.cmp(y) } else { y.cmp(x) };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(width, opts.batch_size);
    for row in &locators {
        builder.push_row_from(row.batch, row.slot);
        if builder.is_full() {
            out.push(builder.finish());
        }
    }
    builder.flush_into(&mut out);
    Ok(Batches(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::expr::{col, lit};
    use crate::source::ShardedRowSource;
    use olxp_storage::{ColumnDef, DataType, Key, RowTable, TableSchema};
    use std::collections::HashMap as StdHashMap;
    use std::sync::Arc;

    /// The reference: the plan as written, full width, no pruner.
    fn reference() -> ExecOptions {
        ExecOptions::default().with_pruning(false)
    }

    /// ORDERS and CUSTOMER on one shard, read at timestamp 10.
    fn fixture() -> ShardedRowSource {
        let orders = Arc::new(RowTable::new(Arc::new(
            TableSchema::new(
                "ORDERS",
                vec![
                    ColumnDef::new("o_id", DataType::Int, false),
                    ColumnDef::new("o_cid", DataType::Int, false),
                    ColumnDef::new("o_amount", DataType::Decimal, false),
                ],
                vec!["o_id"],
            )
            .unwrap(),
        )));
        let customers = Arc::new(RowTable::new(Arc::new(
            TableSchema::new(
                "CUSTOMER",
                vec![
                    ColumnDef::new("c_id", DataType::Int, false),
                    ColumnDef::new("c_name", DataType::Str, false),
                ],
                vec!["c_id"],
            )
            .unwrap(),
        )));
        for (o, c, amount) in [(1, 10, 500), (2, 10, 300), (3, 20, 800), (4, 30, 100)] {
            orders.install(
                Key::int(o),
                Some(Row::new(vec![
                    Value::Int(o),
                    Value::Int(c),
                    Value::Decimal(amount),
                ])),
                5,
            );
        }
        for (c, name) in [(10, "alice"), (20, "bob")] {
            customers.install(
                Key::int(c),
                Some(Row::new(vec![Value::Int(c), Value::Str(name.into())])),
                5,
            );
        }
        let mut tables = StdHashMap::new();
        tables.insert("ORDERS".to_string(), orders);
        tables.insert("CUSTOMER".to_string(), customers);
        ShardedRowSource::new(vec![Arc::new(tables)], 10)
    }

    #[test]
    fn scan_filter_project() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .filter(col(1).eq(lit(10)))
            .project(vec![col(0), col(2)])
            .build();
        let out = execute(&plan, &source).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].arity(), 2);
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.full_scans, 1);
        assert_eq!(out.stats.output_rows, 2);
    }

    #[test]
    fn inner_and_left_outer_join() {
        let source = fixture();
        let inner = QueryBuilder::scan("ORDERS")
            .join(
                QueryBuilder::scan("CUSTOMER"),
                vec![1],
                vec![0],
                JoinKind::Inner,
            )
            .build();
        let out = execute(&inner, &source).unwrap();
        assert_eq!(out.rows.len(), 3, "order 4 has no matching customer");
        assert_eq!(out.rows[0].arity(), 5);
        assert!(out.stats.join_probes > 0);
        assert_eq!(out.stats.join_build_rows, 2);

        let outer = QueryBuilder::scan("ORDERS")
            .join(
                QueryBuilder::scan("CUSTOMER"),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .build();
        let out = execute(&outer, &source).unwrap();
        assert_eq!(out.rows.len(), 4);
        let unmatched = out
            .rows
            .iter()
            .find(|r| r[0] == Value::Int(4))
            .expect("order 4 present");
        assert!(unmatched[3].is_null());
    }

    #[test]
    fn group_by_aggregation() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .aggregate(
                vec![1],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Sum, 2),
                    AggSpec::new(AggFunc::Min, 2),
                ],
            )
            .sort(vec![SortKey::asc(0)])
            .build();
        let out = execute(&plan, &source).unwrap();
        assert_eq!(out.rows.len(), 3);
        // customer 10: two orders totalling 8.00, min 3.00
        assert_eq!(out.rows[0][0], Value::Int(10));
        assert_eq!(out.rows[0][1], Value::Int(2));
        assert_eq!(out.rows[0][2], Value::Float(8.0));
        assert_eq!(out.rows[0][3], Value::Decimal(300));
        assert_eq!(out.stats.agg_input_rows, 4);
        assert_eq!(out.stats.sort_rows, 3);
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .filter(col(0).gt(lit(1000)))
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Min, 2),
                ],
            )
            .build();
        let out = execute(&plan, &source).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert!(out.rows[0][1].is_null());
    }

    #[test]
    fn sort_and_limit() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .sort(vec![SortKey::desc(2)])
            .limit(2)
            .build();
        let out = execute(&plan, &source).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][2], Value::Decimal(800));
        assert_eq!(out.rows[1][2], Value::Decimal(500));
    }

    /// `Sort` is stable across batch boundaries: rows with equal keys come
    /// out in their input order even when the ties sit in different input
    /// batches.  `amount > 4.00` ties orders 1 and 3 (true) and 2 and 4
    /// (false), and `batched(2)` puts each pair's rows in different batches.
    #[test]
    fn sort_keeps_tied_rows_in_input_order_across_batches() {
        let col_tables = col_fixture();
        let sources: [&dyn DataSource; 2] =
            [&fixture(), &crate::source::ColumnSource::new(&col_tables)];
        let flagged = || {
            QueryBuilder::scan("ORDERS").project(vec![col(0), col(2).gt(lit(Value::Decimal(400)))])
        };
        for source in sources {
            for (key, ids) in [
                (SortKey::asc(1), [2, 4, 1, 3]),
                (SortKey::desc(1), [1, 3, 2, 4]),
            ] {
                let plan = flagged().sort(vec![key]).build();
                let out = execute_with(&plan, source, ExecOptions::batched(2)).unwrap();
                let got: Vec<&Value> = out.rows.iter().map(|r| &r[0]).collect();
                let want: Vec<Value> = ids.into_iter().map(Value::Int).collect();
                assert_eq!(got, want.iter().collect::<Vec<_>>(), "{key:?}");
                assert_eq!(out.stats.sort_rows, 4);
                assert_eq!(out.stats.output_rows, 4, "only the root materializes");
                let expected =
                    execute_with(&plan, source, ExecOptions::batched(2).with_pruning(false));
                assert_eq!(out.rows, expected.unwrap().rows, "{key:?}");
            }
        }
    }

    #[test]
    fn malformed_join_is_rejected() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .join(
                QueryBuilder::scan("CUSTOMER"),
                vec![],
                vec![],
                JoinKind::Inner,
            )
            .build();
        assert!(matches!(
            execute(&plan, &source),
            Err(QueryError::InvalidPlan(_))
        ));
    }

    fn col_fixture() -> StdHashMap<String, Arc<olxp_storage::ColumnTable>> {
        let orders = Arc::new(olxp_storage::ColumnTable::new(Arc::new(
            TableSchema::new(
                "ORDERS",
                vec![
                    ColumnDef::new("o_id", DataType::Int, false),
                    ColumnDef::new("o_cid", DataType::Int, false),
                    ColumnDef::new("o_amount", DataType::Decimal, false),
                ],
                vec!["o_id"],
            )
            .unwrap(),
        )));
        for (o, c, amount) in [(1, 10, 500), (2, 10, 300), (3, 20, 800), (4, 30, 100)] {
            orders
                .apply(
                    &Key::int(o),
                    Some(&Row::new(vec![
                        Value::Int(o),
                        Value::Int(c),
                        Value::Decimal(amount),
                    ])),
                )
                .unwrap();
        }
        let customers = Arc::new(olxp_storage::ColumnTable::new(Arc::new(
            TableSchema::new(
                "CUSTOMER",
                vec![
                    ColumnDef::new("c_id", DataType::Int, false),
                    ColumnDef::new("c_name", DataType::Str, false),
                ],
                vec!["c_id"],
            )
            .unwrap(),
        )));
        for (c, name) in [(10, "alice"), (20, "bob")] {
            customers
                .apply(
                    &Key::int(c),
                    Some(&Row::new(vec![Value::Int(c), Value::Str(name.into())])),
                )
                .unwrap();
        }
        let mut tables = StdHashMap::new();
        tables.insert("ORDERS".to_string(), orders);
        tables.insert("CUSTOMER".to_string(), customers);
        tables
    }

    /// Regression: a result with no rows has no width of its own, so the join
    /// used to take the right input for zero columns wide and emit left-arity
    /// rows; anything above it reading a right-side column then failed with
    /// `ColumnOutOfRange`.
    #[test]
    fn left_outer_join_with_an_empty_right_input_pads_to_the_plan_width() {
        let col_tables = col_fixture();
        let sources: [&dyn DataSource; 2] =
            [&fixture(), &crate::source::ColumnSource::new(&col_tables)];
        let join = QueryBuilder::scan("ORDERS").join(
            QueryBuilder::scan_where("CUSTOMER", col(0).eq(lit(999))),
            vec![1],
            vec![0],
            JoinKind::LeftOuter,
        );
        for source in sources {
            for opts in [ExecOptions::default(), reference()] {
                let out = execute_with(&join.clone().build(), source, opts).unwrap();
                assert_eq!(out.rows.len(), 4);
                assert_eq!(
                    out.rows[0].values(),
                    [
                        Value::Int(1),
                        Value::Int(10),
                        Value::Decimal(500),
                        Value::Null,
                        Value::Null
                    ]
                );
                // An operator above the join can read the right side.
                let above = join
                    .clone()
                    .filter(col(4).is_null())
                    .project(vec![col(0), col(4)]);
                let out = execute_with(&above.build(), source, opts).unwrap();
                assert_eq!(out.rows.len(), 4);
                assert_eq!(out.rows[3].values(), [Value::Int(4), Value::Null]);
            }
        }
    }

    /// A position past the input's width is the same typed error whether or
    /// not the plan around it could be narrowed: the pruning pass declines
    /// such plans, so the error still names the position as written and the
    /// width of the full input.
    #[test]
    fn out_of_range_positions_stay_typed_errors_under_column_pruning() {
        let source = fixture();
        let orders = || QueryBuilder::scan_where("ORDERS", col(1).eq(lit(10)));
        for (plan, position, width) in [
            (
                orders().aggregate(vec![], vec![AggSpec::new(AggFunc::Sum, 7)]),
                7,
                3,
            ),
            (
                orders().aggregate(vec![3], vec![AggSpec::new(AggFunc::Sum, 2)]),
                3,
                3,
            ),
            (orders().project(vec![col(0), col(5).add(col(2))]), 5, 3),
            (
                orders().filter(col(4).is_null()).project(vec![col(0)]),
                4,
                3,
            ),
            (
                orders().sort(vec![SortKey::asc(8)]).project(vec![col(0)]),
                8,
                3,
            ),
            (
                orders()
                    .join(
                        QueryBuilder::scan("CUSTOMER"),
                        vec![1],
                        vec![2],
                        JoinKind::Inner,
                    )
                    .project(vec![col(0)]),
                2,
                2,
            ),
            (
                orders()
                    .join(
                        QueryBuilder::scan("CUSTOMER"),
                        vec![1],
                        vec![0],
                        JoinKind::Inner,
                    )
                    .project(vec![col(5)]),
                5,
                5,
            ),
        ] {
            let plan = plan.build();
            for opts in [ExecOptions::default(), reference()] {
                assert_eq!(
                    execute_with(&plan, &source, opts).unwrap_err(),
                    QueryError::ColumnOutOfRange { position, width },
                    "{plan:?}"
                );
            }
        }
        // A scan asked for a column its table does not have.
        let plan = Plan::TableScan {
            table: "ORDERS".into(),
            filter: None,
            columns: Some(vec![0, 3]),
        };
        for opts in [ExecOptions::default(), reference()] {
            assert_eq!(
                execute_with(&plan, &source, opts).unwrap_err(),
                QueryError::ColumnOutOfRange {
                    position: 3,
                    width: 3
                }
            );
        }
    }

    /// A hand-written column list means the same thing with pruning on and
    /// off.
    #[test]
    fn a_scan_with_a_column_list_emits_those_columns_in_that_order() {
        let source = fixture();
        let plan = Plan::TableScan {
            table: "ORDERS".into(),
            filter: Some(col(0).ge(lit(Value::Decimal(500)))),
            columns: Some(vec![2, 0]),
        };
        for opts in [ExecOptions::default(), reference()] {
            let out = execute_with(&plan, &source, opts).unwrap();
            let rows: Vec<&[Value]> = out.rows.iter().map(Row::values).collect();
            assert_eq!(
                rows,
                [
                    [Value::Decimal(500), Value::Int(1)],
                    [Value::Decimal(800), Value::Int(3)]
                ]
            );
            assert_eq!(out.stats.rows_scanned, 4);
        }
    }

    #[test]
    fn pruned_and_reference_agree_on_every_operator() {
        let source = fixture();
        let plans = vec![
            QueryBuilder::scan("ORDERS")
                .filter(col(2).ge(lit(Value::Decimal(300))))
                .project(vec![col(0), col(2)])
                .build(),
            QueryBuilder::scan("ORDERS")
                .join(
                    QueryBuilder::scan("CUSTOMER"),
                    vec![1],
                    vec![0],
                    JoinKind::LeftOuter,
                )
                .aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, 2)])
                .sort(vec![SortKey::asc(0)])
                .limit(2)
                .build(),
        ];
        for plan in &plans {
            let expected = execute_with(plan, &source, reference()).unwrap();
            for batch_size in [1usize, 3, 1024] {
                let batched =
                    execute_with(plan, &source, ExecOptions::batched(batch_size)).unwrap();
                assert_eq!(batched.rows, expected.rows, "batch_size={batch_size}");
                assert_eq!(batched.stats.rows_scanned, expected.stats.rows_scanned);
                assert_eq!(batched.stats.output_rows, expected.stats.output_rows);
            }
        }
    }

    #[test]
    fn batched_scan_counts_batches_and_avoids_row_materialization() {
        let tables = col_fixture();
        let source = crate::source::ColumnSource::new(&tables);
        let plan = QueryBuilder::scan("ORDERS")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Sum, 2)])
            .build();

        let batched = execute_with(&plan, &source, ExecOptions::batched(2)).unwrap();
        assert_eq!(batched.rows.len(), 1);
        assert_eq!(batched.stats.batches_scanned, 2, "4 rows / batch_size 2");
        assert_eq!(
            batched.stats.output_rows, 1,
            "only the root row is materialized on the batched path"
        );

        let expected = execute_with(&plan, &source, ExecOptions::batched(2).with_pruning(false));
        assert_eq!(expected.unwrap().rows, batched.rows);
    }

    #[test]
    fn limit_narrows_batch_selection() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS").limit(3).build();
        let out = execute_with(&plan, &source, ExecOptions::batched(2)).unwrap();
        assert_eq!(out.rows.len(), 3);
        let all = execute(&QueryBuilder::scan("ORDERS").build(), &source).unwrap();
        assert_eq!(out.rows[..], all.rows[..3]);
    }

    #[test]
    fn filter_errors_propagate_from_batches() {
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS")
            .filter(col(99).eq(lit(1)))
            .build();
        assert!(matches!(
            execute(&plan, &source),
            Err(QueryError::ColumnOutOfRange { position: 99, .. })
        ));
    }

    #[test]
    fn zero_width_projection_keeps_cardinality() {
        // SELECT (no columns) FROM ORDERS — degenerate, but the batch
        // pipeline must not lose the row count when width is 0.
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS").project(vec![]).build();
        let batched = execute_with(&plan, &source, ExecOptions::batched(3)).unwrap();
        let expected =
            execute_with(&plan, &source, ExecOptions::batched(3).with_pruning(false)).unwrap();
        assert_eq!(batched.rows.len(), 4, "one empty row per input row");
        assert_eq!(batched.rows, expected.rows);
        assert!(batched.rows.iter().all(Row::is_empty));
    }

    #[test]
    fn exec_options_clamp_batch_size() {
        let opts = ExecOptions::batched(0);
        assert_eq!(opts.batch_size, 1);
        let source = fixture();
        let plan = QueryBuilder::scan("ORDERS").build();
        let out = execute_with(
            &plan,
            &source,
            ExecOptions {
                batch_size: 0,
                pruning: true,
            },
        )
        .unwrap();
        assert_eq!(out.rows.len(), 4, "zero batch size is clamped, not UB");
    }

    #[test]
    fn pruned_column_scan_matches_unpruned_and_skips_chunks() {
        use crate::source::ColumnSource;
        use olxp_storage::ColumnTable;
        let schema = Arc::new(
            TableSchema::new(
                "ORDERS",
                vec![
                    ColumnDef::new("o_id", DataType::Int, false),
                    ColumnDef::new("o_amount", DataType::Decimal, false),
                ],
                vec!["o_id"],
            )
            .unwrap(),
        );
        let table = Arc::new(ColumnTable::with_chunk_size(Arc::clone(&schema), 4));
        for i in 0..16i64 {
            table
                .apply(
                    &Key::int(i),
                    Some(&Row::new(vec![Value::Int(i), Value::Decimal(i * 100)])),
                )
                .unwrap();
        }
        let mut tables = StdHashMap::new();
        tables.insert("ORDERS".to_string(), Arc::clone(&table));
        let source = ColumnSource::new(&tables);
        let plan = QueryBuilder::scan_where("ORDERS", col(0).eq(lit(9))).build();

        let pruned = execute_with(&plan, &source, ExecOptions::batched(8)).unwrap();
        let unpruned =
            execute_with(&plan, &source, ExecOptions::batched(8).with_pruning(false)).unwrap();
        assert_eq!(pruned.rows, unpruned.rows, "pruning never changes results");
        assert_eq!(pruned.rows.len(), 1);

        assert_eq!(pruned.stats.chunks_pruned_zonemap, 3);
        assert_eq!(pruned.stats.chunks_scanned, 1);
        assert_eq!(
            pruned.stats.rows_scanned, 4,
            "only the surviving chunk is examined"
        );
        assert_eq!(unpruned.stats.rows_scanned, 16);
        assert_eq!(
            unpruned.stats.chunks_scanned, 4,
            "chunk accounting stays on when pruning is off"
        );
        assert_eq!(unpruned.stats.chunks_pruned_zonemap, 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 5,
            ..ExecStats::default()
        };
        let b = ExecStats {
            rows_scanned: 7,
            join_probes: 3,
            source_kind: Some(SourceKind::RowStore),
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 12);
        assert_eq!(a.join_probes, 3);
        assert_eq!(a.source_kind, Some(SourceKind::RowStore));
    }
}
