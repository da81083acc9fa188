//! Chunk-pruning speedups on the columnar analytical scan path.
//!
//! Not a figure from the paper — it is the microbenchmark behind the zone-map
//! pruning layer: the same point/range-style equality scan over one column
//! store at selectivities from 0.01% to 100%, with chunk pruning off and on.
//! Two data layouts are probed:
//!
//! * **clustered** — the probed column increases monotonically with the row
//!   id, so every chunk covers a narrow value range and zone maps alone prune
//!   almost everything;
//! * **scattered** — the same group ids permuted across the table, so every
//!   chunk's min/max spans the whole domain and zone maps can rule nothing
//!   out: this layout documents the limit of min/max pruning (1.0x).
//!
//! The expected shape: on the clustered layout at low selectivity, pruned
//! scans are many times faster than `off` and the chunk counters show most
//! chunks skipped; on the scattered layout, and at 100% selectivity on
//! either, nothing can be pruned and the pruning checks must cost ~nothing.

use super::ExpOptions;
use olxpbench::framework::report::render_table;
use olxpbench::query::{col, execute_with, lit, ColumnSource, ExecOptions, Plan, QueryBuilder};
use olxpbench::storage::{ColumnDef, ColumnTable, DataType, Key, Row, TableSchema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Selectivity sweep: fraction of rows the probe matches.
const SELECTIVITIES: [f64; 5] = [0.0001, 0.001, 0.01, 0.1, 1.0];

/// Multiplier scattering group ids across the table (odd, so consecutive
/// clustered ids land far apart modulo any group count).
const SCATTER: i64 = 0x9E37_79B1;

/// Group count for a target selectivity: each of `g` equally sized groups
/// holds `1/g` of the rows, so probing one group matches `s = 1/g`.
fn groups_for(selectivity: f64) -> i64 {
    ((1.0 / selectivity).round() as i64).max(1)
}

/// Build one column store with a clustered and a scattered probe column per
/// selectivity (columns `1 + 2i` and `2 + 2i` for selectivity index `i`).
fn build_table(rows: usize, chunk_size: usize) -> Arc<ColumnTable> {
    let mut columns = vec![ColumnDef::new("id", DataType::Int, false)];
    for (i, _) in SELECTIVITIES.iter().enumerate() {
        columns.push(ColumnDef::new(format!("clust_{i}"), DataType::Int, false));
        columns.push(ColumnDef::new(format!("scat_{i}"), DataType::Int, false));
    }
    let schema =
        Arc::new(TableSchema::new("PREFILTER", columns, vec!["id"]).expect("valid schema"));
    let table = Arc::new(ColumnTable::with_chunk_size(schema, chunk_size));
    for r in 0..rows {
        let mut values = vec![Value::Int(r as i64)];
        for s in SELECTIVITIES {
            let g = groups_for(s);
            // Monotone in r: group k occupies rows [k*rows/g, (k+1)*rows/g).
            let clustered = (r as i64).wrapping_mul(g) / rows as i64;
            values.push(Value::Int(clustered));
            values.push(Value::Int(clustered.wrapping_mul(SCATTER).rem_euclid(g)));
        }
        table
            .apply_insert(&Key::int(r as i64), &Row::new(values), 1, r as u64 + 1)
            .expect("insert succeeds");
    }
    table
}

/// Equality probe on `column` for the middle group of `g`, projected down to
/// the id column so timing measures the scan, not row materialization.
fn probe_plan(column: usize, value: i64) -> Plan {
    QueryBuilder::scan_where("PREFILTER", col(column).eq(lit(Value::Int(value))))
        .project(vec![col(0)])
        .build()
}

struct Measured {
    micros: f64,
    rows: usize,
    chunks_scanned: u64,
    pruned_zonemap: u64,
}

/// Best-of-`iters` scan time (after one warm-up run).
fn measure(source: &ColumnSource, plan: &Plan, pruning: bool, iters: u32) -> Measured {
    let opts = ExecOptions::batched(1024).with_pruning(pruning);
    let warm = execute_with(plan, source, opts).expect("scan succeeds");
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let out = execute_with(plan, source, opts).expect("scan succeeds");
        assert_eq!(out.rows.len(), warm.rows.len(), "iterations agree");
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    Measured {
        micros: best,
        rows: warm.rows.len(),
        chunks_scanned: warm.stats.chunks_scanned,
        pruned_zonemap: warm.stats.chunks_pruned_zonemap,
    }
}

fn sweep_rows(
    source: &ColumnSource,
    column_of: impl Fn(usize) -> usize,
    probe_of: impl Fn(i64) -> i64,
    iters: u32,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (i, s) in SELECTIVITIES.iter().enumerate() {
        let g = groups_for(*s);
        let plan = probe_plan(column_of(i), probe_of(g));
        // One throwaway unpruned pass so the baseline below isn't the cold run.
        let _ = measure(source, &plan, false, 1);
        let mut baseline_micros = f64::NAN;
        for pruning in [false, true] {
            let m = measure(source, &plan, pruning, iters);
            if !pruning {
                baseline_micros = m.micros;
            }
            rows.push(vec![
                format!("{:.4}%", s * 100.0),
                if pruning { "on" } else { "off" }.to_string(),
                format!("{:.0}", m.micros),
                format!("{:.2}x", baseline_micros / m.micros),
                m.rows.to_string(),
                m.chunks_scanned.to_string(),
                m.pruned_zonemap.to_string(),
            ]);
        }
    }
    rows
}

/// Run the pruning selectivity sweep and tabulate both layouts.
pub fn selectivity_sweep(opts: ExpOptions) -> String {
    let (rows_n, chunk_size, iters) = if opts.quick {
        (32_768, 256, 2)
    } else {
        (262_144, 1024, 3)
    };
    let table = build_table(rows_n, chunk_size);
    let mut tables = HashMap::new();
    tables.insert("PREFILTER".to_string(), Arc::clone(&table));
    let source = ColumnSource::new(&tables);

    let headers = [
        "selectivity",
        "pruning",
        "us/scan",
        "speedup",
        "rows out",
        "chunks",
        "zm pruned",
    ];
    // Probes target the middle group; the scattered probe is that group's id
    // after the same permutation the stored values went through.
    let clustered = render_table(
        &headers,
        &sweep_rows(&source, |i| 1 + 2 * i, |g| g / 2, iters),
    );
    let scattered = render_table(
        &headers,
        &sweep_rows(
            &source,
            |i| 2 + 2 * i,
            |g| (g / 2).wrapping_mul(SCATTER).rem_euclid(g),
            iters,
        ),
    );
    format!(
        "Chunk pruning: equality-scan selectivity sweep over {rows_n} rows \
         ({chunk_size}-row chunks)\n\nClustered layout (zone maps effective):\n{clustered}\n\
         Scattered layout (zone maps blind: the limit of min/max pruning):\n{scattered}"
    )
}
