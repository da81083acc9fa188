//! Delta/main compression: memory footprint and encoded-scan latency.
//!
//! Not a figure from the paper — it is the microbenchmark behind the
//! compressed main tier: the same dictionary-friendly table is built twice,
//! one copy left entirely in the plain delta tier and one fully compacted
//! into encoded main chunks, and the experiment reports
//!
//! * the resident-memory footprint of both copies (the compression ratio the
//!   encoded main tier achieves), with a per-column census of which encoding
//!   the seal-time stats pass picked, and
//! * best-of-N latencies for representative scans on both copies — the
//!   encoded scans run their sargable predicates directly on dictionary
//!   codes and RLE runs, decoding only surviving positions.
//!
//! The expected shape: several-fold memory reduction (the table is mostly
//! low-cardinality strings), selective encoded scans at or below plain-scan
//! latency, and full scans (which must decode everything) within a modest
//! constant factor.

use super::ExpOptions;
use olxpbench::framework::report::render_table;
use olxpbench::query::{
    col, execute_with, lit, ColumnSource, ExecOptions, Expr, Plan, QueryBuilder,
};
use olxpbench::storage::{ColumnDef, ColumnTable, DataType, Key, Row, TableSchema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Low-cardinality order statuses (dictionary encoding target).
const STATUSES: [&str; 8] = [
    "pending",
    "paid",
    "picked",
    "packed",
    "shipped",
    "delivered",
    "returned",
    "cancelled",
];

/// Region count; regions are clustered in long runs (RLE target).
const REGIONS: i64 = 16;

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "ORDERS",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("o_status", DataType::Str, false),
                ColumnDef::new("o_region", DataType::Str, false),
                ColumnDef::new("o_quantity", DataType::Int, false),
            ],
            vec!["o_id"],
        )
        .expect("valid schema"),
    )
}

/// A dictionary-friendly order table: statuses cycle through a tiny
/// vocabulary, regions form long clustered runs, quantities stay in a narrow
/// domain.  `compacted` seals every full chunk into the encoded main tier.
fn build_table(rows: usize, chunk_size: usize, compacted: bool) -> Arc<ColumnTable> {
    let table = Arc::new(ColumnTable::with_chunk_size(schema(), chunk_size));
    for r in 0..rows {
        let region = (r as i64) * REGIONS / rows as i64;
        let row = Row::new(vec![
            Value::Int(r as i64),
            Value::Str(STATUSES[r % STATUSES.len()].to_string()),
            Value::Str(format!("region-{region:02}")),
            Value::Int((r % 100) as i64),
        ]);
        table
            .apply(&Key::int(r as i64), Some(&row))
            .expect("insert succeeds");
    }
    if compacted {
        table.compact();
    }
    table
}

fn plan(filter: Option<Expr>) -> Plan {
    let builder = match filter {
        Some(expr) => QueryBuilder::scan_where("ORDERS", expr),
        None => QueryBuilder::scan("ORDERS"),
    };
    builder.project(vec![col(0)]).build()
}

/// Best-of-`iters` scan time in microseconds (after one warm-up run), plus
/// the row count as a cross-check that both copies agree.
fn measure(source: &ColumnSource, plan: &Plan, iters: u32) -> (f64, usize) {
    let opts = ExecOptions::batched(1024);
    let warm = execute_with(plan, source, opts).expect("scan succeeds");
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let out = execute_with(plan, source, opts).expect("scan succeeds");
        assert_eq!(out.rows.len(), warm.rows.len(), "iterations agree");
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    (best, warm.rows.len())
}

/// Run the compression footprint + encoded-scan experiment.
pub fn compression(opts: ExpOptions) -> String {
    let (rows, chunk_size, iters) = if opts.quick {
        (32_768, 256, 2)
    } else {
        (262_144, 1024, 3)
    };
    let plain = build_table(rows, chunk_size, false);
    let encoded = build_table(rows, chunk_size, true);

    // -- Memory: plain delta tier vs. fully compacted encoded main tier. ---
    let mut memory_rows = Vec::new();
    for (label, table) in [("plain (delta only)", &plain), ("compacted", &encoded)] {
        let fp = table.memory_footprint();
        memory_rows.push(vec![
            label.to_string(),
            fp.bytes_plain.to_string(),
            fp.bytes_resident.to_string(),
            format!("{:.2}x", fp.compression_ratio()),
            fp.main_chunks.to_string(),
            fp.delta_slots.to_string(),
        ]);
    }
    let memory = render_table(
        &[
            "layout",
            "plain bytes",
            "resident bytes",
            "ratio",
            "main chunks",
            "delta slots",
        ],
        &memory_rows,
    );

    // -- Which encoding the seal-time stats pass chose, per column. --------
    let census = encoded.main_encoding_census();
    let column_names = ["o_id", "o_status", "o_region", "o_quantity"];
    let census_rows: Vec<Vec<String>> = column_names
        .iter()
        .zip(&census)
        .map(|(name, [plain, dict, rle])| {
            vec![
                name.to_string(),
                plain.to_string(),
                dict.to_string(),
                rle.to_string(),
            ]
        })
        .collect();
    let encodings = render_table(
        &["column", "plain chunks", "dictionary chunks", "rle chunks"],
        &census_rows,
    );

    // -- Scan latency: the same queries against both copies. ---------------
    let queries: Vec<(&str, Plan)> = vec![
        (
            "status = 'shipped' (dict eq)",
            plan(Some(col(1).eq(lit(Value::Str("shipped".into()))))),
        ),
        (
            "region < 'region-02' (dict range)",
            plan(Some(col(2).lt(lit(Value::Str("region-02".into()))))),
        ),
        (
            "quantity = 17 (int eq)",
            plan(Some(col(3).eq(lit(Value::Int(17))))),
        ),
        ("full scan", plan(None)),
    ];
    let mut plain_tables = HashMap::new();
    plain_tables.insert("ORDERS".to_string(), Arc::clone(&plain));
    let plain_source = ColumnSource::new(&plain_tables);
    let mut encoded_tables = HashMap::new();
    encoded_tables.insert("ORDERS".to_string(), Arc::clone(&encoded));
    let encoded_source = ColumnSource::new(&encoded_tables);
    let mut latency_rows = Vec::new();
    for (label, query) in &queries {
        let (plain_us, plain_out) = measure(&plain_source, query, iters);
        let (encoded_us, encoded_out) = measure(&encoded_source, query, iters);
        assert_eq!(plain_out, encoded_out, "both layouts return the same rows");
        latency_rows.push(vec![
            label.to_string(),
            format!("{plain_us:.0}"),
            format!("{encoded_us:.0}"),
            format!("{:.2}x", encoded_us / plain_us),
            plain_out.to_string(),
        ]);
    }
    let latency = render_table(
        &[
            "query",
            "plain us",
            "encoded us",
            "encoded/plain",
            "rows out",
        ],
        &latency_rows,
    );

    format!(
        "Delta/main compression over {rows} rows ({chunk_size}-row chunks)\n\n\
         Memory footprint:\n{memory}\n\
         Encoding chosen per column (sealed main chunks):\n{encodings}\n\
         Scan latency, plain delta vs. encoded main (best of {iters}):\n{latency}"
    )
}
