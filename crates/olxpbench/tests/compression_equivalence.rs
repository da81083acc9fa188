//! Property-based equivalence of encoded (delta/main) and unencoded scans.
//!
//! Compaction is a pure physical rewrite: sealing delta chunks into
//! dictionary/RLE-encoded main chunks — and then evaluating predicates
//! directly on the encoded columns — must never change what a scan returns.
//! These properties drive the same mutation histories into two tables, seal
//! an arbitrary prefix of one of them (including *no* chunks and *every full*
//! chunk, and mutating main-resident rows afterwards so the delete+re-insert
//! path is exercised), and assert the scans agree under every plan shape,
//! with [`ExecOptions::pruning`] off and on — including reads taken between
//! single-chunk compaction steps, the state a concurrent reader observes
//! mid-migration.
//!
//! The string column draws from a small fixed vocabulary so sealed chunks
//! dictionary-encode it, and the integer columns are narrow enough that runs
//! appear, so both encodings (and the plain fallback) are exercised.

use olxpbench::prelude::*;
use olxpbench::query::{execute_with, ColumnSource, ExecOptions, Expr, Plan};
use olxpbench::storage::ColumnTable;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Tiny chunks so a handful of rows spans many chunks and compaction states.
const CHUNK_SIZE: usize = 8;

/// Low-cardinality vocabulary for the dictionary-encoded string column.
const WORDS: [&str; 6] = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("s", DataType::Str, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

fn word(idx: usize) -> Value {
    Value::Str(WORDS[idx % WORDS.len()].to_string())
}

/// Predicate shapes covering dictionary equality, order-preserving dictionary
/// ranges, RLE-friendly integer ranges, conjunctions across encodings and a
/// non-sargable OR (which must fall back to residual filtering, not lose
/// rows).
#[derive(Debug, Clone)]
enum Predicate {
    EqA(i64),
    RangeA(i64, i64),
    EqS(usize),
    LtS(usize),
    RangeAndEqS(i64, usize),
    OrEq(i64, i64),
}

impl Predicate {
    fn expr(&self) -> Expr {
        match *self {
            Predicate::EqA(x) => col(1).eq(lit(Value::Int(x))),
            Predicate::RangeA(lo, hi) => col(1)
                .ge(lit(Value::Int(lo)))
                .and(col(1).le(lit(Value::Int(hi)))),
            Predicate::EqS(w) => col(2).eq(lit(word(w))),
            Predicate::LtS(w) => col(2).lt(lit(word(w))),
            Predicate::RangeAndEqS(lo, w) => {
                col(1).ge(lit(Value::Int(lo))).and(col(2).eq(lit(word(w))))
            }
            Predicate::OrEq(x, y) => col(1)
                .eq(lit(Value::Int(x)))
                .or(col(1).eq(lit(Value::Int(y)))),
        }
    }
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let v = -12i64..12;
    let w = 0usize..WORDS.len();
    prop_oneof![
        v.clone().prop_map(Predicate::EqA),
        (v.clone(), v.clone()).prop_map(|(x, y)| Predicate::RangeA(x.min(y), x.max(y))),
        w.clone().prop_map(Predicate::EqS),
        w.clone().prop_map(Predicate::LtS),
        (v.clone(), w).prop_map(|(lo, w)| Predicate::RangeAndEqS(lo, w)),
        (v.clone(), v).prop_map(|(x, y)| Predicate::OrEq(x, y)),
    ]
}

fn build(rows: &[(i64, usize)]) -> Arc<ColumnTable> {
    let table = Arc::new(ColumnTable::with_chunk_size(schema(), CHUNK_SIZE));
    for (i, &(a, w)) in rows.iter().enumerate() {
        table
            .apply(
                &Key::int(i as i64),
                Some(&Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(a),
                    word(w),
                ])),
            )
            .unwrap();
    }
    table
}

fn apply(table: &ColumnTable, rows: usize, updates: &[(usize, i64, usize)], deletes: &[usize]) {
    for &(i, a, w) in updates {
        let id = (i % rows) as i64;
        // An update aimed at a key deleted earlier in the history re-inserts
        // it; both tables see the identical history, so equivalence is
        // unaffected.
        table
            .apply(
                &Key::int(id),
                Some(&Row::new(vec![Value::Int(id), Value::Int(a), word(w)])),
            )
            .unwrap();
    }
    for &i in deletes {
        let id = (i % rows) as i64;
        // A re-delete of an already deleted key is a no-op, which is fine:
        // both tables see the identical history either way.
        table.apply(&Key::int(id), None).unwrap();
    }
}

fn scan(table: &Arc<ColumnTable>, plan: &Plan, pruning: bool) -> Vec<Row> {
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), Arc::clone(table));
    let source = ColumnSource::new(&tables);
    // A batch size smaller than the chunk size exercises encoded-filter
    // windows that subdivide a main chunk.
    let mut out = execute_with(plan, &source, ExecOptions::batched(5).with_pruning(pruning))
        .expect("scan succeeds")
        .rows;
    out.sort_by(|x, y| x[0].cmp(&y[0]));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any mutation history split around an arbitrary amount of
    /// compaction, the compacted table returns exactly what a never-compacted
    /// table returns, under every plan shape, with pruning off and on.
    #[test]
    fn encoded_scan_equals_unencoded_scan(
        rows in proptest::collection::vec((-10i64..10, 0usize..WORDS.len()), 1..120),
        pre_updates in proptest::collection::vec(
            (0usize..1024, -10i64..10, 0usize..WORDS.len()), 0..20),
        pre_deletes in proptest::collection::vec(0usize..1024, 0..20),
        compact_steps in 0usize..20,
        post_updates in proptest::collection::vec(
            (0usize..1024, -10i64..10, 0usize..WORDS.len()), 0..20),
        post_deletes in proptest::collection::vec(0usize..1024, 0..20),
        predicate in predicate_strategy(),
    ) {
        let plain = build(&rows);
        let encoded = build(&rows);
        apply(&plain, rows.len(), &pre_updates, &pre_deletes);
        apply(&encoded, rows.len(), &pre_updates, &pre_deletes);
        // Seal 0..=all full chunks of one table only.
        for _ in 0..compact_steps {
            if !encoded.compact_chunk() {
                break;
            }
        }
        // Post-compaction mutations hit main-resident rows on the encoded
        // table (delete + re-insert into delta) and delta rows on the plain
        // one; results must still agree.
        apply(&plain, rows.len(), &post_updates, &post_deletes);
        apply(&encoded, rows.len(), &post_updates, &post_deletes);

        let plan = QueryBuilder::scan_where("T", predicate.expr()).build();
        let baseline = scan(&plain, &plan, false);
        for pruning in [false, true] {
            let got = scan(&encoded, &plan, pruning);
            prop_assert_eq!(
                &got, &baseline,
                "encoded scan (pruning {}) diverged for predicate {:?} after {} compaction steps",
                pruning, predicate, compact_steps
            );
        }
    }

    /// Mid-compaction reads: scanning between every single-chunk seal (the
    /// states a reader interleaving with the background compactor observes)
    /// always matches the pre-compaction result, with and without a filter.
    #[test]
    fn every_intermediate_compaction_state_agrees(
        rows in proptest::collection::vec((-10i64..10, 0usize..WORDS.len()), 1..80),
        deletes in proptest::collection::vec(0usize..1024, 0..20),
        predicate in predicate_strategy(),
    ) {
        let table = build(&rows);
        apply(&table, rows.len(), &[], &deletes);
        let filtered = QueryBuilder::scan_where("T", predicate.expr()).build();
        let full = QueryBuilder::scan("T").build();
        let filtered_baseline = scan(&table, &filtered, false);
        let full_baseline = scan(&table, &full, false);
        loop {
            let sealed = table.compact_chunk();
            prop_assert_eq!(
                scan(&table, &filtered, true),
                filtered_baseline.clone(),
                "filtered scan diverged at {} sealed chunks ({:?})",
                table.main_chunk_count(), predicate
            );
            prop_assert_eq!(
                scan(&table, &full, true),
                full_baseline.clone(),
                "full scan diverged at {} sealed chunks",
                table.main_chunk_count()
            );
            if !sealed {
                break;
            }
        }
    }
}
