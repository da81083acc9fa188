//! Criterion micro-benchmarks for the query substrate: expression evaluation,
//! scans, joins, aggregation and sorting through the plan executor.

use criterion::{criterion_group, criterion_main, Criterion};
use olxpbench::prelude::*;
use olxpbench::query::{
    execute, execute_with, expr::like_match, ColumnSource, ExecOptions, ShardedRowSource,
};
use olxpbench::storage::{ColumnTable, RowTable};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn orders_fixture(rows: i64) -> HashMap<String, Arc<RowTable>> {
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
    for i in 0..rows {
        orders.install(
            Key::int(i),
            Some(Row::new(vec![
                Value::Int(i),
                Value::Int(i % 500),
                Value::Decimal(100 + i % 997),
            ])),
            1,
        );
    }
    for c in 0..500 {
        customers.install(
            Key::int(c),
            Some(Row::new(vec![
                Value::Int(c),
                Value::Str(format!("customer-{c}")),
            ])),
            1,
        );
    }
    let mut tables = HashMap::new();
    tables.insert("ORDERS".to_string(), orders);
    tables.insert("CUSTOMER".to_string(), customers);
    tables
}

fn bench_expressions(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr");
    group.measurement_time(Duration::from_millis(400));
    group.sample_size(20);
    let row = vec![
        Value::Int(10),
        Value::Str("subscriber-000000000012345".into()),
        Value::Decimal(995),
    ];
    let predicate = col(0).gt(lit(5)).and(col(2).le(lit(Value::Decimal(1_000))));
    group.bench_function("predicate_eval", |b| {
        b.iter(|| predicate.matches(&row).unwrap())
    });
    group.bench_function("like_match", |b| {
        b.iter(|| like_match("subscriber-000000000012345", "%00123%"))
    });
    group.finish();
}

fn bench_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_exec");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(15);
    let tables = orders_fixture(10_000);
    let source = ShardedRowSource::new(vec![Arc::new(tables)], 10);

    let filter_plan =
        QueryBuilder::scan_where("ORDERS", col(2).gt(lit(Value::Decimal(900)))).build();
    group.bench_function("filtered_scan_10k", |b| {
        b.iter(|| execute(&filter_plan, &source).unwrap().rows.len())
    });

    let join_agg_plan = QueryBuilder::scan("ORDERS")
        .join(
            QueryBuilder::scan("CUSTOMER"),
            vec![1],
            vec![0],
            JoinKind::Inner,
        )
        .aggregate(
            vec![1],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Count, 0),
            ],
        )
        .sort(vec![SortKey::desc(1)])
        .limit(10)
        .build();
    group.bench_function("join_group_sort_10k", |b| {
        b.iter(|| execute(&join_agg_plan, &source).unwrap().rows.len())
    });

    let agg_plan = QueryBuilder::scan("ORDERS")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
                AggSpec::new(AggFunc::Avg, 2),
            ],
        )
        .build();
    group.bench_function("global_aggregate_10k", |b| {
        b.iter(|| execute(&agg_plan, &source).unwrap().rows.len())
    });
    group.finish();
}

fn col_orders_fixture(rows: i64) -> HashMap<String, Arc<ColumnTable>> {
    let orders = Arc::new(ColumnTable::new(Arc::new(
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
    for i in 0..rows {
        orders
            .apply(
                &Key::int(i),
                Some(&Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Decimal(100 + i % 997),
                ])),
            )
            .unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert("ORDERS".to_string(), orders);
    tables
}

/// The executor's batch pipeline over the columnar replica: a global
/// aggregate and a filtered group-by on 100k rows.
fn bench_vectorized(c: &mut Criterion) {
    let mut group = c.benchmark_group("vectorized");
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(10);
    let tables = col_orders_fixture(100_000);
    let source = ColumnSource::new(&tables);

    let agg_plan = QueryBuilder::scan("ORDERS")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
            ],
        )
        .build();
    group.bench_function("col_aggregate_100k_batched", |b| {
        b.iter(|| {
            execute_with(&agg_plan, &source, ExecOptions::batched(1024))
                .unwrap()
                .rows
                .len()
        })
    });

    let filter_plan = QueryBuilder::scan_where("ORDERS", col(2).gt(lit(Value::Decimal(1_000))))
        .aggregate(vec![1], vec![AggSpec::new(AggFunc::Count, 0)])
        .build();
    group.bench_function("col_filter_group_100k_batched", |b| {
        b.iter(|| {
            execute_with(&filter_plan, &source, ExecOptions::batched(1024))
                .unwrap()
                .rows
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_expressions, bench_plans, bench_vectorized);
criterion_main!(benches);
