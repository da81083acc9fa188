//! Shape tests: scaled-down versions of the paper's headline claims.
//!
//! These do not try to match the paper's absolute numbers (the substrate is a
//! calibrated model, not the authors' 4-node testbed); they assert the
//! *directions* the paper reports — who wins, and which effect is larger.

use olxpbench::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Run a measurement-plus-assertion closure, retrying on failure.
///
/// Latencies here are wall-clock: on a small CI host (this suite routinely
/// runs on a single-core container where one scheduler timeslice is ~10ms,
/// the same order as the modelled latencies) an individual measurement can
/// be noise-dominated. The paper's claims are directional, so each shape is
/// given up to five independent measurements; a direction that holds in
/// expectation passes with overwhelming probability while a genuinely wrong
/// direction still fails every attempt.
fn assert_shape(measure_and_assert: impl Fn() + std::panic::RefUnwindSafe) {
    const ATTEMPTS: usize = 5;
    for attempt in 1..ATTEMPTS {
        if std::panic::catch_unwind(&measure_and_assert).is_ok() {
            return;
        }
        eprintln!("shape assertion failed on attempt {attempt}/{ATTEMPTS}; re-measuring");
    }
    // Final attempt runs unguarded so a real failure keeps its panic message.
    measure_and_assert();
}

fn engine(architecture: EngineArchitecture) -> Arc<HybridDatabase> {
    let config = match architecture {
        EngineArchitecture::SingleEngine => EngineConfig::single_engine(),
        EngineArchitecture::DualEngine => EngineConfig::dual_engine(),
        EngineArchitecture::SharedNothing => EngineConfig::shared_nothing(),
    }
    .with_time_scale(0.2);
    HybridDatabase::new(config).expect("valid config")
}

fn prepare(db: &Arc<HybridDatabase>, workload: &dyn Workload) {
    workload.create_schema(db).unwrap();
    workload.load(db, 1, 42).unwrap();
    db.finish_load().unwrap();
}

fn base_config(label: &str) -> BenchConfig {
    BenchConfig {
        label: label.into(),
        warmup: Duration::from_millis(80),
        duration: Duration::from_millis(600),
        scale_factor: 1,
        ..BenchConfig::default()
    }
}

/// Figure 1 / Figure 5 shape: a hybrid transaction (real-time query inside the
/// online transaction) is substantially slower than the plain online
/// transaction on the dual engine.
#[test]
fn hybrid_transactions_cost_more_than_online_transactions() {
    assert_shape(|| {
        let workload = Subenchmark::new();
        let db = engine(EngineArchitecture::DualEngine);
        prepare(&db, &workload);

        let plain = BenchmarkDriver::new(BenchConfig {
            oltp: AgentConfig::new(2, 40.0),
            weight_overrides: vec![
                ("NewOrder".into(), 1),
                ("Payment".into(), 0),
                ("OrderStatus".into(), 0),
                ("Delivery".into(), 0),
                ("StockLevel".into(), 0),
            ],
            ..base_config("plain")
        })
        .run(&db, &workload)
        .unwrap();

        let hybrid = BenchmarkDriver::new(BenchConfig {
            oltp: AgentConfig::disabled(),
            hybrid: AgentConfig::new(2, 40.0),
            weight_overrides: vec![
                ("X1-NewOrderBestPrice".into(), 1),
                ("X2-PaymentSpendingCheck".into(), 0),
                ("X3-OrderStatusDistrictTrend".into(), 0),
                ("X4-StockLevelGlobalView".into(), 0),
                ("X5-BrowseBestSellers".into(), 0),
            ],
            ..base_config("hybrid")
        })
        .run(&db, &workload)
        .unwrap();

        let plain_ms = plain.oltp.unwrap().mean_ms;
        let hybrid_ms = hybrid.hybrid.unwrap().mean_ms;
        assert!(
            hybrid_ms > plain_ms * 1.5,
            "hybrid transaction mean {hybrid_ms:.2}ms should be well above the online-only {plain_ms:.2}ms"
        );
    });
}

/// Figure 3 shape: OLAP pressure hurts the semantically consistent schema far
/// more than the stitch schema.
///
/// This comparison runs at the full time scale with a single agent thread per
/// class, so the measured interference comes from the model (buffer churn and
/// worker occupancy caused by the heavy consistent-schema scans) rather than
/// from host scheduling noise.
#[test]
fn consistent_schema_shows_more_interference_than_stitch_schema() {
    assert_shape(|| {
        let mut amplification = Vec::new();
        for name in ["subenchmark", "chbenchmark"] {
            let workload = workload_by_name(name).unwrap();
            let db = HybridDatabase::new(EngineConfig::dual_engine()).unwrap();
            prepare(&db, workload.as_ref());
            let read_mix = vec![
                ("NewOrder".into(), 0),
                ("Payment".into(), 0),
                ("OrderStatus".into(), 1),
                ("Delivery".into(), 0),
                ("StockLevel".into(), 1),
            ];
            let config = BenchConfig {
                warmup: Duration::from_millis(150),
                duration: Duration::from_millis(900),
                ..base_config(name)
            };
            let alone = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(1, 30.0),
                weight_overrides: read_mix.clone(),
                ..config.clone()
            })
            .run(&db, workload.as_ref())
            .unwrap();
            let pressured = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(1, 30.0),
                olap: AgentConfig::new(1, 20.0),
                weight_overrides: read_mix,
                ..config
            })
            .run(&db, workload.as_ref())
            .unwrap();
            amplification.push(pressured.oltp_mean_ms() / alone.oltp_mean_ms().max(1e-9));
        }
        assert!(
            amplification[0] > amplification[1],
            "consistent-schema amplification {:.2}x must exceed stitch-schema amplification {:.2}x",
            amplification[0],
            amplification[1]
        );
    });
}

/// §VI-D shape, part 1: the in-memory single engine sustains a higher OLTP
/// peak than the SSD-modelled dual engine.
#[test]
fn single_engine_wins_oltp_peak_dual_engine_wins_hybrid_on_subenchmark() {
    assert_shape(|| {
        let workload = Subenchmark::new();
        let mut oltp_peaks = Vec::new();
        let mut hybrid_means = Vec::new();
        for arch in [
            EngineArchitecture::SingleEngine,
            EngineArchitecture::DualEngine,
        ] {
            let db = engine(arch);
            prepare(&db, &workload);
            let oltp = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(4, 100_000.0),
                ..base_config("peak")
            })
            .run(&db, &workload)
            .unwrap();
            oltp_peaks.push(oltp.oltp_throughput());

            let hybrid = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::disabled(),
                hybrid: AgentConfig::new(2, 20.0),
                ..base_config("hybrid")
            })
            .run(&db, &workload)
            .unwrap();
            hybrid_means.push(hybrid.hybrid.unwrap().mean_ms);
        }
        assert!(
            oltp_peaks[0] > oltp_peaks[1],
            "single-engine OLTP peak {:.0} should exceed dual-engine peak {:.0}",
            oltp_peaks[0],
            oltp_peaks[1]
        );
        assert!(
            hybrid_means[0] > hybrid_means[1],
            "single-engine hybrid latency {:.1}ms should exceed dual-engine {:.1}ms (vertical partitioning penalty)",
            hybrid_means[0],
            hybrid_means[1]
        );
    });
}

/// §VI-D shape, part 2 (tabenchmark reversal): for the composite-key telecom
/// workload the in-memory engine handles hybrid transactions better, because
/// the dual engine pays SSD random reads for the index-full-scan lookups.
#[test]
fn tabenchmark_hybrid_workload_favours_the_single_engine() {
    assert_shape(|| {
        let workload = Tabenchmark::new();
        let mut hybrid_means = Vec::new();
        for arch in [
            EngineArchitecture::SingleEngine,
            EngineArchitecture::DualEngine,
        ] {
            let db = engine(arch);
            prepare(&db, &workload);
            let result = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::disabled(),
                hybrid: AgentConfig::new(2, 10.0),
                ..base_config("ta-hybrid")
            })
            .run(&db, &workload)
            .unwrap();
            hybrid_means.push(result.hybrid.unwrap().mean_ms);
        }
        assert!(
            hybrid_means[0] < hybrid_means[1],
            "single-engine tabenchmark hybrid latency {:.1}ms should be below dual-engine {:.1}ms",
            hybrid_means[0],
            hybrid_means[1]
        );
    });
}

/// Figure 6 shape: the banking benchmark has the lowest baseline latency and
/// the telecom benchmark the highest (slow composite-key query), with the
/// general benchmark in between.
#[test]
fn domain_specific_baselines_order_matches_the_paper() {
    assert_shape(|| {
        let mut means = Vec::new();
        for name in ["subenchmark", "fibenchmark", "tabenchmark"] {
            let workload = workload_by_name(name).unwrap();
            let db = engine(EngineArchitecture::DualEngine);
            prepare(&db, workload.as_ref());
            let result = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(2, 40.0),
                ..base_config(name)
            })
            .run(&db, workload.as_ref())
            .unwrap();
            means.push((name, result.oltp_mean_ms()));
        }
        let su = means[0].1;
        let fi = means[1].1;
        let ta = means[2].1;
        assert!(
            fi < su,
            "fibenchmark ({fi:.2}ms) should be faster than subenchmark ({su:.2}ms)"
        );
        assert!(
            fi < ta,
            "fibenchmark ({fi:.2}ms) should be faster than tabenchmark ({ta:.2}ms)"
        );
    });
}

/// Scalability shape (Figure 10): latency does not improve as the cluster
/// grows with proportional data and rates — coordination overhead dominates.
#[test]
fn latency_does_not_improve_with_cluster_size() {
    assert_shape(|| {
        let workload = Subenchmark::new();
        let mut means = Vec::new();
        for nodes in [4usize, 8] {
            let config = EngineConfig::dual_engine()
                .with_nodes(nodes)
                .with_time_scale(0.2);
            let db = HybridDatabase::new(config).unwrap();
            prepare(&db, &workload);
            let result = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(4, 20.0 * nodes as f64),
                ..base_config("scale")
            })
            .run(&db, &workload)
            .unwrap();
            means.push(result.oltp_mean_ms());
        }
        assert!(
            means[1] >= means[0] * 0.8,
            "16-node-style scaling should not make latency dramatically better: 4n={:.2}ms 8n={:.2}ms",
            means[0],
            means[1]
        );
    });
}

/// Chunk-pruning shape: a highly selective equality scan over an
/// append-ordered column gets far cheaper once zone maps can skip
/// non-matching chunks, while returning exactly the same rows.
///
/// The scan is pure in-process CPU work (no modelled latencies, no agent
/// threads), so even single-core hosts measure it stably; the directional
/// 2x bar is far below the speedup of skipping over 100 of 128 chunks.
/// `olxp-perf` reports the same pruning on the suites as
/// `storage.zonemap.prune_pct`.
#[test]
fn chunk_pruning_speeds_up_selective_scans() {
    use olxpbench::query::{col, execute_with, lit, ColumnSource, ExecOptions, QueryBuilder};
    use olxpbench::storage::{ColumnDef, ColumnTable, DataType, Key, Row, TableSchema};
    use std::collections::HashMap;
    use std::time::Instant;

    assert_shape(|| {
        const ROWS: i64 = 65_536;
        const GROUPS: i64 = 1_000; // ~0.1% selectivity per group
        let schema = Arc::new(
            TableSchema::new(
                "PRUNE",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("grp", DataType::Int, false),
                ],
                vec!["id"],
            )
            .unwrap(),
        );
        let table = Arc::new(ColumnTable::with_chunk_size(schema, 512));
        for r in 0..ROWS {
            // Monotone in r: each group occupies one contiguous run of rows.
            let row = Row::new(vec![Value::Int(r), Value::Int(r * GROUPS / ROWS)]);
            table.apply(&Key::int(r), Some(&row)).unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("PRUNE".to_string(), Arc::clone(&table));
        let source = ColumnSource::new(&tables);
        let plan =
            QueryBuilder::scan_where("PRUNE", col(1).eq(lit(Value::Int(GROUPS / 2)))).build();

        let best_of = |pruning: bool| {
            let opts = ExecOptions::batched(1024).with_pruning(pruning);
            let mut best = f64::INFINITY;
            let mut out = execute_with(&plan, &source, opts).unwrap();
            for _ in 0..3 {
                let start = Instant::now();
                out = execute_with(&plan, &source, opts).unwrap();
                best = best.min(start.elapsed().as_secs_f64());
            }
            (best, out)
        };
        let (off_s, off_out) = best_of(false);
        let (on_s, on_out) = best_of(true);

        assert_eq!(on_out.rows, off_out.rows, "pruning never changes results");
        assert!(
            on_out.stats.chunks_pruned_zonemap > 100,
            "zone maps should skip almost all of the 128 chunks per scan (pruned {})",
            on_out.stats.chunks_pruned_zonemap
        );
        assert!(
            off_s > on_s * 2.0,
            "pruned selective scan should be well over 2x faster (off {:.0}us vs on {:.0}us)",
            off_s * 1e6,
            on_s * 1e6
        );
    });
}

/// Sharding shape: with per-shard WAL streams, peak single-row OLTP
/// throughput grows with the shard count.  One shard funnels every commit
/// through a single log-force queue; four shards run four queues in
/// parallel, so the same offered load commits substantially faster.
#[test]
fn sharded_wal_streams_scale_oltp_throughput() {
    assert_shape(|| {
        let peak = |shards: usize| {
            let dir = std::env::temp_dir()
                .join(format!("olxp-shape-shards-{}-{shards}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            // Durable engine with a quiet (never-fsync) WAL: commits pay the
            // modelled per-stream log force.  Run at the calibrated time
            // scale (1.0) with a deliberately slow 400µs force so the single
            // stream is device-bound (~2.5k commits/s ceiling) — a busy CI
            // host can drag the CPU-bound four-shard number down, but it
            // cannot speed the one-shard queue up past its ceiling.
            let mut config = EngineConfig::dual_engine()
                .with_nodes(1)
                .with_shards(shards)
                .with_durability(
                    DurabilityConfig::at(dir.display().to_string()).with_sync(SyncPolicy::Never),
                );
            config.cost.ssd_write_extra_ns = 400_000;
            let db = HybridDatabase::open(config).unwrap();
            let workload = Fibenchmark::new();
            prepare(&db, &workload);
            let result = BenchmarkDriver::new(BenchConfig {
                oltp: AgentConfig::new(16, 200_000.0),
                olap: AgentConfig::disabled(),
                hybrid: AgentConfig::disabled(),
                // Single-row transactions only, so every commit is
                // single-shard and the cross-shard 2PC path stays out of
                // the measurement.
                weight_overrides: vec![
                    ("Balance".to_string(), 0),
                    ("DepositChecking".to_string(), 1),
                    ("TransactSavings".to_string(), 1),
                    ("Amalgamate".to_string(), 0),
                    ("WriteCheck".to_string(), 0),
                    ("SendPayment".to_string(), 0),
                ],
                ..base_config("shard-scaling")
            })
            .run(&db, &workload)
            .unwrap();
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            result.oltp_throughput()
        };
        let one = peak(1);
        let four = peak(4);
        assert!(
            four > one * 1.5,
            "four shards should out-commit one shard (got {one:.0} vs {four:.0} tps)"
        );
    });
}
