//! Figure 10: scalability of the dual-engine and shared-nothing architectures
//! as the cluster grows from 4 to 16 nodes, plus the engine-shard scaling
//! experiment for the hash-partitioned write path.

use super::{fmt_ms, fmt_ratio, prepared_db_with_nodes, run_config, ExpOptions};
use olxpbench::framework::report::render_table;
use olxpbench::prelude::*;

/// Figure 10: OLTP latency, OLTP latency under OLAP pressure, and OLxP latency
/// as the cluster size increases.  Data size and target request rates grow in
/// proportion to the cluster, as in the paper.
pub fn fig10_scalability(opts: ExpOptions) -> String {
    let node_counts: &[usize] = if opts.quick { &[4, 8] } else { &[4, 8, 16] };
    let archs = [
        (EngineArchitecture::DualEngine, "TiDB-like (dual engine)"),
        (
            EngineArchitecture::SharedNothing,
            "OceanBase-like (shared nothing)",
        ),
    ];

    let mut oltp_rows = Vec::new();
    let mut mixed_rows = Vec::new();
    let mut olxp_rows = Vec::new();

    for (arch, arch_name) in archs {
        for &nodes in node_counts {
            let workload = Subenchmark::new();
            let scale = (opts.scale() * nodes as u32 / 4).max(1);
            let db = prepared_db_with_nodes(arch, &workload, &opts, nodes, scale);
            let per_node_rate = if opts.quick { 15.0 } else { 30.0 };
            let oltp_rate = per_node_rate * nodes as f64;
            let olap_rate = (nodes as f64 / 4.0) * if opts.quick { 6.0 } else { 10.0 };
            let hybrid_rate = (nodes as f64 / 4.0) * if opts.quick { 4.0 } else { 8.0 };

            // (a) OLTP latency.
            let oltp = run_config(
                &db,
                &workload,
                BenchConfig {
                    label: format!("{arch_name} {nodes}n oltp"),
                    oltp: AgentConfig::new(6, oltp_rate),
                    olap: AgentConfig::disabled(),
                    hybrid: AgentConfig::disabled(),
                    duration: opts.duration(),
                    warmup: opts.warmup(),
                    ..BenchConfig::default()
                },
            );
            let summary = oltp.oltp.unwrap_or_default();
            oltp_rows.push(vec![
                arch_name.to_string(),
                nodes.to_string(),
                format!("{oltp_rate:.0}"),
                fmt_ms(summary.mean_ms),
                fmt_ms(summary.p95_ms),
            ]);

            // (b) OLTP latency with OLAP interference.
            let mixed = run_config(
                &db,
                &workload,
                BenchConfig {
                    label: format!("{arch_name} {nodes}n oltp+olap"),
                    oltp: AgentConfig::new(6, oltp_rate),
                    olap: AgentConfig::new(2, olap_rate),
                    hybrid: AgentConfig::disabled(),
                    duration: opts.duration(),
                    warmup: opts.warmup(),
                    ..BenchConfig::default()
                },
            );
            let base_mean = summary.mean_ms.max(1e-9);
            let mixed_summary = mixed.oltp.unwrap_or_default();
            mixed_rows.push(vec![
                arch_name.to_string(),
                nodes.to_string(),
                fmt_ms(mixed_summary.mean_ms),
                fmt_ms(mixed_summary.p95_ms),
                format!("{:.1}%", 100.0 * (mixed_summary.mean_ms / base_mean - 1.0)),
            ]);

            // (c) OLxP latency.
            let olxp = run_config(
                &db,
                &workload,
                BenchConfig {
                    label: format!("{arch_name} {nodes}n olxp"),
                    oltp: AgentConfig::disabled(),
                    olap: AgentConfig::disabled(),
                    hybrid: AgentConfig::new(4, hybrid_rate),
                    duration: opts.duration(),
                    warmup: opts.warmup(),
                    ..BenchConfig::default()
                },
            );
            let olxp_summary = olxp.hybrid.unwrap_or_default();
            olxp_rows.push(vec![
                arch_name.to_string(),
                nodes.to_string(),
                fmt_ms(olxp_summary.mean_ms),
                fmt_ms(olxp_summary.p95_ms),
            ]);
        }
    }

    format!(
        "Figure 10 — Latency as the cluster size increases (data and rates scaled proportionally)\n\n\
         (a) OLTP latency\n{}\n\
         (b) OLTP latency with OLAP interference\n{}\n\
         (c) OLxP latency\n{}",
        render_table(
            &["architecture", "nodes", "request rate (tps)", "mean (ms)", "p95 (ms)"],
            &oltp_rows
        ),
        render_table(
            &["architecture", "nodes", "mean (ms)", "p95 (ms)", "increase under OLAP"],
            &mixed_rows
        ),
        render_table(&["architecture", "nodes", "mean (ms)", "p95 (ms)"], &olxp_rows),
    )
}

/// Shard scaling: peak OLTP throughput of one durable engine as the number of
/// hash-partitioned write-path shards grows.  Every shard owns its own row
/// partitions, lock table, WAL stream and commit gate.  The binding resource
/// is the log force: each `wal-shard<K>` stream admits one force at a time
/// (modelled by the engine's per-shard WAL device, whose service time here is
/// calibrated to a measured commodity-SSD fsync), so one shard serialises
/// every committer through a single queue while N shards sustain N queues in
/// parallel.  The workload is the single-row slice of fibenchmark
/// (`DepositChecking` / `TransactSavings`) so every transaction commits
/// entirely within its own shard — the `cross-shard commits` column staying
/// at zero confirms the 2PC path is out of the picture.
pub fn shard_scaling(opts: ExpOptions) -> String {
    let shard_counts: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let workload = Fibenchmark::new();
    let threads = 32;
    let duration = if opts.quick {
        std::time::Duration::from_millis(300)
    } else {
        std::time::Duration::from_millis(800)
    };

    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    let mut widest_breakdown = String::new();
    for &shards in shard_counts {
        let root = opts
            .data_dir
            .as_deref()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("olxp-experiments"));
        let dir = root.join(format!("shard-scaling-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // `SyncPolicy::Never` keeps the host filesystem's own fsync batching
        // out of the measurement; durability is still on, so commits pay the
        // modelled per-stream log force.  `ssd_write_extra_ns` is raised to a
        // full measured fsync (~200µs on commodity SSDs) because this
        // experiment's force is not amortised across a batch.
        let mut config = EngineConfig::dual_engine()
            .with_nodes(1)
            .with_shards(shards)
            .with_durability(
                DurabilityConfig::at(dir.display().to_string()).with_sync(SyncPolicy::Never),
            );
        config.cost.ssd_write_extra_ns = 200_000;
        let db = HybridDatabase::open(config).expect("shard-scaling engine opens");
        workload
            .create_schema(&db)
            .expect("schema creation succeeds");
        workload
            .load(&db, opts.scale(), 42)
            .expect("data load succeeds");
        db.finish_load().expect("replication catch-up succeeds");

        let result = run_config(
            &db,
            &workload,
            BenchConfig {
                label: format!("shard-scaling {shards}"),
                oltp: AgentConfig::new(threads, 200_000.0),
                olap: AgentConfig::disabled(),
                hybrid: AgentConfig::disabled(),
                duration,
                warmup: std::time::Duration::from_millis(50),
                weight_overrides: vec![
                    ("Balance".to_string(), 0),
                    ("DepositChecking".to_string(), 1),
                    ("TransactSavings".to_string(), 1),
                    ("Amalgamate".to_string(), 0),
                    ("WriteCheck".to_string(), 0),
                    ("SendPayment".to_string(), 0),
                ],
                ..BenchConfig::default()
            },
        );
        let peak = result.oltp_throughput().max(1.0);
        if shards == 1 {
            baseline = peak;
        }
        let snapshot = db.metrics_snapshot();
        let cross_shard = if snapshot.commits > 0 {
            100.0 * snapshot.distributed_commits as f64 / snapshot.commits as f64
        } else {
            0.0
        };
        rows.push(vec![
            shards.to_string(),
            format!("{peak:.0}"),
            fmt_ratio(peak / baseline.max(1.0)),
            format!("{cross_shard:.1}%"),
        ]);
        // The widest run's per-shard commit/lock/WAL counters show how evenly
        // the hash partitioning spreads the write path.
        widest_breakdown = shard_table(&result.per_shard);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    format!(
        "Shard scaling — peak OLTP throughput vs. engine shard count (fibenchmark \
         single-row mix, dual engine, one WAL stream per shard, modelled \
         per-stream log force at a measured-fsync service time)\n\n{}\n\
         Per-shard breakdown at {} shards (measurement window)\n{}",
        render_table(
            &[
                "shards",
                "peak OLTP (tps)",
                "speedup vs 1 shard",
                "cross-shard commits"
            ],
            &rows
        ),
        shard_counts.last().copied().unwrap_or(1),
        widest_breakdown,
    )
}
