//! Commit-latency impact of the durability sync policies.
//!
//! Not a figure from the paper — the paper benchmarks production systems that
//! are already durable — but the experiment the durability subsystem needs:
//! the same OLTP workload against the same engine under `none` (in-memory),
//! `group` (batched fsyncs) and `always` (an fsync per commit), reporting
//! commit latency, throughput and the WAL's fsync amortization.

use super::{fmt_ms, run_config, DurabilityMode, ExpOptions};
use olxpbench::framework::report::render_table;
use olxpbench::prelude::*;
use std::time::Duration;

/// Run the fibenchmark OLTP mix under each sync policy and tabulate the cost
/// of durability.
pub fn commit_latency_by_sync_policy(opts: ExpOptions) -> String {
    let workload = Fibenchmark::new();
    let threads = if opts.quick { 2 } else { 4 };
    let rate = if opts.quick { 400.0 } else { 800.0 };

    let mut rows: Vec<Vec<String>> = Vec::new();
    for mode in [
        DurabilityMode::None,
        DurabilityMode::Group,
        DurabilityMode::Always,
    ] {
        let mode_opts = ExpOptions {
            durability: mode,
            ..opts.clone()
        };
        let durability = super::durability_for(&mode_opts);
        let data_dir = durability.as_ref().and_then(|d| d.data_dir.clone());
        let db = {
            let mut config = EngineConfig::dual_engine()
                .with_nodes(4)
                .with_time_scale(opts.time_scale);
            if let Some(durability) = durability {
                config = config.with_durability(durability);
            }
            HybridDatabase::new(config).expect("durability experiment config is valid")
        };
        workload
            .create_schema(&db)
            .expect("schema creation succeeds");
        workload
            .load(&db, opts.scale(), 42)
            .expect("data load succeeds");
        db.finish_load().expect("load finishes");

        let config = BenchConfig {
            label: format!("durability-{mode:?}"),
            oltp: AgentConfig::new(threads, rate),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            duration: opts.duration(),
            warmup: Duration::from_millis(50),
            ..BenchConfig::default()
        };
        let result = run_config(&db, &workload, config);
        let oltp = result.oltp.expect("OLTP agents were enabled");
        let wal = result.engine.wal;
        rows.push(vec![
            mode.label().to_string(),
            format!("{:.0}", oltp.throughput),
            fmt_ms(oltp.mean_ms),
            fmt_ms(oltp.p95_ms),
            fmt_ms(oltp.p999_ms),
            wal.fsyncs.to_string(),
            format!("{:.1}", wal.commits_per_fsync()),
            wal.group_batch_p50.to_string(),
            wal.group_batch_p99.to_string(),
        ]);
        drop(db);
        // Ephemeral engines (no --data-dir) clean up their temp state.
        if opts.data_dir.is_none() {
            if let Some(dir) = data_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    let table = render_table(
        &[
            "durability",
            "tps",
            "mean ms",
            "p95 ms",
            "p99.9 ms",
            "fsyncs",
            "commits/fsync",
            "batch p50",
            "batch p99",
        ],
        &rows,
    );
    format!(
        "Durability: OLTP commit latency per WAL sync policy (fibenchmark, \
         {threads} agents @ {rate:.0}/s)\n{table}"
    )
}
