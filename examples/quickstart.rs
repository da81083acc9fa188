//! Quick start: create a TiDB-like HTAP engine, load the banking benchmark and
//! run a short mixed OLTP + OLAP + hybrid workload.
//!
//! ```text
//! cargo run -p olxpbench --release --example quickstart
//! ```

use olxpbench::prelude::*;
use std::time::Duration;

fn main() {
    // 1. An HTAP database configured as the dual-engine (TiDB-like) archetype:
    //    SSD-speed row store for transactions, asynchronously replicated
    //    columnar replicas for analytics, snapshot isolation.
    let db = HybridDatabase::new(EngineConfig::dual_engine()).expect("valid config");

    // 2. The banking domain-specific benchmark (SmallBank-derived).
    let workload = Fibenchmark::new();

    // 3. Configure the run: open-loop agents for all three workload classes.
    let config = BenchConfig {
        label: "quickstart".into(),
        oltp: AgentConfig::new(4, 400.0),
        olap: AgentConfig::new(1, 4.0),
        hybrid: AgentConfig::new(2, 20.0),
        warmup: Duration::from_millis(300),
        duration: Duration::from_secs(2),
        scale_factor: 1,
        ..BenchConfig::default()
    };

    let driver = BenchmarkDriver::new(config);
    driver.prepare(&db, &workload).expect("schema + load");
    println!(
        "loaded {} rows across {} tables on a {}-node {} cluster",
        db.total_live_rows(),
        db.catalog().len(),
        db.config().nodes,
        db.config().architecture.display_name(),
    );

    let result = driver.run(&db, &workload).expect("benchmark run");

    println!("\n=== quickstart results ({}) ===", result.workload);
    if let Some(oltp) = result.oltp {
        println!("online transactions : {oltp}");
    }
    if let Some(olap) = result.olap {
        println!("analytical queries  : {olap}");
    }
    if let Some(hybrid) = result.hybrid {
        println!("hybrid transactions : {hybrid}");
    }
    println!(
        "commits={} aborts={} lock-overhead={:.4} replication-lag={} records",
        result.commits, result.aborts, result.lock_overhead, result.replication_lag
    );
    println!(
        "columnar chunks: scanned={} pruned-by-zonemap={}",
        result.chunks_scanned, result.chunks_pruned_zonemap
    );
    println!(
        "columnar storage: resident={} bytes compression-ratio={:.2}x \
         chunks-compacted={} rows-pruned-encoded={}",
        result.col_bytes_resident,
        result.col_compression_ratio,
        result.chunks_compacted,
        result.rows_pruned_encoded
    );
}
