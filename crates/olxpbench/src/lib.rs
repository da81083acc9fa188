//! # olxpbench
//!
//! Facade crate for OLxPBench-RS: a from-scratch Rust reproduction of
//! *"OLxPBench: Real-time, Semantically Consistent, and Domain-specific are
//! Essential in Benchmarking, Designing, and Implementing HTAP Systems"*
//! (ICDE 2022).
//!
//! The crate re-exports the full public API of the workspace so that examples,
//! experiments and downstream users need a single dependency:
//!
//! * [`engine`] — the HTAP database substrate (single-engine / dual-engine /
//!   shared-nothing archetypes, cluster model, sessions, metrics);
//! * [`framework`] — the OLxPBench benchmarking framework (workload traits,
//!   hybrid transactions, open/closed-loop driver, statistics, reports,
//!   semantic-consistency checking);
//! * [`workloads`] — the benchmark suites (subenchmark, fibenchmark,
//!   tabenchmark and the CH-benCHmark stitch-schema baseline);
//! * [`storage`], [`txn`], [`query`] — the lower-level substrates, exposed for
//!   users who want to build their own engines or workloads.
//!
//! ## Quick start
//!
//! ```
//! use olxpbench::prelude::*;
//! use std::time::Duration;
//!
//! // A TiDB-like dual-engine HTAP database (no real delays in doc tests).
//! let db = HybridDatabase::new(EngineConfig::dual_engine().with_time_scale(0.0)).unwrap();
//!
//! // The banking benchmark, scaled down for a quick run.
//! let workload = Fibenchmark::new();
//! let config = BenchConfig::oltp_only(2, 200.0, Duration::from_millis(300))
//!     .with_scale_factor(1)
//!     .with_warmup(Duration::from_millis(50));
//!
//! let driver = BenchmarkDriver::new(config);
//! driver.prepare(&db, &workload).unwrap();
//! let result = driver.run(&db, &workload).unwrap();
//! assert!(result.oltp_throughput() > 0.0);
//! ```

pub use olxp_engine as engine;
pub use olxp_query as query;
pub use olxp_storage as storage;
pub use olxp_trace as trace;
pub use olxp_txn as txn;
pub use olxpbench_core as framework;
pub use olxpbench_workloads as workloads;

/// Everything needed to configure and run a benchmark.
pub mod prelude {
    pub use olxp_engine::{
        CostParams, DurabilityConfig, EngineArchitecture, EngineConfig, EngineError, EngineResult,
        FreshnessPolicy, FreshnessSample, HealthCheck, HealthReport, HybridDatabase,
        RecoveryReport, Session, ShardBreakdown, StorageMedium, SyncPolicy, TelemetryPoint,
        TxnHandle, WalMetrics, WorkClass,
    };
    pub use olxp_query::{col, lit, AggFunc, AggSpec, JoinKind, Plan, QueryBuilder, SortKey};
    pub use olxp_storage::{ColumnDef, DataType, Key, Row, TableSchema, Value};
    pub use olxp_trace::{
        chrome_trace_json, LogHistogram, SpanCategory, SpanEvent, StageBreakdown, TaggedSpan,
        TelemetryServer, TimeSeriesRing,
    };
    pub use olxp_txn::IsolationLevel;
    pub use olxpbench_core::{
        check_semantic_consistency, shard_table, timeline_table, AgentConfig, AnalyticalQuery,
        BenchConfig, BenchmarkComparison, BenchmarkDriver, BenchmarkResult, FreshnessSummary,
        HybridTransaction, LatencySummary, LoopMode, OnlineTransaction, StageSummary,
        TransactionMix, Workload, WorkloadFeatures, WorkloadKind,
    };
    pub use olxpbench_workloads::{
        olxp_suites, workload_by_name, ChBenchmark, Fibenchmark, Subenchmark, Tabenchmark,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let config = EngineConfig::dual_engine();
        assert_eq!(config.default_isolation(), IsolationLevel::RepeatableRead);
        assert_eq!(olxp_suites().len(), 3);
        assert!(workload_by_name("tabenchmark").is_some());
    }
}
