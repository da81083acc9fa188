//! # olxpbench-core
//!
//! The OLxPBench benchmarking framework — the primary contribution of the
//! paper *"OLxPBench: Real-time, Semantically Consistent, and Domain-specific
//! are Essential in Benchmarking, Designing, and Implementing HTAP Systems"*
//! (ICDE 2022).
//!
//! The framework mirrors the architecture of Figure 2 in the paper:
//!
//! ```text
//!  config file ──► hybrid workload generator ──► request queues
//!                                                     │
//!                              thread pool (OLTP / OLAP / hybrid agents)
//!                                                     │
//!                                        hybrid database (olxp-engine)
//!                                                     │
//!                                        statistics & report module
//! ```
//!
//! * [`workload`] defines the abstractions a benchmark implements: online
//!   transactions, analytical queries and — new in OLxPBench — **hybrid
//!   transactions** that perform a real-time query in-between an online
//!   transaction;
//! * [`config`] is the runtime configuration (request rates, agent counts,
//!   transaction weights, warm-up and measurement windows, workload mode);
//! * [`generator`] provides the open-loop (precise request-rate control) and
//!   closed-loop schedules;
//! * [`driver`] spawns the agent thread pool, executes the workload against an
//!   engine and collects latencies;
//! * [`stats`] computes the latency distribution the paper reports (min, max,
//!   median, 90th, 95th, 99.9th and 99.99th percentiles, mean, standard
//!   deviation) and throughput;
//! * [`report`] renders benchmark results;
//! * [`features`] captures the qualitative feature matrix behind Table I and
//!   the quantitative one behind Table II;
//! * [`schema_check`] validates semantic consistency (every table the OLAP
//!   side reads must be part of the OLTP schema).

pub mod config;
pub mod driver;
pub mod error;
pub mod features;
pub mod generator;
pub mod report;
pub mod schema_check;
pub mod stats;
pub mod workload;

pub use config::{AgentConfig, BenchConfig, LoopMode};
pub use driver::{BenchmarkDriver, BenchmarkResult};
pub use error::{BenchError, BenchResult};
pub use features::{BenchmarkComparison, WorkloadFeatures};
pub use generator::{ClosedLoopSchedule, OpenLoopSchedule, RequestSchedule, WeightedChoice};
pub use report::{
    shard_table, timeline_table, ClassReport, FreshnessSummary, LatencySummary, StageSummary,
};
pub use schema_check::{check_semantic_consistency, SchemaConsistencyReport};
pub use stats::LatencyRecorder;
pub use workload::{
    AnalyticalQuery, HybridTransaction, OnlineTransaction, TransactionMix, Workload, WorkloadKind,
};
