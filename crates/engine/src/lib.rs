//! # olxp-engine
//!
//! The HTAP database substrate OLxPBench-RS benchmarks against.
//!
//! The paper evaluates two commercial distributed HTAP DBMSs — TiDB (a
//! dual-engine system: TiKV row store + asynchronously replicated TiFlash
//! column store, snapshot isolation, SSD storage) and MemSQL (a single-engine
//! in-memory system restricted to read-committed isolation) — plus OceanBase
//! for the scalability study.  None of those systems is available here, so this
//! crate implements the three architectural archetypes from scratch on top of
//! the `olxp-storage`, `olxp-txn` and `olxp-query` substrates:
//!
//! * [`config::EngineArchitecture::SingleEngine`] — MemSQL-like: memory-speed
//!   storage, read-committed isolation, OLTP and OLAP competing inside the same
//!   engine, and a vertical-partitioning penalty for the relationship queries
//!   inside hybrid transactions;
//! * [`config::EngineArchitecture::DualEngine`] — TiDB-like: SSD-speed row
//!   store, repeatable-read snapshot isolation, standalone analytical queries
//!   served by columnar replicas fed through an asynchronous replication log,
//!   hybrid transactions pinned to the row store;
//! * [`config::EngineArchitecture::SharedNothing`] — OceanBase-like
//!   configuration used only by the scalability experiment.
//!
//! The engine is real — MVCC stores, locks, WAL, replication, executor — and
//! the deployment is modelled: [`model::Model`] owns the simulated cluster
//! (per-node worker pools and buffer pools, two-phase commit, scatter-gather)
//! and the [`model::CostParams`] service-time constants.  A session does the
//! real work and reports it once through [`model::Model::charge`], which
//! converts it into modelled service time and, at `time_scale > 0`, into
//! queueing and latency, so that the *shape* of every result in the paper's
//! evaluation can be reproduced on one host.
//!
//! The public entry point is [`database::HybridDatabase`]; benchmark driver
//! threads obtain a [`session::Session`] each and execute online transactions,
//! standalone analytical queries and hybrid transactions through it.

mod background;
mod bufferpool;
mod cluster;
pub mod config;
mod cost;
pub mod database;
pub mod error;
pub mod metrics;
pub mod model;
mod recovery;
pub mod session;
mod shard;
pub mod telemetry;

pub use config::{DurabilityConfig, EngineArchitecture, EngineConfig, FreshnessPolicy};
pub use database::{shard_of, AnalyticalRoute, HybridDatabase, RecoveryReport};
pub use error::{EngineError, EngineResult};
pub use metrics::{
    EngineMetrics, FreshnessSample, MetricsSnapshot, ShardBreakdown, WalMetrics, WorkClass,
};
pub use model::{CostParams, Model, Placement, StorageMedium, Work};
pub use olxp_storage::SyncPolicy;
pub use session::{Session, TxnHandle};
pub use telemetry::{HealthCheck, HealthReport, TelemetryPoint, TelemetryState};
