//! # olxp-query
//!
//! Query substrate for OLxPBench-RS.
//!
//! The OLxPBench workloads contain three kinds of statements (paper §IV-B):
//!
//! * **online transaction statements** — point reads, short range scans and
//!   single-row writes; these are executed directly through the engine's
//!   session API and do not need a query plan;
//! * **analytical queries** — multi-join, aggregation, grouping and sorting
//!   over a semantically consistent schema;
//! * **real-time queries** — simpler aggregates (and one fuzzy search) executed
//!   *inside* a hybrid transaction.
//!
//! This crate provides the expression language ([`expr::Expr`]), the logical
//! plan ([`plan::Plan`]) and an executor ([`exec::execute`]) that runs a plan
//! against any [`source::DataSource`].  Two data sources are provided:
//! [`source::ShardedRowSource`] (over the per-shard partitions of MVCC row
//! tables, used for statements that must run on the row engine — every
//! statement of a hybrid transaction) and
//! [`source::ColumnSource`] (over columnar replicas, used for standalone
//! analytical queries on the dual-engine architecture).
//!
//! The executor reports [`exec::ExecStats`] — physical rows scanned, join
//! probes, aggregate inputs, sort sizes — which the engine feeds into the cost
//! model to derive service times.

pub mod builder;
pub mod colprune;
pub mod error;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod prune;
pub mod source;

pub use builder::QueryBuilder;
pub use error::{QueryError, QueryResult};
pub use exec::{execute, execute_with, ExecOptions, ExecStats, QueryOutput};
pub use expr::{col, lit, AggFunc, Expr, ValueAccess};
pub use plan::{AggSpec, JoinKind, Plan, SortKey};
pub use prune::{extract_sargable, ChunkPruner};
pub use source::{ColumnSource, DataSource, ShardedRowSource, SourceKind};
