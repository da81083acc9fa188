//! The performance model: what work costs and which simulated node pays.
//!
//! The engine does *real* work — MVCC reads, locks, WAL appends, installs,
//! scans — on one host.  The paper's findings are shapes of a *deployment*:
//! SSD against memory, queueing behind analytical scans, two-phase-commit
//! round trips.  This module is the only place that knows that deployment.
//! It owns the service-time constants ([`CostParams`]), the simulated cluster
//! (per-node worker pools and buffer pools), one simulated log device per
//! shard, and the `time_scale` that turns modelled nanoseconds into real
//! delay.  A [`crate::Session`] does the real work, then reports what happened
//! as one [`Work`] value to the single entry point, [`Model::charge`].
//!
//! `charge` always accounts the modelled service time (`busy_nanos`) and the
//! buffer-pool traffic.  Only when `time_scale > 0` does it also make the
//! caller queue for a worker (or a log device) and wait out the scaled
//! service time; at `time_scale 0` nothing could queue behind a zero-length
//! occupation, so no pool or device lock is taken and `queue_wait_nanos`
//! stays zero.

pub use crate::bufferpool::{AccessOutcome, BufferPool};
use crate::cluster::{precise_delay, Cluster};
use crate::config::{EngineArchitecture, EngineConfig};
pub use crate::cost::{CostParams, StorageMedium};
use crate::metrics::{EngineMetrics, WorkClass};
use olxp_query::{ExecStats, Plan};
use olxp_storage::Key;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a simulated cluster node.
pub type NodeId = usize;

/// Where a key lives: the engine shard that stores it (row-table partition,
/// WAL stream) and the simulated storage node that pays for work
/// on it.  Both come from one hash of `(table, key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Engine shard owning the key.
    pub shard: usize,
    /// Simulated storage node owning the key.
    pub node: NodeId,
}

impl Placement {
    /// Place `(table, key)` among `shards` hash partitions and the given
    /// storage nodes.  Deterministic across processes (SipHash with fixed
    /// keys), so checkpoint rows and WAL records re-route to the same shard
    /// on recovery.
    pub fn of(table: &str, key: &Key, shards: usize, storage_nodes: &[NodeId]) -> Placement {
        let mut hasher = DefaultHasher::new();
        table.hash(&mut hasher);
        key.hash(&mut hasher);
        let h = hasher.finish() as usize;
        Placement {
            shard: if shards <= 1 { 0 } else { h % shards },
            node: storage_nodes[h % storage_nodes.len()],
        }
    }
}

/// What a session did, as reported to [`Model::charge`].
#[derive(Debug, Clone, Copy)]
pub enum Work<'a> {
    /// One row fetched by primary key.
    PointRead {
        /// Table read (its page is touched in the owner's buffer pool).
        table: &'a str,
        /// Owner of the key.
        at: Placement,
    },
    /// An index seek at the owner of the lookup key.
    IndexRange {
        /// Owner of the lookup key.
        at: Placement,
        /// Rows fetched by primary key after a secondary-index hit.
        fetched: u64,
        /// Rows ranged over at the row-scan rate.
        scanned: u64,
    },
    /// An equality lookup no index could serve: every row was examined.
    FullScan {
        /// Table scanned.
        table: &'a str,
        /// Rows examined.
        rows: u64,
    },
    /// A buffered insert, update or delete statement (the write itself is
    /// charged with the commit): statement overhead plus the
    /// index-maintenance read, paid at the transaction's coordinator.
    WriteStatement {
        /// Table written.
        table: &'a str,
        /// The writing transaction.
        txn: u64,
    },
    /// A plan executed on the row store.
    RowPlan {
        /// The plan (its first table's pages are touched).
        plan: &'a Plan,
        /// What the executor did.
        stats: &'a ExecStats,
        /// Standalone analytical query (scattered over the storage nodes)
        /// rather than a query inside a transaction.
        standalone: bool,
    },
    /// A standalone plan executed on the columnar replicas.
    ColumnPlan {
        /// What the executor did.
        stats: &'a ExecStats,
    },
    /// A committed write set.
    Commit {
        /// Placement of every installed write, in statement order.
        writes: &'a [Placement],
        /// Distinct shards written, ascending.
        shards: &'a [usize],
        /// The commit forced those shards' WAL streams.
        wal_forced: bool,
    },
}

/// The simulated deployment an engine runs on.
#[derive(Debug)]
pub struct Model {
    /// The engine's configuration: the model reads its cost constants,
    /// architecture, shard count and time scale.
    config: EngineConfig,
    cluster: Cluster,
    /// One simulated log device per shard: a WAL stream is a serial
    /// resource, so modelled log-force time is paid while holding its lock
    /// and commits to the same shard queue behind each other (commits to
    /// different shards proceed in parallel).
    wal_devices: Vec<Mutex<()>>,
    metrics: Arc<EngineMetrics>,
}

impl Model {
    /// Build the deployment described by `config`, accounting into `metrics`.
    pub fn new(config: &EngineConfig, metrics: Arc<EngineMetrics>) -> Model {
        Model {
            config: config.clone(),
            cluster: Cluster::from_config(config),
            wal_devices: (0..config.shards).map(|_| Mutex::new(())).collect(),
            metrics,
        }
    }

    /// Where `(table, key)` lives in this deployment.
    pub(crate) fn place(&self, table: &str, key: &Key) -> Placement {
        Placement::of(table, key, self.config.shards, self.cluster.storage_nodes())
    }

    /// Account `work` of `class`: modelled service time, buffer-pool traffic
    /// and two-phase-commit bookkeeping always; queueing for the paying
    /// node's workers plus the scaled service time when `time_scale > 0`.
    pub fn charge(&self, class: WorkClass, work: Work<'_>) {
        let cost = &self.config.cost;
        let medium = self.config.medium();
        let (node, nanos) = match work {
            Work::PointRead { table, at } => {
                let nanos = cost.statement_overhead_ns + cost.point_read(medium);
                (at.node, nanos + self.page_faults(at.node, table, 1))
            }
            Work::IndexRange {
                at,
                fetched,
                scanned,
            } => {
                let nanos = cost.statement_overhead_ns
                    + cost.point_read(medium).saturating_mul(1 + fetched)
                    + cost.row_scan(medium, scanned);
                (at.node, nanos)
            }
            Work::FullScan { table, rows } => {
                let per_row = match medium {
                    // The paper: "MemSQL uses time-consuming full table scans
                    // in memory, while TiDB uses index full scans that perform
                    // a random read on the solid-state disk" (§VI-D).
                    StorageMedium::Memory => cost.mem_scan_row_ns,
                    StorageMedium::Ssd => cost.ssd_point_read_ns / 4,
                };
                let node = self.cluster.next_storage_node();
                let nanos = cost.statement_overhead_ns + per_row.saturating_mul(rows);
                (node, nanos + self.page_faults(node, table, rows))
            }
            Work::WriteStatement { table, txn } => {
                // The coordinator only matters as a queue to stand in: when
                // nothing queues, its hash is skipped.
                let node = if self.config.time_scale > 0.0 {
                    self.place(table, &Key::int(txn as i64)).node
                } else {
                    0
                };
                (node, cost.statement_overhead_ns + cost.point_read(medium))
            }
            Work::RowPlan {
                plan,
                stats,
                standalone,
            } => {
                let rows = stats.rows_scanned;
                let mut nanos = cost.statement_overhead_ns
                    + cost.row_scan(medium, rows)
                    + self.operators(stats);
                if self.config.architecture == EngineArchitecture::SingleEngine
                    && class == WorkClass::Hybrid
                {
                    // The single engine stores relations vertically
                    // partitioned, which turns the relationship query inside
                    // the hybrid transaction into many joins (§VI-A1).
                    nanos = (nanos as f64 * cost.vertical_partition_join_factor) as u64;
                }
                if standalone {
                    nanos += self.scatter(self.cluster.storage_nodes());
                }
                let node = self.cluster.next_storage_node();
                if medium == StorageMedium::Ssd {
                    let table = plan
                        .referenced_tables()
                        .into_iter()
                        .next()
                        .unwrap_or_default();
                    nanos += self.page_faults(node, &table, rows);
                }
                (node, nanos)
            }
            Work::ColumnPlan { stats } => {
                let nanos = cost.statement_overhead_ns
                    + cost.columnar_scan(stats.rows_scanned)
                    + self.operators(stats);
                if self.config.has_dedicated_analytical_nodes() {
                    let hops = self.scatter(self.cluster.analytical_nodes());
                    (self.cluster.next_analytical_node(), nanos + hops)
                } else {
                    let hops = self.scatter(self.cluster.storage_nodes());
                    (self.cluster.next_storage_node(), nanos + hops)
                }
            }
            Work::Commit {
                writes,
                shards,
                wal_forced,
            } => {
                let mut nodes: Vec<NodeId> = writes.iter().map(|at| at.node).collect();
                nodes.sort_unstable();
                nodes.dedup();
                // A commit spanning several storage nodes or several shards
                // ran a two-phase protocol; the network round trips are only
                // modelled between nodes (shards share the process).
                let mut nanos = cost.write(medium).saturating_mul(writes.len() as u64);
                if nodes.len() > 1 {
                    nanos += cost.network(2 * (nodes.len() as u64 - 1));
                }
                if nodes.len() > 1 || shards.len() > 1 {
                    self.metrics.add_distributed_commit();
                }
                if wal_forced && medium == StorageMedium::Ssd {
                    // With real WAL streams the amortised log-force cost is
                    // not an anonymous slice of node compute: each stream
                    // admits one force at a time, so the per-commit force
                    // serialises against every other commit touching the
                    // same shard, and a cross-shard commit forces every
                    // touched shard's stream.  Pay it through the per-shard
                    // device (once per shard, not per row — that is the
                    // amortisation) and keep only the row-install cost on
                    // the node's worker pool.
                    nanos = nanos.saturating_sub(
                        cost.ssd_write_extra_ns.saturating_mul(writes.len() as u64),
                    );
                    for &shard in shards {
                        self.force_wal(shard, class, cost.ssd_write_extra_ns);
                    }
                }
                let node = writes
                    .first()
                    .map_or_else(|| self.cluster.next_storage_node(), |at| at.node);
                (node, nanos)
            }
        };
        self.occupy(class, node, nanos);
    }

    /// Join, aggregation and sort cost of an executed plan.
    fn operators(&self, stats: &ExecStats) -> u64 {
        let cost = &self.config.cost;
        cost.join(stats.join_probes + stats.join_build_rows)
            + cost.aggregate(stats.agg_input_rows)
            + cost.sort(stats.sort_rows)
    }

    /// Round trips of a scatter-gather over `tier`.
    fn scatter(&self, tier: &[NodeId]) -> u64 {
        self.config
            .cost
            .network((tier.len() as u64).saturating_sub(1))
    }

    /// Touch the pages holding `rows` rows of `table` in `node`'s buffer pool
    /// and return the miss penalty.  Memory-resident engines have no pool.
    fn page_faults(&self, node: NodeId, table: &str, rows: u64) -> u64 {
        if self.config.medium() != StorageMedium::Ssd {
            return 0;
        }
        let pages = self.config.cost.pages_for_rows(rows);
        let misses = self.cluster.buffer_pool(node).access(table, pages).misses;
        self.metrics.add_buffer_misses(misses);
        self.config.cost.page_misses(misses)
    }

    /// Account `service_nanos` of `class` and, when the model runs in real
    /// time, queue for one of `node`'s workers and hold it for the scaled
    /// service time.  Queue waiting is how OLTP/OLAP interference
    /// materialises as latency.
    fn occupy(&self, class: WorkClass, node: NodeId, service_nanos: u64) {
        if self.config.time_scale == 0.0 {
            self.metrics.add_busy(class, service_nanos);
            return;
        }
        let occupation = self.cluster.occupy(node, service_nanos);
        self.metrics.add_busy(class, occupation.service_nanos);
        self.metrics
            .add_queue_wait(class, occupation.queue_wait_nanos);
    }

    /// Occupy `shard`'s log device for `service_nanos` of modelled log-force
    /// time — the modelled counterpart of one fsync queue per WAL stream.
    fn force_wal(&self, shard: usize, class: WorkClass, service_nanos: u64) {
        self.metrics.add_busy(class, service_nanos);
        if self.config.time_scale == 0.0 {
            return;
        }
        let started = Instant::now();
        let _stream = self.wal_devices[shard].lock();
        self.metrics
            .add_queue_wait(class, started.elapsed().as_nanos() as u64);
        let real = (service_nanos as f64 * self.config.time_scale) as u64;
        precise_delay(Duration::from_nanos(real));
    }
}
