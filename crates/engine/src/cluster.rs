//! Simulated cluster: nodes, worker pools and buffer pools (a private part
//! of [`crate::model`]).
//!
//! The paper deploys its systems on 4-node (main experiments) and 16-node
//! (scalability) clusters.  The relevant behaviours of that deployment are:
//!
//! * each node has a bounded amount of compute, so long analytical scans keep
//!   workers busy and online transactions queue behind them — the primary
//!   interference channel;
//! * rows are partitioned across nodes, so transactions touching several
//!   partitions pay two-phase-commit round trips;
//! * the dual-engine architecture dedicates half of the nodes to columnar
//!   replicas (two TiFlash servers out of four in the paper's deployment).
//!
//! [`Cluster`] models the first and the third: per-node worker pools
//! (acquire/occupy/release with queue-wait measurement) and a
//! storage/analytical node split for the dual engine.  Key placement on the
//! storage nodes is [`crate::model::Placement`]'s.

use crate::bufferpool::BufferPool;
use crate::config::{EngineArchitecture, EngineConfig};
use crate::model::NodeId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Worker threads modelled per node (the paper's servers expose 24 hardware
/// threads; the model is scaled down with the data sizes).
const WORKERS_PER_NODE: usize = 6;

/// Buffer-pool capacity per node, in pages.
const BUFFER_POOL_PAGES: u64 = 512;

/// A counting semaphore modelling one node's worker threads.
#[derive(Debug)]
struct WorkerPool {
    capacity: usize,
    available: Mutex<usize>,
    released: Condvar,
}

impl WorkerPool {
    fn new(capacity: usize) -> WorkerPool {
        WorkerPool {
            capacity,
            available: Mutex::new(capacity),
            released: Condvar::new(),
        }
    }

    /// Acquire one worker, returning the real nanoseconds spent waiting.
    fn acquire(&self) -> u64 {
        let started = Instant::now();
        let mut available = self.available.lock();
        while *available == 0 {
            self.released.wait(&mut available);
        }
        *available -= 1;
        started.elapsed().as_nanos() as u64
    }

    fn release(&self) {
        let mut available = self.available.lock();
        *available = (*available + 1).min(self.capacity);
        drop(available);
        self.released.notify_one();
    }
}

/// One simulated server.
#[derive(Debug)]
struct Node {
    workers: WorkerPool,
    buffer_pool: BufferPool,
}

/// The simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    storage_nodes: Vec<NodeId>,
    analytical_nodes: Vec<NodeId>,
    time_scale: f64,
    storage_round_robin: AtomicU64,
    analytical_round_robin: AtomicU64,
}

/// Outcome of occupying a worker for a piece of simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupation {
    /// Real nanoseconds spent waiting for a free worker.
    pub queue_wait_nanos: u64,
    /// Simulated service nanoseconds charged.
    pub service_nanos: u64,
}

impl Cluster {
    /// Build the cluster described by an [`EngineConfig`].
    pub fn from_config(config: &EngineConfig) -> Cluster {
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|_| Node {
                workers: WorkerPool::new(WORKERS_PER_NODE),
                buffer_pool: BufferPool::new(BUFFER_POOL_PAGES),
            })
            .collect();
        let all: Vec<NodeId> = (0..config.nodes).collect();
        let (storage_nodes, analytical_nodes) = match config.architecture {
            EngineArchitecture::DualEngine if config.nodes >= 2 => {
                // Half of the nodes host columnar replicas (TiFlash), the rest
                // host the row store (TiKV), mirroring the paper's deployment.
                let split = config.nodes.div_ceil(2);
                (all[..split].to_vec(), all[split..].to_vec())
            }
            _ => (all.clone(), all),
        };
        Cluster {
            nodes,
            storage_nodes,
            analytical_nodes,
            time_scale: config.time_scale,
            storage_round_robin: AtomicU64::new(0),
            analytical_round_robin: AtomicU64::new(0),
        }
    }

    /// Nodes hosting the row store.
    pub fn storage_nodes(&self) -> &[NodeId] {
        &self.storage_nodes
    }

    /// Nodes hosting columnar replicas.
    pub fn analytical_nodes(&self) -> &[NodeId] {
        &self.analytical_nodes
    }

    /// A node's buffer pool.
    pub fn buffer_pool(&self, node: NodeId) -> &BufferPool {
        &self.nodes[node].buffer_pool
    }

    /// The storage node owning a whole-table operation (scans start here and
    /// scatter to the rest); rotates to spread load.  Each rotation keeps its
    /// own counter: a shared one would let interleaved storage and analytical
    /// requests skew both rotations (e.g. every analytical call advancing the
    /// storage rotation past a node it never served).
    pub fn next_storage_node(&self) -> NodeId {
        let i = self.storage_round_robin.fetch_add(1, Ordering::Relaxed) as usize;
        self.storage_nodes[i % self.storage_nodes.len()]
    }

    /// The analytical node that should execute the next columnar query.
    pub fn next_analytical_node(&self) -> NodeId {
        let i = self.analytical_round_robin.fetch_add(1, Ordering::Relaxed) as usize;
        self.analytical_nodes[i % self.analytical_nodes.len()]
    }

    /// Occupy one worker of `node` for `service_nanos` of simulated work.
    ///
    /// The calling thread blocks until a worker is free, then blocks for the
    /// scaled service time (spinning for sub-100µs intervals so short
    /// operations keep their relative cost).  Queue waiting is how OLTP/OLAP
    /// interference materialises as latency.
    pub fn occupy(&self, node: NodeId, service_nanos: u64) -> Occupation {
        let node = &self.nodes[node];
        let queue_wait_nanos = node.workers.acquire();
        let real = (service_nanos as f64 * self.time_scale) as u64;
        precise_delay(Duration::from_nanos(real));
        node.workers.release();
        Occupation {
            queue_wait_nanos,
            service_nanos,
        }
    }
}

/// Block the calling thread for approximately `d`.
///
/// `thread::sleep` has ~50–100µs granularity on Linux, so short waits are
/// busy-waited on multi-core hosts. On a host with fewer cores than
/// benchmark threads a yielding spin is counterproductive: the spinning
/// thread keeps getting a full scheduler timeslice (~10ms) between yields
/// while runnable peers hold the core, turning a 100µs wait into a 10ms+
/// stall that drowns the modelled service times. On such hosts every wait
/// goes through `thread::sleep`, trading sub-100µs precision for fairness.
pub fn precise_delay(d: Duration) {
    if d < Duration::from_micros(3) {
        return;
    }
    if d >= Duration::from_micros(150) || low_parallelism_host() {
        std::thread::sleep(d);
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::thread::yield_now();
    }
}

/// True when the host exposes less parallelism than a typical benchmark run
/// uses, so spinning would starve peer agent threads. The shape tests and
/// experiments drive up to four agent threads plus the coordinator (five
/// runnable threads at peak); below that many cores at least one runnable
/// thread can end up waiting behind a spinner.
fn low_parallelism_host() -> bool {
    use std::sync::OnceLock;
    static LOW: OnceLock<bool> = OnceLock::new();
    *LOW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() < 5)
            .unwrap_or(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::model::Placement;
    use olxp_storage::Key;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn dual_engine_splits_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        assert_eq!(cluster.nodes.len(), 4);
        assert_eq!(cluster.storage_nodes().len(), 2);
        assert_eq!(cluster.analytical_nodes().len(), 2);
        assert!(cluster
            .storage_nodes()
            .iter()
            .all(|n| !cluster.analytical_nodes().contains(n)));
    }

    #[test]
    fn single_engine_shares_all_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::single_engine().with_nodes(4));
        assert_eq!(cluster.storage_nodes().len(), 4);
        assert_eq!(cluster.analytical_nodes().len(), 4);
    }

    #[test]
    fn partitioning_is_deterministic_and_in_range() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let place = |key| Placement::of("ITEM", &Key::int(key), 1, cluster.storage_nodes()).node;
        assert_eq!(place(42), place(42));
        assert!(cluster.storage_nodes().contains(&place(42)));
    }

    #[test]
    fn round_robin_covers_all_analytical_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            seen.insert(cluster.next_analytical_node());
        }
        assert_eq!(seen.len(), cluster.analytical_nodes().len());
    }

    #[test]
    fn interleaved_rotations_still_cover_every_node() {
        // With one shared counter, alternating storage/analytical calls made
        // each rotation see only every other index, so a two-node rotation
        // degenerated to a single node.  Per-rotation counters keep full
        // coverage under any interleaving.
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let mut storage_seen = std::collections::HashSet::new();
        let mut analytical_seen = std::collections::HashSet::new();
        for _ in 0..4 {
            storage_seen.insert(cluster.next_storage_node());
            analytical_seen.insert(cluster.next_analytical_node());
        }
        assert_eq!(storage_seen.len(), cluster.storage_nodes().len());
        assert_eq!(analytical_seen.len(), cluster.analytical_nodes().len());
    }

    #[test]
    fn occupy_charges_service_time_and_measures_queueing() {
        let config = EngineConfig::single_engine().with_nodes(1);
        let cluster = Arc::new(Cluster::from_config(&config));
        // Saturate every worker of the one node; another thread frees them
        // 3ms from now.
        for _ in 0..WORKERS_PER_NODE {
            cluster.nodes[0].workers.acquire();
        }
        let started = Instant::now();
        let c2 = Arc::clone(&cluster);
        let releaser = thread::spawn(move || {
            thread::sleep(Duration::from_millis(3));
            for _ in 0..WORKERS_PER_NODE {
                c2.nodes[0].workers.release();
            }
        });
        let occ = cluster.occupy(0, 100_000);
        let elapsed = started.elapsed();
        releaser.join().unwrap();
        assert_eq!(occ.service_nanos, 100_000);
        // The occupation had to queue until the workers were freed.
        assert!(elapsed >= Duration::from_millis(3));
    }

    #[test]
    fn precise_delay_short_and_zero() {
        precise_delay(Duration::ZERO);
        let started = Instant::now();
        precise_delay(Duration::from_micros(50));
        assert!(started.elapsed() >= Duration::from_micros(45));
    }

    #[test]
    fn time_scale_zero_disables_delays() {
        let config = EngineConfig::single_engine().with_time_scale(0.0);
        let cluster = Cluster::from_config(&config);
        let started = Instant::now();
        cluster.occupy(0, 50_000_000);
        assert!(started.elapsed() < Duration::from_millis(20));
    }
}
