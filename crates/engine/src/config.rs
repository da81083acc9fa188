//! Engine configuration.

use crate::error::{EngineError, EngineResult};
use crate::model::{CostParams, StorageMedium};
use olxp_storage::SyncPolicy;
use olxp_txn::IsolationLevel;

/// The three architectural archetypes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineArchitecture {
    /// MemSQL-like: a single engine serving OLTP and OLAP from memory-resident
    /// storage, read-committed isolation, vertical partitioning.
    SingleEngine,
    /// TiDB-like: SSD-resident row store for transactions, asynchronously
    /// replicated columnar replicas for standalone analytical queries,
    /// repeatable-read snapshot isolation, dedicated analytical nodes.
    DualEngine,
    /// OceanBase-like shared-nothing deployment (used by the scalability
    /// experiment): every node is identical and serves both workloads,
    /// SSD-resident storage, snapshot isolation.
    SharedNothing,
}

impl EngineArchitecture {
    /// Short display name used in reports ("MemSQL-like" / "TiDB-like" /
    /// "OceanBase-like").
    pub fn display_name(self) -> &'static str {
        match self {
            EngineArchitecture::SingleEngine => "single-engine (MemSQL-like)",
            EngineArchitecture::DualEngine => "dual-engine (TiDB-like)",
            EngineArchitecture::SharedNothing => "shared-nothing (OceanBase-like)",
        }
    }
}

/// How stale a columnar analytical read may be relative to the committed
/// transactional history.
///
/// The paper's central claim is that HTAP systems must answer analytical
/// queries over *freshly committed* transactional data; the freshness policy
/// makes that requirement explicit and enforceable.  Before a column-store
/// read executes, the session waits on the shard appliers until the bound
/// holds, and the freshness actually observed is recorded in
/// the query's [`olxp_query::ExecStats`] and in [`crate::EngineMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreshnessPolicy {
    /// No bound: read whatever the replica currently holds (the seed
    /// behaviour).  Replication still runs, but queries never wait.
    Eventual,
    /// The replica may trail the row store by at most this many committed
    /// mutation records at the moment the read starts.  The bound is
    /// re-evaluated against the *current* appended watermark, so
    /// `BoundedRecords(0)` demands a fully caught-up replica at read time —
    /// stronger than [`FreshnessPolicy::Strict`], which only waits for the
    /// mutations committed before the read started and therefore cannot be
    /// starved by sustained concurrent writers.
    BoundedRecords(u64),
    /// The oldest unapplied committed mutation may be at most this many
    /// wall-clock nanoseconds old at the moment the read starts.
    BoundedNanos(u64),
    /// Every mutation committed before the read started must be applied (a
    /// linearizable-read watermark, TiFlash's "learner read").
    Strict,
}

impl FreshnessPolicy {
    /// Human-readable label used in reports.
    pub fn describe(&self) -> String {
        match self {
            FreshnessPolicy::Eventual => "eventual".to_string(),
            FreshnessPolicy::BoundedRecords(n) => format!("bounded({n} records)"),
            FreshnessPolicy::BoundedNanos(t) => format!("bounded({t} ns)"),
            FreshnessPolicy::Strict => "strict".to_string(),
        }
    }

    /// True when reads under this policy may have to wait for the replica.
    pub fn is_bounded(&self) -> bool {
        !matches!(self, FreshnessPolicy::Eventual)
    }
}

/// Durability settings for the engine's storage.
///
/// The default is pure in-memory operation (the seed behaviour): nothing is
/// written to disk, a crash loses everything, and no recovery happens at
/// startup.  Setting [`DurabilityConfig::data_dir`] turns on the write-ahead
/// log and checkpointing: every commit is logged (and, per the
/// [`SyncPolicy`], fsynced) before it is acknowledged, and
/// [`crate::HybridDatabase::open`] replays the newest checkpoint plus the WAL
/// tail to rebuild the stores after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints.  `None` (the default)
    /// disables durability entirely.
    pub data_dir: Option<String>,
    /// How commits are made durable.
    pub sync: SyncPolicy,
    /// Target size of one WAL segment file, in bytes (min 4 KiB).
    pub segment_bytes: u64,
    /// Take a checkpoint (and truncate covered WAL segments) every this many
    /// logged records; `0` disables automatic checkpoints (explicit
    /// [`crate::HybridDatabase::checkpoint`] calls still work).
    pub checkpoint_every_records: u64,
}

impl DurabilityConfig {
    /// In-memory operation: no WAL, no checkpoints, no recovery.
    pub fn disabled() -> DurabilityConfig {
        DurabilityConfig {
            data_dir: None,
            sync: SyncPolicy::group_commit(),
            segment_bytes: 8 * 1024 * 1024,
            checkpoint_every_records: 100_000,
        }
    }

    /// Durable operation rooted at `data_dir` with the default group-commit
    /// sync policy.
    pub fn at(data_dir: impl Into<String>) -> DurabilityConfig {
        DurabilityConfig {
            data_dir: Some(data_dir.into()),
            ..DurabilityConfig::disabled()
        }
    }

    /// Override the sync policy (builder style).
    pub fn with_sync(mut self, sync: SyncPolicy) -> DurabilityConfig {
        self.sync = sync;
        self
    }

    /// Override the segment size (builder style).
    pub fn with_segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Override the automatic checkpoint interval (builder style).
    pub fn with_checkpoint_every(mut self, records: u64) -> DurabilityConfig {
        self.checkpoint_every_records = records;
        self
    }

    /// True when a data directory is configured.
    pub fn is_enabled(&self) -> bool {
        self.data_dir.is_some()
    }

    /// Validate the durability settings (called from
    /// [`EngineConfig::validate`]).
    pub fn validate(&self) -> EngineResult<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        if self
            .data_dir
            .as_deref()
            .is_some_and(|d| d.trim().is_empty())
        {
            return Err(EngineError::Config(
                "durability data_dir must not be empty".into(),
            ));
        }
        if self.segment_bytes < 4096 {
            return Err(EngineError::Config(
                "durability segment_bytes must be >= 4096".into(),
            ));
        }
        if let SyncPolicy::GroupCommit { max_batch, .. } = self.sync {
            if max_batch == 0 {
                return Err(EngineError::Config(
                    "group commit max_batch must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig::disabled()
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Architecture archetype.
    pub architecture: EngineArchitecture,
    /// Number of cluster nodes (the paper uses 4 for the main experiments and
    /// 4/8/16 for the scalability study).
    pub nodes: usize,
    /// Storage service-time model.
    pub cost: CostParams,
    /// Multiplier converting simulated service nanoseconds into real elapsed
    /// nanoseconds.  `1.0` runs the model in real time; smaller values speed
    /// experiments up uniformly without changing any ratio.
    pub time_scale: f64,
    /// Fraction (0–100) of standalone analytical queries the dual engine's
    /// optimizer routes to the row store instead of the columnar replica
    /// ("the scan tables operations can occur in the row store of TiKV or the
    /// column store of TiFlash", §V-B1).
    pub analytical_rowstore_percent: u64,
    /// Freshness bound enforced on column-store analytical reads.
    pub freshness: FreshnessPolicy,
    /// Upper bound (milliseconds) a freshness-bounded read waits for the
    /// replica to catch up before failing with a replication error.  Keeps a
    /// stalled or broken replication pipeline from hanging readers forever.
    pub freshness_timeout_ms: u64,
    /// Durability settings (WAL + checkpoints).  Disabled by default, so the
    /// engine behaves exactly like the in-memory seed unless a data directory
    /// is configured.
    pub durability: DurabilityConfig,
    /// Number of hash-partitioned storage shards.  Each shard owns its own
    /// `RowTable` partition, replication applier, WAL stream and commit gate;
    /// the timestamp oracle and the lock table stay global.  `1` (the default) is
    /// behaviorally identical to the unsharded engine.  Constructors honour
    /// the `OLXP_TEST_SHARDS` environment variable so the whole test suite can
    /// be re-run against a sharded engine without code changes.
    pub shards: usize,
    /// Record lifecycle spans (lock, WAL append, fsync, install, 2PC,
    /// replication apply, compaction, query operators) and per-stage latency
    /// histograms.  When disabled, every instrumentation site reduces to a
    /// branch on one relaxed atomic.  Constructors honour the `OLXP_TRACE`
    /// environment variable (`on`/`1`/`true`/`yes` enables) so any run can be
    /// traced without code changes.
    pub tracing: bool,
    /// Address (e.g. `127.0.0.1:9184`, port `0` for ephemeral) the engine's
    /// embedded telemetry HTTP server binds at open, serving `GET /metrics`
    /// (Prometheus text), `/healthz` (readiness + SLO checks), `/snapshot`
    /// (JSON metrics snapshot) and `/timeseries` (sampled ring).  `None` (the
    /// default) serves nothing.  Constructors honour the
    /// `OLXP_TELEMETRY_ADDR` environment variable so any run can be scraped
    /// without code changes.
    pub telemetry_addr: Option<String>,
    /// Cadence in milliseconds of the background telemetry sampler, which
    /// diffs consecutive metrics snapshots into per-interval time-series
    /// points (the source of `/timeseries` and of per-run timeline tables).
    /// `0` disables the sampler (and with it the live time series).
    pub telemetry_interval_ms: u64,
}

/// Default shard count: `OLXP_TEST_SHARDS` if set to a positive integer,
/// otherwise 1.
fn default_shards() -> usize {
    std::env::var("OLXP_TEST_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The boolean spellings `OLXP_TRACE` accepts, case-insensitively:
/// `on`/`1`/`true`/`yes` and `off`/`0`/`false`/`none`.  Anything else is not
/// a switch value and leaves the default in force.
fn parse_switch(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Some(true),
        "off" | "0" | "false" | "none" => Some(false),
        _ => None,
    }
}

/// Default tracing switch: off unless `OLXP_TRACE` switches it on.
fn default_tracing() -> bool {
    std::env::var(olxp_trace::ENV_TRACE)
        .ok()
        .and_then(|v| parse_switch(&v))
        .unwrap_or(false)
}

/// Default telemetry scrape address: `OLXP_TELEMETRY_ADDR` if set to a
/// non-empty value, otherwise no embedded HTTP server.
fn default_telemetry_addr() -> Option<String> {
    std::env::var("OLXP_TELEMETRY_ADDR")
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

impl EngineConfig {
    /// MemSQL-like single engine on the default 4-node cluster.
    pub fn single_engine() -> EngineConfig {
        EngineConfig {
            architecture: EngineArchitecture::SingleEngine,
            nodes: 4,
            cost: CostParams::default(),
            time_scale: 1.0,
            analytical_rowstore_percent: 100,
            freshness: FreshnessPolicy::Eventual,
            freshness_timeout_ms: 2_000,
            durability: DurabilityConfig::disabled(),
            shards: default_shards(),
            tracing: default_tracing(),
            telemetry_addr: default_telemetry_addr(),
            telemetry_interval_ms: 250,
        }
    }

    /// TiDB-like dual engine on the default 4-node cluster.
    pub fn dual_engine() -> EngineConfig {
        EngineConfig {
            architecture: EngineArchitecture::DualEngine,
            analytical_rowstore_percent: 40,
            ..EngineConfig::single_engine()
        }
    }

    /// OceanBase-like shared-nothing cluster (scalability experiment only).
    pub fn shared_nothing() -> EngineConfig {
        EngineConfig {
            architecture: EngineArchitecture::SharedNothing,
            analytical_rowstore_percent: 70,
            ..EngineConfig::dual_engine()
        }
    }

    /// Override the cluster size (builder style).
    pub fn with_nodes(mut self, nodes: usize) -> EngineConfig {
        self.nodes = nodes;
        self
    }

    /// Override the time scale (builder style).
    pub fn with_time_scale(mut self, scale: f64) -> EngineConfig {
        self.time_scale = scale;
        self
    }

    /// Override the freshness policy for analytical reads (builder style).
    pub fn with_freshness(mut self, freshness: FreshnessPolicy) -> EngineConfig {
        self.freshness = freshness;
        self
    }

    /// Override the freshness wait timeout (builder style).
    pub fn with_freshness_timeout_ms(mut self, timeout_ms: u64) -> EngineConfig {
        self.freshness_timeout_ms = timeout_ms;
        self
    }

    /// Override the durability settings (builder style).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> EngineConfig {
        self.durability = durability;
        self
    }

    /// Override the storage shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards;
        self
    }

    /// Enable or disable lifecycle tracing (builder style).
    pub fn with_tracing(mut self, enabled: bool) -> EngineConfig {
        self.tracing = enabled;
        self
    }

    /// Serve the telemetry endpoints at this address (builder style).  Pass
    /// port `0` for an ephemeral port, resolvable through
    /// [`crate::HybridDatabase::telemetry_addr`] after open.
    pub fn with_telemetry_addr(mut self, addr: impl Into<String>) -> EngineConfig {
        self.telemetry_addr = Some(addr.into());
        self
    }

    /// Override the telemetry sampling cadence in milliseconds; `0` disables
    /// the background sampler (builder style).
    pub fn with_telemetry_interval_ms(mut self, interval_ms: u64) -> EngineConfig {
        self.telemetry_interval_ms = interval_ms;
        self
    }

    /// Storage medium implied by the architecture.
    pub fn medium(&self) -> StorageMedium {
        match self.architecture {
            EngineArchitecture::SingleEngine => StorageMedium::Memory,
            EngineArchitecture::DualEngine | EngineArchitecture::SharedNothing => {
                StorageMedium::Ssd
            }
        }
    }

    /// Default isolation level implied by the architecture.
    pub fn default_isolation(&self) -> IsolationLevel {
        match self.architecture {
            EngineArchitecture::SingleEngine => IsolationLevel::ReadCommitted,
            EngineArchitecture::DualEngine | EngineArchitecture::SharedNothing => {
                IsolationLevel::RepeatableRead
            }
        }
    }

    /// Whether standalone analytical queries can be served by dedicated
    /// analytical (columnar) nodes.
    pub fn has_dedicated_analytical_nodes(&self) -> bool {
        matches!(self.architecture, EngineArchitecture::DualEngine)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> EngineResult<()> {
        if self.nodes == 0 {
            return Err(EngineError::Config("nodes must be >= 1".into()));
        }
        if !(self.time_scale.is_finite() && self.time_scale >= 0.0) {
            return Err(EngineError::Config(
                "time_scale must be a non-negative finite number".into(),
            ));
        }
        if self.analytical_rowstore_percent > 100 {
            return Err(EngineError::Config(
                "analytical_rowstore_percent must be in 0..=100".into(),
            ));
        }
        if self.freshness.is_bounded() && self.freshness_timeout_ms == 0 {
            return Err(EngineError::Config(
                "freshness_timeout_ms must be >= 1 under a bounded freshness policy".into(),
            ));
        }
        if self.shards == 0 {
            return Err(EngineError::Config("shards must be >= 1".into()));
        }
        if self.shards > 1024 {
            return Err(EngineError::Config("shards must be <= 1024".into()));
        }
        if self
            .telemetry_addr
            .as_deref()
            .is_some_and(|a| a.trim().is_empty())
        {
            return Err(EngineError::Config(
                "telemetry_addr must not be empty when set".into(),
            ));
        }
        self.durability.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetypes_have_paper_consistent_properties() {
        let single = EngineConfig::single_engine();
        let dual = EngineConfig::dual_engine();
        assert_eq!(single.medium(), StorageMedium::Memory);
        assert_eq!(dual.medium(), StorageMedium::Ssd);
        assert_eq!(single.default_isolation(), IsolationLevel::ReadCommitted);
        assert_eq!(dual.default_isolation(), IsolationLevel::RepeatableRead);
        assert!(dual.has_dedicated_analytical_nodes());
        assert!(!single.has_dedicated_analytical_nodes());
        assert!(single.validate().is_ok());
        assert!(dual.validate().is_ok());
        assert!(EngineConfig::shared_nothing().validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let cfg = EngineConfig::dual_engine()
            .with_nodes(16)
            .with_time_scale(0.25);
        assert_eq!(cfg.nodes, 16);
        assert!((cfg.time_scale - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(EngineConfig::dual_engine()
            .with_nodes(0)
            .validate()
            .is_err());
        let mut cfg = EngineConfig::dual_engine();
        cfg.time_scale = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = EngineConfig::dual_engine();
        cfg.analytical_rowstore_percent = 200;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn freshness_defaults_and_validation() {
        let cfg = EngineConfig::dual_engine();
        assert_eq!(cfg.freshness, FreshnessPolicy::Eventual);
        let bounded = cfg.with_freshness(FreshnessPolicy::BoundedRecords(64));
        assert!(bounded.validate().is_ok());
        assert!(bounded.freshness.is_bounded());
        let bad = EngineConfig::dual_engine()
            .with_freshness(FreshnessPolicy::Strict)
            .with_freshness_timeout_ms(0);
        assert!(bad.validate().is_err());
        // An unbounded policy tolerates a zero timeout (it never waits).
        let eventual = EngineConfig::dual_engine().with_freshness_timeout_ms(0);
        assert!(eventual.validate().is_ok());
    }

    #[test]
    fn freshness_policy_descriptions() {
        assert_eq!(FreshnessPolicy::Eventual.describe(), "eventual");
        assert_eq!(FreshnessPolicy::Strict.describe(), "strict");
        assert_eq!(
            FreshnessPolicy::BoundedRecords(8).describe(),
            "bounded(8 records)"
        );
        assert_eq!(
            FreshnessPolicy::BoundedNanos(1_000).describe(),
            "bounded(1000 ns)"
        );
        assert!(!FreshnessPolicy::Eventual.is_bounded());
        assert!(FreshnessPolicy::BoundedNanos(1).is_bounded());
    }

    #[test]
    fn durability_defaults_and_validation() {
        let cfg = EngineConfig::dual_engine();
        assert!(!cfg.durability.is_enabled(), "in-memory by default");
        assert!(cfg.validate().is_ok());

        let durable = cfg
            .clone()
            .with_durability(DurabilityConfig::at("/tmp/olxp-data"));
        assert!(durable.durability.is_enabled());
        assert!(durable.validate().is_ok());

        let tiny_segments = EngineConfig::dual_engine()
            .with_durability(DurabilityConfig::at("/tmp/x").with_segment_bytes(16));
        assert!(tiny_segments.validate().is_err());

        let empty_dir = EngineConfig::dual_engine().with_durability(DurabilityConfig::at("  "));
        assert!(empty_dir.validate().is_err());

        let zero_batch = EngineConfig::dual_engine().with_durability(
            DurabilityConfig::at("/tmp/x").with_sync(SyncPolicy::GroupCommit {
                max_batch: 0,
                max_wait_us: 10,
            }),
        );
        assert!(zero_batch.validate().is_err());

        // A disabled config never validates its disk knobs.
        let disabled = EngineConfig::dual_engine()
            .with_durability(DurabilityConfig::disabled().with_segment_bytes(16));
        assert!(disabled.validate().is_ok());
    }

    #[test]
    fn switch_spellings() {
        for (spelling, expected) in [
            ("on", Some(true)),
            ("ON", Some(true)),
            ("1", Some(true)),
            ("True", Some(true)),
            (" yes\n", Some(true)),
            ("off", Some(false)),
            ("OFF", Some(false)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("None", Some(false)),
            ("", None),
            ("2", None),
            ("enabled", None),
        ] {
            assert_eq!(parse_switch(spelling), expected, "{spelling:?}");
        }
    }

    #[test]
    fn telemetry_defaults_and_validation() {
        let cfg = EngineConfig::dual_engine();
        // The sampler is on by default; the HTTP server is opt-in (the
        // OLXP_TELEMETRY_ADDR environment default is absent in tests).
        assert_eq!(cfg.telemetry_interval_ms, 250);
        assert!(cfg.validate().is_ok());

        let served = EngineConfig::dual_engine()
            .with_telemetry_addr("127.0.0.1:0")
            .with_telemetry_interval_ms(50);
        assert_eq!(served.telemetry_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(served.telemetry_interval_ms, 50);
        assert!(served.validate().is_ok());

        // Interval 0 disables the sampler but stays valid.
        let off = EngineConfig::dual_engine().with_telemetry_interval_ms(0);
        assert!(off.validate().is_ok());

        let blank = EngineConfig::dual_engine().with_telemetry_addr("  ");
        assert!(blank.validate().is_err());
    }
}
