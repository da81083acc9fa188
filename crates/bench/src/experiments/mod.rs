//! Experiment registry and shared helpers.
//!
//! Every experiment corresponds to one table or figure of the paper's
//! evaluation (see the per-experiment index in `DESIGN.md`).  Experiments run
//! against freshly created in-process engines; because the substrate is a
//! calibrated model rather than the authors' 4-node testbed, absolute numbers
//! differ from the paper, but each experiment prints the same rows/series and
//! its qualitative shape (who wins, direction and rough magnitude of the
//! effects) is expected to match.

mod compression;
mod design;
mod durability;
mod prefilter;
mod scaling;
mod sweeps;
mod tables;
mod tracing;

pub use tracing::export_trace_artifact;

use olxpbench::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which durability mode the experiment engines run with (`--durability`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// In-memory engines (the default; matches the paper's setup).
    #[default]
    None,
    /// WAL with group commit.
    Group,
    /// WAL with an fsync per commit.
    Always,
}

impl DurabilityMode {
    /// Parse the `--durability` flag value.
    pub fn parse(value: &str) -> Option<DurabilityMode> {
        match value {
            "none" => Some(DurabilityMode::None),
            "group" => Some(DurabilityMode::Group),
            "always" => Some(DurabilityMode::Always),
            _ => None,
        }
    }

    /// The WAL sync policy this mode maps to (`None` disables the WAL).
    pub fn sync_policy(self) -> Option<SyncPolicy> {
        match self {
            DurabilityMode::None => None,
            DurabilityMode::Group => Some(SyncPolicy::group_commit()),
            DurabilityMode::Always => Some(SyncPolicy::Always),
        }
    }

    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DurabilityMode::None => "none (in-memory)",
            DurabilityMode::Group => "group commit",
            DurabilityMode::Always => "fsync per commit",
        }
    }
}

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Scaled-down pass: shorter measurement windows, smaller sweeps, smaller
    /// data.  Used by `cargo bench` and the experiment smoke tests.
    pub quick: bool,
    /// Simulated-time multiplier passed to the engines (1.0 = calibrated model).
    pub time_scale: f64,
    /// Durability mode for every engine the experiments create.
    pub durability: DurabilityMode,
    /// Root directory for durable engines' data (`--data-dir`).  Each engine
    /// gets its own subdirectory; `None` falls back to a temp directory.
    pub data_dir: Option<String>,
    /// Shard-count override for every engine the experiments create
    /// (`--shards`).  `None` keeps the engine default.
    pub shards: Option<usize>,
    /// Telemetry listen address applied to every engine the experiments
    /// create (`--serve`), so `/metrics` and `/healthz` can be scraped while
    /// an experiment is live.  Engines overlap only briefly, so a fixed port
    /// is fine; a failed bind is reported and the run continues unserved.
    pub serve_addr: Option<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            time_scale: 1.0,
            durability: DurabilityMode::None,
            data_dir: None,
            shards: None,
            serve_addr: None,
        }
    }
}

impl ExpOptions {
    /// Quick-mode options.
    pub fn quick() -> ExpOptions {
        ExpOptions {
            quick: true,
            ..ExpOptions::default()
        }
    }

    /// Measurement window for one run.
    pub fn duration(&self) -> Duration {
        if self.quick {
            Duration::from_millis(400)
        } else {
            Duration::from_millis(1500)
        }
    }

    /// Warm-up before each measurement window.
    pub fn warmup(&self) -> Duration {
        if self.quick {
            Duration::from_millis(100)
        } else {
            Duration::from_millis(300)
        }
    }

    /// Workload scale factor (warehouses / thousands of accounts or
    /// subscribers).
    pub fn scale(&self) -> u32 {
        if self.quick {
            1
        } else {
            2
        }
    }
}

/// Identifiers of every experiment, in presentation order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "findings",
        "fig10",
        "interference",
        "durability",
        "shards",
        "prefilter",
        "compression",
        "tracing_overhead",
        "telemetry_overhead",
    ]
}

/// Run one experiment by id, returning its printed report, or `None` for an
/// unknown id.
pub fn run_experiment(id: &str, opts: ExpOptions) -> Option<String> {
    let report = match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig1" => design::fig1_hybrid_impact(opts),
        "fig3" => design::fig3_schema_model(opts).0,
        "fig4" => design::fig3_schema_model(opts).1,
        "fig5" => design::fig5_realtime_vs_analytical(opts),
        "fig6" => design::fig6_domain_specific(opts),
        "fig7" => sweeps::figure_sweep(opts, "subenchmark"),
        "fig8" => sweeps::figure_sweep(opts, "fibenchmark"),
        "fig9" => sweeps::figure_sweep(opts, "tabenchmark"),
        "findings" => sweeps::findings(opts),
        "fig10" => scaling::fig10_scalability(opts),
        "interference" => design::interference(opts),
        "durability" => durability::commit_latency_by_sync_policy(opts),
        "shards" => scaling::shard_scaling(opts),
        "prefilter" => prefilter::selectivity_sweep(opts),
        "compression" => compression::compression(opts),
        "tracing_overhead" => tracing::tracing_overhead(opts),
        "telemetry_overhead" => tracing::telemetry_overhead(opts),
        _ => return None,
    };
    Some(report)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Monotonic suffix so every durable experiment engine gets a fresh data
/// directory (experiments build many engines; they must not share a WAL).
static DATA_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Durability settings for one freshly created experiment engine, or `None`
/// when the experiments run in-memory (the default).
pub(crate) fn durability_for(opts: &ExpOptions) -> Option<DurabilityConfig> {
    let sync = opts.durability.sync_policy()?;
    let root = opts
        .data_dir
        .as_deref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("olxp-experiments"));
    let unique = DATA_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!("engine-{}-{unique}", std::process::id()));
    Some(DurabilityConfig::at(dir.display().to_string()).with_sync(sync))
}

/// Build an engine of the given architecture.
pub(crate) fn make_db(
    architecture: EngineArchitecture,
    nodes: usize,
    opts: &ExpOptions,
) -> Arc<HybridDatabase> {
    let base = match architecture {
        EngineArchitecture::SingleEngine => EngineConfig::single_engine(),
        EngineArchitecture::DualEngine => EngineConfig::dual_engine(),
        EngineArchitecture::SharedNothing => EngineConfig::shared_nothing(),
    };
    let mut config = base.with_nodes(nodes).with_time_scale(opts.time_scale);
    if let Some(durability) = durability_for(opts) {
        config = config.with_durability(durability);
    }
    if let Some(shards) = opts.shards {
        config = config.with_shards(shards);
    }
    if let Some(addr) = &opts.serve_addr {
        config = config.with_telemetry_addr(addr.clone());
    }
    HybridDatabase::new(config).expect("experiment engine config is valid")
}

/// Build an engine and load a workload into it.
pub(crate) fn prepared_db(
    architecture: EngineArchitecture,
    workload: &dyn Workload,
    opts: &ExpOptions,
) -> Arc<HybridDatabase> {
    prepared_db_with_nodes(architecture, workload, opts, 4, opts.scale())
}

/// Build an engine with an explicit node count / scale and load a workload.
pub(crate) fn prepared_db_with_nodes(
    architecture: EngineArchitecture,
    workload: &dyn Workload,
    opts: &ExpOptions,
    nodes: usize,
    scale: u32,
) -> Arc<HybridDatabase> {
    let db = make_db(architecture, nodes, opts);
    workload
        .create_schema(&db)
        .expect("schema creation succeeds");
    workload.load(&db, scale, 42).expect("data load succeeds");
    db.finish_load().expect("replication catch-up succeeds");
    db
}

/// Every benchmark run the current experiment executed, in order.  The
/// harness binary drains this after each experiment to build the
/// machine-readable `bench-summary-<id>.json` artifact and to evaluate the
/// SLO watchdog, without threading a collector through every experiment
/// signature.
static RUN_SUMMARIES: std::sync::Mutex<Vec<BenchmarkResult>> = std::sync::Mutex::new(Vec::new());

/// Drain the benchmark results recorded since the last drain, oldest first.
pub fn take_run_summaries() -> Vec<BenchmarkResult> {
    std::mem::take(&mut *RUN_SUMMARIES.lock().expect("run-summary registry"))
}

/// Run one benchmark configuration against a prepared database.
pub(crate) fn run_config(
    db: &Arc<HybridDatabase>,
    workload: &dyn Workload,
    config: BenchConfig,
) -> BenchmarkResult {
    let result = BenchmarkDriver::new(config)
        .run(db, workload)
        .expect("benchmark run succeeds");
    RUN_SUMMARIES
        .lock()
        .expect("run-summary registry")
        .push(result.clone());
    result
}

/// One run that violated a service-level bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// Label of the violating run.
    pub run: String,
    /// The bound that was violated (e.g. `replication_errors == 0`).
    pub bound: &'static str,
    /// Observed value.
    pub observed: u64,
}

/// Evaluate the harness-level SLO bounds over a batch of runs: the
/// replication pipeline must apply every record without error and no
/// analytical read may time out waiting for freshness.  Violations are
/// printed by the binary and fail the process under `--slo-strict`.
pub fn check_slos(runs: &[BenchmarkResult]) -> Vec<SloViolation> {
    let mut violations = Vec::new();
    for run in runs {
        if run.engine.replication_errors > 0 {
            violations.push(SloViolation {
                run: run.label.clone(),
                bound: "replication_errors == 0",
                observed: run.engine.replication_errors,
            });
        }
        if run.engine.freshness_timeouts > 0 {
            violations.push(SloViolation {
                run: run.label.clone(),
                bound: "freshness_timeouts == 0",
                observed: run.engine.freshness_timeouts,
            });
        }
    }
    violations
}

/// Shorthand for a run's OLTP mean latency in milliseconds.
pub(crate) fn fmt_ms(ms: f64) -> String {
    format!("{ms:.2}")
}

/// Shorthand for a ratio such as "5.9x".
pub(crate) fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Measure the peak throughput of one agent class by driving it far beyond
/// saturation for a short window (the paper's "saturation value that a single
/// workload can reach in the test cluster").
pub(crate) fn measure_peak(
    db: &Arc<HybridDatabase>,
    workload: &dyn Workload,
    class: WorkClass,
    opts: &ExpOptions,
) -> f64 {
    let duration = if opts.quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(800)
    };
    let threads = if opts.quick { 4 } else { 8 };
    let overdrive = 200_000.0;
    let config = match class {
        WorkClass::Olap => BenchConfig {
            label: "peak-olap".into(),
            oltp: AgentConfig::disabled(),
            olap: AgentConfig::new(threads, overdrive),
            hybrid: AgentConfig::disabled(),
            duration,
            warmup: Duration::from_millis(50),
            ..BenchConfig::default()
        },
        WorkClass::Hybrid => BenchConfig {
            label: "peak-hybrid".into(),
            oltp: AgentConfig::disabled(),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::new(threads, overdrive),
            duration,
            warmup: Duration::from_millis(50),
            ..BenchConfig::default()
        },
        _ => BenchConfig {
            label: "peak-oltp".into(),
            oltp: AgentConfig::new(threads, overdrive),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            duration,
            warmup: Duration::from_millis(50),
            ..BenchConfig::default()
        },
    };
    let result = run_config(db, workload, config);
    match class {
        WorkClass::Olap => result.olap_throughput(),
        WorkClass::Hybrid => result.hybrid_throughput(),
        _ => result.oltp_throughput(),
    }
    .max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxpbench::engine::MetricsSnapshot;

    #[test]
    fn check_slos_flags_replication_errors_and_freshness_timeouts() {
        let unhealthy = BenchmarkResult {
            label: "unhealthy".into(),
            engine: MetricsSnapshot {
                replication_errors: 2,
                freshness_timeouts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let violations = check_slos(&[unhealthy]);
        let observed: Vec<(&str, u64)> = violations.iter().map(|v| (v.bound, v.observed)).collect();
        assert_eq!(
            observed,
            [
                ("replication_errors == 0", 2),
                ("freshness_timeouts == 0", 1)
            ]
        );
        assert!(violations.iter().all(|v| v.run == "unhealthy"));
        assert!(check_slos(&[BenchmarkResult::default()]).is_empty());
    }
}
