//! The benchmark driver: agent thread pool, request scheduling and result
//! collection.
//!
//! The driver realises the three "online and analytical agent combination
//! modes" described in §IV-C: pure groups (only one of OLTP / OLAP / hybrid
//! agents enabled), concurrent OLTP+OLAP agents, and hybrid agents that send
//! hybrid transactions performing a real-time query in-between an online
//! transaction.  Which of the modes a run uses follows directly from which
//! agent groups its [`BenchConfig`] enables.

use crate::config::{AgentConfig, BenchConfig, LoopMode};
use crate::error::{BenchError, BenchResult};
use crate::generator::{OpenLoopSchedule, RequestSchedule, WeightedChoice};
use crate::report::{FreshnessSummary, LatencySummary, StageSummary};
use crate::stats::LatencyRecorder;
use crate::workload::{AnalyticalQuery, HybridTransaction, OnlineTransaction, Workload};
use olxp_engine::{HybridDatabase, MetricsSnapshot, Session, TelemetryPoint};
use olxp_txn::LockStatsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one benchmark run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct BenchmarkResult {
    /// Configuration label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Measurement window length in seconds.
    pub duration_secs: f64,
    /// Online-transaction results (if OLTP agents were enabled).
    pub oltp: Option<LatencySummary>,
    /// Analytical-query results (if OLAP agents were enabled).
    pub olap: Option<LatencySummary>,
    /// Hybrid-transaction (OLxP) results (if hybrid agents were enabled).
    pub hybrid: Option<LatencySummary>,
    /// Lock overhead over the measurement window: blocked time (row-lock plus
    /// worker-queue waits) divided by simulated busy time — the paper's
    /// Figure 4 metric.
    pub lock_overhead: f64,
    /// The engine's metrics over the measurement window
    /// (`after.delta_since(&before)`): counters cover the window, gauges and
    /// lifetime percentiles (resident bytes, group-commit batch sizes, LSN
    /// watermarks) are their values at the end of the run.
    pub engine: MetricsSnapshot,
    /// Replication lag (records) at the end of the run.
    pub replication_lag: u64,
    /// Distribution of the replication staleness analytical reads observed
    /// during the run (`None` when OLAP agents were disabled) — the freshness
    /// percentiles reported next to throughput.
    pub freshness: Option<FreshnessSummary>,
    /// Per-stage lifecycle latency summaries over the run (lock, WAL append,
    /// fsync, install, 2PC, replication apply, compaction, query operators).
    /// Empty unless the engine ran with tracing enabled.
    pub stages: Vec<StageSummary>,
    /// The engine's sampled telemetry timeline over the run (warm-up
    /// included), rebased so `t_ms == 0` at the driver's start.  Empty when
    /// the telemetry sampler is disabled.
    pub timeline: Vec<TelemetryPoint>,
}

impl BenchmarkResult {
    /// OLTP throughput, 0 when OLTP agents were disabled.
    pub fn oltp_throughput(&self) -> f64 {
        self.oltp.map_or(0.0, |s| s.throughput)
    }

    /// OLAP throughput, 0 when OLAP agents were disabled.
    pub fn olap_throughput(&self) -> f64 {
        self.olap.map_or(0.0, |s| s.throughput)
    }

    /// Hybrid (OLxP) throughput, 0 when hybrid agents were disabled.
    pub fn hybrid_throughput(&self) -> f64 {
        self.hybrid.map_or(0.0, |s| s.throughput)
    }

    /// Mean OLTP latency in milliseconds (0 when disabled).
    pub fn oltp_mean_ms(&self) -> f64 {
        self.oltp.map_or(0.0, |s| s.mean_ms)
    }
}

/// Drives a [`Workload`] against a [`HybridDatabase`] according to a
/// [`BenchConfig`].
pub struct BenchmarkDriver {
    config: BenchConfig,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AgentKind {
    Oltp,
    Olap,
    Hybrid,
}

impl BenchmarkDriver {
    /// Create a driver for the given configuration.
    pub fn new(config: BenchConfig) -> BenchmarkDriver {
        BenchmarkDriver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Create the schema and load data for `workload` (convenience wrapper
    /// used by examples and experiments).
    pub fn prepare(&self, db: &Arc<HybridDatabase>, workload: &dyn Workload) -> BenchResult<()> {
        workload.create_schema(db)?;
        workload.load(db, self.config.scale_factor, self.config.seed)?;
        db.finish_load()?;
        Ok(())
    }

    /// Run the benchmark and collect results.  The schema must already be
    /// loaded (see [`BenchmarkDriver::prepare`]).
    pub fn run(
        &self,
        db: &Arc<HybridDatabase>,
        workload: &dyn Workload,
    ) -> BenchResult<BenchmarkResult> {
        self.config.validate()?;

        let online = workload.online_transactions();
        let analytical = workload.analytical_queries();
        let hybrid = workload.hybrid_transactions();
        if self.config.oltp.is_enabled() && online.is_empty() {
            return Err(BenchError::Workload(
                "OLTP agents enabled but the workload has no online transactions".into(),
            ));
        }
        if self.config.olap.is_enabled() && analytical.is_empty() {
            return Err(BenchError::Workload(
                "OLAP agents enabled but the workload has no analytical queries".into(),
            ));
        }
        if self.config.hybrid.is_enabled() && hybrid.is_empty() {
            return Err(BenchError::Workload(
                "hybrid agents enabled but the workload has no hybrid transactions".into(),
            ));
        }

        let online_choice = self.weighted_choice(
            &online
                .iter()
                .map(|t| t.name().to_string())
                .collect::<Vec<_>>(),
            workload.default_online_mix().entries(),
        );
        let hybrid_choice = self.weighted_choice(
            &hybrid
                .iter()
                .map(|t| t.name().to_string())
                .collect::<Vec<_>>(),
            workload.default_hybrid_mix().entries(),
        );
        let analytical_choice = WeightedChoice::new(&vec![1u32; analytical.len().max(1)]);

        let telemetry_t0 = db.telemetry_elapsed_ms();
        let start = Instant::now();
        let measure_start = start + self.config.warmup;
        let deadline = start + self.config.total_runtime();

        let mut oltp_recorder = LatencyRecorder::new();
        let mut olap_recorder = LatencyRecorder::new();
        let mut hybrid_recorder = LatencyRecorder::new();

        let (metrics_before, locks_before) = std::thread::scope(|scope| {
            // The moment measurement starts, drop the freshness samples taken
            // so far (earlier runs and the warm-up) and snapshot the engine
            // and lock counters, so every figure covers the same window as
            // the latency summaries.
            let marker = scope.spawn(|| {
                std::thread::sleep(measure_start.saturating_duration_since(Instant::now()));
                db.metrics().take_freshness_samples();
                (db.metrics_snapshot(), db.txn_manager().stats().locks)
            });
            let mut handles = Vec::new();
            let groups: [(AgentKind, &AgentConfig); 3] = [
                (AgentKind::Oltp, &self.config.oltp),
                (AgentKind::Olap, &self.config.olap),
                (AgentKind::Hybrid, &self.config.hybrid),
            ];
            for (kind, agents) in groups {
                if !agents.is_enabled() {
                    continue;
                }
                for thread_index in 0..agents.threads {
                    let session = db.session();
                    let online = &online;
                    let analytical = &analytical;
                    let hybrid = &hybrid;
                    let online_choice = online_choice.clone();
                    let analytical_choice = analytical_choice.clone();
                    let hybrid_choice = hybrid_choice.clone();
                    let config = &self.config;
                    let handle = scope.spawn(move || {
                        agent_loop(
                            kind,
                            thread_index,
                            agents,
                            config,
                            session,
                            online,
                            analytical,
                            hybrid,
                            &online_choice,
                            &analytical_choice,
                            &hybrid_choice,
                            start,
                            measure_start,
                            deadline,
                        )
                    });
                    handles.push((kind, handle));
                }
            }
            for (kind, handle) in handles {
                let recorder = handle.join().expect("agent thread panicked");
                match kind {
                    AgentKind::Oltp => oltp_recorder.merge(&recorder),
                    AgentKind::Olap => olap_recorder.merge(&recorder),
                    AgentKind::Hybrid => hybrid_recorder.merge(&recorder),
                }
            }
            marker.join().expect("measurement marker thread panicked")
        });

        let engine = db.metrics_snapshot().delta_since(&metrics_before);
        let locks_after = db.txn_manager().stats().locks;
        let lock_overhead = compute_lock_overhead(&engine, &locks_before, &locks_after);
        let measured_samples = db.metrics().take_freshness_samples();
        let freshness = if self.config.olap.is_enabled() {
            let lag_records: Vec<u64> = measured_samples.iter().map(|s| s.lag_records).collect();
            Some(FreshnessSummary::from_observations(&lag_records))
        } else {
            None
        };

        let window = self.config.duration;
        Ok(BenchmarkResult {
            label: self.config.label.clone(),
            workload: workload.name().to_string(),
            duration_secs: window.as_secs_f64(),
            oltp: enabled_summary(&self.config.oltp, &oltp_recorder, window),
            olap: enabled_summary(&self.config.olap, &olap_recorder, window),
            hybrid: enabled_summary(&self.config.hybrid, &hybrid_recorder, window),
            lock_overhead,
            stages: StageSummary::from_breakdown(&engine.stages),
            engine,
            replication_lag: db.replication_lag(),
            freshness,
            timeline: db
                .telemetry_points_since(telemetry_t0)
                .into_iter()
                .map(|mut point| {
                    point.t_ms -= telemetry_t0;
                    point
                })
                .collect(),
        })
    }

    fn weighted_choice(&self, names: &[String], defaults: &[(String, u32)]) -> WeightedChoice {
        let weights: Vec<u32> = names
            .iter()
            .map(|name| {
                if let Some((_, w)) = self.config.weight_overrides.iter().find(|(n, _)| n == name) {
                    *w
                } else if let Some((_, w)) = defaults.iter().find(|(n, _)| n == name) {
                    *w
                } else {
                    1
                }
            })
            .collect();
        WeightedChoice::new(&weights)
    }
}

fn enabled_summary(
    agents: &AgentConfig,
    recorder: &LatencyRecorder,
    window: Duration,
) -> Option<LatencySummary> {
    if agents.is_enabled() {
        Some(recorder.summarize(window))
    } else {
        None
    }
}

fn compute_lock_overhead(
    delta: &MetricsSnapshot,
    before: &LockStatsSnapshot,
    after: &LockStatsSnapshot,
) -> f64 {
    let busy = delta.total_busy_nanos() as f64;
    if busy <= 0.0 {
        return 0.0;
    }
    let lock_wait = after.wait_nanos.saturating_sub(before.wait_nanos) as f64;
    let queue_wait = delta.total_queue_wait_nanos() as f64;
    (lock_wait + queue_wait) / busy
}

#[allow(clippy::too_many_arguments)]
fn agent_loop(
    kind: AgentKind,
    thread_index: usize,
    agents: &AgentConfig,
    config: &BenchConfig,
    session: Session,
    online: &[Arc<dyn OnlineTransaction>],
    analytical: &[Arc<dyn AnalyticalQuery>],
    hybrid: &[Arc<dyn HybridTransaction>],
    online_choice: &WeightedChoice,
    analytical_choice: &WeightedChoice,
    hybrid_choice: &WeightedChoice,
    start: Instant,
    measure_start: Instant,
    deadline: Instant,
) -> LatencyRecorder {
    let group_salt = match kind {
        AgentKind::Oltp => 0x01u64,
        AgentKind::Olap => 0x02,
        AgentKind::Hybrid => 0x03,
    };
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(group_salt << 32)
            .wrapping_add(thread_index as u64),
    );
    let schedule = OpenLoopSchedule::new(agents.rate, agents.threads, thread_index);
    let mut recorder = LatencyRecorder::new();
    let mut k: u64 = 0;

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let scheduled = match config.mode {
            LoopMode::Open => {
                let offset = schedule
                    .send_time(k)
                    .expect("open-loop schedule always prescribes send times");
                let scheduled = start + offset;
                if scheduled >= deadline {
                    break;
                }
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                scheduled
            }
            LoopMode::Closed => now,
        };
        let send = Instant::now();
        let result = match kind {
            AgentKind::Oltp => {
                let idx = online_choice.pick(&mut rng).min(online.len() - 1);
                online[idx].execute(&session, &mut rng)
            }
            AgentKind::Olap => {
                let idx = analytical_choice.pick(&mut rng).min(analytical.len() - 1);
                analytical[idx].execute(&session, &mut rng)
            }
            AgentKind::Hybrid => {
                let idx = hybrid_choice.pick(&mut rng).min(hybrid.len() - 1);
                hybrid[idx].execute(&session, &mut rng)
            }
        };
        let finished = Instant::now();
        let latency = if matches!(config.mode, LoopMode::Open) {
            finished.duration_since(scheduled)
        } else {
            finished.duration_since(send)
        };
        if finished >= measure_start {
            match result {
                Ok(()) => recorder.record(latency),
                Err(_) => recorder.record_error(),
            }
        }
        k += 1;
    }
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_overhead_is_zero_without_busy_time() {
        let delta = MetricsSnapshot::default();
        let locks = LockStatsSnapshot::default();
        assert_eq!(compute_lock_overhead(&delta, &locks, &locks), 0.0);
    }

    #[test]
    fn lock_overhead_combines_lock_and_queue_waits() {
        let mut delta = MetricsSnapshot::default();
        delta.busy_nanos[0] = 1_000;
        delta.queue_wait_nanos[0] = 250;
        let before = LockStatsSnapshot::default();
        let after = LockStatsSnapshot {
            wait_nanos: 250,
            ..LockStatsSnapshot::default()
        };
        let overhead = compute_lock_overhead(&delta, &before, &after);
        assert!((overhead - 0.5).abs() < 1e-9);
    }

    #[test]
    fn enabled_summary_none_when_disabled() {
        let recorder = LatencyRecorder::new();
        assert!(
            enabled_summary(&AgentConfig::disabled(), &recorder, Duration::from_secs(1)).is_none()
        );
        assert!(
            enabled_summary(&AgentConfig::new(1, 1.0), &recorder, Duration::from_secs(1)).is_some()
        );
    }
}
