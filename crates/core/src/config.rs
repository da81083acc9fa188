//! Benchmark configuration.
//!
//! The original OLxPBench client is configured through an XML file specifying
//! "the request rates, transaction types, real-time query types, weights, and
//! target DB configuration" (§IV-C).  [`BenchConfig`] is the equivalent.

use crate::error::{BenchError, BenchResult};
use std::time::Duration;

/// Whether agents wait for responses before sending the next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopMode {
    /// Open loop: requests are issued on a fixed schedule regardless of
    /// completions; latency is measured from the scheduled send time, so
    /// queueing delay is included (no coordinated omission).
    #[default]
    Open,
    /// Closed loop: a new request is sent only after the previous response.
    Closed,
}

/// Configuration of one agent group (OLTP, OLAP or hybrid agents).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Number of agent threads.
    pub threads: usize,
    /// Aggregate request rate (requests per second across all threads).
    /// Ignored in closed-loop mode (threads run back-to-back).
    pub rate: f64,
}

impl AgentConfig {
    /// An agent group that issues no requests.
    pub fn disabled() -> AgentConfig {
        AgentConfig {
            threads: 0,
            rate: 0.0,
        }
    }

    /// A simple open-loop agent group.
    pub fn new(threads: usize, rate: f64) -> AgentConfig {
        AgentConfig { threads, rate }
    }

    /// True when this group will issue requests.
    pub fn is_enabled(&self) -> bool {
        self.threads > 0 && self.rate > 0.0
    }
}

/// Full benchmark run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Human-readable label recorded in reports.
    pub label: String,
    /// Warm-up period excluded from measurements.
    pub warmup: Duration,
    /// Measurement window.
    pub duration: Duration,
    /// Open- or closed-loop request generation.
    pub mode: LoopMode,
    /// Online-transaction agents.
    pub oltp: AgentConfig,
    /// Analytical-query agents.
    pub olap: AgentConfig,
    /// Hybrid-transaction agents (real-time query in-between an online
    /// transaction).
    pub hybrid: AgentConfig,
    /// Workload scale factor (e.g. warehouses for subenchmark).  The paper
    /// uses 50 warehouses; the default here is laptop-sized.
    pub scale_factor: u32,
    /// RNG seed so runs are reproducible.
    pub seed: u64,
    /// Optional override of per-transaction weights, `(name, weight)` pairs.
    /// Transactions not listed keep their workload-default weight.
    pub weight_overrides: Vec<(String, u32)>,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            label: "olxpbench".to_string(),
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(2),
            mode: LoopMode::Open,
            oltp: AgentConfig::new(4, 200.0),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            scale_factor: 2,
            seed: 42,
            weight_overrides: Vec::new(),
        }
    }
}

impl BenchConfig {
    /// A configuration that issues only online transactions.
    pub fn oltp_only(threads: usize, rate: f64, duration: Duration) -> BenchConfig {
        BenchConfig {
            label: format!("oltp@{rate}tps"),
            oltp: AgentConfig::new(threads, rate),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            duration,
            ..BenchConfig::default()
        }
    }

    /// A configuration that issues only hybrid transactions.
    pub fn hybrid_only(threads: usize, rate: f64, duration: Duration) -> BenchConfig {
        BenchConfig {
            label: format!("hybrid@{rate}tps"),
            oltp: AgentConfig::disabled(),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::new(threads, rate),
            duration,
            ..BenchConfig::default()
        }
    }

    /// A mixed OLTP + OLAP configuration (the paper's "mixtures of online
    /// transactions with analytical queries").
    pub fn mixed(
        oltp_threads: usize,
        oltp_rate: f64,
        olap_threads: usize,
        olap_rate: f64,
        duration: Duration,
    ) -> BenchConfig {
        BenchConfig {
            label: format!("oltp@{oltp_rate}+olap@{olap_rate}"),
            oltp: AgentConfig::new(oltp_threads, oltp_rate),
            olap: AgentConfig::new(olap_threads, olap_rate),
            hybrid: AgentConfig::disabled(),
            duration,
            ..BenchConfig::default()
        }
    }

    /// Builder-style scale-factor override.
    pub fn with_scale_factor(mut self, scale: u32) -> BenchConfig {
        self.scale_factor = scale;
        self
    }

    /// Builder-style warm-up override.
    pub fn with_warmup(mut self, warmup: Duration) -> BenchConfig {
        self.warmup = warmup;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> BenchResult<()> {
        if self.duration.is_zero() {
            return Err(BenchError::Config("duration must be > 0".into()));
        }
        if !self.oltp.is_enabled() && !self.olap.is_enabled() && !self.hybrid.is_enabled() {
            return Err(BenchError::Config(
                "at least one agent group must be enabled".into(),
            ));
        }
        for (name, agents) in [
            ("oltp", &self.oltp),
            ("olap", &self.olap),
            ("hybrid", &self.hybrid),
        ] {
            if agents.threads > 0 && agents.rate <= 0.0 {
                return Err(BenchError::Config(format!(
                    "{name} agents have threads but a non-positive rate"
                )));
            }
            if !agents.rate.is_finite() {
                return Err(BenchError::Config(format!("{name} rate must be finite")));
            }
        }
        if self.scale_factor == 0 {
            return Err(BenchError::Config("scale_factor must be >= 1".into()));
        }
        Ok(())
    }

    /// Total end-to-end run time (warm-up plus measurement).
    pub fn total_runtime(&self) -> Duration {
        self.warmup + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(BenchConfig::default().validate().is_ok());
    }

    #[test]
    fn constructors_enable_expected_groups() {
        let c = BenchConfig::oltp_only(2, 100.0, Duration::from_secs(1));
        assert!(c.oltp.is_enabled());
        assert!(!c.olap.is_enabled());
        let c = BenchConfig::hybrid_only(2, 10.0, Duration::from_secs(1));
        assert!(c.hybrid.is_enabled());
        let c = BenchConfig::mixed(2, 100.0, 1, 1.0, Duration::from_secs(1));
        assert!(c.oltp.is_enabled() && c.olap.is_enabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = BenchConfig {
            duration: Duration::ZERO,
            ..BenchConfig::default()
        };
        assert!(c.validate().is_err());

        let c = BenchConfig {
            oltp: AgentConfig::disabled(),
            ..BenchConfig::default()
        };
        assert!(c.validate().is_err());

        let c = BenchConfig {
            oltp: AgentConfig {
                threads: 2,
                rate: -5.0,
            },
            ..BenchConfig::default()
        };
        assert!(c.validate().is_err());

        let c = BenchConfig {
            scale_factor: 0,
            ..BenchConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn total_runtime_adds_warmup() {
        let c = BenchConfig::default().with_warmup(Duration::from_secs(1));
        assert_eq!(c.total_runtime(), Duration::from_secs(1) + c.duration);
    }
}
