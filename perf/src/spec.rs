//! What the benchmark runs and what it reports: the five workloads with their
//! sizes, and the catalogue of metric names, units and bounds.
//! `BENCHMARK.json` at the repository root mirrors this file; a test holds
//! the two together.

use olxpbench_core::Workload;
use olxpbench_workloads::{Fibenchmark, Subenchmark, Tabenchmark};
use std::sync::Arc;

/// `--seconds` at which the request lists have the sizes written below.  A
/// run given another value scales every list by `seconds / NOMINAL_SECONDS`,
/// so work is fixed by `(seed, seconds)` and never by a clock.
pub const NOMINAL_SECONDS: u32 = 20;

/// Rounds per workload, each a fresh process.
pub const ROUNDS: usize = 5;

/// Share of the list run before measurement starts (not timed for latency).
pub const WARMUP_SHARE: f64 = 0.10;

/// Rate of the open-loop OLTP client that runs beside `fib_mixed`'s queries.
pub const BG_OLTP_RATE: f64 = 4_000.0;

/// Which of a suite's three template families the measured client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Oltp,
    Olap,
    Hybrid,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Fib,
    Sub,
    Tab,
}

impl Suite {
    pub fn short(self) -> &'static str {
        match self {
            Suite::Fib => "fib",
            Suite::Sub => "sub",
            Suite::Tab => "tab",
        }
    }

    pub fn build(self) -> Arc<dyn Workload> {
        match self {
            Suite::Fib => Arc::new(Fibenchmark::new()),
            Suite::Sub => Arc::new(Subenchmark::new()),
            Suite::Tab => Arc::new(Tabenchmark::new()),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub suite: Suite,
    pub scale_factor: u32,
    pub class: Class,
    /// Closed-loop clients of the measured class; the list is split evenly.
    pub clients: usize,
    /// Measured requests per round at [`NOMINAL_SECONDS`] (all clients).
    pub requests: usize,
    /// WAL + checkpoints under `out/data`, ending in crash and reopen.
    pub durable: bool,
    /// Route every analytical query to the column store.
    pub columnar_only: bool,
    /// Transactions (at [`NOMINAL_SECONDS`]) of the open-loop OLTP client
    /// that runs beside the measured list at [`BG_OLTP_RATE`]; 0 for none.
    /// Over twice what the list's duration asks for on a quiet host: the
    /// client must outlast the list (a round in which it does not is
    /// incorrect), and runs the rest of its own afterwards.
    pub background_requests: usize,
    /// One client and no background writer: every round must end in the same
    /// row-store state having scanned the same rows.
    pub deterministic: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "fib_oltp",
        why: "20 us banking transactions, one client, in memory: pure per-transaction overhead (session, charge, locks, install, metrics) feeding apply and compaction; no query, no WAL",
        suite: Suite::Fib,
        scale_factor: 50,
        class: Class::Oltp,
        clients: 1,
        requests: 130_000,
        durable: false,
        columnar_only: false,
        background_requests: 0,
        deterministic: true,
    },
    Spec {
        name: "sub_oltp_wal",
        why: "TPC-C-like mix, two clients, group-commit WAL: the whole durable write path (contended locks, append, fsync, install, apply), ending in crash and reopen; column store and executor idle",
        suite: Suite::Sub,
        scale_factor: 2,
        class: Class::Oltp,
        clients: 2,
        requests: 3_200,
        durable: true,
        columnar_only: false,
        background_requests: 0,
        deterministic: false,
    },
    Spec {
        name: "tab_olap",
        why: "read-only scans of the settled, compressed main tier over wide telecom rows: decode, pruning and operators do all the work, the write path none; counts repeat exactly",
        suite: Suite::Tab,
        scale_factor: 5,
        class: Class::Olap,
        clients: 1,
        requests: 480,
        durable: false,
        columnar_only: true,
        background_requests: 0,
        deterministic: true,
    },
    Spec {
        name: "fib_mixed",
        why: "queries over a delta that a 4000 tx/s open-loop writer keeps dirty, 40 % routed to the row store: freshness lag, OLTP/OLAP interference and write cost pushed onto reads show only here",
        suite: Suite::Fib,
        scale_factor: 10,
        class: Class::Olap,
        clients: 1,
        requests: 400,
        durable: false,
        columnar_only: false,
        background_requests: 32_000,
        deterministic: false,
    },
    Spec {
        name: "sub_hybrid",
        why: "the paper's hybrid transaction: a real-time query on the MVCC row store inside a writing transaction; row snapshot scans dominate and the column store is bypassed",
        suite: Suite::Sub,
        scale_factor: 1,
        class: Class::Hybrid,
        clients: 1,
        requests: 400,
        durable: false,
        columnar_only: false,
        background_requests: 0,
        deterministic: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; end-to-end metrics also carry the
/// share of the baseline median by which they may worsen.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// By how much of the baseline median a timing may worsen before it counts as
/// a regression.  ISSUE 12 asked for 0.10 and this is 0.25, the largest value
/// the benchmark contract allows: a bound has to be three times the quartile
/// spread of ten runs, and on the shared host this was written on that spread
/// is 5-8 % of the median in a quiet quarter of an hour and 10-35 % in a busy
/// one, with identical code (see "How steady it is" in `perf/README.md`).
/// Lower it when the benchmark moves to a host that repeats better.
const TIME_BOUND: f64 = 0.25;

/// The five end-to-end metrics, the same names on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    [
        ("setup_s", "s", Lower, TIME_BOUND),
        ("tps", "1/s", Higher, TIME_BOUND),
        ("p50_ms", "ms", Lower, TIME_BOUND),
        ("p95_ms", "ms", Lower, TIME_BOUND),
        ("col_bytes_per_row", "B/row", Lower, 0.05),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// Per-layer metrics that do not depend on a suite's templates, in the order
/// of the table in `perf/README.md`.
const LAYER: &[(&str, &str, Better)] = {
    use Better::*;
    &[
        ("engine.database.open_ms", "ms", Lower),
        ("engine.database.load_krows_per_s", "krows/s", Higher),
        ("engine.database.finish_load_ms", "ms", Lower),
        ("engine.database.settle_ms", "ms", Lower),
        ("engine.database.warmup_ms", "ms", Lower),
        ("engine.database.shutdown_ms", "ms", Lower),
        ("engine.session.begin_us", "us", Lower),
        ("engine.session.point_read_us", "us", Lower),
        ("engine.session.update_us", "us", Lower),
        ("engine.session.rmw_commit_us", "us", Lower),
        ("engine.session.commit_p50_us", "us", Lower),
        ("engine.session.commit_p99_us", "us", Lower),
        ("engine.session.statements_per_txn", "count", Lower),
        ("engine.session.query_in_txn_ms", "ms", Lower),
        ("engine.session.analytical_query_ms", "ms", Lower),
        ("engine.cluster.modelled_busy_us_per_op", "us", Lower),
        ("engine.cluster.queue_wait_us_per_op", "us", Lower),
        ("txn.locks.acquire_p50_us", "us", Lower),
        ("txn.locks.acquire_p99_us", "us", Lower),
        ("txn.locks.acquisitions_per_commit", "count", Lower),
        ("txn.locks.contended_pct", "%", Lower),
        ("txn.locks.wait_us_per_commit", "us", Lower),
        ("txn.manager.aborts_per_kcommit", "count", Lower),
        ("txn.manager.attempts_per_success", "ratio", Lower),
        ("storage.wal.append_p50_us", "us", Lower),
        ("storage.wal.append_p99_us", "us", Lower),
        ("storage.wal.fsync_p50_us", "us", Lower),
        ("storage.wal.fsync_p99_us", "us", Lower),
        ("storage.wal.bytes_per_commit", "B", Lower),
        ("storage.wal.appends_per_commit", "count", Lower),
        ("storage.wal.fsyncs_per_commit", "count", Lower),
        ("storage.wal.group_batch_p50", "count", Higher),
        ("storage.wal.recovery_s", "s", Lower),
        ("storage.wal.replay_krec_per_s", "krec/s", Higher),
        ("storage.wal.recovered_images_differing", "count", Lower),
        ("storage.checkpoint.write_ms", "ms", Lower),
        ("storage.checkpoint.krows_per_s", "krows/s", Higher),
        ("storage.rowstore.install_p50_us", "us", Lower),
        ("storage.rowstore.install_p99_us", "us", Lower),
        ("storage.rowstore.scan_mrows_per_s", "Mrows/s", Higher),
        ("storage.rowstore.rows_scanned_per_op", "rows", Lower),
        ("storage.replication.apply_p50_us", "us", Lower),
        ("storage.replication.apply_p99_us", "us", Lower),
        ("storage.replication.applied_krec_per_s", "krec/s", Higher),
        ("storage.replication.drain_ms", "ms", Lower),
        ("storage.replication.errors", "count", Lower),
        ("storage.replication.lag_p50_records", "records", Lower),
        ("storage.replication.lag_p95_records", "records", Lower),
        ("storage.replication.lag_max_records", "records", Lower),
        ("storage.colstore.scan_mrows_per_s", "Mrows/s", Higher),
        ("storage.colstore.rows_scanned_per_query", "count", Lower),
        ("storage.colstore.chunks_scanned_per_query", "count", Lower),
        ("storage.colstore.compaction_p50_us", "us", Lower),
        ("storage.colstore.compaction_p99_us", "us", Lower),
        ("storage.colstore.chunks_compacted", "count", Lower),
        ("storage.colstore.compression_ratio", "ratio", Higher),
        ("storage.zonemap.prune_pct", "%", Higher),
        ("storage.filter.prune_pct", "%", Higher),
        ("storage.encode.rows_pruned_pct", "%", Higher),
        ("query.exec.operator_p50_us", "us", Lower),
        ("query.exec.operator_p99_us", "us", Lower),
        ("query.exec.batches_per_query", "count", Lower),
        ("query.exec.freshness_wait_p99_us", "us", Lower),
        ("core.bg_oltp_p50_ms", "ms", Lower),
        ("core.bg_oltp_p95_ms", "ms", Lower),
        ("core.gen_late_p95_ms", "ms", Lower),
        ("trace.overhead_pct", "%", Lower),
        ("trace.spans_recorded", "count", Lower),
        ("host.spin_ms", "ms", Lower),
        ("host.chase_ms", "ms", Lower),
        ("host.round_spread_pct", "%", Lower),
    ]
};

/// Names of a suite's templates of one class, in template order.
pub fn template_names(workload: &dyn Workload, class: Class) -> Vec<String> {
    match class {
        Class::Oltp => workload
            .online_transactions()
            .iter()
            .map(|t| t.name().to_string())
            .collect(),
        Class::Olap => workload
            .analytical_queries()
            .iter()
            .map(|t| t.name().to_string())
            .collect(),
        Class::Hybrid => workload
            .hybrid_transactions()
            .iter()
            .map(|t| t.name().to_string())
            .collect(),
    }
}

/// Name of the per-template latency metric.
pub fn template_metric(suite: Suite, template: &str) -> String {
    format!("workloads.{}.{template}_p50_ms", suite.short())
}

/// Every per-layer metric: the fixed table plus one median latency per
/// measured template of each workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = LAYER
        .iter()
        .map(|&(name, unit, better)| MetricDef {
            name: name.to_string(),
            unit,
            better,
            bound: None,
        })
        .collect();
    for spec in &WORKLOADS {
        for template in template_names(spec.suite.build().as_ref(), spec.class) {
            let name = template_metric(spec.suite, &template);
            if out.iter().all(|m| m.name != name) {
                out.push(MetricDef {
                    name,
                    unit: "ms",
                    better: Better::Lower,
                    bound: None,
                });
            }
        }
    }
    out
}

/// What `BENCHMARK.json` at the repository root must say.
pub fn benchmark_json() -> serde::Value {
    use crate::json::map;
    use serde::Value;
    let text = |s: &str| Value::Str(s.to_string());
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", text(&m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ];
        fields.extend(m.bound.map(|b| ("bound", Value::F64(b))));
        map(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
        "run",
    ];
    map(vec![
        (
            "command",
            Value::Seq(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Seq(vec![text("perf")])),
        ("run_seconds", Value::I64(i64::from(NOMINAL_SECONDS))),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Seq(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_sized_for_p95() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                crate::stats::supports_percentile(w.requests, 0.95),
                "{} reports p95 from {} samples",
                w.name,
                w.requests
            );
            assert!(w.clients <= 2, "load generation stays within two cores");
            assert_eq!(w.requests % w.clients, 0);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_within_contract_limits() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(per_layer().len() <= 128);
        assert_eq!(per_layer().len(), LAYER.len() + 6 + 5 + 5 + 4 + 5);
    }
}
