//! Tracing-overhead experiment and trace-artifact export.
//!
//! `tracing_overhead` answers the question every always-on observability
//! layer has to answer: what does instrumentation cost?  It drives the same
//! closed-loop fibenchmark single-row mix against a sequence of identical
//! in-memory engines, alternating the process-wide trace gate off and on,
//! and compares the median throughput of each arm.  In-memory engines are
//! the harshest setting for this measurement: commits finish in well under a millisecond
//! with no I/O to hide behind, so any per-site instrumentation cost shows up
//! at its largest relative size (durable engines bury it under fsync noise —
//! the `--durability` flag is deliberately ignored here).  With the gate
//! down every instrumentation site is a single relaxed atomic load, so the
//! off arm's spread and the off-vs-on gap should both sit inside low
//! single-digit percent.  The traced arm's commit-path stage breakdown is
//! printed after the comparison.

use super::{run_config, ExpOptions};
use olxpbench::framework::report::render_table;
use olxpbench::prelude::*;

/// One measured run of the overhead comparison.
struct OverheadRun {
    throughput: f64,
    mean_ms: f64,
    result: BenchmarkResult,
}

/// Build, load and drive one fresh in-memory engine closed-loop, with the
/// process-wide trace gate in the given state.
fn overhead_run(traced: bool, opts: &ExpOptions) -> OverheadRun {
    olxpbench::trace::set_enabled(false);
    let _ = olxpbench::trace::take_events(); // drop spans from earlier runs
    let workload = Fibenchmark::new();
    let mut config = EngineConfig::dual_engine()
        .with_nodes(1)
        .with_time_scale(opts.time_scale)
        .with_tracing(traced);
    if let Some(shards) = opts.shards {
        config = config.with_shards(shards);
    }
    let db = HybridDatabase::new(config).expect("overhead engine config is valid");
    workload
        .create_schema(&db)
        .expect("schema creation succeeds");
    workload
        .load(&db, opts.scale(), 42)
        .expect("data load succeeds");
    db.finish_load().expect("replication catch-up succeeds");

    let duration = if opts.quick {
        std::time::Duration::from_millis(200)
    } else {
        std::time::Duration::from_millis(500)
    };
    let result = run_config(
        &db,
        &workload,
        BenchConfig {
            label: format!("tracing-overhead {}", if traced { "on" } else { "off" }),
            oltp: AgentConfig::new(4, 1.0),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            mode: LoopMode::Closed,
            duration,
            warmup: std::time::Duration::from_millis(50),
            weight_overrides: vec![
                ("Balance".to_string(), 0),
                ("DepositChecking".to_string(), 1),
                ("TransactSavings".to_string(), 1),
                ("Amalgamate".to_string(), 0),
                ("WriteCheck".to_string(), 0),
                ("SendPayment".to_string(), 0),
            ],
            ..BenchConfig::default()
        },
    );
    OverheadRun {
        throughput: result.oltp_throughput(),
        mean_ms: result.oltp_mean_ms(),
        result,
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `tracing_overhead` experiment: alternating off/on runs, medians per
/// arm, and the traced arm's commit-path breakdown.
pub fn tracing_overhead(opts: ExpOptions) -> String {
    // The first run pays one-off warm-up costs (allocator growth, page
    // cache, thread-pool spin-up) that dwarf the effect being measured —
    // run it and throw it away.
    let _ = overhead_run(false, &opts);

    let rounds = if opts.quick { 2 } else { 3 };
    let mut offs: Vec<OverheadRun> = Vec::new();
    let mut ons: Vec<OverheadRun> = Vec::new();
    // Alternate the arms so slow host-level drift (CPU frequency, cache
    // state) lands evenly on both rather than biasing whichever ran last.
    for _ in 0..rounds {
        offs.push(overhead_run(false, &opts));
        ons.push(overhead_run(true, &opts));
    }
    // The traced engines raised the process-wide gate; lower it so later
    // experiments in the same invocation run untraced.
    olxpbench::trace::set_enabled(false);

    let mut off_tps: Vec<f64> = offs.iter().map(|r| r.throughput).collect();
    let mut on_tps: Vec<f64> = ons.iter().map(|r| r.throughput).collect();
    let off_median = median(&mut off_tps).max(1.0);
    let on_median = median(&mut on_tps).max(1.0);

    let arm_row = |label: &str, runs: &[OverheadRun], med: f64| -> Vec<String> {
        let min = runs.iter().map(|r| r.throughput).fold(f64::MAX, f64::min);
        let max = runs.iter().map(|r| r.throughput).fold(0.0, f64::max);
        let mean_ms = runs.iter().map(|r| r.mean_ms).sum::<f64>() / runs.len() as f64;
        let stages = runs
            .iter()
            .map(|r| r.result.stages.len())
            .max()
            .unwrap_or(0);
        vec![
            label.to_string(),
            runs.len().to_string(),
            format!("{med:.0}"),
            format!("{min:.0}..{max:.0}"),
            format!("{mean_ms:.3}"),
            format!("{:+.1}%", 100.0 * (med / off_median - 1.0)),
            stages.to_string(),
        ]
    };
    let rows = vec![
        arm_row("off", &offs, off_median),
        arm_row("on", &ons, on_median),
    ];

    let traced = ons.last().expect("at least one traced run");
    let breakdown = stage_table(&traced.result.stages);
    let breakdown_section = if breakdown.is_empty() {
        String::from("(traced runs recorded no stages)\n")
    } else {
        breakdown
    };

    format!(
        "Tracing overhead — closed-loop fibenchmark single-row mix on identical \
         in-memory engines, alternating the trace gate off and on ({rounds} runs \
         per arm, medians compared; sub-millisecond commits make instrumentation \
         cost maximally visible)\n\n{}\n\
         Enabling tracing changed median throughput by {:+.1}% \
         (off-arm spread bounds run-to-run noise)\n\n\
         Commit-path breakdown of the last traced run (log-bucket histograms, \
         quantiles within {:.2}% above the true value)\n{}",
        render_table(
            &[
                "tracing",
                "runs",
                "median OLTP (tps)",
                "spread (tps)",
                "mean lat (ms)",
                "median vs off",
                "stages recorded"
            ],
            &rows
        ),
        100.0 * (on_median / off_median - 1.0),
        100.0 * olxpbench::trace::HIST_MAX_RELATIVE_ERROR,
        breakdown_section,
    )
}

/// Build, load and drive one fresh in-memory engine closed-loop with the
/// live-telemetry service on (50ms sampler + HTTP listener on an ephemeral
/// port) or fully off (sampler disabled, no listener).  Tracing stays off in
/// both arms so only the telemetry service's cost is visible.
fn telemetry_run(live: bool, opts: &ExpOptions) -> OverheadRun {
    let workload = Fibenchmark::new();
    let mut config = EngineConfig::dual_engine()
        .with_nodes(1)
        .with_time_scale(opts.time_scale)
        .with_telemetry_interval_ms(if live { 50 } else { 0 });
    if live {
        config = config.with_telemetry_addr("127.0.0.1:0");
    } else {
        config.telemetry_addr = None;
    }
    if let Some(shards) = opts.shards {
        config = config.with_shards(shards);
    }
    let db = HybridDatabase::new(config).expect("telemetry engine config is valid");
    workload
        .create_schema(&db)
        .expect("schema creation succeeds");
    workload
        .load(&db, opts.scale(), 42)
        .expect("data load succeeds");
    db.finish_load().expect("replication catch-up succeeds");

    let duration = if opts.quick {
        std::time::Duration::from_millis(200)
    } else {
        std::time::Duration::from_millis(500)
    };
    let result = run_config(
        &db,
        &workload,
        BenchConfig {
            label: format!("telemetry-overhead {}", if live { "on" } else { "off" }),
            oltp: AgentConfig::new(4, 1.0),
            olap: AgentConfig::disabled(),
            hybrid: AgentConfig::disabled(),
            mode: LoopMode::Closed,
            duration,
            warmup: std::time::Duration::from_millis(50),
            weight_overrides: vec![
                ("Balance".to_string(), 0),
                ("DepositChecking".to_string(), 1),
                ("TransactSavings".to_string(), 1),
                ("Amalgamate".to_string(), 0),
                ("WriteCheck".to_string(), 0),
                ("SendPayment".to_string(), 0),
            ],
            ..BenchConfig::default()
        },
    );
    OverheadRun {
        throughput: result.oltp_throughput(),
        mean_ms: result.oltp_mean_ms(),
        result,
    }
}

/// The `telemetry_overhead` experiment: the acceptance A/B arm for the live
/// telemetry service.  Identical closed-loop OLTP runs with the sampler and
/// scrape listener on versus fully off; the issue's bound is a median
/// regression within low single-digit percent (background thread wakes 20
/// times a second and diffs two counter snapshots — it should be far below
/// that).  The sampled timeline of the last live run is printed after the
/// comparison.
pub fn telemetry_overhead(opts: ExpOptions) -> String {
    // Throw away one warm-up run, as in `tracing_overhead`.
    let _ = telemetry_run(false, &opts);

    let rounds = if opts.quick { 2 } else { 3 };
    let mut offs: Vec<OverheadRun> = Vec::new();
    let mut ons: Vec<OverheadRun> = Vec::new();
    for _ in 0..rounds {
        offs.push(telemetry_run(false, &opts));
        ons.push(telemetry_run(true, &opts));
    }

    let mut off_tps: Vec<f64> = offs.iter().map(|r| r.throughput).collect();
    let mut on_tps: Vec<f64> = ons.iter().map(|r| r.throughput).collect();
    let off_median = median(&mut off_tps).max(1.0);
    let on_median = median(&mut on_tps).max(1.0);

    let arm_row = |label: &str, runs: &[OverheadRun], med: f64| -> Vec<String> {
        let min = runs.iter().map(|r| r.throughput).fold(f64::MAX, f64::min);
        let max = runs.iter().map(|r| r.throughput).fold(0.0, f64::max);
        let mean_ms = runs.iter().map(|r| r.mean_ms).sum::<f64>() / runs.len() as f64;
        let points = runs
            .iter()
            .map(|r| r.result.timeline.len())
            .max()
            .unwrap_or(0);
        vec![
            label.to_string(),
            runs.len().to_string(),
            format!("{med:.0}"),
            format!("{min:.0}..{max:.0}"),
            format!("{mean_ms:.3}"),
            format!("{:+.1}%", 100.0 * (med / off_median - 1.0)),
            points.to_string(),
        ]
    };
    let rows = vec![
        arm_row("off", &offs, off_median),
        arm_row("on", &ons, on_median),
    ];

    let live = ons.last().expect("at least one live run");
    let timeline = timeline_table(&live.result.timeline);
    let timeline_section = if timeline.is_empty() {
        String::from("(live runs sampled no intervals)\n")
    } else {
        timeline
    };

    format!(
        "Telemetry overhead — closed-loop fibenchmark single-row mix on identical \
         in-memory engines, alternating the live telemetry service (50ms sampler + \
         HTTP scrape listener) off and on ({rounds} runs per arm, medians compared)\n\n{}\n\
         Enabling live telemetry changed median throughput by {:+.1}%\n\n\
         Sampled timeline of the last live run\n{}",
        render_table(
            &[
                "telemetry",
                "runs",
                "median OLTP (tps)",
                "spread (tps)",
                "mean lat (ms)",
                "median vs off",
                "timeline points"
            ],
            &rows
        ),
        100.0 * (on_median / off_median - 1.0),
        timeline_section,
    )
}

/// Drain the process-wide span rings and write a Chrome trace-event JSON
/// artifact for `experiment`, returning the path written, or `None` when no
/// spans were recorded (tracing off or nothing instrumented ran).  Used by
/// the harness binary after each experiment when `OLXP_TRACE` is on.
pub fn export_trace_artifact(experiment: &str) -> Option<std::path::PathBuf> {
    let events = olxpbench::trace::take_events();
    if events.is_empty() {
        return None;
    }
    let path = std::path::PathBuf::from(format!("trace-{experiment}.json"));
    let json = chrome_trace_json(&events);
    if std::fs::write(&path, json).is_err() {
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_overhead_report_compares_both_arms() {
        let report = telemetry_overhead(ExpOptions::quick());
        assert!(report.contains("| off"));
        assert!(report.contains("| on"));
        assert!(report.contains("median vs off"));
        assert!(report.contains("Sampled timeline"));
        // The live arm's 50ms sampler must have caught at least one interval
        // of the ~250ms run, so the timeline table really renders.
        assert!(report.contains("commit/s"), "live runs sampled a timeline");
    }

    #[test]
    fn overhead_report_compares_both_arms() {
        let report = tracing_overhead(ExpOptions::quick());
        assert!(report.contains("| off"));
        assert!(report.contains("| on"));
        assert!(report.contains("median vs off"));
        assert!(report.contains("Commit-path breakdown"));
        // The traced arm must actually have recorded commit-path stages.
        assert!(report.contains("commit"), "traced runs recorded stages");
    }
}
