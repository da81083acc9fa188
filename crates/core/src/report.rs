//! Result summaries and report formatting.

use olxp_engine::{ShardBreakdown, TelemetryPoint};
use olxp_trace::StageBreakdown;
use serde::Serialize;
use std::fmt;

/// The latency distribution and throughput of one request class, in the units
/// the paper reports (milliseconds and requests/second).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct LatencySummary {
    /// Number of successful requests measured.
    pub count: u64,
    /// Number of failed requests.
    pub errors: u64,
    /// Requests per second over the measurement window.
    pub throughput: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Standard deviation of latency (ms).
    pub std_dev_ms: f64,
    /// Minimum latency (ms).
    pub min_ms: f64,
    /// Median latency (ms).
    pub median_ms: f64,
    /// 90th percentile latency (ms).
    pub p90_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99.9th percentile latency (ms).
    pub p999_ms: f64,
    /// 99.99th percentile latency (ms).
    pub p9999_ms: f64,
    /// Maximum latency (ms).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Mean latency relative to a baseline summary (the normalisation used by
    /// Figures 3, 5 and 6).
    pub fn normalized_mean(&self, baseline: &LatencySummary) -> f64 {
        if baseline.mean_ms <= 0.0 {
            return 0.0;
        }
        self.mean_ms / baseline.mean_ms
    }

    /// Throughput relative to a baseline summary.
    pub fn normalized_throughput(&self, baseline: &LatencySummary) -> f64 {
        if baseline.throughput <= 0.0 {
            return 0.0;
        }
        self.throughput / baseline.throughput
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} err={} thr={:.2}/s mean={:.2}ms sd={:.2}ms min={:.2} p50={:.2} p90={:.2} p95={:.2} p99.9={:.2} p99.99={:.2} max={:.2}",
            self.count,
            self.errors,
            self.throughput,
            self.mean_ms,
            self.std_dev_ms,
            self.min_ms,
            self.median_ms,
            self.p90_ms,
            self.p95_ms,
            self.p999_ms,
            self.p9999_ms,
            self.max_ms
        )
    }
}

/// Percentiles of the replication staleness analytical reads actually
/// observed during a run — the paper's "real-time analytics" dimension made
/// measurable.  `lag_records_*` count committed mutations the columnar
/// replica trailed the row store by at the moment each read started.
/// Row-store-routed analytical reads observe zero lag and are included, so
/// the distribution covers every analytical read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct FreshnessSummary {
    /// Number of analytical reads that recorded a freshness observation.
    pub observations: u64,
    /// Median observed lag in records.
    pub lag_records_p50: u64,
    /// 95th percentile observed lag in records.
    pub lag_records_p95: u64,
    /// 99th percentile observed lag in records.
    pub lag_records_p99: u64,
    /// Maximum observed lag in records.
    pub lag_records_max: u64,
}

impl FreshnessSummary {
    /// Build a summary from per-read observations of the lag in records.
    pub fn from_observations(lag_records: &[u64]) -> FreshnessSummary {
        let mut records = lag_records.to_vec();
        records.sort_unstable();
        FreshnessSummary {
            observations: records.len() as u64,
            lag_records_p50: nearest_rank(&records, 0.50),
            lag_records_p95: nearest_rank(&records, 0.95),
            lag_records_p99: nearest_rank(&records, 0.99),
            lag_records_max: records.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank quantile over an already-sorted slice (0 when empty).
/// Shared by [`FreshnessSummary`] and [`crate::stats::LatencyRecorder`].
pub(crate) fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl fmt::Display for FreshnessSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} lag_records p50={} p95={} p99={} max={}",
            self.observations,
            self.lag_records_p50,
            self.lag_records_p95,
            self.lag_records_p99,
            self.lag_records_max
        )
    }
}

/// Latency summary of one lifecycle stage (commit path, replication,
/// compaction or query execution), distilled from the engine's log-bucket
/// stage histograms.  Quantiles inherit the histogram's bucket-upper-bound
/// guarantee: at most [`olxp_trace::HIST_MAX_RELATIVE_ERROR`] above the true
/// value.  Only collected while tracing is enabled.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSummary {
    /// Stage name (the span category's snake_case label, e.g. `wal_append`).
    pub stage: String,
    /// Durations recorded for this stage.
    pub count: u64,
    /// Mean duration (µs).
    pub mean_us: f64,
    /// Median duration (µs).
    pub p50_us: f64,
    /// 95th percentile duration (µs).
    pub p95_us: f64,
    /// 99th percentile duration (µs).
    pub p99_us: f64,
    /// 99.9th percentile duration (µs).
    pub p999_us: f64,
    /// Maximum duration (µs).
    pub max_us: f64,
    /// Total time spent in this stage (ms).
    pub total_ms: f64,
}

impl StageSummary {
    /// Summarise every non-empty stage of a breakdown, in presentation order.
    pub fn from_breakdown(stages: &StageBreakdown) -> Vec<StageSummary> {
        let us = |nanos: u64| nanos as f64 / 1_000.0;
        stages
            .iter_nonempty()
            .map(|(category, hist)| StageSummary {
                stage: category.as_str().to_string(),
                count: hist.count(),
                mean_us: hist.mean() / 1_000.0,
                p50_us: us(hist.value_at_quantile(0.50)),
                p95_us: us(hist.value_at_quantile(0.95)),
                p99_us: us(hist.value_at_quantile(0.99)),
                p999_us: us(hist.value_at_quantile(0.999)),
                max_us: us(hist.max()),
                total_ms: hist.sum() as f64 / 1_000_000.0,
            })
            .collect()
    }
}

/// Render a run's per-shard commit, lock-wait and WAL counters as a text
/// table, one row per shard in shard order (empty string for no shards).
/// Lock-wait accounting is always on, so this is available without tracing.
pub fn shard_table(shards: &[ShardBreakdown]) -> String {
    if shards.is_empty() {
        return String::new();
    }
    let rows: Vec<Vec<String>> = shards
        .iter()
        .enumerate()
        .map(|(shard, s)| {
            vec![
                shard.to_string(),
                s.commits.to_string(),
                s.lock_waits.to_string(),
                format!("{:.1}", s.mean_lock_wait_nanos() / 1_000.0),
                s.wal_appends.to_string(),
                s.wal_fsyncs.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "shard",
            "commits",
            "lock_waits",
            "mean_wait_us",
            "wal_appends",
            "wal_fsyncs",
        ],
        &rows,
    )
}

/// Render a run's sampled timeline as the per-interval table the experiment
/// harness prints (empty string when the sampler captured nothing).
pub fn timeline_table(timeline: &[TelemetryPoint]) -> String {
    if timeline.is_empty() {
        return String::new();
    }
    let rows: Vec<Vec<String>> = timeline
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.t_ms as f64 / 1_000.0),
                format!("{:.0}", p.commit_tps()),
                format!("{:.0}", p.rate(p.oltp_statements)),
                format!("{:.0}", p.rate(p.olap_statements)),
                format!("{:.0}", p.rate(p.hybrid_statements)),
                format!("{:.2}", p.abort_rate() * 100.0),
                p.replication_lag.to_string(),
                format!("{:.0}", p.rate(p.wal_fsyncs)),
                format!("{:.1}", p.commit_p95_us),
                format!("{:.1}", p.freshness_p95_us),
            ]
        })
        .collect();
    render_table(
        &[
            "t_s",
            "commit/s",
            "oltp/s",
            "olap/s",
            "olxp/s",
            "abort_pct",
            "repl_lag",
            "fsync/s",
            "commit_p95_us",
            "fresh_p95_us",
        ],
        &rows,
    )
}

/// A named latency summary (one request class of one run).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class name ("oltp", "olap", "olxp").
    pub class: String,
    /// The summary.
    pub summary: LatencySummary,
}

/// Render a simple fixed-width text table (used by the experiment harness to
/// print the paper's tables and figure series).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            } else {
                widths.push(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_against_baseline() {
        let baseline = LatencySummary {
            mean_ms: 10.0,
            throughput: 100.0,
            ..LatencySummary::default()
        };
        let loaded = LatencySummary {
            mean_ms: 59.0,
            throughput: 17.0,
            ..LatencySummary::default()
        };
        assert!((loaded.normalized_mean(&baseline) - 5.9).abs() < 1e-9);
        assert!((loaded.normalized_throughput(&baseline) - 0.17).abs() < 1e-9);
        let empty = LatencySummary::default();
        assert_eq!(loaded.normalized_mean(&empty), 0.0);
    }

    #[test]
    fn display_contains_percentiles() {
        let s = LatencySummary {
            count: 10,
            p95_ms: 12.5,
            ..LatencySummary::default()
        };
        let text = s.to_string();
        assert!(text.contains("p95=12.50"));
        assert!(text.contains("n=10"));
    }

    #[test]
    fn freshness_summary_percentiles() {
        let records: Vec<u64> = (1..=100).collect();
        let s = FreshnessSummary::from_observations(&records);
        assert_eq!(s.observations, 100);
        assert_eq!(s.lag_records_p50, 50);
        assert_eq!(s.lag_records_p95, 95);
        assert_eq!(s.lag_records_p99, 99);
        assert_eq!(s.lag_records_max, 100);
        let text = s.to_string();
        assert!(text.contains("p95=95"));

        let empty = FreshnessSummary::from_observations(&[]);
        assert_eq!(empty.observations, 0);
        assert_eq!(empty.lag_records_max, 0);
    }

    #[test]
    fn stage_summaries_cover_only_recorded_stages() {
        use olxp_trace::SpanCategory;
        let mut stages = StageBreakdown::new();
        stages.record(SpanCategory::WalAppend, 2_000);
        stages.record(SpanCategory::WalAppend, 4_000);
        stages.record(SpanCategory::Fsync, 1_000_000);
        let summaries = StageSummary::from_breakdown(&stages);
        assert_eq!(summaries.len(), 2);
        let wal = summaries.iter().find(|s| s.stage == "wal_append").unwrap();
        assert_eq!(wal.count, 2);
        assert!((wal.mean_us - 3.0).abs() < 1e-9);
        assert!((wal.total_ms - 0.006).abs() < 1e-9);
    }

    #[test]
    fn shard_summaries_carry_indices_and_means() {
        let breakdowns = vec![
            ShardBreakdown {
                commits: 10,
                lock_waits: 4,
                lock_wait_nanos: 8_000,
                wal_appends: 20,
                wal_fsyncs: 5,
            },
            ShardBreakdown::default(),
        ];
        let table = shard_table(&breakdowns);
        let cells: Vec<Vec<&str>> = table
            .lines()
            .map(|line| {
                line.split('|')
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .collect()
            })
            .collect();
        assert_eq!(
            cells.len(),
            4,
            "header, rule and one row per shard: {table}"
        );
        assert_eq!(cells[0][3], "mean_wait_us");
        assert_eq!(cells[2], ["0", "10", "4", "2.0", "20", "5"]);
        assert_eq!(cells[3], ["1", "0", "0", "0.0", "0", "0"]);
        assert!(shard_table(&[]).is_empty());
    }

    #[test]
    fn timeline_table_renders_interval_rates() {
        let p = TelemetryPoint {
            t_ms: 750,
            interval_ms: 250,
            commits: 100,
            aborts: 25,
            oltp_statements: 400,
            replication_lag: 7,
            wal_fsyncs: 10,
            commit_p95_us: 123.4,
            ..TelemetryPoint::default()
        };
        let table = timeline_table(&[p]);
        assert!(table.contains("commit/s"));
        assert!(table.contains("0.75"), "t_ms rendered in seconds: {table}");
        assert!(table.contains("400"), "100 commits in 250ms: {table}");
        assert!(table.contains("1600"), "400 statements in 250ms: {table}");
        assert!(
            table.contains("20.00"),
            "25 aborts in 125 attempts: {table}"
        );
        assert!(table.contains("123.4"));
        assert!(timeline_table(&[]).is_empty());
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["name", "tps"],
            &[
                vec!["subenchmark".into(), "800".into()],
                vec!["fi".into(), "23476".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("subenchmark"));
        // All rows have the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
