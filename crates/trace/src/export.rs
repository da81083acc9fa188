//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`) and
//! Prometheus text exposition.
//!
//! Both are hand-rolled string builders — this crate is dependency-free and
//! every emitted string is machine-generated ASCII (category names, shard
//! ids, integers), so no escaping machinery is needed.

use crate::hist::LogHistogram;
use crate::span::TaggedSpan;
use std::fmt::Write as _;

/// Microseconds with sub-microsecond precision, as Chrome's `ts`/`dur`
/// fields expect, rendered without float rounding artifacts.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Render spans as a Chrome trace-event JSON document.
///
/// Each span becomes one complete ("ph":"X") event whose `name` and `cat`
/// are the span's category, `tid` the recording thread, and whose `args`
/// carry the shard and transaction id.  The output loads directly in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_json(spans: &[TaggedSpan]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, t) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = t.event.category.as_str();
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"shard\":{shard},\"txn\":{txn}}}}}",
            ts = micros(t.event.start_nanos),
            dur = micros(t.event.duration_nanos()),
            tid = t.tid,
            shard = t.event.shard,
            txn = t.event.txn_id,
        );
    }
    out.push_str("]}");
    out
}

/// Escape a label value per the Prometheus exposition format: backslash,
/// double quote and newline must be backslash-escaped inside `label="..."`.
pub fn prometheus_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a number the way Prometheus expects: integers without a fraction,
/// everything else in plain decimal.
fn prometheus_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn prometheus_samples(out: &mut String, name: &str, samples: &[(&[(&str, &str)], f64)]) {
    for (labels, value) in samples {
        let value = prometheus_value(*value);
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", prometheus_escape_label(v)))
                .collect();
            let _ = writeln!(out, "{name}{{{}}} {value}", rendered.join(","));
        }
    }
}

/// Append one counter family in Prometheus text exposition.
///
/// `name` is the family base name; per convention the emitted series get a
/// `_total` suffix.  Each sample is a label set (possibly empty) plus the
/// cumulative value.
pub fn prometheus_counter(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(&[(&str, &str)], f64)],
) {
    let _ = writeln!(out, "# HELP {name}_total {help}");
    let _ = writeln!(out, "# TYPE {name}_total counter");
    prometheus_samples(out, &format!("{name}_total"), samples);
}

/// Append one gauge family in Prometheus text exposition (no suffix —
/// gauges are instantaneous values, not cumulative totals).
pub fn prometheus_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(&[(&str, &str)], f64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    prometheus_samples(out, name, samples);
}

/// Render labelled histograms as one Prometheus histogram family.
///
/// `metric` is the family name (e.g. `olxp_stage_nanos`); each
/// `(label, histogram)` pair becomes one `{stage="label"}` series with
/// cumulative `_bucket` samples (only non-empty buckets plus `+Inf`), `_sum`,
/// and `_count`.
pub fn prometheus_histogram(metric: &str, help: &str, series: &[(&str, &LogHistogram)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    for (label, hist) in series {
        let label = prometheus_escape_label(label);
        hist.for_each_bucket(|upper, cumulative| {
            let _ = writeln!(
                out,
                "{metric}_bucket{{stage=\"{label}\",le=\"{upper}\"}} {cumulative}"
            );
        });
        let _ = writeln!(
            out,
            "{metric}_bucket{{stage=\"{label}\",le=\"+Inf\"}} {}",
            hist.count()
        );
        let _ = writeln!(out, "{metric}_sum{{stage=\"{label}\"}} {}", hist.sum());
        let _ = writeln!(out, "{metric}_count{{stage=\"{label}\"}} {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCategory, SpanEvent};

    fn sample_spans() -> Vec<TaggedSpan> {
        vec![
            TaggedSpan {
                tid: 1,
                event: SpanEvent {
                    category: SpanCategory::WalAppend,
                    shard: 0,
                    txn_id: 42,
                    start_nanos: 1_500,
                    end_nanos: 4_250,
                },
            },
            TaggedSpan {
                tid: 2,
                event: SpanEvent {
                    category: SpanCategory::Fsync,
                    shard: 3,
                    txn_id: 43,
                    start_nanos: 5_000,
                    end_nanos: 5_001,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_has_expected_fields() {
        let json = chrome_trace_json(&sample_spans());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"wal_append\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.750"));
        assert!(json.contains("\"shard\":3"));
        assert!(json.contains("\"txn\":43"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_parses_back_for_every_category() {
        // One span per category, exercising the writer across the full enum
        // plus the not-shard-specific sentinel, then parse the document back
        // with a real JSON parser and check the event structure survives.
        let spans: Vec<TaggedSpan> = crate::span::ALL_CATEGORIES
            .iter()
            .enumerate()
            .map(|(i, &category)| TaggedSpan {
                tid: i as u64 + 1,
                event: SpanEvent {
                    category,
                    shard: if i == 0 { u32::MAX } else { i as u32 },
                    txn_id: 100 + i as u64,
                    start_nanos: 1_000 * i as u64 + 1,
                    end_nanos: 1_000 * i as u64 + 501,
                },
            })
            .collect();
        let json = chrome_trace_json(&spans);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents is an array");
        assert_eq!(events.len(), crate::span::ALL_CATEGORIES.len());
        for (i, event) in events.iter().enumerate() {
            let name = match event.get("name") {
                Some(serde_json::Value::Str(s)) => s.as_str(),
                other => panic!("event name is a string, got {other:?}"),
            };
            assert_eq!(name, crate::span::ALL_CATEGORIES[i].as_str());
            assert!(matches!(
                event.get("ph"),
                Some(serde_json::Value::Str(ph)) if ph == "X"
            ));
            // `ts`/`dur` are fractional microseconds; 501ns → 0.501µs.
            assert!(matches!(
                event.get("dur"),
                Some(serde_json::Value::F64(d)) if (*d - 0.5).abs() < 0.01
            ));
            let args = event.get("args").expect("event has args");
            assert!(args.get("shard").is_some() && args.get("txn").is_some());
        }
    }

    #[test]
    fn counter_families_get_help_type_and_total_suffix() {
        let mut out = String::new();
        prometheus_counter(
            &mut out,
            "olxp_commits",
            "Transactions committed.",
            &[(&[], 42.0)],
        );
        prometheus_counter(
            &mut out,
            "olxp_statements",
            "Statements issued per work class.",
            &[(&[("class", "oltp")], 10.0), (&[("class", "olap")], 3.0)],
        );
        assert!(out.contains("# HELP olxp_commits_total Transactions committed.\n"));
        assert!(out.contains("# TYPE olxp_commits_total counter\n"));
        assert!(out.contains("olxp_commits_total 42\n"));
        assert!(out.contains("olxp_statements_total{class=\"oltp\"} 10\n"));
        assert!(out.contains("olxp_statements_total{class=\"olap\"} 3\n"));
    }

    #[test]
    fn gauge_families_have_no_suffix_and_keep_fractions() {
        let mut out = String::new();
        prometheus_gauge(
            &mut out,
            "olxp_abort_rate",
            "Aborts per commit attempt.",
            &[(&[], 0.125)],
        );
        assert!(out.contains("# HELP olxp_abort_rate Aborts per commit attempt.\n"));
        assert!(out.contains("# TYPE olxp_abort_rate gauge\n"));
        assert!(out.contains("olxp_abort_rate 0.125\n"));
        assert!(!out.contains("olxp_abort_rate_total"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(prometheus_escape_label("plain"), "plain");
        assert_eq!(prometheus_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let mut out = String::new();
        prometheus_gauge(
            &mut out,
            "olxp_info",
            "Engine info.",
            &[(&[("label", "quo\"te\\slash\nline")], 1.0)],
        );
        assert!(out.contains("olxp_info{label=\"quo\\\"te\\\\slash\\nline\"} 1\n"));
    }

    #[test]
    fn histogram_with_help_matches_legacy_shape_plus_help() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        let text = prometheus_histogram(
            "olxp_stage_duration_nanos",
            "Per-stage lifecycle latency.",
            &[("fsync", &h)],
        );
        assert!(text.starts_with("# HELP olxp_stage_duration_nanos Per-stage lifecycle latency.\n"));
        assert!(text.contains("# TYPE olxp_stage_duration_nanos histogram\n"));
        assert!(text.contains("olxp_stage_duration_nanos_bucket{stage=\"fsync\",le=\"+Inf\"} 2"));
        assert!(text.contains("olxp_stage_duration_nanos_sum{stage=\"fsync\"} 30"));
        assert!(text.contains("olxp_stage_duration_nanos_count{stage=\"fsync\"} 2"));
    }

    #[test]
    fn prometheus_series_shape() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        let text = prometheus_histogram("olxp_stage_duration_nanos", "Help.", &[("fsync", &h)]);
        assert!(text.contains("olxp_stage_duration_nanos_bucket{stage=\"fsync\",le=\"10\"} 1"));
        assert!(text.contains("olxp_stage_duration_nanos_bucket{stage=\"fsync\",le=\"20\"} 2"));
        assert!(text.contains("olxp_stage_duration_nanos_bucket{stage=\"fsync\",le=\"+Inf\"} 2"));
        let escaped = prometheus_histogram("m", "Help.", &[("a\"b", &h)]);
        assert!(escaped.contains("m_count{stage=\"a\\\"b\"} 2"), "{escaped}");
    }
}
