//! Experiment harness CLI.
//!
//! ```text
//! olxp_experiments <experiment-id>|all [--quick]
//!                  [--durability none|group|always] [--data-dir PATH]
//!                  [--shards N] [--serve ADDR] [--slo-strict]
//! ```
//!
//! Experiment ids: `table1`, `table2`, `fig1`, `fig3`, `fig4`, `fig5`, `fig6`,
//! `fig7`, `fig8`, `fig9`, `findings`, `fig10`, `interference`, `durability`,
//! `shards`, `compression`.
//!
//! `--durability` runs every experiment engine on a write-ahead log with the
//! given sync policy (default `none`: in-memory, the paper's setup),
//! `--data-dir` roots the engines' WAL segments and checkpoints at PATH
//! (default: a per-process temp directory), and `--shards` overrides the
//! engine shard count for every experiment (the `shards` experiment sweeps
//! its own counts and ignores the override).
//!
//! `--serve ADDR` binds every experiment engine's embedded telemetry listener
//! to ADDR (e.g. `127.0.0.1:9184`), so `/metrics`, `/healthz`, `/snapshot`
//! and `/timeseries` can be scraped while experiments are live.
//!
//! After each experiment the harness writes a machine-readable
//! `bench-summary-<id>.json` artifact containing every benchmark run the
//! experiment executed (latency summaries, engine counters and the sampled
//! telemetry timeline), then prints an `[slo]` line evaluating the harness
//! SLO bounds over those runs.  With `--slo-strict`, any violated bound makes
//! the process exit with status 3 once every requested experiment has run.
//!
//! With `OLXP_TRACE=on` every experiment engine records lifecycle spans and
//! the harness writes a `trace-<id>.json` Chrome trace-event artifact after
//! each experiment (load it in Perfetto / `chrome://tracing`).

use olxpbench_bench::{
    all_experiment_ids, check_slos, export_trace_artifact, run_experiment, take_run_summaries,
    DurabilityMode, ExpOptions,
};
use serde::Serialize;
use std::time::Instant;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: olxp_experiments <experiment-id>|all [--quick] \
         [--durability none|group|always] [--data-dir PATH] [--shards N] \
         [--serve ADDR] [--slo-strict]"
    );
    std::process::exit(2);
}

/// The `bench-summary-<id>.json` artifact: one experiment's benchmark runs in
/// machine-readable form.
#[derive(Serialize)]
struct BenchSummary {
    experiment: String,
    quick: bool,
    elapsed_secs: f64,
    runs: Vec<olxpbench::prelude::BenchmarkResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut durability = DurabilityMode::None;
    let mut data_dir: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut serve_addr: Option<String> = None;
    let mut slo_strict = false;
    let mut targets: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--slo-strict" => slo_strict = true,
            "--durability" => {
                let Some(value) = iter.next() else {
                    usage_error("--durability requires a value (none|group|always)");
                };
                durability = DurabilityMode::parse(&value).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown durability mode {value:?} (expected none|group|always)"
                    ))
                });
            }
            "--data-dir" => {
                let Some(value) = iter.next() else {
                    usage_error("--data-dir requires a path");
                };
                data_dir = Some(value);
            }
            "--shards" => {
                let Some(value) = iter.next() else {
                    usage_error("--shards requires a positive shard count");
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => shards = Some(n),
                    _ => usage_error(&format!(
                        "invalid shard count {value:?} (expected a positive integer)"
                    )),
                }
            }
            "--serve" => {
                let Some(value) = iter.next() else {
                    usage_error("--serve requires a listen address (e.g. 127.0.0.1:9184)");
                };
                serve_addr = Some(value);
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown flag {flag}"));
            }
            _ => targets.push(arg),
        }
    }

    let base = if quick {
        ExpOptions::quick()
    } else {
        ExpOptions::default()
    };
    let opts = ExpOptions {
        durability,
        data_dir,
        shards,
        serve_addr,
        ..base
    };

    let ids: Vec<String> = if targets.is_empty() || targets.iter().any(|t| t == "all") {
        all_experiment_ids().into_iter().map(String::from).collect()
    } else {
        targets
    };

    let mut unknown = Vec::new();
    let mut violations_total = 0usize;
    for id in &ids {
        let started = Instant::now();
        // Discard runs left over from an experiment that exited early.
        let _ = take_run_summaries();
        match run_experiment(id, opts.clone()) {
            Some(report) => {
                println!("{report}");
                // With tracing on (`OLXP_TRACE=on`), drain the span rings into
                // a Perfetto-loadable artifact.
                match export_trace_artifact(id) {
                    Ok(Some(path)) => println!("[trace artifact written to {}]", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("[failed to write trace-{id}.json: {e}]"),
                }
                let runs = take_run_summaries();
                if !runs.is_empty() {
                    let summary = BenchSummary {
                        experiment: id.clone(),
                        quick,
                        elapsed_secs: started.elapsed().as_secs_f64(),
                        runs,
                    };
                    let path = format!("bench-summary-{id}.json");
                    match serde_json::to_string_pretty(&summary)
                        .map_err(|e| e.to_string())
                        .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()))
                    {
                        Ok(()) => println!(
                            "[bench summary ({} runs) written to {path}]",
                            summary.runs.len()
                        ),
                        Err(e) => eprintln!("[failed to write {path}: {e}]"),
                    }
                    let violations = check_slos(&summary.runs);
                    if violations.is_empty() {
                        println!(
                            "[slo] {id}: all bounds satisfied across {} runs",
                            summary.runs.len()
                        );
                    } else {
                        for v in &violations {
                            println!(
                                "[slo] {id}: run {:?} violated {} (observed {})",
                                v.run, v.bound, v.observed
                            );
                        }
                        violations_total += violations.len();
                    }
                }
                println!(
                    "[{id} completed in {:.1}s{}]\n",
                    started.elapsed().as_secs_f64(),
                    if quick { ", quick mode" } else { "" }
                );
            }
            None => unknown.push(id.clone()),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (known: {})",
            unknown.join(", "),
            all_experiment_ids().join(", ")
        );
        std::process::exit(2);
    }
    if violations_total > 0 {
        eprintln!("[slo] {violations_total} violated bound(s) across all experiments");
        if slo_strict {
            std::process::exit(3);
        }
    }
}
