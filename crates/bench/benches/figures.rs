//! `cargo bench` entry point that regenerates every table and figure of the
//! paper in quick mode (scaled-down data and measurement windows).
//!
//! This is intentionally not a Criterion benchmark: each experiment is an
//! end-to-end benchmark run whose output is a table, so the harness simply
//! executes them all and prints the reports.  For the full-scale pass use
//! `cargo run -p olxpbench-bench --release --bin olxp_experiments -- all`.

use olxpbench_bench::{all_experiment_ids, run_experiment, ExpOptions};
use std::time::Instant;

fn main() {
    // `cargo bench -- --flag` style arguments (e.g. the `--bench` cargo passes)
    // are irrelevant here; run everything in quick mode.
    let opts = ExpOptions::quick();
    let overall = Instant::now();
    for id in all_experiment_ids() {
        let started = Instant::now();
        let report = run_experiment(id, opts.clone()).expect("registered experiment");
        println!("{report}");
        println!(
            "[{id} quick pass: {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
    }
    println!(
        "all figure/table experiments completed in {:.1}s (quick mode)",
        overall.elapsed().as_secs_f64()
    );
}
