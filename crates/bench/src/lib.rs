//! # olxpbench-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! OLxPBench paper's evaluation, plus Criterion micro-benchmarks for the
//! substrate crates.
//!
//! Run a single experiment with
//!
//! ```text
//! cargo run -p olxpbench-bench --release --bin olxp-experiments -- fig7
//! ```
//!
//! or all of them with `-- all` (append `--quick` for a scaled-down pass).
//! The experiment ids and what each one prints are listed in the README's
//! "Running the paper's experiments" section.

pub mod experiments;

pub use experiments::{
    all_experiment_ids, check_slos, export_trace_artifact, run_experiment, take_run_summaries,
    DurabilityMode, ExpOptions, SloViolation,
};
