//! # olxpbench-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! OLxPBench paper's evaluation, plus the engine properties the README
//! reports (durability, shard scaling, compression).
//!
//! Run a single experiment with
//!
//! ```text
//! cargo run -p olxpbench-bench --release --bin olxp_experiments -- fig7
//! ```
//!
//! or all of them with `-- all` (append `--quick` for a scaled-down pass).
//! [`all_experiment_ids`] lists the experiment ids; the README's "Running the
//! paper's experiments" section shows the commands for the non-figure ones.

pub mod experiments;

pub use experiments::{
    all_experiment_ids, check_slos, export_trace_artifact, run_experiment, take_run_summaries,
    DurabilityMode, ExpOptions, SloViolation,
};
