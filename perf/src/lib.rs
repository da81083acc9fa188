//! The pieces of `olxp-perf`, the repository's benchmark (see `main.rs` and
//! `perf/README.md`).  A library only so that the tests under `tests/` can
//! hold `BENCHMARK.json` against the catalogue in [`spec`].

pub mod affinity;
pub mod compare;
pub mod json;
pub mod layers;
pub mod probe;
pub mod round;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;

/// Errors here end the process with a message; nothing recovers from them.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
