//! Framework errors.

use olxp_engine::EngineError;
use std::fmt;

/// Result alias for framework operations.
pub type BenchResult<T> = Result<T, BenchError>;

/// Errors produced by the benchmarking framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchError {
    /// The engine returned an error that retries could not resolve.
    Engine(EngineError),
    /// The benchmark configuration is invalid.
    Config(String),
    /// A workload definition is inconsistent (e.g. empty transaction mix).
    Workload(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Engine(e) => write!(f, "engine error: {e}"),
            BenchError::Config(msg) => write!(f, "invalid benchmark configuration: {msg}"),
            BenchError::Workload(msg) => write!(f, "invalid workload: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<EngineError> for BenchError {
    fn from(e: EngineError) -> Self {
        BenchError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_engine::EngineError;

    #[test]
    fn conversion_and_display() {
        let e: BenchError = EngineError::UnknownTable("ITEM".into()).into();
        assert!(e.to_string().contains("ITEM"));
        assert!(BenchError::Config("bad rate".into())
            .to_string()
            .contains("bad rate"));
    }
}
