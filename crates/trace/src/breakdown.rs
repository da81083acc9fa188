//! Per-category stage-latency breakdown: one [`LogHistogram`] per
//! [`SpanCategory`], the unit that flows from engine metrics snapshots into
//! benchmark results.

use crate::hist::LogHistogram;
use crate::span::{SpanCategory, ALL_CATEGORIES};

/// One latency histogram per lifecycle stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageBreakdown {
    hists: Vec<LogHistogram>,
}

impl Default for StageBreakdown {
    fn default() -> Self {
        StageBreakdown::new()
    }
}

impl StageBreakdown {
    /// All-empty breakdown.
    pub fn new() -> StageBreakdown {
        StageBreakdown {
            hists: (0..SpanCategory::COUNT)
                .map(|_| LogHistogram::new())
                .collect(),
        }
    }

    /// Record one duration against a stage.
    #[inline]
    pub fn record(&mut self, category: SpanCategory, nanos: u64) {
        self.hists[category.index()].record(nanos);
    }

    /// The histogram for one stage.
    pub fn get(&self, category: SpanCategory) -> &LogHistogram {
        &self.hists[category.index()]
    }

    /// Merge another breakdown into this one, stage by stage.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            mine.merge(theirs);
        }
    }

    /// Stage-wise delta versus an earlier snapshot of this breakdown.
    pub fn since(&self, earlier: &StageBreakdown) -> StageBreakdown {
        StageBreakdown {
            hists: self
                .hists
                .iter()
                .zip(earlier.hists.iter())
                .map(|(now, then)| now.since(then))
                .collect(),
        }
    }

    /// True when no stage has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.is_empty())
    }

    /// Total durations recorded across all stages.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count()).sum()
    }

    /// Iterate `(category, histogram)` pairs in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (SpanCategory, &LogHistogram)> {
        ALL_CATEGORIES.iter().map(|&c| (c, &self.hists[c.index()]))
    }

    /// Iterate only the stages that recorded at least one duration.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (SpanCategory, &LogHistogram)> {
        self.iter().filter(|(_, h)| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merge_and_delta() {
        let mut a = StageBreakdown::new();
        assert!(a.is_empty());
        a.record(SpanCategory::Fsync, 1_000);
        a.record(SpanCategory::Fsync, 2_000);
        a.record(SpanCategory::Lock, 10);
        let snapshot = a.clone();
        a.record(SpanCategory::Lock, 20);
        let delta = a.since(&snapshot);
        assert_eq!(delta.get(SpanCategory::Lock).count(), 1);
        assert_eq!(delta.get(SpanCategory::Fsync).count(), 0);
        assert_eq!(a.total_count(), 4);

        let mut b = StageBreakdown::new();
        b.record(SpanCategory::Fsync, 4_000);
        a.merge(&b);
        assert_eq!(a.get(SpanCategory::Fsync).count(), 3);
        assert_eq!(a.iter_nonempty().count(), 2);
    }
}
