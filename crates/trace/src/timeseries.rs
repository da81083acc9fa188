//! Fixed-capacity telemetry time series.
//!
//! The live telemetry sampler diffs consecutive engine metrics snapshots and
//! appends one point per sampling interval into a [`TimeSeriesRing`] — a
//! bounded ring that keeps the newest points and counts what it had to drop,
//! so a long-lived engine exposes a sliding window of its recent behaviour
//! without growing memory.  The ring is generic over its point (the engine
//! owns the point type and renders the ring as JSON) and asks of it only
//! its place on the time axis, [`SeriesPoint::t_ms`].

use std::collections::VecDeque;

/// What a [`TimeSeriesRing`] needs from the points it retains.
pub trait SeriesPoint: Clone {
    /// Milliseconds on the sampler's time axis at the end of the interval
    /// this point covers.
    fn t_ms(&self) -> u64;
}

/// Bounded ring of points: keeps the newest `capacity` points and counts
/// evictions, so the memory held by a long-running sampler is fixed at
/// construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesRing<P> {
    capacity: usize,
    points: VecDeque<P>,
    dropped: u64,
}

impl<P: SeriesPoint> TimeSeriesRing<P> {
    /// A ring that retains at most `capacity` points (0 retains nothing).
    pub fn with_capacity(capacity: usize) -> TimeSeriesRing<P> {
        TimeSeriesRing {
            capacity,
            points: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// Append a point, evicting the oldest when the ring is full.
    pub fn push(&mut self, point: P) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(point);
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> Vec<P> {
        self.points.iter().cloned().collect()
    }

    /// Retained points newer than (or at) `t_ms`, oldest first.
    pub fn points_since(&self, t_ms: u64) -> Vec<P> {
        self.points
            .iter()
            .filter(|p| p.t_ms() >= t_ms)
            .cloned()
            .collect()
    }

    /// The newest retained point.
    pub fn last(&self) -> Option<&P> {
        self.points.back()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points evicted (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Point {
        t_ms: u64,
        commits: u64,
    }

    impl SeriesPoint for Point {
        fn t_ms(&self) -> u64 {
            self.t_ms
        }
    }

    fn point(t_ms: u64, commits: u64) -> Point {
        Point { t_ms, commits }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TimeSeriesRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(point(i * 100, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 2);
        let points = ring.points();
        assert_eq!(points[0].t_ms, 200, "oldest two were evicted");
        assert_eq!(points[2].t_ms, 400);
        assert_eq!(ring.last().unwrap().t_ms, 400);
        assert_eq!(ring.points_since(300).len(), 2);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut ring = TimeSeriesRing::with_capacity(0);
        ring.push(point(0, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }
}
