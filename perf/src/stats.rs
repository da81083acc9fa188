//! The benchmark's own arithmetic: medians, exact percentiles, the
//! minimum-sample rule and the quartile spread.

/// Samples a percentile needs beyond it before it is reported (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Exact nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.  0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `samples` latencies leave [`MIN_SAMPLES_BEYOND`] of them beyond
/// the `q` percentile (200 samples for p95).
pub fn supports_percentile(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= MIN_SAMPLES_BEYOND - 1e-9
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `(max - min) / median`, the spread of one metric over a run's rounds.
pub fn range_spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (max(values) - min(values)) / med.abs()
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the spread the benchmark's acceptance uses.
/// Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 0.5), 100);
        assert_eq!(percentile(&sorted, 0.95), 190);
        assert_eq!(percentile(&sorted, 1.0), 200);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[42], 0.95), 42);
        assert_eq!(percentile(&[], 0.95), 0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(199, 0.95));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(1000, 0.99));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_spread_is_relative_to_the_median() {
        assert!((range_spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(range_spread(&[0.0, 0.0]), 0.0);
    }
}
