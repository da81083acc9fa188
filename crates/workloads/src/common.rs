//! Shared value generators used by the workload loaders and transactions.
//!
//! These follow the conventions of the source benchmarks: TPC-C's NURand
//! non-uniform distribution and last-name syllable table, TATP's subscriber
//! number formatting, and SmallBank's account naming.

use olxp_query::Plan;
use olxpbench_core::AnalyticalQuery;
use rand::rngs::StdRng;
use rand::Rng;

/// Attempts every suite gives a transaction that fails with a retryable
/// conflict (a wait-die abort or a lock timeout).
pub(crate) const RETRIES: usize = 5;

/// An analytical-query template defined by a name, the tables it reads and a
/// plan-builder function.  All OLxPBench suites define their analytical
/// queries this way.
pub struct PlannedQuery {
    name: &'static str,
    tables: Vec<&'static str>,
    build: fn(&mut StdRng) -> Plan,
}

impl PlannedQuery {
    /// Create a query template.
    pub fn new(
        name: &'static str,
        tables: Vec<&'static str>,
        build: fn(&mut StdRng) -> Plan,
    ) -> PlannedQuery {
        PlannedQuery {
            name,
            tables,
            build,
        }
    }
}

impl AnalyticalQuery for PlannedQuery {
    fn name(&self) -> &str {
        self.name
    }

    fn tables(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.to_string()).collect()
    }

    fn plan(&self, rng: &mut StdRng) -> Plan {
        (self.build)(rng)
    }
}

/// TPC-C last-name syllables.
const NAME_SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Uniform integer in `[lo, hi]` (inclusive).
pub fn uniform(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    if lo >= hi {
        return lo;
    }
    rng.gen_range(lo..=hi)
}

/// TPC-C NURand(A, x, y) non-uniform distribution.
pub fn nurand(rng: &mut StdRng, a: i64, x: i64, y: i64) -> i64 {
    let c = a / 2; // fixed run constant; any value in [0, A] is allowed
    (((uniform(rng, 0, a) | uniform(rng, x, y)) + c) % (y - x + 1)) + x
}

/// Random alphanumeric string with length in `[min_len, max_len]`.
pub fn rand_string(rng: &mut StdRng, min_len: usize, max_len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let len = uniform(rng, min_len as i64, max_len as i64) as usize;
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char)
        .collect()
}

/// Random numeric string of exactly `len` digits.
pub fn rand_numeric_string(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
        .collect()
}

/// Random monetary amount in `[lo, hi]` dollars, returned in cents.
pub fn rand_amount_cents(rng: &mut StdRng, lo: f64, hi: f64) -> i64 {
    let cents_lo = (lo * 100.0).round() as i64;
    let cents_hi = (hi * 100.0).round() as i64;
    uniform(rng, cents_lo, cents_hi)
}

/// TPC-C customer last name for a number in `[0, 999]`.
pub fn last_name(num: i64) -> String {
    let num = num.clamp(0, 999) as usize;
    format!(
        "{}{}{}",
        NAME_SYLLABLES[num / 100],
        NAME_SYLLABLES[(num / 10) % 10],
        NAME_SYLLABLES[num % 10]
    )
}

/// A TPC-C non-uniform random customer last name (for lookups).
pub fn rand_last_name(rng: &mut StdRng) -> String {
    last_name(nurand(rng, 255, 0, 999))
}

/// TATP subscriber number: the subscriber id zero-padded to 15 digits.
pub fn sub_nbr(s_id: i64) -> String {
    format!("{s_id:015}")
}

/// Logical timestamp for generated rows: a deterministic microsecond counter
/// derived from the row position so loads are reproducible.
pub fn synthetic_timestamp(position: i64) -> i64 {
    1_600_000_000_000_000 + position * 1_000
}

/// Pick one element of a slice uniformly.
pub fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = uniform(&mut r, 5, 10);
            assert!((5..=10).contains(&v));
        }
        assert_eq!(uniform(&mut r, 3, 3), 3);
        assert_eq!(uniform(&mut r, 9, 3), 9, "degenerate range returns lo");
    }

    #[test]
    fn nurand_stays_in_range_and_is_nonuniform() {
        let mut r = rng();
        let mut low_half = 0;
        for _ in 0..5000 {
            let v = nurand(&mut r, 255, 1, 1000);
            assert!((1..=1000).contains(&v));
            if v <= 500 {
                low_half += 1;
            }
        }
        // NURand is skewed, so the split is not exactly 50/50; just check the
        // values cover both halves.
        assert!(low_half > 500 && low_half < 4500);
    }

    #[test]
    fn strings_have_requested_lengths() {
        let mut r = rng();
        for _ in 0..100 {
            let s = rand_string(&mut r, 8, 16);
            assert!((8..=16).contains(&s.len()));
        }
        assert_eq!(rand_numeric_string(&mut r, 16).len(), 16);
        assert!(rand_numeric_string(&mut r, 4)
            .chars()
            .all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn last_names_follow_syllable_table() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
        assert_eq!(last_name(12345), "EINGEINGEING", "out of range clamps");
    }

    #[test]
    fn sub_nbr_is_fifteen_digits() {
        assert_eq!(sub_nbr(42), "000000000000042");
        assert_eq!(sub_nbr(42).len(), 15);
    }

    #[test]
    fn amount_in_cents_within_bounds() {
        let mut r = rng();
        for _ in 0..100 {
            let cents = rand_amount_cents(&mut r, 1.0, 5.0);
            assert!((100..=500).contains(&cents));
        }
    }

    #[test]
    fn synthetic_timestamps_are_monotonic() {
        assert!(synthetic_timestamp(10) > synthetic_timestamp(9));
    }
}
