//! Buffer-pool model.
//!
//! The paper attributes a large part of the OLTP/OLAP interference to
//! analytical table scans that "bring a large amount of data into the buffer
//! pool and evict an equivalent amount of older data" (§V-B1).  [`BufferPool`]
//! models exactly that effect without caching real pages: it tracks, per
//! table, how many of the table's pages are currently resident, charges a miss
//! for every requested page that is not, and evicts pages of *other* tables
//! when capacity is exceeded.  The engine turns misses into extra service time
//! through the cost model.

use parking_lot::Mutex;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct Residency {
    /// Pages currently resident per table.  Ordered by name so eviction
    /// breaks ties between equally large tables the same way in every
    /// process: the modelled numbers must repeat exactly.
    tables: BTreeMap<String, u64>,
    /// Sum of all resident pages.
    total: u64,
}

/// A capacity-bounded page residency model shared by all tables of one node.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: u64,
    residency: Mutex<Residency>,
}

/// Result of one access: how many of the requested pages hit and missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Pages found resident.
    pub hits: u64,
    /// Pages that had to be fetched.
    pub misses: u64,
}

impl BufferPool {
    /// Create a pool holding at most `capacity_pages` pages.
    pub fn new(capacity_pages: u64) -> BufferPool {
        BufferPool {
            capacity_pages: capacity_pages.max(1),
            residency: Mutex::new(Residency::default()),
        }
    }

    /// Record an access of `pages` pages of `table` and return the hit/miss
    /// split.  Missing pages become resident, evicting pages of other tables
    /// (largest resident set first, ties by name) when the pool is full.
    pub fn access(&self, table: &str, pages: u64) -> AccessOutcome {
        if pages == 0 {
            return AccessOutcome { hits: 0, misses: 0 };
        }
        let mut residency = self.residency.lock();
        let resident = residency.tables.get(table).copied().unwrap_or(0);
        // A request can never keep more pages resident than the pool holds.
        let target = pages.min(self.capacity_pages);
        let hits = resident.min(target);
        let misses = pages - hits;
        let growth = target.saturating_sub(resident);

        if growth > 0 {
            // Make room by evicting from the largest other tables.
            let mut need = (residency.total + growth).saturating_sub(self.capacity_pages);
            if need > 0 {
                let mut victims: Vec<(String, u64)> = residency
                    .tables
                    .iter()
                    .filter(|(name, _)| name.as_str() != table)
                    .map(|(name, pages)| (name.clone(), *pages))
                    .collect();
                victims.sort_by_key(|v| std::cmp::Reverse(v.1));
                for (victim, victim_pages) in victims {
                    if need == 0 {
                        break;
                    }
                    let take = victim_pages.min(need);
                    if take == victim_pages {
                        residency.tables.remove(&victim);
                    } else if let Some(p) = residency.tables.get_mut(&victim) {
                        *p -= take;
                    }
                    residency.total -= take;
                    need -= take;
                }
                // If other tables could not absorb the pressure, the
                // requesting table thrashes against itself: growth is
                // clamped to the capacity below.
            }
            let current = residency.tables.get(table).copied().unwrap_or(0);
            let new_resident = (current + growth).min(self.capacity_pages);
            residency.total += new_resident - current;
            residency.tables.insert(table.to_string(), new_resident);
        }

        AccessOutcome { hits, misses }
    }

    /// Pages currently resident for a table.
    #[cfg(test)]
    fn resident_pages(&self, table: &str) -> u64 {
        self.residency
            .lock()
            .tables
            .get(table)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_becomes_hits() {
        let pool = BufferPool::new(1000);
        let first = pool.access("ITEM", 100);
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses, 100);
        let second = pool.access("ITEM", 100);
        assert_eq!(second.hits, 100);
        assert_eq!(second.misses, 0);
        assert_eq!(pool.resident_pages("ITEM"), 100);
    }

    #[test]
    fn large_scan_evicts_other_tables() {
        let pool = BufferPool::new(500);
        pool.access("CUSTOMER", 300);
        assert_eq!(pool.resident_pages("CUSTOMER"), 300);
        // An analytical scan of ORDER_LINE floods the pool.
        pool.access("ORDER_LINE", 450);
        assert!(pool.resident_pages("CUSTOMER") < 300);
        // The OLTP table now misses again: interference.
        let outcome = pool.access("CUSTOMER", 300);
        assert!(outcome.misses > 0);
    }

    #[test]
    fn eviction_ties_break_by_name_not_by_touch_order() {
        // Sixteen equally large tables fill two pools, first touched in
        // opposite orders; a scan then needs four of them gone.
        let names: Vec<String> = (0..16).map(|i| format!("T{i:02}")).collect();
        let forward = BufferPool::new(160);
        let backward = BufferPool::new(160);
        for (f, b) in names.iter().zip(names.iter().rev()) {
            forward.access(f, 10);
            backward.access(b, 10);
        }
        let mut outcomes = Vec::new();
        for pool in [&forward, &backward] {
            let mut seen = vec![pool.access("SCAN", 40)];
            for (i, name) in names.iter().enumerate() {
                let expected = if i < 4 { 0 } else { 10 };
                assert_eq!(pool.resident_pages(name), expected, "{name}");
            }
            // Re-reading every table misses exactly on the evicted ones.
            for (i, name) in names.iter().enumerate() {
                let outcome = pool.access(name, 10);
                let misses = if i < 4 { 10 } else { 0 };
                assert_eq!(outcome.misses, misses, "{name}");
                seen.push(outcome);
            }
            outcomes.push(seen);
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn request_larger_than_capacity_is_clamped() {
        let pool = BufferPool::new(100);
        let outcome = pool.access("HUGE", 1_000);
        assert_eq!(outcome.misses, 1_000);
        assert_eq!(pool.resident_pages("HUGE"), 100);
        // total residency never exceeds capacity
        let again = pool.access("HUGE", 1_000);
        assert_eq!(again.hits, 100);
        assert_eq!(again.misses, 900);
    }

    #[test]
    fn zero_page_access_is_a_noop() {
        let pool = BufferPool::new(10);
        let outcome = pool.access("T", 0);
        assert_eq!(outcome, AccessOutcome { hits: 0, misses: 0 });
        assert_eq!(pool.resident_pages("T"), 0);
    }
}
