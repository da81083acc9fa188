//! Semantic-consistency validation.
//!
//! The first OLxPBench schema-design principle: "Any record accessible to OLTP
//! should be accessible to OLAP. ... The OLTP schema set should include the
//! OLAP schema." (§IV-A).  A *stitch* schema such as CH-benCHmark's violates
//! this: its analytical queries read SUPPLIER, NATION and REGION — tables no
//! online transaction ever writes — and never touch tables like HISTORY that
//! the transactions do write, hiding the real OLTP/OLAP contention.
//!
//! [`check_semantic_consistency`] takes the set of tables the online
//! transactions write and the set of tables the analytical queries read and
//! reports whether the latter is a subset of the former, plus which OLTP
//! tables the analytical side never examines (the "discarded valuable data").

use crate::workload::Workload;

/// Result of the semantic-consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaConsistencyReport {
    /// Benchmark name.
    pub workload: String,
    /// Tables written by the online transactions.
    pub oltp_tables: Vec<String>,
    /// Tables read by the analytical queries.
    pub olap_tables: Vec<String>,
    /// Tables the analytical queries read that OLTP never writes
    /// (non-empty ⇒ stitch schema).
    pub olap_only_tables: Vec<String>,
    /// OLTP tables never analysed by any analytical query
    /// (valuable operational data the OLAP side discards).
    pub unanalyzed_oltp_tables: Vec<String>,
}

impl SchemaConsistencyReport {
    /// True when the OLAP schema is a subset of the OLTP schema.
    pub fn is_semantically_consistent(&self) -> bool {
        self.olap_only_tables.is_empty()
    }

    /// Fraction of the OLTP tables the analytical queries cover.
    pub fn oltp_coverage(&self) -> f64 {
        if self.oltp_tables.is_empty() {
            return 0.0;
        }
        let covered = self.oltp_tables.len() - self.unanalyzed_oltp_tables.len();
        covered as f64 / self.oltp_tables.len() as f64
    }
}

/// Check semantic consistency of a workload from its declared table sets.
pub fn check_consistency_of_tables(
    workload: &str,
    oltp_tables: &[String],
    olap_tables: &[String],
) -> SchemaConsistencyReport {
    let olap_only = olap_tables
        .iter()
        .filter(|t| !oltp_tables.contains(t))
        .cloned()
        .collect();
    let unanalyzed = oltp_tables
        .iter()
        .filter(|t| !olap_tables.contains(t))
        .cloned()
        .collect();
    SchemaConsistencyReport {
        workload: workload.to_string(),
        oltp_tables: oltp_tables.to_vec(),
        olap_tables: olap_tables.to_vec(),
        olap_only_tables: olap_only,
        unanalyzed_oltp_tables: unanalyzed,
    }
}

/// Check semantic consistency of a [`Workload`] implementation.
pub fn check_semantic_consistency(workload: &dyn Workload) -> SchemaConsistencyReport {
    check_consistency_of_tables(
        workload.name(),
        &workload.oltp_tables(),
        &workload.olap_tables(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_schema_has_no_olap_only_tables() {
        let oltp = vec![
            "ORDERS".to_string(),
            "ORDER_LINE".to_string(),
            "HISTORY".to_string(),
        ];
        let olap = vec!["ORDERS".to_string(), "HISTORY".to_string()];
        let report = check_consistency_of_tables("subenchmark", &oltp, &olap);
        assert!(report.is_semantically_consistent());
        assert_eq!(
            report.unanalyzed_oltp_tables,
            vec!["ORDER_LINE".to_string()]
        );
        assert!((report.oltp_coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stitch_schema_is_flagged() {
        let oltp = vec!["ORDERS".to_string(), "HISTORY".to_string()];
        let olap = vec![
            "ORDERS".to_string(),
            "SUPPLIER".to_string(),
            "NATION".to_string(),
            "REGION".to_string(),
        ];
        let report = check_consistency_of_tables("ch-benchmark", &oltp, &olap);
        assert!(!report.is_semantically_consistent());
        assert_eq!(report.olap_only_tables.len(), 3);
        assert!(report
            .unanalyzed_oltp_tables
            .contains(&"HISTORY".to_string()));
    }

    #[test]
    fn empty_oltp_schema_has_zero_coverage() {
        let report = check_consistency_of_tables("empty", &[], &[]);
        assert_eq!(report.oltp_coverage(), 0.0);
        assert!(report.is_semantically_consistent());
    }
}
