//! Workload feature descriptions (Table I and Table II of the paper).

/// Quantitative and qualitative features of one benchmark's workloads.
///
/// The quantitative fields reproduce Table II ("Features of the OLxPBench
/// workloads"); the boolean fields reproduce the columns of Table I
/// ("Comparison of OLxPBench with state-of-the-art and state-of-the-practice
/// benchmarks").
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadFeatures {
    /// Benchmark name.
    pub name: String,
    /// Table names in the schema.
    pub table_names: Vec<String>,
    /// Total number of columns across all tables.
    pub columns: usize,
    /// Number of secondary indexes.
    pub indexes: usize,
    /// Number of online (OLTP) transaction templates.
    pub oltp_transactions: usize,
    /// Percentage of the default online mix that is read-only.
    pub read_only_oltp_percent: f64,
    /// Number of analytical query templates.
    pub analytical_queries: usize,
    /// Number of hybrid transaction templates.
    pub hybrid_transactions: usize,
    /// Percentage of the default hybrid mix that is read-only.
    pub read_only_hybrid_percent: f64,
    /// Table-I column: has online transactions.
    pub has_online_transaction: bool,
    /// Table-I column: has analytical queries.
    pub has_analytical_query: bool,
    /// Table-I column: has hybrid transactions.
    pub has_hybrid_transaction: bool,
    /// Table-I column: has real-time queries imitating user behaviour.
    pub has_real_time_query: bool,
    /// Table-I column: OLAP schema is a subset of the OLTP schema.
    pub semantically_consistent_schema: bool,
    /// Table-I column: usable as a general benchmark.
    pub general_benchmark: bool,
    /// Table-I column: models a specific domain.
    pub domain_specific_benchmark: bool,
}

impl WorkloadFeatures {
    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.table_names.len()
    }

    /// One row of Table II as strings, in the paper's column order.
    pub fn table2_row(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            self.tables().to_string(),
            self.columns.to_string(),
            self.indexes.to_string(),
            self.oltp_transactions.to_string(),
            format!("{:.1}%", self.read_only_oltp_percent),
            self.analytical_queries.to_string(),
            self.hybrid_transactions.to_string(),
            format!("{:.1}%", self.read_only_hybrid_percent),
        ]
    }

    /// One row of Table I as strings (check marks / crosses).
    pub fn table1_row(&self) -> Vec<String> {
        let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
        vec![
            self.name.clone(),
            mark(self.has_online_transaction),
            mark(self.has_analytical_query),
            mark(self.has_hybrid_transaction),
            mark(self.has_real_time_query),
            mark(self.semantically_consistent_schema),
            mark(self.general_benchmark),
            mark(self.domain_specific_benchmark),
        ]
    }
}

/// The qualitative comparison of Table I: OLxPBench against the five prior
/// benchmarks discussed in the paper's related work.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkComparison {
    /// One feature row per benchmark.
    pub rows: Vec<WorkloadFeatures>,
}

impl BenchmarkComparison {
    /// Build the comparison table exactly as printed in the paper (Table I),
    /// with OLxPBench described by the features of the provided suites.
    pub fn paper_table1(olxp_suites: &[WorkloadFeatures]) -> BenchmarkComparison {
        let prior = |name: &str,
                     online: bool,
                     analytical: bool,
                     consistent: bool,
                     general: bool,
                     domain: bool| WorkloadFeatures {
            name: name.to_string(),
            table_names: Vec::new(),
            columns: 0,
            indexes: 0,
            oltp_transactions: 0,
            read_only_oltp_percent: 0.0,
            analytical_queries: 0,
            hybrid_transactions: 0,
            read_only_hybrid_percent: 0.0,
            has_online_transaction: online,
            has_analytical_query: analytical,
            has_hybrid_transaction: false,
            has_real_time_query: false,
            semantically_consistent_schema: consistent,
            general_benchmark: general,
            domain_specific_benchmark: domain,
        };
        let mut rows = vec![
            prior("CH-benCHmark", true, true, false, true, false),
            prior("CBTR", true, true, true, false, true),
            prior("HTAPBench", true, true, false, true, false),
            prior("ADAPT", false, false, true, true, false),
            prior("HAP", false, false, true, true, false),
        ];
        // OLxPBench as a whole: the union of its suites.
        let olxp = WorkloadFeatures {
            name: "OLxPBench".to_string(),
            table_names: Vec::new(),
            columns: 0,
            indexes: 0,
            oltp_transactions: olxp_suites.iter().map(|f| f.oltp_transactions).sum(),
            read_only_oltp_percent: 0.0,
            analytical_queries: olxp_suites.iter().map(|f| f.analytical_queries).sum(),
            hybrid_transactions: olxp_suites.iter().map(|f| f.hybrid_transactions).sum(),
            read_only_hybrid_percent: 0.0,
            has_online_transaction: olxp_suites.iter().any(|f| f.has_online_transaction),
            has_analytical_query: olxp_suites.iter().any(|f| f.has_analytical_query),
            has_hybrid_transaction: olxp_suites.iter().any(|f| f.has_hybrid_transaction),
            has_real_time_query: olxp_suites.iter().any(|f| f.has_real_time_query),
            semantically_consistent_schema: olxp_suites
                .iter()
                .all(|f| f.semantically_consistent_schema),
            general_benchmark: olxp_suites.iter().any(|f| f.general_benchmark),
            domain_specific_benchmark: olxp_suites.iter().any(|f| f.domain_specific_benchmark),
        };
        rows.push(olxp);
        BenchmarkComparison { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadFeatures {
        WorkloadFeatures {
            name: "subenchmark".into(),
            table_names: (0..9).map(|i| format!("T{i}")).collect(),
            columns: 92,
            indexes: 3,
            oltp_transactions: 5,
            read_only_oltp_percent: 8.0,
            analytical_queries: 9,
            hybrid_transactions: 5,
            read_only_hybrid_percent: 60.0,
            has_online_transaction: true,
            has_analytical_query: true,
            has_hybrid_transaction: true,
            has_real_time_query: true,
            semantically_consistent_schema: true,
            general_benchmark: true,
            domain_specific_benchmark: false,
        }
    }

    #[test]
    fn table2_row_matches_paper_columns() {
        let row = sample().table2_row();
        assert_eq!(row[0], "subenchmark");
        assert_eq!(row[1], "9");
        assert_eq!(row[2], "92");
        assert_eq!(row[3], "3");
        assert_eq!(row[4], "5");
        assert_eq!(row[5], "8.0%");
        assert_eq!(row[6], "9");
        assert_eq!(row[7], "5");
        assert_eq!(row[8], "60.0%");
    }

    #[test]
    fn table1_comparison_has_six_rows_and_olxp_wins_all_columns() {
        let cmp = BenchmarkComparison::paper_table1(&[sample()]);
        assert_eq!(cmp.rows.len(), 6);
        let olxp = cmp.rows.last().unwrap();
        assert_eq!(olxp.name, "OLxPBench");
        assert!(olxp.has_hybrid_transaction);
        assert!(olxp.has_real_time_query);
        assert!(olxp.semantically_consistent_schema);
        // CH-benCHmark lacks hybrid transactions and a consistent schema.
        let ch = &cmp.rows[0];
        assert!(!ch.has_hybrid_transaction);
        assert!(!ch.semantically_consistent_schema);
        // Only OLxPBench (and CBTR) are domain-specific in the table.
        assert!(cmp.rows[1].domain_specific_benchmark);
        assert!(!cmp.rows[2].domain_specific_benchmark);
    }
}
