//! The fibenchmark: OLxPBench's banking domain-specific benchmark, inspired by
//! SmallBank.
//!
//! Three tables (ACCOUNT, SAVINGS, CHECKING), the six SmallBank online
//! transactions (15 % read-only in the default mix), four analytical queries
//! performing real-time customer-account analytics and six hybrid
//! transactions (20 % read-only) whose real-time queries perform financial
//! analysis of the customer's accounts — e.g. the Checking Balance transaction
//! that "checks whether the cheque balance is sufficient and aggregates the
//! value of the minimum savings" (§IV-B2).

use crate::common::{self, PlannedQuery, RETRIES};
use olxp_engine::{EngineError, EngineResult, HybridDatabase, Session, TxnHandle, WorkClass};
use olxp_query::{col as qcol, lit, AggFunc, AggSpec, JoinKind, QueryBuilder, SortKey};
use olxp_storage::{ColumnDef, DataType, Key, Row, StorageError, TableSchema, Value};
use olxpbench_core::{
    AnalyticalQuery, HybridTransaction, OnlineTransaction, TransactionMix, Workload,
    WorkloadFeatures, WorkloadKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Accounts per scale-factor unit.
pub const ACCOUNTS_PER_SCALE: i64 = 1_000;

/// Column positions.
pub mod col {
    /// ACCOUNT columns.
    pub mod acct {
        pub const CUSTID: usize = 0;
        pub const NAME: usize = 1;
    }
    /// SAVINGS columns.
    pub mod sav {
        pub const CUSTID: usize = 0;
        pub const BAL: usize = 1;
    }
    /// CHECKING columns.
    pub mod chk {
        pub const CUSTID: usize = 0;
        pub const BAL: usize = 1;
    }
}

/// Run-time state shared by the fibenchmark transactions.
#[derive(Debug)]
pub struct FibenchmarkState {
    /// Number of accounts loaded.
    pub accounts: AtomicI64,
}

impl FibenchmarkState {
    fn new() -> Arc<FibenchmarkState> {
        Arc::new(FibenchmarkState {
            accounts: AtomicI64::new(ACCOUNTS_PER_SCALE),
        })
    }

    fn account_count(&self) -> i64 {
        self.accounts.load(Ordering::Relaxed).max(2)
    }

    fn rand_account(&self, rng: &mut StdRng) -> i64 {
        common::uniform(rng, 1, self.account_count())
    }

    fn rand_account_pair(&self, rng: &mut StdRng) -> (i64, i64) {
        let a = self.rand_account(rng);
        let mut b = self.rand_account(rng);
        if b == a {
            b = if a == self.account_count() { 1 } else { a + 1 };
        }
        (a, b)
    }
}

/// The three fibenchmark table schemas.
pub fn schemas() -> Vec<TableSchema> {
    let account = TableSchema::new(
        "ACCOUNT",
        vec![
            ColumnDef::new("custid", DataType::Int, false),
            ColumnDef::new("name", DataType::Str, false),
        ],
        vec!["custid"],
    )
    .expect("static schema")
    .with_index("idx_account_name", vec!["name"], true)
    .expect("static schema")
    .with_index("idx_account_custid_name", vec!["custid", "name"], false)
    .expect("static schema");

    let savings = TableSchema::new(
        "SAVINGS",
        vec![
            ColumnDef::new("custid", DataType::Int, false),
            ColumnDef::new("bal", DataType::Decimal, false),
        ],
        vec!["custid"],
    )
    .expect("static schema")
    .with_index("idx_savings_bal", vec!["bal"], false)
    .expect("static schema")
    .with_foreign_key(vec!["custid"], "ACCOUNT", vec!["custid"])
    .expect("static schema");

    let checking = TableSchema::new(
        "CHECKING",
        vec![
            ColumnDef::new("custid", DataType::Int, false),
            ColumnDef::new("bal", DataType::Decimal, false),
        ],
        vec!["custid"],
    )
    .expect("static schema")
    .with_index("idx_checking_bal", vec!["bal"], false)
    .expect("static schema")
    .with_foreign_key(vec!["custid"], "ACCOUNT", vec!["custid"])
    .expect("static schema");

    vec![account, savings, checking]
}

fn require(row: Option<Row>, table: &str, key: &Key) -> EngineResult<Row> {
    row.ok_or_else(|| {
        EngineError::Storage(StorageError::KeyNotFound {
            table: table.to_string(),
            key: key.to_string(),
        })
    })
}

fn cents(value: &Value) -> i64 {
    match value {
        Value::Decimal(v) => *v,
        other => other.as_int().unwrap_or(0) * 100,
    }
}

fn read_balance(s: &Session, txn: &mut TxnHandle, table: &str, custid: i64) -> EngineResult<Row> {
    let key = Key::int(custid);
    require(s.read(txn, table, &key)?, table, &key)
}

fn adjust_balance(
    s: &Session,
    txn: &mut TxnHandle,
    table: &str,
    custid: i64,
    delta: i64,
) -> EngineResult<i64> {
    let key = Key::int(custid);
    let mut row = require(s.read(txn, table, &key)?, table, &key)?;
    let new_balance = cents(&row[1]) + delta;
    row.set(1, Value::Decimal(new_balance));
    s.update(txn, table, &key, row)?;
    Ok(new_balance)
}

// ---------------------------------------------------------------------------
// Online transactions
// ---------------------------------------------------------------------------

macro_rules! online_txn {
    ($name:ident, $label:literal, $read_only:expr, |$state:ident, $s:ident, $txn:ident, $rng:ident| $body:block) => {
        /// SmallBank-derived online transaction.
        pub struct $name {
            state: Arc<FibenchmarkState>,
        }

        impl $name {
            /// Create the template.
            pub fn new(state: Arc<FibenchmarkState>) -> Self {
                Self { state }
            }
        }

        impl OnlineTransaction for $name {
            fn name(&self) -> &str {
                $label
            }

            fn is_read_only(&self) -> bool {
                $read_only
            }

            fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
                let $state = &self.state;
                let $rng = rng;
                session.run_transaction(WorkClass::Oltp, RETRIES, |$s, $txn| $body)
            }
        }
    };
}

online_txn!(Balance, "Balance", true, |state, s, txn, rng| {
    let custid = state.rand_account(rng);
    let account = read_balance(s, txn, "ACCOUNT", custid)?;
    let savings = read_balance(s, txn, "SAVINGS", custid)?;
    let checking = read_balance(s, txn, "CHECKING", custid)?;
    let _total = cents(&savings[col::sav::BAL]) + cents(&checking[col::chk::BAL]);
    let _ = account;
    Ok(())
});

online_txn!(
    DepositChecking,
    "DepositChecking",
    false,
    |state, s, txn, rng| {
        let custid = state.rand_account(rng);
        let amount = common::rand_amount_cents(rng, 1.0, 100.0);
        let _ = read_balance(s, txn, "ACCOUNT", custid)?;
        adjust_balance(s, txn, "CHECKING", custid, amount)?;
        Ok(())
    }
);

online_txn!(
    TransactSavings,
    "TransactSavings",
    false,
    |state, s, txn, rng| {
        let custid = state.rand_account(rng);
        let amount =
            common::rand_amount_cents(rng, 1.0, 100.0) - common::rand_amount_cents(rng, 0.0, 50.0);
        let _ = read_balance(s, txn, "ACCOUNT", custid)?;
        adjust_balance(s, txn, "SAVINGS", custid, amount)?;
        Ok(())
    }
);

online_txn!(Amalgamate, "Amalgamate", false, |state, s, txn, rng| {
    let (from, to) = state.rand_account_pair(rng);
    let savings = cents(&read_balance(s, txn, "SAVINGS", from)?[col::sav::BAL]);
    let checking = cents(&read_balance(s, txn, "CHECKING", from)?[col::chk::BAL]);
    adjust_balance(s, txn, "SAVINGS", from, -savings)?;
    adjust_balance(s, txn, "CHECKING", from, -checking)?;
    adjust_balance(s, txn, "CHECKING", to, savings + checking)?;
    Ok(())
});

online_txn!(WriteCheck, "WriteCheck", false, |state, s, txn, rng| {
    let custid = state.rand_account(rng);
    let amount = common::rand_amount_cents(rng, 1.0, 500.0);
    let savings = cents(&read_balance(s, txn, "SAVINGS", custid)?[col::sav::BAL]);
    let checking = cents(&read_balance(s, txn, "CHECKING", custid)?[col::chk::BAL]);
    let penalty = if savings + checking < amount { 100 } else { 0 };
    adjust_balance(s, txn, "CHECKING", custid, -(amount + penalty))?;
    Ok(())
});

online_txn!(SendPayment, "SendPayment", false, |state, s, txn, rng| {
    let (from, to) = state.rand_account_pair(rng);
    let amount = common::rand_amount_cents(rng, 1.0, 100.0);
    adjust_balance(s, txn, "CHECKING", from, -amount)?;
    adjust_balance(s, txn, "CHECKING", to, amount)?;
    Ok(())
});

// ---------------------------------------------------------------------------
// Hybrid transactions
// ---------------------------------------------------------------------------

macro_rules! hybrid_txn {
    ($name:ident, $label:literal, $read_only:expr, |$state:ident, $s:ident, $txn:ident, $rng:ident| $body:block) => {
        /// Fibenchmark hybrid transaction.
        pub struct $name {
            state: Arc<FibenchmarkState>,
        }

        impl $name {
            /// Create the template.
            pub fn new(state: Arc<FibenchmarkState>) -> Self {
                Self { state }
            }
        }

        impl HybridTransaction for $name {
            fn name(&self) -> &str {
                $label
            }

            fn is_read_only(&self) -> bool {
                $read_only
            }

            fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
                let $state = &self.state;
                let $rng = rng;
                session.run_transaction(WorkClass::Hybrid, RETRIES, |$s, $txn| $body)
            }
        }
    };
}

hybrid_txn!(
    PaymentWithBalanceTrend,
    "X1-PaymentWithBalanceTrend",
    false,
    |state, s, txn, rng| {
        // Real-time query: average and minimum checking balance across the bank.
        let plan = QueryBuilder::scan("CHECKING")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Avg, col::chk::BAL),
                    AggSpec::new(AggFunc::Min, col::chk::BAL),
                ],
            )
            .build();
        let _trend = s.query_in_txn(txn, &plan)?;
        let (from, to) = state.rand_account_pair(rng);
        let amount = common::rand_amount_cents(rng, 1.0, 100.0);
        adjust_balance(s, txn, "CHECKING", from, -amount)?;
        adjust_balance(s, txn, "CHECKING", to, amount)?;
        Ok(())
    }
);

hybrid_txn!(
    DepositWithFraudScreen,
    "X2-DepositWithFraudScreen",
    false,
    |state, s, txn, rng| {
        let custid = state.rand_account(rng);
        // Real-time query: the customer's maximum balance across both accounts.
        let plan = QueryBuilder::scan_where("SAVINGS", qcol(col::sav::CUSTID).eq(lit(custid)))
            .join(
                QueryBuilder::scan_where("CHECKING", qcol(col::chk::CUSTID).eq(lit(custid))),
                vec![col::sav::CUSTID],
                vec![col::chk::CUSTID],
                JoinKind::Inner,
            )
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Max, col::sav::BAL),
                    AggSpec::new(AggFunc::Max, 2 + col::chk::BAL),
                ],
            )
            .build();
        let _screen = s.query_in_txn(txn, &plan)?;
        let amount = common::rand_amount_cents(rng, 1.0, 100.0);
        adjust_balance(s, txn, "CHECKING", custid, amount)?;
        Ok(())
    }
);

hybrid_txn!(
    AmalgamateWithExposure,
    "X3-AmalgamateWithExposure",
    false,
    |state, s, txn, rng| {
        // Real-time query: total funds currently held in savings.
        let plan = QueryBuilder::scan("SAVINGS")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Sum, col::sav::BAL),
                    AggSpec::new(AggFunc::Count, col::sav::CUSTID),
                ],
            )
            .build();
        let _exposure = s.query_in_txn(txn, &plan)?;
        let (from, to) = state.rand_account_pair(rng);
        let savings = cents(&read_balance(s, txn, "SAVINGS", from)?[col::sav::BAL]);
        adjust_balance(s, txn, "SAVINGS", from, -savings)?;
        adjust_balance(s, txn, "CHECKING", to, savings)?;
        Ok(())
    }
);

hybrid_txn!(
    CheckingBalanceMinSavings,
    "X4-CheckingBalanceMinSavings",
    false,
    |state, s, txn, rng| {
        // The paper's X6: "checks whether the cheque balance is sufficient and
        // aggregates the value of the minimum savings".
        let plan = QueryBuilder::scan("SAVINGS")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Min, col::sav::BAL),
                    AggSpec::new(AggFunc::Avg, col::sav::BAL),
                ],
            )
            .build();
        let _min_savings = s.query_in_txn(txn, &plan)?;
        let custid = state.rand_account(rng);
        let amount = common::rand_amount_cents(rng, 1.0, 500.0);
        let checking = cents(&read_balance(s, txn, "CHECKING", custid)?[col::chk::BAL]);
        let penalty = if checking < amount { 100 } else { 0 };
        adjust_balance(s, txn, "CHECKING", custid, -(amount + penalty))?;
        Ok(())
    }
);

hybrid_txn!(
    SavingsRateAdjustment,
    "X5-SavingsRateAdjustment",
    false,
    |state, s, txn, rng| {
        // Real-time query: distribution of savings balances (volatility of
        // extreme values, §IV-B2).
        let plan = QueryBuilder::scan("SAVINGS")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Max, col::sav::BAL),
                    AggSpec::new(AggFunc::Min, col::sav::BAL),
                    AggSpec::new(AggFunc::Avg, col::sav::BAL),
                ],
            )
            .build();
        let _volatility = s.query_in_txn(txn, &plan)?;
        let custid = state.rand_account(rng);
        let amount = common::rand_amount_cents(rng, 0.0, 25.0);
        adjust_balance(s, txn, "SAVINGS", custid, amount)?;
        Ok(())
    }
);

hybrid_txn!(
    BalanceWithBankPosition,
    "X6-BalanceWithBankPosition",
    true,
    |state, s, txn, rng| {
        // Real-time query: the bank-wide checking position.
        let plan = QueryBuilder::scan("CHECKING")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Sum, col::chk::BAL),
                    AggSpec::new(AggFunc::Avg, col::chk::BAL),
                ],
            )
            .build();
        let _position = s.query_in_txn(txn, &plan)?;
        let custid = state.rand_account(rng);
        let _savings = read_balance(s, txn, "SAVINGS", custid)?;
        let _checking = read_balance(s, txn, "CHECKING", custid)?;
        Ok(())
    }
);

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The fibenchmark workload.
pub struct Fibenchmark {
    state: Arc<FibenchmarkState>,
}

impl Fibenchmark {
    /// Create the workload.
    pub fn new() -> Fibenchmark {
        Fibenchmark {
            state: FibenchmarkState::new(),
        }
    }
}

impl Default for Fibenchmark {
    fn default() -> Self {
        Fibenchmark::new()
    }
}

impl Workload for Fibenchmark {
    fn name(&self) -> &str {
        "fibenchmark"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::DomainSpecific
    }

    fn create_schema(&self, db: &Arc<HybridDatabase>) -> EngineResult<()> {
        for schema in schemas() {
            db.create_table(schema)?;
        }
        Ok(())
    }

    fn load(&self, db: &Arc<HybridDatabase>, scale_factor: u32, seed: u64) -> EngineResult<()> {
        let accounts = i64::from(scale_factor.max(1)) * ACCOUNTS_PER_SCALE;
        self.state.accounts.store(accounts, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(seed);
        for custid in 1..=accounts {
            db.load_row(
                "ACCOUNT",
                Row::new(vec![
                    Value::Int(custid),
                    Value::Str(format!("customer-{custid:08}")),
                ]),
            )?;
            db.load_row(
                "SAVINGS",
                Row::new(vec![
                    Value::Int(custid),
                    Value::Decimal(common::rand_amount_cents(&mut rng, 100.0, 10_000.0)),
                ]),
            )?;
            db.load_row(
                "CHECKING",
                Row::new(vec![
                    Value::Int(custid),
                    Value::Decimal(common::rand_amount_cents(&mut rng, 10.0, 5_000.0)),
                ]),
            )?;
        }
        Ok(())
    }

    fn online_transactions(&self) -> Vec<Arc<dyn OnlineTransaction>> {
        vec![
            Arc::new(Balance::new(Arc::clone(&self.state))),
            Arc::new(DepositChecking::new(Arc::clone(&self.state))),
            Arc::new(TransactSavings::new(Arc::clone(&self.state))),
            Arc::new(Amalgamate::new(Arc::clone(&self.state))),
            Arc::new(WriteCheck::new(Arc::clone(&self.state))),
            Arc::new(SendPayment::new(Arc::clone(&self.state))),
        ]
    }

    fn analytical_queries(&self) -> Vec<Arc<dyn AnalyticalQuery>> {
        vec![
            Arc::new(PlannedQuery::new(
                "Q1-AccountNameQuery",
                vec!["ACCOUNT", "CHECKING"],
                |_rng| {
                    // "lists the name in the combining row from ACCOUNT and
                    // CHECKING tables" (§IV-B2).
                    QueryBuilder::scan("ACCOUNT")
                        .join(
                            QueryBuilder::scan("CHECKING"),
                            vec![col::acct::CUSTID],
                            vec![col::chk::CUSTID],
                            JoinKind::Inner,
                        )
                        .sort(vec![SortKey::desc(2 + col::chk::BAL)])
                        .limit(100)
                        .project(vec![qcol(col::acct::NAME), qcol(2 + col::chk::BAL)])
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q2-WealthDistribution",
                vec!["SAVINGS", "CHECKING"],
                |_rng| {
                    QueryBuilder::scan("SAVINGS")
                        .join(
                            QueryBuilder::scan("CHECKING"),
                            vec![col::sav::CUSTID],
                            vec![col::chk::CUSTID],
                            JoinKind::Inner,
                        )
                        .project(vec![
                            qcol(col::sav::CUSTID),
                            qcol(col::sav::BAL).add(qcol(2 + col::chk::BAL)),
                        ])
                        .aggregate(
                            vec![],
                            vec![
                                AggSpec::new(AggFunc::Avg, 1),
                                AggSpec::new(AggFunc::Max, 1),
                                AggSpec::new(AggFunc::Min, 1),
                                AggSpec::new(AggFunc::Count, 0),
                            ],
                        )
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q3-TopSavers",
                vec!["SAVINGS", "ACCOUNT"],
                |_rng| {
                    QueryBuilder::scan("SAVINGS")
                        .join(
                            QueryBuilder::scan("ACCOUNT"),
                            vec![col::sav::CUSTID],
                            vec![col::acct::CUSTID],
                            JoinKind::Inner,
                        )
                        .sort(vec![SortKey::desc(col::sav::BAL)])
                        .limit(10)
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q4-OverdrawnAccounts",
                vec!["CHECKING", "ACCOUNT"],
                |rng| {
                    let threshold = common::uniform(rng, 0, 100);
                    QueryBuilder::scan_where("CHECKING", qcol(col::chk::BAL).lt(lit(threshold)))
                        .join(
                            QueryBuilder::scan("ACCOUNT"),
                            vec![col::chk::CUSTID],
                            vec![col::acct::CUSTID],
                            JoinKind::Inner,
                        )
                        .aggregate(
                            vec![],
                            vec![
                                AggSpec::new(AggFunc::Count, col::chk::CUSTID),
                                AggSpec::new(AggFunc::Avg, col::chk::BAL),
                            ],
                        )
                        .build()
                },
            )),
        ]
    }

    fn hybrid_transactions(&self) -> Vec<Arc<dyn HybridTransaction>> {
        vec![
            Arc::new(PaymentWithBalanceTrend::new(Arc::clone(&self.state))),
            Arc::new(DepositWithFraudScreen::new(Arc::clone(&self.state))),
            Arc::new(AmalgamateWithExposure::new(Arc::clone(&self.state))),
            Arc::new(CheckingBalanceMinSavings::new(Arc::clone(&self.state))),
            Arc::new(SavingsRateAdjustment::new(Arc::clone(&self.state))),
            Arc::new(BalanceWithBankPosition::new(Arc::clone(&self.state))),
        ]
    }

    fn default_online_mix(&self) -> TransactionMix {
        // 15 % read-only (Balance).
        TransactionMix::new(vec![
            ("Balance", 15),
            ("DepositChecking", 15),
            ("TransactSavings", 15),
            ("Amalgamate", 15),
            ("WriteCheck", 25),
            ("SendPayment", 15),
        ])
    }

    fn default_hybrid_mix(&self) -> TransactionMix {
        // 20 % read-only (X6).
        TransactionMix::new(vec![
            ("X1-PaymentWithBalanceTrend", 16),
            ("X2-DepositWithFraudScreen", 16),
            ("X3-AmalgamateWithExposure", 16),
            ("X4-CheckingBalanceMinSavings", 16),
            ("X5-SavingsRateAdjustment", 16),
            ("X6-BalanceWithBankPosition", 20),
        ])
    }

    fn features(&self) -> WorkloadFeatures {
        let schemas = schemas();
        WorkloadFeatures {
            name: self.name().to_string(),
            table_names: schemas.iter().map(|s| s.name().to_string()).collect(),
            columns: schemas.iter().map(|s| s.column_count()).sum(),
            indexes: schemas.iter().map(|s| s.indexes().len()).sum(),
            oltp_transactions: 6,
            read_only_oltp_percent: 15.0,
            analytical_queries: 4,
            hybrid_transactions: 6,
            read_only_hybrid_percent: 20.0,
            has_online_transaction: true,
            has_analytical_query: true,
            has_hybrid_transaction: true,
            has_real_time_query: true,
            semantically_consistent_schema: true,
            general_benchmark: false,
            domain_specific_benchmark: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_engine::EngineConfig;
    use olxpbench_core::check_semantic_consistency;

    fn loaded_db() -> (Arc<HybridDatabase>, Fibenchmark) {
        let db = HybridDatabase::new(EngineConfig::single_engine().with_time_scale(0.0)).unwrap();
        let workload = Fibenchmark::new();
        workload.create_schema(&db).unwrap();
        workload.load(&db, 1, 3).unwrap();
        db.finish_load().unwrap();
        (db, workload)
    }

    #[test]
    fn features_match_table2() {
        let features = Fibenchmark::new().features();
        assert_eq!(features.tables(), 3);
        assert_eq!(features.columns, 6);
        assert_eq!(features.indexes, 4);
        assert_eq!(features.oltp_transactions, 6);
        assert_eq!(features.analytical_queries, 4);
        assert_eq!(features.hybrid_transactions, 6);
    }

    #[test]
    fn schema_is_semantically_consistent() {
        let report = check_semantic_consistency(&Fibenchmark::new());
        assert!(report.is_semantically_consistent());
    }

    #[test]
    fn read_only_shares_match_paper() {
        let w = Fibenchmark::new();
        let online_mix = w.default_online_mix();
        let online_ro: u32 = w
            .online_transactions()
            .iter()
            .filter(|t| t.is_read_only())
            .map(|t| online_mix.weight_of(t.name()))
            .sum();
        assert_eq!(online_ro * 100 / online_mix.total_weight(), 15);

        let hybrid_mix = w.default_hybrid_mix();
        let hybrid_ro: u32 = w
            .hybrid_transactions()
            .iter()
            .filter(|t| t.is_read_only())
            .map(|t| hybrid_mix.weight_of(t.name()))
            .sum();
        assert_eq!(hybrid_ro * 100 / hybrid_mix.total_weight(), 20);
    }

    #[test]
    fn all_transactions_and_queries_execute() {
        let (db, workload) = loaded_db();
        let session = db.session();
        let mut rng = StdRng::seed_from_u64(23);
        for txn in workload.online_transactions() {
            txn.execute(&session, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", txn.name()));
        }
        for query in workload.analytical_queries() {
            query
                .execute(&session, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", query.name()));
        }
        for hybrid in workload.hybrid_transactions() {
            hybrid
                .execute(&session, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", hybrid.name()));
        }
        assert!(db.metrics_snapshot().commits >= 12);
    }

    #[test]
    fn amalgamate_preserves_total_funds() {
        let (db, workload) = loaded_db();
        let session = db.session();
        let mut rng = StdRng::seed_from_u64(29);
        let total_before = bank_total(&db);
        let amalgamate = &workload.online_transactions()[3];
        assert_eq!(amalgamate.name(), "Amalgamate");
        amalgamate.execute(&session, &mut rng).unwrap();
        let total_after = bank_total(&db);
        assert_eq!(total_before, total_after);
    }

    fn bank_total(db: &Arc<HybridDatabase>) -> i64 {
        let ts = db.txn_manager().oracle().read_ts();
        let mut total = 0i64;
        for table in ["SAVINGS", "CHECKING"] {
            db.scan_table(table, ts, |_, row| total += cents(&row[1]))
                .unwrap();
        }
        total
    }
}
