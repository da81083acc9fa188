//! Subenchmark analytical queries (Q1–Q9) and hybrid transactions (X1–X5).
//!
//! The analytical queries "perform multi-join, aggregation, grouping, and
//! sorting operations on a semantically consistent schema" (§IV-B1) — note
//! that, unlike CH-benCHmark, they analyse HISTORY, WAREHOUSE and DISTRICT.
//! The hybrid transactions embed the real-time queries distilled from a
//! production e-commerce service: most prominently X1, which finds the lowest
//! price of the item *before* creating the new order.

use super::oltp::{
    as_int, new_order_statements, order_status_statements, payment_statements,
    stock_level_statements, SubenchmarkState,
};
use super::schema::{col, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, ITEM_COUNT};
use crate::common::{self, PlannedQuery, RETRIES};
use olxp_engine::{EngineResult, Session, WorkClass};
use olxp_query::{col as qcol, lit, AggFunc, AggSpec, JoinKind, QueryBuilder, SortKey};
use olxp_storage::{Key, Value};
use olxpbench_core::{AnalyticalQuery, HybridTransaction};
use rand::rngs::StdRng;
use std::sync::Arc;

/// The nine subenchmark analytical queries.
pub fn analytical_queries() -> Vec<Arc<dyn AnalyticalQuery>> {
    vec![
        Arc::new(PlannedQuery::new(
            "Q1-OrdersAnalyticalReport",
            vec!["ORDER_LINE"],
            |_rng| {
                // Quantity/amount magnitude summary per line number, ascending.
                QueryBuilder::scan("ORDER_LINE")
                    .aggregate(
                        vec![col::ol::NUMBER],
                        vec![
                            AggSpec::new(AggFunc::Sum, col::ol::QUANTITY),
                            AggSpec::new(AggFunc::Sum, col::ol::AMOUNT),
                            AggSpec::new(AggFunc::Avg, col::ol::QUANTITY),
                            AggSpec::new(AggFunc::Avg, col::ol::AMOUNT),
                            AggSpec::new(AggFunc::Count, col::ol::O_ID),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q2-CustomerPaymentHistory",
            vec!["HISTORY", "CUSTOMER"],
            |_rng| {
                QueryBuilder::scan("HISTORY")
                    .join(
                        QueryBuilder::scan("CUSTOMER"),
                        vec![col::h::C_W_ID, col::h::C_D_ID, col::h::C_ID],
                        vec![col::c::W_ID, col::c::D_ID, col::c::ID],
                        JoinKind::Inner,
                    )
                    .aggregate(
                        vec![col::h::C_W_ID],
                        vec![
                            AggSpec::new(AggFunc::Sum, col::h::AMOUNT),
                            AggSpec::new(AggFunc::Avg, col::h::AMOUNT),
                            AggSpec::new(AggFunc::Count, col::h::ID),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q3-WarehouseRevenue",
            vec!["WAREHOUSE", "DISTRICT"],
            |_rng| {
                let warehouse_width = 9;
                QueryBuilder::scan("WAREHOUSE")
                    .join(
                        QueryBuilder::scan("DISTRICT"),
                        vec![col::w::ID],
                        vec![col::d::W_ID],
                        JoinKind::Inner,
                    )
                    .aggregate(
                        vec![col::w::ID],
                        vec![
                            AggSpec::new(AggFunc::Sum, warehouse_width + col::d::YTD),
                            AggSpec::new(AggFunc::Max, warehouse_width + col::d::YTD),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q4-OrdersPerCustomer",
            vec!["ORDERS"],
            |_rng| {
                QueryBuilder::scan("ORDERS")
                    .aggregate(
                        vec![col::o::C_ID],
                        vec![AggSpec::new(AggFunc::Count, col::o::ID)],
                    )
                    .sort(vec![SortKey::desc(1)])
                    .limit(10)
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q5-LowStockByWarehouse",
            vec!["STOCK"],
            |rng| {
                let threshold = common::uniform(rng, 20, 40);
                QueryBuilder::scan_where("STOCK", qcol(col::s::QUANTITY).lt(lit(threshold)))
                    .aggregate(
                        vec![col::s::W_ID],
                        vec![
                            AggSpec::new(AggFunc::Count, col::s::I_ID),
                            AggSpec::new(AggFunc::Avg, col::s::QUANTITY),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q6-ItemPopularity",
            vec!["ORDER_LINE", "ITEM"],
            |_rng| {
                let ol_width = 10;
                QueryBuilder::scan("ORDER_LINE")
                    .join(
                        QueryBuilder::scan("ITEM"),
                        vec![col::ol::I_ID],
                        vec![col::i::ID],
                        JoinKind::Inner,
                    )
                    .aggregate(
                        vec![ol_width + col::i::ID],
                        vec![
                            AggSpec::new(AggFunc::Sum, col::ol::QUANTITY),
                            AggSpec::new(AggFunc::Sum, col::ol::AMOUNT),
                        ],
                    )
                    .sort(vec![SortKey::desc(1)])
                    .limit(10)
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q7-DistrictBacklog",
            vec!["NEW_ORDER"],
            |_rng| {
                QueryBuilder::scan("NEW_ORDER")
                    .aggregate(
                        vec![col::no::W_ID, col::no::D_ID],
                        vec![AggSpec::new(AggFunc::Count, col::no::O_ID)],
                    )
                    .sort(vec![SortKey::asc(0), SortKey::asc(1)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q8-CustomerBalanceDistribution",
            vec!["CUSTOMER"],
            |_rng| {
                QueryBuilder::scan("CUSTOMER")
                    .aggregate(
                        vec![col::c::W_ID],
                        vec![
                            AggSpec::new(AggFunc::Avg, col::c::BALANCE),
                            AggSpec::new(AggFunc::Min, col::c::BALANCE),
                            AggSpec::new(AggFunc::Max, col::c::BALANCE),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
        Arc::new(PlannedQuery::new(
            "Q9-DeliveriesByCarrier",
            vec!["ORDERS"],
            |_rng| {
                QueryBuilder::scan_where("ORDERS", qcol(col::o::CARRIER_ID).is_null().not())
                    .aggregate(
                        vec![col::o::CARRIER_ID],
                        vec![
                            AggSpec::new(AggFunc::Count, col::o::ID),
                            AggSpec::new(AggFunc::Avg, col::o::OL_CNT),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
            },
        )),
    ]
}

// ---------------------------------------------------------------------------
// Hybrid transactions
// ---------------------------------------------------------------------------

/// X1 — create a new order, but first consult the real-time lowest price of
/// the item's category ("a query to get the lowest price rather than the
/// random price of the item", §IV-B1).  Write transaction.
pub struct NewOrderBestPrice {
    state: Arc<SubenchmarkState>,
}

/// X2 — make a payment after checking the customer's real-time average
/// payment amount from HISTORY.  Write transaction.
pub struct PaymentSpendingCheck {
    state: Arc<SubenchmarkState>,
}

/// X3 — order status consultation preceded by the district's real-time
/// average order-line amount.  Read-only.
pub struct OrderStatusDistrictTrend {
    state: Arc<SubenchmarkState>,
}

/// X4 — stock-level check preceded by the real-time average stock quantity
/// across the cluster.  Read-only.
pub struct StockLevelGlobalView {
    state: Arc<SubenchmarkState>,
}

/// X5 — browse the real-time best-selling items and read their catalogue
/// entries.  Read-only.
pub struct BrowseBestSellers {
    state: Arc<SubenchmarkState>,
}

impl NewOrderBestPrice {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Self {
        Self { state }
    }
}
impl PaymentSpendingCheck {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Self {
        Self { state }
    }
}
impl OrderStatusDistrictTrend {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Self {
        Self { state }
    }
}
impl StockLevelGlobalView {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Self {
        Self { state }
    }
}
impl BrowseBestSellers {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Self {
        Self { state }
    }
}

impl HybridTransaction for NewOrderBestPrice {
    fn name(&self) -> &str {
        "X1-NewOrderBestPrice"
    }

    fn is_read_only(&self) -> bool {
        false
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        let ol_cnt = common::uniform(rng, 5, 15);
        let category = common::uniform(rng, 1, 100);
        let items: Vec<(i64, i64)> = (0..ol_cnt)
            .map(|_| {
                (
                    common::nurand(rng, 8191, 1, ITEM_COUNT),
                    common::uniform(rng, 1, 10),
                )
            })
            .collect();
        session.run_transaction(WorkClass::Hybrid, RETRIES, |s, txn| {
            // Real-time query: the lowest price in the item's category.
            let plan = QueryBuilder::scan_where("ITEM", qcol(col::i::IM_ID).eq(lit(category)))
                .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, col::i::PRICE)])
                .build();
            let _lowest = s.query_in_txn(txn, &plan)?;
            // ...then the online transaction.
            new_order_statements(s, txn, w_id, d_id, c_id, &items)
        })
    }
}

impl HybridTransaction for PaymentSpendingCheck {
    fn name(&self) -> &str {
        "X2-PaymentSpendingCheck"
    }

    fn is_read_only(&self) -> bool {
        false
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        let amount = common::rand_amount_cents(rng, 1.0, 5_000.0);
        let h_id = self.state.next_history();
        session.run_transaction(WorkClass::Hybrid, RETRIES, |s, txn| {
            // Real-time query: the customer's historical average payment.
            let plan = QueryBuilder::scan_where(
                "HISTORY",
                qcol(col::h::C_W_ID)
                    .eq(lit(w_id))
                    .and(qcol(col::h::C_D_ID).eq(lit(d_id)))
                    .and(qcol(col::h::C_ID).eq(lit(c_id))),
            )
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Avg, col::h::AMOUNT),
                    AggSpec::new(AggFunc::Count, col::h::ID),
                ],
            )
            .build();
            let _spending = s.query_in_txn(txn, &plan)?;
            payment_statements(s, txn, w_id, d_id, c_id, 0, "", amount, h_id)
        })
    }
}

impl HybridTransaction for OrderStatusDistrictTrend {
    fn name(&self) -> &str {
        "X3-OrderStatusDistrictTrend"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        session.run_transaction(WorkClass::Hybrid, RETRIES, |s, txn| {
            let plan = QueryBuilder::scan_where(
                "ORDER_LINE",
                qcol(col::ol::W_ID)
                    .eq(lit(w_id))
                    .and(qcol(col::ol::D_ID).eq(lit(d_id))),
            )
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Avg, col::ol::AMOUNT),
                    AggSpec::new(AggFunc::Max, col::ol::AMOUNT),
                ],
            )
            .build();
            let _trend = s.query_in_txn(txn, &plan)?;
            order_status_statements(s, txn, w_id, d_id, c_id, 0, "")
        })
    }
}

impl HybridTransaction for StockLevelGlobalView {
    fn name(&self) -> &str {
        "X4-StockLevelGlobalView"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let threshold = common::uniform(rng, 10, 20);
        session.run_transaction(WorkClass::Hybrid, RETRIES, |s, txn| {
            let plan = QueryBuilder::scan("STOCK")
                .aggregate(
                    vec![],
                    vec![
                        AggSpec::new(AggFunc::Avg, col::s::QUANTITY),
                        AggSpec::new(AggFunc::Min, col::s::QUANTITY),
                    ],
                )
                .build();
            let _global = s.query_in_txn(txn, &plan)?;
            stock_level_statements(s, txn, w_id, d_id, threshold)
        })
    }
}

impl HybridTransaction for BrowseBestSellers {
    fn name(&self) -> &str {
        "X5-BrowseBestSellers"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let _ = self.state.warehouse_count();
        let top_n = common::uniform(rng, 3, 8) as usize;
        session.run_transaction(WorkClass::Hybrid, RETRIES, |s, txn| {
            let plan = QueryBuilder::scan("ORDER_LINE")
                .aggregate(
                    vec![col::ol::I_ID],
                    vec![AggSpec::new(AggFunc::Sum, col::ol::QUANTITY)],
                )
                .sort(vec![SortKey::desc(1)])
                .limit(top_n)
                .build();
            let best_sellers = s.query_in_txn(txn, &plan)?;
            for row in &best_sellers.rows {
                let i_id = as_int(&row[0]);
                let _item = s.read(txn, "ITEM", &Key::int(i_id))?;
            }
            let _ = Value::Int(0);
            Ok(())
        })
    }
}

/// The five subenchmark hybrid transactions.
pub fn hybrid_transactions(state: &Arc<SubenchmarkState>) -> Vec<Arc<dyn HybridTransaction>> {
    vec![
        Arc::new(NewOrderBestPrice::new(Arc::clone(state))),
        Arc::new(PaymentSpendingCheck::new(Arc::clone(state))),
        Arc::new(OrderStatusDistrictTrend::new(Arc::clone(state))),
        Arc::new(StockLevelGlobalView::new(Arc::clone(state))),
        Arc::new(BrowseBestSellers::new(Arc::clone(state))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nine_queries_with_consistent_tables() {
        let queries = analytical_queries();
        assert_eq!(queries.len(), 9);
        let mut rng = StdRng::seed_from_u64(5);
        for q in &queries {
            let plan = q.plan(&mut rng);
            let declared = q.tables();
            for table in plan.referenced_tables() {
                assert!(
                    declared.contains(&table),
                    "query {} references undeclared table {table}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn hybrid_mix_is_sixty_percent_read_only() {
        let state = SubenchmarkState::new();
        let hybrids = hybrid_transactions(&state);
        assert_eq!(hybrids.len(), 5);
        let read_only = hybrids.iter().filter(|h| h.is_read_only()).count();
        assert_eq!(
            read_only, 3,
            "3 of 5 hybrid transactions are read-only (60%)"
        );
    }
}
