//! Subenchmark online transactions — the five TPC-C transactions.

use super::schema::{col, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, ITEM_COUNT};
use crate::common::{self, RETRIES};
use olxp_engine::{EngineError, EngineResult, Session, TxnHandle, WorkClass};
use olxp_storage::{Key, Row, StorageError, Value};
use olxpbench_core::OnlineTransaction;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Fetch a row or fail with `KeyNotFound` — loaders guarantee these rows
/// exist, so absence indicates a workload bug.
pub(crate) fn require(row: Option<Row>, table: &str, key: &Key) -> EngineResult<Row> {
    row.ok_or_else(|| {
        EngineError::Storage(StorageError::KeyNotFound {
            table: table.to_string(),
            key: key.to_string(),
        })
    })
}

pub(crate) fn as_int(value: &Value) -> i64 {
    value.as_int().unwrap_or(0)
}

pub(crate) fn as_cents(value: &Value) -> i64 {
    match value {
        Value::Decimal(v) => *v,
        other => other.as_int().unwrap_or(0) * 100,
    }
}

/// Shared run-time parameters of the subenchmark transactions.
#[derive(Debug)]
pub struct SubenchmarkState {
    /// Number of warehouses loaded (set by the loader).
    pub warehouses: AtomicI64,
    /// Next surrogate HISTORY primary key.
    pub next_history_id: AtomicI64,
}

impl SubenchmarkState {
    /// Create state for a default two-warehouse run.
    pub fn new() -> Arc<SubenchmarkState> {
        Arc::new(SubenchmarkState {
            warehouses: AtomicI64::new(2),
            next_history_id: AtomicI64::new(10_000_000),
        })
    }

    pub(crate) fn warehouse_count(&self) -> i64 {
        self.warehouses.load(Ordering::Relaxed).max(1)
    }

    pub(crate) fn rand_warehouse(&self, rng: &mut StdRng) -> i64 {
        common::uniform(rng, 1, self.warehouse_count())
    }

    pub(crate) fn next_history(&self) -> i64 {
        self.next_history_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Look up a customer either by primary key (60 %) or by last name (40 %),
/// mirroring TPC-C's Payment/Order-Status customer selection.
pub(crate) fn select_customer(
    session: &Session,
    txn: &mut TxnHandle,
    rng_choice: i64,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    last_name: &str,
) -> EngineResult<Row> {
    if rng_choice < 60 {
        let key = Key::ints(&[w_id, d_id, c_id]);
        require(session.read(txn, "CUSTOMER", &key)?, "CUSTOMER", &key)
    } else {
        let mut rows = session.select_eq(
            txn,
            "CUSTOMER",
            &["c_w_id", "c_d_id", "c_last"],
            &[
                Value::Int(w_id),
                Value::Int(d_id),
                Value::Str(last_name.to_string()),
            ],
        )?;
        if rows.is_empty() {
            // Fall back to the primary-key customer (the generated last names
            // cover only part of the name space).
            let key = Key::ints(&[w_id, d_id, c_id]);
            return require(session.read(txn, "CUSTOMER", &key)?, "CUSTOMER", &key);
        }
        rows.sort_by(|a, b| a[col::c::FIRST].cmp(&b[col::c::FIRST]));
        Ok(rows.swap_remove(rows.len() / 2))
    }
}

// ---------------------------------------------------------------------------
// NewOrder
// ---------------------------------------------------------------------------

/// The TPC-C NewOrder transaction.
pub struct NewOrder {
    state: Arc<SubenchmarkState>,
}

impl NewOrder {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> NewOrder {
        NewOrder { state }
    }
}

impl OnlineTransaction for NewOrder {
    fn name(&self) -> &str {
        "NewOrder"
    }

    fn is_read_only(&self) -> bool {
        false
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        let ol_cnt = common::uniform(rng, 5, 15);
        let items: Vec<(i64, i64)> = (0..ol_cnt)
            .map(|_| {
                (
                    common::nurand(rng, 8191, 1, ITEM_COUNT),
                    common::uniform(rng, 1, 10),
                )
            })
            .collect();
        new_order_body(session, &self.state, w_id, d_id, c_id, &items)
    }
}

/// The body of NewOrder, shared with the hybrid transaction X1.
pub(crate) fn new_order_body(
    session: &Session,
    _state: &SubenchmarkState,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    items: &[(i64, i64)],
) -> EngineResult<()> {
    session.run_transaction(WorkClass::Oltp, RETRIES, |s, txn| {
        new_order_statements(s, txn, w_id, d_id, c_id, items)
    })
}

/// The NewOrder statement sequence, reusable inside hybrid transactions.
pub(crate) fn new_order_statements(
    s: &Session,
    txn: &mut TxnHandle,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    items: &[(i64, i64)],
) -> EngineResult<()> {
    let w_key = Key::int(w_id);
    let warehouse = require(s.read(txn, "WAREHOUSE", &w_key)?, "WAREHOUSE", &w_key)?;
    let _w_tax = as_cents(&warehouse[col::w::TAX]);

    let d_key = Key::ints(&[w_id, d_id]);
    let mut district = require(s.read(txn, "DISTRICT", &d_key)?, "DISTRICT", &d_key)?;
    let o_id = as_int(&district[col::d::NEXT_O_ID]);
    district.set(col::d::NEXT_O_ID, Value::Int(o_id + 1));
    s.update(txn, "DISTRICT", &d_key, district)?;

    let c_key = Key::ints(&[w_id, d_id, c_id]);
    let _customer = require(s.read(txn, "CUSTOMER", &c_key)?, "CUSTOMER", &c_key)?;

    s.insert(
        txn,
        "ORDERS",
        Row::new(vec![
            Value::Int(o_id),
            Value::Int(d_id),
            Value::Int(w_id),
            Value::Int(c_id),
            Value::Timestamp(common::synthetic_timestamp(o_id)),
            Value::Null,
            Value::Int(items.len() as i64),
            Value::Int(1),
        ]),
    )?;
    s.insert(
        txn,
        "NEW_ORDER",
        Row::new(vec![Value::Int(o_id), Value::Int(d_id), Value::Int(w_id)]),
    )?;

    for (number, (i_id, quantity)) in items.iter().enumerate() {
        let i_key = Key::int(*i_id);
        let item = require(s.read(txn, "ITEM", &i_key)?, "ITEM", &i_key)?;
        let price = as_cents(&item[col::i::PRICE]);

        let s_key = Key::ints(&[w_id, *i_id]);
        let mut stock = require(s.read(txn, "STOCK", &s_key)?, "STOCK", &s_key)?;
        let on_hand = as_int(&stock[col::s::QUANTITY]);
        let new_quantity = if on_hand >= quantity + 10 {
            on_hand - quantity
        } else {
            on_hand - quantity + 91
        };
        stock.set(col::s::QUANTITY, Value::Int(new_quantity));
        stock.set(
            col::s::YTD,
            Value::Decimal(as_cents(&stock[col::s::YTD]) + quantity * 100),
        );
        stock.set(
            col::s::ORDER_CNT,
            Value::Int(as_int(&stock[col::s::ORDER_CNT]) + 1),
        );
        s.update(txn, "STOCK", &s_key, stock)?;

        s.insert(
            txn,
            "ORDER_LINE",
            Row::new(vec![
                Value::Int(o_id),
                Value::Int(d_id),
                Value::Int(w_id),
                Value::Int(number as i64 + 1),
                Value::Int(*i_id),
                Value::Int(w_id),
                Value::Null,
                Value::Int(*quantity),
                Value::Decimal(price * quantity),
                Value::Str(format!("dist-{d_id:02}")),
            ]),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Payment
// ---------------------------------------------------------------------------

/// The TPC-C Payment transaction.
pub struct Payment {
    state: Arc<SubenchmarkState>,
}

impl Payment {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Payment {
        Payment { state }
    }
}

impl OnlineTransaction for Payment {
    fn name(&self) -> &str {
        "Payment"
    }

    fn is_read_only(&self) -> bool {
        false
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        let by_name_choice = common::uniform(rng, 0, 99);
        let last_name = common::rand_last_name(rng);
        let amount = common::rand_amount_cents(rng, 1.0, 5_000.0);
        let h_id = self.state.next_history();
        payment_statements_txn(
            session,
            w_id,
            d_id,
            c_id,
            by_name_choice,
            &last_name,
            amount,
            h_id,
        )
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn payment_statements_txn(
    session: &Session,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    by_name_choice: i64,
    last_name: &str,
    amount: i64,
    h_id: i64,
) -> EngineResult<()> {
    session.run_transaction(WorkClass::Oltp, RETRIES, |s, txn| {
        payment_statements(
            s,
            txn,
            w_id,
            d_id,
            c_id,
            by_name_choice,
            last_name,
            amount,
            h_id,
        )
    })
}

/// The Payment statement sequence, reusable inside hybrid transactions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn payment_statements(
    s: &Session,
    txn: &mut TxnHandle,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    by_name_choice: i64,
    last_name: &str,
    amount: i64,
    h_id: i64,
) -> EngineResult<()> {
    let w_key = Key::int(w_id);
    let mut warehouse = require(s.read(txn, "WAREHOUSE", &w_key)?, "WAREHOUSE", &w_key)?;
    warehouse.set(
        col::w::YTD,
        Value::Decimal(as_cents(&warehouse[col::w::YTD]) + amount),
    );
    s.update(txn, "WAREHOUSE", &w_key, warehouse)?;

    let d_key = Key::ints(&[w_id, d_id]);
    let mut district = require(s.read(txn, "DISTRICT", &d_key)?, "DISTRICT", &d_key)?;
    district.set(
        col::d::YTD,
        Value::Decimal(as_cents(&district[col::d::YTD]) + amount),
    );
    s.update(txn, "DISTRICT", &d_key, district)?;

    let mut customer = select_customer(s, txn, by_name_choice, w_id, d_id, c_id, last_name)?;
    let customer_id = as_int(&customer[col::c::ID]);
    let c_key = Key::ints(&[w_id, d_id, customer_id]);
    customer.set(
        col::c::BALANCE,
        Value::Decimal(as_cents(&customer[col::c::BALANCE]) - amount),
    );
    customer.set(
        col::c::YTD_PAYMENT,
        Value::Decimal(as_cents(&customer[col::c::YTD_PAYMENT]) + amount),
    );
    customer.set(
        col::c::PAYMENT_CNT,
        Value::Int(as_int(&customer[col::c::PAYMENT_CNT]) + 1),
    );
    s.update(txn, "CUSTOMER", &c_key, customer)?;

    s.insert(
        txn,
        "HISTORY",
        Row::new(vec![
            Value::Int(h_id),
            Value::Int(customer_id),
            Value::Int(d_id),
            Value::Int(w_id),
            Value::Int(d_id),
            Value::Int(w_id),
            Value::Timestamp(common::synthetic_timestamp(h_id)),
            Value::Decimal(amount),
        ]),
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// OrderStatus
// ---------------------------------------------------------------------------

/// The TPC-C Order-Status transaction (read only).
pub struct OrderStatus {
    state: Arc<SubenchmarkState>,
}

impl OrderStatus {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> OrderStatus {
        OrderStatus { state }
    }
}

impl OnlineTransaction for OrderStatus {
    fn name(&self) -> &str {
        "OrderStatus"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let c_id = common::nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT);
        let by_name_choice = common::uniform(rng, 0, 99);
        let last_name = common::rand_last_name(rng);
        session.run_transaction(WorkClass::Oltp, RETRIES, |s, txn| {
            order_status_statements(s, txn, w_id, d_id, c_id, by_name_choice, &last_name)
        })
    }
}

/// The Order-Status statement sequence, reusable inside hybrid transactions.
pub(crate) fn order_status_statements(
    s: &Session,
    txn: &mut TxnHandle,
    w_id: i64,
    d_id: i64,
    c_id: i64,
    by_name_choice: i64,
    last_name: &str,
) -> EngineResult<()> {
    let customer = select_customer(s, txn, by_name_choice, w_id, d_id, c_id, last_name)?;
    let customer_id = as_int(&customer[col::c::ID]);
    let orders = s.select_eq(
        txn,
        "ORDERS",
        &["o_w_id", "o_d_id", "o_c_id"],
        &[Value::Int(w_id), Value::Int(d_id), Value::Int(customer_id)],
    )?;
    if let Some(latest) = orders.iter().max_by_key(|o| as_int(&o[col::o::ID])) {
        let o_id = as_int(&latest[col::o::ID]);
        let _lines = s.scan_prefix(txn, "ORDER_LINE", &Key::ints(&[w_id, d_id, o_id]))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------------

/// The TPC-C Delivery transaction.
pub struct Delivery {
    state: Arc<SubenchmarkState>,
}

impl Delivery {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> Delivery {
        Delivery { state }
    }
}

impl OnlineTransaction for Delivery {
    fn name(&self) -> &str {
        "Delivery"
    }

    fn is_read_only(&self) -> bool {
        false
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let carrier = common::uniform(rng, 1, 10);
        session.run_transaction(WorkClass::Oltp, RETRIES, |s, txn| {
            for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
                let pending = s.scan_prefix(txn, "NEW_ORDER", &Key::ints(&[w_id, d_id]))?;
                let Some(oldest) = pending.iter().min_by_key(|r| as_int(&r[col::no::O_ID])) else {
                    continue;
                };
                let o_id = as_int(&oldest[col::no::O_ID]);
                let no_key = Key::ints(&[w_id, d_id, o_id]);
                s.delete(txn, "NEW_ORDER", &no_key)?;

                let o_key = Key::ints(&[w_id, d_id, o_id]);
                let mut order = require(s.read(txn, "ORDERS", &o_key)?, "ORDERS", &o_key)?;
                let c_id = as_int(&order[col::o::C_ID]);
                order.set(col::o::CARRIER_ID, Value::Int(carrier));
                s.update(txn, "ORDERS", &o_key, order)?;

                let lines = s.scan_prefix(txn, "ORDER_LINE", &Key::ints(&[w_id, d_id, o_id]))?;
                let mut total = 0i64;
                for mut line in lines {
                    total += as_cents(&line[col::ol::AMOUNT]);
                    let line_key = Key::ints(&[w_id, d_id, o_id, as_int(&line[col::ol::NUMBER])]);
                    line.set(
                        col::ol::DELIVERY_D,
                        Value::Timestamp(common::synthetic_timestamp(o_id)),
                    );
                    s.update(txn, "ORDER_LINE", &line_key, line)?;
                }

                let c_key = Key::ints(&[w_id, d_id, c_id]);
                let mut customer = require(s.read(txn, "CUSTOMER", &c_key)?, "CUSTOMER", &c_key)?;
                customer.set(
                    col::c::BALANCE,
                    Value::Decimal(as_cents(&customer[col::c::BALANCE]) + total),
                );
                customer.set(
                    col::c::DELIVERY_CNT,
                    Value::Int(as_int(&customer[col::c::DELIVERY_CNT]) + 1),
                );
                s.update(txn, "CUSTOMER", &c_key, customer)?;
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------
// StockLevel
// ---------------------------------------------------------------------------

/// The TPC-C Stock-Level transaction (read only).
pub struct StockLevel {
    state: Arc<SubenchmarkState>,
}

impl StockLevel {
    /// Create the template.
    pub fn new(state: Arc<SubenchmarkState>) -> StockLevel {
        StockLevel { state }
    }
}

impl OnlineTransaction for StockLevel {
    fn name(&self) -> &str {
        "StockLevel"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        let w_id = self.state.rand_warehouse(rng);
        let d_id = common::uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
        let threshold = common::uniform(rng, 10, 20);
        session.run_transaction(WorkClass::Oltp, RETRIES, |s, txn| {
            stock_level_statements(s, txn, w_id, d_id, threshold)
        })
    }
}

/// The Stock-Level statement sequence, reusable inside hybrid transactions.
pub(crate) fn stock_level_statements(
    s: &Session,
    txn: &mut TxnHandle,
    w_id: i64,
    d_id: i64,
    threshold: i64,
) -> EngineResult<()> {
    let d_key = Key::ints(&[w_id, d_id]);
    let district = require(s.read(txn, "DISTRICT", &d_key)?, "DISTRICT", &d_key)?;
    let next_o_id = as_int(&district[col::d::NEXT_O_ID]);

    let lines = s.scan_prefix(txn, "ORDER_LINE", &Key::ints(&[w_id, d_id]))?;
    let mut item_ids: Vec<i64> = lines
        .iter()
        .filter(|l| as_int(&l[col::ol::O_ID]) >= next_o_id - 20)
        .map(|l| as_int(&l[col::ol::I_ID]))
        .collect();
    item_ids.sort_unstable();
    item_ids.dedup();

    let mut low_stock = 0;
    for i_id in item_ids.into_iter().take(20) {
        let s_key = Key::ints(&[w_id, i_id]);
        let stock = require(s.read(txn, "STOCK", &s_key)?, "STOCK", &s_key)?;
        if as_int(&stock[col::s::QUANTITY]) < threshold {
            low_stock += 1;
        }
    }
    let _ = low_stock;
    Ok(())
}
