//! The tabenchmark: OLxPBench's telecom domain-specific benchmark, inspired by
//! TATP.
//!
//! Four tables modelling a Home Location Register (HLR) with — following the
//! paper — a **composite primary key** `(s_id, sf_type)` on SUBSCRIBER, "because
//! the composite primary key is standard in the real business scenario"
//! (§IV-B3).  The subscriber-number column is deliberately *not* indexed, so
//! the TATP statements that look a subscriber up by `sub_nbr` degenerate into
//! full scans — the slow query behind the paper's finding that "both MemSQL
//! and TiDB handle the query using the composite keys awkwardly" (§VI-D).
//! Seven online transactions (80 % read-only), five analytical queries and six
//! hybrid transactions (40 % read-only) including the fuzzy subscriber search.

use crate::common::{self, PlannedQuery, RETRIES};
use olxp_engine::{EngineError, EngineResult, HybridDatabase, Session, TxnHandle, WorkClass};
use olxp_query::{col as qcol, lit, AggFunc, AggSpec, QueryBuilder, SortKey};
use olxp_storage::{ColumnDef, DataType, Key, Row, StorageError, TableSchema, Value};
use olxpbench_core::{
    AnalyticalQuery, HybridTransaction, OnlineTransaction, TransactionMix, Workload,
    WorkloadFeatures, WorkloadKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Subscribers per scale-factor unit.
pub const SUBSCRIBERS_PER_SCALE: i64 = 1_000;

/// Column positions used by transactions and queries.
pub mod col {
    /// SUBSCRIBER columns (34 columns in total).
    pub mod sub {
        pub const S_ID: usize = 0;
        pub const SF_TYPE: usize = 1;
        pub const SUB_NBR: usize = 2;
        pub const BIT_1: usize = 3;
        pub const MSC_LOCATION: usize = 32;
        pub const VLR_LOCATION: usize = 33;
    }
    /// ACCESS_INFO columns.
    pub mod ai {
        pub const S_ID: usize = 0;
        pub const AI_TYPE: usize = 1;
        pub const DATA1: usize = 2;
        pub const DATA2: usize = 3;
    }
    /// SPECIAL_FACILITY columns.
    pub mod sf {
        pub const S_ID: usize = 0;
        pub const SF_TYPE: usize = 1;
        pub const IS_ACTIVE: usize = 2;
        pub const DATA_A: usize = 4;
    }
    /// CALL_FORWARDING columns.
    pub mod cf {
        pub const S_ID: usize = 0;
        pub const SF_TYPE: usize = 1;
        pub const START_TIME: usize = 2;
        pub const END_TIME: usize = 3;
        pub const NUMBERX: usize = 4;
    }
}

/// The four tabenchmark table schemas (51 columns in total).
pub fn schemas() -> Vec<TableSchema> {
    let mut subscriber_cols = vec![
        ColumnDef::new("s_id", DataType::Int, false),
        ColumnDef::new("sf_type", DataType::Int, false),
        ColumnDef::new("sub_nbr", DataType::Str, false),
    ];
    for i in 1..=10 {
        subscriber_cols.push(ColumnDef::new(format!("bit_{i}"), DataType::Int, false));
    }
    for i in 1..=10 {
        subscriber_cols.push(ColumnDef::new(format!("hex_{i}"), DataType::Int, false));
    }
    for i in 1..=9 {
        subscriber_cols.push(ColumnDef::new(format!("byte2_{i}"), DataType::Int, false));
    }
    subscriber_cols.push(ColumnDef::new("msc_location", DataType::Int, false));
    subscriber_cols.push(ColumnDef::new("vlr_location", DataType::Int, false));
    // The composite primary key the paper introduces; note there is no index
    // on sub_nbr.
    let subscriber = TableSchema::new("SUBSCRIBER", subscriber_cols, vec!["s_id", "sf_type"])
        .expect("static schema")
        .with_index("idx_subscriber_vlr", vec!["vlr_location"], false)
        .expect("static schema")
        .with_index("idx_subscriber_msc", vec!["msc_location"], false)
        .expect("static schema");

    let access_info = TableSchema::new(
        "ACCESS_INFO",
        vec![
            ColumnDef::new("s_id", DataType::Int, false),
            ColumnDef::new("ai_type", DataType::Int, false),
            ColumnDef::new("data1", DataType::Int, false),
            ColumnDef::new("data2", DataType::Int, false),
            ColumnDef::new("data3", DataType::Str, false),
            ColumnDef::new("data4", DataType::Str, false),
        ],
        vec!["s_id", "ai_type"],
    )
    .expect("static schema")
    .with_index("idx_access_info_type", vec!["ai_type"], false)
    .expect("static schema")
    .with_foreign_key(vec!["s_id"], "SUBSCRIBER", vec!["s_id"])
    .expect("static schema");

    let special_facility = TableSchema::new(
        "SPECIAL_FACILITY",
        vec![
            ColumnDef::new("s_id", DataType::Int, false),
            ColumnDef::new("sf_type", DataType::Int, false),
            ColumnDef::new("is_active", DataType::Int, false),
            ColumnDef::new("error_cntrl", DataType::Int, false),
            ColumnDef::new("data_a", DataType::Int, false),
            ColumnDef::new("data_b", DataType::Str, false),
        ],
        vec!["s_id", "sf_type"],
    )
    .expect("static schema")
    .with_index("idx_special_facility_active", vec!["is_active"], false)
    .expect("static schema")
    .with_foreign_key(
        vec!["s_id", "sf_type"],
        "SUBSCRIBER",
        vec!["s_id", "sf_type"],
    )
    .expect("static schema");

    let call_forwarding = TableSchema::new(
        "CALL_FORWARDING",
        vec![
            ColumnDef::new("s_id", DataType::Int, false),
            ColumnDef::new("sf_type", DataType::Int, false),
            ColumnDef::new("start_time", DataType::Int, false),
            ColumnDef::new("end_time", DataType::Int, false),
            ColumnDef::new("numberx", DataType::Str, false),
        ],
        vec!["s_id", "sf_type", "start_time"],
    )
    .expect("static schema")
    .with_index("idx_call_forwarding_start", vec!["start_time"], false)
    .expect("static schema")
    .with_foreign_key(
        vec!["s_id", "sf_type"],
        "SPECIAL_FACILITY",
        vec!["s_id", "sf_type"],
    )
    .expect("static schema");

    vec![subscriber, access_info, special_facility, call_forwarding]
}

/// Run-time state shared by the tabenchmark transactions.
#[derive(Debug)]
pub struct TabenchmarkState {
    /// Number of subscriber ids loaded.
    pub subscribers: AtomicI64,
}

impl TabenchmarkState {
    fn new() -> Arc<TabenchmarkState> {
        Arc::new(TabenchmarkState {
            subscribers: AtomicI64::new(SUBSCRIBERS_PER_SCALE),
        })
    }

    fn subscriber_count(&self) -> i64 {
        self.subscribers.load(Ordering::Relaxed).max(1)
    }

    fn rand_subscriber(&self, rng: &mut StdRng) -> i64 {
        common::nurand(rng, 65535, 1, self.subscriber_count())
    }
}

fn as_int(value: &Value) -> i64 {
    value.as_int().unwrap_or(0)
}

#[allow(dead_code)]
fn require(row: Option<Row>, table: &str, key: &Key) -> EngineResult<Row> {
    row.ok_or_else(|| {
        EngineError::Storage(StorageError::KeyNotFound {
            table: table.to_string(),
            key: key.to_string(),
        })
    })
}

/// The slow lookup of the paper: find a subscriber's rows by `sub_nbr`, which
/// has no index, so the statement degenerates into a scan.
fn lookup_by_sub_nbr(s: &Session, txn: &mut TxnHandle, sub_nbr: &str) -> EngineResult<Vec<Row>> {
    s.select_eq(
        txn,
        "SUBSCRIBER",
        &["sub_nbr"],
        &[Value::Str(sub_nbr.to_string())],
    )
}

// ---------------------------------------------------------------------------
// Online transactions
// ---------------------------------------------------------------------------

macro_rules! online_txn {
    ($name:ident, $label:literal, $read_only:expr, |$state:ident, $s:ident, $txn:ident, $rng:ident| $body:block) => {
        /// TATP-derived online transaction.
        pub struct $name {
            state: Arc<TabenchmarkState>,
        }

        impl $name {
            /// Create the template.
            pub fn new(state: Arc<TabenchmarkState>) -> Self {
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

online_txn!(
    GetSubscriberData,
    "GetSubscriberData",
    true,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        // Prefix lookup on the composite primary key — served by the index.
        let _rows = s.select_eq(txn, "SUBSCRIBER", &["s_id"], &[Value::Int(s_id)])?;
        Ok(())
    }
);

online_txn!(
    GetAccessData,
    "GetAccessData",
    true,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let ai_type = common::uniform(rng, 1, 4);
        let _row = s.read(txn, "ACCESS_INFO", &Key::ints(&[s_id, ai_type]))?;
        Ok(())
    }
);

online_txn!(
    GetNewDestination,
    "GetNewDestination",
    true,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let sf_type = common::uniform(rng, 1, 4);
        let facility = s.read(txn, "SPECIAL_FACILITY", &Key::ints(&[s_id, sf_type]))?;
        if facility
            .map(|f| as_int(&f[col::sf::IS_ACTIVE]) == 1)
            .unwrap_or(false)
        {
            let _forwards = s.scan_prefix(txn, "CALL_FORWARDING", &Key::ints(&[s_id, sf_type]))?;
        }
        Ok(())
    }
);

online_txn!(
    UpdateSubscriberData,
    "UpdateSubscriberData",
    false,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let sf_type = common::uniform(rng, 1, 4);
        let sub_key = Key::ints(&[s_id, 1]);
        if let Some(mut subscriber) = s.read(txn, "SUBSCRIBER", &sub_key)? {
            subscriber.set(col::sub::BIT_1, Value::Int(common::uniform(rng, 0, 1)));
            s.update(txn, "SUBSCRIBER", &sub_key, subscriber)?;
        }
        let sf_key = Key::ints(&[s_id, sf_type]);
        if let Some(mut facility) = s.read(txn, "SPECIAL_FACILITY", &sf_key)? {
            facility.set(col::sf::DATA_A, Value::Int(common::uniform(rng, 0, 255)));
            s.update(txn, "SPECIAL_FACILITY", &sf_key, facility)?;
        }
        Ok(())
    }
);

online_txn!(
    UpdateLocation,
    "UpdateLocation",
    false,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let location = common::uniform(rng, 1, 1 << 16);
        // Lookup by sub_nbr — the un-indexed column: full scan (the slow query).
        let rows = lookup_by_sub_nbr(s, txn, &common::sub_nbr(s_id))?;
        for mut row in rows {
            let key = Key::ints(&[
                as_int(&row[col::sub::S_ID]),
                as_int(&row[col::sub::SF_TYPE]),
            ]);
            row.set(col::sub::VLR_LOCATION, Value::Int(location));
            s.update(txn, "SUBSCRIBER", &key, row)?;
        }
        Ok(())
    }
);

online_txn!(
    InsertCallForwarding,
    "InsertCallForwarding",
    false,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let start_time = *common::pick(rng, &[0i64, 8, 16]);
        let end_time = start_time + common::uniform(rng, 1, 8);
        // The slow sub_nbr lookup precedes the insert, as in TATP.
        let rows = lookup_by_sub_nbr(s, txn, &common::sub_nbr(s_id))?;
        let Some(subscriber) = rows.first() else {
            return Ok(());
        };
        let sf_type = as_int(&subscriber[col::sub::SF_TYPE]);
        let facilities = s.scan_prefix(txn, "SPECIAL_FACILITY", &Key::int(s_id))?;
        if facilities.is_empty() {
            return Ok(());
        }
        let key = Key::ints(&[s_id, sf_type, start_time]);
        if s.read(txn, "CALL_FORWARDING", &key)?.is_none() {
            s.insert(
                txn,
                "CALL_FORWARDING",
                Row::new(vec![
                    Value::Int(s_id),
                    Value::Int(sf_type),
                    Value::Int(start_time),
                    Value::Int(end_time),
                    Value::Str(common::rand_numeric_string(rng, 15)),
                ]),
            )?;
        }
        Ok(())
    }
);

online_txn!(
    DeleteCallForwarding,
    "DeleteCallForwarding",
    false,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        let start_time = *common::pick(rng, &[0i64, 8, 16]);
        // "explain SELECT s_id FROM SUBSCRIBER WHERE sub_nbr = ?" — the slow query
        // highlighted in §VI-C1.
        let rows = lookup_by_sub_nbr(s, txn, &common::sub_nbr(s_id))?;
        let Some(subscriber) = rows.first() else {
            return Ok(());
        };
        let sf_type = as_int(&subscriber[col::sub::SF_TYPE]);
        let key = Key::ints(&[s_id, sf_type, start_time]);
        if s.read(txn, "CALL_FORWARDING", &key)?.is_some() {
            s.delete(txn, "CALL_FORWARDING", &key)?;
        }
        Ok(())
    }
);

// ---------------------------------------------------------------------------
// Hybrid transactions
// ---------------------------------------------------------------------------

macro_rules! hybrid_txn {
    ($name:ident, $label:literal, $read_only:expr, |$state:ident, $s:ident, $txn:ident, $rng:ident| $body:block) => {
        /// Tabenchmark hybrid transaction.
        pub struct $name {
            state: Arc<TabenchmarkState>,
        }

        impl $name {
            /// Create the template.
            pub fn new(state: Arc<TabenchmarkState>) -> Self {
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
    UpdateLocationWithLoad,
    "X1-UpdateLocationWithLoad",
    false,
    |state, s, txn, rng| {
        // Real-time query: how loaded is each VLR location right now?
        let plan = QueryBuilder::scan("SUBSCRIBER")
            .aggregate(
                vec![col::sub::VLR_LOCATION],
                vec![AggSpec::new(AggFunc::Count, col::sub::S_ID)],
            )
            .sort(vec![SortKey::desc(1)])
            .limit(5)
            .build();
        let _load = s.query_in_txn(txn, &plan)?;
        let s_id = state.rand_subscriber(rng);
        let location = common::uniform(rng, 1, 1 << 16);
        // As in TATP's UpdateLocation, the subscriber is addressed by sub_nbr —
        // the un-indexed column — so this is the paper's slow composite-key path.
        let rows = lookup_by_sub_nbr(s, txn, &common::sub_nbr(s_id))?;
        for mut row in rows {
            let key = Key::ints(&[
                as_int(&row[col::sub::S_ID]),
                as_int(&row[col::sub::SF_TYPE]),
            ]);
            row.set(col::sub::VLR_LOCATION, Value::Int(location));
            s.update(txn, "SUBSCRIBER", &key, row)?;
        }
        Ok(())
    }
);

hybrid_txn!(
    InsertForwardingAtPeak,
    "X2-InsertForwardingAtPeak",
    false,
    |state, s, txn, rng| {
        // Real-time query: the Start Time Query (Q3) — the average start time of
        // existing call forwardings, used for load forecasting.
        let plan = QueryBuilder::scan("CALL_FORWARDING")
            .aggregate(
                vec![],
                vec![
                    AggSpec::new(AggFunc::Avg, col::cf::START_TIME),
                    AggSpec::new(AggFunc::Count, col::cf::S_ID),
                ],
            )
            .build();
        let _peak = s.query_in_txn(txn, &plan)?;
        let s_id = state.rand_subscriber(rng);
        let start_time = *common::pick(rng, &[0i64, 8, 16]);
        let facilities = s.scan_prefix(txn, "SPECIAL_FACILITY", &Key::int(s_id))?;
        let Some(facility) = facilities.first() else {
            return Ok(());
        };
        let sf_type = as_int(&facility[col::sf::SF_TYPE]);
        let key = Key::ints(&[s_id, sf_type, start_time]);
        if s.read(txn, "CALL_FORWARDING", &key)?.is_none() {
            s.insert(
                txn,
                "CALL_FORWARDING",
                Row::new(vec![
                    Value::Int(s_id),
                    Value::Int(sf_type),
                    Value::Int(start_time),
                    Value::Int(start_time + 8),
                    Value::Str(common::rand_numeric_string(rng, 15)),
                ]),
            )?;
        }
        Ok(())
    }
);

hybrid_txn!(
    DeleteForwardingWithUsage,
    "X3-DeleteForwardingWithUsage",
    false,
    |state, s, txn, rng| {
        let s_id = state.rand_subscriber(rng);
        // Real-time query: the subscriber's current forwarding usage.
        let plan = QueryBuilder::scan_where("CALL_FORWARDING", qcol(col::cf::S_ID).eq(lit(s_id)))
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, col::cf::S_ID)])
            .build();
        let _usage = s.query_in_txn(txn, &plan)?;
        // TATP's DeleteCallForwarding resolves the subscriber via sub_nbr first —
        // the slow query of §VI-C1.
        let _subscriber = lookup_by_sub_nbr(s, txn, &common::sub_nbr(s_id))?;
        let start_time = *common::pick(rng, &[0i64, 8, 16]);
        let forwards = s.scan_prefix(txn, "CALL_FORWARDING", &Key::int(s_id))?;
        if let Some(target) = forwards
            .iter()
            .find(|f| as_int(&f[col::cf::START_TIME]) == start_time)
        {
            let key = Key::ints(&[s_id, as_int(&target[col::cf::SF_TYPE]), start_time]);
            s.delete(txn, "CALL_FORWARDING", &key)?;
        }
        Ok(())
    }
);

hybrid_txn!(
    UpdateProfileWithAccessStats,
    "X4-UpdateProfileWithAccessStats",
    false,
    |state, s, txn, rng| {
        // Real-time query: distribution of access types across the HLR.
        let plan = QueryBuilder::scan("ACCESS_INFO")
            .aggregate(
                vec![col::ai::AI_TYPE],
                vec![
                    AggSpec::new(AggFunc::Count, col::ai::S_ID),
                    AggSpec::new(AggFunc::Avg, col::ai::DATA1),
                ],
            )
            .sort(vec![SortKey::asc(0)])
            .build();
        let _stats = s.query_in_txn(txn, &plan)?;
        let s_id = state.rand_subscriber(rng);
        let key = Key::ints(&[s_id, 1]);
        if let Some(mut subscriber) = s.read(txn, "SUBSCRIBER", &key)? {
            subscriber.set(col::sub::BIT_1, Value::Int(common::uniform(rng, 0, 1)));
            s.update(txn, "SUBSCRIBER", &key, subscriber)?;
        }
        Ok(())
    }
);

hybrid_txn!(
    FuzzySubscriberSearch,
    "X5-FuzzySubscriberSearch",
    true,
    |state, s, txn, rng| {
        // The Fuzzy Search Transaction (X6 in the paper): select subscriber ids
        // whose user data matches a fuzzy sub-string criterion.
        let fragment = format!("{:03}", common::uniform(rng, 0, 999));
        let plan = QueryBuilder::scan_where(
            "SUBSCRIBER",
            qcol(col::sub::SUB_NBR).like(format!("%{fragment}%")),
        )
        .project(vec![qcol(col::sub::S_ID), qcol(col::sub::SUB_NBR)])
        .limit(50)
        .build();
        let matches = s.query_in_txn(txn, &plan)?;
        // Follow up with the online lookup for one matching subscriber.
        let s_id = matches
            .rows
            .first()
            .map(|r| as_int(&r[0]))
            .unwrap_or_else(|| state.subscriber_count());
        let _rows = s.select_eq(txn, "SUBSCRIBER", &["s_id"], &[Value::Int(s_id)])?;
        Ok(())
    }
);

hybrid_txn!(
    DestinationWithActiveStats,
    "X6-DestinationWithActiveStats",
    true,
    |state, s, txn, rng| {
        // Real-time query: share of active special facilities.
        let plan = QueryBuilder::scan("SPECIAL_FACILITY")
            .aggregate(
                vec![col::sf::IS_ACTIVE],
                vec![AggSpec::new(AggFunc::Count, col::sf::S_ID)],
            )
            .build();
        let _active = s.query_in_txn(txn, &plan)?;
        let s_id = state.rand_subscriber(rng);
        let sf_type = common::uniform(rng, 1, 4);
        if let Some(facility) = s.read(txn, "SPECIAL_FACILITY", &Key::ints(&[s_id, sf_type]))? {
            if as_int(&facility[col::sf::IS_ACTIVE]) == 1 {
                let _forwards =
                    s.scan_prefix(txn, "CALL_FORWARDING", &Key::ints(&[s_id, sf_type]))?;
            }
        }
        Ok(())
    }
);

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The tabenchmark workload.
pub struct Tabenchmark {
    state: Arc<TabenchmarkState>,
}

impl Tabenchmark {
    /// Create the workload.
    pub fn new() -> Tabenchmark {
        Tabenchmark {
            state: TabenchmarkState::new(),
        }
    }
}

impl Default for Tabenchmark {
    fn default() -> Self {
        Tabenchmark::new()
    }
}

impl Workload for Tabenchmark {
    fn name(&self) -> &str {
        "tabenchmark"
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
        let subscribers = i64::from(scale_factor.max(1)) * SUBSCRIBERS_PER_SCALE;
        self.state.subscribers.store(subscribers, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(seed);
        for s_id in 1..=subscribers {
            let sf_types = common::uniform(&mut rng, 1, 4);
            for sf_type in 1..=sf_types {
                let mut values = vec![
                    Value::Int(s_id),
                    Value::Int(sf_type),
                    Value::Str(common::sub_nbr(s_id)),
                ];
                for _ in 0..10 {
                    values.push(Value::Int(common::uniform(&mut rng, 0, 1)));
                }
                for _ in 0..10 {
                    values.push(Value::Int(common::uniform(&mut rng, 0, 15)));
                }
                for _ in 0..9 {
                    values.push(Value::Int(common::uniform(&mut rng, 0, 255)));
                }
                values.push(Value::Int(common::uniform(&mut rng, 1, 1 << 16)));
                values.push(Value::Int(common::uniform(&mut rng, 1, 1 << 16)));
                db.load_row("SUBSCRIBER", Row::new(values))?;

                db.load_row(
                    "SPECIAL_FACILITY",
                    Row::new(vec![
                        Value::Int(s_id),
                        Value::Int(sf_type),
                        Value::Int(i64::from(common::uniform(&mut rng, 0, 99) < 85)),
                        Value::Int(common::uniform(&mut rng, 0, 255)),
                        Value::Int(common::uniform(&mut rng, 0, 255)),
                        Value::Str(common::rand_string(&mut rng, 5, 5)),
                    ]),
                )?;
                let forwards = common::uniform(&mut rng, 0, 3);
                for f in 0..forwards {
                    let start_time = f * 8;
                    db.load_row(
                        "CALL_FORWARDING",
                        Row::new(vec![
                            Value::Int(s_id),
                            Value::Int(sf_type),
                            Value::Int(start_time),
                            Value::Int(start_time + common::uniform(&mut rng, 1, 8)),
                            Value::Str(common::rand_numeric_string(&mut rng, 15)),
                        ]),
                    )?;
                }
            }
            let ai_types = common::uniform(&mut rng, 1, 4);
            for ai_type in 1..=ai_types {
                db.load_row(
                    "ACCESS_INFO",
                    Row::new(vec![
                        Value::Int(s_id),
                        Value::Int(ai_type),
                        Value::Int(common::uniform(&mut rng, 0, 255)),
                        Value::Int(common::uniform(&mut rng, 0, 255)),
                        Value::Str(common::rand_string(&mut rng, 3, 3)),
                        Value::Str(common::rand_string(&mut rng, 5, 5)),
                    ]),
                )?;
            }
        }
        Ok(())
    }

    fn online_transactions(&self) -> Vec<Arc<dyn OnlineTransaction>> {
        vec![
            Arc::new(GetSubscriberData::new(Arc::clone(&self.state))),
            Arc::new(GetAccessData::new(Arc::clone(&self.state))),
            Arc::new(GetNewDestination::new(Arc::clone(&self.state))),
            Arc::new(UpdateSubscriberData::new(Arc::clone(&self.state))),
            Arc::new(UpdateLocation::new(Arc::clone(&self.state))),
            Arc::new(InsertCallForwarding::new(Arc::clone(&self.state))),
            Arc::new(DeleteCallForwarding::new(Arc::clone(&self.state))),
        ]
    }

    fn analytical_queries(&self) -> Vec<Arc<dyn AnalyticalQuery>> {
        vec![
            Arc::new(PlannedQuery::new(
                "Q1-SubscriberLocationDistribution",
                vec!["SUBSCRIBER"],
                |_rng| {
                    QueryBuilder::scan("SUBSCRIBER")
                        .aggregate(
                            vec![col::sub::VLR_LOCATION],
                            vec![AggSpec::new(AggFunc::Count, col::sub::S_ID)],
                        )
                        .sort(vec![SortKey::desc(1)])
                        .limit(20)
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q2-ActiveFacilitiesByType",
                vec!["SPECIAL_FACILITY"],
                |_rng| {
                    QueryBuilder::scan_where(
                        "SPECIAL_FACILITY",
                        qcol(col::sf::IS_ACTIVE).eq(lit(1)),
                    )
                    .aggregate(
                        vec![col::sf::SF_TYPE],
                        vec![
                            AggSpec::new(AggFunc::Count, col::sf::S_ID),
                            AggSpec::new(AggFunc::Avg, col::sf::DATA_A),
                        ],
                    )
                    .sort(vec![SortKey::asc(0)])
                    .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q3-StartTimeQuery",
                vec!["CALL_FORWARDING"],
                |_rng| {
                    // "calculates the average of the starting time of the call
                    // forwarding ... essential for load forecasting" (§IV-B3).
                    QueryBuilder::scan("CALL_FORWARDING")
                        .aggregate(
                            vec![],
                            vec![
                                AggSpec::new(AggFunc::Avg, col::cf::START_TIME),
                                AggSpec::new(AggFunc::Min, col::cf::START_TIME),
                                AggSpec::new(AggFunc::Max, col::cf::END_TIME),
                                AggSpec::new(AggFunc::Count, col::cf::S_ID),
                            ],
                        )
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q4-ForwardingHeavySubscribers",
                vec!["CALL_FORWARDING"],
                |_rng| {
                    QueryBuilder::scan("CALL_FORWARDING")
                        .aggregate(
                            vec![col::cf::S_ID],
                            vec![AggSpec::new(AggFunc::Count, col::cf::SF_TYPE)],
                        )
                        .sort(vec![SortKey::desc(1)])
                        .limit(10)
                        .build()
                },
            )),
            Arc::new(PlannedQuery::new(
                "Q5-AccessTypeProfile",
                vec!["ACCESS_INFO"],
                |_rng| {
                    QueryBuilder::scan("ACCESS_INFO")
                        .aggregate(
                            vec![col::ai::AI_TYPE],
                            vec![
                                AggSpec::new(AggFunc::Count, col::ai::S_ID),
                                AggSpec::new(AggFunc::Avg, col::ai::DATA1),
                                AggSpec::new(AggFunc::Avg, col::ai::DATA2),
                            ],
                        )
                        .sort(vec![SortKey::asc(0)])
                        .build()
                },
            )),
        ]
    }

    fn hybrid_transactions(&self) -> Vec<Arc<dyn HybridTransaction>> {
        vec![
            Arc::new(UpdateLocationWithLoad::new(Arc::clone(&self.state))),
            Arc::new(InsertForwardingAtPeak::new(Arc::clone(&self.state))),
            Arc::new(DeleteForwardingWithUsage::new(Arc::clone(&self.state))),
            Arc::new(UpdateProfileWithAccessStats::new(Arc::clone(&self.state))),
            Arc::new(FuzzySubscriberSearch::new(Arc::clone(&self.state))),
            Arc::new(DestinationWithActiveStats::new(Arc::clone(&self.state))),
        ]
    }

    fn default_online_mix(&self) -> TransactionMix {
        // The TATP mix: 80 % read-only.
        TransactionMix::new(vec![
            ("GetSubscriberData", 35),
            ("GetAccessData", 35),
            ("GetNewDestination", 10),
            ("UpdateSubscriberData", 2),
            ("UpdateLocation", 14),
            ("InsertCallForwarding", 2),
            ("DeleteCallForwarding", 2),
        ])
    }

    fn default_hybrid_mix(&self) -> TransactionMix {
        // 40 % read-only (X5 + X6).
        TransactionMix::new(vec![
            ("X1-UpdateLocationWithLoad", 15),
            ("X2-InsertForwardingAtPeak", 15),
            ("X3-DeleteForwardingWithUsage", 15),
            ("X4-UpdateProfileWithAccessStats", 15),
            ("X5-FuzzySubscriberSearch", 20),
            ("X6-DestinationWithActiveStats", 20),
        ])
    }

    fn features(&self) -> WorkloadFeatures {
        let schemas = schemas();
        WorkloadFeatures {
            name: self.name().to_string(),
            table_names: schemas.iter().map(|s| s.name().to_string()).collect(),
            columns: schemas.iter().map(|s| s.column_count()).sum(),
            indexes: schemas.iter().map(|s| s.indexes().len()).sum(),
            oltp_transactions: 7,
            read_only_oltp_percent: 80.0,
            analytical_queries: 5,
            hybrid_transactions: 6,
            read_only_hybrid_percent: 40.0,
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

    fn loaded_db() -> (Arc<HybridDatabase>, Tabenchmark) {
        let db = HybridDatabase::new(EngineConfig::single_engine().with_time_scale(0.0)).unwrap();
        let workload = Tabenchmark::new();
        workload.create_schema(&db).unwrap();
        workload.load(&db, 1, 5).unwrap();
        db.finish_load().unwrap();
        (db, workload)
    }

    #[test]
    fn features_match_table2() {
        let features = Tabenchmark::new().features();
        assert_eq!(features.tables(), 4);
        assert_eq!(features.columns, 51);
        assert_eq!(features.indexes, 5);
        assert_eq!(features.oltp_transactions, 7);
        assert_eq!(features.analytical_queries, 5);
        assert_eq!(features.hybrid_transactions, 6);
        assert!((features.read_only_oltp_percent - 80.0).abs() < f64::EPSILON);
        assert!((features.read_only_hybrid_percent - 40.0).abs() < f64::EPSILON);
    }

    #[test]
    fn subscriber_has_composite_primary_key_and_no_sub_nbr_index() {
        let schemas = schemas();
        let subscriber = &schemas[0];
        assert_eq!(subscriber.primary_key().len(), 2);
        let sub_nbr_pos = subscriber.column_index("sub_nbr").unwrap();
        assert!(
            !subscriber.has_index_prefix(&[sub_nbr_pos]),
            "sub_nbr lookups must degenerate into scans (the paper's slow query)"
        );
    }

    #[test]
    fn schema_is_semantically_consistent() {
        let report = check_semantic_consistency(&Tabenchmark::new());
        assert!(report.is_semantically_consistent());
    }

    #[test]
    fn read_only_share_of_online_mix_is_80_percent() {
        let w = Tabenchmark::new();
        let mix = w.default_online_mix();
        let ro: u32 = w
            .online_transactions()
            .iter()
            .filter(|t| t.is_read_only())
            .map(|t| mix.weight_of(t.name()))
            .sum();
        assert_eq!(ro * 100 / mix.total_weight(), 80);
    }

    #[test]
    fn all_transactions_and_queries_execute() {
        let (db, workload) = loaded_db();
        let session = db.session();
        let mut rng = StdRng::seed_from_u64(31);
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
        assert!(db.metrics_snapshot().commits >= 13);
    }
}
