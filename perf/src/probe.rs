//! Fixed scripts of direct public calls: the host kernels that run before a
//! round, the route-agreement check, and the layer probes of a traced round.

use crate::spans::Recorder;
use crate::spec::Suite;
use crate::stats;
use crate::Res;
use olxp_engine::{HybridDatabase, WorkClass};
use olxp_query::{execute, AggFunc, AggSpec, ColumnSource, Plan, QueryBuilder, ShardedRowSource};
use olxp_storage::{Key, DEFAULT_BATCH_SIZE};
use std::hint::black_box;
use std::time::Instant;

/// Times of two fixed kernels on this host, taken as a round starts.  They
/// move no engine code, so a shift between two sets of runs says the host
/// drifted, not the program.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// CPU-bound: a dependent chain of integer mixes.
    pub spin_ms: f64,
    /// Memory-bound: a pointer chase through a 16 MiB cycle.
    pub chase_ms: f64,
}

pub fn host_kernels() -> Host {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    let spin_ms = start.elapsed().as_secs_f64() * 1e3;

    // One cycle through every slot (Sattolo's algorithm), so the chase cannot
    // fall into a short loop that fits a cache.
    const SLOTS: usize = 4 << 20;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    black_box(at);
    let chase_ms = start.elapsed().as_secs_f64() * 1e3;
    Host { spin_ms, chase_ms }
}

/// The suite's probe table and one fixed aggregate over it.  Sums run over
/// integer columns only (a decimal sums as a float, whose value depends on
/// the order of addition), so both stores must return the same rows bit for
/// bit.
fn probe_plan(suite: Suite) -> (&'static str, Plan) {
    let (table, group_by, aggregates) = match suite {
        // CHECKING(custid, bal)
        Suite::Fib => (
            "CHECKING",
            vec![],
            vec![(AggFunc::Min, 1), (AggFunc::Max, 1)],
        ),
        // ORDER_LINE(o_id, d_id, w_id, number, i_id, supply_w_id, delivery_d, quantity, amount)
        Suite::Sub => (
            "ORDER_LINE",
            vec![2],
            vec![(AggFunc::Sum, 7), (AggFunc::Max, 8)],
        ),
        // SUBSCRIBER(s_id, sf_type, sub_nbr, ..., msc_location, vlr_location)
        Suite::Tab => (
            "SUBSCRIBER",
            vec![1],
            vec![(AggFunc::Sum, 33), (AggFunc::Max, 32)],
        ),
    };
    let mut specs = vec![AggSpec::new(AggFunc::Count, 0)];
    specs.extend(aggregates.into_iter().map(|(f, c)| AggSpec::new(f, c)));
    (
        table,
        QueryBuilder::scan(table).aggregate(group_by, specs).build(),
    )
}

/// Run the probe plan on the row store and on the drained columnar replica;
/// the two routes of an analytical query must agree.
pub fn routes_agree(db: &HybridDatabase, suite: Suite) -> Res<bool> {
    let (_, plan) = probe_plan(suite);
    let read_ts = db.txn_manager().oracle().read_ts();
    let rows = execute(
        &plan,
        &ShardedRowSource::new(db.sharded_row_tables(), read_ts),
    )?;
    let tables = db.col_tables();
    let cols = execute(&plan, &ColumnSource::new(&tables))?;
    let sorted = |mut rows: Vec<olxp_storage::Row>| {
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        rows
    };
    Ok(sorted(rows.rows) == sorted(cols.rows))
}

/// Read-modify-write transactions of the session probe.
const RMW_TRANSACTIONS: usize = 2_000;
/// Repetitions of each query and scan probe; the median is reported.
const SCAN_PASSES: usize = 5;

fn median_us(mut nanos: Vec<u64>) -> f64 {
    nanos.sort_unstable();
    stats::percentile(&nanos, 0.5) as f64 / 1e3
}

/// The layer probes of a traced round: each calls one layer's public
/// functions directly, under a span of its own, and reports through `put`.
pub fn layers(
    db: &std::sync::Arc<HybridDatabase>,
    suite: Suite,
    rec: &mut Recorder,
    put: &mut dyn FnMut(&str, f64),
) -> Res<()> {
    let (table, plan) = probe_plan(suite);
    let session = db.session();

    // engine.session: begin -> point read -> update (the row back unchanged,
    // so the visible state stays what the list left) -> commit.
    let read_ts = db.txn_manager().oracle().read_ts();
    let mut keys: Vec<Key> = Vec::new();
    db.scan_table(table, read_ts, |key, _| {
        if keys.len() < RMW_TRANSACTIONS {
            keys.push(key.clone());
        }
    })?;
    let mut timings: [Vec<u64>; 4] = Default::default();
    rec.phase("engine.session.rmw", |_| -> Res<()> {
        for i in 0..RMW_TRANSACTIONS {
            let key = &keys[i % keys.len()];
            let t0 = Instant::now();
            let mut txn = session.begin(WorkClass::Oltp);
            let t1 = Instant::now();
            let row = session
                .read(&mut txn, table, key)?
                .ok_or("probe key vanished")?;
            let t2 = Instant::now();
            session.update(&mut txn, table, key, row)?;
            let t3 = Instant::now();
            session.commit(txn)?;
            let t4 = Instant::now();
            for (slot, (from, to)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)].iter().enumerate() {
                timings[slot].push((*to - *from).as_nanos() as u64);
            }
        }
        Ok(())
    })?;
    let [begin, read, update, commit] = timings;
    put("engine.session.begin_us", median_us(begin));
    put("engine.session.point_read_us", median_us(read));
    put("engine.session.update_us", median_us(update));
    put("engine.session.rmw_commit_us", median_us(commit));

    let mut in_txn = Vec::new();
    let mut standalone = Vec::new();
    for _ in 0..SCAN_PASSES {
        let span = rec.begin("engine.session.query_in_txn", crate::spans::NONE);
        let start = Instant::now();
        let mut txn = session.begin(WorkClass::Hybrid);
        black_box(session.query_in_txn(&mut txn, &plan)?);
        session.commit(txn)?;
        in_txn.push(start.elapsed().as_nanos() as u64);
        rec.end(span);

        let span = rec.begin("engine.session.analytical_query", crate::spans::NONE);
        let start = Instant::now();
        black_box(session.analytical_query(&plan)?);
        standalone.push(start.elapsed().as_nanos() as u64);
        rec.end(span);
    }
    put("engine.session.query_in_txn_ms", median_us(in_txn) / 1e3);
    put(
        "engine.session.analytical_query_ms",
        median_us(standalone) / 1e3,
    );

    // storage: one full scan of the probe table per pass, on each store.
    let read_ts = db.txn_manager().oracle().read_ts();
    let row_parts = db.row_partitions(table)?;
    let col_table = db.col_table(table)?;
    let mut row_rates = Vec::new();
    let mut col_rates = Vec::new();
    for _ in 0..SCAN_PASSES {
        let span = rec.begin("storage.rowstore.scan", crate::spans::NONE);
        let start = Instant::now();
        let mut rows = 0usize;
        for part in &row_parts {
            rows += part.scan(read_ts, |_, row| {
                black_box(row);
            });
        }
        row_rates.push(rows as f64 / start.elapsed().as_secs_f64() / 1e6);
        rec.end(span);

        let span = rec.begin("storage.colstore.scan_batches", crate::spans::NONE);
        let start = Instant::now();
        let slots = col_table.scan_batches(None, DEFAULT_BATCH_SIZE, |batch| {
            black_box(batch);
        });
        col_rates.push(slots as f64 / start.elapsed().as_secs_f64() / 1e6);
        rec.end(span);
    }
    put(
        "storage.rowstore.scan_mrows_per_s",
        stats::median(&row_rates),
    );
    put(
        "storage.colstore.scan_mrows_per_s",
        stats::median(&col_rates),
    );
    Ok(())
}
