//! Sessions: the API benchmark threads use to talk to the engine.
//!
//! A [`Session`] corresponds to one JDBC connection of the original OLxPBench
//! client.  It offers three groups of operations:
//!
//! * **transactional statements** (`read`, `select_eq`, `scan_prefix`,
//!   `insert`, `update`, `delete`) executed inside a [`TxnHandle`];
//! * **real-time queries inside a transaction** ([`Session::query_in_txn`]) —
//!   the defining ingredient of the paper's hybrid transactions, always served
//!   by the row store because "the SQL engine can only choose a row-based
//!   store or column-based store to handle the hybrid transaction" (§V-B2);
//! * **standalone analytical queries** ([`Session::analytical_query`]) routed
//!   to the columnar replicas or the row store depending on the architecture.
//!
//! Every operation performs the real data manipulation on the in-memory
//! stores, then reports what it did once to [`crate::model::Model::charge`],
//! which prices it and — at `time_scale > 0` — is where queueing (and
//! therefore interference) happens.  Nothing here knows a cost constant or a
//! simulated node.

use crate::config::FreshnessPolicy;
use crate::database::{AnalyticalRoute, HybridDatabase};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{FreshnessSample, WorkClass};
use crate::model::{Placement, Work};
use olxp_query::{execute, ColumnSource, ExecStats, Plan, QueryOutput, ShardedRowSource};
use olxp_storage::{Key, Row, StorageError, Timestamp, Value, WalOp};
use olxp_trace::SpanCategory;
use olxp_txn::{IsolationLevel, Transaction, TxnError};
use parking_lot::RwLockReadGuard;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open transaction plus its engine-side bookkeeping.
#[derive(Debug)]
pub struct TxnHandle {
    txn: Transaction,
    class: WorkClass,
    /// Where each write-set op lives, index for index: computed once by the
    /// statement that buffered the op and read by everything after it.
    placements: Vec<Placement>,
}

impl TxnHandle {
    /// The work class this transaction is accounted under.
    pub fn class(&self) -> WorkClass {
        self.class
    }

    /// The underlying transaction (read-only access for tests/metrics).
    pub fn txn(&self) -> &Transaction {
        &self.txn
    }
}

/// A connection to a [`HybridDatabase`].
#[derive(Debug, Clone)]
pub struct Session {
    db: Arc<HybridDatabase>,
}

impl Session {
    /// Create a session (use [`HybridDatabase::session`]).
    pub(crate) fn new(db: Arc<HybridDatabase>) -> Session {
        Session { db }
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<HybridDatabase> {
        &self.db
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begin a transaction of the given work class at the engine's default
    /// isolation level.
    pub fn begin(&self, class: WorkClass) -> TxnHandle {
        self.begin_with_isolation(class, self.db.config().default_isolation())
    }

    /// Begin a transaction with an explicit isolation level.
    pub fn begin_with_isolation(&self, class: WorkClass, isolation: IsolationLevel) -> TxnHandle {
        TxnHandle {
            txn: self.db.txn_manager().begin(isolation),
            class,
            placements: Vec::new(),
        }
    }

    /// Commit a transaction.
    ///
    /// The commit runs as named stages over one `CommitCtx`, in this order:
    /// validate (snapshot isolation's first committer wins) → open (each
    /// touched shard's commit gate, then the commit timestamp) → log (per
    /// shard, Begin + Mutations, plus Prepare when cross-shard) →
    /// prepare-force (two-phase commit only) → install (row store and
    /// replication feed) → markers → release the gates → sync.
    ///
    /// A transaction whose write set touches a single shard commits entirely
    /// within that shard: its gate, its WAL stream, its fsync queue — no
    /// global coordination.  A cross-shard transaction runs two-phase commit:
    /// every touched shard's mutations and Prepare record are forced durable
    /// before any shard logs its Commit marker, all under the transaction's
    /// one id.  Recovery replays a prepared transaction iff any shard's
    /// stream holds its Commit marker, so a crash between one shard's marker
    /// and another's can never half-commit.
    ///
    /// Every failure before the write set is installed takes one exit: the
    /// gates are released and the transaction aborts.  On a durable engine
    /// the commit blocks until its markers are durable per the configured
    /// [`olxp_storage::SyncPolicy`].  A WAL I/O failure *after* the install
    /// finishes the commit in memory (the installed and replicated effects
    /// cannot be undone) and returns the storage error: such an error means
    /// the commit's durability is unknown and the engine's disk should be
    /// treated as failed — it is not retryable.
    pub fn commit(&self, mut handle: TxnHandle) -> EngineResult<()> {
        let db = &*self.db;
        let mgr = db.txn_manager();
        if handle.txn.write_set().is_empty() {
            mgr.finish_commit(&mut handle.txn)?;
            db.note_commit();
            return Ok(());
        }
        let ops = std::mem::take(handle.txn.write_set_mut()).into_ops();
        let placements = std::mem::take(&mut handle.placements);
        debug_assert_eq!(ops.len(), placements.len(), "one placement per write");

        let mut ctx = CommitCtx::new(db, &placements, handle.txn.id(), olxp_trace::enabled());
        let installed = ctx
            .validate(&handle.txn, &ops, &placements)
            .and_then(|()| ctx.open(|| Ok(mgr.prepare_commit(&handle.txn)?)))
            .and_then(|()| ctx.log(&ops, &placements))
            .and_then(|()| ctx.prepare_force())
            .and_then(|()| ctx.install(ops, &placements));
        if let Err(e) = installed {
            // Nothing is acknowledged: records already logged have no Commit
            // marker on any shard, so recovery presumes them aborted.
            drop(ctx);
            mgr.abort(&mut handle.txn);
            db.note_abort();
            return Err(e);
        }
        let marked = ctx.markers();
        ctx.release();
        let durable = marked.and_then(|()| ctx.sync());
        mgr.finish_commit(&mut handle.txn)?;
        if let Err(e) = durable {
            // Finished in memory, consistent with what readers and replicas
            // already see; the durability fault goes to the caller.
            db.note_commit();
            return Err(e);
        }
        db.model().charge(
            handle.class,
            Work::Commit {
                writes: &placements,
                shards: &ctx.shards,
                wal_forced: ctx.durable,
            },
        );
        db.metrics().add_shard_commits(&ctx.shards);
        db.note_commit();
        ctx.finish_trace();
        // Runs outside the commit gate: the checkpoint takes it exclusively.
        db.maybe_checkpoint();
        Ok(())
    }

    /// Roll back a transaction.
    pub fn abort(&self, mut handle: TxnHandle) {
        self.db.txn_manager().abort(&mut handle.txn);
        self.db.note_abort();
    }

    /// Run `body` inside a transaction with automatic retry of retryable
    /// failures (wait-die aborts, lock timeouts and write conflicts), the way
    /// the OLxPBench client re-submits aborted transactions.
    pub fn run_transaction<T>(
        &self,
        class: WorkClass,
        max_attempts: usize,
        mut body: impl FnMut(&Session, &mut TxnHandle) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut last_err = None;
        for _ in 0..max_attempts.max(1) {
            let mut handle = self.begin(class);
            match body(self, &mut handle) {
                Ok(value) => match self.commit(handle) {
                    Ok(()) => return Ok(value),
                    Err(e) if e.is_retryable() => {
                        last_err = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    self.abort(handle);
                    last_err = Some(e);
                    continue;
                }
                Err(e) => {
                    self.abort(handle);
                    return Err(e);
                }
            }
        }
        Err(last_err.unwrap_or(EngineError::Txn(TxnError::InvalidState {
            operation: "retry",
            state: "exhausted",
        })))
    }

    // ------------------------------------------------------------------
    // Transactional statements
    // ------------------------------------------------------------------

    /// Point read by primary key.
    pub fn read(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: &Key,
    ) -> EngineResult<Option<Row>> {
        self.note_statement(handle);
        let at = self.db.model().place(table, key);
        // Read-your-own-writes.
        let row = match handle.txn.write_set().effective_row(table, key) {
            Some(effect) => effect.cloned(),
            None => {
                let row_table = self.db.row_partition(at.shard, table)?;
                let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
                self.db.metrics().add_row_rows_scanned(1);
                row_table.get(key, read_ts).map(|r| Row::clone(&r))
            }
        };
        self.db
            .model()
            .charge(handle.class, Work::PointRead { table, at });
        Ok(row)
    }

    /// Equality lookup on arbitrary columns.
    ///
    /// If the columns form a prefix of the primary key or of a secondary
    /// index, the lookup is served by an index seek; otherwise it degenerates
    /// into a full scan — on the SSD-backed dual engine an *index full scan of
    /// random reads*, which is the paper's composite-primary-key bottleneck
    /// (§VI-C1).
    pub fn select_eq(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        columns: &[&str],
        values: &[Value],
    ) -> EngineResult<Vec<Row>> {
        self.note_statement(handle);
        let partitions = self.db.row_partitions(table)?;
        let schema = Arc::clone(partitions[0].schema());
        let positions = schema.column_indices(columns)?;
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let lookup_key = Key::new(values.to_vec());

        // Primary-key prefix?
        let pk = schema.primary_key();
        let mut rows = Vec::new();
        let (examined, work) = if positions.len() <= pk.len()
            && pk[..positions.len()] == positions[..]
        {
            let at = self.db.model().place(table, &lookup_key);
            let examined: usize = if positions.len() == pk.len() {
                // A complete primary key routes to exactly one shard.
                partitions[at.shard].prefix_scan(&lookup_key, read_ts, |_, row| {
                    rows.push(Row::clone(row));
                })
            } else {
                // A strict prefix hashes differently from the full keys it
                // covers, so every shard's partition must be consulted.
                partitions
                    .iter()
                    .map(|part| {
                        part.prefix_scan(&lookup_key, read_ts, |_, row| {
                            rows.push(Row::clone(row));
                        })
                    })
                    .sum()
            };
            let work = Work::IndexRange {
                at,
                fetched: 0,
                // The first row is the seek itself.
                scanned: examined.saturating_sub(1) as u64,
            };
            (examined, work)
        } else if let Some(pos) = schema.indexes().iter().position(|idx| {
            positions.len() <= idx.columns.len() && idx.columns[..positions.len()] == positions[..]
        }) {
            // Secondary-index prefix.
            let mut examined = 0;
            for part in &partitions {
                let (pairs, part_examined) = part.index_lookup(pos, &lookup_key, read_ts)?;
                rows.extend(pairs.into_iter().map(|(_, r)| Row::clone(&r)));
                examined += part_examined;
            }
            let work = Work::IndexRange {
                at: self.db.model().place(table, &lookup_key),
                fetched: rows.len() as u64,
                scanned: examined as u64,
            };
            (examined, work)
        } else {
            // No usable index: full scan of every shard's partition.
            let examined: usize = partitions
                .iter()
                .map(|part| {
                    part.scan(read_ts, |_, row| {
                        let matches = positions
                            .iter()
                            .zip(values)
                            .all(|(&p, v)| row.get(p) == Some(v));
                        if matches {
                            rows.push(Row::clone(row));
                        }
                    })
                })
                .sum();
            let work = Work::FullScan {
                table,
                rows: examined as u64,
            };
            (examined, work)
        };
        self.db.metrics().add_row_rows_scanned(examined as u64);
        self.db.model().charge(handle.class, work);
        Ok(rows)
    }

    /// Range scan over a primary-key prefix (e.g. all order lines of an
    /// order).
    pub fn scan_prefix(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        prefix: &Key,
    ) -> EngineResult<Vec<Row>> {
        self.note_statement(handle);
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let mut rows = Vec::new();
        // A prefix hashes differently from the full keys under it, so the
        // scan consults every shard's partition.
        let examined: usize = self
            .db
            .row_partitions(table)?
            .iter()
            .map(|part| {
                part.prefix_scan(prefix, read_ts, |_, row| {
                    rows.push(Row::clone(row));
                })
            })
            .sum();
        self.db.metrics().add_row_rows_scanned(examined as u64);
        self.db.model().charge(
            handle.class,
            Work::IndexRange {
                at: self.db.model().place(table, prefix),
                fetched: 0,
                scanned: examined as u64,
            },
        );
        Ok(rows)
    }

    /// Buffer an insert.
    pub fn insert(&self, handle: &mut TxnHandle, table: &str, row: Row) -> EngineResult<()> {
        self.note_statement(handle);
        let schema = self.db.catalog().table(table)?;
        schema.validate_row(&row)?;
        let key = schema.primary_key_of(&row);
        self.write(handle, table, key, Some(row), true)
    }

    /// Buffer an update of an existing row.
    pub fn update(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: &Key,
        row: Row,
    ) -> EngineResult<()> {
        self.note_statement(handle);
        self.write(handle, table, key.clone(), Some(row), false)
    }

    /// Buffer a delete of an existing row.
    pub fn delete(&self, handle: &mut TxnHandle, table: &str, key: &Key) -> EngineResult<()> {
        self.note_statement(handle);
        self.write(handle, table, key.clone(), None, false)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Execute a real-time query *inside* a transaction (the hybrid
    /// transaction pattern).  Always runs on the row store at the
    /// transaction's snapshot; on the single engine the vertical-partitioning
    /// penalty applies.
    pub fn query_in_txn(&self, handle: &mut TxnHandle, plan: &Plan) -> EngineResult<QueryOutput> {
        self.note_statement(handle);
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        self.run_on_row_store(plan, read_ts, handle.class, false)
    }

    /// Execute `plan` on the row store at `read_ts` and report it.
    fn run_on_row_store(
        &self,
        plan: &Plan,
        read_ts: olxp_storage::Timestamp,
        class: WorkClass,
        standalone: bool,
    ) -> EngineResult<QueryOutput> {
        let source = ShardedRowSource::new(self.db.sharded_row_tables(), read_ts);
        let output = execute(plan, &source)?;
        self.note_query_batches(&output.stats);
        self.db
            .metrics()
            .add_row_rows_scanned(output.stats.rows_scanned);
        let work = Work::RowPlan {
            plan,
            stats: &output.stats,
            standalone,
        };
        self.db.model().charge(class, work);
        Ok(output)
    }

    /// Execute a standalone analytical query (no enclosing transaction).
    ///
    /// On the dual engine the query is usually served by the columnar replicas
    /// on the analytical nodes; a configurable fraction is served by the row
    /// store, and both the single-engine and shared-nothing archetypes always
    /// compete with OLTP for the same nodes.
    ///
    /// Column-store reads honour the configured [`FreshnessPolicy`]: the read
    /// first waits (or synchronously catches the replica up) until the bound
    /// holds, then records the freshness it actually observed in the output's
    /// [`ExecStats`] and the engine metrics.  A replica that cannot satisfy
    /// the bound within the configured timeout — or a replication step that
    /// fails outright — surfaces as an error instead of silently degrading to
    /// stale answers.
    pub fn analytical_query(&self, plan: &Plan) -> EngineResult<QueryOutput> {
        self.db.metrics().add_statement(WorkClass::Olap);
        match self.db.route_analytical() {
            AnalyticalRoute::ColumnStore => {
                let fresh_start = if olxp_trace::enabled() {
                    Some(olxp_trace::now_nanos())
                } else {
                    None
                };
                let freshness = self.ensure_freshness()?;
                if let Some(start) = fresh_start {
                    olxp_trace::record_span(SpanCategory::FreshnessWait, 0, 0, start);
                    self.db.metrics().record_stage(
                        SpanCategory::FreshnessWait,
                        olxp_trace::now_nanos().saturating_sub(start),
                    );
                }
                let tables = self.db.col_tables();
                let source = ColumnSource::new(&tables);
                let mut output = execute(plan, &source)?;
                output.stats.freshness_lag_records = freshness.lag_records;
                self.db.metrics().record_freshness(freshness);
                self.note_query_batches(&output.stats);
                self.db
                    .metrics()
                    .add_col_rows_scanned(output.stats.rows_scanned);
                self.db.model().charge(
                    WorkClass::Olap,
                    Work::ColumnPlan {
                        stats: &output.stats,
                    },
                );
                Ok(output)
            }
            AnalyticalRoute::RowStore => {
                let read_ts = self.db.txn_manager().oracle().read_ts();
                let output = self.run_on_row_store(plan, read_ts, WorkClass::Olap, true)?;
                // The row store is the authoritative copy: zero staleness.
                self.db
                    .metrics()
                    .record_freshness(FreshnessSample::default());
                Ok(output)
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The replication lag in records, summed across every shard's pipeline.
    ///
    /// Per shard, the appended watermark is read *before* the applied
    /// watermark, and applied watermarks only grow, so the computed lag never
    /// exceeds the true lag at the moment the appended side was sampled.  A
    /// sample that satisfies a bound therefore proves the bound held.
    fn freshness_now(&self) -> FreshnessSample {
        FreshnessSample {
            lag_records: self
                .db
                .replication_logs()
                .iter()
                .map(|log| log.lag_records())
                .sum(),
        }
    }

    /// Wait until the configured freshness bound holds, then return the
    /// freshness observed at that moment.
    ///
    /// The read only parks on the shards' applied watermarks: the per-shard
    /// appliers are the one thing that applies replication.  A bound that
    /// does not hold within the timeout — a stalled, broken or stopped
    /// applier — surfaces as [`EngineError::FreshnessTimeout`], so a broken
    /// replica never degrades silently to stale answers.
    fn ensure_freshness(&self) -> EngineResult<FreshnessSample> {
        let policy = self.db.config().freshness;
        if let FreshnessPolicy::Eventual = policy {
            return Ok(self.freshness_now());
        }
        let logs = self.db.replication_logs();

        // Strict pins every shard's watermark at entry: everything committed
        // before the read started must be visible, later commits need not be.
        let strict_targets: Vec<u64> = logs.iter().map(|l| l.last_appended_lsn()).collect();
        let satisfied = || -> Option<FreshnessSample> {
            let holds = match policy {
                FreshnessPolicy::Eventual => true,
                FreshnessPolicy::BoundedRecords(n) => {
                    // The bound is on the very quantity the read reports, so
                    // the sample that proves it is the one returned: writers
                    // can push a second sample past it.
                    let sample = self.freshness_now();
                    return (sample.lag_records <= n).then_some(sample);
                }
                FreshnessPolicy::BoundedNanos(bound) => logs.iter().all(|log| {
                    // The queue alone cannot prove the bound: the applier
                    // drains records in batches before applying them, and the
                    // age of those in-flight records is unknown.  The queue
                    // front's age counts only when every unapplied record is
                    // still queued (pending covers the whole lag); otherwise
                    // only a zero record lag proves the bound.  The queue is
                    // snapshotted *before* the lag watermarks: appends in
                    // between then inflate the lag, never the pending count,
                    // so an in-flight old record can only make the check
                    // fail, not pass.
                    let (pending, age) = log.queue_snapshot();
                    let lag = log.lag_records();
                    match age {
                        Some(age) => pending as u64 >= lag && age.as_nanos() as u64 <= bound,
                        None => lag == 0,
                    }
                }),
                FreshnessPolicy::Strict => logs
                    .iter()
                    .zip(&strict_targets)
                    .all(|(log, &target)| log.last_applied_lsn() >= target),
            };
            holds.then(|| self.freshness_now())
        };

        let timeout = Duration::from_millis(self.db.config().freshness_timeout_ms);
        let started = Instant::now();
        let deadline = started + timeout;
        loop {
            if let Some(sample) = satisfied() {
                return Ok(sample);
            }
            let now = Instant::now();
            if now >= deadline {
                let sample = self.freshness_now();
                self.db.metrics().add_freshness_timeout();
                return Err(EngineError::FreshnessTimeout {
                    policy: policy.describe(),
                    lag_records: sample.lag_records,
                    waited_ms: now.duration_since(started).as_millis() as u64,
                });
            }
            // Park until an applied watermark reaches the LSN that satisfies
            // the bound (re-sampled each iteration: writers may keep
            // appending).  Record- and LSN-based bounds only change when a
            // watermark moves, so they can sleep until the deadline;
            // time-based bounds also change with wall time and re-check
            // every millisecond.
            let budget = deadline - now;
            match policy {
                FreshnessPolicy::BoundedNanos(_) => {
                    let log = logs
                        .iter()
                        .max_by_key(|l| l.lag_records())
                        .expect("at least one shard");
                    log.wait_for_applied(
                        log.last_applied_lsn() + 1,
                        Duration::from_millis(1).min(budget),
                    );
                }
                FreshnessPolicy::BoundedRecords(n) => {
                    // The other shards' lag eats into the laggiest shard's
                    // allowance: the total stays within the bound only once
                    // this shard's lag shrinks to whatever the rest leaves
                    // over.  (One sample per shard: lag moves under the
                    // writers, and a second look could exceed the sum.)
                    let lags: Vec<u64> = logs.iter().map(|l| l.lag_records()).collect();
                    let (laggiest, worst) = lags
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, &lag)| lag)
                        .expect("at least one shard");
                    let others = lags.iter().sum::<u64>() - worst;
                    let allowance = n.saturating_sub(others);
                    let log = &logs[laggiest];
                    log.wait_for_applied(log.last_appended_lsn().saturating_sub(allowance), budget);
                }
                _ => {
                    if let Some((i, log)) = logs
                        .iter()
                        .enumerate()
                        .find(|(i, l)| l.last_applied_lsn() < strict_targets[*i])
                    {
                        log.wait_for_applied(strict_targets[i], budget);
                    }
                }
            }
        }
    }

    /// Account the batches a query streamed through the vectorized executor
    /// and the chunk pruning its columnar scans performed (row-store scans
    /// report no chunk activity, so this is a no-op for them).
    fn note_query_batches(&self, stats: &ExecStats) {
        if stats.batches_scanned > 0 {
            self.db.metrics().add_query_batches(stats.batches_scanned);
        }
        self.db.metrics().add_chunk_pruning(
            stats.chunks_scanned,
            stats.chunks_pruned_zonemap,
            stats.rows_pruned_encoded,
        );
        // Operator timings only exist while tracing is enabled; one stage
        // histogram entry per operator node the plan executed.
        if !stats.operator_nanos.is_empty() {
            let durations: Vec<(SpanCategory, u64)> = stats
                .operator_nanos
                .iter()
                .map(|&nanos| (SpanCategory::QueryOperator, nanos))
                .collect();
            self.db.metrics().record_stages(&durations);
        }
    }

    fn note_statement(&self, handle: &TxnHandle) {
        self.db.metrics().add_statement(handle.class);
    }

    /// Every write statement: place the key (the statement's one hash), check
    /// an update's image against the schema and `key` (an insert's image was
    /// checked to derive its key), take the write lock on the owning shard,
    /// require that the transaction currently sees a row there — its own
    /// latest write if it has one, else the row visible at its statement
    /// snapshot — or, for an insert, that it sees none, and buffer the write
    /// beside its placement.  These are the write's only checks: the commit
    /// installs it as is.  The write itself is charged at commit; the
    /// statement is charged here.
    fn write(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: Key,
        row: Option<Row>,
        inserting: bool,
    ) -> EngineResult<()> {
        let at = self.db.model().place(table, &key);
        let row_table = self.db.row_partition(at.shard, table)?;
        if let (Some(row), false) = (&row, inserting) {
            row_table.schema().validate_image(&key, row)?;
        }
        self.lock(handle, table, &key, at.shard)?;
        let exists = match handle.txn.write_set().effective_row(table, &key) {
            Some(effect) => effect.is_some(),
            None => {
                let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
                row_table.get(&key, read_ts).is_some()
            }
        };
        if exists == inserting {
            let (table, key) = (table.to_string(), key.to_string());
            return Err(EngineError::Storage(if inserting {
                StorageError::DuplicateKey { table, key }
            } else {
                StorageError::KeyNotFound { table, key }
            }));
        }
        let txn = handle.txn.id();
        self.db
            .model()
            .charge(handle.class, Work::WriteStatement { table, txn });
        let table = table.to_string();
        handle.txn.write_set_mut().push(WalOp { table, key, row });
        handle.placements.push(at);
        Ok(())
    }

    /// Take the write lock on `(table, key)`, charging the wait to `shard`,
    /// the shard the row routes to.
    fn lock(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: &Key,
        shard: usize,
    ) -> EngineResult<()> {
        let waited = self
            .db
            .txn_manager()
            .lock_for_write(&mut handle.txn, table, key)?;
        // The per-shard lock-wait counters stay on regardless of tracing (the
        // shards experiment reads them); the span and histogram are gated.
        self.db.metrics().add_lock_wait(shard, waited);
        if olxp_trace::enabled() {
            olxp_trace::record_span(
                SpanCategory::Lock,
                shard as u32,
                handle.txn.id(),
                olxp_trace::now_nanos().saturating_sub(waited),
            );
            self.db.metrics().record_stage(SpanCategory::Lock, waited);
        }
        Ok(())
    }
}

/// Per-stage timing of one traced commit.
struct StageClock {
    /// When the commit started.
    started: u64,
    /// When the stage being timed started.
    stage_start: u64,
    /// Nanoseconds accumulated per span category.
    stage_nanos: [u64; SpanCategory::COUNT],
}

/// One commit in flight: the state its stages share.  [`Session::commit`]
/// runs every stage; [`HybridDatabase::load_row`] runs open → log → install →
/// markers on its one shard and leaves the sync to `finish_load`.
pub(crate) struct CommitCtx<'db> {
    db: &'db HybridDatabase,
    /// Shards the write set touches, ascending: the global gate order (the
    /// checkpointer uses it too, so gate acquisition cannot deadlock).
    shards: Vec<usize>,
    /// Read holds on the touched shards' commit gates (durable engines),
    /// from before the timestamp through the last commit marker.
    gates: Vec<RwLockReadGuard<'db, ()>>,
    durable: bool,
    /// The transaction's one id: WAL records and spans.
    txn_id: u64,
    commit_ts: Timestamp,
    /// The LSN the next force waits for, per touched shard: Prepare records
    /// after the log stage, Commit markers after the markers stage.
    lsns: Vec<u64>,
    /// WAL records logged (feeds the checkpoint trigger).
    wal_records: u64,
    /// `None` while tracing is off: then no stage reads the clock.
    clock: Option<StageClock>,
}

impl<'db> CommitCtx<'db> {
    /// A commit of writes placed at `placements`, under `txn_id`.
    pub(crate) fn new(
        db: &'db HybridDatabase,
        placements: &[Placement],
        txn_id: u64,
        traced: bool,
    ) -> CommitCtx<'db> {
        let mut shards: Vec<usize> = placements.iter().map(|at| at.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        CommitCtx {
            db,
            shards,
            gates: Vec::new(),
            durable: db.is_durable(),
            txn_id,
            commit_ts: 0,
            lsns: Vec::new(),
            wal_records: 0,
            clock: traced.then(|| {
                let now = olxp_trace::now_nanos();
                StageClock {
                    started: now,
                    stage_start: now,
                    stage_nanos: [0; SpanCategory::COUNT],
                }
            }),
        }
    }

    fn stage_start(&mut self) {
        if let Some(clock) = &mut self.clock {
            clock.stage_start = olxp_trace::now_nanos();
        }
    }

    /// Close the stage timed since [`Self::stage_start`]: its span on
    /// `shard`, and its share of the breakdown.
    fn stage_end(&mut self, category: SpanCategory, shard: usize) {
        if let Some(clock) = &mut self.clock {
            olxp_trace::record_span(category, shard as u32, self.txn_id, clock.stage_start);
            let nanos = olxp_trace::now_nanos().saturating_sub(clock.stage_start);
            clock.stage_nanos[category.index()] += nanos;
        }
    }

    /// Snapshot isolation's first committer wins: each written key is checked
    /// against the shard partition that owns it.
    fn validate(
        &self,
        txn: &Transaction,
        ops: &[WalOp],
        placements: &[Placement],
    ) -> EngineResult<()> {
        if !txn.isolation().validates_write_conflicts() {
            return Ok(());
        }
        for (op, at) in ops.iter().zip(placements) {
            let latest = self
                .db
                .row_partition(at.shard, &op.table)?
                .latest_commit_ts(&op.key);
            if latest.is_some_and(|ts| ts > txn.begin_read_ts()) {
                let (table, key) = (op.table.clone(), op.key.to_string());
                return Err(TxnError::WriteConflict { table, key }.into());
            }
        }
        Ok(())
    }

    /// Take every touched shard's commit gate (durable engines), then the
    /// commit timestamp: a checkpoint's exclusive `(commit_ts, LSN)` cut can
    /// then never land between this timestamp and its WAL records on any
    /// shard — the invariant recovery's replay filter depends on.
    pub(crate) fn open(
        &mut self,
        timestamp: impl FnOnce() -> EngineResult<Timestamp>,
    ) -> EngineResult<()> {
        if self.durable {
            let db = self.db;
            self.gates = self
                .shards
                .iter()
                .map(|&s| db.commit_gate_read_for(s))
                .collect();
        }
        self.commit_ts = timestamp()?;
        Ok(())
    }

    /// Write ahead, before any install: on each touched shard, Begin and that
    /// shard's Mutations in statement order, then a Prepare when the commit
    /// crosses shards.  Single-shard commits skip the Prepare and its forced
    /// sync, so their flow is the unsharded engine's.
    pub(crate) fn log(&mut self, ops: &[WalOp], placements: &[Placement]) -> EngineResult<()> {
        if !self.durable {
            return Ok(());
        }
        let cross_shard = self.shards.len() > 1;
        for i in 0..self.shards.len() {
            let shard = self.shards[i];
            self.stage_start();
            let mine = ops
                .iter()
                .zip(placements)
                .filter(|(_, at)| at.shard == shard)
                .map(|(op, _)| op);
            let wal = self.db.wal_for_shard(shard);
            self.wal_records += wal.log_mutations(self.txn_id, mine, self.commit_ts)? + 1;
            if cross_shard {
                self.lsns.push(wal.log_prepare(self.txn_id)?);
                self.wal_records += 1;
            }
            self.stage_end(SpanCategory::WalAppend, shard);
        }
        Ok(())
    }

    /// The 2PC log force: every shard's Prepare (and the mutations before it)
    /// durable before *any* shard logs a Commit marker.  Otherwise a crash
    /// could expose a marker on one shard while a sibling never persisted the
    /// transaction, and the in-doubt rule would have nothing to replay there.
    fn prepare_force(&mut self) -> EngineResult<()> {
        self.force(SpanCategory::TwoPcPrepare)
    }

    /// Install each write into its shard's row-table partition at the commit
    /// timestamp and queue it on that shard's replication log: one key and
    /// row image copy, for the row store; the replication record takes the
    /// op itself.
    pub(crate) fn install(
        &mut self,
        ops: impl IntoIterator<Item = WalOp>,
        placements: &[Placement],
    ) -> EngineResult<()> {
        self.stage_start();
        let ts = self.commit_ts;
        for (op, at) in ops.into_iter().zip(placements) {
            self.db
                .row_partition(at.shard, &op.table)?
                .install(op.key.clone(), op.row.clone(), ts);
            self.db.replication_for(at.shard).append(op);
        }
        // One install span per commit, tagged with the first touched shard.
        self.stage_end(SpanCategory::Install, self.shards[0]);
        Ok(())
    }

    /// Each touched shard's Commit marker — a cross-shard commit's 2PC
    /// decision — whose LSNs the sync stage waits on.
    pub(crate) fn markers(&mut self) -> EngineResult<()> {
        if !self.durable {
            return Ok(());
        }
        let category = if self.shards.len() > 1 {
            SpanCategory::TwoPcCommit
        } else {
            SpanCategory::WalAppend
        };
        self.lsns.clear();
        for i in 0..self.shards.len() {
            let shard = self.shards[i];
            self.stage_start();
            let wal = self.db.wal_for_shard(shard);
            self.lsns.push(wal.log_commit(self.txn_id, self.commit_ts)?);
            self.wal_records += 1;
            self.stage_end(category, shard);
        }
        self.db.note_wal_records(self.wal_records);
        Ok(())
    }

    /// Drop the commit gates once the last marker is logged: the sync wait
    /// must not hold up a checkpoint.
    fn release(&mut self) {
        self.gates.clear();
    }

    /// Block until every marker is durable per the sync policy (each shard's
    /// group-commit coordinator batches concurrent committers into shared
    /// fsyncs).  The row locks are still held, so per-key WAL order matches
    /// commit-timestamp order.
    fn sync(&mut self) -> EngineResult<()> {
        self.force(SpanCategory::Fsync)
    }

    /// Wait until each touched shard's stream is durable through its entry
    /// in `lsns` (none is there before the markers of a single-shard commit).
    fn force(&mut self, category: SpanCategory) -> EngineResult<()> {
        for i in 0..self.lsns.len() {
            let shard = self.shards[i];
            self.stage_start();
            self.db.wal_for_shard(shard).sync_to(self.lsns[i])?;
            self.stage_end(category, shard);
        }
        Ok(())
    }

    /// Tracing epilogue of a successful commit: the whole-commit span and one
    /// stage-histogram update under a single lock hold.  Lock waits happened
    /// during the statements and were recorded per acquisition in `lock()`.
    fn finish_trace(self) {
        let Some(clock) = self.clock else { return };
        let mut stage_nanos = clock.stage_nanos;
        stage_nanos[SpanCategory::Commit.index()] =
            olxp_trace::now_nanos().saturating_sub(clock.started);
        let shard = self.shards[0] as u32;
        olxp_trace::record_span(SpanCategory::Commit, shard, self.txn_id, clock.started);
        let stages: Vec<(SpanCategory, u64)> = olxp_trace::ALL_CATEGORIES
            .iter()
            .map(|&c| (c, stage_nanos[c.index()]))
            .filter(|&(c, nanos)| nanos > 0 || c == SpanCategory::Commit)
            .collect();
        self.db.metrics().record_stages(&stages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use olxp_query::{col, lit, AggFunc, AggSpec, QueryBuilder};
    use olxp_storage::{ColumnDef, DataType, TableSchema, DEFAULT_BATCH_SIZE};
    use olxp_trace::SpanCategory;

    fn test_db(mut config: EngineConfig) -> Arc<HybridDatabase> {
        config.time_scale = 0.0; // disable real delays in unit tests
        let db = HybridDatabase::new(config).unwrap();
        db.create_table(
            TableSchema::new(
                "ITEM",
                vec![
                    ColumnDef::new("i_id", DataType::Int, false),
                    ColumnDef::new("i_name", DataType::Str, false),
                    ColumnDef::new("i_price", DataType::Decimal, false),
                ],
                vec!["i_id"],
            )
            .unwrap()
            .with_index("idx_item_name", vec!["i_name"], false)
            .unwrap(),
        )
        .unwrap();
        for i in 0..200i64 {
            db.load_row(
                "ITEM",
                Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("item-{}", i % 10)),
                    Value::Decimal(100 + i),
                ]),
            )
            .unwrap();
        }
        db.finish_load().unwrap();
        db
    }

    #[test]
    fn insert_read_commit_roundtrip() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .insert(
                &mut txn,
                "ITEM",
                Row::new(vec![
                    Value::Int(1000),
                    Value::Str("new-item".into()),
                    Value::Decimal(999),
                ]),
            )
            .unwrap();
        // Read-your-own-writes before commit.
        let row = session.read(&mut txn, "ITEM", &Key::int(1000)).unwrap();
        assert!(row.is_some());
        session.commit(txn).unwrap();

        let mut txn2 = session.begin(WorkClass::Oltp);
        let row = session.read(&mut txn2, "ITEM", &Key::int(1000)).unwrap();
        assert_eq!(row.unwrap()[2], Value::Decimal(999));
        session.commit(txn2).unwrap();
        assert!(db.metrics_snapshot().commits >= 2);
    }

    #[test]
    fn duplicate_insert_is_rejected_at_statement_time() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        let err = session.insert(
            &mut txn,
            "ITEM",
            Row::new(vec![
                Value::Int(5),
                Value::Str("x".into()),
                Value::Decimal(1),
            ]),
        );
        assert!(matches!(
            err,
            Err(EngineError::Storage(StorageError::DuplicateKey { .. }))
        ));
        session.abort(txn);
    }

    #[test]
    fn update_then_analytical_query_sees_replicated_data() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(3),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("item-3".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();
        // Drain replication so the column store has the update before the
        // routed queries (which alternate between both engines) observe it.
        db.finish_load().unwrap();

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        for _ in 0..10 {
            let out = session.analytical_query(&plan).unwrap();
            let min_price = out.rows[0][0].as_f64();
            assert_eq!(min_price, Some(0.01), "replicated update is visible");
        }
    }

    #[test]
    fn select_eq_uses_index_or_scan() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        // Primary-key lookup.
        let rows = session
            .select_eq(&mut txn, "ITEM", &["i_id"], &[Value::Int(7)])
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Secondary-index lookup.
        let rows = session
            .select_eq(
                &mut txn,
                "ITEM",
                &["i_name"],
                &[Value::Str("item-3".into())],
            )
            .unwrap();
        assert_eq!(rows.len(), 20);
        // Non-indexed lookup degenerates to a scan but still answers.
        let rows = session
            .select_eq(&mut txn, "ITEM", &["i_price"], &[Value::Decimal(150)])
            .unwrap();
        assert_eq!(rows.len(), 1);
        session.commit(txn).unwrap();
        assert!(db.metrics_snapshot().row_rows_scanned >= 200);
    }

    #[test]
    fn hybrid_query_in_txn_runs_on_row_store() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Hybrid);
        let plan = QueryBuilder::scan("ITEM")
            .filter(col(1).eq(lit("item-3")))
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        let out = session.query_in_txn(&mut txn, &plan).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.stats.rows_scanned >= 200);
        session.commit(txn).unwrap();
        let snapshot = db.metrics_snapshot();
        assert!(snapshot.busy_nanos[2] > 0, "hybrid work is accounted");
    }

    #[test]
    fn single_engine_charges_vertical_partition_penalty_for_hybrid() {
        let single = test_db(EngineConfig::single_engine());
        let dual = test_db(EngineConfig::dual_engine());
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();

        let run = |db: &Arc<HybridDatabase>| -> u64 {
            let session = db.session();
            let mut txn = session.begin(WorkClass::Hybrid);
            session.query_in_txn(&mut txn, &plan).unwrap();
            session.commit(txn).unwrap();
            db.metrics_snapshot().busy_nanos[2]
        };
        let single_busy = run(&single);
        let dual_busy = run(&dual);
        // The single engine's hybrid statement is penalised enough to overcome
        // its memory-speed scan advantage.
        assert!(
            single_busy > dual_busy,
            "single {single_busy} should exceed dual {dual_busy}"
        );
    }

    #[test]
    fn queries_stream_batches_per_configured_batch_size() {
        let db = test_db(EngineConfig::dual_engine());
        // Past `test_db`'s 200 rows: 2148 in all, three batches on one shard.
        for i in 200..2 * DEFAULT_BATCH_SIZE as i64 + 100 {
            let name = Value::Str(format!("item-{}", i % 10));
            db.load_row(
                "ITEM",
                Row::new(vec![Value::Int(i), name, Value::Decimal(i)]),
            )
            .unwrap();
        }
        db.finish_load().unwrap();
        let session = db.session();
        let plan = QueryBuilder::scan("ITEM").build();
        let mut txn = session.begin(WorkClass::Hybrid);
        let out = session.query_in_txn(&mut txn, &plan).unwrap();
        session.commit(txn).unwrap();
        // Each shard's partition streams its own batches.
        let ts = db.txn_manager().oracle().read_ts();
        let partitions = db.row_partitions("ITEM").unwrap();
        let expected: usize = partitions
            .iter()
            .map(|p| p.live_row_count(ts).div_ceil(DEFAULT_BATCH_SIZE))
            .sum();
        assert_eq!(out.stats.batches_scanned as usize, expected);
        if db.shard_count() == 1 {
            assert_eq!(expected, 3, "2148 rows at batch size 1024");
        }
        let live: usize = partitions.iter().map(|p| p.live_row_count(ts)).sum();
        assert_eq!(
            out.stats.output_rows, live as u64,
            "every live row reaches the plan root"
        );
        assert!(db.metrics_snapshot().query_batches >= expected as u64);
    }

    #[test]
    fn write_conflict_under_snapshot_isolation() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        // txn A snapshots, then txn B updates and commits, then A tries.
        let mut a = session.begin(WorkClass::Oltp);
        let _ = session.read(&mut a, "ITEM", &Key::int(9)).unwrap();
        let mut b = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut b,
                "ITEM",
                &Key::int(9),
                Row::new(vec![
                    Value::Int(9),
                    Value::Str("b".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(b).unwrap();
        let result = session.update(
            &mut a,
            "ITEM",
            &Key::int(9),
            Row::new(vec![
                Value::Int(9),
                Value::Str("a".into()),
                Value::Decimal(2),
            ]),
        );
        let commit_result = if result.is_ok() {
            session.commit(a)
        } else {
            session.abort(a);
            result.map(|_| ())
        };
        assert!(
            commit_result.is_err(),
            "first-committer-wins must reject the stale writer"
        );
        assert!(commit_result.unwrap_err().is_retryable());
    }

    #[test]
    fn write_conflict_aborts_once_and_frees_the_key() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let item = |price: i64| {
            Row::new(vec![
                Value::Int(9),
                Value::Str("item-9".into()),
                Value::Decimal(price),
            ])
        };
        let mut stale = session.begin(WorkClass::Oltp);
        let mut winner = session.begin(WorkClass::Oltp);
        session
            .update(&mut winner, "ITEM", &Key::int(9), item(1))
            .unwrap();
        session.commit(winner).unwrap();
        session
            .update(&mut stale, "ITEM", &Key::int(9), item(2))
            .unwrap();

        let before = db.metrics_snapshot();
        let locks_before = db.txn_manager().stats().locks;
        let err = session.commit(stale).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Txn(TxnError::WriteConflict { .. })
        ));
        let after = db.metrics_snapshot();
        assert_eq!(after.aborts - before.aborts, 1, "one abort per rejection");
        assert_eq!(after.commits, before.commits);

        // The rejected commit released the key's write lock: a younger
        // transaction takes it at once, without waiting or dying.
        let mut next = session.begin(WorkClass::Oltp);
        session
            .update(&mut next, "ITEM", &Key::int(9), item(3))
            .unwrap();
        let locks = db.txn_manager().stats().locks;
        assert_eq!(locks.contended, locks_before.contended);
        assert_eq!(locks.wait_die_aborts, locks_before.wait_die_aborts);
        session.commit(next).unwrap();
    }

    #[test]
    fn run_transaction_retries_retryable_errors() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut attempts = 0;
        let result: EngineResult<u64> = session.run_transaction(WorkClass::Oltp, 5, |s, txn| {
            attempts += 1;
            if attempts < 3 {
                return Err(EngineError::Txn(TxnError::Aborted {
                    table: "ITEM".into(),
                    key: "k".into(),
                }));
            }
            let row = s.read(txn, "ITEM", &Key::int(1))?.expect("row exists");
            Ok(row[0].as_int().unwrap() as u64)
        });
        assert_eq!(result.unwrap(), 1);
        assert_eq!(attempts, 3);
    }

    /// A config that always routes analytical queries to the column store so
    /// freshness enforcement is exercised deterministically.
    fn colstore_only(config: EngineConfig) -> EngineConfig {
        let mut config = config;
        config.analytical_rowstore_percent = 0;
        config
    }

    #[test]
    fn strict_freshness_sees_every_prior_commit() {
        let config =
            colstore_only(EngineConfig::dual_engine()).with_freshness(FreshnessPolicy::Strict);
        let db = test_db(config);
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(3),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("item-3".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert_eq!(out.rows[0][0].as_f64(), Some(0.01), "strict read is fresh");
        assert_eq!(out.stats.freshness_lag_records, 0);
        assert!(db.metrics_snapshot().freshness_observations >= 1);
    }

    #[test]
    fn bounded_records_freshness_is_enforced_and_observed() {
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::BoundedRecords(5));
        let db = test_db(config);
        let session = db.session();
        // Stack up more lag than the bound allows.
        for i in 0..50i64 {
            let mut txn = session.begin(WorkClass::Oltp);
            session
                .insert(
                    &mut txn,
                    "ITEM",
                    Row::new(vec![
                        Value::Int(10_000 + i),
                        Value::Str("fresh".into()),
                        Value::Decimal(1),
                    ]),
                )
                .unwrap();
            session.commit(txn).unwrap();
        }
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert!(
            out.stats.freshness_lag_records <= 5,
            "observed lag {} exceeds the bound",
            out.stats.freshness_lag_records
        );
    }

    #[test]
    fn freshness_timeout_is_counted_in_metrics() {
        // Background applier running but wedged on a poison record (a
        // wrong-arity row image never applies): a Strict reader parks
        // on the applied watermark until the deadline instead of serving
        // stale answers, and the timeout must land in the
        // freshness_timeouts SLO counter.
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::Strict)
            .with_freshness_timeout_ms(50);
        let db = test_db(config);
        let session = db.session();
        db.replication_for(0).append(WalOp {
            table: "ITEM".into(),
            key: Key::int(43_000),
            row: Some(Row::new(vec![Value::Int(43_000)])),
        });
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let err = session.analytical_query(&plan);
        assert!(
            matches!(err, Err(EngineError::FreshnessTimeout { .. })),
            "expected a freshness timeout, got {err:?}"
        );
        let snapshot = db.metrics_snapshot();
        assert_eq!(snapshot.freshness_timeouts, 1);
        assert!(snapshot.replication_errors >= 1);
    }

    #[test]
    fn a_stopped_applier_times_out_a_strict_read() {
        // Readers only wait: with the applier stopped nothing applies the
        // log, so a Strict read of a newer commit times out and leaves the
        // lag exactly where it was.
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::Strict)
            .with_freshness_timeout_ms(50);
        let db = test_db(config);
        db.shutdown_applier();
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(3),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("item-3".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();
        let lag = db.replication_lag();
        assert!(lag >= 1, "the commit is still unapplied");

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        let err = session.analytical_query(&plan);
        assert!(
            matches!(err, Err(EngineError::FreshnessTimeout { .. })),
            "expected a freshness timeout, got {err:?}"
        );
        assert_eq!(db.metrics_snapshot().freshness_timeouts, 1);
        assert_eq!(db.replication_lag(), lag, "the read applied nothing");
    }

    #[test]
    fn bounded_nanos_accepts_a_drained_pipeline() {
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::BoundedNanos(50_000_000));
        let db = test_db(config);
        let session = db.session();
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn missing_update_target_is_reported() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        let err = session.update(
            &mut txn,
            "ITEM",
            &Key::int(10_000),
            Row::new(vec![
                Value::Int(10_000),
                Value::Str("ghost".into()),
                Value::Decimal(0),
            ]),
        );
        assert!(matches!(
            err,
            Err(EngineError::Storage(StorageError::KeyNotFound { .. }))
        ));
        session.abort(txn);
    }

    #[test]
    fn an_update_that_changes_the_primary_key_fails_at_the_statement() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        let err = session.update(
            &mut txn,
            "ITEM",
            &Key::int(5),
            Row::new(vec![
                Value::Int(6),
                Value::Str("moved".into()),
                Value::Decimal(1),
            ]),
        );
        assert!(
            matches!(err, Err(EngineError::Storage(StorageError::Internal(_)))),
            "expected the primary-key change to fail the statement, got {err:?}"
        );
        session.abort(txn);

        let mut txn = session.begin(WorkClass::Oltp);
        let row = session.read(&mut txn, "ITEM", &Key::int(5)).unwrap();
        assert_eq!(row.unwrap()[1], Value::Str("item-5".into()));
        session.commit(txn).unwrap();
    }

    // --- tracing integration ---------------------------------------------

    /// Serialises tests that flip the process-wide trace gate so parallel
    /// test threads cannot observe each other's gate state.
    fn trace_gate_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn trace_temp_dir(tag: &str) -> String {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        std::env::temp_dir()
            .join(format!("olxp-trace-{tag}-{}-{nanos}", std::process::id()))
            .display()
            .to_string()
    }

    /// One loaded key per shard of a two-shard `test_db`, so a transaction
    /// touching both is guaranteed to take the cross-shard 2PC path.
    fn keys_on_both_shards() -> [i64; 2] {
        let mut picks = [None, None];
        for i in 0..200i64 {
            let shard = crate::database::shard_of("ITEM", &Key::int(i), 2);
            if picks[shard].is_none() {
                picks[shard] = Some(i);
            }
        }
        [picks[0].unwrap(), picks[1].unwrap()]
    }

    #[test]
    fn commit_emits_lifecycle_spans_when_tracing() {
        let _serial = trace_gate_lock();
        let dir = trace_temp_dir("lifecycle");
        let config = EngineConfig::dual_engine()
            .with_shards(2)
            .with_durability(crate::config::DurabilityConfig::at(&dir))
            .with_tracing(true);
        let db = test_db(config);
        let session = db.session();
        let _ = olxp_trace::take_events(); // drop load-time spans

        let [key_a, key_b] = keys_on_both_shards();
        let mut txn = session.begin(WorkClass::Oltp);
        for key in [key_a, key_b] {
            session
                .update(
                    &mut txn,
                    "ITEM",
                    &Key::int(key),
                    Row::new(vec![
                        Value::Int(key),
                        Value::Str("traced".into()),
                        Value::Decimal(1),
                    ]),
                )
                .unwrap();
        }
        session.commit(txn).unwrap();
        db.finish_load().unwrap(); // drain replication under the trace gate

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        session.analytical_query(&plan).unwrap();

        let events = olxp_trace::take_events();
        let seen: std::collections::HashSet<SpanCategory> =
            events.iter().map(|tagged| tagged.event.category).collect();
        for category in [
            SpanCategory::Lock,
            SpanCategory::WalAppend,
            SpanCategory::Fsync,
            SpanCategory::Install,
            SpanCategory::TwoPcPrepare,
            SpanCategory::TwoPcCommit,
            SpanCategory::Commit,
            SpanCategory::QueryOperator,
        ] {
            assert!(seen.contains(&category), "missing {category:?} span");
        }

        let snap = db.metrics_snapshot();
        assert!(!snap.stages.is_empty(), "stage histograms were recorded");
        assert!(snap.stages.get(SpanCategory::Commit).count() >= 1);
        assert!(snap.stages.get(SpanCategory::QueryOperator).count() >= 1);
        assert_eq!(snap.per_shard.len(), 2);
        assert!(snap.per_shard.iter().all(|shard| shard.commits >= 1));
        assert!(snap.per_shard.iter().all(|shard| shard.wal_appends >= 1));

        olxp_trace::set_enabled(false);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_transaction_has_one_id_in_spans_and_the_wal() {
        let _serial = trace_gate_lock();
        let dir = trace_temp_dir("one-id");
        let durability = crate::config::DurabilityConfig::at(&dir);
        let segment_bytes = durability.segment_bytes;
        let config = EngineConfig::dual_engine()
            .with_shards(1)
            .with_durability(durability)
            .with_tracing(true);
        // The load gives every row an id of its own before the commit below.
        let db = test_db(config);
        let session = db.session();
        let _ = olxp_trace::take_events();

        let mut txn = session.begin(WorkClass::Oltp);
        let id = txn.txn().id();
        let row = Row::new(vec![
            Value::Int(3),
            Value::Str("one-id".into()),
            Value::Decimal(3),
        ]);
        session.update(&mut txn, "ITEM", &Key::int(3), row).unwrap();
        session.commit(txn).unwrap();
        let commit_spans: Vec<u64> = olxp_trace::take_events()
            .iter()
            .filter(|tagged| tagged.event.category == SpanCategory::Commit)
            .map(|tagged| tagged.event.txn_id)
            .collect();
        assert!(commit_spans.contains(&id), "Commit span under {id}");
        olxp_trace::set_enabled(false);
        db.simulate_crash();
        drop(db);

        let (_, replay) = olxp_storage::Wal::open_named(
            &dir,
            "wal",
            olxp_storage::SyncPolicy::Never,
            segment_bytes,
        )
        .unwrap();
        let last_commit = replay.records.iter().rev().find_map(|r| match r.record {
            olxp_storage::WalRecord::Commit { txn_id, .. } => Some(txn_id),
            _ => None,
        });
        assert_eq!(last_commit, Some(id), "the WAL logs the span's id");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_disabled_records_no_stage_histograms() {
        // With OLXP_TRACE=on every engine in the process (including ones
        // other tests open concurrently) raises the process-wide gate, so
        // the untraced scenario cannot be constructed — skip.
        if EngineConfig::dual_engine().tracing {
            return;
        }
        let _serial = trace_gate_lock();
        olxp_trace::set_enabled(false);
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(7),
                Row::new(vec![
                    Value::Int(7),
                    Value::Str("plain".into()),
                    Value::Decimal(2),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();

        let snap = db.metrics_snapshot();
        assert!(snap.stages.is_empty(), "no stages recorded while disabled");
        // Lock-wait accounting stays on even with tracing off: the per-shard
        // scaling report depends on it.
        assert!(snap.lock_waits >= 1);
        assert_eq!(snap.per_shard.len(), db.shard_count());
        assert!(snap.per_shard.iter().map(|s| s.commits).sum::<u64>() >= 1);
    }

    /// Every statement kind once, on fixed keys: ids 4, 5 and 1002 hash to one
    /// storage node and one shard under both archetypes; ids 6, 8 and 1000
    /// to two nodes; ids 0, 9 and 1003 to two of the single engine's four
    /// nodes, and to one of the dual engine's two but to two of four shards.
    fn modelled_script(config: EngineConfig) -> Arc<HybridDatabase> {
        let db = test_db(config);
        // The replica catches up only at `finish_load` below, as it did
        // when the model numbers were captured.
        db.shutdown_applier();
        let s = db.session();
        let item = |id: i64, price: i64| {
            Row::new(vec![
                Value::Int(id),
                Value::Str(format!("item-{}", id % 10)),
                Value::Decimal(price),
            ])
        };
        let mut t = s.begin(WorkClass::Oltp);
        s.read(&mut t, "ITEM", &Key::int(7)).unwrap();
        s.select_eq(&mut t, "ITEM", &["i_id"], &[Value::Int(7)])
            .unwrap();
        s.select_eq(&mut t, "ITEM", &["i_name"], &[Value::Str("item-3".into())])
            .unwrap();
        s.select_eq(&mut t, "ITEM", &["i_price"], &[Value::Decimal(150)])
            .unwrap();
        s.scan_prefix(&mut t, "ITEM", &Key::int(9)).unwrap();
        s.commit(t).unwrap();
        for (inserted, updated, deleted) in [(1002, 4, 5), (1000, 6, 8), (1003, 0, 9)] {
            let mut t = s.begin(WorkClass::Oltp);
            s.insert(&mut t, "ITEM", item(inserted, 1)).unwrap();
            s.update(&mut t, "ITEM", &Key::int(updated), item(updated, 2))
                .unwrap();
            s.delete(&mut t, "ITEM", &Key::int(deleted)).unwrap();
            s.read(&mut t, "ITEM", &Key::int(updated)).unwrap();
            s.commit(t).unwrap();
        }
        let plan = QueryBuilder::scan("ITEM")
            .filter(col(2).gt(lit(Value::Decimal(120))))
            .join(
                QueryBuilder::scan("ITEM"),
                vec![0],
                vec![0],
                olxp_query::JoinKind::Inner,
            )
            .aggregate(vec![1], vec![AggSpec::new(AggFunc::Min, 2)])
            .sort(vec![olxp_query::SortKey::asc(0)])
            .build();
        let mut t = s.begin(WorkClass::Hybrid);
        s.query_in_txn(&mut t, &plan).unwrap();
        s.commit(t).unwrap();
        db.finish_load().unwrap();
        // The dual engine serves the first standalone query from the row
        // store and the second from the columnar replicas.
        s.analytical_query(&plan).unwrap();
        s.analytical_query(&plan).unwrap();
        db
    }

    #[test]
    fn modelled_numbers_are_pinned() {
        // Captured at the commit before the model was lifted out of the
        // session (60eaf35), by this script against `db.charge` and friends:
        // per-class busy nanoseconds, buffer misses, distributed commits.
        let dir = trace_temp_dir("pinned");
        let durable = crate::config::DurabilityConfig::at(&dir);
        let (single, dual) = (EngineConfig::single_engine, EngineConfig::dual_engine);
        let single_busy = [1_027_520, 1_434_470, 2_126_820, 0];
        let dual_busy = [5_070_250, 1_091_698, 872_415, 0];
        // One log force per commit instead of one per written row.
        let durable_busy = [4_938_250, 1_091_698, 872_415, 0];
        for (config, busy, buffer_misses, distributed_commits) in [
            (single().with_shards(1), single_busy, 0, 2),
            (single().with_shards(4), single_busy, 0, 2),
            (dual().with_shards(1), dual_busy, 14, 1),
            (dual().with_shards(4), dual_busy, 14, 2),
            (
                dual().with_shards(1).with_durability(durable),
                durable_busy,
                14,
                1,
            ),
        ] {
            let label = format!("{:?} x{}", config.architecture, config.shards);
            let snap = modelled_script(config).metrics_snapshot();
            assert_eq!(snap.busy_nanos, busy, "{label}");
            assert_eq!(snap.buffer_misses, buffer_misses, "{label}");
            assert_eq!(snap.distributed_commits, distributed_commits, "{label}");
            // At time_scale 0 no worker pool or log device was entered.
            assert_eq!(snap.queue_wait_nanos, [0; 4], "{label}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
