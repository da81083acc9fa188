//! Segmented write-ahead log with group commit.
//!
//! The engine's row store and column store live entirely in memory; the WAL is
//! what makes commits survive a process crash.  It is the same design the HTAP
//! systems the paper evaluates build on: one authoritative, crash-safe record
//! stream written by the transactional engine, from which both recovery and
//! (via the replication pipeline) the analytical replica are fed.
//!
//! ## Format
//!
//! The log is a sequence of append-only *segment* files
//! (`<stream>-<seq>.seg`, where the stream name is `wal` for a single log and
//! `wal-shard<K>` for shard `K`'s stream; several streams may share one
//! directory).  Each record is framed as
//!
//! ```text
//! [ payload_len: u32 LE ][ crc32(payload): u32 LE ][ payload ]
//! ```
//!
//! and the payload starts with the record's LSN followed by a kind tag and the
//! kind-specific fields (see [`WalRecord`]).  A segment is rotated (flushed,
//! fsynced and closed) once it exceeds the configured size; rotation only
//! happens *between* append batches, so one transaction's records never span
//! segments and a checkpoint can truncate whole segments safely.
//!
//! ## Durability
//!
//! Appends go to an in-process buffer; [`Wal::sync_to`] makes them durable
//! according to the [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Always`] — every commit waits for an fsync covering its LSN
//!   (concurrent committers still share fsyncs opportunistically);
//! * [`SyncPolicy::GroupCommit`] — a leader committer parks up to `max_wait_us`
//!   waiting for up to `max_batch` concurrent committers, then performs one
//!   fsync on behalf of the whole group;
//! * [`SyncPolicy::Never`] — commits are acknowledged immediately; the buffer
//!   reaches the disk only on rotation and clean shutdown (benchmarking mode,
//!   explicitly unsafe).
//!
//! ## Recovery
//!
//! [`Wal::open`] replays every segment in order.  A torn final record in the
//! *newest* segment — the signature of a crash mid-write — is tolerated and
//! truncated away; an integrity failure anywhere else surfaces as the typed
//! [`StorageError::WalCorrupt`], because bytes that were acknowledged as
//! durable must never be silently dropped.

use crate::error::{StorageError, StorageResult};
use crate::key::Key;
use crate::row::Row;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::Value;
use crate::Timestamp;
use olxp_trace::LogHistogram;
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// When the append buffer grows past this, it is written (not fsynced) to the
/// current segment file even before the next sync request.
const FLUSH_THRESHOLD: usize = 128 * 1024;

/// Upper bound on one encoded record; larger length prefixes are treated as
/// corruption rather than attempted allocations.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// How commits are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync before every commit acknowledgement.
    Always,
    /// Batch concurrent committers into one fsync.
    GroupCommit {
        /// Stop waiting for more committers once this many are parked.
        max_batch: usize,
        /// Longest time (microseconds) the batch leader waits for the batch
        /// to fill before fsyncing whatever arrived.
        max_wait_us: u64,
    },
    /// Never fsync on commit (data reaches disk on rotation and shutdown).
    Never,
}

impl SyncPolicy {
    /// The default group-commit configuration (batch up to 64 committers,
    /// wait at most 500µs for the batch to fill).
    pub fn group_commit() -> SyncPolicy {
        SyncPolicy::GroupCommit {
            max_batch: 64,
            max_wait_us: 500,
        }
    }

    /// Human-readable label used in reports.
    pub fn describe(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_string(),
            SyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            } => format!("group({max_batch} x {max_wait_us}us)"),
            SyncPolicy::Never => "never".to_string(),
        }
    }
}

/// One write of a transaction, in the one shape it keeps from its statement
/// on: buffered in the write set, logged to the WAL, installed in the row
/// store and shipped on the replication log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalOp {
    /// Target table.
    pub table: String,
    /// Primary key of the affected row.
    pub key: Key,
    /// The row's new image, or `None` for a tombstone.
    pub row: Option<Row>,
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created (DDL).
    CreateTable {
        /// The created table's schema.
        schema: TableSchema,
    },
    /// A transaction started writing its commit group.
    Begin {
        /// The writing transaction's engine-wide id.
        txn_id: u64,
    },
    /// One mutation of a transaction's write set.
    Mutation {
        /// The writing transaction's engine-wide id.
        txn_id: u64,
        /// The mutation.
        op: WalOp,
        /// Commit timestamp of the producing transaction.
        commit_ts: Timestamp,
    },
    /// The transaction's commit marker.  Recovery applies a transaction's
    /// mutations only when its commit marker is present: a crash between the
    /// mutations and the marker means the commit was never acknowledged.
    Commit {
        /// The writing transaction's engine-wide id.
        txn_id: u64,
        /// Commit timestamp of the transaction.
        commit_ts: Timestamp,
    },
    /// Two-phase-commit prepare marker.  A cross-shard transaction forces
    /// `Begin` + `Mutation`s + `Prepare` to every touched shard's log before
    /// any shard logs its `Commit` marker.  Recovery treats a prepared
    /// transaction as *in doubt*: it commits iff **any** shard's log holds the
    /// transaction's `Commit` marker, and is presumed aborted otherwise.
    Prepare {
        /// The writing transaction's engine-wide id.
        txn_id: u64,
    },
}

/// A record recovered from the log, tagged with its LSN.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// Outcome of scanning the log at [`Wal::open`].
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Every decodable record, in LSN order.
    pub records: Vec<ReplayedRecord>,
    /// Bytes of torn tail truncated from the newest segment.
    pub truncated_bytes: u64,
    /// Total log bytes scanned.
    pub scanned_bytes: u64,
    /// Highest transaction id seen (the engine resumes its ids above it).
    pub max_txn_id: u64,
}

/// Point-in-time counters of one [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended.
    pub appends: u64,
    /// fsync calls issued (commit syncs and segment rotations).
    pub fsyncs: u64,
    /// Bytes written to segment files.
    pub bytes_written: u64,
    /// Commits acknowledged through [`Wal::sync_to`].
    pub synced_commits: u64,
    /// Group-commit batch size percentiles (committers per fsync) over
    /// every fsync since open: exact below 64, within 1/32 above.
    pub batch_p50: u64,
    /// 90th percentile batch size.
    pub batch_p90: u64,
    /// 99th percentile batch size.
    pub batch_p99: u64,
    /// Largest batch observed.
    pub batch_max: u64,
    /// Highest LSN assigned.
    pub last_lsn: u64,
    /// Highest LSN known durable.
    pub durable_lsn: u64,
    /// Live segment files (including the active one).
    pub segments: u64,
}

impl WalStatsSnapshot {
    /// Mean committers per fsync (0 when no fsync has happened).
    pub fn commits_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            return 0.0;
        }
        self.synced_commits as f64 / self.fsyncs as f64
    }
}

/// A closed (rotated) segment and the LSN range it holds.
#[derive(Debug)]
struct ClosedSegment {
    path: PathBuf,
    last_lsn: u64,
}

/// State behind the append lock.
struct WalInner {
    /// Active segment file.
    file: File,
    /// Active segment path (for error context).
    path: PathBuf,
    /// Active segment sequence number.
    seq: u64,
    /// Bytes already written to the active segment file.
    file_bytes: u64,
    /// Encoded frames not yet written to the file.
    buffer: Vec<u8>,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Highest LSN assigned so far.
    last_lsn: u64,
    /// Rotated segments not yet truncated.
    closed: Vec<ClosedSegment>,
    /// Crash simulation: when set, nothing is flushed on drop.
    crashed: bool,
}

/// Group-commit coordination state.
#[derive(Debug, Default)]
struct SyncState {
    durable_lsn: u64,
    sync_running: bool,
    waiting: usize,
}

/// Lifetime counters (see [`WalStatsSnapshot`]).
#[derive(Debug, Default)]
struct WalCounters {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    synced_commits: AtomicU64,
    /// Committers per fsync; exact below 64, within 1/32 above.
    batch_sizes: Mutex<LogHistogram>,
}

/// The write-ahead log.
pub struct Wal {
    dir: PathBuf,
    /// Stream name prefix of this log's segment files (`<name>-<seq>.seg`).
    /// The single-WAL engine uses `"wal"`; shard `K` uses `"wal-shard<K>"`.
    name: String,
    policy: SyncPolicy,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    sync: Mutex<SyncState>,
    sync_cv: Condvar,
    stats: WalCounters,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("segment_bytes", &self.segment_bytes)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log in `dir`, replaying every existing segment.
    ///
    /// Appending continues in a *fresh* segment, so the torn-tail handling
    /// below never has to distinguish old bytes from new ones.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: SyncPolicy,
        segment_bytes: u64,
    ) -> StorageResult<(Wal, WalReplay)> {
        Wal::open_named(dir, "wal", policy, segment_bytes)
    }

    /// Open (or create) a *named* log stream in `dir`.  Multiple streams can
    /// share one directory as long as their names differ: each lists and
    /// replays only its own `<name>-<seq>.seg` segments.  The sharded engine
    /// gives shard `K` the stream name `wal-shard<K>`.
    pub fn open_named(
        dir: impl Into<PathBuf>,
        name: &str,
        policy: SyncPolicy,
        segment_bytes: u64,
    ) -> StorageResult<(Wal, WalReplay)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io("create_dir", dir.display().to_string(), &e))?;

        let mut segment_paths = list_segments(&dir, name)?;
        segment_paths.sort_by_key(|(seq, _)| *seq);

        let mut replay = WalReplay::default();
        let mut closed = Vec::new();
        let mut max_lsn = 0u64;
        let last_index = segment_paths.len().checked_sub(1);
        for (i, (_, path)) in segment_paths.iter().enumerate() {
            let is_last = Some(i) == last_index;
            let scanned = scan_segment(path, is_last, &mut replay)?;
            max_lsn = max_lsn.max(scanned.last_lsn);
            if scanned.last_lsn > 0 {
                closed.push(ClosedSegment {
                    path: path.clone(),
                    last_lsn: scanned.last_lsn,
                });
            } else {
                // An empty segment (e.g. created just before a crash) holds
                // nothing worth keeping.
                std::fs::remove_file(path)
                    .map_err(|e| StorageError::io("remove", path.display().to_string(), &e))?;
            }
        }
        for r in &replay.records {
            let txn_id = match r.record {
                WalRecord::Begin { txn_id }
                | WalRecord::Mutation { txn_id, .. }
                | WalRecord::Commit { txn_id, .. }
                | WalRecord::Prepare { txn_id } => txn_id,
                WalRecord::CreateTable { .. } => 0,
            };
            replay.max_txn_id = replay.max_txn_id.max(txn_id);
        }

        let next_seq = segment_paths.last().map_or(1, |(seq, _)| seq + 1);
        let (file, path) = create_segment(&dir, name, next_seq)?;
        let wal = Wal {
            dir,
            name: name.to_string(),
            policy,
            segment_bytes,
            inner: Mutex::new(WalInner {
                file,
                path,
                seq: next_seq,
                file_bytes: 0,
                buffer: Vec::new(),
                next_lsn: max_lsn + 1,
                last_lsn: max_lsn,
                closed,
                crashed: false,
            }),
            sync: Mutex::new(SyncState {
                durable_lsn: max_lsn,
                ..SyncState::default()
            }),
            sync_cv: Condvar::new(),
            stats: WalCounters::default(),
        };
        Ok((wal, replay))
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Highest LSN assigned so far.
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().last_lsn
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.sync.lock().durable_lsn
    }

    /// Append a `CreateTable` record, returning its LSN.
    pub fn log_create_table(&self, schema: &TableSchema) -> StorageResult<u64> {
        let mut inner = self.inner.lock();
        self.maybe_rotate(&mut inner)?;
        let lsn = self.append_record(&mut inner, |out| put_create_table(out, schema))?;
        self.write_through(&mut inner)?;
        Ok(lsn)
    }

    /// Append the `Begin` record plus one `Mutation` record per write of a
    /// committing transaction, as a single contiguous batch, and return the
    /// number of writes logged.  Each record is encoded straight from the
    /// borrowed op.  The commit marker is appended separately — *after* the
    /// caller has installed the write set — via [`Wal::log_commit`]; a crash
    /// in between leaves an unmarked (and therefore never replayed)
    /// transaction.
    pub fn log_mutations<'a>(
        &self,
        txn_id: u64,
        ops: impl IntoIterator<Item = &'a WalOp>,
        commit_ts: Timestamp,
    ) -> StorageResult<u64> {
        let mut inner = self.inner.lock();
        self.maybe_rotate(&mut inner)?;
        self.append_record(&mut inner, |out| {
            encode_record(out, &WalRecord::Begin { txn_id })
        })?;
        let mut logged = 0;
        for op in ops {
            self.append_record(&mut inner, |out| put_mutation(out, txn_id, op, commit_ts))?;
            logged += 1;
        }
        self.write_through(&mut inner)?;
        Ok(logged)
    }

    /// Append a two-phase-commit `Prepare` marker, returning its LSN.  The
    /// cross-shard coordinator forces this LSN (and the mutations before it)
    /// to disk on every touched shard before logging any `Commit` marker, so
    /// a crash can only ever leave the transaction fully prepared — never
    /// durably committed on one shard with missing writes on another.
    pub fn log_prepare(&self, txn_id: u64) -> StorageResult<u64> {
        let mut inner = self.inner.lock();
        self.maybe_rotate(&mut inner)?;
        let lsn = self.append_record(&mut inner, |out| {
            encode_record(out, &WalRecord::Prepare { txn_id })
        })?;
        self.write_through(&mut inner)?;
        Ok(lsn)
    }

    /// Append the transaction's commit marker, returning its LSN.  The commit
    /// is durable once [`Wal::sync_to`] has acknowledged this LSN.
    pub fn log_commit(&self, txn_id: u64, commit_ts: Timestamp) -> StorageResult<u64> {
        let mut inner = self.inner.lock();
        self.maybe_rotate(&mut inner)?;
        let lsn = self.append_record(&mut inner, |out| {
            encode_record(out, &WalRecord::Commit { txn_id, commit_ts })
        })?;
        self.write_through(&mut inner)?;
        Ok(lsn)
    }

    /// Block until everything up to `lsn` is durable, per the sync policy.
    ///
    /// Under [`SyncPolicy::GroupCommit`] the first committer to arrive becomes
    /// the batch leader: it parks until `max_batch` committers are waiting or
    /// `max_wait_us` passes, then performs one flush+fsync covering the whole
    /// group.  Followers park on the durable watermark.  Under
    /// [`SyncPolicy::Always`] the fill wait is skipped but concurrent
    /// committers still share the fsync that covers them.
    pub fn sync_to(&self, lsn: u64) -> StorageResult<()> {
        if matches!(self.policy, SyncPolicy::Never) {
            return Ok(());
        }
        let mut st = self.sync.lock();
        if st.durable_lsn >= lsn {
            self.stats.synced_commits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        st.waiting += 1;
        // Wake a batch leader that may be waiting for its batch to fill.
        self.sync_cv.notify_all();
        loop {
            if st.durable_lsn >= lsn {
                st.waiting -= 1;
                self.stats.synced_commits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if st.sync_running {
                self.sync_cv.wait(&mut st);
                continue;
            }
            // Become the batch leader.
            st.sync_running = true;
            if let SyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            } = self.policy
            {
                // Park for the batch to fill only when other committers are
                // already waiting: a solo commit fsyncs immediately (no
                // artificial latency), while under concurrency the leader
                // gives the group up to `max_wait_us` to reach `max_batch`.
                // Batching below that still happens naturally — every record
                // appended while an fsync is in flight rides the next one.
                if st.waiting > 1 {
                    let deadline = Instant::now() + Duration::from_micros(max_wait_us);
                    while st.waiting < max_batch {
                        if self.sync_cv.wait_until(&mut st, deadline).timed_out() {
                            break;
                        }
                    }
                }
            }
            let covered = st.waiting as u64;
            drop(st);
            let result = self.flush_and_fsync();
            st = self.sync.lock();
            st.sync_running = false;
            match result {
                Ok(flushed_lsn) => {
                    st.durable_lsn = st.durable_lsn.max(flushed_lsn);
                    self.record_batch(covered);
                    self.sync_cv.notify_all();
                    // Loop: our own LSN is covered by the flush we just did.
                }
                Err(e) => {
                    st.waiting -= 1;
                    self.sync_cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Write the buffer to the active segment and fsync it.  Returns the
    /// highest LSN now durable.  Also used by clean shutdown and by the
    /// checkpointer before truncation.
    pub fn flush_and_fsync(&self) -> StorageResult<u64> {
        let mut inner = self.inner.lock();
        self.write_buffer(&mut inner)?;
        inner
            .file
            .sync_data()
            .map_err(|e| StorageError::io("fsync", inner.path.display().to_string(), &e))?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        let flushed = inner.last_lsn;
        drop(inner);
        let mut st = self.sync.lock();
        st.durable_lsn = st.durable_lsn.max(flushed);
        Ok(flushed)
    }

    /// Delete rotated segments wholly covered by `lsn` (everything in them is
    /// reflected in a checkpoint).  Returns the number of segments removed.
    pub fn truncate_up_to(&self, lsn: u64) -> StorageResult<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0;
        let mut kept = Vec::new();
        for seg in inner.closed.drain(..) {
            if seg.last_lsn <= lsn {
                std::fs::remove_file(&seg.path)
                    .map_err(|e| StorageError::io("remove", seg.path.display().to_string(), &e))?;
                removed += 1;
            } else {
                kept.push(seg);
            }
        }
        inner.closed = kept;
        Ok(removed)
    }

    /// Simulate a crash: discard everything not yet written to the OS and
    /// suppress the clean-shutdown flush.  Acknowledged commits are already
    /// durable per the sync policy; unacknowledged buffered records vanish,
    /// exactly as they would if the process died here.
    pub fn mark_crashed(&self) {
        let mut inner = self.inner.lock();
        inner.crashed = true;
        inner.buffer.clear();
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStatsSnapshot {
        let (last_lsn, segments) = {
            let inner = self.inner.lock();
            (inner.last_lsn, inner.closed.len() as u64 + 1)
        };
        let durable_lsn = self.sync.lock().durable_lsn;
        let batches = self.stats.batch_sizes.lock();
        WalStatsSnapshot {
            appends: self.stats.appends.load(Ordering::Relaxed),
            fsyncs: self.stats.fsyncs.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
            synced_commits: self.stats.synced_commits.load(Ordering::Relaxed),
            batch_p50: batches.value_at_quantile(0.50),
            batch_p90: batches.value_at_quantile(0.90),
            batch_p99: batches.value_at_quantile(0.99),
            batch_max: batches.max(),
            last_lsn,
            durable_lsn,
            segments,
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Frame one record in place at the end of the buffer: a length-and-CRC
    /// slot, the assigned LSN, whatever `encode` appends (the record's kind
    /// and fields), then the slot filled in over that payload.  Caller holds
    /// the append lock.
    fn append_record(
        &self,
        inner: &mut WalInner,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> StorageResult<u64> {
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.last_lsn = lsn;
        let frame = inner.buffer.len();
        inner.buffer.extend_from_slice(&[0; 8]);
        inner.buffer.extend_from_slice(&lsn.to_le_bytes());
        encode(&mut inner.buffer);
        let payload = &inner.buffer[frame + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        inner.buffer[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        inner.buffer[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Write the buffer to the file when it has grown large (no fsync).
    fn write_through(&self, inner: &mut WalInner) -> StorageResult<()> {
        if inner.buffer.len() >= FLUSH_THRESHOLD {
            self.write_buffer(inner)?;
        }
        Ok(())
    }

    /// Unconditionally write the buffer to the active segment (no fsync).
    fn write_buffer(&self, inner: &mut WalInner) -> StorageResult<()> {
        if inner.buffer.is_empty() {
            return Ok(());
        }
        let buffer = std::mem::take(&mut inner.buffer);
        let path = inner.path.display().to_string();
        inner
            .file
            .write_all(&buffer)
            .map_err(|e| StorageError::io("write", path, &e))?;
        inner.file_bytes += buffer.len() as u64;
        self.stats
            .bytes_written
            .fetch_add(buffer.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Rotate to a fresh segment when the active one is full.  Called at the
    /// *start* of an append batch so one transaction's records stay within a
    /// single segment.
    fn maybe_rotate(&self, inner: &mut WalInner) -> StorageResult<()> {
        if inner.file_bytes + (inner.buffer.len() as u64) < self.segment_bytes {
            return Ok(());
        }
        self.write_buffer(inner)?;
        inner
            .file
            .sync_data()
            .map_err(|e| StorageError::io("fsync", inner.path.display().to_string(), &e))?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        let seq = inner.seq + 1;
        let (file, path) = create_segment(&self.dir, &self.name, seq)?;
        let old_path = std::mem::replace(&mut inner.path, path);
        inner.closed.push(ClosedSegment {
            path: old_path,
            last_lsn: inner.last_lsn,
        });
        inner.file = file;
        inner.seq = seq;
        inner.file_bytes = 0;
        Ok(())
    }

    fn record_batch(&self, covered: u64) {
        self.stats.batch_sizes.lock().record(covered.max(1));
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Clean shutdown flushes whatever is buffered (important under
        // `SyncPolicy::Never`); a simulated crash must not.
        let crashed = self.inner.lock().crashed;
        if !crashed {
            let _ = self.flush_and_fsync();
        }
    }
}

/// Per-segment outcome of the replay scan.
struct ScannedSegment {
    last_lsn: u64,
}

fn segment_name(stream: &str, seq: u64) -> String {
    format!("{stream}-{seq:016}.seg")
}

/// List `stream`'s segments in `dir`.  Streams are disjoint by construction:
/// the sequence number must parse as a bare integer, so `wal`'s listing never
/// picks up `wal-shard0-…` files (the shard id makes the parse fail) and vice
/// versa.
fn list_segments(dir: &Path, stream: &str) -> StorageResult<Vec<(u64, PathBuf)>> {
    let prefix = format!("{stream}-");
    let entries = std::fs::read_dir(dir)
        .map_err(|e| StorageError::io("read_dir", dir.display().to_string(), &e))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| StorageError::io("read_dir", dir.display().to_string(), &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix(&prefix)
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    Ok(out)
}

fn create_segment(dir: &Path, stream: &str, seq: u64) -> StorageResult<(File, PathBuf)> {
    let path = dir.join(segment_name(stream, seq));
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| StorageError::io("open", path.display().to_string(), &e))?;
    Ok((file, path))
}

/// Scan one segment, pushing decoded records into `replay`.
///
/// In the newest segment an *incomplete* trailing frame — fewer bytes on disk
/// than the frame header promises, or a header cut short — is the torn tail a
/// crash mid-write leaves behind: it is truncated off and replay continues.
/// A frame whose bytes are fully present but whose CRC does not match, or any
/// malformed frame in an older segment, is real corruption and errors out.
fn scan_segment(
    path: &Path,
    is_last: bool,
    replay: &mut WalReplay,
) -> StorageResult<ScannedSegment> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StorageError::io("read", path.display().to_string(), &e))?;
    replay.scanned_bytes += bytes.len() as u64;

    let mut offset = 0usize;
    let mut last_lsn = 0u64;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        let torn = |detail: &str| -> StorageResult<()> {
            if is_last {
                Ok(())
            } else {
                Err(StorageError::WalCorrupt {
                    segment: path.display().to_string(),
                    offset: offset as u64,
                    detail: detail.to_string(),
                })
            }
        };
        if remaining < 8 {
            torn("truncated frame header")?;
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return Err(StorageError::WalCorrupt {
                segment: path.display().to_string(),
                offset: offset as u64,
                detail: format!("implausible record length {len}"),
            });
        }
        let len = len as usize;
        if remaining < 8 + len {
            torn("truncated record payload")?;
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            // A CRC mismatch on the frame that ends exactly at the end of the
            // newest segment is a partially persisted final write; anywhere
            // else it means acknowledged bytes were damaged.
            if is_last && offset + 8 + len == bytes.len() {
                break;
            }
            return Err(StorageError::WalCorrupt {
                segment: path.display().to_string(),
                offset: offset as u64,
                detail: "CRC mismatch".to_string(),
            });
        }
        let (lsn, record) = decode_record(payload).map_err(|e| StorageError::WalCorrupt {
            segment: path.display().to_string(),
            offset: offset as u64,
            detail: format!("undecodable payload: {e}"),
        })?;
        last_lsn = lsn;
        replay.records.push(ReplayedRecord { lsn, record });
        offset += 8 + len;
    }
    if offset < bytes.len() {
        // Torn tail in the newest segment: drop the damaged bytes so the next
        // scan starts clean.
        replay.truncated_bytes += (bytes.len() - offset) as u64;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io("open", path.display().to_string(), &e))?;
        file.set_len(offset as u64)
            .map_err(|e| StorageError::io("truncate", path.display().to_string(), &e))?;
        file.sync_data()
            .map_err(|e| StorageError::io("fsync", path.display().to_string(), &e))?;
    }
    Ok(ScannedSegment { last_lsn })
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 over `data` (shared with the checkpoint format).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Binary codec (shared with the checkpoint format)
// ---------------------------------------------------------------------------

pub(crate) mod codec {
    //! Minimal length-prefixed binary encoding for the storage types that the
    //! durability subsystem persists.  Deliberately dependency-free: the
    //! vendored serde stand-ins are not trusted with on-disk formats.

    use super::*;

    /// Sequential reader over an encoded byte slice.
    pub(crate) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.pos >= self.buf.len()
        }

        fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
            if self.buf.len() - self.pos < n {
                return Err(StorageError::Codec(format!(
                    "unexpected end of input: wanted {n} bytes at offset {}",
                    self.pos
                )));
            }
            let slice = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        pub(crate) fn u8(&mut self) -> StorageResult<u8> {
            Ok(self.take(1)?[0])
        }

        pub(crate) fn u32(&mut self) -> StorageResult<u32> {
            Ok(u32::from_le_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            ))
        }

        pub(crate) fn u64(&mut self) -> StorageResult<u64> {
            Ok(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))
        }

        pub(crate) fn i64(&mut self) -> StorageResult<i64> {
            Ok(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))
        }

        pub(crate) fn f64(&mut self) -> StorageResult<f64> {
            Ok(f64::from_bits(self.u64()?))
        }

        pub(crate) fn str(&mut self) -> StorageResult<String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|_| StorageError::Codec("invalid UTF-8 string".into()))
        }
    }

    pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => out.push(0),
            Value::Int(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Decimal(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                put_str(out, s);
            }
            Value::Bool(b) => {
                out.push(5);
                out.push(u8::from(*b));
            }
            Value::Timestamp(x) => {
                out.push(6);
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    pub(crate) fn read_value(r: &mut Reader<'_>) -> StorageResult<Value> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Int(r.i64()?),
            2 => Value::Decimal(r.i64()?),
            3 => Value::Float(r.f64()?),
            4 => Value::Str(r.str()?),
            5 => Value::Bool(r.u8()? != 0),
            6 => Value::Timestamp(r.i64()?),
            tag => return Err(StorageError::Codec(format!("unknown value tag {tag}"))),
        })
    }

    pub(crate) fn put_values(out: &mut Vec<u8>, values: &[Value]) {
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in values {
            put_value(out, v);
        }
    }

    pub(crate) fn read_values(r: &mut Reader<'_>) -> StorageResult<Vec<Value>> {
        let n = r.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(read_value(r)?);
        }
        Ok(out)
    }

    pub(crate) fn put_key(out: &mut Vec<u8>, key: &Key) {
        put_values(out, key.parts());
    }

    pub(crate) fn read_key(r: &mut Reader<'_>) -> StorageResult<Key> {
        Ok(Key::new(read_values(r)?))
    }

    pub(crate) fn put_row(out: &mut Vec<u8>, row: &Row) {
        put_values(out, row.values());
    }

    pub(crate) fn read_row(r: &mut Reader<'_>) -> StorageResult<Row> {
        Ok(Row::new(read_values(r)?))
    }

    fn dtype_tag(dtype: crate::value::DataType) -> u8 {
        use crate::value::DataType::*;
        match dtype {
            Int => 0,
            Decimal => 1,
            Float => 2,
            Str => 3,
            Bool => 4,
            Timestamp => 5,
        }
    }

    fn dtype_from_tag(tag: u8) -> StorageResult<crate::value::DataType> {
        use crate::value::DataType::*;
        Ok(match tag {
            0 => Int,
            1 => Decimal,
            2 => Float,
            3 => Str,
            4 => Bool,
            5 => Timestamp,
            _ => return Err(StorageError::Codec(format!("unknown data type tag {tag}"))),
        })
    }

    pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &TableSchema) {
        put_str(out, schema.name());
        out.extend_from_slice(&(schema.columns().len() as u32).to_le_bytes());
        for c in schema.columns() {
            put_str(out, &c.name);
            out.push(dtype_tag(c.dtype));
            out.push(u8::from(c.nullable));
        }
        let put_positions = |out: &mut Vec<u8>, positions: &[usize]| {
            out.extend_from_slice(&(positions.len() as u32).to_le_bytes());
            for &p in positions {
                out.extend_from_slice(&(p as u32).to_le_bytes());
            }
        };
        put_positions(out, schema.primary_key());
        out.extend_from_slice(&(schema.indexes().len() as u32).to_le_bytes());
        for idx in schema.indexes() {
            put_str(out, &idx.name);
            put_positions(out, &idx.columns);
            out.push(u8::from(idx.unique));
        }
        out.extend_from_slice(&(schema.foreign_keys().len() as u32).to_le_bytes());
        for fk in schema.foreign_keys() {
            put_positions(out, &fk.columns);
            put_str(out, &fk.ref_table);
            out.extend_from_slice(&(fk.ref_columns.len() as u32).to_le_bytes());
            for c in &fk.ref_columns {
                put_str(out, c);
            }
        }
    }

    pub(crate) fn read_schema(r: &mut Reader<'_>) -> StorageResult<TableSchema> {
        let name = r.str()?;
        let ncols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 12));
        for _ in 0..ncols {
            let cname = r.str()?;
            let dtype = dtype_from_tag(r.u8()?)?;
            let nullable = r.u8()? != 0;
            columns.push(ColumnDef::new(cname, dtype, nullable));
        }
        let read_positions = |r: &mut Reader<'_>| -> StorageResult<Vec<usize>> {
            let n = r.u32()? as usize;
            let mut out = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                out.push(r.u32()? as usize);
            }
            Ok(out)
        };
        let position_names =
            |columns: &[ColumnDef], positions: &[usize]| -> StorageResult<Vec<String>> {
                positions
                    .iter()
                    .map(|&p| {
                        columns.get(p).map(|c| c.name.clone()).ok_or_else(|| {
                            StorageError::Codec(format!("column position {p} out of range"))
                        })
                    })
                    .collect()
            };
        let pk_positions = read_positions(r)?;
        let pk_names = position_names(&columns, &pk_positions)?;
        let mut schema = TableSchema::new(
            name,
            columns.clone(),
            pk_names.iter().map(String::as_str).collect(),
        )?;
        let nindexes = r.u32()? as usize;
        for _ in 0..nindexes {
            let iname = r.str()?;
            let positions = read_positions(r)?;
            let names = position_names(&columns, &positions)?;
            let unique = r.u8()? != 0;
            schema =
                schema.with_index(iname, names.iter().map(String::as_str).collect(), unique)?;
        }
        let nfks = r.u32()? as usize;
        for _ in 0..nfks {
            let positions = read_positions(r)?;
            let names = position_names(&columns, &positions)?;
            let ref_table = r.str()?;
            let nref = r.u32()? as usize;
            let mut ref_columns = Vec::with_capacity(nref.min(1 << 12));
            for _ in 0..nref {
                ref_columns.push(r.str()?);
            }
            schema = schema.with_foreign_key(
                names.iter().map(String::as_str).collect(),
                ref_table,
                ref_columns.iter().map(String::as_str).collect(),
            )?;
        }
        Ok(schema)
    }
}

/// Mutation kind bytes.  Earlier builds also wrote `MUTATION_IMAGE_V0` for
/// an update's image; the decoder still reads it as an image.
const MUTATION_IMAGE: u8 = 0;
const MUTATION_IMAGE_V0: u8 = 1;
const MUTATION_TOMBSTONE: u8 = 2;

/// Encode a `CreateTable` record's kind and schema.
fn put_create_table(out: &mut Vec<u8>, schema: &TableSchema) {
    out.push(1);
    codec::put_schema(out, schema);
}

/// Encode a `Mutation` record's kind and fields.
fn put_mutation(out: &mut Vec<u8>, txn_id: u64, op: &WalOp, commit_ts: Timestamp) {
    use codec::*;
    out.push(3);
    out.extend_from_slice(&txn_id.to_le_bytes());
    out.extend_from_slice(&commit_ts.to_le_bytes());
    out.push(match op.row {
        Some(_) => MUTATION_IMAGE,
        None => MUTATION_TOMBSTONE,
    });
    put_str(out, &op.table);
    put_key(out, &op.key);
    match &op.row {
        Some(row) => {
            out.push(1);
            put_row(out, row);
        }
        None => out.push(0),
    }
}

/// Append one record's kind and fields (the payload after its LSN).
fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::CreateTable { schema } => put_create_table(out, schema),
        WalRecord::Begin { txn_id } => {
            out.push(2);
            out.extend_from_slice(&txn_id.to_le_bytes());
        }
        WalRecord::Mutation {
            txn_id,
            op,
            commit_ts,
        } => put_mutation(out, *txn_id, op, *commit_ts),
        WalRecord::Commit { txn_id, commit_ts } => {
            out.push(4);
            out.extend_from_slice(&txn_id.to_le_bytes());
            out.extend_from_slice(&commit_ts.to_le_bytes());
        }
        WalRecord::Prepare { txn_id } => {
            out.push(5);
            out.extend_from_slice(&txn_id.to_le_bytes());
        }
    }
}

/// Decode one record payload.
fn decode_record(payload: &[u8]) -> StorageResult<(u64, WalRecord)> {
    use codec::*;
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let kind = r.u8()?;
    let record = match kind {
        1 => WalRecord::CreateTable {
            schema: read_schema(&mut r)?,
        },
        2 => WalRecord::Begin { txn_id: r.u64()? },
        3 => {
            let txn_id = r.u64()?;
            let commit_ts = r.u64()?;
            let mutation = r.u8()?;
            let table = r.str()?;
            let key = read_key(&mut r)?;
            let row = match (mutation, r.u8()? != 0) {
                (MUTATION_IMAGE | MUTATION_IMAGE_V0, true) => Some(read_row(&mut r)?),
                (MUTATION_TOMBSTONE, false) => None,
                (mutation, image) => {
                    let with = if image { "with" } else { "without" };
                    return Err(StorageError::Codec(format!(
                        "mutation kind {mutation} {with} a row image"
                    )));
                }
            };
            WalRecord::Mutation {
                txn_id,
                op: WalOp { table, key, row },
                commit_ts,
            }
        }
        4 => WalRecord::Commit {
            txn_id: r.u64()?,
            commit_ts: r.u64()?,
        },
        5 => WalRecord::Prepare { txn_id: r.u64()? },
        tag => {
            return Err(StorageError::Codec(format!("unknown record kind {tag}")));
        }
    };
    if !r.is_empty() {
        return Err(StorageError::Codec("trailing bytes after record".into()));
    }
    Ok((lsn, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::test_util::temp_dir;
    use std::sync::Arc;

    /// One record payload as the WAL frames it: the LSN, then the record.
    fn encode(lsn: u64, record: &WalRecord) -> Vec<u8> {
        let mut out = lsn.to_le_bytes().to_vec();
        encode_record(&mut out, record);
        out
    }

    fn orders_schema() -> TableSchema {
        TableSchema::new(
            "ORDERS",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("o_note", DataType::Str, true),
            ],
            vec!["o_id"],
        )
        .unwrap()
        .with_index("idx_note", vec!["o_note"], false)
        .unwrap()
    }

    fn op(id: i64) -> WalOp {
        WalOp {
            table: "ORDERS".into(),
            key: Key::int(id),
            row: Some(Row::new(vec![Value::Int(id), Value::Str(format!("n{id}"))])),
        }
    }

    fn log_one_txn(wal: &Wal, id: i64, commit_ts: Timestamp) -> u64 {
        // The engine draws ids from its transaction manager; here a local
        // counter keeps every test transaction's id unique.
        static NEXT_TXN: AtomicU64 = AtomicU64::new(1);
        let txn = NEXT_TXN.fetch_add(1, Ordering::Relaxed);
        wal.log_mutations(txn, &[op(id)], commit_ts).unwrap();
        let lsn = wal.log_commit(txn, commit_ts).unwrap();
        wal.sync_to(lsn).unwrap();
        lsn
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_codec_roundtrip() {
        let records = [
            WalRecord::CreateTable {
                schema: orders_schema(),
            },
            WalRecord::Begin { txn_id: 7 },
            WalRecord::Mutation {
                txn_id: 7,
                op: WalOp {
                    table: "ORDERS".into(),
                    key: Key::ints(&[1, 2]),
                    row: Some(Row::new(vec![
                        Value::Null,
                        Value::Float(1.5),
                        Value::Bool(true),
                        Value::Timestamp(99),
                        Value::Decimal(-100),
                    ])),
                },
                commit_ts: 41,
            },
            WalRecord::Mutation {
                txn_id: 7,
                op: WalOp {
                    table: "ORDERS".into(),
                    key: Key::int(3),
                    row: None,
                },
                commit_ts: 41,
            },
            WalRecord::Commit {
                txn_id: 7,
                commit_ts: 41,
            },
            WalRecord::Prepare { txn_id: 7 },
        ];
        for (i, record) in records.iter().enumerate() {
            let payload = encode(i as u64 + 1, record);
            let (lsn, decoded) = decode_record(&payload).unwrap();
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(&decoded, record);
        }
    }

    #[test]
    fn mutation_kind_and_row_image_are_checked_at_decode() {
        use codec::{put_key, put_row, put_str};
        let row = Row::new(vec![Value::Int(1), Value::Str("n1".into())]);
        // A raw Mutation payload: LSN, record kind, txn id, commit ts, then
        // the mutation kind byte, table, key and the optional row image.
        let payload = |mutation: u8, image: Option<&Row>| {
            let mut out = 3u64.to_le_bytes().to_vec();
            out.push(3);
            out.extend_from_slice(&7u64.to_le_bytes());
            out.extend_from_slice(&41u64.to_le_bytes());
            out.push(mutation);
            put_str(&mut out, "ORDERS");
            put_key(&mut out, &Key::int(1));
            match image {
                Some(row) => {
                    out.push(1);
                    put_row(&mut out, row);
                }
                None => out.push(0),
            }
            out
        };
        for (mutation, image) in [(2, Some(&row)), (0, None), (1, None), (9, Some(&row))] {
            assert!(
                matches!(
                    decode_record(&payload(mutation, image)),
                    Err(StorageError::Codec(_))
                ),
                "kind {mutation} with image {}",
                image.is_some()
            );
        }
        // Kind 1 is what earlier builds wrote for an update: still an image.
        let mutation = |key: i64, row: Option<Row>| WalRecord::Mutation {
            txn_id: 7,
            op: WalOp {
                table: "ORDERS".into(),
                key: Key::int(key),
                row,
            },
            commit_ts: 41,
        };
        assert_eq!(
            decode_record(&payload(1, Some(&row))).unwrap(),
            (3, mutation(1, Some(row.clone())))
        );

        // The on-disk layout, byte for byte as earlier builds encoded an
        // insert and a delete.
        let image: &[u8] = &[
            3, 0, 0, 0, 0, 0, 0, 0, // LSN
            3, // record kind: Mutation
            7, 0, 0, 0, 0, 0, 0, 0, // txn id
            41, 0, 0, 0, 0, 0, 0, 0, // commit ts
            0, // mutation kind: image
            6, 0, 0, 0, b'O', b'R', b'D', b'E', b'R', b'S', // table
            1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, // key
            1, // row image present
            2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, b'n', b'1', // row
        ];
        let tombstone: &[u8] = &[
            4, 0, 0, 0, 0, 0, 0, 0, // LSN
            3, // record kind: Mutation
            7, 0, 0, 0, 0, 0, 0, 0, // txn id
            41, 0, 0, 0, 0, 0, 0, 0, // commit ts
            2, // mutation kind: tombstone
            6, 0, 0, 0, b'O', b'R', b'D', b'E', b'R', b'S', // table
            1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, // key
            0, // no row image
        ];
        assert_eq!(encode(3, &mutation(1, Some(row))), image);
        assert_eq!(encode(4, &mutation(2, None)), tombstone);
    }

    #[test]
    fn schema_codec_roundtrip_preserves_indexes_and_fks() {
        let schema = TableSchema::new(
            "CHECKING",
            vec![
                ColumnDef::new("custid", DataType::Int, false),
                ColumnDef::new("bal", DataType::Decimal, false),
            ],
            vec!["custid"],
        )
        .unwrap()
        .with_index("idx_bal", vec!["bal"], false)
        .unwrap()
        .with_foreign_key(vec!["custid"], "ACCOUNT", vec!["custid"])
        .unwrap();
        let mut out = Vec::new();
        codec::put_schema(&mut out, &schema);
        let decoded = codec::read_schema(&mut codec::Reader::new(&out)).unwrap();
        assert_eq!(decoded, schema);
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        {
            let (wal, replay) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
            assert!(replay.records.is_empty());
            for i in 0..10 {
                log_one_txn(&wal, i, i as u64 + 1);
            }
            assert_eq!(wal.stats().appends, 30, "begin + mutation + commit each");
        }
        let (wal, replay) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 30);
        let commits = replay
            .records
            .iter()
            .filter(|r| matches!(r.record, WalRecord::Commit { .. }))
            .count();
        assert_eq!(commits, 10);
        // LSNs are dense and ordered.
        let lsns: Vec<u64> = replay.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (1..=30).collect::<Vec<u64>>());
        // New appends continue above the replayed maximum.
        let lsn = log_one_txn(&wal, 11, 12);
        assert!(lsn > 30);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn never_policy_loses_unflushed_tail_on_crash() {
        let dir = temp_dir("never");
        {
            let (wal, _) = Wal::open(&dir, SyncPolicy::Never, 1 << 20).unwrap();
            log_one_txn(&wal, 1, 1);
            wal.flush_and_fsync().unwrap();
            log_one_txn(&wal, 2, 2); // stays in the buffer
            wal.mark_crashed();
        }
        let (_wal, replay) = Wal::open(&dir, SyncPolicy::Never, 1 << 20).unwrap();
        let commits: Vec<u64> = replay
            .records
            .iter()
            .filter_map(|r| match r.record {
                WalRecord::Commit { commit_ts, .. } => Some(commit_ts),
                _ => None,
            })
            .collect();
        assert_eq!(commits, vec![1], "only the flushed commit survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_corruption_is_typed() {
        let dir = temp_dir("torn");
        let seg_path;
        {
            let (wal, _) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
            for i in 0..5 {
                log_one_txn(&wal, i, i as u64 + 1);
            }
            seg_path = wal.inner.lock().path.clone();
        }
        // Append a torn frame: a header promising more bytes than exist.
        {
            let mut f = OpenOptions::new().append(true).open(&seg_path).unwrap();
            f.write_all(&1000u32.to_le_bytes()).unwrap();
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
            f.write_all(b"partial payload").unwrap();
        }
        let (wal, replay) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
        assert!(replay.truncated_bytes > 0, "torn tail was dropped");
        assert_eq!(replay.records.len(), 15);
        drop(wal);

        // Now corrupt a byte in the middle of the oldest segment.
        let mut segments = list_segments(&dir, "wal").unwrap();
        segments.sort_by_key(|(seq, _)| *seq);
        let victim = segments.first().unwrap().1.clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let err = Wal::open(&dir, SyncPolicy::Always, 1 << 20);
        assert!(
            matches!(err, Err(StorageError::WalCorrupt { .. })),
            "mid-log corruption must surface as WalCorrupt, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_truncate() {
        let dir = temp_dir("rotate");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Always, 512).unwrap();
        for i in 0..50 {
            log_one_txn(&wal, i, i as u64 + 1);
        }
        let stats = wal.stats();
        assert!(stats.segments > 1, "tiny segments must rotate");
        let covered = wal.last_lsn();
        let removed = wal.truncate_up_to(covered).unwrap();
        assert!(removed > 0);
        assert_eq!(wal.stats().segments, 1, "only the active segment remains");
        // Replay after truncation sees only the untruncated tail.
        drop(wal);
        let (_wal, replay) = Wal::open(&dir, SyncPolicy::Always, 512).unwrap();
        assert!(replay.records.is_empty() || replay.records[0].lsn > 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = temp_dir("group");
        let policy = SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait_us: 2_000,
        };
        let (wal, _) = Wal::open(&dir, policy, 1 << 20).unwrap();
        let wal = Arc::new(wal);
        const THREADS: usize = 8;
        const PER_THREAD: i64 = 25;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = t as i64 * PER_THREAD + i;
                        log_one_txn(&wal, id, id as u64 + 1);
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.synced_commits, (THREADS as u64) * PER_THREAD as u64);
        assert!(stats.fsyncs > 0);
        assert!(
            stats.commits_per_fsync() >= 2.0,
            "group commit must amortize fsyncs: {} commits / {} fsyncs",
            stats.synced_commits,
            stats.fsyncs
        );
        assert!(stats.batch_max >= 2);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_percentiles_cover_every_fsync_of_a_long_run() {
        // Past 2^20 fsyncs the later batches must still move the
        // percentiles: half the batches come after the first million.
        let dir = temp_dir("batch-hist");
        let (wal, _) = Wal::open(&dir, SyncPolicy::group_commit(), 1 << 20).unwrap();
        for size in [1, 8] {
            for _ in 0..1 << 20 {
                wal.record_batch(size);
            }
        }
        let stats = wal.stats();
        assert_eq!(stats.batch_p50, 1);
        assert_eq!(stats.batch_p90, 8);
        assert_eq!(stats.batch_max, 8);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_streams_in_one_directory_are_disjoint() {
        let dir = temp_dir("named-streams");
        {
            let (a, _) = Wal::open_named(&dir, "wal-shard0", SyncPolicy::Always, 1 << 20).unwrap();
            let (b, _) = Wal::open_named(&dir, "wal-shard1", SyncPolicy::Always, 1 << 20).unwrap();
            let (plain, _) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
            log_one_txn(&a, 1, 1);
            log_one_txn(&a, 2, 2);
            log_one_txn(&b, 3, 3);
            log_one_txn(&plain, 4, 4);
        }
        // Each stream replays only its own records, with independent LSNs.
        let (_, ra) = Wal::open_named(&dir, "wal-shard0", SyncPolicy::Always, 1 << 20).unwrap();
        let (_, rb) = Wal::open_named(&dir, "wal-shard1", SyncPolicy::Always, 1 << 20).unwrap();
        let (_, rp) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(ra.records.len(), 6, "two txns on shard 0");
        assert_eq!(rb.records.len(), 3, "one txn on shard 1");
        assert_eq!(rp.records.len(), 3, "one txn on the plain stream");
        assert_eq!(rb.records[0].lsn, 1, "streams have independent LSN spaces");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prepare_without_commit_is_replayed_as_in_doubt_record() {
        let dir = temp_dir("prepare");
        {
            let (wal, _) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
            let txn = 1;
            wal.log_mutations(txn, &[op(1)], 9).unwrap();
            let lsn = wal.log_prepare(txn).unwrap();
            wal.sync_to(lsn).unwrap();
        }
        let (_, replay) = Wal::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert!(matches!(
            replay.records[2].record,
            WalRecord::Prepare { .. }
        ));
        assert_eq!(replay.max_txn_id, 1, "prepare markers carry the txn id");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policy_descriptions() {
        assert_eq!(SyncPolicy::Always.describe(), "always");
        assert_eq!(SyncPolicy::Never.describe(), "never");
        assert!(SyncPolicy::group_commit().describe().starts_with("group("));
    }

    #[test]
    fn durable_lsn_tracks_fsyncs_not_appends() {
        let dir = temp_dir("durable");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Never, 1 << 20).unwrap();
        let txn = 1;
        wal.log_mutations(txn, &[op(1)], 1).unwrap();
        let lsn = wal.log_commit(txn, 1).unwrap();
        assert_eq!(wal.last_lsn(), lsn);
        assert_eq!(wal.durable_lsn(), 0, "nothing fsynced yet");
        wal.flush_and_fsync().unwrap();
        assert_eq!(wal.durable_lsn(), lsn);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
