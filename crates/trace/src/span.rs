//! Span recording: a global on/off gate, per-thread lock-free ring buffers,
//! and a drain API for exporters.
//!
//! The recording hot path is: one relaxed atomic load (the gate), a
//! thread-local lookup, and four relaxed atomic stores into a fixed ring
//! slot bracketed by two release stores of the slot's sequence number.  No
//! locks, no allocation.  Readers ([`take_events`]) validate each slot's
//! sequence number around the field loads; a slot overwritten mid-read is
//! dropped rather than surfaced torn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable that enables tracing at process start
/// (`OLXP_TRACE=on|1|true|yes`).
pub const ENV_TRACE: &str = "OLXP_TRACE";

/// Events each thread's ring buffer can hold before old spans are
/// overwritten.
const RING_CAPACITY: usize = 1 << 14;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// True when span recording is on.  This is the single relaxed-atomic branch
/// that every instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off globally.
pub fn set_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.  All span timestamps
/// share this clock, so events from different threads order correctly.
#[inline]
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Lifecycle stage a span measures.  The `as_str` names are the category
/// strings in exported traces and the stage labels in metrics breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanCategory {
    /// Write-lock acquisition wait during statement execution.
    Lock = 0,
    /// Encoding + appending a commit's mutations to a shard WAL stream.
    WalAppend = 1,
    /// Group-commit fsync wait (commit marker durability).
    Fsync = 2,
    /// Installing committed versions into the row store.
    Install = 3,
    /// 2PC prepare phase across a cross-shard commit's WAL streams.
    TwoPcPrepare = 4,
    /// 2PC commit-marker phase of a cross-shard commit.
    TwoPcCommit = 5,
    /// One replication applier batch (append→apply lag is the span start).
    ReplicationApply = 6,
    /// Sealing + encoding one delta chunk into the main store.
    Compaction = 7,
    /// One query operator processing its batches.
    QueryOperator = 8,
    /// Analytical-read wait for the freshness policy's staleness bound.
    FreshnessWait = 9,
    /// Whole commit call, start to finish.
    Commit = 10,
}

/// All categories, in stable presentation order.
pub const ALL_CATEGORIES: [SpanCategory; 11] = [
    SpanCategory::Lock,
    SpanCategory::WalAppend,
    SpanCategory::Fsync,
    SpanCategory::Install,
    SpanCategory::TwoPcPrepare,
    SpanCategory::TwoPcCommit,
    SpanCategory::ReplicationApply,
    SpanCategory::Compaction,
    SpanCategory::QueryOperator,
    SpanCategory::FreshnessWait,
    SpanCategory::Commit,
];

impl SpanCategory {
    /// Stable string name used in trace exports and report tables.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCategory::Lock => "lock",
            SpanCategory::WalAppend => "wal_append",
            SpanCategory::Fsync => "fsync",
            SpanCategory::Install => "install",
            SpanCategory::TwoPcPrepare => "2pc_prepare",
            SpanCategory::TwoPcCommit => "2pc_commit",
            SpanCategory::ReplicationApply => "replication_apply",
            SpanCategory::Compaction => "compaction",
            SpanCategory::QueryOperator => "query_operator",
            SpanCategory::FreshnessWait => "freshness_wait",
            SpanCategory::Commit => "commit",
        }
    }

    /// Index into dense per-category arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of categories (size for dense per-category arrays).
    pub const COUNT: usize = 11;

    fn from_u8(v: u8) -> Option<SpanCategory> {
        ALL_CATEGORIES.get(v as usize).copied()
    }
}

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What stage this span measures.
    pub category: SpanCategory,
    /// Shard the work ran against (`u32::MAX` when not shard-specific).
    pub shard: u32,
    /// Transaction id, LSN, or other correlation id (0 when none).
    pub txn_id: u64,
    /// Start, nanoseconds since [`now_nanos`]'s epoch.
    pub start_nanos: u64,
    /// End, nanoseconds since the same epoch.
    pub end_nanos: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// A span event plus the trace-local id of the thread that recorded it.
#[derive(Clone, Copy, Debug)]
pub struct TaggedSpan {
    /// Dense per-process thread id (registration order, from 1).
    pub tid: u64,
    /// The recorded span.
    pub event: SpanEvent,
}

/// One ring slot: a sequence word bracketing four payload words.  Sequence
/// `2*i + 2` means "write number `i` is complete"; odd means in progress.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

struct RingBuffer {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl RingBuffer {
    fn new(capacity: usize) -> RingBuffer {
        debug_assert!(capacity.is_power_of_two());
        RingBuffer {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: [
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                    ],
                })
                .collect(),
        }
    }

    /// Push one event.  Only the owning thread calls this, so `head` has a
    /// single writer and plain release stores suffice.
    fn push(&self, ev: &SpanEvent) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (self.slots.len() - 1)];
        slot.seq.store(2 * h + 1, Ordering::Release);
        slot.words[0].store(
            ((ev.category as u64) << 32) | ev.shard as u64,
            Ordering::Relaxed,
        );
        slot.words[1].store(ev.txn_id, Ordering::Relaxed);
        slot.words[2].store(ev.start_nanos, Ordering::Relaxed);
        slot.words[3].store(ev.end_nanos, Ordering::Relaxed);
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Read events `[from, head)` that are still resident, skipping any slot
    /// overwritten while being read.  Returns the events and the new head.
    fn snapshot_since(&self, from: u64) -> (Vec<SpanEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let start = from.max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue;
            }
            let w0 = slot.words[0].load(Ordering::Acquire);
            let w1 = slot.words[1].load(Ordering::Acquire);
            let w2 = slot.words[2].load(Ordering::Acquire);
            let w3 = slot.words[3].load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue;
            }
            let Some(category) = SpanCategory::from_u8((w0 >> 32) as u8) else {
                continue;
            };
            out.push(SpanEvent {
                category,
                shard: w0 as u32,
                txn_id: w1,
                start_nanos: w2,
                end_nanos: w3,
            });
        }
        (out, head)
    }
}

struct ThreadBuf {
    tid: u64,
    buf: RingBuffer,
    /// Head watermark up to which [`take_events`] has already drained.
    consumed: AtomicU64,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL_BUF: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf: RingBuffer::new(RING_CAPACITY),
            consumed: AtomicU64::new(0),
        });
        registry().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// Record one completed span into the calling thread's ring buffer.  A no-op
/// (one relaxed load + branch) when tracing is disabled.
#[inline]
pub fn record_span(category: SpanCategory, shard: u32, txn_id: u64, start_nanos: u64) {
    if !enabled() {
        return;
    }
    let ev = SpanEvent {
        category,
        shard,
        txn_id,
        start_nanos,
        end_nanos: now_nanos(),
    };
    LOCAL_BUF.with(|b| b.buf.push(&ev));
}

/// RAII span: records on drop.  Obtained from [`span`]; inert (zero work on
/// drop) when tracing was disabled at construction.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    category: SpanCategory,
    shard: u32,
    txn_id: u64,
    start_nanos: u64,
    armed: bool,
}

impl SpanGuard {
    /// True when this guard will record on drop.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record_span(self.category, self.shard, self.txn_id, self.start_nanos);
        }
    }
}

/// Begin a span.  Checks the gate once; the returned guard records on drop.
#[inline]
pub fn span(category: SpanCategory, shard: u32, txn_id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            category,
            shard,
            txn_id,
            start_nanos: 0,
            armed: false,
        };
    }
    SpanGuard {
        category,
        shard,
        txn_id,
        start_nanos: now_nanos(),
        armed: true,
    }
}

/// Drain every thread's ring buffer: returns all span events recorded since
/// the previous `take_events` call (bounded by each ring's capacity), tagged
/// with their recording thread, sorted by start time.
pub fn take_events() -> Vec<TaggedSpan> {
    let mut out = Vec::new();
    let buffers: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    for tb in buffers {
        let from = tb.consumed.load(Ordering::Acquire);
        let (events, head) = tb.buf.snapshot_since(from);
        tb.consumed.store(head, Ordering::Release);
        out.extend(
            events
                .into_iter()
                .map(|event| TaggedSpan { tid: tb.tid, event }),
        );
    }
    out.sort_by_key(|t| (t.event.start_nanos, t.tid));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The enable gate is process-global; serialize the tests that flip it.
    fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _gate = gate_lock();
        set_enabled(false);
        record_span(SpanCategory::Lock, 0, 1, now_nanos());
        let guard = span(SpanCategory::Fsync, 0, 2);
        assert!(!guard.is_armed());
        drop(guard);
        // Whatever other tests left behind, nothing new from this thread with
        // these ids may appear.
        let events = take_events();
        assert!(!events
            .iter()
            .any(|t| t.event.txn_id == 1 && t.event.category == SpanCategory::Lock));
        assert!(!events
            .iter()
            .any(|t| t.event.txn_id == 2 && t.event.category == SpanCategory::Fsync));
    }

    #[test]
    fn spans_round_trip_through_the_ring() {
        let _gate = gate_lock();
        set_enabled(true);
        let start = now_nanos();
        record_span(SpanCategory::WalAppend, 3, 77, start);
        let guard = span(SpanCategory::Install, 1, 78);
        assert!(guard.is_armed());
        drop(guard);
        set_enabled(false);
        let events = take_events();
        let wal: Vec<_> = events.iter().filter(|t| t.event.txn_id == 77).collect();
        assert_eq!(wal.len(), 1);
        assert_eq!(wal[0].event.category, SpanCategory::WalAppend);
        assert_eq!(wal[0].event.shard, 3);
        assert!(wal[0].event.end_nanos >= wal[0].event.start_nanos);
        assert!(events.iter().any(|t| t.event.txn_id == 78
            && t.event.category == SpanCategory::Install
            && t.event.shard == 1));
        // A second drain returns nothing new.
        let again = take_events();
        assert!(!again.iter().any(|t| t.event.txn_id == 77));
    }

    #[test]
    fn multi_thread_events_merge_sorted() {
        let _gate = gate_lock();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    for j in 0..50u64 {
                        let s = now_nanos();
                        record_span(
                            SpanCategory::QueryOperator,
                            i,
                            1_000_000 + i as u64 * 100 + j,
                            s,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let events = take_events();
        let mine: Vec<_> = events
            .iter()
            .filter(|t| t.event.txn_id >= 1_000_000)
            .collect();
        assert_eq!(mine.len(), 200);
        assert!(events
            .windows(2)
            .all(|w| w[0].event.start_nanos <= w[1].event.start_nanos));
    }

    #[test]
    fn category_names_are_stable() {
        for c in ALL_CATEGORIES {
            assert_eq!(SpanCategory::from_u8(c as u8), Some(c));
            assert!(!c.as_str().is_empty());
        }
        assert_eq!(ALL_CATEGORIES.len(), SpanCategory::COUNT);
    }
}
