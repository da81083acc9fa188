//! One lifecycle for the engine's background threads.
//!
//! The per-shard replication applier, the delta compactor and the telemetry
//! sampler are each a loop body handed to a [`Worker`]: a named thread, its
//! stop flag, one park/notify [`Signal`] and its join handle.  An idle body
//! parks for at most [`IDLE_PARK`] (the sampler: one sampling interval), and
//! [`Worker::stop`] wakes it at once and joins it.

use crate::database::SharedColumnTables;
use crate::metrics::EngineMetrics;
use olxp_storage::{ReplicationLog, Replicator};
use olxp_trace::SpanCategory;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle applier or compactor parks before looking again.
/// Appends, applied mutations and `stop()` wake it sooner; this only bounds
/// the delay when a wake-up races the park.
pub(crate) const IDLE_PARK: Duration = Duration::from_millis(10);

/// Replication records an applier applies per step.
pub(crate) const REPLICATION_BATCH: usize = 512;

/// A worker's stop flag and its park/notify signal.
///
/// A flag + condvar rather than a queue: all a notification conveys is
/// "there may be work since you last looked".  The pending flag absorbs a
/// notification that arrives while the worker is busy, so none is missed.
#[derive(Default)]
pub(crate) struct Signal {
    stop: AtomicBool,
    pending: Mutex<bool>,
    condvar: Condvar,
}

impl Signal {
    /// True once the worker was asked to stop.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Wake the worker, or make its next park return at once.
    pub(crate) fn notify(&self) {
        *self.pending.lock() = true;
        self.condvar.notify_one();
    }

    /// Park until notified or `timeout` passes, consuming the notification.
    pub(crate) fn park(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut pending = self.pending.lock();
        while !*pending && !self.condvar.wait_until(&mut pending, deadline).timed_out() {}
        *pending = false;
    }
}

/// A background thread: spawned by [`Worker::start`], parked and woken
/// through its [`Signal`], stopped and joined by [`Worker::stop`].
#[derive(Default)]
pub(crate) struct Worker {
    signal: Arc<Signal>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Worker {
    /// Spawn `body` on a thread named `name`.  The body receives the
    /// worker's signal and returns once [`Signal::stopping`] reads true.
    pub(crate) fn start(&self, name: String, body: impl FnOnce(&Signal) + Send + 'static) {
        let signal = Arc::clone(&self.signal);
        let handle = thread::Builder::new()
            .name(name)
            .spawn(move || body(&signal))
            .expect("spawning a background worker succeeds");
        *self.thread.lock() = Some(handle);
    }

    /// The worker's signal, for other threads that wake it.
    pub(crate) fn signal(&self) -> Arc<Signal> {
        Arc::clone(&self.signal)
    }

    /// True while the thread has been started and has neither returned nor
    /// panicked.
    pub(crate) fn running(&self) -> bool {
        let thread = self.thread.lock();
        thread.as_ref().is_some_and(|handle| !handle.is_finished())
    }

    /// Ask the thread to stop, wake it and join it.  Idempotent.  Called on
    /// the worker's own thread (the sampler can hold the database's last
    /// `Arc`), it detaches instead: the body sees the flag and returns.
    pub(crate) fn stop(&self) {
        self.stop_waking(|| {});
    }

    /// [`Self::stop`] for a body that parks somewhere other than its signal
    /// (an applier parks on its shard's log): `wake` runs after the stop
    /// flag is set, before the join.
    pub(crate) fn stop_waking(&self, wake: impl FnOnce()) {
        let Some(handle) = self.thread.lock().take() else {
            return;
        };
        self.request_stop(wake);
        if handle.thread().id() != thread::current().id() {
            let _ = handle.join();
        }
    }

    fn request_stop(&self, wake: impl FnOnce()) {
        self.signal.stop.store(true, Ordering::Release);
        self.signal.notify();
        wake();
    }
}

/// One shard's applier body: drain the shard's replication log into the
/// columnar replicas in [`REPLICATION_BATCH`]-record steps, parking on the
/// log while it is empty.  Apply failures are counted and retried with a
/// capped backoff; the failed batch stays queued (see
/// [`Replicator::apply_pending`]), so committed mutations are never lost
/// while the pipeline is unhealthy.
pub(crate) fn apply(
    signal: &Signal,
    shard: usize,
    log: &ReplicationLog,
    replicator: &Mutex<Replicator>,
    metrics: &EngineMetrics,
    compactor: &Signal,
) {
    // Error backoff is independent of the idle park: it starts small so
    // transient failures retry quickly (a parked freshness-bounded reader is
    // waiting on this thread), growing only while failures persist.
    let initial_backoff = Duration::from_micros(100);
    let max_backoff = Duration::from_millis(5);
    let mut backoff = initial_backoff;
    while !signal.stopping() {
        // The replication-apply span covers append→apply for the batch: it
        // starts when the oldest record in the batch was appended (the lag a
        // freshness-bounded reader would wait out), not when the applier
        // picked it up.
        let trace_from = olxp_trace::enabled().then(|| {
            let now = olxp_trace::now_nanos();
            let age = log.oldest_pending_age().map_or(0, |age| age.as_nanos());
            now.saturating_sub(age as u64)
        });
        let result = replicator.lock().apply_pending(REPLICATION_BATCH);
        match result {
            Ok(0) => {
                log.wait_for_pending(IDLE_PARK);
            }
            Ok(applied) => {
                metrics.add_replication_applied(applied as u64);
                if let Some(start) = trace_from {
                    let category = SpanCategory::ReplicationApply;
                    olxp_trace::record_span(category, shard as u32, applied as u64, start);
                    metrics.record_stage(category, olxp_trace::now_nanos().saturating_sub(start));
                }
                // Applied mutations grow delta tails: give the compactor a
                // chance to seal any chunk they filled.
                compactor.notify();
                backoff = initial_backoff;
            }
            Err(_) => {
                metrics.add_replication_error();
                thread::sleep(backoff);
                backoff = (backoff * 2).min(max_backoff);
            }
        }
    }
}

/// The compactor body.  Each sweep snapshots the current table map (so
/// tables installed later are picked up) and seals every full delta chunk
/// into the compressed main tier.  A sweep that sealed nothing parks until
/// an applier applies more mutations, or for [`IDLE_PARK`] — the self-poll
/// that bounds staleness when writes bypass the appliers (the synchronous
/// catch-up of `finish_load` and recovery).
pub(crate) fn compact(signal: &Signal, col_tables: &SharedColumnTables, metrics: &EngineMetrics) {
    while !signal.stopping() {
        let tables: Vec<_> = col_tables.read().values().cloned().collect();
        let mut sealed = 0u64;
        for table in tables {
            if signal.stopping() {
                break;
            }
            // One `compact_chunk` call per chunk: each takes the table's
            // write lock once, so readers and the applier interleave with the
            // rewrite — and each seal/encode gets its own stage-histogram
            // entry while tracing.
            let mut chunks = 0u64;
            loop {
                let trace_from = olxp_trace::enabled().then(olxp_trace::now_nanos);
                if !table.compact_chunk() {
                    break;
                }
                if let Some(start) = trace_from {
                    let elapsed = olxp_trace::now_nanos().saturating_sub(start);
                    metrics.record_stage(SpanCategory::Compaction, elapsed);
                }
                chunks += 1;
                if signal.stopping() {
                    break;
                }
            }
            metrics.add_chunks_compacted(chunks);
            sealed += chunks;
        }
        if sealed == 0 {
            signal.park(IDLE_PARK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Worker {
        /// End the thread as if its body had returned on its own: stop and
        /// wake it, then wait for it to exit while its handle stays stored,
        /// so [`Worker::running`] must tell an exited thread from a live one
        /// and a later [`Worker::stop`] joins a finished thread.
        pub(crate) fn halt_for_test(&self, wake: impl FnOnce()) {
            assert!(self.thread.lock().is_some(), "worker was started");
            self.request_stop(wake);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.thread.lock().as_ref().is_some_and(|h| h.is_finished()) {
                assert!(Instant::now() < deadline, "worker exited after stop");
                thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn stop_wakes_a_long_park_joins_and_is_idempotent() {
        let worker = Worker::default();
        assert!(!worker.running(), "not started yet");
        worker.stop();
        worker.start("olxp-test-worker".into(), |signal| {
            while !signal.stopping() {
                signal.park(Duration::from_secs(60));
            }
        });
        assert!(worker.running());
        let started = Instant::now();
        worker.stop();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop woke the park"
        );
        assert!(!worker.running());
        worker.stop();
    }

    #[test]
    fn an_exited_thread_is_not_running_and_stop_joins_it() {
        let worker = Worker::default();
        worker.start("olxp-test-exit".into(), |signal| {
            while !signal.stopping() {
                signal.park(Duration::from_secs(60));
            }
        });
        worker.halt_for_test(|| {});
        assert!(worker.thread.lock().is_some(), "handle still stored");
        assert!(!worker.running());
        worker.stop();
        assert!(worker.thread.lock().is_none());
    }

    #[test]
    fn a_pending_notification_is_not_lost() {
        let signal = Signal::default();
        signal.notify();
        let started = Instant::now();
        signal.park(Duration::from_secs(60));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn stop_on_the_workers_own_thread_detaches() {
        let worker = Arc::new(Worker::default());
        let own = Arc::clone(&worker);
        let (returned, stopped) = std::sync::mpsc::channel();
        worker.start("olxp-test-self-stop".into(), move |signal| {
            signal.park(Duration::from_secs(60));
            own.stop();
            returned.send(()).unwrap();
        });
        worker.signal().notify();
        let wait = stopped.recv_timeout(Duration::from_secs(10));
        assert!(wait.is_ok(), "stop on the worker's own thread returned");
        assert!(!worker.running());
    }
}
