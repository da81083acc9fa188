//! One round: a fresh process builds one engine, sets it up, runs the
//! workload's fixed request list, checks the result and prints one JSON line.
//!
//! The parent (`run.rs`) never measures anything itself; it starts this as
//! `olxp-perf round ...`, reads the line and takes medians over rounds.

use crate::affinity::Placement;
use crate::layers::{self, ratio, Observed, TxnCounts};
use crate::probe;
use crate::spans::Recorder;
use crate::spec::{self, Class, Spec};
use crate::stats;
use crate::{json, Res};
use olxp_engine::{
    DurabilityConfig, EngineConfig, EngineResult, HybridDatabase, MetricsSnapshot, Session,
};
use olxp_query::Plan;
use olxp_storage::{Key, Row};
use olxp_txn::TxnManagerStats;
use olxpbench_core::{AnalyticalQuery, HybridTransaction, OnlineTransaction, Workload};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RoundArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// List sizes relative to the nominal ones (`seconds / NOMINAL_SECONDS`).
    pub scale: f64,
    pub traced: bool,
    pub out: PathBuf,
    pub round: usize,
}

/// One generated request: which template, and the seed of the generator its
/// parameters are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub template: u32,
    pub seed: u64,
}

/// The measured class's templates.  Analytical queries are planned when the
/// list is generated, so the engine receives finished plans.
enum Templates {
    Oltp(Vec<Arc<dyn OnlineTransaction>>),
    Olap(Vec<Arc<dyn AnalyticalQuery>>),
    Hybrid(Vec<Arc<dyn HybridTransaction>>),
}

impl Templates {
    fn of(workload: &dyn Workload, class: Class) -> Templates {
        match class {
            Class::Oltp => Templates::Oltp(workload.online_transactions()),
            Class::Olap => Templates::Olap(workload.analytical_queries()),
            Class::Hybrid => Templates::Hybrid(workload.hybrid_transactions()),
        }
    }

    /// Execute one request; analytical queries return a digest of their rows.
    fn execute(
        &self,
        session: &Session,
        request: Request,
        plan: Option<&Plan>,
    ) -> EngineResult<u64> {
        let mut rng = StdRng::seed_from_u64(request.seed);
        let i = request.template as usize;
        match self {
            Templates::Oltp(t) => t[i].execute(session, &mut rng).map(|()| 0),
            Templates::Hybrid(t) => t[i].execute(session, &mut rng).map(|()| 0),
            Templates::Olap(_) => {
                let plan = plan.expect("analytical requests are planned at generation");
                session.analytical_query(plan).map(|out| {
                    let mut h = DefaultHasher::new();
                    out.rows.len().hash(&mut h);
                    for row in &out.rows {
                        row.values().hash(&mut h);
                    }
                    h.finish()
                })
            }
        }
    }
}

/// SplitMix64 step: derives the independent streams (load, list, background)
/// of one `--seed`.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_LOAD: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_LIST: u64 = 3;
const STREAM_BACKGROUND: u64 = 4;

/// The suite's default mix over its templates; analytical queries weigh the
/// same.
fn mix_weights(workload: &dyn Workload, class: Class) -> Vec<u32> {
    let names = spec::template_names(workload, class);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    match class {
        Class::Oltp => workload.default_online_mix().weights_for(&names),
        Class::Hybrid => workload.default_hybrid_mix().weights_for(&names),
        Class::Olap => vec![1; names.len()],
    }
}

/// How many of `count` requests each template gets: its share of the weights,
/// rounded by largest remainder so the counts add up.
pub fn apportion(weights: &[u32], count: usize) -> Vec<usize> {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|&w| (u64::from(w) * count as u64 / total) as usize)
        .collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&t| std::cmp::Reverse(u64::from(weights[t]) * count as u64 % total));
    let missing = count - counts.iter().sum::<usize>();
    for &t in by_remainder.iter().take(missing) {
        counts[t] += 1;
    }
    counts
}

/// The seeded request list: `count` requests from `seed`, nothing else.
///
/// The *composition* is fixed — every template gets exactly its share of the
/// mix — and the seed decides the order and each request's parameters.  Drawing
/// the templates at random instead makes two seeds differ in how much work
/// they ask for (a tenth, on `sub_hybrid`, whose templates differ fifty-fold in
/// cost), which is the generator's noise, not the engine's.  Analytical lists
/// visit their templates round-robin.
pub fn generate(workload: &dyn Workload, class: Class, seed: u64, count: usize) -> Vec<Request> {
    let counts = apportion(&mix_weights(workload, class), count);
    let mut rng = StdRng::seed_from_u64(seed);
    let templates: Vec<u32> = if class == Class::Olap {
        (0..count).map(|i| (i % counts.len()) as u32).collect()
    } else {
        let mut list: Vec<u32> = (0u32..)
            .zip(&counts)
            .flat_map(|(t, &n)| std::iter::repeat(t).take(n))
            .collect();
        // Fisher-Yates.
        for i in (1..list.len()).rev() {
            list.swap(i, rng.gen_range(0..=i));
        }
        list
    };
    templates
        .into_iter()
        .map(|template| Request {
            template,
            seed: rng.next_u64(),
        })
        .collect()
}

/// Measured requests of a round at `scale`, a whole number per client.
pub fn measured_requests(spec: &Spec, scale: f64) -> usize {
    let per_client = (spec.requests as f64 * scale / spec.clients as f64).round() as usize;
    per_client.max(1) * spec.clients
}

struct ClientResult {
    /// `(template, latency in nanoseconds)` of every successful request.
    latencies: Vec<(u32, u64)>,
    failed: u64,
    /// Per template, the folded digest of its analytical results.
    digests: Vec<u64>,
}

/// A template retries a conflict five times back to back, which under
/// wait-die all fall inside the one fsync the lock holder is waiting for.  The
/// client then does what OLxPBench's does with an aborted transaction:
/// re-submit the same request, here after a short pause, and count the whole
/// episode as one request's latency.
const RESUBMIT_AFTER: Duration = Duration::from_micros(200);
const MAX_SUBMISSIONS: usize = 100;

/// A request list and what it takes to run it.
struct List<'a> {
    templates: &'a Templates,
    names: &'a [Arc<str>],
    requests: &'a [Request],
    /// One plan per request for analytical lists, empty otherwise.
    plans: &'a [Plan],
}

/// A closed-loop client: the next request goes out when the last returned.
/// Client `first` of `stride` runs requests `first`, `first + stride`, ...
fn closed_loop(
    session: &Session,
    list: &List,
    first: usize,
    stride: usize,
    placement: &Placement,
    mut recorder: Recorder,
) -> (ClientResult, Recorder) {
    placement.client(first);
    let mut out = ClientResult {
        latencies: Vec::with_capacity(list.requests.len() / stride + 1),
        failed: 0,
        digests: vec![0; list.names.len()],
    };
    let span = recorder.begin("core.client", crate::spans::NONE);
    for index in (first..list.requests.len()).step_by(stride) {
        let request = list.requests[index];
        let submit = || {
            list.templates
                .execute(session, request, list.plans.get(index))
        };
        let start = Instant::now();
        let mut result = submit();
        let mut submissions = 1;
        while submissions < MAX_SUBMISSIONS && matches!(&result, Err(e) if e.is_retryable()) {
            std::thread::sleep(RESUBMIT_AFTER);
            result = submit();
            submissions += 1;
        }
        let end = Instant::now();
        let t = request.template as usize;
        match result {
            Ok(digest) => {
                out.latencies
                    .push((request.template, (end - start).as_nanos() as u64));
                out.digests[t] = out.digests[t].rotate_left(1) ^ digest;
            }
            Err(e) => {
                eprintln!("request {index} ({}) failed: {e}", list.names[t]);
                out.failed += 1;
            }
        }
        recorder.request(&list.names[t], index as u32, start, end);
    }
    recorder.end(span);
    (out, recorder)
}

/// What the open-loop OLTP client beside `fib_mixed` saw while the measured
/// list ran.  Warm-up and the back-to-back tail after the list count only in
/// `failed_outside`.
#[derive(Default)]
struct BackgroundResult {
    /// Completion minus due time, nanoseconds.
    latencies: Vec<u64>,
    /// Send minus due time, nanoseconds.
    lateness: Vec<u64>,
    /// Requests sent while the measured list ran, and how many of them failed.
    attempted: u64,
    failed: u64,
    /// Failures before or after the measured list.
    failed_outside: u64,
    /// The client's own list ended before the measured one did, so the last
    /// queries ran with no writer beside them.
    ran_dry: bool,
}

/// What the warm-up and the measured list leave behind.
struct Measured {
    /// Engine and transaction-manager counters as the measured list started.
    before: MetricsSnapshot,
    txns_before: TxnManagerStats,
    /// Wall time of the measured list.
    wall: Duration,
    results: Vec<ClientResult>,
    background: BackgroundResult,
}

/// Where the round is, as the open-loop client needs to know it.
const WARMING_UP: u8 = 0;
const MEASURING: u8 = 1;
const LIST_ENDED: u8 = 2;

/// Open-loop client: request `k` of a fixed list is due `k / rate` seconds
/// after the start and is timed from then, whether or not it could be sent on
/// time.  Once the measured list has ended, what is left of this list runs
/// back to back, untimed: the writes the store ends up with are the list's,
/// however long the measured list took.
fn open_loop(
    session: &Session,
    templates: &Templates,
    requests: &[Request],
    rate: f64,
    phase: &AtomicU8,
    placement: &Placement,
) -> BackgroundResult {
    placement.background();
    let mut out = BackgroundResult::default();
    let start = Instant::now();
    for (k, &request) in requests.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if phase.load(Ordering::Acquire) != LIST_ENDED {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let sent = Instant::now();
        let result = templates.execute(session, request, None);
        let done = Instant::now();
        let measured = phase.load(Ordering::Acquire) == MEASURING;
        out.attempted += u64::from(measured);
        match result {
            Ok(_) if measured => {
                out.latencies.push((done - due).as_nanos() as u64);
                out.lateness.push((sent - due).as_nanos() as u64);
            }
            Ok(_) => {}
            Err(_) if measured => out.failed += 1,
            Err(_) => out.failed_outside += 1,
        }
    }
    out.ran_dry = phase.load(Ordering::Acquire) != LIST_ENDED;
    out
}

fn engine_config(spec: &Spec, data_dir: Option<&Path>, traced: bool) -> EngineConfig {
    let mut config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_tracing(traced);
    if spec.columnar_only {
        config.analytical_rowstore_percent = 0;
    }
    if let Some(dir) = data_dir {
        config = config.with_durability(DurabilityConfig::at(dir.to_string_lossy().into_owned()));
    }
    config
}

/// Per table, an order-independent digest of every row visible in the row
/// store (tables in name order).
pub fn table_digests(db: &HybridDatabase) -> Res<Vec<(String, u64)>> {
    let ts = db.txn_manager().oracle().read_ts();
    let mut tables = db.catalog().table_names();
    tables.sort();
    tables
        .into_iter()
        .map(|table| {
            let mut total = 0u64;
            db.scan_table(&table, ts, |_, row| {
                total = total.wrapping_add(image_hash(row))
            })?;
            Ok((table, total))
        })
        .collect()
}

/// One digest of the whole row store.
fn state_digest(tables: &[(String, u64)]) -> u64 {
    let mut h = DefaultHasher::new();
    tables.hash(&mut h);
    h.finish()
}

fn image_hash(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.values().hash(&mut h);
    h.finish()
}

/// Every visible row's key and image hash, for comparing a store with what
/// recovery rebuilds from its log.
fn row_images(db: &HybridDatabase) -> Res<HashMap<(String, Key), u64>> {
    let ts = db.txn_manager().oracle().read_ts();
    let mut images = HashMap::new();
    for table in db.catalog().table_names() {
        db.scan_table(&table, ts, |key, row| {
            images.insert((table.clone(), key.clone()), image_hash(row));
        })?;
    }
    Ok(images)
}

/// How a recovered store differs from the acknowledged one.
#[derive(Debug, Default, PartialEq, Eq)]
struct RecoveryDiff {
    /// Acknowledged rows recovery did not bring back.
    missing: usize,
    /// Rows recovery brought back that were never acknowledged (or deleted).
    extra: usize,
    /// Rows present on both sides with different contents, per table.
    differing: BTreeMap<String, usize>,
}

/// The one table whose rows may come back from recovery with an older image,
/// and the most such rows tolerated per NewOrder transaction run (see "Known
/// defect" in `perf/README.md`).  A NewOrder that names an item twice writes
/// its STOCK row twice in one transaction, and replay keeps the first image;
/// about one order in a hundred does.  Anything beyond that — another table,
/// a missing or resurrected row, more rows than repeated items explain — is a
/// lost commit and makes the round incorrect.
const STALE_IMAGE_TABLE: &str = "STOCK";
const STALE_IMAGES_PER_NEW_ORDER: f64 = 0.03;

impl RecoveryDiff {
    fn differing_rows(&self) -> usize {
        self.differing.values().sum()
    }

    /// Whether every acknowledged commit survived, the known defect aside.
    fn survived(&self, new_orders: usize) -> bool {
        let ceiling = (new_orders as f64 * STALE_IMAGES_PER_NEW_ORDER).ceil() as usize;
        self.missing == 0
            && self.extra == 0
            && self.differing.keys().all(|t| t == STALE_IMAGE_TABLE)
            && self.differing_rows() <= ceiling
    }
}

fn recovery_diff(
    acknowledged: &HashMap<(String, Key), u64>,
    db: &HybridDatabase,
) -> Res<RecoveryDiff> {
    let recovered = row_images(db)?;
    let mut diff = RecoveryDiff {
        extra: recovered
            .keys()
            .filter(|k| !acknowledged.contains_key(k))
            .count(),
        ..RecoveryDiff::default()
    };
    for (key, image) in acknowledged {
        match recovered.get(key) {
            None => diff.missing += 1,
            Some(found) if found != image => *diff.differing.entry(key.0.clone()).or_default() += 1,
            Some(_) => {}
        }
    }
    Ok(diff)
}

/// Wait until the background appliers have applied every committed record.
fn drain_replication(db: &HybridDatabase) -> Res<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while db.replication_lag() > 0 {
        if Instant::now() > deadline {
            return Err(format!(
                "replication still {} records behind after 60 s",
                db.replication_lag()
            )
            .into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

fn sorted_ms(mut nanos: Vec<u64>) -> (f64, f64) {
    nanos.sort_unstable();
    (
        stats::percentile(&nanos, 0.5) as f64 / 1e6,
        stats::percentile(&nanos, 0.95) as f64 / 1e6,
    )
}

/// Run one round and return its result document.
pub fn run(args: &RoundArgs) -> Res<Value> {
    let spec = args.spec;
    let host = probe::host_kernels();
    // Set-up time runs from here: the host kernels above are the benchmark's
    // own calibration, not the engine's work.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, args.traced);
    let workload = spec.suite.build();
    let data_dir = spec.durable.then(|| {
        args.out.join("data").join(format!(
            "{}-{}-{}",
            spec.name,
            std::process::id(),
            args.round
        ))
    });
    if let Some(dir) = &data_dir {
        // A fresh directory: leftovers would be recovered as if they were ours.
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
    }
    let result = run_in(
        args,
        &mut rec,
        workload.as_ref(),
        data_dir.as_deref(),
        host,
        epoch,
    );
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let doc = result?;
    if args.traced {
        let path = args.out.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, rec.chrome_trace_json())?;
    }
    Ok(doc)
}

fn run_in(
    args: &RoundArgs,
    rec: &mut Recorder,
    workload: &dyn Workload,
    data_dir: Option<&Path>,
    host: probe::Host,
    epoch: Instant,
) -> Res<Value> {
    let spec = args.spec;
    let config = engine_config(spec, data_dir, args.traced);

    // ---- set-up -----------------------------------------------------------
    let setup = rec.begin("core.setup", crate::spans::NONE);
    // The engine starts its background threads inside `open`, and they stay
    // where this thread is then; set-up itself runs where client 0 will.
    let placement = Placement::of_this_process();
    placement.background();
    let db = rec.phase("engine.database.open", |_| {
        HybridDatabase::open(config.clone())
    })?;
    placement.client(0);
    rec.phase("workloads.create_schema", |_| workload.create_schema(&db))?;
    rec.phase("workloads.load", |_| {
        workload.load(&db, spec.scale_factor, derive_seed(args.seed, STREAM_LOAD))
    })?;
    let loaded_rows = db.total_live_rows();
    rec.phase("engine.database.finish_load", |_| db.finish_load())?;
    rec.phase("engine.database.settle", |_| db.compact_columnar());
    if spec.durable {
        rec.phase("storage.checkpoint.write", |_| db.checkpoint())?;
    }
    let measured = measured_requests(spec, args.scale);
    let warmup = ((measured as f64 * spec::WARMUP_SHARE).round() as usize).max(spec.clients);
    let templates = Templates::of(workload, spec.class);
    let names: Vec<Arc<str>> = spec::template_names(workload, spec.class)
        .into_iter()
        .map(Arc::from)
        .collect();
    let (requests, plans) = rec.phase("core.generate", |_| {
        let list_seed = |stream| derive_seed(args.seed, stream);
        let mut requests = generate(workload, spec.class, list_seed(STREAM_WARMUP), warmup);
        requests.extend(generate(
            workload,
            spec.class,
            list_seed(STREAM_LIST),
            measured,
        ));
        let plans: Vec<Plan> = match &templates {
            Templates::Olap(queries) => requests
                .iter()
                .map(|r| queries[r.template as usize].plan(&mut StdRng::seed_from_u64(r.seed)))
                .collect(),
            _ => Vec::new(),
        };
        (requests, plans)
    });
    let background_templates = Templates::of(workload, Class::Oltp);
    let background_requests = generate(
        workload,
        Class::Oltp,
        derive_seed(args.seed, STREAM_BACKGROUND),
        (spec.background_requests as f64 * args.scale).round() as usize,
    );
    let list = |requests, plans| List {
        templates: &templates,
        names: &names,
        requests,
        plans,
    };
    let warm_list = list(&requests[..warmup], &plans[..warmup.min(plans.len())]);
    let measured_list = list(&requests[warmup..], &plans[warmup.min(plans.len())..]);

    let traced = args.traced;
    let run_list = |rec: &mut Recorder, list: &List| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..spec.clients)
                .map(|c| {
                    let session = db.session();
                    let recorder = Recorder::new(epoch, c as u32 + 1, traced);
                    let placement = &placement;
                    scope.spawn(move || {
                        closed_loop(&session, list, c, spec.clients, placement, recorder)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| {
                    let (result, recorder) = c.join().expect("client thread panicked");
                    rec.adopt(recorder);
                    result
                })
                .collect::<Vec<ClientResult>>()
        })
    };

    // The open-loop writer (if any) starts with the warm-up's first request
    // and is joined in this scope, after the measured list's last.
    let phase = AtomicU8::new(WARMING_UP);
    let Measured {
        before,
        txns_before,
        wall,
        results,
        background,
    } = std::thread::scope(|scope| {
        let background = (!background_requests.is_empty()).then(|| {
            let session = db.session();
            let (templates, requests, phase, placement) = (
                &background_templates,
                &background_requests,
                &phase,
                &placement,
            );
            scope.spawn(move || {
                open_loop(
                    &session,
                    templates,
                    requests,
                    spec::BG_OLTP_RATE,
                    phase,
                    placement,
                )
            })
        });
        rec.phase("engine.database.warmup", |rec| run_list(rec, &warm_list));
        rec.end(setup);

        db.metrics().take_freshness_samples();
        let before = db.metrics_snapshot();
        let txns_before = db.txn_manager().stats();
        phase.store(MEASURING, Ordering::Release);
        let span = rec.begin("core.measured_list", crate::spans::NONE);
        let started = Instant::now();
        let results = run_list(rec, &measured_list);
        let wall = started.elapsed();
        rec.end(span);
        phase.store(LIST_ENDED, Ordering::Release);
        let background = background.map(|b| b.join().expect("background client panicked"));
        Measured {
            before,
            txns_before,
            wall,
            results,
            background: background.unwrap_or_default(),
        }
    });

    if background.failed_outside > 0 {
        return Err(format!(
            "{} open-loop transactions failed outside the measured list",
            background.failed_outside
        )
        .into());
    }

    // ---- settle, then read the gauges -------------------------------------
    rec.phase("storage.replication.drain", |_| drain_replication(&db))?;
    rec.phase("storage.colstore.compact", |_| db.compact_columnar());
    let after = db.metrics_snapshot();
    let setup_s = rec.spans()[setup as usize].duration_ns() as f64 / 1e9;
    let delta = after.delta_since(&before);
    let lags: Vec<u64> = {
        let mut lags: Vec<u64> = db
            .metrics()
            .take_freshness_samples()
            .iter()
            .map(|s| s.lag_records)
            .collect();
        lags.sort_unstable();
        lags
    };

    // ---- end-to-end -------------------------------------------------------
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut by_template: Vec<Vec<u64>> = vec![Vec::new(); names.len()];
    for result in &results {
        for &(template, nanos) in &result.latencies {
            by_template[template as usize].push(nanos);
        }
    }
    let mut all: Vec<u64> = by_template.iter().flatten().copied().collect();
    all.sort_unstable();
    let succeeded = all.len();
    let live_rows = db.total_live_rows();
    let mut e2e = Value::Map(Vec::new());
    json::set(&mut e2e, "setup_s", setup_s);
    json::set(&mut e2e, "tps", succeeded as f64 / wall.as_secs_f64());
    json::set(
        &mut e2e,
        "p50_ms",
        stats::percentile(&all, 0.5) as f64 / 1e6,
    );
    json::set(
        &mut e2e,
        "p95_ms",
        stats::percentile(&all, 0.95) as f64 / 1e6,
    );
    json::set(
        &mut e2e,
        "col_bytes_per_row",
        ratio(after.col_bytes_resident as f64, live_rows as f64),
    );

    // ---- checks -----------------------------------------------------------
    let digest = state_digest(&table_digests(&db)?);
    let mut replica_rows_equal = true;
    for table in db.catalog().table_names() {
        let row = db.table_live_row_count(&table)?;
        let col = db.col_table(&table)?.live_row_count();
        if row != col {
            eprintln!(
                "{}: {table} has {row} live rows, its replica {col}",
                spec.name
            );
            replica_rows_equal = false;
        }
    }
    let routes_equal = probe::routes_agree(&db, spec.suite)?;

    // ---- per-layer --------------------------------------------------------
    let txns_after = db.txn_manager().stats();
    let observed = Observed {
        spec,
        phases: rec,
        loaded_rows,
        measured,
        wall,
        delta: &delta,
        after: &after,
        txns: TxnCounts {
            lock_acquisitions: txns_after.locks.acquisitions - txns_before.locks.acquisitions,
            lock_contended: txns_after.locks.contended - txns_before.locks.contended,
            lock_wait_nanos: txns_after.locks.wait_nanos - txns_before.locks.wait_nanos,
            begun: txns_after.begun - txns_before.begun,
            committed: txns_after.committed - txns_before.committed,
        },
        lags: &lags,
    };
    let mut layer = Value::Map(Vec::new());
    for def in spec::per_layer() {
        json::set(&mut layer, &def.name, 0.0);
    }
    let mut put = |name: &str, value: f64| json::set(&mut layer, name, value);
    for (name, value) in layers::counts(&observed) {
        put(name, value);
    }
    for (template, nanos) in by_template.into_iter().enumerate() {
        put(
            &spec::template_metric(spec.suite, &names[template]),
            sorted_ms(nanos).0,
        );
    }
    let (bg_attempted, bg_failed) = (background.attempted, background.failed);
    let writer_outlasted_list = if background_requests.is_empty() {
        Value::Null
    } else {
        if background.ran_dry {
            eprintln!(
                "{}: the open-loop writer ran out of transactions before the queries ended",
                spec.name
            );
        }
        Value::Bool(!background.ran_dry)
    };
    let (bg_p50, bg_p95) = sorted_ms(background.latencies);
    put("core.bg_oltp_p50_ms", bg_p50);
    put("core.bg_oltp_p95_ms", bg_p95);
    put("core.gen_late_p95_ms", sorted_ms(background.lateness).1);
    put("host.spin_ms", host.spin_ms);
    put("host.chase_ms", host.chase_ms);

    // Layer probes write (rows back unchanged) and scan, so they run after
    // every counter above was read, and only in the traced round.
    if args.traced {
        rec.phase("core.probes", |rec| {
            probe::layers(&db, spec.suite, rec, &mut put)
        })?;
    }

    // ---- crash and reopen (durable workloads) -----------------------------
    let mut survived_crash = Value::Null;
    let db = if spec.durable {
        let acknowledged = row_images(&db)?;
        rec.phase("engine.database.simulate_crash", |_| db.simulate_crash());
        drop(db);
        let reopened = rec.phase("storage.wal.recovery", |_| HybridDatabase::open(config))?;
        let recovery_s = rec.total_ms("storage.wal.recovery") / 1e3;
        let report = reopened.recovery_report().unwrap_or_default();
        put("storage.wal.recovery_s", recovery_s);
        put(
            "storage.wal.replay_krec_per_s",
            ratio(report.wal_records_scanned as f64 / 1e3, recovery_s),
        );
        let diff = recovery_diff(&acknowledged, &reopened)?;
        if diff != RecoveryDiff::default() {
            eprintln!("{}: after crash and reopen: {diff:?}", spec.name);
        }
        put(
            "storage.wal.recovered_images_differing",
            diff.differing_rows() as f64,
        );
        let new_order = names
            .iter()
            .position(|n| &**n == "NewOrder")
            .expect("the durable workload runs subenchmark's online mix");
        let new_orders = requests
            .iter()
            .filter(|r| r.template as usize == new_order)
            .count();
        survived_crash = Value::Bool(diff.survived(new_orders));
        reopened
    } else {
        db
    };
    if args.traced {
        rec.phase("engine.database.shutdown", |_| drop(db));
        put(
            "engine.database.shutdown_ms",
            rec.total_ms("engine.database.shutdown"),
        );
    } else {
        // Freeing a loaded store takes up to a second that no untraced
        // metric reports; the process is about to exit anyway.
        std::mem::forget(db);
    }
    put("trace.spans_recorded", rec.spans().len() as f64);

    let mut checks = Value::Map(Vec::new());
    json::set_value(
        &mut checks,
        "state_digest",
        Value::Str(format!("{digest:016x}")),
    );
    json::set_value(
        &mut checks,
        "rows_scanned",
        Value::Seq(vec![
            Value::U64(delta.row_rows_scanned),
            Value::U64(delta.col_rows_scanned),
        ]),
    );
    json::set_value(
        &mut checks,
        "result_digests",
        Value::Seq(
            (0..names.len())
                .map(|t| {
                    let folded = results.iter().fold(0u64, |acc, r| acc ^ r.digests[t]);
                    Value::Str(format!("{folded:016x}"))
                })
                .collect(),
        ),
    );
    json::set_value(
        &mut checks,
        "replica_rows_equal",
        Value::Bool(replica_rows_equal),
    );
    json::set_value(&mut checks, "routes_equal", Value::Bool(routes_equal));
    json::set_value(&mut checks, "survived_crash", survived_crash);
    json::set_value(&mut checks, "writer_outlasted_list", writer_outlasted_list);

    let mut doc = Value::Map(Vec::new());
    json::set_value(&mut doc, "workload", Value::Str(spec.name.to_string()));
    json::set_value(&mut doc, "round", Value::U64(args.round as u64));
    json::set_value(&mut doc, "traced", Value::Bool(args.traced));
    json::set_value(&mut doc, "attempted", Value::U64(measured as u64));
    json::set_value(&mut doc, "failed", Value::U64(failed));
    json::set_value(&mut doc, "background_attempted", Value::U64(bg_attempted));
    json::set_value(&mut doc, "background_failed", Value::U64(bg_failed));
    json::set_value(&mut doc, "pinned", Value::Bool(placement.pinned()));
    json::set_value(&mut doc, "samples", Value::U64(succeeded as u64));
    json::set_value(&mut doc, "e2e", e2e);
    json::set_value(&mut doc, "checks", checks);
    json::set_value(&mut doc, "layer", layer);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Suite, WORKLOADS};

    #[test]
    fn the_same_seed_gives_the_same_list_and_another_seed_another() {
        let workload = Suite::Fib.build();
        let a = generate(workload.as_ref(), Class::Oltp, 42, 500);
        assert_eq!(a, generate(workload.as_ref(), Class::Oltp, 42, 500));
        assert_ne!(a, generate(workload.as_ref(), Class::Oltp, 43, 500));
    }

    #[test]
    fn analytical_lists_visit_templates_round_robin() {
        let workload = Suite::Tab.build();
        let list = generate(workload.as_ref(), Class::Olap, 7, 360);
        assert!(list
            .iter()
            .enumerate()
            .all(|(i, r)| r.template == i as u32 % 5));
    }

    #[test]
    fn every_seed_asks_for_the_same_mix_in_another_order() {
        let workload = Suite::Sub.build();
        let count = |list: &[Request], t: u32| list.iter().filter(|r| r.template == t).count();
        let a = generate(workload.as_ref(), Class::Oltp, 1, 2_400);
        let b = generate(workload.as_ref(), Class::Oltp, 2, 2_400);
        // NewOrder 45, Payment 43, OrderStatus 4, Delivery 4, StockLevel 4.
        for (t, expected) in [1080, 1032, 96, 96, 96].into_iter().enumerate() {
            assert_eq!(count(&a, t as u32), expected);
            assert_eq!(count(&b, t as u32), expected);
        }
        let order = |list: &[Request]| list.iter().map(|r| r.template).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
    }

    #[test]
    fn apportioned_counts_add_up_and_follow_the_weights() {
        assert_eq!(
            apportion(&[16, 16, 16, 16, 16, 20], 250),
            [40, 40, 40, 40, 40, 50]
        );
        assert_eq!(apportion(&[1, 1, 1], 10).iter().sum::<usize>(), 10);
        assert_eq!(apportion(&[45, 43, 4, 4, 4], 7), [3, 3, 1, 0, 0]);
        assert_eq!(apportion(&[5], 0), [0]);
    }

    #[test]
    fn list_sizes_scale_with_seconds_and_split_evenly() {
        for spec in &WORKLOADS {
            assert_eq!(measured_requests(spec, 1.0), spec.requests);
            let fifth = measured_requests(spec, 0.2);
            assert_eq!(fifth % spec.clients, 0);
            assert!(fifth >= spec.clients && fifth <= spec.requests / 4);
        }
    }

    #[test]
    fn the_crash_check_tolerates_only_the_known_stale_stock_images() {
        let diff = |missing, extra, differing: &[(&str, usize)]| RecoveryDiff {
            missing,
            extra,
            differing: differing.iter().map(|&(t, n)| (t.to_string(), n)).collect(),
        };
        assert!(diff(0, 0, &[]).survived(1_000));
        assert!(diff(0, 0, &[("STOCK", 30)]).survived(1_000));
        assert!(!diff(0, 0, &[("STOCK", 31)]).survived(1_000));
        assert!(!diff(0, 0, &[("CUSTOMER", 1)]).survived(1_000));
        assert!(!diff(1, 0, &[]).survived(1_000));
        assert!(!diff(0, 1, &[]).survived(1_000));
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive_seed(42, STREAM_LOAD), derive_seed(42, STREAM_LIST));
        assert_ne!(derive_seed(42, STREAM_LIST), derive_seed(43, STREAM_LIST));
    }
}
