//! Property-based tests (proptest) over the core data structures and
//! invariants of the stack: key ordering, MVCC visibility, replication
//! convergence, percentile estimation, the weighted generator and the LIKE
//! matcher.

use olxpbench::framework::stats::LatencyRecorder;
use olxpbench::framework::WeightedChoice;
use olxpbench::prelude::*;
use olxpbench::query::expr::like_match;
use olxpbench::storage::{
    ColumnTable, ReplicationLog, Replicator, RowTable, WalOp, DEFAULT_BATCH_SIZE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn simple_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("val", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Composite keys order lexicographically, exactly like tuples of their
    /// components.
    #[test]
    fn key_ordering_matches_tuple_ordering(a in proptest::collection::vec(-1000i64..1000, 1..4),
                                           b in proptest::collection::vec(-1000i64..1000, 1..4)) {
        let ka = Key::ints(&a);
        let kb = Key::ints(&b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }

    /// Every key that starts with a prefix sorts strictly below the prefix's
    /// upper bound, and keys outside the prefix do not.
    #[test]
    fn prefix_upper_bound_brackets_all_extensions(prefix in proptest::collection::vec(0i64..100, 1..3),
                                                  suffix in proptest::collection::vec(-50i64..50, 0..3)) {
        let p = Key::ints(&prefix);
        let upper = p.prefix_upper_bound().unwrap();
        let mut extended = prefix.clone();
        extended.extend(&suffix);
        let k = Key::ints(&extended);
        prop_assert!(k >= p);
        prop_assert!(k < upper);
    }

    /// MVCC visibility: a reader at timestamp `t` sees exactly the newest
    /// version committed at or before `t`.
    #[test]
    fn mvcc_visibility_selects_newest_committed_version(updates in proptest::collection::vec(1i64..1000, 1..12),
                                                        probe in 0u64..40) {
        let table = RowTable::new(simple_schema());
        table.install(Key::int(1), Some(Row::new(vec![Value::Int(1), Value::Int(0)])), 1);
        // Version k is committed at timestamp 2*(k+1).
        for (k, value) in updates.iter().enumerate() {
            table.install(
                Key::int(1),
                Some(Row::new(vec![Value::Int(1), Value::Int(*value)])),
                2 * (k as u64 + 1),
            );
        }
        let visible = table.get(&Key::int(1), probe);
        if probe == 0 {
            prop_assert!(visible.is_none());
        } else {
            // The newest update with commit_ts <= probe, if any; otherwise the insert.
            let newest = updates
                .iter()
                .enumerate()
                .filter(|(k, _)| 2 * (*k as u64 + 1) <= probe)
                .map(|(_, v)| *v)
                .next_back()
                .unwrap_or(0);
            prop_assert_eq!(visible.unwrap()[1].clone(), Value::Int(newest));
        }
    }

    /// Replication convergence: applying the log reproduces the row store's
    /// live contents in the column store, regardless of the operation mix.
    #[test]
    fn replication_converges_to_row_store_contents(ops in proptest::collection::vec((0u8..3, 0i64..20, -100i64..100), 1..60)) {
        let schema = simple_schema();
        let row_table = RowTable::new(Arc::clone(&schema));
        let col_table = Arc::new(ColumnTable::new(Arc::clone(&schema)));
        let log = Arc::new(ReplicationLog::new());
        let mut replicator = Replicator::new(Arc::clone(&log));
        replicator.register("T", Arc::clone(&col_table));

        let mut ts = 1u64;
        for (op, id, val) in ops {
            ts += 1;
            let key = Key::int(id);
            let row = Row::new(vec![Value::Int(id), Value::Int(val)]);
            let write = match op {
                0 => row_table.get(&key, ts).is_none().then_some(Some(row)),
                1 => row_table.get(&key, ts).is_some().then_some(Some(row)),
                _ => row_table.get(&key, ts).is_some().then_some(None),
            };
            if let Some(row) = write {
                row_table.install(key.clone(), row.clone(), ts);
                log.append(WalOp { table: "T".into(), key, row });
            }
        }
        replicator.catch_up().unwrap();
        prop_assert_eq!(log.lag_records(), 0);
        prop_assert_eq!(col_table.live_row_count(), row_table.live_row_count(ts + 1));

        // Every live row matches the replica's image.
        let mut mismatch = false;
        row_table.scan(ts + 1, |key, row| {
            let mut found = false;
            col_table.scan_batches(None, DEFAULT_BATCH_SIZE, |batch| {
                let mut crows = Vec::new();
                batch.materialize_into(&mut crows);
                for crow in &crows {
                    if &schema.primary_key_of(crow) == key {
                        found = crow == row.as_ref();
                    }
                }
            });
            if !found {
                mismatch = true;
            }
        });
        prop_assert!(!mismatch, "columnar replica diverged from the row store");
    }

    /// The histogram-backed quantile estimator stays within its advertised
    /// relative error of an exact sorted nearest-rank lookup, never reports
    /// below the true value, and keeps min/max/mean exact.
    #[test]
    fn latency_quantiles_match_exact_sort(samples in proptest::collection::vec(1u64..10_000_000, 1..300),
                                          q in 0.0f64..1.0) {
        let mut recorder = LatencyRecorder::new();
        for &s in &samples {
            recorder.record_nanos(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let got = recorder.quantile_nanos(q);
        prop_assert!(got >= truth, "reported {got} below exact nearest-rank {truth}");
        let err = (got as f64 - truth as f64) / truth as f64;
        prop_assert!(
            err <= olxp_trace::HIST_MAX_RELATIVE_ERROR,
            "q={}: got {}, truth {}, err {}", q, got, truth, err
        );
        prop_assert_eq!(recorder.min_nanos(), *sorted.first().unwrap());
        prop_assert_eq!(recorder.max_nanos(), *sorted.last().unwrap());
        prop_assert!(recorder.mean_nanos() >= recorder.min_nanos() as f64 - 1e-9);
        prop_assert!(recorder.mean_nanos() <= recorder.max_nanos() as f64 + 1e-9);
    }

    /// Throughput is samples divided by the window, independent of sample values.
    #[test]
    fn throughput_is_count_over_window(samples in proptest::collection::vec(1u64..1_000_000, 0..100),
                                       millis in 1u64..10_000) {
        let mut recorder = LatencyRecorder::new();
        for &s in &samples {
            recorder.record_nanos(s);
        }
        let window = Duration::from_millis(millis);
        let expected = samples.len() as f64 / window.as_secs_f64();
        prop_assert!((recorder.throughput(window) - expected).abs() < 1e-6);
    }

    /// The weighted generator never picks zero-weight entries and covers every
    /// positive-weight entry given enough draws.
    #[test]
    fn weighted_choice_respects_zero_weights(weights in proptest::collection::vec(0u32..5, 1..8), seed in 0u64..1000) {
        prop_assume!(weights.iter().any(|&w| w > 0));
        let choice = WeightedChoice::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = vec![false; weights.len()];
        for _ in 0..500 {
            let picked = choice.pick(&mut rng);
            prop_assert!(weights[picked] > 0, "picked zero-weight entry {picked}");
            seen[picked] = true;
        }
        for (i, &w) in weights.iter().enumerate() {
            if w > 0 && weights.iter().filter(|&&x| x > 0).count() <= 3 {
                prop_assert!(seen[i], "entry {i} with weight {w} never picked in 500 draws");
            }
        }
    }

    /// The LIKE matcher agrees with a simple contains/prefix/suffix oracle for
    /// the pattern shapes the workloads use.
    #[test]
    fn like_matcher_agrees_with_oracle(text in "[a-c]{0,12}", needle in "[a-c]{0,4}") {
        prop_assert_eq!(like_match(&text, &format!("%{needle}%")), text.contains(&needle));
        prop_assert_eq!(like_match(&text, &format!("{needle}%")), text.starts_with(&needle));
        prop_assert_eq!(like_match(&text, &format!("%{needle}")), text.ends_with(&needle));
        prop_assert_eq!(like_match(&text, &text), true);
    }

    /// Values round-trip through decimal arithmetic without losing the scale.
    #[test]
    fn decimal_arithmetic_keeps_cent_precision(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let x = Value::Decimal(a);
        let y = Value::Decimal(b);
        prop_assert_eq!(x.checked_add(&y), Some(Value::Decimal(a + b)));
        prop_assert_eq!(x.checked_sub(&y), Some(Value::Decimal(a - b)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end engine property: after any sequence of committed balance
    /// transfers, the total amount of money in the bank is unchanged
    /// (fibenchmark's core invariant), and the columnar replicas converge to
    /// the same total.
    #[test]
    fn money_is_conserved_across_transfers(transfers in proptest::collection::vec((1i64..50, 1i64..50, 1i64..500), 1..25)) {
        let db = HybridDatabase::new(EngineConfig::dual_engine().with_time_scale(0.0)).unwrap();
        let workload = Fibenchmark::new();
        workload.create_schema(&db).unwrap();
        // A tiny bank keeps the property test fast.
        {
            use olxpbench::prelude::*;
            for custid in 1..=50i64 {
                db.load_row("ACCOUNT", Row::new(vec![Value::Int(custid), Value::Str(format!("c{custid}"))])).unwrap();
                db.load_row("SAVINGS", Row::new(vec![Value::Int(custid), Value::Decimal(10_000)])).unwrap();
                db.load_row("CHECKING", Row::new(vec![Value::Int(custid), Value::Decimal(5_000)])).unwrap();
            }
        }
        db.finish_load().unwrap();
        let session = db.session();

        let total = |db: &Arc<HybridDatabase>| -> i64 {
            let ts = db.txn_manager().oracle().read_ts();
            let mut sum = 0i64;
            for table in ["SAVINGS", "CHECKING"] {
                db.scan_table(table, ts, |_, row| {
                    if let Value::Decimal(v) = row[1] {
                        sum += v;
                    }
                })
                .unwrap();
            }
            sum
        };
        let before = total(db.database_ref());

        for (from, to, amount) in transfers {
            if from == to {
                continue;
            }
            let result = session.run_transaction(WorkClass::Oltp, 5, |s, txn| {
                let from_key = Key::int(from);
                let to_key = Key::int(to);
                let mut from_row = s.read(txn, "CHECKING", &from_key)?.expect("account exists");
                let mut to_row = s.read(txn, "CHECKING", &to_key)?.expect("account exists");
                let from_bal = match from_row[1] { Value::Decimal(v) => v, _ => 0 };
                let to_bal = match to_row[1] { Value::Decimal(v) => v, _ => 0 };
                from_row.set(1, Value::Decimal(from_bal - amount));
                to_row.set(1, Value::Decimal(to_bal + amount));
                s.update(txn, "CHECKING", &from_key, from_row)?;
                s.update(txn, "CHECKING", &to_key, to_row)?;
                Ok(())
            });
            prop_assert!(result.is_ok(), "transfer failed: {result:?}");
        }
        let after = total(db.database_ref());
        prop_assert_eq!(before, after, "money must be conserved");
    }
}

/// Helper trait to appease the closure above (sessions hand out `&Arc<HybridDatabase>`).
trait DatabaseRef {
    fn database_ref(&self) -> &Arc<HybridDatabase>;
}

impl DatabaseRef for Arc<HybridDatabase> {
    fn database_ref(&self) -> &Arc<HybridDatabase> {
        self
    }
}

fn three_col_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("grp", DataType::Int, false),
                ColumnDef::new("val", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash routing is a total deterministic function: every key maps to
    /// exactly one shard, the same one on every call, always in range, and a
    /// single-shard layout routes everything to shard 0.
    #[test]
    fn every_key_routes_to_exactly_one_shard_deterministically(
        keys in proptest::collection::vec(-10_000i64..10_000, 1..40),
        n_shards in 1usize..=8,
    ) {
        use olxpbench::engine::{shard_of, Placement};
        for &k in &keys {
            let key = Key::int(k);
            let shard = shard_of("T", &key, n_shards);
            prop_assert!(shard < n_shards);
            prop_assert_eq!(shard, shard_of("T", &key, n_shards));
            // The write path's placement agrees, whatever the node layout.
            prop_assert_eq!(Placement::of("T", &key, n_shards, &[0, 1, 2]).shard, shard);
            prop_assert_eq!(shard_of("T", &key, 1), 0);
            // Composite keys route on the whole key, deterministically too.
            let composite = Key::ints(&[k, k + 1]);
            prop_assert_eq!(
                shard_of("T", &composite, n_shards),
                shard_of("T", &composite, n_shards)
            );
        }
    }

    /// The merged per-shard vectorized scan is observationally identical to
    /// the unsharded scan: for every plan shape, executing against a
    /// `ShardedRowSource` over hash-routed partitions returns the same rows
    /// as executing against one partition holding all of them.
    #[test]
    fn sharded_scan_batches_match_unsharded_scan_per_plan_shape(
        vals in proptest::collection::vec((0i64..8, -100i64..100), 1..60),
        n_shards in 1usize..=8,
        shape in 0u8..4,
        knob in -50i64..50,
    ) {
        use olxpbench::engine::shard_of;
        use olxpbench::query::{execute, QueryOutput, ShardedRowSource};
        use std::collections::HashMap;

        let schema = three_col_schema();
        let unsharded = Arc::new(RowTable::new(Arc::clone(&schema)));
        let parts: Vec<Arc<RowTable>> = (0..n_shards)
            .map(|_| Arc::new(RowTable::new(Arc::clone(&schema))))
            .collect();
        for (i, &(grp, val)) in vals.iter().enumerate() {
            let id = i as i64;
            let row = Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(val)]);
            unsharded.install(Key::int(id), Some(row.clone()), 1);
            parts[shard_of("T", &Key::int(id), n_shards)].install(Key::int(id), Some(row), 1);
        }
        // Disjoint partitioning: each key is visible in exactly one shard.
        for i in 0..vals.len() {
            let key = Key::int(i as i64);
            let holders = parts.iter().filter(|p| p.get(&key, 10).is_some()).count();
            prop_assert_eq!(holders, 1, "key {} must live on exactly one shard", i);
        }

        let mut single = HashMap::new();
        single.insert("T".to_string(), Arc::clone(&unsharded));
        let sharded_maps: Vec<Arc<HashMap<String, Arc<RowTable>>>> = parts
            .iter()
            .map(|p| {
                let mut m = HashMap::new();
                m.insert("T".to_string(), Arc::clone(p));
                Arc::new(m)
            })
            .collect();
        let flat = ShardedRowSource::new(vec![Arc::new(single)], 10);
        let sharded = ShardedRowSource::new(sharded_maps, 10);

        let plan = match shape {
            0 => QueryBuilder::scan_where("T", col(2).ge(lit(knob))).build(),
            1 => QueryBuilder::scan("T")
                .project(vec![col(0), col(2).add(col(1))])
                .build(),
            2 => QueryBuilder::scan("T")
                .aggregate(
                    vec![1],
                    vec![AggSpec::new(AggFunc::Count, 0), AggSpec::new(AggFunc::Sum, 2)],
                )
                .build(),
            _ => QueryBuilder::scan("T")
                .sort(vec![SortKey::desc(2), SortKey::asc(0)])
                .limit(5)
                .build(),
        };
        let flat_out = execute(&plan, &flat).unwrap();
        let sharded_out = execute(&plan, &sharded).unwrap();
        // Scan order is shard-major on one side and key-major on the other,
        // so compare as multisets of rows.
        let canon = |out: &QueryOutput| -> Vec<String> {
            let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(canon(&flat_out), canon(&sharded_out));
        prop_assert_eq!(flat_out.rows.len(), sharded_out.rows.len());
    }
}
