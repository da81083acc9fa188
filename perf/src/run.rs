//! The parent: starts every round as a fresh child process, interleaved
//! round-robin across workloads, takes medians over rounds, checks the rounds
//! against each other and prints the result.

use crate::spec::{self, MetricDef, Spec};
use crate::{json, stats, Res};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Version of the result document (`out/BENCH.json`, `baselines/*.json`).
pub const SCHEMA: &str = "olxp-perf/1";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workloads: Vec<&'static Spec>,
    pub seed: u64,
    pub seconds: u32,
    pub rounds: usize,
    /// `Some(false)`: untraced rounds only, print end-to-end metrics.
    /// `Some(true)`: add the traced round, print per-layer metrics.
    /// `None`: add the traced round, print both.
    pub trace: Option<bool>,
    pub out: PathBuf,
}

/// Engine defaults silently change under these (`OLXP_TEST_SHARDS`,
/// `OLXP_TRACE`, ...), so a run refuses to start with any of them set.
pub fn refuse_engine_env() -> Res<()> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OLXP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: OLXP_* variables change engine defaults",
            set.join(", ")
        )
        .into())
    }
}

/// Start one round as a child process and parse the line it prints.
fn child_round(args: &RunArgs, spec: &Spec, round: usize, traced: bool) -> Res<Value> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .arg("round")
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{} round {round} exited with {}", spec.name, output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("round printed nothing")?;
    json::parse(line)
}

/// Median, extremes and per-round values of one end-to-end metric.
fn summarize(def: &MetricDef, rounds: &[Value]) -> Res<Value> {
    let values = rounds
        .iter()
        .map(|r| json::num(json::field(r, "e2e")?, &def.name))
        .collect::<Res<Vec<f64>>>()?;
    let samples = rounds
        .iter()
        .map(|r| json::num(r, "samples"))
        .collect::<Res<Vec<f64>>>()?;
    Ok(json::map(vec![
        ("unit", Value::Str(def.unit.to_string())),
        ("better", Value::Str(def.better.as_str().to_string())),
        (
            "bound",
            Value::F64(def.bound.expect("end-to-end metrics carry a bound")),
        ),
        ("median", Value::F64(stats::median(&values))),
        ("min", Value::F64(stats::min(&values))),
        ("max", Value::F64(stats::max(&values))),
        (
            "spread",
            Value::F64(if values.len() < 2 {
                0.0
            } else {
                stats::quartile_spread(&values)
            }),
        ),
        ("samples_per_round", Value::F64(stats::min(&samples))),
        (
            "rounds",
            Value::Seq(values.into_iter().map(Value::F64).collect()),
        ),
    ]))
}

/// The checks that compare rounds with each other, on top of each round's own.
fn correct(spec: &Spec, rounds: &[&Value]) -> Res<bool> {
    let mut ok = true;
    let mut complain = |what: String| {
        eprintln!("{}: INCORRECT: {what}", spec.name);
        ok = false;
    };
    let first = json::field(rounds[0], "checks")?;
    for (i, round) in rounds.iter().enumerate() {
        let checks = json::field(round, "checks")?;
        for key in ["replica_rows_equal", "routes_equal"] {
            if !json::boolean(checks, key)? {
                complain(format!("round {i}: {key} is false"));
            }
        }
        if spec.durable && json::field(checks, "survived_crash")? != &Value::Bool(true) {
            complain(format!(
                "round {i}: acknowledged commits lost across crash and reopen"
            ));
        }
        if json::field(checks, "writer_outlasted_list")? == &Value::Bool(false) {
            complain(format!(
                "round {i}: the open-loop writer ran dry before the queries ended"
            ));
        }
        if spec.deterministic {
            for key in ["state_digest", "rows_scanned", "result_digests"] {
                if json::field(checks, key)? != json::field(first, key)? {
                    complain(format!("round {i}: {key} differs from round 0"));
                }
            }
        }
    }
    Ok(ok)
}

/// Aggregate one workload's rounds into its result document.
fn aggregate(spec: &Spec, untraced: &[Value], traced: Option<&Value>) -> Res<Value> {
    let all: Vec<&Value> = untraced.iter().chain(traced).collect();
    let correct = correct(spec, &all)?;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    // Measured-class requests plus what the open-loop writer sent while
    // they ran: one population on both sides of failed/attempted.
    for round in untraced {
        attempted += json::num(round, "attempted")? + json::num(round, "background_attempted")?;
        failed += json::num(round, "failed")? + json::num(round, "background_failed")?;
    }
    let mut end_to_end = Value::Map(Vec::new());
    for def in spec::end_to_end() {
        json::set_value(&mut end_to_end, &def.name, summarize(&def, untraced)?);
    }
    let samples = json::num(json::field(&end_to_end, "p95_ms")?, "samples_per_round")? as usize;
    if !stats::supports_percentile(samples, 0.95) {
        eprintln!(
            "{}: p95_ms rests on {samples} samples per round, fewer than the 200 it needs",
            spec.name
        );
    }

    let mut per_layer = Value::Map(Vec::new());
    if let Some(traced) = traced {
        let layer = json::field(traced, "layer")?;
        let tps: Vec<f64> = untraced
            .iter()
            .map(|r| json::num(json::field(r, "e2e")?, "tps"))
            .collect::<Res<_>>()?;
        let traced_tps = json::num(json::field(traced, "e2e")?, "tps")?;
        let host = |name: &str| -> Res<f64> {
            let values = all
                .iter()
                .map(|r| json::num(json::field(r, "layer")?, name))
                .collect::<Res<Vec<f64>>>()?;
            Ok(stats::median(&values))
        };
        for def in spec::per_layer() {
            let value = match def.name.as_str() {
                "trace.overhead_pct" => 100.0 * (stats::median(&tps) / traced_tps - 1.0),
                "host.round_spread_pct" => 100.0 * stats::range_spread(&tps),
                "host.spin_ms" | "host.chase_ms" => host(&def.name)?,
                name => json::num(layer, name)?,
            };
            json::set_value(
                &mut per_layer,
                &def.name,
                json::map(vec![
                    ("unit", Value::Str(def.unit.to_string())),
                    ("better", Value::Str(def.better.as_str().to_string())),
                    ("value", Value::F64(value)),
                ]),
            );
        }
    }
    Ok(json::map(vec![
        ("workload", Value::Str(spec.name.to_string())),
        ("why", Value::Str(spec.why.to_string())),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted as u64)),
        ("failed", Value::U64(failed as u64)),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
        (
            "rounds",
            Value::Seq(
                untraced
                    .iter()
                    .map(|r| {
                        let keep = ["e2e", "samples", "failed", "checks"];
                        json::map(
                            keep.into_iter()
                                .map(|key| (key, r.get(key).cloned().unwrap_or(Value::Null)))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a `{value, unit}`.
pub fn result_line(workload: &Value, trace: Option<bool>) -> Res<String> {
    let mut metrics = Value::Map(Vec::new());
    let sections = [
        ("end_to_end", "median", trace != Some(true)),
        ("per_layer", "value", trace != Some(false)),
    ];
    for (section, key, wanted) in sections {
        if !wanted {
            continue;
        }
        for (name, m) in json::entries(workload, section)? {
            let entry = json::map(vec![
                ("value", json::field(m, key)?.clone()),
                ("unit", json::field(m, "unit")?.clone()),
            ]);
            json::set_value(&mut metrics, name, entry);
        }
    }
    Ok(json::compact(&json::map(vec![
        ("correct", json::field(workload, "correct")?.clone()),
        ("attempted", json::field(workload, "attempted")?.clone()),
        ("failed", json::field(workload, "failed")?.clone()),
        ("metrics", metrics),
    ])))
}

fn print_workload(workload: &Value, trace: Option<bool>) -> Res<()> {
    println!(
        "== {} == correct={} attempted={} failed={}",
        json::string(workload, "workload")?,
        json::boolean(workload, "correct")?,
        json::num(workload, "attempted")?,
        json::num(workload, "failed")?,
    );
    if trace != Some(true) {
        println!(
            "  {:<20} {:>14} {:>14} {:>14}  {:<6} samples/round",
            "end-to-end", "median", "min", "max", "unit"
        );
        for (name, m) in json::entries(workload, "end_to_end")? {
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>14.4}  {:<6} {}",
                name,
                json::num(m, "median")?,
                json::num(m, "min")?,
                json::num(m, "max")?,
                json::string(m, "unit")?,
                json::num(m, "samples_per_round")?,
            );
        }
    }
    if trace != Some(false) {
        println!("  {:<52} {:>14}  unit", "per-layer (traced round)", "value");
        for (name, m) in json::entries(workload, "per_layer")? {
            println!(
                "  {:<52} {:>14.4}  {}",
                name,
                json::num(m, "value")?,
                json::string(m, "unit")?
            );
        }
    }
    println!("{}", result_line(workload, trace)?);
    Ok(())
}

fn first_line(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// Filesystem type of the mount that holds `dir` (longest mount-point prefix
/// in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Commit of the repository the benchmark sits in, when it sits in one.
fn commit(out: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(out)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run the workloads and return the result document (also written to
/// `<out>/BENCH.json`) and whether every workload was correct.
pub fn run(args: &RunArgs) -> Res<(Value, bool)> {
    refuse_engine_env()?;
    std::fs::create_dir_all(&args.out)?;
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); args.workloads.len()];
    // Round-robin across workloads, so each workload's rounds sample the
    // host at spread-out times instead of back to back.
    for round in 0..args.rounds {
        for (w, spec) in args.workloads.iter().enumerate() {
            untraced[w].push(child_round(args, spec, round, false)?);
        }
    }
    let mut pinned = true;
    for round in untraced.iter().flatten() {
        pinned &= json::boolean(round, "pinned")?;
    }
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (w, spec) in args.workloads.iter().enumerate() {
        let traced = match args.trace {
            Some(false) => None,
            _ => Some(child_round(args, spec, args.rounds, true)?),
        };
        let workload = aggregate(spec, &untraced[w], traced.as_ref())?;
        all_correct &= json::boolean(&workload, "correct")?;
        print_workload(&workload, args.trace)?;
        workloads.push(workload);
    }
    let doc = json::map(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "host",
            json::map(vec![
                (
                    "nproc",
                    Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
                ),
                (
                    "kernel",
                    Value::Str(
                        first_line("/proc/sys/kernel/osrelease")
                            .unwrap_or_else(|| "unknown".into()),
                    ),
                ),
                ("filesystem", Value::Str(filesystem_of(&args.out))),
                ("threads_pinned", Value::Bool(pinned)),
            ]),
        ),
        ("commit", Value::Str(commit(&args.out))),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(u64::from(args.seconds))),
        ("rounds", Value::U64(args.rounds as u64)),
        ("workloads", Value::Seq(workloads)),
    ]);
    std::fs::write(args.out.join("BENCH.json"), json::pretty(&doc) + "\n")?;
    Ok((doc, all_correct))
}
