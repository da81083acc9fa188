//! `BENCHMARK.json` says what `spec.rs` says, and a `--quick` run emits every
//! name in it and nothing else.

use olxp_perf::{json, spec};
use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let expected = spec::benchmark_json();
    let found = json::read(&path).unwrap_or(Value::Null);
    assert!(
        found == expected,
        "{} is out of date; it should read:\n{}",
        path.display(),
        json::pretty(&expected)
    );
}

#[test]
fn the_committed_baseline_is_correct_and_its_rounds_agree_within_the_bounds() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/BENCH_12.json");
    let doc = json::read(&path).unwrap();
    assert_eq!(
        json::string(&doc, "schema").unwrap(),
        olxp_perf::run::SCHEMA
    );
    let workloads = json::seq(&doc, "workloads").unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for w in workloads {
        let name = json::string(w, "workload").unwrap();
        assert!(json::boolean(w, "correct").unwrap(), "{name}");
        assert_eq!(json::num(w, "failed").unwrap(), 0.0, "{name}");
        for def in spec::end_to_end() {
            let m = json::field(json::field(w, "end_to_end").unwrap(), &def.name).unwrap();
            let rounds: Vec<f64> = json::seq(m, "rounds")
                .unwrap()
                .iter()
                .map(|v| json::number(v).unwrap())
                .collect();
            // The baseline is a fold: "rounds" are the medians of its runs.
            assert!(rounds.len() >= 3, "{name} {}", def.name);
            // A baseline noisier than its own bound would turn every later
            // comparison against it into "unresolved".
            let spread = olxp_perf::stats::quartile_spread(&rounds);
            assert!(
                spread <= def.bound.unwrap(),
                "{name} {}: rounds spread {spread:.3}",
                def.name
            );
        }
    }
}

#[test]
fn a_quick_run_emits_exactly_the_names_in_benchmark_json() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let run = Command::new(env!("CARGO_BIN_EXE_olxp-perf"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("olxp-perf starts");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let expected: BTreeSet<String> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .map(|m| m.name)
        .collect();
    let lines: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(
        lines.len(),
        spec::WORKLOADS.len(),
        "one result line per workload"
    );
    for (line, workload) in lines.iter().zip(&spec::WORKLOADS) {
        let keys: Vec<&str> = line
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "{}",
            workload.name
        );
        assert_eq!(json::num(line, "failed").unwrap(), 0.0, "{}", workload.name);
        let metrics = json::entries(line, "metrics").unwrap();
        let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(emitted, expected, "{}", workload.name);
        for (name, m) in metrics {
            assert!(json::num(m, "value").unwrap().is_finite(), "{name}");
            assert!(!json::string(m, "unit").unwrap().is_empty(), "{name}");
        }
        for e2e in spec::end_to_end() {
            let value = json::num(
                json::field(line.get("metrics").unwrap(), &e2e.name).unwrap(),
                "value",
            );
            assert!(
                value.unwrap() > 0.0,
                "{} {} is never 0",
                workload.name,
                e2e.name
            );
        }
    }
    // The traced rounds wrote their spans, and the result document is there.
    for workload in &spec::WORKLOADS {
        let path = out.join(format!("trace-{}.json", workload.name));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"traceEvents\"") && text.contains("\"ph\":\"X\""),
            "{}",
            path.display()
        );
        // The vendored JSON parser is quadratic in its input, so only a
        // small trace is parsed in full.
        if text.len() < 100_000 {
            let trace = json::parse(&text).unwrap();
            assert!(!json::seq(&trace, "traceEvents").unwrap().is_empty());
        }
    }
    let doc = json::read(&out.join("BENCH.json")).unwrap();
    assert_eq!(
        json::string(&doc, "schema").unwrap(),
        olxp_perf::run::SCHEMA
    );
    // WAL directories are removed when their round ends.
    let leftovers = std::fs::read_dir(out.join("data"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "out/data still holds a round's WAL directory");
}

#[test]
fn a_run_refuses_to_start_under_olxp_variables_or_without_an_out_directory() {
    let exe = env!("CARGO_BIN_EXE_olxp-perf");
    let refused = Command::new(exe)
        .args(["run", "--quick", "--out"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("refused"))
        .env("OLXP_TEST_SHARDS", "4")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("OLXP_TEST_SHARDS"));

    let nowhere = Command::new(exe)
        .args(["run", "--quick"])
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .unwrap();
    assert_eq!(nowhere.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&nowhere.stderr).contains("--out"));
}
