//! `compare BASE.json NEW.json`: every delta between two result documents,
//! per-layer included, with a verdict per end-to-end metric — and `selfcheck`,
//! which compares the binary with itself.

use crate::run::{self, RunArgs};
use crate::{json, stats, Res};
use serde::Value;
use std::fmt::Write as _;

/// A host kernel that moved by more than this between the two documents
/// means the machine changed under the benchmark.
const HOST_DRIFT: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    /// The medians are within the bound, but a side's rounds spread wider
    /// than the bound (distance between their quartiles, as a share of their
    /// median) or the host drifted, so "no change" cannot be told from a
    /// change.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric on both sides.
pub struct Sides<'a> {
    pub base: &'a [f64],
    pub new: &'a [f64],
    pub lower_is_better: bool,
    pub bound: f64,
    pub host_drifted: bool,
}

/// By how much of the base median the new median is worse (negative: better).
fn worsening(s: &Sides) -> f64 {
    let (base, new) = (stats::median(s.base), stats::median(s.new));
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    if s.lower_is_better {
        change
    } else {
        -change
    }
}

/// Quartile spread of a side's rounds; a single round (`--quick`) has none.
fn spread(rounds: &[f64]) -> f64 {
    if rounds.len() < 2 {
        0.0
    } else {
        stats::quartile_spread(rounds)
    }
}

pub fn verdict(s: &Sides) -> Verdict {
    let worse = worsening(s);
    if worse > s.bound {
        return Verdict::Regressed;
    }
    let noisy = s.host_drifted || spread(s.base) > s.bound || spread(s.new) > s.bound;
    if noisy {
        // Every run of the change reading better than every run of the base
        // is a result no spread can explain away.
        let separated = if s.lower_is_better {
            stats::max(s.new) < stats::min(s.base)
        } else {
            stats::min(s.new) > stats::max(s.base)
        };
        return if separated && worse < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse < -s.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn numbers(values: &[Value]) -> Res<Vec<f64>> {
    values.iter().map(json::number).collect()
}

fn workload<'a>(doc: &'a Value, name: &str) -> Res<Option<&'a Value>> {
    for w in json::seq(doc, "workloads")? {
        if json::string(w, "workload")? == name {
            return Ok(Some(w));
        }
    }
    Ok(None)
}

fn layer_value(workload: &Value, name: &str) -> Option<f64> {
    workload
        .get("per_layer")?
        .get(name)?
        .get("value")
        .and_then(|v| json::number(v).ok())
}

fn percent(base: f64, new: f64) -> String {
    if base == 0.0 {
        return if new == 0.0 {
            "0.0%".into()
        } else {
            "new".into()
        };
    }
    format!("{:+.1}%", 100.0 * (new - base) / base.abs())
}

/// The report, and whether anything regressed.
pub fn compare(base: &Value, new: &Value) -> Res<(String, bool)> {
    let mut out = String::new();
    let mut regressed = false;
    for new_w in json::seq(new, "workloads")? {
        let name = json::string(new_w, "workload")?;
        let Some(base_w) = workload(base, name)? else {
            let _ = writeln!(out, "== {name} == not in the base document");
            continue;
        };
        let _ = writeln!(out, "== {name} ==");
        let host_drifted = ["host.spin_ms", "host.chase_ms"].iter().any(|k| {
            match (layer_value(base_w, k), layer_value(new_w, k)) {
                (Some(b), Some(n)) if b > 0.0 => ((n - b) / b).abs() > HOST_DRIFT,
                _ => false,
            }
        });
        if host_drifted {
            let _ = writeln!(
                out,
                "  host kernels moved by more than 5 %: the host drifted"
            );
        }
        let rate = |w: &Value| -> Res<f64> {
            Ok(json::num(w, "failed")? / json::num(w, "attempted")?.max(1.0))
        };
        if rate(new_w)? > rate(base_w)? {
            regressed = true;
            let _ = writeln!(
                out,
                "  REGRESSED failed/attempted rose from {:.6} to {:.6}",
                rate(base_w)?,
                rate(new_w)?
            );
        }
        if !json::boolean(new_w, "correct")? {
            regressed = true;
            let _ = writeln!(out, "  REGRESSED the new document is not correct");
        }
        for (metric, new_m) in json::entries(new_w, "end_to_end")? {
            let Some(base_m) = base_w.get("end_to_end").and_then(|e| e.get(metric)) else {
                continue;
            };
            let base_rounds = numbers(json::seq(base_m, "rounds")?)?;
            let new_rounds = numbers(json::seq(new_m, "rounds")?)?;
            let sides = Sides {
                base: &base_rounds,
                new: &new_rounds,
                lower_is_better: json::string(new_m, "better")? == "lower",
                bound: json::num(new_m, "bound")?,
                host_drifted,
            };
            let v = verdict(&sides);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<20} {:>14.4} -> {:>14.4} {:<6} {:>8}  bound {:.0}%  spread {:.1}%/{:.1}%  {}",
                metric,
                stats::median(&base_rounds),
                stats::median(&new_rounds),
                json::string(new_m, "unit")?,
                percent(stats::median(&base_rounds), stats::median(&new_rounds)),
                100.0 * sides.bound,
                100.0 * spread(&base_rounds),
                100.0 * spread(&new_rounds),
                v.as_str(),
            );
        }
        for (metric, new_m) in json::entries(new_w, "per_layer")? {
            let Some(base_value) = layer_value(base_w, metric) else {
                continue;
            };
            let new_value = json::num(new_m, "value")?;
            let _ = writeln!(
                out,
                "  {:<52} {:>14.4} -> {:>14.4} {:<8} {:>8}",
                metric,
                base_value,
                new_value,
                json::string(new_m, "unit")?,
                percent(base_value, new_value),
            );
        }
    }
    Ok((out, regressed))
}

/// Fold several runs into one document: each end-to-end metric's "rounds"
/// become the runs' medians, each per-layer value the median of the runs'
/// values.  A verdict needs the spread between *runs*, which one run cannot
/// carry, so a baseline is a fold (`olxp-perf fold`), and so is each side of
/// a `selfcheck`.
pub fn fold(invocations: &[Value]) -> Res<Value> {
    if invocations.is_empty() {
        return Err("nothing to fold".into());
    }
    let mut folded = Vec::new();
    for first in json::seq(&invocations[0], "workloads")? {
        let name = json::string(first, "workload")?;
        let all: Vec<&Value> = invocations
            .iter()
            .map(|doc| workload(doc, name)?.ok_or_else(|| format!("{name} missing").into()))
            .collect::<Res<_>>()?;
        let mut w = first.clone();
        for (section, key) in [("end_to_end", "median"), ("per_layer", "value")] {
            let mut metrics = json::field(first, section)?.clone();
            for (metric, entry) in json::entries_mut(&mut metrics)? {
                let values = all
                    .iter()
                    .map(|o| json::num(json::field(json::field(o, section)?, metric)?, key))
                    .collect::<Res<Vec<f64>>>()?;
                json::set(entry, key, stats::median(&values));
                if section == "end_to_end" {
                    json::set(entry, "min", stats::min(&values));
                    json::set(entry, "max", stats::max(&values));
                    json::set(entry, "spread", spread(&values));
                    let rounds = values.into_iter().map(Value::F64).collect();
                    json::set_value(entry, "rounds", Value::Seq(rounds));
                }
            }
            json::set_value(&mut w, section, metrics);
        }
        let mut correct = true;
        for key in ["attempted", "failed"] {
            let mut total = 0.0;
            for o in &all {
                total += json::num(o, key)?;
                correct &= json::boolean(o, "correct")?;
            }
            json::set_value(&mut w, key, Value::U64(total as u64));
        }
        json::set_value(&mut w, "correct", Value::Bool(correct));
        folded.push(w);
    }
    let mut doc = invocations[0].clone();
    json::set_value(&mut doc, "runs", Value::U64(invocations.len() as u64));
    json::set_value(&mut doc, "workloads", Value::Seq(folded));
    Ok(doc)
}

/// Invocations per side of a `selfcheck`.
const SELFCHECK_SETS: usize = 3;

/// Run [`SELFCHECK_SETS`] invocations each for side A and side B of the same
/// binary, alternating which side goes first, and compare A with B.  The two
/// invocations of a pair run the same seed, so the sides see the same data
/// and request lists; the seed moves on from pair to pair.  Also prints the
/// quartile spread of each end-to-end metric over all invocations.
pub fn selfcheck(args: &RunArgs) -> Res<bool> {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for pair in 0..SELFCHECK_SETS {
        for side in 0..2 {
            let to_a = (side == 0) == (pair % 2 == 0);
            let mut args = args.clone();
            args.seed += pair as u64;
            let (doc, correct) = run::run(&args)?;
            if !correct {
                return Err("an invocation was not correct".into());
            }
            if to_a { &mut a } else { &mut b }.push(doc);
        }
    }
    let (doc_a, doc_b) = (fold(&a)?, fold(&b)?);
    std::fs::write(
        args.out.join("SELFCHECK_A.json"),
        json::pretty(&doc_a) + "\n",
    )?;
    std::fs::write(
        args.out.join("SELFCHECK_B.json"),
        json::pretty(&doc_b) + "\n",
    )?;
    let (report, regressed) = compare(&doc_a, &doc_b)?;
    println!(
        "---- selfcheck: set A ({} invocations) vs set B ----",
        a.len()
    );
    print!("{report}");
    println!(
        "---- quartile spread over all {} invocations ----",
        a.len() + b.len()
    );
    let mut within = true;
    for w in json::seq(&doc_a, "workloads")? {
        let name = json::string(w, "workload")?;
        let other = workload(&doc_b, name)?.ok_or("workload missing from set B")?;
        for (metric, m) in json::entries(w, "end_to_end")? {
            let mut values = numbers(json::seq(m, "rounds")?)?;
            values.extend(numbers(json::seq(
                json::field(json::field(other, "end_to_end")?, metric)?,
                "rounds",
            )?)?);
            let spread = stats::quartile_spread(&values);
            let bound = json::num(m, "bound")?;
            let ok = spread <= bound;
            within &= ok;
            println!(
                "  {name:<14} {metric:<20} IQR/median {:>6.2}%  bound {:.0}%  {}",
                100.0 * spread,
                100.0 * bound,
                if spread <= bound / 3.0 {
                    "steady"
                } else if ok {
                    "within bound"
                } else {
                    "TOO NOISY"
                }
            );
        }
    }
    Ok(!regressed && within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sides<'a>(base: &'a [f64], new: &'a [f64], lower: bool) -> Sides<'a> {
        Sides {
            base,
            new,
            lower_is_better: lower,
            bound: 0.10,
            host_drifted: false,
        }
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&sides(&base, &[112.0, 111.0, 113.0], true)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&sides(&base, &[88.0, 89.0, 87.0], false)),
            Verdict::Regressed
        );
        // Regression wins over noise: a wide spread does not excuse it.
        assert_eq!(
            verdict(&sides(&base, &[90.0, 112.0, 140.0], true)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_median_within_the_bound_is_unchanged_when_rounds_agree() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&sides(&base, &[104.0, 105.0, 103.0], true)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&sides(&base, &[96.0, 97.0, 95.0], false)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_median_better_by_more_than_the_bound_improves() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&sides(&base, &[80.0, 81.0, 79.0], true)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&sides(&base, &[120.0, 121.0, 119.0], false)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [90.0, 100.0, 115.0];
        assert_eq!(
            verdict(&sides(&noisy, &[100.0, 101.0, 99.0], true)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&sides(&[100.0, 101.0, 99.0], &noisy, true)),
            Verdict::Unresolved
        );
        // ... unless every new run beats every base run.
        assert_eq!(
            verdict(&sides(&noisy, &[60.0, 70.0, 80.0], true)),
            Verdict::Improved
        );
    }

    #[test]
    fn host_drift_makes_an_unchanged_metric_unresolved() {
        let base = [100.0, 101.0, 99.0];
        let mut s = sides(&base, &[102.0, 103.0, 101.0], true);
        s.host_drifted = true;
        assert_eq!(verdict(&s), Verdict::Unresolved);
    }

    fn doc(tps: [f64; 3], failed: u64, spin: f64) -> Value {
        let text = format!(
            r#"{{"schema":"olxp-perf/1","workloads":[{{"workload":"w","correct":true,
            "attempted":100,"failed":{failed},
            "end_to_end":{{"tps":{{"unit":"1/s","better":"higher","bound":0.1,
              "median":{m},"min":0,"max":0,"spread":0,"samples_per_round":100,
              "rounds":[{a},{b},{c}]}}}},
            "per_layer":{{"host.spin_ms":{{"unit":"ms","better":"lower","value":{spin}}},
                          "host.chase_ms":{{"unit":"ms","better":"lower","value":10.0}}}},
            "rounds":[]}}]}}"#,
            m = tps[1],
            a = tps[0],
            b = tps[1],
            c = tps[2],
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn compare_reports_every_delta_and_flags_regressions() {
        let base = doc([99.0, 100.0, 101.0], 0, 30.0);
        let (report, regressed) = compare(&base, &doc([98.0, 99.0, 100.0], 0, 30.1)).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("unchanged") && report.contains("host.spin_ms"));

        let (report, regressed) = compare(&base, &doc([79.0, 80.0, 81.0], 0, 30.0)).unwrap();
        assert!(regressed && report.contains("REGRESSED"), "{report}");

        let (report, regressed) = compare(&base, &doc([99.0, 100.0, 101.0], 1, 30.0)).unwrap();
        assert!(
            regressed && report.contains("failed/attempted rose"),
            "{report}"
        );

        let (report, regressed) = compare(&base, &doc([98.0, 99.0, 100.0], 0, 33.0)).unwrap();
        assert!(!regressed && report.contains("unresolved"), "{report}");
        assert!(report.contains("host drifted"), "{report}");
    }

    #[test]
    fn folding_invocations_takes_medians_of_medians() {
        let folded = fold(&[
            doc([1.0, 100.0, 1.0], 0, 30.0),
            doc([1.0, 110.0, 1.0], 1, 32.0),
            doc([1.0, 90.0, 1.0], 0, 31.0),
        ])
        .unwrap();
        let w = workload(&folded, "w").unwrap().unwrap();
        let tps = json::field(json::field(w, "end_to_end").unwrap(), "tps").unwrap();
        assert_eq!(json::num(tps, "median").unwrap(), 100.0);
        assert_eq!(json::num(tps, "min").unwrap(), 90.0);
        assert_eq!(json::num(tps, "max").unwrap(), 110.0);
        assert_eq!(json::num(&folded, "runs").unwrap(), 3.0);
        assert_eq!(json::seq(tps, "rounds").unwrap().len(), 3);
        assert_eq!(layer_value(w, "host.spin_ms"), Some(31.0));
        assert_eq!(json::num(w, "failed").unwrap(), 1.0);
        assert_eq!(json::num(w, "attempted").unwrap(), 300.0);
    }
}
