//! `olxp-perf`: the repository's benchmark.
//!
//! Fixed work, not fixed time: every workload is a request list generated
//! from `--seed`.  Fresh processes: every round builds one engine in a child
//! of its own.  Medians of rounds: each end-to-end metric is computed per
//! round and reported as the median over the rounds.  See `perf/README.md`.

use olxp_perf::run::RunArgs;
use olxp_perf::{compare, json, round, run, spec, Res};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: olxp-perf run [--workload NAME]... [--seed N] [--seconds S] [--rounds R]
                     [--trace 0|1] [--quick] [--out DIR]
       olxp-perf compare BASE.json NEW.json
       olxp-perf fold RUN.json...
       olxp-perf selfcheck [run options]

run        every workload (or the named ones): R rounds each, every round a
           fresh process, interleaved across workloads, plus one traced round.
           --trace 0 skips the traced round and prints end-to-end metrics,
           --trace 1 prints per-layer metrics, neither prints both.
           --seconds scales the request lists (nominal 20); --quick is one
           round at a fifth of the lists.  Results also go to DIR/BENCH.json;
           DIR defaults to out/ beside the benchmark's Cargo.toml.
compare    every delta between two result documents; exits 1 when an
           end-to-end median worsened past its bound or failures rose.
fold       several runs' BENCH.json as one document on standard output, each
           metric's \"rounds\" the runs' medians: what a baseline is made of.
selfcheck  3 invocations each for two sets of this same binary, alternating,
           the two of a pair on the same seed, compared with `compare`.";

/// Options shared by `run`, `selfcheck` and the internal `round`.
struct Options {
    workloads: Vec<&'static spec::Spec>,
    seed: u64,
    seconds: u32,
    rounds: usize,
    trace: Option<bool>,
    out: Option<PathBuf>,
    round: usize,
    traced: bool,
}

fn parse(args: &[String]) -> Res<Options> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: spec::NOMINAL_SECONDS,
        rounds: spec::ROUNDS,
        trace: None,
        out: None,
        round: 0,
        traced: false,
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v}")),
        };
        match flag.as_str() {
            "--workload" => o
                .workloads
                .push(spec::workload(value).ok_or_else(|| format!("unknown workload {value}"))?),
            "--seed" => o.seed = value.parse()?,
            "--seconds" => o.seconds = value.parse()?,
            "--rounds" => o.rounds = value.parse()?,
            "--trace" => o.trace = Some(bit(value)?),
            "--out" => o.out = Some(PathBuf::from(value)),
            "--round" => o.round = value.parse()?,
            "--traced" => o.traced = bit(value)?,
            _ => return Err(format!("unknown option {flag}").into()),
        }
    }
    if o.seconds == 0 || o.rounds == 0 {
        return Err("--seconds and --rounds must be at least 1".into());
    }
    if quick {
        o.rounds = 1;
        o.seconds = (spec::NOMINAL_SECONDS / 5).max(1);
    }
    if o.workloads.is_empty() {
        o.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(o)
}

/// `--out`, or `out/` beside the manifest `cargo run` says it is running —
/// looked up when the program runs, never compiled in.
fn out_dir(explicit: Option<PathBuf>) -> Res<PathBuf> {
    if let Some(dir) = explicit {
        return Ok(dir);
    }
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => Ok(PathBuf::from(dir).join("out")),
        None => {
            Err("pass --out DIR (or start through `cargo run`, which says where perf/ is)".into())
        }
    }
}

fn run_args(o: Options) -> Res<RunArgs> {
    Ok(RunArgs {
        workloads: o.workloads,
        seed: o.seed,
        seconds: o.seconds,
        rounds: o.rounds,
        trace: o.trace,
        out: out_dir(o.out)?,
    })
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match command.as_str() {
        "run" => {
            let (_, correct) = run::run(&run_args(parse(rest)?)?)?;
            Ok(pass(correct))
        }
        "round" => {
            run::refuse_engine_env()?;
            let o = parse(rest)?;
            let doc = round::run(&round::RoundArgs {
                spec: o.workloads[0],
                seed: o.seed,
                scale: f64::from(o.seconds) / f64::from(spec::NOMINAL_SECONDS),
                traced: o.traced,
                out: out_dir(o.out)?,
                round: o.round,
            })?;
            println!("{}", json::compact(&doc));
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [base, new] = rest else {
                return Err(USAGE.into());
            };
            let (report, regressed) =
                compare::compare(&json::read(base.as_ref())?, &json::read(new.as_ref())?)?;
            print!("{report}");
            Ok(pass(!regressed))
        }
        "fold" => {
            let runs = rest
                .iter()
                .map(|path| json::read(path.as_ref()))
                .collect::<Res<Vec<_>>>()?;
            println!("{}", json::pretty(&compare::fold(&runs)?));
            Ok(ExitCode::SUCCESS)
        }
        "selfcheck" => Ok(pass(compare::selfcheck(&run_args(parse(rest)?)?)?)),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("olxp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
