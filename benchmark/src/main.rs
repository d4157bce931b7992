//! The repository's host-time benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dob-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--out <dir>] [--dir <dir>] [--allow-env]
//! dob-benchmark set [--reps <n>] [--label <name>] [the run options]
//! dob-benchmark compare <set.json> <set.json> [<set.json> ...]
//! ```
//!
//! A run prints a table, writes a result file, and ends its stdout with
//! one JSON object `{correct, attempted, failed, metrics}`.

mod api;
mod calib;
mod compare;
mod env;
mod gen;
mod json;
mod oracle;
mod probes;
mod report;
mod run;
mod set;
mod spec;
mod stats;
mod trace;
mod vfs;
mod workloads;

use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Options shared by a single run and a set.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    dir: Option<PathBuf>,
    allow_env: bool,
    reps: usize,
    label: String,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        dir: None,
        allow_env: false,
        reps: 3,
        label: "latest".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600", &v));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                };
            }
            "--reps" => {
                let v = value()?;
                o.reps = v.parse().map_err(|_| bad("a whole number", &v))?;
                if !(1..=100).contains(&o.reps) {
                    return Err(bad("between 1 and 100", &v));
                }
            }
            "--label" => {
                let v = value()?;
                if v.is_empty()
                    || !v
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                {
                    return Err(bad("letters, digits, '_', '.', '-'", &v));
                }
                o.label = v;
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--dir" => o.dir = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--allow-env" => o.allow_env = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

/// Default measured seconds: the run length `BENCHMARK.json` fixes, or a
/// fraction of a second for `--smoke`.
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        0.3
    } else {
        10.0
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::compare(&args[1..]).map(|failures| failures == 0);
    }
    let is_set = args.first().map(String::as_str) == Some("set");
    let o = parse(&args[usize::from(is_set)..])?;

    let guarded = env::guarded_vars_set();
    if !guarded.is_empty() && !o.allow_env {
        return Err(format!(
            "{} set: it changes what the code under test does; unset it or pass --allow-env",
            guarded.join(", ")
        ));
    }
    let seconds = o.seconds.unwrap_or_else(|| default_seconds(o.smoke));

    if is_set {
        return set::run_set(&set::SetCfg {
            reps: o.reps,
            seed: o.seed,
            seconds,
            trace: o.trace,
            smoke: o.smoke,
            out: o.out,
            dir: o.dir,
            label: o.label,
            allow_env: o.allow_env,
        });
    }

    let cfg = run::RunCfg {
        workload: o.workload.ok_or("--workload is required (or use `set`)")?,
        seed: o.seed,
        seconds,
        trace: o.trace,
        smoke: o.smoke,
        out: o.out,
        dir: o.dir,
    };
    let result = run::run(&cfg)?;
    report::print_human(&result);
    let path = cfg.result_path();
    std::fs::write(&path, report::result_json(&result).to_line() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    println!("{}", report::contract_line(&result));
    // An incorrect run still reports: the driver reads `correct`.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dob-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
