//! A *set*: `--reps` runs of every workload, each in its own process,
//! interleaved round-robin so a noisy stretch of host time hits every
//! workload once instead of one workload three times. The reported value
//! of a metric is the median across repetitions, with min and max.

use crate::json::Json;
use crate::report::fmt_value;
use crate::spec::Workload;
use crate::stats::median;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct SetCfg {
    pub reps: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub dir: Option<PathBuf>,
    pub label: String,
    pub allow_env: bool,
}

/// Values of one metric across the repetitions of one workload.
struct Series {
    name: String,
    meta: Json,
    values: Vec<Option<f64>>,
}

struct Collected {
    workload: Workload,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    series: Vec<Series>,
}

fn run_child(cfg: &SetCfg, w: Workload) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out);
    if let Some(dir) = &cfg.dir {
        cmd.arg("--dir").arg(dir);
    }
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if cfg.allow_env {
        cmd.arg("--allow-env");
    }
    // `output` waits for the child; its table is replaced by the set's.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{}: run exited with {}", w.name(), out.status));
    }
    let run_cfg = crate::run::RunCfg {
        workload: w,
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        smoke: cfg.smoke,
        out: cfg.out.clone(),
        dir: cfg.dir.clone(),
    };
    let path = run_cfg.result_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the set, print it, write `set-<label>.json`. Returns whether
/// every run of every workload was correct.
pub fn run_set(cfg: &SetCfg) -> Result<bool, String> {
    let mut all: Vec<Collected> = Workload::ALL
        .into_iter()
        .map(|workload| Collected {
            workload,
            attempted: Vec::new(),
            failed: Vec::new(),
            series: Vec::new(),
        })
        .collect();
    let mut env = Json::Null;
    for rep in 0..cfg.reps {
        for col in &mut all {
            eprintln!("rep {}/{}: {}", rep + 1, cfg.reps, col.workload.name());
            let res = run_child(cfg, col.workload)?;
            let num = |k: &str| res.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            col.attempted.push(num("attempted"));
            col.failed.push(num("failed"));
            if env == Json::Null {
                env = res
                    .get("detail")
                    .and_then(|d| d.get("env"))
                    .cloned()
                    .unwrap_or(Json::Null);
            }
            let metrics = res.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                match col.series.iter_mut().find(|s| &s.name == name) {
                    Some(s) => s.values.push(value),
                    None => col.series.push(Series {
                        name: name.clone(),
                        meta: m.clone(),
                        values: vec![value],
                    }),
                }
            }
        }
    }

    let mut correct = true;
    for col in &all {
        let failed: f64 = col.failed.iter().sum();
        correct &= failed == 0.0;
        println!(
            "== {} — median of {} runs [min, max]; {} ops attempted, {} failed ==",
            col.workload.name(),
            cfg.reps,
            col.attempted.iter().sum::<f64>(),
            failed
        );
        for s in &col.series {
            let vals: Vec<f64> = s.values.iter().flatten().copied().collect();
            let unit = s.meta.get("unit").and_then(Json::as_str).unwrap_or("");
            let (lo, hi) = vals
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |a, &v| {
                    (a.0.min(v), a.1.max(v))
                });
            match median(&vals) {
                Some(med) => println!(
                    "   {:<44} {:>14} {:<6} [{}, {}]",
                    s.name,
                    fmt_value(Some(med)),
                    unit,
                    fmt_value(Some(lo)),
                    fmt_value(Some(hi))
                ),
                None => println!("   {:<44} {:>14} {}", s.name, "null", unit),
            }
        }
    }

    let set = Json::obj([
        ("label", Json::str(cfg.label.clone())),
        ("claim", Json::Null),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("reps", Json::Num(cfg.reps as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("env", env),
        (
            "workloads",
            Json::Obj(
                all.iter()
                    .map(|col| {
                        (
                            col.workload.name().to_string(),
                            Json::obj([
                                ("attempted", Json::nums(&col.attempted)),
                                ("failed", Json::nums(&col.failed)),
                                (
                                    "metrics",
                                    Json::Obj(
                                        col.series
                                            .iter()
                                            .map(|s| (s.name.clone(), series_json(s)))
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = cfg.out.join(format!("set-{}.json", cfg.label));
    std::fs::write(&path, set.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn series_json(s: &Series) -> Json {
    let keep = |k: &str| (k.to_string(), s.meta.get(k).cloned().unwrap_or(Json::Null));
    Json::Obj(vec![
        keep("unit"),
        keep("better"),
        keep("bound"),
        keep("exact"),
        (
            "values".to_string(),
            Json::Arr(s.values.iter().map(|v| Json::opt(*v)).collect()),
        ),
    ])
}
