//! How a run's result leaves the process: a table for people, a result
//! file with everything (environment included), and the one-line JSON
//! object the driver's contract asks for on the last line of stdout.

use crate::json::Json;
use crate::run::RunResult;
use crate::spec::{Metric, CARRIED, END_TO_END, PER_LAYER, UNIVERSAL};

fn metric_json(m: &Metric, value: Option<f64>) -> Json {
    Json::obj([
        ("value", Json::opt(value)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.word())),
        ("bound", Json::opt(m.bound)),
        ("exact", Json::Bool(m.exact)),
    ])
}

/// The metrics the driver's contract lists, in its order: with
/// `--trace 0` its `end_to_end` list; with `--trace 1` the other bounded
/// end-to-end metrics followed by every per-layer metric.
fn contract_metrics(r: &RunResult) -> Vec<(&'static Metric, Option<f64>)> {
    if r.trace {
        END_TO_END[UNIVERSAL..CARRIED]
            .iter()
            .zip(&r.e2e[UNIVERSAL..CARRIED])
            .chain(PER_LAYER.iter().zip(&r.layers))
            .map(|(m, v)| (m, *v))
            .collect()
    } else {
        END_TO_END[..UNIVERSAL]
            .iter()
            .zip(&r.e2e[..UNIVERSAL])
            .map(|(m, v)| (m, *v))
            .collect()
    }
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`
/// and `metrics`. The contract wants a number for every listed metric,
/// so one that does not apply to this workload (`null` in the result
/// file) is written as 0 here.
pub fn contract_line(r: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::Obj(
                contract_metrics(r)
                    .into_iter()
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(v.unwrap_or(0.0))),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

/// The result file: every metric by name with unit, direction and
/// bound, and the run's detail (sizes, sample counts, environment).
pub fn result_json(r: &RunResult) -> Json {
    let mut metrics: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(&r.e2e)
        .map(|(m, v)| (m.name.to_string(), metric_json(m, *v)))
        .collect();
    metrics.extend(
        PER_LAYER
            .iter()
            .zip(&r.layers)
            .map(|(m, v)| (m.name.to_string(), metric_json(m, *v))),
    );
    Json::obj([
        ("workload", Json::str(r.workload.name())),
        ("why", Json::str(r.workload.why())),
        ("trace", Json::Bool(r.trace)),
        ("claim", Json::Null),
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
        ("detail", r.detail.clone()),
    ])
}

pub fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(0.0) => "0".into(),
        Some(v) if v.abs() >= 1e5 => format!("{v:.0}"),
        Some(v) if v.abs() >= 100.0 => format!("{v:.1}"),
        Some(v) if v.abs() >= 1.0 => format!("{v:.3}"),
        Some(v) => format!("{v:.5}"),
    }
}

pub fn print_human(r: &RunResult) {
    let samples = r.detail.get("samples");
    let count = |k: &str| {
        samples
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "== {} ({}) ==",
        r.workload.name(),
        if r.trace {
            "traced pass: per-layer numbers"
        } else {
            "tracing off: end-to-end numbers"
        }
    );
    println!("   {}", r.workload.why());
    println!(
        "   {} ops attempted, {} failed; {} timed units, {} ack samples, {} stall samples",
        r.attempted,
        r.failed,
        count("units"),
        count("ack"),
        count("stall")
    );
    for (m, v) in END_TO_END.iter().zip(&r.e2e) {
        println!("   {:<44} {:>14} {}", m.name, fmt_value(*v), m.unit);
    }
    for (m, v) in PER_LAYER.iter().zip(&r.layers) {
        println!("   {:<44} {:>14} {}", m.name, fmt_value(*v), m.unit);
    }
}
