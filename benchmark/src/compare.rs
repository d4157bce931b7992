//! `compare`: hold two or more result sets against each other, one row
//! per (workload, metric). The first set is the base; each later one is
//! compared with it. This is the A/A tool for the benchmark's own
//! acceptance (two sets of one commit must agree within bound) and the
//! A/B tool for later changes.
//!
//! Verdicts, following the choosing-metrics guide (§6–§8):
//! * exact-count metrics must be equal;
//! * **regressed** — the median is worse than the base's by more than
//!   the metric's bound;
//! * **unresolved** — the run-to-run spread (interquartile distance over
//!   median, either side) is wider than the bound, so neither "no
//!   regression" nor a gain can be read off — unless every run of the
//!   candidate is better than every run of the base;
//! * **improved** — over at least ten run pairs, the candidate wins at
//!   least nine tenths of them (ties count for neither) and the medians
//!   differ by more than the distance between the base's quartiles;
//! * **within bound** otherwise.

use crate::json::Json;
use crate::report::fmt_value;
use crate::spec::Better;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Differs,
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
    /// No bound: a per-layer number, shown with its delta.
    Reported,
    /// One side has no value for the metric.
    Missing,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS (exact count)",
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::Reported => "reported",
            Verdict::Missing => "missing",
        }
    }

    /// Whether the verdict fails an A/A or no-regression check.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Verdict::Differs | Verdict::Regressed | Verdict::Unresolved
        )
    }
}

pub struct Rule {
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

/// Run pairs a gain is read off, at least (guide §8).
const MIN_PAIRS: usize = 10;

fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, _, q3]| q3 - q1)
}

pub fn judge(rule: &Rule, base: &[f64], cand: &[f64]) -> Verdict {
    let (Some(mb), Some(mc)) = (median(base), median(cand)) else {
        return Verdict::Missing;
    };
    if rule.exact {
        let all_equal = base.iter().chain(cand).all(|&v| v == base[0]);
        return if all_equal {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = rule.bound else {
        return Verdict::Reported;
    };
    let better = |c: f64, b: f64| match rule.better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    // Positive when the candidate's median is worse, as a share of the base's.
    let worse_by = match rule.better {
        Better::Lower => (mc - mb) / mb.abs(),
        Better::Higher => (mb - mc) / mb.abs(),
    };
    // One run has no spread to read; it is held to the bound alone.
    let spread_of = |v: &[f64]| spread(v).unwrap_or(0.0);
    let every_run_better = cand.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    if spread_of(base).max(spread_of(cand)) > bound {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    // A gain is read off ten pairs or more: three runs a side win "nine
    // tenths of the pairs" by chance every other A/A comparison.
    let pairs = base.len().min(cand.len());
    let wins = (0..pairs).filter(|&i| better(cand[i], base[i])).count();
    let beyond_noise = (mc - mb).abs() > iqr(base).unwrap_or(0.0);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && beyond_noise && worse_by < 0.0 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn rule_of(metric: &Json) -> Rule {
    Rule {
        better: match metric.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        },
        bound: metric.get("bound").and_then(Json::as_f64),
        exact: matches!(metric.get("exact"), Some(Json::Bool(true))),
    }
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some([q1, _, q3])) => format!(
            "{} [{} .. {}]",
            fmt_value(Some(m)),
            fmt_value(Some(q1)),
            fmt_value(Some(q3))
        ),
        (Some(m), None) => format!("{} [one run]", fmt_value(Some(m))),
        _ => "null".into(),
    }
}

/// Print the comparison; returns how many rows failed (exact counts
/// that differ, regressions, unresolved bounded metrics).
pub fn compare(paths: &[String]) -> Result<usize, String> {
    if paths.len() < 2 {
        return Err("compare needs at least two result sets".into());
    }
    let sets: Vec<Json> = paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let label = |s: &Json, p: &str| {
        let field = |k: &str| s.get(k).map_or("?".into(), Json::to_line);
        format!(
            "{p} (label {}, seed {}, {} reps of {} s)",
            field("label"),
            field("seed"),
            field("reps"),
            field("seconds")
        )
    };
    let base = &sets[0];
    println!("base: {}", label(base, &paths[0]));
    let mut failures = 0;
    for (cand, path) in sets[1..].iter().zip(&paths[1..]) {
        println!("against: {}", label(cand, path));
        println!(
            "   median [q1 .. q3] of base -> of candidate; delta is (candidate − base) / base"
        );
        let workloads = base.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
        for (wname, wbase) in workloads {
            println!("== {wname} ==");
            let metrics = wbase.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (mname, mbase) in metrics {
                let vb = values_of(mbase);
                let vc = cand
                    .get("workloads")
                    .and_then(|w| w.get(wname))
                    .and_then(|w| w.get("metrics"))
                    .and_then(|m| m.get(mname))
                    .map(values_of)
                    .unwrap_or_default();
                if vb.is_empty() && vc.is_empty() {
                    continue;
                }
                let rule = rule_of(mbase);
                let verdict = judge(&rule, &vb, &vc);
                failures += usize::from(verdict.is_failure());
                let delta = match (median(&vb), median(&vc)) {
                    (Some(b), Some(c)) if b != 0.0 => {
                        format!(
                            "{:+.2} % of {}",
                            (c - b) / b.abs() * 100.0,
                            fmt_value(Some(b))
                        )
                    }
                    _ => "n/a".into(),
                };
                let unit = mbase.get("unit").and_then(Json::as_str).unwrap_or("");
                let bound = rule
                    .bound
                    .filter(|_| !rule.exact)
                    .map_or(String::new(), |b| format!(" (bound {:.0} %)", b * 100.0));
                println!(
                    "   {:<40} {} -> {} {}; {}; {}{}",
                    mname,
                    describe(&vb),
                    describe(&vc),
                    unit,
                    delta,
                    verdict.word(),
                    bound
                );
            }
        }
    }
    println!("{failures} row(s) failed");
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        better: Better::Lower,
        bound: Some(0.1),
        exact: false,
    };
    const HIGHER: Rule = Rule {
        better: Better::Higher,
        bound: Some(0.1),
        exact: false,
    };

    #[test]
    fn an_a_a_pair_is_within_bound() {
        let a = [10.0, 10.1, 9.9, 10.05, 10.0];
        let b = [10.02, 9.95, 10.1, 10.0, 9.98];
        assert_eq!(judge(&LOWER, &a, &b), Verdict::WithinBound);
        assert_eq!(judge(&HIGHER, &a, &b), Verdict::WithinBound);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses_in_the_metrics_direction() {
        let base = [10.0, 10.1, 9.9];
        let slow = [11.5, 11.6, 11.4];
        assert_eq!(judge(&LOWER, &base, &slow), Verdict::Regressed);
        // Where higher is better the same numbers are no regression — and,
        // from three runs a side, no gain either.
        assert_eq!(judge(&HIGHER, &base, &slow), Verdict::WithinBound);
        assert_eq!(judge(&HIGHER, &slow, &base), Verdict::Regressed);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_to_clear_the_noise() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let fast: Vec<f64> = base.iter().map(|v| v - 0.5).collect();
        assert_eq!(judge(&LOWER, &base, &fast), Verdict::Improved);
        // The same gain from three pairs is not enough to claim it.
        assert_eq!(judge(&LOWER, &base[..3], &fast[..3]), Verdict::WithinBound);
        // Faster by less than the base's own quartile distance: no claim.
        let hair: Vec<f64> = base.iter().map(|v| v - 0.01).collect();
        assert_eq!(judge(&LOWER, &base, &hair), Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let base = [10.0, 14.0, 8.0, 12.0, 9.0];
        let cand = [10.5, 13.0, 8.5, 11.0, 9.5];
        assert_eq!(judge(&LOWER, &base, &cand), Verdict::Unresolved);
        // ...unless every candidate run beats every base run.
        let clear = [5.0, 7.0, 4.0, 6.0, 4.5];
        assert_eq!(judge(&LOWER, &base, &clear), Verdict::Improved);
    }

    #[test]
    fn exact_counts_must_be_equal() {
        let exact = Rule {
            better: Better::Lower,
            bound: Some(0.0),
            exact: true,
        };
        assert_eq!(judge(&exact, &[15.75, 15.75], &[15.75]), Verdict::Equal);
        assert_eq!(judge(&exact, &[15.75, 15.75], &[15.76]), Verdict::Differs);
        assert_eq!(judge(&exact, &[], &[1.0]), Verdict::Missing);
    }

    #[test]
    fn unbounded_metrics_are_reported() {
        let free = Rule {
            better: Better::Lower,
            bound: None,
            exact: false,
        };
        assert_eq!(judge(&free, &[1.0], &[9.0]), Verdict::Reported);
    }
}
