//! Bench-JSON comparison for the CI perf-regression gate.
//!
//! The `BENCH_*.json` artifacts are produced by [`crate::BenchSink`] under
//! the metering executor, so every gated counter (work, span, cache,
//! comparisons, moves, allocs) is **deterministic** for a given source tree
//! — any drift is a real change, not noise, and a source change that is
//! meant to keep behaviour must regenerate every artifact bit for bit
//! ([`DiffOutcome::changed`]). The parser below reads exactly the flat
//! shape `BenchSink::json` writes (the container has no serde; see
//! DESIGN.md §6).

use std::collections::BTreeMap;

/// Counters gated at the >10% threshold. `retries` is absent because a
/// seed change legitimately moves it between small integers.
pub const GATED: &[&str] = &[
    "work",
    "span",
    "cache_misses",
    "cache_accesses",
    "comparisons",
    "moves",
    "allocs",
];

/// Relative regression threshold (fractional): fail above +10%.
pub const THRESHOLD: f64 = 0.10;
/// Absolute slack so tiny counters (0 or near-0 baselines) don't trip the
/// relative gate on ±a-few-units drift.
pub const ABS_SLACK: u64 = 8;

/// One measured row: identity plus its numeric counters.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    pub task: String,
    pub algo: String,
    pub n: u64,
    pub counters: BTreeMap<String, u64>,
}

impl BenchRow {
    fn id(&self) -> String {
        format!("{} / {} / n={}", self.task, self.algo, self.n)
    }
}

/// A parsed `BENCH_*.json` artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    pub bin: String,
    pub rows: Vec<BenchRow>,
}

/// Parse the `BenchSink` JSON shape: one `"bin"` string and a `"rows"`
/// array of flat objects whose values are strings or non-negative
/// integers. Strings are read verbatim between quotes — no escape
/// handling — which `BenchSink::json` guarantees by rejecting row names
/// containing `"` or `\`. Two rows under one `(task, algo, n)` identity
/// are an error: [`diff_benches`] could only compare one of them.
pub fn parse_bench_json(text: &str) -> Result<BenchFile, String> {
    let bin = find_string_field(text, "bin").ok_or("missing \"bin\" field")?;
    let rows_at = text.find("\"rows\"").ok_or("missing \"rows\" field")?;
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut rest = &text[rows_at..];
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}').ok_or("unterminated row object")? + open;
        let row = parse_row(&rest[open + 1..close])?;
        if rows
            .iter()
            .any(|r| (&r.task, &r.algo, r.n) == (&row.task, &row.algo, row.n))
        {
            return Err(format!("duplicate row {}", row.id()));
        }
        rows.push(row);
        rest = &rest[close + 1..];
    }
    Ok(BenchFile { bin, rows })
}

fn parse_row(obj: &str) -> Result<BenchRow, String> {
    let mut task = None;
    let mut algo = None;
    let mut counters = BTreeMap::new();
    for field in split_fields(obj) {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("malformed field {field:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        if let Some(s) = value.strip_prefix('"') {
            let s = s.strip_suffix('"').ok_or("unterminated string")?;
            match key.as_str() {
                "task" => task = Some(s.to_string()),
                "algo" => algo = Some(s.to_string()),
                _ => {}
            }
        } else {
            let v: u64 = value
                .parse()
                .map_err(|_| format!("non-numeric value for {key:?}: {value:?}"))?;
            counters.insert(key, v);
        }
    }
    Ok(BenchRow {
        task: task.ok_or("row missing task")?,
        algo: algo.ok_or("row missing algo")?,
        n: counters.get("n").copied().unwrap_or(0),
        counters,
    })
}

/// Split a flat object body on commas that sit outside string literals.
fn split_fields(obj: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, ch) in obj.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                fields.push(&obj[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < obj.len() {
        fields.push(&obj[start..]);
    }
    fields.retain(|f| !f.trim().is_empty());
    fields
}

fn find_string_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// One counter regression beyond the gate.
#[derive(Clone, Debug)]
pub struct Regression {
    pub row: String,
    pub counter: String,
    pub baseline: u64,
    pub fresh: u64,
}

/// Result of comparing a fresh artifact against its committed baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Markdown comparison table (one line per baseline row).
    pub markdown: String,
    /// Gated counters that regressed by more than the threshold.
    pub regressions: Vec<Regression>,
    /// Baseline rows absent from the fresh artifact (coverage loss — also
    /// a failure).
    pub missing: Vec<String>,
    /// Fresh rows absent from the baseline (new coverage — fine; commit a
    /// new baseline to start gating them).
    pub added: Vec<String>,
    /// Rows present on both sides.
    pub compared: usize,
    /// Of those, the ones that are not bit-identical: any counter — gated
    /// or not, up or down — differs. Each entry names the row and its
    /// moved counters. Informational; see [`changed_summary`].
    pub changed: Vec<String>,
}

/// "N rows, K with any counter changed", then one line per changed row —
/// what a behaviour-preserving change shows as `K = 0` in the CI log
/// instead of claiming in prose.
pub fn changed_summary(compared: usize, changed: &[String]) -> String {
    let mut s = format!(
        "{compared} rows, {} with any counter changed\n",
        changed.len()
    );
    for row in changed {
        s.push_str(&format!("- {row}\n"));
    }
    s
}

/// Did `fresh` regress past the gate relative to `baseline`?
pub fn is_regression(baseline: u64, fresh: u64) -> bool {
    fresh > baseline.saturating_add(ABS_SLACK)
        && (fresh as f64) > (baseline as f64) * (1.0 + THRESHOLD)
}

fn pct(baseline: u64, fresh: u64) -> String {
    if baseline == 0 {
        return if fresh == 0 {
            "±0%".into()
        } else {
            "new".into()
        };
    }
    let d = 100.0 * (fresh as f64 - baseline as f64) / baseline as f64;
    format!("{d:+.1}%")
}

/// Compare two parsed artifacts row by row (keyed on task/algo/n) and
/// render the markdown table for `$GITHUB_STEP_SUMMARY`.
pub fn diff_benches(baseline: &BenchFile, fresh: &BenchFile) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    let fresh_by_id: BTreeMap<String, &BenchRow> = fresh.rows.iter().map(|r| (r.id(), r)).collect();
    let base_ids: std::collections::BTreeSet<String> =
        baseline.rows.iter().map(|r| r.id()).collect();

    let mut md = String::new();
    md.push_str(&format!("### `{}`\n\n", baseline.bin));
    md.push_str("| row | work | span | cache misses | allocs | status |\n");
    md.push_str("|---|---|---|---|---|---|\n");
    for brow in &baseline.rows {
        let id = brow.id();
        let Some(frow) = fresh_by_id.get(&id) else {
            md.push_str(&format!("| {id} | — | — | — | — | ❌ missing |\n"));
            out.missing.push(id);
            continue;
        };
        out.compared += 1;
        if brow.counters != frow.counters {
            let names: std::collections::BTreeSet<&String> =
                brow.counters.keys().chain(frow.counters.keys()).collect();
            let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
            let moved: Vec<String> = names
                .into_iter()
                .map(|k| (k, brow.counters.get(k), frow.counters.get(k)))
                .filter(|(_, b, f)| b != f)
                .map(|(k, b, f)| format!("{k} {} → {}", show(b), show(f)))
                .collect();
            out.changed.push(format!("{id}: {}", moved.join(", ")));
        }
        let mut row_regressed = false;
        for &counter in GATED {
            // A counter the baseline gates but the fresh artifact no
            // longer emits means the instrumentation broke — fail hard
            // rather than fail open on an implicit 0. (A counter absent
            // from the *baseline* is simply not gated yet: old artifacts
            // predate e.g. the `allocs` column.)
            match (brow.counters.get(counter), frow.counters.get(counter)) {
                (Some(&b), Some(&f)) => {
                    if is_regression(b, f) {
                        row_regressed = true;
                        out.regressions.push(Regression {
                            row: id.clone(),
                            counter: counter.to_string(),
                            baseline: b,
                            fresh: f,
                        });
                    }
                }
                (Some(_), None) => {
                    row_regressed = true;
                    out.missing.push(format!("{id} — counter {counter:?}"));
                }
                (None, _) => {}
            }
        }
        let cell = |name: &str| {
            let b = brow.counters.get(name).copied().unwrap_or(0);
            let f = frow.counters.get(name).copied().unwrap_or(0);
            format!("{f} ({})", pct(b, f))
        };
        md.push_str(&format!(
            "| {id} | {} | {} | {} | {} | {} |\n",
            cell("work"),
            cell("span"),
            cell("cache_misses"),
            cell("allocs"),
            if row_regressed {
                "❌ regressed"
            } else {
                "✅"
            },
        ));
    }
    for frow in &fresh.rows {
        let id = frow.id();
        if !base_ids.contains(&id) {
            md.push_str(&format!("| {id} | — | — | — | — | 🆕 unbaselined |\n"));
            out.added.push(id);
        }
    }
    md.push('\n');
    out.markdown = md;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(work: u64, allocs: u64) -> String {
        format!(
            "{{\n  \"bin\": \"store\",\n  \"rows\": [\n    \
             {{\"task\": \"store\", \"algo\": \"merge path\", \"n\": 256, \"work\": {work}, \
             \"span\": 120, \"cache_misses\": 300, \"cache_accesses\": 900, \
             \"comparisons\": 50, \"moves\": 60, \"retries\": 0, \"allocs\": {allocs}, \
             \"m_words\": 32768, \"b_words\": 8}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn parses_the_sink_shape() {
        let f = parse_bench_json(&sample(1000, 4)).unwrap();
        assert_eq!(f.bin, "store");
        assert_eq!(f.rows.len(), 1);
        let r = &f.rows[0];
        assert_eq!(
            (r.task.as_str(), r.algo.as_str(), r.n),
            ("store", "merge path", 256)
        );
        assert_eq!(r.counters["work"], 1000);
        assert_eq!(r.counters["allocs"], 4);
    }

    #[test]
    fn parses_artifacts_without_the_allocs_field() {
        // Pre-allocs artifacts (older baselines) must still parse; the
        // missing counter reads as 0.
        let text = sample(10, 0).replace("\"allocs\": 0, ", "");
        let f = parse_bench_json(&text).unwrap();
        assert_eq!(f.rows[0].counters.get("allocs"), None);
    }

    #[test]
    fn identical_files_pass() {
        let f = parse_bench_json(&sample(1000, 4)).unwrap();
        let d = diff_benches(&f, &f);
        assert!(d.regressions.is_empty() && d.missing.is_empty() && d.added.is_empty());
        assert!(d.markdown.contains("✅"));
    }

    #[test]
    fn ten_percent_gate_trips_on_work_and_allocs() {
        let base = parse_bench_json(&sample(1000, 100)).unwrap();
        let ok = parse_bench_json(&sample(1090, 100)).unwrap();
        assert!(diff_benches(&base, &ok).regressions.is_empty());
        let bad = parse_bench_json(&sample(1200, 100)).unwrap();
        let d = diff_benches(&base, &bad);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].counter, "work");
        let bad_allocs = parse_bench_json(&sample(1000, 150)).unwrap();
        assert_eq!(
            diff_benches(&base, &bad_allocs).regressions[0].counter,
            "allocs"
        );
    }

    #[test]
    fn gated_counter_vanishing_from_fresh_fails_hard() {
        // Fresh artifact stopped emitting a gated counter (instrumentation
        // broke): must fail, not read as 0 and pass.
        let base = parse_bench_json(&sample(1000, 4)).unwrap();
        let fresh =
            parse_bench_json(&sample(1000, 4).replace("\"comparisons\": 50, ", "")).unwrap();
        let d = diff_benches(&base, &fresh);
        assert_eq!(d.missing.len(), 1);
        assert!(d.missing[0].contains("comparisons"), "{:?}", d.missing);
        // The converse — a counter the baseline predates — is fine.
        let old_base = parse_bench_json(&sample(1000, 0).replace("\"allocs\": 0, ", "")).unwrap();
        let new_fresh = parse_bench_json(&sample(1000, 4)).unwrap();
        let d = diff_benches(&old_base, &new_fresh);
        assert!(d.missing.is_empty() && d.regressions.is_empty());
    }

    #[test]
    fn absolute_slack_spares_tiny_counters() {
        assert!(!is_regression(0, 8));
        assert!(is_regression(0, 9));
        assert!(!is_regression(4, 8));
        assert!(is_regression(100, 120));
        assert!(!is_regression(100, 108));
    }

    #[test]
    fn missing_rows_fail_and_new_rows_inform() {
        let base = parse_bench_json(&sample(1000, 4)).unwrap();
        let mut fresh = base.clone();
        fresh.rows[0].n = 512; // same row measured at a different size
        let d = diff_benches(&base, &fresh);
        assert_eq!(d.missing.len(), 1);
        assert_eq!(d.added.len(), 1);
        assert!(d.markdown.contains("❌ missing"));
        assert!(d.markdown.contains("🆕 unbaselined"));
    }

    #[test]
    fn a_repeated_row_identity_is_a_parse_error() {
        let one = sample(1000, 4);
        let row = one.lines().nth(3).unwrap();
        let two = one.replace(row, &format!("{row},\n{}", row.replace("1000", "2000")));
        let err = parse_bench_json(&two).unwrap_err();
        assert!(
            err.contains("duplicate row store / merge path / n=256"),
            "{err}"
        );
    }

    #[test]
    fn changed_rows_are_counted_below_the_gate_too() {
        let base = parse_bench_json(&sample(1000, 4)).unwrap();
        let same = diff_benches(&base, &base);
        assert_eq!((same.compared, same.changed.len()), (1, 0));
        assert_eq!(
            changed_summary(same.compared, &same.changed),
            "1 rows, 0 with any counter changed\n"
        );
        // One unit of work and one ungated counter: far inside the 10 %
        // gate, and still not bit-identical.
        let moved =
            parse_bench_json(&sample(999, 4).replace("\"retries\": 0", "\"retries\": 1")).unwrap();
        let d = diff_benches(&base, &moved);
        assert!(d.regressions.is_empty() && d.missing.is_empty());
        assert_eq!(
            changed_summary(d.compared, &d.changed),
            "1 rows, 1 with any counter changed\n\
             - store / merge path / n=256: retries 0 → 1, work 1000 → 999\n"
        );
    }
}
