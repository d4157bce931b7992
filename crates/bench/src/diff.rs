//! Bench-JSON comparison: what `tests/registry.rs` prints when a table's
//! rows move from `benches/baseline/`.
//!
//! The `BENCH_*.json` artifacts are produced by [`crate::BenchSink`] under
//! the metering executor, so every counter (work, span, cache, comparisons,
//! moves, retries, allocs) is **deterministic** for a given source tree —
//! any drift is a real change, not noise, and a source change that is
//! meant to keep behaviour must regenerate every artifact bit for bit
//! ([`DiffOutcome::changed`]). The parser below reads exactly the flat
//! shape `BenchSink::json` writes (the container has no serde; see
//! DESIGN.md §6).

use std::collections::{BTreeMap, BTreeSet};

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

/// Result of comparing a fresh artifact against its committed baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Baseline rows absent from the fresh artifact.
    pub missing: Vec<String>,
    /// Fresh rows absent from the baseline.
    pub added: Vec<String>,
    /// Rows present on both sides.
    pub compared: usize,
    /// Of those, the ones that are not bit-identical: any counter, up or
    /// down, differs. Each entry names the row and its moved counters.
    pub changed: Vec<String>,
}

/// "N rows, K with any counter changed", then one line per changed row.
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

/// Compare two parsed artifacts row by row, keyed on task/algo/n.
pub fn diff_benches(baseline: &BenchFile, fresh: &BenchFile) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    let fresh_by_id: BTreeMap<String, &BenchRow> = fresh.rows.iter().map(|r| (r.id(), r)).collect();
    for brow in &baseline.rows {
        let id = brow.id();
        let Some(frow) = fresh_by_id.get(&id) else {
            out.missing.push(id);
            continue;
        };
        out.compared += 1;
        if brow.counters != frow.counters {
            let names: BTreeSet<&String> =
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
    }
    let base_ids: BTreeSet<String> = baseline.rows.iter().map(|r| r.id()).collect();
    out.added = fresh
        .rows
        .iter()
        .map(|r| r.id())
        .filter(|id| !base_ids.contains(id))
        .collect();
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
        // missing counter is absent, not 0.
        let text = sample(10, 0).replace("\"allocs\": 0, ", "");
        let f = parse_bench_json(&text).unwrap();
        assert_eq!(f.rows[0].counters.get("allocs"), None);
    }

    #[test]
    fn identical_files_pass() {
        let f = parse_bench_json(&sample(1000, 4)).unwrap();
        let d = diff_benches(&f, &f);
        assert!(d.changed.is_empty() && d.missing.is_empty() && d.added.is_empty());
        assert_eq!(d.compared, 1);
    }

    #[test]
    fn missing_rows_fail_and_new_rows_inform() {
        let base = parse_bench_json(&sample(1000, 4)).unwrap();
        let mut fresh = base.clone();
        fresh.rows[0].n = 512; // same row measured at a different size
        let d = diff_benches(&base, &fresh);
        assert_eq!(d.missing, ["store / merge path / n=256"]);
        assert_eq!(d.added, ["store / merge path / n=512"]);
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
        // One unit of work and one retry: not bit-identical.
        let moved =
            parse_bench_json(&sample(999, 4).replace("\"retries\": 0", "\"retries\": 1")).unwrap();
        let d = diff_benches(&base, &moved);
        assert!(d.missing.is_empty());
        assert_eq!(
            changed_summary(d.compared, &d.changed),
            "1 rows, 1 with any counter changed\n\
             - store / merge path / n=256: retries 0 → 1, work 1000 → 999\n"
        );
        // A counter the fresh file no longer writes is a change too.
        let lost = parse_bench_json(&sample(1000, 4).replace("\"comparisons\": 50, ", "")).unwrap();
        assert_eq!(
            diff_benches(&base, &lost).changed,
            ["store / merge path / n=256: comparisons 50 → absent"]
        );
    }
}
