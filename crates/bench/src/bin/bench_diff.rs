//! CI perf-regression gate: compare fresh `BENCH_*.json` artifacts against
//! the committed baselines in `benches/baseline/`, write a markdown
//! comparison table to `$GITHUB_STEP_SUMMARY` (stdout when unset), and
//! exit non-zero on any >10% regression in a deterministic counter or any
//! lost row.
//!
//! ```sh
//! bench_diff [--baseline <dir>] [--fresh <dir>]
//! ```
//!
//! To accept an intentional perf change, regenerate and commit the
//! baseline: `cargo run --release -p dob-bench --bin <bin> -- --json &&
//! cp BENCH_<bin>.json benches/baseline/`.

use dob_bench::diff::{changed_summary, diff_benches, parse_bench_json, BenchFile};
use std::io::Write;
use std::path::{Path, PathBuf};

fn arg_value(args: &[String], flag: &str, default: &str) -> PathBuf {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn load(path: &Path) -> Result<BenchFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_bench_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// `**name**: numerator / denominator = r× counter` from the fresh rows
/// of the two algorithms at their largest common `n`, rendered for the
/// step summary. `None` when the rows are absent (older artifacts).
fn ratio_headline(
    files: &[BenchFile],
    name: &str,
    numerator_algo: &str,
    denominator_algo: &str,
    counter: &str,
) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .filter(|r| r.algo == algo)
            .max_by_key(|r| r.n)
    };
    let num = row(numerator_algo)?;
    let den = row(denominator_algo)?;
    let (n, d) = (*num.counters.get(counter)?, *den.counters.get(counter)?);
    (num.n == den.n && d > 0).then(|| {
        format!(
            "**{name}** (n = {}): {numerator_algo} / {denominator_algo} = {:.2}× {counter} \
             (same comparator schedule).",
            num.n,
            n as f64 / d as f64,
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_dir = arg_value(&args, "--baseline", "benches/baseline");
    let fresh_dir = arg_value(&args, "--fresh", ".");

    let mut baselines: Vec<PathBuf> = std::fs::read_dir(&baseline_dir)
        .unwrap_or_else(|e| panic!("read baseline dir {}: {e}", baseline_dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    baselines.sort();
    assert!(
        !baselines.is_empty(),
        "no BENCH_*.json baselines in {}",
        baseline_dir.display()
    );

    let mut summary = String::from("## Bench regression gate\n\n");
    let mut failures: Vec<String> = Vec::new();
    let mut fresh_files: Vec<BenchFile> = Vec::new();
    let mut compared = 0;
    let mut changed: Vec<String> = Vec::new();

    for base_path in &baselines {
        let name = base_path.file_name().unwrap().to_str().unwrap();
        let fresh_path = fresh_dir.join(name);
        let base = match load(base_path) {
            Ok(b) => b,
            Err(e) => {
                failures.push(e.clone());
                summary.push_str(&format!("### `{name}`\n\n❌ {e}\n\n"));
                continue;
            }
        };
        if !fresh_path.exists() {
            failures.push(format!(
                "{name}: fresh artifact missing — bench bin not run?"
            ));
            summary.push_str(&format!(
                "### `{}`\n\n❌ fresh artifact missing\n\n",
                base.bin
            ));
            continue;
        }
        let fresh = match load(&fresh_path) {
            Ok(f) => f,
            Err(e) => {
                failures.push(e.clone());
                summary.push_str(&format!("### `{}`\n\n❌ {e}\n\n", base.bin));
                continue;
            }
        };
        let d = diff_benches(&base, &fresh);
        fresh_files.push(fresh);
        summary.push_str(&d.markdown);
        compared += d.compared;
        changed.extend(d.changed.iter().map(|row| format!("{name}: {row}")));
        for r in &d.regressions {
            failures.push(format!(
                "{name}: {} — {} regressed {} → {} (>{:.0}%)",
                r.row,
                r.counter,
                r.baseline,
                r.fresh,
                100.0 * dob_bench::diff::THRESHOLD,
            ));
        }
        for m in &d.missing {
            failures.push(format!("{name}: row lost from fresh run: {m}"));
        }
        for a in &d.added {
            eprintln!("note: {name}: unbaselined new row: {a}");
        }
    }

    // The two packed-cell ablations: the same records through the same
    // comparator schedule, 32-byte cells vs Slot-wrapped records — the
    // cache-miss ratio is the tracked payoff of the tag-sort fast path.
    for (name, record, tag) in [
        ("Tag-sort headline", "ours: record-sort", "ours: tag-sort"),
        (
            "Graphs tag-cell headline",
            "graphs cc: record slots",
            "graphs cc: tag cells",
        ),
    ] {
        if let Some(line) = ratio_headline(&fresh_files, name, record, tag, "cache_misses") {
            summary.push_str(&format!("\n{line}\n\n"));
            println!("{line}");
        }
    }

    // Not part of the gate: a change that claims to keep behaviour reads
    // its "0 changed" here.
    let identity = changed_summary(compared, &changed);
    summary.push_str(&format!("{identity}\n"));
    print!("{identity}");

    if failures.is_empty() {
        summary.push_str("**All deterministic counters within the gate.** ✅\n");
    } else {
        summary.push_str("**Regressions detected:**\n\n");
        for f in &failures {
            summary.push_str(&format!("- ❌ {f}\n"));
        }
        summary.push_str(
            "\nIntentional? Regenerate with `--json` and commit the new \
             baseline under `benches/baseline/`.\n",
        );
    }

    match std::env::var("GITHUB_STEP_SUMMARY") {
        Ok(path) => {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("open $GITHUB_STEP_SUMMARY {path}: {e}"));
            f.write_all(summary.as_bytes()).expect("write step summary");
            eprintln!("wrote comparison table to $GITHUB_STEP_SUMMARY");
        }
        Err(_) => print!("{summary}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "bench_diff: {} artifact(s) within the {:.0}% gate",
        baselines.len(),
        100.0 * dob_bench::diff::THRESHOLD
    );
}
