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

use dob_bench::diff::{diff_benches, parse_bench_json};
use std::io::Write;
use std::path::{Path, PathBuf};

fn arg_value(args: &[String], flag: &str, default: &str) -> PathBuf {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn load(path: &Path) -> Result<dob_bench::diff::BenchFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_bench_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// The tag-vs-record ratio from the fresh ablation rows ("ours: tag-sort"
/// vs "ours: record-sort" at the largest common `n`), rendered for the
/// step summary. `None` when the rows are absent (older artifacts).
fn tag_sort_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .filter(|r| r.algo == algo)
            .max_by_key(|r| r.n)
    };
    let tag = row("ours: tag-sort")?;
    let rec = row("ours: record-sort")?;
    if tag.n != rec.n {
        return None;
    }
    let ratio = |counter: &str| -> Option<f64> {
        let t = *tag.counters.get(counter)?;
        let r = *rec.counters.get(counter)?;
        (t > 0).then(|| r as f64 / t as f64)
    };
    Some(format!(
        "**Tag-sort headline** (n = {}): record-sort / tag-sort = {:.2}× cache misses, \
         {:.2}× wall (same comparator schedule).",
        tag.n,
        ratio("cache_misses").unwrap_or(f64::NAN),
        ratio("wall_ns").unwrap_or(f64::NAN),
    ))
}

/// The SIMD-vs-scalar compare-exchange wall ratio from the fresh sort
/// ablation rows ("sort: simd cells" vs "sort: scalar cells" at the
/// largest common `n`), rendered for the step summary. The deterministic
/// counters of the two rows are identical by construction (accounting
/// replay); only the wall moves. `None` when the rows are absent (older
/// artifacts).
fn simd_cells_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .filter(|r| r.algo == algo)
            .max_by_key(|r| r.n)
    };
    let simd = row("sort: simd cells")?;
    let scalar = row("sort: scalar cells")?;
    if simd.n != scalar.n {
        return None;
    }
    let ws = *simd.counters.get("wall_ns")?;
    let wc = *scalar.counters.get("wall_ns")?;
    (ws > 0).then(|| {
        format!(
            "**SIMD-kernel headline** (n = {}): scalar / simd = {:.2}× wall on the packed-cell \
             sort (batched AVX2 compare-exchange, identical comparator schedule, trace, and \
             counters).",
            simd.n,
            wc as f64 / ws as f64,
        )
    })
}

/// The pipelined-vs-synchronous stream throughput ratio from the fresh
/// store rows, rendered for the step summary. `None` when the rows are
/// absent (older artifacts).
fn pipelined_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .find(|r| r.algo == algo)
    };
    let sync = row("sync: stream pool4 wall")?;
    let pipe = row("pipelined: stream pool4 wall")?;
    if sync.n != pipe.n {
        return None;
    }
    let ws = *sync.counters.get("wall_ns")?;
    let wp = *pipe.counters.get("wall_ns")?;
    (wp > 0).then(|| {
        format!(
            "**Pipelined-epoch headline** (n = {}): pipelined / synchronous = {:.2}× \
             client-batch throughput (double-buffered group commit, same padded shapes).",
            sync.n,
            ws as f64 / wp as f64,
        )
    })
}

/// The pinned-vs-unpinned epoch wall ratio at the largest pool of the
/// thread-scaling family, rendered for the step summary. `None` when the
/// rows are absent (older artifacts).
fn pinned_pool_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .find(|r| r.algo == algo)
    };
    let unpinned = row("scaling t=4 unpinned: epoch wall")?;
    let pinned = row("scaling t=4 pinned: epoch wall")?;
    if unpinned.n != pinned.n {
        return None;
    }
    let wu = *unpinned.counters.get("wall_ns")?;
    let wp = *pinned.counters.get("wall_ns")?;
    (wp > 0).then(|| {
        format!(
            "**Pinned-pool headline** (n = {}, t = 4): unpinned / pinned = {:.2}× epoch wall \
             (workers pinned to cores, same oblivious schedule; ≈1.0× on runners where \
             pinning degrades).",
            unpinned.n,
            wu as f64 / wp as f64,
        )
    })
}

/// The graphs tag-cell-vs-record-slot ratio from the migrated CC min-hook
/// sort site, rendered for the step summary. `None` when the rows are
/// absent (older artifacts).
fn graphs_cell_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let row = |algo: &str| {
        files
            .iter()
            .flat_map(|f| f.rows.iter())
            .find(|r| r.algo == algo)
    };
    let tag = row("graphs cc: tag cells")?;
    let slot = row("graphs cc: record slots")?;
    if tag.n != slot.n {
        return None;
    }
    let ratio = |counter: &str| -> Option<f64> {
        let t = *tag.counters.get(counter)?;
        let s = *slot.counters.get(counter)?;
        (t > 0).then(|| s as f64 / t as f64)
    };
    Some(format!(
        "**Graphs tag-cell headline** (CC min-hook sort, n = {}): record-slot / tag-cell = \
         {:.2}× cache misses, {:.2}× wall (same comparator schedule).",
        tag.n,
        ratio("cache_misses").unwrap_or(f64::NAN),
        ratio("wall_ns").unwrap_or(f64::NAN),
    ))
}

/// The durable-recovery cost at the largest snapshot of the recovery
/// family, rendered for the step summary. `None` when the rows are absent
/// (older artifacts).
fn recovery_headline(files: &[dob_bench::diff::BenchFile]) -> Option<String> {
    let recov = files
        .iter()
        .flat_map(|f| f.rows.iter())
        .filter(|r| r.algo == "recovery: snapshot + replay")
        .max_by_key(|r| r.n)?;
    let snap = files
        .iter()
        .flat_map(|f| f.rows.iter())
        .find(|r| r.algo == "recovery: checkpoint write" && r.n == recov.n)?;
    let wr = *recov.counters.get("wall_ns")?;
    let ws = *snap.counters.get("wall_ns")?;
    (wr > 0).then(|| {
        format!(
            "**Recovery headline** (n = {}): snapshot load + 4×256-op WAL replay in \
             {:.1} ms ({:.0} keys/s); checkpoint write {:.1} ms. Replay runs the \
             normal merge path, so the recovered trace is the fresh-run trace.",
            recov.n,
            wr as f64 / 1e6,
            recov.n as f64 * 1e9 / wr as f64,
            ws as f64 / 1e6,
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
    let mut fresh_files: Vec<dob_bench::diff::BenchFile> = Vec::new();

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

    // Tag-vs-record headline: the ablation rows measure the same records
    // through the same comparator schedule, packed vs Slot-wrapped — the
    // ratio is the tracked payoff of the tag-sort fast path.
    if let Some(line) = tag_sort_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

    // SIMD-vs-scalar headline: the same cells, schedule, and trace —
    // only the compare-exchange ALU width differs, so the wall ratio is
    // the vectorization win in isolation.
    if let Some(line) = simd_cells_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

    // Pipelined-vs-synchronous headline: same client stream, double
    // buffering turns per-batch merges into group commits.
    if let Some(line) = pipelined_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

    // Pinned-pool headline: the hardware-shaped runtime's t=4 epoch wall,
    // pinned vs unpinned workers on the same oblivious schedule.
    if let Some(line) = pinned_pool_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

    // Graphs tag-cell headline: the migrated CC min-hook sort site, packed
    // cells vs the retired record slots.
    if let Some(line) = graphs_cell_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

    // Recovery headline: the durable store's crash-recovery cost at the
    // largest snapshot of the family.
    if let Some(line) = recovery_headline(&fresh_files) {
        summary.push_str(&format!("\n{line}\n\n"));
        println!("{line}");
    }

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
