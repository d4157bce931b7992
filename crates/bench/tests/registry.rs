//! The one gate for counters and traces: every trace row's line against
//! `benches/baseline/obliv_check.txt` and every table's rows against its
//! `benches/baseline/BENCH_<bin>.json`, through the printer and serialiser
//! the binaries use, with each table's report (and its assertions) after
//! its rows. Counters and traces are a function of the source tree alone
//! (DESIGN.md §5), so these hold in every build profile; CI also runs this
//! test in release, on the AVX2 and on the scalar backend.
//!
//! A change that means to move a row regenerates the file, as each failure
//! message says, and lists the moved rows in CHANGES.md.

use dob_bench::diff::{changed_summary, diff_benches, parse_bench_json};
use dob_bench::rows::{check_traces, measure_table, Arenas, Table};

fn baseline(file: &str) -> String {
    let path = format!(
        "{}/../../benches/baseline/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn trace_rows_print_the_golden_output() {
    let mut out = Vec::new();
    let all_pass = check_traces(&mut out).expect("write to a Vec");
    let out = String::from_utf8(out).expect("the matrix is UTF-8");
    let golden = baseline("obliv_check.txt");
    let (got, want): (Vec<_>, Vec<_>) = (out.lines().collect(), golden.lines().collect());
    let moved: Vec<String> = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .map(|i| {
            format!(
                "- {}\n+ {}",
                want.get(i).unwrap_or(&""),
                got.get(i).unwrap_or(&"")
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} lines differ from benches/baseline/obliv_check.txt:\n{}\n\n\
         to accept an intended change: cargo run --release -p dob-bench --bin obliv_check \
         > benches/baseline/obliv_check.txt",
        moved.len(),
        want.len(),
        moved.join("\n"),
    );
    assert_eq!(out, golden, "line endings differ from the golden file");
    assert!(all_pass);
}

#[test]
fn table_rows_serialise_to_the_baselines() {
    // One thread a table: each owns its arenas, as each binary does.
    let fresh = std::thread::scope(|s| {
        let measure = |table| {
            let sink = measure_table(table, &Arenas::default(), &mut std::io::sink());
            sink.expect("write to a sink").json()
        };
        let runs = Table::ALL.map(|table| s.spawn(move || measure(table)));
        runs.map(|run| run.join().expect("a table's rows ran"))
    });
    let (mut report, mut accept) = (String::new(), String::new());
    for (table, fresh) in Table::ALL.into_iter().zip(fresh) {
        let file = format!("BENCH_{}.json", table.bin());
        let base = baseline(&file);
        if fresh == base {
            continue;
        }
        let parse = |text: &str| parse_bench_json(text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let d = diff_benches(&parse(&base), &parse(&fresh));
        report.push_str(&format!(
            "{file}: {}",
            changed_summary(d.compared, &d.changed)
        ));
        for row in d.missing.iter().map(|r| format!("lost: {r}")) {
            report.push_str(&format!("- {row}\n"));
        }
        for row in d.added.iter().map(|r| format!("new: {r}")) {
            report.push_str(&format!("- {row}\n"));
        }
        if d.changed.is_empty() && d.missing.is_empty() && d.added.is_empty() {
            report.push_str("- same rows and counters, in another order or layout\n");
        }
        let bin = match table {
            Table::Store => "store_bench",
            _ => table.bin(),
        };
        accept.push_str(&format!(
            "cargo run --release -p dob-bench --bin {bin} -- --json && cp {file} benches/baseline/\n"
        ));
    }
    assert!(
        report.is_empty(),
        "rows moved from benches/baseline/:\n{report}\nto accept an intended change:\n{accept}"
    );
}
