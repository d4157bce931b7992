//! Shared harness for the table/figure generators.
//!
//! Every generator measures the model quantities the paper's tables are
//! stated in — work `W`, span `T∞`, cache misses `Q(M,B)` — through the
//! metering executor, prints one row per (task, algorithm, n), and reports
//! normalized columns so the asymptotic *shape* (the reproduction target)
//! is visible at a glance: `W / (n·log n)`, `T∞ / log² n`, and
//! `Q / ((n/B)·log_M n)`.
//!
//! Model quantities are all this crate reports: a `BENCH_*.json` is a pure
//! function of the source tree. Host time is measured by `benchmark/`
//! (see `benchmark/README.md`).

use metrics::{measure, CacheConfig, CostReport, MeterCtx, TraceMode};

pub mod diff;

/// One measured table row.
#[derive(Clone, Debug)]
pub struct Row {
    pub task: &'static str,
    pub algo: &'static str,
    pub n: usize,
    pub rep: CostReport,
}

/// Measure a workload under the default cache geometry, trace off.
pub fn meter<F: FnOnce(&MeterCtx)>(f: F) -> CostReport {
    measure(CacheConfig::default(), TraceMode::Off, f).1
}

/// Measure under an explicit cache geometry.
pub fn meter_with<F: FnOnce(&MeterCtx)>(cfg: CacheConfig, f: F) -> CostReport {
    measure(cfg, TraceMode::Off, f).1
}

pub fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// `log_M n` with the row's cache size (≥ 1).
fn log_m(n: usize, m_words: u64) -> f64 {
    (lg(n) / (m_words.max(2) as f64).log2()).max(1.0)
}

/// The optimal sorting cache bound `(n/B)·log_M n` (≥ 1).
pub fn q_sort_bound(n: usize, rep: &CostReport) -> f64 {
    ((n as f64 / rep.b_words as f64) * log_m(n, rep.m_words)).max(1.0)
}

pub fn header() {
    println!(
        "{:<10} {:<28} {:>9} {:>14} {:>10} {:>12} {:>9} {:>9} {:>9}",
        "task", "algorithm", "n", "work", "span", "Q(M,B)", "W/nlogn", "T/log^2", "Q/Qsort"
    );
    println!("{}", "-".repeat(118));
}

pub fn print_row(r: &Row) {
    let n = r.n.max(2) as f64;
    let nlogn = n * lg(r.n);
    let log2sq = lg(r.n) * lg(r.n);
    println!(
        "{:<10} {:<28} {:>9} {:>14} {:>10} {:>12} {:>9.2} {:>9.1} {:>9.2}",
        r.task,
        r.algo,
        r.n,
        r.rep.work,
        r.rep.span,
        r.rep.cache_misses,
        r.rep.work as f64 / nlogn,
        r.rep.span as f64 / log2sq,
        r.rep.cache_misses as f64 / q_sort_bound(r.n, &r.rep),
    );
}

/// Collects measured rows and, when `--json` was passed, writes them as a
/// machine-readable `BENCH_<bin>.json` next to the working directory so CI
/// can archive the perf trajectory of every push.
pub struct BenchSink {
    bin: &'static str,
    rows: Vec<(Row, u64)>,
    json: bool,
}

impl BenchSink {
    /// `--json` on the command line enables the JSON artifact.
    pub fn from_args(bin: &'static str) -> Self {
        BenchSink {
            bin,
            rows: Vec::new(),
            json: std::env::args().any(|a| a == "--json"),
        }
    }

    /// Print the row (human table) and retain it for the JSON artifact.
    pub fn record(&mut self, row: Row) {
        self.record_alloc(row, 0);
    }

    /// [`BenchSink::record`] with an explicit fresh-allocation count (the
    /// scratch-arena `fresh_allocs` delta of the measured closure) so the
    /// CI regression gate can also watch allocator behaviour.
    pub fn record_alloc(&mut self, row: Row, allocs: u64) {
        print_row(&row);
        self.push(row, allocs);
    }

    /// Retain a row for the JSON artifact without printing it — for
    /// sections that render their own custom table.
    pub fn rows_push_quiet(
        &mut self,
        task: &'static str,
        algo: &'static str,
        n: usize,
        rep: CostReport,
    ) {
        self.push(Row { task, algo, n, rep }, 0);
    }

    /// `(task, algo, n)` is what `bench_diff` keys a row by, so a second
    /// row under one identity could only shadow the first.
    fn push(&mut self, row: Row, allocs: u64) {
        assert!(
            !self
                .rows
                .iter()
                .any(|(r, _)| (r.task, r.algo, r.n) == (row.task, row.algo, row.n)),
            "duplicate bench row: {} / {} / n={}",
            row.task,
            row.algo,
            row.n,
        );
        self.rows.push((row, allocs));
    }

    /// Write `BENCH_<bin>.json` when `--json` was requested. Hand-rolled
    /// serialization: every field is numeric or a plain string, and the
    /// container has no serde.
    pub fn finish(&self) -> std::io::Result<()> {
        if !self.json {
            return Ok(());
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bin\": \"{}\",\n  \"rows\": [\n", self.bin));
        for (i, (r, allocs)) in self.rows.iter().enumerate() {
            // The regression gate's parser (`diff::parse_bench_json`) reads
            // plain quoted strings; keep names free of escape sequences so
            // `{:?}` serialization stays a verbatim quote.
            assert!(
                !r.task.contains(['"', '\\']) && !r.algo.contains(['"', '\\']),
                "bench row names must not contain quotes or backslashes: {:?}/{:?}",
                r.task,
                r.algo,
            );
            out.push_str(&format!(
                "    {{\"task\": {:?}, \"algo\": {:?}, \"n\": {}, \"work\": {}, \"span\": {}, \
                 \"cache_misses\": {}, \"cache_accesses\": {}, \"comparisons\": {}, \
                 \"moves\": {}, \"retries\": {}, \"allocs\": {}, \"m_words\": {}, \
                 \"b_words\": {}}}{}\n",
                r.task,
                r.algo,
                r.n,
                r.rep.work,
                r.rep.span,
                r.rep.cache_misses,
                r.rep.cache_accesses,
                r.rep.comparisons,
                r.rep.moves,
                r.rep.retries,
                allocs,
                r.rep.m_words,
                r.rep.b_words,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        let path = format!("BENCH_{}.json", self.bin);
        std::fs::write(&path, out)?;
        eprintln!("wrote {path}");
        Ok(())
    }
}

/// Default sweep, doubled twice at the top with `--full`.
pub fn sweep_from_args(default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full") {
        let mut v = default.to_vec();
        if let Some(&top) = v.last() {
            v.push(top * 2);
            v.push(top * 4);
        }
        v
    } else {
        default.to_vec()
    }
}

/// Least-squares growth exponent of `y` against `x` on log-log axes —
/// a quick check that a measured curve scales like the claimed bound.
pub fn growth_exponent(points: &[(usize, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .map(|&(x, y)| ((x as f64).ln(), y.ln()))
        .collect();
    let k = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_recovers_slope() {
        let pts: Vec<(usize, f64)> = (1..=6)
            .map(|k| {
                let n = 1usize << (10 + k);
                (n, (n as f64).powf(1.5))
            })
            .collect();
        let g = growth_exponent(&pts);
        assert!((g - 1.5).abs() < 0.01, "got {g}");
    }

    #[test]
    fn meter_runs_workloads() {
        use fj::Ctx as _;
        let rep = meter(|c| {
            fj::par_for(c, 0, 100, 1, &|c, _| c.work(1));
        });
        assert!(rep.work >= 100);
    }

    #[test]
    #[should_panic(expected = "duplicate bench row: store / merge path / n=256")]
    fn a_repeated_row_identity_panics() {
        let rep = meter(|_| {});
        let mut sink = BenchSink::from_args("store");
        sink.rows_push_quiet("store", "merge path", 256, rep);
        sink.rows_push_quiet("store", "merge path", 512, rep);
        sink.rows_push_quiet("store", "merge path", 256, rep);
    }
}
