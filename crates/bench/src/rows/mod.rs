//! The row registry: every gated number of the reproduction, declared once.
//!
//! [`entries`] is one ordered list of two kinds of row. A [`ModelRow`] is
//! one `(task, algo, n)` row of a table's `BENCH_<bin>.json`: its cache
//! geometry, the arena whose fresh allocations it records (if any), and
//! what it runs under the metering executor. A [`TraceRow`] is one
//! Definition 1 spot-check: its inputs and what is compared across them
//! ([`Kind`]).
//!
//! The five table binaries are [`run_table`] on their [`Table`]: one
//! meter, one printer (`W / (n·log n)`, `T∞ / log² n` and
//! `Q / ((n/B)·log_M n)` beside the counters) and one [`BenchSink`] for
//! every row. `obliv_check` is [`check_traces`]. Both write through
//! `impl Write`, so `tests/registry.rs` holds the same text to
//! `benches/baseline/` ([`measure_table`] and [`BenchSink::json`] for the
//! tables). Rows run in list order, and the order is part of the counts:
//! a table's rows share its arenas, and a buffer class is fresh only the
//! first time a row leases it (`store`'s `allocs` column). What a table prints that is not a row —
//! Figure 1's drawing, E2's overflow trials, E4's path blocks, the
//! headlines, growth exponents and crossover table — is its report,
//! written after its rows from what they measured; its assertions hold
//! the rows to what it prints, in the binaries and in the registry test.

use metrics::{measure, CacheConfig, CostReport, MeterCtx, ScratchPool, TraceMode};
use obliv_core::{composite_key, Engine, Item, Slot, Val};
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::Arc;

mod ablations;
mod figure1;
mod store;
mod table1;
mod table2;
mod trace;

/// The table a model row belongs to: one binary, one `BENCH_<bin>.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    Table1,
    Table2,
    Ablations,
    Figure1,
    Store,
}

impl Table {
    /// Every table, in list order.
    pub const ALL: [Table; 5] = [
        Table::Table1,
        Table::Table2,
        Table::Ablations,
        Table::Figure1,
        Table::Store,
    ];

    /// The `bin` of the table's `BENCH_<bin>.json`.
    pub fn bin(self) -> &'static str {
        match self {
            Table::Table1 => "table1",
            Table::Table2 => "table2",
            Table::Ablations => "ablations",
            Table::Figure1 => "figure1",
            Table::Store => "store",
        }
    }

    fn title(self) -> &'static str {
        match self {
            Table::Table1 => "Table 1: oblivious vs insecure, binary fork-join, cache-agnostic",
            Table::Table2 => "Table 2: oblivious building blocks, ours vs naive-forked prior best",
            Table::Ablations => "Ablations: E1 recursive vs flat bitonic, E2 REC-ORBA, E4 ORAM layout, E6 sort variants",
            Table::Figure1 => "Figure 1: metered executions of the figure's networks (n = 16)",
            Table::Store => "dob-store: epochs per size class, kernels, recovery and retries",
        }
    }

    /// A row of this table whose whole run is metered.
    fn row<'a>(
        self,
        task: &'static str,
        algo: &'static str,
        n: usize,
        run: impl FnOnce(&MeterCtx) + 'a,
    ) -> ModelRow<'a> {
        self.staged(task, algo, n, move || -> Run<'a> { Box::new(run) })
    }

    /// A row with unmetered setup: `setup` runs when the row's turn comes,
    /// outside the meter and the allocation window, and returns the run.
    fn staged<'a>(
        self,
        task: &'static str,
        algo: &'static str,
        n: usize,
        setup: impl FnOnce() -> Run<'a> + 'a,
    ) -> ModelRow<'a> {
        ModelRow {
            table: self,
            task,
            algo,
            n,
            cache: CacheConfig::default(),
            watch: None,
            setup: Box::new(setup),
        }
    }

    fn rows(self, arenas: &Arenas) -> Vec<ModelRow<'_>> {
        match self {
            Table::Table1 => table1::rows(arenas),
            Table::Table2 => table2::rows(arenas),
            Table::Ablations => ablations::rows(arenas),
            Table::Figure1 => figure1::rows(),
            Table::Store => store::rows(arenas),
        }
    }

    fn report(self, arenas: &Arenas, rows: &[Row], out: &mut impl Write) -> io::Result<()> {
        match self {
            Table::Table1 => table1::report(rows, out),
            Table::Table2 => table2::report(rows, out),
            Table::Ablations => ablations::report(arenas, rows, out),
            Table::Figure1 => figure1::report(rows, out),
            Table::Store => store::report(arenas, rows, out),
        }
    }
}

/// The scratch arenas the rows lease from: `scratch` serves every table
/// and trace row, `pipe` the store's pipelined fronts, which own theirs.
#[derive(Default)]
pub struct Arenas {
    pub scratch: ScratchPool,
    pub pipe: Arc<ScratchPool>,
    /// Fresh leases of the store's cold-start consult into `pipe`, which
    /// runs outside the rows; the store report prints it.
    consult_cold: Cell<u64>,
}

/// What a model row runs under the meter.
type Run<'a> = Box<dyn FnOnce(&MeterCtx) + 'a>;

/// One row of a `BENCH_<bin>.json` table, before it is measured.
pub struct ModelRow<'a> {
    pub table: Table,
    pub task: &'static str,
    pub algo: &'static str,
    pub n: usize,
    /// The geometry `Q(M,B)` is counted at.
    pub cache: CacheConfig,
    /// The arena whose fresh allocations during the run are the row's
    /// `allocs`. `None` records 0: the gate does not watch the allocator on
    /// that row.
    pub watch: Option<&'a ScratchPool>,
    setup: Box<dyn FnOnce() -> Run<'a> + 'a>,
}

impl<'a> ModelRow<'a> {
    fn cache(self, cache: CacheConfig) -> Self {
        ModelRow { cache, ..self }
    }

    fn watch(self, arena: &'a ScratchPool) -> Self {
        ModelRow {
            watch: Some(arena),
            ..self
        }
    }

    /// Run the setup, then meter the run with trace off.
    pub fn measure(self) -> Row {
        let run = (self.setup)();
        let fresh = || self.watch.map_or(0, ScratchPool::fresh_allocs);
        let before = fresh();
        let (_, rep) = measure(self.cache, TraceMode::Off, run);
        Row {
            task: self.task,
            algo: self.algo,
            n: self.n,
            rep,
            allocs: fresh() - before,
        }
    }
}

/// One Definition 1 spot-check: for fixed public coins, what the adversary
/// sees of each input must be equal across the row's inputs.
pub struct TraceRow<'a> {
    pub name: &'static str,
    pub kind: Kind,
    /// One observation per input.
    observe: Box<dyn FnOnce() -> Vec<Seen> + 'a>,
}

/// What a trace row compares across its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The whole trace of each input, `(hash, length)`.
    Exact,
    /// The trace length alone, recorded as `(0, length)`, where
    /// obliviousness is distributional.
    Length,
    /// An observation the row makes of its inputs itself.
    Custom,
}

/// What a trace row observed of one input.
pub type Seen = Vec<(u64, u64)>;

impl Kind {
    /// An `Exact` or `Length` row: `f` runs once per input under its own
    /// tracing meter.
    fn over<'a, I: Clone + 'a>(
        self,
        name: &'static str,
        inputs: &[I],
        f: impl Fn(&MeterCtx, &I) + 'a,
    ) -> TraceRow<'a> {
        assert_ne!(self, Kind::Custom, "{name}: a custom row observes itself");
        let inputs = inputs.to_vec();
        let observe = move || {
            let seen = |v| match trace(|c| f(c, v)) {
                (_, len) if self == Kind::Length => vec![(0, len)],
                exact => vec![exact],
            };
            inputs.iter().map(seen).collect()
        };
        TraceRow {
            name,
            kind: self,
            observe: Box::new(observe),
        }
    }
}

/// A `Custom` row.
fn custom<'a>(name: &'static str, observe: impl FnOnce() -> Vec<Seen> + 'a) -> TraceRow<'a> {
    TraceRow {
        name,
        kind: Kind::Custom,
        observe: Box::new(observe),
    }
}

impl TraceRow<'_> {
    /// Write the verdict and the value the inputs were compared on (the
    /// first input's; every input's on a FAIL), so a change that keeps the
    /// verdict but moves a trace still shows in a diff of the output.
    fn check(self, out: &mut impl Write) -> io::Result<bool> {
        let seen = (self.observe)();
        let ok = seen.windows(2).all(|w| w[0] == w[1]);
        let show = |s: &Seen| match &s[..] {
            [one] => format!("{one:?}"),
            all => format!("{all:?}"),
        };
        let shown: Vec<String> = match ok {
            true => vec![show(&seen[0])],
            false => seen.iter().map(show).collect(),
        };
        let verdict = if ok { "PASS" } else { "FAIL" };
        writeln!(out, "{:<44} {verdict} {}", self.name, shown.join(" "))?;
        Ok(ok)
    }
}

/// `(hash, length)` of `f`'s adversary trace at the default geometry.
fn trace(f: impl FnOnce(&MeterCtx)) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, f);
    (rep.trace_hash, rep.trace_len)
}

/// One entry of the registry.
pub enum Entry<'a> {
    Model(ModelRow<'a>),
    Trace(TraceRow<'a>),
}

/// Every row, in the order the tables and `obliv_check` run them.
pub fn entries(arenas: &Arenas) -> Vec<Entry<'_>> {
    let model = Table::ALL.into_iter().flat_map(|t| t.rows(arenas));
    let traces = trace::rows(arenas).into_iter().map(Entry::Trace);
    model.map(Entry::Model).chain(traces).collect()
}

/// Run `table`'s rows and report, printing both, then write
/// `BENCH_<bin>.json` under `--json`.
pub fn run_table(table: Table) {
    println!("== {} ==\n", table.title());
    let sink =
        measure_table(table, &Arenas::default(), &mut io::stdout()).expect("write to stdout");
    if std::env::args().any(|a| a == "--json") {
        let path = format!("BENCH_{}.json", table.bin());
        std::fs::write(&path, sink.json())
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Measure `table`'s rows in list order on `arenas`, writing the column
/// header and each row to `out` as it is recorded, then write the table's
/// report, whose assertions hold the rows to the claims it prints.
pub fn measure_table(table: Table, arenas: &Arenas, out: &mut impl Write) -> io::Result<BenchSink> {
    let mut sink = BenchSink::new(table.bin());
    header(out)?;
    for entry in entries(arenas) {
        match entry {
            Entry::Model(row) if row.table == table => {
                let row = row.measure();
                print_row(out, &row)?;
                sink.record(row);
            }
            _ => {}
        }
    }
    writeln!(out)?;
    table.report(arenas, &sink.rows, out)?;
    Ok(sink)
}

/// Run every trace row and write the PASS/FAIL matrix to `out`; true when
/// all pass.
pub fn check_traces(out: &mut impl Write) -> io::Result<bool> {
    let arenas = Arenas::default();
    writeln!(
        out,
        "== E3: trace-equality checks (Definition 1, fixed coins) ==\n"
    )?;
    let mut all_ok = true;
    for entry in entries(&arenas) {
        if let Entry::Trace(row) = entry {
            all_ok &= row.check(out)?;
        }
    }
    match all_ok {
        true => writeln!(out, "\nall oblivious routines passed trace equality")?,
        false => writeln!(out, "\nFAILURES detected")?,
    }
    Ok(all_ok)
}

/// One measured model row, as printed and as serialised.
#[derive(Clone, Debug)]
pub struct Row {
    pub task: &'static str,
    pub algo: &'static str,
    pub n: usize,
    pub rep: CostReport,
    /// Fresh allocations of the watched arena during the run.
    pub allocs: u64,
}

/// The measured rows `(task, algo)`, in list order.
fn series<'r>(rows: &'r [Row], task: &str, algo: &str) -> Vec<&'r Row> {
    rows.iter()
        .filter(|r| (r.task, r.algo) == (task, algo))
        .collect()
}

/// The measured row `(task, algo)` at its largest `n`.
fn largest<'r>(rows: &'r [Row], task: &str, algo: &str) -> &'r Row {
    series(rows, task, algo)
        .into_iter()
        .max_by_key(|r| r.n)
        .unwrap_or_else(|| panic!("no measured row {task} / {algo}"))
}

/// The optimal sorting cache bound `(n/B)·log_M n` at the row's geometry,
/// with `log_M n` and the bound each at least 1.
fn q_sort_bound(n: usize, rep: &CostReport) -> f64 {
    let log_m = (crate::lg(n) / (rep.m_words.max(2) as f64).log2()).max(1.0);
    ((n as f64 / rep.b_words as f64) * log_m).max(1.0)
}

fn header(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<10} {:<28} {:>9} {:>14} {:>10} {:>12} {:>9} {:>9} {:>9}",
        "task", "algorithm", "n", "work", "span", "Q(M,B)", "W/nlogn", "T/log^2", "Q/Qsort"
    )?;
    writeln!(out, "{}", "-".repeat(118))
}

/// The one printer: the row's counters and the three normalised columns.
fn print_row(out: &mut impl Write, r: &Row) -> io::Result<()> {
    let lg = crate::lg(r.n);
    let n = r.n.max(2) as f64;
    writeln!(
        out,
        "{:<10} {:<28} {:>9} {:>14} {:>10} {:>12} {:>9.2} {:>9.1} {:>9.2}",
        r.task,
        r.algo,
        r.n,
        r.rep.work,
        r.rep.span,
        r.rep.cache_misses,
        r.rep.work as f64 / (n * lg),
        r.rep.span as f64 / (lg * lg),
        r.rep.cache_misses as f64 / q_sort_bound(r.n, &r.rep),
    )
}

/// Collects one table's measured rows and serialises them as its
/// machine-readable `BENCH_<bin>.json`, the file `benches/baseline/` holds.
pub struct BenchSink {
    bin: &'static str,
    rows: Vec<Row>,
}

impl BenchSink {
    /// An empty sink for `bin`'s rows.
    pub fn new(bin: &'static str) -> Self {
        BenchSink {
            bin,
            rows: Vec::new(),
        }
    }

    /// Retain the row for the JSON artifact. `(task, algo, n)` is what
    /// `diff::diff_benches` keys a row by, so a second row under one
    /// identity could only shadow the first.
    pub fn record(&mut self, row: Row) {
        assert!(
            !self
                .rows
                .iter()
                .any(|r| (r.task, r.algo, r.n) == (row.task, row.algo, row.n)),
            "duplicate bench row: {} / {} / n={}",
            row.task,
            row.algo,
            row.n,
        );
        self.rows.push(row);
    }

    /// The text of `BENCH_<bin>.json`. Hand-rolled serialization: every
    /// field is numeric or a plain string, and the container has no serde.
    pub fn json(&self) -> String {
        let mut out = format!("{{\n  \"bin\": \"{}\",\n  \"rows\": [\n", self.bin);
        for (i, r) in self.rows.iter().enumerate() {
            // The registry test's parser (`diff::parse_bench_json`) reads
            // plain quoted strings; keep names free of escape sequences so
            // `{:?}` serialization stays a verbatim quote.
            assert!(
                !r.task.contains(['"', '\\']) && !r.algo.contains(['"', '\\']),
                "bench row names must not contain quotes or backslashes: {:?}/{:?}",
                r.task,
                r.algo,
            );
            let (c, sep) = (&r.rep, if i + 1 == self.rows.len() { "" } else { "," });
            let counters = [
                ("work", c.work),
                ("span", c.span),
                ("cache_misses", c.cache_misses),
                ("cache_accesses", c.cache_accesses),
                ("comparisons", c.comparisons),
                ("moves", c.moves),
                ("retries", c.retries),
                ("allocs", r.allocs),
                ("m_words", c.m_words),
                ("b_words", c.b_words),
            ];
            let counters: String = counters.map(|(k, v)| format!(", \"{k}\": {v}")).concat();
            let (task, algo, n) = (r.task, r.algo, r.n);
            let id = format!("\"task\": {task:?}, \"algo\": {algo:?}, \"n\": {n}");
            out.push_str(&format!("    {{{id}{counters}}}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// `n` deterministic, well-spread keys (Fibonacci hashing, top 47 bits).
fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 17)
        .collect()
}

/// A `u64` as its sort key.
fn key64(x: &u64) -> u128 {
    *x as u128
}

/// Unwrap a durable-store result or exit with its typed diagnosis: a run on
/// a broken disk should fail loudly, not measure or compare garbage.
fn or_die<T>(r: Result<T, ::store::StoreError>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

/// The record side of a cells-versus-slots row: `n` records, `(key, v) =
/// record(i)` at `i`, Slot-wrapped under the composite key `key ‖ i` and
/// sorted through the BitonicRec schedule — the way every sort site carried
/// records before the packed-cell path.
fn slot_sort<V: Val>(
    c: &MeterCtx,
    scratch: &ScratchPool,
    n: usize,
    record: impl Fn(u64) -> (u64, V),
) {
    let mut slots = scratch.lease(n, Slot::<V>::filler());
    for (i, slot) in (0..).zip(slots.iter_mut()) {
        let (key, v) = record(i);
        *slot = Slot::keyed(Item::new(composite_key(key, i), v));
    }
    Engine::BitonicRec.sort_slots(c, scratch, &mut metrics::Tracked::new(c, &mut slots));
}
