//! Regenerates **Table 2**: the oblivious building blocks — aggregation,
//! propagation, send-receive, and one simulated PRAM step — comparing our
//! binary fork-join constructions against the "prior best" (the best
//! oblivious PRAM algorithm with every PRAM step forked naively), plus the
//! large-space PRAM crossover. The rows are `Table::Table2` in
//! `dob_bench::rows`; `--json` writes `BENCH_table2.json`.

fn main() {
    dob_bench::rows::run_table(dob_bench::rows::Table::Table2);
}
