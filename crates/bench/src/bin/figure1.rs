//! Regenerates **Figure 1**: the bitonic sorting network for n = 16, drawn
//! layer by layer with its machine-checked structure, and the figure's
//! networks executed through the metering executor (`Table::Figure1` in
//! `dob_bench::rows`), so `--json` pins their comparator counts in
//! `BENCH_figure1.json` and the figure cannot drift from the code.

fn main() {
    dob_bench::rows::run_table(dob_bench::rows::Table::Figure1);
}
