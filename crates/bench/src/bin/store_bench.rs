//! `dob-store` complexity sweep: the model costs of whole epochs per path
//! and size class, of the kernels they are built from, of recovery and of
//! the retry machinery. The rows are `Table::Store` in `dob_bench::rows`;
//! `--json` writes `BENCH_store.json`, with the scratch-arena
//! fresh-allocation delta of every epoch row.

fn main() {
    dob_bench::rows::run_table(dob_bench::rows::Table::Store);
}
