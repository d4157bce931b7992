//! Regenerates **Table 1**: work / span / cache complexity of our
//! data-oblivious algorithms for Sort, LR, ET-Tree, TC, CC and MSF, each
//! beside the baseline it has, if any:
//!
//! * Sort: an insecure REC-SORT after a free random shuffle (the SPMS
//!   substitute of DESIGN.md §4), plus two ablations of our own sort —
//!   packed tag cells vs Slot-wrapped records, SIMD vs scalar
//!   compare-exchange;
//! * LR: insecure pointer jumping;
//! * ET-Tree: insecure list ranking of the tour, the term that dominates
//!   the insecure bound;
//! * TC: no insecure baseline; the same oblivious shunt driven by the flat
//!   network (the naive-schedule strawman) stands beside it;
//! * CC: an insecure SV-style run that charges `work(n + m)` per round on
//!   plain `Vec`s, so its row is unmetered (work = span, `Q` = 0) and its
//!   ratios to ours are not measurements (ROADMAP item 15);
//! * MSF: no baseline row.
//!
//! Absolute constants differ from the paper's testbed (our substrate is a
//! cost-model simulator and the AKS/SPMS substitutions of DESIGN.md §4
//! apply); the reproduction target is the *shape*: matching work and cache
//! columns between the oblivious algorithm and its baseline, and the span
//! separations Table 1 claims. The rows are `Table::Table1` in
//! `dob_bench::rows`; `--json` writes `BENCH_table1.json`.

fn main() {
    dob_bench::rows::run_table(dob_bench::rows::Table::Table1);
}
