//! Ablations for the design choices DESIGN.md calls out: `E1` recursive vs
//! flat bitonic (Theorem E.1), `E2` REC-ORBA scaling and overflow (Lemma
//! 3.1, §C.2), `E4` van Emde Boas vs level-order ORAM layout (§4.2), and
//! `E6` the practical vs theory sort variant (§3.4, §E). The rows are
//! `Table::Ablations` in `dob_bench::rows`; `--json` writes
//! `BENCH_ablations.json`, so the separations are pinned, not just printed.

fn main() {
    dob_bench::rows::run_table(dob_bench::rows::Table::Ablations);
}
