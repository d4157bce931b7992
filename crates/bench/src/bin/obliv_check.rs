//! `E3`: Definition 1 spot-checks. Runs every trace row of
//! `dob_bench::rows` and prints a PASS/FAIL matrix with the value each
//! row's inputs were compared on (`benches/baseline/obliv_check.txt` holds
//! the expected output); exits non-zero on any FAIL.

fn main() {
    let all_pass = dob_bench::rows::check_traces(&mut std::io::stdout()).expect("write to stdout");
    std::process::exit(if all_pass { 0 } else { 1 });
}
