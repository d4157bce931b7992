//! Regenerates **Figure 1**: the bitonic sorting network for n = 16,
//! drawn layer by layer, plus machine-checked structural properties
//! (depth 10 = 1+2+3+4 merge layers, 8 comparators per layer, and the
//! 0-1-principle certificate that it sorts).
//!
//! With `--json`, also writes `BENCH_figure1.json` rows for the CI
//! regression gate: the figure's network executed through the metering
//! executor, so its comparator count (and the rest of the deterministic
//! cost profile) is pinned by `bench_diff` — the figure cannot silently
//! drift from the implementation.

use dob_bench::{header, meter, BenchSink, Row};
use metrics::Tracked;
use sortnet::{bitonic_sort_flat_par, oddeven_sort, sort_slice_rec, Network};

fn key64(x: &u64) -> u128 {
    *x as u128
}

fn scrambled16() -> Vec<u64> {
    (0..16u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 17)
        .collect()
}

fn main() {
    let mut sink = BenchSink::from_args("figure1");
    let net = Network::bitonic(16);
    println!("== Figure 1: bitonic sorting network, n = 16 ==\n");
    println!("{}", net.render_ascii());
    println!("wires:        {}", net.n);
    println!(
        "layers:       {} (= 1 + 2 + 3 + 4 bitonic-merge stages)",
        net.depth()
    );
    println!("comparators:  {} (= n/2 per layer)", net.size());
    println!(
        "sorting net:  {} (exhaustive 0-1 principle over 2^16 inputs)",
        if net.is_sorting_network() {
            "verified"
        } else {
            "FAILED"
        }
    );

    let oe = Network::oddeven(16);
    println!("\nfor contrast, Batcher odd-even mergesort on 16 wires:");
    println!("layers:       {}", oe.depth());
    println!("comparators:  {}", oe.size());
    println!(
        "sorting net:  {}",
        if oe.is_sorting_network() {
            "verified"
        } else {
            "FAILED"
        }
    );

    // The figure's networks, executed: deterministic metered rows tying
    // the drawing to the code paths that actually run it. The bitonic
    // rows must spend exactly `net.size()` comparisons; the odd-even row
    // exactly `oe.size()` — asserted here and gated in CI.
    println!("\n== metered executions of the figure's networks (n = 16) ==\n");
    header();
    let rep = meter(|c| {
        let mut v = scrambled16();
        sort_slice_rec(c, &mut v, &key64, true);
    });
    assert_eq!(rep.comparisons as usize, net.size(), "fig.1 drifted");
    sink.record(Row {
        task: "figure1",
        algo: "bitonic recursive (fig. 1)",
        n: 16,
        rep,
    });
    let rep = meter(|c| {
        let mut v = scrambled16();
        let mut t = Tracked::new(c, &mut v);
        bitonic_sort_flat_par(c, &mut t, &key64, true);
    });
    assert_eq!(rep.comparisons as usize, net.size(), "fig.1 drifted");
    sink.record(Row {
        task: "figure1",
        algo: "bitonic flat (strawman)",
        n: 16,
        rep,
    });
    let rep = meter(|c| {
        let mut v = scrambled16();
        let mut t = Tracked::new(c, &mut v);
        oddeven_sort(c, &mut t, &key64);
    });
    assert_eq!(rep.comparisons as usize, oe.size(), "odd-even drifted");
    sink.record(Row {
        task: "figure1",
        algo: "odd-even merge (contrast)",
        n: 16,
        rep,
    });

    sink.finish().expect("failed to write BENCH_figure1.json");
}
