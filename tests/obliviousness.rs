//! Integration-level obliviousness assertions (Definition 1): for fixed
//! public coins, the adversary's view must be identical across same-length
//! inputs, end to end through the application stacks.

use dob::prelude::*;
use graphs::random_graph;
use obliv_core::Engine;
use pram::HistogramProgram;

fn trace<F: FnOnce(&MeterCtx)>(f: F) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, f);
    (rep.trace_hash, rep.trace_len)
}

#[test]
fn full_sort_trace_identical_across_distinct_key_inputs() {
    let n = 800usize;
    let run = |keys: Vec<u64>| {
        trace(|c| {
            let mut v = keys.clone();
            oblivious_sort_u64(
                c,
                &ScratchPool::new(),
                &mut v,
                OSortParams::practical(n),
                2024,
            );
        })
    };
    let a = run((0..n as u64).collect());
    let b = run((0..n as u64).rev().collect());
    let c3 = run((0..n as u64).map(|i| i * 5 + 2).collect());
    assert_eq!(a, b);
    assert_eq!(a, c3);
}

#[test]
fn cc_trace_identical_across_topologies() {
    let n = 48;
    let m = 60;
    let run = |edges: Vec<(usize, usize)>| {
        trace(|c| {
            connected_components(c, &ScratchPool::new(), n, &edges, Engine::BitonicRec);
        })
    };
    let a = run(random_graph(n, m, 1));
    let b = run(random_graph(n, m, 2));
    // A path plus padding edges — worst-case diameter, same sizes.
    let mut path: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    path.extend((0..m - (n - 1)).map(|i| (i % n, (i + 2) % n)));
    let p = run(path);
    assert_eq!(a, b);
    assert_eq!(a, p);
}

#[test]
fn pram_histogram_trace_hides_values() {
    let p = 48;
    let run = |vals: Vec<u64>| {
        trace(|c| {
            let prog = HistogramProgram::new(p, 8);
            run_oblivious_sb(c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
        })
    };
    assert_eq!(run(vec![0; p]), run((0..p as u64).map(|i| i % 8).collect()));
}

#[test]
fn orp_trace_hides_values_and_reveals_only_loads() {
    let n = 600usize;
    let run = |vals: Vec<u64>| {
        trace(|c| {
            let items: Vec<obliv_core::Item<u64>> = vals
                .iter()
                .map(|&v| obliv_core::Item::new(v as u128, v))
                .collect();
            let _ =
                obliv_core::orp_once(c, &ScratchPool::new(), &items, OrbaParams::for_n(n), 31337);
        })
    };
    assert_eq!(run(vec![1; n]), run((0..n as u64).collect()));
}

/// The trace of one ORP attempt on `0..n` with parameters `p`.
fn orp_trace(n: usize, p: OrbaParams, seed: u64) -> (u64, u64) {
    trace(|c| {
        let items: Vec<obliv_core::Item<u64>> = (0..n as u64)
            .map(|v| obliv_core::Item::new(v as u128, v))
            .collect();
        let _ = obliv_core::orp_once(c, &ScratchPool::new(), &items, p, seed);
    })
}

#[test]
fn different_seeds_give_different_traces() {
    // Sanity check that the hash actually sees the coins: same input,
    // different seeds => different ORBA routes => different reveals. What
    // ORP reveals is the load of each last-level row, so the shape needs
    // more than one: 128 bins at γ = 4 are 32 rows of 4 bins.
    let n = 600usize;
    let p = OrbaParams {
        z: 16,
        gamma: 4,
        ..OrbaParams::for_n(n)
    };
    assert_ne!(orp_trace(n, p, 1), orp_trace(n, p, 2));
}

#[test]
fn a_single_placement_orp_reveals_nothing_but_n() {
    // At `for_n(600)` the butterfly is one placement (16 bins ≤ γ = 16):
    // its one row holds all n reals, so the removal's reveal is n itself
    // and the trace is the same for every seed.
    let n = 600usize;
    let p = OrbaParams::for_n(n);
    assert_eq!(orp_trace(n, p, 1), orp_trace(n, p, 2));
}
