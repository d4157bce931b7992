//! Ablations for the design choices DESIGN.md calls out:
//!
//! * `E1` — Theorem E.1: recursive cache-agnostic bitonic vs naive flat
//!   evaluation (span and cache separations);
//! * `E2` — Lemma 3.1 / §C.2: REC-ORBA scaling, bin-load concentration and
//!   empirical overflow rates at aggressive parameters;
//! * `E4` — §4.2: van Emde Boas vs level-order ORAM tree layout;
//! * `E6` — §3.4/§E: practical vs theory sorting variant constants
//!   (comparisons per n·log n).
//!
//! With `--json`, writes the deterministic E1/E2/E6 rows to
//! `BENCH_ablations.json` for the CI regression gate (`bench_diff`), so
//! the separations the ablations demonstrate are pinned, not just
//! printed.

use dob_bench::{header, lg, meter, meter_with, sweep_from_args, BenchSink, Row};
use metrics::{CacheConfig, Tracked};
use obliv_core::{
    oblivious_sort_u64, rec_orba, with_retries, Engine, Item, OSortParams, OrbaParams, ScratchPool,
};
use pram::{Opram, OramConfig, TreeLayout};
use sortnet::{bitonic_sort_flat_par, sort_slice_rec};

fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 17)
        .collect()
}

fn key64(x: &u64) -> u128 {
    *x as u128
}

fn main() {
    let scratch = ScratchPool::new();
    let mut sink = BenchSink::from_args("ablations");
    println!("== E1: Theorem E.1 — recursive vs flat bitonic ==\n");
    header();
    for n in sweep_from_args(&[1 << 11, 1 << 12, 1 << 13, 1 << 14]) {
        let cfg = CacheConfig::new(1 << 10, 16); // small cache stresses Q
        let rep = meter_with(cfg, |c| {
            let mut v = scrambled(n);
            sort_slice_rec(c, &mut v, &key64, true);
        });
        sink.record(Row {
            task: "E1",
            algo: "bitonic recursive (ours)",
            n,
            rep,
        });
        let rep = meter_with(cfg, |c| {
            let mut v = scrambled(n);
            let mut t = Tracked::new(c, &mut v);
            bitonic_sort_flat_par(c, &mut t, &key64, true);
        });
        sink.record(Row {
            task: "E1",
            algo: "bitonic flat (naive)",
            n,
            rep,
        });
    }
    println!("(same comparator count; recursive wins on span and on Q — Thm E.1)\n");

    println!("== E2: REC-ORBA scaling, loads, and overflow ==\n");
    header();
    for n in sweep_from_args(&[1 << 11, 1 << 12, 1 << 13]) {
        let p = OrbaParams::for_n(n);
        let items: Vec<Item<u64>> = (0..n as u64).map(|i| Item::new(i as u128, i)).collect();
        let rep = meter(|c| {
            let _ = with_retries(64, |a| rec_orba(c, &scratch, &items, p, 77 + a as u64));
        });
        sink.record(Row {
            task: "E2",
            algo: "REC-ORBA (paper params)",
            n,
            rep,
        });
    }
    // Load concentration & overflow frequency at paper vs aggressive Z.
    let n = 1 << 12;
    let items: Vec<Item<u64>> = (0..n as u64).map(|i| Item::new(i as u128, i)).collect();
    for (label, z) in [
        ("paper Z=log^2 n", 0usize),
        ("aggressive Z=16", 16),
        ("hostile Z=8", 8),
    ] {
        let p = if z == 0 {
            OrbaParams::for_n(n)
        } else {
            OrbaParams {
                z,
                gamma: 8,
                engine: Engine::BitonicRec,
            }
        };
        let trials = 40;
        let mut overflows = 0;
        let mut max_load = 0usize;
        let c = fj::SeqCtx::new();
        for s in 0..trials {
            match rec_orba(&c, &scratch, &items, p, 1000 + s) {
                Ok(layout) => {
                    max_load = max_load.max(*layout.loads().iter().max().unwrap());
                }
                Err(_) => overflows += 1,
            }
        }
        println!(
            "ORBA n={n} {label:<18} Z={:<4} overflow {}/{} trials, max bin load {} (cap {})",
            p.z, overflows, trials, max_load, p.z
        );
    }
    println!("(§C.2: overflow probability falls off steeply in Z — negligible at Z = log² n)\n");

    println!("== E4: van Emde Boas vs level-order ORAM layout ==\n");
    // Pure layout effect first: blocks touched by a root-to-leaf path.
    println!("root-to-leaf path, blocks touched (B = 8 tree nodes/block):");
    for h in [12usize, 16, 20] {
        let leaves = 1usize << (h - 1);
        let sample: Vec<usize> = (0..64).map(|i| i * (leaves / 64)).collect();
        let avg = |layout| {
            sample
                .iter()
                .map(|&l| pram::path_blocks(layout, h, l, 8))
                .sum::<usize>() as f64
                / sample.len() as f64
        };
        println!(
            "  height {h:>2}: vEB {:>5.1} vs level-order {:>5.1}  (log_B n = {:.1}, log n = {})",
            avg(TreeLayout::Veb),
            avg(TreeLayout::Level),
            h as f64 / 3.0,
            h
        );
    }
    println!("\nend-to-end OPRAM miss counts (effect diluted by eviction/stash scans):");
    for s in sweep_from_args(&[1 << 10, 1 << 12]) {
        for (algo, layout) in [
            ("opram vEB", TreeLayout::Veb),
            ("opram level", TreeLayout::Level),
        ] {
            let rep = meter_with(CacheConfig::new(512, 8), |c| {
                let cfg = OramConfig {
                    layout,
                    ..OramConfig::default()
                };
                let mut o = Opram::new(s, cfg, Engine::BitonicRec, 11);
                for i in 0..48u64 {
                    o.access(c, (i * 37) % s as u64, Some(i));
                }
            });
            println!(
                "{algo:<11} s={s:<6} Q={:<8} (48 accesses, M=512,B=8 words)",
                rep.cache_misses
            );
            sink.rows_push_quiet("E4", algo, s, rep);
        }
    }
    println!("(§4.2: vEB paths cost O(log_B s) blocks instead of O(log s))\n");

    println!("== E6: practical vs theory variant constants ==\n");
    header();
    for n in sweep_from_args(&[1 << 10, 1 << 11, 1 << 12]) {
        for (algo, params) in [
            ("practical (bitonic+recsort)", OSortParams::practical(n)),
            ("theory (shellsort+merge)", OSortParams::theory(n)),
        ] {
            let rep = meter(|c| {
                let mut v = scrambled(n);
                oblivious_sort_u64(c, &scratch, &mut v, params, 5);
            });
            let cmp_per = rep.comparisons as f64 / (n as f64 * lg(n));
            sink.record(Row {
                task: "E6",
                algo,
                n,
                rep,
            });
            println!("    -> comparisons / (n log n) = {cmp_per:.2}");
        }
    }
    println!("(the practical variant trades a log log n work factor for small constants — §3.4)");
    sink.finish().expect("failed to write BENCH_ablations.json");
}
