//! The §E ablations' rows, and their report: E2's overflow trials, E4's
//! path blocks, and E6's comparisons per `n·log n`.

use super::{key64, scrambled, series, Arenas, ModelRow, Row, Table};
use crate::lg;
use metrics::{CacheConfig, Tracked};
use obliv_core::{
    oblivious_sort_u64, rec_orba, with_retries, Engine, Item, OSortParams, OrbaParams,
};
use pram::{Opram, OramConfig, TreeLayout};
use sortnet::{bitonic_sort_flat_par, sort_slice_rec};

pub(super) fn rows(arenas: &Arenas) -> Vec<ModelRow<'_>> {
    let scratch = &arenas.scratch;
    let t = Table::Ablations;
    let mut rows = Vec::new();

    // E1, Theorem E.1: recursive cache-agnostic bitonic vs naive flat
    // evaluation, under a small cache that stresses Q.
    for n in [1 << 11, 1 << 12, 1 << 13, 1 << 14] {
        let small = CacheConfig::new(1 << 10, 16);
        let rec = t.row("E1", "bitonic recursive (ours)", n, move |c| {
            sort_slice_rec(c, &mut scrambled(n), &key64, true);
        });
        let flat = t.row("E1", "bitonic flat (naive)", n, move |c| {
            let mut v = scrambled(n);
            bitonic_sort_flat_par(c, &mut Tracked::new(c, &mut v), &key64, true);
        });
        rows.extend([rec.cache(small), flat.cache(small)]);
    }

    // E2, Lemma 3.1 / §C.2: REC-ORBA scaling at the paper's parameters.
    for n in [1 << 11, 1 << 12, 1 << 13] {
        rows.push(t.row("E2", "REC-ORBA (paper params)", n, move |c| {
            let p = OrbaParams::for_n(n);
            let items: Vec<Item<u64>> = (0..n as u64).map(|i| Item::new(i as u128, i)).collect();
            let _ = with_retries(64, |a| rec_orba(c, scratch, &items, p, 77 + a as u64));
        }));
    }

    // E4, §4.2: van Emde Boas vs level-order ORAM tree layout, 48 accesses
    // end to end (the layout effect is diluted by eviction and stash scans).
    for s in [1 << 10, 1 << 12] {
        for (algo, layout) in [
            ("opram vEB", TreeLayout::Veb),
            ("opram level", TreeLayout::Level),
        ] {
            let row = t.row("E4", algo, s, move |c| {
                let cfg = OramConfig {
                    layout,
                    ..OramConfig::default()
                };
                let mut o = Opram::new(s, cfg, Engine::BitonicRec, 11);
                for i in 0..48u64 {
                    o.access(c, (i * 37) % s as u64, Some(i));
                }
            });
            rows.push(row.cache(CacheConfig::new(512, 8)));
        }
    }

    // E6, §3.4/§E: practical vs theory variant of the full sort.
    for n in [1 << 10, 1 << 11, 1 << 12] {
        for (algo, params) in [
            ("practical (bitonic+recsort)", OSortParams::practical(n)),
            ("theory (shellsort+merge)", OSortParams::theory(n)),
        ] {
            rows.push(t.row("E6", algo, n, move |c| {
                oblivious_sort_u64(c, scratch, &mut scrambled(n), params, 5);
            }));
        }
    }
    rows
}

pub(super) fn report(arenas: &Arenas, rows: &[Row]) {
    println!("E1: same comparator count; recursive wins on span and on Q (Thm E.1)\n");

    println!("== E2: bin-load concentration and overflow ==\n");
    // Load concentration and overflow frequency at paper vs aggressive Z.
    let n = 1 << 12;
    let items: Vec<Item<u64>> = (0..n as u64).map(|i| Item::new(i as u128, i)).collect();
    let at = |z| OrbaParams {
        z,
        gamma: 8,
        engine: Engine::BitonicRec,
    };
    for (label, p) in [
        ("paper Z=log^2 n", OrbaParams::for_n(n)),
        ("aggressive Z=16", at(16)),
        ("hostile Z=8", at(8)),
    ] {
        let trials = 40;
        let mut overflows = 0;
        let mut max_load = 0usize;
        let c = fj::SeqCtx::new();
        for s in 0..trials {
            match rec_orba(&c, &arenas.scratch, &items, p, 1000 + s) {
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
    println!(
        "(§4.2: vEB paths cost O(log_B s) blocks instead of O(log s); the E4 rows above \
         meter 48 accesses end to end at M=512, B=8 words)\n"
    );

    println!("== E6: practical vs theory variant constants ==\n");
    for algo in ["practical (bitonic+recsort)", "theory (shellsort+merge)"] {
        for r in series(rows, "E6", algo) {
            let cmp_per = r.rep.comparisons as f64 / (r.n as f64 * lg(r.n));
            println!(
                "{algo:<28} n={:<6} comparisons / (n log n) = {cmp_per:.2}",
                r.n
            );
        }
    }
    println!("(the practical variant trades a log log n work factor for small constants — §3.4)");
}
