//! Table 2's rows, and its report: the large-space PRAM crossover table.

use super::{series, Arenas, ModelRow, Row, Table};
use metrics::Tracked;
use obliv_core::scan::Schedule::{Levels, Tree};
use obliv_core::scan::{seg_propagate_in, seg_sum_right_in, Seg};
use obliv_core::send_receive;
use obliv_core::Engine::{BitonicFlat, BitonicRec};
use pram::{run_oblivious_sb, HistogramProgram, Opram, OramConfig};

/// Requests per step of the large-space crossover rows.
const XOVER_P: usize = 32;

pub(super) fn rows(arenas: &Arenas) -> Vec<ModelRow<'_>> {
    let scratch = &arenas.scratch;
    let t = Table::Table2;
    let mut rows = Vec::new();
    let schedules = [
        ("ours: tree schedule", Tree),
        ("prior: level-by-level", Levels),
    ];

    // Aggregation: segmented suffix sums.
    for n in [1 << 12, 1 << 14, 1 << 16] {
        for (algo, sched) in schedules {
            rows.push(t.row("Aggr", algo, n, move |c| {
                let mut v: Vec<Seg<u64>> = (0..n)
                    .map(|i| Seg::new(i % 8 == 7, (i % 5) as u64))
                    .collect();
                seg_sum_right_in(c, scratch, &mut Tracked::new(c, &mut v), sched);
            }));
        }
    }

    for n in [1 << 12, 1 << 14, 1 << 16] {
        for (algo, sched) in schedules {
            rows.push(t.row("Prop", algo, n, move |c| {
                let mut v: Vec<Seg<u64>> = (0..n).map(|i| Seg::new(i % 8 == 0, i as u64)).collect();
                seg_propagate_in(c, scratch, &mut Tracked::new(c, &mut v), sched);
            }));
        }
    }

    // Send-receive of n sources to n destinations: 2n records.
    for n in [1 << 9, 1 << 10, 1 << 11] {
        for (algo, engine, sched) in [
            ("ours: cache-agnostic nets", BitonicRec, Tree),
            ("prior: flat nets + forks", BitonicFlat, Levels),
        ] {
            rows.push(t.row("S-R", algo, 2 * n, move |c| {
                let sources: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
                let dests: Vec<u64> = (0..n as u64).map(|j| (j * 7) % (3 * n as u64)).collect();
                send_receive(c, scratch, &sources, &dests, engine, sched);
            }));
        }
    }

    // One PRAM step, space-bounded (Thm 4.1): p = s, one step of a
    // concurrent-write histogram (value-dependent write addresses, the
    // adversarial case).
    for p in [1 << 6, 1 << 7, 1 << 8] {
        for (algo, engine) in [
            ("ours: Thm 4.1 (s≈p)", BitonicRec),
            ("prior: flat networks", BitonicFlat),
        ] {
            rows.push(t.row("PRAM", algo, p, move |c| {
                let vals: Vec<u64> = (0..p as u64).map(|i| i % 16).collect();
                let prog = HistogramProgram::new(p, 16);
                run_oblivious_sb(c, scratch, &prog, &vals, engine);
            }));
        }
    }

    // Large-space regime (Thm 4.2): fixed p, growing s. The tree-ORAM
    // simulation's per-batch cost must grow polylog(s) while the
    // space-bounded simulation pays Θ(s log s) per step.
    let p = XOVER_P as u64;
    for s in [1 << 7, 1 << 9, 1 << 11] {
        // One read step of p processors against s cells via Thm 4.1.
        rows.push(t.row("PRAM-xover", "space-bounded", s, move |c| {
            let sources: Vec<(u64, u64)> = (0..s as u64).map(|i| (i, i * 2)).collect();
            let dests: Vec<u64> = (0..p).map(|i| (i * 37) % s as u64).collect();
            send_receive(c, scratch, &sources, &dests, BitonicRec, Tree);
        }));
        // The same batch through the recursive tree ORAM.
        rows.push(t.row("PRAM-xover", "opram", s, move |c| {
            let mut o = Opram::new(s, OramConfig::default(), BitonicRec, 7);
            let reqs: Vec<(u64, Option<u64>)> =
                (0..p).map(|i| ((i * 37) % s as u64, None)).collect();
            o.access_batch(c, &reqs);
        }));
    }
    rows
}

pub(super) fn report(rows: &[Row]) {
    println!("== PRAM large-space crossover (fixed p = {XOVER_P} requests/step) ==");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>10}",
        "s", "p", "W sb/step", "W opram/step", "winner"
    );
    let sb = series(rows, "PRAM-xover", "space-bounded");
    let op = series(rows, "PRAM-xover", "opram");
    for (sb, op) in sb.iter().zip(&op) {
        let (sb, op, s) = (sb.rep.work, op.rep.work, sb.n);
        let winner = if op < sb { "opram" } else { "space-bounded" };
        println!("{s:<10} {XOVER_P:>9} {sb:>14} {op:>14} {winner:>10}");
    }
    println!("\n(expected: space-bounded wins at small s, opram wins once s ≫ p —");
    println!(" the Table 2 'PRAM' rows' two regimes; opram setup cost excluded in paper,");
    println!(" included here, shifting the crossover right)");
}
