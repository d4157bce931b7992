//! Regenerates **Table 2**: the oblivious building blocks — aggregation,
//! propagation, send-receive, and one simulated PRAM step — comparing our
//! binary fork-join constructions against the "prior best" (the best
//! oblivious PRAM algorithm with every PRAM step forked naively).
//!
//! Expected shapes per the table:
//! * Aggr/Prop: same `O(n)` work, span `O(log n)` (ours) vs `O(log² n)`;
//! * S-R: sorting-bound work and cache (ours) vs flat-network evaluation;
//! * PRAM: per-step `O(sort(s))` via the space-bounded simulation, and the
//!   `p log² s` OPRAM alternative that wins once `s ≫ p` (crossover).

use dob_bench::{header, meter, sweep_from_args, BenchSink, Row};
use metrics::{ScratchPool, Tracked};
use obliv_core::scan::{seg_propagate_in, seg_sum_right_in, Schedule, Seg};
use obliv_core::{send_receive, Engine};
use pram::{run_oblivious_sb, HistogramProgram, Opram, OramConfig};

fn main() {
    let scratch = ScratchPool::new();
    let mut sink = BenchSink::from_args("table2");
    println!("== Table 2: oblivious building blocks, ours vs naive-forked prior best ==\n");
    header();

    // ---- Aggregation (segmented suffix sums) -----------------------------
    for n in sweep_from_args(&[1 << 12, 1 << 14, 1 << 16]) {
        for (algo, sched) in [
            ("ours: tree schedule", Schedule::Tree),
            ("prior: level-by-level", Schedule::Levels),
        ] {
            let rep = meter(|c| {
                let mut v: Vec<Seg<u64>> = (0..n)
                    .map(|i| Seg::new(i % 8 == 7, (i % 5) as u64))
                    .collect();
                let mut t = Tracked::new(c, &mut v);
                seg_sum_right_in(c, &scratch, &mut t, sched);
            });
            sink.record(Row {
                task: "Aggr",
                algo,
                n,
                rep,
            });
        }
    }

    // ---- Propagation ------------------------------------------------------
    for n in sweep_from_args(&[1 << 12, 1 << 14, 1 << 16]) {
        for (algo, sched) in [
            ("ours: tree schedule", Schedule::Tree),
            ("prior: level-by-level", Schedule::Levels),
        ] {
            let rep = meter(|c| {
                let mut v: Vec<Seg<u64>> = (0..n).map(|i| Seg::new(i % 8 == 0, i as u64)).collect();
                let mut t = Tracked::new(c, &mut v);
                seg_propagate_in(c, &scratch, &mut t, sched);
            });
            sink.record(Row {
                task: "Prop",
                algo,
                n,
                rep,
            });
        }
    }

    // ---- Send-receive -----------------------------------------------------
    for n in sweep_from_args(&[1 << 9, 1 << 10, 1 << 11]) {
        let sources: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
        let dests: Vec<u64> = (0..n as u64).map(|j| (j * 7) % (3 * n as u64)).collect();
        for (algo, engine, sched) in [
            (
                "ours: cache-agnostic nets",
                Engine::BitonicRec,
                Schedule::Tree,
            ),
            (
                "prior: flat nets + forks",
                Engine::BitonicFlat,
                Schedule::Levels,
            ),
        ] {
            let rep = meter(|c| {
                send_receive(c, &scratch, &sources, &dests, engine, sched);
            });
            sink.record(Row {
                task: "S-R",
                algo,
                n: 2 * n,
                rep,
            });
        }
    }

    // ---- One PRAM step ----------------------------------------------------
    // Space-bounded (Thm 4.1): p = s, one step of a concurrent-write
    // histogram (value-dependent write addresses — the adversarial case).
    for p in sweep_from_args(&[1 << 6, 1 << 7, 1 << 8]) {
        let vals: Vec<u64> = (0..p as u64).map(|i| i % 16).collect();
        let prog = HistogramProgram::new(p, 16);
        for (algo, engine) in [
            ("ours: Thm 4.1 (s≈p)", Engine::BitonicRec),
            ("prior: flat networks", Engine::BitonicFlat),
        ] {
            let rep = meter(|c| {
                run_oblivious_sb(c, &scratch, &prog, &vals, engine);
            });
            sink.record(Row {
                task: "PRAM",
                algo,
                n: p,
                rep,
            });
        }
    }

    // Large-space regime (Thm 4.2): fixed p, growing s — the tree-ORAM
    // simulation's per-batch cost must grow polylog(s) while the
    // space-bounded simulation pays Θ(s log s) per step; report both and
    // find the crossover.
    println!("\n== PRAM large-space crossover (fixed p = 32 requests/step) ==");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>10}",
        "s", "p", "W sb/step", "W opram/step", "winner"
    );
    let p = 32usize;
    for s in sweep_from_args(&[1 << 7, 1 << 9, 1 << 11]) {
        // One read step of p processors against s cells via Thm 4.1.
        let sb = meter(|c| {
            let sources: Vec<(u64, u64)> = (0..s as u64).map(|i| (i, i * 2)).collect();
            let dests: Vec<u64> = (0..p as u64).map(|i| (i * 37) % s as u64).collect();
            send_receive(
                c,
                &scratch,
                &sources,
                &dests,
                Engine::BitonicRec,
                Schedule::Tree,
            );
        });
        // The same batch through the recursive tree ORAM.
        let op = meter(|c| {
            let mut o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 7);
            let reqs: Vec<(u64, Option<u64>)> =
                (0..p as u64).map(|i| ((i * 37) % s as u64, None)).collect();
            o.access_batch(c, &reqs);
        });
        sink.rows_push_quiet("PRAM-xover", "space-bounded", s, sb);
        sink.rows_push_quiet("PRAM-xover", "opram", s, op);
        let winner = if op.work < sb.work {
            "opram"
        } else {
            "space-bounded"
        };
        println!(
            "{:<10} {:>9} {:>14} {:>14} {:>10}",
            s, p, sb.work, op.work, winner
        );
    }
    println!("\n(expected: space-bounded wins at small s, opram wins once s ≫ p —");
    println!(" the Table 2 'PRAM' rows' two regimes; opram setup cost excluded in paper,");
    println!(" included here, shifting the crossover right)");
    sink.finish().expect("failed to write BENCH_table2.json");
}
