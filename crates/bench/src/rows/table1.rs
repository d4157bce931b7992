//! Table 1's rows, and its report: the headlines of its two sort
//! ablations and the growth exponents of the sort and list-ranking work.

use super::{largest, scrambled, series, slot_sort, Arenas, ModelRow, Row, Table};
use crate::{growth_exponent, lg};
use graphs::{
    connected_components, connected_components_insecure, contract_eval, list_rank_insecure_unit,
    list_rank_oblivious_unit, msf, random_expr_tree, random_list, random_tree,
    random_weighted_graph, rooted_tree_stats,
};
use metrics::Tracked;
use obliv_core::{
    composite_key, oblivious_sort_kv, oblivious_sort_u64, rec_sort_items, with_retries, Engine,
    Item, OSortParams,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sortnet::{cells_sort_rec_with, Backend, TagCell};
use std::io::{self, Write};

/// `(key, index)` records over [`scrambled`] keys.
fn records(n: usize) -> Vec<(u64, u64)> {
    (0..).zip(scrambled(n)).map(|(i, k)| (k, i)).collect()
}

pub(super) fn rows(arenas: &Arenas) -> Vec<ModelRow<'_>> {
    let scratch = &arenas.scratch;
    let t = Table::Table1;
    let mut rows = Vec::new();

    for n in [1 << 10, 1 << 11, 1 << 12, 1 << 13] {
        rows.push(t.row("sort", "ours: oblivious practical", n, move |c| {
            let mut v = scrambled(n);
            oblivious_sort_u64(c, scratch, &mut v, OSortParams::practical(n), 42);
        }));
        // Insecure baseline: REC-SORT after a (free) random shuffle, the
        // SPMS substitute of DESIGN.md §4.
        rows.push(t.row("sort", "insecure: rec-sort", n, move |c| {
            let mut items: Vec<Item<u64>> = (0..)
                .zip(scrambled(n))
                .map(|(i, k)| Item::new(composite_key(k, i), k))
                .collect();
            items.shuffle(&mut StdRng::seed_from_u64(1));
            with_retries(16, |a| {
                rec_sort_items(c, scratch, &mut items, Engine::BitonicRec, 16, 5 + a as u64)
            });
        }));
    }

    // Sort ablation, tag-sort vs record-sort: the same (u64 key, u64 val)
    // records through the same BitonicRec comparator schedule, once as
    // packed 32-byte tag cells (`oblivious_sort_kv`, the store's fast path)
    // and once Slot-wrapped the way every sort site carried records before
    // the fast path.
    for n in [1 << 10, 1 << 12, 1 << 14] {
        rows.push(t.row("sort", "ours: tag-sort", n, move |c| {
            oblivious_sort_kv(c, scratch, &mut records(n), Engine::BitonicRec);
        }));
        rows.push(t.row("sort", "ours: record-sort", n, move |c| {
            let keys = scrambled(n);
            slot_sort(c, scratch, n, |i| (keys[i as usize], (keys[i as usize], i)));
        }));
    }

    // Sort ablation, SIMD vs scalar compare-exchange: the same packed cells
    // through the *identical* comparator schedule, trace and counters
    // (accounting replay, DESIGN.md §14); only the compare-exchange ALU
    // width differs. The measured vector win is `benchmark/`'s
    // `sortnet.scalar_over_simd.64k`.
    for n in [1 << 12, 1 << 14, 1 << 16] {
        for (backend, algo) in [
            (Backend::Avx2, "sort: simd cells"),
            (Backend::Scalar, "sort: scalar cells"),
        ] {
            rows.push(t.row("sort", algo, n, move |c| {
                let mut v: Vec<TagCell> = (0..)
                    .zip(scrambled(n))
                    .map(|(i, k)| TagCell::new(((k as u128) << 64) | i, i))
                    .collect();
                let mut lease = scratch.lease(n, TagCell::filler());
                let mut t = Tracked::new(c, &mut v);
                let mut tmp = Tracked::new(c, &mut lease);
                cells_sort_rec_with(backend, c, &mut t, &mut tmp, true);
            }));
        }
    }

    for n in [1 << 10, 1 << 11, 1 << 12] {
        rows.push(t.row("LR", "ours: oblivious", n, move |c| {
            list_rank_oblivious_unit(c, scratch, &random_list(n, n as u64).0, 7);
        }));
        rows.push(t.row("LR", "insecure: pointer jumping", n, move |c| {
            list_rank_insecure_unit(c, scratch, &random_list(n, n as u64).0);
        }));
    }

    for n in [1 << 8, 1 << 9, 1 << 10] {
        rows.push(t.row("ET-Tree", "ours: oblivious", n, move |c| {
            let edges = random_tree(n, 3);
            rooted_tree_stats(c, scratch, n, &edges, 0, Engine::BitonicRec, 5);
        }));
        // The insecure bound is dominated by list ranking the tour.
        rows.push(t.row("ET-Tree", "insecure: LR on tour", n, move |c| {
            list_rank_insecure_unit(c, scratch, &random_list(2 * (n - 1), 4).0);
        }));
    }

    // A random expression tree over `leaves` leaves has `2·leaves − 1`
    // nodes. The baseline is the same contraction driven by the naive flat
    // network (the per-PRAM-step forking strawman).
    for leaves in [1 << 6, 1 << 7, 1 << 8] {
        for (algo, engine) in [
            ("ours: oblivious shunt", Engine::BitonicRec),
            ("naive: flat-network shunt", Engine::BitonicFlat),
        ] {
            rows.push(t.row("TC", algo, 2 * leaves - 1, move |c| {
                let tree = random_expr_tree(leaves, 5);
                assert_eq!(tree.nodes.len(), 2 * leaves - 1);
                contract_eval(c, scratch, &tree, engine, 11);
            }));
        }
    }

    // CC and MSF rows are keyed by the edge count `m = 2n`.
    for n in [1 << 7, 1 << 8, 1 << 9] {
        rows.push(t.row("CC", "ours: oblivious SV-style", 2 * n, move |c| {
            let edges = graphs::random_graph(n, 2 * n, 9);
            connected_components(c, scratch, n, &edges, Engine::BitonicRec);
        }));
        rows.push(t.row("CC", "insecure: direct SV-style", 2 * n, move |c| {
            connected_components_insecure(c, n, &graphs::random_graph(n, 2 * n, 9));
        }));
    }

    for n in [1 << 6, 1 << 7, 1 << 8] {
        rows.push(t.row("MSF", "ours: oblivious Boruvka", 2 * n, move |c| {
            let edges = random_weighted_graph(n, 2 * n, 13);
            msf(c, scratch, n, &edges, Engine::BitonicRec);
        }));
    }
    rows
}

pub(super) fn report(rows: &[Row], out: &mut impl Write) -> io::Result<()> {
    let tag = &largest(rows, "sort", "ours: tag-sort").rep;
    let rec = &largest(rows, "sort", "ours: record-sort").rep;
    writeln!(
        out,
        "tag-sort vs record-sort headline (largest n): {:.2}x cache misses, \
         same {} comparators",
        rec.cache_misses as f64 / tag.cache_misses.max(1) as f64,
        tag.comparisons,
    )?;

    let simd = &largest(rows, "sort", "sort: simd cells").rep;
    let scalar = &largest(rows, "sort", "sort: scalar cells").rep;
    assert_eq!(
        (simd.work, simd.comparisons, simd.trace_len),
        (scalar.work, scalar.comparisons, scalar.trace_len),
        "SIMD and scalar backends must share every deterministic counter"
    );
    writeln!(
        out,
        "simd vs scalar cells headline (largest n): identical work, trace and {} comparators \
         (backend: {})",
        simd.comparisons,
        sortnet::active_backend().name(),
    )?;

    writeln!(
        out,
        "\n== growth exponents (expect ≈1 for W = Θ(n·polylog)) =="
    )?;
    for (name, task, algo) in [
        ("sort work", "sort", "ours: oblivious practical"),
        ("LR work", "LR", "ours: oblivious"),
    ] {
        let pts: Vec<(usize, f64)> = series(rows, task, algo)
            .iter()
            .map(|r| (r.n, r.rep.work as f64))
            .collect();
        let norm: Vec<(usize, f64)> = pts
            .iter()
            .map(|&(n, w)| (n, w / (n as f64 * lg(n))))
            .collect();
        writeln!(
            out,
            "{name}: raw {:+.2}, normalized by n·log n {:+.2} (≈0 ⇒ matches n·log n up to log-factors)",
            growth_exponent(&pts),
            growth_exponent(&norm)
        )?;
    }
    Ok(())
}
