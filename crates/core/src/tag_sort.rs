//! Tag-sort: oblivious sorting and routing of packed key–value cells.
//!
//! The store's hot paths (and any caller whose records are key–value
//! shaped) do not need the full ORP + REC-SORT pipeline of
//! [`crate::oblivious_sort`]: a comparator network is *unconditionally*
//! oblivious, and once the record is packed into a 32-byte [`TagCell`]
//! (16-byte `key ‖ tiebreak` tag, 16-byte payload lane) the network moves
//! 3× less data per compare-exchange than the `Slot`-wrapped
//! representation. This module is the public face of that fast path:
//!
//! * [`oblivious_sort_kv`] — stable oblivious sort of `(u64 key, u64 val)`
//!   records via one cell network. The tag packs the submission index as a
//!   tiebreak ([`composite_key`]), so equal keys keep their input order
//!   and every comparison is strict.
//! * [`compact_cells`] — stable oblivious tight compaction of a cell
//!   array: all non-filler cells move to the front, in order, through
//!   `log n` fixed-pattern shift levels (`O(n log n)` work, no
//!   comparators) — cheaper than compacting with a sort, and the routing
//!   half of the tag-sort trick: sort the dense tags, then move each wide
//!   lane exactly once.
//!
//! Obliviousness: the cell networks touch a fixed comparator schedule, the
//! compaction reads/writes every position of every level, and the shift
//! amounts live in tracked scratch — for a fixed length the adversary
//! trace is bit-identical across inputs (no distributional argument
//! needed, unlike the post-ORP phases; see `obliv_check`'s tag-sort row).

use crate::engine::Engine;
use crate::scan::{prefix_sum_in, Schedule};
use crate::slot::composite_key;
use fj::{grain_for, par_for, Ctx};
use metrics::{ScratchPool, Tracked};
use sortnet::{select_cell, select_u64, TagCell};

/// Stable, data-oblivious sort of `(key, val)` records ascending by key:
/// one branchless cell network over `(key ‖ index, val)` tags.
///
/// With the comparator-network engines (`BitonicRec`/`BitonicFlat`/
/// `OddEven` — every store configuration) the access pattern is a fixed
/// function of `data.len()` alone: no coins, no retries, and sortedness
/// is guaranteed by the network. `Engine::Shellsort` is the exception it
/// inherits from [`Engine::sort_cells`]: randomized Shellsort draws
/// seeded public coins (trace fixed per `(seed, n)`) and sorts w.h.p.
/// without a retry wrapper — same contract as `Engine::sort_slots`, so
/// don't feed its output to anything that *requires* sorted input (e.g.
/// a bitonic merge) without checking.
///
/// This is the tag-sort fast path the store's merge pipeline is built on;
/// prefer it over [`crate::oblivious_sort`] whenever the payload fits the
/// 16-byte aux lane (the general pipeline remains the asymptotically
/// better choice for wide records and huge `n`).
pub fn oblivious_sort_kv<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut [(u64, u64)],
    engine: Engine,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let m = n.next_power_of_two();
    let mut cells = scratch.lease(m, TagCell::filler());
    let mut t = Tracked::new(c, &mut cells);
    {
        let tr = t.as_raw();
        let input: &[(u64, u64)] = data;
        par_for(c, 0, m, grain_for(c), &|c, i| {
            // `n` is public; every cell is written exactly once.
            let cell = if i < input.len() {
                let (k, v) = input[i];
                TagCell::new(composite_key(k, i as u64), v as u128)
            } else {
                TagCell::filler()
            };
            // SAFETY: disjoint writes per i.
            unsafe { tr.set(c, i, cell) };
        });
    }
    engine.sort_cells(c, scratch, &mut t);
    {
        let tr = t.as_raw();
        let mut out = Tracked::new(c, data);
        let or = out.as_raw();
        par_for(c, 0, n, grain_for(c), &|c, i| unsafe {
            // SAFETY: disjoint per-index reads/writes.
            let cell = tr.get(c, i);
            debug_assert!(!cell.is_filler());
            or.set(c, i, ((cell.tag >> 64) as u64, cell.aux as u64));
        });
    }
}

/// Stable oblivious tight compaction of a power-of-two cell array: every
/// non-filler cell moves to the front, preserving order; the suffix is
/// canonical fillers. Fixed access pattern (a prefix sum plus `log n`
/// full-array shift levels), `O(n log n)` work, `O(log n · log n)` span.
///
/// The routing is the classic order-preserving displacement network: cell
/// `i` with rank `r_i` (its index among the non-fillers) must move left by
/// `d_i = i − r_i`; processing the bits of `d` from least to most
/// significant, a level-`k` pass moves each cell left by `2^k` iff bit `k`
/// of its remaining displacement is set. Because `d` is non-decreasing
/// over the non-fillers, no two cells ever collide at any level (the
/// mod-`2^{k+1}` positions stay strictly increasing), so each output
/// position has at most one candidate and both lanes route with branchless
/// selects.
pub fn compact_cells<C: Ctx>(c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, TagCell>) {
    let m = t.len();
    if m <= 1 {
        return;
    }
    assert!(
        m.is_power_of_two(),
        "cell compaction requires power-of-two length, got {m}"
    );

    // Displacements: exclusive prefix count of non-fillers, then d = i - r.
    let mut shift_store = scratch.lease(m, 0u64);
    {
        let mut st = Tracked::new(c, &mut shift_store);
        {
            let sr = st.as_raw();
            let tr = t.as_raw();
            par_for(c, 0, m, grain_for(c), &|c, i| unsafe {
                // SAFETY: disjoint writes; read-only cells.
                let real = !tr.get(c, i).is_filler();
                sr.set(c, i, real as u64);
            });
        }
        prefix_sum_in(c, scratch, &mut st, false, Schedule::Tree);
        {
            let sr = st.as_raw();
            par_for(c, 0, m, grain_for(c), &|c, i| unsafe {
                // SAFETY: each index rewritten once.
                let rank = sr.get(c, i);
                sr.set(c, i, i as u64 - rank);
            });
        }
    }

    // log m shift levels, ping-ponging between the caller's array and a
    // leased double buffer (both lanes ride together with their shifts).
    let mut cell_buf = scratch.lease(m, TagCell::filler());
    let mut shift_buf = scratch.lease(m, 0u64);
    let levels = m.trailing_zeros() as usize;
    {
        let mut cb = Tracked::new(c, &mut cell_buf);
        let mut st = Tracked::new(c, &mut shift_store);
        let mut sb = Tracked::new(c, &mut shift_buf);
        let a = (t.as_raw(), st.as_raw());
        let b = (cb.as_raw(), sb.as_raw());
        for k in 0..levels {
            let ((src, src_s), (dst, dst_s)) = if k % 2 == 0 { (a, b) } else { (b, a) };
            let step = 1usize << k;
            par_for(c, 0, m, grain_for(c), &|c, pos| unsafe {
                // SAFETY: level-synchronous: reads hit only `src`, writes
                // only `dst`, each position written once.
                let here = src.get(c, pos);
                let here_d = src_s.get(c, pos);
                let stays = !here.is_filler() && (here_d >> k) & 1 == 0;
                let (inc, inc_d) = if pos + step < m {
                    (src.get(c, pos + step), src_s.get(c, pos + step))
                } else {
                    (TagCell::filler(), 0)
                };
                c.work(1);
                let arrives = !inc.is_filler() && (inc_d >> k) & 1 == 1;
                debug_assert!(!(stays && arrives), "compaction collision at {pos}");
                // Branchless two-way select: arrival wins, else the stayer,
                // else a canonical filler. Whole cells route through the
                // vectorizable `select_cell`; the shift lane stays a word
                // select.
                let keep = select_cell(stays, TagCell::filler(), here);
                let keep_d = select_u64(stays, 0, here_d);
                dst.set(c, pos, select_cell(arrives, keep, inc));
                dst_s.set(c, pos, select_u64(arrives, keep_d, inc_d));
            });
        }
        // Odd level count: the result lives in the double buffer.
        if levels % 2 == 1 {
            let (src, dst) = (b.0, a.0);
            par_for(c, 0, m, grain_for(c), &|c, i| unsafe {
                // SAFETY: disjoint per-index copy.
                dst.set(c, i, src.get(c, i));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osort::{oblivious_sort, OSortParams};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    #[test]
    fn kv_sort_matches_std_stable_sort() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [0usize, 1, 2, 3, 100, 1000, 4096] {
            let mut data: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E3779B9) % 64, i))
                .collect();
            let mut expect = data.clone();
            expect.sort_by_key(|&(k, _)| k); // stable
            oblivious_sort_kv(&c, &sp, &mut data, Engine::BitonicRec);
            assert_eq!(data, expect, "n = {n}");
        }
    }

    #[test]
    fn kv_sort_under_every_engine() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let input: Vec<(u64, u64)> = (0..500u64).map(|i| (i.wrapping_mul(31) % 97, i)).collect();
        let mut expect = input.clone();
        expect.sort_by_key(|&(k, _)| k);
        for engine in [
            Engine::BitonicRec,
            Engine::BitonicFlat,
            Engine::OddEven,
            Engine::Shellsort { seed: 5 },
        ] {
            let mut data = input.clone();
            oblivious_sort_kv(&c, &sp, &mut data, engine);
            assert_eq!(data, expect, "engine {engine:?}");
        }
    }

    #[test]
    fn kv_sort_trace_is_input_independent() {
        // Unconditional Definition-1 equality: unlike the post-ORP phases
        // of the general sort, the cell network needs no distributional
        // argument — duplicate keys included.
        let n = 1200usize;
        let run = |keys: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut data: Vec<(u64, u64)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, i as u64))
                    .collect();
                oblivious_sort_kv(c, &sp, &mut data, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let z = run(vec![7; n]);
        assert_eq!(a, b);
        assert_eq!(a, z);
    }

    #[test]
    fn kv_sort_parallel_matches() {
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let mut data: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 20, i))
            .collect();
        let mut expect = data.clone();
        expect.sort_by_key(|&(k, _)| k);
        pool.run(|c| oblivious_sort_kv(c, &sp, &mut data, Engine::BitonicRec));
        assert_eq!(data, expect);
    }

    fn compact_oracle(cells: &[TagCell]) -> Vec<TagCell> {
        let mut out: Vec<TagCell> = cells.iter().copied().filter(|x| !x.is_filler()).collect();
        out.resize(cells.len(), TagCell::filler());
        out
    }

    fn run_compact(cells: &mut Vec<TagCell>) {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut t = Tracked::new(&c, cells.as_mut_slice());
        compact_cells(&c, &sp, &mut t);
    }

    #[test]
    fn compact_exhaustive_small_patterns() {
        // Every flag pattern at m = 8: the no-collision displacement
        // argument exercised on all 256 cases.
        for mask in 0u32..256 {
            let mut cells: Vec<TagCell> = (0..8u128)
                .map(|i| {
                    if (mask >> i) & 1 == 1 {
                        TagCell::new(i * 10, i + 100)
                    } else {
                        TagCell::filler()
                    }
                })
                .collect();
            let expect = compact_oracle(&cells);
            run_compact(&mut cells);
            assert_eq!(cells, expect, "mask {mask:08b}");
        }
    }

    #[test]
    fn compact_preserves_order_and_lanes() {
        let mut cells: Vec<TagCell> = (0..1024u128)
            .map(|i| {
                if i % 3 == 0 {
                    TagCell::new(i.wrapping_mul(0x9E37) & (u128::MAX >> 1), i)
                } else {
                    TagCell::filler()
                }
            })
            .collect();
        let expect = compact_oracle(&cells);
        run_compact(&mut cells);
        assert_eq!(cells, expect);
    }

    #[test]
    fn compact_trace_independent_of_flag_positions() {
        let m = 256usize;
        let run = |flags: Vec<bool>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut cells: Vec<TagCell> = flags
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| {
                        if f {
                            TagCell::new(i as u128, 1)
                        } else {
                            TagCell::filler()
                        }
                    })
                    .collect();
                let mut t = Tracked::new(c, &mut cells);
                compact_cells(c, &sp, &mut t);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..m).map(|i| i % 2 == 0).collect());
        let b = run((0..m).map(|i| i >= m / 2).collect());
        let z = run(vec![false; m]);
        assert_eq!(a, b, "flag positions leaked into the compaction trace");
        assert_eq!(a, z, "flag count leaked into the compaction trace");
    }

    #[test]
    fn compact_parallel_matches() {
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let mut cells: Vec<TagCell> = (0..4096u128)
            .map(|i| {
                if i % 7 < 3 {
                    TagCell::new(i, i * 2)
                } else {
                    TagCell::filler()
                }
            })
            .collect();
        let expect = compact_oracle(&cells);
        pool.run(|c| {
            let mut t = Tracked::new(c, &mut cells);
            compact_cells(c, &sp, &mut t);
        });
        assert_eq!(cells, expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The tag-sort fast path and the full §3.3/§3.4 pipeline agree on
        /// arbitrary wide records (both are stable sorts by key).
        #[test]
        fn prop_kv_sort_matches_oblivious_sort(
            pairs in proptest::collection::vec((any::<u64>(), 0u64..u64::MAX), 0..400),
        ) {
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let mut tag_path = pairs.clone();
            oblivious_sort_kv(&c, &sp, &mut tag_path, Engine::BitonicRec);
            let mut record_path = pairs;
            let params = OSortParams::practical(record_path.len());
            oblivious_sort(&c, &sp, &mut record_path, params, 17);
            prop_assert_eq!(tag_path, record_path);
        }

        #[test]
        fn prop_compact_matches_filter(flags in proptest::collection::vec(any::<bool>(), 1..300)) {
            let m = flags.len().next_power_of_two();
            let mut cells: Vec<TagCell> = flags
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    if f { TagCell::new(i as u128, i as u128 ^ 0x55) } else { TagCell::filler() }
                })
                .collect();
            cells.resize(m, TagCell::filler());
            let expect = compact_oracle(&cells);
            run_compact(&mut cells);
            prop_assert_eq!(cells, expect);
        }
    }
}
