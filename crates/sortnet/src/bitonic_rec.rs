//! Cache-agnostic, binary fork-join bitonic sort (§E.1, Theorem E.1).
//!
//! Each bitonic merge is a (reverse) butterfly network. Rather than
//! evaluating it layer by layer — which costs `O((n/B)·log² n)` cache
//! misses and `O(log³ n)` span — the paper evaluates it recursively: view
//! the `m` inputs as an `R × C` matrix (`R = 2^⌈k/2⌉`, `C = m/R`),
//! transpose so the strided first-stage butterflies become contiguous rows,
//! recursively merge the rows, transpose back, and recursively merge the
//! contiguous second-stage rows. This yields
//!
//! * work `O(n log² n)` (unchanged),
//! * span `O(log² n · log log n)`,
//! * cache complexity `O((n/B) · log_M n · log(n/M))` for `n > M ≥ B²`,
//!
//! which is Theorem E.1. The recursion structure mirrors the FFT algorithm
//! of Frigo et al. and is shared with REC-ORBA/REC-SORT in `obliv-core`.
//!
//! # What runs where
//!
//! The transpose recursion is what a **metered** context executes: the
//! model's `Q`, span, trace and every committed counter are its. On a
//! **host** executor ([`fj::Ctx::is_metered`] false — the rule
//! [`fj::grain_for`] and [`fj::base_for`] already follow) the two
//! transposes per level move every element twice to save misses that an
//! L1-sized tile does not take in the first place, and above the base case
//! a merge ran slower than streaming each layer flat from memory. There
//! the levels above [`fj::base_for`] are evaluated **in place**
//! (`merge_tiled`): the same comparators — each still sees the same two
//! elements, so the result is the flat network's bit for bit — in an
//! order that is a function of `(m, base)` alone, with `tmp` never
//! touched. Below the base case both run [`bitonic_merge_seq`].

use crate::bitonic::{bitonic_merge_seq, bitonic_sort_seq_from_runs, reverse};
use crate::cx::Gate;
use crate::transpose::transpose;
use fj::{base_for, counters, par_for, Ctx};
use metrics::{par_tracked_chunks, Tracked};
use std::mem::size_of;

/// Run `f(row_index, a_row, b_row)` over matching length-`rowlen` rows of
/// two equally sized tracked slices, forking in a balanced binary tree.
pub fn par_rows2<'t, C, T, F>(
    c: &C,
    mut a: Tracked<'t, T>,
    mut b: Tracked<'t, T>,
    rows: usize,
    rowlen: usize,
    base_row: usize,
    f: &F,
) where
    C: Ctx,
    T: Copy + Send,
    F: Fn(&C, usize, Tracked<'_, T>, Tracked<'_, T>) + Sync,
{
    debug_assert_eq!(a.len(), rows * rowlen);
    debug_assert_eq!(b.len(), rows * rowlen);
    if rows == 1 {
        f(c, base_row, a.borrow_mut(), b.borrow_mut());
        return;
    }
    let half = rows / 2;
    let (a_lo, a_hi) = a.split_at_mut(half * rowlen);
    let (b_lo, b_hi) = b.split_at_mut(half * rowlen);
    c.join(
        move |c| par_rows2(c, a_lo, b_lo, half, rowlen, base_row, f),
        move |c| par_rows2(c, a_hi, b_hi, rows - half, rowlen, base_row + half, f),
    );
}

/// Cache-agnostic recursive bitonic merge (BITONIC-MERGE of §E.1.2).
///
/// `t` must hold a bitonic sequence of power-of-two length; `tmp` is
/// equally sized scratch. On return `t` is sorted (ascending iff `up`) and
/// `tmp` holds garbage — on a host executor, what it held before: the
/// in-place evaluation (`merge_tiled`) never reads or writes it.
pub fn bitonic_merge_rec<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    tmp: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
) {
    let m = t.len();
    debug_assert_eq!(tmp.len(), m);
    // At or below `base_for` (32 in the model, an L1's worth on a host),
    // fall back to the sequential network.
    let base = base_for(c, size_of::<T>());
    if m <= base {
        bitonic_merge_seq(c, t, gate, up);
        return;
    }
    debug_assert!(m.is_power_of_two());
    if !c.is_metered() {
        let w_min = (TILE_RUN_BYTES / size_of::<T>().max(1)).max(1);
        return merge_tiled(c, t.borrow_mut(), gate, up, base, w_min);
    }
    let k = m.trailing_zeros() as usize;
    let cdim = 1usize << (k / 2); // second-stage (contiguous) row length
    let rdim = m / cdim; // first-stage (strided) row length, ≥ cdim

    // Stage 1: transpose R×C → C×R so each former column (stride C in the
    // original layout, i.e. the butterflies of distance m/2 … C) becomes a
    // contiguous row, then merge the rows recursively.
    transpose(c, t, tmp, rdim, cdim, 1);
    par_rows2(
        c,
        tmp.borrow_mut(),
        t.borrow_mut(),
        cdim,
        rdim,
        0,
        &|c, _, mut row, mut scratch| {
            bitonic_merge_rec(c, &mut row, &mut scratch, gate, up);
        },
    );

    // Stage 2: transpose back and merge the contiguous rows of length C
    // (butterflies of distance C/2 … 1).
    transpose(c, tmp, t, cdim, rdim, 1);
    par_rows2(
        c,
        t.borrow_mut(),
        tmp.borrow_mut(),
        rdim,
        cdim,
        0,
        &|c, _, mut row, mut scratch| {
            bitonic_merge_rec(c, &mut row, &mut scratch, gate, up);
        },
    );
}

/// Shortest contiguous run, in bytes, a tile row may have: sixteen cache
/// lines, so the hardware prefetcher has a stream to follow and the
/// per-run dispatch is amortized. It bounds a tile at
/// `base_for / (TILE_RUN_BYTES / size)` rows — 32 rows of 32 cells — and so
/// a pass at five levels; rows a power-of-two stride apart share their L1
/// sets, and few long rows measured better than many short ones (DESIGN.md
/// §3 has the sweep). Compaction's swap levels take the same cut between a
/// run worth a call of its own and one a level-wide kernel entry absorbs.
pub const TILE_RUN_BYTES: usize = 1024;

/// The next in-place pass over a `hi`-block whose levels `hi/2 … base`
/// are still to run: `(lo, w)` — the pass runs levels `hi/2 … lo` and its
/// tiles are `w` columns wide.
///
/// View the block as `hi/lo` rows of `lo` contiguous elements. Levels
/// `hi/2 … lo` pair indices that differ in exactly one bit of `[lo, hi)`,
/// i.e. row `r` with row `r ^ (j/lo)` column for column, so any set of
/// `w` adjacent columns — a *tile* of `(hi/lo)·w = base` elements, one
/// L1's worth — is closed under all of them. A row of a tile may not be
/// shorter than `w_min`, so a pass covers at most `log(base/w_min)`
/// levels; when more are left they are split evenly over the fewest
/// passes that fit (equal passes have the widest rows). A pure function
/// of `(hi, base, w_min)`: the evaluation order is public.
fn next_pass(hi: usize, base: usize, w_min: usize) -> (usize, usize) {
    debug_assert!(hi.is_power_of_two() && base.is_power_of_two() && hi > base);
    let left = (hi / base).ilog2();
    let per_pass = (base / w_min).max(2).ilog2();
    let levels = left.div_ceil(left.div_ceil(per_pass));
    let lo = hi >> levels;
    (lo, base >> levels)
}

/// The merge above `base` on a host executor: the same comparators as the
/// transpose recursion of [`bitonic_merge_rec`], evaluated in place. Each
/// pass of [`next_pass`] runs its levels tile by tile — a row pair of a
/// tile is one [`Gate::run`] of `w` pairs — while the tile sits in L1;
/// the `lo`-blocks it leaves are independent and recurse, down to
/// [`bitonic_merge_seq`] on `base`-blocks. Tiles of a pass, then blocks,
/// fork; nothing is copied and no scratch is touched.
fn merge_tiled<C: Ctx, T: Copy + Send>(
    c: &C,
    mut t: Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
    base: usize,
    w_min: usize,
) {
    let hi = t.len();
    if hi <= base {
        bitonic_merge_seq(c, &mut t, gate, up);
        return;
    }
    let (lo, w) = next_pass(hi, base, w_min);
    let rows = hi / lo;
    let raw = t.as_raw();
    par_for(c, 0, lo / w, 1, &|c, tile| {
        let mut d = rows / 2;
        while d >= 1 {
            for r in (0..rows).filter(|r| r & d == 0) {
                let a = r * lo + tile * w;
                // SAFETY: row `r ^ d = r + d < rows`, so both runs lie in
                // `t`, `d·lo ≥ w` apart; tiles are disjoint column ranges
                // and nothing else holds `t` until the `par_for` joins.
                unsafe { gate.run(c, &raw, a, a + d * lo, w, up) };
            }
            d /= 2;
        }
    });
    par_tracked_chunks(c, t, lo, &|c, _, block| {
        merge_tiled(c, block, gate, up, base, w_min)
    });
}

/// Cache-agnostic recursive bitonic sort (BITONIC-SORT of §E.1.1):
/// sorts the two halves in opposite directions in parallel, then runs the
/// recursive bitonic merge.
pub fn bitonic_sort_rec<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    tmp: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
) {
    bitonic_sort_rec_from_runs(c, t, tmp, gate, up, 1)
}

/// [`bitonic_sort_rec`] of an input made of aligned `run`-blocks (a power
/// of two) that are each **ascending** already — sorted runs are merged,
/// not re-sorted. It is the same recursion cut off at `run`: a block of at
/// most `run` elements is a sorted leaf, reversed in place when the
/// recursion wants it descending, and only the merges above the leaves run
/// — `Σ_{k = log run + 1}^{log n} k` comparator layers instead of
/// `Σ_{k = 1}^{log n} k`. `run = 1` is the sort. The trace is a function
/// of `(n, run)`; on an input that breaks the contract the network still
/// runs it and permutes `t`, it just does not sort.
pub fn bitonic_sort_rec_from_runs<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    tmp: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
    run: usize,
) {
    let n = t.len();
    debug_assert_eq!(tmp.len(), n);
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "bitonic sort requires power-of-two length, got {n}"
    );
    assert!(run.is_power_of_two(), "run length {run}");
    if n <= run {
        if !up {
            reverse(c, t);
        }
        return;
    }
    if n <= base_for(c, size_of::<T>()) {
        bitonic_sort_seq_from_runs(c, t, gate, up, run);
        return;
    }
    c.count(counters::SORTS, 1);
    if n / 2 <= run {
        // Both halves are leaves and exactly one of them is the wrong way
        // round: nothing to fork for.
        let (mut t_lo, mut t_hi) = t.split_at_mut(n / 2);
        reverse(c, if up { &mut t_hi } else { &mut t_lo });
    } else {
        let (t_lo, t_hi) = t.split_at_mut(n / 2);
        let (s_lo, s_hi) = tmp.split_at_mut(n / 2);
        c.join(
            move |c| {
                let (mut t_lo, mut s_lo) = (t_lo, s_lo);
                bitonic_sort_rec_from_runs(c, &mut t_lo, &mut s_lo, gate, up, run);
            },
            move |c| {
                let (mut t_hi, mut s_hi) = (t_hi, s_hi);
                bitonic_sort_rec_from_runs(c, &mut t_hi, &mut s_hi, gate, !up, run);
            },
        );
    }
    bitonic_merge_rec(c, t, tmp, gate, up);
}

/// Convenience wrapper: sort a plain slice (power-of-two length) with the
/// cache-agnostic recursive network, allocating scratch internally. Hot
/// paths should prefer [`sort_slice_rec_in`] with a shared pool.
pub fn sort_slice_rec<C: Ctx, T: Copy + Send + Default>(
    c: &C,
    data: &mut [T],
    gate: &impl Gate<T>,
    up: bool,
) {
    let scratch = metrics::ScratchPool::new();
    sort_slice_rec_in(c, &scratch, data, gate, up);
}

/// [`sort_slice_rec`] drawing its merge scratch from a [`ScratchPool`](metrics::ScratchPool)
/// lease instead of a fresh allocation.
pub fn sort_slice_rec_in<C: Ctx, T: Copy + Send + Default>(
    c: &C,
    scratch: &metrics::ScratchPool,
    data: &mut [T],
    gate: &impl Gate<T>,
    up: bool,
) {
    let mut lease = scratch.lease(data.len(), T::default());
    let mut t = Tracked::new(c, data);
    let mut tmp = Tracked::new(c, &mut lease);
    bitonic_sort_rec(c, &mut t, &mut tmp, gate, up);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    fn key64(x: &u64) -> u128 {
        *x as u128
    }

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 17)
            .collect()
    }

    #[test]
    fn rec_sort_matches_std_sort() {
        let c = SeqCtx::new();
        for n in [1usize, 2, 4, 32, 64, 128, 1024, 4096] {
            let mut v = scrambled(n);
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_slice_rec(&c, &mut v, &key64, true);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn rec_sort_descending() {
        let c = SeqCtx::new();
        let mut v = scrambled(512);
        let mut expect = v.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        sort_slice_rec(&c, &mut v, &key64, false);
        assert_eq!(v, expect);
    }

    #[test]
    fn rec_merge_sorts_bitonic_sequence() {
        let c = SeqCtx::new();
        let mut v: Vec<u64> = (0..512).chain((0..512).rev()).collect();
        let mut tmp = vec![0u64; 1024];
        let mut t = Tracked::new(&c, &mut v);
        let mut s = Tracked::new(&c, &mut tmp);
        bitonic_merge_rec(&c, &mut t, &mut s, &key64, true);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parallel_rec_sort_matches() {
        let pool = Pool::new(4);
        let mut v = scrambled(1 << 14);
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.run(|p| sort_slice_rec(p, &mut v, &key64, true));
        assert_eq!(v, expect);
    }

    #[test]
    fn rec_beats_flat_on_cache_misses() {
        // Theorem E.1's point: with a small cache, the recursive schedule
        // incurs far fewer misses than layer-by-layer evaluation.
        let n = 1 << 13;
        let cfg = CacheConfig::new(1 << 9, 16); // tiny cache: 32 blocks
        let (_, flat) = measure(cfg, TraceMode::Off, |c| {
            let mut v = scrambled(n);
            let mut t = Tracked::new(c, &mut v);
            crate::bitonic::bitonic_sort_flat_par(c, &mut t, &key64, true);
        });
        let (_, rec) = measure(cfg, TraceMode::Off, |c| {
            let mut v = scrambled(n);
            sort_slice_rec(c, &mut v, &key64, true);
        });
        assert!(
            rec.cache_misses * 2 < flat.cache_misses,
            "rec {} vs flat {}",
            rec.cache_misses,
            flat.cache_misses
        );
    }

    #[test]
    fn rec_beats_flat_on_span() {
        let n = 1 << 13;
        let cfg = CacheConfig::default();
        let (_, flat) = measure(cfg, TraceMode::Off, |c| {
            let mut v = scrambled(n);
            let mut t = Tracked::new(c, &mut v);
            crate::bitonic::bitonic_sort_flat_par(c, &mut t, &key64, true);
        });
        let (_, rec) = measure(cfg, TraceMode::Off, |c| {
            let mut v = scrambled(n);
            sort_slice_rec(c, &mut v, &key64, true);
        });
        assert!(
            rec.span < flat.span,
            "rec span {} vs flat span {}",
            rec.span,
            flat.span
        );
        // Work should agree up to bookkeeping constants (same comparator
        // network evaluated in a different order).
        assert_eq!(rec.comparisons, flat.comparisons);
    }

    #[test]
    fn trace_is_input_independent() {
        // The network's access pattern is fixed: different inputs of equal
        // length must produce identical adversary traces.
        let n = 1 << 10;
        let run = |data: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = data.clone();
                sort_slice_rec(c, &mut v, &key64, true);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run(scrambled(n));
        let b = run((0..n as u64).collect());
        let z = run(vec![0u64; n]);
        assert_eq!(a, b);
        assert_eq!(a, z);
    }

    #[test]
    fn golden_trace_and_counters_at_4096() {
        // `[trace_hash, trace_len, work, span, comparisons, cache_misses]`
        // of the three instances of the §E.1 driver, captured at the commit
        // before the cell driver was folded into this one (PR 14). Any
        // reordering of a single comparator pair changes the hash.
        use crate::{cells_merge_rec, cells_sort_rec, TagCell};
        const N: usize = 4096;
        fn golden<T: Copy + Default>(
            data: &mut [T],
            f: impl FnOnce(&metrics::MeterCtx, &mut Tracked<'_, T>, &mut Tracked<'_, T>),
        ) -> [u64; 6] {
            let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut tmp = vec![T::default(); data.len()];
                let mut t = Tracked::new(c, data);
                let mut s = Tracked::new(c, &mut tmp);
                f(c, &mut t, &mut s);
            });
            [
                r.trace_hash,
                r.trace_len,
                r.work,
                r.span,
                r.comparisons,
                r.cache_misses,
            ]
        }

        let mut cells: Vec<TagCell> = scrambled(N)
            .iter()
            .map(|&k| TagCell::new(k as u128, !k as u128))
            .collect();
        let sort = golden(&mut cells, |c, t, s| cells_sort_rec(c, t, s, true));
        assert_eq!(
            sort,
            [0x790e33d2f5de825, 0xc4000, 0xda286, 0x1590, 0x27000, 0x2774]
        );

        let mut bitonic: Vec<TagCell> = (0..N as u128 / 2)
            .chain((0..N as u128 / 2).rev())
            .map(|k| TagCell::new(k, k))
            .collect();
        let merge = golden(&mut bitonic, |c, t, s| cells_merge_rec(c, t, s, true));
        assert_eq!(
            merge,
            [0xc2be4c0585197725, 0x24000, 0x24ff8, 0x2b8, 0x6000, 0x1f74]
        );

        let (mut v, key) = (scrambled(N), |x: &u64| *x as u128);
        // The sort is the sort-from-runs at `run = 1`, bit for bit.
        let by_closure = golden(&mut v, |c, t, s| {
            bitonic_sort_rec_from_runs(c, t, s, &key, true, 1)
        });
        assert_eq!(
            by_closure,
            [0x10eaa4825f2608e5, 0xc4000, 0xda286, 0x1590, 0x27000, 0x200]
        );
    }

    /// `v` cut into ascending `run`-blocks, sorted from them under the
    /// meter: the result and `[trace_hash, trace_len, work, span,
    /// comparisons]`.
    fn from_runs_metered(mut v: Vec<u64>, run: usize, up: bool) -> (Vec<u64>, [u64; 5]) {
        v.chunks_mut(run).for_each(|r| r.sort_unstable());
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let mut tmp = vec![0u64; v.len()];
            let mut t = Tracked::new(c, &mut v);
            let mut s = Tracked::new(c, &mut tmp);
            bitonic_sort_rec_from_runs(c, &mut t, &mut s, &key64, up, run);
        });
        let costs = [
            rep.trace_hash,
            rep.trace_len,
            rep.work,
            rep.span,
            rep.comparisons,
        ];
        (v, costs)
    }

    #[test]
    fn from_runs_trace_is_a_function_of_length_and_run() {
        // 256 > the metered base case of 32, so runs below, at and above
        // the base are all covered, and both leaf directions.
        let n = 256;
        let mut per_run = Vec::new();
        for run in (0..=8).map(|k| 1usize << k) {
            let inputs = [
                scrambled(n),
                (0..n as u64).collect(),
                vec![7; n],
                // Ragged runs padded with fillers (`MAX` sorts last).
                (0..n as u64)
                    .map(|i| if i % 3 == 0 { u64::MAX } else { i % 11 })
                    .collect(),
            ];
            let costs: Vec<[u64; 5]> = inputs
                .into_iter()
                .map(|v| {
                    let (out, costs) = from_runs_metered(v, run, true);
                    assert!(out.windows(2).all(|w| w[0] <= w[1]), "run {run}");
                    costs
                })
                .collect();
            assert!(costs.windows(2).all(|w| w[0] == w[1]), "run {run}");
            per_run.push(costs[0]);
        }
        // Longer runs leave fewer layers: comparisons strictly fall, to
        // none at all for a single run.
        assert!(per_run.windows(2).all(|w| w[0][4] > w[1][4]));
        assert_eq!(per_run[8][4], 0);
        // 4 runs of 64 in 256: layers 7 + 8 of the 36, n/2 comparators each.
        assert_eq!(per_run[6][4], (7 + 8) * 128);
    }

    #[test]
    fn from_runs_on_host_and_pool_above_the_base_case() {
        // 2¹⁴ `u64`s are four host base cases: runs shorter than, equal to
        // and longer than one, leaves reversed by forked swaps on the pool.
        let n = 1 << 14;
        let mut expect = scrambled(n);
        expect.sort_unstable();
        let pool = Pool::new(4);
        for run in [1usize, 64, 4096, 8192, n] {
            for up in [true, false] {
                let sorted = |v: &[u64]| v.windows(2).all(|w| w[0] == w[1] || (w[0] < w[1]) == up);
                let mut v = scrambled(n);
                v.chunks_mut(run).for_each(|r| r.sort_unstable());
                let mut on_pool = v.clone();
                let (mut tmp, mut tmp2) = (vec![0u64; n], vec![0u64; n]);
                let c = SeqCtx::new();
                bitonic_sort_rec_from_runs(
                    &c,
                    &mut Tracked::new(&c, &mut v),
                    &mut Tracked::new(&c, &mut tmp),
                    &key64,
                    up,
                    run,
                );
                pool.run(|p| {
                    bitonic_sort_rec_from_runs(
                        p,
                        &mut Tracked::new(p, &mut on_pool),
                        &mut Tracked::new(p, &mut tmp2),
                        &key64,
                        up,
                        run,
                    )
                });
                assert!(sorted(&v), "run {run} up {up}");
                assert_eq!(v, on_pool, "run {run} up {up}");
                v.sort_unstable();
                assert_eq!(v, expect);
            }
        }
    }

    /// The passes [`merge_tiled`] takes over an `m`-block, top down, as
    /// `(hi, lo, w)`.
    fn tile_plan(m: usize, base: usize, w_min: usize) -> Vec<(usize, usize, usize)> {
        std::iter::successors(Some(m), |&hi| {
            let (lo, _) = next_pass(hi, base, w_min);
            (lo > base).then_some(lo)
        })
        .map(|hi| {
            let (lo, w) = next_pass(hi, base, w_min);
            (hi, lo, w)
        })
        .collect()
    }

    #[test]
    fn tile_plan_covers_every_level_above_the_base_exactly_once() {
        let check = |m: usize, base: usize, w_min: usize| {
            let plan = tile_plan(m, base, w_min);
            let what = format!("m {m} base {base} w_min {w_min}: {plan:?}");
            // Pass `(hi, lo)` runs levels `hi/2 … lo`: chained from `m`
            // down to `base`, every level `m/2 … base` is in one pass.
            assert_eq!(plan[0].0, m, "{what}");
            assert!(plan.windows(2).all(|p| p[0].1 == p[1].0), "{what}");
            assert_eq!(plan.last().unwrap().1, base, "{what}");
            let max_rows = (base / w_min).max(2);
            for &(hi, lo, w) in &plan {
                assert!(lo < hi && lo.is_power_of_two(), "{what}");
                assert_eq!((hi / lo) * w, base, "a tile is one base's worth: {what}");
                assert!(hi / lo <= max_rows && w <= lo, "{what}");
            }
            // The fewest passes that fit, evenly filled.
            let (levels, per_pass) = ((m / base).ilog2(), max_rows.ilog2());
            assert_eq!(plan.len() as u32, levels.div_ceil(per_pass), "{what}");
            plan.len()
        };
        for lg_m in 11..=24 {
            for w_min in [8, 16, 32] {
                check(1 << lg_m, 1024, w_min);
            }
            // 48-byte elements: 512 per base, a run of 10.
            check(1 << lg_m, 512, 10);
        }
        assert_eq!(tile_plan(1 << 16, 1024, 16), [(1 << 16, 1024, 16)]);
        assert_eq!(
            tile_plan(1 << 18, 1024, 16),
            [(1 << 18, 1 << 14, 64), (1 << 14, 1024, 64)]
        );
        // Tiny bases: one level a pass (two rows), then two.
        assert_eq!(check(32, 4, 2), 3);
        assert_eq!(tile_plan(32, 4, 2), [(32, 16, 2), (16, 8, 2), (8, 4, 2)]);
        assert_eq!(check(512, 8, 2), 3);
        assert_eq!(check(64, 8, 2), 2);
        assert_eq!(
            check(64, 4, 8),
            4,
            "w_min above base/2 still makes progress"
        );
    }

    #[test]
    fn tiled_merge_zero_one_principle_exhaustive() {
        // A merging network is correct iff it sorts every bitonic 0/1
        // input: `0^a 1^b 0^c` and its complement, all of them, with the
        // base forced down so that up to four passes run.
        let c = SeqCtx::new();
        for m in [16usize, 32] {
            let mut inputs = Vec::new();
            for a in 0..=m {
                for b in 0..=m - a {
                    let v: Vec<u64> = (0..m).map(|i| u64::from(a <= i && i < a + b)).collect();
                    inputs.push(v.iter().map(|x| 1 - x).collect());
                    inputs.push(v);
                }
            }
            for (base, w_min) in [(2, 1), (4, 1), (4, 2)] {
                for up in [true, false] {
                    for input in &inputs {
                        let mut v = input.clone();
                        merge_tiled(&c, Tracked::new(&c, &mut v), &key64, up, base, w_min);
                        assert!(
                            v.windows(2).all(|w| w[0] == w[1] || (w[0] < w[1]) == up),
                            "m {m} base {base} w_min {w_min} up {up}: {input:?} -> {v:?}"
                        );
                        assert_eq!(v.iter().sum::<u64>(), input.iter().sum::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn host_path_is_the_flat_network_bit_for_bit() {
        // Same comparators, other order: every comparator of a merge sees
        // the same two elements whichever schedule runs it, so the tiled
        // merge equals the layer-by-layer one down to the order of equal
        // tags (the payload lane tells them apart). The sorts — `run = 1`,
        // and `run = 512` through the cut-off recursion — are held against
        // the flat sorting network on distinct tags (the recursion directs
        // its sub-sorts differently, so only those pin the output). 2¹⁶
        // cells and up take two passes.
        use crate::{Backend, TagCell};
        #[derive(Clone, Copy, Debug)]
        enum Case {
            Merge,
            SortFromRuns(usize),
        }
        fn on<C: Ctx>(
            c: &C,
            gate: &impl Gate<TagCell>,
            case: Case,
            v: &mut [TagCell],
            tmp: &mut [TagCell],
        ) {
            let (mut t, mut s) = (Tracked::new(c, v), Tracked::new(c, tmp));
            match case {
                Case::Merge => bitonic_merge_rec(c, &mut t, &mut s, gate, true),
                Case::SortFromRuns(run) => {
                    bitonic_sort_rec_from_runs(c, &mut t, &mut s, gate, true, run)
                }
            }
        }
        let pool = Pool::new(4);
        let seq = SeqCtx::new();
        for lg_m in 11..=18 {
            let m = 1usize << lg_m;
            for case in [Case::Merge, Case::SortFromRuns(1), Case::SortFromRuns(512)] {
                let mut input: Vec<TagCell> = scrambled(m)
                    .iter()
                    .zip(0u128..)
                    .map(|(&k, i)| match case {
                        Case::Merge => TagCell::new(k as u128 % 61, i),
                        Case::SortFromRuns(_) => TagCell::new(((k as u128) << 64) | i, !i),
                    })
                    .collect();
                let mut oracle;
                match case {
                    Case::Merge => {
                        input[..m / 2].sort_by_key(|x| x.tag);
                        input[m / 2..].sort_by_key(|x| std::cmp::Reverse(x.tag));
                        oracle = input.clone();
                        let mut t = Tracked::new(&seq, &mut oracle);
                        bitonic_merge_seq(&seq, &mut t, &Backend::Scalar, true);
                    }
                    Case::SortFromRuns(run) => {
                        input.chunks_mut(run).for_each(|r| r.sort_by_key(|x| x.tag));
                        oracle = input.clone();
                        let mut t = Tracked::new(&seq, &mut oracle);
                        crate::bitonic::bitonic_sort_flat_par(&seq, &mut t, &Backend::Scalar, true);
                    }
                }
                assert!(oracle.windows(2).all(|w| w[0].tag <= w[1].tag));
                let mut tmp = vec![TagCell::filler(); m];
                let mut check = |name: &str, run: &dyn Fn(&mut [TagCell], &mut [TagCell])| {
                    let mut v = input.clone();
                    run(&mut v, &mut tmp);
                    assert!(v == oracle, "m {m} {case:?} {name}");
                };
                let by_tag = |x: &TagCell| x.tag;
                check("closure, seq", &|v, s| on(&seq, &by_tag, case, v, s));
                check("scalar, seq", &|v, s| {
                    on(&seq, &Backend::Scalar, case, v, s)
                });
                check("avx2, seq", &|v, s| on(&seq, &Backend::Avx2, case, v, s));
                check("closure, pool", &|v, s| {
                    pool.run(|p| on(p, &by_tag, case, v, s))
                });
                check("scalar, pool", &|v, s| {
                    pool.run(|p| on(p, &Backend::Scalar, case, v, s))
                });
                check("avx2, pool", &|v, s| {
                    pool.run(|p| on(p, &Backend::Avx2, case, v, s))
                });
            }
        }
    }

    #[test]
    fn host_path_asks_for_exactly_the_networks_verdicts() {
        /// Routes like the closure gate and counts the verdicts it gives.
        struct Counting(std::sync::atomic::AtomicU64);
        impl Gate<u64> for Counting {
            fn key(&self, x: &u64) -> u128 {
                *x as u128
            }
            fn route(&self, swap: bool, a: u64, b: u64) -> (u64, u64) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Gate::route(&key64, swap, a, b)
            }
        }
        // 2¹⁵ `u64`s are eight host base cases (three tiled levels); 2²⁰
        // take two passes.
        for lg_m in [15u64, 20] {
            let m = 1usize << lg_m;
            let mut v: Vec<u64> = (0..m as u64 / 2).chain((0..m as u64 / 2).rev()).collect();
            let mut tmp = vec![0u64; m];
            let (c, gate) = (SeqCtx::new(), Counting(Default::default()));
            bitonic_merge_rec(
                &c,
                &mut Tracked::new(&c, &mut v),
                &mut Tracked::new(&c, &mut tmp),
                &gate,
                true,
            );
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(gate.0.into_inner(), (m as u64 / 2) * lg_m, "m = {m}");
            assert!(
                tmp.iter().all(|&x| x == 0),
                "the host path leaves `tmp` alone"
            );
        }
    }

    #[test]
    fn from_runs_breaking_the_contract_still_permutes() {
        let c = SeqCtx::new();
        let mut v = scrambled(4096);
        let mut tmp = vec![0u64; 4096];
        let mut t = Tracked::new(&c, &mut v);
        let mut s = Tracked::new(&c, &mut tmp);
        bitonic_sort_rec_from_runs(&c, &mut t, &mut s, &key64, true, 64);
        let mut expect = scrambled(4096);
        expect.sort_unstable();
        assert!(v != expect, "unsorted runs are not sorted by a merge");
        v.sort_unstable();
        assert_eq!(v, expect, "no element lost or duplicated");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sort-from-runs equals the full sort for every run length, both
        /// directions, duplicate keys and fillers included — under the
        /// meter (base case 32) and on the host executor (an L1's worth).
        #[test]
        fn prop_from_runs_equals_sort(
            lg_n in 0u32..10,
            draws in proptest::collection::vec((0u8..4, any::<u64>()), 512),
            up in any::<bool>(),
        ) {
            let n = 1usize << lg_n;
            let keys: Vec<u64> = draws
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => x % 8,
                    1 => u64::MAX,
                    _ => x,
                })
                .collect();
            let mut expect = keys[..n].to_vec();
            expect.sort_unstable();
            if !up {
                expect.reverse();
            }
            for run in (0..=lg_n).map(|k| 1usize << k) {
                let (metered, _) = from_runs_metered(keys[..n].to_vec(), run, up);
                prop_assert_eq!(&metered, &expect, "metered, run {}", run);
                let mut v = keys[..n].to_vec();
                v.chunks_mut(run).for_each(|r| r.sort_unstable());
                let mut tmp = vec![0u64; n];
                let c = SeqCtx::new();
                bitonic_sort_rec_from_runs(
                    &c,
                    &mut Tracked::new(&c, &mut v),
                    &mut Tracked::new(&c, &mut tmp),
                    &key64,
                    up,
                    run,
                );
                prop_assert_eq!(&v, &expect, "host, run {}", run);
            }
        }

        #[test]
        fn prop_rec_sorts(v in proptest::collection::vec(any::<u64>(), 0..300)) {
            let n = v.len().next_power_of_two().max(1);
            let mut padded = v.clone();
            padded.resize(n, u64::MAX);
            let c = SeqCtx::new();
            sort_slice_rec(&c, &mut padded, &key64, true);
            let mut expect = v;
            expect.sort_unstable();
            prop_assert_eq!(&padded[..expect.len()], &expect[..]);
        }
    }
}
