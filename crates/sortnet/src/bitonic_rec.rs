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

use crate::bitonic::{bitonic_merge_seq, bitonic_sort_seq};
use crate::cx::Gate;
use crate::transpose::transpose;
use fj::{base_for, counters, Ctx};
use metrics::Tracked;
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
/// `tmp` holds garbage.
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
    if m <= base_for(c, size_of::<T>()) {
        bitonic_merge_seq(c, t, gate, up);
        return;
    }
    debug_assert!(m.is_power_of_two());
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
    let n = t.len();
    debug_assert_eq!(tmp.len(), n);
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "bitonic sort requires power-of-two length, got {n}"
    );
    if n <= base_for(c, size_of::<T>()) {
        bitonic_sort_seq(c, t, gate, up);
        return;
    }
    c.count(counters::SORTS, 1);
    {
        let (t_lo, t_hi) = t.split_at_mut(n / 2);
        let (s_lo, s_hi) = tmp.split_at_mut(n / 2);
        c.join(
            move |c| {
                let (mut t_lo, mut s_lo) = (t_lo, s_lo);
                bitonic_sort_rec(c, &mut t_lo, &mut s_lo, gate, up);
            },
            move |c| {
                let (mut t_hi, mut s_hi) = (t_hi, s_hi);
                bitonic_sort_rec(c, &mut t_hi, &mut s_hi, gate, !up);
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
        let by_closure = golden(&mut v, |c, t, s| bitonic_sort_rec(c, t, s, &key, true));
        assert_eq!(
            by_closure,
            [0x10eaa4825f2608e5, 0xc4000, 0xda286, 0x1590, 0x27000, 0x200]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
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
