//! Batcher's bitonic sorting network \[Bat68\]: sequential evaluation and the
//! *naive* fork-join parallelization.
//!
//! The naive variant forks and joins the comparators of each of the
//! `O(log² n)` layers in a binary tree, giving span `O(log³ n)` and cache
//! complexity `O((n/B)·log² n)` — exactly the strawman §E.1 improves on
//! with the recursive implementation in [`crate::bitonic_rec`]. We keep it
//! both as the correctness oracle and as the "prior best" baseline for the
//! `E1.bitonic` experiment.

use crate::cx::{cex, Gate};
use fj::{counters, grain_for, par_for, Ctx, DEFAULT_GRAIN};
use metrics::Tracked;

/// Left index `i` of comparator `p` of a butterfly level of half-width `h`
/// (a power of two) over aligned `2h`-blocks: comparators are numbered
/// block by block, `h` to a block, and comparator `p` pairs `(i, i + h)`,
/// `i = 2h·⌊p/h⌋ + p mod h` — the indices with bit `h` clear, ascending.
#[inline(always)]
pub fn level_index(p: usize, h: usize) -> usize {
    ((p & !(h - 1)) << 1) | (p & (h - 1))
}

/// Sequential bitonic sort of a power-of-two-length slice.
pub fn bitonic_sort_seq<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
) {
    bitonic_sort_seq_from_runs(c, t, gate, up, 1)
}

/// [`bitonic_sort_seq`] of an input made of aligned `run`-blocks (a power
/// of two) that are each ascending already: the levels `k ≤ run` are not
/// run. They would have left the block at `s` sorted in direction
/// `((s & run) == 0) == up`, so the blocks that are wanted descending are
/// [`reverse`]d and the network resumes at `k = 2·run`.
pub(crate) fn bitonic_sort_seq_from_runs<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
    run: usize,
) {
    let n = t.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "bitonic sort requires power-of-two length, got {n}"
    );
    assert!(run.is_power_of_two() && run <= n, "run {run} of {n}");
    c.count(counters::SORTS, 1);
    if run > 1 {
        for s in (0..n).step_by(run) {
            if ((s & run) == 0) != up {
                reverse(c, &mut t.range(s, s + run));
            }
        }
    }
    let mut k = 2 * run;
    while k <= n {
        gate.stage(c, t, k, up);
        k *= 2;
    }
}

/// Reverse `t` in place: `⌊len/2⌋` swaps of `t[i]` with `t[len − 1 − i]`,
/// a fixed pattern. The front half and the back half are split together,
/// `lo[..k]` with its mirror image `hi[len − k..]`, so a task holds `&mut`
/// to exactly the cells it swaps; below a grain the swaps are sequential.
pub(crate) fn reverse<C: Ctx, T: Copy + Send>(c: &C, t: &mut Tracked<'_, T>) {
    let (len, half) = (t.len(), t.len() / 2);
    let (lo, mut rest) = t.split_at_mut(half);
    let hi = rest.range(len - 2 * half, len - half);
    swap_mirrored(c, lo, hi, grain_for(c));

    fn swap_mirrored<C: Ctx, T: Copy + Send>(
        c: &C,
        mut lo: Tracked<'_, T>,
        mut hi: Tracked<'_, T>,
        grain: usize,
    ) {
        let k = lo.len();
        if k <= grain.max(1) {
            for i in 0..k {
                let (a, z) = (lo.get(c, i), hi.get(c, k - 1 - i));
                lo.set(c, i, z);
                hi.set(c, k - 1 - i, a);
            }
            return;
        }
        let mid = k / 2;
        let (lo_front, lo_back) = lo.split_at_mut(mid);
        let (hi_front, hi_back) = hi.split_at_mut(k - mid);
        c.join(
            move |c| swap_mirrored(c, lo_front, hi_back, grain),
            move |c| swap_mirrored(c, lo_back, hi_front, grain),
        );
    }
}

/// Sequential bitonic *merge*: sorts a bitonic input (ascending then
/// descending half, or any rotation thereof) of power-of-two length —
/// the last `log m` levels of [`bitonic_sort_seq`].
pub fn bitonic_merge_seq<C: Ctx, T: Copy>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
) {
    let m = t.len();
    if m <= 1 {
        return;
    }
    assert!(m.is_power_of_two());
    gate.stage(c, t, m, up);
}

/// Naive parallel bitonic sort: every layer is a parallel loop over its
/// `n/2` comparators with a barrier (the joins) between layers.
pub fn bitonic_sort_flat_par<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    up: bool,
) {
    let n = t.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two());
    c.count(counters::SORTS, 1);
    for lg in 1..=n.ilog2() {
        bitonic_stage_flat_par(c, t, gate, 1 << lg, up);
    }
}

/// Stage `k` of [`bitonic_sort_flat_par`], layer by layer; at `k = n` the
/// flat network's bitonic merge.
pub fn bitonic_stage_flat_par<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    k: usize,
    up: bool,
) {
    let (n, raw) = (t.len(), t.as_raw());
    let mut j = k / 2;
    while j >= 1 {
        par_for(c, 0, n / 2, DEFAULT_GRAIN, &|c, p| {
            // Comparator p of this layer: indices share all bits except
            // bit j; disjoint across p, so raw access is safe.
            let lo = level_index(p, j);
            let dir = ((lo & k) == 0) == up;
            // SAFETY: distinct p yield disjoint {lo, lo+j} pairs, all
            // below n.
            unsafe { cex(c, &raw, gate, lo, lo + j, dir) };
        });
        j /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use proptest::prelude::*;

    fn key64(x: &u64) -> u128 {
        *x as u128
    }

    #[test]
    fn sorts_random_input() {
        let c = SeqCtx::new();
        let mut v: Vec<u64> = (0..256).map(|i| (i * 2654435761u64) % 1000).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut t = Tracked::new(&c, &mut v);
        bitonic_sort_seq(&c, &mut t, &key64, true);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_descending() {
        let c = SeqCtx::new();
        let mut v: Vec<u64> = (0..64).collect();
        let mut t = Tracked::new(&c, &mut v);
        bitonic_sort_seq(&c, &mut t, &key64, false);
        let mut expect: Vec<u64> = (0..64).collect();
        expect.reverse();
        assert_eq!(v, expect);
    }

    #[test]
    fn zero_one_principle_exhaustive_n8() {
        // By the 0-1 principle, a network sorting all 2^8 bit vectors sorts
        // everything.
        let c = SeqCtx::new();
        for mask in 0u32..256 {
            let mut v: Vec<u64> = (0..8).map(|i| (mask >> i) & 1).map(u64::from).collect();
            let ones = v.iter().sum::<u64>() as usize;
            let mut t = Tracked::new(&c, &mut v);
            bitonic_sort_seq(&c, &mut t, &key64, true);
            assert!(v[..8 - ones].iter().all(|&x| x == 0));
            assert!(v[8 - ones..].iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn merge_sorts_bitonic_input() {
        let c = SeqCtx::new();
        let mut v: Vec<u64> = (0..32).chain((0..32).rev()).collect();
        let mut t = Tracked::new(&c, &mut v);
        bitonic_merge_seq(&c, &mut t, &key64, true);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn flat_parallel_matches_sequential() {
        let pool = Pool::new(4);
        let mut v: Vec<u64> = (0..1024).map(|i| (i * 40503) % 4096).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.run(|p| {
            let mut t = Tracked::new(p, &mut v);
            bitonic_sort_flat_par(p, &mut t, &key64, true);
        });
        assert_eq!(v, expect);
    }

    proptest! {
        #[test]
        fn prop_sorts_any_input(v in proptest::collection::vec(any::<u64>(), 1..=9)) {
            // Pad to the next power of two with MAX sentinels.
            let n = v.len().next_power_of_two();
            let mut padded = v.clone();
            padded.resize(n, u64::MAX);
            let c = SeqCtx::new();
            let mut t = Tracked::new(&c, &mut padded);
            bitonic_sort_seq(&c, &mut t, &key64, true);
            let mut expect = v;
            expect.sort_unstable();
            prop_assert_eq!(&padded[..expect.len()], &expect[..]);
        }
    }
}
