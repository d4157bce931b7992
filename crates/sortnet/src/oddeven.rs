//! Batcher's odd-even mergesort — the second classical `O(n log² n)`
//! sorting network. Used as an alternative engine for the poly-log-sized
//! oblivious sub-sorts and as a cross-check oracle for bitonic.

use crate::cx::{cex, Gate};
use fj::{counters, Ctx};
use metrics::{RawTracked, Tracked};

/// Sort a power-of-two-length tracked slice with odd-even mergesort.
/// Recursion forks the two half-sorts; merges fork their even/odd
/// sub-merges (which interleave, hence the raw view).
pub fn oddeven_sort<C: Ctx, T: Copy + Send>(c: &C, t: &mut Tracked<'_, T>, gate: &impl Gate<T>) {
    let n = t.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "odd-even mergesort requires power-of-two length"
    );
    c.count(counters::SORTS, 1);
    let raw = t.as_raw();
    // SAFETY: sort_rec partitions index ranges disjointly; merge_rec's
    // even/odd sub-merges touch disjoint index classes.
    sort_rec(c, &raw, gate, 0, n);
}

fn sort_rec<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &RawTracked<T>,
    gate: &impl Gate<T>,
    lo: usize,
    n: usize,
) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    c.join(
        |c| sort_rec(c, t, gate, lo, m),
        |c| sort_rec(c, t, gate, lo + m, m),
    );
    merge_rec(c, t, gate, lo, n, 1);
}

/// Odd-even merge of the sequence `lo, lo+r, lo+2r, …` (n elements counted
/// in units of `r`).
fn merge_rec<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &RawTracked<T>,
    gate: &impl Gate<T>,
    lo: usize,
    n: usize,
    r: usize,
) {
    let step = r * 2;
    // A leaf (`step = n`) is the single comparator `(lo, lo + r)`.
    let mut i = lo;
    if step < n {
        c.join(
            |c| merge_rec(c, t, gate, lo, n, step),
            |c| merge_rec(c, t, gate, lo + r, n, step),
        );
        i += r;
    }
    while i + r < lo + n {
        // SAFETY: this post-pass runs after both sub-merges joined (a leaf
        // has none); its pairs are sequential on this task.
        unsafe { cex(c, t, gate, i, i + r, true) };
        i += step;
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
    fn sorts_scrambled() {
        let c = SeqCtx::new();
        let mut v: Vec<u64> = (0..256u64)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut t = Tracked::new(&c, &mut v);
        oddeven_sort(&c, &mut t, &key64);
        assert_eq!(v, expect);
    }

    #[test]
    fn zero_one_principle_exhaustive_n16() {
        let c = SeqCtx::new();
        for mask in 0u32..(1 << 16) {
            if mask % 977 != 0 && mask != 0 {
                continue; // sample the space to keep the test fast
            }
            let mut v: Vec<u64> = (0..16).map(|i| u64::from((mask >> i) & 1)).collect();
            let ones = v.iter().sum::<u64>() as usize;
            let mut t = Tracked::new(&c, &mut v);
            oddeven_sort(&c, &mut t, &key64);
            assert!(v[..16 - ones].iter().all(|&x| x == 0), "mask {mask:#x}");
            assert!(v[16 - ones..].iter().all(|&x| x == 1), "mask {mask:#x}");
        }
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let mut v: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(48271) % 65537)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.run(|p| {
            let mut t = Tracked::new(p, &mut v);
            oddeven_sort(p, &mut t, &key64);
        });
        assert_eq!(v, expect);
    }

    proptest! {
        #[test]
        fn prop_sorts(v in proptest::collection::vec(any::<u64>(), 0..200)) {
            let n = v.len().next_power_of_two().max(1);
            let mut padded = v.clone();
            padded.resize(n, u64::MAX);
            let c = SeqCtx::new();
            let mut t = Tracked::new(&c, &mut padded);
            oddeven_sort(&c, &mut t, &key64);
            let mut expect = v;
            expect.sort_unstable();
            prop_assert_eq!(&padded[..expect.len()], &expect[..]);
        }
    }
}
