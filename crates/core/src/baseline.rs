//! Insecure baseline: classic parallel mergesort (CLRS ch. 27 style).
//!
//! Stands in for SPMS \[CR17b\] as the comparison-based, non-oblivious sorter
//! (see DESIGN.md §4): optimal `O(n log n)` work, polylog span (`O(log³ n)`
//! vs SPMS's `Õ(log n)`), and `O((n/B)·log(n/M))` cache complexity. Every
//! oblivious-vs-insecure comparison in the benches uses the same substitute
//! on both sides, so the paper's headline shape — privacy at matching
//! asymptotics — is preserved.

use crate::slot::{Item, Val};
use fj::{counters, Ctx};
use metrics::Tracked;

const SORT_BASE: usize = 64;
const MERGE_BASE: usize = 64;

/// Sort `items` ascending by key with parallel mergesort.
pub fn par_merge_sort<C: Ctx, V: Val>(c: &C, items: &mut [Item<V>]) {
    let n = items.len();
    if n <= 1 {
        return;
    }
    c.count(counters::SORTS, 1);
    let mut scratch = vec![Item::<V>::default(); n];
    let t = Tracked::new(c, items);
    let s = Tracked::new(c, &mut scratch);
    msort(c, t, s, false);
}

/// Sort the data in `a`; leave the result in `b` if `to_b`, else in `a`.
fn msort<'x, C: Ctx, V: Val>(
    c: &C,
    mut a: Tracked<'x, Item<V>>,
    mut b: Tracked<'x, Item<V>>,
    to_b: bool,
) {
    let n = a.len();
    if n <= SORT_BASE {
        // Leaf: local insertion-style sort through tracked accesses.
        for i in 1..n {
            let x = a.get(c, i);
            let mut j = i;
            while j > 0 {
                let y = a.get(c, j - 1);
                c.count(counters::COMPARISONS, 1);
                c.work(1);
                if y.key <= x.key {
                    break;
                }
                a.set(c, j, y);
                j -= 1;
            }
            a.set(c, j, x);
        }
        if to_b {
            b.copy_from(c, &a, 0, 0, n);
        }
        return;
    }
    let half = n / 2;
    {
        let (a_lo, a_hi) = a.split_at_mut(half);
        let (b_lo, b_hi) = b.split_at_mut(half);
        c.join(
            move |c| msort(c, a_lo, b_lo, !to_b),
            move |c| msort(c, a_hi, b_hi, !to_b),
        );
    }
    // Children left their results in the buffer opposite the target.
    if to_b {
        let (a_lo, a_hi) = a.split_at_mut(half);
        par_merge(c, a_lo, a_hi, b);
    } else {
        let (b_lo, b_hi) = b.split_at_mut(half);
        par_merge(c, b_lo, b_hi, a);
    }
}

/// Merge sorted `x` and `y` into `dst` (parallel divide and conquer).
fn par_merge<'x, C: Ctx, V: Val>(
    c: &C,
    mut x: Tracked<'x, Item<V>>,
    mut y: Tracked<'x, Item<V>>,
    mut dst: Tracked<'x, Item<V>>,
) {
    debug_assert_eq!(x.len() + y.len(), dst.len());
    if x.len() + y.len() <= MERGE_BASE {
        let (mut i, mut j) = (0, 0);
        for k in 0..dst.len() {
            let take_x = if i == x.len() {
                false
            } else if j == y.len() {
                true
            } else {
                c.count(counters::COMPARISONS, 1);
                c.work(1);
                x.get(c, i).key <= y.get(c, j).key
            };
            if take_x {
                dst.set(c, k, x.get(c, i));
                i += 1;
            } else {
                dst.set(c, k, y.get(c, j));
                j += 1;
            }
        }
        return;
    }
    if x.len() < y.len() {
        std::mem::swap(&mut x, &mut y);
    }
    let i = x.len() / 2;
    let pivot = x.get(c, i).key;
    // First position in y with key >= pivot.
    let mut lo = 0;
    let mut hi = y.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        c.count(counters::COMPARISONS, 1);
        c.work(1);
        if y.get(c, mid).key < pivot {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let j = lo;
    let (x_lo, x_hi) = x.split_at_mut(i);
    let (y_lo, y_hi) = y.split_at_mut(j);
    let (d_lo, d_hi) = dst.split_at_mut(i + j);
    c.join(
        move |c| par_merge(c, x_lo, y_lo, d_lo),
        move |c| par_merge(c, x_hi, y_hi, d_hi),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    fn items_from(keys: &[u64]) -> Vec<Item<u64>> {
        keys.iter().map(|&k| Item::new(k as u128, k)).collect()
    }

    #[test]
    fn sorts_various_sizes() {
        let c = SeqCtx::new();
        for n in [0usize, 1, 2, 63, 64, 65, 1000, 10_000] {
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(48271) % 65537)
                .collect();
            let mut items = items_from(&keys);
            par_merge_sort(&c, &mut items);
            assert!(items.windows(2).all(|w| w[0].key <= w[1].key), "n = {n}");
        }
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let keys: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut items = items_from(&keys);
        pool.run(|c| par_merge_sort(c, &mut items));
        assert!(items.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn work_is_n_log_n() {
        let n = 1 << 14;
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            let keys: Vec<u64> = (0..n as u64).rev().collect();
            let mut items = items_from(&keys);
            par_merge_sort(c, &mut items);
        });
        let nlogn = (n as f64) * (n as f64).log2();
        assert!(
            (rep.comparisons as f64) < 3.0 * nlogn,
            "comparisons {}",
            rep.comparisons
        );
        assert!((rep.work as f64) < 40.0 * nlogn, "work {}", rep.work);
    }

    proptest! {
        #[test]
        fn prop_sorts(keys in proptest::collection::vec(any::<u64>(), 0..500)) {
            let c = SeqCtx::new();
            let mut items = items_from(&keys);
            par_merge_sort(&c, &mut items);
            let mut expect = keys;
            expect.sort_unstable();
            let got: Vec<u64> = items.iter().map(|i| i.val).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
