//! Parallel-loop helpers built purely from binary `join`.
//!
//! Every helper expands into a balanced binary fork tree, so a loop over `n`
//! items contributes `O(log n)` to the span plus the per-leaf cost — the
//! standard "fork and join k tasks in a binary-tree fashion" convention the
//! paper uses throughout its pseudocode.

use crate::ctx::Ctx;

/// Parallel `for i in lo..hi { f(ctx, i) }` with sequential leaves of at
/// most `grain` iterations.
pub fn par_for<C: Ctx, F>(c: &C, lo: usize, hi: usize, grain: usize, f: &F)
where
    F: Fn(&C, usize) + Sync,
{
    let grain = grain.max(1);
    if hi <= lo {
        return;
    }
    if hi - lo <= grain {
        for i in lo..hi {
            f(c, i);
        }
    } else {
        let mid = lo + (hi - lo) / 2;
        c.join(
            |c| par_for(c, lo, mid, grain, f),
            |c| par_for(c, mid, hi, grain, f),
        );
    }
}

/// Parallel map-reduce over `lo..hi`: `reduce(map(lo), map(lo+1), …)`.
/// Returns `None` on an empty range. `reduce` must be associative.
pub fn par_reduce<C: Ctx, T, M, R>(
    c: &C,
    lo: usize,
    hi: usize,
    grain: usize,
    map: &M,
    reduce: &R,
) -> Option<T>
where
    T: Send,
    M: Fn(&C, usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    let grain = grain.max(1);
    if hi <= lo {
        return None;
    }
    if hi - lo <= grain {
        let mut acc = map(c, lo);
        for i in lo + 1..hi {
            acc = reduce(acc, map(c, i));
        }
        return Some(acc);
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = c.join(
        |c| par_reduce(c, lo, mid, grain, map, reduce),
        |c| par_reduce(c, mid, hi, grain, map, reduce),
    );
    match (a, b) {
        (Some(a), Some(b)) => Some(reduce(a, b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// Split `data` into `nchunks` nearly equal contiguous chunks (chunk `i`
/// covering `[i·len/n, (i+1)·len/n)`) and run `f(ctx, chunk_index, chunk)`
/// on each, in parallel.
pub fn par_chunks_mut<C: Ctx, T, F>(c: &C, data: &mut [T], nchunks: usize, f: &F)
where
    T: Send,
    F: Fn(&C, usize, &mut [T]) + Sync,
{
    let total = data.len();
    if total == 0 {
        return;
    }
    let nchunks = nchunks.clamp(1, total);

    fn go<C: Ctx, T: Send, F: Fn(&C, usize, &mut [T]) + Sync>(
        c: &C,
        data: &mut [T],
        first: usize,
        count: usize,
        total: usize,
        nchunks: usize,
        f: &F,
    ) {
        if count == 1 {
            f(c, first, data);
            return;
        }
        let left = count / 2;
        let abs_start = first * total / nchunks;
        let abs_mid = (first + left) * total / nchunks;
        let split = abs_mid - abs_start;
        let (lo, hi) = data.split_at_mut(split);
        c.join(
            |c| go(c, lo, first, left, total, nchunks, f),
            |c| go(c, hi, first + left, count - left, total, nchunks, f),
        );
    }

    go(c, data, 0, nchunks, total, nchunks, f);
}

/// Scoped parallel-for over two equal-length slices: run
/// `f(ctx, i, &mut a[i], &mut b[i])` for every `i`, forking in a balanced
/// binary tree (one leaf per element). The zip lets a task own *two*
/// pieces of per-index state — e.g. `dob-store` commits every shard in
/// parallel by zipping `&mut [Shard]` with the routed per-shard batches.
/// All borrows are plain slice splits, so the parallelism is scoped: the
/// call returns only after every leaf has run.
///
/// Meant for *coarse* per-element tasks (each leaf here is a whole shard
/// commit), so there is deliberately no grain: for fine-grained loops over
/// many elements use [`par_for`]/[`par_chunks_mut`], which amortize task
/// overhead with [`crate::grain_for`]-sized leaves.
pub fn par_zip_mut<C: Ctx, A, B, F>(c: &C, a: &mut [A], b: &mut [B], f: &F)
where
    A: Send,
    B: Send,
    F: Fn(&C, usize, &mut A, &mut B) + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip_mut slices must zip exactly");

    fn go<C: Ctx, A: Send, B: Send, F: Fn(&C, usize, &mut A, &mut B) + Sync>(
        c: &C,
        a: &mut [A],
        b: &mut [B],
        first: usize,
        f: &F,
    ) {
        match a.len() {
            0 => {}
            1 => f(c, first, &mut a[0], &mut b[0]),
            n => {
                let mid = n / 2;
                let (a0, a1) = a.split_at_mut(mid);
                let (b0, b1) = b.split_at_mut(mid);
                c.join(
                    move |c| go(c, a0, b0, first, f),
                    move |c| go(c, a1, b1, first + mid, f),
                );
            }
        }
    }

    go(c, a, b, 0, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqCtx;

    #[test]
    fn par_reduce_sums() {
        let c = SeqCtx::new();
        let s = par_reduce(&c, 0, 1000, 7, &|_, i| i as u64, &|a, b| a + b);
        assert_eq!(s, Some(499_500));
    }

    #[test]
    fn par_reduce_empty_is_none() {
        let c = SeqCtx::new();
        assert_eq!(par_reduce(&c, 5, 5, 1, &|_, i| i, &|a, _| a), None);
    }

    #[test]
    fn par_for_visits_all() {
        let c = SeqCtx::new();
        let mut seen = vec![false; 100];
        let cell = std::sync::Mutex::new(&mut seen);
        par_for(&c, 0, 100, 3, &|_, i| {
            cell.lock().unwrap()[i] = true;
        });
        assert!(seen.iter().all(|&b| b));
    }
}

#[cfg(test)]
mod chunk_tests {
    use super::*;
    use crate::pool::Pool;
    use crate::seq::SeqCtx;

    #[test]
    fn par_chunks_mut_covers_slice_with_balanced_chunks() {
        let c = SeqCtx::new();
        let mut v = vec![0u32; 103];
        par_chunks_mut(&c, &mut v, 7, &|_, idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx as u32 + 1;
            }
        });
        assert!(v.iter().all(|&x| (1..=7).contains(&x)));
        // Balanced: chunk sizes differ by at most 1.
        let mut counts = [0usize; 8];
        for &x in &v {
            counts[x as usize] += 1;
        }
        let sizes: Vec<usize> = counts[1..=7].to_vec();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(mx - mn <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn par_chunks_mut_more_chunks_than_items() {
        let c = SeqCtx::new();
        let mut v = vec![0u8; 3];
        par_chunks_mut(&c, &mut v, 10, &|_, _, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert_eq!(v, vec![1, 1, 1]);
    }

    #[test]
    fn par_chunks_mut_parallel_disjointness() {
        let pool = Pool::new(4);
        let mut v = vec![0u64; 10_000];
        pool.run(|p| {
            par_chunks_mut(p, &mut v, 64, &|_, _, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1;
                }
            });
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_zip_mut_pairs_indices() {
        let c = SeqCtx::new();
        let mut a: Vec<u64> = (0..37).collect();
        let mut b = vec![0u64; 37];
        par_zip_mut(&c, &mut a, &mut b, &|_, i, x, y| {
            *x += 1;
            *y = i as u64 * 10;
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
        assert!(b.iter().enumerate().all(|(i, &y)| y == i as u64 * 10));
    }

    #[test]
    fn par_zip_mut_runs_on_the_pool() {
        let pool = Pool::new(4);
        let mut a = vec![1u64; 64];
        let mut b: Vec<Vec<u64>> = (0..64).map(|i| vec![i]).collect();
        pool.run(|p| {
            par_zip_mut(p, &mut a, &mut b, &|_, i, x, ys| {
                *x += ys[0];
                ys.push(i as u64);
            });
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == 1 + i as u64));
        assert!(b
            .iter()
            .enumerate()
            .all(|(i, ys)| ys == &[i as u64, i as u64]));
    }

    #[test]
    fn par_zip_mut_empty_is_noop() {
        let c = SeqCtx::new();
        let mut a: Vec<u8> = vec![];
        let mut b: Vec<u8> = vec![];
        par_zip_mut(&c, &mut a, &mut b, &|_, _, _, _| unreachable!());
    }

    #[test]
    fn deeply_nested_joins_do_not_overflow_reasonable_depth() {
        let pool = Pool::new(2);
        fn deep(c: &Pool, d: u32) -> u32 {
            if d == 0 {
                return 0;
            }
            let (a, _) = c.join(|c| deep(c, d - 1), |_| 0u32);
            a + 1
        }
        assert_eq!(pool.run(|p| deep(p, 500)), 500);
    }
}
