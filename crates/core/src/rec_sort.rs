//! REC-SORT (§E.2): a conceptually simple, cache-agnostic binary fork-join
//! sorter for *randomly permuted* inputs — the paper's practical
//! replacement for SPMS as the final phase of oblivious sorting.
//!
//! Structure: identical to REC-ORBA's recursive butterfly, but an element's
//! destination bin at each level is determined by a sorted array of
//! *pivots* (approximate `Θ(n/Z)`-quantiles drawn from a random sample)
//! instead of random label bits. Bins have a fixed capacity with constant
//! slack over the expected load; the §E.2 Chernoff argument shows overflow
//! is negligible when the input order is random and keys are distinct
//! (callers guarantee distinctness with composite tiebreak keys). Overflow
//! is detected and surfaces as [`OblivError::PivotOverflow`]; callers retry
//! with fresh sample coins.
//!
//! REC-SORT need not be data-oblivious (the input permutation already
//! decorrelates its trace from the data), which is why base cases may
//! binary-search and reveal loads — and why they sort only their reals:
//! a base case packs the reals of its bins (`pack_bins`, the readout's
//! pattern), sorts those `total` slots instead of the whole 4×-padded
//! layout, and deals the sorted run back into bins.
//!
//! When the sample yields no more than `γ` bins the whole butterfly would
//! be that one base case — pack all `n` reals, sort them, deal them into
//! 4×-capacity bins, read them straight back — so the 4×-padded layout is
//! not staged at all: the input goes through the same network directly
//! (`sort_small`), and no pivot is ever consulted (n = 65536 at the
//! paper's parameters: 14 regions → 16 bins ≤ γ = 32).
//!
//! A slot's `sk` is its `item.key`, so `u128::MAX` — the filler mark — is
//! reserved: [`rec_sort_items`] rejects it up front with
//! [`OblivError::ReservedKey`] instead of losing the element. An item
//! with a zero-sized payload is nothing but its key, so the one-network
//! sort builds no slots for it: it sorts the items themselves, 16 bytes a
//! comparator operand, in place.
//!
//! Layout invariant: every bin holds its reals in front of its fillers —
//! true of the initial layout and of every base-case output, and preserved
//! by the bin-granular transposes. Packing and readout rely on it.

use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::slot::{as_lanes, Item, Slot, Val};
use fj::{grain_for, par_for, par_reduce, Ctx};
use metrics::{par_fill, par_tracked_chunks, ScratchPool, Tracked};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sortnet::{par_rows2, transpose};
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, Ordering};

/// Inputs at or below this size skip the butterfly and use one padded
/// bitonic sort.
const SMALL: usize = 2048;

/// A window into the global pivot array: the boundary between this
/// subproblem's bins `t-1` and `t` is `pivots[r0 + t·stride − 1]`.
#[derive(Clone, Copy)]
struct PivotView {
    r0: usize,
    stride: usize,
}

impl PivotView {
    /// Key of boundary `t` (1 ≤ t < nbins); out-of-range ⇒ +∞.
    fn boundary<C: Ctx>(&self, c: &C, pivots: &Tracked<'_, u128>, t: usize) -> u128 {
        let idx = self.r0 + t * self.stride - 1;
        if idx < pivots.len() {
            pivots.get(c, idx)
        } else {
            u128::MAX
        }
    }
}

/// Sort `items` ascending by key. Keys should be distinct (use
/// [`crate::slot::composite_key`]); `items` should be in random order for
/// the performance (and overflow) guarantees, per §E.2.
///
/// On `Err` `items` is left **unmodified**: a key of `u128::MAX`
/// ([`OblivError::ReservedKey`]) is rejected by one fixed-pattern pass
/// before anything moves, and on pivot overflow the butterfly has worked
/// entirely in leased scratch — only the final readout (which runs after
/// the overflow check) writes back — so callers retry in place with fresh
/// coins, no defensive clone needed.
pub fn rec_sort_items<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &mut [Item<V>],
    engine: Engine,
    gamma: usize,
    seed: u64,
) -> Result<()> {
    let n = items.len();
    {
        let t = Tracked::new(c, items);
        let reserved = |c: &C, i| t.get(c, i).key == u128::MAX;
        if par_reduce(c, 0, n, grain_for(c), &reserved, &|a, b| a | b).unwrap_or(false) {
            return Err(OblivError::ReservedKey);
        }
    }
    if n <= SMALL {
        return sort_small(c, scratch, items, engine);
    }
    let lg = (usize::BITS - n.leading_zeros()) as usize;

    // --- Pivot selection (§E.2): Bernoulli(1/log n) sample, sorted with
    // bitonic; every (log² n)-th sample becomes a pivot. The coins are
    // drawn twice from the same seed — once to size the sample (and with it
    // the bin count), once to fill it.
    let coins = || {
        let mut rng = StdRng::seed_from_u64(seed);
        move || rng.gen_range(0..lg) == 0
    };
    let mut coin = coins();
    let picked = items.iter().filter(|_| coin()).count();
    let stride = lg * lg;
    let regions = picked / stride + 1;
    let nbins = regions.next_power_of_two();
    if nbins <= gamma {
        // One base case would sort everything: skip its staging.
        return sort_small(c, scratch, items, engine);
    }
    let chunk = n.div_ceil(nbins);
    let cap = (4 * chunk).next_power_of_two().max(16);

    let mut sample = scratch.lease(picked, Item::<V>::default());
    let mut coin = coins();
    for (slot, it) in sample.iter_mut().zip(items.iter().filter(|_| coin())) {
        *slot = *it;
    }
    sort_small(c, scratch, &mut sample, engine)?;

    let mut pivots_store = scratch.lease((nbins - 1).max(1), u128::MAX);
    for (p, it) in pivots_store
        .iter_mut()
        .zip(sample.iter().skip(stride - 1).step_by(stride))
    {
        *p = it.key;
    }

    // --- Build the bin layout: β bins of `cap`, input chunked across bins.
    let mut slots = scratch.lease(nbins * cap, Slot::filler());
    {
        // Input chunk `b` fills the front of bin `b`: a strided write, so
        // the raw view.
        let mut t = Tracked::new(c, &mut slots);
        let tr = t.as_raw();
        par_for(c, 0, n, grain_for(c), &|c, i| {
            let (b, off) = (i / chunk, i % chunk);
            // SAFETY: (b, off) pairs are distinct.
            unsafe { tr.set(c, b * cap + off, Slot::keyed(items[i])) };
        });
    }

    // --- Butterfly.
    let overflow = AtomicBool::new(false);
    {
        let pv = Tracked::new(c, &mut pivots_store);
        let mut t = Tracked::new(c, &mut slots);
        let mut scratch_store = scratch.lease(t.len(), Slot::filler());
        let mut tmp = Tracked::new(c, &mut scratch_store);
        rec(
            c,
            scratch,
            t.borrow_mut(),
            tmp.borrow_mut(),
            nbins,
            cap,
            PivotView { r0: 0, stride: 1 },
            &pv,
            engine,
            gamma,
            &overflow,
        );
    }
    if overflow.load(Ordering::Relaxed) {
        return Err(OblivError::PivotOverflow);
    }

    // --- Read out: bins are sorted with reals packed in front.
    {
        let t = Tracked::new(c, &mut slots);
        let mut out_t = Tracked::new(c, items);
        let or = out_t.as_raw();
        let total = pack_bins(c, scratch, &t, nbins, cap, &|c, at, s| {
            // SAFETY: `pack_bins` hands every real a distinct position.
            unsafe { or.set(c, at, s.item) }
        });
        debug_assert_eq!(total, n);
    }
    Ok(())
}

/// Hand the reals of a bin layout (`nbins` bins of `cap` slots, reals in
/// front of each bin) to `emit(c, position, slot)` with the positions
/// `0..total` in bin order, and return `total`. Per-bin loads by binary
/// search, a prefix sum, and one flat parallel pass, so the span stays
/// logarithmic.
fn pack_bins<C: Ctx, V: Val>(
    c: &C,
    pool: &ScratchPool,
    bins: &Tracked<'_, Slot<V>>,
    nbins: usize,
    cap: usize,
    emit: &(impl Fn(&C, usize, Slot<V>) + Sync),
) -> usize {
    // One extra entry: after the exclusive prefix sum it holds the total.
    let mut loads = pool.lease(nbins + 1, 0u64);
    {
        let mut lt = Tracked::new(c, &mut loads);
        metrics::par_fill(c, &mut lt, &|c, b| {
            if b == nbins {
                return 0;
            }
            // First filler of bin b.
            let (mut lo, mut hi) = (b * cap, (b + 1) * cap);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if bins.get(c, mid).is_real() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            (lo - b * cap) as u64
        });
        crate::scan::prefix_sum_in(c, pool, &mut lt, false, crate::scan::Schedule::Tree);
    }
    let offsets = &*loads;
    par_for(c, 0, nbins * cap, grain_for(c), &|c, i| {
        let (b, j) = (i / cap, i % cap);
        let s = bins.get(c, i);
        debug_assert_eq!(
            s.is_real(),
            (j as u64) < offsets[b + 1] - offsets[b],
            "bin {b} does not hold its reals in front"
        );
        if s.is_real() {
            emit(c, offsets[b] as usize + j, s);
        }
    });
    offsets[nbins] as usize
}

/// Network sort for small instances, the pivot sample, and inputs whose
/// butterfly would be a single base case.
///
/// A unit-payload item is nothing but its key (`as_lanes`), so it is
/// sorted as one on the key gate, in place: the record is what the
/// comparators move, and no slot is built. Any other item is staged in
/// slots keyed by `item.key`.
fn sort_small<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &mut [Item<V>],
    engine: Engine,
) -> Result<()> {
    let n = items.len();
    if n <= 1 {
        return Ok(());
    }
    if size_of::<V>() == 0 {
        let mut t = Tracked::new(c, &mut *items);
        if let Some(mut keys) = as_lanes(&mut t) {
            engine.sort_keys(c, scratch, &mut keys);
            return Ok(());
        }
    }
    let mut slots = scratch.lease(n, Slot::filler());
    let mut t = Tracked::new(c, &mut slots);
    let items_ref: &[Item<V>] = items;
    par_fill(c, &mut t, &|_, i| Slot::keyed(items_ref[i]));
    engine.sort_slots(c, scratch, &mut t);
    par_fill(c, &mut Tracked::new(c, items), &|c, i| {
        let s = t.get(c, i);
        debug_assert!(s.is_real());
        s.item
    });
    Ok(())
}

/// Recursive butterfly over bins; see REC-ORBA for the schedule. `slots`
/// holds the result on return.
#[allow(clippy::too_many_arguments)]
fn rec<C: Ctx, V: Val>(
    c: &C,
    pool: &ScratchPool,
    mut slots: Tracked<'_, Slot<V>>,
    mut scratch: Tracked<'_, Slot<V>>,
    nbins: usize,
    cap: usize,
    view: PivotView,
    pivots: &Tracked<'_, u128>,
    engine: Engine,
    gamma: usize,
    overflow: &AtomicBool,
) {
    if nbins <= gamma {
        base_case(
            c,
            pool,
            &mut slots,
            &mut scratch,
            nbins,
            cap,
            view,
            pivots,
            engine,
            overflow,
        );
        return;
    }
    let k = nbins.trailing_zeros();
    let k1 = k.div_ceil(2);
    let b1 = 1usize << k1; // partitions (stage 1), fine bins per row (stage 2)
    let b2 = nbins >> k1; // bins per partition (stage 1 output), rows (stage 2)

    // Stage 1: route within each partition by the coarse boundaries
    // (every b1-th of this subproblem's pivots).
    par_rows2(
        c,
        slots.borrow_mut(),
        scratch.borrow_mut(),
        b1,
        b2 * cap,
        0,
        &|c, _, s, tmp| {
            rec(
                c,
                pool,
                s,
                tmp,
                b2,
                cap,
                PivotView {
                    r0: view.r0,
                    stride: view.stride * b1,
                },
                pivots,
                engine,
                gamma,
                overflow,
            );
        },
    );

    transpose(c, &mut slots, &mut scratch, b1, b2, cap);

    // Stage 2: row q covers this subproblem's regions
    // [q·b1·stride, (q+1)·b1·stride); refine by the fine boundaries.
    par_rows2(
        c,
        scratch.borrow_mut(),
        slots.borrow_mut(),
        b2,
        b1 * cap,
        0,
        &|c, q, s, tmp| {
            rec(
                c,
                pool,
                s,
                tmp,
                b1,
                cap,
                PivotView {
                    r0: view.r0 + q * b1 * view.stride,
                    stride: view.stride,
                },
                pivots,
                engine,
                gamma,
                overflow,
            );
        },
    );

    // Copy the result back into `slots`.
    par_tracked_chunks(c, slots, cap, &|c, b, mut bin| {
        bin.copy_from(c, &scratch, b * cap, 0, cap);
    });
}

/// Base case: pack the group's reals into `scratch`, sort them, then deal
/// the sorted run back into `slots`' bins at the pivot boundaries (binary
/// searches — the input permutation makes this safe to do non-obliviously).
#[allow(clippy::too_many_arguments)]
fn base_case<C: Ctx, V: Val>(
    c: &C,
    pool: &ScratchPool,
    slots: &mut Tracked<'_, Slot<V>>,
    scratch: &mut Tracked<'_, Slot<V>>,
    nbins: usize,
    cap: usize,
    view: PivotView,
    pivots: &Tracked<'_, u128>,
    engine: Engine,
    overflow: &AtomicBool,
) {
    let dr = scratch.as_raw();
    let total = pack_bins(c, pool, slots, nbins, cap, &|c, at, s| {
        // SAFETY: `pack_bins` hands every real a distinct position.
        unsafe { dr.set(c, at, s) }
    });
    let mut run = scratch.range(0, total);
    engine.sort_slots(c, pool, &mut run);

    // Boundary positions via binary search (upper bound of each pivot key).
    let mut pos = pool.lease(nbins + 1, 0usize);
    pos[nbins] = total;
    for (t, p) in pos.iter_mut().enumerate().take(nbins).skip(1) {
        let key = view.boundary(c, pivots, t);
        let mut lo = 0;
        let mut hi = total;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if run.get(c, mid).sk <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        *p = lo;
    }
    let pos = &*pos;
    if pos.windows(2).any(|w| w[1] - w[0] > cap) {
        overflow.store(true, Ordering::Relaxed);
    }
    // Deal the sorted segments into the fixed-capacity bins of `slots`
    // (an overflowing bin keeps its first `cap`; the attempt is void).
    par_fill(c, slots, &|c, i| {
        let (b, j) = (i / cap, i % cap);
        if j < pos[b + 1] - pos[b] {
            run.get(c, pos[b] + j)
        } else {
            Slot::filler()
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::with_retries;
    use crate::slot::composite_key;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use rand::seq::SliceRandom;

    fn shuffled_items(n: usize, seed: u64) -> Vec<Item<u64>> {
        let mut v: Vec<Item<u64>> = (0..n as u64)
            .map(|i| Item::new(composite_key(i.wrapping_mul(2654435761) % (n as u64), i), i))
            .collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    fn assert_sorted<V: Val>(items: &[Item<V>]) {
        assert!(items.windows(2).all(|w| w[0].key <= w[1].key), "not sorted");
    }

    #[test]
    fn sorts_small_inputs() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [0usize, 1, 2, 17, 100, 1000, 2048] {
            let mut items = shuffled_items(n, 3);
            rec_sort_items(&c, &sp, &mut items, Engine::BitonicRec, 16, 5).unwrap();
            assert_sorted(&items);
            assert_eq!(items.len(), n);
        }
    }

    #[test]
    fn sorts_large_input_through_butterfly() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let n = 40_000;
        let mut items = shuffled_items(n, 11);
        // Retries sort in place: a failed attempt leaves `items` untouched.
        let (_, attempts) = with_retries(16, |a| {
            rec_sort_items(&c, &sp, &mut items, Engine::BitonicRec, 16, 100 + a as u64)
        });
        assert!(attempts <= 3, "needed {attempts} attempts");
        assert_sorted(&items);
        let mut vals: Vec<u64> = items.iter().map(|i| i.val).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn reserved_key_is_rejected_and_leaves_the_input_alone() {
        // On the small path and above it, wherever the key sits.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [1usize, 100, 5000] {
            for at in [0, n / 2, n - 1] {
                let mut items = shuffled_items(n, 3);
                items[at].key = u128::MAX;
                let before = items.clone();
                assert_eq!(
                    rec_sort_items(&c, &sp, &mut items, Engine::BitonicRec, 16, 5),
                    Err(OblivError::ReservedKey)
                );
                assert_eq!(items, before, "n = {n}, at = {at}");
            }
        }
        // The largest admissible key is an ordinary key.
        let mut items = shuffled_items(100, 3);
        items[7].key = u128::MAX - 1;
        rec_sort_items(&c, &sp, &mut items, Engine::BitonicRec, 16, 5).unwrap();
        assert_sorted(&items);
        assert_eq!(items[99].key, u128::MAX - 1);
    }

    #[test]
    fn shortcut_and_butterfly_agree_on_each_side_of_the_gamma_boundary() {
        // n = 8192 samples ≈ 585 → 3–4 regions → 4 bins; n = 20000 samples
        // ≈ 1333 → 6–7 regions → 8 bins. At γ = 4 the first is one base case
        // (the shortcut) and the second a real butterfly; a smaller γ forces
        // the butterfly on the first, a larger one the shortcut on the
        // second. Same input and seeds ⇒ identical output every way.
        let sp = ScratchPool::new();
        let comparisons = |n: usize, gamma: usize| {
            let mut items = shuffled_items(n, 17);
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                with_retries(16, |a| {
                    rec_sort_items(c, &sp, &mut items, Engine::BitonicRec, gamma, 40 + a as u64)
                })
            });
            (items, rep.comparisons)
        };
        let network = |m: usize| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut v = vec![0u128; m];
                Engine::BitonicRec.sort_keys(c, &sp, &mut Tracked::new(c, &mut v));
            });
            rep.comparisons
        };
        for (n, shortcut_gamma, butterfly_gamma) in [(8192usize, 4usize, 2usize), (20000, 8, 4)] {
            let (direct, cmp_direct) = comparisons(n, shortcut_gamma);
            let (staged, cmp_staged) = comparisons(n, butterfly_gamma);
            assert_sorted(&direct);
            assert!(direct == staged, "n = {n}: outputs differ");
            // The shortcut is exactly one network over the input; the
            // butterfly also sorts its pivot sample.
            assert_eq!(cmp_direct, network(n), "n = {n}");
            assert_ne!(
                cmp_staged, cmp_direct,
                "n = {n}: γ did not force the butterfly"
            );
        }
    }

    #[test]
    fn unit_items_sort_as_keys_on_the_closure_gates_trace() {
        // `Item<()>` is its key: the small sort runs the key gate in place
        // and must leave the closure gate's keys, trace and every counter —
        // the same network over the same buffer. Duplicates and `u128::MAX
        // − 1` included; at other sizes the keys sort the same.
        use metrics::{measure, CacheConfig, TraceMode};
        let keys = |n: u64| -> Vec<Item<()>> {
            (0..n)
                .map(|i| match i % 7 {
                    0 => Item::new(u128::MAX - 1, ()),
                    _ => Item::new(composite_key(i.wrapping_mul(2654435761) % 61, i % 5), ()),
                })
                .collect()
        };
        let run = |mut items: Vec<Item<()>>, as_keys: bool| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                if as_keys {
                    sort_small(c, &sp, &mut items, Engine::BitonicRec).unwrap();
                } else {
                    sortnet::sort_slice_rec_in(c, &sp, &mut items, &|it: &Item<()>| it.key, true);
                }
            });
            let costs = [
                rep.trace_hash,
                rep.trace_len,
                rep.work,
                rep.span,
                rep.cache_misses,
            ];
            (items, costs, rep.comparisons)
        };
        let (small, by_closure) = (run(keys(4096), true), run(keys(4096), false));
        assert!(small == by_closure);
        assert_sorted(&small.0);
        for n in [3u64, 100, 3000] {
            let (mut got, mut expect) = (keys(n), keys(n));
            sort_small(
                &SeqCtx::new(),
                &ScratchPool::new(),
                &mut got,
                Engine::BitonicRec,
            )
            .unwrap();
            expect.sort_by_key(|it| it.key);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn parallel_rec_sort() {
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let n = 30_000;
        let mut items = shuffled_items(n, 23);
        pool.run(|c| {
            with_retries(16, |a| {
                rec_sort_items(c, &sp, &mut items, Engine::BitonicRec, 16, 7 + a as u64)
            })
        });
        assert_sorted(&items);
    }

    #[test]
    fn handles_duplicate_primary_keys_with_tiebreaks() {
        let c = SeqCtx::new();
        let n = 20_000usize;
        // Only 4 distinct primary keys; composite keys stay distinct.
        let mut items: Vec<Item<u64>> = (0..n as u64)
            .map(|i| Item::new(composite_key(i % 4, i), i))
            .collect();
        items.shuffle(&mut StdRng::seed_from_u64(9));
        let sp = ScratchPool::new();
        let (_, _) = with_retries(16, |a| {
            rec_sort_items(&c, &sp, &mut items, Engine::BitonicRec, 16, 55 + a as u64)
        });
        assert_sorted(&items);
    }
}
