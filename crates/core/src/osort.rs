//! Full oblivious sorting pipelines (§3.3, §3.4).
//!
//! The paper's blueprint: obliviously *randomly permute* the input (ORP =
//! REC-ORBA on labels that carry their own tiebreak), then sort the
//! permuted array with any comparison-based algorithm — the random
//! permutation decorrelates the comparison pattern from the input (made
//! airtight by composite tiebreak keys so all comparisons are strict).
//!
//! The tiebreak is the input index for [`oblivious_sort`], whose callers
//! see stability. [`oblivious_sort_u64`] sorts bare keys, where stability
//! is unobservable, so its record is the `u64` key alone: ORP's bin
//! placements sort 16-byte `label ‖ key` cells, and REC-SORT sorts
//! `key ‖ coin` — a fresh coin per position, drawn after ORP — as 16-byte
//! items in place (DESIGN.md §4 row 8, §10).
//!
//! Two configurations are exposed:
//!
//! * [`OSortParams::practical`] — §3.4: bitonic engine inside ORBA and
//!   REC-SORT as the final sorter. Work `O(n log n log log n)`, span
//!   `Õ(log² n)`, optimal cache complexity. Self-contained and fast in
//!   practice.
//! * [`OSortParams::theory`] — §3.3 with the documented substitutions:
//!   randomized Shellsort stands in for AKS (`O(n log n)` work for the
//!   ORBA phase) and parallel mergesort stands in for SPMS.

use crate::baseline::par_merge_sort;
use crate::engine::Engine;
use crate::error::with_retries;
use crate::orp::orp_into;
use crate::rec_orba::OrbaParams;
use crate::rec_sort::rec_sort_items;
use crate::slot::{composite_key, BareKey, Item, Val};
use fj::Ctx;
use metrics::ScratchPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which comparison sort runs on the permuted array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinalSorter {
    /// REC-SORT (§E.2) — the paper's practical, butterfly-structured,
    /// cache-optimal choice.
    RecSort,
    /// Parallel mergesort — the SPMS substitute (DESIGN.md §4).
    MergeSort,
}

/// Configuration of the full oblivious sort.
#[derive(Clone, Copy, Debug)]
pub struct OSortParams {
    pub orba: OrbaParams,
    pub final_sorter: FinalSorter,
}

impl OSortParams {
    /// The practical variant (§3.4) for inputs of size `n`.
    pub fn practical(n: usize) -> Self {
        OSortParams {
            orba: OrbaParams::for_n(n),
            final_sorter: FinalSorter::RecSort,
        }
    }

    /// The theory variant (§3.3) with the AKS → randomized-Shellsort and
    /// SPMS → mergesort substitutions.
    pub fn theory(n: usize) -> Self {
        OSortParams {
            orba: OrbaParams::for_n(n).with_engine(Engine::Shellsort { seed: 0x5eed }),
            final_sorter: FinalSorter::MergeSort,
        }
    }
}

/// Retry statistics of one oblivious sort (all public outputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortOutcome {
    /// ORP attempts (bin overflow / label collision retries + 1).
    pub orp_attempts: u32,
    /// Final-phase attempts (REC-SORT pivot overflow retries + 1).
    pub sort_attempts: u32,
}

/// Data-obliviously sort `(key, value)` records ascending by key (stable:
/// equal keys keep their input order, thanks to the index tiebreak).
///
/// This is Theorem 3.2 instantiated with the substitutions of DESIGN.md §4.
/// All working storage is leased from `scratch`: after one warm-up call on
/// a given pool the steady state performs an order of magnitude fewer heap
/// allocations (enforced by `tests/alloc_gate.rs`).
pub fn oblivious_sort<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut [(u64, V)],
    p: OSortParams,
    seed: u64,
) -> SortOutcome {
    sort_records(
        c,
        scratch,
        data,
        p,
        seed,
        &|i, &(k, v)| Item::new(composite_key(k, i as u64), v),
        &|_| {},
        &|it| ((it.key >> 64) as u64, it.val),
    )
}

/// Convenience: obliviously sort plain `u64` keys.
///
/// A bare `u64` has no observable stability, so there is no index
/// tiebreak: the record *is* its key (`BareKey` payload), and through ORP
/// every bin placement sorts 16-byte `label ‖ key` cells instead of
/// 32-byte slots. REC-SORT's strict order comes from `key ‖ coin`, one
/// fresh 64-bit coin per position drawn after ORP — independent of the
/// permutation, so REC-SORT's rank vector is uniform for every input, as
/// the index made it (DESIGN.md §4 row 8) — and its network sorts those
/// 16-byte keys in place.
pub fn oblivious_sort_u64<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    keys: &mut [u64],
    p: OSortParams,
    seed: u64,
) -> SortOutcome {
    sort_records(
        c,
        scratch,
        keys,
        p,
        seed,
        &|_, &k| Item::new(k as u128, BareKey),
        &|items| draw_tiebreaks(c, items, seed),
        &|it| (it.key >> 64) as u64,
    )
}

/// Give each permuted bare key its tiebreak: `key ‖ coin`, one uniform
/// coin per position from a stream of its own, below `u64::MAX` so that no
/// composite is the reserved `u128::MAX`. The coins are drawn after ORP
/// and do not depend on it. Neither would do as a tiebreak: the post-ORP
/// position or the label make REC-SORT's rank vector the identity on
/// all-equal keys, and the butterfly's trace would tell "all equal" from
/// "all distinct".
fn draw_tiebreaks<C: Ctx>(c: &C, items: &mut [Item<BareKey>], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7135_b4ea_c015_5eed);
    for it in items.iter_mut() {
        it.key = composite_key(it.key as u64, rng.gen_range(0..u64::MAX));
    }
    c.charge_par(items.len() as u64);
}

/// The pipeline behind both entry points: `split` record `i` into the item
/// ORP permutes, `tiebreak` the permuted items into REC-SORT's strict order
/// — a composite key whose high half is the record's key — and `join`
/// each record back from a sorted item. [`oblivious_sort`] keys by (key ‖
/// input index), a strict total order for REC-SORT's load balance and
/// stability for callers; the index is `< n`, so no composite key is the
/// reserved `u128::MAX` — `u64::MAX` keys included — and REC-SORT's
/// `ReservedKey` cannot fire.
#[allow(clippy::too_many_arguments)]
fn sort_records<C: Ctx, T, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut [T],
    p: OSortParams,
    seed: u64,
    split: &impl Fn(usize, &T) -> Item<V>,
    tiebreak: &impl Fn(&mut [Item<V>]),
    join: &impl Fn(&Item<V>) -> T,
) -> SortOutcome {
    let mut items = scratch.lease(data.len(), Item::<V>::default());
    for (i, (it, d)) in items.iter_mut().zip(data.iter()).enumerate() {
        *it = split(i, d);
    }
    c.charge_par(data.len() as u64);

    let mut permuted = scratch.lease(data.len(), Item::<V>::default());
    let orp_attempts = orp_into(c, scratch, &items, p.orba, seed, &mut permuted);
    tiebreak(&mut permuted);

    let sort_attempts = match p.final_sorter {
        FinalSorter::MergeSort => {
            par_merge_sort(c, &mut permuted);
            1
        }
        FinalSorter::RecSort => {
            // REC-SORT leaves its input untouched on pivot overflow, so the
            // retry loop sorts in place — no per-attempt clone.
            let (_, attempts) = with_retries(64, |a| {
                if a > 0 {
                    c.count(fj::counters::RETRIES, 1);
                }
                rec_sort_items(
                    c,
                    scratch,
                    &mut permuted,
                    p.orba.engine,
                    p.orba.gamma,
                    seed ^ 0xfeed_beef_u64.wrapping_add(a as u64),
                )
            });
            attempts
        }
    };

    for (out, it) in data.iter_mut().zip(permuted.iter()) {
        *out = join(it);
    }
    c.charge_par(data.len() as u64);
    SortOutcome {
        orp_attempts,
        sort_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 20)
            .collect()
    }

    #[test]
    fn max_keys_sort_like_any_other() {
        // `u64::MAX` is not reserved at this level: the composite key ends
        // in a tiebreak below `u64::MAX`. Both the small path and the full
        // pipeline.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [5usize, 3000] {
            let mut v = scrambled(n);
            v[0] = u64::MAX;
            v[n / 2] = u64::MAX;
            let mut expect = v.clone();
            expect.sort_unstable();
            oblivious_sort_u64(&c, &sp, &mut v, OSortParams::practical(n), 42);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn practical_variant_sorts() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [0usize, 1, 2, 100, 1000, 5000] {
            let mut v = scrambled(n);
            let mut expect = v.clone();
            expect.sort_unstable();
            oblivious_sort_u64(&c, &sp, &mut v, OSortParams::practical(n), 42);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn both_entries_sort_through_a_multi_level_orp() {
        // Z = 16, γ = 4: ORP's butterfly is one placement at n = 30 and
        // four levels at n = 300 and 1000, whose last one only sorts its
        // rows. The bare-key entry runs ORP on 16-byte cells, the record
        // entry on slots; both must sort, the record entry stably.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [30usize, 300, 1000] {
            let mut p = OSortParams::practical(n);
            (p.orba.z, p.orba.gamma) = (16, 4);
            let mut keys: Vec<u64> = scrambled(n).iter().map(|k| k % 97).collect();
            let mut recs: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
            let mut expect = recs.clone();
            expect.sort_unstable();
            oblivious_sort_u64(&c, &sp, &mut keys, p, 8);
            oblivious_sort(&c, &sp, &mut recs, p, 8);
            assert!(keys.iter().eq(expect.iter().map(|r| &r.0)), "n = {n}");
            assert_eq!(recs, expect, "n = {n}");
        }
    }

    #[test]
    fn theory_variant_sorts() {
        let c = SeqCtx::new();
        let n = 3000;
        let mut v = scrambled(n);
        let mut expect = v.clone();
        expect.sort_unstable();
        let sp = ScratchPool::new();
        oblivious_sort_u64(&c, &sp, &mut v, OSortParams::theory(n), 7);
        assert_eq!(v, expect);
    }

    #[test]
    fn is_stable_on_duplicate_keys() {
        let c = SeqCtx::new();
        let n = 2000usize;
        let sp = ScratchPool::new();
        let mut data: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 8, i)).collect();
        oblivious_sort(&c, &sp, &mut data, OSortParams::practical(n), 3);
        assert!(data
            .windows(2)
            .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
    }

    #[test]
    fn parallel_sort_matches() {
        let pool = Pool::new(4);
        let n = 20_000;
        let mut v = scrambled(n);
        let mut expect = v.clone();
        expect.sort_unstable();
        let sp = ScratchPool::new();
        pool.run(|c| oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(n), 11));
        assert_eq!(v, expect);
    }

    #[test]
    fn trace_is_input_independent_for_distinct_keys() {
        // For fixed coins, these inputs yield the same trace: the ORP
        // phase unconditionally, and the comparison phase because at this
        // size REC-SORT is a single base case (`β ≤ γ`), one fixed sorting
        // network over the `n` keys. The rank pattern of the
        // permuted array is *not* a function of the seed alone — one
        // permutation applied to the identity and to its reverse gives
        // different rank sequences — so above one base case the pivot
        // routing is distributionally oblivious and only trace lengths
        // agree (`examples/private_analytics.rs`).
        let n = 1500;
        let run = |keys: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut v = keys.clone();
                oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(n), 999);
            });
            (rep.trace_hash, rep.trace_len)
        };
        // Distinct-key inputs: identity, reversed, affine-scrambled.
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let d = run((0..n as u64).map(|i| i * 3 + 1).collect());
        assert_eq!(a, b);
        assert_eq!(a, d);
    }

    #[test]
    fn equal_keys_tiebreak_ranks_are_uniform_over_all_24_orders() {
        // Four equal bare keys: the coins alone rank them, and every one
        // of the 24 rank orders must be equally likely.
        use std::collections::HashMap;
        let c = SeqCtx::new();
        let trials = 4800;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for s in 0..trials {
            let mut items = [Item::new(5, BareKey); 4];
            draw_tiebreaks(&c, &mut items, 31_000 + s);
            assert!(items
                .iter()
                .all(|it| it.key >> 64 == 5 && it.key < u128::MAX));
            let mut order: Vec<usize> = (0..4).collect();
            order.sort_by_key(|&j| items[j].key);
            *counts.entry(order).or_default() += 1;
        }
        assert_eq!(counts.len(), 24, "every order occurs");
        let expect = trials as f64 / 24.0;
        let chi2: f64 = counts
            .values()
            .map(|&ct| (ct as f64 - expect).powi(2) / expect)
            .sum();
        // 23 degrees of freedom: 60 is beyond the 99.99th percentile.
        assert!(chi2 < 60.0, "χ² = {chi2} over {counts:?}");
    }

    #[test]
    fn all_equal_keys_sort_through_the_butterfly() {
        // At n = 20000 the pivot sample makes 8 bins, so γ = 4 forces
        // REC-SORT's butterfly (`rec_sort`'s γ-boundary test). All keys
        // equal: only the tiebreak coins spread them over the bins —
        // without them every key would route to one bin, and every
        // attempt overflow.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let n = 20_000;
        let mut p = OSortParams::practical(n);
        p.orba.gamma = 4;
        for key in [0, 42, u64::MAX] {
            let mut v = vec![key; n];
            let out = oblivious_sort_u64(&c, &sp, &mut v, p, 5);
            assert!(v.iter().all(|&k| k == key));
            assert!(out.sort_attempts <= 3, "{out:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_oblivious_sort_matches_std(keys in proptest::collection::vec(any::<u64>(), 0..600)) {
            let c = SeqCtx::new();
            let mut v = keys.clone();
            let mut expect = keys;
            expect.sort_unstable();
            let sp = ScratchPool::new();
            let params = OSortParams::practical(v.len());
            oblivious_sort_u64(&c, &sp, &mut v, params, 17);
            prop_assert_eq!(v, expect);
        }
    }
}
