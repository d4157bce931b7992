//! Full oblivious sorting pipelines (§3.3, §3.4).
//!
//! The paper's blueprint: obliviously *randomly permute* the input (ORP =
//! REC-ORBA on labels that carry their own tiebreak), then sort the
//! permuted array with any comparison-based algorithm — the random
//! permutation decorrelates the comparison pattern from the input (made
//! airtight by composite tiebreak keys so all comparisons are strict).
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
use crate::slot::{composite_key, Item, Val};
use fj::Ctx;
use metrics::ScratchPool;

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
    sort_records(c, scratch, data, p, seed, &|&(k, v)| (k, v), &|k, v| (k, v))
}

/// Convenience: obliviously sort plain `u64` keys. The working element is
/// `Item<()>`, so a `Slot` is one 32-byte cell (`sk` + the composite key).
pub fn oblivious_sort_u64<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    keys: &mut [u64],
    p: OSortParams,
    seed: u64,
) -> SortOutcome {
    sort_records(c, scratch, keys, p, seed, &|&k| (k, ()), &|k, ()| k)
}

/// The pipeline behind both entry points: `split` a record into its key
/// and payload, sort `Item`s keyed by (key ‖ input index) — a strict total
/// order for REC-SORT's load balance, stability for callers — and `join`
/// each record back from the key's high half and its payload. The index
/// tiebreak is `< n`, so no composite key is the reserved `u128::MAX` —
/// `u64::MAX` keys included — and REC-SORT's `ReservedKey` cannot fire.
fn sort_records<C: Ctx, T, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut [T],
    p: OSortParams,
    seed: u64,
    split: &impl Fn(&T) -> (u64, V),
    join: &impl Fn(u64, V) -> T,
) -> SortOutcome {
    let mut items = scratch.lease(data.len(), Item::<V>::default());
    for (i, (it, d)) in items.iter_mut().zip(data.iter()).enumerate() {
        let (k, v) = split(d);
        *it = Item::new(composite_key(k, i as u64), v);
    }
    c.charge_par(data.len() as u64);

    let mut permuted = scratch.lease(data.len(), Item::<V>::default());
    let orp_attempts = orp_into(c, scratch, &items, p.orba, seed, &mut permuted);

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
        *out = join((it.key >> 64) as u64, it.val);
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
        // in the input index. Both the small path and the full pipeline.
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
        // network over `next_pow2(n)` slots. The rank pattern of the
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
