//! SIMD-vs-scalar equivalence (DESIGN.md §14): the vectorized
//! compare-exchange backend must be *bit-identical* to the scalar gates —
//! same sorted cells AND same Definition-1 trace (hash, length, work,
//! comparison count) — under fresh and dirtied scratch pools and under
//! both executors (`SeqCtx` and a pinned `Pool(4)`). Randomized inputs
//! drive every comparator outcome class (distinct keys, massed
//! duplicates, fillers with all-ones tags) through both backends.

mod common;

use common::dirty;
use dob::prelude::*;
use proptest::prelude::*;
use sortnet::{bitonic_merge_rec, cells_sort_rec_with, Backend, TagCell};

/// Pack keys into tag cells (`key ‖ index` tags keep comparisons strict;
/// a salted payload lane catches any lane swap in the vector shuffle).
fn cells_of(keys: &[u64]) -> Vec<TagCell> {
    let n = keys.len().next_power_of_two();
    let mut cs: Vec<TagCell> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            TagCell::new(
                ((k as u128) << 64) | i as u128,
                (i as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            )
        })
        .collect();
    cs.resize(n, TagCell::filler());
    cs
}

/// Run one backend's sort under the meter; return everything an adversary
/// or the cost model can see.
fn metered_sort(
    backend: Backend,
    keys: &[u64],
    pool: &ScratchPool,
) -> (Vec<TagCell>, u64, u64, u64, u64) {
    let mut cs = cells_of(keys);
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
        let mut lease = pool.lease(cs.len(), TagCell::filler());
        let mut t = Tracked::new(c, &mut cs);
        let mut tmp = Tracked::new(c, &mut lease);
        cells_sort_rec_with(backend, c, &mut t, &mut tmp, true);
    });
    (cs, rep.trace_hash, rep.trace_len, rep.work, rep.comparisons)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simd_sort_is_bit_identical_to_scalar(
        keys in proptest::collection::vec(0u64..64, 1..300),
    ) {
        // Small key range masses duplicates through the tie paths; the
        // scalar run leases from a fresh pool and the SIMD run from a
        // dirtied one, so stale scratch bytes can't hide behind the
        // comparison either.
        let fresh = ScratchPool::new();
        let dirtied = ScratchPool::new();
        dirty(&dirtied);
        let scalar = metered_sort(Backend::Scalar, &keys, &fresh);
        let simd = metered_sort(Backend::Avx2, &keys, &dirtied);
        prop_assert_eq!(&scalar.0, &simd.0, "sorted cells diverge");
        prop_assert_eq!(
            (scalar.1, scalar.2, scalar.3, scalar.4),
            (simd.1, simd.2, simd.3, simd.4),
            "trace/work/comparisons diverge"
        );
        prop_assert!(scalar.0.windows(2).all(|w| w[0].tag <= w[1].tag));
    }

    #[test]
    fn simd_merge_is_bit_identical_to_scalar(
        keys in proptest::collection::vec(0u64..1000, 2..200),
    ) {
        // Bitonic input: ascending prefix, descending suffix.
        let n = keys.len().next_power_of_two();
        let mut ks = keys;
        ks.resize(n, u64::MAX);
        ks[..n / 2].sort_unstable();
        ks[n / 2..].sort_unstable_by(|a, b| b.cmp(a));
        let cs: Vec<TagCell> = ks
            .iter()
            .map(|&k| TagCell::new((k as u128) << 64, k as u128))
            .collect();
        let run = |backend: Backend| {
            let mut cells = cs.clone();
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut tmp = vec![TagCell::filler(); cells.len()];
                let mut t = Tracked::new(c, &mut cells);
                let mut s = Tracked::new(c, &mut tmp);
                bitonic_merge_rec(c, &mut t, &mut s, &backend, true);
            });
            (cells, rep.trace_hash, rep.trace_len, rep.work)
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Avx2);
        prop_assert_eq!(&scalar.0, &simd.0);
        prop_assert_eq!((scalar.1, scalar.2, scalar.3), (simd.1, simd.2, simd.3));
        prop_assert!(scalar.0.windows(2).all(|w| w[0].tag <= w[1].tag));
    }
}

#[test]
fn backends_agree_under_seqctx_and_pinned_pool() {
    // Executor cross-product: both backends, both executors, one answer.
    fn sort_with<C: Ctx>(c: &C, sp: &ScratchPool, backend: Backend, keys: &[u64]) -> Vec<TagCell> {
        let mut cs = cells_of(keys);
        let mut lease = sp.lease(cs.len(), TagCell::filler());
        {
            let mut t = Tracked::new(c, &mut cs);
            let mut tmp = Tracked::new(c, &mut lease);
            cells_sort_rec_with(backend, c, &mut t, &mut tmp, true);
        }
        cs
    }
    let keys: Vec<u64> = (0..777u64).map(|i| i.wrapping_mul(40503) % 997).collect();
    let sp = ScratchPool::new();
    let seq = SeqCtx::new();
    let pool = Pool::pinned(4);
    let outs = [
        sort_with(&seq, &sp, Backend::Scalar, &keys),
        sort_with(&seq, &sp, Backend::Avx2, &keys),
        sort_with(&pool, &sp, Backend::Scalar, &keys),
        sort_with(&pool, &sp, Backend::Avx2, &keys),
    ];
    assert!(outs[0].windows(2).all(|w| w[0].tag <= w[1].tag));
    for (i, o) in outs.iter().enumerate().skip(1) {
        assert_eq!(&outs[0], o, "executor/backend combination {i} diverged");
    }
}
