//! SIMD-vs-scalar equivalence (DESIGN.md §14): the vectorized
//! compare-exchange backend must be *bit-identical* to the scalar gates —
//! same sorted cells or keys AND same Definition-1 trace (hash, length,
//! work, comparison count) — under fresh and dirtied scratch pools and
//! under both executors (`SeqCtx` and a pinned `Pool(4)`). Randomized
//! inputs drive every comparator outcome class (distinct keys, massed
//! duplicates, fillers with all-ones tags) through both backends, for
//! 32-byte cells and for bare 16-byte keys.

mod common;

use common::dirty;
use dob::prelude::*;
use proptest::prelude::*;
use sortnet::{bitonic_merge_rec, bitonic_sort_rec, cells_sort_rec_with, Backend, TagCell};

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
    fn simd_key_sort_is_bit_identical_to_scalar(
        draws in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..300),
    ) {
        // Bare keys on the key gate: halves drawn from a few values (the
        // sign-flip edges among them) mass duplicates and equal-high ties;
        // padding is the all-ones filler.
        let edge = [0, 1, 1 << 63, u64::MAX];
        let mut keys: Vec<u128> = draws
            .iter()
            .map(|&(kind, hi, lo)| match kind {
                0 => ((edge[(hi % 4) as usize] as u128) << 64) | edge[(lo % 4) as usize] as u128,
                1 => u128::MAX,
                2 => (((hi % 3) as u128) << 64) | (lo % 5) as u128,
                _ => ((hi as u128) << 64) | lo as u128,
            })
            .collect();
        keys.resize(keys.len().next_power_of_two(), u128::MAX);
        let fresh = ScratchPool::new();
        let dirtied = ScratchPool::new();
        dirty(&dirtied);
        let run = |backend: Backend, pool: &ScratchPool| {
            let mut ks = keys.clone();
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut lease = pool.lease(ks.len(), 0u128);
                let mut t = Tracked::new(c, &mut ks);
                let mut tmp = Tracked::new(c, &mut lease);
                bitonic_sort_rec(c, &mut t, &mut tmp, &backend, true);
            });
            (ks, rep.trace_hash, rep.trace_len, rep.work, rep.comparisons)
        };
        let scalar = run(Backend::Scalar, &fresh);
        let simd = run(Backend::Avx2, &dirtied);
        prop_assert_eq!(&scalar, &simd);
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(&scalar.0, &expect);
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
    // The cells' tags as bare keys, 2¹⁴ of them (host tiles on the pool).
    let mut tags: Vec<u128> = (0..1u128 << 14)
        .map(|i| ((i.wrapping_mul(40503) % 997) << 64) | (i % 3))
        .collect();
    tags.push(u128::MAX);
    tags.resize(1 << 15, u128::MAX);
    let on_seq = |backend: Backend| {
        let mut v = tags.clone();
        sortnet::sort_slice_rec_in(&seq, &sp, &mut v, &backend, true);
        v
    };
    let on_pool = |backend: Backend| {
        let mut v = tags.clone();
        pool.run(|c| sortnet::sort_slice_rec_in(c, &sp, &mut v, &backend, true));
        v
    };
    let mut expect = tags.clone();
    expect.sort_unstable();
    for (name, got) in [
        ("scalar, seq", on_seq(Backend::Scalar)),
        ("avx2, seq", on_seq(Backend::Avx2)),
        ("scalar, pool", on_pool(Backend::Scalar)),
        ("avx2, pool", on_pool(Backend::Avx2)),
    ] {
        assert!(got == expect, "keys: {name} diverged");
    }
}
