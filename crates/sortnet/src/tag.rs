//! Packed tag cells: the dense elements of the tag-sort fast path.
//!
//! A comparator network does not care what rides through it — only the
//! keys drive the schedule. The classic tag-sort trick exploits this:
//! instead of pushing a fat record through every compare-exchange layer,
//! callers pack the 128-bit sort key into [`TagCell::tag`] and a 128-bit
//! payload lane into [`TagCell::aux`], sort the dense 32-byte cells, and
//! reconstruct the record from the two lanes afterwards. Relative to the
//! ~96-byte `Slot` records of the store's merge path this cuts the data
//! moved per comparator by 3× and keeps far longer runs L1/L2-resident
//! during the cache-blocked merge layers.
//!
//! Cells have no network of their own: they go through the one §E.1
//! driver ([`bitonic_sort_rec`] / [`bitonic_merge_rec`]) with a
//! [`Backend`] as the gate, so the comparator schedule — and hence the
//! adversary trace shape — is the same function of `n` and the element
//! size as for any other `T`. What the cell gate adds is a **branchless
//! exchange**: both lanes are routed with `select_u128` masks (two reads,
//! one compare, four selects, two writes, no data-dependent branch), a
//! best-effort hardening the closure gates, which move `T` through an
//! `if`, cannot offer — and on AVX2 hardware a vectorized slab
//! ([`crate::vec`]).
//!
//! Fillers are cells whose tag is `u128::MAX`; real tags must stay below
//! it (every caller packs a key that cannot reach the all-ones pattern).

use crate::bitonic_rec::{bitonic_merge_rec, bitonic_sort_rec};
use crate::vec::{active_backend, Backend};
use fj::Ctx;
use metrics::Tracked;

/// A 32-byte comparator-network element: 16-byte sort tag, 16-byte payload.
///
/// `repr(C)` pins the lane layout (`tag` low, `aux` high) so the
/// [`crate::vec`] kernels can treat a cell as one 256-bit vector of
/// `[tag_lo, tag_hi, aux_lo, aux_hi]` u64 lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct TagCell {
    /// The sort key. `u128::MAX` is reserved for fillers.
    pub tag: u128,
    /// The payload lane; rides along untouched by comparisons.
    pub aux: u128,
}

impl TagCell {
    #[inline]
    pub fn new(tag: u128, aux: u128) -> Self {
        TagCell { tag, aux }
    }

    /// The padding element `⊥`: sorts after every real cell.
    #[inline]
    pub fn filler() -> Self {
        TagCell {
            tag: u128::MAX,
            aux: 0,
        }
    }

    #[inline]
    pub fn is_filler(&self) -> bool {
        self.tag == u128::MAX
    }
}

/// [`bitonic_sort_rec`] over cells through the process-wide gate
/// ([`active_backend`]). `tmp` is equally sized scratch.
pub fn cells_sort_rec<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    bitonic_sort_rec(c, t, tmp, &active_backend(), up)
}

/// [`cells_sort_rec`] through an explicit gate (an `Avx2` request runs
/// scalar where AVX2 was not detected).
pub fn cells_sort_rec_with<C: Ctx>(
    backend: Backend,
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    bitonic_sort_rec(c, t, tmp, &backend, up)
}

/// [`bitonic_merge_rec`] over a bitonic cell sequence through the
/// process-wide gate. `tmp` is equally sized scratch.
pub fn cells_merge_rec<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    bitonic_merge_rec(c, t, tmp, &active_backend(), up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cx::Gate;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    fn cells_of(keys: &[u64]) -> Vec<TagCell> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| TagCell::new(((k as u128) << 64) | i as u128, k as u128 ^ 0xABCD))
            .collect()
    }

    fn sort_with_scratch(c: &SeqCtx, cells: &mut [TagCell]) {
        let mut tmp = vec![TagCell::filler(); cells.len()];
        let mut t = Tracked::new(c, cells);
        let mut s = Tracked::new(c, &mut tmp);
        cells_sort_rec(c, &mut t, &mut s, true);
    }

    #[test]
    fn rec_cell_sort_matches_std() {
        let c = SeqCtx::new();
        for n in [1usize, 2, 16, 32, 64, 256, 1024, 4096] {
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 17)
                .collect();
            let mut cells = cells_of(&keys);
            let mut expect = cells.clone();
            expect.sort_by_key(|cell| cell.tag);
            sort_with_scratch(&c, &mut cells);
            assert_eq!(cells, expect, "n = {n}");
        }
    }

    #[test]
    fn aux_lane_rides_with_its_tag() {
        let c = SeqCtx::new();
        let keys: Vec<u64> = (0..512u64).rev().collect();
        let mut cells = cells_of(&keys);
        sort_with_scratch(&c, &mut cells);
        for cell in &cells {
            let k = (cell.tag >> 64) as u64;
            assert_eq!(cell.aux, (k as u128) ^ 0xABCD, "payload divorced its key");
        }
    }

    #[test]
    fn merge_rec_sorts_bitonic_cells() {
        let c = SeqCtx::new();
        let keys: Vec<u64> = (0..512).chain((0..512).rev()).collect();
        let mut cells: Vec<TagCell> = keys
            .iter()
            .map(|&k| TagCell::new(k as u128, k as u128))
            .collect();
        let mut tmp = vec![TagCell::filler(); 1024];
        let mut t = Tracked::new(&c, &mut cells);
        let mut s = Tracked::new(&c, &mut tmp);
        cells_merge_rec(&c, &mut t, &mut s, true);
        assert!(cells.windows(2).all(|w| w[0].tag <= w[1].tag));
    }

    #[test]
    fn key_gate_and_cell_gate_agree() {
        // The closure gate moves whole cells through an `if`; the cell gate
        // routes lanes through masks. Same driver, so they must leave the
        // same cells and the same adversary trace.
        fn run(keys: &[u64], gate: &impl Gate<TagCell>) -> (Vec<TagCell>, u64, u64, u64, u64) {
            let mut cs = cells_of(keys);
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut tmp = vec![TagCell::filler(); keys.len()];
                let mut t = Tracked::new(c, &mut cs);
                let mut s = Tracked::new(c, &mut tmp);
                bitonic_sort_rec(c, &mut t, &mut s, gate, true);
            });
            (cs, rep.trace_hash, rep.trace_len, rep.work, rep.comparisons)
        }
        for n in [32usize, 64, 1024, 4096] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(40503) >> 3).collect();
            assert_eq!(
                run(&keys, &|c: &TagCell| c.tag),
                run(&keys, &Backend::Scalar),
                "n = {n}"
            );
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let n = 1 << 10;
        let run = |keys: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut cs = cells_of(&keys);
                let mut tmp = vec![TagCell::filler(); n];
                let mut t = Tracked::new(c, &mut cs);
                let mut s = Tracked::new(c, &mut tmp);
                cells_sort_rec(c, &mut t, &mut s, true);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let z = run(vec![7u64; n]);
        assert_eq!(a, b);
        assert_eq!(a, z);
    }

    #[test]
    fn parallel_cell_sort_matches() {
        let pool = Pool::new(4);
        let n = 1 << 13;
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(2654435761) >> 5)
            .collect();
        let mut cells = cells_of(&keys);
        let mut expect = cells.clone();
        expect.sort_by_key(|cell| cell.tag);
        let mut tmp = vec![TagCell::filler(); n];
        pool.run(|c| {
            let mut t = Tracked::new(c, &mut cells);
            let mut s = Tracked::new(c, &mut tmp);
            cells_sort_rec(c, &mut t, &mut s, true);
        });
        assert_eq!(cells, expect);
    }

    #[test]
    fn backends_share_outputs_and_traces() {
        // The vectorized sort must be bit-identical to the scalar one in
        // both the sorted cells and the adversary trace.
        let n = 1 << 9;
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(40503) >> 3).collect();
        let run = |backend: Backend| {
            let mut cs = cells_of(&keys);
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut tmp = vec![TagCell::filler(); n];
                let mut t = Tracked::new(c, &mut cs);
                let mut s = Tracked::new(c, &mut tmp);
                cells_sort_rec_with(backend, c, &mut t, &mut s, true);
            });
            (cs, rep.trace_hash, rep.trace_len, rep.work, rep.comparisons)
        };
        assert_eq!(run(Backend::Scalar), run(Backend::Avx2));
    }

    #[test]
    fn fillers_sink_to_the_end() {
        let c = SeqCtx::new();
        let mut cells: Vec<TagCell> = (0..8u64)
            .map(|i| {
                if i % 2 == 0 {
                    TagCell::filler()
                } else {
                    TagCell::new(i as u128, i as u128)
                }
            })
            .collect();
        let mut t = Tracked::new(&c, &mut cells);
        crate::bitonic_sort_seq(&c, &mut t, &active_backend(), true);
        assert!(cells[..4].iter().all(|cell| !cell.is_filler()));
        assert!(cells[4..].iter().all(|cell| cell.is_filler()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_cells_sort(keys in proptest::collection::vec(any::<u64>(), 0..300)) {
            let n = keys.len().next_power_of_two().max(1);
            let mut cells = cells_of(&keys);
            cells.resize(n, TagCell::filler());
            let mut expect = cells.clone();
            expect.sort_by_key(|cell| cell.tag);
            let c = SeqCtx::new();
            sort_with_scratch(&c, &mut cells);
            prop_assert_eq!(cells, expect);
        }
    }
}
