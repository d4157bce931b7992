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
//! Two properties make the cells a drop-in for the `Slot` networks:
//!
//! * **Same schedule.** [`cells_sort_rec`]/[`cells_merge_rec`] evaluate the
//!   §E.1 recursive bitonic network with the same base-case size (both
//!   ask [`fj::base_for`]: 32 in the model, an L1's worth on a host) and
//!   the same transpose blocking as the generic `bitonic_sort_rec`, so the
//!   comparator sequence — and hence the adversary trace shape — is the
//!   same function of `n`. A unit test pins comparator-count parity
//!   against the generic network; keep the two drivers in lockstep when
//!   touching either.
//! * **Branchless exchange.** [`cex_cell_raw`] routes both lanes with
//!   [`select_u128`] masks: two reads, one compare, four selects, two
//!   writes, no data-dependent branch — a best-effort hardening the
//!   generic `cex` (which moves `T` through an `if`) cannot offer.
//!
//! Fillers are cells whose tag is `u128::MAX`; real tags must stay below
//! it (every caller packs a key that cannot reach the all-ones pattern).

use crate::bitonic_rec::par_rows2;
use crate::cx::select_u128;
use crate::transpose::transpose;
use crate::vec::{active_backend, cex_cells_slab_with, Backend};
use fj::{base_for, counters, Ctx};
use metrics::{RawTracked, Tracked};
use std::mem::size_of;

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

/// Key extractor for driving the *generic* networks with cells (the
/// engines without a specialized cell implementation use this).
#[inline]
pub fn tag_of(cell: &TagCell) -> u128 {
    cell.tag
}

/// Branchless compare-exchange of cells `i` and `j`: the smaller tag ends
/// at `i` if `up`. Both lanes are routed with [`select_u128`] masks —
/// always two reads, four selects and two writes, no data-dependent branch.
///
/// # Safety
/// No concurrent task may access indices `i` or `j`.
#[inline]
pub unsafe fn cex_cell_raw<C: Ctx>(c: &C, t: &RawTracked<TagCell>, i: usize, j: usize, up: bool) {
    let a = t.get(c, i);
    let b = t.get(c, j);
    c.work(1);
    c.count(counters::COMPARISONS, 1);
    let swap = (a.tag > b.tag) == up;
    t.set(
        c,
        i,
        TagCell {
            tag: select_u128(swap, a.tag, b.tag),
            aux: select_u128(swap, a.aux, b.aux),
        },
    );
    t.set(
        c,
        j,
        TagCell {
            tag: select_u128(swap, b.tag, a.tag),
            aux: select_u128(swap, b.aux, a.aux),
        },
    );
}

/// [`cex_cell_raw`] through a tracked slice.
#[inline]
pub fn cex_cell<C: Ctx>(c: &C, t: &mut Tracked<'_, TagCell>, i: usize, j: usize, up: bool) {
    // SAFETY: exclusive access via &mut.
    unsafe { cex_cell_raw(c, &t.as_raw(), i, j, up) }
}

/// Sequential bitonic sort of a power-of-two cell slice (the base case).
///
/// Each `(k, j)` level is walked as slabs of `j` consecutive pairs with a
/// constant direction and handed to the batched compare-exchange kernel
/// ([`crate::vec::cex_cells_slab`]), which visits the identical pair
/// sequence the classic `i ^ j` loop visits — the slab decomposition
/// only regroups it.
pub fn cells_sort_seq<C: Ctx>(c: &C, t: &mut Tracked<'_, TagCell>, up: bool) {
    cells_sort_seq_with(active_backend(), c, t, up)
}

/// [`cells_sort_seq`] with an explicit compare-exchange backend.
pub fn cells_sort_seq_with<C: Ctx>(
    backend: Backend,
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    let n = t.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "cell sort needs power-of-two, got {n}");
    c.count(counters::SORTS, 1);
    let raw = t.as_raw();
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j >= 1 {
            // Level (k, j): pairs (i, i ^ j) for every i with bit j clear,
            // i.e. slabs of j consecutive pairs starting at multiples of
            // 2j. Within a slab the direction ((i & k) == 0) == up is
            // constant because i & k is (k ≥ 2j, so bits below bit(j)
            // cannot reach bit(k)).
            let mut s = 0;
            while s < n {
                let dir = ((s & k) == 0) == up;
                // SAFETY: sequential evaluation.
                unsafe { cex_cells_slab_with(backend, c, &raw, s, j, dir) };
                s += 2 * j;
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Sequential bitonic merge of a bitonic power-of-two cell slice. Like
/// [`cells_sort_seq`], each halving level runs as batched slabs.
pub fn cells_merge_seq<C: Ctx>(c: &C, t: &mut Tracked<'_, TagCell>, up: bool) {
    cells_merge_seq_with(active_backend(), c, t, up)
}

/// [`cells_merge_seq`] with an explicit compare-exchange backend.
pub fn cells_merge_seq_with<C: Ctx>(
    backend: Backend,
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    let m = t.len();
    if m <= 1 {
        return;
    }
    assert!(m.is_power_of_two());
    let raw = t.as_raw();
    let mut d = m / 2;
    while d >= 1 {
        let mut s = 0;
        while s < m {
            // SAFETY: sequential evaluation.
            unsafe { cex_cells_slab_with(backend, c, &raw, s, d, up) };
            s += 2 * d;
        }
        d /= 2;
    }
}

/// Cache-agnostic recursive bitonic merge over cells — the §E.1.2
/// transpose blocking of [`crate::bitonic_merge_rec`], with the branchless
/// cell base case. `t` must hold a bitonic sequence of power-of-two
/// length; `tmp` is equally sized scratch (garbage on return).
pub fn cells_merge_rec<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    cells_merge_rec_with(active_backend(), c, t, tmp, up)
}

/// [`cells_merge_rec`] with an explicit compare-exchange backend.
pub fn cells_merge_rec_with<C: Ctx>(
    backend: Backend,
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    let m = t.len();
    debug_assert_eq!(tmp.len(), m);
    if m <= base_for(c, size_of::<TagCell>()) {
        cells_merge_seq_with(backend, c, t, up);
        return;
    }
    debug_assert!(m.is_power_of_two());
    let k = m.trailing_zeros() as usize;
    let cdim = 1usize << (k / 2);
    let rdim = m / cdim;

    transpose(c, t, tmp, rdim, cdim, 1);
    par_rows2(
        c,
        tmp.borrow_mut(),
        t.borrow_mut(),
        cdim,
        rdim,
        0,
        &|c, _, mut row, mut scratch| {
            cells_merge_rec_with(backend, c, &mut row, &mut scratch, up);
        },
    );

    transpose(c, tmp, t, cdim, rdim, 1);
    par_rows2(
        c,
        t.borrow_mut(),
        tmp.borrow_mut(),
        rdim,
        cdim,
        0,
        &|c, _, mut row, mut scratch| {
            cells_merge_rec_with(backend, c, &mut row, &mut scratch, up);
        },
    );
}

/// Cache-agnostic recursive bitonic sort over cells (§E.1.1 on the packed
/// representation): same schedule as [`crate::bitonic_sort_rec`], 32-byte
/// elements, branchless exchanges.
pub fn cells_sort_rec<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    cells_sort_rec_with(active_backend(), c, t, tmp, up)
}

/// [`cells_sort_rec`] with an explicit compare-exchange backend.
pub fn cells_sort_rec_with<C: Ctx>(
    backend: Backend,
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    tmp: &mut Tracked<'_, TagCell>,
    up: bool,
) {
    let n = t.len();
    debug_assert_eq!(tmp.len(), n);
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "bitonic cell sort requires power-of-two length, got {n}"
    );
    if n <= base_for(c, size_of::<TagCell>()) {
        cells_sort_seq_with(backend, c, t, up);
        return;
    }
    c.count(counters::SORTS, 1);
    {
        let (t_lo, t_hi) = t.split_at_mut(n / 2);
        let (s_lo, s_hi) = tmp.split_at_mut(n / 2);
        c.join(
            move |c| {
                let (mut t_lo, mut s_lo) = (t_lo, s_lo);
                cells_sort_rec_with(backend, c, &mut t_lo, &mut s_lo, up);
            },
            move |c| {
                let (mut t_hi, mut s_hi) = (t_hi, s_hi);
                cells_sort_rec_with(backend, c, &mut t_hi, &mut s_hi, !up);
            },
        );
    }
    cells_merge_rec_with(backend, c, t, tmp, up);
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn same_comparator_schedule_as_generic_network() {
        // The specialized cell network must evaluate exactly as many
        // comparators as the generic recursive bitonic at every size.
        for n in [32usize, 64, 1024, 4096] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(40503) >> 3).collect();
            let (_, generic) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut v = keys.clone();
                crate::sort_slice_rec(c, &mut v, &|x: &u64| *x as u128, true);
            });
            let (_, cells) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut cs = cells_of(&keys);
                let mut tmp = vec![TagCell::filler(); n];
                let mut t = Tracked::new(c, &mut cs);
                let mut s = Tracked::new(c, &mut tmp);
                cells_sort_rec(c, &mut t, &mut s, true);
            });
            assert_eq!(generic.comparisons, cells.comparisons, "n = {n}");
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
        cells_sort_seq(&c, &mut t, true);
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
