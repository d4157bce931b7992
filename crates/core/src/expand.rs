//! Oblivious expansion: bin placement's distribution step, which is the
//! compaction butterfly of [`crate::compact_cells`] run backwards.
//!
//! Input: `nbins · Z` records (both powers of two) whose reals are a packed
//! run at the front, bin by bin — bin 0's reals first, each bin's in the
//! order they are to keep — and every bin's *load* `L[g] ≤ Z`, which is
//! secret. Output: bin `g`'s reals at `[g·Z, g·Z + L[g])` in run order, and
//! fillers everywhere else.
//!
//! **The compaction, backwards.** Compacting the output, stably and with
//! the fillers behind, gives back the input. The compaction butterfly is
//! steered per block: a block's `(pivot, s)` is a function of the ranks of
//! the array being compacted at two positions, and in the expanded layout
//! the rank of position `x = g·Z + o` is `P[g] + min(o, L[g])`, with `P`
//! the exclusive prefix sums of the loads. So the ranks follow from the
//! `G` loads, and nothing is stored per element. Each level's swaps are
//! their own inverse, and their verdicts read only the ranks, never the
//! records. Running the levels top-down with the same verdicts therefore
//! undoes the compaction. Every step permutes the array, so no collision
//! argument is needed. A run that holds more reals than the loads count —
//! an overflowing placement, whose loads were clamped to `Z` — leaves its
//! surplus in filler positions, and loses none.
//!
//! Obliviousness: the loads feed only the swap verdicts, through the
//! ranks. Every level reads and writes both records of every pair, and
//! addresses, loop bounds and the fork tree are functions of `(m, Z)`
//! alone (`obliv_check` row "expand (load-steered bins)").

use crate::scan::map_scan;
use crate::tag_sort::{gather, Swap};
use fj::{base_for, Ctx};
use metrics::{ScratchPool, Tracked};
use sortnet::select_u64;
use std::mem::size_of;

/// Spread the packed run at the front of `t` into its bins of `zcap`
/// records, bin `g` taking the next `loads[g]` reals (module docs).
/// `t.len()` and `zcap` are powers of two, `t.len() < 2³²`, and `loads`
/// holds one word per bin, each at most `zcap`. On return `loads[g]` also
/// holds, in its high 32 bits, the rank of bin `g`'s first real.
///
/// An exclusive scan over the `m/zcap` load words, then `(m/2) log m`
/// swaps and `m − 1` block splits, each split reading two load words; in
/// place, no comparators. The recursion runs depth-first down to
/// [`base_for`]-sized blocks, so `Q = O((m/B) log(m/M))`, and the span is
/// `O(log² m)`. Records are swapped through [`Swap::swap_slab`], and on a
/// host the narrow levels a block at a time through [`Swap::swap_block`]:
/// cells a 256-bit exchange each where the hardware has it.
pub fn expand_by_loads<C: Ctx, E: Swap>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, E>,
    loads: &mut Tracked<'_, u64>,
    zcap: usize,
) {
    let m = t.len();
    assert!(m.is_power_of_two() && zcap.is_power_of_two() && zcap <= m);
    assert_eq!(loads.len(), m / zcap, "one load per bin");
    assert!(m < 1 << 32, "a load word packs two ranks");
    first_ranks(c, scratch, loads, zcap);
    spread(c, t, loads, zcap);
}

/// Each bin's first rank beside its load, `P[g] << 32 | L[g]`: an
/// exclusive scan of the loads at public addresses, span `O(log(m/zcap))`.
fn first_ranks<C: Ctx>(c: &C, scratch: &ScratchPool, loads: &mut Tracked<'_, u64>, zcap: usize) {
    map_scan(
        c,
        scratch,
        loads.borrow_mut(),
        0u64,
        &|a, b| a + b,
        &|c, loads: &Tracked<'_, u64>, k| {
            let load = loads.get(c, k);
            debug_assert!(load <= zcap as u64, "a bin holds {load} > {zcap}");
            (load, ())
        },
        &|c, loads, k, _, first, load, ()| loads.set(c, k, first << 32 | load),
    );
}

/// The butterfly of [`expand_by_loads`] over words that already hold
/// `P[g] << 32 | L[g]`: the rank of position `x = g·Z + o` is
/// `P[g] + min(o, L[g])`.
fn spread<C: Ctx, E: Swap>(c: &C, t: &mut Tracked<'_, E>, loads: &Tracked<'_, u64>, zcap: usize) {
    let lg = zcap.trailing_zeros();
    let rank = |c: &C, x: usize| {
        let word = loads.get(c, x >> lg);
        let (offset, load) = ((x & (zcap - 1)) as u64, word & u32::MAX as u64);
        (word >> 32) + select_u64(offset > load, offset, load)
    };
    let base = base_for(c, size_of::<E>());
    gather(c, &t.as_raw(), &rank, 0, t.len(), base, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{Item, Slot};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use sortnet::TagCell;

    /// The records the expansion moves, built from a key (`None`: filler).
    trait Rec: Swap + PartialEq + std::fmt::Debug {
        fn of(key: Option<u64>) -> Self;
    }
    impl Rec for u128 {
        fn of(key: Option<u64>) -> Self {
            key.map_or(u128::MAX, |k| k as u128)
        }
    }
    impl Rec for TagCell {
        fn of(key: Option<u64>) -> Self {
            key.map_or(TagCell::filler(), |k| TagCell::new(k as u128, !k as u128))
        }
    }
    impl Rec for Slot<u64> {
        fn of(key: Option<u64>) -> Self {
            key.map_or(Slot::filler(), |k| Slot::real(Item::new(k as u128, !k), k))
        }
    }

    /// The packed run of `loads` (real `j` keyed `j`) over `nbins · zcap`
    /// records, and what expanding it must leave.
    fn case<E: Rec>(loads: &[u64], zcap: usize) -> (Vec<E>, Vec<E>) {
        let m = loads.len() * zcap;
        let total: u64 = loads.iter().sum();
        let packed = (0..m as u64).map(|j| E::of((j < total).then_some(j)));
        let mut expect = vec![E::of(None); m];
        let mut next = 0;
        for (g, &load) in loads.iter().enumerate() {
            for o in 0..load as usize {
                expect[g * zcap + o] = E::of(Some(next));
                next += 1;
            }
        }
        (packed.collect(), expect)
    }

    fn run<C: Ctx, E: Rec>(c: &C, v: &mut [E], loads: &[u64], zcap: usize) {
        let mut lane = loads.to_vec();
        expand_by_loads(
            c,
            &ScratchPool::new(),
            &mut Tracked::new(c, v),
            &mut Tracked::new(c, &mut lane),
            zcap,
        );
    }

    fn check<E: Rec>(c: &SeqCtx, loads: &[u64], zcap: usize) {
        let (mut v, expect) = case::<E>(loads, zcap);
        run(c, &mut v, loads, zcap);
        assert_eq!(v, expect, "loads {loads:?} at Z = {zcap}");
    }

    /// Every load vector of `nbins` bins of `zcap`, loads `0..=zcap`.
    fn for_all_loads(nbins: usize, zcap: usize, f: &mut impl FnMut(&[u64])) {
        let mut loads = vec![0u64; nbins];
        loop {
            f(&loads);
            let Some(g) = loads.iter().position(|&l| l < zcap as u64) else {
                return;
            };
            loads[..g].fill(0);
            loads[g] += 1;
        }
    }

    #[test]
    fn expand_exhaustive_small_patterns() {
        // Every load vector of every shape up to 16 records — empty and
        // full bins, one bin, one record a bin — on all three records: the
        // cell gate's swap run, `select_u128` keys and routed slots.
        let c = SeqCtx::new();
        for m in [1usize, 2, 4, 8, 16] {
            for zcap in (0..=m.trailing_zeros()).map(|k| 1 << k) {
                let mut cases = 0u64;
                for_all_loads(m / zcap, zcap, &mut |loads| {
                    check::<u128>(&c, loads, zcap);
                    check::<TagCell>(&c, loads, zcap);
                    check::<Slot<u64>>(&c, loads, zcap);
                    cases += 1;
                });
                assert_eq!(cases, (zcap as u64 + 1).pow((m / zcap) as u32));
            }
        }
    }

    #[test]
    fn a_surplus_run_loses_nothing() {
        // Twelve reals, loads that count eight (an overflow, clamped): the
        // counted ones land in their bins, the rest in filler positions.
        let c = SeqCtx::new();
        let loads = [4u64, 0, 4, 0];
        let mut v: Vec<u128> = (0..16)
            .map(|j| if j < 12 { j } else { u128::MAX })
            .collect();
        run(&c, &mut v, &loads, 4);
        assert_eq!(v[..4], [0, 1, 2, 3]);
        assert_eq!(v[8..12], [4, 5, 6, 7]);
        let mut keys = v.clone();
        keys.sort_unstable();
        let expect: Vec<u128> = (0..12).chain([u128::MAX; 4]).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn parallel_matches_sequential() {
        // 1000 reals over 8 bins of 512: uneven, one bin empty.
        let loads = [200u64, 0, 130, 170, 100, 150, 90, 160];
        let (input, expect) = case::<Slot<u64>>(&loads, 512);
        let mut par = input;
        Pool::new(4).run(|c| run(c, &mut par, &loads, 512));
        assert!(par == expect);
    }

    #[test]
    fn parallel_matches_sequential_above_the_host_base() {
        // m = 65536 crosses the host `base_for` cut and every `par_for`
        // grain: joined recursion above, flat levels inside a block, for
        // every record type.
        fn go<E: Rec>() {
            let (nbins, zcap) = (128usize, 512usize);
            let loads: Vec<u64> = (0..nbins as u64).map(|g| (g * 37) % 513).collect();
            let (input, expect) = case::<E>(&loads, zcap);
            let c = SeqCtx::new();
            let mut seq = input.clone();
            run(&c, &mut seq, &loads, zcap);
            assert!(seq == expect);
            let mut par = input;
            Pool::new(4).run(|c| run(c, &mut par, &loads, zcap));
            assert!(par == expect);
        }
        go::<u128>();
        go::<TagCell>();
        go::<Slot<u64>>();
    }

    #[test]
    fn host_expansion_leaves_the_metered_records() {
        // On a host the narrow levels run block-major — one
        // `Swap::swap_block` a block of 32 cells or 64 keys, the slab loop
        // for slots — and under the meter level by level. Same pairs, same
        // verdicts, so the same records: for every record type, lengths
        // below, at and past a block and past the host base case, bins
        // from one record to several blocks, on a sequential and a
        // 4-worker executor.
        fn go<E: Rec>() {
            let pool = Pool::new(4);
            for m in [2usize, 16, 32, 64, 128, 1024, 1 << 16] {
                for zcap in [1usize, 4, 32, 64, 256].into_iter().filter(|&z| z <= m) {
                    let loads: Vec<u64> = (0..(m / zcap) as u64)
                        .map(|g| (g.wrapping_mul(0x9E37_79B9) >> 7) % (zcap as u64 + 1))
                        .collect();
                    let (input, expect) = case::<E>(&loads, zcap);
                    let what = format!("{} m {m} Z {zcap}", std::any::type_name::<E>());
                    let mut metered = input.clone();
                    measure(CacheConfig::default(), TraceMode::Off, |c| {
                        run(c, &mut metered, &loads, zcap)
                    });
                    assert!(metered == expect, "{what}: metered");
                    let mut seq = input.clone();
                    run(&SeqCtx::new(), &mut seq, &loads, zcap);
                    assert!(seq == metered, "{what}: SeqCtx");
                    let mut par = input;
                    pool.run(|c| run(c, &mut par, &loads, zcap));
                    assert!(par == metered, "{what}: pool");
                }
            }
        }
        go::<TagCell>();
        go::<u128>();
        go::<Slot<u64>>();
    }

    /// Meter one expansion of `loads` over bins of `zcap`.
    fn metered<E: Rec>(loads: &[u64], zcap: usize) -> metrics::CostReport {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let (mut v, _) = case::<E>(loads, zcap);
            run(c, &mut v, loads, zcap);
        });
        rep
    }

    #[test]
    fn trace_independent_of_pattern_and_displacements() {
        // 16 bins of 64: uniform, all in one bin, empty and full bins
        // alternating, nothing — one trace, no comparator.
        fn go<E: Rec>() -> [u64; 4] {
            let run = |loads: &[u64]| {
                let rep = metered::<E>(loads, 64);
                [rep.trace_hash, rep.trace_len, rep.work, rep.comparisons]
            };
            let uniform = run(&[32; 16]);
            let mut one = [0; 16];
            one[5] = 64;
            let alternating: Vec<u64> = (0..16).map(|g| 64 * (g % 2)).collect();
            assert_eq!(uniform, run(&one), "a full bin leaked");
            assert_eq!(uniform, run(&alternating), "empty and full bins leaked");
            assert_eq!(uniform, run(&[0; 16]), "the real count leaked");
            assert_eq!(uniform[3], 0, "expansion uses no comparators");
            uniform
        }
        // Every record type runs the same pairs: they differ in words per
        // touch, nothing else.
        let (keys, cells, slots) = (go::<u128>(), go::<TagCell>(), go::<Slot<u64>>());
        assert_eq!(keys[1..], cells[1..]);
        assert_eq!(keys[1..], slots[1..]);
    }

    #[test]
    fn the_first_ranks_are_an_exclusive_scan() {
        let c = SeqCtx::new();
        let mut lane = vec![3u64, 0, 4, 4, 1];
        first_ranks(&c, &ScratchPool::new(), &mut Tracked::new(&c, &mut lane), 4);
        let expect: Vec<u64> = [(0, 3), (3, 0), (3, 4), (7, 4), (11, 1)]
            .map(|(first, load)| first << 32 | load)
            .into();
        assert_eq!(lane, expect);
    }

    #[test]
    fn metered_span_is_polylog() {
        // m = 4096 crosses the metered `base_for` cut (32 cells). The
        // butterfly's work is exact: each of the (m/2) log m pairs costs
        // two reads, two writes and one verdict; each of the m − 1 block
        // splits reads two load words and decides once; a level over an
        // n-cell block forks n/2 − 1 times and the recursion m/32 − 1
        // times (2 per fork + join), which telescopes to one fork per pair
        // less log 32 per leaf block.
        let (m, zcap) = (4096u64, 256usize);
        let (lg, lg_base) = (m.ilog2() as u64, 5);
        let loads = [200u64; 16];
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let (mut v, _) = case::<TagCell>(&loads, zcap);
            let mut lane: Vec<u64> = (0..16).map(|g| (200 * g) << 32 | 200).collect();
            spread(
                c,
                &mut Tracked::new(c, &mut v),
                &Tracked::new(c, &mut lane),
                zcap,
            );
        });
        let pairs = (m / 2) * lg;
        let splits = m - 1;
        assert_eq!(
            rep.work,
            5 * pairs + 3 * splits + 2 * (pairs - lg_base * (m >> lg_base))
        );
        assert!(
            rep.span <= 2 * lg * lg,
            "span {} is not O(log² m)",
            rep.span
        );
        // The whole kernel adds the first-rank scan over the G = m/zcap
        // load words, whose span grows with log G — from 4 bins to one
        // bin a record, where a pass over the words would add 2G.
        for zcap in [1024, 256, 64, 16, 4, 1] {
            let lg_g = (m as usize / zcap).ilog2() as u64;
            let rep = metered::<TagCell>(&vec![zcap as u64 / 2; m as usize / zcap], zcap);
            let bound = 2 * lg * lg + 9 * lg_g;
            assert!(
                rep.span <= bound,
                "span {} is not O(log² m + log G)",
                rep.span
            );
        }
    }
}
