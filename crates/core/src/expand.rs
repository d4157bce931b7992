//! Oblivious monotone expansion: the comparator-free distribution step of
//! bin placement, and the in-place mirror of [`crate::compact_cells`] —
//! compaction gathers scattered reals into a packed run bottom-up,
//! expansion spreads a run out to given positions top-down, both through
//! `(m/2) log m` conditional swaps.
//!
//! Input: a power-of-two slot array in which every real slot carries its
//! absolute *target* position in the high half of `sk` (the low half, the
//! routing label, rides along). Output: every real sits at its target.
//!
//! The network is a butterfly evaluated depth-first. A block `[lo, lo + w)`
//! holds only reals whose targets lie inside it; pair
//! `(lo + i, lo + w/2 + i)` swaps iff its left slot is a real bound for the
//! upper half or its right slot a real bound for the lower half, after
//! which each half holds exactly the reals bound for it and recurses. A
//! pair whose two reals want the *same* half is a collision: one of them
//! is carried into the wrong half and ends up misplaced (never lost —
//! every level permutes the array).
//!
//! **No collision on monotone input.** Call the input monotone when
//! `t − p` (target minus position) is non-decreasing over the reals in
//! position order — equivalently, two reals are never closer in target
//! than in position. A swap keeps a slot's offset `i` within its half, so
//! after the level of half-width `h` a real that started at `p` with
//! target `t` sits at `⌊t/h⌋·h + (p mod h)`. Two reals therefore meet in a
//! pair of half-width `h` only if they started a positive multiple of `h`
//! apart; monotone targets are then at least `h` apart too, and cannot
//! both lie in one half of `h` positions. For the packed, target-ordered
//! run bin placement passes this is the pigeonhole it looks like: the two
//! are `h` apart in the run, and the `h + 1` strictly increasing targets
//! between them do not fit a half.
//!
//! Obliviousness: every level reads and writes both slots of every pair;
//! the targets feed nothing but the swap verdict (`obliv_check` row
//! "expand (monotone distribution)"). Addresses, loop bounds and the fork
//! tree are functions of the length alone — for clean, overflowing and
//! colliding inputs alike.

use crate::slot::{as_lanes, sk_of, Slot, Val};
use fj::{base_for, grain_for, par_for, Ctx};
use metrics::Tracked;
use sortnet::{active_backend, level_index, Gate};
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Move every real slot of `t` (power-of-two length) to the target held in
/// the high half of its `sk`. `(m/2) log m` swaps, in place, no scratch
/// and no comparators; the recursion runs depth-first down to
/// [`base_for`]-sized blocks, which run their levels flat, so
/// `Q = O((m/B) log(m/M))`, and span `O(log² m)` (a `par_for` per level of
/// the recursion spine).
///
/// `sk` is left as it came: on return a real at position `p` has
/// `sk >> 64 == p` and its label in the low half; the next phase's
/// [`crate::set_keys`] overwrites the high half. Fillers are moved, never
/// rewritten.
///
/// A slot with a zero-sized payload is laid out like a
/// [`sortnet::TagCell`] and is moved as one, a grain of pairs at a time
/// through the cell gate's
/// [`swap_level`](sortnet::Backend::swap_level) — the same pairs, trace
/// and counters, 256-bit exchanges where the hardware has them (DESIGN.md
/// §14 has the pairs that justify it).
///
/// Returns `true` iff no pair held two reals bound for the same half —
/// guaranteed for monotone input (module docs). Otherwise some reals sit
/// off their targets, none is lost, and the access pattern is the same.
pub fn expand<C: Ctx, V: Val>(c: &C, t: &mut Tracked<'_, Slot<V>>) -> bool {
    let m = t.len();
    assert!(
        m.is_power_of_two(),
        "expansion requires power-of-two length, got {m}"
    );
    let collided = AtomicBool::new(false);
    let base = base_for(c, size_of::<Slot<V>>());
    if let Some(mut cells) = as_lanes(t) {
        let cells = cells.as_raw();
        let gate = active_backend();
        spread(c, 0, m, base, &collided, &|c, h, pairs| {
            let mut clash = false;
            let judge = |i, l, r| {
                let (swap, clashed) = verdict(i, h, l, r);
                clash |= clashed;
                swap
            };
            // SAFETY: `spread` hands out disjoint chunks of pairs of `t`.
            unsafe { gate.swap_level(c, &cells, h, pairs, judge) };
            clash
        });
    } else {
        let slots = t.as_raw();
        spread(c, 0, m, base, &collided, &|c, h, pairs| {
            let mut clash = false;
            for i in pairs.map(|p| level_index(p, h)) {
                // SAFETY: as above.
                unsafe {
                    let (l, r) = (slots.get(c, i), slots.get(c, i + h));
                    c.work(1);
                    let (swap, clashed) = verdict(i, h, l.sk, r.sk);
                    clash |= clashed;
                    let (x, y) = Gate::route(&sk_of::<V>, swap, l, r);
                    slots.set(c, i, x);
                    slots.set(c, i + h, y);
                }
            }
            clash
        });
    }
    !collided.load(Ordering::Relaxed)
}

/// The verdict of the pair `(i, i + h)` of a level of half-width `h`,
/// whose slots' `sk`s are `l` and `r`: whether it swaps — the left slot is
/// a real bound for the upper half of its block, or the right one a real
/// bound for the lower — and whether it is a collision (two reals, one
/// half). Blocks are aligned, so the upper half starts where `i`'s low
/// `log h` bits run out; a target is a position, so the filler's all-ones
/// phase key is the one value that is bound nowhere. Four range tests on
/// the high halves, no 128-bit compare.
#[inline(always)]
fn verdict(i: usize, h: usize, l: u128, r: u128) -> (bool, bool) {
    let mid = ((i | (h - 1)) + 1) as u64;
    let up = |sk: u128| ((sk >> 64) as u64).wrapping_sub(mid) < !mid;
    let down = |sk: u128| ((sk >> 64) as u64) < mid;
    (up(l) | down(r), (up(l) & up(r)) | (down(l) & down(r)))
}

/// Send the reals of the aligned block `[lo, lo + n)` to their targets:
/// one swap level across the halves, then both halves (in parallel above
/// `base`, level by level below it). `swap(c, h, pairs)` runs the pairs
/// numbered `pairs` of the level of half-width `h` — pair `p` is
/// `(i, i + h)`, `i = `[`level_index`]`(p, h)` — in that order and says
/// whether one collided.
fn spread<C: Ctx>(
    c: &C,
    lo: usize,
    n: usize,
    base: usize,
    collided: &AtomicBool,
    swap: &(impl Fn(&C, usize, Range<usize>) -> bool + Sync),
) {
    // One swap level over `[lo, lo + n)`: every aligned block of width
    // `w` in it sorts its reals into the half their target names, a grain
    // of pairs at a time — the level's `n/2` pairs, block by block, are
    // one `par_for`. `lo` is a multiple of `n`, hence of `w`: `lo / 2`
    // pairs precede it.
    let swap_level = |c: &C, w: usize| {
        let (first, end, grain) = (lo / 2, (lo + n) / 2, grain_for(c));
        par_for(c, 0, (n / 2).div_ceil(grain), 1, &|c, k| {
            let pairs = first + k * grain..end.min(first + (k + 1) * grain);
            if swap(c, w / 2, pairs) {
                collided.store(true, Ordering::Relaxed);
            }
        });
    };
    if n <= base {
        let mut w = n;
        while w >= 2 {
            swap_level(c, w);
            w /= 2;
        }
        return;
    }
    swap_level(c, n);
    c.join(
        |c| spread(c, lo, n / 2, base, collided, swap),
        |c| spread(c, lo + n / 2, n / 2, base, collided, swap),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    /// Slots for a pattern: `Some(d)` is a real (keyed by its index `i`)
    /// bound for position `i + d`, `None` a filler. `V = ()` takes the cell
    /// gate's swap run, any other payload the closure gate's `route`.
    fn slots_of<V: Val>(pattern: &[Option<usize>]) -> Vec<Slot<V>> {
        pattern
            .iter()
            .enumerate()
            .map(|(i, d)| match d {
                Some(d) => {
                    Slot::real(Item::new(i as u128, V::default()), 7).with_phase_key((i + d) as u64)
                }
                None => Slot::filler(),
            })
            .collect()
    }

    /// Check `expand` against the obvious reference: real `i` at `i + d`
    /// with its target and label still in `sk`, canonical fillers
    /// everywhere else.
    fn check<V: Val + PartialEq + std::fmt::Debug>(c: &SeqCtx, pattern: &[Option<usize>]) {
        let mut v = slots_of::<V>(pattern);
        let ok = expand(c, &mut Tracked::new(c, &mut v));
        assert!(ok, "collision on admissible pattern {pattern:?}");
        for (i, d) in pattern.iter().enumerate() {
            if let Some(d) = d {
                let s = &v[i + d];
                assert!(
                    s.is_real() && s.item.key == i as u128 && s.label() == 7,
                    "real {i} of {pattern:?} is not at {}",
                    i + d
                );
            }
        }
        let reals = pattern.iter().flatten().count();
        assert_eq!(v.iter().filter(|s| s.is_real()).count(), reals);
        for (pos, s) in v.iter().enumerate() {
            if s.is_real() {
                assert_eq!(s.phase_key(), pos as u64, "target lost for {pattern:?}");
            } else {
                assert_eq!(*s, Slot::filler(), "filler {pos} of {pattern:?}");
            }
        }
    }

    /// Run `f` on every admissible completion of `pattern[i..]`: each slot
    /// is a filler or a real whose displacement is ≥ the previous real's
    /// and keeps it inside the array.
    fn for_all_admissible(
        pattern: &mut [Option<usize>],
        i: usize,
        min_d: usize,
        f: &mut impl FnMut(&[Option<usize>]),
    ) {
        let m = pattern.len();
        if i == m {
            f(pattern);
            return;
        }
        pattern[i] = None;
        for_all_admissible(pattern, i + 1, min_d, f);
        for d in min_d..m - i {
            pattern[i] = Some(d);
            for_all_admissible(pattern, i + 1, d, f);
        }
    }

    #[test]
    fn expand_exhaustive_small_patterns() {
        // Every real/filler pattern with every admissible (non-decreasing,
        // in-bounds) displacement vector at m = 1 … 16: the no-collision
        // argument on all 3 524 578 cases of m = 16, on both routes.
        let c = SeqCtx::new();
        // The cases of length m number Fibonacci(2m + 1).
        for (m, expect) in [(1usize, 2u32), (2, 5), (4, 34), (8, 1597), (16, 3_524_578)] {
            let mut cases = 0u32;
            for_all_admissible(&mut vec![None; m], 0, 0, &mut |pattern| {
                check::<u64>(&c, pattern);
                check::<()>(&c, pattern);
                cases += 1;
            });
            assert_eq!(cases, expect, "m = {m}");
        }
    }

    #[test]
    fn leftward_monotone_targets_are_placed_too() {
        // The argument never uses `t ≥ p`: a run packed at the *back* with
        // non-decreasing negative displacements spreads out leftwards.
        let c = SeqCtx::new();
        let m = 64usize;
        let mut v = vec![Slot::<u64>::filler(); m];
        for j in 0..16usize {
            v[m - 16 + j] = Slot::real(Item::new(0, j as u64), 0).with_phase_key(3 * j as u64);
        }
        assert!(expand(&c, &mut Tracked::new(&c, &mut v)));
        for j in 0..16usize {
            assert!(v[3 * j].is_real() && v[3 * j].item.val == j as u64);
        }
        assert_eq!(v.iter().filter(|s| s.is_real()).count(), 16);
    }

    #[test]
    fn decreasing_displacements_are_reported_not_hidden() {
        // d = (1, 0): both reals want position 1. The pass completes, the
        // collision is reported, and both reals survive it.
        fn collides<V: Val>() {
            let c = SeqCtx::new();
            let mut v = slots_of::<V>(&[Some(1), Some(0), None, None]);
            assert!(!expand(&c, &mut Tracked::new(&c, &mut v)));
            let mut keys: Vec<u128> = v
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.key)
                .collect();
            keys.sort_unstable();
            assert_eq!(keys, [0, 1]);
        }
        collides::<u64>();
        collides::<()>();
    }

    #[test]
    fn parallel_matches_sequential() {
        // Spread 1000 reals over 4096 positions: real j goes to 4j + 3.
        let pattern: Vec<Option<usize>> =
            (0..4096).map(|i| (i < 1000).then_some(3 * i + 3)).collect();
        let c = SeqCtx::new();
        let mut seq = slots_of::<u64>(&pattern);
        assert!(expand(&c, &mut Tracked::new(&c, &mut seq)));
        let mut par = slots_of(&pattern);
        let pool = Pool::new(4);
        assert!(pool.run(|c| expand(c, &mut Tracked::new(c, &mut par))));
        for (pos, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a, b, "position {pos}");
            assert_eq!(a.is_real(), pos % 4 == 3 && pos < 4000);
        }
    }

    #[test]
    fn parallel_matches_sequential_above_the_host_base() {
        // m = 65536 crosses the host `base_for` cut and every `par_for`
        // grain: joined recursion above, flat levels inside a block — for
        // wide slots and for unit slots on the cell gate's swap run.
        fn go<V: Val + PartialEq>() {
            let m = 1usize << 16;
            let pattern: Vec<Option<usize>> =
                (0..m).map(|i| (i < m / 4).then_some(3 * i)).collect();
            let c = SeqCtx::new();
            let mut seq = slots_of::<V>(&pattern);
            assert!(expand(&c, &mut Tracked::new(&c, &mut seq)));
            let mut par = slots_of::<V>(&pattern);
            let pool = Pool::new(4);
            assert!(pool.run(|c| expand(c, &mut Tracked::new(c, &mut par))));
            assert!(seq == par);
            for (j, s) in seq.iter().step_by(4).take(m / 4).enumerate() {
                assert!(s.is_real() && s.item.key == j as u128);
            }
        }
        go::<u64>();
        go::<()>();
    }

    /// Meter one expansion of the given pattern.
    fn metered<V: Val>(pattern: Vec<Option<usize>>) -> metrics::CostReport {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let mut v = slots_of::<V>(&pattern);
            expand(c, &mut Tracked::new(c, &mut v));
        });
        rep
    }

    #[test]
    fn trace_independent_of_pattern_and_displacements() {
        let m = 256usize;
        fn go<V: Val>(m: usize) -> [u64; 4] {
            let run = |pattern: Vec<Option<usize>>| {
                let rep = metered::<V>(pattern);
                [rep.trace_hash, rep.trace_len, rep.work, rep.comparisons]
            };
            let spread = run((0..m).map(|i| (i < 64).then_some(3 * i)).collect());
            let still = run((0..m).map(|i| (i % 2 == 0).then_some(0)).collect());
            let empty = run(vec![None; m]);
            let colliding = run((0..m).map(|i| Some(m - 1 - i)).collect());
            assert_eq!(spread, still, "displacements leaked into the trace");
            assert_eq!(spread, empty, "real count leaked into the trace");
            assert_eq!(spread, colliding, "a collision altered the trace");
            assert_eq!(spread[3], 0, "expansion uses no comparators");
            spread
        }
        // The cell gate's accounting replay is the closure route's: unit
        // slots differ from wide ones in words per touch, nothing else.
        let (wide, unit) = (go::<u64>(m), go::<()>(m));
        assert_eq!(wide[1..], unit[1..]);
    }

    #[test]
    fn metered_span_is_polylog() {
        // m = 4096 crosses the metered `base_for` cut (32 slots). Work is
        // exact: each of the (m/2) log m pairs costs two reads, two writes
        // and one verdict; a level over an n-slot block forks n/2 − 1
        // times and the recursion m/32 − 1 times (2 per fork + join),
        // which telescopes to one fork per pair less log 32 per leaf block.
        let m = 4096u64;
        let (lg, lg_base) = (m.ilog2() as u64, 5);
        let rep = metered::<u64>(
            (0..m as usize)
                .map(|i| (i < 1000).then_some(3 * i))
                .collect(),
        );
        let pairs = (m / 2) * lg;
        assert_eq!(rep.work, 5 * pairs + 2 * (pairs - lg_base * (m >> lg_base)));
        assert!(
            rep.span <= 2 * lg * lg,
            "span {} is not O(log² m)",
            rep.span
        );
    }
}
