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

use crate::slot::{sk_of, Slot, Val};
use fj::{base_for, grain_for, par_for, Ctx};
use metrics::{RawTracked, Tracked};
use sortnet::Gate;
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
    let base = base_for(c, std::mem::size_of::<Slot<V>>());
    spread(c, &t.as_raw(), 0, m, base, &collided);
    !collided.load(Ordering::Relaxed)
}

/// Send the reals of the aligned block `[lo, lo + n)` to their targets:
/// one swap level across the halves, then both halves (in parallel above
/// `base`, level by level below it).
fn spread<C: Ctx, V: Val>(
    c: &C,
    t: &RawTracked<Slot<V>>,
    lo: usize,
    n: usize,
    base: usize,
    collided: &AtomicBool,
) {
    if n <= base {
        let mut w = n;
        while w >= 2 {
            swap_level(c, t, lo, n, w, collided);
            w /= 2;
        }
        return;
    }
    swap_level(c, t, lo, n, n, collided);
    c.join(
        |c| spread(c, t, lo, n / 2, base, collided),
        |c| spread(c, t, lo + n / 2, n / 2, base, collided),
    );
}

/// One swap level over `[lo, lo + n)`: every aligned block of width `w` in
/// it sorts its reals into the half their target names, a grain of pairs
/// at a time.
fn swap_level<C: Ctx, V: Val>(
    c: &C,
    t: &RawTracked<Slot<V>>,
    lo: usize,
    n: usize,
    w: usize,
    collided: &AtomicBool,
) {
    let h = w / 2;
    let grain = grain_for(c);
    par_for(c, 0, n / w, (grain / h).max(1), &|c, b| {
        let lo = lo + b * w;
        let mid = (lo + h) as u64;
        par_for(c, 0, h.div_ceil(grain), 1, &|c, k| {
            let mut clash = false;
            for i in lo + k * grain..lo + h.min((k + 1) * grain) {
                // SAFETY: the caller owns `[lo, lo + n)`; blocks, and the
                // runs of one block, are disjoint.
                let (l, r) = unsafe { (t.get(c, i), t.get(c, i + h)) };
                c.work(1);
                let l_up = l.is_real() & (l.phase_key() >= mid);
                let r_down = r.is_real() & (r.phase_key() < mid);
                clash |= l.is_real() & r.is_real() & (l_up != r_down);
                let (x, y) = Gate::route(&sk_of::<V>, l_up | r_down, l, r);
                // SAFETY: as the reads above.
                unsafe {
                    t.set(c, i, x);
                    t.set(c, i + h, y);
                }
            }
            if clash {
                collided.store(true, Ordering::Relaxed);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    /// Slots for a pattern: `Some(d)` is a real (valued by its index `i`)
    /// bound for position `i + d`, `None` a filler.
    fn slots_of(pattern: &[Option<usize>]) -> Vec<Slot<u64>> {
        pattern
            .iter()
            .enumerate()
            .map(|(i, d)| match d {
                Some(d) => {
                    Slot::real(Item::new(i as u128, i as u64), 7).with_phase_key((i + d) as u64)
                }
                None => Slot::filler(),
            })
            .collect()
    }

    /// Check `expand` against the obvious reference: real `i` at `i + d`
    /// with its target and label still in `sk`, canonical fillers
    /// everywhere else.
    fn check(c: &SeqCtx, pattern: &[Option<usize>]) {
        let mut v = slots_of(pattern);
        let ok = expand(c, &mut Tracked::new(c, &mut v));
        assert!(ok, "collision on admissible pattern {pattern:?}");
        for (i, d) in pattern.iter().enumerate() {
            if let Some(d) = d {
                let s = &v[i + d];
                assert!(
                    s.is_real() && s.item.val == i as u64 && s.label() == 7,
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
        // argument on all 3 524 578 cases of m = 16.
        let c = SeqCtx::new();
        // The cases of length m number Fibonacci(2m + 1).
        for (m, expect) in [(1usize, 2u32), (2, 5), (4, 34), (8, 1597), (16, 3_524_578)] {
            let mut cases = 0u32;
            for_all_admissible(&mut vec![None; m], 0, 0, &mut |pattern| {
                check(&c, pattern);
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
        let c = SeqCtx::new();
        let mut v = slots_of(&[Some(1), Some(0), None, None]);
        assert!(!expand(&c, &mut Tracked::new(&c, &mut v)));
        let mut vals: Vec<u64> = v
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, [0, 1]);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Spread 1000 reals over 4096 positions: real j goes to 4j + 3.
        let pattern: Vec<Option<usize>> =
            (0..4096).map(|i| (i < 1000).then_some(3 * i + 3)).collect();
        let c = SeqCtx::new();
        let mut seq = slots_of(&pattern);
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
        // grain: joined recursion above, flat levels inside a block.
        let m = 1usize << 16;
        let pattern: Vec<Option<usize>> = (0..m).map(|i| (i < m / 4).then_some(3 * i)).collect();
        let c = SeqCtx::new();
        let mut seq = slots_of(&pattern);
        assert!(expand(&c, &mut Tracked::new(&c, &mut seq)));
        let mut par = slots_of(&pattern);
        let pool = Pool::new(4);
        assert!(pool.run(|c| expand(c, &mut Tracked::new(c, &mut par))));
        assert!(seq == par);
        for (j, s) in seq.iter().step_by(4).take(m / 4).enumerate() {
            assert!(s.is_real() && s.item.val == j as u64);
        }
    }

    /// Meter one expansion of the given pattern.
    fn metered(pattern: Vec<Option<usize>>) -> metrics::CostReport {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let mut v = slots_of(&pattern);
            expand(c, &mut Tracked::new(c, &mut v));
        });
        rep
    }

    #[test]
    fn trace_independent_of_pattern_and_displacements() {
        let m = 256usize;
        let run = |pattern: Vec<Option<usize>>| {
            let rep = metered(pattern);
            (rep.trace_hash, rep.trace_len, rep.work, rep.comparisons)
        };
        let spread = run((0..m).map(|i| (i < 64).then_some(3 * i)).collect());
        let still = run((0..m).map(|i| (i % 2 == 0).then_some(0)).collect());
        let empty = run(vec![None; m]);
        let colliding = run((0..m).map(|i| Some(m - 1 - i)).collect());
        assert_eq!(spread, still, "displacements leaked into the trace");
        assert_eq!(spread, empty, "real count leaked into the trace");
        assert_eq!(spread, colliding, "a collision altered the trace");
        assert_eq!(spread.3, 0, "expansion uses no comparators");
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
        let rep = metered(
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
