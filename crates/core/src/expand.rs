//! Oblivious monotone expansion: the comparator-free distribution step of
//! bin placement — the inverse problem of [`crate::compact_cells`] (spread
//! a packed run out to given positions), solved with a displacement
//! network of full-array select passes rather than compaction's swap
//! butterfly.
//!
//! Input: a power-of-two slot array in which every real slot at index `i`
//! carries a displacement `d_i` in its scratch key `sk`, with `i + d_i`
//! inside the array. Output: every real sits at `i + d_i`, every other
//! position is a canonical filler, and all scratch keys are 0.
//!
//! The routing is `log m` select passes over the bits of `d`, **most
//! significant first**: a level-`k` pass moves a slot right by `2^k` iff
//! bit `k` of its displacement is set. After the levels `k, k+1, …` a slot
//! has moved by `d` with its low `k` bits cleared; rounding down to a
//! multiple of `2^k` is monotone, so if the displacements are
//! non-decreasing over the reals (in index order) their positions stay
//! strictly increasing at every level and no two reals ever contend for a
//! position — each output position has at most one candidate. (Least
//! significant first would collide: `d = 1, 2` at positions `0, 1` meet at
//! position 1.)
//!
//! Obliviousness: every level reads positions `pos` and `pos − 2^k` and
//! writes `pos`, for every `pos` — the access pattern is a function of the
//! length alone, independent of which slots are real and of their
//! displacements (`obliv_check` row "expand (monotone distribution)").

use crate::slot::{Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{ScratchPool, Tracked};
use std::sync::atomic::{AtomicBool, Ordering};

/// Move every real slot of `t` (power-of-two length) right by the
/// displacement held in its `sk`. `O(m log m)` work, no comparators, one
/// leased double buffer of `m` slots.
///
/// Returns `true` iff no two reals contended for a position — guaranteed
/// when the displacements are non-decreasing over the reals. Otherwise the
/// arriving slot wins, the resident one is dropped, and the result is
/// `false`; the access pattern is the same either way. A real whose
/// displacement leaves the array is dropped silently, so callers keep
/// `i + d_i < m`.
pub fn expand<C: Ctx, V: Val>(c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, Slot<V>>) -> bool {
    let m = t.len();
    assert!(
        m.is_power_of_two(),
        "expansion requires power-of-two length, got {m}"
    );
    let levels = m.trailing_zeros() as usize;
    let collided = AtomicBool::new(false);
    let mut buf_store = scratch.lease(m, Slot::<V>::filler());
    let mut buf = Tracked::new(c, &mut buf_store);
    let (a, b) = (t.as_raw(), buf.as_raw());
    for (pass, k) in (0..levels).rev().enumerate() {
        let (src, dst) = if pass % 2 == 0 { (a, b) } else { (b, a) };
        let step = 1usize << k;
        par_for(c, 0, m, grain_for(c), &|c, pos| unsafe {
            // SAFETY: level-synchronous: reads hit only `src`, writes only
            // `dst`, each position written once.
            let here = src.get(c, pos);
            let inc = if pos >= step {
                src.get(c, pos - step)
            } else {
                Slot::filler()
            };
            c.work(1);
            let stays = here.is_real() && (here.sk >> k) & 1 == 0;
            let arrives = inc.is_real() && (inc.sk >> k) & 1 == 1;
            if stays && arrives {
                collided.store(true, Ordering::Relaxed);
            }
            // The arrival has spent bit k of its displacement.
            let out = if arrives {
                Slot {
                    sk: inc.sk - step as u128,
                    ..inc
                }
            } else if stays {
                here
            } else {
                Slot::filler()
            };
            dst.set(c, pos, out);
        });
    }
    if levels % 2 == 1 {
        // Odd level count: the result lives in the double buffer.
        par_for(c, 0, m, grain_for(c), &|c, i| unsafe {
            // SAFETY: disjoint per-index copy.
            a.set(c, i, b.get(c, i));
        });
    }
    !collided.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    /// Slots for a pattern: `Some(d)` is a real (valued by its index) with
    /// displacement `d`, `None` a filler.
    fn slots_of(pattern: &[Option<usize>]) -> Vec<Slot<u64>> {
        pattern
            .iter()
            .enumerate()
            .map(|(i, d)| match d {
                Some(d) => Slot {
                    sk: *d as u128,
                    ..Slot::real(Item::new(i as u128, i as u64), 7)
                },
                None => Slot::filler(),
            })
            .collect()
    }

    /// Check `expand` against the obvious reference: real `i` at `i + d`,
    /// canonical fillers everywhere else.
    fn check(c: &SeqCtx, sp: &ScratchPool, pattern: &[Option<usize>]) {
        let mut v = slots_of(pattern);
        let ok = expand(c, sp, &mut Tracked::new(c, &mut v));
        assert!(ok, "collision on admissible pattern {pattern:?}");
        for (i, d) in pattern.iter().enumerate() {
            if let Some(d) = d {
                let s = &v[i + d];
                assert!(
                    s.is_real() && s.item.val == i as u64 && s.label == 7,
                    "real {i} of {pattern:?} is not at {}",
                    i + d
                );
            }
        }
        let reals = pattern.iter().flatten().count();
        assert_eq!(v.iter().filter(|s| s.is_real()).count(), reals);
        for (pos, s) in v.iter().enumerate() {
            assert_eq!(s.sk, 0, "sk not cleared at {pos} for {pattern:?}");
            assert!(
                s.is_real() || *s == Slot::filler(),
                "non-canonical filler at {pos} of {pattern:?}"
            );
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
        let sp = ScratchPool::new();
        // The cases of length m number Fibonacci(2m + 1).
        for (m, expect) in [(1usize, 2u32), (2, 5), (4, 34), (8, 1597), (16, 3_524_578)] {
            let mut cases = 0u32;
            for_all_admissible(&mut vec![None; m], 0, 0, &mut |pattern| {
                check(&c, &sp, pattern);
                cases += 1;
            });
            assert_eq!(cases, expect, "m = {m}");
        }
    }

    #[test]
    fn decreasing_displacements_are_reported_not_hidden() {
        // d = (1, 0): both reals want position 1. The pass completes, one
        // real survives, and the collision is reported.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut v = slots_of(&[Some(1), Some(0), None, None]);
        assert!(!expand(&c, &sp, &mut Tracked::new(&c, &mut v)));
        assert_eq!(v.iter().filter(|s| s.is_real()).count(), 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Spread 1000 reals over 4096 positions: real j goes to 4j + 3.
        let pattern: Vec<Option<usize>> =
            (0..4096).map(|i| (i < 1000).then_some(3 * i + 3)).collect();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut seq = slots_of(&pattern);
        assert!(expand(&c, &sp, &mut Tracked::new(&c, &mut seq)));
        let mut par = slots_of(&pattern);
        let pool = Pool::new(4);
        assert!(pool.run(|c| expand(c, &sp, &mut Tracked::new(c, &mut par))));
        for (pos, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!((a.flags, a.item), (b.flags, b.item), "position {pos}");
            assert_eq!(a.is_real(), pos % 4 == 3 && pos < 4000);
        }
    }

    #[test]
    fn trace_independent_of_pattern_and_displacements() {
        let m = 256usize;
        let run = |pattern: Vec<Option<usize>>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut v = slots_of(&pattern);
                expand(c, &sp, &mut Tracked::new(c, &mut v));
            });
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
}
