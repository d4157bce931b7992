//! Oblivious bin placement (§C.1).
//!
//! Functionality: given an array of `nbins · Z` slots in which every real
//! element wants to go to bin `g = (label >> shift) & (nbins-1)`, and the
//! promise that no bin is wanted by more than `Z` elements, move every real
//! element into its bin and pad each bin to exactly `Z` slots with fillers.
//! Output is the concatenation of the `nbins` bins, in place, reals packed
//! in front of each bin.
//!
//! The algorithm is sort + rank + expansion (`place`, shared with
//! [`crate::oblivious_scatter`]; DESIGN.md §4 records it as a substitution
//! for Chan–Shi's two-sort placement): **one** oblivious sort of the
//! `nbins · Z` slots by `sk = group ‖ low half` with fillers (`MAX`) last
//! (the scatter, whose reals all sit in a public prefix, sorts only that), a
//! segmented propagation that gives every real its rank `r` within its
//! group, a pass that trades the group in the high half of `sk` for the
//! absolute target `g·Z + r`, and a comparator-free monotone [`expand`]
//! that swaps every real to its target. The sorted reals are a packed run
//! and, under the promise, their targets strictly increase along it — the
//! no-collision condition of the expansion.
//! Every step is an oblivious sort, a fixed-pattern scan, or a parallel
//! map: the access pattern depends only on `(nbins, Z)`.
//!
//! A real of rank `≥ Z` means the §C.1 promise was violated (bin
//! overflow): its target belongs to the next bin, the pass finishes on its
//! fixed trace with the reals permuted arbitrarily (none is lost), and the
//! caller gets [`OblivError::BinOverflow`] to retry with fresh labels.

use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::expand::expand;
use crate::scan::{seg_propagate_in, Schedule, Seg};
use crate::slot::{composite_key, Slot, Val};
use fj::Ctx;
use metrics::{par_fill, par_update, ScratchPool, Tracked};
use std::sync::atomic::{AtomicBool, Ordering};

/// Oblivious bin placement over `io` (whose length must be `nbins · zcap`,
/// with `nbins` and `zcap` powers of two). Order within a bin is
/// unspecified. Labels are preserved; the high half of a real's `sk` holds
/// its position on return (see [`expand`]), and fillers are canonical.
pub fn bin_place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    io: &mut Tracked<'_, Slot<V>>,
    nbins: usize,
    zcap: usize,
    shift: u32,
    engine: Engine,
) -> Result<()> {
    let mask = nbins as u64 - 1;
    // Reals may sit anywhere in `io`: the prefix is the whole array.
    place(c, scratch, io, io.len(), nbins, zcap, engine, &|s| {
        ((s.label() >> shift) & mask, s.label())
    })
}

/// The placement kernel: move every real of `w` (`nbins · zcap` slots,
/// both powers of two) into the bin named by `key(slot).0`, in ascending
/// order of `key(slot).1` within the bin; `key(slot).1` becomes the low
/// half of the slot's `sk`. `key` is only asked about reals and must
/// return a bin below `nbins`.
///
/// `prefix` (public, a power of two) bounds where the reals are: every slot
/// of `w[prefix..]` is a canonical filler on entry. The sort and the rank
/// pass run over `w[..prefix]` only — sorted, it is the whole array's
/// sorted order — and the expansion alone spans all of `w`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, Slot<V>>,
    prefix: usize,
    nbins: usize,
    zcap: usize,
    engine: Engine,
    key: &(impl Fn(&Slot<V>) -> (u64, u64) + Sync),
) -> Result<()> {
    let n_io = w.len();
    assert_eq!(n_io, nbins * zcap, "bin placement shape mismatch");
    assert!(nbins.is_power_of_two() && zcap.is_power_of_two());
    assert!(prefix.is_power_of_two() && prefix <= n_io);
    debug_assert!(w.raw()[prefix..].iter().all(Slot::is_filler));

    // Steps 1–3 run over the prefix, in a block so the rank lease is back
    // in the pool before the caller's next lease.
    let overflow = {
        let mut front = w.range(0, prefix);
        let w = &mut front;

        // Step 1: sort by (group ‖ low half), fillers last. The group rides
        // in the high half of `sk`, where the later steps read it back (a
        // filler's reads as `u64::MAX`, the past-the-end group).
        set_keys(c, w, &|s| {
            if s.is_real() {
                let (g, low) = key(s);
                composite_key(g, low)
            } else {
                u128::MAX
            }
        });
        engine.sort_slots(c, scratch, w);

        // Step 2: rank within group, by propagating each group's leftmost
        // index.
        let mut seg_store = scratch.lease(prefix, Seg::new(false, 0u64));
        let mut seg = Tracked::new(c, &mut seg_store);
        par_fill(c, &mut seg, &|c, i| {
            let head = i == 0 || w.get(c, i).phase_key() != w.get(c, i - 1).phase_key();
            Seg::new(head, i as u64)
        });
        seg_propagate_in(c, scratch, &mut seg, Schedule::Tree);

        // Step 3: each real trades its group for its absolute target;
        // fillers are rewritten canonical. Overflow iff a real's rank is
        // `≥ Z` — a public outcome (the caller retries), so it may take a
        // branch. The write is unconditional.
        let overflow = AtomicBool::new(false);
        par_update(c, w, &|c, i, s| {
            let rank = i as u64 - seg.get(c, i).v;
            if s.is_real() && rank >= zcap as u64 {
                overflow.store(true, Ordering::Relaxed);
            }
            if s.is_real() {
                s.with_phase_key(s.phase_key() * zcap as u64 + rank)
            } else {
                Slot::filler()
            }
        });
        overflow.into_inner()
    };

    // Step 4: comparator-free distribution. Without an overflow the reals
    // are a packed run with increasing targets, so nothing can collide.
    let placed = expand(c, w);
    debug_assert!(overflow || placed, "monotone targets collided");
    if overflow {
        Err(OblivError::BinOverflow)
    } else {
        Ok(())
    }
}

/// Recompute every slot's scratch sort key in one fixed-pattern parallel
/// pass — the standard prelude to each [`crate::engine::Engine::sort_slots`]
/// call. Public because downstream subsystems (e.g. `dob-store`) drive the
/// same sort-then-scan pipelines the core kernels use.
///
/// `sk == u128::MAX` is what makes a slot a filler, so an `f` that returns
/// `MAX` for a real demotes it to one (its record stays in `item`, but
/// `is_real` is false from then on).
pub fn set_keys<C: Ctx, V: Val>(
    c: &C,
    t: &mut Tracked<'_, Slot<V>>,
    f: &(impl Fn(&Slot<V>) -> u128 + Sync),
) {
    par_update(c, t, &|_, _, mut s| {
        s.sk = f(&s);
        s
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    /// Build an input of `nbins` bins of `zcap` slots with the given
    /// (bin-choice, value) pairs packed from the front.
    fn input(nbins: usize, zcap: usize, elems: &[(u64, u64)]) -> Vec<Slot<u64>> {
        let mut v = vec![Slot::<u64>::filler(); nbins * zcap];
        assert!(elems.len() <= v.len());
        for (i, &(g, val)) in elems.iter().enumerate() {
            v[i] = Slot::real(Item::new(val as u128, val), g);
        }
        v
    }

    fn run(nbins: usize, zcap: usize, elems: &[(u64, u64)]) -> Result<Vec<Slot<u64>>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut v = input(nbins, zcap, elems);
        let mut t = Tracked::new(&c, &mut v);
        bin_place(&c, &sp, &mut t, nbins, zcap, 0, Engine::BitonicRec)?;
        Ok(v)
    }

    #[test]
    fn places_elements_into_their_bins() {
        let elems: Vec<(u64, u64)> = vec![(3, 30), (1, 10), (0, 100), (1, 11), (2, 20), (0, 101)];
        let out = run(4, 4, &elems).unwrap();
        for b in 0..4u64 {
            let bin = &out[(b as usize) * 4..(b as usize + 1) * 4];
            let got: Vec<u64> = bin
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.val)
                .collect();
            let mut expect: Vec<u64> = elems
                .iter()
                .filter(|&&(g, _)| g == b)
                .map(|&(_, v)| v)
                .collect();
            expect.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expect, "bin {b}");
            // Reals are packed before fillers.
            let first_filler = bin.iter().position(|s| !s.is_real()).unwrap_or(4);
            assert!(bin[first_filler..].iter().all(|s| s.is_filler()));
        }
    }

    #[test]
    fn full_bins_are_accepted() {
        let elems: Vec<(u64, u64)> = (0..8).map(|i| (i % 2, i)).collect(); // 4 per bin
        let out = run(2, 4, &elems).unwrap();
        assert_eq!(out.iter().filter(|s| s.is_real()).count(), 8);
    }

    #[test]
    fn overflow_is_detected() {
        // 5 elements want bin 0 but Z = 4.
        let elems: Vec<(u64, u64)> = (0..5).map(|v| (0, v)).collect();
        assert_eq!(run(2, 4, &elems).unwrap_err(), OblivError::BinOverflow);
    }

    #[test]
    fn output_holds_only_reals_and_canonical_fillers() {
        // The stated `sk` contract: a real keeps its label in the low half
        // and holds its own position in the high half; fillers are `⊥`.
        let out = run(4, 4, &[(0, 1), (3, 2)]).unwrap();
        for (pos, s) in out.iter().enumerate() {
            if s.is_real() {
                assert_eq!(s.phase_key(), pos as u64, "target not left in sk");
                assert_eq!(s.label(), pos as u64 / 4, "label lost");
            } else {
                assert_eq!(*s, Slot::filler());
            }
        }
        assert_eq!(out.iter().filter(|s| s.is_real()).count(), 2);
    }

    #[test]
    fn costs_exactly_one_sorting_network() {
        // One sort of the nbins·Z input slots and nothing else that
        // compares: the rank scan and the expansion are comparator-free.
        for (nbins, zcap) in [(4usize, 16usize), (16, 64)] {
            let elems: Vec<(u64, u64)> = (0..(nbins * zcap / 2) as u64)
                .map(|v| (v % nbins as u64, v))
                .collect();
            let (_, placed) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let sp = ScratchPool::new();
                let mut v = input(nbins, zcap, &elems);
                bin_place(
                    c,
                    &sp,
                    &mut Tracked::new(c, &mut v),
                    nbins,
                    zcap,
                    0,
                    Engine::BitonicRec,
                )
                .unwrap();
            });
            let (_, network) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut v = vec![0u64; nbins * zcap];
                sortnet::sort_slice_rec(c, &mut v, &|x: &u64| *x as u128, true);
            });
            assert_eq!(placed.comparisons, network.comparisons, "{nbins}×{zcap}");
        }
    }

    #[test]
    fn respects_shift() {
        let c = SeqCtx::new();
        // Labels 0b10 and 0b00; with shift=1 groups are 1 and 0.
        let mut v = input(2, 4, &[]);
        v[0] = Slot::real(Item::new(1, 1u64), 0b10);
        v[1] = Slot::real(Item::new(2, 2u64), 0b00);
        let sp = ScratchPool::new();
        let mut t = Tracked::new(&c, &mut v);
        bin_place(&c, &sp, &mut t, 2, 4, 1, Engine::BitonicRec).unwrap();
        assert!(v[0..4].iter().any(|s| s.is_real() && s.item.val == 2));
        assert!(v[4..8].iter().any(|s| s.is_real() && s.item.val == 1));
    }

    #[test]
    fn degenerate_inputs_empty_one_and_two_elements() {
        // n = 0 real elements: all fillers in, all fillers out.
        let out = run(4, 4, &[]).unwrap();
        assert!(out.iter().all(|s| s.is_filler()));
        // n = 1.
        let out = run(4, 4, &[(2, 99)]).unwrap();
        let reals: Vec<(usize, u64)> = out
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_real())
            .map(|(i, s)| (i / 4, s.item.val))
            .collect();
        assert_eq!(reals, vec![(2, 99)], "single element lands in bin 2");
        // n = 2 colliding on one bin.
        let out = run(2, 4, &[(1, 5), (1, 6)]).unwrap();
        let mut in_bin1: Vec<u64> = out[4..8]
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        in_bin1.sort_unstable();
        assert_eq!(in_bin1, vec![5, 6]);
        assert!(out[0..4].iter().all(|s| s.is_filler()));
    }

    #[test]
    fn large_instance_preserves_multiset_per_bin() {
        // 1000 elements (non-power-of-two count) into 16 bins of 64: round-
        // robin labels load each bin with 62-63 ≤ Z elements.
        let elems: Vec<(u64, u64)> = (0..1000).map(|v| (v % 16, v)).collect();
        let out = run(16, 64, &elems).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        for (b, bin) in out.chunks(64).enumerate() {
            let reals: Vec<u64> = bin
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.val)
                .collect();
            // Everything in bin b wanted bin b.
            assert!(reals.iter().all(|&v| v % 16 == b as u64), "bin {b}");
            // Reals are packed in front of the fillers.
            let first_filler = bin.iter().position(|s| !s.is_real()).unwrap_or(64);
            assert!(
                bin[first_filler..].iter().all(|s| s.is_filler()),
                "bin {b} packing"
            );
            seen.extend(reals);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..1000).collect::<Vec<u64>>(),
            "no element lost or duplicated"
        );
    }

    #[test]
    fn output_length_is_always_nbins_times_z() {
        for (nbins, zcap, elems) in [(1usize, 16usize, 10u64), (2, 8, 9), (8, 8, 40)] {
            let elems: Vec<(u64, u64)> = (0..elems).map(|v| (v % nbins as u64, v)).collect();
            let out = run(nbins, zcap, &elems).unwrap();
            assert_eq!(out.len(), nbins * zcap);
            assert_eq!(
                out.iter().filter(|s| s.is_real()).count(),
                elems.len(),
                "nbins={nbins} zcap={zcap}"
            );
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let run_trace = |elems: Vec<(u64, u64)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = input(8, 8, &elems);
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut v);
                let _ = bin_place(c, &sp, &mut t, 8, 8, 0, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run_trace((0..32).map(|i| (i % 8, i)).collect());
        let b = run_trace((0..32).map(|i| (7 - i % 8, i * 3)).collect());
        let empty = run_trace(vec![]);
        assert_eq!(a, b);
        assert_eq!(a, empty, "even load pattern must not alter the trace");
    }

    #[test]
    fn overflowing_and_ok_inputs_have_identical_traces() {
        // Overflow detection must not branch the access pattern.
        let run_trace = |elems: Vec<(u64, u64)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = input(4, 4, &elems);
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut v);
                let _ = bin_place(c, &sp, &mut t, 4, 4, 0, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let ok = run_trace((0..8).map(|i| (i % 4, i)).collect());
        let over = run_trace((0..8).map(|i| (0, i)).collect());
        assert_eq!(ok, over);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both faces of the kernel against a `Vec<Vec<_>>` reference:
        /// `bin_place` (unordered within a bin) and `oblivious_scatter`
        /// (stable), reals and fillers interleaved, overflow included.
        #[test]
        fn prop_placement_matches_reference(
            lg_bins in 0u32..4,
            lg_z in 0u32..5,
            picks in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..128),
        ) {
            let (nbins, zcap) = (1usize << lg_bins, 1usize << lg_z);
            let picks = &picks[..picks.len().min(nbins * zcap)];
            // Input position j holds a real for bin `g` valued j, or a filler.
            let items: Vec<Slot<u64>> = picks
                .iter()
                .enumerate()
                .map(|(j, &(real, g))| {
                    if real {
                        Slot::real(Item::new(j as u128, j as u64), g % nbins as u64)
                    } else {
                        Slot::filler()
                    }
                })
                .collect();
            let mut reference = vec![Vec::new(); nbins];
            for s in items.iter().filter(|s| s.is_real()) {
                reference[s.label() as usize].push(s.item.val);
            }
            let fits = reference.iter().all(|bin| bin.len() <= zcap);
            let bins_of = |out: &[Slot<u64>]| -> Vec<Vec<u64>> {
                out.chunks(zcap)
                    .map(|bin| {
                        let load = bin.iter().take_while(|s| s.is_real()).count();
                        assert!(bin[load..].iter().all(|s| s.is_filler()), "reals not packed");
                        bin[..load].iter().map(|s| s.item.val).collect()
                    })
                    .collect()
            };

            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let stable = crate::oblivious_scatter(&c, &sp, &items, nbins, zcap, Engine::BitonicRec);
            let mut io = items.clone();
            io.resize(nbins * zcap, Slot::filler());
            let unordered =
                bin_place(&c, &sp, &mut Tracked::new(&c, &mut io), nbins, zcap, 0, Engine::BitonicRec);
            prop_assert_eq!(stable.is_ok(), fits);
            prop_assert_eq!(unordered.is_ok(), fits);
            if fits {
                prop_assert_eq!(bins_of(&stable.unwrap()), reference.clone());
                let mut got = bins_of(&io);
                got.iter_mut().for_each(|bin| bin.sort_unstable());
                prop_assert_eq!(got, reference);
            }
        }
    }
}
