//! Oblivious bin placement (§C.1).
//!
//! Functionality: given an array of `nbins · Z` slots in which every real
//! element wants to go to bin `g = (label >> shift) & (nbins-1)`, and the
//! promise that no bin is wanted by more than `Z` elements, move every real
//! element into its bin and pad each bin to exactly `Z` slots with fillers.
//! Output is the concatenation of the `nbins` bins, in place, reals packed
//! in front of each bin in ascending label order.
//!
//! The algorithm is sort + rank + expansion (`place`, shared with
//! [`crate::oblivious_scatter`]; DESIGN.md §4 records it as a substitution
//! for Chan–Shi's two-sort placement): **one** oblivious sort by
//! `sk = group ‖ low half` with fillers (`MAX`) last, a segmented
//! propagation that gives every real its rank `r` within its group, a pass
//! that trades the group in the high half of `sk` for the absolute target
//! `g·Z + r`, and a comparator-free monotone [`expand`] that swaps every
//! real to its target. The sorted reals are a packed run and, under the
//! promise, their targets strictly increase along it — the no-collision
//! condition of the expansion.
//!
//! How much of that one sort is left to do is a **public fact about the
//! input** that the caller states ([`Input`]), never a setting: reals
//! confined to a public prefix ([`Input::Prefix`] — the scatter, ORBA's
//! first placement) sort only the prefix; an input that is already
//! `Z`-slot runs in sort order ([`Input::Runs`] — every later placement of
//! the ORBA butterfly, whose input bins are earlier placements' output
//! bins) is merged, not sorted.
//! Every step is an oblivious sort, a fixed-pattern scan, or a parallel
//! map: the access pattern depends only on `(nbins, Z)` and the input form.
//!
//! For the records of `oblivious_sort_u64` — a `u64` key, no payload —
//! the sort and the rank pass run on 16-byte `label ‖ key` cells packed
//! from the slots, which are unpacked back before the expansion
//! ([`bin_place_from`]; DESIGN.md §10).
//!
//! A real of rank `≥ Z` means the §C.1 promise was violated (bin
//! overflow): its target belongs to the next bin, the pass finishes on its
//! fixed trace with the reals permuted arbitrarily (none is lost), and the
//! caller gets [`OblivError::BinOverflow`] to retry with fresh labels.

use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::expand::expand;
use crate::scan::{seg_propagate_in, Schedule, Seg};
use crate::slot::{composite_key, is_bare, Item, Slot, Val};
use fj::Ctx;
use metrics::{par_fill, par_update, ScratchPool, Tracked};
use std::sync::atomic::{AtomicBool, Ordering};

/// What a placement's caller knows — publicly, from the shape of the
/// computation that produced the array — about where its reals sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Reals anywhere in the first `prefix` slots (a power of two); every
    /// slot behind them is a canonical filler. The sort and the rank pass
    /// run over the prefix only — sorted, it is the whole array's sorted
    /// order. `Prefix(len)` promises nothing.
    Prefix(usize),
    /// The array is aligned runs of `run` slots (a power of two), each
    /// already in the placement's sort order — ascending by
    /// `(bin ‖ order key)`, fillers last. The sort becomes a merge of the
    /// runs ([`Engine::sort_slots_from_runs`]).
    ///
    /// `void` is the one way out of the contract: an earlier placement of
    /// the same attempt has already overflowed, so the attempt's result is
    /// discarded whatever happens here and the runs may be in any order.
    /// The network runs its fixed trace and loses no element; the
    /// debug-build checks of the contract are off.
    Runs { run: usize, void: bool },
}

/// Oblivious bin placement over `io` (whose length must be `nbins · zcap`,
/// with `nbins` and `zcap` powers of two) by label bits
/// `[shift, shift + log₂ nbins)`, reals anywhere in `io`. Within a bin the
/// reals come back packed in front, ascending by full label — so a bin is
/// a sorted run for any later placement that routes on lower label bits.
/// Labels are preserved; the high half of a real's `sk` holds its position
/// on return (see [`expand`]), and fillers are canonical.
pub fn bin_place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    io: &mut Tracked<'_, Slot<V>>,
    nbins: usize,
    zcap: usize,
    shift: u32,
    engine: Engine,
) -> Result<()> {
    bin_place_from(
        c,
        scratch,
        io,
        Input::Prefix(io.len()),
        nbins,
        zcap,
        shift,
        engine,
    )
}

/// [`bin_place`] of an input whose form the caller can state.
///
/// The records of `oblivious_sort_u64` are their `u64` key and nothing
/// else, so for them steps 1–3 run on 16-byte `label ‖ key` cells instead
/// of the slots: the sort moves half the bytes, and a bin's reals still
/// come back ascending by label, ties by key. The route is chosen by the
/// payload *type* (crate-private to that entry point), never by the data.
#[allow(clippy::too_many_arguments)]
pub fn bin_place_from<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    io: &mut Tracked<'_, Slot<V>>,
    input: Input,
    nbins: usize,
    zcap: usize,
    shift: u32,
    engine: Engine,
) -> Result<()> {
    let mask = nbins as u64 - 1;
    // `shift = 64` is the single bin that routes on no bits at all.
    let group = |label: u64| label.checked_shr(shift).unwrap_or(0) & mask;
    if is_bare::<V>() {
        return place_keys(c, scratch, io, input, nbins, zcap, engine, &group);
    }
    place(c, scratch, io, input, nbins, zcap, engine, &|s| {
        (group(s.label()), s.label())
    })
}

/// Where the reals of a placement's input can be (`prefix`), the run
/// length its sort may assume, and whether the attempt is already void —
/// the [`Input`] against the shape, checked.
fn form<V: Val>(w: &Tracked<'_, Slot<V>>, input: Input, nbins: usize, zcap: usize) -> Form {
    let n_io = w.len();
    assert_eq!(n_io, nbins * zcap, "bin placement shape mismatch");
    assert!(nbins.is_power_of_two() && zcap.is_power_of_two());
    let (prefix, run, void) = match input {
        Input::Prefix(prefix) => (prefix, 1, false),
        Input::Runs { run, void } => (n_io, run, void),
    };
    assert!(prefix.is_power_of_two() && prefix <= n_io);
    assert!(run.is_power_of_two() && run <= n_io);
    debug_assert!(w.raw()[prefix..].iter().all(Slot::is_filler));
    Form { prefix, run, void }
}

struct Form {
    prefix: usize,
    run: usize,
    void: bool,
}

/// Step 2: every position's group head, by propagating each group's
/// leftmost index — `group(c, i)` is the group of sorted position `i`.
fn rank_in_groups<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    seg: &mut Tracked<'_, Seg<u64>>,
    group: &(impl Fn(&C, usize) -> u64 + Sync),
) {
    par_fill(c, seg, &|c, i| {
        let head = i == 0 || group(c, i) != group(c, i - 1);
        Seg::new(head, i as u64)
    });
    seg_propagate_in(c, scratch, seg, Schedule::Tree);
}

/// Step 4: comparator-free distribution. Without an overflow — in steps
/// 1–3 or, for a void input, upstream — the reals are a packed run with
/// increasing targets, so nothing can collide.
fn distribute<C: Ctx, V: Val>(
    c: &C,
    w: &mut Tracked<'_, Slot<V>>,
    form: Form,
    overflow: bool,
) -> Result<()> {
    let placed = expand(c, w);
    debug_assert!(overflow || form.void || placed, "monotone targets collided");
    if overflow {
        Err(OblivError::BinOverflow)
    } else {
        Ok(())
    }
}

/// The placement kernel: move every real of `w` (`nbins · zcap` slots,
/// both powers of two) into the bin named by `key(slot).0`, in ascending
/// order of `key(slot).1` within the bin; `key(slot).1` becomes the low
/// half of the slot's `sk`. `key` is only asked about reals and must
/// return a bin below `nbins`. `input` states the form `w` arrives in.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, Slot<V>>,
    input: Input,
    nbins: usize,
    zcap: usize,
    engine: Engine,
    key: &(impl Fn(&Slot<V>) -> (u64, u64) + Sync),
) -> Result<()> {
    let form = form(w, input, nbins, zcap);
    // Steps 1–3 run over the prefix, in a block so the rank lease is back
    // in the pool before the caller's next lease.
    let overflow = {
        let mut front = w.range(0, form.prefix);
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
        debug_assert!(
            form.void
                || w.raw()
                    .chunks(form.run)
                    .all(|r| r.is_sorted_by_key(|s| s.sk)),
            "placement input is not {}-slot runs in sort order",
            form.run
        );
        engine.sort_slots_from_runs(c, scratch, w, form.run);

        // Step 2: rank within group.
        let mut seg_store = scratch.lease(form.prefix, Seg::new(false, 0u64));
        let mut seg = Tracked::new(c, &mut seg_store);
        rank_in_groups(c, scratch, &mut seg, &|c, i| w.get(c, i).phase_key());

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
    distribute(c, w, form, overflow)
}

/// [`place`] for records that are their `u64` key ([`BareKey`]), routed by
/// `group(label)`: steps 1–3 on 16-byte cells, the slots only for the
/// expansion. Step 1 *packs* the prefix as `label ‖ key` cells (fillers
/// `u128::MAX`) in place of `set_keys`, and the cells are sorted, or their
/// runs merged, on the key gate; step 2 reads the groups from the cells;
/// step 3 *unpacks* them into the slots — `sk = target ‖ label`, the key
/// back in `item.key` — in place of the slot rewrite. No pass is added.
///
/// Label order is the placement's `(group ‖ label)` order: every real of a
/// placement agrees on the label bits above its window (module docs of
/// [`crate::rec_orba`]), so the group *is* the highest bits that differ.
/// A real cannot pack to the filler: ORBA's labels stay below `u64::MAX`.
#[allow(clippy::too_many_arguments)]
fn place_keys<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, Slot<V>>,
    input: Input,
    nbins: usize,
    zcap: usize,
    engine: Engine,
    group: &(impl Fn(u64) -> u64 + Sync),
) -> Result<()> {
    debug_assert!(is_bare::<V>());
    let form = form(w, input, nbins, zcap);
    let overflow = {
        let mut front = w.range(0, form.prefix);
        let w = &mut front;

        // Step 1: pack and sort.
        let mut cell_store = scratch.lease(form.prefix, u128::MAX);
        let mut cells = Tracked::new(c, &mut cell_store);
        par_fill(c, &mut cells, &|c, i| {
            let s = w.get(c, i);
            debug_assert!(s.is_filler() || (s.label() < u64::MAX && s.item.key >> 64 == 0));
            if s.is_real() {
                composite_key(s.label(), s.item.key as u64)
            } else {
                u128::MAX
            }
        });
        debug_assert!(
            form.void || cells.raw().chunks(form.run).all(|r| r.is_sorted()),
            "placement input is not {}-slot runs in sort order",
            form.run
        );
        engine.sort_keys_from_runs(c, scratch, &mut cells, form.run);

        // Step 2: rank within group; a filler's group is past the end.
        let group_of = |cell: u128| {
            if cell == u128::MAX {
                u64::MAX
            } else {
                group((cell >> 64) as u64)
            }
        };
        let mut seg_store = scratch.lease(form.prefix, Seg::new(false, 0u64));
        let mut seg = Tracked::new(c, &mut seg_store);
        rank_in_groups(c, scratch, &mut seg, &|c, i| group_of(cells.get(c, i)));

        // Step 3: unpack, each real with its absolute target.
        let overflow = AtomicBool::new(false);
        par_fill(c, w, &|c, i| {
            let cell = cells.get(c, i);
            let rank = i as u64 - seg.get(c, i).v;
            if cell == u128::MAX {
                return Slot::filler();
            }
            if rank >= zcap as u64 {
                overflow.store(true, Ordering::Relaxed);
            }
            let label = (cell >> 64) as u64;
            Slot::real(Item::new(cell as u64 as u128, V::default()), label)
                .with_phase_key(group(label) * zcap as u64 + rank)
        });
        overflow.into_inner()
    };
    distribute(c, w, form, overflow)
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

    /// `nbins` runs of `zcap` slots for the runs form at `shift = 0`: run
    /// `r` holds the given labels (value = label) in sort order — by
    /// `(label mod nbins ‖ label)` — and is padded with fillers.
    fn runs_input(nbins: usize, zcap: usize, runs: &[Vec<u64>]) -> Vec<Slot<u64>> {
        assert_eq!(runs.len(), nbins);
        let mut v = vec![Slot::<u64>::filler(); nbins * zcap];
        for (r, labels) in runs.iter().enumerate() {
            let mut labels = labels.clone();
            labels.sort_unstable_by_key(|&l| (l % nbins as u64, l));
            for (i, &l) in labels.iter().enumerate() {
                v[r * zcap + i] = Slot::real(Item::new(l as u128, l), l);
            }
        }
        v
    }

    fn place_from(
        c: &impl Ctx,
        v: &mut [Slot<u64>],
        input: Input,
        nbins: usize,
        zcap: usize,
    ) -> Result<()> {
        let sp = ScratchPool::new();
        let mut t = Tracked::new(c, v);
        bin_place_from(c, &sp, &mut t, input, nbins, zcap, 0, Engine::BitonicRec)
    }

    /// Run `r` of 8 holds the labels `13·j + r`, `per_run` of them.
    fn spread_runs(per_run: u64) -> Vec<Vec<u64>> {
        (0..8u64)
            .map(|r| (0..per_run).map(|j| j * 13 + r).collect())
            .collect()
    }

    #[test]
    fn runs_form_and_prefix_form_give_the_same_bins() {
        let c = SeqCtx::new();
        let (nbins, zcap) = (8, 16);
        let runs = spread_runs(7);
        let mut from_runs = runs_input(nbins, zcap, &runs);
        // The same multiset, run order forgotten, in the front half.
        let mut from_prefix = vec![Slot::<u64>::filler(); nbins * zcap];
        for (i, &l) in runs.iter().flatten().rev().enumerate() {
            from_prefix[i] = Slot::real(Item::new(l as u128, l), l);
        }
        let runs_form = Input::Runs {
            run: zcap,
            void: false,
        };
        place_from(&c, &mut from_runs, runs_form, nbins, zcap).unwrap();
        place_from(&c, &mut from_prefix, Input::Prefix(64), nbins, zcap).unwrap();
        assert!(from_runs == from_prefix);
        for (b, bin) in from_runs.chunks(zcap).enumerate() {
            let load = bin.iter().take_while(|s| s.is_real()).count();
            assert_eq!(load, 7);
            assert!(bin[load..].iter().all(Slot::is_filler));
            assert!(bin[..load].iter().all(|s| s.label() % 8 == b as u64));
            assert!(bin[..load].is_sorted_by_key(|s| s.label()), "bin {b}");
        }
    }

    #[test]
    fn runs_form_has_one_trace_for_clean_and_overflowing_inputs() {
        let (nbins, zcap) = (8, 16);
        let run_trace = |runs: Vec<Vec<u64>>, void: bool| {
            let mut v = runs_input(nbins, zcap, &runs);
            let mut verdict = Ok(());
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                verdict = place_from(c, &mut v, Input::Runs { run: zcap, void }, nbins, zcap);
            });
            (verdict, (rep.trace_hash, rep.trace_len))
        };
        let (clean, clean_trace) = run_trace(spread_runs(7), false);
        // Every run sends three labels to bin 0: 24 > 16.
        let over: Vec<Vec<u64>> = (0..8u64)
            .map(|r| {
                (0..7)
                    .map(|j| if j < 3 { 8 * (8 * j + r) } else { j * 13 + r })
                    .collect()
            })
            .collect();
        let (overflowed, over_trace) = run_trace(over, false);
        let (empty, empty_trace) = run_trace(vec![Vec::new(); 8], false);
        // A void attempt: the same shape, nothing promised about the runs.
        let (_, void_trace) = run_trace(spread_runs(7), true);
        assert_eq!(clean, Ok(()));
        assert_eq!(empty, Ok(()));
        assert_eq!(overflowed, Err(OblivError::BinOverflow));
        assert_eq!(clean_trace, over_trace);
        assert_eq!(clean_trace, empty_trace);
        assert_eq!(clean_trace, void_trace);
    }

    /// Runs that are *not* in sort order: each holds its labels descending.
    fn unsorted_runs(nbins: usize, zcap: usize) -> Vec<Slot<u64>> {
        let mut v = runs_input(nbins, zcap, &spread_runs(7));
        v.chunks_mut(zcap).for_each(|run| run[..7].reverse());
        v
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "runs in sort order")]
    fn a_violated_runs_contract_panics_in_debug() {
        let mut v = unsorted_runs(8, 16);
        let runs_form = Input::Runs {
            run: 16,
            void: false,
        };
        let _ = place_from(&SeqCtx::new(), &mut v, runs_form, 8, 16);
    }

    #[test]
    fn a_void_attempt_may_pass_unsorted_runs_and_loses_nothing() {
        let mut v = unsorted_runs(8, 16);
        let void = Input::Runs {
            run: 16,
            void: true,
        };
        let _ = place_from(&SeqCtx::new(), &mut v, void, 8, 16);
        let mut seen: Vec<u64> = v
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<u64> = spread_runs(7).concat();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    /// A placement's verdict and every slot's `(sk, item.key)`.
    type Placed = (Result<()>, Vec<(u128, u128)>);

    /// Place `(label, key)` reals through both routes — as bare keys
    /// (16-byte `label ‖ key` cells) and as unit-payload slots (the 32-byte
    /// route) — in 16 bins of 16, routing on the top four label bits as
    /// ORBA's first level does; the 16-slot run `r` starts with `runs[r]`.
    fn both_routes(input: Input, runs: &[Vec<(u64, u64)>]) -> [Placed; 2] {
        fn go<V: Val>(input: Input, runs: &[Vec<(u64, u64)>]) -> Placed {
            let mut v = vec![Slot::<V>::filler(); 256];
            for (r, reals) in runs.iter().enumerate() {
                for (j, &(label, key)) in reals.iter().enumerate() {
                    v[r * 16 + j] = Slot::real(Item::new(key as u128, V::default()), label);
                }
            }
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let r = bin_place_from(
                &c,
                &sp,
                &mut Tracked::new(&c, &mut v),
                input,
                16,
                16,
                60,
                Engine::BitonicRec,
            );
            (r, v.iter().map(|s| (s.sk, s.item.key)).collect())
        }
        [
            go::<crate::slot::BareKey>(input, runs),
            go::<()>(input, runs),
        ]
    }

    /// `per_run` reals in each of 16 runs, labels spread over all 16 bins
    /// (distinct), keys duplicate-heavy and at both ends of their range;
    /// each run ascending by label. `hot` sends every real to bin 0.
    fn injected(per_run: u64, hot: bool) -> Vec<Vec<(u64, u64)>> {
        (0..16u64)
            .map(|r| {
                let mut run: Vec<(u64, u64)> = (0..per_run)
                    .map(|j| {
                        let label = (r * per_run + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let label = if hot { label >> 4 } else { label };
                        (
                            label.min(u64::MAX - 1),
                            [0, u64::MAX, j % 3][(j % 3) as usize],
                        )
                    })
                    .collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    #[test]
    fn key_cells_and_slots_leave_the_same_bins() {
        // Prefix, runs, overflowing and void inputs: the same verdict and
        // the same slots, `sk` and key alike, from both routes.
        let runs = Input::Runs {
            run: 16,
            void: false,
        };
        let void = Input::Runs {
            run: 16,
            void: true,
        };
        let mut unsorted = injected(7, false);
        unsorted.iter_mut().for_each(|run| run.reverse());
        let cases = [
            (
                "prefix",
                Input::Prefix(128),
                injected(8, false)[..8].to_vec(),
                Ok(()),
            ),
            ("runs", runs, injected(7, false), Ok(())),
            (
                "overflow",
                runs,
                injected(4, true),
                Err(OblivError::BinOverflow),
            ),
            ("void", void, unsorted, Ok(())),
        ];
        for (name, input, reals, verdict) in cases {
            let [keys, slots] = both_routes(input, &reals);
            assert_eq!(keys.0, verdict, "{name}");
            assert!(keys == slots, "{name}: the routes differ");
        }
        // A clean form leaves every real in the bin its top bits name,
        // packed in front, ascending by label.
        let [(_, placed), _] = both_routes(runs, &injected(7, false));
        for (b, bin) in placed.chunks(16).enumerate() {
            let load = bin.iter().take_while(|&&(sk, _)| sk != u128::MAX).count();
            assert!(bin[..load]
                .iter()
                .all(|&(sk, _)| (sk as u64 >> 60) as usize == b));
            assert!(bin[..load].is_sorted_by_key(|&(sk, _)| sk as u64));
            assert!(bin[load..].iter().all(|&(sk, _)| sk == u128::MAX));
        }
        assert_eq!(
            placed.iter().filter(|&&(sk, _)| sk != u128::MAX).count(),
            112
        );
    }

    #[test]
    fn a_real_at_the_largest_label_and_key_is_not_a_filler() {
        // `u64::MAX − 1` is the largest label ORBA draws; with key
        // `u64::MAX` the cell is `u128::MAX − 2⁶⁴`, one below the filler.
        let top = (u64::MAX - 1, u64::MAX);
        let [(r, placed), _] = both_routes(Input::Prefix(128), &[vec![top]]);
        r.unwrap();
        assert_eq!(
            placed[240],
            ((240u128 << 64) | top.0 as u128, u64::MAX as u128)
        );
        assert_eq!(placed.iter().filter(|&&(sk, _)| sk != u128::MAX).count(), 1);
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
